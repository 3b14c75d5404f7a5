"""Exact link invariants from a six-dimensional quantum supermodule.

The package evaluates the braiding induced on the six-dimensional
supermodule of the quantized exceptional Lie superalgebra of type D(2,1)
at parameter one, feeds it through an unoriented tangle calculus to produce
a framed-link invariant with values in Z[q, q^{-1}], and cross-validates
every value against an independently computed specialization of Kauffman's
Dubrovnik polynomial (a = -q^{-1}, z = q - q^{-1}).

Importing the package loads no submodule; import the one you need
(``d21link.tangle``, ``d21link.dubrovnik``, ...), so that the skein oracle
can be loaded without the braiding side.  ``d21link.braiding`` is kept as a
shortcut for :func:`d21link.rmatrix.braiding`, looked up on each access.
"""

__version__ = "0.1.0"


def __getattr__(name):
    # Not bound in the package namespace: a wrapper put on rmatrix.braiding
    # (the perfbench tracer's probe) is what d21link.braiding then returns.
    if name == "braiding":
        from .rmatrix import braiding
        return braiding
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
