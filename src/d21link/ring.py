"""Exact arithmetic in the Laurent ring Z[q, q^-1] and its fractions.

A :class:`Laurent` stores ``{k: coefficient of q^k}``, every coefficient
an ``int`` (anything else raises ``TypeError``).  Every entry of every
graded map of :mod:`d21link.superlinalg` is one, the tangle fold reads
their coefficient dicts, and the skein oracle runs on ``int``
coefficients.  The one exponent that could leave the ring, that of the
Cartan factor K, is checked where K is built
(:func:`d21link.rmatrix.cartan_exponents`).  The scalars maps are scaled
by are Laurent values too, save the only fractions: the pairing constants
phi_i, whose inverse scales the one nonzero term of each exponential
factor.  Those are :class:`RatFunc` values, and a map scaled by one takes
its numerator and its denominator, which divides each entry exactly.
:func:`add_product` is the one product loop on coefficient dicts: graded
maps and tangle tables call it, and Laurent multiplication does through
:func:`laurent_product`.  :func:`nonzero_terms` drops the zeros such sums
leave.

A :class:`RatFunc` is a fraction of two Laurent values held in lowest
terms over Z[q, q^-1]: numerator and denominator divided by their gcd (a
primitive pseudo-remainder sequence over the integers, times the gcd of
the contents), denominator with valuation zero and positive leading
coefficient, and denominator equal to one whenever the value is
polynomial.  The units of Z[q, q^-1] are the +-q^k, so this form is unique
and equality is structural.  The same units give :func:`poly_gcd` and
:func:`exact_div` their one-term shortcut: a one-term c*q^k is a unit q^k
times the integer c, so a gcd with it is the gcd of the contents, and a
division by it shifts the exponents by -k and divides each coefficient by
c; neither runs its general loop.

Values render canonically with ascending exponents::

    -2*q^-1 + 3 + q^2

Term grammar (:func:`format_laurent`, the one polynomial printer: also for
the skein oracle's a, z and for the ``repr`` of Laurent and RatFunc): an
optional coefficient (omitted when the magnitude is 1 and some exponent is
nonzero), then each variable of nonzero exponent with ``^k`` unless k = 1,
all joined by ``*``; interior negative terms use `` - ``.  All values are
immutable and all operations pure; hashes are computed on demand, never
stored.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from math import gcd as _int_gcd


class NotLaurentInQ(ValueError):
    """Raised when a value fails to be an integer Laurent polynomial in q;
    ``offender`` is the exponent sum or the denominator at fault."""

    def __init__(self, reason: str, offender=None):
        msg = reason if offender is None else f"{reason}: {offender!r}"
        super().__init__(msg)
        self.offender = offender


class Laurent:
    """Laurent polynomial in q with ``int`` coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for exp, coeff in terms.items():
                if type(coeff) is not int:
                    raise TypeError(f"coefficient {coeff!r} is not an int")
                if coeff:
                    clean[int(exp)] = coeff
        self.terms = clean

    @classmethod
    def q_power(cls, exp: int, coeff=1) -> "Laurent":
        return cls({exp: coeff})

    @classmethod
    def constant(cls, coeff) -> "Laurent":
        return cls({0: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other: "Laurent") -> "Laurent":
        merged = dict(self.terms)
        for exp, coeff in other.terms.items():
            acc = merged.get(exp)
            if acc is None:
                merged[exp] = coeff
            else:
                acc = acc + coeff
                if acc:
                    merged[exp] = acc
                else:
                    del merged[exp]
        result = Laurent.__new__(Laurent)
        result.terms = merged
        return result

    def __neg__(self) -> "Laurent":
        result = Laurent.__new__(Laurent)
        result.terms = {e: -c for e, c in self.terms.items()}
        return result

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        result = Laurent.__new__(Laurent)
        result.terms = laurent_product(self.terms, other.terms)
        return result

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(self.terms)

    def valuation(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self.terms)

    def leading_coefficient(self):
        return self.terms[self.degree()]

    def content(self) -> int:
        """The gcd of the coefficients (0 for the zero polynomial)."""
        return _int_gcd(*self.terms.values())

    def __repr__(self):
        return format_q_laurent(self.terms)


# The former name, kept only for the benchmark's ring.laurent_* probes.
QuarterLaurent = Laurent

ZERO = Laurent()
ONE = Laurent({0: 1})
Q = Laurent({1: 1})
QINV = Laurent({-1: 1})
LAMBDA = Q - QINV


def _subtract_multiple(rem: dict[int, int], factor: int, shift: int,
                       b: Laurent) -> None:
    """rem -= factor * q^shift * b, in place."""
    for exp, coeff in b.terms.items():
        e = exp + shift
        acc = rem.get(e, 0) - factor * coeff
        if acc:
            rem[e] = acc
        else:
            rem.pop(e, None)


def _primitive(p: Laurent) -> Laurent:
    """p shifted to valuation 0 and divided by its content, with a positive
    leading coefficient."""
    shift = -p.valuation()
    scale = p.content() if p.leading_coefficient() > 0 else -p.content()
    return Laurent({e + shift: c // scale for e, c in p.terms.items()})


def poly_gcd(a: Laurent, b: Laurent) -> Laurent:
    """Gcd of two nonzero Laurent polynomials over Z: valuation 0, positive
    leading coefficient, content the gcd of the two contents.

    A one-term operand c*q^k is a unit q^k times the integer c, so the gcd
    is then the gcd of the two contents alone; otherwise it is that times
    the primitive gcd of :func:`_primitive_gcd`.
    """
    content = _int_gcd(a.content(), b.content())
    if len(a.terms) == 1 or len(b.terms) == 1:
        return ONE if content == 1 else Laurent({0: content})
    g = _primitive_gcd(a, b)
    return g if content == 1 else g * Laurent.constant(content)


def _primitive_gcd(a: Laurent, b: Laurent) -> Laurent:
    """The gcd of the primitive parts of a and b: a primitive
    pseudo-remainder sequence (Knuth, TAOCP vol. 2, 4.6.1), where every
    step stays in integers and each remainder is cut back to its primitive
    part before the next.  Each step lowers the remainder's degree, so one
    past deg(a) - deg(b) + 1 steps is a broken loop: ``RuntimeError``."""
    a, b = _primitive(a), _primitive(b)
    while not b.is_zero():
        rem = dict(a.terms)
        deg_b, lead_b = b.degree(), b.leading_coefficient()
        steps = max(rem) - deg_b + 1
        while rem and max(rem) >= deg_b:
            if steps == 0:
                raise RuntimeError("poly_gcd took too many pseudo-remainder steps")
            steps -= 1
            deg_r = max(rem)
            factor = rem[deg_r]
            if lead_b != 1:
                rem = {e: c * lead_b for e, c in rem.items()}
            _subtract_multiple(rem, factor, deg_r - deg_b, b)
        a, b = b, _primitive(Laurent(rem)) if rem else ZERO
    return a


def exact_div(a: Laurent, b: Laurent) -> Laurent:
    """Quotient a/b in Z[q, q^-1]; ``ArithmeticError`` unless b divides a.

    By a one-term b = c*q^k, a unit q^k times an integer, the quotient
    shifts every exponent of a by -k and divides every coefficient by c.
    Otherwise :func:`_long_division` computes it."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return ZERO
    if len(b.terms) != 1:
        return _long_division(a, b)
    ((shift, unit),) = b.terms.items()
    quo: dict[int, int] = {}
    for exp, coeff in a.terms.items():
        factor, rest = divmod(coeff, unit)
        if rest:
            raise ArithmeticError("inexact polynomial division")
        quo[exp - shift] = factor
    result = Laurent.__new__(Laurent)
    result.terms = quo      # int coefficients, none zero
    return result


def _long_division(a: Laurent, b: Laurent) -> Laurent:
    """exact_div of a nonzero a by a nonzero b, by the quotient loop.

    Each exact step lowers the remainder's degree, so the quotient has at
    most deg(a) - deg(b) + 1 terms (degrees taken at valuation 0); a step
    past that bound is a broken loop, not an inexact division, and raises
    ``RuntimeError``."""
    va, vb = a.valuation(), b.valuation()
    rem = {e - va: c for e, c in a.terms.items()}
    quo: dict[int, int] = {}
    b = Laurent({e - vb: c for e, c in b.terms.items()})
    deg_b, lead_b = b.degree(), b.leading_coefficient()
    steps = max(rem) - deg_b + 1
    while rem:
        deg_r = max(rem)
        factor, left = divmod(rem[deg_r], lead_b)
        if deg_r < deg_b or left:
            raise ArithmeticError("inexact polynomial division")
        if steps == 0:
            raise RuntimeError("exact_div took more than deg(a) - deg(b) + 1 "
                               "quotient steps")
        steps -= 1
        quo[deg_r - deg_b + va - vb] = factor
        _subtract_multiple(rem, factor, deg_r - deg_b, b)
    return Laurent(quo)


class RatFunc:
    """Reduced fraction of two Laurent polynomials (canonical form)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Laurent, den: Laurent = ONE):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = ZERO, ONE
        else:
            g = poly_gcd(num, den)
            if g != ONE:
                num, den = exact_div(num, g), exact_div(den, g)
            # the unit +-q^k that takes den to valuation 0, positive lead
            unit = Laurent(
                {-den.valuation(): 1 if den.leading_coefficient() > 0 else -1})
            num, den = num * unit, den * unit
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __repr__(self):
        if self.den == ONE:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


def to_integer_laurent(value: Laurent) -> dict[int, int]:
    """``{q_exponent: coeff}``: only the benchmark's probe calls it."""
    return dict(value.terms)


def format_laurent(terms: Mapping[tuple, int], names: Sequence[str]) -> str:
    """Canonical ascending rendering of ``{exponent tuple: int}``, one
    exponent per name, e.g. ``-a^-1*z^-1 + 1 + a*z^-1`` for names a, z."""
    pieces = []
    for exps in sorted(terms):
        coeff = terms[exps]
        if coeff == 0:
            continue
        factors = [name if exp == 1 else f"{name}^{exp}"
                   for name, exp in zip(names, exps) if exp]
        mag = abs(coeff)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(pieces) if pieces else "0"


def add_product(acc: dict[int, int], left: Mapping[int, int],
                right: Mapping[int, int]) -> None:
    """acc += left * right on ``{exponent: coeff}`` dicts, zeros kept."""
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = e1 + e2
            acc[e] = acc.get(e, 0) + c1 * c2


def nonzero_terms(sums: dict) -> dict:
    """``{key: {exponent: coeff}}`` without its zero coefficients, then
    without the polynomials left empty; a dict without zeros is kept as it
    is, not copied."""
    out = {}
    for key, terms in sums.items():
        if 0 in terms.values():
            terms = {exp: coeff for exp, coeff in terms.items() if coeff}
        if terms:
            out[key] = terms
    return out


def laurent_product(left: Mapping[int, int],
                    right: Mapping[int, int]) -> dict[int, int]:
    """Product of two integer Laurent polynomials ``{q_exponent: coeff}``."""
    out: dict[int, int] = {}
    add_product(out, left, right)
    return {exp: coeff for exp, coeff in out.items() if coeff}


def format_q_laurent(terms: Mapping[int, int]) -> str:
    """Canonical ascending-exponent rendering, e.g. ``-2*q^-1 + 3 + q^2``."""
    return format_laurent({(exp,): coeff for exp, coeff in terms.items()}, ("q",))


def q_string(value: Laurent) -> str:
    """Canonical q-polynomial string of a Laurent value."""
    if not value.terms:     # most cells of the braiding
        return "0"
    return format_q_laurent(value.terms)


EXCERPT_LIMIT = 32      # characters of a user's text an error message shows


def excerpt(value: str | int) -> str:
    """``repr`` of a user's text or number for an error message; past
    ``EXCERPT_LIMIT`` characters it shows the first ``EXCERPT_LIMIT``,
    ``...`` and the length, so that no message echoes a long input whole."""
    text = str(value)
    if len(text) <= EXCERPT_LIMIT:
        return repr(value)
    head = text[:EXCERPT_LIMIT] + "..."
    if isinstance(value, str):
        head = repr(head)
    return f"{head} ({len(text)} characters)"
