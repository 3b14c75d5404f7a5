"""Machine-speed calibration for the end-to-end time metrics.

The shared virtual machines this benchmark runs on change speed by 15-50%
from one minute to the next, in every process alike: the same fixed work
takes that much longer or shorter, in CPU time as in wall time.  That drift
is larger than any regression bound a benchmark could set.

So the benchmark runs a fixed piece of calibration work next to the
program, one pass after every operation (outside the operation's timing)
and after every set-up sample, and reports each time at the reference
speed:

    reported = measured * REFERENCE_S / (median of the WINDOW passes
                                          before it and WINDOW after it)

``REFERENCE_S`` is a fixed scale, a pass time the machine where the
baseline was taken reaches in its faster spells, so a reported time reads
as seconds on that machine at that speed.  The work is
plain standard-library Python that no change to ``src/`` can make faster or
slower: dictionary convolutions of ``Fraction`` and ``int`` coefficients,
the same kind of work as the program's ring and skein arithmetic.  A
slower program still reads as slower; a slower machine does not.  The
measured times are printed beside the reported ones in the record line.

A ``cli`` command is a fresh process whose time is mostly interpreter
start and imports, and in-process passes do not track that: over ten
seeds, scaling the commands by passes run between them widened the spread
of the ``cli`` times from 0.05-0.18 to 0.16-0.24 of the median.  Its
passes are fresh processes instead: this file run as a script, which
starts an interpreter, imports ``fractions`` and runs ``PROCESS_PASSES``
passes, timed from outside like a command, with ``REFERENCE_PROCESS_S``
as its reference.  Process passes jitter by about 10% each, and the
tail of ``cli`` is the fastest of eleven ``verify`` commands, which picks
out a command scaled by two slow passes; so a command is scaled by the
median of ``PROCESS_WINDOW`` passes on either side of it.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# One pass of ``_work`` on the 2-vCPU Linux virtual machine (Python 3.11)
# where the baseline in baseline.json was taken, in a fast spell; most of
# its runs found 0.65-0.85 of this speed (``machine_speed``).
REFERENCE_S = 0.006
# In the worker the speed changes within a second: on repeated identical
# operations, the mean of the two passes bracketing each one left less
# spread than the median of the 8 or 32 passes around it.
WINDOW = 1
# Reference, passes per process and window of a process pass
# (``process_pass_s``), which ``cli`` uses; on that machine a process pass
# took 0.10-0.12 s, 0.6-0.7 of this speed.
REFERENCE_PROCESS_S = 0.07
PROCESS_PASSES = 2
PROCESS_WINDOW = 4

_TERMS = ({k: Fraction(k + 2, 3 + (k & 3)) for k in range(-5, 6)},
          {k: 3 * k + 1 for k in range(-5, 6)})


def _work():
    for terms in _TERMS:
        for _ in range(12):
            product = {}
            for i, x in terms.items():
                for j, y in terms.items():
                    product[i + j] = product.get(i + j, 0) + x * y


def calibration_s() -> float:
    """Seconds one calibration pass takes now.

    The garbage collector is off during the pass, so the size of the
    program's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def process_pass_s(cwd) -> float:
    """Seconds a fresh interpreter takes to run this file as a script."""
    start = perf_counter()
    subprocess.run([sys.executable, __file__], cwd=cwd, check=True,
                   capture_output=True, timeout=60)
    return perf_counter() - start


def at_reference_speed(times, passes, reference_s, window):
    """Scale ``times[i]`` by the median of the ``window`` passes before it
    and the ``window`` after it.

    ``passes`` has one pass before the first time and one after each, so
    ``passes[i]`` and ``passes[i + 1]`` bracket ``times[i]``."""
    return [seconds * reference_s
            / statistics.median(passes[max(0, i + 1 - window):i + 1 + window])
            for i, seconds in enumerate(times)]


if __name__ == "__main__":
    for _ in range(PROCESS_PASSES):
        _work()
