"""Sliced diagrams of framed unoriented links and their exact evaluation.

A link enters either as a braid word (``n: k1 k2 ...``, letter k > 0 a
positive crossing of strands k, k+1) whose trace closure is converted to a
deterministic sliced presentation, or directly as a slice list.  A sliced
diagram is a bottom-to-top sequence of events, each acting at a 1-based
strand position:

* ``cup p``  - insert a paired arc so its left strand becomes strand p,
* ``cap p``  - join strands p and p+1,
* ``pos p`` / ``neg p`` - braiding / inverse braiding on strands p, p+1.

Evaluation folds a single state vector in the tensor powers of the
six-dimensional module, applying the cup/cap coefficients and the braiding
column tables at the event position; all event maps are parity-even, so no
Koszul signs arise while skipping over bystander strands.  The tables are
converted once to integer Laurent polynomials ``{q_exponent: int}``, so the
fold never touches rational-function arithmetic and its value lies in
Z[q, q^-1] by construction.  Framing is blackboard: the value belongs to
the drawn diagram, with no writhe normalization.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

from .ring import format_q_laurent, to_integer_laurent
from .representation import DIM, duality_maps
from .rmatrix import braiding

EVENT_KINDS = ("cup", "cap", "pos", "neg")

# Most strands a fold may hold at once (up to 6 ** strands states); 12
# admits the closure of any 6-strand braid.
DEFAULT_TANGLE_BUDGET = 12


class DiagramError(ValueError):
    """Malformed braid text or sliced diagram."""


class TangleBudgetExceeded(DiagramError):
    """Diagram holds more strands at once than the fold budget allows."""


def _check_budget(strands: int, budget: int) -> None:
    if strands > budget:
        raise TangleBudgetExceeded(
            f"{strands} peak strands exceed the tangle budget {budget}")


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: Tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise DiagramError("braid needs at least one strand")
        for letter in self.letters:
            if letter == 0 or abs(letter) >= self.strands:
                raise DiagramError(
                    f"braid letter {letter} out of range for {self.strands} strands")

    def mirror(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-k for k in self.letters))

    def __str__(self):
        return f"{self.strands}: {' '.join(str(k) for k in self.letters)}".rstrip()


_BRAID_RE = re.compile(r"^\s*(\d+)\s*:\s*((?:-?\d+\s*)*)$")


def parse_braid(text: str) -> BraidWord:
    """Parse ``<n>: <letters>``, e.g. ``2: 1 1 1`` or ``1:``."""
    match = _BRAID_RE.match(text)
    if not match:
        raise DiagramError(f"malformed braid text {text!r}")
    strands = int(match.group(1))
    letters = tuple(int(tok) for tok in match.group(2).split())
    return BraidWord(strands, letters)


@dataclass(frozen=True)
class SlicedEvent:
    kind: str
    position: int


@dataclass(frozen=True)
class SlicedDiagram:
    events: Tuple[SlicedEvent, ...]

    def __post_init__(self):
        strands = 0
        for event in self.events:
            strands = _next_strand_count(event, strands)
        if strands != 0:
            raise DiagramError(f"diagram is not closed ({strands} strands left open)")

    @property
    def slices(self) -> int:
        return len(self.events)

    def peak_strands(self) -> int:
        strands = peak = 0
        for event in self.events:
            strands = _next_strand_count(event, strands)
            peak = max(peak, strands)
        return peak


def _next_strand_count(event: SlicedEvent, strands: int) -> int:
    kind, p = event.kind, event.position
    if kind == "cup":
        if not 1 <= p <= strands + 1:
            raise DiagramError(f"cup at {p} with {strands} strands")
        return strands + 2
    if kind == "cap":
        if not 1 <= p <= strands - 1:
            raise DiagramError(f"cap at {p} with {strands} strands")
        return strands - 2
    if kind in ("pos", "neg"):
        if not 1 <= p <= strands - 1:
            raise DiagramError(f"crossing at {p} with {strands} strands")
        return strands
    raise DiagramError(f"unknown event kind {kind!r}")


def braid_closure_slices(word: BraidWord) -> SlicedDiagram:
    """Deterministic sliced presentation of the trace closure.

    n nested cups (cup 1 .. cup n), the braid letters as crossings shifted
    to positions n + |k|, then n nested caps (cap n .. cap 1).  Blackboard
    framing: the closure is evaluated exactly as drawn.
    """
    n = word.strands
    events: List[SlicedEvent] = [SlicedEvent("cup", p) for p in range(1, n + 1)]
    for letter in word.letters:
        kind = "pos" if letter > 0 else "neg"
        events.append(SlicedEvent(kind, n + abs(letter)))
    events.extend(SlicedEvent("cap", p) for p in range(n, 0, -1))
    return SlicedDiagram(tuple(events))


def parse_sliced_text(text: str) -> SlicedDiagram:
    """One ``kind position`` per line; blank lines and ``#`` comments skipped."""
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in EVENT_KINDS:
            raise DiagramError(f"line {lineno}: expected 'kind position', got {raw!r}")
        try:
            position = int(parts[1])
        except ValueError:
            raise DiagramError(f"line {lineno}: bad position {parts[1]!r}") from None
        events.append(SlicedEvent(parts[0], position))
    return SlicedDiagram(tuple(events))


@dataclass(frozen=True)
class EvalResult:
    value: Tuple[Tuple[int, int], ...]   # sorted (q-exponent, coefficient)
    slices: int
    peak_strands: int
    peak_dimension: int    # nominal state-space bound 6 ** peak_strands
    peak_support: int      # most nonzero states held after any event

    def value_dict(self) -> Dict[int, int]:
        return dict(self.value)

    def canonical(self) -> str:
        return format_q_laurent(dict(self.value))


@lru_cache(maxsize=None)
def _event_table(kind: str) -> Tuple[int, Dict[tuple, tuple]]:
    """``(width, table)``: the window ``key[lo:lo+width]`` maps to its
    ``(replacement, {q_exponent: coefficient})`` rows; an entry outside
    Z[q, q^-1] raises :class:`NotLaurentInQ`."""
    _, cup, cap = duality_maps()
    if kind == "cup":
        return 0, {(): tuple((divmod(row, DIM), to_integer_laurent(value))
                             for (row, _), value in sorted(cup.entries.items()))}
    if kind == "cap":
        return 2, {divmod(col, DIM): (((), to_integer_laurent(value)),)
                   for (_, col), value in cap.entries.items()}
    bundle = braiding()
    matrix = bundle.c if kind == "pos" else bundle.c_inv
    columns: Dict[tuple, list] = {}
    for (row, col), value in sorted(matrix.entries.items()):
        columns.setdefault(divmod(col, DIM), []).append(
            (divmod(row, DIM), to_integer_laurent(value)))
    return 2, {window: tuple(rows) for window, rows in columns.items()}


def evaluate_sliced(diagram: SlicedDiagram,
                    budget: int = DEFAULT_TANGLE_BUDGET) -> EvalResult:
    """Fold the event list over a state vector and return the scalar value;
    more than ``budget`` strands at once is refused before any allocation."""
    peak = diagram.peak_strands()
    _check_budget(peak, budget)
    state: Dict[tuple, Dict[int, int]] = {(): {0: 1}}
    peak_support = 1
    for event in diagram.events:
        width, table = _event_table(event.kind)
        lo = event.position - 1
        hi = lo + width
        new_state: Dict[tuple, Dict[int, int]] = {}
        for key, amp in state.items():
            for replacement, coeff in table.get(key[lo:hi], ()):
                target = new_state.setdefault(key[:lo] + replacement + key[hi:], {})
                for e1, c1 in amp.items():
                    for e2, c2 in coeff.items():
                        e = e1 + e2
                        target[e] = target.get(e, 0) + c1 * c2
        state = {}
        for key, amp in new_state.items():
            if 0 in amp.values():
                amp = {e: c for e, c in amp.items() if c}
            if amp:
                state[key] = amp
        peak_support = max(peak_support, len(state))
    value = tuple(sorted(state.get((), {}).items()))
    return EvalResult(value, diagram.slices, peak, DIM ** peak, peak_support)


def invariant(word: BraidWord,
              budget: int = DEFAULT_TANGLE_BUDGET) -> EvalResult:
    """Value of the framed-link invariant on the trace closure of a braid;
    its 2n strands are checked against ``budget`` before the closure is built."""
    _check_budget(2 * word.strands, budget)
    return evaluate_sliced(braid_closure_slices(word), budget)
