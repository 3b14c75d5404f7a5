"""Sliced diagrams of framed unoriented links and their exact evaluation.

A link enters either as a braid word (``n: k1 k2 ...``, letter k > 0 a
positive crossing of strands k, k+1), closed up by its trace closure
(:func:`braid_closure_slices` gives it as slices), or directly as a slice
list.  A sliced diagram is a bottom-to-top sequence of events, each acting
at a 1-based strand position:

* ``cup p``  - insert a paired arc so its left strand becomes strand p,
* ``cap p``  - join strands p and p+1,
* ``pos p`` / ``neg p`` - braiding / inverse braiding on strands p, p+1.

A ``--sliced`` diagram is evaluated by folding a single state vector in
the tensor powers of the six-dimensional module, applying the cup/cap
coefficients and the braiding column tables at the event position; all
event maps are parity-even, so no Koszul signs arise while skipping over
bystander strands.  A braid word skips the 2n-strand closure: its value is
the quantum trace sum_v p(v) <v|B|v> over the basis of the n-strand power,
where the pivotal weight p(v) is the product over strands of cup * cap for
the pair closing each strand (valid because cup and cap pair the same basis
vectors, which is checked).  Both report the stats of the sliced fold
(slices, peak strands, nominal dimension, peak support), which the trace
reproduces exactly.

The tables are converted once to integer Laurent polynomials, so neither
path touches rational-function arithmetic and values lie in Z[q, q^-1] by
construction.  During an evaluation each coefficient is one Kronecker-packed
int, sum(c_e << bits * (e + shift)); ``bits`` comes from a proven bound on
the coefficients (start L1 norm times each event's largest column L1 sum),
and the final value is decoded and re-packed as a check.  Framing is
blackboard: the value belongs to the drawn diagram, with no writhe
normalization.
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


# -- Kronecker-packed coefficients ---------------------------------------------
#
# A Laurent polynomial sum(c_e q^e) is held as the single int
# sum(c_e << bits * (e + shift)), i.e. its value at q = 2**bits after
# multiplying by q**shift, so one big-int multiply does a whole polynomial
# product.  Evaluating at 2**bits is a ring map, so sums and products of
# packed ints are exact; they decode uniquely while every coefficient lies
# within +-(2**(bits - 1) - 1).  ``_bits`` proves that bound for a whole
# evaluation: no state entry, and no sum of them, has an L1 norm above the
# L1 norm of the start state times, for each event, the largest column L1
# sum of its table.


def _pack(terms: Dict[int, int], bits: int, shift: int) -> int:
    return sum(coeff << bits * (exp + shift) for exp, coeff in terms.items())


def _decode(packed: int, bits: int, shift: int, digits: int) -> Dict[int, int]:
    """``{q_exponent: coefficient}`` of ``packed`` read as ``digits`` signed
    base-2**bits digits; raises :class:`OverflowError` if they do not pack
    back to ``packed`` (a coefficient or an exponent outside its bound)."""
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    terms: Dict[int, int] = {}
    rest = packed
    for exp in range(-shift, digits - shift):
        digit = ((rest + half) & mask) - half
        if digit:
            terms[exp] = digit
        rest = (rest - digit) >> bits
    if _pack(terms, bits, shift) != packed:
        raise OverflowError(
            f"packed value does not fit {digits} digits of {bits} bits")
    return terms


def _l1(terms: Dict[int, int]) -> int:
    return sum(abs(coeff) for coeff in terms.values())


@lru_cache(maxsize=None)
def _column_l1(kind: str) -> int:
    """Largest L1 sum of one table column (all rows of one window)."""
    _, table = _event_table(kind)
    return max(sum(_l1(coeff) for _, coeff in rows) for rows in table.values())


def _bits(start_l1: int, kinds) -> int:
    bound = start_l1
    for kind in kinds:
        bound *= _column_l1(kind)
    return bound.bit_length() + 2


def _exponent_range(polys) -> Tuple[int, int]:
    """``(shift, span)`` making every exponent of ``polys`` land in 0..span."""
    exponents = [exp for poly in polys for exp in poly]
    return -min(exponents), max(exponents) - min(exponents)


@lru_cache(maxsize=64)
def _packed_table(kind: str, bits: int) -> Tuple[int, int, int, Dict[tuple, tuple]]:
    """``(shift, span, width, table)``: :func:`_event_table` with each
    coefficient packed at ``bits`` after shifting by ``shift``."""
    width, table = _event_table(kind)
    shift, span = _exponent_range(coeff for rows in table.values()
                                  for _, coeff in rows)
    return shift, span, width, {
        window: tuple((replacement, _pack(coeff, bits, shift))
                      for replacement, coeff in rows)
        for window, rows in table.items()}


@lru_cache(maxsize=64)
def _letter_rows(kind: str, bits: int) -> Tuple[int, int, List[tuple]]:
    """``(shift, span, rows)`` of a crossing for the braid trace: ``rows[w]``
    lists ``(w' - w, packed coefficient)`` for the two-strand window
    ``w = 6 * left + right`` going to ``w'``."""
    shift, span, _, table = _packed_table(kind, bits)
    rows: List[tuple] = [()] * (DIM * DIM)
    for (a, b), entries in table.items():
        window = a * DIM + b
        rows[window] = tuple((c * DIM + d - window, coeff)
                             for (c, d), coeff in entries)
    return shift, span, rows


def _pivotal_weights(cup_table, cap_table) -> List[Dict[int, int]]:
    """Per basis vector r, cup * cap of the strand pair (l, r) closing it.

    The braid-closure trace is valid only if cup and cap pair the same
    basis vectors, each with exactly one partner; otherwise this raises
    ``ValueError``."""
    (_, cups), (_, caps) = cup_table, cap_table
    pairs = [pair for pair, _ in cups[()]]
    if (sorted(l for l, _ in pairs) != list(range(DIM))
            or sorted(r for _, r in pairs) != list(range(DIM))
            or sorted(pairs) != sorted(caps)
            or any(len(caps[pair]) != 1 for pair in pairs)):
        raise ValueError("cup and cap do not pair the same basis vectors "
                         "one to one; a braid closure is not a trace")
    weights: List[Dict[int, int]] = [{}] * DIM
    for pair, cup_coeff in cups[()]:
        ((_, cap_coeff),) = caps[pair]
        weight: Dict[int, int] = {}
        for e1, c1 in cup_coeff.items():
            for e2, c2 in cap_coeff.items():
                weight[e1 + e2] = weight.get(e1 + e2, 0) + c1 * c2
        weights[pair[1]] = weight
    return weights


def evaluate_sliced(diagram: SlicedDiagram,
                    budget: int = DEFAULT_TANGLE_BUDGET) -> EvalResult:
    """Fold the event list over a state vector and return the scalar value;
    more than ``budget`` strands at once is refused before any allocation."""
    peak = diagram.peak_strands()
    _check_budget(peak, budget)
    bits = _bits(1, (event.kind for event in diagram.events))
    shift = span = 0
    state: Dict[tuple, int] = {(): 1}
    peak_support = 1
    for event in diagram.events:
        kind_shift, kind_span, width, table = _packed_table(event.kind, bits)
        shift += kind_shift
        span += kind_span
        lo = event.position - 1
        hi = lo + width
        new_state: Dict[tuple, int] = {}
        for key, amp in state.items():
            for replacement, coeff in table.get(key[lo:hi], ()):
                target = key[:lo] + replacement + key[hi:]
                new_state[target] = new_state.get(target, 0) + amp * coeff
        state = {key: amp for key, amp in new_state.items() if amp}
        peak_support = max(peak_support, len(state))
    value = _decode(state.get((), 0), bits, shift, span + 1)
    return EvalResult(tuple(sorted(value.items())), diagram.slices, peak,
                      DIM ** peak, peak_support)


def invariant(word: BraidWord,
              budget: int = DEFAULT_TANGLE_BUDGET) -> EvalResult:
    """Value of the framed-link invariant on the trace closure of a braid,
    as the quantum trace sum_v p(v) <v|B|v> over the n-strand basis.

    Its stats are those of the fold over :func:`braid_closure_slices`, whose
    2n strands are checked against ``budget`` before any work."""
    n = word.strands
    _check_budget(2 * n, budget)
    size, windows = DIM ** n, DIM * DIM
    weights = _pivotal_weights(_event_table("cup"), _event_table("cap"))
    start_l1 = sum(_l1(weight) for weight in weights) ** n
    kinds = ["pos" if letter > 0 else "neg" for letter in word.letters]
    bits = _bits(start_l1, kinds)
    w_shift, w_span = _exponent_range(weights)
    shift, span = n * w_shift, n * w_span
    packed = [_pack(weight, bits, w_shift) for weight in weights]
    diagonal = {0: 1}
    for _ in range(n):
        diagonal = {row * DIM + digit: amp * packed[digit]
                    for row, amp in diagonal.items() for digit in range(DIM)}
    # keys are col * size + row: col the basis vector a column started
    # from, row where the braid has taken it; letters act on row digits
    state = {v * size + v: amp for v, amp in diagonal.items()}
    peak_support = len(state)
    for letter, kind in zip(word.letters, kinds):
        kind_shift, kind_span, rows = _letter_rows(kind, bits)
        shift += kind_shift
        span += kind_span
        unit = DIM ** (n - abs(letter) - 1)
        new_state: Dict[int, int] = {}
        get = new_state.get
        for key, amp in state.items():
            for delta, coeff in rows[key // unit % windows]:
                target = key + delta * unit
                new_state[target] = get(target, 0) + amp * coeff
        state = {key: amp for key, amp in new_state.items() if amp}
        peak_support = max(peak_support, len(state))
    total = sum(state.get(v * size + v, 0) for v in range(size))
    value = _decode(total, bits, shift, span + 1)
    return EvalResult(tuple(sorted(value.items())), 2 * n + len(kinds), 2 * n,
                      DIM ** (2 * n), peak_support)
