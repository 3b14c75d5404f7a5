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
vectors, which is checked).

Before the trace the word is simplified, since the value belongs to the
closure: inverse pairs cancel, cyclically (every crossing keeps p(a) p(b),
so the trace is cyclic), and an end strand that at most one crossing meets
is removed for a factor, the loop value 2 or the left partial trace of
that crossing, -q^-1 or -q (framed Markov destabilisation; strand n is
first moved to the left by reversing the strand order, a conjugation by
the half twist).  The factors and the structure they rest on are checked
where they are derived from the tables.

Swapping v4 and v5 in every strand maps both crossing tables onto
themselves and fixes p(v) (also checked), so the trace evolves one start
column per swap orbit, its amplitude times the orbit size, in blocks of at
most 216 columns that share their leading digits, one block at a time,
each held to a support budget.  Both paths report the stats of the sliced
fold (slices, peak strands, nominal dimension, peak support), which the
trace reproduces exactly by summing each letter's support over the blocks,
times the orbit size; for a braid word they describe the braid actually
traced, and the trace also reports its own figures (:class:`TraceStats`).

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
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from .ring import format_q_laurent, to_integer_laurent
from .representation import DIM, duality_maps
from .rmatrix import braiding

EVENT_KINDS = ("cup", "cap", "pos", "neg")

# Most strands a fold may hold at once (up to 6 ** strands states); 12
# admits the closure of any 6-strand braid.
DEFAULT_TANGLE_BUDGET = 12

# Most nonzero states one block of the braid trace may hold at once.  Peak
# RSS measured 1.6-2.7 KiB per state of the largest block (CPython 3.11,
# 64-bit Linux; 5- and 6-strand mixed-sign words of 15-16 letters), so a
# refused block stays near 1 GiB; 5: (1 -2 3 -4)^4 needs 44,665.
DEFAULT_SUPPORT_BUDGET = 400_000


class DiagramError(ValueError):
    """Malformed braid text or sliced diagram."""


class TangleBudgetExceeded(DiagramError):
    """Diagram holds more strands at once than the fold budget allows."""


def _check_budget(strands: int, budget: int) -> None:
    if strands > budget:
        raise TangleBudgetExceeded(
            f"{strands} peak strands exceed the tangle budget {budget}")


def _check_support(support: int, budget: int) -> None:
    if support > budget:
        raise TangleBudgetExceeded(
            f"{support} states in one trace block exceed the support "
            f"budget {budget}")


class _BraidFields(NamedTuple):
    strands: int
    letters: Tuple[int, ...]


class BraidWord(_BraidFields):
    __slots__ = ()

    def __new__(cls, strands: int, letters: Tuple[int, ...]):
        if strands < 1:
            raise DiagramError("braid needs at least one strand")
        for letter in letters:
            if letter == 0 or abs(letter) >= strands:
                raise DiagramError(
                    f"braid letter {letter} out of range for {strands} strands")
        return super().__new__(cls, strands, letters)

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


class SlicedEvent(NamedTuple):
    kind: str
    position: int


class _SlicedFields(NamedTuple):
    events: Tuple[SlicedEvent, ...]


class SlicedDiagram(_SlicedFields):
    __slots__ = ()

    def __new__(cls, events: Tuple[SlicedEvent, ...]):
        strands = 0
        for event in events:
            strands = _next_strand_count(event, strands)
        if strands != 0:
            raise DiagramError(f"diagram is not closed ({strands} strands left open)")
        return super().__new__(cls, events)

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


class TraceStats(NamedTuple):
    """What the braid trace of :func:`invariant` evolved."""
    braid: str                 # the braid traced, after simplification
    strands: int
    columns: int               # 6 ** strands start columns of the trace
    columns_evaluated: int     # one per swap orbit
    blocks: int
    peak_block_support: int    # most nonzero states one block held at once


class EvalResult(NamedTuple):
    value: Tuple[Tuple[int, int], ...]   # sorted (q-exponent, coefficient)
    slices: int
    peak_strands: int
    peak_dimension: int    # nominal state-space bound 6 ** peak_strands
    peak_support: int      # most nonzero states held after any event
    trace: Optional[TraceStats] = None   # set by the braid trace only

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


@lru_cache(maxsize=256)
def _letter_rows(kind: str, bits: int, unit: int) -> Tuple[int, int, List[tuple]]:
    """``(shift, span, rows)`` of a crossing for the braid trace: ``rows[w]``
    lists ``((w' - w) * unit, packed coefficient)`` for the two-strand
    window ``w = 6 * left + right`` going to ``w'``, whose right digit has
    place value ``unit`` in a state key."""
    shift, span, _, table = _packed_table(kind, bits)
    rows: List[tuple] = [()] * (DIM * DIM)
    for (a, b), entries in table.items():
        window = a * DIM + b
        rows[window] = tuple(((c * DIM + d - window) * unit, coeff)
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
        weights[pair[1]] = _product(cup_coeff, cap_coeff)
    return weights


def _product(left: Dict[int, int], right: Dict[int, int]) -> Dict[int, int]:
    """Product of two Laurent polynomials ``{q_exponent: coefficient}``."""
    out: Dict[int, int] = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {exp: coeff for exp, coeff in out.items() if coeff}


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


# The one basis permutation that commutes with the braiding and keeps the
# pivotal weights: v4 <-> v5, digits 3 and 4 of the 0-based keys.
_SWAP = (0, 1, 2, 4, 3, 5)


def _check_swap(crossing_tables, weights) -> None:
    """Raise ``ValueError`` unless ``_SWAP`` maps each crossing table
    onto itself entry for entry and fixes every pivotal weight, so that
    p(sv) <sv|B|sv> = p(v) <v|B|v> for s the swap on every strand."""
    s = _SWAP
    for _, table in crossing_tables:
        entries = {window: dict(rows) for window, rows in table.items()}
        swapped = {(s[a], s[b]): {(s[c], s[d]): coeff for (c, d), coeff in rows}
                   for (a, b), rows in table.items()}
        if swapped != entries:
            raise ValueError("the v4 <-> v5 swap does not map a crossing "
                             "table onto itself")
    if any(weights[s[r]] != weights[r] for r in range(DIM)):
        raise ValueError("the v4 <-> v5 swap does not fix the pivotal weights")


@lru_cache(maxsize=None)
def _trace_weights() -> Tuple[Dict[int, int], ...]:
    """The pivotal weights, once cup/cap pairing and the swap are checked."""
    weights = _pivotal_weights(_event_table("cup"), _event_table("cap"))
    _check_swap((_event_table("pos"), _event_table("neg")), weights)
    return tuple(weights)


def _left_partial_trace(crossing_table, weights) -> Dict[int, int]:
    """The scalar lambda with sum_x p(x) <x d|c|x b> = lambda [b = d] for
    every pair of basis vectors b, d, where c is the crossing table: the
    factor of closing the crossing's left strand on itself.

    Raises ``ValueError`` unless that partial trace is one scalar, or unless
    c keeps p(a) p(b) on every entry, so that the weighted trace is cyclic.
    (With these weights the right partial trace is not a scalar.)"""
    _, table = crossing_table
    partial = {(b, d): {} for b in range(DIM) for d in range(DIM)}
    for (x, b), rows in table.items():
        for (y, d), coeff in rows:
            if (_product(weights[x], weights[b])
                    != _product(weights[y], weights[d])):
                raise ValueError("a crossing does not keep the pivotal "
                                 "weights; the trace is not cyclic")
            if y == x:
                terms = partial[b, d]
                for exp, value in _product(weights[x], coeff).items():
                    terms[exp] = terms.get(exp, 0) + value
    partial = {pair: {e: c for e, c in terms.items() if c}
               for pair, terms in partial.items()}
    scalar = partial[0, 0]
    if any(terms != (scalar if b == d else {})
           for (b, d), terms in partial.items()):
        raise ValueError("the left partial trace of a crossing is not a "
                         "scalar; its strand cannot be removed")
    return scalar


@lru_cache(maxsize=None)
def _markov_factors() -> Tuple[Dict[int, int], Dict[str, Dict[int, int]]]:
    """``(loop, {kind: factor})``: the factor of removing a closure strand
    that no crossing meets (the loop value sum_v p(v)), or that one
    crossing of each kind meets (its left partial trace)."""
    weights = _trace_weights()
    loop: Dict[int, int] = {}
    for weight in weights:
        for exp, coeff in weight.items():
            loop[exp] = loop.get(exp, 0) + coeff
    loop = {exp: coeff for exp, coeff in loop.items() if coeff}
    return loop, {kind: _left_partial_trace(_event_table(kind), weights)
                  for kind in ("pos", "neg")}


def _swapped(column: int, strands: int) -> int:
    """``column`` with ``_SWAP`` applied to each of its base-6 digits."""
    image, place = 0, 1
    for _ in range(strands):
        column, digit = divmod(column, DIM)
        image += _SWAP[digit] * place
        place *= DIM
    return image


@lru_cache(maxsize=8)
def _column_blocks(strands: int) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """``(multiplicity, columns)`` blocks of the swap-orbit representatives
    v <= sv of the start columns: grouped by their leading strands - 3
    digits (at most 216 columns each), fixed (multiplicity 1) and paired
    (multiplicity 2) columns apart.  The leading digits decide v <= sv
    unless the swap fixes them; then the last three digits do."""
    tail_strands = min(strands, 3)
    tail = DIM ** tail_strands
    tail_twins = [_swapped(column, tail_strands) for column in range(tail)]
    blocks = []
    for head in range(DIM ** (strands - tail_strands)):
        head_twin = _swapped(head, strands - tail_strands)
        base = head * tail
        if head_twin > head:
            blocks.append((2, tuple(range(base, base + tail))))
        elif head_twin == head:
            blocks.append((1, tuple(base + column for column in range(tail)
                                    if tail_twins[column] == column)))
            blocks.append((2, tuple(base + column for column in range(tail)
                                    if tail_twins[column] > column)))
    return tuple(blocks)


def _digit_products(factors: List[int], digits: int) -> List[int]:
    """``[prod(factors[d] for d in the base-6 digits of i)]`` for
    i < 6 ** digits."""
    products = [1]
    for _ in range(digits):
        products = [product * factor for product in products
                    for factor in factors]
    return products


def _trace(word: BraidWord,
           support_budget: int = DEFAULT_SUPPORT_BUDGET) -> EvalResult:
    """The quantum trace sum_v p(v) <v|B|v> of ``word`` as written.

    Only one column of each swap orbit {v, sv} is evolved, its start
    amplitude times the orbit size, one block of columns at a time (see
    :func:`_column_blocks`).  Its stats are those of the fold over
    :func:`braid_closure_slices`: the support after each letter is summed
    over the blocks, each block counted once per orbit member.  A block
    holding more than ``support_budget`` states, at its start or after any
    letter, raises :class:`TangleBudgetExceeded`."""
    n = word.strands
    size, windows = DIM ** n, DIM * DIM
    weights = _trace_weights()
    start_l1 = sum(_l1(weight) for weight in weights) ** n
    kinds = ["pos" if letter > 0 else "neg" for letter in word.letters]
    bits = _bits(start_l1, kinds)
    w_shift, w_span = _exponent_range(weights)
    shift, span = n * w_shift, n * w_span
    packed = [_pack(weight, bits, w_shift) for weight in weights]
    tail_strands = min(n, 3)
    tail = DIM ** tail_strands
    head_amps = _digit_products(packed, n - tail_strands)
    tail_amps = _digit_products(packed, tail_strands)
    steps = []
    for letter, kind in zip(word.letters, kinds):
        unit = DIM ** (n - abs(letter) - 1)
        kind_shift, kind_span, rows = _letter_rows(kind, bits, unit)
        shift += kind_shift
        span += kind_span
        steps.append((unit, rows))
    blocks = _column_blocks(n)
    supports = [0] * (len(steps) + 1)
    peak_block_support = total = 0
    for multiplicity, columns in blocks:
        head_amp = multiplicity * head_amps[columns[0] // tail]
        # keys are col * size + row: col the basis vector a column started
        # from, row where the braid has taken it; letters act on row digits
        state = {v * size + v: head_amp * tail_amps[v % tail] for v in columns}
        block_peak = len(state)
        _check_support(block_peak, support_budget)
        supports[0] += multiplicity * block_peak
        for index, (unit, rows) in enumerate(steps, 1):
            new_state: Dict[int, int] = {}
            get = new_state.get
            for key, amp in state.items():
                for delta, coeff in rows[key // unit % windows]:
                    target = key + delta
                    new_state[target] = get(target, 0) + amp * coeff
            state = {key: amp for key, amp in new_state.items() if amp}
            support = len(state)
            _check_support(support, support_budget)
            supports[index] += multiplicity * support
            block_peak = max(block_peak, support)
        peak_block_support = max(peak_block_support, block_peak)
        total += sum(state.get(v * size + v, 0) for v in columns)
    value = _decode(total, bits, shift, span + 1)
    trace = TraceStats(str(word), n, size,
                       sum(len(columns) for _, columns in blocks),
                       len(blocks), peak_block_support)
    return EvalResult(tuple(sorted(value.items())), 2 * n + len(kinds), 2 * n,
                      DIM ** (2 * n), max(supports), trace)


def _cyclically_reduced(letters) -> List[int]:
    """``letters`` with every adjacent inverse pair cancelled, also across
    the ends of the word (the trace is cyclic): one stack pass, then the
    ends are trimmed while they cancel."""
    stack: List[int] = []
    for letter in letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    lo, hi = 0, len(stack)
    while hi - lo > 1 and stack[lo] == -stack[hi - 1]:
        lo += 1
        hi -= 1
    return stack[lo:hi]


def _simplify_braid(word: BraidWord) -> Tuple[BraidWord, Dict[int, int]]:
    """``(braid, factor)`` whose closure is that of ``word`` up to the
    factor: the trace of ``word`` is ``factor`` times the trace of
    ``braid``.  Repeats these moves until none applies:

    * cyclic free reduction (:func:`_cyclically_reduced`);
    * if sigma_1 occurs at most once, remove strand 1: drop that letter and
      shift the others down by one, for the left partial trace of the
      crossing, or the loop value 2 if sigma_1 does not occur (Markov
      destabilisation, framed; :func:`_markov_factors`);
    * else if sigma_(n-1) occurs at most once, first reverse the strands,
      k -> n - k: conjugation by the half twist, whose closure is the
      same."""
    loop, crossing = _markov_factors()
    n, letters, factor = word.strands, list(word.letters), {0: 1}
    while True:
        letters = _cyclically_reduced(letters)
        if n == 1:
            break
        firsts = [k for k in letters if abs(k) == 1]
        if len(firsts) > 1:
            if sum(abs(k) == n - 1 for k in letters) > 1:
                break
            letters = [(n if k > 0 else -n) - k for k in letters]
            firsts = [k for k in letters if abs(k) == 1]
        if firsts:
            factor = _product(factor, crossing["pos" if firsts[0] > 0 else "neg"])
        else:
            factor = _product(factor, loop)
        letters = [k - 1 if k > 0 else k + 1 for k in letters if abs(k) != 1]
        n -= 1
    return BraidWord(n, tuple(letters)), factor


def invariant(word: BraidWord, budget: int = DEFAULT_TANGLE_BUDGET,
              support_budget: int = DEFAULT_SUPPORT_BUDGET) -> EvalResult:
    """Value of the framed-link invariant on the trace closure of a braid,
    as the quantum trace sum_v p(v) <v|B|v> over the n-strand basis.

    The 2n strands of the closure's fold are checked against ``budget``
    before any work.  The word is then simplified (:func:`_simplify_braid`)
    and the braid that remains is traced (:func:`_trace`, which checks
    ``support_budget``); the value is that trace times the simplification's
    factor, and every stat, the trace's own figures included, describes
    the braid actually traced."""
    _check_budget(2 * word.strands, budget)
    braid, factor = _simplify_braid(word)
    result = _trace(braid, support_budget)
    value = _product(dict(result.value), factor)
    return result._replace(value=tuple(sorted(value.items())))
