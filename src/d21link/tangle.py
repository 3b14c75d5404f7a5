"""Sliced diagrams of framed unoriented links and their exact evaluation.

A link enters either as a braid word (``n: k1 k2 ...``, letter k > 0 a
positive crossing of strands k, k+1), closed up by its trace closure
(:func:`braid_closure_slices` gives it as slices), or directly as a slice
list.  A sliced diagram is a bottom-to-top sequence of events, each acting
at a 1-based strand position:

* ``cup p``  - insert a paired arc so its left strand becomes strand p,
* ``cap p``  - join strands p and p+1,
* ``pos p`` / ``neg p`` - braiding / inverse braiding on strands p, p+1.

All event maps are parity-even, so no Koszul signs arise while skipping
over bystander strands.  Both evaluations run on the cohomology of the odd generator E_1, a
finite, quantum form of the Duflo-Serganova reduction (Duflo and
Serganova, "On associated variety for Lie superalgebras",
arXiv:math/0507198), which takes osp(4|2) to so(2).  E_1 squares to 0 on
the module V; its cohomology is H = span(v4, v5), and C = span(v1, v2, v3,
v6) is acyclic.  The crossings, the cup and the cap are module maps, so
each event map commutes with the differential Delta(E_1) on the tensor
powers (E_1 on one strand, K_1 on the strands before it: every table keeps
the H_1 weight, so K_1 on a bystander strand commutes with it).  V^(x)k is
H^(x)k, on which the differential is 0, plus subcomplexes with a C factor,
each acyclic; a coboundary has no component in H^(x)k, so the map an event
induces on cohomology is its table cut down to windows and replacements in
H, and a product of events induces the product of the cut-down tables.

* A ``--sliced`` diagram maps the trivial module to itself, where the
  cohomology is the value itself: it is folded over a state vector in the
  tensor powers of H, 2^k keys for k strands instead of 6^k.
* A braid word skips the 2n-strand closure: its value is the quantum trace
  sum_v p(v) <v|B|v> over the basis of the n-strand power, where the
  pivotal weight p(v) is the product over strands of cup * cap for the
  pair closing each strand (valid because cup and cap pair the same basis
  vectors).  As p(v) = -(-1)^|v| q^(2 m1(v)), m1 the H_1 weight, the trace
  is (-1)^n times the supertrace of q^(2 H_1) B, an even operator that
  commutes with the differential; over an acyclic complex such a
  supertrace is 0 (the odd differential maps V / ker onto its image, which
  is ker), so only H^(x)n contributes: the 2^n start columns in
  {v4, v5}^n.

Cut down to H, both crossing tables are signed monomial permutations:
``pos`` sends v4 v4 and v5 v5 to -q^-1 times themselves and v4 v5 to -q
v5 v4 and back, ``neg`` is ``pos`` at q -> q^-1, the cup is -q (v4 v5 +
v5 v4) and the cap -q^-1 on both.  A braid column is one state, ``(row,
sign, exponent)``, stepped letter by letter, with no coefficient packing.
Every fact used here is checked once, exactly on the integer tables, where
the cut-down tables are read (:func:`_cohomology`); a table that broke one
raises ``ValueError``.  The reduction uses only that the braiding is a
module map, as the v4 <-> v5 swap below does, not the Kauffman skein
theory that the oracle in :mod:`d21link.dubrovnik` implements.

Before the trace, inverse pairs cancel, also across the ends of the word
(cyclic free reduction): every crossing keeps p(a) p(b), so the trace is
cyclic.  Nothing else is simplified: the trace costs O(letters x 2^n) on
monomial tables, less than looking for a strand to remove or a point to
cut the closure at would cost.

:func:`trace` is the reference that the tests and the presentation checks
of :mod:`d21link.verify` compare with: the same quantum trace over all 6^n
columns.  Swapping v4 and v5 in every strand maps both crossing tables
onto themselves and fixes p(v) (also checked), so it evolves one start
column per swap orbit, its amplitude times the orbit size, in blocks of at
most 216 columns that share their leading digits, one block at a time,
each held to a support budget.  During it each coefficient is one
Kronecker-packed int, sum(c_e << bits * (e + shift)); ``bits`` comes from
a proven bound on the coefficients (start L1 norm times each event's
largest column L1 sum), and the final value is decoded and re-packed as a
check.  One routine (:func:`_letter_steps`) packs the letters and decides
``bits``, the shift and the span, and one (:func:`_evolve`) applies them
under the support budget.

Both evaluations report the stats of the fold in the cohomology (slices,
peak strands, the nominal dimension 6^peak_strands, peak support); for a
braid word they describe the cyclically reduced word that was traced,
whose 2^n columns, one state each, are the peak support of the fold of its
closure.  The trace of :func:`invariant` also reports its own figures
(:class:`TraceStats`); :func:`trace` reports those of its 6^n evaluation,
whose support after each letter, summed over its blocks, is that of the
6^2n-state fold of the closure.  The tables are converted once to integer
Laurent polynomials, so no path touches rational-function arithmetic and
values lie in Z[q, q^-1] by construction.
Framing is blackboard: the value belongs to the drawn diagram, with no
writhe normalization.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from .ring import (excerpt, format_q_laurent, laurent_product,
                   to_integer_laurent)
from .representation import (DIM, PARITIES, WEIGHTS, coproduct_action,
                             duality_maps, generator_action)
from .rmatrix import braiding
from .superlinalg import rank_over_fractions

EVENT_KINDS = ("cup", "cap", "pos", "neg")

# Most strands a fold may hold at once (up to 6 ** strands states); 12
# admits the closure of any 6-strand braid.
DEFAULT_TANGLE_BUDGET = 12

# Most nonzero states an evaluation may hold at once: the 2^n columns of
# the braid trace in the E_1-cohomology, the fold of a sliced diagram after
# any event, and one block of the 6^n reference trace.  Within the tangle
# budget the first two hold at most 2^12 = 4096, so only the reference
# trace can reach it: peak RSS measured 1.6-2.7 KiB per state of its
# largest block (CPython 3.11, 64-bit Linux; 5- and 6-strand mixed-sign
# words of 15-16 letters), so a refused block stays near 1 GiB; the
# reference trace of 5: (1 -2 3 -4)^4 needs 44,665.
DEFAULT_SUPPORT_BUDGET = 400_000


class DiagramError(ValueError):
    """Malformed braid text or sliced diagram."""


class TangleBudgetExceeded(DiagramError):
    """Diagram holds more strands at once than the fold budget allows."""


def _check_budget(strands: int, budget: int) -> None:
    if strands > budget:
        raise TangleBudgetExceeded(
            f"{excerpt(strands)} peak strands exceed the tangle budget {budget}")


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
                raise DiagramError(f"braid letter {excerpt(letter)} out of "
                                   f"range for {excerpt(strands)} strands")
        return super().__new__(cls, strands, letters)

    def mirror(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-k for k in self.letters))

    def __str__(self):
        return f"{self.strands}: {' '.join(str(k) for k in self.letters)}".rstrip()


def ascii_integers(text: str) -> List[int]:
    """The blank-separated integers of ``text``, each an optional ``-`` and
    ASCII digits; any other token (other digits, ``+``, ``_``) raises
    ``ValueError``, as does a number past Python's int-string digit limit."""
    if not text.isascii() or "+" in text or "_" in text:
        raise ValueError(f"not ASCII integers: {text!r}")
    return [int(token) for token in text.split()]


def parse_braid(text: str) -> BraidWord:
    """Parse ``<n>: <letters>``, e.g. ``2: 1 1 1`` or ``1:``, n unsigned."""
    head, colon, tail = text.partition(":")
    try:
        if not colon or "-" in head:
            raise ValueError(text)
        (strands,) = ascii_integers(head)
        letters = tuple(ascii_integers(tail))
    except ValueError:
        raise DiagramError(f"malformed braid text {excerpt(text)}") from None
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
            raise DiagramError(f"cup at {excerpt(p)} with {strands} strands")
        return strands + 2
    if kind == "cap":
        if not 1 <= p <= strands - 1:
            raise DiagramError(f"cap at {excerpt(p)} with {strands} strands")
        return strands - 2
    if kind in ("pos", "neg"):
        if not 1 <= p <= strands - 1:
            raise DiagramError(f"crossing at {excerpt(p)} with {strands} strands")
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
            raise DiagramError(
                f"line {lineno}: expected 'kind position', got {excerpt(raw)}")
        try:
            (position,) = ascii_integers(parts[1])
        except ValueError:
            raise DiagramError(
                f"line {lineno}: bad position {excerpt(parts[1])}") from None
        events.append(SlicedEvent(parts[0], position))
    return SlicedDiagram(tuple(events))


class TraceStats(NamedTuple):
    """What a braid trace evolved: that of :func:`invariant` the 2 **
    strands columns in the E_1-cohomology, in one block of one state each;
    the reference :func:`trace` one column per swap orbit, in blocks."""
    braid: str                 # the braid traced: invariant's is reduced
    strands: int
    columns: int               # 6 ** strands start columns of the trace
    columns_evaluated: int
    blocks: int
    peak_block_support: int    # most nonzero states one block held at once


class EvalResult(NamedTuple):
    """A value and the stats of the evaluation that gave it.  For a braid
    word the stats are those of the fold of the 2n-strand sliced closure of
    the braid traced (for :func:`invariant`, the cyclically reduced word),
    and ``trace`` holds the trace's own figures."""
    value: Tuple[Tuple[int, int], ...]   # sorted (q-exponent, coefficient)
    slices: int
    peak_strands: int
    peak_dimension: int    # nominal state-space bound 6 ** peak_strands
    peak_support: int      # most nonzero states held after any event
    trace: Optional[TraceStats] = None   # set by the braid traces only

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
    return 2, _columns(bundle.c if kind == "pos" else bundle.c_inv, 2)


def _columns(operator, width: int) -> Dict[tuple, tuple]:
    """The nonzero columns of an operator on ``width`` (1 or 2) tensor
    factors of the module, as an :func:`_event_table` table."""
    def digits(index):
        return divmod(index, DIM) if width == 2 else (index,)
    columns: Dict[tuple, list] = {}
    for (row, col), value in sorted(operator.entries.items()):
        columns.setdefault(digits(col), []).append(
            (digits(row), to_integer_laurent(value)))
    return {window: tuple(rows) for window, rows in columns.items()}


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


@lru_cache(maxsize=256)
def _letter_rows(kind: str, bits: int, unit: int) -> Tuple[int, int, List[tuple]]:
    """``(shift, span, rows)`` of a crossing for :func:`_apply_letter`, each
    coefficient of its table packed at ``bits`` after shifting by
    ``shift``: ``rows[w]`` lists ``((w' - w) * unit, coefficient)`` for the
    two-strand window ``w = 6 * left + right`` going to ``w'``, whose right
    digit has place value ``unit`` in a state key."""
    _, table = _event_table(kind)
    shift, span = _exponent_range(coeff for entries in table.values()
                                  for _, coeff in entries)
    rows: List[tuple] = [()] * (DIM * DIM)
    for (a, b), entries in table.items():
        window = a * DIM + b
        rows[window] = tuple(((c * DIM + d - window) * unit,
                              _pack(coeff, bits, shift))
                             for (c, d), coeff in entries)
    return shift, span, rows


def _apply_letter(state: Dict[int, int], unit: int,
                  rows: List[tuple]) -> Dict[int, int]:
    """A crossing applied to every nonzero state ``{key: amplitude}``.
    Keys are ``col * 6 ** n + row``: ``col`` the basis vector a column
    started from, ``row`` where the letters so far have taken it, one
    base-6 digit per strand; the crossing acts on the two row digits whose
    right one has place value ``unit``."""
    new_state: Dict[int, int] = {}
    get = new_state.get
    windows = DIM * DIM
    for key, amp in state.items():
        for delta, coeff in rows[key // unit % windows]:
            target = key + delta
            new_state[target] = get(target, 0) + amp * coeff
    return {key: amp for key, amp in new_state.items() if amp}


def evaluate_sliced(diagram: SlicedDiagram,
                    budget: int = DEFAULT_TANGLE_BUDGET,
                    support_budget: int = DEFAULT_SUPPORT_BUDGET) -> EvalResult:
    """Fold the event list over a state vector in the tensor powers of H,
    the E_1-cohomology (:func:`_cohomology`), and return the scalar value;
    more than ``budget`` strands at once is refused before any allocation,
    and more than ``support_budget`` nonzero states after any event raises
    :class:`TangleBudgetExceeded` right after that event."""
    peak = diagram.peak_strands()
    _check_budget(peak, budget)
    tables = _cohomology()[2]
    state: Dict[tuple, Dict[int, int]] = {(): {0: 1}}
    peak_support = 1
    for index, event in enumerate(diagram.events, 1):
        width, table = tables[event.kind]
        lo = event.position - 1
        hi = lo + width
        sums: Dict[tuple, Dict[int, int]] = {}
        for key, amp in state.items():
            for replacement, sign, shift in table.get(key[lo:hi], ()):
                acc = sums.setdefault(key[:lo] + replacement + key[hi:], {})
                for exp, coeff in amp.items():
                    acc[exp + shift] = acc.get(exp + shift, 0) + sign * coeff
        state = {}
        for key, acc in sums.items():
            amp = {exp: coeff for exp, coeff in acc.items() if coeff}
            if amp:
                state[key] = amp
        if len(state) > support_budget:
            raise TangleBudgetExceeded(
                f"{len(state)} states after event {index} ({event.kind} "
                f"{event.position}) of the sliced fold exceed the support "
                f"budget {support_budget}")
        peak_support = max(peak_support, len(state))
    value = state.get((), {})
    return EvalResult(tuple(sorted(value.items())), diagram.slices, peak,
                      DIM ** peak, peak_support)


# The one basis permutation that commutes with the braiding and keeps the
# pivotal weights: v4 <-> v5, digits 3 and 4 of the 0-based keys.
_SWAP = (0, 1, 2, 4, 3, 5)


@lru_cache(maxsize=None)
def _trace_weights() -> Tuple[Dict[int, int], ...]:
    """Per basis vector r, the pivotal weight p(r): cup * cap of the strand
    pair (l, r) closing it.  Raises ``ValueError`` unless

    * cup and cap pair the same basis vectors, each with exactly one
      partner, or a braid closure is not a trace;
    * ``_SWAP`` fixes every weight and maps each crossing table onto itself
      entry for entry, so that p(sv) <sv|B|sv> = p(v) <v|B|v> for s the
      swap on every strand;
    * every crossing entry <c d|.|a b> keeps p(a) p(b) = p(c) p(d), or the
      trace is not cyclic and inverse pairs across the ends of a word may
      not cancel."""
    (_, cups), (_, caps) = _event_table("cup"), _event_table("cap")
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
        weights[pair[1]] = laurent_product(cup_coeff, cap_coeff)
    s = _SWAP
    if any(weights[s[r]] != weights[r] for r in range(DIM)):
        raise ValueError("the v4 <-> v5 swap does not fix the pivotal weights")
    for kind in ("pos", "neg"):
        _, table = _event_table(kind)
        swapped = {(s[a], s[b]): {(s[c], s[d]): coeff for (c, d), coeff in rows}
                   for (a, b), rows in table.items()}
        if swapped != {window: dict(rows) for window, rows in table.items()}:
            raise ValueError("the v4 <-> v5 swap does not map a crossing "
                             "table onto itself")
        if any(laurent_product(weights[a], weights[b])
               != laurent_product(weights[c], weights[d])
               for (a, b), rows in table.items() for (c, d), _ in rows):
            raise ValueError("a crossing does not keep the pivotal "
                             "weights; the trace is not cyclic")
    return tuple(weights)


def _compose(outer: Dict[tuple, tuple], inner: Dict[tuple, tuple]
             ) -> Dict[tuple, Dict[tuple, Dict[int, int]]]:
    """``outer`` after ``inner``, two :func:`_event_table` tables, as
    ``{window: {row: amplitude}}`` with zero rows and columns dropped."""
    product = {}
    for window, rows in inner.items():
        sums: Dict[tuple, Dict[int, int]] = {}
        for middle, amp in rows:
            for row, coeff in outer.get(middle, ()):
                acc = sums.setdefault(row, {})
                for exp_a, coeff_a in amp.items():
                    for exp_b, coeff_b in coeff.items():
                        acc[exp_a + exp_b] = (acc.get(exp_a + exp_b, 0)
                                              + coeff_a * coeff_b)
        column = {}
        for row, acc in sums.items():
            amp = {exp: value for exp, value in acc.items() if value}
            if amp:
                column[row] = amp
        if column:
            product[window] = column
    return product


def _signed_power(terms: Dict[int, int]) -> Tuple[int, int]:
    """``(sign, exponent)`` of a polynomial that is +-q^exponent."""
    if len(terms) != 1 or abs(next(iter(terms.values()))) != 1:
        raise ValueError("an event table cut down to the E_1-cohomology "
                         "has an entry that is not a signed power of q")
    ((exp, sign),) = terms.items()
    return sign, exp


@lru_cache(maxsize=None)
def _cohomology() -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...],
                           Dict[str, Tuple[int, Dict[tuple, tuple]]]]:
    """``(basis, weights, tables)``: the basis vectors spanning H, the
    cohomology of the odd generator E_1 on the module; the pivotal weight
    of each as ``(sign, exponent)``; and each :func:`_event_table` cut down
    to windows and replacements in H, as ``(width, {window: ((replacement,
    sign, exponent), ...)})``.  Raises ``ValueError`` unless

    * E_1 is odd and E_1^2 = 0;
    * the basis vectors that E_1 neither moves nor reaches span H: E_1 has
      rank half the dimension of the others, C, so C is acyclic;
    * E_1 and every table keep the H_1 weight, so that K_1 on a bystander
      strand commutes with them;
    * Delta(E_1) = E_1 (x) 1 + K_1 (x) E_1 commutes with both crossings,
      the cap kills it and it kills the cup;
    * every pivotal weight is p(v) = -(-1)^|v| q^(2 m1(v)), m1 the H_1
      weight, so the trace is (-1)^n the supertrace of q^(2 H_1) B;
    * every cut-down entry is a signed power of q, exactly one per window
      of a crossing."""
    e1 = generator_action("E", 1)
    e_table = _columns(e1, 1)
    delta = _columns(coproduct_action("E", 1), 2)
    if e1.parity != 1 or _compose(e_table, e_table):
        raise ValueError("E_1 is not odd with E_1^2 = 0")
    touched = {v for window, rows in e_table.items()
               for v in window + tuple(row[0] for row, _ in rows)}
    basis = tuple(v for v in range(DIM) if v not in touched)
    if 2 * rank_over_fractions(e1) != DIM - len(basis):
        raise ValueError("E_1 is not exact on the basis vectors it moves "
                         "or reaches; its cohomology is not spanned by "
                         "the others")
    tables = {kind: _event_table(kind) for kind in EVENT_KINDS}
    m1 = [weight[0] for weight in WEIGHTS]
    h1 = {(): 0}         # the H_1 weight of each window of up to two strands
    for a in range(DIM):
        h1[a,] = m1[a]
        for b in range(DIM):
            h1[a, b] = m1[a] + m1[b]
    if any(h1[window] != h1[row]
           for table in [e_table] + [table for _, table in tables.values()]
           for window, rows in table.items() for row, _ in rows):
        raise ValueError("a table does not keep the H_1 weight; K_1 on a "
                         "bystander strand does not commute with it")
    for kind in ("pos", "neg"):
        crossing = tables[kind][1]
        if _compose(delta, crossing) != _compose(crossing, delta):
            raise ValueError(f"the {kind} crossing does not commute with "
                             f"Delta(E_1)")
    if _compose(tables["cap"][1], delta):
        raise ValueError("the cap does not kill Delta(E_1)")
    if _compose(delta, tables["cup"][1]):
        raise ValueError("Delta(E_1) does not kill the cup")
    weights = _trace_weights()
    if any(weights[v] != {2 * WEIGHTS[v][0]: (-1) ** (PARITIES[v] + 1)}
           for v in range(DIM)):
        raise ValueError("a pivotal weight is not -(-1)^|v| q^(2 m1(v))")
    in_h = set(basis).issuperset
    cut = {kind: (width, {
        window: tuple((row,) + _signed_power(coeff) for row, coeff in rows
                      if in_h(row))
        for window, rows in table.items() if in_h(window)})
        for kind, (width, table) in tables.items()}
    for kind in ("pos", "neg"):
        if any(len(cut[kind][1].get((a, b), ())) != 1
               for a in basis for b in basis):
            raise ValueError(f"the {kind} crossing does not send each "
                             f"window in the E_1-cohomology to one window")
    return basis, tuple(_signed_power(weights[v]) for v in basis), cut


@lru_cache(maxsize=256)
def _cohomology_rows(kind: str, unit: int) -> List[Tuple[int, int, int]]:
    """``rows[w] = (delta, sign, exponent)``: the crossing ``kind`` cut
    down to the E_1-cohomology H sends the window ``w = h * i + j`` (i, j
    indices into the basis of H, h its dimension) to one window, times
    sign * q^exponent, moving a key by ``delta`` when the window's right
    digit has place value ``unit``."""
    basis, _, tables = _cohomology()
    h = len(basis)
    index = {v: i for i, v in enumerate(basis)}
    rows = {}
    for (a, b), (((c, d), sign, exp),) in tables[kind][1].items():
        window = index[a] * h + index[b]
        rows[window] = ((index[c] * h + index[d] - window) * unit, sign, exp)
    return [rows[window] for window in range(h * h)]


def _cohomology_trace(word: BraidWord, support_budget: int) -> EvalResult:
    """The quantum trace of ``word`` as written, over the h ** n start
    columns in H^(x)n only (h = dim H): each column is one state,
    ``(row, sign, exponent)``, stepped letter by letter through
    :func:`_cohomology_rows`.  More columns than ``support_budget``
    raises :class:`TangleBudgetExceeded` before any is evolved."""
    basis, weights, _ = _cohomology()
    n, h = word.strands, len(basis)
    _check_support(h ** n, support_budget)
    windows = h * h
    steps = []
    for letter in word.letters:
        unit = h ** (n - abs(letter) - 1)
        steps.append((unit, _cohomology_rows("pos" if letter > 0 else "neg",
                                             unit)))
    # the start amplitude of a column is the product of its digits' weights
    starts = [(1, 0)]
    for _ in range(n):
        starts = [(sign * w_sign, exp + w_exp) for sign, exp in starts
                  for w_sign, w_exp in weights]
    total: Dict[int, int] = {}
    for column, (sign, exp) in enumerate(starts):
        row = column
        for unit, rows in steps:
            delta, step_sign, step_exp = rows[row // unit % windows]
            row += delta
            sign *= step_sign
            exp += step_exp
        if row == column:
            total[exp] = total.get(exp, 0) + sign
    value = tuple(sorted((exp, coeff) for exp, coeff in total.items() if coeff))
    stats = TraceStats(str(word), n, DIM ** n, len(starts), 1, len(starts))
    return EvalResult(value, 2 * n + len(steps), 2 * n, DIM ** (2 * n),
                      len(starts), stats)


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


def _letter_steps(strands: int, letters
                  ) -> Tuple[List[tuple], List[int], int, int, int]:
    """``(steps, weights, bits, shift, span)`` for evolving the braid
    ``letters`` on ``strands`` strands (:func:`_evolve`) from start columns
    whose amplitude is the product of the pivotal weights of their digits:
    the ``(unit, rows)`` of each letter and the pivotal weights, packed at
    ``bits``, and the exponent shift and span of a final amplitude.
    ``bits`` is proven (see :func:`_bits`) for any sum of final amplitudes
    over start columns."""
    weights = _trace_weights()
    kinds = ["pos" if letter > 0 else "neg" for letter in letters]
    bits = _bits(sum(_l1(weight) for weight in weights) ** strands, kinds)
    w_shift, w_span = _exponent_range(weights)
    steps, shift, span = [], strands * w_shift, strands * w_span
    for letter, kind in zip(letters, kinds):
        unit = DIM ** (strands - abs(letter) - 1)
        kind_shift, kind_span, rows = _letter_rows(kind, bits, unit)
        shift += kind_shift
        span += kind_span
        steps.append((unit, rows))
    return (steps, [_pack(weight, bits, w_shift) for weight in weights],
            bits, shift, span)


def _evolve(state: Dict[int, int], steps: List[tuple], support_budget: int
            ) -> Tuple[Dict[int, int], List[int]]:
    """``(state, supports)``: ``state`` after each of the ``steps`` of
    :func:`_letter_steps` in turn, and its number of nonzero states at the
    start and after each step; more than ``support_budget`` of them raises
    :class:`TangleBudgetExceeded` at once."""
    supports = [len(state)]
    _check_support(supports[-1], support_budget)
    for unit, rows in steps:
        state = _apply_letter(state, unit, rows)
        supports.append(len(state))
        _check_support(supports[-1], support_budget)
    return state, supports


def trace(word: BraidWord, budget: int = DEFAULT_TANGLE_BUDGET,
          support_budget: int = DEFAULT_SUPPORT_BUDGET) -> EvalResult:
    """The quantum trace sum_v p(v) <v|B|v> of ``word`` as written, over
    all 6 ** n columns, with no simplification: the reference for the
    evaluation in the E_1-cohomology.  The 2n strands of its closure are
    checked against ``budget`` first.

    Only one column of each swap orbit {v, sv} is evolved, its start
    amplitude times the orbit size, one block of columns at a time (see
    :func:`_column_blocks`).  Its stats are those of the fold of
    :func:`braid_closure_slices` over all 6 ** 2n states: the support after
    each letter is summed over the blocks, each block counted once per
    orbit member.  A block
    holding more than ``support_budget`` states, at its start or after any
    letter, raises :class:`TangleBudgetExceeded`."""
    _check_budget(2 * word.strands, budget)
    n = word.strands
    size = DIM ** n
    steps, weights, bits, shift, span = _letter_steps(n, word.letters)
    tail_strands = min(n, 3)
    tail = DIM ** tail_strands
    head_amps = _digit_products(weights, n - tail_strands)
    tail_amps = _digit_products(weights, tail_strands)
    blocks = _column_blocks(n)
    supports = [0] * (len(steps) + 1)
    peak_block_support = total = 0
    for multiplicity, columns in blocks:
        head_amp = multiplicity * head_amps[columns[0] // tail]
        # keys are col * size + row: col the basis vector a column started
        # from, row where the braid has taken it; letters act on row digits
        state, block_supports = _evolve(
            {v * size + v: head_amp * tail_amps[v % tail] for v in columns},
            steps, support_budget)
        supports = [total_support + multiplicity * support for
                    total_support, support in zip(supports, block_supports)]
        peak_block_support = max(peak_block_support, *block_supports)
        total += sum(state.get(v * size + v, 0) for v in columns)
    value = _decode(total, bits, shift, span + 1)
    stats = TraceStats(str(word), n, size,
                       sum(len(columns) for _, columns in blocks),
                       len(blocks), peak_block_support)
    return EvalResult(tuple(sorted(value.items())), 2 * n + len(steps), 2 * n,
                      DIM ** (2 * n), max(supports), stats)


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


def invariant(word: BraidWord, budget: int = DEFAULT_TANGLE_BUDGET,
              support_budget: int = DEFAULT_SUPPORT_BUDGET) -> EvalResult:
    """Value of the framed-link invariant on the trace closure of a braid,
    as the quantum trace sum_v p(v) <v|B|v> over the n-strand basis.

    The 2n strands of the closure's fold are checked against ``budget``
    before any work.  The word is then cyclically reduced
    (:func:`_cyclically_reduced`) and traced on its 2 ** n columns in the
    E_1-cohomology (:func:`_cohomology_trace`), which more than
    ``support_budget`` columns refuse; every stat, the trace's own figures
    included, describes the reduced word."""
    _check_budget(2 * word.strands, budget)
    reduced = BraidWord(word.strands, tuple(_cyclically_reduced(word.letters)))
    return _cohomology_trace(reduced, support_budget)
