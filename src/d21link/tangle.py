"""Exact evaluation of framed unoriented links on the E_1-cohomology.

A link is a :class:`~d21link.diagram.BraidWord`, traced over its closure, or
a :class:`~d21link.diagram.SlicedDiagram`, folded event by event; both are
read by :mod:`d21link.diagram`, which states the event grammar.  All event
maps are parity-even, so no Koszul signs arise while skipping over bystander
strands.  Both evaluations run on the cohomology of the odd generator E_1, a
finite, quantum form of the Duflo-Serganova reduction (Duflo and Serganova,
"On associated variety for Lie superalgebras", arXiv:math/0507198), which
takes osp(4|2) to so(2).  E_1 squares to 0 on the module V; its cohomology
is H = span(v4, v5), and C = span(v1, v2, v3, v6) is acyclic.  The
crossings, the cup and the cap are module maps, so each event map commutes
with the differential Delta(E_1) on the tensor powers (E_1 on one strand,
K_1 on the strands before it: every table keeps the H_1 weight, so K_1 on a
bystander strand commutes with it).  V^(x)k is H^(x)k, on which the
differential is 0, plus subcomplexes with a C factor, each acyclic; a
coboundary has no component in H^(x)k, so the map an event induces on
cohomology is its table cut down to windows and replacements in H, and a
product of events induces the product of the cut-down tables.

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
sign, exponent)``, stepped letter by letter.  :func:`_cohomology` reads
the four event maps once and checks every fact used here, and a map that
broke one raises ``TableError``: those on E_1 and Delta(E_1) on the maps,
as :mod:`d21link.verify` composes them, the rest exactly on their integer
tables.
The reduction uses only that the braiding is a module map, not the
Kauffman skein theory that the oracle in :mod:`d21link.dubrovnik`
implements.

Before the trace, inverse pairs cancel, also across the ends of the word
(cyclic free reduction): every crossing keeps p(a) p(b), as it is even
and keeps the H_1 weight, so the trace is cyclic.  Nothing else is
simplified: the trace costs O(letters x 2^n) on monomial tables, less than
looking for a strand to remove or a point to cut the closure at would
cost.  :func:`cohomology_trace` traces a word as written, unreduced: the
presentation checks of :mod:`d21link.verify` call it, so that equivalent
words are traced apart.  The start amplitudes of the columns and the step
of each letter are built once per strand count and kept in bounded
caches (:func:`_start_amplitudes`, :func:`_letter_step`): a word then costs
one lookup per letter and the column loop, letters x 2^n steps.

Both evaluations report the stats of the fold in the cohomology (slices,
peak strands, peak support); for a braid word they describe the word that
was traced, which the result names, and whose 2^n columns, one state
each, are the peak support of the fold of its closure.  The tables are
converted once to integer Laurent polynomials, so no path touches
rational-function arithmetic and values lie in Z[q, q^-1] by
construction.
Framing is blackboard: the value belongs to the drawn diagram, with no
writhe normalization.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .diagram import BraidWord, BudgetExceeded, SlicedDiagram, SlicedEvent
from .diagram import parse_braid  # noqa: F401 (perfbench/worker.py reads it)
from .ring import excerpt, format_q_laurent, laurent_product, nonzero_terms
from .representation import (DIM, PARITIES, WEIGHTS, coproduct_action,
                             duality_maps, generator_action)
from .rmatrix import TableError, braiding
from .superlinalg import compose, rank_over_fractions

# Most nonzero states a tangle evaluation may hold: the 2^n columns of the
# braid trace in the E_1-cohomology, or the fold of a sliced diagram after
# any event (an event at most doubles it).  2^12 admits any braid, and any
# sliced diagram, of up to 12 strands.
DEFAULT_SUPPORT_BUDGET = 4096


# only perfbench's tangle.closure_slices probe calls it
def braid_closure_slices(word: BraidWord) -> SlicedDiagram:
    """Deterministic sliced presentation of the trace closure.

    n nested cups (cup 1 .. cup n), the braid letters as crossings shifted
    to positions n + |k|, then n nested caps (cap n .. cap 1).  Blackboard
    framing: the closure is evaluated exactly as drawn.
    """
    n = word.strands
    events: list[SlicedEvent] = [SlicedEvent("cup", p) for p in range(1, n + 1)]
    for letter in word.letters:
        kind = "pos" if letter > 0 else "neg"
        events.append(SlicedEvent(kind, n + abs(letter)))
    events.extend(SlicedEvent("cap", p) for p in range(n, 0, -1))
    return SlicedDiagram(tuple(events))


class EvalResult(tuple):
    """A value and the stats of the evaluation that gave it.  For a braid
    word (:func:`cohomology_trace`) the stats are those of the fold of the
    2n-strand sliced closure of ``braid``, the word that was traced."""
    __slots__ = ()
    value = property(itemgetter(0))     # sorted (q-exponent, coefficient)
    slices = property(itemgetter(1))
    peak_strands = property(itemgetter(2))
    # most nonzero states held after any event
    peak_support = property(itemgetter(3))
    braid = property(itemgetter(4))     # set by cohomology_trace only

    def __new__(cls, value: tuple[tuple[int, int], ...], slices: int,
                peak_strands: int, peak_support: int,
                braid: BraidWord | None = None):
        return tuple.__new__(cls, (value, slices, peak_strands, peak_support,
                                   braid))

    def value_dict(self) -> dict[int, int]:
        return dict(self.value)

    def canonical(self) -> str:
        return format_q_laurent(dict(self.value))


def _columns(operator) -> tuple[int, dict[tuple, tuple]]:
    """``(width, table)`` of an event map: the window ``key[lo:lo+width]``
    maps to its ``(replacement, {q_exponent: coefficient})`` rows, windows
    and replacements being pairs of basis vectors, or ``()`` on the trivial
    module (width 0 for the cup, 2 for the other kinds)."""
    pairs_in, pairs_out = len(operator.domain) > 1, len(operator.codomain) > 1
    columns: dict[tuple, list] = {}
    for (row, col), value in sorted(operator.entries.items()):
        columns.setdefault(divmod(col, DIM) if pairs_in else (), []).append(
            (divmod(row, DIM) if pairs_out else (), value.terms))
    return (2 if pairs_in else 0,
            {window: tuple(rows) for window, rows in columns.items()})


def evaluate_sliced(diagram: SlicedDiagram,
                    support_budget: int = DEFAULT_SUPPORT_BUDGET) -> EvalResult:
    """Fold the event list over a state vector in the tensor powers of H,
    the E_1-cohomology (:func:`_cohomology`), and return the scalar value;
    more than ``support_budget`` nonzero states after any event raises
    :class:`BudgetExceeded` right after that event (an event at most
    doubles them)."""
    peak = diagram.peak_strands()
    tables = _cohomology()[2]
    state: dict[tuple, dict[int, int]] = {(): {0: 1}}
    peak_support = 1
    for index, event in enumerate(diagram.events, 1):
        width, table = tables[event.kind]
        lo = event.position - 1
        hi = lo + width
        sums: dict[tuple, dict[int, int]] = {}
        for key, amp in state.items():
            for replacement, sign, shift in table.get(key[lo:hi], ()):
                acc = sums.setdefault(key[:lo] + replacement + key[hi:], {})
                for exp, coeff in amp.items():
                    acc[exp + shift] = acc.get(exp + shift, 0) + sign * coeff
        state = nonzero_terms(sums)
        if len(state) > support_budget:
            raise BudgetExceeded(
                f"{len(state)} states after event {index} ({event.kind} "
                f"{event.position}) of the sliced fold exceed the support "
                f"budget {support_budget}")
        peak_support = max(peak_support, len(state))
    value = state.get((), {})
    return EvalResult(tuple(sorted(value.items())), diagram.slices, peak,
                      peak_support)


def _signed_power(terms: dict[int, int]) -> tuple[int, int]:
    """``(sign, exponent)`` of a polynomial that is +-q^exponent."""
    if len(terms) != 1 or abs(next(iter(terms.values()))) != 1:
        raise TableError("an event table cut down to the E_1-cohomology "
                         "has an entry that is not a signed power of q")
    ((exp, sign),) = terms.items()
    return sign, exp


@lru_cache(maxsize=None)
def _cohomology() -> tuple[tuple[int, ...], tuple[tuple[int, int], ...],
                           dict[str, tuple[int, dict[tuple, tuple]]]]:
    """``(basis, weights, tables)``: the basis vectors spanning H, the
    cohomology of the odd generator E_1 on the module; the pivotal weight
    of each as ``(sign, exponent)``; and the table (:func:`_columns`) of
    each event map, read once from ``duality_maps()`` and ``braiding()``,
    cut down to windows and replacements in H, as ``(width, {window:
    ((replacement, sign, exponent), ...)})``.  Raises ``TableError`` unless

    * E_1 is odd and E_1^2 = 0;
    * the basis vectors that E_1 neither moves nor reaches span H: E_1 has
      rank half the dimension of the others, C, so C is acyclic;
    * E_1 and every table keep the H_1 weight, so that K_1 on a bystander
      strand commutes with them;
    * Delta(E_1) = E_1 (x) 1 + K_1 (x) E_1 commutes with both crossings,
      the cap kills it and it kills the cup, all on the maps;
    * cup and cap pair the same basis vectors, or a braid closure is not a
      trace;
    * every pivotal weight p(v), cup * cap of the pair closing v, is
      -(-1)^|v| q^(2 m1(v)), m1 the H_1 weight, so the trace is (-1)^n the
      supertrace of q^(2 H_1) B;
    * every cut-down entry is a signed power of q, exactly one per window
      of a crossing.

    The trace is then cyclic, with no check of its own: every crossing
    entry <c d|.|a b> keeps the H_1 weight and the parity, so p(a) p(b) =
    p(c) p(d) by the form of p.  (A crossing is an even map: an odd one
    would send each window of H (x) H, all even here, out of H (x) H, and
    the last guard refuses it.)"""
    e1 = generator_action("E", 1)
    if e1.parity != 1 or not compose(e1, e1).is_zero():
        raise TableError("E_1 is not odd with E_1^2 = 0")
    touched = {v for entry in e1.entries for v in entry}
    basis = tuple(v for v in range(DIM) if v not in touched)
    if 2 * rank_over_fractions(e1) != DIM - len(basis):
        raise TableError("E_1 is not exact on the basis vectors it moves "
                         "or reaches; its cohomology is not spanned by "
                         "the others")
    _, cup, cap = duality_maps()
    bundle = braiding()
    tables = {"cup": _columns(cup), "cap": _columns(cap),
              "pos": _columns(bundle.c), "neg": _columns(bundle.c_inv)}
    if (any(WEIGHTS[row][0] != WEIGHTS[col][0] for row, col in e1.entries)
            or any(sum(WEIGHTS[v][0] for v in window)
                   != sum(WEIGHTS[v][0] for v in row)
                   for _, table in tables.values()
                   for window, rows in table.items() for row, _ in rows)):
        raise TableError("a table does not keep the H_1 weight; K_1 on a "
                         "bystander strand does not commute with it")
    delta = coproduct_action("E", 1)
    for kind, crossing in (("pos", bundle.c), ("neg", bundle.c_inv)):
        if compose(crossing, delta) != compose(delta, crossing):
            raise TableError(f"the {kind} crossing does not commute with "
                             f"Delta(E_1)")
    if not compose(cap, delta).is_zero():
        raise TableError("the cap does not kill Delta(E_1)")
    if not compose(delta, cup).is_zero():
        raise TableError("Delta(E_1) does not kill the cup")
    cups, caps = tables["cup"][1][()], tables["cap"][1]
    pairs = [pair for pair, _ in cups]
    if (sorted(l for l, _ in pairs) != list(range(DIM))
            or sorted(r for _, r in pairs) != list(range(DIM))
            or sorted(pairs) != sorted(caps)):
        raise TableError("cup and cap do not pair the same basis vectors "
                         "one to one; a braid closure is not a trace")
    weights: list[dict[int, int]] = [{}] * DIM
    for (l, r), cup_coeff in cups:
        (((), cap_coeff),) = caps[l, r]
        weights[r] = laurent_product(cup_coeff, cap_coeff)
    if any(weights[v] != {2 * WEIGHTS[v][0]: (-1) ** (PARITIES[v] + 1)}
           for v in range(DIM)):
        raise TableError("a pivotal weight is not -(-1)^|v| q^(2 m1(v))")
    in_h = set(basis).issuperset
    cut = {kind: (width, {
        window: tuple((row,) + _signed_power(coeff) for row, coeff in rows
                      if in_h(row))
        for window, rows in table.items() if in_h(window)})
        for kind, (width, table) in tables.items()}
    for kind in ("pos", "neg"):
        if any(len(cut[kind][1].get((a, b), ())) != 1
               for a in basis for b in basis):
            raise TableError(f"the {kind} crossing does not send each "
                             f"window in the E_1-cohomology to one window")
    return basis, tuple(_signed_power(weights[v]) for v in basis), cut


# Bounded: the default budget admits 1-12 strands, and under any budget the
# 16 plans kept, of distinct strand counts, hold fewer than twice the
# columns of the largest one.
@lru_cache(maxsize=16)
def _start_amplitudes(strands: int) -> tuple[tuple[int, int], ...]:
    """``(sign, exponent)`` of each start column of the trace on
    ``strands`` strands, in column order: the product of the pivotal
    weights of the column's digits, indices into the basis of H."""
    weights = _cohomology()[1]
    starts = [(1, 0)]
    for _ in range(strands):
        starts = [(sign * w_sign, exp + w_exp) for sign, exp in starts
                  for w_sign, w_exp in weights]
    return tuple(starts)


# Bounded too, though an entry is only four rows.
@lru_cache(maxsize=256)
def _letter_step(strands: int, letter: int
                 ) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """``(unit, rows)`` of ``letter`` on ``strands`` strands.  ``unit`` is
    the place value of the letter's right strand in a column index; the
    letter's crossing, cut down to the E_1-cohomology H, sends the window
    ``w = h * i + j`` on its two strands (i, j indices into the basis of H,
    h its dimension) to one window, times sign * q^exponent, and
    ``rows[w] = (delta, sign, exponent)``, ``delta`` the change of the
    column index."""
    basis, _, tables = _cohomology()
    h = len(basis)
    unit = h ** (strands - abs(letter) - 1)
    index = {v: i for i, v in enumerate(basis)}
    rows = {}
    for (a, b), (((c, d), sign, exp),) in tables[
            "pos" if letter > 0 else "neg"][1].items():
        window = index[a] * h + index[b]
        rows[window] = ((index[c] * h + index[d] - window) * unit, sign, exp)
    return unit, tuple(rows[window] for window in range(h * h))


def cohomology_trace(word: BraidWord,
                     support_budget: int = DEFAULT_SUPPORT_BUDGET
                     ) -> EvalResult:
    """The quantum trace of ``word`` as written, over the h ** n start
    columns in H^(x)n only (h = dim H): each column is one state,
    ``(row, sign, exponent)``, started at :func:`_start_amplitudes` and
    stepped letter by letter through :func:`_letter_step`, both built once
    per strand count.  More columns than ``support_budget`` raises
    :class:`BudgetExceeded` before either is built."""
    n, h = word.strands, len(_cohomology()[0])
    # h ** n is compared without being built: past the budget's bit length
    # a power of h >= 2 exceeds the budget and a power of h <= 1 does not
    if h ** min(n, support_budget.bit_length()) > support_budget:
        count = h ** n if n <= 64 else f"{h}^{excerpt(n)}"
        raise BudgetExceeded(f"{count} trace columns exceed the support "
                             f"budget {support_budget}")
    windows = h * h
    # plain loops, not comprehensions: before CPython 3.12 a comprehension
    # is a function call of its own, dearest with cold caches
    steps = []
    for letter in word.letters:
        steps.append(_letter_step(n, letter))
    starts = _start_amplitudes(n)
    total: dict[int, int] = {}
    for column, (sign, exp) in enumerate(starts):
        row = column
        for unit, rows in steps:
            delta, step_sign, step_exp = rows[row // unit % windows]
            row += delta
            sign *= step_sign
            exp += step_exp
        if row == column:
            total[exp] = total.get(exp, 0) + sign
    terms = []
    for item in sorted(total.items()):
        if item[1]:
            terms.append(item)
    return EvalResult(tuple(terms), 2 * n + len(steps), 2 * n,
                      len(starts), word)


def _cyclically_reduced(letters) -> list[int]:
    """``letters`` with every adjacent inverse pair cancelled, also across
    the ends of the word (the trace is cyclic): one stack pass, then the
    ends are trimmed while they cancel."""
    stack: list[int] = []
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


def invariant(word: BraidWord,
              support_budget: int = DEFAULT_SUPPORT_BUDGET) -> EvalResult:
    """Value of the framed-link invariant on the trace closure of a braid,
    as the quantum trace sum_v p(v) <v|B|v> over the n-strand basis.

    The word is cyclically reduced (:func:`_cyclically_reduced`) and traced
    on its 2 ** n columns in the E_1-cohomology
    (:func:`cohomology_trace`), which more than ``support_budget`` columns
    refuse before any is evolved; every stat describes the reduced word,
    the result's ``braid``."""
    reduced = BraidWord(word.strands, tuple(_cyclically_reduced(word.letters)))
    return cohomology_trace(reduced, support_budget)
