"""Dubrovnik-polynomial skein oracle on four-valent link diagrams.

Completely independent of the braiding pipeline: this module imports only
:mod:`d21link.ring` and the standard library, so loading it loads no part of
the braiding side, and the cross-check of the two pipelines lives in
:mod:`d21link.verify`.  Diagrams are combinatorial four-valent graphs
(crossings with four ports in planar cyclic order, plus a perfect matching
of ports by edges), values are two-variable Laurent polynomials in (a, z)
with ``int`` coefficients (no rational arithmetic anywhere), and evaluation
is Kauffman's switching recursion:

* simplify first, as the value is a regular isotopy invariant: a curl
  (Reidemeister I) is removed for a factor a^{sign}, sign its self-crossing
  sign, and a bigon whose strand is over at both of its crossings
  (Reidemeister II) is removed for nothing; both repeat until neither
  applies, and an alternating bigon stays.  A pass re-checks only the
  crossings next to a removal or to the rewrite that made the diagram;
* pick the deterministic traversal (components ordered by smallest crossing
  label, walk starting there) in one walk that labels the crossings, finds
  the first bad one and sums the self-crossing signs; a crossing first met
  on its over-strand is *good*;
* if every crossing is good the diagram is descending, hence an unlink:
  value a^{w} delta^{k-1} with w the sum of self-crossing signs and k the
  number of circles, delta = (a - a^{-1})/z + 1;
* otherwise rewrite at the first bad crossing: switch the crossing and
  correct with z times the difference of the two planar smoothings.  The
  pair (crossing count, bad-crossing count) drops lexicographically, so the
  recursion terminates.

Crossing ports sit at SW=0, SE=1, NE=2, NW=3 of a braid-style box; a
positive braid letter yields a crossing whose over-strand is the SW-NE
diagonal.  Specialization reads cached expansions of (-q^{-1})^a
(q - q^{-1})^n and divides by z in one pass per power.  Values are memoized
on the traversal signature of the simplified diagram, which reconstructs it
up to crossing relabeling.  The memo is
process-wide: a diagram's value depends on the diagram alone, never on the
word, the budget or the evaluation it came from, so an entry stored by one
evaluation is sound for every later one, and the torus-link subdiagrams
that a batch of closures keeps meeting are evaluated once.  It is bounded:
an evaluation that starts with more than :data:`MEMO_CAP` entries clears
it first.  The budget bounds the strands, before any graph is built, and
the crossings of the input diagram, before any simplification or lookup.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from math import comb
from typing import Dict, List, Optional, Tuple

from .ring import NotLaurentInQ, excerpt, format_laurent, format_q_laurent

DEFAULT_BUDGET = 16
# Most memo entries one evaluation starts from; more, and it clears the memo.
MEMO_CAP = 4096
# Branch values by the signature of their simplified diagram, across calls.
_memo: Dict[tuple, TwoVarPoly] = {}

# Sign of a crossing by the slots (over, under) at which its strands enter:
# +1 when the under-strand enters one slot counterclockwise of the over.
_SIGNS = {(over, under): 1 if under == (over + 1) & 3 else -1
          for over in range(4) for under in ((over + 1) & 3, (over - 1) & 3)}
# Slot pairs that erase a crossing with both strands running straight on.
_STRAIGHT = ((0, 2), (1, 3))


class SkeinBudgetExceeded(RuntimeError):
    """Diagram exceeds the configured crossing budget for the recursion."""


class TwoVarPoly:
    """Laurent polynomial in (a, z) with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Tuple[int, int], int]] = None):
        clean: Dict[Tuple[int, int], int] = {}
        if terms:
            for key, coeff in terms.items():
                if type(coeff) is not int:
                    raise TypeError(f"coefficient {coeff!r} is not an int")
                if coeff:
                    clean[(int(key[0]), int(key[1]))] = coeff
        self.terms = clean

    @classmethod
    def monomial(cls, a_exp: int, z_exp: int, coeff: int = 1) -> "TwoVarPoly":
        return cls({(a_exp, z_exp): coeff})

    def __eq__(self, other):
        if not isinstance(other, TwoVarPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other: "TwoVarPoly") -> "TwoVarPoly":
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = merged.get(key, 0) + coeff
            if acc:
                merged[key] = acc
            else:
                merged.pop(key, None)
        out = TwoVarPoly.__new__(TwoVarPoly)
        out.terms = merged
        return out

    def __neg__(self) -> "TwoVarPoly":
        out = TwoVarPoly.__new__(TwoVarPoly)
        out.terms = {k: -v for k, v in self.terms.items()}
        return out

    def __sub__(self, other: "TwoVarPoly") -> "TwoVarPoly":
        return self + (-other)

    def __mul__(self, other: "TwoVarPoly") -> "TwoVarPoly":
        out: Dict[Tuple[int, int], int] = {}
        for (a1, z1), c1 in self.terms.items():
            for (a2, z2), c2 in other.terms.items():
                key = (a1 + a2, z1 + z2)
                acc = out.get(key, 0) + c1 * c2
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        result = TwoVarPoly.__new__(TwoVarPoly)
        result.terms = out
        return result

    def canonical(self) -> str:
        """Term list sorted by (a-exponent, z-exponent), e.g. ``a*z^-1 + 1``."""
        return format_laurent(self.terms, ("a", "z"))

    def __repr__(self):
        return self.canonical()


TV_ONE = TwoVarPoly.monomial(0, 0)
DELTA = TwoVarPoly({(1, -1): 1, (-1, -1): -1, (0, 0): 1})


def _shifted(poly: TwoVarPoly, a_exp: int, z_exp: int = 0) -> TwoVarPoly:
    """``poly * a^a_exp z^z_exp``, by shifting exponents."""
    out = TwoVarPoly.__new__(TwoVarPoly)
    out.terms = {(a + a_exp, z + z_exp): c for (a, z), c in poly.terms.items()}
    return out


@lru_cache(maxsize=64)
def _delta_power(exp: int) -> TwoVarPoly:
    """delta^exp; the descending leaves need only a few small powers."""
    return reduce(TwoVarPoly.__mul__, [DELTA] * exp, TV_ONE)


class LinkGraph:
    """Four-valent plane diagram: crossings plus a perfect matching of ports.

    Ports are ``4 * crossing_id + slot``; ``over_diag[cid]`` is 0 when the
    over-strand runs SW-NE (a positive braid letter) and 1 for SE-NW.
    Circles that touch no crossing are carried in ``free_loops``.
    """

    __slots__ = ("over_diag", "partner", "free_loops")

    def __init__(self, over_diag: Optional[Dict[int, int]] = None,
                 partner: Optional[Dict[int, int]] = None, free_loops: int = 0):
        self.over_diag = {} if over_diag is None else over_diag
        self.partner = {} if partner is None else partner
        self.free_loops = free_loops

    def crossing_count(self) -> int:
        return len(self.over_diag)

    def copy(self) -> "LinkGraph":
        return LinkGraph(dict(self.over_diag), dict(self.partner), self.free_loops)

    def validate(self) -> None:
        over_diag, partner = self.over_diag, self.partner
        # as many ports as the crossings have, each on one of them
        if len(partner) != 4 * len(over_diag) or not over_diag.keys() >= {
                port >> 2 for port in partner}:
            raise ValueError("edge matching does not cover the crossing ports")
        for port, other in partner.items():
            if other == port or partner.get(other) != port:
                raise ValueError("edge matching is not a fixed-point-free involution")

    def switched(self, cid: int) -> "LinkGraph":
        out = self.copy()
        out.over_diag[cid] ^= 1
        return out

    def smoothed(self, cid: int, mode: str) -> "LinkGraph":
        """Remove a crossing: 'vertical' joins SW-NW and SE-NE (strands run
        straight up); 'turnback' joins SW-SE and NE-NW (cap under cup)."""
        pairs = ((0, 3), (1, 2)) if mode == "vertical" else ((0, 1), (2, 3))
        out = self.copy()
        out._remove(cid, pairs, set())
        return out

    def _remove(self, cid: int, pairs, touched: set) -> None:
        """Delete a crossing in place, joining the far ends of each pair of
        its slots; an arc that closes up becomes a free loop.  The crossings
        whose ports it rejoins are added to ``touched``."""
        del self.over_diag[cid]
        partner = self.partner
        for s1, s2 in pairs:
            p1, p2 = 4 * cid + s1, 4 * cid + s2
            end1 = partner.pop(p1)
            if end1 == p2:
                partner.pop(p2)
                self.free_loops += 1
                continue
            end2 = partner.pop(p2)
            partner[end1] = end2
            partner[end2] = end1
            touched.add(end1 >> 2)
            touched.add(end2 >> 2)


def braid_closure_graph(word, budget: int = DEFAULT_BUDGET) -> LinkGraph:
    """The trace closure of a braid word as a four-valent graph.

    ``word`` is read through its ``strands`` and ``letters`` only (a
    ``tangle.BraidWord``, whose class this module does not import).
    Produces the same diagram as the sliced closure: crossings in letter
    order, closure arcs joining braid top j back to braid bottom j without
    further crossings.  A word with more strands than ``budget`` is refused
    before any per-strand table is built.
    """
    if word.strands > budget:
        raise SkeinBudgetExceeded(
            f"{excerpt(word.strands)} strands exceed the budget {budget}")
    graph = LinkGraph()
    over_diag, partner = graph.over_diag, graph.partner
    # per strand: its first port and its open end so far
    first: List[Optional[int]] = [None] * (word.strands + 1)
    ends = first[:]
    for cid, letter in enumerate(word.letters):
        k, base = abs(letter), 4 * cid
        over_diag[cid] = 0 if letter > 0 else 1
        end = ends[k]
        if end is None:
            first[k] = base
        else:
            partner[end], partner[base] = base, end
        end = ends[k + 1]
        if end is None:
            first[k + 1] = base + 1
        else:
            partner[end], partner[base + 1] = base + 1, end
        ends[k], ends[k + 1] = base + 3, base + 2
    for strand in range(1, word.strands + 1):
        end = ends[strand]
        if end is None:
            graph.free_loops += 1
        else:
            partner[end], partner[first[strand]] = first[strand], end
    graph.validate()
    return graph


def _analyze(graph: LinkGraph):
    """Deterministic traversal: components, first bad crossing, self-writhe,
    and a memo signature that determines the diagram up to relabeling.

    One walk; each component starts at the smallest port not yet passed.  A
    crossing gets its label and type at its first pass, its sign at its
    second if both are on one component."""
    partner, over_diag = graph.partner, graph.over_diag
    first_bad, self_writhe = None, 0
    labels: Dict[int, int] = {}
    # crossing -> (slot, component, over) of its first pass, until its second
    pending: Dict[int, Tuple[int, int, bool]] = {}
    types: List[int] = []
    components: List[Tuple[Tuple[int, int], ...]] = []
    for low in sorted(over_diag):
        while low not in labels or low in pending:
            # the smallest port of ``low`` on the diagonal not yet passed
            start = 4 * low + ((pending[low][0] & 1) ^ 1 if low in pending else 0)
            comp, steps, current = len(components), [], start
            while True:
                cid, slot = current >> 2, current & 3
                label = labels.get(cid)
                if label is None:
                    label = labels[cid] = len(types)
                    diag = over_diag[cid]
                    types.append(diag)
                    over = (slot & 1) == diag
                    pending[cid] = (slot, comp, over)
                    if not over and first_bad is None:
                        first_bad = cid
                else:
                    first_slot, first_comp, over = pending.pop(cid)
                    if first_comp == comp:
                        over_slot, under_slot = ((first_slot, slot) if over
                                                 else (slot, first_slot))
                        self_writhe += _SIGNS[over_slot, under_slot]
                steps.append((label, slot))
                current = partner[current ^ 2]
                if current == start:
                    break
            components.append(tuple(steps))
    signature = (tuple(components), tuple(types), graph.free_loops)
    return len(components), first_bad, self_writhe, signature


def _simplify(graph: LinkGraph, stats: Optional[Dict[str, int]] = None,
              suspects: Optional[set] = None) -> int:
    """Reidemeister I and II in place until neither applies; returns the
    a-exponent that the removed curls contribute to the value.

    A curl (adjacent slots of one crossing joined by an edge) factors out
    a^{sign}; a bigon whose strands are over, resp. under, at both of its
    crossings cancels.  Either way the crossings go with both strands
    running straight on.  ``stats``, when given, counts the curls and the
    bigons removed.

    A crossing whose slots admit no move stays irreducible until a removal
    rejoins one of its ports, so a pass checks only the ``suspects`` (by
    default all crossings): the same moves in the same order as checking all.
    """
    partner, over_diag = graph.partner, graph.over_diag
    shift, moved = 0, True
    suspects = set(over_diag) if suspects is None else suspects
    while moved:
        moved = False
        for cid in list(over_diag):
            if cid not in suspects:
                continue
            diag = over_diag.get(cid)
            if diag is None:            # the other half of a bigon already gone
                continue
            base = 4 * cid
            for s in range(4):
                end = partner[base + s]
                other, t = end >> 2, end & 3
                if other == cid:        # curl: the edge at s comes back at s+1
                    if t != (s + 1) & 3:
                        continue
                    over, under = (s + 2) & 3, t
                    if (over & 1) != diag:
                        over, under = under, over
                    shift += _SIGNS[over, under]
                    graph._remove(cid, _STRAIGHT, suspects)
                    if stats is not None:
                        stats["curls_removed"] += 1
                # bigon: the edges at s and s-1 both run to ``other``
                elif (partner[base + ((s - 1) & 3)] == 4 * other + ((t + 1) & 3)
                      and ((s & 1) == diag) == ((t & 1) == over_diag[other])):
                    graph._remove(cid, _STRAIGHT, suspects)
                    graph._remove(other, _STRAIGHT, suspects)
                    if stats is not None:
                        stats["bigons_removed"] += 1
                else:
                    continue
                moved = True
                break
            else:
                suspects.discard(cid)
    return shift


def dubrovnik_poly(graph: LinkGraph, budget: int = DEFAULT_BUDGET,
                   use_cache: bool = True,
                   stats: Optional[Dict[str, int]] = None) -> TwoVarPoly:
    """Kauffman's switching recursion; exact value in Z[a^{+-1}, z^{+-1}].

    With ``use_cache`` the recursion reads and writes the process-wide memo,
    which it first clears if it holds more than :data:`MEMO_CAP` entries,
    so between calls it keeps at most that many; within one call it grows
    with the diagram.  Sharing is sound because a signature rebuilds its
    diagram up to relabeling and the value is the diagram's alone, and safe
    across threads because values are never mutated: a clear from another
    thread only costs a recomputation.  Without ``use_cache`` the recursion
    neither reads nor writes the memo.  ``stats``, when given, is filled
    with the recursion ``nodes`` (diagrams visited), the ``memo_hits`` and
    the curls and bigons removed.
    """
    crossings = graph.crossing_count()
    if crossings > budget:
        raise SkeinBudgetExceeded(
            f"{excerpt(crossings)} crossings exceed the budget {budget}")
    memo = _memo if use_cache else None
    if memo is not None and len(memo) > MEMO_CAP:
        memo.clear()
    if stats is not None:
        stats.update(nodes=0, memo_hits=0, curls_removed=0, bigons_removed=0)

    def recurse(g: LinkGraph, suspects: Optional[set] = None) -> TwoVarPoly:
        if stats is not None:
            stats["nodes"] += 1
        shift = _simplify(g, stats, suspects)
        value = branch(g)
        return _shifted(value, shift) if shift else value

    def branch(g: LinkGraph) -> TwoVarPoly:
        ncomp, first_bad, writhe, signature = _analyze(g)
        if memo is not None:
            hit = memo.get(signature)
            if hit is not None:
                if stats is not None:
                    stats["memo_hits"] += 1
                return hit
        if first_bad is None:
            circles = ncomp + g.free_loops
            if circles == 0:
                raise ValueError("empty diagram has no skein value")
            value = _shifted(_delta_power(circles - 1), writhe)
        else:
            sign_flip = g.over_diag[first_bad] == 1
            # g is irreducible: a rewrite makes moves only next to first_bad
            near = {first_bad, *(g.partner[4 * first_bad + s] >> 2
                                 for s in range(4))}
            switched = recurse(g.switched(first_bad), set(near))
            vertical = recurse(g.smoothed(first_bad, "vertical"), set(near))
            turnback = recurse(g.smoothed(first_bad, "turnback"), near)
            correction = _shifted(vertical - turnback, 0, 1)
            value = switched - correction if sign_flip else switched + correction
        if memo is not None:
            memo[signature] = value
        return value

    return recurse(graph.copy())


def orientation_sum(graph: LinkGraph) -> Dict[int, int]:
    """I(D) = sum over the orientations o of the diagram of (-q^-1)^w(D, o),
    w the writhe, as ``{q_exponent: coefficient}``: the specialized
    Dubrovnik polynomial in closed form, I(D) = 2 specialize(D).

    Reversing a component keeps the sign of its self-crossings and flips
    that of its crossings with the others, so with e_i = +-1 the direction
    of component i against the traversal of :func:`_analyze`,
    w(D, o) = (sum of the self-writhes) + 2 sum_(i<j) e_i e_j lk(i, j),
    lk(i, j) half the signed count of crossings between i and j.  Reversing
    every component keeps w, and a free circle has two orientations and no
    crossing, so the cost is O(crossings + 2^c c^2) for c components.

    Why it is the Dubrovnik value (Kauffman, "An invariant of regular
    isotopy", Trans. AMS 318 (1990)): put p = -q^-1, so that the
    specialization a = -q^-1, z = q - q^-1 reads a = p, z = p - p^-1.
    Each w(D, o) is invariant under Reidemeister II and III, and I(D)
    satisfies the relations the switching recursion evaluates by:

    * a curl is a self-crossing of sign +-1 in every orientation, so
      removing it gives the factor p^(+-1) = a^(+-1);
    * a split circle doubles the orientations, and 2 = (a - a^-1)/z + 1 is
      the loop value delta;
    * D(L+) - D(L-) = z (D(L0) - D(L_inf)): an orientation of the diagram
      outside a small disk around the crossing enters the disk at two of
      its four ends and leaves at two.  If it enters at two ends joined
      by a strand of the crossing (the crossing cannot be oriented), it
      orients both smoothings, with the same writhe w', and those two
      terms cancel.  Otherwise it orients the crossing, with sign s in L+
      and -s in L-, and exactly one smoothing, L0 if s = 1 and L_inf if
      s = -1, with writhe w'.  Its terms on the left give
      p^w' (p^s - p^-s) = s z p^w', and on the right s z p^w'.

    The unknot has I = 2 and Dubrovnik value 1, hence the factor 2.  The
    braiding side does not compute through this: it is an oracle, like
    :func:`dubrovnik_poly`.
    """
    ncomp, _, self_writhe, (components, types, free_loops) = _analyze(graph)
    passes: Dict[int, List[Tuple[int, int]]] = {}
    for comp, steps in enumerate(components):
        for cid, slot in steps:
            passes.setdefault(cid, []).append((slot, comp))
    crossings = [[0] * ncomp for _ in range(ncomp)]  # 2 lk(i, j), i < j
    for cid, pair in passes.items():
        (over_slot, i), (under_slot, j) = sorted(
            pair, key=lambda entry: (entry[0] & 1) != types[cid])
        if i != j:
            crossings[min(i, j)][max(i, j)] += _SIGNS[over_slot, under_slot]
    linked = [(i, j, count) for i, row in enumerate(crossings)
              for j, count in enumerate(row) if count]
    total: Dict[int, int] = {}
    for signs in product((1, -1), repeat=max(ncomp - 1, 0)):
        e = (1,) + signs
        writhe = self_writhe + sum(e[i] * e[j] * count for i, j, count in linked)
        total[-writhe] = total.get(-writhe, 0) + (-1 if writhe % 2 else 1)
    scale = 2 ** (free_loops + (1 if ncomp else 0))
    return {exp: scale * coeff for exp, coeff in total.items() if coeff}


def _divide_by_z(terms: Dict[int, int]) -> Dict[int, int]:
    """Exact quotient by z = q - q^{-1} in one pass from the top down: c q^e
    left gives c q^{e-1}, and nothing may be left below q^{lowest + 2}."""
    exps = [exp for exp, coeff in terms.items() if coeff]
    low, out = min(exps, default=0), {}
    rest = [terms.get(exp, 0) for exp in range(low, max(exps, default=0) + 2)]
    for i in range(len(rest) - 1, 1, -1):
        coeff = rest[i]
        if coeff:
            out[low + i - 1] = coeff
            rest[i - 2] += coeff
    if rest[0] or rest[1]:
        raise NotLaurentInQ("z-denominator does not cancel", format_q_laurent(
            {low + i: coeff for i, coeff in enumerate(rest[:2]) if coeff}))
    return out


@lru_cache(maxsize=1024)
def _expansion(a_exp: int, n: int) -> Tuple[Tuple[int, int], ...]:
    """(-q^{-1})^a_exp (q - q^{-1})^n as ``(q_exponent, coefficient)`` pairs."""
    return tuple((n - 2 * r - a_exp, -comb(n, r) if (a_exp + r) % 2
                  else comb(n, r)) for r in range(n + 1))


def specialize(poly: TwoVarPoly) -> Dict[int, int]:
    """Substitute a = -q^{-1}, z = q - q^{-1}; z-denominators must cancel.

    The terms are multiplied by z^m, m the largest negative z-exponent,
    expanded in q (from cached expansions) and divided exactly by
    (q - q^{-1})^m; a remainder raises :class:`NotLaurentInQ`.
    """
    shift = max([0] + [-z_exp for _, z_exp in poly.terms])
    total: Dict[int, int] = {}
    for (a_exp, z_exp), coeff in poly.terms.items():
        for exp, term in _expansion(a_exp, z_exp + shift):
            total[exp] = total.get(exp, 0) + term * coeff
    for _ in range(shift):
        total = _divide_by_z(total)
    return {exp: coeff for exp, coeff in total.items() if coeff}
