"""Shared randomized-value generators for the test suite (seeded, exact)."""

import random
from math import comb

from d21link.dubrovnik import DELTA, LinkGraph, TwoVarPoly
from d21link.ring import RF_ZERO, NotLaurentInQ, QuarterLaurent, RatFunc
from d21link.ring import format_q_laurent
from d21link.superlinalg import SuperMap, SuperSpace


def column(op: SuperMap, col: int) -> dict:
    """``{row: entry}`` of the nonzero entries of one column of ``op``."""
    return {r: v for (r, c), v in op.entries.items() if c == col}


def random_quarter_laurent(rng: random.Random, max_terms: int = 4,
                           exponent_span: int = 8) -> QuarterLaurent:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exponent = rng.randint(-exponent_span, exponent_span)
        terms[exponent] = rng.randint(-5, 5) * rng.randint(1, 4)
    return QuarterLaurent(terms)


def random_nonzero_quarter_laurent(rng: random.Random) -> QuarterLaurent:
    while True:
        poly = random_quarter_laurent(rng)
        if not poly.is_zero():
            return poly


def random_ratfunc(rng: random.Random) -> RatFunc:
    return RatFunc(random_quarter_laurent(rng),
                   random_nonzero_quarter_laurent(rng))


def random_even_map(rng: random.Random, space: SuperSpace,
                    density: float = 0.4) -> SuperMap:
    entries = {}
    for row in range(space.dim):
        for col in range(space.dim):
            if space.parity(row) != space.parity(col):
                continue
            if rng.random() < density:
                coeff = rng.randint(-3, 3)
                if coeff:
                    entries[(row, col)] = QuarterLaurent.constant(coeff)
    return SuperMap(space, space, entries)


def random_homogeneous_map(rng: random.Random, space: SuperSpace,
                           parity: int, density: float = 0.4) -> SuperMap:
    entries = {}
    for row in range(space.dim):
        for col in range(space.dim):
            if (space.parity(row) ^ space.parity(col)) != parity:
                continue
            if rng.random() < density:
                coeff = rng.randint(-3, 3)
                if coeff:
                    entries[(row, col)] = QuarterLaurent.constant(coeff)
    return SuperMap(space, space, entries, parity)


def fraction_rank(op: SuperMap) -> int:
    """Rank by Gaussian elimination over the fraction field, every entry a
    reduced RatFunc and every step a division by the pivot: the reference
    for the division-free sweep of ``superlinalg``."""
    rows = [{} for _ in range(op.codomain.dim)]
    for (row, col), value in op.entries.items():
        rows[row][col] = RatFunc(value)
    rank = 0
    for col in range(op.domain.dim):
        index = next((i for i, row in enumerate(rows) if col in row), None)
        if index is None:
            continue
        pivot_row = rows.pop(index)
        rank += 1
        for row in rows:
            coeff = row.get(col)
            if coeff is None:
                continue
            factor = coeff * pivot_row[col].inverse()
            for c, v in pivot_row.items():
                acc = row.get(c, RF_ZERO) - factor * v
                if acc.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = acc
    return rank


# non-units of the kinds the braiding's scalars have as denominators:
# integers, q - q^-1, and quantum integers, in t = q^(1/4)
DENOMINATORS = tuple(QuarterLaurent(terms) for terms in (
    {0: 2}, {0: 3}, {4: 1, -4: -1}, {0: 1, 8: 1}, {-8: 1, 0: 1, 8: 1}))


def random_sparse_map(rng: random.Random, domain: SuperSpace,
                      codomain: SuperSpace, density: float = 0.5) -> SuperMap:
    """An even map with random Laurent entries in the parity blocks; rows
    and columns may be empty."""
    entries = {}
    for row in range(codomain.dim):
        for col in range(domain.dim):
            if codomain.parity(row) != domain.parity(col):
                continue
            if rng.random() < density:
                entries[(row, col)] = random_quarter_laurent(rng, 3, 4)
    return SuperMap(domain, codomain, entries)


def plain_dubrovnik(graph, memo=None) -> TwoVarPoly:
    """The switching recursion with no Reidemeister simplification, memoized
    per evaluation on ``_analyze``'s signature: the reference that
    ``dubrovnik_poly`` must equal."""
    memo = {} if memo is None else memo
    ncomp, first_bad, writhe, signature = reference_analyze(graph)
    if signature in memo:
        return memo[signature]
    if first_bad is None:
        value = TwoVarPoly.monomial(writhe, 0)
        for _ in range(ncomp + graph.free_loops - 1):
            value = value * DELTA
    else:
        switched = plain_dubrovnik(graph.switched(first_bad), memo)
        correction = TwoVarPoly.monomial(0, 1) * (
            plain_dubrovnik(graph.smoothed(first_bad, "vertical"), memo)
            - plain_dubrovnik(graph.smoothed(first_bad, "turnback"), memo))
        value = (switched - correction if graph.over_diag[first_bad] == 1
                 else switched + correction)
    memo[signature] = value
    return value


# The per-diagram front end of the skein oracle as it was written first:
# the references that ``braid_closure_graph``, ``LinkGraph.validate``,
# ``_simplify``, ``_analyze`` and ``specialize`` must match exactly.

_PORT_POS = {0: (-1, -1), 1: (1, -1), 2: (1, 1), 3: (-1, 1)}
_STRAIGHT = ((0, 2), (1, 3))


def reference_sign(over_slot, under_slot):
    """Sign of a crossing whose strands enter at the given slots, from the
    cross product of the two strands' directions in the crossing box."""
    (ox0, oy0), (ox1, oy1) = _PORT_POS[over_slot], _PORT_POS[over_slot ^ 2]
    (ux0, uy0), (ux1, uy1) = _PORT_POS[under_slot], _PORT_POS[under_slot ^ 2]
    return 1 if (ox1 - ox0) * (uy1 - uy0) - (oy1 - oy0) * (ux1 - ux0) > 0 else -1


def reference_validate(graph):
    ports = {4 * cid + slot for cid in graph.over_diag for slot in range(4)}
    if set(graph.partner) != ports:
        raise ValueError("edge matching does not cover the crossing ports")
    for port, other in graph.partner.items():
        if other == port or graph.partner.get(other) != port:
            raise ValueError("edge matching is not a fixed-point-free involution")


def reference_closure_graph(word):
    graph = LinkGraph()
    ends = {s: None for s in range(1, word.strands + 1)}
    first = dict(ends)

    def feed(strand, port):
        if ends[strand] is None:
            first[strand] = port
        else:
            graph.partner[ends[strand]] = port
            graph.partner[port] = ends[strand]

    for cid, letter in enumerate(word.letters):
        k = abs(letter)
        graph.over_diag[cid] = 0 if letter > 0 else 1
        feed(k, 4 * cid + 0)
        feed(k + 1, 4 * cid + 1)
        ends[k] = 4 * cid + 3
        ends[k + 1] = 4 * cid + 2
    for strand in range(1, word.strands + 1):
        if ends[strand] is None:
            graph.free_loops += 1
        else:
            graph.partner[ends[strand]] = first[strand]
            graph.partner[first[strand]] = ends[strand]
    reference_validate(graph)
    return graph


def reference_analyze(graph):
    covered = set()
    first_bad = None
    seen_first = {}
    relabel = {}
    passes = {}
    components = []
    for start in sorted(graph.partner):
        if start in covered:
            continue
        comp_index = len(components)
        steps = []
        current = start
        while True:
            cid, slot = divmod(current, 4)
            exit_port = current ^ 2
            covered.add(current)
            covered.add(exit_port)
            if cid not in relabel:
                relabel[cid] = len(relabel)
            over = (slot & 1) == graph.over_diag[cid]
            if cid not in seen_first:
                seen_first[cid] = over
                if not over and first_bad is None:
                    first_bad = cid
            passes.setdefault(cid, {})[slot & 1] = (slot, comp_index)
            steps.append((relabel[cid], slot))
            nxt = graph.partner[exit_port]
            if nxt == start:
                break
            current = nxt
        components.append(tuple(steps))
    self_writhe = 0
    for cid, by_diag in passes.items():
        over_slot, over_comp = by_diag[graph.over_diag[cid]]
        under_slot, under_comp = by_diag[graph.over_diag[cid] ^ 1]
        if over_comp != under_comp:
            continue
        self_writhe += reference_sign(over_slot, under_slot)
    types = tuple(graph.over_diag[cid]
                  for cid, _ in sorted(relabel.items(), key=lambda kv: kv[1]))
    signature = (tuple(components), types, graph.free_loops)
    return len(components), first_bad, self_writhe, signature


def _remove(graph, cid, pairs):
    del graph.over_diag[cid]
    for s1, s2 in pairs:
        p1, p2 = 4 * cid + s1, 4 * cid + s2
        end1 = graph.partner.pop(p1)
        if end1 == p2:
            graph.partner.pop(p2)
            graph.free_loops += 1
            continue
        end2 = graph.partner.pop(p2)
        graph.partner[end1] = end2
        graph.partner[end2] = end1


def reference_simplify(graph, stats=None):
    partner, over_diag = graph.partner, graph.over_diag
    shift, moved = 0, True
    while moved:
        moved = False
        for cid in list(over_diag):
            diag = over_diag.get(cid)
            if diag is None:
                continue
            base = 4 * cid
            for s in range(4):
                end = partner[base + s]
                other, t = end >> 2, end & 3
                if other == cid:
                    if t != (s + 1) & 3:
                        continue
                    over, under = (s + 2) & 3, t
                    if (over & 1) != diag:
                        over, under = under, over
                    shift += reference_sign(over, under)
                    _remove(graph, cid, _STRAIGHT)
                    if stats is not None:
                        stats["curls_removed"] += 1
                elif (partner[base + ((s - 1) & 3)] == 4 * other + ((t + 1) & 3)
                      and ((s & 1) == diag) == ((t & 1) == over_diag[other])):
                    _remove(graph, cid, _STRAIGHT)
                    _remove(graph, other, _STRAIGHT)
                    if stats is not None:
                        stats["bigons_removed"] += 1
                else:
                    continue
                moved = True
                break
    return shift


def _reference_divide_by_z(terms):
    rest = {exp: coeff for exp, coeff in terms.items() if coeff}
    low, out = min(rest, default=0), {}
    while rest:
        top = max(rest)
        if top - 2 < low:
            raise NotLaurentInQ("z-denominator does not cancel",
                                format_q_laurent(rest))
        out[top - 1] = coeff = rest.pop(top)
        rest[top - 2] = rest.get(top - 2, 0) + coeff
        if not rest[top - 2]:
            del rest[top - 2]
    return out


def reference_specialize(poly):
    shift = max([0] + [-z_exp for _, z_exp in poly.terms])
    total = {}
    for (a_exp, z_exp), coeff in poly.terms.items():
        n = z_exp + shift
        for r in range(n + 1):
            exp = n - 2 * r - a_exp
            sign = -1 if (a_exp + r) % 2 else 1
            total[exp] = total.get(exp, 0) + sign * comb(n, r) * coeff
    for _ in range(shift):
        total = _reference_divide_by_z(total)
    return {exp: coeff for exp, coeff in total.items() if coeff}


def torus_closed_form(k):
    """q^k + (-q)^k + 2 (-q^-1)^k: the eigenvalues q, -q, -q^-1 of the
    braiding with quantum traces 1, 1, 2 (Rosso-Jones, J. Knot Theory
    Ramif. 2 (1993)); for k < 0 it is the mirror of T(2, -k)."""
    terms = {}
    for exp, coeff in ((k, 1), (k, (-1) ** k), (-k, 2 * (-1) ** k)):
        terms[exp] = terms.get(exp, 0) + coeff
    return {e: c for e, c in terms.items() if c}
