"""Shared randomized-value generators for the test suite (seeded, exact)."""

import random

from d21link.dubrovnik import DELTA, TV_Z, TwoVarPoly, _analyze
from d21link.ring import RF_ZERO, QuarterLaurent, RatFunc
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
    ncomp, first_bad, writhe, signature = _analyze(graph)
    if signature in memo:
        return memo[signature]
    if first_bad is None:
        value = TwoVarPoly.monomial(writhe, 0)
        for _ in range(ncomp + graph.free_loops - 1):
            value = value * DELTA
    else:
        switched = plain_dubrovnik(graph.switched(first_bad), memo)
        correction = TV_Z * (
            plain_dubrovnik(graph.smoothed(first_bad, "vertical"), memo)
            - plain_dubrovnik(graph.smoothed(first_bad, "turnback"), memo))
        value = (switched - correction if graph.over_diag[first_bad] == 1
                 else switched + correction)
    memo[signature] = value
    return value


def torus_closed_form(k):
    """q^k + (-q)^k + 2 (-q^-1)^k: the eigenvalues q, -q, -q^-1 of the
    braiding with quantum traces 1, 1, 2 (Rosso-Jones, J. Knot Theory
    Ramif. 2 (1993)); for k < 0 it is the mirror of T(2, -k)."""
    terms = {}
    for exp, coeff in ((k, 1), (k, (-1) ** k), (-k, 2 * (-1) ** k)):
        terms[exp] = terms.get(exp, 0) + coeff
    return {e: c for e, c in terms.items() if c}
