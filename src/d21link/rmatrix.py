"""Braiding on the tensor square of the supermodule.

The braiding is the graded flip composed with the evaluated universal
R-matrix: a product of seven truncated exponential factors, one per positive
root (built from the raising/lowering root-vector pair, normalized by the
pairing constants and by quantum factorials whose step is the root's square
length, derived from the root and the Cartan data), applied after a
diagonal Cartan factor whose exponents are quarter-integers read off the
weight table.
Factors apply right to left: the Cartan factor first, then the exponential
factors in decreasing root order.

Every entry of the braiding is an integer Laurent polynomial in q (checked
on construction).  The printed 20x20/16x16 parity blocks in
``REFERENCE_C0``/``REFERENCE_C1`` are a frozen regression target: the
computed braiding is compared entry by entry and any divergence is reported
for logging in a deviations file, with the invariant suites (Yang-Baxter,
spectral, skein, naturality) as the adjudicating evidence.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Dict, List, NamedTuple, Tuple

from .report import CheckResult, Report
from .ring import (LAMBDA, Q, RF_Q, ZERO, QuarterLaurent, RatFunc,
                   q_factorial, to_integer_laurent)
from .representation import (CARTAN, DIM, M, M2, ROOTS, WEIGHTS, bracket_step,
                             duality_maps, phi, root_vector)
from .superlinalg import (SuperMap, compose, embed_at, invert,
                          rank_over_fractions, tensor_map, volte)

_NILPOTENCY_GUARD = 7


class BraidingBundle(NamedTuple):
    c: SuperMap
    c_inv: SuperMap
    theta: QuarterLaurent


@lru_cache(maxsize=None)
def exp_factor(i: int) -> SuperMap:
    """Truncated exponential factor for root i on M (x) M.

    sum_n (E^n (x) F^n) / ((n)_c! phi_i^n), with c = (beta_i, beta_i) the
    root's bracket step; the series stops as soon as a matrix power
    vanishes, which nilpotency on M guarantees within a few steps.  Koszul signs for odd root vectors are supplied by tensor_map.
    """
    raising = root_vector(i, "raise")
    lowering = root_vector(i, "lower")
    acc = SuperMap.identity(M2)
    e_power = raising
    f_power = lowering
    n = 1
    phi_i = phi(i)
    step = bracket_step(ROOTS[i - 1])
    while not (e_power.is_zero() or f_power.is_zero()):
        if n >= _NILPOTENCY_GUARD:
            raise ArithmeticError(
                f"exponential factor {i} did not truncate; "
                "nilpotency assumption broken")
        coeff = (q_factorial(n, step) * phi_i ** n).inverse()
        acc = acc + tensor_map(e_power, f_power).scale(coeff)
        e_power = compose(e_power, raising)
        f_power = compose(f_power, lowering)
        n += 1
    return acc


@lru_cache(maxsize=None)
def cartan_factor() -> SuperMap:
    """Diagonal factor v (x) w -> q^{sum b_ij weight_i(v) weight_j(w)} v (x) w."""
    # forms[v][j] = sum_i 4 b_ij weight_i(v), an integer
    forms = [[sum(CARTAN.b4[i][j] * WEIGHTS[v][i] for i in range(3))
              for j in range(3)] for v in range(DIM)]
    entries: Dict[Tuple[int, int], QuarterLaurent] = {}
    for v in range(DIM):
        for w in range(DIM):
            exponent = sum(f * x for f, x in zip(forms[v], WEIGHTS[w]))
            index = v * DIM + w
            entries[(index, index)] = QuarterLaurent.t_power(exponent)
    return SuperMap(M2, M2, entries)


@lru_cache(maxsize=None)
def r_matrix() -> SuperMap:
    """The evaluated R-matrix: exp_1 o ... o exp_7 o cartan_factor."""
    acc = cartan_factor()
    for i in range(7, 0, -1):
        acc = compose(exp_factor(i), acc)
    return acc


@lru_cache(maxsize=None)
def braiding() -> BraidingBundle:
    """Braiding c = tau o R, its exact inverse, and the verified twist."""
    c = compose(volte(M, M), r_matrix())
    for value in c.entries.values():
        to_integer_laurent(value)
    c_inv = invert(c)
    # the inverse square of the twist must be q^2 id; of its two square
    # roots q^{-1} and -q^{-1}, the twist is the one with value 1 at q = 1
    if twist_inverse_square(c) != SuperMap.identity(M).scale(RF_Q * RF_Q):
        raise ArithmeticError("twist computation disagrees with q^2 * id")
    return BraidingBundle(c, c_inv, QuarterLaurent.q_power(-1))


def twist_inverse_square(c: SuperMap) -> SuperMap:
    """((d o c) (x) id) o (id (x) (c o b)) on M: the inverse square of the
    twist, where the duality transport cancels between the two braidings."""
    _, b, d = duality_maps()
    return compose(embed_at(compose(d, c), 0, 1, M),
                   embed_at(compose(c, b), 1, 0, M))


def spectral_check() -> Report:
    """Annihilating cubic, eigenvalue ranks, and minimality of the cubic."""
    checks: List[CheckResult] = []
    c = braiding().c
    ident = SuperMap.identity(M2)
    q = RF_Q
    qinv = RatFunc.q_power(-1)
    factors = {
        "q": c - ident.scale(q),
        "-q": c + ident.scale(q),
        "-1/q": c + ident.scale(qinv),
    }
    product = compose(compose(factors["q"], factors["-q"]), factors["-1/q"])
    checks.append(CheckResult("annihilating-cubic", product.is_zero(),
                              "" if product.is_zero() else
                              f"{len(product.entries)} nonzero entries"))
    expected_ranks = {"q": 19, "-q": 35, "-1/q": 18}
    multiplicity_total = 0
    for name, expected in expected_ranks.items():
        rank = rank_over_fractions(factors[name])
        multiplicity_total += M2.dim - rank
        checks.append(CheckResult(f"rank(c-({name})id)={expected}",
                                  rank == expected,
                                  "" if rank == expected else f"got {rank}"))
    checks.append(CheckResult("multiplicities-sum-36", multiplicity_total == 36,
                              f"got {multiplicity_total}"))
    names = list(factors)
    for a in range(3):
        for b in range(a + 1, 3):
            quad = compose(factors[names[a]], factors[names[b]])
            checks.append(CheckResult(
                f"no-quadratic-annihilator:{names[a]},{names[b]}",
                not quad.is_zero(),
                "" if not quad.is_zero() else "quadratic product vanished"))
    return Report("spectral", checks)


# Basis orders for the parity blocks: even pairs (i,j) with i,j in {1,2}
# then i,j in {3..6}; odd pairs with i in {1,2}, j in {3..6} then i in
# {3..6}, j in {1,2}; lexicographic within each group (1-based labels).
EVEN_PAIRS: Tuple[Tuple[int, int], ...] = tuple(
    [(i, j) for i in (1, 2) for j in (1, 2)]
    + [(i, j) for i in (3, 4, 5, 6) for j in (3, 4, 5, 6)])
ODD_PAIRS: Tuple[Tuple[int, int], ...] = tuple(
    [(i, j) for i in (1, 2) for j in (3, 4, 5, 6)]
    + [(i, j) for i in (3, 4, 5, 6) for j in (1, 2)])


def _flat(pair: Tuple[int, int]) -> int:
    return (pair[0] - 1) * DIM + (pair[1] - 1)


def split_blocks(m: SuperMap) -> Tuple[List[List[QuarterLaurent]],
                                       List[List[QuarterLaurent]]]:
    """The even and odd parity blocks of an even map on M (x) M."""
    even = [[m.entry(_flat(r), _flat(c)) for c in EVEN_PAIRS] for r in EVEN_PAIRS]
    odd = [[m.entry(_flat(r), _flat(c)) for c in ODD_PAIRS] for r in ODD_PAIRS]
    return even, odd


# Frozen regression reference for the braiding blocks; l stands for
# q - q^{-1}.  Row r, column c is the coefficient of basis pair r in the
# image of basis pair c.
REFERENCE_C0 = [
    ["q", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "1/q", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "1/q", "q**3-1/q", "0", "0", "0", "0", "q*l", "0", "0", "-q**2*l", "0", "0", "-q**2*l", "0", "0", "q**3*l", "0", "0", "0"],
    ["0", "0", "0", "q", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "-1/q", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "-1", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "-1", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "-l/q", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "-q", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "-1", "0", "0", "l", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "-1/q", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "l", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "-q", "0", "0", "q*l", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "-1", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "-1", "0", "0", "0", "0", "0", "l", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "l", "0", "0", "0", "0", "0", "0", "0", "-q", "0", "0", "0", "0", "0", "q*l", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "-1/q", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "-1", "0"],
    ["0", "0", "-q*l", "0", "0", "0", "0", "-q", "0", "0", "q*l", "0", "0", "q*l", "0", "0", "-q*l**2", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "-1", "0", "0", "0", "0", "0", "l", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "-1", "0", "0", "l", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "-1/q"],
]

REFERENCE_C1 = [
    ["0", "0", "0", "0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "1", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "1", "0"],
    ["0", "0", "0", "0", "l", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "l", "0", "0", "0", "0", "0", "1", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "l", "0", "0", "0", "0", "0", "0", "1", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "l", "0", "0", "0", "0", "0", "0", "0", "1"],
    ["1", "0", "0", "0", "0", "0", "0", "0", "l", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "1", "0", "0", "0", "0", "0", "0", "0", "0", "l", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "1", "0", "0", "0", "0", "0", "0", "0", "0", "0", "l", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "1", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "l", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "0", "0", "0"],
]


_FACTOR = r"(\d+|q|l)(?:\*\*(\d+))?"
_TERM = rf"{_FACTOR}(?:\*{_FACTOR})*(?:/q)?"
_ENTRY = re.compile(rf"[+-]?{_TERM}(?:[+-]{_TERM})*")
_SYMBOLS = {"q": Q, "l": LAMBDA}


def _parse_reference_entry(text: str) -> QuarterLaurent:
    """A signed sum of products of integers, ``q`` and ``l`` with optional
    ``**k`` powers, each product optionally divided by ``q``."""
    if text == "0":     # most cells of the frozen tables
        return ZERO
    if not _ENTRY.fullmatch(text):
        raise ValueError(f"unsupported reference entry {text!r}")
    total = ZERO
    for term in re.finditer(rf"([+-]?)({_TERM})", text):
        sign, body = term.group(1, 2)
        value = QuarterLaurent.q_power(-1 if body.endswith("/q") else 0,
                                       -1 if sign == "-" else 1)
        for base, power in re.findall(_FACTOR, body.removesuffix("/q")):
            factor = (_SYMBOLS[base] if base in _SYMBOLS
                      else QuarterLaurent.constant(int(base)))
            for _ in range(int(power or 1)):
                value = value * factor
        total = total + value
    return total


@lru_cache(maxsize=None)
def reference_blocks() -> Tuple[Tuple[Tuple[QuarterLaurent, ...], ...],
                               Tuple[Tuple[QuarterLaurent, ...], ...]]:
    even = tuple(tuple(_parse_reference_entry(e) for e in row) for row in REFERENCE_C0)
    odd = tuple(tuple(_parse_reference_entry(e) for e in row) for row in REFERENCE_C1)
    return even, odd


def compare_reference() -> Tuple[int, List[dict]]:
    """Entrywise comparison of the computed braiding with the reference.

    Returns the total number of reference entries and the list of
    mismatches, each with block name, row/column pair labels and both
    values rendered canonically.
    """
    even_ref, odd_ref = reference_blocks()
    even_got, odd_got = split_blocks(braiding().c)
    mismatches: List[dict] = []
    total = 0
    for block, ref, got, pairs in (("c0", even_ref, even_got, EVEN_PAIRS),
                                   ("c1", odd_ref, odd_got, ODD_PAIRS)):
        for r in range(len(ref)):
            for c in range(len(ref)):
                total += 1
                if ref[r][c] != got[r][c]:
                    mismatches.append({
                        "block": block,
                        "row": pairs[r],
                        "col": pairs[c],
                        "expected": repr(ref[r][c]),
                        "computed": repr(got[r][c]),
                    })
    return total, mismatches
