"""The six-dimensional supermodule and its generator actions.

Only the independent tables of the rank-three quantized Lie superalgebra
at the fixed parameter value are stored: Cartan matrix, symmetrizer,
``b4`` = 4b for the inverse matrix b driving the diagonal braiding factor
(integral, as its q-exponents are quarter-integers), the simple-root
parities, the seven positive roots, and the action of the nine generators
E_i, F_i, H_i on the supermodule M with basis v_1..v_6 (v_1, v_2 even,
v_3..v_6 odd), H_i read off ``WEIGHTS``.  The rest is derived from them:
the parity of each generator, the step (beta, beta) of each root's
q-factorials (:func:`bracket_step`) and every K_beta
(:func:`cartan_exponential`, the one builder).

The Cartan diagonal on the even pair is weight zero: ``H_2 = H_3 = 0`` on
v_1, v_2.  Weight one there breaks the [E_2, F_2] relation on v_1, and
:func:`check_defining_relations` reports exactly which identity fails when
``WEIGHTS`` is replaced by such a table.

Root vectors are built from the generators by closed q-bracket forms; the
lowering family uses the same forms with E replaced by F, which is
legitimate because the assignment E_i -> F_i extends to an algebra morphism
between the raising and lowering halves.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, NamedTuple, Tuple

from .report import CheckResult, Report
from .ring import LAMBDA, ONE, RF_LAMBDA, RF_ONE, QuarterLaurent, RatFunc
from .superlinalg import (SuperMap, SuperSpace, TRIVIAL, compose, invert,
                          tensor_map)

DIM = 6
PARITIES = (0, 0, 1, 1, 1, 1)
M = SuperSpace(PARITIES)
M2 = M.tensor(M)

# Integer weight triples (H_1, H_2, H_3 eigenvalues) per basis vector.
WEIGHTS = (
    (1, 0, 0),
    (-1, 0, 0),
    (1, 1, 1),
    (0, -1, 1),
    (0, 1, -1),
    (-1, -1, -1),
)

# Generator actions as {source basis vector: (target, integer coefficient)},
# 1-based indices.
_E_ACTION = {
    1: {2: (6, -1), 3: (1, 1)},
    2: {4: (3, 1), 6: (5, 1)},
    3: {5: (3, 1), 6: (4, 1)},
}
_F_ACTION = {
    1: {1: (3, 1), 6: (2, 1)},
    2: {3: (4, 1), 5: (6, 1)},
    3: {3: (5, 1), 4: (6, 1)},
}

# Parity of the simple roots, hence of E_i and F_i: alpha_1 alone is odd.
_SIMPLE_PARITIES = (1, 0, 0)
_SIMPLE_ROOTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class _CartanFields(NamedTuple):
    a: Tuple[Tuple[int, ...], ...]
    d: Tuple[int, ...]
    b4: Tuple[Tuple[int, ...], ...]


class CartanData(_CartanFields):
    __slots__ = ()

    def __new__(cls, a, d, b4):
        for i in range(3):
            for j in range(3):
                if d[i] * a[i][j] != d[j] * a[j][i]:
                    raise ValueError("symmetrized Cartan matrix not symmetric")
        # b = b4 / 4 must invert the matrix (-a_ij / d_j) exactly.
        for i in range(3):
            for j in range(3):
                acc = sum(b4[i][k] * -a[k][j] for k in range(3))
                if acc != (4 * d[j] if i == j else 0):
                    raise ValueError("b4 / 4 is not inverse to (-a_ij/d_j)")
        return super().__new__(cls, a, d, b4)


CARTAN = CartanData(
    a=((0, 1, 1), (-1, 2, 0), (-1, 0, 2)),
    d=(-1, 1, 1),
    b4=((4, -2, -2), (-2, -1, 1), (-2, 1, -1)),
)

# The positive roots beta_1..beta_7 as (n_1, n_2, n_3), beta = sum n_j alpha_j.
ROOTS = (
    (0, 0, 1),
    (1, 0, 1),
    (1, 1, 1),
    (2, 1, 1),
    (1, 0, 0),
    (1, 1, 0),
    (0, 1, 0),
)


def bracket_step(root: Tuple[int, int, int]) -> int:
    """(beta, beta) = sum_jk n_j n_k d_j a_jk: the step c of the q-integers
    normalising beta's exponential factor, and the twist K_beta E_beta =
    q^c E_beta K_beta."""
    return sum(n_j * n_k * CARTAN.d[j] * CARTAN.a[j][k]
               for j, n_j in enumerate(root) for k, n_k in enumerate(root))


def phi(i: int) -> RatFunc:
    """The pairing normalization constants at the fixed parameter value."""
    q = QuarterLaurent.q_power
    if i in (1, 5, 7):
        return RatFunc(QuarterLaurent.constant(-1), LAMBDA)
    if i in (2, 6):
        return RatFunc(q(-1), LAMBDA)
    if i == 3:
        return RatFunc(q(-2, -1), LAMBDA)
    if i == 4:
        num = q(-4) * (q(2) - q(-2))
        return RatFunc(-num, LAMBDA * LAMBDA)
    raise ValueError("root index out of range 1..7")


@lru_cache(maxsize=None)
def generator_action(name: str, index: int) -> SuperMap:
    """Matrix of E_i, F_i or H_i on M."""
    if index not in (1, 2, 3):
        raise ValueError("generator index out of range 1..3")
    if name in ("E", "F"):
        action = (_E_ACTION if name == "E" else _F_ACTION)[index]
        return SuperMap(M, M, {(dst - 1, src - 1): QuarterLaurent.constant(c)
                               for src, (dst, c) in action.items()},
                        _SIMPLE_PARITIES[index - 1])
    if name == "H":
        return SuperMap(M, M, {
            (v, v): QuarterLaurent.constant(WEIGHTS[v][index - 1])
            for v in range(DIM)})
    raise ValueError(f"unknown generator family {name!r}")


@lru_cache(maxsize=None)
def cartan_exponential(root: Tuple[int, int, int], sign: int = 1) -> SuperMap:
    """K_beta^{sign} for beta = sum n_j alpha_j: diagonal with entries
    q^{sign * sum_j n_j d_j weight_j(v)}; K_i is the case beta = alpha_i."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return SuperMap(M, M, {
        (v, v): QuarterLaurent.q_power(sign * sum(
            n * d * w for n, d, w in zip(root, CARTAN.d, WEIGHTS[v])))
        for v in range(DIM)})


def super_bracket(y: SuperMap, z: SuperMap, scale: RatFunc = RF_ONE) -> SuperMap:
    """[y, z]_scale = y z - (-1)^{|y||z|} scale * z y."""
    sign = -RF_ONE if (y.parity and z.parity) else RF_ONE
    return compose(y, z) - compose(z, y).scale(sign * scale)


@lru_cache(maxsize=None)
def root_vector(i: int, kind: str = "raise") -> SuperMap:
    """Matrix of the i-th root vector (raising or lowering) on M."""
    if kind not in ("raise", "lower"):
        raise ValueError("kind must be 'raise' or 'lower'")
    name = "E" if kind == "raise" else "F"
    gen = lambda j: generator_action(name, j)  # noqa: E731
    qm1 = RatFunc.q_power(-1)
    qm2 = RatFunc.q_power(-2)
    if i == 1:
        return gen(3)
    if i == 5:
        return gen(1)
    if i == 7:
        return gen(2)
    if i == 2:
        return super_bracket(gen(1), gen(3), qm1)
    if i == 6:
        return super_bracket(gen(2), gen(1), qm1)
    if i == 3:
        return super_bracket(gen(2), root_vector(2, kind), qm1)
    if i == 4:
        # X_1 and the third root vector are both odd, so the Koszul sign
        # makes this X_1 B_3 + q^{-2} B_3 X_1.
        return super_bracket(gen(1), root_vector(3, kind), qm2)
    raise ValueError("root index out of range 1..7")


@lru_cache(maxsize=None)
def duality_maps() -> Tuple[SuperMap, SuperMap, SuperMap]:
    """(alpha, b, d): the self-duality and the induced cup/cap on M.

    alpha is the duality isomorphism written in M-coordinates against the
    dual basis; d(v_i (x) v_j) evaluates alpha(v_i) at v_j; b(1) is
    sum_i v_i (x) alpha^{-1}(v^i).
    """
    q = QuarterLaurent.q_power
    alpha_entries = {
        (1, 0): -q(-3), (0, 1): q(-1), (5, 2): q(-2),
        (4, 3): -q(-1), (3, 4): -q(-1), (2, 5): ONE,
    }
    alpha = SuperMap(M, M, alpha_entries)
    alpha_inv = invert(alpha)
    d_entries = {}
    for i in range(DIM):
        for j in range(DIM):
            value = alpha.entry(j, i)
            if not value.is_zero():
                d_entries[(0, i * DIM + j)] = value
    d = SuperMap(M2, TRIVIAL, d_entries)
    b_entries = {}
    for i in range(DIM):
        for j in range(DIM):
            value = alpha_inv.entry(j, i)
            if not value.is_zero():
                b_entries[(i * DIM + j, 0)] = value
    b = SuperMap(TRIVIAL, M2, b_entries)
    return alpha, b, d


def coproduct_action(name: str, index: int, flipped: bool = False) -> SuperMap:
    """The coproduct of a generator as an operator on M (x) M.

    Delta(H) = H(x)1 + 1(x)H, Delta(E) = E(x)1 + K(x)E,
    Delta(F) = F(x)K^{-1} + 1(x)F; ``flipped`` gives the opposite coproduct
    (graded flip applied to the legs).
    """
    ident = SuperMap.identity(M)
    g = generator_action(name, index)
    if name == "H":
        return tensor_map(g, ident) + tensor_map(ident, g)
    if name == "E":
        k = cartan_exponential(_SIMPLE_ROOTS[index - 1], 1)
        if flipped:
            return tensor_map(ident, g) + tensor_map(g, k)
        return tensor_map(g, ident) + tensor_map(k, g)
    if name == "F":
        kinv = cartan_exponential(_SIMPLE_ROOTS[index - 1], -1)
        if flipped:
            return tensor_map(kinv, g) + tensor_map(g, ident)
        return tensor_map(g, kinv) + tensor_map(ident, g)
    raise ValueError(f"unknown generator family {name!r}")


def _difference_detail(lhs: SuperMap, rhs: SuperMap) -> str:
    diff = lhs - rhs
    cells = sorted(diff.entries)
    shown = ", ".join(f"({r},{c})={diff.entries[(r, c)]!r}" for r, c in cells[:6])
    more = "" if len(cells) <= 6 else f" (+{len(cells) - 6} more)"
    return f"difference nonzero at {shown}{more}"


def _check(checks: List[CheckResult], check_id: str, lhs: SuperMap, rhs: SuperMap):
    ok = lhs == rhs
    checks.append(CheckResult(check_id, ok, "" if ok else _difference_detail(lhs, rhs)))


# Commutation relations among root vectors: (i, j, scale, rhs-terms), each
# asserting e_i e_j - scale * e_j e_i = sum coeff * monomial (monomials as
# index tuples).  The scales absorb the Koszul sign, so the bracket here is
# the plain one.  Values are at the fixed parameter.
def _commutation_table():
    q = RatFunc.q_power
    one = RF_ONE
    table = [
        (7, 5, q(-1), [(one, (6,))]),
        (7, 2, q(-1), [(one, (3,))]),
        (7, 1, one, []),
        (5, 3, -q(-2), [(one, (4,))]),
        (5, 1, q(-1), [(one, (2,))]),
        (7, 6, q(1), []),
        (7, 3, q(1), []),
        (6, 5, -q(-1), []),
        (6, 1, q(-1), [(one, (3,))]),
        (5, 4, q(-2), []),
        (5, 2, -q(-1), []),
        (4, 3, q(-2), []),
        (3, 2, -q(-1), []),
        (2, 1, q(1), []),
        (7, 4, one, []),
        (6, 4, q(-2), []),
        (6, 3, -q(-1), []),
        (4, 2, q(-2), []),
        (4, 1, one, [(q(-1) * (q(2) - q(-2)), (2, 3))]),
        (3, 1, q(1), []),
        (6, 2, -q(-2), [(-q(-2) * RF_LAMBDA, (3, 5)), (-q(-1), (4,))]),
    ]
    return table


def check_defining_relations() -> Report:
    """Verify every defining relation as an exact matrix identity on M."""
    checks: List[CheckResult] = []
    E = {i: generator_action("E", i) for i in (1, 2, 3)}
    F = {i: generator_action("F", i) for i in (1, 2, 3)}
    H = {i: generator_action("H", i) for i in (1, 2, 3)}
    K = {i: cartan_exponential(_SIMPLE_ROOTS[i - 1], 1) for i in (1, 2, 3)}
    Kinv = {i: cartan_exponential(_SIMPLE_ROOTS[i - 1], -1) for i in (1, 2, 3)}
    zero = SuperMap.zero(M, M)
    q = RatFunc.q_power

    for i in (1, 2, 3):
        for j in (1, 2, 3):
            _check(checks, f"cartan-commute:{i},{j}",
                   compose(H[i], H[j]), compose(H[j], H[i]))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            a_ij = RatFunc.constant(CARTAN.a[i - 1][j - 1])
            _check(checks, f"cartan-raises:{i},{j}",
                   compose(H[i], E[j]) - compose(E[j], H[i]), E[j].scale(a_ij))
            _check(checks, f"cartan-lowers:{i},{j}",
                   compose(H[i], F[j]) - compose(F[j], H[i]), F[j].scale(-a_ij))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            lhs = super_bracket(E[i], F[j])
            if i == j:
                d_i = CARTAN.d[i - 1]
                denom = q(d_i) - q(-d_i)
                rhs = (K[i] - Kinv[i]).scale(denom.inverse())
            else:
                rhs = zero
            _check(checks, f"raise-lower-pair:{i},{j}", lhs, rhs)

    _check(checks, "odd-square:E1", compose(E[1], E[1]), zero)
    _check(checks, "odd-square:F1", compose(F[1], F[1]), zero)
    _check(checks, "even-commute:E2,E3", super_bracket(E[2], E[3]), zero)
    _check(checks, "even-commute:F2,F3", super_bracket(F[2], F[3]), zero)

    two_cosh = q(1) + q(-1)
    for i in (2, 3):
        for X, kind in ((E, "raise"), (F, "lower")):
            serre = (compose(compose(X[i], X[i]), X[1])
                     - compose(compose(X[i], X[1]), X[i]).scale(two_cosh)
                     + compose(X[1], compose(X[i], X[i])))
            _check(checks, f"serre-{kind}:{i}", serre, zero)

    for kind, tag in (("raise", "e"), ("lower", "f")):
        vectors = {i: root_vector(i, kind) for i in range(1, 8)}
        for i, j, scale, rhs_terms in _commutation_table():
            lhs = (compose(vectors[i], vectors[j])
                   - compose(vectors[j], vectors[i]).scale(scale))
            rhs = SuperMap.zero(M, M, lhs.parity)
            for coeff, monomial in rhs_terms:
                term = SuperMap.identity(M)
                for idx in monomial:
                    term = compose(term, vectors[idx])
                rhs = rhs + term.scale(coeff)
            _check(checks, f"root-commutation:{tag}{i},{tag}{j}", lhs, rhs)

    for i in (2, 3, 6):
        for kind, tag in (("raise", "e"), ("lower", "f")):
            _check(checks, f"root-square:{tag}{i}",
                   compose(root_vector(i, kind), root_vector(i, kind)), zero)

    for i, root in enumerate(ROOTS, 1):
        e_i = root_vector(i, "raise")
        k_beta = cartan_exponential(root)
        _check(checks, f"cartan-root-twist:{i}",
               compose(k_beta, e_i),
               compose(e_i, k_beta).scale(q(bracket_step(root))))

    return Report("relations", checks)


def simple_orbit_spans(start: int) -> bool:
    """Repeated generator application from v_start spans all of M."""
    generators = [generator_action(n, i)
                  for n in ("E", "F", "H") for i in (1, 2, 3)]
    reached = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for g in generators:
                for (row, col) in g.entries:
                    if col == v and row not in reached:
                        reached.add(row)
                        nxt.append(row)
        frontier = nxt
    return len(reached) == DIM
