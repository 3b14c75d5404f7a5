import random

import pytest

from d21link.representation import M, M2, duality_maps, generator_action
from d21link.ring import RF_ONE, RatFunc
from d21link.superlinalg import (ShapeMismatchError, SuperMap, SuperSpace,
                                 compose, embed_at, invert,
                                 rank_over_fractions, tensor_map, volte)
from helpers import random_even_map, random_homogeneous_map


def flat(i, j, dim=6):
    return (i - 1) * dim + (j - 1)


def test_volte_even_and_odd_cases():
    tau = volte(M, M)
    # v1, v2 both even: plain flip
    assert tau.entry(flat(2, 1), flat(1, 2)) == RF_ONE
    # v3, v6 both odd: sign
    assert tau.entry(flat(6, 3), flat(3, 6)) == -RF_ONE
    # mixed parity: no sign
    assert tau.entry(flat(3, 1), flat(1, 3)) == RF_ONE


def test_volte_is_an_involution():
    tau = volte(M, M)
    assert compose(tau, tau) == SuperMap.identity(M2)
    small = SuperSpace((0, 1))
    tau_ab = volte(small, M)
    tau_ba = volte(M, small)
    assert compose(tau_ba, tau_ab) == SuperMap.identity(small.tensor(M))


def test_tensor_of_identities_is_identity():
    ident = SuperMap.identity(M)
    assert tensor_map(ident, ident) == SuperMap.identity(M2)


def test_tensor_koszul_sign_examples():
    e1 = generator_action("E", 1)
    f1 = generator_action("F", 1)
    op = tensor_map(e1, f1)
    # (E1 (x) F1)(v3 (x) v1) = -(E1 v3) (x) (F1 v1) = -v1 (x) v3
    assert op.entry(flat(1, 3), flat(3, 1)) == -RF_ONE
    # (E1 (x) F1)(v2 (x) v1) = (E1 v2) (x) (F1 v1) = -v6 (x) v3 (sign +1)
    assert op.entry(flat(6, 3), flat(2, 1)) == -RF_ONE
    assert op.parity == 0


def test_parity_block_invariant_enforced():
    with pytest.raises(ValueError):
        SuperMap(M, M, {(0, 2): RF_ONE})          # even map across parities
    with pytest.raises(ValueError):
        SuperMap(M, M, {(0, 1): RF_ONE}, parity=1)  # odd map inside a block
    # all generator matrices satisfy the invariant by construction
    for name in ("E", "F", "H"):
        for i in (1, 2, 3):
            generator_action(name, i)


def test_embed_at_trivial_and_positions():
    e2 = generator_action("E", 2)
    assert embed_at(e2, 0, 0, M) == e2
    c_like = random_even_map(random.Random(3), M2)
    assert embed_at(c_like, 0, 1, M) == tensor_map(c_like, SuperMap.identity(M))
    inner = embed_at(c_like, 1, 1, M)
    assert inner.domain.dim == 6 ** 4
    assert inner.codomain.dim == 6 ** 4


def test_compose_with_identity_and_shape_errors():
    rng = random.Random(5)
    f = random_even_map(rng, M)
    assert compose(f, SuperMap.identity(M)) == f
    assert compose(SuperMap.identity(M), f) == f
    small = SuperSpace((0,))
    with pytest.raises(ShapeMismatchError):
        compose(f, SuperMap.identity(small))


def test_graded_interchange_law():
    # (f2 (x) g2) o (f1 (x) g1) = (-1)^{|g2||f1|} (f2 o f1) (x) (g2 o g1)
    rng = random.Random(9)
    for parities in ((0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 0, 1), (0, 1, 1, 1)):
        p_f2, p_g2, p_f1, p_g1 = parities
        f2 = random_homogeneous_map(rng, M, p_f2)
        g2 = random_homogeneous_map(rng, M, p_g2)
        f1 = random_homogeneous_map(rng, M, p_f1)
        g1 = random_homogeneous_map(rng, M, p_g1)
        lhs = compose(tensor_map(f2, g2), tensor_map(f1, g1))
        rhs = tensor_map(compose(f2, f1), compose(g2, g1))
        if p_g2 and p_f1:
            rhs = rhs.scale(-RF_ONE)
        assert lhs == rhs


def test_volte_naturality():
    # tau o (f (x) g) = (-1)^{|f||g|} (g (x) f) o tau
    rng = random.Random(15)
    tau = volte(M, M)
    for p_f, p_g in ((0, 0), (1, 0), (0, 1), (1, 1)):
        f = random_homogeneous_map(rng, M, p_f)
        g = random_homogeneous_map(rng, M, p_g)
        lhs = compose(tau, tensor_map(f, g))
        rhs = compose(tensor_map(g, f), tau)
        if p_f and p_g:
            rhs = rhs.scale(-RF_ONE)
        assert lhs == rhs


def test_rank_known_cases():
    assert rank_over_fractions(SuperMap.identity(M2)) == 36
    assert rank_over_fractions(SuperMap.zero(M, M)) == 0
    # rank-1 outer product inside the even block
    outer = SuperMap(M, M, {(0, 0): RF_ONE, (0, 1): RF_ONE,
                            (1, 0): RatFunc.constant(2),
                            (1, 1): RatFunc.constant(2)})
    assert rank_over_fractions(outer) == 1
    # the non-square cap (36 -> 1) and cup (1 -> 36)
    _, cup, cap = duality_maps()
    assert rank_over_fractions(cap) == 1
    assert rank_over_fractions(cup) == 1


def test_rank_is_invariant_under_left_multiplication_by_invertible():
    rng = random.Random(27)
    f = random_even_map(rng, M)
    upper = SuperMap(M, M, {(i, i): RF_ONE for i in range(6)} |
                     {(0, 1): RatFunc.constant(3), (2, 3): RatFunc.constant(-2)})
    assert rank_over_fractions(compose(upper, f)) == rank_over_fractions(f)


def test_invert_round_trip_and_singular():
    entries = {(i, i): RatFunc.constant(i + 1) for i in range(6)}
    entries[(0, 1)] = RatFunc.constant(5)
    entries[(3, 4)] = RatFunc.constant(-2)
    m = SuperMap(M, M, entries)
    assert compose(invert(m), m) == SuperMap.identity(M)
    assert compose(m, invert(m)) == SuperMap.identity(M)
    with pytest.raises(ArithmeticError):
        invert(SuperMap.zero(M, M))
    # two equal nonzero rows
    equal_rows = dict(entries)
    equal_rows[(1, 0)] = RatFunc.constant(1)
    equal_rows[(1, 1)] = RatFunc.constant(5)
    with pytest.raises(ArithmeticError):
        invert(SuperMap(M, M, equal_rows))
    # the v1 <-> v2 swap: the pivot for column 0 sits in row 1
    swap = {(i, i): RF_ONE for i in range(2, 6)}
    swap[(0, 1)] = swap[(1, 0)] = RatFunc.q_power(1)
    m = SuperMap(M, M, swap)
    assert compose(invert(m), m) == SuperMap.identity(M)
    assert invert(m).entry(1, 0) == RatFunc.q_power(-1)


def test_map_addition_parity_rules():
    rng = random.Random(33)
    odd = random_homogeneous_map(rng, M, 1)
    even = random_even_map(rng, M)
    if odd.is_zero() or even.is_zero():
        pytest.skip("degenerate sample")
    with pytest.raises(ValueError):
        _ = odd + even
    assert (odd + SuperMap.zero(M, M)).entries == odd.entries
