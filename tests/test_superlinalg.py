import random
from functools import lru_cache

import pytest

from d21link.representation import (M, M2, duality_maps, generator_action,
                                    phi, root_vector)
from d21link.ring import (LAMBDA, ONE, ZERO, NotLaurentInQ, Laurent,
                          RatFunc)
from d21link.superlinalg import (TRIVIAL, ShapeMismatchError, SuperMap,
                                 compose, embed_at, invert,
                                 rank_over_fractions, tensor, tensor_map,
                                 tensor_power, volte)
from helpers import (DENOMINATORS, fraction_rank, random_even_map,
                     random_homogeneous_map, random_nonzero_laurent,
                     random_sparse_map, reference_embed_at)


def flat(i, j, dim=6):
    return (i - 1) * dim + (j - 1)


def test_tensor_parities_add_mod_2():
    # a tensor basis vector is as odd as the sum of its factors' parities,
    # listed lexicographically
    assert tensor((0, 1), (0, 1, 1)) == (0, 1, 1, 1, 0, 0)
    assert tensor(TRIVIAL, M) == M == tensor(M, TRIVIAL)
    assert M2 == tensor(M, M) and len(M2) == 36
    assert tensor_power(M, 0) == TRIVIAL
    assert tensor_power(M, 1) == M
    assert tensor_power(M, 2) == M2
    assert tensor_power((0, 1), 3) == tuple(bin(i).count("1") & 1
                                            for i in range(8))


def test_volte_even_and_odd_cases():
    tau = volte(M, M)
    # v1, v2 both even: plain flip
    assert tau.entry(flat(2, 1), flat(1, 2)) == ONE
    # v3, v6 both odd: sign
    assert tau.entry(flat(6, 3), flat(3, 6)) == -ONE
    # mixed parity: no sign
    assert tau.entry(flat(3, 1), flat(1, 3)) == ONE


def test_volte_is_an_involution():
    tau = volte(M, M)
    assert compose(tau, tau) == SuperMap.identity(M2)
    small = (0, 1)
    tau_ab = volte(small, M)
    tau_ba = volte(M, small)
    assert compose(tau_ba, tau_ab) == SuperMap.identity(tensor(small, M))


def test_tensor_of_identities_is_identity():
    ident = SuperMap.identity(M)
    assert tensor_map(ident, ident) == SuperMap.identity(M2)


def test_tensor_koszul_sign_examples():
    e1 = generator_action("E", 1)
    f1 = generator_action("F", 1)
    op = tensor_map(e1, f1)
    # (E1 (x) F1)(v3 (x) v1) = -(E1 v3) (x) (F1 v1) = -v1 (x) v3
    assert op.entry(flat(1, 3), flat(3, 1)) == -ONE
    # (E1 (x) F1)(v2 (x) v1) = (E1 v2) (x) (F1 v1) = -v6 (x) v3 (sign +1)
    assert op.entry(flat(6, 3), flat(2, 1)) == -ONE
    assert op.parity == 0


def test_parity_block_invariant_enforced():
    with pytest.raises(ValueError):
        SuperMap(M, M, {(0, 2): ONE})          # even map across parities
    with pytest.raises(ValueError):
        SuperMap(M, M, {(0, 1): ONE}, parity=1)  # odd map inside a block
    # all generator matrices satisfy the invariant by construction
    for name in ("E", "F", "H"):
        for i in (1, 2, 3):
            generator_action(name, i)


def test_entries_outside_the_spaces_are_refused():
    # a negative index would otherwise read a parity from the end, and a
    # nonzero map would have no entry that entry() can return
    for key in ((-1, 2), (2, -1), (6, 0), (0, 6)):
        with pytest.raises(ValueError):
            SuperMap(M, M, {key: ONE})
        with pytest.raises(ValueError):
            SuperMap(M, M, {key: ZERO})
    with pytest.raises(ValueError):
        SuperMap(M2, TRIVIAL, {(1, 0): ONE})
    with pytest.raises(ValueError):
        SuperMap(TRIVIAL, M2, {(36, 0): ONE})
    assert SuperMap(M, M, {(5, 2): ONE}).entry(5, 2) == ONE


def test_embed_at_trivial_and_positions():
    e2 = generator_action("E", 2)
    assert embed_at(e2, 0, 0, M) == e2
    c_like = random_even_map(random.Random(3), M2)
    assert embed_at(c_like, 0, 1, M) == tensor_map(c_like, SuperMap.identity(M))
    inner = embed_at(c_like, 1, 1, M)
    assert len(inner.domain) == 6 ** 4
    assert len(inner.codomain) == 6 ** 4


def test_compose_with_identity_and_shape_errors():
    rng = random.Random(5)
    f = random_even_map(rng, M)
    assert compose(f, SuperMap.identity(M)) == f
    assert compose(SuperMap.identity(M), f) == f
    small = (0,)
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
            rhs = rhs.scale(-ONE)
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
            rhs = rhs.scale(-ONE)
        assert lhs == rhs


def test_rank_known_cases():
    assert rank_over_fractions(SuperMap.identity(M2)) == 36
    assert rank_over_fractions(SuperMap.zero(M, M)) == 0
    # rank-1 outer product inside the even block
    outer = SuperMap(M, M, {(0, 0): ONE, (0, 1): ONE,
                            (1, 0): Laurent.constant(2),
                            (1, 1): Laurent.constant(2)})
    assert rank_over_fractions(outer) == 1
    # the non-square cap (36 -> 1) and cup (1 -> 36)
    _, cup, cap = duality_maps()
    assert rank_over_fractions(cap) == 1
    assert rank_over_fractions(cup) == 1


def test_rank_is_invariant_under_left_multiplication_by_invertible():
    rng = random.Random(27)
    f = random_even_map(rng, M)
    upper = SuperMap(M, M, {(i, i): ONE for i in range(6)} |
                     {(0, 1): Laurent.constant(3),
                      (2, 3): Laurent.constant(-2)})
    assert rank_over_fractions(compose(upper, f)) == rank_over_fractions(f)


def test_invert_round_trip_and_singular():
    entries = {(i, i): Laurent.constant(1 - 2 * (i % 2))
               for i in range(6)}
    entries[(0, 1)] = Laurent.constant(5)
    entries[(3, 4)] = Laurent.constant(-2)
    m = SuperMap(M, M, entries)
    assert compose(invert(m), m) == SuperMap.identity(M)
    assert compose(m, invert(m)) == SuperMap.identity(M)
    with pytest.raises(ArithmeticError):
        invert(SuperMap.zero(M, M))
    # two equal nonzero rows
    equal_rows = dict(entries)
    equal_rows[(1, 0)] = Laurent.constant(1)
    equal_rows[(1, 1)] = Laurent.constant(5)
    with pytest.raises(ArithmeticError):
        invert(SuperMap(M, M, equal_rows))
    # the v1 <-> v2 swap: the pivot for column 0 sits in row 1
    swap = {(i, i): ONE for i in range(2, 6)}
    swap[(0, 1)] = swap[(1, 0)] = Laurent.q_power(1)
    m = SuperMap(M, M, swap)
    assert compose(invert(m), m) == SuperMap.identity(M)
    assert invert(m).entry(1, 0) == Laurent.q_power(-1)


def test_map_addition_parity_rules():
    rng = random.Random(33)
    odd = random_homogeneous_map(rng, M, 1)
    even = random_even_map(rng, M)
    if odd.is_zero() or even.is_zero():
        pytest.skip("degenerate sample")
    with pytest.raises(ValueError):
        _ = odd + even
    assert (odd + SuperMap.zero(M, M)).entries == odd.entries


def random_space(rng, dim):
    return tuple(rng.randint(0, 1) for _ in range(dim))


def without_a_row_and_column(rng, op):
    row = rng.randrange(len(op.codomain))
    col = rng.randrange(len(op.domain))
    return SuperMap(op.domain, op.codomain,
                    {k: v for k, v in op.entries.items()
                     if k[0] != row and k[1] != col})


def generated_maps(seed, count):
    """Seeded sparse even maps of four kinds, in turn: square, non-square,
    the shapes of the cup (1 -> 36) and the cap (36 -> 1), and products
    through a smaller space, which are rank-deficient; Laurent entries, and
    every other map with one row and one column emptied."""
    rng = random.Random(seed)
    maps = []
    for index in range(count):
        kind = index % 4
        if kind == 0:
            space = random_space(rng, rng.randint(1, 6))
            op = random_sparse_map(rng, space, space)
        elif kind == 1:
            op = random_sparse_map(rng, random_space(rng, rng.randint(1, 8)),
                                   random_space(rng, rng.randint(1, 8)))
        elif kind == 2:
            shape = (TRIVIAL, M2) if rng.random() < 0.5 else (M2, TRIVIAL)
            op = random_sparse_map(rng, *shape, density=0.15)
        else:
            outer = random_space(rng, rng.randint(3, 6))
            inner = random_space(rng, rng.randint(1, len(outer) - 1))
            other = random_space(rng, rng.randint(3, 6))
            op = compose(random_sparse_map(rng, inner, outer, density=0.7),
                         random_sparse_map(rng, other, inner, density=0.7))
        if index % 2:
            op = without_a_row_and_column(rng, op)
        maps.append(op)
    return maps


MAPS = generated_maps(20200, 200)


@lru_cache(maxsize=None)
def reference_rank(index):
    return fraction_rank(MAPS[index])


def test_rank_matches_the_fraction_field_sweep():
    deficient = 0
    for index, op in enumerate(MAPS):
        assert all(type(v) is Laurent for v in op.entries.values())
        rank = rank_over_fractions(op)
        assert rank == reference_rank(index), op
        deficient += rank < min(len(op.domain), len(op.codomain))
    # the sample is not degenerate
    assert deficient >= 40 and len(MAPS) - deficient >= 40


def laurent_unimodular(rng, space):
    """Units +-q^k on the diagonal times elementary maps id + a*e_ij with
    Laurent a: invertible over Z[q, 1/q], so the inverse is Laurent."""
    n = len(space)
    op = SuperMap(space, space, {
        (i, i): Laurent({rng.randint(-6, 6): rng.choice((1, -1))})
        for i in range(n)})
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j or space[i] != space[j]:
            continue
        entries = {(k, k): ONE for k in range(n)}
        entries[(i, j)] = random_nonzero_laurent(rng)
        op = compose(SuperMap(space, space, entries), op)
    return op


def assert_inverse(op, inverse):
    ident = SuperMap.identity(op.domain)
    assert compose(inverse, op) == ident
    assert compose(op, inverse) == ident


def test_invert_round_trips_on_generated_maps():
    rng = random.Random(20201)
    for _ in range(40):
        op = laurent_unimodular(rng, random_space(rng, rng.randint(1, 7)))
        inverse = invert(op)
        assert all(type(v) is Laurent for v in inverse.entries.values())
        assert_inverse(op, inverse)


def test_invert_raises_when_the_inverse_is_not_laurent():
    diag = SuperMap(M, M, {(i, i): Laurent.constant(i + 1)
                           for i in range(6)})
    with pytest.raises(ArithmeticError):
        invert(diag)
    # a unimodular map times a diagonal with one non-unit d: the inverse's
    # row of d is a row of a unimodular map over d, which d cannot divide
    rng = random.Random(20202)
    for _ in range(20):
        space = random_space(rng, rng.randint(1, 6))
        scaled = rng.randrange(len(space))
        diagonal = SuperMap(space, space, {
            (i, i): rng.choice(DENOMINATORS) if i == scaled else ONE
            for i in range(len(space))})
        op = compose(laurent_unimodular(rng, space), diagonal)
        assert fraction_rank(op) == len(space)
        with pytest.raises(ArithmeticError):
            invert(op)


def test_invert_raises_on_generated_singular_maps():
    singular = [op for index, op in enumerate(MAPS)
                if len(op.domain) == len(op.codomain)
                and reference_rank(index) < len(op.domain)]
    assert len(singular) >= 20
    for op in singular:
        with pytest.raises(ArithmeticError):
            invert(op)


def test_entries_are_quarter_laurent_only():
    for value in (RatFunc(ONE), RatFunc(ONE, LAMBDA), 1):
        with pytest.raises(TypeError):
            SuperMap(M, M, {(0, 0): value})


def test_scale_divides_exactly_or_raises():
    # the one term E_i (x) F_i of each exponential factor, scaled by
    # 1/phi_i as phi_i's denominator over its numerator, is divided
    # exactly, and scaling back by phi_i recovers it
    for i in range(1, 8):
        term = tensor_map(root_vector(i, "raise"), root_vector(i, "lower"))
        assert not term.is_zero()
        phi_i = phi(i)
        scaled = term.scale(phi_i.den, phi_i.num)
        assert all(type(v) is Laurent for v in scaled.entries.values())
        assert scaled.scale(phi_i.num, phi_i.den) == term
    e2 = generator_action("E", 2)
    # a fraction need not be in lowest terms, and a zero numerator gives
    # the zero map of the same parity
    assert e2.scale(LAMBDA * LAMBDA, LAMBDA) == e2.scale(LAMBDA)
    assert e2.scale(ZERO) == SuperMap.zero(M, M, e2.parity)
    with pytest.raises(NotLaurentInQ):
        SuperMap.identity(M).scale(ONE, LAMBDA)
    # a one-term divisor takes exact_div's shortcut, and a two-term one its
    # quotient loop, whose leading coefficient 2 does not divide 1
    with pytest.raises(NotLaurentInQ):
        e2.scale(ONE, Laurent.constant(2))
    plus_one = LAMBDA + ONE
    with pytest.raises(NotLaurentInQ):
        e2.scale(plus_one, plus_one * Laurent.constant(2))
    assert e2.scale(plus_one * Laurent.constant(2),
                    plus_one) == e2.scale(Laurent.constant(2))


def test_embed_at_is_the_tensor_with_identities():
    # the reference writes the Koszul signs of the identity factors out by
    # hand, so it does not share tensor_map with embed_at
    rng = random.Random(41)
    small = (0, 1, 1)
    for parity in (0, 1, 0, 1):
        f = random_homogeneous_map(rng, small, parity)
        for left in range(3):
            for right in range(3):
                expected = reference_embed_at(f, left, right, small)
                got = embed_at(f, left, right, small)
                assert got == expected
                assert got.parity == expected.parity == parity


def test_compose_and_tensor_parities():
    # map equality ignores the parity, so it is checked on its own
    rng = random.Random(43)
    for p_f in (0, 1):
        for p_g in (0, 1):
            f = random_homogeneous_map(rng, M, p_f)
            g = random_homogeneous_map(rng, M, p_g)
            assert compose(f, g).parity == (p_f + p_g) % 2
            assert tensor_map(f, g).parity == (p_f + p_g) % 2
