import random
from functools import lru_cache

import pytest

from d21link.representation import (M, M2, ROOTS, bracket_step, duality_maps,
                                    generator_action, phi, root_vector)
from d21link.ring import (LAMBDA, ONE, RF_ONE, NotLaurentInQ, QuarterLaurent,
                          RatFunc, q_factorial)
from d21link.superlinalg import (TRIVIAL, ShapeMismatchError, SuperMap,
                                 SuperSpace, compose, embed_at, invert,
                                 rank_over_fractions, tensor_map, volte)
from helpers import (DENOMINATORS, fraction_rank, random_even_map,
                     random_homogeneous_map, random_nonzero_quarter_laurent,
                     random_sparse_map)


def flat(i, j, dim=6):
    return (i - 1) * dim + (j - 1)


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
    outer = SuperMap(M, M, {(0, 0): ONE, (0, 1): ONE,
                            (1, 0): QuarterLaurent.constant(2),
                            (1, 1): QuarterLaurent.constant(2)})
    assert rank_over_fractions(outer) == 1
    # the non-square cap (36 -> 1) and cup (1 -> 36)
    _, cup, cap = duality_maps()
    assert rank_over_fractions(cap) == 1
    assert rank_over_fractions(cup) == 1


def test_rank_is_invariant_under_left_multiplication_by_invertible():
    rng = random.Random(27)
    f = random_even_map(rng, M)
    upper = SuperMap(M, M, {(i, i): ONE for i in range(6)} |
                     {(0, 1): QuarterLaurent.constant(3),
                      (2, 3): QuarterLaurent.constant(-2)})
    assert rank_over_fractions(compose(upper, f)) == rank_over_fractions(f)


def test_invert_round_trip_and_singular():
    entries = {(i, i): QuarterLaurent.constant(1 - 2 * (i % 2))
               for i in range(6)}
    entries[(0, 1)] = QuarterLaurent.constant(5)
    entries[(3, 4)] = QuarterLaurent.constant(-2)
    m = SuperMap(M, M, entries)
    assert compose(invert(m), m) == SuperMap.identity(M)
    assert compose(m, invert(m)) == SuperMap.identity(M)
    with pytest.raises(ArithmeticError):
        invert(SuperMap.zero(M, M))
    # two equal nonzero rows
    equal_rows = dict(entries)
    equal_rows[(1, 0)] = QuarterLaurent.constant(1)
    equal_rows[(1, 1)] = QuarterLaurent.constant(5)
    with pytest.raises(ArithmeticError):
        invert(SuperMap(M, M, equal_rows))
    # the v1 <-> v2 swap: the pivot for column 0 sits in row 1
    swap = {(i, i): ONE for i in range(2, 6)}
    swap[(0, 1)] = swap[(1, 0)] = QuarterLaurent.q_power(1)
    m = SuperMap(M, M, swap)
    assert compose(invert(m), m) == SuperMap.identity(M)
    assert invert(m).entry(1, 0) == QuarterLaurent.q_power(-1)


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
    return SuperSpace(tuple(rng.randint(0, 1) for _ in range(dim)))


def without_a_row_and_column(rng, op):
    row = rng.randrange(op.codomain.dim)
    col = rng.randrange(op.domain.dim)
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
            inner = random_space(rng, rng.randint(1, outer.dim - 1))
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
        assert all(type(v) is QuarterLaurent for v in op.entries.values())
        rank = rank_over_fractions(op)
        assert rank == reference_rank(index), op
        deficient += rank < min(op.domain.dim, op.codomain.dim)
    # the sample is not degenerate
    assert deficient >= 40 and len(MAPS) - deficient >= 40


def laurent_unimodular(rng, space):
    """Units +-t^k on the diagonal times elementary maps id + a*e_ij with
    Laurent a: invertible over Z[t, 1/t], so the inverse is Laurent."""
    n = space.dim
    op = SuperMap(space, space, {
        (i, i): QuarterLaurent({rng.randint(-6, 6): rng.choice((1, -1))})
        for i in range(n)})
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j or space.parity(i) != space.parity(j):
            continue
        entries = {(k, k): ONE for k in range(n)}
        entries[(i, j)] = random_nonzero_quarter_laurent(rng)
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
        assert all(type(v) is QuarterLaurent for v in inverse.entries.values())
        assert_inverse(op, inverse)


def test_invert_raises_when_the_inverse_is_not_laurent():
    diag = SuperMap(M, M, {(i, i): QuarterLaurent.constant(i + 1)
                           for i in range(6)})
    with pytest.raises(ArithmeticError):
        invert(diag)
    # a unimodular map times a diagonal with one non-unit d: the inverse's
    # row of d is a row of a unimodular map over d, which d cannot divide
    rng = random.Random(20202)
    for _ in range(20):
        space = random_space(rng, rng.randint(1, 6))
        scaled = rng.randrange(space.dim)
        diagonal = SuperMap(space, space, {
            (i, i): rng.choice(DENOMINATORS) if i == scaled else ONE
            for i in range(space.dim)})
        op = compose(laurent_unimodular(rng, space), diagonal)
        assert fraction_rank(op) == space.dim
        with pytest.raises(ArithmeticError):
            invert(op)


def test_invert_raises_on_generated_singular_maps():
    singular = [op for index, op in enumerate(MAPS)
                if op.domain.dim == op.codomain.dim
                and reference_rank(index) < op.domain.dim]
    assert len(singular) >= 20
    for op in singular:
        with pytest.raises(ArithmeticError):
            invert(op)


def test_entries_are_quarter_laurent_only():
    for value in (RF_ONE, RatFunc(ONE, LAMBDA), 1):
        with pytest.raises(TypeError):
            SuperMap(M, M, {(0, 0): value})


def test_scale_divides_exactly_or_raises():
    # each exponential factor's coefficients 1/((n)_c! phi_i^n) divide the
    # tensor powers they scale exactly, and scaling back recovers them
    for i, root in enumerate(ROOTS, 1):
        raising, lowering = root_vector(i, "raise"), root_vector(i, "lower")
        e_power, f_power, n = raising, lowering, 1
        while not (e_power.is_zero() or f_power.is_zero()):
            factor = q_factorial(n, bracket_step(root)) * phi(i) ** n
            term = tensor_map(e_power, f_power)
            scaled = term.scale(factor.inverse())
            assert all(type(v) is QuarterLaurent
                       for v in scaled.entries.values())
            assert scaled.scale(factor) == term
            e_power = compose(e_power, raising)
            f_power = compose(f_power, lowering)
            n += 1
    with pytest.raises(NotLaurentInQ):
        SuperMap.identity(M).scale(RatFunc(ONE, LAMBDA))
    with pytest.raises(NotLaurentInQ):
        generator_action("E", 2).scale(
            RatFunc(ONE, QuarterLaurent.constant(2)))


def test_embed_at_is_the_tensor_with_identities():
    rng = random.Random(41)
    small = SuperSpace((0, 1, 1))
    for parity in (0, 1, 0, 1):
        f = random_homogeneous_map(rng, small, parity)
        for left in range(3):
            for right in range(3):
                expected = f
                if left:
                    expected = tensor_map(
                        SuperMap.identity(small.tensor_power(left)), expected)
                if right:
                    expected = tensor_map(
                        expected, SuperMap.identity(small.tensor_power(right)))
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
