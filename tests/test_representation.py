from contextlib import contextmanager

import pytest

from d21link import representation
from d21link.representation import (CARTAN, DIM, M, ROOTS, WEIGHTS, CartanData,
                                    bracket_step, cartan_exponential,
                                    check_defining_relations,
                                    coproduct_action, duality_maps,
                                    generator_action, phi, root_vector,
                                    simple_orbit_spans, super_bracket)
from d21link.ring import LAMBDA, ONE, QuarterLaurent, RatFunc
from d21link.superlinalg import SuperMap, compose, embed_at
from helpers import column


def flat(i, j):
    return (i - 1) * DIM + (j - 1)


def q(k, coeff=1):
    return QuarterLaurent.q_power(k, coeff)


ALPHA = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def clear_representation_caches():
    for value in vars(representation).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@contextmanager
def replaced_weights(weights):
    """``representation.WEIGHTS`` replaced by ``weights``, with every
    ``lru_cache`` of the module cleared on the way in and out: nothing
    derived from the true table is reused inside, nor from the replaced
    one after."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(representation, "WEIGHTS", weights)
        clear_representation_caches()
        try:
            yield
        finally:
            clear_representation_caches()


def test_cartan_tables():
    assert CARTAN.a == ((0, 1, 1), (-1, 2, 0), (-1, 0, 2))
    assert CARTAN.d == (-1, 1, 1)
    assert CARTAN.b4 == ((4, -2, -2), (-2, -1, 1), (-2, 1, -1))
    assert ROOTS == ((0, 0, 1), (1, 0, 1), (1, 1, 1), (2, 1, 1),
                     (1, 0, 0), (1, 1, 0), (0, 1, 0))
    # the root square lengths (beta, beta)
    assert tuple(bracket_step(root) for root in ROOTS) == (2, 0, 0, -4, 0, 0, 2)


def test_cartan_data_checks_its_tables():
    assert CartanData(*CARTAN) == CARTAN
    # with d = (1, 1, 1), d_1 a_12 = 1 but d_2 a_21 = -1
    with pytest.raises(ValueError, match="not symmetric"):
        CartanData(CARTAN.a, (1, 1, 1), CARTAN.b4)
    b4 = (CARTAN.b4[0], CARTAN.b4[1], (-2, 1, 1))
    with pytest.raises(ValueError, match="b4 / 4 is not inverse"):
        CartanData(CARTAN.a, CARTAN.d, b4)


def test_generator_action_tables():
    e2 = generator_action("E", 2)
    # E2: v4 -> v3, v6 -> v5, all else to zero
    assert e2.entry(2, 3) == ONE
    assert e2.entry(4, 5) == ONE
    assert len(e2.entries) == 2
    # H2 diagonal (0, 0, 1, -1, 1, -1)
    h2 = generator_action("H", 2)
    diag = [h2.entry(v, v) for v in range(DIM)]
    assert diag == [QuarterLaurent.constant(x) for x in (0, 0, 1, -1, 1, -1)]
    # F1: v1 -> v3, v6 -> v2
    f1 = generator_action("F", 1)
    assert f1.entry(2, 0) == ONE
    assert f1.entry(1, 5) == ONE
    assert len(f1.entries) == 2
    # E_1 and F_1 are odd, the other raising and lowering generators even
    for name in ("E", "F"):
        parities = [generator_action(name, i).parity for i in (1, 2, 3)]
        assert parities == [1, 0, 0]


def test_weights_match_cartan_action():
    for v in range(DIM):
        for i in (1, 2, 3):
            h = generator_action("H", i)
            assert h.entry(v, v) == QuarterLaurent.constant(WEIGHTS[v][i - 1])


def test_cartan_exponential_values():
    k1 = cartan_exponential(ALPHA[0])
    assert k1.entry(0, 0) == q(-1)          # K1 v1 = q^{-1} v1
    k2 = cartan_exponential(ALPHA[1])
    assert k2.entry(5, 5) == q(-1)          # K2 v6 = q^{-1} v6
    for root in ROOTS:
        product = compose(cartan_exponential(root, 1),
                          cartan_exponential(root, -1))
        assert product == SuperMap.identity(M)
    # K_beta is the product of the K_i^{n_i}
    k4 = compose(compose(k1, k1), compose(k2, cartan_exponential(ALPHA[2])))
    assert cartan_exponential(ROOTS[3]) == k4


def test_root_vector_examples():
    b2 = root_vector(2)
    # E_{beta_2} v2 = q^{-1} v4
    assert b2.entry(3, 1) == q(-1)
    # every root vector annihilates v1
    for i in range(1, 8):
        entries = column(root_vector(i), 0)
        assert not entries
    # a root is odd iff it holds the odd simple root alpha_1 an odd number
    # of times
    for i, (n1, _, _) in enumerate(ROOTS, 1):
        assert root_vector(i).parity == n1 % 2
        assert root_vector(i, "lower").parity == n1 % 2


def test_root_vectors_square_to_zero_on_module():
    zero = SuperMap.zero(M, M)
    for i in range(1, 8):
        for kind in ("raise", "lower"):
            vec = root_vector(i, kind)
            assert compose(vec, vec) == zero


def test_phi_values():
    lam = RatFunc(LAMBDA)
    assert phi(5) == RatFunc(QuarterLaurent.constant(-1), LAMBDA)
    assert phi(5) * lam == RatFunc.constant(-1)
    assert phi(2) == RatFunc(QuarterLaurent.q_power(-1), LAMBDA)
    assert phi(4).den != ONE
    # 1/phi_4 = -q^4 (q - q^{-1}) / (q + q^{-1})
    expected = RatFunc(QuarterLaurent.q_power(4, -1) * LAMBDA,
                       QuarterLaurent({4: 1, -4: 1}))
    assert phi(4).inverse() == expected


def test_defining_relations_all_pass():
    report = check_defining_relations()
    failures = [c.check_id for c in report.checks if not c.passed]
    assert report.ok, failures
    assert len(report.checks) >= 90


# The inconsistent Cartan diagonal: weight one for H_2, H_3 on the even pair.
WEIGHTS_LITERAL = (
    (1, 1, 1),
    (-1, 1, 1),
    (1, 1, 1),
    (0, -1, 1),
    (0, 1, -1),
    (-1, -1, -1),
)


def test_literal_cartan_variant_fails_at_the_documented_spot():
    with replaced_weights(WEIGHTS_LITERAL):
        report = check_defining_relations()
    failures = {c.check_id for c in report.checks if not c.passed}
    assert "raise-lower-pair:2,2" in failures
    assert "raise-lower-pair:3,3" in failures
    # the failing check carries the offending difference
    failing = next(c for c in report.checks
                   if c.check_id == "raise-lower-pair:2,2")
    assert "difference nonzero" in failing.detail


def test_literal_cartan_breaks_e2f2_on_v1():
    # with weight one on v1 the right-hand side acts as the identity there
    # while [E2, F2] annihilates it
    with replaced_weights(WEIGHTS_LITERAL):
        e2 = generator_action("E", 2)
        f2 = generator_action("F", 2)
        k2 = cartan_exponential(ALPHA[1], 1)
        k2inv = cartan_exponential(ALPHA[1], -1)
    bracket = super_bracket(e2, f2)
    assert not column(bracket, 0)
    assert k2.entry(0, 0) == q(CARTAN.d[1])
    denominator = RatFunc.q_power(1) - RatFunc.q_power(-1)
    rhs = (k2 - k2inv).scale(denominator.inverse())
    assert rhs.entry(0, 0) == ONE
    # and the true tables are back on the way out
    assert cartan_exponential(ALPHA[1]).entry(0, 0) == ONE


def test_super_commutator_example():
    # [E1, F1] v6 = -v6, matching (K1 - K1^{-1})/(q1 - q1^{-1}) at weight -1
    e1 = generator_action("E", 1)
    f1 = generator_action("F", 1)
    bracket = super_bracket(e1, f1)
    assert bracket.entry(5, 5) == QuarterLaurent.constant(-1)


def test_duality_map_values():
    alpha, b, d = duality_maps()
    assert d.entry(0, flat(1, 2)) == q(-3, -1)
    assert d.entry(0, flat(6, 3)) == ONE
    for i in range(1, 7):
        assert d.entry(0, flat(i, i)).is_zero()
    expected_b = {
        flat(1, 2): q(1), flat(2, 1): q(3, -1), flat(3, 6): ONE,
        flat(4, 5): q(1, -1), flat(5, 4): q(1, -1), flat(6, 3): q(2),
    }
    assert {row: value for (row, _), value in b.entries.items()} == expected_b
    assert compose(d, b).entry(0, 0) == QuarterLaurent.constant(2)
    assert alpha.parity == 0


def test_zig_zag_identities():
    _, b, d = duality_maps()
    left = compose(embed_at(d, 1, 0, M), embed_at(b, 0, 1, M))
    right = compose(embed_at(d, 0, 1, M), embed_at(b, 1, 0, M))
    assert left == SuperMap.identity(M)
    assert right == SuperMap.identity(M)


def test_embedded_cap_on_middle_strands():
    # id (x) d (x) id caps strands 2,3 of a four-strand word:
    # v1 v1 v2 v1 -> d(v1, v2) * v1 v1 = -q^{-3} v1 (x) v1
    _, _, d = duality_maps()
    capped = embed_at(d, 1, 1, M)
    assert capped.domain.dim == DIM ** 4
    assert capped.codomain.dim == DIM ** 2
    col = ((0 * DIM + 0) * DIM + 1) * DIM + 0      # v1 v1 v2 v1
    assert column(capped, col) == {0: q(-3, -1)}


def test_cap_is_annihilated_by_the_coproduct_action():
    _, _, d = duality_maps()
    for name in ("E", "F", "H"):
        for i in (1, 2, 3):
            assert compose(d, coproduct_action(name, i)).is_zero()


def test_lowering_root_vectors_twist_against_cartan():
    # K_beta F_beta = q^{-c} F_beta K_beta, mirroring the raising identity
    for i, root in enumerate(ROOTS, 1):
        f_i = root_vector(i, "lower")
        k_beta = cartan_exponential(root)
        assert compose(k_beta, f_i) == compose(f_i, k_beta).scale(
            RatFunc.q_power(-bracket_step(root)))


def test_every_basis_vector_generates_the_module():
    for start in range(DIM):
        assert simple_orbit_spans(start)
