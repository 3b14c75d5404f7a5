
import pytest

from d21link.representation import DIM, M, M2
from d21link.ring import (LAMBDA, ONE, QuarterLaurent, RatFunc, q_string,
                          to_integer_laurent)
from d21link.rmatrix import (EVEN_PAIRS, ODD_PAIRS, REFERENCE_C0,
                             REFERENCE_C1, braiding, cartan_factor,
                             compare_reference, exp_factor, r_matrix,
                             reference_blocks, spectral_check, split_blocks,
                             _parse_reference_entry)
from d21link.superlinalg import SuperMap, compose, embed_at, rank_over_fractions
from helpers import column


def flat(i, j):
    return (i - 1) * DIM + (j - 1)


def q(k, coeff=1):
    return QuarterLaurent.q_power(k, coeff)


def test_cartan_factor_examples():
    k = cartan_factor()
    assert k.entry(flat(1, 1), flat(1, 1)) == q(1)
    assert k.entry(flat(3, 3), flat(3, 3)) == q(-1)
    assert k.entry(flat(1, 3), flat(1, 3)) == ONE
    # diagonal with quarter-power entries elsewhere
    v23 = k.entry(flat(2, 3), flat(2, 3))
    assert type(v23) is QuarterLaurent


def test_exp_factor_five():
    op = exp_factor(5)
    # on v3 (x) v1 the factor adds + (q - q^{-1}) v1 (x) v3
    assert op.entry(flat(3, 1), flat(3, 1)) == ONE
    assert op.entry(flat(1, 3), flat(3, 1)) == LAMBDA
    assert op.parity == 0


def test_exp_factors_fix_first_slot_v1():
    for i in range(1, 8):
        op = exp_factor(i)
        for w in range(1, 7):
            entries = column(op, flat(1, w))
            assert entries == {flat(1, w): ONE}


def test_r_matrix_diagonal_examples():
    r = r_matrix()
    assert column(r, flat(1, 1)) == {flat(1, 1): q(1)}
    assert column(r, flat(2, 2)) == {flat(2, 2): q(1)}


def test_r_matrix_classical_limit_is_identity():
    r = r_matrix()
    for row in range(36):
        for col in range(36):
            assert sum(r.entry(row, col).terms.values()) == int(row == col)


def test_braiding_entries_match_module_computations():
    c = braiding().c
    assert column(c, flat(1, 1)) == {flat(1, 1): q(1)}
    assert column(c, flat(3, 1)) == {flat(1, 3): ONE, flat(3, 1): LAMBDA}
    assert column(c, flat(3, 3)) == {flat(3, 3): q(-1, -1)}


def test_braiding_inverse_and_integrality():
    bundle = braiding()
    assert compose(bundle.c, bundle.c_inv) == SuperMap.identity(M2)
    assert compose(bundle.c_inv, bundle.c) == SuperMap.identity(M2)
    for value in list(bundle.c.entries.values()) + list(bundle.c_inv.entries.values()):
        to_integer_laurent(value)


def test_braiding_preserves_parity_blocks():
    c = braiding().c
    even_flat = {flat(i, j) for i, j in EVEN_PAIRS}
    for (row, col) in c.entries:
        assert (row in even_flat) == (col in even_flat)


def test_twist_value():
    theta = braiding().theta
    assert theta == q(-1)
    assert sum(theta.terms.values()) == 1


def test_spectral_report():
    report = spectral_check()
    assert report.ok, [c.check_id for c in report.checks if not c.passed]
    c = braiding().c
    ident = SuperMap.identity(M2)
    rq = RatFunc.q_power
    assert rank_over_fractions(c - ident.scale(rq(1))) == 19
    assert rank_over_fractions(c + ident.scale(rq(1))) == 35
    assert rank_over_fractions(c + ident.scale(rq(-1))) == 18


def test_annihilating_cubic_vanishes():
    c = braiding().c
    ident = SuperMap.identity(M2)
    rq = RatFunc.q_power
    product = compose(compose(c - ident.scale(rq(1)), c + ident.scale(rq(1))),
                      c + ident.scale(rq(-1)))
    assert product.is_zero()


def test_reference_blocks_shape_and_anchors():
    even, odd = reference_blocks()
    assert len(even) == 20 and all(len(row) == 20 for row in even)
    assert len(odd) == 16 and all(len(row) == 16 for row in odd)
    assert even[0][0] == q(1)
    # v3 (x) v3 diagonal inside the second group of the even basis
    idx_33 = EVEN_PAIRS.index((3, 3))
    assert even[idx_33][idx_33] == q(-1, -1)
    # column of v3 (x) v1 in the odd block: entries 1 and lambda
    col_31 = ODD_PAIRS.index((3, 1))
    row_13 = ODD_PAIRS.index((1, 3))
    assert odd[row_13][col_31] == ONE
    assert odd[col_31][col_31] == LAMBDA
    # lambda at row v4 (x) v5, column v2 (x) v1
    assert even[EVEN_PAIRS.index((4, 5))][EVEN_PAIRS.index((2, 1))] == LAMBDA


def test_reference_entry_parser_forms():
    l = LAMBDA
    qinv = q(-1)
    expected = {
        "0": QuarterLaurent.constant(0), "1": ONE, "-1": q(0, -1),
        "q": q(1), "-q": q(1, -1), "l": l, "1/q": qinv, "-1/q": q(-1, -1),
        "-l/q": -l * qinv, "q*l": q(1) * l, "-q*l": -(q(1) * l),
        "q**3*l": q(3) * l, "-q**2*l": -(q(2) * l),
        "-q*l**2": -(q(1) * l * l), "q**3-1/q": q(3) - qinv,
    }
    for text, value in expected.items():
        assert _parse_reference_entry(text) == value, text
    used = {entry for block in (REFERENCE_C0, REFERENCE_C1)
            for row in block for entry in row}
    assert used == set(expected)
    for bad in ("__import__('os')", "", "q**", "1/l", "q+", "x", "q--q"):
        with pytest.raises(ValueError):
            _parse_reference_entry(bad)


def test_computed_braiding_matches_reference_everywhere():
    total, mismatches = compare_reference()
    assert total == 656
    assert mismatches == []


def test_split_blocks_exhaust_the_braiding():
    c = braiding().c
    even, odd = split_blocks(c)
    nonzero = sum(1 for row in even for v in row if not v.is_zero())
    nonzero += sum(1 for row in odd for v in row if not v.is_zero())
    assert nonzero == len(c.entries)


def test_yang_baxter_on_the_tensor_cube():
    c = braiding().c
    c01 = embed_at(c, 0, 1, M)
    c12 = embed_at(c, 1, 0, M)
    assert compose(compose(c01, c12), c01) == compose(compose(c12, c01), c12)


def test_braiding_canonical_strings():
    c = braiding().c
    assert q_string(c.entry(flat(1, 1), flat(1, 1))) == "q"
    assert q_string(c.entry(flat(2, 1), flat(2, 1))) == "-q^-1 + q^3"
