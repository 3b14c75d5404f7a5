
import pytest

from d21link import rmatrix, verify
from d21link.cli import main
from d21link.representation import (DIM, M, M2, duality_maps, generator_action,
                                    root_vector)
from d21link.ring import (LAMBDA, ONE, Q, QINV, QuarterLaurent, q_string,
                          to_integer_laurent)
from d21link.rmatrix import (EVEN_PAIRS, ODD_PAIRS, REFERENCE_C0,
                             REFERENCE_C1, TableError, braiding, cartan_factor,
                             compare_reference, exp_factor, r_matrix,
                             spectral_check, split_blocks,
                             twist_inverse_square)
from d21link.superlinalg import (SuperMap, compose, embed_at, invert,
                                 rank_over_fractions)
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


@pytest.mark.parametrize("kind", ["raise", "lower"])
def test_exp_factor_needs_root_vectors_that_square_to_0(kind, monkeypatch):
    # H_1 is diagonal with entries +-1, so its square is not 0 and the
    # exponential of H_1 (x) F_7 / phi_7 (or E_7 (x) H_1 / phi_7) has
    # terms past the linear one
    h1 = generator_action("H", 1)
    monkeypatch.setattr(rmatrix, "root_vector", lambda i, k: h1 if k == kind
                        else root_vector(i, k))
    exp_factor.cache_clear()
    try:
        with pytest.raises(TableError,
                           match="^root vector 7 does not square to 0 on M"):
            exp_factor(7)
    finally:
        exp_factor.cache_clear()


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
    # the inverse built factor by factor is the elimination's, entry for entry
    assert bundle.c_inv.entries == invert(bundle.c).entries
    for value in list(bundle.c.entries.values()) + list(bundle.c_inv.entries.values()):
        to_integer_laurent(value)


def test_r_matrix_is_the_product_of_its_factors():
    # the plain 36 x 36 products, factor by factor, as the formula reads
    product = cartan_factor()
    for i in range(7, 0, -1):
        product = compose(exp_factor(i), product)
    assert r_matrix() == product


def test_braiding_preserves_parity_blocks():
    c = braiding().c
    even_flat = {flat(i, j) for i, j in EVEN_PAIRS}
    for (row, col) in c.entries:
        assert (row in even_flat) == (col in even_flat)


def test_twist_value():
    # the twist is q^-1, read off c: its inverse square is q^2 id, and the
    # curl, a kink closed off the braiding, is -q^-1 id
    c = braiding().c
    _, b, d = duality_maps()
    ident = SuperMap.identity(M)
    assert twist_inverse_square(c) == ident.scale(Q * Q)
    curl = compose(compose(embed_at(d, 1, 0, M), embed_at(c, 0, 1, M)),
                   embed_at(b, 1, 0, M))
    assert curl == ident.scale(-QINV)


def test_spectral_report():
    report = spectral_check()
    assert report.ok, [c.check_id for c in report.checks if not c.passed]
    c = braiding().c
    ident = SuperMap.identity(M2)
    assert rank_over_fractions(c - ident.scale(Q)) == 19
    assert rank_over_fractions(c + ident.scale(Q)) == 35
    assert rank_over_fractions(c + ident.scale(QINV)) == 18


def test_annihilating_cubic_vanishes():
    c = braiding().c
    ident = SuperMap.identity(M2)
    product = compose(compose(c - ident.scale(Q), c + ident.scale(Q)),
                      c + ident.scale(QINV))
    assert product.is_zero()


def test_reference_blocks_shape_and_anchors():
    even, odd = REFERENCE_C0, REFERENCE_C1
    assert len(even) == 20 and all(len(row) == 20 for row in even)
    assert len(odd) == 16 and all(len(row) == 16 for row in odd)
    assert even[0][0] == "q"
    # v3 (x) v3 diagonal inside the second group of the even basis
    idx_33 = EVEN_PAIRS.index((3, 3))
    assert even[idx_33][idx_33] == "-q^-1"
    # column of v3 (x) v1 in the odd block: entries 1 and lambda
    col_31 = ODD_PAIRS.index((3, 1))
    row_13 = ODD_PAIRS.index((1, 3))
    assert odd[row_13][col_31] == "1"
    assert odd[col_31][col_31] == q_string(LAMBDA) == "-q^-1 + q"
    # lambda at row v4 (x) v5, column v2 (x) v1
    assert even[EVEN_PAIRS.index((4, 5))][EVEN_PAIRS.index((2, 1))] == \
        "-q^-1 + q"


def test_computed_braiding_matches_reference_everywhere():
    total, mismatches = compare_reference()
    assert total == 656
    assert mismatches == []


def perturbed_reference(monkeypatch, cells):
    """REFERENCE_C0 replaced by a copy with ``{(row, col): text}`` set."""
    table = [list(row) for row in REFERENCE_C0]
    for (row, col), text in cells.items():
        table[row][col] = text
    monkeypatch.setattr(rmatrix, "REFERENCE_C0", table)


def test_a_perturbed_reference_entry_fails_verify_in_its_detail(
        monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    perturbed_reference(monkeypatch, {(0, 0): "-q"})
    assert compare_reference() == (656, [{
        "block": "c0", "row": "v1(x)v1", "col": "v1(x)v1",
        "expected": "-q", "computed": "q"}])
    assert main(["verify", "--suite", "rmatrix"]) == 1
    assert ("[FAIL] rmatrix:braiding-regression  655/656 entries match; "
            "c0 row v1(x)v1 col v1(x)v1: expected -q, computed q\n"
            in capsys.readouterr().out)
    assert list(tmp_path.iterdir()) == []


def test_the_regression_detail_shows_six_mismatches_and_counts_the_rest(
        monkeypatch):
    perturbed_reference(monkeypatch, {(0, col): "7" for col in range(1, 9)})
    (check,) = [c for c in verify.rmatrix_suite().checks
                if c.check_id == "braiding-regression"]
    assert not check.passed
    shown = "; ".join(f"c0 row v1(x)v1 col {rmatrix.pair_label(pair)}: "
                      "expected 7, computed 0" for pair in EVEN_PAIRS[1:7])
    assert check.detail == f"648/656 entries match; {shown} (+2 more)"


def test_split_blocks_exhaust_the_braiding():
    c = braiding().c
    even, odd = split_blocks(c)
    nonzero = sum(1 for row in even for v in row if v != "0")
    nonzero += sum(1 for row in odd for v in row if v != "0")
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
