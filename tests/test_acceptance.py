"""Acceptance suite: one test per exit criterion, each timed against its
stated bound and printing a single pass/fail line."""

import json
import time

from d21link.cli import main
from d21link.dubrovnik import braid_closure_graph, dubrovnik_poly, specialize
from d21link.representation import M, M2, check_defining_relations, \
    coproduct_action, duality_maps
from d21link.ring import (LAMBDA, QINV, QuarterLaurent, format_q_laurent,
                          q_string)
from d21link.rmatrix import (EVEN_PAIRS, ODD_PAIRS, REFERENCE_C0, REFERENCE_C1,
                             braiding, compare_reference, r_matrix,
                             spectral_check, split_blocks)
from d21link.superlinalg import SuperMap, compose, embed_at
from d21link.tangle import invariant, parse_braid
from d21link.verify import CORPUS
from helpers import reference_trace


def _conclude(number, name, ok, elapsed, bound):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} "
          f"({elapsed:.2f}s, bound {bound:.0f}s)", flush=True)
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < bound, f"criterion {number} exceeded {bound}s ({elapsed:.2f}s)"


def test_criterion_1_relation_suite():
    start = time.monotonic()
    report = check_defining_relations()
    elapsed = time.monotonic() - start
    failures = [c.check_id for c in report.checks if not c.passed]
    _conclude(1, "relation suite", report.ok and not failures, elapsed, 5.0)


def test_criterion_2_braiding_regression():
    start = time.monotonic()
    total, mismatches = compare_reference()
    elapsed = time.monotonic() - start
    matched = total - len(mismatches)
    for m in mismatches:
        print(f"[acceptance] {m['block']} {m['row']} {m['col']} "
              f"expected={m['expected']} computed={m['computed']}")
    lam = q_string(LAMBDA)
    anchors = []
    for even, odd in ((REFERENCE_C0, REFERENCE_C1), split_blocks(braiding().c)):
        anchors.append((
            even[0][0],
            even[EVEN_PAIRS.index((3, 3))][EVEN_PAIRS.index((3, 3))],
            odd[ODD_PAIRS.index((1, 3))][ODD_PAIRS.index((3, 1))],
            odd[ODD_PAIRS.index((3, 1))][ODD_PAIRS.index((3, 1))],
            even[EVEN_PAIRS.index((4, 5))][EVEN_PAIRS.index((2, 1))]))
    expected_anchors = ("q", "-q^-1", "1", "-q^-1 + q", "-q^-1 + q")
    ok = (total == 656 and matched == total and lam == "-q^-1 + q"
          and anchors == [expected_anchors, expected_anchors])
    print(f"[acceptance] braiding regression: {matched}/{total} entries match")
    _conclude(2, "braiding regression", ok, elapsed, 60.0)


def test_criterion_3_spectral_claims():
    start = time.monotonic()
    report = spectral_check()
    elapsed = time.monotonic() - start
    _conclude(3, "spectral claims", report.ok, elapsed, 120.0)


def test_criterion_4_yang_baxter():
    start = time.monotonic()
    c = braiding().c
    c01 = embed_at(c, 0, 1, M)
    c12 = embed_at(c, 1, 0, M)
    ok = compose(compose(c01, c12), c01) == compose(compose(c12, c01), c12)
    elapsed = time.monotonic() - start
    _conclude(4, "graded Yang-Baxter on the 216-dimensional cube", ok,
              elapsed, 600.0)


def test_criterion_5_category_identities():
    start = time.monotonic()
    bundle = braiding()
    c, c_inv = bundle.c, bundle.c_inv
    _, b, d = duality_maps()
    ident_m = SuperMap.identity(M)
    ident_m2 = SuperMap.identity(M2)
    ok = (c - c_inv) == (ident_m2 - compose(b, d)).scale(LAMBDA)
    ok = ok and compose(d, b).entry(0, 0) == QuarterLaurent.constant(2)
    curl = compose(compose(embed_at(d, 1, 0, M), embed_at(c, 0, 1, M)),
                   embed_at(b, 1, 0, M))
    ok = ok and curl == ident_m.scale(-QINV)
    ok = ok and compose(embed_at(d, 1, 0, M), embed_at(b, 0, 1, M)) == ident_m
    ok = ok and compose(embed_at(d, 0, 1, M), embed_at(b, 1, 0, M)) == ident_m
    twist_sq_inv = compose(embed_at(compose(d, c), 0, 1, M),
                           embed_at(compose(c, b), 1, 0, M))
    ok = ok and twist_sq_inv == ident_m.scale(QuarterLaurent.q_power(2))
    for name in ("E", "F", "H"):
        for i in (1, 2, 3):
            delta = coproduct_action(name, i)
            flipped = coproduct_action(name, i, flipped=True)
            ok = ok and compose(c, delta) == compose(delta, c)
            ok = ok and compose(r_matrix(), delta) == compose(flipped, r_matrix())
    elapsed = time.monotonic() - start
    _conclude(5, "ribbon category identities", ok, elapsed, 60.0)


def test_criterion_6_skein_cross_validation():
    start = time.monotonic()
    ok = True
    for text in CORPUS:
        word = parse_braid(text)
        tangle_value = invariant(word).value_dict()
        skein_value = specialize(dubrovnik_poly(braid_closure_graph(word)))
        ok = ok and tangle_value == {e: 2 * c for e, c in skein_value.items()}
    elapsed = time.monotonic() - start
    _conclude(6, f"two-pipeline match on {len(CORPUS)} diagrams", ok,
              elapsed, 120.0)


def test_criterion_7_presentation_independence():
    start = time.monotonic()
    hopf = ("2: 1 1", "2: 1 1 -1 1", "2: -1 1 1 1", "2: 1 1 1 -1")
    trefoil = ("2: 1 1 1", "2: 1 -1 1 1 1", "2: 1 1 1 1 -1", "2: -1 1 1 1 1")
    ok = True
    for group in (hopf, trefoil):
        # traced as written, and cyclically reduced first
        values = {format_q_laurent(value) for t in group
                  for value in (reference_trace(parse_braid(t)),
                                invariant(parse_braid(t)).value_dict())}
        ok = ok and len(values) == 1
    elapsed = time.monotonic() - start
    _conclude(7, "presentation independence (>=3 each)", ok, elapsed, 60.0)


def test_criterion_8_cli_determinism(capsys):
    start = time.monotonic()
    outputs = set()
    for _ in range(2):
        code = main(["braiding", "--format", "json", "--split"])
        outputs.add(capsys.readouterr().out)
        assert code == 0
    ok = len(outputs) == 1
    for _ in range(2):
        code = main(["invariant", "--braid", "2: 1 1 1", "--json"])
        out = capsys.readouterr().out
        ok = ok and json.loads(out)["value"] == "-2*q^-3"
        assert code == 0
    code = main(["verify", "--suite", "all"])
    verify_out = capsys.readouterr().out
    ok = ok and code == 0 and verify_out.strip().endswith("overall: PASS")
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _conclude(8, "deterministic CLI and verify --suite all", ok,
                  elapsed, 300.0)
