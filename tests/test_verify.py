from d21link import verify
from d21link.representation import M2
from d21link.ring import Q, Laurent
from d21link.rmatrix import r_matrix
from d21link.superlinalg import SuperMap
from d21link.tangle import cohomology_trace


def test_skein_suite_traces_each_presentation_as_written(monkeypatch):
    # reduced first, the hopf and trefoil groups would each be one braid
    traced = []

    def recording(word):
        traced.append(str(word))
        return cohomology_trace(word)
    monkeypatch.setattr(verify, "cohomology_trace", recording)
    report = verify.skein_suite()
    assert report.ok
    assert traced == [text for texts in verify.PRESENTATIONS.values()
                      for text in texts]


def test_classical_limit_needs_every_diagonal_entry():
    # an entry left out is 0: off the diagonal that is the identity's, on
    # it it is not
    ident = SuperMap.identity(M2)
    assert verify._is_identity_at_one(ident)
    assert verify._is_identity_at_one(r_matrix())
    entries = dict(ident.entries)
    del entries[(7, 7)]
    assert not verify._is_identity_at_one(SuperMap(M2, M2, entries))
    entries[(7, 7)] = Q + Q - Laurent.q_power(-1)    # sums to 1
    entries[(0, 7)] = Q - Laurent.q_power(-1)        # sums to 0
    assert verify._is_identity_at_one(SuperMap(M2, M2, entries))
    entries[(0, 7)] = Q                                     # sums to 1
    assert not verify._is_identity_at_one(SuperMap(M2, M2, entries))


def test_the_regression_detail_cuts_seven_mismatches_at_six(monkeypatch):
    # one mismatch past the six shown is counted, not shown
    mismatches = [{"block": "c1", "row": f"r{k}", "col": f"c{k}",
                   "expected": str(k), "computed": "0"} for k in range(7)]
    monkeypatch.setattr(verify, "compare_reference",
                        lambda: (656, mismatches))
    (check,) = [c for c in verify.rmatrix_suite().checks
                if c.check_id == "braiding-regression"]
    shown = "; ".join(f"c1 row r{k} col c{k}: expected {k}, computed 0"
                      for k in range(6))
    assert not check.passed
    assert check.detail == f"649/656 entries match; {shown} (+1 more)"
