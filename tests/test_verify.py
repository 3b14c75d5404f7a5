from d21link import verify
from d21link.representation import M2
from d21link.ring import Q, QuarterLaurent
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
    entries[(7, 7)] = Q + Q - QuarterLaurent.q_power(-1)    # sums to 1
    entries[(0, 7)] = Q - QuarterLaurent.q_power(-1)        # sums to 0
    assert verify._is_identity_at_one(SuperMap(M2, M2, entries))
    entries[(0, 7)] = Q                                     # sums to 1
    assert not verify._is_identity_at_one(SuperMap(M2, M2, entries))
