from d21link import verify
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
