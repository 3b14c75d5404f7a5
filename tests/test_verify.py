from d21link import verify
from d21link.tangle import trace


def test_skein_suite_traces_each_presentation_as_written(monkeypatch):
    # reduced first, the hopf and trefoil groups would each be one braid
    traced = []

    def recording(word, *budgets):
        traced.append(str(word))
        return trace(word, *budgets)
    monkeypatch.setattr(verify, "trace", recording)
    report = verify.skein_suite()
    assert report.ok
    assert traced == [text for texts in verify.PRESENTATIONS.values()
                      for text in texts]
