"""The package's records are tuple subclasses with one property per field,
not named tuples: each builds from positional or keyword arguments with its
defaults, reads its fields by name, equals, hashes and unpacks as the plain
tuple of its fields, and keeps its refusals."""

import pytest

from d21link.report import CheckResult
from d21link.representation import CARTAN, CartanData
from d21link.rmatrix import BraidingBundle, braiding
from d21link.diagram import (BraidWord, DiagramError, SlicedDiagram,
                             SlicedEvent)
from d21link.tangle import EvalResult

CLOSED = (SlicedEvent("cup", 1), SlicedEvent("pos", 1), SlicedEvent("cap", 1))
RECORDS = {
    BraidWord: {"strands": 3, "letters": (1, -2)},
    SlicedEvent: {"kind": "cup", "position": 1},
    SlicedDiagram: {"events": CLOSED},
    EvalResult: {"value": ((-1, 2),), "slices": 6, "peak_strands": 4,
                 "peak_support": 8, "braid": BraidWord(2, (1, 1))},
    CheckResult: {"check_id": "zig-zag", "passed": False, "detail": "got 2"},
    CartanData: {"a": CARTAN.a, "d": CARTAN.d, "b4": CARTAN.b4},
    BraidingBundle: dict(zip(("c", "c_inv"), braiding())),
}


def hashed(value):
    """``hash(value)``, or the message of the ``TypeError`` it raises (a
    bundle of maps is unhashable, as a tuple of them is)."""
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_the_tuple_of_its_fields(cls):
    fields = RECORDS[cls]
    plain = tuple(fields.values())
    record = cls(*plain)
    assert type(record) is cls and isinstance(record, tuple)
    assert cls(**fields) == record == plain
    assert hashed(record) == hashed(plain)
    assert tuple(getattr(record, name) for name in fields) == plain
    assert [*record] == list(plain) and len(record) == len(fields)
    assert cls(*record) == record
    assert not hasattr(record, "__dict__")      # __slots__ = ()
    with pytest.raises(TypeError):
        cls(*plain, None)
    with pytest.raises(AttributeError):
        setattr(record, next(iter(fields)), None)


def test_record_defaults_and_unpacking():
    assert EvalResult(((0, 1),), 0, 0, 1).braid is None
    assert EvalResult(((0, 1),), 0, 0, 1) == (((0, 1),), 0, 0, 1, None)
    assert CheckResult("memo-soundness", True).detail == ""
    assert CheckResult("memo-soundness", True) == ("memo-soundness", True, "")
    assert CartanData(*CARTAN) == CARTAN
    a, d, b4 = CARTAN
    assert CartanData(a=a, d=d, b4=b4) == CARTAN
    c, c_inv = braiding()
    assert c != c_inv
    assert (c, c_inv) == (braiding().c, braiding().c_inv)


def test_records_keep_their_refusals():
    for strands, letters, message in (
            (0, (), "braid needs at least one strand"),
            (2, (2,), "braid letter 2 out of range for 2 strands"),
            (3, (1, 0), "braid letter 0 out of range for 3 strands")):
        with pytest.raises(DiagramError, match=f"^{message}$"):
            BraidWord(strands, letters)
    for events, message in (
            (CLOSED[:2], r"diagram is not closed \(2 strands left open\)"),
            ((SlicedEvent("cap", 1),), "cap at 1 with 0 strands"),
            ((SlicedEvent("cup", 2),), "cup at 2 with 0 strands"),
            (CLOSED[:1] + (SlicedEvent("neg", 2),),
             "crossing at 2 with 2 strands"),
            (CLOSED[:1] + (SlicedEvent("pos", 0),),
             "crossing at 0 with 2 strands"),
            ((SlicedEvent("twist", 1),), "unknown event kind 'twist'")):
        with pytest.raises(DiagramError, match=f"^{message}$"):
            SlicedDiagram(events)
    a, d, b4 = CARTAN
    with pytest.raises(ValueError, match="^symmetrized Cartan matrix not "
                                         "symmetric$"):
        CartanData(a, (1, 1, 1), b4)
    with pytest.raises(ValueError, match=r"^b4 / 4 is not inverse to "
                                         r"\(-a_ij/d_j\)$"):
        CartanData(a=a, d=d, b4=tuple(tuple(-x for x in row) for row in b4))
