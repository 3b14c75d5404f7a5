"""Diagram input: braid words and sliced diagrams, read for both pipelines.

A link enters either as a braid word (``n: k1 k2 ...``, letter k > 0 a
positive crossing of strands k, k+1), closed up by its trace closure, or
directly as a slice list.  A sliced diagram is a bottom-to-top sequence of
events, each acting at a 1-based strand position:

* ``cup p``  - insert a paired arc so its left strand becomes strand p,
* ``cap p``  - join strands p and p+1,
* ``pos p`` / ``neg p`` - braiding / inverse braiding on strands p, p+1.

The braiding side (:mod:`d21link.tangle`) and the skein oracle
(:mod:`d21link.dubrovnik`) both read their input here, and neither imports
the other; this module imports only :mod:`d21link.ring`, for
:func:`~d21link.ring.excerpt`, and the standard library.  An evaluation on
either side that would pass its budget raises :class:`BudgetExceeded`.
"""

from __future__ import annotations

from operator import itemgetter

from .ring import excerpt

EVENT_KINDS = ("cup", "cap", "pos", "neg")
SLICED_MAX_CHARS = 2 ** 20      # most characters a --sliced file may hold


class DiagramError(ValueError):
    """Malformed braid text or sliced diagram, or one past a budget."""


class BudgetExceeded(DiagramError):
    """An evaluation would hold more than its budget allows."""


class BraidWord(tuple):
    """``(strands, letters)``: a braid on ``strands`` strands, each letter
    k a crossing of strands |k| and |k| + 1, positive for k > 0."""
    __slots__ = ()
    strands = property(itemgetter(0))       # int
    letters = property(itemgetter(1))       # tuple[int, ...]

    def __new__(cls, strands: int, letters: tuple[int, ...]):
        if strands < 1:
            raise DiagramError("braid needs at least one strand")
        for letter in letters:
            if letter == 0 or abs(letter) >= strands:
                raise DiagramError(f"braid letter {excerpt(letter)} out of "
                                   f"range for {excerpt(strands)} strands")
        return tuple.__new__(cls, (strands, letters))

    def mirror(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-k for k in self.letters))

    def __str__(self):
        return f"{self.strands}: {' '.join(str(k) for k in self.letters)}".rstrip()


def _check_ascii_integers(text: str) -> None:
    """``ValueError`` unless ``text`` is ASCII without ``+`` or ``_``: what
    ``int`` then reads is an optional ``-`` and ASCII digits."""
    if not text.isascii() or "+" in text or "_" in text:
        raise ValueError(f"not ASCII integers: {text!r}")


def ascii_integer(text: str) -> int:
    """The one blank-separated token of ``text``, read as an optional ``-``
    and ASCII digits; anything else raises ``ValueError``, as does a number
    past Python's int-string digit limit."""
    _check_ascii_integers(text)
    # split(), not int() alone: int() keeps the blanks \x1c-\x1f
    (token,) = text.split()
    return int(token)


def parse_braid(text: str) -> BraidWord:
    """Parse ``<n>: <letters>``, e.g. ``2: 1 1 1`` or ``1:``, n unsigned."""
    head, colon, tail = text.partition(":")
    try:
        if not colon or "-" in head:
            raise ValueError(text)
        _check_ascii_integers(text)
        # strip() drops the blanks that split() cuts at, so int() reads the
        # head as one split() token, and refuses none or two
        strands, letters = int(head.strip()), tuple(map(int, tail.split()))
    except ValueError:
        raise DiagramError(f"malformed braid text {excerpt(text)}") from None
    return BraidWord(strands, letters)


class SlicedEvent(tuple):
    """``(kind, position)``: one event of a sliced diagram."""
    __slots__ = ()
    kind = property(itemgetter(0))          # str, one of EVENT_KINDS
    position = property(itemgetter(1))      # int, 1-based

    def __new__(cls, kind: str, position: int):
        return tuple.__new__(cls, (kind, position))


class SlicedDiagram(tuple):
    """``(events,)``: a closed sliced diagram, its events bottom to top."""
    __slots__ = ()
    events = property(itemgetter(0))        # tuple[SlicedEvent, ...]

    def __new__(cls, events: tuple[SlicedEvent, ...]):
        strands = 0
        for event in events:
            strands = _next_strand_count(event, strands)
        if strands != 0:
            raise DiagramError(f"diagram is not closed ({strands} strands left open)")
        return tuple.__new__(cls, (events,))

    @property
    def slices(self) -> int:
        return len(self.events)

    def peak_strands(self) -> int:
        strands = peak = 0
        for event in self.events:
            strands = _next_strand_count(event, strands)
            peak = max(peak, strands)
        return peak


def _next_strand_count(event: SlicedEvent, strands: int) -> int:
    kind, p = event.kind, event.position
    if kind not in EVENT_KINDS:
        raise DiagramError(f"unknown event kind {kind!r}")
    if not 1 <= p <= (strands + 1 if kind == "cup" else strands - 1):
        what = kind if kind in ("cup", "cap") else "crossing"
        raise DiagramError(f"{what} at {excerpt(p)} with {strands} strands")
    if kind == "cup":
        return strands + 2
    return strands - 2 if kind == "cap" else strands


def parse_sliced_text(text: str) -> SlicedDiagram:
    """One ``kind position`` per line; blank lines and ``#`` comments skipped."""
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in EVENT_KINDS:
            raise DiagramError(
                f"line {lineno}: expected 'kind position', got {excerpt(raw)}")
        try:
            position = ascii_integer(parts[1])
        except ValueError:
            raise DiagramError(
                f"line {lineno}: bad position {excerpt(parts[1])}") from None
        events.append(SlicedEvent(parts[0], position))
    return SlicedDiagram(tuple(events))


def read_sliced(path: str) -> SlicedDiagram:
    """The sliced diagram in the UTF-8 file at ``path``; a file longer than
    :data:`SLICED_MAX_CHARS` is refused, read one character past it."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        text = handle.read(SLICED_MAX_CHARS + 1)
    if len(text) > SLICED_MAX_CHARS:
        raise DiagramError(f"sliced file {excerpt(path)} is longer than "
                           f"{SLICED_MAX_CHARS} characters")
    return parse_sliced_text(text)
