"""Six-field event encoding of quantized tracks.

An event is (type, beat, position, pitch, duration, instrument). Types:

    0 piece start          1 instrument declaration
    2 start of notes       3 note
    4 piece end

Structural events (0, 2, 4) carry zeros in every other field; instrument
events carry only the instrument field. One encoded sequence is: start,
the distinct programs in ascending order, start-of-notes, the notes in
canonical order, end.

A sequence stores its events as one read-only (n, 6) int64 array, one row
per event. Encoding, text reading and writing, and validation work on whole
arrays; ``Event`` is the type of a single row where code handles one event
at a time.

Canonical note order is the order of one int64 key per note, its five
fields packed by the weights of the grid's ``layout``; encoding sorts by
the key, and not at all when the notes are in order already. The note
bounds come from the layout too: each field is below its size, a duration
at least 1, and a refusal names the first field outside. Validation
decides first, from one such key per event and a few whole-array checks
on them. Only a sequence that fails goes on to the naming pass, which
checks the parts of the encoding one after another and names the first
bad event.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .grid import GridSpec, layout
from .midi import _ByValue, _read_lines, as_rows, as_track, sort_notes

TYPE_START = 0
TYPE_INSTRUMENT = 1
TYPE_NOTES_BEGIN = 2
TYPE_NOTE = 3
TYPE_END = 4

N_FIELDS = 6
FIELD_NAMES = ("type", "beat", "position", "pitch", "duration", "instrument")

_ROW_FORMAT = " ".join(["%d"] * N_FIELDS) + "\n"


class Event(NamedTuple):
    type: int
    beat: int
    position: int
    pitch: int
    duration: int
    instrument: int


class SequenceStructureError(ValueError):
    """Sequence violates the encoding invariants. Carries the event index."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(f"event {index}: {message}")
        self.index = index


@dataclass(frozen=True, slots=True, eq=False)
class EventSequence(_ByValue):
    """Events as a read-only (n, 6) int64 array, and the grid they live on.

    Events go through ``as_rows`` once, here: any (n, 6) array-like of
    integers is accepted; anything else, such as a float or an integer
    beyond int64, raises ValueError.
    """

    events: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", as_rows(self.events, N_FIELDS, "event"))

    def __len__(self) -> int:
        return len(self.events)

    def _key(self) -> tuple:
        return self.events.tobytes(), self.grid

    @property
    def note_count(self) -> int:
        return int(np.count_nonzero(self.events[:, 0] == TYPE_NOTE))


# Each note field's name and lowest value; its size comes from the layout.
_NOTE_FIELDS = (("beat", 0), ("position", 0), ("pitch", 0), ("duration", 1), ("program", 0))
_NOTE_LOW = np.array([low for _, low in _NOTE_FIELDS])


def _outside(notes: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Which fields of an (n, 5) note array, or of one note, are off the grid."""
    # Less its lowest value and read as uint64, a field is in range exactly
    # when it is below its size less that value: one compare for both ends.
    limits = (layout(grid).sizes[1:] - _NOTE_LOW).view(np.uint64)
    return (notes - _NOTE_LOW).view(np.uint64) >= limits


def _off_grid(note: np.ndarray, grid: GridSpec) -> str:
    """What is wrong with an off-grid note: its first field outside the grid."""
    f = int(_outside(note, grid).argmax())
    (name, low), size = _NOTE_FIELDS[f], int(layout(grid).sizes[1 + f])
    # Duration's range, from 1, is written with its last value, max_duration.
    bound = f"{size - 1}]" if low else f"{size})"
    return f"{name} {note[f]} outside [{low}, {bound}"


def encode(
    tracks: Sequence,
    grid: GridSpec,
    *,
    split_shared_programs: bool = False,
) -> EventSequence:
    """Encode one track, or the merge of two, as an event sequence.

    With ``split_shared_programs`` a program used by both tracks keeps its
    id in the first track and becomes (program + 1) mod 128 in the second,
    so the voices stay distinguishable at the cost of merge symmetry.
    Tracks are any (n, 5) array-likes of integers (see ``midi.as_track``);
    anything else raises ValueError, as does a field outside the grid.
    """
    if not 1 <= len(tracks) <= 2:
        raise ValueError(f"expected 1 or 2 tracks, got {len(tracks)}")
    parts = [as_track(t) for t in tracks]
    notes = np.concatenate(parts)  # a copy, so the split may change it
    if split_shared_programs and len(parts) == 2:
        programs = notes[len(parts[0]) :, 4]
        shared = np.isin(programs, parts[0][:, 4])
        # int64 wraps by 2**64, a multiple of 128, so this is Python's result.
        programs[shared] = (programs[shared] + 1) % 128
    if not len(notes):
        raise ValueError("cannot encode an empty note list")
    if _outside(notes, grid).any():
        # A note off the grid has no key that orders it: sort the rows
        # themselves, and name the first bad note in that order.
        notes = sort_notes(notes)
        first = _outside(notes, grid).any(axis=1).argmax()
        raise ValueError(_off_grid(notes[first], grid))
    keys = notes @ layout(grid).weights[1:]
    if (keys[1:] < keys[:-1]).any():
        # Equal keys are equal notes, so any order of them is canonical;
        # the stable sort merges the runs of two ordered tracks fastest.
        notes = notes[keys.argsort(kind="stable")]

    programs = np.flatnonzero(np.bincount(notes[:, 4], minlength=128))
    p = len(programs)
    events = np.zeros((len(notes) + p + 3, N_FIELDS), dtype=np.int64)
    events[1 : p + 1, 0] = TYPE_INSTRUMENT
    events[1 : p + 1, 5] = programs
    events[p + 1, 0] = TYPE_NOTES_BEGIN
    events[p + 2 : -1, 0] = TYPE_NOTE
    events[p + 2 : -1, 1:] = notes
    events[-1, 0] = TYPE_END
    return EventSequence(events, grid)


def _is_marker(row: np.ndarray, event_type: int) -> bool:
    """Whether an event row is the structural event of this type."""
    return row[0] == event_type and not row[1:].any()


def _run_end(types: np.ndarray, start: int, event_type: int) -> int:
    """The index after the run of event_type that begins at start."""
    other = types[start:] != event_type
    return start + int(other.argmax()) if other.any() else len(types)


def _declared(programs: np.ndarray) -> np.ndarray:
    """A table of the 128 programs, True at each of these, all in [0, 128)."""
    declared = np.zeros(128, dtype=bool)
    declared[programs] = True
    return declared


def _is_valid(events: np.ndarray, grid: GridSpec) -> bool:
    """Whether an (n, 6) event array is a valid sequence on grid.

    Once every field is below its size, an event's key (its row times the
    layout's weights) orders events as their rows do, and the type is its
    leading digit. Keys that never fall and type counts (1, p >= 1, 1, m, 1)
    therefore put the parts in encoding order, and the rest checks each
    part by a key or a field.
    """
    lay = layout(grid)
    # Read as uint64, a negative value is above every size. count_nonzero
    # stands for any() and all(), which cost more on arrays this short.
    if len(events) < 4 or np.count_nonzero(events.view(np.uint64) >= lay.sizes.view(np.uint64)):
        return False
    start, p, begin, m, end = np.bincount(events[:, 0], minlength=5).tolist()
    if not (start == begin == end == 1 and p):
        return False
    keys = events @ lay.weights
    w0 = lay.weights[0]
    notes = events[p + 2 : -1]
    # Structural events carry zeros. An instrument key is below w0 plus the
    # duration weight when the event carries only a program, and the keys
    # rise through the header when no program repeats.
    return bool(
        keys[0] == 0
        and keys[p + 1] == 2 * w0
        and keys[-1] == 4 * w0
        and keys[p] < w0 + lay.weights[4]
        and not np.count_nonzero(keys[1 : p + 1] <= keys[:p])
        and not np.count_nonzero(keys[p + 2 :] < keys[p + 1 : -1])
        and np.count_nonzero(notes[:, 4]) == m
        and np.count_nonzero(_declared(events[1 : p + 1, 5])[notes[:, 5]]) == m
    )


def validate_sequence(seq: EventSequence) -> None:
    """Raise SequenceStructureError at the first offending event.

    _is_valid decides. Only a sequence it refuses goes through the naming
    pass: each part of the encoding (start, instruments, start-of-notes,
    notes, end) is checked whole, in order, and the first bad row of the
    first bad part is named.
    """
    if not _is_valid(seq.events, seq.grid):
        _name_first_bad(seq)


def _name_first_bad(seq: EventSequence) -> None:
    """Raise SequenceStructureError at the first offending event, if any."""
    events, grid = seq.events, seq.grid
    n = len(events)
    if not n or events[0].any():
        raise SequenceStructureError("expected the start event", 0)
    types = events[:, 0]
    end = _run_end(types, 1, TYPE_INSTRUMENT)
    instruments = events[1:end, 5]
    stray = events[1:end, 1:5].any(axis=1)
    outside = (instruments < 0) | (instruments >= 128)
    falling = np.zeros(len(instruments), dtype=bool)
    falling[1:] = instruments[1:] <= instruments[:-1]
    bad = stray | outside | falling
    if bad.any():
        j = int(bad.argmax())
        if stray[j]:
            raise SequenceStructureError("instrument event with stray fields", 1 + j)
        if outside[j]:
            raise SequenceStructureError(f"instrument {events[1 + j, 5]} out of range", 1 + j)
        raise SequenceStructureError("instruments not strictly ascending", 1 + j)
    if not len(instruments):
        raise SequenceStructureError("expected at least one instrument event", end)
    if end >= n or not _is_marker(events[end], TYPE_NOTES_BEGIN):
        raise SequenceStructureError("expected the start-of-notes event", end)

    start = end + 1
    end = _run_end(types, start, TYPE_NOTE)
    notes = events[start:end, 1:]
    outside = _outside(notes, grid).any(axis=1)
    # Header instruments are in [0, 128) by now; a note's instrument is
    # looked up only where it is in range too, as outside comes first.
    undeclared = ~_declared(instruments)[notes[:, 4] & 127]
    # A note is out of order when its key is below the one before it. An
    # off-grid note's key may be anything (the product wraps), but outside
    # names that note first.
    keys = notes @ layout(grid).weights[1:]
    falling = np.zeros(len(notes), dtype=bool)
    falling[1:] = keys[1:] < keys[:-1]
    bad = outside | undeclared | falling
    if bad.any():
        i = start + int(bad.argmax())
        if outside[i - start]:
            raise SequenceStructureError(_off_grid(events[i, 1:], grid), i)
        if undeclared[i - start]:
            raise SequenceStructureError(
                f"note instrument {events[i, 5]} not declared in header", i
            )
        raise SequenceStructureError("notes out of canonical order", i)
    if end >= n or not _is_marker(events[end], TYPE_END):
        raise SequenceStructureError("expected the end event", end)
    if end != n - 1:
        raise SequenceStructureError("content after the end event", end + 1)


def sequence_notes(seq: EventSequence) -> np.ndarray:
    """The note events of a sequence as a track, in sequence order, unchecked."""
    return as_track(seq.events[seq.events[:, 0] == TYPE_NOTE, 1:])


def decode(seq: EventSequence) -> np.ndarray:
    """Notes of a valid sequence, in canonical order."""
    validate_sequence(seq)
    return sequence_notes(seq)


# Every value of a legal grid is below 2**16, so it has at most this many digits.
_TABLE_DIGITS = 5
# 1 for the last field of a row, which a newline follows instead of a space.
_LAST_FIELD = np.array([0] * (N_FIELDS - 1) + [1])


@lru_cache(maxsize=_TABLE_DIGITS)
def _digit_table(width: int) -> tuple[np.ndarray, np.ndarray]:
    """The text of every value below 10**width, followed by a space or a newline.

    Row 2v holds the digits of v, zero-padded to width, and a space; row
    2v + 1 the same digits and a newline. The mask of the same shape keeps
    every byte but the leading zeros, and always the last digit. Both are
    shared by every caller: read-only.
    """
    places = 10 ** np.arange(width - 1, -1, -1)
    digits = np.arange(10**width)[:, None] // places % 10
    table = np.empty((2 * 10**width, width + 1), dtype=np.uint8)
    table[:, :width] = np.repeat(digits + ord("0"), 2, axis=0)
    table[0::2, width] = ord(" ")
    table[1::2, width] = ord("\n")
    keep = np.ones(table.shape, dtype=bool)
    leading = np.logical_or.accumulate(digits[:, :-1] != 0, axis=1)
    keep[:, : width - 1] = np.repeat(leading, 2, axis=0)
    table.flags.writeable = False
    keep.flags.writeable = False
    return table, keep


def seq_to_text(seq: EventSequence) -> str:
    """One line of six space-separated integers per event."""
    events = seq.events
    if not len(events):
        return "\n"
    low, high = int(events.min()), int(events.max())
    if low < 0 or high >= 10**_TABLE_DIGITS:
        # Never a valid sequence: a value off every grid.
        return (_ROW_FORMAT * len(events)) % tuple(events.ravel().tolist())
    table, keep = _digit_table(len(str(high)))
    at = (events * 2 + _LAST_FIELD).ravel()
    return table.take(at, axis=0)[keep.take(at, axis=0)].tobytes().decode("ascii")


# What each byte of canonical event text is: 1 a digit, 2 a space, 3 a
# newline, 0 anything else.
_BYTE_KIND = np.zeros(256, dtype=np.uint8)
_BYTE_KIND[ord("0") : ord("9") + 1] = 1
_BYTE_KIND[ord(" ")] = 2
_BYTE_KIND[ord("\n")] = 3
# Digits of a token that int64 holds whatever they are.
_MAX_DIGITS = 18


def _canonical_events(text: str) -> np.ndarray | None:
    """The read-only (n, 6) int64 events of canonical text, in one pass over
    its bytes.

    Canonical text holds only ASCII digits, spaces and newlines, six tokens
    of at most 18 digits on every non-blank line. None for any other text.
    """
    if not text.isascii():
        return None
    # A space at either end puts a non-digit on both sides of every token.
    buf = np.frombuffer(b" %b " % text.encode("ascii"), dtype=np.uint8)
    kind = _BYTE_KIND.take(buf)
    if not kind.all():
        return None
    digit = kind == 1
    # Token edges alternate: the byte before a token, a token's last byte.
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    first, last = edges[0::2] + 1, edges[1::2]
    size = last - first + 1
    width = int(size.max(initial=0))
    if width > _MAX_DIGITS or len(first) % N_FIELDS:
        return None
    # Six tokens a line: each group of six starts and ends on one line, and
    # the next group starts on a later line.
    lines = np.flatnonzero(kind == 3).searchsorted(first).reshape(-1, N_FIELDS)
    if (lines[:, 0] != lines[:, -1]).any() or (lines[1:, 0] == lines[:-1, -1]).any():
        return None
    zero = np.uint8(ord("0"))
    values = (buf.take(last) - zero).astype(np.int64)
    for place in range(1, width):  # the digits left of the last, one place a pass
        digits = np.where(place < size, buf.take(last - place), zero) - zero
        values += digits * np.int64(10**place)
    values.flags.writeable = False  # so EventSequence keeps it without a copy
    return values.reshape(-1, N_FIELDS)


def seq_from_text(text: str, grid: GridSpec, *, validate: bool = True) -> EventSequence:
    """Read seq_to_text output: blank lines are skipped, tokens parse as int()."""
    events = _canonical_events(text)
    if events is None:
        events, _ = _read_lines(text, N_FIELDS)
    seq = EventSequence(events, grid)
    if validate:
        validate_sequence(seq)
    return seq


def sequences_from_notes(
    x,
    y,
    grid: GridSpec,
    *,
    split_shared_programs: bool = False,
) -> tuple[EventSequence, EventSequence, EventSequence]:
    """The (X, Y, merged XY) encodings of two tracks, scored by the flow estimator."""
    return (
        encode([x], grid),
        encode([y], grid),
        encode([x, y], grid, split_shared_programs=split_shared_programs),
    )
