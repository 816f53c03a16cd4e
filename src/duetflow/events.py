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

``encode_many`` encodes a batch of items at once (``encode`` is its
one-item case): the notes of every item in one array, checked against
the grid field by field and sorted by one stable sort of the item's
number times the note span plus the note's key; each item's sequence is
then built in rows of its own.

The writer copies each value's text from a table per digit width, with
a sentinel byte for each leading zero that one ``bytes.translate``
drops. The reader takes text of ASCII digits, spaces and newlines, six
tokens of at most 18 digits a line, in a few numpy passes over its
bytes, and leaves any other text to the token-by-token reader of
``midi``.
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


def _outside(notes: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Which notes of an (n, 5) array have a field off the grid."""
    # Less its lowest value and read as uint64, a field is in range exactly
    # when it is below its size less that value: one compare for both ends,
    # made field by field along the notes (across each note's five fields,
    # numpy's compare costs several times as much).
    bad = np.zeros(len(notes), dtype=bool)
    for f, ((_, low), size) in enumerate(zip(_NOTE_FIELDS, layout(grid).sizes[1:].tolist())):
        bad |= (notes[:, f] - low).view(np.uint64) >= size - low
    return bad


def _off_grid(note: np.ndarray, grid: GridSpec) -> str:
    """What is wrong with an off-grid note: its first field outside the grid."""
    sizes = layout(grid).sizes[1:].tolist()
    for value, (name, low), size in zip(note.tolist(), _NOTE_FIELDS, sizes):
        if not low <= value < size:
            # Duration's range, from 1, is written with its last value, max_duration.
            bound = f"{size - 1}]" if low else f"{size})"
            return f"{name} {value} outside [{low}, {bound}"


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
    (seq,) = encode_many([tracks], grid, split_shared_programs=split_shared_programs)
    if isinstance(seq, ValueError):
        raise seq
    return seq


# Notes one batch of encode_many holds, unless a single item has more.
_BATCH_NOTES = 1 << 14


def encode_many(
    items: Sequence[Sequence],
    grid: GridSpec,
    *,
    split_shared_programs: bool = False,
) -> list[EventSequence | ValueError]:
    """encode of every item, each one track or two, in bounded batches.

    Each result equals ``encode(item, grid, ...)``; an item encode refuses
    gets that ValueError in its place, and the other items are unaffected.
    Every sequence owns its rows. A batch sorts its notes by one int64 per
    note, the item's number times the grid's note span plus the note's key,
    so it holds at most as many items as that keeps below 2**63.
    """
    most = 2**63 // int(layout(grid).weights[0])
    results: list = [None] * len(items)
    batch: list[tuple[int, list[np.ndarray]]] = []
    held = 0
    for i, tracks in enumerate(items):
        try:
            if not 1 <= len(tracks) <= 2:
                raise ValueError(f"expected 1 or 2 tracks, got {len(tracks)}")
            parts = [as_track(t) for t in tracks]
        except ValueError as exc:
            results[i] = exc
            continue
        if split_shared_programs and len(parts) == 2:
            parts = _split_shared(*parts)
        batch.append((i, parts))
        held += sum(map(len, parts))
        if held >= _BATCH_NOTES or len(batch) == most:
            _encode_batch(batch, grid, results)
            batch, held = [], 0
    _encode_batch(batch, grid, results)
    return results


def _split_shared(first: np.ndarray, second: np.ndarray) -> list[np.ndarray]:
    """The second track with each program the first also uses moved up by one, mod 128."""
    programs = second[:, 4]
    shared = np.isin(programs, first[:, 4])
    second = second.copy()
    # int64 wraps by 2**64, a multiple of 128, so this is Python's result.
    second[shared, 4] = (programs[shared] + 1) % 128
    return [first, second]


def _encode_batch(batch: list, grid: GridSpec, results: list) -> None:
    """Encode each (index, tracks) item of batch into results[index]."""
    if not batch:
        return
    lay = layout(grid)
    counts = [sum(map(len, parts)) for _, parts in batch]
    notes = np.concatenate([p for _, parts in batch for p in parts])
    item = np.repeat(np.arange(len(batch)), counts)
    outside = _outside(notes, grid)
    if outside.any() or not all(counts):
        bad = set(item[outside].tolist()) | {b for b, n in enumerate(counts) if not n}
        for b in bad:
            results[batch[b][0]] = _refusal(batch[b][1], grid)
        _encode_batch([entry for b, entry in enumerate(batch) if b not in bad], grid, results)
        return
    keys = notes @ lay.weights[1:]
    keys += item * lay.weights[0]
    if np.count_nonzero(keys[1:] < keys[:-1]):
        # Equal keys are equal notes, so any order of them is canonical;
        # the stable sort merges the runs of ordered tracks fastest.
        notes = notes.take(keys.argsort(kind="stable"), axis=0)
    present = np.zeros((len(batch), 128), dtype=bool)
    present[item, notes[:, 4]] = True
    # Each item's distinct programs, ascending, one item after another.
    programs = np.nonzero(present)[1]
    start = end = 0
    for (i, _), m, p in zip(batch, counts, present.sum(axis=1).tolist()):
        events = np.zeros((m + p + 3, N_FIELDS), dtype=np.int64)
        events[1 : p + 1, 0] = TYPE_INSTRUMENT
        events[1 : p + 1, 5] = programs[start : start + p]
        events[p + 1, 0] = TYPE_NOTES_BEGIN
        events[p + 2 : -1, 0] = TYPE_NOTE
        events[p + 2 : -1, 1:] = notes[end : end + m]
        events[-1, 0] = TYPE_END
        events.flags.writeable = False
        results[i] = EventSequence(events, grid)
        start, end = start + p, end + m


def _refusal(parts: list[np.ndarray], grid: GridSpec) -> ValueError:
    """encode's error for an item with no notes or with a note off the grid."""
    notes = np.concatenate(parts)
    if not len(notes):
        return ValueError("cannot encode an empty note list")
    # A note off the grid has no key that orders it: sort the rows
    # themselves, and name the first bad note in that order.
    notes = sort_notes(notes)
    return ValueError(_off_grid(notes[_outside(notes, grid).argmax()], grid))


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
    outside = _outside(notes, grid)
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
# Stands for a leading zero in a digit table; one translate drops them all.
_PAD = b"\xff"


@lru_cache(maxsize=_TABLE_DIGITS)
def _digit_table(width: int) -> np.ndarray:
    """The text of every value below 10**width, followed by a space or a newline.

    Row 2v holds the digits of v, its leading zeros as _PAD, and a space;
    row 2v + 1 the same digits and a newline. Shared by every caller:
    read-only.
    """
    places = 10 ** np.arange(width - 1, -1, -1)
    digits = np.repeat(np.arange(10**width)[:, None] // places % 10, 2, axis=0)
    table = np.empty((2 * 10**width, width + 1), dtype=np.uint8)
    table[:, :width] = digits + ord("0")
    table[:, : width - 1][np.logical_or.accumulate(digits[:, :-1] != 0, axis=1) == 0] = ord(_PAD)
    table[0::2, width] = ord(" ")
    table[1::2, width] = ord("\n")
    table.flags.writeable = False
    return table


def seq_to_text(seq: EventSequence) -> str:
    """One line of six space-separated integers per event."""
    events = seq.events
    if not len(events):
        return "\n"
    # Read as uint64, a negative value is above every table.
    high = int(events.view(np.uint64).max())
    if high >= 10**_TABLE_DIGITS:
        # Never a valid sequence: a value off every grid.
        return (_ROW_FORMAT * len(events)) % tuple(events.ravel().tolist())
    table = _digit_table(len(str(high)))
    text = table.take((events * 2 + _LAST_FIELD).ravel(), axis=0).tobytes()
    return text.translate(None, _PAD).decode("ascii")


# Digits of a token that int64 holds whatever they are.
_MAX_DIGITS = 18
# A token's digit places, the last digit's first, as a column.
_PLACES = np.arange(_MAX_DIGITS)[:, None]


def _canonical_events(text: str) -> np.ndarray | None:
    """The read-only (n, 6) int64 events of canonical text, in a few passes
    over its bytes.

    Canonical text holds only ASCII digits, spaces and newlines, six tokens
    of at most 18 digits on every non-blank line. None for any other text.
    """
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    if raw.translate(None, b"0123456789 \n"):
        return None
    # A space at either end puts a non-digit on both sides of every token.
    buf = np.frombuffer(b" %b " % raw, dtype=np.uint8)
    digit = buf > ord(" ")
    # Token edges alternate: the byte before a token, a token's last byte.
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    first, last = edges[0::2] + 1, edges[1::2]
    n = len(last)
    if n % N_FIELDS:
        return None
    if not n:
        values = np.zeros((0, N_FIELDS), dtype=np.int64)
        values.flags.writeable = False
        return values
    shorter = last - first  # each token's digits less one
    width = int(shorter.max()) + 1
    if width > _MAX_DIGITS:
        return None
    # Six tokens a line: a newline in every sixth gap between tokens, and
    # in no other. The n - 1 gaps are one byte each exactly when the text
    # from the first token to the last has n - 1 bytes besides digits.
    rows, start, stop = n // N_FIELDS, int(first[0]), int(last[-1]) + 1
    if stop - start - int(shorter.sum()) - n == n - 1:
        # Each gap is a space (32) or a newline (10): the row ends are all
        # newlines when they sum to 10 each, and no other gap is one when
        # the span holds no more newlines.
        row_ends = buf.take(last[N_FIELDS - 1 : -1 : N_FIELDS] + 1)
        if raw.count(b"\n", start - 1, stop - 1) != rows - 1 or row_ends.sum() != 10 * (rows - 1):
            return None
    else:
        # Each token's line: each group of six starts and ends on one line,
        # and the next group starts on a later line.
        lines = np.flatnonzero(buf == ord("\n")).searchsorted(first).reshape(-1, N_FIELDS)
        if (lines[:, 0] != lines[:, -1]).any() or (lines[1:, 0] == lines[:-1, -1]).any():
            return None
    # Each token's last width bytes, one row per digit place. Bytes left of
    # a token are masked; a negative index, for a place left of the text,
    # reads its far end, which the mask drops too.
    places = _PLACES[:width]
    digits = buf.take(last - places) - np.uint8(ord("0"))
    digits *= places <= shorter
    values = digits[0].astype(np.int64)
    for place in range(1, width):
        values += digits[place] * np.int64(10**place)
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
    """The (X, Y, merged XY) encodings of two tracks, scored by the flow
    estimator; the first that encode refuses raises its error."""
    seqs = encode_many([[x], [y], [x, y]], grid, split_shared_programs=split_shared_programs)
    for seq in seqs:
        if isinstance(seq, ValueError):
            raise seq
    return tuple(seqs)
