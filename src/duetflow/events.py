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
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .grid import GridSpec
from .midi import QuantNote

TYPE_START = 0
TYPE_INSTRUMENT = 1
TYPE_NOTES_BEGIN = 2
TYPE_NOTE = 3
TYPE_END = 4

N_FIELDS = 6
FIELD_NAMES = ("type", "beat", "position", "pitch", "duration", "instrument")

_INT64 = np.iinfo(np.int64)
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


def _int64_exact(values: np.ndarray) -> bool:
    """Whether numpy holds these values as integers that int64 keeps exactly."""
    kind = values.dtype.kind
    return kind in "ib" or (kind == "u" and values.max() <= _INT64.max)


@dataclass(frozen=True, slots=True, eq=False)
class EventSequence:
    """Events as a read-only (n, 6) int64 array, and the grid they live on.

    Any (n, 6) array-like of integers is accepted and copied; anything
    else, such as a float or an integer beyond int64, raises ValueError.
    """

    events: np.ndarray
    grid: GridSpec

    def __post_init__(self) -> None:
        events = np.array(self.events)
        if not events.size:
            events = events.reshape(0, N_FIELDS)
        elif not _int64_exact(events):
            raise ValueError("event values must be integers that fit in int64")
        if events.ndim != 2 or events.shape[1] != N_FIELDS:
            raise ValueError(f"events must have shape (n, {N_FIELDS}), got {events.shape}")
        events = events.astype(np.int64, copy=False)
        events.flags.writeable = False
        object.__setattr__(self, "events", events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventSequence):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.events, other.events)

    def __hash__(self) -> int:
        return hash((self.events.tobytes(), self.grid))

    @property
    def note_count(self) -> int:
        return int(np.count_nonzero(self.events[:, 0] == TYPE_NOTE))


def vocab_sizes(grid: GridSpec) -> tuple[int, ...]:
    """Per-field vocabulary sizes for models over this grid.

    Duration needs max_duration + 1 slots: notes use 1..max_duration and
    structural events carry 0.
    """
    return (5, grid.max_beat, grid.resolution, 128, grid.max_duration + 1, 128)


def _check_note_fields(note: Sequence[int], grid: GridSpec) -> str | None:
    """What is wrong with a note's (beat, position, pitch, duration, program)."""
    beat, position, pitch, duration, program = map(int, note)
    if not 0 <= beat < grid.max_beat:
        return f"beat {beat} outside [0, {grid.max_beat})"
    if not 0 <= position < grid.resolution:
        return f"position {position} outside [0, {grid.resolution})"
    if not 0 <= pitch < 128:
        return f"pitch {pitch} outside [0, 128)"
    if not 1 <= duration <= grid.max_duration:
        return f"duration {duration} outside [1, {grid.max_duration}]"
    if not 0 <= program < 128:
        return f"program {program} outside [0, 128)"
    return None


def _off_grid(notes: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Which rows of an (n, 5) note array fail _check_note_fields."""
    low = np.array([0, 0, 0, 1, 0])
    high = np.array([grid.max_beat, grid.resolution, 128, grid.max_duration + 1, 128])
    return ((notes < low) | (notes >= high)).any(axis=1)


def _note_array(track: Sequence[QuantNote]) -> np.ndarray | None:
    """One track as an (n, 5) int64 array.

    None when every field is an integer but some do not fit int64;
    ValueError when a note does not have 5 fields or a field is not an
    integer.
    """
    try:
        values = list(chain.from_iterable(track))
        five = {*map(len, track)} <= {5}
    except TypeError:
        five = False
    if not five:
        raise ValueError("every note must have 5 integer fields")
    notes = np.array(values)
    if not _int64_exact(notes):
        for v in values:
            if not isinstance(v, (int, np.integer)):
                raise ValueError(f"note field {v!r} is not an integer")
        # Integers numpy could not hold in one integer dtype (beyond int64,
        # or of mixed signedness), or no notes at all.
        try:
            notes = np.array([int(v) for v in values], dtype=np.int64)
        except OverflowError:
            return None
    return notes.astype(np.int64, copy=False).reshape(-1, 5)


def _wide_note_problem(
    tracks: Sequence[Sequence[QuantNote]], grid: GridSpec, split: bool
) -> str:
    """The error for notes with fields beyond int64: the first offending
    note in canonical order, found note by note in Python integers."""
    prepared = [[QuantNote(*map(int, n)) for n in t] for t in tracks]
    if split and len(prepared) == 2:
        first_programs = {n.program for n in prepared[0]}
        prepared[1] = [
            n._replace(program=(n.program + 1) % 128) if n.program in first_programs else n
            for n in prepared[1]
        ]
    for note in sorted(chain.from_iterable(prepared)):
        problem = _check_note_fields(note, grid)
        if problem is not None:
            return problem
    return "note fields must fit in int64"


def encode(
    tracks: Sequence[Sequence[QuantNote]],
    grid: GridSpec,
    *,
    split_shared_programs: bool = False,
) -> EventSequence:
    """Encode one track, or the merge of two, as an event sequence.

    With ``split_shared_programs`` a program used by both tracks keeps its
    id in the first track and becomes (program + 1) mod 128 in the second,
    so the voices stay distinguishable at the cost of merge symmetry.
    Note fields must be integers (Python or numpy); anything else raises
    ValueError, as does a field outside the grid.
    """
    if not 1 <= len(tracks) <= 2:
        raise ValueError(f"expected 1 or 2 tracks, got {len(tracks)}")
    parts = [_note_array(t) for t in tracks]
    if any(p is None for p in parts):
        raise ValueError(_wide_note_problem(tracks, grid, split_shared_programs))
    if split_shared_programs and len(parts) == 2:
        programs = parts[1][:, 4]
        shared = np.isin(programs, parts[0][:, 4])
        # int64 wraps by 2**64, a multiple of 128, so this is Python's result.
        programs[shared] = (programs[shared] + 1) % 128
    notes = np.concatenate(parts)
    if not len(notes):
        raise ValueError("cannot encode an empty note list")
    # sorted(QuantNote) order: lexsort's last key is the primary one.
    notes = notes[np.lexsort(notes.T[::-1])]
    bad = _off_grid(notes, grid)
    if bad.any():
        raise ValueError(_check_note_fields(notes[bad.argmax()], grid))

    programs = np.unique(notes[:, 4])
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


def _check_events(
    events: np.ndarray, grid: GridSpec, shown: Sequence[Sequence[int]] | None = None
) -> None:
    """Raise SequenceStructureError at the first event that breaks the encoding.

    Messages quote values from shown (the events themselves by default),
    for callers whose events stand in for integers beyond int64.
    """
    shown = events if shown is None else shown
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
            raise SequenceStructureError(f"instrument {shown[1 + j][5]} out of range", 1 + j)
        raise SequenceStructureError("instruments not strictly ascending", 1 + j)
    if not len(instruments):
        raise SequenceStructureError("expected at least one instrument event", end)
    if end >= n or not _is_marker(events[end], TYPE_NOTES_BEGIN):
        raise SequenceStructureError("expected the start-of-notes event", end)

    start = end + 1
    end = _run_end(types, start, TYPE_NOTE)
    notes = events[start:end, 1:]
    outside = _off_grid(notes, grid)
    # Header instruments are in [0, 128) by now; a note's instrument is
    # looked up only where it is in range too, as outside comes first.
    declared = np.zeros(128, dtype=bool)
    declared[instruments] = True
    undeclared = ~declared[notes[:, 4] & 127]
    # A note is out of order when it is lexicographically below the one
    # before it: smaller at the first field where the two differ.
    prev, cur = notes[:-1], notes[1:]
    differ = prev != cur
    first = differ.argmax(axis=1)
    rows = np.arange(len(cur))
    falling = np.zeros(len(notes), dtype=bool)
    falling[1:] = differ.any(axis=1) & (cur[rows, first] < prev[rows, first])
    bad = outside | undeclared | falling
    if bad.any():
        i = start + int(bad.argmax())
        if outside[i - start]:
            raise SequenceStructureError(_check_note_fields(shown[i][1:], grid), i)
        if undeclared[i - start]:
            raise SequenceStructureError(
                f"note instrument {shown[i][5]} not declared in header", i
            )
        raise SequenceStructureError("notes out of canonical order", i)
    if end >= n or not _is_marker(events[end], TYPE_END):
        raise SequenceStructureError("expected the end event", end)
    if end != n - 1:
        raise SequenceStructureError("content after the end event", end + 1)


def validate_sequence(seq: EventSequence) -> None:
    """Raise SequenceStructureError at the first offending event."""
    _check_events(seq.events, seq.grid)


def sequence_notes(seq: EventSequence) -> tuple[QuantNote, ...]:
    """The note events of a sequence as notes, in sequence order, unchecked."""
    rows = seq.events[seq.events[:, 0] == TYPE_NOTE, 1:]
    return tuple(map(QuantNote._make, rows.tolist()))


def decode(seq: EventSequence) -> tuple[QuantNote, ...]:
    """Notes of a valid sequence, in canonical order."""
    validate_sequence(seq)
    return sequence_notes(seq)


def seq_to_text(seq: EventSequence) -> str:
    """One line of six space-separated integers per event."""
    if not len(seq.events):
        return "\n"
    return (_ROW_FORMAT * len(seq.events)) % tuple(seq.events.ravel().tolist())


def _read_lines(lines: list[list[str]], grid: GridSpec, validate: bool) -> np.ndarray:
    """Line by line, for the tokens of text the whole-text reader refused.

    Raises the first malformed line's error. Integers beyond int64 raise
    what validation reports for them (they are outside every field's
    range), or, without validation, an error naming their line.
    """
    rows, linenos = [], []
    for lineno, parts in enumerate(lines, start=1):
        if not parts:
            continue
        if len(parts) != N_FIELDS:
            raise ValueError(f"line {lineno}: expected 6 integers, got {len(parts)}")
        try:
            rows.append([int(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        linenos.append(lineno)
    wide = [
        (i, v) for i, row in enumerate(rows) for v in row if not _INT64.min <= v <= _INT64.max
    ]
    if not wide:
        return np.array(rows, dtype=np.int64).reshape(-1, N_FIELDS)
    if validate:
        clipped = [[min(max(v, _INT64.min), _INT64.max) for v in row] for row in rows]
        _check_events(np.array(clipped, dtype=np.int64), grid, shown=rows)
    i, value = wide[0]
    raise ValueError(f"line {linenos[i]}: {value} does not fit in int64")


def seq_from_text(text: str, grid: GridSpec, *, validate: bool = True) -> EventSequence:
    """Read seq_to_text output: blank lines are skipped, tokens parse as int()."""
    lines = list(map(str.split, text.splitlines()))
    counts = list(map(len, lines))
    events = None
    # When every non-blank line holds six tokens, the tokens of the whole
    # text reshape to the events; _read_lines reports any other text.
    if {*counts} <= {0, N_FIELDS}:
        try:
            tokens = map(int, chain.from_iterable(lines))
            events = np.fromiter(tokens, np.int64, count=sum(counts))
        except (ValueError, OverflowError):
            pass
    if events is None:
        events = _read_lines(lines, grid, validate)
    seq = EventSequence(events.reshape(-1, N_FIELDS), grid)
    if validate:
        validate_sequence(seq)
    return seq


def sequences_from_notes(
    x: Iterable[QuantNote],
    y: Iterable[QuantNote],
    grid: GridSpec,
    *,
    split_shared_programs: bool = False,
) -> tuple[EventSequence, EventSequence, EventSequence]:
    """The (X, Y, merged XY) encodings scored by the flow estimator."""
    x = tuple(x)
    y = tuple(y)
    return (
        encode([x], grid),
        encode([y], grid),
        encode([x, y], grid, split_shared_programs=split_shared_programs),
    )
