"""Event-by-event reference implementations of the event layer.

These walk tuples of ``Event`` one at a time: encoding by ``sorted`` over
``QuantNote``, validation as a state machine, text reading line by line
and text writing row by row. The package's whole-array event layer must
give the same rows, the same text, and the same exception type, message
and event index; tests compare the two on random inputs.
"""
from __future__ import annotations

from typing import Sequence

from duetflow.events import (
    N_FIELDS,
    TYPE_END,
    TYPE_INSTRUMENT,
    TYPE_NOTE,
    TYPE_NOTES_BEGIN,
    TYPE_START,
    Event,
    EventSequence,
    SequenceStructureError,
)
from duetflow.grid import GridSpec
from duetflow.midi import QuantNote, merge_tracks


def event_rows(seq: EventSequence) -> list[Event]:
    """The rows of a sequence's event array as Events of Python integers."""
    return [Event(*row) for row in seq.events.tolist()]


def _check_note_fields(note: QuantNote, grid: GridSpec) -> str | None:
    if not 0 <= note.beat < grid.max_beat:
        return f"beat {note.beat} outside [0, {grid.max_beat})"
    if not 0 <= note.position < grid.resolution:
        return f"position {note.position} outside [0, {grid.resolution})"
    if not 0 <= note.pitch < 128:
        return f"pitch {note.pitch} outside [0, 128)"
    if not 1 <= note.duration_steps <= grid.max_duration:
        return f"duration {note.duration_steps} outside [1, {grid.max_duration}]"
    if not 0 <= note.program < 128:
        return f"program {note.program} outside [0, 128)"
    return None


def reference_encode(
    tracks: Sequence[Sequence[QuantNote]],
    grid: GridSpec,
    *,
    split_shared_programs: bool = False,
) -> tuple[Event, ...]:
    if not 1 <= len(tracks) <= 2:
        raise ValueError(f"expected 1 or 2 tracks, got {len(tracks)}")
    prepared = [list(t) for t in tracks]
    if split_shared_programs and len(prepared) == 2:
        first_programs = {n.program for n in prepared[0]}
        prepared[1] = [
            n._replace(program=(n.program + 1) % 128)
            if n.program in first_programs
            else n
            for n in prepared[1]
        ]
    notes = merge_tracks(*prepared) if len(prepared) == 2 else tuple(sorted(prepared[0]))
    if not notes:
        raise ValueError("cannot encode an empty note list")
    for note in notes:
        problem = _check_note_fields(note, grid)
        if problem is not None:
            raise ValueError(problem)

    events = [Event(TYPE_START, 0, 0, 0, 0, 0)]
    for program in sorted({n.program for n in notes}):
        events.append(Event(TYPE_INSTRUMENT, 0, 0, 0, 0, program))
    events.append(Event(TYPE_NOTES_BEGIN, 0, 0, 0, 0, 0))
    for n in notes:
        events.append(
            Event(TYPE_NOTE, n.beat, n.position, n.pitch, n.duration_steps, n.program)
        )
    events.append(Event(TYPE_END, 0, 0, 0, 0, 0))
    return tuple(events)


def reference_validate(events: Sequence[Event], grid: GridSpec) -> None:
    if not events or events[0] != Event(TYPE_START, 0, 0, 0, 0, 0):
        raise SequenceStructureError("expected the start event", 0)
    i = 1
    header: list[int] = []
    while i < len(events) and events[i].type == TYPE_INSTRUMENT:
        e = events[i]
        if (e.beat, e.position, e.pitch, e.duration) != (0, 0, 0, 0):
            raise SequenceStructureError("instrument event with stray fields", i)
        if not 0 <= e.instrument < 128:
            raise SequenceStructureError(f"instrument {e.instrument} out of range", i)
        if header and e.instrument <= header[-1]:
            raise SequenceStructureError("instruments not strictly ascending", i)
        header.append(e.instrument)
        i += 1
    if not header:
        raise SequenceStructureError("expected at least one instrument event", i)
    if i >= len(events) or events[i] != Event(TYPE_NOTES_BEGIN, 0, 0, 0, 0, 0):
        raise SequenceStructureError("expected the start-of-notes event", i)
    i += 1
    declared = set(header)
    prev: Event | None = None
    while i < len(events) and events[i].type == TYPE_NOTE:
        e = events[i]
        note = QuantNote(e.beat, e.position, e.pitch, e.duration, e.instrument)
        problem = _check_note_fields(note, grid)
        if problem is not None:
            raise SequenceStructureError(problem, i)
        if e.instrument not in declared:
            raise SequenceStructureError(
                f"note instrument {e.instrument} not declared in header", i
            )
        if prev is not None and tuple(e)[1:] < tuple(prev)[1:]:
            raise SequenceStructureError("notes out of canonical order", i)
        prev = e
        i += 1
    if i >= len(events) or events[i] != Event(TYPE_END, 0, 0, 0, 0, 0):
        raise SequenceStructureError("expected the end event", i)
    if i != len(events) - 1:
        raise SequenceStructureError("content after the end event", i + 1)


def reference_to_text(events: Sequence[Event]) -> str:
    return "\n".join(" ".join(str(v) for v in e) for e in events) + "\n"


def reference_from_text(
    text: str, grid: GridSpec, *, validate: bool = True
) -> tuple[Event, ...]:
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != N_FIELDS:
            raise ValueError(f"line {lineno}: expected 6 integers, got {len(parts)}")
        try:
            events.append(Event(*(int(p) for p in parts)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if validate:
        reference_validate(events, grid)
    return tuple(events)
