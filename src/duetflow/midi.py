"""Standard MIDI file ingestion: parsing, grid quantization, track handling.

Only note content survives ingestion. Tempo, control changes and other
performance data are deliberately dropped; the downstream representation is
metrical (beats and positions), not wall-clock.

A track is one read-only (n, 5) int64 array, one row per note in the
field order of ``QuantNote``. ``as_track`` makes one from any (n, 5)
array-like of integers; every layer after it takes the array as it is.
``as_rows``, which it calls, does the same for event rows.
"""
from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import GridSpec, round_half_away

DRUM_CHANNEL = 9  # channel 10 in MIDI UI terms, 0-indexed here


class MidiParseError(ValueError):
    """Malformed MIDI data. Carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class IneligiblePieceError(ValueError):
    """Piece cannot be scored, e.g. it does not have exactly two voices."""

    def __init__(self, message: str, source_id: str) -> None:
        super().__init__(f"{source_id}: {message}")
        self.source_id = source_id


class RawNote(NamedTuple):
    """One parsed note, by field name: the field order of ``ParsedMidi.notes``."""

    onset_ticks: int
    duration_ticks: int
    pitch: int
    program: int
    track_index: int


class QuantNote(NamedTuple):
    """One track row, by field name. Field order doubles as the canonical sort order."""

    beat: int
    position: int
    pitch: int
    duration_steps: int
    program: int


def as_rows(rows, width: int, noun: str) -> np.ndarray:
    """Rows of width integer fields as a read-only (n, width) int64 array.

    Takes any (n, width) array-like of integers: an array already in that
    form as it is, anything else copied. ValueError, in the words of noun,
    for a row without width fields, a field that is not an integer, or one
    beyond int64.
    """
    frozen = isinstance(rows, np.ndarray) and not rows.flags.writeable
    if frozen and rows.dtype == np.int64 and rows.shape[1:] == (width,):
        return rows
    try:
        table = np.array(rows)
        if table.dtype.kind not in "ib":
            # Floats, strings, objects, or integers numpy could not hold in
            # one integer dtype: the given values, field by field.
            table = np.array(rows, dtype=object)
    except ValueError:
        table = None  # ragged
    if table is not None and table.shape == (0,):
        table = table.reshape(0, width)
    if table is None or table.ndim != 2 or table.shape[1] != width:
        raise ValueError(f"every {noun} must have {width} integer fields")
    if table.dtype == object:
        for v in table.flat:
            if not isinstance(v, (int, np.integer)):
                raise ValueError(f"{noun} field {v!r} is not an integer")
        try:
            table = table.astype(np.int64)
        except OverflowError:
            raise ValueError(f"{noun} fields must fit in int64") from None
    table = table.astype(np.int64, copy=False)  # np.array above made the copy
    table.flags.writeable = False
    return table


def as_track(track) -> np.ndarray:
    """A track as a read-only (n, 5) int64 array: ``as_rows`` of notes.

    Takes any (n, 5) array-like of integers, such as a list of QuantNote.
    """
    return as_rows(track, 5, "note")


def sort_notes(notes: np.ndarray) -> np.ndarray:
    """The rows of a note array in canonical (QuantNote field) order."""
    # lexsort's last key is the primary one.
    return notes[np.lexsort(notes.T[::-1])]


class _ByValue:
    """Equality and hash by ``_key``, which holds row arrays as their bytes."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, type(self)) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, slots=True, eq=False)
class ParsedMidi(_ByValue):
    """A file's notes as a read-only (n, 5) int64 array in RawNote field
    order, and its counts. Notes go through ``as_track`` once, here."""

    notes: np.ndarray
    ticks_per_beat: int
    format_type: int
    unclosed_notes: int
    drum_notes: int  # channel-10 notes left out

    def __post_init__(self) -> None:
        object.__setattr__(self, "notes", as_track(self.notes))

    def _key(self) -> tuple:
        counts = (self.ticks_per_beat, self.format_type, self.unclosed_notes, self.drum_notes)
        return self.notes.tobytes(), counts


@dataclass(frozen=True, slots=True, eq=False)
class Piece(_ByValue):
    """Quantized non-empty tracks of one file, in file order.

    Tracks go through ``as_track`` once, here.
    """

    source_id: str
    grid: GridSpec
    tracks: tuple[np.ndarray, ...]
    dropped_notes: int = 0
    unclosed_notes: int = 0
    drum_notes: int = 0
    clipped_notes: int = 0  # durations clamped to grid.max_duration

    def __post_init__(self) -> None:
        object.__setattr__(self, "tracks", tuple(map(as_track, self.tracks)))

    def _key(self) -> tuple:
        counts = (self.dropped_notes, self.unclosed_notes, self.drum_notes, self.clipped_notes)
        return self.source_id, self.grid, tuple(t.tobytes() for t in self.tracks), counts


def _need(data: bytes, pos: int, size: int, what: str) -> None:
    """Refuse a read of size bytes at pos that runs past the end of data."""
    if len(data) - pos < size:
        raise MidiParseError(f"truncated {what}", pos)


def _uint(data: bytes, pos: int, size: int, what: str) -> int:
    """The big-endian integer of size bytes at pos."""
    _need(data, pos, size, what)
    return int.from_bytes(data[pos : pos + size], "big")


def _varint(data: bytes, pos: int, end: int) -> tuple[int, int]:
    """The variable-length quantity at pos (7 bits per byte, at most 4
    bytes) and the position after it, read no further than end."""
    value = 0
    for pos in range(pos, pos + 4):
        if pos >= end:
            raise MidiParseError("truncated variable-length quantity", pos)
        byte = data[pos]
        value = (value << 7) | (byte & 0x7F)
        if byte < 0x80:
            return value, pos + 1
    raise MidiParseError("variable-length quantity longer than 4 bytes", pos)


def parse_midi(data: bytes, *, include_drums: bool = False) -> ParsedMidi:
    """Extract notes from a format 0 or 1 standard MIDI file.

    Note-offs are matched FIFO to the earliest open note-on of the same
    channel and pitch. Note-ons still open at end of track are closed there
    and counted in ``unclosed_notes``; channel-10 notes left out count in
    ``drum_notes`` only. A note's program is whatever the last program
    change on its channel set at onset time (default 0). Every read inside
    a track chunk stays inside the chunk's declared length.
    """
    _need(data, 0, 4, "header chunk id")
    if data[:4] != b"MThd":
        raise MidiParseError("missing MThd header", 0)
    header_len = _uint(data, 4, 4, "header length")
    if header_len < 6:
        raise MidiParseError(f"header length {header_len} shorter than 6", 4)
    fmt = _uint(data, 8, 2, "format")
    declared_tracks = _uint(data, 10, 2, "track count")
    division = _uint(data, 12, 2, "division")
    if fmt not in (0, 1):
        raise MidiParseError(f"unsupported format {fmt}", 8)
    if division & 0x8000:
        raise MidiParseError("SMPTE division is not beat-based", 12)
    if division == 0:
        raise MidiParseError("zero ticks per beat", 12)
    _need(data, 14, header_len - 6, "header padding")
    pos = 14 + header_len - 6

    notes = array("q")
    unclosed = drums = 0
    track_index = 0
    while pos < len(data):
        _need(data, pos, 4, "chunk id")
        chunk_id = data[pos : pos + 4]
        chunk_len = _uint(data, pos + 4, 4, "chunk length")
        pos += 8
        if chunk_id != b"MTrk":
            # Unknown chunk types are legal between tracks; skip them whole.
            _need(data, pos, chunk_len, "unknown chunk body")
            pos += chunk_len
            continue
        track_end = pos + chunk_len
        if track_end > len(data):
            raise MidiParseError("track chunk overruns file", pos - 4)
        n_open, n_drums = _parse_track(
            data, pos, track_end, track_index, include_drums, notes
        )
        unclosed += n_open
        drums += n_drums
        pos = track_end
        track_index += 1

    if track_index != declared_tracks:
        raise MidiParseError(
            f"header declared {declared_tracks} tracks, found {track_index}", pos
        )
    table = np.frombuffer(notes, dtype=np.int64).reshape(-1, 5)
    table.flags.writeable = False
    return ParsedMidi(table, division, fmt, unclosed, drums)


def _parse_track(
    data: bytes,
    pos: int,
    end: int,
    track_index: int,
    include_drums: bool,
    notes: array,
) -> tuple[int, int]:
    """Append the notes of the track chunk data[pos:end] to notes, five
    fields a note in the order of ``RawNote``.

    Returns the counts of notes kept but left open at the end of the track
    and of drum notes left out. The chunk's end bounds every read: an event
    that crosses it is truncated.
    """
    # FIFO queues of (onset_tick, program) keyed by channel << 7 | pitch,
    # which sorts like (channel, pitch).
    open_notes: dict[int, list[tuple[int, int]]] = {}
    programs = [0] * 16
    tick = 0
    running_status = 0
    drums = 0

    while pos < end:
        delta = data[pos]
        if delta < 0x80:
            pos += 1
        else:
            delta, pos = _varint(data, pos, end)
        tick += delta
        if pos >= end:
            raise MidiParseError("truncated event status", pos)
        status = data[pos]
        if status < 0x80:
            if running_status == 0:
                raise MidiParseError("data byte without running status", pos)
            status = running_status  # this byte is the first data byte
        elif status < 0xF0:
            pos += 1
        else:
            pos += 1
            if status == 0xFF:
                if pos >= end:
                    raise MidiParseError("truncated meta type", pos)
                meta_type = data[pos]
                length, pos = _varint(data, pos + 1, end)
                what = "meta payload"
            elif status in (0xF0, 0xF7):
                meta_type = None
                length, pos = _varint(data, pos, end)
                what = "sysex payload"
            else:
                raise MidiParseError(f"unexpected status 0x{status:02x}", pos - 1)
            if end - pos < length:
                raise MidiParseError(f"truncated {what}", pos)
            pos += length
            running_status = 0
            if meta_type == 0x2F:
                break  # end of track; any padding is skipped by the caller
            continue

        running_status = status
        kind = status & 0xF0
        channel = status & 0x0F
        # Program change (0xC0) and channel pressure (0xD0) carry one data
        # byte, the other channel messages two.
        one_byte = kind == 0xC0 or kind == 0xD0
        if pos >= end or data[pos] & 0x80:
            what = "data byte" if one_byte else "first data byte"
            if pos >= end:
                raise MidiParseError(f"truncated {what}", pos)
            raise MidiParseError(f"status byte where {what} expected", pos)
        a = data[pos]
        pos += 1
        if one_byte:
            if kind == 0xC0:
                programs[channel] = a
            continue
        if pos >= end:
            raise MidiParseError("truncated second data byte", pos)
        b = data[pos]
        if b & 0x80:
            raise MidiParseError("status byte where second data byte expected", pos)
        pos += 1

        if kind == 0x90 and b > 0:
            if channel == DRUM_CHANNEL and not include_drums:
                # Every note-on makes one note, closed or not: count it and
                # leave it out now.
                drums += 1
            else:
                open_notes.setdefault(channel << 7 | a, []).append((tick, programs[channel]))
        elif kind == 0x80 or kind == 0x90:
            # A note-off with nothing open is harmless noise; drop it.
            queue = open_notes.get(channel << 7 | a)
            if queue:
                onset, program = queue.pop(0)
                notes.extend((onset, max(1, tick - onset), a, program, track_index))

    n_open = 0
    for key, queue in sorted(open_notes.items()):
        n_open += len(queue)
        pitch = key & 0x7F
        for onset, program in queue:
            notes.extend((onset, max(1, tick - onset), pitch, program, track_index))
    return n_open, drums


def quantize(
    notes, ticks_per_beat: int, grid: GridSpec
) -> tuple[np.ndarray, int, int]:
    """Snap RawNotes, or an (n, 5) array of their fields, to the grid.

    Returns the (n, 5) note array, in input order, and the counts of notes
    dropped and of durations clipped. Notes go through ``as_track``, so a
    field that is not an integer, or one beyond int64, raises ValueError;
    so do negative ticks, and a ticks_per_beat that is not an integer in
    [1, 2**45). Onsets and durations round half away from zero in exact
    int64 arithmetic: whole beats of ticks apart from the rest, each
    product below 2**63. Durations clamp to [1, max_duration], and those
    above it count as clipped; notes whose beat lands at or beyond max_beat
    are dropped and counted.
    """
    try:
        ticks_per_beat = operator.index(ticks_per_beat)
    except TypeError:
        raise ValueError("ticks_per_beat must be a positive integer") from None
    if ticks_per_beat <= 0:
        raise ValueError("ticks_per_beat must be a positive integer")
    if ticks_per_beat >= 2**45:  # a rest times a resolution below 2**16 fits int64
        raise ValueError(f"ticks_per_beat must be below 2**45, got {ticks_per_beat}")
    raw = as_track(notes)
    if (raw[:, :2] < 0).any():
        raise ValueError("note ticks must not be negative")
    res = grid.resolution
    beats, rest = np.divmod(raw[:, :2], ticks_per_beat)
    # Whole beats past these drop the note or clip its duration, whatever
    # the rest: clipped here, they keep every product below 2**63.
    np.minimum(beats, (grid.max_beat, grid.max_duration + 1), out=beats)
    steps = beats * res + round_half_away(rest * res, ticks_per_beat)
    kept = steps[:, 0] < grid.steps
    steps = steps[kept]
    out = np.empty((len(steps), 5), dtype=np.int64)
    out[:, 0] = steps[:, 0] // res
    out[:, 1] = steps[:, 0] % res
    out[:, 2] = raw[kept, 2]
    out[:, 3] = np.clip(steps[:, 1], 1, grid.max_duration)
    out[:, 4] = raw[kept, 3]
    clipped = int(np.count_nonzero(steps[:, 1] > grid.max_duration))
    return out, len(raw) - len(out), clipped


def build_piece(
    parsed: ParsedMidi, grid: GridSpec, source_id: str
) -> Piece:
    """Quantize a parsed file into canonical per-track note arrays.

    Tracks that end up empty (no notes, or all notes dropped) are omitted,
    keeping file order for the rest.
    """
    raw = parsed.notes
    tracks: list[np.ndarray] = []
    dropped = clipped = 0
    for index in np.unique(raw[:, 4]):
        track = raw[raw[:, 4] == index]
        track.flags.writeable = False  # checked already: quantize takes it without a copy
        quant, n_drop, n_clip = quantize(track, parsed.ticks_per_beat, grid)
        dropped += n_drop
        clipped += n_clip
        if len(quant):
            tracks.append(as_track(sort_notes(quant)))
    return Piece(
        source_id, grid, tuple(tracks), dropped, parsed.unclosed_notes, parsed.drum_notes, clipped
    )


def piece_from_bytes(
    data: bytes, source_id: str, grid: GridSpec, *, include_drums: bool = False
) -> Piece:
    return build_piece(parse_midi(data, include_drums=include_drums), grid, source_id)


def split_tracks(piece: Piece) -> tuple[np.ndarray, np.ndarray]:
    """The two tracks of a piece, or IneligiblePieceError unless it has
    exactly two and neither is empty."""
    if len(piece.tracks) != 2 or not all(len(t) for t in piece.tracks):
        raise IneligiblePieceError(
            f"expected exactly 2 non-empty tracks, found notes per track "
            f"{[len(t) for t in piece.tracks]}",
            piece.source_id,
        )
    return piece.tracks[0], piece.tracks[1]


def merge_tracks(x, y) -> np.ndarray:
    """Multiset union in canonical order. Track identity does not survive."""
    return as_track(sort_notes(np.concatenate([as_track(x), as_track(y)])))


def track_to_text(track) -> str:
    """One line of five space-separated integers per note."""
    notes = as_track(track)
    return ("%d %d %d %d %d\n" * len(notes)) % tuple(notes.ravel().tolist())


def _read_lines(text: str, width: int) -> tuple[np.ndarray, list[int]]:
    """The rows of width integers on the non-blank lines of text, parsed
    with int(), as a read-only (n, width) int64 array, which ``as_rows``
    takes without a copy, and each row's line number.

    Raises the first malformed line's error, or else names the line of the
    first value beyond int64.
    """
    rows, linenos = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != width:
            raise ValueError(f"line {lineno}: expected {width} integers, got {len(parts)}")
        try:
            rows.append([int(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        linenos.append(lineno)
    try:
        table = np.array(rows, dtype=np.int64).reshape(-1, width)
    except OverflowError:
        i, value = next(
            (i, v) for i, row in enumerate(rows) for v in row if not -(2**63) <= v < 2**63
        )
        raise ValueError(f"line {linenos[i]}: {value} does not fit in int64") from None
    table.flags.writeable = False
    return table, linenos


def track_from_text(text: str) -> np.ndarray:
    """Read track_to_text output: blank lines are skipped, tokens parse as
    int(), and a negative field is refused by its line."""
    notes, linenos = _read_lines(text, 5)
    negative = (notes < 0).any(axis=1)
    if negative.any():
        raise ValueError(f"line {linenos[negative.argmax()]}: negative field")
    return as_track(notes)
