"""Byte-by-byte reference implementation of the MIDI reader.

A ``_Reader`` object hands out every byte through method calls that check
the bound: the whole file for the header and chunk framing, the chunk's
declared end inside a track chunk. The package's reader must give an equal
``ParsedMidi`` on every input, or the same ``MidiParseError`` message and
byte offset; tests compare the two on mutated and truncated files.
``reference_quantize`` snaps notes one at a time in Python integers, for the
package's whole-array quantization to match.
"""
from __future__ import annotations

from duetflow.grid import round_half_away
from duetflow.midi import DRUM_CHANNEL, MidiParseError, ParsedMidi, QuantNote, RawNote


class _Reader:
    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0
        self.end = len(data)  # no read goes past this

    def remaining(self) -> int:
        return self.end - self.pos

    def take(self, n: int, what: str) -> bytes:
        if self.remaining() < n:
            raise MidiParseError(f"truncated {what}", self.pos)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        b = self.take(2, what)
        return (b[0] << 8) | b[1]

    def u32(self, what: str) -> int:
        b = self.take(4, what)
        return (b[0] << 24) | (b[1] << 16) | (b[2] << 8) | b[3]

    def varint(self) -> int:
        # Variable-length quantity: 7 bits per byte, at most 4 bytes.
        value = 0
        for i in range(4):
            byte = self.u8("variable-length quantity")
            value = (value << 7) | (byte & 0x7F)
            if not byte & 0x80:
                return value
        raise MidiParseError("variable-length quantity longer than 4 bytes", self.pos - 1)

    def data_byte(self, what: str) -> int:
        off = self.pos
        byte = self.u8(what)
        if byte & 0x80:
            raise MidiParseError(f"status byte where {what} expected", off)
        return byte


def reference_parse_midi(data: bytes, *, include_drums: bool = False) -> ParsedMidi:
    """Extract notes from a format 0 or 1 standard MIDI file.

    Note-offs are matched FIFO to the earliest open note-on of the same
    channel and pitch. Note-ons still open at end of track are closed there
    and counted in ``unclosed_notes``; channel-10 notes left out count in
    ``drum_notes`` only. A note's program is whatever the last program
    change on its channel set at onset time (default 0).
    """
    r = _Reader(data)
    if r.take(4, "header chunk id") != b"MThd":
        raise MidiParseError("missing MThd header", 0)
    header_len = r.u32("header length")
    if header_len < 6:
        raise MidiParseError(f"header length {header_len} shorter than 6", r.pos - 4)
    fmt = r.u16("format")
    declared_tracks = r.u16("track count")
    division = r.u16("division")
    if fmt not in (0, 1):
        raise MidiParseError(f"unsupported format {fmt}", r.pos - 6)
    if division & 0x8000:
        raise MidiParseError("SMPTE division is not beat-based", r.pos - 2)
    if division == 0:
        raise MidiParseError("zero ticks per beat", r.pos - 2)
    r.take(header_len - 6, "header padding")

    notes: list[RawNote] = []
    unclosed = drums = 0
    track_index = 0
    while r.remaining() > 0:
        chunk_id = r.take(4, "chunk id")
        chunk_len = r.u32("chunk length")
        if chunk_id != b"MTrk":
            # Unknown chunk types are legal between tracks; skip them whole.
            r.take(chunk_len, "unknown chunk body")
            continue
        track_end = r.pos + chunk_len
        if track_end > len(data):
            raise MidiParseError("track chunk overruns file", r.pos - 4)
        r.end = track_end
        got, n_open, n_drums = _parse_track(r, track_end, track_index, include_drums)
        r.end = len(data)
        notes.extend(got)
        unclosed += n_open
        drums += n_drums
        track_index += 1

    if track_index != declared_tracks:
        raise MidiParseError(
            f"header declared {declared_tracks} tracks, found {track_index}", r.pos
        )
    return ParsedMidi(tuple(notes), division, fmt, unclosed, drums)


def _parse_track(
    r: _Reader, track_end: int, track_index: int, include_drums: bool
) -> tuple[list[RawNote], int, int]:
    notes: list[RawNote] = []
    drums = 0
    # FIFO queues of (onset_tick, program) keyed by (channel, pitch).
    open_notes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    programs = [0] * 16
    tick = 0
    running_status = 0

    def close(key: tuple[int, int], off_tick: int) -> None:
        nonlocal drums
        onset, program = open_notes[key].pop(0)
        if not open_notes[key]:
            del open_notes[key]
        channel, pitch = key
        if channel == DRUM_CHANNEL and not include_drums:
            drums += 1
            return
        notes.append(
            RawNote(onset, max(1, off_tick - onset), pitch, program, track_index)
        )

    while r.pos < track_end:
        tick += r.varint()
        status_off = r.pos
        first = r.u8("event status")
        if first & 0x80:
            status = first
        else:
            if running_status == 0:
                raise MidiParseError("data byte without running status", status_off)
            status = running_status
            r.pos = status_off  # re-read as a data byte below

        if status == 0xFF:
            meta_type = r.u8("meta type")
            length = r.varint()
            r.take(length, "meta payload")
            running_status = 0
            if meta_type == 0x2F:
                break  # end of track; any padding is skipped after the loop
            continue
        if status in (0xF0, 0xF7):
            length = r.varint()
            r.take(length, "sysex payload")
            running_status = 0
            continue
        if status >= 0xF0:
            raise MidiParseError(f"unexpected status 0x{status:02x}", status_off)

        running_status = status
        kind = status & 0xF0
        channel = status & 0x0F
        if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
            a = r.data_byte("first data byte")
            b = r.data_byte("second data byte")
        else:  # 0xC0 program change, 0xD0 channel pressure
            a = r.data_byte("data byte")
            b = 0

        if kind == 0xC0:
            programs[channel] = a
        elif kind == 0x90 and b > 0:
            open_notes.setdefault((channel, a), []).append((tick, programs[channel]))
        elif kind == 0x80 or (kind == 0x90 and b == 0):
            key = (channel, a)
            if key in open_notes:
                close(key, tick)
            # A note-off with nothing open is harmless noise; drop it.

    r.pos = track_end
    n_open = sum(
        len(v)
        for (channel, _), v in open_notes.items()
        if include_drums or channel != DRUM_CHANNEL
    )
    for key in sorted(open_notes):
        while key in open_notes:
            close(key, tick)
    return notes, n_open, drums


def reference_quantize(notes, ticks_per_beat: int, grid) -> tuple[list[QuantNote], int, int]:
    """Note by note in Python integers: (notes, dropped, clipped)."""
    out, dropped, clipped = [], 0, 0
    res = grid.resolution
    for note in notes:
        steps = round_half_away(note.onset_ticks * res, ticks_per_beat)
        beat, position = divmod(steps, res)
        if beat >= grid.max_beat:
            dropped += 1
            continue
        duration = round_half_away(note.duration_ticks * res, ticks_per_beat)
        clipped += duration > grid.max_duration
        duration = min(max(duration, 1), grid.max_duration)
        out.append(QuantNote(beat, position, note.pitch, duration, note.program))
    return out, dropped, clipped
