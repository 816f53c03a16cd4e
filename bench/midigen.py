"""Seeded two-track MIDI corpus for the benchmark, with its own file writer.

The corpus is music-like on purpose: every piece has its own key, tempo
resolution (ticks per beat), instrument programs and off-grid timing
jitter, so the trained model has a large, sparse working set. The second
track echoes the first one beat later, an octave down, which gives matched
pairs a real information flow that shuffled pairs lack.

A small fixed set of files that the reader must reject is kept apart from
the generated pieces; see ``rejection_fixtures``.
"""
from __future__ import annotations

import random

MELODY_PROGRAMS = (0, 40, 73)
ACCOMP_PROGRAMS = (32, 42, 48)
TICKS_PER_BEAT = (480, 384, 960)
MAJOR = (0, 2, 4, 5, 7, 9, 11)
# (onset, length) in beats of each rhythm cell; one cell fills one beat.
RHYTHMS = (
    ((0.0, 1.0),),
    ((0.0, 0.5), (0.5, 0.5)),
    ((0.0, 0.75), (0.75, 0.25)),
    ((0.0, 0.5), (0.5, 0.25), (0.75, 0.25)),
)


def vlq(value: int) -> bytes:
    """MIDI variable-length quantity."""
    if value < 0:
        raise ValueError("negative delta time")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def track_chunk(notes: list[tuple[int, int, int]], channel: int, program: int) -> bytes:
    """An MTrk chunk from absolute (onset_tick, duration_ticks, pitch) notes.

    At equal ticks note-offs come before note-ons, so a repeated pitch is
    closed before it is struck again.
    """
    events = [(0, 0, bytes([0xC0 | channel, program]))]
    for onset, duration, pitch in notes:
        events.append((onset, 2, bytes([0x90 | channel, pitch, 80])))
        events.append((onset + duration, 1, bytes([0x80 | channel, pitch, 0])))
    events.sort(key=lambda e: (e[0], e[1]))
    body = bytearray()
    tick = 0
    for at, _, payload in events:
        body += vlq(at - tick) + payload
        tick = at
    body += vlq(0) + b"\xff\x2f\x00"
    return b"MTrk" + len(body).to_bytes(4, "big") + bytes(body)


def midi_file(chunks: list[bytes], ticks_per_beat: int, fmt: int = 1) -> bytes:
    header = (
        b"MThd"
        + (6).to_bytes(4, "big")
        + fmt.to_bytes(2, "big")
        + len(chunks).to_bytes(2, "big")
        + ticks_per_beat.to_bytes(2, "big")
    )
    return header + b"".join(chunks)


def _melody(rng: random.Random, beats: int, root: int) -> list[tuple[float, float, int]]:
    """(onset_beats, length_beats, pitch) of a scale-wise random walk."""
    scale = [root + 12 * octave + step for octave in (0, 1) for step in MAJOR]
    degree = rng.randrange(3, 10)
    notes = []
    for beat in range(beats):
        for onset, length in rng.choice(RHYTHMS):
            degree = min(max(degree + rng.randrange(-2, 3), 0), len(scale) - 1)
            notes.append((beat + onset, length, scale[degree]))
    return notes


def _echo(melody: list[tuple[float, float, int]], beats: int) -> list[tuple[float, float, int]]:
    """Each beat plays the last melody pitch of the beat before, an octave down."""
    last_by_beat: dict[int, int] = {}
    for onset, _, pitch in melody:
        last_by_beat[int(onset)] = pitch
    return [(beat, 1.0, last_by_beat[beat - 1] - 12) for beat in range(1, beats)]


def _to_ticks(
    rng: random.Random, notes: list[tuple[float, float, int]], tpb: int
) -> list[tuple[int, int, int]]:
    """Beat times to ticks with off-grid jitter of up to a third of a grid step."""
    step = tpb // 12
    out = []
    for onset, length, pitch in notes:
        tick = round(onset * tpb) + rng.randint(-(step // 3), step // 3)
        dur = round(length * tpb) - rng.randint(0, step // 2)
        out.append((max(tick, 0), max(dur, 1), pitch))
    return out


def piece_bytes(seed: int, index: int, beats: int = 64) -> bytes:
    """One two-track piece; the same (seed, index) always gives the same bytes."""
    rng = random.Random(f"duetflow-bench/{seed}/{index}")
    tpb = rng.choice(TICKS_PER_BEAT)
    root = rng.randrange(55, 67)
    melody = _melody(rng, beats, root)
    accomp = _echo(melody, beats)
    return midi_file(
        [
            track_chunk(_to_ticks(rng, melody, tpb), 0, rng.choice(MELODY_PROGRAMS)),
            track_chunk(_to_ticks(rng, accomp, tpb), 1, rng.choice(ACCOMP_PROGRAMS)),
        ],
        tpb,
    )


def corpus(seed: int, start: int, count: int, beats: int = 64) -> list[tuple[str, bytes]]:
    """Named pieces ``start .. start + count - 1`` of the seed's corpus."""
    return [
        (f"piece-{i:05d}", piece_bytes(seed, i, beats)) for i in range(start, start + count)
    ]


def rejection_fixtures() -> list[tuple[str, bytes, str]]:
    """Fixed files the reader must refuse: (name, bytes, expected error name)."""
    good = piece_bytes(0, 0, beats=8)
    tpb = int.from_bytes(good[12:14], "big")
    truncated = good[: len(good) - 40]
    smpte = good[:12] + bytes([0xE7, 0x28]) + good[14:]
    three = midi_file(
        [
            track_chunk([(0, tpb, 60), (tpb, tpb, 62)], 0, 0),
            track_chunk([(0, tpb, 48)], 1, 32),
            track_chunk([(0, 2 * tpb, 40)], 2, 33),
        ],
        tpb,
    )
    return [
        ("reject-truncated-chunk", truncated, "MidiParseError"),
        ("reject-smpte-division", smpte, "MidiParseError"),
        ("reject-three-tracks", three, "IneligiblePieceError"),
    ]
