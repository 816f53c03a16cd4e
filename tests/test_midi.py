from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import midibuild
from conftest import (
    ACCOMP_NOTES,
    GOLDEN_QUANT_ACCOMP,
    GOLDEN_QUANT_MELODY,
    MELODY_NOTES,
)
from duetflow.grid import GridSpec, round_half_away
from duetflow.midi import (
    DRUM_CHANNEL,
    IneligiblePieceError,
    MidiParseError,
    ParsedMidi,
    Piece,
    QuantNote,
    RawNote,
    as_track,
    build_piece,
    merge_tracks,
    parse_midi,
    piece_from_bytes,
    quantize,
    split_tracks,
    track_from_text,
    track_to_text,
)
from reference_midi import reference_parse_midi, reference_quantize


def test_round_half_away_exact_cases() -> None:
    assert round_half_away(240, 480) == 1   # 0.5 rounds away from zero
    assert round_half_away(239, 480) == 0
    assert round_half_away(720, 480) == 2   # 1.5 rounds up
    assert round_half_away(960, 480) == 2
    assert round_half_away(0, 480) == 0


def test_parse_single_note() -> None:
    track = midibuild.note_track([(0, 480, 60)])
    parsed = parse_midi(midibuild.build([track]))
    assert parsed.ticks_per_beat == 480
    assert parsed.notes.tolist() == [[0, 480, 60, 0, 0]]
    assert parsed.unclosed_notes == 0


def test_parse_zero_note_file() -> None:
    track = midibuild.Track().tempo(0).end()
    parsed = parse_midi(midibuild.build([track], fmt=0))
    assert parsed.notes.shape == (0, 5)
    assert parsed.format_type == 0


def test_parse_golden_two_tracks(golden_midi: bytes) -> None:
    parsed = parse_midi(golden_midi)
    track_index = parsed.notes[:, 4]
    assert parsed.notes[track_index == 0].tolist() == [
        [onset, duration, pitch, 5, 0] for onset, duration, pitch in MELODY_NOTES
    ]
    assert parsed.notes[track_index == 1].tolist() == [
        [onset, duration, pitch, 33, 1] for onset, duration, pitch in ACCOMP_NOTES
    ]


def test_golden_quantization_bit_exact(golden_midi: bytes, grid: GridSpec) -> None:
    piece = piece_from_bytes(golden_midi, "golden", grid)
    assert len(piece.tracks) == 2
    assert np.array_equal(piece.tracks[0], GOLDEN_QUANT_MELODY)
    assert np.array_equal(piece.tracks[1], GOLDEN_QUANT_ACCOMP)
    assert piece.dropped_notes == 0
    assert piece.unclosed_notes == 0


def test_program_change_tracked_per_channel() -> None:
    track = midibuild.Track()
    track.program(0, 10, channel=0)
    track.program(0, 20, channel=1)
    track.note_on(0, 60, channel=0).note_off(100, 60, channel=0)
    track.note_on(0, 62, channel=1).note_off(100, 62, channel=1)
    track.program(0, 11, channel=0)
    track.note_on(0, 64, channel=0).note_off(100, 64, channel=0)
    track.end()
    parsed = parse_midi(midibuild.build([track], fmt=0))
    assert parsed.notes[:, 2:4].tolist() == [[60, 10], [62, 20], [64, 11]]


def test_velocity_zero_note_on_closes() -> None:
    track = midibuild.Track()
    track.note_on(0, 60, velocity=80)
    track.note_on(100, 60, velocity=0)  # acts as a note-off
    track.end()
    parsed = parse_midi(midibuild.build([track], fmt=0))
    assert parsed.notes.tolist() == [[0, 100, 60, 0, 0]]


def test_running_status() -> None:
    track = midibuild.Track()
    track.raw(0, bytes([0x90, 60, 80]))
    track.raw(10, bytes([62, 80]))        # running status: still note-on
    track.raw(10, bytes([60, 0]))         # velocity 0 via running status
    track.raw(10, bytes([62, 0]))
    track.end()
    parsed = parse_midi(midibuild.build([track], fmt=0))
    assert parsed.notes.tolist() == [[0, 20, 60, 0, 0], [10, 20, 62, 0, 0]]


def test_overlapping_same_pitch_fifo() -> None:
    # Two overlapping notes of the same pitch: the first off closes the
    # earliest open onset.
    track = midibuild.Track()
    track.note_on(0, 60)
    track.note_on(100, 60)
    track.note_off(50, 60)   # tick 150 closes the tick-0 note
    track.note_off(100, 60)  # tick 250 closes the tick-100 note
    track.end()
    parsed = parse_midi(midibuild.build([track], fmt=0))
    assert parsed.notes.tolist() == [[0, 150, 60, 0, 0], [100, 150, 60, 0, 0]]


def test_unmatched_note_on_closes_at_track_end() -> None:
    track = midibuild.Track()
    track.note_on(0, 60)
    track.note_off(100, 60)
    track.note_on(0, 64)     # never released
    track.end(50)
    parsed = parse_midi(midibuild.build([track], fmt=0))
    assert parsed.unclosed_notes == 1
    assert [100, 50, 64, 0, 0] in parsed.notes.tolist()


def test_notes_open_at_track_end_close_in_channel_then_pitch_order() -> None:
    track = midibuild.Track()
    track.program(0, 7, channel=2).program(0, 9, channel=1)
    track.note_on(0, 10, channel=2)   # opened first, on the higher channel
    track.note_on(5, 100, channel=1)
    track.note_on(5, 10, channel=1)
    track.note_on(0, 60, channel=0).note_off(20, 60, channel=0)
    track.end(30)
    data = midibuild.build([track], fmt=0)
    parsed = parse_midi(data)
    assert parsed.unclosed_notes == 3
    assert parsed.notes.tolist() == [
        [10, 20, 60, 0, 0],    # closed by its note-off
        [10, 50, 10, 9, 0],    # channel 1, pitch 10
        [5, 55, 100, 9, 0],    # channel 1, pitch 100
        [0, 60, 10, 7, 0],     # channel 2, pitch 10
    ]
    assert parsed.notes.dtype == np.int64 and parsed.notes.shape == (4, 5)
    assert not parsed.notes.flags.writeable
    assert reference_parse_midi(data) == parsed


def test_deltas_of_one_byte_and_more_parse() -> None:
    track = midibuild.Track()
    onsets, tick = [], 0
    for delta in (0, 0x7F, 0x80, 0x3FFF, 0x4000, 0x0FFFFFFF):  # 1 to 4 bytes
        track.note_on(delta, 60).note_off(1, 60)
        onsets.append(tick + delta)
        tick += delta + 1
    track.end()
    data = midibuild.build([track], fmt=0)
    parsed = parse_midi(data)
    assert parsed.notes.tolist() == [[t, 1, 60, 0, 0] for t in onsets]
    assert reference_parse_midi(data) == parsed


def test_delta_cut_off_at_its_chunk_end_is_truncated() -> None:
    # A two-byte delta whose second byte would be the next chunk's first.
    first = midibuild.note_track([(0, 480, 60)])
    body = first.data()[8:-4] + bytes([0x81])  # no end-of-track, a cut delta
    short = b"MTrk" + len(body).to_bytes(4, "big") + body
    second = midibuild.note_track([(0, 480, 48)])
    data = midibuild.build([first, second])[:14] + short + second.data()
    track_end = 14 + len(short)
    with pytest.raises(MidiParseError) as err:
        parse_midi(data)
    assert str(err.value) == f"truncated variable-length quantity (at byte {track_end})"
    assert err.value.offset == track_end
    assert _parse_outcome(reference_parse_midi, data, False) == (str(err.value), track_end)


def test_drum_channel_excluded_by_default() -> None:
    track = midibuild.Track()
    track.note_on(0, 36, channel=9).note_off(100, 36, channel=9)
    track.note_on(0, 60, channel=0).note_off(100, 60, channel=0)
    track.end()
    data = midibuild.build([track], fmt=0)
    assert parse_midi(data).notes[:, 2].tolist() == [60]
    both = parse_midi(data, include_drums=True)
    assert sorted(both.notes[:, 2].tolist()) == [36, 60]


def test_parse_errors_carry_byte_offset() -> None:
    with pytest.raises(MidiParseError) as err:
        parse_midi(b"RIFF" + bytes(20))
    assert err.value.offset == 0
    assert "byte 0" in str(err.value)

    good = midibuild.build([midibuild.note_track([(0, 10, 60)])])
    with pytest.raises(MidiParseError) as err:
        parse_midi(good[:10])  # truncated header
    assert err.value.offset == 10

    smpte = bytearray(good)
    smpte[12] = 0xE7  # division with the SMPTE bit set
    with pytest.raises(MidiParseError, match="SMPTE"):
        parse_midi(bytes(smpte))

    fmt2 = bytearray(good)
    fmt2[9] = 2
    with pytest.raises(MidiParseError, match="format"):
        parse_midi(bytes(fmt2))


def test_track_count_mismatch_rejected() -> None:
    track = midibuild.note_track([(0, 10, 60)])
    data = midibuild.build([track])
    declared_two = bytearray(data)
    declared_two[11] = 2
    with pytest.raises(MidiParseError, match="tracks"):
        parse_midi(bytes(declared_two))


def test_unknown_chunk_skipped() -> None:
    track = midibuild.note_track([(0, 10, 60)])
    header = midibuild.build([], ticks_per_beat=480)
    header = header[:10] + (1).to_bytes(2, "big") + header[12:]
    alien = b"XFIh" + (4).to_bytes(4, "big") + b"\xde\xad\xbe\xef"
    parsed = parse_midi(header + alien + track.data())
    assert len(parsed.notes) == 1


def _parse_outcome(parse, data: bytes, include_drums: bool):
    """What a reader gave: the parsed file, or its error's message and offset."""
    try:
        return parse(data, include_drums=include_drums)
    except MidiParseError as exc:
        return str(exc), exc.offset


def _mutation_bases() -> list[bytes]:
    running = midibuild.Track()
    running.raw(0, bytes([0x90, 60, 80])).raw(10, bytes([62, 80]))
    running.raw(10, bytes([60, 0])).raw(10, bytes([62, 0])).end()
    mixed = midibuild.Track()
    mixed.program(0, 10).tempo(0)
    mixed.note_on(0, 36, channel=9).note_off(100, 36, channel=9)
    mixed.note_on(0, 60).note_off(100, 60).end()
    duet = [
        midibuild.note_track(MELODY_NOTES, channel=0, program=5, with_tempo=True),
        midibuild.note_track(ACCOMP_NOTES, channel=1, program=33),
    ]
    # A sysex message (F0) and a sysex escape (F7) around a note; each
    # clears the running status.
    sysex = midibuild.Track()
    sysex.raw(0, bytes([0xF0, 0x03, 0x43, 0x12, 0xF7])).note_on(0, 60)
    sysex.raw(10, bytes([0xF7, 0x02, 0x01, 0x02])).note_off(10, 60).end()
    return [
        midibuild.build(duet),
        midibuild.build([running], fmt=0),
        midibuild.build([mixed], fmt=0),
        midibuild.build([sysex], fmt=0),
    ]


MUTATION_BASES = _mutation_bases()


@settings(max_examples=1000, deadline=None)
@given(
    st.sampled_from(MUTATION_BASES),
    st.lists(
        st.tuples(st.sampled_from(["flip", "insert", "delete"]), st.integers(0), st.integers(1, 255)),
        min_size=1,
        max_size=3,
    ),
    st.booleans(),
)
def test_mutated_file_parses_or_raises_parse_error(
    base: bytes, mutations, include_drums: bool
) -> None:
    data = bytearray(base)
    for kind, at, value in mutations:
        if kind == "flip":
            data[at % len(data)] ^= value
        elif kind == "insert":
            data.insert(at % (len(data) + 1), value - 1)
        else:
            del data[at % len(data)]
    data = bytes(data)
    # The same notes, or the same error at the same byte, as the reference.
    got = _parse_outcome(parse_midi, data, include_drums)
    assert got == _parse_outcome(reference_parse_midi, data, include_drums)
    try:
        piece = piece_from_bytes(data, "mutated", GridSpec())
    except MidiParseError:
        return
    assert isinstance(piece, Piece)


def test_truncated_golden_file_matches_reference_reader(golden_midi: bytes) -> None:
    for cut in range(len(golden_midi) + 1):
        data = golden_midi[:cut]
        got = _parse_outcome(parse_midi, data, False)
        assert got == _parse_outcome(reference_parse_midi, data, False), cut


def test_event_crossing_its_chunk_end_is_truncated() -> None:
    # The first chunk declares one byte less than its events take: the
    # end-of-track event's length byte lies past the chunk's end. Read on
    # into the next chunk, that byte would be its "M" (a 77-byte payload).
    first = midibuild.note_track([(0, 480, 60)])
    second = midibuild.note_track([(i * 480, 480, 48 + i) for i in range(16)])
    assert len(second.data()) > 8 + 77
    body = first.data()[8:-1]
    short = b"MTrk" + len(body).to_bytes(4, "big") + body
    data = midibuild.build([first, second])[:14] + short + second.data()
    track_end = 14 + len(short)
    with pytest.raises(MidiParseError) as err:
        parse_midi(data)
    assert str(err.value) == f"truncated variable-length quantity (at byte {track_end})"
    assert err.value.offset == track_end
    assert _parse_outcome(reference_parse_midi, data, False) == (str(err.value), track_end)


def _chunk(body: bytes) -> bytes:
    return b"MTrk" + len(body).to_bytes(4, "big") + body


_TRACK = midibuild.note_track([(0, 480, 48)])
_END_OF_TRACK = bytes([0x00, 0xFF, 0x2F, 0x00])


def _file(*chunks: bytes, ticks_per_beat: int = 480) -> bytes:
    """A format 1 header declaring one track a chunk, then the chunks."""
    return midibuild.build([_TRACK] * len(chunks), ticks_per_beat)[:14] + b"".join(chunks)


@pytest.mark.parametrize(
    "data, message, offset",
    [
        (_file(_TRACK.data(), ticks_per_beat=0), "zero ticks per beat", 12),
        # The first four bytes of the delta at byte 22 all say more follows.
        (
            _file(_chunk(bytes([0x81, 0x80, 0x80, 0x80, 0x00, 0x90, 60, 80]))),
            "variable-length quantity longer than 4 bytes",
            25,
        ),
        (_file(_chunk(bytes([0x00, 0xF1]) + _END_OF_TRACK)), "unexpected status 0xf1", 23),
        # A program change whose data byte would be the next chunk's "M".
        (_file(_chunk(bytes([0x00, 0xC0])), _TRACK.data()), "truncated data byte", 24),
    ],
)
def test_malformed_files_are_refused_as_the_reference_refuses(data, message, offset) -> None:
    with pytest.raises(MidiParseError) as err:
        parse_midi(data)
    assert (str(err.value), err.value.offset) == (f"{message} (at byte {offset})", offset)
    assert _parse_outcome(reference_parse_midi, data, False) == (str(err.value), offset)


def test_sysex_events_are_skipped() -> None:
    data = MUTATION_BASES[-1]
    parsed = parse_midi(data)
    assert parsed.notes.tolist() == [[0, 20, 60, 0, 0]]
    assert reference_parse_midi(data) == parsed


def test_drum_notes_left_out_are_counted(grid: GridSpec) -> None:
    drums = midibuild.Track()
    for i in range(7):
        pitch = 36 + i % 3
        drums.note_on(120, pitch, channel=DRUM_CHANNEL).note_off(120, pitch, channel=DRUM_CHANNEL)
    # A drum note never closed counts once, as a drum left out.
    drums.note_on(0, 38, channel=DRUM_CHANNEL).end(480)
    melody = midibuild.note_track([(0, 480, 60), (480, 480, 62)])
    data = midibuild.build([melody, drums])
    parsed = parse_midi(data)
    assert (parsed.drum_notes, parsed.unclosed_notes) == (8, 0)
    assert len(parsed.notes) == 2
    assert reference_parse_midi(data) == parsed
    piece = piece_from_bytes(data, "drums", grid)
    assert piece.drum_notes == 8
    assert len(piece.tracks) == 1
    with_drums = piece_from_bytes(data, "drums", grid, include_drums=True)
    assert (with_drums.drum_notes, with_drums.unclosed_notes) == (0, 1)
    assert len(with_drums.tracks) == 2


def test_quantize_drops_beyond_max_beat() -> None:
    grid = GridSpec(resolution=12, max_beat=4, max_duration=96)
    notes = [RawNote(0, 480, 60, 0, 0), RawNote(4 * 480, 480, 62, 0, 0)]
    quant, dropped, _ = quantize(notes, 480, grid)
    assert dropped == 1
    assert quant[:, 2].tolist() == [60]


def test_quantize_duration_clamps() -> None:
    grid = GridSpec(resolution=12, max_beat=1024, max_duration=24)
    notes = (RawNote(0, 9600, 60, 0, 0), RawNote(0, 1, 61, 0, 0))
    quant, _, clipped = quantize(notes, 480, grid)
    assert quant[0, 3] == 24
    assert quant[1, 3] == 1
    assert clipped == 1
    piece = build_piece(ParsedMidi(notes, 480, 1, 0, 0), grid, "clip")
    assert piece.clipped_notes == 1
    assert piece.dropped_notes == 0


@given(
    st.lists(
        st.tuples(st.integers(0, 400), st.integers(1, 60), st.integers(0, 127)),
        min_size=0,
        max_size=30,
    )
)
def test_quantize_idempotent_on_aligned_input(triples) -> None:
    # With one tick per position, tick values are already grid-aligned, so a
    # second pass through quantization is the identity.
    grid = GridSpec(resolution=12, max_beat=64, max_duration=96)
    raw = [RawNote(t * 12 + p % 12, d, p, 0, 0) for t, d, p in triples]
    once, _, _ = quantize(raw, 12, grid)
    back = [
        RawNote(beat * 12 + position, duration_steps, pitch, program, 0)
        for beat, position, pitch, duration_steps, program in once.tolist()
    ]
    twice, _, _ = quantize(back, 12, grid)
    assert np.array_equal(once, twice)



ticks = st.one_of(st.integers(0, 5000), st.integers(0, 2**63 - 1))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.builds(RawNote, ticks, ticks, st.integers(0, 127), st.integers(0, 127), st.just(0)),
        max_size=20,
    ),
    st.one_of(st.just(1), st.integers(1, 2000), st.integers(1, 2**45 - 1)),
    st.builds(
        GridSpec,
        resolution=st.integers(1, 48),
        # Up to the widest grids: 262 + 60000 + 48 + 5000 values is below 2**16.
        max_beat=st.one_of(st.integers(1, 2000), st.integers(1, 60000)),
        max_duration=st.one_of(st.integers(1, 200), st.integers(1, 5000)),
    ),
)
def test_quantize_matches_per_note_reference(notes, ticks_per_beat, grid) -> None:
    # Ticks up to 2**63 - 1 fit int64 but their products with the resolution
    # do not: whole beats and the rest keep every product inside it. Ticks
    # of 2**63 and above do not fit.
    quant, dropped, clipped = quantize(notes, ticks_per_beat, grid)
    want, want_dropped, want_clipped = reference_quantize(notes, ticks_per_beat, grid)
    assert quant.dtype == np.int64
    assert quant.tolist() == [list(n) for n in want]
    assert (dropped, clipped) == (want_dropped, want_clipped)
    if notes:
        wide = [notes[0]._replace(onset_ticks=2**63 + notes[0].onset_ticks), *notes[1:]]
        with pytest.raises(ValueError, match="fit in int64"):
            quantize(wide, ticks_per_beat, grid)


def test_quantize_checks_an_array_as_it_checks_rawnotes(grid: GridSpec) -> None:
    notes = [RawNote(0, 480, 60, 0, 0), RawNote(240, 120, 62, 1, 0)]
    want = quantize(notes, 480, grid)
    got = quantize(np.array(notes), 480, grid)
    assert got[0].tolist() == want[0].tolist() and got[1:] == want[1:]
    for wide in ([[2**70, 1, 60, 0, 0]], [[0, 1, 2**70, 0, 0]]):
        with pytest.raises(ValueError, match="^note fields must fit in int64$"):
            quantize([RawNote(*wide[0])], 480, grid)
        with pytest.raises(ValueError, match="^note fields must fit in int64$"):
            quantize(np.array(wide, dtype=object), 480, grid)
    with pytest.raises(ValueError, match="^note field 0.5 is not an integer$"):
        quantize(np.array([[0.5, 480.0, 60, 0, 0]]), 480, grid)
    # A RawNote field that is not an integer is refused, not truncated.
    for note, bad in ((RawNote(0.5, 480.7, 60, 0, 0), "0.5"), (RawNote(0, 480, 60.9, 0, 0), "60.9")):
        with pytest.raises(ValueError, match=f"^note field {bad} is not an integer$"):
            quantize([notes[0], note], 480, grid)


def test_quantize_refuses_a_ticks_per_beat_it_cannot_use(grid: GridSpec) -> None:
    notes = [RawNote(240, 480, 60, 0, 0)]
    for bad in (480.5, 480.0, "480", None, 0, -480):
        with pytest.raises(ValueError, match="^ticks_per_beat must be a positive integer$"):
            quantize(notes, bad, grid)
    with pytest.raises(ValueError, match=r"^ticks_per_beat must be below 2\*\*45"):
        quantize(notes, 2**45, grid)
    assert quantize(notes, np.int16(480), grid)[0].tolist() == quantize(notes, 480, grid)[0].tolist()
    assert quantize(notes, 2**45 - 1, grid)[0].tolist() == [[0, 0, 60, 1, 0]]


def test_quantize_refuses_negative_ticks(grid: GridSpec) -> None:
    for note in (RawNote(-1, 5, 60, 0, 0), RawNote(0, -5, 60, 0, 0)):
        with pytest.raises(ValueError, match="^note ticks must not be negative$"):
            quantize([RawNote(0, 480, 60, 0, 0), note], 480, grid)
        with pytest.raises(ValueError, match="^note ticks must not be negative$"):
            quantize(np.array([note]), 480, grid)


def test_as_track_takes_any_integer_rows_once() -> None:
    track = as_track([QuantNote(0, 1, 60, 2, 3), (1, 0, 62, 1, 3)])
    assert track.dtype == np.int64 and track.shape == (2, 5)
    assert track.tolist() == [[0, 1, 60, 2, 3], [1, 0, 62, 1, 3]]
    with pytest.raises(ValueError):
        track[0, 0] = 5
    assert as_track(track) is track  # a track is taken as it is
    mutable = np.array(track)
    assert as_track(mutable) is not mutable  # anything else is copied
    assert as_track([]).shape == as_track(()).shape == (0, 5)
    with pytest.raises(ValueError, match="5 integer fields"):
        as_track([(0, 0, 60, 1)])
    with pytest.raises(ValueError, match="is not an integer"):
        as_track([(0, 0, 60.0, 1, 0)])
    with pytest.raises(ValueError, match="fit in int64"):
        as_track([(0, 0, 60, 1, 2**63)])


def test_pieces_compare_by_value(grid: GridSpec) -> None:
    a = Piece("p", grid, ([QuantNote(0, 0, 60, 1, 0)],))
    assert a == Piece("p", grid, (np.array([[0, 0, 60, 1, 0]]),))
    assert a != Piece("p", grid, ([QuantNote(0, 0, 61, 1, 0)],))
    assert a != Piece("p", grid, ([QuantNote(0, 0, 60, 1, 0)],), clipped_notes=1)


note_strategy = st.builds(
    QuantNote,
    beat=st.integers(0, 30),
    position=st.integers(0, 11),
    pitch=st.integers(0, 127),
    duration_steps=st.integers(1, 96),
    program=st.integers(0, 127),
)


@given(st.lists(note_strategy, max_size=25), st.lists(note_strategy, max_size=25))
def test_merge_commutative(xs, ys) -> None:
    assert np.array_equal(merge_tracks(xs, ys), merge_tracks(ys, xs))


@given(
    st.lists(note_strategy, max_size=15),
    st.lists(note_strategy, max_size=15),
    st.lists(note_strategy, max_size=15),
)
def test_merge_associative(xs, ys, zs) -> None:
    assert np.array_equal(
        merge_tracks(merge_tracks(xs, ys), zs), merge_tracks(xs, merge_tracks(ys, zs))
    )


def test_merge_orders_same_onset_by_pitch() -> None:
    a = [QuantNote(0, 0, 64, 4, 0)]
    b = [QuantNote(0, 0, 60, 4, 0)]
    merged = merge_tracks(a, b)
    assert merged[:, 2].tolist() == [60, 64]


def test_merge_keeps_duplicates() -> None:
    n = QuantNote(1, 3, 60, 4, 0)
    assert np.array_equal(merge_tracks([n], [n]), (n, n))


def test_split_tracks_requires_exactly_two(grid: GridSpec) -> None:
    one = Piece("solo-file", grid, ((QuantNote(0, 0, 60, 1, 0),),))
    with pytest.raises(IneligiblePieceError, match="solo-file"):
        split_tracks(one)
    empty = Piece("empty-file", grid, ())
    with pytest.raises(IneligiblePieceError, match="empty-file"):
        split_tracks(empty)
    hollow = Piece("hollow-file", grid, (one.tracks[0], ()))
    with pytest.raises(IneligiblePieceError, match=r"hollow-file.*notes per track \[1, 0\]"):
        split_tracks(hollow)


def test_build_piece_drops_empty_tracks(grid: GridSpec) -> None:
    conductor = midibuild.Track().tempo(0).end()
    notes = midibuild.note_track([(0, 480, 60), (480, 480, 64)])
    other = midibuild.note_track([(0, 480, 40)], channel=2, program=7)
    data = midibuild.build([conductor, notes, other])
    piece = build_piece(parse_midi(data), grid, "threetrack")
    assert len(piece.tracks) == 2  # the conductor track vanished


@given(st.lists(note_strategy, max_size=30))
def test_track_text_round_trip(notes) -> None:
    track = tuple(sorted(notes))
    assert track_from_text(track_to_text(track)).tolist() == list(map(list, track))


def test_track_text_rejects_bad_lines() -> None:
    with pytest.raises(ValueError, match="line 1"):
        track_from_text("1 2 3\n")
    with pytest.raises(ValueError, match="line 2"):
        track_from_text("0 0 60 4 0\n0 0 -3 4 0\n")
    # Every line is read before signs are checked: a malformed or wide value
    # on a later line is named before a negative field on an earlier one.
    with pytest.raises(ValueError, match="^line 2: expected 5 integers, got 4$"):
        track_from_text("0 0 -3 4 0\n0 0 60 4\n")
    with pytest.raises(ValueError, match=rf"^line 3: {2**64} does not fit in int64$"):
        track_from_text(f"0 0 60 4 0\n0 0 -3 4 0\n0 0 60 4 {2**64}\n")


def test_track_text_names_the_line_of_a_value_beyond_int64() -> None:
    with pytest.raises(ValueError, match=rf"^line 2: {2**64} does not fit in int64$"):
        track_from_text(f"0 0 60 4 0\n0 0 60 {2**64} {2**70}\n")
    assert track_from_text(f"0 0 60 4 {2**63 - 1}\n").tolist() == [[0, 0, 60, 4, 2**63 - 1]]


def test_grid_spec_rejects_non_positive_bounds() -> None:
    with pytest.raises(ValueError):
        GridSpec(resolution=0)
    with pytest.raises(ValueError):
        GridSpec(max_beat=0)
    with pytest.raises(ValueError):
        GridSpec(max_duration=-1)
    assert GridSpec(resolution=4, max_beat=8).steps == 32


@given(st.integers(0, 10**6), st.integers(1, 10**4))
def test_round_half_away_matches_decimal_semantics(a: int, b: int) -> None:
    q = round_half_away(a, b)
    # q is the closest integer, with exact halves going up
    assert 2 * a - 2 * q * b < b   # a/b - q < 1/2
    assert 2 * q * b - 2 * a <= b  # q - a/b <= 1/2, equality at ties
    with pytest.raises(ValueError):
        round_half_away(-1, b)
    with pytest.raises(ValueError):
        round_half_away(a, 0)
