from __future__ import annotations

import pytest
import numpy as np
from hypothesis import given, settings, strategies as st

from duetflow.events import (
    N_FIELDS,
    Event,
    EventSequence,
    SequenceStructureError,
    decode,
    encode,
    seq_from_text,
    seq_to_text,
    sequences_from_notes,
    validate_sequence,
    vocab_sizes,
)
from duetflow.grid import GridSpec
from duetflow.midi import QuantNote, merge_tracks
from reference_events import (
    event_rows,
    reference_encode,
    reference_from_text,
    reference_to_text,
    reference_validate,
)

GRID = GridSpec()


def test_single_note_encoding_layout() -> None:
    seq = encode([[QuantNote(2, 5, 60, 10, 3)]], GRID)
    assert event_rows(seq) == [
        Event(0, 0, 0, 0, 0, 0),
        Event(1, 0, 0, 0, 0, 3),
        Event(2, 0, 0, 0, 0, 0),
        Event(3, 2, 5, 60, 10, 3),
        Event(4, 0, 0, 0, 0, 0),
    ]
    # the grid places this note at onset step beat * resolution + position
    assert 2 * GRID.resolution + 5 == 29


def test_header_is_sorted_distinct_programs() -> None:
    notes = [QuantNote(0, 0, 60, 1, 40), QuantNote(1, 0, 62, 1, 0), QuantNote(2, 0, 64, 1, 40)]
    seq = encode([notes], GRID)
    header = [e.instrument for e in event_rows(seq) if e.type == 1]
    assert header == [0, 40]


def test_header_independent_of_track_order() -> None:
    a = [QuantNote(0, 0, 60, 1, 7)]
    b = [QuantNote(0, 0, 40, 1, 2)]
    assert encode([a, b], GRID) == encode([b, a], GRID)


def test_encode_empty_rejected() -> None:
    with pytest.raises(ValueError, match="empty"):
        encode([[]], GRID)


def test_encode_checks_bounds() -> None:
    with pytest.raises(ValueError, match="beat"):
        encode([[QuantNote(GRID.max_beat, 0, 60, 1, 0)]], GRID)
    with pytest.raises(ValueError, match="duration"):
        encode([[QuantNote(0, 0, 60, 0, 0)]], GRID)


def test_vocab_sizes() -> None:
    assert vocab_sizes(GRID) == (5, 1024, 12, 128, 97, 128)


note_strategy = st.builds(
    QuantNote,
    beat=st.integers(0, 100),
    position=st.integers(0, 11),
    pitch=st.integers(0, 127),
    duration_steps=st.integers(1, 96),
    program=st.integers(0, 127),
)


@given(st.lists(note_strategy, min_size=1, max_size=40))
def test_encode_decode_identity_single(notes) -> None:
    seq = encode([notes], GRID)
    validate_sequence(seq)
    assert decode(seq) == tuple(sorted(notes))


@given(
    st.lists(note_strategy, min_size=1, max_size=20),
    st.lists(note_strategy, min_size=1, max_size=20),
)
def test_encode_decode_identity_merged(xs, ys) -> None:
    seq = encode([xs, ys], GRID)
    assert decode(seq) == merge_tracks(xs, ys)


@given(st.lists(note_strategy, min_size=1, max_size=30))
def test_text_round_trip(notes) -> None:
    seq = encode([notes], GRID)
    assert seq_from_text(seq_to_text(seq), GRID) == seq


def test_decode_names_first_offending_index() -> None:
    good = encode([[QuantNote(0, 0, 60, 4, 0), QuantNote(1, 0, 62, 4, 0)]], GRID)
    events = event_rows(good)
    events[3], events[4] = events[4], events[3]  # notes out of order
    with pytest.raises(SequenceStructureError) as err:
        decode(EventSequence(tuple(events), GRID))
    assert err.value.index == 4

    with pytest.raises(SequenceStructureError) as err:
        decode(EventSequence(good.events[1:], GRID))
    assert err.value.index == 0

    # stray field on an instrument event
    events = event_rows(good)
    events[1] = Event(1, 0, 0, 3, 0, 0)
    with pytest.raises(SequenceStructureError) as err:
        decode(EventSequence(tuple(events), GRID))
    assert err.value.index == 1

    # missing terminator
    with pytest.raises(SequenceStructureError):
        decode(EventSequence(good.events[:-1], GRID))

    # undeclared instrument on a note
    events = event_rows(good)
    events[3] = events[3]._replace(instrument=9)
    with pytest.raises(SequenceStructureError) as err:
        decode(EventSequence(tuple(events), GRID))
    assert err.value.index == 3


def test_seq_from_text_rejects_malformed() -> None:
    with pytest.raises(ValueError, match="line 1"):
        seq_from_text("0 0 0 0 0\n", GRID)
    with pytest.raises(SequenceStructureError):
        seq_from_text("3 0 0 60 1 0\n", GRID)


def test_split_shared_programs_flag() -> None:
    x = [QuantNote(0, 0, 60, 4, 7)]
    y = [QuantNote(1, 0, 40, 4, 7), QuantNote(2, 0, 41, 4, 9)]
    plain = encode([x, y], GRID)
    assert [e.instrument for e in event_rows(plain) if e.type == 1] == [7, 9]
    remapped = encode([x, y], GRID, split_shared_programs=True)
    assert [e.instrument for e in event_rows(remapped) if e.type == 1] == [7, 8, 9]
    programs = {e.pitch: e.instrument for e in event_rows(remapped) if e.type == 3}
    assert programs == {60: 7, 40: 8, 41: 9}


def test_sequences_from_notes_shapes() -> None:
    x = [QuantNote(0, 0, 60, 4, 0)]
    y = [QuantNote(0, 6, 45, 4, 8)]
    sx, sy, sxy = sequences_from_notes(x, y, GRID)
    assert sx.note_count == 1
    assert sy.note_count == 1
    assert sxy.note_count == 2
    assert [e.instrument for e in event_rows(sxy) if e.type == 1] == [0, 8]


# --- the whole-array event layer against the event-by-event reference ------

INT64_EDGES = (2**63 - 1, -(2**63))
WIDE = (2**63, -(2**63) - 1, 2**64, 2**70, -(2**70))

grids = st.builds(
    GridSpec,
    resolution=st.integers(1, 24),
    max_beat=st.integers(1, 40000),
    max_duration=st.integers(1, 200),
)
wild_value = st.one_of(
    st.integers(-3, 130), st.sampled_from(INT64_EDGES + WIDE), st.integers(-(2**70), 2**70)
)


def _outcome(fn, *args, **kwargs):
    """What a call gave: its rows, or its exception's type, message and index."""
    try:
        result = fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    return event_rows(result) if isinstance(result, EventSequence) else list(result)


@st.composite
def note_lists(draw):
    grid = draw(grids)
    programs = draw(st.lists(st.integers(0, 127), min_size=1, max_size=3))
    valid = st.builds(
        QuantNote,
        st.integers(0, min(grid.max_beat, 50) - 1),
        st.integers(0, grid.resolution - 1),
        st.integers(0, 127),
        st.integers(1, grid.max_duration),
        st.sampled_from(programs),
    )
    wild = st.builds(QuantNote, wild_value, wild_value, wild_value, wild_value, wild_value)
    note = st.one_of(valid, valid, valid, wild)
    tracks = [draw(st.lists(note, max_size=12)) for _ in range(draw(st.integers(0, 3)))]
    return tracks, grid, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(note_lists())
def test_encode_matches_reference(case):
    tracks, grid, split = case
    got = _outcome(encode, tracks, grid, split_shared_programs=split)
    want = _outcome(reference_encode, tracks, grid, split_shared_programs=split)
    assert got == want


@st.composite
def mutated_sequences(draw):
    """A valid encoding with a few field edits, row swaps, drops and insertions."""
    grid = draw(grids)
    notes = [
        QuantNote(
            draw(st.integers(0, min(grid.max_beat, 6) - 1)),
            draw(st.integers(0, min(grid.resolution, 3) - 1)),
            draw(st.integers(58, 62)),
            draw(st.integers(1, min(grid.max_duration, 3))),
            draw(st.sampled_from([0, 5, 127])),
        )
        for _ in range(draw(st.integers(1, 8)))
    ]
    rows = [list(e) for e in reference_encode([notes], grid)]
    edge_values = st.one_of(
        st.integers(-2, 130),
        st.sampled_from(
            INT64_EDGES + (grid.max_beat - 1, grid.max_beat, grid.resolution, grid.max_duration)
        ),
    )
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["edit", "swap", "drop", "insert"]))
        if kind == "insert":
            i = draw(st.integers(0, len(rows)))
            rows.insert(i, list(draw(st.sampled_from(rows))) if rows else [0] * 6)
            continue
        if not rows:
            continue
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "edit":
            rows[i][draw(st.integers(0, 5))] = draw(edge_values)
        elif kind == "swap":
            j = draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        else:
            del rows[i]
    return [Event(*r) for r in rows], grid


@settings(max_examples=500, deadline=None)
@given(mutated_sequences())
def test_validate_matches_reference(case):
    events, grid = case
    seq = EventSequence(events, grid)
    got = _outcome(lambda: validate_sequence(seq) or ())
    want = _outcome(lambda: reference_validate(events, grid) or ())
    assert got == want
    if want == []:
        assert event_rows(seq) == events
        assert seq_to_text(seq) == reference_to_text(events)


@settings(max_examples=200, deadline=None)
@given(grids, st.lists(st.tuples(*[st.integers(-(2**63), 2**63 - 1)] * 6), max_size=6))
def test_to_text_matches_reference_on_any_int64_rows(grid, rows):
    events = [Event(*r) for r in rows]
    assert seq_to_text(EventSequence(events, grid)) == reference_to_text(events)


TEXT_EDITS = ["drop", "extra", "blank", "crlf", "tab", "plus", "word", "float", "wide", "spaces"]


@st.composite
def mutated_texts(draw):
    events, grid = draw(mutated_sequences())
    lines = reference_to_text(events).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        t = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(TEXT_EDITS))
        if edit == "drop":
            del tokens[t]
        elif edit == "extra":
            tokens.insert(t, "0")
        elif edit == "blank":
            lines.insert(i, draw(st.sampled_from(["", " ", "\t"])))
            continue
        elif edit == "plus":
            tokens[t] = "+" + tokens[t].lstrip("-")
        elif edit == "word":
            tokens[t] = draw(st.sampled_from(["x", "1x", "--1", "0x10", ""]))
        elif edit == "float":
            tokens[t] = "1.5"
        elif edit == "wide":
            tokens[t] = str(draw(st.sampled_from(WIDE)))
        elif edit == "spaces":
            tokens[t] = f"  {tokens[t]} "
        sep = "\t" if edit == "tab" else " "
        lines[i] = sep.join(tokens) + ("\r" if edit == "crlf" else "")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n", "\n\n"])), grid


@settings(max_examples=500, deadline=None)
@given(mutated_texts(), st.booleans())
def test_from_text_matches_reference(case, validate):
    text, grid = case
    got = _outcome(seq_from_text, text, grid, validate=validate)
    want = _outcome(reference_from_text, text, grid, validate=validate)
    wide = isinstance(want, list) and any(abs(v) >= 2**63 and v != -(2**63) for e in want for v in e)
    if wide:
        # The reference keeps integers beyond int64 when it does not
        # validate; an int64 array cannot, so the reader names the line.
        assert not validate
        assert got[0] is ValueError and got[1].endswith("does not fit in int64")
        assert got[1].startswith("line ")
    else:
        assert got == want


def test_text_reader_reports_wide_integers_by_line_or_by_event():
    seq = encode([[QuantNote(0, 0, 60, 1, 0)]], GRID)
    lines = seq_to_text(seq).splitlines()
    lines[3] = f"3 {2**70} 0 60 1 0"
    text = "\n".join(lines) + "\n"
    with pytest.raises(ValueError, match=rf"^line 4: {2**70} does not fit in int64$"):
        seq_from_text(text, GRID, validate=False)
    with pytest.raises(SequenceStructureError, match=rf"^event 3: beat {2**70} outside"):
        seq_from_text(text, GRID)


def test_encode_refuses_non_integer_fields():
    for bad in (60.5, 60.0, "60", None):
        with pytest.raises(ValueError, match="is not an integer"):
            encode([[QuantNote(0, 0, bad, 1, 0)]], GRID)
    with pytest.raises(ValueError, match="5 integer fields"):
        encode([[(0, 0, 60, 1)]], GRID)
    numpy_ints = QuantNote(*np.array([0, 1, 60, 2, 3], dtype=np.int32))
    assert decode(encode([[numpy_ints]], GRID)) == (QuantNote(0, 1, 60, 2, 3),)
    wide = QuantNote(0, 0, 60, 1, 2**70)
    with pytest.raises(ValueError, match=rf"^program {2**70} outside \[0, 128\)$"):
        encode([[wide, QuantNote(0, 0, 60, 1, 0)]], GRID)


def test_sequence_is_one_read_only_array_with_plain_bool_equality():
    seq = encode([[QuantNote(0, 0, 60, 1, 0), QuantNote(1, 0, 62, 1, 0)]], GRID)
    assert seq.events.shape == (len(seq), N_FIELDS) == (6, N_FIELDS)
    assert seq.events.dtype == np.int64
    with pytest.raises(ValueError):
        seq.events[0, 0] = 1
    same = EventSequence(event_rows(seq), GRID)
    assert (same == seq) is True
    assert ([same] != [seq]) is False
    assert (EventSequence(seq.events[:-1], GRID) == seq) is False
    assert (EventSequence(seq.events, GridSpec(resolution=24)) == seq) is False
    assert hash(same) == hash(seq)
    with pytest.raises(ValueError, match="shape"):
        EventSequence(np.zeros((2, 5), dtype=np.int64), GRID)
    for wide in (2**70, 2**63, 1.5):
        with pytest.raises(ValueError, match="integers that fit in int64"):
            EventSequence([(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, wide)], GRID)
