from __future__ import annotations

import pytest
import numpy as np
from hypothesis import given, settings, strategies as st

import duetflow.events as events_module
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
)
from duetflow.grid import MAX_VALUES, GridSpec, vocab_sizes
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
    assert np.array_equal(decode(seq), sorted(notes))


@given(
    st.lists(note_strategy, min_size=1, max_size=20),
    st.lists(note_strategy, min_size=1, max_size=20),
)
def test_encode_decode_identity_merged(xs, ys) -> None:
    seq = encode([xs, ys], GRID)
    assert np.array_equal(decode(seq), merge_tracks(xs, ys))


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

# The widest legal grids: 262 + max_beat + resolution + max_duration is
# exactly 2**16. One grid spends the room on each axis; the balanced one
# has the largest note key, its five spans multiplying to just below 2**58.
_ROOM = MAX_VALUES - sum(vocab_sizes(GridSpec(1, 1, 1))) + 3
KEY_EDGE_GRIDS = [
    GridSpec(resolution=1, max_beat=_ROOM - 2, max_duration=1),
    GridSpec(resolution=_ROOM - 2, max_beat=1, max_duration=1),
    GridSpec(resolution=1, max_beat=1, max_duration=_ROOM - 2),
    GridSpec(resolution=_ROOM // 3, max_beat=_ROOM // 3, max_duration=_ROOM - 2 * (_ROOM // 3)),
]
grids = st.one_of(
    st.builds(
        GridSpec,
        resolution=st.integers(1, 24),
        max_beat=st.integers(1, 40000),
        max_duration=st.integers(1, 200),
    ),
    st.sampled_from(KEY_EDGE_GRIDS),
)
wild_value = st.one_of(
    st.integers(-3, 130), st.sampled_from(INT64_EDGES + WIDE), st.integers(-(2**70), 2**70)
)


def _beyond_int64(values) -> bool:
    return any(not -(2**63) <= v < 2**63 for v in values)


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
    if 1 <= len(tracks) <= 2 and any(_beyond_int64(note) for t in tracks for note in t):
        # Refused where it enters, before any note is checked against the grid.
        assert got == (ValueError, "note fields must fit in int64", None)
    else:
        assert got == _outcome(reference_encode, tracks, grid, split_shared_programs=split)


@st.composite
def voice_pairs(draw):
    """Two non-empty tracks on one grid, rows in any order, programs from one
    small pool (127 included, which split_shared_programs wraps to 0)."""
    grid = draw(grids)
    programs = draw(st.lists(st.integers(0, 127), min_size=1, max_size=3)) + [127]
    note = st.builds(
        QuantNote,
        st.integers(0, min(grid.max_beat, 50) - 1),
        st.integers(0, grid.resolution - 1),
        st.integers(0, 127),
        st.integers(1, grid.max_duration),
        st.sampled_from(programs),
    )
    x, y = (draw(st.lists(note, min_size=1, max_size=15)) for _ in range(2))
    return x, y, grid


@settings(max_examples=300, deadline=None)
@given(voice_pairs(), st.booleans())
def test_sequences_from_notes_returns_valid_views(case, split):
    # information_flows scores these views without validating them again.
    x, y, grid = case
    views = sequences_from_notes(x, y, grid, split_shared_programs=split)
    for seq in views:
        validate_sequence(seq)
        reference_validate(event_rows(seq), grid)
    assert [v.note_count for v in views] == [len(x), len(y), len(x) + len(y)]


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


@st.composite
def on_grid_tracks(draw):
    """One or two tracks of notes on the grid, in any order, duplicates included."""
    grid = draw(grids)
    programs = draw(st.lists(st.integers(0, 127), min_size=1, max_size=3))
    note = st.builds(
        QuantNote,
        st.sampled_from([0, 1, grid.max_beat - 1]),
        st.sampled_from([0, grid.resolution - 1]),
        st.sampled_from([0, 60, 127]),
        st.sampled_from([1, grid.max_duration]),
        st.sampled_from(programs),
    )
    count = draw(st.integers(1, 2))
    tracks = [draw(st.lists(note, min_size=1, max_size=12)) for _ in range(count)]
    ordered = draw(st.booleans())
    return [sorted(t) for t in tracks] if ordered else tracks, grid, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(on_grid_tracks())
def test_encode_of_notes_on_the_grid_matches_reference(case):
    # Every note is on the grid, so encoding orders the notes by their keys.
    tracks, grid, split = case
    got = _outcome(encode, tracks, grid, split_shared_programs=split)
    want = _outcome(reference_encode, tracks, grid, split_shared_programs=split)
    assert got == want


@pytest.mark.parametrize("grid", [GRID, GridSpec(3, 5, 2), *KEY_EDGE_GRIDS])
def test_validate_matches_reference_on_every_single_edit(grid):
    # Each value of each event changed, each pair of events swapped, each
    # event dropped or doubled: the whole-sequence checks accept exactly
    # what the event-by-event reference accepts, and the errors agree.
    notes = [
        QuantNote(0, 0, 60, 1, 5),
        QuantNote(0, 0, 60, 1, 5),
        QuantNote(0, grid.resolution - 1, 0, grid.max_duration, 127),
        QuantNote(grid.max_beat - 1, 0, 127, 1, 0),
    ]
    rows = [list(e) for e in reference_encode([notes], grid)]
    values = sorted({-1, 0, 1, 2, 3, 4, 5, 126, 127, 128, grid.max_beat - 1, grid.max_beat,
                     grid.resolution, grid.max_duration, grid.max_duration + 1, *INT64_EDGES})
    cases = []
    for i in range(len(rows)):
        for f in range(N_FIELDS):
            for v in values:
                edited = [list(r) for r in rows]
                edited[i][f] = v
                cases.append(edited)
        for j in range(i + 1, len(rows)):
            swapped = [list(r) for r in rows]
            swapped[i], swapped[j] = swapped[j], swapped[i]
            cases.append(swapped)
        cases.append(rows[:i] + rows[i + 1 :])
        cases.append(rows[: i + 1] + rows[i:])
    for case in cases:
        events = [Event(*r) for r in case]
        got = _outcome(lambda: validate_sequence(EventSequence(events, grid)) or ())
        want = _outcome(lambda: reference_validate(events, grid) or ())
        assert got == want, case


@settings(max_examples=500, deadline=None)
@given(mutated_sequences())
def test_the_decision_accepts_what_the_reference_accepts(case):
    # The naming pass runs only when the decision refuses, so a wrong
    # refusal would pass the tests above unseen: check the decision alone.
    events, grid = case
    accepted = _outcome(lambda: reference_validate(events, grid) or ()) == []
    assert events_module._is_valid(EventSequence(events, grid).events, grid) == accepted


@st.composite
def valid_encodings(draw, grid):
    """A valid sequence on grid: an encoding of notes at and between the
    grid's edges, or a header with no notes, which encode cannot make."""
    programs = draw(st.lists(st.sampled_from([0, 1, 64, 126, 127]), min_size=1, max_size=3))

    def field(size, low=0):
        return st.one_of(st.sampled_from([low, size - 1]), st.integers(low, size - 1))

    note = st.builds(
        QuantNote,
        field(grid.max_beat),
        field(grid.resolution),
        field(128),
        field(grid.max_duration + 1, low=1),
        st.sampled_from(programs),
    )
    tracks = [draw(st.lists(note, max_size=10)) for _ in range(draw(st.integers(1, 2)))]
    if not any(tracks):
        rows = [[0] * 6, *([1, 0, 0, 0, 0, p] for p in sorted(set(programs))), [2] + [0] * 5]
        return EventSequence(rows + [[4] + [0] * 5], grid)
    return encode([t for t in tracks if t], grid, split_shared_programs=draw(st.booleans()))


@pytest.mark.parametrize("grid", [GRID, GridSpec(3, 5, 2), *KEY_EDGE_GRIDS])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_valid_sequence_never_reaches_the_naming_pass(grid, data):
    seq = data.draw(valid_encodings(grid))

    def refuse(*args):
        raise AssertionError("naming pass used")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(events_module, "_name_first_bad", refuse)
        validate_sequence(seq)


@settings(max_examples=200, deadline=None)
@given(grids, st.lists(st.tuples(*[st.integers(-(2**63), 2**63 - 1)] * 6), max_size=6))
def test_to_text_matches_reference_on_any_int64_rows(grid, rows):
    events = [Event(*r) for r in rows]
    assert seq_to_text(EventSequence(events, grid)) == reference_to_text(events)


# The writer's digit tables hold 0..99999: values at each digit-width edge,
# and values outside the tables, which take the %-formatting path.
TABLE_EDGES = (0, 9, 10, 99, 100, 9999, 10000, 65535, 99999)
OFF_TABLE = (100000, -1, -10, *INT64_EDGES)


@st.composite
def text_rows(draw):
    inside = st.one_of(st.sampled_from(TABLE_EDGES), st.integers(0, 10**5 - 1))
    value = inside if draw(st.booleans()) else st.one_of(inside, st.sampled_from(OFF_TABLE))
    n = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 60)))
    return draw(st.lists(st.tuples(*[value] * N_FIELDS), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(text_rows())
def test_to_text_matches_reference_at_digit_width_edges(rows):
    events = [Event(*r) for r in rows]
    assert seq_to_text(EventSequence(events, GRID)) == reference_to_text(events)


def test_to_text_golden_bytes():
    notes = [
        QuantNote(7, 11, 60, 96, 33),
        QuantNote(305, 0, 9, 10, 33),
        QuantNote(1023, 5, 127, 1, 0),
    ]
    assert seq_to_text(encode([notes], GRID)) == (
        "0 0 0 0 0 0\n"
        "1 0 0 0 0 0\n"
        "1 0 0 0 0 33\n"
        "2 0 0 0 0 0\n"
        "3 7 11 60 96 33\n"
        "3 305 0 9 10 33\n"
        "3 1023 5 127 1 0\n"
        "4 0 0 0 0 0\n"
    )


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
    parsed = _outcome(reference_from_text, text, grid, validate=False)
    wide = isinstance(parsed, list) and [
        (lineno, int(token))
        for lineno, line in enumerate(text.splitlines(), start=1)
        for token in line.split()
        if _beyond_int64([int(token)])
    ]
    if wide:
        # The reference keeps integers beyond int64; the reader names the
        # line of the first, whether it validates or not.
        lineno, value = wide[0]
        assert got == (ValueError, f"line {lineno}: {value} does not fit in int64", None)
    else:
        assert got == _outcome(reference_from_text, text, grid, validate=validate)


BASE_TEXT = seq_to_text(encode([[QuantNote(0, 0, 60, 1, 0), QuantNote(1, 3, 62, 2, 5)]], GRID))
CANONICAL_TEXTS = [
    BASE_TEXT,
    BASE_TEXT.rstrip("\n"),  # no final newline
    "\n\n" + BASE_TEXT.replace("\n", "\n\n \n", 2) + "  \n",  # blank lines
    "",
    "\n",
    BASE_TEXT.replace("3 0 0 60 1 0", "3 000000000000000000 00 060 001 0"),  # leading zeros
    BASE_TEXT.replace("3 0 0 60 1 0", "3 999999999999999999 0 60 1 0"),  # 18 digits
    BASE_TEXT.replace("0 0 0 0 0 0", "0  0 0 0 0   0", 1),
]
OTHER_TEXTS = [
    BASE_TEXT.replace("3 0 0 60 1 0", "3 0000000000000000000 0 60 1 0"),  # 19 digits
    BASE_TEXT.replace("3 0 0 60 1 0", "3 1000000000000000000 0 60 1 0"),  # 19 digits, 10**18
    BASE_TEXT.replace("3 0 0 60 1 0", "3 9999999999999999999 0 60 1 0"),  # beyond int64
    BASE_TEXT.replace("3 0 0 60 1 0", "3 0000000000000000000000005 0 60 1 0"),
    BASE_TEXT.replace("\n", "\r\n"),
    BASE_TEXT.replace(" ", "\t"),
    BASE_TEXT.replace("3 0 0 60 1 0", "3 +0 0 60 1 0"),
    BASE_TEXT.replace("3 0 0 60 1 0", "3 -5 0 60 1 0"),
    BASE_TEXT.replace("3 0 0 60 1 0", "3 0 0 6_0 1 0"),
    BASE_TEXT.replace("3 0 0 60 1 0", "3 0 0 \u0666\u0660 1 0"),  # Arabic-Indic 60
    BASE_TEXT.replace("3 0 0 60 1 0", "3 0 0 \uff16\uff10 1 0"),  # fullwidth 60
    BASE_TEXT.replace("3 0 0 60 1 0", "3 0 0 60 1"),  # five tokens
    BASE_TEXT.replace("3 0 0 60 1 0", "3 0 0 60 1 0 0"),  # seven tokens
    BASE_TEXT.replace("3 0 0 60 1 0\n", "3 0 0 60\n1 0\n"),  # one event on two lines
    BASE_TEXT.replace("\n", " ", 1),  # twelve tokens on one line
    BASE_TEXT + "x",
]


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("text", CANONICAL_TEXTS + OTHER_TEXTS)
def test_text_boundary_cases_match_reference(text, validate):
    got = _outcome(seq_from_text, text, GRID, validate=validate)
    want = _outcome(reference_from_text, text, GRID, validate=validate)
    if "9999999999999999999" in text:
        assert got == (ValueError, "line 5: 9999999999999999999 does not fit in int64", None)
    else:
        assert got == want


@pytest.mark.parametrize("text", CANONICAL_TEXTS)
def test_canonical_text_is_read_in_one_pass(text, monkeypatch):
    # Canonical text never reaches the token-by-token reader.
    def refuse(*args):
        raise AssertionError("token-by-token reader used")

    monkeypatch.setattr(events_module, "_read_lines", refuse)
    seq_from_text(text, GRID, validate=False)


@pytest.mark.parametrize("text", OTHER_TEXTS)
def test_other_text_goes_to_the_token_reader(text, monkeypatch):
    calls = []
    read_lines = events_module._read_lines
    monkeypatch.setattr(
        events_module, "_read_lines", lambda *a: calls.append(1) or read_lines(*a)
    )
    _outcome(seq_from_text, text, GRID, validate=False)
    assert calls == [1]


@pytest.mark.parametrize("text", [BASE_TEXT, BASE_TEXT.replace(" ", "\t")])
def test_a_text_read_makes_one_array(text, monkeypatch):
    # Both readers hand back read-only int64 arrays, which the sequence keeps.
    made = []
    for name in ("_canonical_events", "_read_lines"):
        reader = getattr(events_module, name)
        monkeypatch.setattr(
            events_module, name, lambda *a, reader=reader: made.append(reader(*a)) or made[-1]
        )
    seq = seq_from_text(text, GRID)
    (array,) = [m if isinstance(m, np.ndarray) else m[0] for m in made if m is not None]
    assert seq.events is array


@pytest.mark.parametrize("validate", [True, False])
def test_text_reader_reports_wide_integers_by_line(validate):
    seq = encode([[QuantNote(0, 0, 60, 1, 0)]], GRID)
    lines = seq_to_text(seq).splitlines()
    lines[3] = f"3 {2**70} 0 60 1 0"
    text = "\n".join(lines) + "\n"
    with pytest.raises(ValueError, match=rf"^line 4: {2**70} does not fit in int64$"):
        seq_from_text(text, GRID, validate=validate)


def test_encode_refuses_non_integer_fields():
    for bad in (60.5, 60.0, "60", None):
        with pytest.raises(ValueError, match="is not an integer"):
            encode([[QuantNote(0, 0, bad, 1, 0)]], GRID)
    with pytest.raises(ValueError, match="5 integer fields"):
        encode([[(0, 0, 60, 1)]], GRID)
    numpy_ints = QuantNote(*np.array([0, 1, 60, 2, 3], dtype=np.int32))
    assert np.array_equal(decode(encode([[numpy_ints]], GRID)), [QuantNote(0, 1, 60, 2, 3)])
    wide = QuantNote(0, 0, 60, 1, 2**70)
    with pytest.raises(ValueError, match="^note fields must fit in int64$"):
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
    with pytest.raises(ValueError, match="^every event must have 6 integer fields$"):
        EventSequence(np.zeros((2, 5), dtype=np.int64), GRID)
    for wide in (2**70, 2**63):
        with pytest.raises(ValueError, match="^event fields must fit in int64$"):
            EventSequence([(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, wide)], GRID)
    with pytest.raises(ValueError, match=r"^event field 1\.5 is not an integer$"):
        EventSequence([(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1.5)], GRID)
