"""Conditional-entropy traces and two-voice flow reports."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import duetflow.flow
from duetflow.events import TYPE_NOTE, sequences_from_notes, vocab_sizes
from duetflow.flow import (
    LN2,
    EntropyTrace,
    FlowParams,
    FlowReport,
    TooShortError,
    conditional_entropy,
    information_flow,
    information_flows,
)
from duetflow.grid import GridSpec
from duetflow.midi import QuantNote
from duetflow.model import empty_model, score_sequence, train
from reference_events import event_rows

GRID = GridSpec()


def voice(values, *, base=60, step=4, program=0, start=0):
    return [QuantNote(start + i, 0, base + step * int(v), 12, program) for i, v in enumerate(values)]


def make_pair(rng, length, *, echo):
    xs = rng.integers(0, 2, length)
    if echo:
        ys = np.concatenate(([rng.integers(0, 2)], xs[:-1]))
    else:
        ys = rng.integers(0, 2, length)
    return voice(xs, base=60, step=4, program=0), voice(ys, base=72, step=7, program=16)


def pair_corpus(seed, n_pieces, length, *, echo):
    rng = np.random.default_rng(seed)
    return [make_pair(rng, length, echo=echo) for _ in range(n_pieces)]


def train_on_pairs(pairs, *, k=4):
    corpus = []
    for x, y in pairs:
        corpus.extend(sequences_from_notes(x, y, GRID))
    return train(corpus, k=k)


def mean_flow(model, pairs, params=FlowParams()):
    return float(
        np.mean([information_flow(model, x, y, params).total_flow for x, y in pairs])
    )


# --- closed forms with an untrained model -----------------------------------

@pytest.mark.parametrize("mode", ["nll", "predictive"])
def test_untrained_model_gives_log_vocab_everywhere(mode):
    model = empty_model(GRID, k=4)
    x = voice([0, 1] * 12)
    y = voice([1, 0] * 12, base=72, program=8)
    report = information_flow(model, x, y, FlowParams(mode=mode, burn_in=4))
    expected = tuple(math.log(s) for s in vocab_sizes(GRID))
    assert report.h_first == pytest.approx(expected, abs=1e-12)
    assert report.h_second == pytest.approx(expected, abs=1e-12)
    # per_pair doubles the merged per-event mean, so each term is 2 log s
    assert report.h_merged == pytest.approx(tuple(2 * e for e in expected), abs=1e-12)
    assert report.field_flows == pytest.approx((0.0,) * 6, abs=1e-12)
    assert report.total_flow == pytest.approx(0.0, abs=1e-11)


def test_pitch_field_of_untrained_model_is_log_128():
    model = empty_model(GRID, k=4)
    trace = conditional_entropy(
        model, sequences_from_notes(voice([0, 1] * 10), voice([1] * 20, base=72), GRID)[0],
        burn_in=4, mode="predictive",
    )
    assert trace.field_means[3] == pytest.approx(math.log(128), abs=1e-12)


# --- trace mechanics ---------------------------------------------------------

def test_trace_skips_burn_in_notes_but_keeps_context():
    model = train_on_pairs(pair_corpus(0, 8, 24, echo=False), k=2)
    seq = sequences_from_notes(*make_pair(np.random.default_rng(5), 24, echo=False), GRID)[2]
    trace = conditional_entropy(model, seq, context_len=64, burn_in=16)
    note_rows = [i for i, e in enumerate(event_rows(seq)) if e.type == TYPE_NOTE]
    assert len(trace) == len(note_rows) - 16 == 48 - 16
    full = score_sequence(model, seq.events, 64, "nll")
    assert np.array_equal(trace.values, full[note_rows[16:]])
    assert trace.mean_total == pytest.approx(float(trace.values.sum(axis=1).mean()))
    assert trace.field_means == pytest.approx(tuple(trace.values.mean(axis=0)))


def test_too_short_error_names_the_sequence():
    model = empty_model(GRID, k=2)
    x_short = voice([0] * 16)           # sorts first: lower pitch range
    y_long = voice([1] * 40, base=72)
    with pytest.raises(TooShortError, match="^X: 16 note events") as err:
        information_flow(model, x_short, y_long, FlowParams(burn_in=16))
    assert err.value.which == "X"
    with pytest.raises(TooShortError, match="^Y: 12 note events") as err:
        information_flow(model, voice([0] * 40), voice([1] * 12, base=72), FlowParams(burn_in=16))
    assert err.value.which == "Y"
    assert isinstance(err.value, ValueError)

    merged = sequences_from_notes(voice([0] * 5), voice([1] * 5, base=72), GRID)[2]
    with pytest.raises(TooShortError, match="^XY: 10"):
        conditional_entropy(model, merged, burn_in=16, label="XY")


def test_flow_params_validation():
    with pytest.raises(ValueError):
        FlowParams(burn_in=0)
    with pytest.raises(ValueError):
        FlowParams(context_len=-1)
    with pytest.raises(ValueError):
        FlowParams(mode="bits")
    with pytest.raises(ValueError):
        FlowParams(xy_norm="half")


# --- report arithmetic and symmetry ------------------------------------------

@pytest.fixture(scope="module")
def echo_model():
    return train_on_pairs(pair_corpus(1, 150, 64, echo=True))


@pytest.fixture(scope="module")
def indep_model():
    return train_on_pairs(pair_corpus(2, 150, 64, echo=False))


def test_report_combines_traces_exactly(indep_model):
    x, y = make_pair(np.random.default_rng(9), 64, echo=False)
    params = FlowParams()
    report = information_flow(indep_model, x, y, params, piece_id="p9")
    seq_x, seq_y, seq_xy = sequences_from_notes(x, y, GRID)
    tx = conditional_entropy(indep_model, seq_x)
    ty = conditional_entropy(indep_model, seq_y)
    txy = conditional_entropy(indep_model, seq_xy)
    assert report.h_first == tx.field_means
    assert report.h_second == ty.field_means
    assert report.h_merged == tuple(2.0 * v for v in txy.field_means)
    for f in range(6):
        assert report.field_flows[f] == pytest.approx(
            report.h_first[f] + report.h_second[f] - report.h_merged[f], abs=1e-15
        )
    assert report.total_flow == pytest.approx(sum(report.field_flows), abs=1e-12)
    assert report.total_flow_bits == pytest.approx(report.total_flow / LN2, abs=1e-12)
    assert report.model_id == indep_model.fingerprint()
    assert report.piece_id == "p9"


def test_swapping_voices_reproduces_report_bit_for_bit(indep_model):
    x, y = make_pair(np.random.default_rng(13), 48, echo=False)
    a = information_flow(indep_model, x, y, piece_id="s")
    b = information_flow(indep_model, y, x, piece_id="s")
    assert a == b
    assert a.to_text() == b.to_text()
    assert a.to_dict() == b.to_dict()


def test_per_event_normalization_halves_merged_term(indep_model):
    x, y = make_pair(np.random.default_rng(17), 48, echo=False)
    per_pair = information_flow(indep_model, x, y)
    per_event = information_flow(indep_model, x, y, FlowParams(xy_norm="per_event"))
    assert per_event.h_merged == pytest.approx(
        tuple(v / 2 for v in per_pair.h_merged), abs=1e-15
    )
    assert per_pair.h_first == per_event.h_first


def test_report_config_is_copied_and_ignored_in_equality(indep_model):
    x, y = make_pair(np.random.default_rng(21), 48, echo=False)
    cfg = {"seed": 1}
    a = information_flow(indep_model, x, y, config=cfg)
    cfg["seed"] = 2
    assert a.config == {"seed": 1}
    b = information_flow(indep_model, x, y, config={"anything": "else"})
    assert a == b
    assert a.to_dict()["fields"]["pitch"]["flow"] == pytest.approx(a.field_flows[3])


# --- flow behavior on known couplings ----------------------------------------

def test_independent_voices_have_near_zero_flow(indep_model):
    flow = mean_flow(indep_model, pair_corpus(3, 25, 64, echo=False))
    assert abs(flow) < 0.08


def test_echoed_voice_shows_strong_positive_flow(echo_model, indep_model):
    echo_flow = mean_flow(echo_model, pair_corpus(4, 25, 64, echo=True))
    indep_flow = mean_flow(indep_model, pair_corpus(3, 25, 64, echo=False))
    assert echo_flow > 0.4
    assert echo_flow > indep_flow + 0.3
    # the coupling lives in the pitch field
    reports = [
        information_flow(echo_model, x, y)
        for x, y in pair_corpus(4, 10, 64, echo=True)
    ]
    pitch = float(np.mean([r.field_flows[3] for r in reports]))
    others = float(np.mean([sum(r.field_flows) - r.field_flows[3] for r in reports]))
    assert pitch > 0.4
    assert abs(others) < 0.15


def test_longer_context_does_not_hurt_on_trained_data(indep_model):
    seq_xy = sequences_from_notes(*make_pair(np.random.default_rng(23), 64, echo=False), GRID)[2]
    short = conditional_entropy(indep_model, seq_xy, context_len=0)
    full = conditional_entropy(indep_model, seq_xy, context_len=64)
    assert full.mean_total <= short.mean_total + 1e-9


# --- batched flows -------------------------------------------------------------

def per_stream_flow(model, x, y, params):
    """A flow report from three conditional_entropy calls, one per view."""
    first, second = sorted((tuple(x), tuple(y)))
    seqs = sequences_from_notes(
        first, second, model.grid, split_shared_programs=params.split_shared_programs
    )
    h = [
        conditional_entropy(
            model, seq, params.context_len, params.burn_in, params.mode, label=label
        ).field_means
        for seq, label in zip(seqs, ("X", "Y", "XY"))
    ]
    if params.xy_norm == "per_pair":
        h[2] = tuple(2.0 * v for v in h[2])
    return h


@st.composite
def flow_batches(draw):
    """Pieces of random length for one params; some too short, some off the grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pieces = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 30))
        x = voice(rng.integers(0, 3, n), base=60, step=4, program=draw(st.sampled_from([0, 16])))
        y = voice(rng.integers(0, 3, draw(st.integers(1, 30))), base=72, step=7, program=16)
        if draw(st.integers(0, 9)) == 0:
            x[-1] = x[-1]._replace(pitch=200)  # outside the grid
        pieces.append((x, y))
    params = FlowParams(
        context_len=draw(st.sampled_from([0, 1, 3, 64])),
        burn_in=draw(st.integers(1, 12)),
        mode=draw(st.sampled_from(["nll", "predictive"])),
        xy_norm=draw(st.sampled_from(["per_pair", "per_event"])),
        split_shared_programs=draw(st.booleans()),
    )
    return pieces, params


@settings(max_examples=40, deadline=None)
@given(flow_batches())
def test_information_flows_equals_per_piece_scoring(indep_model, batch):
    pieces, params = batch
    ids = [f"piece{i}" for i in range(len(pieces))]
    results = information_flows(indep_model, pieces, params, piece_ids=ids, config={"c": 1})
    # Swapped, and scored a few pieces per call instead of all at once.
    batch_events = duetflow.flow._BATCH_EVENTS
    duetflow.flow._BATCH_EVENTS = 64
    try:
        swapped = information_flows(
            indep_model, [(y, x) for x, y in pieces], params, piece_ids=ids, config={"c": 1}
        )
    finally:
        duetflow.flow._BATCH_EVENTS = batch_events
    assert len(results) == len(swapped) == len(pieces)
    for (x, y), piece_id, result, other in zip(pieces, ids, results, swapped):
        try:
            want = per_stream_flow(indep_model, x, y, params)
        except ValueError as exc:
            assert type(result) is type(exc) and str(result) == str(exc)
            assert type(other) is type(exc) and str(other) == str(exc)
            continue
        assert [result.h_first, result.h_second, result.h_merged] == want
        assert result.piece_id == piece_id and result.config == {"c": 1}
        assert result.model_id == indep_model.fingerprint()
        assert other == result and other.to_dict() == result.to_dict()
        assert information_flow(indep_model, x, y, params, piece_id=piece_id) == result
