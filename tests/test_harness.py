"""Pair building, batch scoring, and the two bias experiments."""
import csv
import io
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from duetflow.events import Event, EventSequence, FIELD_NAMES, encode, sequence_notes
import duetflow.harness as harness_module
from duetflow.flow import FlowParams, FlowReport, information_flow, information_flows
from duetflow.grid import GridSpec
from duetflow.harness import (
    NEGATIVE,
    POSITIVE,
    ExperimentReport,
    Pair,
    ScoredPair,
    batch_score,
    build_pairs,
    echo_corpus,
    markov_corpus,
    positional_bias,
    self_enhancement,
    training_encodings,
)
from duetflow.midi import IneligiblePieceError, Piece, QuantNote
from duetflow.model import generate, generate_many, train
from duetflow.oracle import X_PITCH_BASE, Y_PITCH_BASE, independent_spec

GRID = GridSpec()


def two_voice_piece(source_id, length, *, x_pitch=60, y_pitch=72, start=0):
    x = tuple(QuantNote(start + i, 0, x_pitch, 6, 0) for i in range(length))
    y = tuple(QuantNote(start + i, 0, y_pitch, 6, 16) for i in range(length))
    return Piece(source_id, GRID, (x, y))


# --- pair construction --------------------------------------------------------

def test_build_pairs_layout_and_determinism():
    corpus = [two_voice_piece(f"p{i}", 24) for i in range(4)]
    ps = build_pairs(corpus, seed=7)
    assert ps.seed == 7
    assert ps.skipped == 0
    assert len(ps.by_label(POSITIVE)) == 4
    assert len(ps.by_label(NEGATIVE)) == 4
    for pair in ps.by_label(POSITIVE):
        assert pair.pair_id == f"{pair.x_source}#pos"
        assert pair.x_source == pair.y_source
        assert np.array_equal(pair.x, corpus[int(pair.x_source[1])].tracks[0])
        assert np.array_equal(pair.y, corpus[int(pair.x_source[1])].tracks[1])
    for pair in ps.by_label(NEGATIVE):
        assert pair.pair_id == f"{pair.x_source}#neg"
        assert pair.y_source != pair.x_source

    again = build_pairs(corpus, seed=7)
    assert again == ps


def test_build_pairs_skips_and_counts_ineligible():
    one_track = Piece("solo", GRID, (tuple(QuantNote(i, 0, 60, 6, 0) for i in range(8)),))
    three = two_voice_piece("three", 8)
    three = Piece("three", GRID, three.tracks + (three.tracks[0],))
    empty = Piece("empty", GRID, (one_track.tracks[0], ()))
    corpus = [two_voice_piece("a", 24), one_track, two_voice_piece("b", 24), three, empty]
    ps = build_pairs(corpus, seed=0)
    assert ps.skipped == 3
    assert {p.x_source for p in ps.pairs} == {"a", "b"}


def test_build_pairs_requires_two_eligible():
    with pytest.raises(IneligiblePieceError) as err:
        build_pairs([two_voice_piece("only", 24)], seed=0)
    assert err.value.source_id == "corpus"


def test_two_piece_corpus_forces_the_other_donor():
    corpus = [two_voice_piece("a", 24), two_voice_piece("b", 24)]
    ps = build_pairs(corpus, seed=3)
    donors = {p.x_source: p.y_source for p in ps.by_label(NEGATIVE)}
    assert donors == {"a": "b", "b": "a"}


def test_negative_pairs_truncate_to_common_end():
    corpus = [two_voice_piece("short", 10), two_voice_piece("long", 30, start=0)]
    ps = build_pairs(corpus, seed=1)
    for pair in ps.by_label(NEGATIVE):
        last_x = max(pair.x[:, 0])
        last_y = max(pair.y[:, 0])
        assert last_x <= 9 and last_y <= 9


def test_negative_pairs_cut_at_the_last_beat_of_tracks_out_of_order():
    # A hand-built track need not be sorted: its last beat is its largest.
    melody = [QuantNote(b, 0, 60, 6, 0) for b in (5, 0, 1)]
    unsorted = Piece("unsorted", GRID, (melody, [QuantNote(0, 0, 72, 6, 16)]))
    ps = build_pairs([unsorted, two_voice_piece("long", 30)], seed=0)
    (pair,) = [p for p in ps.by_label(NEGATIVE) if p.x_source == "unsorted"]
    assert pair.x[:, 0].tolist() == [5, 0, 1]
    assert pair.y[:, 0].tolist() == [0, 1, 2, 3, 4, 5]


def test_melody_index_selects_the_kept_voice():
    corpus = [two_voice_piece(f"p{i}", 16) for i in range(3)]
    ps0 = build_pairs(corpus, seed=2, melody_index=0)
    ps1 = build_pairs(corpus, seed=2, melody_index=1)
    assert ps0.by_label(POSITIVE)[0].x[0, 2] == 60
    assert ps1.by_label(POSITIVE)[0].x[0, 2] == 72
    with pytest.raises(ValueError):
        build_pairs(corpus, seed=2, melody_index=2)


def test_donor_choice_is_uniform_over_the_rest():
    corpus = [two_voice_piece(f"p{i}", 12) for i in range(6)]
    counts = {f"p{i}": 0 for i in range(1, 6)}
    for seed in range(600):
        ps = build_pairs(corpus, seed=seed)
        first_neg = ps.by_label(NEGATIVE)[0]
        assert first_neg.x_source == "p0"
        counts[first_neg.y_source] += 1
    result = scipy_stats.chisquare(list(counts.values()))
    assert result.pvalue > 0.01


# --- batch scoring --------------------------------------------------------------

@pytest.fixture(scope="module")
def echo_setup():
    train_pieces = echo_corpus(60, 64, seed=11, grid=GRID)
    model = train(training_encodings(train_pieces), k=4)
    eval_pieces = echo_corpus(12, 64, seed=12, grid=GRID)
    pairs = build_pairs(eval_pieces, seed=13)
    return model, pairs


def test_batch_score_report_contents(echo_setup):
    model, pairs = echo_setup
    report = batch_score(model, pairs, FlowParams())
    assert report.model_id == model.fingerprint()
    assert len(report.scored) == len(pairs.pairs)
    assert report.failures == 0
    pos = report.label_flows(POSITIVE)
    neg = report.label_flows(NEGATIVE)
    assert len(pos) == len(neg) == 12
    # matched echo pairs carry the coupling; shuffled ones break the learned
    # joint structure, which if anything drives their flow below zero
    assert pos.mean() > 0.4
    assert neg.mean() < 0.1
    assert report.t_statistic() > 3.0
    assert report.t_statistic(3) > 3.0  # the pitch field carries it
    for field_index in (None, 3):
        welch = scipy_stats.ttest_ind(
            report.label_flows(POSITIVE, field_index),
            report.label_flows(NEGATIVE, field_index),
            equal_var=False,
        )
        assert report.t_statistic(field_index) == pytest.approx(welch.statistic, rel=1e-12)

    agg = report.aggregates()
    assert set(agg) == {POSITIVE, NEGATIVE}
    assert agg[POSITIVE]["count"] == 12
    assert agg[POSITIVE]["mean"] == pytest.approx(float(pos.mean()))
    assert set(agg[POSITIVE]["fields"]) == set(FIELD_NAMES)

    again = batch_score(model, pairs, FlowParams())
    assert again == report



def report_of_flows(positives, negatives):
    """An ExperimentReport whose pairs have these total flows, all on field 0."""
    zeros = (0.0,) * 6
    scored = []
    for label, flows in ((POSITIVE, positives), (NEGATIVE, negatives)):
        for i, value in enumerate(flows):
            pair = Pair(f"{label}{i}", label, "a", "b", [(i, 0, 60, 1, 0)], [(i, 0, 72, 1, 0)])
            h = (value,) + zeros[1:]
            report = FlowReport(pair.pair_id, "m", "nll", 64, 16, "per_pair", h, zeros, zeros)
            scored.append(ScoredPair(pair, report))
    return ExperimentReport(tuple(scored), FlowParams(), "m")


def test_t_statistic_is_none_for_a_zero_standard_error():
    # The suite turns RuntimeWarnings into errors, so a division by the zero
    # standard error would fail here rather than return inf or nan.
    assert report_of_flows([1.0, 1.0], [0.5, 0.5, 0.5]).t_statistic() is None
    assert report_of_flows([0.5, 0.5], [0.5, 0.5]).t_statistic() is None
    pos, neg = np.array([1.0, 2.0, 4.0]), np.array([0.5, 0.25])
    welch = (pos.mean() - neg.mean()) / np.sqrt(pos.var(ddof=1) / 3 + neg.var(ddof=1) / 2)
    assert report_of_flows(pos, neg).t_statistic() == float(welch)
    assert report_of_flows(pos, neg).t_statistic(0) == float(welch)


def test_t_statistic_is_none_for_fewer_than_two_flows_of_a_label():
    # The variance of one flow has no degrees of freedom; numpy would warn
    # and give nan, which the suite turns into an error.
    assert report_of_flows([1.0], [0.5, 0.25]).t_statistic() is None
    assert report_of_flows([1.0, 2.0], [0.5]).t_statistic(0) is None
    assert report_of_flows([], [0.5, 0.25]).t_statistic() is None
    assert report_of_flows([], []).t_statistic() is None


def test_batch_score_csv_round_trip(echo_setup):
    model, pairs = echo_setup
    report = batch_score(model, pairs.pairs[:3], FlowParams())
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert rows[0] == [
        "piece_id", "label", "field", "H_X", "H_Y", "H_XY", "flow", "mode", "context_len"
    ]
    assert len(rows) == 1 + 3 * 6
    for i, scored in enumerate(report.scored):
        block = rows[1 + 6 * i : 1 + 6 * (i + 1)]
        assert [r[2] for r in block] == list(FIELD_NAMES)
        for f, row in enumerate(block):
            assert row[0] == scored.pair.pair_id
            assert row[1] == scored.pair.label
            # repr round-trips exactly
            assert float(row[3]) == scored.report.h_first[f]
            assert float(row[6]) == scored.report.field_flows[f]


def test_batch_score_records_per_pair_failures(echo_setup):
    model, pairs = echo_setup
    short = two_voice_piece("tiny", 5)
    bad_pairs = build_pairs([short, two_voice_piece("tiny2", 5)], seed=0)
    report = batch_score(model, list(pairs.pairs[:2]) + list(bad_pairs.pairs), FlowParams())
    assert report.failures == len(bad_pairs.pairs)
    for s in report.scored[2:]:
        assert s.report is None
        assert "note events" in s.error
    # failed pairs stay out of flows and the CSV (the two kept pairs are
    # both positives: a PairSet lists positives first)
    assert len(report.label_flows(POSITIVE)) == 2
    assert len(report.label_flows(NEGATIVE)) == 0
    assert len(list(csv.reader(io.StringIO(report.to_csv())))) == 1 + 2 * 6


def test_parallel_scoring_matches_serial(echo_setup):
    model, pairs = echo_setup
    serial = batch_score(model, pairs, FlowParams())
    parallel = batch_score(model, pairs, FlowParams(), workers=2)
    assert parallel == serial


def test_parallel_predictive_scoring_matches_serial(echo_setup):
    model, pairs = echo_setup
    params = FlowParams(mode="predictive")
    serial = batch_score(model, pairs, params)
    assert serial.failures == 0
    assert batch_score(model, pairs, params, workers=2) == serial


# --- positional bias -------------------------------------------------------------

def test_positional_bias_is_exactly_zero(echo_setup):
    model, _ = echo_setup
    pieces = echo_corpus(8, 64, seed=21, grid=GRID)
    report = positional_bias(model, pieces)
    assert report.n_pieces == 8
    assert report.bit_exact is True
    assert report.max_mse == 0.0
    assert set(report.mse_per_field) == set(FIELD_NAMES)
    with pytest.raises(ValueError):
        positional_bias(model, [])


def test_positional_bias_raises_the_first_error_in_piece_order(echo_setup):
    model, _ = echo_setup
    good = echo_corpus(2, 64, seed=22, grid=GRID)
    short = two_voice_piece("short", 8)  # fewer notes than the burn-in
    solo = Piece("solo", GRID, (short.tracks[0],))
    with pytest.raises(IneligiblePieceError):
        positional_bias(model, [good[0], solo, short, good[1]])
    with pytest.raises(ValueError, match="^X: 8 note events"):
        positional_bias(model, [good[0], short, solo, good[1]])


def test_training_encodings_raise_the_first_failing_piece_in_order():
    good = two_voice_piece("good", 4)
    coarse = Piece(  # on a grid of its own, so encoded in a run of its own
        "coarse", GridSpec(4, 8, 2), ([QuantNote(1, 3, 60, 2, 0)], [QuantNote(0, 0, 40, 1, 3)])
    )
    solo = Piece("solo", GRID, (good.tracks[0],))
    empty = Piece("empty", GRID, (good.tracks[0], ()))
    off = Piece("off", GRID, (good.tracks[0], [QuantNote(GRID.max_beat, 0, 60, 1, 0)]))
    wide = Piece("wide", GridSpec(4, 8, 2), ([QuantNote(0, 0, 60, 9, 0)], good.tracks[1]))

    def first_error(pieces):
        for piece in pieces:
            try:
                harness_module.split_tracks(piece)
                for tracks in ([piece.tracks[0]], [piece.tracks[1]], piece.tracks):
                    encode(tracks, piece.grid)
            except ValueError as exc:
                return type(exc), str(exc)

    for order in ([good, solo, off], [good, off, solo], [coarse, wide, empty], [empty, wide],
                  [good, coarse, good, wide, off], [off, coarse]):
        with pytest.raises(ValueError) as err:
            training_encodings(order)
        assert (type(err.value), str(err.value)) == first_error(order)
    got = training_encodings([good, coarse, good])
    assert got == [encode(t, p.grid) for p in (good, coarse, good)
                   for t in ([p.tracks[0]], [p.tracks[1]], p.tracks)]


# --- self enhancement -------------------------------------------------------------

@pytest.fixture(scope="module")
def two_models():
    pieces_a = echo_corpus(40, 64, seed=31, grid=GRID)
    pieces_b = markov_corpus(independent_spec(), 40, 64, seed=32, grid=GRID)
    return (
        train(training_encodings(pieces_a), k=4),
        train(training_encodings(pieces_b), k=4),
    )


def test_self_enhancement_matrix(two_models):
    model_a, model_b = two_models
    primes = [
        encode([tuple(QuantNote(0, t, 36 + (t % 2), 1, 0) for t in range(12))], GRID)
        for _ in range(3)
    ]
    params = FlowParams(burn_in=4)
    report = self_enhancement(model_a, model_b, primes, steps=24, params=params, seed=5)
    assert report.n_primes == 3
    assert report.steps == 24
    assert report.skipped == 0
    assert set(report.matrix) == {"a", "b"}
    for row in report.matrix.values():
        assert set(row) == {"a", "b"}
        for v in row.values():
            assert math.isfinite(v)
    assert set(report.prefers_own) == {"a", "b"}
    for v in report.prefers_own.values():
        assert isinstance(v, bool)
    assert "scorer_a" in report.to_text()

    again = self_enhancement(model_a, model_b, primes, steps=24, params=params, seed=5)
    assert again == report
    shifted = self_enhancement(model_a, model_b, primes, steps=24, params=params, seed=6)
    assert shifted.n_primes == report.n_primes


def test_self_enhancement_refuses_steps_within_the_burn_in(two_models):
    model_a, model_b = two_models
    prime = encode([tuple(QuantNote(t // 12, t % 12, 36, 1, 0) for t in range(24))], GRID)
    for steps in (-1, 0, 16):
        with pytest.raises(ValueError, match=f"^steps {steps} must exceed burn_in 16"):
            self_enhancement(model_a, model_b, [prime], steps, FlowParams(burn_in=16))
    report = self_enhancement(model_a, model_b, [prime], 17, FlowParams(burn_in=16))
    assert report.skipped == 0


def test_self_enhancement_refuses_a_negative_seed(two_models):
    # Each generator's seed is derived from this one and must not be negative.
    model_a, model_b = two_models
    prime = encode([tuple(QuantNote(t // 12, t % 12, 36, 1, 0) for t in range(24))], GRID)
    with pytest.raises(ValueError, match="^seed -1 must be >= 0$"):
        self_enhancement(model_a, model_b, [prime], 24, FlowParams(burn_in=4), seed=-1)
    report = self_enhancement(model_a, model_b, [prime], 24, FlowParams(burn_in=4), seed=0)
    assert report.skipped == 0


def test_self_enhancement_skips_empty_primes(two_models):
    model_a, model_b = two_models
    no_notes = EventSequence((Event(0, 0, 0, 0, 0, 0), Event(4, 0, 0, 0, 0, 0)), GRID)
    good = encode([tuple(QuantNote(0, t, 36, 1, 0) for t in range(12))], GRID)
    report = self_enhancement(
        model_a, model_b, [no_notes, good], steps=24, params=FlowParams(burn_in=4)
    )
    assert report.skipped == 1
    assert report.n_primes == 2
    # generate_many refuses a prime out of order, once for each generator.
    swapped = EventSequence(good.events[[0, 1, 2, 4, 3, *range(5, len(good))]], GRID)
    report = self_enhancement(
        model_a, model_b, [swapped, good], steps=24, params=FlowParams(burn_in=4)
    )
    assert report.skipped == 2


def test_self_enhancement_equals_prime_by_prime_scoring(two_models):
    # Lockstep generation and batched scoring give the matrix of one
    # generate and one information_flow call at a time, bit for bit, and
    # skip the same primes and pieces.
    model_a, model_b = two_models
    primes = [
        encode([tuple(QuantNote(t // 12, t % 12, 36 + (t % 3), 1, 0) for t in range(n))], GRID)
        for n in (12, 3, 20, 7)
    ]
    primes.insert(2, EventSequence((Event(0, 0, 0, 0, 0, 0), Event(4, 0, 0, 0, 0, 0)), GRID))
    params = FlowParams(burn_in=6, mode="predictive")
    report = self_enhancement(model_a, model_b, primes, steps=16, params=params, seed=3)
    models = {"a": model_a, "b": model_b}
    sums = {s: {g: 0.0 for g in models} for s in models}
    counts = {s: {g: 0 for g in models} for s in models}
    skipped = 0
    for i, prime in enumerate(primes):
        notes = sequence_notes(prime)
        if not len(notes):
            skipped += 1
            continue
        for g_index, (g_name, g_model) in enumerate(models.items()):
            result = generate(g_model, prime, 16, 3 * 7919 + i * 2 + g_index)
            for s_name, s_model in models.items():
                try:
                    flow = information_flow(s_model, notes, result.sampled_notes, params)
                except ValueError:
                    skipped += 1
                    continue
                sums[s_name][g_name] += flow.total_flow
                counts[s_name][g_name] += 1
    assert report.skipped == skipped == 1 + 4
    assert report.matrix == {
        s: {g: sums[s][g] / counts[s][g] for g in models} for s in models
    }


def test_self_enhancement_scores_once_per_scorer_as_per_generator_batches(
    two_models, monkeypatch
):
    # One information_flows call per scorer, over both generators' pieces,
    # gives the matrix of one call per (scorer, generator), bit for bit:
    # the reports split back by generator and are summed in piece order.
    model_a, model_b = two_models
    primes = [
        encode([tuple(QuantNote(t // 12, t % 12, 36 + (t % 3), 1, 0) for t in range(n))], GRID)
        for n in (14, 9, 20)
    ]
    params = FlowParams(burn_in=6, mode="predictive")
    batches = []

    def counting(model, pieces, params):
        batches.append(len(pieces))
        return information_flows(model, pieces, params)

    monkeypatch.setattr(harness_module, "information_flows", counting)
    report = self_enhancement(model_a, model_b, primes, steps=18, params=params, seed=4)
    assert batches == [2 * len(primes)] * 2
    models = {"a": model_a, "b": model_b}
    want = {}
    for s_name, s_model in models.items():
        want[s_name] = {}
        for g_index, (g_name, g_model) in enumerate(models.items()):
            seeds = [4 * 7919 + i * 2 + g_index for i in range(len(primes))]
            results = generate_many(g_model, primes, 18, seeds)
            pieces = [(sequence_notes(p), r.sampled_notes) for p, r in zip(primes, results)]
            flows = [r.total_flow for r in information_flows(s_model, pieces, params)]
            want[s_name][g_name] = sum(flows, 0.0) / len(flows)
    assert report.matrix == want
    assert report.skipped == 0


# --- synthetic corpora -------------------------------------------------------------

def test_echo_corpus_structure():
    pieces = echo_corpus(3, 16, seed=41, grid=GRID)
    assert [p.source_id for p in pieces] == ["echo-0000", "echo-0001", "echo-0002"]
    for piece in pieces:
        x, y = piece.tracks
        assert len(x) == len(y) == 16
        for t in range(1, 16):
            assert y[t, 2] - Y_PITCH_BASE == x[t - 1, 2] - X_PITCH_BASE
    seqs = training_encodings(pieces)
    assert len(seqs) == 9
    assert seqs[2].note_count == 32  # merged
    assert seqs[0].note_count == 16


def test_markov_corpus_is_deterministic():
    a = markov_corpus(independent_spec(), 4, 8, seed=9, grid=GRID)
    b = markov_corpus(independent_spec(), 4, 8, seed=9, grid=GRID)
    assert a == b
    c = markov_corpus(independent_spec(), 4, 8, seed=10, grid=GRID)
    assert a != c


# --- argument checks ----------------------------------------------------------

def test_batch_calls_refuse_lists_of_different_lengths(two_models):
    model, _ = two_models
    piece = two_voice_piece("p", 8)
    with pytest.raises(ValueError, match=r"^1 pieces but 0 piece ids$"):
        information_flows(model, [piece.tracks], piece_ids=[])
    prime = encode([piece.tracks[0]], GRID)
    with pytest.raises(ValueError, match=r"^1 primes but 0 seeds$"):
        generate_many(model, [prime], 4, [])
