"""Pair building, batch scoring, and the two bias experiments."""
import csv
import io
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from duetflow.events import Event, EventSequence, FIELD_NAMES, encode, sequence_notes
from duetflow.flow import FlowParams, information_flow
from duetflow.grid import GridSpec
from duetflow.harness import (
    NEGATIVE,
    POSITIVE,
    batch_score,
    build_pairs,
    echo_corpus,
    markov_corpus,
    positional_bias,
    self_enhancement,
    training_encodings,
)
from duetflow.midi import IneligiblePieceError, Piece, QuantNote
from duetflow.model import generate, train
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
        assert pair.x == corpus[int(pair.x_source[1])].tracks[0]
        assert pair.y == corpus[int(pair.x_source[1])].tracks[1]
    for pair in ps.by_label(NEGATIVE):
        assert pair.pair_id == f"{pair.x_source}#neg"
        assert pair.y_source != pair.x_source

    again = build_pairs(corpus, seed=7)
    assert again == ps


def test_build_pairs_skips_and_counts_ineligible():
    one_track = Piece("solo", GRID, (tuple(QuantNote(i, 0, 60, 6, 0) for i in range(8)),))
    three = two_voice_piece("three", 8)
    three = Piece("three", GRID, three.tracks + (three.tracks[0],))
    corpus = [two_voice_piece("a", 24), one_track, two_voice_piece("b", 24), three]
    ps = build_pairs(corpus, seed=0)
    assert ps.skipped == 2
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
        last_x = max(n.beat for n in pair.x)
        last_y = max(n.beat for n in pair.y)
        assert last_x <= 9 and last_y <= 9


def test_melody_index_selects_the_kept_voice():
    corpus = [two_voice_piece(f"p{i}", 16) for i in range(3)]
    ps0 = build_pairs(corpus, seed=2, melody_index=0)
    ps1 = build_pairs(corpus, seed=2, melody_index=1)
    assert ps0.by_label(POSITIVE)[0].x[0].pitch == 60
    assert ps1.by_label(POSITIVE)[0].x[0].pitch == 72
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
    serial = batch_score(model, pairs, FlowParams(), config={"run": 1})
    parallel = batch_score(model, pairs, FlowParams(), workers=2, config={"run": 1})
    assert parallel == serial
    assert parallel.scored[0].report.config == {"run": 1}


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


def test_self_enhancement_skips_empty_primes(two_models):
    model_a, model_b = two_models
    no_notes = EventSequence((Event(0, 0, 0, 0, 0, 0), Event(4, 0, 0, 0, 0, 0)), GRID)
    good = encode([tuple(QuantNote(0, t, 36, 1, 0) for t in range(12))], GRID)
    report = self_enhancement(
        model_a, model_b, [no_notes, good], steps=24, params=FlowParams(burn_in=4)
    )
    assert report.skipped == 1
    assert report.n_primes == 2


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
        if not notes:
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


# --- synthetic corpora -------------------------------------------------------------

def test_echo_corpus_structure():
    pieces = echo_corpus(3, 16, seed=41, grid=GRID)
    assert [p.source_id for p in pieces] == ["echo-0000", "echo-0001", "echo-0002"]
    for piece in pieces:
        x, y = piece.tracks
        assert len(x) == len(y) == 16
        for t in range(1, 16):
            assert y[t].pitch - Y_PITCH_BASE == x[t - 1].pitch - X_PITCH_BASE
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
