"""Acceptance gate: every top-level guarantee, one printed line each.

Run with -s to see the lines as they pass:  pytest tests/test_acceptance.py -v -s
"""
import math
import time

import numpy as np

from conftest import GOLDEN_QUANT_ACCOMP, GOLDEN_QUANT_MELODY

from duetflow import oracle
from duetflow.events import (
    TYPE_END,
    TYPE_INSTRUMENT,
    TYPE_NOTE,
    TYPE_NOTES_BEGIN,
    TYPE_START,
    decode,
    encode,
    seq_from_text,
    seq_to_text,
    validate_sequence,
)
from duetflow.flow import conditional_entropy, information_flow
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
from duetflow.midi import Piece, QuantNote, piece_from_bytes
from duetflow.model import empty_model, train
from reference_events import event_rows

GRID = GridSpec()


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_flow_identity_on_random_chains():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        res = oracle.exact_flow(oracle.random_spec(seed))
        gap = abs(res.info_flow - (res.te_x_to_y + res.te_y_to_x + res.instantaneous))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10
    _report(
        1,
        ok,
        f"flow = te_xy + te_yx + instantaneous, worst gap {worst:.2e} "
        f"over 100 random chains in {elapsed:.2f}s (limits 1e-9, 10s)",
    )


def test_criterion_2_pipeline_matches_oracle_on_canonical_chains():
    t0 = time.perf_counter()
    cases = [
        ("independent", oracle.independent_spec()),
        ("copy", oracle.copy_spec(2)),
        ("instantaneous", oracle.instantaneous_spec(2)),
    ]
    parts = []
    ok = True
    for name, spec in cases:
        target = oracle.exact_flow(spec).info_flow
        xs, ys = oracle.sample_paths(spec, 100_000, 101)
        pieces = [
            Piece(f"{name}-{i:04d}", GRID, tracks)
            for i, tracks in enumerate(oracle.embed_pieces(xs, ys, 128, GRID))
        ]
        model = train(training_encodings(pieces), k=4)
        ex, ey = oracle.sample_paths(spec, 120 * 128, 202)
        flows = [
            information_flow(model, tx, ty).total_flow
            for tx, ty in oracle.embed_pieces(ex, ey, 128, GRID)
        ]
        measured = float(np.mean(flows))
        tol = max(0.10 * abs(target), 0.02)
        ok = ok and abs(measured - target) <= tol
        parts.append(f"{name} {measured:+.4f} vs {target:+.4f} (tol {tol:.4f})")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    _report(2, ok, "; ".join(parts) + f"; {elapsed:.1f}s (limit 120s)")


def test_criterion_3_matched_pairs_outscore_shuffled_pairs():
    t0 = time.perf_counter()
    model = train(training_encodings(echo_corpus(300, 64, seed=303, grid=GRID)), k=4)
    pairs = build_pairs(echo_corpus(100, 64, seed=304, grid=GRID), seed=305)
    report = batch_score(model, pairs)
    t_total = report.t_statistic()
    pos_pitch = float(report.label_flows(POSITIVE, 3).mean())
    neg_pitch = float(report.label_flows(NEGATIVE, 3).mean())
    elapsed = time.perf_counter() - t0
    ok = (
        report.failures == 0
        and len(report.label_flows(POSITIVE)) == 100
        and t_total > 3.0
        and pos_pitch > neg_pitch
        and elapsed < 300
    )
    _report(
        3,
        ok,
        f"one-sided t {t_total:.1f} > 3 on 100 echo pieces; pitch flow "
        f"{pos_pitch:+.3f} (pos) > {neg_pitch:+.3f} (neg); {elapsed:.1f}s (limit 300s)",
    )


def test_criterion_4_argument_order_cannot_matter():
    t0 = time.perf_counter()
    model = train(training_encodings(echo_corpus(100, 64, seed=401, grid=GRID)), k=4)
    pieces = echo_corpus(50, 64, seed=402, grid=GRID)
    report = positional_bias(model, pieces)
    elapsed = time.perf_counter() - t0
    ok = (
        report.n_pieces == 50
        and report.bit_exact
        and report.max_mse == 0.0
        and all(v == 0.0 for v in report.mse_per_field.values())
        and elapsed < 60
    )
    _report(
        4,
        ok,
        f"swap MSE exactly 0.0 in every field and reports bit-exact over "
        f"{report.n_pieces} pieces; {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_5_self_scoring_matrix_is_deterministic_and_complete():
    t0 = time.perf_counter()
    model_a = train(training_encodings(echo_corpus(120, 64, seed=501, grid=GRID)), k=4)
    model_b = train(
        training_encodings(markov_corpus(oracle.independent_spec(), 120, 64, 502, GRID)),
        k=4,
    )
    primes = [
        encode([piece.tracks[0]], GRID)
        for piece in echo_corpus(20, 32, seed=503, grid=GRID)
    ]
    report = self_enhancement(model_a, model_b, primes, steps=200, seed=504)
    again = self_enhancement(model_a, model_b, primes, steps=200, seed=504)
    cells = [report.matrix[s][g] for s in ("a", "b") for g in ("a", "b")]
    elapsed = time.perf_counter() - t0
    ok = (
        report == again
        and report.n_primes == 20
        and report.steps == 200
        and report.skipped == 0
        and all(math.isfinite(v) for v in cells)
        and set(report.prefers_own) == {"a", "b"}
        and elapsed < 300
    )
    _report(
        5,
        ok,
        "2x2 matrix "
        + " ".join(f"{v:+.3f}" for v in cells)
        + f", reproduced exactly; own-preference recorded as {report.prefers_own}; "
        f"{elapsed:.1f}s (limit 300s)",
    )


def test_criterion_6_entropy_estimator_sanity():
    t0 = time.perf_counter()

    # (a) a deterministic periodic pattern must be almost free to encode
    cycle = [60, 64, 67, 72]
    periodic = encode([[QuantNote(i, 0, cycle[i % 4], 12, 0) for i in range(96)]], GRID)
    model_a = train([periodic] * 100, k=4)
    assert model_a.trained_events == 10_000
    periodic_nll = conditional_entropy(model_a, periodic).mean_total

    # (b) i.i.d. uniform pitches over 4 values must cost about ln 4 each.
    # k=1 keeps every context densely counted at this corpus size.
    pitch_set = np.array([60, 62, 64, 67])

    def piece(r):
        picks = pitch_set[r.integers(0, 4, 100)]
        return encode([[QuantNote(t, 0, int(p), 12, 0) for t, p in enumerate(picks)]], GRID)

    rng = np.random.default_rng(61)
    model_b = train([piece(rng) for _ in range(1000)], k=1)
    eval_rng = np.random.default_rng(62)
    uniform_pitch = float(
        np.mean([conditional_entropy(model_b, piece(eval_rng)).field_means[3] for _ in range(30)])
    )

    # (c) an untrained model in predictive mode knows nothing but the vocab
    untrained_pitch = conditional_entropy(
        empty_model(GRID, k=4), periodic, mode="predictive"
    ).field_means[3]

    elapsed = time.perf_counter() - t0
    ok_a = periodic_nll < 0.02
    ok_b = abs(uniform_pitch - math.log(4)) <= 0.03 * math.log(4)
    ok_c = abs(untrained_pitch - math.log(128)) < 1e-12
    ok = ok_a and ok_b and ok_c and elapsed < 60
    _report(
        6,
        ok,
        f"(a) periodic nll {periodic_nll:.2e} < 0.02; "
        f"(b) iid pitch {uniform_pitch:.4f} within 3% of ln4 {math.log(4):.4f}; "
        f"(c) untrained predictive pitch = ln 128; {elapsed:.1f}s (limit 60s)",
    )


def _assert_structure(seq) -> None:
    events = event_rows(seq)
    types = [e.type for e in events]
    assert types[0] == TYPE_START and types[-1] == TYPE_END
    assert types.count(TYPE_START) == 1 and types.count(TYPE_END) == 1
    assert types.count(TYPE_NOTES_BEGIN) == 1
    nb = types.index(TYPE_NOTES_BEGIN)
    assert nb >= 2 and all(t == TYPE_INSTRUMENT for t in types[1:nb])
    instruments = [e.instrument for e in events[1:nb]]
    assert instruments == sorted(set(instruments))
    notes = events[nb + 1 : -1]
    assert all(e.type == TYPE_NOTE for e in notes)
    onsets = [e.beat * seq.grid.resolution + e.position for e in notes]
    assert onsets == sorted(onsets)
    declared = set(instruments)
    assert all(e.instrument in declared for e in notes)


def test_criterion_7_representation_round_trips(golden_midi, grid):
    t0 = time.perf_counter()
    rng = np.random.default_rng(71)
    problem = ""
    try:
        for i in range(10_000):
            tracks = []
            for _ in range(int(rng.integers(1, 3))):
                beats = np.sort(rng.integers(0, GRID.max_beat, int(rng.integers(1, 13))))
                tracks.append(
                    sorted(
                        QuantNote(
                            int(b),
                            int(rng.integers(0, GRID.resolution)),
                            int(rng.integers(0, 128)),
                            int(rng.integers(1, GRID.max_duration + 1)),
                            int(rng.integers(0, 128)),
                        )
                        for b in beats
                    )
                )
            seq = encode(tracks, GRID)
            validate_sequence(seq)
            _assert_structure(seq)
            assert decode(seq) == tuple(sorted(n for t in tracks for n in t))
            if i % 20 == 0:
                assert event_rows(seq_from_text(seq_to_text(seq), GRID)) == event_rows(seq)
        round_trips_ok = True
    except AssertionError as exc:
        round_trips_ok = False
        problem = f" ({exc})"

    piece = piece_from_bytes(golden_midi, "golden", grid)
    golden_ok = piece.tracks == (GOLDEN_QUANT_MELODY, GOLDEN_QUANT_ACCOMP)
    elapsed = time.perf_counter() - t0
    ok = round_trips_ok and golden_ok and elapsed < 30
    _report(
        7,
        ok,
        f"10^4 random sequences encode/decode and hold structure{problem}; "
        f"golden fixture bit-exact: {golden_ok}; {elapsed:.1f}s (limit 30s)",
    )
