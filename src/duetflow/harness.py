"""Experiment harness: pair discrimination, positional bias, self bias.

Everything here is deterministic given its seed, and per-piece failures
are recorded rather than fatal so a long batch always finishes.
"""
from __future__ import annotations

import csv
import io
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import oracle
from .events import EventSequence, FIELD_NAMES, N_FIELDS, TYPE_NOTE, encode
from .flow import FlowParams, FlowReport, information_flow
from .grid import GridSpec
from .midi import IneligiblePieceError, Piece, QuantNote, split_tracks
from .model import ContextModel, GenerationResult, generate

POSITIVE = "positive"
NEGATIVE = "negative"


@dataclass(frozen=True)
class Pair:
    pair_id: str
    label: str
    x_source: str
    y_source: str
    x: tuple[QuantNote, ...]
    y: tuple[QuantNote, ...]


@dataclass(frozen=True)
class PairSet:
    pairs: tuple[Pair, ...]
    seed: int
    skipped: int

    def by_label(self, label: str) -> tuple[Pair, ...]:
        return tuple(p for p in self.pairs if p.label == label)


def _truncate_at_common_end(
    x: tuple[QuantNote, ...], y: tuple[QuantNote, ...]
) -> tuple[tuple[QuantNote, ...], tuple[QuantNote, ...]]:
    """Cut both tracks at the earlier of the two final-note beats."""
    last = min(x[-1].beat, y[-1].beat)
    return (
        tuple(n for n in x if n.beat <= last),
        tuple(n for n in y if n.beat <= last),
    )


def build_pairs(
    corpus: Sequence[Piece], seed: int, *, melody_index: int = 0
) -> PairSet:
    """One positive pair per eligible piece plus one shuffled negative.

    A negative keeps the piece's melody and swaps in the accompaniment of
    another piece, drawn uniformly at random from the rest of the corpus;
    the mismatched tracks are truncated to a shared end beat. Ineligible
    pieces are skipped and counted.
    """
    if melody_index not in (0, 1):
        raise ValueError("melody_index must be 0 or 1")
    eligible: list[tuple[str, tuple[QuantNote, ...], tuple[QuantNote, ...]]] = []
    skipped = 0
    for piece in corpus:
        try:
            a, b = split_tracks(piece)
        except IneligiblePieceError:
            skipped += 1
            continue
        melody, accomp = (a, b) if melody_index == 0 else (b, a)
        eligible.append((piece.source_id, melody, accomp))
    if len(eligible) < 2:
        raise IneligiblePieceError(
            f"need at least 2 eligible pieces, found {len(eligible)}", "corpus"
        )

    rng = np.random.default_rng(seed)
    pairs: list[Pair] = []
    for source, melody, accomp in eligible:
        pairs.append(Pair(f"{source}#pos", POSITIVE, source, source, melody, accomp))
    for i, (source, melody, _) in enumerate(eligible):
        donor_index = int(rng.integers(len(eligible) - 1))
        if donor_index >= i:
            donor_index += 1
        donor_source, _, donor_accomp = eligible[donor_index]
        x, y = _truncate_at_common_end(melody, donor_accomp)
        if not x or not y:
            skipped += 1
            continue
        pairs.append(
            Pair(f"{source}#neg", NEGATIVE, source, donor_source, x, y)
        )
    return PairSet(tuple(pairs), seed, skipped)


@dataclass(frozen=True)
class ScoredPair:
    pair: Pair
    report: FlowReport | None
    error: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    scored: tuple[ScoredPair, ...]
    params: FlowParams
    model_id: str

    @property
    def failures(self) -> int:
        return sum(1 for s in self.scored if s.report is None)

    def label_flows(self, label: str, field_index: int | None = None) -> np.ndarray:
        values = [
            s.report.total_flow if field_index is None else s.report.field_flows[field_index]
            for s in self.scored
            if s.pair.label == label and s.report is not None
        ]
        return np.array(values)

    def aggregates(self) -> dict:
        out: dict = {}
        for label in (POSITIVE, NEGATIVE):
            flows = self.label_flows(label)
            if len(flows) == 0:
                continue
            entry = {
                "count": int(len(flows)),
                "mean": float(flows.mean()),
                "median": float(statistics.median(flows.tolist())),
                "std": float(flows.std(ddof=1)) if len(flows) > 1 else 0.0,
                "fields": {},
            }
            for f, name in enumerate(FIELD_NAMES):
                per = self.label_flows(label, f)
                entry["fields"][name] = {
                    "mean": float(per.mean()),
                    "median": float(statistics.median(per.tolist())),
                    "std": float(per.std(ddof=1)) if len(per) > 1 else 0.0,
                }
            out[label] = entry
        return out

    def t_statistic(self, field_index: int | None = None) -> float:
        """One-sided Welch t for positives carrying more flow than negatives."""
        pos = self.label_flows(POSITIVE, field_index)
        neg = self.label_flows(NEGATIVE, field_index)
        stderr = np.sqrt(pos.var(ddof=1) / len(pos) + neg.var(ddof=1) / len(neg))
        return float((pos.mean() - neg.mean()) / stderr)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["piece_id", "label", "field", "H_X", "H_Y", "H_XY", "flow", "mode", "context_len"]
        )
        for s in self.scored:
            if s.report is None:
                continue
            r = s.report
            for f, name in enumerate(FIELD_NAMES):
                writer.writerow(
                    [
                        s.pair.pair_id,
                        s.pair.label,
                        name,
                        repr(r.h_first[f]),
                        repr(r.h_second[f]),
                        repr(r.h_merged[f]),
                        repr(r.field_flows[f]),
                        r.mode,
                        r.context_len,
                    ]
                )
        return buf.getvalue()


_WORKER_MODEL: ContextModel | None = None
_WORKER_PARAMS: FlowParams | None = None


def _init_worker(model: ContextModel, params: FlowParams) -> None:
    global _WORKER_MODEL, _WORKER_PARAMS
    _WORKER_MODEL = model
    _WORKER_PARAMS = params
    model.fingerprint()


def _score_pair_remote(pair: Pair) -> ScoredPair:
    assert _WORKER_MODEL is not None and _WORKER_PARAMS is not None
    return _score_pair(_WORKER_MODEL, pair, _WORKER_PARAMS, None)


def _score_pair(
    model: ContextModel, pair: Pair, params: FlowParams, config: dict | None
) -> ScoredPair:
    try:
        report = information_flow(
            model, pair.x, pair.y, params, piece_id=pair.pair_id, config=config
        )
        return ScoredPair(pair, report)
    except ValueError as exc:
        return ScoredPair(pair, None, str(exc))


def batch_score(
    model: ContextModel,
    pairs: PairSet | Sequence[Pair],
    params: FlowParams = FlowParams(),
    *,
    workers: int = 1,
    config: dict | None = None,
) -> ExperimentReport:
    """Score every pair; per-pair errors land in the report, not the caller."""
    pair_list = list(pairs.pairs if isinstance(pairs, PairSet) else pairs)
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(model, params)
        ) as pool:
            scored = list(pool.map(_score_pair_remote, pair_list, chunksize=8))
        if config:
            scored = [
                ScoredPair(
                    s.pair,
                    None if s.report is None else replace(s.report, config=dict(config)),
                    s.error,
                )
                for s in scored
            ]
    else:
        scored = [_score_pair(model, p, params, config) for p in pair_list]
    return ExperimentReport(tuple(scored), params, model.fingerprint())


@dataclass(frozen=True)
class BiasReport:
    """Squared disagreement between flow(X, Y) and flow(Y, X)."""

    mse_per_field: dict[str, float]
    bit_exact: bool
    n_pieces: int

    @property
    def max_mse(self) -> float:
        return max(self.mse_per_field.values())


def positional_bias(
    model: ContextModel,
    pieces: Sequence[Piece],
    params: FlowParams = FlowParams(),
) -> BiasReport:
    """Score every piece in both argument orders and compare the reports."""
    diffs = np.zeros(N_FIELDS)
    bit_exact = True
    n = 0
    for piece in pieces:
        x, y = split_tracks(piece)
        fwd = information_flow(model, x, y, params, piece_id=piece.source_id)
        rev = information_flow(model, y, x, params, piece_id=piece.source_id)
        if fwd != rev:
            bit_exact = False
        delta = np.array(fwd.field_flows) - np.array(rev.field_flows)
        diffs += delta**2
        n += 1
    if n == 0:
        raise ValueError("no pieces to score")
    mse = {name: float(diffs[f] / n) for f, name in enumerate(FIELD_NAMES)}
    return BiasReport(mse, bit_exact, n)


@dataclass(frozen=True)
class SelfBiasReport:
    """Mean flow of generated pieces, by scoring model and generating model."""

    matrix: dict[str, dict[str, float]]
    prefers_own: dict[str, bool]
    n_primes: int
    skipped: int
    steps: int

    def to_text(self) -> str:
        lines = [f"primes: {self.n_primes} (skipped {self.skipped}), steps: {self.steps}"]
        for scorer, row in self.matrix.items():
            cells = "  ".join(f"gen_{g}={v:+.4f}" for g, v in row.items())
            lines.append(f"scorer_{scorer}: {cells}")
        for scorer, own in self.prefers_own.items():
            lines.append(f"scorer_{scorer}_prefers_own: {own}")
        return "\n".join(lines) + "\n"


def self_enhancement(
    model_a: ContextModel,
    model_b: ContextModel,
    primes: Sequence[EventSequence],
    steps: int,
    params: FlowParams = FlowParams(),
    *,
    seed: int = 0,
) -> SelfBiasReport:
    """Continue each prime with both models, score every piece with both.

    The prime is voice X and the sampled continuation is voice Y. Whether
    each scorer rates its own generator higher is reported as an observed
    direction, nothing more.
    """
    models = {"a": model_a, "b": model_b}
    sums = {s: {g: 0.0 for g in models} for s in models}
    counts = {s: {g: 0 for g in models} for s in models}
    skipped = 0
    for i, prime in enumerate(primes):
        prime_notes = tuple(
            QuantNote(e.beat, e.position, e.pitch, e.duration, e.instrument)
            for e in prime.events
            if e.type == TYPE_NOTE
        )
        if not prime_notes:
            skipped += 1
            continue
        for g_index, (g_name, g_model) in enumerate(models.items()):
            try:
                result: GenerationResult = generate(
                    g_model, prime, steps, seed * 7919 + i * 2 + g_index
                )
            except ValueError:
                skipped += 1
                continue
            for s_name, s_model in models.items():
                try:
                    report = information_flow(
                        s_model,
                        prime_notes,
                        result.sampled_notes,
                        params,
                        piece_id=f"prime{i}-gen{g_name}",
                    )
                except ValueError:
                    skipped += 1
                    continue
                sums[s_name][g_name] += report.total_flow
                counts[s_name][g_name] += 1
    matrix = {
        s: {g: (sums[s][g] / counts[s][g]) if counts[s][g] else float("nan") for g in sums[s]}
        for s in sums
    }
    prefers = {
        "a": matrix["a"]["a"] > matrix["a"]["b"],
        "b": matrix["b"]["b"] > matrix["b"]["a"],
    }
    return SelfBiasReport(matrix, prefers, len(primes), skipped, steps)


# ---------------------------------------------------------------------------
# Synthetic corpora backed by the exact oracle


def markov_corpus(
    spec: oracle.JointMarkovSpec,
    n_pieces: int,
    piece_len: int,
    seed: int,
    grid: GridSpec,
    *,
    name: str = "piece",
) -> list[Piece]:
    """Two-voice pieces sampled from a joint chain, one symbol per step."""
    xs, ys = oracle.sample_paths(spec, n_pieces * piece_len, seed)
    pieces = []
    for i, (tx, ty) in enumerate(oracle.embed_pieces(xs, ys, piece_len, grid)):
        pieces.append(Piece(f"{name}-{i:04d}", grid, (tx, ty)))
    return pieces


def echo_corpus(
    n_pieces: int, piece_len: int, seed: int, grid: GridSpec, *, alphabet: int = 2
) -> list[Piece]:
    """Pieces whose second voice repeats the first, one step later."""
    return markov_corpus(
        oracle.copy_spec(alphabet), n_pieces, piece_len, seed, grid, name="echo"
    )


def training_encodings(pieces: Sequence[Piece]) -> list[EventSequence]:
    """Solo and merged encodings of each piece, the standard training diet."""
    corpus = []
    for piece in pieces:
        x, y = split_tracks(piece)
        corpus.append(encode([x], piece.grid))
        corpus.append(encode([y], piece.grid))
        corpus.append(encode([x, y], piece.grid))
    return corpus
