"""Experiment harness: pair discrimination, positional bias, self bias.

Everything here is deterministic given its seed, and per-piece failures
are recorded rather than fatal so a long batch always finishes.
"""
from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Sequence

import numpy as np

from . import oracle
from .events import EventSequence, FIELD_NAMES, N_FIELDS, encode_many, sequence_notes
# encode, information_flow and generate are no longer called here; they stay
# importable from this module because bench/tracing.py wraps them here.
from .events import encode  # noqa: F401
from .flow import FlowParams, FlowReport, information_flow, information_flows  # noqa: F401
from .grid import GridSpec
from .midi import IneligiblePieceError, Piece, _ByValue, as_track, split_tracks
from .model import ContextModel, generate, generate_many  # noqa: F401

POSITIVE = "positive"
NEGATIVE = "negative"


_PAIR_KEYS = ("pair_id", "label", "x_source", "y_source", "x", "y")


@dataclass(frozen=True, eq=False)
class Pair(_ByValue):
    """Two tracks to score; x and y go through ``as_track`` once, here."""

    pair_id: str
    label: str
    x_source: str
    y_source: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.pair_id, str):
            raise ValueError(f"pair id {self.pair_id!r} is not a string")
        if self.label not in (POSITIVE, NEGATIVE):
            raise ValueError(
                f"pair {self.pair_id!r}: label {self.label!r} is neither "
                f"{POSITIVE!r} nor {NEGATIVE!r}"
            )
        try:
            object.__setattr__(self, "x", as_track(self.x))
            object.__setattr__(self, "y", as_track(self.y))
        except ValueError as exc:
            raise ValueError(f"pair {self.pair_id!r}: {exc}") from None

    def _key(self) -> tuple:
        names = (self.pair_id, self.label, self.x_source, self.y_source)
        return (*names, self.x.tobytes(), self.y.tobytes())


def _notes_from_json(pair_id: object, raw: object) -> list:
    if not isinstance(raw, list):
        raise ValueError(f"pair {pair_id!r}: notes must be a list, got {raw!r}")
    for note in raw:
        if not (
            isinstance(note, list) and len(note) == 5 and all(type(v) is int for v in note)
        ):
            raise ValueError(f"pair {pair_id!r}: note {note!r} is not 5 integers")
    return raw


@dataclass(frozen=True)
class PairSet:
    pairs: tuple[Pair, ...]
    seed: int
    skipped: int

    def by_label(self, label: str) -> tuple[Pair, ...]:
        return tuple(p for p in self.pairs if p.label == label)

    def to_json(self) -> str:
        """The pair manifest that ``duetflow pairs`` writes and ``batch`` reads."""
        return json.dumps(
            {
                "seed": self.seed,
                "skipped": self.skipped,
                "pairs": [
                    {
                        "pair_id": p.pair_id,
                        "label": p.label,
                        "x_source": p.x_source,
                        "y_source": p.y_source,
                        "x": p.x.tolist(),
                        "y": p.y.tolist(),
                    }
                    for p in self.pairs
                ],
            },
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> PairSet:
        """Read a pair manifest; one of the wrong shape or types raises ValueError."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError(f"pair manifest must be a JSON object, got {type(raw).__name__}")
        if not isinstance(raw.get("pairs"), list):
            raise ValueError("pair manifest: 'pairs' must be a list")
        for key in ("seed", "skipped"):
            if type(raw.get(key)) is not int:
                raise ValueError(
                    f"pair manifest: {key!r} must be an integer, got {raw.get(key)!r}"
                )
        for i, p in enumerate(raw["pairs"]):
            if not (isinstance(p, dict) and all(k in p for k in _PAIR_KEYS)):
                raise ValueError(
                    f"pair manifest: pair {i} is not an object with keys {', '.join(_PAIR_KEYS)}"
                )
        pairs = tuple(
            Pair(
                p["pair_id"],
                p["label"],
                p["x_source"],
                p["y_source"],
                _notes_from_json(p["pair_id"], p["x"]),
                _notes_from_json(p["pair_id"], p["y"]),
            )
            for p in raw["pairs"]
        )
        return cls(pairs, raw["seed"], raw["skipped"])


def _truncate_at_common_end(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut both tracks at the earlier of the two tracks' last beats."""
    last = min(x[:, 0].max(), y[:, 0].max())
    return x[x[:, 0] <= last], y[y[:, 0] <= last]


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
    eligible: list[tuple[str, np.ndarray, np.ndarray]] = []
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
        if not len(x) or not len(y):
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


def _summary(values: np.ndarray) -> dict:
    """Mean, median and sample standard deviation (0 for one value)."""
    return {
        "mean": float(values.mean()),
        "median": float(statistics.median(values.tolist())),
        "std": float(values.std(ddof=1)) if len(values) > 1 else 0.0,
    }


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
            out[label] = {
                "count": int(len(flows)),
                **_summary(flows),
                "fields": {
                    name: _summary(self.label_flows(label, f))
                    for f, name in enumerate(FIELD_NAMES)
                },
            }
        return out

    def t_statistic(self, field_index: int | None = None) -> float | None:
        """One-sided Welch t for positives carrying more flow than negatives.

        None when either label has fewer than two flows, whose variance is
        undefined, or when the standard error is 0, that is when every pair
        of each label has the same flow: t is then not a number.
        """
        pos = self.label_flows(POSITIVE, field_index)
        neg = self.label_flows(NEGATIVE, field_index)
        if min(len(pos), len(neg)) < 2:
            return None
        stderr = np.sqrt(pos.var(ddof=1) / len(pos) + neg.var(ddof=1) / len(neg))
        if stderr == 0:
            return None
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


def _score_pairs(
    model: ContextModel, pairs: Sequence[Pair], params: FlowParams
) -> list[ScoredPair]:
    results = information_flows(
        model, [(p.x, p.y) for p in pairs], params, piece_ids=[p.pair_id for p in pairs]
    )
    return [
        ScoredPair(p, None, str(r)) if isinstance(r, ValueError) else ScoredPair(p, r)
        for p, r in zip(pairs, results)
    ]


def batch_score(
    model: ContextModel,
    pairs: PairSet | Sequence[Pair],
    params: FlowParams = FlowParams(),
    *,
    workers: int = 1,
) -> ExperimentReport:
    """Score every pair; per-pair errors land in the report, not the caller.

    All pairs are scored in one batch, or, with workers > 1, split into one
    chunk per worker process. Every score is per position, so the report
    is the same either way.
    """
    pair_list = list(pairs.pairs if isinstance(pairs, PairSet) else pairs)
    if workers > 1:
        # Imported here so that no other path loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        model.fingerprint()  # cached before pickling, so no worker recomputes it
        size = max(1, -(-len(pair_list) // workers))
        chunks = [pair_list[i : i + size] for i in range(0, len(pair_list), size)]
        score = partial(_score_pairs, model, params=params)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            scored = [s for chunk in pool.map(score, chunks) for s in chunk]
    else:
        scored = _score_pairs(model, pair_list, params)
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
    """Score every piece in both argument orders and compare the reports.

    Both orders of all pieces are scored in one batch; the first error in
    piece order is raised.
    """
    if not pieces:
        raise ValueError("no pieces to score")
    splits: list = []
    for piece in pieces:
        try:
            splits.append(split_tracks(piece))
        except ValueError as exc:
            splits.append(exc)
    voices = [s for s in splits if not isinstance(s, ValueError)]
    both = information_flows(model, voices + [(y, x) for x, y in voices], params)
    reports = zip(both[: len(voices)], both[len(voices) :])
    diffs = np.zeros(N_FIELDS)
    bit_exact = True
    for split in splits:
        if isinstance(split, ValueError):
            raise split
        fwd, rev = next(reports)
        for report in (fwd, rev):
            if isinstance(report, ValueError):
                raise report
        if fwd != rev:
            bit_exact = False
        delta = np.array(fwd.field_flows) - np.array(rev.field_flows)
        diffs += delta**2
    mse = {name: float(diffs[f] / len(pieces)) for f, name in enumerate(FIELD_NAMES)}
    return BiasReport(mse, bit_exact, len(pieces))


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

    The prime is voice X and the sampled continuation is voice Y. Each
    model continues all primes in lockstep; then each scorer scores every
    generator's pieces in one batch, and the reports are summed back by
    generator in piece order. Whether each scorer rates its own generator
    higher is reported as an observed direction, nothing more.
    """
    if steps <= params.burn_in:
        raise ValueError(
            f"steps {steps} must exceed burn_in {params.burn_in}, "
            "or no continuation has an event to score"
        )
    if seed < 0:
        raise ValueError(f"seed {seed} must be >= 0")
    models = {"a": model_a, "b": model_b}
    sums = {s: {g: 0.0 for g in models} for s in models}
    counts = {s: {g: 0 for g in models} for s in models}
    kept = [(i, prime, sequence_notes(prime)) for i, prime in enumerate(primes)]
    kept = [(i, prime, notes) for i, prime, notes in kept if len(notes)]
    skipped = len(primes) - len(kept)
    pieces: list[tuple] = []
    makers: list[str] = []  # the generator of each piece
    for g_index, (g_name, g_model) in enumerate(models.items()):
        results = generate_many(
            g_model,
            [prime for _, prime, _ in kept],
            steps,
            [seed * 7919 + i * 2 + g_index for i, _, _ in kept],
        )
        for (_, _, notes), r in zip(kept, results):
            if isinstance(r, ValueError):
                skipped += 1
            else:
                # One array per continuation, not its QuantNote tuple, which
                # each scorer would convert again.
                pieces.append((notes, as_track(r.sampled_notes)))
                makers.append(g_name)
    for s_name, s_model in models.items():
        for g_name, report in zip(makers, information_flows(s_model, pieces, params)):
            if isinstance(report, ValueError):
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


def echo_corpus(n_pieces: int, piece_len: int, seed: int, grid: GridSpec) -> list[Piece]:
    """Pieces whose second voice repeats the first, one step later."""
    return markov_corpus(oracle.copy_spec(), n_pieces, piece_len, seed, grid, name="echo")


def training_encodings(
    pieces: Sequence[Piece], *, split_shared_programs: bool = False
) -> list[EventSequence]:
    """Solo and merged encodings of each piece, the standard training diet.

    Train with the ``split_shared_programs`` of the ``FlowParams`` that
    will score, so the model learns the merged view it is asked about.
    Each run of pieces on one grid is encoded by one ``encode_many``; the
    first piece in order that cannot be encoded, or is not a duet, raises.
    """
    items, ineligible = [], None
    for piece in pieces:
        try:
            x, y = split_tracks(piece)
        except IneligiblePieceError as exc:
            ineligible = exc
            break
        items += [(piece.grid, [x]), (piece.grid, [y]), (piece.grid, [x, y])]
    corpus: list[EventSequence] = []
    for grid, run in groupby(items, key=itemgetter(0)):
        tracks = [t for _, t in run]
        for seq in encode_many(tracks, grid, split_shared_programs=split_shared_programs):
            if isinstance(seq, ValueError):
                raise seq
            corpus.append(seq)
    if ineligible is not None:
        raise ineligible
    return corpus
