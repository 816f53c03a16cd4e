"""The benchmark's three workloads: inputs from a seed, one timed job, checks.

Each workload is a closed loop: the runner calls ``job`` again as soon as
the previous call returns, from one process, with ``workers=1``.

- ``oracle_copy`` is the train-heavy path and the only one with a
  closed-form answer: the copy chain of acceptance criterion 2, handed
  through event text the way ``duetflow oracle sample`` and ``train`` do.
- ``midi_pairs`` is the read-heavy path: a large, sparse model is loaded
  and fingerprinted, real MIDI files are parsed, and pairs are scored in
  nll mode.
- ``selfbias_predictive`` uses the same model tables for dense predictive
  distributions (``generate``, ``predict_next``, predictive scoring)
  instead of point lookups.

Sizes are smaller than the full criterion-2 corpus so that several jobs fit
in one measured run; ``oracle_copy`` keeps enough training data to land
inside the criterion-2 tolerance on every seed.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Generator

import numpy as np

import midigen
from duetflow import events, flow, harness, midi, model, oracle
from duetflow.config import Config
from duetflow.grid import GridSpec

GRID = GridSpec()
K = 4
PIECE_STEPS = 128
PRIME_NOTES = 40
PRIMES_PER_CALL = 2


@dataclass(frozen=True)
class JobResult:
    digest: dict  # outputs; equal across jobs of one run, compared to references
    attempted: int
    failed: int
    rejected_files: int = 0  # inputs the reader must refuse; not failures


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def _check_floats(name: str, got: list[float], want: list[float]) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: {len(got)} values, reference has {len(want)}"]
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if not _close(g, w)]
    if bad:
        i = bad[0]
        return [f"{name}: {len(bad)} values off at rel 1e-12, first [{i}] {got[i]!r} vs {want[i]!r}"]
    return []


def _notes_digest(notes) -> str:
    return hashlib.sha256(repr(tuple(tuple(n) for n in notes)).encode()).hexdigest()[:16]


class Workload:
    name = ""
    sizes: dict[str, dict[str, int]] = {}

    def __init__(self, seed: int, work_dir: Path, size: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.size = size
        self.n = self.sizes[size]

    def setup(self) -> Generator[None, None, None]:
        """Make the inputs from the seed and train what the job needs.

        A generator that yields after each stage, timed like ``job``.
        """
        raise NotImplementedError

    def job(self) -> Generator[None, None, JobResult]:
        """One timed job, as a generator that yields after each stage.

        The runner times each stage between two passes of the reference
        loop; only cheap bookkeeping may follow the last yield.
        """
        raise NotImplementedError

    def checks(self, result: JobResult, reference: dict | None) -> list[str]:
        """Failures found in the outputs; statistical checks need full size."""
        raise NotImplementedError

    def observed(self, result: JobResult) -> dict:
        """The outputs that ``references.json`` pins for the default seed."""
        return result.digest

    def cli_case(self) -> tuple[list[str], float]:
        """Arguments of one ``duetflow score`` call and the library's total flow."""
        raise NotImplementedError

    def train_corpus(self) -> list[events.EventSequence]:
        """The sequences one training call of this workload counts."""
        raise NotImplementedError

    def model_blob(self) -> bytes:
        raise NotImplementedError

    def pool_case(self):
        """(model, pairs) for the workers=2 comparison, where the job has pairs."""
        return None


class OracleCopy(Workload):
    name = "oracle_copy"
    sizes = {"full": {"pieces": 320, "eval": 40}, "small": {"pieces": 12, "eval": 4}}

    def setup(self) -> Generator[None, None, None]:
        self.spec = oracle.copy_spec(2)
        yield

    def _corpus(self) -> list[events.EventSequence]:
        xs, ys = oracle.sample_paths(self.spec, self.n["pieces"] * PIECE_STEPS, self.seed)
        pieces = [
            midi.Piece(f"chain-{i:04d}", GRID, tracks)
            for i, tracks in enumerate(oracle.embed_pieces(xs, ys, PIECE_STEPS, GRID))
        ]
        return harness.training_encodings(pieces)

    def job(self) -> Generator[None, None, JobResult]:
        encoded = self._corpus()
        texts = [events.seq_to_text(seq) for seq in encoded]
        probe, encoded = encoded[:6], None
        yield
        corpus = [events.seq_from_text(text, GRID) for text in texts]
        self.text_probe = (probe, corpus[:6])
        yield
        trained = model.train(corpus, K)
        yield
        blob = model.save_model(trained)
        trained = model.load_model(blob)
        yield
        xs, ys = oracle.sample_paths(self.spec, self.n["eval"] * PIECE_STEPS, self.seed + 1_000_000)
        flows, failed = [], 0
        for x, y in oracle.embed_pieces(xs, ys, PIECE_STEPS, GRID):
            try:
                flows.append(flow.information_flow(trained, x, y).total_flow)
            except ValueError:
                failed += 1
        target = oracle.exact_flow(self.spec).info_flow
        yield
        self.model, self.blob = trained, blob
        digest = {
            "fingerprint": trained.fingerprint(),
            "trained_events": trained.trained_events,
            "exact_flow": target,
            "flows": flows,
        }
        return JobResult(digest, self.n["eval"], failed)

    def checks(self, result: JobResult, reference: dict | None) -> list[str]:
        d = result.digest
        out = []
        if hashlib.blake2b(self.blob, digest_size=8).hexdigest() != d["fingerprint"]:
            out.append("save_model/load_model round trip changed the model bytes")
        if self.text_probe[0] != self.text_probe[1]:
            out.append("event text round trip changed a sequence")
        if self.size == "full":
            measured = float(np.mean(d["flows"]))
            tol = max(0.10 * abs(d["exact_flow"]), 0.02)
            if abs(measured - d["exact_flow"]) > tol:
                out.append(
                    f"mean flow {measured:.4f} not within {tol:.4f} of exact {d['exact_flow']:.4f}"
                )
        if reference is not None:
            if d["fingerprint"] != reference["fingerprint"]:
                out.append(f"fingerprint {d['fingerprint']} != reference {reference['fingerprint']}")
            out += _check_floats("exact_flow", [d["exact_flow"]], [reference["exact_flow"]])
            out += _check_floats("flows", d["flows"], reference["flows"])
        return out

    def cli_case(self) -> tuple[list[str], float]:
        xs, ys = oracle.sample_paths(self.spec, PIECE_STEPS, self.seed + 1_000_000)
        ((x, y),) = oracle.embed_pieces(xs, ys, PIECE_STEPS, GRID)
        model_path = self.work_dir / "oracle.dfm"
        model.save_model_file(self.model, model_path)
        (self.work_dir / "x.txt").write_text(midi.track_to_text(x))
        (self.work_dir / "y.txt").write_text(midi.track_to_text(y))
        argv = [
            "--model", str(model_path),
            "--x-text", str(self.work_dir / "x.txt"),
            "--y-text", str(self.work_dir / "y.txt"),
        ]
        return argv, flow.information_flow(self.model, x, y, Config().flow_params).total_flow

    def train_corpus(self) -> list[events.EventSequence]:
        return self._corpus()

    def model_blob(self) -> bytes:
        return self.blob


def _encodings(files: list[tuple[str, bytes]]) -> list[events.EventSequence]:
    pieces = [midi.piece_from_bytes(data, name, GRID) for name, data in files]
    return harness.training_encodings(pieces)


def _train_on(files: list[tuple[str, bytes]]) -> model.ContextModel:
    return model.train(_encodings(files), K)


class MidiPairs(Workload):
    name = "midi_pairs"
    sizes = {"full": {"train": 100, "held": 60}, "small": {"train": 8, "held": 6}}

    def setup(self) -> Generator[None, None, None]:
        files = midigen.corpus(self.seed, 0, self.n["train"] + self.n["held"])
        self.held_dir = self.work_dir / "held"
        self.held_dir.mkdir(parents=True, exist_ok=True)
        for name, data in files[self.n["train"]:]:
            (self.held_dir / f"{name}.mid").write_bytes(data)
        for name, data, _ in midigen.rejection_fixtures():
            (self.held_dir / f"{name}.mid").write_bytes(data)
        yield
        trained = _train_on(files[: self.n["train"]])
        yield
        self.model_path = self.work_dir / "pairs.dfm"
        model.save_model_file(trained, self.model_path)
        yield

    def job(self) -> Generator[None, None, JobResult]:
        trained = model.load_model_file(self.model_path)
        trained.fingerprint()
        yield
        paths = sorted(self.held_dir.glob("*.mid"))
        pieces, rejected = [], []
        for path in paths:
            try:
                pieces.append(midi.piece_from_bytes(path.read_bytes(), path.stem, GRID))
            except midi.MidiParseError:
                rejected.append(path.stem)
        rejected += [p.source_id for p in pieces if len(p.tracks) != 2]
        yield
        pair_set = harness.build_pairs(pieces, self.seed)
        report = harness.batch_score(trained, pair_set)
        t_stat = report.t_statistic()
        yield
        self.model, self.pieces, self.pair_set = trained, pieces, pair_set
        digest = {
            "fingerprint": trained.fingerprint(),
            "rejected": sorted(rejected),
            "skipped": pair_set.skipped,
            "t_statistic": t_stat,
            "flows": [s.report.total_flow for s in report.scored if s.report is not None],
        }
        return JobResult(
            digest, len(paths) + len(report.scored), report.failures, len(rejected)
        )

    def checks(self, result: JobResult, reference: dict | None) -> list[str]:
        d = result.digest
        out = []
        fixtures = midigen.rejection_fixtures()
        for name, data, expected in fixtures:
            try:
                midi.split_tracks(midi.piece_from_bytes(data, name, GRID))
                got = "no error"
            except (midi.MidiParseError, midi.IneligiblePieceError) as exc:
                got = type(exc).__name__
            if got != expected:
                out.append(f"{name}: expected {expected}, got {got}")
        if d["rejected"] != sorted(name for name, _, _ in fixtures):
            out.append(f"rejected files {d['rejected']} are not exactly the fixtures")
        probe = [p for p in self.pieces if len(p.tracks) == 2][:4]
        if not harness.positional_bias(self.model, probe).bit_exact:
            out.append("positional_bias probe is not bit-exact")
        if self.size == "full" and not d["t_statistic"] > 3.0:
            out.append(f"t statistic {d['t_statistic']:.3f} is not > 3")
        if reference is not None:
            if d["fingerprint"] != reference["fingerprint"]:
                out.append(f"fingerprint {d['fingerprint']} != reference {reference['fingerprint']}")
            out += _check_floats("t_statistic", [d["t_statistic"]], [reference["t_statistic"]])
            out += _check_floats("flows", d["flows"], reference["flows"])
        return out

    def cli_case(self) -> tuple[list[str], float]:
        piece = next(p for p in self.pieces if len(p.tracks) == 2)
        x, y = midi.split_tracks(piece)
        expected = flow.information_flow(self.model, x, y, Config().flow_params).total_flow
        return [str(self.held_dir / f"{piece.source_id}.mid"), "--model", str(self.model_path)], expected

    def train_corpus(self) -> list[events.EventSequence]:
        return _encodings(midigen.corpus(self.seed, 0, self.n["train"]))

    def model_blob(self) -> bytes:
        return self.model_path.read_bytes()

    def pool_case(self):
        return self.model, self.pair_set


class SelfBiasPredictive(Workload):
    name = "selfbias_predictive"
    sizes = {
        "full": {"train": 100, "primes": 8, "steps": 150},
        "small": {"train": 8, "primes": 2, "steps": 20},
    }
    params = flow.FlowParams(burn_in=8, mode="predictive")

    def setup(self) -> Generator[None, None, None]:
        # The midi_pairs training corpus of the same seed, split in halves,
        # and primes from the first pieces held out from it.
        train, n_primes = self.n["train"], self.n["primes"]
        files = midigen.corpus(self.seed, 0, train + n_primes)
        half = train // 2
        yield
        first = _train_on(files[:half])
        yield
        self.models = (first, _train_on(files[half:train]))
        yield
        self.model_paths = (self.work_dir / "a.dfm", self.work_dir / "b.dfm")
        for m, path in zip(self.models, self.model_paths):
            model.save_model_file(m, path)
        self.prime_files = files[train:]
        self.primes = [
            events.encode([midi.piece_from_bytes(data, name, GRID).tracks[0][:PRIME_NOTES]], GRID)
            for name, data in self.prime_files
        ]
        yield

    def job(self) -> Generator[None, None, JobResult]:
        # Two primes per call keeps each timed stage short; the matrix is
        # the mean over calls, all of which score the same number of primes.
        a, b = self.models
        reports = []
        for i in range(0, len(self.primes), PRIMES_PER_CALL):
            reports.append(
                harness.self_enhancement(
                    a, b, self.primes[i : i + PRIMES_PER_CALL], self.n["steps"], self.params,
                    seed=self.seed * 1000 + i,
                )
            )
            yield
        matrix = {
            scorer: {gen: float(np.mean([r.matrix[scorer][gen] for r in reports])) for gen in row}
            for scorer, row in reports[0].matrix.items()
        }
        skipped = sum(r.skipped for r in reports)
        digest = {
            "fingerprints": [m.fingerprint() for m in self.models],
            "matrix": matrix,
            "skipped": skipped,
        }
        return JobResult(digest, len(self.primes), skipped)

    def _probe(self) -> model.GenerationResult:
        return model.generate(self.models[0], self.primes[0], self.n["steps"], self.seed)

    def checks(self, result: JobResult, reference: dict | None) -> list[str]:
        d = result.digest
        out = []
        cells = [v for row in d["matrix"].values() for v in row.values()]
        if not all(math.isfinite(v) for v in cells):
            out.append(f"self-bias matrix has non-finite cells: {d['matrix']}")
        first, second = self._probe(), self._probe()
        if first != second:
            out.append("generate is not deterministic for a fixed seed")
        try:
            events.validate_sequence(first.sequence)
        except events.SequenceStructureError as exc:
            out.append(f"generated sequence is invalid: {exc}")
        if len(first.sampled_notes) != self.n["steps"]:
            out.append(f"generated {len(first.sampled_notes)} notes, asked for {self.n['steps']}")
        if reference is not None:
            if d["fingerprints"] != reference["fingerprints"]:
                out.append(f"fingerprints {d['fingerprints']} != reference {reference['fingerprints']}")
            for scorer, row in reference["matrix"].items():
                for gen, want in row.items():
                    out += _check_floats(f"matrix[{scorer}][{gen}]", [d["matrix"][scorer][gen]], [want])
            if _notes_digest(first.sampled_notes) != reference["generated_notes"]:
                out.append("generated notes differ from the reference")
        return out

    def observed(self, result: JobResult) -> dict:
        return dict(result.digest, generated_notes=_notes_digest(self._probe().sampled_notes))

    def cli_case(self) -> tuple[list[str], float]:
        name, data = self.prime_files[0]
        path = self.work_dir / f"{name}.mid"
        path.write_bytes(data)
        x, y = midi.split_tracks(midi.piece_from_bytes(data, name, GRID))
        expected = flow.information_flow(self.models[0], x, y, Config().flow_params).total_flow
        return [str(path), "--model", str(self.model_paths[0])], expected

    def train_corpus(self) -> list[events.EventSequence]:
        return _encodings(midigen.corpus(self.seed, 0, self.n["train"] // 2))

    def model_blob(self) -> bytes:
        return self.model_paths[0].read_bytes()


WORKLOADS = {w.name: w for w in (OracleCopy, MidiPairs, SelfBiasPredictive)}
