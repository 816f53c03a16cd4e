"""Spans and counters around calls into duetflow, installed from outside.

``Tracer.install`` rebinds public names at the places they are called from
(``duetflow.flow.score_sequence``, ``ContextModel.predict_next``, ...) with
wrappers that record a span per call: name, start, end, parent span and the
unit of work (a setup or a timed job) it belongs to. Counts are recorded at
the same boundaries. ``uninstall`` restores every original binding. Nothing
in the package source changes, and spans stay in memory until the run ends.
"""
from __future__ import annotations

import gc
import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

Counts = Callable[[Any, tuple, dict], dict]


def _piece_counts(piece, args, kwargs) -> dict:
    return {
        "files": 1,
        "notes": sum(len(t) for t in piece.tracks),
        "dropped_notes": piece.dropped_notes,
        "unclosed_notes": piece.unclosed_notes,
    }


def _seq_events(seq, args, kwargs) -> dict:
    return {"events": len(seq)}


def _arg_events(result, args, kwargs) -> dict:
    return {"events": len(args[0])}


def _score_events(result, args, kwargs) -> dict:
    return {"events": len(args[1])}


def _train_events(model, args, kwargs) -> dict:
    return {"events": model.trained_events}


def _out_bytes(blob, args, kwargs) -> dict:
    return {"bytes": len(blob)}


def _in_bytes(model, args, kwargs) -> dict:
    return {"bytes": len(args[0])}


def _generated_steps(result, args, kwargs) -> dict:
    return {"steps": len(result.sampled_notes)}


def _batch_counts(report, args, kwargs) -> dict:
    return {"pairs": len(report.scored), "pairs_ok": len(report.scored) - report.failures}


def _score_name(args, kwargs) -> str:
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "nll")
    return f"model.score_{mode}"


# (module, attribute or "Class.method", span name, counts at the boundary)
BOUNDARIES: tuple[tuple[str, str, str | Callable, Counts | None], ...] = (
    ("duetflow.midi", "piece_from_bytes", "midi.parse", _piece_counts),
    ("duetflow.events", "encode", "events.encode", _seq_events),
    ("duetflow.harness", "encode", "events.encode", _seq_events),
    ("duetflow.model", "encode", "events.encode", _seq_events),
    ("duetflow.events", "seq_to_text", "events.to_text", _arg_events),
    ("duetflow.events", "seq_from_text", "events.from_text", _seq_events),
    ("duetflow.flow", "validate_sequence", "events.validate", _arg_events),
    ("duetflow.model", "train", "model.train", _train_events),
    ("duetflow.model", "save_model", "model.save", _out_bytes),
    ("duetflow.model", "load_model", "model.load", _in_bytes),
    ("duetflow.model", "ContextModel.fingerprint", "model.fingerprint", None),
    ("duetflow.model", "ContextModel.predict_next", "model.predict_next", None),
    ("duetflow.flow", "score_sequence", _score_name, _score_events),
    ("duetflow.harness", "generate", "model.generate", _generated_steps),
    ("duetflow.model", "generate", "model.generate", _generated_steps),
    ("duetflow.flow", "information_flow", "flow.information_flow", None),
    ("duetflow.harness", "information_flow", "flow.information_flow", None),
    ("duetflow.harness", "training_encodings", "harness.training_encodings", None),
    ("duetflow.harness", "build_pairs", "harness.build_pairs", None),
    ("duetflow.harness", "batch_score", "harness.batch_score", _batch_counts),
    ("duetflow.harness", "self_enhancement", "harness.self_enhancement", None),
    ("duetflow.oracle", "sample_paths", "oracle.sample_paths", None),
    ("duetflow.oracle", "embed_pieces", "oracle.embed_pieces", None),
    ("duetflow.oracle", "exact_flow", "oracle.exact_flow", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    unit: str  # "setup-<i>" or "job-<i>"
    counts: dict = field(default_factory=dict)
    error: str | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unit = "none"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self.gc_events: list[tuple[str, float, float]] = []  # (unit, start, end)

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.unit))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, counts: dict | None = None, error: str | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if counts:
            span.counts = counts
        span.error = error
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, fn: Callable, name: str | Callable, counts: Counts | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(span, None, type(exc).__name__)
                raise
            tracer.end(span, counts(result, args, kwargs) if counts else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_events.append((self.unit, self._gc_start, time.perf_counter()))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, counts in BOUNDARIES:
            owner: object = importlib.import_module(module_name)
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counts))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Calls are synchronous, so children never overlap and the covered
        time is the sum of their durations.
        """
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def to_records(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "unit": s.unit,
                "counts": s.counts,
                "error": s.error,
            }
            for s in self.spans
        ]


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class LayerStats:
    """Per-layer figures from one traced run.

    Busy and self times, call counts and boundary counts are per unit of
    work: the median over the timed jobs when the name occurs in a timed job,
    otherwise the median over the traced setups (training happens in setup
    on two of the workloads). Rates divide all work by all busy time.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.own = tracer.self_times()
        self.jobs = sorted({s.unit for s in tracer.spans if s.unit.startswith("job-")})
        self.setups = sorted({s.unit for s in tracer.spans if s.unit.startswith("setup-")})

    def _units(self, name: str) -> list[str]:
        if any(s.name == name and s.unit.startswith("job-") for s in self.tracer.spans):
            return self.jobs
        return self.setups

    def _per_unit(self, name: str, value: Callable[[int, Span], float]) -> float:
        units = self._units(name)
        totals = {u: 0.0 for u in units}
        for i, s in enumerate(self.tracer.spans):
            if s.name == name and s.unit in totals:
                totals[s.unit] += value(i, s)
        return _median(list(totals.values())) if any(totals.values()) else 0.0

    def busy(self, name: str) -> float:
        return self._per_unit(name, lambda i, s: s.end - s.start)

    def self_time(self, name: str) -> float:
        return self._per_unit(name, lambda i, s: self.own[i])

    def calls(self, name: str) -> float:
        return self._per_unit(name, lambda i, s: 1.0)

    def count(self, name: str, key: str) -> float:
        return self._per_unit(name, lambda i, s: float(s.counts.get(key, 0)))

    def rate(self, name: str, key: str, where: Callable[[Span], bool] = lambda s: True) -> float:
        work = busy = 0.0
        for s in self.tracer.spans:
            if s.name == name and s.error is None and where(s):
                work += s.counts.get(key, 0)
                busy += s.end - s.start
        return work / busy if busy > 0 else 0.0

    def durations_ms(self, name: str) -> list[float]:
        units = set(self._units(name))
        return [
            1000.0 * (s.end - s.start)
            for s in self.tracer.spans
            if s.name == name and s.unit in units
        ]

    def p50_ms(self, name: str) -> float:
        return _median(self.durations_ms(name))

    def p99_ms(self, name: str) -> float:
        return _percentile(self.durations_ms(name), 0.99)

    def gc(self) -> tuple[float, float]:
        """Median GC seconds and collections per timed job."""
        seconds = {u: 0.0 for u in self.jobs}
        collections = {u: 0.0 for u in self.jobs}
        for unit, start, end in self.tracer.gc_events:
            if unit in seconds:
                seconds[unit] += end - start
                collections[unit] += 1
        return _median(list(seconds.values())), _median(list(collections.values()))

    def uncovered(self) -> dict[str, tuple[float, float]]:
        """Per timed job: its span, and the part of it outside every layer span.

        The second is the self time of the job's root span: the job's own
        code and whatever it calls that no wrapper covers. The self times of
        the layer spans add up to the job span minus this part.
        """
        out = {}
        for i, s in enumerate(self.tracer.spans):
            if s.parent < 0 and s.unit in self.jobs:
                out[s.unit] = (s.end - s.start, self.own[i])
        return out
