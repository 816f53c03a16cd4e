"""Conditional-entropy scoring and two-voice information flow.

The flow of a piece with voices X and Y is, per field,

    flow = H(X | past X) + H(Y | past Y) - H(XY | past XY)

with every term a conditional-entropy mean produced by the same model
under the same parameters, and XY the merged encoding of both voices.
Independent voices with equal note counts score near zero (with unequal
counts, per_pair normalization leaves a remainder; see FlowReport), a
voice pair assembled from two unrelated pieces typically scores at or
below zero, and flow is positive when one voice is predictable from the
other's past.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .events import (
    EventSequence,
    FIELD_NAMES,
    N_FIELDS,
    TYPE_NOTE,
    _voice_order,
    encode_views,
    raise_first,
    validate_sequence,
)
from .midi import as_track
from .model import MODES, ContextModel, score_sequence, score_sequences

LN2 = math.log(2.0)

XY_NORM_PER_PAIR = "per_pair"
XY_NORM_PER_EVENT = "per_event"
# The legal values of FlowParams.xy_norm; model.MODES are those of .mode.
XY_NORMS = (XY_NORM_PER_PAIR, XY_NORM_PER_EVENT)


class TooShortError(ValueError):
    """Sequence has too few note events to score. Names the offender."""

    def __init__(self, which: str, note_count: int, burn_in: int) -> None:
        super().__init__(
            f"{which}: {note_count} note events, need more than burn_in={burn_in}"
        )
        self.which = which


@dataclass(frozen=True, slots=True)
class FlowParams:
    context_len: int = 64
    burn_in: int = 16
    mode: str = "nll"
    xy_norm: str = XY_NORM_PER_PAIR
    split_shared_programs: bool = False

    def __post_init__(self) -> None:
        if self.burn_in < 1:
            raise ValueError("burn_in must be >= 1")
        if self.context_len < 0:
            raise ValueError("context_len must be >= 0")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.xy_norm not in XY_NORMS:
            raise ValueError(f"unknown xy_norm {self.xy_norm!r}")


def _scored_rows(seq: EventSequence, burn_in: int, label: str) -> np.ndarray:
    """The rows of a valid sequence that are scored: its notes after burn_in.

    The sequence is not validated here; callers check the ones they did
    not build with encode.
    """
    note_indices = np.flatnonzero(seq.events[:, 0] == TYPE_NOTE)
    if len(note_indices) <= burn_in:
        raise TooShortError(label, len(note_indices), burn_in)
    return note_indices[burn_in:]


def conditional_entropy(
    model: ContextModel,
    seq: EventSequence,
    context_len: int = 64,
    burn_in: int = 16,
    mode: str = "nll",
    *,
    label: str = "sequence",
) -> np.ndarray:
    """Per-field conditional entropies in nats of the scored note events of
    a valid sequence, shape (scored notes, 6).

    The first burn_in notes and all structural events are not scored, but
    every event still extends the model's context window. A sequence on a
    grid other than the model's raises ValueError.
    """
    if burn_in < 1:
        raise ValueError("burn_in must be >= 1")
    if seq.grid != model.grid:
        raise ValueError(f"{label} grid {seq.grid} does not match the model's {model.grid}")
    validate_sequence(seq)
    keep = _scored_rows(seq, burn_in, label)
    scores = score_sequence(model, seq.events, context_len, mode)
    return scores[keep]


@dataclass(frozen=True)
class FlowReport:
    """Per-field conditional entropies and their flow combination.

    The two solo voices are stored in a canonical order determined by
    their note content, never by argument order, so swapping the inputs
    reproduces the report bit for bit. h_merged already carries the
    normalization named in xy_norm: per_pair scales the merged per-event
    mean by the voice count, 2. For independent voices with sums S_x and
    S_y over n_x and n_y scored notes, S_xy = S_x + S_y over n_xy, so the
    flow is (1/n_x - 2/n_xy) S_x + (1/n_y - 2/n_xy) S_y: zero when
    n_x = n_y = n_xy / 2, not in general.
    """

    piece_id: str
    model_id: str
    mode: str
    context_len: int
    burn_in: int
    xy_norm: str
    h_first: tuple[float, ...]
    h_second: tuple[float, ...]
    h_merged: tuple[float, ...]
    units: ClassVar[str] = "nats"

    @property
    def field_flows(self) -> tuple[float, ...]:
        return tuple(
            self.h_first[f] + self.h_second[f] - self.h_merged[f]
            for f in range(N_FIELDS)
        )

    @property
    def total_flow(self) -> float:
        return sum(self.field_flows)

    @property
    def total_flow_bits(self) -> float:
        return self.total_flow / LN2

    def to_dict(self) -> dict:
        return {
            "piece_id": self.piece_id,
            "model_id": self.model_id,
            "mode": self.mode,
            "context_len": self.context_len,
            "burn_in": self.burn_in,
            "xy_norm": self.xy_norm,
            "units": self.units,
            "fields": {
                name: {
                    "h_x": self.h_first[f],
                    "h_y": self.h_second[f],
                    "h_xy": self.h_merged[f],
                    "flow": self.field_flows[f],
                }
                for f, name in enumerate(FIELD_NAMES)
            },
            "total_flow": self.total_flow,
            "total_flow_bits": self.total_flow_bits,
        }

    def to_text(self) -> str:
        lines = [
            f"piece: {self.piece_id}",
            f"model: {self.model_id}",
            f"mode: {self.mode}",
            f"context_len: {self.context_len}",
            f"burn_in: {self.burn_in}",
            f"xy_norm: {self.xy_norm}",
            f"units: {self.units}",
        ]
        for f, name in enumerate(FIELD_NAMES):
            lines.append(
                f"field {name}: h_x={self.h_first[f]:.6f} "
                f"h_y={self.h_second[f]:.6f} h_xy={self.h_merged[f]:.6f} "
                f"flow={self.field_flows[f]:.6f}"
            )
        lines.append(f"total_flow: {self.total_flow:.6f}")
        lines.append(f"total_flow_bits: {self.total_flow_bits:.6f}")
        return "\n".join(lines) + "\n"


_VIEWS = ("X", "Y", "XY")
# Events scored per score_sequences call: a batch holds the sequences and
# scores of this many events at a time, however many pieces it has.
_BATCH_EVENTS = 1 << 13


def information_flows(
    model: ContextModel,
    pieces: Sequence[tuple],
    params: FlowParams = FlowParams(),
    *,
    piece_ids: Sequence[str] | None = None,
) -> list[FlowReport | ValueError]:
    """information_flow of every (x, y) piece, encoded and scored in batches.

    Each batch, pieces of about _BATCH_EVENTS events in all, is encoded by
    one encode_views, with the voices in _voice_order so that the report is
    symmetric in x and y, and scored by one score_sequences. A piece that
    cannot be scored gets the ValueError information_flow would raise for
    it (a TooShortError names the view) in place of its report; the other
    pieces are unaffected.
    """
    ids = [""] * len(pieces) if piece_ids is None else list(piece_ids)
    if len(ids) != len(pieces):
        raise ValueError(f"{len(pieces)} pieces but {len(ids)} piece ids")
    results: list[FlowReport | ValueError | None] = [None] * len(pieces)
    batch: list[tuple[int, tuple]] = []  # each piece and its ordered voices
    held = 0

    def score_pending() -> None:
        pending: list[tuple[int, list[np.ndarray]]] = []
        streams: list[np.ndarray] = []
        split = params.split_shared_programs
        encoded = encode_views([d for _, d in batch], model.grid, split_shared_programs=split)
        for (i, _), views in zip(batch, encoded):
            try:
                if isinstance(views, ValueError):
                    raise views
                keeps = [_scored_rows(s, params.burn_in, v) for s, v in zip(views, _VIEWS)]
            except ValueError as exc:
                results[i] = exc
                continue
            pending.append((i, keeps))
            streams += [s.events for s in views]
        scores = iter(score_sequences(model, streams, params.context_len, params.mode))
        for i, keeps in pending:
            # zip takes a keep before a score, so each piece takes its three.
            h_x, h_y, h_xy = (
                tuple(float(v) for v in s[keep].mean(axis=0)) for keep, s in zip(keeps, scores)
            )
            if params.xy_norm == XY_NORM_PER_PAIR:
                h_xy = tuple(2.0 * v for v in h_xy)
            results[i] = FlowReport(
                piece_id=ids[i],
                model_id=model.fingerprint(),
                mode=params.mode,
                context_len=params.context_len,
                burn_in=params.burn_in,
                xy_norm=params.xy_norm,
                h_first=h_x,
                h_second=h_y,
                h_merged=h_xy,
            )
        batch.clear()

    for i, (x, y) in enumerate(pieces):
        try:
            duet = _voice_order(as_track(x), as_track(y))
        except ValueError as exc:
            results[i] = exc
            continue
        batch.append((i, duet))
        # Each note is an event of its own view and of the merged one.
        held += 2 * sum(map(len, duet))
        if held >= _BATCH_EVENTS:
            score_pending()
            held = 0
    score_pending()
    return results


def information_flow(
    model: ContextModel,
    x,
    y,
    params: FlowParams = FlowParams(),
    *,
    piece_id: str = "",
) -> FlowReport:
    """Flow between two voices under one model. Symmetric in x and y."""
    (result,) = raise_first(information_flows(model, [(x, y)], params, piece_ids=[piece_id]))
    return result
