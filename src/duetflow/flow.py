"""Conditional-entropy scoring and two-voice information flow.

The flow of a piece with voices X and Y is, per field,

    flow = H(X | past X) + H(Y | past Y) - H(XY | past XY)

with every term a conditional-entropy mean produced by the same model
under the same parameters, and XY the merged encoding of both voices.
A well-trained model gives flow near zero for unrelated voices and
positive flow when one voice is predictable from the other's past.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .events import (
    EventSequence,
    FIELD_NAMES,
    N_FIELDS,
    TYPE_NOTE,
    sequences_from_notes,
    validate_sequence,
)
from .midi import QuantNote
from .model import ContextModel, score_sequence

LN2 = math.log(2.0)

XY_NORM_PER_PAIR = "per_pair"
XY_NORM_PER_EVENT = "per_event"


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
        if self.mode not in ("nll", "predictive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.xy_norm not in (XY_NORM_PER_PAIR, XY_NORM_PER_EVENT):
            raise ValueError(f"unknown xy_norm {self.xy_norm!r}")


@dataclass(frozen=True)
class EntropyTrace:
    """Per-scored-event, per-field conditional entropies in nats."""

    values: np.ndarray  # shape (scored_steps, 6)
    mode: str
    context_len: int
    burn_in: int

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def field_means(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.values.mean(axis=0))

    @property
    def mean_total(self) -> float:
        """Mean per-event entropy summed across the six fields."""
        return float(self.values.sum(axis=1).mean())


def conditional_entropy(
    model: ContextModel,
    seq: EventSequence,
    context_len: int = 64,
    burn_in: int = 16,
    mode: str = "nll",
    *,
    label: str = "sequence",
) -> EntropyTrace:
    """Score the note events of a valid sequence.

    The first burn_in notes and all structural events are excluded from
    the trace, but every event still extends the model's context window.
    """
    if burn_in < 1:
        raise ValueError("burn_in must be >= 1")
    validate_sequence(seq)
    note_indices = np.flatnonzero(seq.events[:, 0] == TYPE_NOTE)
    if len(note_indices) <= burn_in:
        raise TooShortError(label, len(note_indices), burn_in)
    scores = score_sequence(model, seq.events, context_len, mode)
    keep = note_indices[burn_in:]
    return EntropyTrace(scores[keep], mode, context_len, burn_in)


@dataclass(frozen=True)
class FlowReport:
    """Per-field conditional entropies and their flow combination.

    The two solo voices are stored in a canonical order determined by
    their note content, never by argument order, so swapping the inputs
    reproduces the report bit for bit. h_merged already carries the
    normalization named in xy_norm: per_pair scales the merged per-event
    mean by the voice count so independent voices cancel to zero flow.
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
    units: str = "nats"
    config: dict = field(default_factory=dict, compare=False)

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
            "config": self.config,
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


def information_flow(
    model: ContextModel,
    x: Sequence[QuantNote],
    y: Sequence[QuantNote],
    params: FlowParams = FlowParams(),
    *,
    piece_id: str = "",
    config: dict | None = None,
) -> FlowReport:
    """Flow between two voices under one model. Symmetric in x and y."""
    first, second = sorted((tuple(x), tuple(y)))
    seq_x, seq_y, seq_xy = sequences_from_notes(
        first, second, model.grid, split_shared_programs=params.split_shared_programs
    )
    traces = {}
    for label, seq in (("X", seq_x), ("Y", seq_y), ("XY", seq_xy)):
        traces[label] = conditional_entropy(
            model,
            seq,
            context_len=params.context_len,
            burn_in=params.burn_in,
            mode=params.mode,
            label=label,
        )
    merged_means = traces["XY"].field_means
    if params.xy_norm == XY_NORM_PER_PAIR:
        merged_means = tuple(2.0 * v for v in merged_means)
    return FlowReport(
        piece_id=piece_id,
        model_id=model.fingerprint(),
        mode=params.mode,
        context_len=params.context_len,
        burn_in=params.burn_in,
        xy_norm=params.xy_norm,
        h_first=traces["X"].field_means,
        h_second=traces["Y"].field_means,
        h_merged=merged_means,
        config=dict(config) if config else {},
    )
