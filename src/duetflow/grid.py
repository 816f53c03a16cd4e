"""Shared quantization grid parameters and integer rounding helpers."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Time grid bounds shared by quantization, encoding and models.

    resolution: positions per beat.
    max_beat: beats with index >= max_beat fall off the grid.
    max_duration: longest representable note duration, in positions.
    """

    resolution: int = 12
    max_beat: int = 1024
    max_duration: int = 96

    def __post_init__(self) -> None:
        if self.resolution < 1 or self.max_beat < 1 or self.max_duration < 1:
            raise ValueError(f"grid bounds must be positive: {self}")

    @property
    def steps(self) -> int:
        return self.resolution * self.max_beat


def round_half_away(numerator, denominator: int):
    """Integer division rounded half away from zero for non-negative inputs.

    Exact in integer arithmetic, so every platform agrees bit for bit. The
    numerator may be an integer array, element by element; the caller keeps
    2 * numerator + denominator inside its dtype.
    """
    if np.any(numerator < 0) or denominator <= 0:
        raise ValueError("round_half_away expects numerator >= 0 and denominator > 0")
    return (2 * numerator + denominator) // (2 * denominator)
