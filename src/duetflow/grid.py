"""Shared quantization grid parameters and integer rounding helpers."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Most values a grid's six vocabularies may hold in all: the width of one
# row of whole distributions. The default grid needs 1,394.
MAX_VALUES = 1 << 16


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Time grid bounds shared by quantization, encoding and models.

    resolution: positions per beat.
    max_beat: beats with index >= max_beat fall off the grid.
    max_duration: longest representable note duration, in positions.

    A grid whose vocab_sizes add up to more than MAX_VALUES, that is
    262 + max_beat + resolution + max_duration > 2**16, is refused. At the
    bound the five note spans multiply to below 2**58, so a packed note
    key fits int64.
    """

    resolution: int = 12
    max_beat: int = 1024
    max_duration: int = 96

    def __post_init__(self) -> None:
        if self.resolution < 1 or self.max_beat < 1 or self.max_duration < 1:
            raise ValueError(f"grid bounds must be positive: {self}")
        values = sum(vocab_sizes(self))
        if values > MAX_VALUES:
            raise ValueError(
                f"grid {self} has {values} values per distribution, more than {MAX_VALUES}"
            )

    @property
    def steps(self) -> int:
        return self.resolution * self.max_beat


def vocab_sizes(grid: GridSpec) -> tuple[int, ...]:
    """Per-field vocabulary sizes for models over this grid.

    Duration needs max_duration + 1 slots: notes use 1..max_duration and
    structural events carry 0.
    """
    return (5, grid.max_beat, grid.resolution, 128, grid.max_duration + 1, 128)


def round_half_away(numerator, denominator: int):
    """Integer division rounded half away from zero for non-negative inputs.

    Exact in integer arithmetic, so every platform agrees bit for bit. The
    numerator may be an int64 array, element by element, as long as the
    caller keeps 2 * numerator + denominator below 2**63.
    """
    if np.any(numerator < 0) or denominator <= 0:
        raise ValueError("round_half_away expects numerator >= 0 and denominator > 0")
    return (2 * numerator + denominator) // (2 * denominator)
