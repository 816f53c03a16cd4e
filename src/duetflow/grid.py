"""The quantization grid, its one cached ``layout``, and integer rounding.

``layout`` is where a grid's values sit, worked out once per grid and read
by the event layer and the model alike.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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


class Layout(NamedTuple):
    """Where a grid's values sit; every array is read-only."""

    sizes: np.ndarray  # int64, the vocabulary size of each of the six fields
    # int64, the mixed-radix weight of each field: an event's key is its
    # row times these, a note's its five fields times the last five.
    weights: np.ndarray
    starts: np.ndarray  # int64, the first column of each field in a row of whole distributions
    width: int  # the columns of such a row
    spans: tuple[tuple[int, int], ...]  # (start, stop) of fields 1..5 in a sampling row
    lasts: np.ndarray  # int64, the last column of fields 1..5 in a sampling row
    shift: int  # bits that hold any count key (value * 8 + field)
    # int32, the column of each key below 2**shift in a row of whole
    # distributions; a key outside the vocabulary gets 2**31 - 1, past
    # the end of any row.
    columns: np.ndarray


@lru_cache(maxsize=64)
def layout(grid: GridSpec) -> Layout:
    """The layout of a grid, built once and shared by every caller.

    Each field is a digit below its size, so comparing keys compares rows
    field by field. The grid bound keeps every event key below 5 * 2**58.
    """
    vocab = vocab_sizes(grid)
    sizes = np.array(vocab, dtype=np.int64)
    weights = np.cumprod(sizes[::-1])[::-1] // sizes
    starts = np.cumsum(sizes) - sizes
    lasts = np.cumsum(sizes[1:]) - 1
    firsts = (starts[1:] - vocab[0]).tolist()
    spans = tuple((lo, lo + n) for lo, n in zip(firsts, vocab[1:]))
    shift = (8 * max(vocab) - 1).bit_length()
    keys = np.arange(1 << shift)
    limits = np.array([*vocab, 0, 0])  # fields 6 and 7 hold no value
    at = np.append(starts, [0, 0])[keys & 7] + (keys >> 3)
    columns = np.where((keys >> 3) < limits[keys & 7], at, 2**31 - 1).astype(np.int32)
    for a in (sizes, weights, starts, lasts, columns):
        a.flags.writeable = False
    return Layout(sizes, weights, starts, int(sizes.sum()), spans, lasts, shift, columns)


def round_half_away(numerator, denominator: int):
    """Integer division rounded half away from zero for non-negative inputs.

    Exact in integer arithmetic, so every platform agrees bit for bit. The
    numerator may be an int64 array, element by element, as long as the
    caller keeps 2 * numerator + denominator below 2**63.
    """
    if np.any(numerator < 0) or denominator <= 0:
        raise ValueError("round_half_away expects numerator >= 0 and denominator > 0")
    return (2 * numerator + denominator) // (2 * denominator)
