"""Exact information flow on small order-1 joint Markov chains.

This is the ground truth the estimation pipeline is checked against.
For a joint chain over pairs (x, y) every conditional entropy, both
transfer entropies, the instantaneous coupling, and the flow value
H(X1|X0) + H(Y1|Y0) - H(X1 Y1|X0 Y0) have closed forms as sums over the
stationary distribution, so tolerances can be tight.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import GridSpec
from .midi import as_track

MAX_ALPHABET = 8
_PROB_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """The chain has no unique stationary distribution."""


def _check_alphabets(*sizes: int) -> None:
    if not all(1 <= m <= MAX_ALPHABET for m in sizes):
        raise ValueError(f"alphabet sizes must be in [1, {MAX_ALPHABET}]")


@dataclass(frozen=True)
class JointMarkovSpec:
    """P(x1, y1 | x0, y0) as an (ax, ay, ax, ay) table plus an initial law,
    both kept as read-only float64 copies of the caller's arrays."""

    transitions: np.ndarray
    initial: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.transitions, dtype=float)
        init = np.array(self.initial, dtype=float)
        if t.ndim != 4 or t.shape[0] != t.shape[2] or t.shape[1] != t.shape[3]:
            raise ValueError(f"transitions must be (ax, ay, ax, ay), got {t.shape}")
        ax, ay = t.shape[:2]
        _check_alphabets(ax, ay)
        if init.shape != (ax, ay):
            raise ValueError(f"initial must be {(ax, ay)}, got {init.shape}")
        if not (np.isfinite(t).all() and np.isfinite(init).all()):
            raise ValueError("probabilities must be finite")
        if t.min() < 0 or init.min() < 0:
            raise ValueError("negative probability")
        slice_sums = t.reshape(ax * ay, ax * ay).sum(axis=1)
        if np.abs(slice_sums - 1.0).max() > _PROB_TOL:
            raise ValueError("transition slices must each sum to 1")
        if abs(init.sum() - 1.0) > _PROB_TOL:
            raise ValueError("initial distribution must sum to 1")
        t.flags.writeable = init.flags.writeable = False
        object.__setattr__(self, "transitions", t)
        object.__setattr__(self, "initial", init)

    @property
    def ax(self) -> int:
        return self.transitions.shape[0]

    @property
    def ay(self) -> int:
        return self.transitions.shape[1]


@dataclass(frozen=True)
class ExactFlowResult:
    h_x: float
    h_y: float
    h_xy: float
    te_x_to_y: float
    te_y_to_x: float
    instantaneous: float
    info_flow: float

    def to_dict(self) -> dict:
        return {
            "h_x_given_past": self.h_x,
            "h_y_given_past": self.h_y,
            "h_xy_given_past": self.h_xy,
            "te_x_to_y": self.te_x_to_y,
            "te_y_to_x": self.te_y_to_x,
            "instantaneous": self.instantaneous,
            "info_flow": self.info_flow,
        }


def stationary(spec: JointMarkovSpec) -> np.ndarray:
    """Stationary distribution reached from the chain's initial law.

    The law is unique exactly when the states reachable from the initial
    support hold one closed communicating class: the states that every
    reachable state reaches. Any other chain is refused. On that class,
    Grassmann-Taksar-Heyman state reduction (Operations Research 33:1107,
    1985) solves pi P = pi with additions, products and quotients of
    non-negative numbers only, so the law is exact to rounding however
    slowly the chain mixes, periodic chains included. States outside the
    class, transient or unreachable, get 0.
    """
    n = spec.ax * spec.ay
    P = spec.transitions.reshape(n, n)
    reach = (P > 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = reach @ reach
    live = reach[spec.initial.reshape(n) > 0].any(axis=0)
    closed = np.flatnonzero(reach[live].all(axis=0))
    if not len(closed):
        raise ConvergenceError(
            "reachable states hold more than one closed communicating class"
        )
    # Censor the class onto its first k states, one state at a time, then
    # build the law back up from state 0, scaled to sum 1 at each step so
    # that no ratio of masses overflows.
    a = P[np.ix_(closed, closed)]
    for k in range(len(closed) - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.zeros(n)
    pi[closed[0]] = 1.0
    for k in range(1, len(closed)):
        pi[closed[k]] = pi[closed[:k]] @ a[:k, k]
        pi /= pi.sum()
    return pi.reshape(spec.ax, spec.ay)


def _cond_entropy(joint: np.ndarray, predicted_axes: tuple[int, ...]) -> float:
    """H(variables on predicted_axes | the rest) for a joint array."""
    cond = joint.sum(axis=predicted_axes, keepdims=True)
    mask = joint > 0
    ratio = joint[mask] / np.broadcast_to(cond, joint.shape)[mask]
    # 0.0 - s, not -s, so that an entropy of exactly 0 is 0.0, not -0.0.
    return 0.0 - float((joint[mask] * np.log(ratio)).sum())


def exact_flow(spec: JointMarkovSpec) -> ExactFlowResult:
    """All step-wise entropies of the chain at stationarity, in nats."""
    pi = stationary(spec)
    # joint law of (x0, y0, x1, y1)
    q = pi[:, :, None, None] * spec.transitions

    h_x = _cond_entropy(q.sum(axis=(1, 3)), (1,))
    h_y = _cond_entropy(q.sum(axis=(0, 2)), (1,))
    h_xy = _cond_entropy(q, (2, 3))
    h_x_joint = _cond_entropy(q.sum(axis=3), (2,))
    h_y_joint = _cond_entropy(q.sum(axis=2), (2,))

    te_x_to_y = h_y - h_y_joint
    te_y_to_x = h_x - h_x_joint
    instantaneous = h_x_joint + h_y_joint - h_xy
    info_flow = h_x + h_y - h_xy
    return ExactFlowResult(
        h_x, h_y, h_xy, te_x_to_y, te_y_to_x, instantaneous, info_flow
    )


# ---------------------------------------------------------------------------
# Canonical chains


def independent_spec(
    px: Sequence[Sequence[float]] | None = None,
    py: Sequence[Sequence[float]] | None = None,
) -> JointMarkovSpec:
    """Two voices that never exchange information: P = PX (x) PY."""
    px_arr = np.asarray(px if px is not None else [[0.85, 0.15], [0.25, 0.75]])
    py_arr = np.asarray(py if py is not None else [[0.7, 0.3], [0.4, 0.6]])
    ax, ay = px_arr.shape[0], py_arr.shape[0]
    trans = np.einsum("ac,bd->abcd", px_arr, py_arr)
    initial = np.full((ax, ay), 1.0 / (ax * ay))
    return JointMarkovSpec(trans, initial)


def copy_spec(m: int = 2) -> JointMarkovSpec:
    """X is an i.i.d. uniform source and Y repeats X one step later."""
    _check_alphabets(m)
    # [y1 == x0] / m
    trans = np.zeros((m,) * 4) + np.eye(m)[:, None, None, :] / m
    initial = np.full((m, m), 1.0 / (m * m))
    return JointMarkovSpec(trans, initial)


def instantaneous_spec(m: int = 2) -> JointMarkovSpec:
    """X is i.i.d. uniform and Y mirrors it in the same step.

    All dependence is instantaneous, so both transfer entropies vanish
    while the flow value stays at log m.
    """
    _check_alphabets(m)
    # [y1 == x1] / m
    trans = np.zeros((m,) * 4) + np.eye(m) / m
    return JointMarkovSpec(trans, np.eye(m) / m)


def random_spec(seed: int, ax: int | None = None, ay: int | None = None) -> JointMarkovSpec:
    """A strictly positive random chain; always irreducible and aperiodic."""
    rng = np.random.default_rng(seed)
    ax = int(ax if ax is not None else rng.integers(2, 5))
    ay = int(ay if ay is not None else rng.integers(2, 5))
    n = ax * ay
    rows = rng.gamma(1.0, 1.0, size=(n, n)) + 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    initial = rng.gamma(1.0, 1.0, size=n) + 1e-3
    initial /= initial.sum()
    return JointMarkovSpec(rows.reshape(ax, ay, ax, ay), initial.reshape(ax, ay))


# ---------------------------------------------------------------------------
# Sampling and the bridge into the event pipeline


def sample_paths(
    spec: JointMarkovSpec, length: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly sample (x_t, y_t) paths of the given length.

    Draw 0 picks the first state from the initial law; step t then moves
    from state s to the first state whose cumulative transition
    probability from s exceeds draw t.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    n = spec.ax * spec.ay
    cum_trans = np.cumsum(spec.transitions.reshape(n, n), axis=1).tolist()
    draws = np.random.default_rng(seed).random(length).tolist()
    state = bisect_right(np.cumsum(spec.initial.reshape(n)).tolist(), draws[0])
    states = [state]
    for u in draws[1:]:
        state = bisect_right(cum_trans[state], u)
        states.append(state)
    path = np.array(states, dtype=np.int64)
    return path // spec.ay, path % spec.ay


X_PITCH_BASE = 36
Y_PITCH_BASE = 72


def embed_tracks(
    xs: np.ndarray, ys: np.ndarray, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """One symbol per grid step, in the pitch field, all else constant.

    Step t of a path is the note (t // resolution, t % resolution,
    base + symbol, 1, 0) of its track. The two voices get disjoint pitch
    ranges, from X_PITCH_BASE and Y_PITCH_BASE, so the merged encoding
    keeps them apart and interleaves them deterministically; without that,
    the per-field factorized model would be measuring a blurred signal.
    """
    if len(xs) != len(ys):
        raise ValueError("paths must have equal length")
    if len(xs) > grid.steps:
        raise ValueError(f"path of {len(xs)} steps does not fit {grid.steps} slots")
    hi_x = int(xs.max()) if len(xs) else 0
    hi_y = int(ys.max()) if len(ys) else 0
    if X_PITCH_BASE + hi_x >= Y_PITCH_BASE or Y_PITCH_BASE + hi_y >= 128:
        raise ValueError("pitch ranges overlap or leave the MIDI range")
    steps = np.arange(len(xs))
    beat, position = divmod(steps, grid.resolution)
    ones = np.ones_like(steps)

    def track(path: np.ndarray, base: int) -> np.ndarray:
        return as_track(np.column_stack([beat, position, base + path, ones, 0 * ones]))

    return track(xs, X_PITCH_BASE), track(ys, Y_PITCH_BASE)


def embed_pieces(
    xs: np.ndarray,
    ys: np.ndarray,
    piece_len: int,
    grid: GridSpec,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Chop paths into consecutive fixed-length pieces (tail discarded).

    Training needs repeated contexts; a single long piece never repeats a
    (beat, position) pair, so a corpus of aligned pieces is the shape the
    count model can actually learn from.
    """
    if piece_len < 1:
        raise ValueError("piece_len must be >= 1")
    pieces = []
    for start in range(0, len(xs) - piece_len + 1, piece_len):
        stop = start + piece_len
        pieces.append(embed_tracks(xs[start:stop], ys[start:stop], grid))
    return pieces


# ---------------------------------------------------------------------------
# Text form: alphabet sizes, the flattened transition rows, the initial law


def spec_to_text(spec: JointMarkovSpec) -> str:
    n = spec.ax * spec.ay
    lines = [f"{spec.ax} {spec.ay}"]
    flat = spec.transitions.reshape(n, n)
    for row in flat:
        lines.append(" ".join(repr(float(v)) for v in row))
    lines.append(" ".join(repr(float(v)) for v in spec.initial.reshape(n)))
    return "\n".join(lines) + "\n"


def spec_from_text(text: str) -> JointMarkovSpec:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append(line.split())
    if not rows:
        raise ValueError("empty spec file")
    if len(rows[0]) != 2:
        raise ValueError("first line must be the two alphabet sizes")
    ax, ay = int(rows[0][0]), int(rows[0][1])
    _check_alphabets(ax, ay)
    n = ax * ay
    if len(rows) != 1 + n + 1:
        raise ValueError(f"expected {n} transition rows plus an initial row")
    values = [[float(v) for v in row] for row in rows[1:]]
    if any(len(row) != n for row in values):
        raise ValueError(f"each probability row must have {n} entries")
    trans = np.array(values[:n]).reshape(ax, ay, ax, ay)
    initial = np.array(values[n]).reshape(ax, ay)
    return JointMarkovSpec(trans, initial)
