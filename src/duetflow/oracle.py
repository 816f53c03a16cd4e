"""Exact information flow on small order-1 joint Markov chains.

This is the ground truth the estimation pipeline is checked against.
For a joint chain over pairs (x, y) every conditional entropy, both
transfer entropies, the instantaneous coupling, and the flow value
H(X1|X0) + H(Y1|Y0) - H(X1 Y1|X0 Y0) have closed forms as sums over the
stationary distribution, so tolerances can be tight.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse.csgraph import connected_components

from .grid import GridSpec
from .midi import QuantNote

MAX_ALPHABET = 8
_PROB_TOL = 1e-12
_SAMPLE_CHUNK = 4096  # draws per pass of sample_paths


class ConvergenceError(RuntimeError):
    """The chain has no unique stationary distribution to converge to."""


@dataclass(frozen=True)
class JointMarkovSpec:
    """P(x1, y1 | x0, y0) as an (ax, ay, ax, ay) table plus an initial law."""

    transitions: np.ndarray
    initial: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.transitions, dtype=float)
        init = np.asarray(self.initial, dtype=float)
        if t.ndim != 4 or t.shape[0] != t.shape[2] or t.shape[1] != t.shape[3]:
            raise ValueError(f"transitions must be (ax, ay, ax, ay), got {t.shape}")
        ax, ay = t.shape[:2]
        if not (1 <= ax <= MAX_ALPHABET and 1 <= ay <= MAX_ALPHABET):
            raise ValueError(f"alphabet sizes must be in [1, {MAX_ALPHABET}]")
        if init.shape != (ax, ay):
            raise ValueError(f"initial must be {(ax, ay)}, got {init.shape}")
        if t.min() < 0 or init.min() < 0:
            raise ValueError("negative probability")
        slice_sums = t.reshape(ax * ay, ax * ay).sum(axis=1)
        if np.abs(slice_sums - 1.0).max() > _PROB_TOL:
            raise ValueError("transition slices must each sum to 1")
        if abs(init.sum() - 1.0) > _PROB_TOL:
            raise ValueError("initial distribution must sum to 1")
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

    Power iteration to an L1 residual below 1e-12, at most 1e6 sweeps.
    The states reachable from the initial support must form one strongly
    connected class, otherwise the fixed point is not unique and the
    chain is rejected.
    """
    n = spec.ax * spec.ay
    P = spec.transitions.reshape(n, n)
    v = spec.initial.reshape(n).copy()

    reachable = _reachable(P, v > 0)
    sub = P[np.ix_(reachable, reachable)]
    n_comp, _ = connected_components(sub > 0, directed=True, connection="strong")
    if n_comp != 1:
        raise ConvergenceError(
            "reachable states do not form a single communicating class"
        )

    prev_prev = None
    for _ in range(10**6):
        nxt = v @ P
        if np.abs(nxt - v).sum() < 1e-12:
            return nxt.reshape(spec.ax, spec.ay)
        # A period-2 chain alternates exactly; bail out instead of sweeping
        # the full iteration budget.
        if prev_prev is not None and np.abs(nxt - prev_prev).max() < 1e-15:
            break
        prev_prev = v
        v = nxt
    raise ConvergenceError("power iteration did not converge (periodic chain?)")


def _reachable(P: np.ndarray, start: np.ndarray) -> np.ndarray:
    mask = start.copy()
    while True:
        grown = mask | ((P[mask] > 0).any(axis=0))
        if (grown == mask).all():
            return np.flatnonzero(mask)
        mask = grown


def _cond_entropy(joint: np.ndarray, predicted_axes: tuple[int, ...]) -> float:
    """H(variables on predicted_axes | the rest) for a joint array."""
    cond = joint.sum(axis=predicted_axes, keepdims=True)
    mask = joint > 0
    ratio = joint[mask] / np.broadcast_to(cond, joint.shape)[mask]
    return float(-(joint[mask] * np.log(ratio)).sum())


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
    trans = np.zeros((m, m, m, m))
    for x0 in range(m):
        for y0 in range(m):
            for x1 in range(m):
                trans[x0, y0, x1, x0] = 1.0 / m
    initial = np.full((m, m), 1.0 / (m * m))
    return JointMarkovSpec(trans, initial)


def instantaneous_spec(m: int = 2) -> JointMarkovSpec:
    """X is i.i.d. uniform and Y mirrors it in the same step.

    All dependence is instantaneous, so both transfer entropies vanish
    while the flow value stays at log m.
    """
    trans = np.zeros((m, m, m, m))
    for x0 in range(m):
        for y0 in range(m):
            for x1 in range(m):
                trans[x0, y0, x1, x1] = 1.0 / m
    initial = np.zeros((m, m))
    for x in range(m):
        initial[x, x] = 1.0 / m
    return JointMarkovSpec(trans, initial)


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

    Step t moves from state s to the first state whose cumulative
    transition probability from s exceeds draw t. Per chunk of draws, one
    binary search per state row finds that next state for every draw, and
    the chain then walks the chunk by list lookups.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.default_rng(seed)
    n = spec.ax * spec.ay
    cum_init = np.cumsum(spec.initial.reshape(n))
    cum_trans = np.cumsum(spec.transitions.reshape(n, n), axis=1)
    draws = rng.random(length)
    state = int(np.searchsorted(cum_init, draws[0], side="right"))
    states = [state]
    for start in range(1, length, _SAMPLE_CHUNK):
        chunk = draws[start : start + _SAMPLE_CHUNK]
        following = [np.searchsorted(row, chunk, side="right").tolist() for row in cum_trans]
        for t in range(len(chunk)):
            state = following[state][t]
            states.append(state)
    path = np.array(states, dtype=np.int64)
    return path // spec.ay, path % spec.ay


X_PITCH_BASE = 36
Y_PITCH_BASE = 72


def embed_tracks(
    xs: np.ndarray,
    ys: np.ndarray,
    grid: GridSpec,
    *,
    x_base: int = X_PITCH_BASE,
    y_base: int = Y_PITCH_BASE,
    program: int = 0,
) -> tuple[tuple[QuantNote, ...], tuple[QuantNote, ...]]:
    """One symbol per grid step, in the pitch field, all else constant.

    The two voices get disjoint pitch ranges so the merged encoding keeps
    them apart and interleaves them deterministically; without that, the
    per-field factorized model would be measuring a blurred signal.
    """
    if len(xs) != len(ys):
        raise ValueError("paths must have equal length")
    if len(xs) > grid.steps:
        raise ValueError(f"path of {len(xs)} steps does not fit {grid.steps} slots")
    hi_x = int(xs.max()) if len(xs) else 0
    hi_y = int(ys.max()) if len(ys) else 0
    if x_base + hi_x >= y_base or y_base + hi_y >= 128:
        raise ValueError("pitch ranges overlap or leave the MIDI range")
    res = grid.resolution
    track_x = tuple(
        QuantNote(t // res, t % res, x_base + int(s), 1, program)
        for t, s in enumerate(xs)
    )
    track_y = tuple(
        QuantNote(t // res, t % res, y_base + int(s), 1, program)
        for t, s in enumerate(ys)
    )
    return track_x, track_y


def embed_pieces(
    xs: np.ndarray,
    ys: np.ndarray,
    piece_len: int,
    grid: GridSpec,
    **kwargs,
) -> list[tuple[tuple[QuantNote, ...], tuple[QuantNote, ...]]]:
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
        pieces.append(embed_tracks(xs[start:stop], ys[start:stop], grid, **kwargs))
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
    n = ax * ay
    if len(rows) != 1 + n + 1:
        raise ValueError(f"expected {n} transition rows plus an initial row")
    values = [[float(v) for v in row] for row in rows[1:]]
    if any(len(row) != n for row in values):
        raise ValueError(f"each probability row must have {n} entries")
    trans = np.array(values[:n]).reshape(ax, ay, ax, ay)
    initial = np.array(values[n]).reshape(ax, ay)
    return JointMarkovSpec(trans, initial)
