"""Exact chain flow: closed forms, invariants, sampling, embedding."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duetflow.grid import GridSpec
from duetflow.oracle import (
    ConvergenceError,
    JointMarkovSpec,
    copy_spec,
    embed_pieces,
    embed_tracks,
    exact_flow,
    independent_spec,
    instantaneous_spec,
    random_spec,
    sample_paths,
    spec_from_text,
    spec_to_text,
    stationary,
)

LN2 = math.log(2)


def row_entropy(row):
    row = np.asarray(row, dtype=float)
    nz = row[row > 0]
    return float(-(nz * np.log(nz)).sum())


# --- canonical chains, against hand-derived values ---------------------------

def test_independent_chain_closed_form():
    # px = [[.85,.15],[.25,.75]] has stationary (5/8, 3/8): balance gives
    # pi0 * .15 = pi1 * .25. py = [[.7,.3],[.4,.6]] likewise gives (4/7, 3/7).
    spec = independent_spec()
    res = exact_flow(spec)
    h_x = 5 / 8 * row_entropy([0.85, 0.15]) + 3 / 8 * row_entropy([0.25, 0.75])
    h_y = 4 / 7 * row_entropy([0.7, 0.3]) + 3 / 7 * row_entropy([0.4, 0.6])
    assert res.h_x == pytest.approx(h_x, abs=1e-12)
    assert res.h_y == pytest.approx(h_y, abs=1e-12)
    assert res.h_xy == pytest.approx(h_x + h_y, abs=1e-12)
    assert res.te_x_to_y == pytest.approx(0.0, abs=1e-12)
    assert res.te_y_to_x == pytest.approx(0.0, abs=1e-12)
    assert res.instantaneous == pytest.approx(0.0, abs=1e-12)
    assert res.info_flow == pytest.approx(0.0, abs=1e-12)

    pi = stationary(spec)
    expected = np.outer([5 / 8, 3 / 8], [4 / 7, 3 / 7])
    assert np.abs(pi - expected).max() < 1e-12


@pytest.mark.parametrize("m", [2, 3])
def test_copy_chain_closed_form(m):
    # X is i.i.d. uniform; Y repeats X one step later. All of log m flows
    # through the delayed copy and none of it is instantaneous.
    res = exact_flow(copy_spec(m))
    log_m = math.log(m)
    assert res.h_x == pytest.approx(log_m, abs=1e-12)
    assert res.h_y == pytest.approx(log_m, abs=1e-12)
    assert res.h_xy == pytest.approx(log_m, abs=1e-12)
    assert res.te_x_to_y == pytest.approx(log_m, abs=1e-12)
    assert res.te_y_to_x == pytest.approx(0.0, abs=1e-12)
    assert res.instantaneous == pytest.approx(0.0, abs=1e-12)
    assert res.info_flow == pytest.approx(log_m, abs=1e-12)
    assert np.abs(stationary(copy_spec(m)) - 1 / m**2).max() < 1e-12


def test_instantaneous_chain_closed_form():
    # Y mirrors X within the same step: zero transfer either way, yet the
    # flow value still sees the shared log 2.
    res = exact_flow(instantaneous_spec(2))
    assert res.h_x == pytest.approx(LN2, abs=1e-12)
    assert res.h_y == pytest.approx(LN2, abs=1e-12)
    assert res.h_xy == pytest.approx(LN2, abs=1e-12)
    assert res.te_x_to_y == pytest.approx(0.0, abs=1e-12)
    assert res.te_y_to_x == pytest.approx(0.0, abs=1e-12)
    assert res.instantaneous == pytest.approx(LN2, abs=1e-12)
    assert res.info_flow == pytest.approx(LN2, abs=1e-12)
    # only the diagonal is ever reachable
    pi = stationary(instantaneous_spec(2))
    assert pi[0, 1] == pi[1, 0] == 0.0
    assert pi[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_to_dict_carries_all_terms():
    d = exact_flow(copy_spec(2)).to_dict()
    assert d["te_x_to_y"] == pytest.approx(LN2, abs=1e-12)
    assert set(d) == {
        "h_x_given_past", "h_y_given_past", "h_xy_given_past",
        "te_x_to_y", "te_y_to_x", "instantaneous", "info_flow",
    }


# --- invariants over random chains -------------------------------------------

def test_flow_decomposes_into_transfers_plus_instantaneous():
    for seed in range(100):
        res = exact_flow(random_spec(seed))
        assert res.info_flow == pytest.approx(
            res.te_x_to_y + res.te_y_to_x + res.instantaneous, abs=1e-12
        )
        assert res.h_x >= 0 and res.h_y >= 0 and res.h_xy >= 0
        assert res.te_x_to_y >= -1e-12
        assert res.te_y_to_x >= -1e-12
        assert res.instantaneous >= -1e-12
        assert res.info_flow >= -1e-12


def test_product_chains_always_have_zero_flow():
    rng = np.random.default_rng(5)
    for _ in range(20):
        def random_rows(a):
            p = rng.gamma(1.0, 1.0, (a, a)) + 1e-3
            return p / p.sum(axis=1, keepdims=True)
        res = exact_flow(independent_spec(random_rows(3), random_rows(2)))
        assert abs(res.te_x_to_y) < 1e-12
        assert abs(res.te_y_to_x) < 1e-12
        assert abs(res.instantaneous) < 1e-12
        assert abs(res.info_flow) < 1e-12


def test_stationary_matches_eigenvector():
    # Independent derivation: left eigenvector of the flattened transition
    # matrix for eigenvalue 1.
    for seed in range(20):
        spec = random_spec(seed)
        n = spec.ax * spec.ay
        P = spec.transitions.reshape(n, n)
        pi = stationary(spec).reshape(n)
        w, v = np.linalg.eig(P.T)
        lead = np.argmin(np.abs(w - 1.0))
        eig = np.real(v[:, lead])
        eig = eig / eig.sum()
        assert np.abs(pi - eig).sum() < 1e-9
        assert np.abs(pi @ P - pi).sum() < 1e-10
        assert pi.min() >= 0
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)


# --- degenerate chains --------------------------------------------------------

def test_identity_chain_with_spread_initial_is_rejected():
    trans = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            trans[x, y, x, y] = 1.0
    spec = JointMarkovSpec(trans, np.full((2, 2), 0.25))
    with pytest.raises(ConvergenceError, match="communicating class"):
        stationary(spec)


def test_absorbing_state_with_point_initial_is_fine():
    trans = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            trans[x, y, x, y] = 1.0
    init = np.zeros((2, 2))
    init[1, 0] = 1.0
    pi = stationary(JointMarkovSpec(trans, init))
    assert pi[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_period_two_chain_is_rejected():
    trans = np.zeros((2, 1, 2, 1))
    trans[0, 0, 1, 0] = 1.0
    trans[1, 0, 0, 0] = 1.0
    spec = JointMarkovSpec(trans, np.array([[1.0], [0.0]]))
    with pytest.raises(ConvergenceError, match="converge"):
        stationary(spec)


def test_spec_validation_errors():
    good = copy_spec(2)
    with pytest.raises(ValueError, match="ax, ay"):
        JointMarkovSpec(np.zeros((2, 2, 2)), np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="ax, ay"):
        JointMarkovSpec(np.zeros((2, 3, 2, 2)), np.full((2, 3), 1 / 6))
    with pytest.raises(ValueError, match="alphabet"):
        JointMarkovSpec(np.full((9, 1, 9, 1), 1 / 9), np.full((9, 1), 1 / 9))
    with pytest.raises(ValueError, match="initial"):
        JointMarkovSpec(good.transitions, np.full((2, 3), 1 / 6))
    with pytest.raises(ValueError, match="negative"):
        bad = good.transitions.copy()
        bad[0, 0, 0, 0] -= 2.0
        JointMarkovSpec(bad, good.initial)
    with pytest.raises(ValueError, match="sum to 1"):
        JointMarkovSpec(good.transitions * 0.5, good.initial)
    with pytest.raises(ValueError, match="sum to 1"):
        JointMarkovSpec(good.transitions, good.initial * 0.5)


# --- sampling -----------------------------------------------------------------

def test_sampling_is_deterministic_and_seed_sensitive():
    spec = random_spec(3)
    xa, ya = sample_paths(spec, 500, seed=11)
    xb, yb = sample_paths(spec, 500, seed=11)
    assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
    xc, _ = sample_paths(spec, 500, seed=12)
    assert not np.array_equal(xa, xc)
    with pytest.raises(ValueError):
        sample_paths(spec, 0, seed=1)


def test_copy_chain_samples_echo_exactly():
    xs, ys = sample_paths(copy_spec(2), 20000, seed=7)
    assert np.array_equal(ys[1:], xs[:-1])
    assert abs(xs.mean() - 0.5) < 0.02


def test_sampled_frequencies_match_the_chain():
    spec = independent_spec()
    xs, _ = sample_paths(spec, 50000, seed=19)
    assert abs(np.mean(xs == 0) - 5 / 8) < 0.02
    # empirical one-step transition frequencies against the x-marginal rows
    px = np.array([[0.85, 0.15], [0.25, 0.75]])
    for a in range(2):
        idx = np.flatnonzero(xs[:-1] == a)
        emp = np.mean(xs[idx + 1] == 0)
        assert abs(emp - px[a, 0]) < 0.02


def reference_sample_paths(spec, length, seed):
    """The per-step sampler: one binary search of the current state's row per step."""
    rng = np.random.default_rng(seed)
    n = spec.ax * spec.ay
    cum_init = np.cumsum(spec.initial.reshape(n))
    cum_trans = np.cumsum(spec.transitions.reshape(n, n), axis=1)
    draws = rng.random(length)
    states = np.empty(length, dtype=np.int64)
    state = int(np.searchsorted(cum_init, draws[0], side="right"))
    states[0] = state
    for t in range(1, length):
        state = int(np.searchsorted(cum_trans[state], draws[t], side="right"))
        states[t] = state
    return states // spec.ay, states % spec.ay


def _assert_same_paths(spec, length, seed):
    got = sample_paths(spec, length, seed)
    want = reference_sample_paths(spec, length, seed)
    assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("length", [1, 5120, 16385])
@pytest.mark.parametrize(
    "spec", [copy_spec(2), random_spec(3, 8, 8), independent_spec()], ids=["copy", "8x8", "ind"]
)
def test_sampler_matches_per_step_reference(spec, length):
    _assert_same_paths(spec, length, seed=5)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 9000),
    st.integers(0, 2**32),
)
def test_sampler_matches_per_step_reference_on_random_chains(spec_seed, ax, ay, length, seed):
    _assert_same_paths(random_spec(spec_seed, ax, ay), length, seed)


# --- embedding into the note pipeline ------------------------------------------

def test_embed_tracks_layout():
    grid = GridSpec()
    xs = np.array([0, 1, 0])
    ys = np.array([1, 0, 1])
    tx, ty = embed_tracks(xs, ys, grid)
    assert tx == (
        (0, 0, 36, 1, 0),
        (0, 1, 37, 1, 0),
        (0, 2, 36, 1, 0),
    )
    assert ty == ((0, 0, 73, 1, 0), (0, 1, 72, 1, 0), (0, 2, 73, 1, 0))
    long = np.zeros(13, dtype=int)
    tx2, _ = embed_tracks(long, long, grid)
    assert tx2[12][:2] == (1, 0)  # wraps to the next beat


def test_embed_tracks_rejections():
    grid = GridSpec(resolution=2, max_beat=2)
    ok = np.zeros(4, dtype=int)
    embed_tracks(ok, ok, grid)
    with pytest.raises(ValueError, match="equal length"):
        embed_tracks(np.zeros(3, dtype=int), np.zeros(4, dtype=int), grid)
    with pytest.raises(ValueError, match="does not fit"):
        embed_tracks(np.zeros(5, dtype=int), np.zeros(5, dtype=int), grid)
    one = np.ones(2, dtype=int)
    with pytest.raises(ValueError, match="overlap"):
        embed_tracks(one, one, grid, x_base=71)
    with pytest.raises(ValueError, match="overlap"):
        embed_tracks(one, one, grid, y_base=127)


def test_embed_pieces_chops_and_restarts():
    grid = GridSpec()
    xs = np.arange(10) % 2
    pieces = embed_pieces(xs, xs, 4, grid)
    assert len(pieces) == 2  # the 2-step tail is dropped
    for tx, ty in pieces:
        assert len(tx) == len(ty) == 4
        assert tx[0][:2] == (0, 0)
    with pytest.raises(ValueError):
        embed_pieces(xs, xs, 0, grid)


# --- text form ------------------------------------------------------------------

def test_spec_text_round_trip():
    for seed in (0, 1, 2):
        spec = random_spec(seed)
        back = spec_from_text(spec_to_text(spec))
        assert np.array_equal(back.transitions, spec.transitions)
        assert np.array_equal(back.initial, spec.initial)


def test_spec_text_accepts_comments_and_rejects_malformed():
    text = spec_to_text(copy_spec(2))
    commented = "# a chain\n\n" + text.replace("\n", "\n# note\n", 1)
    back = spec_from_text(commented)
    assert np.array_equal(back.transitions, copy_spec(2).transitions)

    with pytest.raises(ValueError, match="empty"):
        spec_from_text("# nothing\n")
    with pytest.raises(ValueError, match="alphabet sizes"):
        spec_from_text("2\n")
    with pytest.raises(ValueError, match="transition rows"):
        spec_from_text("2 2\n" + "0.25 0.25 0.25 0.25\n")
    with pytest.raises(ValueError, match="entries"):
        spec_from_text("1 2\n1.0 0.0\n0.0 1.0\n0.5\n")
