"""Exact chain flow: closed forms, invariants, sampling, embedding."""
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import breadth_first_order, connected_components

from duetflow.grid import GridSpec
from duetflow.oracle import (
    ConvergenceError,
    JointMarkovSpec,
    X_PITCH_BASE,
    Y_PITCH_BASE,
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


def cycle_spec(n):
    """n states visited in turn, started in state 0: period n."""
    trans = np.roll(np.eye(n), 1, axis=1).reshape(n, 1, n, 1)
    return JointMarkovSpec(trans, np.eye(n)[:1].T)


@pytest.mark.parametrize("n", [2, 3])
def test_periodic_cycle_has_its_uniform_law(n):
    spec = cycle_spec(n)
    assert np.abs(stationary(spec) - 1 / n).max() <= 1e-15
    assert exact_flow(spec).h_x == 0


def two_state_spec(e):
    """Two states that switch with probability e, started in state 0."""
    trans = np.array([[1 - e, e], [e, 1 - e]]).reshape(2, 1, 2, 1)
    return JointMarkovSpec(trans, np.array([[1.0], [0.0]]))


def test_chain_that_almost_never_switches_has_the_uniform_law():
    assert np.abs(stationary(two_state_spec(1e-13)) - 0.5).max() <= 1e-15


def test_slowly_mixing_chain_is_solved_at_once():
    e = 1e-6
    t0 = time.perf_counter()
    res = exact_flow(two_state_spec(e))
    assert time.perf_counter() - t0 < 1.0
    assert res.h_x == pytest.approx(-(1 - e) * math.log(1 - e) - e * math.log(e), rel=1e-9)


def test_transient_start_has_all_its_mass_in_the_absorbing_state():
    # state 0 moves to state 1, which never leaves
    trans = np.array([[0.0, 1.0], [0.0, 1.0]]).reshape(2, 1, 2, 1)
    pi = stationary(JointMarkovSpec(trans, np.array([[1.0], [0.0]])))
    assert pi.ravel().tolist() == [0.0, 1.0]


def test_masses_further_apart_than_the_float_range_do_not_overflow():
    # pi is 1e-400 : 1e-200 : 1, so its first entry underflows to 0
    trans = np.array([[0.0, 1.0, 0.0], [1e-200, 0.0, 1.0], [0.0, 1e-200, 1.0]])
    pi = stationary(JointMarkovSpec(trans.reshape(3, 1, 3, 1), np.eye(3)[:1].T)).ravel()
    assert pi[0] == 0.0
    assert pi[1] == pytest.approx(1e-200, rel=1e-15)
    assert pi[2] == 1.0


def sparse_chain(ax, ay, density, cycle_len, seed):
    """A random chain on ax * ay states and its edge set.

    Random edges plus a cycle through a random subset of the states, so
    that graphs one edge short of a single class come up often. About a
    third of the rows are sticky: their self-loop outweighs the rest of
    the row by up to 1e8, so such chains mix very slowly. The initial law
    sits on one to a few states.
    """
    rng = np.random.default_rng(seed)
    n = ax * ay
    adj = rng.random((n, n)) < density
    cycle = rng.permutation(n)[:cycle_len]
    adj[cycle, np.roll(cycle, -1)] = True
    adj[np.arange(n), rng.integers(0, n, n)] |= ~adj.any(axis=1)
    weights = np.where(adj, rng.gamma(1.0, 1.0, (n, n)) + 1e-3, 0.0)
    sticky = np.flatnonzero(rng.random(n) < 0.3)
    adj[sticky, sticky] = True
    weights[sticky, sticky] += weights[sticky].sum(axis=1) * 10 ** rng.uniform(0, 8, len(sticky))
    weights /= weights.sum(axis=1, keepdims=True)
    initial = np.where(rng.random(n) < 0.2, rng.gamma(1.0, 1.0, n), 0.0)
    initial[rng.integers(n)] += 1.0
    initial /= initial.sum()
    return JointMarkovSpec(weights.reshape(ax, ay, ax, ay), initial.reshape(ax, ay)), adj


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.floats(0.0, 0.5),
    st.integers(0, 64),
    st.integers(0, 2**32),
)
def test_stationary_is_refused_exactly_without_a_unique_law(ax, ay, density, cycle_len, seed):
    spec, adj = sparse_chain(ax, ay, density, cycle_len, seed)
    n = ax * ay
    P = spec.transitions.reshape(n, n)
    starts = np.flatnonzero(spec.initial.reshape(n) > 0)
    live = np.unique(np.concatenate([
        breadth_first_order(adj, s, directed=True, return_predecessors=False) for s in starts
    ]))
    n_comp, labels = connected_components(adj[np.ix_(live, live)], directed=True, connection="strong")
    src, dst = np.nonzero(adj[np.ix_(live, live)])
    leaving = labels[src][labels[src] != labels[dst]]
    closed = np.setdiff1d(np.arange(n_comp), leaving)
    if len(closed) > 1:
        with pytest.raises(ConvergenceError, match="communicating class"):
            stationary(spec)
        return
    pi = stationary(spec).reshape(n)
    assert np.abs(pi @ P - pi).max() <= 1e-15
    cls = live[labels == closed[0]]
    assert not np.delete(pi, cls).any()
    # Each state's inflow equals its outflow to rounding, relative to
    # each: this pins the small entries of pi that the residual above
    # cannot see on a chain that mixes slowly.
    Q = P[np.ix_(cls, cls)]
    moves = Q - np.diag(Q.diagonal())
    inflow, outflow = pi[cls] @ moves, pi[cls] * moves.sum(axis=1)
    assert (np.abs(inflow - outflow) <= 1e-13 * np.maximum(inflow, outflow)).all()
    # The SVD null vector of Q.T - I is itself good only to rounding over
    # the gap to the next singular value, about 1e-8 on the stickiest chains.
    _, sv, vt = np.linalg.svd(Q.T - np.eye(len(cls)))
    gap = sv[-2] if len(cls) > 1 else 1.0
    assert np.abs(pi[cls] - vt[-1] / vt[-1].sum()).max() <= 1e-12 + 1e-14 / gap


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


@pytest.mark.parametrize("m", [0, -1, 9, 1000, 10**9])
@pytest.mark.parametrize("build", [copy_spec, instantaneous_spec])
def test_canonical_chains_refuse_alphabets_outside_the_range(build, m):
    # Before any table of m**4 entries is allocated.
    with pytest.raises(ValueError, match=r"alphabet sizes must be in \[1, 8\]"):
        build(m)


@pytest.mark.parametrize("where", ["transitions", "initial"])
def test_spec_rejects_nan_probabilities(where):
    good = copy_spec(2)
    trans, init = good.transitions.copy(), good.initial.copy()
    (trans if where == "transitions" else init).flat[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        JointMarkovSpec(trans, init)


def test_spec_keeps_read_only_copies_of_the_callers_arrays():
    trans, init = copy_spec(2).transitions.copy(), copy_spec(2).initial.copy()
    spec = JointMarkovSpec(trans, init)
    want = exact_flow(spec).info_flow
    trans[0, 0, 0, 0] = 5.0  # the edit that would unbalance a checked spec
    init[0, 0] = 5.0
    assert spec.transitions[0, 0, 0, 0] != 5.0 and spec.initial[0, 0] != 5.0
    assert exact_flow(spec).info_flow == want
    for a in (spec.transitions, spec.initial):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


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


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.floats(0.0, 0.5),
    st.integers(1, 5000),
    st.integers(0, 2**32),
)
def test_bisect_walk_matches_per_step_reference_up_to_64_states(ax, ay, density, length, seed):
    # A sparse row repeats its cumulative sum over each zero-probability
    # state, which the walk must never step into.
    spec, _ = sparse_chain(ax, ay, density, ax * ay, seed)
    _assert_same_paths(spec, length, seed)


# --- embedding into the note pipeline ------------------------------------------

def test_embed_tracks_layout():
    grid = GridSpec()
    xs = np.array([0, 1, 0])
    ys = np.array([1, 0, 1])
    tx, ty = embed_tracks(xs, ys, grid)
    assert np.array_equal(tx, (
        (0, 0, 36, 1, 0),
        (0, 1, 37, 1, 0),
        (0, 2, 36, 1, 0),
    ))
    assert np.array_equal(ty, ((0, 0, 73, 1, 0), (0, 1, 72, 1, 0), (0, 2, 73, 1, 0)))
    long = np.zeros(13, dtype=int)
    tx2, _ = embed_tracks(long, long, grid)
    assert np.array_equal(tx2[12][:2], (1, 0))  # wraps to the next beat


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 7), max_size=300), st.integers(1, 24))
def test_embed_tracks_equals_tuple_construction(symbols, resolution):
    grid = GridSpec(resolution=resolution)
    xs = np.array(symbols, dtype=np.int64)
    ys = xs[::-1].copy()

    def by_tuples(path, base):
        return [(t // resolution, t % resolution, base + int(s), 1, 0) for t, s in enumerate(path)]

    tx, ty = embed_tracks(xs, ys, grid)
    assert tx.dtype == ty.dtype == np.int64
    assert not tx.flags.writeable and not ty.flags.writeable
    assert list(map(tuple, tx.tolist())) == by_tuples(xs, X_PITCH_BASE)
    assert list(map(tuple, ty.tolist())) == by_tuples(ys, Y_PITCH_BASE)


def test_embed_tracks_rejections():
    grid = GridSpec(resolution=2, max_beat=2)
    ok = np.zeros(4, dtype=int)
    embed_tracks(ok, ok, grid)
    with pytest.raises(ValueError, match="equal length"):
        embed_tracks(np.zeros(3, dtype=int), np.zeros(4, dtype=int), grid)
    with pytest.raises(ValueError, match="does not fit"):
        embed_tracks(np.zeros(5, dtype=int), np.zeros(5, dtype=int), grid)
    zero = np.zeros(2, dtype=int)
    # the highest symbols that still fit: X ends at pitch 71, Y at 127
    embed_tracks(np.array([0, 35]), np.array([0, 55]), grid)
    with pytest.raises(ValueError, match="overlap"):
        embed_tracks(np.array([0, 36]), zero, grid)
    with pytest.raises(ValueError, match="overlap"):
        embed_tracks(zero, np.array([0, 56]), grid)


def test_embed_pieces_chops_and_restarts():
    grid = GridSpec()
    xs = np.arange(10) % 2
    pieces = embed_pieces(xs, xs, 4, grid)
    assert len(pieces) == 2  # the 2-step tail is dropped
    for tx, ty in pieces:
        assert len(tx) == len(ty) == 4
        assert np.array_equal(tx[0][:2], (0, 0))
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


@pytest.mark.parametrize("sizes", ["-2 -2", "3 0", "0 0", "9 1"])
def test_spec_text_refuses_alphabet_sizes_out_of_range(sizes):
    # The body is a valid 2x2 chain, so only the sizes can be refused.
    body = spec_to_text(copy_spec(2)).split("\n", 1)[1]
    with pytest.raises(ValueError, match=r"^alphabet sizes must be in \[1, 8\]$"):
        spec_from_text(f"{sizes}\n{body}")
