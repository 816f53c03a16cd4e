"""The per-grid layout shared by the event layer and the model."""
import numpy as np
from hypothesis import given, settings, strategies as st

from duetflow.grid import MAX_VALUES, GridSpec, layout, vocab_sizes

# Values of every grid besides its three free spans: 5 types, 128 pitches,
# 128 programs and duration 0.
_FIXED = sum(vocab_sizes(GridSpec(1, 1, 1))) - 3


@st.composite
def legal_grids(draw):
    """Grids of every size up to MAX_VALUES values, few and many."""
    free = draw(st.one_of(st.integers(3, 64), st.integers(3, MAX_VALUES - _FIXED)))
    a = draw(st.integers(1, free - 2))
    b = draw(st.integers(1, free - a - 1))
    spans = draw(st.permutations([a, b, free - a - b]))
    return GridSpec(*spans)


@settings(max_examples=40, deadline=None)
@given(legal_grids(), st.integers(0, 2**32 - 1))
def test_packed_keys_order_rows_as_lexsort_does(grid, seed):
    lay = layout(grid)
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, lay.sizes, size=(8, 6))
    pool[0] = lay.sizes - 1
    pool[1] = 0
    rows = pool[rng.integers(0, len(pool), 200)]
    for columns, weights in ((rows, lay.weights), (rows[:, 1:], lay.weights[1:])):
        keys = columns @ weights
        assert np.array_equal(keys.argsort(kind="stable"), np.lexsort(columns.T[::-1]))
    keys = rows @ lay.weights
    assert np.array_equal(keys[:, None] // lay.weights % lay.sizes, rows)


@settings(max_examples=20, deadline=None)
@given(legal_grids())
def test_known_keys_and_key_width(grid):
    vocab = vocab_sizes(grid)
    lay = layout(grid)
    assert lay.shift == (8 * max(vocab) - 1).bit_length()
    legal = {v * 8 + f for f, size in enumerate(vocab) for v in range(size)}
    assert max(legal) < 1 << lay.shift
    # A count key's column in a row of whole distributions, every field's
    # values side by side; any other key's column is past every row's end.
    starts = [sum(vocab[:f]) for f in range(6)]
    column = {v * 8 + f: starts[f] + v for f, size in enumerate(vocab) for v in range(size)}
    assert lay.columns.dtype == np.int32
    assert lay.columns.tolist() == [column.get(key, 2**31 - 1) for key in range(1 << lay.shift)]


@settings(max_examples=40, deadline=None)
@given(legal_grids())
def test_layout_is_shared_and_read_only(grid):
    vocab = vocab_sizes(grid)
    lay = layout(grid)
    assert layout(GridSpec(grid.resolution, grid.max_beat, grid.max_duration)) is lay
    assert lay.sizes.tolist() == list(vocab)
    assert lay.starts.tolist() == [sum(vocab[:f]) for f in range(6)]
    assert lay.width == sum(vocab)
    stops = np.cumsum(vocab[1:]).tolist()
    assert lay.spans == tuple(zip([0, *stops[:-1]], stops))
    assert lay.lasts.tolist() == [hi - 1 for _, hi in lay.spans]
    arrays = [a for a in lay if isinstance(a, np.ndarray)]
    assert len(arrays) == 5
    for a in arrays:
        assert not a.flags.writeable
