"""Count-based sequence model over events, with interpolated back-off.

The model keeps, for every context length j = 0..k, counts of the next
event's fields under the hash of the last j whole events. Prediction
interpolates from the uniform distribution up through every matched
context length, stopping at the first length whose context was never
seen:

    P_-1 = uniform
    P_j  = P_{j-1} * lambda / (total_j + lambda) + counts_j / (total_j + lambda)

Context hashing is a fixed 64-bit mix, so trained models are reproducible
across runs and platforms. The six fields of the next event are predicted
independently given the context.

Each context length has one CountTable of sorted arrays: the context
hashes in ascending order with their totals, and, in CSR form, the counted
keys (value * 8 + field) of every context in ascending order with their
counts, the offsets summed from each entry's pair count. Training numbers
the corpus's distinct events once and, at each context length, counts each
distinct (context, event) pair once with its multiplicity, so a corpus of
few distinct events costs little more than its sorts by context.
Prediction is two steps over many positions at once: ``_match`` finds each
position's back-off chain, its matched entry at every context length, with
one binary search per length from 1 on; ``_interpolate`` turns chains into
the probabilities of realized values, whose keys it builds once (field 7,
no field, for a value outside the vocabulary), and ``_backoff`` into whole
distributions, scaling each row and adding counts only at its entries'
pairs. Table 0 holds only the empty context, or is empty in a model with
no counts at all; its step from the uniform distribution is one row, built
on first use by ``_backoff`` and kept by the model. Scoring runs both
steps over whole batches of streams (predictive scoring sorts the chains
and builds each distinct one's distributions once, through
``_dense_blocks``). Generation steps all primes in lockstep on Python
scalars: each call draws every uniform up front; at each step a prime's
chain is found with one bisect per context length, each field is drawn
with one bisect of its chain's cumulative sums, and the prime's context
hashes move on by the drawn event with ``_push``, the scalar step of
``_rolling_hashes``. Only a step's new chains go through ``_dense_blocks``
and ``_cdfs``, together, and their sampling rows are kept up to a fixed
size. The file format writes the same arrays entry by entry, and
``load_model`` accepts only files that ``save_model`` could have written.
``save_model`` joins the file's parts into bytes; ``save_model_file`` and
the fingerprint take them one table at a time and never join them, and
``load_model_file`` parses a mapping of a regular file, of which the model
keeps only copies.
"""
from __future__ import annotations

import array
import contextlib
import hashlib
import math
import mmap
import os
import reprlib
import stat
import struct
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

from .events import (
    Event,
    EventSequence,
    N_FIELDS,
    TYPE_END,
    TYPE_INSTRUMENT,
    TYPE_NOTE,
    TYPE_NOTES_BEGIN,
    SequenceStructureError,
    encode,
    validate_sequence,
)
from .grid import GridSpec, Layout, layout
from .midi import QuantNote, as_rows

_MASK64 = (1 << 64) - 1
_CTX_MULT = 0x100000001B3
_FIELD_SEED = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB

# Scoring modes: nll scores the realized value, predictive the distribution.
MODES = ("nll", "predictive")

MAGIC = b"DFM1"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<HIdIIIQ")
_TABLE_SIZE = struct.Struct("<Q")
# One entry record on disk: context hash, total, pair count; then its pairs.
_ENTRY = np.dtype([("context", "<u8"), ("total", "<u8"), ("pairs", "<u4")])
_PAIR = np.dtype([("key", "<u8"), ("count", "<u8")])
_ENTRY_WORDS = _ENTRY.itemsize // 4
_PAIR_WORDS = _PAIR.itemsize // 4

_DENSE_ROWS = 256  # whole distributions built per pass
# Most bytes of sampling rows one generate_many call keeps for reuse. A row
# is the cumulative sums of fields 1..5: 1,389 float64 on the default grid,
# about 11 KB, so about 1,500 rows. A step's new rows are built together,
# each kept as a view of its block's _cdfs array, which is freed once none
# of its rows is kept. The rows are dropped all at once when a step's new
# ones would pass the limit.
_SAMPLE_CACHE_BYTES = 16 << 20
_LOG_SMALLEST = math.log(sys.float_info.min)

# What load_model parses: any buffer of bytes, a mapped file included.
_Buffer = bytes | bytearray | memoryview | mmap.mmap


def _fold(h: int, values: Iterable[int]) -> int:
    """Each of values, Python ints, in turn xored into the hash h, then mixed;
    inline, as generation hashes one event per prime at every step."""
    for v in values:
        x = (h ^ (v + _FIELD_SEED)) & _MASK64
        x = ((x ^ (x >> 30)) * _MIX_1) & _MASK64
        x = ((x ^ (x >> 27)) * _MIX_2) & _MASK64
        h = x ^ (x >> 31)
    return h


def event_hash(e: Event) -> int:
    """The hash of an event: its fields folded into _FIELD_SEED in order."""
    # int() guards against numpy integers, which overflow the xor in _fold.
    return _fold(_FIELD_SEED, map(int, e))


# The hash after a note's type field: generation folds in the other five.
_NOTE_STATE = _fold(_FIELD_SEED, [TYPE_NOTE])


def _event_hashes(events: np.ndarray) -> np.ndarray:
    """event_hash of every row of an (n, 6) integer array, in wrapping uint64."""
    seed = np.uint64(_FIELD_SEED)
    rows = events.astype(np.uint64)
    rows += seed
    h = np.full(len(rows), seed)
    for f in range(N_FIELDS):
        h ^= rows[:, f]
        h ^= h >> np.uint64(30)
        h *= np.uint64(_MIX_1)
        h ^= h >> np.uint64(27)
        h *= np.uint64(_MIX_2)
        h ^= h >> np.uint64(31)
    return h


def _push(ctx: list[int], e: int, k: int) -> list[int]:
    """The hashes of the last 1..k events once the event of hash e follows
    those of ctx: the step of _rolling_hashes, on Python ints."""
    return [e, *[(x * _CTX_MULT + e) & _MASK64 for x in ctx[: k - 1]]] if k else []


def _last_hashes(events: np.ndarray, k: int) -> list[int]:
    """The hashes of the last 1..min(k, t) of t events, as _push leaves them."""
    rows = events[len(events) - min(k, len(events)) :].tolist()
    return reduce(lambda ctx, e: _push(ctx, event_hash(e), k), rows, [])


def _rolling_hashes(event_hashes: np.ndarray, kmax: int) -> Iterable[np.ndarray]:
    """For j = 0..kmax, the hash of the j events before every position.

    The value at position t is the context hash only where t >= j; earlier
    positions have fewer than j events before them and must not be used.
    """
    h = np.zeros(len(event_hashes), dtype=np.uint64)
    yield h
    for _ in range(kmax):
        nxt = np.zeros_like(h)
        np.multiply(h[:-1], np.uint64(_CTX_MULT), out=nxt[1:])
        nxt[1:] += event_hashes[:-1]
        h = nxt
        yield h


def _search(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """np.searchsorted(haystack, needles), searched in ascending needle order.

    Each search then starts from where the last one ended, so the reads of
    a large table stay close together; the results go back to the order
    of the needles.
    """
    # Array methods, not np.argsort and np.searchsorted: predict_next calls
    # this with one needle per context length, where their wrappers cost as
    # much as the search.
    flat = needles.ravel()
    order = flat.argsort()
    at = np.empty_like(order)
    at[order] = haystack.searchsorted(flat[order])
    return at.reshape(needles.shape)


def _head_mask(n_words: int, first_words: np.ndarray) -> np.ndarray:
    """Which 32-bit words of a serialized table belong to entry records."""
    mask = np.zeros(n_words, dtype=bool)
    mask[(first_words[:, None] + np.arange(_ENTRY_WORDS)).ravel()] = True
    return mask


@dataclass(frozen=True, eq=False)
class CountTable:
    """The counts under one context length, as sorted arrays.

    Entry i is the context hash contexts[i] (strictly ascending), seen
    totals[i] times. Its pairs are offsets[i]:offsets[i + 1]: the codes
    (i << shift) | key with key = value * 8 + field, strictly ascending, so
    the keys of an entry ascend and one binary search finds any (entry,
    key) pair; counts holds the count of each pair. shift is the key width
    of the model's grid, ``layout(grid).shift``, which the methods that
    split codes take from their callers.
    """

    contexts: np.ndarray  # uint64
    totals: np.ndarray  # uint64
    offsets: np.ndarray  # int64, one more than contexts
    codes: np.ndarray  # uint64
    counts: np.ndarray  # uint64

    @classmethod
    def build(cls, contexts, totals, lengths, codes, counts) -> CountTable:
        """The table whose entry i has lengths[i] pairs, its codes in entry
        order. The table keeps the arrays, and makes them read-only."""
        offsets = np.zeros(len(contexts) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        for a in (contexts, totals, offsets, codes, counts):
            a.flags.writeable = False
        return cls(contexts, totals, offsets, codes, counts)

    @classmethod
    def empty(cls) -> CountTable:
        none = np.zeros(0, dtype=np.uint64)
        return cls.build(none, none, none, none, none)

    def __len__(self) -> int:
        return len(self.contexts)

    def keys(self, shift: int, pairs: slice | np.ndarray = slice(None)) -> np.ndarray:
        """The keys (value * 8 + field) of the given pairs, under key width shift."""
        return self.codes[pairs] & np.uint64((1 << shift) - 1)

    def find(self, hashes: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows whose context hash is in this table, and their entries."""
        if not len(self.contexts):
            return rows[:0], rows[:0]
        entries = _search(self.contexts, hashes)
        np.minimum(entries, len(self.contexts) - 1, out=entries)
        hit = self.contexts[entries] == hashes
        return rows[hit], entries[hit]

    def point_counts(self, entries: np.ndarray, keys: np.ndarray, shift: int) -> np.ndarray:
        """Count of the uint64 key keys[i, f] under entries[i], shape
        (len(entries), 6); a key of field 7, which no pair has, counts 0."""
        codes = (entries.astype(np.uint64)[:, None] << np.uint64(shift)) | keys
        at = _search(self.codes, codes)
        np.minimum(at, len(self.codes) - 1, out=at)
        return np.where(self.codes[at] == codes, self.counts[at], 0).astype(np.float64)

    def pairs(
        self, entries: list[int], lay: Layout
    ) -> tuple[int | np.ndarray, np.ndarray, np.ndarray]:
        """The pairs under every entries[i] as (i, column, count), where
        column is the key's place in a row of all fields' values side by
        side, on a grid of layout lay. A lone entry's pairs are one slice of
        the arrays."""
        if len(entries) == 1:
            owner, at = 0, slice(self.offsets[entries[0]], self.offsets[entries[0] + 1])
        else:
            first = self.offsets[entries]
            lengths = self.offsets[np.add(entries, 1)] - first
            owner = np.repeat(np.arange(len(entries)), lengths)
            at = np.arange(len(owner)) + np.repeat(first - np.cumsum(lengths) + lengths, lengths)
        keys = self.keys(lay.shift, at).view(np.int64)
        return owner, lay.starts[keys & 7] + (keys >> 3), self.counts[at]

    def file_parts(self, shift: int) -> tuple[bytes, np.ndarray]:
        """This table in the file layout, under key width shift: its size,
        then entry by entry."""
        n = len(self.contexts)
        heads = np.empty(n, dtype=_ENTRY)
        heads["context"] = self.contexts
        heads["total"] = self.totals
        heads["pairs"] = np.diff(self.offsets)
        pairs = np.empty(len(self.codes), dtype=_PAIR)
        pairs["key"] = self.keys(shift)
        pairs["count"] = self.counts
        words = np.empty(n * _ENTRY_WORDS + len(pairs) * _PAIR_WORDS, dtype="<u4")
        first = np.arange(n) * _ENTRY_WORDS + self.offsets[:-1] * _PAIR_WORDS
        is_head = _head_mask(len(words), first)
        words[is_head] = heads.view("<u4")
        words[~is_head] = pairs.view("<u4")
        return _TABLE_SIZE.pack(n), words


def _firsts(ordered: np.ndarray) -> np.ndarray:
    """Which elements of a sorted array differ from the one before them."""
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def _distinct_events(events: np.ndarray, lay: Layout) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an (n, 6) event array on a grid of layout lay,
    and each row's index among them.

    Each row packs into one int64 key by the layout's weights. The distinct
    rows come back ascending by key, decoded from their keys.
    """
    keys = events @ lay.weights
    ordered = np.sort(keys)
    distinct = ordered[_firsts(ordered)]
    del ordered
    return distinct[:, None] // lay.weights % lay.sizes, distinct.searchsorted(keys)


def _count_table(
    contexts: np.ndarray, rows: np.ndarray, ids: np.ndarray, keys: np.ndarray, shift: int
) -> CountTable:
    """Count the events at rows under contexts[rows], through distinct pairs.

    ids[i] is event i's index among the corpus's distinct events, and
    keys[d, f] is the key (value * 8 + f) of field f of distinct event d,
    shape (D, 6). Sorting the rows by context hash gives the entries and
    their totals; one sort of entry * D + id then gives the distinct
    (entry, event) pairs and how often each occurs. Only the distinct
    pairs are spread into their six fields' codes, sorted once; the
    multiplicities of equal codes are summed.

    Per-event arrays are dropped as soon as they are used up, so training
    holds only a few of them at once.
    """
    if not len(rows):
        return CountTable.empty()
    hashes = contexts[rows]
    order = hashes.argsort()
    hashes = hashes[order]
    first = _firsts(hashes)
    unique = hashes[first]
    del hashes
    totals = np.diff(np.flatnonzero(first), append=len(first)).astype(np.uint64)
    pairs = np.cumsum(first)
    del first
    pairs -= 1
    pairs *= len(keys)
    pairs += ids[rows][order]
    del order
    pairs.sort()
    runs = np.flatnonzero(_firsts(pairs))
    times = np.diff(runs, append=len(pairs)).astype(np.uint64)
    entry, event = np.divmod(pairs[runs], len(keys))
    del pairs, runs
    # One row of six codes a pair, the rows in entry order: a stable sort
    # finds the long ascending stretches.
    codes = keys.take(event, axis=0)
    codes |= entry.astype(np.uint64)[:, None] << np.uint64(shift)
    del entry, event
    codes = codes.ravel()
    order = codes.argsort(kind="stable")
    codes = codes[order]
    runs = np.flatnonzero(_firsts(codes))
    codes = codes[runs]
    order //= N_FIELDS  # each code's pair
    times = times[order]
    del order
    lengths = np.bincount((codes >> np.uint64(shift)).view(np.int64), minlength=len(unique))
    return CountTable.build(unique, totals, lengths, codes, np.add.reduceat(times, runs))


@dataclass(frozen=True, slots=True)
class FieldDistributions:
    """One probability vector per event field."""

    vectors: tuple[np.ndarray, ...]

    def probability(self, field_index: int, value: int) -> float:
        return float(self.vectors[field_index][value])

    def validate(self) -> None:
        for i, vec in enumerate(self.vectors):
            total = float(vec.sum())
            if abs(total - 1.0) > 1e-9:
                raise AssertionError(f"field {i} sums to {total}")
            if float(vec.min()) <= 0.0:
                raise AssertionError(f"field {i} has a non-positive entry")


@dataclass(frozen=True, eq=False)
class ContextModel:
    """Immutable, down to its tables' arrays, so the fingerprint and _root_row
    it keeps stay its own; ``dataclasses.replace`` builds a new model."""

    k: int
    lam: float
    grid: GridSpec
    # tables[j]: counts under context length j, as sorted arrays (CountTable)
    tables: tuple[CountTable, ...]
    trained_events: int = 0
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def layout(self) -> Layout:
        return layout(self.grid)

    def fingerprint(self) -> str:
        """The blake2b digest of the model's file, hashed one table at a time."""
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=8)
            for part in _file_parts(self):
                digest.update(part)
                del part  # so only one table's words are alive at a time
            object.__setattr__(self, "_fingerprint", digest.hexdigest())
        return self._fingerprint

    @cached_property
    def _root_row(self) -> np.ndarray:
        """The length-0 step from the uniform distribution, as one row.

        Every field's values side by side, then one slot per field with
        count 0, the probability of a value outside the vocabulary. It is
        _backoff's step at length 0; with table 0 empty the row is the
        uniform distribution itself.
        """
        sizes = self.layout.sizes
        row = np.concatenate([1.0 / np.repeat(sizes, sizes), 1.0 / sizes])[None]
        return _backoff(self, row, [(0,) if len(self.tables[0]) else ()], 0)[0]

    def predict_next(self, context: Sequence[Event] | np.ndarray) -> FieldDistributions:
        """Distributions over the next event's fields given trailing context,
        any (n, 6) array-like of integers (``midi.as_rows``)."""
        ctx = _last_hashes(as_rows(context, N_FIELDS, "event"), self.k)
        hashes = np.array([0, *ctx], dtype=np.uint64)[:, None]
        chains = _chain_tuples(_match(self, hashes, np.array([len(ctx)])))
        ((_, probs),) = _dense_blocks(self, chains)
        return FieldDistributions(tuple(np.split(probs[0], self.layout.starts[1:])))


def _match(model: ContextModel, hashes: np.ndarray, avail: np.ndarray) -> np.ndarray:
    """The entry each position matches at every context length, the back-off chain.

    hashes[j, i] is the hash of the j events before position i, usable for
    j <= avail[i]. Length 0 is the model's _root_row, the same for every
    position, so column 0 is always 0 and needs no search; longer lengths
    are matched upward with one binary search each. The result has shape
    (m, len(hashes)): chains[i, j] is the entry of table j for position i,
    and -1 from its first unusable or unseen length on. Positions with
    equal chains get equal predictions; a model with an empty table 0 has
    no counts, so its searches miss.
    """
    chains = np.full((hashes.shape[1], hashes.shape[0]), -1, dtype=np.int64)
    chains[:, 0] = 0
    rows = np.arange(hashes.shape[1])
    for j in range(1, hashes.shape[0]):
        rows = rows[avail[rows] >= j]
        rows, entries = model.tables[j].find(hashes[j, rows], rows)
        if not len(rows):
            break
        chains[rows, j] = entries
    return chains


def _chain_tuples(chains: np.ndarray) -> list[tuple[int, ...]]:
    """Chains from _match as generation keeps them: each chain's entries at
    lengths 1.. up to its first miss, where its -1 tail starts, as ints."""
    depths = (chains[:, 1:] >= 0).sum(axis=1).tolist()
    return [tuple(c[1 : 1 + d]) for c, d in zip(chains.tolist(), depths)]


def _interpolate(model: ContextModel, chains: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The probability of values[i, f] along back-off chains from _match.

    values is an (m, 6) array of realized events; the result has its shape.
    From the uniform distribution, each matched length j in ascending order
    scales by lambda / (total + lambda) and adds count / (total + lambda).
    Length 0 is the same single entry for every chain, so it is read from
    the model's _root_row; the loop starts at length 1. A value outside
    the vocabulary gets the key of field 7, which matches no pair.
    """
    lay = model.layout
    known = (values >= 0) & (values < lay.sizes)
    fields = np.arange(N_FIELDS)
    probs = model._root_row[np.where(known, values + lay.starts, lay.width + fields)]
    keys = np.where(known, values * 8 + fields, 7).astype(np.uint64)
    lam = model.lam
    rows = np.arange(len(chains))
    for j in range(1, chains.shape[1]):
        rows = rows[chains[rows, j] >= 0]
        if not len(rows):
            break
        table = model.tables[j]
        entries = chains[rows, j]
        denom = table.totals[entries].astype(np.float64)[:, None] + lam
        counts = table.point_counts(entries, keys[rows], lay.shift)
        probs[rows] = probs[rows] * (lam / denom) + counts / denom
    return probs


def _backoff(
    model: ContextModel, probs: np.ndarray, chains: Sequence[tuple[int, ...]], first: int
) -> np.ndarray:
    """Rows of whole distributions moved along back-off chains, in place.

    Row i of probs holds every field's values side by side; chains[i] holds
    its entries at lengths first, first + 1, ... up to its first miss. At
    each length every row that reaches it is scaled by lambda / (total +
    lambda), and count / (total + lambda) is added at its entry's pairs
    only: at a column of count 0 the step adds 0, which changes nothing.
    An entry's columns are distinct, so one indexed add places all pairs
    of a length. The rows that reach a length are picked in Python, as
    generation builds few at a time; when all do, the whole array is
    scaled in place.
    """
    lay = model.layout
    lam = model.lam
    for n, table in enumerate(model.tables[first:]):
        rows = [i for i, c in enumerate(chains) if len(c) > n]
        if not rows:
            break
        entries = [chains[i][n] for i in rows]
        denom = table.totals[entries].astype(np.float64) + lam
        owner, columns, counts = table.pairs(entries, lay)
        if len(rows) == len(chains):
            probs *= (lam / denom)[:, None]
            at = owner
        else:
            rows = np.array(rows)
            probs[rows] *= (lam / denom)[:, None]
            at = rows[owner]
        probs[at, columns] += counts / denom[owner]
    return probs


def _dense_blocks(
    model: ContextModel, chains: Sequence[tuple[int, ...]]
) -> Iterable[tuple[slice, np.ndarray]]:
    """Whole distributions along chains, as _chain_tuples gives them,
    _DENSE_ROWS rows at a time, each block from the model's _root_row."""
    root = model._root_row[: model.layout.width]
    for start in range(0, len(chains), _DENSE_ROWS):
        block = slice(start, start + _DENSE_ROWS)
        part = chains[block]
        yield block, _backoff(model, np.tile(root, (len(part), 1)), part, 1)


def _entropies(model: ContextModel, chains: np.ndarray) -> np.ndarray:
    """Per-field entropy of the distribution along each chain, shape (m, 6).

    Each distinct chain is built and summed once, then scattered back. The
    chains are sorted row by row, last column least significant, so equal
    chains are neighbours; a chain's row depends on the chain alone.
    """
    order = np.lexsort(chains.T[::-1])
    chains = chains[order]
    first = np.ones(len(chains), dtype=bool)
    first[1:] = (chains[1:] != chains[:-1]).any(axis=1)
    inverse = np.empty(len(chains), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    distinct = _chain_tuples(chains[first])
    out = np.empty((len(distinct), N_FIELDS))
    bounds = model.layout.starts[1:]
    for block, probs in _dense_blocks(model, distinct):
        for f, vecs in enumerate(np.split(probs, bounds, axis=1)):
            out[block, f] = -(vecs * np.log(vecs)).sum(axis=1)
    return out[inverse]


def _check_params(k: int, lam: float) -> None:
    if k < 0:
        raise ValueError("k must be >= 0")
    # One comparison chain, exact for ints too: an int too large for a float
    # is refused here rather than overflowing where it is converted.
    if not 0 < lam <= sys.float_info.max:
        # Shortened: JSON can carry an integer of any number of digits.
        raise ValueError(f"lambda must be positive and finite, got {reprlib.repr(lam)}")


def _check_underflow(model: ContextModel) -> None:
    """Refuse a lambda so small that an unseen value's probability reaches 0.

    The smallest probability the kernel can produce is the uniform one
    scaled by lambda / (total + lambda) at every context length, with each
    length's largest total.
    """
    lam = model.lam
    log_p = -math.log(int(model.layout.sizes.max()))
    for table in model.tables:
        if len(table):
            log_p += math.log(lam) - math.log(float(table.totals.max()) + lam)
    if log_p < _LOG_SMALLEST:
        raise ValueError(
            f"lambda {lam} is too small for these counts: "
            "unseen values would get probability 0"
        )


def empty_model(grid: GridSpec, k: int = 4, lam: float = 1.0) -> ContextModel:
    """A model with no counts; every prediction is uniform."""
    _check_params(k, lam)
    return ContextModel(k, lam, grid, (CountTable.empty(),) * (k + 1), 0)


def train(corpus: Sequence[EventSequence], k: int, lam: float = 1.0) -> ContextModel:
    """Count every event of every sequence under context lengths 0..min(k, t).

    The events are numbered among the corpus's distinct events and then
    dropped; only the distinct events are hashed, and each length's table
    is counted by _count_table from the numbers.
    """
    if not corpus:
        raise ValueError("training corpus is empty")
    _check_params(k, lam)
    grid = corpus[0].grid
    for seq in corpus:
        if seq.grid != grid:
            raise ValueError(f"mixed grids in corpus: {seq.grid} vs {grid}")
    lay = layout(grid)
    lengths = np.fromiter((len(seq) for seq in corpus), np.int64, count=len(corpus))
    n = int(lengths.sum())
    events = np.concatenate([seq.events for seq in corpus])
    # Read as uint64, a negative value is above every vocabulary size.
    if (events.view(np.uint64) >= lay.sizes.view(np.uint64)).any():
        raise ValueError(f"corpus has event values outside the vocabulary of {grid}")
    distinct, ids = _distinct_events(events, lay)
    del events
    keys = (distinct.astype(np.uint64) << np.uint64(3)) | np.arange(N_FIELDS, dtype=np.uint64)
    starts = np.cumsum(lengths) - lengths
    usable = np.ones(n, dtype=bool)
    tables = []
    for j, contexts in enumerate(_rolling_hashes(_event_hashes(distinct)[ids], k)):
        if j:
            # Event j - 1 of a sequence has fewer than j events before it.
            usable[(starts + j - 1)[lengths >= j]] = False
        tables.append(_count_table(contexts, np.flatnonzero(usable), ids, keys, lay.shift))
    model = ContextModel(k, lam, grid, tuple(tables), n)
    _check_underflow(model)
    return model


def score_sequences(
    model: ContextModel,
    arrays: Sequence[np.ndarray | Sequence[Event]],
    context_len: int,
    mode: str = "nll",
) -> list[np.ndarray]:
    """Per-event, per-field scores in nats of every stream, each (len, 6).

    Each stream is a sequence's (n, 6) event array, taken as it is, or any
    (n, 6) array-like of integers, which ``midi.as_rows`` checks. The
    streams are hashed, matched and interpolated together in one pass, so
    callers bound how many events one call holds; a context never reaches
    back into the stream before its own.

    nll mode scores the realized value, -log p(value | context); predictive
    mode scores the full predicted distribution, -sum p log p. The context
    window is the last min(k, context_len, t) events of the stream.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if context_len < 0:
        raise ValueError("context_len must be >= 0")
    kmax = min(model.k, context_len)
    streams = [as_rows(a, N_FIELDS, "event") for a in arrays]
    if not streams:
        return []
    lengths = np.array([len(s) for s in streams], dtype=np.int64)
    events = np.concatenate(streams)
    firsts = np.cumsum(lengths) - lengths
    avail = np.minimum(np.arange(len(events)) - np.repeat(firsts, lengths), kmax)
    hashes = np.stack(list(_rolling_hashes(_event_hashes(events), kmax)))
    chains = _match(model, hashes, avail)
    if mode == "nll":
        out = -np.log(_interpolate(model, chains, events))
    else:
        out = _entropies(model, chains)
    return np.split(out, np.cumsum(lengths)[:-1])


def score_sequence(
    model: ContextModel,
    events: np.ndarray | Sequence[Event],
    context_len: int,
    mode: str = "nll",
) -> np.ndarray:
    """score_sequences of one stream: its scores, shape (len(events), 6)."""
    return score_sequences(model, [events], context_len, mode)[0]


@dataclass(frozen=True, slots=True)
class GenerationResult:
    sequence: EventSequence
    sampled_notes: tuple[QuantNote, ...]  # in canonical order
    # context_depths[j]: the steps whose longest context found in the model
    # has j events, for j = 0..k; 0 also counts the steps of a model with no
    # counts, which samples from the uniform distribution.
    context_depths: tuple[int, ...]


def _validate_prime(prime: EventSequence, grid: GridSpec) -> np.ndarray:
    """The events generation continues from, or SequenceStructureError.

    A prime is a valid sequence on grid without its end event, and
    optionally without its start-of-notes. A trailing end event is dropped,
    start-of-notes is added after a final instrument event, and the events,
    with an end event appended, must pass validate_sequence; its error, if
    any, is raised.
    """
    events = prime.events
    if len(events) and events[-1, 0] == TYPE_END:
        events = events[:-1]
    if len(events) and events[-1, 0] == TYPE_INSTRUMENT:
        events = np.vstack([events, [TYPE_NOTES_BEGIN, 0, 0, 0, 0, 0]])
    validate_sequence(EventSequence(np.vstack([events, [TYPE_END, 0, 0, 0, 0, 0]]), grid))
    return events


def _cdfs(probs: np.ndarray, lay: Layout) -> np.ndarray:
    """The cumulative sums _draw compares draws with, one row per distribution.

    probs holds each row's whole distributions side by side. Fields 1..5
    are copied out side by side, at the layout's spans, and duration 0 is
    zeroed; each field is divided by its sum, summed cumulatively and
    divided by its last sum: shape (len(probs), the width of fields 1..5). Each
    field's sums never decrease: the terms are not negative, the last sum
    is positive and rounding is monotone. The five sums and the five
    cumulative sums are one numpy call per field; each division is one.
    """
    cdfs = probs[:, lay.starts[1] : lay.width].copy()
    cdfs[:, lay.spans[3][0]] = 0.0  # a note cannot have duration zero
    sums = np.empty((len(cdfs), len(lay.spans)))
    # The ufuncs themselves, not sum and cumsum, whose wrappers cost as
    # much as a field's work.
    for f, (lo, hi) in enumerate(lay.spans):
        np.add.reduce(cdfs[:, lo:hi], axis=1, out=sums[:, f])
    cdfs /= sums.repeat(lay.sizes[1:], axis=1)
    for lo, hi in lay.spans:
        np.add.accumulate(cdfs[:, lo:hi], axis=1, out=cdfs[:, lo:hi])
    cdfs /= cdfs.take(lay.lasts, axis=1).repeat(lay.sizes[1:], axis=1)
    return cdfs


def _draw(
    row: Sequence[float], spans: Sequence[tuple[int, int]], draws: Sequence[float]
) -> list[int]:
    """A note's fields 1..5 from one _cdfs row, with draws[f - 1].

    Each value is found the way numpy's Generator.choice(n, p=vec) finds it
    from the same draw: the number of normalised cumulative sums that do
    not exceed the draw, which bisect_right counts, as they never decrease.
    """
    return [bisect_right(row, u, lo, hi) - lo for (lo, hi), u in zip(spans, draws)]


def generate_many(
    model: ContextModel,
    primes: Sequence[EventSequence],
    steps: int,
    seeds: Sequence[int],
) -> list[GenerationResult | SequenceStructureError]:
    """generate for every prime, stepping all primes together.

    Each prime's uniforms, one per field and step, are drawn from its own
    generator up front, in the order generate draws them, so each result
    equals generate(model, primes[i], steps, seeds[i]). A step's state is
    Python scalars: each prime's context hashes, moved on by the event it
    sampled with _push, and its back-off chain, found with one bisect per
    context length from 1 on, stopping at the first miss. A chain's
    sampling row depends on the chain alone; the rows of the chains a step
    meets first are built together, by _dense_blocks from the chain tuples
    as the step finds them and then _cdfs, and kept up to
    _SAMPLE_CACHE_BYTES: when the kept rows and the step's new ones would
    pass it, every kept row is dropped and the step's chains are built
    anew. Each field is drawn with one bisect of its row. Each prime is
    checked on the model's grid by _validate_prime, and one that is not a
    valid sequence without its end event (off the grid, out of order, with
    an undeclared instrument, or malformed) gets validate_sequence's
    SequenceStructureError in place of a result; an error that concerns
    every prime (steps < 0) is raised.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if len(seeds) != len(primes):
        raise ValueError(f"{len(primes)} primes but {len(seeds)} seeds")
    prefixes: list[np.ndarray | SequenceStructureError] = []
    for prime in primes:
        try:
            prefixes.append(_validate_prime(prime, model.grid))
        except SequenceStructureError as exc:
            prefixes.append(exc)
    live = [i for i, p in enumerate(prefixes) if isinstance(p, np.ndarray)]
    k = model.k
    sampled: list[list[list[int]]] = [[] for _ in live]
    # depths[b][j]: prime b's steps whose chain found lengths 1..j and no more.
    depths = [[0] * (k + 1) for _ in live]
    if live and steps:
        draws = [
            np.random.default_rng(seeds[i]).random((steps, N_FIELDS - 1)).tolist() for i in live
        ]
        # ctx[b]: the hashes of prime b's last 1..min(k, t) events, ints.
        ctx = [_last_hashes(prefixes[i], k) for i in live]
        # views[j - 1] reads table j's context hashes as ints, in native byte order.
        views = [memoryview(t.contexts.astype(np.uint64, copy=False)) for t in model.tables[1:]]
        lay = model.layout
        spans = lay.spans
        limit = max(1, _SAMPLE_CACHE_BYTES // (8 * spans[-1][1]))
        # A chain is its entries at lengths 1.. up to its first miss.
        rows: dict[tuple[int, ...], memoryview] = {}
        for step in range(steps):
            chains = []
            for b, h in enumerate(ctx):
                found = []
                for view, x in zip(views, h):
                    at = bisect_left(view, x)
                    if at == len(view) or view[at] != x:
                        break
                    found.append(at)
                chains.append(tuple(found))
                depths[b][len(found)] += 1
            new = list(dict.fromkeys(c for c in chains if c not in rows))
            if len(rows) + len(new) > limit:
                rows.clear()
                new = list(dict.fromkeys(chains))
            for block, probs in _dense_blocks(model, new):
                rows.update(zip(new[block], map(memoryview, _cdfs(probs, lay))))
            for b, c in enumerate(chains):
                values = _draw(rows[c], spans, draws[b][step])
                sampled[b].append(values)
                ctx[b] = _push(ctx[b], _fold(_NOTE_STATE, values), k)
    results: list[GenerationResult | SequenceStructureError] = list(prefixes)
    for b, i in enumerate(live):
        if not steps:
            end = np.vstack([prefixes[i], [TYPE_END, 0, 0, 0, 0, 0]])
            results[i] = GenerationResult(EventSequence(end, model.grid), (), tuple(depths[b]))
            continue
        events = prefixes[i]
        notes = np.vstack([events[events[:, 0] == TYPE_NOTE, 1:], sampled[b]])
        # Python integers, not numpy ones, in the notes callers print.
        new = tuple(sorted(map(QuantNote._make, sampled[b])))
        results[i] = GenerationResult(encode([notes], model.grid), new, tuple(depths[b]))
    return results


def generate(
    model: ContextModel, prime: EventSequence, steps: int, seed: int
) -> GenerationResult:
    """Sample `steps` note events after the prime, then close the sequence.

    Every sampled event is forced to be a note (durations resample away
    from zero); the finished sequence is re-canonicalized so downstream
    consumers see a valid encoding. With steps == 0 the prime itself is
    returned, terminated.
    """
    (result,) = generate_many(model, [prime], steps, [seed])
    if isinstance(result, SequenceStructureError):
        raise result
    return result


def _file_parts(model: ContextModel) -> Iterable[bytes | np.ndarray]:
    """The model file in order, one table at a time: the magic and header,
    then each table's file_parts."""
    grid = model.grid
    shift = model.layout.shift
    yield MAGIC + _HEADER.pack(
        FORMAT_VERSION,
        model.k,
        model.lam,
        grid.resolution,
        grid.max_beat,
        grid.max_duration,
        model.trained_events,
    )
    for table in model.tables:
        yield from table.file_parts(shift)


def save_model(model: ContextModel) -> bytes:
    """Serialize to a fixed little-endian layout, keys sorted for stability."""
    return b"".join(_file_parts(model))


def _words(data: _Buffer, start: int) -> Sequence[int]:
    """The whole little-endian 32-bit words of data from start on, as ints."""
    stop = start + (len(data) - start) // 4 * 4
    if sys.byteorder == "little":
        return memoryview(data)[start:stop].cast("I")
    words = array.array("I", data[start:stop])
    words.byteswap()
    return words


def _read_table(data: _Buffer, offset: int, lay: Layout) -> tuple[CountTable, int]:
    """One table from offset on, on a grid of layout lay, and the offset after it.

    Raises struct.error where the data ends early and ValueError where the
    table is not one that save_model writes. Besides the arrays it keeps,
    the table is built with about one whole-table temporary at a time: the
    copied entry records go before the pair records are copied, and the
    pair records before the per-field sums are taken.
    """
    shift, known = lay.shift, lay.known
    (n,) = _TABLE_SIZE.unpack_from(data, offset)
    start = offset + _TABLE_SIZE.size
    ints = _words(data, start)
    # Walk the entry heads: the last word of a head is its pair count. A
    # head takes _ENTRY_WORDS words, so the data holds at most
    # len(ints) // _ENTRY_WORDS of them and a walk that reads one more
    # stops at IndexError: the list is never longer, however large n is.
    heads = [0] * min(n, len(ints) // _ENTRY_WORDS + 1)
    at, last = 0, _ENTRY_WORDS - 1
    try:
        for i in range(len(heads)):
            heads[i] = at
            at += _ENTRY_WORDS + _PAIR_WORDS * ints[at + last]
    except IndexError:
        needed = start + 4 * (at + _ENTRY_WORDS)
        raise struct.error(f"table needs {needed} bytes, file has {len(data)}") from None
    offset = start + 4 * at
    if offset > len(data):
        raise struct.error(f"table needs {offset} bytes, file has {len(data)}")
    heads = np.array(heads, dtype=np.int64)  # the walk's ints go before the arrays come
    words = np.frombuffer(data, dtype="<u4", count=at, offset=start)
    is_head = _head_mask(at, heads)
    head = words[is_head].view(_ENTRY)
    contexts = np.ascontiguousarray(head["context"])
    totals = np.ascontiguousarray(head["total"])
    lengths = head["pairs"].astype(np.int64)
    del head
    np.logical_not(is_head, out=is_head)
    body = words[is_head].view(_PAIR)
    del is_head
    counts = np.ascontiguousarray(body["count"])
    if np.any(contexts[1:] <= contexts[:-1]):
        raise ValueError("context hashes are not strictly ascending")
    if np.any(totals == 0) or np.any(counts == 0):
        raise ValueError("a total or a count is 0")
    if not known[np.minimum(body["key"], np.uint64(len(known) - 1))].all():
        raise ValueError("a key is outside the vocabulary")
    codes = np.repeat(np.arange(len(heads), dtype=np.uint64) << np.uint64(shift), lengths)
    codes |= body["key"]
    del body
    if np.any(codes[1:] <= codes[:-1]):
        raise ValueError("keys are not strictly ascending within an entry")
    if len(counts) and counts.max() > _MASK64 // len(counts):
        raise ValueError("counts too large to sum")
    # Each pair's place among its entry's field sums: entry * N_FIELDS + field.
    place = codes >> np.uint64(shift)
    place *= np.uint64(N_FIELDS)
    place += codes & np.uint64(7)
    sums = np.zeros(len(heads) * N_FIELDS, dtype=np.uint64)
    np.add.at(sums, place.view(np.int64), counts)
    if np.any(sums.reshape(-1, N_FIELDS) != totals[:, None]):
        raise ValueError("per-field counts do not sum to the entry total")
    return CountTable.build(contexts, totals, lengths, codes, counts), offset


def load_model(data: _Buffer) -> ContextModel:
    """Parse a model file from any bytes-like buffer (bytes, a memoryview, an
    mmap); a file save_model could not have written raises ValueError.

    Every array the model keeps is a copy, so the model never holds on to
    data.
    """
    if data[:4] != MAGIC:
        raise ValueError("not a model file (bad magic)")
    offset = 4
    try:
        version, k, lam, res, max_beat, max_dur, trained = _HEADER.unpack_from(data, offset)
    except struct.error as exc:
        raise ValueError(f"truncated model header: {exc}") from None
    offset += _HEADER.size
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model version {version}")
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(f"invalid lambda {lam}")
    try:
        grid = GridSpec(res, max_beat, max_dur)
    except ValueError as exc:
        raise ValueError(f"invalid grid in model header: {exc}") from None
    lay = layout(grid)
    tables: list[CountTable] = []
    error = None
    try:
        for j in range(k + 1):
            table, offset = _read_table(data, offset, lay)
            tables.append(table)
    except struct.error as exc:
        error = f"truncated model tables: {exc}"
    except ValueError as exc:
        error = f"model table {j}: {exc}"
    # Raised once the handler has dropped the caught error, whose traceback
    # holds _read_table's views of data: a mapped file can then be closed.
    if error is not None:
        raise ValueError(error)
    if offset != len(data):
        raise ValueError(f"{len(data) - offset} trailing bytes after model tables")
    root = tables[0]
    if not len(root):
        if trained or any(len(t) for t in tables):
            raise ValueError("table 0 is empty but the model holds counts")
    elif len(root) != 1 or root.contexts[0] != 0:
        raise ValueError("table 0 must hold exactly the empty context")
    elif int(root.totals[0]) != trained:
        raise ValueError(
            f"trained_events {trained} differs from the table 0 total {root.totals[0]}"
        )
    model = ContextModel(k, lam, grid, tuple(tables), trained)
    _check_underflow(model)
    # Only canonical files load, so these bytes are what save_model writes.
    object.__setattr__(model, "_fingerprint", hashlib.blake2b(data, digest_size=8).hexdigest())
    return model


def save_model_file(model: ContextModel, path: str | os.PathLike) -> None:
    """Write save_model's bytes to path, one table at a time, never joined.

    The parts go to a temporary file beside path, which then replaces it:
    when writing fails, the temporary file is removed and an existing file
    at path is left as it was.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            # writelines drops each part before it fetches the next.
            fh.writelines(_file_parts(model))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_model_file(path: str | os.PathLike) -> ContextModel:
    """load_model of the file at path. A non-empty regular file is mapped
    read-only, not read into memory; anything else (an empty file, a pipe)
    is read whole."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not (stat.S_ISREG(info.st_mode) and info.st_size):
            return load_model(fh.read())
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
            return load_model(data)
