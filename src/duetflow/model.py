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
counts. Training counts with sorts over whole-corpus arrays. Prediction
is two steps over many positions at once: ``_match`` finds each
position's back-off chain, its matched entry at every context length, with
one binary search per length, and ``_interpolate`` turns chains into
probabilities. Scoring runs them over whole batches of streams (predictive
scoring builds each distinct chain's distributions once), and generation
over all primes in lockstep. The file format writes the same arrays entry
by entry, and ``load_model`` accepts only files that ``save_model`` could
have written.
"""
from __future__ import annotations

import hashlib
import math
import os
import struct
import sys
from dataclasses import dataclass, field
from itertools import chain
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
    TYPE_START,
    SequenceStructureError,
    encode,
    vocab_sizes,
)
from .grid import GridSpec
from .midi import QuantNote

_MASK64 = (1 << 64) - 1
_CTX_MULT = 0x100000001B3
_FIELD_SEED = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB

MAGIC = b"DFM1"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<HIdIIIQ")
_TABLE_SIZE = struct.Struct("<Q")
_ENTRY_HEAD = struct.Struct("<QQI")
# One entry record on disk: context hash, total, pair count; then its pairs.
_ENTRY = np.dtype([("context", "<u8"), ("total", "<u8"), ("pairs", "<u4")])
_PAIR = np.dtype([("key", "<u8"), ("count", "<u8")])
_ENTRY_WORDS = _ENTRY.itemsize // 4
_PAIR_WORDS = _PAIR.itemsize // 4

_HASH_CHUNK = 1 << 14  # events hashed per numpy pass
_SCORE_CHUNK = 1 << 13  # positions per match-and-interpolate pass when scoring
_DENSE_ROWS = 256  # whole distributions built per pass
# Most values one row of whole distributions may hold, all fields together;
# the default grid needs 1,394. Wider grids are refused before allocating.
_DENSE_WIDTH = 1 << 16
_LOG_SMALLEST = math.log(sys.float_info.min)


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX_1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_2) & _MASK64
    return x ^ (x >> 31)


def event_hash(e: Event) -> int:
    h = _FIELD_SEED
    for v in e:
        # int() guards against numpy integers, which overflow the xor below.
        h = _mix64(h ^ (int(v) + _FIELD_SEED))
    return h


def _event_hashes(events: np.ndarray) -> np.ndarray:
    """event_hash of every row of an (n, 6) integer array, in wrapping uint64."""
    seed = np.uint64(_FIELD_SEED)
    out = np.empty(len(events), dtype=np.uint64)
    for start in range(0, len(events), _HASH_CHUNK):
        rows = events[start : start + _HASH_CHUNK].astype(np.uint64)
        rows += seed
        h = np.full(len(rows), seed)
        for f in range(N_FIELDS):
            h ^= rows[:, f]
            h ^= h >> np.uint64(30)
            h *= np.uint64(_MIX_1)
            h ^= h >> np.uint64(27)
            h *= np.uint64(_MIX_2)
            h ^= h >> np.uint64(31)
        out[start : start + len(rows)] = h
    return out


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


def _key_shift(grid: GridSpec) -> int:
    """Bits that hold any key (value * 8 + field) of this grid's vocabulary."""
    return (8 * max(vocab_sizes(grid)) - 1).bit_length()


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
    key) pair; counts holds the count of each pair.
    """

    contexts: np.ndarray  # uint64
    totals: np.ndarray  # uint64
    offsets: np.ndarray  # int64, one more than contexts
    codes: np.ndarray  # uint64
    counts: np.ndarray  # uint64
    shift: int

    @classmethod
    def build(cls, contexts, totals, codes, counts, shift: int) -> CountTable:
        bounds = np.arange(len(contexts) + 1, dtype=np.uint64) << np.uint64(shift)
        return cls(contexts, totals, np.searchsorted(codes, bounds), codes, counts, shift)

    @classmethod
    def empty(cls, shift: int) -> CountTable:
        none = np.zeros(0, dtype=np.uint64)
        return cls.build(none, none, none, none, shift)

    def __len__(self) -> int:
        return len(self.contexts)

    def keys(self, pairs: slice | np.ndarray = slice(None)) -> np.ndarray:
        """The keys (value * 8 + field) of the given pairs."""
        return self.codes[pairs] & np.uint64((1 << self.shift) - 1)

    def find(self, hashes: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows whose context hash is in this table, and their entries."""
        if not len(self.contexts):
            return rows[:0], rows[:0]
        entries = np.searchsorted(self.contexts, hashes)
        np.minimum(entries, len(self.contexts) - 1, out=entries)
        hit = self.contexts[entries] == hashes
        return rows[hit], entries[hit]

    def point_counts(
        self, entries: np.ndarray, values: np.ndarray, vocab: np.ndarray
    ) -> np.ndarray:
        """Count of values[i, f] under entries[i], shape (len(entries), 6)."""
        known = (values >= 0) & (values < vocab)
        keys = np.where(known, values * 8 + np.arange(N_FIELDS), 0).astype(np.uint64)
        codes = (entries.astype(np.uint64)[:, None] << np.uint64(self.shift)) | keys
        at = np.searchsorted(self.codes, codes)
        np.minimum(at, len(self.codes) - 1, out=at)
        hit = known & (self.codes[at] == codes)
        return np.where(hit, self.counts[at], 0).astype(np.float64)

    def dense_counts(self, entries: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
        """Counts under entries[i] as rows of all fields' values side by side."""
        first = self.offsets[entries]
        lengths = self.offsets[entries + 1] - first
        owner = np.repeat(np.arange(len(entries)), lengths)
        skip = np.repeat(first - np.cumsum(lengths) + lengths, lengths)
        pairs = np.arange(len(owner)) + skip
        keys = self.keys(pairs).astype(np.int64)
        dense = np.zeros((len(entries), width))
        dense[owner, starts[keys & 7] + (keys >> 3)] = self.counts[pairs]
        return dense

    def file_parts(self) -> tuple[bytes, np.ndarray]:
        """This table in the file layout: its size, then entry by entry."""
        n = len(self.contexts)
        heads = np.empty(n, dtype=_ENTRY)
        heads["context"] = self.contexts
        heads["total"] = self.totals
        heads["pairs"] = np.diff(self.offsets)
        pairs = np.empty(len(self.codes), dtype=_PAIR)
        pairs["key"] = self.keys()
        pairs["count"] = self.counts
        words = np.empty(n * _ENTRY_WORDS + len(pairs) * _PAIR_WORDS, dtype="<u4")
        first = np.arange(n) * _ENTRY_WORDS + self.offsets[:-1] * _PAIR_WORDS
        is_head = _head_mask(len(words), first)
        words[is_head] = heads.view("<u4")
        words[~is_head] = pairs.view("<u4")
        return _TABLE_SIZE.pack(n), words


def _count_table(
    contexts: np.ndarray, rows: np.ndarray, events: np.ndarray, shift: int
) -> CountTable:
    """Count events[rows] under contexts[rows], one field at a time.

    Per-event arrays are dropped as soon as they are used up, so training
    holds only a few of them at once.
    """
    if not len(rows):
        return CountTable.empty(shift)
    hashes = contexts[rows]
    order = np.argsort(hashes)
    rows = rows[order]
    hashes = hashes[order]
    del order
    first = np.concatenate(([True], hashes[1:] != hashes[:-1]))
    unique = hashes[first]
    del hashes
    totals = np.diff(np.flatnonzero(first), append=len(first)).astype(np.uint64)
    entry = np.cumsum(first, dtype=np.uint64)
    entry -= np.uint64(1)
    entry <<= np.uint64(shift)
    codes, counts = [], []
    for f in range(N_FIELDS):
        code = events[rows, f].astype(np.uint64)
        code <<= np.uint64(3)
        code |= entry
        code |= np.uint64(f)
        code.sort()
        runs = np.flatnonzero(np.concatenate(([True], code[1:] != code[:-1])))
        codes.append(code[runs])
        counts.append(np.diff(runs, append=len(code)))
    codes = np.concatenate(codes)
    order = np.argsort(codes)
    counts = np.concatenate(counts)[order].astype(np.uint64)
    return CountTable.build(unique, totals, codes[order], counts, shift)


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


@dataclass(eq=False)
class ContextModel:
    k: int
    lam: float
    grid: GridSpec
    # tables[j]: counts under context length j, as sorted arrays (CountTable)
    tables: list[CountTable]
    trained_events: int = 0
    _fingerprint: str | None = field(default=None, repr=False, compare=False)

    @property
    def vocab(self) -> tuple[int, ...]:
        return vocab_sizes(self.grid)

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = hashlib.blake2b(save_model(self), digest_size=8).hexdigest()
        return self._fingerprint

    def predict_next(self, context: Sequence[Event] | np.ndarray) -> FieldDistributions:
        """Distributions over the next event's fields given trailing context."""
        try:
            events = np.asarray(context, dtype=np.int64).reshape(len(context), N_FIELDS)
        except OverflowError:
            raise ValueError("context values must be integers that fit in int64") from None
        tails, avail = _tails(self.k, [events])
        probs = _interpolate(self, _match(self, _tail_hashes(tails), avail))[0]
        ends = np.cumsum(self.vocab)
        return FieldDistributions(
            tuple(probs[end - size : end] for size, end in zip(self.vocab, ends))
        )


def _tails(k: int, contexts: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The event hashes of each context's last k events, and how many there are.

    The hashes are right-aligned in a (len(contexts), k) array; a context
    shorter than k leaves zeros on the left, which no usable length reaches.
    They come from the scalar event_hash: numpy calls cost more than they
    save on k events.
    """
    tails = np.zeros((len(contexts), k), dtype=np.uint64)
    avail = np.array([min(k, len(c)) for c in contexts], dtype=np.int64)
    for b, (events, n) in enumerate(zip(contexts, avail)):
        if n:
            tails[b, k - n :] = [event_hash(e) for e in events[len(events) - n :].tolist()]
    return tails, avail


def _tail_hashes(tails: np.ndarray) -> np.ndarray:
    """Context hashes of lengths 0..k after right-aligned tails, shape (k + 1, B).

    The sums _rolling_hashes builds, term by term: the event i places back
    weighs _CTX_MULT ** (i - 1), in wrapping uint64.
    """
    k = tails.shape[1]
    powers = np.array([pow(_CTX_MULT, i, 1 << 64) for i in range(k)], dtype=np.uint64)
    hashes = np.zeros((k + 1, len(tails)), dtype=np.uint64)
    hashes[1:] = np.cumsum(tails[:, ::-1] * powers, axis=1).T
    return hashes


def _match(model: ContextModel, hashes: np.ndarray, avail: np.ndarray) -> np.ndarray:
    """The entry each position matches at every context length, the back-off chain.

    hashes[j, i] is the hash of the j events before position i, usable for
    j <= avail[i]. Lengths are matched upward with one binary search each.
    The result has shape (m, len(hashes)): chains[i, j] is the entry of
    table j for position i, and -1 from its first unusable or unseen length
    on. Positions with equal chains get equal predictions.
    """
    chains = np.full((hashes.shape[1], hashes.shape[0]), -1, dtype=np.int64)
    rows = np.arange(hashes.shape[1])
    for j in range(hashes.shape[0]):
        rows = rows[avail[rows] >= j]
        rows, entries = model.tables[j].find(hashes[j, rows], rows)
        if not len(rows):
            break
        chains[rows, j] = entries
    return chains


def _interpolate(
    model: ContextModel, chains: np.ndarray, values: np.ndarray | None = None
) -> np.ndarray:
    """Interpolated probabilities along back-off chains, from _match.

    From the uniform distribution, each matched length j in ascending order
    scales by lambda / (total + lambda) and adds counts / (total + lambda).
    With values, an (m, 6) array of realized events, the result is the
    probability of values[i, f], shape (m, 6); without, the whole
    distribution of every field side by side, shape (m, sum(vocab)), which
    a grid with more than _DENSE_WIDTH values in all may not ask for.
    """
    vocab = np.array(model.vocab)
    if values is None:
        width = int(vocab.sum())
        if width > _DENSE_WIDTH:
            raise ValueError(
                f"grid {model.grid} has {width} values per distribution, "
                f"more than the {_DENSE_WIDTH} whole distributions may hold"
            )
        sizes = np.repeat(vocab, vocab)
    else:
        sizes = vocab
    starts = np.cumsum(vocab) - vocab
    probs = np.tile(1.0 / sizes, (len(chains), 1))
    lam = model.lam
    rows = np.arange(len(chains))
    for j in range(chains.shape[1]):
        rows = rows[chains[rows, j] >= 0]
        if not len(rows):
            break
        table = model.tables[j]
        entries = chains[rows, j]
        denom = table.totals[entries].astype(np.float64)[:, None] + lam
        if values is None:
            counts = table.dense_counts(entries, starts, len(sizes))
        else:
            counts = table.point_counts(entries, values[rows], vocab)
        probs[rows] = probs[rows] * (lam / denom) + counts / denom
    return probs


def _dense_blocks(model: ContextModel, chains: np.ndarray) -> Iterable[tuple[slice, np.ndarray]]:
    """Whole distributions along chains, _DENSE_ROWS rows at a time."""
    for start in range(0, len(chains), _DENSE_ROWS):
        block = slice(start, start + _DENSE_ROWS)
        yield block, _interpolate(model, chains[block])


def _entropies(model: ContextModel, chains: np.ndarray) -> np.ndarray:
    """Per-field entropy of the distribution along each chain, shape (m, 6).

    Each distinct chain is built and summed once, then scattered back.
    """
    distinct, inverse = np.unique(chains, axis=0, return_inverse=True)
    out = np.empty((len(distinct), N_FIELDS))
    bounds = np.cumsum(model.vocab)[:-1]
    for block, probs in _dense_blocks(model, distinct):
        for f, vecs in enumerate(np.split(probs, bounds, axis=1)):
            out[block, f] = -(vecs * np.log(vecs)).sum(axis=1)
    return out[inverse.reshape(-1)]


def _check_params(k: int, lam: float) -> None:
    if k < 0:
        raise ValueError("k must be >= 0")
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(f"lambda must be positive and finite, got {lam}")


def _check_underflow(model: ContextModel) -> None:
    """Refuse a lambda so small that an unseen value's probability reaches 0.

    The smallest probability the kernel can produce is the uniform one
    scaled by lambda / (total + lambda) at every context length, with each
    length's largest total.
    """
    lam = model.lam
    log_p = -math.log(max(model.vocab))
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
    shift = _key_shift(grid)
    return ContextModel(k, lam, grid, [CountTable.empty(shift) for _ in range(k + 1)], 0)


def train(corpus: Sequence[EventSequence], k: int, lam: float = 1.0) -> ContextModel:
    """Count every event of every sequence under context lengths 0..min(k, t)."""
    if not corpus:
        raise ValueError("training corpus is empty")
    _check_params(k, lam)
    grid = corpus[0].grid
    for seq in corpus:
        if seq.grid != grid:
            raise ValueError(f"mixed grids in corpus: {seq.grid} vs {grid}")
    vocab = vocab_sizes(grid)
    lengths = np.fromiter((len(seq) for seq in corpus), np.int64, count=len(corpus))
    n = int(lengths.sum())
    events = np.concatenate([seq.events for seq in corpus])
    if np.any((events < 0) | (events >= np.array(vocab))):
        raise ValueError(f"corpus has event values outside the vocabulary of {grid}")
    if max(vocab) <= np.iinfo(np.int16).max:
        events = events.astype(np.int16)
    starts = np.cumsum(lengths) - lengths
    usable = np.ones(n, dtype=bool)
    shift = _key_shift(grid)
    tables = []
    for j, contexts in enumerate(_rolling_hashes(_event_hashes(events), k)):
        if j:
            # Event j - 1 of a sequence has fewer than j events before it.
            usable[(starts + j - 1)[lengths >= j]] = False
        tables.append(_count_table(contexts, np.flatnonzero(usable), events, shift))
    model = ContextModel(k, lam, grid, tables, n)
    _check_underflow(model)
    return model


def predict_next(model: ContextModel, context: Sequence[Event]) -> FieldDistributions:
    return model.predict_next(context)


def score_sequences(
    model: ContextModel,
    arrays: Sequence[np.ndarray | Sequence[Event]],
    context_len: int,
    mode: str = "nll",
) -> list[np.ndarray]:
    """Per-event, per-field scores in nats of every stream, each (len, 6).

    Each stream is a sequence's (n, 6) event array, or anything np.asarray
    turns into one. The streams are hashed and matched together, at most
    _SCORE_CHUNK positions per pass, and a context never reaches back into
    the stream before its own.

    nll mode scores the realized value, -log p(value | context); predictive
    mode scores the full predicted distribution, -sum p log p. The context
    window is the last min(k, context_len, t) events of the stream.
    """
    if mode not in ("nll", "predictive"):
        raise ValueError(f"unknown mode {mode!r}")
    if context_len < 0:
        raise ValueError("context_len must be >= 0")
    kmax = min(model.k, context_len)
    streams = [np.asarray(a, dtype=np.int64).reshape(len(a), N_FIELDS) for a in arrays]
    lengths = np.array([len(s) for s in streams], dtype=np.int64)
    events = np.concatenate(streams) if streams else np.zeros((0, N_FIELDS), np.int64)
    firsts = np.cumsum(lengths) - lengths
    avail = np.minimum(np.arange(len(events)) - np.repeat(firsts, lengths), kmax)
    out = np.empty((len(events), N_FIELDS))
    for start in range(0, len(events), _SCORE_CHUNK):
        stop = start + _SCORE_CHUNK
        # The kmax events before the chunk complete its first contexts.
        lead = min(start, kmax)
        rolling = _rolling_hashes(_event_hashes(events[start - lead : stop]), kmax)
        hashes = np.stack([h[lead:] for h in rolling])
        chains = _match(model, hashes, avail[start:stop])
        if mode == "nll":
            out[start:stop] = -np.log(_interpolate(model, chains, events[start:stop]))
        else:
            out[start:stop] = _entropies(model, chains)
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
    sampled_notes: tuple[QuantNote, ...]


def _validate_prime(prime: EventSequence) -> np.ndarray:
    """The events generation continues from, or SequenceStructureError.

    A prime is a sequence prefix: the start event, instrument events, then
    optionally start-of-notes and notes. A trailing end event is dropped,
    and start-of-notes is added to a prime that stops after its header.
    """
    events = prime.events
    if len(events) and events[-1, 0] == TYPE_END:
        events = events[:-1]
    # The type each event must have after the run of instrument events
    # that follows the start: start-of-notes, then notes.
    others = events[1:, 0] != TYPE_INSTRUMENT
    header = int(others.argmax()) if others.any() else len(others)
    expected = np.full(len(events), TYPE_NOTE)
    expected[:1] = TYPE_START
    expected[1 : header + 1] = TYPE_INSTRUMENT
    expected[header + 1 : header + 2] = TYPE_NOTES_BEGIN if header else TYPE_INSTRUMENT
    wrong = events[:, 0] != expected
    if len(events) and events[0].any():
        raise SequenceStructureError("prime must open with the start event", 0)
    if wrong.any():
        raise SequenceStructureError("prime is not a valid sequence prefix", int(wrong.argmax()))
    if len(events) <= 1:
        raise SequenceStructureError("prime header is incomplete", len(events))
    if len(events) == header + 1:
        events = np.vstack([events, [TYPE_NOTES_BEGIN, 0, 0, 0, 0, 0]])
    return events


def _sample(probs: np.ndarray, vocab: Sequence[int], draws: np.ndarray) -> np.ndarray:
    """A note's fields 1..5 from whole distributions, one row per prime.

    probs holds each row's distributions side by side, and draws[i, f - 1]
    the uniform draw for field f. Each field is normalised, with duration 0
    left out, and its value found the way numpy's Generator.choice(n, p=vec)
    finds it from the same draw: the number of normalised cumulative sums
    that do not exceed the draw.
    """
    ends = np.cumsum(vocab)
    out = np.empty((len(probs), N_FIELDS - 1), dtype=np.int64)
    for f in range(1, N_FIELDS):
        vecs = probs[:, ends[f] - vocab[f] : ends[f]]
        if f == 4:
            vecs = vecs.copy()
            vecs[:, 0] = 0.0  # a note cannot have duration zero
        cdf = (vecs / vecs.sum(axis=1, keepdims=True)).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        out[:, f - 1] = (cdf <= draws[:, f - 1 : f]).sum(axis=1)
    return out


def generate_many(
    model: ContextModel,
    primes: Sequence[EventSequence],
    steps: int,
    seeds: Sequence[int],
) -> list[GenerationResult | SequenceStructureError]:
    """generate for every prime, stepping all primes together.

    Each step hashes only the events sampled in the step before, matches
    every prime's context and interpolates in one call, and draws one
    uniform per field from each prime's own generator, so each result
    equals generate(model, primes[i], steps, seeds[i]). A prime that is not
    a valid prefix gets its SequenceStructureError in place of a result;
    an error that concerns every prime (steps < 0, a grid too wide for
    whole distributions) is raised.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if len(seeds) != len(primes):
        raise ValueError(f"{len(primes)} primes but {len(seeds)} seeds")
    prefixes: list[np.ndarray | SequenceStructureError] = []
    for prime in primes:
        try:
            prefixes.append(_validate_prime(prime))
        except SequenceStructureError as exc:
            prefixes.append(exc)
    live = [i for i, p in enumerate(prefixes) if isinstance(p, np.ndarray)]
    sampled = np.zeros((len(live), steps, N_FIELDS), dtype=np.int64)
    sampled[:, :, 0] = TYPE_NOTE
    if live and steps:
        rngs = [np.random.default_rng(seeds[i]) for i in live]
        tails, avail = _tails(model.k, [prefixes[i] for i in live])
        for step in range(steps):
            chains = _match(model, _tail_hashes(tails), avail)
            draws = np.array([rng.random(N_FIELDS - 1) for rng in rngs])
            for block, probs in _dense_blocks(model, chains):
                sampled[block, step, 1:] = _sample(probs, model.vocab, draws[block])
            if model.k:
                tails[:, :-1] = tails[:, 1:]
                tails[:, -1] = [event_hash(e) for e in sampled[:, step].tolist()]
                np.minimum(avail + 1, model.k, out=avail)
    results: list[GenerationResult | SequenceStructureError] = list(prefixes)
    for b, i in enumerate(live):
        if not steps:
            end = np.vstack([prefixes[i], [TYPE_END, 0, 0, 0, 0, 0]])
            results[i] = GenerationResult(EventSequence(end, primes[i].grid), ())
            continue
        rows = np.vstack([prefixes[i], sampled[b]])
        notes = [QuantNote(*n) for n in rows[rows[:, 0] == TYPE_NOTE, 1:].tolist()]
        new = tuple(sorted(QuantNote(*n) for n in sampled[b, :, 1:].tolist()))
        results[i] = GenerationResult(encode([notes], model.grid), new)
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


def save_model(model: ContextModel) -> bytes:
    """Serialize to a fixed little-endian layout, keys sorted for stability."""
    grid = model.grid
    header = _HEADER.pack(
        FORMAT_VERSION,
        model.k,
        model.lam,
        grid.resolution,
        grid.max_beat,
        grid.max_duration,
        model.trained_events,
    )
    return b"".join([MAGIC, header, *chain.from_iterable(t.file_parts() for t in model.tables)])


def _read_table(
    data: bytes, offset: int, shift: int, vocab: tuple[int, ...]
) -> tuple[CountTable, int]:
    """One table from offset on, and the offset after it.

    Raises struct.error where the data ends early and ValueError where the
    table is not one that save_model writes.
    """
    (n,) = _TABLE_SIZE.unpack_from(data, offset)
    offset += _TABLE_SIZE.size
    start = offset
    heads = []
    for _ in range(n):
        heads.append(offset)
        pairs = _ENTRY_HEAD.unpack_from(data, offset)[2]
        offset += _ENTRY_HEAD.size + pairs * _PAIR.itemsize
    if offset > len(data):
        raise struct.error(f"table needs {offset} bytes, file has {len(data)}")
    if not heads:
        return CountTable.empty(shift), offset
    if len(heads) >= 1 << (64 - shift):
        raise ValueError("more entries than keys can be coded for this grid")
    words = np.frombuffer(data, dtype="<u4", count=(offset - start) // 4, offset=start)
    is_head = _head_mask(len(words), (np.array(heads) - start) // 4)
    head = words[is_head].view(_ENTRY)
    body = words[~is_head].view(_PAIR)
    contexts = np.ascontiguousarray(head["context"])
    totals = np.ascontiguousarray(head["total"])
    keys = np.ascontiguousarray(body["key"])
    counts = np.ascontiguousarray(body["count"])
    lengths = head["pairs"].astype(np.int64)
    if np.any(contexts[1:] <= contexts[:-1]):
        raise ValueError("context hashes are not strictly ascending")
    if np.any(totals == 0) or np.any(counts == 0):
        raise ValueError("a total or a count is 0")
    fields = keys & np.uint64(7)
    limits = np.array(vocab, dtype=np.uint64)[np.minimum(fields, N_FIELDS - 1)]
    if np.any(fields >= N_FIELDS) or np.any((keys >> np.uint64(3)) >= limits):
        raise ValueError("a key is outside the vocabulary")
    entry = np.repeat(np.arange(len(heads)), lengths)
    codes = (entry.astype(np.uint64) << np.uint64(shift)) | keys
    if np.any(codes[1:] <= codes[:-1]):
        raise ValueError("keys are not strictly ascending within an entry")
    if len(counts) and counts.max() > _MASK64 // len(counts):
        raise ValueError("counts too large to sum")
    sums = np.zeros(len(heads) * N_FIELDS, dtype=np.uint64)
    np.add.at(sums, entry * N_FIELDS + fields.astype(np.int64), counts)
    if np.any(sums.reshape(-1, N_FIELDS) != totals[:, None]):
        raise ValueError("per-field counts do not sum to the entry total")
    return CountTable.build(contexts, totals, codes, counts, shift), offset


def load_model(data: bytes) -> ContextModel:
    """Parse a model file; a file save_model could not have written raises ValueError."""
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
    shift = _key_shift(grid)
    tables: list[CountTable] = []
    try:
        for j in range(k + 1):
            table, offset = _read_table(data, offset, shift, vocab_sizes(grid))
            tables.append(table)
    except struct.error as exc:
        raise ValueError(f"truncated model tables: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"model table {j}: {exc}") from None
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
    model = ContextModel(k, lam, grid, tables, trained)
    _check_underflow(model)
    # Only canonical files load, so these bytes are what save_model writes.
    model._fingerprint = hashlib.blake2b(data, digest_size=8).hexdigest()
    return model


def save_model_file(model: ContextModel, path: str | os.PathLike) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(save_model(model))
    os.replace(tmp, path)


def load_model_file(path: str | os.PathLike) -> ContextModel:
    with open(path, "rb") as fh:
        return load_model(fh.read())
