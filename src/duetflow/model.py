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
counts. Training counts with sorts over whole-corpus arrays. One kernel,
``_backoff``, matches the contexts of many positions with one binary search
per context length and interpolates; nll scoring, predictive scoring and
``predict_next`` (hence ``generate``) all go through it. The file format
writes the same arrays entry by entry, and ``load_model`` accepts only files
that ``save_model`` could have written.
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
_DENSE_ROWS = 256  # positions per pass when whole distributions are built
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


def _event_array(events: Iterable[Event], n: int, dtype=np.int64) -> np.ndarray:
    """n events as an (n, 6) integer array."""
    flat = np.fromiter(chain.from_iterable(events), dtype, count=n * N_FIELDS)
    return flat.reshape(n, N_FIELDS)


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

    def predict_next(self, context: Sequence[Event]) -> FieldDistributions:
        """Distributions over the next event's fields given trailing context."""
        kmax = min(self.k, len(context))
        # The context hashes of _rolling_hashes for the one position after
        # the context, from the scalar event_hash: numpy calls cost more
        # than they save on k events.
        hashes = np.zeros((kmax + 1, 1), dtype=np.uint64)
        acc, power = 0, 1
        for j in range(1, kmax + 1):
            acc = (acc + event_hash(context[-j]) * power) & _MASK64
            power = (power * _CTX_MULT) & _MASK64
            hashes[j] = acc
        probs = _backoff(self, hashes, np.array([kmax]))[0]
        ends = np.cumsum(self.vocab)
        return FieldDistributions(
            tuple(probs[end - size : end] for size, end in zip(self.vocab, ends))
        )


def _backoff(
    model: ContextModel,
    hashes: np.ndarray,
    avail: np.ndarray,
    values: np.ndarray | None = None,
) -> np.ndarray:
    """Interpolated probabilities at m positions, the one back-off kernel.

    hashes[j, i] is the hash of the j events before position i, usable for
    j <= avail[i]. Context lengths are matched upward with one binary search
    each, and a position drops out at its first unmatched length. With
    values, an (m, 6) array of realized events, the result is the
    probability of values[i, f], shape (m, 6); without, the whole
    distribution of every field side by side, shape (m, sum(vocab)).
    """
    vocab = np.array(model.vocab)
    sizes = vocab if values is not None else np.repeat(vocab, vocab)
    starts = np.cumsum(vocab) - vocab
    probs = np.tile(1.0 / sizes, (hashes.shape[1], 1))
    lam = model.lam
    rows = np.arange(hashes.shape[1])
    for j in range(hashes.shape[0]):
        table = model.tables[j]
        rows = rows[avail[rows] >= j]
        rows, entries = table.find(hashes[j, rows], rows)
        if not len(rows):
            break
        denom = table.totals[entries].astype(np.float64)[:, None] + lam
        if values is None:
            counts = table.dense_counts(entries, starts, len(sizes))
        else:
            counts = table.point_counts(entries, values[rows], vocab)
        probs[rows] = probs[rows] * (lam / denom) + counts / denom
    return probs


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
    lengths = np.fromiter((len(seq.events) for seq in corpus), np.int64, count=len(corpus))
    n = int(lengths.sum())
    compact = np.int16 if max(vocab) <= np.iinfo(np.int16).max else np.int64
    outside = ValueError(f"corpus has event values outside the vocabulary of {grid}")
    try:
        events = _event_array(chain.from_iterable(seq.events for seq in corpus), n, compact)
    except OverflowError:
        raise outside from None
    if np.any((events < 0) | (events >= np.array(vocab, dtype=compact))):
        raise outside
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


def score_sequence(
    model: ContextModel,
    events: Sequence[Event],
    context_len: int,
    mode: str = "nll",
) -> np.ndarray:
    """Per-event, per-field scores in nats, shape (len(events), 6).

    nll mode scores the realized value, -log p(value | context); predictive
    mode scores the full predicted distribution, -sum p log p. The context
    window is the last min(k, context_len, t) events.
    """
    if mode not in ("nll", "predictive"):
        raise ValueError(f"unknown mode {mode!r}")
    if context_len < 0:
        raise ValueError("context_len must be >= 0")
    kmax = min(model.k, context_len)
    values = _event_array(events, len(events))
    hashes = np.stack(list(_rolling_hashes(_event_hashes(values), kmax)))
    avail = np.minimum(np.arange(len(values)), kmax)
    if mode == "nll":
        return -np.log(_backoff(model, hashes, avail, values))
    out = np.empty((len(values), N_FIELDS))
    bounds = np.cumsum(model.vocab)[:-1]
    for start in range(0, len(values), _DENSE_ROWS):
        block = slice(start, start + _DENSE_ROWS)
        probs = _backoff(model, hashes[:, block], avail[block])
        for f, vecs in enumerate(np.split(probs, bounds, axis=1)):
            out[block, f] = -(vecs * np.log(vecs)).sum(axis=1)
    return out


@dataclass(frozen=True, slots=True)
class GenerationResult:
    sequence: EventSequence
    sampled_notes: tuple[QuantNote, ...]


def _validate_prime(prime: EventSequence) -> list[Event]:
    events = list(prime.events)
    if events and events[-1].type == TYPE_END:
        events = events[:-1]
    stage = TYPE_START
    for i, e in enumerate(events):
        if i == 0:
            if e != Event(TYPE_START, 0, 0, 0, 0, 0):
                raise SequenceStructureError("prime must open with the start event", 0)
            continue
        if e.type == TYPE_INSTRUMENT and stage in (TYPE_START, TYPE_INSTRUMENT):
            stage = TYPE_INSTRUMENT
        elif e.type == TYPE_NOTES_BEGIN and stage == TYPE_INSTRUMENT:
            stage = TYPE_NOTES_BEGIN
        elif e.type == TYPE_NOTE and stage in (TYPE_NOTES_BEGIN, TYPE_NOTE):
            stage = TYPE_NOTE
        else:
            raise SequenceStructureError("prime is not a valid sequence prefix", i)
    if stage == TYPE_START:
        raise SequenceStructureError("prime header is incomplete", len(events))
    if stage == TYPE_INSTRUMENT:
        events.append(Event(TYPE_NOTES_BEGIN, 0, 0, 0, 0, 0))
    return events


def generate(
    model: ContextModel, prime: EventSequence, steps: int, seed: int
) -> GenerationResult:
    """Sample `steps` note events after the prime, then close the sequence.

    Every sampled event is forced to be a note (durations resample away
    from zero); the finished sequence is re-canonicalized so downstream
    consumers see a valid encoding. With steps == 0 the prime itself is
    returned, terminated.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    context = _validate_prime(prime)
    if steps == 0:
        seq = EventSequence(tuple(context) + (Event(TYPE_END, 0, 0, 0, 0, 0),), prime.grid)
        return GenerationResult(seq, ())
    rng = np.random.default_rng(seed)
    sampled: list[QuantNote] = []
    for _ in range(steps):
        dists = model.predict_next(context)
        values = []
        for f in range(1, N_FIELDS):
            vec = dists.vectors[f]
            if f == 4:
                vec = vec.copy()
                vec[0] = 0.0  # a note cannot have duration zero
            vec = vec / vec.sum()
            values.append(int(rng.choice(len(vec), p=vec)))
        e = Event(TYPE_NOTE, *values)
        context.append(e)
        sampled.append(QuantNote(e.beat, e.position, e.pitch, e.duration, e.instrument))
    notes = [
        QuantNote(e.beat, e.position, e.pitch, e.duration, e.instrument)
        for e in context
        if e.type == TYPE_NOTE
    ]
    return GenerationResult(encode([notes], model.grid), tuple(sorted(sampled)))


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
