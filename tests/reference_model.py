"""Scalar reference implementations of training, serialization and prediction.

These are a dict-of-dicts counting loop, an entry-by-entry writer of the
model format and an entry-by-entry interpolation. The package's array store
must reproduce their bytes and their probabilities exactly; tests compare
the two on random corpora.
"""
from __future__ import annotations

import io
import struct
from typing import Sequence

import numpy as np

from duetflow.events import EventSequence, N_FIELDS
from duetflow.grid import GridSpec
from duetflow.model import FORMAT_VERSION, MAGIC, event_hash

_MASK64 = (1 << 64) - 1
_CTX_MULT = 0x100000001B3


def reference_train(corpus: Sequence[EventSequence], k: int) -> tuple[list[dict], int]:
    """tables[j]: context hash -> [total, {value * 8 + field: count}]."""
    tables: list[dict[int, list]] = [{} for _ in range(k + 1)]
    total_events = 0
    for seq in corpus:
        hashes = [0] * (k + 1)
        for t, e in enumerate(seq.events):
            for j in range(min(k, t) + 1):
                entry = tables[j].get(hashes[j])
                if entry is None:
                    entry = [0, {}]
                    tables[j][hashes[j]] = entry
                entry[0] += 1
                counts = entry[1]
                for f in range(N_FIELDS):
                    key = (e[f] << 3) | f
                    counts[key] = counts.get(key, 0) + 1
            eh = event_hash(e)
            for j in range(k, 0, -1):
                hashes[j] = (eh + _CTX_MULT * hashes[j - 1]) & _MASK64
            total_events += 1
    return tables, total_events


def reference_save(
    k: int, lam: float, grid: GridSpec, tables: list[dict], trained_events: int
) -> bytes:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(
        struct.pack(
            "<HIdIIIQ",
            FORMAT_VERSION,
            k,
            lam,
            grid.resolution,
            grid.max_beat,
            grid.max_duration,
            trained_events,
        )
    )
    for table in tables:
        buf.write(struct.pack("<Q", len(table)))
        for ctx in sorted(table):
            total, counts = table[ctx]
            buf.write(struct.pack("<QQI", ctx, total, len(counts)))
            for key in sorted(counts):
                buf.write(struct.pack("<QQ", key, counts[key]))
    return buf.getvalue()


def reference_predict(
    tables: list[dict], k: int, lam: float, vocab: tuple[int, ...], context: Sequence
) -> list[np.ndarray]:
    """Per-field distributions after context, interpolated entry by entry."""
    kmax = min(k, len(context))
    hashes = [0]
    acc, power = 0, 1
    for i in range(1, kmax + 1):
        acc = (acc + event_hash(context[-i]) * power) & _MASK64
        power = (power * _CTX_MULT) & _MASK64
        hashes.append(acc)
    entries = []
    for j, h in enumerate(hashes):
        entry = tables[j].get(h)
        if entry is None:
            break
        entries.append(entry)
    vectors = []
    for f, size in enumerate(vocab):
        vec = np.full(size, 1.0 / size)
        for total, counts in entries:
            out = vec * (lam / (total + lam))
            for key, c in counts.items():
                if key & 7 == f:
                    out[key >> 3] += c / (total + lam)
            vec = out
        vectors.append(vec)
    return vectors


def reference_scores(
    tables: list[dict],
    k: int,
    lam: float,
    vocab: tuple[int, ...],
    stream: np.ndarray,
    context_len: int,
    mode: str,
) -> np.ndarray:
    """Per-event, per-field scores of one stream, one reference_predict per event."""
    probs, entropies = [], []
    for t in range(len(stream)):
        vectors = reference_predict(
            tables, min(k, context_len), lam, vocab, stream[max(0, t - context_len) : t]
        )
        probs.append([vec[v] for vec, v in zip(vectors, stream[t])])
        entropies.append([float(-(vec * np.log(vec)).sum()) for vec in vectors])
    if mode == "nll":
        return -np.log(np.array(probs).reshape(len(stream), N_FIELDS))
    return np.array(entropies).reshape(len(stream), N_FIELDS)


def reference_generate(model, prefix: np.ndarray, steps: int, seed: int) -> list[tuple]:
    """The (beat, position, pitch, duration, program) rows sampled after a prefix.

    One predict_next on the whole context and one rng.choice per field at
    every step: the event-by-event sampler.
    """
    context = [tuple(row) for row in prefix.tolist()]
    rng = np.random.default_rng(seed)
    sampled = []
    for _ in range(steps):
        dists = model.predict_next(context)
        values = []
        for f in range(1, N_FIELDS):
            vec = dists.vectors[f].copy()
            if f == 4:
                vec[0] = 0.0
            vec = vec / vec.sum()
            values.append(int(rng.choice(len(vec), p=vec)))
        context.append((3, *values))
        sampled.append(tuple(values))
    return sampled
