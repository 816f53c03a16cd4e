"""Back-off model: counting, interpolation, serialization, generation."""
import dataclasses
import hashlib
import itertools
import math
import mmap
import os
import re
import struct
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duetflow.events import (
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
from duetflow.grid import MAX_VALUES, GridSpec, layout, vocab_sizes
from duetflow.midi import QuantNote
import duetflow.model as model_module
from duetflow.model import (
    MODES,
    ContextModel,
    CountTable,
    GenerationResult,
    empty_model,
    event_hash,
    generate,
    generate_many,
    load_model,
    load_model_file,
    save_model,
    save_model_file,
    score_sequence,
    score_sequences,
    train,
    _cdfs,
    _chain_tuples,
    _dense_blocks,
    _distinct_events,
    _draw,
    _event_hashes,
    _last_hashes,
    _match,
    _search,
    _validate_prime,
)
from reference_events import event_rows
from reference_model import (
    reference_cdfs,
    reference_entries,
    reference_generate,
    reference_predict,
    reference_save,
    reference_scores,
    reference_train,
)

GRID = GridSpec()


def simple_piece(pitches, *, program=0, duration=12, start=0):
    notes = [QuantNote(start + i, 0, int(p), duration, program) for i, p in enumerate(pitches)]
    return encode([notes], GRID)


def random_piece(rng, n_notes, *, programs=(0,)):
    beats = np.sort(rng.integers(0, 16, n_notes))
    notes = sorted(
        QuantNote(
            int(b),
            int(rng.integers(0, GRID.resolution)),
            int(rng.integers(0, 128)),
            int(rng.integers(1, GRID.max_duration + 1)),
            int(rng.choice(programs)),
        )
        for b in beats
    )
    return encode([notes], GRID)


# --- hashing and reproducibility ------------------------------------------

def test_event_hash_pinned_values():
    # Frozen values: the hash is part of the on-disk model contract, so any
    # change here silently invalidates every saved model.
    assert event_hash(Event(3, 5, 7, 60, 12, 40)) == 0xB332006FC5469563
    assert event_hash(Event(0, 0, 0, 0, 0, 0)) == 0x7564ACA7CB8F9E9A


def test_event_hash_sensitive_to_every_field():
    base = Event(3, 5, 7, 60, 12, 40)
    seen = {event_hash(base)}
    for f in range(6):
        bumped = Event(*(v + 1 if i == f else v for i, v in enumerate(base)))
        h = event_hash(bumped)
        assert h not in seen
        seen.add(h)


_INT64 = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(*[st.one_of(st.integers(0, 1100), _INT64)] * 6), max_size=40))
def test_vectorized_event_hashes_match_scalar(rows):
    got = _event_hashes(np.array(rows, dtype=np.int64).reshape(-1, 6))
    assert got.dtype == np.uint64
    assert [int(h) for h in got] == [event_hash(Event(*r)) for r in rows]


def test_event_hashes_across_chunks_match_scalar():
    # Scoring hashes whole batches in one pass, tens of thousands of events.
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 2**16, size=(3 * 2**14 + 7, N_FIELDS))
    got = _event_hashes(rows).tolist()
    assert got == [event_hash(Event(*r)) for r in rows.tolist()]


@st.composite
def event_arrays(draw):
    """A grid and event rows anywhere in its vocabulary, few of them distinct.

    The grids include the one whose packed event keys are largest: the
    widest grid, with its three free spans as equal as the bound allows.
    """
    grid = draw(st.sampled_from([GRID, GridSpec(1, 1, 1), GridSpec(21758, 21758, 21758)]))
    vocab = vocab_sizes(grid)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(0, vocab, size=(draw(st.integers(1, 8)), N_FIELDS))
    pool[0] = np.array(vocab) - 1
    return grid, pool[rng.integers(0, len(pool), draw(st.integers(0, 60)))]


@settings(max_examples=60, deadline=None)
@given(event_arrays())
def test_distinct_events_number_every_row(case):
    # train counts through the distinct events and hashes only them.
    grid, events = case
    distinct, ids = _distinct_events(events, layout(grid))
    np.testing.assert_array_equal(distinct[ids], events)
    rows = [tuple(r) for r in distinct.tolist()]
    assert rows == sorted(set(rows))


def test_fingerprint_pinned():
    notes = [QuantNote(0, 0, 60, 12, 5), QuantNote(1, 0, 64, 6, 5), QuantNote(2, 6, 67, 3, 5)]
    model = train([encode([notes], GRID)], k=2)
    assert model.trained_events == 7
    assert model.fingerprint() == "d3f5d6b42c488e02"


def test_training_is_deterministic():
    rng = np.random.default_rng(7)
    corpus = [random_piece(rng, 8, programs=(0, 24)) for _ in range(4)]
    a = train(corpus, k=3)
    b = train(list(corpus), k=3)
    assert save_model(a) == save_model(b)
    assert a.fingerprint() == b.fingerprint()


def test_a_model_is_immutable_and_replace_builds_a_new_one():
    rng = np.random.default_rng(41)
    corpus = [random_piece(rng, 12, programs=(0, 24)) for _ in range(3)]
    model = train(corpus, k=2)
    stream = corpus[0].events
    before = score_sequence(model, stream, 64)  # builds and keeps the _root_row
    digest = model.fingerprint()
    other = dataclasses.replace(model, lam=3.0)
    fresh = load_model(save_model(other))
    # The new model works out its own fingerprint and _root_row.
    assert other.fingerprint() == fresh.fingerprint() != digest
    assert np.array_equal(score_sequence(other, stream, 64), score_sequence(fresh, stream, 64))
    assert model.fingerprint() == digest
    assert np.array_equal(score_sequence(model, stream, 64), before)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.lam = 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        fresh._fingerprint = None
    for table in (*model.tables, *fresh.tables, CountTable.empty()):
        for a in (table.contexts, table.totals, table.offsets, table.codes, table.counts):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


@st.composite
def corpora(draw):
    """A grid and a corpus on it: whole pieces, truncated prefixes and empties."""
    grid = GridSpec(
        draw(st.integers(1, 16)),
        draw(st.sampled_from([1, 7, 64, 1024, 40000])),
        draw(st.integers(1, 40)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    programs = draw(st.lists(st.integers(0, 127), min_size=1, max_size=4, unique=True))
    corpus = []
    for _ in range(draw(st.integers(1, 4))):
        notes = [
            QuantNote(
                int(rng.integers(0, min(grid.max_beat, 8))),
                int(rng.integers(0, grid.resolution)),
                int(rng.integers(0, 128)),
                int(rng.integers(1, grid.max_duration + 1)),
                int(rng.choice(programs)),
            )
            for _ in range(draw(st.integers(1, 12)))
        ]
        events = encode([notes], grid).events
        corpus.append(EventSequence(events[: draw(st.integers(0, len(events)))], grid))
    return corpus


@settings(max_examples=60, deadline=None)
@given(corpora(), st.integers(0, 4), st.sampled_from([0.5, 1.0, 3.0]))
def test_train_bytes_match_dict_reference(corpus, k, lam):
    model = train(corpus, k=k, lam=lam)
    tables, events = reference_train(corpus, k)
    blob = save_model(model)
    assert blob == reference_save(k, lam, corpus[0].grid, tables, events)
    assert save_model(load_model(blob)) == blob
    vocab = vocab_sizes(corpus[0].grid)
    probe = corpus[0].events
    for t in range(len(probe) + 1):
        got = model.predict_next(probe[:t]).vectors
        want = reference_predict(tables, k, lam, vocab, probe[:t])
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    scores = score_sequence(model, probe, context_len=64, mode="predictive")
    for t in range(len(probe)):
        want = reference_predict(tables, k, lam, vocab, probe[:t])
        assert list(scores[t]) == [float(-(v * np.log(v)).sum()) for v in want]


@settings(max_examples=40, deadline=None)
@given(corpora(), st.integers(0, 4), st.integers(2, 5))
def test_repeating_the_corpus_multiplies_every_count(corpus, k, r):
    once, again = train(corpus, k=k), train(corpus * r, k=k)
    assert again.trained_events == r * once.trained_events
    for a, b in zip(once.tables, again.tables):
        for name in ("contexts", "offsets", "codes"):
            np.testing.assert_array_equal(getattr(b, name), getattr(a, name))
        np.testing.assert_array_equal(b.totals, a.totals * np.uint64(r))
        np.testing.assert_array_equal(b.counts, a.counts * np.uint64(r))


@st.composite
def repetitive_corpora(draw):
    """Corpora of a few distinct events, each repeated many times, so that
    the same (context, event) pairs recur within and across sequences."""
    grid = draw(st.sampled_from([GRID, GridSpec(1, 1, 1), GridSpec(4, 7, 3)]))
    vocab = vocab_sizes(grid)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(0, vocab, size=(draw(st.integers(1, 4)), N_FIELDS))
    return [
        EventSequence(pool[rng.integers(0, len(pool), draw(st.integers(0, 80)))], grid)
        for _ in range(draw(st.integers(1, 4)))
    ]


@settings(max_examples=60, deadline=None)
@given(repetitive_corpora(), st.integers(0, 4))
def test_train_bytes_match_dict_reference_on_repeated_events(corpus, k):
    tables, events = reference_train(corpus, k)
    blob = save_model(train(corpus, k=k))
    assert blob == reference_save(k, 1.0, corpus[0].grid, tables, events)


@st.composite
def scoring_cases(draw):
    """A model on a random corpus, streams to score and a context length.

    The streams are prefixes of the corpus pieces, empty ones and ones
    shorter than k included, plus a piece the model has not seen.
    """
    corpus = draw(corpora())
    k = draw(st.integers(0, 4))
    model = train(corpus, k=k, lam=draw(st.sampled_from([0.5, 1.0, 3.0])))
    unseen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = corpus[0].grid
    notes = [
        QuantNote(0, int(unseen.integers(0, grid.resolution)), int(unseen.integers(0, 128)),
                  1, 0)
        for _ in range(draw(st.integers(1, 6)))
    ]
    pieces = [seq.events for seq in corpus] + [encode([sorted(notes)], grid).events]
    streams = [p[: draw(st.integers(0, len(p)))] for p in draw(st.permutations(pieces))]
    context_len = draw(st.sampled_from(sorted({0, 1, max(0, k - 1), k, 64})))
    return model, corpus, k, streams, context_len


@settings(max_examples=60, deadline=None)
@given(scoring_cases(), st.sampled_from(["nll", "predictive"]))
def test_score_sequences_equals_per_stream_reference(case, mode):
    model, corpus, k, streams, context_len = case
    batch = score_sequences(model, streams, context_len, mode)
    assert len(batch) == len(streams)
    tables, _ = reference_train(corpus, k)
    vocab = vocab_sizes(model.grid)
    for stream, got in zip(streams, batch):
        solo = score_sequence(model, stream, context_len, mode)
        want = reference_scores(tables, k, model.lam, vocab, stream, context_len, mode)
        assert got.shape == solo.shape == want.shape == (len(stream), 6)
        assert np.array_equal(got, solo) and np.array_equal(got, want)


def test_entropies_equal_row_by_row_entropies():
    # Distinct chains are found by sorting; each must get the bits it gets
    # alone: repeated rows, chains ending in -1 tails, one column, none.
    rng = np.random.default_rng(5)
    model = train([random_piece(rng, 30) for _ in range(20)], k=3)
    sizes = np.array([len(t) for t in model.tables])
    pool = rng.integers(0, sizes, (40, len(sizes)))
    pool[np.arange(len(sizes)) >= rng.integers(1, len(sizes) + 1, (40, 1))] = -1
    chains = pool[rng.integers(0, len(pool), 300)]
    bounds = model.layout.starts[1:]

    def alone(chain):
        ((_, probs),) = _dense_blocks(model, _chain_tuples(chain[None]))
        return [-(v * np.log(v)).sum() for v in np.split(probs[0], bounds)]

    for case in (chains, chains[:, :1], chains[:0]):
        got = model_module._entropies(model, case)
        assert got.shape == (len(case), N_FIELDS)
        for row, chain in zip(got, case):
            assert row.tolist() == alone(chain)


@settings(max_examples=100, deadline=None)
@given(
    corpora(),
    st.integers(0, 4),
    st.floats(1e-3, 1e3),
    st.sampled_from([1, 2, 64]),
    st.integers(0, 2**32 - 1),
)
def test_whole_rows_and_sampling_rows_equal_the_references(corpus, k, lam, per_call, seed):
    # Contexts cut from the corpus, some with a random first event: chains
    # of every depth, with -1 tails where a longer context was not seen.
    # Built 1, 2 or 64 at a time, every row must be reference_predict's
    # vectors side by side and its sampling row reference_cdfs', bit for bit.
    grid = corpus[0].grid
    model = train(corpus, k=k, lam=lam)
    tables, _ = reference_train(corpus, k)
    vocab = vocab_sizes(grid)
    rng = np.random.default_rng(seed)
    contexts = []
    for _ in range(per_call if per_call == 64 else 3 * per_call):
        events = corpus[rng.integers(len(corpus))].events
        t = int(rng.integers(0, len(events) + 1))
        context = events[max(0, t - int(rng.integers(0, k + 2))) : t].copy()
        if len(context) and rng.random() < 0.4:
            context[0] = rng.integers(0, vocab)
        contexts.append(context)
    hashes = np.zeros((k + 1, len(contexts)), dtype=np.uint64)
    avail = np.zeros(len(contexts), dtype=np.int64)
    for i, context in enumerate(contexts):
        ctx = _last_hashes(context, k)
        hashes[1 : len(ctx) + 1, i] = ctx
        avail[i] = len(ctx)
    chains = _chain_tuples(_match(model, hashes, avail))
    starts = np.cumsum(vocab)[:-1]
    for at in range(0, len(chains), per_call):
        ((_, probs),) = _dense_blocks(model, chains[at : at + per_call])
        for row, context in zip(probs, contexts[at : at + per_call]):
            want = reference_predict(tables, k, lam, vocab, context)
            for got, vec in zip(np.split(row, starts), want, strict=True):
                assert got.tobytes() == vec.tobytes()
        before = probs.copy()
        assert _cdfs(probs, model.layout).tobytes() == reference_cdfs(probs, vocab).tobytes()
        assert probs.tobytes() == before.tobytes()


def test_score_sequences_of_no_streams_is_empty():
    trained = train([simple_piece([60, 64, 67])], k=2)
    for model in (empty_model(GRID), trained):
        for mode in ("nll", "predictive"):
            assert score_sequences(model, [], 64, mode) == []


def test_nll_of_values_outside_the_vocabulary_has_count_zero():
    seq = simple_piece([60, 64, 67, 60])
    lam = 0.5
    model = train([seq], k=0, lam=lam)
    total = len(seq)
    vocab = vocab_sizes(GRID)
    int64 = np.iinfo(np.int64)
    outside = [
        [5, 1024, 12, 128, 97, 128],
        [-1, -1, -1, -1, -1, -1],
        [int64.max] * 6,
        [int64.min] * 6,
    ]
    scores = score_sequence(model, outside, 64)
    for row in scores:
        for f, size in enumerate(vocab):
            want = -math.log((1 / size) * lam / (total + lam))
            assert row[f] == pytest.approx(want, rel=1e-12)
    # Under contexts matched at lengths 1 and 2 too (start, instrument,
    # notes-begin, each seen once), after which a note at beat 0, position
    # 0 and program 0 was counted: an outside value still counts 0.
    model = train([seq], k=2, lam=lam)
    head = seq.events[:3].tolist()
    for row in outside:
        got = score_sequence(model, head + [row], 64)[-1]
        for f, size in enumerate(vocab):
            want = -math.log((1 / size) * lam / (total + lam) * (lam / (1 + lam)) ** 2)
            assert got[f] == pytest.approx(want, rel=1e-12)


_U64 = st.integers(0, 2**64 - 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_search_equals_plain_searchsorted(data):
    hay = np.array(sorted(data.draw(st.sets(_U64, max_size=20))), dtype=np.uint64)
    needle = st.one_of(st.sampled_from(hay.tolist()), _U64) if len(hay) else _U64
    flat = data.draw(st.lists(needle, max_size=30))
    rows = data.draw(st.sampled_from([1, 2, 3, 6]))
    needles = np.array(flat[: len(flat) // rows * rows], dtype=np.uint64).reshape(-1, rows)
    for shape in (needles, needles.ravel(), needles.T):
        got = _search(hay, shape)
        want = np.searchsorted(hay, shape)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_find_and_point_counts_equal_plain_searchsorted(monkeypatch):
    rng = np.random.default_rng(29)
    model = train([random_piece(rng, 30, programs=(0, 40)) for _ in range(4)], k=3)
    vocab = np.array(vocab_sizes(model.grid))
    shift = model.layout.shift

    def outcomes():
        out = []
        for table in [*model.tables, CountTable.empty()]:
            # Every context once, some twice, and hashes absent from the table,
            # shuffled; then a single needle.
            absent = rng.integers(0, 2**63, 8, dtype=np.int64).astype(np.uint64)
            hashes = rng.permutation(np.concatenate([table.contexts, table.contexts[:3], absent]))
            for n in (len(hashes), 1):
                out.append(table.find(hashes[:n], np.arange(n) + 100))
            if not len(table):
                continue
            entries = rng.integers(0, len(table), 40)
            # Values outside the vocabulary too, which get the key of field 7.
            values = rng.integers(-2, vocab + 3, (40, N_FIELDS))
            known = (values >= 0) & (values < vocab)
            keys = np.where(known, values * 8 + np.arange(N_FIELDS), 7).astype(np.uint64)
            for n in (40, 1, 0):
                out.append((table.point_counts(entries[:n], keys[:n], shift),))
        return out

    state = rng.bit_generator.state
    sorted_search = outcomes()
    rng.bit_generator.state = state
    monkeypatch.setattr(model_module, "_search", np.searchsorted)
    plain = outcomes()
    assert len(sorted_search) == len(plain) == 2 * 5 + 3 * 4
    for got, want in zip(sorted_search, plain):
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sampler_draws_what_rng_choice_draws(seed):
    # 100 rows of five fields, 500 vectors per example, on a legal grid:
    # beat, position and duration sizes from 1 to 300, entries spread over
    # many orders of magnitude, some zero.
    rng = np.random.default_rng(seed)
    beat, position, duration = rng.integers(1, 300, 3).tolist()
    grid = GridSpec(position, beat, max(1, duration - 1))
    vocab, lay = vocab_sizes(grid), layout(grid)
    rows = 100
    probs = np.exp(rng.normal(0, 4, (rows, sum(vocab))))
    probs[rng.random(probs.shape) < 0.1] = 0.0
    ends = np.cumsum(vocab)
    for f in range(1, 6):
        probs[:, ends[f] - 1] += 1e-3  # every field keeps some mass past duration 0
    seeds = rng.integers(0, 2**63, rows)
    draws = [np.random.default_rng(s).random(5).tolist() for s in seeds]
    cdfs = _cdfs(probs, lay)
    spans = lay.spans
    for row, s in enumerate(seeds):
        got = _draw(memoryview(cdfs[row]), spans, draws[row])
        chooser = np.random.default_rng(s)
        want = []
        for f in range(1, 6):
            vec = probs[row, ends[f] - vocab[f] : ends[f]].copy()
            if f == 4:
                vec[0] = 0.0
            vec = vec / vec.sum()
            want.append(int(chooser.choice(len(vec), p=vec)))
        assert got == want
        # Draws equal to a cumulative sum, 0 among them: choice counts the
        # sums that do not exceed the draw, as searchsorted side="right" does.
        fields = [cdfs[row, lo:hi] for lo, hi in spans]
        for edges in ([0.0] * 5, [f[0] for f in fields], [f[rng.integers(len(f))] for f in fields]):
            want = [int(np.searchsorted(f, u, side="right")) for f, u in zip(fields, edges)]
            assert _draw(memoryview(cdfs[row]), spans, edges) == want


def test_grids_hold_at_most_one_distribution_row():
    # 262 + max_beat + resolution + max_duration values may reach 2**16: that
    # grid builds, predicts, scores and generates; one value more is refused.
    widest = GridSpec(max_beat=MAX_VALUES - sum(vocab_sizes(GridSpec(max_beat=1))) + 1)
    assert sum(vocab_sizes(widest)) == MAX_VALUES
    model = empty_model(widest, k=1)
    model.predict_next([]).validate()
    seq = encode([[QuantNote(widest.max_beat - 1, 0, 60, 4, 0)] * 20], widest)
    for mode in MODES:
        assert np.all(np.isfinite(score_sequence(model, seq.events, 4, mode)))
    assert len(generate(model, seq, 2, seed=0).sampled_notes) == 2
    for over in (
        dict(max_beat=widest.max_beat + 1),
        dict(max_beat=widest.max_beat, resolution=widest.resolution + 1),
        dict(max_beat=widest.max_beat, max_duration=widest.max_duration + 1),
    ):
        refusal = f"has {MAX_VALUES + 1} values per distribution, more than {MAX_VALUES}$"
        with pytest.raises(ValueError, match=refusal):
            GridSpec(**over)


def test_train_rejects_events_outside_the_vocabulary():
    seq = simple_piece([60, 64])
    small = GridSpec(max_beat=1)
    with pytest.raises(ValueError, match="outside the vocabulary"):
        train([EventSequence(seq.events, small)], k=1)
    rows = event_rows(seq)
    bad = rows[:3] + [Event(TYPE_NOTE, 0, 0, 60, 12, -1)] + rows[4:]
    with pytest.raises(ValueError, match="outside the vocabulary"):
        train([EventSequence(bad, GRID)], k=1)


# --- counting and interpolation, against hand-derived values ---------------

def test_single_note_corpus_hand_values():
    # Corpus is one piece with one note: START, INSTRUMENT(5), NOTES_BEGIN,
    # NOTE(0,0,60,12,5), END. Unigram: P(type=END) = (1 + 1/5)/6 = 0.2.
    # After the note event the only continuation is END:
    #   P(type=END | note)  = (1 + 0.2)/2 = 0.6
    #   P(pitch=60 | note)  = (0 + (1 + 1/128)/6)/2 = 129/1536
    seq = simple_piece([60], program=5)
    model = train([seq], k=1)
    note = event_rows(seq)[3]
    assert note.type == TYPE_NOTE
    dists = model.predict_next([note])
    assert dists.probability(0, TYPE_END) == pytest.approx(0.6, abs=1e-15)
    assert dists.probability(3, 60) == pytest.approx(129 / 1536, abs=1e-15)


def test_untrained_model_is_uniform_everywhere():
    model = empty_model(GRID, k=4)
    for context in ([], [Event(3, 9, 2, 70, 4, 1)] * 3):
        dists = model.predict_next(context)
        for f, size in enumerate(vocab_sizes(GRID)):
            assert dists.vectors[f].shape == (size,)
            assert np.allclose(dists.vectors[f], 1.0 / size)


def test_unseen_context_backs_off_to_unigram():
    model = train([simple_piece([60, 64, 67])], k=2)
    never_seen = Event(TYPE_NOTE, 999, 11, 1, 96, 127)
    off = model.predict_next([never_seen, never_seen])
    base = model.predict_next([])
    for f in range(6):
        assert np.array_equal(off.vectors[f], base.vectors[f])


def test_repeated_note_dominates_prediction():
    # 400 identical notes out of 404 events: the pitch estimate must carry
    # nearly all of the empirical mass, (400 + 1/128)/405 of it.
    seq = encode([[QuantNote(0, 0, 60, 12, 5)] * 400], GRID)
    model = train([seq], k=0)
    p = model.predict_next([]).probability(3, 60)
    assert p == pytest.approx((400 + 1 / 128) / 405, abs=1e-12)
    assert p > 0.98


def test_interpolation_matches_tuple_keyed_reference():
    # Independent re-derivation: literal event tuples as context keys,
    # no hashing, no rolling state.
    rng = np.random.default_rng(11)
    k, lam = 3, 1.0
    corpus = [random_piece(rng, 10, programs=(0, 24)) for _ in range(3)]
    vocab = vocab_sizes(GRID)

    tables = [dict() for _ in range(k + 1)]
    for seq in corpus:
        events = event_rows(seq)
        for t, e in enumerate(events):
            for j in range(min(k, t) + 1):
                entry = tables[j].setdefault(tuple(events[t - j:t]), [0, Counter()])
                entry[0] += 1
                for f in range(6):
                    entry[1][(f, e[f])] += 1

    def ref_prob(context, f, value):
        p = 1.0 / vocab[f]
        for j in range(k + 1):
            if j > len(context):
                break
            ctx = tuple(context[-j:]) if j else ()
            if ctx not in tables[j]:
                break
            total, counts = tables[j][ctx]
            p = (counts[(f, value)] + lam * p) / (total + lam)
        return p

    model = train(corpus, k=k, lam=lam)
    probe = event_rows(corpus[0])
    for mode, context_len in itertools.product(("nll", "predictive"), (0, 1, 2, 64)):
        scores = score_sequence(model, probe, context_len=context_len, mode=mode)
        for t in range(len(probe)):
            context = list(probe[max(0, t - context_len):t])
            dists = model.predict_next(context)
            for f in range(6):
                for value in {0, probe[t][f], min(60, vocab[f] - 1), vocab[f] - 1}:
                    assert dists.probability(f, value) == pytest.approx(
                        ref_prob(context, f, value), rel=1e-12
                    )
                if mode == "nll":
                    want = -math.log(ref_prob(context, f, probe[t][f]))
                else:
                    vec = np.array([ref_prob(context, f, v) for v in range(vocab[f])])
                    want = float(-(vec * np.log(vec)).sum())
                assert scores[t, f] == pytest.approx(want, rel=1e-12)


def test_score_modes_match_predict_next():
    rng = np.random.default_rng(3)
    corpus = [random_piece(rng, 12) for _ in range(2)]
    model = train(corpus, k=2)
    probe = corpus[1].events
    nll = score_sequence(model, probe, context_len=64, mode="nll")
    pred = score_sequence(model, probe, context_len=64, mode="predictive")
    assert nll.shape == pred.shape == (len(probe), 6)
    for t in (0, 1, len(probe) // 2, len(probe) - 1):
        dists = model.predict_next(list(probe[:t]))
        for f in range(6):
            assert nll[t, f] == pytest.approx(
                -math.log(dists.probability(f, probe[t][f])), rel=1e-12
            )
            vec = dists.vectors[f]
            assert pred[t, f] == pytest.approx(float(-(vec * np.log(vec)).sum()), rel=1e-12)


def test_context_len_zero_scores_with_unigram_only():
    model = train([simple_piece([60, 64, 67, 72])], k=4)
    probe = simple_piece([64, 60, 72, 67]).events
    scores = score_sequence(model, probe, context_len=0)
    base = model.predict_next([])
    for t, e in enumerate(probe):
        for f in range(6):
            assert scores[t, f] == pytest.approx(-math.log(base.probability(f, e[f])))


def test_score_rejects_bad_arguments():
    model = empty_model(GRID, k=1)
    with pytest.raises(ValueError):
        score_sequence(model, [], context_len=-1)
    with pytest.raises(ValueError):
        score_sequence(model, [], context_len=4, mode="nats")


def test_train_rejects_bad_arguments():
    with pytest.raises(ValueError):
        train([], k=2)
    with pytest.raises(ValueError):
        train([simple_piece([60])], k=-1)
    with pytest.raises(ValueError):
        train([simple_piece([60])], k=1, lam=0.0)
    other = encode([[QuantNote(0, 0, 60, 12, 0)]], GridSpec(resolution=4))
    with pytest.raises(ValueError, match="mixed grids"):
        train([simple_piece([60]), other], k=1)


def test_large_lambda_flattens_toward_uniform():
    model = train([simple_piece([60] * 50)], k=0, lam=1e9)
    assert model.predict_next([]).probability(3, 60) == pytest.approx(1 / 128, rel=1e-5)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_predictions_are_normalized_distributions(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_pieces = data.draw(st.integers(1, 3))
    corpus = [
        random_piece(rng, data.draw(st.integers(1, 8)), programs=(0, 8)) for _ in range(n_pieces)
    ]
    model = train(corpus, k=data.draw(st.integers(0, 4)))
    ctx_len = data.draw(st.integers(0, 6))
    context = [
        Event(
            TYPE_NOTE,
            data.draw(st.integers(0, GRID.max_beat - 1)),
            data.draw(st.integers(0, GRID.resolution - 1)),
            data.draw(st.integers(0, 127)),
            data.draw(st.integers(1, GRID.max_duration)),
            data.draw(st.integers(0, 127)),
        )
        for _ in range(ctx_len)
    ]
    model.predict_next(context).validate()


def test_predict_next_refuses_context_values_beyond_int64():
    model = train([simple_piece([60, 64])], k=2)
    with pytest.raises(ValueError, match="fit in int64"):
        model.predict_next([Event(TYPE_NOTE, 2**63, 0, 60, 4, 0)])


def test_predict_next_refuses_a_float_context_field():
    model = train([simple_piece([60, 64])], k=2)
    with pytest.raises(ValueError, match=r"^event field 60\.5 is not an integer$"):
        model.predict_next([Event(TYPE_NOTE, 0, 0, 60.5, 4, 0)])


@pytest.mark.parametrize(
    "bad, message",
    [(0.7, r"^event field 0\.7 is not an integer$"), (2**63, "^event fields must fit in int64$")],
    ids=["float", "beyond-int64"],
)
def test_scoring_refuses_event_fields_that_are_not_int64(bad, message):
    model = train([simple_piece([60, 64])], k=2)
    rows = simple_piece([60, 64]).events.tolist()
    rows[3][3] = bad
    with pytest.raises(ValueError, match=message):
        score_sequence(model, rows, 4)
    with pytest.raises(ValueError, match=message):
        score_sequences(model, [simple_piece([60]).events, rows], 4)


# --- serialization ----------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    corpus = [random_piece(rng, 9, programs=(0, 40)) for _ in range(3)]
    model = train(corpus, k=3, lam=0.5)
    blob = save_model(model)
    back = load_model(blob)
    assert (back.k, back.lam, back.grid, back.trained_events) == (3, 0.5, GRID, model.trained_events)
    assert save_model(back) == blob
    assert back.fingerprint() == model.fingerprint()
    probe = [corpus[0].events[3], corpus[0].events[4]]
    for f in range(6):
        assert np.array_equal(
            back.predict_next(probe).vectors[f], model.predict_next(probe).vectors[f]
        )

    path = tmp_path / "model.dfm"
    save_model_file(model, path)
    assert save_model(load_model_file(path)) == blob
    assert not list(tmp_path.glob("*.tmp.*"))


def test_load_rejects_corrupted_input():
    blob = save_model(train([simple_piece([60, 64])], k=1))

    with pytest.raises(ValueError, match="magic"):
        load_model(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="truncated model header"):
        load_model(blob[:20])
    with pytest.raises(ValueError, match="truncated model tables"):
        load_model(blob[:-5])
    with pytest.raises(ValueError, match="trailing bytes"):
        load_model(blob + b"\x00")
    with pytest.raises(ValueError, match="version"):
        load_model(blob[:4] + struct.pack("<H", 99) + blob[6:])
    with pytest.raises(ValueError, match="lambda"):
        load_model(blob[:10] + struct.pack("<d", 0.0) + blob[18:])
    with pytest.raises(ValueError, match="grid"):
        load_model(blob[:18] + struct.pack("<I", 0) + blob[22:])


def test_load_refuses_a_header_grid_past_the_bound():
    blob = save_model(train([simple_piece([60, 64])], k=1))
    at = 4 + struct.calcsize("<HIdI")  # where the header's max_beat is
    widest = MAX_VALUES - sum(vocab_sizes(GRID)) + GRID.max_beat
    model = load_model(blob[:at] + struct.pack("<I", widest) + blob[at + 4 :])
    assert sum(vocab_sizes(model.grid)) == MAX_VALUES
    refusal = f"^invalid grid in model header: .* more than {MAX_VALUES}$"
    with pytest.raises(ValueError, match=refusal):
        load_model(blob[:at] + struct.pack("<I", widest + 1) + blob[at + 4 :])


def _table_layout(model):
    """Where each table of save_model(model) starts, and its entry heads."""
    offset = 4 + struct.calcsize("<HIdIIIQ")
    layout = []
    for table in model.tables:
        heads = offset + 8 + 20 * np.arange(len(table)) + 16 * table.offsets[:-1]
        layout.append((offset, heads.tolist()))
        offset += 8 + 20 * len(table) + 16 * len(table.codes)
    assert offset == len(save_model(model))
    return layout


def test_huge_table_size_is_refused_without_allocating():
    model = train([simple_piece([60, 64, 67, 60, 62])], k=2)
    blob = save_model(model)
    for start, _ in _table_layout(model):
        for size in (2**40, 2**64 - 1):
            bad = blob[:start] + struct.pack("<Q", size) + blob[start + 8 :]
            with pytest.raises(ValueError, match="^truncated model tables"):
                load_model(bad)


def test_file_cut_inside_table_heads_is_truncated():
    model = train([simple_piece([60, 64, 67, 60, 62])], k=2)
    blob = save_model(model)
    layout = _table_layout(model)
    assert all(heads for _, heads in layout)
    for start, heads in layout:
        for cut in [start + 3] + [h + r for h in heads for r in (0, 1, 12, 19)]:
            with pytest.raises(ValueError, match="^truncated model tables"):
                load_model(blob[:cut])


def write_blob(k, lam, grid, trained, tables):
    """A model file holding tables exactly as listed, sorted or not.

    tables[j] is a list of (context, total, [(key, count), ...]) entries.
    """
    header = (1, k, lam, grid.resolution, grid.max_beat, grid.max_duration, trained)
    out = [b"DFM1", struct.pack("<HIdIIIQ", *header)]
    for entries in tables:
        out.append(struct.pack("<Q", len(entries)))
        for ctx, total, pairs in entries:
            out.append(struct.pack("<QQI", ctx, total, len(pairs)))
            out.extend(struct.pack("<QQ", key, c) for key, c in pairs)
    return b"".join(out)


def listed_tables(corpus, k):
    tables, trained = reference_train(corpus, k)
    listed = [
        [[ctx, total, sorted(counts.items())] for ctx, (total, counts) in sorted(t.items())]
        for t in tables
    ]
    return listed, trained


def test_load_accepts_only_canonical_tables():
    corpus = [simple_piece([60, 64, 67])]
    good, trained = listed_tables(corpus, 2)
    assert write_blob(2, 1.0, GRID, trained, good) == save_model(train(corpus, k=2))
    load_model(write_blob(2, 1.0, GRID, trained, good))

    def rejected(match, edit, *, events=trained, lam=1.0):
        tables, _ = listed_tables(corpus, 2)
        edit(tables)
        with pytest.raises(ValueError, match=match):
            load_model(write_blob(2, lam, GRID, events, tables))

    def swap_entries(t):
        t[1][0], t[1][1] = t[1][1], t[1][0]

    def reverse_keys(t):
        t[1][0][2].reverse()

    def zero_total(t):
        t[2][0][1] = 0

    def zero_count(t):
        t[1][0][2][0] = (t[1][0][2][0][0], 0)

    def bump(t, j, key):
        t[j][0][2] = sorted(t[j][0][2] + [(key, 1)])

    def widen_first_key(t):  # the keys were reversed: the largest goes first
        t[1][0][2][0] = ((1 << 20) * 8 + 6, t[1][0][2][0][1])

    def add_to_first_count(t):
        key, count = t[1][0][2][0]
        t[1][0][2][0] = (key, count + 1)

    def both(*edits):
        return lambda t: [edit(t) for edit in edits]

    rejected("context hashes are not strictly ascending", swap_entries)
    rejected("keys are not strictly ascending", reverse_keys)
    rejected("total or a count is 0", zero_total)
    rejected("total or a count is 0", zero_count)
    rejected("outside the vocabulary", lambda t: bump(t, 1, (1 << 20) * 8 + 6))  # field 6
    rejected("outside the vocabulary", lambda t: bump(t, 1, 128 * 8 + 3))  # pitch 128
    rejected("do not sum", lambda t: bump(t, 1, 61 * 8 + 3))  # one pitch too many
    # A file that breaks two checks names the one that runs first.
    rejected("outside the vocabulary", both(reverse_keys, widen_first_key))
    rejected("context hashes are not strictly ascending", both(swap_entries, zero_count))
    rejected("keys are not strictly ascending", both(reverse_keys, add_to_first_count))
    rejected("exactly the empty context", lambda t: t[0][0].__setitem__(0, 5))
    rejected("exactly the empty context", lambda t: t[0].append([9, *t[0][0][1:]]))
    rejected("table 0 is empty", lambda t: t[0].clear(), events=0)
    rejected("table 0 total", lambda t: None, events=trained + 1)
    rejected("too small", lambda t: None, lam=1e-300)


@pytest.mark.parametrize("trained", [True, False])
def test_loaded_offsets_equal_a_search_of_the_entry_bounds(trained):
    rng = np.random.default_rng(31)
    corpus = [random_piece(rng, 20, programs=(0, 40)) for _ in range(3)]
    model = train(corpus, k=3) if trained else empty_model(GRID, k=3)
    back = load_model(save_model(model))
    assert len(back.tables) == len(model.tables) == 4
    # Offsets summed from pair counts, as train and load_model build them,
    # are where a search of the codes puts each entry's first pair.
    for table, saved in zip(back.tables, model.tables):
        for t in (table, saved):
            bounds = np.arange(len(t) + 1, dtype=np.uint64) << np.uint64(model.layout.shift)
            want = np.searchsorted(t.codes, bounds)
            assert t.offsets.dtype == want.dtype == np.int64
            assert np.array_equal(t.offsets, want)
        # The loaded arrays are the trained ones, C-contiguous: generation
        # reads the contexts through a memoryview.
        for name in ("contexts", "totals", "offsets", "codes", "counts"):
            got, want = getattr(table, name), getattr(saved, name)
            assert got.dtype == want.dtype == (np.int64 if name == "offsets" else np.uint64)
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous


@pytest.fixture(scope="module")
def large_model():
    rng = np.random.default_rng(7)
    model = train([random_piece(rng, 60, programs=(0, 40)) for _ in range(40)], k=4)
    assert sum(len(t.codes) for t in model.tables) > 50_000
    return model


def traced_peak(run):
    """What run() returns, the bytes it leaves allocated and its peak."""
    tracemalloc.start()
    try:
        out = run()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept, peak


def test_load_model_peaks_little_above_what_it_keeps(large_model):
    # Each table is built with about one whole-table temporary beside the
    # arrays it keeps: the peak above them is about 0.30 of the file here,
    # where a load that holds a table's copied records, its contiguous
    # columns and its per-pair index arrays at once reaches 1.15.
    blob = save_model(large_model)
    back, kept, peak = traced_peak(lambda: load_model(blob))
    assert save_model(back) == blob
    assert peak - kept < 0.6 * len(blob)


def test_model_files_move_without_a_whole_file_copy(large_model, tmp_path):
    # The writer holds one table's file layout at a time: its peak is about
    # 0.79 of the file here, where one that joins the parts reaches 2.0.
    # The reader maps the file, so its peak above the model it keeps is
    # about the 0.30 of load_model on bytes; reading the file whole adds
    # the file's size.
    path = tmp_path / "large.dfm"
    size = len(save_model(large_model))
    _, _, peak = traced_peak(lambda: save_model_file(large_model, path))
    assert path.stat().st_size == size
    assert peak < 1.2 * size
    back, kept, peak = traced_peak(lambda: load_model_file(path))
    assert back.fingerprint() == large_model.fingerprint()
    assert peak - kept < 0.6 * size


def test_fingerprint_hashes_one_table_at_a_time(large_model):
    # About 0.78 of the file here; holding the last table's file layout
    # while the next is built reaches 1.03.
    model = dataclasses.replace(large_model)
    size = len(save_model(model))
    digest, _, peak = traced_peak(model.fingerprint)
    assert digest == hashlib.blake2b(save_model(model), digest_size=8).hexdigest()
    assert peak < 0.9 * size


@pytest.mark.parametrize(
    "make",
    [
        lambda: train([random_piece(np.random.default_rng(3), 30, programs=(0, 40))], k=3),
        lambda: train(SMALL_CORPUS, k=2),
        lambda: empty_model(GRID, k=2),
    ],
    ids=["default-grid", "coarse-grid", "empty"],
)
def test_model_file_round_trips_through_a_file_and_a_pipe(make, tmp_path, monkeypatch):
    model = make()
    blob = save_model(model)
    path = tmp_path / "model.dfm"
    path.write_bytes(b"an older model")
    save_model_file(model, path)
    assert path.read_bytes() == blob
    assert [p.name for p in tmp_path.iterdir()] == ["model.dfm"]
    parsed = []

    def spy(data):
        parsed.append(type(data))
        return load_model(data)

    monkeypatch.setattr(model_module, "load_model", spy)
    loaded = [load_model_file(path)]
    if hasattr(os, "mkfifo"):
        fifo = tmp_path / "model.pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(blob,))
        writer.start()
        loaded.append(load_model_file(fifo))
        writer.join(timeout=10)
        assert not writer.is_alive()
    # A regular file is mapped, a pipe read whole.
    assert parsed == [mmap.mmap, bytes][: len(loaded)]
    want = load_model(blob)
    for got in loaded:
        assert got.fingerprint() == want.fingerprint() == model.fingerprint()
        assert save_model(got) == blob
        for table, expected in zip(got.tables, want.tables, strict=True):
            for name in ("contexts", "totals", "offsets", "codes", "counts"):
                a, b = getattr(table, name), getattr(expected, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)
                assert a.flags.c_contiguous
                # The model keeps copies, never a view of the mapped file.
                base = a.base
                while base is not None:
                    assert not isinstance(base, mmap.mmap)
                    base = base.obj if isinstance(base, memoryview) else getattr(base, "base", None)


def test_load_model_file_refuses_as_load_model_does(tmp_path):
    corpus = [simple_piece([60, 64, 67])]
    blob = save_model(train(corpus, k=2))
    tables, trained = listed_tables(corpus, 2)
    tables[1][0], tables[1][1] = tables[1][1], tables[1][0]
    bad = {
        "empty": b"",
        "magic": b"XXXX" + blob[4:],
        "header": blob[:20],
        "half": blob[: len(blob) // 2],
        "unsorted": write_blob(2, 1.0, GRID, trained, tables),
        "trailing": blob + b"\x00",
    }
    for name, data in bad.items():
        with pytest.raises(ValueError) as from_bytes:
            load_model(data)
        path = tmp_path / f"{name}.dfm"
        path.write_bytes(data)
        with pytest.raises(ValueError) as from_file:
            load_model_file(path)
        assert str(from_file.value) == str(from_bytes.value), name


def test_a_failed_save_leaves_no_temporary_file(tmp_path, monkeypatch):
    model = train([simple_piece([60, 64, 67])], k=2)
    path = tmp_path / "model.dfm"
    old = save_model(empty_model(GRID))
    path.write_bytes(old)
    parts = model_module._file_parts

    def first_part_then_fail(m):
        yield next(iter(parts(m)))
        raise OSError("disk full")

    monkeypatch.setattr(model_module, "_file_parts", first_part_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_model_file(model, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.dfm"]
    monkeypatch.undo()
    # The write succeeds but the target, a directory, cannot be replaced.
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        save_model_file(model, tmp_path / "taken")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.dfm", "taken"]


def test_empty_model_round_trips():
    model = empty_model(GRID, k=3, lam=2.0)
    blob = save_model(model)
    back = load_model(blob)
    assert save_model(back) == blob
    assert back.trained_events == 0
    for f, vec in enumerate(back.predict_next([Event(3, 1, 2, 60, 4, 0)]).vectors):
        assert np.array_equal(vec, np.full(vocab_sizes(GRID)[f], 1.0 / vocab_sizes(GRID)[f]))


@pytest.mark.parametrize("k", [0, 3])
def test_training_on_event_less_sequences_gives_the_empty_model(k):
    # An empty table 0 means a model with no counts: scoring and generation
    # search its empty tables, which miss, and stay at length 0.
    nothing = EventSequence(np.zeros((0, N_FIELDS), dtype=np.int64), GRID)
    model = train([nothing, nothing], k=k, lam=2.0)
    empty = empty_model(GRID, k=k, lam=2.0)
    assert save_model(model) == save_model(empty)
    assert model.trained_events == 0 and not any(len(t) for t in model.tables)
    vocab = np.array(vocab_sizes(GRID))
    seq = simple_piece([60, 64, 67, 60])
    nll = score_sequence(model, seq.events, 64)
    assert np.array_equal(nll, np.tile(-np.log(1.0 / vocab), (len(seq), 1)))
    predictive = score_sequence(model, seq.events, 64, "predictive")
    assert predictive == pytest.approx(np.tile(np.log(vocab), (len(seq), 1)), rel=1e-12)
    for f, vec in enumerate(model.predict_next(seq.events).vectors):
        assert np.array_equal(vec, np.full(vocab[f], 1.0 / vocab[f]))
    primes = [simple_piece([60, 62]), simple_piece([64])]
    got = generate_many(model, primes, 12, [1, 2])
    assert got == generate_many(empty, primes, 12, [1, 2])
    for result in got:
        assert result.context_depths == (12, *[0] * k)


def test_lambda_too_small_for_the_counts_is_rejected():
    with pytest.raises(ValueError, match="too small"):
        train([simple_piece([60, 64, 67] * 40)], k=4, lam=1e-300)
    with pytest.raises(ValueError, match="lambda"):
        train([simple_piece([60])], k=1, lam=float("inf"))
    train([simple_piece([60, 64, 67] * 40)], k=4, lam=1e-30).predict_next([]).validate()


def test_a_model_built_by_replace_is_checked_like_a_trained_one():
    model = train([simple_piece(list(range(40, 60)))], k=2)
    bad = {
        "lam": [-1.0, float("nan"), 0.0, 1e-300, float("inf")],
        "k": [-1, 0, 1, 3, 5],
    }
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ValueError):
                dataclasses.replace(model, **{name: value})
    with pytest.raises(ValueError, match="^a model of k = 5 needs 6 tables, got 3$"):
        dataclasses.replace(model, k=5)
    same = dataclasses.replace(model, lam=2.0)
    assert same.tables is model.tables and same.fingerprint() != model.fingerprint()


SMALL_GRID = GridSpec(resolution=4, max_beat=16, max_duration=8)
_SMALL_RNG = np.random.default_rng(23)
SMALL_CORPUS = [
    encode(
        [
            sorted(
                QuantNote(int(b), int(_SMALL_RNG.integers(0, 4)), int(p), int(d), prog)
                for b, p, d in zip(
                    _SMALL_RNG.integers(0, 16, 10),
                    _SMALL_RNG.integers(58, 66, 10),
                    _SMALL_RNG.integers(1, 9, 10),
                )
            )
        ],
        SMALL_GRID,
    )
    for prog in (0, 0, 33)
]
SMALL_BLOB = save_model(train(SMALL_CORPUS, k=2))
SMALL_CONTEXTS = (
    [],
    list(SMALL_CORPUS[0].events[:3]),
    [Event(TYPE_NOTE, 15, 3, 127, 8, 127)] * 2,
)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(0, 80), st.integers(0, len(SMALL_BLOB) - 1)),
            st.integers(1, 255),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_corrupted_blob_is_refused_or_loads_canonically(flips):
    data = bytearray(SMALL_BLOB)
    for position, mask in flips:
        data[position] ^= mask
    data = bytes(data)
    try:
        model = load_model(data)
    except ValueError:
        return
    assert save_model(model) == data
    assert model.fingerprint() == hashlib.blake2b(data, digest_size=8).hexdigest()
    # A flipped byte in the grid header can enlarge the grid; the format has
    # no checksum to notice, but a grid past the bound does not load.
    assert sum(vocab_sizes(model.grid)) <= MAX_VALUES
    for context in SMALL_CONTEXTS:
        model.predict_next(context).validate()
    scores = score_sequence(model, SMALL_CORPUS[1].events, 64, mode="predictive")
    assert np.all(np.isfinite(scores)) and np.all(scores >= 0)


# --- generation -------------------------------------------------------------

@pytest.fixture(scope="module")
def alternating_model():
    piece = simple_piece([60 if i % 2 == 0 else 64 for i in range(64)])
    return train([piece] * 300, k=4)


@pytest.fixture(scope="module")
def alternating_prime():
    return simple_piece([60 if i % 2 == 0 else 64 for i in range(8)])


def test_generate_zero_steps_returns_terminated_prime(alternating_model, alternating_prime):
    out = generate(alternating_model, alternating_prime, steps=0, seed=1)
    assert out.sampled_notes == ()
    assert event_rows(out.sequence) == event_rows(alternating_prime)
    assert event_rows(out.sequence)[-1].type == TYPE_END
    # A prime is checked on the model's grid, and every result lives on it.
    wider = EventSequence(alternating_prime.events, GridSpec(GRID.resolution, 4096, 96))
    for steps in (0, 3):
        assert generate(alternating_model, wider, steps, seed=1).sequence.grid == GRID


def test_generate_is_deterministic(alternating_model, alternating_prime):
    a = generate(alternating_model, alternating_prime, steps=12, seed=42)
    b = generate(alternating_model, alternating_prime, steps=12, seed=42)
    assert event_rows(a.sequence) == event_rows(b.sequence)
    assert a.sampled_notes == b.sampled_notes
    assert (a == b) is True
    # Seed sensitivity is only visible when the sampler has real freedom, so
    # probe it on the uniform (untrained) model.
    uniform = empty_model(GRID, k=2)
    c = generate(uniform, alternating_prime, steps=6, seed=1)
    d = generate(uniform, alternating_prime, steps=6, seed=2)
    assert c.sampled_notes != d.sampled_notes


def test_sampled_notes_are_rows_of_python_ints(alternating_model, alternating_prime):
    out = generate(alternating_model, alternating_prime, steps=12, seed=5)
    assert all(type(v) is int for note in out.sampled_notes for v in note)
    # The text a digest of the notes hashes: numpy integers would print as np.int64(...).
    assert "np.int64(" not in repr(tuple(tuple(n) for n in out.sampled_notes))
    assert list(out.sampled_notes) == sorted(out.sampled_notes)


def test_generated_events_are_valid_notes(alternating_model, alternating_prime):
    out = generate(alternating_model, alternating_prime, steps=12, seed=5)
    assert len(out.sampled_notes) == 12
    for note in out.sampled_notes:
        assert 1 <= note.duration_steps <= GRID.max_duration
        assert 0 <= note.pitch < 128
        assert 0 <= note.beat < GRID.max_beat
        assert 0 <= note.position < GRID.resolution
    validate_sequence(out.sequence)


def test_generate_rejects_malformed_prime(alternating_model):
    seq = simple_piece([60, 64])
    broken = seq.events[1:]

    with pytest.raises(SequenceStructureError):
        generate(alternating_model, EventSequence(broken, GRID), 1, seed=0)
    shuffled = (seq.events[0], seq.events[3], seq.events[1], seq.events[2], seq.events[4])
    with pytest.raises(SequenceStructureError):
        generate(alternating_model, EventSequence(shuffled, GRID), 1, seed=0)
    with pytest.raises(ValueError):
        generate(alternating_model, seq, -1, seed=0)
    # Off the grid, out of order, an instrument beyond 127: in one batch, each
    # prime gets its own error, and the valid prime its continuation.
    far, wide = seq.events.copy(), seq.events.copy()
    far[3, 1] = 5000
    wide[1, 5] = 300
    swapped = seq.events[[0, 1, 2, 4, 3, 5]]
    primes = [EventSequence(e, GRID) for e in (far, swapped, wide)] + [seq]
    results = generate_many(alternating_model, primes, 4, [0, 1, 2, 3])
    assert [str(r) for r in results[:3]] == [
        "event 3: beat 5000 outside [0, 1024)",
        "event 4: notes out of canonical order",
        "event 1: instrument 300 out of range",
    ]
    assert results[3] == generate(alternating_model, seq, 4, 3)


def terminated(prime):
    """The rows a prime stands for: no trailing end event, start-of-notes
    after a final instrument event, then one end event."""
    rows = prime.events
    if len(rows) and rows[-1, 0] == TYPE_END:
        rows = rows[:-1]
    if len(rows) and rows[-1, 0] == TYPE_INSTRUMENT:
        rows = np.vstack([rows, [TYPE_NOTES_BEGIN, 0, 0, 0, 0, 0]])
    return np.vstack([rows, [TYPE_END, 0, 0, 0, 0, 0]])


@st.composite
def prime_batches(draw):
    """Primes of different lengths for one model; some are not valid prefixes:
    malformed, with a note off the grid or out of order, or with an
    undeclared or out-of-range instrument."""
    grid = GridSpec(4, 8, 6)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def piece(n):
        notes = [
            QuantNote(int(rng.integers(0, 8)), int(rng.integers(0, 4)),
                      int(rng.integers(58, 64)), int(rng.integers(1, 7)), int(rng.choice([0, 5])))
            for _ in range(n)
        ]
        return encode([sorted(notes)], grid)

    model = train([piece(12) for _ in range(draw(st.integers(1, 4)))], k=draw(st.integers(0, 4)))
    primes = []
    for _ in range(draw(st.integers(1, 5))):
        events = piece(draw(st.integers(1, 10))).events.copy()
        notes = np.flatnonzero(events[:, 0] == TYPE_NOTE)
        cut = draw(st.sampled_from(["whole", "prefix", "header", "broken", "shuffled",
                                    "off-grid", "unordered", "undeclared", "instrument"]))
        if cut == "off-grid":
            field = draw(st.integers(1, N_FIELDS - 1))
            high = vocab_sizes(grid)[field]
            events[rng.choice(notes), field] = draw(st.sampled_from([-1, high, high + 5000]))
        elif cut == "unordered":
            # Swapping two different notes of a canonical run breaks its order.
            distinct = np.unique(events[notes], axis=0, return_index=True)[1]
            pair = notes[np.sort(distinct)[:2]]
            events[pair] = events[pair[::-1]]
        elif cut == "undeclared":
            events[rng.choice(notes), 5] = 3
        elif cut == "instrument":
            events[1, 5] = draw(st.sampled_from([-1, 128, 300]))
        elif cut == "prefix":
            events = events[: draw(st.integers(2, len(events)))]
        elif cut == "header":
            events = events[: int(np.argmax(events[:, 0] == 2))]
        elif cut == "broken":
            events = events[1:]
        elif cut == "shuffled":
            events = events[rng.permutation(len(events))]
        primes.append(EventSequence(events, grid))
    return model, primes


@settings(max_examples=40, deadline=None)
@given(prime_batches(), st.integers(0, 12), st.data())
def test_generate_many_equals_generate_for_each_prime(batch, steps, data):
    model, primes = batch
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(primes),
                               max_size=len(primes)))
    results = generate_many(model, primes, steps, seeds)
    assert len(results) == len(primes)
    for prime, seed, result in zip(primes, seeds, results):
        try:
            validate_sequence(EventSequence(terminated(prime), model.grid))
        except SequenceStructureError as exc:
            assert type(result) is SequenceStructureError and str(result) == str(exc)
            with pytest.raises(SequenceStructureError, match=re.escape(str(exc))):
                generate(model, prime, steps, seed)
            continue
        assert isinstance(result, GenerationResult)
        assert result == generate(model, prime, steps, seed)
        sampled = reference_generate(model, _validate_prime(prime, model.grid), steps, seed)
        assert result.sampled_notes == tuple(sorted(QuantNote(*v) for v in sampled))
    with pytest.raises(ValueError, match="steps"):
        generate_many(model, primes, -1, seeds)


def test_generate_many_reuses_chains_and_matches_reference(
    alternating_model, alternating_prime, monkeypatch
):
    built = []  # rows of each whole-distribution build
    backoff = model_module._backoff

    def counting(model, probs, chains, first):
        built.append(len(chains))
        return backoff(model, probs, chains, first)

    monkeypatch.setattr(model_module, "_backoff", counting)
    primes = [
        alternating_prime,
        simple_piece([64, 60, 64]),
        simple_piece([60, 60, 61, 62, 63]),
        simple_piece([70]),
    ]
    seeds = [3, 11, 12, 2**32 - 1]
    steps = 200
    results = generate_many(alternating_model, primes, steps, seeds)
    cached = sum(built)
    # A limit of 1 byte keeps one row, emptied whenever a new chain comes.
    monkeypatch.setattr(model_module, "_SAMPLE_CACHE_BYTES", 1)
    built.clear()
    assert generate_many(alternating_model, primes, steps, seeds) == results
    assert cached < len(primes) * steps // 4 < sum(built)
    for prime, seed, result in zip(primes, seeds, results):
        sampled = reference_generate(
            alternating_model, _validate_prime(prime, alternating_model.grid), steps, seed
        )
        assert result.sampled_notes == tuple(sorted(QuantNote(*v) for v in sampled))


def test_the_length_zero_row_is_built_once_per_model(alternating_prime, monkeypatch):
    roots, built = [], []
    root_row = ContextModel.__dict__["_root_row"]
    build_root, backoff = root_row.func, model_module._backoff

    def counting_roots(model):
        roots.append(model)
        return build_root(model)

    def counting_builds(model, probs, chains, first):
        built.append(len(chains))
        return backoff(model, probs, chains, first)

    monkeypatch.setattr(root_row, "func", counting_roots)
    monkeypatch.setattr(model_module, "_backoff", counting_builds)
    corpus = [alternating_prime, simple_piece([64, 60, 64, 62]), simple_piece([70, 72] * 5)]
    model, fresh = train(corpus, k=2), train(corpus, k=2)
    primes = [alternating_prime, simple_piece([64, 60, 64]), simple_piece([70])]
    results = generate_many(model, primes, 60, [5, 6, 7])
    generate_many(model, primes[1:], 30, [8, 9])
    for mode in MODES:
        score_sequences(model, [p.events for p in primes], 4, mode)
    model.predict_next(alternating_prime.events)
    # Many builds of whole distributions, one length-0 row for all of them.
    assert len(built) > 4
    assert roots == [model]
    # A fresh model builds its own row, once.
    generate_many(fresh, primes, 10, [1, 2, 3])
    fresh.predict_next(alternating_prime.events)
    assert roots == [model, fresh]
    monkeypatch.undo()
    assert results == [generate(model, p, 60, s) for p, s in zip(primes, [5, 6, 7])]


def test_generate_many_past_one_block_without_a_cache(monkeypatch):
    # More primes than one block, each meeting chains of its own: with a
    # limit of 1 byte every step drops the kept rows and builds all of the
    # step's chains anew, more than one block of them.
    rng = np.random.default_rng(17)
    corpus = [random_piece(rng, 24, programs=(0, 5)) for _ in range(40)]
    model = train(corpus, k=3)
    n = model_module._DENSE_ROWS + 9
    # Prefixes of the training pieces, whose contexts the model has seen.
    primes = [EventSequence(corpus[i % 40].events[: 3 + i // 40], GRID) for i in range(n)]
    seeds = list(range(100, 100 + n))
    monkeypatch.setattr(model_module, "_SAMPLE_CACHE_BYTES", 1)
    results = generate_many(model, primes, 6, seeds)
    assert results == [generate(model, p, 6, s) for p, s in zip(primes, seeds)]
    assert sum(r.context_depths[-1] for r in results) > n


def test_generation_on_a_loaded_model_equals_the_trained_one():
    # The step reads the loaded arrays, not the trained ones, through memoryviews.
    rng = np.random.default_rng(23)
    corpus = [random_piece(rng, 30, programs=(0, 5)) for _ in range(3)]
    model = train(corpus, k=4)
    loaded = load_model(save_model(model))
    primes = [EventSequence(c.events[:n], GRID) for c, n in zip(corpus, (3, 8, 20))]
    seeds = [1, 2, 3]
    results = generate_many(model, primes, 40, seeds)
    assert generate_many(loaded, primes, 40, seeds) == results
    assert sum(r.context_depths[-1] for r in results) > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 30))
def test_context_depths_count_steps_by_longest_matched_context(seed, k, steps):
    # Replaying the sampled events through the dict reference finds each
    # step's longest matched context; the counts must agree and sum to steps.
    rng = np.random.default_rng(seed)
    corpus = [simple_piece(rng.choice([60, 62, 64], 12)) for _ in range(3)]
    model = train(corpus, k=k)
    tables, _ = reference_train(corpus, k)
    prime = simple_piece(rng.choice([60, 62, 64], int(rng.integers(1, 6))))
    result = generate(model, prime, steps, seed)
    context = [tuple(e) for e in _validate_prime(prime, GRID).tolist()]
    want = [0] * (k + 1)
    for values in reference_generate(model, _validate_prime(prime, GRID), steps, seed):
        want[len(reference_entries(tables, k, context)) - 1] += 1
        context.append((TYPE_NOTE, *values))
    assert result.context_depths == tuple(want)
    assert sum(result.context_depths) == steps
    # A model with no counts samples every step from the uniform distribution.
    assert generate(empty_model(GRID, k), prime, steps, seed).context_depths == (
        steps, *[0] * k
    )


def test_generate_reproduces_learned_transition_stats(alternating_model, alternating_prime):
    # ~10^4 sampled notes; the empirical pitch bigram frequencies must sit
    # within 5% of the model's own learned transition probability.
    prime_ctx = list(alternating_prime.events[:-1])
    p_next = alternating_model.predict_next(prime_ctx).probability(3, 60)
    assert p_next > 0.99

    transitions = Counter()
    for seed in range(250):
        out = generate(alternating_model, alternating_prime, steps=40, seed=seed)
        pitches = [n.pitch for n in out.sampled_notes]
        for a, b in zip(pitches, pitches[1:]):
            transitions[(a, b)] += 1
    total = sum(transitions.values())
    alternating = transitions[(60, 64)] + transitions[(64, 60)]
    assert total >= 9000
    assert abs(alternating / total - p_next) < 0.05


# --- entropy sanity ---------------------------------------------------------

def test_iid_uniform_pitches_converge_to_log_m():
    # 10^5 training events of i.i.d. uniform pitches over 4 values: the
    # per-note pitch score must settle at ln 4 within 2%. k=1 keeps every
    # context densely counted, which is the regime the limit speaks to.
    pitches = np.array([60, 62, 64, 67])
    rng = np.random.default_rng(31)

    def piece(r):
        return simple_piece(pitches[r.integers(0, 4, 100)])

    model = train([piece(rng) for _ in range(1000)], k=1)
    assert model.trained_events == 1000 * 104

    eval_rng = np.random.default_rng(32)
    rows = []
    for _ in range(30):
        seq = piece(eval_rng)
        scores = score_sequence(model, seq.events, context_len=64)
        rows.extend(scores[t, 3] for t, e in enumerate(event_rows(seq)) if e.type == TYPE_NOTE)
    mean_pitch = float(np.mean(rows))
    assert abs(mean_pitch - math.log(4)) <= 0.02 * math.log(4)
