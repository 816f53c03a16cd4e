"""Back-off model: counting, interpolation, serialization, generation."""
import hashlib
import itertools
import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duetflow.events import (
    Event,
    EventSequence,
    TYPE_END,
    TYPE_NOTE,
    encode,
    validate_sequence,
    vocab_sizes,
)
from duetflow.grid import GridSpec
from duetflow.midi import QuantNote
from duetflow.model import (
    ContextModel,
    GenerationResult,
    empty_model,
    event_hash,
    generate,
    generate_many,
    load_model,
    load_model_file,
    predict_next,
    save_model,
    save_model_file,
    score_sequence,
    score_sequences,
    train,
    _event_hashes,
    _sample,
    _validate_prime,
)
from reference_events import event_rows
from reference_model import (
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
    for stream, got in zip(streams, batch):
        solo = score_sequence(model, stream, context_len, mode)
        want = reference_scores(tables, k, model.lam, model.vocab, stream, context_len, mode)
        assert got.shape == solo.shape == want.shape == (len(stream), 6)
        assert np.array_equal(got, solo) and np.array_equal(got, want)


def test_score_sequences_chunks_reach_back_across_the_chunk_edge(monkeypatch):
    # Positions right after a chunk edge take their contexts from the chunk
    # before; a small chunk puts many edges inside each stream.
    import duetflow.model as model_module

    rng = np.random.default_rng(5)
    corpus = [random_piece(rng, 30, programs=(0, 24)) for _ in range(4)]
    model = train(corpus, k=3)
    streams = [seq.events for seq in corpus]
    for mode in ("nll", "predictive"):
        whole = score_sequences(model, streams, 64, mode)
        monkeypatch.setattr(model_module, "_SCORE_CHUNK", 7)
        chunked = score_sequences(model, streams, 64, mode)
        monkeypatch.undo()
        assert all(np.array_equal(a, b) for a, b in zip(whole, chunked))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sampler_draws_what_rng_choice_draws(seed):
    # 100 rows of five fields, 500 vectors per example: field sizes from 1
    # to 300, entries spread over many orders of magnitude, some zero.
    rng = np.random.default_rng(seed)
    beat, position, pitch, duration = rng.integers(1, 300, 4).tolist()
    vocab = (5, beat, position, pitch, max(2, duration), 128)
    rows = 100
    probs = np.exp(rng.normal(0, 4, (rows, sum(vocab))))
    probs[rng.random(probs.shape) < 0.1] = 0.0
    ends = np.cumsum(vocab)
    for f in range(1, 6):
        probs[:, ends[f] - 1] += 1e-3  # every field keeps some mass past duration 0
    seeds = rng.integers(0, 2**63, rows)
    draws = np.array([np.random.default_rng(s).random(5) for s in seeds])
    got = _sample(probs, vocab, draws)
    for row, s in enumerate(seeds):
        chooser = np.random.default_rng(s)
        want = []
        for f in range(1, 6):
            vec = probs[row, ends[f] - vocab[f] : ends[f]].copy()
            if f == 4:
                vec[0] = 0.0
            vec = vec / vec.sum()
            want.append(int(chooser.choice(len(vec), p=vec)))
        assert got[row].tolist() == want


def test_wide_grids_refuse_whole_distributions():
    wide = GridSpec(max_beat=(1 << 16))
    model = empty_model(wide, k=1)
    seq = encode([[QuantNote(70, 0, 60, 4, 0)]], wide)
    with pytest.raises(ValueError, match="more than the 65536"):
        model.predict_next([])
    with pytest.raises(ValueError, match="values per distribution"):
        score_sequence(model, seq.events, 4, mode="predictive")
    with pytest.raises(ValueError, match="values per distribution"):
        generate(model, seq, 1, seed=0)
    nll = score_sequence(model, seq.events, 4)
    assert np.all(np.isfinite(nll))
    # The widest grid below the bound still gets whole distributions.
    fits = GridSpec(max_beat=(1 << 16) - sum(vocab_sizes(GridSpec(max_beat=1))) + 1)
    assert sum(vocab_sizes(fits)) == 1 << 16
    empty_model(fits, k=1).predict_next([]).validate()


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
        dists = predict_next(model, list(probe[:t]))
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

    rejected("context hashes are not strictly ascending", swap_entries)
    rejected("keys are not strictly ascending", reverse_keys)
    rejected("total or a count is 0", zero_total)
    rejected("total or a count is 0", zero_count)
    rejected("outside the vocabulary", lambda t: bump(t, 1, (1 << 20) * 8 + 6))  # field 6
    rejected("outside the vocabulary", lambda t: bump(t, 1, 128 * 8 + 3))  # pitch 128
    rejected("do not sum", lambda t: bump(t, 1, 61 * 8 + 3))  # one pitch too many
    rejected("exactly the empty context", lambda t: t[0][0].__setitem__(0, 5))
    rejected("exactly the empty context", lambda t: t[0].append([9, *t[0][0][1:]]))
    rejected("table 0 is empty", lambda t: t[0].clear(), events=0)
    rejected("table 0 total", lambda t: None, events=trained + 1)
    rejected("too small", lambda t: None, lam=1e-300)


def test_empty_model_round_trips():
    model = empty_model(GRID, k=3, lam=2.0)
    blob = save_model(model)
    back = load_model(blob)
    assert save_model(back) == blob
    assert back.trained_events == 0
    for f, vec in enumerate(back.predict_next([Event(3, 1, 2, 60, 4, 0)]).vectors):
        assert np.array_equal(vec, np.full(vocab_sizes(GRID)[f], 1.0 / vocab_sizes(GRID)[f]))


def test_lambda_too_small_for_the_counts_is_rejected():
    with pytest.raises(ValueError, match="too small"):
        train([simple_piece([60, 64, 67] * 40)], k=4, lam=1e-300)
    with pytest.raises(ValueError, match="lambda"):
        train([simple_piece([60])], k=1, lam=float("inf"))
    train([simple_piece([60, 64, 67] * 40)], k=4, lam=1e-30).predict_next([]).validate()


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
    if sum(model.vocab) > 1 << 16:
        # A flipped byte in the grid header can enlarge the grid, up to 2^32
        # values per field; the format has no checksum to notice. Whole
        # distributions over such a grid are refused before they allocate.
        for context in SMALL_CONTEXTS:
            with pytest.raises(ValueError, match="values per distribution"):
                model.predict_next(context)
        with pytest.raises(ValueError, match="values per distribution"):
            score_sequence(model, SMALL_CORPUS[1].events, 64, mode="predictive")
        return
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
    from duetflow.events import EventSequence, SequenceStructureError

    with pytest.raises(SequenceStructureError):
        generate(alternating_model, EventSequence(broken, GRID), 1, seed=0)
    shuffled = (seq.events[0], seq.events[3], seq.events[1], seq.events[2], seq.events[4])
    with pytest.raises(SequenceStructureError):
        generate(alternating_model, EventSequence(shuffled, GRID), 1, seed=0)
    with pytest.raises(ValueError):
        generate(alternating_model, seq, -1, seed=0)


@st.composite
def prime_batches(draw):
    """Primes of different lengths for one model; some are not valid prefixes."""
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
        events = piece(draw(st.integers(1, 10))).events
        cut = draw(st.sampled_from(["whole", "prefix", "header", "broken", "shuffled"]))
        if cut == "prefix":
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
            solo = generate(model, prime, steps, seed)
        except ValueError as exc:
            assert type(result) is type(exc) and str(result) == str(exc)
            continue
        assert isinstance(result, GenerationResult)
        assert result == solo
        sampled = reference_generate(model, _validate_prime(prime), steps, seed)
        assert result.sampled_notes == tuple(sorted(QuantNote(*v) for v in sampled))
    with pytest.raises(ValueError, match="steps"):
        generate_many(model, primes, -1, seeds)


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
