"""CLI commands end to end, including exit codes and config layering."""
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import duetflow
from duetflow.cli import _write_text, build_parser, main
from duetflow.config import Config, load_config
from duetflow.events import seq_from_text, seq_to_text, sequences_from_notes
from duetflow.grid import GridSpec
from duetflow.harness import training_encodings
from duetflow.midi import QuantNote, piece_from_bytes, track_to_text
from duetflow.model import empty_model, save_model, train
from duetflow.oracle import (
    copy_spec,
    embed_pieces,
    exact_flow,
    independent_spec,
    sample_paths,
    spec_from_text,
    spec_to_text,
)

from midibuild import Track, build, note_track

GRID = GridSpec()


def duet_midi(seed_pitch, n_notes=24):
    melody = [(i * 480, 480, seed_pitch + (i % 5)) for i in range(n_notes)]
    accomp = [(i * 480, 480, seed_pitch - 24 + (i % 3)) for i in range(n_notes)]
    return build(
        [
            note_track(melody, channel=0, program=5, with_tempo=True),
            note_track(accomp, channel=1, program=33),
        ]
    )


@pytest.fixture()
def midi_dir(tmp_path):
    d = tmp_path / "midi"
    d.mkdir()
    for i, pitch in enumerate((60, 64, 67, 62)):
        (d / f"piece{i}.mid").write_bytes(duet_midi(pitch))
    return d


@pytest.fixture()
def trained(tmp_path, midi_dir, capsys):
    tok = tmp_path / "tok"
    model = tmp_path / "model.dfm"
    assert main(["tokenize", str(midi_dir), "--out-dir", str(tok)]) == 0
    assert main(["train", "--corpus", str(tok), "--out", str(model)]) == 0
    capsys.readouterr()
    return tok, model


# --- the pipeline -------------------------------------------------------------

def test_tokenize_writes_three_views_per_piece(tmp_path, midi_dir, capsys):
    tok = tmp_path / "tok"
    assert main(["tokenize", str(midi_dir), "--out-dir", str(tok)]) == 0
    out = capsys.readouterr().out
    assert "wrote 12 sequences" in out
    names = sorted(p.name for p in tok.glob("piece0.*"))
    assert names == ["piece0.x.events", "piece0.xy.events", "piece0.y.events"]
    seq = seq_from_text((tok / "piece0.xy.events").read_text(), GRID)
    assert seq.note_count == 48


def test_train_reports_fingerprint_and_writes_model(tmp_path, midi_dir, capsys):
    tok = tmp_path / "tok"
    model = tmp_path / "model.dfm"
    main(["tokenize", str(midi_dir), "--out-dir", str(tok)])
    assert main(["train", "--corpus", str(tok), "--out", str(model)]) == 0
    out = capsys.readouterr().out
    assert "trained k=4" in out
    assert "12 sequences" in out
    assert model.exists()


def test_score_text_output(midi_dir, trained, capsys):
    _, model = trained
    rc = main(
        ["--burn-in", "4", "score", str(midi_dir / "piece0.mid"), "--model", str(model)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "piece: piece0" in out
    assert "total_flow:" in out
    assert "field pitch:" in out


def test_score_json_output_is_consistent(midi_dir, trained, capsys):
    _, model = trained
    rc = main(
        [
            "--burn-in", "4", "score",
            str(midi_dir / "piece1.mid"), "--model", str(model), "--json",
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["units"] == "nats"
    assert data["config"]["burn_in"] == 4
    total = sum(f["flow"] for f in data["fields"].values())
    assert data["total_flow"] == pytest.approx(total, abs=1e-9)
    assert data["total_flow_bits"] == pytest.approx(data["total_flow"] / math.log(2))


def test_score_accepts_text_voices(tmp_path, trained, capsys):
    _, model = trained
    x = tmp_path / "x.notes"
    y = tmp_path / "y.notes"
    x.write_text(track_to_text([QuantNote(i, 0, 60 + (i % 5), 12, 5) for i in range(24)]))
    y.write_text(track_to_text([QuantNote(i, 0, 36 + (i % 3), 12, 33) for i in range(24)]))
    rc = main(
        ["--burn-in", "4", "score", "--model", str(model), "--x-text", str(x), "--y-text", str(y)]
    )
    assert rc == 0
    assert "piece: x" in capsys.readouterr().out


def test_pairs_then_batch(tmp_path, midi_dir, trained, capsys):
    _, model = trained
    manifest = tmp_path / "pairs.json"
    csv_out = tmp_path / "flows.csv"
    assert main(["--seed", "9", "pairs", "--corpus", str(midi_dir), "--out", str(manifest)]) == 0
    assert "8 pairs (0 skipped) from 4 pieces" in capsys.readouterr().out
    raw = json.loads(manifest.read_text())
    assert raw["seed"] == 9
    assert len(raw["pairs"]) == 8

    rc = main(
        ["--burn-in", "4", "batch",
         "--model", str(model), "--pairs", str(manifest), "--out", str(csv_out)]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["failures"] == 0
    assert "positive" in summary["aggregates"]
    assert "t_statistic_total" in summary
    lines = csv_out.read_text().splitlines()
    assert lines[0].startswith("piece_id,label,field,H_X,H_Y,H_XY,flow")
    assert len(lines) == 1 + 8 * 6



def strict_json(text):
    """json.loads that refuses the non-standard constants NaN and Infinity."""

    def refuse(constant):
        raise AssertionError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_batch_reports_a_zero_standard_error_as_null(tmp_path, capsys):
    # Two duets scored in predictive mode by a model trained on an oracle
    # chain: every pair of a label gets the same flow, so Welch's t has a
    # zero standard error.
    duets = tmp_path / "duets"
    duets.mkdir()
    for name, shift in (("duet", 0), ("duet2", 5)):
        melody = [(i * 240, 240, 60 + shift + i % 7) for i in range(24)]
        bass = [(i * 480, 480, 36 + shift + i % 5) for i in range(20)]
        tracks = [note_track(melody, program=5, with_tempo=True),
                  note_track(bass, channel=1, program=33)]
        (duets / f"{name}.mid").write_bytes(build(tracks))
    chain, model, manifest = tmp_path / "chain", tmp_path / "chain.dfm", tmp_path / "pairs.json"
    steps = [
        ["--seed", "7", "oracle", "sample", "--length", "400", "--piece-len", "64",
         "--out-dir", str(chain)],
        ["train", "--corpus", str(chain), "--out", str(model)],
        ["pairs", "--corpus", str(duets), "--out", str(manifest)],
    ]
    for argv in steps:
        assert main(argv) == 0
    capsys.readouterr()
    rc = main(["--mode", "predictive", "--burn-in", "4", "batch", "--model", str(model),
               "--pairs", str(manifest), "--out", str(tmp_path / "flows.csv")])
    assert rc == 0
    summary = strict_json(capsys.readouterr().out)
    assert summary["t_statistic_total"] is None
    assert "standard error is 0" in summary["t_statistic_reason"]


@pytest.mark.parametrize(
    "bad_note, message",
    [
        (["0", "0", "60", "4", "0"], "note {note!r} is not 5 integers"),
        ([0, 0, 60, 4], "note {note!r} is not 5 integers"),
        ([0, 0, 60.5, 4, 0], "note {note!r} is not 5 integers"),
        ([0, 0, 60, 4, 2**64], "note fields must fit in int64"),
    ],
    ids=["string-fields", "four-fields", "float-pitch", "beyond-int64"],
)
def test_batch_rejects_malformed_manifest_notes(tmp_path, midi_dir, trained, capsys, bad_note,
                                                message):
    _, model = trained
    manifest = tmp_path / "pairs.json"
    csv_out = tmp_path / "flows.csv"
    assert main(["pairs", "--corpus", str(midi_dir), "--out", str(manifest)]) == 0
    raw = json.loads(manifest.read_text())
    raw["pairs"][1]["y"][2] = bad_note
    manifest.write_text(json.dumps(raw))
    capsys.readouterr()
    rc = main(["batch", "--model", str(model), "--pairs", str(manifest), "--out", str(csv_out)])
    assert rc == 1
    err = capsys.readouterr().err
    pair_id = raw["pairs"][1]["pair_id"]
    assert err == f"error: {manifest}: pair {pair_id!r}: {message.format(note=bad_note)}\n"
    assert not csv_out.exists()


@pytest.mark.parametrize(
    "manifest, message",
    [
        ([], "pair manifest must be a JSON object, got list"),
        ({"seed": 0, "skipped": 0, "pairs": 1}, "'pairs' must be a list"),
        ({"seed": 0, "skipped": 0}, "'pairs' must be a list"),
        ({"seed": 0, "skipped": 0, "pairs": [1]}, "pair 0 is not an object"),
        (
            {"seed": 0, "skipped": 0, "pairs": [
                {"pair_id": "a", "label": "positive", "x_source": "s", "y_source": "s",
                 "x": [], "y": []},
                {"pair_id": "b", "label": "positive", "x": [], "y": []},
            ]},
            "pair 1 is not an object with keys pair_id, label, x_source, y_source, x, y",
        ),
        (
            {"seed": 0, "skipped": 0, "pairs": [
                {"pair_id": "p", "label": "positive", "x_source": "s", "y_source": "s",
                 "x": 5, "y": []},
            ]},
            "pair 'p': notes must be a list, got 5",
        ),
    ],
    ids=["top-level-list", "pairs-not-list", "pairs-missing", "pair-not-object", "pair-missing-keys",
         "notes-not-list"],
)
def test_batch_rejects_manifest_of_wrong_shape(tmp_path, trained, capsys, manifest, message):
    _, model = trained
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(manifest))
    csv_out = tmp_path / "flows.csv"
    rc = main(["batch", "--model", str(model), "--pairs", str(path), "--out", str(csv_out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not csv_out.exists()


def _set(path, value):
    def edit(raw):
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set(("pairs", 1, "label"), "bogus"),
         "label 'bogus' is neither 'positive' nor 'negative'"),
        (_set(("pairs", 1, "pair_id"), [1]), "pair id [1] is not a string"),
        (_set(("seed",), "x"), "'seed' must be an integer, got 'x'"),
        (_set(("seed",), True), "'seed' must be an integer, got True"),
        (_set(("skipped",), 1.0), "'skipped' must be an integer, got 1.0"),
    ],
    ids=["unknown-label", "pair-id-not-string", "seed-string", "seed-bool", "skipped-float"],
)
def test_batch_rejects_manifest_values(tmp_path, midi_dir, trained, capsys, edit, message):
    _, model = trained
    manifest = tmp_path / "pairs.json"
    csv_out = tmp_path / "flows.csv"
    assert main(["pairs", "--corpus", str(midi_dir), "--out", str(manifest)]) == 0
    raw = json.loads(manifest.read_text())
    edit(raw)
    manifest.write_text(json.dumps(raw))
    capsys.readouterr()
    rc = main(["batch", "--model", str(model), "--pairs", str(manifest), "--out", str(csv_out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    if "label" in message:
        assert repr(raw["pairs"][1]["pair_id"]) in err
    assert not csv_out.exists()


def test_bias_command_reports_exact_symmetry(midi_dir, trained, capsys):
    _, model = trained
    rc = main(["--burn-in", "4", "bias", "--model", str(model), "--corpus", str(midi_dir)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n_pieces"] == 4
    assert data["bit_exact"] is True
    assert all(v == 0.0 for v in data["mse_per_field"].values())


def test_generate_command(tmp_path, trained, capsys):
    tok, model = trained
    out = tmp_path / "continued.events"
    prime = tok / "piece0.x.events"
    rc = main(
        ["--seed", "3", "generate",
         "--model", str(model), "--prime", str(prime), "--steps", "5", "--out", str(out)]
    )
    assert rc == 0
    seq = seq_from_text(out.read_text(), GRID)
    prime_seq = seq_from_text(prime.read_text(), GRID)
    assert seq.note_count == prime_seq.note_count + 5
    # After the sampled line, the steps by longest matched context length,
    # one count per length 0..k, five in all.
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == f"sampled 5 events -> {out}"
    label, counts = lines[-1].split(": ")
    assert label == "steps by longest matched context length"
    pairs = [c.split("=") for c in counts.split()]
    assert [int(j) for j, _ in pairs] == list(range(5))
    assert sum(int(n) for _, n in pairs) == 5


def test_generate_refuses_a_prime_out_of_order(tmp_path, trained, capsys):
    tok, model = trained
    rows = (tok / "piece0.x.events").read_text().splitlines()
    first = next(i for i, row in enumerate(rows) if row.startswith("3 "))
    rows[first], rows[first + 1] = rows[first + 1], rows[first]
    prime = tmp_path / "swapped.events"
    prime.write_text("\n".join(rows) + "\n")
    out = tmp_path / "continued.events"
    capsys.readouterr()
    rc = main(["generate", "--model", str(model), "--prime", str(prime), "--steps", "5",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {prime}: event {first + 1}: notes out of canonical order\n"
    assert not captured.out and not out.exists()


def _corrupt_first_note(path, field, value):
    """Rewrite one field of the first note event of an event file; its line number."""
    rows = path.read_text().splitlines()
    first = next(i for i, row in enumerate(rows) if row.startswith("3 "))
    tokens = rows[first].split(" ")
    tokens[field] = value
    rows[first] = " ".join(tokens)
    path.write_text("\n".join(rows) + "\n")
    return first + 1


# A field the grid refuses, and a token beyond int64.
BAD_TOKENS = [
    (1, "99999", "event {index}: beat 99999 outside [0, 1024)"),
    (3, "99999999999999999999", "line {line}: 99999999999999999999 does not fit in int64"),
]


@pytest.mark.parametrize("field, value, message", BAD_TOKENS, ids=["off-grid", "beyond-int64"])
def test_train_names_the_corpus_file_it_cannot_read(tmp_path, trained, capsys, field, value,
                                                    message):
    tok, _ = trained
    bad = tok / "piece2.xy.events"
    line = _corrupt_first_note(bad, field, value)
    out = tmp_path / "bad.dfm"
    rc = main(["train", "--corpus", str(tok), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {bad}: {message.format(index=line - 1, line=line)}\n"
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("field, value, message", BAD_TOKENS, ids=["off-grid", "beyond-int64"])
def test_selfbias_names_the_prime_file_it_cannot_read(tmp_path, trained, capsys, field, value,
                                                      message):
    tok, model = trained
    primes = tmp_path / "primes"
    primes.mkdir()
    for name in ("piece0.x.events", "piece1.x.events"):
        (primes / name).write_text((tok / name).read_text())
    bad = primes / "piece1.x.events"
    line = _corrupt_first_note(bad, field, value)
    rc = main(["selfbias", "--model-a", str(model), "--model-b", str(model),
               "--primes", str(primes), "--steps", "24"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {bad}: {message.format(index=line - 1, line=line)}\n"
    assert not captured.out


@pytest.mark.parametrize("field, value, message", BAD_TOKENS, ids=["off-grid", "beyond-int64"])
def test_generate_names_the_prime_file_it_cannot_read(tmp_path, trained, capsys, field, value,
                                                      message):
    # The off-grid beat is refused by generate's prime check, the wide token
    # by the reader: both errors start with the prime's path.
    tok, model = trained
    prime = tmp_path / "bad.events"
    prime.write_text((tok / "piece0.x.events").read_text())
    line = _corrupt_first_note(prime, field, value)
    out = tmp_path / "continued.events"
    rc = main(["generate", "--model", str(model), "--prime", str(prime), "--steps", "5",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {prime}: {message.format(index=line - 1, line=line)}\n"
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("voice", ["--x-text", "--y-text"])
@pytest.mark.parametrize(
    "line, message",
    [
        ("1 0 60 4 -5", "line 2: negative field"),
        ("1 0 60 4 18446744073709551616", "line 2: 18446744073709551616 does not fit in int64"),
    ],
    ids=["negative", "beyond-int64"],
)
def test_score_names_the_voice_file_it_cannot_read(tmp_path, trained, capsys, voice, line,
                                                   message):
    _, model = trained
    good = tmp_path / "good.notes"
    bad = tmp_path / "bad.notes"
    good.write_text(track_to_text([QuantNote(i, 0, 60, 4, 0) for i in range(8)]))
    bad.write_text(f"0 0 60 4 0\n{line}\n")
    texts = {"--x-text": str(good), "--y-text": str(good), voice: str(bad)}
    rc = main(["score", "--model", str(model), *(a for kv in texts.items() for a in kv)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {bad}: {message}\n"
    assert not captured.out


def test_selfbias_command(tmp_path, midi_dir, trained, capsys):
    tok, model = trained
    other_midi = tmp_path / "midi2"
    other_midi.mkdir()
    for i, pitch in enumerate((48, 52)):
        (other_midi / f"alt{i}.mid").write_bytes(duet_midi(pitch))
    tok2 = tmp_path / "tok2"
    model2 = tmp_path / "model2.dfm"
    main(["tokenize", str(other_midi), "--out-dir", str(tok2)])
    main(["train", "--corpus", str(tok2), "--out", str(model2)])

    primes = tmp_path / "primes"
    primes.mkdir()
    for name in ("piece0.x.events", "piece1.x.events"):
        (primes / name).write_text((tok / name).read_text())
    capsys.readouterr()
    rc = main(
        ["--burn-in", "4", "selfbias",
         "--model-a", str(model), "--model-b", str(model2),
         "--primes", str(primes), "--steps", "24"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "primes: 2 (skipped 0), steps: 24" in out
    assert "scorer_a_prefers_own:" in out


@pytest.mark.parametrize("steps, code", [(-1, 1), (0, 1), (16, 1), (17, 0)])
def test_selfbias_needs_more_steps_than_the_burn_in(tmp_path, trained, capsys, steps, code):
    tok, model = trained
    primes = tmp_path / "primes"
    primes.mkdir()
    (primes / "piece0.x.events").write_text((tok / "piece0.x.events").read_text())
    rc = main(
        ["selfbias", "--model-a", str(model), "--model-b", str(model),
         "--primes", str(primes), "--steps", str(steps)]
    )
    out = capsys.readouterr()
    assert rc == code
    if code:
        assert out.err == (
            f"error: steps {steps} must exceed burn_in 16, "
            "or no continuation has an event to score\n"
        )
    else:
        assert "primes: 1 (skipped 0), steps: 17" in out.out


def test_selfbias_refuses_a_negative_seed(tmp_path, trained, capsys):
    tok, model = trained
    primes = tmp_path / "primes"
    primes.mkdir()
    (primes / "piece0.x.events").write_text((tok / "piece0.x.events").read_text())
    rc = main(
        ["--seed", "-1", "selfbias", "--model-a", str(model), "--model-b", str(model),
         "--primes", str(primes), "--steps", "24"]
    )
    out = capsys.readouterr()
    assert rc == 1
    assert out.err == "error: config key 'seed' must be >= 0, got -1\n"
    assert not out.out


@pytest.mark.parametrize("command", ["oracle", "generate", "pairs"])
def test_negative_seed_exits_1_naming_the_config_key(tmp_path, midi_dir, trained, capsys, command):
    tok, model = trained
    out_path = tmp_path / "out"
    args = {
        "oracle": ["--seed", "-1", "oracle", "sample", "--length", "400", "--piece-len", "64",
                   "--out-dir", str(out_path)],
        "generate": ["--seed", "-3", "generate", "--model", str(model), "--prime",
                     str(tok / "piece0.x.events"), "--steps", "4", "--out", str(out_path)],
        "pairs": ["--seed", "-1", "pairs", "--corpus", str(midi_dir), "--out", str(out_path)],
    }[command]
    rc = main(args)
    out = capsys.readouterr()
    assert rc == 1
    seed = args[1]
    assert out.err == f"error: config key 'seed' must be >= 0, got {seed}\n"
    assert not out.out
    assert not out_path.exists()


def test_oracle_exact_command(capsys, tmp_path):
    assert main(["oracle", "exact", "--chain", "copy", "--alphabet", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["te_x_to_y"] == pytest.approx(math.log(2), abs=1e-12)
    assert data["info_flow"] == pytest.approx(math.log(2), abs=1e-12)

    spec_path = tmp_path / "indep.spec"
    spec_path.write_text(spec_to_text(independent_spec()))
    assert main(["oracle", "exact", "--spec", str(spec_path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["info_flow"] == pytest.approx(0.0, abs=1e-12)


def test_oracle_exact_entropies_of_a_period_two_chain_are_positive_zero(capsys, tmp_path):
    # X switches at every step and Y has one symbol: nothing is uncertain.
    spec_path = tmp_path / "swap.spec"
    spec_path.write_text("2 1\n0.0 1.0\n1.0 0.0\n1.0 0.0\n")
    values = exact_flow(spec_from_text(spec_path.read_text())).to_dict().values()
    assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values)
    assert main(["oracle", "exact", "--spec", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "-0.0" not in out
    assert all(math.copysign(1.0, v) == 1.0 for v in json.loads(out).values())


@pytest.mark.parametrize("alphabet", ["0", "-1", "9", "1000"])
@pytest.mark.parametrize("command", ["exact", "sample"])
def test_oracle_alphabet_outside_the_range_exits_1(tmp_path, capsys, alphabet, command):
    extra = ["--length", "100", "--out-dir", str(tmp_path / "out")] if command == "sample" else []
    for chain in ("copy", "instantaneous"):
        rc = main(["oracle", command, "--chain", chain, "--alphabet", alphabet, *extra])
        out = capsys.readouterr()
        assert rc == 1
        assert out.err == "error: alphabet sizes must be in [1, 8]\n" and not out.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, value, error",
    [
        ("--length", "0", "length must be >= 1"),
        ("--length", "-5", "length must be >= 1"),
        ("--piece-len", "0", "piece_len must be >= 1"),
        ("--piece-len", "-3", "piece_len must be >= 1"),
        ("--piece-len", "101", "length 100 is shorter than one piece of 101"),
    ],
)
def test_oracle_sample_refusal_leaves_no_directory(tmp_path, capsys, flag, value, error):
    out_dir = tmp_path / "chain"
    rc = main(["oracle", "sample", "--length", "100", flag, value, "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {error}\n" and not captured.out
    assert not out_dir.exists()


def test_oracle_sample_command(tmp_path, capsys):
    out_dir = tmp_path / "chain"
    rc = main(
        ["--seed", "7", "oracle", "sample",
         "--chain", "copy", "--length", "100", "--piece-len", "32",
         "--out-dir", str(out_dir)]
    )
    assert rc == 0
    assert "wrote 9 sequences" in capsys.readouterr().out
    files = sorted(p.name for p in out_dir.glob("*.events"))
    assert files[:3] == ["chain-0000.x.events", "chain-0000.xy.events", "chain-0000.y.events"]
    assert len(files) == 9
    seq = seq_from_text((out_dir / "chain-0002.xy.events").read_text(), GRID)
    assert seq.note_count == 64

    again = tmp_path / "chain2"
    main(["--seed", "7", "oracle", "sample", "--chain", "copy", "--length", "100",
          "--piece-len", "32", "--out-dir", str(again)])
    assert (again / "chain-0001.xy.events").read_text() == (
        out_dir / "chain-0001.xy.events"
    ).read_text()


def test_oracle_sample_splits_shared_programs_like_scoring(tmp_path, capsys):
    out_dir = tmp_path / "chain"
    rc = main(
        ["--seed", "7", "--split-shared-programs", "oracle", "sample",
         "--chain", "copy", "--length", "100", "--piece-len", "32",
         "--out-dir", str(out_dir)]
    )
    assert rc == 0
    xs, ys = sample_paths(copy_spec(2), 100, 7)
    pieces = embed_pieces(xs, ys, 32, GRID)
    assert len(pieces) == 3
    for i, (x, y) in enumerate(pieces):
        views = sequences_from_notes(x, y, GRID, split_shared_programs=True)
        for tag, seq in zip(("x", "y", "xy"), views):
            assert (out_dir / f"chain-{i:04d}.{tag}.events").read_text() == seq_to_text(seq)
    # Both voices play program 0, so the merged view declares programs 0 and 1.
    xy = seq_from_text((out_dir / "chain-0000.xy.events").read_text(), GRID)
    assert xy.events[1:3, 5].tolist() == [0, 1]


def test_split_training_encodings_count_what_split_tokenize_writes(tmp_path, capsys):
    midi_dir = tmp_path / "midi"
    midi_dir.mkdir()
    for i, pitch in enumerate((60, 64, 67)):
        melody = [(j * 480, 480, pitch + j % 5) for j in range(20)]
        accomp = [(j * 960, 960, pitch - 12 + j % 3) for j in range(10)]
        both_program_5 = build(
            [note_track(melody, channel=0, program=5), note_track(accomp, channel=1, program=5)]
        )
        (midi_dir / f"shared{i}.mid").write_bytes(both_program_5)
    tok, model = tmp_path / "tok", tmp_path / "model.dfm"
    args = ["--split-shared-programs", "tokenize", str(midi_dir), "--out-dir", str(tok)]
    assert main(args) == 0
    assert main(["train", "--corpus", str(tok), "--out", str(model)]) == 0
    pieces = [
        piece_from_bytes(p.read_bytes(), p.stem, GRID) for p in sorted(midi_dir.glob("*.mid"))
    ]
    split = training_encodings(pieces, split_shared_programs=True)
    assert save_model(train(split, k=4)) == model.read_bytes()
    assert save_model(train(training_encodings(pieces), k=4)) != model.read_bytes()


def test_tokenize_reports_ingest_losses(tmp_path, capsys):
    melody = [(i * 480, 480, 60 + i % 5) for i in range(8)]
    late = [(3000 * 480, 480, 62)]  # beat 3000 is past max_beat: dropped
    accomp = Track().program(0, 33, channel=1)
    for i in range(8):
        accomp.note_on(0, 48 + i % 3, channel=1).note_off(480, 48 + i % 3, channel=1)
    accomp.note_on(0, 40, channel=1).end(480)  # never closed
    drums = Track()
    for i in range(5):
        drums.note_on(0, 36, channel=9).note_off(120, 36, channel=9)
    # A drum note never closed counts as a drum left out, not as unclosed.
    drums.note_on(0, 38, channel=9).end(480)
    tracks = [
        note_track(melody + late, channel=0, program=5),
        accomp,
        drums,
    ]
    (tmp_path / "duet.mid").write_bytes(build(tracks))
    rc = main(["tokenize", str(tmp_path / "duet.mid"), "--out-dir", str(tmp_path / "tok")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote 3 sequences" in out
    assert "(0 inputs skipped); notes dropped 1, unclosed 1, drums left out 6" in out


def test_tokenize_reports_clipped_durations(tmp_path, capsys):
    # 9600 ticks at 480 per beat is 240 positions, clipped to max_duration.
    melody = [(0, 9600, 60)] + [(i * 480, 480, 62) for i in range(1, 8)]
    accomp = [(i * 480, 480, 40) for i in range(8)]
    tracks = [note_track(melody, program=5), note_track(accomp, channel=1, program=33)]
    (tmp_path / "duet.mid").write_bytes(build(tracks))
    rc = main(["tokenize", str(tmp_path / "duet.mid"), "--out-dir", str(tmp_path / "tok")])
    assert rc == 0
    assert "drums left out 0, durations clipped 1" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["exact", "sample"])
@pytest.mark.parametrize("line", [1, 5], ids=["transition-row", "initial-law"])
def test_oracle_rejects_nan_spec(tmp_path, capsys, command, line):
    lines = spec_to_text(independent_spec()).splitlines()
    lines[line] = "nan " + lines[line].split(" ", 1)[1]
    spec_path = tmp_path / "nan.spec"
    spec_path.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "chain"
    extra = {"exact": [], "sample": ["--length", "100", "--out-dir", str(out_dir)]}[command]
    rc = main(["oracle", command, "--spec", str(spec_path), *extra])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {spec_path}: probabilities must be finite\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("nonsense\n", "first line must be the two alphabet sizes"),
        ("-2 -2\n" + spec_to_text(copy_spec(2)).split("\n", 1)[1],
         "alphabet sizes must be in [1, 8]"),
        ("3 0\n", "alphabet sizes must be in [1, 8]"),
    ],
    ids=["no-sizes", "negative-sizes", "zero-size"],
)
def test_oracle_names_the_spec_file_it_cannot_read(tmp_path, capsys, text, message):
    spec_path = tmp_path / "bad.spec"
    spec_path.write_text(text)
    rc = main(["oracle", "exact", "--spec", str(spec_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {spec_path}: {message}\n"
    assert not captured.out


# --- exit codes -----------------------------------------------------------------

def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.mid"
    bad.write_bytes(b"MThd" + b"\x00" * 10)
    rc = main(["tokenize", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tokenize", "pairs", "bias"])
def test_missing_midi_path_exits_1_naming_it(tmp_path, trained, capsys, command):
    _, model = trained
    missing = tmp_path / "nonexistent"
    args = {
        "tokenize": ["tokenize", str(missing), "--out-dir", str(tmp_path / "out")],
        "pairs": ["pairs", "--corpus", str(missing), "--out", str(tmp_path / "p.json")],
        "bias": ["bias", "--model", str(model), "--corpus", str(missing)],
    }[command]
    rc = main(args)
    out = capsys.readouterr()
    assert rc == 1
    assert out.err == f"error: {missing} does not exist\n"
    assert not out.out and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["tokenize", "pairs", "bias"])
def test_midi_directory_without_midi_files_exits_1_naming_it(tmp_path, trained, capsys, command):
    _, model = trained
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("not a MIDI file\n")
    args = {
        "tokenize": ["tokenize", str(empty), "--out-dir", str(tmp_path / "out")],
        "pairs": ["pairs", "--corpus", str(empty), "--out", str(tmp_path / "p.json")],
        "bias": ["bias", "--model", str(model), "--corpus", str(empty)],
    }[command]
    rc = main(args)
    out = capsys.readouterr()
    assert rc == 1
    assert out.err == f"error: no .mid or .midi files in {empty}\n"
    assert not out.out and not (tmp_path / "out").exists()
    assert not (tmp_path / "p.json").exists()


def test_tokenize_one_track_file_writes_a_solo_view(tmp_path, capsys):
    solo = tmp_path / "solo.mid"
    solo.write_bytes(build([note_track([(i * 480, 480, 60 + i % 3) for i in range(20)])]))
    assert main(["tokenize", str(solo), "--out-dir", str(tmp_path / "tok")]) == 0
    assert "wrote 1 sequences" in capsys.readouterr().out
    assert [p.name for p in (tmp_path / "tok").iterdir()] == ["solo.solo.events"]
    seq = seq_from_text((tmp_path / "tok" / "solo.solo.events").read_text(), GRID)
    assert seq.note_count == 20


def test_tokenize_three_track_file_is_skipped_or_refused(tmp_path, capsys):
    d = tmp_path / "mix"
    d.mkdir()
    notes = [(i * 480, 480, 60) for i in range(8)]
    trio = build([note_track(notes, channel=c) for c in range(3)])
    (d / "trio.mid").write_bytes(trio)
    (d / "good.mid").write_bytes(duet_midi(60))
    rc = main(["tokenize", str(d), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "wrote 3 sequences" in captured.out and "(1 inputs skipped)" in captured.out
    assert "skipping trio.mid: " in captured.err and "3 non-empty tracks" in captured.err
    rc = main(["tokenize", str(d / "trio.mid"), "--out-dir", str(tmp_path / "out2")])
    assert rc == 3
    assert "3 non-empty tracks" in capsys.readouterr().err


def test_tokenize_directory_skips_bad_files(tmp_path, capsys):
    d = tmp_path / "mix"
    d.mkdir()
    (d / "good.mid").write_bytes(duet_midi(60))
    (d / "bad.mid").write_bytes(b"not midi at all")
    rc = main(["tokenize", str(d), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "wrote 3 sequences" in captured.out
    assert "(1 inputs skipped)" in captured.out
    assert "skipping bad.mid" in captured.err


def test_ineligible_exit_code(tmp_path, trained, capsys):
    _, model = trained
    solo = tmp_path / "solo.mid"
    solo.write_bytes(build([note_track([(i * 480, 480, 60) for i in range(20)], program=0)]))
    rc = main(["score", str(solo), "--model", str(model)])
    assert rc == 3
    assert "tracks" in capsys.readouterr().err


def test_convergence_exit_code(tmp_path, capsys):
    # two states that never leave, both holding initial mass: no unique law
    spec_path = tmp_path / "stay.spec"
    spec_path.write_text("2 1\n1.0 0.0\n0.0 1.0\n0.5 0.5\n")
    rc = main(["oracle", "exact", "--spec", str(spec_path)])
    assert rc == 4
    assert "communicating class" in capsys.readouterr().err


def test_value_error_exit_codes(tmp_path, midi_dir, trained, capsys):
    _, model = trained
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["train", "--corpus", str(empty), "--out", str(tmp_path / "m.dfm")]) == 1
    assert main(["score", "--model", str(model)]) == 1  # neither MIDI nor text voices
    # a model trained on one grid refuses a mismatched scoring grid
    assert main(
        ["--resolution", "6", "score", str(midi_dir / "piece0.mid"), "--model", str(model)]
    ) == 1
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["score", "PIECE", "--x-text", "X"],
        ["score", "PIECE", "--x-text", "X", "--y-text", "X"],
        ["score", "--x-text", "X"],
        ["score", "--y-text", "X"],
        ["oracle", "exact", "--chain", "independent", "--alphabet", "5"],
        ["oracle", "exact", "--spec", "SPEC", "--alphabet", "3"],
        ["oracle", "sample", "--spec", "SPEC", "--alphabet", "3",
         "--length", "100", "--out-dir", "OUT"],
    ],
    ids=["piece-and-x", "piece-and-both", "x-only", "y-only", "independent-alphabet",
         "spec-alphabet", "sample-spec-alphabet"],
)
def test_flags_that_would_be_ignored_exit_1(tmp_path, midi_dir, trained, capsys, args):
    _, model = trained
    x = tmp_path / "x.notes"
    x.write_text(track_to_text([QuantNote(i, 0, 60 + i % 5, 12, 5) for i in range(24)]))
    spec = tmp_path / "copy.spec"
    spec.write_text(spec_to_text(copy_spec(3)))
    paths = {"PIECE": midi_dir / "piece0.mid", "X": x, "SPEC": spec, "OUT": tmp_path / "out"}
    argv = [str(paths.get(a, a)) for a in args]
    if args[0] == "score":
        argv += ["--model", str(model)]
    capsys.readouterr()
    rc = main(argv)
    out = capsys.readouterr()
    assert rc == 1
    assert out.err.startswith("error: ") and not out.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["score", "batch", "bias", "selfbias", "generate"])
def test_model_grid_must_match_config_grid(tmp_path, midi_dir, trained, capsys, command):
    tok, model = trained
    manifest = tmp_path / "pairs.json"
    assert main(["pairs", "--corpus", str(midi_dir), "--out", str(manifest)]) == 0
    args = {
        "score": ["score", str(midi_dir / "piece0.mid"), "--model", str(model)],
        "batch": ["batch", "--model", str(model), "--pairs", str(manifest),
                  "--out", str(tmp_path / "o.csv")],
        "bias": ["bias", "--model", str(model), "--corpus", str(midi_dir)],
        "selfbias": ["selfbias", "--model-a", str(model), "--model-b", str(model),
                     "--primes", str(tok), "--steps", "2"],
        "generate": ["generate", "--model", str(model), "--prime",
                     str(tok / "piece0.x.events"), "--steps", "2",
                     "--out", str(tmp_path / "g.events")],
    }[command]
    capsys.readouterr()
    rc = main(["--resolution", "6", "--burn-in", "4", *args])
    out = capsys.readouterr()
    assert rc == 1
    assert out.err.startswith(f"error: {model}: model grid ")
    assert "does not match config" in out.err
    assert "Traceback" not in out.err and not out.out


@pytest.mark.parametrize(
    "entry",
    [
        {"mode": "bogus"},
        {"xy_norm": "x"},
        {"burn_in": 0},
        {"context_len": -3},
        {"resolution": 0},
        {"k": -1},
        {"lam": 0},
        {"max_beat": 70000},
    ],
    ids=lambda entry: "-".join(f"{k}={v}" for k, v in entry.items()),
)
@pytest.mark.parametrize("command", ["train", "oracle"])
def test_out_of_range_config_exits_1(tmp_path, trained, capsys, entry, command):
    tok, _ = trained
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(entry))
    model = tmp_path / "new.dfm"
    args = {
        "train": ["train", "--corpus", str(tok), "--out", str(model)],
        "oracle": ["oracle", "exact"],
    }[command]
    capsys.readouterr()
    rc = main(["--config", str(cfg), *args])
    out = capsys.readouterr()
    assert rc == 1
    assert out.err.startswith("error: ")
    assert "Traceback" not in out.err and not out.out
    assert not model.exists()


def test_a_failed_text_write_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text("old\n")
    # A lone surrogate fails to encode once the temporary file is open.
    with pytest.raises(UnicodeEncodeError):
        _write_text(path, "\ud800")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["flows.csv"]
    # The write succeeds but the target, a directory, cannot be replaced.
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        _write_text(tmp_path / "taken", "new\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["flows.csv", "taken"]


def test_lambda_beyond_every_float_is_refused(tmp_path, trained, capsys):
    # JSON reads 1 followed by 400 zeros as an int that no float holds.
    huge = 10**400
    x, _, _ = sequences_from_notes([(0, 0, 60, 12, 0)], [(0, 0, 64, 12, 0)], GridSpec())
    for make in (
        lambda: Config(lam=huge),
        lambda: empty_model(GridSpec(), lam=huge),
        lambda: train([x], k=1, lam=huge),
    ):
        refusal = "^lambda must be positive and finite, got 1000"
        with pytest.raises(ValueError, match=refusal) as info:
            make()
        assert len(str(info.value)) < 120
    tok, _ = trained
    cfg = tmp_path / "run.json"
    cfg.write_text('{"lam": 1' + "0" * 400 + "}")
    model = tmp_path / "new.dfm"
    for args in (["train", "--corpus", str(tok), "--out", str(model)], ["oracle", "exact"]):
        capsys.readouterr()
        rc = main(["--config", str(cfg), *args])
        out = capsys.readouterr()
        assert rc == 1 and not out.out
        assert out.err.startswith("error: lambda must be positive and finite, got 1000")
        assert out.err.count("\n") == 1 and "Traceback" not in out.err
        # The value is shortened, not echoed with all its 401 digits.
        assert len(out.err) < 120
    assert not model.exists()


def test_override_flags_are_the_config_fields():
    parser = build_parser()
    fields = {f.name: f.type for f in dataclasses.fields(Config)}
    (group,) = [g for g in parser._action_groups if g.title == "config overrides"]
    flags = {a.dest: a.option_strings for a in group._group_actions}
    assert flags == {name: ["--" + name.replace("_", "-")] for name in fields}

    values = {"int": ["3"], "float": ["2"], "bool": [], "mode": ["predictive"],
              "xy_norm": ["per_event"]}
    argv = []
    for name, kind in fields.items():
        argv += ["--" + name.replace("_", "-"), *values.get(name, values.get(kind))]
    args = parser.parse_args([*argv, "oracle", "exact"])
    for name, kind in fields.items():
        assert type(getattr(args, name)).__name__ == kind, name
    assert args.lam == 2.0 and args.k == 3
    assert args.split_shared_programs is True and args.include_drums is True

    defaults = parser.parse_args(["oracle", "exact"])
    assert all(getattr(defaults, name) is None for name in fields)


@pytest.mark.parametrize("flag", ["--split-shared-programs", "--include-drums"])
def test_boolean_flags_take_no_value(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag, "true", "oracle", "exact"])
    assert exc.value.code == 2
    assert "invalid choice: 'true'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--mode", "--xy-norm"])
def test_flags_with_fixed_values_refuse_others_in_the_parser(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag, "bogus", "oracle", "exact"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_config_file_with_flag_overrides(tmp_path, midi_dir, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"k": 2, "burn_in": 4, "seed": 11}))
    tok = tmp_path / "tok"
    model = tmp_path / "model.dfm"
    main(["tokenize", str(midi_dir), "--out-dir", str(tok)])
    assert main(
        ["--config", str(cfg), "--k", "3", "train", "--corpus", str(tok), "--out", str(model)]
    ) == 0
    assert "trained k=3" in capsys.readouterr().out

    rc = main(
        ["--config", str(cfg), "score", str(midi_dir / "piece0.mid"),
         "--model", str(model), "--json"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["k"] == 2          # file value, no flag this time
    assert data["config"]["burn_in"] == 4
    assert data["config"]["seed"] == 11


def test_reports_carry_the_run_config(tmp_path, midi_dir, trained, capsys):
    # A file value and a flag, both in the config every JSON report prints.
    _, model = trained
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"burn_in": 4}))
    want = Config(burn_in=4, seed=9).to_dict()
    manifest = tmp_path / "pairs.json"
    assert main(["--seed", "9", "pairs", "--corpus", str(midi_dir), "--out", str(manifest)]) == 0
    capsys.readouterr()
    runs = {
        "score": ["score", str(midi_dir / "piece0.mid"), "--model", str(model), "--json"],
        "batch": ["batch", "--model", str(model), "--pairs", str(manifest),
                  "--out", str(tmp_path / "flows.csv")],
        "bias": ["bias", "--model", str(model), "--corpus", str(midi_dir)],
    }
    for command, args in runs.items():
        assert main(["--config", str(cfg), "--seed", "9", *args]) == 0, command
        data = json.loads(capsys.readouterr().out)
        assert data["config"] == want, command
        if command != "batch":  # batch adds its t-statistic after the config
            assert list(data)[-1] == "config", command


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"resolutoin": 12}))
    rc = main(["--config", str(cfg), "oracle", "exact"])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_load_config_refuses_a_non_object_and_an_unknown_override(tmp_path):
    cfg = tmp_path / "list.json"
    cfg.write_text("[]")
    with pytest.raises(ValueError, match=f"^{re.escape(str(cfg))}: config must be a JSON object$"):
        load_config(cfg)
    with pytest.raises(ValueError, match="^unknown config override 'bogus'$"):
        load_config(None, {"bogus": 1})


def test_malformed_config_and_model_files_are_named(tmp_path, trained, capsys):
    tok, model = trained
    cfg = tmp_path / "bad.json"
    cfg.write_text("{")
    assert main(["--config", str(cfg), "oracle", "exact"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}: Expecting ")
    junk = tmp_path / "junk.dfm"
    junk.write_bytes(b"not a model")
    rc = main(["selfbias", "--model-a", str(model), "--model-b", str(junk),
               "--primes", str(tok), "--steps", "2"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {junk}: not a model file (bad magic)\n"


_CONFIG_TYPES = {f.name: f.type for f in dataclasses.fields(Config)}


def _admitted(kind, value):
    if kind == "float":
        return type(value) in (int, float)
    return type(value).__name__ == kind


_ANY_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.sampled_from(sorted(_CONFIG_TYPES)).flatmap(
        lambda key: st.tuples(
            st.just(key), _ANY_JSON.filter(lambda v: not _admitted(_CONFIG_TYPES[key], v))
        )
    ),
    st.sampled_from(["oracle", "train", "score", "batch", "generate", "selfbias", "tokenize"]),
)
def test_wrongly_typed_config_exits_1_naming_the_key(trained, midi_dir, capsys, entry, command):
    key, value = entry
    tok, model = trained
    args = {
        "oracle": ["oracle", "exact"],
        "train": ["train", "--corpus", str(tok), "--out", str(model) + ".new"],
        "score": ["score", str(midi_dir / "piece0.mid"), "--model", str(model)],
        "batch": ["batch", "--model", str(model), "--pairs", "p.json", "--out", "o.csv"],
        "generate": ["generate", "--model", str(model), "--prime",
                     str(tok / "piece0.x.events"), "--steps", "2", "--out", "g.events"],
        "selfbias": ["selfbias", "--model-a", str(model), "--model-b", str(model),
                     "--primes", str(tok), "--steps", "2"],
        "tokenize": ["tokenize", str(midi_dir), "--out-dir", "tok"],
    }[command]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.json"
        cfg.write_text(json.dumps({key: value}))
        capsys.readouterr()
        rc = main(["--config", str(cfg), *args])
    out = capsys.readouterr()
    assert rc == 1
    assert out.err.startswith(f"error: config key {key!r} must be ")
    assert "Traceback" not in out.err and not out.out


# --- console script ---------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parents[1]
# The directory holding the duetflow package this suite imported; child
# interpreters put it first on their path so they run the same tree.
PACKAGE_ROOT = Path(duetflow.__file__).resolve().parents[1]


def run_python(*args):
    pythonpath = [str(PACKAGE_ROOT)]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def test_console_script_is_wired_up():
    result = run_python("-m", "duetflow.cli", "--help")
    assert result.returncode == 0, result.stderr
    assert "usage: duetflow" in result.stdout

    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert "duetflow" in scripts, "pyproject.toml declares no duetflow script"
    spec = scripts["duetflow"]
    assert re.fullmatch(r"[\w.]+:\w+", spec), spec

    entry = EntryPoint(name="duetflow", value=spec, group="console_scripts")
    assert entry.load() is main

    # The body of the wrapper script an installer writes for this entry.
    wrapper = f"import sys; from {entry.module} import {entry.attr}; sys.exit({entry.attr}())"
    result = run_python("-c", wrapper, "--help")
    assert result.returncode == 0, result.stderr
    assert "usage: duetflow" in result.stdout


def test_runtime_imports_no_scipy():
    # Nor the process pool's modules: only batch_score with workers > 1 loads them.
    code = (
        "import sys, duetflow, duetflow.cli; "
        "names = ('scipy', 'multiprocessing', 'concurrent.futures.process'); "
        "print(sorted(m for m in sys.modules for n in names if m == n or m.startswith(n + '.')))"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.skipif(
    shutil.which("duetflow") is None, reason="no duetflow script on PATH"
)
def test_installed_console_script_runs_this_cli():
    script = subprocess.run(["duetflow", "--help"], capture_output=True, text=True)
    assert script.returncode == 0, script.stderr
    # A script left on PATH by another checkout prints another help text.
    assert script.stdout == run_python("-m", "duetflow.cli", "--help").stdout
