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
from duetflow.cli import main
from duetflow.config import Config
from duetflow.events import seq_from_text
from duetflow.grid import GridSpec
from duetflow.midi import track_to_text
from duetflow.oracle import independent_spec, spec_to_text

from midibuild import build, note_track

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
    from duetflow.midi import QuantNote

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


@pytest.mark.parametrize(
    "bad_note",
    [["0", "0", "60", "4", "0"], [0, 0, 60, 4], [0, 0, 60.5, 4, 0]],
    ids=["string-fields", "four-fields", "float-pitch"],
)
def test_batch_rejects_malformed_manifest_notes(tmp_path, midi_dir, trained, capsys, bad_note):
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
    assert err.startswith(f"error: pair {raw['pairs'][1]['pair_id']!r}: note ")
    assert "is not 5 integers" in err
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
    ],
    ids=["top-level-list", "pairs-not-list", "pairs-missing", "pair-not-object", "pair-missing-keys"],
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
    assert capsys.readouterr().err == "error: probabilities must be finite\n"
    assert not out_dir.exists()


# --- exit codes -----------------------------------------------------------------

def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.mid"
    bad.write_bytes(b"MThd" + b"\x00" * 10)
    rc = main(["tokenize", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


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
    # a period-2 chain with all its mass on one state never settles
    spec_path = tmp_path / "swap.spec"
    spec_path.write_text("2 1\n0.0 1.0\n1.0 0.0\n1.0 0.0\n")
    rc = main(["oracle", "exact", "--spec", str(spec_path)])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


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


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"resolutoin": 12}))
    rc = main(["--config", str(cfg), "oracle", "exact"])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


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
    code = (
        "import sys, duetflow, duetflow.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
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
