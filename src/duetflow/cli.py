"""Command line front end.

Exit codes: 0 success, 1 usage or data errors, 2 MIDI parse errors,
3 ineligible pieces or corpora, 4 oracle chains with no unique stationary law.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import harness, oracle
from .config import Config, load_config
from .events import (
    EventSequence,
    SequenceStructureError,
    encode,
    seq_from_text,
    seq_to_text,
    sequences_from_notes,
)
from .flow import XY_NORMS, information_flow
from .midi import (
    IneligiblePieceError,
    MidiParseError,
    Piece,
    piece_from_bytes,
    split_tracks,
    track_from_text,
)
from .model import MODES, ContextModel, generate, load_model_file, save_model_file, train

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_INELIGIBLE = 3
EXIT_CONVERGENCE = 4


def _write_text(path: Path, text: str) -> None:
    # Atomic: a crashed run never leaves a half-written artifact behind.
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _midi_paths(root: Path) -> list[Path]:
    if not root.exists():
        raise ValueError(f"{root} does not exist")
    if root.is_file():
        return [root]
    paths = sorted(p for p in root.rglob("*") if p.suffix.lower() in (".mid", ".midi"))
    if not paths:
        raise ValueError(f"no .mid or .midi files in {root}")
    return paths


def _read_piece(path: Path, cfg: Config) -> Piece:
    return piece_from_bytes(
        path.read_bytes(), path.stem, cfg.grid, include_drums=cfg.include_drums
    )


def _load_pieces(root: Path, cfg: Config) -> list[Piece]:
    return [_read_piece(path, cfg) for path in _midi_paths(root)]


def _load_model(path: str, cfg: Config) -> ContextModel:
    """A model file, refused unless its grid is the config's, with path
    named in its ValueError."""
    try:
        model = load_model_file(path)
        if model.grid != cfg.grid:
            raise ValueError(f"model grid {model.grid} does not match config {cfg.grid}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model


def _read_file(path: Path, read, *args, **kwargs):
    """read(the text of path, *args, **kwargs), with path named in its ValueError."""
    try:
        return read(path.read_text(), *args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_corpus_dir(root: Path, cfg: Config):
    files = sorted(root.glob("*.events"))
    if not files:
        raise ValueError(f"no .events files in {root}")
    return [_read_file(p, seq_from_text, cfg.grid) for p in files]


def _views(x, y, cfg: Config) -> dict[str, EventSequence]:
    """The X, Y and merged XY views of two voices, by file tag."""
    seqs = sequences_from_notes(x, y, cfg.grid, split_shared_programs=cfg.split_shared_programs)
    return dict(zip(("x", "y", "xy"), seqs))


def _write_events(out_dir: Path, stem: str, parts: dict[str, EventSequence]) -> int:
    """Write each sequence to {stem}.{tag}.events; return how many."""
    for tag, seq in parts.items():
        _write_text(out_dir / f"{stem}.{tag}.events", seq_to_text(seq))
    return len(parts)


def cmd_tokenize(args: argparse.Namespace, cfg: Config) -> int:
    source = Path(args.source)
    paths = _midi_paths(source)
    strict = source.is_file()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = skipped = dropped = unclosed = drums = clipped = 0
    for path in paths:
        try:
            piece = _read_piece(path, cfg)
            if len(piece.tracks) == 2:
                parts = _views(*split_tracks(piece), cfg)
            elif len(piece.tracks) == 1:
                parts = {"solo": encode([piece.tracks[0]], cfg.grid)}
            else:
                raise IneligiblePieceError(
                    f"{len(piece.tracks)} non-empty tracks", piece.source_id
                )
        except (MidiParseError, IneligiblePieceError, ValueError) as exc:
            if strict:
                raise
            print(f"skipping {path.name}: {exc}", file=sys.stderr)
            skipped += 1
            continue
        written += _write_events(out_dir, path.stem, parts)
        # Ingest losses of the pieces written.
        dropped += piece.dropped_notes
        unclosed += piece.unclosed_notes
        drums += piece.drum_notes
        clipped += piece.clipped_notes
    print(
        f"wrote {written} sequences to {out_dir} ({skipped} inputs skipped); "
        f"notes dropped {dropped}, unclosed {unclosed}, drums left out {drums}, "
        f"durations clipped {clipped}"
    )
    return EXIT_OK


def cmd_train(args: argparse.Namespace, cfg: Config) -> int:
    corpus = _load_corpus_dir(Path(args.corpus), cfg)
    model = train(corpus, cfg.k, cfg.lam)
    save_model_file(model, args.out)
    print(
        f"trained k={cfg.k} lam={cfg.lam} on {len(corpus)} sequences "
        f"({model.trained_events} events), model {model.fingerprint()} -> {args.out}"
    )
    return EXIT_OK


def _piece_tracks(args: argparse.Namespace, cfg: Config):
    texts = (args.x_text, args.y_text)
    if bool(args.piece) == any(texts) or any(texts) != all(texts):
        raise ValueError("give either a MIDI piece or both --x-text and --y-text")
    if args.piece:
        piece = _read_piece(Path(args.piece), cfg)
        return (*split_tracks(piece), piece.source_id)
    return (
        _read_file(Path(args.x_text), track_from_text),
        _read_file(Path(args.y_text), track_from_text),
        Path(args.x_text).stem,
    )


def cmd_score(args: argparse.Namespace, cfg: Config) -> int:
    model = _load_model(args.model, cfg)
    x, y, piece_id = _piece_tracks(args, cfg)
    report = information_flow(model, x, y, cfg.flow_params, piece_id=piece_id)
    if args.json:
        summary = {**report.to_dict(), "config": cfg.to_dict()}
        print(json.dumps(summary, indent=2, allow_nan=False))
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK


def cmd_pairs(args: argparse.Namespace, cfg: Config) -> int:
    pieces = _load_pieces(Path(args.corpus), cfg)
    pair_set = harness.build_pairs(pieces, cfg.seed, melody_index=args.melody_index)
    _write_text(Path(args.out), pair_set.to_json())
    print(
        f"{len(pair_set.pairs)} pairs ({pair_set.skipped} skipped) "
        f"from {len(pieces)} pieces -> {args.out}"
    )
    return EXIT_OK


def cmd_batch(args: argparse.Namespace, cfg: Config) -> int:
    model = _load_model(args.model, cfg)
    pair_set = _read_file(Path(args.pairs), harness.PairSet.from_json)
    report = harness.batch_score(model, pair_set, cfg.flow_params)
    _write_text(Path(args.out), report.to_csv())
    summary = {
        "model_id": report.model_id,
        "failures": report.failures,
        "aggregates": report.aggregates(),
        "config": cfg.to_dict(),
    }
    if len(report.label_flows(harness.POSITIVE)) > 1 and len(
        report.label_flows(harness.NEGATIVE)
    ) > 1:
        summary["t_statistic_total"] = t = report.t_statistic()
        if t is None:
            summary["t_statistic_reason"] = (
                "each label's flows are all equal, so the Welch standard error is 0"
            )
    print(json.dumps(summary, indent=2, allow_nan=False))
    return EXIT_OK


def cmd_bias(args: argparse.Namespace, cfg: Config) -> int:
    model = _load_model(args.model, cfg)
    pieces = _load_pieces(Path(args.corpus), cfg)
    report = harness.positional_bias(model, pieces, cfg.flow_params)
    print(
        json.dumps(
            {
                "n_pieces": report.n_pieces,
                "bit_exact": report.bit_exact,
                "mse_per_field": report.mse_per_field,
                "config": cfg.to_dict(),
            },
            indent=2,
            allow_nan=False,
        )
    )
    return EXIT_OK


def cmd_selfbias(args: argparse.Namespace, cfg: Config) -> int:
    model_a = _load_model(args.model_a, cfg)
    model_b = _load_model(args.model_b, cfg)
    primes = _load_corpus_dir(Path(args.primes), cfg)
    report = harness.self_enhancement(
        model_a, model_b, primes, args.steps, cfg.flow_params, seed=cfg.seed
    )
    if args.json:
        summary = {**report.to_dict(), "config": cfg.to_dict()}
        print(json.dumps(summary, indent=2, allow_nan=False))
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK


def cmd_generate(args: argparse.Namespace, cfg: Config) -> int:
    model = _load_model(args.model, cfg)
    path = Path(args.prime)
    # A prime may lack its end event, so generate, not the reader, checks it.
    prime = _read_file(path, seq_from_text, cfg.grid, validate=False)
    try:
        result = generate(model, prime, args.steps, cfg.seed)
    except SequenceStructureError as exc:
        raise ValueError(f"{path}: {exc}") from None
    _write_text(Path(args.out), seq_to_text(result.sequence))
    print(f"sampled {args.steps} events -> {args.out}")
    depths = " ".join(f"{j}={n}" for j, n in enumerate(result.context_depths))
    print(f"steps by longest matched context length: {depths}")
    return EXIT_OK


def _oracle_spec(args: argparse.Namespace) -> oracle.JointMarkovSpec:
    if args.alphabet != 2 and (args.spec or args.chain == "independent"):
        raise ValueError("--alphabet sizes only the copy and instantaneous chains")
    if args.spec:
        return _read_file(Path(args.spec), oracle.spec_from_text)
    builders = {
        "independent": lambda m: oracle.independent_spec(),
        "copy": oracle.copy_spec,
        "instantaneous": oracle.instantaneous_spec,
    }
    return builders[args.chain](args.alphabet)


def cmd_oracle(args: argparse.Namespace, cfg: Config) -> int:
    spec = _oracle_spec(args)
    if args.oracle_command == "exact":
        result = oracle.exact_flow(spec)
        print(json.dumps(result.to_dict(), indent=2, allow_nan=False))
        return EXIT_OK
    # sample: emit aligned two-voice pieces as event text, ready to train on.
    # The pieces are made before the directory, so bad arguments leave none.
    xs, ys = oracle.sample_paths(spec, args.length, cfg.seed)
    pieces = oracle.embed_pieces(xs, ys, args.piece_len, cfg.grid)
    if not pieces:
        raise ValueError(f"length {args.length} is shorter than one piece of {args.piece_len}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    for i, (x, y) in enumerate(pieces):
        written += _write_events(out_dir, f"chain-{i:04d}", _views(x, y, cfg))
    print(f"wrote {written} sequences to {out_dir}")
    return EXIT_OK


# One global flag per Config field: its type from the annotation, and the
# legal values of the settings that have a fixed set of them.
_FLAG_TYPES = {"int": int, "float": float, "str": str}
_FLAG_CHOICES = {"mode": MODES, "xy_norm": XY_NORMS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duetflow",
        description="Information flow between the two voices of symbolic music.",
    )
    parser.add_argument("--config", help="JSON config file")
    overrides = parser.add_argument_group("config overrides")
    for f in dataclasses.fields(Config):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            overrides.add_argument(flag, action="store_const", const=True)
        else:
            overrides.add_argument(
                flag, type=_FLAG_TYPES[f.type], choices=_FLAG_CHOICES.get(f.name)
            )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="MIDI files to event text")
    p.add_argument("source", help="a MIDI file or a directory of them")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("train", help="train a model on an event-text corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="information flow of one piece")
    p.add_argument("piece", nargs="?", help="two-track MIDI file")
    p.add_argument("--model", required=True)
    p.add_argument("--x-text", help="first voice as note text")
    p.add_argument("--y-text", help="second voice as note text")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("pairs", help="build positive and shuffled negative pairs")
    p.add_argument("--corpus", required=True, help="directory of MIDI files")
    p.add_argument("--out", required=True)
    p.add_argument("--melody-index", type=int, default=0, choices=[0, 1])
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("batch", help="score a pair manifest to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("bias", help="argument-order symmetry check")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_bias)

    p = sub.add_parser("selfbias", help="cross-scoring of two models' continuations")
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--primes", required=True, help="directory of prime .events files")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument(
        "--json", action="store_true", help="the matrix at full precision; null for an empty cell"
    )
    p.set_defaults(func=cmd_selfbias)

    p = sub.add_parser("generate", help="sample a continuation of a prime")
    p.add_argument("--model", required=True)
    p.add_argument("--prime", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("oracle", help="exact chains: closed forms and sampling")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    for name in ("exact", "sample"):
        op = osub.add_parser(name)
        op.add_argument("--spec", help="chain spec text file")
        op.add_argument(
            "--chain", choices=["independent", "copy", "instantaneous"], default="copy"
        )
        op.add_argument("--alphabet", type=int, default=2)
        if name == "sample":
            op.add_argument("--length", type=int, required=True)
            op.add_argument("--piece-len", type=int, default=128)
            op.add_argument("--out-dir", required=True)
        op.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(Config)}
        cfg = load_config(args.config, overrides)
        return args.func(args, cfg)
    except MidiParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except IneligiblePieceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INELIGIBLE
    except oracle.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
