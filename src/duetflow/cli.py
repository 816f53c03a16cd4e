"""Command line front end.

Exit codes: 0 success, 1 usage or data errors, 2 MIDI parse errors,
3 ineligible pieces or corpora, 4 oracle convergence failures.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import harness, oracle
from .config import Config, load_config
from .events import encode, seq_from_text, seq_to_text
from .flow import information_flow
from .midi import (
    IneligiblePieceError,
    MidiParseError,
    Piece,
    piece_from_bytes,
    split_tracks,
    track_from_text,
)
from .model import generate, load_model_file, save_model_file, train

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_INELIGIBLE = 3
EXIT_CONVERGENCE = 4


def _write_text(path: Path, text: str) -> None:
    # Atomic: a crashed run never leaves a half-written artifact behind.
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _midi_paths(root: Path) -> list[Path]:
    if root.is_file():
        return [root]
    return sorted(p for p in root.rglob("*") if p.suffix.lower() in (".mid", ".midi"))


def _load_pieces(root: Path, cfg: Config) -> list[Piece]:
    pieces = []
    for path in _midi_paths(root):
        pieces.append(
            piece_from_bytes(
                path.read_bytes(), path.stem, cfg.grid, include_drums=cfg.include_drums
            )
        )
    return pieces


def _load_corpus_dir(root: Path, cfg: Config):
    files = sorted(root.glob("*.events"))
    if not files:
        raise ValueError(f"no .events files in {root}")
    return [seq_from_text(p.read_text(), cfg.grid) for p in files]


def cmd_tokenize(args: argparse.Namespace, cfg: Config) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    source = Path(args.source)
    strict = source.is_file()
    written = skipped = 0
    for path in _midi_paths(source):
        try:
            piece = piece_from_bytes(
                path.read_bytes(), path.stem, cfg.grid, include_drums=cfg.include_drums
            )
            if len(piece.tracks) == 2:
                x, y = split_tracks(piece)
                parts = {
                    "x": encode([x], cfg.grid),
                    "y": encode([y], cfg.grid),
                    "xy": encode(
                        [x, y],
                        cfg.grid,
                        split_shared_programs=cfg.split_shared_programs,
                    ),
                }
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
        for tag, seq in parts.items():
            _write_text(out_dir / f"{path.stem}.{tag}.events", seq_to_text(seq))
            written += 1
    print(f"wrote {written} sequences to {out_dir} ({skipped} inputs skipped)")
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
    if args.x_text and args.y_text:
        return (
            track_from_text(Path(args.x_text).read_text()),
            track_from_text(Path(args.y_text).read_text()),
            Path(args.x_text).stem,
        )
    if not args.piece:
        raise ValueError("give either a MIDI piece or --x-text/--y-text")
    path = Path(args.piece)
    piece = piece_from_bytes(
        path.read_bytes(), path.stem, cfg.grid, include_drums=cfg.include_drums
    )
    x, y = split_tracks(piece)
    return x, y, piece.source_id


def cmd_score(args: argparse.Namespace, cfg: Config) -> int:
    model = load_model_file(args.model)
    if model.grid != cfg.grid:
        raise ValueError(f"model grid {model.grid} does not match config {cfg.grid}")
    x, y, piece_id = _piece_tracks(args, cfg)
    report = information_flow(
        model, x, y, cfg.flow_params, piece_id=piece_id, config=cfg.to_dict()
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
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
    model = load_model_file(args.model)
    pair_set = harness.PairSet.from_json(Path(args.pairs).read_text())
    report = harness.batch_score(
        model, pair_set, cfg.flow_params, workers=cfg.workers, config=cfg.to_dict()
    )
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
        summary["t_statistic_total"] = report.t_statistic()
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_bias(args: argparse.Namespace, cfg: Config) -> int:
    model = load_model_file(args.model)
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
        )
    )
    return EXIT_OK


def cmd_selfbias(args: argparse.Namespace, cfg: Config) -> int:
    model_a = load_model_file(args.model_a)
    model_b = load_model_file(args.model_b)
    primes = _load_corpus_dir(Path(args.primes), cfg)
    report = harness.self_enhancement(
        model_a, model_b, primes, args.steps, cfg.flow_params, seed=cfg.seed
    )
    sys.stdout.write(report.to_text())
    return EXIT_OK


def cmd_generate(args: argparse.Namespace, cfg: Config) -> int:
    model = load_model_file(args.model)
    prime = seq_from_text(Path(args.prime).read_text(), cfg.grid, validate=False)
    result = generate(model, prime, args.steps, cfg.seed)
    _write_text(Path(args.out), seq_to_text(result.sequence))
    print(f"sampled {args.steps} events -> {args.out}")
    return EXIT_OK


def _oracle_spec(args: argparse.Namespace) -> oracle.JointMarkovSpec:
    if args.spec:
        return oracle.spec_from_text(Path(args.spec).read_text())
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
        print(json.dumps(result.to_dict(), indent=2))
        return EXIT_OK
    # sample: emit aligned two-voice pieces as event text, ready to train on
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    xs, ys = oracle.sample_paths(spec, args.length, cfg.seed)
    written = 0
    for i, (tx, ty) in enumerate(
        oracle.embed_pieces(xs, ys, args.piece_len, cfg.grid)
    ):
        for tag, tracks in (("x", [tx]), ("y", [ty]), ("xy", [tx, ty])):
            seq = encode(tracks, cfg.grid)
            _write_text(out_dir / f"chain-{i:04d}.{tag}.events", seq_to_text(seq))
            written += 1
    print(f"wrote {written} sequences to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duetflow",
        description="Information flow between the two voices of symbolic music.",
    )
    parser.add_argument("--config", help="JSON config file")
    overrides = parser.add_argument_group("config overrides")
    overrides.add_argument("--resolution", type=int)
    overrides.add_argument("--max-beat", type=int, dest="max_beat")
    overrides.add_argument("--max-duration", type=int, dest="max_duration")
    overrides.add_argument("--k", type=int)
    overrides.add_argument("--lam", type=float)
    overrides.add_argument("--context-len", type=int, dest="context_len")
    overrides.add_argument("--burn-in", type=int, dest="burn_in")
    overrides.add_argument("--mode", choices=["nll", "predictive"])
    overrides.add_argument("--xy-norm", choices=["per_pair", "per_event"], dest="xy_norm")
    overrides.add_argument("--seed", type=int)
    overrides.add_argument("--workers", type=int)
    overrides.add_argument(
        "--split-shared-programs",
        action="store_const",
        const=True,
        default=None,
        dest="split_shared_programs",
    )
    overrides.add_argument(
        "--include-drums", action="store_const", const=True, default=None,
        dest="include_drums",
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


_OVERRIDE_KEYS = (
    "resolution", "max_beat", "max_duration", "k", "lam", "context_len",
    "burn_in", "mode", "xy_norm", "seed", "workers", "split_shared_programs",
    "include_drums",
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {k: getattr(args, k) for k in _OVERRIDE_KEYS})
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
