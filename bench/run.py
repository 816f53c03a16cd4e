"""duetflow benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The workloads are defined in ``workloads.py``. With ``--trace 0`` the run
reports the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` a
separate traced run reports the per-layer metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Any failed output check makes the exit code 1.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPS = 3
CLI_REPS = 3
# Fewest timed jobs per run, whatever --seconds says: an oracle_copy job
# takes about 6 s, and a median of two jobs does not repeat well enough.
MIN_JOBS = 3
# Largest share of a traced job's span that may lie outside every layer
# span when the measured tracing overhead is smaller (it is a difference of
# two medians and can come out negative).
UNCOVERED_SHARE = 0.05
UNITS = {}  # metric name -> unit, filled from BENCHMARK.json
ALL_CPUS = os.sched_getaffinity(0)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument(
        "--size", choices=("full", "small"), default="full",
        help="small runs every stage on tiny inputs, for the self-check",
    )
    return p.parse_args(argv)


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(ALL_CPUS),
        "cpu": cpu or platform.processor(),
        "loadavg": os.getloadavg(),
    }


def _env(*paths: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*map(str, paths), env.get("PYTHONPATH")]))
    return env


def _run_cli(argv: list[str]) -> dict:
    """The JSON report of one ``duetflow score`` subprocess."""
    cmd = [sys.executable, "-m", "duetflow.cli", "score", *argv, "--json"]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(SRC), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"duetflow score exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def _cli_import_s() -> float:
    code = "import time; t = time.perf_counter(); import duetflow.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(CLI_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=_env(SRC),
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout))
    return _median(times)


def _measure(
    make_job, n: int = 1, seconds: float = 0.0, before=None, after=None,
    bracket=True, reference=calib.reference,
):
    """Run at least n jobs, and jobs until ``seconds`` have passed.

    A job is a generator that yields after each stage (see workloads.py).
    With ``bracket``, every stage is timed between two passes of the
    reference work (see calib.py), and its cost is its wall time over the
    mean of those two passes; without, the stages run back to back and
    costs are 0.
    Returns the wall times and costs of the jobs, and their results.
    """
    walls, costs, results = [], [], []
    gc.collect()
    ref = reference(0.0)
    start = time.perf_counter()
    while len(walls) < n or time.perf_counter() - start < seconds:
        gc.collect()
        if before:
            before(len(walls))
        job = make_job()
        wall = cost = 0.0
        while True:
            t = time.perf_counter()
            try:
                next(job)
            except StopIteration as stop:
                tail = time.perf_counter() - t
                wall += tail
                cost += tail / ref
                results.append(stop.value)
                break
            stage = time.perf_counter() - t
            wall += stage
            if bracket:
                ref_after = reference(stage)
                cost += stage / ((ref + ref_after) / 2)
                ref = ref_after
        if after:
            after(len(walls))
        walls.append(wall)
        costs.append(cost)
    return walls, costs, results


def _cli_job(argv: list[str]):
    report = _run_cli(argv)
    yield
    return report


def _import_job():
    """A fresh interpreter importing what the runner imports before set-up."""
    subprocess.run(
        [sys.executable, "-c", "import workloads"], cwd=ROOT, env=_env(SRC, BENCH_DIR),
        check=True, timeout=120, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    yield


def _interpreter_reference(covering: float) -> float:
    """``calib.interpreter_reference`` as ``_measure`` calls a reference."""
    return calib.interpreter_reference()


def _check_outputs(w, results, reference, cli_total: float, cli_expected: float) -> list[str]:
    failures = []
    if any(r.digest != results[0].digest for r in results[1:]):
        failures.append("job outputs differ between repetitions of the same inputs")
    failed = sum(r.failed for r in results)
    if failed:
        failures.append(f"{failed} unexpected failures in {len(results)} jobs")
    failures += w.checks(results[-1], reference)
    if cli_total != cli_expected:
        failures.append(f"CLI total_flow {cli_total!r} != library {cli_expected!r}")
    return failures


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _pool_speedup(w) -> tuple[float, float]:
    """Median serial and workers=2 seconds of batch_score on the job's pairs."""
    from duetflow import harness

    case = w.pool_case()
    if case is None:
        return 0.0, 0.0
    model, pairs = case
    serial, parallel = [], []
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALL_CPUS)
    try:
        for _ in range(2):
            for workers, out in ((1, serial), (2, parallel)):
                t = time.perf_counter()
                harness.batch_score(model, pairs, workers=workers)
                out.append(time.perf_counter() - t)
    finally:
        os.sched_setaffinity(0, pinned)
    return _median(serial), _median(parallel)


def _layer_metrics(st, untraced: list[float], traced: list[float], results, extras: dict) -> dict:
    spans = st.tracer.spans

    def direct(s) -> bool:  # a save called by the benchmark, not by fingerprint()
        return s.parent < 0 or spans[s.parent].name != "model.fingerprint"

    model_bytes = [
        s.counts.get("bytes", 0) for s in spans
        if s.name in ("model.save", "model.load") and direct(s)
    ]
    pairs = sum(s.counts.get("pairs", 0) for s in spans if s.name == "harness.batch_score")
    pairs_ok = sum(s.counts.get("pairs_ok", 0) for s in spans if s.name == "harness.batch_score")
    gc_s, gc_n = st.gc()
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    serial_s, workers2_s = extras["pool"]
    return {
        "midi.parse.busy_s": st.busy("midi.parse"),
        "midi.parse.notes_per_s": st.rate("midi.parse", "notes"),
        "midi.parse.files": st.calls("midi.parse"),
        "midi.rejected_files": float(results[-1].rejected_files),
        "midi.dropped_notes": st.count("midi.parse", "dropped_notes"),
        "midi.unclosed_notes": st.count("midi.parse", "unclosed_notes"),
        "events.encode.busy_s": st.busy("events.encode"),
        "events.encode.events_per_s": st.rate("events.encode", "events"),
        "events.to_text.events_per_s": st.rate("events.to_text", "events"),
        "events.from_text.events_per_s": st.rate("events.from_text", "events"),
        "events.validate.busy_s": st.busy("events.validate"),
        "model.train.busy_s": st.busy("model.train"),
        "model.train.events_per_s": st.rate("model.train", "events"),
        "model.train.py_peak_mb": extras["train_peak_mb"],
        "model.load.py_peak_mb": extras["load_peak_mb"],
        "model.file_mb": max(model_bytes, default=0) / 1e6,
        "model.save.mb_per_s": st.rate("model.save", "bytes", direct) / 1e6,
        "model.load.mb_per_s": st.rate("model.load", "bytes") / 1e6,
        "model.fingerprint.busy_s": st.busy("model.fingerprint"),
        "model.score_nll.busy_s": st.busy("model.score_nll"),
        "model.score_nll.events_per_s": st.rate("model.score_nll", "events"),
        "model.score_predictive.events_per_s": st.rate("model.score_predictive", "events"),
        "model.predict_next.calls": st.calls("model.predict_next"),
        "model.predict_next.busy_s": st.busy("model.predict_next"),
        "model.generate.steps_per_s": st.rate("model.generate", "steps"),
        "flow.information_flow.calls": st.calls("flow.information_flow"),
        "flow.information_flow.busy_s": st.busy("flow.information_flow"),
        "flow.information_flow.self_s": st.self_time("flow.information_flow"),
        "flow.information_flow.p50_ms": st.p50_ms("flow.information_flow"),
        "flow.information_flow.p99_ms": st.p99_ms("flow.information_flow"),
        "flow.scored_events": st.count("model.score_nll", "events")
        + st.count("model.score_predictive", "events"),
        "harness.training_encodings.busy_s": st.busy("harness.training_encodings"),
        "harness.build_pairs.busy_s": st.busy("harness.build_pairs"),
        "harness.batch_score.busy_s": st.busy("harness.batch_score"),
        "harness.batch_score.self_s": st.self_time("harness.batch_score"),
        "harness.self_enhancement.self_s": st.self_time("harness.self_enhancement"),
        "harness.pairs_ok_ratio": pairs_ok / pairs if pairs else 0.0,
        "harness.batch_score.serial_s": serial_s,
        "harness.batch_score.workers2_s": workers2_s,
        "harness.batch_score.workers2_speedup": serial_s / workers2_s if workers2_s else 0.0,
        "oracle.sample_paths.busy_s": st.busy("oracle.sample_paths"),
        "oracle.embed_pieces.busy_s": st.busy("oracle.embed_pieces"),
        "oracle.exact_flow.busy_s": st.busy("oracle.exact_flow"),
        "cli.import_s": extras["cli_import_s"],
        "cli.score_s": extras["cli_score_s"],
        "runtime.gc_s": gc_s,
        "runtime.gc_collections": gc_n,
        "runtime.reference_loop_s": extras["reference_loop_s"],
        "runtime.untraced_job_s": _median(untraced),
        "runtime.traced_job_s": _median(traced),
        "runtime.trace_overhead_s": _median(traced) - _median(untraced),
        "runtime.uncovered_job_s": _median([outside for _, outside in st.uncovered().values()]),
        "runtime.error_rate": failed / attempted,
    }


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        }
    )


def run(args: argparse.Namespace, import_s: float, work_dir: Path) -> int:
    import workloads

    env = _environment()
    print("env " + json.dumps(env), flush=True)
    refs = json.loads((BENCH_DIR / "references.json").read_text())
    reference = (
        refs["workloads"][args.workload]
        if args.seed == refs["seed"] and args.size == "full" else None
    )
    w = workloads.WORKLOADS[args.workload](args.seed, work_dir, args.size)
    if args.trace:
        return _traced_run(args, w, reference, env)

    setup_times, setup_costs, _ = _measure(w.setup, n=SETUP_REPS)
    job_times, job_costs, results = _measure(w.job, n=MIN_JOBS, seconds=args.seconds)
    # Subprocesses are timed against a fresh interpreter's imports: first
    # the imports that set-up time counts from process start, then the CLI
    # calls, back to back so that the two share a reference between them.
    cli_argv, cli_expected = w.cli_case()
    subprocesses = [_import_job() for _ in range(SETUP_REPS)]
    subprocesses += [_cli_job(cli_argv) for _ in range(CLI_REPS)]
    sub_times, sub_costs, sub_results = _measure(
        iter(subprocesses).__next__, n=len(subprocesses), reference=_interpreter_reference
    )
    import_times, import_costs = sub_times[:SETUP_REPS], sub_costs[:SETUP_REPS]
    cli_times, cli_costs = sub_times[SETUP_REPS:], sub_costs[SETUP_REPS:]
    cli_reports = sub_results[SETUP_REPS:]
    failures = _check_outputs(w, results, reference, cli_reports[0]["total_flow"], cli_expected)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    metrics = {
        "setup_s": _median(import_costs) * calib.NOMINAL_INTERPRETER_S
        + _median(setup_costs) * calib.NOMINAL_PASS_S,
        "job_cost": _median(job_costs),
        "cli_score_cost": _median(cli_costs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(
        f"{args.workload} seed {args.seed}: imports {import_s:.4f} s in this process, "
        f"{_median(import_times):.4f} s in a fresh one; set-up {_median(setup_times):.4f} s; "
        f"medians of {SETUP_REPS}\n"
        f"  job_s {_median(job_times):.4f} s median, {max(job_times):.4f} s max of "
        f"{len(job_times)} jobs; cli_score_s {_median(cli_times):.4f} s median of {CLI_REPS}\n"
        "  costs are wall times over the reference work (calib.py) timed around each call;\n"
        "  setup_s is the import and set-up costs in seconds at the nominal reference times"
    )
    for name, value in metrics.items():
        print(f"  {name:<15} {value:.6g} {UNITS[name]}")
    print(f"  {'error_rate':<15} {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print("observed " + json.dumps(w.observed(results[-1])))
    return _finish(failures, attempted, failed, metrics)


def _traced_run(args, w, reference, env: dict) -> int:
    import workloads
    from duetflow import model
    from tracing import LayerStats, Tracer

    tracer = Tracer()
    tracer.install()
    tracer.unit = "setup-0"
    root = tracer.begin("bench.setup")
    for _ in w.setup():
        pass
    tracer.end(root)
    tracer.uninstall()

    # Traced and untraced jobs alternate, so both see the same conditions;
    # the difference of their medians is the tracing overhead.
    traced, untraced, roots = [], [], {}

    def before(i: int) -> None:
        if i % 2 == 0:
            tracer.install()
            tracer.unit = f"job-{i}"
            roots[i] = tracer.begin("bench.job")

    def after(i: int) -> None:
        if i % 2 == 0:
            tracer.end(roots[i])
            tracer.uninstall()

    job_times, _, results = _measure(
        w.job, n=2, seconds=args.seconds, before=before, after=after, bracket=False
    )
    for i, t in enumerate(job_times):
        (traced if i % 2 == 0 else untraced).append(t)

    cli_argv, cli_expected = w.cli_case()
    cli_times, _, cli_reports = _measure(lambda: _cli_job(cli_argv), bracket=False)
    failures = _check_outputs(w, results, reference, cli_reports[0]["total_flow"], cli_expected)

    corpus = w.train_corpus()
    extras = {
        "train_peak_mb": _peak_mb(lambda: model.train(corpus, workloads.K)),
        "load_peak_mb": _peak_mb(lambda: model.load_model(w.model_blob())),
        "pool": _pool_speedup(w),
        "cli_import_s": _cli_import_s(),
        "cli_score_s": cli_times[0],
        "reference_loop_s": _median([calib.reference_loop() for _ in range(3)]),
    }
    del corpus
    stats = LayerStats(tracer)
    metrics = _layer_metrics(stats, untraced, traced, results, extras)
    uncovered = stats.uncovered()
    for unit, (span, outside) in uncovered.items():
        allowed = max(metrics["runtime.trace_overhead_s"], UNCOVERED_SHARE * span)
        if outside > allowed:
            failures.append(
                f"{unit}: {outside:.3g} s of the {span:.3g} s job span lies outside every "
                f"layer span; allowed {allowed:.3g} s"
            )
    if w.pool_case() is not None:
        print(
            f"note: workers2_speedup = serial {extras['pool'][0]:.4f} s / workers=2 "
            f"{extras['pool'][1]:.4f} s, measured with nproc={env['nproc']}; the core count "
            "limits the parallel measurement"
        )
    print(
        f"{args.workload} seed {args.seed} traced: {len(traced)} traced and {len(untraced)} "
        f"untraced jobs, {len(tracer.spans)} spans; time outside every layer span per traced job: "
        + ", ".join(f"{o:.4f} of {t:.4f} s" for t, o in uncovered.values())
        + f" (allowed: the larger of the tracing overhead and {UNCOVERED_SHARE:.0%} of the span)"
    )
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(
        json.dumps({"env": env, "metrics": metrics, "spans": tracer.to_records()})
    )
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    return _finish(failures, attempted, failed, metrics)


def _finish(failures: list[str], attempted: int, failed: int, metrics: dict) -> int:
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    print(_result_line(not failures, attempted, failed, metrics), flush=True)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "duetflow" / "__init__.py").is_file():
        print(f"error: no duetflow package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {wl["name"] for wl in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for metric in spec["end_to_end"] + spec["per_layer"]:
        UNITS[metric["name"]] = metric["unit"]
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: F401  imports duetflow, numpy and scipy

    import_s = time.perf_counter() - T0
    # One CPU for the whole run, inherited by the CLI subprocesses, so that
    # the reference passes measure the CPU the measured work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        return run(args, import_s, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
