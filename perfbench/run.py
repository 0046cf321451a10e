"""Benchmark entry point: one workload, one fresh process, one JSON result line.

    python3 perfbench/run.py --workload mc_n1000 --seed 2026 --seconds 12 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Stdout has three JSON lines: the environment, the time of every unit, and
the result. The result carries the end-to-end metrics with --trace 0 and the
per-layer metrics of a traced run with --trace 1. See perfbench/README.md
for the workloads and metrics.
"""

import os

# BLAS runs single-threaded, set before numpy is first imported: with the
# default thread count on a 2-core machine the solve times mostly measure the
# scheduler (numbers in README.md).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("mc_n1000", "mc_n16000", "verify_grid", "stacked_estimate")
# Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and no reference check (self-check only)")
    return parser.parse_args(argv)


def environment(args, default_seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": default_seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "peak_rss_source": "resource.getrusage(RUSAGE_SELF).ru_maxrss (KiB on Linux), "
                           "whole workload process including set-up",
    }


def time_import(repeats):
    """Wall time of a fresh interpreter that imports tobitiv, per repeat."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import tobitiv"], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def call_cli(cli, argv):
    """cli.main with its console output captured; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def run_unit(cli, workload, tracer, index):
    """Make the workload's calls once.

    Returns (seconds spent in cli.main, outputs keyed by call, operations
    attempted, operations failed). A non-zero exit raises CheckError.
    """
    import workloads

    elapsed = 0.0
    outputs = {}
    attempted = failed = 0
    for call in workload.calls():
        with tracer.span("cli.main", unit=index, command=call.argv[0]):
            start = time.perf_counter()
            rc, stderr = call_cli(cli, call.argv)
            elapsed += time.perf_counter() - start
        if rc != 0:
            raise workloads.CheckError(f"{call.key}: exit {rc}: {stderr.strip()}")
        outputs[call.key], n_ops, n_failed = workload.outcome(call)
        attempted += n_ops
        failed += n_failed
    return elapsed, outputs, attempted, failed


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run(args, work_dir):
    from tobitiv import cli

    import tracing
    import workloads

    tracer = tracing.Tracer(enabled=args.trace == 1)
    if tracer.enabled:
        tracing.instrument_program(tracer)
    workload = workloads.make(args.workload, work_dir, args.seed, tiny=args.tiny)
    print(json.dumps({"env": environment(args, workload.default_seed)}))

    repeats = 1 if args.tiny or tracer.enabled else SETUP_REPEATS
    generate_s = []
    for _ in range(repeats):
        start = time.perf_counter()
        workload.generate(tracer)
        generate_s.append(time.perf_counter() - start)
    import_s = [] if tracer.enabled else time_import(repeats)
    reference = workload.reference()

    attempted = failed = 0
    unit_s = []
    deadline = time.perf_counter() + args.seconds
    try:
        while not unit_s or time.perf_counter() < deadline:
            elapsed, outputs, n_ops, n_failed = run_unit(cli, workload, tracer, len(unit_s))
            attempted += n_ops
            failed += n_failed
            for key, got in outputs.items():
                if reference is None:
                    workloads.require_finite(got, key)
                else:
                    workloads.compare(got, reference["calls"][key], key)
            unit_s.append(elapsed)
    except workloads.CheckError as exc:
        print(json.dumps({"error": "CheckError", "message": str(exc)}), file=sys.stderr)
        print(result_line(False, max(attempted, 1), max(failed, 1), {}))
        return 1
    finally:
        tracer.unwrap_all()

    print(json.dumps({"unit_s": unit_s}))
    if tracer.enabled:
        tracer.write(WORK_ROOT / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = tracing.layer_metrics(tracer.spans, len(unit_s))
        metrics["trace.wall_s"] = (statistics.median(unit_s), "s")
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            # Units repeat identical work. On a shared host the median unit
            # varies least from run to run (README.md has the numbers).
            "wall_s": (statistics.median(unit_s), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "setup_s": (statistics.median(import_s) + statistics.median(generate_s), "s"),
        }
    print(result_line(True, attempted, failed, metrics))
    return 0


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "tobitiv" / "__init__.py").is_file():
        print(json.dumps({"error": "MissingProgram",
                          "message": "no src/tobitiv in the checkout"}), file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # The import-timing children must find the same sources.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
