"""Print every metric of every workload, on its default seed and a second seed.

    python3 perfbench/report.py

Each (workload, seed) runs twice through run.py: untraced for the end-to-end
metrics and traced for the per-layer ones. Tracing overhead is the traced
wall time minus the untraced one. Besides the BENCHMARK.json metrics this
prints replications per second on the Monte Carlo workloads and the failed
fraction, derived from the same runs. A run whose output check fails stops
the report.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

# Replications completed per second, on the Monte Carlo workloads.
REPS_PER_S = {"mc_n1000": "reps_per_s.n1000", "mc_n16000": "reps_per_s.n16000"}


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    return lines[0]["env"], lines[-2]["unit_s"], lines[-1]


def row(metric, unit, values):
    print(f"  {metric:<36s} {unit:>6s} " + " ".join(f"{v:>16.6g}" for v in values))


def main():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    env = None
    for name in (w["name"] for w in benchmark["workloads"]):
        seeds = (workloads.DEFAULT_SEEDS[name], workloads.DEFAULT_SEEDS[name] + 1)
        runs = {(s, t): run_once(name, s, seconds, t) for s in seeds for t in (0, 1)}
        env = env or runs[seeds[0], 0][0]
        print(f"\n== {name}   seeds {seeds[0]} (default) | {seeds[1]}")
        untraced = [runs[s, 0] for s in seeds]
        traced = [runs[s, 1] for s in seeds]
        for m in benchmark["end_to_end"]:
            row(m["name"], m["unit"], [r[2]["metrics"][m["name"]]["value"] for r in untraced])
        if name in REPS_PER_S:
            row(REPS_PER_S[name], "1/s",
                [(r[2]["attempted"] - r[2]["failed"]) / len(r[1])
                 / r[2]["metrics"]["wall_s"]["value"] for r in untraced])
        row("failed_frac", "ratio", [r[2]["failed"] / r[2]["attempted"] for r in untraced])
        row("trace.overhead_s", "s",
            [t[2]["metrics"]["trace.wall_s"]["value"] - u[2]["metrics"]["wall_s"]["value"]
             for t, u in zip(traced, untraced)])
        print("  -- traced")
        for m in benchmark["per_layer"]:
            row(m["name"], m["unit"], [r[2]["metrics"][m["name"]]["value"] for r in traced])
    print("\nenvironment: " + json.dumps(env))


if __name__ == "__main__":
    main()
