"""Fast self-check of the benchmark itself.

    python3 -m pytest perfbench/test_selfcheck.py

Runs every workload at tiny size, traced and untraced, and checks that each
metric BENCHMARK.json names is emitted with its unit; checks that the output
comparison rejects a drift beyond its tolerance; and checks that the
benchmark refuses to run without the program's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(workload, trace, section):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_output_check_tolerance():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    want = {"estimates": [1.0, -0.5], "j_dof": 3, "error": ""}
    workloads.compare({"estimates": [1.0 + 1e-12, -0.5], "j_dof": 3, "error": ""}, want, "r")
    for got in (
        {"estimates": [1.0 + 1e-9, -0.5], "j_dof": 3, "error": ""},
        {"estimates": [1.0], "j_dof": 3, "error": ""},
        {"estimates": [1.0, -0.5], "j_dof": 4, "error": ""},
        {"estimates": [1.0, -0.5], "j_dof": 3, "error": "EmptySystemError"},
    ):
        with pytest.raises(workloads.CheckError):
            workloads.compare(got, want, "r")
    with pytest.raises(workloads.CheckError):
        workloads.require_finite({"se": [1.0, float("nan")]}, "r")


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "mc_n1000", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
