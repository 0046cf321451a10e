"""Benchmark workloads: inputs made from a seed, the timed CLI calls, output checks.

Every workload drives the program only through ``tobitiv.cli.main`` with files
it wrote in set-up, so the program sees the generated configs and data and
nothing else. Each workload is a closed loop with one caller: the next call is
made when the previous one has returned.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

from tobitiv import PanelConfig, save_dataset, simulate

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Outputs at a workload's default seed must match the reference recorded at
# the seed commit to this relative tolerance (the ROADMAP's regression rule).
REL_TOL = 1e-10
RESIDUAL_TOL = 1e-6

# The seeds the references were recorded at; criterion 5 uses master seed 2026
# and `tobitiv verify` grid seed 20260823.
DEFAULT_SEEDS = {
    "mc_n1000": 2026,
    "mc_n16000": 2026,
    "verify_grid": 20260823,
    "stacked_estimate": 2026,
}


class CheckError(Exception):
    """The program's output is not what the workload expects."""


_FE = {"type": "linear_index", "index_coef": 1.0, "noise_sigma": 0.5}


def _normal(mu, sigma):
    return {"type": "normal", "mu": mu, "sigma": sigma}


# The six designs of acceptance criterion 5, with their instrument sets.
CRITERION5 = {
    "IndependentErrors": (
        {"n_periods": 2, "n_regressors": 2, "beta": [1.0, -0.5],
         "error_cov": [[0.25, 0.0], [0.0, 0.375]], "x_dist": _normal(1.0, 1.0)},
        "levels_squares",
    ),
    "NonStationary": (
        {"n_periods": 2, "n_regressors": 1, "beta": [1.0],
         "error_cov": [[0.25, 0.125], [0.125, 0.5]], "x_dist": _normal(1.0, 1.0)},
        "levels_squares",
    ),
    "FactorLoading": (
        {"n_periods": 2, "n_regressors": 1, "beta": [1.0],
         "error_cov": [[0.25, 0.0], [0.0, 0.25]], "factor_loadings": [1.0, 1.5],
         "x_dist": _normal(1.0, 2.0)},
        "products",
    ),
    "VarianceFE": (
        {"n_periods": 3, "n_regressors": 1, "beta": [1.0],
         "error_cov": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
         "variance_fe_dist": {"type": "shifted_halfnormal", "shift": 0.25, "scale": 0.2},
         "x_dist": _normal(1.0, 2.0)},
        "index_proxy",
    ),
    "AdditiveVariance": (
        {"n_periods": 3, "n_regressors": 1, "beta": [1.0],
         "error_cov": [[0.25, 0.0, 0.0], [0.0, 0.375, 0.0], [0.0, 0.0, 0.5]],
         "variance_fe_dist": {"type": "shifted_halfnormal", "shift": 0.25, "scale": 0.2},
         "x_dist": _normal(1.0, 2.0)},
        "index_proxy",
    ),
    "SlopeFE": (
        {"n_periods": 2, "n_regressors": 1, "beta": [1.0],
         "error_cov": [[0.25, 0.0], [0.0, 0.375]],
         "z_dist": {"type": "lognormal", "mu": 0.0, "sigma": 0.25},
         "x_dist": _normal(1.0, 1.0)},
        "levels_squares",
    ),
}


@dataclass
class Call:
    """One timed ``cli.main`` call; `key` names its entry in the reference."""

    key: str
    argv: list
    out_dir: Path


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def compare(got, want, where: str) -> None:
    """Raise CheckError unless `got` matches `want`, floats to REL_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            raise CheckError(f"{where}: keys {sorted(got)} != reference {sorted(want)}")
        for k in want:
            compare(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise CheckError(f"{where}: {got!r} does not match reference {want!r}")
        for i, (g, w) in enumerate(zip(got, want)):
            compare(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        if not isinstance(got, (int, float)) or not math.isclose(
            got, want, rel_tol=REL_TOL, abs_tol=0.0
        ):
            raise CheckError(f"{where}: {got!r} != reference {want!r}")
    elif got != want:
        raise CheckError(f"{where}: {got!r} != reference {want!r}")


def require_finite(value, where: str) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            require_finite(v, f"{where}.{k}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            require_finite(v, f"{where}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise CheckError(f"{where}: {value!r} is not finite")


class Workload:
    """Base: subclasses set `name` and `has_reference`."""

    name = ""
    has_reference = True

    def __init__(self, work_dir: Path, seed: int, tiny: bool):
        self.work_dir = work_dir
        self.seed = seed
        self.tiny = tiny

    @property
    def default_seed(self) -> int:
        return DEFAULT_SEEDS[self.name]

    def reference(self):
        """Outputs recorded at the seed commit, or None when they do not apply."""
        if not self.has_reference or self.tiny or self.seed != self.default_seed:
            return None
        return json.loads((REFERENCE_DIR / f"{self.name}.json").read_text())

    def generate(self, tracer) -> None:
        raise NotImplementedError

    def calls(self) -> list:
        raise NotImplementedError

    def outcome(self, call: Call):
        """(checked outputs, operations attempted, operations failed) of a call."""
        raise NotImplementedError


class MonteCarlo(Workload):
    """Criterion-5 sweep at one sample size: one `montecarlo` call per design."""

    def __init__(self, work_dir, seed, tiny, name, n, reps, tiny_n, tiny_reps):
        super().__init__(work_dir, seed, tiny)
        self.name = name
        self.n = tiny_n if tiny else n
        self.reps = tiny_reps if tiny else reps

    def _config_path(self, variant):
        return self.work_dir / "configs" / f"{variant}.json"

    def generate(self, tracer) -> None:
        for variant, (panel, instruments) in CRITERION5.items():
            _write_json(self._config_path(variant), {
                "variant": variant,
                "panel": dict(panel, n_individuals=self.n, seed=0, fe_dist=_FE),
                "estimator": {"instruments": instruments},
                "replications": self.reps,
                "sample_sizes": [self.n],
                "master_seed": self.seed,
            })

    def calls(self) -> list:
        return [
            Call(variant,
                 ["montecarlo", "--config", str(self._config_path(variant)),
                  "--out", str(self.work_dir / "out" / variant)],
                 self.work_dir / "out" / variant)
            for variant in CRITERION5
        ]

    def outcome(self, call: Call):
        with open(call.out_dir / "replications.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        names = [h[len("est_"):] for h in rows[0] if h.startswith("est_")]
        reps = []
        for row in rows:
            failed = bool(row["error"])
            reps.append({
                "replication": int(row["replication"]),
                "error": row["error"],
                "estimates": [] if failed else [float(row[f"est_{n}"]) for n in names],
                "std_errors": [] if failed else [float(row[f"se_{n}"]) for n in names],
                "j_statistic": float(row["j_statistic"]) if row["j_statistic"] else None,
            })
        failed = sum(1 for r in reps if r["error"])
        return {"param_names": names, "replications": reps}, len(reps), failed


class VerifyGrid(Workload):
    """`tobitiv verify` on its default grid; the grid seed is the workload seed."""

    name = "verify_grid"
    has_reference = False

    def generate(self, tracer) -> None:
        # The default grid needs no config; tiny runs shrink it to 3 points.
        if self.tiny:
            _write_json(self.work_dir / "verify.json", {"n_points": 3})

    def calls(self) -> list:
        argv = ["verify", "--out", str(self.work_dir / "out"), "--seed", str(self.seed)]
        if self.tiny:
            argv += ["--config", str(self.work_dir / "verify.json")]
        return [Call("grid", argv, self.work_dir / "out")]

    def outcome(self, call: Call):
        with open(call.out_dir / "verification.csv", newline="") as fh:
            residuals = [float(row["max_abs_residual"]) for row in csv.DictReader(fh)]
        failed = sum(1 for r in residuals if not r < RESIDUAL_TOL)
        if failed:
            raise CheckError(f"{failed} orders have a residual >= {RESIDUAL_TOL:g}")
        return residuals, len(residuals), failed


# Fields of result.json the output check compares.
RESULT_FIELDS = (
    "param_names", "estimates", "se", "covariance", "n_rows", "n_clusters",
    "condition_number", "j_statistic", "j_dof",
)


class StackedEstimate(Workload):
    """`tobitiv estimate --data` on a NonStationary T=4, K=2 panel saved in set-up."""

    name = "stacked_estimate"

    def panel_config(self) -> PanelConfig:
        return PanelConfig.from_dict({
            "variant": "NonStationary",
            "n_individuals": 1000 if self.tiny else 5000,
            "n_periods": 4,
            "n_regressors": 2,
            "beta": [1.0, -0.5],
            "error_cov": [[0.5, 0.2, 0.0, 0.0], [0.2, 0.5, 0.2, 0.0],
                          [0.0, 0.2, 0.5, 0.2], [0.0, 0.0, 0.2, 0.5]],
            "seed": self.seed,
            "fe_dist": _FE,
            "x_dist": _normal(1.0, 1.0),
        })

    def generate(self, tracer) -> None:
        with tracer.span("simulate"):
            dataset = simulate(self.panel_config())
        with tracer.span("simulate.save"):
            save_dataset(dataset, str(self.work_dir / "data"))
        _write_json(self.work_dir / "estimate.json",
                    {"estimator": {"instruments": "default", "orders": [[1, 1], [2, 1]]}})

    def calls(self) -> list:
        out = self.work_dir / "out"
        return [Call("estimate",
                     ["estimate", "--data", str(self.work_dir / "data"),
                      "--config", str(self.work_dir / "estimate.json"), "--out", str(out)],
                     out)]

    def outcome(self, call: Call):
        result = json.loads((call.out_dir / "result.json").read_text())
        return {k: result[k] for k in RESULT_FIELDS}, 1, 0


def make(name: str, work_dir: Path, seed: int, tiny: bool = False) -> Workload:
    if name == "mc_n1000":
        return MonteCarlo(work_dir, seed, tiny, name, n=1000, reps=20, tiny_n=1000, tiny_reps=2)
    if name == "mc_n16000":
        return MonteCarlo(work_dir, seed, tiny, name, n=16000, reps=4, tiny_n=2000, tiny_reps=2)
    if name == "verify_grid":
        return VerifyGrid(work_dir, seed, tiny)
    if name == "stacked_estimate":
        return StackedEstimate(work_dir, seed, tiny)
    raise ValueError(f"unknown workload {name!r}")

