"""CLI tests: exit codes, determinism, and machine-parsable errors."""

import csv
import importlib.util
import json
import os
import pickle
import re
import subprocess
import sys
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest

from tobitiv import (ConfigurationError, EstimatorSpec, LinearIVResult, NonlinearGMMResult,
                    PanelConfig, Param, run_study, two_stage_least_squares)
from tobitiv.cli import build_parser, main
from tobitiv.montecarlo import one_blas_thread
from tobitiv.simulate import format_float, tabulate, written
from tobitiv.truncmoments import (BivariateNormalSpec, IdentityCheck, _full_power_integrals,
                                  moment_identity_residual)


ROOT = Path(__file__).resolve().parents[1]


def load_module(path, monkeypatch):
    """A module loaded from its file, registered while the test runs (its
    dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def single_json_line(capsys):
    """The one stderr line, parsed as strict JSON (no NaN or Infinity)."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(err[0], parse_constant=reject)


def assert_config_error(capsys, field):
    """Exactly one stderr line: a ConfigurationError JSON object naming `field`."""
    payload = single_json_line(capsys)
    assert payload["error"] == "ConfigurationError"
    assert payload["field"] == field


def rewrite_header(path, shape):
    """The .npy file at `path` with its data bytes kept under a header claiming `shape`."""
    data = np.load(path).tobytes()
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": shape})
        fh.write(data)


def write_version_2(path, values):
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, values, version=(2, 0))


def set_cell(path, value):
    values = np.load(path)
    values.flat[3] = value
    np.save(path, values)


# Each fault of a dataset table that `estimate` must reject with exit 2: a cut
# file, a wrong shape, a bad cell, a table that is not float64 or not a .npy
# array, headers that claim more data than the file holds, and every form but
# the one `save_dataset` writes (np.save's version-1.0 file of a C-ordered
# native float64 array, and no more bytes).
TABLE_DAMAGE = {
    "truncated_file": lambda p: p.write_bytes(p.read_bytes()[:-12]),
    "missing_rows": lambda p: np.save(p, np.load(p)[:-5]),
    "nan_cell": lambda p: set_cell(p, np.nan),
    "pickled_table": lambda p: p.write_bytes(pickle.dumps(np.load(p).tolist())),
    "csv_text": lambda p: p.write_text("t0,t1\n1.5,2.5\n"),
    "int64_table": lambda p: np.save(p, np.load(p).astype(np.int64)),
    "float32_table": lambda p: np.save(p, np.load(p).astype(np.float32)),
    "object_table": lambda p: np.save(p, np.load(p).astype(object), allow_pickle=True),
    "oversized_header_shape": lambda p: rewrite_header(p, (10**12, 2)),
    "overflowing_header_shape": lambda p: rewrite_header(p, (2**62, 2)),
    "huge_header_shape": lambda p: rewrite_header(p, (2**70, 2)),
    "fortran_order_table": lambda p: np.save(p, np.asfortranarray(np.load(p))),
    "big_endian_table": lambda p: np.save(p, np.load(p).astype(">f8")),
    "trailing_bytes": lambda p: p.write_bytes(p.read_bytes() + bytes(8)),
    "version_2_header": lambda p: write_version_2(p, np.load(p)),
}


class Checked(Exception):
    """Raised in place of a command's first piece of work: its input passed every check."""


def stop_at_first_work(monkeypatch):
    """Every command raises Checked where its work would start."""
    def stop(*args, **kwargs):
        raise Checked

    for name in ("simulate", "build_estimation_system", "run_study", "moment_identity_residual"):
        monkeypatch.setattr(f"tobitiv.cli.{name}", stop)


def sim_config(tmp_path, **panel_overrides):
    panel = {
        "n_individuals": 200,
        "n_periods": 2,
        "n_regressors": 1,
        "beta": [1.0],
        "error_cov": [[0.25, 0.0], [0.0, 0.375]],
        "seed": 7,
        "fe_dist": {"type": "linear_index", "index_coef": 1.0, "noise_sigma": 0.5},
        "x_dist": {"type": "normal", "mu": 1.0, "sigma": 1.0},
    }
    panel.update(panel_overrides)
    return write_config(
        tmp_path, "sim.json", {"variant": "IndependentErrors", "panel": panel}
    )


class TestSimulate:
    def test_happy_path(self, tmp_path, capsys):
        cfg = sim_config(tmp_path)
        out = tmp_path / "ds"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "meta.json").exists()
        assert np.load(out / "y.npy").shape == (200, 2)
        assert np.load(out / "x.npy").shape == (200, 2, 1)
        assert not (out / "z.npy").exists()
        assert "censoring rate" in capsys.readouterr().out

    def test_deterministic_output(self, tmp_path):
        cfg = sim_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        # Every file is byte-identical: a dataset is reproducible from its seed.
        for name in ("meta.json", "y.npy", "x.npy"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_data(self, tmp_path):
        cfg = sim_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b), "--seed", "8"]) == 0
        assert (a / "y.npy").read_bytes() != (b / "y.npy").read_bytes()

    def test_invalid_variant_period_combo(self, tmp_path, capsys):
        payload = {
            "variant": "VarianceFE",
            "panel": {
                "n_individuals": 50, "n_periods": 2, "n_regressors": 1,
                "beta": [1.0], "error_cov": [[1.0, 0.0], [0.0, 1.0]], "seed": 0,
                "variance_fe_dist": {"type": "shifted_halfnormal", "shift": 0.5, "scale": 1.0},
            },
        }
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert "n_periods >= 3" in err["message"]
        assert err["field"] == "n_periods"

    @pytest.mark.parametrize(
        "override",
        [{"variant": "Bogus"}, {"x_dist": {"type": "normal", "mu": "one", "sigma": 1.0}},
         {"x_dist": None}, {"error_cov": [[0.25, 0.0], [0.0]]}],
        ids=["unknown_variant", "text_dist_parameter", "null_dist", "ragged_error_cov"],
    )
    def test_bad_panel_value_exit_2(self, tmp_path, capsys, override):
        payload = json.loads(Path(sim_config(tmp_path)).read_text())
        payload["panel"].update(override)
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ConfigurationError"

    def test_out_of_memory_exit_3(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(config):
            raise MemoryError("Unable to allocate 14.6 TiB for an array")

        monkeypatch.setattr("tobitiv.cli.simulate", out_of_memory)
        cfg = sim_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert single_json_line(capsys)["error"] == "MemoryError"
        assert not (tmp_path / "o").exists()

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigurationError"

    def test_missing_config(self, tmp_path, capsys):
        assert main(
            ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        ) == 2
        assert "not found" in json.loads(capsys.readouterr().err)["message"]


class TestEstimate:
    def test_happy_path(self, tmp_path, capsys):
        cfg = sim_config(tmp_path, n_individuals=2000)
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", cfg, "--out", str(ds)]) == 0
        est = tmp_path / "est"
        spec = write_config(
            tmp_path, "est.json", {"estimator": {"instruments": "levels_squares"}}
        )
        assert main(
            ["estimate", "--data", str(ds), "--config", spec, "--out", str(est)]
        ) == 0
        result = json.loads((est / "result.json").read_text())
        assert result["param_names"] == ["beta0", "sigma2_t0", "sigma2_t1"]
        assert len(result["estimates"]) == 3
        assert set(result) == {
            "param_names", "estimates", "se", "covariance", "n_rows", "n_clusters",
            "condition_number", "j_statistic", "j_dof", "converged",
        }
        assert result["converged"] is True
        assert "beta0" in capsys.readouterr().out

    def test_unknown_instrument_kind_exit_2(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", sim_config(tmp_path), "--out", str(ds)]) == 0
        capsys.readouterr()
        spec = write_config(tmp_path, "est.json", {"estimator": {"instruments": "bogus"}})
        assert main(
            ["estimate", "--data", str(ds), "--config", spec, "--out", str(tmp_path / "o")]
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["field"] == "instruments"

    @pytest.mark.parametrize("damage", list(TABLE_DAMAGE.values()), ids=list(TABLE_DAMAGE))
    def test_damaged_dataset_exit_2(self, tmp_path, capsys, damage):
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", sim_config(tmp_path), "--out", str(ds)]) == 0
        capsys.readouterr()
        damage(ds / "y.npy")
        assert main(["estimate", "--data", str(ds), "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, "data_dir")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("damage", [
        lambda y: np.save(y, np.empty((0, 2))),
        lambda y: y.write_bytes(b""),
    ], ids=["header_only", "empty"])
    def test_y_without_rows_exit_2_without_warning(self, tmp_path, capsys, damage):
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", sim_config(tmp_path), "--out", str(ds)]) == 0
        capsys.readouterr()
        damage(ds / "y.npy")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["estimate", "--data", str(ds), "--out", str(tmp_path / "o")]) == 2
        assert [str(w.message) for w in caught] == []
        assert_config_error(capsys, "data_dir")

    @pytest.mark.parametrize("sampling, cell", [("Censored", -0.5), ("Truncated", 0.0)])
    def test_outcome_outside_sampling_support_exit_2(self, tmp_path, capsys, sampling, cell):
        cfg = sim_config(tmp_path, sampling=sampling)
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", cfg, "--out", str(ds)]) == 0
        capsys.readouterr()
        y = np.load(ds / "y.npy")
        y[4, 0] = cell
        np.save(ds / "y.npy", y)
        assert main(["estimate", "--data", str(ds), "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, "data_dir")
        assert not (tmp_path / "o").exists()

    def test_format_1_dataset_exit_2_naming_simulate(self, tmp_path, capsys):
        """A CSV-era directory fails with the way to rewrite it, and that way works."""
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", sim_config(tmp_path), "--out", str(ds)]) == 0
        meta = json.loads((ds / "meta.json").read_text())
        (ds / "meta.json").write_text(json.dumps(dict(meta, format_version=1)))
        capsys.readouterr()
        assert main(["estimate", "--data", str(ds), "--out", str(tmp_path / "o")]) == 2
        payload = single_json_line(capsys)
        assert payload["field"] == "data_dir"
        for phrase in ("format-1", "CSV tables are no longer read", "tobitiv simulate",
                       "panel config in its meta.json", "same data"):
            assert phrase in payload["message"]
        again = tmp_path / "again"
        cfg = write_config(tmp_path, "panel.json", {"panel": meta["config"]})
        assert main(["simulate", "--config", cfg, "--out", str(again)]) == 0
        for name in ("y.npy", "x.npy"):
            assert (again / name).read_bytes() == (ds / name).read_bytes()

    @pytest.mark.parametrize("damage", [
        lambda ds: (ds / "y.npy").unlink(),
        lambda ds: (ds / "x.npy").unlink(),
        lambda ds: (ds / "z.npy").unlink(),
        lambda ds: ((ds / "meta.json").unlink(), (ds / "meta.json").mkdir()),
    ], ids=["no_y", "no_x", "no_z", "meta_is_directory"])
    def test_unreadable_file_exit_2(self, tmp_path, capsys, damage):
        cfg = sim_config(tmp_path, variant="SlopeFE",
                         z_dist={"type": "lognormal", "mu": 0.0, "sigma": 0.25})
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", cfg, "--out", str(ds)]) == 0
        capsys.readouterr()
        damage(ds)
        assert main(["estimate", "--data", str(ds), "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, "data_dir")

    @staticmethod
    def first_period_only(ds, meta, config):
        """The dataset cut to its first period: tables, meta.json and config."""
        meta["n_periods"] = config["n_periods"] = 1
        for name in ("y.npy", "x.npy"):
            np.save(ds / name, np.load(ds / name)[:, :1])

    @pytest.mark.parametrize("edit", [
        lambda ds, meta, config: TestEstimate.first_period_only(ds, meta, config),
        lambda ds, meta, config: config.update(variant="SlopeFE"),
        lambda ds, meta, config: config.update(
            variant="SlopeFE", z_dist={"type": "lognormal", "mu": 0.0, "sigma": 0.25}),
        lambda ds, meta, config: meta.update(has_z=True),
        lambda ds, meta, config: config["error_cov"][0].__setitem__(1, 0.2),
        # Each value meta.json restates from its config, edited at the top level only.
        lambda ds, meta, config: meta.update(variant="VarianceFE"),
        lambda ds, meta, config: meta.update(sampling="Truncated"),
        lambda ds, meta, config: meta.update(variant="VarianceFE", sampling="Truncated"),
        lambda ds, meta, config: meta.update(n_individuals=499),
        lambda ds, meta, config: meta.update(n_periods=3),
        lambda ds, meta, config: meta.update(n_regressors=2),
        lambda ds, meta, config: meta.update(has_z=0),
        lambda ds, meta, config: meta.update(n_individuals=500.0),
        lambda ds, meta, config: meta.pop("has_z"),
        # The values meta.json gives of the file itself.
        lambda ds, meta, config: meta.update(format_version=99),
        lambda ds, meta, config: meta.update(format_version=True),
        lambda ds, meta, config: meta.pop("format_version"),
        lambda ds, meta, config: meta.update(n_drawn="lots"),
        lambda ds, meta, config: meta.update(n_drawn=501),  # censored data draws exactly N
        lambda ds, meta, config: meta.update(n_drawn=500.0),
        lambda ds, meta, config: meta.pop("n_drawn"),
    ], ids=["one_period", "relabelled_slope_fe", "relabelled_slope_fe_with_z_dist",
            "z_without_slope_fe", "asymmetric_error_cov", "meta_variant", "meta_sampling",
            "meta_variance_fe_truncated", "meta_n_individuals", "meta_n_periods",
            "meta_n_regressors", "meta_has_z_as_int", "meta_n_individuals_as_float",
            "meta_without_has_z", "format_version_99", "format_version_as_bool",
            "meta_without_format_version", "n_drawn_as_text", "n_drawn_above_censored_n",
            "n_drawn_as_float", "meta_without_n_drawn"])
    def test_invalid_meta_config_exit_2(self, tmp_path, capsys, edit):
        cfg = sim_config(tmp_path, variant="NonStationary", n_individuals=500,
                         error_cov=[[0.25, 0.1], [0.1, 0.375]])
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", cfg, "--out", str(ds)]) == 0
        capsys.readouterr()
        meta = json.loads((ds / "meta.json").read_text())
        edit(ds, meta, meta["config"])
        (ds / "meta.json").write_text(json.dumps(meta))
        assert main(["estimate", "--data", str(ds), "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, "data_dir")

    def test_missing_dataset_dir(self, tmp_path, capsys):
        assert main(
            ["estimate", "--data", str(tmp_path / "none"), "--out", str(tmp_path / "o")]
        ) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigurationError"

    def test_estimation_failure_exit_3(self, tmp_path, capsys):
        # Everything censored: no qualifying pairs, so building the moment
        # system fails with an estimation-stage error.
        cfg = sim_config(
            tmp_path, x_dist={"type": "normal", "mu": -9.0, "sigma": 0.5},
            fe_dist={"type": "linear_index", "index_coef": 0.0, "noise_sigma": 0.1},
        )
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", cfg, "--out", str(ds)]) == 0
        assert main(["estimate", "--data", str(ds), "--out", str(tmp_path / "o")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "EmptySystemError"


class TestMonteCarlo:
    def mc_config(self, tmp_path, **over):
        payload = {
            "variant": "IndependentErrors",
            "panel": {
                "n_individuals": 300, "n_periods": 2, "n_regressors": 1,
                "beta": [1.0], "error_cov": [[0.25, 0.0], [0.0, 0.375]], "seed": 0,
                "fe_dist": {"type": "linear_index", "index_coef": 1.0, "noise_sigma": 0.5},
                "x_dist": {"type": "normal", "mu": 1.0, "sigma": 1.0},
            },
            "estimator": {"instruments": "levels_squares"},
            "replications": 3,
            "sample_sizes": [300],
            "master_seed": 99,
        }
        payload.update(over)
        return write_config(tmp_path, "mc.json", payload)

    def test_writes_csvs(self, tmp_path):
        cfg = self.mc_config(tmp_path)
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 0
        reps = (out / "replications.csv").read_text().splitlines()
        summ = (out / "summary.csv").read_text().splitlines()
        assert len(reps) == 4  # header + 3 replications
        assert len(summ) == 4  # header + 3 parameters
        assert reps[0].startswith("sample_size,replication,converged")

    def test_csv_headers(self, tmp_path):
        cfg = self.mc_config(tmp_path)
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "replications.csv") as fh:
            assert next(csv.reader(fh)) == [
                "sample_size", "replication", "converged", "wall_ms", "j_statistic", "error",
                "est_beta0", "est_sigma2_t0", "est_sigma2_t1",
                "se_beta0", "se_sigma2_t0", "se_sigma2_t1",
            ]
        with open(out / "summary.csv") as fh:
            assert next(csv.reader(fh)) == [
                "sample_size", "parameter", "truth", "mean_estimate", "mean_bias",
                "se_of_mean", "rmse", "median_se", "coverage95",
                "n_replications", "n_failed",
            ]

    def test_declared_result_field_is_written_everywhere(self, tmp_path, monkeypatch):
        """One declaration on a result subclass puts its field in result.json,
        replications.csv and the --format json table, after the fields it inherits."""

        @dataclass(frozen=True)
        class TaggedResult(LinearIVResult):
            tag: float = written("tag", default=0.25)

        def tagged(system):
            res = two_stage_least_squares(system)
            return TaggedResult(**{f.name: getattr(res, f.name) for f in fields(res) if f.init})

        monkeypatch.setattr("tobitiv.cli.two_stage_least_squares", tagged)
        monkeypatch.setattr("tobitiv.montecarlo.two_stage_least_squares", tagged)
        ds, est = tmp_path / "ds", tmp_path / "est"
        assert main(["simulate", "--config", sim_config(tmp_path), "--out", str(ds)]) == 0
        assert main(["estimate", "--data", str(ds), "--out", str(est)]) == 0
        result = json.loads((est / "result.json").read_text())
        assert list(result)[-2:] == ["converged", "tag"] and result["tag"] == 0.25
        cfg = self.mc_config(tmp_path)
        for fmt in ("csv", "json"):
            assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / fmt),
                         "--format", fmt]) == 0
        with open(tmp_path / "csv" / "replications.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-2:] == ["se_sigma2_t1", "tag"]
        assert [row[-1] for row in rows[1:]] == ["0.25"] * 3
        reps = json.loads((tmp_path / "json" / "replications.json").read_text())
        assert [list(rep)[-1] for rep in reps] == ["tag"] * 3
        assert [rep["tag"] for rep in reps] == [0.25] * 3

    def test_readme_lists_the_declared_keys_and_columns(self):
        """README's table of keys and columns is the one the declarations give."""
        readme = (ROOT / "README.md").read_text().splitlines()

        def listed(name):
            row = next(line for line in readme if line.startswith(f"| `{name}` |"))
            return re.findall(r"`([^`]+)`", row.split("|")[2])

        [summary] = run_study(PanelConfig(
            variant="IndependentErrors", n_individuals=300, n_periods=2, n_regressors=1,
            beta=(1.0,), error_cov=((0.25, 0.0), (0.0, 0.375)), seed=0,
        ), EstimatorSpec(instruments="levels_squares"), 1, master_seed=99)
        names = summary.param_names

        def expand(columns):
            return [c.replace("<name>", n) for c in columns
                    for n in (names if "<name>" in c else [""])]

        assert expand(listed("replications.csv")) == tabulate(summary.records, names)[0]
        assert listed("summary.csv") == tabulate([summary], names, row_per_param=True)[0]
        gmm = NonlinearGMMResult([Param("beta", (0,))], [1.0], [[1.0]], 10, 10, 1.0)
        assert listed("result.json") == list(gmm.to_dict())
        assert list(summary.records[0].result.to_dict()) == listed("result.json")[:-2]
        check = IdentityCheck(1, 1, 0.0, BivariateNormalSpec(0.0, 0.0, 1.0, 1.0, 0.0))
        assert listed("verification.csv") == tabulate([check], [])[0]

    def test_deterministic(self, tmp_path):
        cfg = self.mc_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["montecarlo", "--config", cfg, "--out", str(a)]) == 0
        assert main(["montecarlo", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_single_replication_summary_equals_record(self, tmp_path):
        cfg = self.mc_config(tmp_path, replications=1)
        out = tmp_path / "mc1"
        assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 0
        import csv as csvmod

        with open(out / "replications.csv") as fh:
            rec = next(csvmod.DictReader(fh))
        with open(out / "summary.csv") as fh:
            rows = list(csvmod.DictReader(fh))
        for row in rows:
            assert float(row["mean_estimate"]) == float(rec[f"est_{row['parameter']}"])
            assert float(row["median_se"]) == float(rec[f"se_{row['parameter']}"])

    def test_json_format(self, tmp_path):
        cfg = self.mc_config(tmp_path)
        out = tmp_path / "mcj"
        assert main(
            ["montecarlo", "--config", cfg, "--out", str(out), "--format", "json"]
        ) == 0
        summ = json.loads((out / "summary.json").read_text())
        assert {s["parameter"] for s in summ} == {"beta0", "sigma2_t0", "sigma2_t1"}

    def test_json_tables_hold_the_csv_values(self, tmp_path):
        """Each JSON value is a number equal to float() of its CSV cell, or null
        where the cell is empty; the text columns hold the same strings."""
        # 12 individuals: 5 of the 30 replications fail, so both tables hold empty cells.
        panel = json.loads(Path(self.mc_config(tmp_path)).read_text())["panel"]
        panel.update(n_individuals=12, x_dist={"type": "normal", "mu": 0.0, "sigma": 1.0})
        cfg = self.mc_config(tmp_path, panel=panel, replications=30, sample_sizes=[12],
                             master_seed=3)
        for fmt in ("csv", "json"):
            assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / fmt),
                         "--format", fmt]) == 0
        nulls = set()
        for name in ("replications", "summary"):
            with open(tmp_path / "csv" / f"{name}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            records = json.loads((tmp_path / "json" / f"{name}.json").read_text())
            assert len(records) == len(rows)
            for record, row in zip(records, rows):
                assert list(record) == list(row)
                for key, value in record.items():
                    if row[key] == "":
                        assert value is None
                        nulls.add(key)
                    elif key in ("parameter", "error"):
                        assert value == row[key]
                    elif key != "wall_ms":  # each run times its replications anew
                        assert type(value) in (int, float) and value == float(row[key])
        assert {"j_statistic", "error", "est_beta0", "se_beta0"} <= nulls

    def test_nonincreasing_sizes_rejected(self, tmp_path, capsys):
        cfg = self.mc_config(tmp_path, sample_sizes=[400, 400])
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "sample_sizes"

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"replications": "three"}, "replications"),
            ({"master_seed": "x"}, "master_seed"),
            ({"master_seed": -1}, "master_seed"),
            ({"sample_sizes": 5}, "sample_sizes"),
            ({"sample_sizes": []}, "sample_sizes"),
            ({"panel": "x"}, "panel"),
            ({"estimator": "x"}, "estimator"),
            ({"replications": 10**40}, "replications"),
        ],
    )
    def test_bad_study_field_exit_2(self, tmp_path, capsys, override, field):
        cfg = self.mc_config(tmp_path, **override)
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, field)
        assert not (tmp_path / "o").exists()

    def long_panel(self, n_periods=12):
        # Period variances differ, so a swapped pair would give wrong truths.
        cov = np.diag(0.3 + 0.05 * np.arange(n_periods)) + 0.1
        return {
            "n_individuals": 500, "n_periods": n_periods, "n_regressors": 1,
            "beta": [1.0], "error_cov": cov.tolist(), "seed": 0,
            "fe_dist": {"type": "linear_index", "index_coef": 1.0, "noise_sigma": 0.5},
            "x_dist": {"type": "normal", "mu": 1.0, "sigma": 1.0},
        }, cov

    def test_two_digit_periods(self, tmp_path):
        panel, cov = self.long_panel()
        cfg = self.mc_config(
            tmp_path, variant="NonStationary", panel=panel, sample_sizes=[500],
            estimator={"instruments": "levels_squares", "pairs": [[0, 11]]},
        )
        out = tmp_path / "mc12"
        assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "summary.csv") as fh:
            truth = {r["parameter"]: float(r["truth"]) for r in csv.DictReader(fh)}
        assert truth == {
            "beta0": 1.0,
            "dvar0_011": cov[0, 0] - cov[0, 11],
            "dvar11_011": cov[11, 11] - cov[0, 11],
        }

    @pytest.mark.parametrize(
        "estimator, field",
        [
            ({"instruments": "bogus"}, "instruments"),
            ({"pairs": [[0, 15]]}, "pairs"),
            ({"orders": [[0, 1]]}, "orders"),
            ({"orders": [[1, 1], [1, 1]]}, "orders"),
            ({"orders": [[1000000, 1]]}, "orders"),  # its moment rows would overflow
            ({"orders": [[4, 4]]}, "orders"),  # k + m + 1 = 9: no oracle certifies it
            ({"pairs": [[0, 1], [0, 1]]}, "pairs"),
            ({"cross_section_order": "two"}, "cross_section_order"),
            ({"cross_section_order": 0}, "cross_section_order"),
            ({"cross_section_order": 1000000}, "cross_section_order"),
            # Values that do not convert to lists of tuples name their own field.
            ({"pairs": [5]}, "pairs"),
            ({"pairs": 5}, "pairs"),
            ({"orders": 5}, "orders"),
            ({"orders": [[1, 1], 3]}, "orders"),
            ({"triple": 5}, "triple"),
            # An empty list would run the default pairs, or build no system.
            ({"pairs": []}, "pairs"),
            ({"pairs": {}}, "pairs"),
            ({"pairs": ""}, "pairs"),
            ({"orders": []}, "orders"),
            ({"orders": {}}, "orders"),
        ],
    )
    def test_bad_estimator_spec_exit_2(self, tmp_path, capsys, monkeypatch, estimator, field):
        panel, _ = self.long_panel()
        cfg = self.mc_config(tmp_path, variant="NonStationary", panel=panel,
                             estimator=estimator)
        stop_at_first_work(monkeypatch)  # each fault is found before any replication
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, field)
        # The library's twin: the constructor and `validate` name the same field.
        with pytest.raises(ConfigurationError) as exc:
            EstimatorSpec(**estimator).validate(
                PanelConfig.from_dict({"variant": "NonStationary", **panel}))
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "variant, extra",
        [
            ("FactorLoading", {"factor_loadings": [1.0, 1.5]}),
            ("SlopeFE", {"z_dist": {"type": "lognormal", "mu": 0.0, "sigma": 0.5}}),
        ],
    )
    def test_single_pair_variant_rejects_two_pairs(self, tmp_path, capsys, variant, extra):
        panel = {
            "n_individuals": 400, "n_periods": 2, "n_regressors": 1, "beta": [1.0],
            "error_cov": [[0.25, 0.0], [0.0, 0.25]], "seed": 0,
            "x_dist": {"type": "normal", "mu": 1.0, "sigma": 2.0}, **extra,
        }
        cfg = self.mc_config(tmp_path, variant=variant, panel=panel,
                             estimator={"instruments": "products", "pairs": [[1, 0], [0, 1]]})
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, "pairs")

    @pytest.mark.parametrize(
        "field, value, reported",
        [("beta", [float("nan")], "beta"),
         ("beta", [10**400], "beta"),  # an integer that no float holds
         ("error_cov", [[0.25, 0.0], [0.0, float("inf")]], "error_cov"),
         ("n_individuals", "300", "n_individuals"),
         # finite parameters whose draws overflow to inf
         ("x_dist", {"type": "normal", "mu": 1.0, "sigma": 1e308}, "panel")],
        ids=["beta-value0", "beta-huge_int", "error_cov-value1", "n_individuals-300",
             "overflowing_draws"],
    )
    def test_non_finite_panel_exit_2(self, tmp_path, capsys, field, value, reported):
        cfg = self.mc_config(tmp_path)
        payload = json.loads(Path(cfg).read_text())
        payload["panel"][field] = value
        cfg = write_config(tmp_path, "mc.json", payload)
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, reported)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "ds")]) == 2
        assert_config_error(capsys, reported)
        assert not (tmp_path / "o").exists()
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("beta", "1"), ("beta", [True]), ("beta", ["1"]), ("error_cov", ["10", "01"]),
         ("factor_loadings", "15")],
    )
    def test_non_number_array_exit_2(self, tmp_path, capsys, field, value):
        # Each used to read as a valid panel and exit 0: "1" and [true] as beta (1.0,),
        # ["10", "01"] as the identity and "15" as the loadings (1.0, 5.0).
        cfg = self.mc_config(tmp_path, variant="FactorLoading",
                             estimator={"instruments": "products"})
        payload = json.loads(Path(cfg).read_text())
        payload["panel"].update({"factor_loadings": [1.0, 1.5], field: value})
        cfg = write_config(tmp_path, "mc.json", payload)
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, field)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "ds")]) == 2
        assert_config_error(capsys, field)
        assert not (tmp_path / "o").exists()
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("fe_dist", {"type": "normal", "mu": 0.0, "sigma": 1.0}),
         ("x_dist", {"type": "linear_index", "index_coef": 1.0, "noise_sigma": 0.5})],
    )
    def test_wrong_distribution_type_exit_2(self, tmp_path, capsys, field, value):
        # fe_dist is drawn around the regressor index, x_dist by shape.
        cfg = self.mc_config(tmp_path)
        payload = json.loads(Path(cfg).read_text())
        payload["panel"][field] = value
        cfg = write_config(tmp_path, "mc.json", payload)
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, field)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "ds")]) == 2
        assert_config_error(capsys, field)
        assert not (tmp_path / "o").exists()
        assert not (tmp_path / "ds").exists()

    # Draws finite, but the solver's column scales (1e100) or the moment rows
    # themselves (1e150) overflow: every replication fails with a DomainError,
    # and no warning reaches stderr.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma", [1e100, 1e150])
    def test_overflowing_moment_rows_exit_3(self, tmp_path, capsys, sigma):
        cfg = self.mc_config(tmp_path)
        payload = json.loads(Path(cfg).read_text())
        payload["panel"]["x_dist"]["sigma"] = sigma
        cfg = write_config(tmp_path, "mc.json", payload)
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        error = single_json_line(capsys)
        assert error["error"] == "ConvergenceError"
        assert "3/3 replications failed" in error["message"]
        assert "DomainError" in error["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "panel, study",
        [({"n_individuals": 2**70}, {}), ({"n_individuals": 10**18}, {}),
         ({}, {"sample_sizes": [300, 2**70]})],
        ids=["n_individuals-2**70", "n_individuals-10**18", "sample_sizes-2**70"],
    )
    def test_oversized_panel_exit_2_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                    panel, study):
        # No platform holds an 8 * N * T * K byte array this large.
        def no_draw(*args, **kwargs):
            raise AssertionError("a panel was drawn before its size was checked")

        # `tobitiv.simulate` names the function; the module is patched through sys.modules.
        monkeypatch.setattr(sys.modules["tobitiv.simulate"], "_draw_batch", no_draw)
        payload = json.loads(Path(self.mc_config(tmp_path, **study)).read_text())
        payload["panel"].update(panel)
        cfg = write_config(tmp_path, "mc.json", payload)
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, "n_individuals")
        if panel:
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "ds")]) == 2
            assert_config_error(capsys, "n_individuals")
        assert not (tmp_path / "o").exists()
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize(
        "variant, panel, estimator, message",
        # Constant x collapses the products set to one column.
        [("FactorLoading",
          {"n_periods": 2, "error_cov": [[0.25, 0.0], [0.0, 0.25]],
           "factor_loadings": [1.0, 1.5], "x_dist": {"type": "normal", "mu": 1.0, "sigma": 0}},
          {"instruments": "products"}, "1 instruments for 4 parameters"),
         ("FactorLoading",
          {"n_periods": 2, "error_cov": [[0.25, 0.0], [0.0, 0.25]],
           "factor_loadings": [1.0, 1.5], "beta": [2**63]},
          {"instruments": "products"},
          "instrument-regressor cross-moment matrix is rank deficient; "
          "unidentified directions: -0.833*a_10, +0.554*b_10"),
         ("VarianceFE",
          {"n_periods": 3, "n_individuals": 200, "sampling": "Truncated",
           "error_cov": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
           "fe_dist": {"type": "linear_index", "index_coef": 2**63, "noise_sigma": 0.5},
           "variance_fe_dist": {"type": "shifted_halfnormal", "shift": 0.25, "scale": 0.2},
           "x_dist": {"type": "normal", "mu": 1.0, "sigma": 2.0}},
          {"instruments": "index_proxy"}, "the two-step GMM matrix for J is singular")],
        ids=["constant_x", "huge_beta", "huge_effects"],
    )
    def test_singular_gmm_matrix_exit_3(self, tmp_path, capsys, variant, panel, estimator,
                                        message):
        payload = json.loads(Path(self.mc_config(tmp_path, variant=variant,
                                                 estimator=estimator)).read_text())
        payload["panel"].update(panel)
        cfg = write_config(tmp_path, "mc.json", payload)
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        error = single_json_line(capsys)
        assert error["error"] == "ConvergenceError"
        assert f"IdentificationError: {message}" in error["message"]

    T3_PANELS = {
        "IndependentErrors": {"n_periods": 3,
                              "error_cov": [[0.25, 0, 0], [0, 0.375, 0], [0, 0, 0.5]]},
        "VarianceFE": {"n_periods": 3, "error_cov": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]],
                       "variance_fe_dist": {"type": "shifted_halfnormal", "shift": 0.25,
                                            "scale": 0.2}},
    }

    @pytest.mark.parametrize(
        "variant, estimator",
        [("IndependentErrors", {"orders": [[2, 1]]}),
         ("IndependentErrors", {"triple": [2, 1, 0]}),
         ("IndependentErrors", {"cross_section_order": 3}),
         ("VarianceFE", {"pairs": [[1, 0]]}),
         ("VarianceFE", {"orders": [[1, 2]]})],
        ids=["independent-orders", "independent-triple", "independent-cross_section_order",
             "variance_fe-pairs", "variance_fe-orders"],
    )
    def test_field_the_variant_does_not_read_exit_2(self, tmp_path, capsys, variant, estimator):
        # Each of these used to run with exit 0 and the field ignored.
        payload = json.loads(Path(self.mc_config(tmp_path, variant=variant)).read_text())
        payload["panel"].update(self.T3_PANELS[variant])
        payload["estimator"] = {"instruments": "default", **estimator}
        cfg = write_config(tmp_path, "mc.json", payload)
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, next(iter(estimator)))
        assert not (tmp_path / "o").exists()

    # Panel inputs that the draws ignored: a CrossSection panel draws no individual
    # effect, VarianceFE errors have unit variance in each period, and AdditiveVariance
    # errors are independent across periods.
    IGNORED_INPUTS = {
        "CrossSection-fe_dist": (
            "CrossSection",
            {"n_individuals": 200, "n_periods": 1, "error_cov": [[0.25]], "seed": 3,
             "fe_dist": {"type": "linear_index", "index_coef": 50, "noise_sigma": 9}},
            "fe_dist"),
        "VarianceFE-error_cov": (
            "VarianceFE",
            {"n_periods": 3, "error_cov": [[4, 1.5, 0.5], [1.5, 3, 0.2], [0.5, 0.2, 2]],
             "variance_fe_dist": {"type": "shifted_halfnormal", "shift": 0.25, "scale": 0.2}},
            "error_cov"),
        "AdditiveVariance-error_cov": (
            "AdditiveVariance",
            {"n_periods": 3, "error_cov": [[0.25, 0.1, 0], [0.1, 0.375, 0], [0, 0, 0.5]],
             "variance_fe_dist": {"type": "shifted_halfnormal", "shift": 0.25, "scale": 0.2}},
            "error_cov"),
    }

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    @pytest.mark.parametrize("variant, panel, field", IGNORED_INPUTS.values(),
                             ids=list(IGNORED_INPUTS))
    def test_input_the_draws_ignore_exit_2(self, tmp_path, capsys, variant, panel, field,
                                           command):
        # Each of these used to exit 0, its input written to meta.json but not drawn.
        payload = json.loads(Path(self.mc_config(tmp_path, variant=variant,
                                                 estimator={"instruments": "default"})).read_text())
        payload["panel"].update(panel)
        cfg = write_config(tmp_path, "mc.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, field)
        assert not (tmp_path / "o").exists()

    # Distributions that can draw a variance or a z at or below zero.
    NONPOSITIVE_DRAWS = {
        "VarianceFE-negative_shift": (
            "VarianceFE", {**T3_PANELS["VarianceFE"], "variance_fe_dist": {
                "type": "shifted_halfnormal", "shift": -5, "scale": 0.2}}, "variance_fe_dist"),
        "VarianceFE-normal": (
            "VarianceFE", {**T3_PANELS["VarianceFE"], "variance_fe_dist": {
                "type": "normal", "mu": 0.5, "sigma": 1}}, "variance_fe_dist"),
        "VarianceFE-negative_scale": (
            "VarianceFE", {**T3_PANELS["VarianceFE"], "variance_fe_dist": {
                "type": "shifted_halfnormal", "shift": 0.5, "scale": -1}}, "variance_fe_dist"),
        "VarianceFE-zero_shift": (
            "VarianceFE", {**T3_PANELS["VarianceFE"], "variance_fe_dist": {
                "type": "shifted_halfnormal", "shift": 0, "scale": 1}}, "variance_fe_dist"),
        "SlopeFE-normal": (
            "SlopeFE", {"z_dist": {"type": "normal", "mu": 0, "sigma": 1}}, "z_dist"),
    }

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    @pytest.mark.parametrize("variant, panel, field", NONPOSITIVE_DRAWS.values(),
                             ids=list(NONPOSITIVE_DRAWS))
    def test_nonpositive_draws_exit_2_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                      variant, panel, field, command):
        # VarianceFE used to exit 2 blaming overflow with field `panel`; SlopeFE
        # `simulate` wrote z <= 0 and `montecarlo` exited 3 on every replication.
        def no_draw(*args, **kwargs):
            raise AssertionError("a panel was drawn before its distributions were checked")

        monkeypatch.setattr(sys.modules["tobitiv.simulate"], "_draw_batch", no_draw)
        payload = json.loads(Path(self.mc_config(tmp_path, variant=variant,
                                                 estimator={"instruments": "default"})).read_text())
        payload["panel"].update(panel)
        cfg = write_config(tmp_path, "mc.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, field)
        assert not (tmp_path / "o").exists()

    def test_unread_field_at_its_default_accepted(self, tmp_path, capsys):
        payload = json.loads(Path(self.mc_config(tmp_path)).read_text())
        payload["panel"].update(self.T3_PANELS["IndependentErrors"])
        payload["estimator"].update(triple=[0, 1, 2], orders=[[1, 1]], cross_section_order=1)
        cfg = write_config(tmp_path, "mc.json", payload)
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        cfg = self.mc_config(tmp_path)
        out = tmp_path / "o"
        assert main(["montecarlo", "--config", cfg, "--out", str(out), f"--workers={workers}"]) == 2
        assert_config_error(capsys, "workers")
        assert not out.exists()

    @pytest.mark.parametrize("replications, cpus, pool_size, chunksize",
                             [(3, 4, 3, 1), (5, 4, 4, 2), (4, 2, 2, 2), (5, 1, None, None)],
                             ids=["3-4-3", "5-4-4", "4-2-2", "5-1-None"])
    def test_workers_capped_by_replications_and_cpus(self, tmp_path, monkeypatch, replications,
                                                     cpus, pool_size, chunksize):
        # One pool serves both sample sizes, each worker maps one contiguous share,
        # and each worker starts by pinning its BLAS to one thread.
        pools, chunksizes = [], []

        class RecordingPool:
            """Records its size and chunk sizes; maps in this process, starting none."""

            def __init__(self, max_workers, initializer):
                assert initializer is one_blas_thread
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                chunksizes.append(chunksize)
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr("tobitiv.montecarlo.available_cpus", lambda: cpus)
        cfg = self.mc_config(tmp_path, replications=replications, sample_sizes=[300, 400])
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert main(["montecarlo", "--config", cfg, "--out", str(seq)]) == 0
        assert main(["montecarlo", "--config", cfg, "--out", str(par), "--workers=1000"]) == 0
        assert pools == ([] if pool_size is None else [pool_size])
        assert chunksizes == ([] if chunksize is None else [chunksize, chunksize])
        assert (seq / "summary.csv").read_bytes() == (par / "summary.csv").read_bytes()

    def test_output_under_a_file_exit_2_before_work(self, tmp_path, capsys, monkeypatch):
        def no_study(*args, **kwargs):
            raise AssertionError("the study ran before the output path was checked")

        monkeypatch.setattr("tobitiv.cli.run_study", no_study)
        cfg = self.mc_config(tmp_path)
        (tmp_path / "f").write_text("")
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "f" / "o")]) == 2
        assert single_json_line(capsys)["error"] == "ConfigurationError"

    def test_zero_replications_rejected(self, tmp_path, capsys):
        cfg = self.mc_config(tmp_path, replications=0)
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "replications"


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--config", "c.json"], ["estimate", "--data", "d"], ["verify"]],
)
@pytest.mark.parametrize("flag", ["--workers=2", "--format=json"])
def test_montecarlo_only_flags(argv, flag, capsys):
    assert main(argv + [flag]) == 2
    payload = single_json_line(capsys)
    assert payload["error"] == "ConfigurationError"
    assert "unrecognized arguments" in payload["message"]


class TestConfigKeys:
    """Every loaded config is checked against the keys its command takes."""

    @pytest.mark.parametrize("command", ["simulate", "estimate", "montecarlo"])
    def test_misspelled_key_exit_2_naming_it(self, tmp_path, capsys, command):
        good = sim_config(tmp_path)
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", good, "--out", str(ds)]) == 0
        capsys.readouterr()
        payload = json.loads(Path(good).read_text())
        payload.update(replications=2, sample_size=[5000], master_sed=99)
        bad = write_config(tmp_path, "bad.json", payload)
        argv = [command, "--config", bad, "--out", str(tmp_path / "o")]
        assert main(argv + (["--data", str(ds)] if command == "estimate" else [])) == 2
        assert_config_error(capsys, "sample_size")
        assert not (tmp_path / "o").exists()

    NESTED_FAULTS = {
        "panel": (lambda c: c["panel"].update(n_individual=5), "panel.n_individual"),
        "x_dist": (lambda c: c["panel"]["x_dist"].update(sd=2), "x_dist.sd"),
        "fe_dist": (lambda c: c["panel"]["fe_dist"].update(slope=1.0), "fe_dist.slope"),
        "dist_type": (lambda c: c["panel"]["x_dist"].update(type="gaussian"), "x_dist.type"),
        "missing": (lambda c: c["panel"].pop("beta"), "beta"),
        "estimator": (lambda c: c.update(estimator={"pair": [[1, 0]]}), "estimator.pair"),
    }

    @pytest.mark.parametrize("command, fault", [
        *(("simulate", f) for f in NESTED_FAULTS if f != "estimator"),
        *(("montecarlo", f) for f in NESTED_FAULTS),
    ])
    def test_nested_key_fault_exit_2_naming_it(self, tmp_path, capsys, command, fault):
        edit, field = self.NESTED_FAULTS[fault]
        payload = json.loads(Path(sim_config(tmp_path)).read_text())
        edit(payload)
        cfg = write_config(tmp_path, "bad.json", dict(payload, replications=2))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, field)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("output_dir", [5, "", None, ["o"]])
    def test_output_dir_not_a_path_exit_2(self, tmp_path, capsys, output_dir):
        payload = json.loads(Path(sim_config(tmp_path)).read_text())
        cfg = write_config(tmp_path, "c.json", dict(payload, output_dir=output_dir))
        assert main(["simulate", "--config", cfg]) == 2
        assert_config_error(capsys, "output_dir")

    def test_readme_quick_start_config(self, tmp_path, monkeypatch):
        """The README's config, as printed, passes every check of simulate and montecarlo."""
        readme = (ROOT / "README.md").read_text()
        text = readme.split("cat > config.json <<'JSON'\n", 1)[1].split("\nJSON\n", 1)[0]
        (tmp_path / "config.json").write_text(text)
        stop_at_first_work(monkeypatch)
        for command in ("simulate", "montecarlo"):
            with pytest.raises(Checked):
                main([command, "--config", str(tmp_path / "config.json"),
                      "--out", str(tmp_path / "o")])

    def test_benchmark_configs(self, tmp_path, monkeypatch):
        """The calls the benchmark's workloads make pass every check of their
        command. Its self-check runs them, but outside this suite."""
        workloads, tracing = (load_module(ROOT / "perfbench" / f"{name}.py", monkeypatch)
                              for name in ("workloads", "tracing"))
        stop_at_first_work(monkeypatch)
        checked = 0
        for name, seed in workloads.DEFAULT_SEEDS.items():
            workload = workloads.make(name, tmp_path / name, seed, tiny=True)
            workload.generate(tracing.Tracer(enabled=False))
            for call in workload.calls():
                with pytest.raises(Checked):
                    main(call.argv)
                checked += "--config" in call.argv
        assert checked == 2 * 6 + 1 + 1  # two Monte Carlo sweeps, verify and estimate


class TestVerify:
    def test_small_grid_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "v.json", {"n_points": 3, "orders": [[1, 1], [2, 1]]})
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        report = (out / "verification.csv").read_text().splitlines()
        assert len(report) == 3
        assert "all residuals below" in capsys.readouterr().out

    def test_one_identity_call_per_point_and_order(self, tmp_path, monkeypatch):
        # The CSV must match a loop over orders, then points, on the same calls.
        calls = []

        def counting(spec, q, **kwargs):
            res = moment_identity_residual(spec, q, **kwargs)
            calls.append((spec, (q.k, q.m), res))
            return res

        monkeypatch.setattr("tobitiv.cli.moment_identity_residual", counting)
        orders = [[1, 1], [2, 1]]
        cfg = write_config(tmp_path, "v.json", {"n_points": 3, "orders": orders})
        out = tmp_path / "v"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert len(calls) == 6
        points = list(dict.fromkeys(spec for spec, _, _ in calls))
        residual = {(spec, km): res for spec, km, res in calls}
        assert len(points) == 3 and len(residual) == 6
        want = []
        for k, m in orders:
            max_abs, best = -1.0, None
            for spec in points:
                if abs(residual[(spec, (k, m))]) > max_abs:
                    max_abs, best = abs(residual[(spec, (k, m))]), spec
            want.append([str(k), str(m)] + [format_float(v) for v in (
                max_abs, best.mu1, best.mu2, best.sigma1_sq, best.sigma2_sq, best.rho)])
        with open(out / "verification.csv", newline="") as f:
            assert list(csv.reader(f))[1:] == want

    def test_default_grid_forms_one_full_order_matrix_per_point_and_level(self, tmp_path):
        _full_power_integrals.cache_clear()
        assert main(["verify", "--out", str(tmp_path / "v")]) == 0
        info = _full_power_integrals.cache_info()
        # 50 points x 2 refinement levels; the other 8 orders at each point slice them
        assert (info.misses, info.hits) == (100, 800)

    @pytest.mark.parametrize("n_points", [0, 100_001, 2**70])
    def test_n_points_bounded_exit_2_before_any_point(self, tmp_path, capsys, monkeypatch,
                                                      n_points):
        def no_point(**kwargs):
            raise AssertionError("a point was drawn before n_points was checked")

        monkeypatch.setattr("tobitiv.cli.BivariateNormalSpec", no_point)
        cfg = write_config(tmp_path, "v.json", {"n_points": n_points})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
        assert_config_error(capsys, "n_points")

    def test_near_singular_rho_excluded(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "v.json", {"rho_max": 0.999})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "rho_max"

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"n_points": "x"}, "n_points"),
            ({"tolerance": "a"}, "tolerance"),
            ({"mu_range": [1]}, "mu_range"),
            ({"sigma2_range": [0.0, 1.0]}, "sigma2_range"),
            ({"orders": [[0, 1]]}, "orders"),
            ({"orders": [[5, 5]]}, "orders"),
            ({"orders": [[4, 4]]}, "orders"),  # k + m = 8, but the identity needs order 9
            ({"grid_seed": -1}, "grid_seed"),
            ({"grid_seed": 2**128}, "grid_seed"),  # numpy took any integer >= 0
            ({"n_point": 3}, "n_point"),
            ({"quadrature_tol": 5e-324}, "quadrature_tol"),  # its tenth rounds to 0
        ],
    )
    def test_bad_field_exit_2(self, tmp_path, capsys, override, field):
        cfg = write_config(tmp_path, "v.json", {"n_points": 2, **override})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
        assert_config_error(capsys, field)
        assert not (tmp_path / "v").exists()

    def test_output_dir_from_config(self, tmp_path, capsys):
        out = tmp_path / "v"
        cfg = write_config(tmp_path, "v.json",
                           {"n_points": 2, "orders": [[1, 1]], "output_dir": str(out)})
        assert main(["verify", "--config", cfg]) == 0
        assert len((out / "verification.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("mu_range", [[-50, -50], [1e300, 1e300]])
    def test_unresolvable_mean_exit_3(self, tmp_path, capsys, mu_range):
        # At -50 sd the quadrant probability underflows; 1e300 cannot be told
        # apart from its own 10 sd integration range.
        cfg = write_config(tmp_path, "v.json",
                           {"n_points": 2, "orders": [[1, 1]], "mu_range": mu_range})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 3
        assert single_json_line(capsys)["error"] in ("ConvergenceError", "DomainError")

    @pytest.mark.parametrize("sigma_sq", [1e100, 1e160])
    def test_overflowing_moment_exit_3(self, tmp_path, capsys, sigma_sq):
        # Powers of u ~ 1e50 overflow by order 7; at 1e160, s1_sq * s2_sq itself does.
        cfg = write_config(tmp_path, "v.json", {"n_points": 2, "orders": [[3, 3]],
                                                "sigma2_range": [sigma_sq, sigma_sq]})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 3
        error = single_json_line(capsys)
        assert error["error"] == "DomainError"
        assert "overflows" in error["message"]
        assert not (tmp_path / "v").exists()

    def test_unreachable_quadrature_tol_names_the_field_exit_3(self, tmp_path, capsys):
        # The identity asks its moments for quadrature_tol / 10 = 1e-14, below rounding.
        cfg = write_config(tmp_path, "v.json",
                           {"n_points": 4, "orders": [[1, 1], [2, 2]], "quadrature_tol": 1e-13})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 3
        error = single_json_line(capsys)
        assert error["error"] == "ConvergenceError"
        assert error["field"] == "quadrature_tol"
        assert "quadrature_tol = 1e-13" in error["message"]
        assert "quadrature_tol / 10 = 1e-14" in error["message"]
        assert error["achieved"] > 1e-14
        assert not (tmp_path / "v").exists()

    def test_unattainable_tolerance_exit_4(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "v.json",
            {"n_points": 2, "orders": [[1, 1]], "tolerance": 1e-22},
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "VerificationFailure"
        assert "point" in err


class TestSeeds:
    """`--seed` replaces the seed its command draws with: simulate's panel seed,
    montecarlo's master_seed, verify's grid_seed; estimate draws nothing and
    takes none. Every seed is an integer in [0, 2**128)."""

    def mc_config(self, tmp_path, panel_seed, **over):
        payload = json.loads(Path(TestMonteCarlo().mc_config(tmp_path, **over)).read_text())
        if panel_seed is None:
            del payload["panel"]["seed"]
        else:
            payload["panel"]["seed"] = panel_seed
        return write_config(tmp_path, "mc.json", payload)

    def test_montecarlo_seed_replaces_master_seed(self, tmp_path, capsys):
        # A panel without a seed used to take the config's master_seed, -1, and exit 2
        # with field `seed`.
        replaced, given = tmp_path / "replaced", tmp_path / "given"
        cfg = self.mc_config(tmp_path, None, master_seed=-1)
        assert main(["montecarlo", "--config", cfg, "--out", str(replaced), "--seed", "5"]) == 0
        cfg = self.mc_config(tmp_path, None, master_seed=5)
        assert main(["montecarlo", "--config", cfg, "--out", str(given)]) == 0
        assert capsys.readouterr().err == ""
        assert (replaced / "summary.csv").read_bytes() == (given / "summary.csv").read_bytes()

    @pytest.mark.parametrize("panel_seed", [None, 0])
    def test_master_seed_out_of_range_exit_2(self, tmp_path, capsys, panel_seed):
        # The panel seed, which no replication draws with, used to decide between
        # exit 0 and exit 2 with field `seed`.
        cfg = self.mc_config(tmp_path, panel_seed, master_seed=2**130)
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, "master_seed")
        assert not (tmp_path / "o").exists()

    def test_verify_seed_replaces_grid_seed(self, tmp_path, capsys):
        # Without --seed this grid_seed exits 2 (TestVerify::test_bad_field_exit_2).
        cfg = write_config(tmp_path, "v.json", {"n_points": 2, "grid_seed": 2**128})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"),
                     "--seed", "3"]) == 0
        assert capsys.readouterr().err == ""

    def test_estimate_takes_no_seed(self, tmp_path, capsys):
        # It used to accept --seed and ignore it.
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", sim_config(tmp_path), "--out", str(ds)]) == 0
        capsys.readouterr()
        assert main(["estimate", "--data", str(ds), "--out", str(tmp_path / "o"),
                     "--seed", "5"]) == 2
        assert "unrecognized arguments: --seed 5" in single_json_line(capsys)["message"]
        assert not (tmp_path / "o").exists()


class TestArgumentErrors:
    """An argument error exits 2 with one JSON line, from `main` and from
    `python -m tobitiv`; `-h` still exits 0."""

    @pytest.mark.parametrize("argv, message", [
        (["bogus"], "invalid choice: 'bogus'"),
        ([], "required: command"),
        (["estimate"], "required: --data"),
        (["simulate"], "required: --config"),
        (["montecarlo", "--config", "c.json", "--workers", "abc"], "invalid int value: 'abc'"),
        (["verify", "--seed", "x"], "invalid int value: 'x'"),
        (["verify", "--out"], "expected one argument"),
        (["montecarlo", "--config", "c.json", "--format", "xml"], "invalid choice: 'xml'"),
    ])
    def test_argument_error_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        payload = single_json_line(capsys)
        assert payload["error"] == "ConfigurationError" and message in payload["message"]

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        cfg = sim_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"),
                     "--seed", "8"]) == 0
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--bogus"]) == 2
        assert "unrecognized arguments: --bogus" in single_json_line(capsys)["message"]

    @pytest.mark.parametrize("argv", [["-h"], ["verify", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: tobitiv" in capsys.readouterr().out

    def run_module(self, tmp_path, *argv):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
        return subprocess.run([sys.executable, "-m", "tobitiv", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_module_entry_point(self, tmp_path):
        proc = self.run_module(tmp_path, "verify", "--bogus")
        assert proc.returncode == 2 and proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert "unrecognized arguments: --bogus" in json.loads(line)["message"]
        cfg = write_config(tmp_path, "v.json", {"n_points": 2, "orders": [[1, 1]]})
        proc = self.run_module(tmp_path, "verify", "--config", cfg, "--out", "v")
        assert proc.returncode == 0 and proc.stderr == ""
        assert (tmp_path / "v" / "verification.csv").exists()


class TestSectionsEveryCommandChecks:
    """simulate and estimate check the study and estimator sections a shared
    config holds, as montecarlo does; estimate also checks the config's panel
    against the dataset."""

    def readme_config(self):
        readme = (ROOT / "README.md").read_text()
        return json.loads(readme.split("cat > config.json <<'JSON'\n", 1)[1].split("\nJSON\n")[0])

    def saved_dataset(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", sim_config(tmp_path), "--out", str(ds)]) == 0
        capsys.readouterr()
        return ds

    STUDY_FAULTS = [({"estimator": {"pair": 1}}, "estimator.pair"),
                    ({"replications": "three"}, "replications"),
                    ({"sample_sizes": [-5]}, "sample_sizes"),
                    ({"sample_sizes": [400, 300]}, "sample_sizes"),
                    ({"master_seed": -4}, "master_seed"),
                    ({"estimator": {"pairs": [[0, 5]]}}, "pairs")]

    @pytest.mark.parametrize("fault, field", STUDY_FAULTS)
    def test_simulate_checks_study_sections_exit_2(self, tmp_path, capsys, fault, field):
        payload = dict(json.loads(Path(sim_config(tmp_path)).read_text()), **fault)
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, field)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fault, field", STUDY_FAULTS)
    def test_estimate_checks_study_sections_exit_2(self, tmp_path, capsys, fault, field):
        ds = self.saved_dataset(tmp_path, capsys)
        cfg = write_config(tmp_path, "bad.json", fault)
        assert main(["estimate", "--data", str(ds), "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, field)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, field", [
        ({"variant": "SlopeFE", "panel": {"n_individuals": "abc"}}, "variant"),
        ({"panel": {"variant": "NonStationary"}}, "variant"),
        ({"panel": {"n_individuals": "abc"}}, "n_individuals"),
        ({"panel": {"n_individuals": 201}}, "n_individuals"),
        ({"panel": {"beta": [2.0]}}, "beta"),
        ({"panel": {"x_dist": {"type": "normal", "mu": 0.0, "sigma": 1.0}}}, "x_dist"),
        ({"panel": {"z_dist": {"type": "lognormal"}}}, "z_dist"),
        ({"panel": {"seed": -1}}, "seed"),
        ({"panel": {"sampling": "Bogus"}}, "sampling"),
    ])
    def test_estimate_config_disagreeing_with_dataset_exit_2(self, tmp_path, capsys, config,
                                                             field):
        ds = self.saved_dataset(tmp_path, capsys)
        cfg = write_config(tmp_path, "bad.json", config)
        assert main(["estimate", "--data", str(ds), "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, field)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config", [
        {"variant": "IndependentErrors", "panel": {"n_individuals": 200, "beta": [1]}},
        {"panel": {"seed": 12345, "sampling": "Censored"}},  # the seed may differ
    ])
    def test_estimate_config_agreeing_with_dataset_runs(self, tmp_path, capsys, config):
        ds = self.saved_dataset(tmp_path, capsys)
        cfg = write_config(tmp_path, "ok.json", config)
        assert main(["estimate", "--data", str(ds), "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0

    def test_readme_config_runs_every_command(self, tmp_path, capsys):
        # Two replications instead of 200: the sections are checked the same way.
        config = dict(self.readme_config(), replications=2)
        cfg = write_config(tmp_path, "config.json", config)
        data, results = str(tmp_path / "data"), str(tmp_path / "results")
        assert main(["simulate", "--config", cfg, "--out", data]) == 0
        assert main(["simulate", "--config", cfg, "--out", data + "5", "--seed", "5"]) == 0
        assert main(["estimate", "--data", data, "--config", cfg, "--out", results]) == 0
        assert main(["estimate", "--data", data + "5", "--config", cfg, "--out", results]) == 0
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "study")]) == 0
        verify = write_config(tmp_path, "v.json", {"n_points": 2, "orders": [[1, 1]]})
        assert main(["verify", "--config", verify, "--out", str(tmp_path / "v")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["simulate", "montecarlo", "verify"])
    def test_output_dir_under_a_file_names_the_field(self, tmp_path, capsys, command):
        (tmp_path / "f").write_text("")
        cfg = (TestMonteCarlo().mc_config(tmp_path) if command == "montecarlo"
               else write_config(tmp_path, "v.json", {"n_points": 2}) if command == "verify"
               else sim_config(tmp_path))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "f" / "sub")]) == 2
        assert_config_error(capsys, "output_dir")


def test_readme_names_only_defined_names():
    """Each backticked Python name in README with a dot or an underscore, such as
    `simulate.json_value`, is a word of the code in src/, tests/ or perfbench/, in each
    of its dotted parts; a file name such as `meta.json` is not a Python name."""
    files = ("csv", "json", "md", "npy", "py", "toml", "txt")
    names = {name for name in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
             if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", name, re.ASCII)
             and re.search(r"[._]", name) and name.rsplit(".", 1)[-1] not in files}
    code = "\n".join(path.read_text() for folder in ("src", "tests", "perfbench")
                     for path in (ROOT / folder).rglob("*.py"))
    words = set(re.findall(r"\w+", code))
    assert len(names) > 100
    assert sorted(name for name in names if not set(name.split(".")) <= words) == []
