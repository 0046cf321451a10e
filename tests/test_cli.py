"""CLI tests: exit codes, determinism, and machine-parsable errors."""

import csv
import json
import sys
import warnings

import numpy as np
import pytest

from tobitiv.cli import _fmt, main
from tobitiv.truncmoments import _full_power_integrals, moment_identity_residual


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
        assert (out / "y.csv").exists()
        assert (out / "x.csv").exists()
        assert "censoring rate" in capsys.readouterr().out

    def test_deterministic_output(self, tmp_path):
        cfg = sim_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        # Every file is byte-identical: a dataset is reproducible from its seed.
        for name in ("meta.json", "y.csv", "x.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_data(self, tmp_path):
        cfg = sim_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b), "--seed", "8"]) == 0
        assert (a / "y.csv").read_bytes() != (b / "y.csv").read_bytes()

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
        payload = json.loads(open(sim_config(tmp_path)).read())
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

    @pytest.mark.parametrize(
        "damage",
        [
            lambda lines: lines[:-1] + [lines[-1].split(",")[0]],  # truncated last row
            lambda lines: lines[:-5],  # rows missing
            lambda lines: lines[:3] + ["nan,1.0"] + lines[4:],  # NaN cell
            lambda lines: lines[:3] + ["abc,1.0"] + lines[4:],  # not a number
        ],
        ids=["truncated_row", "missing_rows", "nan_cell", "text_cell"],
    )
    def test_damaged_dataset_exit_2(self, tmp_path, capsys, damage):
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", sim_config(tmp_path), "--out", str(ds)]) == 0
        capsys.readouterr()
        y = ds / "y.csv"
        y.write_text("\n".join(damage(y.read_text().splitlines())) + "\n")
        assert main(["estimate", "--data", str(ds), "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, "data_dir")

    @pytest.mark.parametrize("text", ["t0,t1\n", ""], ids=["header_only", "empty"])
    def test_y_without_rows_exit_2_without_warning(self, tmp_path, capsys, text):
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", sim_config(tmp_path), "--out", str(ds)]) == 0
        capsys.readouterr()
        (ds / "y.csv").write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["estimate", "--data", str(ds), "--out", str(tmp_path / "o")]) == 2
        assert [str(w.message) for w in caught] == []
        assert_config_error(capsys, "data_dir")

    @pytest.mark.parametrize("sampling, cell", [("Censored", "-0.5"), ("Truncated", "0")])
    def test_outcome_outside_sampling_support_exit_2(self, tmp_path, capsys, sampling, cell):
        cfg = sim_config(tmp_path, sampling=sampling)
        ds = tmp_path / "ds"
        assert main(["simulate", "--config", cfg, "--out", str(ds)]) == 0
        capsys.readouterr()
        y = ds / "y.csv"
        lines = y.read_text().splitlines()
        lines[5] = cell + lines[5][lines[5].index(","):]
        y.write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--data", str(ds), "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, "data_dir")
        assert not (tmp_path / "o").exists()

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
        ],
    )
    def test_bad_estimator_spec_exit_2(self, tmp_path, capsys, estimator, field):
        panel, _ = self.long_panel()
        cfg = self.mc_config(tmp_path, variant="NonStationary", panel=panel,
                             estimator=estimator)
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_config_error(capsys, field)

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
         ("error_cov", [[0.25, 0.0], [0.0, float("inf")]], "error_cov"),
         ("n_individuals", "300", "n_individuals"),
         # finite parameters whose draws overflow to inf
         ("x_dist", {"type": "normal", "mu": 1.0, "sigma": 1e308}, "panel")],
        ids=["beta-value0", "error_cov-value1", "n_individuals-300", "overflowing_draws"],
    )
    def test_non_finite_panel_exit_2(self, tmp_path, capsys, field, value, reported):
        cfg = self.mc_config(tmp_path)
        payload = json.loads(open(cfg).read())
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
        [("fe_dist", {"type": "normal", "mu": 0.0, "sigma": 1.0}),
         ("x_dist", {"type": "linear_index", "index_coef": 1.0, "noise_sigma": 0.5})],
    )
    def test_wrong_distribution_type_exit_2(self, tmp_path, capsys, field, value):
        # fe_dist is drawn around the regressor index, x_dist by shape.
        cfg = self.mc_config(tmp_path)
        payload = json.loads(open(cfg).read())
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
        payload = json.loads(open(cfg).read())
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
        payload = json.loads(open(self.mc_config(tmp_path, **study)).read())
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
        "variant, panel, estimator, singular",
        [("FactorLoading",
          {"n_periods": 2, "error_cov": [[0.25, 0.0], [0.0, 0.25]],
           "factor_loadings": [1.0, 1.5], "x_dist": {"type": "normal", "mu": 1.0, "sigma": 0}},
          {"instruments": "products"}, "linear block's GMM matrix"),
         ("FactorLoading",
          {"n_periods": 2, "error_cov": [[0.25, 0.0], [0.0, 0.25]],
           "factor_loadings": [1.0, 1.5], "beta": [2**63]},
          {"instruments": "products"}, "moment Jacobian's GMM matrix"),
         ("VarianceFE",
          {"n_periods": 3, "n_individuals": 200, "sampling": "Truncated",
           "error_cov": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
           "fe_dist": {"type": "linear_index", "index_coef": 2**63, "noise_sigma": 0.5},
           "variance_fe_dist": {"type": "shifted_halfnormal", "shift": 0.25, "scale": 0.2},
           "x_dist": {"type": "normal", "mu": 1.0, "sigma": 2.0}},
          {"instruments": "index_proxy"}, "two-step GMM matrix for J")],
        ids=["constant_x", "huge_beta", "huge_effects"],
    )
    def test_singular_gmm_matrix_exit_3(self, tmp_path, capsys, variant, panel, estimator,
                                        singular):
        payload = json.loads(open(self.mc_config(tmp_path, variant=variant,
                                                 estimator=estimator)).read())
        payload["panel"].update(panel)
        cfg = write_config(tmp_path, "mc.json", payload)
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        error = single_json_line(capsys)
        assert error["error"] == "ConvergenceError"
        assert f"IdentificationError: the {singular}" in error["message"]

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
        # One pool serves both sample sizes, and each worker maps one contiguous share.
        pools, chunksizes = [], []

        class RecordingPool:
            """Records its size and chunk sizes; maps in this process, starting none."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                chunksizes.append(chunksize)
                return map(fn, tasks)

        monkeypatch.setattr("tobitiv.montecarlo.futures.ProcessPoolExecutor", RecordingPool)
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
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
            want.append([str(k), str(m)] + [_fmt(v) for v in (
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
        ],
    )
    def test_bad_field_exit_2(self, tmp_path, capsys, override, field):
        cfg = write_config(tmp_path, "v.json", {"n_points": 2, **override})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
        assert_config_error(capsys, field)
        assert not (tmp_path / "v").exists()

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
