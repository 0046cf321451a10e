"""Harness tests: seed splitting, truth labels, and failure policy."""

import numpy as np
import pytest

from tobitiv import (
    EstimatorSpec,
    LinearIndexDist,
    NormalDist,
    PanelConfig,
    Param,
    ShiftedHalfNormalDist,
    replication_seed,
    run_study,
    true_parameter_values,
)
from tobitiv.errors import ConvergenceError


def indep_config(**over):
    base = dict(
        variant="IndependentErrors", n_individuals=300, n_periods=2,
        n_regressors=1, beta=(1.0,),
        error_cov=((0.25, 0.0), (0.0, 0.375)), seed=0,
        fe_dist=LinearIndexDist(1.0, 0.5), x_dist=NormalDist(1.0, 1.0),
    )
    base.update(over)
    return PanelConfig(**base)


class TestSeeds:
    def test_substreams_distinct_and_stable(self):
        seeds = [replication_seed(123, j) for j in range(50)]
        assert len(set(seeds)) == 50
        assert seeds == [replication_seed(123, j) for j in range(50)]

    def test_master_seed_matters(self):
        assert replication_seed(1, 0) != replication_seed(2, 0)


class TestTruth:
    def test_variance_labels(self):
        cfg = indep_config()
        params = [Param("beta", (0,)), Param("sigma2_t", (0,)), Param("sigma2_t", (1,))]
        got = true_parameter_values(cfg, params)
        assert got == pytest.approx([1.0, 0.25, 0.375])

    def test_nonstationary_differences(self):
        cfg = indep_config(
            variant="NonStationary", error_cov=((0.25, 0.125), (0.125, 0.5))
        )
        got = true_parameter_values(cfg, [Param("dvar", (0, 1)), Param("dvar", (1, 0))])
        assert got == pytest.approx([0.125, 0.375])

    def test_factor_loading_parameters(self):
        cfg = indep_config(
            variant="FactorLoading",
            factor_loadings=(1.0, 1.5),
            error_cov=((0.25, 0.0), (0.0, 0.25)),
        )
        got = true_parameter_values(cfg, [Param(k, (1, 0)) for k in "rab"])
        # r = 1.5, a = sigma_0^2 r - sigma_01, b = sigma_1^2 - sigma_01 r.
        assert got == pytest.approx([1.5, 0.375, 0.25])

    def test_additive_variance_contrasts(self):
        cfg = indep_config(
            variant="AdditiveVariance", n_periods=3,
            error_cov=((0.25, 0, 0), (0, 0.375, 0), (0, 0, 0.5)),
            variance_fe_dist=ShiftedHalfNormalDist(0.25, 0.2),
        )
        params = [Param("dvar_ref", (1, 2)), Param("dvar_ref", (0, 2))]
        got = true_parameter_values(cfg, params)
        assert got == pytest.approx([-0.125, -0.25])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            Param("mystery")


class TestRunStudy:
    def test_summary_shape_and_determinism(self):
        cfg = indep_config()
        spec = EstimatorSpec(instruments="levels_squares")
        a = run_study(cfg, spec, 4, master_seed=7)[0]
        b = run_study(cfg, spec, 4, master_seed=7)[0]
        assert a.n_replications == 4 and a.n_failed == 0
        assert np.array_equal(a.mean_estimate, b.mean_estimate)
        assert len(a.records) == 4

    def test_sample_size_sweep(self):
        cfg = indep_config()
        spec = EstimatorSpec(instruments="levels_squares")
        out = run_study(cfg, spec, 2, master_seed=3, sample_sizes=[200, 400])
        assert [s.sample_size for s in out] == [200, 400]

    def test_excess_failures_abort(self):
        # Essentially everything censored: every replication raises an
        # empty-system error, tripping the 20% failure cap.
        cfg = indep_config(
            x_dist=NormalDist(-9.0, 0.5), fe_dist=LinearIndexDist(0.0, 0.1)
        )
        with pytest.raises(ConvergenceError, match="replications failed"):
            run_study(cfg, EstimatorSpec(), 5, master_seed=1)

    def test_worker_pool_matches_sequential(self):
        cfg = indep_config()
        spec = EstimatorSpec(instruments="levels_squares")
        seq = run_study(cfg, spec, 4, master_seed=11)[0]
        par = run_study(cfg, spec, 4, master_seed=11, workers=2)[0]
        assert np.array_equal(seq.mean_estimate, par.mean_estimate)
        assert np.array_equal(seq.rmse, par.rmse)
