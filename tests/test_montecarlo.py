"""Harness tests: seed splitting, truth labels, and failure policy."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from tobitiv import (
    EstimatorSpec,
    LinearIndexDist,
    LogNormalDist,
    NormalDist,
    PanelConfig,
    Param,
    ReplicationRecord,
    ShiftedHalfNormalDist,
    StudySummary,
    build_estimation_system,
    replication_seed,
    run_study,
    simulate,
    true_parameter_values,
)
from tobitiv.errors import ConfigurationError, ConvergenceError
from tobitiv.montecarlo import VARIANT_BUILDERS, run_replication, summarize
from tobitiv.simulate import VARIANT_INPUTS, ModelVariant
from tobitiv.truncmoments import MAX_TOTAL_ORDER


def indep_config(**over):
    base = dict(
        variant="IndependentErrors", n_individuals=300, n_periods=2,
        n_regressors=1, beta=(1.0,),
        error_cov=((0.25, 0.0), (0.0, 0.375)), seed=0,
        fe_dist=LinearIndexDist(1.0, 0.5), x_dist=NormalDist(1.0, 1.0),
    )
    base.update(over)
    return PanelConfig(**base)


def test_one_builder_per_variant():
    """The builder table, like the variant table, has one entry per variant; a
    single-pair variant builds from the pair (1, 0) by default, whatever T is."""
    assert list(VARIANT_BUILDERS) == list(ModelVariant) == list(VARIANT_INPUTS)
    cfg = indep_config(variant="SlopeFE", n_periods=3, error_cov=np.diag([0.25, 0.375, 0.5]),
                       z_dist=LogNormalDist(0.0, 0.25))
    system = build_estimation_system(simulate(cfg), cfg, EstimatorSpec())
    assert system.param_names == ["beta0", "sigma2_t1", "sigma2_t0", "cov_01"]


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


class TestOrderBound:
    def test_orders_up_to_the_oracle_bound_pass(self):
        top = MAX_TOTAL_ORDER - 2  # k + m + 1 = MAX_TOTAL_ORDER
        EstimatorSpec(orders=((1, top), (top, 1), (1, 1))).validate(
            indep_config(variant="NonStationary"))
        EstimatorSpec(cross_section_order=MAX_TOTAL_ORDER - 1).validate(
            indep_config(variant="CrossSection", n_periods=1, error_cov=((0.25,),)))

    @pytest.mark.parametrize("order", [(1, MAX_TOTAL_ORDER - 1), (10**6, 1)])
    def test_orders_past_it_are_config_errors(self, order):
        with pytest.raises(ConfigurationError, match="k \\+ m \\+ 1 <=") as exc:
            EstimatorSpec(orders=(order,)).validate(indep_config(variant="NonStationary"))
        assert exc.value.field == "orders"


class TestRunStudy:
    def test_summary_shape_and_determinism(self):
        cfg = indep_config()
        spec = EstimatorSpec(instruments="levels_squares")
        a = run_study(cfg, spec, 4, master_seed=7)[0]
        b = run_study(cfg, spec, 4, master_seed=7)[0]
        assert a.n_replications == 4 and a.n_failed == 0
        assert np.array_equal(a.mean_estimate, b.mean_estimate)
        assert len(a.records) == 4

    def test_record_keeps_solver_result(self):
        cfg = indep_config()
        spec = EstimatorSpec(instruments="levels_squares")
        summary = run_study(cfg, spec, 2, master_seed=7)[0]
        for rec in summary.records:
            res = rec.result
            assert not rec.failed and rec.error is None
            assert res.param_names == summary.param_names
            assert res.converged
            assert res.condition_number >= 1.0
            assert 0 < res.n_clusters <= rec.sample_size
            assert res.j_dof == 2  # 5 levels_squares columns, 3 parameters
        est = np.vstack([r.result.estimates for r in summary.records])
        assert np.array_equal(summary.mean_estimate, est.mean(axis=0))

    def test_failed_record_has_no_result(self):
        cfg = indep_config(
            x_dist=NormalDist(-9.0, 0.5), fe_dist=LinearIndexDist(0.0, 0.1)
        )
        rec = run_replication(cfg, EstimatorSpec(), 0, master_seed=1)
        assert rec.failed and rec.result is None
        assert rec.error.startswith("EmptySystemError")

    def test_records_take_keywords_and_derive_from_their_result(self):
        """Field order is column order, so the record types take keywords only: a positional
        call is a TypeError, not two ints swapped. `converged` and `j_statistic` follow
        `result` through `replace`, and a frozen record cannot leave them stale."""
        with pytest.raises(TypeError):
            ReplicationRecord(7, 300, 1.0, None)
        with pytest.raises(TypeError):
            StudySummary(300, ["beta0"], *[np.zeros(1)] * 7, 1, 0)
        [summary] = run_study(indep_config(), EstimatorSpec(instruments="levels_squares"), 1,
                              master_seed=7)
        good = summary.records[0]
        assert (good.replication, good.sample_size, good.converged) == (0, 300, 1)
        failed = replace(good, result=None, error="EmptySystemError: no rows")
        assert (failed.converged, failed.j_statistic) == (0, None)
        again = replace(failed, result=good.result, error=None)
        assert (again.converged, again.j_statistic) == (1, good.result.j_statistic)
        with pytest.raises(FrozenInstanceError):
            good.result = None

    def test_summarize_with_every_replication_failed_raises(self):
        cfg = indep_config(
            x_dist=NormalDist(-9.0, 0.5), fe_dist=LinearIndexDist(0.0, 0.1)
        )
        records = [run_replication(cfg, EstimatorSpec(), j, master_seed=1) for j in range(2)]
        assert all(rec.failed for rec in records)
        with pytest.raises(ConvergenceError, match="^all replications failed$"):
            summarize(records, np.ones(3), ["beta0", "sigma2_t0", "sigma2_t1"])

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
