"""Acceptance gate: the eight criteria, one pass/fail line each.

All runs are deterministic (fixed master seeds) and desk-scale. Criterion 5
is the heavyweight consistency sweep; everything else finishes in seconds.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from tobitiv import (
    BivariateNormalSpec,
    EstimatorSpec,
    LinearIndexDist,
    LogNormalDist,
    MomentQuery,
    MomentSystem,
    NormalDist,
    PanelConfig,
    Param,
    ShiftedHalfNormalDist,
    UnivariateNormalSpec,
    bivariate_truncated_moment_mc,
    bivariate_truncated_moment_quad,
    build_cross_section,
    build_pairwise_independent,
    build_pairwise_nonstationary,
    build_triple_variance_fe,
    j_test,
    moment_identity_residual,
    replication_seed,
    run_study,
    simulate,
    two_stage_least_squares,
    univariate_truncated_moment,
    univariate_truncated_moment_quad,
)
from tobitiv.moments import additive_variance_regressors


def announce(capsys, number, name, passed, detail):
    with capsys.disabled():
        verdict = "PASS" if passed else "FAIL"
        print(f"\n[ACCEPTANCE {number}] {name}: {verdict} ({detail})")


def random_bivariate_points(seed, n_points, rho_max=0.9):
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n_points):
        s1 = rng.uniform(0.25, 4.0)
        s2 = rng.uniform(0.25, 4.0)
        rho = rng.uniform(-rho_max, rho_max)
        points.append(
            BivariateNormalSpec(
                mu1=rng.uniform(-2.0, 2.0),
                mu2=rng.uniform(-2.0, 2.0),
                sigma1_sq=s1,
                sigma2_sq=s2,
                sigma12=rho * math.sqrt(s1 * s2),
            )
        )
    return points


def test_criterion_1_moment_identity_verification(capsys):
    # 50 randomized parameter points x (k, m) in {1,2,3}^2; quadrature
    # tolerance 1e-7, acceptance threshold 1e-6 on the identity residual.
    points = random_bivariate_points(20260823, 50)
    worst = 0.0
    for spec in points:
        for k in (1, 2, 3):
            for m in (1, 2, 3):
                res = abs(moment_identity_residual(spec, MomentQuery(k, m), tol=1e-7))
                worst = max(worst, res)
    passed = worst < 1e-6
    announce(capsys, 1, "moment identity over randomized grid", passed,
             f"max |residual| = {worst:.3e} < 1e-6")
    assert passed


def test_criterion_2_quadrature_vs_monte_carlo(capsys):
    # Two independent oracles: deterministic quadrature vs rejection-sampling
    # Monte Carlo with 1e7 draws, agreement within 4 MC standard errors.
    points = random_bivariate_points(1515, 20, rho_max=0.8)
    rng = np.random.default_rng(7)
    worst = 0.0
    for i, spec in enumerate(points):
        k, m = [(1, 1), (2, 1), (1, 2), (2, 2)][int(rng.integers(4))]
        q = MomentQuery(k, m)
        quad = bivariate_truncated_moment_quad(spec, q, tol=1e-9)
        mc, se = bivariate_truncated_moment_mc(spec, q, n_draws=10_000_000, seed=1000 + i)
        worst = max(worst, abs(mc - quad) / se)
    passed = worst < 4.0
    announce(capsys, 2, "quadrature vs Monte Carlo oracle agreement", passed,
             f"max |diff|/SE = {worst:.2f} < 4 over 20 points")
    assert passed


def test_criterion_3_univariate_recursion(capsys):
    worst = 0.0
    for mu in (-1.5, -0.5, 0.0, 0.5, 1.0, 2.0):
        for s2 in (0.25, 1.0, 4.0):
            spec = UnivariateNormalSpec(mu, s2)
            for k in range(6):
                rec = univariate_truncated_moment(spec, k)
                quad = univariate_truncated_moment_quad(spec, k)
                worst = max(worst, abs(rec - quad) / max(1.0, abs(quad)))
    frozen = abs(
        univariate_truncated_moment(UnivariateNormalSpec(0.0, 1.0), 1)
        - 0.797884560803
    )
    passed = worst < 1e-8 and frozen < 1e-9
    announce(capsys, 3, "univariate recursion vs 1D quadrature", passed,
             f"max rel diff = {worst:.2e} < 1e-8; |E[U|U>0] - 0.797884560803| = {frozen:.1e}")
    assert passed


def test_criterion_4_cross_section_estimator(capsys):
    # N = 1e4, beta = 1, sigma^2 = 1, ~40% censoring, 200 replications.
    cfg = PanelConfig(
        variant="CrossSection", n_individuals=10_000, n_periods=1,
        n_regressors=1, beta=(1.0,), error_cov=((1.0,),), seed=0,
        x_dist=NormalDist(0.36, 1.0),
    )
    summary = run_study(cfg, EstimatorSpec(), 200, master_seed=314)[0]
    ratios = np.abs(summary.mean_bias) / summary.se_of_mean
    cover_ok = np.all((summary.coverage95 >= 0.90) & (summary.coverage95 <= 0.98))
    passed = bool(np.all(ratios < 2.0) and cover_ok)
    announce(capsys, 4, "cross-section estimator bias and coverage", passed,
             f"|bias|/SE = {np.round(ratios, 2).tolist()} < 2; "
             f"coverage = {np.round(summary.coverage95, 3).tolist()} in [0.90, 0.98]")
    assert passed


def _consistency_configs():
    fe = LinearIndexDist(1.0, 0.5)
    return {
        "IndependentErrors": (
            PanelConfig(
                variant="IndependentErrors", n_individuals=0, n_periods=2,
                n_regressors=2, beta=(1.0, -0.5),
                error_cov=((0.25, 0.0), (0.0, 0.375)), seed=0,
                fe_dist=fe, x_dist=NormalDist(1.0, 1.0),
            ),
            EstimatorSpec(instruments="levels_squares"),
        ),
        "NonStationary": (
            PanelConfig(
                variant="NonStationary", n_individuals=0, n_periods=2,
                n_regressors=1, beta=(1.0,),
                error_cov=((0.25, 0.125), (0.125, 0.5)), seed=0,
                fe_dist=fe, x_dist=NormalDist(1.0, 1.0),
            ),
            EstimatorSpec(instruments="levels_squares"),
        ),
        "FactorLoading": (
            PanelConfig(
                variant="FactorLoading", n_individuals=0, n_periods=2,
                n_regressors=1, beta=(1.0,), error_cov=((0.25, 0.0), (0.0, 0.25)),
                factor_loadings=(1.0, 1.5), seed=0,
                fe_dist=fe, x_dist=NormalDist(1.0, 2.0),
            ),
            EstimatorSpec(instruments="products"),
        ),
        "VarianceFE": (
            PanelConfig(
                variant="VarianceFE", n_individuals=0, n_periods=3,
                n_regressors=1, beta=(1.0,),
                error_cov=((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)),
                variance_fe_dist=ShiftedHalfNormalDist(0.25, 0.2), seed=0,
                fe_dist=fe, x_dist=NormalDist(1.0, 2.0),
            ),
            EstimatorSpec(instruments="index_proxy"),
        ),
        "AdditiveVariance": (
            PanelConfig(
                variant="AdditiveVariance", n_individuals=0, n_periods=3,
                n_regressors=1, beta=(1.0,),
                error_cov=((0.25, 0, 0), (0, 0.375, 0), (0, 0, 0.5)),
                variance_fe_dist=ShiftedHalfNormalDist(0.25, 0.2), seed=0,
                fe_dist=fe, x_dist=NormalDist(1.0, 2.0),
            ),
            EstimatorSpec(instruments="index_proxy"),
        ),
        "SlopeFE": (
            PanelConfig(
                variant="SlopeFE", n_individuals=0, n_periods=2,
                n_regressors=1, beta=(1.0,),
                error_cov=((0.25, 0.0), (0.0, 0.375)),
                z_dist=LogNormalDist(0.0, 0.25), seed=0,
                fe_dist=fe, x_dist=NormalDist(1.0, 1.0),
            ),
            EstimatorSpec(instruments="levels_squares"),
        ),
    }


def test_criterion_5_panel_consistency_sweep(capsys):
    # Per variant: N in {1000, 4000, 16000}, 200 replications; RMSE of every
    # parameter strictly decreasing, and at N = 16000 the absolute mean bias
    # is below 3x the Monte Carlo SE of the mean.
    sizes = [1000, 4000, 16000]
    details, all_ok = [], True
    for name, (cfg, spec) in _consistency_configs().items():
        summaries = run_study(cfg, spec, 200, master_seed=2026, sample_sizes=sizes)
        rmse = np.vstack([s.rmse for s in summaries])
        mono = bool(np.all(rmse[1:] < rmse[:-1]))
        final = summaries[-1]
        ratio = float(np.max(np.abs(final.mean_bias) / final.se_of_mean))
        ok = mono and ratio < 3.0
        all_ok &= ok
        details.append(f"{name}: mono={mono}, max|bias|/SE={ratio:.2f}")
    announce(capsys, 5, "panel consistency across six variants", all_ok,
             "; ".join(details))
    assert all_ok


def test_criterion_6_fixed_effects_necessity(capsys):
    # A pooled cell-wise estimator that ignores the individual effect must
    # show at least 10x the slope bias of the pairwise estimator at N=16000.
    cfg, spec = _consistency_configs()["IndependentErrors"]
    cfg = replace(cfg, n_individuals=16000)
    pooled, pairwise = [], []
    for j in range(100):
        ds = simulate(replace(cfg, seed=replication_seed(606, j)))
        pooled.append(two_stage_least_squares(build_cross_section(ds)).estimates[0])
        sys_ = build_pairwise_independent(ds, 0, 1, instruments="levels_squares")
        pairwise.append(two_stage_least_squares(sys_).estimates[0])
    bias_pooled = abs(np.mean(pooled) - 1.0)
    bias_pair = abs(np.mean(pairwise) - 1.0)
    passed = bias_pooled > 10.0 * bias_pair
    announce(capsys, 6, "pooled estimator bias vs pairwise", passed,
             f"|pooled bias| = {bias_pooled:.4f} > 10 x |pairwise bias| = {bias_pair:.4f}")
    assert passed


def test_criterion_7_identity_suite(capsys):
    rng = np.random.default_rng(17)
    y = rng.uniform(0.5, 2.0, (200, 3))
    x = rng.normal(size=(200, 3, 1))
    from tobitiv import PanelDataset

    cfg = PanelConfig(
        variant="IndependentErrors", n_individuals=200, n_periods=3,
        n_regressors=1, beta=(1.0,),
        error_cov=((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)), seed=0,
    )
    ds = PanelDataset(y=y, x=x, config=cfg)

    # Nesting: (k, m) = (1, 1) nonstationary rows == independent-errors rows.
    a = build_pairwise_nonstationary(ds, 0, 1, 1, 1)
    b = build_pairwise_independent(ds, 0, 1)
    nest = np.array_equal(a.dependent, b.dependent) and np.array_equal(
        a.regressors, b.regressors
    )

    # Triple cancellation of the individual-variance regressors.
    raw = additive_variance_regressors(y[:, 0], y[:, 1], y[:, 2])
    cancel = bool(np.max(np.abs(raw.sum(axis=1))) < 1e-12)

    # Antisymmetry under period swap.
    rev = build_pairwise_independent(ds, 1, 0)
    anti = np.allclose(b.dependent, -rev.dependent, atol=1e-12)

    # Instrument-scale invariance of 2SLS.
    base = two_stage_least_squares(b).estimates
    b_scaled = MomentSystem(
        dependent=b.dependent, regressors=b.regressors,
        instrument_blocks=[137.0 * b.instruments], cluster=b.cluster,
        params=b.params, periods=b.periods,
    )
    scale = np.allclose(base, two_stage_least_squares(b_scaled).estimates, atol=1e-10)

    # Just-identified IV equals the hand ratio formula.
    hand_sys = MomentSystem(
        dependent=np.array([2.0, 4.0]), regressors=np.array([[1.0], [2.0]]),
        instrument_blocks=[np.array([[1.0], [1.0]])], cluster=np.arange(2),
        params=[Param("beta", (0,))], periods=np.zeros((2, 1), dtype=int),
    )
    hand = abs(two_stage_least_squares(hand_sys).estimates[0] - 2.0) < 1e-12

    passed = nest and cancel and anti and scale and hand
    announce(capsys, 7, "identity and degeneracy suite", passed,
             f"nesting={nest}, cancellation={cancel}, antisymmetry={anti}, "
             f"scale-invariance={scale}, hand-IV={hand}")
    assert passed


def test_criterion_8_j_test_size_and_power(capsys):
    # Size: correctly specified overidentified system, 500 replications.
    size_cfg = PanelConfig(
        variant="CrossSection", n_individuals=2000, n_periods=1,
        n_regressors=1, beta=(1.0,), error_cov=((1.0,),), seed=0,
        x_dist=NormalDist(0.36, 1.0),
    )
    rejections = 0
    for j in range(500):
        ds = simulate(replace(size_cfg, seed=replication_seed(271, j)))
        _, _, p = j_test(two_stage_least_squares(build_cross_section(ds)))
        rejections += p < 0.05
    size = rejections / 500

    # Power: loadings-ratio data estimated with the equal-loadings pairwise
    # system (misspecified) at N = 16000.
    power_cfg = PanelConfig(
        variant="FactorLoading", n_individuals=16000, n_periods=2,
        n_regressors=1, beta=(1.0,), error_cov=((0.25, 0.0), (0.0, 0.25)),
        factor_loadings=(1.0, 2.0), seed=0,
        fe_dist=LinearIndexDist(1.0, 0.5), x_dist=NormalDist(1.0, 1.0),
    )
    rejections = 0
    for j in range(100):
        ds = simulate(replace(power_cfg, seed=replication_seed(99, j)))
        sys_ = build_pairwise_independent(ds, 0, 1, instruments="levels_squares")
        _, _, p = j_test(two_stage_least_squares(sys_))
        rejections += p < 0.05
    power = rejections / 100

    passed = 0.02 <= size <= 0.09 and power > 0.5
    announce(capsys, 8, "overidentification test size and power", passed,
             f"size at 5% = {size:.3f} in [0.02, 0.09]; power = {power:.2f} > 0.5")
    assert passed
