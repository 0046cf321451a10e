"""Solver tests: hand formulas, invariances, and the concentrated search."""

import json
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from tobitiv import (
    EstimatorSpec,
    LinearIndexDist,
    MomentSystem,
    NormalDist,
    PanelConfig,
    Param,
    build_estimation_system,
    build_factor_loading,
    build_pairwise_independent,
    j_test,
    nonlinear_gmm,
    simulate,
    two_stage_least_squares,
)
from tobitiv.errors import (
    IdentificationError,
    InsufficientObservationsError,
    NotApplicableError,
)
from tobitiv.gmm import (
    _column_scale,
    _pivoted_qr,
    _sandwich,
    _whiten_instruments,
    concentrated_linear_solve,
    golden_section,
)

from dense import dense_regressors


def linear_system(dep, reg, inst, cluster=None):
    dep = np.asarray(dep, dtype=float)
    reg = np.asarray(reg, dtype=float)
    inst = np.asarray(inst, dtype=float)
    n = dep.shape[0]
    return MomentSystem.one_block(
        dep, reg, inst, np.arange(n) if cluster is None else np.asarray(cluster),
        [Param("beta", (j,)) for j in range(reg.shape[1])],
    )


def random_system(seed, n=400, p=3, q=5, cluster_size=2):
    rng = np.random.default_rng(seed)
    Z = np.column_stack([np.ones(n), rng.normal(size=(n, q - 1))])
    X = Z[:, :p] @ rng.normal(size=(p, p)) + 0.1 * rng.normal(size=(n, p))
    theta = rng.normal(size=p)
    y = X @ theta + rng.normal(size=n)
    return linear_system(y, X, Z, cluster=np.arange(n) // cluster_size), theta


class TestTwoStageLeastSquares:
    def test_hand_iv_formula(self):
        # rows (dependent, regressor, instrument) = (2, 1, 1), (4, 2, 1):
        # just-identified IV = (sum z*y) / (sum z*w) = 6 / 3 = 2.
        sys_ = linear_system([2.0, 4.0], [[1.0], [2.0]], [[1.0], [1.0]])
        res = two_stage_least_squares(sys_)
        assert res.estimates == pytest.approx([2.0], abs=1e-12)
        assert res.j_statistic is None

    def test_instruments_equal_regressors_is_ols(self):
        rng = np.random.default_rng(7)
        X = np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
        y = X @ np.array([1.0, -0.5, 2.0]) + rng.normal(size=200)
        sys_ = linear_system(y, X, X)
        res = two_stage_least_squares(sys_)
        ols, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert np.allclose(res.estimates, ols, atol=1e-10)

    def test_instrument_scale_invariance(self):
        sys_, _ = random_system(0)
        base = two_stage_least_squares(sys_).estimates
        scaled_sys = replace(sys_, instrument_blocks=[7.3 * sys_.instruments])
        scaled = two_stage_least_squares(scaled_sys).estimates
        assert np.allclose(base, scaled, atol=1e-10)

    def test_row_order_invariance(self):
        sys_, _ = random_system(1)
        base = two_stage_least_squares(sys_)
        perm = np.random.default_rng(2).permutation(sys_.n_rows)
        shuffled = linear_system(
            sys_.dependent[perm],
            dense_regressors(sys_)[perm],
            sys_.instruments[perm],
            cluster=sys_.cluster[perm],
        )
        res = two_stage_least_squares(shuffled)
        assert np.allclose(res.estimates, base.estimates, atol=1e-10)
        assert np.allclose(res.covariance, base.covariance, atol=1e-10)

    def test_covariance_is_spd(self):
        sys_, _ = random_system(3)
        res = two_stage_least_squares(sys_)
        assert np.allclose(res.covariance, res.covariance.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(res.covariance) > 0)

    def test_estimates_near_truth(self):
        sys_, theta = random_system(4, n=20_000)
        res = two_stage_least_squares(sys_)
        assert np.all(np.abs(res.estimates - theta) < 4 * res.se)

    def test_collinear_instruments_pruned_not_fatal(self):
        sys_, theta = random_system(5)
        Z = sys_.instruments
        Z = np.hstack([Z, Z[:, :2] @ np.array([[1.0], [2.0]])])
        res = two_stage_least_squares(replace(sys_, instrument_blocks=[Z]))
        assert np.all(np.abs(res.estimates - theta) < 5 * res.se)

    @pytest.mark.parametrize("solve, system, message", [
        (two_stage_least_squares, lambda: linear_system([1.0], [[1.0, 0.0]], [[1.0, 0.0]]),
         "1 rows for 2 parameters"),
        # K = 1: beta0, r, a and b
        (nonlinear_gmm, lambda: first_rows(factor_loading_panel((1.0, 1.5), 10, n=40)[1], 3),
         "3 rows for 4 parameters"),
    ], ids=["linear", "factor_loading"])
    def test_too_few_rows(self, solve, system, message):
        with pytest.raises(InsufficientObservationsError, match=f"^{message}$"):
            solve(system())

    def test_derived_fields_are_set_at_construction(self):
        """`se` and `param_names` come from `covariance` and `params` when a result is built:
        `replace` recomputes them, and a frozen result cannot leave them stale."""
        res = two_stage_least_squares(random_system(0)[0])
        doubled = replace(res, covariance=4.0 * res.covariance)
        assert np.array_equal(doubled.se, 2.0 * res.se)
        assert doubled.to_dict()["se"] == (2.0 * res.se).tolist()
        assert doubled.param_names == res.param_names == ["beta0", "beta1", "beta2"]
        with pytest.raises(FrozenInstanceError):
            res.covariance = doubled.covariance
        assert "se=" not in repr(res) and "param_names=" not in repr(res)

    def test_too_few_instruments(self):
        sys_ = linear_system([1.0, 2.0, 4.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                             [[1.0], [2.0], [3.0]])
        with pytest.raises(IdentificationError, match="^1 instruments for 2 parameters$"):
            two_stage_least_squares(sys_)

    def test_rank_deficiency_reported(self):
        rng = np.random.default_rng(6)
        X1 = rng.normal(size=(100, 1))
        X = np.hstack([X1, 2.0 * X1])  # exactly collinear regressors
        y = X1[:, 0] + rng.normal(size=100)
        Z = np.column_stack([np.ones(100), rng.normal(size=(100, 2))])
        with pytest.raises(IdentificationError) as err:
            two_stage_least_squares(linear_system(y, X, Z))
        assert err.value.deficient_directions is not None


class TestJTest:
    def test_just_identified_not_applicable(self):
        sys_ = linear_system([2.0, 4.0], [[1.0], [2.0]], [[1.0], [1.0]])
        res = two_stage_least_squares(sys_)
        with pytest.raises(NotApplicableError):
            j_test(res)

    def test_overidentified_returns_chi2_pvalue(self):
        sys_, _ = random_system(8, n=2000)
        res = two_stage_least_squares(sys_)
        stat, dof, p = j_test(res)
        assert stat >= 0.0
        assert dof == sys_.instruments.shape[1] - len(sys_.param_names)
        assert 0.0 <= p <= 1.0


class TestGoldenSection:
    def test_quadratic_minimum(self):
        x, fx = golden_section(lambda t: (t - 1.3) ** 2, 0.0, 4.0, tol=1e-12)
        assert x == pytest.approx(1.3, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-12)


def independent_columns(Z):
    """The instrument columns that `nonlinear_gmm` keeps: a maximal independent subset."""
    return _pivoted_qr(Z, _column_scale(Z))[2]


def factor_loading_panel(loadings, seed, n=20_000):
    cfg = PanelConfig(
        variant="FactorLoading",
        n_individuals=n,
        n_periods=2,
        n_regressors=1,
        beta=(1.0,),
        error_cov=((0.25, 0.0), (0.0, 0.25)),
        factor_loadings=loadings,
        seed=seed,
        fe_dist=LinearIndexDist(1.0, 0.5),
        x_dist=NormalDist(1.0, 2.0),
    )
    ds = simulate(cfg)
    return ds, build_factor_loading(ds, 1, 0, instruments="products")


def first_rows(system, n):
    """A factor-loading system cut to its first n rows."""
    return replace(system, **{name: getattr(system, name)[:n] for name in (
        "y_t", "y_s", "x_t", "x_s", "instruments", "cluster")})


class TestNonlinearGMM:
    def test_concentration_identity(self):
        # At fixed r the inner solve equals direct 2SLS on the transformed
        # linear system.
        _, sys_ = factor_loading_panel((1.0, 1.5), seed=10, n=3000)
        Z = sys_.instruments[:, independent_columns(sys_.instruments)]
        Zw = _whiten_instruments(Z)
        W = np.eye(Zw.shape[1])
        for r in (0.7, 1.0, 1.5):
            theta, *_ = concentrated_linear_solve(sys_, r, Zw, W)
            dep, X = sys_.linear_parts(r)
            direct = two_stage_least_squares(
                MomentSystem.one_block(
                    dep, X, sys_.instruments, sys_.cluster,
                    [p for p in sys_.params if p.kind != "r"],
                )
            )
            assert np.allclose(theta, direct.estimates, atol=1e-10)

    def test_too_few_instruments(self):
        # Constant, x_t and x_s cannot identify (beta, r, a, b): without the
        # check this fit returned numbers with standard errors above 1e5.
        _, sys_ = factor_loading_panel((1.0, 1.5), seed=16, n=2000)
        narrow = replace(sys_, instruments=sys_.instruments[:, :3])
        with pytest.raises(IdentificationError, match="^3 instruments for 4 parameters$"):
            nonlinear_gmm(narrow)

    def test_singular_linear_block_reported(self):
        # x_t = x_s = 0 makes the beta column of the linear block zero at every r.
        _, sys_ = factor_loading_panel((1.0, 1.5), seed=16, n=2000)
        Zw = _whiten_instruments(sys_.instruments[:, independent_columns(sys_.instruments)])
        zero = np.zeros_like(sys_.x_t)
        with pytest.raises(IdentificationError,
                           match="^the linear block's GMM matrix at r = 1.5 is singular$"):
            concentrated_linear_solve(replace(sys_, x_t=zero, x_s=zero), 1.5, Zw,
                                      np.eye(Zw.shape[1]))

    def test_singular_sandwich_bread_reported(self):
        G = np.ones((3, 2))  # two equal columns: GW G is exactly singular
        with pytest.raises(IdentificationError,
                           match="^the moment Jacobian's GMM matrix is singular$"):
            _sandwich(G, G.T, np.eye(3))

    def test_recovers_loadings_ratio(self):
        _, sys_ = factor_loading_panel((1.0, 1.5), seed=11)
        res = nonlinear_gmm(sys_)
        assert res.converged
        r_idx = sys_.param_names.index("r_10")
        assert abs(res.estimates[r_idx] - 1.5) < 3 * res.se[r_idx]

    def test_equal_loadings_nest_linear_solution(self):
        ds, sys_ = factor_loading_panel((1.0, 1.0), seed=12)
        res = nonlinear_gmm(sys_)
        r_idx = sys_.param_names.index("r_10")
        assert abs(res.estimates[r_idx] - 1.0) < 3 * res.se[r_idx]
        # The linear pairwise estimator on the same data targets the same
        # beta; the two should agree well within sampling noise.
        lin = two_stage_least_squares(build_pairwise_independent(ds, 1, 0))
        assert abs(res.estimates[0] - lin.estimates[0]) < 0.1

    def test_objective_nonnegative_and_reported(self):
        _, sys_ = factor_loading_panel((1.0, 1.5), seed=13, n=4000)
        res = nonlinear_gmm(sys_)
        assert res.objective_value >= 0.0
        assert res.iterations > 0
        assert res.j_statistic is not None and res.j_statistic >= 0.0

    def test_iterations_count_each_inner_solve_once(self, monkeypatch):
        # Every point of both searches is solved once, the minimisers included:
        # `iterations` is the number of inner solves, and no r is solved twice.
        _, sys_ = factor_loading_panel((1.0, 1.5), seed=13, n=4000)
        solved = []

        def counting_solve(system, r, Zw, Wmat):
            solved.append((r, Wmat.tobytes()))
            return concentrated_linear_solve(system, r, Zw, Wmat)

        monkeypatch.setattr("tobitiv.gmm.concentrated_linear_solve", counting_solve)
        res = nonlinear_gmm(sys_)
        assert res.iterations == len(solved) == len(set(solved))

    def test_result_dict_keys(self):
        _, sys_ = factor_loading_panel((1.0, 1.5), seed=13, n=4000)
        d = nonlinear_gmm(sys_).to_dict()
        assert set(d) == {
            "param_names", "estimates", "se", "covariance", "n_rows", "n_clusters",
            "condition_number", "j_statistic", "j_dof", "converged",
            "iterations", "objective_value",
        }
        assert d["param_names"] == ["beta0", "r_10", "a_10", "b_10"]
        assert len(d["covariance"]) == 16
        json.dumps(d)


class TestSEShrinkage:
    def test_se_scales_like_root_n(self):
        # Median reported SE across replications should fall like 1/sqrt(N).
        sizes = (1000, 4000, 16000)
        med = []
        for N in sizes:
            ses = []
            for rep in range(10):
                cfg = PanelConfig(
                    variant="CrossSection", n_individuals=N, n_periods=1,
                    n_regressors=1, beta=(1.0,), error_cov=((1.0,),),
                    seed=1000 + rep, x_dist=NormalDist(0.36, 1.0),
                )
                from tobitiv import build_cross_section

                res = two_stage_least_squares(build_cross_section(simulate(cfg)))
                ses.append(res.se[0])
            med.append(np.median(ses))
        slope = np.polyfit(np.log(sizes), np.log(med), 1)[0]
        assert -0.6 < slope < -0.4


def test_stacked_2sls_allocates_no_dense_moment_matrix():
    """A stacked solve sums each block's moments per cluster on its own rows;
    its traced peak stays far below one dense n-by-q array of them."""
    T = 5
    config = PanelConfig(
        variant="NonStationary", n_individuals=2000, n_periods=T, n_regressors=1,
        beta=(1.0,), seed=11, fe_dist=LinearIndexDist(1.0, 0.5), x_dist=NormalDist(1.0, 1.0),
        error_cov=tuple(tuple(0.5 if i == j else 0.2 * (abs(i - j) == 1) for j in range(T))
                        for i in range(T)),
    )
    spec = EstimatorSpec(orders=((1, 1), (2, 1)))  # 10 pairs x 2 orders: 20 blocks
    system = build_estimation_system(simulate(config), config, spec)
    n = system.n_rows
    q = sum(Z.shape[1] for Z in system.instrument_blocks)
    assert len(system.instrument_blocks) == 20
    tracemalloc.start()
    try:
        two_stage_least_squares(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * n * q  # about 0.3 of it; the dense Q * u made it 1.9


def test_stacked_build_and_solve_allocate_no_dense_regressor_matrix():
    """Stacking lists each source's regressor block with its column indices,
    and 2SLS works block by block; build and solve together peak below one
    dense n-by-p array of the stacked regressors."""
    T = 8
    config = PanelConfig(
        variant="NonStationary", n_individuals=2000, n_periods=T, n_regressors=1,
        beta=(1.0,), seed=11, fe_dist=LinearIndexDist(1.0, 0.5), x_dist=NormalDist(1.0, 1.0),
        error_cov=tuple(tuple(0.5 if i == j else 0.2 * (abs(i - j) == 1) for j in range(T))
                        for i in range(T)),
    )
    spec = EstimatorSpec(orders=((1, 1), (2, 1)))  # 28 pairs x 2 orders: 56 blocks, p = 57
    dataset = simulate(config)
    tracemalloc.start()
    try:
        system = build_estimation_system(dataset, config, spec)
        two_stage_least_squares(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, p = system.n_rows, len(system.params)
    assert len(system.regressor_blocks) == 56 and p == 57
    assert peak < 8 * n * p  # about a third of it; the zero-padded matrix made it twice
