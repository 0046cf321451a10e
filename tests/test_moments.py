"""Builder tests: hand-substitution values, identities, and selection."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from tobitiv import (
    LinearIndexDist,
    NormalDist,
    PanelConfig,
    PanelDataset,
    ShiftedHalfNormalDist,
    all_pairs,
    build_cross_section,
    build_factor_loading,
    build_pairwise_independent,
    build_pairwise_nonstationary,
    build_pairwise_slope_fe,
    build_triple_additive_variance,
    build_triple_variance_fe,
    default_instruments,
    simulate,
    stack_systems,
    system_to_csv,
    two_stage_least_squares,
)
from tobitiv.errors import DomainError, EmptySystemError
from tobitiv.moments import additive_variance_regressors


def toy_dataset(y, x, z=None):
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    T = y.shape[1]
    cfg = PanelConfig(
        variant="SlopeFE" if z is not None else "IndependentErrors",
        n_individuals=y.shape[0],
        n_periods=T,
        n_regressors=x.shape[2],
        beta=tuple(1.0 for _ in range(x.shape[2])),
        error_cov=tuple(tuple(float(i == j) for j in range(T)) for i in range(T)),
        seed=0,
        z_dist=None,
    )
    return PanelDataset(
        y=y, x=x, config=cfg, z=None if z is None else np.asarray(z, dtype=float)
    )


class TestCrossSection:
    def test_single_cell_k1(self):
        ds = toy_dataset([[2.0]], [[[1.0]]])
        sys_ = build_cross_section(ds, k=1)
        assert sys_.dependent == pytest.approx([4.0])
        assert np.allclose(sys_.regressors, [[2.0, 1.0]], atol=1e-12)
        assert sys_.param_names == ["beta0", "sigma2"]

    def test_single_cell_k2(self):
        ds = toy_dataset([[2.0]], [[[1.0]]])
        sys_ = build_cross_section(ds, k=2)
        assert sys_.dependent == pytest.approx([8.0])
        assert np.allclose(sys_.regressors, [[4.0, 4.0]], atol=1e-12)

    def test_zero_cells_excluded(self):
        ds = toy_dataset([[2.0], [0.0]], [[[1.0]], [[1.0]]])
        sys_ = build_cross_section(ds, k=1)
        assert sys_.n_rows == 1
        assert sys_.cluster.tolist() == [0]

    def test_k_must_be_positive(self):
        ds = toy_dataset([[2.0]], [[[1.0]]])
        with pytest.raises(DomainError):
            build_cross_section(ds, k=0)

    def test_all_censored_raises(self):
        ds = toy_dataset([[0.0]], [[[1.0]]])
        with pytest.raises(EmptySystemError):
            build_cross_section(ds)


class TestPairwiseIndependent:
    def test_substitution(self):
        ds = toy_dataset([[2.0, 1.0]], [[[1.0], [0.0]]])
        sys_ = build_pairwise_independent(ds, 0, 1)
        assert sys_.dependent == pytest.approx([2.0])
        assert np.allclose(sys_.regressors, [[2.0, 1.0, -2.0]], atol=1e-12)
        assert sys_.param_names == ["beta0", "sigma2_t0", "sigma2_t1"]

    def test_equal_periods_degenerate_row(self):
        c = 3.0
        ds = toy_dataset([[c, c]], [[[0.7], [0.7]]])
        sys_ = build_pairwise_independent(ds, 0, 1)
        assert sys_.dependent == pytest.approx([0.0])
        assert sys_.regressors[0, 0] == pytest.approx(0.0)
        assert sys_.regressors[0, 1:] == pytest.approx([c, -c])

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(0.5, 2.0, (20, 2))
        x = rng.normal(size=(20, 2, 2))
        ds = toy_dataset(y, x)
        fwd = build_pairwise_independent(ds, 0, 1)
        rev = build_pairwise_independent(ds, 1, 0)
        assert np.allclose(fwd.dependent, -rev.dependent, atol=1e-12)
        # beta block flips sign; the variance columns swap and flip.
        K = 2
        assert np.allclose(fwd.regressors[:, :K], -rev.regressors[:, :K], atol=1e-12)
        assert np.allclose(fwd.regressors[:, K], -rev.regressors[:, K + 1], atol=1e-12)
        assert rev.param_names == ["beta0", "beta1", "sigma2_t1", "sigma2_t0"]

    def test_selection_requires_both_positive(self):
        ds = toy_dataset([[2.0, 0.0], [1.0, 1.0]], np.zeros((2, 2, 1)))
        sys_ = build_pairwise_independent(ds, 0, 1)
        assert sys_.cluster.tolist() == [1]

    def test_same_period_rejected(self):
        ds = toy_dataset([[2.0, 1.0]], [[[1.0], [0.0]]])
        with pytest.raises(DomainError):
            build_pairwise_independent(ds, 1, 1)


class TestPairwiseNonstationary:
    def test_k1_m1_nests_independent_shape(self):
        ds = toy_dataset([[2.0, 1.0]], [[[1.0], [0.0]]])
        sys_ = build_pairwise_nonstationary(ds, 0, 1, 1, 1)
        assert sys_.dependent == pytest.approx([2.0])
        assert np.allclose(sys_.regressors, [[2.0, 1.0, -2.0]], atol=1e-12)
        assert sys_.param_names == ["beta0", "dvar0_01", "dvar1_01"]

    def test_substitution_k2_m1(self):
        ds = toy_dataset([[2.0, 3.0]], [[[0.0], [0.0]]])
        sys_ = build_pairwise_nonstationary(ds, 0, 1, 2, 1)
        assert sys_.dependent == pytest.approx([-12.0])
        assert sys_.regressors[0, 1:] == pytest.approx([12.0, -4.0])

    def test_nesting_on_simulated_data(self):
        cfg = PanelConfig(
            variant="NonStationary", n_individuals=200, n_periods=2,
            n_regressors=1, beta=(1.0,),
            error_cov=((0.25, 0.1), (0.1, 0.5)), seed=3,
            fe_dist=LinearIndexDist(1.0, 0.5), x_dist=NormalDist(1.0, 1.0),
        )
        ds = simulate(cfg)
        a = build_pairwise_nonstationary(ds, 0, 1, 1, 1)
        b = build_pairwise_independent(ds, 0, 1)
        assert np.array_equal(a.dependent, b.dependent)
        assert np.array_equal(a.regressors, b.regressors)

    def test_orders_must_be_positive(self):
        ds = toy_dataset([[2.0, 1.0]], [[[1.0], [0.0]]])
        with pytest.raises(DomainError):
            build_pairwise_nonstationary(ds, 0, 1, 0, 1)


class TestFactorLoading:
    def test_trivial_zero_residual(self):
        ds = toy_dataset([[1.0, 1.0]], [[[1.0], [1.0]]])
        sys_ = build_factor_loading(ds, 0, 1)
        theta = np.array([0.0, 1.0, 0.0, 0.0])  # (beta, r, a, b)
        assert sys_.residuals(theta) == pytest.approx([0.0])

    def test_r_equals_one_matches_independent_rows(self):
        rng = np.random.default_rng(1)
        y = rng.uniform(0.5, 2.0, (30, 2))
        x = rng.normal(size=(30, 2, 1))
        ds = toy_dataset(y, x)
        nl = build_factor_loading(ds, 0, 1)
        lin = build_pairwise_independent(ds, 0, 1)
        # At r = 1 with a = sigma_s^2, b = sigma_t^2 the residual equals the
        # linear system's residual at the same (beta, sigma_t^2, sigma_s^2).
        beta, s_t, s_s = 0.7, 0.3, 0.9
        res_nl = nl.residuals(np.array([beta, 1.0, s_s, s_t]))
        res_lin = lin.residuals(np.array([beta, s_t, s_s]))
        assert np.allclose(res_nl, res_lin, atol=1e-12)

    def test_param_names(self):
        ds = toy_dataset([[1.0, 1.0]], [[[1.0], [1.0]]])
        sys_ = build_factor_loading(ds, 1, 0)
        assert sys_.param_names == ["beta0", "r_10", "a_10", "b_10"]


class TestTriples:
    def setup_method(self):
        self.ds = toy_dataset([[2.0, 1.0, 3.0]], [[[1.0], [0.0], [0.0]]])

    def test_variance_fe_substitution(self):
        # y = (2, 1, 3): the cyclic dependent expands to
        # (4-2) + (3-9) + (18-12) = 2.
        sys_ = build_triple_variance_fe(self.ds, 0, 1, 2)
        assert sys_.dependent == pytest.approx([2.0])
        # x = (1, 0, 0): beta block 2*1*(1-0) + 1*3*(0-0) + 3*2*(0-1) = -4.
        assert np.allclose(sys_.regressors, [[-4.0]], atol=1e-12)
        assert sys_.param_names == ["beta0"]

    def test_cyclic_cancellation(self):
        c = 1.7
        ds = toy_dataset([[c, c, c]], np.random.default_rng(2).normal(size=(1, 3, 1)))
        sys_ = build_triple_variance_fe(ds, 0, 1, 2)
        assert sys_.dependent == pytest.approx([0.0])

    def test_individual_variance_regressors_cancel(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(0.5, 2.0, (50, 3))
        raw = additive_variance_regressors(y[:, 0], y[:, 1], y[:, 2])
        assert np.allclose(raw.sum(axis=1), 0.0, atol=1e-12)

    def test_additive_variance_substitution(self):
        raw = additive_variance_regressors(
            np.array([2.0]), np.array([1.0]), np.array([3.0])
        )
        assert np.allclose(raw, [[1.0, -2.0, 1.0]], atol=1e-12)

    def test_additive_variance_normalization(self):
        sys_ = build_triple_additive_variance(self.ds, 0, 1, 2)
        assert sys_.param_names == ["beta0", "dvar1_ref2", "dvar0_ref2"]
        # Kept contrast columns are the first two raw regressors.
        assert sys_.regressors[0, 1:] == pytest.approx([1.0, -2.0])

    def test_distinct_periods_required(self):
        with pytest.raises(DomainError):
            build_triple_variance_fe(self.ds, 0, 1, 1)


class TestSlopeFE:
    def test_substitution(self):
        ds = toy_dataset(
            [[2.0, 1.0]], [[[1.0], [0.0]]], z=[[1.0, 2.0]]
        )
        sys_ = build_pairwise_slope_fe(ds, 0, 1)
        assert sys_.dependent == pytest.approx([12.0])
        assert sys_.regressors[0, 0] == pytest.approx(8.0)
        assert sys_.param_names == ["beta0", "sigma2_t0", "sigma2_t1", "cov_01"]

    def test_unit_z_collapses_to_pairwise_shape(self):
        rng = np.random.default_rng(5)
        y = rng.uniform(0.5, 2.0, (25, 2))
        x = rng.normal(size=(25, 2, 1))
        ds = toy_dataset(y, x, z=np.ones((25, 2)))
        slope = build_pairwise_slope_fe(ds, 0, 1)
        pair = build_pairwise_independent(ds, 0, 1)
        assert np.allclose(slope.dependent, pair.dependent, atol=1e-12)
        assert np.allclose(slope.regressors[:, :1], pair.regressors[:, :1], atol=1e-12)
        assert np.allclose(slope.regressors[:, 1:3], pair.regressors[:, 1:3], atol=1e-12)

    def test_nonpositive_z_rejected(self):
        ds = toy_dataset([[2.0, 1.0]], [[[1.0], [0.0]]], z=[[1.0, -2.0]])
        with pytest.raises(DomainError):
            build_pairwise_slope_fe(ds, 0, 1)

    def test_missing_z_rejected(self):
        ds = toy_dataset([[2.0, 1.0]], [[[1.0], [0.0]]])
        with pytest.raises(DomainError):
            build_pairwise_slope_fe(ds, 0, 1)


class TestInstruments:
    def test_default_set_values(self):
        got = default_instruments(np.array([[1.0], [2.0]]), np.array([[-1.0], [0.0]]))
        assert np.allclose(
            got,
            [[1.0, 1.0, -1.0, 2.0, 4.0], [1.0, 2.0, 0.0, 2.0, 4.0]],
            atol=1e-12,
        )

    def test_duplicate_columns_leave_the_fit_unchanged(self):
        # The default triple set repeats each period's x block (25 columns,
        # 19 distinct at K = 2); the solver's rank pruning drops the repeats.
        for seed in range(20):
            cfg = PanelConfig(
                variant="VarianceFE", n_individuals=8000, n_periods=3,
                n_regressors=2, beta=(1.0, -0.5),
                error_cov=((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)), seed=seed,
                variance_fe_dist=ShiftedHalfNormalDist(0.25, 0.2),
                fe_dist=LinearIndexDist(1.0, 0.5), x_dist=NormalDist(1.0, 2.0),
            )
            full = build_triple_variance_fe(simulate(cfg), 0, 1, 2)
            _, first = np.unique(full.instruments, axis=1, return_index=True)
            distinct = replace(full, instrument_blocks=[full.instruments[:, np.sort(first)]])
            assert (full.instruments.shape[1], distinct.instruments.shape[1]) == (25, 19)
            a, b = two_stage_least_squares(full), two_stage_least_squares(distinct)
            assert a.j_dof == b.j_dof
            for got, want in [(a.estimates, b.estimates), (a.se, b.se),
                              (a.j_statistic, b.j_statistic)]:
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    def test_instruments_never_reference_y(self):
        rng = np.random.default_rng(6)
        y = rng.uniform(0.5, 2.0, (30, 2))
        x = rng.normal(size=(30, 2, 1))
        a = build_pairwise_independent(toy_dataset(y, x), 0, 1)
        b = build_pairwise_independent(toy_dataset(2.0 * y, x), 0, 1)
        assert np.array_equal(a.instruments, b.instruments)


class TestStacking:
    def make_panel(self):
        cfg = PanelConfig(
            variant="IndependentErrors", n_individuals=300, n_periods=3,
            n_regressors=1, beta=(1.0,),
            error_cov=((0.25, 0, 0), (0, 0.5, 0), (0, 0, 0.75)), seed=8,
            fe_dist=LinearIndexDist(1.0, 0.5), x_dist=NormalDist(1.0, 1.0),
        )
        return simulate(cfg)

    def test_stack_shares_beta_and_blocks_instruments(self):
        ds = self.make_panel()
        subs = [build_pairwise_independent(ds, t, s) for t, s in all_pairs(3)]
        stacked = stack_systems(subs)
        assert stacked.param_names[0] == "beta0"
        assert set(stacked.param_names) == {
            "beta0", "sigma2_t0", "sigma2_t1", "sigma2_t2"
        }
        assert stacked.n_rows == sum(s.n_rows for s in subs)
        # The blocks are the sources' own arrays, not copies.
        assert len(stacked.instrument_blocks) == len(subs)
        for Z, sub in zip(stacked.instrument_blocks, subs):
            assert Z is sub.instrument_blocks[0]
        # The dense view is block-diagonal: each source's rows carry its own
        # instruments in its own columns and zeros everywhere else.
        expected = np.zeros((stacked.n_rows, sum(Z.shape[1] for Z in stacked.instrument_blocks)))
        r0 = c0 = 0
        for Z in stacked.instrument_blocks:
            expected[r0 : r0 + Z.shape[0], c0 : c0 + Z.shape[1]] = Z
            r0, c0 = r0 + Z.shape[0], c0 + Z.shape[1]
        assert np.array_equal(stacked.instruments, expected)
        # A stack of stacks lists every source block.
        nested = stack_systems([stack_systems(subs[:2]), subs[2]])
        assert len(nested.instrument_blocks) == len(subs)
        assert all(Z is s.instrument_blocks[0] for Z, s in zip(nested.instrument_blocks, subs))
        assert np.array_equal(nested.instruments, stack_systems(subs).instruments)

    def test_stack_single_passthrough(self):
        ds = self.make_panel()
        sys_ = build_pairwise_independent(ds, 0, 1)
        assert stack_systems([sys_]) is sys_

    def test_stack_empty(self):
        with pytest.raises(EmptySystemError):
            stack_systems([])


class TestOrthogonalityAtTruth:
    def test_independent_errors_moments_centered(self):
        cfg = PanelConfig(
            variant="IndependentErrors", n_individuals=50_000, n_periods=2,
            n_regressors=1, beta=(1.0,),
            error_cov=((0.25, 0.0), (0.0, 0.375)), seed=77,
            fe_dist=LinearIndexDist(1.0, 0.5), x_dist=NormalDist(1.0, 1.0),
        )
        ds = simulate(cfg)
        sys_ = build_pairwise_independent(ds, 0, 1)
        truth = np.array([1.0, 0.25, 0.375])
        g = sys_.instruments * sys_.residuals(truth)[:, None]
        tstat = g.mean(axis=0) / (g.std(axis=0) / np.sqrt(g.shape[0]))
        assert np.all(np.abs(tstat) < 4.0)


class TestExport:
    def test_csv_round_trip_values(self, tmp_path):
        ds = toy_dataset([[2.0, 1.0]], [[[1.0], [0.0]]])
        sys_ = build_pairwise_independent(ds, 0, 1)
        path = tmp_path / "rows.csv"
        system_to_csv(sys_, str(path))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["dependent"]) == 2.0
        assert float(rows[0]["reg_sigma2_t1"]) == -2.0
