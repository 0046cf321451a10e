"""Simulator tests: determinism, marginal oracles, selection mechanics."""

import math
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr

from tobitiv import (
    LinearIndexDist,
    LogNormalDist,
    NormalDist,
    PanelConfig,
    ShiftedHalfNormalDist,
    censoring_rate,
    load_dataset,
    save_dataset,
    simulate,
)
from tobitiv.errors import (
    ConfigurationError,
    InsufficientAcceptanceError,
    UnsupportedModeError,
)
from tobitiv.simulate import SHAPE_PERIODS, SYSTEM_SHAPES, ModelVariant, Sampling


def indep_config(**overrides):
    base = dict(
        variant="IndependentErrors",
        n_individuals=2000,
        n_periods=2,
        n_regressors=1,
        beta=(1.0,),
        error_cov=((0.25, 0.0), (0.0, 0.5)),
        seed=42,
        fe_dist=LinearIndexDist(1.0, 0.5),
        x_dist=NormalDist(1.0, 1.0),
    )
    base.update(overrides)
    return PanelConfig(**base)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = simulate(indep_config())
        b = simulate(indep_config())
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.latent_y, b.latent_y)

    def test_different_seed_differs(self):
        a = simulate(indep_config(seed=1))
        b = simulate(indep_config(seed=2))
        assert not np.array_equal(a.y, b.y)


class TestMarginals:
    def test_censoring_rate_matches_normal_cdf(self):
        # CrossSection with no fixed effect: the latent outcome is marginally
        # N(mu_x beta, (sigma_x beta)^2 + sigma^2), so the censoring
        # probability has a closed form.
        cfg = PanelConfig(
            variant="CrossSection",
            n_individuals=200_000,
            n_periods=1,
            n_regressors=1,
            beta=(1.0,),
            error_cov=((1.0,),),
            seed=5,
            x_dist=NormalDist(0.36, 1.0),
        )
        ds = simulate(cfg)
        want = ndtr(-0.36 / math.sqrt(2.0))
        got = censoring_rate(ds)
        se = math.sqrt(want * (1 - want) / cfg.n_individuals)
        assert abs(got - want) < 5 * se

    def test_error_covariance_recovered(self):
        cfg = indep_config(
            variant="NonStationary",
            n_individuals=100_000,
            error_cov=((0.25, 0.125), (0.125, 0.5)),
        )
        ds = simulate(cfg)
        index = ds.x @ np.asarray(cfg.beta)
        eps = ds.latent_y - index - ds.alpha[:, None]
        got = np.cov(eps.T)
        assert np.allclose(got, np.asarray(cfg.error_cov), atol=0.02)

    def test_variance_fe_scale(self):
        cfg = PanelConfig(
            variant="VarianceFE",
            n_individuals=50_000,
            n_periods=3,
            n_regressors=1,
            beta=(1.0,),
            error_cov=((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)),
            seed=9,
            variance_fe_dist=ShiftedHalfNormalDist(0.25, 0.2),
            fe_dist=LinearIndexDist(1.0, 0.5),
            x_dist=NormalDist(1.0, 1.0),
        )
        ds = simulate(cfg)
        index = ds.x @ np.asarray(cfg.beta)
        eps = ds.latent_y - index - ds.alpha[:, None]
        # Per-individual standardized errors are unit-variance.
        standardized = eps / np.sqrt(ds.sigma_i_sq)[:, None]
        assert abs(standardized.var() - 1.0) < 0.02
        assert np.all(ds.sigma_i_sq >= 0.25)

    def test_errors_exogenous(self):
        cfg = indep_config(n_individuals=100_000)
        ds = simulate(cfg)
        index = ds.x @ np.asarray(cfg.beta)
        eps = ds.latent_y - index - ds.alpha[:, None]
        corr = np.corrcoef(eps.ravel(), ds.x[:, :, 0].ravel())[0, 1]
        assert abs(corr) < 0.01

    def test_fixed_effect_correlated_with_index(self):
        # The default fixed-effect design ties alpha to the regressor index;
        # that correlation is what the panel estimators must difference out.
        ds = simulate(indep_config(n_individuals=50_000))
        index = (ds.x @ np.asarray(ds.config.beta)).mean(axis=1)
        corr = np.corrcoef(ds.alpha, index)[0, 1]
        assert corr > 0.5

    def test_slope_fe_z_positive(self):
        cfg = indep_config(variant="SlopeFE", z_dist=LogNormalDist(0.0, 0.25))
        ds = simulate(cfg)
        assert ds.z.shape == ds.y.shape
        assert np.all(ds.z > 0)


class TestTruncatedSampling:
    def test_truncated_keeps_all_positive_individuals(self):
        cfg = indep_config(sampling="Truncated", n_individuals=500)
        ds = simulate(cfg)
        assert ds.y.shape == (500, 2)
        assert np.all(ds.y > 0)
        assert ds.n_drawn >= 500
        with pytest.raises(UnsupportedModeError):
            censoring_rate(ds)

    def test_truncated_deterministic(self):
        cfg = indep_config(sampling="Truncated", n_individuals=300)
        a, b = simulate(cfg), simulate(cfg)
        assert np.array_equal(a.y, b.y)
        assert a.n_drawn == b.n_drawn

    def test_truncated_infeasible_raises(self):
        cfg = indep_config(
            sampling="Truncated",
            n_individuals=100,
            x_dist=NormalDist(-8.0, 0.5),
            fe_dist=LinearIndexDist(0.0, 0.1),
        )
        with pytest.raises(InsufficientAcceptanceError) as err:
            simulate(cfg)
        assert err.value.acceptance_rate < 0.01


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds = simulate(indep_config(n_individuals=50))
        save_dataset(ds, str(tmp_path))
        back = load_dataset(str(tmp_path))
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.x, ds.x)
        assert back.config == ds.config
        # Latent truth must not survive serialization.
        assert back.latent_y is None and back.alpha is None

    def test_round_trip_with_z(self, tmp_path):
        cfg = indep_config(
            variant="SlopeFE", z_dist=LogNormalDist(0.0, 0.25), n_individuals=40
        )
        ds = simulate(cfg)
        save_dataset(ds, str(tmp_path))
        back = load_dataset(str(tmp_path))
        assert np.array_equal(back.z, ds.z)

    def test_config_dict_round_trip(self):
        cfg = indep_config()
        assert PanelConfig.from_dict(cfg.to_dict()) == cfg


@st.composite
def simulated_panels(draw, variant):
    """A small simulated panel of either sampling; positive indices keep truncated
    sampling's acceptance well above its 1-in-100 floor."""
    T = draw(st.integers(SHAPE_PERIODS[SYSTEM_SHAPES[variant]], 4))
    K = draw(st.integers(1, 3))
    extra = {
        ModelVariant.FACTOR_LOADING: {"factor_loadings": (1.0,) + (1.5,) * (T - 1)},
        ModelVariant.VARIANCE_FE: {"variance_fe_dist": ShiftedHalfNormalDist(0.5, 0.5)},
        ModelVariant.ADDITIVE_VARIANCE: {"variance_fe_dist": ShiftedHalfNormalDist(0.5, 0.5)},
        ModelVariant.SLOPE_FE: {"z_dist": LogNormalDist(0.0, 0.25)},
    }.get(variant, {})
    cfg = PanelConfig(
        variant=variant,
        sampling=draw(st.sampled_from(list(Sampling))),
        n_individuals=draw(st.integers(1, 30)),
        n_periods=T,
        n_regressors=K,
        beta=tuple(draw(st.floats(0.5, 1.5)) for _ in range(K)),
        error_cov=0.5 * np.eye(T),
        seed=draw(st.integers(0, 2**64 - 1)),
        fe_dist=LinearIndexDist(1.0, 0.5),
        x_dist=NormalDist(1.0, 1.0),
        **extra,
    )
    return simulate(cfg)


@pytest.mark.parametrize("variant", list(ModelVariant))
@given(data=st.data())
def test_save_load_round_trip(variant, data):
    ds = data.draw(simulated_panels(variant))
    with tempfile.TemporaryDirectory() as out:
        save_dataset(ds, out)
        back = load_dataset(out)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.x, ds.x)
    assert (back.z is None) == (ds.z is None)
    assert ds.z is None or np.array_equal(back.z, ds.z)
    assert back.config.to_dict() == ds.config.to_dict()
    assert back.n_drawn == ds.n_drawn


class TestValidation:
    def test_variance_fe_needs_three_periods(self):
        cfg = PanelConfig(
            variant="VarianceFE",
            n_individuals=10,
            n_periods=2,
            n_regressors=1,
            beta=(1.0,),
            error_cov=((1.0, 0.0), (0.0, 1.0)),
            seed=0,
            variance_fe_dist=ShiftedHalfNormalDist(0.5, 1.0),
        )
        with pytest.raises(ConfigurationError, match="n_periods >= 3") as err:
            cfg.validate()
        assert err.value.field == "n_periods"

    def test_error_cov_must_be_pd(self):
        cfg = indep_config(error_cov=((1.0, 2.0), (2.0, 1.0)))
        with pytest.raises(ConfigurationError) as err:
            cfg.validate()
        assert err.value.field == "error_cov"

    def test_beta_length_checked(self):
        cfg = indep_config(beta=(1.0, 2.0))
        with pytest.raises(ConfigurationError) as err:
            cfg.validate()
        assert err.value.field == "beta"

    def test_factor_loading_normalization(self):
        cfg = indep_config(variant="FactorLoading", factor_loadings=(2.0, 1.0))
        with pytest.raises(ConfigurationError) as err:
            cfg.validate()
        assert err.value.field == "factor_loadings"

    def test_z_dist_only_for_slope_fe(self):
        cfg = indep_config(z_dist=LogNormalDist(0.0, 0.5))
        with pytest.raises(ConfigurationError) as err:
            cfg.validate()
        assert err.value.field == "z_dist"
