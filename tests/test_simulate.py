"""Simulator tests: determinism, marginal oracles, selection mechanics."""

import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
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
from tobitiv.simulate import (
    SHAPE_PERIODS,
    VARIANT_INPUTS,
    ModelVariant,
    PanelDataset,
    Sampling,
)


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

    @pytest.mark.parametrize("n_drawn", [39, 40, 4000, 4001])
    def test_truncated_n_drawn_lies_in_n_to_cap_times_n(self, tmp_path, n_drawn):
        ds = simulate(indep_config(n_individuals=40, sampling=Sampling.TRUNCATED))
        save_dataset(ds, str(tmp_path))
        meta = json.loads((tmp_path / "meta.json").read_text())
        (tmp_path / "meta.json").write_text(json.dumps(dict(meta, n_drawn=n_drawn)))
        if 40 <= n_drawn <= 4000:
            assert load_dataset(str(tmp_path)).n_drawn == n_drawn
        else:
            with pytest.raises(ConfigurationError, match="n_drawn") as err:
                load_dataset(str(tmp_path))
            assert err.value.field == "data_dir"

    def test_config_dict_round_trip(self):
        cfg = indep_config()
        assert PanelConfig.from_dict(cfg.to_dict()) == cfg

    def test_numpy_numbers_round_trip(self, tmp_path):
        # NumPy numbers pass the panel's rules; a NumPy seed, and a float32
        # distribution parameter, used to fail json.dump in save_dataset.
        cfg = indep_config(n_individuals=50, seed=np.int64(3), beta=np.array([1.0]),
                           x_dist=NormalDist(np.float32(1.0), np.int64(1)))
        save_dataset(simulate(cfg), str(tmp_path))
        assert load_dataset(str(tmp_path)).config.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("value", [np.float32(np.inf), np.float32(np.nan), np.float64(np.inf)])
    def test_a_non_finite_numpy_float_is_named(self, value):
        with pytest.raises(ConfigurationError) as exc:
            indep_config(beta=(value,))
        assert exc.value.field == "beta"


@st.composite
def simulated_panels(draw, variant):
    """A small simulated panel of either sampling; positive indices keep truncated
    sampling's acceptance well above its 1-in-100 floor."""
    T = draw(st.integers(SHAPE_PERIODS[VARIANT_INPUTS[variant].shape], 4))
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
        # VarianceFE's errors have unit variance; CrossSection draws no effect.
        error_cov=(1.0 if variant is ModelVariant.VARIANCE_FE else 0.5) * np.eye(T),
        seed=draw(st.integers(0, 2**64 - 1)),
        fe_dist=(LinearIndexDist() if variant is ModelVariant.CROSS_SECTION
                 else LinearIndexDist(1.0, 0.5)),
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

    def test_unread_field_names_the_variants_that_read_it(self):
        cfg = indep_config(variant="CrossSection", n_periods=1, error_cov=((0.25,),))
        with pytest.raises(ConfigurationError, match="fe_dist is read only by the "
                           "IndependentErrors, .*, SlopeFE variants, not by CrossSection") as err:
            cfg.validate()
        assert err.value.field == "fe_dist"

    @pytest.mark.parametrize("variant, field", [("FactorLoading", "factor_loadings"),
                                                ("SlopeFE", "z_dist"),
                                                ("AdditiveVariance", "variance_fe_dist")])
    def test_field_the_variant_reads_is_required(self, variant, field):
        cfg = indep_config(variant=variant, n_periods=3, error_cov=0.5 * np.eye(3))
        with pytest.raises(ConfigurationError, match=f"{field} is required by the {variant}"
                           ) as err:
            cfg.validate()
        assert err.value.field == field

    def test_z_dist_only_for_slope_fe(self):
        cfg = indep_config(z_dist=LogNormalDist(0.0, 0.5))
        with pytest.raises(ConfigurationError) as err:
            cfg.validate()
        assert err.value.field == "z_dist"


# Floats at the edges of float64: signed zeros, subnormals, the largest
# magnitudes and a tiny normal.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308, 1e-300]


def edge_tables(shape, nonnegative=False):
    """Finite float64 arrays, edge values included; `nonnegative` drops the
    values below 0 (-0.0 is not one)."""
    return arrays(np.float64, shape, elements=st.one_of(
        st.floats(min_value=0.0 if nonnegative else None, allow_nan=False,
                  allow_infinity=False),
        st.sampled_from([v for v in EDGE_FLOATS if v >= 0.0 or not nonnegative])))


@given(data=st.data())
def test_save_load_round_trip_is_bit_exact(data):
    """Every finite float64 a table can hold, signed zeros included, reads back
    with the same bits, as a C-ordered float64 array."""
    N, T, K = data.draw(st.integers(1, 30)), data.draw(st.integers(2, 4)), data.draw(
        st.integers(1, 3))
    config = PanelConfig(
        variant="SlopeFE", n_individuals=N, n_periods=T, n_regressors=K, beta=(1.0,) * K,
        error_cov=0.5 * np.eye(T), seed=0, z_dist=LogNormalDist(0.0, 0.25))
    ds = PanelDataset(y=data.draw(edge_tables((N, T), nonnegative=True)),
                      x=data.draw(edge_tables((N, T, K))), z=data.draw(edge_tables((N, T))),
                      config=config, n_drawn=N)
    with tempfile.TemporaryDirectory() as out:
        save_dataset(ds, out)
        back = load_dataset(out)
    for name in ("y", "x", "z"):
        got, want = getattr(back, name), getattr(ds, name)
        assert got.dtype == np.float64 and got.flags.c_contiguous and got.flags.writeable
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
