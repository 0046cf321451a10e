"""Property tests: parameter descriptors give the right truth at any panel length."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from tobitiv import (
    PanelConfig,
    PanelDataset,
    all_pairs,
    build_factor_loading,
    build_pairwise_independent,
    build_pairwise_nonstationary,
    build_pairwise_slope_fe,
    stack_systems,
    true_parameter_values,
)

STACKABLE = (build_pairwise_independent, build_pairwise_nonstationary, build_pairwise_slope_fe)


@st.composite
def panels(draw):
    """A tiny all-positive panel whose config has a random SPD error_cov."""
    T = draw(st.integers(2, 15))
    K = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(T, T))
    loadings = np.r_[1.0, rng.uniform(0.5, 2.0, T - 1)]
    cfg = PanelConfig(
        variant="FactorLoading", n_individuals=3, n_periods=T, n_regressors=K,
        beta=tuple(rng.normal(size=K)), error_cov=A @ A.T + 0.1 * np.eye(T),
        factor_loadings=tuple(loadings), seed=0,
    )
    return PanelDataset(
        y=rng.uniform(0.5, 2.0, (3, T)), x=rng.normal(size=(3, T, K)),
        z=rng.uniform(0.5, 2.0, (3, T)), config=cfg,
    )


def expected_truth(cfg, builder, t, s):
    cov = np.asarray(cfg.error_cov)
    r = cfg.factor_loadings[t] / cfg.factor_loadings[s]
    rest = {
        build_pairwise_independent: [cov[t, t], cov[s, s]],
        build_pairwise_nonstationary: [cov[t, t] - cov[t, s], cov[s, s] - cov[t, s]],
        build_factor_loading: [r, cov[s, s] * r - cov[t, s], cov[t, t] - cov[t, s] * r],
        build_pairwise_slope_fe: [cov[t, t], cov[s, s], cov[t, s]],
    }[builder]
    return list(cfg.beta) + rest


@given(panels())
def test_pair_descriptors_give_truth_for_every_pair(ds):
    T = ds.config.n_periods
    for t, s in all_pairs(T) + [(s, t) for t, s in all_pairs(T)]:
        for builder in STACKABLE + (build_factor_loading,):
            params = builder(ds, t, s).params
            got = true_parameter_values(ds.config, params)
            np.testing.assert_allclose(got, expected_truth(ds.config, builder, t, s),
                                       rtol=1e-12, atol=1e-12)


@given(panels(), st.sampled_from(STACKABLE))
def test_stacked_names_unique_over_all_pairs(ds, builder):
    T, K = ds.config.n_periods, ds.config.n_regressors
    stacked = stack_systems([builder(ds, t, s) for t, s in all_pairs(T)])
    names = stacked.param_names
    assert len(set(names)) == len(names) == len(stacked.params)
    # Shared parameters merge: beta and the per-period variances appear once.
    per_pair = {
        build_pairwise_independent: T,
        build_pairwise_nonstationary: T * (T - 1),
        build_pairwise_slope_fe: T + T * (T - 1) // 2,
    }[builder]
    assert len(names) == K + per_pair
