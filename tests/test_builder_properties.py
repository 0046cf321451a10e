"""Property test: swapping two periods flips the sign of every linear builder's rows."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tobitiv import (
    PanelDataset,
    build_pairwise_independent,
    build_pairwise_nonstationary,
    build_pairwise_slope_fe,
    build_triple_additive_variance,
    build_triple_variance_fe,
)

from dense import dense_regressors

# Each builder at periods (t, s, tau) and orders (k, m), then with t and s
# swapped; the nonstationary rows swap their orders along with the periods.
SWAPS = {
    "independent": lambda ds, t, s, tau, k, m: (
        build_pairwise_independent(ds, t, s), build_pairwise_independent(ds, s, t)),
    "nonstationary": lambda ds, t, s, tau, k, m: (
        build_pairwise_nonstationary(ds, t, s, k, m), build_pairwise_nonstationary(ds, s, t, m, k)),
    "slope_fe": lambda ds, t, s, tau, k, m: (
        build_pairwise_slope_fe(ds, t, s), build_pairwise_slope_fe(ds, s, t)),
    "variance_fe": lambda ds, t, s, tau, k, m: (
        build_triple_variance_fe(ds, t, s, tau), build_triple_variance_fe(ds, s, t, tau)),
    "additive_variance": lambda ds, t, s, tau, k, m: (
        build_triple_additive_variance(ds, t, s, tau),
        build_triple_additive_variance(ds, s, t, tau)),
}


@st.composite
def panels(draw):
    """A small panel with some censored cells; its first individual is never censored."""
    T = draw(st.integers(3, 6))
    N = draw(st.integers(2, 40))
    K = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    y = scale * rng.uniform(0.1, 3.0, (N, T))
    y[1:][rng.random((N - 1, T)) < 0.2] = 0.0
    return PanelDataset(y=y, x=rng.normal(size=(N, T, K)), config=None,
                        z=rng.uniform(0.5, 2.0, (N, T)))


def assert_flipped(a, b):
    """b == -a to 1e-12 relative to the largest entry of a."""
    assert np.max(np.abs(a + b)) <= 1e-12 * np.max(np.abs(a))


@pytest.mark.parametrize("builder", sorted(SWAPS))
@given(
    dataset=panels(),
    data=st.data(),
    k=st.integers(1, 3),
    m=st.integers(1, 3),
)
def test_period_swap_flips_every_row(builder, dataset, data, k, m):
    t, s, tau = data.draw(st.permutations(range(dataset.n_periods)))[:3]
    fwd, rev = SWAPS[builder](dataset, t, s, tau, k, m)
    np.testing.assert_array_equal(fwd.cluster, rev.cluster)
    assert_flipped(fwd.dependent, rev.dependent)
    assert set(fwd.params) == set(rev.params)
    W_fwd, W_rev = dense_regressors(fwd), dense_regressors(rev)
    for j, param in enumerate(fwd.params):
        assert_flipped(W_fwd[:, j], W_rev[:, rev.params.index(param)])
