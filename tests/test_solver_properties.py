"""Solver invariants: row order, instrument scale, dense cluster sums, and the
cached factor-loading objective."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tobitiv import MomentSystem, Param, nonlinear_gmm, stack_systems, two_stage_least_squares
from tobitiv.gmm import (
    _column_scale,
    _independent_instrument_columns,
    _whiten_instruments,
    concentrated_linear_solve,
)

from test_gmm import factor_loading_panel

REL = 1e-10


def block(rng, n, p, q, n_individuals):
    """One linear system with unsorted, repeated cluster ids and shared params."""
    Z = np.column_stack([np.ones(n), rng.normal(size=(n, q - 1))])
    X = Z[:, :p] @ rng.normal(size=(p, p)) + 0.3 * rng.normal(size=(n, p))
    y = X @ rng.normal(size=p) + rng.normal(size=n)
    return MomentSystem(
        dependent=y, regressors=X, instrument_blocks=[Z],
        cluster=rng.integers(0, n_individuals, n),
        params=[Param("beta", (j,)) for j in range(p)],
        periods=np.zeros((n, 1), dtype=int),
    )


@st.composite
def stacked_systems(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    n_individuals = draw(st.integers(40, 120))
    blocks = [
        block(rng, draw(st.integers(60, 200)), p, p + draw(st.integers(0, 3)), n_individuals)
        for _ in range(draw(st.integers(1, 3)))
    ]
    return stack_systems(blocks), rng


def assert_same_fit(a, b):
    assert a.n_clusters == b.n_clusters
    assert a.j_dof == b.j_dof
    np.testing.assert_allclose(a.estimates, b.estimates, rtol=REL, atol=0)
    np.testing.assert_allclose(a.se, b.se, rtol=REL, atol=0)
    assert b.condition_number == pytest.approx(a.condition_number, rel=REL)
    if a.j_statistic is None:
        assert b.j_statistic is None
    else:
        assert b.j_statistic == pytest.approx(a.j_statistic, rel=REL, abs=1e-12)


def with_rows(system, rows, scale=1.0):
    """The chosen rows, their instruments passed as one dense block."""
    return MomentSystem(
        dependent=system.dependent[rows], regressors=system.regressors[rows],
        instrument_blocks=[system.instruments[rows] * scale], cluster=system.cluster[rows],
        params=system.params, periods=system.periods[rows],
    )


@given(stacked_systems())
def test_2sls_invariant_to_row_order_and_instrument_scale(case):
    system, rng = case
    base = two_stage_least_squares(system)
    assert base.n_clusters == np.unique(system.cluster).size
    perm = rng.permutation(system.n_rows)
    assert_same_fit(base, two_stage_least_squares(with_rows(system, perm)))
    scale = np.exp(rng.uniform(-7.0, 7.0, system.instruments.shape[1]))
    assert_same_fit(base, two_stage_least_squares(with_rows(system, slice(None), scale)))


def test_cluster_covariance_and_j_match_dense_indicator_formulas():
    rng = np.random.default_rng(31)
    # The last block's last instrument is a combination of two others, so the
    # pivoted QR prunes one column; the dense formulas use the rest.
    redundant = block(rng, 200, 3, 5, 150)
    Z = redundant.instruments
    redundant = replace(
        redundant, instrument_blocks=[np.column_stack([Z, Z[:, 1] - 2.0 * Z[:, 3]])]
    )
    system = stack_systems([block(rng, 300, 3, 6, 150), block(rng, 250, 3, 5, 150), redundant])
    res = two_stage_least_squares(system)
    y, W, Z = system.dependent, system.regressors, system.instruments[:, :-1]
    n = y.size
    ids = np.unique(system.cluster)
    D = (system.cluster[:, None] == ids[None, :]).astype(float)  # row-by-cluster

    What = Z @ np.linalg.lstsq(Z, W, rcond=None)[0]
    theta = np.linalg.lstsq(What, y, rcond=None)[0]
    u = y - W @ theta
    A_inv = np.linalg.inv(What.T @ W)
    Hu = D.T @ (What * u[:, None])
    V = A_inv @ (Hu.T @ Hu) @ A_inv.T
    Gu = D.T @ (Z * u[:, None])
    S_inv = np.linalg.inv(Gu.T @ Gu / n)
    G, g = Z.T @ W / n, Z.T @ y / n
    theta2 = np.linalg.solve(G.T @ S_inv @ G, G.T @ S_inv @ g)
    gbar = g - G @ theta2
    J = n * gbar @ S_inv @ gbar

    kept = _independent_instrument_columns(system.instruments)
    Zs = system.instruments[:, kept] / _column_scale(system.instruments)[kept]
    cross = Zs.T @ (W / _column_scale(W)) / n

    assert res.n_clusters == ids.size
    assert res.j_dof == Z.shape[1] - W.shape[1]
    np.testing.assert_allclose(res.estimates, theta, rtol=REL)
    np.testing.assert_allclose(res.covariance, V, rtol=REL, atol=REL * np.abs(V).max())
    assert np.array_equal(res.covariance, res.covariance.T)
    assert res.j_statistic == pytest.approx(J, rel=REL)
    assert res.condition_number == pytest.approx(np.linalg.cond(cross), rel=REL)


def objective_from_linear_parts(system, r, Zw, Wmat):
    """The concentrated inner solve written out from `linear_parts`."""
    n = system.n_rows
    dep, X = system.linear_parts(r)
    G = Zw.T @ X / n
    gd = Zw.T @ dep / n
    WG = Wmat @ G
    theta = np.linalg.solve(G.T @ WG, G.T @ (Wmat @ gd))
    gbar = gd - G @ theta
    return theta, float(gbar @ (Wmat @ gbar)), gbar


def test_cached_objective_equals_linear_parts_bit_for_bit():
    _, system = factor_loading_panel((1.0, 1.5), seed=14, n=4000)
    Zw = _whiten_instruments(
        system.instruments[:, _independent_instrument_columns(system.instruments)]
    )
    q = Zw.shape[1]
    A = np.random.default_rng(3).normal(size=(q, q))
    efficient = A @ A.T + q * np.eye(q)
    for r in (0.3, 1.0, 1.5, 7.0, 1.5):
        for Wmat in (np.eye(q), efficient):
            want = objective_from_linear_parts(system, r, Zw, Wmat)
            got = concentrated_linear_solve(system, r, Zw, Wmat)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]
            assert np.array_equal(got[2], want[2])


def test_linear_parts_returns_fresh_arrays():
    _, system = factor_loading_panel((1.0, 1.5), seed=15, n=500)
    dep1, X1 = system.linear_parts(0.5)
    kept = X1.copy()
    system.linear_parts(2.0)
    nonlinear_gmm(system)
    assert np.array_equal(X1, kept)
