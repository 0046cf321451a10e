"""The solver helpers call scipy's LAPACK extension, and numpy's linalg
gufuncs, directly; each must give bit for bit what the `scipy.linalg` or
`np.linalg` function it replaces gives.

The references below are the calls the helpers made before:
`qr(mode="economic", pivoting=True)`, `cho_factor` and `cho_solve` with a
pseudo-inverse fallback, `solve_triangular`, and `np.linalg.solve`. Each
comparison is `np.array_equal`, so a change of argument, of routine, of a
gufunc signature or of the numpy or scipy build shows here before it moves a fit.
"""

import sys

import numpy as np
import pytest
from scipy import linalg as sla

from tobitiv import (
    LinearIndexDist,
    NormalDist,
    PanelConfig,
    ShiftedHalfNormalDist,
    build_pairwise_independent,
    build_triple_variance_fe,
    nonlinear_gmm,
    simulate,
    two_stage_least_squares,
)
from tobitiv import gmm
from tobitiv.errors import IdentificationError
from tobitiv.gmm import (
    RANK_RTOL,
    _column_scale,
    _nonsingular_solve,
    _pivoted_qr,
    _spd_solver,
    _whiten_instruments,
)

from test_gmm import factor_loading_panel
from test_solver_properties import stacked_estimate_system


def scipy_pivoted_qr(Z, scale):
    Zs = np.divide(Z, scale, order="F")
    Q, R, piv = sla.qr(Zs, mode="economic", pivoting=True, overwrite_a=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > RANK_RTOL * diag[0])) if diag.size else 0
    return Q, R[:rank, :rank], np.sort(piv[:rank])


def scipy_spd_solver(S):
    try:
        factor = sla.cho_factor(S)
    except np.linalg.LinAlgError:
        S_pinv = np.linalg.pinv(S)
        return lambda B: S_pinv @ B
    return lambda B: sla.cho_solve(factor, B)


def scipy_whiten_instruments(Z):
    scale = _column_scale(Z)
    Zs = Z / scale
    C = np.linalg.cholesky(Zs.T @ Zs / Z.shape[0])
    return sla.solve_triangular(C, Zs.T, lower=True).T


def numpy_nonsingular_solve(A, B, what, *what_args):
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        raise IdentificationError(f"{what.format(*what_args)} is singular") from None


def pair_block(rng, n):
    """const, x_t, x_s and x_t - x_s: four columns of rank three."""
    x_t, x_s = rng.normal(1.0, 1.0, n), rng.normal(1.0, 1.0, n)
    return np.column_stack([np.ones(n), x_t, x_s, x_t - x_s])


def blocks():
    rng = np.random.default_rng(30)
    return {
        "tall": rng.normal(size=(500, 6)) * [1.0, 1e3, 1e-3, 5.0, 1.0, 0.1],
        "wide": rng.normal(size=(4, 7)),
        "collinear": pair_block(rng, 400),
        "wide collinear": pair_block(rng, 3),
        "one column": rng.normal(2.0, 1.0, size=(50, 1)),
        "zero column": np.column_stack([rng.normal(size=40), np.zeros(40), rng.normal(size=40)]),
        "no columns": np.empty((10, 0)),
    }


@pytest.mark.parametrize("name", list(blocks()))
def test_pivoted_qr_matches_scipy_qr(name):
    Z = blocks()[name]
    scale = _column_scale(Z)
    got, want = _pivoted_qr(Z, scale), scipy_pivoted_qr(Z, scale)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b)
    if name == "collinear":
        assert got[2].size == 3
    if name == "wide":
        assert got[0].shape == (4, 4) and got[2].size == 4


def spd_cases():
    rng = np.random.default_rng(31)
    G = rng.normal(size=(200, 25)) * np.geomspace(1.0, 1e3, 25)  # large enough for blocked code
    collinear = pair_block(rng, 200)
    return {
        "positive definite": G.T @ G,
        "singular": collinear.T @ collinear,  # exactly rank 3 of 4
        "indefinite": np.diag([2.0, -1.0, 3.0]) + 0.1,
        "one by one": np.array([[2.5]]),
    }


@pytest.mark.parametrize("name", list(spd_cases()))
def test_spd_solver_matches_cho_factor_and_cho_solve(name):
    S = spd_cases()[name]
    rng = np.random.default_rng(32)
    got, want = _spd_solver(S), scipy_spd_solver(S)
    for B in (rng.normal(size=(S.shape[0], 3)), rng.normal(size=S.shape[0]), np.eye(S.shape[0])):
        a, b = got(B), want(B)
        assert a.shape == b.shape and np.array_equal(a, b)
    if name in ("singular", "indefinite"):  # the pseudo-inverse path
        with pytest.raises(np.linalg.LinAlgError):
            sla.cho_factor(S)


@pytest.mark.parametrize("name", ["tall", "one column", "collinear kept"])
def test_whitened_instruments_match_solve_triangular(name):
    Z = blocks()["collinear"][:, :3] if name == "collinear kept" else blocks()[name]
    got, want = _whiten_instruments(Z), scipy_whiten_instruments(Z)
    assert got.shape == want.shape and got.flags.c_contiguous == want.flags.c_contiguous
    assert np.array_equal(got, want)


@pytest.mark.parametrize("size", [1, 3, 8, 40])
def test_nonsingular_solve_matches_np_linalg_solve(size):
    rng = np.random.default_rng(33 + size)
    A = rng.normal(size=(size, size)) + size * np.eye(size)  # well conditioned
    for B in (rng.normal(size=size), rng.normal(size=(size, 4)), np.eye(size),
              rng.normal(size=(size, 1))):
        got, want = _nonsingular_solve(A, B, "A"), numpy_nonsingular_solve(A, B, "A")
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
    # A transposed view, as the sandwich passes its GW, takes the same path.
    assert np.array_equal(_nonsingular_solve(A.T, A.T, "A"), np.linalg.solve(A.T, A.T))


def test_nonsingular_solve_names_a_singular_matrix():
    A = np.ones((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(A, np.ones(3))
    for B in (np.ones(3), np.ones((3, 2))):
        with pytest.raises(IdentificationError, match=r"^the block at r = 1\.5 is singular$"):
            _nonsingular_solve(A, B, "the block at r = {:.6g}", 1.5)


def test_non_finite_input_raises_as_scipy_does():
    S = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        _spd_solver(S)
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        _spd_solver(np.eye(2))(np.array([1.0, np.inf]))
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        _pivoted_qr(np.array([[1.0, np.nan], [2.0, 3.0]]), np.ones(2))


def test_the_loader_shares_scipy_linalgs_extension():
    assert gmm._lapack() is sys.modules["scipy.linalg._flapack"] is sla.lapack._flapack


def fits():
    """A stacked NonStationary system, a pair system, a triple system with
    repeated columns and a factor-loading system: every solve path through
    the four helpers."""
    stacked = stacked_estimate_system(n=600)
    config = PanelConfig(
        variant="IndependentErrors", n_individuals=800, n_periods=2, n_regressors=1,
        beta=(1.0,), error_cov=((0.5, 0.0), (0.0, 0.5)), seed=9,
        fe_dist=LinearIndexDist(1.0, 0.5), x_dist=NormalDist(1.0, 1.0),
    )
    pair = build_pairwise_independent(simulate(config), 0, 1)
    _, loading = factor_loading_panel((1.0, 1.5), seed=10, n=3000)
    triple_config = PanelConfig(
        variant="VarianceFE", n_individuals=2000, n_periods=3, n_regressors=2,
        beta=(1.0, -0.5), error_cov=((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)), seed=3,
        variance_fe_dist=ShiftedHalfNormalDist(0.25, 0.2),
        fe_dist=LinearIndexDist(1.0, 0.5), x_dist=NormalDist(1.0, 2.0),
    )
    triples = build_triple_variance_fe(simulate(triple_config), 0, 1, 2)  # 25 columns, rank 19
    return [(two_stage_least_squares, stacked), (two_stage_least_squares, pair),
            (two_stage_least_squares, triples), (nonlinear_gmm, loading)]


def test_fits_match_those_on_scipy_linalg_bit_for_bit(monkeypatch):
    cases = fits()
    direct = [solve(system) for solve, system in cases]
    monkeypatch.setattr(gmm, "_pivoted_qr", scipy_pivoted_qr)
    monkeypatch.setattr(gmm, "_spd_solver", scipy_spd_solver)
    monkeypatch.setattr(gmm, "_whiten_instruments", scipy_whiten_instruments)
    monkeypatch.setattr(gmm, "_nonsingular_solve", numpy_nonsingular_solve)
    for (solve, system), a in zip(cases, direct):
        b = solve(system)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.covariance, b.covariance)
        assert (a.j_statistic, a.j_dof, a.condition_number, a.n_clusters) == (
            b.j_statistic, b.j_dof, b.condition_number, b.n_clusters)
        assert a.j_statistic is not None
