"""Linear IV (2SLS) and nonlinear GMM solvers with cluster-robust inference.

The dependent variables here are cubic in the outcomes, so columns can be
badly scaled; everything runs through column rescaling and orthogonal
decompositions rather than raw normal equations. One pivoted QR of the
rescaled instruments both prunes redundant columns and, in 2SLS, is the one
instrument basis: fit, rank check, covariance and J all come from its Q and
R factors (Golub & Van Loan, *Matrix Computations*, 5.3). A stacked system's
rows come in blocks, each with instrument columns of its own and regressors
in a subset of the parameters' columns, so 2SLS factorises each row block on
its own and writes each block's small products into its own rows and
columns; a block array that several blocks share (one pair's instruments,
held by each of its orders) is scaled and factorised once. One function,
`_cluster_moment_covariance`, gives the cluster-robust moment covariance
S = Gc'Gc (instruments x instruments) and the cluster count, Gc being the
per-cluster moments: each block's rows, sorted by cluster only when out of
order, are summed over each cluster into the block's own columns, so no
n-by-q or n-by-p matrix is formed; several blocks add their sums into S a
fixed number of clusters at a time, so their clusters-by-q Gc is never held
either. The one S serves both the covariance and J. The factor-loading GMM
prunes with the same QR, needs more kept instruments than parameters (just
identified, its objective is zero at every root in the loadings ratio r) and
shares 2SLS's rank check, S and sandwich; its search over r compares screen
values where they lie more than `SCREEN` apart and exact values elsewhere,
so it returns an all-exact search's bits. Both solvers reject input that is
not finite, or whose squares overflow, before any arithmetic. The helpers
that factorise call scipy's compiled LAPACK wrappers, `scipy.linalg._flapack`,
loaded alone on first use, with the arguments and checks that `scipy.linalg`
gives them; importing this module loads only numpy, and no solve imports the
`scipy.linalg` package.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg  # np.linalg.solve's gufuncs; loaded with numpy

from .errors import (
    BracketError,
    DomainError,
    IdentificationError,
    InsufficientObservationsError,
    NotApplicableError,
)
from .moments import MomentSystem, NonlinearMomentSystem
from .simulate import json_value, written

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class LinearIVResult:
    """One solve's estimates and diagnostics, each field but `params` `written`; a replication
    keeps it whole. `param_names` and `se` are derived from `params` and `covariance`."""

    params: list  # moments.Param per estimate
    param_names: list = written(init=False)
    estimates: np.ndarray = written("est_", per_param=True)
    se: np.ndarray = written("se_", per_param=True, init=False)
    covariance: np.ndarray = written()
    n_rows: int = written()
    n_clusters: int = written()
    condition_number: float = written()
    j_statistic: Optional[float] = written(default=None)
    j_dof: int = written(default=0)
    converged: bool = written(default=True)  # closed-form 2SLS always converges

    def __post_init__(self):  # the derived fields
        object.__setattr__(self, "param_names", [p.name for p in self.params])
        object.__setattr__(self, "se", np.sqrt(np.diag(self.covariance)))

    def to_dict(self) -> dict:
        """Each written field's JSON value (`json_value`): derived fields first, in field order."""
        return {f.name: json_value(getattr(self, f.name))
                for f in sorted(fields(self), key=lambda f: f.init) if f.metadata}


@dataclass(frozen=True)
class NonlinearGMMResult(LinearIVResult):
    iterations: int = written(default=0)
    objective_value: float = written(default=0.0)


CLUSTER_CHUNK = 512  # clusters whose moments a several-block S sum holds at once


def _cluster_moment_covariance(cluster, block_rows, Qs, u):
    """(S, number of clusters): S = Gc'Gc, where Gc holds the per-cluster sums
    of the block-diagonal product Q * u, one row per distinct cluster id.

    Block b's columns are zero outside its rows, so they are the cluster sums
    of Q_b * u over those rows alone; the n-by-q product is never formed.
    Each block's rows are sorted by cluster (stably, and only when out of
    order) and summed over each run of one id. One block gives its sums H
    and S = H'H. Several blocks rank their run ids once, by one stable sort
    of the concatenated (each already sorted) ids, then fill CLUSTER_CHUNK
    ranked clusters of Gc at a time and add each chunk's H'H into S, so the
    clusters-by-q Gc is never held. Where a block holds at most one row of
    each cluster, as every built pair or triple block does, its sums equal
    those of the dense product bit for bit; otherwise they agree to rounding,
    since numpy adds long runs pairwise and the dense zeros regroup them.
    """
    runs = []  # per block: its row order (None when sorted), run starts and run ids
    for rows in block_rows:
        ids = cluster[rows]
        order = np.argsort(ids, kind="stable") if np.any(ids[1:] < ids[:-1]) else None
        ids = ids if order is None else ids[order]
        starts = np.flatnonzero(np.r_[ids.size > 0, ids[1:] != ids[:-1]])
        runs.append((order, starts, ids if starts.size == ids.size else ids[starts]))

    def sums(b, k0, k1):  # block b's cluster sums over its runs k0 to k1, one row per run
        order, starts, _ = runs[b]
        lo, hi = starts[k0], starts[k1] if k1 < starts.size else Qs[b].shape[0]
        rows = slice(lo, hi) if order is None else order[lo:hi]
        Qu = Qs[b][rows] * u[block_rows[b]][rows, None]
        return Qu if k1 - k0 == hi - lo else np.add.reduceat(Qu, starts[k0:k1] - lo, axis=0)

    if len(runs) == 1:
        H = sums(0, 0, runs[0][1].size)
        return H.T @ H, H.shape[0]
    run_ids = [run_ids for *_, run_ids in runs]
    every = np.sort(np.concatenate(run_ids), kind="stable")  # merges the sorted runs
    distinct = every[np.r_[every.size > 0, every[1:] != every[:-1]]]
    ranks = [np.searchsorted(distinct, ids) for ids in run_ids]
    col0 = np.cumsum([0] + [Q.shape[1] for Q in Qs])
    S = np.zeros((col0[-1], col0[-1]))
    for c0 in range(0, distinct.size, CLUSTER_CHUNK):
        H = np.zeros((min(CLUSTER_CHUNK, distinct.size - c0), col0[-1]))
        for b, rank in enumerate(ranks):
            k0, k1 = np.searchsorted(rank, (c0, c0 + CLUSTER_CHUNK))
            if k1 > k0:
                H[rank[k0:k1] - c0, col0[b] : col0[b + 1]] = sums(b, k0, k1)
        S += H.T @ H
    return S, distinct.size


def _column_scale(mat: np.ndarray) -> np.ndarray:
    scale = np.sqrt(np.mean(mat**2, axis=0))
    scale[scale == 0.0] = 1.0
    return scale


def _regressor_scale(system: MomentSystem) -> np.ndarray:
    """`_column_scale` of the dense regressor matrix, from per-block
    column sums of squares: each block adds to its own columns only."""
    sumsq = np.zeros(len(system.params))
    for W, cols in zip(system.regressor_blocks, system.regressor_columns):
        sumsq[cols] += np.sum(W**2, axis=0)
    scale = np.sqrt(sumsq / system.n_rows)
    scale[scale == 0.0] = 1.0
    return scale


def _finite_column_scales(what: str, *arrays) -> list:
    """`_column_scale` of each array (columns of a 1-d array: itself), and
    `_regressor_scale` of each MomentSystem among them.

    A scale is finite exactly when its column is finite and the column's sum
    of squares does not overflow, so checking the scales checks the arrays.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scales = [_regressor_scale(a) if isinstance(a, MomentSystem)
                  else _column_scale(a.reshape(a.shape[0], -1)) for a in arrays]
    if not all(np.isfinite(s).all() for s in scales):
        raise DomainError(f"{what} hold non-finite values or values whose squares overflow")
    return scales


def _check_rank(M: np.ndarray, param_names) -> float:
    """SVD rank check of the instrument-regressor cross-moment matrix."""
    svals = np.linalg.svd(M, compute_uv=False)
    if svals[-1] <= RANK_RTOL * svals[0]:
        _, _, vt = np.linalg.svd(M)
        bad = vt[svals <= RANK_RTOL * svals[0]]
        combos = [", ".join(f"{c:+.3f}*{nm}" for c, nm in zip(direction, param_names)
                            if abs(c) > 1e-3) for direction in bad]
        raise IdentificationError(
            "instrument-regressor cross-moment matrix is rank deficient; "
            "unidentified directions: " + "; ".join(combos),
            deficient_directions=bad,
        )
    return float(svals[0] / svals[-1])


_FLAPACK = "scipy.linalg._flapack"


def _lapack():
    """scipy's compiled LAPACK wrappers, the extension `scipy.linalg._flapack`.

    At scipy 1.17.1, importing the `scipy.linalg` package costs a process
    about 300 ms and 27 MB (it loads `numpy.f2py`, `numpy.testing` and more);
    the extension alone costs 2.6 MB. So it is loaded by itself from scipy's `linalg`
    directory, once, and registered under its own name, where a later
    `import scipy.linalg` finds it and reuses it.
    """
    lapack = sys.modules.get(_FLAPACK)
    if lapack is None:
        scipy_spec = importlib.util.find_spec("scipy")
        roots = scipy_spec.submodule_search_locations if scipy_spec else ()
        dirs = [os.path.join(root, "linalg") for root in roots]
        spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, dirs)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {_FLAPACK!r}", name=_FLAPACK)
        lapack = importlib.util.module_from_spec(spec)
        sys.modules[_FLAPACK] = lapack
        spec.loader.exec_module(lapack)
    return lapack


def _lapack_call(name, *args, workspace=False, **kwargs):
    """The LAPACK routine `name` called as `scipy.linalg` calls it: its outputs
    and its info, a positive info being the routine's own finding (a matrix
    that is singular or not positive definite). A negative info, an illegal
    argument, raises ValueError. With `workspace`, the routine is first asked
    for its work array's size (lwork = -1), and the work array is left out of
    the outputs.
    """
    routine = getattr(_lapack(), name)
    if workspace:
        kwargs["lwork"] = routine(*args, lwork=-1, **kwargs)[-2][0].real.astype(np.int_)
    *out, info = routine(*args, **kwargs)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal {name}")
    return (*out[:-1], info) if workspace else (*out, info)


def _pivoted_qr(Z: np.ndarray, scale: np.ndarray):
    """Economic pivoted QR of the rescaled instruments: (Q, R11, kept columns).

    The default instrument list is deliberately redundant (x_t - x_s lies in
    the span of x_t and x_s); the projection space is unchanged by pruning,
    but the J degrees of freedom and the moment covariance require a
    full-rank instrument matrix. The kept columns are the first `rank`
    pivots, so the first `rank` columns of Q span them; times R11, the
    leading block of R, they give the rescaled kept columns in pivot order.
    The calls are those of ``scipy.linalg.qr(mode="economic", pivoting=True)``:
    dgeqp3, then dorgqr on the first min(rows, columns) columns of its output.
    """
    # LAPACK's layout, factorised in place
    Zs = np.asarray_chkfinite(np.divide(Z, scale, order="F"))
    qr, piv, tau, _ = _lapack_call("dgeqp3", Zs, overwrite_a=True, workspace=True)
    diag = np.abs(np.diag(qr))
    rank = int(np.sum(diag > RANK_RTOL * diag[0])) if diag.size else 0
    R11 = np.triu(qr[:rank, :rank])  # taken before dorgqr overwrites qr with Q
    Q, _ = _lapack_call("dorgqr", qr[:, : min(Zs.shape)], tau, overwrite_a=True, workspace=True)
    return Q, R11, np.sort(piv[:rank] - 1)  # dgeqp3 counts columns from 1


def _spd_solver(S: np.ndarray):
    """``B -> S^-1 B`` from one Cholesky factor of S, or from its pseudo-inverse
    when S is not positive definite. The calls are scipy.linalg's
    ``cho_solve(cho_factor(S), B)``: dpotrf on the upper triangle, the lower
    left as it was, then dpotrs."""
    c, info = _lapack_call("dpotrf", np.asarray_chkfinite(S), lower=False, clean=False)
    if info > 0:
        S_pinv = np.linalg.pinv(S)
        return lambda B: S_pinv @ B
    return lambda B: _lapack_call("dpotrs", c, np.asarray_chkfinite(B), lower=False)[0]


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _nonsingular_solve(A, B, what: str, *what_args):
    """`np.linalg.solve`'s gufunc (dgesv) and error state without its wrapper, so its bits;
    an exactly singular A is an IdentificationError named by ``what.format(*what_args)``."""
    solve = _umath_linalg.solve1 if B.ndim == 1 else _umath_linalg.solve
    try:
        with np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore",
                         under="ignore"):
            return solve(A, B, signature="dd->d")
    except np.linalg.LinAlgError:
        raise IdentificationError(f"{what.format(*what_args)} is singular") from None


def _sandwich(G: np.ndarray, GW: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Sandwich B S B' with bread A = GW G, moment covariance S and
    B = A^-1 GW: the solve takes one right-hand side per instrument. The
    product is averaged with its transpose, so it is exactly symmetric."""
    B = _nonsingular_solve(GW @ G, GW, "the moment Jacobian's GMM matrix")
    V = B @ S @ B.T
    return 0.5 * (V + V.T)


def two_stage_least_squares(system: MomentSystem) -> LinearIVResult:
    """Classic 2SLS with individual-clustered sandwich covariance.

    When overidentified, the Hansen J statistic is computed at the efficient
    two-step linear GMM point (weight = inverse clustered moment covariance
    evaluated at the 2SLS residuals), so its null distribution is the usual
    chi-squared with (instruments - parameters) degrees of freedom.

    The instrument basis Q is block-diagonal like the instruments: each
    distinct block array has one pivoted QR, and the pieces Q'Ws, Q'y and
    R'Q'Ws are stacked block by block in column order, each block's Q'Ws
    nonzero in its own regressor columns only.
    """
    y = system.dependent
    blocks = system.instrument_blocks
    n, p = y.shape[0], len(system.params)
    # One scale and one QR per distinct block array: orders built on one pair share it.
    distinct = list({id(Z): Z for Z in blocks}.values())
    *z_scales, dW, _ = _finite_column_scales(
        "instruments, regressors or dependent variable", *distinct, system, y
    )
    if n < p:
        raise InsufficientObservationsError(f"{n} rows for {p} parameters")

    bases = {}  # id of a block array -> (Q, R11)
    for Z, scale in zip(distinct, z_scales):
        # RMS over all n rows, as in the dense matrix: every column has norm
        # sqrt(n), so pivots and the rank threshold match one QR of it.
        Q, R, _ = _pivoted_qr(Z, scale * math.sqrt(Z.shape[0] / n))
        # The first rank columns of Q are an orthonormal basis of the kept columns' span.
        bases[id(Z)] = Q[:, : R.shape[0]], R

    parts = []  # per block: rows, Q, Q'Ws, Q'y, R'Q'Ws, with Ws = W / dW
    r0 = 0
    for Z, W, cols in zip(blocks, system.regressor_blocks, system.regressor_columns):
        rows = slice(r0, r0 + Z.shape[0])
        r0 = rows.stop
        Q, R = bases[id(Z)]
        QtW_b = np.zeros((Q.shape[1], p))  # zero outside the block's own columns
        QtW_b[:, cols] = (Q.T @ W) / dW[cols]  # scaling the q x p product, not a copy of W
        parts.append((rows, Q, QtW_b, Q.T @ y[rows], R.T @ QtW_b))
    block_rows, Qs, QtWs, Qtys, RtQtWs = zip(*parts)
    QtW, Qty = np.concatenate(QtWs), np.concatenate(Qtys)
    q = QtW.shape[0]
    if q < p:
        raise IdentificationError(f"{q} instruments for {p} parameters")

    # R'QtW/n is the kept instruments' cross moment with Ws, rows in pivot order.
    cond = _check_rank(np.concatenate(RtQtWs) / n, system.param_names)
    # Q is orthonormal, so fitting the projection Q QtW to y is fitting QtW to Q'y.
    theta_s, *_ = np.linalg.lstsq(QtW, Qty, rcond=None)
    estimates = theta_s / dW
    u = system.residuals(estimates)

    S, n_clusters = _cluster_moment_covariance(system.cluster, block_rows, Qs, u)  # Q basis
    covariance = _sandwich(QtW, QtW.T, S) / np.outer(dW, dW)

    j_stat = None
    if q > p:
        # J does not change under a nonsingular change of instrument basis, and
        # the 1/n factors of the moments and of their covariance S cancel in it.
        S_solve = _spd_solver(S)
        SinvG = S_solve(QtW)
        theta2 = _nonsingular_solve(QtW.T @ SinvG, SinvG.T @ Qty,
                                    "the two-step GMM matrix for J")
        gbar = Qty - QtW @ theta2
        j_stat = float(gbar @ S_solve(gbar))

    return LinearIVResult(
        params=list(system.params),
        estimates=estimates,
        covariance=covariance,
        n_rows=n,
        n_clusters=n_clusters,
        condition_number=cond,
        j_statistic=j_stat,
        j_dof=q - p,
    )


def j_test(result: LinearIVResult):
    """Hansen overidentification test: (statistic, dof, upper-tail p-value)."""
    from scipy import stats  # deferred: it more than doubles `import tobitiv` (0.48 -> 1.15 s)

    if result.j_statistic is None or result.j_dof == 0:
        raise NotApplicableError("system is just-identified; J test undefined")
    p_value = float(stats.chi2.sf(result.j_statistic, result.j_dof))
    return result.j_statistic, result.j_dof, p_value


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(less, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 200):
    """Golden-section minimizer on [lo, hi] of an f compared by less(x, y): f(x) < f(y)."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if less(c, d):
            b, d = d, c
            c = b - _INV_PHI * (b - a)
        else:
            a, c = c, d
            d = a + _INV_PHI * (b - a)
    return c if less(c, d) else d


def _parabolic_refine(fun, x, fx, h):
    """One quadratic-interpolation step around x, where fun is fx, with half-width h."""
    fm, fp = fun(x - h), fun(x + h)
    denom = fp - 2.0 * fx + fm
    if denom <= 0.0:
        return x, fx
    cand = x + np.clip(0.5 * h * (fm - fp) / denom, -h, h)
    fc = fun(cand)
    return (cand, fc) if fc < fx else (x, fx)


# Settings of the factor-loading search in `nonlinear_gmm`.
R_BRACKET = (0.05, 20.0)  # search interval for the loadings ratio r
N_GRID = 33  # coarse grid points in log r
SEARCH_TOL = 1e-12  # golden-section tolerance, in log r
FD_REL_STEP = 1e-6  # relative step of the central-difference Jacobian
GRAD_TOL = 1e-5  # gradient norm below which the result counts as converged
SCREEN = 1e-7  # relative gap deciding a comparison: about 1900x the largest screen error measured


def _whiten_instruments(Z: np.ndarray):
    """Zw = Zs C'^-1, with Zs the rescaled instruments and C the Cholesky
    factor of Zs'Zs/n, so Zw'Zw/n = I. The solve is that of
    ``scipy.linalg.solve_triangular(C, Zs.T, lower=True)``: dtrtrs on C', the
    upper triangle in LAPACK's column order, transposed back. A positive
    diagonal, which the Cholesky factor has, is never singular."""
    scale = _column_scale(Z)
    Zs = Z / scale
    C = np.linalg.cholesky(Zs.T @ Zs / Z.shape[0])
    ZwT, _ = _lapack_call("dtrtrs", np.asarray_chkfinite(C).T, np.asarray_chkfinite(Zs.T),
                          lower=False, trans=1)
    return ZwT.T


def project_linear_parts(system: NonlinearMomentSystem, r: float, Zw):
    """(Zw'X/n, Zw'dep/n), the model's regressors and dependent at fixed r
    projected on the whitened instruments: the inner solve's weight-free part."""
    dep, X = system.shared_linear_parts(r)
    return Zw.T.dot(X) / system.n_rows, Zw.T.dot(dep) / system.n_rows


def screen_objectives(P0, P1, Wmat, log_rs) -> list:
    """`concentrated_linear_solve`'s objective at each r = exp(log r) on P0 - r P1, in one
    batched solve, nan where singular. It only orders points: it never reaches a result."""
    P = P0 - np.array([math.exp(x) for x in log_rs])[:, None, None] * P1
    G, gd = P[:, :, :-1], P[:, :, -1:]
    GtW = G.transpose(0, 2, 1) @ Wmat
    with np.errstate(all="ignore"):
        gbar = gd - G @ _umath_linalg.solve(GtW @ G, GtW @ gd, signature="dd->d")
        return (gbar.transpose(0, 2, 1) @ Wmat @ gbar).ravel().tolist()


def concentrated_linear_solve(G, gd, Wmat, r: float):
    """Inner GMM solve of the linear block (beta, a, b) at fixed r from its projections
    G, the moments' Jacobian in (beta, a, b), and gd: (theta, objective, gbar).

    With Wmat = I on the whitened instruments this is exactly 2SLS on the r-transformed
    linear system. `.dot` makes `@`'s BLAS calls at half its overhead on these operands.
    """
    theta = _nonsingular_solve(G.T.dot(Wmat.dot(G)), G.T.dot(Wmat.dot(gd)),
                               "the linear block's GMM matrix at r = {:.6g}", r)
    gbar = gd - G.dot(theta)
    return theta, float(gbar.dot(Wmat.dot(gbar))), gbar


def nonlinear_gmm(system: NonlinearMomentSystem) -> NonlinearGMMResult:
    """Two-step GMM for the factor-loading system.

    The criterion is linear in (beta, a, b) at fixed loadings ratio r, so the
    outer problem is a one-dimensional search in log r (coarse grid, then
    golden section, then one quadratic-interpolation refinement) with a
    closed-form inner solve. Step one weights with the identity on whitened
    instruments (equivalent to 2SLS); step two reweights with the inverse
    clustered moment covariance from step one. Screen values, the inner solve on P0 - r P1,
    decide comparisons until one lies within SCREEN, relative; the rest and the result are
    exact, so the bits are an all-exact search's. `iterations` counts the points visited.
    """
    # The model parts at r = 1 stand for those at every r in the bracket.
    with np.errstate(over="ignore", invalid="ignore"):
        parts = system.shared_linear_parts(1.0)
    z_scale, *_ = _finite_column_scales("instruments or model parts", system.instruments, *parts)
    n = system.n_rows
    p = len(system.params)
    K = system.x_t.shape[1]
    if n < p:
        raise InsufficientObservationsError(f"{n} rows for {p} parameters")
    Z = system.instruments[:, _pivoted_qr(system.instruments, z_scale)[2]]
    q = Z.shape[1]
    if q <= p:
        raise IdentificationError(f"{q} instruments for {p} parameters: r needs more (just "
                                  "identified, the objective is zero at every root in r); use "
                                  "a set with more columns, such as products or levels_squares")
    Zw = _whiten_instruments(Z)
    P0, P1 = (Zw.T.dot(A) / n for A in system.bilinear_parts())  # P0 - r P1: the parts at r

    def decides(f1, f2):  # screen values that order their exact objectives; never nan or inf
        return abs(f1 - f2) > SCREEN * max(abs(f1), abs(f2))

    def _search(Wmat, r_hint=None):
        """The minimising r, the exact inner solve and G there, and the points visited."""
        solved = {}  # log r -> concentrated_linear_solve and G at r = exp(log r)
        screened = {}  # log r -> the screen value at r = exp(log r)
        exact = False  # whether golden section has met a comparison the screen cannot decide

        def obj(log_r):
            if log_r not in solved:
                r = math.exp(log_r)
                G, gd = project_linear_parts(system, r, Zw)
                solved[log_r] = (*concentrated_linear_solve(G, gd, Wmat, r), G)
            return solved[log_r][1]

        def less(x, y):
            nonlocal exact
            if not exact:
                for log_r in {x, y} - screened.keys():  # the inner solve on P0 - r P1
                    r = math.exp(log_r)
                    P = P0 - r * P1
                    try:
                        screened[log_r] = concentrated_linear_solve(P[:, :-1], P[:, -1], Wmat, r)[1]
                    except IdentificationError:  # singular: undecided
                        screened[log_r] = math.nan
                if decides(screened[x], screened[y]):
                    return screened[x] < screened[y]
                exact = True
            return obj(x) < obj(y)

        lo, hi = (math.log(b) for b in R_BRACKET)
        grid = list(np.linspace(lo, hi, N_GRID))
        if r_hint is not None and lo < math.log(r_hint) < hi:
            grid = sorted(grid + [math.log(r_hint)])
        vals = screen_objectives(P0, P1, Wmat, grid)
        screened.update(zip(grid, vals))
        i_min = int(np.argmin(vals))
        if not all(decides(vals[i_min], v) for i, v in enumerate(vals) if i != i_min):
            i_min = int(np.argmin([obj(g) for g in grid]))  # the first exact minimum
        if i_min == 0 or i_min == len(grid) - 1:
            raise BracketError(
                f"objective is minimized at the bracket edge r = "
                f"{math.exp(grid[i_min]):.4g} of the search interval {R_BRACKET}"
            )
        x = golden_section(less, grid[i_min - 1], grid[i_min + 1], tol=SEARCH_TOL)
        x, _ = _parabolic_refine(obj, x, obj(x), max(10.0 * SEARCH_TOL, 1e-9))
        return math.exp(x), solved[x], len(screened.keys() | solved.keys())

    def _full_theta(r, theta_lin):
        return np.concatenate([theta_lin[:K], [r], theta_lin[K:]])

    # step 1: 2SLS-equivalent weighting (the identity)
    r1, (theta_lin1, *_), n_visited1 = _search(np.eye(q))

    # step 2: efficient weighting
    xi1 = system.residuals(_full_theta(r1, theta_lin1))
    S1, _ = _cluster_moment_covariance(system.cluster, [slice(None)], [Zw], xi1)  # one block
    W2 = _spd_solver(S1 / n)(np.eye(q))
    W2 = 0.5 * (W2 + W2.T)
    r2, (theta_lin2, obj2, gbar, G2), n_visited2 = _search(W2, r1)
    cond = _check_rank(G2, [prm.name for prm in system.params if prm.kind != "r"])
    theta = _full_theta(r2, theta_lin2)

    def gbar_at(th):
        return Zw.T @ system.residuals(th) / n

    # numerically differentiated moment Jacobian (central differences)
    G = np.empty((q, p))
    for j in range(p):
        step = FD_REL_STEP * max(1.0, abs(theta[j]))
        tp, tm = theta.copy(), theta.copy()
        tp[j] += step
        tm[j] -= step
        G[:, j] = (gbar_at(tp) - gbar_at(tm)) / (2.0 * step)

    S, n_clusters = _cluster_moment_covariance(system.cluster, [slice(None)], [Zw],
                                               system.residuals(theta))
    GW = G.T @ W2
    # The moments' covariance is S/n, and the estimates' is the sandwich over it divided by n.
    covariance = _sandwich(G, GW, S) / n**2

    grad = 2.0 * GW @ gbar
    j_stat = float(n * gbar @ _spd_solver(S / n)(gbar))

    return NonlinearGMMResult(
        params=list(system.params),
        estimates=theta,
        covariance=covariance,
        n_rows=n,
        n_clusters=n_clusters,
        condition_number=cond,
        j_statistic=j_stat,
        j_dof=q - p,
        converged=bool(np.linalg.norm(grad) < GRAD_TOL),
        iterations=n_visited1 + n_visited2,
        objective_value=float(n * obj2),
    )
