"""Linear IV (2SLS) and nonlinear GMM solvers with cluster-robust inference.

The dependent variables here are cubic in the outcomes, so columns can be
badly scaled; everything runs through column rescaling and orthogonal
decompositions rather than raw normal equations. One pivoted QR of the
rescaled instruments both prunes redundant columns and, in 2SLS, is the one
instrument basis: fit, rank check, covariance and J all come from its Q and
R factors (Golub & Van Loan, *Matrix Computations*, 5.3). Rows are grouped by
cluster at most once per solve, and one pass of cluster sums serves both the
covariance and J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np
from scipy import linalg as sla

from .errors import (
    BracketError,
    IdentificationError,
    InsufficientObservationsError,
    NotApplicableError,
)
from .moments import MomentSystem, NonlinearMomentSystem

RANK_RTOL = 1e-10


@dataclass
class LinearIVResult:
    """One solve's estimates and diagnostics; a Monte Carlo replication keeps it whole."""

    params: list  # moments.Param per estimate
    estimates: np.ndarray
    covariance: np.ndarray
    n_rows: int
    n_clusters: int
    condition_number: float
    j_statistic: Optional[float] = None
    j_dof: int = 0
    converged: bool = True  # closed-form 2SLS always converges

    @property
    def param_names(self) -> list:
        return [p.name for p in self.params]

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))

    def to_dict(self) -> dict:
        """JSON-ready fields: parameter names, arrays as flat float lists, and `se`."""
        d = {"param_names": self.param_names, "se": [float(v) for v in self.se]}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = [float(v) for v in value.ravel()]
            if f.name != "params":
                d[f.name] = value
        return d


@dataclass
class NonlinearGMMResult(LinearIVResult):
    iterations: int = 0
    objective_value: float = 0.0


class _Clusters:
    """Rows grouped by cluster id, with at most one (stable) sort."""

    def __init__(self, cluster: np.ndarray):
        cluster = np.asarray(cluster)
        self.order = None
        if np.any(cluster[1:] < cluster[:-1]):
            self.order = np.argsort(cluster, kind="stable")
            cluster = cluster[self.order]
        self.starts = np.flatnonzero(np.r_[True, cluster[1:] != cluster[:-1]])
        self.count = self.starts.size if cluster.size else 0

    def sums(self, rows: np.ndarray) -> np.ndarray:
        """Per-cluster column sums of `rows`, one row per cluster."""
        if self.count == rows.shape[0]:
            return rows  # every cluster holds one row
        if self.order is not None:
            rows = rows[self.order]
        return np.add.reduceat(rows, self.starts, axis=0)


def _column_scale(mat: np.ndarray) -> np.ndarray:
    scale = np.sqrt(np.mean(mat**2, axis=0))
    scale[scale == 0.0] = 1.0
    return scale


def _check_rank(M: np.ndarray, param_names) -> float:
    """SVD rank check of the instrument-regressor cross-moment matrix."""
    svals = np.linalg.svd(M, compute_uv=False)
    if svals[-1] <= RANK_RTOL * svals[0]:
        _, _, vt = np.linalg.svd(M)
        bad = vt[svals <= RANK_RTOL * svals[0]]
        combos = []
        for direction in bad:
            loading = ", ".join(
                f"{c:+.3f}*{nm}" for c, nm in zip(direction, param_names) if abs(c) > 1e-3
            )
            combos.append(loading)
        raise IdentificationError(
            "instrument-regressor cross-moment matrix is rank deficient; "
            "unidentified directions: " + "; ".join(combos),
            deficient_directions=bad,
        )
    return float(svals[0] / svals[-1])


def _pivoted_qr(Z: np.ndarray, scale: np.ndarray, mode: str):
    """Pivoted QR of the rescaled instruments: (Q or raw factors, R11, kept columns).

    The default instrument list is deliberately redundant (x_t - x_s lies in
    the span of x_t and x_s); the projection space is unchanged by pruning,
    but the J degrees of freedom and the moment covariance require a
    full-rank instrument matrix. The kept columns are the first `rank`
    pivots, so the first `rank` columns of Q span them; times R11, the
    leading block of R, they give the rescaled kept columns in pivot order.
    """
    Zs = np.divide(Z, scale, order="F")  # LAPACK's layout, factorised in place
    Q, R, piv = sla.qr(Zs, mode=mode, pivoting=True, overwrite_a=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > RANK_RTOL * diag[0])) if diag.size else 0
    return Q, R[:rank, :rank], np.sort(piv[:rank])


def _independent_instrument_columns(Z: np.ndarray) -> np.ndarray:
    """Indices of a maximal linearly independent instrument subset."""
    return _pivoted_qr(Z, _column_scale(Z), mode="raw")[2]


def _spd_solve(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    try:
        c, low = sla.cho_factor(S)
        return sla.cho_solve((c, low), B)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(S) @ B


def two_stage_least_squares(system: MomentSystem) -> LinearIVResult:
    """Classic 2SLS with individual-clustered sandwich covariance.

    When overidentified, the Hansen J statistic is computed at the efficient
    two-step linear GMM point (weight = inverse clustered moment covariance
    evaluated at the 2SLS residuals), so its null distribution is the usual
    chi-squared with (instruments - parameters) degrees of freedom.
    """
    y = system.dependent
    W = system.regressors
    Q, R, _ = _pivoted_qr(system.instruments, _column_scale(system.instruments), "economic")
    q = R.shape[0]
    Q = Q[:, :q]  # orthonormal basis of the kept instruments' span
    n, p = W.shape
    if n < p:
        raise InsufficientObservationsError(f"{n} rows for {p} parameters")
    if q < p:
        raise IdentificationError(f"{q} instruments for {p} parameters")

    dW = _column_scale(W)
    Ws = W / dW
    QtW = Q.T @ Ws
    # R'QtW/n is the kept instruments' cross moment with Ws, rows in pivot order.
    cond = _check_rank(R.T @ QtW / n, system.param_names)
    # Q is orthonormal, so fitting the projection Q QtW to y is fitting QtW to Q'y.
    Qty = Q.T @ y
    theta_s, *_ = np.linalg.lstsq(QtW, Qty, rcond=None)
    estimates = theta_s / dW
    u = y - W @ estimates

    clusters = _Clusters(system.cluster)
    Gc = clusters.sums(Q * u[:, None])  # per-cluster moments in the Q basis
    # Sandwich A^-1 H'H A^-1 = M M' with bread A = QtW'QtW, meat rows H = Gc QtW
    # and M = A^-1 QtW' Gc': the solve takes q right-hand sides, not one per cluster.
    M = np.linalg.solve(QtW.T @ QtW, QtW.T) @ Gc.T
    covariance = (M @ M.T) / np.outer(dW, dW)

    j_stat = None
    if q > p:
        # J does not change under a nonsingular change of instrument basis, and
        # the 1/n factors of the moments and of their covariance S cancel in it.
        S = Gc.T @ Gc
        SinvG = _spd_solve(S, QtW)
        theta2 = np.linalg.solve(QtW.T @ SinvG, SinvG.T @ Qty)
        gbar = Qty - QtW @ theta2
        j_stat = float(gbar @ _spd_solve(S, gbar))

    return LinearIVResult(
        params=list(system.params),
        estimates=estimates,
        covariance=covariance,
        n_rows=n,
        n_clusters=clusters.count,
        condition_number=cond,
        j_statistic=j_stat,
        j_dof=q - p,
    )


def j_test(result: LinearIVResult):
    """Hansen overidentification test: (statistic, dof, upper-tail p-value)."""
    from scipy import stats  # deferred: it adds about a third to `import tobitiv`

    if result.j_statistic is None or result.j_dof == 0:
        raise NotApplicableError("system is just-identified; J test undefined")
    p_value = float(stats.chi2.sf(result.j_statistic, result.j_dof))
    return result.j_statistic, result.j_dof, p_value


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(fun, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 200):
    """Golden-section minimization on [lo, hi]; returns (x, f(x), n_evals)."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fun(c), fun(d)
    evals = 2
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fun(d)
        evals += 1
    x = c if fc < fd else d
    return x, min(fc, fd), evals


def _parabolic_refine(fun, x, h):
    """One quadratic-interpolation step around x with half-width h."""
    f0, fm, fp = fun(x), fun(x - h), fun(x + h)
    denom = fp - 2.0 * f0 + fm
    if denom <= 0.0:
        return x, f0, 3
    step = 0.5 * h * (fm - fp) / denom
    cand = x + np.clip(step, -h, h)
    fc = fun(cand)
    if fc < f0:
        return cand, fc, 4
    return x, f0, 4


# Settings of the factor-loading search in `nonlinear_gmm`.
R_BRACKET = (0.05, 20.0)  # search interval for the loadings ratio r
N_GRID = 33  # coarse grid points in log r
SEARCH_TOL = 1e-12  # golden-section tolerance, in log r
FD_REL_STEP = 1e-6  # relative step of the central-difference Jacobian
GRAD_TOL = 1e-5  # gradient norm below which the result counts as converged


def _whiten_instruments(Z: np.ndarray):
    scale = _column_scale(Z)
    Zs = Z / scale
    C = np.linalg.cholesky(Zs.T @ Zs / Z.shape[0])
    return sla.solve_triangular(C, Zs.T, lower=True).T  # Zw with Zw'Zw/n = I


def concentrated_linear_solve(system: NonlinearMomentSystem, r: float, Zw, Wmat):
    """Inner GMM solve of the linear block (beta, a, b) at fixed r.

    With Wmat = I on the whitened instruments this is exactly 2SLS on the
    r-transformed linear system. Wmat None stands for I and skips the
    products by it, which would change no bit.
    """
    n = system.n_rows
    dep, X = system.shared_linear_parts(r)
    G = Zw.T @ X / n
    gd = Zw.T @ dep / n
    if Wmat is None:
        WG, Wgd = G, gd
    else:
        WG, Wgd = Wmat @ G, Wmat @ gd
    theta = np.linalg.solve(G.T @ WG, G.T @ Wgd)
    gbar = gd - G @ theta
    value = float(gbar @ (gbar if Wmat is None else Wmat @ gbar))
    return theta, value, gbar


def nonlinear_gmm(system: NonlinearMomentSystem) -> NonlinearGMMResult:
    """Two-step GMM for the factor-loading system.

    The criterion is linear in (beta, a, b) at fixed loadings ratio r, so the
    outer problem is a one-dimensional search in log r (coarse grid, then
    golden section, then one quadratic-interpolation refinement) with a
    closed-form inner solve. Step one weights with the identity on whitened
    instruments (equivalent to 2SLS); step two reweights with the inverse
    clustered moment covariance from step one.
    """
    n = system.n_rows
    Z = system.instruments[:, _independent_instrument_columns(system.instruments)]
    q = Z.shape[1]
    p = len(system.param_names)
    K = system.x_t.shape[1]
    if n < p:
        raise InsufficientObservationsError(f"{n} rows for {p} parameters")
    Zw = _whiten_instruments(Z)
    evals = 0

    def _search(Wmat, r_hint=None):
        nonlocal evals

        def obj(log_r):
            nonlocal evals
            evals += 1
            return concentrated_linear_solve(system, math.exp(log_r), Zw, Wmat)[1]

        lo, hi = (math.log(b) for b in R_BRACKET)
        grid = list(np.linspace(lo, hi, N_GRID))
        if r_hint is not None and lo < math.log(r_hint) < hi:
            grid = sorted(grid + [math.log(r_hint)])
        vals = [obj(g) for g in grid]
        i_min = int(np.argmin(vals))
        if i_min == 0 or i_min == len(grid) - 1:
            raise BracketError(
                f"objective is minimized at the bracket edge r = "
                f"{math.exp(grid[i_min]):.4g} of the search interval {R_BRACKET}"
            )
        x, _, _ = golden_section(obj, grid[i_min - 1], grid[i_min + 1], tol=SEARCH_TOL)
        x, fx, _ = _parabolic_refine(obj, x, max(10.0 * SEARCH_TOL, 1e-9))
        return math.exp(x), fx

    # step 1: 2SLS-equivalent weighting (the identity)
    r1, _ = _search(None)
    theta_lin1, _, _ = concentrated_linear_solve(system, r1, Zw, None)

    def _full_theta(r, theta_lin):
        return np.concatenate([theta_lin[:K], [r], theta_lin[K:]])

    clusters = _Clusters(system.cluster)

    def _clustered_S(theta_full):
        xi = system.residuals(theta_full)
        Hc = clusters.sums(Zw * xi[:, None])
        return Hc.T @ Hc / n

    # step 2: efficient weighting
    S1 = _clustered_S(_full_theta(r1, theta_lin1))
    W2 = _spd_solve(S1, np.eye(q))
    W2 = 0.5 * (W2 + W2.T)
    r2, obj2 = _search(W2, r1)
    theta_lin2, _, gbar = concentrated_linear_solve(system, r2, Zw, W2)
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

    S = _clustered_S(theta)
    GW = G.T @ W2
    bread = np.linalg.inv(GW @ G)
    meat = GW @ S @ GW.T
    covariance = bread @ meat @ bread / n
    covariance = 0.5 * (covariance + covariance.T)

    grad = 2.0 * GW @ gbar
    j_stat = float(n * gbar @ _spd_solve(S, gbar)) if q > p else None

    return NonlinearGMMResult(
        params=list(system.params),
        estimates=theta,
        covariance=covariance,
        n_rows=n,
        n_clusters=clusters.count,
        condition_number=float(np.linalg.cond(Zw.T @ system.shared_linear_parts(r2)[1] / n)),
        j_statistic=j_stat,
        j_dof=max(q - p, 0),
        converged=bool(np.linalg.norm(grad) < GRAD_TOL),
        iterations=evals,
        objective_value=float(n * obj2),
    )
