"""Linear IV (2SLS) and nonlinear GMM solvers with cluster-robust inference.

The dependent variables here are cubic in the outcomes, so columns can be
badly scaled; everything runs through column rescaling and orthogonal
decompositions rather than raw normal equations. One pivoted QR of the
rescaled instruments both prunes redundant columns and, in 2SLS, is the one
instrument basis: fit, rank check, covariance and J all come from its Q and
R factors (Golub & Van Loan, *Matrix Computations*, 5.3). A stacked system's
instrument matrix is block-diagonal, so 2SLS factorises each row block on its
own and stacks the small per-block products; a block array that several
blocks share (one pair's instruments, held by each of its orders) is scaled
and factorised once. The per-cluster moments Gc (clusters x instruments)
are summed block by block, each block over its own rows into its own
columns, so neither the zero-padded instrument matrix nor any other n-by-q
matrix is formed. Each block's rows are grouped by cluster at most once per
solve, and the one Gc serves both the covariance and J. Both solvers reject
input that is not finite, or whose squares overflow, before any arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np
from scipy import linalg as sla

from .errors import (
    BracketError,
    DomainError,
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
        self._cluster = cluster = np.asarray(cluster)
        self.order = None
        if np.any(cluster[1:] < cluster[:-1]):
            self.order = np.argsort(cluster, kind="stable")
            cluster = cluster[self.order]
        self._sorted = cluster
        self.starts = np.flatnonzero(np.r_[True, cluster[1:] != cluster[:-1]])
        self.count = self.starts.size if cluster.size else 0

    @property
    def ids(self) -> np.ndarray:
        """The cluster id of each row of `sums`."""
        if self.count == self._cluster.size:
            return self._cluster
        return self._sorted[self.starts]

    def sums(self, rows: np.ndarray) -> np.ndarray:
        """Per-cluster column sums of `rows`, one row per cluster."""
        if self.count == rows.shape[0]:
            return rows  # every cluster holds one row
        if self.order is not None:
            rows = rows[self.order]
        return np.add.reduceat(rows, self.starts, axis=0)


def _block_cluster_sums(cluster, block_rows, Qs, u) -> np.ndarray:
    """Per-cluster sums of the block-diagonal product Q * u, one row per cluster.

    Block b's columns are zero outside its rows, so they are the cluster sums
    of Q_b * u over those rows alone, written into the rows of the block's
    clusters; the n-by-q product is never formed. Rows come in the order that
    `_Clusters(cluster).sums` gives. Where a block holds at most one row of
    each cluster, as every built pair or triple block does, the sums equal
    those of the dense product bit for bit; otherwise they agree to rounding,
    since numpy adds long runs pairwise and the dense zeros regroup them.
    """
    groups = [_Clusters(cluster[rows]) for rows in block_rows]
    if len(groups) == 1:
        return groups[0].sums(Qs[0] * u[:, None])
    ids, slot = np.unique(np.concatenate([g.ids for g in groups]), return_inverse=True)
    if ids.size == cluster.size:
        slot = np.arange(ids.size)  # one row per cluster: `sums` keeps the row order
    Gc = np.zeros((ids.size, sum(Q.shape[1] for Q in Qs)))
    r0 = c0 = 0
    for g, rows, Q in zip(groups, block_rows, Qs):
        Gc[slot[r0 : r0 + g.count], c0 : c0 + Q.shape[1]] = g.sums(Q * u[rows, None])
        r0 += g.count
        c0 += Q.shape[1]
    return Gc


def _column_scale(mat: np.ndarray) -> np.ndarray:
    scale = np.sqrt(np.mean(mat**2, axis=0))
    scale[scale == 0.0] = 1.0
    return scale


def _finite_column_scales(what: str, *arrays) -> list:
    """`_column_scale` of each array (columns of a 1-d array: itself).

    A scale is finite exactly when its column is finite and the column's sum
    of squares does not overflow, so checking the scales checks the arrays.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scales = [_column_scale(a.reshape(a.shape[0], -1)) for a in arrays]
    if not all(np.isfinite(s).all() for s in scales):
        raise DomainError(f"{what} hold non-finite values or values whose squares overflow")
    return scales


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


def _spd_solver(S: np.ndarray):
    """``B -> S^-1 B`` from one Cholesky factor of S, or from its pseudo-inverse
    when S is not positive definite."""
    try:
        factor = sla.cho_factor(S)
    except np.linalg.LinAlgError:
        S_pinv = np.linalg.pinv(S)
        return lambda B: S_pinv @ B
    return lambda B: sla.cho_solve(factor, B)


def _nonsingular_solve(A, B, what: str):
    """`np.linalg.solve`, reporting an exactly singular A as an IdentificationError."""
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        raise IdentificationError(f"{what} is singular") from None


def two_stage_least_squares(system: MomentSystem) -> LinearIVResult:
    """Classic 2SLS with individual-clustered sandwich covariance.

    When overidentified, the Hansen J statistic is computed at the efficient
    two-step linear GMM point (weight = inverse clustered moment covariance
    evaluated at the 2SLS residuals), so its null distribution is the usual
    chi-squared with (instruments - parameters) degrees of freedom.

    The instrument basis Q is block-diagonal like the instruments: each
    distinct block array has one pivoted QR, and the pieces Q'Ws, Q'y and
    R'Q'Ws are stacked block by block in column order.
    """
    y = system.dependent
    W = system.regressors
    blocks = system.instrument_blocks
    # One scale and one QR per distinct block array: orders built on one pair share it.
    distinct = list({id(Z): Z for Z in blocks}.values())
    *z_scales, dW, _ = _finite_column_scales(
        "instruments, regressors or dependent variable", *distinct, W, y
    )
    n, p = W.shape
    if n < p:
        raise InsufficientObservationsError(f"{n} rows for {p} parameters")

    bases = {}  # id of a block array -> (Q, R11)
    for Z, scale in zip(distinct, z_scales):
        # RMS over all n rows, as in the dense matrix: every column has norm
        # sqrt(n), so pivots and the rank threshold match one QR of it.
        Q, R, _ = _pivoted_qr(Z, scale * math.sqrt(Z.shape[0] / n), "economic")
        # The first rank columns of Q are an orthonormal basis of the kept columns' span.
        bases[id(Z)] = Q[:, : R.shape[0]], R

    parts = []  # per block: rows, Q, Q'Ws, Q'y, R'Q'Ws, with Ws = W / dW
    r0 = 0
    for Z in blocks:
        rows = slice(r0, r0 + Z.shape[0])
        r0 = rows.stop
        Q, R = bases[id(Z)]
        QtW_b = (Q.T @ W[rows]) / dW  # scaling the q x p product, not an n x p copy of W
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
    u = y - W @ estimates

    Gc = _block_cluster_sums(system.cluster, block_rows, Qs, u)  # moments in the Q basis
    # Sandwich A^-1 H'H A^-1 = M M' with bread A = QtW'QtW, meat rows H = Gc QtW
    # and M = A^-1 QtW' Gc': the solve takes q right-hand sides, not one per cluster.
    M = np.linalg.solve(QtW.T @ QtW, QtW.T) @ Gc.T
    covariance = (M @ M.T) / np.outer(dW, dW)

    j_stat = None
    if q > p:
        # J does not change under a nonsingular change of instrument basis, and
        # the 1/n factors of the moments and of their covariance S cancel in it.
        S_solve = _spd_solver(Gc.T @ Gc)
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
        n_clusters=Gc.shape[0],
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
    r-transformed linear system.
    """
    n = system.n_rows
    dep, X = system.shared_linear_parts(r)
    G = Zw.T @ X / n
    gd = Zw.T @ dep / n
    theta = _nonsingular_solve(G.T @ (Wmat @ G), G.T @ (Wmat @ gd),
                               f"the linear block's GMM matrix at r = {r:.6g}")
    gbar = gd - G @ theta
    return theta, float(gbar @ (Wmat @ gbar)), gbar


def nonlinear_gmm(system: NonlinearMomentSystem) -> NonlinearGMMResult:
    """Two-step GMM for the factor-loading system.

    The criterion is linear in (beta, a, b) at fixed loadings ratio r, so the
    outer problem is a one-dimensional search in log r (coarse grid, then
    golden section, then one quadratic-interpolation refinement) with a
    closed-form inner solve. Step one weights with the identity on whitened
    instruments (equivalent to 2SLS); step two reweights with the inverse
    clustered moment covariance from step one.
    """
    # The model parts at r = 1 stand for those at every r in the bracket.
    with np.errstate(over="ignore", invalid="ignore"):
        parts = system.shared_linear_parts(1.0)
    _finite_column_scales("instruments or model parts", system.instruments, *parts)
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
    identity = np.eye(q)
    r1, _ = _search(identity)
    theta_lin1, _, _ = concentrated_linear_solve(system, r1, Zw, identity)

    def _full_theta(r, theta_lin):
        return np.concatenate([theta_lin[:K], [r], theta_lin[K:]])

    clusters = _Clusters(system.cluster)

    def _clustered_S(theta_full):
        xi = system.residuals(theta_full)
        Hc = clusters.sums(Zw * xi[:, None])
        return Hc.T @ Hc / n

    # step 2: efficient weighting
    S1 = _clustered_S(_full_theta(r1, theta_lin1))
    W2 = _spd_solver(S1)(np.eye(q))
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
    try:
        bread = np.linalg.inv(GW @ G)
    except np.linalg.LinAlgError:
        raise IdentificationError("the moment Jacobian's GMM matrix is singular") from None
    meat = GW @ S @ GW.T
    covariance = bread @ meat @ bread / n
    covariance = 0.5 * (covariance + covariance.T)

    grad = 2.0 * GW @ gbar
    j_stat = float(n * gbar @ _spd_solver(S)(gbar)) if q > p else None

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
