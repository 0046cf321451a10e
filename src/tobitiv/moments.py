"""Estimating-equation construction for censored panels.

Each builder turns an observed dataset into stacked rows

    dependent = regressors' theta + xi,   E[instrument * xi | selection] = 0,

keeping only cells/pairs/triples whose observed outcomes are strictly
positive. On that selection event the observed outcome equals the latent one,
which is what makes the latent-variable identities estimable; builders only
ever touch observed fields.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy import linalg as sla

from .errors import ConfigurationError, DomainError, EmptySystemError
from .simulate import PanelDataset

# Display name of each parameter kind from its indices. dvar (t, s) is
# sigma_t^2 - sigma_ts and dvar_ref (t, tau) is sigma_t^2 - sigma_tau^2.
_PARAM_NAMES = {
    "beta": "beta{}".format,  # (k,)
    "sigma2": "sigma2".format,
    "sigma2_t": "sigma2_t{}".format,  # (t,)
    "dvar": lambda t, s: f"dvar{t}_{min(t, s)}{max(t, s)}",
    "dvar_ref": "dvar{}_ref{}".format,
    "cov": "cov_{}{}".format,  # (lo, hi)
    "r": "r_{}{}".format,  # r, a, b: the factor-loading parameters of the pair (t, s)
    "a": "a_{}{}".format,
    "b": "b_{}{}".format,
}


@dataclass(frozen=True)
class Param:
    """One structural parameter: its kind and the regressor or periods it refers to."""

    kind: str
    indices: tuple = ()

    def __post_init__(self):
        if self.kind not in _PARAM_NAMES:
            raise ValueError(f"unknown parameter kind {self.kind!r}")

    @property
    def name(self) -> str:
        return _PARAM_NAMES[self.kind](*self.indices)


@dataclass
class MomentSystem:
    """Linear-in-parameters stacked estimating equations.

    The instrument matrix is block-diagonal: `instrument_blocks` holds its
    row blocks in row order, each with its own columns. A built system has
    one block; `stack_systems` keeps one per source system.
    """

    dependent: np.ndarray  # (n,)
    regressors: np.ndarray  # (n, p)
    instrument_blocks: list  # (n_b, q_b) per row block; the n_b sum to n
    cluster: np.ndarray  # (n,) individual index
    params: list  # Param per regressor column
    periods: np.ndarray  # (n, #referenced periods)

    def __post_init__(self):
        n = self.dependent.shape[0]
        assert self.regressors.shape[0] == n
        assert sum(Z.shape[0] for Z in self.instrument_blocks) == n
        assert self.regressors.shape[1] == len(self.params)

    @property
    def instruments(self) -> np.ndarray:
        """The dense (n, q) instrument matrix, zeros off the diagonal blocks."""
        blocks = self.instrument_blocks
        return blocks[0] if len(blocks) == 1 else sla.block_diag(*blocks)

    @property
    def param_names(self) -> list:
        return [p.name for p in self.params]

    @property
    def n_rows(self) -> int:
        return self.dependent.shape[0]

    def residuals(self, theta: np.ndarray) -> np.ndarray:
        return self.dependent - self.regressors @ np.asarray(theta)


@dataclass
class NonlinearMomentSystem:
    """Factor-loading estimating equation, nonlinear in the loadings ratio r.

    Residual for parameter vector theta = (beta, r, a, b):

        y_t^2 y_s - r y_s^2 y_t - y_t y_s (x_t - r x_s)' beta + y_t a - y_s b

    where a = sigma_s^2 r - sigma_ts and b = sigma_t^2 - sigma_ts r. Given r
    the residual is linear in (beta, a, b), which the solver exploits.
    """

    y_t: np.ndarray
    y_s: np.ndarray
    x_t: np.ndarray  # (n, K)
    x_s: np.ndarray
    instruments: np.ndarray
    cluster: np.ndarray
    params: list  # beta..., r, a, b

    @property
    def param_names(self) -> list:
        return [p.name for p in self.params]

    @property
    def n_rows(self) -> int:
        return self.y_t.shape[0]

    @cached_property
    def _r_free_parts(self):
        """y_t^2 y_s, y_s^2, y_t y_s, and the regressor buffer with its fixed
        columns (-y_t, y_s) filled: everything in `linear_parts` but r."""
        K = self.x_t.shape[1]
        X = np.empty((self.n_rows, K + 2))
        X[:, K] = -self.y_t
        X[:, K + 1] = self.y_s
        return self.y_t**2 * self.y_s, self.y_s**2, self.y_t * self.y_s, X

    def shared_linear_parts(self, r: float):
        """`linear_parts` with X in a buffer that the next call overwrites."""
        cubic, ys2, yy, X = self._r_free_parts
        np.multiply(yy[:, None], self.x_t - r * self.x_s, out=X[:, : self.x_t.shape[1]])
        return cubic - r * ys2 * self.y_t, X

    def linear_parts(self, r: float):
        """Dependent and regressors of the model at fixed r, params (beta, a, b)."""
        dep, X = self.shared_linear_parts(r)
        return dep, X.copy()

    def residuals(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        K = self.x_t.shape[1]
        beta, r, a, b = theta[:K], theta[K], theta[K + 1], theta[K + 2]
        dep, X = self.shared_linear_parts(r)
        return dep - X @ np.concatenate([beta, [a, b]])


def default_instruments(
    x_t: np.ndarray,
    x_s: np.ndarray,
    z_t: Optional[np.ndarray] = None,
    z_s: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Default pairwise instrument set: functions of exogenous variables only.

    Columns: constant, x_t, x_s, x_t - x_s, (x_t - x_s)^2 elementwise, and
    when z is present z_t, z_s, z_t z_s, z_t^2, z_s^2.
    """
    x_t = np.atleast_2d(x_t)
    x_s = np.atleast_2d(x_s)
    diff = x_t - x_s
    cols = [np.ones((x_t.shape[0], 1)), x_t, x_s, diff, diff**2]
    if z_t is not None:
        cols += [
            z_t[:, None],
            z_s[:, None],
            (z_t * z_s)[:, None],
            (z_t**2)[:, None],
            (z_s**2)[:, None],
        ]
    return np.hstack(cols)


def cross_section_instruments(x: np.ndarray) -> np.ndarray:
    """Cell-wise instrument set: constant, x, x^2 elementwise."""
    x = np.atleast_2d(x)
    return np.hstack([np.ones((x.shape[0], 1)), x, x**2])


def _as_cols(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a[:, None] if a.ndim == 1 else a


def levels_squares_instruments(*groups: np.ndarray) -> np.ndarray:
    """Constant plus levels and elementwise squares of each column group.

    A difference-free alternative to `default_instruments` for designs in
    which the (x_t - x_s) columns are weakly correlated with the endogenous
    regressors. When exactly two single-column groups follow the x blocks
    (e.g. z_t, z_s) their cross product is appended as well.
    """
    gs = [_as_cols(g) for g in groups]
    cols = [np.ones((gs[0].shape[0], 1))] + gs + [g**2 for g in gs]
    if len(gs) >= 4 and gs[-1].shape[1] == 1 and gs[-2].shape[1] == 1:
        cols.append(gs[-2] * gs[-1])
    return np.hstack(cols)


def pair_product_instruments(x_t: np.ndarray, x_s: np.ndarray) -> np.ndarray:
    """Levels, squares, and cross products of two regressor blocks.

    The cross products x_t[:, j] * x_s[:, k] give the nonlinear system
    enough overidentification to pin down the loadings ratio even with a
    single regressor, where the default set is just-identified.
    """
    x_t, x_s = _as_cols(x_t), _as_cols(x_s)
    prods = [
        (x_t[:, j] * x_s[:, k])[:, None]
        for j in range(x_t.shape[1])
        for k in range(x_s.shape[1])
    ]
    cols = [np.ones((x_t.shape[0], 1)), x_t, x_s, x_t**2, x_s**2] + prods
    return np.hstack(cols)


def censored_index_instruments(x: np.ndarray) -> np.ndarray:
    """Triple-system instruments built from a censored-index proxy.

    For each of the three periods form h_t = max(0, x_t'c + xbar'c), where
    xbar is the within-individual period mean of x and c is a vector of ones.
    The proxy column sum_cyc h_t h_s (x_t - x_s) mimics the endogenous
    cyclic regressor of the triple systems while remaining a pure function
    of x; it is what makes those systems strongly identified in practice.
    The products h_t h_s of each cyclic pair follow as columns of their own.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[1] != 3:
        raise DomainError(f"expected x of shape (n, 3, K), got {x.shape}")
    n, _, K = x.shape
    index = x @ np.ones(K)  # (n, 3)
    h = np.maximum(0.0, index + index.mean(axis=1, keepdims=True))
    cyc = [(0, 1), (1, 2), (2, 0)]
    proxy = np.zeros((n, K))
    for t, s in cyc:
        proxy += (h[:, t] * h[:, s])[:, None] * (x[:, t, :] - x[:, s, :])
    cols = [np.ones((n, 1)), proxy, x[:, 0, :], x[:, 1, :], x[:, 2, :]]
    cols += [(h[:, t] * h[:, s])[:, None] for t, s in cyc]
    return np.hstack(cols)


# Instrument sets by system shape and kind. Cell sets take x; pair sets take
# (x_t, x_s), plus (z_t, z_s) in the slope-effect design; triple sets take x
# of shape (n, T, K) and p = (t, s, tau). Each entry looks its set function
# up at call time, so rebinding a module-level name takes effect.
INSTRUMENT_SETS = {
    "cell": {"default": lambda x: cross_section_instruments(x)},
    "pair": {
        "default": lambda x_t, x_s, *z: default_instruments(x_t, x_s, *z),
        "levels_squares": lambda x_t, x_s, *z: levels_squares_instruments(x_t, x_s, *z),
        "products": lambda x_t, x_s, *z: pair_product_instruments(x_t, x_s),
    },
    "triple": {
        "default": lambda x, *p: _triple_instruments(x, *p),
        "index_proxy": lambda x, *p: censored_index_instruments(x[:, list(p), :]),
        "levels_squares": lambda x, *p: levels_squares_instruments(*(x[:, t, :] for t in p)),
    },
}


def instrument_set(shape: str, kind: str):
    """The instrument-set function of this kind for a cell, pair or triple system."""
    sets = INSTRUMENT_SETS[shape]
    if not isinstance(kind, str) or kind not in sets:
        raise ConfigurationError(
            f"unknown {shape} instrument set {kind!r}; expected one of {sorted(sets)}",
            field="instruments",
        )
    return sets[kind]


def _beta_params(K: int) -> list:
    return [Param("beta", (k,)) for k in range(K)]


def _require_rows(mask: np.ndarray, what: str) -> np.ndarray:
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise EmptySystemError(f"no qualifying {what}")
    return idx


def build_cross_section(
    dataset: PanelDataset, k: int = 1, instruments: str = "default"
) -> MomentSystem:
    """Cell-wise moment rows y^{k+1} = (y^k x') beta + (k y^{k-1}) sigma2 + xi.

    Treats every (i, t) cell with y > 0 as an observation; ignores any
    individual effect (this is exactly what makes it a biased benchmark on
    fixed-effects data).
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    N, T = dataset.y.shape
    K = dataset.n_regressors
    y = dataset.y.ravel()
    x = dataset.x.reshape(N * T, K)
    idx = _require_rows(y > 0.0, "cells with positive outcome")
    y, x = y[idx], x[idx]
    dep = y ** (k + 1)
    reg = np.column_stack([(y**k)[:, None] * x, k * y ** (k - 1)])
    return MomentSystem(
        dependent=dep,
        regressors=reg,
        instrument_blocks=[instrument_set("cell", instruments)(x)],
        cluster=idx // T,
        params=_beta_params(K) + [Param("sigma2")],
        periods=(idx % T)[:, None],
    )


def _pair_arrays(dataset: PanelDataset, t: int, s: int):
    if t == s:
        raise DomainError(f"periods must differ, got t = s = {t}")
    y_t, y_s = dataset.y[:, t], dataset.y[:, s]
    idx = _require_rows((y_t > 0.0) & (y_s > 0.0), f"pairs for periods ({t}, {s})")
    return idx, y_t[idx], y_s[idx], dataset.x[idx, t, :], dataset.x[idx, s, :]


def build_pairwise_independent(
    dataset: PanelDataset, t: int, s: int, instruments: str = "default"
) -> MomentSystem:
    """The k = m = 1 nonstationary rows under errors independent over time.

    y_t^2 y_s - y_s^2 y_t = y_t y_s (x_t - x_s)' beta + y_s sigma_t^2
                            - y_t sigma_s^2 + xi.
    """
    system = build_pairwise_nonstationary(dataset, t, s, instruments=instruments)
    system.params[-2:] = [Param("sigma2_t", (t,)), Param("sigma2_t", (s,))]
    return system


def build_pairwise_nonstationary(
    dataset: PanelDataset, t: int, s: int, k: int = 1, m: int = 1, instruments: str = "default"
) -> MomentSystem:
    """Pairwise rows valid under arbitrary within-pair error dependence.

    y_t^{k+1} y_s^m - y_s^{m+1} y_t^k
        = y_t^k y_s^m (x_t - x_s)' beta
          + k y_t^{k-1} y_s^m (sigma_t^2 - sigma_ts)
          - m y_s^{m-1} y_t^k (sigma_s^2 - sigma_ts) + xi

    Only the variance differences d_t = sigma_t^2 - sigma_ts and
    d_s = sigma_s^2 - sigma_ts are identified.
    """
    if k < 1 or m < 1:
        raise DomainError(f"k and m must be >= 1, got k={k}, m={m}")
    idx, y_t, y_s, x_t, x_s = _pair_arrays(dataset, t, s)
    dep = y_t ** (k + 1) * y_s**m - y_s ** (m + 1) * y_t**k
    reg = np.column_stack(
        [
            (y_t**k * y_s**m)[:, None] * (x_t - x_s),
            k * y_t ** (k - 1) * y_s**m,
            -m * y_s ** (m - 1) * y_t**k,
        ]
    )
    return MomentSystem(
        dependent=dep,
        regressors=reg,
        instrument_blocks=[instrument_set("pair", instruments)(x_t, x_s)],
        cluster=idx,
        params=_beta_params(x_t.shape[1]) + [Param("dvar", (t, s)), Param("dvar", (s, t))],
        periods=np.broadcast_to([t, s], (idx.size, 2)).copy(),
    )


def build_factor_loading(
    dataset: PanelDataset, t: int, s: int, instruments: str = "default"
) -> NonlinearMomentSystem:
    """Nonlinear system identifying the loadings ratio r = rho_t / rho_s."""
    idx, y_t, y_s, x_t, x_s = _pair_arrays(dataset, t, s)
    return NonlinearMomentSystem(
        y_t=y_t,
        y_s=y_s,
        x_t=x_t,
        x_s=x_s,
        instruments=instrument_set("pair", instruments)(x_t, x_s),
        cluster=idx,
        params=_beta_params(x_t.shape[1]) + [Param(kind, (t, s)) for kind in "rab"],
    )


def _triple_arrays(dataset: PanelDataset, t: int, s: int, tau: int):
    if len({t, s, tau}) != 3:
        raise DomainError(f"periods must be distinct, got ({t}, {s}, {tau})")
    y = dataset.y
    idx = _require_rows(
        (y[:, t] > 0.0) & (y[:, s] > 0.0) & (y[:, tau] > 0.0),
        f"triples for periods ({t}, {s}, {tau})",
    )
    return idx, y[idx, t], y[idx, s], y[idx, tau], dataset.x[idx]


def _cyclic_parts(y_t, y_s, y_tau, x, t, s, tau):
    dep = (
        (y_t**2 * y_s - y_s**2 * y_t)
        + (y_s**2 * y_tau - y_tau**2 * y_s)
        + (y_tau**2 * y_t - y_t**2 * y_tau)
    )
    beta_block = (
        (y_t * y_s)[:, None] * (x[:, t, :] - x[:, s, :])
        + (y_s * y_tau)[:, None] * (x[:, s, :] - x[:, tau, :])
        + (y_tau * y_t)[:, None] * (x[:, tau, :] - x[:, t, :])
    )
    return dep, beta_block


def _triple_instruments(x, t, s, tau):
    return np.hstack(
        [
            default_instruments(x[:, t, :], x[:, s, :]),
            default_instruments(x[:, s, :], x[:, tau, :])[:, 1:],
            default_instruments(x[:, tau, :], x[:, t, :])[:, 1:],
        ]
    )


def build_triple_variance_fe(
    dataset: PanelDataset, t: int, s: int, tau: int, instruments: str = "default"
) -> MomentSystem:
    """Triple-difference rows in which individual-specific variances cancel."""
    idx, y_t, y_s, y_tau, x = _triple_arrays(dataset, t, s, tau)
    dep, beta_block = _cyclic_parts(y_t, y_s, y_tau, x, t, s, tau)
    return MomentSystem(
        dependent=dep,
        regressors=beta_block,
        instrument_blocks=[instrument_set("triple", instruments)(x, t, s, tau)],
        cluster=idx,
        params=_beta_params(x.shape[2]),
        periods=np.broadcast_to([t, s, tau], (idx.size, 3)).copy(),
    )


def additive_variance_regressors(y_t, y_s, y_tau) -> np.ndarray:
    """The three raw time-variance regressors of the additive-variance rows.

    They sum to zero identically, so only two contrasts are estimable; kept
    as a separate helper for the cancellation tests.
    """
    return np.column_stack([y_tau - y_t, y_s - y_tau, y_t - y_s])


def build_triple_additive_variance(
    dataset: PanelDataset, t: int, s: int, tau: int, instruments: str = "default"
) -> MomentSystem:
    """Triple rows for variances sigma_i^2 + sigma_t^2; sigma_i^2 cancels.

    The three raw regressors (y_tau - y_t, y_s - y_tau, y_t - y_s) for
    (sigma_s^2, sigma_t^2, sigma_tau^2) are exactly collinear, so the level
    of the time components is absorbed into sigma_i^2 and sigma_tau^2 = 0 is
    imposed as the normalization. The reported parameters are the contrasts
    sigma_s^2 - sigma_tau^2 and sigma_t^2 - sigma_tau^2.
    """
    idx, y_t, y_s, y_tau, x = _triple_arrays(dataset, t, s, tau)
    dep, beta_block = _cyclic_parts(y_t, y_s, y_tau, x, t, s, tau)
    raw = additive_variance_regressors(y_t, y_s, y_tau)
    reg = np.column_stack([beta_block, raw[:, 0], raw[:, 1]])
    return MomentSystem(
        dependent=dep,
        regressors=reg,
        instrument_blocks=[instrument_set("triple", instruments)(x, t, s, tau)],
        cluster=idx,
        params=_beta_params(x.shape[2])
        + [Param("dvar_ref", (s, tau)), Param("dvar_ref", (t, tau))],
        periods=np.broadcast_to([t, s, tau], (idx.size, 3)).copy(),
    )


def build_pairwise_slope_fe(
    dataset: PanelDataset, t: int, s: int, instruments: str = "default"
) -> MomentSystem:
    """Pairwise rows for individual effects entering through slopes on z."""
    if dataset.z is None:
        raise DomainError("dataset has no z variable")
    idx, y_t, y_s, x_t, x_s = _pair_arrays(dataset, t, s)
    z_t, z_s = dataset.z[idx, t], dataset.z[idx, s]
    if np.any(z_t <= 0.0) or np.any(z_s <= 0.0):
        raise DomainError("slope-effect rows require z > 0 in both periods")
    dep = y_t**2 * z_s**2 * y_s * z_t - y_s**2 * z_t**2 * y_t * z_s
    beta_block = (y_t * z_s * y_s * z_t)[:, None] * (
        x_t * z_s[:, None] - x_s * z_t[:, None]
    )
    reg = np.column_stack(
        [
            beta_block,
            y_s * z_t * z_s**2,  # sigma_t^2
            -y_t * z_s * z_t**2,  # sigma_s^2
            z_t * z_s * (y_t * z_s - y_s * z_t),  # sigma_ts
        ]
    )
    return MomentSystem(
        dependent=dep,
        regressors=reg,
        instrument_blocks=[instrument_set("pair", instruments)(x_t, x_s, z_t, z_s)],
        cluster=idx,
        params=_beta_params(x_t.shape[1])
        + [Param("sigma2_t", (t,)), Param("sigma2_t", (s,))]
        + [Param("cov", (min(t, s), max(t, s)))],
        periods=np.broadcast_to([t, s], (idx.size, 2)).copy(),
    )


def stack_systems(systems: Sequence[MomentSystem]) -> MomentSystem:
    """Stack several linear systems, sharing equal parameters.

    Rows keep their original cluster ids, so pairs from one individual stay
    in one cluster. Each source system's orthogonality conditions stay
    separate: the stacked instrument matrix is block-diagonal, and its blocks
    are the sources' own block arrays, listed in row order and never copied
    into a zero-padded matrix.
    """
    if not systems:
        raise EmptySystemError("no systems to stack")
    if len(systems) == 1:
        return systems[0]
    params = list(dict.fromkeys(p for sys_ in systems for p in sys_.params))
    column = {p: j for j, p in enumerate(params)}
    n_total = sum(s.n_rows for s in systems)
    max_periods = max(s.periods.shape[1] for s in systems)
    reg = np.zeros((n_total, len(params)))
    periods = np.full((n_total, max_periods), -1, dtype=int)
    dep = np.concatenate([s.dependent for s in systems])
    cluster = np.concatenate([s.cluster for s in systems])
    r0 = 0
    for sys_ in systems:
        cols = [column[p] for p in sys_.params]
        reg[r0 : r0 + sys_.n_rows, cols] = sys_.regressors
        periods[r0 : r0 + sys_.n_rows, : sys_.periods.shape[1]] = sys_.periods
        r0 += sys_.n_rows
    return MomentSystem(
        dependent=dep,
        regressors=reg,
        instrument_blocks=[Z for sys_ in systems for Z in sys_.instrument_blocks],
        cluster=cluster,
        params=params,
        periods=periods,
    )


def all_pairs(n_periods: int) -> list:
    return [(t, s) for t in range(n_periods) for s in range(t + 1, n_periods)]


def system_to_csv(system: MomentSystem, path: str) -> None:
    """Export rows for external solver cross-checks."""
    inst = system.instruments
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = (
            ["individual"]
            + [f"period{j}" for j in range(system.periods.shape[1])]
            + ["dependent"]
            + [f"reg_{nm}" for nm in system.param_names]
            + [f"inst{j}" for j in range(inst.shape[1])]
        )
        writer.writerow(header)
        for i in range(system.n_rows):
            row = (
                [int(system.cluster[i])]
                + [int(p) for p in system.periods[i]]
                + [f"{system.dependent[i]:.17g}"]
                + [f"{v:.17g}" for v in system.regressors[i]]
                + [f"{v:.17g}" for v in inst[i]]
            )
            writer.writerow(row)
