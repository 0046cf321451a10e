"""Estimating-equation construction for censored panels.

Each builder turns an observed dataset into stacked rows

    dependent = regressors' theta + xi,   E[instrument * xi | selection] = 0,

keeping only cells/pairs/triples whose observed outcomes are strictly
positive. On that selection event the observed outcome equals the latent one,
which is what makes the latent-variable identities estimable; builders only
ever touch observed fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, EmptySystemError
from .simulate import PanelConfig, PanelDataset, is_int


def _ratio(config, t, s):
    return config.factor_loadings[t] / config.factor_loadings[s]


# Each parameter kind: its display name and its population value under a
# panel config, both from its indices. dvar (t, s) is sigma_t^2 - sigma_ts,
# dvar_ref (t, tau) is sigma_t^2 - sigma_tau^2, and r, a, b are the
# factor-loading parameters of the pair (t, s).
_PARAM_KINDS = {
    "beta": ("beta{}".format, lambda c, k: c.beta[k]),  # (k,)
    "sigma2": ("sigma2".format, lambda c: c.error_cov[0][0]),
    "sigma2_t": ("sigma2_t{}".format, lambda c, t: c.error_cov[t][t]),  # (t,)
    "dvar": (lambda t, s: f"dvar{t}_{min(t, s)}{max(t, s)}",
             lambda c, t, s: c.error_cov[t][t] - c.error_cov[t][s]),
    "dvar_ref": ("dvar{}_ref{}".format,
                 lambda c, t, tau: c.error_cov[t][t] - c.error_cov[tau][tau]),
    "cov": ("cov_{}{}".format, lambda c, t, s: c.error_cov[t][s]),  # (lo, hi)
    "r": ("r_{}{}".format, _ratio),
    "a": ("a_{}{}".format,
          lambda c, t, s: c.error_cov[s][s] * _ratio(c, t, s) - c.error_cov[t][s]),
    "b": ("b_{}{}".format,
          lambda c, t, s: c.error_cov[t][t] - c.error_cov[t][s] * _ratio(c, t, s)),
}


@dataclass(frozen=True)
class Param:
    """One structural parameter: its kind and the regressor or periods it refers to."""

    kind: str
    indices: tuple = ()

    def __post_init__(self):
        if self.kind not in _PARAM_KINDS:
            raise ValueError(f"unknown parameter kind {self.kind!r}")

    @property
    def name(self) -> str:
        return _PARAM_KINDS[self.kind][0](*self.indices)

    def truth(self, config: PanelConfig) -> float:
        """The parameter's population value under the panel config."""
        return _PARAM_KINDS[self.kind][1](config, *self.indices)


@dataclass
class MomentSystem:
    """Linear-in-parameters stacked estimating equations.

    Regressors and instruments share one layout of row blocks:
    `regressor_blocks` and `instrument_blocks` hold the same blocks in row
    order, and `regressor_columns` gives, per block, the position in `params`
    of each of its regressor columns; the regressor matrix is zero outside
    them, and the instrument matrix is block-diagonal. A built system has one
    block that covers every parameter; `stack_systems` keeps one per source.
    """

    dependent: np.ndarray  # (n,)
    regressor_blocks: list  # (n_b, p_b) per row block; the n_b sum to n
    regressor_columns: list  # int array (p_b,) per block: its columns in params
    instrument_blocks: list  # (n_b, q_b) per row block
    cluster: np.ndarray  # (n,) individual index
    params: list  # Param per parameter

    def __post_init__(self):
        """DomainError naming the first block, or the list, that breaks the layout."""
        blocks = (self.regressor_blocks, self.regressor_columns, self.instrument_blocks)
        if len(set(map(len, blocks))) > 1:
            raise DomainError("regressor blocks, regressor columns and instrument blocks "
                              f"must be as many, got {tuple(map(len, blocks))}")
        for b, (W, cols, Z) in enumerate(zip(*blocks)):
            if W.shape != (Z.shape[0], len(cols)):
                raise DomainError(f"regressor block {b} has shape {W.shape}, but its instrument "
                                  f"block has {Z.shape[0]} rows and it has {len(cols)} column "
                                  "indices")
            if not all(0 <= j < len(self.params) for j in cols):
                raise DomainError(f"regressor block {b}'s columns {list(map(int, cols))} are "
                                  f"not all in [0, {len(self.params)})")
        n_rows = sum(Z.shape[0] for Z in self.instrument_blocks)
        if n_rows != self.dependent.shape[0]:
            raise DomainError(f"the blocks hold {n_rows} rows, but the dependent holds "
                              f"{self.dependent.shape[0]}")

    @classmethod
    def one_block(cls, dependent, regressors, instruments, cluster, params) -> "MomentSystem":
        """A system of one row block whose regressor columns are `params` in order."""
        return cls(dependent, [regressors], [np.arange(len(params))], [instruments],
                   cluster, params)

    @property
    def instruments(self) -> np.ndarray:
        """The dense (n, q) instrument matrix, zeros off the diagonal blocks."""
        blocks = self.instrument_blocks
        if len(blocks) == 1:
            return blocks[0]
        rows, cols = np.cumsum([(0, 0), *(Z.shape for Z in blocks)], axis=0).T
        dense = np.zeros((rows[-1], cols[-1]), np.result_type(*blocks))
        for Z, r, c in zip(blocks, rows, cols):
            dense[r:r + Z.shape[0], c:c + Z.shape[1]] = Z
        return dense

    @property
    def param_names(self) -> list:
        return [p.name for p in self.params]

    @property
    def n_rows(self) -> int:
        return self.dependent.shape[0]

    def residuals(self, theta: np.ndarray) -> np.ndarray:
        """dependent - regressors @ theta, each block's rows from its own columns."""
        theta = np.asarray(theta)
        return self.dependent - np.concatenate(
            [W @ theta[cols] for W, cols in zip(self.regressor_blocks, self.regressor_columns)])


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
        """y_t^2 y_s, y_s^2, y_t y_s as a column, and buffers for dep, x_t - r x_s and X,
        X's fixed columns (-y_t, y_s) filled: everything in `linear_parts` but r."""
        K = self.x_t.shape[1]
        X = np.empty((self.n_rows, K + 2))
        X[:, K] = -self.y_t
        X[:, K + 1] = self.y_s
        return (self.y_t**2 * self.y_s, self.y_s**2, (self.y_t * self.y_s)[:, None],
                np.empty(self.n_rows), np.empty((self.n_rows, K)), X)

    def shared_linear_parts(self, r: float):
        """`linear_parts` in buffers that the next call overwrites: the same
        operations in the same order, with no n-sized temporary."""
        cubic, ys2, yy, dep, dx, X = self._r_free_parts
        np.subtract(self.x_t, np.multiply(r, self.x_s, out=dx), out=dx)
        np.multiply(yy, dx, out=X[:, : dx.shape[1]])
        np.multiply(np.multiply(r, ys2, out=dep), self.y_t, out=dep)
        return np.subtract(cubic, dep, out=dep), X

    def linear_parts(self, r: float):
        """Dependent and regressors of the model at fixed r, params (beta, a, b)."""
        dep, X = self.shared_linear_parts(r)
        return dep.copy(), X.copy()

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
    x_t, x_s = _as_cols(x_t), _as_cols(x_s)
    diff = x_t - x_s
    cols = [np.ones((x_t.shape[0], 1)), x_t, x_s, diff, diff**2]
    if z_t is not None:
        cols += [z[:, None] for z in (z_t, z_s, z_t * z_s, z_t**2, z_s**2)]
    return np.hstack(cols)


def _as_cols(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a[:, None] if a.ndim == 1 else a


def levels_squares_instruments(*groups: np.ndarray) -> np.ndarray:
    """Constant plus levels and elementwise squares of each column group.

    A difference-free alternative to `default_instruments` for designs in
    which the (x_t - x_s) columns are weakly correlated with the endogenous
    regressors. When exactly two single-column groups follow the x blocks
    (e.g. z_t, z_s) their cross product is appended as well. Of x alone it
    is the cross-section's cell set.
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
    prods = [(x_t[:, j] * x_s[:, k])[:, None]
             for j in range(x_t.shape[1]) for k in range(x_s.shape[1])]
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
    "cell": {"default": lambda x: levels_squares_instruments(x)},
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
    if not (is_int(k) and k >= 1):
        raise DomainError(f"k must be an integer >= 1, got {k!r}")
    N, T = dataset.y.shape
    K = dataset.n_regressors
    y = dataset.y.ravel()
    x = dataset.x.reshape(N * T, K)
    idx = _require_rows(y > 0.0, "cells with positive outcome")
    y, x = y[idx], x[idx]
    dep = y ** (k + 1)
    reg = np.column_stack([(y**k)[:, None] * x, k * y ** (k - 1)])
    return MomentSystem.one_block(
        dep, reg, instrument_set("cell", instruments)(x), idx // T,
        _beta_params(K) + [Param("sigma2")],
    )


def are_periods(periods, n_periods: int) -> bool:
    """True for distinct integer periods in [0, n_periods): the rule for the
    periods of a pair or a triple, in the builders and in `EstimatorSpec`."""
    return (all(is_int(p) and 0 <= p < n_periods for p in periods)
            and len(set(periods)) == len(periods))


def is_order(o) -> bool:
    """True for an order (k, m) of two integers >= 1: the rule for the orders of
    pairwise rows, in the builders and, bounded by MAX_TOTAL_ORDER, in `EstimatorSpec`."""
    return isinstance(o, (list, tuple)) and len(o) == 2 and all(is_int(v) and v >= 1 for v in o)


def _positive_rows(dataset: PanelDataset, what: str, *periods):
    """The individuals positive in each of the periods, and their outcomes in each."""
    T = dataset.n_periods
    if not are_periods(periods, T):
        raise DomainError(f"periods must be distinct integers in [0, {T}), got {periods}")
    positive = np.all(dataset.y[:, list(periods)] > 0.0, axis=1)
    idx = _require_rows(positive, f"{what} for periods {tuple(map(int, periods))}")
    return (idx, *(dataset.y[idx, p] for p in periods))


def _pair_arrays(dataset: PanelDataset, t: int, s: int):
    idx, y_t, y_s = _positive_rows(dataset, "pairs", t, s)
    return idx, y_t, y_s, dataset.x[idx, t, :], dataset.x[idx, s, :]


def _pair_row(y_t, y_s, x_t, x_s, k: int, m: int):
    """The terms of the pairwise identity (`build_pairwise_nonstationary`) at
    order (k, m): its dependent, its beta block, and its d_t and d_s columns."""
    dep = y_t ** (k + 1) * y_s**m - y_s ** (m + 1) * y_t**k
    beta_block = (y_t**k * y_s**m)[:, None] * (x_t - x_s)
    return dep, beta_block, k * y_t ** (k - 1) * y_s**m, -m * y_s ** (m - 1) * y_t**k


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
    (system,) = build_pairwise_nonstationary_orders(dataset, t, s, [(k, m)], instruments)
    return system


def build_pairwise_nonstationary_orders(
    dataset: PanelDataset, t: int, s: int, orders, instruments: str = "default"
) -> list:
    """`build_pairwise_nonstationary` at each order (k, m), one system per order.

    The rows of a pair are the same at every order, so its instrument set is
    built once and every system holds that one array as its block; 2SLS then
    factorises it once for all of them.
    """
    if not (isinstance(orders, (list, tuple)) and all(map(is_order, orders))):
        raise DomainError(f"orders must be a list of (k, m), two integers >= 1, got {orders!r}")
    idx, y_t, y_s, x_t, x_s = _pair_arrays(dataset, t, s)
    Z = instrument_set("pair", instruments)(x_t, x_s)
    params = _beta_params(x_t.shape[1]) + [Param("dvar", (t, s)), Param("dvar", (s, t))]
    systems = []
    for k, m in orders:
        dep, *reg = _pair_row(y_t, y_s, x_t, x_s, k, m)
        # Each its own params list: build_pairwise_independent renames two.
        systems.append(MomentSystem.one_block(dep, np.column_stack(reg), Z, idx, list(params)))
    return systems


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


def _cyclic_parts(y, x, periods):
    """The dependent and beta block of a triple: its k = m = 1 pair rows summed
    over the cycle (t, s), (s, tau), (tau, t), in that order. The variance
    terms cancel around the cycle, so the d_t and d_s columns drop out."""
    (d1, b1, *_), (d2, b2, *_), (d3, b3, *_) = (
        _pair_row(y[a], y[b], x[:, periods[a], :], x[:, periods[b], :], 1, 1)
        for a, b in ((0, 1), (1, 2), (2, 0))
    )
    return d1 + d2 + d3, b1 + b2 + b3


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
    idx, *y = _positive_rows(dataset, "triples", t, s, tau)
    x = dataset.x[idx]
    dep, beta_block = _cyclic_parts(y, x, (t, s, tau))
    return MomentSystem.one_block(
        dep, beta_block, instrument_set("triple", instruments)(x, t, s, tau), idx,
        _beta_params(x.shape[2]),
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
    idx, *y = _positive_rows(dataset, "triples", t, s, tau)
    x = dataset.x[idx]
    dep, beta_block = _cyclic_parts(y, x, (t, s, tau))
    raw = additive_variance_regressors(*y)
    reg = np.column_stack([beta_block, raw[:, 0], raw[:, 1]])
    return MomentSystem.one_block(
        dep, reg, instrument_set("triple", instruments)(x, t, s, tau), idx,
        _beta_params(x.shape[2]) + [Param("dvar_ref", (s, tau)), Param("dvar_ref", (t, tau))],
    )


def build_pairwise_slope_fe(
    dataset: PanelDataset, t: int, s: int, instruments: str = "default"
) -> MomentSystem:
    """Pairwise rows for individual effects entering through slopes on z: the
    k = m = 1 rows of `build_pairwise_nonstationary` on the rescaled outcomes
    y_t z_s and y_s z_t, with regressors x_t z_s and x_s z_t,

    (y_t z_s)^2 y_s z_t - (y_s z_t)^2 y_t z_s
        = y_t z_s y_s z_t (x_t z_s - x_s z_t)' beta + y_s z_t (z_s^2 sigma_t^2 - z_t z_s sigma_ts)
          - y_t z_s (z_t^2 sigma_s^2 - z_t z_s sigma_ts) + xi.
    """
    if dataset.z is None:
        raise DomainError("dataset has no z variable")
    idx, y_t, y_s, x_t, x_s = _pair_arrays(dataset, t, s)
    z_t, z_s = dataset.z[idx, t], dataset.z[idx, s]
    if np.any(z_t <= 0.0) or np.any(z_s <= 0.0):
        raise DomainError("slope-effect rows require z > 0 in both periods")
    # Rescaled, y_t z_s and y_s z_t share the effect alpha z_t z_s; the pair's variance
    # differences are z_s^2 sigma_t^2 - z_t z_s sigma_ts and z_t^2 sigma_s^2 - z_t z_s sigma_ts.
    dep, beta_block, d_t, d_s = _pair_row(
        y_t * z_s, y_s * z_t, x_t * z_s[:, None], x_s * z_t[:, None], 1, 1)
    del y_t, y_s  # not used again: not held while the columns are stacked
    reg = np.column_stack([beta_block, d_t * z_s**2, d_s * z_t**2, -z_t * z_s * (d_t + d_s)])
    return MomentSystem.one_block(
        dep, reg, instrument_set("pair", instruments)(x_t, x_s, z_t, z_s), idx,
        _beta_params(x_t.shape[1])
        + [Param("sigma2_t", (t,)), Param("sigma2_t", (s,))]
        + [Param("cov", (min(t, s), max(t, s)))],
    )


def stack_systems(systems: Sequence[MomentSystem]) -> MomentSystem:
    """Stack several linear systems, sharing equal parameters.

    Rows keep their original cluster ids, so pairs from one individual stay
    in one cluster. Each source system's orthogonality conditions stay
    separate: the stacked instrument matrix is block-diagonal. The regressor
    and instrument blocks are the sources' own arrays, listed in row order
    and never copied into a zero-padded matrix; only the regressor column
    indices are remapped into the stacked `params`.
    """
    if not systems:
        raise EmptySystemError("no systems to stack")
    if len(systems) == 1:
        return systems[0]
    params = list(dict.fromkeys(p for sys_ in systems for p in sys_.params))
    column = {p: j for j, p in enumerate(params)}
    remaps = [np.array([column[p] for p in sys_.params], dtype=np.intp) for sys_ in systems]
    return MomentSystem(
        dependent=np.concatenate([s.dependent for s in systems]),
        regressor_blocks=[W for s in systems for W in s.regressor_blocks],
        regressor_columns=[
            remap[cols] for s, remap in zip(systems, remaps) for cols in s.regressor_columns
        ],
        instrument_blocks=[Z for s in systems for Z in s.instrument_blocks],
        cluster=np.concatenate([s.cluster for s in systems]),
        params=params,
    )


def all_pairs(n_periods: int) -> list:
    return [(t, s) for t in range(n_periods) for s in range(t + 1, n_periods)]
