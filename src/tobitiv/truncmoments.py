"""Product moments of normal variables truncated to the positive quadrant.

Three independent routes are provided:

* a one-line upward recursion for univariate truncated moments,
* a deterministic tensor-product Gauss-Legendre quadrature for bivariate
  moments, with interval-halving error control,
* a rejection-sampling Monte Carlo estimator.

Both univariate routes (the recursion and its 1D adaptive-quadrature oracle)
accept any finite mean: below a standardised mean of -3 they switch to forms
that follow the truncated density to 0 (a backward continued fraction, and a
quadrature of the density's shape relative to its value at 0). They raise
``DomainError`` when a moment overflows or the mean cannot be told apart from
its own integration range. They import ``scipy.special`` (and the oracle
``scipy.integrate``) on first use, so importing this module loads only numpy.

The bivariate quadrature forms, per point and refinement level, one matrix of
raw quadrant integrals at the full order ``MAX_TOTAL_ORDER`` and keeps the last
two, so consecutive calls at the same point, whatever orders they ask for, take
slices of one product ``pow1.T @ grid @ pow2``. The weighted density grid is
built for that product and then freed; no grid is retained. A requested
moment that overflows raises ``DomainError``.

``moment_identity_residual`` combines five quadrature moments to check the
identity that the panel moment conditions in :mod:`tobitiv.moments` rest on.
Each entry point raises ``DomainError`` naming the argument for a spec, a
query or an exponent list of the wrong kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    InsufficientAcceptanceError,
    UnsupportedOrderError,
)
from .simulate import is_int, is_number, written

MAX_TOTAL_ORDER = 8
IDENTITY_TOL_RULE = "a positive number whose tenth is not 0"  # the identity asks for tol / 10

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _check_number(name, value, positive=False):
    """DomainError unless `value` passes `is_number` and, if `positive`, is > 0."""
    if not (is_number(value) and (value > 0 or not positive)):
        raise DomainError(f"{name} must be a {'positive' if positive else 'finite'} number, "
                          f"got {value!r}")


def _check_instance(name, value, cls):
    """DomainError unless `value` is a `cls`."""
    if not isinstance(value, cls):
        raise DomainError(f"{name} must be a {cls.__name__}, got {value!r}")


@dataclass(frozen=True)
class UnivariateNormalSpec:
    """Mean and variance of a latent normal variable."""

    mu: float
    sigma2: float

    def __post_init__(self):
        _check_number("mu", self.mu)
        _check_number("sigma2", self.sigma2, positive=True)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


@dataclass(frozen=True)
class BivariateNormalSpec:
    """Means and covariance of a latent normal pair; its columns name a `verify` point."""

    mu1: float = written("mu1")
    mu2: float = written("mu2")
    sigma1_sq: float = written("sigma1_sq")
    sigma2_sq: float = written("sigma2_sq")
    sigma12: float
    rho: float = written("rho", init=False)

    def __post_init__(self):
        for name in ("mu1", "mu2", "sigma1_sq", "sigma2_sq", "sigma12"):
            _check_number(name, getattr(self, name), positive=name.endswith("_sq"))
        # compared unsquared: sigma12**2 overflows for large finite covariances
        if abs(self.sigma12) >= self.sigma1 * self.sigma2:
            raise DomainError(
                "covariance matrix is not strictly positive definite: "
                f"|sigma12| = {abs(self.sigma12)} >= sigma1 * sigma2 = "
                f"{self.sigma1 * self.sigma2}"
            )
        object.__setattr__(self, "rho", self.sigma12 / (self.sigma1 * self.sigma2))

    @property
    def sigma1(self) -> float:
        return math.sqrt(self.sigma1_sq)

    @property
    def sigma2(self) -> float:
        return math.sqrt(self.sigma2_sq)


@dataclass(frozen=True)
class MomentQuery:
    """Exponent pair (k on the first coordinate, m on the second)."""

    k: int
    m: int

    def __post_init__(self):
        if not all(is_int(v) and v >= 0 for v in (self.k, self.m)):
            raise DomainError(f"exponents must be integers >= 0, got k={self.k!r}, m={self.m!r}")
        if self.k + self.m > MAX_TOTAL_ORDER:
            raise UnsupportedOrderError(
                f"k + m = {self.k + self.m} exceeds the maximum order {MAX_TOTAL_ORDER}"
            )


def _mills_ratio(a: float) -> float:
    """phi(a) / Phi(a), accurate for a down to at least -8."""
    from scipy import special

    phi = math.exp(-0.5 * a * a) / _SQRT_2PI
    Phi = special.ndtr(a)
    return phi / Phi


# Below this standardised mean a = mu / sigma the univariate routes switch to
# their far-censored forms. The upward recursion cancels there: its k = 8
# moment is off by 1.2e-10 relative at a = -3 and by 1.4e-4 at a = -8.
_FAR_CENSORED = -3.0

# Start depth of the backward continued fraction; for a < -3 and k <= 8 it is
# exact to rounding from depth 80 on (1e-9 relative error from depth 40).
_CF_DEPTH = 80


def _check_moment(value, spec: UnivariateNormalSpec, k: int):
    if not math.isfinite(value):
        raise _overflow(spec, k)
    return value


def _overflow(spec: UnivariateNormalSpec, k: int) -> DomainError:
    return DomainError(f"E[U^{k} | U > 0] overflows at mu = {spec.mu!r}, "
                       f"sigma2 = {spec.sigma2!r}")


def _far_censored_moment(a: float, sigma: float, k: int) -> float:
    """E[U^k | U > 0] for a = mu / sigma below ``_FAR_CENSORED``.

    The ratios r_j = E[Z^j | Z > 0] / E[Z^{j-1} | Z > 0] of the standardised
    variable Z = U / sigma satisfy r_j = j / (r_{j+1} - a), the upward
    recursion read backwards. Every term is positive, so nothing cancels.
    """
    moment, r = 1.0, 0.0
    for j in range(_CF_DEPTH, 0, -1):
        r = j / (r - a)
        if j <= k:
            moment *= sigma * r
    return moment


@np.errstate(over="ignore", invalid="ignore")  # overflow shows as a non-finite moment
def univariate_truncated_moment(spec: UnivariateNormalSpec, k: int) -> float:
    """E[U^k | U > 0] for U ~ N(mu, sigma2), by upward recursion.

    The recursion E[U^{k+1}|U>0] = mu E[U^k|U>0] + sigma2 k E[U^{k-1}|U>0]
    starts from k = 0 (unity) and k = 1 (mean of the one-sided truncated
    normal, evaluated through the complementary error function). For a mean
    more than 3 sigma below 0 the recursion runs backwards instead, as a
    continued fraction. Raises ``DomainError`` when the moment overflows.
    """
    _check_instance("spec", spec, UnivariateNormalSpec)
    MomentQuery(k, 0)  # k must be an integer in [0, MAX_TOTAL_ORDER]
    if k == 0:
        return 1.0
    sigma = spec.sigma
    a = spec.mu / sigma
    if a < _FAR_CENSORED:
        return _check_moment(_far_censored_moment(a, sigma, k), spec, k)
    m_prev = 1.0
    m_cur = spec.mu + sigma * _mills_ratio(a)
    for j in range(1, k):
        m_prev, m_cur = m_cur, spec.mu * m_cur + spec.sigma2 * j * m_prev
    return _check_moment(m_cur, spec, k)


def univariate_truncated_moment_quad(spec: UnivariateNormalSpec, k: int) -> float:
    """Independent 1D adaptive-quadrature oracle for E[U^k | U > 0].

    Integrates u^k times the density over [max(0, mu - 12 sigma), mu + 12 sigma]
    and divides by Phi(mu / sigma). For a mean more than 3 sigma below 0 it
    integrates the density's shape relative to its value at 0 instead, over
    [0, hi] where that shape has fallen by e^-72, and divides by the integral
    of the same shape, so neither integral underflows. Raises ``DomainError``
    when the moment overflows or the range cannot be resolved.
    """
    _check_instance("spec", spec, UnivariateNormalSpec)
    MomentQuery(k, 0)  # k must be an integer in [0, MAX_TOTAL_ORDER]
    from scipy import integrate, special

    sigma = spec.sigma
    a = spec.mu / sigma
    try:
        if a < _FAR_CENSORED:
            # hi = sigma * h, with ((h - a)^2 - a^2) / 2 = 72 solved without cancellation
            h = 144.0 / (math.hypot(a, 12.0) - a)
            if not h > 0.0:
                raise DomainError(f"mean {spec.mu!r} cannot be resolved at "
                                  f"standard deviation {sigma!r}")

            def shape(t):  # density at u = sigma h t over the density at 0
                return math.exp(-0.5 * h * t * (h * t - 2.0 * a))

            opts = dict(epsabs=0.0, epsrel=1e-13, limit=400)
            num, _ = integrate.quad(lambda t: t**k * shape(t), 0.0, 1.0, **opts)
            mass, _ = integrate.quad(shape, 0.0, 1.0, **opts)
            return _check_moment((sigma * h) ** k * (num / mass), spec, k)

        lo = max(0.0, spec.mu - 12.0 * sigma)
        hi = spec.mu + 12.0 * sigma
        if not hi > lo:
            raise DomainError(f"mean {spec.mu!r} cannot be resolved at "
                              f"standard deviation {sigma!r}")

        def integrand(u):
            z = (u - spec.mu) / sigma
            return u**k * math.exp(-0.5 * z * z) / (_SQRT_2PI * sigma)

        num, _ = integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=400)
        return _check_moment(num / special.ndtr(a), spec, k)
    except OverflowError:  # u**k on Python floats
        raise _overflow(spec, k) from None


@lru_cache(maxsize=8)
def _gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _axis_nodes(mu: float, sigma: float, pps: int):
    """Composite Gauss-Legendre nodes and weights, ``pps`` panels per sigma.

    The axis ends 10 sigma past a mean above 0; past a mean far below 0 it ends
    about 32 sigma^2 / |mu| past 0, 32 e-folds of the truncated density.
    """
    lo = max(0.0, mu - 10.0 * sigma)
    hi = mu + max(10.0 * sigma, math.hypot(min(mu, 0.0), 8.0 * sigma))
    if not hi > lo:
        raise DomainError(f"mean {mu!r} cannot be resolved at standard deviation {sigma!r}")
    n_panels = max(2, int(math.ceil((hi - lo) / sigma * pps)))
    x, w = _gauss_legendre(20)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _weighted_density_grid(spec: BivariateNormalSpec, pps: int):
    """Quadrature nodes and the density times the weights on their tensor grid.

    Returns ``(u1, u2, weighted)``. The grid is built in one buffer in place,
    by the same steps in the same order as the textbook expression
    ``exp(-0.5 * (z1*z1 - 2*rho*z1*z2 + z2*z2) / (1 - rho*rho)) / c * w1 * w2``
    with ``c = 2 pi sigma1 sigma2 sqrt(1 - rho^2)``, so every entry has the
    bits that expression gives: scaling by -0.5 before or after the division
    is exact, as a power of two.
    """
    s1, s2, rho = spec.sigma1, spec.sigma2, spec.rho
    u1, w1 = _axis_nodes(spec.mu1, s1, pps)
    u2, w2 = _axis_nodes(spec.mu2, s2, pps)

    z1 = (u1 - spec.mu1) / s1
    z2 = (u2 - spec.mu2) / s2
    one_minus_r2 = 1.0 - rho * rho
    grid = np.multiply.outer(2.0 * rho * z1, z2)
    np.subtract((z1 * z1)[:, None], grid, out=grid)
    grid += z2 * z2
    grid /= -2.0 * one_minus_r2
    np.exp(grid, out=grid)
    grid /= 2.0 * math.pi * s1 * s2 * math.sqrt(one_minus_r2)
    grid *= w1[:, None]
    grid *= w2
    return u1, u2, grid


@lru_cache(maxsize=2)  # one entry per refinement level a converged call uses
def _full_power_integrals(spec: BivariateNormalSpec, pps: int):
    """Read-only integrals of u1^a u2^b f(u1, u2) over the positive quadrant.

    Entry (a, b), for a, b <= ``MAX_TOTAL_ORDER``, is one integral; entry
    (0, 0) is the quadrant probability. ``pps`` is the number of quadrature
    panels per standard deviation along each axis. Entries whose powers
    overflow are not finite; they leave the other entries untouched, since
    each entry is its own dot product.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u1, u2, weighted = _weighted_density_grid(spec, pps)
        pow1 = np.vander(u1, MAX_TOTAL_ORDER + 1, increasing=True)  # (len(u1), 9)
        pow2 = np.vander(u2, MAX_TOTAL_ORDER + 1, increasing=True)
        raw = pow1.T @ weighted @ pow2
    raw.flags.writeable = False
    return raw


def quadrant_moments(
    spec: BivariateNormalSpec,
    exponent_pairs: list[tuple[int, int]],
    tol: float = 1e-8,
) -> dict[tuple[int, int], float]:
    """Conditional moments E[U1^a U2^b | U1>0, U2>0] for several (a, b) at once.

    All requested moments are entries of one full-order matrix of raw quadrant
    integrals per refinement level, shared with every other call at the same
    point; the grid is refined (panels halved) until every moment is stable to
    within ``tol`` absolute. Raises ``DomainError`` when a requested moment
    overflows.
    """
    _check_instance("spec", spec, BivariateNormalSpec)
    _check_number("tol", tol, positive=True)
    if not (isinstance(exponent_pairs, (list, tuple)) and exponent_pairs
            and all(isinstance(p, (list, tuple)) and len(p) == 2 for p in exponent_pairs)):
        raise DomainError("exponent_pairs must be a non-empty list of (k, m) pairs, "
                          f"got {exponent_pairs!r}")
    for a, b in exponent_pairs:
        MomentQuery(a, b)  # validates range

    prev = None
    err = math.inf
    for pps in (1, 2, 4, 8):
        raw = _full_power_integrals(spec, pps)
        if not raw[0, 0] > 0.0:
            raise ConvergenceError(f"quadrant probability underflows to 0 at "
                                   f"mu = ({spec.mu1!r}, {spec.mu2!r})")
        with np.errstate(over="ignore"):
            cond = raw / raw[0, 0]
        for a, b in exponent_pairs:
            if not math.isfinite(cond[a, b]):
                raise DomainError(
                    f"E[U1^{a} U2^{b} | U1 > 0, U2 > 0] overflows at "
                    f"mu = ({spec.mu1!r}, {spec.mu2!r}), "
                    f"sigma_sq = ({spec.sigma1_sq!r}, {spec.sigma2_sq!r})"
                )
        if prev is not None:
            err = max(abs(cond[a, b] - prev[a, b]) for a, b in exponent_pairs)
            if err <= tol:
                return {(a, b): float(cond[a, b]) for a, b in exponent_pairs}
        prev = cond
    raise ConvergenceError(
        f"quadrature did not converge to tol={tol}; achieved {err:.3e}", achieved=err
    )


def bivariate_truncated_moment_quad(
    spec: BivariateNormalSpec, q: MomentQuery, tol: float = 1e-8
) -> float:
    """E[U1^k U2^m | U1>0, U2>0] by deterministic quadrature."""
    _check_instance("q", q, MomentQuery)
    return quadrant_moments(spec, [(q.k, q.m)], tol)[(q.k, q.m)]


def bivariate_truncated_moment_mc(
    spec: BivariateNormalSpec,
    q: MomentQuery,
    n_draws: int,
    seed: int,
) -> tuple[float, float]:
    """Rejection-sampling oracle for E[U1^k U2^m | U1>0, U2>0].

    Draws (U1, U2) by the two-step conditional construction, keeps pairs in
    the positive quadrant, and returns the sample mean of U1^k U2^m together
    with its standard error. Deterministic given ``seed``.
    """
    _check_instance("spec", spec, BivariateNormalSpec)
    _check_instance("q", q, MomentQuery)
    if not (is_int(n_draws) and 1000 <= n_draws <= 10**9):
        raise DomainError(f"n_draws must be an integer in [1000, 10**9], got {n_draws!r}")
    if not (is_int(seed) and seed >= 0):
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    s1 = spec.sigma1
    cond_slope = spec.sigma12 / spec.sigma1_sq
    try:
        cond_sd = math.sqrt(spec.sigma2_sq - spec.sigma12**2 / spec.sigma1_sq)
    except OverflowError:
        raise DomainError(f"sigma12**2 overflows (sigma12 = {spec.sigma12:g})") from None

    # chunked Welford accumulation keeps memory flat at large n_draws
    count = 0
    mean = 0.0
    m2 = 0.0
    remaining = n_draws
    while remaining > 0:
        chunk = min(remaining, 2_000_000)
        remaining -= chunk
        u1 = spec.mu1 + s1 * rng.standard_normal(chunk)
        u2 = spec.mu2 + cond_slope * (u1 - spec.mu1) + cond_sd * rng.standard_normal(chunk)
        keep = (u1 > 0.0) & (u2 > 0.0)
        vals = u1[keep] ** q.k * u2[keep] ** q.m
        nc = vals.size
        if nc == 0:
            continue
        c_mean = float(vals.mean())
        c_m2 = float(((vals - c_mean) ** 2).sum())
        delta = c_mean - mean
        total = count + nc
        m2 += c_m2 + delta * delta * count * nc / total
        mean += delta * nc / total
        count = total

    if count < 100:
        raise InsufficientAcceptanceError(
            f"only {count} of {n_draws} draws fell in the positive quadrant",
            acceptance_rate=count / n_draws,
        )
    var = m2 / (count - 1)
    return mean, math.sqrt(var / count)


@dataclass
class IdentityCheck:
    """The identity's largest |residual| at order (k, m), and the first point with it."""

    k: int = written("k")
    m: int = written("m")
    max_abs_residual: float = written("max_abs_residual", default=-1.0)
    point: BivariateNormalSpec = written(nested=True, default=None)  # None before a point


def moment_identity_residual(
    spec: BivariateNormalSpec, q: MomentQuery, tol: float = 1e-7
) -> float:
    """Residual of the truncated-bivariate-normal moment identity.

    For k, m >= 1 the identity states

        E[U1^{k+1} U2^m - U1^k U2^{m+1} | U1>0, U2>0]
          = (mu1 - mu2) E[U1^k U2^m | .]
          + (sigma1_sq - sigma12) k E[U1^{k-1} U2^m | .]
          - (sigma2_sq - sigma12) m E[U1^k U2^{m-1} | .]

    The five constituent moments are evaluated by quadrature at tolerance
    tol/10; |residual| <= 5 tol certifies the identity at this point.
    """
    _check_instance("q", q, MomentQuery)
    if q.k < 1 or q.m < 1:
        raise DomainError(f"identity requires k >= 1 and m >= 1, got k={q.k}, m={q.m}")
    _check_number("tol", tol, positive=True)
    if tol / 10.0 == 0.0:  # the subnormal tol's tenth rounds to 0
        raise DomainError(f"tol must be {IDENTITY_TOL_RULE}, got {tol!r}")
    k, m = q.k, q.m
    pairs = [(k + 1, m), (k, m + 1), (k, m), (k - 1, m), (k, m - 1)]
    mom = quadrant_moments(spec, pairs, tol / 10.0)
    lhs = mom[(k + 1, m)] - mom[(k, m + 1)]
    rhs = (
        (spec.mu1 - spec.mu2) * mom[(k, m)]
        + (spec.sigma1_sq - spec.sigma12) * k * mom[(k - 1, m)]
        - (spec.sigma2_sq - spec.sigma12) * m * mom[(k, m - 1)]
    )
    return lhs - rhs
