"""Synthetic censored/truncated panel generation for each latent-variable model.

Every variant shares the skeleton y*_it = x_it' beta + (fixed-effect term) + e_it
with jointly normal errors; they differ in how the individual effect enters and
in the error covariance structure. Latent outcomes and the individual effects
are retained on the dataset for white-box testing but are excluded from the
on-disk estimation format.
"""

from __future__ import annotations

import json
import math
import os
import sys
import warnings
from dataclasses import asdict, astuple, dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigurationError, InsufficientAcceptanceError, UnsupportedModeError


class ModelVariant(str, Enum):
    CROSS_SECTION = "CrossSection"
    INDEPENDENT_ERRORS = "IndependentErrors"
    NON_STATIONARY = "NonStationary"
    FACTOR_LOADING = "FactorLoading"
    VARIANCE_FE = "VarianceFE"
    ADDITIVE_VARIANCE = "AdditiveVariance"
    SLOPE_FE = "SlopeFE"


# Moment-system shape of each variant: one moment row uses a cell, a pair or a
# triple of periods. It fixes the variant's instrument sets and, through
# SHAPE_PERIODS, the fewest periods its panels need.
SYSTEM_SHAPES = {
    ModelVariant.CROSS_SECTION: "cell",
    ModelVariant.INDEPENDENT_ERRORS: "pair",
    ModelVariant.NON_STATIONARY: "pair",
    ModelVariant.FACTOR_LOADING: "pair",
    ModelVariant.VARIANCE_FE: "triple",
    ModelVariant.ADDITIVE_VARIANCE: "triple",
    ModelVariant.SLOPE_FE: "pair",
}
SHAPE_PERIODS = {"cell": 1, "pair": 2, "triple": 3}


class Sampling(str, Enum):
    CENSORED = "Censored"
    TRUNCATED = "Truncated"


@dataclass(frozen=True)
class NormalDist:
    mu: float = 0.0
    sigma: float = 1.0

    def sample(self, rng, shape):
        return self.mu + self.sigma * rng.standard_normal(shape)


@dataclass(frozen=True)
class LogNormalDist:
    """exp(N(mu, sigma^2)); strictly positive, used for z."""

    mu: float = 0.0
    sigma: float = 0.5

    def sample(self, rng, shape):
        return np.exp(self.mu + self.sigma * rng.standard_normal(shape))


@dataclass(frozen=True)
class ShiftedHalfNormalDist:
    """shift + scale * |N(0,1)|; strictly positive support for variances."""

    shift: float = 0.5
    scale: float = 1.0

    def sample(self, rng, shape):
        return self.shift + self.scale * np.abs(rng.standard_normal(shape))


@dataclass(frozen=True)
class LinearIndexDist:
    """alpha_i = index_coef * mean_t(x_it' beta) + noise_sigma * N(0,1).

    The dependence on the regressor index is deliberate: it is what makes
    pooled estimators that ignore the individual effect visibly biased.
    """

    index_coef: float = 1.0
    noise_sigma: float = 1.0

    def sample(self, rng, mean_index):
        return self.index_coef * mean_index + self.noise_sigma * rng.standard_normal(
            mean_index.shape
        )


def is_int(v) -> bool:
    """True for Python and NumPy integers, not for booleans."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_number(v) -> bool:
    """True for ints and floats that are finite as floats, not for booleans."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


_DIST_TYPES = {
    "normal": NormalDist,
    "lognormal": LogNormalDist,
    "shifted_halfnormal": ShiftedHalfNormalDist,
    "linear_index": LinearIndexDist,
}
_DIST_NAMES = {cls: name for name, cls in _DIST_TYPES.items()}

# The panel's distribution fields, in the order `validate` checks them.
_DIST_FIELDS = ("fe_dist", "x_dist", "z_dist", "variance_fe_dist")

# Fields a panel carries exactly when its variant is one of these.
_VARIANT_ONLY_FIELDS = {
    "factor_loadings": (ModelVariant.FACTOR_LOADING,),
    "z_dist": (ModelVariant.SLOPE_FE,),
    "variance_fe_dist": (ModelVariant.VARIANCE_FE, ModelVariant.ADDITIVE_VARIANCE),
}


def dist_to_dict(dist) -> dict:
    return {"type": _DIST_NAMES[type(dist)], **asdict(dist)}


def dist_from_dict(d: dict):
    kind = d.get("type") if isinstance(d, dict) else None
    if kind not in _DIST_TYPES:
        raise ConfigurationError(f"unknown distribution type {kind!r}", field="type")
    cls = _DIST_TYPES[kind]
    kwargs = {k: v for k, v in d.items() if k != "type"}
    return cls(**kwargs)


@dataclass(frozen=True)
class PanelConfig:
    variant: ModelVariant
    n_individuals: int
    n_periods: int
    n_regressors: int
    beta: tuple
    error_cov: tuple  # T x T, nested tuples
    seed: int
    sampling: Sampling = Sampling.CENSORED
    factor_loadings: Optional[tuple] = None
    variance_fe_dist: Optional[ShiftedHalfNormalDist] = None
    fe_dist: LinearIndexDist = field(default_factory=LinearIndexDist)
    x_dist: NormalDist = field(default_factory=NormalDist)
    z_dist: Optional[LogNormalDist] = None

    def __post_init__(self):
        object.__setattr__(self, "variant", ModelVariant(self.variant))
        object.__setattr__(self, "sampling", Sampling(self.sampling))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(
            self, "error_cov", tuple(tuple(float(v) for v in row) for row in self.error_cov)
        )
        if self.factor_loadings is not None:
            object.__setattr__(
                self, "factor_loadings", tuple(float(r) for r in self.factor_loadings)
            )

    def validate(self):
        for name in ("n_individuals", "n_periods", "n_regressors", "seed"):
            if not is_int(getattr(self, name)):
                raise ConfigurationError(f"{name} must be an integer", field=name)
        if not 0 <= self.seed < 2**128:
            raise ConfigurationError("seed must lie in [0, 2**128)", field="seed")
        N, T, K = self.n_individuals, self.n_periods, self.n_regressors
        if N < 1:
            raise ConfigurationError("n_individuals must be positive", field="n_individuals")
        min_T = SHAPE_PERIODS[SYSTEM_SHAPES[self.variant]]
        if T < min_T:
            raise ConfigurationError(
                f"variant {self.variant.value} requires n_periods >= {min_T}, got {T}",
                field="n_periods",
            )
        if K < 1:
            raise ConfigurationError("n_regressors must be positive", field="n_regressors")
        if len(self.beta) != K:
            raise ConfigurationError(
                f"beta has length {len(self.beta)}, expected {K}", field="beta"
            )
        try:
            cov = np.asarray(self.error_cov, dtype=float)
        except ValueError:  # rows of different lengths
            raise ConfigurationError(f"error_cov must be {T} x {T}", field="error_cov") from None
        if cov.shape != (T, T):
            raise ConfigurationError(
                f"error_cov has shape {cov.shape}, expected ({T}, {T})", field="error_cov"
            )
        # x holds N * T * K float64 values; numpy cannot index more bytes than intp holds.
        if 8 * N * T * K > np.iinfo(np.intp).max:
            raise ConfigurationError(
                f"an {N} x {T} x {K} regressor array exceeds the largest array this "
                "platform can hold", field="n_individuals")
        for name in ("beta", "error_cov", "factor_loadings"):
            if not np.all(np.isfinite(np.asarray(getattr(self, name) or (), dtype=float))):
                raise ConfigurationError(f"{name} must be finite", field=name)
        for name in _DIST_FIELDS:
            dist = getattr(self, name)
            if dist is None and name in ("fe_dist", "x_dist"):
                raise ConfigurationError(f"{name} is required", field=name)
            # fe_dist alone is drawn around the regressor index; the others by shape.
            if dist is not None and isinstance(dist, LinearIndexDist) != (name == "fe_dist"):
                raise ConfigurationError(
                    f"{name} cannot have type {_DIST_NAMES[type(dist)]!r}: fe_dist takes "
                    "linear_index, the others normal, lognormal or shifted_halfnormal",
                    field=name,
                )
            if dist is not None and not all(is_number(v) for v in astuple(dist)):
                raise ConfigurationError(f"{name} parameters must be finite numbers",
                                         field=name)
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ConfigurationError("error_cov must be symmetric", field="error_cov")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ConfigurationError(
                "error_cov must be positive definite", field="error_cov"
            ) from None
        for name, variants in _VARIANT_ONLY_FIELDS.items():
            if (getattr(self, name) is not None) != (self.variant in variants):
                raise ConfigurationError(
                    f"{name} must be present exactly for the "
                    f"{' and '.join(v.value for v in variants)} "
                    f"variant{'s' if len(variants) > 1 else ''}",
                    field=name,
                )
        if self.factor_loadings is not None:
            if len(self.factor_loadings) != T:
                raise ConfigurationError(
                    "factor_loadings must have one entry per period", field="factor_loadings"
                )
            if not math.isclose(self.factor_loadings[0], 1.0):
                raise ConfigurationError(
                    "the first factor loading is the scale normalization and must be 1",
                    field="factor_loadings",
                )

    def to_dict(self):
        """Every field that is set, as JSON values: enums by value, tuples as lists."""

        def plain(v):
            if isinstance(v, Enum):
                return v.value
            if isinstance(v, tuple):
                return [plain(e) for e in v]
            return dist_to_dict(v) if is_dataclass(v) else v

        return {f.name: plain(v) for f in fields(self)
                if (v := getattr(self, f.name)) is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "PanelConfig":
        kwargs = dict(d)
        try:
            for key in _DIST_FIELDS:
                if key in kwargs and kwargs[key] is not None:
                    kwargs[key] = dist_from_dict(kwargs[key])
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad panel config: {exc}") from None


@dataclass
class PanelDataset:
    y: np.ndarray  # (N, T) observed
    x: np.ndarray  # (N, T, K)
    config: PanelConfig
    z: Optional[np.ndarray] = None  # (N, T)
    latent_y: Optional[np.ndarray] = None  # test-only
    alpha: Optional[np.ndarray] = None  # test-only
    sigma_i_sq: Optional[np.ndarray] = None  # test-only
    n_drawn: int = 0  # individuals generated, >= N under truncation

    @property
    def n_individuals(self) -> int:
        return self.y.shape[0]

    @property
    def n_periods(self) -> int:
        return self.y.shape[1]

    @property
    def n_regressors(self) -> int:
        return self.x.shape[2]


@np.errstate(all="ignore")  # overflow shows as non-finite draws, checked below
def _draw_batch(config: PanelConfig, rng, n: int):
    """One batch of n individuals; fixed draw order keeps output reproducible."""
    T, K = config.n_periods, config.n_regressors
    beta = np.asarray(config.beta)
    x = config.x_dist.sample(rng, (n, T, K))
    index = x @ beta  # (n, T)

    z = None
    if config.variant is ModelVariant.SLOPE_FE:
        z = config.z_dist.sample(rng, (n, T))

    if config.variant is ModelVariant.CROSS_SECTION:
        alpha = np.zeros(n)
    else:
        alpha = config.fe_dist.sample(rng, index.mean(axis=1))

    sigma_i_sq = None
    if config.variant is ModelVariant.VARIANCE_FE:
        sigma_i_sq = config.variance_fe_dist.sample(rng, n)
        eps = np.sqrt(sigma_i_sq)[:, None] * rng.standard_normal((n, T))
    elif config.variant is ModelVariant.ADDITIVE_VARIANCE:
        sigma_i_sq = config.variance_fe_dist.sample(rng, n)
        sigma_t_sq = np.diag(np.asarray(config.error_cov))
        var = sigma_i_sq[:, None] + sigma_t_sq[None, :]
        eps = np.sqrt(var) * rng.standard_normal((n, T))
    else:
        L = np.linalg.cholesky(np.asarray(config.error_cov))
        eps = rng.standard_normal((n, T)) @ L.T

    if config.variant is ModelVariant.CROSS_SECTION:
        fe_term = 0.0
    elif config.variant is ModelVariant.FACTOR_LOADING:
        fe_term = np.asarray(config.factor_loadings)[None, :] * alpha[:, None]
    elif config.variant is ModelVariant.SLOPE_FE:
        fe_term = z * alpha[:, None]
    else:
        fe_term = alpha[:, None]

    latent = index + fe_term + eps
    if not np.isfinite(latent).all():  # a non-finite x or z makes latent non-finite too
        raise ConfigurationError("drawn panel values overflow to inf or NaN", field="panel")
    return x, z, alpha, sigma_i_sq, latent


_TRUNCATION_OVERSAMPLE_CAP = 100


def simulate(config: PanelConfig) -> PanelDataset:
    """Generate a panel dataset; deterministic given the config (incl. seed)."""
    config.validate()
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    N = config.n_individuals
    truncated = config.sampling is Sampling.TRUNCATED

    # Censored sampling observes every individual, so its first batch is the
    # panel. Truncated sampling observes only individuals positive in every
    # period; it resamples until N such individuals are collected.
    parts = []
    kept = 0
    drawn = 0
    while kept < N:
        if drawn >= _TRUNCATION_OVERSAMPLE_CAP * N:
            raise InsufficientAcceptanceError(
                f"truncated sampling kept only {kept} of the requested {N} "
                f"individuals after {drawn} draws",
                acceptance_rate=kept / drawn,
            )
        n_batch = min(N, _TRUNCATION_OVERSAMPLE_CAP * N - drawn)
        x, z, alpha, sig_i, latent = _draw_batch(config, rng, n_batch)
        drawn += n_batch
        keep = np.all(latent > 0.0, axis=1) if truncated else slice(None)
        parts.append((x[keep], None if z is None else z[keep], alpha[keep],
                      None if sig_i is None else sig_i[keep], latent[keep]))
        kept += len(parts[-1][4])

    x, z, alpha, sig_i, latent = (
        None if arrays[0] is None else np.concatenate(arrays)[:N] for arrays in zip(*parts)
    )
    return PanelDataset(
        y=np.maximum(0.0, latent),
        x=x,
        z=z,
        latent_y=latent,
        alpha=alpha,
        sigma_i_sq=sig_i,
        config=config,
        n_drawn=drawn,
    )


def censoring_rate(dataset: PanelDataset) -> float:
    """Fraction of observed cells censored at zero."""
    if dataset.config.sampling is not Sampling.CENSORED:
        raise UnsupportedModeError("censoring rate is undefined for truncated sampling")
    return float(np.mean(dataset.y == 0.0))


_FMT = "%.17g"


def save_dataset(dataset: PanelDataset, out_dir: str) -> None:
    """Write the estimation input format: meta.json + flat CSVs.

    Latent outcomes and individual effects are test-only and deliberately
    not serialized.
    """
    os.makedirs(out_dir, exist_ok=True)
    N, T, K = dataset.n_individuals, dataset.n_periods, dataset.n_regressors
    meta = {
        "format_version": 1,
        "variant": dataset.config.variant.value,
        "sampling": dataset.config.sampling.value,
        "n_individuals": N,
        "n_periods": T,
        "n_regressors": K,
        "has_z": dataset.z is not None,
        "n_drawn": dataset.n_drawn,
        "config": dataset.config.to_dict(),
    }
    if dataset.config.sampling is Sampling.CENSORED:
        meta["censoring_rate"] = censoring_rate(dataset)
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")

    y_header = ",".join(f"t{t}" for t in range(T))
    np.savetxt(os.path.join(out_dir, "y.csv"), dataset.y, fmt=_FMT, delimiter=",",
               header=y_header, comments="", newline="\n")
    x_header = ",".join(f"x{k}" for k in range(K))
    np.savetxt(os.path.join(out_dir, "x.csv"), dataset.x.reshape(N * T, K), fmt=_FMT,
               delimiter=",", header=x_header, comments="", newline="\n")
    if dataset.z is not None:
        np.savetxt(os.path.join(out_dir, "z.csv"), dataset.z, fmt=_FMT, delimiter=",",
                   header=y_header, comments="", newline="\n")


def load_dataset(data_dir: str) -> PanelDataset:
    """Read a dataset directory written by :func:`save_dataset`.

    The returned dataset carries no latent truth (blind to estimators). The
    tables must have the shapes meta.json gives and finite cells, and the
    outcomes must be >= 0 (censored) or > 0 (truncated); anything else raises
    ConfigurationError with field "data_dir".
    """
    meta_path = os.path.join(data_dir, "meta.json")
    if not os.path.exists(meta_path):
        raise ConfigurationError(f"no meta.json in {data_dir}", field="data_dir")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        config = PanelConfig.from_dict(meta["config"])
        N, T, K = (int(meta[k]) for k in ("n_individuals", "n_periods", "n_regressors"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad meta.json in {data_dir}: {exc!r}",
                                 field="data_dir") from None
    if (T, K) != (config.n_periods, config.n_regressors):
        raise ConfigurationError(
            f"meta.json gives T={T}, K={K} but its config has T={config.n_periods}, "
            f"K={config.n_regressors}", field="data_dir")

    def table(name, shape):
        path = os.path.join(data_dir, name)
        try:
            with warnings.catch_warnings():  # no data rows: the shape check below reports it
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise ConfigurationError(f"{path}: {exc}", field="data_dir") from None
        if values.shape != shape:
            raise ConfigurationError(
                f"{path} has shape {values.shape}; meta.json implies {shape}",
                field="data_dir")
        if not np.isfinite(values).all():
            raise ConfigurationError(f"{path} has non-finite cells", field="data_dir")
        return values

    y = table("y.csv", (N, T))
    censored = config.sampling is Sampling.CENSORED
    n_bad = int(np.count_nonzero(y < 0.0 if censored else y <= 0.0))
    if n_bad:
        raise ConfigurationError(
            f"{os.path.join(data_dir, 'y.csv')} has {n_bad} outcomes "
            f"{'below 0' if censored else 'at or below 0'} in {config.sampling.value} data",
            field="data_dir")
    return PanelDataset(
        y=y,
        x=table("x.csv", (N * T, K)).reshape(N, T, K),
        z=table("z.csv", (N, T)) if meta.get("has_z") else None,
        config=config,
        n_drawn=meta.get("n_drawn", N),
    )
