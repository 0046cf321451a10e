"""Synthetic censored/truncated panel generation for each latent-variable model.

Every variant shares the skeleton y*_it = x_it' beta + (fixed-effect term) + e_it
with jointly normal errors; they differ in how the individual effect enters and
in the error covariance structure. Latent outcomes and the individual effects
are retained on the dataset for white-box testing but are excluded from the
on-disk estimation format: meta.json and the `.npy` tables y, x and z.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields, is_dataclass
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


# What each variant reads besides the inputs every variant reads. `shape`: one
# moment row uses a "cell", a "pair" or a "triple" of periods, which fixes the
# instrument sets and, through SHAPE_PERIODS, the fewest periods. `panel`: the
# optional panel fields its draws read. `spec`: the estimator fields its rows
# read besides `instruments`. `single_pair`: its system is built from one pair.
VariantInputs = namedtuple("VariantInputs", "shape panel spec single_pair", defaults=(False,))
VARIANT_INPUTS = {
    ModelVariant.CROSS_SECTION: VariantInputs("cell", (), ("cross_section_order",)),
    ModelVariant.INDEPENDENT_ERRORS: VariantInputs("pair", ("fe_dist",), ("pairs",)),
    ModelVariant.NON_STATIONARY: VariantInputs("pair", ("fe_dist",), ("pairs", "orders")),
    ModelVariant.FACTOR_LOADING: VariantInputs("pair", ("fe_dist", "factor_loadings"),
                                               ("pairs",), True),
    ModelVariant.VARIANCE_FE: VariantInputs("triple", ("fe_dist", "variance_fe_dist"), ("triple",)),
    ModelVariant.ADDITIVE_VARIANCE: VariantInputs("triple", ("fe_dist", "variance_fe_dist"),
                                                  ("triple",)),
    ModelVariant.SLOPE_FE: VariantInputs("pair", ("fe_dist", "z_dist"), ("pairs",), True),
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
    """True for Python and NumPy ints and floats that are finite as floats, not for booleans."""
    if isinstance(v, (float, np.floating)):
        return math.isfinite(v)  # compared with a float, a float32 casts it to float32
    return is_int(v) and abs(v) <= sys.float_info.max


_DIST_TYPES = {
    "normal": NormalDist,
    "lognormal": LogNormalDist,
    "shifted_halfnormal": ShiftedHalfNormalDist,
    "linear_index": LinearIndexDist,
}
_DIST_NAMES = {cls: name for name, cls in _DIST_TYPES.items()}

# The panel's distribution fields, in the order `validate` checks them, each with
# the test of its distribution and the rule it states: fe_dist is drawn around the
# regressor index, the others by shape, and z and the variances sigma_i^2 positive.
_POSITIVE = (lambda d: isinstance(d, LogNormalDist) or isinstance(d, ShiftedHalfNormalDist)
             and d.shift > 0 and d.scale >= 0,
             "lognormal, or shifted_halfnormal with shift > 0 and scale >= 0")
_DIST_FIELDS = {
    "fe_dist": (lambda d: isinstance(d, LinearIndexDist), "linear_index"),
    "x_dist": (lambda d: not isinstance(d, LinearIndexDist),
               "normal, lognormal or shifted_halfnormal"),
    "z_dist": _POSITIVE,
    "variance_fe_dist": _POSITIVE,
}


def json_value(v):
    """`v` as a JSON value: enums by value, tuples and arrays as flat lists, a
    distribution as its type name and fields, NumPy numbers as Python numbers."""
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, np.ndarray):  # a float64 array's tolist gives the same floats
        return v.ravel().tolist()
    if isinstance(v, tuple):
        return [json_value(e) for e in v]
    if is_dataclass(v):
        return {"type": _DIST_NAMES[type(v)], **{k: json_value(e) for k, e in asdict(v).items()}}
    return v.item() if isinstance(v, np.generic) else v


def check_keys(d, keys, where: str = "") -> None:
    """ConfigurationError unless `d` is a dict whose keys are among `keys`: the fields
    of a dataclass, each one without a default required, or a sequence of names. The
    field is `where.key`, or the bare key for a top-level config or a missing field."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"{where or 'config'} must be a JSON object", field=where or None)
    names = [f.name for f in fields(keys)] if is_dataclass(keys) else list(keys)
    for key in d:
        if key not in names:
            raise ConfigurationError(
                f"unknown key {key!r} in {where or 'config'}; expected one of {names}",
                field=f"{where}.{key}" if where else key)
    for f in fields(keys) if is_dataclass(keys) else ():
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigurationError(f"{where} config is missing {f.name!r}", field=f.name)


def check_rules(values: dict, rules: dict) -> None:
    """ConfigurationError naming the first field of `rules` (name -> (test, rule
    text)) whose value in `values` fails its test; absent names pass."""
    for name, (valid, rule) in rules.items():
        if name in values and not valid(values[name]):
            raise ConfigurationError(f"{name} must be {rule}", field=name)


def check_variant_fields(obj, variant: ModelVariant, column: str, unset_ok=()) -> None:
    """The variant table's rule for the dataclass `obj`, whose fields some
    variants read as VARIANT_INPUTS's `column` lists: a field `variant` does not
    read must keep its default, and one it reads whose default is None must be
    set, unless it is in `unset_ok`. ConfigurationError names the field."""
    for f in fields(obj):
        readers = [v for v, inputs in VARIANT_INPUTS.items() if f.name in getattr(inputs, column)]
        value = getattr(obj, f.name)
        default = f.default if f.default_factory is MISSING else f.default_factory()
        if readers and variant not in readers and not np.array_equal(value, default):
            raise ConfigurationError(
                f"{f.name} is read only by the {', '.join(v.value for v in readers)} variant"
                f"{'s' if len(readers) > 1 else ''}, not by {variant.value}", field=f.name)
        if variant in readers and value is None and default is None and f.name not in unset_ok:
            raise ConfigurationError(f"{f.name} is required by the {variant.value} variant",
                                     field=f.name)


# Every seed's rule: a Philox key, the generator `simulate` draws with.
SEED_RULE = (lambda v: is_int(v) and 0 <= v < 2**128, "an integer in [0, 2**128)")

# Each panel field with a rule of its own value: its test and the rule it states.
_PANEL_RULES = {
    "n_individuals": (lambda v: is_int(v) and v >= 1, "an integer >= 1"),
    "n_periods": (is_int, "an integer"),
    "n_regressors": (lambda v: is_int(v) and v >= 1, "an integer >= 1"),
    "seed": SEED_RULE,
}


def dist_from_dict(d: dict, name: str):
    """The distribution that the panel's field `name` describes as a JSON object."""
    kind = d.get("type") if isinstance(d, dict) else None
    if not isinstance(kind, str) or kind not in _DIST_TYPES:
        raise ConfigurationError(f"unknown distribution type {kind!r}", field=f"{name}.type")
    cls = _DIST_TYPES[kind]
    kwargs = {k: v for k, v in d.items() if k != "type"}
    check_keys(kwargs, cls, name)
    return cls(**kwargs)


def convert_fields(obj, conversions: dict) -> None:
    """Convert fields of the frozen `obj` by `conversions`, in order, naming one that fails."""
    for name, convert in conversions.items():
        try:
            object.__setattr__(obj, name, convert(getattr(obj, name)))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad {name}: {exc}", field=name) from None


def _dist_conversion(name: str):
    """Field `name`'s conversion: a distribution or None stays; the rest goes to dist_from_dict."""
    return lambda v: v if v is None or type(v) in _DIST_NAMES else dist_from_dict(v, name)


def _floats(v) -> tuple:
    """The floats of a list of numbers that pass `is_number`; TypeError for anything else."""
    if isinstance(v, (str, bytes, dict)) or not all(map(is_number, v)):
        raise TypeError("expected a list of finite numbers")
    return tuple(map(float, v))


# PanelConfig's conversions from JSON, distributions first: a fault in one is named first.
_CONVERSIONS = {
    **{name: _dist_conversion(name) for name in _DIST_FIELDS},
    "variant": ModelVariant,
    "sampling": Sampling,
    "beta": _floats,
    "error_cov": lambda v: tuple(map(_floats, v)),
    "factor_loadings": lambda v: None if v is None else _floats(v),
}

# Each array field's shape, as the panel counts that give it.
_SHAPES = {"beta": ("n_regressors",), "error_cov": ("n_periods", "n_periods"),
           "factor_loadings": ("n_periods",)}


def _has_shape(value, shape) -> bool:
    """True if the nested tuple `value` has `shape`; a ragged one has none."""
    return not shape or len(value) == shape[0] and all(_has_shape(v, shape[1:]) for v in value)


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
        convert_fields(self, _CONVERSIONS)

    def validate(self):
        check_rules(vars(self), _PANEL_RULES)
        N, T, K = self.n_individuals, self.n_periods, self.n_regressors
        min_T = SHAPE_PERIODS[VARIANT_INPUTS[self.variant].shape]
        if T < min_T:
            raise ConfigurationError(
                f"variant {self.variant.value} requires n_periods >= {min_T}, got {T}",
                field="n_periods",
            )
        for name, dims in _SHAPES.items():
            shape = tuple(getattr(self, d) for d in dims)
            if (value := getattr(self, name)) is not None and not _has_shape(value, shape):
                raise ConfigurationError(f"{name} must have shape ({', '.join(dims)}) = {shape}",
                                         field=name)
        # x holds N * T * K float64 values; numpy cannot index more bytes than intp holds.
        if 8 * N * T * K > np.iinfo(np.intp).max:
            raise ConfigurationError(
                f"an {N} x {T} x {K} regressor array exceeds the largest array this "
                "platform can hold", field="n_individuals")
        dists = {name: dist for name in _DIST_FIELDS if (dist := getattr(self, name)) is not None}
        for name in _DIST_FIELDS:
            if name not in dists and name in ("fe_dist", "x_dist"):
                raise ConfigurationError(f"{name} is required", field=name)
            if name in dists and not all(is_number(v) for v in astuple(dists[name])):
                raise ConfigurationError(f"{name} parameters must be finite numbers",
                                         field=name)
        check_rules(dists, _DIST_FIELDS)
        cov = np.asarray(self.error_cov)
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ConfigurationError("error_cov must be symmetric", field="error_cov")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ConfigurationError(
                "error_cov must be positive definite", field="error_cov"
            ) from None
        if self.variant is ModelVariant.VARIANCE_FE and not np.array_equal(cov, np.eye(T)):
            raise ConfigurationError("VarianceFE draws sqrt(sigma_i^2) * N(0, 1) in each "
                                     "period, so error_cov must be the identity",
                                     field="error_cov")
        if self.variant is ModelVariant.ADDITIVE_VARIANCE and not np.array_equal(
                cov, np.diag(np.diag(cov))):
            raise ConfigurationError("AdditiveVariance draws sqrt(sigma_i^2 + sigma_t^2) * "
                                     "N(0, 1), so error_cov must be diagonal", field="error_cov")
        check_variant_fields(self, self.variant, "panel")
        if self.factor_loadings is not None and not math.isclose(self.factor_loadings[0], 1.0):
            raise ConfigurationError("the first factor loading is the scale normalization "
                                     "and must be 1", field="factor_loadings")

    def to_dict(self):
        """Every field that is set, as a JSON value (`json_value`)."""
        return {f.name: json_value(v) for f in fields(self)
                if (v := getattr(self, f.name)) is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "PanelConfig":
        """The config a JSON object describes. A non-object, an unknown key, a missing
        one or a value that does not convert raises ConfigurationError naming it
        (`panel.key`, or `x_dist.key` inside a distribution)."""
        check_keys(d, cls, "panel")
        return cls(**d)


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
    """One batch of n individuals; fixed draw order keeps output reproducible. z and the
    effect's scale come from the fields that `validate` lets only their variants set."""
    T, K = config.n_periods, config.n_regressors
    beta = np.asarray(config.beta)
    x = config.x_dist.sample(rng, (n, T, K))
    index = (x.reshape(n * T, K) @ beta).reshape(n, T)  # one 2-D product, not n stacked ones

    z = None if config.z_dist is None else config.z_dist.sample(rng, (n, T))
    if "fe_dist" in VARIANT_INPUTS[config.variant].panel:
        alpha = config.fe_dist.sample(rng, index.mean(axis=1))
    else:
        alpha = np.zeros(n)

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

    scale = z if config.factor_loadings is None else np.asarray(config.factor_loadings)
    fe_term = alpha[:, None] if scale is None else scale * alpha[:, None]
    latent = index + fe_term + eps
    if not np.isfinite(latent).all():  # a non-finite x or z makes latent non-finite too
        raise ConfigurationError("drawn panel values overflow to inf or NaN", field="panel")
    return x, z, alpha, sigma_i_sq, latent


_TRUNCATION_OVERSAMPLE_CAP = 100


def simulate(config: PanelConfig) -> PanelDataset:
    """Generate a panel dataset; deterministic given the config (incl. seed)."""
    config.validate()
    return draw_panel(config)


def draw_panel(config: PanelConfig) -> PanelDataset:
    """`simulate` for a config that has already passed `PanelConfig.validate`."""
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


def format_float(v) -> str:
    """The one rule for writing a float as text: 17 significant digits, which
    read back as the same float64."""
    return "%.17g" % v


def write_csv(path: str, header, rows) -> None:
    """The header, then `rows` of plain values, in which a float takes the
    17-digit rule and None an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_float(v) if isinstance(v, float) else v for v in row]
                         for row in rows)


def write_json(path: str, value) -> None:
    """`value` as indented JSON: a float in the shortest form that reads back
    as the same float, None as null."""
    with open(path, "w") as fh:
        json.dump(value, fh, indent=2)
        fh.write("\n")


def written(column=None, *, per_param=False, nested=False, **kw):
    """A dataclass field that is written: by a result's `to_dict` under its name and, given a
    `column`, by `tabulate` as one cell or one per parameter (`per_param`); a `nested` field's
    value's own written fields take its place in a table. A field set in `__post_init__`
    (`init=False`) is derived: fixed at construction, and left out of eq, hash and repr."""
    if kw.get("init") is False:
        kw.update(compare=False, repr=False)
    return field(metadata=dict(column=column, per_param=per_param, nested=nested), **kw)


def tabulate(records, param_names, row_per_param=False) -> tuple:
    """(header, rows) of `records`, dataclasses of one type, in their fields' `written` columns
    in order: a per-parameter field's prefix + each name, or with `row_per_param` one column
    and a row per parameter; a nested field's value's, from the first one set, empty if unset."""
    header, parts = [], []  # per field with a column: its nested field or None, name, per_param

    def lay_out(obj, outer=None):
        for f in fields(obj):
            column, per_param = f.metadata.get("column"), f.metadata.get("per_param")
            if f.metadata.get("nested"):
                lay_out(next(v for r in records if (v := getattr(r, f.name)) is not None), f.name)
            elif column is not None:
                each = per_param and not row_per_param
                header.extend([column + n for n in param_names] if each else [column])
                parts.append((outer, f.name, per_param))

    def cells(record, i):
        row = []
        for outer, name, per_param in parts:
            v = getattr(getattr(record, outer) if outer else record, name, None)
            if not per_param:
                row.append(v)
            elif row_per_param:
                row.append(v[i])
            elif v is None:  # the estimates of a failed replication
                row.extend([None] * len(param_names))
            else:
                row.extend(v)
        return row

    lay_out(records[0])
    return header, [cells(r, i) for r in records
                    for i in range(len(param_names) if row_per_param else 1)]


# The version of the dataset directory format that save_dataset writes.
FORMAT_VERSION = 2


def _restated(config: PanelConfig) -> dict:
    """The config values that meta.json restates at its top level."""
    return {
        "variant": config.variant.value,
        "sampling": config.sampling.value,
        "n_individuals": int(config.n_individuals),
        "n_periods": int(config.n_periods),
        "n_regressors": int(config.n_regressors),
        "has_z": config.z_dist is not None,
    }


def check_output_dir(path) -> str:
    """`path`, if it names a directory that exists or can be created; else
    ConfigurationError with field "output_dir". It creates nothing."""
    if not isinstance(path, (str, os.PathLike)) or not os.fspath(path):
        raise ConfigurationError("output_dir must be a non-empty path string", field="output_dir")
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigurationError(f"output directory {path} cannot be created: "
                                 f"{existing} is not a directory", field="output_dir")
    return path


def save_dataset(dataset: PanelDataset, out_dir: str) -> None:
    """Write the estimation input format: meta.json and the C-ordered float64
    `.npy` tables y (N x T), x (N x T x K) and, for SlopeFE data, z (N x T).

    Latent outcomes and individual effects are test-only and deliberately
    not serialized.
    """
    os.makedirs(check_output_dir(out_dir), exist_ok=True)
    meta = {
        "format_version": FORMAT_VERSION,
        **_restated(dataset.config),
        "n_drawn": dataset.n_drawn,
        "config": dataset.config.to_dict(),
    }
    if dataset.config.sampling is Sampling.CENSORED:
        meta["censoring_rate"] = censoring_rate(dataset)
    write_json(os.path.join(out_dir, "meta.json"), meta)
    for name in ("y", "x", "z"):  # C-ordered float64, the one form load_dataset reads
        if (values := getattr(dataset, name)) is not None:
            np.save(os.path.join(out_dir, f"{name}.npy"), np.ascontiguousarray(values, float))


def load_dataset(data_dir: str) -> PanelDataset:
    """Read a dataset directory written by :func:`save_dataset`.

    The returned dataset carries no latent truth (blind to estimators). Its
    config must pass `PanelConfig.validate`. In meta.json, format_version must
    be FORMAT_VERSION and each value restated from the config must equal
    `_restated(config)`, both in type and value; n_drawn must be an integer in
    [N, _TRUNCATION_OVERSAMPLE_CAP * N], exactly N for censored data. Each
    table must be np.save's file of a C-ordered float64 array of the shape the
    config gives, with finite cells; outcomes must be >= 0 (censored) or > 0
    (truncated). Anything else raises ConfigurationError with field "data_dir".
    """
    try:
        meta_path = os.path.join(data_dir, "meta.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        config = PanelConfig.from_dict(meta["config"])
        config.validate()
    except FileNotFoundError:
        raise ConfigurationError(f"no meta.json in {data_dir}", field="data_dir") from None
    except ConfigurationError as exc:
        where = f" (field {exc.field})" if exc.field else ""
        raise ConfigurationError(f"bad config in {meta_path}{where}: {exc}",
                                 field="data_dir") from None
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad meta.json in {data_dir}: {exc!r}",
                                 field="data_dir") from None
    if meta.get("format_version") == 1 and is_int(meta["format_version"]):
        raise ConfigurationError(f"{data_dir} is a format-1 dataset, whose CSV tables are no "
                                 "longer read; its panel is seeded, so `tobitiv simulate` on the "
                                 'panel config in its meta.json (a config {"panel": <its '
                                 '"config">}) writes the same data again', field="data_dir")
    restated = _restated(config)
    for key, want in {"format_version": FORMAT_VERSION, **restated}.items():
        got = meta.get(key)
        if type(got) is not type(want) or got != want:
            raise ConfigurationError(
                f"meta.json gives {key}={got!r}, but a format-{FORMAT_VERSION} dataset of its "
                f"config gives {want!r}", field="data_dir")
    N, T, K = config.n_individuals, config.n_periods, config.n_regressors
    censored = config.sampling is Sampling.CENSORED
    most = N if censored else _TRUNCATION_OVERSAMPLE_CAP * N  # censored panels draw no extra
    n_drawn = meta.get("n_drawn")
    if not (is_int(n_drawn) and N <= n_drawn <= most):
        raise ConfigurationError(
            f"meta.json gives n_drawn={n_drawn!r}, but {config.sampling.value} data of {N} "
            f"individuals draws an integer in [{N}, {most}]", field="data_dir")

    def table(name, shape):
        path = os.path.join(data_dir, f"{name}.npy")
        # np.save's header for a C-ordered native float64 array of `shape`, padding aside.
        want = f"{{'descr': {np.dtype(float).str!r}, 'fortran_order': False, 'shape': {shape}, }}"
        try:
            with open(path, "rb") as fh:
                magic, length = fh.read(8), fh.read(2)
                header = fh.read(int.from_bytes(length, "little")).decode("latin1").rstrip()
                size = os.fstat(fh.fileno()).st_size - fh.tell()  # the data's bytes
                ok = (magic, header, size) == (b"\x93NUMPY\x01\x00", want, 8 * math.prod(shape))
                values = np.empty(shape) if ok else None  # allocate no more than the file holds
                if not ok or fh.readinto(values) != size:
                    raise ConfigurationError(
                        f"{path} is not np.save's file of a C-ordered {shape} float64 array: "
                        f"header {header[:200]!r}, {size} data bytes", field="data_dir")
        except OSError as exc:  # the message already names the path
            raise ConfigurationError(f"cannot read {name}.npy: {exc}", field="data_dir") from None
        if not np.isfinite(values).all():
            raise ConfigurationError(f"{path} has non-finite cells", field="data_dir")
        return values

    y = table("y", (N, T))
    n_bad = int(np.count_nonzero(y < 0.0 if censored else y <= 0.0))
    if n_bad:
        raise ConfigurationError(
            f"{os.path.join(data_dir, 'y.npy')} has {n_bad} outcomes "
            f"{'below 0' if censored else 'at or below 0'} in {config.sampling.value} data",
            field="data_dir")
    return PanelDataset(
        y=y,
        x=table("x", (N, T, K)),
        z=table("z", (N, T)) if restated["has_z"] else None,
        config=config,
        n_drawn=n_drawn,
    )
