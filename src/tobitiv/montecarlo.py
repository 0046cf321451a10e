"""Replication harness: simulate, build, estimate, and summarize.

Each replication draws a fresh panel from a substream of the master seed,
runs the variant's estimator, and keeps the solver's result as the record.
Failures (insufficient pairs at small N, failed identification checks) are
recorded and excluded from the summaries; the study aborts only when more
than 20% of replications fail.
"""

from __future__ import annotations

import os
import time
from concurrent import futures
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, ConvergenceError, TobitIVError
from .gmm import LinearIVResult, nonlinear_gmm, two_stage_least_squares
from .moments import (
    MomentSystem,
    NonlinearMomentSystem,
    Param,
    all_pairs,
    are_periods,
    build_cross_section,
    build_factor_loading,
    build_pairwise_independent,
    build_pairwise_nonstationary_orders,
    build_pairwise_slope_fe,
    build_triple_additive_variance,
    build_triple_variance_fe,
    instrument_set,
    is_order,
    # Not used here: perfbench/tracing.py looks these three names up on this module.
    censored_index_instruments,
    levels_squares_instruments,
    pair_product_instruments,
    stack_systems,
)
from .simulate import (
    SEED_RULE,
    VARIANT_INPUTS,
    ModelVariant,
    PanelConfig,
    PanelDataset,
    check_keys,
    check_rules,
    check_variant_fields,
    convert_fields,
    draw_panel,
    is_int,
    written,
)
from .truncmoments import MAX_TOTAL_ORDER

# A replication's draw, without `simulate`'s validation: `run_study` validates
# each config once. perfbench/tracing.py times the simulate layer by wrapping
# this name.
simulate = draw_panel

FAILURE_FRACTION_LIMIT = 0.2

# Each study input: the test a value must pass and the rule it states. Every
# replication's record is held until the summary, hence the bound on the count.
STUDY_RULES = {
    "config": (lambda v: isinstance(v, PanelConfig), "a PanelConfig"),
    "spec": (lambda v: isinstance(v, EstimatorSpec), "an EstimatorSpec"),
    "replications": (lambda v: is_int(v) and 1 <= v <= 100_000, "an integer in [1, 100000]"),
    "sample_sizes": (lambda v: v is None or isinstance(v, (list, tuple)) and len(v) > 0 and all(
        is_int(n) and n >= 1 for n in v) and list(v) == sorted(set(v)),
        "a list of positive, strictly increasing integers"),
    "master_seed": SEED_RULE,
    "replication": (lambda v: is_int(v) and v >= 0, "an integer >= 0"),
    "workers": (lambda v: is_int(v) and v >= 1, "an integer >= 1"),
}


# Each estimator field with a rule of its own value: an empty pairs list would run the
# default pairs, an empty orders list no rows, and cross-section rows reach order k + 1.
_SPEC_RULES = {
    "pairs": (lambda v: v is None or len(v) > 0, "null or a non-empty list of pairs"),
    "orders": (lambda v: len(v) > 0, "a non-empty list of [k, m]"),
    "cross_section_order": (lambda v: is_int(v) and 1 <= v < MAX_TOTAL_ORDER,
                            f"an integer in [1, {MAX_TOTAL_ORDER - 1}]"),
}

# The estimator fields that EstimatorSpec converts from their JSON lists to tuples.
_SPEC_CONVERSIONS = {"pairs": lambda v: None if v is None else tuple(tuple(p) for p in v),
                     "triple": tuple, "orders": lambda v: tuple(tuple(o) for o in v)}


@dataclass(frozen=True)
class EstimatorSpec:
    """Which moment rows to build and which instruments the builders use.

    `instruments` names a set in `moments.INSTRUMENT_SETS` for the variant's
    system shape: "default", "levels_squares" or "products" for pair systems,
    "default", "index_proxy" or "levels_squares" for triple systems, and
    "default" for the cross-section. The constructor converts `pairs`, `triple`
    and `orders` to tuples; `validate` checks the spec against a panel config.
    """

    pairs: Optional[Sequence] = None  # ((t, s), ...); None = variant default
    triple: Sequence = (0, 1, 2)
    orders: Sequence = ((1, 1),)  # ((k, m), ...) for the nonstationary rows
    instruments: str = "default"
    cross_section_order: int = 1

    def __post_init__(self):
        convert_fields(self, _SPEC_CONVERSIONS)

    @classmethod
    def from_dict(cls, d: dict) -> "EstimatorSpec":
        check_keys(d, cls, "estimator")
        return cls(**d)

    def validate(self, config: PanelConfig) -> None:
        """Raise ConfigurationError unless the spec can be built on this panel.

        The instrument kind must be one the variant's system shape offers;
        each pair, or the triple, must hold distinct periods in [0, T); each
        order (k, m), and the cross-section order k, must hold integers >= 1
        whose rows' highest moment order, k + m + 1 or k + 1, is at most
        MAX_TOTAL_ORDER, the highest order the `truncmoments` oracle computes;
        no list may be empty, no pair or order may repeat, and the single-pair variants
        take one pair. A field the variant's rows do not read (VARIANT_INPUTS) must keep
        its default; `pairs` None means the variant's default pairs.
        """
        check_variant_fields(self, config.variant, "spec", unset_ok=("pairs",))
        check_rules(vars(self), _SPEC_RULES)
        _check_entries(self.orders, "orders", f"must be two {IDENTITY_ORDER_RULE}",
                       is_identity_order)
        shape = VARIANT_INPUTS[config.variant].shape
        instrument_set(shape, self.instruments)
        if shape == "cell":
            return
        field_name, width = ("pairs", 2) if shape == "pair" else ("triple", 3)
        entries = list(self.pairs or ()) if shape == "pair" else [self.triple]
        T = config.n_periods
        _check_entries(
            entries, field_name, f"must be {width} distinct periods in [0, {T})",
            lambda e: len(e) == width and are_periods(e, T))
        if len(entries) > 1 and VARIANT_INPUTS[config.variant].single_pair:
            raise ConfigurationError(
                f"variant {config.variant.value} takes one pair, got {len(entries)}",
                field="pairs",
            )


IDENTITY_ORDER_RULE = f"integers >= 1 with k + m + 1 <= {MAX_TOTAL_ORDER}"


def is_identity_order(o) -> bool:
    """True for an order (k, m) that passes `is_order` and whose identity's highest
    moment order, k + m + 1, is at most MAX_TOTAL_ORDER: the rule for the
    orders of nonstationary rows and of `verify`."""
    return is_order(o) and o[0] + o[1] + 1 <= MAX_TOTAL_ORDER


def _check_entries(entries, field_name: str, rule: str, valid) -> None:
    """ConfigurationError on the first entry, a tuple, that breaks `valid` or repeats."""
    seen = set()
    for entry in entries:
        if not valid(entry):
            raise ConfigurationError(f"{field_name} entry {list(entry)} {rule}",
                                     field=field_name)
        if entry in seen:
            raise ConfigurationError(f"{field_name} entry {list(entry)} is repeated",
                                     field=field_name)
        seen.add(entry)


@dataclass(frozen=True, kw_only=True)
class ReplicationRecord:
    """One replication: a replications.csv row, its fields in column order. `converged`
    (0 when the replication failed) and `j_statistic` are derived from `result`."""

    sample_size: int = written("sample_size")
    replication: int = written("replication")
    converged: int = written("converged", init=False)
    wall_ms: float = written("wall_ms")
    j_statistic: Optional[float] = written("j_statistic", init=False)
    error: Optional[str] = written("error", default=None)
    result: Optional[LinearIVResult] = written(nested=True, default=None)  # None if failed

    def __post_init__(self):
        object.__setattr__(self, "converged",
                           int(self.result is not None and self.result.converged))
        object.__setattr__(self, "j_statistic",
                           None if self.result is None else self.result.j_statistic)

    @property
    def failed(self) -> bool:
        return self.result is None


@dataclass(kw_only=True)
class StudySummary:
    """Per-parameter Monte Carlo summary at one sample size: summary.csv's rows."""

    sample_size: int = written("sample_size")
    param_names: list = written("parameter", per_param=True)
    truth: np.ndarray = written("truth", per_param=True)
    mean_estimate: np.ndarray = written("mean_estimate", per_param=True)
    mean_bias: np.ndarray = written("mean_bias", per_param=True)
    se_of_mean: np.ndarray = written("se_of_mean", per_param=True)
    rmse: np.ndarray = written("rmse", per_param=True)
    median_se: np.ndarray = written("median_se", per_param=True)
    coverage95: np.ndarray = written("coverage95", per_param=True)
    n_replications: int = written("n_replications")
    n_failed: int = written("n_failed")
    records: list = field(repr=False, default_factory=list)


def replication_seed(master_seed: int, j: int) -> int:
    """Substream seed for replication j; no two replications share draws."""
    check_rules({"master_seed": master_seed, "replication": j}, STUDY_RULES)
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(j),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# Each variant's moment system from its dataset, estimator spec and pairs.
VARIANT_BUILDERS = {
    ModelVariant.CROSS_SECTION: lambda data, spec, pairs: build_cross_section(
        data, spec.cross_section_order, instruments=spec.instruments),
    ModelVariant.INDEPENDENT_ERRORS: lambda data, spec, pairs: stack_systems(
        [build_pairwise_independent(data, t, s, instruments=spec.instruments) for t, s in pairs]),
    ModelVariant.NON_STATIONARY: lambda data, spec, pairs: stack_systems(
        [system for t, s in pairs for system in build_pairwise_nonstationary_orders(
            data, t, s, spec.orders, instruments=spec.instruments)]),
    ModelVariant.FACTOR_LOADING: lambda data, spec, pairs: build_factor_loading(
        data, *pairs[0], instruments=spec.instruments),
    ModelVariant.VARIANCE_FE: lambda data, spec, pairs: build_triple_variance_fe(
        data, *spec.triple, instruments=spec.instruments),
    ModelVariant.ADDITIVE_VARIANCE: lambda data, spec, pairs: build_triple_additive_variance(
        data, *spec.triple, instruments=spec.instruments),
    ModelVariant.SLOPE_FE: lambda data, spec, pairs: build_pairwise_slope_fe(
        data, *pairs[0], instruments=spec.instruments),
}


@np.errstate(over="ignore", invalid="ignore")
def build_estimation_system(
    dataset: PanelDataset, config: PanelConfig, spec: EstimatorSpec
) -> Union[MomentSystem, NonlinearMomentSystem]:
    """The variant's system (VARIANT_BUILDERS), built with the spec's instrument set, on
    the spec's pairs or by default every pair, or (1, 0) for a single-pair variant.

    Rows whose powers overflow come out inf or nan, without a warning; the
    solvers reject them with a DomainError.
    """
    single_pair = VARIANT_INPUTS[config.variant].single_pair
    default_pairs = [(1, 0)] if single_pair else all_pairs(config.n_periods)
    return VARIANT_BUILDERS[config.variant](dataset, spec, spec.pairs or default_pairs)


def true_parameter_values(config: PanelConfig, params: Sequence[Param]) -> np.ndarray:
    """Population values of the described parameters implied by the config."""
    return np.array([p.truth(config) for p in params])


def run_replication(
    config: PanelConfig, spec: EstimatorSpec, j: int, master_seed: int
) -> ReplicationRecord:
    """Replication j of a study. It takes only inputs that `run_study` has checked: it
    checks neither the config nor the spec, and an unchecked one may raise any error."""
    seed = replication_seed(master_seed, j)
    cfg = replace(config, seed=seed)
    start = time.perf_counter()
    result, error = None, None
    try:
        dataset = simulate(cfg)
        system = build_estimation_system(dataset, cfg, spec)
        nonlinear = isinstance(system, NonlinearMomentSystem)
        result = (nonlinear_gmm if nonlinear else two_stage_least_squares)(system)
    except ConfigurationError:
        raise  # the config is at fault, not this replication
    except TobitIVError as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall = 1e3 * (time.perf_counter() - start)
    return ReplicationRecord(sample_size=cfg.n_individuals, replication=j, wall_ms=wall,
                             error=error, result=result)


def available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # Linux
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def summarize(
    records: Sequence[ReplicationRecord], truth: np.ndarray, param_names: Sequence[str]
) -> StudySummary:
    good = [r for r in records if not r.failed]
    n_failed = len(records) - len(good)
    if not good:
        raise ConvergenceError("all replications failed")
    est = np.vstack([r.result.estimates for r in good])
    se = np.vstack([r.result.se for r in good])
    truth = np.asarray(truth, dtype=float)
    bias = est.mean(axis=0) - truth
    covered = np.abs(est - truth) <= 1.959963984540054 * se
    return StudySummary(
        sample_size=records[0].sample_size,
        param_names=list(param_names),
        truth=truth,
        n_replications=len(records),
        n_failed=n_failed,
        mean_estimate=est.mean(axis=0),
        mean_bias=bias,
        se_of_mean=(est.std(axis=0, ddof=1) / np.sqrt(len(good)) if len(good) > 1
                    else np.zeros(est.shape[1])),
        rmse=np.sqrt(((est - truth) ** 2).mean(axis=0)),
        median_se=np.median(se, axis=0),
        coverage95=covered.mean(axis=0),
        records=list(records),
    )


def run_study(
    config: PanelConfig,
    spec: EstimatorSpec,
    n_replications: int,
    master_seed: int,
    sample_sizes: Optional[Sequence[int]] = None,
    workers: int = 1,
) -> list:
    """One StudySummary per sample size, replications in deterministic order.

    Worker-pool execution returns results in replication order, so output is
    identical to sequential execution. One pool serves every sample size. It
    has at most `workers` processes, and no more than there are replications
    or available CPUs. Each input is checked against STUDY_RULES before any work.
    """
    check_rules({"config": config, "spec": spec, "workers": workers, "master_seed": master_seed,
                 "replications": n_replications, "sample_sizes": sample_sizes}, STUDY_RULES)
    spec.validate(config)
    sizes = list(sample_sizes) if sample_sizes is not None else [config.n_individuals]
    configs = [replace(config, n_individuals=int(size)) for size in sizes]
    for cfg in configs:
        cfg.validate()
    n_workers = min(workers, n_replications, available_cpus())
    chunksize = -(-n_replications // n_workers)  # one contiguous share per worker
    summaries = []
    # futures loads the pool machinery on first access, so only a pool imports it.
    with (futures.ProcessPoolExecutor(max_workers=n_workers) if n_workers > 1
          else nullcontext()) as pool:
        mapper = map if pool is None else partial(pool.map, chunksize=chunksize)
        for cfg in configs:
            records = list(mapper(partial(run_replication, cfg, spec, master_seed=master_seed),
                                  range(n_replications)))
            n_failed = sum(r.failed for r in records)
            if n_failed > FAILURE_FRACTION_LIMIT * n_replications:
                reasons = {r.error for r in records if r.failed}
                raise ConvergenceError(
                    f"{n_failed}/{n_replications} replications failed at "
                    f"N={cfg.n_individuals}: " + "; ".join(sorted(reasons))
                )
            params = next(r.result.params for r in records if not r.failed)
            truth = true_parameter_values(cfg, params)
            summaries.append(summarize(records, truth, [p.name for p in params]))
    return summaries
