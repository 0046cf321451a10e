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
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, ConvergenceError, TobitIVError
from .gmm import LinearIVResult, nonlinear_gmm, two_stage_least_squares
from .moments import (
    MomentSystem,
    NonlinearMomentSystem,
    Param,
    all_pairs,
    build_cross_section,
    build_factor_loading,
    build_pairwise_independent,
    build_pairwise_nonstationary_orders,
    build_pairwise_slope_fe,
    build_triple_additive_variance,
    build_triple_variance_fe,
    instrument_set,
    # Not used here: perfbench/tracing.py looks these three names up on this module.
    censored_index_instruments,
    levels_squares_instruments,
    pair_product_instruments,
    stack_systems,
)
from .simulate import SYSTEM_SHAPES, ModelVariant, PanelConfig, PanelDataset, is_int, simulate
from .truncmoments import MAX_TOTAL_ORDER

FAILURE_FRACTION_LIMIT = 0.2

# Variants whose system is built from one pair (the first of `pairs`).
_SINGLE_PAIR = (ModelVariant.FACTOR_LOADING, ModelVariant.SLOPE_FE)


@dataclass
class EstimatorSpec:
    """Which moment rows to build and which instruments the builders use.

    `instruments` names a set in `moments.INSTRUMENT_SETS` for the variant's
    system shape: "default", "levels_squares" or "products" for pair systems,
    "default", "index_proxy" or "levels_squares" for triple systems, and
    "default" for the cross-section. `validate` checks the spec against a
    panel config before anything is built.
    """

    pairs: Optional[Sequence] = None  # [(t, s), ...]; None = variant default
    triple: Sequence = (0, 1, 2)
    orders: Sequence = ((1, 1),)  # (k, m) list for the nonstationary rows
    instruments: str = "default"
    cross_section_order: int = 1

    @classmethod
    def from_dict(cls, d: dict) -> "EstimatorSpec":
        d = dict(d)
        if d.get("pairs") is not None:
            d["pairs"] = [tuple(p) for p in d["pairs"]]
        if "triple" in d:
            d["triple"] = tuple(d["triple"])
        if "orders" in d:
            d["orders"] = tuple(tuple(o) for o in d["orders"])
        return cls(**d)

    def validate(self, config: PanelConfig) -> None:
        """Raise ConfigurationError unless the spec can be built on this panel.

        The instrument kind must be one the variant's system shape offers;
        each pair, or the triple, must hold distinct periods in [0, T); each
        order (k, m), and the cross-section order k, must hold integers >= 1
        whose rows' highest moment order, k + m + 1 or k + 1, is at most
        MAX_TOTAL_ORDER, the highest order the `truncmoments` oracle computes;
        no pair or order may repeat, and the single-pair variants take at most
        one pair.
        """
        _check_entries(self.orders, "orders", f"must be two {IDENTITY_ORDER_RULE}",
                       is_identity_order)
        if not (is_int(self.cross_section_order)
                and 1 <= self.cross_section_order < MAX_TOTAL_ORDER):
            raise ConfigurationError(
                f"cross_section_order must be an integer in [1, {MAX_TOTAL_ORDER - 1}]",
                field="cross_section_order")
        shape = SYSTEM_SHAPES[config.variant]
        instrument_set(shape, self.instruments)
        if shape == "cell":
            return
        field_name, width = ("pairs", 2) if shape == "pair" else ("triple", 3)
        entries = list(self.pairs or []) if shape == "pair" else [self.triple]
        T = config.n_periods
        _check_entries(
            entries, field_name, f"must be {width} distinct periods in [0, {T})",
            lambda e: len(e) == width and all(is_int(p) and 0 <= p < T for p in e)
            and len(set(e)) == width,
        )
        if len(entries) > 1 and config.variant in _SINGLE_PAIR:
            raise ConfigurationError(
                f"variant {config.variant.value} takes one pair, got {len(entries)}",
                field="pairs",
            )


IDENTITY_ORDER_RULE = f"integers >= 1 with k + m + 1 <= {MAX_TOTAL_ORDER}"


def is_identity_order(o) -> bool:
    """True for an order (k, m) of two integers >= 1 whose identity's highest
    moment order, k + m + 1, is at most MAX_TOTAL_ORDER: the rule for the
    orders of nonstationary rows and of `verify`."""
    return (isinstance(o, (list, tuple)) and len(o) == 2
            and all(is_int(v) and v >= 1 for v in o) and o[0] + o[1] + 1 <= MAX_TOTAL_ORDER)


def _check_entries(entries, field_name: str, rule: str, valid) -> None:
    """ConfigurationError on the first entry that breaks `valid` or repeats."""
    seen = set()
    for entry in entries:
        entry = tuple(entry) if isinstance(entry, (list, tuple, np.ndarray)) else (entry,)
        if not valid(entry):
            raise ConfigurationError(f"{field_name} entry {list(entry)} {rule}",
                                     field=field_name)
        if entry in seen:
            raise ConfigurationError(f"{field_name} entry {list(entry)} is repeated",
                                     field=field_name)
        seen.add(entry)


@dataclass
class ReplicationRecord:
    replication: int
    sample_size: int
    wall_ms: float
    result: Optional[LinearIVResult]  # None when the replication failed
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.result is None


@dataclass
class StudySummary:
    """Per-parameter Monte Carlo summary at one sample size."""

    sample_size: int
    param_names: list
    truth: np.ndarray
    n_replications: int
    n_failed: int
    mean_estimate: np.ndarray
    mean_bias: np.ndarray
    se_of_mean: np.ndarray
    rmse: np.ndarray
    median_se: np.ndarray
    coverage95: np.ndarray
    records: list = field(repr=False, default_factory=list)


def replication_seed(master_seed: int, j: int) -> int:
    """Substream seed for replication j; no two replications share draws."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(j),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@np.errstate(over="ignore", invalid="ignore")
def build_estimation_system(
    dataset: PanelDataset, config: PanelConfig, spec: EstimatorSpec
) -> Union[MomentSystem, NonlinearMomentSystem]:
    """Variant-appropriate moment system, built with the spec's instrument set.

    Rows whose powers overflow come out inf or nan, without a warning; the
    solvers reject them with a DomainError.
    """
    variant = config.variant
    kind = spec.instruments
    pairs = list(spec.pairs) if spec.pairs else all_pairs(config.n_periods)
    first_pair = pairs[0] if spec.pairs else (1, 0)
    if variant is ModelVariant.CROSS_SECTION:
        return build_cross_section(dataset, spec.cross_section_order, instruments=kind)
    if variant is ModelVariant.INDEPENDENT_ERRORS:
        return stack_systems(
            [build_pairwise_independent(dataset, t, s, instruments=kind) for t, s in pairs]
        )
    if variant is ModelVariant.NON_STATIONARY:
        return stack_systems(
            [
                system
                for t, s in pairs
                for system in build_pairwise_nonstationary_orders(
                    dataset, t, s, spec.orders, instruments=kind
                )
            ]
        )
    if variant is ModelVariant.FACTOR_LOADING:
        return build_factor_loading(dataset, *first_pair, instruments=kind)
    if variant is ModelVariant.VARIANCE_FE:
        return build_triple_variance_fe(dataset, *spec.triple, instruments=kind)
    if variant is ModelVariant.ADDITIVE_VARIANCE:
        return build_triple_additive_variance(dataset, *spec.triple, instruments=kind)
    if variant is ModelVariant.SLOPE_FE:
        return build_pairwise_slope_fe(dataset, *first_pair, instruments=kind)
    raise ValueError(f"unhandled variant {variant}")


def true_parameter_values(config: PanelConfig, params: Sequence[Param]) -> np.ndarray:
    """Population values of the described parameters implied by the config.

    Each `Param` carries its kind and the regressor or periods it refers to,
    so any pair or triple of any panel length is supported.
    """
    cov = np.asarray(config.error_cov, dtype=float)
    rho = config.factor_loadings

    def ratio(t, s):
        return rho[t] / rho[s]

    truth = {
        "beta": lambda k: config.beta[k],
        "sigma2": lambda: cov[0, 0],
        "sigma2_t": lambda t: cov[t, t],
        "dvar": lambda t, s: cov[t, t] - cov[t, s],
        "dvar_ref": lambda t, tau: cov[t, t] - cov[tau, tau],
        "cov": lambda t, s: cov[t, s],
        "r": ratio,
        "a": lambda t, s: cov[s, s] * ratio(t, s) - cov[t, s],
        "b": lambda t, s: cov[t, t] - cov[t, s] * ratio(t, s),
    }
    return np.array([truth[p.kind](*p.indices) for p in params], dtype=float)


def run_replication(
    config: PanelConfig, spec: EstimatorSpec, j: int, master_seed: int
) -> ReplicationRecord:
    seed = replication_seed(master_seed, j)
    cfg = replace(config, seed=seed)
    start = time.perf_counter()
    result, error = None, None
    try:
        dataset = simulate(cfg)
        system = build_estimation_system(dataset, cfg, spec)
        if isinstance(system, NonlinearMomentSystem):
            result = nonlinear_gmm(system)
        else:
            result = two_stage_least_squares(system)
    except ConfigurationError:
        raise  # the config is at fault, not this replication
    except TobitIVError as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall = 1e3 * (time.perf_counter() - start)
    return ReplicationRecord(j, cfg.n_individuals, wall, result, error)


def available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # Linux
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_replication_args(args):
    return run_replication(*args)


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
        se_of_mean=(
            est.std(axis=0, ddof=1) / np.sqrt(len(good))
            if len(good) > 1
            else np.zeros(est.shape[1])
        ),
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
    or available CPUs.
    """
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
        for cfg in configs:
            tasks = [(cfg, spec, j, master_seed) for j in range(n_replications)]
            if pool is None:
                records = [run_replication(*t) for t in tasks]
            else:
                records = list(pool.map(_run_replication_args, tasks, chunksize=chunksize))
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
