"""Spans for the traced benchmark run, recorded from outside the program.

Tracing rebinds the module-level names that the program's callers look up
(``tobitiv.montecarlo.simulate``, ``tobitiv.cli.run_study``, ...) to wrappers
that record a span around each call. Nothing in ``src/`` changes. Spans are
kept in memory and written out when the run ends. Self time is a span's
duration minus the durations of its children: the program is single-threaded,
so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict


class Tracer:
    """Records spans (name, start, end, parent, attrs) when enabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._open = []
        self._originals = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module_name: str, attr: str, span_name: str, annotate=None) -> None:
        """Rebind `module.attr` to a traced wrapper.

        `annotate(args, result)` runs after the span has closed, so the work
        it does to describe the call is not counted in the call's time.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(span_name) as record:
                result = original(*args, **kwargs)
            if annotate is not None:
                record["attrs"].update(annotate(args, result))
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _build_attrs(args, system):
    dataset, _config, spec = args[:3]
    return {
        "kind": spec.instruments,
        "rows": system.n_rows,
        "cols": system.instruments.shape[1],
        "individuals": dataset.n_individuals,
    }


def _solve_attrs(args, result):
    system = args[0]
    return {
        "n": system.n_rows,
        "q": system.instruments.shape[1],
        "p": len(result.param_names),
        "j_dof": result.j_dof,
        "iterations": getattr(result, "iterations", None),
    }


def _load_attrs(args, _dataset):
    data_dir = args[0]
    return {"bytes": sum(e.stat().st_size for e in os.scandir(data_dir) if e.is_file())}


DEFAULT_SETS = ("moments.default_instruments", "moments.triple_instruments")
OVERRIDE_SET = "moments.override_instruments"
SOLVES = ("gmm.tsls", "gmm.nlgmm")


def instrument_program(tracer: Tracer) -> None:
    """Wrap the public functions each layer's callers use."""
    mc, cli, moments = "tobitiv.montecarlo", "tobitiv.cli", "tobitiv.moments"
    tracer.wrap(mc, "simulate", "simulate")
    tracer.wrap(mc, "build_estimation_system", "moments.build", _build_attrs)
    tracer.wrap(mc, "two_stage_least_squares", "gmm.tsls", _solve_attrs)
    tracer.wrap(mc, "nonlinear_gmm", "gmm.nlgmm", _solve_attrs)
    tracer.wrap(mc, "run_replication", "montecarlo.replication")
    tracer.wrap(mc, "summarize", "montecarlo.summarize")
    for attr in ("levels_squares_instruments", "pair_product_instruments",
                 "censored_index_instruments"):
        tracer.wrap(mc, attr, OVERRIDE_SET)
    # The builders' own instrument sets, which a non-default spec overwrites.
    tracer.wrap(moments, "default_instruments", DEFAULT_SETS[0])
    tracer.wrap(moments, "_triple_instruments", DEFAULT_SETS[1])
    tracer.wrap(cli, "run_study", "montecarlo.study")
    tracer.wrap(cli, "load_dataset", "simulate.load", _load_attrs)
    tracer.wrap(cli, "build_estimation_system", "moments.build", _build_attrs)
    tracer.wrap(cli, "two_stage_least_squares", "gmm.tsls", _solve_attrs)
    tracer.wrap(cli, "nonlinear_gmm", "gmm.nlgmm", _solve_attrs)
    tracer.wrap(cli, "moment_identity_residual", "truncmoments.identity")


# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "simulate.ms": "ms",
    "simulate.calls": "count",
    "simulate.load_ms": "ms",
    "simulate.save_ms": "ms",
    "simulate.bytes_read": "bytes",
    "moments.build_ms": "ms",
    "moments.calls": "count",
    "moments.discarded_instrument_ms": "ms",
    "moments.instrument_sets_used_frac": "ratio",
    "moments.rows_per_individual": "ratio",
    "moments.instrument_cols": "count",
    "gmm.tsls_ms": "ms",
    "gmm.nlgmm_ms": "ms",
    "gmm.solve_ms": "ms",
    "gmm.calls": "count",
    "gmm.nlgmm_evals": "count",
    "gmm.instruments_pruned": "count",
    "gmm.z_mb": "MB",
    "montecarlo.self_ms": "ms",
    "montecarlo.summarize_ms": "ms",
    "cli.self_ms": "ms",
    "truncmoments.identity_ms.p50": "ms",
    "truncmoments.identity_ms.p90": "ms",
    "truncmoments.calls": "count",
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list, n_units: int) -> dict:
    """Per-layer values from the spans of one traced run.

    Times are means per call over the whole run, set-up included; `*.calls`
    counts calls per timed unit. A layer the workload never calls reads 0.
    """
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    children = defaultdict(list)
    named = defaultdict(list)
    root = {}
    for s in spans:
        named[s["name"]].append(s)
        parent = s["parent"]
        root[s["id"]] = s["id"] if parent is None else root[parent]
        if parent is not None:
            children[parent].append(s)

    def ms(*names):
        return 1e3 * _mean(duration[s["id"]] for n in names for s in named[n])

    def self_ms(name):
        return 1e3 * _mean(
            duration[s["id"]] - sum(duration[c["id"]] for c in children[s["id"]])
            for s in named[name]
        )

    def calls_per_unit(*names):
        timed = sum(1 for n in names for s in named[n]
                    if spans[root[s["id"]]]["name"] == "cli.main")
        return timed / n_units

    # A call that raised has no attrs; it still counts in the time metrics.
    builds = [b for b in named["moments.build"] if b["attrs"]]
    discarded_s, sets_built, sets_used = [], 0, 0
    for b in builds:
        kids = children[b["id"]]
        defaults = [c for c in kids if c["name"] in DEFAULT_SETS]
        overrides = [c for c in kids if c["name"] == OVERRIDE_SET]
        sets_built += len(defaults) + len(overrides)
        if b["attrs"]["kind"] == "default":
            sets_used += len(defaults)
            discarded_s.append(0.0)
        else:
            sets_used += len(overrides)
            discarded_s.append(sum(duration[c["id"]] for c in defaults))

    solves = [s for n in SOLVES for s in named[n] if s["attrs"]]
    identity_ms = sorted(1e3 * duration[s["id"]] for s in named["truncmoments.identity"])
    if len(identity_ms) > 1:
        p90 = statistics.quantiles(identity_ms, n=10, method="inclusive")[-1]
    else:
        p90 = identity_ms[0] if identity_ms else 0.0

    values = {
        "simulate.ms": ms("simulate"),
        "simulate.calls": calls_per_unit("simulate"),
        "simulate.load_ms": ms("simulate.load"),
        "simulate.save_ms": ms("simulate.save"),
        "simulate.bytes_read": _mean(s["attrs"]["bytes"] for s in named["simulate.load"]),
        "moments.build_ms": ms("moments.build"),
        "moments.calls": calls_per_unit("moments.build"),
        "moments.discarded_instrument_ms": 1e3 * _mean(discarded_s),
        "moments.instrument_sets_used_frac": sets_used / sets_built if sets_built else 0.0,
        "moments.rows_per_individual": _mean(
            b["attrs"]["rows"] / b["attrs"]["individuals"] for b in builds),
        "moments.instrument_cols": _mean(b["attrs"]["cols"] for b in builds),
        "gmm.tsls_ms": ms("gmm.tsls"),
        "gmm.nlgmm_ms": ms("gmm.nlgmm"),
        "gmm.solve_ms": ms(*SOLVES),
        "gmm.calls": calls_per_unit(*SOLVES),
        "gmm.nlgmm_evals": _mean(
            s["attrs"]["iterations"] for s in named["gmm.nlgmm"] if s["attrs"]),
        "gmm.instruments_pruned": _mean(
            s["attrs"]["q"] - (s["attrs"]["j_dof"] + s["attrs"]["p"]) for s in solves),
        "gmm.z_mb": max((8 * s["attrs"]["n"] * s["attrs"]["q"] / 1e6 for s in solves),
                        default=0.0),
        "montecarlo.self_ms": self_ms("montecarlo.replication"),
        "montecarlo.summarize_ms": ms("montecarlo.summarize"),
        "cli.self_ms": self_ms("cli.main"),
        "truncmoments.identity_ms.p50": statistics.median(identity_ms) if identity_ms else 0.0,
        "truncmoments.identity_ms.p90": p90,
        "truncmoments.calls": calls_per_unit("truncmoments.identity"),
    }
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
