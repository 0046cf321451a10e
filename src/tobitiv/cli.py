"""Command-line front end.

Subcommands: `simulate`, `estimate`, `montecarlo`, `verify`. Configuration
is declarative JSON; datasets are `.npy` tables (`simulate.save_dataset`), and
results CSV, floats at 17 significant digits, or JSON. Exit codes:
0 success, 2 config or argument error, 3 estimation error or out of memory,
4 verification failure. Every error path writes a machine-parsable JSON
object to stderr. Each command checks every section of its config, and its
output directory, before any work; it creates that directory just before its
first write, so a run that fails leaves none.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import ConfigurationError, ConvergenceError, TobitIVError
from .gmm import nonlinear_gmm, two_stage_least_squares
from .moments import NonlinearMomentSystem
from .montecarlo import (
    IDENTITY_ORDER_RULE,
    EstimatorSpec,
    build_estimation_system,
    STUDY_RULES,
    is_identity_order,
    run_study,
)
from .simulate import (
    SEED_RULE,
    PanelConfig,
    Sampling,
    censoring_rate,
    check_keys,
    check_output_dir,
    check_rules,
    format_float,
    is_int,
    is_number,
    load_dataset,
    save_dataset,
    simulate,
    tabulate,
    write_csv,
    write_json,
)
from .truncmoments import (
    IDENTITY_TOL_RULE,
    BivariateNormalSpec,
    IdentityCheck,
    MomentQuery,
    moment_identity_residual,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ESTIMATION = 3
EXIT_VERIFY = 4


def _emit_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("field", "acceptance_rate", "achieved"):
        if getattr(exc, attr, None) is not None:
            payload[attr] = getattr(exc, attr)
    print(json.dumps(payload), file=sys.stderr)


# The top-level keys a simulate, estimate or montecarlo config may hold.
_CONFIG_KEYS = ("variant", "panel", "estimator", "replications", "sample_sizes", "master_seed",
                "output_dir")


def _load_json(path: str, keys=_CONFIG_KEYS) -> dict:
    """The config object at `path`; a non-object or a key outside `keys` is an error."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}")
    check_keys(cfg, keys)
    return cfg


def _study(args, panel_seed=None, master_seed=None, data=None):
    """(config, panel config, estimator spec, output directory, dataset) of a simulate, estimate
    or montecarlo run, every section checked before any work. `panel_seed` (simulate) and
    `master_seed` (montecarlo) are the `--seed` that replaces the seed the command draws with;
    a panel without a seed takes master_seed, then 0. With `data`, the config's variant and
    panel must agree with the dataset's config, which fills in the rest; the seed may differ."""
    cfg = _load_json(args.config) if args.config else {}
    if master_seed is not None:
        cfg["master_seed"] = master_seed
    check_rules(cfg, STUDY_RULES)
    dataset = load_dataset(data) if data is not None else None
    panel = cfg.get("panel", {})
    if not isinstance(panel, dict):
        raise ConfigurationError("panel must be a JSON object", field="panel")
    # The panel's own keys come first, then the top-level variant, the dataset's config and
    # the seed fallback.
    base = dataset.config.to_dict() if dataset is not None else {}
    top = {"variant": cfg["variant"]} if "variant" in cfg else {}
    panel = {"seed": cfg.get("master_seed", 0), **base, **top, **panel}
    if panel_seed is not None:
        panel["seed"] = panel_seed
    config = PanelConfig.from_dict(panel)
    if dataset is not None:
        got = config.to_dict()
        for name in dict.fromkeys([*base, *got]):
            if name != "seed" and got.get(name) != base.get(name):
                raise ConfigurationError(f"the config gives {name} = {got.get(name)!r}, but "
                                         f"the dataset has {base.get(name)!r}", field=name)
    config.validate()
    spec = EstimatorSpec.from_dict(cfg.get("estimator", {}))
    spec.validate(config)
    return cfg, config, spec, check_output_dir(args.out or cfg.get("output_dir")), dataset


def cmd_simulate(args) -> int:
    _, config, _, out, _ = _study(args, panel_seed=args.seed)
    dataset = simulate(config)
    save_dataset(dataset, out)
    N, T, K = dataset.n_individuals, dataset.n_periods, dataset.n_regressors
    print(f"wrote {out}: N={N} T={T} K={K}")
    if config.sampling is Sampling.CENSORED:
        print(f"censoring rate: {censoring_rate(dataset):.4f}")
    else:
        print(f"truncated sampling: {dataset.n_drawn} individuals drawn for {N} kept")
    return EXIT_OK


def cmd_estimate(args) -> int:
    _, _, spec, out, dataset = _study(args, data=args.data)
    system = build_estimation_system(dataset, dataset.config, spec)
    solve = nonlinear_gmm if isinstance(system, NonlinearMomentSystem) else two_stage_least_squares
    result = solve(system)
    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, "result.json"), result.to_dict())
    print(f"{'parameter':<14s} {'estimate':>22s} {'se':>22s}")
    for name, est, se in zip(result.param_names, result.estimates, result.se):
        print(f"{name:<14s} {format_float(est):>22s} {format_float(se):>22s}")
    if result.j_statistic is not None:
        print(f"J = {format_float(result.j_statistic)} on {result.j_dof} dof")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    cfg, config, spec, out, _ = _study(args, master_seed=args.seed)
    summaries = run_study(
        config, spec, cfg.get("replications"), cfg.get("master_seed", 0),
        sample_sizes=cfg.get("sample_sizes"), workers=args.workers,
    )
    os.makedirs(out, exist_ok=True)
    records = [r for s in summaries for r in s.records]
    names = summaries[0].param_names
    for name, (header, rows) in (("replications", tabulate(records, names)),
                                 ("summary", tabulate(summaries, names, row_per_param=True))):
        path = os.path.join(out, f"{name}.{args.format}")
        if args.format == "json":
            write_json(path, [dict(zip(header, r)) for r in rows])
        else:
            write_csv(path, header, rows)
    for s in summaries:
        print(f"N={s.sample_size}: {s.n_replications - s.n_failed} ok, {s.n_failed} failed")
        for i, name in enumerate(s.param_names):
            print(f"  {name:<14s} bias {s.mean_bias[i]:+.5f}"
                  f"  rmse {s.rmse[i]:.5f}  cover95 {s.coverage95[i]:.3f}")
    return EXIT_OK


RHO_CAP = 0.99


def _is_range(v, above=-math.inf) -> bool:
    return (isinstance(v, list) and len(v) == 2 and all(is_number(b) for b in v)
            and above < v[0] <= v[1])


# Each verify field: its default, the test a value must pass, and the rule it states.
_VERIFY_FIELDS = {
    "n_points": (50, lambda v: is_int(v) and 1 <= v <= 100_000, "an integer in [1, 100000]"),
    "mu_range": ([-2.0, 2.0], _is_range, "[lo, hi] with finite lo <= hi"),
    "sigma2_range": ([0.25, 4.0], lambda v: _is_range(v, above=0.0),
                     "[lo, hi] with finite 0 < lo <= hi"),
    "rho_max": (0.9, lambda v: is_number(v) and 0.0 <= v <= RHO_CAP,
                f"a number in [0, {RHO_CAP}]; near-singular covariances are excluded"),
    "orders": ([[k, m] for k in (1, 2, 3) for m in (1, 2, 3)],
               lambda v: isinstance(v, list) and len(v) > 0 and all(map(is_identity_order, v)),
               f"a non-empty list of [k, m], {IDENTITY_ORDER_RULE}"),
    "tolerance": (1e-6, lambda v: is_number(v) and v > 0, "a positive number"),
    "quadrature_tol": (1e-7, lambda v: is_number(v) and v / 10 > 0, IDENTITY_TOL_RULE),
    "grid_seed": (20260823, *SEED_RULE),
}


def cmd_verify(args) -> int:
    cfg = {name: default for name, (default, _, _) in _VERIFY_FIELDS.items()}
    if args.config:
        cfg.update(_load_json(args.config, (*_VERIFY_FIELDS, "output_dir")))
    if args.seed is not None:
        cfg["grid_seed"] = args.seed
    check_rules(cfg, {name: rule for name, (_, *rule) in _VERIFY_FIELDS.items()})
    out = check_output_dir(args.out or cfg.get("output_dir"))
    rng = np.random.default_rng(cfg["grid_seed"])
    mu_lo, mu_hi = cfg["mu_range"]
    s2_lo, s2_hi = cfg["sigma2_range"]
    points = []
    for _ in range(cfg["n_points"]):  # each point draws s1_sq, s2_sq, rho, mu1, mu2 in turn
        s1_sq, s2_sq = rng.uniform(s2_lo, s2_hi), rng.uniform(s2_lo, s2_hi)
        rho = rng.uniform(-cfg["rho_max"], cfg["rho_max"])
        mu1, mu2 = rng.uniform(mu_lo, mu_hi), rng.uniform(mu_lo, mu_hi)
        # sqrt(s1_sq) * sqrt(s2_sq): s1_sq * s2_sq may overflow
        points.append(BivariateNormalSpec(mu1, mu2, s1_sq, s2_sq,
                                          rho * math.sqrt(s1_sq) * math.sqrt(s2_sq)))
    tol = cfg["tolerance"]
    quad_tol = cfg["quadrature_tol"]
    checks = [IdentityCheck(k, m) for k, m in cfg["orders"]]
    # Points outer, orders inner: every order at a point slices its full-order integrals.
    for spec in points:
        for c in checks:
            try:
                res = abs(moment_identity_residual(spec, MomentQuery(c.k, c.m), tol=quad_tol))
            except ConvergenceError as exc:
                if exc.achieved is None:
                    raise
                # The identity asks its moments for tol / 10; name the value the config set.
                raise ConvergenceError(
                    f"quadrature did not converge to quadrature_tol / 10 = {quad_tol / 10:g} "
                    f"(quadrature_tol = {quad_tol:g}); achieved {exc.achieved:.3e}",
                    achieved=exc.achieved, field="quadrature_tol",
                ) from None
            if res > c.max_abs_residual:
                c.max_abs_residual, c.point = res, spec
    for c in checks:
        print(f"(k={c.k}, m={c.m}): max |residual| = {c.max_abs_residual:.3e}")
    os.makedirs(out, exist_ok=True)
    write_csv(os.path.join(out, "verification.csv"), *tabulate(checks, []))
    worst = max(checks, key=lambda c: c.max_abs_residual)  # the first with the largest
    if worst.max_abs_residual >= tol:
        header, (point,) = tabulate([worst.point], [])
        print(json.dumps({"error": "VerificationFailure",
                          "message": f"residual {worst.max_abs_residual:.3e} >= tolerance {tol:g}",
                          "k": worst.k, "m": worst.m, "point": dict(zip(header, point))}),
              file=sys.stderr)
        return EXIT_VERIFY
    print(f"all residuals below {tol:g}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument error raises ConfigurationError, which `main` writes as one JSON line."""

    def error(self, message):
        raise ConfigurationError(message)


@functools.cache  # one parser per process: building it takes about a millisecond
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tobitiv", description="Censored-panel IV estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_config, seed in (
        ("simulate", cmd_simulate, True, "the panel seed"),
        ("estimate", cmd_estimate, False, None),
        ("montecarlo", cmd_montecarlo, True, "master_seed"),
        ("verify", cmd_verify, False, "grid_seed"),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, help="JSON config path")
        p.add_argument("--out", help="output directory")
        if seed:
            p.add_argument("--seed", type=int, help=f"replaces the config's {seed}")
        p.set_defaults(fn=fn)
    sub.choices["estimate"].add_argument("--data", required=True,
                                         help="dataset directory written by `simulate`")
    sub.choices["montecarlo"].add_argument("--workers", type=int, default=1)
    sub.choices["montecarlo"].add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ConfigurationError, OSError) as exc:
        _emit_error(exc)
        return EXIT_CONFIG
    except (TobitIVError, MemoryError) as exc:
        _emit_error(exc)
        return EXIT_ESTIMATION
