"""Command-line front end.

Subcommands: `simulate`, `estimate`, `montecarlo`, `verify`. Configuration
is declarative JSON; results are CSV/JSON with 17-significant-digit
numerics. Exit codes: 0 success, 2 config error, 3 estimation error,
4 verification failure. Every error path writes a machine-parsable JSON
object to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .errors import ConfigurationError, ConvergenceError, TobitIVError
from .gmm import nonlinear_gmm, two_stage_least_squares
from .moments import NonlinearMomentSystem
from .montecarlo import EstimatorSpec, build_estimation_system, run_study
from .simulate import (
    PanelConfig,
    Sampling,
    censoring_rate,
    is_int,
    is_number,
    load_dataset,
    save_dataset,
    simulate,
)
from .truncmoments import (
    MAX_TOTAL_ORDER,
    BivariateNormalSpec,
    MomentQuery,
    moment_identity_residual,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ESTIMATION = 3
EXIT_VERIFY = 4


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _emit_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("field", "acceptance_rate", "achieved"):
        if getattr(exc, attr, None) is not None:
            payload[attr] = getattr(exc, attr)
    print(json.dumps(payload), file=sys.stderr)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    value = cfg.get(name, {})
    if not isinstance(value, dict):
        raise ConfigurationError(f"{name} must be a JSON object", field=name)
    return value


def _check(ok: bool, name: str, rule: str) -> None:
    if not ok:
        raise ConfigurationError(f"{name} must be {rule}", field=name)


def _panel_config(cfg: dict, seed_override) -> PanelConfig:
    panel = dict(_section(cfg, "panel"))
    if "variant" in cfg:
        panel.setdefault("variant", cfg["variant"])
    if "variant" not in panel:
        raise ConfigurationError("missing 'variant'", field="variant")
    if seed_override is not None:
        panel["seed"] = seed_override
    elif "seed" not in panel:
        panel["seed"] = cfg.get("master_seed", 0)
    config = PanelConfig.from_dict(panel)
    config.validate()
    return config


def _estimator_spec(cfg: dict, config: PanelConfig) -> EstimatorSpec:
    try:
        spec = EstimatorSpec.from_dict(_section(cfg, "estimator"))
    except TypeError as exc:
        raise ConfigurationError(f"bad estimator config: {exc}", field="estimator")
    spec.validate(config)
    return spec


def _out_dir(args, cfg: dict) -> str:
    """The output directory, checked before any work. Commands create it just
    before their first write, so a run that fails leaves no directory."""
    out = args.out or cfg.get("output_dir")
    if not out:
        raise ConfigurationError("no output directory (--out or output_dir)")
    existing = os.path.abspath(out)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigurationError(f"output directory {out} cannot be created: "
                                 f"{existing} is not a directory")
    return out


def cmd_simulate(args) -> int:
    cfg = _load_json(args.config)
    config = _panel_config(cfg, args.seed)
    out = _out_dir(args, cfg)
    dataset = simulate(config)
    save_dataset(dataset, out)
    N, T, K = dataset.n_individuals, dataset.n_periods, dataset.n_regressors
    print(f"wrote {out}: N={N} T={T} K={K}")
    if config.sampling is Sampling.CENSORED:
        print(f"censoring rate: {censoring_rate(dataset):.4f}")
    else:
        print(f"truncated sampling: {dataset.n_drawn} individuals drawn for {N} kept")
    return EXIT_OK


def _solve(system):
    if isinstance(system, NonlinearMomentSystem):
        return nonlinear_gmm(system)
    return two_stage_least_squares(system)


def cmd_estimate(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    dataset = load_dataset(args.data)
    spec = _estimator_spec(cfg, dataset.config)
    out = _out_dir(args, cfg)
    system = build_estimation_system(dataset, dataset.config, spec)
    result = _solve(system)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(result.to_dict(), fh, indent=2)
        fh.write("\n")
    print(f"{'parameter':<14s} {'estimate':>22s} {'se':>22s}")
    for name, est, se in zip(result.param_names, result.estimates, result.se):
        print(f"{name:<14s} {_fmt(est):>22s} {_fmt(se):>22s}")
    if result.j_statistic is not None:
        print(f"J = {_fmt(result.j_statistic)} on {result.j_dof} dof")
    return EXIT_OK


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _replication_rows(summaries):
    names = summaries[0].param_names
    header = ["sample_size", "replication", "converged", "wall_ms", "j_statistic", "error"]
    header += [f"est_{n}" for n in names] + [f"se_{n}" for n in names]
    rows = []
    for summ in summaries:
        for rec in summ.records:
            res = rec.result
            row = [rec.sample_size, rec.replication, int(res is not None and res.converged),
                   _fmt(rec.wall_ms)]
            if res is None:
                row += ["", rec.error] + [""] * (2 * len(names))
            else:
                row += ["" if res.j_statistic is None else _fmt(res.j_statistic), ""]
                row += [_fmt(v) for v in res.estimates] + [_fmt(v) for v in res.se]
            rows.append(row)
    return header, rows


def _summary_rows(summaries):
    header = [
        "sample_size", "parameter", "truth", "mean_estimate", "mean_bias",
        "se_of_mean", "rmse", "median_se", "coverage95",
        "n_replications", "n_failed",
    ]
    rows = []
    for s in summaries:
        for i, name in enumerate(s.param_names):
            rows.append(
                [
                    s.sample_size, name, _fmt(s.truth[i]), _fmt(s.mean_estimate[i]),
                    _fmt(s.mean_bias[i]), _fmt(s.se_of_mean[i]), _fmt(s.rmse[i]),
                    _fmt(s.median_se[i]), _fmt(s.coverage95[i]),
                    s.n_replications, s.n_failed,
                ]
            )
    return header, rows


def cmd_montecarlo(args) -> int:
    cfg = _load_json(args.config)
    replications = cfg.get("replications", 0)
    _check(is_int(replications) and 1 <= replications <= 100_000, "replications",
           "an integer in [1, 100000]")  # every record is held until the summary
    sizes = cfg.get("sample_sizes")
    _check(sizes is None or (
        isinstance(sizes, list) and len(sizes) > 0
        and all(is_int(n) and n >= 1 for n in sizes)
        and all(b > a for a, b in zip(sizes, sizes[1:]))
    ), "sample_sizes", "a list of positive, strictly increasing integers")
    master_seed = args.seed if args.seed is not None else cfg.get("master_seed", 0)
    _check(is_int(master_seed) and master_seed >= 0, "master_seed", "an integer >= 0")
    config = _panel_config(cfg, None)
    spec = _estimator_spec(cfg, config)
    out = _out_dir(args, cfg)
    summaries = run_study(
        config, spec, replications, master_seed,
        sample_sizes=sizes, workers=args.workers,
    )
    rep_header, rep_rows = _replication_rows(summaries)
    sum_header, sum_rows = _summary_rows(summaries)
    os.makedirs(out, exist_ok=True)
    if args.format == "json":
        with open(os.path.join(out, "replications.json"), "w") as fh:
            json.dump([dict(zip(rep_header, r)) for r in rep_rows], fh, indent=2)
            fh.write("\n")
        with open(os.path.join(out, "summary.json"), "w") as fh:
            json.dump([dict(zip(sum_header, r)) for r in sum_rows], fh, indent=2)
            fh.write("\n")
    else:
        _write_csv(os.path.join(out, "replications.csv"), rep_header, rep_rows)
        _write_csv(os.path.join(out, "summary.csv"), sum_header, sum_rows)
    for s in summaries:
        print(f"N={s.sample_size}: {s.n_replications - s.n_failed} ok, {s.n_failed} failed")
        for i, name in enumerate(s.param_names):
            print(
                f"  {name:<14s} bias {s.mean_bias[i]:+.5f}"
                f"  rmse {s.rmse[i]:.5f}  cover95 {s.coverage95[i]:.3f}"
            )
    return EXIT_OK


RHO_CAP = 0.99


def _is_range(v, above=-math.inf) -> bool:
    return (isinstance(v, list) and len(v) == 2 and all(is_number(b) for b in v)
            and above < v[0] <= v[1])


def _is_identity_order(o) -> bool:
    # The identity at (k, m) takes moments of total order k + m + 1.
    return (isinstance(o, list) and len(o) == 2 and all(is_int(v) and v >= 1 for v in o)
            and o[0] + o[1] + 1 <= MAX_TOTAL_ORDER)


# Each verify field: its default, the test a value must pass, and the rule it states.
_VERIFY_FIELDS = {
    "n_points": (50, lambda v: is_int(v) and v >= 1, "an integer >= 1"),
    "mu_range": ([-2.0, 2.0], _is_range, "[lo, hi] with finite lo <= hi"),
    "sigma2_range": ([0.25, 4.0], lambda v: _is_range(v, above=0.0),
                     "[lo, hi] with finite 0 < lo <= hi"),
    "rho_max": (0.9, lambda v: is_number(v) and 0.0 <= v <= RHO_CAP,
                f"a number in [0, {RHO_CAP}]; near-singular covariances are excluded"),
    "orders": ([[k, m] for k in (1, 2, 3) for m in (1, 2, 3)],
               lambda v: isinstance(v, list) and len(v) > 0
               and all(_is_identity_order(o) for o in v),
               f"a non-empty list of [k, m], integers >= 1 with k + m + 1 <= {MAX_TOTAL_ORDER}"),
    "tolerance": (1e-6, lambda v: is_number(v) and v > 0, "a positive number"),
    "quadrature_tol": (1e-7, lambda v: is_number(v) and v > 0, "a positive number"),
    "grid_seed": (20260823, lambda v: is_int(v) and v >= 0, "an integer >= 0"),
}


def cmd_verify(args) -> int:
    cfg = {name: default for name, (default, _, _) in _VERIFY_FIELDS.items()}
    if args.config:
        user = _load_json(args.config)
        unknown = set(user) - set(cfg)
        if unknown:
            raise ConfigurationError(f"unknown verify fields: {sorted(unknown)}")
        cfg.update(user)
    if args.seed is not None:
        cfg["grid_seed"] = args.seed
    for name, (_, valid, rule) in _VERIFY_FIELDS.items():
        _check(valid(cfg[name]), name, rule)
    out = _out_dir(args, cfg if args.out is None else {"output_dir": args.out})
    rng = np.random.default_rng(cfg["grid_seed"])
    mu_lo, mu_hi = cfg["mu_range"]
    s2_lo, s2_hi = cfg["sigma2_range"]
    points = []
    for _ in range(cfg["n_points"]):
        s1_sq = rng.uniform(s2_lo, s2_hi)
        s2_sq = rng.uniform(s2_lo, s2_hi)
        rho = rng.uniform(-cfg["rho_max"], cfg["rho_max"])
        points.append(
            BivariateNormalSpec(
                mu1=rng.uniform(mu_lo, mu_hi),
                mu2=rng.uniform(mu_lo, mu_hi),
                sigma1_sq=s1_sq,
                sigma2_sq=s2_sq,
                sigma12=rho * math.sqrt(s1_sq) * math.sqrt(s2_sq),  # s1_sq * s2_sq may overflow
            )
        )
    tol = cfg["tolerance"]
    quad_tol = cfg["quadrature_tol"]
    orders = cfg["orders"]
    # Points outer, orders inner: every order at a point slices its full-order integrals.
    maxima = [-1.0] * len(orders)
    argmax = [None] * len(orders)
    for spec in points:
        for i, (k, m) in enumerate(orders):
            try:
                res = abs(moment_identity_residual(spec, MomentQuery(k=k, m=m), tol=quad_tol))
            except ConvergenceError as exc:
                if exc.achieved is None:
                    raise
                # The identity asks its moments for tol / 10; name the value the config set.
                raise ConvergenceError(
                    f"quadrature did not converge to quadrature_tol / 10 = {quad_tol / 10:g} "
                    f"(quadrature_tol = {quad_tol:g}); achieved {exc.achieved:.3e}",
                    achieved=exc.achieved, field="quadrature_tol",
                ) from None
            if res > maxima[i]:
                maxima[i], argmax[i] = res, spec
    rows = []
    worst = None
    for (k, m), max_abs, best_point in zip(orders, maxima, argmax):
        rows.append(
            [k, m, _fmt(max_abs)]
            + [_fmt(v) for v in (best_point.mu1, best_point.mu2,
                                 best_point.sigma1_sq, best_point.sigma2_sq,
                                 best_point.rho)]
        )
        if worst is None or max_abs > worst[2]:
            worst = (k, m, max_abs, best_point)
        print(f"(k={k}, m={m}): max |residual| = {max_abs:.3e}")
    os.makedirs(out, exist_ok=True)
    _write_csv(
        os.path.join(out, "verification.csv"),
        ["k", "m", "max_abs_residual", "mu1", "mu2", "sigma1_sq", "sigma2_sq", "rho"],
        rows,
    )
    if worst[2] >= tol:
        k, m, max_abs, pt = worst
        print(
            json.dumps(
                {
                    "error": "VerificationFailure",
                    "message": f"residual {max_abs:.3e} >= tolerance {tol:g}",
                    "k": k, "m": m,
                    "point": {
                        "mu1": pt.mu1, "mu2": pt.mu2,
                        "sigma1_sq": pt.sigma1_sq, "sigma2_sq": pt.sigma2_sq,
                        "rho": pt.rho,
                    },
                }
            ),
            file=sys.stderr,
        )
        return EXIT_VERIFY
    print(f"all residuals below {tol:g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tobitiv",
        description="Censored-panel IV estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_config in (
        ("simulate", cmd_simulate, True),
        ("estimate", cmd_estimate, False),
        ("montecarlo", cmd_montecarlo, True),
        ("verify", cmd_verify, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, help="JSON config path")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.set_defaults(fn=fn)
    sub.choices["estimate"].add_argument(
        "--data", required=True, help="dataset directory written by `simulate`"
    )
    sub.choices["montecarlo"].add_argument("--workers", type=int, default=1)
    sub.choices["montecarlo"].add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        _emit_error(exc)
        return EXIT_CONFIG
    except TobitIVError as exc:
        _emit_error(exc)
        return EXIT_ESTIMATION
    except OSError as exc:
        _emit_error(exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
