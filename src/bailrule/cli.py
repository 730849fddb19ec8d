"""Command-line front end.

Subcommands: ``rulecard`` (publish the schedule), ``simulate`` (synthetic
episode data), ``audit`` (fit + compliance report + plot), ``sweep``
(cutoff/cap trajectories over a parameter), ``allocate`` (treasury split;
``--strict`` appends the KKT certificate of the split, at any number of
municipalities).

Exit codes: 0 success; 1 config/data validation error or unwritable output;
2 estimation or numerical failure (or a failed KKT certificate under
``allocate --strict``); 3 signature-check failure under ``audit --strict``.

All artifacts are deterministic: fixed seeds drive all randomness, floats
are serialized with repr, and timestamps come from SOURCE_DATE_EPOCH or the
config file's mtime.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .allocation import allocate, cap_ordering_report, kkt_residuals
from .configfile import (
    build_allocation_problem,
    build_distribution,
    build_floor,
    build_mechanism,
    build_sweep,
    build_weight_profile,
    load_config,
)
from .dataio import episodes_to_csv, read_episodes, write_episodes
from .errors import (
    ConfigError,
    DataError,
    EstimationError,
    NumericalInconsistencyError,
    ParameterError,
)
from .estimation import _KNOT_GRID, predict
from .floors import Schedule
from .policy import cutoffs
from .reporting import (
    render_allocation_text,
    render_audit_text,
    run_audit,
    run_sweep,
    sweep_csv,
)
from .rulecard import card_to_json, make_rule_card, render_card_text
from .svgplot import line_chart, scatter_chart

OUT_DIR_ENV = "BAILRULE_OUT_DIR"


def _out_dir(args) -> Path:
    out = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, text: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _fit_points(fit, theta_min, theta_max):
    xs = sorted({theta_min, fit.theta1, fit.theta2, theta_max})
    xs = [x for x in xs if theta_min <= x <= theta_max]
    return [(x, predict(x, fit)) for x in xs]


def cmd_rulecard(args) -> int:
    cfg = load_config(args.config)
    params = build_mechanism(cfg)
    schedule = Schedule(params, build_floor(cfg))
    profile = build_weight_profile(cfg, params.T)
    card = make_rule_card(schedule, cfg.sha256, cfg.path, profile.tau if profile else None)
    out = _out_dir(args)
    _write(out / "rulecard.txt", render_card_text(card))
    _write(out / "rulecard.json", card_to_json(card))
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    params = build_mechanism(cfg)
    dist = build_distribution(cfg, params)
    schedule = Schedule(params, build_floor(cfg))
    sim = cfg.find("simulate")
    n = cfg.get_int(sim, "n", 100) if sim else 100
    override_shift = cfg.get_float(sim, "override_shift", 0.0) if sim else 0.0
    beta = cfg.get_float(sim, "screening_beta", np.inf) if sim else np.inf
    if n < 1:
        raise ConfigError(f"{cfg.path}: simulate n must be >= 1, got {n}")
    if not beta >= 0:
        raise ConfigError(
            f"{cfg.path}:{sim.line_of('screening_beta')}: screening_beta must be >= 0, got {beta}"
        )
    if not 0 <= args.noise < np.inf:
        raise ParameterError(f"noise must be finite and >= 0, got {args.noise}")
    if args.seed < 0:
        raise ParameterError(f"seed must be >= 0, got {args.seed}")

    rng = np.random.default_rng(args.seed)
    theta = np.asarray(dist.rvs(n, rng), dtype=float)
    b = schedule.payout(theta)
    if np.isfinite(beta):
        b = np.minimum(beta, b)
    if override_shift:
        b = b + override_shift * (theta > cutoffs(schedule.rule).theta_hi)
    if args.noise > 0:
        b = np.maximum(b + rng.normal(0.0, args.noise, size=n), 0.0)

    out = _out_dir(args)
    write_episodes(out / "episodes.csv", theta, b)
    print(f"wrote {out / 'episodes.csv'}")
    return 0


def cmd_audit(args) -> int:
    cfg = load_config(args.config)
    params = build_mechanism(cfg)
    paths = args.data
    if not 1 <= len(paths) <= 2:
        raise ConfigError("audit takes one --data file, or two for a regime comparison")
    episodes = read_episodes(paths[0])
    episodes_after = read_episodes(paths[1]) if len(paths) == 2 else None
    announced = None
    ann = cfg.find("announced")
    if ann is not None:
        announced = (
            cfg.get_float(ann, "delta_omega_T", 0.0),
            cfg.get_float(ann, "delta_b_bar", 0.0),
        )

    out = _out_dir(args)
    try:
        report = run_audit(
            episodes,
            params,
            knot_grid=args.knot_grid,
            tol=args.tol,
            episodes_after=episodes_after,
            announced=announced,
            floor=build_floor(cfg),
        )
    except EstimationError as exc:
        _write(out / "audit_report.txt", f"AUDIT FAILED\n============\n{exc}\n")
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _write(out / "audit_report.txt", render_audit_text(report))
    theta, b = episodes.theta, episodes.b
    _write(out / "classifications.csv", episodes_to_csv(theta, b, report.labels))
    theta_min, theta_max = float(theta.min()), float(theta.max())
    chart = scatter_chart(
        list(zip(theta.tolist(), b.tolist(), report.labels)),
        fitted=_fit_points(report.fit, theta_min, theta_max),
        published=report.schedule.vertices(),
    )
    _write(out / "audit_plot.svg", chart)
    if args.strict and report.any_check_failed:
        failed = ", ".join(c.name for c in report.checks if c.status == "fail")
        print(f"strict mode: signature check(s) failed: {failed}", file=sys.stderr)
        return 3
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    params = build_mechanism(cfg)
    profile = build_weight_profile(cfg, params.T)
    plan = build_sweep(cfg)
    header, rows = run_sweep(plan, params, profile)
    out = _out_dir(args)
    _write(out / "sweep.csv", sweep_csv(header, rows))
    xs = [row[0] for row in rows]
    series = [
        ("theta_lo", [row[1] for row in rows]),
        ("theta_hi", [row[2] for row in rows]),
        ("b_bar", [row[3] for row in rows]),
    ]
    _write(
        out / "sweep.svg",
        line_chart(xs, series, xlabel=plan.parameter, title=f"sweep of {plan.parameter}"),
    )
    return 0


def cmd_allocate(args) -> int:
    cfg = load_config(args.config)
    problem, names = build_allocation_problem(cfg)
    result = allocate(problem)
    ordering = cap_ordering_report(problem, result.lambda_B)
    text = render_allocation_text(names, problem, result, ordering)
    out = _out_dir(args)
    if args.strict:
        ok = kkt_residuals(problem, result).within(1e-9)
        text += (
            "\nself-check (KKT certificate): "
            + ("agreement within tolerance\n" if ok else "DISAGREEMENT\n")
        )
        if not ok:
            _write(out / "allocation.txt", text)
            print("error: allocation fails its KKT certificate", file=sys.stderr)
            return 2
    _write(out / "allocation.txt", text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bailrule",
        description="Threshold-linear-cap bailout rules: publish, simulate, audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out-dir", default=None, help=f"output directory (or ${OUT_DIR_ENV})")

    p = sub.add_parser("rulecard", help="publish the schedule implied by a config")
    common(p)
    p.set_defaults(func=cmd_rulecard)

    p = sub.add_parser("simulate", help="generate synthetic episode data")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--noise", type=float, default=0.0, help="payout noise sigma (default 0)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit", help="fit and check episode data against a config")
    common(p)
    p.add_argument(
        "--data", action="append", required=True,
        help="episode CSV; pass twice for a before/after regime comparison",
    )
    p.add_argument("--knot-grid", type=int, default=_KNOT_GRID,
                   help="knot grid size (default %(default)s)")
    p.add_argument("--tol", type=float, default=None, help="compliance tolerance override")
    p.add_argument("--strict", action="store_true", help="exit 3 if a signature check fails")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("sweep", help="tabulate cutoffs across a parameter sweep")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("allocate", help="split a treasury across municipalities")
    common(p)
    p.add_argument("--strict", action="store_true", help="check the KKT certificate")
    p.set_defaults(func=cmd_allocate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EstimationError, NumericalInconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # reads raise ConfigError or DataError: this is a write
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
