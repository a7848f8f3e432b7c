"""Command-line front end: run / verify / curve / dual."""

from __future__ import annotations

import argparse
import os
import sys

from .acceptance import CRITERIA, verify_all
from .bsde import SchemeError
from .control import PolicyError
from .drivers import ConjugateDomainError, DriverShapeError
from .dual import DualFeasibilityError
from .lattice import LatticeError
from .primal import PrimalError, primal_value_dp
from .runner import (curve_csv, curve_rows, dual_bounds, dual_entry, execute,
                     render_report_json, write_artifact)
from .scenario import (DEFAULT_SEED, ScenarioError, build_scenario, catalogue,
                       load_config)

# the package's own error types and file errors; any other exception is
# an internal fault and propagates with its traceback
_USER_ERRORS = (ScenarioError, PrimalError, SchemeError, LatticeError,
                PolicyError, DualFeasibilityError, ConjugateDomainError,
                DriverShapeError, OSError)


def _load_config(ref: str) -> dict:
    """Resolve a catalogue name or a JSON config path to a config dict."""
    cfgs = catalogue()
    if ref in cfgs:
        return cfgs[ref]
    if not os.path.exists(ref):
        raise ScenarioError(
            f"{ref!r} is neither a catalogue scenario nor an existing "
            f"config file; catalogue: {sorted(cfgs)}"
        )
    return load_config(ref)


def _build(ref: str, seed) -> "Scenario":
    cfg = _load_config(ref)
    if seed is not None:
        cfg = dict(cfg)
        cfg["seed"] = seed
    return build_scenario(cfg)


def _out_dir(args, default):
    if args.out is not None:
        return args.out
    env = os.environ.get("WEAKBSDE_OUT")
    if env:
        return env
    return default


def _cmd_run(args) -> int:
    sc = _build(args.config, args.seed)
    out = _out_dir(args, os.path.join("out", sc.name))
    report = execute(sc, out_dir=out, quiet=args.quiet)
    if not args.quiet:
        print(f"artifacts written to {out}")
    return 0 if report["status"] == "PASS" else 1


def _cmd_verify(args) -> int:
    out = _out_dir(args, None)
    summary = verify_all(only=args.only, out_dir=out, seed=args.seed,
                         quiet=args.quiet)
    return 1 if summary["n_fail"] else 0


def _cmd_curve(args) -> int:
    sc = _build(args.config, args.seed)
    text = curve_csv(curve_rows(primal_value_dp(sc.primal()), sc.m_list, {}))
    print(text, end="")
    out = _out_dir(args, None)
    if out is not None:
        write_artifact(out, "curve.csv", [text])
    return 0


def _cmd_dual(args) -> int:
    sc = _build(args.config, args.seed)
    if not sc.dual_enabled:
        raise ScenarioError(
            f"scenario {sc.name!r} has dual search disabled; enable it in "
            "the config (dual.enabled) to use this command"
        )
    results = {}
    for m, res in dual_bounds(sc):
        results[str(m)] = dual_entry(res)
        if not args.quiet:
            print(f"m={m!r}: bound={res['bound']!r} at l={res['l_star']!r} "
                  f"({res['n_slope_evaluations']} slope evaluations)")
    out = _out_dir(args, None)
    if out is not None:
        write_artifact(out, "dual.json",
                       [render_report_json({"name": sc.name,
                                            "dual": results})])
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None,
                   help="output directory (default: WEAKBSDE_OUT env var, "
                        "then a command-specific default)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the seed used by randomized checks")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-check console lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakbsde",
        description="Threshold-constrained lattice pricer: scenario runs, "
                    "value curves, dual certificates and the acceptance "
                    "battery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a scenario and write "
                                       "curve.csv / surface.csv / "
                                       "report.json")
    p_run.add_argument("config", help="catalogue name or JSON config path")
    _add_common(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the acceptance battery")
    p_verify.add_argument("--only", type=int, nargs="+", default=None,
                          choices=[c.number for c in CRITERIA], metavar="N",
                          help="criterion numbers to run")
    _add_common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_curve = sub.add_parser("curve", help="print the primal value curve "
                                           "as CSV")
    p_curve.add_argument("config", help="catalogue name or JSON config path")
    _add_common(p_curve)
    p_curve.set_defaults(handler=_cmd_curve)

    p_dual = sub.add_parser("dual", help="compute dual bounds for the "
                                         "scenario's dual m-list")
    p_dual.add_argument("config", help="catalogue name or JSON config path")
    _add_common(p_dual)
    p_dual.set_defaults(handler=_cmd_dual)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is not None and args.seed < 0:
        print(f"error: --seed must be a nonnegative integer, got {args.seed}",
              file=sys.stderr)
        return 2
    if args.command == "verify" and args.seed is None:
        args.seed = DEFAULT_SEED
    try:
        return args.handler(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
