"""Release gate: sixteen numbered criteria, one verdict line each.

Every criterion is a pure function of a seeded workspace, so two runs with
the same seed produce the same verdicts and the same report.json.  Runtimes
are printed for the human reading the console but never written to the
report (that would break byte-level determinism).
"""

from __future__ import annotations

import dataclasses
import math
import os
import tempfile
import time

import numpy as np

from . import __version__
from .bsde import comparison_check, estimation_gap, solve_bsde
from .control import representation_roundtrip
from .drivers import make_driver
from .dual import DualControls, dual_value, first_order_residuals
from .lattice import build_lattice
from .primal import (brute_force_policy_value,
                     brute_force_weak_formulation, continuity_modulus,
                     convexity_check, dpp_check, monotonicity_violation,
                     primal_value_dp, two_point_envelope, value_curve)
from .runner import dual_bounds, render_report_json, write_artifact
from .scenario import DEFAULT_SEED, catalogue_scenario

class Workspace:
    """Lazy per-scenario cache shared by the criteria.

    Surfaces and dual bounds are expensive relative to everything else, and
    several criteria look at the same catalogue scenario, so each is built
    once per verify run.  A scenario's first dual request runs
    runner.dual_bounds on it, which prices each slope of its dual_m_list's
    searches once; a dual request names one of those thresholds.
    """

    def __init__(self, seed: int = DEFAULT_SEED):
        if seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, "
                             f"got {seed!r}")
        self.seed = int(seed)
        self._scenarios = {}
        self._primals = {}
        self._surfaces = {}
        self._duals = {}          # name -> {m: dual_bound result}

    def scenario(self, name):
        if name not in self._scenarios:
            self._scenarios[name] = catalogue_scenario(name)
        return self._scenarios[name]

    def primal(self, name, grid_size=None):
        key = (name, grid_size)
        if key not in self._primals:
            self._primals[key] = self.scenario(name).primal(grid_size)
        return self._primals[key]

    def surface(self, name, grid_size=None):
        key = (name, grid_size)
        if key not in self._surfaces:
            self._surfaces[key] = primal_value_dp(self.primal(name, grid_size))
        return self._surfaces[key]

    def value(self, name, m):
        return float(value_curve(self.surface(name), [m])[0])

    def dual(self, name, m):
        if name not in self._duals:
            self._duals[name] = dict(dual_bounds(self.scenario(name)))
        return self._duals[name][m]


# each criterion returns (passed, measured, threshold, detail)

def _c01_zero_driver_reduction(ws):
    lat = build_lattice(1.0, 64)
    xi = 0.5 + 0.5 * np.tanh(lat.brownian_values(64))
    y = solve_bsde(lat, make_driver("zero"), xi, scheme="explicit")[0]
    errors = [0.0]
    expected = xi
    for k in range(63, -1, -1):
        expected = 0.5 * (expected[1:] + expected[:-1])
        errors.append(np.max(np.abs(expected - y[k])))
    worst = float(np.max(errors))
    return worst <= 1e-12, worst, 1e-12, {"levels": 64}


def _c02_linear_driver_closed_form(ws):
    d = make_driver("linear", a=0.1, b=0.0)
    roots = {}
    for n in (10, 20, 40):
        lat = build_lattice(1.0, n)
        y = solve_bsde(lat, d, np.ones(n + 1), scheme="explicit")[0]
        roots[n] = float(y[0][0])
    closed_form = (1.0 + 0.1 * 0.1) ** 10
    rel = abs(roots[10] - closed_form) / closed_form
    target = math.exp(0.1)
    errs = [abs(roots[n] - target) for n in (10, 20, 40)]
    ratios = [errs[1] / errs[0], errs[2] / errs[1]]
    passed = rel <= 1e-14 and all(0.4 <= r <= 0.6 for r in ratios)
    return passed, rel, 1e-14, {
        "root_value": roots[10], "closed_form": closed_form,
        "euler_errors": errs, "halving_ratios": ratios,
    }


def _c03_representation_roundtrip(ws):
    rng = np.random.default_rng(ws.seed)
    lat = build_lattice(1.0, 8)
    drivers = (make_driver("zero"), make_driver("neg_abs_z", kappa=0.3))
    # trial i draws its terminal in turn and goes to driver i % 2: one
    # stacked roundtrip per driver
    xi = np.array([rng.uniform(0.0, 1.0, 9) for _ in range(100)])
    worst = float(np.max([representation_roundtrip(lat, d, xi[r::2])
                          ["max_error"] for r, d in enumerate(drivers)]))
    return worst <= 1e-12, worst, 1e-12, {"trials": 100}


def _c04_comparison_order(ws):
    rng = np.random.default_rng(ws.seed + 1)
    lat = build_lattice(1.0, 8)
    drivers = (
        make_driver("zero"),
        make_driver("linear", a=0.1, b=0.05),
        make_driver("abs_z", kappa=0.3),
        make_driver("neg_abs_z", kappa=0.3),
        make_driver("logcosh_z", kappa=0.5),
        make_driver("softplus_z", kappa=0.4),
    )
    # trial i draws its pair in turn and goes to driver i % 6: one stacked
    # check per driver
    pairs = np.array([(rng.uniform(0.0, 1.0, 9), rng.uniform(0.0, 1.0, 9))
                      for _ in range(100)])
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    worst = float(np.max([comparison_check(lat, d, lo[r::len(drivers)],
                                           hi[r::len(drivers)])
                          ["max_violation"] for r, d in enumerate(drivers)]))
    return worst <= 1e-14, worst, 1e-14, {"trials": 100,
                                          "drivers": len(drivers)}


def _c05_jensen_curve(ws):
    worst = float(np.max([abs(ws.value("jensen", m) - m * m)
                          for m in ws.scenario("jensen").m_list]))
    return worst <= 1e-3, worst, 1e-3, {"scenario": "jensen"}


def _c06_two_point_envelope(ws):
    gaps = [0.0]
    for name in ("envelope", "call_spread"):
        sc = ws.scenario(name)
        gaps += [abs(ws.value(name, m) - two_point_envelope(sc.loss, m))
                 for m in sc.m_list]
    worst = float(np.max(gaps))
    return worst <= 5e-3, worst, 5e-3, {"scenarios": ["envelope",
                                                      "call_spread"]}


def _c07_small_tree_equivalence(ws):
    gaps = [0.0]
    per = {}
    for name in ("tiny_identity", "tiny_power", "tiny_risk"):
        m = ws.scenario(name).m_list[0]
        dp = ws.value(name, m)
        pol = brute_force_policy_value(ws.primal(name), m)["value"]
        weak = brute_force_weak_formulation(ws.primal(name), m)["value"]
        gaps += [abs(dp - pol), abs(dp - weak), abs(pol - weak)]
        per[name] = {"dp": dp, "policy_enum": pol, "leaf_search": weak}
    worst = float(np.max(gaps))
    return worst <= 1e-2, worst, 1e-2, per


def _c08_dynamic_programming_consistency(ws):
    coarse = ws.surface("jensen")
    one = dpp_check(coarse, 0, 1)["residual"]
    multi = dpp_check(coarse, 0, coarse.scenario.lattice.steps)["residual"]
    tol = 2.0 * coarse.grid_slack
    fine = ws.surface("jensen", grid_size=401)
    multi_fine = dpp_check(fine, 0, fine.scenario.lattice.steps)["residual"]
    floor = 1e-12  # both residuals at rounding level counts as shrunk
    shrink = multi / max(multi_fine, floor)
    passed = one == 0.0 and multi <= tol and (multi <= floor or shrink >= 1.5)
    return passed, multi, tol, {
        "one_step_residual": one, "multi_step_fine": multi_fine,
        "shrink_factor": shrink,
    }


def _c09_curve_monotonicity(ws):
    names = ("jensen", "identity", "envelope", "call_spread", "risk_pair",
             "tiny_identity", "tiny_power", "tiny_risk")
    worst = float(np.max([monotonicity_violation(ws.surface(name))
                          for name in names]))
    return worst <= 1e-10, worst, 1e-10, {"scenarios": len(names)}


def _c10_curve_continuity(ws):
    exponents = {}
    for name in ("identity", "jensen", "call_spread"):
        sc = ws.scenario(name)
        res = continuity_modulus(ws.surface(name), sc.continuity_base)
        if res["status"] == "vacuous":
            continue  # flat value curve carries no exponent to fit
        exponents[name] = res["exponent"]
    if not exponents:
        return False, None, 0.20, {"error": "no scenario produced a fit"}
    measured = min(exponents.values())
    return measured >= 0.20, measured, 0.20, exponents


def _c11_curve_convexity(ws):
    violations = [0.0]
    checked = []
    for name in ("jensen", "identity", "risk_pair"):
        res = convexity_check(ws.surface(name))
        if res["status"] != "checked":
            return False, None, 2e-3, {"error": f"{name} was not flagged "
                                                "convex but should be"}
        checked.append(name)
        violations.append(res["violation"])
    worst = float(np.max(violations))
    return worst <= 2e-3, worst, 2e-3, {"scenarios": checked}


def _c12_weak_duality(ws):
    excess = []
    for name in ("jensen", "identity", "envelope", "call_spread",
                 "risk_pair"):
        sc = ws.scenario(name)
        for m in sc.dual_m_list:
            primal = ws.value(name, m)
            excess += [l * m - certificate - primal
                       for l, certificate in ws.dual(name, m)["trace"]]
    worst = float(np.max(excess))
    return worst <= 1e-9, worst, 1e-9, {"candidates": len(excess)}


def _c13_strong_duality_quadratic(ws):
    sc = ws.scenario("jensen")
    gaps, crosses = [0.0], [0.0]
    for m in sc.dual_m_list:
        res = ws.dual("jensen", m)
        gaps.append(abs(ws.value("jensen", m) - res["bound"]))
        at_opt = dual_value(sc.lattice, 2.0 * m, sc.driver_f, sc.driver_g,
                            sc.loss, rounds=sc.dual_rounds)
        crosses.append(abs(2.0 * m * m - at_opt["value"] - m * m))
    worst_gap, worst_cross = float(np.max(gaps)), float(np.max(crosses))
    passed = worst_gap <= 2e-2 and worst_cross <= 1e-9
    return passed, worst_gap, 2e-2, {"analytic_crosscheck": worst_cross}


def _c14_first_order_conditions(ws):
    surface = ws.surface("jensen")
    controls = DualControls.zeros(slope=1.0)
    res = first_order_residuals(surface, controls, 0.5)
    keys = ("constraint_fenchel", "terminal_gradient", "cost_fenchel",
            "terminal_polar")
    vals = [res[k] for k in keys]
    if any(v is None for v in vals):
        return False, None, 1e-2, {"error": "a residual was unavailable",
                                   **{k: res[k] for k in keys}}
    worst = float(np.max(np.abs(vals)))
    return worst <= 1e-2, worst, 1e-2, {k: res[k] for k in keys}


def _c15_estimation_gap_scaling(ws):
    # the gap is linear in the window only asymptotically, so the fit runs
    # on the finest lattice the level guard allows
    lat = build_lattice(1.0, 64)
    g = make_driver("abs_z", kappa=0.3)
    gaps, windows = [], []
    for span in (1, 2, 4, 8):
        xi = 0.5 + 0.4 * np.tanh(lat.brownian_values(8 + span))
        res = estimation_gap(lat, g, xi, 8, span)
        gaps.append(res["gap"])
        windows.append(res["window"])
    increasing = all(a < b for a, b in zip(gaps, gaps[1:]))
    slope = float(np.polyfit(np.log(windows), np.log(gaps), 1)[0])
    return slope >= 0.9 and increasing, slope, 0.9, {
        "gaps": gaps, "windows": windows, "direction": "slope at_or_above",
    }


def _c16_deterministic_reports(ws):
    with tempfile.TemporaryDirectory() as tmp:
        payloads = []
        for sub in ("first", "second"):
            out = os.path.join(tmp, sub)
            verify_all(only=[1, 2], out_dir=out, seed=ws.seed, quiet=True)
            with open(os.path.join(out, "report.json"), "rb") as fh:
                payloads.append(fh.read())
    mismatch = 0.0 if payloads[0] == payloads[1] else 1.0
    return mismatch == 0.0, mismatch, 0.0, {
        "bytes": len(payloads[0]), "reruns": 2, "subset": [1, 2],
    }


@dataclasses.dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    fn: object
    budget_seconds: float | None  # stated runtime limit, None when unstated


CRITERIA = (
    Criterion(1, "zero_driver_reduction", _c01_zero_driver_reduction, 1.0),
    Criterion(2, "linear_driver_closed_form", _c02_linear_driver_closed_form,
              1.0),
    Criterion(3, "representation_roundtrip", _c03_representation_roundtrip,
              5.0),
    Criterion(4, "comparison_order", _c04_comparison_order, 5.0),
    Criterion(5, "jensen_curve", _c05_jensen_curve, 10.0),
    Criterion(6, "two_point_envelope", _c06_two_point_envelope, 30.0),
    Criterion(7, "small_tree_equivalence", _c07_small_tree_equivalence,
              120.0),
    Criterion(8, "dynamic_programming_consistency",
              _c08_dynamic_programming_consistency, 30.0),
    Criterion(9, "curve_monotonicity", _c09_curve_monotonicity, None),
    Criterion(10, "curve_continuity", _c10_curve_continuity, 60.0),
    Criterion(11, "curve_convexity", _c11_curve_convexity, None),
    Criterion(12, "weak_duality", _c12_weak_duality, None),
    Criterion(13, "strong_duality_quadratic", _c13_strong_duality_quadratic,
              60.0),
    Criterion(14, "first_order_conditions", _c14_first_order_conditions,
              60.0),
    Criterion(15, "estimation_gap_scaling", _c15_estimation_gap_scaling,
              10.0),
    Criterion(16, "deterministic_reports", _c16_deterministic_reports, None),
)

ACCEPTANCE_SCHEMA_VERSION = 1


def run_criterion(criterion: Criterion, ws: Workspace) -> dict:
    """One criterion as a report entry; failures are entries, not crashes."""
    try:
        passed, measured, threshold, detail = criterion.fn(ws)
    except Exception as exc:
        passed, measured, threshold = False, None, None
        detail = {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "number": criterion.number,
        "name": criterion.name,
        "status": "PASS" if passed else "FAIL",
        "measured": measured,
        "threshold": threshold,
        "detail": detail,
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.3e}"


def verify_all(only=None, out_dir=None, seed: int = DEFAULT_SEED,
               quiet: bool = False) -> dict:
    """Run the acceptance battery (optionally a subset) and summarize.

    Prints one verdict line per criterion unless quiet; writes report.json
    to out_dir when given.  The report never contains timings, so reruns
    with the same seed are byte-identical.
    """
    if only is None:
        selected = list(CRITERIA)
    else:
        wanted = {int(n) for n in only}
        unknown = wanted - {c.number for c in CRITERIA}
        if unknown:
            raise ValueError(f"unknown criteria numbers {sorted(unknown)}")
        selected = [c for c in CRITERIA if c.number in wanted]

    ws = Workspace(seed)
    entries = []
    for criterion in selected:
        started = time.perf_counter()
        entry = run_criterion(criterion, ws)
        elapsed = time.perf_counter() - started
        entries.append(entry)
        if not quiet:
            print(f"[{criterion.number:2d}] {criterion.name:<34} "
                  f"{entry['status']:<4} measured={_fmt(entry['measured'])} "
                  f"threshold={_fmt(entry['threshold'])} ({elapsed:.2f}s)")

    n_fail = sum(1 for e in entries if e["status"] == "FAIL")
    if not entries:
        status = "SKIPPED"
        if not quiet:
            print("verify: no criteria selected -> SKIPPED")
    else:
        status = "FAIL" if n_fail else "PASS"
        if not quiet:
            print(f"verify: {len(entries) - n_fail}/{len(entries)} criteria "
                  f"passed -> {status}")

    summary = {
        "schema_version": ACCEPTANCE_SCHEMA_VERSION,
        "package_version": __version__,
        "seed": int(seed),
        "criteria": entries,
        "n_pass": len(entries) - n_fail,
        "n_fail": n_fail,
        "status": status,
    }
    if out_dir is not None:
        write_artifact(out_dir, "report.json", [render_report_json(summary)])
    return summary
