"""Scenario pipeline: solve, bound, check, and write deterministic artifacts.

execute() drives one scenario end to end: primal surface -> value curve ->
dual bounds -> the scenario's named checks, then writes curve.csv,
surface.csv and report.json into the output directory.  The functions a
check handler calls return measurements; the handler alone turns them
into the check's verdict, against the scenario's tolerances.  Nothing in the
default pipeline reads the clock or draws unseeded randomness, so a rerun
with the same config produces byte-identical files.

Every float in the CSV files is its repr.  surface.csv renders each
level's slice once and repeats it for every node of the level; a level
equal to the one above, bit for bit, is not rendered again but reuses the
lines of the level above (_surface_csv).

write_artifact writes every artifact from an iterable of text chunks; a
whole text is a one-chunk list.  _surface_csv yields one chunk per (level,
node), so surface.csv is written as it is rendered, a few tens of KB at a
time, and never held whole, joined or encoded at once (4.06 MB each on a
601-point, 16-step surface).  The chunks are the pieces the whole text
was joined from, in the same order, so the bytes are the same.  The
convexity check likewise scores its pair matrix on a bounded half band
(primal.convexity_check) and reads the full matrix's number: the matrix
is symmetric bit for bit, so the half band holds every value it holds.
"""

from __future__ import annotations

import io
import json
import math
import os

import numpy as np

from . import __version__
from .bsde import comparison_check
from .control import admissible, representation_roundtrip, simulate_rows
from .dual import dual_bound
from .primal import (ORACLE_MAX_LEVELS, apriori_bound_check, attainment_check,
                     brute_force_policy_value, brute_force_weak_formulation,
                     continuity_modulus, convexity_check, dpp_check,
                     monotonicity_violation, primal_value_dp,
                     restriction_check, value_curve)
from .scenario import Scenario

REPORT_SCHEMA_VERSION = 1


def _jsonify(obj):
    """Make numpy scalars/arrays JSON-serializable, recursively."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        # + 0.0 renders a -0.0 reading as 0.0 (the csv files keep the sign)
        out = float(obj) + 0.0
        return out if math.isfinite(out) else repr(out)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def render_report_json(report: dict) -> str:
    return json.dumps(_jsonify(report), sort_keys=True, indent=2) + "\n"


def _result(name, status, measured, threshold, **detail):
    out = {"check": name, "status": status, "measured": measured,
           "threshold": threshold}
    if detail:
        out["detail"] = detail
    return out


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _at_most(name, measured, threshold, **detail):
    """The entry of a check that passes when measured <= threshold."""
    return _result(name, _verdict(measured <= threshold), measured, threshold,
                   **detail)


def _skipped(name, threshold, reason):
    return _result(name, "SKIPPED", None, threshold, reason=reason)


def _check_attainment(ctx):
    sc, surface = ctx["scenario"], ctx["surface"]
    tol = 2.0 * surface.grid_slack + sc.tolerances["attainment_extra"]
    worst = float(np.max(attainment_check(surface, sc.m_list)["gap"]))
    return _at_most("attainment", worst, tol)


def _check_monotonicity(ctx):
    sc, surface = ctx["scenario"], ctx["surface"]
    sorted_vals = np.asarray(ctx["curve"])[np.argsort(sc.m_list)]
    worst = float(np.max([monotonicity_violation(surface),
                          *(sorted_vals[:-1] - sorted_vals[1:])]))
    return _at_most("monotonicity", worst, sc.tolerances["monotonicity"])


def _check_convexity(ctx):
    tol = ctx["scenario"].tolerances["convexity"]
    res = convexity_check(ctx["surface"])
    if res["status"] == "skipped":
        return _skipped("convexity", tol, res["reason"])
    return _at_most("convexity", res["violation"], tol)


def _check_continuity(ctx):
    sc, surface = ctx["scenario"], ctx["surface"]
    floor = sc.tolerances["continuity_exponent"]
    res = continuity_modulus(surface, sc.continuity_base)
    if res["status"] == "vacuous":
        # nothing was measured, so there is nothing to pass
        return _skipped("continuity", floor, res["note"])
    return _result("continuity", _verdict(res["exponent"] >= floor),
                   res["exponent"], floor, direction="at_or_above")


def _check_dpp(ctx):
    sc, surface = ctx["scenario"], ctx["surface"]
    one = dpp_check(surface, 0, 1)
    multi = dpp_check(surface, 0, sc.lattice.steps)
    tol = sc.tolerances["dpp_multi_factor"] * surface.grid_slack
    ok = one["residual"] == 0.0 and multi["residual"] <= tol
    return _result("dpp", _verdict(ok), multi["residual"], tol,
                   one_step_residual=one["residual"])


def _check_weak_duality(ctx):
    sc, surface = ctx["scenario"], ctx["surface"]
    tol = sc.tolerances["weak_duality"]
    if not ctx["duals"]:
        return _skipped("weak_duality", tol,
                        "dual search disabled for this scenario")
    excess = []
    for m, res in ctx["duals"].items():
        primal = float(value_curve(surface, m)[0])
        excess += [l * m - cert - primal for l, cert in res["trace"]]
    return _at_most("weak_duality", float(np.max(excess)), tol,
                    meaning="max over trace of bound minus primal")


def _check_value_envelope(ctx):
    return _at_most("value_envelope",
                    apriori_bound_check(ctx["surface"])["excess"],
                    ctx["scenario"].tolerances["value_envelope"])


def _check_restriction(ctx):
    sc = ctx["scenario"]
    tol = sc.tolerances["restriction"]
    if sc.lattice.steps < 2:
        return _skipped("restriction", tol, "needs at least two levels")
    return _at_most("restriction",
                    restriction_check(ctx["surface"], 1)["max_diff"], tol)


def _check_comparison(ctx):
    sc = ctx["scenario"]
    rng = np.random.default_rng(sc.seed)
    n = sc.lattice.steps
    violations = []
    for d in (sc.driver_f, sc.driver_g):
        # ten seeded pairs per driver, solved as one stack
        pairs = np.array([(rng.uniform(0.0, 1.0, n + 1),
                           rng.uniform(0.0, 1.0, n + 1)) for _ in range(10)])
        res = comparison_check(sc.lattice, d, pairs.min(axis=1),
                               pairs.max(axis=1), scheme=sc.scheme)
        violations.append(res["max_violation"])
    return _at_most("comparison", float(np.max(violations)),
                    sc.tolerances["comparison"])


def _roundtrip_walks(sc) -> tuple:
    """(worst terminal error, rows simulated) over the roundtrip check's
    seeded terminals: ten per driver, walked as one stack."""
    rng = np.random.default_rng(sc.seed + 1)
    n = sc.lattice.steps
    errors, rows = [0.0], 0
    for d in (sc.driver_f, sc.driver_g):
        xi = np.array([rng.uniform(0.0, 1.0, n + 1) for _ in range(10)])
        res = representation_roundtrip(sc.lattice, d, xi)
        errors.append(res["max_error"])
        rows += res["n_rows"]
    return float(np.max(errors)), rows


def _check_roundtrip(ctx):
    sc = ctx["scenario"]
    return _at_most("roundtrip", _roundtrip_walks(sc)[0],
                    sc.tolerances["roundtrip"])


def _admissibility_walks(sc, corridor) -> tuple:
    """(worst excursion, rows simulated) over the admissibility check's ten
    seeded random node policies, each truncated at the corridor and
    started mid-corridor, walked as one stack."""
    rng = np.random.default_rng(sc.seed + 2)
    lat = sc.lattice
    bound = 1.0 / lat.sqrt_dt
    lo, hi = corridor.bounds_at(0)
    policies = [[rng.uniform(-bound, bound, k + 1) for k in range(lat.steps)]
                for _ in range(10)]
    controls = [np.array(level) for level in zip(*policies)]
    states = simulate_rows(lat, sc.driver_f, np.full(10, 0.5 * (lo + hi)),
                           controls, corridor)[2]
    res = admissible(corridor, states)
    return res["worst_violation"], res["n_rows"]


def _check_admissibility(ctx):
    sc = ctx["scenario"]
    return _at_most("admissibility",
                    _admissibility_walks(sc, ctx["surface"].corridor)[0],
                    sc.tolerances["admissibility"],
                    note="random policies truncated at both corridor edges")


def _check_equivalence(ctx):
    sc, surface = ctx["scenario"], ctx["surface"]
    tol = sc.tolerances["equivalence"]
    if sc.lattice.steps > ORACLE_MAX_LEVELS:
        return _skipped("equivalence", tol, f"exhaustive oracles capped at "
                        f"{ORACLE_MAX_LEVELS} levels")
    prim = ctx["primal_scenario"]
    gaps = [0.0]
    for m in sc.m_list:
        dp = float(value_curve(surface, m)[0])
        pol = brute_force_policy_value(prim, m)["value"]
        weak = brute_force_weak_formulation(prim, m)["value"]
        gaps += [abs(dp - pol), abs(dp - weak), abs(pol - weak)]
    return _at_most("equivalence", float(np.max(gaps)), tol,
                    meaning="max pairwise gap dp/policy-enum/leaf-search")


CHECK_HANDLERS = {
    "attainment": _check_attainment,
    "monotonicity": _check_monotonicity,
    "convexity": _check_convexity,
    "continuity": _check_continuity,
    "dpp": _check_dpp,
    "weak_duality": _check_weak_duality,
    "value_envelope": _check_value_envelope,
    "restriction": _check_restriction,
    "comparison": _check_comparison,
    "roundtrip": _check_roundtrip,
    "admissibility": _check_admissibility,
    "equivalence": _check_equivalence,
}


def curve_rows(surface, thresholds, duals: dict) -> list:
    """One curve row per threshold, in order: its primal value, and its
    dual bound and gap where duals holds its dual_bound result."""
    rows = []
    primals = value_curve(surface, thresholds).tolist()
    for m, primal in zip(thresholds, primals):
        bound = duals[m]["bound"] if m in duals else None
        rows.append({"m": m, "primal": primal, "dual_bound": bound,
                     "gap": None if bound is None else primal - bound})
    return rows


def curve_csv(rows) -> str:
    """curve.csv: one m,primal,dual_bound,gap line per row, each float its
    repr and a missing bound or gap empty."""
    buf = io.StringIO()
    buf.write("m,primal,dual_bound,gap\n")
    for row in rows:
        bound = "" if row["dual_bound"] is None else repr(row["dual_bound"])
        gap = "" if row["gap"] is None else repr(row["gap"])
        buf.write(f"{row['m']!r},{row['primal']!r},{bound},{gap}\n")
    return buf.getvalue()


def _same_bits(cols, above) -> bool:
    """Whether each column has the shape and the int64 bits of the one
    above it (so -0.0 and 0.0 differ)."""
    return above is not None and all(
        np.array_equal(c.view(np.int64), b.view(np.int64))
        for c, b in zip(cols, above))


def _surface_csv(surface):
    """surface.csv as text chunks: the header, then one chunk per (level,
    node) of rows k,j,m,V,a, one per m of the level, each float its repr.

    The surface holds one slice per level, the same at every node, so each
    level's m,V,a lines are rendered once and joined under every node's
    k,j, prefix.  A level whose three columns have the bits of the level
    above (the risk pair's V(m) = m² at every level) reuses that level's
    lines instead of rendering them again.  The chunks join to the bytes
    of a per-row repr of every cell.
    """
    yield "level,node,m,value,control\n"
    above = lines = None
    for k, level in enumerate(zip(surface.grids, surface.values,
                                  surface.controls)):
        cols = [np.asarray(col, dtype=np.float64) for col in level]
        if not _same_bits(cols, above):
            g, v, a = (col.tolist() for col in cols)
            # the leading "" puts the k,j, prefix before every line
            lines = ["", *(f"{m!r},{x!r},{c!r}\n"
                           for m, x, c in zip(g, v, a))]
        above = cols
        for j in range(k + 1):
            yield f"{k},{j},".join(lines)


def write_artifact(out_dir, name: str, chunks) -> None:
    """Write an iterable of text chunks to out_dir/name as UTF-8, in
    order, creating out_dir if needed.  A whole text is a one-chunk
    list: a bare str would be written one character at a time."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _in_stage(stage: str, exc: Exception) -> Exception:
    """The error to raise (from exc) for a failure inside a pipeline stage.

    It keeps exc's type when that type can be rebuilt from the message
    alone; otherwise it is a RuntimeError.  Either way the message names
    the stage.
    """
    msg = f"[stage: {stage}] {exc}"
    try:
        staged = type(exc)(msg)
    except Exception:
        return RuntimeError(msg)
    return staged if staged.args == (msg,) else RuntimeError(msg)


def dual_bounds(sc: Scenario) -> list:
    """(m, dual_bound result) for each threshold of sc.dual_m_list, in order.

    Each threshold's slope search runs once, and the searches share one
    slope -> certificate dict, which lives only as long as this call: a
    certificate does not depend on the threshold, but it does on the
    lattice, drivers, loss and rounds of the scenario.  A search prices
    only the slopes that the searches before it left out of the dict.
    """
    certificates = {}
    return [(m, dual_bound(sc.lattice, sc.driver_f, sc.driver_g, sc.loss, m,
                           l_max=sc.l_max, rounds=sc.dual_rounds,
                           certificates=certificates))
            for m in sc.dual_m_list]


def dual_entry(res: dict) -> dict:
    """What a report keeps of one dual_bound result: all but the trace."""
    return {key: res[key] for key in ("l_star", "bound", "certificate",
                                      "n_slope_evaluations")}


def execute(sc: Scenario, out_dir=None, quiet: bool = False) -> dict:
    """Run the full pipeline for one scenario; returns the report dict."""
    stage = "primal surface"
    try:
        prim = sc.primal()
        surface = primal_value_dp(prim)
        stage = "value curve"
        curve = np.asarray(value_curve(surface, sc.m_list), dtype=float)
        stage = "dual bound"
        duals = dict(dual_bounds(sc)) if sc.dual_enabled else {}
    except Exception as exc:
        raise _in_stage(stage, exc) from exc

    ctx = {
        "scenario": sc,
        "primal_scenario": prim,
        "surface": surface,
        "curve": curve,
        "duals": duals,
    }
    checks = []
    for name in sc.checks:
        try:
            checks.append(CHECK_HANDLERS[name](ctx))
        except Exception as exc:
            raise _in_stage(f"check {name}", exc) from exc

    rows = curve_rows(surface, sorted(set(sc.m_list) | set(duals)), duals)
    lo, hi = surface.root_corridor()
    failed = [c["check"] for c in checks if c["status"] == "FAIL"]
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "name": sc.name,
        "provenance": {
            "config_sha256": sc.config_sha256,
            "package_version": __version__,
        },
        "scenario": sc.config,
        "corridor_root": [lo, hi],
        "clamp_events": surface.clamp_events,
        "curve": rows,
        "dual": {str(m): dual_entry(res) for m, res in duals.items()},
        "checks": checks,
        "status": "FAIL" if failed else "PASS",
    }

    if out_dir is not None:
        write_artifact(out_dir, "curve.csv", [curve_csv(rows)])
        write_artifact(out_dir, "surface.csv", _surface_csv(surface))
        write_artifact(out_dir, "report.json", [render_report_json(report)])

    if not quiet:
        for chk in checks:
            measured = chk["measured"]
            shown = "n/a" if measured is None else f"{measured:.3e}"
            print(f"{sc.name}: {chk['check']:<16} {chk['status']:<7} "
                  f"measured {shown} vs {chk['threshold']:.3e}")
        print(f"{sc.name}: overall {report['status']}")
    return report
