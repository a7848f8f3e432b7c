"""Correctness gate: an operation counts as failed unless it passes all of it.

Each function returns a list of problems; an empty list means the operation
passed.  If a malformed result makes the gate itself raise, run.py counts
the operation as failed.
"""

from __future__ import annotations

WEAK_DUALITY_TOL = 1e-9     # l*m - certificate <= primal + this, per candidate
SQUARE_TOL = 1e-12          # power-2 loss: V(m) = m^2 on grid-aligned m
ALIGNED_TOL = 1e-12         # |m - grid point| that counts as on the grid
REFERENCE_TOL = 1e-12       # default seed: match the recorded values


def check_execute(res, first_bytes: bytes | None, reference: dict | None) -> list:
    """Gate one ``execute``; ``res`` is a workloads.ExecuteResult."""
    problems = []
    report = res.report
    checks = report.get("checks", [])
    if not checks:
        problems.append("report lists no checks")
    for chk in checks:
        if chk.get("status") != "PASS":
            problems.append(f"check {chk.get('check')} is {chk.get('status')}")
    if report.get("status") != "PASS":
        problems.append(f"report status is {report.get('status')}")

    primal = {}
    for row in report.get("curve", []):
        primal[row["m"]] = row["primal"]
    if not primal:
        problems.append("report has an empty curve")

    # weak duality for every candidate of every slope trace
    for m, out in res.duals:
        if m not in primal:
            problems.append(f"dual threshold {m} has no primal row")
            continue
        for l, cert in out["trace"]:
            excess = l * m - cert - primal[m]
            if not excess <= WEAK_DUALITY_TOL:
                problems.append(f"weak duality broken at m={m}, l={l}: "
                                f"excess {excess:.3e}")
                break
    reported = report.get("dual", {})
    if len(reported) != len(res.duals):
        problems.append(f"report has {len(reported)} dual entries, "
                        f"{len(res.duals)} searches ran")
    for m, row in ((r["m"], r) for r in report.get("curve", [])):
        bound = row.get("dual_bound")
        if bound is not None and not bound <= row["primal"] + WEAK_DUALITY_TOL:
            problems.append(f"dual bound {bound!r} above primal "
                            f"{row['primal']!r} at m={m}")

    # V(m) = m^2 wherever m sits on the root grid (power-2 loss pairs)
    aligned = 0
    for m, value in primal.items():
        if res.root_grid.size and min(abs(res.root_grid - m)) <= ALIGNED_TOL:
            aligned += 1
            if not abs(value - m * m) <= SQUARE_TOL:
                problems.append(f"primal {value!r} != m^2 at m={m}")
    if not aligned:
        problems.append("no threshold lies on the root grid")

    if first_bytes is not None and res.report_bytes != first_bytes:
        problems.append("report.json bytes differ from the first execution")

    if reference is not None:
        problems += check_reference(report, reference)
    return problems


def check_reference(report: dict, reference: dict) -> list:
    """Primal values must match; a dual bound may only rise, never pass primal."""
    problems = []
    rows = {row["m"]: row for row in report.get("curve", [])}
    for key, value in reference.get("primal", {}).items():
        row = rows.get(float(key))
        if row is None or not abs(row["primal"] - value) <= REFERENCE_TOL:
            problems.append(f"primal at m={key} moved from {value!r}")
    for key, value in reference.get("dual_bound", {}).items():
        row = rows.get(float(key))
        bound = None if row is None else row.get("dual_bound")
        if bound is None or not bound >= value - REFERENCE_TOL:
            problems.append(f"dual bound at m={key} fell below {value!r}")
    return problems


def check_verify(summary: dict, expected: int, first: bytes | None,
                 rendered: bytes) -> tuple:
    """(attempted, failed, problems) for one acceptance battery.

    An operation is one criterion.  A criterion fails if it does not PASS;
    if the summary's bytes differ from the run's first battery, every
    criterion counts as failed.
    """
    entries = summary.get("criteria", [])
    problems = [f"criterion {e.get('number')} {e.get('name')} is "
                f"{e.get('status')}: {e.get('detail', {}).get('error', '')}"
                for e in entries if e.get("status") != "PASS"]
    failed = len(problems)
    if len(entries) != expected:
        problems.append(f"{len(entries)} criteria ran, expected {expected}")
        failed = expected
    if first is not None and rendered != first:
        problems.append("report.json bytes differ from the first battery")
        failed = expected
    return expected, failed, problems
