"""Acceptance battery: every criterion must hold at its stated tolerance.

Each test prints one verdict line (visible with ``pytest -s`` or on
failure) and asserts the criterion passed.  Criteria with a stated
runtime budget also assert the measured wall time.  The tests share one
session-scoped workspace, so surfaces and dual bounds computed by early
criteria are reused by later ones — same warm-cache order as
``weakbsde verify``.
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import time

import pytest

from weakbsde import acceptance
from weakbsde.acceptance import CRITERIA, Workspace, run_criterion, verify_all
from weakbsde.scenario import build_scenario, catalogue

_BY_NUMBER = {c.number: c for c in CRITERIA}
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def workspace():
    return Workspace()


def _run(number, ws):
    crit = _BY_NUMBER[number]
    started = time.perf_counter()
    entry = run_criterion(crit, ws)
    elapsed = time.perf_counter() - started
    measured = entry["measured"]
    threshold = entry["threshold"]
    print(f"[{number:2d}] {crit.name}: {entry['status']} "
          f"measured={measured!r} threshold={threshold!r} ({elapsed:.2f}s)")
    assert entry["status"] == "PASS", (
        f"criterion {number} ({crit.name}) failed: "
        f"measured={measured!r} threshold={threshold!r} "
        f"detail={entry['detail']!r}")
    if crit.budget_seconds is not None:
        assert elapsed < crit.budget_seconds, (
            f"criterion {number} ({crit.name}) took {elapsed:.2f}s, "
            f"budget {crit.budget_seconds:.0f}s")
    return entry


def test_criterion_01_zero_driver_reduction(workspace):
    _run(1, workspace)


def test_criterion_02_linear_driver_closed_form(workspace):
    _run(2, workspace)


def test_criterion_03_representation_roundtrip(workspace):
    _run(3, workspace)


def test_criterion_04_comparison_order(workspace):
    _run(4, workspace)


def test_criterion_05_jensen_curve(workspace):
    _run(5, workspace)


def test_criterion_06_two_point_envelope(workspace):
    _run(6, workspace)


def test_criterion_07_small_tree_equivalence(workspace):
    _run(7, workspace)


def test_oracle_criteria_entries_are_pinned():
    """The entries the exhaustive oracles feed into report.json, recorded
    before the oracles were scored in blocks; a moved oracle bit shows
    here, not only in a hash of the whole report."""
    entries = verify_all(only=[6, 7], quiet=True)["criteria"]
    assert [(e["number"], e["status"], e["measured"], e["detail"])
            for e in entries] == [
        (6, "PASS", 0.0019531250000000555,
         {"scenarios": ["envelope", "call_spread"]}),
        (7, "PASS", 0.0, {
            "tiny_identity": {"dp": 0.5, "policy_enum": 0.5,
                              "leaf_search": 0.5},
            "tiny_power": {"dp": 0.25, "policy_enum": 0.25,
                           "leaf_search": 0.25},
            "tiny_risk": {"dp": 0.25, "policy_enum": 0.25,
                          "leaf_search": 0.25}}),
    ]


def test_stacked_criteria_entries_are_pinned():
    """Criteria 3 and 4 at seed 24, recorded while they still made one
    roundtrip or comparison call per trial: their stacked calls (one per
    driver) must keep every reading."""
    entries = verify_all(only=[3, 4], seed=24, quiet=True)["criteria"]
    assert [(e["number"], e["status"], e["measured"], e["detail"])
            for e in entries] == [
        (3, "PASS", 5.551115123125783e-16, {"trials": 100}),
        (4, "PASS", -0.0020900289877214817, {"trials": 100, "drivers": 6}),
    ]


# sha256 of the whole battery's report.json at seed 24, all 16 criteria
# (re-recorded when the dual certificate moved to the N + 1 lattice nodes,
# which moved the c12 and c13 readings in their last bits)
VERIFY_SEED_24_SHA256 = \
    "5038e1e0507e02c0ddf7f6c8e313e0792913664a3571081eb64b53c21b9f50dd"


def test_verify_report_bytes_are_pinned(tmp_path):
    """`weakbsde verify --seed 24 --out <dir>` in a fresh interpreter writes
    the same report.json bytes: any moved reading, format or layout of any
    criterion shows up here."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "weakbsde", "verify", "--seed",
                    "24", "--out", str(tmp_path), "--quiet"], env=env,
                   check=True)
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes())
    assert digest.hexdigest() == VERIFY_SEED_24_SHA256


def test_criterion_08_dynamic_programming_consistency(workspace):
    _run(8, workspace)


def test_criterion_09_curve_monotonicity(workspace):
    _run(9, workspace)


def test_criterion_10_curve_continuity(workspace):
    _run(10, workspace)


def test_criterion_11_curve_convexity(workspace):
    _run(11, workspace)


def test_criterion_12_weak_duality(workspace):
    _run(12, workspace)


def test_criterion_13_strong_duality_quadratic(workspace):
    _run(13, workspace)


def test_criterion_13_searches_with_the_scenarios_own_rounds(monkeypatch):
    # jensen runs 3 rounds, so a workspace whose jensen runs 1 tells the
    # scenario's own setting apart from dual_value's default
    cfg = catalogue()["jensen"]
    cfg["dual"] = {"rounds": 1}
    ws = Workspace()
    ws._scenarios["jensen"] = build_scenario(cfg)
    seen = []
    original = acceptance.dual_value

    def spy(*args, **kwargs):
        seen.append(kwargs.get("rounds"))
        return original(*args, **kwargs)

    monkeypatch.setattr(acceptance, "dual_value", spy)
    assert run_criterion(_BY_NUMBER[13], ws)["status"] == "PASS"
    assert seen == [1] * 9


def test_criterion_14_first_order_conditions(workspace):
    _run(14, workspace)


def test_criterion_15_estimation_gap_scaling(workspace):
    _run(15, workspace)


def test_criterion_16_deterministic_reports(workspace):
    _run(16, workspace)
