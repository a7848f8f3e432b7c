"""A NaN reading must fail its gate.

Python's max drops a NaN that comes after a number (max(0.0, nan) is
0.0), so a check that folded its readings that way passed on a NaN.
Each test seeds one NaN into a reading that is not the first one folded,
and asserts that the runner check or acceptance criterion reports FAIL
with a NaN measured.
"""

import dataclasses
import math

import numpy as np
import pytest

import weakbsde.acceptance as acceptance_mod
import weakbsde.runner as runner_mod
from weakbsde.acceptance import CRITERIA, Workspace, run_criterion
from weakbsde.primal import primal_value_dp, value_curve
from weakbsde.scenario import build_scenario

NAN = math.nan

# a 3-step zero-driver pair with three thresholds, every runner check on
TINY_CONFIG = {
    "name": "tiny_nan",
    "lattice": {"horizon": 1.0, "steps": 3},
    "loss": {"name": "power", "params": {"p": 2.0}},
    "primal": {"grid_size": 41, "n_a": 5, "m_list": [0.25, 0.5, 0.75]},
    "dual": {"enabled": False},
}


@pytest.fixture(scope="module")
def ctx():
    sc = build_scenario(TINY_CONFIG)
    prim = sc.primal()
    surface = primal_value_dp(prim)
    return {"scenario": sc, "primal_scenario": prim, "surface": surface,
            "curve": value_curve(surface, sc.m_list), "duals": {}}


def _nan_on_call(fn, call, key):
    """fn, with result[key] replaced by NaN on the call-th call (from 1)."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(None)
        res = fn(*args, **kwargs)
        return {**res, key: NAN} if len(calls) == call else res
    return spy


def _nan_at_last_level(surface):
    """surface with a NaN value at the first m of its last level."""
    values = list(surface.values)
    values[-1] = values[-1].copy()
    values[-1][0] = NAN
    return dataclasses.replace(surface, values=tuple(values))


def _assert_fails(entry):
    assert entry["status"] == "FAIL", entry
    assert math.isnan(entry["measured"]), entry


def test_the_runner_checks_pass_without_a_nan(ctx):
    for name in ("monotonicity", "value_envelope", "restriction",
                 "comparison", "roundtrip", "admissibility", "equivalence"):
        assert runner_mod.CHECK_HANDLERS[name](ctx)["status"] == "PASS", name


def test_a_nan_on_the_curve_fails_monotonicity(ctx):
    curve = np.array(ctx["curve"])
    curve[1] = NAN
    _assert_fails(runner_mod._check_monotonicity({**ctx, "curve": curve}))


@pytest.mark.parametrize("name", ["monotonicity", "value_envelope",
                                  "restriction"])
def test_a_nan_on_the_surface_fails_its_check(ctx, name):
    nan_ctx = {**ctx, "surface": _nan_at_last_level(ctx["surface"])}
    _assert_fails(runner_mod.CHECK_HANDLERS[name](nan_ctx))


def test_a_nan_certificate_fails_weak_duality(ctx):
    duals = {0.5: {"trace": [(0.5, 10.0), (1.0, NAN)]}}
    _assert_fails(runner_mod._check_weak_duality({**ctx, "duals": duals}))


def test_a_nan_excursion_fails_admissibility(ctx, monkeypatch):
    walk = runner_mod.simulate_rows

    def nan_walk(*args):
        walks, nodes, states, latched = walk(*args)
        states[-1] = np.where(np.arange(states[-1].size) == 0, NAN,
                              states[-1])
        return walks, nodes, states, latched
    monkeypatch.setattr(runner_mod, "simulate_rows", nan_walk)
    _assert_fails(runner_mod._check_admissibility(ctx))


@pytest.mark.parametrize("check, target, key", [
    ("comparison", "comparison_check", "max_violation"),
    ("roundtrip", "representation_roundtrip", "max_error"),
    ("equivalence", "brute_force_weak_formulation", "value"),
])
def test_a_nan_reading_fails_its_runner_check(ctx, monkeypatch, check,
                                              target, key):
    monkeypatch.setattr(runner_mod, target,
                        _nan_on_call(getattr(runner_mod, target), 2, key))
    _assert_fails(runner_mod.CHECK_HANDLERS[check](ctx))


@pytest.fixture(scope="module")
def workspace():
    return Workspace()


def _criterion(number, ws):
    (crit,) = [c for c in CRITERIA if c.number == number]
    return run_criterion(crit, ws)


@pytest.mark.parametrize("number, name, m", [
    (5, "jensen", 0.5),
    (6, "call_spread", 0.5),
    (7, "tiny_risk", 0.5),
    (12, "risk_pair", 0.5),
    (13, "jensen", 0.5),
])
def test_a_nan_value_fails_its_criterion(workspace, monkeypatch, number,
                                         name, m):
    value = Workspace.value

    def nan_value(self, scenario, threshold):
        if (scenario, threshold) == (name, m):
            return NAN
        return value(self, scenario, threshold)
    monkeypatch.setattr(Workspace, "value", nan_value)
    _assert_fails(_criterion(number, workspace))


# c14 prices one candidate, so its NaN is the third of four residuals
@pytest.mark.parametrize("number, target, key, call", [
    (3, "representation_roundtrip", "max_error", 2),
    (4, "comparison_check", "max_violation", 2),
    (7, "brute_force_weak_formulation", "value", 2),
    (11, "convexity_check", "violation", 2),
    (14, "first_order_residuals", "cost_fenchel", 1),
])
def test_a_nan_reading_fails_its_criterion(workspace, monkeypatch, number,
                                           target, key, call):
    monkeypatch.setattr(acceptance_mod, target,
                        _nan_on_call(getattr(acceptance_mod, target), call,
                                     key))
    _assert_fails(_criterion(number, workspace))


def test_a_nan_level_fails_criterion_01(workspace, monkeypatch):
    solve = acceptance_mod.solve_bsde

    def nan_solve(*args, **kwargs):
        y, *rest = solve(*args, **kwargs)
        y[10] = np.full_like(y[10], NAN)
        return (y, *rest)
    monkeypatch.setattr(acceptance_mod, "solve_bsde", nan_solve)
    _assert_fails(_criterion(1, workspace))


def test_a_nan_violation_fails_criterion_09(workspace, monkeypatch):
    monkeypatch.setattr(
        acceptance_mod, "monotonicity_violation",
        lambda surface: NAN if surface.scenario.loss.name == "identity"
        else 0.0)
    _assert_fails(_criterion(9, workspace))
