"""Value-surface recursion and its structural checks."""

import dataclasses
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import weakbsde.primal as primal_mod
from weakbsde.bsde import (_one_step, monotone_step_ok, solve_bsde,
                           solve_on_path_tree)
from weakbsde.control import _children, _distinct_rows
from weakbsde.drivers import make_driver, make_loss
from weakbsde.lattice import build_lattice
from weakbsde.runner import _check_attainment
from weakbsde.scenario import build_scenario
from weakbsde.primal import (FEASIBILITY_TOL, PrimalError, PrimalScenario,
                             _backup,
                             _level_grid, _ordered_controls,
                             attainment_check,
                             brute_force_policy_value,
                             brute_force_weak_formulation, continuity_modulus,
                             convexity_check, dpp_check, greedy_plan,
                             monotonicity_violation, primal_value_dp,
                             restriction_check, two_point_envelope,
                             value_curve)


def _scenario(loss_name="power", loss_params=None, steps=8, grid=201, n_a=21,
              f=("zero", {}), g=("zero", {})):
    return PrimalScenario(
        lattice=build_lattice(1.0, steps),
        driver_f=make_driver(f[0], **f[1]),
        driver_g=make_driver(g[0], **g[1]),
        loss=make_loss(loss_name, **(loss_params or {})),
        grid_size=grid, n_a=n_a,
    )


@pytest.fixture(scope="module")
def quadratic_surface():
    return primal_value_dp(_scenario())


def test_quadratic_curve_is_exact_on_grid_points(quadratic_surface):
    ms = [round(0.1 * i, 10) for i in range(1, 10)]
    vals = value_curve(quadratic_surface, ms)
    np.testing.assert_allclose(vals, np.asarray(ms) ** 2, atol=1e-14)


def test_terminal_level_stores_the_raw_loss(quadratic_surface):
    g = quadratic_surface.grids[-1]
    np.testing.assert_allclose(quadratic_surface.values[-1], g**2, atol=1e-15)


def test_curve_rejects_thresholds_outside_corridor(quadratic_surface):
    with pytest.raises(PrimalError, match="corridor"):
        value_curve(quadratic_surface, [1.2])
    with pytest.raises(PrimalError):
        value_curve(quadratic_surface, [-0.1])


def test_curve_rejects_a_nan_threshold_naming_it(quadratic_surface):
    with pytest.raises(PrimalError,
                       match=r"threshold nan outside the root corridor"):
        value_curve(quadratic_surface, [0.5, float("nan")])


def test_attainment_checks_the_corridor_before_planning(risk_surface):
    # the greedy backup at 1.2 would fail first, blaming the zero control
    with pytest.raises(PrimalError, match=r"threshold 1\.2 outside the "
                                          r"root corridor \[0, 1\]"):
        attainment_check(risk_surface, 1.2)


def test_attainment_greedy_policy_replays_the_surface(quadratic_surface):
    res = attainment_check(quadratic_surface, (0.1, 0.5, 0.85))
    assert np.all(res["gap"] <= 2.0 * quadratic_surface.grid_slack + 1e-9), res


def test_monotonicity_and_convexity_on_quadratic(quadratic_surface):
    assert monotonicity_violation(quadratic_surface) <= 1e-12
    res = convexity_check(quadratic_surface)
    assert res["status"] == "checked" and res["violation"] <= 2e-3


def test_convexity_skips_unflagged_losses():
    surf = primal_value_dp(_scenario(loss_name="s_shaped", steps=4, grid=81,
                                     n_a=9))
    res = convexity_check(surf)
    assert res["status"] == "skipped"
    assert "convex" in res["reason"]


def test_continuity_exponent_is_lipschitz_like(quadratic_surface):
    res = continuity_modulus(quadratic_surface, 0.3)
    assert res["status"] == "fitted"
    assert res["exponent"] >= 0.9  # quadratic value curve is Lipschitz here


def test_dpp_one_step_is_exact_and_multi_step_shrinks():
    coarse = primal_value_dp(_scenario(grid=101))
    fine = primal_value_dp(_scenario(grid=401))
    assert dpp_check(coarse, 0, 1)["residual"] == 0.0
    r_coarse = dpp_check(coarse, 0, 8)["residual"]
    r_fine = dpp_check(fine, 0, 8)["residual"]
    assert r_coarse <= 2.0 * coarse.grid_slack
    assert r_fine <= r_coarse / 1.5 + 1e-12


def test_restriction_to_a_subtree_matches(quadratic_surface):
    res = restriction_check(quadratic_surface, 1)
    assert res["max_diff"] <= 1e-12, res
    res2 = restriction_check(quadratic_surface, 2)
    assert res2["max_diff"] <= 1e-12


def test_envelope_surface_tracks_the_two_point_oracle():
    surf = primal_value_dp(_scenario(loss_name="s_shaped"))
    lp = make_loss("s_shaped")
    for m in (0.2, 0.5, 0.8):
        dp = float(value_curve(surf, [m])[0])
        assert abs(dp - two_point_envelope(lp, m)) <= 5e-3


def test_two_point_envelope_frozen_values():
    lp = make_loss("s_shaped")
    assert two_point_envelope(lp, 0.5) == pytest.approx(0.25, abs=1e-6)
    assert two_point_envelope(lp, 0.2) == pytest.approx(0.05, abs=1e-6)
    cs = make_loss("call_spread", lo=0.3, hi=0.7)
    assert two_point_envelope(cs, 0.3) == pytest.approx(0.0, abs=1e-6)
    assert two_point_envelope(cs, 0.65) == pytest.approx(0.5, abs=1e-3)


def test_exhaustive_oracles_agree_with_dp_at_three_levels():
    sc = _scenario(steps=3, grid=161, n_a=7)
    surf = primal_value_dp(sc)
    dp = float(value_curve(surf, [0.5])[0])
    pol = brute_force_policy_value(sc, 0.5)
    weak = brute_force_weak_formulation(sc, 0.5)
    assert dp == pytest.approx(0.25, abs=1e-9)
    assert pol["value"] == pytest.approx(dp, abs=1e-2)
    assert weak["value"] == pytest.approx(dp, abs=1e-2)
    assert pol["n_admissible"] >= 1


def test_risk_adjusted_pair_prices_to_the_square():
    # concave constraint driver + convex pricing driver + square loss:
    # holding the threshold flat is optimal, so the value is m^2
    sc = _scenario(f=("neg_abs_z", {"kappa": 0.3}),
                   g=("abs_z", {"kappa": 0.2}))
    surf = primal_value_dp(sc)
    for m in (0.25, 0.5, 0.75):
        assert float(value_curve(surf, [m])[0]) == pytest.approx(m * m,
                                                                 abs=1e-12)


def test_grid_slack_reflects_node_spacing(quadratic_surface):
    # 201 uniform points per level on [0, 1] -> spacing 1/200
    assert quadratic_surface.grid_slack == pytest.approx(0.005, rel=1e-6)


def test_grid_slack_is_the_widest_spacing_and_is_computed_once():
    surf = primal_value_dp(_scenario(loss_name="s_shaped", steps=3, grid=41,
                                     n_a=5))
    widest = max(float(np.max(np.diff(g))) for g in surf.grids)
    assert surf.grid_slack == widest
    assert surf.__dict__["grid_slack"] == widest  # cached on first read


# Golden values recorded before the DP backup shared the backward solver's
# step kernel, and the values re-recorded when the implicit fixed point
# began to stop per element; the implicit scheme with a y-dependent cost
# driver must reproduce them to the bit.
IMPLICIT_ROOT_GRID = [
    0.0, 0.11065767400162782, 0.22131534800325564, 0.33197302200488343, 0.4,
    0.4426306960065113, 0.5532883700081391, 0.6, 0.6639460440097669,
    0.7746037180113947, 0.8852613920130226, 0.9959190660146504,
    1.1065767400162783,
]
IMPLICIT_ROOT_VALUES = [
    0.0, 0.030693441578858626, 0.061386883157734336, 0.09208032473661006,
    0.11094916590572293, 0.12277376631548008, 0.4825188417039254,
    0.5660404792352619, 0.6196238518734412, 0.7767014434944782,
    1.166350779997071, 1.197044221575948, 1.2277376631548185,
]
IMPLICIT_ROOT_CONTROLS = [0.0] * 6 + [-0.5] + [0.0] * 6


def test_implicit_scheme_golden_values():
    sc = PrimalScenario(lattice=build_lattice(1.0, 4),
                        driver_f=make_driver("linear", a=0.1, b=0.05),
                        driver_g=make_driver("linear", a=0.2, b=0.1),
                        loss=make_loss("s_shaped"), grid_size=11, n_a=9,
                        scheme="implicit")
    surf = primal_value_dp(sc)
    assert surf.grids[0].tolist() == IMPLICIT_ROOT_GRID
    assert surf.values[0].tolist() == IMPLICIT_ROOT_VALUES
    assert surf.controls[0].tolist() == IMPLICIT_ROOT_CONTROLS
    res = attainment_check(surf, 0.5)
    assert res["realized"].tolist() == [0.3773768233822561]
    assert res["gap"][0] <= 2.0 * surf.grid_slack + 1e-9


# ---------------------------------------------------------------------------
# the greedy plan backs up each distinct (level, m) row once
# ---------------------------------------------------------------------------

def _row_by_row_controls(surf, k, m):
    """Reference: one backup per prefix row, each in a batch of its own."""
    return np.array([
        _backup(surf.scenario, surf.corridor, k, m[i:i + 1],
                surf.grids[k + 1], surf.values[k + 1])[1][0]
        for i in range(m.size)
    ])


def _assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _assert_greedy_replay_is_row_exact(surf, m_list):
    """Run attainment for every threshold of m_list on one plan and replay
    each level's rows against the row-by-row reference; returns the
    result and the plan's distinct-row count."""
    res = attainment_check(surf, m_list)
    for k, (m, applied) in enumerate(zip(res["states"], res["controls"])):
        _assert_same_bits(applied, _row_by_row_controls(surf, k, m))
    return res, res["n_backups"]


def _deduped_controls(surf, k, m):
    """The plan's dedup and level backup on arbitrary level-k rows:
    (control of each row, distinct-row count)."""
    first = _distinct_rows(m)
    rows = np.searchsorted(m[first].view(np.int64), m.view(np.int64))
    best = _backup(surf.scenario, surf.corridor, k, m[first],
                   surf.grids[k + 1], surf.values[k + 1])[1]
    return best[rows], first.size


def _prefix_arrays(plan, i):
    """(states, controls) of the plan's i-th threshold over every path
    prefix, in sign-matrix prefix order (as prefix_walk.simulate_all_prefixes
    orders them), expanded from its root row one level at a time."""
    rows = plan.roots[i:i + 1]
    states, controls = [], []
    for m, a, children in zip(plan.states, plan.controls, plan.children):
        states.append(m[rows])
        controls.append(a[rows])
        rows = children[rows].ravel()  # up child at 2h, down at 2h + 1
    states.append(plan.states[-1][rows])
    return states, controls


def _path_tree_realized(surf, plan, i):
    """Reference: the plan's i-th threshold's terminal loss priced on the
    path tree over its 2^N prefixes."""
    sc = surf.scenario
    leaf_cost = np.asarray(sc.loss.phi(_prefix_arrays(plan, i)[0][-1]),
                           dtype=float)
    return float(solve_on_path_tree(sc.lattice, sc.driver_g,
                                    leaf_cost[None, :], scheme=sc.scheme)[0])


@pytest.fixture(scope="module")
def risk_surface():
    return primal_value_dp(_scenario(f=("neg_abs_z", {"kappa": 0.3}),
                                     g=("abs_z", {"kappa": 0.2})))


def _smooth_surface():
    # the certify pair: logcosh_z drives the threshold, softplus_z prices
    # the loss
    return primal_value_dp(_scenario(
        loss_name="power", loss_params={"p": 2.0},
        f=("logcosh_z", {"kappa": 0.3, "sign": -1}),
        g=("softplus_z", {"kappa": 0.2})))


def _implicit_surface(steps, grid):
    # y-dependent f and g: every backup runs the implicit fixed point
    return primal_value_dp(PrimalScenario(
        lattice=build_lattice(1.0, steps),
        driver_f=make_driver("linear", a=0.1, b=0.05),
        driver_g=make_driver("linear", a=0.2, b=0.1),
        loss=make_loss("s_shaped"), grid_size=grid, n_a=9,
        scheme="implicit"))


def test_greedy_dedup_matches_row_by_row_on_recombining_states(risk_surface):
    # the risk pair holds the threshold flat: one state per level
    assert _assert_greedy_replay_is_row_exact(risk_surface, [0.5])[1] == 8


def test_greedy_dedup_matches_row_by_row_without_full_recombination():
    surf = primal_value_dp(PrimalScenario(
        lattice=build_lattice(1.0, 8), driver_f=make_driver("zero"),
        driver_g=make_driver("zero"), loss=make_loss("identity"),
        grid_size=201, n_a=21))
    counts = [_assert_greedy_replay_is_row_exact(surf, [m])[1]
              for m in (0.1, 0.2, 0.3)]
    # the distinct prefix states of each level, summed over levels 0..7
    assert counts == [13, 11, 9]
    # planned together the thresholds share no row
    assert _assert_greedy_replay_is_row_exact(surf, [0.1, 0.2, 0.3])[1] == 33


def test_greedy_dedup_matches_row_by_row_under_the_implicit_scheme():
    # a level's batch mixes the three thresholds' rows here; the controls
    # must not move
    res, _ = _assert_greedy_replay_is_row_exact(_implicit_surface(4, 11),
                                                [0.25, 0.5, 0.75])
    assert res["realized"][1] == 0.3773768233822561


def test_greedy_dedup_keeps_signed_zeros_apart(risk_surface):
    m = np.array([0.0, -0.0, -0.0, 0.0, 0.25, -0.0])
    got, n_rows = _deduped_controls(risk_surface, 1, m)
    _assert_same_bits(got, _row_by_row_controls(risk_surface, 1, m))
    assert n_rows == 3  # +0, -0, 0.25


@settings(max_examples=40)
@given(k=st.integers(0, 7), data=st.data())
def test_greedy_dedup_property_with_injected_duplicates(risk_surface, k, data):
    m_values = st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 0.5])
    rows = data.draw(st.lists(m_values, min_size=1, max_size=8))
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1),
                               min_size=1, max_size=32))
    m = np.array([rows[i] for i in picks])
    got, n_rows = _deduped_controls(risk_surface, k, m)
    _assert_same_bits(got, _row_by_row_controls(risk_surface, k, m))
    assert n_rows == len(set(m.view(np.int64).tolist()))
    # one column: np.unique's rows on the bits, as a float column and as
    # its int64 bits; the rows run in bit order, so the plan finds a
    # state's row by where its bits sort among them
    _, first, inverse = np.unique(m.view(np.int64), return_index=True,
                                  return_inverse=True)
    for rows in (m, m.view(np.int64)):
        assert _distinct_rows(rows).tolist() == first.tolist()
    assert np.searchsorted(m[first].view(np.int64),
                           m.view(np.int64)).tolist() == inverse.tolist()


def test_distinct_rows_keys_every_column_on_its_bits():
    nan, other_nan = np.array([0x7FF8000000000000, 0x7FF8000000000001],
                              dtype=np.int64).view(float)
    m = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [0.0, 1.0],
                  [nan, 1.0], [1.0, nan], [nan, 1.0], [-0.0, 1.0],
                  [other_nan, 1.0], [1.0, nan]])
    keys = [tuple(row) for row in m.view(np.int64).tolist()]
    first_of = {}
    for i, key in enumerate(keys):
        first_of.setdefault(key, i)
    first = _distinct_rows(*m.T)
    # signed zeros and the two NaN payloads stay apart; each row is held by
    # its first occurrence
    assert first.size == len(first_of) == 6
    assert sorted(first.tolist()) == sorted(first_of.values())
    # rows run in bit order, the first column most significant
    assert [keys[i] for i in first] == sorted(first_of)


def test_greedy_plan_is_guarded_by_a_row_budget(monkeypatch):
    # past the 20-level path limit the plan still runs: it holds rows, not
    # prefixes
    surf = primal_value_dp(_scenario(steps=21, grid=3, n_a=2))
    gap = attainment_check(surf, 0.5)["gap"][0]
    assert gap <= 2.0 * surf.grid_slack + 1e-9
    # five thresholds held flat make five rows at every level
    monkeypatch.setattr(primal_mod, "MAX_PLAN_ROWS", 4)
    with pytest.raises(PrimalError,
                       match=r"5 rows at level 1, over its budget of "
                             r"MAX_PLAN_ROWS = 4"):
        greedy_plan(surf, [0.1, 0.3, 0.5, 0.7, 0.9])
    assert greedy_plan(surf, [0.1, 0.3, 0.5, 0.7]).n_backups == 4 * 21


def test_attainment_runs_on_the_risk_pair_at_thirty_two_levels():
    # built directly: build_scenario keeps its 20-level guard.  The plan
    # holds one row per level and threshold, against 2^32 path prefixes
    surf = primal_value_dp(_scenario(steps=32, f=("neg_abs_z", {"kappa": 0.3}),
                                     g=("abs_z", {"kappa": 0.2})))
    res = attainment_check(surf, NINE_THRESHOLDS)
    assert res["n_backups"] == 9 * 32
    assert np.all(res["gap"] <= 2.0 * surf.grid_slack + 1e-9), res["gap"]


def test_shared_plan_matches_one_threshold_plans_on_the_smooth_pair():
    # the certify pair at its default-seed thresholds: a threshold's
    # prefixes in the shared plan are those of its plan alone
    surf = _smooth_surface()
    m_list = (0.25, 0.5, 0.75)
    plan = greedy_plan(surf, m_list)
    shared = attainment_check(surf, m_list)
    for i, m0 in enumerate(m_list):
        alone = greedy_plan(surf, [m0])
        for own, single in zip(_prefix_arrays(plan, i),
                               _prefix_arrays(alone, 0)):
            assert len(own) == len(single)
            for a, b in zip(own, single):
                _assert_same_bits(a, b)
        single = attainment_check(surf, [m0])
        for key in ("realized", "gap"):
            _assert_same_bits(shared[key][i:i + 1], single[key])
        assert single["n_backups"] == 8  # one row per level


@pytest.fixture(scope="module")
def attainment_surfaces():
    """A risk-pair (explicit) and a linear-pair (implicit) surface at
    N = 6, one per scheme."""
    return {
        "explicit": primal_value_dp(_scenario(
            steps=6, grid=61, loss_name="s_shaped",
            f=("neg_abs_z", {"kappa": 0.3}), g=("abs_z", {"kappa": 0.2}))),
        "implicit": _implicit_surface(6, 61),
    }


@settings(max_examples=30)
@given(scheme=st.sampled_from(("explicit", "implicit")),
       picks=st.lists(st.integers(0, 20), min_size=1, max_size=6),
       data=st.data())
def test_planwide_attainment_equals_each_threshold_alone_property(
        attainment_surfaces, scheme, picks, data):
    # pricing every threshold's rows in one batch moves no bit of any
    # threshold's realized cost or gap, under either scheme
    surf = attainment_surfaces[scheme]
    m_list = [0.05 * p for p in picks]
    res = attainment_check(surf, m_list)
    i = data.draw(st.integers(0, len(m_list) - 1))
    alone = attainment_check(surf, [m_list[i]])
    for key in ("realized", "gap"):
        _assert_same_bits(res[key][i:i + 1], alone[key])


def test_attainment_matches_the_path_tree_reference(risk12_surface):
    # the row-wise backward pass against pricing every prefix on the path
    # tree: bit for bit under both schemes, since a one-threshold batch
    # holds the path tree's distinct (up, down) pairs
    cases = ((risk12_surface, NINE_THRESHOLDS),
             (_smooth_surface(), NINE_THRESHOLDS),
             (_implicit_surface(4, 11), (0.25, 0.5, 0.75)),
             (_implicit_surface(8, 101), NINE_THRESHOLDS))
    for surf, m_list in cases:
        plan = greedy_plan(surf, m_list)
        res = attainment_check(surf, m_list)
        _assert_same_bits(res["realized"],
                          [_path_tree_realized(surf, plan, i)
                           for i in range(len(m_list))])


# sha256 of the attainment states and controls (all levels, thresholds
# 0.25 / 0.5 / 0.75 in order, sign-matrix prefix order) recorded with the
# per-prefix backup loop
RISK12_STATES_SHA256 = \
    "766bcc2d1eeb775641b1170cedead8d26e5fc3183d83e290357523d403ceff77"
RISK12_CONTROLS_SHA256 = \
    "a11ba358172138406e6b9f255bcfc6d50b0005c533fe14498004a5607bea1401"
RISK12_CONFIG = {
    "name": "risk12", "lattice": {"horizon": 1.0, "steps": 12},
    "driver_f": {"name": "neg_abs_z", "params": {"kappa": 0.3}},
    "driver_g": {"name": "abs_z", "params": {"kappa": 0.2}},
    "loss": {"name": "power", "params": {"p": 2.0}},
    "primal": {"grid_size": 201, "n_a": 21},
    "dual": {"enabled": False}, "checks": ["attainment"]}


def _risk12_scenario(m_list):
    return build_scenario(dict(RISK12_CONFIG, primal=dict(
        RISK12_CONFIG["primal"], m_list=list(m_list))))


@pytest.fixture(scope="module")
def risk12_surface():
    return primal_value_dp(_risk12_scenario([0.5]).primal())


def test_attainment_golden_digests_risk_pair_twelve_levels(risk12_surface):
    surf = risk12_surface
    states, controls = hashlib.sha256(), hashlib.sha256()
    m_list = (0.25, 0.5, 0.75)
    plan = greedy_plan(surf, m_list)
    for i in range(len(m_list)):
        prefix_states, prefix_controls = _prefix_arrays(plan, i)
        for arr in prefix_states:
            states.update(arr.tobytes())
        for arr in prefix_controls:
            controls.update(arr.tobytes())
    res = attainment_check(surf, m_list)
    assert res["n_backups"] == 3 * 12  # one row per level and threshold
    assert [a.size for a in res["controls"]] == [3] * 12
    assert states.hexdigest() == RISK12_STATES_SHA256
    assert controls.hexdigest() == RISK12_CONTROLS_SHA256
    assert attainment_check(surf, 0.5)["n_backups"] == 12  # levels 0..11


def _risk12_context(surface, m_list):
    """The runner's check context for the twelve-level risk pair."""
    return {"scenario": _risk12_scenario(m_list), "surface": surface}


NINE_THRESHOLDS = [round(0.1 * i, 10) for i in range(1, 10)]


def test_attainment_check_backs_up_each_level_once(risk12_surface,
                                                   monkeypatch):
    # one _backup per interior level, N = 12, whatever the number of
    # thresholds; backing up per node would make it N(N+1)/2 = 78, and per
    # threshold 9 * 12 = 108
    calls = []
    original = primal_mod._backup

    def counting(*args):
        calls.append(args[2])  # the level; one batch of all its rows
        return original(*args)

    monkeypatch.setattr(primal_mod, "_backup", counting)
    entry = _check_attainment(_risk12_context(risk12_surface,
                                              NINE_THRESHOLDS))
    assert entry["status"] == "PASS"
    assert sorted(calls) == list(range(12))


def _traced_peak(fn):
    fn()  # warm the lazily built tables
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_attainment_check_memory_does_not_grow_with_thresholds(
        risk12_surface):
    # one plan holds every threshold's rows, one per level on the risk
    # pair, and one pass prices them: nine thresholds add a few kilobytes
    # of rows to the peak of one
    one = _risk12_context(risk12_surface, [0.5])
    nine = _risk12_context(risk12_surface, NINE_THRESHOLDS)
    assert _traced_peak(lambda: _check_attainment(nine)) <= \
        2 * _traced_peak(lambda: _check_attainment(one))


# ---------------------------------------------------------------------------
# the control-major backup kernel reproduces the state-major one bit for bit
# ---------------------------------------------------------------------------

def _state_major_backup(sc, corridor, k, m_grid, next_grid, next_values):
    """Reference: the (state, control) backup the control-major kernel
    replaced, on a level's slice."""
    lo_u, hi_u = lo_d, hi_d = corridor.bounds_at(k + 1)
    controls = _ordered_controls(sc.base_controls(), [0.0])
    lat = sc.lattice
    m_up, m_dn = _children(lat, sc.driver_f, k,
                           np.asarray(m_grid, float)[:, None], controls[None, :])
    tol = FEASIBILITY_TOL
    feasible = ((m_up >= lo_u - tol) & (m_up <= hi_u + tol)
                & (m_dn >= lo_d - tol) & (m_dn <= hi_d + tol))
    up_c = np.clip(m_up, lo_u, hi_u)
    dn_c = np.clip(m_dn, lo_d, hi_d)
    clamps = int(np.count_nonzero(feasible & ((m_up != up_c) | (m_dn != dn_c))))
    v_up = np.interp(up_c.ravel(), next_grid, next_values).reshape(up_c.shape)
    v_dn = np.interp(dn_c.ravel(), next_grid, next_values).reshape(dn_c.shape)
    vals, _, _ = _one_step(sc.driver_g, lat.time_at(k), v_up, v_dn,
                           lat.sqrt_dt, lat.dt, sc.scheme)
    vals = np.where(feasible, vals, np.inf)
    if not np.all(np.any(feasible, axis=1)):
        bad = int(np.argmin(np.any(feasible, axis=1)))
        raise PrimalError(
            f"no feasible control at level {k}, m = {float(m_grid[bad])!r}; "
            "the zero control should prevent this"
        )
    idx = np.argmin(vals, axis=1)
    return vals[np.arange(vals.shape[0]), idx], controls[idx], clamps


def _assert_backup_matches_reference(surf, k, m):
    """Both kernels on level k of surf over the rows m: equal bits, or the
    same PrimalError message."""
    args = (surf.scenario, surf.corridor, k, m)
    data = (surf.grids[k + 1], surf.values[k + 1])
    try:
        ref = _state_major_backup(*args, *data)
    except PrimalError as exc:
        with pytest.raises(PrimalError) as got:
            _backup(*args, *data)
        assert str(got.value) == str(exc)
        return None
    vals, best, clamps = _backup(*args, *data)
    _assert_same_bits(vals, ref[0])
    _assert_same_bits(best, ref[1])
    assert clamps == ref[2]
    return clamps


def _assert_every_level_matches(surf):
    clamps = 0
    for k in range(surf.scenario.lattice.steps):
        # a level's clamps count once per node of the level
        clamps += (k + 1) * _assert_backup_matches_reference(surf, k,
                                                             surf.grids[k])
    assert clamps == surf.clamp_events


def test_control_major_backup_matches_on_the_recombining_risk_pair(
        risk_surface):
    _assert_every_level_matches(risk_surface)


def test_control_major_backup_matches_at_surface_size():
    surf = primal_value_dp(_scenario(steps=16, grid=601, n_a=41,
                                     f=("neg_abs_z", {"kappa": 0.3}),
                                     g=("abs_z", {"kappa": 0.2})))
    assert surf.clamp_events > 0  # the sample includes clamping nodes
    clamps = 0
    for k in (0, 3, 8, 15):
        clamps += _assert_backup_matches_reference(surf, k, surf.grids[k])
    assert clamps > 0


def test_control_major_backup_matches_under_the_implicit_scheme():
    sc = PrimalScenario(lattice=build_lattice(1.0, 4),
                        driver_f=make_driver("linear", a=0.1, b=0.05),
                        driver_g=make_driver("linear", a=0.2, b=0.1),
                        loss=make_loss("s_shaped"), grid_size=11, n_a=9,
                        scheme="implicit")
    _assert_every_level_matches(primal_value_dp(sc))


def test_control_major_backup_matches_where_controls_tie():
    # a linear loss under zero drivers makes many controls equally good:
    # the first index in (|a|, a) order must win in both layouts
    surf = primal_value_dp(_scenario(loss_name="identity", steps=6, grid=81,
                                     n_a=9))
    _assert_every_level_matches(surf)


def test_control_major_backup_matches_on_smooth_drivers():
    # transcendental drivers in both the forward step and the pricing step
    _assert_every_level_matches(primal_value_dp(_scenario(
        steps=6, grid=81, n_a=9,
        f=("logcosh_z", {"kappa": 0.3, "sign": -1}),
        g=("softplus_z", {"kappa": 0.2}))))


def test_control_major_backup_matches_on_an_unsorted_greedy_batch(
        risk_surface):
    # rows in no particular order, signed zeros kept apart, and exact
    # duplicates too: the kernel must not lean on the plan's sorted rows
    m = np.array([0.7, 0.0, 0.25, -0.0, 0.7, 1.0, 0.1 + 0.2, 0.3, -0.0,
                  0.999999, 1e-300, 0.5])
    for k in (0, 4, 7):
        _assert_backup_matches_reference(risk_surface, k, m)


def _assert_backup_names_the_first_infeasible_state(risk_surface):
    m = np.array([0.5, 0.2, -0.25, 0.75, 1.5, -0.5])
    args = (risk_surface.scenario, risk_surface.corridor, 3, m)
    data = (risk_surface.grids[4], risk_surface.values[4])
    with pytest.raises(PrimalError) as ref:
        _state_major_backup(*args, *data)
    # a plain float, not the numpy scalar repr np.float64(-0.25)
    with pytest.raises(PrimalError, match=r"level 3, m = -0\.25; ") as got:
        _backup(*args, *data)
    assert str(got.value) == str(ref.value)


def test_backup_names_the_first_infeasible_state(risk_surface):
    _assert_backup_names_the_first_infeasible_state(risk_surface)


@pytest.mark.parametrize("block", [1, 21, 100])
def test_backup_matches_in_blocks_of_any_size(risk_surface, monkeypatch,
                                              block):
    # one state per block (a block smaller than the 21 controls, or just
    # their size) and blocks that leave a remainder; the first infeasible
    # state sits in the third block of one state each
    monkeypatch.setattr(primal_mod, "_PAIR_BLOCK", block)
    _assert_every_level_matches(risk_surface)
    _assert_backup_names_the_first_infeasible_state(risk_surface)


@settings(max_examples=60)
@given(k=st.integers(0, 7), data=st.data())
def test_control_major_backup_property(risk_surface, k, data):
    # the corridor is [0, 1]: rows at an edge, or outside it by less than
    # the feasibility tolerance, reach the clamp; farther out none is feasible
    edges = st.sampled_from([0.0, -0.0, 1.0, -5e-10, 1.0 + 5e-10, -1e-8])
    m = np.array(data.draw(st.lists(st.floats(0.0, 1.0) | edges,
                                    min_size=1, max_size=24)))
    if data.draw(st.booleans()):
        m = np.sort(m)
    _assert_backup_matches_reference(risk_surface, k, m)


# ---------------------------------------------------------------------------
# the feasible-only DP against a DP of full-batch backups
# ---------------------------------------------------------------------------

def _full_batch_dp(sc, surf):
    """Reference: the DP sweep over surf's grids with every level backed up
    by the full-batch state-major kernel; returns (values, controls,
    clamp_events)."""
    values, controls = list(surf.values), list(surf.controls)
    clamps = 0
    for k in range(sc.lattice.steps - 1, -1, -1):
        values[k], controls[k], c = _state_major_backup(
            sc, surf.corridor, k, surf.grids[k], surf.grids[k + 1],
            values[k + 1])
        clamps += (k + 1) * c
    return values, controls, clamps


# (driver_f, driver_g): y-dependent f and g; y-dependent f only; y-dependent
# g only
SWEEP_DRIVERS = (
    (("linear", {"a": 0.1, "b": 0.05}), ("linear", {"a": 0.2, "b": 0.1})),
    (("linear", {"a": -0.3, "b": 0.1}), ("linear", {"a": 0.0, "b": -0.2})),
    (("linear", {"a": 0.0, "b": 0.1}), ("linear", {"a": -0.25, "b": 0.15})),
)
SWEEP_LOSSES = (("s_shaped", {}), ("power", {"p": 2.0}), ("identity", {}))


@pytest.mark.parametrize("steps", [3, 4, 6, 8])
def test_feasible_only_dp_matches_full_batch_backups(steps):
    # the backup prices only the feasible pairs, the reference every pair;
    # every value, argmin control and clamp count must keep its bits
    for scheme, grid, (loss, params), (f, g) in itertools.product(
            ("explicit", "implicit"), (11, 41, 101), SWEEP_LOSSES,
            SWEEP_DRIVERS):
        sc = PrimalScenario(lattice=build_lattice(1.0, steps),
                            driver_f=make_driver(f[0], **f[1]),
                            driver_g=make_driver(g[0], **g[1]),
                            loss=make_loss(loss, **params), grid_size=grid,
                            n_a=9, scheme=scheme)
        surf = primal_value_dp(sc)
        values, controls, clamps = _full_batch_dp(sc, surf)
        assert clamps == surf.clamp_events
        for k in range(steps):
            _assert_same_bits(surf.controls[k], controls[k])
            _assert_same_bits(surf.values[k], values[k])


def test_control_sets_hold_each_nodes_ordered_controls(risk_surface):
    # each node's set, built from its own corridor-tracking slopes by the
    # per-node reference, is the scenario's one set
    sc = risk_surface.scenario
    node_sets = _per_node_dp(sc)[4]
    for k in range(sc.lattice.steps):
        assert len(node_sets[k]) == k + 1
        for node_controls in node_sets[k]:
            _assert_same_bits(sc.control_set, node_controls)
    # with an even n_a the base grid misses 0; the set keeps it
    even = dataclasses.replace(sc, n_a=4)
    assert 0.0 not in even.base_controls()
    assert 0.0 in even.control_set
    _assert_same_bits(even.control_set,
                      _ordered_controls(even.base_controls(), [0.0]))
    # _backup tries the scenario's set and no other: the full set picks 0
    # on these states, a set holding one slope outside it picks that slope
    args = (risk_surface.corridor, 3, np.array([0.25, 0.5, 0.75]),
            risk_surface.grids[4], risk_surface.values[4])
    assert not np.any(_backup(sc, *args)[1])
    one = dataclasses.replace(sc)
    one.__dict__["control_set"] = np.array([0.125])
    assert 0.125 not in sc.control_set
    assert np.all(_backup(one, *args)[1] == 0.125)


# ---------------------------------------------------------------------------
# the level-only DP against the per-node DP it replaced
# ---------------------------------------------------------------------------

def _node_backup(sc, floor, ceiling, k, j, m_grid, controls, next_grids,
                 next_values):
    """Reference: the backup of node (k, j), with the level-(k+1) corridor
    (floor, ceiling) and interpolation data given per node."""
    lo_u, hi_u, lo_d, hi_d = (float(floor[j + 1]), float(ceiling[j + 1]),
                              float(floor[j]), float(ceiling[j]))
    lat = sc.lattice
    m_up, m_dn = _children(lat, sc.driver_f, k,
                           np.asarray(m_grid, float)[None, :], controls[:, None])
    tol = FEASIBILITY_TOL
    feasible = ((m_up >= lo_u - tol) & (m_up <= hi_u + tol)
                & (m_dn >= lo_d - tol) & (m_dn <= hi_d + tol))
    assert np.all(np.any(feasible, axis=0))
    kept = np.flatnonzero(feasible)
    m_up, m_dn = m_up.take(kept), m_dn.take(kept)
    up_c = np.clip(m_up, lo_u, hi_u)
    dn_c = np.clip(m_dn, lo_d, hi_d)
    clamps = int(np.count_nonzero((m_up != up_c) | (m_dn != dn_c)))
    v_up = np.interp(up_c, next_grids[j + 1], next_values[j + 1])
    v_dn = np.interp(dn_c, next_grids[j], next_values[j])
    priced, _, _ = _one_step(sc.driver_g, lat.time_at(k), v_up, v_dn,
                             lat.sqrt_dt, lat.dt, sc.scheme)
    vals = np.full(feasible.shape, np.inf)
    vals.put(kept, priced)
    idx = np.argmin(vals, axis=0)
    return vals[idx, np.arange(vals.shape[1])], controls[idx], clamps


def _per_node_dp(sc):
    """Reference: the DP over every (node, m) state, each node with its own
    corridor bounds, m-grid, control set (the base grid plus the floor and
    ceiling solves' slopes at the node) and children.  Returns (floor,
    ceiling, grids, values, control_sets, controls, clamp_events), the
    per-node entries indexed [k][j] and floor, ceiling the (y, z) levels
    of the two solves."""
    lat, n = sc.lattice, sc.lattice.steps
    floor, ceiling = (solve_bsde(lat, sc.driver_f, np.full(n + 1, edge),
                                 scheme=sc.scheme)[:2] for edge in (0.0, 1.0))
    (floor_y, floor_z), (ceiling_y, ceiling_z) = floor, ceiling
    base = sc.base_controls()
    control_sets = [[_ordered_controls(base, [floor_z[k][j],
                                              ceiling_z[k][j]])
                     for j in range(k + 1)] for k in range(n)]
    grids = [[_level_grid(float(floor_y[k][j]), float(ceiling_y[k][j]),
                          sc.grid_size, sc.loss.breakpoints)
              for j in range(k + 1)] for k in range(n + 1)]
    values = [None] * n + [[np.asarray(sc.loss.phi(g), float)
                            for g in grids[n]]]
    controls = [None] * n + [[np.zeros_like(g) for g in grids[n]]]
    clamps = 0
    for k in range(n - 1, -1, -1):
        values[k], controls[k] = [None] * (k + 1), [None] * (k + 1)
        for j in range(k + 1):
            values[k][j], controls[k][j], c = _node_backup(
                sc, floor_y[k + 1], ceiling_y[k + 1], k, j,
                grids[k][j], control_sets[k][j], grids[k + 1], values[k + 1])
            clamps += c
    return floor, ceiling, grids, values, control_sets, controls, clamps


def _assert_level_dp_matches_the_per_node_dp(sc):
    """Every (k, j) of the per-node DP equals level k of primal_value_dp
    bit for bit; the corridor is node-constant with zero slopes; the
    surface's clamp count is the per-node total."""
    surf = primal_value_dp(sc)
    floor, ceiling, grids, values, sets, controls, clamps = _per_node_dp(sc)
    for k in range(sc.lattice.steps + 1):
        for (edge_y, edge_z), level_edge in ((floor, surf.corridor.floor),
                                             (ceiling, surf.corridor.ceiling)):
            _assert_same_bits(edge_y[k], np.full(k + 1, level_edge[k]))
            if k < sc.lattice.steps:
                assert not np.any(edge_z[k])
        for j in range(k + 1):
            _assert_same_bits(grids[k][j], surf.grids[k])
            _assert_same_bits(values[k][j], surf.values[k])
            _assert_same_bits(controls[k][j], surf.controls[k])
            if k < sc.lattice.steps:
                _assert_same_bits(sets[k][j], sc.control_set)
    assert surf.clamp_events == clamps


# every driver and loss of the package's catalogues, with params in range
DRIVER_CHOICES = (
    ("zero", {}), ("abs_z", {"kappa": 0.2}), ("neg_abs_z", {"kappa": 0.3}),
    ("logcosh_z", {"kappa": 0.3, "sign": -1}), ("softplus_z", {"kappa": 0.2}),
    ("linear", {"a": 0.4, "b": 0.3}), ("linear", {"a": -0.5, "b": 0.2}),
)
LOSS_CHOICES = (("identity", {}), ("power", {"p": 2.0}), ("s_shaped", {}),
                ("call_spread", {"lo": 0.3, "hi": 0.7}))


@settings(max_examples=40)
@given(steps=st.integers(1, 8), f=st.sampled_from(DRIVER_CHOICES),
       g=st.sampled_from(DRIVER_CHOICES), loss=st.sampled_from(LOSS_CHOICES),
       grid=st.integers(3, 41), n_a=st.integers(2, 9),
       scheme=st.sampled_from(("explicit", "implicit")))
def test_level_dp_matches_the_per_node_dp_property(steps, f, g, loss, grid,
                                                   n_a, scheme):
    lat = build_lattice(1.0, steps)
    drivers = (make_driver(f[0], **f[1]), make_driver(g[0], **g[1]))
    for d in drivers:  # the schemes' own preconditions
        assume(monotone_step_ok(lat, d) if scheme == "explicit"
               else d.lipschitz_y * lat.dt < 1.0)
    _assert_level_dp_matches_the_per_node_dp(PrimalScenario(
        lattice=lat, driver_f=drivers[0], driver_g=drivers[1],
        loss=make_loss(loss[0], **loss[1]), grid_size=grid, n_a=n_a,
        scheme=scheme))


def test_level_dp_matches_the_per_node_dp_at_surface_size():
    # the benchmark surface pair, where the node axis is widest and clamps
    # occur, and an implicit pair with y-dependent f and g
    _assert_level_dp_matches_the_per_node_dp(_scenario(
        steps=16, grid=601, n_a=41, f=("neg_abs_z", {"kappa": 0.3}),
        g=("abs_z", {"kappa": 0.2})))
    _assert_level_dp_matches_the_per_node_dp(PrimalScenario(
        lattice=build_lattice(1.0, 12),
        driver_f=make_driver("linear", a=0.4, b=0.3),
        driver_g=make_driver("linear", a=-0.5, b=0.2),
        loss=make_loss("s_shaped"), grid_size=201, n_a=21,
        scheme="implicit"))
