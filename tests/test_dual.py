"""Dual certificates: node-sum pricing, candidate search, duality gaps."""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weakbsde.dual as dual_mod
import weakbsde.primal as primal_mod
import weakbsde.runner as runner_mod
from path_tree import _path_sums, path_tree_adjoints, path_tree_certificate
from weakbsde.acceptance import Workspace
from weakbsde.bsde import _one_step
from weakbsde.control import _children, _interleave
from weakbsde.drivers import (ConjugateDomainError, Driver, make_driver,
                              make_loss)
from weakbsde.dual import (DualControls, DualFeasibilityError, dual_bound,
                           dual_objective, dual_value, first_order_residuals)
from weakbsde.lattice import build_lattice
from weakbsde.primal import PrimalScenario, primal_value_dp, value_curve
from weakbsde.scenario import build_scenario, catalogue_scenario


def test_dual_controls_validation():
    with pytest.raises(DualFeasibilityError):
        DualControls(-1.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DualFeasibilityError):
        DualControls(0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DualFeasibilityError, match="value_noise"):
        DualControls(1.0, 0.0, np.zeros(2), 0.0, 0.0)   # not one number
    with pytest.raises(DualFeasibilityError, match="threshold_drift"):
        DualControls(1.0, 0.0, 0.0, math.nan, 0.0)
    dc = DualControls(1.5, 0, np.float32(0.25), 0.0, -0.5)
    assert [type(getattr(dc, name)) for name in dual_mod.CONSTANTS] \
        == [float] * 4
    assert dc.column().tolist() == [[0.0], [0.25], [0.0], [-0.5]]
    with pytest.raises(dataclasses.FrozenInstanceError):
        dc.value_noise = 1.0  # the candidate is frozen


def test_dual_controls_do_not_capture_caller_arrays():
    mine = np.zeros(())
    dc = DualControls(1.0, mine, mine, mine, mine)
    mine[()] = 7.0  # caller's array must stay writeable, dc unchanged
    assert dc.column().tolist() == [[0.0]] * 4


def test_zeros_factory_and_objective_equals_polar():
    lat = build_lattice(1.0, 6)
    lp = make_loss("power", p=2.0)
    zero = make_driver("zero")
    for l in (0.5, 1.0, 1.7, 3.0):
        dc = DualControls.zeros(slope=l)
        got = dual_objective(lat, dc, zero, zero, lp)
        assert got == pytest.approx(float(lp.polar(l)), abs=1e-14)


def test_excessive_noise_breaks_positivity():
    lat = build_lattice(1.0, 3)
    dc = DualControls(1.0, 0.0, 5.0, 0.0, 0.0)
    with pytest.raises(DualFeasibilityError, match="margin"):
        dual_objective(lat, dc, make_driver("zero"), make_driver("zero"),
                       make_loss("power", p=2.0))


def test_dual_value_is_a_single_evaluation_for_point_domains():
    # zero drivers give point conjugate domains: nothing to search over
    lat = build_lattice(1.0, 8)
    res = dual_value(lat, 1.0, make_driver("zero"), make_driver("zero"),
                     make_loss("power", p=2.0))
    assert res["n_evaluations"] == 1
    assert res["value"] == pytest.approx(0.25, abs=1e-14)


def test_dual_value_search_never_goes_above_the_start():
    lat = build_lattice(1.0, 6)
    f = make_driver("neg_abs_z", kappa=0.3)
    g = make_driver("abs_z", kappa=0.2)
    lp = make_loss("power", p=2.0)
    for l in (0.6, 1.0, 1.4):
        res = dual_value(lat, l, f, g, lp)
        start = dual_objective(lat, DualControls.zeros(l), f, g, lp)
        assert res["value"] <= start + 1e-14
        assert res["n_evaluations"] >= 1


def test_weak_duality_against_dp_values():
    """Every (l, certificate) pair evaluated during the search is a genuine
    lower-bound certificate: l*m - X0 <= primal value."""
    lat = build_lattice(1.0, 6)
    f = make_driver("neg_abs_z", kappa=0.3)
    g = make_driver("abs_z", kappa=0.2)
    lp = make_loss("power", p=2.0)
    sc = PrimalScenario(lattice=lat, driver_f=f, driver_g=g, loss=lp,
                        grid_size=161, n_a=13)
    surf = primal_value_dp(sc)
    for m in (0.3, 0.5, 0.7):
        primal = float(value_curve(surf, [m])[0])
        res = dual_bound(lat, f, g, lp, m)
        for l, certificate in res["trace"]:
            assert l * m - certificate <= primal + 1e-9
        assert res["bound"] <= primal + 1e-9
        assert res["bound"] == pytest.approx(m * m, abs=1e-6)


# The catalogue drivers with each one's conjugate domain, the (drift, noise)
# points where the conjugate is finite: drift is fixed, noise spans
# [lo, hi].  Only a y-independent f gives a valid bound (the dual module), so
# f is drawn from those; g may read y.
WEAK_DUALITY_F = (
    (("zero", {}), 0.0, 0.0, 0.0),
    (("linear", {"a": 0.0, "b": 0.2}), 0.0, 0.2, 0.2),
    (("neg_abs_z", {"kappa": 0.3}), 0.0, -0.3, 0.3),
    (("logcosh_z", {"kappa": 0.3, "sign": -1}), 0.0, -0.3, 0.3),
)
WEAK_DUALITY_G = (
    (("zero", {}), 0.0, 0.0, 0.0),
    (("linear", {"a": 0.2, "b": 0.1}), 0.2, 0.1, 0.1),
    (("abs_z", {"kappa": 0.2}), 0.0, -0.2, 0.2),
    (("softplus_z", {"kappa": 0.2}), 0.0, 0.0, 0.2),
    (("logcosh_z", {"kappa": 0.3, "sign": 1}), 0.0, -0.3, 0.3),
)
WEAK_DUALITY_LOSSES = (("power", {"p": 2.0}), ("power", {"p": 1.5}),
                       ("identity", {}),
                       ("call_spread", {"lo": 0.3, "hi": 0.7}),
                       ("s_shaped", {}))


def _constant_candidate(f, g, slope, data):
    """A feasible time-constant candidate of slope and drawn noises, and
    its drivers: (constants, d_f, d_g)."""
    constants = []
    for _, drift, lo, hi in (g, f):
        constants += [drift, lo + (hi - lo) * data.draw(st.floats(0.0, 1.0))]
    (f_name, f_params), (g_name, g_params) = f[0], g[0]
    return (constants, make_driver(f_name, **f_params),
            make_driver(g_name, **g_params))


@settings(max_examples=150)
@given(f=st.sampled_from(WEAK_DUALITY_F), g=st.sampled_from(WEAK_DUALITY_G),
       loss=st.sampled_from(WEAK_DUALITY_LOSSES), steps=st.integers(1, 10),
       slope=st.floats(0.05, 4.0), data=st.data())
def test_certificate_matches_the_path_tree_reference(f, g, loss, steps,
                                                     slope, data):
    # the node sum and the 2^N path enumeration sum in different orders,
    # so they agree to rounding, not to the bit
    constants, d_f, d_g = _constant_candidate(f, g, slope, data)
    lat = build_lattice(1.0, steps)
    lp = make_loss(loss[0], **loss[1])
    got = dual_objective(lat, DualControls(slope, *constants), d_f, d_g, lp)
    want = path_tree_certificate(lat, slope, constants, d_f, d_g, lp)
    assert abs(got - want) <= 1e-14 * abs(want), (got, want)


@settings(max_examples=150)
@given(f=st.sampled_from(WEAK_DUALITY_F), g=st.sampled_from(WEAK_DUALITY_G),
       loss=st.sampled_from(WEAK_DUALITY_LOSSES), steps=st.integers(1, 10),
       scheme=st.sampled_from(("explicit", "implicit")),
       slope=st.floats(0.05, 4.0), data=st.data())
def test_weak_duality_property(f, g, loss, steps, scheme, slope, data):
    # every feasible candidate's line l m - certificate stays below the DP
    # value at every root-grid m
    constants, d_f, d_g = _constant_candidate(f, g, slope, data)
    lat = build_lattice(1.0, steps)
    lp = make_loss(loss[0], **loss[1])
    surf = primal_value_dp(PrimalScenario(lattice=lat, driver_f=d_f,
                                          driver_g=d_g, loss=lp,
                                          scheme=scheme))
    certificate = dual_objective(lat, DualControls(slope, *constants), d_f,
                                 d_g, lp)
    excess = slope * surf.grids[0] - certificate - surf.values[0]
    assert float(np.max(excess)) <= 1e-9


def test_dual_bound_matches_polar_maximum_for_zero_drivers():
    lat = build_lattice(1.0, 8)
    zero = make_driver("zero")
    lp = make_loss("power", p=2.0)
    res = dual_bound(lat, zero, zero, lp, 0.4)
    # sup_l (l*m - l^2/4) = m^2 at l = 2m
    assert res["bound"] == pytest.approx(0.16, abs=1e-9)
    assert res["l_star"] == pytest.approx(0.8, abs=1e-4)
    assert res["n_slope_evaluations"] == len(res["trace"])
    ls = [l for l, _ in res["trace"]]
    assert min(ls) > 0.0 and max(ls) <= 4.0


def test_first_order_residuals_vanish_at_the_analytic_optimum():
    sc = PrimalScenario(lattice=build_lattice(1.0, 8),
                        driver_f=make_driver("zero"),
                        driver_g=make_driver("zero"),
                        loss=make_loss("power", p=2.0),
                        grid_size=201, n_a=21)
    surf = primal_value_dp(sc)
    dc = DualControls.zeros(slope=1.0)  # l* = 2m at m = 0.5
    res = first_order_residuals(surf, dc, 0.5)
    for key in ("constraint_fenchel", "terminal_gradient", "cost_fenchel",
                "terminal_polar"):
        assert res[key] is not None
        assert abs(res[key]) <= 1e-2, (key, res[key])


def test_first_order_residuals_run_on_the_deepest_lattice():
    # c14's call on jensen at N = 64: the terminal residuals read the greedy
    # plan's (row, node) pairs, where the 2^64 paths could not be listed
    sc = PrimalScenario(lattice=build_lattice(1.0, 64),
                        driver_f=make_driver("zero"),
                        driver_g=make_driver("zero"),
                        loss=make_loss("power", p=2.0),
                        grid_size=201, n_a=21)
    res = first_order_residuals(primal_value_dp(sc), DualControls.zeros(1.0),
                                0.5)
    assert res == {"constraint_fenchel": 0.0, "terminal_gradient": 0.0,
                   "cost_fenchel": 0.0, "terminal_polar": 0.0}


def test_first_order_residuals_report_kinked_polars():
    sc = PrimalScenario(lattice=build_lattice(1.0, 6),
                        driver_f=make_driver("zero"),
                        driver_g=make_driver("zero"),
                        loss=make_loss("identity"),
                        grid_size=101, n_a=11)
    surf = primal_value_dp(sc)
    res = first_order_residuals(surf, DualControls.zeros(1.0), 0.5)
    assert res["terminal_gradient"] is None
    assert "note" in res


def _path_tree_levels(lat, d, leaf_values, scheme):
    """Reference: the path-tree solve's values and slopes at every depth,
    (levels, slopes), each depth-k entry of width 2^k in prefix order."""
    levels, slopes = [np.asarray(leaf_values, dtype=float)], []
    for k in range(lat.steps - 1, -1, -1):
        v = levels[0]
        y, z, _ = _one_step(d, lat.time_at(k), v[..., 0::2], v[..., 1::2],
                            lat.sqrt_dt, lat.dt, scheme)
        levels.insert(0, y)
        slopes.insert(0, z)
    return levels, slopes


def _prefix_residuals(surf, dc, m0):
    """Reference: the four residuals over every path prefix, with the greedy
    policy stepped prefix by prefix (one backup per prefix), its cost
    priced on the path tree and the terminal adjoint ratio of each path
    taken from the path-tree adjoints."""
    sc = surf.scenario
    lat = sc.lattice
    states, controls = [np.array([m0])], []
    for k in range(lat.steps):
        m = states[-1]
        a = np.array([primal_mod._backup(sc, surf.corridor, k, m[i:i + 1],
                                         surf.grids[k + 1],
                                         surf.values[k + 1])[1][0]
                      for i in range(m.size)])
        controls.append(a)
        states.append(_interleave(*_children(lat, sc.driver_f, k, m, a)))
    leaf_cost = np.asarray(sc.loss.phi(states[-1]), dtype=float)
    y_levels, z_levels = _path_tree_levels(lat, sc.driver_g,
                                           leaf_cost[None, :], sc.scheme)
    gt = float(dual_mod.convex_conjugate(sc.driver_g, dc.value_drift,
                                         dc.value_noise))
    ft = float(dual_mod.concave_conjugate(sc.driver_f, dc.threshold_drift,
                                          dc.threshold_noise))
    res_f = res_g = 0.0
    for k in range(lat.steps):
        t = lat.time_at(k)
        lhs_f = sc.driver_f.fn(t, states[k], controls[k])
        rhs_f = dc.threshold_drift * states[k] \
            + dc.threshold_noise * controls[k] - ft
        res_f = max(res_f, float(np.max(np.abs(lhs_f - rhs_f))))
        y_k, z_k = y_levels[k][0], z_levels[k][0]
        lhs_g = sc.driver_g.fn(t, y_k, z_k)
        rhs_g = dc.value_drift * y_k + dc.value_noise * z_k - gt
        res_g = max(res_g, float(np.max(np.abs(lhs_g - rhs_g))))
    (l_levels, a_levels), _ = path_tree_adjoints(lat, dc.column()[:, 0])
    ratio = dc.slope * a_levels[-1][0] / l_levels[-1][0]
    m_term = states[-1]
    out = {
        "constraint_fenchel": res_f,
        "terminal_gradient": None if sc.loss.polar_grad is None else float(
            np.max(np.abs(m_term - sc.loss.polar_grad(ratio)))),
        "cost_fenchel": res_g,
        "terminal_polar": float(np.max(np.abs(
            sc.loss.phi(m_term) + sc.loss.polar(ratio) - m_term * ratio))),
    }
    return out, m_term, np.unique(ratio).size


@pytest.mark.parametrize("scheme", ["explicit", "implicit"])
@pytest.mark.parametrize("loss", [("power", {"p": 2.0}), ("s_shaped", {})])
def test_first_order_residuals_match_the_prefix_reference(scheme, loss):
    # unequal noises make the terminal adjoint ratio differ from node to
    # node, so the terminal residuals pair paths with rows and nodes; under
    # the s_shaped loss the terminal states differ too.  The Fenchel
    # residuals repeat the reference's arithmetic; the terminal ratios
    # come from node powers against the reference's per-path products
    sc = PrimalScenario(lattice=build_lattice(1.0, 8),
                        driver_f=make_driver("neg_abs_z", kappa=0.3),
                        driver_g=make_driver("abs_z", kappa=0.2),
                        loss=make_loss(loss[0], **loss[1]), grid_size=201,
                        n_a=21, scheme=scheme)
    surf = primal_value_dp(sc)
    dc = DualControls(0.9, 0.0, 0.15, 0.0, -0.25)
    spread = []
    for m0 in (0.3, 0.5):
        ref, m_term, ratios = _prefix_residuals(surf, dc, m0)
        got = first_order_residuals(surf, dc, m0)
        got.pop("note", None)
        assert ratios > 1
        for key in ("constraint_fenchel", "cost_fenchel"):
            assert got[key] == ref[key], key
        for key in ("terminal_gradient", "terminal_polar"):
            assert got[key] == pytest.approx(ref[key], rel=0, abs=1e-14), key
        spread.append(np.unique(m_term).size)
    assert (max(spread) > 1) == (loss[0] == "s_shaped")


# The search's goldens, recorded from the node-sum window search; each
# value must be reproduced to the bit.  On the risk pair every candidate
# with v = q prices polar(l), the minimum, up to rounding, and the search
# moves along that diagonal on the rounding alone.
SMOOTH_PAIR = (("logcosh_z", {"kappa": 0.3, "sign": -1}),
               ("softplus_z", {"kappa": 0.2}))
RISK_PAIR = (("neg_abs_z", {"kappa": 0.3}), ("abs_z", {"kappa": 0.2}))
V4 = 0.10000000000000003
Q4 = 0.018750000000000003
RISK_VQ = (-0.15937500000000004, -0.159375)
GOLDEN_DUAL_VALUES = [
    # (pair, steps, rounds, slope, value, (u, v, p, q))
    (SMOOTH_PAIR, 4, 2, 0.5, 0.0631289258670423, (0.0, V4, 0.0, 0.0)),
    (SMOOTH_PAIR, 4, 2, 1.0, 0.25224495722955736, (0.0, V4, 0.0, Q4)),
    (SMOOTH_PAIR, 4, 2, 1.5, 0.5671114140912364, (0.0, V4, 0.0, Q4)),
    (RISK_PAIR, 6, 3, 0.5, 0.06249999999999995,
     (0.0, RISK_VQ[0], 0.0, RISK_VQ[1])),
    (RISK_PAIR, 6, 3, 1.0, 0.2499999999999998,
     (0.0, RISK_VQ[0], 0.0, RISK_VQ[1])),
    (RISK_PAIR, 6, 3, 1.5, 0.5624999999999996,
     (0.0, RISK_VQ[0], 0.0, RISK_VQ[1])),
    (SMOOTH_PAIR, 8, 3, 1.0, 0.2521490389057519,
     (0.0, 0.09687500000000003, 0.0, 0.014062500000000006)),
]


def _pair(spec):
    (f_name, f_params), (g_name, g_params) = spec
    return make_driver(f_name, **f_params), make_driver(g_name, **g_params)


@pytest.mark.parametrize("spec, steps, rounds, slope, value, profiles",
                         GOLDEN_DUAL_VALUES)
def test_dual_value_reproduces_golden_bits(spec, steps, rounds, slope, value,
                                           profiles):
    # profiles holds the four time-constant profiles (u, v, p, q)
    f, g = _pair(spec)
    res = dual_value(build_lattice(1.0, steps), slope, f, g,
                     make_loss("power", p=2.0), rounds=rounds)
    assert res["value"] == value
    assert res["controls"] == DualControls(slope, *profiles)


# (slope, value_noise, threshold_noise, certificate or the error it raises)
# of per-step profiles, recorded from the path-prefix dual_objective that
# the node sum replaced and now held by its reference, path_tree_certificate;
# drift profiles are zero, the only point of their conjugate domains
GOLDEN_OBJECTIVES = [
    (0.8408888317372476,
     [0.19343777001888773, 0.06793517608488826, 0.051133117108108195,
      0.0806870157008117],
     [0.1194211526826845, 0.2689048991399427, 0.249354465646567,
      0.003874056911713275], 0.2795219625423275),
    (0.8183700480353711,
     [0.06020603615696121, 0.09246679764870502, 0.010014443787978555,
      0.12835570560311405],
     [-0.13645373895296492, 0.2478039227075604, -0.03563640116304534,
      -0.28068073379060715], 0.27351891029064546),
    (0.9117426850872357,
     [0.09142053692061453, -0.05, 0.005749504109899207,
      0.031002554147871276],
     [-0.08852853241270656, -0.19140719143770443, -0.17706912029735283,
      0.12174846805939388], ConjugateDomainError),
    (1.9560004548010765,
     [0.029411582496575273, 0.08474755403558853, 0.01091094240059376,
      0.09155275058097921],
     [0.45, 0.025245363196512993, -0.17194036209206545,
      -0.0569053615482846], ConjugateDomainError),
    (1.6505034661071951,
     [0.010167808620430208, 0.16870498757867547, 0.12010881510679952,
      0.199044120045789, 0.17146043127589003, 0.0929756639735464,
      0.035148158705108214, 0.0003574000654014142],
     [0.29135550267070015, 0.29909247848197035, -0.20568116233598432,
      0.13244894425643072, 0.04235959694552299, -0.28254375640975976,
      0.04340679232102723, 0.1000780110286778], 0.9175373576980059),
    (1.0422274112384258,
     [0.18369916203821912, 0.05709539938640469, 0.03722604583560318,
      0.14119813533904507, 0.01669982480041803, 0.12898106650458663,
      0.18657765268754975, 0.07523884230167302],
     [-0.12978354223582347, -0.055931849065243566, 0.22104961397463957,
      -0.14754388643889385, -0.08722872712583737, 0.02028735208604504,
      0.2702832705735156, 0.1190062834429868], 0.36940332800385367),
    (0.6957343708069998,
     [0.07789192411424406, -0.05, 0.018988353334212518, 0.04214000831750367,
      0.05650582250021596, 0.16262265450522984, 0.05427104593812555,
      0.12672285599231675],
     [-0.21832903971215423, 0.05017975395608104, 0.16547842283833075,
      -0.08859845908274683, 0.14432440249531964, 0.02175784171679812,
      0.2571849401675909, 0.01313814498077015], ConjugateDomainError),
    (0.8810576464495667,
     [0.18559237348554727, 0.039362290819122125, 0.13425736300858515,
      0.002577556095420719, 0.1267541727906862, 0.06352968061094869,
      0.06747506685410724, 0.08998505683853893],
     [0.45, 0.2858488201158024, -0.17761997744094155, 0.2315054164240024,
      0.13760122287350662, 0.08883604332742812, 0.2035051246289345,
      0.07515701431561517], ConjugateDomainError),
]


@pytest.mark.parametrize("slope, v, q, expected", GOLDEN_OBJECTIVES)
def test_dual_objective_reproduces_golden_bits(slope, v, q, expected):
    n = len(v)
    f, g = _pair(SMOOTH_PAIR)
    args = (build_lattice(1.0, n), slope, (np.zeros(n), v, np.zeros(n), q),
            f, g, make_loss("power", p=2.0))
    if isinstance(expected, float):
        assert path_tree_certificate(*args) == expected
    else:
        with pytest.raises(expected):
            path_tree_certificate(*args)


def test_dual_value_counts_moves_and_never_rescores_the_old_incumbent(
        monkeypatch):
    # three rounds of 9 x 9 windows on (v, q), each without its incumbent;
    # a window's middle point need not carry the incumbent's bits, so a
    # round scores 80 or 81 certificates
    f, g = _pair(SMOOTH_PAIR)
    lat = build_lattice(1.0, 8)
    lp = make_loss("power", p=2.0)
    seen = []
    scores = dual_mod._scores

    def spy(lattice, slope, cand, *args):
        seen.append(cand.copy())
        return scores(lattice, slope, cand, *args)

    monkeypatch.setattr(dual_mod, "_scores", spy)
    res = dual_value(lat, 1.0, f, g, lp)
    assert res["n_evaluations"] == 242 == sum(c.shape[1] for c in seen)
    assert res["n_accepted"] == 3
    # a window never holds the incumbent it was built around
    incumbent = seen[0][:, 0]
    for cand in seen[1:]:
        assert not np.any(np.all(cand == incumbent[:, None], axis=0))
        values = [_single(lat, 1.0, c, f, g, lp) for c in cand.T]
        best = int(np.argmin(values))
        if values[best] < _single(lat, 1.0, incumbent, f, g, lp):
            incumbent = cand[:, best]
    assert res["controls"] == DualControls(1.0, *incumbent)



def test_dual_value_stops_once_its_window_collapses():
    # after 30 rounds a window around the smooth pair's incumbent holds
    # only the incumbent's own bits, so a longer search scores nothing more
    f, g = _pair(SMOOTH_PAIR)
    lat = build_lattice(1.0, 8)
    lp = make_loss("power", p=2.0)
    res = dual_value(lat, 1.0, f, g, lp, rounds=48)
    assert res == dual_value(lat, 1.0, f, g, lp, rounds=30)
    assert res["n_evaluations"] < 30 * 81
    assert res["value"] < dual_value(lat, 1.0, f, g, lp)["value"]


def _box_pair():
    """Drivers given only by conjugates finite on a whole box, so that the
    drift constants u and p are searched too (every catalogue driver pins
    them to a point).  The g box lets v break the positivity margin."""
    def g_conj(u, v):
        u, v = np.asarray(u, float), np.asarray(v, float)
        out = np.where((np.abs(u) <= 0.5) & (np.abs(v) <= 5.0),
                       u * u + 0.1 * v * v, np.inf)
        return out if out.ndim else float(out)

    def f_conj(p, q):
        p, q = np.asarray(p, float), np.asarray(q, float)
        out = np.where((np.abs(p) <= 0.4) & (np.abs(q) <= 0.3),
                       -(p * p + q * q), -np.inf)
        return out if out.ndim else float(out)

    f = Driver(name="box_f", fn=lambda t, y, z: 0.0 * y, lipschitz_y=0.4,
               lipschitz_z=0.3, concave_conjugate_fn=f_conj)
    g = Driver(name="box_g", fn=lambda t, y, z: 0.0 * y, lipschitz_y=0.5,
               lipschitz_z=5.0, convex_conjugate_fn=g_conj)
    return f, g


def _box_profiles(steps):
    k = np.arange(steps)
    return (0.45 * np.sin(1.0 + k), 0.9 * np.cos(2.0 * k),
            0.35 * np.sin(3.0 * k + 0.5), 0.25 * np.cos(k + 0.3))


@pytest.mark.parametrize("loss, steps, expected", [
    ("power", 5, 0.6650100788134492),
    ("power", 9, 0.594341152550931),
    ("call_spread", 5, 0.7136548713728035),
    ("call_spread", 9, 0.645761963161888),
])
def test_dual_objective_with_drift_reproduces_golden_bits(loss, steps,
                                                           expected):
    f, g = _box_pair()
    got = path_tree_certificate(build_lattice(1.0, steps), 1.1,
                                _box_profiles(steps), f, g, make_loss(loss))
    assert got == expected


def _single(lat, slope, constants, f, g, lp):
    """dual_objective of one candidate, or +inf where it raises."""
    try:
        return dual_objective(lat, DualControls(slope, *constants), f, g, lp)
    except (DualFeasibilityError, ConjugateDomainError):
        return math.inf


@pytest.mark.parametrize("steps", [1, 5, 14, 64])
def test_window_scores_equal_single_evaluations(steps):
    # every drift and noise axis is searched on the box pair, whose g box
    # reaches past the positivity margin; the rows scored together equal
    # their single evaluations, +inf for both causes of infeasibility
    lat = build_lattice(1.0, steps)
    f, g = _box_pair()
    lp = make_loss("power", p=2.0)
    # a v whose adjoint factor stays positive but inside the margin
    edge = (1.0 + 0.2 * lat.dt - 5e-7) / lat.sqrt_dt
    axes = ([-0.45, 0.2, 0.5], [0.0, -2.0, edge, -edge, 0.9],
            [0.05, -0.4], [0.299, -0.3, 0.45, 0.0])
    cand = np.array([x.ravel() for x in np.meshgrid(*axes, indexing="ij")])
    scores = dual_mod._scores(lat, 1.1, cand, f, g, lp)
    want = [_single(lat, 1.1, c, f, g, lp) for c in cand.T]
    assert scores.tolist() == want
    assert np.isfinite(scores).any() and np.isinf(scores).any()
    with pytest.raises(DualFeasibilityError, match="margin"):
        dual_objective(lat, DualControls(1.1, 0.2, edge, 0.05, 0.0), f, g,
                       lp)
    with pytest.raises(ConjugateDomainError):
        dual_objective(lat, DualControls(1.1, 0.2, 0.0, 0.05, 0.45), f, g,
                       lp)


@pytest.mark.parametrize("steps", range(1, 21))
def test_path_sums_follow_numpy_row_sums(steps):
    # numpy sums a contiguous row as 0.0 plus its pairwise sum; the path
    # tree reference must reproduce that order for every depth it allows
    rng = np.random.default_rng(steps)
    rows = rng.standard_normal((300, steps)) \
        * 10.0 ** rng.integers(-8, 9, (300, steps))
    rows[:3] = -0.0                 # signed zeros: numpy's sum gives +0.0
    rows[3, 0] = -0.0
    cols = [rows[:, j:j + 1] for j in range(steps)]
    got = _path_sums(cols)
    assert got.shape == (300, 1)
    assert got[:, 0].tobytes() == rows.sum(axis=-1).tobytes()
    if steps <= 10:
        # columns on their prefixes, spread to a per-path panel by hand
        levels = [rng.standard_normal((4, 2**j)) for j in range(steps)]
        panel = np.stack([np.repeat(col, 2**(steps - j), axis=-1)
                          for j, col in enumerate(levels)], axis=-1)
        got = _path_sums(levels)
        per_path = np.repeat(got, 2**steps // got.shape[-1], axis=-1)
        assert per_path.tobytes() == panel.sum(axis=-1).tobytes()


def test_one_scan_stays_under_its_memory_bound():
    # one window of the smooth pair at the deepest lattice: 81 candidates
    # on 65 nodes, a few (candidate, node) arrays of 42 KB each
    lat = build_lattice(1.0, 64)
    f, g = _pair(SMOOTH_PAIR)
    lp = make_loss("power", p=2.0)
    v, q = np.meshgrid(np.linspace(0.0, 0.2, 9), np.linspace(-0.3, 0.3, 9))
    cand = np.array([np.zeros(81), v.ravel(), np.zeros(81), q.ravel()])
    dual_mod._scores(lat, 1.0, cand, f, g, lp)   # warm any lazy tables
    tracemalloc.start()
    try:
        scores = dual_mod._scores(lat, 1.0, cand, f, g, lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(scores))
    assert peak <= 400_000, peak


def _largest_block(fn):
    """The largest rise of traced memory within one bytecode instruction
    while fn runs: at least the size of any block allocated by a single
    instruction, a C call with its internals included.

    A broadcasting ufunc allocates numpy's iterator buffer, at most
    np.getbufsize() doubles (64 KB by default, itself below the mmap
    threshold), in the instruction that allocates its output; fn runs with
    a 16 KB buffer, so that the rise measures the arrays themselves."""
    worst = [0]
    base = [0]

    def tracer(frame, event, arg):
        frame.f_trace_opcodes = True
        current, peak = tracemalloc.get_traced_memory()
        worst[0] = max(worst[0], peak - base[0])
        tracemalloc.reset_peak()
        base[0] = current
        return tracer

    bufsize = np.setbufsize(2048)
    tracemalloc.start()
    base[0] = tracemalloc.get_traced_memory()[0]
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(previous)
        worst[0] = max(worst[0], tracemalloc.get_traced_memory()[1] - base[0])
        tracemalloc.stop()
        np.setbufsize(bufsize)
    return worst[0]


MMAP_THRESHOLD = 128 * 1024   # glibc's default: larger blocks are mmapped


def test_batched_scan_allocates_nothing_above_the_mmap_threshold():
    # a whole search of the smooth pair at the deepest lattice scores its
    # windows without a block above the threshold, so the heap it frees
    # stays below glibc's trim; a (candidate, node, step) panel of one
    # window would be 2.7 MB
    assert _largest_block(lambda: np.empty((81, 65, 64)).fill(0.0)) \
        >= 81 * 65 * 64 * 8
    lat = build_lattice(1.0, 64)
    f, g = _pair(SMOOTH_PAIR)
    lp = make_loss("power", p=2.0)
    dual_value(lat, 1.0, f, g, lp)
    out = []
    largest = _largest_block(lambda: out.append(dual_value(lat, 1.0, f, g,
                                                           lp)))
    assert out[0]["n_evaluations"] == 242
    assert largest < MMAP_THRESHOLD, largest


def _in_order_search(lat, l, f, g, lp, rounds):
    """The window search one candidate at a time, as a reference: each
    round's window in order, scored by its own dual_objective call, and
    every strict improvement kept; n_accepted counts the rounds that
    moved.  Both conjugate domains hold the origin here, so the start is
    all zeros."""
    widths = [g.lipschitz_y, g.lipschitz_z, f.lipschitz_y, f.lipschitz_z]
    centre = np.zeros(4)
    best = _single(lat, l, centre, f, g, lp)
    evaluations, accepted = 1, 0
    for rnd in range(rounds):
        axes = [np.unique(np.clip(np.linspace(c - w / 4.0**rnd,
                                              c + w / 4.0**rnd, 9), -w, w))
                if w > 0.0 else np.array([c])
                for c, w in zip(centre, widths)]
        start = centre
        for point in zip(*(x.ravel() for x in np.meshgrid(*axes,
                                                          indexing="ij"))):
            if np.array_equal(point, start):
                continue
            score = _single(lat, l, point, f, g, lp)
            evaluations += 1
            if score < best:
                best, centre = score, np.array(point)
        accepted += centre is not start
    return {"value": best, "controls": DualControls(l, *centre),
            "n_evaluations": evaluations, "n_accepted": accepted}


def _flat_pair():
    """z-only drivers whose conjugates are 0 on their whole segment: with
    the identity loss and a small slope every candidate's certificate is
    exactly 0, so every window value ties with the incumbent."""
    def g_conj(u, v):
        u, v = np.asarray(u, float), np.asarray(v, float)
        out = np.where((u == 0.0) & (np.abs(v) <= 0.5), 0.0, np.inf)
        return out if out.ndim else float(out)

    def f_conj(p, q):
        p, q = np.asarray(p, float), np.asarray(q, float)
        out = np.where((p == 0.0) & (np.abs(q) <= 0.3), 0.0, -np.inf)
        return out if out.ndim else float(out)

    f = Driver(name="flat_f", fn=lambda t, y, z: 0.0 * y, lipschitz_y=0.0,
               lipschitz_z=0.3, concave_conjugate_fn=f_conj)
    g = Driver(name="flat_g", fn=lambda t, y, z: 0.0 * y, lipschitz_y=0.0,
               lipschitz_z=0.5, convex_conjugate_fn=g_conj)
    return f, g


def _nan_edged_power():
    """The power-2 loss with a polar that is NaN wherever A_N / L_N leaves
    [0.9, 1.1]: the window's far corners score NaN, and an interior point
    still improves on the incumbent."""
    base = make_loss("power", p=2.0)

    def polar(r):
        return np.where((r < 0.9) | (r > 1.1), np.nan, base.polar_fn(r))

    return dataclasses.replace(base, polar_fn=polar)


@pytest.mark.parametrize("case", ["ties", "nans", "smooth"])
def test_descent_keeps_the_in_order_strict_improvements(case):
    lat = build_lattice(1.0, 4)
    if case == "ties":
        (f, g), lp, slopes = _flat_pair(), make_loss("identity"), (0.1, 0.15)
    elif case == "nans":
        (f, g), lp, slopes = _pair(SMOOTH_PAIR), _nan_edged_power(), (1.0,)
    else:
        (f, g), lp, slopes = _pair(SMOOTH_PAIR), make_loss("power"), \
            (0.45, 1.1, 1.7)
    for l in slopes:
        res = dual_value(lat, l, f, g, lp, rounds=2)
        want = _in_order_search(lat, l, f, g, lp, rounds=2)
        assert res == want
        if case == "ties":
            assert res["value"] == 0.0 and res["n_accepted"] == 0
    if case == "nans":
        v, q = np.meshgrid(np.linspace(0.0, 0.2, 9),
                           np.linspace(-0.3, 0.3, 9))
        cand = np.array([np.zeros(81), v.ravel(), np.zeros(81), q.ravel()])
        scores = dual_mod._scores(lat, 1.0, cand, f, g, lp)
        assert np.isnan(scores).any() and res["n_accepted"] > 0


def _count_priced_slopes(monkeypatch):
    """Every slope priced: dual_bound prices each one with dual_value."""
    calls = []
    original = dual_mod.dual_value

    def counted(lattice, l, *args, **kwargs):
        calls.append(l)
        return original(lattice, l, *args, **kwargs)

    monkeypatch.setattr(dual_mod, "dual_value", counted)
    return calls


def test_shared_certificates_price_each_slope_once(monkeypatch):
    lat = build_lattice(1.0, 4)
    f, g = _pair(SMOOTH_PAIR)
    lp = make_loss("power", p=2.0)
    thresholds = (0.25, 0.5, 0.75)
    alone = [dual_bound(lat, f, g, lp, m, rounds=1) for m in thresholds]
    # a priced slope has the bits of dual_value on its own
    for l, cert in alone[1]["trace"][:3]:
        assert cert == dual_value(lat, l, f, g, lp, rounds=1)["value"]
    # the searches of several thresholds share one dict: each extends the
    # dict passed in, in place, by the slopes it priced, and returns what
    # it returns alone
    priced = _count_priced_slopes(monkeypatch)
    certificates = {}
    for m, want in zip(thresholds, alone):
        before = dict(certificates)
        assert dual_bound(lat, f, g, lp, m, rounds=1,
                          certificates=certificates) == want
        assert certificates == {**before, **dict(want["trace"])}
        assert priced[len(before):] == \
            [l for l in dict(want["trace"]) if l not in before]
    # across thresholds each distinct slope reached dual_value once
    assert len(priced) == len(set(priced)) == len(certificates)
    assert certificates == {l: c for res in alone for l, c in res["trace"]}
    assert len(priced) < sum(res["n_slope_evaluations"] for res in alone)
    priced.clear()
    assert [dual_bound(lat, f, g, lp, m, rounds=1, certificates=certificates)
            for m in thresholds] == alone
    assert priced == []
    # a certificate does not depend on l_max, so a search over another
    # bracket reads the dict and prices only its new slopes
    other = dual_bound(lat, f, g, lp, thresholds[0], l_max=2.0, rounds=1,
                       certificates=dict(certificates))
    assert priced == [l for l in dict(other["trace"]) if l not in certificates]
    assert other == dual_bound(lat, f, g, lp, thresholds[0], l_max=2.0,
                               rounds=1)


def _scenario_config(name, steps, rounds, dual_m_list):
    f_spec, g_spec = SMOOTH_PAIR
    return {
        "name": name,
        "lattice": {"horizon": 1.0, "steps": steps},
        "driver_f": {"name": f_spec[0], "params": f_spec[1]},
        "driver_g": {"name": g_spec[0], "params": g_spec[1]},
        "loss": {"name": "power", "params": {"p": 2.0}},
        "primal": {"grid_size": 41, "n_a": 7, "m_list": [0.5]},
        "dual": {"enabled": True, "rounds": rounds, "m_list": dual_m_list},
        "checks": ["weak_duality"],
    }


def test_runner_dual_bounds_equal_independent_searches(monkeypatch):
    sc = build_scenario(_scenario_config("shared", 4, 2,
                                         [0.25, 0.5, 0.6, 0.75]))
    alone = [(m, dual_bound(sc.lattice, sc.driver_f, sc.driver_g, sc.loss, m,
                            l_max=sc.l_max, rounds=sc.dual_rounds))
             for m in sc.dual_m_list]
    priced = _count_priced_slopes(monkeypatch)
    assert runner_mod.dual_bounds(sc) == alone
    # the shared dict priced every distinct slope once, fewer than the
    # searches' slopes together
    slopes = {l for _, res in alone for l, _ in res["trace"]}
    assert sorted(priced) == sorted(slopes)
    assert len(priced) < sum(res["n_slope_evaluations"] for _, res in alone)


def test_each_execute_starts_a_fresh_certificate_dict(monkeypatch):
    traces = []
    original = runner_mod.dual_bound

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        traces.append(out["trace"])
        return out

    monkeypatch.setattr(runner_mod, "dual_bound", spy)
    calls = _count_priced_slopes(monkeypatch)
    sc = build_scenario(_scenario_config("memo", 3, 1, [0.25, 0.5]))
    first = runner_mod.execute(sc, quiet=True)
    priced = list(calls)
    # each execute prices every distinct slope of its searches exactly once
    assert sorted(priced) == sorted({l for t in traces for l, _ in t})
    second = runner_mod.execute(sc, quiet=True)
    assert first == second
    # and nothing carries over: the second prices them all again
    assert calls[len(priced):] == priced


def test_workspace_shares_certificates_within_a_scenario_only(monkeypatch):
    import weakbsde.acceptance as acceptance_mod

    small = {name: build_scenario(_scenario_config(name, 3, 1, dual_m_list))
             for name, dual_m_list in (("first", [0.25, 0.5, 0.75]),
                                       ("second", [0.5]))}
    monkeypatch.setattr(acceptance_mod, "catalogue_scenario", small.get)
    calls = _count_priced_slopes(monkeypatch)
    ws = Workspace()
    traces = [ws.dual("first", m)["trace"] for m in (0.25, 0.5, 0.75)]
    slopes = {l for trace in traces for l, _ in trace}
    assert sorted(calls) == sorted(slopes)
    assert len(slopes) < sum(len(t) for t in traces)
    # only the thresholds of the dual_m_list are priced
    with pytest.raises(KeyError):
        ws.dual("first", 0.6)
    before = len(calls)
    other = ws.dual("second", 0.5)["trace"]
    assert sorted(calls[before:]) == sorted({l for l, _ in other})


def test_workspace_prices_a_scenario_dual_list_on_first_request(monkeypatch):
    ws = Workspace()
    sc = ws.scenario("risk_pair")
    want = dict(runner_mod.dual_bounds(sc))
    calls = _count_priced_slopes(monkeypatch)
    assert ws.dual("risk_pair", 0.5) == want[0.5]
    priced = len(calls)
    assert priced == len({l for res in want.values() for l, _ in res["trace"]})
    assert [ws.dual("risk_pair", m) for m in sc.dual_m_list] == \
        list(want.values())
    assert len(calls) == priced       # the rest of the list is cached



# ---------------------------------------------------------------------------
# the slope search: Brent's method where the polar is smooth, golden
# section where it is piecewise linear
# ---------------------------------------------------------------------------

def _drive(search, m, certificate, l_max=4.0):
    """Run a slope search on an analytic certificate; the slopes it priced,
    in order."""
    slopes = []

    def price(l):
        slopes.append(l)
        return certificate(l)

    search(price, m, dual_mod.SLOPE_FLOOR, l_max, 1e-6)
    return slopes


def _quadratic(l):
    # the power-2 polar, whose supremum of l m - l^2 / 4 is m^2 at l = 2m
    return l * l / 4.0


@pytest.mark.parametrize("m", [0.1, 0.25, 0.5, 0.7, 0.75, 0.9])
def test_brent_finds_the_quadratic_supremum_in_few_steps(m):
    slopes = _drive(dual_mod._brent, m, _quadratic)
    assert len(slopes) <= 12
    assert max(l * m - _quadratic(l) for l in slopes) == \
        pytest.approx(m * m, abs=1e-12)


# (m, l_max, certificate): interior maxima, maxima on either end of the
# bracket, and kinked certificates
BRENT_CASES = [
    (0.5, 4.0, _quadratic),
    (2.5, 4.0, _quadratic),            # l* = 5 beyond l_max
    (0.75, 1.0, _quadratic),           # l* = 1.5 beyond l_max
    (0.0, 4.0, _quadratic),            # l* = 0, below the floor
    (-0.2, 4.0, _quadratic),
    (0.3, 4.0, lambda l: abs(l - 1.3) + 0.1 * l),
    (0.5, 4.0, lambda l: max(l - 1.0, 0.0)),
    (0.4, 2.0, math.cosh),
]


@pytest.mark.parametrize("m, l_max, certificate", BRENT_CASES)
def test_brent_stays_in_the_bracket_and_never_repeats_a_slope(m, l_max,
                                                              certificate):
    slopes = _drive(dual_mod._brent, m, certificate, l_max)
    assert all(dual_mod.SLOPE_FLOOR <= l <= l_max for l in slopes)
    assert all(a != b for a, b in zip(slopes, slopes[1:]))


@pytest.mark.parametrize("m, l_max", [(2.5, 4.0), (0.75, 1.0)])
def test_brent_finishes_on_the_upper_end(m, l_max):
    slopes = _drive(dual_mod._brent, m, _quadratic, l_max)
    best = max(slopes, key=lambda l: l * m - _quadratic(l))
    assert best == pytest.approx(l_max, abs=1e-6)
    assert best * m - _quadratic(best) == \
        pytest.approx(l_max * m - _quadratic(l_max), abs=1e-6)


@pytest.mark.parametrize("name, params, routine", [
    ("power", {"p": 2.0}, "_brent"),
    ("power", {"p": 3.0}, "_brent"),
    ("power", {"p": 1.0}, "_golden_section"),
    ("identity", {}, "_golden_section"),
    ("s_shaped", {}, "_golden_section"),
    ("call_spread", {}, "_golden_section"),
])
def test_slope_search_follows_the_polar(name, params, routine, monkeypatch):
    ran = []
    for search in ("_brent", "_golden_section"):
        def spy(*args, search=search, original=getattr(dual_mod, search)):
            ran.append(search)
            return original(*args)

        monkeypatch.setattr(dual_mod, search, spy)
    zero = make_driver("zero")
    dual_bound(build_lattice(1.0, 3), zero, zero, make_loss(name, **params),
               0.5)
    assert ran == [routine]


@pytest.mark.parametrize("l_max", [0.0, -1.0, 1e-9, math.inf, math.nan])
def test_slope_search_rejects_a_bad_l_max_before_pricing(l_max, monkeypatch):
    calls = _count_priced_slopes(monkeypatch)
    lat = build_lattice(1.0, 3)
    zero = make_driver("zero")
    sc = build_scenario(_scenario_config("bad_l_max", 3, 1, [0.25, 0.5]))
    for lp in (make_loss("power"), make_loss("identity")):
        with pytest.raises(DualFeasibilityError, match="l_max"):
            runner_mod.dual_bounds(dataclasses.replace(sc, loss=lp,
                                                       l_max=l_max))
        with pytest.raises(DualFeasibilityError, match="l_max"):
            dual_bound(lat, zero, zero, lp, 0.5, l_max=l_max)
    assert calls == []


@pytest.mark.parametrize("loss, most, least", [
    ({"name": "power", "params": {"p": 2.0}}, 12, 1),
    ({"name": "identity"}, 34, 34),
])
def test_shared_pricing_counts_per_polar(loss, most, least, monkeypatch):
    """A smooth polar takes Brent's method, at most 12 pricing steps; a
    piecewise-linear one still takes golden section's 34."""
    config = _scenario_config("guard", 4, 1, [0.25, 0.5, 0.75])
    sc = build_scenario(dict(config, loss=loss))
    priced = _count_priced_slopes(monkeypatch)
    results = [res for _, res in runner_mod.dual_bounds(sc)]
    assert len(priced) == len({l for res in results for l, _ in res["trace"]})
    assert all(least <= res["n_slope_evaluations"] <= most
               for res in results)


# the bounds of the golden-section search over every slope, recorded before
# the smooth polars took Brent's method; a search may find a higher bound,
# never a lower one beyond rounding
GOLDEN_SECTION_BOUNDS = {
    "risk_pair": {0.25: 0.0625, 0.5: 0.24999999999999994,
                  0.75: 0.5624999999999996},
    "jensen": {0.1: 0.009999999999999187, 0.2: 0.039999999999997995,
               0.3: 0.08999999999999848, 0.4: 0.15999999999999884,
               0.5: 0.24999999999999994, 0.6: 0.3599999999999947,
               0.7: 0.48999999999999994, 0.8: 0.6399999999999996,
               0.9: 0.8099999999999977},
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SECTION_BOUNDS))
def test_brent_bounds_hold_the_golden_section_floor(name):
    results = runner_mod.dual_bounds(catalogue_scenario(name))
    floor = GOLDEN_SECTION_BOUNDS[name]
    assert [m for m, _ in results] == list(floor)
    for m, res in results:
        assert res["bound"] >= floor[m] - 1e-12, m
        assert res["n_slope_evaluations"] <= 12, m
