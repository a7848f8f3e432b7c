"""Dual certificates: adjoint panels, candidate search, duality gaps."""

import math
import tracemalloc

import numpy as np
import pytest

import weakbsde.dual as dual_mod
import weakbsde.runner as runner_mod
from weakbsde.acceptance import Workspace
from weakbsde.drivers import (ConjugateDomainError, Driver, make_driver,
                              make_loss)
from weakbsde.dual import (DualControls, DualFeasibilityError, dual_bound,
                           dual_objective, dual_value, first_order_residuals)
from weakbsde.lattice import build_lattice
from weakbsde.primal import PrimalScenario, primal_value_dp, value_curve
from weakbsde.scenario import build_scenario


def test_dual_controls_validation():
    z3 = np.zeros(3)
    with pytest.raises(DualFeasibilityError):
        DualControls(-1.0, z3, z3, z3, z3)
    with pytest.raises(DualFeasibilityError):
        DualControls(0.0, z3, z3, z3, z3)
    with pytest.raises(DualFeasibilityError):
        DualControls(1.0, z3, np.zeros(2), z3, z3)
    dc = DualControls(1.5, z3, z3, z3, z3)
    assert dc.steps == 3
    with pytest.raises(ValueError):
        dc.value_noise[0] = 1.0  # profiles are frozen


def test_dual_controls_do_not_capture_caller_arrays():
    mine = np.zeros(4)
    DualControls(1.0, mine, mine, mine, mine)
    mine[0] = 7.0  # caller's array must stay writeable


def test_zeros_factory_and_objective_equals_polar():
    lat = build_lattice(1.0, 6)
    lp = make_loss("power", p=2.0)
    zero = make_driver("zero")
    for l in (0.5, 1.0, 1.7, 3.0):
        dc = DualControls.zeros(lat, slope=l)
        got = dual_objective(lat, dc, zero, zero, lp)
        assert got == pytest.approx(float(lp.polar(l)), abs=1e-14)


def test_excessive_noise_breaks_positivity():
    lat = build_lattice(1.0, 3)
    dc = DualControls(1.0, np.zeros(3), np.full(3, 5.0), np.zeros(3),
                      np.zeros(3))
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
        start = dual_objective(lat, DualControls.zeros(lat, l), f, g, lp)
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
    dc = DualControls.zeros(sc.lattice, slope=1.0)  # l* = 2m at m = 0.5
    res = first_order_residuals(surf, dc, 0.5)
    for key in ("constraint_fenchel", "terminal_gradient", "cost_fenchel",
                "terminal_polar"):
        assert res[key] is not None
        assert abs(res[key]) <= 1e-2, (key, res[key])


def test_first_order_residuals_report_kinked_polars():
    sc = PrimalScenario(lattice=build_lattice(1.0, 6),
                        driver_f=make_driver("zero"),
                        driver_g=make_driver("zero"),
                        loss=make_loss("identity"),
                        grid_size=101, n_a=11)
    surf = primal_value_dp(sc)
    res = first_order_residuals(surf, DualControls.zeros(sc.lattice, 1.0),
                                0.5)
    assert res["terminal_gradient"] is None
    assert "note" in res


# Golden values recorded from the one-candidate-per-trial search that the
# batched coordinate scan replaced; every value must be reproduced to the bit.
SMOOTH_PAIR = (("logcosh_z", {"kappa": 0.3, "sign": -1}),
               ("softplus_z", {"kappa": 0.2}))
RISK_PAIR = (("neg_abs_z", {"kappa": 0.3}), ("abs_z", {"kappa": 0.2}))
V4 = [0.10000000000000003] * 4
Q4 = [0.018750000000000003] * 4
GOLDEN_DUAL_VALUES = [
    # (pair, steps, rounds, slope, value, (u, v, p, q))
    (SMOOTH_PAIR, 4, 2, 0.5, 0.0631289258670423,
     ([0.0] * 4, V4, [0.0] * 4, [0.0] * 4)),
    (SMOOTH_PAIR, 4, 2, 1.0, 0.25224495722955736,
     ([0.0] * 4, V4, [0.0] * 4, Q4)),
    (SMOOTH_PAIR, 4, 2, 1.5, 0.5671114140912366,
     ([0.0] * 4, V4, [0.0] * 4, Q4)),
    (RISK_PAIR, 6, 3, 0.5, 0.0625, ([0.0] * 6,) * 4),
    (RISK_PAIR, 6, 3, 1.0, 0.25, ([0.0] * 6,) * 4),
    (RISK_PAIR, 6, 3, 1.5, 0.5625, ([0.0] * 6,) * 4),
    (SMOOTH_PAIR, 8, 3, 1.0, 0.2521490389057519,
     ([0.0] * 8, [0.09687500000000003] * 8, [0.0] * 8,
      [0.014062500000000006] * 8)),
]
PROFILE_NAMES = ("value_drift", "value_noise", "threshold_drift",
                 "threshold_noise")


def _pair(spec):
    (f_name, f_params), (g_name, g_params) = spec
    return make_driver(f_name, **f_params), make_driver(g_name, **g_params)


@pytest.mark.parametrize("spec, steps, rounds, slope, value, profiles",
                         GOLDEN_DUAL_VALUES)
def test_dual_value_reproduces_golden_bits(spec, steps, rounds, slope, value,
                                           profiles):
    f, g = _pair(spec)
    res = dual_value(build_lattice(1.0, steps), slope, f, g,
                     make_loss("power", p=2.0), rounds=rounds)
    assert res["value"] == value
    for name, expected in zip(PROFILE_NAMES, profiles):
        assert getattr(res["controls"], name).tolist() == expected, name


# (slope, value_noise, threshold_noise, certificate or the error it raises);
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
    dc = DualControls(slope, np.zeros(n), v, np.zeros(n), q)
    args = (build_lattice(1.0, n), dc, f, g, make_loss("power", p=2.0))
    if isinstance(expected, float):
        assert dual_objective(*args) == expected
    else:
        with pytest.raises(expected):
            dual_objective(*args)


def test_dual_value_counts_moves_and_never_rescores_the_old_incumbent():
    # the one-candidate-per-trial search spent 401 evaluations here, 8 of
    # them re-scoring a start point an earlier window value had beaten
    f, g = _pair(SMOOTH_PAIR)
    res = dual_value(build_lattice(1.0, 8), 1.0, f, g,
                     make_loss("power", p=2.0))
    assert res["n_evaluations"] == 393
    assert res["n_accepted"] == 32


def _box_pair():
    """Drivers given only by conjugates finite on a whole box, so that the
    drift profiles u and p are searched too (every catalogue driver pins
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
               lipschitz_z=0.3, concave_in_yz=True,
               concave_conjugate_fn=f_conj)
    g = Driver(name="box_g", fn=lambda t, y, z: 0.0 * y, lipschitz_y=0.5,
               lipschitz_z=5.0, convex_in_yz=True,
               convex_conjugate_fn=g_conj)
    return f, g


def _box_controls(steps):
    k = np.arange(steps)
    return DualControls(1.1, 0.45 * np.sin(1.0 + k), 0.9 * np.cos(2.0 * k),
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
    got = dual_objective(build_lattice(1.0, steps), _box_controls(steps),
                         f, g, make_loss(loss))
    assert got == expected


def _single(lat, dc, i, k, val, f, g, lp):
    """dual_objective of dc with profile i at step k set to val, or +inf."""
    profiles = [np.array(getattr(dc, name)) for name in PROFILE_NAMES]
    profiles[i][k] = val
    try:
        return dual_objective(lat, DualControls(dc.slope, *profiles), f, g, lp)
    except (DualFeasibilityError, ConjugateDomainError):
        return math.inf


@pytest.mark.parametrize("steps, scan_pairs", [
    (5, dual_mod.SCAN_PAIRS),    # one pass holds every candidate
    (14, dual_mod.SCAN_PAIRS),   # smallest depth where 8 candidates split
    (7, 2**5),                   # each candidate split into path ranges
])
def test_batched_scan_rows_equal_single_evaluations(steps, scan_pairs,
                                                    monkeypatch):
    monkeypatch.setattr(dual_mod, "SCAN_PAIRS", scan_pairs)
    lat = build_lattice(1.0, steps)
    f, g = _box_pair()
    lp = make_loss("power", p=2.0)
    dc = _box_controls(steps)
    inc = dual_mod._Incumbent(lat, dc, f, g)
    assert inc.value(lp) == dual_objective(lat, dc, f, g, lp)
    seen = []
    for k in sorted({0, steps // 2, steps - 1}):
        # a v whose adjoint factor stays positive but inside the margin
        edge = (1.0 + dc.value_drift[k] * lat.dt - 5e-7) / lat.sqrt_dt
        windows = {
            0: [-0.45, 0.5, 0.7, 0.01, -0.2, 0.33, -0.6, 0.25],
            1: [0.0, 0.3, -2.0, edge, 1.7, 0.9, -edge, 2.2],
            2: [0.05],
            3: [0.299, -0.3, 0.45, 0.1, -0.2, 0.0, 0.2, -0.05],
        }
        for i, vals in windows.items():
            scores, _ = inc.scan(i, k, np.array(vals), lp)
            for val, score in zip(vals, scores):
                assert score == _single(lat, dc, i, k, val, f, g, lp), \
                    (i, k, val)
            seen.extend(scores)
    assert np.isfinite(seen).any() and np.isinf(seen).any()
    # the +inf rows have both causes: the positivity margin and a domain
    profiles = [np.array(getattr(dc, n)) for n in PROFILE_NAMES]
    profiles[1][0] = (1.0 + dc.value_drift[0] * lat.dt - 5e-7) / lat.sqrt_dt
    with pytest.raises(DualFeasibilityError, match="margin"):
        dual_objective(lat, DualControls(1.1, *profiles), f, g, lp)
    profiles = [np.array(getattr(dc, n)) for n in PROFILE_NAMES]
    profiles[3][0] = 0.45
    with pytest.raises(ConjugateDomainError):
        dual_objective(lat, DualControls(1.1, *profiles), f, g, lp)


def test_accepted_move_rebuilds_the_incumbent_exactly():
    lat = build_lattice(1.0, 6)
    f, g = _pair(SMOOTH_PAIR)
    lp = make_loss("power", p=2.0)
    inc = dual_mod._Incumbent(lat, DualControls.zeros(lat, 0.9), f, g)
    for i, k, val in ((1, 3, 0.15), (3, 0, -0.2), (3, 5, 0.1), (1, 0, 0.05)):
        scores, conj = inc.scan(i, k, np.array([val]), lp)
        inc.move(i, k, val, conj[0])
        fresh = dual_mod._Incumbent(lat, DualControls(0.9, *inc.profiles),
                                    f, g)
        assert inc.value(lp) == scores[0] == fresh.value(lp)
        for mine, theirs in zip(inc.prefix + [inc.terms],
                                fresh.prefix + [fresh.terms]):
            assert np.array_equal(mine, theirs)


def _chain_pass(inc, which, k, drift, noise, conj, rows, lp):
    """The per-path kernel _pass replaced, kept as its reference: every
    path carries the moved adjoint from level k as one cumprod chain."""
    lat = inc.lattice
    n = lat.steps
    signs = inc.signs[rows]
    slope = inc.slope
    chain = np.empty((drift.shape[0], signs.shape[0], n - k + 1))
    chain[..., 0] = inc.prefix[which][rows, k]
    chain[..., 1] = dual_mod._factors(drift, noise, signs[:, k], lat.dt,
                                      lat.sqrt_dt)
    chain[..., 2:] = dual_mod._factors(inc.profiles[2 * which][k + 1:],
                                       inc.profiles[2 * which + 1][k + 1:],
                                       signs[:, k + 1:], lat.dt, lat.sqrt_dt)
    np.cumprod(chain, axis=-1, out=chain)
    moved_conj = np.empty((drift.shape[0], 1, n - k))
    moved_conj[:, 0, 0] = conj
    moved_conj[:, 0, 1:] = inc.conj[which][k + 1:]
    l_pan, p_pan = inc.prefix
    gt, ft = inc.conj
    terms = np.empty((drift.shape[0], signs.shape[0], n))
    terms[..., :k] = inc.terms[rows, :k]
    if which == 0:
        a_ft = slope * p_pan[rows, k:-1] * ft[k:]
        terms[..., k:] = chain[..., :-1] * moved_conj - a_ft
        l_end, a_end = chain[..., -1], slope * p_pan[rows, -1]
    else:
        l_gt = l_pan[rows, k:-1] * gt[k:]
        a = slope * chain
        terms[..., k:] = l_gt - a[..., :-1] * moved_conj
        l_end, a_end = l_pan[rows, -1], a[..., -1]
    return dual_mod._certificate_terms(terms, l_end, a_end, lat.dt, lp)


def _moved_smooth_incumbent(steps):
    """Smooth-pair incumbent after several accepted moves on both adjoints."""
    lat = build_lattice(1.0, steps)
    f, g = _pair(SMOOTH_PAIR)
    inc = dual_mod._Incumbent(lat, DualControls.zeros(lat, 0.9), f, g)
    moves = ((1, steps - 1, 0.15), (3, 0, -0.2), (3, steps // 2, 0.1),
             (1, 0, 0.05), (1, steps // 2, 0.12))
    for i, k, val in moves:
        scores, conj = inc.scan(i, k, np.array([val]), make_loss("identity"))
        assert np.isfinite(scores[0])
        inc.move(i, k, val, conj[0])
    return inc


@pytest.mark.parametrize("scan_pairs", [dual_mod.SCAN_PAIRS, 2**3])
@pytest.mark.parametrize("loss", ["power", "s_shaped"])
def test_prefix_tree_pass_matches_the_chain_reference_bits(scan_pairs, loss,
                                                           monkeypatch):
    # with 2**3 the row blocks are narrower than a level-k subtree for
    # every k < N - 3, so a block may hold a single prefix for many levels
    monkeypatch.setattr(dual_mod, "SCAN_PAIRS", scan_pairs)
    lp = make_loss(loss)
    windows = {1: np.array([0.0, 0.04, 0.1, 0.13, 0.2]),
               3: np.array([-0.29, -0.1, 0.0, 0.07, 0.25])}
    for steps in range(1, 11):
        inc = _moved_smooth_incumbent(steps)
        n_paths = 2**steps
        block = min(n_paths, dual_mod.SCAN_PAIRS)
        for i, vals in windows.items():
            which = i // 2
            conj_fn = (dual_mod.concave_conjugate if which
                       else dual_mod.convex_conjugate)
            for k in range(steps):
                drift = np.full(vals.size, inc.profiles[2 * which][k])
                noise = vals.copy()
                conj = np.asarray(conj_fn(inc.drivers[which], drift, noise),
                                  dtype=float)
                assert np.all(np.isfinite(conj))
                for row in range(0, n_paths, block):
                    rows = slice(row, row + block)
                    args = (which, k, drift[:, None], noise[:, None], conj,
                            rows, lp)
                    got = inc._pass(*args)
                    want = _chain_pass(inc, *args)
                    assert got.shape == want.shape == (vals.size, block)
                    assert got.tobytes() == want.tobytes(), (steps, i, k, row)


def test_one_scan_stays_under_its_memory_bound():
    # the per-path chain kernel peaked at 791 KB here, the prefix tree at 292
    steps = 8
    lat = build_lattice(1.0, steps)
    f, g = _pair(SMOOTH_PAIR)
    lp = make_loss("power", p=2.0)
    inc = dual_mod._Incumbent(lat, DualControls.zeros(lat, 1.0), f, g)
    vals = {1: np.linspace(0.0, 0.2, 8), 3: np.linspace(-0.25, 0.25, 8)}
    peak = 0
    for i, k in ((1, 0), (3, 0), (1, steps // 2), (3, steps - 1)):
        inc.scan(i, k, vals[i], lp)   # warm any lazily built tables
        tracemalloc.start()
        try:
            scores, _ = inc.scan(i, k, vals[i], lp)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(scores))
    assert peak <= 400_000, peak


def _counting_dual_value(monkeypatch):
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
    calls = _counting_dual_value(monkeypatch)
    certificates = {}
    shared = [dual_bound(lat, f, g, lp, m, rounds=1,
                         certificates=certificates) for m in thresholds]
    assert shared == alone
    slopes = {l for res in alone for l, _ in res["trace"]}
    assert len(calls) == len(set(calls)) == len(slopes) == len(certificates)
    assert len(calls) < sum(res["n_slope_evaluations"] for res in alone)
    assert certificates == {l: c for res in alone for l, c in res["trace"]}


def test_each_execute_starts_a_fresh_certificate_dict(monkeypatch):
    seen = []
    original = runner_mod.dual_bound

    def spy(*args, certificates=None, **kwargs):
        seen.append((id(certificates), len(certificates)))
        return original(*args, certificates=certificates, **kwargs)

    monkeypatch.setattr(runner_mod, "dual_bound", spy)
    f_spec, g_spec = SMOOTH_PAIR
    sc = build_scenario({
        "name": "memo",
        "lattice": {"horizon": 1.0, "steps": 3},
        "driver_f": {"name": f_spec[0], "params": f_spec[1]},
        "driver_g": {"name": g_spec[0], "params": g_spec[1]},
        "loss": {"name": "power", "params": {"p": 2.0}},
        "primal": {"grid_size": 41, "n_a": 7, "m_list": [0.5]},
        "dual": {"enabled": True, "rounds": 1, "m_list": [0.25, 0.5]},
        "checks": ["weak_duality"],
    })
    first = runner_mod.execute(sc, quiet=True)
    second = runner_mod.execute(sc, quiet=True)
    assert first == second
    (id_a, len_a), (id_b, len_b), (id_c, len_c), (id_d, len_d) = seen
    assert id_a == id_b and id_c == id_d
    assert len_a == len_c == 0 and len_b == len_d > 0


def test_workspace_shares_certificates_within_a_scenario_only(monkeypatch):
    calls = _counting_dual_value(monkeypatch)
    ws = Workspace()
    traces = [ws.dual("tiny_risk", m)["trace"] for m in (0.25, 0.5, 0.75)]
    slopes = {l for trace in traces for l, _ in trace}
    assert len(calls) == len(slopes) < sum(len(t) for t in traces)
    before = len(calls)
    other = ws.dual("tiny_power", 0.5)["trace"]
    assert len(calls) - before == len({l for l, _ in other})
