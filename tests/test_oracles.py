"""Exhaustive small-tree oracles: goldens, a full-enumeration reference and
the budget guards."""

import bisect
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import weakbsde.primal as primal_mod
from weakbsde.bsde import (_one_step, compute_corridor, exact_scheme_for,
                           monotone_step_ok, solve_on_path_tree,
                           solve_on_product_tree)
from weakbsde.control import _children, _interleave
from weakbsde.drivers import make_driver, make_loss
from weakbsde.lattice import LatticeError, build_lattice
from weakbsde.primal import (FEASIBILITY_TOL, PrimalError, PrimalScenario,
                             brute_force_policy_value,
                             brute_force_weak_formulation, two_point_envelope)
from weakbsde.scenario import catalogue_scenario


def _sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _scenario(f, g, loss, steps=3, n_a=7, scheme="explicit", alpha_max=None):
    return PrimalScenario(lattice=build_lattice(1.0, steps),
                          driver_f=make_driver(f[0], **f[1]),
                          driver_g=make_driver(g[0], **g[1]),
                          loss=make_loss(loss[0], **loss[1]),
                          grid_size=161, n_a=n_a, alpha_max=alpha_max,
                          scheme=scheme)


def _implicit_linear():
    """Implicit scheme with y-dependent drivers on both sides."""
    return _scenario(("linear", {"a": 0.1, "b": 0.05}),
                     ("linear", {"a": 0.2, "b": 0.1}), ("s_shaped", {}),
                     scheme="implicit")


# Recorded from the oracles as they were before they were factored over the
# tree, when every policy and every product-grid candidate was built in
# full; the implicit_linear cases were re-recorded when the implicit fixed
# point began to stop per element.  Per (scenario, m): policy value,
# n_admissible, sha256 of best_assignment, then weak value and sha256 of
# leaf_values.  Every case has n_policies = 7**7, n_evaluated = 13 * 5**8
# and final_step = 2**-15.
ORACLE_GOLDENS = {
    ("tiny_identity", 0.3): (
        0.3, 1, "e6bbaf65b3fca08b51ac0575d8440cea69f4f0088f12d226929cbda40d582d78",
        0.3000030517578125, "1c725ee2e7b826adba749a7ea328716b1c212ff37f676203fad10a76c44d5ffb"),
    ("tiny_identity", 0.5): (
        0.5, 123, "bc8420279fc9a3f5c98cd973e78c1b0153a85ff2da73e578aa647bc5cfeb808a",
        0.5, "72edf4598b69dd663a025540ac35dd8ae28c24460f2a1650ed8b922f0b1470f9"),
    ("tiny_identity", 0.77): (
        0.77, 1, "e6bbaf65b3fca08b51ac0575d8440cea69f4f0088f12d226929cbda40d582d78",
        0.7700042724609375, "20c25cfa3e2f6622739f0f5e68f3a1c4fe0486322f2cb9b3b93fceb0939043b9"),
    ("tiny_power", 0.3): (
        0.09, 1, "e6bbaf65b3fca08b51ac0575d8440cea69f4f0088f12d226929cbda40d582d78",
        0.09063720703125, "fec727f14a65d307e4838c1cb68f48ca5896a36c37df8ed9e9a4a958ce39303b"),
    ("tiny_power", 0.5): (
        0.25, 123, "e6bbaf65b3fca08b51ac0575d8440cea69f4f0088f12d226929cbda40d582d78",
        0.25, "d2ea885216dc17a8083447edea720c6a4b930a7aea91ab917c6fda0f5e320fa9"),
    ("tiny_power", 0.77): (
        0.5929, 1, "e6bbaf65b3fca08b51ac0575d8440cea69f4f0088f12d226929cbda40d582d78",
        0.59710693359375, "d0a44093ba17a4f38018c9b1a51bfc47b03dafe61ebe48bfad622caec7f05646"),
    ("tiny_risk", 0.3): (
        0.09000000000000004, 123, "e6bbaf65b3fca08b51ac0575d8440cea69f4f0088f12d226929cbda40d582d78",
        0.09001491709555576, "b8d5f0c407834899d2c36e4063911006bbf2000f3654d36480647e942b24e457"),
    ("tiny_risk", 0.5): (
        0.25, 123, "e6bbaf65b3fca08b51ac0575d8440cea69f4f0088f12d226929cbda40d582d78",
        0.25, "d2ea885216dc17a8083447edea720c6a4b930a7aea91ab917c6fda0f5e320fa9"),
    ("tiny_risk", 0.77): (
        0.5929, 1, "e6bbaf65b3fca08b51ac0575d8440cea69f4f0088f12d226929cbda40d582d78",
        0.5929144939184724, "dd64b859aabb48fae162f370589cb686d5d97715167bb6677e53399631829b4a"),
    ("implicit_linear", 0.3): (
        0.08332612062682022, 1, "e6bbaf65b3fca08b51ac0575d8440cea69f4f0088f12d226929cbda40d582d78",
        0.08213091211318944, "68f1b5c43564ed3c5d640dd200b9f792da4d5e93bb6d776a5699232b1f557c39"),
    ("implicit_linear", 0.5): (
        0.377095481049554, 123, "e6bbaf65b3fca08b51ac0575d8440cea69f4f0088f12d226929cbda40d582d78",
        0.2331858639595294, "80f788fb518b9ce19a0221209d9398a23cc62fc98292e993e3cd4aa3b2d238ff"),
    ("implicit_linear", 0.77): (
        0.704498159375137, 12, "607360cddeb13377f79941268cfaf11b2f7d5fc0d30bccee8962a1a158719876",
        0.6718313019452267, "4ee6c8cb3235a390689df87a467098040dbee572316c99c6902c0323260fe9cb"),
}


def _golden_scenario(name):
    if name == "implicit_linear":
        return _implicit_linear()
    return catalogue_scenario(name).primal()


@pytest.mark.parametrize("name,m", sorted(ORACLE_GOLDENS))
def test_oracle_outputs_match_goldens(name, m):
    pol_value, n_adm, best_sha, weak_value, leaf_sha = ORACLE_GOLDENS[name, m]
    sc = _golden_scenario(name)
    pol = brute_force_policy_value(sc, m)
    weak = brute_force_weak_formulation(sc, m)
    assert weak["value"] == weak_value
    assert _sha(weak["leaf_values"]) == leaf_sha
    assert weak["n_evaluated"] == 13 * 5**8
    assert weak["n_scored"] < weak["n_evaluated"]
    assert weak["final_step"] == 2.0**-15
    assert pol["n_policies"] == 7**7
    assert pol["n_admissible"] == n_adm
    assert pol["value"] == pol_value
    assert _sha(pol["best_assignment"]) == best_sha


# -- reference: the full enumerations, every policy / candidate built -------

def _policy_reference(sc, m0):
    lat = sc.lattice
    n = lat.steps
    grid = sc.base_controls()
    decisions = 2**n - 1
    corridor = compute_corridor(lat, sc.driver_f, scheme=sc.scheme)
    assign = np.indices((grid.size,) * decisions).reshape(decisions, -1).T
    slopes = grid[assign]
    m = np.full((assign.shape[0], 1), float(m0))
    violation = np.zeros(assign.shape[0])
    for k in range(n):
        a = slopes[:, 2**k - 1:2**(k + 1) - 1]
        m = _interleave(*_children(lat, sc.driver_f, k, m, a))
        lo, hi = corridor.bounds_at(k + 1)
        violation = np.maximum(violation,
                               np.maximum(lo - m, m - hi).max(axis=1))
    cost = np.asarray(solve_on_path_tree(
        lat, sc.driver_g, np.asarray(sc.loss.phi(m), float),
        scheme=sc.scheme), float)
    ok = violation <= FEASIBILITY_TOL
    cost = np.where(ok, cost, np.inf)
    best = int(np.argmin(cost))
    return {"value": float(cost[best]), "n_policies": grid.size**decisions,
            "n_admissible": int(np.count_nonzero(ok)),
            "best_assignment": grid[assign[best]]}


def _weak_reference(sc, m0, q, rounds):
    lat = sc.lattice
    leaves = 2**lat.steps
    idx = np.indices((q,) * leaves).reshape(leaves, -1).T
    grids = np.tile(np.linspace(0.0, 1.0, q), (leaves, 1))
    best_y, best_cost, evaluated, half_width = None, math.inf, 0, 0.5
    for _ in range(rounds + 1):
        y_mat = grids[np.arange(leaves)[None, :], idx]
        level = solve_on_path_tree(lat, sc.driver_f,
                                   np.asarray(sc.loss.psi(y_mat), float),
                                   scheme=exact_scheme_for(sc.driver_f))
        cost = solve_on_path_tree(lat, sc.driver_g, y_mat, scheme=sc.scheme)
        evaluated += y_mat.shape[0]
        cand = np.where(level >= m0 - 1e-12, cost, np.inf)
        b = int(np.argmin(cand))
        if cand[b] < best_cost:
            best_cost, best_y = float(cand[b]), y_mat[b].copy()
        half_width *= 0.5
        grids = np.clip(best_y[:, None]
                        + np.linspace(-half_width, half_width, q)[None, :],
                        0.0, 1.0)
    return {"value": best_cost, "leaf_values": best_y,
            "n_evaluated": evaluated,
            "final_step": 2.0 * half_width / (q - 1)}


REFERENCE_CASES = {
    "zero_power_n1": (("zero", {}), ("zero", {}), ("power", {"p": 2.0}), 1,
                      "explicit"),
    "risk_power_n2": (("neg_abs_z", {"kappa": 0.3}), ("abs_z", {"kappa": 0.2}),
                      ("power", {"p": 2.0}), 2, "explicit"),
    "linear_f_s_n3": (("linear", {"a": 0.2, "b": 0.1}), ("abs_z", {"kappa": 0.2}),
                      ("s_shaped", {}), 3, "explicit"),
    "implicit_f_n3": (("linear", {"a": 0.2, "b": 0.0}), ("abs_z", {"kappa": 0.2}),
                      ("identity", {}), 3, "implicit"),
    "implicit_fg_n3": (("linear", {"a": -0.3, "b": 0.2}),
                       ("linear", {"a": 0.4, "b": -0.1}),
                       ("call_spread", {"lo": 0.3, "hi": 0.7}), 3, "implicit"),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
@pytest.mark.parametrize("m", [0.3, 0.55])
def test_oracles_equal_the_full_enumeration(case, m):
    f, g, loss, steps, scheme = REFERENCE_CASES[case]
    sc = _scenario(f, g, loss, steps=steps, n_a=5, scheme=scheme,
                   alpha_max=0.6)
    ref = _weak_reference(sc, m, q=3, rounds=3)
    weak = brute_force_weak_formulation(sc, m, q=3, rounds=3)
    assert weak["value"] == ref["value"]
    assert weak["leaf_values"].tobytes() == ref["leaf_values"].tobytes()
    assert (weak["n_evaluated"], weak["final_step"]) == \
        (ref["n_evaluated"], ref["final_step"])

    ref = _policy_reference(sc, m)
    pol = brute_force_policy_value(sc, m)
    assert 1 <= pol["n_admissible"] == ref["n_admissible"]
    assert pol["n_policies"] == ref["n_policies"]
    assert pol["value"] == ref["value"]
    assert pol["best_assignment"].tobytes() == \
        ref["best_assignment"].tobytes()


def test_product_tree_solve_equals_the_path_tree_solve():
    lat = build_lattice(1.0, 2)
    d = make_driver("linear", a=0.3, b=0.2)
    sets = np.array([[0.0, 0.4], [0.1, 0.9], [0.25, 0.5], [1.0, 0.7]])
    idx = np.indices((2,) * 4).reshape(4, -1).T
    leaves = sets[np.arange(4)[None, :], idx]
    for scheme in ("explicit", "implicit"):
        got = solve_on_product_tree(lat, d, sets, scheme=scheme)
        want = solve_on_path_tree(lat, d, leaves, scheme=scheme)
        assert got.tobytes() == want.tobytes()
    with pytest.raises(LatticeError, match="leaf"):
        solve_on_product_tree(lat, d, sets[:3])


def test_product_tree_solve_stops_above_the_root():
    lat = build_lattice(1.0, 2)
    d = make_driver("linear", a=0.3, b=0.2)
    sets = np.array([[0.0, 0.4], [0.1, 0.9], [0.25, 0.5], [1.0, 0.7]])
    root = solve_on_product_tree(lat, d, sets)
    children = solve_on_product_tree(lat, d, sets, stop_level=1)
    assert children.shape == (2, 4)
    y, _, _ = _one_step(d, lat.time_at(0), children[0, :, None],
                        children[1, None, :], lat.sqrt_dt, lat.dt, "explicit")
    assert y.ravel().tobytes() == root.tobytes()
    assert solve_on_product_tree(lat, d, sets, stop_level=2).tobytes() == \
        sets.tobytes()
    for bad in (-1, 3):
        with pytest.raises(LatticeError, match="stop_level"):
            solve_on_product_tree(lat, d, sets, stop_level=bad)


def _envelope_reference(lp, m, step=1e-3):
    """Every (left, right) pair of the envelope oracle in one matrix."""
    grid = np.arange(0.0, 1.0 + step / 2, step)
    left, right = grid[grid <= m], grid[grid >= m]
    phi_l = np.asarray(lp.phi(left), float)[:, None]
    phi_r = np.asarray(lp.phi(right), float)[None, :]
    denom = right[None, :] - left[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = np.where(denom > 0, (right[None, :] - m)
                       / np.where(denom > 0, denom, 1.0), 1.0)
    return float(np.min(lam * phi_l + (1.0 - lam) * phi_r))


def _exact_lower_hull(x, y):
    """The vertices of the lower convex hull of the points (x, y), x
    ascending, in exact rational arithmetic (a monotone chain)."""
    hull = []
    for p in zip(map(Fraction, x.tolist()), map(Fraction, y.tolist())):
        while len(hull) >= 2 and (
                (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                <= (p[0] - hull[-2][0]) * (hull[-1][1] - hull[-2][1])):
            hull.pop()
        hull.append(p)
    return hull


def _exact_envelope(hull, m):
    """The hull's value at m, exactly: a vertex, or the bracketing chord."""
    m = Fraction(m)
    j = bisect.bisect_left([h[0] for h in hull], m)
    xr, yr = hull[j]
    if xr == m:
        return yr
    xl, yl = hull[j - 1]
    return yl + (yr - yl) * (m - xl) / (xr - xl)


@pytest.mark.parametrize("name, params", [
    ("identity", {}), ("power", {"p": 2.0}), ("call_spread", {}),
    ("s_shaped", {})])
def test_envelope_is_the_exact_hull_envelope_on_the_hundredths(name, params):
    """On every threshold of the 0.01 grid the hull oracle lies within 2^-52
    of the exact envelope of its own grid points, and never below the
    pair scan's minimum, of which its bracketing pair is one candidate."""
    lp = make_loss(name, **params)
    x = np.arange(0.0, 1.0 + primal_mod.ENVELOPE_STEP / 2,
                  primal_mod.ENVELOPE_STEP)
    hull = _exact_lower_hull(x, np.asarray(lp.phi(x), float))
    for m in (round(0.01 * i, 10) for i in range(101)):
        got = two_point_envelope(lp, m)
        assert abs(Fraction(got) - _exact_envelope(hull, m)) <= \
            Fraction(1, 2**52), m
        assert got >= _envelope_reference(lp, m), m


@pytest.mark.parametrize("block", [1, None])
def test_blocked_oracles_equal_the_full_references(monkeypatch, block):
    """Scored one row per block, both oracles still equal their full
    references bit for bit.  At q = 3 and N = 3 the root step is at most
    81 x 81 class pairs, one default block, so only block = 1 crosses a
    boundary there.  tiny_identity at 0.5 has many tied minimisers, spread
    over many blocks, and the first index must still win."""
    if block is not None:
        monkeypatch.setattr(primal_mod, "_PAIR_BLOCK", block)
    cases = [(_scenario(f, g, loss, steps=steps, n_a=5, scheme=scheme,
                        alpha_max=0.6), m)
             for f, g, loss, steps, scheme in REFERENCE_CASES.values()
             for m in (0.3, 0.55)]
    cases.append((catalogue_scenario("tiny_identity").primal(), 0.5))
    for sc, m in cases:
        ref = _weak_reference(sc, m, q=3, rounds=3)
        weak = brute_force_weak_formulation(sc, m, q=3, rounds=3)
        assert weak["value"] == ref["value"]
        assert weak["leaf_values"].tobytes() == ref["leaf_values"].tobytes()
        assert (weak["n_evaluated"], weak["final_step"]) == \
            (ref["n_evaluated"], ref["final_step"])
    for name in ("envelope", "call_spread"):
        lp = catalogue_scenario(name).loss
        for m in (0.0, 0.001, 0.5, 0.999, 1.0):
            assert two_point_envelope(lp, m) == _envelope_reference(lp, m)


def test_weak_oracle_root_blocks_follow_the_one_pair_block(monkeypatch):
    """c07's three weak-oracle calls price no root-step batch of more than
    _PAIR_BLOCK (up, down) class pairs, the block of the DP backup and of
    convexity_check, whose float64 temporaries stay under glibc's default
    128 KB mmap threshold."""
    assert primal_mod._PAIR_BLOCK * 8 < 128 * 1024
    batches = []

    def spy(d, t, up, down, *args):
        batches.append(np.broadcast(up, down).size)
        return _one_step(d, t, up, down, *args)
    monkeypatch.setattr(primal_mod, "_one_step", spy)
    for name in ("tiny_identity", "tiny_power", "tiny_risk"):
        brute_force_weak_formulation(catalogue_scenario(name).primal(), 0.5)
    assert batches
    assert max(batches) <= primal_mod._PAIR_BLOCK


def test_weak_oracle_prices_only_distinct_class_pairs():
    """tiny_identity at 0.5: each root child's 625 candidates fall into 17
    (f, g) classes in round 0 and 9 in every later round, and only the
    class pairs are priced.  Each run is a prefix of the next one, so the
    counts pin every round."""
    sc = catalogue_scenario("tiny_identity").primal()
    scored = [brute_force_weak_formulation(sc, 0.5, rounds=r)["n_scored"]
              for r in range(13)]
    assert scored == [17**2 + 9**2 * r for r in range(13)]


# every driver and loss of the package's catalogues, with params in range;
# linear with a != 0 depends on y, so it takes the implicit scheme
WEAK_DRIVERS = (
    ("zero", {}), ("abs_z", {"kappa": 0.2}), ("neg_abs_z", {"kappa": 0.3}),
    ("logcosh_z", {"kappa": 0.3, "sign": -1}), ("softplus_z", {"kappa": 0.2}),
    ("linear", {"a": 0.4, "b": 0.3}), ("linear", {"a": -0.5, "b": 0.2}),
)
WEAK_LOSSES = (("identity", {}), ("power", {"p": 2.0}), ("s_shaped", {}),
               ("call_spread", {"lo": 0.3, "hi": 0.7}))


@settings(max_examples=80)
@given(f=st.sampled_from(WEAK_DRIVERS), g=st.sampled_from(WEAK_DRIVERS),
       loss=st.sampled_from(WEAK_LOSSES), q=st.sampled_from((2, 3)),
       steps=st.integers(1, 3), rounds=st.integers(0, 3),
       scheme=st.sampled_from(("explicit", "implicit")),
       block=st.sampled_from((1, None)), share=st.floats(0.0, 0.99))
def test_weak_oracle_equals_the_full_reference_property(
        f, g, loss, q, steps, rounds, scheme, block, share):
    sc = _scenario(f, g, loss, steps=steps, scheme=scheme)
    for d in (sc.driver_f, sc.driver_g):
        assume(monotone_step_ok(sc.lattice, d))
    # below the root ceiling, which the all-ones leaf vector reaches
    ceiling = compute_corridor(sc.lattice, sc.driver_f,
                               scheme=exact_scheme_for(sc.driver_f))
    m = share * ceiling.bounds_at(0)[1]
    ref = _weak_reference(sc, m, q=q, rounds=rounds)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(primal_mod, "_PAIR_BLOCK", block)
        weak = brute_force_weak_formulation(sc, m, q=q, rounds=rounds)
    assert weak["value"] == ref["value"]
    assert weak["leaf_values"].tobytes() == ref["leaf_values"].tobytes()
    assert (weak["n_evaluated"], weak["final_step"]) == \
        (ref["n_evaluated"], ref["final_step"])
    assert weak["n_scored"] <= weak["n_evaluated"]


@settings(max_examples=150)
@given(f=st.sampled_from(WEAK_DRIVERS), g=st.sampled_from(WEAK_DRIVERS),
       loss=st.sampled_from(WEAK_LOSSES), steps=st.integers(1, 3),
       n_a=st.integers(2, 7),
       alpha_max=st.one_of(st.floats(0.01, 0.5), st.none()),
       scheme=st.sampled_from(("explicit", "implicit")),
       where=st.sampled_from(("inside", "floor", "ceiling")),
       share=st.floats(0.02, 0.98), gap=st.floats(0.0, 1e-3))
# full depth on an even grid, without the zero slope: 1536 of the 4^7
# policies are admissible
@example(f=("zero", {}), g=("abs_z", {"kappa": 0.2}), loss=("s_shaped", {}),
         steps=3, n_a=4, alpha_max=0.4, scheme="explicit", where="inside",
         share=0.3, gap=0.0)
def test_policy_oracle_equals_the_full_reference_property(
        f, g, loss, steps, n_a, alpha_max, scheme, where, share, gap):
    """The node-by-node build equals the full enumeration bit for bit, and
    raises the same error where no policy is admissible.  An even n_a has
    no zero slope, so a row can die at a single node; thresholds within
    1e-3 of the corridor edges leave few slopes admissible there."""
    assume(n_a**(2**steps - 1) <= 5**7)
    sc = _scenario(f, g, loss, steps=steps, n_a=n_a, scheme=scheme,
                   alpha_max=alpha_max)
    for d in (sc.driver_f, sc.driver_g):
        assume(monotone_step_ok(sc.lattice, d))
    lo, hi = compute_corridor(sc.lattice, sc.driver_f,
                              scheme=sc.scheme).bounds_at(0)
    m = {"inside": lo + share * (hi - lo), "floor": lo + gap,
         "ceiling": hi - gap}[where]
    ref = _policy_reference(sc, m)
    if not ref["n_admissible"]:
        with pytest.raises(PrimalError, match="no admissible policy"):
            brute_force_policy_value(sc, m)
        return
    pol = brute_force_policy_value(sc, m)
    assert (pol["value"], pol["n_policies"], pol["n_admissible"]) == \
        (ref["value"], ref["n_policies"], ref["n_admissible"])
    assert pol["best_assignment"].tobytes() == \
        ref["best_assignment"].tobytes()


def test_oracles_reject_bad_arguments():
    sc = catalogue_scenario("tiny_power").primal()
    for kwargs, name in (({"q": 1}, "q"), ({"q": 2.5}, "q"),
                         ({"q": True}, "q"), ({"rounds": -1}, "rounds"),
                         ({"rounds": 1.0}, "rounds")):
        with pytest.raises(PrimalError, match=f"{name} must be an integer"):
            brute_force_weak_formulation(sc, 0.5, **kwargs)
    for m in (-1e-3, 1.001, math.nan):
        with pytest.raises(PrimalError, match=r"m in \[0, 1\]"):
            two_point_envelope(sc.loss, m)


def test_policy_budget_guard_raises_before_enumerating():
    sc = _scenario(("zero", {}), ("zero", {}), ("identity", {}), steps=4)
    with pytest.raises(PrimalError, match="budget"):
        brute_force_policy_value(sc, 0.5)  # 7^15 policies


def test_policy_oracle_builds_each_admissible_node_once(monkeypatch):
    """tiny_risk at 0.5 keeps 3, 11 and 123 rows at levels 1 to 3, and one
    call builds the two children of each (kept row, node, slope): 714
    states, where every level's full assignment product built 211,890.
    Its tracemalloc peak stays below 0.5 MB (6.8 MB for the product)."""
    sc = catalogue_scenario("tiny_risk").primal()
    kept, built = [], []

    def counting_children(lat, f, k, m, a):
        kept.append(m.shape[0])
        up, dn = _children(lat, f, k, m, a)
        built.append(up.size + dn.size)
        return up, dn

    with monkeypatch.context() as mp:
        mp.setattr(primal_mod, "_children", counting_children)
        assert brute_force_policy_value(sc, 0.5)["n_admissible"] == 123
    assert kept == [1, 3, 11] and sum(built) == 714
    tracemalloc.start()
    try:
        brute_force_policy_value(sc, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_policy_oracle_stops_at_the_first_empty_level(monkeypatch):
    """With no zero slope and the threshold on the corridor floor, every
    root slope steps a child below it: the oracle raises at level 0,
    before any leaf is priced."""
    sc = _scenario(("zero", {}), ("zero", {}), ("identity", {}), n_a=2)

    def no_pricing(*args, **kwargs):
        raise AssertionError("priced an empty leaf matrix")

    monkeypatch.setattr(primal_mod, "solve_on_path_tree", no_pricing)
    with pytest.raises(PrimalError, match="no admissible policy"):
        brute_force_policy_value(sc, 0.0)


def test_weak_budget_guard_raises_before_enumerating(monkeypatch):
    sc = _scenario(("zero", {}), ("zero", {}), ("identity", {}))
    with pytest.raises(PrimalError, match="budget"):
        brute_force_weak_formulation(sc, 0.5, q=6)  # 6^8 > 10^6
    # the guard reads ORACLE_BUDGET at call time
    monkeypatch.setattr(primal_mod, "ORACLE_BUDGET", 5**8 - 1)
    with pytest.raises(PrimalError, match=r"5\^8 candidates exceed the "
                       r"390624 budget"):
        brute_force_weak_formulation(sc, 0.5)
