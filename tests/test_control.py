"""Forward threshold dynamics: node controls, truncation, admissibility.

The prefix walk of prefix_walk.py is the reference: it steps every path
prefix, and the row walk (simulate_rows) must reach the same (node, state,
latch) set at every level and the same check values, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weakbsde.control as control_mod
from weakbsde.bsde import compute_corridor, solve_bsde
from weakbsde.control import (HIT_TOL, PolicyError, admissible,
                              representation_roundtrip, simulate_rows)
from weakbsde.drivers import make_driver
from weakbsde.lattice import LatticeError, build_lattice
from weakbsde.runner import _admissibility_walks, _roundtrip_walks
from weakbsde.scenario import build_scenario

from path_tree import sign_matrix
from prefix_walk import (prefix_roundtrip, prefix_up_counts,
                         simulate_all_prefixes)

ADMISSIBLE_TOL = 1e-9


def _step(lat, f, k, m, a):
    """Up and down successors of one scalar state under one slope."""
    base = m - float(f.fn(lat.time_at(k), m, a)) * lat.dt
    return base + a * lat.sqrt_dt, base - a * lat.sqrt_dt


def _node_edges(lat, f):
    """The corridor edges node by node: the (y, z) levels of the solves of
    the constant terminals 0 (floor) and 1 (ceiling)."""
    return {side: solve_bsde(lat, f, np.full(lat.steps + 1, value))[:2]
            for side, value in (("floor", 0.0), ("ceiling", 1.0))}


def simulate_controlled(lat, f, mu0, controls, path, corridor=None):
    """Reference: the forward recursion along one path (signs +1 / -1),
    one scalar state at a time; returns (states, applied controls).

    With a corridor, the two-edge truncation rule is written out on the
    node-by-node edges (_node_edges): at each level the slope is checked
    against the floor and then the ceiling.  An edge latches once the
    state is within HIT_TOL of it or the proposed step lands strictly
    beyond the next-level edge, and a latched edge's tracking slope (its
    solve's z at the node) replaces the slope from then on.
    """
    m, j = float(mu0), 0
    latched = {"floor": False, "ceiling": False}
    edges = None if corridor is None else _node_edges(lat, f)
    states, applied = [m], []
    for k, sign in enumerate(path):
        a = float(controls[k][j])
        if corridor is not None:
            for side, s in (("floor", 1.0), ("ceiling", -1.0)):
                edge, slope = edges[side]
                assert edge[k][j] == getattr(corridor, side)[k]
                up, dn = _step(lat, f, k, m, a)
                hit = s * m <= s * edge[k][j] + HIT_TOL
                crossing = (s * up < s * edge[k + 1][j + 1]
                            or s * dn < s * edge[k + 1][j])
                latched[side] = latched[side] or hit or crossing
                if latched[side]:
                    a = float(slope[k][j])
        up, dn = _step(lat, f, k, m, a)
        m = up if sign > 0 else dn
        j += sign > 0
        states.append(m)
        applied.append(a)
    return np.array(states), np.array(applied)


def _constant(lat, a):
    return [np.full(k + 1, float(a)) for k in range(lat.steps)]


def _prefix_rows(lat, f, mu0, controls, corridor=None) -> list:
    """The (node, state bits, latch) set of each level over every prefix."""
    states, latched = simulate_all_prefixes(lat, f, mu0, controls, corridor)
    out = []
    for k, m in enumerate(states):
        latch = [False] * m.size if latched is None else latched[k].tolist()
        out.append(set(zip(prefix_up_counts(k).tolist(),
                           m.view(np.int64).tolist(), latch)))
    return out


def _walk_rows(walk) -> list:
    """The same sets from a row walk; each row must be distinct."""
    _, nodes, states, latched = walk
    out = []
    for k, (j, m) in enumerate(zip(nodes, states)):
        latch = [False] * m.size if latched is None else latched[k].tolist()
        rows = list(zip(j.tolist(), m.view(np.int64).tolist(), latch))
        assert len(set(rows)) == len(rows)
        out.append(set(rows))
    return out


def _walked(states, p, n):
    """The states along path id p: its length-k prefix is its leading bits."""
    return np.array([states[k][p >> (n - k)] for k in range(n + 1)])


def test_node_controls_are_validated_per_level():
    lat = build_lattice(1.0, 3)
    d = make_driver("zero")
    controls = [np.array([1.0]), np.array([2.0, 3.0]),
                np.array([4.0, 5.0, 6.0])]
    states, _ = simulate_all_prefixes(lat, d, 0.5, controls)
    # under the zero driver the up child moves by a * sqrt(dt), with a the
    # slope of the parent's node
    for k in range(3):
        np.testing.assert_allclose(
            (states[k + 1][0::2] - states[k]) / lat.sqrt_dt,
            controls[k][prefix_up_counts(k)])
    assert _walk_rows(simulate_rows(lat, d, 0.5, controls)) \
        == _prefix_rows(lat, d, 0.5, controls)
    with pytest.raises(PolicyError, match=r"level 1 controls have shape \(3,\)"):
        simulate_rows(lat, d, 0.5, [controls[0], controls[2], controls[2]])
    with pytest.raises(PolicyError, match=r"levels 0\.\.2, got 1"):
        simulate_rows(lat, d, 0.5, controls[:1])  # one level of three


def test_simulate_controlled_frozen_path():
    # neg_abs_z drift is -f dt = +kappa*|a| dt, here 0.3 * 0.5 * 0.25
    lat = build_lattice(1.0, 4)
    d = make_driver("neg_abs_z", kappa=0.3)
    controls = _constant(lat, 0.5)
    path = sign_matrix(4)[3]  # up, up, down, down
    states, applied = simulate_controlled(lat, d, 0.5, controls, path)
    np.testing.assert_allclose(states, [0.5, 0.7875, 1.075, 0.8625, 0.65])
    np.testing.assert_allclose(applied, [0.5, 0.5, 0.5, 0.5])
    every, _ = simulate_all_prefixes(lat, d, 0.5, controls)
    np.testing.assert_allclose(_walked(every, 3, 4), states)
    # the path's (node, state) pairs are rows of the row walk
    _, nodes, rows, _ = simulate_rows(lat, d, 0.5, controls)
    walked = _walked(every, 3, 4)
    for k, j in enumerate(np.concatenate(([0], np.cumsum(path > 0)))):
        assert walked[k] in rows[k][nodes[k] == j]


def test_simulate_all_prefixes_agrees_with_single_paths():
    lat = build_lattice(1.0, 5)
    d = make_driver("abs_z", kappa=0.2)
    rng = np.random.default_rng(9)
    controls = [rng.normal(size=k + 1) for k in range(5)]
    states, _ = simulate_all_prefixes(lat, d, 0.4, controls)
    for p, path in enumerate(sign_matrix(5)):
        single, _ = simulate_controlled(lat, d, 0.4, controls, path)
        np.testing.assert_allclose(_walked(states, p, 5), single, atol=1e-15)


@pytest.mark.parametrize("driver", [
    make_driver("zero"),
    make_driver("neg_abs_z", kappa=0.3),
    make_driver("linear", a=0.5, b=0.3),
], ids=lambda d: d.name)
def test_truncated_simulation_equals_the_scalar_rule_on_every_path(driver):
    lat = build_lattice(1.0, 5)
    cor = compute_corridor(lat, driver)
    bound = 1.0 / lat.sqrt_dt
    lo, hi = cor.bounds_at(0)
    rng = np.random.default_rng(17)
    draws = [(rng.uniform(lo, hi), [rng.uniform(-2 * bound, 2 * bound, k + 1)
                                    for k in range(5)]) for _ in range(20)]
    # starts within HIT_TOL of an edge, with slopes too small to cross it
    draws += [(mu0, [rng.uniform(-HIT_TOL, HIT_TOL, k + 1) for k in range(5)])
              for mu0 in (lo + 0.5 * HIT_TOL, hi - 0.5 * HIT_TOL)]
    truncated = 0
    for mu0, controls in draws:
        states, _ = simulate_all_prefixes(lat, driver, mu0, controls, cor)
        free, _ = simulate_all_prefixes(lat, driver, mu0, controls)
        for p, path in enumerate(sign_matrix(5)):
            single, _ = simulate_controlled(lat, driver, mu0, controls, path,
                                            cor)
            np.testing.assert_array_equal(_walked(states, p, 5), single)
        truncated += not np.array_equal(states[5], free[5])
        assert _walk_rows(simulate_rows(lat, driver, mu0, controls, cor)) \
            == _prefix_rows(lat, driver, mu0, controls, cor)
    assert truncated > 0  # the rule acted on some draw


def test_roundtrip_reproduces_random_terminals():
    """Driving the forward threshold with the backward slopes recovers the
    terminal exactly; the solver's slope field is the martingale
    representation of the terminal."""
    lat = build_lattice(1.0, 8)
    rng = np.random.default_rng(31)
    for d in (make_driver("zero"), make_driver("neg_abs_z", kappa=0.3),
              make_driver("linear", a=0.2, b=0.0)):
        for _ in range(25):
            xi = rng.uniform(0.0, 1.0, 9)
            res = representation_roundtrip(lat, d, xi)
            assert res["max_error"] <= 1e-12, d.name


def test_admissibility_flags_a_corridor_excursion():
    lat = build_lattice(1.0, 6)
    d = make_driver("zero")
    cor = compute_corridor(lat, d)
    wild = _constant(lat, 1.0 / lat.sqrt_dt)  # one step overshoots
    res = admissible(cor, simulate_rows(lat, d, 0.5, wild)[2])
    assert not res["worst_violation"] <= ADMISSIBLE_TOL
    assert res["worst_violation"] > 0.4
    calm = _constant(lat, 0.0)
    res_ok = admissible(cor, simulate_rows(lat, d, 0.5, calm)[2])
    assert res_ok["worst_violation"] <= ADMISSIBLE_TOL
    assert res_ok["worst_violation"] == 0.0


def test_truncation_repairs_aggressive_policies():
    # catalogue example: f = 0, aggressive slopes, then truncation at both
    # corridor edges makes every policy admissible
    lat = build_lattice(1.0, 6)
    d = make_driver("zero")
    cor = compute_corridor(lat, d)
    alpha_max = 1.0 / lat.sqrt_dt
    rng = np.random.default_rng(101)
    for _ in range(100):
        raw = [rng.uniform(-alpha_max, alpha_max, k + 1) for k in range(6)]
        res = admissible(cor, simulate_rows(lat, d, 0.5, raw, cor)[2])
        assert res["worst_violation"] <= ADMISSIBLE_TOL, res


def test_floor_truncation_latches_and_tracks():
    # once latched the control equals the floor's tracking slope, so the
    # gap to the floor is carried unchanged through every later step
    lat = build_lattice(1.0, 6)
    d = make_driver("zero")
    cor = compute_corridor(lat, d)
    dive = _constant(lat, -2.0)  # dives through the floor fast
    states = simulate_rows(lat, d, 0.25, dive, cor)[2]
    assert np.min(states[6] - cor.floor[6]) >= -1e-12
    _, applied = simulate_controlled(lat, d, 0.25, dive, sign_matrix(6)[-1],
                                     cor)
    floor_z = _node_edges(lat, d)["floor"][1]
    np.testing.assert_array_equal(applied, [floor_z[k][0] for k in range(6)])


def test_truncated_policy_is_inert_inside_the_corridor():
    lat = build_lattice(1.0, 4)
    d = make_driver("zero")
    cor = compute_corridor(lat, d)
    mild = _constant(lat, 0.05)
    _, raw_nodes, raw_states, _ = simulate_rows(lat, d, 0.5, mild)
    _, nodes, states, latched = simulate_rows(lat, d, 0.5, mild, cor)
    for k in range(5):
        np.testing.assert_array_equal(raw_nodes[k], nodes[k])
        np.testing.assert_array_equal(raw_states[k], states[k])
        assert not latched[k].any()


def test_roundtrip_martingale_property_interior():
    # the controlled threshold is an f-martingale between every pair of
    # levels, not only at the terminal one
    lat = build_lattice(1.0, 6)
    d = make_driver("neg_abs_z", kappa=0.3)
    rng = np.random.default_rng(13)
    xi = rng.uniform(0.0, 1.0, 7)
    res = representation_roundtrip(lat, d, xi)
    assert res["max_interior_error"] <= 1e-12


PROPERTY_DRIVERS = (
    make_driver("zero"),
    make_driver("linear", a=0.2, b=0.1),  # y-dependent: implicit roundtrip
    make_driver("neg_abs_z", kappa=0.3),
    make_driver("abs_z", kappa=0.2),
    make_driver("logcosh_z", kappa=0.3, sign=-1),
    make_driver("softplus_z", kappa=0.2),
)


def _bits(x):
    return np.float64(x).view(np.int64)


@settings(max_examples=60)
@given(driver=st.sampled_from(PROPERTY_DRIVERS), n=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), truncate=st.booleans(),
       style=st.sampled_from(["nodes", "levels", "backward"]))
def test_row_walk_equals_the_prefix_walk_property(driver, n, seed, truncate,
                                                  style):
    lat = build_lattice(1.0, n)
    rng = np.random.default_rng(seed)
    cor = compute_corridor(lat, driver) if truncate else None
    lo, hi = (0.0, 1.0) if cor is None else cor.bounds_at(0)
    mu0 = rng.uniform(lo, hi)
    bound = 2.0 / lat.sqrt_dt
    if style == "nodes":      # a slope per node
        controls = [rng.uniform(-bound, bound, k + 1) for k in range(n)]
    elif style == "levels":   # one slope per level: many exact repeats
        controls = [np.full(k + 1, rng.uniform(-bound, bound))
                    for k in range(n)]
    else:                     # the slopes of a backward solve
        y, controls, _ = solve_bsde(lat, driver, rng.uniform(0.0, 1.0, n + 1))
        mu0 = y[0][0]
    walk = simulate_rows(lat, driver, mu0, controls, cor)
    assert _walk_rows(walk) == _prefix_rows(lat, driver, mu0, controls, cor)
    if cor is not None:
        prefix_states, _ = simulate_all_prefixes(lat, driver, mu0, controls,
                                                 cor)
        got, want = admissible(cor, walk[2]), admissible(cor, prefix_states)
        assert _bits(got["worst_violation"]) == \
            _bits(want["worst_violation"])
        assert got["n_rows"] == sum(m.size for m in walk[2])

    # the roundtrip (solve_bsde, then simulate_rows on its slopes, under
    # the driver's exact scheme) reproduces a random terminal exactly
    xi = rng.uniform(0.0, 1.0, n + 1)
    got, want = representation_roundtrip(lat, driver, xi), \
        prefix_roundtrip(lat, driver, xi)
    for key in ("max_error", "max_interior_error"):
        assert _bits(got[key]) == _bits(want[key]), key
    assert got["max_error"] <= 1e-12


@settings(max_examples=60)
@given(driver=st.sampled_from(PROPERTY_DRIVERS), n=st.integers(1, 8),
       size=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       twin=st.booleans(), style=st.sampled_from(["nodes", "levels"]))
def test_a_stack_of_walks_is_its_walks_property(driver, n, size, seed, twin,
                                                 style):
    # the stacked roundtrip and admissibility walk read the max (and, for
    # n_rows, the sum) of their one-terminal calls, and each walk of a
    # stack keeps the rows it keeps alone, even where two walks are equal
    lat = build_lattice(1.0, n)
    rng = np.random.default_rng(seed)
    xi = rng.uniform(0.0, 1.0, (size, n + 1))
    if twin:
        xi[-1] = xi[0]
    got = representation_roundtrip(lat, driver, xi)
    alone = [representation_roundtrip(lat, driver, x) for x in xi]
    for key in ("max_error", "max_interior_error"):
        assert _bits(got[key]) == _bits(max(a[key] for a in alone)), key
    assert got["n_rows"] == sum(a["n_rows"] for a in alone)
    assert got["mu0"].tobytes() == \
        np.array([a["mu0"] for a in alone]).tobytes()

    cor = compute_corridor(lat, driver)
    lo, hi = cor.bounds_at(0)
    starts = rng.uniform(lo, hi, size)
    bound = 2.0 / lat.sqrt_dt
    if style == "nodes":      # a slope per node
        controls = [rng.uniform(-bound, bound, (size, k + 1))
                    for k in range(n)]
    else:                     # one slope per level: many exact repeats
        controls = [np.repeat(rng.uniform(-bound, bound, (size, 1)), k + 1,
                              axis=1) for k in range(n)]
    if twin:
        starts[-1] = starts[0]
        for level in controls:
            level[-1] = level[0]
    walks, nodes, states, latched = simulate_rows(lat, driver, starts,
                                                  controls, cor)
    got = admissible(cor, states)
    alone = []
    for b in range(size):
        walk = simulate_rows(lat, driver, starts[b],
                             [level[b] for level in controls], cor)
        alone.append(admissible(cor, walk[2]))
        mine = [walks[k] == b for k in range(n + 1)]
        assert _walk_rows(walk) == _walk_rows(
            (None, [j[w] for j, w in zip(nodes, mine)],
             [m[w] for m, w in zip(states, mine)],
             [h[w] for h, w in zip(latched, mine)]))
    assert _bits(got["worst_violation"]) == \
        _bits(max(a["worst_violation"] for a in alone))
    assert got["n_rows"] == sum(a["n_rows"] for a in alone)


def test_row_walk_runs_where_prefixes_cannot():
    # 2^32 prefixes at N = 32; the rows of each level stay in the hundreds
    lat = build_lattice(1.0, 32)
    rng = np.random.default_rng(5)
    for d in (make_driver("neg_abs_z", kappa=0.3), make_driver("abs_z",
                                                               kappa=0.2)):
        res = representation_roundtrip(lat, d, rng.uniform(0.0, 1.0, 33))
        assert res["max_error"] <= 1e-12
        assert res["max_interior_error"] <= 1e-12
        assert res["n_rows"] < 33 * 1000
    d = make_driver("neg_abs_z", kappa=0.3)
    cor = compute_corridor(lat, d)
    bound = 1.0 / lat.sqrt_dt
    controls = [rng.uniform(-bound, bound, k + 1) for k in range(32)]
    _, nodes, states, latched = simulate_rows(lat, d, 0.5, controls, cor)
    res = admissible(cor, states)
    assert res["worst_violation"] <= ADMISSIBLE_TOL
    assert max(m.size for m in states) < 1000
    assert latched[-1].any()  # the truncation acted


def test_row_walk_is_guarded_by_a_row_budget(monkeypatch):
    lat = build_lattice(1.0, 3)
    d = make_driver("zero")
    controls = [np.array([1.0]), np.array([2.0, 3.0]),
                np.array([4.0, 5.0, 6.0])]
    # the distinct slopes split every prefix: 2, 4 and 8 rows
    assert [m.size for m in simulate_rows(lat, d, 0.5, controls)[2]] \
        == [1, 2, 4, 8]
    monkeypatch.setattr(control_mod, "MAX_PLAN_ROWS", 4)
    with pytest.raises(LatticeError, match=r"8 rows at level 3, over its "
                                           r"budget of MAX_PLAN_ROWS = 4"):
        simulate_rows(lat, d, 0.5, controls)


def test_the_row_budget_holds_per_walk(monkeypatch):
    # walk 0 splits every prefix (1, 2, 4, 8 rows); walk 1 holds slope 0,
    # so its rows are the nodes (1, 2, 3, 4 rows)
    d = make_driver("zero")
    split = [np.array([1.0]), np.array([2.0, 3.0]),
             np.array([4.0, 5.0, 6.0])]
    controls = [np.stack((level, np.zeros(level.size))) for level in split]
    starts = np.array([0.5, 0.25])
    monkeypatch.setattr(control_mod, "MAX_PLAN_ROWS", 4)
    # two levels: 4 + 3 rows on level 2, over the budget together but
    # within it walk by walk
    states = simulate_rows(build_lattice(1.0, 2), d, starts, controls[:2])[2]
    assert [m.size for m in states] == [2, 4, 7]
    # three levels: walk 0 alone reaches 8 rows
    with pytest.raises(LatticeError, match=r"8 rows at level 3, over its "
                                           r"budget of MAX_PLAN_ROWS = 4"):
        simulate_rows(build_lattice(1.0, 3), d, starts, controls)


def test_the_checks_row_counts_are_pinned():
    # the benchmark's surface scenario at seed 24 (its thresholds do not
    # reach these checks): a change that stops rows from recombining shows
    # here, not only as a slower run.  Both counts take every level 0..16:
    # the 20 roundtrips cover 2,621,420 prefix states and the 10
    # admissibility walks 1,310,710.
    sc = build_scenario({
        "name": "surface_rows",
        "lattice": {"horizon": 1.0, "steps": 16},
        "driver_f": {"name": "neg_abs_z", "params": {"kappa": 0.3}},
        "driver_g": {"name": "abs_z", "params": {"kappa": 0.2}},
        "loss": {"name": "power", "params": {"p": 2.0}},
        "primal": {"grid_size": 61, "n_a": 9, "m_list": [0.5]},
        "dual": {"enabled": False},
        "checks": ["roundtrip", "admissibility"],
        "seed": 24,
    })
    worst, rows = _roundtrip_walks(sc)
    assert worst <= sc.tolerances["roundtrip"]
    assert rows == 15039
    worst, rows = _admissibility_walks(
        sc, compute_corridor(sc.lattice, sc.driver_f, scheme=sc.scheme))
    assert worst <= sc.tolerances["admissibility"]
    assert rows == 3432
