"""Forward threshold dynamics: node controls, truncation, admissibility."""

import numpy as np
import pytest

from weakbsde.bsde import compute_corridor, solve_bsde
from weakbsde.control import (HIT_TOL, PolicyError, admissible,
                              representation_roundtrip, simulate_all_prefixes)
from weakbsde.drivers import make_driver
from weakbsde.lattice import build_lattice, prefix_up_counts, sign_matrix

ADMISSIBLE_TOL = 1e-9


def _step(lat, f, k, m, a):
    """Up and down successors of one scalar state under one slope."""
    base = m - float(f.fn(lat.time_at(k), m, a)) * lat.dt
    return base + a * lat.sqrt_dt, base - a * lat.sqrt_dt


def _node_edges(lat, f):
    """The corridor edges node by node: the solves (y and slope z) of the
    constant terminals 0 (floor) and 1 (ceiling)."""
    return {side: solve_bsde(lat, f, np.full(lat.steps + 1, value))
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
                edge = edges[side].y
                assert edge.at(k)[j] == getattr(corridor, side)[k]
                up, dn = _step(lat, f, k, m, a)
                hit = s * m <= s * edge.at(k)[j] + HIT_TOL
                crossing = (s * up < s * edge.at(k + 1)[j + 1]
                            or s * dn < s * edge.at(k + 1)[j])
                latched[side] = latched[side] or hit or crossing
                if latched[side]:
                    a = float(edges[side].z.at(k)[j])
        up, dn = _step(lat, f, k, m, a)
        m = up if sign > 0 else dn
        j += sign > 0
        states.append(m)
        applied.append(a)
    return np.array(states), np.array(applied)


def _constant(lat, a):
    return [np.full(k + 1, float(a)) for k in range(lat.steps)]


def _walked(states, p, n):
    """The states along path id p: its length-k prefix is its leading bits."""
    return np.array([states[k][p >> (n - k)] for k in range(n + 1)])


def test_node_controls_are_validated_per_level():
    lat = build_lattice(1.0, 3)
    d = make_driver("zero")
    controls = [np.array([1.0]), np.array([2.0, 3.0]),
                np.array([4.0, 5.0, 6.0])]
    states = simulate_all_prefixes(lat, d, 0.5, controls)
    # under the zero driver the up child moves by a * sqrt(dt), with a the
    # slope of the parent's node
    for k in range(3):
        np.testing.assert_allclose(
            (states[k + 1][0::2] - states[k]) / lat.sqrt_dt,
            controls[k][prefix_up_counts(k)])
    with pytest.raises(PolicyError, match=r"level 1 controls have shape \(3,\)"):
        simulate_all_prefixes(lat, d, 0.5, [controls[0], controls[2],
                                            controls[2]])
    with pytest.raises(PolicyError, match=r"levels 0\.\.2, got 1"):
        simulate_all_prefixes(lat, d, 0.5, controls[:1])  # one level of three


def test_simulate_controlled_frozen_path():
    # neg_abs_z drift is -f dt = +kappa*|a| dt, here 0.3 * 0.5 * 0.25
    lat = build_lattice(1.0, 4)
    d = make_driver("neg_abs_z", kappa=0.3)
    controls = _constant(lat, 0.5)
    path = sign_matrix(4)[3]  # up, up, down, down
    states, applied = simulate_controlled(lat, d, 0.5, controls, path)
    np.testing.assert_allclose(states, [0.5, 0.7875, 1.075, 0.8625, 0.65])
    np.testing.assert_allclose(applied, [0.5, 0.5, 0.5, 0.5])
    every = simulate_all_prefixes(lat, d, 0.5, controls)
    np.testing.assert_allclose(_walked(every, 3, 4), states)


def test_simulate_all_prefixes_agrees_with_single_paths():
    lat = build_lattice(1.0, 5)
    d = make_driver("abs_z", kappa=0.2)
    rng = np.random.default_rng(9)
    controls = [rng.normal(size=k + 1) for k in range(5)]
    states = simulate_all_prefixes(lat, d, 0.4, controls)
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
        states = simulate_all_prefixes(lat, driver, mu0, controls, cor)
        free = simulate_all_prefixes(lat, driver, mu0, controls)
        for p, path in enumerate(sign_matrix(5)):
            single, _ = simulate_controlled(lat, driver, mu0, controls, path,
                                            cor)
            np.testing.assert_array_equal(_walked(states, p, 5), single)
        truncated += not np.array_equal(states[5], free[5])
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
    res = admissible(cor, simulate_all_prefixes(lat, d, 0.5, wild))
    assert not res["worst_violation"] <= ADMISSIBLE_TOL
    assert res["worst_violation"] > 0.4
    calm = _constant(lat, 0.0)
    res_ok = admissible(cor, simulate_all_prefixes(lat, d, 0.5, calm))
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
        res = admissible(cor, simulate_all_prefixes(lat, d, 0.5, raw, cor))
        assert res["worst_violation"] <= ADMISSIBLE_TOL, res


def test_floor_truncation_latches_and_tracks():
    # once latched the control equals the floor's tracking slope, so the
    # gap to the floor is carried unchanged through every later step
    lat = build_lattice(1.0, 6)
    d = make_driver("zero")
    cor = compute_corridor(lat, d)
    dive = _constant(lat, -2.0)  # dives through the floor fast
    states = simulate_all_prefixes(lat, d, 0.25, dive, cor)
    assert np.min(states[6] - cor.floor[6]) >= -1e-12
    _, applied = simulate_controlled(lat, d, 0.25, dive, sign_matrix(6)[-1],
                                     cor)
    floor_z = _node_edges(lat, d)["floor"].z
    np.testing.assert_array_equal(applied, [floor_z.at(k)[0]
                                            for k in range(6)])


def test_truncated_policy_is_inert_inside_the_corridor():
    lat = build_lattice(1.0, 4)
    d = make_driver("zero")
    cor = compute_corridor(lat, d)
    mild = _constant(lat, 0.05)
    raw_states = simulate_all_prefixes(lat, d, 0.5, mild)
    safe_states = simulate_all_prefixes(lat, d, 0.5, mild, cor)
    for raw, kept in zip(raw_states, safe_states):
        np.testing.assert_array_equal(raw, kept)


def test_roundtrip_martingale_property_interior():
    # the controlled threshold is an f-martingale between every pair of
    # levels, not only at the terminal one
    lat = build_lattice(1.0, 6)
    d = make_driver("neg_abs_z", kappa=0.3)
    rng = np.random.default_rng(13)
    xi = rng.uniform(0.0, 1.0, 7)
    res = representation_roundtrip(lat, d, xi)
    assert res["max_interior_error"] <= 1e-12
