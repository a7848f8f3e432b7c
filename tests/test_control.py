"""Forward threshold dynamics: policies, truncation, admissibility."""

import numpy as np
import pytest

from weakbsde.bsde import compute_corridor
from weakbsde.control import (NodePolicy, PolicyError, _children, admissible,
                              representation_roundtrip, simulate_all_prefixes,
                              truncate_at_ceiling, truncate_at_floor)
from weakbsde.drivers import make_driver
from weakbsde.lattice import build_lattice, prefix_up_counts, sign_matrix

ADMISSIBLE_TOL = 1e-9


def simulate_controlled(lat, f, mu0, policy, path):
    """Reference: the forward recursion along one path (signs +1 / -1),
    one state at a time; returns (states, controls)."""
    states, controls = [float(mu0)], []
    state, j = policy.initial_state(1), 0
    for k, sign in enumerate(path):
        m = np.array([states[-1]])
        a, state = policy.control_array(k, np.array([j]), m, state)
        up, dn = _children(lat, f, k, m, np.asarray(a, float))
        states.append(float((up if sign > 0 else dn)[0]))
        controls.append(float(np.asarray(a)[0]))
        j += sign > 0
    return np.array(states), np.array(controls)


def _control(pol, k, j, m):
    a, _ = pol.control_array(k, np.array([j]), np.array([m]), None)
    return float(a[0])


def test_node_policy_lookup_and_validation():
    lat = build_lattice(1.0, 3)
    pol = NodePolicy(lat, [np.array([1.0]), np.array([2.0, 3.0]),
                           np.array([4.0, 5.0, 6.0])])
    assert _control(pol, 0, 0, 0.5) == 1.0
    assert _control(pol, 1, 1, 0.5) == 3.0
    assert _control(pol, 2, 0, 0.5) == 4.0
    with pytest.raises(PolicyError):
        NodePolicy(lat, [np.array([1.0, 2.0])])  # level 0 has one node
    const = NodePolicy.constant(lat, 0.25)
    assert _control(const, 2, 1, 0.9) == 0.25


def test_simulate_controlled_frozen_path():
    # neg_abs_z drift is -f dt = +kappa*|a| dt, here 0.3 * 0.5 * 0.25
    lat = build_lattice(1.0, 4)
    d = make_driver("neg_abs_z", kappa=0.3)
    pol = NodePolicy.constant(lat, 0.5)
    path = sign_matrix(4)[3]  # up, up, down, down
    states, controls = simulate_controlled(lat, d, 0.5, pol, path)
    np.testing.assert_allclose(states, [0.5, 0.7875, 1.075, 0.8625, 0.65])
    np.testing.assert_allclose(controls, [0.5, 0.5, 0.5, 0.5])
    every, _ = simulate_all_prefixes(lat, d, 0.5, pol)
    np.testing.assert_allclose([every[k][3 >> (4 - k)] for k in range(5)],
                               states)


def test_simulate_all_prefixes_agrees_with_single_paths():
    lat = build_lattice(1.0, 5)
    d = make_driver("abs_z", kappa=0.2)
    rng = np.random.default_rng(9)
    pol = NodePolicy(lat, [rng.normal(size=k + 1) for k in range(5)])
    states, _ = simulate_all_prefixes(lat, d, 0.4, pol)
    for p, path in enumerate(sign_matrix(5)):
        single, _ = simulate_controlled(lat, d, 0.4, pol, path)
        # the length-k prefix of path id p is its leading bit block
        walked = [states[k][p >> (5 - k)] for k in range(6)]
        np.testing.assert_allclose(walked, single, atol=1e-15)


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
    wild = NodePolicy.constant(lat, 1.0 / lat.sqrt_dt)  # one step overshoots
    res = admissible(lat, d, cor, 0.5, wild)
    assert not res["worst_violation"] <= ADMISSIBLE_TOL
    assert res["worst_violation"] > 0.4
    calm = NodePolicy.zeros(lat)
    res_ok = admissible(lat, d, cor, 0.5, calm)
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
        raw = NodePolicy(lat, [rng.uniform(-alpha_max, alpha_max, k + 1)
                               for k in range(6)])
        safe = truncate_at_ceiling(lat, d, cor,
                                   truncate_at_floor(lat, d, cor, raw))
        res = admissible(lat, d, cor, 0.5, safe)
        assert res["worst_violation"] <= ADMISSIBLE_TOL, res


def test_floor_truncation_latches_and_tracks():
    # once latched the control equals the floor's tracking slope, so the
    # gap to the floor is carried unchanged through every later step
    lat = build_lattice(1.0, 6)
    d = make_driver("zero")
    cor = compute_corridor(lat, d)
    dive = NodePolicy.constant(lat, -2.0)  # dives through the floor fast
    safe = truncate_at_floor(lat, d, cor, dive)
    states, _ = simulate_all_prefixes(lat, d, 0.25, safe)
    floor_terminal = cor.floor.at(6)[prefix_up_counts(6)]
    assert np.min(states[6] - floor_terminal) >= -1e-12


def test_truncated_policy_is_inert_inside_the_corridor():
    lat = build_lattice(1.0, 4)
    d = make_driver("zero")
    cor = compute_corridor(lat, d)
    mild = NodePolicy.constant(lat, 0.05)
    safe = truncate_at_floor(lat, d, cor, mild)
    raw_states, _ = simulate_all_prefixes(lat, d, 0.5, mild)
    safe_states, _ = simulate_all_prefixes(lat, d, 0.5, safe)
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
