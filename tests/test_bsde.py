"""Backward solver: reductions, oracles, ordering, corridor, path tree."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakbsde.bsde import (SchemeError, _one_step, comparison_check,
                           compute_corridor, estimation_gap, exact_scheme_for,
                           monotone_step_ok, solve_bsde, solve_on_path_tree)
from weakbsde.drivers import make_driver, make_loss
from weakbsde.lattice import LatticeError, build_lattice, half_sum
from weakbsde.primal import apriori_bound_check

from path_tree import sign_matrix


def test_zero_driver_reduces_to_iterated_averaging():
    lat = build_lattice(2.0, 6)
    rng = np.random.default_rng(3)
    vals = rng.normal(size=7)
    y, z, _ = solve_bsde(lat, make_driver("zero"), vals)
    expected = vals
    for k in range(5, -1, -1):
        expected = half_sum(expected)
        np.testing.assert_array_equal(y[k], expected)
    np.testing.assert_allclose(z[5],
                               (vals[1:] - vals[:-1]) / (2 * lat.sqrt_dt))


def test_linear_driver_explicit_closed_form():
    # f = a*y compounds the plain expectation by (1 + a*dt) each step
    d = make_driver("linear", a=0.1, b=0.0)
    lat = build_lattice(1.0, 10)
    root = solve_bsde(lat, d, np.ones(11), scheme="explicit")[0][0][0]
    assert root == pytest.approx(1.1046221254112045, rel=1e-15)
    # implicit compounds by 1/(1 - a*dt) instead
    root_imp = solve_bsde(lat, d, np.ones(11), scheme="implicit")[0][0][0]
    assert root_imp == pytest.approx((1 / 0.99) ** 10, rel=1e-12)
    # both converge to e^{aT} from opposite sides
    assert root < math.exp(0.1) < root_imp


def test_schemes_agree_for_z_only_drivers():
    lat = build_lattice(1.0, 6)
    d = make_driver("abs_z", kappa=0.3)
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.0, 1.0, 7)
    exp = solve_bsde(lat, d, vals, scheme="explicit")[0]
    imp = solve_bsde(lat, d, vals, scheme="implicit")[0]
    for k in range(7):
        np.testing.assert_allclose(exp[k], imp[k], atol=1e-15)
    assert exact_scheme_for(d) == "explicit"
    assert exact_scheme_for(make_driver("linear", a=0.1, b=0.0)) == "implicit"


# a y-dependent f and g (the oracles' implicit pair) and a z-only driver
SPLIT_DRIVERS = (make_driver("linear", a=0.1, b=0.05),
                 make_driver("linear", a=0.2, b=0.1),
                 make_driver("softplus_z", kappa=0.2))


@settings(max_examples=100)
@given(d=st.sampled_from(SPLIT_DRIVERS), steps=st.integers(1, 16),
       data=st.data())
def test_implicit_step_is_batch_independent_property(d, steps, data):
    # every value and slope of the implicit step keeps its bits on any split
    # of its batch, and the batch takes the most iterations of its parts
    lat = build_lattice(1.0, steps)
    n = data.draw(st.integers(1, 48))
    up, down = (np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n,
                                            max_size=n)))
                for _ in range(2))
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    t = lat.time_at(data.draw(st.integers(0, steps - 1)))

    def step(part):
        return _one_step(d, t, up[part], down[part], lat.sqrt_dt, lat.dt,
                         "implicit")

    y, z, iters = step(slice(None))
    part_iters = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        y_part, z_part, it = step(slice(lo, hi))
        assert y_part.tobytes() == y[lo:hi].tobytes()
        assert z_part.tobytes() == z[lo:hi].tobytes()
        if hi > lo:
            part_iters.append(it)
    assert iters == max(part_iters)


# one driver of each catalogue kind, the y-dependent linear f among them
STACK_DRIVERS = (make_driver("zero"), make_driver("linear", a=0.1, b=0.05),
                 make_driver("abs_z", kappa=0.3),
                 make_driver("neg_abs_z", kappa=0.3),
                 make_driver("logcosh_z", kappa=0.5),
                 make_driver("logcosh_z", kappa=0.3, sign=-1),
                 make_driver("softplus_z", kappa=0.4))


@settings(max_examples=80)
@given(d=st.sampled_from(STACK_DRIVERS),
       scheme=st.sampled_from(["explicit", "implicit"]),
       steps=st.integers(1, 12), size=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_a_stack_of_terminals_keeps_each_terminals_bits_property(
        d, scheme, steps, size, seed):
    lat = build_lattice(1.0, steps)
    rng = np.random.default_rng(seed)
    terms = rng.uniform(-1.0, 2.0, (size, steps + 1))
    y, z, _ = solve_bsde(lat, d, terms, scheme=scheme)
    for b, term in enumerate(terms):
        y_alone, z_alone, _ = solve_bsde(lat, d, term, scheme=scheme)
        for k in range(steps + 1):
            assert y[k][b].tobytes() == y_alone[k].tobytes()
        for k in range(steps):
            assert z[k][b].tobytes() == z_alone[k].tobytes()

    # the stacked comparison is the worst of its pairs, and the ordered
    # pairs stay ordered (every driver here meets the step condition)
    highs = terms + rng.uniform(0.0, 1.0, terms.shape)
    got = comparison_check(lat, d, terms, highs, scheme=scheme)
    want = max(comparison_check(lat, d, lo, hi, scheme=scheme)["max_violation"]
               for lo, hi in zip(terms, highs))
    assert np.float64(got["max_violation"]).tobytes() == \
        np.float64(want).tobytes()
    assert got["max_violation"] <= 1e-14

    # the corridor and the envelope price their two constants as one stack
    ends = {v: solve_bsde(lat, d, np.full(steps + 1, v), scheme=scheme)[0]
            for v in (0.0, 1.0)}
    cor = compute_corridor(lat, d, scheme=scheme)
    assert cor.floor.tobytes() == np.array(
        [ends[0.0][k][0] for k in range(steps + 1)]).tobytes()
    assert cor.ceiling.tobytes() == np.array(
        [ends[1.0][k][0] for k in range(steps + 1)]).tobytes()
    values = [rng.uniform(-2.0, 2.0, k + 1) for k in range(steps + 1)]
    got = apriori_bound_check(_surface(lat, d, scheme, values))["excess"]
    # phi(1) = 1 and phi(0) = 0, each solved alone
    want = max(float(np.max(np.abs(v))) - (abs(ends[1.0][k][0])
                                           + abs(ends[0.0][k][0]))
               for k, v in enumerate(values))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_solve_stack_validates_the_node_axis():
    lat = build_lattice(1.0, 4)
    d = make_driver("zero")
    with pytest.raises(LatticeError, match=r"terminal has shape \(2, 4\), "
                                           r"expected \(\.\.\., 5\)"):
        solve_bsde(lat, d, np.zeros((2, 4)))
    y, z, _ = solve_bsde(lat, d, np.zeros((3, 2, 5)))
    assert [v.shape for v in y] == [(3, 2, k + 1) for k in range(5)]
    assert [v.shape for v in z] == [(3, 2, k + 1) for k in range(4)]
    with pytest.raises(LatticeError, match="non-finite"):
        comparison_check(lat, d, np.zeros((2, 5)), np.full((2, 5), np.inf))


def test_monotone_step_condition_enforced():
    lat = build_lattice(1.0, 4)  # sqrt_dt = 0.5
    d = make_driver("abs_z", kappa=3.0)  # 3 * 0.5 > 1
    assert not monotone_step_ok(lat, d)
    with pytest.raises(SchemeError, match="monotone step condition"):
        solve_bsde(lat, d, np.zeros(5), scheme="explicit")
    # refining the grid restores the condition
    fine = build_lattice(1.0, 16)
    assert monotone_step_ok(fine, d)
    solve_bsde(fine, d, np.zeros(17), scheme="explicit")


def test_terminal_validation():
    lat = build_lattice(1.0, 4)
    d = make_driver("zero")
    with pytest.raises(LatticeError):
        solve_bsde(lat, d, np.zeros(4))  # wrong width
    with pytest.raises(LatticeError):
        solve_bsde(lat, d, [0.0, 1.0, np.nan, 0.0, 1.0])
    with pytest.raises(SchemeError):
        solve_bsde(lat, d, np.zeros(5), scheme="midpoint")


def test_solve_bsde_takes_at_least_one_step():
    lat = build_lattice(1.0, 4)
    d = make_driver("zero")
    with pytest.raises(LatticeError, match="stop_level < terminal_level"):
        solve_bsde(lat, d, np.zeros(5), stop_level=4)
    with pytest.raises(LatticeError, match="stop_level < terminal_level"):
        solve_bsde(lat, d, np.zeros(3), terminal_level=2, stop_level=2)
    y, z, _ = solve_bsde(lat, d, np.arange(3.0), terminal_level=2,
                         stop_level=1)
    assert [v.shape for v in y] == [(2,), (3,)]  # levels 1 and 2
    assert [v.shape for v in z] == [(2,)]


def test_solve_bsde_reads_only_an_array_terminal():
    # a scalar or an object is not a terminal: it fails the shape check
    lat = build_lattice(1.0, 4)
    for terminal in (0.0, SimpleNamespace(values=np.zeros(5))):
        with pytest.raises(LatticeError, match=r"terminal has shape \(\), "
                                               r"expected \(\.\.\., 5\)"):
            solve_bsde(lat, make_driver("zero"), terminal)


def test_comparison_ordered_pairs_seeded():
    lat = build_lattice(1.0, 8)
    drivers = [make_driver("zero"), make_driver("abs_z", kappa=0.3),
               make_driver("neg_abs_z", kappa=0.3),
               make_driver("linear", a=0.1, b=0.05),
               make_driver("logcosh_z", kappa=0.5),
               make_driver("softplus_z", kappa=0.4)]
    rng = np.random.default_rng(17)
    worst = -math.inf
    for i in range(60):
        a = rng.uniform(0.0, 1.0, 9)
        b = rng.uniform(0.0, 1.0, 9)
        res = comparison_check(lat, drivers[i % len(drivers)],
                               np.minimum(a, b), np.maximum(a, b))
        worst = max(worst, res["max_violation"])
        assert res["max_violation"] <= 1e-14
    assert worst <= 1e-14


def test_corridor_is_trivial_for_zero_driver():
    lat = build_lattice(1.0, 5)
    cor = compute_corridor(lat, make_driver("zero"))
    np.testing.assert_array_equal(cor.floor, np.zeros(6))
    np.testing.assert_array_equal(cor.ceiling, np.ones(6))
    assert cor.bounds_at(3) == (0.0, 1.0)


def test_corridor_constants_survive_z_only_drivers():
    # E^f of a constant is that constant whenever f(t, y, 0) = 0
    lat = build_lattice(1.0, 5)
    cor = compute_corridor(lat, make_driver("neg_abs_z", kappa=0.3))
    np.testing.assert_allclose(cor.bounds_at(0), [0.0, 1.0], atol=1e-15)
    # the floor solve's slope is 0 at every node, so Corridor stores none
    floor_z = solve_bsde(lat, make_driver("neg_abs_z", kappa=0.3),
                         np.zeros(6))[1]
    np.testing.assert_allclose(floor_z[2], np.zeros(3), atol=1e-15)


def test_estimation_gap_one_step_is_exact_for_affine_terminal():
    # for xi = W the slope is 1, so E^g - E = kappa * dt on the nose
    lat = build_lattice(1.0, 4)
    g = make_driver("abs_z", kappa=0.3)
    xi = lat.brownian_values(3)
    res = estimation_gap(lat, g, xi, 2, 1)
    assert res["gap"] == pytest.approx(0.3 * lat.dt, rel=1e-12)
    assert res["window"] == pytest.approx(lat.dt)
    # a stack reads its worst terminal: slope 2 doubles the gap
    stacked = estimation_gap(lat, g, np.stack((xi, 2.0 * xi)), 2, 1)
    assert stacked["gap"] == pytest.approx(0.6 * lat.dt, rel=1e-12)
    with pytest.raises(LatticeError):
        estimation_gap(lat, g, lat.brownian_values(4), 4, 1)


def test_estimation_gap_scales_with_window():
    lat = build_lattice(1.0, 16)
    g = make_driver("abs_z", kappa=0.3)
    gaps = []
    for span in (1, 2, 4):
        xi = np.tanh(lat.brownian_values(4 + span))
        gaps.append(estimation_gap(lat, g, xi, 4, span)["gap"])
    assert gaps[0] < gaps[1] < gaps[2]


def test_path_tree_matches_recombining_solver():
    lat = build_lattice(1.0, 6)
    rng = np.random.default_rng(23)
    paths_w = lat.sqrt_dt * np.cumsum(sign_matrix(6), axis=1)[:, -1]
    for d in (make_driver("zero"), make_driver("neg_abs_z", kappa=0.3)):
        for _ in range(10):
            coeffs = rng.normal(size=3)
            leaf = coeffs[0] + coeffs[1] * paths_w + coeffs[2] * paths_w**2
            term = coeffs[0] + coeffs[1] * lat.brownian_values(6) \
                + coeffs[2] * lat.brownian_values(6) ** 2
            root_tree = solve_on_path_tree(lat, d, leaf)
            root_lattice = solve_bsde(lat, d, term)[0][0][0]
            assert abs(root_tree - root_lattice) <= 1e-13


def test_path_tree_batches_and_slopes():
    lat = build_lattice(1.0, 3)
    d = make_driver("zero")
    batch = np.arange(16.0).reshape(2, 8)
    roots = solve_on_path_tree(lat, d, batch)
    assert roots.shape == (2,)
    np.testing.assert_allclose(roots, batch.mean(axis=1))
    root = solve_on_path_tree(lat, d, np.arange(8.0))
    assert type(root) is float and root == 3.5
    with pytest.raises(LatticeError):
        solve_on_path_tree(lat, d, np.zeros(7))


def _surface(lat, g, scheme, values):
    """The parts of a ValueSurface that apriori_bound_check reads, for the
    power loss p = 2 (phi(0) = 0, phi(1) = 1)."""
    sc = SimpleNamespace(lattice=lat, driver_g=g, scheme=scheme,
                         loss=make_loss("power", p=2.0))
    return SimpleNamespace(scenario=sc, values=values)


def test_apriori_envelope_for_zero_driver_power_loss():
    # the envelope is 1 at every node: |V| = 1 touches it, and a level
    # with |V| = 1.25 exceeds it by 0.25
    lat = build_lattice(1.0, 4)
    g = make_driver("zero")
    ones = [np.ones(k + 1) for k in range(5)]
    assert apriori_bound_check(_surface(lat, g, "explicit", ones)) == \
        {"excess": 0.0}
    ones[2] = np.array([0.5, -1.25, 1.0])
    assert apriori_bound_check(_surface(lat, g, "explicit", ones)) == \
        {"excess": 0.25}
