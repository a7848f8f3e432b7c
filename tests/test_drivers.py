"""Driver catalogue, Fenchel conjugates, and loss pairs."""

import hashlib
import math

import numpy as np
import pytest

from weakbsde.drivers import (DRIVER_BUILDERS, LOSS_BUILDERS, LossPair,
                              concave_conjugate, convex_conjugate, make_driver,
                              make_loss)


def fenchel_recover(d, z, step=1e-3):
    """Reference biconjugate of a convex z-only driver: d(t, 0, z) rebuilt
    as the max over a step grid of |v| <= kappa of z v - conjugate(0, v)."""
    kappa = d.lipschitz_z
    v = np.linspace(-kappa, kappa, 2 * max(1, math.ceil(kappa / step)) + 1)
    return np.max(z[:, None] * v - convex_conjugate(d, 0.0, v), axis=1)


def galois_violations(lp):
    """Largest violation of psi(phi(m)) >= m and phi(psi(y)) <= y."""
    grid = np.linspace(0.0, 1.0, 401)
    worst = float(np.max(grid - lp.psi(lp.phi(grid))))
    psi_y = lp.psi(grid)
    ok = psi_y > -np.inf
    if ok.any():
        worst = max(worst, float(np.max(lp.phi(psi_y[ok]) - grid[ok])))
    return worst


def polar_numeric(lp, l, step=1e-4):
    """Grid oracle for the polar transform sup_m (m l - phi(m))."""
    m = np.arange(0.0, 1.0 + step / 2, step)
    return np.max(np.asarray(l, float)[..., None] * m
                  - np.asarray(lp.phi(m), float), axis=-1)


def test_unknown_driver_and_parameters_rejected():
    with pytest.raises(ValueError, match="unknown driver"):
        make_driver("quadratic")
    with pytest.raises(ValueError, match="unknown parameters"):
        make_driver("abs_z", kappa=0.3, slope=1.0)
    with pytest.raises(ValueError):
        make_driver("abs_z", kappa=-0.1)


def test_every_catalogue_driver_builds_and_evaluates():
    samples = {
        "zero": {}, "linear": {"a": 0.1, "b": 0.2}, "abs_z": {"kappa": 0.3},
        "neg_abs_z": {"kappa": 0.3}, "logcosh_z": {"kappa": 0.5},
        "softplus_z": {"kappa": 0.4},
    }
    assert set(samples) == set(DRIVER_BUILDERS)
    z = np.linspace(-2.0, 2.0, 9)
    for name, params in samples.items():
        d = make_driver(name, **params)
        out = np.asarray(d.fn(0.0, np.zeros_like(z), z), float)
        assert out.shape == z.shape
        assert np.all(np.isfinite(out))


def test_abs_z_conjugate_segment():
    d = make_driver("abs_z", kappa=0.3)
    # domain is the segment u = 0, |v| <= kappa, value 0 on it
    assert convex_conjugate(d, 0.0, 0.0) == 0.0
    assert convex_conjugate(d, 0.0, 0.3) == 0.0
    assert convex_conjugate(d, 0.0, -0.3) == 0.0
    assert convex_conjugate(d, 0.0, 0.31) == math.inf
    assert convex_conjugate(d, 0.05, 0.0) == math.inf
    assert (d.lipschitz_y, d.lipschitz_z) == (0.0, 0.3)


def test_neg_abs_z_concave_conjugate_segment():
    d = make_driver("neg_abs_z", kappa=0.3)
    assert concave_conjugate(d, 0.0, 0.2) == 0.0
    assert concave_conjugate(d, 0.0, 0.4) == -math.inf
    assert concave_conjugate(d, 0.1, 0.0) == -math.inf


def test_linear_driver_conjugate_is_a_point():
    d = make_driver("linear", a=0.1, b=0.2)
    assert concave_conjugate(d, 0.1, 0.2) == 0.0
    assert concave_conjugate(d, 0.1, 0.25) == -math.inf
    assert convex_conjugate(d, 0.1, 0.2) == 0.0
    assert (d.lipschitz_y, d.lipschitz_z) == (0.1, 0.2)


def test_softplus_conjugate_value_at_origin():
    kappa = 0.4
    d = make_driver("softplus_z", kappa=kappa)
    # sup_z (0 - f(z)) is attained in the z -> -inf limit at kappa * ln 2
    assert convex_conjugate(d, 0.0, 0.0) == pytest.approx(kappa * math.log(2))
    # the entropy term cancels the ln 2 exactly at the half-slope point
    assert convex_conjugate(d, 0.0, 0.5 * kappa) == pytest.approx(0.0,
                                                                  abs=1e-12)
    assert convex_conjugate(d, 0.0, kappa) == pytest.approx(kappa *
                                                            math.log(2))
    assert convex_conjugate(d, 0.0, 1.1 * kappa) == math.inf


def test_fenchel_recover_roundtrips_smooth_drivers():
    z = np.linspace(-1.5, 1.5, 13)
    for name, params in (("logcosh_z", {"kappa": 0.5}),
                         ("softplus_z", {"kappa": 0.4})):
        d = make_driver(name, **params)
        direct = np.asarray(d.fn(0.0, np.zeros_like(z), z), float)
        via_conjugate = fenchel_recover(d, z)
        np.testing.assert_allclose(via_conjugate, direct, atol=5e-4)


def test_unknown_loss_and_parameters_rejected():
    with pytest.raises(ValueError, match="unknown loss"):
        make_loss("huber")
    with pytest.raises(ValueError, match="unknown parameters"):
        make_loss("identity", slope=2.0)
    with pytest.raises(ValueError):
        make_loss("power", p=0.5)
    with pytest.raises(ValueError):
        make_loss("call_spread", lo=0.7, hi=0.3)


def test_power_loss_frozen_values():
    lp = make_loss("power", p=2.0)
    assert lp.phi(0.5) == 0.25
    assert lp.psi(0.25) == 0.5
    assert lp.psi(-0.1) == -math.inf
    assert lp.psi(4.0) == 1.0
    # polar: l^2/4 on [0, 2], l - 1 beyond, 0 below 0
    assert lp.polar(1.0) == pytest.approx(0.25)
    assert lp.polar(2.0) == pytest.approx(1.0)
    assert lp.polar(3.0) == pytest.approx(2.0)
    assert lp.polar(-1.0) == pytest.approx(0.0)
    assert lp.polar_grad(1.0) == pytest.approx(0.5)
    assert lp.phi_convex


def _power_polar_reference(p, l):
    """Reference: the power loss's polar and polar gradient, each with its
    own guarded stationary point (the gradient None for p = 1)."""
    with np.errstate(invalid="ignore"):
        mstar = np.power(np.clip(l, 0.0, None) / p, 1.0 / (p - 1.0)) \
            if p > 1.0 else np.where(l >= 1.0, 1.0, 0.0)
    mstar = np.clip(np.where(np.isfinite(mstar), mstar, 0.0), 0.0, 1.0)
    polar = np.maximum(np.maximum(l * mstar - mstar**p, 0.0), l - 1.0)
    if p == 1.0:
        return polar, None
    grad = np.clip(np.power(np.clip(l, 0.0, None) / p, 1.0 / (p - 1.0)),
                   0.0, 1.0)
    return polar, np.where(l <= 0.0, 0.0, grad)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_power_polar_keeps_the_reference_bits(p):
    # finite l below, around and far above the kink at l = p, signed zeros,
    # subnormals, and l large enough that (l/p)^(1/(p-1)) overflows
    tiny = np.logspace(-320, -1, 2000)
    huge = np.logspace(1, 308, 2000)
    ls = np.concatenate([np.linspace(-4.0, 4.0, 100001), tiny, -tiny, huge,
                         -huge, [0.0, -0.0, 1.0, p, 5e-324, -5e-324,
                                 np.finfo(float).max]])
    lp = make_loss("power", p=p)
    with np.errstate(over="ignore"):
        ref_polar, ref_grad = _power_polar_reference(p, ls)
        got_polar = lp.polar(ls)
        got_grad = None if lp.polar_grad is None else lp.polar_grad(ls)
        scalars = [(lp.polar(x), float(_power_polar_reference(p, x)[0]))
                   for x in (-1.0, -0.0, 0.0, 0.5, p, 1e300)]
    assert np.array_equal(got_polar.view(np.int64), ref_polar.view(np.int64))
    assert (got_grad is None) == (ref_grad is None) == (p == 1.0)
    if ref_grad is not None:
        assert np.array_equal(got_grad.view(np.int64),
                              ref_grad.view(np.int64))
    for got, ref in scalars:
        assert type(got) is float and math.copysign(1.0, got) == \
            math.copysign(1.0, ref) and got == ref


def test_s_shaped_loss_frozen_values():
    lp = make_loss("s_shaped")
    assert not lp.phi_convex
    assert lp.breakpoints == (0.4, 0.6)
    assert lp.phi(0.4) == pytest.approx(0.1)
    assert lp.phi(0.5) == pytest.approx(0.5)
    assert lp.psi(0.5) == pytest.approx(0.5)
    assert lp.psi(0.05) == pytest.approx(0.2)  # inside the shallow first leg


def test_call_spread_flat_segments_resolve_to_the_right_edge():
    lp = make_loss("call_spread", lo=0.3, hi=0.7)
    # phi is 0 on [0, 0.3]; the sup-inverse of 0 is the segment's right end
    assert lp.psi(0.0) == pytest.approx(0.3)
    assert lp.psi(1.0) == pytest.approx(1.0)
    assert lp.psi(0.5) == pytest.approx(0.5)
    assert lp.phi(0.5) == pytest.approx(0.5)
    assert lp.phi(0.2) == 0.0


def test_psi_accepts_matrix_input():
    # the leaf-search oracle feeds (candidates, leaves) panels through psi
    lp = make_loss("s_shaped")
    y = np.array([[-0.5, 0.0, 0.05], [0.5, 0.95, 2.0]])
    out = lp.psi(y)
    assert out.shape == y.shape
    assert out[0, 0] == -math.inf
    assert out[1, 2] == 1.0
    flat = np.array([lp.psi(float(v)) for v in y.ravel()])
    np.testing.assert_array_equal(out.ravel(), flat)


def test_galois_inequalities_hold_for_all_losses():
    built = {
        "identity": {}, "power": {"p": 2.0},
        "call_spread": {"lo": 0.3, "hi": 0.7}, "s_shaped": {},
    }
    assert set(built) == set(LOSS_BUILDERS)
    for name, params in built.items():
        lp = make_loss(name, **params)
        assert galois_violations(lp) <= 1e-12, name


def test_polar_matches_grid_oracle():
    rng = np.random.default_rng(11)
    for name, params in (("identity", {}), ("power", {"p": 2.0}),
                         ("s_shaped", {}),
                         ("call_spread", {"lo": 0.3, "hi": 0.7})):
        lp = make_loss(name, **params)
        ls = rng.uniform(0.0, 4.0, 25)
        exact = np.asarray(lp.polar(ls), float)
        grid = np.asarray(polar_numeric(lp, ls, step=1e-4), float)
        np.testing.assert_allclose(exact, grid, atol=5e-4)
        # the polar dominates every (m, phi(m)) pair by construction
        m = rng.uniform(0.0, 1.0, 40)
        worst = np.max(ls[:, None] * m[None, :]
                       - np.asarray(lp.phi(m), float)[None, :]
                       - exact[:, None])
        assert worst <= 1e-12


def _edges(*pivots):
    """Each pivot with both signs and its nextafter neighbours on both
    sides, half and twice it, then +-0.0, +-5e-324, +-inf and NaN."""
    out = []
    for x in pivots:
        for s in (x, -x):
            out += [s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf),
                    0.5 * s, 2.0 * s]
    return np.array(out + [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf,
                           np.nan])


def _edge_cases():
    """(label, function, argument arrays) for each catalogue conjugate, on
    the (n, n) product of its edge values, and each loss transform."""
    cases = []
    drivers = [("zero", {}, ()), ("linear", {"a": 0.1, "b": 0.2}, (0.1, 0.2))]
    for kappa in (0.3, 4.0):
        drivers += [(name, {"kappa": kappa, **extra}, (kappa,))
                    for name, extra in (("abs_z", {}), ("neg_abs_z", {}),
                                        ("logcosh_z", {"sign": 1}),
                                        ("logcosh_z", {"sign": -1}),
                                        ("softplus_z", {}))]
    for name, params, pivots in drivers:
        d = make_driver(name, **params)
        grid = np.meshgrid(_edges(*pivots), _edges(*pivots), indexing="ij")
        label = "/".join([name, *map(str, params.values())])
        for conj, kind in ((concave_conjugate, d.concave_in_yz),
                           (convex_conjugate, d.convex_in_yz)):
            if kind:
                cases.append((f"{label}/{conj.__name__}",
                              lambda x, y, d=d, conj=conj: conj(d, x, y),
                              grid))
    for name in sorted(LOSS_BUILDERS):
        lp = make_loss(name)
        pivots = (1.0, 0.5, *lp.breakpoints, *lp.params.values())
        edges = _edges(*pivots)
        grid = [np.stack([edges, edges[::-1]], axis=1)]
        for fn in ("phi", "psi", "polar", "polar_grad"):
            if getattr(lp, fn) is not None:
                cases.append((f"{name}/{fn}", getattr(lp, fn), grid))
    return cases


def _bits_digest(out):
    """sha256 prefix of the int64 bits of out, NaN entries as a mask."""
    out = np.asarray(out, float)
    nan = np.isnan(out)
    bits = np.where(nan, 0, out.view(np.int64))
    return hashlib.sha256(bits.tobytes() + nan.tobytes()).hexdigest()[:32]


# bits of every catalogue conjugate and loss transform on _edges grids:
# the domain tests at +-kappa and its neighbours, signed zeros, subnormals
# (for softplus_z, v / kappa rounds -5e-324 to -0.0 at kappa 4 but not at
# kappa 0.3), infinities and NaN
EDGE_BITS = {
    "zero/concave_conjugate":
        "54e0b715c3d8e5cb26c3dcf7b854728a",
    "zero/convex_conjugate":
        "409c7a96d6e087eb3ec4d14456f06e36",
    "linear/0.1/0.2/concave_conjugate":
        "169f225c5d0208b9994bfaabfc96e7cb",
    "linear/0.1/0.2/convex_conjugate":
        "89ea36157a4f83adb76314438806b34e",
    "abs_z/0.3/convex_conjugate":
        "2f0dbcdbc7f3e7d7d32542f9ae41986c",
    "neg_abs_z/0.3/concave_conjugate":
        "9b3d118f3d449fefa834e1a8d48763ff",
    "logcosh_z/0.3/1/convex_conjugate":
        "e920de52a5998ec851ffd64a2212ad47",
    "logcosh_z/0.3/-1/concave_conjugate":
        "3f0847b18bee5898e81f783ccb5f8cea",
    "softplus_z/0.3/convex_conjugate":
        "edb2c73155437a3dfbc240c77ebb1ddc",
    "abs_z/4.0/convex_conjugate":
        "2f0dbcdbc7f3e7d7d32542f9ae41986c",
    "neg_abs_z/4.0/concave_conjugate":
        "9b3d118f3d449fefa834e1a8d48763ff",
    "logcosh_z/4.0/1/convex_conjugate":
        "a5bae6dded9fc39064f6ae9355f59a81",
    "logcosh_z/4.0/-1/concave_conjugate":
        "e510b13ffebf2457d92a64fec73d9a4e",
    "softplus_z/4.0/convex_conjugate":
        "e8330528a9c4f638e09954ea5481c1ad",
    "call_spread/phi":
        "2bb85f62c5d7f324714009f6d1773715",
    "call_spread/psi":
        "a5fa49a30161fcb32d71ed168efe9b70",
    "call_spread/polar":
        "4db7a650143556b49a60b7a41d9a0756",
    "identity/phi":
        "7941c8e0c609614c274f98eac9fe6c46",
    "identity/psi":
        "e906d47bfedef3b2674a0e74539c90fe",
    "identity/polar":
        "1eb3fa33b0ff28745b6535ed6efa4bc1",
    "power/phi":
        "66e753c7ac622893ff8168ac1667169d",
    "power/psi":
        "f8405f1b7fe4d7c926f0fd0e0f42689e",
    "power/polar":
        "1363917b6c9835404452b59a1a33b852",
    "power/polar_grad":
        "483fbaee8de6fdbbb47c4fea811d5d97",
    "s_shaped/phi":
        "8a809ba98d48f2b4d1f39228bd7ecb4d",
    "s_shaped/psi":
        "617d9f85828992afea9307644bacee73",
    "s_shaped/polar":
        "309637c5250acc5ddbab453b20e97a7d",
}


def test_transforms_keep_their_edge_bits_and_scalar_rule():
    cases = _edge_cases()
    assert [label for label, _, _ in cases] == list(EDGE_BITS)
    with np.errstate(all="ignore"):
        for label, fn, args in cases:
            out = fn(*args)
            assert isinstance(out, np.ndarray), label
            assert out.shape == args[0].shape, label
            assert _bits_digest(out) == EDGE_BITS[label], label
            # a scalar argument gives a Python float with the same bits
            for idx in np.ndindex(args[0].shape):
                one = fn(*(float(a[idx]) for a in args))
                assert type(one) is float, label
                assert _bits_digest(one) == _bits_digest(out[idx]), \
                    (label, idx)
