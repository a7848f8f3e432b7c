"""Driver and loss-pair catalogue with their convex-duality transforms.

A driver is the nonlinearity (t, y, z) -> f of a backward equation; a loss
pair couples a nondecreasing [0,1]-valued constraint map psi with its
right-inverse phi.  Both carry enough structure (Lipschitz constants,
shape flags, closed-form conjugates) for the solvers to stay exact and
for the dual machinery to know its search domains.

Conventions for the transforms:

* concave conjugate of a driver d:   inf_{x,pi} (x*p + pi*q - d(t,x,pi)),
  equal to -inf outside its effective domain;
* convex conjugate of a driver d:    sup_{y,z} (y*u + z*v - d(t,y,z)),
  equal to +inf outside its effective domain;
* polar of a loss map phi:           sup_{m in [0,1]} (m*l - phi(m)).

Effective domains are always contained in the box with per-axis
half-widths equal to the driver's Lipschitz constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

LN2 = math.log(2.0)


class DriverShapeError(ValueError):
    """Requested a conjugate the driver has no closed form for."""


class ConjugateDomainError(ValueError):
    """A dual candidate stepped outside the effective conjugate domain."""


@dataclass(frozen=True)
class ConjugateBox:
    """Outer bound for a conjugate's effective domain: |first| <= half_width_y,
    |second| <= half_width_z.  Half-widths equal the driver's Lipschitz
    constants; the actual domain may be a strict subset (decided by the
    conjugate value being finite)."""

    half_width_y: float
    half_width_z: float


@dataclass(frozen=True)
class Driver:
    """Lipschitz driver (t, y, z) -> value, vectorized over y and z.

    The conjugates are closed forms, one per shape the driver has: a
    driver is concave (convex) in (y, z) exactly when it carries a concave
    (convex) conjugate, and the zero and linear drivers carry both.
    """

    name: str
    fn: Callable = field(repr=False)
    lipschitz_y: float
    lipschitz_z: float
    concave_conjugate_fn: Optional[Callable] = field(default=None, repr=False)
    convex_conjugate_fn: Optional[Callable] = field(default=None, repr=False)
    params: dict = field(default_factory=dict)

    @property
    def concave_in_yz(self) -> bool:
        return self.concave_conjugate_fn is not None

    @property
    def convex_in_yz(self) -> bool:
        return self.convex_conjugate_fn is not None

    @property
    def depends_on_y(self) -> bool:
        return self.lipschitz_y > 0.0

    def conjugate_box(self) -> ConjugateBox:
        return ConjugateBox(self.lipschitz_y, self.lipschitz_z)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def concave_conjugate(d: Driver, p, q):
    """inf_(x,pi) (x p + pi q - d); -inf outside the effective domain."""
    if d.concave_conjugate_fn is None:
        raise DriverShapeError(
            f"driver {d.name!r} has no closed-form concave conjugate"
        )
    return d.concave_conjugate_fn(p, q)


def convex_conjugate(d: Driver, u, v):
    """sup_(y,z) (y u + z v - d); +inf outside the effective domain."""
    if d.convex_conjugate_fn is None:
        raise DriverShapeError(
            f"driver {d.name!r} has no closed-form convex conjugate"
        )
    return d.convex_conjugate_fn(u, v)


# ---------------------------------------------------------------------------
# driver catalogue
# ---------------------------------------------------------------------------

def _point_domain(a: float, b: float, fill: float):
    """Conjugate of an affine driver: 0 at the coefficient pair, infinite away."""
    def conj(p, q):
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        hit = (p == a) & (q == b)
        out = np.where(hit, 0.0, fill)
        return out if out.ndim else float(out)
    return conj


def _segment_domain(kappa: float, fill: float):
    """Conjugate of +/- kappa*|z|: 0 on {0} x [-kappa, kappa], infinite away."""
    def conj(p, q):
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        inside = (p == 0.0) & (np.abs(q) <= kappa)
        out = np.where(inside, 0.0, fill)
        return out if out.ndim else float(out)
    return conj


def make_zero() -> Driver:
    return Driver(
        name="zero",
        fn=lambda t, y, z: 0.0 * (np.asarray(y, float) + np.asarray(z, float)),
        lipschitz_y=0.0,
        lipschitz_z=0.0,
        concave_conjugate_fn=_point_domain(0.0, 0.0, -math.inf),
        convex_conjugate_fn=_point_domain(0.0, 0.0, math.inf),
    )


def make_linear(a: float, b: float) -> Driver:
    a, b = float(a), float(b)
    return Driver(
        name="linear",
        fn=lambda t, y, z: a * np.asarray(y, float) + b * np.asarray(z, float),
        lipschitz_y=abs(a),
        lipschitz_z=abs(b),
        concave_conjugate_fn=_point_domain(a, b, -math.inf),
        convex_conjugate_fn=_point_domain(a, b, math.inf),
        params={"a": a, "b": b},
    )


def make_abs_z(kappa: float) -> Driver:
    """Convex kink driver +kappa*|z|."""
    kappa = float(kappa)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return Driver(
        name="abs_z",
        fn=lambda t, y, z: kappa * np.abs(np.asarray(z, float)),
        lipschitz_y=0.0,
        lipschitz_z=kappa,
        convex_conjugate_fn=_segment_domain(kappa, math.inf),
        params={"kappa": kappa},
    )


def make_neg_abs_z(kappa: float) -> Driver:
    """Concave kink driver -kappa*|z|."""
    kappa = float(kappa)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return Driver(
        name="neg_abs_z",
        fn=lambda t, y, z: -kappa * np.abs(np.asarray(z, float)),
        lipschitz_y=0.0,
        lipschitz_z=kappa,
        concave_conjugate_fn=_segment_domain(kappa, -math.inf),
        params={"kappa": kappa},
    )


def _logcosh(z):
    z = np.asarray(z, float)
    return np.abs(z) + np.log1p(np.exp(-2.0 * np.abs(z))) - LN2


def _atanh_entropy(u):
    """H(u) = u*atanh(u) + log(1 - u^2)/2, extended by ln 2 at |u| = 1."""
    u = np.asarray(u, float)
    inner = np.clip(u, -1.0 + 1e-15, 1.0 - 1e-15)
    h = inner * np.arctanh(inner) + 0.5 * np.log1p(-inner * inner)
    return np.where(np.abs(u) >= 1.0 - 1e-12, LN2, h)


def make_logcosh_z(kappa: float, sign: int = 1) -> Driver:
    """Smooth soft-|z| driver sign * kappa * log cosh(z) (Lipschitz kappa)."""
    kappa = float(kappa)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")

    def fn(t, y, z):
        return sign * kappa * _logcosh(z)

    def concave_conj(p, q):  # only valid for sign = -1
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        inside = (p == 0.0) & (np.abs(q) <= kappa)
        out = np.where(inside, -kappa * _atanh_entropy(q / kappa), -math.inf)
        return out if out.ndim else float(out)

    def convex_conj(u, v):  # only valid for sign = +1
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        inside = (u == 0.0) & (np.abs(v) <= kappa)
        out = np.where(inside, kappa * _atanh_entropy(v / kappa), math.inf)
        return out if out.ndim else float(out)

    return Driver(
        name="logcosh_z",
        fn=fn,
        lipschitz_y=0.0,
        lipschitz_z=kappa,
        concave_conjugate_fn=concave_conj if sign == -1 else None,
        convex_conjugate_fn=convex_conj if sign == 1 else None,
        params={"kappa": kappa, "sign": sign},
    )


def make_softplus_z(kappa: float) -> Driver:
    """Convex smooth driver kappa * (softplus(z) - ln 2); slope in (0, kappa)."""
    kappa = float(kappa)
    if kappa <= 0:
        raise ValueError("kappa must be positive")

    def fn(t, y, z):
        return kappa * (np.logaddexp(0.0, np.asarray(z, float)) - LN2)

    def convex_conj(u, v):
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        s = v / kappa
        inside = (u == 0.0) & (s >= 0.0) & (s <= 1.0)
        sc = np.clip(s, 1e-15, 1.0 - 1e-15)
        ent = sc * np.log(sc) + (1.0 - sc) * np.log1p(-sc)
        ent = np.where((s <= 0.0) | (s >= 1.0), 0.0, ent)
        out = np.where(inside, kappa * (ent + LN2), math.inf)
        return out if out.ndim else float(out)

    return Driver(
        name="softplus_z",
        fn=fn,
        lipschitz_y=0.0,
        lipschitz_z=kappa,
        convex_conjugate_fn=convex_conj,
        params={"kappa": kappa},
    )


DRIVER_BUILDERS = {
    "zero": (make_zero, ()),
    "linear": (make_linear, ("a", "b")),
    "abs_z": (make_abs_z, ("kappa",)),
    "neg_abs_z": (make_neg_abs_z, ("kappa",)),
    "logcosh_z": (make_logcosh_z, ("kappa", "sign")),
    "softplus_z": (make_softplus_z, ("kappa",)),
}


def _from_catalogue(kind: str, builders: dict, name: str, params: dict):
    """builders[name] built from params; rejects unknown names and unknown
    parameters, naming the kind of entry."""
    if name not in builders:
        raise ValueError(f"unknown {kind} {name!r}; known: {sorted(builders)}")
    builder, allowed = builders[name]
    extra = set(params) - set(allowed)
    if extra:
        raise ValueError(f"{kind} {name!r} got unknown parameters "
                         f"{sorted(extra)}")
    return builder(**params)


def make_driver(name: str, **params) -> Driver:
    """Catalogue factory; rejects unknown names and unknown parameters."""
    return _from_catalogue("driver", DRIVER_BUILDERS, name, params)


# ---------------------------------------------------------------------------
# loss pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossPair:
    """Constraint map psi (nondecreasing, [0,1]-valued, -inf below zero)
    together with its right-inverse phi on [0,1].

    polar_fn is the exact polar transform of phi; polar_grad is its
    derivative when the polar is continuously differentiable, else None.
    """

    name: str
    phi_fn: Callable = field(repr=False)
    psi_fn: Callable = field(repr=False)
    polar_fn: Callable = field(repr=False)
    phi_lipschitz: Optional[float]
    phi_convex: bool
    polar_grad: Optional[Callable] = field(default=None, repr=False)
    breakpoints: tuple = ()
    params: dict = field(default_factory=dict)

    def phi(self, m):
        return self.phi_fn(np.asarray(m, float))

    def psi(self, y):
        return self.psi_fn(np.asarray(y, float))

    def polar(self, l):
        return self.polar_fn(np.asarray(l, float))


def _sup_inverse(knots_m: np.ndarray, knots_v: np.ndarray, y):
    """sup{m : phi(m) <= y} for a piecewise-linear nondecreasing phi."""
    y_arr = np.asarray(y, float)
    flat = np.atleast_1d(y_arr).ravel()
    idx = np.searchsorted(knots_v, flat, side="right") - 1
    # idx = largest knot index with value <= y; segment idx holds the crossing
    # because y < v[idx+1] forces that segment to rise
    i = np.clip(idx, 0, len(knots_m) - 2)
    rise = knots_v[i + 1] - knots_v[i]
    run = knots_m[i + 1] - knots_m[i]
    frac = np.clip((flat - knots_v[i]) / np.where(rise > 0.0, rise, 1.0), 0.0, 1.0)
    out = np.where(rise > 0.0, knots_m[i] + frac * run, knots_m[i])
    out = np.where((idx >= len(knots_m) - 1) | (flat >= knots_v[-1]),
                   knots_m[-1], out)
    # below phi(0) (in particular any y < 0) no threshold is attainable
    out = np.where(idx < 0, -np.inf, out)
    out = out.reshape(y_arr.shape) if y_arr.ndim else out
    return out if y_arr.ndim else float(out[0])


def make_piecewise_loss(name: str, knots, convex: bool,
                        params: dict) -> LossPair:
    """Loss pair from piecewise-linear phi knots ((m_i, v_i), nondecreasing),
    recording params, the config params make_loss builds it from."""
    km = np.array([k[0] for k in knots], dtype=float)
    kv = np.array([k[1] for k in knots], dtype=float)
    if km[0] != 0.0 or km[-1] != 1.0:
        raise ValueError("phi knots must span [0, 1]")
    if np.any(np.diff(km) <= 0) or np.any(np.diff(kv) < 0):
        raise ValueError("phi knots must be strictly increasing in m, nondecreasing in value")
    if kv[0] < 0.0 or kv[-1] > 1.0:
        raise ValueError("phi must map into [0, 1]")
    slopes = np.diff(kv) / np.diff(km)
    lip = float(np.max(np.abs(slopes)))

    def phi(m):
        m = np.asarray(m, float)
        out = np.interp(m, km, kv)
        return out if out.ndim else float(out)

    def psi(y):
        return _sup_inverse(km, kv, y)

    def polar(l):
        l = np.asarray(l, float)
        # sup over [0,1] of a piecewise-linear function is attained at a knot
        out = np.max(l[..., None] * km - kv, axis=-1)
        return out if out.ndim else float(out)

    return LossPair(
        name=name,
        phi_fn=phi,
        psi_fn=psi,
        polar_fn=polar,
        phi_lipschitz=lip,
        phi_convex=convex,
        polar_grad=None,  # piecewise-linear polar is kinked
        breakpoints=tuple(float(m) for m in km[1:-1]),
        params=params,
    )


def make_identity_loss() -> LossPair:
    return make_piecewise_loss("identity", [(0.0, 0.0), (1.0, 1.0)],
                               convex=True, params={})


def make_call_spread_loss(lo: float = 0.3, hi: float = 0.7) -> LossPair:
    lo, hi = float(lo), float(hi)
    if not (0.0 < lo < hi < 1.0):
        raise ValueError("need 0 < lo < hi < 1")
    return make_piecewise_loss(
        "call_spread",
        [(0.0, 0.0), (lo, 0.0), (hi, 1.0), (1.0, 1.0)],
        convex=False,  # flat tail after the upper kink breaks convexity
        params={"lo": lo, "hi": hi},
    )


def make_s_shaped_loss() -> LossPair:
    """Nonconvex S-profile used by the convex-envelope checks."""
    return make_piecewise_loss(
        "s_shaped",
        [(0.0, 0.0), (0.4, 0.1), (0.6, 0.9), (1.0, 1.0)],
        convex=False,
        params={},
    )


def make_power_loss(p: float = 2.0) -> LossPair:
    p = float(p)
    if p < 1.0:
        raise ValueError("power loss needs p >= 1")

    def phi(m):
        m = np.asarray(m, float)
        out = np.power(np.clip(m, 0.0, 1.0), p)
        return out if out.ndim else float(out)

    def psi(y):
        y = np.asarray(y, float)
        root = np.power(np.clip(y, 0.0, None), 1.0 / p)
        out = np.where(y < 0.0, -np.inf, np.minimum(root, 1.0))
        return out if out.ndim else float(out)

    def stationary(l):
        # maximiser of l m - m^p over [0, 1]: (l/p)^(1/(p-1)) clipped into
        # [0, 1] (an overflow clips to 1); for p = 1, 1 where l >= 1 else 0
        if p == 1.0:
            return np.where(l >= 1.0, 1.0, 0.0)
        return np.clip(np.power(np.maximum(l, 0.0) / p, 1.0 / (p - 1.0)),
                       0.0, 1.0)

    def polar(l):
        l = np.asarray(l, float)
        mstar = stationary(l)
        out = np.maximum(np.maximum(l * mstar - mstar**p, 0.0), l - 1.0)
        return out if out.ndim else float(out)

    def polar_grad(l):
        out = stationary(np.asarray(l, float))
        return out if out.ndim else float(out)

    return LossPair(
        name="power",
        phi_fn=phi,
        psi_fn=psi,
        polar_fn=polar,
        phi_lipschitz=p,
        phi_convex=True,
        polar_grad=polar_grad if p > 1.0 else None,
        breakpoints=(),
        params={"p": p},
    )


LOSS_BUILDERS = {
    "identity": (make_identity_loss, ()),
    "power": (make_power_loss, ("p",)),
    "call_spread": (make_call_spread_loss, ("lo", "hi")),
    "s_shaped": (make_s_shaped_loss, ()),
}


def make_loss(name: str, **params) -> LossPair:
    return _from_catalogue("loss", LOSS_BUILDERS, name, params)

