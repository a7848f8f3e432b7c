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

Every catalogue driver reads z alone or is affine, so each of its
conjugates is one segment form (_segment): finite only where the first
argument equals the drift coefficient and the second, in units of a scale
(kappa for the z-only drivers), lies in [lo, hi], with a value function of
that unit coordinate there (0 for zero, linear, abs_z and neg_abs_z).
Effective domains always lie in the box |first| <= lipschitz_y,
|second| <= lipschitz_z of the driver's Lipschitz constants, and the dual
search reads its windows off those two fields.

Every transform takes numbers or arrays of any shape.  Its entry point
(concave_conjugate, convex_conjugate, LossPair.phi, .psi and .polar, and
the power loss's polar_grad) applies the one scalar rule, _shaped: an
array argument keeps its shape, and a scalar argument gives a Python
float.
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


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def _shaped(out):
    """The scalar rule of every transform: out as an array, or as a Python
    float when it is 0-d."""
    out = np.asarray(out)
    return out if out.ndim else float(out)

def concave_conjugate(d: Driver, p, q):
    """inf_(x,pi) (x p + pi q - d); -inf outside the effective domain."""
    if d.concave_conjugate_fn is None:
        raise DriverShapeError(
            f"driver {d.name!r} has no closed-form concave conjugate"
        )
    return _shaped(d.concave_conjugate_fn(p, q))


def convex_conjugate(d: Driver, u, v):
    """sup_(y,z) (y u + z v - d); +inf outside the effective domain."""
    if d.convex_conjugate_fn is None:
        raise DriverShapeError(
            f"driver {d.name!r} has no closed-form convex conjugate"
        )
    return _shaped(d.convex_conjugate_fn(u, v))


# ---------------------------------------------------------------------------
# driver catalogue
# ---------------------------------------------------------------------------

def _segment(fill: float, lo: float, hi: float, value=None,
             drift: float = 0.0, scale: float = 1.0):
    """Conjugate (p, q) -> value(q / scale) where p == drift and q / scale
    lies in [lo, hi] (0 there without a value function), fill elsewhere.
    Every domain test is taken on the quotient: |q| <= kappa holds exactly
    where q / kappa lies in [-1, 1], and softplus_z's v / kappa >= 0 also
    holds at a negative v whose quotient rounds to -0.0."""
    def conj(p, q):
        s = np.asarray(q, float) / scale
        inside = (np.asarray(p, float) == drift) & (s >= lo) & (s <= hi)
        return np.where(inside, 0.0 if value is None else value(s), fill)
    return conj


def _z_only(kappa, **params) -> tuple:
    """kappa as a float, checked positive, and the Driver fields of a
    driver that reads z alone with Lipschitz constant kappa."""
    kappa = float(kappa)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return kappa, {"lipschitz_y": 0.0, "lipschitz_z": kappa,
                   "params": {"kappa": kappa, **params}}


def make_zero() -> Driver:
    return Driver(
        name="zero",
        fn=lambda t, y, z: 0.0 * (np.asarray(y, float) + np.asarray(z, float)),
        lipschitz_y=0.0,
        lipschitz_z=0.0,
        concave_conjugate_fn=_segment(-math.inf, 0.0, 0.0),
        convex_conjugate_fn=_segment(math.inf, 0.0, 0.0),
    )


def make_linear(a: float, b: float) -> Driver:
    a, b = float(a), float(b)
    return Driver(
        name="linear",
        fn=lambda t, y, z: a * np.asarray(y, float) + b * np.asarray(z, float),
        lipschitz_y=abs(a),
        lipschitz_z=abs(b),
        concave_conjugate_fn=_segment(-math.inf, b, b, drift=a),
        convex_conjugate_fn=_segment(math.inf, b, b, drift=a),
        params={"a": a, "b": b},
    )


def make_abs_z(kappa: float) -> Driver:
    """Convex kink driver +kappa*|z|."""
    kappa, fields = _z_only(kappa)
    return Driver(
        name="abs_z",
        fn=lambda t, y, z: kappa * np.abs(np.asarray(z, float)),
        convex_conjugate_fn=_segment(math.inf, -1.0, 1.0, scale=kappa),
        **fields,
    )


def make_neg_abs_z(kappa: float) -> Driver:
    """Concave kink driver -kappa*|z|."""
    kappa, fields = _z_only(kappa)
    return Driver(
        name="neg_abs_z",
        fn=lambda t, y, z: -kappa * np.abs(np.asarray(z, float)),
        concave_conjugate_fn=_segment(-math.inf, -1.0, 1.0, scale=kappa),
        **fields,
    )


def _logcosh(z):
    z = np.asarray(z, float)
    return np.abs(z) + np.log1p(np.exp(-2.0 * np.abs(z))) - LN2


def _atanh_entropy(u):
    """H(u) = u*atanh(u) + log(1 - u^2)/2, extended by ln 2 at |u| = 1."""
    inner = np.clip(u, -1.0 + 1e-15, 1.0 - 1e-15)
    h = inner * np.arctanh(inner) + 0.5 * np.log1p(-inner * inner)
    return np.where(np.abs(u) >= 1.0 - 1e-12, LN2, h)


def _binary_entropy(s):
    """s ln s + (1 - s) ln(1 - s), extended by 0 at s <= 0 and s >= 1."""
    sc = np.clip(s, 1e-15, 1.0 - 1e-15)
    ent = sc * np.log(sc) + (1.0 - sc) * np.log1p(-sc)
    return np.where((s <= 0.0) | (s >= 1.0), 0.0, ent)


def make_logcosh_z(kappa: float, sign: int = 1) -> Driver:
    """Smooth soft-|z| driver sign * kappa * log cosh(z) (Lipschitz kappa);
    concave with sign -1, convex with sign +1."""
    kappa, fields = _z_only(kappa, sign=sign)
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    conj = _segment(sign * math.inf, -1.0, 1.0, scale=kappa,
                    value=lambda s: sign * kappa * _atanh_entropy(s))
    return Driver(
        name="logcosh_z",
        fn=lambda t, y, z: sign * kappa * _logcosh(z),
        concave_conjugate_fn=conj if sign == -1 else None,
        convex_conjugate_fn=conj if sign == 1 else None,
        **fields,
    )


def make_softplus_z(kappa: float) -> Driver:
    """Convex smooth driver kappa * (softplus(z) - ln 2); slope in (0, kappa)."""
    kappa, fields = _z_only(kappa)
    return Driver(
        name="softplus_z",
        fn=lambda t, y, z: kappa * (np.logaddexp(0.0, np.asarray(z, float))
                                    - LN2),
        convex_conjugate_fn=_segment(
            math.inf, 0.0, 1.0, scale=kappa,
            value=lambda s: kappa * (_binary_entropy(s) + LN2)),
        **fields,
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
    phi_fn, psi_fn and polar_fn take a float array; the methods phi, psi
    and polar take anything and keep the scalar rule (_shaped).
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
        return _shaped(self.phi_fn(np.asarray(m, float)))

    def psi(self, y):
        return _shaped(self.psi_fn(np.asarray(y, float)))

    def polar(self, l):
        return _shaped(self.polar_fn(np.asarray(l, float)))


def _sup_inverse(knots_m: np.ndarray, knots_v: np.ndarray, y):
    """sup{m : phi(m) <= y} for a piecewise-linear nondecreasing phi, at
    each entry of a float array y of any shape."""
    idx = np.searchsorted(knots_v, y, side="right") - 1
    # idx = largest knot index with value <= y; segment idx holds the crossing
    # because y < v[idx+1] forces that segment to rise
    i = np.clip(idx, 0, len(knots_m) - 2)
    rise = knots_v[i + 1] - knots_v[i]
    run = knots_m[i + 1] - knots_m[i]
    frac = np.clip((y - knots_v[i]) / np.where(rise > 0.0, rise, 1.0), 0.0, 1.0)
    out = np.where(rise > 0.0, knots_m[i] + frac * run, knots_m[i])
    out = np.where((idx >= len(knots_m) - 1) | (y >= knots_v[-1]),
                   knots_m[-1], out)
    # below phi(0) (in particular any y < 0) no threshold is attainable
    return np.where(idx < 0, -np.inf, out)


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

    def polar(l):
        # sup over [0,1] of a piecewise-linear function is attained at a knot
        return np.max(l[..., None] * km - kv, axis=-1)

    return LossPair(
        name=name,
        phi_fn=lambda m: np.interp(m, km, kv),
        psi_fn=lambda y: _sup_inverse(km, kv, y),
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

    def psi(y):
        root = np.power(np.clip(y, 0.0, None), 1.0 / p)
        return np.where(y < 0.0, -np.inf, np.minimum(root, 1.0))

    def stationary(l):
        # maximiser of l m - m^p over [0, 1]: (l/p)^(1/(p-1)) clipped into
        # [0, 1] (an overflow clips to 1); for p = 1, 1 where l >= 1 else 0
        if p == 1.0:
            return np.where(l >= 1.0, 1.0, 0.0)
        return np.clip(np.power(np.maximum(l, 0.0) / p, 1.0 / (p - 1.0)),
                       0.0, 1.0)

    def polar(l):
        mstar = stationary(l)
        return np.maximum(np.maximum(l * mstar - mstar**p, 0.0), l - 1.0)

    def polar_grad(l):
        return _shaped(stationary(np.asarray(l, float)))

    return LossPair(
        name="power",
        phi_fn=lambda m: np.power(np.clip(m, 0.0, 1.0), p),
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

