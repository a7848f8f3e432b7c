"""Dual side of the threshold problem: adjoint processes and lower bounds.

A dual candidate is a slope l > 0 together with four constants (u, v) and
(p, q) in the conjugate domains of the cost driver g and the constraint
driver f.  Two multiplicative adjoints follow:

    L_{k+1} = L_k (1 + u dt + v dW),   L_0 = 1
    A_{k+1} = A_k (1 + p dt + q dW),   A_0 = l

and the candidate's certificate value is the exact expectation of

    sum_k L_k gtil(u, v) dt  -  sum_k A_k ftil(p, q) dt
         + L_N poltil(A_N / L_N)

where gtil/ftil are the convex/concave conjugates and poltil the polar of
the loss map.  For every m in the root corridor and every candidate,
l m - certificate <= primal value, provided the constraint driver f does
not read y.  The forward threshold step m - f dt + a dW inverts the
implicit f-step, so the A-adjoint's factor 1 + p dt + q dW leaves a
-p f dt^2 term at every step, and only a z-only f confines p to 0.  With
a y-dependent f the bound can lie above V (by 5.0e-4 at m = 0.5 for
linear f with a = 0.1, zero g, power 2 and N = 8), so build_scenario
refuses the dual and the weak_duality check for such an f.  Under that
condition the certificate search can only ever tighten a valid lower
bound, never break it.

The profiles are constant in time, so the step factors commute: L_N and
A_N depend only on the terminal node j (the number of up-moves), and
E L_k = (1 + u dt)^k, E A_k = l (1 + p dt)^k.  The certificate is then a
sum over the N + 1 nodes (_certificates):

    dt sum_k [(1 + u dt)^k gtil - l (1 + p dt)^k ftil]
        + sum_j C(N, j) 2^-N L_N(j) poltil(l A'_N(j) / L_N(j))

    L_N(j) = (1 + u dt + v sqrt(dt))^j (1 + u dt - v sqrt(dt))^(N - j)

and A'_N(j) likewise with (p, q).  It costs O(N) per candidate, with no
path enumeration, at any depth the lattice allows; dual_objective prices
one candidate with it, and the tests hold it to a 2^N path-tree reference.
A candidate that leaves a conjugate domain, or whose lower step factor
1 + drift dt - |noise| sqrt(dt) drops below POSITIVITY_MARGIN, scores
+inf in a search and raises in dual_objective.

dual_value minimizes the certificate over the constants at a fixed
slope: from _feasible_start, each of `rounds` rounds scores the whole
product window over the axes on which the driver has a nonzero
Lipschitz constant w, which bounds that axis of the conjugate domain
(WINDOW_POINTS points per axis, half-width w / 4^r, clipped to [-w, w])
in one _scores call, and moves to the window's first strict minimum;
NaN never wins.  The result is an upper bound on the true
infimum, which keeps the inequality safe.  dual_bound maximizes
l m - dual_value(l) over l.  Where the loss polar is smooth
(LossPair.polar_grad is set) the certificate is smooth in l, and Brent's
bounded method (_brent) reaches a bound at least as high as golden
section's in 7-10 pricings instead of 34.  Where the polar is piecewise
linear the certificate is kinked and Brent's bound can come out up to
about 1e-7 lower, so golden-section search (_golden_section) stays there;
dual_bound picks one of the two.

A slope's certificate does not depend on the threshold m, so the slope
searches of several thresholds can share one slope -> certificate dict.
Each search is a plain optimiser that calls a price(l) function:
dual_bound prices a slope the dict lacks with dual_value, stores it there
and records it in the trace, so runner.dual_bounds runs each threshold's
search once over one shared dict and prices each distinct slope once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drivers import (ConjugateDomainError, Driver, LossPair,
                      concave_conjugate, convex_conjugate)
from .lattice import Lattice
from .primal import ValueSurface, _row_costs, greedy_plan

POSITIVITY_MARGIN = 1e-6
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# 1 - GOLDEN, the fraction of the bracket a golden step of _brent takes
GOLDEN_STEP = 0.5 * (3.0 - math.sqrt(5.0))
# the relative part of _brent's step tolerance
SQRT_EPS = math.sqrt(np.finfo(float).eps)
# the smallest slope a search prices: the dual maximizes over l > 0
SLOPE_FLOOR = 1e-8
# points per axis of a window of the search
WINDOW_POINTS = 9
# bracket width at which a slope search stops (its step tolerance in _brent)
SLOPE_TOL = 1e-6
# the four constants of a candidate, in the order of a candidate column
CONSTANTS = ("value_drift", "value_noise", "threshold_drift",
             "threshold_noise")


class DualFeasibilityError(ValueError):
    pass


@dataclass(frozen=True)
class DualControls:
    """A time-constant dual candidate: the slope and four constants."""

    slope: float
    value_drift: float       # u, argument of the g-conjugate
    value_noise: float       # v
    threshold_drift: float   # p, argument of the f-conjugate
    threshold_noise: float   # q

    def __post_init__(self):
        if not (np.isfinite(self.slope) and self.slope > 0.0):
            raise DualFeasibilityError(f"slope must be positive, got {self.slope!r}")
        for name in CONSTANTS:
            value = getattr(self, name)
            if np.ndim(value) != 0 or not np.isfinite(value):
                raise DualFeasibilityError(f"{name} must be a finite number")
            object.__setattr__(self, name, float(value))   # a private copy

    @classmethod
    def zeros(cls, slope: float) -> "DualControls":
        return cls(slope, 0.0, 0.0, 0.0, 0.0)

    def column(self) -> np.ndarray:
        """The four constants as a (4, 1) candidate column."""
        return np.array([[getattr(self, name)] for name in CONSTANTS])


def _margin_ok(lattice: Lattice, cand: np.ndarray) -> np.ndarray:
    """Per candidate column (u, v, p, q): both adjoints' lower step factors
    1 + drift dt - |noise| sqrt(dt) keep the POSITIVITY_MARGIN, so the
    adjoints stay positive."""
    u, v, p, q = cand
    lowest = 1.0 + np.array([u, p]) * lattice.dt \
        - np.abs([v, q]) * lattice.sqrt_dt
    return np.all(lowest >= POSITIVITY_MARGIN, axis=0)


def _conjugates(cand: np.ndarray, d_f: Driver, d_g: Driver) -> tuple:
    """(gtil(u, v), ftil(p, q)) per candidate column, infinite outside the
    conjugate domains."""
    u, v, p, q = cand
    return (np.asarray(convex_conjugate(d_g, u, v), dtype=float),
            np.asarray(concave_conjugate(d_f, p, q), dtype=float))


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """x^0, ..., x^n of each entry of x, (len(x), n + 1), each power the
    one before times x: plain multiplications, so no power routine's
    rounding enters a certificate."""
    out = np.empty((x.size, n + 1))
    out[:, 0] = 1.0
    out[:, 1:] = x[:, None]
    return np.cumprod(out, axis=-1, out=out)


def _node_adjoint(lattice: Lattice, drift, noise) -> np.ndarray:
    """An adjoint with constant factors at the N + 1 terminal nodes,
    (candidates, N + 1): (1 + drift dt + noise sqrt(dt))^j times
    (1 + drift dt - noise sqrt(dt))^(N - j) at node j."""
    n = lattice.steps
    base = 1.0 + drift * lattice.dt
    jump = noise * lattice.sqrt_dt
    return _powers(base + jump, n) * _powers(base - jump, n)[:, ::-1]


def _certificates(lattice: Lattice, slope: float, cand: np.ndarray, gt,
                  ft, lp: LossPair) -> np.ndarray:
    """The certificate of each candidate column (u, v, p, q) of cand, whose
    conjugates are gt and ft, as the sum over the N + 1 nodes of the
    module docstring.  Every candidate is priced on its own row with
    elementwise products and row sums, so a candidate's bits do not
    depend on the others scored with it."""
    n, dt = lattice.steps, lattice.dt
    u, v, p, q = cand
    growth = [np.sum(_powers(1.0 + drift * dt, n - 1), axis=-1)
              for drift in (u, p)]
    running = growth[0] * gt - slope * growth[1] * ft
    l_end = _node_adjoint(lattice, u, v)
    ratio = slope * _node_adjoint(lattice, p, q) / l_end
    polar = np.asarray(lp.polar(ratio.ravel()), dtype=float)
    weights = np.array([math.comb(n, j) for j in range(n + 1)]) / 2.0**n
    terminal = l_end * polar.reshape(ratio.shape) * weights
    return dt * running + np.sum(terminal, axis=-1)


def _scores(lattice: Lattice, slope: float, cand: np.ndarray, d_f: Driver,
            d_g: Driver, lp: LossPair) -> np.ndarray:
    """_certificates of the candidate columns of cand, +inf for a column
    that leaves a conjugate domain or the positivity margin."""
    gt, ft = _conjugates(cand, d_f, d_g)
    ok = _margin_ok(lattice, cand) & np.isfinite(gt) & np.isfinite(ft)
    scores = np.full(ok.shape, math.inf)
    scores[ok] = _certificates(lattice, slope, cand[:, ok], gt[ok], ft[ok],
                               lp)
    return scores


def _checked(lattice: Lattice, dc: DualControls, d_f: Driver,
             d_g: Driver) -> tuple:
    """dc's candidate column and conjugates, (cand, gt, ft); raises where a
    search would score dc +inf."""
    cand = dc.column()
    if not _margin_ok(lattice, cand)[0]:
        raise DualFeasibilityError(f"an adjoint factor drops below the "
                                   f"{POSITIVITY_MARGIN} margin")
    gt, ft = _conjugates(cand, d_f, d_g)
    if not np.isfinite(gt[0]):
        raise ConjugateDomainError("value constants leave the g-conjugate "
                                   "domain")
    if not np.isfinite(ft[0]):
        raise ConjugateDomainError("threshold constants leave the "
                                   "f-conjugate domain")
    return cand, gt, ft


def dual_objective(lattice: Lattice, dc: DualControls, d_f: Driver,
                   d_g: Driver, lp: LossPair) -> float:
    """Exact certificate value of one candidate, on the N + 1 nodes."""
    cand, gt, ft = _checked(lattice, dc, d_f, d_g)
    return float(_certificates(lattice, dc.slope, cand, gt, ft, lp)[0])


def _feasible_start(d: Driver, kind: str) -> tuple:
    """A point in the conjugate domain (drift, noise), preferring (0, 0)."""
    conj = convex_conjugate if kind == "convex" else concave_conjugate
    if np.isfinite(float(conj(d, 0.0, 0.0))):
        return 0.0, 0.0
    for drift in np.linspace(-d.lipschitz_y, d.lipschitz_y, 9):
        for noise in np.linspace(-d.lipschitz_z, d.lipschitz_z, 9):
            if np.isfinite(float(conj(d, drift, noise))):
                return float(drift), float(noise)
    raise ConjugateDomainError(
        f"no finite conjugate point found for driver {d.name!r}"
    )


def dual_value(lattice: Lattice, l: float, d_f: Driver, d_g: Driver,
               lp: LossPair, rounds: int = 3) -> dict:
    """Window search over the four constants at fixed slope.

    Starts from _feasible_start on both conjugate domains.  Round r scores
    the product of one window per axis whose driver has a nonzero
    Lipschitz constant w on it (WINDOW_POINTS points on [c - w / 4^r,
    c + w / 4^r] around the incumbent's c, clipped to [-w, w]), leaving
    out the incumbent itself, and moves to the first window point of least
    score when that score is strictly below the incumbent's; a NaN score
    never wins.  The search stops early once a window holds nothing but the
    incumbent.  The result is an upper bound on the true infimum, so lower
    bounds built from it remain valid.  n_evaluations counts certificates
    scored, the start included; n_accepted counts moves.
    """
    best_at = np.array([*_feasible_start(d_g, "convex"),
                        *_feasible_start(d_f, "concave")])
    widths = np.array([d_g.lipschitz_y, d_g.lipschitz_z,
                       d_f.lipschitz_y, d_f.lipschitz_z])
    axes = np.flatnonzero(widths > 0.0)
    best = _scores(lattice, l, best_at[:, None], d_f, d_g, lp)[0]
    if not np.isfinite(best):
        raise ConjugateDomainError("certificate infinite at the starting "
                                   "constants")
    evaluations, accepted = 1, 0
    for rnd in range(rounds if axes.size else 0):
        half = widths[axes] / 4.0**rnd
        windows = [np.unique(np.clip(np.linspace(c - h, c + h, WINDOW_POINTS),
                                     -w, w))
                   for c, h, w in zip(best_at[axes], half, widths[axes])]
        cand = np.repeat(best_at[:, None], math.prod(map(len, windows)),
                         axis=1)
        cand[axes] = [x.ravel() for x in np.meshgrid(*windows, indexing="ij")]
        cand = cand[:, np.any(cand != best_at[:, None], axis=0)]
        if not cand.size:
            break   # the window has shrunk onto the incumbent's bits
        scores = _scores(lattice, l, cand, d_f, d_g, lp)
        evaluations += scores.size
        won = int(np.argmin(np.where(np.isnan(scores), math.inf, scores)))
        if scores[won] < best:
            best, best_at = scores[won], cand[:, won]
            accepted += 1
    return {
        "value": float(best),
        "controls": DualControls(l, *best_at),
        "n_evaluations": evaluations,
        "n_accepted": accepted,
    }


def _golden_section(price, m: float, lo: float, hi: float, tol: float):
    """Golden-section maximization of l*m - price(l) over [lo, hi]."""
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1 = x1 * m - price(x1)
    f2 = x2 * m - price(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = x2 * m - price(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = x1 * m - price(x1)


def _brent(price, m: float, a: float, b: float, tol: float):
    """Brent's bounded minimization of price(l) - l*m over [a, b]
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 5).

    x is the best slope so far, w the second best and v the one before w.
    A step goes to the vertex of the parabola through the three when it
    lies inside the bracket and moves less than half the step before last,
    else it takes a golden-section step into the larger side of the
    bracket; no step is shorter than tol1 = SQRT_EPS |x| + tol / 3.  The
    search stops once the bracket lies within 2 tol1 of x.
    """
    x = w = v = a + GOLDEN_STEP * (b - a)
    fx = fw = fv = price(x) - x * m
    d = e = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol1 = SQRT_EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if x <= mid else -tol1
        if golden:
            e = (a if x >= mid else b) - x
            d = GOLDEN_STEP * e
        u = x - max(-d, tol1) if d < 0.0 else x + max(d, tol1)
        fu = price(u) - u * m
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def dual_bound(lattice: Lattice, d_f: Driver, d_g: Driver, lp: LossPair,
               m: float, l_max: float = 4.0, rounds: int = 3,
               certificates: dict | None = None) -> dict:
    """Maximization of l*m - certificate(l) over l in [SLOPE_FLOOR, l_max]:
    Brent's method where the loss polar is smooth (lp.polar_grad is set),
    golden section where it is piecewise linear; the module docstring says
    why both stay.

    The trace records every (l, certificate) pair the search evaluated;
    each one is a standalone valid lower bound, so the reported bound is
    the best value ever seen, not just the final bracket midpoint.

    certificates is a slope -> certificate dict shared by searches on the
    same lattice, drivers, loss and rounds; a slope it lacks is priced with
    dual_value and added to it in place.  Without it the search starts an
    empty one of its own.
    """
    if not SLOPE_FLOOR < l_max < math.inf:
        raise DualFeasibilityError(
            f"l_max must be finite and above {SLOPE_FLOOR}, got {l_max!r}")
    if certificates is None:
        certificates = {}
    trace = []

    def price(l):
        if l not in certificates:
            certificates[l] = dual_value(lattice, l, d_f, d_g, lp,
                                         rounds=rounds)["value"]
        trace.append((l, certificates[l]))
        return certificates[l]

    search = _golden_section if lp.polar_grad is None else _brent
    search(price, m, SLOPE_FLOOR, float(l_max), SLOPE_TOL)
    best_idx = max(range(len(trace)), key=lambda i: trace[i][0] * m - trace[i][1])
    l_star, cert = trace[best_idx]
    return {
        "l_star": l_star,
        "bound": l_star * m - cert,
        "certificate": cert,
        "trace": trace,
        "n_slope_evaluations": len(trace),
    }


def first_order_residuals(surface: ValueSurface, dc: DualControls,
                          m0: float) -> dict:
    """Max defect of the four optimality equations along the greedy optimum.

    Residuals: (1) Fenchel equality of the constraint driver on the
    threshold pair, (2) terminal threshold equals the polar gradient of the
    adjoint ratio, (3) Fenchel equality of the cost driver on the value
    pair, (4) exact polar equality at the terminal.  The second residual is
    reported as None when the polar has no usable gradient.

    The greedy optimum is m0's greedy_plan: its state, control, value and
    slope at a level are functions of the level's row, so (1) and (3) are
    maxima over the distinct rows, equal to the maxima over the path
    prefixes.  The terminal adjoint ratio is a function of the terminal
    node, so (2) and (4) are maxima over the (terminal row, node) pairs
    the 2^N paths end on, carried down the plan as a reach mask.
    """
    sc = surface.scenario
    lat = sc.lattice
    plan = greedy_plan(surface, [m0])
    y_levels, z_levels = _row_costs(surface, plan)
    cand, gt, ft = _checked(lat, dc, sc.driver_f, sc.driver_g)
    u, v, p, q = cand

    res_f, res_g = [0.0], [0.0]
    for k in range(lat.steps):
        t = lat.time_at(k)
        m_k, a_k = plan.states[k], plan.controls[k]
        lhs_f = np.asarray(sc.driver_f.fn(t, m_k, a_k), dtype=float)
        rhs_f = dc.threshold_drift * m_k + dc.threshold_noise * a_k - ft[0]
        res_f.append(np.max(np.abs(lhs_f - rhs_f)))
        y_k, z_k = y_levels[k], z_levels[k]
        lhs_g = np.asarray(sc.driver_g.fn(t, y_k, z_k), dtype=float)
        rhs_g = dc.value_drift * y_k + dc.value_noise * z_k - gt[0]
        res_g.append(np.max(np.abs(lhs_g - rhs_g)))

    node_ratio = (dc.slope * _node_adjoint(lat, p, q)
                  / _node_adjoint(lat, u, v))[0]
    # the (row, node j) pairs some path reaches, level by level: the root
    # row at node 0, a row's up child at j + 1 and its down child at j
    row, j = plan.roots, np.zeros_like(plan.roots)
    for k, children in enumerate(plan.children):
        reach = np.zeros((plan.states[k + 1].size, k + 2), dtype=bool)
        reach[children[row, 0], j + 1] = True
        reach[children[row, 1], j] = True
        row, j = np.nonzero(reach)
    m_term = plan.states[-1][row]
    ratio = node_ratio[j]
    res_terminal = None if sc.loss.polar_grad is None else float(np.max(
        np.abs(m_term - np.asarray(sc.loss.polar_grad(ratio), dtype=float))))
    polar_vals = np.asarray(sc.loss.polar(ratio), dtype=float)
    phi_vals = np.asarray(sc.loss.phi(m_term), dtype=float)
    res_polar = float(np.max(np.abs(phi_vals + polar_vals - m_term * ratio)))
    out = {
        "constraint_fenchel": float(np.max(res_f)),
        "terminal_gradient": res_terminal,
        "cost_fenchel": float(np.max(res_g)),
        "terminal_polar": res_polar,
    }
    if res_terminal is None:
        out["note"] = "polar gradient unavailable (kinked loss); not computed"
    return out
