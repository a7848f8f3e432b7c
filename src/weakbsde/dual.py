"""Dual side of the threshold problem: adjoint processes and lower bounds.

A dual candidate is a slope l > 0 together with four deterministic step
profiles (u, v) and (p, q) living in the conjugate domains of the cost
driver g and the constraint driver f.  Two multiplicative adjoints follow:

    L_{k+1} = L_k (1 + u_k dt + v_k dW),   L_0 = 1
    A_{k+1} = A_k (1 + p_k dt + q_k dW),   A_0 = l

and the candidate's certificate value is the exact average over all 2^N
paths of

    sum_k L_k gtil(u_k, v_k) dt  -  sum_k A_k ftil(p_k, q_k) dt
         + L_N poltil(A_N / L_N)

where gtil/ftil are the convex/concave conjugates and poltil the polar of
the loss map.  For every m in the root corridor and every candidate,
l m - certificate <= primal value: the certificate search can only ever
tighten a valid lower bound, never break it.  dual_value minimizes the
certificate over the profiles by coordinate descent (an upper bound on
the true infimum, which keeps the inequality safe), and dual_bound
maximizes l m - dual_value(l) over l by golden-section search.

The coordinate scan is batched.  For one profile entry (i, k), every
window value is scored in one vectorized pass against the incumbent's
cached panels: levels up to k are shared, only the moved adjoint is
recomputed from level k on, and only the step-k conjugate is evaluated.
The pass works on the path-prefix tree: sign_matrix keeps step 0 in the
top bit, so a level-j quantity depends only on a path's first j signs and
is constant on each run of 2^(N-j) rows.  The moved adjoint and its
running term are built on those 2^j prefixes, level by level, and each
level is spread into the per-path terms panel by one broadcast.
The scan moves to the argmin, the first one on ties and never a NaN, and
only when it is strictly below the incumbent: the same move as trying
the values in order and keeping each strict improvement.  The incumbent's
own value is never re-scored; the in-order search did so, to no effect,
whenever an earlier window value had already beaten it.

Every score is bit-for-bit the dual_objective value of its candidate, so
the accepted controls, the bounds and the reports do not depend on the
batching.  Both paths build step factors with one expression
(_factors), multiply them left to right (no closed-form expectations),
sum each path's running terms over a contiguous row of length N and
average the 2^N path totals in one mean; dual_objective is the
single-candidate case of the same panels and the same scoring kernel.

A slope's certificate does not depend on the threshold m, so dual_bound
takes a slope -> certificate dict that the searches for several
thresholds of one scenario share: each distinct slope is priced once, and
every trace and bound equals that of an independent search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsde import solve_on_path_tree
from .drivers import (ConjugateDomainError, Driver, LossPair,
                      concave_conjugate, convex_conjugate)
from .lattice import MAX_PATH_LEVELS, Lattice, LatticeError, sign_matrix
from .primal import ValueSurface, attainment_check

POSITIVITY_MARGIN = 1e-6
# (candidate, path) pairs one pass of the coordinate scan holds at most, so
# a pass stays near SCAN_PAIRS * N doubles however deep the lattice is
SCAN_PAIRS = 2**16
# step signs in sign_matrix bit order: 0 is an up step, 1 a down step
UP_DOWN = np.array([1, -1], dtype=np.int8)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class DualFeasibilityError(ValueError):
    pass


@dataclass(frozen=True)
class DualControls:
    """Slope plus per-step conjugate arguments (deterministic in time)."""

    slope: float
    value_drift: np.ndarray       # u_k, argument of the g-conjugate
    value_noise: np.ndarray       # v_k
    threshold_drift: np.ndarray   # p_k, argument of the f-conjugate
    threshold_noise: np.ndarray   # q_k

    def __post_init__(self):
        if not (np.isfinite(self.slope) and self.slope > 0.0):
            raise DualFeasibilityError(f"slope must be positive, got {self.slope!r}")
        arrays = {}
        n = None
        for name in ("value_drift", "value_noise",
                     "threshold_drift", "threshold_noise"):
            arr = np.array(getattr(self, name), dtype=float)  # private copy
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise DualFeasibilityError(f"{name} must be a finite 1-d profile")
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise DualFeasibilityError("all four profiles must share a length")
            arr.flags.writeable = False
            arrays[name] = arr
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @property
    def steps(self) -> int:
        return self.value_drift.size

    @classmethod
    def zeros(cls, lattice: Lattice, slope: float) -> "DualControls":
        z = np.zeros(lattice.steps)
        return cls(slope, z, z.copy(), z.copy(), z.copy())

    def factors_ok(self, lattice: Lattice, margin: float = POSITIVITY_MARGIN) -> bool:
        dt, sq = lattice.dt, lattice.sqrt_dt
        for drift, noise in ((self.value_drift, self.value_noise),
                             (self.threshold_drift, self.threshold_noise)):
            lo = 1.0 + drift * dt - np.abs(noise) * sq
            if np.min(lo) < margin:
                return False
        return True


def _require_factors(lattice: Lattice, dc: DualControls) -> None:
    if dc.steps != lattice.steps:
        raise DualFeasibilityError(
            f"profiles have {dc.steps} steps, lattice has {lattice.steps}"
        )
    if not dc.factors_ok(lattice):
        raise DualFeasibilityError(
            f"an adjoint factor drops below the {POSITIVITY_MARGIN} margin"
        )


def _conjugate_profiles(lattice: Lattice, dc: DualControls, d_f: Driver,
                        d_g: Driver) -> tuple:
    """Per-step conjugate values (ftil_k, gtil_k); raises if any is infinite."""
    gt = np.empty(lattice.steps)
    ft = np.empty(lattice.steps)
    for k in range(lattice.steps):
        gt[k] = float(convex_conjugate(d_g, dc.value_drift[k],
                                       dc.value_noise[k]))
        ft[k] = float(concave_conjugate(d_f, dc.threshold_drift[k],
                                        dc.threshold_noise[k]))
    if not np.all(np.isfinite(gt)):
        raise ConjugateDomainError("value profile leaves the g-conjugate domain")
    if not np.all(np.isfinite(ft)):
        raise ConjugateDomainError(
            "threshold profile leaves the f-conjugate domain")
    return ft, gt


def _factors(drift, noise, signs, dt: float, sq: float):
    """Adjoint step factors 1 + drift dt + noise sign sqrt(dt).

    Every certificate is computed with this one expression order, so a
    factor built for a batch equals the one built for a single candidate.
    """
    return 1.0 + drift * dt + noise * signs * sq


def _certificate_terms(terms, l_end, a_end, dt: float, lp: LossPair):
    """Per-path certificate: running sum over each row of terms, times dt,
    plus L_N poltil(A_N / L_N).  Leading axes (candidates, paths) are free;
    the mean over paths is left to the caller."""
    running = terms.sum(axis=-1) * dt
    ratio = a_end / l_end
    polar = np.asarray(lp.polar(ratio.ravel()), dtype=float)
    return running + l_end * polar.reshape(ratio.shape)


class _Incumbent:
    """One feasible candidate with its adjoint panels over all 2^N paths.

    prefix[0] is L and prefix[1] is A / slope at every level, (2^N, N+1),
    each a left-to-right product of step factors; terms is the running
    integrand L_k gtil_k - A_k ftil_k, (2^N, N).  scan scores every value of
    one profile entry against these panels and move adopts one of them.
    Building one runs every check dual_objective makes, and raises the same.
    """

    def __init__(self, lattice: Lattice, dc: DualControls, d_f: Driver,
                 d_g: Driver):
        if lattice.steps > MAX_PATH_LEVELS:
            raise LatticeError(
                f"path enumeration capped at {MAX_PATH_LEVELS} levels"
            )
        _require_factors(lattice, dc)
        ft, gt = _conjugate_profiles(lattice, dc, d_f, d_g)
        self.lattice = lattice
        self.drivers = (d_g, d_f)
        self.signs = signs = sign_matrix(lattice.steps)
        self.slope = dc.slope
        self.profiles = [np.array(p) for p in (dc.value_drift, dc.value_noise,
                                               dc.threshold_drift,
                                               dc.threshold_noise)]
        self.conj = [gt, ft]
        shape = (signs.shape[0], lattice.steps + 1)
        self.prefix = [np.ones(shape), np.ones(shape)]
        for which in (0, 1):
            self._advance(which, 0)
        self.terms = np.empty((signs.shape[0], lattice.steps))
        self._fill_terms(0)

    # both updates run one level at a time, so that no temporary is larger
    # than a column: the panels themselves are the memory peak

    def _advance(self, which: int, k: int) -> None:
        """Recompute adjoint `which` at levels k+1..N from level k."""
        lat = self.lattice
        drift, noise = self.profiles[2 * which:2 * which + 2]
        panel = self.prefix[which]
        for j in range(k, lat.steps):
            fac = _factors(drift[j], noise[j], self.signs[:, j], lat.dt,
                           lat.sqrt_dt)
            np.multiply(panel[:, j], fac, out=panel[:, j + 1])

    def _fill_terms(self, k: int) -> None:
        l_pan, p_pan = self.prefix
        gt, ft = self.conj
        for j in range(k, self.lattice.steps):
            self.terms[:, j] = l_pan[:, j] * gt[j] \
                - self.slope * p_pan[:, j] * ft[j]

    def value(self, lp: LossPair) -> float:
        l_pan, p_pan = self.prefix
        paths = _certificate_terms(self.terms[None], l_pan[None, :, -1],
                                   self.slope * p_pan[None, :, -1],
                                   self.lattice.dt, lp)
        return float(paths.mean(axis=-1)[0])

    def scan(self, i: int, k: int, vals: np.ndarray, lp: LossPair) -> tuple:
        """Certificates of the candidates that set profile i at step k to
        each of vals, and their step-k conjugates.

        A candidate that fails a feasibility check scores +inf, exactly as
        its own dual_objective call would raise.  The incumbent passed every
        check at every other step, so only step k is tested.  Candidates go
        through in passes of at most SCAN_PAIRS (candidate, path) pairs,
        whole candidates while 2^N fits and path ranges of one beyond.
        """
        lat = self.lattice
        which = i // 2
        drift = np.full(vals.size, self.profiles[2 * which][k])
        noise = np.full(vals.size, self.profiles[2 * which + 1][k])
        (noise if i % 2 else drift)[:] = vals
        conj_fn = concave_conjugate if which else convex_conjugate
        conj = np.asarray(conj_fn(self.drivers[which], drift, noise),
                          dtype=float).reshape(vals.shape)
        low = 1.0 + drift * lat.dt - np.abs(noise) * lat.sqrt_dt
        feasible = np.flatnonzero(np.isfinite(vals)
                                  & (low >= POSITIVITY_MARGIN)
                                  & np.isfinite(conj))
        scores = np.full(vals.size, math.inf)
        n_paths = self.signs.shape[0]
        per_pass = max(1, SCAN_PAIRS // n_paths)
        rows_per_pass = min(n_paths, SCAN_PAIRS)
        for start in range(0, feasible.size, per_pass):
            idx = feasible[start:start + per_pass]
            paths = np.empty((idx.size, n_paths))
            for row in range(0, n_paths, rows_per_pass):
                rows = slice(row, row + rows_per_pass)
                paths[:, rows] = self._pass(which, k, drift[idx, None],
                                            noise[idx, None], conj[idx],
                                            rows, lp)
            scores[idx] = paths.mean(axis=-1)
        return scores, conj

    def _pass(self, which, k, drift, noise, conj, rows, lp):
        """Per-path certificates of candidates (rows of drift, noise, conj)
        that move adjoint `which` at step k, on the path range rows.

        rows is an aligned power-of-two range, and sign_matrix keeps step 0
        in the top bit, so at level j the range holds the prefixes of length
        j as runs of `stride` rows.  The moved adjoint and its running term
        are built once per prefix, level by level, and each level's terms
        are spread over their runs by one broadcast.
        """
        lat = self.lattice
        n = lat.steps
        c = drift.shape[0]
        size = rows.stop - rows.start
        slope = self.slope
        l_pan, p_pan = self.prefix
        gt, ft = self.conj
        terms = np.empty((c, size, n))
        terms[..., :k] = self.terms[rows, :k]
        # per step from k on, the moved adjoint's conjugate and its factor
        # for each sign: the candidates' at step k, (c, 1) and (c, 1, 2),
        # then the incumbent's, a scalar and (2,)
        conjs = [conj[:, None], *self.conj[which][k + 1:]]
        facs = [_factors(drift[..., None], noise[..., None], UP_DOWN,
                         lat.dt, lat.sqrt_dt),
                *_factors(self.profiles[2 * which][k + 1:, None],
                          self.profiles[2 * which + 1][k + 1:, None],
                          UP_DOWN, lat.dt, lat.sqrt_dt)]
        # the moved adjoint at level k is shared by every candidate; from
        # there it takes the candidate factor, then the incumbent's, in the
        # left-to-right order of a full panel
        stride = min(2**(n - k), size)
        moved = self.prefix[which][rows.start:rows.stop:stride, k]
        for j, step_conj, fac in zip(range(k, n), conjs, facs):
            level = slice(rows.start, rows.stop, stride)
            if which == 0:
                term = moved * step_conj - slope * p_pan[level, j] * ft[j]
            else:
                term = l_pan[level, j] * gt[j] - slope * moved * step_conj
            terms.reshape(c, size // stride, stride, n)[..., j] = \
                term[..., None]
            if stride <= 2**(n - j - 1):
                # the range lies inside one level-(j+1) subtree: its sign
                # at step j is the range's bit for that step
                bit = (rows.start >> (n - 1 - j)) & 1
                fac = fac[..., bit:bit + 1]
            else:
                stride //= 2
            moved = (moved[..., None] * fac).reshape(c, -1)
        if which == 0:
            l_end, a_end = moved, slope * p_pan[rows, -1]
        else:
            l_end, a_end = l_pan[rows, -1], slope * moved
        return _certificate_terms(terms, l_end, a_end, lat.dt, lp)

    def move(self, i: int, k: int, val: float, conj: float) -> None:
        """Adopt the scanned candidate that sets profile i at step k to val."""
        self.profiles[i][k] = val
        self.conj[i // 2][k] = conj
        self._advance(i // 2, k)
        self._fill_terms(k)


def dual_objective(lattice: Lattice, dc: DualControls, d_f: Driver,
                   d_g: Driver, lp: LossPair) -> float:
    """Exact certificate value by full path enumeration."""
    return _Incumbent(lattice, dc, d_f, d_g).value(lp)


def _feasible_start(d: Driver, kind: str) -> tuple:
    """A point in the conjugate domain (drift, noise), preferring (0, 0)."""
    conj = convex_conjugate if kind == "convex" else concave_conjugate
    box = d.conjugate_box()
    if np.isfinite(float(conj(d, 0.0, 0.0))):
        return 0.0, 0.0
    for drift in np.linspace(-box.half_width_y, box.half_width_y, 9):
        for noise in np.linspace(-box.half_width_z, box.half_width_z, 9):
            if np.isfinite(float(conj(d, drift, noise))):
                return float(drift), float(noise)
    raise ConjugateDomainError(
        f"no finite conjugate point found for driver {d.name!r}"
    )


def dual_value(lattice: Lattice, l: float, d_f: Driver, d_g: Driver,
               lp: LossPair, rounds: int = 3, grid_points: int = 9,
               budget: int = 200_000) -> dict:
    """Coordinate descent on the four step profiles at fixed slope.

    Starts from the (0,0,0,0) profiles (or the nearest feasible point when
    a conjugate domain misses the origin), scans each coordinate on a
    shrinking window clipped to the conjugate box, and moves to the best
    window point only when it strictly lowers the certificate.  The result
    is an upper bound on the true infimum, so lower bounds built from it
    remain valid.  n_evaluations counts certificates scored, the start
    included; n_accepted counts moves.
    """
    n = lattice.steps
    u0, v0 = _feasible_start(d_g, "convex")
    p0, q0 = _feasible_start(d_f, "concave")
    g_box = d_g.conjugate_box()
    f_box = d_f.conjugate_box()
    widths = [g_box.half_width_y, g_box.half_width_z,
              f_box.half_width_y, f_box.half_width_z]
    axes = [(i, k) for i, w in enumerate(widths) if w > 0.0 for k in range(n)]

    infinite = "certificate infinite at the starting profiles"
    try:
        start = DualControls(l, np.full(n, u0), np.full(n, v0),
                             np.full(n, p0), np.full(n, q0))
        inc = _Incumbent(lattice, start, d_f, d_g)
    except (DualFeasibilityError, ConjugateDomainError) as exc:
        raise ConjugateDomainError(infinite) from exc
    best = inc.value(lp)
    if not math.isfinite(best):
        raise ConjugateDomainError(infinite)
    evaluations = 1
    accepted = 0
    sweep_cost = grid_points * max(1, len(axes))
    if sweep_cost > budget:
        raise DualFeasibilityError(
            f"one sweep needs {sweep_cost} evaluations, budget is {budget}"
        )
    for rnd in range(rounds):
        for i, k in axes:
            width = widths[i] / 4.0**rnd
            center = inc.profiles[i][k]
            window = np.linspace(center - width, center + width, grid_points)
            cand = np.unique(np.clip(window, -widths[i], widths[i]))
            cand = cand[cand != center][:max(0, budget - evaluations)]
            if cand.size == 0:
                continue
            scores, conj = inc.scan(i, k, cand, lp)
            evaluations += cand.size
            # first index on ties, NaN never wins: the same move as trying
            # the values in order and keeping each strict improvement
            j = int(np.argmin(np.where(np.isnan(scores), math.inf, scores)))
            if scores[j] < best:
                best = float(scores[j])
                inc.move(i, k, cand[j], conj[j])
                accepted += 1
    return {
        "value": best,
        "controls": DualControls(l, *inc.profiles),
        "n_evaluations": evaluations,
        "n_accepted": accepted,
    }


def dual_bound(lattice: Lattice, d_f: Driver, d_g: Driver, lp: LossPair,
               m: float, l_max: float = 4.0, tol: float = 1e-6,
               rounds: int = 3, budget: int = 200_000,
               certificates: dict | None = None) -> dict:
    """Golden-section maximization of l*m - certificate(l) over l in (0, l_max].

    The trace records every (l, certificate) pair the search evaluated;
    each one is a standalone valid lower bound, so the reported bound is
    the best value ever seen, not just the final bracket midpoint.

    certificates, when given, maps slope -> certificate and is read and
    filled here.  The certificate does not depend on m, so the searches for
    several thresholds can share one dict; share it only between calls on
    the same lattice, drivers, loss, rounds and budget.
    """
    if not (0.0 < l_max and np.isfinite(l_max)):
        raise DualFeasibilityError("l_max must be positive and finite")
    if certificates is None:
        certificates = {}
    trace = []

    def height(l: float) -> float:
        l = float(l)
        if l not in certificates:
            certificates[l] = float(dual_value(lattice, l, d_f, d_g, lp,
                                               rounds=rounds,
                                               budget=budget)["value"])
        trace.append((l, certificates[l]))
        return l * m - certificates[l]

    lo, hi = 1e-8, float(l_max)
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = height(x1), height(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = height(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = height(x1)
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
    """
    sc = surface.scenario
    lat = sc.lattice
    attained = attainment_check(surface, m0)
    states = attained["states"]          # prefix arrays, level 0..N
    controls = attained["controls"]      # prefix arrays, level 0..N-1
    leaf_cost = np.asarray(sc.loss.phi(states[-1]), dtype=float)
    y_levels, z_levels = solve_on_path_tree(lat, sc.driver_g,
                                            leaf_cost[None, :],
                                            scheme=sc.scheme, with_slopes=True)
    inc = _Incumbent(lat, dc, sc.driver_f, sc.driver_g)
    gts, fts = inc.conj

    res_f = 0.0
    res_g = 0.0
    for k in range(lat.steps):
        t = lat.time_at(k)
        m_k = states[k]
        a_k = controls[k]
        lhs_f = np.asarray(sc.driver_f.fn(t, m_k, a_k), dtype=float)
        rhs_f = dc.threshold_drift[k] * m_k + dc.threshold_noise[k] * a_k \
            - fts[k]
        res_f = max(res_f, float(np.max(np.abs(lhs_f - rhs_f))))
        y_k = np.asarray(y_levels[k][0], dtype=float)
        z_k = np.asarray(z_levels[k][0], dtype=float)
        lhs_g = np.asarray(sc.driver_g.fn(t, y_k, z_k), dtype=float)
        rhs_g = dc.value_drift[k] * y_k + dc.value_noise[k] * z_k - gts[k]
        res_g = max(res_g, float(np.max(np.abs(lhs_g - rhs_g))))

    l_pan, p_pan = inc.prefix
    ratio = dc.slope * p_pan[:, -1] / l_pan[:, -1]
    m_term = states[-1]
    res_terminal = None if sc.loss.polar_grad is None else float(np.max(
        np.abs(m_term - np.asarray(sc.loss.polar_grad(ratio), dtype=float))))
    polar_vals = np.asarray(sc.loss.polar(ratio), dtype=float)
    phi_vals = np.asarray(sc.loss.phi(m_term), dtype=float)
    res_polar = float(np.max(np.abs(phi_vals + polar_vals - m_term * ratio)))
    out = {
        "constraint_fenchel": res_f,
        "terminal_gradient": res_terminal,
        "cost_fenchel": res_g,
        "terminal_polar": res_polar,
    }
    if res_terminal is None:
        out["note"] = "polar gradient unavailable (kinked loss); not computed"
    return out
