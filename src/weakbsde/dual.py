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
l m - certificate <= primal value, provided the constraint driver f does
not read y.  The forward threshold step m - f dt + a dW inverts the
implicit f-step, so the A-adjoint's factor 1 + p dt + q dW leaves a
-p f dt^2 term at every step, and only a z-only f confines p to 0.  With
a y-dependent f the bound can lie above V (by 5.0e-4 at m = 0.5 for
linear f with a = 0.1, zero g, power 2 and N = 8), so build_scenario
refuses the dual and the weak_duality check for such an f.  Under that
condition the certificate search can only ever tighten a valid lower
bound, never break it.  dual_value minimizes the
certificate over the profiles by coordinate descent (an upper bound on
the true infimum, which keeps the inequality safe), and dual_bound
maximizes l m - dual_value(l) over l.  Where the loss polar is smooth
(LossPair.polar_grad is set) the certificate is smooth in l, and Brent's
bounded method (_brent) reaches a bound at least as high as golden
section's in 7-10 pricings instead of 34.  Where the polar is piecewise
linear the certificate is kinked and Brent's bound can come out up to
about 1e-7 lower, so golden-section search (_golden_section) stays there;
_slope_search picks one of the two.

Slopes are priced in batches.  The incumbent (_Incumbent) holds one
candidate per slope, on a leading slope axis of every array, and
dual_values runs the coordinate descents of all of them at once:
dual_value is its one-slope case.  A step of the descent builds each
slope's window (clipped, deduplicated, without the centre and cut to the
slope's remaining budget, so the windows are ragged), concatenates the
windows with an owner index, scores them in one scan, and moves each
slope to its own argmin, the first one on ties and never a NaN, only when
it is strictly below that slope's incumbent.  Each slope keeps its own
evaluation count, move count and budget, so a batch returns, slope for
slope, what dual_value returns alone.  The incumbent's own value is never
re-scored.

A slope's certificate does not depend on the threshold m, so each slope
search is written once, as a routine that yields the next slope it wants
priced and is sent its certificate.  lockstep_certificates, the one
pricing path, drives one search per threshold in lockstep and prices the
distinct new slopes of each step in one dual_values call; dual_bound
replays one search on the slope -> certificate dict it returns.  A batch
holds at most SCAN_PAIRS // 2^N slopes (32 at N = 8, one from N = 13 on),
and a scan scores its candidates in passes of at most SCAN_PAIRS
(candidate, path) pairs, so every per-scan array stays at 64 KB, below
glibc's 128 KB mmap threshold, however many thresholds a scenario prices;
the path totals a scan averages go into a buffer the incumbent keeps
across scans.

Everything works on the path-prefix tree: sign_matrix keeps step 0 in the
top bit, so a level-j quantity depends only on a path's first j signs and
is held once per length-j prefix, 2^j values.  The incumbent keeps each
adjoint and running term that way, one array per level.  One builder,
_Incumbent._climb, steps a moved adjoint up from level k on a path range
and yields each level's running term and next adjoint level.  An accepted
move climbs the whole range, for every slope that moved at that
coordinate, and stores what it yields; a scan pass climbs its range with
the candidates' step-k values and sums each path's terms on the prefixes
(_path_sums), so no (candidate, path, step) panel exists: a pass's largest
arrays are (candidate, path).  From N = 14 on a single slope's top levels
exceed the mmap threshold, so there an accepted move still allocates above
it.

Every score is bit-for-bit the dual_objective value of its candidate, so
the accepted controls, the bounds and the reports do not depend on the
batching.  Every path multiplies its step factors, built with one
expression (_factors), left to right (no closed-form expectations), sums
its running terms in the order ndarray.sum takes over a contiguous row of
N (numpy's pairwise sum, which _path_sums reproduces) and the 2^N path
totals are averaged in one mean; dual_objective is the single-candidate
case of the same levels and the same scoring kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drivers import (ConjugateDomainError, Driver, LossPair,
                      concave_conjugate, convex_conjugate)
from .lattice import MAX_PATH_LEVELS, Lattice, LatticeError, sign_matrix
from .primal import ValueSurface, _row_costs, greedy_plan

POSITIVITY_MARGIN = 1e-6
# (candidate, path) pairs one pass of the coordinate scan holds at most, and
# (slope, path) pairs one batch of slopes holds at most: 2^13 doubles, 64 KB,
# half glibc's 128 KB mmap threshold, so a pass's arrays and the batch's
# levels stay below it however many slopes or thresholds a scenario has
SCAN_PAIRS = 2**13
# the two step signs in sign_matrix order: an up step, then a down step
UP_DOWN = sign_matrix(1)[:, 0]
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# 1 - GOLDEN, the fraction of the bracket a golden step of _brent takes
GOLDEN_STEP = 0.5 * (3.0 - math.sqrt(5.0))
# the relative part of _brent's step tolerance
SQRT_EPS = math.sqrt(np.finfo(float).eps)
# the smallest slope a search prices: the dual maximizes over l > 0
SLOPE_FLOOR = 1e-8
# points of a coordinate window of the descent
WINDOW_POINTS = 9
# most certificates one slope's descent scores, its start included
DESCENT_BUDGET = 200_000
# bracket width at which a slope search stops (its step tolerance in _brent)
SLOPE_TOL = 1e-6


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

    def factors_ok(self, lattice: Lattice) -> bool:
        return not any(
            np.min(_lowest_factor(lattice, drift, noise)) < POSITIVITY_MARGIN
            for drift, noise in ((self.value_drift, self.value_noise),
                                 (self.threshold_drift, self.threshold_noise)))


def _lowest_factor(lattice: Lattice, drift, noise):
    """The smaller of an adjoint's two step factors, 1 + drift dt -
    |noise| sqrt(dt); the adjoint stays positive while it is positive."""
    return 1.0 + drift * lattice.dt - np.abs(noise) * lattice.sqrt_dt


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


def _add(x, y):
    """x + y for two quantities on the prefix tree, (rows, prefixes) each:
    the one on fewer prefixes is spread over the other's.  Both operand
    orders give the same bits, since floating-point addition commutes."""
    if x.shape[-1] > y.shape[-1]:
        x, y = y, x
    rows, width = x.shape
    return (x[..., None] + y.reshape(rows, width, -1)).reshape(rows, -1)


def _children(x, fac):
    """x on the two children of each prefix, up then down: x * fac[:, 0]
    and x * fac[:, 1], interleaved; x is (rows, prefixes), fac (rows, 2)."""
    out = np.empty(x.shape + (2,))
    np.multiply(x, fac[:, :1], out=out[..., 0])
    np.multiply(x, fac[:, 1:], out=out[..., 1])
    return out.reshape(x.shape[0], -1)


def _spans(rows: slice, n: int) -> list:
    """The prefixes of the aligned power-of-two path range rows at each
    level 0..n, one slice per level."""
    size = rows.stop - rows.start
    return [slice(rows.start >> s, (rows.start >> s) + max(1, size >> s))
            for s in range(n, -1, -1)]


def _ordered(which: int, moved, other):
    """(L, A / slope), given adjoint `which` and the other one."""
    return ((moved, other), (other, moved))[which]


def _path_sums(cols):
    """Each path's sum of its running terms; cols[j] is step j's term on
    the level-j prefixes, and the sums live on the prefixes of the last.

    The sums are bit for bit those of ndarray.sum over a path's contiguous
    row of terms, which numpy computes as 0.0 plus its pairwise sum:
    sequential below eight terms, else eight interleaved partial sums
    combined as a tree, then the rest in order.  On the prefix tree every
    partial sum is formed once per prefix it depends on.
    """
    n = len(cols)
    if n < 8:
        total = cols[0]
        for col in cols[1:]:
            total = _add(total, col)
    else:
        part = list(cols[:8])
        rest = n - n % 8
        for i in range(8, rest, 8):
            part = [_add(a, col) for a, col in zip(part, cols[i:i + 8])]
        total = _add(_add(_add(part[0], part[1]), _add(part[2], part[3])),
                     _add(_add(part[4], part[5]), _add(part[6], part[7])))
        for col in cols[rest:]:
            total = _add(total, col)
    return 0.0 + total


def _certificate_terms(cols, l_end, a_end, dt: float, lp: LossPair):
    """Per-path certificate: the path's running sum (_path_sums of cols)
    times dt, plus L_N poltil(A_N / L_N); l_end and a_end are (rows,
    paths), and the mean over paths is left to the caller."""
    ratio = a_end / l_end
    polar = np.asarray(lp.polar(ratio.ravel()), dtype=float)
    return _add(_path_sums(cols) * dt, l_end * polar.reshape(ratio.shape))


class _Incumbent:
    """One feasible candidate per slope, with its adjoints and running terms
    on the path-prefix tree; the leading axis of every array is the slope.

    A level-j quantity depends only on a path's first j signs, so it is
    held once per length-j prefix, in sign_matrix order (prefix p has
    children 2p, up, and 2p + 1, down).  adjoints[0][j] is L and
    adjoints[1][j] is A / slope at level j, (S, 2^j), each a left-to-right
    product of step factors; terms[j] is the running integrand
    L_j gtil_j - A_j ftil_j, (S, 2^j); profiles and conj hold each slope's
    four step profiles and two conjugate profiles, (S, N).  scan scores
    candidate values of one profile entry, each against its own slope's
    levels, and move adopts one candidate for each of several slopes.
    Building one runs every check dual_objective makes, and raises the same.
    """

    def __init__(self, lattice: Lattice, controls, d_f: Driver, d_g: Driver):
        if lattice.steps > MAX_PATH_LEVELS:
            raise LatticeError(
                f"path enumeration capped at {MAX_PATH_LEVELS} levels"
            )
        conj = []
        for dc in controls:
            if dc.steps != lattice.steps:
                raise DualFeasibilityError(f"profiles have {dc.steps} steps, "
                                           f"lattice has {lattice.steps}")
            if not dc.factors_ok(lattice):
                raise DualFeasibilityError(f"an adjoint factor drops below "
                                           f"the {POSITIVITY_MARGIN} margin")
            conj.append(_conjugate_profiles(lattice, dc, d_f, d_g))
        n = lattice.steps
        self.lattice = lattice
        self.drivers = (d_g, d_f)
        self.slopes = np.array([dc.slope for dc in controls], dtype=float)
        self.profiles = [np.array([getattr(dc, name) for dc in controls])
                         for name in ("value_drift", "value_noise",
                                      "threshold_drift", "threshold_noise")]
        self.conj = [np.array([gt for _, gt in conj]),
                     np.array([ft for ft, _ in conj])]
        s = len(controls)
        self.adjoints = [[np.ones((s, 2**j)) for j in range(n + 1)]
                         for _ in (0, 1)]
        self.terms = [np.empty((s, 2**j)) for j in range(n)]
        # the path totals of one scan pass, (candidate, path), kept across
        # scans: from N = 14 on one candidate's row exceeds the mmap threshold
        self.per_pass = max(1, SCAN_PAIRS // 2**n)
        self.paths = np.empty(self.per_pass * 2**n)
        # A first (its running terms are provisional while L is all ones),
        # then L, which rebuilds the running terms from both
        every = np.arange(s)
        for which in (1, 0):
            self._rebuild(which, 0, every)

    def _rebuild(self, which: int, k: int, slopes: np.ndarray) -> None:
        """Rebuild, for the given slopes, adjoint `which` at levels k+1..N
        from level k, and the running terms from level k."""
        levels = self.adjoints[which]
        n = self.lattice.steps
        climb = self._climb(which, k, slopes, _spans(slice(0, 2**n), n))
        for j, (term, level) in enumerate(climb, k):
            self.terms[j][slopes] = term
            levels[j + 1][slopes] = level

    def _climb(self, which: int, k: int, owner: np.ndarray, span: list,
               step: tuple | None = None):
        """Adjoint `which` of slope owner[r] for each row r, stepped up from
        level k on the path range whose prefixes at each level are span
        (_spans): yields, for j = k..N-1, the running term at level j and
        the adjoint at level j+1, each on the range's prefixes.  Every level
        is the one below times a step factor, left to right as the
        incumbent's are.  step, when given, holds each row's (drift, noise,
        conjugate) at step k in place of its slope's."""
        lat = self.lattice
        n = lat.steps
        drift, noise = (p[owner, k:, None]
                        for p in self.profiles[2 * which:2 * which + 2])
        conj = [c[owner, k:, None] for c in self.conj]   # gathered copies
        if step is not None:
            drift[:, 0, 0], noise[:, 0, 0], conj[which][:, 0, 0] = step
        gt, ft = conj
        facs = _factors(drift, noise, UP_DOWN, lat.dt, lat.sqrt_dt)
        slope = self.slopes[owner, None]
        other = self.adjoints[1 - which]
        level = self.adjoints[which][k][owner, span[k]]
        for j in range(k, n):
            at = j - k
            l, a = _ordered(which, level, other[j][owner, span[j]])
            term = l * gt[:, at] - slope * a * ft[:, at]
            if span[j + 1].stop - span[j + 1].start == 1:
                # the range lies inside one level-(j+1) subtree, whose sign
                # at step j is the last bit of its prefix
                bit = span[j + 1].start & 1
                level = level * facs[:, at, bit:bit + 1]
            else:
                level = _children(level, facs[:, at])
            yield term, level

    def value(self, lp: LossPair) -> np.ndarray:
        """Each slope's certificate, (S,)."""
        l_end, p_end = (levels[-1] for levels in self.adjoints)
        paths = _certificate_terms(self.terms, l_end,
                                   self.slopes[:, None] * p_end,
                                   self.lattice.dt, lp)
        return paths.mean(axis=-1)

    def scan(self, i: int, k: int, vals: np.ndarray, owner: np.ndarray,
             lp: LossPair) -> tuple:
        """Certificates of the candidates that set profile i at step k of
        slope owner[c] to vals[c], and their step-k conjugates.

        A candidate that fails a feasibility check scores +inf, exactly as
        its own dual_objective call would raise.  The incumbent passed
        every check at every other step, so only step k is tested.
        Candidates go through in passes of at most SCAN_PAIRS (candidate,
        path) pairs, whole candidates while 2^N fits and path ranges of one
        beyond.
        """
        lat = self.lattice
        which = i // 2
        drift = self.profiles[2 * which][owner, k]
        noise = self.profiles[2 * which + 1][owner, k]
        (noise if i % 2 else drift)[:] = vals
        conj_fn = concave_conjugate if which else convex_conjugate
        conj = np.asarray(conj_fn(self.drivers[which], drift, noise),
                          dtype=float).reshape(vals.shape)
        feasible = np.flatnonzero(np.isfinite(vals)
                                  & (_lowest_factor(lat, drift, noise)
                                     >= POSITIVITY_MARGIN)
                                  & np.isfinite(conj))
        scores = np.full(vals.size, math.inf)
        n_paths = 2**lat.steps
        rows_per_pass = min(n_paths, SCAN_PAIRS)
        for start in range(0, feasible.size, self.per_pass):
            idx = feasible[start:start + self.per_pass]
            paths = self.paths[:idx.size * n_paths].reshape(idx.size, n_paths)
            for row in range(0, n_paths, rows_per_pass):
                rows = slice(row, row + rows_per_pass)
                paths[:, rows] = self._pass(which, k, owner[idx], drift[idx],
                                            noise[idx], conj[idx], rows, lp)
            scores[idx] = paths.mean(axis=-1)
        return scores, conj

    def _pass(self, which, k, owner, drift, noise, conj, rows, lp):
        """Per-path certificates of candidates (entries of drift, noise,
        conj, each of slope owner[c]) that move adjoint `which` at step k,
        on the path range rows.

        Every level-j quantity is formed once per prefix of the range: the
        incumbent's running terms before step k, the moved adjoint and its
        running terms from step k on (_climb), and the partial sums of
        _path_sums over them.
        """
        n = self.lattice.steps
        span = _spans(rows, n)
        cols = [self.terms[j][owner, span[j]] for j in range(k)]
        for term, moved in self._climb(which, k, owner, span,
                                       (drift, noise, conj)):
            cols.append(term)
        l_end, a_end = _ordered(which, moved,
                                self.adjoints[1 - which][n][owner, rows])
        return _certificate_terms(cols, l_end,
                                  self.slopes[owner, None] * a_end,
                                  self.lattice.dt, lp)

    def move(self, i: int, k: int, slopes: np.ndarray, vals: np.ndarray,
             conj: np.ndarray) -> None:
        """Adopt, for each of the given slopes in turn, the scanned
        candidate that sets its profile i at step k to the next entry of
        vals, whose conjugate is the next entry of conj."""
        self.profiles[i][slopes, k] = vals
        self.conj[i // 2][slopes, k] = conj
        self._rebuild(i // 2, k, slopes)


def dual_objective(lattice: Lattice, dc: DualControls, d_f: Driver,
                   d_g: Driver, lp: LossPair) -> float:
    """Exact certificate value by full path enumeration."""
    return float(_Incumbent(lattice, [dc], d_f, d_g).value(lp)[0])


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


def _descend(lattice: Lattice, slopes, d_f: Driver, d_g: Driver,
             lp: LossPair, rounds: int) -> list:
    """Coordinate descent of a batch of slopes, in lockstep (dual_values)."""
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
        starts = [DualControls(l, np.full(n, u0), np.full(n, v0),
                               np.full(n, p0), np.full(n, q0)) for l in slopes]
        inc = _Incumbent(lattice, starts, d_f, d_g)
    except (DualFeasibilityError, ConjugateDomainError) as exc:
        raise ConjugateDomainError(infinite) from exc
    best = inc.value(lp)
    if not np.all(np.isfinite(best)):
        raise ConjugateDomainError(infinite)
    evaluations = np.ones(len(slopes), dtype=np.int64)
    accepted = np.zeros(len(slopes), dtype=np.int64)
    for rnd in range(rounds):
        for i, k in axes:
            width = widths[i] / 4.0**rnd
            wins = []
            for c, left in zip(inc.profiles[i][:, k],
                               DESCENT_BUDGET - evaluations):
                win = np.unique(np.clip(np.linspace(c - width, c + width,
                                                    WINDOW_POINTS),
                                        -widths[i], widths[i]))
                wins.append(win[win != c][:left])
            counts = np.array([win.size for win in wins])
            if not counts.any():
                continue
            cand = np.concatenate(wins)
            owner = np.repeat(np.arange(counts.size), counts)
            scores, conj = inc.scan(i, k, cand, owner, lp)
            evaluations += counts
            # per slope: first index on ties, NaN never wins, and only a
            # strict improvement moves; the same move as trying the values
            # in order and keeping each strict improvement
            ranked = np.where(np.isnan(scores), math.inf, scores)
            stops = np.cumsum(counts).tolist()
            won = []
            for s, (a, b) in enumerate(zip([0, *stops], stops)):
                if a < b:
                    j = a + int(np.argmin(ranked[a:b]))
                    if scores[j] < best[s]:
                        won.append(j)
            won = np.array(won, dtype=np.intp)
            if won.size:
                movers = owner[won]
                best[movers] = scores[won]
                accepted[movers] += 1
                inc.move(i, k, movers, cand[won], conj[won])
    return [{
        "value": float(best[s]),
        "controls": DualControls(l, *(p[s] for p in inc.profiles)),
        "n_evaluations": int(evaluations[s]),
        "n_accepted": int(accepted[s]),
    } for s, l in enumerate(slopes)]


def dual_values(lattice: Lattice, slopes, d_f: Driver, d_g: Driver,
                lp: LossPair, rounds: int = 3) -> list:
    """dual_value of each slope, in order, priced in batches.

    A batch holds at most SCAN_PAIRS // 2^N slopes (at least one) and runs
    their coordinate descents in lockstep on one incumbent; each result
    equals, bit for bit and count for count, that of dual_value alone.
    """
    slopes = list(slopes)
    per_batch = max(1, SCAN_PAIRS // 2**lattice.steps)
    out = []
    for start in range(0, len(slopes), per_batch):
        out.extend(_descend(lattice, slopes[start:start + per_batch], d_f,
                            d_g, lp, rounds))
    return out


def dual_value(lattice: Lattice, l: float, d_f: Driver, d_g: Driver,
               lp: LossPair, rounds: int = 3) -> dict:
    """Coordinate descent on the four step profiles at fixed slope.

    Starts from the (0,0,0,0) profiles (or the nearest feasible point when
    a conjugate domain misses the origin), scans each coordinate on a
    shrinking window clipped to the conjugate box, and moves to the best
    window point only when it strictly lowers the certificate.  The result
    is an upper bound on the true infimum, so lower bounds built from it
    remain valid.  n_evaluations counts certificates scored, the start
    included; n_accepted counts moves.  The one-slope case of dual_values.
    """
    return dual_values(lattice, [l], d_f, d_g, lp, rounds=rounds)[0]


def _golden_section(m: float, lo: float, hi: float, tol: float):
    """Golden-section maximization of l*m - certificate(l) over [lo, hi],
    as a stepping routine: it yields each slope it evaluates and is sent
    that slope's certificate back."""
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1 = x1 * m - (yield x1)
    f2 = x2 * m - (yield x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = x2 * m - (yield x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = x1 * m - (yield x1)


def _brent(m: float, a: float, b: float, tol: float):
    """Brent's bounded minimization of certificate(l) - l*m over [a, b]
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 5), a stepping routine like _golden_section.

    x is the best slope so far, w the second best and v the one before w.
    A step goes to the vertex of the parabola through the three when it
    lies inside the bracket and moves less than half the step before last,
    else it takes a golden-section step into the larger side of the
    bracket; no step is shorter than tol1 = SQRT_EPS |x| + tol / 3.  The
    search stops once the bracket lies within 2 tol1 of x.
    """
    x = w = v = a + GOLDEN_STEP * (b - a)
    fx = fw = fv = (yield x) - x * m
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
        fu = (yield u) - u * m
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


def _slope_search(m: float, l_max: float, lp: LossPair):
    """The stepping routine that maximizes l*m - certificate(l) over
    [SLOPE_FLOOR, l_max]: Brent's method where the loss polar is smooth
    (lp.polar_grad is set), golden section where it is piecewise linear;
    the module docstring says why both stay.
    """
    if not SLOPE_FLOOR < l_max < math.inf:
        raise DualFeasibilityError(
            f"l_max must be finite and above {SLOPE_FLOOR}, got {l_max!r}")
    search = _golden_section if lp.polar_grad is None else _brent
    return search(m, SLOPE_FLOOR, float(l_max), SLOPE_TOL)


def _step(search, certificate):
    """Send a search the certificate of its last slope (None to start it):
    the next slope it wants, or None once it has finished."""
    try:
        return search.send(certificate)
    except StopIteration:
        return None


def dual_bound(lattice: Lattice, d_f: Driver, d_g: Driver, lp: LossPair,
               m: float, l_max: float = 4.0, rounds: int = 3,
               certificates: dict | None = None) -> dict:
    """Maximization of l*m - certificate(l) over l in (0, l_max]: Brent's
    method where the loss polar is smooth, golden section where it is
    piecewise linear (_slope_search).

    The trace records every (l, certificate) pair the search evaluated;
    each one is a standalone valid lower bound, so the reported bound is
    the best value ever seen, not just the final bracket midpoint.

    certificates is the lockstep_certificates dict of thresholds that
    include m, on the same lattice, drivers, loss, l_max and rounds, and is
    only read; without it m is priced alone, a lockstep of one threshold.
    A slope the search wants and the dict lacks raises DualFeasibilityError.
    """
    if certificates is None:
        certificates = lockstep_certificates(lattice, d_f, d_g, lp, [m],
                                             l_max=l_max, rounds=rounds)
    search = _slope_search(m, l_max, lp)
    trace = []
    l = _step(search, None)
    while l is not None:
        if l not in certificates:
            raise DualFeasibilityError(
                f"certificates has no entry for slope {l!r}: pass the "
                f"lockstep_certificates dict of thresholds that include "
                f"m = {m!r}, with the same l_max and rounds")
        trace.append((l, certificates[l]))
        l = _step(search, certificates[l])
    best_idx = max(range(len(trace)), key=lambda i: trace[i][0] * m - trace[i][1])
    l_star, cert = trace[best_idx]
    return {
        "l_star": l_star,
        "bound": l_star * m - cert,
        "certificate": cert,
        "trace": trace,
        "n_slope_evaluations": len(trace),
    }


def lockstep_certificates(lattice: Lattice, d_f: Driver, d_g: Driver,
                          lp: LossPair, thresholds, l_max: float = 4.0,
                          rounds: int = 3) -> dict:
    """The slope -> certificate dict of the dual_bound searches for every
    threshold, priced in lockstep.

    Each step advances every unfinished search by one slope and prices the
    step's distinct new slopes in one dual_values call, so dual_bound on
    the returned dict, for any of the thresholds, only reads it and returns
    what it returns on its own.
    """
    certificates = {}
    searches = [_slope_search(m, l_max, lp) for m in thresholds]
    wanted = [_step(search, None) for search in searches]
    while searches:
        new = [l for l in dict.fromkeys(wanted) if l not in certificates]
        for l, res in zip(new, dual_values(lattice, new, d_f, d_g, lp,
                                           rounds=rounds)):
            certificates[l] = float(res["value"])
        stepped = [(search, _step(search, certificates[l]))
                   for search, l in zip(searches, wanted)]
        searches = [search for search, l in stepped if l is not None]
        wanted = [l for _, l in stepped if l is not None]
    return certificates


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
    prefixes.  The adjoint ratio at the terminal depends on the path, so
    (2) and (4) pair each path with the terminal row it reaches.
    """
    sc = surface.scenario
    lat = sc.lattice
    plan = greedy_plan(surface, [m0])
    y_levels, z_levels = _row_costs(surface, plan)
    inc = _Incumbent(lat, [dc], sc.driver_f, sc.driver_g)
    gts, fts = (conj[0] for conj in inc.conj)

    res_f = 0.0
    res_g = 0.0
    for k in range(lat.steps):
        t = lat.time_at(k)
        m_k = plan.states[k]
        a_k = plan.controls[k]
        lhs_f = np.asarray(sc.driver_f.fn(t, m_k, a_k), dtype=float)
        rhs_f = dc.threshold_drift[k] * m_k + dc.threshold_noise[k] * a_k \
            - fts[k]
        res_f = max(res_f, float(np.max(np.abs(lhs_f - rhs_f))))
        y_k, z_k = y_levels[k], z_levels[k]
        lhs_g = np.asarray(sc.driver_g.fn(t, y_k, z_k), dtype=float)
        rhs_g = dc.value_drift[k] * y_k + dc.value_noise[k] * z_k - gts[k]
        res_g = max(res_g, float(np.max(np.abs(lhs_g - rhs_g))))

    l_end, p_end = (levels[-1][0] for levels in inc.adjoints)
    ratio = dc.slope * p_end / l_end
    # the terminal row of each path, in sign_matrix order (up child first)
    leaf = plan.roots
    for children in plan.children:
        leaf = children[leaf].ravel()
    m_term = plan.states[-1][leaf]
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
