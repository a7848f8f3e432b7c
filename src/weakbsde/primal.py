"""Exact dynamic programming for the minimal-cost threshold problem.

State is (level, m) where m is the running threshold the controller still
has to honour.  One backup step minimizes, over a finite slope grid, the
one-step nonlinear expectation of the interpolated next-level slice:

    V(k, m)    = min_a  E_g-step( V(k+1, m_up), V(k+1, m_down) )
    m_up/down  = m - f(t_k, m, a) dt +/- a sqrt(dt)

subject to both successor states staying inside the admissibility corridor
(the nonlinear expectations of terminal 0 and 1 under the constraint
driver f).  At the terminal level V is the loss map phi itself, evaluated
exactly on the level's m-grid.

There is no lattice-node axis.  The drivers read (t, y, z) only and phi,
psi read only the threshold, so the corridor is the same at every node of
a level (bsde.Corridor), and so are the m-grid, the control set and both
children's data: V(k, j, m) = V(k, m) by induction from the terminal
level.  A node-dependent loss Psi(X_T, y) would bring the axis back.

The control grid always contains 0, the slope of the corridor edges, so a
feasible control exists at every state; ties are broken toward the
smallest |a| (then the smallest a) to keep results deterministic.  Every
level of every node tries the same (|a|, a)-ordered set, so a scenario
builds it once (PrimalScenario.control_set) and every _backup, whether
from the DP, the DPP check or the greedy plan, reads it there; the
restriction check's sub-scenario builds its own from the same base grid.

The attainment check steers the greedy feedback policy (re-optimize the
backup at the exact current state) from each threshold and prices its
terminal loss.  Its control is a pure function of (k, m), so greedy_plan
works on the distinct (level, m) rows that a scenario's thresholds reach:
one _backup per level, over all of that level's rows, and one forward
step per row.  g reads (t, y, z) only, so two path prefixes that reach
the same row have the same subtree and the same realized cost, bit for
bit, and every _one_step value depends only on its own (up, down) pair:
attainment_check prices all of the plan's rows backward in one pass, one
_one_step per level, instead of each threshold's 2^N path prefixes.

The backup (_backup) lays its work out as (control, state) arrays and does
only the work whose result it keeps: it tests every pair for feasibility,
then clips, interpolates and prices only the feasible pairs.  Compacting
the control-major mask keeps each control row's feasible states one
ascending run, which np.interp's guessed search walks instead of bisecting
the child grid.  Every value is elementwise in its own pair, under both
schemes, so the results equal those of a full (state, control) batch bit
for bit, and so does a backup run over blocks of states.  It runs in
blocks of at most _PAIR_BLOCK pairs, as convexity_check and the leaf
search's root step do: a temporary under glibc's 128 KB mmap threshold
comes from the heap, while a larger one is mapped, and faulted in page by
page, afresh on every call unless an earlier, larger allocation has
raised the threshold.

Two brute-force oracles (exhaustive policy enumeration and a leaf-value
grid search on the weak formulation) provide independent cross-checks at
tiny depth.  The policy enumeration builds its admissible prefixes one
node at a time: a node's two children read only that node's state and
slope, so a prefix is admissible exactly when every node's pick keeps both
children inside the corridor, and extending the surviving rows node by
node in C order lists them in the full enumeration's order, so its
first-index tie rule picks the same policy.  The leaf search covers every
candidate of its product grid but prices a root pair from the (f, g) bits
of its two children alone, so it collapses each child's candidates onto
their distinct (f, g) classes and prices only the class pairs, with the
same result bit for bit.  With zero drivers V is phi's convex envelope,
and two_point_envelope reads it off phi's lower convex hull on a fixed
grid of [0, 1]: the cheapest two-point law with mean m sits on the two
hull vertices that bracket m.
"""

from __future__ import annotations

import math
import dataclasses
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .bsde import (Corridor, compute_corridor, exact_scheme_for, solve_bsde,
                   solve_on_path_tree, solve_on_product_tree, _one_step,
                   _require_step_condition)
from .control import (MAX_PLAN_ROWS, _children, _distinct_rows,
                      _excursion, _interleave)
from .drivers import Driver, LossPair
from .lattice import Lattice, build_lattice

FEASIBILITY_TOL = 1e-9
CURVE_TOL = 1e-9
# dyadic offsets h of the continuity fit |V(m + h) - V(m)|
CONTINUITY_OFFSETS = 2.0 ** -np.arange(3, 10)
# most pairs a blocked pass holds at once, the backup's (control, state),
# convexity_check's (m1, m2) and the leaf search's root (up, down) class
# pairs: 64 KB per float64 temporary, under glibc's default 128 KB mmap
# threshold
_PAIR_BLOCK = 2**13
# spacing of the envelope oracle's grid on [0, 1]
ENVELOPE_STEP = 1e-3
# most policies or leaf vectors an exhaustive oracle enumerates
ORACLE_BUDGET = 1_000_000
# deepest lattice the equivalence check runs the exhaustive oracles on
ORACLE_MAX_LEVELS = 3


class PrimalError(ValueError):
    pass


@dataclass(frozen=True)
class PrimalScenario:
    """Everything the DP needs: lattice, drivers, loss and grid sizes."""

    lattice: Lattice
    driver_f: Driver        # shapes the corridor and the forward threshold
    driver_g: Driver        # prices the terminal loss
    loss: LossPair
    grid_size: int = 201    # m-points per level (loss breakpoints are added)
    n_a: int = 21           # uniform slope grid size on [-alpha_max, alpha_max]
    alpha_max: Optional[float] = None  # default 1/sqrt(dt)
    scheme: str = "explicit"

    def __post_init__(self):
        if self.grid_size < 3:
            raise PrimalError("grid_size must be at least 3")
        if self.n_a < 2:
            raise PrimalError("n_a must be at least 2")
        if self.alpha_max is not None and not self.alpha_max > 0:
            raise PrimalError("alpha_max must be positive")
        if self.scheme not in ("explicit", "implicit"):
            raise PrimalError(f"unknown scheme {self.scheme!r}")

    @property
    def slope_bound(self) -> float:
        return self.alpha_max if self.alpha_max is not None \
            else 1.0 / self.lattice.sqrt_dt

    def base_controls(self) -> np.ndarray:
        return np.linspace(-self.slope_bound, self.slope_bound, self.n_a)

    @cached_property
    def control_set(self) -> np.ndarray:
        """The slopes every backup tries: the base grid plus 0, the slope
        of the corridor edges, (|a|, a)-ordered; 0 keeps a feasible control
        in the set when n_a is even."""
        return _ordered_controls(self.base_controls(), [0.0])


@dataclass(frozen=True)
class ValueSurface:
    """DP output: per-level m-grids, values, argmin controls, corridor.

    clamp_events counts the clamped (node, m) states of the node lattice,
    where level k has k + 1 nodes: the sum over k of (k + 1) times the
    level's clamps.
    """

    scenario: PrimalScenario
    corridor: Corridor
    grids: tuple = field(repr=False)     # grids[k]: ascending m-points
    values: tuple = field(repr=False)    # values[k]: V on that grid
    controls: tuple = field(repr=False)  # controls[k]: argmin slopes
    clamp_events: int = 0

    @cached_property
    def grid_slack(self) -> float:
        """Largest m-grid spacing anywhere on the surface (computed once)."""
        return max([0.0] + [float(np.max(np.diff(g))) for g in self.grids
                            if g.size > 1])

    def root_corridor(self) -> tuple:
        return self.corridor.bounds_at(0)


def _level_grid(lo: float, hi: float, size: int, knots) -> np.ndarray:
    base = np.linspace(lo, hi, size)
    if knots:
        extra = np.asarray([x for x in knots if lo < x < hi], dtype=float)
        if extra.size:
            base = np.unique(np.concatenate([base, extra]))
    return base


def _ordered_controls(base: np.ndarray, extra) -> np.ndarray:
    cand = np.unique(np.concatenate([base, np.asarray(extra, dtype=float)]))
    order = np.lexsort((cand, np.abs(cand)))  # smallest |a| first, then smallest a
    return cand[order]


def _backup(sc: PrimalScenario, corridor: Corridor, k: int,
            m_grid: np.ndarray, next_grid: np.ndarray,
            next_values: np.ndarray) -> tuple:
    """One-step backup of level k over the states m_grid.

    It tries the scenario's (|a|, a)-ordered slopes sc.control_set;
    next_grid / next_values are the level-(k+1) slice both children are
    interpolated on.  Returns (values, best_controls, clamp_count).

    The states run in blocks of at most _PAIR_BLOCK (control, state) pairs
    (_backup_block), so every temporary comes from the heap, under glibc's
    mmap threshold, instead of being mapped afresh on every call.
    Every value and control depends on its own state only, so the blocks
    join to the bits of one pass, and the first infeasible state raises.
    """
    m_grid = np.asarray(m_grid, float)
    step = max(1, _PAIR_BLOCK // len(sc.control_set))
    values, best, clamps = zip(*(
        _backup_block(sc, corridor, k, m_grid[s:s + step], next_grid,
                      next_values)
        for s in range(0, m_grid.size, step)))
    return np.concatenate(values), np.concatenate(best), sum(clamps)


def _backup_block(sc: PrimalScenario, corridor: Corridor, k: int,
                  m_grid: np.ndarray, next_grid: np.ndarray,
                  next_values: np.ndarray) -> tuple:
    """_backup over one block of states.

    The work is laid out control-major, (control, state).  Every pair is
    tested for feasibility, and a state with no feasible control raises
    at once; only the feasible pairs are then clipped, clamp-counted,
    interpolated and priced.  np.flatnonzero on the control-major mask
    keeps them in row order, so for a fixed a the children (monotone in m
    under the step condition) reach np.interp as one ascending run when
    m_grid ascends, and its guessed search walks a few knots instead of
    bisecting the child grid.  The prices are scattered into a +inf array
    and the first-index argmin is taken along the control axis.

    Against a full (state, control) batch no bit changes: each clipped,
    interpolated and priced value depends on its own pair only, and an
    infeasible pair scored +inf there too.
    """
    lo, hi = corridor.bounds_at(k + 1)
    lat = sc.lattice
    controls = sc.control_set
    m_up, m_dn = _children(lat, sc.driver_f, k, m_grid[None, :],
                           controls[:, None])
    tol = FEASIBILITY_TOL
    feasible = ((m_up >= lo - tol) & (m_up <= hi + tol)
                & (m_dn >= lo - tol) & (m_dn <= hi + tol))
    any_feasible = np.any(feasible, axis=0)
    if not np.all(any_feasible):
        bad = int(np.argmin(any_feasible))
        raise PrimalError(
            f"no feasible control at level {k}, m = {float(m_grid[bad])!r}; "
            "the zero control should prevent this"
        )
    kept = np.flatnonzero(feasible)
    m_up, m_dn = m_up.take(kept), m_dn.take(kept)  # the feasible pairs only
    up_c = np.clip(m_up, lo, hi)
    dn_c = np.clip(m_dn, lo, hi)
    clamps = int(np.count_nonzero((m_up != up_c) | (m_dn != dn_c)))
    v_up = np.interp(up_c, next_grid, next_values)
    v_dn = np.interp(dn_c, next_grid, next_values)
    priced, _, _ = _one_step(sc.driver_g, lat.time_at(k), v_up, v_dn,
                             lat.sqrt_dt, lat.dt, sc.scheme)
    vals = np.full(feasible.shape, np.inf)
    vals.put(kept, priced)
    idx = np.argmin(vals, axis=0)  # controls are (|a|, a)-ordered: ties resolve small
    return vals[idx, np.arange(vals.shape[1])], controls[idx], clamps


def primal_value_dp(sc: PrimalScenario) -> ValueSurface:
    """Backward sweep over the (level, m) states: one _backup per level."""
    lat = sc.lattice
    _require_step_condition(lat, sc.driver_f, sc.scheme)
    _require_step_condition(lat, sc.driver_g, sc.scheme)
    n = lat.steps
    corridor = compute_corridor(lat, sc.driver_f, scheme=sc.scheme)
    grids = [_level_grid(*corridor.bounds_at(k), sc.grid_size,
                         sc.loss.breakpoints) for k in range(n + 1)]
    values = [None] * n + [np.asarray(sc.loss.phi(grids[n]), dtype=float)]
    controls = [None] * n + [np.zeros_like(grids[n])]
    clamp_total = 0
    for k in range(n - 1, -1, -1):
        values[k], controls[k], clamps = _backup(
            sc, corridor, k, grids[k], grids[k + 1], values[k + 1])
        clamp_total += (k + 1) * clamps  # one count per node of the level
    return ValueSurface(scenario=sc, corridor=corridor, grids=tuple(grids),
                        values=tuple(values), controls=tuple(controls),
                        clamp_events=clamp_total)


def value_curve(surface: ValueSurface, m_list) -> np.ndarray:
    """Root-level value slice; thresholds must lie inside the root corridor."""
    lo, hi = surface.root_corridor()
    m = np.atleast_1d(np.asarray(m_list, dtype=float))
    inside = (m >= lo - CURVE_TOL) & (m <= hi + CURVE_TOL)  # False for NaN
    if not np.all(inside):
        raise PrimalError(
            f"threshold {float(m[np.argmin(inside)])!r} outside the root "
            f"corridor [{lo:.6g}, {hi:.6g}]"
        )
    return np.interp(np.clip(m, lo, hi), surface.grids[0], surface.values[0])


@dataclass(frozen=True)
class GreedyPlan:
    """The greedy feedback policy over the distinct (level, m) states that a
    set of thresholds reaches, level by level (greedy_plan).

    states[k] holds the m of each level-k row; controls[k] (k < N) its
    greedy control and children[k] the (up, down) level-(k+1) rows it
    steps to, one (R_k, 2) index array.  roots[i] is the level-0 row of
    the i-th threshold planned.
    """

    roots: np.ndarray = field(repr=False)
    states: tuple = field(repr=False)
    controls: tuple = field(repr=False)
    children: tuple = field(repr=False)

    @property
    def n_backups(self) -> int:
        """Distinct interior (level, m) rows the plan backed up."""
        return sum(a.size for a in self.controls)


def greedy_plan(surface: ValueSurface, m_list) -> GreedyPlan:
    """Plan the greedy state-feedback policy for every threshold of m_list.

    The greedy control re-optimizes the one-step backup against the stored
    next-level slice at the exact current state, so it is a pure function
    of (k, m).  The plan walks the levels forward over the distinct
    (level, m) rows that any threshold reaches: one _backup per level, over
    all of that level's rows, then one forward step (_children) per row,
    whose children are deduplicated again into the next level's rows.  On
    a pair that holds the threshold flat a level has one row per
    threshold, not one per prefix.  A level of more than MAX_PLAN_ROWS
    rows raises a PrimalError.

    Dropping exact duplicates leaves every control and child bit equal to
    a per-prefix simulation.
    """
    sc = surface.scenario
    lat = sc.lattice
    thresholds = np.atleast_1d(np.asarray(m_list, dtype=float))
    m = thresholds[_distinct_rows(thresholds)]
    # the rows run in ascending bit order, so a state's row is where its
    # bits sort among them
    roots = np.searchsorted(m.view(np.int64), thresholds.view(np.int64))
    states, controls, children = [m], [], []
    for k in range(lat.steps):
        a = _backup(sc, surface.corridor, k, m, surface.grids[k + 1],
                    surface.values[k + 1])[1]
        # the two children of row r sit at 2r (up) and 2r + 1 (down)
        m_next = _interleave(*_children(lat, sc.driver_f, k, m, a))
        m = m_next[_distinct_rows(m_next)]
        if m.size > MAX_PLAN_ROWS:
            raise PrimalError(
                f"greedy plan reaches {m.size} rows at level {k + 1}, "
                f"over its budget of MAX_PLAN_ROWS = {MAX_PLAN_ROWS}")
        controls.append(a)
        children.append(np.searchsorted(m.view(np.int64),
                                        m_next.view(np.int64)).reshape(-1, 2))
        states.append(m)
    return GreedyPlan(roots=roots, states=tuple(states),
                      controls=tuple(controls), children=tuple(children))


def _row_costs(surface: ValueSurface, plan: GreedyPlan) -> tuple:
    """(y, z): the greedy policy's realized cost y[k] and slope z[k] (k < N)
    on every level-k row of the plan, priced backward from phi at level N
    with one _one_step per level over the level's rows.

    The level-k batch holds the rows' (up, down) pairs.  Each is priced on
    its own, so a row's value equals, bit for bit, what a path-tree solve
    over its threshold's 2^N prefixes gives at the row's nodes.
    """
    sc = surface.scenario
    lat = sc.lattice
    y = np.asarray(sc.loss.phi(plan.states[-1]), dtype=float)
    ys, zs = [y], []
    for k in range(lat.steps - 1, -1, -1):
        up, down = plan.children[k].T
        y, z, _ = _one_step(sc.driver_g, lat.time_at(k), y[up], y[down],
                            lat.sqrt_dt, lat.dt, sc.scheme)
        ys.insert(0, y)
        zs.insert(0, z)
    return ys, zs


def attainment_check(surface: ValueSurface, m_list) -> dict:
    """Steer the greedy policy from every threshold of m_list and measure
    the gap between its realized cost and the surface value.

    The thresholds are checked against the root corridor first (value_curve).
    One greedy_plan then holds every threshold's rows, and one _row_costs
    pass prices them all backward; realized[i] is the level-0 cost at
    the row of m_list[i].  Each row's (up, down) pair is priced on its own,
    so this equals pricing that threshold's 2^N path prefixes on the path
    tree bit for bit.  states[k] and controls[k] hold the plan's level-k
    rows and their greedy controls; n_backups counts them.
    """
    surface_value = value_curve(surface, m_list)
    plan = greedy_plan(surface, m_list)
    realized = _row_costs(surface, plan)[0][0][plan.roots]
    return {
        "realized": realized,
        "surface_value": surface_value,
        "gap": np.abs(realized - surface_value),
        "states": list(plan.states),
        "controls": list(plan.controls),
        "n_backups": plan.n_backups,
    }


def monotonicity_violation(surface: ValueSurface) -> float:
    """Worst decrease of V along increasing m, over every level, and at
    least 0.0; a NaN is kept."""
    return float(np.max([0.0] + [np.max(v[:-1] - v[1:]) for v in surface.values
                                 if v.size > 1]))


def convexity_check(surface: ValueSurface) -> dict:
    """Worst midpoint-convexity violation of the root slice (needs the shape
    flags): the max over grid pairs (m1, m2) of
    V(0.5 * (m1 + m2)) - 0.5 * (V(m1) + V(m2)), V interpolated.

    The pair matrix is symmetric bit for bit: a sum of two floats does not
    depend on their order, and np.interp is elementwise in its point.  So
    the max is taken over the upper triangle alone, diagonal included, in
    row blocks [s, e) x [s, n) of at most _PAIR_BLOCK pairs (one row
    where a row holds more), and the block maxima are reduced with np.max,
    which keeps a NaN.  The reading is the full matrix's number.  Only the
    sign of a 0.0 reading can differ from the full matrix's, when some
    cell reads -0.0: np.max picks among tied zeros by its reduction order
    (report.json writes either zero as 0.0).
    """
    sc = surface.scenario
    if not (sc.driver_f.concave_in_yz and sc.driver_g.convex_in_yz
            and sc.loss.phi_convex):
        return {"status": "skipped",
                "reason": "needs concave f, convex g and convex phi"}
    g0 = surface.grids[0]
    v0 = surface.values[0]
    n = g0.size
    maxima = []
    s = 0
    while s < n:
        e = min(n, s + max(1, _PAIR_BLOCK // (n - s)))
        mid = 0.5 * (g0[s:e, None] + g0[None, s:])
        v_mid = np.interp(mid.ravel(), g0, v0).reshape(mid.shape)
        maxima.append(np.max(v_mid - 0.5 * (v0[s:e, None] + v0[None, s:])))
        s = e
    return {"status": "checked", "violation": float(np.max(maxima))}


def _continuity_base_fits(lo: float, hi: float, base_m: float) -> bool:
    """Whether base_m and base_m + the largest continuity offset lie in the
    root corridor [lo, hi] (the top within CURVE_TOL)."""
    return lo <= base_m <= hi and \
        base_m + float(CONTINUITY_OFFSETS.max()) <= hi + CURVE_TOL


def continuity_modulus(surface: ValueSurface, base_m: float) -> dict:
    """Fitted growth exponent of |V(m + h) - V(m)| over dyadic offsets."""
    if surface.scenario.loss.phi_lipschitz is None:
        raise PrimalError("continuity check needs a Lipschitz loss map")
    offsets = CONTINUITY_OFFSETS
    lo, hi = surface.root_corridor()
    if not _continuity_base_fits(lo, hi, base_m):
        raise PrimalError("base point (plus largest offset) must stay in corridor")
    v0 = float(value_curve(surface, base_m)[0])
    diffs = np.abs(value_curve(surface, base_m + offsets) - v0)
    keep = diffs > 1e-9
    if int(np.count_nonzero(keep)) < 2:
        return {"status": "vacuous", "exponent": None, "diffs": diffs,
                "note": "value differences below noise floor"}
    slope, intercept = np.polyfit(np.log(offsets[keep]), np.log(diffs[keep]), 1)
    return {"status": "fitted", "exponent": float(slope),
            "scale": float(math.exp(intercept)), "diffs": diffs}


def dpp_check(surface: ValueSurface, k1: int, k2: int) -> dict:
    """Time-consistency of the backup between two levels.

    One-step (k2 = k1 + 1) re-runs the stored backup verbatim and must
    reproduce the surface exactly.  Multi-step re-samples the level-k2
    slice onto a half-spacing-shifted grid first, so the residual measures
    how much the dynamic-programming composition distorts an interpolated
    intermediate surface (it shrinks with the grid spacing).
    """
    sc = surface.scenario
    n = sc.lattice.steps
    if not (0 <= k1 < k2 <= n):
        raise PrimalError(f"need 0 <= k1 < k2 <= {n}")
    g, v = surface.grids[k2], surface.values[k2]
    if k2 == k1 + 1:
        mode = "one_step"
    else:
        mids = 0.5 * (g[:-1] + g[1:])
        g = np.unique(np.concatenate([g[:1], mids, g[-1:]]))
        v = np.interp(g, surface.grids[k2], v)
        mode = "multi_step"

    for k in range(k2 - 1, k1 - 1, -1):
        v = _backup(sc, surface.corridor, k, surface.grids[k], g, v)[0]
        g = surface.grids[k]

    return {"residual": float(np.max(np.abs(v - surface.values[k1]))),
            "mode": mode}


def apriori_bound_check(surface: ValueSurface) -> dict:
    """Largest excess of |V| over the a-priori envelope at any level.

    The envelope is |E_g[phi(1)]| + |E_g[phi(0)]|: every achievable optimal
    value lies inside it because the terminal loss is squeezed between
    phi(0) and phi(1) and the nonlinear expectation is monotone under the
    step condition.  It solves the two constant terminals as one stack, so
    like the corridor it is the same at every node of a level: node 0
    stands for the level.
    """
    sc = surface.scenario
    edges = np.repeat([[float(sc.loss.phi(1.0))], [float(sc.loss.phi(0.0))]],
                      sc.lattice.steps + 1, axis=1)
    ends = solve_bsde(sc.lattice, sc.driver_g, edges, scheme=sc.scheme)[0]
    return {"excess": float(np.max([np.max(np.abs(v))
                                    - (abs(e[0, 0]) + abs(e[1, 0]))
                                    for v, e in zip(surface.values, ends)]))}


def restriction_check(surface: ValueSurface, k: int) -> dict:
    """Sub-tree consistency: the largest gap between the problem solved on
    the lattice rooted at level k and the restriction of the global
    surface.

    The sub-lattice keeps the parent's time offset, slope bound and
    corridor, so its DP repeats the global DP's arithmetic on the same
    grids and max_diff is 0 by construction: the check can only catch
    nondeterminism or a wrong step_offset."""
    sc = surface.scenario
    lat = sc.lattice
    if not 0 <= k < lat.steps:
        raise PrimalError("root level outside the lattice interior")
    sub_lat = build_lattice(lat.dt * (lat.steps - k), lat.steps - k,
                            step_offset=lat.step_offset + k)
    # the parent's slope bound, not the default 1/sqrt(dt) of the sub-lattice
    sub = primal_value_dp(dataclasses.replace(sc, lattice=sub_lat,
                                              alpha_max=sc.slope_bound))
    gaps = [0.0]
    for i, (g_sub, v_sub) in enumerate(zip(sub.grids, sub.values)):
        v_glob = np.interp(g_sub, surface.grids[k + i], surface.values[k + i])
        gaps.append(np.max(np.abs(v_sub - v_glob)))
    return {"max_diff": float(np.max(gaps))}


# ---------------------------------------------------------------------------
# independent oracles (tiny scale)
# ---------------------------------------------------------------------------

def two_point_envelope(lp: LossPair, m: float) -> float:
    """Convex envelope of phi at m over the two-point laws with mean m on
    the ENVELOPE_STEP grid of [0, 1].

    The cheapest such law sits on the two vertices of phi's lower convex
    hull that bracket m.  The hull is pruned from the grid in vectorised
    passes: each pass drops every interior point on or above the chord of
    its two kept neighbours, which no hull vertex is, until none is
    dropped.  The law on the bracketing pair (l, r) is priced as
    lam phi(l) + (1 - lam) phi(r), lam = (r - m) / (r - l), and a vertex m
    as phi(m), the degenerate law on {m}.
    """
    if not (0.0 <= m <= 1.0):
        raise PrimalError("envelope oracle expects m in [0, 1]")
    x = np.arange(0.0, 1.0 + ENVELOPE_STEP / 2, ENVELOPE_STEP)
    y = np.asarray(lp.phi(x), float)
    while True:
        dx_l, dy_l = x[1:-1] - x[:-2], y[1:-1] - y[:-2]
        dx_r, dy_r = x[2:] - x[:-2], y[2:] - y[:-2]
        keep = np.concatenate([[True], dx_l * dy_r > dx_r * dy_l, [True]])
        if keep.all():
            break
        x, y = x[keep], y[keep]
    j = int(np.searchsorted(x, m))
    if x[j] == m:
        return float(y[j])
    lam = (x[j] - m) / (x[j] - x[j - 1])
    return float(lam * y[j - 1] + (1.0 - lam) * y[j])


def brute_force_policy_value(sc: PrimalScenario, m0: float) -> dict:
    """Exhaustive minimum over every open-loop path-indexed policy.

    Each policy assigns one slope from the scenario's base grid to each of
    the 2^N - 1 interior history nodes; admissibility is enforced exactly
    along every path, and the cost of a policy is the nonlinear expectation
    of the terminal loss over the full path tree.

    The enumeration runs level by level and, within a level, node by node.
    At level k every admissible row's 2^k nodes step once under each base
    slope (_children), and a (row, node, slope) entry is kept when both of
    its children lie within FEASIBILITY_TOL of the level-(k + 1) corridor.
    This is exact: the two children of a node read only its own state and
    slope, and a row's worst excursion is within tolerance exactly when
    every node's is, so a row extends by an assignment exactly when every
    node's pick is kept.  The rows extend one node at a time, each over its
    kept slopes in ascending order (np.nonzero), so the surviving
    assignments come out in C order with the root digit most significant:
    the order of the full enumeration, whose first-index tie rule thus
    picks the same policy, with the same count and value bits.  Only the
    children of kept entries are gathered into the next level's states; a
    level that keeps no row raises at once, before any leaf is priced.  A
    level keeps, per admissible row, only its parent row and the flat index
    of its own assignment; the winner's full assignment is read back along
    its parents at the end.
    """
    lat = sc.lattice
    n = lat.steps
    grid = sc.base_controls()
    n_a = grid.size
    decisions = 2**n - 1
    n_pol = n_a**decisions
    if n_pol > ORACLE_BUDGET:
        raise PrimalError(f"{n_a}^{decisions} = {n_pol} policies exceed the "
                          f"{ORACLE_BUDGET} budget")
    corridor = compute_corridor(lat, sc.driver_f, scheme=sc.scheme)
    lo0, hi0 = corridor.bounds_at(0)
    if not (lo0 - FEASIBILITY_TOL <= m0 <= hi0 + FEASIBILITY_TOL):
        raise PrimalError("threshold outside the root corridor")

    m = np.full((1, 1), float(m0))  # states of the admissible prefixes
    back = []  # per level: (parent row, assignment index) of each kept row
    for k in range(n):
        # (row, node, slope): a node's two children read its state and
        # slope alone
        up, dn = _children(lat, sc.driver_f, k, m[:, :, None], grid)
        ok = np.maximum(_excursion(corridor, k + 1, up),
                        _excursion(corridor, k + 1, dn)) <= FEASIBILITY_TOL
        parent = np.arange(m.shape[0])
        pick = np.zeros_like(parent)
        for j in range(2**k):
            row, option = np.nonzero(ok[parent, j])
            parent, pick = parent[row], pick[row] * n_a + option
        if not parent.size:
            raise PrimalError("no admissible policy in the enumeration grid")
        at = (parent[:, None], np.arange(2**k),
              np.stack(np.unravel_index(pick, (n_a,) * 2**k), axis=1))
        m = _interleave(up[at], dn[at])
        back.append((parent, pick))

    leaf_cost = np.asarray(sc.loss.phi(m), dtype=float)
    cost = np.asarray(solve_on_path_tree(lat, sc.driver_g, leaf_cost,
                                         scheme=sc.scheme), float)
    best = row = int(np.argmin(cost))
    digits = []
    for k in range(n - 1, -1, -1):
        parent, pick = back[k]
        digits[:0] = np.unravel_index(pick[row], (n_a,) * 2**k)
        row = parent[row]
    return {
        "value": float(cost[best]),
        "n_policies": int(n_pol),
        "n_admissible": int(m.shape[0]),
        "best_assignment": grid[np.array(digits, dtype=np.intp)],
    }


def _require_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < least:
        raise PrimalError(f"{name} must be an integer >= {least}, "
                          f"got {name} = {value!r}")


def brute_force_weak_formulation(sc: PrimalScenario, m0: float, q: int = 5,
                                 rounds: int = 12) -> dict:
    """Leaf-value grid search on the weak formulation.

    Minimizes the nonlinear g-expectation of a path-indexed terminal vector
    subject to the nonlinear f-expectation of psi(terminal) clearing the
    threshold.  A coarse product grid of q points per leaf over [0,1] is
    refined, for the given number of rounds, by halving per-leaf windows
    around the incumbent.  Every candidate of the product grid is covered;
    the vectors themselves are never built.

    solve_on_product_tree gives the level-1 values for f (of psi) and for
    g, one row per root child.  A root pair (i, j) is priced from the bits
    of (f, g) at up-candidate i and down-candidate j alone, so each child's
    candidates collapse onto their distinct (f, g) classes (_distinct_rows),
    each stood for by its first candidate, and the root step prices only
    the class pairs: a block of up classes at a time (at most _PAIR_BLOCK
    pairs), each with the feasibility mask and argmin of its block.  The
    classes run in the order of their first candidates and a block's
    minimum replaces the incumbent only if strictly lower, so the first
    flat index i * width + j still wins every tie and the result equals one
    argmin over all candidates.

    n_evaluated counts the candidates covered, width**2 per round;
    n_scored the root pairs priced.
    """
    _require_count("q", q, 2)
    _require_count("rounds", rounds, 0)
    lat = sc.lattice
    n = lat.steps
    leaves = 2**n
    if int(q)**leaves > ORACLE_BUDGET:
        raise PrimalError(f"{q}^{leaves} candidates exceed the "
                          f"{ORACLE_BUDGET} budget")
    scheme_f = exact_scheme_for(sc.driver_f)
    t0, sq, dt = lat.time_at(0), lat.sqrt_dt, lat.dt
    width = q**(leaves // 2)   # candidates below each root child

    grids = np.tile(np.linspace(0.0, 1.0, q), (leaves, 1))
    best_y = None
    best_cost = math.inf
    evaluated = scored = 0
    half_width = 0.5
    for _ in range(rounds + 1):
        level = solve_on_product_tree(
            lat, sc.driver_f, np.asarray(sc.loss.psi(grids), dtype=float),
            scheme=scheme_f, stop_level=1)
        cost = solve_on_product_tree(lat, sc.driver_g, grids,
                                     scheme=sc.scheme, stop_level=1)
        # first candidate of each child's (f, g) class, in candidate order
        up, dn = (np.sort(_distinct_rows(level[s], cost[s])) for s in (0, 1))
        evaluated += width * width
        scored += up.size * dn.size
        level_dn, cost_dn = level[1, dn][None, :], cost[1, dn][None, :]
        rows = max(1, _PAIR_BLOCK // dn.size)
        for i in range(0, up.size, rows):
            ui = up[i:i + rows, None]
            level_b, _, _ = _one_step(sc.driver_f, t0, level[0, ui],
                                      level_dn, sq, dt, scheme_f)
            cost_b, _, _ = _one_step(sc.driver_g, t0, cost[0, ui],
                                     cost_dn, sq, dt, sc.scheme)
            cand = np.where(level_b >= m0 - 1e-12, cost_b, np.inf)
            b = int(np.argmin(cand))
            if cand.flat[b] < best_cost:
                best_cost = float(cand.flat[b])
                row, col = divmod(b, dn.size)
                digits = np.unravel_index(ui[row, 0] * width + dn[col],
                                          (q,) * leaves)
                best_y = grids[np.arange(leaves), np.asarray(digits)]
        if best_y is None:
            # widen nothing; the shared [0,1] grid must contain a feasible
            # point (the all-ones vector) whenever the threshold is sane
            raise PrimalError("no feasible leaf vector on the coarse grid")
        half_width *= 0.5
        grids = np.clip(best_y[:, None]
                        + np.linspace(-half_width, half_width, q)[None, :],
                        0.0, 1.0)
    step_final = 2.0 * half_width / (q - 1)
    return {"value": best_cost, "leaf_values": best_y,
            "n_evaluated": int(evaluated), "n_scored": int(scored),
            "final_step": float(step_final)}
