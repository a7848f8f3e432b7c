"""Controlled threshold processes on the lattice.

Node controls pick the slope a of the forward recursion

    M_{k+1} = M_k - f(t_k, M_k, a) * dt + a * dW_{k+1},   dW = +/- sqrt(dt),

which is the discrete driver-martingale dynamics of the threshold state.
Admissibility means the state stays inside the corridor spanned by the
nonlinear expectations of the terminal fields 0 and 1.

simulate_rows takes one slope per lattice node and walks the levels
forward over their distinct rows.  A row is what a path prefix's future
depends on: its node j, the exact bits of its state m and, given a
corridor, its latch (whether the path has reached an edge, after which
_truncate holds its slope at 0).  Prefixes on one row take the same slope
and step to the same children, bit for bit, so each level keeps every
row once (_distinct_rows) instead of its 2^k prefixes, and the set of
(node, state, latch) over a level's prefixes is exactly its set of rows.
The checks read only maxima: admissible measures the worst corridor
excursion of the rows' states, and representation_roundtrip compares
each row with the backward solve at its node.

simulate_rows is the one row walk, over a stack of walks at once: each
row also carries its walk's id as a key, so a stack's walks never merge
and each keeps the rows it keeps alone.  representation_roundtrip and the
runner's admissibility check walk a stack of terminals or policies in
one pass.

_children is the one forward step: the walk here, the primal greedy plan
and the policy oracle all call it, and the primal backup's geometry
steps through its second half, _successors, on the f values it has
already evaluated for its key.  _distinct_rows is the one row dedupe:
the walk here, primal.greedy_plan (whose greedy control depends on the
state alone, so its rows are keyed on (level, m)) and the weak oracle's
root classes all call it.
"""

from __future__ import annotations

import numpy as np

from .bsde import Corridor, exact_scheme_for, solve_bsde
from .drivers import Driver
from .lattice import Lattice, LatticeError

HIT_TOL = 1e-9
# most rows one level of a row walk or greedy plan may hold: 8 MB of states
MAX_PLAN_ROWS = 2**20


class PolicyError(ValueError):
    pass


def _children(lattice: Lattice, f: Driver, k: int, m, a) -> tuple:
    """Up and down successors m - f(t_k, m, a) dt +/- a sqrt(dt) of states m
    under controls a (broadcast together)."""
    return _successors(lattice, m, a, f.fn(lattice.time_at(k), m, a))


def _successors(lattice: Lattice, m, a, f_values) -> tuple:
    """_children's step from f's values f_values = f(t_k, m, a), already
    evaluated."""
    base = m - np.asarray(f_values, float) * lattice.dt
    return base + a * lattice.sqrt_dt, base - a * lattice.sqrt_dt


def _excursion(corridor: Corridor, k: int, m: np.ndarray) -> np.ndarray:
    """Signed distance of level-k states m outside [floor, ceiling];
    positive means outside."""
    lo, hi = corridor.bounds_at(k)
    return np.maximum(lo - m, m - hi)


def _interleave(up: np.ndarray, dn: np.ndarray) -> np.ndarray:
    """Children in prefix order along the last axis: prefix h of level k
    has its up child at 2h and its down child at 2h + 1 of level k + 1."""
    out = np.empty(up.shape[:-1] + (2 * up.shape[-1],))
    out[..., 0::2] = up
    out[..., 1::2] = dn
    return out


def _truncate(lattice: Lattice, f: Driver, corridor: Corridor, k: int,
              m: np.ndarray, a: np.ndarray, latched: np.ndarray) -> tuple:
    """The children of level-k states m under slopes a truncated at the
    corridor, and the states' updated latches.

    A path keeps its slope until it first reaches an edge, and takes slope
    0 from then on, the edges' own slope (a constant terminal has Z = 0):
    latched holds, per state, whether an edge has been reached.  Reaching
    is detected two ways: the state sits within HIT_TOL of an edge, or the
    proposed step would land strictly beyond a next-level edge.  The second
    (predictive) trigger is the discrete stand-in for continuous paths
    touching the boundary before crossing: without it a large control could
    jump straight across the corridor and no truncation could repair the
    excursion after the fact.  The proposed children are kept for the
    states that stay unlatched; only the latched ones step again, at 0.
    Returns (up, down, latched).
    """
    up, dn = _children(lattice, f, k, m, a)
    lo, hi = corridor.bounds_at(k)
    lo_next, hi_next = corridor.bounds_at(k + 1)
    latched = latched | ((m <= lo + HIT_TOL) | (m >= hi - HIT_TOL)
                         | (up < lo_next) | (dn < lo_next)
                         | (up > hi_next) | (dn > hi_next))
    if latched.any():
        m_held = m[latched]
        up[latched], dn[latched] = _children(lattice, f, k, m_held,
                                             np.zeros(m_held.size))
    return up, dn, latched


def _distinct_rows(*columns) -> np.ndarray:
    """The distinct rows among n states, given as key columns of n values
    each: first[r] is the first state holding row r.

    A float column is keyed on its exact bits, so -0.0/+0.0 and NaN rows
    stay apart; an integer or bool column on its values.  Rows are ordered
    by their keys, the first column most significant: on one float column
    they run in ascending bit order (ascending m where m >= 0, so a greedy
    level's batch reaches primal._backup as one ascending run).
    """
    keys = [c.view(np.int64) if c.dtype.kind == "f" else c for c in columns]
    order = np.lexsort(keys[::-1])  # stable: first states lead each row
    starts = np.empty(order.size, dtype=bool)
    starts[:1] = True
    ranked = keys[0][order]
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    for key in keys[1:]:
        ranked = key[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    return order[starts]


def simulate_rows(lattice: Lattice, f: Driver, mu0, controls,
                  corridor: Corridor | None = None) -> tuple:
    """Forward recursion over the distinct rows of every level, for a stack
    of walks at once: the one row walk.

    mu0 is one start, with controls[k] the (k + 1,) array of level-k node
    slopes, or a stack of starts, with controls[k] of shape
    mu0.shape + (k + 1,), k < N.  A level-k row (w, j, m) of walk w takes
    slope controls[k][w][j] and steps to the rows (w, j + 1, up) and
    (w, j, down) of level k + 1; rows that repeat the bits of another are
    dropped.  The walk w is one more key column, so the rows of two walks
    never merge and each walk keeps the rows it keeps alone.  With a
    corridor each row also carries its path's latch, and its slope is
    truncated at the edges (_truncate).  A level on which one walk holds
    more than MAX_PLAN_ROWS rows raises a LatticeError.

    Returns (walks, nodes, states, latched), each a list over levels
    0..N: walks[k], nodes[k] and states[k] hold the walk (its flat index
    in mu0), node and state of each level-k row, and latched[k] whether
    the row's paths reached an edge before level k (latched is None
    without a corridor).
    """
    n = lattice.steps
    if len(controls) != n:
        raise PolicyError(f"need controls for levels 0..{n - 1}, "
                          f"got {len(controls)}")
    starts = np.array(mu0, dtype=float)
    w = np.arange(starts.size)
    j = np.zeros(starts.size, dtype=np.intp)
    m = starts.reshape(-1)
    latch = None if corridor is None else np.zeros(starts.size, dtype=bool)
    walks, nodes, states, latched = [w], [j], [m], [latch]
    for k in range(n):
        level = np.asarray(controls[k], dtype=float)
        if level.shape != starts.shape + (k + 1,):
            raise PolicyError(f"level {k} controls have shape {level.shape}, "
                              f"expected {starts.shape + (k + 1,)}")
        a = level.reshape(-1, k + 1)[w, j]
        if corridor is None:
            up, dn = _children(lattice, f, k, m, a)
        else:
            # both children inherit their parent's updated latch
            up, dn, latch = _truncate(lattice, f, corridor, k, m, a, latch)
            latch = np.concatenate((latch, latch))
        m = np.concatenate((up, dn))
        j = np.concatenate((j + 1, j))
        w = np.concatenate((w, w))
        keys = (m, j, w) if corridor is None else (m, j, latch, w)
        first = _distinct_rows(*keys)
        if first.size > MAX_PLAN_ROWS:
            most = int(np.bincount(w[first]).max())
            if most > MAX_PLAN_ROWS:
                raise LatticeError(
                    f"row walk reaches {most} rows at level {k + 1}, "
                    f"over its budget of MAX_PLAN_ROWS = {MAX_PLAN_ROWS}")
        m, j, w = m[first], j[first], w[first]
        if corridor is not None:
            latch = latch[first]
        walks.append(w)
        nodes.append(j)
        states.append(m)
        latched.append(latch)
    return walks, nodes, states, None if corridor is None else latched


def admissible(corridor: Corridor, states) -> dict:
    """Measure the corridor constraint on level states (states[k] at level
    k, as simulate_rows returns them).

    Returns the worst signed excursion outside [floor, ceiling] (0 when
    every state stays inside, NaN when a state is NaN), which the caller
    judges against a tolerance, and n_rows, the number of states measured.
    """
    worst = float(np.max([0.0] + [np.max(_excursion(corridor, k, m))
                                  for k, m in enumerate(states)]))
    return {"worst_violation": worst,
            "n_rows": sum(m.size for m in states)}


def representation_roundtrip(lattice: Lattice, f: Driver, terminal) -> dict:
    """Solve backward, feed the slopes forward, compare with the terminal.

    terminal is the (N + 1,) array of level-N values, or a stack of them,
    (..., N + 1): one backward pass (solve_bsde) and one row walk
    (simulate_rows) price the whole stack, and the errors are the maxima
    over its terminals.  Both run the driver's exact scheme (exact_scheme_for:
    implicit when f depends on y), under which the forward recursion
    inverts the backward step exactly, so the terminal field is reproduced
    on every path to machine precision.  mu0 is the root value, an array
    of them for a stack, and n_rows counts the rows simulated, over all
    levels and terminals.
    """
    scheme = exact_scheme_for(f)
    y, z, _ = solve_bsde(lattice, f, terminal, scheme=scheme)
    mu0 = y[0][..., 0]
    walks, nodes, states, _ = simulate_rows(lattice, f, mu0, z)
    # every row against the backward value at its node, the terminal level
    # (which holds the terminal itself) last: node j of walk w at level k
    # is entry B k (k + 1) / 2 + w (k + 1) + j of the levels laid end to end
    at = np.concatenate([w * (k + 1) + j + mu0.size * k * (k + 1) // 2
                         for k, (w, j) in enumerate(zip(walks, nodes))])
    err = np.abs(np.concatenate(states)
                 - np.concatenate([v.reshape(-1) for v in y])[at])
    max_err = float(np.max(err[-nodes[-1].size:]))
    interior = float(np.max(err))
    return {"max_error": max_err, "max_interior_error": interior,
            "scheme": scheme, "mu0": float(mu0) if mu0.ndim == 0 else mu0,
            "n_rows": len(err)}
