"""Controlled threshold processes on the lattice.

Node controls pick the slope a of the forward recursion

    M_{k+1} = M_k - f(t_k, M_k, a) * dt + a * dW_{k+1},   dW = +/- sqrt(dt),

which is the discrete driver-martingale dynamics of the threshold state.
Admissibility means the state stays inside the corridor spanned by the
nonlinear expectations of the terminal fields 0 and 1.

simulate_all_prefixes takes one slope per lattice node and steps every
path prefix of a level at once; given the corridor, it truncates each
path's slopes to 0 once the path reaches an edge.  admissible measures
the worst corridor excursion of prefix states.  _children is the one
forward step: the simulation here and the primal backup, greedy plan and
policy oracle all call it.  The greedy attainment policy is not simulated
here: its control depends on the state alone, so primal.greedy_plan steps
the distinct (level, m) states instead of the 2^k prefixes.
"""

from __future__ import annotations

import numpy as np

from .bsde import Corridor, exact_scheme_for, solve_bsde
from .drivers import Driver
from .lattice import Lattice, LatticeError, MAX_PATH_LEVELS, prefix_up_counts

HIT_TOL = 1e-9


class PolicyError(ValueError):
    pass


def _children(lattice: Lattice, f: Driver, k: int, m, a) -> tuple:
    """Up and down successors m - f(t_k, m, a) dt +/- a sqrt(dt) of states m
    under controls a (broadcast together)."""
    base = m - np.asarray(f.fn(lattice.time_at(k), m, a), float) * lattice.dt
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
              m: np.ndarray, a: np.ndarray, latched: np.ndarray) -> np.ndarray:
    """The level-k slopes a of prefix states m, truncated at the corridor.

    A path keeps its slope until it first reaches an edge, and takes slope
    0 from then on, the edges' own slope (a constant terminal has Z = 0):
    latched holds, per prefix, whether an edge has been reached, and is
    updated in place.  Reaching is detected two ways: the state sits within
    HIT_TOL of an edge, or the proposed step would land strictly beyond a
    next-level edge.  The second (predictive) trigger is the discrete
    stand-in for continuous paths touching the boundary before crossing:
    without it a large control could jump straight across the corridor and
    no truncation could repair the excursion after the fact.
    """
    up, dn = _children(lattice, f, k, m, a)
    lo, hi = corridor.bounds_at(k)
    lo_next, hi_next = corridor.bounds_at(k + 1)
    latched |= ((m <= lo + HIT_TOL) | (m >= hi - HIT_TOL)
                | (up < lo_next) | (dn < lo_next)
                | (up > hi_next) | (dn > hi_next))
    return np.where(latched, 0.0, a)


def simulate_all_prefixes(lattice: Lattice, f: Driver, mu0: float, controls,
                          corridor: Corridor | None = None) -> list:
    """Forward recursion over every path prefix at once.

    controls[k] is the (k + 1,) array of level-k node slopes, k < N.  With
    a corridor, every path's slopes are truncated at its edges (_truncate).
    Returns the states: states[k] has shape (2^k,) in sign-matrix prefix
    order.
    """
    n = lattice.steps
    if n > MAX_PATH_LEVELS:
        raise LatticeError(f"prefix simulation guarded at N <= {MAX_PATH_LEVELS}")
    if len(controls) != n:
        raise PolicyError(f"need controls for levels 0..{n - 1}, "
                          f"got {len(controls)}")
    states = [np.array([float(mu0)])]
    latched = np.zeros(1, dtype=bool)
    for k in range(n):
        level = np.asarray(controls[k], dtype=float)
        if level.shape != (k + 1,):
            raise PolicyError(f"level {k} controls have shape {level.shape}, "
                              f"expected ({k + 1},)")
        m, a = states[k], level[prefix_up_counts(k)]
        if corridor is not None:
            a = _truncate(lattice, f, corridor, k, m, a, latched)
            # both children inherit their parent's latch
            latched = np.repeat(latched, 2)
        states.append(_interleave(*_children(lattice, f, k, m, a)))
    return states


def admissible(corridor: Corridor, states) -> dict:
    """Measure the corridor constraint on prefix states (states[k] in
    prefix order, as simulate_all_prefixes returns them).

    Returns the worst signed excursion outside [floor, ceiling] (0 when
    every state stays inside); the caller judges it against a tolerance.
    """
    worst = 0.0
    for k, m in enumerate(states):
        worst = max(worst, float(np.max(_excursion(corridor, k, m))))
    return {"worst_violation": worst}


def representation_roundtrip(lattice: Lattice, f: Driver, terminal, *,
                             scheme: str | None = None) -> dict:
    """Solve backward, feed the slopes forward, compare with the terminal.

    terminal is the (N + 1,) array of level-N values.  With the scheme
    matched to the driver (implicit when f depends on y) the forward
    recursion inverts the backward step exactly, so the terminal field is
    reproduced on every path to machine precision.
    """
    if scheme is None:
        scheme = exact_scheme_for(f)
    sol = solve_bsde(lattice, f, terminal, scheme=scheme)
    mu0 = sol.value_at_root()
    states = simulate_all_prefixes(lattice, f, mu0, sol.z.slabs)
    n = lattice.steps
    target = np.asarray(terminal, float)[prefix_up_counts(n)]
    max_err = float(np.max(np.abs(states[n] - target)))
    # interior check: the simulated state must sit on the backward values
    interior = 0.0
    for k in range(n + 1):
        nodes = sol.y.at(k)[prefix_up_counts(k)]
        interior = max(interior, float(np.max(np.abs(states[k] - nodes))))
    return {"max_error": max_err, "max_interior_error": interior,
            "scheme": scheme, "mu0": mu0}
