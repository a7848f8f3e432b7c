"""Controlled threshold processes on the lattice.

A control policy picks the slope a of the forward recursion

    M_{k+1} = M_k - f(t_k, M_k, a) * dt + a * dW_{k+1},   dW = +/- sqrt(dt),

which is the discrete driver-martingale dynamics of the threshold state.
Admissibility means the state stays inside the corridor spanned by the
nonlinear expectations of the terminal fields 0 and 1.

Policies expose a small vectorized protocol (initial_state / control_array)
so that simulate_all_prefixes steps every path prefix of a level at once;
truncated policies are the only stateful ones (they latch once the
corridor edge is hit).  _children is the one forward step: the
simulation here and the primal backup, greedy plan and policy oracle all
call it.  The greedy attainment policy is not simulated here: its
control depends on the state alone, so primal.greedy_plan steps the
distinct (node, m) states instead of the 2^k prefixes.
"""

from __future__ import annotations

import numpy as np

from .bsde import Corridor, exact_scheme_for, solve_bsde
from .drivers import Driver
from .lattice import (AdaptedField, Lattice, LatticeError, MAX_PATH_LEVELS,
                      prefix_up_counts)

HIT_TOL = 1e-9


class PolicyError(ValueError):
    pass


def _children(lattice: Lattice, f: Driver, k: int, m, a) -> tuple:
    """Up and down successors m - f(t_k, m, a) dt +/- a sqrt(dt) of states m
    under controls a (broadcast together)."""
    base = m - np.asarray(f.fn(lattice.time_at(k), m, a), float) * lattice.dt
    return base + a * lattice.sqrt_dt, base - a * lattice.sqrt_dt


def _excursion(corridor: Corridor, k: int, m: np.ndarray) -> np.ndarray:
    """Signed distance of level-k states m (prefix order along the last
    axis) outside [floor, ceiling]; positive means outside."""
    j_idx = prefix_up_counts(k)
    return np.maximum(corridor.floor.at(k)[j_idx] - m,
                      m - corridor.ceiling.at(k)[j_idx])


def _interleave(up: np.ndarray, dn: np.ndarray) -> np.ndarray:
    """Children in prefix order along the last axis: prefix h of level k
    has its up child at 2h and its down child at 2h + 1 of level k + 1."""
    out = np.empty(up.shape[:-1] + (2 * up.shape[-1],))
    out[..., 0::2] = up
    out[..., 1::2] = dn
    return out


class NodePolicy:
    """Control depending on the lattice node only (one value per (k, j))."""

    def __init__(self, lattice: Lattice, values):
        self.lattice = lattice
        self.values = []
        for k, slab in enumerate(values):
            arr = np.asarray(slab, dtype=float)
            if arr.shape != (k + 1,):
                raise PolicyError(
                    f"level {k} controls have shape {arr.shape}, expected ({k + 1},)"
                )
            self.values.append(arr)
        if len(self.values) != lattice.steps:
            raise PolicyError(
                f"need controls for levels 0..{lattice.steps - 1}, "
                f"got {len(self.values)}"
            )

    @classmethod
    def constant(cls, lattice: Lattice, a: float) -> "NodePolicy":
        return cls(lattice, [np.full(k + 1, float(a)) for k in range(lattice.steps)])

    @classmethod
    def zeros(cls, lattice: Lattice) -> "NodePolicy":
        return cls.constant(lattice, 0.0)

    @classmethod
    def from_slopes(cls, z_field: AdaptedField) -> "NodePolicy":
        lat = z_field.lattice
        if z_field.level_lo != 0 or z_field.level_hi != lat.steps - 1:
            raise PolicyError("slope field must span levels 0..N-1")
        return cls(lat, [z_field.at(k) for k in range(lat.steps)])

    def initial_state(self, n_prefixes: int = 1):
        return None

    def control_array(self, k: int, j_idx: np.ndarray, m: np.ndarray, state):
        return self.values[k][j_idx], state


class TruncatedPolicy:
    """Base policy until the corridor edge is first reached, then the
    corridor-tracking slope forever after (per path).

    Hitting is detected two ways: the state sits within HIT_TOL of the
    edge, or the base policy's proposed step would land strictly beyond
    the next-level edge.  The second (predictive) trigger is the discrete
    stand-in for continuous paths touching the boundary before crossing:
    without it a large control could jump straight across the corridor and
    no truncation could repair the excursion after the fact.
    """

    def __init__(self, lattice: Lattice, f: Driver, corridor: Corridor,
                 base, side: str):
        if side not in ("floor", "ceiling"):
            raise PolicyError(f"side must be 'floor' or 'ceiling', got {side!r}")
        self.lattice = lattice
        self.f = f
        self.base = base
        self.corridor = corridor
        self.side = side

    def initial_state(self, n_prefixes: int = 1):
        return (np.zeros(n_prefixes, dtype=bool), self.base.initial_state(n_prefixes))

    def control_array(self, k: int, j_idx: np.ndarray, m: np.ndarray, state):
        latched, base_state = state
        base_a, base_state = self.base.control_array(k, j_idx, m, base_state)
        base_a = np.broadcast_to(np.asarray(base_a, float), m.shape)
        up, dn = _children(self.lattice, self.f, k, m, base_a)
        # sign +1 keeps states above the floor, -1 below the ceiling
        sign = 1.0 if self.side == "floor" else -1.0
        edge = getattr(self.corridor, self.side)
        track = getattr(self.corridor, self.side + "_z").at(k)[j_idx]
        edge_next = sign * edge.at(k + 1)
        hit = sign * m <= sign * edge.at(k)[j_idx] + HIT_TOL
        crossing = ((sign * up < edge_next[j_idx + 1])
                    | (sign * dn < edge_next[j_idx]))
        latched = latched | hit | crossing
        return np.where(latched, track, base_a), (latched, base_state)


def truncate_at_floor(lattice: Lattice, f: Driver, corridor: Corridor, policy):
    return TruncatedPolicy(lattice, f, corridor, policy, "floor")


def truncate_at_ceiling(lattice: Lattice, f: Driver, corridor: Corridor, policy):
    return TruncatedPolicy(lattice, f, corridor, policy, "ceiling")


def simulate_all_prefixes(lattice: Lattice, f: Driver, mu0: float, policy):
    """Forward recursion over every path prefix at once.

    Returns (states, controls): states[k] has shape (2^k,) in sign-matrix
    prefix order, controls[k] the matching applied controls.
    """
    n = lattice.steps
    if n > MAX_PATH_LEVELS:
        raise LatticeError(f"prefix simulation guarded at N <= {MAX_PATH_LEVELS}")
    states = [np.array([float(mu0)])]
    controls = []
    state = policy.initial_state(1)
    for k in range(n):
        m = states[k]
        a, state = policy.control_array(k, prefix_up_counts(k), m, state)
        a = np.asarray(a, float)
        states.append(_interleave(*_children(lattice, f, k, m, a)))
        controls.append(a)
        state = _split_state(state)
    return states, controls


def _split_state(state):
    """Duplicate per-prefix policy state onto both children."""
    if state is None:
        return None
    if isinstance(state, tuple):
        return tuple(_split_state(s) for s in state)
    arr = np.asarray(state)
    return np.repeat(arr, 2)


def admissible(lattice: Lattice, f: Driver, corridor: Corridor, mu0: float,
               policy) -> dict:
    """Measure the corridor constraint along every path.

    Returns the worst signed excursion outside [floor, ceiling] (0 when
    every state stays inside); the caller judges it against a tolerance.
    """
    states, _ = simulate_all_prefixes(lattice, f, mu0, policy)
    worst = 0.0
    for k, m in enumerate(states):
        worst = max(worst, float(np.max(_excursion(corridor, k, m))))
    return {"worst_violation": worst}


def representation_roundtrip(lattice: Lattice, f: Driver, terminal, *,
                             scheme: str | None = None) -> dict:
    """Solve backward, feed the slopes forward, compare with the terminal.

    With the scheme matched to the driver (implicit when f depends on y)
    the forward recursion inverts the backward step exactly, so the
    terminal field is reproduced on every path to machine precision.
    """
    if scheme is None:
        scheme = exact_scheme_for(f)
    sol = solve_bsde(lattice, f, terminal, scheme=scheme)
    policy = NodePolicy.from_slopes(sol.z)
    mu0 = sol.value_at_root()
    states, _ = simulate_all_prefixes(lattice, f, mu0, policy)
    n = lattice.steps
    term = np.asarray(terminal, float) if not isinstance(terminal, AdaptedField) \
        else terminal.at(n)
    target = term[prefix_up_counts(n)]
    max_err = float(np.max(np.abs(states[n] - target)))
    # interior check: the simulated state must sit on the backward values
    interior = 0.0
    for k in range(n + 1):
        nodes = sol.y.at(k)[prefix_up_counts(k)]
        interior = max(interior, float(np.max(np.abs(states[k] - nodes))))
    return {"max_error": max_err, "max_interior_error": interior,
            "scheme": scheme, "mu0": mu0}
