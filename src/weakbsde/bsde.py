"""Backward solver on the lattice: nonlinear conditional expectations.

One backward step from level k+1 to level k reads

    E  = (up + down) / 2                    exact conditional expectation
    Z  = (up - down) / (2 sqrt(dt))         discrete martingale slope
    Y  = E + f(t_k, ystar, Z) * dt

with ystar = E for the explicit scheme and ystar = Y for the implicit one,
a fixed point solved to 1e-13 per element: each value stops at its own
first iterate that moved by at most that, so every value of either scheme
depends on its own (up, down) pair only, never on the batch it is priced
in.  The Z extraction is the exact discrete representation coefficient,
which is what makes the forward/backward roundtrip in the control module
machine-exact.

Because no value depends on its batch, solve_bsde, the one backward
solve over the recombining lattice, takes a stack of terminals,
(..., L + 1), in one backward pass and gives each terminal the bits it
gets alone: comparison_check, the corridor, the a-priori envelope
(primal.apriori_bound_check) and control.representation_roundtrip solve
their terminals as one stack.

The explicit step is monotone in (up, down) as long as

    lipschitz_z * sqrt(dt) + lipschitz_y * dt <= 1

which is the standing step condition for every comparison-based result.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .drivers import Driver
from .lattice import Lattice, LatticeError, half_sum

FIXED_POINT_TOL = 1e-13
MAX_FIXED_POINT_ITERS = 200


class SchemeError(ValueError):
    """Scheme preconditions violated (step condition, contraction, names)."""


def monotone_step_ok(lattice: Lattice, d: Driver) -> bool:
    return d.lipschitz_z * lattice.sqrt_dt + d.lipschitz_y * lattice.dt <= 1.0 + 1e-12


def _require_step_condition(lattice: Lattice, d: Driver, scheme: str) -> None:
    if monotone_step_ok(lattice, d):
        return
    msg = (
        f"monotone step condition violated for driver {d.name!r}: "
        f"Cz*sqrt(dt) + Cy*dt = "
        f"{d.lipschitz_z * lattice.sqrt_dt + d.lipschitz_y * lattice.dt:.3g} > 1"
    )
    if scheme == "explicit":
        raise SchemeError(msg + "; refine the grid or use the implicit scheme")
    warnings.warn(msg + "; comparison-based checks may fail", RuntimeWarning)


def exact_scheme_for(d: Driver) -> str:
    """Scheme whose one-step map exactly inverts forward Euler for this driver.

    The forward threshold recursion evaluates the driver at the current
    state, so drivers with y-dependence need the implicit backward step to
    make roundtrips exact; y-independent drivers are exact either way.
    """
    return "implicit" if d.depends_on_y else "explicit"


def _one_step(d: Driver, t: float, up: np.ndarray, down: np.ndarray,
              sqrt_dt: float, dt: float, scheme: str) -> tuple:
    e = 0.5 * (up + down)
    z = (up - down) / (2.0 * sqrt_dt)
    if scheme == "explicit":
        return e + np.asarray(d.fn(t, e, z), float) * dt, z, 0
    # implicit: y = e + f(t, y, z) dt, a contraction for Cy*dt < 1.  Each
    # element keeps its own first iterate that moved by at most the
    # tolerance, so its bits do not depend on the rest of the batch
    y = e
    done = np.zeros(e.shape, dtype=bool)
    for it in range(1, MAX_FIXED_POINT_ITERS + 1):
        y_next = e + np.asarray(d.fn(t, y, z), float) * dt
        settled = np.abs(y_next - y) <= FIXED_POINT_TOL
        y = np.where(done, y, y_next)
        done |= settled
        if done.all():
            return y, z, it
    raise SchemeError(
        f"implicit fixed point did not reach {FIXED_POINT_TOL} in "
        f"{MAX_FIXED_POINT_ITERS} iterations (driver {d.name!r})"
    )


def solve_bsde(lattice: Lattice, d: Driver, terminal, *, scheme: str = "explicit",
               terminal_level: int | None = None, stop_level: int = 0) -> tuple:
    """Backward induction from a terminal, or a stack of them, down to
    stop_level: the one backward solve over the recombining lattice.

    terminal is (..., L + 1), one level-L value per node for each terminal
    of the leading axes, with L = terminal_level (default N); the solve
    takes at least one step, so stop_level must lie below L.  Returns
    (y, z, fixed_point_iters): y[i] the (..., k + 1) values of level
    k = stop_level + i, up to L (y[-1] is the terminal itself), z[i] the
    level-k slopes, below L, and fixed_point_iters the most fixed-point
    iterations of any step.  _one_step prices each value on its own
    (up, down) pair, so every terminal of a stack gets the bits it gets
    alone.
    """
    term_level = lattice.steps if terminal_level is None else int(terminal_level)
    if scheme not in ("explicit", "implicit"):
        raise SchemeError(f"unknown scheme {scheme!r}")
    vals = np.asarray(terminal)
    if vals.shape[-1:] != (term_level + 1,):
        raise LatticeError(f"terminal has shape {vals.shape}, "
                           f"expected (..., {term_level + 1})")
    vals = vals.astype(float, copy=False)
    if not np.isfinite(vals).all():
        raise LatticeError("terminal field contains non-finite values")
    if not (0 <= stop_level < term_level <= lattice.steps):
        raise LatticeError(
            f"need 0 <= stop_level < terminal_level <= {lattice.steps}"
        )
    _require_step_condition(lattice, d, scheme)
    if scheme == "implicit" and d.lipschitz_y * lattice.dt >= 1.0:
        raise SchemeError("implicit fixed point needs lipschitz_y * dt < 1")

    dt, sq = lattice.dt, lattice.sqrt_dt
    y_slabs, z_slabs = [vals], []
    iters = 0
    for k in range(term_level - 1, stop_level - 1, -1):
        nxt = y_slabs[-1]
        y, z, it = _one_step(d, lattice.time_at(k), nxt[..., 1:],
                             nxt[..., :-1], sq, dt, scheme)
        iters = max(iters, it)
        y_slabs.append(y)
        z_slabs.append(z)
    return y_slabs[::-1], z_slabs[::-1], iters


@dataclass(frozen=True)
class Corridor:
    """Admissibility band: the nonlinear expectations of the terminal 0 and
    1 fields under the constraint driver, one value per level.

    A driver reads (t, y, z) only, so every node of a level steps the same
    constant (up = down) through the same arithmetic: the solve is the same
    at each node, bit for bit, and its slope is exactly 0.  floor[k] and
    ceiling[k] are node 0 of the two solves, priced as one stack.
    """

    floor: np.ndarray    # (N + 1,)
    ceiling: np.ndarray  # (N + 1,)

    def bounds_at(self, k: int) -> tuple:
        return float(self.floor[k]), float(self.ceiling[k])


def compute_corridor(lattice: Lattice, d: Driver, *,
                     scheme: str = "explicit") -> Corridor:
    n = lattice.steps
    edges = np.repeat([[0.0], [1.0]], n + 1, axis=1)
    y = solve_bsde(lattice, d, edges, scheme=scheme)[0]
    return Corridor(floor=np.array([v[0, 0] for v in y]),
                    ceiling=np.array([v[1, 0] for v in y]))


def comparison_check(lattice: Lattice, d: Driver, terminal_low, terminal_high, *,
                     scheme: str = "explicit") -> dict:
    """Solve ordered terminal pairs and report the worst order violation.

    terminal_low and terminal_high are one (N + 1,) pair or a stack of
    pairs, (..., N + 1), all solved in one pass.  Returns max over all pairs
    and nodes of (Y_low - Y_high); nonpositive means the discrete
    comparison principle held.
    """
    lo = np.asarray(terminal_low, float)
    hi = np.asarray(terminal_high, float)
    if lo.shape != hi.shape:
        raise LatticeError("terminal fields must share a shape")
    if np.any(lo > hi):
        raise LatticeError("terminal_low must be <= terminal_high nodewise")
    y = solve_bsde(lattice, d, np.stack((lo, hi)), scheme=scheme)[0]
    worst = float(np.max([np.max(v[0] - v[1]) for v in y]))
    return {"max_violation": worst}


def estimation_gap(lattice: Lattice, g: Driver, terminal_values, k: int,
                   span: int) -> dict:
    """Distance between the nonlinear and the plain conditional expectation.

    terminal_values live at level k + span, one (k + span + 1,) array or a
    stack of them; the gap is the max over level-k nodes (and terminals)
    of |E_g - E|, with E_g the level-k values of one explicit solve_bsde
    from level k + span, and shrinks linearly in the window span * dt.
    """
    level = k + span
    if not (0 <= k < level <= lattice.steps):
        raise LatticeError("need 0 <= k < k + span <= steps")
    vals = np.asarray(terminal_values, float)
    nonlinear = solve_bsde(lattice, g, vals, terminal_level=level,
                           stop_level=k)[0][0]
    linear = vals
    for _ in range(span):
        linear = half_sum(linear)
    gap = float(np.max(np.abs(nonlinear - linear)))
    return {"gap": gap, "window": span * lattice.dt}


# ---------------------------------------------------------------------------
# path-tree (non-recombining) backward solver for path-dependent terminals
# ---------------------------------------------------------------------------

def solve_on_path_tree(lattice: Lattice, d: Driver, leaf_values: np.ndarray, *,
                       scheme: str = "explicit"):
    """Backward induction over the full binary tree, returning root values.

    leaf_values is (..., 2^N): one value per path, extra leading axes are
    carried through (vectorized over candidate batches).  Returns the root
    values (...,), or a float for a single leaf vector.
    """
    _require_step_condition(lattice, d, scheme)
    n = lattice.steps
    vals = np.asarray(leaf_values, dtype=float)
    if vals.shape[-1] != 2**n:
        raise LatticeError(f"expected {2**n} leaf values, got {vals.shape[-1]}")
    dt, sq = lattice.dt, lattice.sqrt_dt
    v = vals
    for k in range(n - 1, -1, -1):
        up, down = v[..., 0::2], v[..., 1::2]
        v, _, _ = _one_step(d, lattice.time_at(k), up, down, sq, dt, scheme)
    return v[..., 0] if v.ndim > 1 else float(v[0])


def solve_on_product_tree(lattice: Lattice, d: Driver, leaf_sets, *,
                          scheme: str = "explicit",
                          stop_level: int = 0) -> np.ndarray:
    """Values at stop_level of the path-tree solve for every leaf vector
    drawn from per-leaf candidate sets.

    leaf_sets is (2^N, q): row i holds the q candidate values of leaf i.
    A node's values are the outer combination of its children's (up child
    most significant), one entry per assignment of the leaves below it, in
    C order of their per-leaf indices (leftmost leaf most significant, as
    np.indices orders them).  At stop_level 0 the result is the root's
    q^(2^N) values; above the root it is (2^stop_level, w), row j holding
    the values of prefix node j (up first), so a caller can run the
    remaining full-size steps itself, a block at a time.  Each level is one
    _one_step call over all its nodes, on the distinct (up, down) pairs
    that solve_on_path_tree would see on the materialised vectors, so every
    value matches it bit for bit.
    """
    _require_step_condition(lattice, d, scheme)
    n = lattice.steps
    v = np.asarray(leaf_sets, dtype=float)
    if v.ndim != 2 or v.shape[0] != 2**n:
        raise LatticeError(f"expected {2**n} leaf sets, got shape {v.shape}")
    if not 0 <= stop_level <= n:
        raise LatticeError(f"need 0 <= stop_level <= {n}, got {stop_level}")
    dt, sq = lattice.dt, lattice.sqrt_dt
    for k in range(n - 1, stop_level - 1, -1):
        v, _, _ = _one_step(d, lattice.time_at(k), v[0::2, :, None],
                            v[1::2, None, :], sq, dt, scheme)
        v = v.reshape(2**k, -1)
    return v[0] if stop_level == 0 else v
