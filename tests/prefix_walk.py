"""Reference forward walk over every path prefix.

control.simulate_rows walks the distinct (node, state, latch) rows of each
level.  The walk here steps all 2^k prefixes of level k at once, in
sign-matrix prefix order, through the same _truncate latches and
_children expression, so the states it reaches at a level are the rows'
states with repeats.  It is guarded at MAX_PATH_LEVELS levels.
"""

from functools import lru_cache

import numpy as np

from weakbsde.bsde import exact_scheme_for, solve_bsde
from weakbsde.control import _children, _interleave, _truncate
from weakbsde.lattice import LatticeError

from path_tree import MAX_PATH_LEVELS


@lru_cache(maxsize=64)
def prefix_up_counts(k: int) -> np.ndarray:
    """Up-move count j for every length-k path prefix (indexed like
    sign_matrix).

    Built from level k - 1: prefix h has its up child at 2h (count + 1)
    and its down child at 2h + 1 (same count).
    """
    if k > MAX_PATH_LEVELS:
        raise LatticeError(f"prefix tables guarded at k <= {MAX_PATH_LEVELS}")
    if k == 0:
        counts = np.zeros(1, dtype=np.int64)
    else:
        parent = prefix_up_counts(k - 1)
        counts = np.empty(2 * parent.size, dtype=np.int64)
        counts[0::2] = parent + 1
        counts[1::2] = parent
    counts.flags.writeable = False
    return counts


def simulate_all_prefixes(lattice, f, mu0, controls, corridor=None) -> tuple:
    """Forward recursion over every path prefix at once.

    controls[k] is the (k + 1,) array of level-k node slopes.  With a
    corridor, every path's slopes are truncated at its edges (_truncate).
    Returns (states, latched): states[k] has shape (2^k,) in sign-matrix
    prefix order, and latched[k] holds whether each prefix reached an edge
    before level k (latched is None without a corridor).
    """
    if lattice.steps > MAX_PATH_LEVELS:
        raise LatticeError(f"prefix simulation guarded at N <= "
                           f"{MAX_PATH_LEVELS}")
    states = [np.array([float(mu0)])]
    latched = [np.zeros(1, dtype=bool)]
    for k in range(lattice.steps):
        m = states[k]
        a = np.asarray(controls[k], dtype=float)[prefix_up_counts(k)]
        if corridor is not None:
            # _truncate's latches, then one step of every prefix at its
            # truncated slope: the row walk steps only the latched rows
            # again, and must reach the same bits
            latch = _truncate(lattice, f, corridor, k, m, a, latched[k])[2]
            a = np.where(latch, 0.0, a)
            # both children inherit their parent's updated latch
            latched.append(np.repeat(latch, 2))
        states.append(_interleave(*_children(lattice, f, k, m, a)))
    return states, latched if corridor is not None else None


def prefix_roundtrip(lattice, f, terminal, scheme=None) -> dict:
    """representation_roundtrip's errors measured on every path prefix."""
    if scheme is None:
        scheme = exact_scheme_for(f)
    y, z, _ = solve_bsde(lattice, f, terminal, scheme=scheme)
    states, _ = simulate_all_prefixes(lattice, f, y[0][0], z)
    n = lattice.steps
    target = np.asarray(terminal, float)[prefix_up_counts(n)]
    max_err = float(np.max(np.abs(states[n] - target)))
    interior = 0.0
    for k in range(n + 1):
        nodes = y[k][prefix_up_counts(k)]
        interior = max(interior, float(np.max(np.abs(states[k] - nodes))))
    return {"max_error": max_err, "max_interior_error": interior}
