"""Reference certificate by enumeration of all 2^N paths.

The package prices a time-constant candidate on the N + 1 lattice nodes
(dual._certificates).  The reference here prices per-step profiles
(u_k, v_k, p_k, q_k) on the path-prefix tree, the way dual_objective did
before the node sum replaced it: a level-j quantity depends only on a
path's first j signs and is held once per length-j prefix, in sign_matrix
order (prefix h has children 2h, up, and 2h + 1, down).  Each adjoint is a
left-to-right product of its step factors, each path sums its running
terms in the order ndarray.sum takes over a contiguous row of N
(_path_sums), and the 2^N path totals are averaged in one mean.  Guarded
at MAX_PATH_LEVELS levels.

sign_matrix, the path-prefix indexing that the references here and in
prefix_walk.py share, is defined here: no package code indexes paths by
their signs.
"""

from functools import lru_cache

import numpy as np

from weakbsde.drivers import (ConjugateDomainError, concave_conjugate,
                              convex_conjugate)
from weakbsde.dual import POSITIVITY_MARGIN, DualFeasibilityError
from weakbsde.lattice import LatticeError

# the references enumerate all 2^N paths, so they stop at this depth
MAX_PATH_LEVELS = 20


@lru_cache(maxsize=32)
def sign_matrix(n: int) -> np.ndarray:
    """(2^n, n) matrix of path signs, one row per path p = 0..2^n - 1.

    Bit (n-1-k) of p encodes step k: 0 -> +1 (up), 1 -> -1 (down).  Step 0
    is the top bit, so row 0 is the all-up path, row 2^n - 1 the all-down
    one, and the length-k prefix of path p is p >> (n - k).
    """
    if n > MAX_PATH_LEVELS:
        raise LatticeError(f"sign_matrix guarded at n <= {MAX_PATH_LEVELS}")
    p = np.arange(2**n, dtype=np.int64)[:, None]
    bits = (p >> (n - 1 - np.arange(n))[None, :]) & 1
    out = np.where(bits == 0, 1, -1).astype(np.int8)
    out.flags.writeable = False
    return out

# the two step signs in sign_matrix order: an up step, then a down step
UP_DOWN = sign_matrix(1)[:, 0]


def _add(x, y):
    """x + y for two quantities on the prefix tree, (rows, prefixes) each:
    the one on fewer prefixes is spread over the other's.  Both operand
    orders give the same bits, since floating-point addition commutes."""
    if x.shape[-1] > y.shape[-1]:
        x, y = y, x
    rows, width = x.shape
    return (x[..., None] + y.reshape(rows, width, -1)).reshape(rows, -1)


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


def path_tree_adjoints(lattice, profiles):
    """The two adjoints L and A / slope at every level, (1, 2^j) each on
    the level-j prefixes, and the per-step profiles as four arrays of N.

    profiles is (u, v, p, q), each a length-N profile or a constant.
    Raises DualFeasibilityError where a step factor drops below the
    positivity margin.
    """
    n, dt, sq = lattice.steps, lattice.dt, lattice.sqrt_dt
    if n > MAX_PATH_LEVELS:
        raise LatticeError(f"path enumeration capped at {MAX_PATH_LEVELS} "
                           "levels")
    u, v, p, q = (np.array(np.broadcast_to(np.asarray(x, dtype=float), (n,)))
                  for x in profiles)
    adjoints = []
    for drift, noise in ((u, v), (p, q)):
        if np.min(1.0 + drift * dt - np.abs(noise) * sq) < POSITIVITY_MARGIN:
            raise DualFeasibilityError(f"an adjoint factor drops below the "
                                       f"{POSITIVITY_MARGIN} margin")
        levels = [np.ones((1, 1))]
        for k in range(n):
            fac = 1.0 + drift[k] * dt + noise[k] * UP_DOWN * sq
            level = np.empty((1, levels[-1].shape[-1], 2))
            np.multiply(levels[-1], fac[0], out=level[..., 0])
            np.multiply(levels[-1], fac[1], out=level[..., 1])
            levels.append(level.reshape(1, -1))
        adjoints.append(levels)
    return adjoints, (u, v, p, q)


def path_tree_certificate(lattice, slope, profiles, d_f, d_g, lp) -> float:
    """The certificate of slope and the per-step profiles (u, v, p, q) by
    enumeration of every path; raises where the package raises."""
    (l_levels, a_levels), (u, v, p, q) = path_tree_adjoints(lattice,
                                                             profiles)
    n = lattice.steps
    gt = np.array([float(convex_conjugate(d_g, u[k], v[k]))
                   for k in range(n)])
    ft = np.array([float(concave_conjugate(d_f, p[k], q[k]))
                   for k in range(n)])
    if not np.all(np.isfinite(gt)):
        raise ConjugateDomainError("value profile leaves the g-conjugate "
                                   "domain")
    if not np.all(np.isfinite(ft)):
        raise ConjugateDomainError("threshold profile leaves the "
                                   "f-conjugate domain")
    terms = [l_levels[j] * gt[j] - slope * a_levels[j] * ft[j]
             for j in range(n)]
    l_end, a_end = l_levels[-1], slope * a_levels[-1]
    ratio = a_end / l_end
    polar = np.asarray(lp.polar(ratio.ravel()), dtype=float)
    paths = _add(_path_sums(terms) * lattice.dt,
                 l_end * polar.reshape(ratio.shape))
    return float(paths.mean(axis=-1)[0])
