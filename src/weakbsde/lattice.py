"""Recombining binomial lattice with exact conditional expectations.

The lattice is the discrete stand-in for a Brownian filtration: level k
holds k + 1 nodes, the increment over one step is +/- sqrt(dt) with
probability 1/2 each, and every conditional expectation is the exact
half-sum of the two successor values.  Everything downstream (BSDE
solver, control simulation, dual functional) is built on these exact
half-sums, so there is no sampling error anywhere in the package.

Values on the lattice are plain level arrays: level k's values are an
array whose last axis holds its k + 1 nodes, j up-moves at index j, and
a solve returns one such array per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Node-indexed fields stay cheap up to fairly deep lattices.
MAX_LEVELS = 64


class LatticeError(ValueError):
    """Raised for malformed lattice inputs (sizes, levels, guards)."""


@dataclass(frozen=True)
class Lattice:
    """Recombining binomial tree on the time grid t_k = (offset + k) * dt.

    Node (k, j) is the level-k node reached by j up-moves; its successors
    are (k+1, j+1) on an up-move and (k+1, j) on a down-move.
    """

    horizon: float
    steps: int
    step_offset: int = 0  # integer shift so sub-grids reuse the exact parent times

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def sqrt_dt(self) -> float:
        return math.sqrt(self.dt)

    def time_at(self, k: int) -> float:
        return (self.step_offset + k) * self.dt

    def brownian_values(self, k: int) -> np.ndarray:
        """W at every level-k node: (2j - k) * sqrt(dt), j = 0..k."""
        self._check_level(k)
        return (2.0 * np.arange(k + 1) - k) * self.sqrt_dt

    def _check_level(self, k: int) -> None:
        if not (0 <= k <= self.steps):
            raise LatticeError(f"level {k} outside 0..{self.steps}")


def build_lattice(horizon: float, steps: int, step_offset: int = 0) -> Lattice:
    """Validated constructor for the recombining lattice."""
    if not (isinstance(steps, (int, np.integer)) and not isinstance(steps, bool)):
        raise LatticeError(f"steps must be an integer, got {steps!r}")
    if not (1 <= steps <= MAX_LEVELS):
        raise LatticeError(f"steps must be within 1..{MAX_LEVELS}, got {steps}")
    if not (np.isfinite(horizon) and horizon > 0):
        raise LatticeError(f"horizon must be finite and positive, got {horizon!r}")
    return Lattice(float(horizon), int(steps), int(step_offset))


def half_sum(next_values: np.ndarray) -> np.ndarray:
    """One-level conditional expectation on level arrays ((..., k + 2) ->
    (..., k + 1))."""
    next_values = np.asarray(next_values, dtype=float)
    return 0.5 * (next_values[..., 1:] + next_values[..., :-1])

