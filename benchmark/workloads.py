"""Seeded workload inputs and the operations the benchmark times.

Every input the program sees is generated here from the workload seed:
scenario configs for ``certify`` and ``surface`` (fed to
``build_scenario``) and the seed handed to ``verify_all``.  Nothing is
added to the package catalogue.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from tracing import rebind

# 0.05-grid inside [0.2, 0.8]: where certify draws its dual thresholds
DUAL_GRID = tuple(round(0.05 * i, 10) for i in range(4, 17))
# 0.025-grid inside [0.05, 0.95]: where surface draws its primal thresholds
PRIMAL_GRID = tuple(round(0.025 * i, 10) for i in range(2, 39))

# the first seed whose certify draw is {0.25, 0.5, 0.75}, the thresholds of
# the catalogue's risk_pair scenario; the recorded reference values use it
DEFAULT_SEED = 24

STANDARD_CHECKS = ["attainment", "monotonicity", "convexity", "continuity",
                   "dpp", "weak_duality", "value_envelope", "restriction"]
SURFACE_CHECKS = ["attainment", "monotonicity", "convexity", "continuity",
                  "dpp", "value_envelope", "restriction", "comparison",
                  "roundtrip", "admissibility"]
POWER2 = {"name": "power", "params": {"p": 2.0}}

# The acceptance battery without its two dual criteria: 12 (weak duality on
# the catalogue's kinked duals, ~14 s) and 13 (strong duality, which reuses
# 12's searches).  With them one battery is a single ~25 s operation whose
# time swings by a third between the fast and slow states of a shared host,
# too wide for the bound; certify covers the dual search.  What remains is
# ~10 s, dominated by the exhaustive oracles of criterion 7.
VERIFY_CRITERIA = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14, 15, 16)
# reduced sizes for the harness self-test: same code paths, seconds not minutes
SMALL_VERIFY = (1, 2, 3, 4, 15, 16)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def certify_thresholds(seed: int) -> list:
    picks = _rng(seed, 1).choice(DUAL_GRID, size=3, replace=False)
    return sorted(float(m) for m in picks)


def surface_thresholds(seed: int) -> list:
    picks = _rng(seed, 2).choice(PRIMAL_GRID, size=9, replace=False)
    return sorted(float(m) for m in picks)


def certify_config(seed: int, small: bool = False) -> dict:
    """Smooth pair: logcosh_z (sign -1) constraint, softplus_z cost."""
    thresholds = certify_thresholds(seed)
    return {
        "name": "bench_certify",
        "lattice": {"horizon": 1.0, "steps": 4 if small else 8},
        "driver_f": {"name": "logcosh_z", "params": {"kappa": 0.3, "sign": -1}},
        "driver_g": {"name": "softplus_z", "params": {"kappa": 0.2}},
        "loss": POWER2,
        "primal": {"grid_size": 41 if small else 201, "n_a": 7 if small else 21},
        "dual": {"enabled": True, "rounds": 1 if small else 3,
                 "m_list": thresholds[:1] if small else thresholds},
        "checks": STANDARD_CHECKS,
        "seed": seed,
    }


def surface_config(seed: int, small: bool = False) -> dict:
    """Risk pair on a deep, fine lattice with every non-dual check."""
    return {
        "name": "bench_surface",
        "lattice": {"horizon": 1.0, "steps": 6 if small else 16},
        "driver_f": {"name": "neg_abs_z", "params": {"kappa": 0.3}},
        "driver_g": {"name": "abs_z", "params": {"kappa": 0.2}},
        "loss": POWER2,
        "primal": {"grid_size": 61 if small else 601, "n_a": 9 if small else 41,
                   "m_list": surface_thresholds(seed)},
        "dual": {"enabled": False},
        "checks": SURFACE_CHECKS,
        "seed": seed,
    }


@dataclass
class ExecuteResult:
    seconds: float            # wall time of the execute call alone
    report: dict
    report_bytes: bytes
    root_grid: np.ndarray     # level-0 m-grid, read back from surface.csv
    duals: list               # (m, dual_bound result) pairs, in call order
    artifact_bytes: int


def _root_grid(surface_csv: str) -> np.ndarray:
    grid = []
    with open(surface_csv, "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            level, _, m, _, _ = line.split(",")
            if level != "0":
                break
            # numpy >= 2 writes repr(np.float64) as "np.float64(x)"
            grid.append(float(m.removeprefix("np.float64(").rstrip(")")))
    return np.array(grid)


def run_execute(scenario, work_dir: str) -> ExecuteResult:
    """One ``runner.execute`` with its artifacts in a fresh directory.

    Every ``dual_bound`` result is kept for the gate, which needs the whole
    slope trace while the report holds only the best point.
    """
    import weakbsde.dual
    from weakbsde.runner import execute

    original = weakbsde.dual.dual_bound
    duals = []

    def keep(*args, **kwargs):
        out = original(*args, **kwargs)
        duals.append((float(args[4] if len(args) > 4 else kwargs["m"]), out))
        return out

    undo = rebind(original, keep)
    try:
        with tempfile.TemporaryDirectory(dir=work_dir) as out:
            started = time.perf_counter()
            report = execute(scenario, out, quiet=True)
            seconds = time.perf_counter() - started
            with open(os.path.join(out, "report.json"), "rb") as fh:
                payload = fh.read()
            root = _root_grid(os.path.join(out, "surface.csv"))
            size = sum(os.path.getsize(os.path.join(out, f))
                       for f in os.listdir(out))
    finally:
        undo()
    return ExecuteResult(seconds, report, payload, root, duals, size)


def verify_criteria(small: bool) -> tuple:
    return SMALL_VERIFY if small else VERIFY_CRITERIA


def run_verify(seed: int, small: bool) -> tuple:
    """(seconds, summary) of one acceptance battery."""
    from weakbsde.acceptance import verify_all

    started = time.perf_counter()
    summary = verify_all(only=verify_criteria(small), seed=seed, quiet=True)
    return time.perf_counter() - started, summary
