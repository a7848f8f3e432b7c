"""Lattice solver for threshold-constrained backward equations.

The package prices terminal losses whose terminal condition is pinned only
in (nonlinear) expectation: a controlled threshold process selects how the
constraint is spread across scenarios, the primal layer minimizes the
priced loss over admissible controls, and the dual layer certifies the
answer through Fenchel-type bounds.
"""

__version__ = "0.1.0"

from .lattice import Lattice, LatticeError, build_lattice, half_sum
from .drivers import (DRIVER_BUILDERS, LOSS_BUILDERS, ConjugateDomainError,
                      Driver, LossPair, concave_conjugate, convex_conjugate,
                      make_driver, make_loss)
from .bsde import (Corridor, SchemeError, comparison_check, compute_corridor,
                   estimation_gap, exact_scheme_for, monotone_step_ok,
                   solve_bsde, solve_on_path_tree, solve_on_product_tree)
from .control import (PolicyError, admissible, representation_roundtrip,
                      simulate_rows)
from .primal import (GreedyPlan, PrimalError, PrimalScenario, ValueSurface,
                     attainment_check, brute_force_policy_value,
                     brute_force_weak_formulation, continuity_modulus,
                     convexity_check, dpp_check, greedy_plan,
                     monotonicity_violation, primal_value_dp,
                     restriction_check, two_point_envelope, value_curve)
from .dual import (DualControls, DualFeasibilityError, dual_bound,
                   dual_objective, dual_value, first_order_residuals,
                   slope_searches, window_search)
from .scenario import (Scenario, ScenarioError, build_scenario, catalogue,
                       catalogue_scenario)
from .runner import execute
from .acceptance import CRITERIA, verify_all

__all__ = [
    "Lattice", "LatticeError", "build_lattice", "half_sum",
    "DRIVER_BUILDERS", "LOSS_BUILDERS", "ConjugateDomainError", "Driver",
    "LossPair", "concave_conjugate", "convex_conjugate", "make_driver",
    "make_loss",
    "Corridor", "SchemeError", "comparison_check",
    "compute_corridor", "estimation_gap", "exact_scheme_for",
    "monotone_step_ok", "solve_bsde", "solve_on_path_tree",
    "solve_on_product_tree",
    "PolicyError", "admissible", "representation_roundtrip",
    "simulate_rows",
    "GreedyPlan", "PrimalError", "PrimalScenario", "ValueSurface",
    "attainment_check", "brute_force_policy_value",
    "brute_force_weak_formulation", "continuity_modulus", "convexity_check",
    "dpp_check", "greedy_plan", "monotonicity_violation", "primal_value_dp",
    "restriction_check", "two_point_envelope", "value_curve",
    "DualControls", "DualFeasibilityError", "dual_bound", "dual_objective",
    "dual_value", "first_order_residuals", "slope_searches", "window_search",
    "Scenario", "ScenarioError", "build_scenario", "catalogue",
    "catalogue_scenario",
    "execute",
    "CRITERIA", "verify_all",
    "__version__",
]
