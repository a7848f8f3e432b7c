"""Scenario configs: JSON schema, validation, and the built-in catalogue.

A scenario bundles a lattice, the two drivers, a loss pair, primal grid
settings, dual search settings, and a list of named checks with their
tolerances.  Configs are plain JSON; unknown keys anywhere are rejected so
typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field

from .bsde import compute_corridor, monotone_step_ok
from .drivers import Driver, LossPair, make_driver, make_loss
from .dual import SLOPE_FLOOR
from .lattice import MAX_LEVELS, Lattice, build_lattice
from .primal import (CONTINUITY_OFFSETS, CURVE_TOL, ORACLE_BUDGET,
                     ORACLE_MAX_LEVELS, PrimalScenario, _continuity_base_fits)

SCHEMA_VERSION = 1
DEFAULT_SEED = 90210

KNOWN_CHECKS = (
    "attainment",
    "monotonicity",
    "convexity",
    "continuity",
    "dpp",
    "weak_duality",
    "value_envelope",
    "restriction",
    "comparison",
    "roundtrip",
    "admissibility",
    "equivalence",
)

# primal.m_list's default, the threshold grid of the catalogue scenarios
_DECIMALS = tuple(round(0.1 * i, 10) for i in range(1, 10))
# checks' default; the catalogue's standard checks add restriction
_DEFAULT_CHECKS = ("attainment", "monotonicity", "convexity", "continuity",
                   "dpp", "weak_duality", "value_envelope")

DEFAULT_TOLERANCES = {
    "attainment_extra": 1e-9,      # added to twice the grid slack
    "monotonicity": 1e-10,
    "convexity": 2e-3,
    "continuity_exponent": 0.20,   # PASS needs a fit at or above this
    "dpp_multi_factor": 2.0,       # multi-step residual vs grid spacing
    "weak_duality": 1e-9,
    "value_envelope": 1e-9,
    "restriction": 1e-12,
    "comparison": 1e-14,
    "roundtrip": 1e-12,
    "admissibility": 1e-9,
    "equivalence": 1e-2,
}


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    """Validated, fully-resolved run description."""

    name: str
    lattice: Lattice
    driver_f: Driver
    driver_g: Driver
    loss: LossPair
    grid_size: int
    n_a: int
    scheme: str
    m_list: tuple
    continuity_base: float
    dual_enabled: bool
    l_max: float
    dual_rounds: int
    dual_m_list: tuple
    checks: tuple
    tolerances: dict = field(repr=False)
    seed: int
    config: dict = field(repr=False)  # normalized dict the hash is taken over

    @property
    def config_sha256(self) -> str:
        return config_sha256(self.config)

    def primal(self, grid_size: int | None = None) -> PrimalScenario:
        """The primal DP inputs, on another m-grid size when one is given."""
        return PrimalScenario(
            lattice=self.lattice, driver_f=self.driver_f,
            driver_g=self.driver_g, loss=self.loss,
            grid_size=self.grid_size if grid_size is None else grid_size,
            n_a=self.n_a, scheme=self.scheme,
        )


def config_sha256(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _require_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown keys {sorted(unknown)} in {where}")


def _section(config: dict, key: str, default: dict) -> dict:
    """A copy of the JSON object config[key] (default when absent)."""
    block = config.get(key, default)
    if not isinstance(block, dict):
        raise ScenarioError(f"{key} must be a JSON object, got {block!r}")
    return dict(block)


def _as_number(value, where: str) -> float:
    # a JSON boolean is an int to Python, and a string may parse as a float;
    # neither is a JSON number
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise ScenarioError(f"{where} must be a finite number, "
                            f"got {value!r}") from None


def _as_positive_number(value, where: str) -> float:
    out = _as_number(value, where)
    if not (math.isfinite(out) and out > 0):
        raise ScenarioError(f"{where} must be positive and finite, got {value!r}")
    return out


def _thresholds(values, where: str) -> tuple:
    """A nonempty threshold list: distinct numbers in [0, 1]."""
    # a JSON object iterates over its keys, a string over its characters
    if not isinstance(values, (list, tuple)):
        raise ScenarioError(f"{where} must be a list of numbers, "
                            f"got {values!r}")
    out = tuple(_as_number(m, f"{where} entry") for m in values)
    if not out:
        raise ScenarioError(f"{where} must be nonempty")
    if any(not (0.0 <= m <= 1.0) for m in out):
        raise ScenarioError(f"{where} entries must lie in [0, 1]")
    # the outputs are keyed by threshold, so a repeat would be reported once
    # in some of them and twice in others
    if len(set(out)) != len(out):
        raise ScenarioError(f"{where} repeats a threshold: {values!r}")
    return out


def build_scenario(config: dict) -> Scenario:
    """Validate a config dict and resolve every name against the catalogues."""
    if not isinstance(config, dict):
        raise ScenarioError("scenario config must be a JSON object")
    allowed = ("schema_version", "name", "lattice", "driver_f", "driver_g",
               "loss", "primal", "dual", "checks", "tolerances", "seed")
    _require_keys(config, allowed, "the scenario")
    version = config.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {version!r}")
    name = config.get("name", "unnamed")
    if not isinstance(name, str) or not name:
        raise ScenarioError("name must be a nonempty string")

    lat_cfg = _section(config, "lattice", {})
    _require_keys(lat_cfg, ("horizon", "steps"), "lattice")
    horizon = _as_positive_number(lat_cfg.get("horizon", 1.0), "lattice.horizon")
    steps = lat_cfg.get("steps", 8)
    if not isinstance(steps, int) or isinstance(steps, bool) \
            or not 1 <= steps <= MAX_LEVELS:
        raise ScenarioError(f"lattice.steps must be an integer within "
                            f"1..MAX_LEVELS = {MAX_LEVELS}, got {steps!r}")
    lattice = build_lattice(horizon, steps)

    def resolve(key: str, make, default: str):
        block = _section(config, key, {"name": default})
        _require_keys(block, ("name", "params"), key)
        params = block.get("params", {})
        if not isinstance(params, dict):
            raise ScenarioError(f"{key}.params must be a JSON object, "
                                f"got {params!r}")
        for param, value in params.items():
            # a JSON boolean is an int to Python, and a string may parse as
            # a float; neither is a JSON number.  NaN fails the comparison,
            # and so does an int too large for a float.  Values pass
            # unchanged, so an int stays an int in the hashed config
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not abs(value) <= sys.float_info.max:
                raise ScenarioError(f"{key}.params.{param} must be a finite "
                                    f"number, got {value!r}")
        try:
            return make(block.get("name", default), **params)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{key}: {exc}") from exc

    driver_f = resolve("driver_f", make_driver, "zero")
    driver_g = resolve("driver_g", make_driver, "zero")
    loss = resolve("loss", make_loss, "identity")

    primal_cfg = _section(config, "primal", {})
    _require_keys(primal_cfg, ("grid_size", "n_a", "m_list", "scheme",
                               "continuity_base"), "primal")
    grid_size = primal_cfg.get("grid_size", 201)
    n_a = primal_cfg.get("n_a", 21)
    for label, val, least in (("grid_size", grid_size, 3), ("n_a", n_a, 2)):
        if not isinstance(val, int) or isinstance(val, bool) or val < least:
            raise ScenarioError(f"primal.{label} must be an integer >= {least}")
    scheme = primal_cfg.get("scheme", "explicit")
    if scheme not in ("explicit", "implicit"):
        raise ScenarioError(f"primal.scheme must be explicit/implicit, got {scheme!r}")
    m_list = _thresholds(primal_cfg.get("m_list", _DECIMALS), "primal.m_list")
    continuity_base = _as_number(primal_cfg.get("continuity_base", 0.3),
                                 "primal.continuity_base")
    if not 0.0 <= continuity_base <= 1.0:
        raise ScenarioError("primal.continuity_base must lie in [0, 1], "
                            f"got {continuity_base!r}")

    dual_cfg = _section(config, "dual", {})
    _require_keys(dual_cfg, ("enabled", "l_max", "rounds", "m_list"), "dual")
    dual_enabled = dual_cfg.get("enabled", True)
    if not isinstance(dual_enabled, bool):
        raise ScenarioError(f"dual.enabled must be true or false, "
                            f"got {dual_enabled!r}")
    l_max = _as_positive_number(dual_cfg.get("l_max", 4.0), "dual.l_max")
    if not l_max > SLOPE_FLOOR:
        raise ScenarioError(f"dual.l_max must exceed the smallest slope "
                            f"searched, {SLOPE_FLOOR}, got {l_max!r}")
    dual_rounds = dual_cfg.get("rounds", 3)
    if not isinstance(dual_rounds, int) or isinstance(dual_rounds, bool) \
            or dual_rounds < 1:
        raise ScenarioError("dual.rounds must be a positive integer")
    dual_m_list = _thresholds(dual_cfg.get("m_list", m_list), "dual.m_list")

    checks = config.get("checks", _DEFAULT_CHECKS)
    if not isinstance(checks, (list, tuple)) \
            or not all(isinstance(chk, str) for chk in checks):
        raise ScenarioError(f"checks must be a JSON array of strings, "
                            f"got {checks!r}")
    checks = tuple(checks)
    for chk in checks:
        if chk not in KNOWN_CHECKS:
            raise ScenarioError(
                f"unknown check {chk!r}; known: {sorted(KNOWN_CHECKS)}"
            )
    # a check runs, and is reported, once per time it is named
    if len(set(checks)) != len(checks):
        raise ScenarioError(f"checks repeats a check: {list(checks)!r}")
    # check equivalence runs the policy oracle, one of n_a slopes at each
    # of 2^steps - 1 nodes, on up to ORACLE_MAX_LEVELS levels.  Its slopes
    # are the base grid linspace(-b, b, n_a) alone, which holds the zero
    # slope of the DP's control set only for an odd n_a.
    if "equivalence" in checks and steps <= ORACLE_MAX_LEVELS:
        if n_a**(2**steps - 1) > ORACLE_BUDGET:
            raise ScenarioError(
                f"check equivalence: primal.n_a = {n_a} on lattice.steps = "
                f"{steps} gives {n_a}^{2**steps - 1} policies, over the "
                f"policy oracle's budget, ORACLE_BUDGET = {ORACLE_BUDGET}")
        if n_a % 2 == 0:
            raise ScenarioError(
                f"check equivalence: primal.n_a = {n_a} is even, so the "
                f"policy oracle's slope grid holds no zero slope; use an "
                f"odd primal.n_a")

    # the backward steps raise where a driver breaks the step condition under
    # the explicit scheme, or the implicit fixed point's contraction
    for key, d in (("driver_f", driver_f), ("driver_g", driver_g)):
        implicit_ok = d.lipschitz_y * lattice.dt < 1.0
        if scheme == "explicit" and not monotone_step_ok(lattice, d):
            bound = d.lipschitz_z * lattice.sqrt_dt + d.lipschitz_y * lattice.dt
            raise ScenarioError(
                f"{key}: driver {d.name!r} breaks the monotone step condition "
                f"Cz*sqrt(dt) + Cy*dt = {bound:.3g} > 1 under the explicit "
                "scheme; " + ("primal.scheme \"implicit\" would pass"
                              if implicit_ok else "refine lattice.steps"))
        if scheme == "implicit" and not implicit_ok:
            raise ScenarioError(
                f"{key}: driver {d.name!r} needs lipschitz_y * dt < 1 under "
                f"the implicit scheme, got {d.lipschitz_y * lattice.dt:.3g}; "
                "refine lattice.steps")

    # the dual search prices the concave conjugate of f and the convex
    # conjugate of g, which only a concave f and a convex g carry
    for key, d, shape, has in (
            ("driver_f", driver_f, "concave", driver_f.concave_in_yz),
            ("driver_g", driver_g, "convex", driver_g.convex_in_yz)):
        if dual_enabled and not has:
            raise ScenarioError(
                f"{key}: driver {d.name!r} has no closed-form {shape} "
                "conjugate, which the dual search needs; set dual.enabled "
                "to false")

    # every threshold must lie in the root corridor (within the CURVE_TOL of
    # value_curve), and the continuity check fits V on [base, base + largest
    # offset]; only the corridor knows, and it is cheap to solve here
    lo, hi = compute_corridor(lattice, driver_f, scheme=scheme).bounds_at(0)
    for where, values in (("primal.m_list", m_list),
                          ("dual.m_list", dual_m_list)):
        outside = [m for m in values
                   if m < lo - CURVE_TOL or m > hi + CURVE_TOL]
        if outside:
            raise ScenarioError(
                f"{where} entries {outside!r} lie outside the root corridor "
                f"[{lo:.6g}, {hi:.6g}]")
    if "continuity" in checks \
            and not _continuity_base_fits(lo, hi, continuity_base):
        raise ScenarioError(
            f"primal.continuity_base = {continuity_base!r}: check "
            f"continuity needs base and base + "
            f"{float(CONTINUITY_OFFSETS.max())!r} inside the root "
            f"corridor [{lo:.6g}, {hi:.6g}]")

    # the dual's threshold adjoint is exact only for a y-independent f; for
    # one that reads y its certificate may lie above V (see the dual module)
    if driver_f.depends_on_y:
        for asked, what, fix in (
                (dual_enabled, "the dual search", "set dual.enabled to false"),
                ("weak_duality" in checks, "check weak_duality",
                 "remove it from checks")):
            if asked:
                raise ScenarioError(
                    f"driver_f: driver {driver_f.name!r} depends on y, where "
                    f"{what} gives no valid lower bound; {fix}")

    tolerances = dict(DEFAULT_TOLERANCES)
    user_tol = _section(config, "tolerances", {})
    _require_keys(user_tol, DEFAULT_TOLERANCES, "tolerances")
    for key, val in user_tol.items():
        tolerances[key] = _as_positive_number(val, f"tolerances.{key}")

    seed = config.get("seed", DEFAULT_SEED)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ScenarioError("seed must be a nonnegative integer")

    normalized = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "lattice": {"horizon": horizon, "steps": steps},
        "driver_f": {"name": driver_f.name, "params": driver_f.params},
        "driver_g": {"name": driver_g.name, "params": driver_g.params},
        "loss": {"name": loss.name, "params": loss.params},
        "primal": {"grid_size": grid_size, "n_a": n_a, "m_list": list(m_list),
                   "scheme": scheme, "continuity_base": continuity_base},
        "dual": {"enabled": dual_enabled, "l_max": l_max,
                 "rounds": dual_rounds, "m_list": list(dual_m_list)},
        "checks": list(checks),
        "tolerances": tolerances,
        "seed": seed,
    }
    return Scenario(
        name=name, lattice=lattice, driver_f=driver_f, driver_g=driver_g,
        loss=loss, grid_size=grid_size, n_a=n_a, scheme=scheme, m_list=m_list,
        continuity_base=continuity_base, dual_enabled=dual_enabled,
        l_max=l_max, dual_rounds=dual_rounds, dual_m_list=dual_m_list,
        checks=checks, tolerances=tolerances, seed=seed, config=normalized,
    )


def load_config(path) -> dict:
    """Read a JSON scenario file into a config dict.

    Invalid JSON is reported with its line and column, and the top-level
    value must be an object.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}"
            ) from None
    if not isinstance(config, dict):
        raise ScenarioError(f"{path}: top-level JSON value must be an object")
    return config


# ---------------------------------------------------------------------------
# built-in catalogue
# ---------------------------------------------------------------------------

def catalogue() -> dict:
    """Named ready-to-run configs; values are plain config dicts."""
    standard_checks = [*_DEFAULT_CHECKS, "restriction"]
    tiny = {
        "lattice": {"horizon": 1.0, "steps": 3},
        "primal": {"grid_size": 161, "n_a": 7, "m_list": [0.5]},
        "dual": {"enabled": False},
        "checks": ["equivalence", "monotonicity", "value_envelope"],
    }
    cfgs = {
        "jensen": {
            "name": "jensen",
            "lattice": {"horizon": 1.0, "steps": 8},
            "driver_f": {"name": "zero"},
            "driver_g": {"name": "zero"},
            "loss": {"name": "power", "params": {"p": 2.0}},
            "primal": {"grid_size": 201, "n_a": 21, "m_list": _DECIMALS},
            "checks": standard_checks,
        },
        "identity": {
            "name": "identity",
            "lattice": {"horizon": 1.0, "steps": 8},
            "driver_f": {"name": "zero"},
            "driver_g": {"name": "zero"},
            "loss": {"name": "identity"},
            "primal": {"grid_size": 201, "n_a": 21, "m_list": _DECIMALS},
            "checks": standard_checks,
        },
        "envelope": {
            "name": "envelope",
            "lattice": {"horizon": 1.0, "steps": 8},
            "driver_f": {"name": "zero"},
            "driver_g": {"name": "zero"},
            "loss": {"name": "s_shaped"},
            "primal": {"grid_size": 201, "n_a": 21, "m_list": _DECIMALS},
            "checks": standard_checks,
        },
        "call_spread": {
            "name": "call_spread",
            "lattice": {"horizon": 1.0, "steps": 8},
            "driver_f": {"name": "zero"},
            "driver_g": {"name": "zero"},
            "loss": {"name": "call_spread", "params": {"lo": 0.3, "hi": 0.7}},
            "primal": {"grid_size": 201, "n_a": 21, "m_list": _DECIMALS},
            "checks": standard_checks,
        },
        "risk_pair": {
            "name": "risk_pair",
            "lattice": {"horizon": 1.0, "steps": 8},
            "driver_f": {"name": "neg_abs_z", "params": {"kappa": 0.3}},
            "driver_g": {"name": "abs_z", "params": {"kappa": 0.2}},
            "loss": {"name": "power", "params": {"p": 2.0}},
            "primal": {"grid_size": 201, "n_a": 21, "m_list": _DECIMALS},
            "dual": {"enabled": True, "m_list": [0.25, 0.5, 0.75]},
            "checks": standard_checks + ["comparison", "roundtrip",
                                         "admissibility"],
        },
        "tiny_identity": {
            "name": "tiny_identity",
            "driver_f": {"name": "zero"},
            "driver_g": {"name": "zero"},
            "loss": {"name": "identity"},
            **tiny,
        },
        "tiny_power": {
            "name": "tiny_power",
            "driver_f": {"name": "zero"},
            "driver_g": {"name": "zero"},
            "loss": {"name": "power", "params": {"p": 2.0}},
            **tiny,
        },
        "tiny_risk": {
            "name": "tiny_risk",
            "driver_f": {"name": "neg_abs_z", "params": {"kappa": 0.3}},
            "driver_g": {"name": "abs_z", "params": {"kappa": 0.2}},
            "loss": {"name": "power", "params": {"p": 2.0}},
            **tiny,
        },
    }
    return {k: json.loads(json.dumps(v)) for k, v in cfgs.items()}


def catalogue_scenario(name: str) -> Scenario:
    cfgs = catalogue()
    if name not in cfgs:
        raise ScenarioError(
            f"unknown catalogue scenario {name!r}; known: {sorted(cfgs)}"
        )
    return build_scenario(cfgs[name])
