"""Config validation, catalogue, artifact layout, and the CLI surface."""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakbsde.bsde import compute_corridor
from weakbsde.cli import main
from weakbsde.drivers import make_driver
from weakbsde.lattice import build_lattice
from weakbsde.primal import CURVE_TOL
from weakbsde.runner import CHECK_HANDLERS, execute
from weakbsde.scenario import (KNOWN_CHECKS, ScenarioError, build_scenario,
                               catalogue, catalogue_scenario, config_sha256,
                               load_config)

_NOT_A_NUMBER = r"params\.\w+ must be a finite number"


def _minimal(**overrides):
    cfg = {
        "name": "small",
        "lattice": {"horizon": 1.0, "steps": 4},
        "driver_f": {"name": "zero"},
        "driver_g": {"name": "zero"},
        "loss": {"name": "power", "params": {"p": 2.0}},
        "primal": {"grid_size": 81, "n_a": 9, "m_list": [0.25, 0.5]},
        "checks": ["attainment", "monotonicity", "weak_duality"],
    }
    cfg.update(overrides)
    return cfg


def test_unknown_keys_rejected_at_every_level():
    with pytest.raises(ScenarioError, match="unknown"):
        build_scenario(_minimal(extra_field=1))
    with pytest.raises(ScenarioError, match="unknown"):
        build_scenario(_minimal(lattice={"horizon": 1.0, "steps": 4,
                                         "tilt": 2}))
    with pytest.raises(ScenarioError, match="unknown"):
        build_scenario(_minimal(primal={"grid_size": 81, "spacing": 0.1}))
    with pytest.raises(ScenarioError, match="unknown"):
        build_scenario(_minimal(dual={"enabled": True, "step": 0.1}))
    with pytest.raises(ScenarioError, match="unknown"):
        build_scenario(_minimal(tolerances={"no_such_check": 1e-3}))


def test_level_guard_message_names_the_limit():
    with pytest.raises(ScenarioError, match="MAX_LEVELS = 64"):
        build_scenario(_minimal(lattice={"horizon": 1.0, "steps": 65}))


# the benchmark's surface check list: every check but the dual's
SURFACE_CHECKS = ["attainment", "monotonicity", "convexity", "continuity",
                  "dpp", "value_envelope", "restriction", "comparison",
                  "roundtrip", "admissibility"]


def _risk_pair(steps, **overrides):
    cfg = {
        "name": "deep_risk_pair",
        "lattice": {"horizon": 1.0, "steps": steps},
        "driver_f": {"name": "neg_abs_z", "params": {"kappa": 0.3}},
        "driver_g": {"name": "abs_z", "params": {"kappa": 0.2}},
        "loss": {"name": "power", "params": {"p": 2.0}},
        "primal": {"grid_size": 41, "n_a": 7, "m_list": [0.25, 0.5, 0.75]},
        "dual": {"enabled": False},
        "checks": SURFACE_CHECKS,
        "seed": 24,
    }
    cfg.update(overrides)
    return cfg


def test_a_dual_scenario_runs_at_the_deepest_lattice():
    # the dual prices its certificates on the N + 1 nodes, so the dual
    # search and the check that reads it run at MAX_LEVELS levels
    report = execute(build_scenario(_risk_pair(
        64, driver_f={"name": "logcosh_z",
                      "params": {"kappa": 0.3, "sign": -1}},
        driver_g={"name": "softplus_z", "params": {"kappa": 0.2}},
        dual={"enabled": True}, checks=["weak_duality"])), quiet=True)
    assert list(report["dual"]) == ["0.25", "0.5", "0.75"]
    assert report["status"] == "PASS", report["checks"]


def test_a_primal_scenario_runs_past_the_path_guard():
    # 2^24 paths: attainment, roundtrip and admissibility all walk rows
    report = execute(build_scenario(_risk_pair(24)), quiet=True)
    assert [c["check"] for c in report["checks"]] == SURFACE_CHECKS
    assert report["status"] == "PASS", [
        (c["check"], c["status"]) for c in report["checks"]]


def test_check_names_and_lists_validated():
    with pytest.raises(ScenarioError, match="unknown check"):
        build_scenario(_minimal(checks=["attainment", "smoothness"]))
    with pytest.raises(ScenarioError):
        build_scenario(_minimal(primal={"grid_size": 81, "m_list": [1.5]}))
    with pytest.raises(ScenarioError, match=r"primal\.m_list"):
        build_scenario(_minimal(primal={"grid_size": 81, "m_list": ["a"]}))
    with pytest.raises(ScenarioError, match=r"primal\.m_list"):
        build_scenario(_minimal(primal={"grid_size": 81, "m_list": []}))
    for bad in ([1.5], [0.5, -0.1], [float("nan")], ["a"], 0.5, []):
        with pytest.raises(ScenarioError, match=r"dual\.m_list"):
            build_scenario(_minimal(dual={"m_list": bad}))
    with pytest.raises(ScenarioError, match=r"primal\.grid_size"):
        build_scenario(_minimal(primal={"grid_size": 2}))
    for bad in (5.0, -0.1, float("nan"), float("inf"), "x", None):
        with pytest.raises(ScenarioError, match=r"primal\.continuity_base"):
            build_scenario(_minimal(primal={"grid_size": 81,
                                            "continuity_base": bad}))
    # in [0, 1] but base + 2^-3 leaves the root corridor [0, 1]
    with pytest.raises(ScenarioError, match=r"primal\.continuity_base"):
        build_scenario(_minimal(primal={"grid_size": 81,
                                        "continuity_base": 0.95},
                                checks=["continuity"]))
    # the slope searches start at 1e-8, so a smaller l_max leaves no bracket
    for bad in (0.0, -1.0, 1e-9, 1e-8, float("inf"), "x"):
        with pytest.raises(ScenarioError, match=r"dual\.l_max"):
            build_scenario(_minimal(dual={"l_max": bad}))
    for bad in ("no", "false", 0, 1, None, []):
        with pytest.raises(ScenarioError, match=r"dual\.enabled"):
            build_scenario(_minimal(dual={"enabled": bad}))
    for bad in (5, "dpp", {"dpp": 1}, ["dpp", 5], None):
        with pytest.raises(ScenarioError, match="checks must be"):
            build_scenario(_minimal(checks=bad))
    for bad in (["monotonicity", "monotonicity"],
                ["dpp", "attainment", "dpp"]):
        with pytest.raises(ScenarioError, match="checks repeats"):
            build_scenario(_minimal(checks=bad))
    for bad in (0, -3, True, 4.0, 65):
        with pytest.raises(ScenarioError, match=r"^lattice\.steps .*"
                                                r"1\.\.MAX_LEVELS = 64, got"):
            build_scenario(_minimal(lattice={"horizon": 1.0, "steps": bad}))
    # JSON booleans are not numbers, though float(True) == 1.0
    with pytest.raises(ScenarioError, match=r"lattice\.horizon"):
        build_scenario(_minimal(lattice={"horizon": True, "steps": 4}))
    with pytest.raises(ScenarioError, match=r"primal\.m_list"):
        build_scenario(_minimal(primal={"grid_size": 81, "m_list": [True]}))
    with pytest.raises(ScenarioError, match=r"dual\.m_list"):
        build_scenario(_minimal(dual={"m_list": [0.5, False]}))
    with pytest.raises(ScenarioError, match=r"primal\.continuity_base"):
        build_scenario(_minimal(primal={"grid_size": 81,
                                        "continuity_base": False}))
    with pytest.raises(ScenarioError, match=r"tolerances\.monotonicity"):
        build_scenario(_minimal(tolerances={"monotonicity": True}))
    # a repeated threshold, also one written twice in different forms
    for bad in ([0.5, 0.5], [0.25, 0.5, 0.25], [0, 0.0], [0.0, -0.0]):
        with pytest.raises(ScenarioError, match=r"primal\.m_list repeats"):
            build_scenario(_minimal(primal={"grid_size": 81, "m_list": bad}))
        with pytest.raises(ScenarioError, match=r"dual\.m_list repeats"):
            build_scenario(_minimal(dual={"m_list": bad}))


# a config number must be a JSON number, as a driver param must: each case
# below used to build (or escape as OverflowError) and now names its key
@pytest.mark.parametrize("overrides,key", [
    ({"lattice": {"horizon": "1.0", "steps": 4}}, "lattice.horizon"),
    ({"primal": {"grid_size": 81, "m_list": ["0.5"]}}, "primal.m_list entry"),
    ({"primal": {"grid_size": 81, "continuity_base": "0.3"}},
     "primal.continuity_base"),
    ({"tolerances": {"monotonicity": "1e-9"}}, "tolerances.monotonicity"),
    ({"dual": {"l_max": "2"}}, "dual.l_max"),
])
def test_a_number_given_as_a_string_names_the_key(overrides, key):
    with pytest.raises(ScenarioError,
                       match=f"^{re.escape(key)} must be a number, got '"):
        build_scenario(_minimal(**overrides))


def test_thresholds_given_as_an_object_name_the_key():
    # an object iterates over its keys, which used to read as thresholds
    with pytest.raises(ScenarioError, match=r"^primal\.m_list must be a list"):
        build_scenario(_minimal(primal={"grid_size": 81,
                                        "m_list": {"0.5": 1}}))
    with pytest.raises(ScenarioError, match=r"^dual\.m_list must be a list"):
        build_scenario(_minimal(dual={"m_list": {"0.5": 1}}))


@pytest.mark.parametrize("overrides,key", [
    ({"lattice": {"horizon": 10**400, "steps": 4}}, "lattice.horizon"),
    ({"dual": {"l_max": 10**400}}, "dual.l_max"),
    ({"tolerances": {"monotonicity": 10**400}}, "tolerances.monotonicity"),
    ({"primal": {"grid_size": 81, "m_list": [0.5, 10**400]}},
     "primal.m_list entry"),
    ({"dual": {"m_list": [10**400]}}, "dual.m_list entry"),
])
def test_an_int_beyond_the_float_range_names_the_key(overrides, key):
    with pytest.raises(ScenarioError,
                       match=f"^{re.escape(key)} must be a finite number"):
        build_scenario(_minimal(**overrides))


def test_config_hash_ignores_key_order():
    a = _minimal()
    b = json.loads(json.dumps(a))
    b["loss"] = {"params": {"p": 2.0}, "name": "power"}  # reordered keys
    assert config_sha256(build_scenario(a).config) == \
        config_sha256(build_scenario(b).config)
    assert build_scenario(a).config_sha256 != config_sha256({"name": "other"})


def test_catalogue_is_stable_and_buildable():
    names = sorted(catalogue())
    assert names == ["call_spread", "envelope", "identity", "jensen",
                     "risk_pair", "tiny_identity", "tiny_power", "tiny_risk"]
    for name in names:
        sc = catalogue_scenario(name)
        assert sc.name == name
    with pytest.raises(ScenarioError, match="unknown catalogue"):
        catalogue_scenario("nope")


def test_load_config_reports_json_position(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"name": "x",\n  "oops }')
    with pytest.raises(ScenarioError, match="line 2"):
        load_config(bad)


def test_execute_writes_stable_artifacts(tmp_path):
    sc = build_scenario(_minimal())
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    rep1 = execute(sc, out_dir=out1, quiet=True)
    rep2 = execute(sc, out_dir=out2, quiet=True)
    assert rep1["status"] == "PASS"
    for fname in ("curve.csv", "surface.csv", "report.json"):
        b1 = (out1 / fname).read_bytes()
        b2 = (out2 / fname).read_bytes()
        assert b1 == b2, f"{fname} differs between identical runs"
    header = (out1 / "curve.csv").read_text().splitlines()[0]
    assert header == "m,primal,dual_bound,gap"
    surface_header = (out1 / "surface.csv").read_text().splitlines()[0]
    assert surface_header == "level,node,m,value,control"
    report = json.loads((out1 / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["provenance"]["config_sha256"] == sc.config_sha256
    assert {c["check"] for c in report["checks"]} == \
        {"attainment", "monotonicity", "weak_duality"}
    assert "time" not in json.dumps(report).lower()


class _TwoArgError(Exception):
    def __init__(self, code, detail):
        super().__init__(f"code {code}: {detail}")


def test_stage_errors_keep_their_cause(monkeypatch):
    sc = build_scenario(_minimal())

    def broken(ctx):
        raise _TwoArgError(7, "handler broke")

    monkeypatch.setitem(CHECK_HANDLERS, "monotonicity", broken)
    with pytest.raises(RuntimeError, match=r"\[stage: check monotonicity\] "
                       r"code 7: handler broke") as info:
        execute(sc, quiet=True)
    assert isinstance(info.value.__cause__, _TwoArgError)

    def value_error(ctx):
        raise ValueError("bad value")

    monkeypatch.setitem(CHECK_HANDLERS, "monotonicity", value_error)
    with pytest.raises(ValueError, match=r"\[stage: check monotonicity\] "
                       r"bad value") as info:
        execute(sc, quiet=True)
    assert type(info.value.__cause__) is ValueError


def test_surface_csv_cells_are_plain_numbers(tmp_path):
    execute(build_scenario(_minimal()), out_dir=tmp_path, quiet=True)
    lines = (tmp_path / "surface.csv").read_text().splitlines()[1:]
    assert lines
    for line in lines:
        level, node, *numbers = line.split(",")
        assert int(level) >= int(node) >= 0
        assert len(numbers) == 3
        for cell in numbers:
            float(cell)


def test_execute_report_curve_includes_dual_gap():
    sc = build_scenario(_minimal())
    report = execute(sc, out_dir=None, quiet=True)
    by_m = {row["m"]: row for row in report["curve"]}
    assert by_m[0.5]["primal"] == pytest.approx(0.25, abs=1e-12)
    assert by_m[0.5]["dual_bound"] == pytest.approx(0.25, abs=1e-6)
    assert by_m[0.5]["gap"] == pytest.approx(0.0, abs=1e-6)


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg = _minimal()
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "artifacts"
    assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
    assert sorted(os.listdir(out)) == ["curve.csv", "report.json",
                                       "surface.csv"]
    capsys.readouterr()
    assert main(["run", "no_such_scenario"]) == 2
    err = capsys.readouterr().err
    assert "neither a catalogue scenario" in err


@pytest.mark.parametrize("key,block,needle", [
    ("driver_f", {"name": "bogus"}, "unknown driver 'bogus'"),
    ("driver_g", {"name": "abs_z", "params": {"kappa": -1}}, "kappa"),
    ("driver_g", {"name": "abs_z", "params": {"kappa": "wide"}}, "kappa|float"),
    ("loss", {"name": "power", "params": {"q": 2}}, "unknown parameters"),
    ("loss", "power", "JSON object"),
    # a param is a finite JSON number: no boolean, string, NaN, infinity or
    # int beyond the float range
    ("loss", {"name": "power", "params": {"p": True}}, _NOT_A_NUMBER),
    ("loss", {"name": "power", "params": {"p": float("nan")}}, _NOT_A_NUMBER),
    ("loss", {"name": "power", "params": {"p": float("inf")}}, _NOT_A_NUMBER),
    ("driver_g", {"name": "abs_z", "params": {"kappa": True}}, _NOT_A_NUMBER),
    ("driver_g", {"name": "abs_z", "params": {"kappa": "0.3"}},
     _NOT_A_NUMBER),
    ("driver_f", {"name": "abs_z", "params": {"kappa": float("nan")}},
     _NOT_A_NUMBER),
    ("driver_f", {"name": "abs_z", "params": {"kappa": 10**400}},
     _NOT_A_NUMBER),
    ("driver_f", {"name": "logcosh_z", "params": {"kappa": 0.3, "sign": True}},
     _NOT_A_NUMBER),
    ("driver_g", {"name": "abs_z", "params": [["kappa", 0.3]]},
     r"^driver_g\.params must be a JSON object"),
    # kappa * sqrt(dt) = 1.5 > 1 at N = 4 breaks the explicit step
    # condition; the implicit scheme only warns there
    ("driver_f", {"name": "abs_z", "params": {"kappa": 3}},
     r"step condition .* = 1\.5 > 1 .*implicit\" would pass"),
    ("driver_g", {"name": "abs_z", "params": {"kappa": 3}},
     r"step condition .* = 1\.5 > 1 .*implicit\" would pass"),
])
def test_driver_and_loss_errors_name_the_key(key, block, needle):
    with pytest.raises(ScenarioError, match=f"^{key}") as info:
        build_scenario(_minimal(**{key: block}))
    assert info.match(needle)


def test_step_condition_errors_say_when_no_scheme_passes():
    # linear a = 5 at N = 4: Cy * dt = 1.25 breaks both the explicit step
    # condition and the implicit fixed point's contraction
    steep = {"name": "linear", "params": {"a": 5, "b": 0}}
    for key in ("driver_f", "driver_g"):
        with pytest.raises(ScenarioError,
                           match=rf"^{key}: .* = 1\.25 > 1 .*refine lattice"):
            build_scenario(_minimal(**{key: steep}))
        with pytest.raises(ScenarioError,
                           match=rf"^{key}: .* lipschitz_y \* dt < 1 under "
                                 r"the implicit scheme, got 1\.25"):
            build_scenario(_minimal(**{key: steep}, primal={
                "grid_size": 81, "scheme": "implicit"}))
    # under the implicit scheme a broken step condition only warns (a
    # concave driver_f, which the dual on by default needs)
    with pytest.warns(RuntimeWarning, match="monotone step condition"):
        build_scenario(_minimal(driver_f={"name": "neg_abs_z",
                                          "params": {"kappa": 3}},
                                primal={"grid_size": 81,
                                        "scheme": "implicit"}))


def test_a_y_dependent_constraint_driver_refuses_the_dual():
    # the dual's adjoint misses a p f dt^2 term per step when f reads y, and
    # its bound lies above V: at a = 0.1 and N = 8 by 5e-4 at m = 0.5
    lin = {"name": "linear", "params": {"a": 0.1, "b": 0.0}}
    with pytest.raises(ScenarioError, match=r"^driver_f: driver 'linear' "
                                            r"depends on y, .*dual search.* "
                                            r"set dual\.enabled to false"):
        build_scenario(_minimal(driver_f=lin))
    with pytest.raises(ScenarioError, match=r"^driver_f: .*check "
                                            r"weak_duality.* remove it"):
        build_scenario(_minimal(driver_f=lin, dual={"enabled": False}))
    build_scenario(_minimal(driver_f=lin, dual={"enabled": False},
                            checks=["attainment", "monotonicity"]))
    # a = 0 reads z only, and keeps the dual
    build_scenario(_minimal(driver_f={"name": "linear",
                                      "params": {"a": 0.0, "b": 0.1}}))


@pytest.mark.parametrize("key,block,shape", [
    ("driver_f", {"name": "abs_z", "params": {"kappa": 0.3}}, "concave"),
    ("driver_f", {"name": "softplus_z", "params": {"kappa": 0.3}},
     "concave"),
    ("driver_f", {"name": "logcosh_z", "params": {"kappa": 0.3, "sign": 1}},
     "concave"),
    ("driver_g", {"name": "neg_abs_z", "params": {"kappa": 0.3}}, "convex"),
    ("driver_g", {"name": "logcosh_z", "params": {"kappa": 0.3, "sign": -1}},
     "convex"),
])
def test_a_driver_without_the_duals_conjugate_refuses_the_dual(
        key, block, shape, tmp_path, capsys):
    # the dual prices f's concave and g's convex conjugate, so a driver
    # without the one it needs fails at build, before any primal work
    with pytest.raises(ScenarioError,
                       match=rf"^{key}: driver '{block['name']}' has no "
                             rf"closed-form {shape} conjugate, .* set "
                             r"dual\.enabled to false"):
        build_scenario(_minimal(**{key: block}))
    build_scenario(_minimal(**{key: block}, dual={"enabled": False}))
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(_minimal(**{key: block})))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--quiet"]) == 2
    assert f"error: {key}:" in capsys.readouterr().err
    assert not out.exists()


def test_driver_params_pass_through_unchanged():
    # an int param stays an int in the hashed config
    sc = build_scenario(_minimal(
        driver_f={"name": "logcosh_z", "params": {"kappa": 0.3, "sign": -1}},
        checks=["monotonicity"]))
    assert type(sc.config["driver_f"]["params"]["sign"]) is int


def _block(name, **params):
    """A driver or loss config block: a param drawn as None is left out,
    so its builder's default fills it in."""
    params = {key: val for key, val in params.items() if val is not None}
    return {"name": name, "params": params} if params else {"name": name}


def _maybe(values):
    return st.none() | values


_KAPPA = st.floats(0.01, 1.0)
# every driver and loss of the catalogues, with valid params: small enough
# for the explicit step on four steps, and a root corridor that holds 0.5
_DRIVER_BLOCKS = st.one_of(
    st.builds(_block, st.just("zero")),
    st.builds(_block, st.just("linear"), a=st.floats(-0.1, 0.1),
              b=st.floats(-0.5, 0.5)),
    st.builds(_block, st.just("abs_z"), kappa=_KAPPA),
    st.builds(_block, st.just("neg_abs_z"), kappa=_KAPPA),
    st.builds(_block, st.just("logcosh_z"), kappa=_KAPPA,
              sign=_maybe(st.sampled_from([-1, 1]))),
    st.builds(_block, st.just("softplus_z"), kappa=_KAPPA),
)
_LOSS_BLOCKS = st.one_of(
    st.builds(_block, st.just("identity")),
    st.builds(_block, st.just("s_shaped")),
    st.builds(_block, st.just("power"), p=_maybe(st.floats(1.0, 4.0))),
    st.builds(_block, st.just("call_spread"),
              lo=_maybe(st.floats(0.05, 0.29)),
              hi=_maybe(st.floats(0.71, 0.95))),
)


@settings(max_examples=80)
@given(driver_f=_DRIVER_BLOCKS, driver_g=_DRIVER_BLOCKS, loss=_LOSS_BLOCKS)
def test_a_normalised_config_rebuilds_to_itself_property(driver_f, driver_g,
                                                         loss):
    # a report's scenario block is the normalised config, through JSON
    sc = build_scenario(_minimal(driver_f=driver_f, driver_g=driver_g,
                                 loss=loss, dual={"enabled": False},
                                 checks=["monotonicity"]))
    again = build_scenario(json.loads(json.dumps(sc.config)))
    assert again.config == sc.config
    assert again.config_sha256 == sc.config_sha256


@settings(max_examples=60)
@given(driver_f=_DRIVER_BLOCKS, driver_g=_DRIVER_BLOCKS, loss=_LOSS_BLOCKS,
       steps=st.integers(1, 4), scheme=st.sampled_from(["explicit",
                                                        "implicit"]),
       n_a=st.sampled_from([3, 5, 7]), dual=st.booleans(),
       checks=st.lists(st.sampled_from(KNOWN_CHECKS), unique=True),
       m_list=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2,
                       unique=True))
def test_a_config_that_builds_runs_to_a_verdict_property(
        driver_f, driver_g, loss, steps, scheme, n_a, dual, checks, m_list):
    # a bad config fails at build, naming its key; one that builds never
    # fails mid-run
    try:
        sc = build_scenario(_minimal(
            driver_f=driver_f, driver_g=driver_g, loss=loss,
            lattice={"horizon": 1.0, "steps": steps},
            primal={"grid_size": 21, "n_a": n_a, "m_list": m_list,
                    "scheme": scheme},
            dual={"enabled": dual, "rounds": 1}, checks=checks))
    except ScenarioError:
        return
    assert execute(sc, quiet=True)["status"] in ("PASS", "FAIL")


@pytest.mark.parametrize("n_a", [8, 9])
def test_an_equivalence_check_over_the_policy_budget_fails_at_build(n_a):
    # tiny_risk runs equivalence on three levels with n_a 7: its 7^7
    # policies fit the budget, and test_artifacts pins its passing run;
    # 8^7 and 9^7 do not fit
    cfg = catalogue()["tiny_risk"]
    assert cfg["primal"]["n_a"] == 7
    build_scenario(cfg)
    cfg["primal"]["n_a"] = n_a
    with pytest.raises(ScenarioError, match=rf"primal\.n_a = {n_a} on "
                       r"lattice\.steps = 3 .* over the policy oracle's "
                       r"budget"):
        build_scenario(cfg)
    # on four levels the check is skipped, so nothing is refused
    cfg["lattice"]["steps"] = 4
    build_scenario(cfg)


@pytest.mark.parametrize("steps", [2, 3])
@pytest.mark.parametrize("n_a", [2, 4, 6])
def test_an_equivalence_check_with_an_even_n_a_fails_at_build(n_a, steps):
    # the policy oracle's slopes linspace(-b, b, n_a) hold no zero slope
    # for an even n_a: the check used to raise "no admissible policy" after
    # the DP, or to fail on a gap
    cfg = catalogue()["tiny_power"]
    assert "equivalence" in cfg["checks"]
    cfg["primal"]["n_a"] = n_a
    cfg["lattice"]["steps"] = steps
    with pytest.raises(ScenarioError, match=rf"^check equivalence: "
                       rf"primal\.n_a = {n_a} is even"):
        build_scenario(cfg)
    # on four levels the check is skipped, so nothing is refused
    cfg["lattice"]["steps"] = 4
    build_scenario(cfg)


def test_thresholds_outside_the_root_corridor_fail_at_build():
    # f = -y/2 on four steps: the root corridor is [0, E^f[1]] = [0, 0.586]
    shrink = {"name": "linear", "params": {"a": -0.5, "b": 0}}
    top = float(compute_corridor(build_lattice(1.0, 4),
                                 make_driver("linear", a=-0.5, b=0))
                .bounds_at(0)[1])
    assert 0.586 < top < 0.587
    with pytest.raises(ScenarioError,
                       match=r"^primal\.m_list .* \[0, 0\.586182\]"):
        build_scenario(_minimal(driver_f=shrink, primal={"grid_size": 81}))
    with pytest.raises(ScenarioError,
                       match=r"^dual\.m_list .* \[0, 0\.586182\]"):
        build_scenario(_minimal(driver_f=shrink,
                                primal={"grid_size": 81, "m_list": [0.5]},
                                dual={"m_list": [0.9]}))
    # the curve's own tolerance: CURVE_TOL past the edge is still inside
    # (without the dual, which this y-dependent f refuses)
    build_scenario(_minimal(driver_f=shrink, primal={
        "grid_size": 81, "m_list": [0.5, top + 0.5 * CURVE_TOL]},
        dual={"enabled": False}, checks=["attainment", "monotonicity"]))
    with pytest.raises(ScenarioError, match=r"^primal\.m_list"):
        build_scenario(_minimal(driver_f=shrink, primal={
            "grid_size": 81, "m_list": [0.5, top + 2.0 * CURVE_TOL]}))


def test_cli_maps_config_errors_to_exit_2(tmp_path, capsys):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(_minimal(loss={"name": "power",
                                              "params": {"q": 2}})))
    assert main(["run", str(path), "--quiet"]) == 2
    assert "error: loss:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["verify", "--only", "99"])
    assert info.value.code == 2


def test_cli_lets_internal_faults_propagate(monkeypatch):
    import weakbsde.cli as cli

    def fault(args):
        raise ValueError("internal numeric fault")

    monkeypatch.setattr(cli, "_cmd_curve", fault)
    with pytest.raises(ValueError, match="internal numeric fault"):
        main(["curve", "tiny_power", "--quiet"])


def test_readme_config_example_builds():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    blocks = text.split("```json\n")[1:]
    assert len(blocks) == 1
    sc = build_scenario(json.loads(blocks[0].split("```")[0]))
    assert sc.tolerances["attainment_extra"] == 0.02


def test_cli_env_var_sets_output_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("WEAKBSDE_OUT", str(tmp_path / "envdir"))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "tiny_power", "--quiet"]) == 0
    assert (tmp_path / "envdir" / "report.json").exists()


def test_cli_flag_overrides_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("WEAKBSDE_OUT", str(tmp_path / "ignored"))
    target = tmp_path / "flagged"
    assert main(["run", "tiny_power", "--quiet", "--out", str(target)]) == 0
    assert target.exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_curve_prints_schema_header(capsys):
    assert main(["curve", "tiny_power", "--quiet"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m,primal,dual_bound,gap"
    assert lines[1].startswith("0.5,0.25")


def test_cli_dual_requires_enabled_search(capsys):
    assert main(["dual", "tiny_power"]) == 2
    assert "dual search disabled" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["risk_pair", "jensen"])
def test_cli_dual_writes_the_dual_block_of_the_run_report(name, tmp_path,
                                                          capsys):
    assert main(["dual", name, "--out", str(tmp_path / "dual")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert main(["run", name, "--out", str(tmp_path / "run"),
                 "--quiet"]) == 0
    with open(tmp_path / "dual" / "dual.json", encoding="utf-8") as fh:
        dual = json.load(fh)
    with open(tmp_path / "run" / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert dual["name"] == name
    assert dual["dual"] == report["dual"]
    assert len(printed) == len(dual["dual"]) > 0


def test_cli_verify_subset(capsys):
    assert main(["verify", "--only", "1", "2", "--quiet"]) == 0


def test_verify_empty_selection_is_skipped(capsys):
    from weakbsde.acceptance import verify_all
    summary = verify_all(only=[], quiet=False)
    assert summary["status"] == "SKIPPED"
    assert summary["n_fail"] == 0
    assert "SKIPPED" in capsys.readouterr().out
    with pytest.raises(ValueError, match="unknown criteria"):
        verify_all(only=[99], quiet=True)


@pytest.mark.parametrize("argv", [
    ["verify", "--only", "3"], ["run", "tiny_power"],
    ["curve", "tiny_power"], ["dual", "risk_pair"],
])
def test_cli_rejects_a_negative_seed_before_any_work(argv, tmp_path, capsys,
                                                     monkeypatch):
    import weakbsde.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("a command ran with a negative seed")

    for name in ("verify_all", "execute", "primal_value_dp", "dual_bounds"):
        monkeypatch.setattr(cli, name, no_work)
    assert main(argv + ["--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_verify_all_rejects_a_negative_seed_before_any_criterion(monkeypatch):
    import weakbsde.acceptance as acceptance

    def no_criterion(*args, **kwargs):
        raise AssertionError("a criterion ran with a negative seed")

    monkeypatch.setattr(acceptance, "run_criterion", no_criterion)
    with pytest.raises(ValueError, match="seed"):
        acceptance.verify_all(only=[3], seed=-1, quiet=True)


def test_seed_flows_into_the_report(tmp_path):
    cfg = _minimal()
    cfg["seed"] = 1234
    sc = build_scenario(cfg)
    assert sc.seed == 1234
    report = execute(sc, out_dir=None, quiet=True)
    assert report["scenario"]["seed"] == 1234
