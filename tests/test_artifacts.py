"""Catalogue artifacts are pinned byte for byte.

The sha256 values were recorded from the code before the primal, control
and dual layers were folded onto shared step kernels; any change to a
number, its formatting or the report layout shows up here.  The jensen and
risk_pair curve.csv and report.json values were re-recorded when the
smooth-polar slope search moved from golden section to Brent's method,
which moves their dual bounds in the last bits.  The curve.csv and
report.json values of the five dual scenarios (call_spread, envelope,
identity, jensen, risk_pair) were re-recorded when the dual certificate
moved from the 2^N path tree to the N + 1 lattice nodes, which moves their
dual bounds by at most 1e-15; every surface.csv and every tiny_* file kept
its bytes.  The report.json values of the four piecewise-loss scenarios
(call_spread, envelope, identity, tiny_identity) were re-recorded when a
loss's normalised config began to hold the loss's own params instead of
its phi knots, which moves only their scenario block and config_sha256.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import weakbsde.acceptance
import weakbsde.cli
import weakbsde.runner
from weakbsde.primal import primal_value_dp
from weakbsde.runner import (_at_most, _surface_csv, execute,
                            render_report_json, write_artifact)
from weakbsde.scenario import build_scenario, catalogue, catalogue_scenario

from test_acceptance import SRC, VERIFY_SEED_24_SHA256
from test_convexity_band import bench_surface_config

ARTIFACT_SHA256 = {
    "call_spread": (
        "d16944ee0b46256984ff4ab0a42eb3b67aab723618278091c6d9976c0bb5952f",
        "28ec3c17e48188fdc44f271afeb158946fa2899b98e07e5bc6774bf0992ace94",
        "9f49de303d75561649652e6cf7fb00e8f35267d11e02ea9d1e0a293b1244d09f",
    ),
    "envelope": (
        "cbea9eb345202f9f341e5ec70592cd96f8edebfc4d4c43208749eb3ef0116187",
        "379b0f5d39db55ecc57ddae38a15325e5011c97c6a86db02158dfe066f3e11a2",
        "fd512bde6fa26d55fb0a77aeab775f65890492d9380fbe5467f11f183ef10edb",
    ),
    "identity": (
        "8c829eb326c1563534b972adea2ccc51dd52a86a04d3bfb0e87ca59887146eaf",
        "877d0822f5ca120424929f1166c9cd906d6017ce45d2c2e9539606393d5729b8",
        "c73057d70217fa6248fbbe5e2e982f406d1537b4c379c65c051f56f42acd83fb",
    ),
    "jensen": (
        "ab694ab1d1651161d8bfd5352e90450c50cb8da4a0751034da9bb7a617c7dce7",
        "d31ef92e2326a4e01f741c1338f5174282bc24767f90ea6da4891dd091d76c6b",
        "989d6c8f1afc12bef580f9096ab50bd735627ed19a1420a7e200b2ec6e7d082c",
    ),
    "risk_pair": (
        "9f8c99c8acbb6b41fcd9584fdd2e7c50bf37d8a8029dd74d55a3071f73f7b1dd",
        "d31ef92e2326a4e01f741c1338f5174282bc24767f90ea6da4891dd091d76c6b",
        "c8831c3d03862f85dc6c4717a8dcdf7d250a2e29aa5cb82ec10ad386c6398376",
    ),
    "tiny_identity": (
        "936aadeefaf8343ad3a2bd8d8c0e25b7a4f337813a66580f0adbd415182ddb89",
        "5aecea02ec499e0945e120bd620f847de3bc5def560400764379e60c1ce82f19",
        "71f89695bf4348e9f32115d97943aeebd1b3e066ca49ea2039584bb831cb4db1",
    ),
    "tiny_power": (
        "85ab60ec78cd2d2060ee41e351a38908c572d38f4f74ac460393c049dc4fb16a",
        "1cb02278762710b025aa2f24b2926c3a7e6e33e71e1e62034881e5cba7b39d2f",
        "7822f046ac81876d9cedde8aedc3f05a6ed605c5c8e1d23a8b275bcf6e5c3e92",
    ),
    "tiny_risk": (
        "85ab60ec78cd2d2060ee41e351a38908c572d38f4f74ac460393c049dc4fb16a",
        "4ff015a6cc83bf33e02b73d9da2bd239290ad8577ffe6c111ef4e76057ee494c",
        "a701809072a792cfb1faacc8847c50b0111dd9c2fce8482cf6a70939f863dd6b",
    ),
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_SHA256))
def test_catalogue_artifacts_are_byte_identical(name, tmp_path):
    execute(catalogue_scenario(name), out_dir=tmp_path, quiet=True)
    measured = tuple(
        hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest()
        for fname in ("curve.csv", "surface.csv", "report.json"))
    assert measured == ARTIFACT_SHA256[name]


@pytest.mark.parametrize("name", sorted(ARTIFACT_SHA256))
def test_a_catalogue_report_reruns_from_its_scenario_block(name, tmp_path):
    sc = catalogue_scenario(name)
    execute(sc, out_dir=tmp_path / "first", quiet=True)
    first = (tmp_path / "first" / "report.json").read_bytes()
    again = build_scenario(json.loads(first)["scenario"])
    assert again.config_sha256 == sc.config_sha256
    execute(again, out_dir=tmp_path / "again", quiet=True)
    assert (tmp_path / "again" / "report.json").read_bytes() == first


# Writes every catalogue scenario's artifacts and the seed-24 verify report
# under argv[1], after checking that numpy runs with its dispatch groups off.
DISPATCH_OFF_RUN = """
import pathlib, sys
from numpy._core import _multiarray_umath as umath
from weakbsde.cli import main
from weakbsde.runner import execute
from weakbsde.scenario import catalogue, catalogue_scenario
assert not any(umath.__cpu_features__[g] for g in umath.__cpu_dispatch__)
out = pathlib.Path(sys.argv[1])
for name in catalogue():
    execute(catalogue_scenario(name), out_dir=out / name, quiet=True)
sys.exit(main(["verify", "--seed", "24", "--out", str(out / "verify"),
               "--quiet"]))
"""


def test_goldens_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    """With every CPU dispatch group numpy offers switched off, leaving its
    baseline loops, a fresh interpreter writes the catalogue artifacts and
    the verify report with the pinned bytes."""
    try:
        from numpy._core import _multiarray_umath as umath
        groups = list(umath.__cpu_dispatch__)
    except (ImportError, AttributeError):
        groups = []
    if not groups:
        pytest.skip("numpy exposes no CPU dispatch groups to switch off")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(groups),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", DISPATCH_OFF_RUN, str(tmp_path)],
                   env=env, check=True)
    for name, golden in ARTIFACT_SHA256.items():
        measured = tuple(
            hashlib.sha256((tmp_path / name / fname).read_bytes()).hexdigest()
            for fname in ("curve.csv", "surface.csv", "report.json"))
        assert measured == golden, name
    report = (tmp_path / "verify" / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == VERIFY_SEED_24_SHA256


# A risk pair deeper and with more controls than any catalogue scenario,
# run with every non-dual check; sha256 of surface.csv and report.json
# recorded with the state-major node backup.
MIDSIZE_CONFIG = {
    "name": "midsize_risk",
    "lattice": {"horizon": 1.0, "steps": 10},
    "driver_f": {"name": "neg_abs_z", "params": {"kappa": 0.3}},
    "driver_g": {"name": "abs_z", "params": {"kappa": 0.2}},
    "loss": {"name": "power", "params": {"p": 2.0}},
    "primal": {"grid_size": 201, "n_a": 41,
               "m_list": [0.1, 0.25, 0.4, 0.5, 0.65, 0.8, 0.95]},
    "dual": {"enabled": False},
    "checks": ["attainment", "monotonicity", "convexity", "continuity",
               "dpp", "value_envelope", "restriction", "comparison",
               "roundtrip", "admissibility"],
    "seed": 24,
}
MIDSIZE_SHA256 = (
    "e35b85088efaf8856372ef460684db0fcec572dbef91c47f2dff9fe78aaa2ec7",
    "972c6b1b25f38558af6e0aaaf8ee358c406f027231fec1b80341ab60130d47dc",
)


def test_midsize_risk_pair_artifacts_are_byte_identical(tmp_path):
    report = execute(build_scenario(MIDSIZE_CONFIG), out_dir=tmp_path,
                     quiet=True)
    assert report["status"] == "PASS"
    measured = tuple(
        hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest()
        for fname in ("surface.csv", "report.json"))
    assert measured == MIDSIZE_SHA256


# The risk pair at sixteen levels on a 601-point grid, where the lattice has
# the most nodes per level of any run here (the benchmark's surface size,
# with its seed-24 thresholds); sha256 of surface.csv and report.json
# recorded with the per-node DP.  The seed-733 thresholds (and seed) were
# recorded with the per-prefix attainment pricing.
DEEP_CONFIG = {
    "name": "bench_surface",
    "lattice": {"horizon": 1.0, "steps": 16},
    "driver_f": {"name": "neg_abs_z", "params": {"kappa": 0.3}},
    "driver_g": {"name": "abs_z", "params": {"kappa": 0.2}},
    "loss": {"name": "power", "params": {"p": 2.0}},
    "primal": {"grid_size": 601, "n_a": 41,
               "m_list": [0.1, 0.175, 0.2, 0.3, 0.4, 0.475, 0.625, 0.75,
                          0.775]},
    "dual": {"enabled": False},
    "checks": ["attainment", "monotonicity", "convexity", "continuity",
               "dpp", "value_envelope", "restriction", "comparison",
               "roundtrip", "admissibility"],
    "seed": 24,
}
DEEP_SHA256 = (
    "b9fde3b244ca7236fca0d436f3527998316d977be07fc297bff025d2909b423b",
    "963a2e0aeb24d778a06679fdb2d3488ef1752e765f85b2f6def640c47e3e61aa",
)
DEEP_733_M_LIST = [0.05, 0.075, 0.275, 0.475, 0.5, 0.525, 0.75, 0.9, 0.925]
DEEP_733_SHA256 = (
    "b9fde3b244ca7236fca0d436f3527998316d977be07fc297bff025d2909b423b",
    "62a727dd78077024e54024344ffa4b76a6d577f1a6b14837c88a1c67aeb6fcc9",
)


def test_deep_risk_pair_artifacts_are_byte_identical(tmp_path):
    seed_733 = dict(DEEP_CONFIG, seed=733, primal=dict(
        DEEP_CONFIG["primal"], m_list=DEEP_733_M_LIST))
    for config, golden in ((DEEP_CONFIG, DEEP_SHA256),
                           (seed_733, DEEP_733_SHA256)):
        out = tmp_path / str(config["seed"])
        report = execute(build_scenario(config), out_dir=out, quiet=True)
        assert report["status"] == "PASS"
        assert report["clamp_events"] == 544
        measured = tuple(
            hashlib.sha256((out / fname).read_bytes()).hexdigest()
            for fname in ("surface.csv", "report.json"))
        assert measured == golden


# A linear constraint driver: the corridor ceiling E^f[1] grows level by
# level, so each level has its own m-grid and the texts carried from the
# level above miss on the whole grid column.  sha256 of surface.csv and
# report.json recorded with the per-row surface.csv writer and the
# full-batch node backup; report.json re-recorded when the implicit fixed
# point began to stop per element, which moved the roundtrip check's
# reading (that check runs the implicit scheme, the exact one for this f).
LINEAR_CONFIG = {
    "name": "linear_drift",
    "lattice": {"horizon": 1.0, "steps": 8},
    "driver_f": {"name": "linear", "params": {"a": 0.2, "b": 0.1}},
    "driver_g": {"name": "abs_z", "params": {"kappa": 0.2}},
    "loss": {"name": "power", "params": {"p": 2.0}},
    "primal": {"grid_size": 201, "n_a": 21,
               "m_list": [0.1, 0.25, 0.4, 0.5, 0.65, 0.8, 0.95]},
    "dual": {"enabled": False},
    "checks": ["attainment", "monotonicity", "convexity", "continuity",
               "dpp", "value_envelope", "restriction", "comparison",
               "roundtrip", "admissibility"],
    "seed": 24,
}
LINEAR_SHA256 = (
    "3f3c55d9520fa3504d41dad80ef0da584b6702fc85552306ef795726f31c3785",
    "3e093a525e565c628a54ebc45677a4bf2713b1975668c9c8b52e3333ed5e8716",
)


def test_linear_constraint_artifacts_are_byte_identical(tmp_path):
    report = execute(build_scenario(LINEAR_CONFIG), out_dir=tmp_path,
                     quiet=True)
    assert report["status"] == "PASS"
    assert report["corridor_root"] == [0.0, 1.2184028975099184]
    measured = tuple(
        hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest()
        for fname in ("surface.csv", "report.json"))
    assert measured == LINEAR_SHA256


# ---------------------------------------------------------------------------
# check entries on the branches no catalogue scenario reaches: FAIL and
# SKIPPED; recorded with the verdicts still taken in the measuring layers
# ---------------------------------------------------------------------------

BRANCH_CONFIG = {
    "name": "branches",
    "lattice": {"horizon": 1.0, "steps": 4},
    "driver_f": {"name": "zero"},
    "driver_g": {"name": "zero"},
    "loss": {"name": "power", "params": {"p": 2.0}},
    "primal": {"grid_size": 81, "n_a": 9, "m_list": [0.25, 0.5]},
    "dual": {"enabled": False},
    "checks": ["weak_duality", "equivalence", "continuity", "dpp",
               "convexity"],
    "tolerances": {"continuity_exponent": 5.0, "dpp_multi_factor": 1e-300,
                   "convexity": 1e-300},
}


def _checks(config):
    return execute(build_scenario(config), quiet=True)["checks"]


def test_skipped_and_failed_check_entries_are_pinned():
    assert _checks(BRANCH_CONFIG) == [
        {"check": "weak_duality", "status": "SKIPPED", "measured": None,
         "threshold": 1e-09,
         "detail": {"reason": "dual search disabled for this scenario"}},
        {"check": "equivalence", "status": "SKIPPED", "measured": None,
         "threshold": 0.01,
         "detail": {"reason": "exhaustive oracles capped at 3 levels"}},
        {"check": "continuity", "status": "FAIL",
         "measured": 1.0358067967723164, "threshold": 5.0,
         "detail": {"direction": "at_or_above"}},
        {"check": "dpp", "status": "FAIL", "measured": 7.812500000003997e-05,
         "threshold": 1.2500000000000068e-302,
         "detail": {"one_step_residual": 0.0}},
        {"check": "convexity", "status": "FAIL",
         "measured": 1.1102230246251565e-16, "threshold": 1e-300},
    ]


def test_restriction_entry_is_skipped_on_one_level():
    config = dict(BRANCH_CONFIG, lattice={"horizon": 1.0, "steps": 1},
                  checks=["restriction"], tolerances={})
    assert _checks(config) == [
        {"check": "restriction", "status": "SKIPPED", "measured": None,
         "threshold": 1e-12,
         "detail": {"reason": "needs at least two levels"}},
    ]


def test_continuity_entry_is_skipped_on_a_flat_stretch():
    # call_spread's value is 0 on [0, 0.3], so no offset from m = 0 moves
    # it: a fit on nothing is SKIPPED, as criterion 10 skips it, not a PASS
    config = catalogue()["call_spread"]
    config["primal"]["continuity_base"] = 0.0
    config["dual"] = {"enabled": False}
    config["checks"] = ["continuity"]
    assert _checks(config) == [
        {"check": "continuity", "status": "SKIPPED", "measured": None,
         "threshold": 0.2,
         "detail": {"reason": "value differences below noise floor"}},
    ]


# ---------------------------------------------------------------------------
# surface.csv: the level-at-a-time writer against the per-row one
# ---------------------------------------------------------------------------

def _per_row_surface_csv(surface) -> str:
    """Reference: the per-row writer the level-at-a-time one replaced, with
    each level's slice written out for every node of the level."""
    buf = io.StringIO()
    buf.write("level,node,m,value,control\n")
    for k, (grid, vals, ctrls) in enumerate(zip(surface.grids, surface.values,
                                                surface.controls)):
        for j in range(k + 1):
            for m, v, a in zip(grid, vals, ctrls):
                buf.write(f"{k},{j},{float(m)!r},{float(v)!r},{float(a)!r}\n")
    return buf.getvalue()


def _fake_surface(draw, levels=7, seed=0):
    """grids / values / controls of a level-shaped surface; draw(rng, n)
    fills one level.  Level sizes vary, as with loss knots."""
    rng = np.random.default_rng(seed)
    sizes = [int(rng.integers(1, 12)) for _ in range(levels)]
    return SimpleNamespace(**{
        name: tuple(draw(rng, n) for n in sizes)
        for name in ("grids", "values", "controls")})


def _assert_writers_agree(surface):
    assert "".join(_surface_csv(surface)) == _per_row_surface_csv(surface)


def test_surface_csv_matches_the_per_row_writer_on_the_risk_pair():
    _assert_writers_agree(primal_value_dp(catalogue_scenario("risk_pair")
                                          .primal()))


def test_surface_csv_matches_the_per_row_writer_on_distinct_floats():
    surface = _fake_surface(
        lambda rng, n: rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n))
    cells = np.concatenate([arr for column in (surface.grids, surface.values,
                                               surface.controls)
                            for arr in column])
    assert np.unique(cells).size == cells.size
    _assert_writers_agree(surface)


def test_surface_csv_keeps_signed_zeros_apart():
    # a small pool, so cells repeat within a level and across levels, with
    # -0.0 at one level and 0.0 at the next
    pool = np.array([0.0, -0.0, 0.5, -0.5, 1.0 / 3.0, 0.1 + 0.2, 0.3])
    surface = _fake_surface(lambda rng, n: rng.choice(pool, n), seed=1)
    text = "".join(_surface_csv(surface))
    assert ",-0.0," in text and ",0.0," in text
    _assert_writers_agree(surface)


def test_report_renders_a_negative_zero_reading_as_zero():
    # report.json, unlike surface.csv, has one zero: a -0.0 reading, as a
    # float or inside an array, renders as 0.0
    entry = _at_most("convexity", -0.0, 1e-9, gaps=np.array([-0.0, 0.5]))
    text = render_report_json({"checks": [entry]})
    assert "-0.0" not in text
    assert json.loads(text)["checks"][0] == {
        "check": "convexity", "status": "PASS", "measured": 0.0,
        "threshold": 1e-09, "detail": {"gaps": [0.0, 0.5]}}


def test_surface_csv_writes_extreme_magnitudes():
    pool = np.array([1e-05, -1e-05, 0.0001, 1e+16, 9999999999999998.0,
                     5e-324, -5e-324, 1.7976931348623157e+308, np.inf,
                     -np.inf, np.nan, 2.2250738585072014e-308])
    surface = _fake_surface(lambda rng, n: rng.choice(pool, n), seed=2)
    text = "".join(_surface_csv(surface))
    for cell in ("1e-05", "1e+16", "5e-324", "9999999999999998.0"):
        assert cell in text
    _assert_writers_agree(surface)


# ---------------------------------------------------------------------------
# surface.csv: a level whose columns have the bits of the level above
# reuses its lines; these levels must still read as the per-row writer's
# ---------------------------------------------------------------------------

def _stacked_surface(levels):
    """A surface from a list of (grid, values, controls) levels."""
    return SimpleNamespace(**{
        name: tuple(np.array(level[i], dtype=float) for level in levels)
        for i, name in enumerate(("grids", "values", "controls"))})


def _level(rng, n):
    return tuple(rng.standard_normal(n) for _ in range(3))


def test_surface_csv_repeats_levels_equal_to_the_one_above():
    rng = np.random.default_rng(3)
    first, second = _level(rng, 5), _level(rng, 5)
    surface = _stacked_surface([first, first, first, second, second, first,
                                first])
    text = "".join(_surface_csv(surface))
    assert text.count("\n") == 1 + 5 * sum(range(1, 8))
    _assert_writers_agree(surface)


@pytest.mark.parametrize("column", [0, 1, 2])
def test_surface_csv_renders_a_repeat_with_one_signed_zero_flipped(column):
    # level 2 has the bits of level 1 but for -0.0 in one cell of a column
    base = [np.array([0.0, 0.25, 0.5, 0.75]),
            np.array([0.0, 0.0625, 0.25, 0.5625]),
            np.zeros(4)]
    flipped = [col.copy() for col in base]
    flipped[column][0] = -0.0
    surface = _stacked_surface([base, base, flipped, flipped, base])
    text = "".join(_surface_csv(surface))
    lines = text.splitlines()[1:]
    negative = [line for line in lines if "-0.0" in line.split(",")[2:]]
    assert {line.split(",")[0] for line in negative} == {"2", "3"}
    assert len(negative) == 3 + 4
    _assert_writers_agree(surface)


@pytest.mark.parametrize("extra", [-2, -1, 1, 3])
def test_surface_csv_renders_a_level_that_only_starts_like_the_one_above(
        extra):
    # level 1 shares level 0's leading values but is longer or shorter
    rng = np.random.default_rng(4)
    head = _level(rng, 6)
    tail = _level(rng, max(extra, 0))
    other = tuple(np.concatenate([h, t])[:6 + extra]
                  for h, t in zip(head, tail))
    surface = _stacked_surface([head, other, other, head])
    text = "".join(_surface_csv(surface))
    assert text.count("\n") == 1 + 6 * (1 + 4) + (6 + extra) * (2 + 3)
    _assert_writers_agree(surface)


# ---------------------------------------------------------------------------
# surface.csv is written as it is rendered, one chunk per (level, node), and
# every artifact goes through the one chunked writer
# ---------------------------------------------------------------------------

def test_surface_csv_write_peak_stays_under_a_megabyte(tmp_path):
    # the 4.06 MB text of the benchmark's surface shape was held whole,
    # joined and encoded: 7.8 MB to render and 3.9 MB more to write
    surface = primal_value_dp(build_scenario(bench_surface_config()).primal())
    chunks = list(_surface_csv(surface))
    assert len(chunks) == 1 + sum(k + 1 for k in range(17))
    write_artifact(tmp_path, "warm.csv", _surface_csv(surface))
    tracemalloc.start()
    try:
        write_artifact(tmp_path, "surface.csv", _surface_csv(surface))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (tmp_path / "surface.csv").read_text(encoding="utf-8") == \
        "".join(chunks)


def test_every_artifact_goes_through_the_one_chunked_writer(
        tmp_path, monkeypatch, capsys):
    written = []

    def record(out_dir, name, chunks):
        # a bare str would be written one character at a time
        assert not isinstance(chunks, str), name
        written.append(os.path.relpath(os.path.join(out_dir, name), tmp_path))
        write_artifact(out_dir, name, chunks)

    for module in (weakbsde.runner, weakbsde.cli, weakbsde.acceptance):
        monkeypatch.setattr(module, "write_artifact", record)
    for argv in (["run", "jensen"], ["curve", "jensen"], ["dual", "jensen"],
                 ["verify", "--only", "1"]):
        weakbsde.cli.main([*argv, "--out", str(tmp_path / argv[0]),
                           "--quiet"])
    capsys.readouterr()
    on_disk = [os.path.relpath(os.path.join(root, name), tmp_path)
               for root, _, names in os.walk(tmp_path) for name in names]
    assert sorted(written) == sorted(on_disk) == [
        os.path.join("curve", "curve.csv"), os.path.join("dual", "dual.json"),
        os.path.join("run", "curve.csv"), os.path.join("run", "report.json"),
        os.path.join("run", "surface.csv"),
        os.path.join("verify", "report.json")]
