"""convexity_check's half band against the full (m1, m2) matrix.

convexity_check takes the max of the midpoint violation over the upper
triangle of the pair matrix, in row blocks.  The reference below is the
full-matrix body it replaced; the two must give the same reading, bit for
bit, on every surface the check scores.  The one exception is the sign of
a 0.0 reading: when some cell reads -0.0, np.max picks among the tied
zeros by its reduction order, which differs between one (n, n) matrix and
the blocks.  With numpy 2.4 on x86-64, a 91-point surface of alternating
0.0 / -0.0 values reads -0.0 on the full matrix and 0.0 on the band, and a
92-point one the other way round.  report.json renders -0.0 as 0.0
(runner._jsonify), so no report byte can move.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import weakbsde.primal as primal_mod
from weakbsde.primal import convexity_check, primal_value_dp
from weakbsde.runner import _check_convexity, render_report_json
from weakbsde.scenario import build_scenario, catalogue, catalogue_scenario

# the shape flags convexity_check needs before it scores a surface
CONVEX_FLAGS = SimpleNamespace(driver_f=SimpleNamespace(concave_in_yz=True),
                               driver_g=SimpleNamespace(convex_in_yz=True),
                               loss=SimpleNamespace(phi_convex=True))


def _full_matrix_violation(surface) -> float:
    """Reference: the full (n, n) pair matrix and one np.max over it."""
    g0 = surface.grids[0]
    v0 = surface.values[0]
    m1 = g0[:, None]
    m2 = g0[None, :]
    mid = 0.5 * (m1 + m2)
    v_mid = np.interp(mid.ravel(), g0, v0).reshape(mid.shape)
    return float(np.max(v_mid - 0.5 * (v0[:, None] + v0[None, :])))


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _assert_band_matches_full(surface):
    res = convexity_check(surface)
    assert res["status"] == "checked"
    assert _bits(res["violation"]) == _bits(_full_matrix_violation(surface))
    return res["violation"]


def _root_slice(g0, v0):
    return SimpleNamespace(scenario=CONVEX_FLAGS, grids=(np.asarray(g0),),
                           values=(np.asarray(v0),))


def bench_surface_config() -> dict:
    """The shape of the benchmark's surface workload: the risk pair at
    N = 16 on a 601-point grid with 41 controls."""
    return {
        "name": "bench_surface_shape",
        "lattice": {"horizon": 1.0, "steps": 16},
        "driver_f": {"name": "neg_abs_z", "params": {"kappa": 0.3}},
        "driver_g": {"name": "abs_z", "params": {"kappa": 0.2}},
        "loss": {"name": "power", "params": {"p": 2.0}},
        "primal": {"grid_size": 601, "n_a": 41, "m_list": [0.5]},
        "dual": {"enabled": False},
        "checks": ["convexity"],
    }


@pytest.fixture(scope="module")
def bench_surface():
    surface = primal_value_dp(build_scenario(bench_surface_config()).primal())
    assert surface.grids[0].size == 601
    return surface


def test_band_matches_the_full_matrix_on_every_scored_catalogue_surface():
    scored = []
    for name in sorted(catalogue()):
        surface = primal_value_dp(catalogue_scenario(name).primal())
        if convexity_check(surface)["status"] == "checked":
            _assert_band_matches_full(surface)
            scored.append(name)
    # criterion 11 scores these three
    assert {"jensen", "identity", "risk_pair"} <= set(scored)


def test_band_matches_the_full_matrix_on_the_benchmark_surface_shape(
        bench_surface):
    _assert_band_matches_full(bench_surface)


@pytest.mark.parametrize("block", [1, 7, 64, 2**13])
@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 601, 602])
def test_band_matches_the_full_matrix_at_every_block_remainder(
        monkeypatch, block, n):
    # sizes that are not a multiple of a block's rows, and blocks smaller
    # than one row (one row per block)
    monkeypatch.setattr(primal_mod, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(n)
    g0 = np.sort(rng.uniform(0.0, 1.0, n))
    for v0 in (g0**2 + 1e-3 * rng.standard_normal(n), rng.standard_normal(n)):
        _assert_band_matches_full(_root_slice(g0, v0))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_value_reads_nan_and_fails_the_check(bench_surface, bad):
    v0 = bench_surface.values[0].copy()
    v0[200] = bad
    surface = SimpleNamespace(scenario=bench_surface.scenario,
                              grids=bench_surface.grids[:1], values=(v0,))
    with np.errstate(invalid="ignore"):
        assert np.isnan(_assert_band_matches_full(surface))
        entry = _check_convexity({"scenario": SimpleNamespace(
            tolerances={"convexity": 2e-3}), "surface": surface})
    assert entry["status"] == "FAIL"
    assert '"measured": "nan"' in render_report_json(entry)


@pytest.mark.parametrize("n", [91, 92])
def test_a_zero_reading_keeps_its_value_and_renders_as_zero(n):
    # see the module docstring: the zero's sign may differ, not its value
    g0 = np.linspace(0.0, 1.0, n)
    v0 = np.where(np.arange(n) % 2 == 0, 0.0, -0.0)
    surface = _root_slice(g0, v0)
    band = convexity_check(surface)["violation"]
    full = _full_matrix_violation(surface)
    assert band == full == 0.0
    for reading in (band, full):
        assert render_report_json({"measured": reading}) == \
            '{\n  "measured": 0.0\n}\n'


def test_convexity_peak_stays_under_a_megabyte(bench_surface):
    # the full 601 x 601 matrix peaked at 11.0 MB; a block's temporaries
    # stay under glibc's 128 KB mmap threshold
    convexity_check(bench_surface)
    tracemalloc.start()
    try:
        convexity_check(bench_surface)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
