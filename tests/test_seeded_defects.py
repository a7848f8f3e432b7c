"""Seeded defects of the dual certificate: each one must fail a gate.

A gate that no defect can fail shows nothing, so each defect here is
monkeypatched into dual._certificates in process, and the test asserts
which gates report FAIL:

* the f-conjugate term with its sign flipped fails the runner's
  weak_duality check on the smooth pair, whose conjugates are nonzero.
  c12 cannot see it: every finite conjugate of c12's catalogue scenarios
  is 0, so a running-term defect leaves their certificates unchanged;
* the terminal polar term without its L_N factor fails weak_duality on
  the risk pair and c12, whose searches move v away from 0 there.

Two defects pass every gate, measured and left as known gaps: dropping
the g-conjugate term (the smooth pair's search moves to a v where the
softplus conjugate is 0) and swapping the two adjoints in the terminal
ratio.
"""

import math

import numpy as np
import pytest

import weakbsde.dual as dual_mod
from weakbsde.acceptance import CRITERIA, Workspace, run_criterion
from weakbsde.runner import execute
from weakbsde.scenario import build_scenario, catalogue

CERTIFICATES = dual_mod._certificates

# the smooth pair at the benchmark's certify size and seed-24 thresholds
SMOOTH_PAIR_CONFIG = {
    "name": "smooth_pair",
    "lattice": {"horizon": 1.0, "steps": 8},
    "driver_f": {"name": "logcosh_z", "params": {"kappa": 0.3, "sign": -1}},
    "driver_g": {"name": "softplus_z", "params": {"kappa": 0.2}},
    "loss": {"name": "power", "params": {"p": 2.0}},
    "primal": {"grid_size": 201, "n_a": 21},
    "dual": {"enabled": True, "m_list": [0.25, 0.5, 0.75]},
    "checks": ["weak_duality"],
}
RISK_PAIR_CONFIG = dict(catalogue()["risk_pair"], checks=["weak_duality"])


def _flipped_f_conjugate(lattice, slope, cand, gt, ft, lp):
    return CERTIFICATES(lattice, slope, cand, gt, -ft, lp)


def _polar_without_l(lattice, slope, cand, gt, ft, lp):
    """The certificate with sum_j w_j poltil(r_j) as its terminal term in
    place of sum_j w_j L_N(j) poltil(r_j)."""
    u, v, p, q = cand
    n = lattice.steps
    l_end = dual_mod._node_adjoint(lattice, u, v)
    ratio = slope * dual_mod._node_adjoint(lattice, p, q) / l_end
    polar = np.asarray(lp.polar(ratio.ravel()), dtype=float)
    polar = polar.reshape(ratio.shape)
    weights = np.array([math.comb(n, j) for j in range(n + 1)]) / 2.0**n
    return (CERTIFICATES(lattice, slope, cand, gt, ft, lp)
            - np.sum(l_end * polar * weights, axis=-1)
            + np.sum(polar * weights, axis=-1))


def _weak_duality(config):
    """The runner's weak_duality entry on config."""
    (entry,) = execute(build_scenario(config), quiet=True)["checks"]
    return entry


def _c12():
    (c12,) = [c for c in CRITERIA if c.number == 12]
    return run_criterion(c12, Workspace())


def test_the_gates_pass_without_a_defect():
    for config in (SMOOTH_PAIR_CONFIG, RISK_PAIR_CONFIG):
        assert _weak_duality(config)["status"] == "PASS", config["name"]
    assert _c12()["status"] == "PASS"


# (defect, scenarios whose weak_duality check fails, scenarios where it
# still passes, whether c12 fails)
DEFECTS = [
    (_flipped_f_conjugate, [SMOOTH_PAIR_CONFIG], [RISK_PAIR_CONFIG], False),
    (_polar_without_l, [RISK_PAIR_CONFIG], [SMOOTH_PAIR_CONFIG], True),
]


@pytest.mark.parametrize("defect, fails, passes, c12_fails", DEFECTS,
                         ids=[d[0].__name__.lstrip("_") for d in DEFECTS])
def test_a_seeded_certificate_defect_fails_a_gate(defect, fails, passes,
                                                  c12_fails, monkeypatch):
    monkeypatch.setattr(dual_mod, "_certificates", defect)
    for config in fails:
        entry = _weak_duality(config)
        assert entry["status"] == "FAIL", (config["name"], entry)
    for config in passes:
        assert _weak_duality(config)["status"] == "PASS", config["name"]
    assert (_c12()["status"] == "FAIL") == c12_fails
