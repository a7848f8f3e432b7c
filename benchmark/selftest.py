"""Harness self-test at reduced size.

    python3 benchmark/selftest.py

Runs every workload once at reduced size through the gate, runs two traced
operations and requires their counts to match exactly, and feeds the gate
doctored results (a dual bound above the primal, a flipped check status, a
broken trace candidate, a moved primal value, changed report bytes, a failed
criterion, an operation that raises, a malformed report).  Each doctored result must raise the
failure count without crashing the harness.  Exits 1 on the first miss.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def small_ops(workload: str, seed: int = 5) -> run.Operations:
    state = run.prepare(workload, seed, small=True)
    return run.Operations(workload, seed, True, state)


def fresh_tally() -> dict:
    return {"ops": 0, "attempted": 0, "failed": 0, "problems": []}


def main() -> int:
    run.import_package()
    os.makedirs(os.path.join(run.WORK, "tmp"), exist_ok=True)
    import gate
    import workloads
    from tracing import Tracer

    for workload in sorted(run.WORKLOADS):
        tally = fresh_tally()
        run.loop(small_ops(workload), 0.0, 2, tally, [])
        expect(tally["failed"] == 0 and tally["attempted"] > 0,
               f"{workload}: two reduced operations pass the gate "
               f"({tally['problems']})")

        ops = small_ops(workload)
        tracer = Tracer(workloads.verify_criteria(small=True))
        tracer.install()
        counts = []
        try:
            for op in (1, 2):
                tracer.begin_op(op)
                took, _, failed, problems = ops.run()
                expect(failed == 0, f"{workload}: traced operation {op} "
                                    f"passes ({problems})")
                counts.append(run.counts_of(tracer.metrics(took)))
        finally:
            tracer.uninstall()
        expect(counts[0] == counts[1] and sum(counts[0].values()) > 0,
               f"{workload}: traced counts repeat exactly")

    # doctored execute results must each trip the gate
    from weakbsde.scenario import build_scenario
    scenario = build_scenario(workloads.certify_config(5, small=True))
    good = workloads.run_execute(scenario, run.WORK)
    expect(gate.check_execute(good, good.report_bytes, None) == [],
           "undoctored certify result passes")

    def doctored(edit):
        res = dataclasses.replace(good, report=copy.deepcopy(good.report),
                                  duals=copy.deepcopy(good.duals))
        edit(res)
        return res

    def bound_above_primal(res):
        row = next(r for r in res.report["curve"] if r["dual_bound"] is not None)
        row["dual_bound"] = row["primal"] + 1e-6

    def flip_check(res):
        res.report["checks"][0]["status"] = "FAIL"

    def break_trace(res):
        m, out = res.duals[0]
        l, cert = out["trace"][0]
        out["trace"][0] = (l, cert - 1.0)

    def move_primal(res):
        res.report["curve"][0]["primal"] += 1e-9

    cases = {
        "bound above primal": (doctored(bound_above_primal), good.report_bytes),
        "flipped check status": (doctored(flip_check), good.report_bytes),
        "weak duality broken in the trace": (doctored(break_trace),
                                             good.report_bytes),
        "primal off m^2": (doctored(move_primal), good.report_bytes),
        "report bytes changed": (good, good.report_bytes + b" "),
    }
    for what, (res, first) in cases.items():
        expect(gate.check_execute(res, first, None) != [], f"gate trips: {what}")

    rows = {repr(r["m"]): r for r in good.report["curve"]}
    bound_m = next(k for k, r in rows.items() if r["dual_bound"] is not None)
    reference = {"primal": {k: r["primal"] for k, r in rows.items()},
                 "dual_bound": {bound_m: rows[bound_m]["dual_bound"]}}
    expect(gate.check_reference(good.report, reference) == [],
           "reference recorded from the same result matches")
    moved = copy.deepcopy(reference)
    moved["dual_bound"][bound_m] += 1e-6
    expect(gate.check_reference(good.report, moved) != [],
           "gate trips: dual bound fell below the reference")
    raised = copy.deepcopy(reference)
    raised["dual_bound"][bound_m] -= 1e-6
    expect(gate.check_reference(good.report, raised) == [],
           "a dual bound that rose above the reference passes")

    # the loop counts doctored and crashing operations as failed, no crash
    ops = small_ops("certify")
    original = workloads.run_execute
    def malformed(res):
        del res.report["curve"][0]["primal"]

    sequence = iter([doctored(flip_check), RuntimeError("injected fault"),
                     doctored(malformed)])

    def fake_run_execute(state, work):
        item = next(sequence)
        if isinstance(item, Exception):
            raise item
        return item

    workloads.run_execute = fake_run_execute
    try:
        tally = fresh_tally()
        run.loop(ops, 0.0, 3, tally, [])
    finally:
        workloads.run_execute = original
    expect(tally["attempted"] == 3 and tally["failed"] == 3,
           f"loop counts doctored, crashing and malformed operations as "
           f"failed ({tally['problems']})")

    summary = workloads.run_verify(5, small=True)[1]
    expected = len(workloads.verify_criteria(small=True))
    bad = copy.deepcopy(summary)
    bad["criteria"][0]["status"] = "FAIL"
    _, failed, _ = gate.check_verify(bad, expected, None, b"")
    expect(failed == 1, "gate trips: one failed criterion")
    _, failed, _ = gate.check_verify(summary, expected, b"a", b"b")
    expect(failed == expected, "gate trips: verify report bytes changed")
    short = copy.deepcopy(summary)
    short["criteria"].pop()
    _, failed, _ = gate.check_verify(short, expected, None, b"")
    expect(failed == expected, "gate trips: a criterion is missing")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
