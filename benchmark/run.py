"""Benchmark of the weakbsde lattice laboratory.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload certify|surface|verify \
        --seed N --seconds S --trace 0|1

Each run is one process with one thread and a closed loop with one caller:
the next operation starts only after the previous one returns.  The run
repeats the workload's fixed work set until ``--seconds`` would be
exceeded, with a floor of two operations.  Every operation passes
through the correctness gate (gate.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced operation and then at least two traced ones, with a span around
every public call of every layer (tracing.py), and reports the per-layer
metrics, the self-time share of each layer and the tracing overhead.  The
last line of standard output is the JSON result; provenance and the
per-operation record go to the lines before it and to ``.bench_work/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# set-up probes per round; one round runs before the timed loop and one
# after it, so that setup_s samples the host at both ends of the run
SETUP_PROBES = 6
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = ("certify", "surface", "verify")
# every run makes at least two operations, so the gate can compare the
# report.json bytes of two executions
MIN_OPS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def import_package():
    """Import weakbsde from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "weakbsde", "__init__.py")):
        raise SystemExit(f"benchmark: no package source under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import weakbsde
    if not os.path.abspath(weakbsde.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: imported weakbsde from {weakbsde.__file__}")


def prepare(workload: str, seed: int, small: bool = False):
    """Build and validate the workload's configs: the set-up users pay."""
    from weakbsde.scenario import build_scenario, catalogue, catalogue_scenario
    import workloads

    if workload == "certify":
        return build_scenario(workloads.certify_config(seed, small))
    if workload == "surface":
        return build_scenario(workloads.surface_config(seed, small))
    return [catalogue_scenario(name) for name in catalogue()]


def setup_seconds(args, seed: int) -> list:
    """Process start to ready, in fresh interpreters: import plus configs."""
    import subprocess

    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(seed)]
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    out = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - started)
    return out


class Operations:
    """Runs one operation of the workload and gates it."""

    def __init__(self, workload: str, seed: int, small: bool, state):
        import gate
        import workloads

        self.workload, self.seed, self.small, self.state = (workload, seed,
                                                            small, state)
        self.gate, self.workloads = gate, workloads
        self.first_bytes = None
        self.reference = None
        self.last_gap = 0.0
        self.last_artifact_bytes = 0
        if not small and seed == workloads.DEFAULT_SEED:
            path = os.path.join(HERE, "reference.json")
            with open(path, "r", encoding="utf-8") as fh:
                self.reference = json.load(fh).get(workload)

    def run(self) -> tuple:
        """(seconds, attempted, failed, problems) of one operation.

        A crash of the program or of the gate is a failed operation.
        """
        verify = self.workload == "verify"
        try:
            return self._verify() if verify else self._execute()
        except Exception as exc:
            n = self.criteria() if verify else 1
            return None, n, n, [f"{type(exc).__name__}: {exc}"]

    def criteria(self) -> int:
        return len(self.workloads.verify_criteria(self.small))

    def _execute(self):
        res = self.workloads.run_execute(self.state, WORK)
        problems = self.gate.check_execute(res, self.first_bytes, self.reference)
        if self.first_bytes is None:
            self.first_bytes = res.report_bytes
        gaps = [row["gap"] for row in res.report.get("curve", [])
                if row.get("gap") is not None]
        self.last_gap = max(gaps) if gaps else 0.0
        self.last_artifact_bytes = res.artifact_bytes
        return res.seconds, 1, int(bool(problems)), problems

    def _verify(self):
        import inspect

        from weakbsde.runner import render_report_json

        render = inspect.unwrap(render_report_json)    # keep it out of spans

        seconds, summary = self.workloads.run_verify(self.seed, self.small)
        rendered = render(summary).encode("utf-8")
        attempted, failed, problems = self.gate.check_verify(
            summary, self.criteria(), self.first_bytes, rendered)
        if self.first_bytes is None:
            self.first_bytes = rendered
        return seconds, attempted, failed, problems


def tree_sha256(directory: str) -> str:
    """Digest of the .py files of one directory (not recursive)."""
    import hashlib

    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(directory, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, *ref.split("/"))
        if os.path.isfile(loose):
            with open(loose, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def machine_record(load_at_start) -> dict:
    import platform

    import numpy as np

    model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor() or None
    return {"cores": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "loadavg_start": list(load_at_start), "git_commit": git_commit(),
            "source_sha256": tree_sha256(os.path.join(SRC, "weakbsde")),
            "benchmark_sha256": tree_sha256(HERE)}


def loop(ops: Operations, seconds: float, min_ops: int, tally: dict,
         times: list) -> None:
    """Closed loop: start the next operation only if it should still fit."""
    started = time.perf_counter()
    n = 0
    while True:
        took, attempted, failed, problems = ops.run()
        record(tally, attempted, failed, problems)
        if took is not None:
            times.append(took)
        n += 1
        elapsed = time.perf_counter() - started
        typical = median(times) if times else 0.0
        if n >= min_ops and elapsed + typical > seconds:
            return


def counts_of(metrics: dict) -> dict:
    return {k: v for k, (v, unit) in metrics.items()
            if unit in ("count", "bytes")}


def record(tally: dict, attempted: int, failed: int, problems: list) -> None:
    tally["ops"] += 1
    tally["attempted"] += attempted
    tally["failed"] += failed
    tally["problems"] += problems


def traced_run(args, seed: int, ops: Operations, tally: dict) -> tuple:
    """One untraced operation, then traced ones; per-layer metrics.

    At least two traced operations run, so the exact-repeat check of the
    counts can fail within one run; more run while another fits in
    ``--seconds``.  The tracing overhead is the median traced minus the
    untraced wall time.
    """
    import workloads
    from tracing import Tracer

    tracer = Tracer(workloads.VERIFY_CRITERIA)
    untraced, per_op, coverage = [], [], []
    started = time.perf_counter()
    loop(ops, 0.0, 1, tally, untraced)
    tracer.install()
    try:
        tracer.begin_op(0)
        prepare(args.workload, seed)
        build_s = tracer.metrics(1.0)["scenario.build_s"][0]
        while True:
            tracer.begin_op(len(per_op) + 1)
            took, attempted, failed, problems = ops.run()
            record(tally, attempted, failed, problems)
            wall = took if took is not None else 0.0
            m = tracer.metrics(wall)
            m["scenario.build_s"] = (build_s, "s")
            m["dual.gap_max"] = (ops.last_gap, "value")
            m["runner.artifact_bytes"] = (ops.last_artifact_bytes, "bytes")
            m["trace.spans"] = (tracer.spans_in_window(), "count")
            m["trace.wall_s"] = (wall, "s")
            per_op.append(m)
            coverage.append(tracer.top_level_seconds() / wall if wall else 0.0)
            elapsed = time.perf_counter() - started
            if len(per_op) >= MIN_OPS and elapsed + wall > args.seconds:
                break
    finally:
        tracer.uninstall()
    os.makedirs(WORK, exist_ok=True)
    tag = f"{args.workload}-seed{seed}"
    tracer.save(os.path.join(WORK, f"spans-{tag}.npz"))

    # the counts are deterministic: they must repeat between traced
    # operations of this run and between traced runs of the same source
    first = counts_of(per_op[0])
    for m in per_op[1:]:
        if counts_of(m) != first:
            tally["failed"] += 1
            tally["problems"].append("traced counts differ between operations")
    counts_path = os.path.join(WORK, f"counts-{tag}.json")
    saved = {"trees": [tree_sha256(os.path.join(SRC, "weakbsde")),
                        tree_sha256(HERE)],
              "counts": first}
    if os.path.isfile(counts_path):
        with open(counts_path, "r", encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier.get("trees") == saved["trees"] \
                and earlier.get("counts") != first:
            tally["failed"] += 1
            tally["problems"].append("traced counts differ from an earlier "
                                     "traced run of the same source")
    with open(counts_path, "w", encoding="utf-8") as fh:
        json.dump(saved, fh, sort_keys=True)

    metrics = {}
    for name, (value, unit) in per_op[0].items():
        values = [m[name][0] for m in per_op]
        metrics[name] = (median(values) if unit in ("s", "us", "ratio")
                         else value, unit)
    metrics["trace.untraced_wall_s"] = (median(untraced) if untraced else 0.0,
                                        "s")
    metrics["trace.overhead_s"] = (
        metrics["trace.wall_s"][0] - metrics["trace.untraced_wall_s"][0], "s")
    return metrics, min(coverage)


def share_table(metrics: dict, coverage: float) -> list:
    from tracing import LAYERS

    rows = sorted(((metrics[f"{layer}.share"][0], layer) for layer in LAYERS),
                  reverse=True)
    lines = ["self-time share of traced wall_s (upper bound on what speeding "
             "up the layer can save):"]
    for share, layer in rows:
        lines.append(f"  {layer:<11} {100 * share:6.2f}%  "
                     f"{metrics[f'{layer}.self_s'][0]:.4f} s")
    outside = 1.0 - sum(share for share, _ in rows)
    lines.append(f"  {'(outside)':<11} {100 * outside:6.2f}%  benchmark glue "
                 "and wrapper cost")
    lines.append(f"top-level span coverage {100 * coverage:.2f}%"
                 f", tracing overhead {metrics['trace.overhead_s'][0]:+.3f} s")
    return lines


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    import_package()
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if args.setup_probe:
        prepare(args.workload, seed)
        return 0

    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    import tempfile
    tempfile.tempdir = os.path.join(WORK, "tmp")   # verify writes temp reports

    setup = [] if args.trace else setup_seconds(args, seed)
    state = prepare(args.workload, seed)
    ops = Operations(args.workload, seed, False, state)
    tally = {"ops": 0, "attempted": 0, "failed": 0, "problems": []}
    times = []
    if args.trace:
        metrics, coverage = traced_run(args, seed, ops, tally)
        lines = share_table(metrics, coverage)
    else:
        loop(ops, args.seconds, MIN_OPS, tally, times)
        setup += setup_seconds(args, seed)
        import resource
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": (median(times) if times else 0.0, "s"),
                   "setup_s": (median(setup), "s"),
                   "peak_rss_mb": (rss, "MB")}
        ratio = tally["failed"] / tally["attempted"]
        lines = [f"  {'fail_ratio':<14} {ratio:.6g} ratio "
                 f"({tally['failed']} failed / {tally['attempted']} attempted)",
                 f"  {'dual_gap_max':<14} {ops.last_gap!r}",
                 "  op wall_s: " + ", ".join(f"{t:.4f}" for t in times),
                 "  setup_s probes: " + ", ".join(f"{t:.4f}" for t in setup)]

    print(f"workload {args.workload} (seed {seed}, trace {args.trace}, "
          f"{tally['ops']} operations)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    for line in lines:
        print(line)
    for problem in tally["problems"]:
        print(f"  GATE: {problem}")
    outcome = {"workload": args.workload, "seed": seed, "trace": args.trace,
              "seconds": args.seconds, "ops": tally["ops"],
              "op_wall_s": times, "setup_s": setup,
              "machine": machine_record(load_at_start),
              "problems": tally["problems"],
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    print("provenance " + json.dumps(outcome["machine"], sort_keys=True))
    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    with open(os.path.join(WORK, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(outcome, fh, indent=1, sort_keys=True)
    result = {"correct": tally["failed"] == 0 and tally["attempted"] > 0,
              "attempted": tally["attempted"], "failed": tally["failed"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
