"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmark/spread.py --workload certify --runs 10 [--first-seed 0]
        [--trace 0|1] [--out FILE]

Runs ``run.py`` once per seed, one after another, and prints for every
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the interquartile range as a share of the median.  With ``--out`` the
runs, the summary and the machine record are merged into FILE as
``{workload: {"trace0"|"trace1": {seconds, machine, summary, runs}}}``.
The committed ``baseline.json`` is exactly that output: per workload ten
untraced seeds and one traced run of the default seed, e.g.

    python3 benchmark/spread.py --workload surface --first-seed 400 \
        --out benchmark/baseline.json
    python3 benchmark/spread.py --workload surface --runs 1 --first-seed 24 \
        --trace 1 --out benchmark/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]

    runs, machine = [], None
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, check=True, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("provenance "):
                machine = json.loads(line[len("provenance "):])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in sorted(
                      result["metrics"].items()) if args.trace == 0),
              flush=True)

    summary = {}
    for name in sorted(runs[0]["metrics"]) if len(runs) > 1 else ():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "iqr_share": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        print(f"{name:<32} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"iqr/median {spread:.4f}")
    if args.out:
        data = {}
        if os.path.isfile(args.out):
            with open(args.out, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        data.setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "seconds": args.seconds, "machine": machine, "summary": summary,
            "runs": runs}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
