"""Run the benchmark once per seed and summarise each metric.

    python3 bench/repeat.py [--workloads pointwise,cli] [--seeds 1-10] [--seconds 25] [--trace 0|1]

Runs ``bench/run.py`` one seed after another (never in parallel, so runs
do not slow each other) and prints, per metric, the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, then one JSON line with the same,
for each workload in turn (all four by default).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(workload: str, args) -> dict:
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, run, "--workload", workload, "--seed", str(seed)]
        cmd += ["--seconds", args.seconds, "--trace", args.trace]
        p = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        runs.append({k: result[k] for k in ("correct", "attempted", "failed")} | {"seed": seed})
        print(f"{workload} seed={seed}", json.dumps(runs[-1]), file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    summary = {}
    print(f"# {workload}")
    for name, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        med = statistics.median(v)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:36s} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:.4f}")
    return {"workload": workload, "seconds": args.seconds, "runs": runs, "metrics": summary}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="pointwise,loop_integrals,factorization,cli")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()
    for workload in args.workloads.split(","):
        print(json.dumps(summarise(workload, args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
