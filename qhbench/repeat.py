"""Run a workload k times, one fresh process and one seed per run, and print
each metric's median, quartiles and quartile spread (Q3 - Q1 as a share of
the median).  The bounds in BENCHMARK.json are set from this output.

    python3 qhbench/repeat.py --workload homology_ladder --runs 10
    python3 qhbench/repeat.py --workload all --runs 1        # every workload once
    python3 qhbench/repeat.py --workload census_scan --runs 2 --trace 1
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("homology_ladder", "identity_closure", "census_scan")
METRIC_LINE = re.compile(r"^  (\S+)\s+(-?[\d.]+) (\S+)$")


def one_run(workload: str, seed: int, seconds: float, trace: int):
    """(result object, {metric: (value, unit)}) of one run; the per-kind
    sums come from the printed lines, the rest from the result object."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    values = {}
    for line in lines[:-1]:
        m = METRIC_LINE.match(line)
        if m:
            values[m[1]] = (float(m[2]), m[3])
    for key, rec in result["metrics"].items():
        values[key] = (rec["value"], rec["unit"])
    return result, values


def summarize(workload: str, runs: list) -> None:
    attempted = sum(r["attempted"] for r, _ in runs)
    failed = sum(r["failed"] for r, _ in runs)
    correct = all(r["correct"] for r, _ in runs)
    print(f"\n{workload}: {len(runs)} runs, attempted {attempted}, "
          f"failed {failed}, correct {correct}")
    print(f"  {'metric':44s} {'unit':6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s}")
    names = list(dict.fromkeys(k for _, v in runs for k in v))
    for name in names:
        vals = [v[name][0] for _, v in runs if name in v]
        unit = next(v[name][1] for _, v in runs if name in v)
        med = statistics.median(vals)
        if len(vals) > 1:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:44s} {unit:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in chosen:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(one_run(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v:.4g}" for k, (v, _) in runs[-1][1].items()
                if "." not in k), flush=True)           # layer names have dots
        summarize(workload, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
