"""Run one benchmark workload against the quandlehom sources of this checkout.

    python3 qhbench/run.py --workload homology_ladder --seed 0 --seconds 10 --trace 0

The run is one process with a closed loop: it repeats whole rounds of the
workload's jobs, one after another, at least two rounds and until
`--seconds` have passed, and clears the package's lru_caches before each
round so every round starts cold, as a CLI user does.  Each job is timed
alone; its output is checked after the clock stops.

End-to-end metrics, the same on every workload: setup_s (start to first
job: the median time for a fresh interpreter to import the package, over
five child processes, plus the median of five passes writing the input
tables),
round_s (the sum over jobs of each job's median time over the rounds) and
peak_rss_mb.  The same sum over each kind of job (homology_s, cocycles_s,
...) is printed by name as well.

With `--trace 1` the rounds alternate untraced, traced, untraced, ... (at
least three) and end on an untraced one; the per-layer metrics come from the
traced rounds, and the tracing overhead is the median traced minus the
median untraced round time, the first round left out because it alone pays
the process's warm-up.  Spans go to
qhbench/_out/spans-<workload>-<seed>.jsonl.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PASSES = 5
IMPORT_SAMPLES = 5
MIN_ROUNDS = 2          # untraced; a traced run adds a traced round

WORKLOADS = ("homology_ladder", "identity_closure", "census_scan")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import quandlehom from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "quandlehom" / "__init__.py").is_file():
        sys.exit(f"error: no quandlehom sources under {src}")
    sys.path.insert(0, str(src))
    import quandlehom
    if Path(quandlehom.__file__).resolve().parent != src / "quandlehom":
        sys.exit(f"error: quandlehom imported from {quandlehom.__file__}")
    import workloads
    return workloads


def import_seconds() -> float:
    """Median time for a fresh interpreter to start and import the package.

    Measured in child processes, each waited for, because one process can
    import a package only once."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import quandlehom"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def clear_caches():
    for name, mod in list(sys.modules.items()):
        if name == "quandlehom" or name.startswith("quandlehom."):
            for val in vars(mod).values():
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()


def run_round(jobs, ctx, tally) -> list:
    """Run every job once; returns each job's seconds (None if it crashed)."""
    ctx.results.clear()
    times = []
    for job in jobs:
        tally["attempted"] += 1
        start = time.perf_counter()
        try:
            out = job.call()
        except Exception as exc:              # a crash fails this job only
            times.append(None)
            tally["failed"] += 1
            print(f"FAILED {job.label}: {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - start)
        reason = job.check(out)
        if reason:
            tally["failed"] += 1
            tally["wrong"] += 1
            print(f"WRONG {job.label}: {reason}")
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_package()
    import_s = import_seconds()
    setup, make_jobs = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        passes = []
        for i in range(SETUP_PASSES):
            ctx = workloads.Context(args.seed, work / f"pass{i}")
            ctx.directory.mkdir(parents=True)
            start = time.perf_counter()
            setup(ctx)
            workloads.setup_probe(ctx)
            passes.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(passes)
        problem = workloads.setup_problems(ctx)
        if tracer:
            tracer.uninstall()
        jobs = make_jobs(ctx) + workloads.jobs_probe(ctx)

        tally = {"attempted": 0, "failed": 0, "wrong": 0}
        if problem:
            tally["wrong"] += 1
            print(f"WRONG setup: {problem}")
        plain, traced = [], []
        min_rounds = MIN_ROUNDS + (1 if tracer else 0)
        loop_start = time.perf_counter()
        while True:
            tracing = tracer is not None and len(plain) > len(traced)
            clear_caches()
            if tracing:
                tracer.phase = f"round{len(traced)}"
                tracer.install()
            times = run_round(jobs, ctx, tally)
            if tracing:
                tracer.uninstall()
            (traced if tracing else plain).append(times)
            print(f"round {len(plain) + len(traced)}"
                  f"{' traced' if tracing else ''}: "
                  f"{sum(t for t in times if t):.3f} s")
            enough = (len(plain) + len(traced) >= min_rounds and
                      time.perf_counter() - loop_start >= args.seconds)
            if enough and (tracer is None or len(plain) > len(traced)):
                break
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / "_work").rmdir()

    # each job's median over the untraced rounds
    per_job = [statistics.median(t for t in col if t is not None)
               if any(t is not None for t in col) else 0.0
               for col in zip(*plain)]
    kinds = {}
    for job, t in zip(jobs, per_job):
        kinds[job.metric] = (kinds.get(job.metric, (0.0, "s"))[0] + t, "s")
    if tracer is None:
        values = {"setup_s": (setup_s, "s"), "round_s": (sum(per_job), "s"),
                  "peak_rss_mb": (peak_mb, "MB")}
    else:
        values = layer_metrics(tracer, len(traced), SETUP_PASSES)
        # the first round also pays the process's warm-up: leave it out
        base = statistics.median(sum(t for t in r if t) for r in plain[1:])
        with_spans = statistics.median(sum(t for t in r if t) for r in traced)
        values["trace.overhead_pct"] = (100 * (with_spans - base) / base, "%")
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(span_file)
        from spans import span_cost
        per_round = sum(1 for sp in tracer.spans if sp[4] != "setup") / len(traced)
        print(f"tracing overhead: {with_spans - base:+.3f} s per round "
              f"({values['trace.overhead_pct'][0]:+.1f}%), untraced {base:.3f} s;"
              f" the wrappers alone cost about {per_round * span_cost():.3f} s"
              f" ({per_round:.0f} spans a round); spans in"
              f" {span_file.relative_to(ROOT)}")

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced rounds of {len(jobs)} jobs")
    for name, (value, unit) in {**dict(sorted(kinds.items())), **values}.items():
        print(f"  {name:44s} {value:14.6f} {unit}")
    print(f"  attempted {tally['attempted']}  failed {tally['failed']}")
    print(json.dumps({
        "correct": tally["wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


def layer_metrics(tracer, traced_rounds: int, setup_passes: int) -> dict:
    """Per-layer metrics of one round plus one set-up pass: the traced
    rounds' totals over their count, plus the set-up totals over theirs."""
    from spans import LAYER_METRICS
    rounds = [f"round{i}" for i in range(traced_rounds)]
    spans = tracer.layer_totals(rounds)
    counts = tracer.counter_totals(rounds)
    setup_spans = tracer.layer_totals(["setup"])
    setup_counts = tracer.counter_totals(["setup"])
    out = {}
    for metric, unit, (source, key) in LAYER_METRICS:
        if source == "max":
            value = max(tracer.max_bits[p] for p in rounds + ["setup"])
        elif source == "count":
            value = (counts.get(key, 0.0) / traced_rounds
                     + setup_counts.get(key, 0.0) / setup_passes)
        else:
            value = (spans[source][key] / traced_rounds
                     + setup_spans[source][key] / setup_passes)
        out[metric] = (value, unit)
    return out


if __name__ == "__main__":
    sys.exit(main())
