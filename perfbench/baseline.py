"""Repeat run.py over seeds and write a summary with the machine it ran on.

    python3 perfbench/baseline.py --runs 10 --trace-runs 2 --out perfbench/baseline.json

Runs every workload one after another from the current directory (the root
of a checkout): --runs untraced runs with seeds first_seed, first_seed + 1,
..., then --trace-runs traced ones.  For each metric it stores every value,
the median, the quartiles from statistics.quantiles(values, n=4) and their
distance as a share of the median ("spread"), and under "runs" each run's
detail line.  "end_to_end_wall" summarises the uncorrected wall time of the
operation, next to the speed-corrected run_s.  Counts of traced runs that
do not repeat exactly are listed under "count_mismatches".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """run.py's result line and the detail line before it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(result), json.loads(detail)


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def machine() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    cpu = next(
        (line.split(":", 1)[1].strip()
         for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": sha,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": run.BLAS_THREADS,
        "thread_vars": list(run.THREAD_VARS),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    summary = {"machine": machine(), "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        entry = {"end_to_end": {}, "per_layer": {}, "failed": 0, "attempted": 0,
                 "all_correct": True, "count_mismatches": [], "runs": []}
        for trace, n_runs, key in ((0, args.runs, "end_to_end"), (1, args.trace_runs, "per_layer")):
            pairs = [
                bench_once(workload, args.first_seed + i, args.seconds, trace)
                for i in range(n_runs)
            ]
            results = [result for result, _ in pairs]
            entry["runs"] += [detail for _, detail in pairs]
            for r in results:
                entry["attempted"] += r["attempted"]
                entry["failed"] += r["failed"]
                entry["all_correct"] &= r["correct"]
            names = results[0]["metrics"] if results else {}
            for name, first in names.items():
                values = [r["metrics"][name]["value"] for r in results]
                entry[key][name] = {"unit": first["unit"], **summarise(values)}
                if trace and first["unit"] in ("count", "bytes") and len(set(values)) > 1:
                    entry["count_mismatches"].append(name)
        # Uncorrected wall time per run, for comparison with run_s.
        entry["end_to_end_wall"] = summarise([
            statistics.median(op[2] for op in d["ops_traced_s_wall_scale_ok"] if not op[0] and op[2])
            for d in entry["runs"][: args.runs]
        ])
        summary["workloads"][workload] = entry
        for name, stats in [*entry["end_to_end"].items(), ("wall", entry["end_to_end_wall"])]:
            print(f"{workload:24s} {name:12s} median {stats['median']:.4g} "
                  f"{stats.get('unit', 's')}  spread {stats['spread']:.3f}", flush=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
