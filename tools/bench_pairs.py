"""Alternating benchmark pairs of two checkouts, summarised per metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs 10

Runs each checkout's own perfbench/run.py from that checkout's root, once
per side and pair, one run at a time, each for the run_seconds of the
change's BENCHMARK.json, the benchmark's own run length.  Pair i takes
seed first_seed + i on both sides; the side that runs first alternates
from pair to pair, so that a slow spell of the machine falls on both.  The seeds are fresh
unless --first-seed is given: by default they start at a number drawn
from the clock, which is printed.  For every end-to-end metric it prints
each side's median and quartiles (statistics.quantiles, n=4), the pairs
the change won (by the direction BENCHMARK.json gives the metric), and
whether the change is better in the median by more than the parent's
quartile distance.  The last line is a JSON object with every run's
result.  Nothing under perfbench/ is changed; exits 1 if a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """run.py's result line for one run in the checkout at root."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int)
    args = parser.parse_args()

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    first_seed = args.first_seed if args.first_seed is not None else int(time.time()) % 100_000
    print(f"{args.workload}: {args.pairs} pairs, seeds {first_seed}..."
          f"{first_seed + args.pairs - 1}, {seconds:g} s runs", flush=True)

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = bench(roots[side], args.workload, first_seed + i, seconds)
            runs[side].append(result)
            run_s = result["metrics"]["run_s"]["value"]
            print(f"  pair {i + 1} {side:6s} run_s {run_s:.4f} correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)

    for name, is_lower in lower.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        won = sum(
            (c < p) if is_lower else (c > p) for p, c in zip(values["parent"], values["change"])
        )
        (p1, pm, p3), (c1, cm, c3) = quartiles(values["parent"]), quartiles(values["change"])
        gain = (pm - cm) if is_lower else (cm - pm)
        print(f"{name:12s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} "
              f"[{c1:.4g}, {c3:.4g}]  ({cm / pm - 1:+.1%})  change better in {won}/{args.pairs}, "
              f"median gain {gain:.4g} vs parent quartile distance {p3 - p1:.4g}")
    print(json.dumps({"workload": args.workload, "first_seed": first_seed,
                      "seconds": seconds, "runs": runs}))
    failed = any(not r["correct"] or r["failed"] for side in runs.values() for r in side)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
