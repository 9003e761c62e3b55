"""excitonsim benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload bell2 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; excitonsim is imported from its src/.  The
seed writes the workload's config with sections and keys in a seed-chosen
order.  Set-up is timed in SETUP_PROBES fresh processes; the operation is
then repeated in one more process for about --seconds seconds.  Times are
reported in reference seconds: wall time corrected for the machine's speed,
which speed.py samples while each timed region runs.  Every
operation's outputs are checked against workloads.EXPECTED, and the
simulate workloads' trajectory.csv and metrics.txt must hash the same on
every repeat.  With --trace 1 each round runs the operation once plain and
once with per-layer wrappers installed, and the result holds the per-layer
metrics instead of the end-to-end ones.

Child processes run one after another with BLAS and OpenMP pinned to one
thread; the result is marked incorrect if the measured process holds more
threads than this machine has cores (nproc).

Exit codes: 0 with a result line, 2 when the checkout or the run is broken
(no result line is printed then).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_outputs, shuffled_config, source_text

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
DEADLINE_S = 170.0
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = 1

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "config.load_config_s": "s",
    "device.build_register_s": "s",
    "device.coulomb_integral.calls": "count",
    "model.calls": "count",
    "model.s": "s",
    "pulses.compile_program_s": "s",
    "pulses.field_at.calls": "count",
    "pulses.field_at_s": "s",
    "dynamics.propagate.calls": "count",
    "dynamics.propagate_s": "s",
    "dynamics.rk4_steps": "count",
    "dynamics.step_us": "us",
    "dynamics.liouvillian_apply.calls": "count",
    "dynamics.liouvillian_apply_self_s": "s",
    "dynamics.loop_other_s": "s",
    "analysis.gate_fidelity_s": "s",
    "analysis.propagations_per_call": "count",
    "analysis.self_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(args: list[str], root: Path, deadline: float) -> str:
    """Run worker.py to completion and return its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=root,
            env=child_env(root),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:  # subprocess.run killed and reaped it
        raise BenchError(f"worker {args[0]} timed out after {err.timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker {args[0]} exited with {proc.returncode}: {proc.stderr.strip()}"
        )
    return lines[-1]


def setup_seconds(workload: str, config: Path, root: Path, deadline: float) -> float:
    """One fresh process's set-up time, in reference seconds (speed.py)."""
    start = time.monotonic()
    probe = json.loads(run_child(["setup", "--workload", workload, "--config", str(config)], root, deadline))
    return (probe["reached"] - start - probe["own_s"]) * probe["scale"]


def judge(workload: str, ops: list[dict]) -> list[str]:
    """Mark each op ok or not; return the reasons for every failure."""
    errors = []
    reference_hashes = None
    reference_counts = None
    for i, op in enumerate(ops):
        problems = [op["error"]] if "error" in op else check_outputs(workload, op["outputs"])
        if "hashes" in op:
            reference_hashes = reference_hashes or op["hashes"]
            if op["hashes"] != reference_hashes:
                problems.append("output files differ from the first repeat")
        if "layers" in op:
            counts = {k: v for k, v in op["layers"].items() if isinstance(v, int)}
            reference_counts = reference_counts or counts
            if counts != reference_counts:
                problems.append("per-layer counts differ from the first traced repeat")
        op["ok"] = not problems
        errors += [f"op {i}: {p}" for p in problems]
    return errors


def end_to_end(ops: list[dict], setup_samples: list[float], peak_rss_mb: float) -> dict:
    completed = [op["s"] for op in ops if op["s"] is not None]
    if not completed:
        raise BenchError("no operation completed")
    values = {
        "run_s": statistics.median(completed),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(ops: list[dict]) -> dict:
    traced = [op for op in ops if op["traced"] and "layers" in op]
    plain = [op["s"] for op in ops if not op["traced"] and op["s"] is not None]
    if not traced or not plain:
        raise BenchError("no traced and plain operation pair completed")
    values = {}
    for name in LAYER_UNITS:
        if name == "trace.overhead_s":
            continue
        samples = [op["layers"][name] for op in traced]
        values[name] = samples[0] if isinstance(samples[0], int) else statistics.median(samples)
    values["trace.overhead_s"] = statistics.median(op["s"] for op in traced) - statistics.median(plain)
    return {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}


def bench(args: argparse.Namespace, root: Path, work: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    config = work / f"{args.workload}.cfg"
    config.write_text(shuffled_config(source_text(args.workload, root), args.seed, args.workload))
    setup_samples = (
        [] if args.trace else
        [setup_seconds(args.workload, config, root, deadline) for _ in range(SETUP_PROBES)]
    )
    report = json.loads(run_child(
        ["run", "--workload", args.workload, "--config", str(config),
         "--work-dir", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        root, deadline,
    ))
    ops = report["ops"]
    errors = judge(args.workload, ops)
    nproc = len(os.sched_getaffinity(0))
    if report["threads"] > nproc:
        errors.append(f"measured process held {report['threads']} threads, nproc is {nproc}")
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "ops_traced_s_wall_scale_ok": [
            [op["traced"], op["s"], op.get("wall_s"), op.get("scale"), op["ok"]] for op in ops
        ],
        "setup_samples_s": setup_samples,
        "nproc": nproc,
        "blas_threads": BLAS_THREADS,
        "threads_seen": report["threads"],
    }))
    metrics = per_layer(ops) if args.trace else end_to_end(ops, setup_samples, report["peak_rss_mb"])
    return {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "excitonsim" / "__init__.py").is_file():
        print(f"error: {root} holds no src/excitonsim to benchmark", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = bench(args, root, work)
    except (BenchError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
