"""The measured process: runs one workload's operation in-process.

Started by run.py from the root of a checkout, with excitonsim imported from
that checkout's src/.  Two modes:

  setup  import excitonsim, load the config and compile its program, then
         print time.monotonic(): the moment the first call into dynamics
         would start, with the speed sampler's time and scale (speed.py).
         run.py takes the difference from its own clock.
  run    repeat the operation for about --seconds seconds and print one
         JSON line with every operation's time, outputs and checks, the
         process's peak RSS and its thread count.

Every operation resolves excitonsim functions through module attributes at
call time, so the tracer's wrappers (trace mode only) see every call.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedSampler, kernel
from tracer import Tracer
from workloads import WORKLOADS

HASHED = ("trajectory.csv", "metrics.txt")
# manifest.cfg is left out of the byte count: its wall_clock_s field changes
# width with the run time, and the count must repeat exactly.
COUNTED = ("trajectory.csv", "sequence.csv", "metrics.txt")


def import_excitonsim(root: Path):
    """Import excitonsim from root/src and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import excitonsim

    location = Path(excitonsim.__file__).resolve()
    if src not in location.parents:
        raise ImportError(f"excitonsim imported from {location}, not from {src}")
    return excitonsim


def _mod(name: str):
    return importlib.import_module(f"excitonsim.{name}")


def setup(config_path: Path) -> None:
    """Everything a workload does before its first call into dynamics."""
    _mod("cli")
    config = _mod("config").load_config(str(config_path))
    _mod("pulses").compile_program(config.register, config.program, config.policy)


def _parse_metrics(text: str) -> dict:
    outputs = {}
    for line in text.splitlines():
        name, _, value = line.partition(" = ")
        outputs[name] = int(value) if name == "n_steps" else float(value)
    return outputs


def _timed(call):
    """call() under the speed sampler: its value, wall time and scale."""
    sampler = SpeedSampler()
    with sampler:
        start = time.perf_counter()
        value = call()
        wall = time.perf_counter() - start
    scale = sampler.scale()
    return value, {"s": (wall - sampler.own_s) * scale, "wall_s": wall, "scale": scale}


def _simulate(config_path: Path, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True)
    err = io.StringIO()
    argv = ["simulate", "--config", str(config_path), "--out-dir", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code, times = _timed(lambda: _mod("cli").main(argv))
    if code != 0:
        return {**times, "error": f"exit code {code}: {err.getvalue().strip()}"}
    return {
        **times,
        "outputs": _parse_metrics((out_dir / "metrics.txt").read_text()),
        "hashes": {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in HASHED
        },
        "bytes_written": sum((out_dir / name).stat().st_size for name in COUNTED),
    }


def _gate_fidelity(config_path: Path) -> dict:
    def call():
        config = _mod("config").load_config(str(config_path))
        pulses = _mod("pulses")
        sequence = pulses.compile_program(config.register, config.program, config.policy)
        ideal = pulses.ideal_gate_unitary(config.register, config.program[0][0])
        return _mod("analysis").gate_fidelity(
            sequence, config.register, config.channels, config.simulation, ideal
        )

    value, times = _timed(call)
    return {**times, "outputs": {"gate_fidelity": value}, "bytes_written": 0}


def run_op(workload: str, config_path: Path, out_dir: Path) -> dict:
    """One operation: its times and outputs, or the error it ended in.

    "s" is in reference seconds (see speed.py), "wall_s" as measured.
    """
    try:
        if WORKLOADS[workload]["kind"] == "simulate":
            return _simulate(config_path, out_dir)
        return _gate_fidelity(config_path)
    except Exception:  # a failed operation is counted, not fatal
        return {"s": None, "error": traceback.format_exc(limit=3)}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def layer_metrics(tracer: Tracer, bytes_written: int, scale: float) -> dict:
    """Per-layer metrics of one traced operation.

    Times are scaled to reference seconds with the operation's speed scale;
    they include the sampler's share (about 2 %).  Counts are exact.
    """
    st = tracer.stats
    prop = st["dynamics.propagate"]
    fid = st["analysis.gate_fidelity"]
    times = {
        "config.load_config_s": st["config.load_config"].total_s,
        "device.build_register_s": st["device.build_register"].total_s,
        "model.s": st["model"].total_s,
        "pulses.compile_program_s": st["pulses.compile_program"].total_s,
        "pulses.field_at_s": st["pulses.field_at"].total_s,
        "dynamics.propagate_s": prop.total_s,
        "dynamics.step_us": 1e6 * prop.total_s / prop.steps if prop.steps else 0.0,
        "dynamics.liouvillian_apply_self_s": st["dynamics.liouvillian_apply"].self_s,
        "dynamics.loop_other_s": prop.self_s,
        "analysis.gate_fidelity_s": fid.total_s,
        "analysis.self_s": fid.self_s,
        "cli.write_s": st["cli.simulate"].self_s,
    }
    counts = {
        "device.coulomb_integral.calls": st["device.coulomb_integral"].calls,
        "model.calls": st["model"].calls,
        "pulses.field_at.calls": st["pulses.field_at"].calls,
        "dynamics.propagate.calls": prop.calls,
        "dynamics.rk4_steps": prop.steps,
        "dynamics.liouvillian_apply.calls": st["dynamics.liouvillian_apply"].calls,
        "analysis.propagations_per_call": prop.calls // fid.calls if fid.calls else 0,
        "cli.bytes_written": bytes_written,
    }
    return {**{k: v * scale for k, v in times.items()}, **counts}


def traced_op(workload: str, config_path: Path, out_dir: Path) -> dict:
    with Tracer() as tracer:
        op = run_op(workload, config_path, out_dir)
    if op["s"] is not None:
        op["layers"] = layer_metrics(tracer, op.get("bytes_written", 0), op["scale"])
    return op


def measure(
    workload: str, config_path: Path, work_dir: Path, seconds: float, trace: bool
) -> list[dict]:
    """Repeat the operation (plain, then traced in trace mode) for ~seconds.

    A new round starts only if it is expected to end within the budget,
    judged by the longest round so far; the first round always runs.
    """
    kernel()
    ops: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        round_start = time.monotonic()
        ops.append({"traced": False, **run_op(workload, config_path, work_dir / f"op{len(ops)}")})
        if trace:
            ops.append({"traced": True, **traced_op(workload, config_path, work_dir / f"op{len(ops)}")})
        now = time.monotonic()
        longest = max(longest, now - round_start)
        if now - start + longest > seconds:
            return ops


def _thread_count() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--work-dir", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_excitonsim(Path.cwd())
    if args.mode == "setup":
        start = time.perf_counter()
        kernel()
        warm_s = time.perf_counter() - start
        sampler = SpeedSampler()
        with sampler:
            setup(args.config)
        reached = time.monotonic()
        own_s = warm_s + sampler.own_s
        print(json.dumps({"reached": reached, "own_s": own_s, "scale": sampler.scale()}))
        return 0
    ops = measure(args.workload, args.config, args.work_dir, args.seconds, bool(args.trace))
    print(json.dumps({
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": _thread_count(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
