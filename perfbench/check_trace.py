"""Tests of the benchmark's traced run and harness.

    python -m pytest perfbench/check_trace.py

The file name keeps these tests out of the repository's default pytest
collection: the per-workload tests run each full workload three times
(about two minutes on a 2-core machine).
"""

from __future__ import annotations

import configparser
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import EXPECTED, WORKLOADS, check_outputs, shuffled_config, source_text  # noqa: E402

worker.import_excitonsim(ROOT)

# Per-layer metrics that must be exactly zero on a workload, by module.
ZERO_UNLESS = {
    "device.": "bell2",
    "analysis.": "cnot_fidelity_lindblad",
}


def _config(tmp_path: Path, workload: str, seed: int) -> Path:
    path = tmp_path / f"{workload}-{seed}.cfg"
    path.write_text(shuffled_config(source_text(workload, ROOT), seed, workload))
    return path


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if isinstance(v, int)}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_and_plain_run_leaves_targets(tmp_path, workload):
    originals = tracer.current_targets()
    first = worker.traced_op(workload, _config(tmp_path, workload, 1), tmp_path / "a")
    assert tracer.current_targets() == originals
    plain = worker.run_op(workload, _config(tmp_path, workload, 2), tmp_path / "b")
    assert tracer.current_targets() == originals
    second = worker.traced_op(workload, _config(tmp_path, workload, 3), tmp_path / "c")

    for op in (first, plain, second):
        assert "error" not in op
        assert check_outputs(workload, op["outputs"]) == []
    assert first.get("hashes") == plain.get("hashes") == second.get("hashes")
    assert _counts(first["layers"]) == _counts(second["layers"])

    layers = first["layers"]
    assert set(layers) == set(run.LAYER_UNITS) - {"trace.overhead_s"}
    steps = layers["dynamics.rk4_steps"]
    assert layers["dynamics.liouvillian_apply.calls"] == 4 * steps
    assert layers["pulses.field_at.calls"] == 4 * steps
    if "n_steps" in EXPECTED[workload]:
        assert steps == EXPECTED[workload]["n_steps"]
        assert layers["cli.bytes_written"] > 0
    else:
        assert layers["analysis.propagations_per_call"] == 8
        assert layers["cli.bytes_written"] == 0
    for prefix, owner in ZERO_UNLESS.items():
        for name, value in layers.items():
            if name.startswith(prefix):
                assert (value > 0) == (workload == owner), name


def test_tracer_restores_targets_when_the_call_raises():
    originals = tracer.current_targets()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert tracer.current_targets() != originals
            raise RuntimeError("traced call failed")
    assert tracer.current_targets() == originals


def test_shuffled_config_is_seeded_and_equivalent():
    text = source_text("bell2", ROOT)
    a, b = shuffled_config(text, 7, "bell2"), shuffled_config(text, 8, "bell2")
    assert a == shuffled_config(text, 7, "bell2")

    def parsed(t):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read_string(t)
        return {s: dict(parser[s]) for s in parser.sections()}

    assert parsed(a) == parsed(b) == parsed(text)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "bell2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
