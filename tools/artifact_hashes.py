"""sha256 of the simulate, compile and spectrum artifacts of every
checked-in config.

    python3 tools/artifact_hashes.py > hashes.txt

Runs `excitonsim simulate`, `compile` and `spectrum` from this checkout's
src/ on every configs/*.cfg and on the benchmark's five-dot chain
(perfbench/workloads.CHAIN5_CFG), each into its own temporary directory,
and prints one line `<sha256>  <config>/<command>/<file>` for every file
of ARTIFACTS, sorted by config.  simulate's manifest.cfg is hashed
without its `# wall_clock_s` line, the one line that changes from run to
run.  A last line
`<repr(F)>  cnot_fidelity_lindblad/gate_fidelity` gives the gate fidelity
of the benchmark's CNOT with Lindblad channels
(perfbench/workloads.CNOT_LINDBLAD_CFG), computed as the benchmark does.
Run it in two checkouts and `diff` the outputs to see whether a change kept
the artifacts and the fidelity byte-identical.  Exits 1 if a run fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from excitonsim.analysis import gate_fidelity  # noqa: E402
from excitonsim.cli import main as excitonsim_main  # noqa: E402
from excitonsim.config import load_config  # noqa: E402
from excitonsim.pulses import compile_program, ideal_gate_unitary  # noqa: E402
from workloads import CHAIN5_CFG, CNOT_LINDBLAD_CFG  # noqa: E402

ARTIFACTS = {
    "simulate": ("trajectory.csv", "sequence.csv", "metrics.txt", "manifest.cfg"),
    "compile": ("sequence.csv", "program.txt"),
    "spectrum": ("spectrum_excitonic.csv", "spectrum_biexcitonic.csv"),
}

WALL_CLOCK = b"# wall_clock_s = "


def artifact_hashes(name: str, config: Path, work: Path) -> list[str]:
    """The hash lines of one config, each command run into work/name/command."""
    lines = []
    for command, files in ARTIFACTS.items():
        out_dir = work / name / command
        with contextlib.redirect_stdout(io.StringIO()):
            code = excitonsim_main([command, "--config", str(config), "--out-dir", str(out_dir)])
        if code != 0:
            raise SystemExit(f"{command} {config} exited {code}")
        for file in files:
            rows = (out_dir / file).read_bytes().splitlines(keepends=True)
            kept = b"".join(row for row in rows if not row.startswith(WALL_CLOCK))
            digest = hashlib.sha256(kept).hexdigest()
            lines.append(f"{digest}  {name}/{command}/{file}")
    return lines


def fidelity_line(config: Path) -> str:
    """The gate fidelity line of the config's first gate, as the
    benchmark's gate_fidelity workload computes it."""
    run = load_config(str(config))
    sequence = compile_program(run.register, run.program, run.policy)
    ideal = ideal_gate_unitary(run.register, run.program[0][0])
    value = gate_fidelity(sequence, run.register, run.channels, run.simulation, ideal)
    return f"{value!r}  cnot_fidelity_lindblad/gate_fidelity"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        chain5 = work / "chain5.cfg"
        chain5.write_text(CHAIN5_CFG)
        configs = {path.stem: path for path in (ROOT / "configs").glob("*.cfg")}
        configs["chain5"] = chain5
        for name in sorted(configs):
            for line in artifact_hashes(name, configs[name], work):
                print(line, flush=True)
        cnot = work / "cnot_fidelity_lindblad.cfg"
        cnot.write_text(CNOT_LINDBLAD_CFG)
        print(fidelity_line(cnot), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
