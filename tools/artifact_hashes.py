"""sha256 of the simulate, compile, spectrum and shift artifacts of every
checked-in config.

    python3 tools/artifact_hashes.py > hashes.txt

Runs `excitonsim simulate`, `compile` and `spectrum` from this checkout's
src/ on every configs/*.cfg and on the benchmark's five-dot chain
(perfbench/workloads.CHAIN5_CFG), each into its own temporary directory,
and prints one line `<sha256>  <config>/<command>/<file>` for every file
of ARTIFACTS, sorted by config.  A config with a [device] field grid
(configs/device_derived.cfg) also runs `excitonsim shift`, the one
command that only the device model feeds, and hashes its shift.csv.  simulate's manifest.cfg is hashed
without its `# wall_clock_s` line, the one line that changes from run to
run.  Three last lines `<repr(F)>  <name>/gate_fidelity` give the gate
fidelity of the config's first gate, computed as the benchmark's
gate_fidelity workload does, each from one propagation of a stack of
reference states: cnot_fidelity_lindblad is the benchmark's CNOT with
Lindblad channels (perfbench/workloads.CNOT_LINDBLAD_CFG),
chain3_lindblad (CHAIN3_LINDBLAD_CFG below) a conditional rotation on a
3-dot chain with a decay and a dephasing channel on every dot, the one
multi-dot Lindblad run here, and cnot_coherent the benchmark's CNOT
without its channels, the one coherent stack here (8 states).  Run it in
two checkouts and `diff` the outputs to see whether a change kept the
artifacts and the fidelities byte-identical.  Exits 1 if a run fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
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

# The middle dot of a 3-dot chain flipped when a is excited and c is not,
# with a decay and a dephasing channel on every dot.
CHAIN3_LINDBLAD_CFG = """\
[register]
energies_ev = 1.70 1.71 1.72
shift_mev_0_1 = 4.5
shift_mev_1_2 = 3.0
dipoles = 1.0 1.0 1.0

[program]
gate.1 = conditional-rotation target=b angle=pi when=a:1,c:0

[channels]
decay.a = 0.002
decay.b = 0.003
decay.c = 0.004
dephasing.a = 0.02
dephasing.b = 0.03
dephasing.c = 0.04

[integration]
time_step_ps = 0.001
"""

# The benchmark's CNOT with its [channels] section cut out.
CNOT_COHERENT_CFG = re.sub(r"\[channels\]\n.*?\n\n", "", CNOT_LINDBLAD_CFG, flags=re.S)


def artifact_hashes(name: str, config: Path, work: Path) -> list[str]:
    """The hash lines of one config, each command run into work/name/command."""
    artifacts = dict(ARTIFACTS)
    device = load_config(str(config)).device
    if device is not None and device.field_grid_kv_cm:
        artifacts["shift"] = ("shift.csv",)
    lines = []
    for command, files in artifacts.items():
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


def fidelity_line(name: str, text: str, work: Path) -> str:
    """The gate fidelity line of the first gate of the config text, as the
    benchmark's gate_fidelity workload computes it."""
    config = work / f"{name}.cfg"
    config.write_text(text)
    run = load_config(str(config))
    sequence = compile_program(run.register, run.program, run.policy)
    ideal = ideal_gate_unitary(run.register, run.program[0][0])
    value = gate_fidelity(sequence, run.register, run.channels, run.simulation, ideal)
    return f"{value!r}  {name}/gate_fidelity"


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
        print(fidelity_line("cnot_fidelity_lindblad", CNOT_LINDBLAD_CFG, work), flush=True)
        print(fidelity_line("chain3_lindblad", CHAIN3_LINDBLAD_CFG, work), flush=True)
        print(fidelity_line("cnot_coherent", CNOT_COHERENT_CFG, work), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
