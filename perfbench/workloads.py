"""Workload definitions: config sources, seed-driven input generation, checks.

Each workload is one operation on one config file.  The seed permutes the
order of sections and of keys inside each section, which the program must
ignore: the work done and the physics outputs stay the same, and the checks
below hold for every seed.
"""

from __future__ import annotations

import random
from pathlib import Path

# Five-dot nearest-neighbour chain owned by the benchmark.  Alternating
# 4.5 / 3.0 meV shifts keep every dot's conditional frequencies distinct
# (equal shifts on a 3-dot chain make two of them differ by one ulp, which
# sends compile_program's tau to ~6e12 ps).  The step is 1e-3 ps, clear of
# the 2e-3 positivity hazard described in README.md.
CHAIN5_CFG = """\
[register]
energies_ev = 1.70 1.71 1.72 1.73 1.74
shift_mev_0_1 = 4.5
shift_mev_1_2 = 3.0
shift_mev_2_3 = 4.5
shift_mev_3_4 = 3.0
dipoles = 1.0 1.0 1.0 1.0 1.0

[program]
gate.1 = rotation target=a angle=pi/2 when=b:0
gate.2 = conditional-rotation target=b angle=pi when=a:1,c:0

[integration]
time_step_ps = 0.001
sample_stride = 40
"""

# The compiled CNOT on the reference 1.70 / 1.71 eV, 4.5 meV register with
# the four channels of configs/decoherence_two_dot.cfg.
CNOT_LINDBLAD_CFG = """\
[register]
energies_ev = 1.70 1.71
shift_mev_0_1 = 4.5
dipoles = 1.0 1.0

[program]
gate.1 = cnot target=b control=a

[channels]
decay.a = 0.002
decay.b = 0.002
dephasing.a = 0.02
dephasing.b = 0.02

[integration]
time_step_ps = 0.001
"""

# kind "simulate" runs cli.main(["simulate", ...]); kind "gate_fidelity" runs
# load_config, compile_program and analysis.gate_fidelity in-process.
WORKLOADS = {
    "bell2": {"kind": "simulate", "source": "configs/device_derived.cfg"},
    "cnot_fidelity_lindblad": {"kind": "gate_fidelity", "text": CNOT_LINDBLAD_CFG},
    "chain5": {"kind": "simulate", "text": CHAIN5_CFG},
}

# Outputs recorded at the commit of baseline.json.  A value that leaves TOLERANCE, a wrong step
# count or a non-zero exit code fails the operation.
EXPECTED = {
    "bell2": {
        "fidelity_vs_target": 0.9785944768140025,
        "concurrence": 0.9999683840377522,
        "n_steps": 37445,
    },
    "cnot_fidelity_lindblad": {"gate_fidelity": 0.956766750906681},
    "chain5": {
        "final_pop_00000": 0.5001179051917731,
        "final_pop_11000": 0.49984774187914904,
        "n_steps": 14042,
    },
}
TOLERANCE = 1e-9


def source_text(workload: str, root: Path) -> str:
    spec = WORKLOADS[workload]
    if "source" in spec:
        return (root / spec["source"]).read_text(encoding="utf-8")
    return spec["text"]


def shuffled_config(text: str, seed: int, workload: str) -> str:
    """The same config with sections and keys in a seed-chosen order."""
    sections: list[tuple[str, list[str]]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            sections.append((line, []))
        else:
            sections[-1][1].append(line)
    rng = random.Random(f"{workload}/{seed}")
    rng.shuffle(sections)
    out = []
    for header, keys in sections:
        rng.shuffle(keys)
        out += [header, *keys, ""]
    return "\n".join(out)


def check_outputs(workload: str, outputs: dict) -> list[str]:
    """Names of the outputs that leave tolerance or are missing."""
    bad = []
    for name, want in EXPECTED[workload].items():
        got = outputs.get(name)
        if got is None:
            bad.append(f"{name} missing")
        elif isinstance(want, int):
            if got != want:
                bad.append(f"{name} = {got}, expected {want}")
        elif not abs(got - want) <= TOLERANCE:
            bad.append(f"{name} = {got!r}, expected {want!r} within {TOLERANCE}")
    return bad
