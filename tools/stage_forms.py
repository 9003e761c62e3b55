"""End-to-end time of a 3-dot Lindblad gate fidelity in each form of the
integrator.

    python3 tools/stage_forms.py [--runs 10]

Times gate_fidelity on artifact_hashes.CHAIN3_LINDBLAD_CFG (d = 8, six
channels, a stack of 14 states over 14,042 steps) with
dynamics.LIOUVILLE_MAX_DIM at 4, where its channels take the stage form's
row table, and at 8, where they take the map form, alternating which form
runs first.  Prints each form's median and quartiles, the runs the map
form won and the largest difference between the two fidelities.  The
thread count is OpenBLAS's own: set OPENBLAS_NUM_THREADS to compare at
another.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]

from artifact_hashes import CHAIN3_LINDBLAD_CFG  # noqa: E402
from excitonsim import dynamics  # noqa: E402
from excitonsim.analysis import gate_fidelity  # noqa: E402
from excitonsim.config import load_config  # noqa: E402
from excitonsim.pulses import compile_program, ideal_gate_unitary  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "chain3_lindblad.cfg"
        config.write_text(CHAIN3_LINDBLAD_CFG)
        run = load_config(str(config))
    sequence = compile_program(run.register, run.program, run.policy)
    ideal = ideal_gate_unitary(run.register, run.program[0][0])
    forms = {"row table": 4, "map": 8}
    seconds: dict[str, list[float]] = {form: [] for form in forms}
    fidelities = {}
    for i in range(args.runs):
        for form in list(forms)[:: 1 if i % 2 == 0 else -1]:
            dynamics.LIOUVILLE_MAX_DIM = forms[form]
            start = time.perf_counter()
            fidelities[form] = gate_fidelity(
                sequence, run.register, run.channels, run.simulation, ideal
            )
            seconds[form].append(time.perf_counter() - start)
    for form, values in seconds.items():
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"{form:9s} median {median:.3f} s [{q1:.3f}, {q3:.3f}]")
    won = sum(b < a for a, b in zip(seconds["row table"], seconds["map"]))
    gap = abs(fidelities["row table"] - fidelities["map"])
    print(f"map form faster in {won} of {args.runs}; fidelities differ by {gap:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
