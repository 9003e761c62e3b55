"""The quick demo scripts run to completion.

Each runs in a fresh working directory, where it may write its CSVs.
03_selectivity_vs_duration.py and 04_entangling_sequence.py are left out:
they take 13 s and 27 s and repeat propagations the acceptance tests run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = ("01_field_induced_shift.py", "02_absorption_spectra.py", "calibrate_preset.py")


@pytest.mark.parametrize("script", DEMOS)
def test_demo_exits_0(script, tmp_path):
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, str(REPO / "demos" / script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
