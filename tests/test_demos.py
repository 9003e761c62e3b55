"""The quick demo scripts run to completion.

Each runs in a fresh working directory, where it may write its CSVs.
03_selectivity_vs_duration.py and 04_entangling_sequence.py are not run:
they take about 4 s and 9 s (each as its own process on a 2-core Xeon,
Python 3.11) and repeat propagations the acceptance tests run.  Their
excitonsim imports are checked without running them instead.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = ("01_field_induced_shift.py", "02_absorption_spectra.py", "calibrate_preset.py")
SLOW_DEMOS = ("03_selectivity_vs_duration.py", "04_entangling_sequence.py")


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


def _resolves(module, name):
    """Whether `from module import name` would succeed: an attribute of the
    module, or one of its submodules."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("script", SLOW_DEMOS)
def test_slow_demo_imports_resolve(script):
    tree = ast.parse((REPO / "demos" / script).read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module.split(".")[0] == "excitonsim"
        for alias in node.names
    ]
    assert imports, f"{script} imports nothing from excitonsim"
    missing = [f"{m}.{n}" for m, n in imports if not _resolves(m, n)]
    assert not missing, f"{script} imports names that no longer exist: {missing}"
