"""The benchmark's tracer wraps excitonsim attributes by name: each must exist.

perfbench/tracer.py lists the module attributes it times; a rename in
src/ would make every traced benchmark run fail, so the names are checked
here, in the default suite, without changing anything under perfbench/.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being defined
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    targets = tracer.current_targets()
    assert targets
    for (module, attr), target in targets.items():
        assert callable(target), f"{module}.{attr}"
