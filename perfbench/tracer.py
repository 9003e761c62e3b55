"""Per-layer tracing by wrapping module attributes of excitonsim.

Each wrapper sits on the attribute the caller actually resolves: dynamics
imports field_at, build_hamiltonian and lowering_operator by name, so they
are wrapped as excitonsim.dynamics.<name>; cli and analysis reach propagate
through their own module globals, and so on.  A wrapper counts calls and
adds its wall time to its key's total; self time is the total minus the time
spent in wrapped calls nested inside it.  Only aggregates are kept, so a
traced run holds no per-call records.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# (module, attribute, key).  Several attributes may share one key when the
# same function is reached through different modules.
TARGETS = (
    ("excitonsim.cli", "main", "cli.simulate"),
    ("excitonsim.cli", "load_config", "config.load_config"),
    ("excitonsim.config", "load_config", "config.load_config"),
    ("excitonsim.config", "build_register", "device.build_register"),
    ("excitonsim.device", "coulomb_integral", "device.coulomb_integral"),
    ("excitonsim.cli", "compile_program", "pulses.compile_program"),
    ("excitonsim.pulses", "compile_program", "pulses.compile_program"),
    ("excitonsim.dynamics", "build_hamiltonian", "model"),
    ("excitonsim.dynamics", "lowering_operator", "model"),
    ("excitonsim.dynamics", "field_at", "pulses.field_at"),
    ("excitonsim.dynamics", "liouvillian_apply", "dynamics.liouvillian_apply"),
    ("excitonsim.cli", "propagate", "dynamics.propagate"),
    ("excitonsim.analysis", "propagate", "dynamics.propagate"),
    ("excitonsim.analysis", "gate_fidelity", "analysis.gate_fidelity"),
)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    steps: int = 0  # integrator steps reported by propagate's Trajectory


def current_targets() -> dict[tuple[str, str], object]:
    """The objects the target attributes hold right now."""
    return {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr, _ in TARGETS
    }


class Tracer:
    """Installs wrappers on TARGETS; use as a context manager.

    Leaving the context restores every attribute to the object it held on
    entry, even when the traced call raised.
    """

    def __init__(self):
        self.stats: dict[str, Stat] = {key: Stat() for _, _, key in TARGETS}
        self._children: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, key: str):
        stat = self.stats[key]
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = children.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - nested
                if children:
                    children[-1] += elapsed
            steps = getattr(result, "n_steps", None)
            if isinstance(steps, int):
                stat.steps += steps
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for mod_name, attr, key in TARGETS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, key))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
