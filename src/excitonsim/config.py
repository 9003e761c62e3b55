"""Run-configuration files.

Plain-text INI-style files with named sections and key = value entries;
numeric keys carry their unit in the name (tau_ps, field_kv_cm).  A run
takes its register either from an explicit [register] section or derived
from a [device] section, never both.

KEYS is the single reference for keys, units and defaults: one row per
key, in file order, with its section, parser, default, check, writer and
the RunConfig field it resolves to.  load_config reads a file through it
and dump_config writes a RunConfig back through it (the run manifest).
Three families are numbered or named per dot and have their own reader
and writer: shift_mev_<i>_<j> in [register] (meV), decay.<dot> and
dephasing.<dot> in [channels] (1/ps), and one gate per gate.<n> key in
[program], ordered by index:

    [program]
    gate.1 = rotation target=a angle=pi/2
    gate.2 = conditional-rotation target=b angle=pi when=a:1 start=auto
    gate.3 = cnot target=b control=a

An occupation pattern, e.g. a:1,b:0, gives each dot it names once an
exciton occupation of 0 or 1: a gate's when= is one, and [outputs]
biexcitonic_conditioning lists them separated by ';'.

Numbers must parse and be finite.  Every failure is a ConfigError naming
its section and key, e.g. "[pulses] tau_ps: must be positive, got 0.0".
"""

from __future__ import annotations

import configparser
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from string import ascii_lowercase
from typing import Any, Callable

import numpy as np

from .analysis import bell_state
from .device import (
    DeviceStructure,
    DotGeometry,
    MaterialParams,
    DEFAULT_COULOMB_REL_TOL,
    GAAS_TWO_DOT_PRESET_NAME,
    build_register,
    gaas_two_dot,
)
from .dynamics import LindbladChannel, SimulationConfig, check_time_resolution
from .errors import ConfigError, ExcitonSimError, TimeStepError, ZeroDipoleError
from .model import ExcitonRegister, dot_label, pattern_text
from .pulses import GateSpec, TimingPolicy

def fmt(value: float) -> str:
    """Exact, byte-stable text of a float: its repr."""
    return repr(float(value))


@contextmanager
def _blame(section: str, key: str | None = None):
    """Re-raise a parse or validation failure as a ConfigError naming the key."""
    try:
        yield
    except (ValueError, ExcitonSimError) as err:
        if isinstance(err, ConfigError) and err.section is not None:
            raise
        raise ConfigError(str(err), section, key) from err


def _real(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _reals(text: str) -> list[float]:
    return [_real(tok) for tok in text.replace(",", " ").split()]


def _auto(text: str) -> float | None:
    return None if text == "auto" else _real(text)


def _choice(*options: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {text!r}")
        return text

    return parse


def parse_dot(token: str, section: str | None = None) -> int:
    """Dot index from a letter (a, b, ...) or a number."""
    token = token.strip().lower()
    if token.isdigit():
        return int(token)
    if len(token) == 1 and token in ascii_lowercase:
        return ascii_lowercase.index(token)
    raise ConfigError(f"cannot parse dot name {token!r}", section)


def parse_angle(token: str, section: str | None = None) -> float:
    """Angle in radians; accepts plain floats and pi fractions like 'pi/2'."""
    text = token.strip().lower().replace(" ", "")
    coeff_text, pi, rest = text.partition("pi")
    try:
        if not pi:
            value = float(text)
        else:
            coeff = float(coeff_text) if coeff_text else 1.0
            if rest.startswith("/"):
                coeff /= float(rest[1:])
            elif rest:
                raise ValueError
            value = coeff * math.pi
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse angle {token!r}", section) from None
    if not math.isfinite(value):
        raise ConfigError(f"angle {token!r} is not finite", section)
    return value


def _pair(sep: str, item: Callable[[str], int], example: str) -> Callable[[str], tuple[int, int]]:
    def parse(text: str) -> tuple[int, int]:
        parts = text.replace(sep, " ").split()
        if len(parts) != 2:
            raise ValueError(f"expected two entries like {example}, got {text!r}")
        return item(parts[0]), item(parts[1])

    return parse


def _target(text: str) -> str | tuple[complex, ...]:
    """'bell' or the amplitudes of a pure state, normalized when used."""
    if text == "bell":
        return text
    amplitudes = tuple(map(complex, text.split()))
    with np.errstate(all="ignore"):  # the squares inside the norm may leave the float range
        norm = np.linalg.norm(amplitudes)
    if not 0 < norm < math.inf:
        raise ValueError(f"expected amplitudes of positive, finite norm, got {text!r}")
    return amplitudes


def _pattern(text: str) -> dict[int, int]:
    """Occupation pattern 'a:1,b:0' as {dot: 0 or 1}, in written order."""
    pattern: dict[int, int] = {}
    for item in text.split(","):
        dot_tok, sep, occ_tok = item.partition(":")
        if not sep or occ_tok.strip() not in ("0", "1"):
            raise ValueError(f"occupation patterns look like a:1,b:0, got {text!r}")
        dot = parse_dot(dot_tok)
        if dot in pattern:
            raise ValueError(f"pattern {text!r} names dot {dot_label(dot)} twice")
        pattern[dot] = int(occ_tok)
    return pattern


def _patterns(text: str) -> list[dict[int, int]]:
    return [_pattern(chunk) for chunk in text.split(";")]


def _require(holds: Callable[[np.ndarray], bool], message: str):
    def check(value: Any) -> None:
        if not holds(np.asarray(value, dtype=float)):
            raise ValueError(f"{message}, got {value}")

    return check


_positive = _require(lambda v: np.all(v > 0), "must be positive")
_nonnegative = _require(lambda v: np.all(v >= 0), "must be non-negative")
_nonpositive = _require(lambda v: np.all(v <= 0), "must be non-positive")
_at_least_one = _require(lambda v: np.all(v >= 1), "must be at least 1")
_positive_list = _require(
    lambda v: v.size > 0 and np.all(v > 0), "must list positive values, one per dot"
)
_ascending = _require(
    lambda v: np.all(v >= 0) and np.all(np.diff(v) > 0),
    "must be non-negative and strictly ascending",
)
# The device model squares widths, trap energies and the field, and cubes
# widths: inside [1e-100, 1e100] none of those powers overflows or is 0.
_scaled = _require(
    lambda v: v.size > 0 and np.all((v >= 1e-100) & (v <= 1e100)),
    "must lie in [1e-100, 1e100]",
)
_field = _require(lambda v: 0 <= v <= 1e100, "must lie in [0, 1e100]")
_QUAD_REL_TOL = 50 * np.finfo(float).eps  # the least that scipy's quad accepts
_quad_tol = _require(lambda v: v >= _QUAD_REL_TOL, f"must be at least {_QUAD_REL_TOL!r}")


def _text(value: Any) -> str | None:
    """The text the parsers read back as value; None leaves the key out."""
    if value is None or isinstance(value, (list, tuple)) and not value:
        return None
    if isinstance(value, str | int):
        return str(value)
    if isinstance(value, float):
        return fmt(value)
    if isinstance(value, complex):
        return repr(complex(value))
    return " ".join(map(_text, value))


def _auto_text(value: float | None) -> str:
    return "auto" if value is None else fmt(value)


def _pair_text(pair: tuple[int, int] | None) -> str | None:
    return None if pair is None else f"{pair[0]}:{pair[1]}"


def _patterns_text(patterns: list[dict[int, int]] | None) -> str | None:
    if patterns is None:
        return None
    return ";".join(pattern_text(pattern.items()) for pattern in patterns)


@dataclass
class DeviceSection:
    structure: DeviceStructure
    field_grid_kv_cm: list[float]
    shift_pair: tuple[int, int]
    coulomb_rel_tol: float
    dipoles: list[float] | None
    preset: str | None


@dataclass
class OutputsSection:
    # 'bell' or amplitudes as written; target_state() normalizes them
    fidelity_target: str | tuple[complex, ...] | None = None
    spectrum_linewidth_mev: float = 0.5
    # explicit conditioning patterns for the biexcitonic spectrum;
    # None selects the canonical single-partner set
    biexcitonic_conditioning: list[dict[int, int]] | None = None

    def target_state(self) -> np.ndarray | None:
        """The normalized fidelity target state, or None."""
        if self.fidelity_target is None:
            return None
        if self.fidelity_target == "bell":
            return bell_state()
        vec = np.array(self.fidelity_target)
        return vec / np.linalg.norm(vec)


@dataclass
class RunConfig:
    """Fully resolved run description; the register is derived when device is set."""

    register: ExcitonRegister
    device: DeviceSection | None
    program: list[tuple[GateSpec, float | None]]
    policy: TimingPolicy
    channels: list[LindbladChannel]
    simulation: SimulationConfig
    outputs: OutputsSection


_SHIFT_KEY = r"shift_mev_(\d+)_(\d+)"
_GATE_KEY = r"gate\.(\d+)"
_CHANNEL_KEY = r"(decay|dephasing)\.(\w+)"
_CHANNEL_KINDS = {"decay": "decay", "dephasing": "pure-dephasing"}


def _in_range(dot: int, n_qubits: int) -> None:
    if dot >= n_qubits:
        raise ValueError(f"dot {dot_label(dot)} out of range for {n_qubits} dots")


def _claim(seen: dict[Any, str], what: Any, key: str) -> None:
    """Record key as the name of what, unless an earlier key named it."""
    if what in seen:
        raise ValueError(f"duplicates {seen[what]}")
    seen[what] = key


def _read_shifts(items: dict[str, str], n_qubits: int) -> np.ndarray:
    shifts = np.zeros((n_qubits, n_qubits))
    seen: dict[Any, str] = {}
    for key, text in items.items():
        with _blame("register", key):
            i, j = map(int, re.fullmatch(_SHIFT_KEY, key).groups())
            if i == j or max(i, j) >= n_qubits:
                raise ValueError(f"pair {i},{j} out of range for {n_qubits} dots")
            _claim(seen, (min(i, j), max(i, j)), key)
            shifts[i, j] = shifts[j, i] = _real(text)
    return shifts


def _write_shifts(config: RunConfig) -> list[str]:
    s = config.register.shift_matrix_mev
    n = config.register.n_qubits
    return [
        f"shift_mev_{i}_{j} = {fmt(s[i, j])}"
        for i in range(n)
        for j in range(i + 1, n)
        if s[i, j] != 0.0
    ]


def _gate(text: str, n_qubits: int) -> tuple[GateSpec, float | None]:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty gate entry")
    fields: dict[str, str] = {}
    for tok in tokens[1:]:
        name, sep, value = tok.partition("=")
        if not sep:
            raise ValueError(f"cannot parse token {tok!r}")
        fields[name] = value
    unknown = set(fields) - {"target", "angle", "when", "control", "start"}
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)}")
    if "target" not in fields:
        raise ValueError("gate needs a target")
    target = parse_dot(fields["target"])
    conditions = [(parse_dot(fields["control"]), 1)] if "control" in fields else []
    conditions += _pattern(fields["when"]).items() if "when" in fields else ()
    for dot in [target, *(d for d, _ in conditions)]:
        _in_range(dot, n_qubits)
    angle, start = parse_angle(fields.get("angle", "pi")), fields.get("start", "auto")
    spec = GateSpec(tokens[0], target, angle, tuple(conditions))
    return spec, None if start == "auto" else _real(start)


def _read_program(
    items: dict[str, str], n_qubits: int, time_step_ps: float
) -> list[tuple[GateSpec, float | None]]:
    """The gates in order; an explicit start must lie where the floats
    resolve the time step (check_time_resolution)."""
    program = []
    for key in sorted(items, key=lambda k: (int(k.split(".")[1]), k)):
        with _blame("program", key):
            spec, start = _gate(items[key], n_qubits)
            if start is not None:
                check_time_resolution(start, time_step_ps)
            program.append((spec, start))
    return program


def _write_program(config: RunConfig) -> list[str]:
    lines = []
    for i, (spec, start) in enumerate(config.program, start=1):
        parts = [spec.kind, f"target={dot_label(spec.target)}", f"angle={fmt(spec.angle)}"]
        if spec.conditions:
            parts.append("when=" + pattern_text(spec.conditions))
        parts.append("start=" + ("auto" if start is None else fmt(start)))
        lines.append(f"gate.{i} = " + " ".join(parts))
    return lines


def _read_channels(items: dict[str, str], n_qubits: int) -> list[LindbladChannel]:
    channels = []
    seen: dict[Any, str] = {}
    for key, text in items.items():
        with _blame("channels", key):
            kind, _, dot_tok = key.partition(".")
            dot = parse_dot(dot_tok)
            _in_range(dot, n_qubits)
            _claim(seen, (kind, dot), key)
            channels.append(LindbladChannel(_CHANNEL_KINDS[kind], dot, _real(text)))
    return channels


def _write_channels(config: RunConfig) -> list[str]:
    names = {kind: name for name, kind in _CHANNEL_KINDS.items()}
    return [
        f"{names[c.kind]}.{dot_label(c.dot)} = {fmt(c.rate_per_ps)}" for c in config.channels
    ]


@dataclass(frozen=True)
class Key:
    """One fixed key; get finds its resolved value for dump_config."""

    section: str
    name: str
    parse: Callable[[str], Any]
    default: Any
    get: Callable[[RunConfig], Any]
    check: Callable[[Any], None] | None = None
    dump: Callable[[Any], str | None] = _text

    def lines(self, config: RunConfig) -> list[str]:
        text = self.dump(self.get(config))
        return [] if text is None else [f"{self.name} = {text}"]


@dataclass(frozen=True)
class Family:
    """Keys numbered or named per dot, matched by pattern, with their writer."""

    section: str
    pattern: str
    lines: Callable[[RunConfig], list[str]]


def _geometry(get: Callable[[DeviceStructure], Any]) -> Callable[[RunConfig], Any]:
    """Getter of an explicit-geometry key, which a preset leaves out."""
    return lambda c: None if c.device.preset else get(c.device.structure)


def _per_dot(attr: str) -> Callable[[RunConfig], Any]:
    return _geometry(lambda s: [getattr(dot, attr) for dot in s.dots])


_MATERIAL = ("electron_mass", "hole_mass", "epsilon_r", "band_gap_ev")
_WELLS = ("well_widths_nm", "hbar_omega_e_mev", "hbar_omega_h_mev", "barriers_nm")

KEYS: tuple[Key | Family, ...] = (
    Key("device", "preset", _choice(GAAS_TWO_DOT_PRESET_NAME), None,
        attrgetter("device.preset")),
    Key("device", "electron_mass", _real, None,
        _geometry(attrgetter("material.electron_effective_mass")), _positive),
    Key("device", "hole_mass", _real, None,
        _geometry(attrgetter("material.hole_effective_mass")), _positive),
    Key("device", "epsilon_r", _real, None,
        _geometry(attrgetter("material.relative_permittivity")), _at_least_one),
    Key("device", "band_gap_ev", _real, None,
        _geometry(attrgetter("material.band_gap_ev")), _positive),
    Key("device", "well_widths_nm", _reals, None,
        _per_dot("well_width_nm"), _scaled),
    Key("device", "hbar_omega_e_mev", _reals, None,
        _per_dot("confinement_energy_e_mev"), _scaled),
    Key("device", "hbar_omega_h_mev", _reals, None,
        _per_dot("confinement_energy_h_mev"), _scaled),
    Key("device", "barriers_nm", _reals, [],
        _geometry(attrgetter("barrier_widths_nm")), _positive),
    Key("device", "field_kv_cm", _real, 30.0,
        attrgetter("device.structure.field_kv_cm"), _field),
    Key("device", "field_grid_kv_cm", _reals, [],
        attrgetter("device.field_grid_kv_cm"), _ascending),
    Key("device", "shift_pair", _pair(" ", parse_dot, "a b"), (0, 1),
        attrgetter("device.shift_pair"), dump=lambda pair: " ".join(map(dot_label, pair))),
    Key("device", "coulomb_rel_tol", _real, 1e-6,
        attrgetter("device.coulomb_rel_tol"), _quad_tol),
    Key("device", "dipoles", _reals, None,
        attrgetter("device.dipoles"), _nonnegative),
    Key("register", "energies_ev", _reals, None,
        attrgetter("register.exciton_energies_ev"), _positive_list),
    Family("register", _SHIFT_KEY, _write_shifts),
    Key("register", "dipoles", _reals, None,
        attrgetter("register.transition_dipoles"), _nonnegative),
    Family("program", _GATE_KEY, _write_program),
    Key("pulses", "tau_ps", _auto, None,
        attrgetter("policy.tau_ps"), _positive, _auto_text),
    Key("pulses", "selectivity_fraction", _real, 0.25,
        attrgetter("policy.selectivity_fraction"), _positive),
    Key("pulses", "fallback_tau_ps", _real, 0.1,
        attrgetter("policy.fallback_tau_ps"), _positive),
    Key("pulses", "gap_factor", _real, 8.0,
        attrgetter("policy.gap_factor"), _positive),
    Family("channels", _CHANNEL_KEY, _write_channels),
    Key("integration", "time_step_ps", _real, 1e-3,
        attrgetter("simulation.time_step_ps"), _positive),
    Key("integration", "sample_stride", int, 10,
        attrgetter("simulation.sample_stride"), _at_least_one),
    Key("integration", "reference_energy_ev", _real, None,
        attrgetter("simulation.reference_energy_ev")),
    Key("integration", "duration_ps", _real, None,
        attrgetter("simulation.duration_ps"), _nonnegative),
    Key("integration", "trace_tol", _real, 1e-7,
        attrgetter("simulation.trace_tol"), _positive),
    Key("integration", "eig_floor", _real, -1e-6,
        attrgetter("simulation.eig_floor"), _nonpositive),
    Key("outputs", "fidelity_target", _target, None,
        attrgetter("outputs.fidelity_target")),
    Key("outputs", "spectrum_linewidth_mev", _real, 0.5,
        attrgetter("outputs.spectrum_linewidth_mev"), _positive),
    Key("outputs", "biexcitonic_conditioning", _patterns, None,
        attrgetter("outputs.biexcitonic_conditioning"), dump=_patterns_text),
    Key("outputs", "coherence_pair", _pair(":", int, "0:1"), None,
        attrgetter("simulation.coherence_pair"), dump=_pair_text),
)

SECTIONS = tuple(dict.fromkeys(row.section for row in KEYS))
_FAMILIES = {row.section: row.pattern for row in KEYS if isinstance(row, Family)}


def _read_sections(path: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(
        delimiters=("=",), inline_comment_prefixes=("#",), interpolation=None
    )
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"malformed config file {path}: {err}") from err
    return {name: dict(parser[name]) for name in parser.sections()}


def _read_keys(sections: dict[str, dict[str, str]]) -> dict[str, dict[str, Any]]:
    """Parse and check every fixed key; leave only family keys in sections."""
    values: dict[str, dict[str, Any]] = {section: {} for section in SECTIONS}
    for row in KEYS:
        if isinstance(row, Family):
            continue
        text = sections.get(row.section, {}).pop(row.name, None)
        value = row.default
        if text is not None:
            with _blame(row.section, row.name):
                value = row.parse(text)
                if row.check is not None and value is not None:
                    row.check(value)
        values[row.section][row.name] = value
    for section, items in sections.items():
        for key in items:
            if section not in _FAMILIES or not re.fullmatch(_FAMILIES[section], key):
                raise ConfigError(f"unknown key {key!r}", section)
    return values


def _explicit_structure(v: dict[str, Any]) -> DeviceStructure:
    for key in _MATERIAL + _WELLS[:-1]:
        if v[key] is None:
            raise ConfigError("required without a preset", "device", key)
    widths, barriers = v["well_widths_nm"], v["barriers_nm"]
    n = len(widths)
    for key, want in zip(_WELLS[1:], (n, n, n - 1)):
        if len(v[key]) != want:
            raise ConfigError(f"needs {want} values for {n} wells", "device", key)
    # well centers: half of each neighboring well plus the barrier between
    steps = (0.5 * (widths[i - 1] + widths[i]) + barriers[i - 1] for i in range(1, n))
    centers = accumulate(steps, initial=0.0)
    dots = zip(v["hbar_omega_e_mev"], v["hbar_omega_h_mev"], widths, centers)
    with _blame("device"):
        return DeviceStructure(
            dots=tuple(DotGeometry(*dot) for dot in dots),
            barrier_widths_nm=tuple(barriers),
            material=MaterialParams(*(v[key] for key in _MATERIAL)),
            field_kv_cm=v["field_kv_cm"],
        )


def _device_section(v: dict[str, Any]) -> DeviceSection:
    if v["preset"] is None:
        structure = _explicit_structure(v)
    else:
        explicit = [key for key in _MATERIAL + _WELLS if v[key] not in (None, [])]
        if explicit:
            raise ConfigError(f"conflicts with keys {explicit}", "device", "preset")
        structure = gaas_two_dot(field_kv_cm=v["field_kv_cm"])
    n = structure.n_dots
    if v["dipoles"] is not None and len(v["dipoles"]) != n:
        raise ConfigError(f"needs one value per dot ({n})", "device", "dipoles")
    fields = ("field_grid_kv_cm", "shift_pair", "coulomb_rel_tol", "dipoles", "preset")
    return DeviceSection(structure, *(v[key] for key in fields))


def _preset_values(n: int) -> dict[str, Any]:
    """The GaAs preset's value of every device key the register derives
    from, in KEYS' order, dot a's for each of n dots of a per-dot key."""
    preset = gaas_two_dot()
    material, dot = preset.material, preset.dots[0]
    return {
        "electron_mass": material.electron_effective_mass,
        "hole_mass": material.hole_effective_mass,
        "epsilon_r": material.relative_permittivity,
        "band_gap_ev": material.band_gap_ev,
        "well_widths_nm": [dot.well_width_nm] * n,
        "hbar_omega_e_mev": [dot.confinement_energy_e_mev] * n,
        "hbar_omega_h_mev": [dot.confinement_energy_h_mev] * n,
        "barriers_nm": list(preset.barrier_widths_nm) * (n - 1),
        "field_kv_cm": preset.field_kv_cm,
        "coulomb_rel_tol": DEFAULT_COULOMB_REL_TOL,
    }


def _device_register(device: DeviceSection, v: dict[str, Any]) -> ExcitonRegister:
    """The register derived from the device section.

    Where the device model fails (a Coulomb quadrature does not converge,
    or an exciton energy is not positive and finite), no single check of a
    key can tell which input moved it out of its range: the Stark shift,
    for one, grows with the field and falls with the masses and trap
    energies.  The error then names the first key in KEYS' order whose
    value, set back to the GaAs preset's together with those of the keys
    before it, lets the register build.  Keys a preset leaves out, and
    values that are the preset's already, are passed over.
    """
    def build(section: DeviceSection) -> ExcitonRegister:
        return build_register(
            section.structure, transition_dipoles=section.dipoles, rel_tol=section.coulomb_rel_tol
        )

    try:
        return build(device)
    except ExcitonSimError as err:
        failure = err
    values = dict(v)
    for key, value in _preset_values(device.structure.n_dots).items():
        if values[key] in (None, []) or values[key] == value:
            continue
        values[key] = value
        try:
            build(_device_section(values))
        except ExcitonSimError:
            continue
        raise ConfigError(str(failure), "device", key) from failure
    raise ConfigError(str(failure), "device") from failure


def _register_section(v: dict[str, Any], shifts: dict[str, str]) -> ExcitonRegister:
    energies, dipoles = v["energies_ev"], v["dipoles"]
    if energies is None:
        raise ConfigError("is required", "register", "energies_ev")
    n = len(energies)
    if dipoles is not None and len(dipoles) != n:
        raise ConfigError(f"needs one value per dot ({n})", "register", "dipoles")
    with _blame("register"):
        return ExcitonRegister(
            exciton_energies_ev=np.array(energies),
            shift_matrix_mev=_read_shifts(shifts, n),
            transition_dipoles=None if dipoles is None else np.array(dipoles),
        )


def _check_outputs(v: dict[str, Any], n_qubits: int) -> None:
    """The [outputs] checks that depend on the register size."""
    dim = 2**n_qubits
    target, pair = v["fidelity_target"], v["coherence_pair"]
    if target is not None and (4 if target == "bell" else len(target)) != dim:
        raise ConfigError(f"needs {dim} amplitudes", "outputs", "fidelity_target")
    for pattern in v["biexcitonic_conditioning"] or ():
        if max(pattern) >= n_qubits or not 0 < sum(pattern.values()) < n_qubits:
            raise ConfigError(
                f"pattern {pattern_text(pattern.items())} must name dots below "
                f"{n_qubits}, occupy one or more and leave one empty to emit",
                "outputs",
                "biexcitonic_conditioning",
            )
    if pair is not None and (min(pair) < 0 or max(pair) >= dim):
        raise ConfigError(f"indices must lie in 0..{dim - 1}", "outputs", "coherence_pair")


def load_config(path: str) -> RunConfig:
    """Parse and resolve a run-configuration file."""
    sections = _read_sections(path)
    for section in sections:
        if section not in SECTIONS:
            raise ConfigError("unknown section", section=section)
    if "device" in sections and "register" in sections:
        raise ConfigError(
            "give either a device section or a register section, not both",
            section="register",
        )
    if "device" not in sections and "register" not in sections:
        raise ConfigError("a device or register section is required", section="register")

    v = _read_keys(sections)
    device = _device_section(v["device"]) if "device" in sections else None
    if device is not None:
        register = _device_register(device, v["device"])
    else:
        register = _register_section(v["register"], sections["register"])
    n = register.n_qubits
    _check_outputs(v["outputs"], n)
    with _blame("pulses"):
        policy = TimingPolicy(**v["pulses"])
    with _blame("integration"):
        simulation = SimulationConfig(
            coherence_pair=v["outputs"].pop("coherence_pair"),
            **v["integration"],
        )
    return RunConfig(
        register=register,
        device=device,
        program=_read_program(sections.get("program", {}), n, simulation.time_step_ps),
        policy=policy,
        channels=_read_channels(sections.get("channels", {}), n),
        simulation=simulation,
        outputs=OutputsSection(**v["outputs"]),
    )


def dump_config(config: RunConfig) -> list[str]:
    """Config-file lines that load back to the same RunConfig (the manifest body)."""
    lines: list[str] = []
    for section in SECTIONS:
        if section == ("register" if config.device else "device"):
            continue
        rows = [row for row in KEYS if row.section == section]
        body = [line for row in rows for line in row.lines(config)]
        if body:
            lines += ["", f"[{section}]", *body]
    return lines[1:]


def sweep_device(config: RunConfig) -> DeviceSection:
    """The [device] section of a shift sweep: a field grid and a pair of dots."""
    device = config.device
    if device is None:
        raise ConfigError("the shift subcommand needs a device section", "device")
    if not device.field_grid_kv_cm:
        raise ConfigError("must list at least one field", "device", "field_grid_kv_cm")
    pair, n = device.shift_pair, device.structure.n_dots
    if pair[0] == pair[1] or max(pair) >= n:
        raise ConfigError(f"needs two distinct dots of {n}", "device", "shift_pair")
    return device


def program_error(err: ExcitonSimError, config: RunConfig) -> ConfigError:
    """A compile_program failure as a ConfigError: a gate on a dot with zero
    dipole (the gate's ZeroDipoleError is chained as the cause) is the
    dipoles key's fault, a pulse shorter than the selectivity floor (the
    cause carries required_tau_ps) the explicit tau_ps's, the rest the
    program's."""
    cause = err.__cause__
    if isinstance(cause, ZeroDipoleError):
        # compilation stops at the first failing gate, and every gate on
        # this dot fails, so the first of them is the one reported
        gate = next(
            i for i, (spec, _) in enumerate(config.program, start=1)
            if spec.target == cause.dot
        )
        message = f"gate {gate} drives dot {dot_label(cause.dot)}, whose dipole is 0"
        return ConfigError(message, "device" if config.device else "register", "dipoles")
    if getattr(cause, "required_tau_ps", None) is not None:
        return ConfigError(str(err), "pulses", "tau_ps")
    return ConfigError(str(err), "program")


def step_error(err: TimeStepError) -> ConfigError:
    """A step too coarse for the shortest pulse, or a window of too many
    steps, blamed on the step, or on the duration if it set the window."""
    key = "duration_ps" if getattr(err, "extended", False) else "time_step_ps"
    return ConfigError(str(err), "integration", key)
