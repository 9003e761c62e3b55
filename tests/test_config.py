"""The config schema: round trip through dump_config, and bad values.

Every config key comes from config.KEYS (plus the shift_mev_<i>_<j>,
gate.<n> and decay/dephasing.<dot> families), so the round-trip property
draws a value for every key of the table and fails when a key is added
without a strategy here.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from excitonsim import dynamics
from excitonsim.cli import main
from excitonsim.config import (
    KEYS,
    Key,
    OutputsSection,
    dump_config,
    load_config,
    parse_dot,
)
from excitonsim.dynamics import SimulationConfig
from excitonsim.model import dot_label
from excitonsim.pulses import TimingPolicy

REPO = Path(__file__).resolve().parents[1]
CONFIGS = sorted((REPO / "configs").glob("*.cfg"))
MUTATIONS = ("abc", "nan", "inf", "-inf", "1e309", "0", "-1", "")


def reals(lo, hi):
    return st.floats(lo, hi).map(repr)


def real_list(lo, hi, size):
    return st.lists(st.floats(lo, hi), min_size=size, max_size=size).map(
        lambda xs: " ".join(map(repr, xs))
    )


def dots(n):
    """Names of dot indices below n: letters or numbers."""
    return st.integers(0, n - 1).flatmap(
        lambda i: st.sampled_from(["abcdefghijklmnopqrstuvwxyz"[i], str(i)])
    )


def amplitudes(dim):
    parts = st.complex_numbers(
        max_magnitude=10.0, allow_nan=False, allow_infinity=False
    )
    vectors = st.lists(parts, min_size=dim, max_size=dim).filter(any)
    return vectors.map(lambda v: " ".join(repr(complex(a)) for a in v))


def conditioning(n):
    """Patterns the key accepts: each names a dot once and occupies some of
    the n dots, not all."""
    item = st.tuples(dots(n), st.sampled_from("01"))
    pattern = st.lists(
        item, min_size=1, max_size=n, unique_by=lambda i: parse_dot(i[0])
    ).filter(lambda p: 0 < [o for _, o in p].count("1") < n)
    return st.lists(pattern, min_size=1, max_size=3).map(
        lambda ps: ";".join(",".join(f"{d}:{o}" for d, o in p) for p in ps)
    )


POSITIVE = st.floats(0.0, 1e300, exclude_min=True).map(repr)
FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
GEOMETRY = ("electron_mass", "hole_mass", "epsilon_r", "band_gap_ev")
WELLS = ("well_widths_nm", "hbar_omega_e_mev", "hbar_omega_h_mev", "barriers_nm")

# One strategy per fixed key: (section, key) -> n_dots -> strategy of value text.
# Device values stay near the calibrated GaAs stack so the Coulomb quadratures
# converge quickly; the others range over everything the key accepts.
STRATEGIES = {
    ("device", "preset"): lambda n: st.just("gaas-two-dot"),
    ("device", "electron_mass"): lambda n: reals(0.05, 0.1),
    ("device", "hole_mass"): lambda n: reals(0.2, 0.5),
    ("device", "epsilon_r"): lambda n: reals(10.0, 14.0),
    ("device", "band_gap_ev"): lambda n: reals(1.4, 1.6),
    ("device", "well_widths_nm"): lambda n: real_list(4.0, 6.0, n),
    ("device", "hbar_omega_e_mev"): lambda n: real_list(15.0, 25.0, n),
    ("device", "hbar_omega_h_mev"): lambda n: real_list(10.0, 18.0, n),
    ("device", "barriers_nm"): lambda n: real_list(4.0, 8.0, n - 1),
    ("device", "field_kv_cm"): lambda n: reals(0.0, 40.0),
    ("device", "field_grid_kv_cm"): lambda n: st.lists(
        st.floats(0.0, 40.0), max_size=4, unique=True
    ).map(lambda xs: " ".join(map(repr, sorted(xs)))),
    ("device", "shift_pair"): lambda n: st.permutations(range(n)).map(
        lambda p: f"{p[0]} {p[1]}"
    ),
    ("device", "coulomb_rel_tol"): lambda n: reals(1e-7, 1e-5),
    ("device", "dipoles"): lambda n: real_list(0.0, 2.0, n),
    ("register", "energies_ev"): lambda n: real_list(1.5, 1.8, n),
    ("register", "dipoles"): lambda n: real_list(0.0, 2.0, n),
    ("pulses", "tau_ps"): lambda n: st.just("auto") | POSITIVE,
    ("pulses", "selectivity_fraction"): lambda n: POSITIVE,
    ("pulses", "fallback_tau_ps"): lambda n: POSITIVE,
    ("pulses", "gap_factor"): lambda n: POSITIVE,
    ("integration", "time_step_ps"): lambda n: POSITIVE,
    ("integration", "sample_stride"): lambda n: st.integers(1, 1000).map(str),
    ("integration", "reference_energy_ev"): lambda n: FINITE,
    ("integration", "duration_ps"): lambda n: st.floats(0.0, 1e3).map(repr),
    ("integration", "trace_tol"): lambda n: POSITIVE,
    ("integration", "eig_floor"): lambda n: FINITE,
    ("outputs", "fidelity_target"): lambda n: (
        st.just("bell") | amplitudes(4) if n == 2 else amplitudes(2**n)
    ),
    ("outputs", "spectrum_linewidth_mev"): lambda n: POSITIVE,
    ("outputs", "biexcitonic_conditioning"): conditioning,
    ("outputs", "coherence_pair"): lambda n: st.tuples(
        st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)
    ).map(lambda p: f"{p[0]}:{p[1]}"),
}


def test_every_key_has_a_strategy():
    fixed = {(row.section, row.name) for row in KEYS if isinstance(row, Key)}
    assert fixed == set(STRATEGIES)


@st.composite
def gate(draw, n):
    kinds = ["rotation", "unconditional-not"]
    if n > 1:
        kinds += ["conditional-rotation", "cnot"]
    kind = draw(st.sampled_from(kinds))
    target = draw(st.integers(0, n - 1))
    others = [d for d in range(n) if d != target]
    parts = [kind, "target=" + draw(st.sampled_from([str(target), "abc"[target]]))]
    if kind == "cnot":
        parts.append(f"control={draw(st.sampled_from(others))}")
    elif kind == "conditional-rotation":
        conds = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
        occs = [draw(st.sampled_from("01")) for _ in conds]
        parts.append("when=" + ",".join(f"{d}:{o}" for d, o in zip(conds, occs)))
    if kind in ("rotation", "conditional-rotation"):
        angle = draw(st.sampled_from(["pi", "pi/2", "2pi/3"]) | reals(0.0, 2 * math.pi))
        parts.append(f"angle={angle}")
    parts.append(f"start={draw(st.just('auto') | reals(-10.0, 100.0))}")
    return " ".join(parts)


def drawn(source, key, n):
    """'always', 'maybe' or 'never': whether a config drawn from source has key."""
    if key == "preset":
        return "always" if source == "preset" else "never"
    if key in GEOMETRY + WELLS:
        return "never" if source == "preset" else "always"
    if key in ("shift_pair", "biexcitonic_conditioning") and n < 2:
        return "never"
    return "always" if key == "energies_ev" else "maybe"


@st.composite
def config_text(draw, source):
    """A config file drawing every table key (each present or not) and the families."""
    n = 2 if source == "preset" else draw(st.integers(1, 3))
    skip = "device" if source == "register" else "register"
    sections = {}

    def put(section, key, strategy):
        sections.setdefault(section, []).append(f"{key} = {draw(strategy)}")

    for (section, key), strategy in STRATEGIES.items():
        mode = drawn(source, key, n)
        if section == skip or mode == "never":
            continue
        if mode == "always" or draw(st.booleans()):
            put(section, key, strategy(n))
    if source == "register":
        for i in range(n):
            for j in range(i + 1, n):
                if draw(st.booleans()):
                    a, b = draw(st.permutations([i, j]))
                    put("register", f"shift_mev_{a}_{b}", reals(-10.0, 10.0))
    for index in draw(st.lists(st.integers(0, 99), unique=True, max_size=3)):
        put("program", f"gate.{index}", gate(n))
    for kind in ("decay", "dephasing"):
        for dot in range(n):
            if draw(st.booleans()):
                name = draw(st.sampled_from(["abc"[dot], str(dot)]))
                put("channels", f"{kind}.{name}", st.floats(0.0, 10.0).map(repr))
    return "".join(
        f"[{section}]\n" + "".join(line + "\n" for line in lines)
        for section, lines in sections.items()
    )


def assert_same_config(a, b):
    for name in ("exciton_energies_ev", "shift_matrix_mev", "transition_dipoles"):
        left, right = getattr(a.register, name), getattr(b.register, name)
        assert left.shape == right.shape
        assert all(x == y for x, y in zip(left.ravel(), right.ravel()))
    assert a.device == b.device
    assert a.program == b.program
    assert a.policy == b.policy
    assert a.channels == b.channels
    assert a.simulation == b.simulation
    assert a.outputs == b.outputs


def round_trip(text):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.cfg"), Path(tmp, "second.cfg")
        first.write_text(text, encoding="utf-8")
        config = load_config(str(first))
        lines = dump_config(config)
        second.write_text("\n".join(lines) + "\n", encoding="utf-8")
        again = load_config(str(second))
    assert_same_config(config, again)
    assert dump_config(again) == lines


ROUND_TRIP = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestRoundTrip:
    @settings(ROUND_TRIP, max_examples=80)
    @given(config_text("register"))
    def test_register_source(self, text):
        round_trip(text)

    @settings(ROUND_TRIP, max_examples=15)
    @given(config_text("preset"))
    def test_device_preset(self, text):
        round_trip(text)

    @settings(ROUND_TRIP, max_examples=25)
    @given(config_text("geometry"))
    def test_device_explicit_geometry(self, text):
        round_trip(text)

    def test_manifest_names_dots_by_letter(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "[register]\nenergies_ev = 1.70 1.71 1.72\n"
            "[program]\ngate.1 = conditional-rotation target=1 when=2:0,0:1\n"
            "gate.2 = cnot target=c control=1\n"
            "[channels]\ndecay.2 = 0.5\ndephasing.a = 0.25\n"
            "[outputs]\nbiexcitonic_conditioning = 0:1;c:1,b:0\n",
            encoding="utf-8",
        )
        lines = dump_config(load_config(str(path)))
        program = [line for line in lines if line.startswith("gate.")]
        assert program == [
            f"gate.1 = conditional-rotation target=b angle={math.pi!r} when=c:0,a:1 start=auto",
            f"gate.2 = cnot target=c angle={math.pi!r} when=b:1 start=auto",
        ]
        assert "biexcitonic_conditioning = a:1;c:1,b:0" in lines
        assert "decay.c = 0.5" in lines and "dephasing.a = 0.25" in lines
        round_trip(path.read_text(encoding="utf-8"))
        device = tmp_path / "device.cfg"
        device.write_text("[device]\npreset = gaas-two-dot\nshift_pair = 1 0\n", encoding="utf-8")
        assert "shift_pair = b a" in dump_config(load_config(str(device)))
        round_trip(device.read_text(encoding="utf-8"))

    def test_dots_past_z_round_trip(self):
        assert [dot_label(i) for i in (0, 25, 26, 99)] == ["a", "z", "26", "99"]
        assert all(parse_dot(dot_label(i)) == i for i in range(100))
        text = (
            "[register]\nenergies_ev = " + " ".join(["1.7"] * 28) + "\n"
            "[program]\ngate.1 = conditional-rotation target=27 when=26:1,z:0\n"
        )
        round_trip(text)

    def test_explicit_geometry_matches_preset(self, tmp_path):
        # the preset's own stack written out key by key gives the same register
        preset = tmp_path / "preset.cfg"
        preset.write_text("[device]\npreset = gaas-two-dot\n", encoding="utf-8")
        config = load_config(str(preset))
        config.device.preset = None
        explicit = tmp_path / "explicit.cfg"
        explicit.write_text("\n".join(dump_config(config)) + "\n", encoding="utf-8")
        assert "electron_mass = 0.067" in explicit.read_text()
        again = load_config(str(explicit))
        assert again.device.structure == config.device.structure
        shifts = again.register.shift_matrix_mev
        assert np.array_equal(shifts, config.register.shift_matrix_mev)


def test_table_defaults_match_the_dataclasses(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[register]\nenergies_ev = 1.7\n", encoding="utf-8")
    config = load_config(str(path))
    assert config.policy == TimingPolicy()
    assert config.simulation == SimulationConfig()
    assert config.outputs == OutputsSection()


def mutated(text, line_no, value):
    lines = text.splitlines()
    key = lines[line_no].partition("=")[0].strip()
    lines[line_no] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


def section_of(lines, line_no):
    for line in reversed(lines[:line_no]):
        if line.startswith("["):
            return line.strip("[]")
    raise AssertionError("key outside a section")


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_mutation_grid_exits_cleanly(path, tmp_path, capsys):
    """Each key of each checked-in config, set to a bad value, runs or exits 2/3.

    An exit 2 names the mutated [section] key, or for a program that no
    longer compiles, the explicit [pulses] tau_ps it is too short for.
    """
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    failures = []
    for line_no, line in enumerate(lines):
        if "=" not in line or line.lstrip().startswith("#"):
            continue
        section = section_of(lines, line_no)
        key = line.partition("=")[0].strip()
        for value in MUTATIONS:
            cfg = tmp_path / "mutated.cfg"
            cfg.write_text(mutated(text, line_no, value), encoding="utf-8")
            case = f"{key} = {value!r}"
            args = ["compile", "--config", str(cfg), "--out-dir", str(tmp_path)]
            try:
                rc = main(args)
            except Exception as err:  # any exception escaping main is the failure
                failures.append(f"{case}: raised {err!r}")
                continue
            err = capsys.readouterr().err
            named = f"[{section}] {key}" in err or "[pulses] tau_ps: gate" in err
            if rc not in (0, 2, 3):
                failures.append(f"{case}: exit {rc}")
            elif rc == 2 and not named:
                failures.append(f"{case}: exit 2 without [{section}] {key}: {err!r}")
    assert not failures, "\n".join(failures)


BELL = (REPO / "configs" / "bell_two_dot.cfg").read_text(encoding="utf-8")


def with_line(section, line):
    """bell_two_dot.cfg with line set in section, replacing the same key."""
    lines, header = BELL.splitlines(), f"[{section}]"
    if header not in lines:
        return BELL + f"\n{header}\n{line}\n"
    start = lines.index(header) + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")), None)
    key = line.partition("=")[0].strip()
    for i in range(start, end or len(lines)):
        if lines[i].partition("=")[0].strip() == key:
            lines[i] = line
            break
    else:
        lines.insert(start, line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "section, line, named",
    [
        ("pulses", "selectivity_fraction = nan", "[pulses] selectivity_fraction: "),
        ("pulses", "tau_ps = nan", "[pulses] tau_ps: "),
        ("pulses", "tau_ps = inf", "[pulses] tau_ps: "),
        ("pulses", "tau_ps = 0", "[pulses] tau_ps: "),
        ("pulses", "tau_ps = abc", "[pulses] tau_ps: "),
        ("register", "energies_ev = 1.70 nan", "[register] energies_ev: "),
        ("register", "shift_mev_0_1 = nan", "[register] shift_mev_0_1: "),
        ("channels", "decay.a = inf", "[channels] decay.a: "),
        ("channels", "decay.a = x", "[channels] decay.a: "),
        (
            "register",
            "shift_mev_0_1 = 4.5\nshift_mev_1_0 = 3.0",
            "[register] shift_mev_1_0: duplicates shift_mev_0_1",
        ),
        (
            "channels",
            "decay.a = 0.002\ndecay.0 = 0.003",
            "[channels] decay.0: duplicates decay.a",
        ),
        (
            "register",
            "shift_mev_0_1 = 0",
            "[pulses] tau_ps: gate 2: dot b has the same transition energy",
        ),
        ("integration", "time_step_ps = fast", "[integration] time_step_ps: "),
        ("integration", "time_step_ps = nan", "[integration] time_step_ps: "),
        ("outputs", "fidelity_target = 1 0 0 nanj", "[outputs] fidelity_target: "),
        ("outputs", "coherence_pair = a:b", "[outputs] coherence_pair: "),
        ("outputs", "coherence_pair = 0:9", "[outputs] coherence_pair: "),
        ("outputs", "coherence_pair = -1:0", "[outputs] coherence_pair: "),
        (
            "outputs",
            "coherence_pair = 0",
            "[outputs] coherence_pair: expected two entries like 0:1, got '0'",
        ),
        (
            "outputs",
            "biexcitonic_conditioning = a:0",
            "[outputs] biexcitonic_conditioning: pattern a:0 must name dots below 2",
        ),
        (
            "outputs",
            "biexcitonic_conditioning = a:1,b:1",
            "[outputs] biexcitonic_conditioning: pattern a:1,b:1 must name",
        ),
        (
            "program",
            "gate.1 = cnot target=b control=a angle=pi/2",
            "[program] gate.1: cnot is a pi rotation",
        ),
        (
            "program",
            "gate.1 = unconditional-not target=a angle=pi/2",
            "[program] gate.1: unconditional-not is a pi rotation",
        ),
        ("register", "dipoles = 0 1.0", "[register] dipoles: gate 1 drives dot a"),
        (
            "program",
            "gate.1 = rotation target=e",
            "[program] gate.1: dot e out of range for 2 dots",
        ),
        ("channels", "decay.2 = 0.1", "[channels] decay.2: dot c out of range for 2 dots"),
        (
            "integration",
            "integrator_order = 4",
            "[integration] unknown key 'integrator_order'",
        ),
        ("pulses", "addressing = global", "[pulses] unknown key 'addressing'"),
        ("integration", "frame = rotating", "[integration] unknown key 'frame'"),
        ("integration", "frame = lab", "[integration] unknown key 'frame'"),
    ],
)
def test_bad_value_exits_2_naming_its_key(section, line, named, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(with_line(section, line), encoding="utf-8")
    rc = main(["compile", "--config", str(cfg), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {cfg}: {named}"), err


@pytest.mark.parametrize(
    "line, named",
    [
        *(
            pytest.param(
                f"biexcitonic_conditioning = {pattern}",
                "[outputs] biexcitonic_conditioning: ",
                id=pattern,
            )
            for pattern in ["a:0", "a:1,b:1", "a:1,a:0,b:1", "b:1;a:1,0:0"]
        ),
        # a grid of ~1e303 points, refused before it is allocated
        pytest.param(
            "spectrum_linewidth_mev = 1e-300",
            "[outputs] spectrum_linewidth_mev: ",
            id="linewidth=1e-300",
        ),
        # a grid whose squared span overflows
        pytest.param(
            "spectrum_linewidth_mev = 1e300",
            "[outputs] spectrum_linewidth_mev: ",
            id="linewidth=1e300",
        ),
    ],
)
def test_bad_conditioning_stops_spectrum_before_any_file(line, named, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(with_line("outputs", line), encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["spectrum", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not list(out.iterdir())


ONE_DOT_DEVICE = """[device]
electron_mass = 0.067
hole_mass = 0.34
epsilon_r = 12.9
band_gap_ev = 1.519
well_widths_nm = 5.0
hbar_omega_e_mev = 20.0
hbar_omega_h_mev = 10.0
"""


def one_dot_device_with(tmp_path, *lines):
    """A config file of ONE_DOT_DEVICE with the keys of lines replaced."""
    keys = [line.partition("=")[0].strip() for line in lines]
    kept = [l for l in ONE_DOT_DEVICE.splitlines() if l.partition("=")[0].strip() not in keys]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join([*kept, *lines]) + "\n", encoding="utf-8")
    return cfg


@pytest.mark.parametrize(
    "line",
    [
        "field_kv_cm = 1e300",
        "well_widths_nm = 1e300",
        "well_widths_nm = 1e-300",
        "hbar_omega_e_mev = 1e300",
        "hbar_omega_e_mev = 1e-300",
        "hbar_omega_h_mev = 1e300",
        "hbar_omega_h_mev = 1e-300",
        "coulomb_rel_tol = 1e-300",
        "hbar_omega_e_mev = 1e-8",
        "electron_mass = 1e-8",
        "field_kv_cm = 1e50",
        "hbar_omega_h_mev = 1e-20",
    ],
)
def test_bad_device_value_exits_2_naming_its_key(line, tmp_path, capsys):
    # finite values whose powers in the device model overflow or round to 0,
    # a tolerance below what the Coulomb quadrature accepts, and values at
    # which the Coulomb quadrature fails or the exciton energy turns
    # negative, named because their preset value lets the register build
    key = line.partition("=")[0].strip()
    cfg = one_dot_device_with(tmp_path, line)
    rc = main(["compile", "--config", str(cfg), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {cfg}: [device] {key}: "), err


@pytest.mark.parametrize(
    "lines",
    [["field_kv_cm = 250"], ["hbar_omega_e_mev = 3.0", "hbar_omega_h_mev = 3.0"]],
    ids=["field=250", "traps=3"],
)
def test_device_values_the_model_holds_load(lines, tmp_path):
    # far from GaAs's values but inside the model's range: no key is refused
    # for a value the register builds from
    register = load_config(str(one_dot_device_with(tmp_path, *lines))).register
    assert register.exciton_energies_ev[0] > 0


@pytest.mark.parametrize(
    "lines, key",
    [
        (["field_kv_cm = 200", "electron_mass = 0.01"], "electron_mass"),
        (["field_kv_cm = 200", "hole_mass = 0.01"], "hole_mass"),
        (["field_kv_cm = 2000", "hole_mass = 0.01"], "field_kv_cm"),
    ],
    ids=["light-electron", "light-hole", "light-hole-strong-field"],
)
def test_device_failure_names_first_key_whose_preset_value_builds(
    lines, key, tmp_path, capsys
):
    # the Stark shift of a light carrier in a strong field turns the exciton
    # energy negative: setting the mass back to GaAs's mends it, unless the
    # field is too strong for that too
    cfg = one_dot_device_with(tmp_path, *lines)
    rc = main(["compile", "--config", str(cfg), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {cfg}: [device] {key}: "), err


@pytest.mark.parametrize(
    "text, named",
    [
        ("[register]\nenergies_ev = 1.7\n", "[register] energies_ev: "),
        (ONE_DOT_DEVICE, "[device] well_widths_nm: "),
    ],
    ids=["register", "device"],
)
def test_one_dot_spectrum_exits_2_before_any_file(text, named, tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["spectrum", "--config", str(cfg), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {cfg}: {named}"), err
    assert not list(out.iterdir())


@pytest.mark.parametrize("command", ["compile", "simulate"])
def test_zero_dipole_on_a_driven_dot_exits_2_naming_dipoles(command, tmp_path, capsys):
    text = (REPO / "configs" / "device_derived.cfg").read_text(encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    text = text.replace("[device]\n", "[device]\ndipoles = 1.0 0\n")
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {cfg}: [device] dipoles: gate 2 drives dot b"), err
    assert not list(out.iterdir())


def test_malformed_shift_pair_suggests_dot_letters(tmp_path, capsys):
    text = (REPO / "configs" / "device_derived.cfg").read_text(encoding="utf-8")
    assert "\nshift_pair = a b\n" in text
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.replace("\nshift_pair = a b\n", "\nshift_pair = a\n"), encoding="utf-8")
    rc = main(["compile", "--config", str(cfg), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(
        f"error: {cfg}: [device] shift_pair: expected two entries like a b, got 'a'"
    ), err


@pytest.mark.parametrize(
    "step, message",
    [
        ("time_step_ps = 0.5", "too coarse"),
    ],
    ids=["coarser-than-pulses"],
)
def test_too_coarse_step_exits_2_naming_time_step(step, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(with_line("integration", step), encoding="utf-8")
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {cfg}: [integration] time_step_ps: "), err
    assert message in err


@pytest.mark.parametrize(
    "line, key",
    [
        ("time_step_ps = 1e-300", "time_step_ps"),  # ~1e301 steps
        ("time_step_ps = 1e-9", "time_step_ps"),  # ~3e9 steps
        ("duration_ps = 1e300", "duration_ps"),
        ("duration_ps = 1e4", "duration_ps"),  # 4e7 steps of the config's 2.5e-4 ps
    ],
)
def test_window_of_too_many_steps_exits_2_before_any_file(line, key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(with_line("integration", line), encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {cfg}: [integration] {key}: "), err
    assert f"more than {dynamics.MAX_STEPS}" in err
    assert not list(out.iterdir())
