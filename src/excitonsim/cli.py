"""Command-line orchestration.

Subcommands: shift | spectrum | compile | simulate, each driven by a run
configuration file.  All data artifacts are CSV with one '#' header comment
line documenting column semantics and basis ordering; floats are written
with repr so identical configs produce byte-identical files.  Wall-clock
information appears only in the run manifest.

Exit codes: 0 success, 2 usage/config error, 3 numerical-diagnostics
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import time
import warnings
from pathlib import Path

from . import __version__
from .analysis import absorption_spectrum, concurrence, fidelity
from .config import (
    RunConfig,
    dump_config,
    fmt as _fmt,
    load_config,
    program_error,
    step_error,
    sweep_device,
)
from .device import shift_vs_field
from .dynamics import Trajectory, basis_state_density, propagate, purity
from .errors import (
    ConfigError,
    ConvergenceError,
    ExcitonSimError,
    InvalidParameterError,
    PropagationDiagnosticsError,
    TimeStepError,
)
from .model import basis_label, dot_label, pattern_text
from .pulses import PulseSequence, compile_program

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIAGNOSTICS = 3


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_shift(config: RunConfig, out_dir: Path) -> int:
    device = sweep_device(config)
    l, lp = device.shift_pair
    try:  # the register built at the configured field, so a failing sweep is the grid's
        rows = shift_vs_field(
            device.structure, l, lp, device.field_grid_kv_cm, rel_tol=device.coulomb_rel_tol
        )
    except (ConvergenceError, InvalidParameterError) as err:
        raise ConfigError(str(err), "device", "field_grid_kv_cm") from err
    lines = [
        f"# biexcitonic shift of dots {dot_label(l)},{dot_label(lp)} vs in-plane field",
        "field_kV_cm,delta_E_meV",
    ]
    lines += [f"{_fmt(f)},{_fmt(de)}" for f, de in rows]
    _write_lines(out_dir / "shift.csv", lines)
    print(f"wrote {out_dir / 'shift.csv'} ({len(rows)} rows)")
    return EXIT_OK


def _write_spectrum(path: Path, spectrum, kind: str) -> None:
    positions = ", ".join(
        f"{dot_label(line.dot)}@{_fmt(line.energy_ev)}eV" for line in spectrum.lines
    )
    lines = [
        f"# {kind} absorption, Lorentzian FWHM "
        f"{_fmt(spectrum.linewidth_mev)} meV; lines: {positions}",
        "energy_eV,intensity",
    ]
    lines += [
        f"{_fmt(e)},{_fmt(i)}"
        for e, i in zip(spectrum.energies_ev, spectrum.intensity)
    ]
    _write_lines(path, lines)


def cmd_spectrum(config: RunConfig, out_dir: Path) -> int:
    if config.register.n_qubits < 2:
        key = ("device", "well_widths_nm") if config.device else ("register", "energies_ev")
        raise ConfigError(
            "the spectrum subcommand needs two or more dots: one dot has no "
            "biexcitonic lines",
            *key,
        )
    lw = config.outputs.spectrum_linewidth_mev
    patterns = {"excitonic": None, "biexcitonic": config.outputs.biexcitonic_conditioning}
    try:  # both spectra before any file; a grid too fine to hold is the linewidth's
        spectra = {
            kind: absorption_spectrum(config.register, kind, kind_patterns, linewidth_mev=lw)
            for kind, kind_patterns in patterns.items()
        }
    except InvalidParameterError as err:
        raise ConfigError(str(err), "outputs", "spectrum_linewidth_mev") from err
    for kind, spectrum in spectra.items():
        path = out_dir / f"spectrum_{kind}.csv"
        _write_spectrum(path, spectrum, kind)
        print(f"wrote {path} ({len(spectrum.lines)} lines)")
    return EXIT_OK


def _compiled_sequence(config: RunConfig) -> PulseSequence:
    try:
        return compile_program(config.register, config.program, config.policy)
    except ExcitonSimError as err:
        raise program_error(err, config) from err


def _write_sequence(path: Path, sequence: PulseSequence) -> None:
    lines = [
        "# compiled pulse sequence; Gaussian envelopes truncated at +-4 tau",
        "center_ps,tau_ps,carrier_eV,area_rad,phase_rad",
    ]
    lines += [
        f"{_fmt(p.center_ps)},{_fmt(p.tau_ps)},{_fmt(p.carrier_energy_ev)},"
        f"{_fmt(p.area_rad)},{_fmt(p.phase_rad)}"
        for p in sequence
    ]
    _write_lines(path, lines)


def _program_echo(config: RunConfig, sequence: PulseSequence) -> list[str]:
    lines = ["# program echo"]
    for i, (spec, start) in enumerate(config.program, start=1):
        conds = f" when {pattern_text(spec.conditions)}" if spec.conditions else ""
        start_txt = "auto" if start is None else f"{_fmt(start)} ps"
        lines.append(
            f"gate {i}: {spec.kind} on {dot_label(spec.target)}"
            f" angle={_fmt(spec.angle)} rad{conds} (start {start_txt})"
        )
    lines.append(f"# {len(sequence)} pulses, span "
                 f"[{_fmt(sequence.start_ps)}, {_fmt(sequence.end_ps)}] ps")
    for j, p in enumerate(sequence, start=1):
        lines.append(
            f"pulse {j}: carrier {_fmt(p.carrier_energy_ev)} eV, center "
            f"{_fmt(p.center_ps)} ps, tau {_fmt(p.tau_ps)} ps, area "
            f"{_fmt(p.area_rad)} rad, phase {_fmt(p.phase_rad)} rad, "
            f"calibrated on {dot_label(p.target_dipole)}"
        )
    return lines


def cmd_compile(config: RunConfig, out_dir: Path) -> int:
    if not config.program:
        raise ConfigError("the compile subcommand needs a program section", "program")
    sequence = _compiled_sequence(config)
    _write_sequence(out_dir / "sequence.csv", sequence)
    echo = _program_echo(config, sequence)
    _write_lines(out_dir / "program.txt", echo)
    print("\n".join(echo))
    print(f"wrote {out_dir / 'sequence.csv'} and {out_dir / 'program.txt'}")
    return EXIT_OK


def _write_trajectory(path: Path, traj: Trajectory, n_qubits: int) -> None:
    dim = traj.populations.shape[1]
    pop_cols = [f"pop_{basis_label(i, n_qubits)}" for i in range(dim)]
    occ_cols = [f"n_{dot_label(l)}" for l in range(n_qubits)]
    i, j = traj.coherence_pair
    header = ",".join(["t_ps", *pop_cols, *occ_cols, "re_coh_sel", "im_coh_sel"])
    comment = (
        f"# basis index sum_l n_l 2^l with dot a least significant; pop columns "
        f"list occupations (n_a n_b ...); coherence = <{basis_label(i, n_qubits)}"
        f"|rho|{basis_label(j, n_qubits)}> in the rotating frame, reference "
        f"{_fmt(traj.reference_energy_ev)} eV"
    )
    lines = [comment, header]
    for k in range(traj.times_ps.size):
        row = [_fmt(traj.times_ps[k])]
        row += [_fmt(v) for v in traj.populations[k]]
        row += [_fmt(v) for v in traj.occupations[k]]
        row += [_fmt(traj.coherences[k].real), _fmt(traj.coherences[k].imag)]
        lines.append(",".join(row))
    _write_lines(path, lines)


def _metrics(config: RunConfig, traj: Trajectory) -> list[str]:
    reg = config.register
    rho_gate = traj.final_state_interaction_picture()
    lines = []
    target = config.outputs.target_state()
    if target is not None:
        lines.append(f"fidelity_vs_target = {_fmt(fidelity(rho_gate, target))}")
    if reg.n_qubits == 2:
        lines.append(f"concurrence = {_fmt(concurrence(rho_gate))}")
    for l in range(reg.n_qubits):
        lines.append(f"final_n_{dot_label(l)} = {_fmt(traj.occupations[-1, l])}")
    for i, p in enumerate(traj.populations[-1]):
        lines.append(f"final_pop_{basis_label(i, reg.n_qubits)} = {_fmt(p)}")
    lines.append(f"final_purity = {_fmt(purity(traj.final_state))}")
    lines.append(f"max_trace_drift = {_fmt(traj.max_trace_drift)}")
    lines.append(f"n_steps = {traj.n_steps}")
    return lines


def _manifest_header(config_path: Path, traj: Trajectory, wall_s: float) -> list[str]:
    digest = hashlib.sha256(config_path.read_bytes()).hexdigest()
    return [
        "# run manifest: resolved parameters; feeding this file back as the",
        "# config reproduces the run identically",
        f"# tool_version = {__version__}",
        f"# input_file = {config_path.name}",
        f"# input_sha256 = {digest}",
        f"# wall_clock_s = {wall_s:.3f}",
        f"# integration_steps = {traj.n_steps}",
        "",
    ]


def cmd_simulate(config: RunConfig, out_dir: Path, config_path: Path) -> int:
    sequence = _compiled_sequence(config)
    sim = config.simulation
    if len(sequence) == 0 and sim.duration_ps is None:
        sim = dataclasses.replace(sim, duration_ps=1.0)
    started = time.perf_counter()
    try:
        vacuum = basis_state_density(config.register.n_qubits, 0)
        with warnings.catch_warnings():  # an overflow is reported as exit 3
            warnings.filterwarnings(
                "ignore",
                category=RuntimeWarning,
                module=r"excitonsim\.(dynamics|pulses)",
            )
            traj = propagate(vacuum, sequence, config.register, config.channels, sim)
    except TimeStepError as err:
        raise step_error(err) from err
    wall = time.perf_counter() - started
    _write_sequence(out_dir / "sequence.csv", sequence)
    _write_trajectory(out_dir / "trajectory.csv", traj, config.register.n_qubits)
    metrics = _metrics(config, traj)
    _write_lines(out_dir / "metrics.txt", metrics)
    _write_lines(
        out_dir / "manifest.cfg",
        _manifest_header(config_path, traj, wall)
        + dump_config(dataclasses.replace(config, simulation=sim)),
    )
    print("\n".join(metrics))
    print(
        f"wrote trajectory.csv, sequence.csv, metrics.txt, manifest.cfg to {out_dir}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excitonsim",
        description=(
            "Pulse-level simulator for exciton qubits in coupled quantum dots"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("shift", "biexcitonic shift vs field sweep (CSV)"),
        ("spectrum", "excitonic and biexcitonic absorption spectra (CSV)"),
        ("compile", "compile the gate program into a pulse sequence (CSV)"),
        ("simulate", "compile, propagate, and report metrics"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out-dir", default=".", help="directory for data artifacts")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config_path = Path(args.config)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        config = load_config(str(config_path))
        if args.command == "shift":
            return cmd_shift(config, out_dir)
        if args.command == "spectrum":
            return cmd_spectrum(config, out_dir)
        if args.command == "compile":
            return cmd_compile(config, out_dir)
        return cmd_simulate(config, out_dir, config_path)
    except PropagationDiagnosticsError as err:
        print(f"error: {config_path}: {err}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except ExcitonSimError as err:
        print(f"error: {config_path}: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
