import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from excitonsim.cli import main
from excitonsim.config import load_config, parse_angle, parse_dot
from excitonsim.errors import ConfigError

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def write_cfg(tmp_path: Path, text: str, name="run.cfg") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def read_metrics(out_dir: Path) -> dict[str, float]:
    values = {}
    for line in (out_dir / "metrics.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        values[key] = float(value)
    return values


MINIMAL_REGISTER = """
[register]
energies_ev = 1.70 1.71
shift_mev_0_1 = 4.5
"""

THREE_DOTS = """
[register]
energies_ev = 1.70 1.71 1.72
shift_mev_0_1 = 4.5
shift_mev_1_2 = 3.0
shift_mev_0_2 = 1.25
"""


class TestConfigParsing:
    def test_angle_tokens(self):
        assert parse_angle("pi", "x") == math.pi
        assert parse_angle("pi/2", "x") == math.pi / 2
        assert parse_angle("2pi/3", "x") == pytest.approx(2 * math.pi / 3)
        assert parse_angle("0.25", "x") == 0.25
        with pytest.raises(ConfigError):
            parse_angle("twopi", "x")

    def test_dot_names(self):
        assert parse_dot("a", "x") == 0
        assert parse_dot("b", "x") == 1
        assert parse_dot("3", "x") == 3
        with pytest.raises(ConfigError):
            parse_dot("zz", "x")

    def test_register_resolution(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL_REGISTER)
        config = load_config(str(cfg))
        assert config.register.n_qubits == 2
        assert config.register.shift_matrix_mev[1, 0] == 4.5

    def test_device_and_register_conflict(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            MINIMAL_REGISTER + "\n[device]\npreset = gaas-two-dot\n",
        )
        with pytest.raises(ConfigError, match="not both"):
            load_config(str(cfg))

    def test_missing_source_section(self, tmp_path):
        cfg = write_cfg(tmp_path, "[pulses]\ntau_ps = auto\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg))

    def test_unknown_key_names_section(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL_REGISTER + "\n[pulses]\nwidth = 3\n")
        with pytest.raises(ConfigError, match=r"\[pulses\]"):
            load_config(str(cfg))

    def test_gate_errors_name_the_gate(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            MINIMAL_REGISTER + "\n[program]\ngate.1 = rotation target=c angle=pi\n",
        )
        with pytest.raises(ConfigError, match="gate.1"):
            load_config(str(cfg))

    def test_program_order_follows_indices(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            MINIMAL_REGISTER
            + "\n[program]\ngate.2 = cnot target=b control=a\n"
            + "gate.1 = rotation target=a angle=pi/2\n",
        )
        config = load_config(str(cfg))
        assert [spec.kind for spec, _ in config.program] == ["rotation", "cnot"]


class TestShiftCommand:
    def test_sweep_from_preset(self, tmp_path):
        rc = main(
            [
                "shift",
                "--config",
                str(CONFIGS / "device_derived.cfg"),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "shift.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "field_kV_cm,delta_E_meV"
        rows = [tuple(map(float, line.split(","))) for line in lines[2:]]
        assert len(rows) == 9
        shifts = [de for _, de in rows]
        assert all(b >= a for a, b in zip(shifts, shifts[1:]))
        at_30 = dict(rows)[30.0]
        assert 3.0 <= at_30 <= 6.0

    def test_empty_grid_is_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "[device]\npreset = gaas-two-dot\n")
        rc = main(["shift", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_missing_device_section(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL_REGISTER)
        rc = main(["shift", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_failing_sweep_names_the_field_grid(self, tmp_path, capsys):
        # an ascending grid whose far fields break the Coulomb quadrature
        cfg = write_cfg(
            tmp_path, "[device]\npreset = gaas-two-dot\nfield_grid_kv_cm = 0 1e6 1e12 1e30\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["shift", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "[device] field_grid_kv_cm: " in err
        # the error line is the whole report: no warning of scipy's on the way
        assert caught == []
        assert len(err.splitlines()) == 1 and err.startswith(
            f"error: {cfg}: [device] field_grid_kv_cm: Coulomb quadrature did not converge"
        )
        assert not (tmp_path / "shift.csv").exists()


class TestSpectrumCommand:
    def test_line_positions_in_headers(self, tmp_path):
        rc = main(
            [
                "spectrum",
                "--config",
                str(CONFIGS / "bell_two_dot.cfg"),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        exc = (tmp_path / "spectrum_excitonic.csv").read_text().splitlines()
        bi = (tmp_path / "spectrum_biexcitonic.csv").read_text().splitlines()
        assert "1.7" in exc[0] and "1.71" in exc[0]
        assert "1.7045" in bi[0] and "1.7145" in bi[0]
        data = np.loadtxt(exc[2:], delimiter=",")
        assert np.all(data[:, 1] >= 0)

    def test_explicit_conditioning(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            MINIMAL_REGISTER
            + "\n[outputs]\nbiexcitonic_conditioning = a:1\n",
        )
        rc = main(["spectrum", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 0
        header = (tmp_path / "spectrum_biexcitonic.csv").read_text().splitlines()[0]
        assert "1.7145" in header
        assert "1.7045" not in header

    def test_conditioning_occupying_emitter_fails(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            MINIMAL_REGISTER
            + "\n[outputs]\nbiexcitonic_conditioning = a:1,b:1\n",
        )
        rc = main(["spectrum", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize(
        "outputs, lines",
        [
            (  # canonical set: emitting dot l-major, then partner l'
                "",
                "a@1.7045000000000003eV, a@1.7012499999999997eV, "
                "b@1.7145000000000004eV, b@1.7129999999999999eV, "
                "c@1.7212499999999997eV, c@1.7229999999999999eV",
            ),
            (  # pattern order, then the pattern's empty dots ascending
                "\n[outputs]\nbiexcitonic_conditioning = a:1;c:1\n",
                "b@1.7145000000000004eV, c@1.7212499999999997eV, "
                "a@1.7012499999999997eV, b@1.7129999999999999eV",
            ),
        ],
        ids=["canonical", "patterns"],
    )
    def test_biexcitonic_line_order(self, outputs, lines, tmp_path):
        cfg = write_cfg(tmp_path, THREE_DOTS + outputs)
        rc = main(["spectrum", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 0
        header = (tmp_path / "spectrum_biexcitonic.csv").read_text().splitlines()[0]
        assert header == f"# biexcitonic absorption, Lorentzian FWHM 0.5 meV; lines: {lines}"


class TestCompileCommand:
    def test_sequence_csv_columns(self, tmp_path):
        rc = main(
            [
                "compile",
                "--config",
                str(CONFIGS / "bell_two_dot.cfg"),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "sequence.csv").read_text().splitlines()
        assert lines[1] == "center_ps,tau_ps,carrier_eV,area_rad,phase_rad"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 2
        carriers = [float(r[2]) for r in rows]
        assert carriers[0] == 1.70
        assert carriers[1] == pytest.approx(1.7145, abs=1e-12)
        assert (tmp_path / "program.txt").exists()

    def test_unconditional_not_emits_two_colors(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            MINIMAL_REGISTER + "\n[program]\ngate.1 = unconditional-not target=b\n",
        )
        rc = main(["compile", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sequence.csv").read_text().splitlines()
        carriers = [float(line.split(",")[2]) for line in lines[2:]]
        assert carriers == pytest.approx([1.71, 1.7145], abs=1e-12)

    def test_missing_program_section(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL_REGISTER)
        rc = main(["compile", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_unsatisfiable_budget_reports_gate(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            MINIMAL_REGISTER
            + "\n[program]\ngate.1 = cnot target=b control=a\n"
            + "\n[pulses]\ntau_ps = 0.1\n",
        )
        rc = main(["compile", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "gate 1" in err
        assert "required minimum duration" in err


class TestSimulateCommand:
    def test_bell_sequence_end_to_end(self, bell_run):
        rc, out = bell_run
        assert rc == 0
        metrics = read_metrics(out)
        assert metrics["fidelity_vs_target"] >= 0.95
        assert metrics["concurrence"] >= 0.90
        assert 0.45 <= metrics["final_n_a"] <= 0.55
        assert 0.45 <= metrics["final_n_b"] <= 0.55
        traj = (out / "trajectory.csv").read_text().splitlines()
        assert traj[1].startswith("t_ps,pop_00,pop_10,pop_01,pop_11,n_a,n_b")

    def test_coherence_pair_override(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            MINIMAL_REGISTER
            + "\n[program]\ngate.1 = rotation target=a angle=pi/2\n"
            + "\n[outputs]\ncoherence_pair = 0:1\n",
        )
        rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 0
        comment = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert "<00|rho|10>" in comment
        # pi/2 rotation leaves a large |00><10| coherence
        last = (tmp_path / "trajectory.csv").read_text().splitlines()[-1]
        re_coh = float(last.split(",")[-2])
        im_coh = float(last.split(",")[-1])
        assert math.hypot(re_coh, im_coh) > 0.4

    def test_empty_program_constant_state(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            MINIMAL_REGISTER + "\n[integration]\nduration_ps = 0.5\n",
        )
        rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 0
        metrics = read_metrics(tmp_path)
        assert metrics["final_pop_00"] == 1.0
        assert metrics["final_n_a"] == 0.0

    def test_diagnostics_failure_exit_code(self, tmp_path):
        # pi pulse fills the excited state; the decay rate is far too stiff
        # for the step, so the integrator runs away and trips the positivity
        # diagnostic
        cfg = write_cfg(
            tmp_path,
            MINIMAL_REGISTER
            + "\n[program]\ngate.1 = rotation target=a angle=pi\n"
            + "\n[channels]\ndecay.a = 200.0\n"
            + "\n[integration]\ntime_step_ps = 0.025\nduration_ps = 8.0\n",
        )
        rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 3

    def test_overflowing_drive_exits_3_without_traceback(self, tmp_path):
        # the pulses are calibrated on dot a's 1e-300 dipole, so dot b sees
        # a 1e300 times stronger drive and the first step overflows
        text = (CONFIGS / "bell_two_dot.cfg").read_text()
        assert "dipoles = 1.0 1.0" in text
        cfg = write_cfg(tmp_path, text.replace("dipoles = 1.0 1.0", "dipoles = 1e-300 1.0"))
        proc = subprocess.run(
            [sys.executable, "-m", "excitonsim.cli", "simulate", "--config", str(cfg),
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 3
        assert proc.stderr == f"error: {cfg}: non-finite density matrix at step 1\n"

    def test_overflow_inside_the_drive_exits_3_without_warnings(self, tmp_path):
        # a subnormal dipole on dot a: dot b's amplitude, scaled by 1/1e-310,
        # overflows in pulses.field_at itself, before any step is taken
        text = (CONFIGS / "bell_two_dot.cfg").read_text()
        cfg = write_cfg(tmp_path, text.replace("dipoles = 1.0 1.0", "dipoles = 1e-310 1.0"))
        proc = subprocess.run(
            [sys.executable, "-m", "excitonsim.cli", "simulate", "--config", str(cfg),
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 3
        assert proc.stderr == f"error: {cfg}: non-finite density matrix at step 1\n"

    def test_decoherence_lowers_concurrence(self, tmp_path):
        rc = main(
            [
                "simulate",
                "--config",
                str(CONFIGS / "decoherence_two_dot.cfg"),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        metrics = read_metrics(tmp_path)
        assert metrics["concurrence"] < 0.999
        assert metrics["final_purity"] < 1.0


class TestDeterminism:
    def test_manifest_reproduces_run(self, bell_run, tmp_path):
        rc, out1 = bell_run
        out2 = tmp_path / "r2"
        assert rc == 0
        rc = main(
            [
                "simulate",
                "--config",
                str(out1 / "manifest.cfg"),
                "--out-dir",
                str(out2),
            ]
        )
        assert rc == 0
        for name in ("trajectory.csv", "sequence.csv", "metrics.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestScipyImport:
    """scipy is loaded only where the device model runs.  Checked in a
    fresh interpreter, since the test suite itself imports scipy."""

    PROBE = (
        "import sys\n"
        "from excitonsim import cli\n"
        "rc = cli.main(['compile', '--config', sys.argv[1], '--out-dir', sys.argv[2]])\n"
        "print(rc, 'scipy' in sys.modules)\n"
    )

    def compile_in_subprocess(self, cfg: Path, out_dir: Path) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, str(cfg), str(out_dir)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_register_config_never_loads_scipy(self, tmp_path):
        assert self.compile_in_subprocess(CONFIGS / "bell_two_dot.cfg", tmp_path) == "0 False"
        assert (tmp_path / "sequence.csv").exists()

    def test_device_config_loads_scipy_and_compiles(self, tmp_path):
        assert self.compile_in_subprocess(CONFIGS / "device_derived.cfg", tmp_path) == "0 True"
        assert (tmp_path / "sequence.csv").exists()
