"""End-to-end acceptance checks.

Each test prints one [PASS] line (or fails with the measured numbers).
Run with `pytest tests/test_acceptance.py -v -s` to see the report.

Bandwidth floor: test_entangling_protocol_at_subpicosecond_timing holds
the two-color Bell protocol to 0.1 ps Gaussian pulses at 0.2 / 0.8 ps and
to the thresholds fidelity 0.95, n in [0.45, 0.55], concurrence 0.90.
Such a pulse has bandwidth hbar/tau ~ 6.6 meV, wider than the 4.5 meV
conditional splitting it is meant to resolve, so the test asserts the
floor rather than the target: the compiler rejects the duration with a
required minimum of hbar / (0.25 * 4.5 meV) ~ 0.585 ps; the final density
matrix agrees with an adaptive integrator element by element; the
fidelity, its phase-independent ceiling 1/2 (sqrt(p00) + sqrt(p11))^2,
n_b and the concurrence all miss the thresholds; and the wrong branch
(dot b excited with dot a empty) takes at least 0.05 of the population.
The selective-duration variant below meets the thresholds.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import erf

from excitonsim import units
from excitonsim.analysis import bell_state, concurrence, fidelity, spectrum_lines
from excitonsim.cli import main
from excitonsim.device import (
    _radial_integral,
    biexcitonic_shift,
    carrier_density,
    gaas_two_dot,
    shift_vs_field,
)
from excitonsim.dynamics import (
    LindbladChannel,
    SimulationConfig,
    basis_state_density,
    integrate_master_equation,
    propagate,
    pure_state_density,
    purity,
)
from excitonsim.model import (
    ExcitonRegister,
    build_hamiltonian,
    renormalized_energy,
)
from excitonsim.errors import CompileError
from excitonsim.pulses import (
    GateSpec,
    Pulse,
    PulseSequence,
    TimingPolicy,
    compile_gate,
)

HBAR = units.HBAR_MEV_PS
REPO = Path(__file__).resolve().parents[1]

SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def report(label: str, detail: str) -> None:
    print(f"[PASS] {label}: {detail}")


def anchor_register() -> ExcitonRegister:
    return ExcitonRegister(
        exciton_energies_ev=np.array([1.70, 1.71]),
        shift_matrix_mev=np.array([[0.0, 4.5], [4.5, 0.0]]),
    )


def two_color_bell_sequence(tau_ps: float, t1_ps: float, t2_ps: float) -> PulseSequence:
    """pi/2 on dot a then conditional pi on dot b, explicit timing."""
    return PulseSequence(
        (
            Pulse(
                carrier_energy_ev=1.70,
                center_ps=t1_ps,
                tau_ps=tau_ps,
                area_rad=math.pi / 2,
                target_dipole=0,
            ),
            Pulse(
                carrier_energy_ev=1.7145,
                center_ps=t2_ps,
                tau_ps=tau_ps,
                area_rad=math.pi,
                target_dipole=1,
            ),
        )
    )


def run_bell_protocol(tau_ps: float, t1_ps: float, t2_ps: float, dt_ps: float):
    reg = anchor_register()
    seq = two_color_bell_sequence(tau_ps, t1_ps, t2_ps)
    config = SimulationConfig(time_step_ps=dt_ps, reference_energy_ev=1.70)
    started = time.perf_counter()
    traj = propagate(basis_state_density(2, 0), seq, reg, config=config)
    runtime = time.perf_counter() - started
    rho_gate = traj.final_state_interaction_picture()
    return {
        "fidelity": fidelity(rho_gate, bell_state()),
        "concurrence": concurrence(rho_gate),
        "n_a": traj.occupations[-1, 0],
        "n_b": traj.occupations[-1, 1],
        "runtime_s": runtime,
        "trajectory": traj,
    }


class TestEntanglingProtocol:
    def test_entangling_protocol_at_subpicosecond_timing(self, adaptive_reference):
        # 0.1 ps pulses at 0.2 and 0.8 ps, held to the Bell thresholds
        # (0.95, [0.45, 0.55], 0.90): the pulse bandwidth (hbar/tau =
        # 6.6 meV) cannot resolve the 4.5 meV conditional splitting, so
        # the test asserts that floor rather than the target
        tau = 0.1
        reg = anchor_register()

        # the cause: the selectivity budget puts the floor at
        # hbar / (0.25 * 4.5 meV) = 0.585 ps, above the requested 0.1 ps
        assert HBAR / tau > 4.5
        floor_ps = HBAR / (0.25 * 4.5)
        conditional_pi = GateSpec(
            "conditional-rotation", 1, angle=math.pi, conditions=((0, 1),)
        )
        with pytest.raises(CompileError) as err:
            compile_gate(reg, conditional_pi, TimingPolicy(tau_ps=tau))
        assert err.value.required_tau_ps == pytest.approx(floor_ps, rel=1e-12)

        out = run_bell_protocol(tau_ps=tau, t1_ps=0.2, t2_ps=0.8, dt_ps=2e-4)
        assert out["runtime_s"] < 10.0
        traj = out["trajectory"]

        # not the integrator: every element of the final state, coherences
        # included, agrees with an adaptive RK45 integration
        rho_ref = adaptive_reference(
            reg,
            two_color_bell_sequence(tau, 0.2, 0.8),
            basis_state_density(2, 0),
            traj.times_ps[0],
            traj.final_time_ps,
            1.70,
        )
        ref_err = float(np.max(np.abs(traj.final_state - rho_ref)))
        assert ref_err < 1e-6, f"RK4 deviates from the adaptive reference by {ref_err:.2e}"

        # the gap: below the thresholds even with the best final Z-phase
        # or common pulse phase, whose fidelity is bounded by
        # 1/2 (sqrt(p00) + sqrt(p11))^2
        p00, p10, p01, p11 = np.diag(traj.final_state).real
        ceiling = 0.5 * (math.sqrt(p00) + math.sqrt(p11)) ** 2
        assert out["fidelity"] < 0.95
        assert ceiling < 0.95
        assert not 0.45 <= out["n_b"] <= 0.55
        assert out["concurrence"] < 0.90

        # the wrong branch is driven: dot b is excited with dot a empty,
        # beyond the leak bound the compiled pulse is held to
        assert p01 >= 0.05

        report(
            "entangling protocol (0.1 ps timing) misses the Bell target",
            f"floor {err.value.required_tau_ps:.3f} ps (hbar/tau = {HBAR / tau:.2f} meV "
            f"vs 4.5 meV), fidelity={out['fidelity']:.4f} ceiling={ceiling:.4f} "
            f"concurrence={out['concurrence']:.4f} n_a={out['n_a']:.4f} "
            f"n_b={out['n_b']:.4f} p(|01>)={p01:.3f} "
            f"adaptive-reference deviation {ref_err:.1e} "
            f"runtime={out['runtime_s']:.2f}s",
        )

    def test_entangling_protocol_at_selective_duration(self):
        # same protocol, duration scaled to the bandwidth the splitting
        # demands (hbar/tau = 0.66 meV << 4.5 meV): passes all thresholds
        out = run_bell_protocol(tau_ps=1.0, t1_ps=4.0, t2_ps=12.0, dt_ps=4e-4)
        assert out["fidelity"] >= 0.95
        assert 0.45 <= out["n_a"] <= 0.55
        assert 0.45 <= out["n_b"] <= 0.55
        assert out["concurrence"] >= 0.90
        assert out["runtime_s"] < 10.0
        assert out["trajectory"].max_trace_drift < 1e-9
        report(
            "entangling protocol (selective 1 ps pulses)",
            f"fidelity={out['fidelity']:.4f} concurrence={out['concurrence']:.4f} "
            f"n_a={out['n_a']:.3f} n_b={out['n_b']:.3f} "
            f"runtime={out['runtime_s']:.2f}s",
        )


class TestConditionalSelectivity:
    def test_conditional_pulse_branches(self):
        reg = anchor_register()
        seq = compile_gate(reg, GateSpec("cnot", 1, conditions=((0, 1),)))
        config = SimulationConfig(time_step_ps=5e-4)
        off = propagate(basis_state_density(2, 0), seq, reg, config=config)
        n_b_off = off.occupations[-1, 1]
        on = propagate(basis_state_density(2, 1), seq, reg, config=config)
        n_b_on = on.occupations[-1, 1]
        assert n_b_off <= 0.05, f"control 0 leaked n_b = {n_b_off:.4f}"
        assert n_b_on >= 0.95, f"control 1 only reached n_b = {n_b_on:.4f}"
        report(
            "conditional selectivity",
            f"n_b(control=0)={n_b_off:.2e}, n_b(control=1)={n_b_on:.4f}",
        )


class TestShiftFromFirstPrinciples:
    def test_operating_point_window(self):
        structure = gaas_two_dot(field_kv_cm=30.0)
        de = biexcitonic_shift(structure, 0, 1)
        assert 3.0 <= de <= 6.0
        report("shift at 30 kV/cm", f"dE = {de:.4f} meV in [3, 6]")

    def test_monotone_field_dependence(self):
        structure = gaas_two_dot()
        sweep = shift_vs_field(structure, 0, 1, list(np.arange(0.0, 41.0, 5.0)))
        values = [de for _, de in sweep]
        assert all(b >= a for a, b in zip(values, values[1:]))
        report(
            "shift monotonicity",
            f"dE rises {values[0]:.3f} -> {values[-1]:.3f} meV on [0, 40] kV/cm",
        )

    def test_point_dipole_limit_at_5x_separation(self):
        structure = gaas_two_dot(field_kv_cm=30.0)
        e0 = carrier_density(structure, 0, "e")
        h0 = carrier_density(structure, 0, "h")
        d_len = abs(e0.inplane_center_nm[0] - h0.inplane_center_nm[0])
        sigma_max = max(e0.inplane_std_nm, h0.inplane_std_nm)
        big_d = 5.0 * (d_len + 2.0 * sigma_max)
        far_dot = dataclasses.replace(
            structure.dots[1], z_center_nm=structure.dots[0].z_center_nm + big_d
        )
        gap = big_d - 0.5 * (
            structure.dots[0].well_width_nm + far_dot.well_width_nm
        )
        far = dataclasses.replace(
            structure, dots=(structure.dots[0], far_dot), barrier_widths_nm=(gap,)
        )
        full = biexcitonic_shift(far, 0, 1)
        point_dipole = (
            units.COULOMB_MEV_NM
            / structure.material.relative_permittivity
            * d_len**2
            / big_d**3
        )
        rel_dev = abs(full - point_dipole) / point_dipole
        assert rel_dev < 0.05
        report(
            "point-dipole limit",
            f"deviation {rel_dev:.2%} at D = {big_d:.1f} nm",
        )

    def test_quadrature_matches_gaussian_closed_form(self, gaussian_pair_kernel):
        # two Gaussian unit charges 10 nm apart along z, through the radial
        # quadrature that every Coulomb integral of the device model runs
        mat = gaas_two_dot().material
        sigma, distance = 2.0, 10.0
        var = sigma**2 + sigma**2
        got = (
            units.COULOMB_MEV_NM
            / mat.relative_permittivity
            * _radial_integral(var, 0.0, gaussian_pair_kernel(distance, var), 1e-6)
        )
        exact = (
            units.COULOMB_MEV_NM
            / mat.relative_permittivity
            * erf(distance / (2 * sigma))
            / distance
        )
        rel = abs(got - exact) / exact
        assert rel < 1e-6
        report("Coulomb quadrature", f"closed-form deviation {rel:.2e}")


class TestPropagatorCorrectness:
    def test_trace_and_purity_conservation(self, step_purities):
        reg = anchor_register()
        seq = compile_gate(reg, GateSpec("cnot", 1, conditions=((0, 1),)))
        config = SimulationConfig(time_step_ps=2.5e-4)
        rho0 = basis_state_density(2, 1)
        traj = propagate(rho0, seq, reg, config=config)
        assert traj.max_trace_drift < 1e-9
        assert len(step_purities) == traj.n_steps
        drift = max(abs(p - purity(rho0)) for p in step_purities)
        assert drift < 1e-8
        report(
            "trace and purity",
            f"trace drift {traj.max_trace_drift:.1e}, purity drift {drift:.1e}",
        )

    def test_matrix_exponential_oracle(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho0 = a @ a.conj().T
        rho0 /= np.trace(rho0).real
        h0 = np.array([0.0, 0.0, 10.0, 14.5])
        config = SimulationConfig(time_step_ps=5e-4)
        traj = integrate_master_equation(rho0, h0, None, [], 0.0, 2.0, config)
        u = expm(-1j * np.diag(h0) * 2.0 / HBAR)
        err = np.max(np.abs(traj.final_state - u @ rho0 @ u.conj().T))
        assert err < 1e-8
        report("matrix-exponential oracle", f"max-abs deviation {err:.1e}")

    @pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 2, math.pi])
    def test_resonant_area_law(self, theta):
        reg = ExcitonRegister(
            exciton_energies_ev=np.array([1.70]),
            shift_matrix_mev=np.zeros((1, 1)),
        )
        pulse = Pulse(carrier_energy_ev=1.70, center_ps=0.5, tau_ps=0.1, area_rad=theta)
        config = SimulationConfig(time_step_ps=1e-3)
        traj = propagate(
            basis_state_density(1, 0), PulseSequence((pulse,)), reg, config=config
        )
        err = abs(traj.populations[-1, 1] - math.sin(theta / 2.0) ** 2)
        assert err < 1e-4
        report(f"resonant area law (theta={theta:.3f})", f"deviation {err:.1e}")

    def test_detuned_rabi_formula(self):
        omega, delta = 2.0, 1.5  # meV
        config = SimulationConfig(time_step_ps=1e-3, sample_stride=25)
        traj = integrate_master_equation(
            basis_state_density(1, 0),
            np.array([0.0, delta]),
            lambda times: np.full((len(times), 1), 0.5 * omega, dtype=complex),
            [],
            0.0,
            3.0,
            config,
        )
        og = math.hypot(omega, delta)
        expected = (omega / og) ** 2 * np.sin(og * traj.times_ps / (2 * HBAR)) ** 2
        err = np.max(np.abs(traj.populations[:, 1] - expected))
        assert err < 1e-4
        report("detuned Rabi", f"max deviation {err:.1e}")

    def test_decay_and_dephasing_analytics(self):
        reg = ExcitonRegister(
            exciton_energies_ev=np.array([1.70]),
            shift_matrix_mev=np.zeros((1, 1)),
        )
        t1 = 2.0
        config = SimulationConfig(time_step_ps=0.004, duration_ps=5 * t1)
        decay = propagate(
            basis_state_density(1, 1),
            PulseSequence(()),
            reg,
            channels=[LindbladChannel("decay", 0, 1.0 / t1)],
            config=config,
        )
        expected = np.exp(-decay.times_ps / t1)
        decay_err = np.max(
            np.abs(decay.populations[:, 1] - expected) / expected
        )
        gamma = 0.5
        plus = pure_state_density(np.array([1.0, 1.0]) / math.sqrt(2))
        deph = propagate(
            plus,
            PulseSequence(()),
            reg,
            channels=[LindbladChannel("pure-dephasing", 0, gamma)],
            config=SimulationConfig(
                time_step_ps=0.004, duration_ps=10.0, reference_energy_ev=1.70
            ),
        )
        expected_coh = 0.5 * np.exp(-gamma * deph.times_ps)
        deph_err = np.max(np.abs(np.abs(deph.coherences) - expected_coh) / expected_coh)
        assert decay_err < 1e-6
        assert deph_err < 1e-6
        report(
            "decay/dephasing analytics",
            f"relative deviations {decay_err:.1e}, {deph_err:.1e}",
        )


class TestSpectralPositions:
    def test_stick_positions_and_offsets(self):
        reg = anchor_register()
        exc = {l.dot: l.energy_ev for l in spectrum_lines(reg, "excitonic")}
        bi = {l.dot: l.energy_ev for l in spectrum_lines(reg, "biexcitonic")}
        assert exc[0] == 1.70
        assert exc[1] == 1.71
        assert abs(bi[0] - 1.7045) < 1e-12
        assert abs(bi[1] - 1.7145) < 1e-12
        for dot in (0, 1):
            offset_mev = (bi[dot] - exc[dot]) * 1000.0
            assert abs(offset_mev - 4.5) < 1e-9
        report(
            "spectral positions",
            "excitonic {1.70, 1.71} eV, biexcitonic {1.7045, 1.7145} eV, "
            "offset = shift to machine precision",
        )


class TestEntanglementMetrics:
    def test_bell_and_product_states(self):
        bell = pure_state_density(bell_state())
        assert abs(concurrence(bell) - 1.0) < 1e-10
        single = np.array([0.6, 0.8], dtype=complex)
        product = pure_state_density(np.kron(single, single))
        assert concurrence(product) < 1e-10
        report("concurrence extremes", "Bell = 1, product = 0 within 1e-10")

    @pytest.mark.parametrize("p", [0.0, 0.4, 0.8, 1.0])
    def test_werner_family(self, p):
        rho = p * pure_state_density(bell_state()) + (1 - p) * np.eye(4) / 4.0
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert abs(concurrence(rho) - expected) < 1e-8
        report(f"Werner concurrence (p={p})", f"matches max(0,(3p-1)/2)")


class TestDiagonalRuleOracle:
    def test_enumeration_and_renormalization_exact(self):
        rng = np.random.default_rng(99)
        for n in range(1, 7):
            energies = rng.uniform(1.0, 2.0, size=n)
            shifts = np.zeros((n, n))
            for l in range(n):
                for lp in range(l + 1, n):
                    shifts[l, lp] = shifts[lp, l] = rng.uniform(-5.0, 5.0)
            reg = ExcitonRegister(
                exciton_energies_ev=energies, shift_matrix_mev=shifts
            )
            diag = build_hamiltonian(reg)
            # literal transcription of the diagonal rule
            for idx in range(2**n):
                bits = [(idx >> l) & 1 for l in range(n)]
                value = 0.0
                for l in range(n):
                    if bits[l]:
                        value += energies[l]
                for l in range(n):
                    if not bits[l]:
                        continue
                    for lp in range(n):
                        if lp != l and bits[lp]:
                            value += 0.5 * (shifts[l, lp] * 1.0e-3)
                assert diag[idx] == value
                for l in range(n):
                    diff = diag[idx | (1 << l)] - diag[idx & ~(1 << l)]
                    assert renormalized_energy(reg, l, dict(enumerate(bits))) == diff
        report("diagonal-rule oracle", "exact for all registers up to N = 6")


class TestDeterminism:
    def test_repeated_simulate_runs_byte_identical(self, bell_run, tmp_path):
        cfg = REPO / "configs" / "bell_two_dot.cfg"
        rc, first = bell_run
        assert rc == 0
        second = tmp_path / "second"
        rc = main(["simulate", "--config", str(cfg), "--out-dir", str(second)])
        assert rc == 0
        outs = [first, second]
        for artifact in ("trajectory.csv", "sequence.csv", "metrics.txt"):
            a = (outs[0] / artifact).read_bytes()
            b = (outs[1] / artifact).read_bytes()
            assert a == b, f"{artifact} differs between identical runs"
        report("determinism", "repeated runs produce byte-identical artifacts")
