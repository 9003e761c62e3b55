import math

import numpy as np
import pytest

from excitonsim import units
from excitonsim.errors import CompileError, InvalidGateError, InvalidParameterError
from excitonsim.model import ExcitonRegister
from excitonsim.pulses import (
    GateSpec,
    Pulse,
    PulseSequence,
    TimingPolicy,
    compile_gate,
    compile_program,
    conditional_frequencies,
    conditional_frequency,
    field_at,
    ideal_gate_unitary,
    pulse_amplitude,
    required_tau_ps,
)

HBAR = units.HBAR_MEV_PS


@pytest.fixture
def register():
    return ExcitonRegister(
        exciton_energies_ev=np.array([1.70, 1.71]),
        shift_matrix_mev=np.array([[0.0, 4.5], [4.5, 0.0]]),
    )


class TestConditionalFrequency:
    def test_control_occupied(self, register):
        assert conditional_frequency(register, 1, {0: 1}) == pytest.approx(
            1.7145, abs=1e-12
        )

    def test_control_empty(self, register):
        assert conditional_frequency(register, 1, {0: 0}) == 1.71

    def test_empty_conditions_default_to_vacuum(self, register):
        assert conditional_frequency(register, 1) == conditional_frequency(
            register, 1, {0: 0}
        )

    def test_condition_on_target_rejected(self, register):
        with pytest.raises(InvalidGateError):
            conditional_frequency(register, 1, {1: 1})

    def test_branch_differences_equal_shift_entries(self, register):
        diff = conditional_frequency(register, 1, {0: 1}) - conditional_frequency(
            register, 1, {0: 0}
        )
        assert diff * 1000 == pytest.approx(
            register.shift_matrix_mev[1, 0], abs=1e-9
        )

    def test_all_branches_enumerated(self, register):
        freqs = conditional_frequencies(register, 1)
        assert freqs == pytest.approx([1.71, 1.7145], abs=1e-12)


class TestPulseAmplitude:
    def test_pi_pulse_peak_rabi(self):
        p = Pulse(carrier_energy_ev=1.71, center_ps=0.0, tau_ps=0.1, area_rad=math.pi)
        omega0 = pulse_amplitude(p, dipole=1.0)
        assert omega0 == pytest.approx(
            math.pi * HBAR / (0.1 * math.sqrt(2 * math.pi)), rel=1e-12
        )
        assert omega0 == pytest.approx(8.25, abs=0.01)

    def test_zero_area_zero_amplitude(self):
        p = Pulse(carrier_energy_ev=1.71, center_ps=0.0, tau_ps=0.1, area_rad=0.0)
        assert pulse_amplitude(p, dipole=1.0) == 0.0

    def test_doubling_tau_halves_amplitude(self):
        p1 = Pulse(1.71, 0.0, 0.1, math.pi)
        p2 = Pulse(1.71, 0.0, 0.2, math.pi)
        assert pulse_amplitude(p1, 1.0) == pytest.approx(
            2 * pulse_amplitude(p2, 1.0), rel=1e-12
        )

    def test_zero_dipole_rejected(self):
        p = Pulse(1.71, 0.0, 0.1, math.pi)
        with pytest.raises(InvalidParameterError):
            pulse_amplitude(p, 0.0)


class TestCompileGate:
    def test_cnot_single_pulse_at_shifted_carrier(self, register):
        spec = GateSpec(kind="cnot", target=1, conditions=((0, 1),))
        seq = compile_gate(register, spec)
        assert len(seq) == 1
        pulse = seq.pulses[0]
        assert pulse.carrier_energy_ev == pytest.approx(1.7145, abs=1e-12)
        assert pulse.area_rad == math.pi

    def test_unconditional_not_two_colors(self, register):
        spec = GateSpec(kind="unconditional-not", target=1)
        seq = compile_gate(register, spec)
        assert len(seq) == 2
        carriers = [p.carrier_energy_ev for p in seq.pulses]
        assert carriers == sorted(carriers)
        assert carriers == pytest.approx([1.71, 1.7145], abs=1e-12)
        assert all(p.area_rad == math.pi for p in seq.pulses)

    def test_rotation_half_pi(self, register):
        spec = GateSpec(kind="rotation", target=0, angle=math.pi / 2)
        seq = compile_gate(register, spec)
        assert len(seq) == 1
        assert seq.pulses[0].carrier_energy_ev == 1.70
        assert seq.pulses[0].area_rad == math.pi / 2

    def test_auto_duration_satisfies_budget(self, register):
        seq = compile_gate(register, GateSpec("cnot", 1, conditions=((0, 1),)))
        tau = seq.pulses[0].tau_ps
        # bandwidth proxy hbar/tau within a quarter of the 4.5 meV gap
        assert HBAR / tau <= 0.25 * 4.5 * (1 + 1e-9)
        assert tau == pytest.approx(HBAR / (0.25 * 4.5), rel=1e-12)

    def test_explicit_too_short_duration_rejected(self, register):
        policy = TimingPolicy(tau_ps=0.1)
        with pytest.raises(CompileError) as err:
            compile_gate(register, GateSpec("cnot", 1, conditions=((0, 1),)), policy)
        assert err.value.required_tau_ps == pytest.approx(
            HBAR / (0.25 * 4.5), rel=1e-9
        )

    def test_looser_fraction_admits_short_pulses(self, register):
        policy = TimingPolicy(tau_ps=0.1, selectivity_fraction=1.5)
        seq = compile_gate(register, GateSpec("cnot", 1, conditions=((0, 1),)), policy)
        assert seq.pulses[0].tau_ps == 0.1

    def test_isolated_dot_uses_fallback_duration(self):
        reg = ExcitonRegister(
            exciton_energies_ev=np.array([1.70, 1.71]),
            shift_matrix_mev=np.zeros((2, 2)),
        )
        seq = compile_gate(reg, GateSpec("rotation", 0, angle=math.pi))
        assert seq.pulses[0].tau_ps == TimingPolicy().fallback_tau_ps

    def test_pulses_never_overlap(self, register):
        seq = compile_gate(register, GateSpec("unconditional-not", target=1))
        centers = [p.center_ps for p in seq.pulses]
        tau = seq.pulses[0].tau_ps
        assert all(
            b - a >= 8 * tau * (1 - 1e-12) for a, b in zip(centers, centers[1:])
        )

    def test_too_many_coupled_neighbors_rejected(self):
        n = 6
        shifts = np.full((n, n), 1.0) - np.eye(n)
        reg = ExcitonRegister(
            exciton_energies_ev=np.linspace(1.6, 1.8, n),
            shift_matrix_mev=shifts,
        )
        with pytest.raises(CompileError):
            compile_gate(reg, GateSpec("unconditional-not", target=0))

    def test_gate_on_target_condition_rejected(self):
        with pytest.raises(InvalidGateError):
            GateSpec("conditional-rotation", target=1, conditions=((1, 1),))

    def test_angle_range_enforced(self):
        with pytest.raises(InvalidGateError):
            GateSpec("rotation", target=0, angle=-0.1)
        with pytest.raises(InvalidGateError):
            GateSpec("rotation", target=0, angle=2 * math.pi + 0.1)


class TestCompileProgram:
    def test_sequential_gates_auto_spacing(self, register):
        entries = [
            (GateSpec("rotation", 0, angle=math.pi / 2), None),
            (GateSpec("conditional-rotation", 1, angle=math.pi, conditions=((0, 1),)), None),
        ]
        seq = compile_program(register, entries)
        assert len(seq) == 2
        p1, p2 = seq.pulses
        assert p2.center_ps - p1.center_ps >= 8 * p1.tau_ps * (1 - 1e-12)

    def test_explicit_start_times_honored(self, register):
        policy = TimingPolicy(tau_ps=0.1, selectivity_fraction=2.0)
        entries = [
            (GateSpec("rotation", 0, angle=math.pi / 2), 0.2),
            (GateSpec("conditional-rotation", 1, angle=math.pi, conditions=((0, 1),)), 0.8),
        ]
        seq = compile_program(register, entries, policy)
        assert [p.center_ps for p in seq.pulses] == [0.2, 0.8]

    def test_compile_error_names_gate_index(self, register):
        entries = [
            (GateSpec("rotation", 0, angle=math.pi / 2), None),
            (GateSpec("cnot", 1, conditions=((0, 1),)), None),
        ]
        policy = TimingPolicy(tau_ps=0.1)
        with pytest.raises(CompileError, match="gate 1"):
            compile_program(register, entries, policy)


class TestFieldAt:
    def test_zero_outside_support(self, register):
        seq = compile_gate(register, GateSpec("cnot", 1, conditions=((0, 1),)))
        t = seq.end_ps + 1.0
        amps = field_at(seq, t, register.transition_dipoles)
        assert np.array_equal(amps, np.zeros(2))

    def test_lab_value_at_center(self):
        pulse = Pulse(1.7145, center_ps=1.0, tau_ps=0.2, area_rad=math.pi, phase_rad=0.0)
        seq = PulseSequence((pulse,))
        omega_opt = 1714.5 / HBAR
        expected = pulse_amplitude(pulse, 1.0) * math.cos(omega_opt * 1.0)
        got = field_at(seq, 1.0, [1.0], frame="lab")
        assert got[0] == pytest.approx(expected, rel=1e-12)

    def test_two_color_linearity(self, register):
        p1 = Pulse(1.71, 1.0, 0.2, math.pi, target_dipole=1)
        p2 = Pulse(1.7145, 1.5, 0.2, math.pi, target_dipole=1)
        both = PulseSequence((p1, p2))
        t = 1.2
        sum_parts = field_at(PulseSequence((p1,)), t, [1.0, 1.0]) + field_at(
            PulseSequence((p2,)), t, [1.0, 1.0]
        )
        assert np.allclose(field_at(both, t, [1.0, 1.0]), sum_parts, rtol=1e-12)

    def test_global_addressing_scales_by_dipole_ratio(self):
        pulse = Pulse(1.71, 0.0, 0.1, math.pi, target_dipole=0)
        seq = PulseSequence((pulse,))
        amps = field_at(
            seq, 0.0, [1.0, 0.5], frame="rotating", reference_energy_ev=1.71
        )
        assert amps[1] == pytest.approx(0.5 * amps[0], rel=1e-12)

    def test_local_addressing_drives_only_target(self):
        pulse = Pulse(1.71, 0.0, 0.1, math.pi, target_dipole=0)
        seq = PulseSequence((pulse,))
        amps = field_at(
            seq,
            0.0,
            [1.0, 1.0],
            frame="rotating",
            reference_energy_ev=1.71,
            addressing="local",
        )
        assert amps[0] != 0.0
        assert amps[1] == 0.0

    def test_rotating_needs_reference(self):
        pulse = Pulse(1.71, 0.0, 0.1, math.pi)
        with pytest.raises(InvalidParameterError):
            field_at(PulseSequence((pulse,)), 0.0, [1.0], frame="rotating")


class TestIdealUnitary:
    def test_cnot_truth_table(self, register):
        u = ideal_gate_unitary(register, GateSpec("cnot", 1, conditions=((0, 1),)))
        # qubit 0 least significant: |10> (index 1) -> |11> (index 3)
        vec = np.zeros(4)
        vec[1] = 1.0
        assert np.argmax(np.abs(u @ vec)) == 3
        vec = np.zeros(4)
        vec[0] = 1.0
        assert np.argmax(np.abs(u @ vec)) == 0

    def test_unitary(self, register):
        for spec in (
            GateSpec("rotation", 0, angle=1.1),
            GateSpec("cnot", 1, conditions=((0, 1),)),
            GateSpec("unconditional-not", 1),
        ):
            u = ideal_gate_unitary(register, spec)
            assert np.allclose(u @ u.T.conj(), np.eye(4), atol=1e-12)

    def test_rotation_addresses_empty_neighbor_branch(self, register):
        u = ideal_gate_unitary(register, GateSpec("rotation", 0, angle=math.pi))
        # with dot 1 occupied the carrier misses: no rotation there
        vec = np.zeros(4)
        vec[2] = 1.0  # |01>: dot 1 occupied
        assert np.allclose(u @ vec, vec)
        vec = np.zeros(4)
        vec[0] = 1.0
        assert np.argmax(np.abs(u @ vec)) == 1

    def test_rotation_inverse_composition(self, register):
        theta = 0.7
        u1 = ideal_gate_unitary(register, GateSpec("rotation", 0, angle=theta))
        u2 = ideal_gate_unitary(
            register, GateSpec("rotation", 0, angle=2 * math.pi - theta)
        )
        # R(2 pi - theta) R(theta) = R(2 pi) = -1 on the addressed branch,
        # which is the identity on density matrices
        prod = u2 @ u1
        assert np.allclose(np.abs(prod), np.eye(4), atol=1e-12)


class TestSequenceSpan:
    def test_span_covers_four_sigma(self):
        p = Pulse(1.71, center_ps=2.0, tau_ps=0.5, area_rad=1.0)
        seq = PulseSequence((p,))
        assert seq.start_ps == 0.0
        assert seq.end_ps == 4.0
        assert seq.total_span_ps == 4.0

    def test_empty_sequence(self):
        seq = PulseSequence(())
        assert seq.total_span_ps == 0.0


class TestNonFiniteParameters:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["carrier_energy_ev", "center_ps", "tau_ps", "area_rad", "phase_rad"]
    )
    def test_pulse_rejects_non_finite(self, field, bad):
        fields = dict(carrier_energy_ev=1.71, center_ps=0.0, tau_ps=0.1, area_rad=1.0)
        with pytest.raises(InvalidParameterError, match="finite"):
            Pulse(**{**fields, field: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["tau_ps", "selectivity_fraction", "fallback_tau_ps", "gap_factor"]
    )
    def test_timing_policy_rejects_non_finite(self, field, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            TimingPolicy(**{field: bad})
