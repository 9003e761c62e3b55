import math
from types import SimpleNamespace

import numpy as np
import pytest

from excitonsim import analysis
from excitonsim.analysis import (
    absorption_spectrum,
    bell_state,
    concurrence,
    default_fidelity_states,
    fidelity,
    gate_fidelity,
    spectrum_lines,
)
from excitonsim.dynamics import LindbladChannel, SimulationConfig, pure_state_density
from excitonsim.errors import (
    InvalidConditioningError,
    InvalidParameterError,
    UnsupportedDimensionError,
)
from excitonsim.model import ExcitonRegister
from excitonsim.pulses import (
    GateSpec,
    PulseSequence,
    compile_gate,
    ideal_gate_unitary,
)


def two_dot_register():
    return ExcitonRegister(
        exciton_energies_ev=np.array([1.70, 1.71]),
        shift_matrix_mev=np.array([[0.0, 4.5], [4.5, 0.0]]),
    )


@pytest.fixture
def register():
    return two_dot_register()


@pytest.fixture(scope="module")
def coherent_cnot():
    """The compiled CNOT on the two-dot register, its ideal unitary, the
    step it runs at, and its channel-free gate fidelity, computed once."""
    reg = two_dot_register()
    spec = GateSpec("cnot", 1, conditions=((0, 1),))
    seq = compile_gate(reg, spec)
    config = SimulationConfig(time_step_ps=1e-3)
    ideal = ideal_gate_unitary(reg, spec)
    fidelity = gate_fidelity(seq, reg, [], config, ideal)
    return SimpleNamespace(sequence=seq, config=config, ideal=ideal, fidelity=fidelity)


# the four channels of configs/decoherence_two_dot.cfg
DECOHERENCE_CHANNELS = [
    LindbladChannel("decay", 0, 0.002),
    LindbladChannel("decay", 1, 0.002),
    LindbladChannel("pure-dephasing", 0, 0.02),
    LindbladChannel("pure-dephasing", 1, 0.02),
]


def random_local_unitary(rng):
    """Haar-ish random SU(2) from a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


class TestFidelity:
    def test_pure_state_with_itself(self):
        psi = bell_state()
        assert fidelity(pure_state_density(psi), psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        phi = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        assert fidelity(pure_state_density(psi), phi) == 0.0

    def test_maximally_mixed_vs_pure(self):
        rho = np.eye(4, dtype=complex) / 4.0
        assert fidelity(rho, bell_state()) == pytest.approx(0.25, abs=1e-12)

    def test_global_phase_invariance(self):
        psi = bell_state()
        rho = pure_state_density(psi)
        assert fidelity(rho, np.exp(1j * 0.7) * psi) == pytest.approx(
            fidelity(rho, psi), abs=1e-12
        )

    def test_unnormalized_target_rejected(self):
        with pytest.raises(InvalidParameterError):
            fidelity(pure_state_density(bell_state()), np.ones(4))


class TestConcurrence:
    def test_bell_state_is_maximal(self):
        assert concurrence(pure_state_density(bell_state())) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_product_state_is_zero(self):
        single = np.array([0.6, 0.8], dtype=complex)
        psi = np.kron(single, single)
        assert concurrence(pure_state_density(psi)) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("p", [0.0, 0.4, 0.8, 1.0])
    def test_werner_states(self, p):
        rho = p * pure_state_density(bell_state()) + (1 - p) * np.eye(4) / 4.0
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence(rho) == pytest.approx(expected, abs=1e-8)

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(17)
        rho = pure_state_density(bell_state())
        rho = 0.85 * rho + 0.15 * np.eye(4) / 4.0
        base = concurrence(rho)
        for _ in range(10):
            u = np.kron(random_local_unitary(rng), random_local_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert concurrence(rotated) == pytest.approx(base, abs=1e-8)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(UnsupportedDimensionError):
            concurrence(np.eye(2) / 2.0)


class TestSpectra:
    def test_excitonic_line_positions(self, register):
        lines = spectrum_lines(register, "excitonic")
        assert [line.energy_ev for line in lines] == [1.70, 1.71]

    def test_biexcitonic_default_conditioning(self, register):
        lines = spectrum_lines(register, "biexcitonic")
        positions = sorted(line.energy_ev for line in lines)
        assert positions == pytest.approx([1.7045, 1.7145], abs=1e-12)

    def test_biexcitonic_offset_equals_shift_exactly(self, register):
        exc = {line.dot: line.energy_ev for line in spectrum_lines(register, "excitonic")}
        for line in spectrum_lines(register, "biexcitonic"):
            offset_mev = (line.energy_ev - exc[line.dot]) * 1000.0
            assert offset_mev == pytest.approx(
                register.shift_matrix_mev[line.dot, line.conditioning[0][0]],
                abs=1e-9,
            )

    def test_zero_shift_degenerate_spectra(self):
        reg = ExcitonRegister(
            exciton_energies_ev=np.array([1.70, 1.71]),
            shift_matrix_mev=np.zeros((2, 2)),
        )
        exc = sorted(l.energy_ev for l in spectrum_lines(reg, "excitonic"))
        bi = sorted(l.energy_ev for l in spectrum_lines(reg, "biexcitonic"))
        assert bi == pytest.approx(exc, abs=1e-12)

    def test_conditioning_on_emitting_dot_rejected(self, register):
        # a pattern occupying every dot leaves none to emit
        with pytest.raises(InvalidConditioningError) as err:
            spectrum_lines(register, "biexcitonic", [{0: 1, 1: 1}])
        assert err.value.dot == 0
        assert str(err.value) == "conditioning occupies the emitting dot a"

    def test_explicit_conditioning_emits_unoccupied(self, register):
        lines = spectrum_lines(register, "biexcitonic", [{0: 1}])
        assert len(lines) == 1
        assert lines[0].dot == 1
        assert lines[0].energy_ev == pytest.approx(1.7145, abs=1e-12)

    def test_broadened_spectrum_integrates_to_line_count(self, register):
        spec = absorption_spectrum(register, "excitonic", linewidth_mev=0.5)
        weight = np.trapezoid(spec.intensity, spec.energies_ev)
        assert weight == pytest.approx(2.0, rel=0.01)
        assert np.all(spec.intensity >= 0)

    def test_peaks_sit_on_line_positions(self, register):
        spec = absorption_spectrum(register, "biexcitonic", linewidth_mev=0.2)
        grid_step = spec.energies_ev[1] - spec.energies_ev[0]
        for line in spec.lines:
            window = np.abs(spec.energies_ev - line.energy_ev) < 5 * 0.2e-3
            local = np.where(window)[0]
            peak = local[np.argmax(spec.intensity[local])]
            assert abs(spec.energies_ev[peak] - line.energy_ev) <= grid_step


class TestGateFidelity:
    def test_state_set_size(self, register):
        states = default_fidelity_states(2)
        assert len(states) == 8
        for v in states:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_identity_sequence_scores_one(self, register):
        config = SimulationConfig(time_step_ps=1e-3, duration_ps=0.5)
        f = gate_fidelity(
            PulseSequence(()), register, [], config, np.eye(4)
        )
        assert f == pytest.approx(1.0, abs=1e-9)

    def test_compiled_cnot_high_fidelity(self, coherent_cnot):
        f = coherent_cnot.fidelity
        assert f >= 0.95

    def test_dephasing_degrades_fidelity(self, register, coherent_cnot):
        clean = coherent_cnot.fidelity
        noisy = gate_fidelity(
            coherent_cnot.sequence,
            register,
            [LindbladChannel("pure-dephasing", 0, 10.0),
             LindbladChannel("pure-dephasing", 1, 10.0)],
            coherent_cnot.config,
            coherent_cnot.ideal,
        )
        assert noisy < clean

    def test_rotation_and_inverse_compose_to_identity(self):
        # single isolated qubit: R(theta) then R(2 pi - theta) is a global
        # phase, the identity channel on density matrices
        reg = ExcitonRegister(
            exciton_energies_ev=np.array([1.70]),
            shift_matrix_mev=np.zeros((1, 1)),
        )
        theta = 0.9
        seq = compile_gate(reg, GateSpec("rotation", 0, angle=theta))
        inverse = compile_gate(
            reg,
            GateSpec("rotation", 0, angle=2 * math.pi - theta),
            start_ps=seq.pulses[-1].center_ps + 8 * seq.pulses[-1].tau_ps,
        )
        both = PulseSequence(seq.pulses + inverse.pulses)
        config = SimulationConfig(time_step_ps=1e-3)
        f = gate_fidelity(both, reg, [], config, np.eye(2))
        assert f == pytest.approx(1.0, abs=1e-6)

    def test_non_unitary_ideal_rejected_before_propagation(self, register, monkeypatch):
        # unit columns, but columns 1 and 2 overlap by 1/sqrt2
        ideal = np.eye(4, dtype=complex)
        ideal[1, 2] = ideal[2, 2] = 1.0 / math.sqrt(2.0)

        def no_propagation(*args, **kwargs):
            raise AssertionError("propagate called")

        monkeypatch.setattr(analysis, "propagate", no_propagation)
        config = SimulationConfig(time_step_ps=1e-3, duration_ps=0.01)
        with pytest.raises(InvalidParameterError, match="not unitary"):
            gate_fidelity(PulseSequence(()), register, [], config, ideal)


class TestStackedGateFidelity:
    """gate_fidelity propagates its reference states as one stack; the
    per-state loop of the gate_fidelity_reference oracle must give the same
    float."""

    def test_coherent_cnot(self, register, coherent_cnot, gate_fidelity_reference):
        reference = gate_fidelity_reference(
            coherent_cnot.sequence, register, [], coherent_cnot.config, coherent_cnot.ideal
        )
        assert coherent_cnot.fidelity == reference

    def test_cnot_with_decoherence_channels(self, register, coherent_cnot,
                                            gate_fidelity_reference):
        # at a step five times the fixture's to keep the oracle's eight
        # runs short
        args = (coherent_cnot.sequence, register, DECOHERENCE_CHANNELS,
                SimulationConfig(time_step_ps=5e-3), coherent_cnot.ideal)
        assert gate_fidelity(*args) == gate_fidelity_reference(*args)

    def test_samples_do_not_change_the_fidelity(self, register, coherent_cnot, monkeypatch):
        # gate_fidelity reads only the final states, so its propagation
        # samples the first and the final step alone, whatever the stride
        trajectories = []
        propagate = analysis.propagate

        def recording_propagate(*args, **kwargs):
            trajectories.append(propagate(*args, **kwargs))
            return trajectories[-1]

        monkeypatch.setattr(analysis, "propagate", recording_propagate)
        values = {
            gate_fidelity(coherent_cnot.sequence, register, DECOHERENCE_CHANNELS,
                          SimulationConfig(time_step_ps=5e-3, sample_stride=stride),
                          coherent_cnot.ideal)
            for stride in (1, 10, 10**6)
        }
        assert len(values) == 1
        assert len(trajectories) == 3
        for traj in trajectories:
            assert traj.n_steps > 2
            assert traj.times_ps.tolist() == [traj.times_ps[0], traj.final_time_ps]
            assert traj.populations.shape == (2, 8, 4)

    def test_one_dot_rotation(self, gate_fidelity_reference):
        reg = ExcitonRegister(
            exciton_energies_ev=np.array([1.70]),
            shift_matrix_mev=np.zeros((1, 1)),
        )
        spec = GateSpec("rotation", 0, angle=0.9)
        args = (compile_gate(reg, spec), reg, [], SimulationConfig(time_step_ps=1e-3),
                ideal_gate_unitary(reg, spec))
        assert gate_fidelity(*args) == gate_fidelity_reference(*args)

    def test_three_dot_conditional_rotation_with_decay(self, gate_fidelity_reference):
        reg = ExcitonRegister(
            exciton_energies_ev=np.array([1.70, 1.71, 1.72]),
            shift_matrix_mev=np.array([[0.0, 4.5, 0.0], [4.5, 0.0, 9.0], [0.0, 9.0, 0.0]]),
        )
        spec = GateSpec("conditional-rotation", 1, conditions=((0, 1), (2, 0)))
        assert len(default_fidelity_states(3)) == 14
        args = (compile_gate(reg, spec), reg, [LindbladChannel("decay", 1, 0.05)],
                SimulationConfig(time_step_ps=0.005), ideal_gate_unitary(reg, spec))
        assert gate_fidelity(*args) == gate_fidelity_reference(*args)
