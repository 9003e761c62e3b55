import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from excitonsim import units
from excitonsim.dynamics import (
    LindbladChannel,
    SimulationConfig,
    basis_state_density,
    build_dissipator,
    channel_operator,
    default_reference_energy,
    expectation,
    integrate_master_equation,
    liouvillian_apply,
    propagate,
    pure_state_density,
    purity,
    to_interaction_picture,
    validate_density_matrix,
)
from excitonsim.errors import (
    InvalidParameterError,
    NumericalConsistencyError,
    PropagationDiagnosticsError,
)
from excitonsim.model import ExcitonRegister, occupation_number_operator
from excitonsim.pulses import GateSpec, Pulse, PulseSequence, TimingPolicy, compile_gate

HBAR = units.HBAR_MEV_PS


def single_dot_register(energy_ev=1.70):
    return ExcitonRegister(
        exciton_energies_ev=np.array([energy_ev]),
        shift_matrix_mev=np.zeros((1, 1)),
    )


def two_dot_register():
    return ExcitonRegister(
        exciton_energies_ev=np.array([1.70, 1.71]),
        shift_matrix_mev=np.array([[0.0, 4.5], [4.5, 0.0]]),
    )


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestValidation:
    def test_valid_state_passes(self):
        validate_density_matrix(basis_state_density(2, 0))

    def test_non_hermitian_rejected(self):
        rho = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(InvalidParameterError):
            validate_density_matrix(rho)

    def test_wrong_trace_rejected(self):
        with pytest.raises(InvalidParameterError):
            validate_density_matrix(np.eye(2, dtype=complex))

    def test_unnormalized_vector_rejected(self):
        with pytest.raises(InvalidParameterError):
            pure_state_density([1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        ["time_step_ps", "trace_tol", "eig_floor", "reference_energy_ev", "duration_ps"],
    )
    def test_simulation_config_rejects_non_finite(self, field, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            SimulationConfig(**{field: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_channel_rejects_non_finite_or_negative_rate(self, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            LindbladChannel("decay", 0, bad)


def dense_drive_generator(rho, h0, amps):
    """-(i/hbar)[H, rho] for H = diag(h0) - sum_l (f_l sp_l + conj(f_l) sp_l^+),
    each sigma+_l = sp_l a dense matrix built from the basis-index bits."""
    dim = h0.size
    h = np.diag(h0).astype(complex)
    for l, f_l in enumerate(amps):
        sp = np.zeros((dim, dim))
        for idx in range(dim):
            if not (idx >> l) & 1:
                sp[idx | (1 << l), idx] = 1.0
        if f_l != 0.0:
            h -= f_l * sp + np.conj(f_l) * sp.T.conj()
    return (-1j / HBAR) * (h @ rho - rho @ h)


AMPLITUDE = st.floats(-50.0, 50.0)


@st.composite
def drive_cases(draw):
    """(rho, h0, amps): N in 1..6, lab-frame real or rotating-frame complex f_l."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        amps = np.array(draw(st.lists(AMPLITUDE, min_size=n, max_size=n)))
    else:
        parts = draw(st.lists(st.tuples(AMPLITUDE, AMPLITUDE), min_size=n, max_size=n))
        amps = np.array([complex(re, im) for re, im in parts])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 2**n
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return rho, rng.normal(scale=100.0, size=dim), amps


def dense_dissipator(register, rho, channels):
    """sum_k (L_k rho L_k+ - 1/2 {L_k+ L_k, rho}) from the dense jump operators."""
    out = np.zeros_like(rho)
    for ch in channels:
        lk = channel_operator(register, ch)
        lk_dag_lk = lk.T.conj() @ lk
        out += lk @ rho @ lk.T.conj() - 0.5 * (lk_dag_lk @ rho + rho @ lk_dag_lk)
    return out


RATE = st.one_of(st.just(0.0), st.floats(0.0, 10.0))


@st.composite
def channel_cases(draw):
    """(n, rho, channels): N in 1..6, a random complex rho, and a shuffled
    channel list holding both kinds on one dot plus further channels, so that
    dots carry several channels and some rates are 0."""
    n = draw(st.integers(1, 6))
    dot = st.integers(0, n - 1)
    shared = draw(dot)
    channels = [
        LindbladChannel("decay", shared, draw(RATE)),
        LindbladChannel("pure-dephasing", shared, draw(RATE)),
    ]
    kind = st.sampled_from(["decay", "pure-dephasing"])
    channels += draw(st.lists(st.builds(LindbladChannel, kind, dot, RATE), max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 2**n
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return n, rho, draw(st.permutations(channels))


class TestLiouvillian:
    @given(drive_cases())
    @settings(max_examples=150, deadline=None)
    def test_written_drive_equals_dense_sigma_sum(self, case):
        rho, h0, amps = case
        out = liouvillian_apply(rho, 0.3, h0, lambda t: amps, [])
        assert np.array_equal(out, dense_drive_generator(rho, h0, amps))

    def test_diagonal_state_is_stationary_without_drive(self):
        h0 = np.array([0.0, 1700.0, 1710.0, 3414.5])
        rho = basis_state_density(2, 1)
        out = liouvillian_apply(rho, 0.0, h0, None, [])
        assert np.max(np.abs(out)) == 0.0

    def test_decay_rate_on_population(self):
        reg = single_dot_register()
        t1 = 2.0
        channels = [LindbladChannel("decay", 0, 1.0 / t1)]
        rho = basis_state_density(1, 1)
        out = liouvillian_apply(
            rho, 0.0, np.zeros(2), None, build_dissipator(channels, reg.n_qubits)
        )
        assert out[1, 1].real == pytest.approx(-1.0 / t1, rel=1e-12)
        assert out[0, 0].real == pytest.approx(1.0 / t1, rel=1e-12)

    def test_pure_dephasing_touches_only_coherences(self):
        reg = single_dot_register()
        gamma = 0.37
        channels = [LindbladChannel("pure-dephasing", 0, gamma)]
        rho = pure_state_density(np.array([1.0, 1.0]) / math.sqrt(2))
        out = liouvillian_apply(
            rho, 0.0, np.zeros(2), None, build_dissipator(channels, reg.n_qubits)
        )
        assert out[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert out[1, 1] == pytest.approx(0.0, abs=1e-15)
        assert out[0, 1] == pytest.approx(-gamma * rho[0, 1], rel=1e-12)


    @given(channel_cases())
    @settings(max_examples=150, deadline=None)
    def test_dissipator_equals_dense_lindblad_sum(self, case):
        n, rho, channels = case
        reg = ExcitonRegister(np.full(n, 1.7), np.zeros((n, n)))
        dissipator = build_dissipator(channels, n)
        out = liouvillian_apply(rho, 0.0, np.zeros(2**n), None, dissipator)
        bound = 1e-13 * np.abs(rho).max() * sum(ch.rate_per_ps for ch in channels)
        assert np.max(np.abs(out - dense_dissipator(reg, rho, channels))) <= bound


class TestAnalyticChannels:
    def test_amplitude_damping_solution(self):
        # rho11(t) = exp(-t/T1) within 1e-6 relative over five lifetimes
        reg = single_dot_register()
        t1 = 2.0
        config = SimulationConfig(time_step_ps=0.005, duration_ps=5 * t1)
        traj = propagate(
            basis_state_density(1, 1),
            PulseSequence(()),
            reg,
            channels=[LindbladChannel("decay", 0, 1.0 / t1)],
            config=config,
        )
        expected = np.exp(-traj.times_ps / t1)
        rel = np.abs(traj.populations[:, 1] - expected) / expected
        assert rel.max() < 1e-6

    def test_pure_dephasing_solution(self):
        reg = single_dot_register()
        gamma = 0.5
        plus = pure_state_density(np.array([1.0, 1.0]) / math.sqrt(2))
        config = SimulationConfig(
            time_step_ps=0.005, duration_ps=10.0, reference_energy_ev=1.70
        )
        traj = propagate(
            plus,
            PulseSequence(()),
            reg,
            channels=[LindbladChannel("pure-dephasing", 0, gamma)],
            config=config,
        )
        # populations untouched, coherence decays at gamma
        assert np.allclose(traj.populations, 0.5, atol=1e-9)
        expected = 0.5 * np.exp(-gamma * traj.times_ps)
        rel = np.abs(np.abs(traj.coherences) - expected) / expected
        assert rel.max() < 1e-6

    def test_decay_rate_zero_is_inert(self):
        reg = single_dot_register()
        config = SimulationConfig(time_step_ps=0.01, duration_ps=1.0)
        traj = propagate(
            basis_state_density(1, 1),
            PulseSequence(()),
            reg,
            channels=[LindbladChannel("decay", 0, 0.0)],
            config=config,
        )
        assert traj.populations[-1, 1] == pytest.approx(1.0, abs=1e-12)


class TestMatrixExponentialOracle:
    def test_drive_free_evolution_matches_expm(self):
        rng = np.random.default_rng(5)
        rho0 = random_density(rng, 4)
        h0 = np.array([0.0, 0.0, 10.0, 14.5])  # rotating-frame diagonal, meV
        config = SimulationConfig(time_step_ps=5e-4, duration_ps=2.0)
        traj = integrate_master_equation(
            rho0, h0, None, [], 0.0, 2.0, config
        )
        u = expm(-1j * np.diag(h0) * 2.0 / HBAR)
        expected = u @ rho0 @ u.conj().T
        assert np.max(np.abs(traj.final_state - expected)) < 1e-8

    def test_empty_sequence_is_identity(self):
        reg = two_dot_register()
        rho0 = basis_state_density(2, 0)
        config = SimulationConfig(time_step_ps=1e-3, duration_ps=1.0)
        traj = propagate(rho0, PulseSequence(()), reg, config=config)
        assert np.max(np.abs(traj.final_state - rho0)) < 1e-10
        assert np.allclose(traj.populations, traj.populations[0], atol=1e-12)


class TestResonantAreaLaw:
    @pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 2, math.pi])
    def test_final_population_sin_squared(self, theta):
        reg = single_dot_register()
        pulse = Pulse(
            carrier_energy_ev=1.70,
            center_ps=0.5,
            tau_ps=0.1,
            area_rad=theta,
        )
        config = SimulationConfig(time_step_ps=1e-3, store_states=True)
        traj = propagate(basis_state_density(1, 0), PulseSequence((pulse,)), reg, config=config)
        assert traj.populations[-1, 1] == pytest.approx(
            math.sin(theta / 2.0) ** 2, abs=1e-4
        )
        # unitary run: trace and purity conserved
        assert traj.max_trace_drift < 1e-9
        purities = [purity(s) for s in traj.states]
        assert max(abs(p - purities[0]) for p in purities) < 1e-8


class TestThreeQubitRegister:
    def test_resonant_flip_of_middle_dot(self):
        reg = ExcitonRegister(
            exciton_energies_ev=np.array([1.69, 1.70, 1.71]),
            shift_matrix_mev=np.zeros((3, 3)),
        )
        pulse = Pulse(
            carrier_energy_ev=1.70, center_ps=2.0, tau_ps=0.5,
            area_rad=math.pi, target_dipole=1,
        )
        config = SimulationConfig(time_step_ps=1e-3, reference_energy_ev=1.70)
        traj = propagate(
            basis_state_density(3, 0), PulseSequence((pulse,)), reg, config=config
        )
        assert traj.occupations[-1] == pytest.approx([0.0, 1.0, 0.0], abs=1e-4)


class TestDetunedRabi:
    def test_generalized_rabi_formula(self):
        # constant drive, detuning Delta: P1(t) = Omega^2/(Omega^2+Delta^2)
        #   * sin^2(sqrt(Omega^2+Delta^2) t / 2 hbar)
        omega, delta = 2.0, 1.5  # meV
        h0 = np.array([0.0, delta])
        config = SimulationConfig(time_step_ps=1e-3, sample_stride=50)
        traj = integrate_master_equation(
            basis_state_density(1, 0),
            h0,
            lambda t: np.array([0.5 * omega], dtype=complex),
            [],
            0.0,
            3.0,
            config,
        )
        og = math.hypot(omega, delta)
        expected = (omega / og) ** 2 * np.sin(og * traj.times_ps / (2 * HBAR)) ** 2
        assert np.max(np.abs(traj.populations[:, 1] - expected)) < 1e-4


class TestFrames:
    def test_lab_and_rotating_agree_on_populations(self):
        # ultrafast two-color sequence, both frames, same physics
        reg = two_dot_register()
        policy = TimingPolicy(tau_ps=0.1, selectivity_fraction=2.0)
        seq = compile_gate(
            reg, GateSpec("cnot", 1, conditions=((0, 1),)), policy
        )
        rho0 = basis_state_density(2, 0)
        rot = propagate(
            rho0, seq, reg, config=SimulationConfig(time_step_ps=2e-4)
        )
        # lab-frame integration carries O(1e-5) eigenvalue truncation noise
        # from the optical carrier even at the smallest practical steps, so
        # the positivity floor is relaxed for this validation run
        lab = propagate(
            rho0,
            seq,
            reg,
            config=SimulationConfig(time_step_ps=2e-5, frame="lab", eig_floor=-1e-3),
        )
        assert np.max(np.abs(rot.populations[-1] - lab.populations[-1])) < 1e-2

    def test_lab_frame_step_limit_enforced(self):
        reg = two_dot_register()
        seq = compile_gate(reg, GateSpec("cnot", 1, conditions=((0, 1),)))
        with pytest.raises(InvalidParameterError):
            propagate(
                basis_state_density(2, 0),
                seq,
                reg,
                config=SimulationConfig(time_step_ps=1e-3, frame="lab"),
            )

    def test_rotating_frame_step_vs_pulse_duration(self):
        reg = two_dot_register()
        policy = TimingPolicy(tau_ps=0.1, selectivity_fraction=2.0)
        seq = compile_gate(reg, GateSpec("cnot", 1, conditions=((0, 1),)), policy)
        with pytest.raises(InvalidParameterError):
            propagate(
                basis_state_density(2, 0),
                seq,
                reg,
                config=SimulationConfig(time_step_ps=0.01),
            )

    def test_default_reference_is_first_pulse_target(self):
        reg = two_dot_register()
        seq = compile_gate(reg, GateSpec("cnot", 1, conditions=((0, 1),)))
        assert default_reference_energy(seq, reg) == 1.71
        assert default_reference_energy(PulseSequence(()), reg) == 1.70

    def test_interaction_picture_removes_free_phases(self):
        rng = np.random.default_rng(3)
        rho0 = random_density(rng, 4)
        h0 = np.array([0.0, 3.0, 7.0, 11.5])
        config = SimulationConfig(time_step_ps=5e-4)
        traj = integrate_master_equation(rho0, h0, None, [], 0.0, 1.5, config)
        rho_int = traj.final_state_interaction_picture()
        assert np.max(np.abs(rho_int - rho0)) < 1e-8


class TestIndependentIntegrator:
    def test_broadband_protocol_matches_adaptive_solver(self, adaptive_reference):
        # cross-check the fixed-step propagator against scipy's adaptive
        # RK45 on the 0.1 ps two-color sequence, where the outcome (large
        # off-branch leakage) is physically surprising enough to deserve
        # two independent routes; the whole density matrix is compared,
        # since gate fidelities rest on its coherences, not only on the
        # populations
        reg = two_dot_register()
        seq = PulseSequence(
            (
                Pulse(1.70, 0.2, 0.1, math.pi / 2, target_dipole=0),
                Pulse(1.7145, 0.8, 0.1, math.pi, target_dipole=1),
            )
        )
        config = SimulationConfig(time_step_ps=2e-4, reference_energy_ev=1.70)
        rho0 = basis_state_density(2, 0)
        traj = propagate(rho0, seq, reg, config=config)
        rho_ref = adaptive_reference(
            reg, seq, rho0, traj.times_ps[0], traj.final_time_ps, 1.70
        )
        assert np.max(np.abs(rho_ref - traj.final_state)) < 1e-6
        assert np.max(np.abs(np.diag(rho_ref).real - traj.populations[-1])) < 1e-6


class TestDiagnostics:
    def test_unstable_integration_raises_with_step_index(self):
        reg = single_dot_register()
        config = SimulationConfig(time_step_ps=0.05, duration_ps=5.0)
        with pytest.raises(PropagationDiagnosticsError) as err:
            propagate(
                basis_state_density(1, 1),
                PulseSequence(()),
                reg,
                channels=[LindbladChannel("decay", 0, 100.0)],
                config=config,
            )
        assert err.value.step >= 1

    def test_invalid_channel_parameters(self):
        with pytest.raises(InvalidParameterError):
            LindbladChannel("decay", 0, -1.0)
        with pytest.raises(InvalidParameterError):
            LindbladChannel("thermal", 0, 1.0)


class TestExpectation:
    def test_occupation_on_basis_state(self):
        reg = two_dot_register()
        n0 = occupation_number_operator(reg, 0)
        assert expectation(n0, basis_state_density(2, 1)) == 1.0

    def test_occupation_on_maximally_mixed(self):
        reg = two_dot_register()
        n1 = occupation_number_operator(reg, 1)
        rho = np.eye(4, dtype=complex) / 4.0
        assert expectation(n1, rho) == pytest.approx(0.5, rel=1e-12)

    def test_identity_gives_trace(self):
        rho = basis_state_density(2, 3)
        assert expectation(np.eye(4), rho) == pytest.approx(1.0, rel=1e-12)

    def test_imaginary_residue_rejected(self):
        rho = basis_state_density(1, 0)
        op = 1j * np.eye(2)
        with pytest.raises(NumericalConsistencyError):
            expectation(op, rho)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            expectation(np.eye(2), basis_state_density(2, 0))
