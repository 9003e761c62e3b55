import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from excitonsim import units
from excitonsim.errors import (
    CompileError,
    InvalidGateError,
    InvalidParameterError,
    ZeroDipoleError,
)
from excitonsim.model import ExcitonRegister, bit_table, renormalized_energy
from excitonsim.pulses import (
    ENVELOPE_CUTOFF,
    GATE_KINDS,
    SAME_BRANCH_MEV,
    GateSpec,
    Pulse,
    PulseSequence,
    TimingPolicy,
    compile_gate,
    compile_program,
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
        assert renormalized_energy(register, 1, {0: 1}) == pytest.approx(
            1.7145, abs=1e-12
        )

    def test_control_empty(self, register):
        assert renormalized_energy(register, 1, {0: 0}) == 1.71

    def test_empty_conditions_default_to_vacuum(self, register):
        assert renormalized_energy(register, 1) == renormalized_energy(
            register, 1, {0: 0}
        )

    def test_branch_differences_equal_shift_entries(self, register):
        diff = renormalized_energy(register, 1, {0: 1}) - renormalized_energy(
            register, 1, {0: 0}
        )
        assert diff * 1000 == pytest.approx(
            register.shift_matrix_mev[1, 0], abs=1e-9
        )

    def test_all_branches_enumerated(self, register):
        seq = compile_gate(register, GateSpec("unconditional-not", 1))
        freqs = [p.carrier_energy_ev for p in seq]
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

    def test_condition_on_uncoupled_dot_rejected(self):
        # dot a does not shift dot b: a pulse at b's one frequency flips b
        # whatever a holds, so "b when a:1" has no finite duration.  The a:1
        # energy (1.70 + 1.71) - 1.70 rounds to 1.7100000000000002, one
        # branch with the bare 1.71.
        reg = ExcitonRegister(
            exciton_energies_ev=np.array([1.70, 1.71]),
            shift_matrix_mev=np.zeros((2, 2)),
        )
        assert renormalized_energy(reg, 1, {0: 1}) != 1.71
        for spec in (
            GateSpec("cnot", 1, conditions=((0, 1),)),
            GateSpec("conditional-rotation", 1, math.pi, ((0, 0),)),
        ):
            for policy in (TimingPolicy(), TimingPolicy(tau_ps=1e6)):
                with pytest.raises(CompileError, match="same transition energy") as err:
                    compile_gate(reg, spec, policy)
                assert err.value.required_tau_ps == math.inf
        # the unconditioned gates need no selectivity
        for spec in (GateSpec("rotation", 1), GateSpec("unconditional-not", 1)):
            seq = compile_gate(reg, spec)
            assert [p.tau_ps for p in seq] == [TimingPolicy().fallback_tau_ps]

    def test_equal_shift_chain_keeps_the_physical_gap(self):
        # the middle dot's a:1 and c:1 branches are one frequency, split by
        # rounding into 1.7145 and 1.7145000000000004 eV
        shifts = np.array([[0.0, 4.5, 0.0], [4.5, 0.0, 4.5], [0.0, 4.5, 0.0]])
        reg = ExcitonRegister(np.array([1.70, 1.71, 1.72]), shifts)
        spec = GateSpec("conditional-rotation", 1, math.pi, ((0, 1), (2, 1)))
        tau = compile_gate(reg, spec).pulses[0].tau_ps
        assert tau == pytest.approx(HBAR / (0.25 * 4.5), rel=1e-12)
        assert tau == pytest.approx(0.585, abs=1e-3)
        # a:1 with c empty shares its energy with a:0, c:1, which the gate
        # must leave alone: no pulse selects one of the two
        for conditions in (((0, 1),), ((0, 1), (2, 0)), ((0, 0), (2, 1))):
            spec = GateSpec("conditional-rotation", 1, math.pi, conditions)
            with pytest.raises(CompileError, match="same transition energy") as err:
                compile_gate(reg, spec)
            assert err.value.required_tau_ps == math.inf
        # unconditional-not rotates every pattern: one pi pulse per branch,
        # not two on the shared one (a 2 pi rotation there)
        seq = compile_gate(reg, GateSpec("unconditional-not", 1))
        assert [p.carrier_energy_ev for p in seq] == pytest.approx(
            [1.71, 1.7145, 1.719], abs=1e-12
        )
        assert len({p.tau_ps for p in seq}) == 1
        assert seq.pulses[0].tau_ps == pytest.approx(HBAR / (0.25 * 4.5), rel=1e-12)

    def test_shared_branch_error_names_patterns_in_config_notation(self):
        chain = np.array([[0.0, 4.5, 0.0], [4.5, 0.0, 4.5], [0.0, 4.5, 0.0]])
        reg = ExcitonRegister(np.array([1.70, 1.71, 1.72]), chain)
        spec = GateSpec("conditional-rotation", 1, math.pi, ((0, 1), (2, 0)))
        with pytest.raises(
            CompileError, match="^dot b has the same transition energy with a:0,c:1 as with a:1,c:0,"
        ):
            compile_gate(reg, spec)
        # only c shifts b here, so a:1 shares a:0's branch; both patterns
        # are printed in ascending dot order
        bc_only = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 4.5], [0.0, 4.5, 0.0]])
        reg = ExcitonRegister(np.array([1.70, 1.71, 1.72]), bc_only)
        spec = GateSpec("conditional-rotation", 1, math.pi, ((0, 1),))
        with pytest.raises(CompileError, match="with a:0,c:0 as with a:1,c:0,"):
            compile_gate(reg, spec)

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
        with pytest.raises(CompileError, match=r"^unconditional-not on dot a would need 2\^5 colors"):
            compile_gate(reg, GateSpec("unconditional-not", target=0))

    def test_too_short_duration_names_the_dot(self, register):
        spec = GateSpec("cnot", 1, conditions=((0, 1),))
        with pytest.raises(CompileError, match=r"resolve the conditional frequencies of dot b \(required"):
            compile_gate(register, spec, TimingPolicy(tau_ps=0.01))

    def test_duplicate_condition_names_the_dot(self):
        with pytest.raises(InvalidGateError, match="^duplicate condition on dot a$"):
            GateSpec("conditional-rotation", target=1, conditions=((0, 1), (0, 0)))

    def test_gate_on_target_condition_rejected(self):
        with pytest.raises(InvalidGateError):
            GateSpec("conditional-rotation", target=1, conditions=((1, 1),))

    def test_angle_range_enforced(self):
        with pytest.raises(InvalidGateError):
            GateSpec("rotation", target=0, angle=-0.1)
        with pytest.raises(InvalidGateError):
            GateSpec("rotation", target=0, angle=2 * math.pi + 0.1)

    @pytest.mark.parametrize("kind", ["rotation", "cnot", "unconditional-not"])
    def test_zero_dipole_target_rejected(self, kind):
        reg = ExcitonRegister(
            exciton_energies_ev=np.array([1.70, 1.71]),
            shift_matrix_mev=np.array([[0.0, 4.5], [4.5, 0.0]]),
            transition_dipoles=np.array([0.0, 1.0]),
        )
        spec = GateSpec(kind, 0, conditions=((1, 1),) if kind == "cnot" else ())
        with pytest.raises(ZeroDipoleError) as err:
            compile_gate(reg, spec)
        assert err.value.dot == 0
        program = [(GateSpec("rotation", 1), None), (spec, None)]
        with pytest.raises(CompileError, match="gate 2: dot a has zero transition"):
            compile_program(reg, program)
        assert len(compile_gate(reg, GateSpec("rotation", 1))) == 1


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


@st.composite
def drive_cases(draw):
    """(sequence, dipoles, reference energy, times): up to four pulses whose
    supports overlap or not, non-unit dipoles, and times at the centres, at
    c +- 4 tau exactly, inside the supports and outside every one."""
    n = draw(st.integers(1, 4))
    dipoles = draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n))
    pulses = draw(st.lists(
        st.builds(
            Pulse,
            carrier_energy_ev=st.floats(1.68, 1.74),
            center_ps=st.floats(-3.0, 3.0),
            tau_ps=st.floats(0.05, 1.0),
            area_rad=st.floats(0.0, 2 * math.pi),
            phase_rad=st.floats(-math.pi, math.pi),
            target_dipole=st.integers(0, n - 1),
        ),
        min_size=1, max_size=4,
    ))
    seq = PulseSequence(tuple(pulses))
    times = [t for p in pulses for t in (p.center_ps, p.start_ps, p.end_ps)]
    times += [
        seq.start_ps - draw(st.floats(1e-9, 5.0)),
        seq.end_ps + draw(st.floats(1e-9, 5.0)),
    ]
    times += draw(st.lists(st.floats(seq.start_ps, seq.end_ps), max_size=5))
    return seq, dipoles, draw(st.floats(1.68, 1.74)), times


class TestFieldAt:
    @given(drive_cases())
    @settings(max_examples=200, deadline=None)
    def test_scalar_and_array_times_equal_per_pulse_reference(self, field_reference, case):
        seq, dipoles, ref, times = case
        expected = np.array([field_reference(seq, t, dipoles, ref) for t in times])
        for t, amps in zip(times, expected):
            assert np.array_equal(field_at(seq, dipoles, ref, t), amps)
        assert np.array_equal(field_at(seq, dipoles, ref, np.array(times)), expected)

    def test_array_equals_per_pulse_reference_on_a_grid(self, field_reference):
        # dyadic centres and durations, so that t - center is exact at the
        # window edges; the windows are [0.5, 1.5] and [0.25, 2.25]
        seq = PulseSequence((
            Pulse(1.70, 1.0, 0.125, math.pi / 2, target_dipole=0),
            Pulse(1.7145, 1.25, 0.25, math.pi, phase_rad=0.3, target_dipole=1),
        ))
        dipoles, ref = [1.0, 0.7], 1.705
        edges = [p.center_ps + s * ENVELOPE_CUTOFF * p.tau_ps for p in seq for s in (-1, 1)]
        assert edges == [0.5, 1.5, 0.25, 2.25]
        times = np.concatenate((
            np.linspace(-1.0, 3.0, 401),
            edges,
            np.nextafter(edges, [-np.inf, np.inf, -np.inf, np.inf]),  # just outside
        ))
        expected = np.array([field_reference(seq, t, dipoles, ref) for t in times])
        amps = field_at(seq, dipoles, ref, times)
        assert amps.shape == (times.size, 2)
        assert np.array_equal(amps, expected)
        active = [sum(abs(t - p.center_ps) <= ENVELOPE_CUTOFF * p.tau_ps for p in seq)
                  for t in times]
        assert {0, 1, 2} <= set(active)  # outside every window, one, overlap
        assert np.array_equal(np.flatnonzero(np.any(amps != 0, axis=1)),
                              np.flatnonzero(active))

    def test_zero_outside_support(self, register):
        seq = compile_gate(register, GateSpec("cnot", 1, conditions=((0, 1),)))
        t = seq.end_ps + 1.0
        amps = field_at(seq, register.transition_dipoles, 1.71, t)
        assert np.array_equal(amps, np.zeros(2))

    def test_two_color_linearity(self, register):
        p1 = Pulse(1.71, 1.0, 0.2, math.pi, target_dipole=1)
        p2 = Pulse(1.7145, 1.5, 0.2, math.pi, target_dipole=1)
        both = PulseSequence((p1, p2))
        t = 1.2
        ref = 1.71
        sum_parts = field_at(PulseSequence((p1,)), [1.0, 1.0], ref, t) + field_at(
            PulseSequence((p2,)), [1.0, 1.0], ref, t
        )
        amps = field_at(both, [1.0, 1.0], ref, t)
        assert np.allclose(amps, sum_parts, rtol=1e-12)

    def test_zero_target_dipole_rejected_outside_every_window(self):
        seq = PulseSequence((Pulse(1.71, 0.0, 0.1, math.pi, target_dipole=1),))
        with pytest.raises(InvalidParameterError, match="zero transition dipole"):
            field_at(seq, [1.0, 0.0], 1.71, seq.end_ps + 1.0)

    def test_global_addressing_scales_by_dipole_ratio(self):
        pulse = Pulse(1.71, 0.0, 0.1, math.pi, target_dipole=0)
        seq = PulseSequence((pulse,))
        amps = field_at(seq, [1.0, 0.5], 1.71, 0.0)
        assert amps[1] == pytest.approx(0.5 * amps[0], rel=1e-12)


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


class TestCompiledSelection:
    """A compiled gate's pulses rotate exactly what ideal_gate_unitary rotates.

    A pulse rotates every basis state whose conditional frequency of the
    target lies on its carrier.  Shifts are drawn from a few values, zero
    among them, so that uncoupled condition dots and shift sums that
    coincide (the same frequency reached by different neighbour patterns)
    are common.
    """

    @given(
        n=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kind=st.sampled_from(GATE_KINDS),
    )
    @settings(max_examples=200, deadline=None)
    def test_carriers_select_the_ideal_branches(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        shifts = np.triu(rng.choice([0.0, 3.0, 4.5, -4.5], size=(n, n)), 1)
        energies = 1.70 + 0.01 * np.arange(n)
        reg = ExcitonRegister(energies, shifts + shifts.T)
        target = int(rng.integers(n))
        others = [dot for dot in range(n) if dot != target]
        if kind == "cnot":
            conditions = ((int(rng.choice(others)), 1),)
        elif kind == "unconditional-not":
            conditions = ()
        else:
            conditions = tuple(
                (dot, int(rng.integers(2))) for dot in others if rng.random() < 0.5
            )
        assume(kind != "conditional-rotation" or conditions)
        angle = math.pi if kind in ("cnot", "unconditional-not") else math.pi / 2
        spec = GateSpec(kind, target, angle, conditions)
        u = ideal_gate_unitary(reg, spec)
        rotated, frequency = {}, {}
        for idx in range(2**n):
            occ = bit_table(n)[idx]
            if occ[target] == 0:
                rotated[idx] = u[idx | (1 << target), idx] != 0.0
                neighbours = {dot: occ[dot] for dot in others}
                frequency[idx] = renormalized_energy(reg, target, neighbours)

        def same(f, g):
            return abs(f - g) * units.MEV_PER_EV <= SAME_BRANCH_MEV

        try:
            seq = compile_gate(reg, spec)
        except CompileError as err:
            # only when a state the gate must leave alone shares the
            # frequency of one it must rotate
            assert err.required_tau_ps == math.inf
            assert any(
                same(frequency[i], frequency[j])
                for i in frequency
                for j in frequency
                if rotated[i] and not rotated[j]
            )
            return
        for idx, f in frequency.items():
            hits = sum(same(f, pulse.carrier_energy_ev) for pulse in seq)
            assert hits == int(rotated[idx]), (idx, f, [p.carrier_energy_ev for p in seq])

    def test_required_tau_from_gap(self):
        assert required_tau_ps(4.5, 0.25) == HBAR / (0.25 * 4.5)
        assert required_tau_ps(math.inf, 0.25) == 0.0


class TestSequenceSpan:
    def test_span_covers_four_sigma(self):
        p = Pulse(1.71, center_ps=2.0, tau_ps=0.5, area_rad=1.0)
        seq = PulseSequence((p,))
        assert seq.start_ps == 0.0
        assert seq.end_ps == 4.0

    def test_empty_sequence(self):
        seq = PulseSequence(())
        assert seq.start_ps == 0.0
        assert seq.end_ps == 0.0


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
