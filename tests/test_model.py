import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from excitonsim.dynamics import LindbladChannel, channel_operator
from excitonsim.errors import InvalidParameterError
from excitonsim.model import (
    ExcitonRegister,
    basis_label,
    bit_table,
    build_hamiltonian,
    flip_pairs,
    lowering_operator,
    renormalized_energy,
)
from excitonsim.pulses import GATE_KINDS, GateSpec, ideal_gate_unitary


def two_dot_register(shift=4.5):
    return ExcitonRegister(
        exciton_energies_ev=np.array([1.70, 1.71]),
        shift_matrix_mev=np.array([[0.0, shift], [shift, 0.0]]),
    )


def brute_force_diagonal(energies_ev, shifts_mev):
    """Literal transcription of the diagonal rule, canonical summation order."""
    n = len(energies_ev)
    diag = []
    for idx in range(2**n):
        bits = [(idx >> l) & 1 for l in range(n)]
        value = 0.0
        for l in range(n):
            if bits[l]:
                value += energies_ev[l]
        for l in range(n):
            if not bits[l]:
                continue
            for lp in range(n):
                if lp != l and bits[lp]:
                    value += 0.5 * (shifts_mev[l][lp] * 1.0e-3)
        diag.append(value)
    return np.array(diag)


def random_register(rng, n):
    energies = rng.uniform(1.0, 2.0, size=n)
    shifts = np.zeros((n, n))
    for l in range(n):
        for lp in range(l + 1, n):
            shifts[l, lp] = shifts[lp, l] = rng.uniform(-5.0, 5.0)
    return ExcitonRegister(exciton_energies_ev=energies, shift_matrix_mev=shifts)


def sparse_register(rng, n):
    """Random register where about half the pairs have no shift."""
    reg = random_register(rng, n)
    keep = np.triu(rng.random((n, n)) < 0.5, 1)
    shifts = reg.shift_matrix_mev * (keep | keep.T)
    return ExcitonRegister(reg.exciton_energies_ev, shifts)


# Constructions the bit table replaced, kept as literal references.


def kron_lowering(n, l):
    sm = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0><1|
    return np.kron(np.eye(2 ** (n - 1 - l)), np.kron(sm, np.eye(2**l)))


def comprehension_bits(n, l):
    return np.array([(idx >> l) & 1 for idx in range(2**n)], dtype=float)


def index_of_bits(bits):
    """Basis index of an occupation tuple, qubit 0 least significant."""
    return sum(int(b) << l for l, b in enumerate(bits))


def loop_ideal_gate_unitary(register, spec):
    """Per-index transcription of the branch-selection loop."""
    n = register.n_qubits
    dim = 2**n
    u = np.zeros((dim, dim))
    angle = math.pi if spec.kind in ("cnot", "unconditional-not") else spec.angle
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    block = np.array([[c, -s], [s, c]])
    bit = 1 << spec.target
    conditions = dict(spec.conditions)
    unconditional = spec.kind == "unconditional-not"
    for idx in range(dim):
        if idx & bit:
            continue
        bits = [(idx >> l) & 1 for l in range(n)]
        selected = True
        if not unconditional:
            for dot in range(n):
                if dot == spec.target:
                    continue
                if dot in conditions:
                    required = conditions[dot]
                elif register.shift_matrix_mev[spec.target, dot] != 0.0:
                    required = 0
                else:
                    continue
                if bits[dot] != required:
                    selected = False
                    break
        j0, j1 = idx, idx | bit
        if selected:
            u[j0, j0] = block[0, 0]
            u[j1, j0] = block[1, 0]
            u[j0, j1] = block[0, 1]
            u[j1, j1] = block[1, 1]
        else:
            u[j0, j0] = 1.0
            u[j1, j1] = 1.0
    return u


class TestBitTable:
    def test_rows_are_occupations_and_read_only(self):
        table = bit_table(3)
        assert table.shape == (8, 3)
        assert [tuple(row) for row in table] == [
            tuple((idx >> l) & 1 for l in range(3)) for idx in range(8)
        ]
        assert bit_table(3) is table
        with pytest.raises(ValueError):
            table[0, 0] = 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_flip_pairs_match_per_index_bits(self, n):
        expected = [
            (idx, idx + 2**l, l)
            for l in range(n)
            for idx in range(2**n)
            if (idx >> l) & 1 == 0
        ]
        pairs = flip_pairs(n)
        assert [tuple(map(int, p)) for p in zip(*pairs)] == expected
        assert flip_pairs(n) is pairs
        for arr in pairs:
            with pytest.raises(ValueError):
                arr[0] = 0

    @given(
        n=st.integers(min_value=1, max_value=6),
        rate=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_operators_match_kron_and_comprehension(self, n, rate):
        reg = random_register(np.random.default_rng(n), n)
        for l in range(n):
            bits = comprehension_bits(n, l)
            assert np.array_equal(lowering_operator(reg, l), kron_lowering(n, l))
            decay = channel_operator(reg, LindbladChannel("decay", l, rate))
            assert np.array_equal(decay, math.sqrt(rate) * kron_lowering(n, l))
            z = math.sqrt(rate / 2.0) * np.diag(1.0 - 2.0 * bits)
            dephasing = LindbladChannel("pure-dephasing", l, rate)
            assert np.array_equal(channel_operator(reg, dephasing), z)

    @given(
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kind=st.sampled_from(GATE_KINDS),
    )
    @settings(max_examples=120, deadline=None)
    def test_ideal_gate_unitary_matches_index_loop(self, n, seed, kind):
        assume(kind != "cnot" or n > 1)
        rng = np.random.default_rng(seed)
        reg = sparse_register(rng, n)
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
        angle = float(rng.uniform(0.0, 2 * math.pi))
        if kind in ("cnot", "unconditional-not"):
            angle = math.pi  # the only angle these kinds take
        spec = GateSpec(kind, target, angle, conditions)
        expected = loop_ideal_gate_unitary(reg, spec)
        assert np.array_equal(ideal_gate_unitary(reg, spec), expected)


class TestBasisIndex:
    def test_roundtrip(self):
        for n in (1, 2, 3, 5):
            for idx in range(2**n):
                assert index_of_bits(bit_table(n)[idx]) == idx

    def test_qubit_zero_is_least_significant(self):
        assert tuple(bit_table(2)[1]) == (1, 0)
        assert tuple(bit_table(2)[2]) == (0, 1)
        assert basis_label(1, 2) == "10"
        assert basis_label(2, 2) == "01"

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            basis_label(4, 2)

    def test_negative_index_rejected(self):
        # a bare bit_table lookup would wrap -1 round to the last row
        with pytest.raises(IndexError):
            basis_label(-1, 2)


class TestRegisterValidation:
    def test_asymmetric_shift_rejected(self):
        with pytest.raises(InvalidParameterError):
            ExcitonRegister(
                exciton_energies_ev=np.array([1.7, 1.71]),
                shift_matrix_mev=np.array([[0.0, 4.5], [4.0, 0.0]]),
            )

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(InvalidParameterError):
            ExcitonRegister(
                exciton_energies_ev=np.array([1.7]),
                shift_matrix_mev=np.array([[1.0]]),
            )

    def test_negative_energy_rejected(self):
        with pytest.raises(InvalidParameterError):
            ExcitonRegister(
                exciton_energies_ev=np.array([-1.0]),
                shift_matrix_mev=np.zeros((1, 1)),
            )

    def test_default_dipoles_are_unity(self):
        reg = two_dot_register()
        assert np.array_equal(reg.transition_dipoles, [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["energy", "shift", "dipole"])
    def test_non_finite_rejected(self, field, bad):
        energies, shifts, dipoles = [1.70, 1.71], np.zeros((2, 2)), [1.0, 1.0]
        if field == "energy":
            energies[1] = bad
        elif field == "shift":
            shifts[0, 1] = shifts[1, 0] = bad
        else:
            dipoles[1] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            ExcitonRegister(np.array(energies), shifts, np.array(dipoles))


class TestBuildHamiltonian:
    def test_two_dot_reference_values(self):
        ham = build_hamiltonian(two_dot_register())
        expected = np.array([0.0, 1.70, 1.71, 1.70 + 1.71 + 4.5e-3])
        assert ham == pytest.approx(expected, abs=1e-12)
        assert ham[0] == 0.0
        assert ham[3] == pytest.approx(3.4145, abs=1e-12)

    def test_zero_shift_is_noninteracting_sum(self):
        reg = two_dot_register(shift=0.0)
        ham = build_hamiltonian(reg)
        assert ham[3] == ham[1] + ham[2]

    def test_three_dot_chain_matches_enumeration(self):
        energies = np.array([1.5, 1.6, 1.7])
        shifts = np.array(
            [[0.0, 2.0, 0.0], [2.0, 0.0, 3.0], [0.0, 3.0, 0.0]]
        )
        reg = ExcitonRegister(exciton_energies_ev=energies, shift_matrix_mev=shifts)
        ham = build_hamiltonian(reg)
        assert np.array_equal(ham, brute_force_diagonal(energies, shifts))

    @given(
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_enumeration_oracle_random_registers(self, n, seed):
        rng = np.random.default_rng(seed)
        reg = random_register(rng, n)
        ham = build_hamiltonian(reg)
        expected = brute_force_diagonal(
            reg.exciton_energies_ev, reg.shift_matrix_mev
        )
        assert np.array_equal(ham, expected)

    def test_qubit_relabeling_permutes_diagonal(self):
        rng = np.random.default_rng(7)
        n = 3
        reg = random_register(rng, n)
        perm = [2, 0, 1]  # new index p holds old dot perm[p]
        reg_p = ExcitonRegister(
            exciton_energies_ev=reg.exciton_energies_ev[perm],
            shift_matrix_mev=reg.shift_matrix_mev[np.ix_(perm, perm)],
        )
        ham = build_hamiltonian(reg)
        ham_p = build_hamiltonian(reg_p)
        for idx in range(2**n):
            bits = bit_table(n)[idx]
            bits_p = tuple(bits[perm[l]] for l in range(n))
            assert ham_p[index_of_bits(bits_p)] == pytest.approx(
                ham[idx], rel=0, abs=2e-15
            )


class TestOperators:
    def test_hamiltonian_commutes_with_occupations(self):
        reg = two_dot_register()
        h = np.diag(build_hamiltonian(reg))
        for l in range(2):
            op = np.diag(bit_table(2)[:, l])
            assert np.array_equal(h @ op, op @ h)

    def test_index_out_of_range(self):
        # the dot is named by letter, as in configs; -1 has no letter
        reg = two_dot_register()
        with pytest.raises(IndexError, match="^dot c out of range for 2 dots$"):
            lowering_operator(reg, 2)
        with pytest.raises(IndexError, match="^dot -1 out of range for 2 dots$"):
            lowering_operator(reg, -1)


class TestRenormalizedEnergy:
    def test_two_dot_conditional_energy(self):
        reg = two_dot_register()
        assert renormalized_energy(reg, 1, {0: 1}) == pytest.approx(
            1.7145, abs=1e-12
        )

    def test_vacuum_condition_is_bare_energy(self):
        reg = two_dot_register()
        assert renormalized_energy(reg, 1, {}) == reg.exciton_energies_ev[1]
        assert renormalized_energy(reg, 0) == reg.exciton_energies_ev[0]

    def test_matches_diagonal_differences_exactly(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 6):
            reg = random_register(rng, n)
            diag = build_hamiltonian(reg)
            for idx in range(2**n):
                bits = [int(b) for b in bit_table(n)[idx]]
                for l in range(n):
                    set_idx = idx | (1 << l)
                    clear_idx = idx & ~(1 << l)
                    expected = diag[set_idx] - diag[clear_idx]
                    got = renormalized_energy(reg, l, dict(enumerate(bits)))
                    assert got == expected

    def test_sequence_occupations_ignore_target_bit(self):
        reg = two_dot_register()
        assert renormalized_energy(reg, 1, {0: 1, 1: 1}) == renormalized_energy(
            reg, 1, {0: 1}
        )
