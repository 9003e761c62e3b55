import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excitonsim.errors import InvalidParameterError
from excitonsim.model import (
    ExcitonRegister,
    basis_label,
    build_hamiltonian,
    index_of_occupations,
    occupation_number_operator,
    occupations_of_index,
    renormalized_energy,
    transition_operator,
)


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


class TestBasisIndex:
    def test_roundtrip(self):
        for n in (1, 2, 3, 5):
            for idx in range(2**n):
                assert index_of_occupations(occupations_of_index(idx, n)) == idx

    def test_qubit_zero_is_least_significant(self):
        assert occupations_of_index(1, 2) == (1, 0)
        assert occupations_of_index(2, 2) == (0, 1)
        assert basis_label(1, 2) == "10"
        assert basis_label(2, 2) == "01"

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            occupations_of_index(4, 2)


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
        assert ham.diagonal_ev == pytest.approx(expected, abs=1e-12)
        assert ham.diagonal_ev[0] == 0.0
        assert ham.diagonal_ev[3] == pytest.approx(3.4145, abs=1e-12)

    def test_zero_shift_is_noninteracting_sum(self):
        reg = two_dot_register(shift=0.0)
        ham = build_hamiltonian(reg)
        assert ham.diagonal_ev[3] == ham.diagonal_ev[1] + ham.diagonal_ev[2]

    def test_three_dot_chain_matches_enumeration(self):
        energies = np.array([1.5, 1.6, 1.7])
        shifts = np.array(
            [[0.0, 2.0, 0.0], [2.0, 0.0, 3.0], [0.0, 3.0, 0.0]]
        )
        reg = ExcitonRegister(exciton_energies_ev=energies, shift_matrix_mev=shifts)
        ham = build_hamiltonian(reg)
        assert np.array_equal(ham.diagonal_ev, brute_force_diagonal(energies, shifts))

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
        assert np.array_equal(ham.diagonal_ev, expected)

    def test_qubit_relabeling_permutes_diagonal(self):
        rng = np.random.default_rng(7)
        n = 3
        reg = random_register(rng, n)
        perm = [2, 0, 1]  # new index p holds old dot perm[p]
        reg_p = ExcitonRegister(
            exciton_energies_ev=reg.exciton_energies_ev[perm],
            shift_matrix_mev=reg.shift_matrix_mev[np.ix_(perm, perm)],
        )
        ham = build_hamiltonian(reg).diagonal_ev
        ham_p = build_hamiltonian(reg_p).diagonal_ev
        for idx in range(2**n):
            bits = occupations_of_index(idx, n)
            bits_p = tuple(bits[perm[l]] for l in range(n))
            assert ham_p[index_of_occupations(bits_p)] == pytest.approx(
                ham[idx], rel=0, abs=2e-15
            )


class TestOperators:
    def test_occupation_diagonal(self):
        reg = two_dot_register()
        n0 = occupation_number_operator(reg, 0)
        assert np.array_equal(np.diag(n0), [0, 1, 0, 1])
        n1 = occupation_number_operator(reg, 1)
        assert np.array_equal(np.diag(n1), [0, 0, 1, 1])

    def test_occupation_is_projector(self):
        reg = two_dot_register()
        for l in range(2):
            op = occupation_number_operator(reg, l)
            assert np.array_equal(op @ op, op)

    def test_total_occupation_counts(self):
        reg = two_dot_register()
        total = sum(occupation_number_operator(reg, l) for l in range(2))
        assert total[3, 3] == 2.0

    def test_transition_single_qubit(self):
        reg = ExcitonRegister(
            exciton_energies_ev=np.array([1.7]), shift_matrix_mev=np.zeros((1, 1))
        )
        x = transition_operator(reg, 0)
        assert np.array_equal(x, [[0, 1], [1, 0]])

    def test_transition_is_involution(self):
        reg = two_dot_register()
        for l in range(2):
            x = transition_operator(reg, l)
            assert np.array_equal(x @ x, np.eye(4))
            assert np.array_equal(x, x.T.conj())

    def test_transition_composition(self):
        reg = two_dot_register()
        x0 = transition_operator(reg, 0)
        x1 = transition_operator(reg, 1)
        vac = np.zeros(4)
        vac[0] = 1.0
        assert np.argmax(x0 @ x1 @ vac) == 3

    def test_hamiltonian_commutes_with_occupations(self):
        reg = two_dot_register()
        h = build_hamiltonian(reg).as_matrix()
        for l in range(2):
            op = occupation_number_operator(reg, l)
            assert np.array_equal(h @ op, op @ h)

    def test_index_out_of_range(self):
        reg = two_dot_register()
        with pytest.raises(IndexError):
            occupation_number_operator(reg, 2)
        with pytest.raises(IndexError):
            transition_operator(reg, -1)


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
            diag = build_hamiltonian(reg).diagonal_ev
            for idx in range(2**n):
                bits = list(occupations_of_index(idx, n))
                for l in range(n):
                    set_idx = idx | (1 << l)
                    clear_idx = idx & ~(1 << l)
                    expected = diag[set_idx] - diag[clear_idx]
                    got = renormalized_energy(reg, l, bits)
                    assert got == expected

    def test_sequence_occupations_ignore_target_bit(self):
        reg = two_dot_register()
        assert renormalized_energy(reg, 1, [1, 1]) == renormalized_energy(
            reg, 1, {0: 1}
        )
