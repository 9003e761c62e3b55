"""Computational-space register model.

An exciton register is a set of N dots, each carrying one qubit encoded in
the absence/presence of a ground-state exciton.  Restricted to this space
the carrier Hamiltonian is diagonal: single-exciton energies plus pairwise
biexcitonic shifts,

    H(n) = sum_l E_l n_l + 1/2 sum_{l != l'} dE_{ll'} n_l n_{l'} .

Basis convention (used by every module): qubit 0 is the least-significant
bit of the basis index, so for two dots the order is |00>, |10>, |01>, |11>
with the first digit naming dot 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidParameterError


def occupations_of_index(index: int, n_qubits: int) -> tuple[int, ...]:
    """Occupation bits (n_0, ..., n_{N-1}) of a basis index, qubit 0 = LSB."""
    if not 0 <= index < 2**n_qubits:
        raise IndexError(f"basis index {index} out of range for {n_qubits} qubits")
    return tuple((index >> l) & 1 for l in range(n_qubits))


def index_of_occupations(bits: Sequence[int]) -> int:
    """Inverse of :func:`occupations_of_index`."""
    idx = 0
    for l, b in enumerate(bits):
        if b not in (0, 1):
            raise InvalidParameterError(f"occupation must be 0 or 1, got {b}")
        idx |= b << l
    return idx


def basis_label(index: int, n_qubits: int) -> str:
    """Bit-pattern label with qubit 0 written first, e.g. index 1 -> '10'."""
    return "".join(str(b) for b in occupations_of_index(index, n_qubits))


@dataclass(frozen=True)
class ExcitonRegister:
    """N exciton qubits with energies, pairwise shifts, and dipoles.

    exciton_energies_ev : per-dot ground-exciton energy E_l (eV)
    shift_matrix_mev    : symmetric, zero-diagonal biexcitonic shifts (meV)
    transition_dipoles  : per-dot Rabi energy per unit field amplitude,
                          only their ratios matter once pulse areas are fixed
    """

    exciton_energies_ev: np.ndarray
    shift_matrix_mev: np.ndarray
    transition_dipoles: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        e = np.atleast_1d(np.asarray(self.exciton_energies_ev, dtype=float))
        s = np.asarray(self.shift_matrix_mev, dtype=float)
        n = e.size
        if s.shape != (n, n):
            raise InvalidParameterError(
                f"shift matrix shape {s.shape} does not match {n} qubits"
            )
        if not np.all((e > 0) & np.isfinite(e)):
            raise InvalidParameterError("exciton energies must be positive and finite")
        if not np.all(np.isfinite(s)):
            raise InvalidParameterError("shift matrix must be finite")
        if np.any(np.diag(s) != 0.0):
            raise InvalidParameterError("shift matrix must have zero diagonal")
        if not np.array_equal(s, s.T):
            raise InvalidParameterError("shift matrix must be symmetric")
        d = self.transition_dipoles
        d = np.ones(n) if d is None else np.atleast_1d(np.asarray(d, dtype=float))
        if d.shape != (n,):
            raise InvalidParameterError("one transition dipole per dot required")
        if not np.all((d >= 0) & np.isfinite(d)):
            raise InvalidParameterError("dipoles must be non-negative and finite")
        for name, arr in (
            ("exciton_energies_ev", e),
            ("shift_matrix_mev", s),
            ("transition_dipoles", d),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_qubits(self) -> int:
        return self.exciton_energies_ev.size

    @property
    def dimension(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Diagonal of the computational-space Hamiltonian, eV per basis state."""

    diagonal_ev: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diagonal_ev, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "diagonal_ev", d)

    @property
    def dimension(self) -> int:
        return self.diagonal_ev.size

    def as_matrix(self) -> np.ndarray:
        return np.diag(self.diagonal_ev)


def _diagonal_entry(
    energies_ev: np.ndarray, shifts_mev: np.ndarray, bits: Sequence[int]
) -> float:
    # Canonical summation order: energies in ascending dot index, then shift
    # terms in lexicographic (l, l') order, each converted meV -> eV per term.
    # Keeping the order fixed makes enumeration checks bit-reproducible.
    n = len(bits)
    value = 0.0
    for l in range(n):
        if bits[l]:
            value += energies_ev[l]
    for l in range(n):
        if not bits[l]:
            continue
        for lp in range(n):
            if lp != l and bits[lp]:
                value += 0.5 * (shifts_mev[l, lp] * 1.0e-3)
    return value


def build_hamiltonian(register: ExcitonRegister) -> EffectiveHamiltonian:
    """Diagonal H(n) over all 2^N occupation patterns; vacuum entry is 0."""
    n = register.n_qubits
    diag = np.empty(2**n)
    for idx in range(2**n):
        bits = occupations_of_index(idx, n)
        diag[idx] = _diagonal_entry(
            register.exciton_energies_ev, register.shift_matrix_mev, bits
        )
    return EffectiveHamiltonian(diag)


def occupation_number_operator(register: ExcitonRegister, l: int) -> np.ndarray:
    """Diagonal projector n_l on the 2^N space."""
    n = register.n_qubits
    if not 0 <= l < n:
        raise IndexError(f"dot index {l} out of range for {n} qubits")
    bits = np.array([(idx >> l) & 1 for idx in range(2**n)], dtype=float)
    return np.diag(bits)


def transition_operator(register: ExcitonRegister, l: int) -> np.ndarray:
    """Bit-flip X_l: <n'|X_l|n> = 1 iff n' equals n with bit l toggled."""
    n = register.n_qubits
    if not 0 <= l < n:
        raise IndexError(f"dot index {l} out of range for {n} qubits")
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    # qubit 0 is the LSB, so it sits in the rightmost kron factor
    op = np.kron(np.eye(2 ** (n - 1 - l)), np.kron(x, np.eye(2**l)))
    return op


def lowering_operator(register: ExcitonRegister, l: int) -> np.ndarray:
    """sigma^-_l = |0_l><1_l|, destroying the exciton in dot l."""
    n = register.n_qubits
    if not 0 <= l < n:
        raise IndexError(f"dot index {l} out of range for {n} qubits")
    sm = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0><1|
    return np.kron(np.eye(2 ** (n - 1 - l)), np.kron(sm, np.eye(2**l)))


def _occupation_bits(
    register: ExcitonRegister, l: int, occupations: Mapping[int, int] | Sequence[int]
) -> list[int]:
    n = register.n_qubits
    bits = [0] * n
    if isinstance(occupations, Mapping):
        items = occupations.items()
    else:
        items = enumerate(occupations)
    for dot, occ in items:
        if not 0 <= dot < n:
            raise IndexError(f"dot index {dot} out of range for {n} qubits")
        if occ not in (0, 1):
            raise InvalidParameterError(f"occupation must be 0 or 1, got {occ}")
        bits[dot] = occ
    return bits


def renormalized_energy(
    register: ExcitonRegister,
    l: int,
    occupations: Mapping[int, int] | Sequence[int] = (),
) -> float:
    """Conditional transition energy of dot l, eV.

    E~_l = E_l + sum_{l' != l} dE_{ll'} n_{l'}, evaluated as the difference
    of the two diagonal entries with bit l set and clear so that it matches
    diagonal differences of :func:`build_hamiltonian` bit-for-bit.
    """
    n = register.n_qubits
    if not 0 <= l < n:
        raise IndexError(f"dot index {l} out of range for {n} qubits")
    bits = _occupation_bits(register, l, occupations)
    bits_clear = list(bits)
    bits_clear[l] = 0
    bits_set = list(bits)
    bits_set[l] = 1
    e = register.exciton_energies_ev
    s = register.shift_matrix_mev
    return _diagonal_entry(e, s, bits_set) - _diagonal_entry(e, s, bits_clear)
