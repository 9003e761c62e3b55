"""Computational-space register model: bit table, diagonal Hamiltonian, operators.

An exciton register is a set of N dots, each carrying one qubit encoded in
the absence/presence of a ground-state exciton.  Restricted to this space
the carrier Hamiltonian is diagonal: single-exciton energies plus pairwise
biexcitonic shifts,

    H(n) = sum_l E_l n_l + 1/2 sum_{l != l'} dE_{ll'} n_l n_{l'} .

Basis convention (used by every module): qubit 0 is the least-significant
bit of the basis index, so for two dots the order is |00>, |10>, |01>, |11>
with the first digit naming dot 0.  :func:`bit_table` is the one place
that convention lives: every occupation bit of a basis index, here and in
the pulse and dynamics modules, is read from it, and every pair of basis
states one exciton flip apart from :func:`flip_pairs`.  Configs and
outputs name dot 0 a, dot 1 b, ...: :func:`dot_label` and
:func:`pattern_text` are the one printer of dots and occupation patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from string import ascii_lowercase
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidParameterError


@lru_cache(maxsize=8)
def bit_table(n_qubits: int) -> np.ndarray:
    """Read-only (2^N, N) occupation table: row idx holds (n_0, ..., n_{N-1}).

    Qubit 0 is the least-significant bit of the basis index.
    """
    index = np.arange(2**n_qubits)[:, None]
    table = ((index >> np.arange(n_qubits)) & 1).astype(np.uint8)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=8)
def flip_pairs(n_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (low, high, dot) of the N 2^(N-1) basis pairs that differ only
    in bit dot, which is clear in low; ordered by dot, then by low."""
    dot, low = np.nonzero(bit_table(n_qubits).T == 0)
    pairs = (low, low | (1 << dot), dot)
    for arr in pairs:
        arr.setflags(write=False)
    return pairs


def check_dot(l: int, n_qubits: int) -> None:
    """IndexError unless l names one of the n_qubits dots."""
    if not 0 <= l < n_qubits:
        raise IndexError(f"dot {dot_label(l)} out of range for {n_qubits} dots")


def basis_label(index: int, n_qubits: int) -> str:
    """Bit-pattern label with qubit 0 written first, e.g. index 1 -> '10'."""
    if not 0 <= index < 2**n_qubits:
        raise IndexError(f"basis index {index} out of range for {n_qubits} qubits")
    return "".join(map(str, bit_table(n_qubits)[index]))


def dot_label(index: int) -> str:
    """Name of a dot in configs and outputs: 0 -> a, ..., 25 -> z, and the
    decimal index past z, which config.parse_dot reads back as well."""
    return ascii_lowercase[index] if 0 <= index < len(ascii_lowercase) else str(index)


def pattern_text(pattern: Iterable[tuple[int, int]]) -> str:
    """(dot, occupation) pairs in config notation, in the order given:
    ((0, 1), (1, 0)) -> 'a:1,b:0'."""
    return ",".join(f"{dot_label(dot)}:{occ}" for dot, occ in pattern)


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


def _diagonal(register: ExcitonRegister, bits: np.ndarray) -> np.ndarray:
    """H(n) of each row of a boolean (k, N) occupation array, eV.

    Each entry is summed in one canonical order: energies in ascending dot
    index, then shift terms over ordered pairs (l, l') in lexicographic
    order, each converted meV -> eV per term.  Absent terms would add an
    exact 0.0 and are skipped, so the sum equals the term-by-term
    enumeration bit-for-bit whichever rows are asked for.
    """
    e, s = register.exciton_energies_ev, register.shift_matrix_mev
    n = register.n_qubits
    diag = np.zeros(len(bits))
    for l in range(n):
        diag += np.where(bits[:, l], e[l], 0.0)
    for l in range(n):
        for lp in range(n):
            if lp != l and s[l, lp] != 0.0:
                pair = bits[:, l] & bits[:, lp]
                diag += np.where(pair, 0.5 * (s[l, lp] * 1.0e-3), 0.0)
    return diag


def build_hamiltonian(register: ExcitonRegister) -> np.ndarray:
    """Read-only diagonal H(n) over all 2^N occupation patterns, eV.

    The vacuum entry is 0; see :func:`_diagonal` for the summation order.
    """
    diag = _diagonal(register, bit_table(register.n_qubits).astype(bool))
    diag.setflags(write=False)
    return diag


def lowering_operator(register: ExcitonRegister, l: int) -> np.ndarray:
    """sigma^-_l = |0_l><1_l|, destroying the exciton in dot l."""
    n = register.n_qubits
    check_dot(l, n)
    low, high, dot = flip_pairs(n)
    sm = np.zeros((2**n, 2**n))
    sm[low[dot == l], high[dot == l]] = 1.0
    return sm


def renormalized_energy(
    register: ExcitonRegister,
    l: int,
    occupations: Mapping[int, int] = MappingProxyType({}),
) -> float:
    """Conditional transition energy of dot l, eV.

    E~_l = E_l + sum_{l' != l} dE_{ll'} n_{l'} with n_{l'} from occupations
    ({dot: 0 or 1}; unnamed dots empty, an entry for l ignored), evaluated
    as the difference of the diagonal entries with bit l set and clear,
    summed as in :func:`build_hamiltonian`, so that it equals the diagonal
    differences bit-for-bit without building the 2^N diagonal.
    """
    n = register.n_qubits
    check_dot(l, n)
    rows = np.zeros((2, n), dtype=bool)
    for dot, occ in occupations.items():
        check_dot(dot, n)
        if occ not in (0, 1):
            raise InvalidParameterError(f"occupation must be 0 or 1, got {occ}")
        rows[:, dot] = occ
    rows[:, l] = (True, False)
    with_l, without_l = _diagonal(register, rows)
    return float(with_l - without_l)
