"""Figures of merit and optical spectra.

State fidelity, two-qubit concurrence (Wootters construction), compiled
gate fidelity against an ideal unitary, and excitonic / biexcitonic stick
spectra with Lorentzian broadening.  Gate-level states are compared in the
interaction picture of the static register Hamiltonian, where free diagonal
phases are frozen and a fixed target state is meaningful at any final time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dynamics import (
    LindbladChannel,
    SimulationConfig,
    propagate,
    pure_state_density,
)
from .errors import (
    InvalidConditioningError,
    InvalidParameterError,
    UnsupportedDimensionError,
)
from .model import ExcitonRegister, renormalized_energy
from .pulses import PulseSequence

MAX_SPECTRUM_POINTS = 1_000_000  # the largest energy grid of a spectrum
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_PAULI_Y, _PAULI_Y)


def bell_state() -> np.ndarray:
    """(|00> + |11>)/sqrt(2) in the two-qubit computational basis."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return v


def fidelity(rho: np.ndarray, target: Sequence[complex]) -> float:
    """<target| rho |target> for a normalized pure target state."""
    t = np.asarray(target, dtype=complex)
    if t.shape != (rho.shape[0],):
        raise InvalidParameterError("target dimension does not match the state")
    norm = np.linalg.norm(t)
    if abs(norm - 1.0) > 1e-8:
        raise InvalidParameterError(f"target state is not normalized: |t| = {norm}")
    value = np.real(t.conj() @ rho @ t)
    return float(value)


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit entanglement monotone, 0 (separable) to 1 (Bell).

    max(0, l1 - l2 - l3 - l4) over the descending square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y), with conjugation in the
    computational basis.
    """
    if rho.shape != (4, 4):
        raise UnsupportedDimensionError("concurrence is defined for two qubits only")
    r = rho @ _YY @ rho.conj() @ _YY
    eigs = np.linalg.eigvals(r)
    lambdas = np.sort(np.sqrt(np.clip(eigs.real, 0.0, None)))[::-1]
    return float(max(0.0, lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3]))


@dataclass(frozen=True)
class SpectrumLine:
    """One optical transition of unit weight: position and conditioning."""

    energy_ev: float
    kind: str  # "excitonic" (0 -> 1) or "biexcitonic" (1 -> 2)
    dot: int
    conditioning: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class AbsorptionSpectrum:
    """Lorentzian-broadened line spectrum on an energy grid."""

    energies_ev: np.ndarray
    intensity: np.ndarray
    linewidth_mev: float
    lines: tuple[SpectrumLine, ...]

    def __post_init__(self):
        e = np.asarray(self.energies_ev, dtype=float)
        i = np.asarray(self.intensity, dtype=float)
        if np.any(i < 0):
            raise InvalidParameterError("intensity must be non-negative")
        object.__setattr__(self, "energies_ev", e)
        object.__setattr__(self, "intensity", i)
        object.__setattr__(self, "lines", tuple(self.lines))


def spectrum_lines(
    register: ExcitonRegister,
    kind: str,
    patterns: Sequence[Mapping[int, int]] | None = None,
) -> list[SpectrumLine]:
    """Stick transitions of the register.

    Excitonic: one line per dot at its bare energy; patterns may name no dot.
    Biexcitonic: each pattern ({dot: 0 or 1}) gives one line per dot it
    leaves unoccupied, at that dot's renormalized energy, in pattern order
    and then ascending dot; a pattern must occupy one or more dots and
    leave one or more free.  Without patterns, the canonical single-partner
    set: dot l conditioned on one exciton in l', for every ordered pair,
    l-major.
    """
    n = register.n_qubits
    if kind == "excitonic":
        named = [dot for pattern in patterns or () for dot in pattern]
        if named:
            raise InvalidConditioningError(named[0])
        pairs = [(l, {}) for l in range(n)]
    elif kind != "biexcitonic":
        raise InvalidParameterError(f"unknown spectrum kind {kind!r}")
    elif patterns is None:
        pairs = [(l, {lp: 1}) for l in range(n) for lp in range(n) if lp != l]
    else:
        pairs = []
        for pattern in patterns:
            occupied = [d for d, occ in pattern.items() if occ == 1]
            if not occupied:
                raise InvalidParameterError(
                    "biexcitonic conditioning must occupy at least one dot"
                )
            emitters = [l for l in range(n) if l not in occupied]
            if not emitters:
                raise InvalidConditioningError(min(occupied))
            pairs += [(l, pattern) for l in emitters]
    return [
        SpectrumLine(
            energy_ev=renormalized_energy(register, l, pattern),
            kind=kind,
            dot=l,
            conditioning=tuple(sorted(pattern.items())),
        )
        for l, pattern in pairs
    ]


def absorption_spectrum(
    register: ExcitonRegister,
    kind: str,
    patterns: Sequence[Mapping[int, int]] | None = None,
    linewidth_mev: float = 0.5,
) -> AbsorptionSpectrum:
    """Lorentzian-broadened absorption spectrum of spectrum_lines.

    The grid reaches 40 linewidths past the outermost lines in steps of a
    50th of a linewidth, wide and fine enough to hold >= 99% of the weight.
    A grid of over MAX_SPECTRUM_POINTS points, or one so wide that the
    square of its span overflows, raises InvalidParameterError.
    """
    lines = spectrum_lines(register, kind, patterns)
    if linewidth_mev <= 0:
        raise InvalidParameterError("linewidth must be positive")
    if not lines:
        raise InvalidParameterError("no lines to broaden")
    positions = [line.energy_ev for line in lines]
    pad = 40.0 * linewidth_mev * 1e-3
    gamma = linewidth_mev * 1e-3  # FWHM in eV
    step = gamma / 50.0
    start, stop = min(positions) - pad, max(positions) + pad + step
    if not (step > 0 and (stop - start) / step <= MAX_SPECTRUM_POINTS):
        raise InvalidParameterError(f"needs a grid of over {MAX_SPECTRUM_POINTS} points")
    if not (stop - start) * (stop - start) < math.inf:
        raise InvalidParameterError("linewidth too wide: the squared grid span overflows")
    grid = np.arange(start, stop, step)
    intensity = np.zeros_like(grid)
    for line in lines:
        intensity += (gamma / (2.0 * math.pi)) / (
            (grid - line.energy_ev) ** 2 + (gamma / 2.0) ** 2
        )
    return AbsorptionSpectrum(
        energies_ev=grid,
        intensity=intensity,
        linewidth_mev=linewidth_mev,
        lines=tuple(lines),
    )


def default_fidelity_states(n_qubits: int) -> list[np.ndarray]:
    """Deterministic state set for gate fidelity averaging.

    All computational basis states plus, per qubit, the uniform
    superpositions (|0...0> + |e_l>)/sqrt2 and (|e_l> + |1...1>)/sqrt2;
    the latter pairs are sensitive to conditional-phase errors.
    """
    basis = np.eye(2**n_qubits, dtype=complex)
    states = list(basis)
    for l in range(n_qubits):
        states.append((basis[0] + basis[2**l]) / math.sqrt(2.0))
        if 2**l != len(basis) - 1:
            states.append((basis[2**l] + basis[-1]) / math.sqrt(2.0))
    return states


def gate_fidelity(
    sequence: PulseSequence,
    register: ExcitonRegister,
    channels: Sequence[LindbladChannel],
    config: SimulationConfig,
    ideal_unitary: np.ndarray,
) -> float:
    """Average fidelity of the propagated sequence against an ideal gate.

    The reference states of default_fidelity_states are propagated together
    through the full sequence, as one (B, d, d) stack in one propagate call;
    each final state, taken to the interaction picture, is compared with
    the ideal image of its reference state, and the average runs over the
    set.  ideal_unitary must be unitary to 1e-10.
    """
    dim = register.dimension
    ideal = np.asarray(ideal_unitary, dtype=complex)
    if ideal.shape != (dim, dim):
        raise InvalidParameterError("ideal unitary does not match register size")
    error = np.max(np.abs(ideal.conj().T @ ideal - np.eye(dim)))
    if not error <= 1e-10:
        raise InvalidParameterError(f"ideal gate is not unitary: max|U+U - I| = {error:.3e}")
    states = default_fidelity_states(register.n_qubits)
    rho0 = np.array([pure_state_density(psi) for psi in states])
    traj = propagate(rho0, sequence, register, channels, config)
    total = 0.0
    for psi, rho_final in zip(states, traj.final_state_interaction_picture()):
        total += fidelity(rho_final, ideal @ psi)
    return total / len(states)
