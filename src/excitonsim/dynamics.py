"""Density-matrix propagation.

Solves the Liouville-von Neumann equation with optional Lindblad channels,

    drho/dt = -(i/hbar) [H0 + H_drive(t), rho]
              + sum_k (L_k rho L_k+ - 1/2 {L_k+ L_k, rho}),

with a classical fixed-step 4th-order integrator (reproducible trajectories,
no adaptive stepping).  The drive couples through the bit-flip operators:
H_drive = -sum_l (f_l(t) sigma+_l + conj(f_l(t)) sigma-_l), where f_l is the
per-dot amplitude returned by pulses.field_at (real in the lab frame,
complex half-amplitude in the rotating frame).  It is written straight into
the bit-flip pairs of model.flip_pairs: -f_l at <high|H|low> and
-conj(f_l) at <low|H|high> of every pair that flips dot l.

The channels are applied the same way, through the bit table rather than
as dense operator products: one elementwise rate mask holds every
anticommutator and dephasing term, and one jump per decaying dot moves the
flip-pair blocks with that bit set on both sides to where it is clear.
That is exact up to roundoff and costs O(N 4^N) per call; the dense jump
operators of channel_operator survive only as the tests' reference.

Default frame: rotating at a reference energy, which keeps every meV-scale
detuning and inter-color cross term while removing only the optical
carrier, so ~fs steps suffice.  The literal lab frame (optical period
~2.4 fs) is retained for validation with steps of at most 0.05 fs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import units
from .errors import (
    InvalidParameterError,
    NumericalConsistencyError,
    PropagationDiagnosticsError,
    TimeStepError,
)
from .model import (
    ExcitonRegister,
    bit_table,
    build_hamiltonian,
    check_dot,
    flip_pairs,
    lowering_operator,
)
from .pulses import PulseSequence, field_at

LAB_FRAME_MAX_STEP_PS = 5e-5  # 0.05 fs


def pure_state_density(vector: Sequence[complex]) -> np.ndarray:
    """Rank-one density matrix |psi><psi| from a normalized state vector."""
    v = np.asarray(vector, dtype=complex)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-8:
        raise InvalidParameterError(f"state vector is not normalized: |psi| = {norm}")
    return np.outer(v, v.conj())


def basis_state_density(n_qubits: int, index: int) -> np.ndarray:
    """Density matrix of the computational basis state |n>."""
    dim = 2**n_qubits
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return np.outer(v, v.conj())


def validate_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-9,
    eig_floor: float = -1e-9,
) -> None:
    """Check Hermiticity, unit trace, and positivity within tolerances."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidParameterError("density matrix must be square")
    if np.max(np.abs(rho - rho.T.conj())) > herm_tol:
        raise InvalidParameterError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > trace_tol:
        raise InvalidParameterError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(0.5 * (rho + rho.T.conj())).min() < eig_floor:
        raise InvalidParameterError("density matrix has a negative eigenvalue")


@dataclass(frozen=True)
class LindbladChannel:
    """Phenomenological decoherence channel on one dot.

    kind 'decay': rate = 1/T1, jump operator sqrt(rate) sigma-_l.
    kind 'pure-dephasing': rate = gamma_phi, jump operator
    sqrt(rate/2) (1 - 2 n_l), which damps coherences of dot l at
    gamma_phi without touching populations.
    """

    kind: str
    dot: int
    rate_per_ps: float

    def __post_init__(self):
        if self.kind not in ("decay", "pure-dephasing"):
            raise InvalidParameterError(f"unknown channel kind {self.kind!r}")
        if not 0 <= self.rate_per_ps < math.inf:
            raise InvalidParameterError("channel rate must be non-negative and finite")


def channel_operator(register: ExcitonRegister, channel: LindbladChannel) -> np.ndarray:
    """Dense jump operator of one channel on the 2^N space.

    The dissipator that propagation applies is build_dissipator's exact
    rewrite of sum_k (L_k rho L_k+ - 1/2 {L_k+ L_k, rho}) over these.
    """
    if channel.kind == "decay":
        return math.sqrt(channel.rate_per_ps) * lowering_operator(
            register, channel.dot
        )
    z = np.diag(1.0 - 2.0 * bit_table(register.n_qubits)[:, channel.dot])
    return math.sqrt(channel.rate_per_ps / 2.0) * z


@dataclass
class SimulationConfig:
    """Integration controls.

    reference_energy_ev: rotating-frame reference; None picks the exciton
    energy of the first pulse's target dot.  duration_ps extends the
    integration window beyond the pulse span (required for empty
    sequences).  trace_tol / eig_floor are the per-step diagnostic limits.
    """

    time_step_ps: float = 1e-3
    frame: str = "rotating"
    sample_stride: int = 10
    reference_energy_ev: float | None = None
    duration_ps: float | None = None
    trace_tol: float = 1e-7
    eig_floor: float = -1e-6
    store_states: bool = False
    coherence_pair: tuple[int, int] | None = None  # None: (0, dim - 1)

    def __post_init__(self):
        for name in ("time_step_ps", "trace_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidParameterError(f"{name} must be positive and finite")
        if self.frame not in ("lab", "rotating"):
            raise InvalidParameterError(f"unknown frame {self.frame!r}")
        if self.sample_stride < 1:
            raise InvalidParameterError("sample stride must be >= 1")
        for name in ("eig_floor", "reference_energy_ev"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite")
        if self.duration_ps is not None and not 0 <= self.duration_ps < math.inf:
            raise InvalidParameterError("duration_ps must be non-negative and finite")


@dataclass
class Trajectory:
    """Sampled populations, occupations, and one coherence of a run."""

    times_ps: np.ndarray
    populations: np.ndarray  # (n_samples, dim), real
    occupations: np.ndarray  # (n_samples, n_qubits), real
    coherences: np.ndarray  # (n_samples,), complex, element rho[pair]
    coherence_pair: tuple[int, int]
    final_state: np.ndarray
    final_time_ps: float
    frame: str
    reference_energy_ev: float
    h0_diag_mev: np.ndarray
    n_steps: int
    max_trace_drift: float
    states: np.ndarray | None = None  # (n_samples, dim, dim) if stored

    def final_state_interaction_picture(self) -> np.ndarray:
        """Final state with the static diagonal phases removed.

        Conjugates by exp(+i H0 t / hbar) of the frame's static diagonal,
        which freezes free evolution and makes gate-level states
        comparable against fixed targets regardless of sampling time.
        """
        return to_interaction_picture(
            self.final_state, self.final_time_ps, self.h0_diag_mev
        )


def to_interaction_picture(
    rho: np.ndarray, t_ps: float, h0_diag_mev: np.ndarray
) -> np.ndarray:
    phases = np.exp(1j * np.asarray(h0_diag_mev) * t_ps / units.HBAR_MEV_PS)
    return (phases[:, None] * rho) * phases.conj()[None, :]


@dataclass(frozen=True)
class Dissipator:
    """The Lindblad terms of a channel list, written through the bit table.

    rate_mask holds every diagonal term at (i, j): a decay channel on dot l
    adds -gamma/2 (n_il + n_jl), a dephasing channel -gamma [n_il != n_jl],
    which is (gamma/2)(z_i z_j - 1) for L = sqrt(gamma/2)(1 - 2 n_l).  It is
    real, stored as complex because numpy would cast it on every product
    with rho anyway.  jumps holds, per decaying dot, the flat (d*d) indices
    of the flip-pair blocks with bit l clear on both sides (dst) and set on
    both sides (src), and the dot's summed rate: gamma sigma-_l rho sigma+_l
    is rho[src] * gamma added at dst.
    """

    rate_mask: np.ndarray
    jumps: tuple[tuple[np.ndarray, np.ndarray, float], ...]


def build_dissipator(
    channels: Sequence[LindbladChannel], n_qubits: int
) -> Dissipator | None:
    """The exact dissipator of the channels on N dots; None without channels."""
    if not channels:
        return None
    dim = 2**n_qubits
    bits = bit_table(n_qubits).astype(float)
    rate_mask = np.zeros((dim, dim))
    decay: dict[int, float] = {}
    for ch in channels:
        check_dot(ch.dot, n_qubits)
        occ = bits[:, ch.dot]
        if ch.kind == "decay":
            rate_mask -= 0.5 * ch.rate_per_ps * (occ[:, None] + occ[None, :])
            decay[ch.dot] = decay.get(ch.dot, 0.0) + ch.rate_per_ps
        else:
            rate_mask -= ch.rate_per_ps * (occ[:, None] != occ[None, :])
    low, high, dot = flip_pairs(n_qubits)
    jumps = []
    for l, rate in sorted(decay.items()):
        lo, hi = low[dot == l], high[dot == l]
        dst, src = (lo[:, None] * dim + lo).ravel(), (hi[:, None] * dim + hi).ravel()
        jumps.append((dst, src, rate))
    return Dissipator(rate_mask.astype(complex), tuple(jumps))


def liouvillian_apply(
    rho: np.ndarray,
    t_ps: float,
    h0_diag_mev: np.ndarray,
    drive: Callable[[float], np.ndarray] | None,
    dissipator: Dissipator | None,
) -> np.ndarray:
    """Exact generator d(rho)/dt at time t, meV-ps units.

    drive(t) returns per-dot amplitudes f_l (meV), written into the
    bit-flip pairs of H; each off-diagonal entry belongs to one pair.
    dissipator comes from build_dissipator; None (or an empty sequence)
    applies no channels.
    """
    h = np.diag(h0_diag_mev).astype(complex)
    if drive is not None:
        f = drive(t_ps)
        low, high, dot = flip_pairs(len(h0_diag_mev).bit_length() - 1)
        h[high, low] -= f[dot]
        h[low, high] -= np.conj(f)[dot]
    out = (-1j / units.HBAR_MEV_PS) * (h @ rho - rho @ h)
    if dissipator:
        out += dissipator.rate_mask * rho
        flat_out, flat_rho = out.reshape(-1), rho.reshape(-1)  # out: a fresh C array
        for dst, src, rate in dissipator.jumps:
            flat_out[dst] += rate * flat_rho[src]
    return out


def integrate_master_equation(
    rho0: np.ndarray,
    h0_diag_mev: np.ndarray,
    drive: Callable[[float], np.ndarray] | None,
    channels: Sequence[LindbladChannel],
    t_start_ps: float,
    t_end_ps: float,
    config: SimulationConfig,
    frame: str = "rotating",
    reference_energy_ev: float = 0.0,
) -> Trajectory:
    """Fixed-step integration of the master equation over [t_start, t_end].

    The requested step is shrunk to divide the window exactly.  The state
    is re-Hermitized once per step; the trace is never re-normalized, its
    drift is a diagnostic.  Samples are taken every sample_stride steps
    plus the final step.
    """
    rho = np.array(rho0, dtype=complex)
    validate_density_matrix(rho)
    dim = rho.shape[0]
    n_qubits = dim.bit_length() - 1
    if 2**n_qubits != dim:
        raise InvalidParameterError("state dimension must be a power of two")
    h0 = np.asarray(h0_diag_mev, dtype=float)
    if h0.shape != (dim,):
        raise InvalidParameterError("diagonal Hamiltonian does not match state size")
    dissipator = build_dissipator(channels, n_qubits)

    span = t_end_ps - t_start_ps
    if span < 0:
        raise InvalidParameterError("integration window must not be reversed")
    n_steps = max(int(math.ceil(span / config.time_step_ps - 1e-12)), 0)
    dt = span / n_steps if n_steps else 0.0

    pair = config.coherence_pair if config.coherence_pair is not None else (0, dim - 1)
    if not (0 <= pair[0] < dim and 0 <= pair[1] < dim):
        raise InvalidParameterError(f"coherence pair {pair} out of range")
    occupation_masks = bit_table(n_qubits).T.astype(float, order="C")

    times, pops, occs, cohs, kept = [], [], [], [], []

    def sample(t, state):
        times.append(t)
        diag = np.real(np.diag(state))
        pops.append(diag)
        occs.append([float(diag @ m) for m in occupation_masks])
        cohs.append(state[pair])
        if config.store_states:
            kept.append(state.copy())

    def rhs(t, state):
        return liouvillian_apply(state, t, h0, drive, dissipator)

    max_drift = abs(np.trace(rho).real - 1.0)
    sample(t_start_ps, rho)
    t = t_start_ps
    for step in range(1, n_steps + 1):
        k1 = rhs(t, rho)
        k2 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k2)
        k4 = rhs(t + dt, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.T.conj())
        t = t_start_ps + step * dt
        drift = abs(np.trace(rho).real - 1.0)
        max_drift = max(max_drift, drift)
        if drift > config.trace_tol:
            raise PropagationDiagnosticsError(
                f"trace drift {drift:.3e} exceeds {config.trace_tol:.1e}", step=step
            )
        min_eig = np.linalg.eigvalsh(rho).min()
        if min_eig < config.eig_floor:
            raise PropagationDiagnosticsError(
                f"negative eigenvalue {min_eig:.3e} below {config.eig_floor:.1e}",
                step=step,
            )
        if step % config.sample_stride == 0 or step == n_steps:
            sample(t, rho)

    return Trajectory(
        times_ps=np.array(times),
        populations=np.array(pops),
        occupations=np.array(occs).reshape(len(times), n_qubits),
        coherences=np.array(cohs),
        coherence_pair=pair,
        final_state=rho,
        final_time_ps=t,
        frame=frame,
        reference_energy_ev=reference_energy_ev,
        h0_diag_mev=h0,
        n_steps=n_steps,
        max_trace_drift=max_drift,
        states=np.array(kept) if config.store_states else None,
    )


def default_reference_energy(
    sequence: PulseSequence, register: ExcitonRegister
) -> float:
    """Rotating-frame reference: exciton energy of the first pulse's dot."""
    if len(sequence) > 0:
        return float(
            register.exciton_energies_ev[sequence.pulses[0].target_dipole]
        )
    return float(register.exciton_energies_ev[0])


def propagate(
    rho0: np.ndarray,
    sequence: PulseSequence,
    register: ExcitonRegister,
    channels: Sequence[LindbladChannel] = (),
    config: SimulationConfig | None = None,
) -> Trajectory:
    """Propagate the register state through a pulse sequence.

    Builds the frame Hamiltonian (full optical energies in the lab frame,
    reference-shifted in the rotating frame) and the drive from field_at,
    then runs the fixed-step integrator, with the channels' dissipator,
    over the sequence span (extended to duration_ps when configured).
    """
    config = config or SimulationConfig()
    if len(sequence) > 0:
        tau_min = min(p.tau_ps for p in sequence)
        if config.frame == "rotating" and config.time_step_ps > tau_min / 20.0:
            raise TimeStepError(
                f"time step {config.time_step_ps} ps too coarse: must be at most "
                f"tau_min/20 = {tau_min / 20.0:.3e} ps"
            )
    if config.frame == "lab" and config.time_step_ps > LAB_FRAME_MAX_STEP_PS:
        raise TimeStepError(
            f"lab-frame steps must be at most {LAB_FRAME_MAX_STEP_PS} ps to resolve "
            "the optical carrier"
        )

    diag_ev = build_hamiltonian(register)
    occupancy = bit_table(register.n_qubits).sum(axis=1).astype(float)
    if config.frame == "rotating":
        ref = (
            config.reference_energy_ev
            if config.reference_energy_ev is not None
            else default_reference_energy(sequence, register)
        )
        h0 = (diag_ev - ref * occupancy) * units.MEV_PER_EV
    else:
        ref = 0.0
        h0 = diag_ev * units.MEV_PER_EV
        # global energy offset is gauge (cancels in rho); centering the
        # spectrum halves the stiffest phase the integrator must resolve
        h0 = h0 - 0.5 * (h0.max() + h0.min())

    dipoles = register.transition_dipoles
    frame = config.frame

    def drive(t: float) -> np.ndarray:  # field_at ignores ref in the lab frame
        return field_at(sequence, t, dipoles, frame=frame, reference_energy_ev=ref)

    t_start = min(0.0, sequence.start_ps) if len(sequence) else 0.0
    t_end = sequence.end_ps if len(sequence) else 0.0
    if config.duration_ps is not None:
        t_end = max(t_end, t_start + config.duration_ps)

    return integrate_master_equation(
        rho0,
        h0,
        drive if len(sequence) > 0 else None,
        channels,
        t_start,
        t_end,
        config,
        frame=frame,
        reference_energy_ev=ref,
    )


def expectation(op: np.ndarray, rho: np.ndarray) -> float:
    """Real expectation value trace(op rho).

    The imaginary residue must stay below 1e-8; residues below 1e-10 are
    silently discarded, anything between is still accepted but indicates
    marginal Hermiticity.
    """
    if op.shape != rho.shape:
        raise InvalidParameterError("operator and state dimensions differ")
    value = complex(np.trace(op @ rho))
    if abs(value.imag) > 1e-8:
        raise NumericalConsistencyError(
            f"expectation value has imaginary residue {value.imag:.3e}"
        )
    return value.real


def purity(rho: np.ndarray) -> float:
    """trace(rho^2), 1 for pure states."""
    return float(np.real(np.trace(rho @ rho)))
