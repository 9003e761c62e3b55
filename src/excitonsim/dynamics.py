"""Density-matrix propagation.

Solves the Liouville-von Neumann equation with optional Lindblad channels,

    drho/dt = -(i/hbar) [H0 + H_drive(t), rho]
              + sum_k (L_k rho L_k+ - 1/2 {L_k+ L_k, rho}),

with a classical fixed-step 4th-order integrator (reproducible trajectories,
no adaptive stepping).  The drive couples through the bit-flip operators:
H_drive = -sum_l (f_l(t) sigma+_l + conj(f_l(t)) sigma-_l), where f_l is the
complex per-dot half-amplitude returned by pulses.field_at.  It is written
straight into the bit-flip pairs of model.flip_pairs: -f_l at <high|H|low>
and -conj(f_l) at <low|H|high> of every pair that flips dot l.  The drive
is evaluated once per DRIVE_BLOCK_STEPS steps, at all of their stage times
t, t + dt/2 and t + dt in one field_at call (k2 and k3 share the
midpoint).  The three stage Hamiltonians of a whole checked batch of steps
(see below) are written by one gather and one scatter into the flip pairs
of a (S, 3, d, d) buffer that holds H0 throughout (stage_hamiltonians).
field_at forms every amplitude with the per-pulse formula's own
operations, so this is bit for bit the run that evaluates the drive stage
by stage.

The channels are applied through the bit table too, rather than as dense
operator products: the whole dissipator is one sparse row table with one
row per entry (i, j) of rho.  Each row holds that entry's own term, the
sum of every anticommutator and dephasing rate at (i, j), and then one
term per decaying dot l whose jump lands there: gamma_l rho[i|l, j|l] for
i and j with bit l clear.  One gather, one product and one segmented sum
apply it, however many channels there are; every row keeps its own term,
even at rate 0, because np.add.reduceat returns the element at an empty
row's start rather than 0.  That is exact up to roundoff and costs
O(N 4^N) per call; the dense jump operators of channel_operator survive
only as the tests' reference.

A run with channels on at most LIOUVILLE_MAX_DIM = 4 basis states
(N <= 2) takes the map form instead of the stage loop below.  Each state
is carried as its d^2 real coordinates x (hermitian_coordinates: rho_ii,
then Re rho_ij and Im rho_ij for i < j), in which d(rho)/dt = x L for a
real (d^2, d^2) generator that is affine in the drive,
L = L0 + sum_l (Re f_l R_l + Im f_l I_l).  map_generator reads L0, R_l
and I_l off the row table's liouvillian_apply on the coordinates' basis
matrices, once per run.  One product of a checked batch's amplitudes with
the stacked R_l and I_l then gives every stage generator L1, L2, L3 (at
t, t + dt/2, t + dt) of the batch, and three batched products give each
step's RK4 increment E = (dt/6)(L1 + 2A + 2B + C), with A = L2 + (dt/2)
L1 L2, B = L2 + (dt/2) A L2 and C = L3 + dt B L3 (step_maps): x + x E is
the RK4 step of x.  A step is one vector-matrix product x E and one
addition per member, and after each batch one real product rebuilds the
batch's states, exactly Hermitian by construction, for the step check and
the samples.  The map form sums in another order than the stage loop, so
its states differ from the loop's by roundoff (7e-16 on gate_fidelity's
CNOT stack); coherent runs and runs with channels on N >= 3 keep the
stage loop.  The cut is set by measurement (LIOUVILLE_MAX_DIM's comment).

What stays fixed through a propagation is built once before the loop:
the Generator (H0, the flat flip-pair indices, the dissipator's row table
and -i/hbar), every buffer and their views.  The stage loop binds two
stages once per run with stage_apply, one for the generator and one for
it doubled, each holding its scale, its row table and its buffers, and
it binds the row views of its C-ordered stage buffer and step-check slots
once; each RK4 stage is then one call of a bound stage, with no module
lookup, reshape or test per stage (liouvillian_apply, a stage bound and
applied once, serves map_generator and the tests).  A stage's commutator
is one product rho H over all B*d rows of the stack (bit for bit the
per-member H rho for d >= 4 with OpenBLAS 0.3.31, within 4 ulps at
d = 2), and exactly Hermitian, so every state is too once rho0 is
Hermitized on entry.  The second and third stages take the generator
doubled and so give 2 k2 and 2 k3, whose stage inputs rho + (dt/4) (2 k2)
and rho + (dt/2) (2 k3) are bit for bit those of k2 and k3: a factor of 2
is exact in binary floating point, barring overflow and subnormals.
_StepCheck tests every step's state, in batches of EIG_BATCH_BYTES, cut
shorter where the batch's stage buffers would pass 6 EIG_BATCH_BYTES:
its trace drift against trace_tol, then its positivity by one Cholesky of
the batch shifted by eig_floor, and eigvalsh only for a batch that fails
it.  The loop runs a batch of S steps, then its check.

The equation is linear, so the loop propagates a (B, d, d) stack, a single
(d, d) rho as a stack of one.  The members share each stage's drive
amplitudes and Hamiltonian (each step's increment in the map form), each
ends bit for bit where a run of its own would, and each is tested as a
single state would be; a failure names the earliest step, the lowest
failing member there, and, for a stack, that member as "state k".

The frame rotates at a reference energy, which keeps every meV-scale
detuning and inter-color cross term while removing only the ~2.4 fs optical
carrier, so ~fs steps suffice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import units
from .errors import (
    InvalidParameterError,
    PropagationDiagnosticsError,
    StepCountError,
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


def validate_density_matrix(rho: np.ndarray) -> None:
    """Check Hermiticity to 1e-12, unit trace to 1e-9 and positivity down to
    an eigenvalue of -1e-9.

    Each test fails closed: NaN or inf anywhere in rho fails the first.  A
    (B, d, d) stack is checked member by member, and the error names the
    first member that fails as "state k".
    """
    if rho.ndim == 3:
        if not len(rho):
            raise InvalidParameterError("density matrix stack is empty")
        for k, member in enumerate(rho):
            try:
                validate_density_matrix(member)
            except InvalidParameterError as err:
                raise InvalidParameterError(f"{err} in state {k}") from None
        return
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidParameterError("density matrix must be square")
    if not np.max(np.abs(rho - rho.T.conj())) <= 1e-12:
        raise InvalidParameterError("density matrix is not Hermitian or not finite")
    if not abs(np.trace(rho).real - 1.0) <= 1e-9:
        raise InvalidParameterError("density matrix trace differs from 1")
    if not np.linalg.eigvalsh(0.5 * (rho + rho.T.conj())).min() >= -1e-9:
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

    The dissipator that propagation applies is build_generator's exact
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

    time_step_ps: at most tau/20 of the shortest pulse, checked by
    propagate.  reference_energy_ev: rotating-frame reference; None picks
    the exciton energy of the first pulse's target dot.  duration_ps
    extends the integration window beyond the pulse span (required for
    empty sequences).  trace_tol / eig_floor are the per-step diagnostic
    limits.
    """

    time_step_ps: float = 1e-3
    sample_stride: int = 10
    reference_energy_ev: float | None = None
    duration_ps: float | None = None
    trace_tol: float = 1e-7
    eig_floor: float = -1e-6
    coherence_pair: tuple[int, int] | None = None  # None: (0, dim - 1)

    def __post_init__(self):
        for name in ("time_step_ps", "trace_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidParameterError(f"{name} must be positive and finite")
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
    """Sampled populations, occupations, and one coherence of a run.

    The shapes below are those of one (d, d) state.  A run of a (B, d, d)
    stack adds the member axis after the sample axis (final_state is
    (B, d, d)), and max_trace_drift is the worst over the members.
    """

    times_ps: np.ndarray
    populations: np.ndarray  # (n_samples, dim), real
    occupations: np.ndarray  # (n_samples, n_qubits), real
    coherences: np.ndarray  # (n_samples,), complex, element rho[pair]
    coherence_pair: tuple[int, int]
    final_state: np.ndarray
    final_time_ps: float
    reference_energy_ev: float
    h0_diag_mev: np.ndarray
    n_steps: int
    max_trace_drift: float
    max_trace_drift_step: int  # the first step at max_trace_drift, 0 for rho0

    def final_state_interaction_picture(self) -> np.ndarray:
        """Final state with the static diagonal phases removed.

        Conjugates by exp(+i H0 t / hbar) of the frame's static diagonal,
        which freezes free evolution and makes gate-level states
        comparable against fixed targets regardless of sampling time.
        """
        phases = np.exp(1j * self.h0_diag_mev * self.final_time_ps / units.HBAR_MEV_PS)
        return (phases[:, None] * self.final_state) * phases.conj()[None, :]


@dataclass(frozen=True)
class Generator:
    """The parts of the Liouvillian that stay fixed through a propagation.

    h0 is the complex diagonal matrix of H0.  pairs holds the flat (d*d)
    indices of every flip pair, <high|H|low> entries first and then their
    <low|H|high> mirrors, and pair_dots the index into (f, conj(f)) that
    each entry takes.  dissipator is the channels' sparse row table
    (values, columns, row_starts), None without channels.  Row r = i*d + j
    spans row_starts[r] up to the next row's start, and d(rho)/dt[i, j]
    gains the sum of values[k] * rho.flat[columns[k]] over it.  Each row
    starts with the entry's own coefficient on rho[i, j]: a decay channel on
    dot l adds -gamma/2 (n_il + n_jl), a dephasing channel
    -gamma [n_il != n_jl], which is (gamma/2)(z_i z_j - 1) for
    L = sqrt(gamma/2)(1 - 2 n_l).  Then, for each decaying dot l with bit l
    clear in i and j, in ascending l, the dot's summed rate on
    rho[i | 2^l, j | 2^l]: gamma sigma-_l rho sigma+_l.  Every row keeps its
    own entry, even with a zero coefficient, because np.add.reduceat
    returns the element at an empty row's start instead of 0.  The values
    are real rates stored as complex, which numpy would cast them to in
    every product with rho anyway.  scale is the commutator's factor
    -i/hbar, a 0-d complex array, which numpy takes without a conversion.
    n_dots is N.  The map form reads its real generator off this one
    (map_generator).
    """

    h0: np.ndarray
    pairs: np.ndarray
    pair_dots: np.ndarray
    dissipator: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    scale: np.ndarray
    n_dots: int

    def doubled(self) -> Generator:
        """This generator times 2: the scale and the dissipator's values
        doubled, component by component, so every derivative it gives is
        bit for bit twice this one's (doubling is exact in binary floating
        point, barring overflow and subnormals)."""
        dissipator = self.dissipator
        if dissipator is not None:
            values, columns, row_starts = dissipator
            dissipator = ((2.0 * values.real).astype(complex), columns, row_starts)
        scale = np.array(complex(2.0 * self.scale.real, 2.0 * self.scale.imag))
        return replace(self, dissipator=dissipator, scale=scale)


def build_generator(
    h0_diag_mev: np.ndarray, channels: Sequence[LindbladChannel] = ()
) -> Generator:
    """The static parts of the generator of H0 (meV) and the channels."""
    h0 = np.asarray(h0_diag_mev, dtype=float)
    dim = h0.size
    n_qubits = dim.bit_length() - 1
    low, high, dot = flip_pairs(n_qubits)
    pairs = np.concatenate((high * dim + low, low * dim + high))
    pair_dots = np.concatenate((dot, dot + n_qubits))
    dissipator = None
    if channels:
        bits = bit_table(n_qubits).astype(float)
        own = np.zeros((dim, dim))
        decay: dict[int, float] = {}
        for ch in channels:
            check_dot(ch.dot, n_qubits)
            occ = bits[:, ch.dot]
            if ch.kind == "decay":
                own -= 0.5 * ch.rate_per_ps * (occ[:, None] + occ[None, :])
                decay[ch.dot] = decay.get(ch.dot, 0.0) + ch.rate_per_ps
            else:
                own -= ch.rate_per_ps * (occ[:, None] != occ[None, :])
        entries = np.arange(dim * dim)
        rows, columns, values = [entries], [entries], [own.ravel()]
        for l, rate in sorted(decay.items()):
            lo, hi = low[dot == l], high[dot == l]
            rows.append((lo[:, None] * dim + lo).ravel())
            columns.append((hi[:, None] * dim + hi).ravel())
            values.append(np.full(lo.size**2, rate))
        rows = np.concatenate(rows)
        order = np.argsort(rows, kind="stable")  # own entry first, then dots
        dissipator = (
            np.concatenate(values)[order].astype(complex),
            np.concatenate(columns)[order],
            np.searchsorted(rows[order], entries),
        )
    return Generator(
        np.diag(h0).astype(complex), pairs, pair_dots, dissipator,
        np.array(-1j / units.HBAR_MEV_PS), n_qubits,
    )


def _batches(blocks: Iterable[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """The sets of blocks' (K, ...) arrays, in order, regrouped into arrays
    of size sets; the last may hold fewer."""
    rest = ()  # the sets of a block left over for the next group
    for block in blocks:
        if len(rest):
            block = np.concatenate((rest, block))
        n_full = len(block) - len(block) % size
        for first in range(0, n_full, size):
            yield block[first : first + size]
        rest = block[n_full:]
    if len(rest):
        yield rest


def stage_hamiltonians(
    generator: Generator, blocks: Iterable[np.ndarray], out: np.ndarray
) -> Iterator[np.ndarray]:
    """Writes the drive of each set of per-dot amplitudes into the flip
    pairs of out, len(out) sets at a time.

    blocks yields (K, ..., N) arrays of amplitudes f (meV), and out is a
    C-contiguous (S, ..., d, d) stack of the generator's H0 (its ... axes
    those of f).  Every S consecutive sets, in order, are written into
    out's S entries, and the entries written are yielded: out, or out[:m]
    for the last m < S sets.  A written entry is H0 with -f_l at
    <high|H|low> and -conj(f_l) at <low|H|high> of every flip pair of dot l
    (each off-diagonal entry belongs to one pair).  Each group of S sets
    costs one gather and one scatter; the rest of out keeps H0, and a
    yielded stack is valid until the next.
    """
    size, stages = len(out), math.prod(out.shape[1:-2])
    stage = np.arange(size * stages)[:, None]
    pairs = stage * generator.h0.size + generator.pairs
    pair_dots = stage * 2 * generator.n_dots + generator.pair_dots  # into (f, conj(f))
    flat = out.reshape(-1)
    for f in _batches(blocks, size):
        n = len(f) * stages
        entries = 0.0 - np.concatenate((f, np.conj(f)), axis=-1)
        flat[pairs[:n]] = entries.take(pair_dots[:n])
        yield out[: len(f)]


def hermitian_coordinates(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The d^2 real coordinates of a Hermitian (d, d) matrix: rho_ii, then
    Re rho_ij, then Im rho_ij for i < j, in row-major order.

    Returns (columns, rebuild).  columns are the coordinates' positions in
    the matrix's float view: rho.view(float).reshape(-1, 2 d^2)[:, columns]
    reads them.  Row k of the (d^2, 2 d^2) rebuild is the float view of the
    basis matrix E_k (|i><i|, |i><j| + |j><i| or i|i><j| - i|j><i|), so
    x @ rebuild is the float view of sum_k x_k E_k.  Every column of
    rebuild holds at most one entry, 1 or -1, so that product rounds
    nothing, and the matrix it rebuilds is exactly Hermitian.
    """
    upper_i, upper_j = np.triu_indices(dim, 1)
    diagonal = np.arange(dim) * (dim + 1)
    upper, lower = upper_i * dim + upper_j, upper_j * dim + upper_i
    columns = np.concatenate((2 * diagonal, 2 * upper, 2 * upper + 1))
    mirrors = np.concatenate((2 * diagonal, 2 * lower, 2 * lower + 1))
    rebuild = np.zeros((dim * dim, 2 * dim * dim))
    rows = np.arange(dim * dim)
    rebuild[rows, columns] = 1.0
    rebuild[rows, mirrors] = np.where(rows < dim + upper.size, 1.0, -1.0)
    return columns, rebuild


def map_generator(generator: Generator) -> tuple[np.ndarray, np.ndarray]:
    """The generator in hermitian_coordinates, affine in the drive:
    (L0, drive).

    d(rho)/dt = x L for the row vector x of rho's coordinates, with
    L = L0 + sum_l (Re f_l R_l + Im f_l I_l), and the (2N, d^4) drive
    stacks R_0 .. R_{N-1}, I_0 .. I_{N-1} flattened, so that L is
    [Re f, Im f] @ drive + L0, flattened.  Row k of L0 holds the
    coordinates of liouvillian_apply of the basis matrix E_k with H0 and
    the channels, and row k of R_l (I_l) those with the drive of f_l = 1
    (f_l = i) alone, without H0 or the channels: the row table's exact
    generator, read off once.
    """
    dim, n = len(generator.h0), generator.n_dots
    columns, rebuild = hermitian_coordinates(dim)
    basis = rebuild.view(complex).reshape(dim * dim, dim, dim)

    def coordinates(h: np.ndarray, gen: Generator) -> np.ndarray:
        return liouvillian_apply(basis, h, gen).view(float).reshape(dim * dim, -1)[:, columns]

    drives = np.zeros((2 * n, dim, dim), dtype=complex)  # f = e_l, then f = i e_l
    next(stage_hamiltonians(generator, [np.concatenate((np.eye(n), 1j * np.eye(n)))], drives))
    coherent = replace(generator, dissipator=None)
    return (
        coordinates(generator.h0, generator),
        np.array([coordinates(h, coherent).ravel() for h in drives]),
    )


def step_maps(stages: np.ndarray, dt: float, work: np.ndarray) -> np.ndarray:
    """The RK4 step increments of (m, 3, D, D) real stage generators L1, L2,
    L3 of d(x)/dt = x L, written over L1 and returned as an (m, D, D) view.

    The increment is E = (dt/6)(L1 + 2A + 2B + C), with A = L2 + (dt/2)
    L1 L2, B = L2 + (dt/2) A L2 and C = L3 + dt B L3, so that x + x E is the
    RK4 step of x: x A, x B and x C are its k2, k3 and k4.  The step map is
    I + E, but the loop adds x E to x rather than form it: rounding 1 + E_kk
    drops E's low bits, the same ones at every step of a constant generator,
    and forming I + E raised configs/decoherence_two_dot.cfg's trace drift
    from 7e-15 to 1.3e-13.  Three batched products; work is a (2, m', D, D)
    buffer with m' >= m.
    """
    m = len(stages)
    l1, l2, l3 = stages[:, 0], stages[:, 1], stages[:, 2]
    a, b = work[0, :m], work[1, :m]
    np.matmul(l1, l2, a)
    a *= 0.5 * dt
    a += l2  # A
    np.matmul(a, l2, b)
    b *= 0.5 * dt
    b += l2  # B
    a *= 2.0
    l1 += a
    np.matmul(b, l3, a)
    a *= dt
    a += l3  # C
    b *= 2.0
    l1 += b
    l1 += a
    l1 *= dt / 6.0
    return l1


def stage_apply(
    generator: Generator, shape: tuple[int, ...]
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """The exact generator d(rho)/dt of a rho of this shape, (d, d) or
    (B, d, d), bound once: stage(rows, h, out) writes it for the
    Hamiltonian h (meV), meV-ps units, times the generator's scale over
    -i/hbar, into out, rho's shape, and returns out.

    rows is rho.reshape(-1, d), its B*d rows, so that a caller that holds
    C-contiguous buffers binds their row views once.  h is the generator's
    H0 or a stage Hamiltonian of stage_hamiltonians, and rho must be
    Hermitian, so that h rho = (rho h)+: the commutator is w+ - w of one
    product w = rho h, exactly Hermitian however w rounds, and it is
    multiplied by generator.scale.  For a stack, whose members all take h,
    w is one product over all B*d rows, bit for bit B products of one
    member each, and the per-member (h rho)+ bit for bit for d >= 4 with
    OpenBLAS 0.3.31 (within 4 ulps at d = 2).  The channels' row table is
    repeated for each member of the flat stack, so that one gather, one
    product and one segmented sum apply it to every member, each bit for
    bit as it would alone; that keeps the derivative exactly Hermitian.
    The bound stage holds its own buffers (the product w, the gather), so
    it serves one caller at a time, and it calls its ufuncs with
    positional outputs and no per-call test.
    """
    w = np.empty(shape, dtype=complex)
    product, w_t = w.reshape(-1, shape[-1]), w.swapaxes(-1, -2)
    scale = generator.scale
    dot, conjugate, subtract, multiply, add = (
        np.dot, np.conjugate, np.subtract, np.multiply, np.add
    )

    def coherent(rows: np.ndarray, h: np.ndarray, out: np.ndarray) -> np.ndarray:
        dot(rows, h, product)  # the zgemm of np.matmul, with less call overhead
        subtract(conjugate(w_t, out), w, out)
        return multiply(out, scale, out)

    if generator.dissipator is None:
        return coherent
    values, columns, row_starts = generator.dissipator
    member = np.arange(math.prod(shape[:-2]))[:, None]  # each member's offsets
    columns = (member * shape[-1] ** 2 + columns).ravel()
    row_starts = (member * len(values) + row_starts).ravel()
    values = np.tile(values, len(member))
    gathered = np.empty(len(columns), dtype=complex)
    sums = np.empty(shape, dtype=complex)
    flat_sums = sums.reshape(-1)
    take, reduceat = np.take, np.add.reduceat

    def apply(rows: np.ndarray, h: np.ndarray, out: np.ndarray) -> np.ndarray:
        coherent(rows, h, out)
        take(rows, columns, None, gathered, "clip")  # in range: clip skips a copy
        multiply(values, gathered, gathered)
        reduceat(gathered, row_starts, 0, None, flat_sums)
        return add(out, sums, out)

    return apply


def liouvillian_apply(
    rho: np.ndarray, h: np.ndarray, generator: Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact generator d(rho)/dt for the Hamiltonian h (meV) of a (d, d)
    rho or (B, d, d) stack, as stage_apply's stage bound for rho's shape
    gives it; writes into out if given."""
    rho = np.asarray(rho, dtype=complex)  # np.dot takes no out of another dtype
    if out is None:
        out = np.empty(rho.shape, dtype=complex)
    return stage_apply(generator, rho.shape)(rho.reshape(-1, rho.shape[-1]), h, out)


# Each step's state is checked in batches of up to this many bytes of
# states: one trace and one Cholesky call per batch instead of one test per
# step, and one eigvalsh call only when the Cholesky fails.  The batch's
# length in steps is also that of the loop's stage buffers, which are held
# to 6 times this many bytes, 384 KiB: a batch is cut to fewer steps where
# they would exceed that, which only the map form's 5 real (d^2, d^2)
# matrices per step do (614 steps at d = 2, 38 at d = 4).
EIG_BATCH_BYTES = 64 * 1024

# Registers of up to this many basis states with channels take the map form
# (map_generator, step_maps) instead of the stage loop.  The 3-dot
# gate_fidelity of tools/stage_forms.py (14 states, 14,042 steps), with the
# cut at 4 (stage loop) against 8 (map form), alternating, 10 runs each on
# a 2-core Xeon KVM guest: with one OpenBLAS thread 2.64 s [2.26, 2.99]
# against 1.90 s [1.76, 2.13], the map form faster in 10 of 10; with two
# threads 2.44 s [2.36, 2.94] against 2.16 s [2.01, 2.52], faster in 8 of
# 10 (medians [quartiles]); the fidelities are equal.  No benchmark
# workload runs channels at N = 3, so the cut would move only on a win in
# every run on both settings, and it stays below N = 3.  At N = 4 each step
# would take three products of 256 x 256 matrices.
LIOUVILLE_MAX_DIM = 4


class _StepCheck:
    """Every integration step's (B, d, d) stack, tested in batches.

    Each step's stack is written into the next of the size slots of
    states, and check() tests the slots filled.  It raises for the first
    state, in (step, member) order, that a per-step test would fail: its
    trace drift is above trace_tol (or not finite), or it is not finite, or
    it has an eigenvalue below eig_floor.  Positivity is tested on the
    states before the first trace failure by one batched Cholesky of each
    minus eig_floor * I, which succeeds only if every smallest eigenvalue
    is above eig_floor (it reads one triangle: every state is exactly
    Hermitian).  Only if it fails, or a state is not finite, does one
    eigvalsh find the first state below the floor.  max_trace_drift starts
    at rho0's (step 0) and keeps the worst drift checked,
    max_trace_drift_step its first step.  stacked: whether the error names
    the failing member as "state k".  step_bytes is the size of the loop's
    stage buffers per step, which holds the batch to 6 EIG_BATCH_BYTES.
    """

    def __init__(
        self, rho0: np.ndarray, trace_tol: float, eig_floor: float, stacked: bool,
        step_bytes: int,
    ):
        members, dim = rho0.shape[0], rho0.shape[-1]
        self.size = max(1, min(
            EIG_BATCH_BYTES // (16 * members * dim * dim), 6 * EIG_BATCH_BYTES // step_bytes
        ))
        self.states = np.empty((self.size, *rho0.shape), dtype=complex)
        self.flat = self.states.reshape(-1, dim, dim)  # (step, member) order
        self.members, self.stacked = members, stacked
        self.trace_tol, self.eig_floor = trace_tol, eig_floor
        self.floor = eig_floor * np.eye(dim)
        self.max_trace_drift = np.abs(rho0.trace(axis1=-2, axis2=-1).real - 1.0).max()
        self.max_trace_drift_step = 0

    def check(self, first_step: int, filled: int) -> None:
        """Test the first filled slots, the states of first_step on; raise
        for the first that fails."""
        states = self.flat[: filled * self.members]
        drift = np.abs(states.trace(axis1=-2, axis2=-1).real - 1.0)
        traced = drift <= self.trace_tol
        n_traced = len(traced) if traced.all() else int(np.argmin(traced))
        failure = self._below_floor(states[:n_traced])
        if failure is None and n_traced < len(traced):
            failure = n_traced, (
                f"trace drift {drift[n_traced]:.3e} exceeds {self.trace_tol:.1e}"
                if math.isfinite(drift[n_traced])
                else "non-finite density matrix"
            )
        if failure is not None:
            step, member = divmod(failure[0], self.members)
            raise PropagationDiagnosticsError(
                failure[1], first_step + step, member if self.stacked else None
            )
        if np.max(drift, initial=self.max_trace_drift) > self.max_trace_drift:
            worst = int(np.argmax(drift))
            self.max_trace_drift = drift[worst]
            self.max_trace_drift_step = first_step + worst // self.members

    def _below_floor(self, states: np.ndarray) -> tuple[int, str] | None:
        """(index, message) of the first state that is not finite or has an
        eigenvalue below eig_floor; None if there is none."""
        finite = np.isfinite(states).all(axis=(1, 2))
        if finite.all():
            try:  # succeeds iff every smallest eigenvalue is above eig_floor
                np.linalg.cholesky(states - self.floor)
                return None
            except np.linalg.LinAlgError:
                pass
        n_finite = len(finite) if finite.all() else int(np.argmin(finite))
        min_eigs = np.linalg.eigvalsh(states[:n_finite]).min(axis=1)
        bad = np.flatnonzero(~(min_eigs >= self.eig_floor))
        if bad.size:
            eig = min_eigs[bad[0]]
            return int(bad[0]), f"negative eigenvalue {eig:.3e} below {self.eig_floor:.1e}"
        return (n_finite, "non-finite density matrix") if n_finite < len(finite) else None


# The drive is evaluated once per this many RK4 steps, at all of their
# stage times in one call.
DRIVE_BLOCK_STEPS = 512

# The most RK4 steps of one integration, over 250 times the 37,445 of
# configs/device_derived.cfg; a window that needs more is refused before the
# first step.
MAX_STEPS = 10_000_000


def _step_count(span_ps: float, time_step_ps: float, extended: bool = False) -> int:
    """The steps of at most time_step_ps over a window of span_ps ps; more
    than MAX_STEPS raise StepCountError, which carries extended."""
    steps = span_ps / time_step_ps - 1e-12
    if not steps <= MAX_STEPS:
        raise StepCountError(
            f"the {span_ps:.6g} ps window needs {steps:.3g} steps of "
            f"{time_step_ps:.3g} ps, more than {MAX_STEPS}",
            extended,
        )
    return max(int(math.ceil(steps)), 0)


def _stage_amplitudes(
    drive: Callable[[np.ndarray], np.ndarray], t_start_ps: float, dt: float, n_steps: int
) -> Iterator[np.ndarray]:
    """The drive at each step's t, t + dt/2 and t + dt, as (K, 3, N) blocks
    of K = DRIVE_BLOCK_STEPS steps (the last block may be shorter), with
    t = t_start + (step - 1) dt."""
    for first in range(0, n_steps, DRIVE_BLOCK_STEPS):
        t = t_start_ps + np.arange(first, min(first + DRIVE_BLOCK_STEPS, n_steps)) * dt
        times = np.stack((t, t + 0.5 * dt, t + dt), axis=-1)
        yield np.reshape(drive(times.ravel()), (*times.shape, -1))


def _stage_loop(
    rho: np.ndarray,
    generator: Generator,
    amplitudes: Iterator[np.ndarray] | None,
    dt: float,
    n_steps: int,
    check: _StepCheck,
    sample: Callable[[int, np.ndarray], None],
    stride: int,
) -> np.ndarray:
    """The RK4 steps of the (B, d, d) stack rho as four stages per step,
    each a stage_apply stage bound once for the run; returns the final
    stack.  amplitudes are _stage_amplitudes' blocks (None: no drive),
    written by stage_hamiltonians into one buffer of each checked batch's
    stage Hamiltonians."""
    dim = rho.shape[-1]
    # each step's H at t, t + dt/2 and t + dt, one checked batch of steps
    # at a time, in a buffer that holds H0 and whose views are bound once
    hamiltonians = np.broadcast_to(generator.h0, (check.size, 3, dim, dim)).copy()
    batch_hamiltonians = [tuple(h) for h in hamiltonians]
    if amplitudes is None:
        writes = itertools.repeat(None)
    else:
        writes = stage_hamiltonians(generator, amplitudes, hamiltonians)
    apply = stage_apply(generator, rho.shape)
    apply_doubled = stage_apply(generator.doubled(), rho.shape)  # for 2 k2 and 2 k3
    k = np.empty((4, *rho.shape), dtype=complex)  # k1, 2 k2, 2 k3, k4
    k1, k2, k3, k4 = k
    # each stage's input, rho + scale * k, and the check's slots, C-ordered
    # whatever rho's layout, so that their row views are bound once
    stage = np.empty(rho.shape, dtype=complex)
    stage_rows = stage.reshape(-1, dim)
    slots = [(slot, slot.reshape(-1, dim)) for slot in check.states]
    rows = rho.reshape(-1, dim)  # a copy if rho is not C-ordered: rho is only read
    add, multiply, reduce = np.add, np.multiply, np.add.reduce
    # 0-d complex arrays, which numpy multiplies by without converting them
    quarter_dt, half_dt, sixth_dt = (
        np.array(complex(x)) for x in (0.25 * dt, 0.5 * dt, dt / 6.0)
    )
    for first in range(0, n_steps, check.size):
        last = min(first + check.size, n_steps)
        next(writes)
        batch = zip(range(first + 1, last + 1), slots, batch_hamiltonians)
        for step, (slot, slot_rows), (h_start, h_mid, h_end) in batch:
            apply(rows, h_start, k1)
            add(multiply(k1, half_dt, stage), rho, stage)
            apply_doubled(stage_rows, h_mid, k2)
            add(multiply(k2, quarter_dt, stage), rho, stage)
            apply_doubled(stage_rows, h_mid, k3)
            add(multiply(k3, half_dt, stage), rho, stage)
            apply(stage_rows, h_end, k4)
            # rho + (dt/6) (((k1 + 2 k2) + 2 k3) + k4); the slot may hold rho
            reduce(k, 0, None, stage)
            multiply(stage, sixth_dt, stage)
            rho, rows = add(stage, rho, slot), slot_rows
            if step % stride == 0 or step == n_steps:
                sample(step, rho)
        check.check(first + 1, last - first)
    return rho


def _map_loop(
    rho: np.ndarray,
    generator: Generator,
    amplitudes: Iterator[np.ndarray] | None,
    dt: float,
    n_steps: int,
    check: _StepCheck,
    sample: Callable[[int, np.ndarray], None],
    stride: int,
) -> np.ndarray:
    """The RK4 steps of the (B, d, d) stack rho in the map form, as
    x + x E with one vector-matrix product x E per member and step of its
    hermitian_coordinates x; returns the final stack.  Each checked batch
    builds its stage generators from its amplitudes (None: no drive) with
    one product, its step increments E with step_maps, and then, after its
    steps, its states with one product into the step check's slots."""
    members, dim = rho.shape[0], rho.shape[-1]
    size = dim * dim
    columns, rebuild = hermitian_coordinates(dim)
    l0, drive = map_generator(generator)
    stages = np.empty((check.size, 3, size, size))  # L1, L2, L3, then E over L1
    work = np.empty((2, check.size, size, size))
    coordinates = np.empty((check.size, members, 1, size))  # each step's x
    delta = np.empty((members, 1, size))  # each step's x E
    slots = list(coordinates)
    states = check.states.view(float).reshape(check.size * members, 2 * size)
    x = np.ascontiguousarray(rho).view(float).reshape(members, 1, 2 * size)[..., columns]
    groups = itertools.repeat(None) if amplitudes is None else _batches(amplitudes, check.size)
    for first in range(0, n_steps, check.size):
        last = min(first + check.size, n_steps)
        m, f = last - first, next(groups)
        batch = stages[:m]
        if f is None:
            batch[...] = l0
        else:
            f = np.concatenate((np.real(f), np.imag(f)), axis=-1).reshape(3 * m, -1)
            np.matmul(f, drive, batch.reshape(3 * m, -1))
            batch += l0
        for slot, increment in zip(slots, step_maps(batch, dt, work)):
            x = np.add(x, np.matmul(x, increment, delta), slot)
        np.matmul(coordinates[:m].reshape(m * members, size), rebuild, states[: m * members])
        for step in range(first + 1, last + 1):
            if step % stride == 0 or step == n_steps:
                sample(step, check.states[step - first - 1])
        check.check(first + 1, m)
    return check.states[m - 1] if n_steps else rho


def integrate_master_equation(
    rho0: np.ndarray,
    h0_diag_mev: np.ndarray,
    drive: Callable[[np.ndarray], np.ndarray] | None,
    channels: Sequence[LindbladChannel],
    t_start_ps: float,
    t_end_ps: float,
    config: SimulationConfig,
    reference_energy_ev: float = 0.0,
) -> Trajectory:
    """Fixed-step integration of the master equation over [t_start, t_end].

    rho0 is one (d, d) density matrix or a (B, d, d) stack of them, which
    share every step; the loop holds a single rho as a stack of one.
    drive maps a 1-D array of times to the (T, N) per-dot amplitudes there
    (None: no drive).  It is called once per DRIVE_BLOCK_STEPS steps.  With
    channels on at most LIOUVILLE_MAX_DIM basis states the run takes the
    map form (_map_loop), else the stage loop (_stage_loop), whose
    stage_hamiltonians writes the three stage Hamiltonians of each checked
    batch of steps into one buffer.  The requested step is shrunk to divide
    the window exactly; a window of over MAX_STEPS steps raises
    StepCountError.  rho0 is Hermitized once; every state is then exactly
    Hermitian.  The trace is never re-normalized, its drift is a
    diagnostic.  Every step's state is tested for trace drift and
    positivity, in batches (_StepCheck).  A failure raises
    PropagationDiagnosticsError naming the earliest failing step, and for a
    stack the lowest failing member at that step; a non-finite state fails
    too.  Samples are taken every sample_stride steps plus the final step.
    """
    rho = np.asarray(rho0, dtype=complex)
    validate_density_matrix(rho)
    rho = 0.5 * (rho + rho.swapaxes(-1, -2).conj())  # exactly Hermitian from here on
    single = rho.ndim == 2
    rho = rho.reshape(-1, *rho.shape[-2:])
    dim = rho.shape[-1]
    n_qubits = dim.bit_length() - 1
    if 2**n_qubits != dim:
        raise InvalidParameterError("state dimension must be a power of two")
    h0 = np.asarray(h0_diag_mev, dtype=float)
    if h0.shape != (dim,):
        raise InvalidParameterError("diagonal Hamiltonian does not match state size")
    generator = build_generator(h0, channels)
    map_form = generator.dissipator is not None and dim <= LIOUVILLE_MAX_DIM

    span = t_end_ps - t_start_ps
    if span < 0:
        raise InvalidParameterError("integration window must not be reversed")
    n_steps = _step_count(span, config.time_step_ps)
    dt = span / n_steps if n_steps else 0.0

    pair = config.coherence_pair if config.coherence_pair is not None else (0, dim - 1)
    if not (0 <= pair[0] < dim and 0 <= pair[1] < dim):
        raise InvalidParameterError(f"coherence pair {pair} out of range")
    occupation_masks = bit_table(n_qubits).T.astype(float, order="C")

    times, pops, occs, cohs = [], [], [], []

    def sample(step, state):
        times.append(t_start_ps + step * dt)
        diag = np.real(np.diagonal(state, axis1=-2, axis2=-1))
        pops.append(diag.copy())  # state may be a reused buffer slot
        occs.append([diag @ m for m in occupation_masks])
        cohs.append(state[:, pair[0], pair[1]].copy())

    # bytes of the loop's stage buffers per step: 3 complex (d, d) stage
    # Hamiltonians, or 5 real (d^2, d^2) matrices in the map form
    step_bytes = 40 * dim**4 if map_form else 48 * dim**2
    check = _StepCheck(rho, config.trace_tol, config.eig_floor, not single, step_bytes)
    sample(0, rho)
    amplitudes = None
    if drive is not None:
        amplitudes = _stage_amplitudes(drive, t_start_ps, dt, n_steps)
    loop = _map_loop if map_form else _stage_loop
    rho = loop(rho, generator, amplitudes, dt, n_steps, check, sample, config.sample_stride)

    member = 0 if single else slice(None)  # a single state drops the member axis
    return Trajectory(
        times_ps=np.array(times),
        populations=np.array(pops)[:, member],
        occupations=np.moveaxis(np.array(occs), 1, -1)[:, member],
        coherences=np.array(cohs)[:, member],
        coherence_pair=pair,
        final_state=rho[member].copy(),
        final_time_ps=times[-1],
        reference_energy_ev=reference_energy_ev,
        h0_diag_mev=h0,
        n_steps=n_steps,
        max_trace_drift=check.max_trace_drift,
        max_trace_drift_step=check.max_trace_drift_step,
    )


def default_reference_energy(
    sequence: PulseSequence, register: ExcitonRegister
) -> float:
    """Rotating-frame reference: exciton energy of the first pulse's dot, else dot 0's."""
    dot = sequence.pulses[0].target_dipole if len(sequence) > 0 else 0
    return float(register.exciton_energies_ev[dot])


def propagate(
    rho0: np.ndarray,
    sequence: PulseSequence,
    register: ExcitonRegister,
    channels: Sequence[LindbladChannel] = (),
    config: SimulationConfig | None = None,
) -> Trajectory:
    """Propagate the register state, or a (B, d, d) stack of states,
    through a pulse sequence.

    Builds the Hamiltonian shifted by the reference energy per exciton and
    the rotating-frame drive from field_at, then runs the fixed-step
    integrator, with the channels' dissipator, over the sequence span
    (extended to duration_ps when configured).  A window of over MAX_STEPS
    steps raises StepCountError before any step, with extended telling
    whether duration_ps set the window.
    """
    config = config or SimulationConfig()
    tau_min = min((p.tau_ps for p in sequence), default=math.inf)
    if config.time_step_ps > tau_min / 20.0:
        raise TimeStepError(
            f"time step {config.time_step_ps} ps too coarse: must be at most "
            f"tau_min/20 = {tau_min / 20.0:.3e} ps"
        )
    ref = config.reference_energy_ev
    if ref is None:
        ref = default_reference_energy(sequence, register)
    occupancy = bit_table(register.n_qubits).sum(axis=1).astype(float)
    h0 = (build_hamiltonian(register) - ref * occupancy) * units.MEV_PER_EV

    def drive(times: np.ndarray) -> np.ndarray:
        return field_at(sequence, register.transition_dipoles, ref, times)

    t_start, t_end = min(0.0, sequence.start_ps), sequence.end_ps  # 0.0 without pulses
    extended = config.duration_ps is not None and t_start + config.duration_ps > t_end
    if extended:
        t_end = t_start + config.duration_ps
    _step_count(t_end - t_start, config.time_step_ps, extended)  # refused before any step

    return integrate_master_equation(
        rho0,
        h0,
        drive if len(sequence) > 0 else None,
        channels,
        t_start,
        t_end,
        config,
        reference_energy_ev=ref,
    )


def purity(rho: np.ndarray) -> float:
    """trace(rho^2), 1 for pure states."""
    return float(np.real(np.trace(rho @ rho)))
