"""Laser pulses and gate-to-pulse compilation.

Logical operations address individual transitions by color: the transition
energy of dot l depends on its neighbors' occupations through the shift
matrix, so a pulse tuned to one conditional frequency rotates only that
branch.  The compiler turns gate specifications into Gaussian pulse
sequences and enforces a spectral selectivity budget: the bandwidth proxy
hbar/tau must stay below a configured fraction of the smallest gap between
the addressed conditional frequency and the other conditional frequencies
of the same dot.

Pulse phase convention: compiled pulses carry phase pi/2, which makes a
resonant pulse of area theta act as the real rotation
R(theta) = [[cos(theta/2), -sin(theta/2)], [sin(theta/2), cos(theta/2)]]
on its branch (in the interaction picture of the static Hamiltonian).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import units
from .errors import CompileError, InvalidGateError, InvalidParameterError
from .model import ExcitonRegister, occupations_of_index, renormalized_energy

ENVELOPE_CUTOFF = 4.0  # Gaussian envelopes are truncated at +- 4 tau
COMPILED_PHASE_RAD = math.pi / 2.0

GATE_KINDS = ("rotation", "conditional-rotation", "cnot", "unconditional-not")


@dataclass(frozen=True)
class Pulse:
    """One Gaussian pulse.

    area_rad is the on-resonance Rabi angle integrated over the envelope,
    defined for the dot named by target_dipole.  Under global addressing
    every dot is illuminated, scaled by its dipole ratio; under local
    addressing only target_dipole couples.
    """

    carrier_energy_ev: float
    center_ps: float
    tau_ps: float
    area_rad: float
    phase_rad: float = COMPILED_PHASE_RAD
    target_dipole: int = 0

    def __post_init__(self):
        if not 0 < self.tau_ps < math.inf:
            raise InvalidParameterError("pulse duration must be positive and finite")
        if not 0 <= self.area_rad < math.inf:
            raise InvalidParameterError("pulse area must be non-negative and finite")
        if not 0 < self.carrier_energy_ev < math.inf:
            raise InvalidParameterError("carrier energy must be positive and finite")
        if not (math.isfinite(self.center_ps) and math.isfinite(self.phase_rad)):
            raise InvalidParameterError("pulse center and phase must be finite")

    @property
    def start_ps(self) -> float:
        return self.center_ps - ENVELOPE_CUTOFF * self.tau_ps

    @property
    def end_ps(self) -> float:
        return self.center_ps + ENVELOPE_CUTOFF * self.tau_ps

    def envelope(self, t: float) -> float:
        """Truncated Gaussian envelope, peak 1 at the center time."""
        dt = t - self.center_ps
        if abs(dt) > ENVELOPE_CUTOFF * self.tau_ps:
            return 0.0
        return math.exp(-0.5 * (dt / self.tau_ps) ** 2)


@dataclass(frozen=True)
class PulseSequence:
    """Time-ordered pulses; the executable program of the simulator."""

    pulses: tuple[Pulse, ...]

    def __post_init__(self):
        object.__setattr__(self, "pulses", tuple(self.pulses))

    def __len__(self) -> int:
        return len(self.pulses)

    def __iter__(self):
        return iter(self.pulses)

    @property
    def start_ps(self) -> float:
        return min((p.start_ps for p in self.pulses), default=0.0)

    @property
    def end_ps(self) -> float:
        return max((p.end_ps for p in self.pulses), default=0.0)

    @property
    def total_span_ps(self) -> float:
        return self.end_ps - self.start_ps

    def concatenate(self, other: "PulseSequence") -> "PulseSequence":
        return PulseSequence(self.pulses + other.pulses)


@dataclass(frozen=True)
class GateSpec:
    """Logical gate request: kind, target dot, angle, control conditions."""

    kind: str
    target: int
    angle: float = math.pi
    conditions: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise InvalidGateError(f"unknown gate kind {self.kind!r}")
        if not 0.0 <= self.angle <= 2.0 * math.pi:
            raise InvalidGateError("gate angle must lie in [0, 2 pi]")
        conds = tuple((int(d), int(o)) for d, o in self.conditions)
        object.__setattr__(self, "conditions", conds)
        seen = set()
        for dot, occ in conds:
            if dot == self.target:
                raise InvalidGateError("a gate cannot be conditioned on its target")
            if occ not in (0, 1):
                raise InvalidGateError("condition occupations must be 0 or 1")
            if dot in seen:
                raise InvalidGateError(f"duplicate condition on dot {dot}")
            seen.add(dot)
        if self.kind == "cnot":
            if len(conds) != 1 or conds[0][1] != 1:
                raise InvalidGateError(
                    "cnot requires exactly one control conditioned on occupation 1"
                )
        if self.kind == "unconditional-not" and conds:
            raise InvalidGateError("unconditional-not takes no conditions")


@dataclass(frozen=True)
class TimingPolicy:
    """How the compiler chooses pulse durations and start times.

    tau_ps None means: derive the duration from the selectivity budget
    (hbar / (fraction * smallest gap)); an explicit tau is validated
    against the same budget.  Gates on dots with no competing conditional
    frequency fall back to fallback_tau_ps.
    """

    tau_ps: float | None = None
    selectivity_fraction: float = 0.25
    start_ps: float | None = None
    fallback_tau_ps: float = 0.1
    gap_factor: float = 8.0  # center-to-center spacing in units of tau

    def __post_init__(self):
        if self.tau_ps is not None and not 0 < self.tau_ps < math.inf:
            raise InvalidParameterError("tau must be positive and finite")
        for name in ("selectivity_fraction", "fallback_tau_ps", "gap_factor"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidParameterError(f"{name} must be positive and finite")


def conditional_frequency(
    register: ExcitonRegister,
    target: int,
    conditions: Mapping[int, int] | Iterable[tuple[int, int]] = (),
) -> float:
    """Occupation-conditioned transition energy of the target dot, eV.

    Dots not named in the conditions are taken empty.
    """
    cond = dict(conditions.items() if isinstance(conditions, Mapping) else conditions)
    if target in cond:
        raise InvalidGateError("conditions must not constrain the target dot")
    return renormalized_energy(register, target, cond)


def conditional_frequencies(register: ExcitonRegister, target: int) -> list[float]:
    """All conditional transition energies of one dot, ascending, eV.

    Enumerates occupation patterns of the dots coupled to the target
    (nonzero shift), which is where the frequency branches come from.
    """
    n = register.n_qubits
    coupled = [
        l for l in range(n) if l != target and register.shift_matrix_mev[target, l] != 0.0
    ]
    freqs = set()
    for pattern in range(2 ** len(coupled)):
        cond = {dot: (pattern >> i) & 1 for i, dot in enumerate(coupled)}
        freqs.add(conditional_frequency(register, target, cond))
    return sorted(freqs)


def _min_gap_mev(register: ExcitonRegister, target: int, addressed_ev: float) -> float:
    gaps = [
        abs(f - addressed_ev) * units.MEV_PER_EV
        for f in conditional_frequencies(register, target)
        if f != addressed_ev
    ]
    return min(gaps) if gaps else math.inf


def required_tau_ps(
    register: ExcitonRegister,
    target: int,
    addressed_ev: float,
    selectivity_fraction: float,
) -> float:
    """Minimum duration keeping hbar/tau below the fraction of the gap."""
    gap = _min_gap_mev(register, target, addressed_ev)
    if math.isinf(gap):
        return 0.0
    return units.HBAR_MEV_PS / (selectivity_fraction * gap)


def pulse_amplitude(pulse: Pulse, dipole: float) -> float:
    """Peak Rabi energy (meV) that integrates the envelope to the area.

    Omega_0 tau sqrt(2 pi) / hbar = area.  The dipole must be positive for
    the pulse to be realizable at all; it scales the required field, not
    the Rabi energy at the calibrated dot.
    """
    if dipole <= 0:
        raise InvalidParameterError("cannot drive a dot with zero transition dipole")
    return pulse.area_rad * units.HBAR_MEV_PS / (pulse.tau_ps * math.sqrt(2.0 * math.pi))


def _branch_patterns(register: ExcitonRegister, spec: GateSpec) -> list[dict[int, int]]:
    if spec.kind in ("rotation", "conditional-rotation"):
        return [dict(spec.conditions)]
    if spec.kind == "cnot":
        return [dict(spec.conditions)]
    # unconditional-not: one color per occupation pattern of coupled neighbors
    coupled = [
        l
        for l in range(register.n_qubits)
        if l != spec.target and register.shift_matrix_mev[spec.target, l] != 0.0
    ]
    if len(coupled) > 4:
        raise CompileError(
            f"unconditional-not on dot {spec.target} would need "
            f"2^{len(coupled)} colors; at most 4 coupled neighbors are supported"
        )
    return [
        {dot: (pattern >> i) & 1 for i, dot in enumerate(coupled)}
        for pattern in range(2 ** len(coupled))
    ]


def compile_gate(
    register: ExcitonRegister,
    spec: GateSpec,
    policy: TimingPolicy = TimingPolicy(),
) -> PulseSequence:
    """Compile one gate into its pulse sequence.

    Rotations become a single pulse at the conditional frequency with area
    equal to the angle; cnot becomes a pi pulse conditioned on its control;
    unconditional-not emits one pi pulse per neighbor-occupation branch,
    ordered by ascending carrier energy and spaced gap_factor * tau apart.
    """
    angle = math.pi if spec.kind in ("cnot", "unconditional-not") else spec.angle
    patterns = _branch_patterns(register, spec)
    carriers = sorted(
        conditional_frequency(register, spec.target, pat) for pat in patterns
    )
    tau_required = max(
        required_tau_ps(register, spec.target, c, policy.selectivity_fraction)
        for c in carriers
    )
    if policy.tau_ps is None:
        tau = tau_required if tau_required > 0 else policy.fallback_tau_ps
    else:
        tau = policy.tau_ps
        if tau < tau_required * (1.0 - 1e-12):
            raise CompileError(
                f"pulse duration {tau} ps is too short to resolve the "
                f"conditional frequencies of dot {spec.target}",
                required_tau_ps=tau_required,
            )
    first_center = (
        policy.start_ps if policy.start_ps is not None else ENVELOPE_CUTOFF * tau
    )
    pulses = [
        Pulse(
            carrier_energy_ev=carrier,
            center_ps=first_center + i * policy.gap_factor * tau,
            tau_ps=tau,
            area_rad=angle,
            phase_rad=COMPILED_PHASE_RAD,
            target_dipole=spec.target,
        )
        for i, carrier in enumerate(carriers)
    ]
    return PulseSequence(tuple(pulses))


def compile_program(
    register: ExcitonRegister,
    entries: Sequence[tuple[GateSpec, float | None]],
    policy: TimingPolicy = TimingPolicy(),
) -> PulseSequence:
    """Compile a gate list into one sequence.

    Each entry is (gate, start_ps or None).  Explicit start times place the
    gate's first pulse center; None schedules it gap_factor * tau after the
    previous gate's last pulse (or at 4 tau for the first gate).
    """
    pulses: list[Pulse] = []
    cursor: float | None = None
    for gate_index, (spec, start) in enumerate(entries):
        try:
            if start is None:
                start = cursor  # None for the very first gate: compile default
            gate_policy = TimingPolicy(
                tau_ps=policy.tau_ps,
                selectivity_fraction=policy.selectivity_fraction,
                start_ps=start,
                fallback_tau_ps=policy.fallback_tau_ps,
                gap_factor=policy.gap_factor,
            )
            seq = compile_gate(register, spec, gate_policy)
        except (CompileError, InvalidGateError) as err:
            raise CompileError(f"gate {gate_index + 1}: {err}") from err
        pulses.extend(seq.pulses)
        last = seq.pulses[-1]
        cursor = last.center_ps + policy.gap_factor * last.tau_ps
    return PulseSequence(tuple(pulses))


def field_at(
    sequence: PulseSequence,
    t: float,
    dipoles: Sequence[float],
    frame: str = "lab",
    reference_energy_ev: float | None = None,
    addressing: str = "global",
) -> np.ndarray:
    """Per-dot drive amplitude at time t, meV.

    Lab frame: the real Rabi energy sum_p Omega_p(t) cos(omega_p t + phi_p)
    seen by each dot.  Rotating frame: the complex half-amplitude
    sum_p Omega_p(t)/2 exp(-i ((omega_p - omega_ref) t + phi_p)) relative to
    the declared reference carrier; its conjugate drives the lowering part.
    """
    if frame not in ("lab", "rotating"):
        raise InvalidParameterError(f"unknown frame {frame!r}")
    if addressing not in ("global", "local"):
        raise InvalidParameterError(f"unknown addressing mode {addressing!r}")
    if frame == "rotating" and reference_energy_ev is None:
        raise InvalidParameterError("rotating frame requires a reference energy")
    dipoles = np.asarray(dipoles, dtype=float)
    n = dipoles.size
    out = np.zeros(n, dtype=float if frame == "lab" else complex)
    for pulse in sequence:
        env = pulse.envelope(t)
        if env == 0.0:
            continue
        omega0 = pulse_amplitude(pulse, dipoles[pulse.target_dipole])
        if frame == "lab":
            omega_opt = pulse.carrier_energy_ev * units.MEV_PER_EV / units.HBAR_MEV_PS
            value = omega0 * env * math.cos(omega_opt * t + pulse.phase_rad)
        else:
            detuning = (
                (pulse.carrier_energy_ev - reference_energy_ev)
                * units.MEV_PER_EV
                / units.HBAR_MEV_PS
            )
            value = (
                0.5
                * omega0
                * env
                * np.exp(-1j * (detuning * t + pulse.phase_rad))
            )
        if addressing == "local":
            out[pulse.target_dipole] += value
        else:
            out += value * dipoles / dipoles[pulse.target_dipole]
    return out


def _rotation_block(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]])


def ideal_gate_unitary(register: ExcitonRegister, spec: GateSpec) -> np.ndarray:
    """Unitary an ideally selective compiled gate implements on 2^N space.

    A resonant pulse of area theta and phase pi/2 is the real rotation
    R(theta) on its branch.  Branches at other conditional frequencies stay
    untouched, so a rotation acts only where its unconditioned coupled
    neighbors are empty; dots not coupled to the target are frequency
    degenerate with the addressed branch and rotate along.
    unconditional-not rotates every branch.
    """
    n = register.n_qubits
    dim = 2**n
    u = np.zeros((dim, dim))
    angle = math.pi if spec.kind in ("cnot", "unconditional-not") else spec.angle
    block = _rotation_block(angle)
    bit = 1 << spec.target
    conditions = dict(spec.conditions)
    unconditional = spec.kind == "unconditional-not"
    for idx in range(dim):
        if idx & bit:
            continue
        bits = occupations_of_index(idx, n)
        selected = True
        if not unconditional:
            for dot in range(n):
                if dot == spec.target:
                    continue
                if dot in conditions:
                    required = conditions[dot]
                elif register.shift_matrix_mev[spec.target, dot] != 0.0:
                    required = 0  # addressed carrier assumes empty neighbors
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
