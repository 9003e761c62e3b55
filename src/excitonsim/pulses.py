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
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import units
from .errors import (
    CompileError,
    InvalidGateError,
    InvalidParameterError,
    ZeroDipoleError,
)
from .model import (
    ExcitonRegister,
    bit_table,
    check_dot,
    flip_pairs,
    renormalized_energy,
)

ENVELOPE_CUTOFF = 4.0  # Gaussian envelopes are truncated at +- 4 tau
# Conditional frequencies closer than this are one branch: rounding splits
# equal sums by ~1e-12 meV, physical splittings are 1e-3 meV or more.
SAME_BRANCH_MEV = 1e-9
COMPILED_PHASE_RAD = math.pi / 2.0

GATE_KINDS = ("rotation", "conditional-rotation", "cnot", "unconditional-not")


@dataclass(frozen=True)
class Pulse:
    """One Gaussian pulse.

    area_rad is the on-resonance Rabi angle integrated over the envelope,
    defined for the dot named by target_dipole.  Every dot is illuminated,
    scaled by its dipole ratio.
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


def _coupled(register: ExcitonRegister, target: int) -> list[int]:
    """Dots whose occupation shifts the target's transition (nonzero shift)."""
    return [
        l for l in range(register.n_qubits)
        if l != target and register.shift_matrix_mev[target, l] != 0.0
    ]


def _branches(
    register: ExcitonRegister, target: int, dots: Sequence[int]
) -> list[tuple[float, list[dict[int, int]]]]:
    """The target's conditional frequencies over every occupation pattern of
    dots, ascending, each with the patterns that sit at it.

    Frequencies closer than SAME_BRANCH_MEV are one branch, kept at the
    lowest of them.
    """
    patterns = [dict(zip(dots, map(int, row))) for row in bit_table(len(dots))]
    found = sorted(
        ((conditional_frequency(register, target, p), p) for p in patterns),
        key=lambda item: item[0],
    )
    branches: list[tuple[float, list[dict[int, int]]]] = []
    for freq, pattern in found:
        gap_mev = (freq - branches[-1][0]) * units.MEV_PER_EV if branches else math.inf
        if gap_mev <= SAME_BRANCH_MEV:
            branches[-1][1].append(pattern)
        else:
            branches.append((freq, [pattern]))
    return branches


def conditional_frequencies(register: ExcitonRegister, target: int) -> list[float]:
    """All conditional transition energies of one dot, ascending, eV.

    Enumerates occupation patterns of the dots coupled to the target
    (nonzero shift), which is where the frequency branches come from;
    frequencies that differ only by rounding count once.
    """
    branches = _branches(register, target, _coupled(register, target))
    return [freq for freq, _ in branches]


def _gap_mev(freqs: Sequence[float], i: int) -> float:
    """Distance from branch i to its nearest neighbour branch, meV."""
    near = [freqs[j] for j in (i - 1, i + 1) if 0 <= j < len(freqs)]
    return min((abs(f - freqs[i]) * units.MEV_PER_EV for f in near), default=math.inf)


def required_tau_ps(gap_mev: float, selectivity_fraction: float) -> float:
    """Minimum duration keeping hbar/tau below the fraction of the gap.

    0 for an unbounded gap: there is nothing to resolve.
    """
    if math.isinf(gap_mev):
        return 0.0
    return units.HBAR_MEV_PS / (selectivity_fraction * gap_mev)


def pulse_amplitude(pulse: Pulse, dipole: float) -> float:
    """Peak Rabi energy (meV) that integrates the envelope to the area.

    Omega_0 tau sqrt(2 pi) / hbar = area.  The dipole must be positive for
    the pulse to be realizable at all; it scales the required field, not
    the Rabi energy at the calibrated dot.
    """
    if dipole <= 0:
        raise InvalidParameterError("cannot drive a dot with zero transition dipole")
    return pulse.area_rad * units.HBAR_MEV_PS / (pulse.tau_ps * math.sqrt(2.0 * math.pi))


def _addressed_pattern(
    register: ExcitonRegister, spec: GateSpec
) -> dict[int, int]:
    """Neighbour occupations a conditional gate's carrier selects: its
    conditions, with the other coupled dots empty."""
    pattern = {dot: 0 for dot in _coupled(register, spec.target)}
    pattern.update(spec.conditions)
    return pattern


def _pattern_text(pattern: Mapping[int, int]) -> str:
    return ", ".join(f"n_{dot}={occ}" for dot, occ in sorted(pattern.items()))


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

    A pulse rotates every neighbour pattern at its carrier, so a gate that
    must leave a pattern at the addressed frequency untouched (a condition
    on a dot that does not shift the target, or two patterns whose shifts
    sum alike) needs an infinite duration and raises CompileError.  Pulse
    areas are calibrated on the target's dipole, so a target with zero
    dipole raises ZeroDipoleError.
    """
    if register.transition_dipoles[spec.target] == 0.0:
        raise ZeroDipoleError(spec.target)
    angle = math.pi if spec.kind in ("cnot", "unconditional-not") else spec.angle
    coupled = _coupled(register, spec.target)
    if spec.kind == "unconditional-not":
        if len(coupled) > 4:
            raise CompileError(
                f"unconditional-not on dot {spec.target} would need "
                f"2^{len(coupled)} colors; at most 4 coupled neighbors are supported"
            )
        branches = _branches(register, spec.target, coupled)
        addressed = range(len(branches))
    else:
        wanted = _addressed_pattern(register, spec)
        branches = _branches(register, spec.target, list(wanted))
        (i,) = (i for i, (_, patterns) in enumerate(branches) if wanted in patterns)
        addressed = [i]
        others = [pattern for pattern in branches[i][1] if pattern != wanted]
        if others:
            raise CompileError(
                f"dot {spec.target} has the same transition energy with "
                f"{_pattern_text(others[0])} as with {_pattern_text(wanted)}, "
                "so no pulse resolves the condition",
                required_tau_ps=math.inf,
            )
    freqs = [freq for freq, _ in branches]
    tau_required = max(
        required_tau_ps(_gap_mev(freqs, i), policy.selectivity_fraction)
        for i in addressed
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
            carrier_energy_ev=freqs[i],
            center_ps=first_center + k * policy.gap_factor * tau,
            tau_ps=tau,
            area_rad=angle,
            phase_rad=COMPILED_PHASE_RAD,
            target_dipole=spec.target,
        )
        for k, i in enumerate(addressed)
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
            seq = compile_gate(register, spec, replace(policy, start_ps=start))
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
) -> np.ndarray:
    """Per-dot drive amplitude at time t, meV; each pulse reaches every dot,
    scaled by that dot's dipole over the dipole of its target_dipole.

    Lab frame: the real Rabi energy sum_p Omega_p(t) cos(omega_p t + phi_p)
    seen by each dot.  Rotating frame: the complex half-amplitude
    sum_p Omega_p(t)/2 exp(-i ((omega_p - omega_ref) t + phi_p)) relative to
    the declared reference carrier; its conjugate drives the lowering part.
    """
    if frame not in ("lab", "rotating"):
        raise InvalidParameterError(f"unknown frame {frame!r}")
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
        out += value * dipoles / dipoles[pulse.target_dipole]
    return out


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
    bits = bit_table(n)
    angle = math.pi if spec.kind in ("cnot", "unconditional-not") else spec.angle
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    check_dot(spec.target, n)
    low, high, flipped = flip_pairs(n)
    selected = flipped == spec.target
    if spec.kind != "unconditional-not":
        for dot, occ in _addressed_pattern(register, spec).items():
            check_dot(dot, n)
            selected &= bits[low, dot] == occ
    j0, j1 = low[selected], high[selected]
    u = np.eye(2**n)
    u[j0, j0] = c
    u[j1, j0] = s
    u[j0, j1] = -s
    u[j1, j1] = c
    return u
