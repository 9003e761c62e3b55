"""Device-level electronic structure.

Computes field-displaced single-particle ground states, direct Coulomb
integrals between carrier charge densities, ground-exciton energies, and
inter-dot biexcitonic shifts for a stack of quantum dots.

One carrier model: each electron or hole (ChargeDensity, built by
carrier_density) is the ground state of a parabolic in-plane trap, an
isotropic Gaussian displaced by a static in-plane field along +x, times
the ground state of the dot's infinite square well along the growth (z)
axis.  Only direct Coulomb terms enter.  Inter-dot barriers are wide
enough that single-particle tunneling is neglected, so z supports of
different dots never overlap.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import units
from .errors import ConvergenceError, InvalidPairError, InvalidParameterError
from .model import ExcitonRegister


@dataclass(frozen=True)
class MaterialParams:
    """Bulk material constants; masses in units of the free-electron mass."""

    electron_effective_mass: float
    hole_effective_mass: float
    relative_permittivity: float
    band_gap_ev: float

    def __post_init__(self):
        masses = (self.electron_effective_mass, self.hole_effective_mass)
        if not all(0 < m < math.inf for m in masses):
            raise InvalidParameterError("effective masses must be positive and finite")
        if not 1 <= self.relative_permittivity < math.inf:
            raise InvalidParameterError("relative permittivity must be >= 1 and finite")
        if not 0 < self.band_gap_ev < math.inf:
            raise InvalidParameterError("band gap must be positive and finite")


@dataclass(frozen=True)
class DotGeometry:
    """One dot: in-plane trap energies (meV) and its z square well (nm)."""

    confinement_energy_e_mev: float
    confinement_energy_h_mev: float
    well_width_nm: float
    z_center_nm: float

    def __post_init__(self):
        energies = (self.confinement_energy_e_mev, self.confinement_energy_h_mev)
        if not all(0 < e < math.inf for e in energies):
            raise InvalidParameterError("confinement energies must be finite and > 0")
        if not (0 < self.well_width_nm < math.inf and math.isfinite(self.z_center_nm)):
            raise InvalidParameterError("well width (> 0) and center must be finite")


@dataclass(frozen=True)
class DeviceStructure:
    """Dot stack, inter-dot barriers, material, and applied in-plane field."""

    dots: tuple[DotGeometry, ...]
    barrier_widths_nm: tuple[float, ...]
    material: MaterialParams
    field_kv_cm: float

    def __post_init__(self):
        dots = tuple(self.dots)
        barriers = tuple(float(b) for b in self.barrier_widths_nm)
        object.__setattr__(self, "dots", dots)
        object.__setattr__(self, "barrier_widths_nm", barriers)
        if len(barriers) != max(len(dots) - 1, 0):
            raise InvalidParameterError(
                f"{len(dots)} dots require {len(dots) - 1} barrier widths"
            )
        if not all(0 < b < math.inf for b in barriers):
            raise InvalidParameterError("barrier widths must be positive and finite")
        if not 0 <= self.field_kv_cm < math.inf:
            raise InvalidParameterError("field must be non-negative and finite")
        for i in range(len(dots) - 1):
            lo, hi = dots[i], dots[i + 1]
            if hi.z_center_nm <= lo.z_center_nm:
                raise InvalidParameterError("dots must be ordered by z_center")
            spacing = hi.z_center_nm - lo.z_center_nm
            required = 0.5 * (lo.well_width_nm + hi.well_width_nm) + barriers[i]
            if spacing < required - 1e-9:
                raise InvalidParameterError(
                    f"dots {i} and {i + 1} overlap: spacing {spacing} nm < "
                    f"half-widths plus barrier {required} nm"
                )

    @property
    def n_dots(self) -> int:
        return len(self.dots)


@dataclass(frozen=True)
class ChargeDensity:
    """One carrier's density: an isotropic in-plane Gaussian (center and
    per-axis std, nm) times the ground state of an infinite square well
    along z (center and full width, nm)."""

    charge: int
    inplane_center_nm: tuple[float, float]
    inplane_std_nm: float
    well_center_nm: float
    well_width_nm: float

    def __post_init__(self):
        if self.charge not in (-1, 1):
            raise InvalidParameterError("charge must be +1 or -1 (elementary units)")
        std, center = self.inplane_std_nm, self.inplane_center_nm
        if not (0 < std < math.inf and all(map(math.isfinite, center))):
            raise InvalidParameterError("in-plane std (> 0) and center must be finite")
        if not (0 < self.well_width_nm < math.inf and math.isfinite(self.well_center_nm)):
            raise InvalidParameterError("well width (> 0) and center must be finite")
        object.__setattr__(
            self, "inplane_center_nm", tuple(float(c) for c in self.inplane_center_nm)
        )


def inplane_ground_state(
    material: MaterialParams,
    confinement_energy_mev: float,
    charge_sign: int,
    field_kv_cm: float,
) -> tuple[tuple[float, float], float]:
    """Displaced harmonic ground state of a carrier in the in-plane trap:
    its density's (center_nm, std_nm).

    The static field (along +x) shifts the trap minimum by
    d = q e F / (m omega^2); holes (+1) move along +x, electrons (-1)
    opposite.  The returned std is the per-axis standard deviation of the
    ground-state probability density, sqrt(hbar / (2 m omega)).
    """
    if not 0 < confinement_energy_mev < math.inf:
        raise InvalidParameterError("confinement energy must be positive and finite")
    if charge_sign not in (-1, 1):
        raise InvalidParameterError("charge sign must be +1 or -1")
    if not 0 <= field_kv_cm < math.inf:
        raise InvalidParameterError("field must be non-negative and finite")
    mass = (
        material.hole_effective_mass
        if charge_sign > 0
        else material.electron_effective_mass
    )
    h2m = units.hbar_sq_over_m(mass)  # meV nm^2
    e_field = units.EFIELD_MEV_PER_NM_PER_KV_CM * field_kv_cm  # meV / nm
    displacement = charge_sign * e_field * h2m / confinement_energy_mev**2
    std = math.sqrt(h2m / (2.0 * confinement_energy_mev))
    return (displacement, 0.0), std


def carrier_density(
    structure: DeviceStructure, dot_index: int, species: str
) -> ChargeDensity:
    """Full 3-D density of the electron ('e') or hole ('h') in one dot."""
    if species not in ("e", "h"):
        raise InvalidParameterError(f"species must be 'e' or 'h', got {species!r}")
    dot = structure.dots[dot_index]
    charge = -1 if species == "e" else 1
    conf = (
        dot.confinement_energy_e_mev
        if species == "e"
        else dot.confinement_energy_h_mev
    )
    center, std = inplane_ground_state(
        structure.material, conf, charge, structure.field_kv_cm
    )
    return ChargeDensity(charge, center, std, dot.z_center_nm, dot.well_width_nm)


# ---------------------------------------------------------------------------
# Coulomb integrals
#
# For two carriers (in-plane Gaussian x infinite-well ground state) the 6-D
# direct integral reduces to a single radial Fourier integral,
#
#   J = C q1 q2 / eps_r * int_0^inf dk exp(-k^2 sbar^2/2) J0(k s) Z(k),
#
# where sbar^2 is the summed in-plane variance, s the in-plane center offset
# and Z(k) = <exp(-k |z1 - z2|)> over the two well densities, which is
# analytic for wells that coincide or whose supports are disjoint.
# ---------------------------------------------------------------------------


def _well_factor(k: np.ndarray, width: float) -> np.ndarray:
    """(1 - e^{-kW}) b^2 / (W k (k^2 + b^2)) with b = 2 pi / W; -> 1 at k=0."""
    b = 2.0 * math.pi / width
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -np.expm1(-k * width) * b * b / (width * k * (k * k + b * b))
    return np.where(k == 0.0, 1.0, val)


def _disjoint_wells_kernel(
    w1: float, w2: float, dz: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Z(k) for two non-overlapping wells with center distance dz."""
    gap = abs(dz) - 0.5 * (w1 + w2)

    def kernel(k):
        k = np.asarray(k, dtype=float)
        return np.exp(-k * gap) * _well_factor(k, w1) * _well_factor(k, w2)

    return kernel


def _identical_wells_kernel(width: float) -> Callable[[np.ndarray], np.ndarray]:
    """Z(k) for two carriers sharing the same well.

    Uses the closed-form autocorrelation of the cos^2 ground-state density,
    c(h) = [(W-h)(1 + cos(bh)/2) + 3 sin(bh)/(2b)] / W^2 on 0 <= h <= W.
    """
    w = width
    b = 2.0 * math.pi / w

    def kernel(k):
        k = np.asarray(k, dtype=float)
        core = k * w + np.expm1(-k * w)  # kW - 1 + e^{-kW}, stable near 0
        alpha = k - 1j * b
        i2 = np.real((core - 1j * b * w) / (alpha * alpha))
        i3 = 1.5 * (-np.expm1(-k * w)) / (k * k + b * b)
        with np.errstate(divide="ignore", invalid="ignore"):
            i1 = core / (k * k)
        i1 = np.where(k * w < 1e-6, w * w / 2.0 - k * w**3 / 6.0, i1)
        return (2.0 / (w * w)) * (i1 + 0.5 * i2 + i3)

    return kernel


def _z_pair_kernel(a: ChargeDensity, b: ChargeDensity) -> Callable[[np.ndarray], np.ndarray]:
    dz = abs(a.well_center_nm - b.well_center_nm)
    if dz == 0.0 and a.well_width_nm == b.well_width_nm:
        return _identical_wells_kernel(a.well_width_nm)
    if dz >= 0.5 * (a.well_width_nm + b.well_width_nm):
        return _disjoint_wells_kernel(a.well_width_nm, b.well_width_nm, dz)
    raise InvalidParameterError(
        "partially overlapping square wells are not supported; wells must "
        "either coincide or have disjoint supports"
    )


DEFAULT_COULOMB_REL_TOL = 1e-6


def _radial_integral(
    sbar2: float, offset: float, z_kernel: Callable[[np.ndarray], np.ndarray], rel_tol: float
) -> float:
    """int_0^inf dk exp(-k^2 sbar2 / 2) J0(k offset) Z(k), Z = z_kernel; raises
    ConvergenceError if the quadrature error estimate exceeds rel_tol."""
    from scipy.integrate import quad
    from scipy.special import j0

    def integrand(k):
        return math.exp(-0.5 * k * k * sbar2) * j0(k * offset) * float(z_kernel(k))

    k_max = 9.6 / math.sqrt(sbar2)
    # full_output returns quad's reason for a flagged result instead of
    # warning it, so that the ConvergenceError below is the one report
    value, err_est, _, *reason = quad(
        integrand, 0.0, k_max, epsabs=0.0, epsrel=rel_tol, limit=400, full_output=1
    )
    if err_est > rel_tol * abs(value) + 1e-14:
        raise ConvergenceError(
            "Coulomb quadrature did not converge"
            + "".join(f": {r.splitlines()[0].strip().rstrip('.')}" for r in reason),
            achieved_tol=err_est / abs(value),
        )
    return value


def coulomb_integral(
    a: ChargeDensity,
    b: ChargeDensity,
    material: MaterialParams,
    rel_tol: float = DEFAULT_COULOMB_REL_TOL,
) -> float:
    """Direct Coulomb energy between two carrier densities, meV.

    Signed: repulsive for like charges, attractive for unlike.  Symmetric
    under argument exchange.  Raises InvalidParameterError for two wells
    that partially overlap, and ConvergenceError if the quadrature error
    estimate exceeds rel_tol.
    """
    sbar2 = a.inplane_std_nm**2 + b.inplane_std_nm**2
    dx = a.inplane_center_nm[0] - b.inplane_center_nm[0]
    dy = a.inplane_center_nm[1] - b.inplane_center_nm[1]
    value = _radial_integral(sbar2, math.hypot(dx, dy), _z_pair_kernel(a, b), rel_tol)
    prefactor = (
        units.COULOMB_MEV_NM * a.charge * b.charge / material.relative_permittivity
    )
    return prefactor * value


def _well_ground_energy_mev(mass_rel: float, width_nm: float) -> float:
    """Infinite-well ground energy hbar^2 pi^2 / (2 m W^2), meV."""
    return units.hbar_sq_over_m(mass_rel) * math.pi**2 / (2.0 * width_nm**2)


def _stark_shift_mev(mass_rel: float, conf_mev: float, field_kv_cm: float) -> float:
    """Energy gain -(eF)^2 / (2 m omega^2) of the displaced oscillator, meV."""
    e_field = units.EFIELD_MEV_PER_NM_PER_KV_CM * field_kv_cm
    return -(e_field**2) * units.hbar_sq_over_m(mass_rel) / (2.0 * conf_mev**2)


def exciton_energy(
    structure: DeviceStructure,
    dot_index: int,
    rel_tol: float = DEFAULT_COULOMB_REL_TOL,
) -> float:
    """Ground-state exciton energy E_l of one dot at the current field, eV.

    Band gap + z-confinement of electron and hole + in-plane zero-point
    energies (hbar omega per particle for the two in-plane axes) + quadratic
    Stark terms + the intra-dot electron-hole Coulomb attraction.
    """
    dot = structure.dots[dot_index]
    mat = structure.material
    f = structure.field_kv_cm
    energy_mev = mat.band_gap_ev * units.MEV_PER_EV
    energy_mev += _well_ground_energy_mev(mat.electron_effective_mass, dot.well_width_nm)
    energy_mev += _well_ground_energy_mev(mat.hole_effective_mass, dot.well_width_nm)
    energy_mev += dot.confinement_energy_e_mev + _stark_shift_mev(
        mat.electron_effective_mass, dot.confinement_energy_e_mev, f
    )
    energy_mev += dot.confinement_energy_h_mev + _stark_shift_mev(
        mat.hole_effective_mass, dot.confinement_energy_h_mev, f
    )
    electron = carrier_density(structure, dot_index, "e")
    hole = carrier_density(structure, dot_index, "h")
    energy_mev += coulomb_integral(electron, hole, mat, rel_tol=rel_tol)
    return energy_mev * units.EV_PER_MEV


def biexcitonic_shift(
    structure: DeviceStructure,
    l: int,
    lp: int,
    rel_tol: float = DEFAULT_COULOMB_REL_TOL,
) -> float:
    """Biexcitonic shift dE_{ll'} between two occupied dots, meV.

    Sum of the four inter-dot direct Coulomb integrals: electron-electron
    and hole-hole repulsion plus the two electron-hole attractions.
    """
    if l == lp:
        raise InvalidPairError(f"biexcitonic shift requires two distinct dots, got {l}")
    l, lp = min(l, lp), max(l, lp)  # summation order fixed -> exact symmetry
    mat = structure.material
    e_l = carrier_density(structure, l, "e")
    h_l = carrier_density(structure, l, "h")
    e_lp = carrier_density(structure, lp, "e")
    h_lp = carrier_density(structure, lp, "h")
    return (
        coulomb_integral(e_l, e_lp, mat, rel_tol=rel_tol)
        + coulomb_integral(h_l, h_lp, mat, rel_tol=rel_tol)
        + coulomb_integral(e_l, h_lp, mat, rel_tol=rel_tol)
        + coulomb_integral(h_l, e_lp, mat, rel_tol=rel_tol)
    )


def shift_vs_field(
    structure: DeviceStructure,
    l: int,
    lp: int,
    field_grid_kv_cm: Sequence[float],
    rel_tol: float = DEFAULT_COULOMB_REL_TOL,
) -> list[tuple[float, float]]:
    """Biexcitonic shift evaluated on an ascending grid of field values."""
    grid = list(field_grid_kv_cm)
    if not grid:
        raise InvalidParameterError("field grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidParameterError("field grid must be strictly ascending")
    out = []
    for f in grid:
        swept = dataclasses.replace(structure, field_kv_cm=f)
        out.append((f, biexcitonic_shift(swept, l, lp, rel_tol=rel_tol)))
    return out


# ---------------------------------------------------------------------------
# Calibrated GaAs two-dot preset
#
# The free geometry below was tuned once so that at F = 30 kV/cm the two
# ground-exciton energies land on 1.70 and 1.71 eV and the biexcitonic
# shift falls in the few-meV range.  See demos/calibrate_preset.py for the
# tuning procedure.
# ---------------------------------------------------------------------------

GAAS_TWO_DOT_PRESET_NAME = "gaas-two-dot"

# frozen calibration: hw_h and w_b pin dE(30 kV/cm) = 4.5 meV and the
# 10 meV exciton splitting; the gap places E_a at 1.70 eV
_CALIB_WELL_A_NM = 5.0
_CALIB_WELL_B_NM = 4.909414070721328
_CALIB_BAND_GAP_EV = 1.4254423150708202
_CALIB_HW_E_MEV = 20.0
_CALIB_HW_H_MEV = 14.161926745558798
_CALIB_BARRIER_NM = 5.0


def gaas_two_dot(field_kv_cm: float = 30.0) -> DeviceStructure:
    """Calibrated GaAs double-dot structure used throughout the examples."""
    material = MaterialParams(
        electron_effective_mass=0.067,
        hole_effective_mass=0.34,
        relative_permittivity=12.9,
        band_gap_ev=_CALIB_BAND_GAP_EV,
    )
    w_a, w_b = _CALIB_WELL_A_NM, _CALIB_WELL_B_NM
    barrier = _CALIB_BARRIER_NM
    dot_a = DotGeometry(
        confinement_energy_e_mev=_CALIB_HW_E_MEV,
        confinement_energy_h_mev=_CALIB_HW_H_MEV,
        well_width_nm=w_a,
        z_center_nm=0.0,
    )
    dot_b = DotGeometry(
        confinement_energy_e_mev=_CALIB_HW_E_MEV,
        confinement_energy_h_mev=_CALIB_HW_H_MEV,
        well_width_nm=w_b,
        z_center_nm=0.5 * (w_a + w_b) + barrier,
    )
    return DeviceStructure(
        dots=(dot_a, dot_b),
        barrier_widths_nm=(barrier,),
        material=material,
        field_kv_cm=field_kv_cm,
    )


def build_register(
    structure: DeviceStructure,
    transition_dipoles: Sequence[float] | None = None,
    rel_tol: float = DEFAULT_COULOMB_REL_TOL,
) -> ExcitonRegister:
    """Exciton register derived from the device electronic structure."""
    n = structure.n_dots
    energies = np.array(
        [exciton_energy(structure, l, rel_tol=rel_tol) for l in range(n)]
    )
    shifts = np.zeros((n, n))
    for l in range(n):
        for lp in range(l + 1, n):
            val = biexcitonic_shift(structure, l, lp, rel_tol=rel_tol)
            shifts[l, lp] = val
            shifts[lp, l] = val
    dipoles = None if transition_dipoles is None else np.asarray(transition_dipoles)
    return ExcitonRegister(
        exciton_energies_ev=energies,
        shift_matrix_mev=shifts,
        transition_dipoles=dipoles,
    )
