"""Unit system and physical constants.

Internal units: energies in meV, lengths in nm, times in ps.  Energies are
reported in eV only at interface boundaries (register energies, carriers,
spectra).
"""

# Reduced Planck constant, meV ps
HBAR_MEV_PS = 0.6582119514

# Coulomb coupling e^2 / (4 pi eps0), meV nm
COULOMB_MEV_NM = 1439.96

# Free-electron rest mass in meV ps^2 / nm^2  (m0 c^2 / c^2)
_M0_C2_MEV = 510998950.0
_C_NM_PS = 299792.458
ELECTRON_MASS = _M0_C2_MEV / (_C_NM_PS * _C_NM_PS)

# hbar^2 / m0, meV nm^2
HBAR_SQ_OVER_M0 = HBAR_MEV_PS * HBAR_MEV_PS / ELECTRON_MASS

# e * (1 kV/cm) expressed as meV / nm:  1 kV/cm = 1e5 V/m = 0.1 meV/(e nm)
EFIELD_MEV_PER_NM_PER_KV_CM = 0.1

MEV_PER_EV = 1000.0
EV_PER_MEV = 1.0e-3


def hbar_sq_over_m(mass_rel: float) -> float:
    """hbar^2 / (mass_rel * m0) in meV nm^2."""
    return HBAR_SQ_OVER_M0 / mass_rel
