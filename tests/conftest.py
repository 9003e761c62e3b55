"""Shared test fixtures."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from excitonsim import units
from excitonsim.model import build_hamiltonian
from excitonsim.pulses import field_at


def _adaptive_reference(register, sequence, rho0, t_start_ps, t_end_ps, reference_energy_ev):
    """Final density matrix of a coherent run from scipy's adaptive RK45.

    An independent route to the state that dynamics.propagate reaches in
    the rotating frame at reference_energy_ev: the Hamiltonian and the
    sigma+ operators are rebuilt here from the basis-index bit patterns,
    and the Liouville-von Neumann equation is integrated by solve_ivp
    (rtol 1e-10, atol 1e-12) instead of the fixed-step RK4 loop.
    """
    dim = 2**register.n_qubits
    occupancy = np.array([bin(idx).count("1") for idx in range(dim)], dtype=float)
    h0 = (
        build_hamiltonian(register) - reference_energy_ev * occupancy
    ) * units.MEV_PER_EV
    raising = []
    for l in range(register.n_qubits):
        sp = np.zeros((dim, dim), complex)
        for idx in range(dim):
            if not (idx >> l) & 1:
                sp[idx | (1 << l), idx] = 1.0
        raising.append(sp)

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        h = np.diag(h0).astype(complex)
        amps = field_at(
            sequence, t, register.transition_dipoles, frame="rotating",
            reference_energy_ev=reference_energy_ev,
        )
        for f_l, op in zip(amps, raising):
            h -= f_l * op + np.conj(f_l) * op.conj().T
        return ((-1j / units.HBAR_MEV_PS) * (h @ rho - rho @ h)).ravel()

    sol = solve_ivp(
        rhs,
        (t_start_ps, t_end_ps),
        np.asarray(rho0, dtype=complex).ravel(),
        rtol=1e-10,
        atol=1e-12,
        max_step=0.05,
    )
    return sol.y[:, -1].reshape(dim, dim)


@pytest.fixture
def adaptive_reference():
    """The adaptive solve_ivp cross-check as a callable.

    Call it as adaptive_reference(register, sequence, rho0, t_start_ps,
    t_end_ps, reference_energy_ev); it returns the final density matrix.
    """
    return _adaptive_reference
