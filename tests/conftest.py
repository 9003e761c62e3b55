"""Shared test fixtures."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from excitonsim import units
from excitonsim.analysis import default_fidelity_states, fidelity
from excitonsim.cli import main
from excitonsim.dynamics import integrate_master_equation, propagate, pure_state_density
from excitonsim.model import build_hamiltonian
from excitonsim.pulses import field_at, pulse_amplitude, tabulate_drive

BELL_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "bell_two_dot.cfg"


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

    table = tabulate_drive(sequence, register.transition_dipoles, reference_energy_ev)

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        h = np.diag(h0).astype(complex)
        amps = field_at(table, t)
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


def _field_reference(sequence, t, dipoles, reference_energy_ev):
    """Per-dot rotating-frame drive amplitude at time t, pulse by pulse.

    The scalar formula that pulses.field_at evaluates from a DriveTable,
    written out from the Pulse fields at every call:
    sum_p Omega_p env_p(t)/2 exp(-i ((omega_p - omega_ref) t + phi_p))
    d / d_target.
    """
    dipoles = np.asarray(dipoles, dtype=float)
    out = np.zeros(dipoles.size, dtype=complex)
    for pulse in sequence:
        env = pulse.envelope(t)
        if env == 0.0:
            continue
        omega0 = pulse_amplitude(pulse, dipoles[pulse.target_dipole])
        detuning = (
            (pulse.carrier_energy_ev - reference_energy_ev)
            * units.MEV_PER_EV
            / units.HBAR_MEV_PS
        )
        value = 0.5 * omega0 * env * np.exp(-1j * (detuning * t + pulse.phase_rad))
        out += value * dipoles / dipoles[pulse.target_dipole]
    return out


@pytest.fixture(scope="session")
def field_reference():
    """The per-pulse drive formula as a callable, the oracle for
    pulses.field_at: field_reference(sequence, t, dipoles,
    reference_energy_ev) returns the per-dot amplitudes."""
    return _field_reference


def _lab_frame_reference(register, sequence, rho0, config):
    """Trajectory of a coherent run in the literal lab frame.

    No rotating-wave step: the Hamiltonian keeps the full optical exciton
    energies (centred on the middle of the spectrum, since a global offset
    cancels in rho and centring halves the fastest phase), and every pulse
    drives every dot with the real field
    Omega_p(t) cos(omega_p t + phi_p) d_l / d_target, carrier included.
    dynamics.integrate_master_equation takes this real drive as it is, so
    the run needs steps that resolve the ~2.4 fs optical period (2e-5 ps
    or finer).
    """
    h0 = build_hamiltonian(register) * units.MEV_PER_EV
    h0 = h0 - 0.5 * (h0.max() + h0.min())
    dipoles = np.asarray(register.transition_dipoles, dtype=float)

    def drive(t):
        out = np.zeros(dipoles.size)
        for pulse in sequence:
            env = pulse.envelope(t)
            if env == 0.0:
                continue
            omega0 = pulse_amplitude(pulse, dipoles[pulse.target_dipole])
            omega_opt = pulse.carrier_energy_ev * units.MEV_PER_EV / units.HBAR_MEV_PS
            value = omega0 * env * math.cos(omega_opt * t + pulse.phase_rad)
            out += value * dipoles / dipoles[pulse.target_dipole]
        return out

    t_start = min(0.0, sequence.start_ps)
    return integrate_master_equation(
        rho0, h0, drive, (), t_start, sequence.end_ps, config
    )


@pytest.fixture
def lab_frame_reference():
    """The lab-frame integration as a callable, the oracle for the rotating
    frame: lab_frame_reference(register, sequence, rho0, config) returns the
    Trajectory over the sequence span at config's step and diagnostics."""
    return _lab_frame_reference


@pytest.fixture(scope="session")
def bell_run(tmp_path_factory):
    """One `simulate` run of configs/bell_two_dot.cfg shared by the tests
    that read it: (exit code, output directory).  Do not write into it."""
    out = tmp_path_factory.mktemp("bell_run")
    rc = main(["simulate", "--config", str(BELL_CONFIG), "--out-dir", str(out)])
    return rc, out


def _gate_fidelity_reference(sequence, register, channels, config, ideal_unitary):
    """Average gate fidelity with one propagation per reference state.

    The loop that analysis.gate_fidelity ran before it propagated the
    reference states as one stack: each state of default_fidelity_states
    goes through its own dynamics.propagate call, and the fidelities of the
    final states in the interaction picture are summed in the same order.
    """
    ideal = np.asarray(ideal_unitary, dtype=complex)
    total = 0.0
    states = default_fidelity_states(register.n_qubits)
    for psi in states:
        traj = propagate(pure_state_density(psi), sequence, register, channels, config)
        total += fidelity(traj.final_state_interaction_picture(), ideal @ psi)
    return total / len(states)


@pytest.fixture(scope="session")
def gate_fidelity_reference():
    """The per-state gate fidelity as a callable, the oracle for
    analysis.gate_fidelity: gate_fidelity_reference(sequence, register,
    channels, config, ideal_unitary) returns the average fidelity."""
    return _gate_fidelity_reference
