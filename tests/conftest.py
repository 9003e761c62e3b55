"""Shared test fixtures."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import erfcx

from excitonsim import dynamics, units
from excitonsim.analysis import default_fidelity_states, fidelity
from excitonsim.cli import main
from excitonsim.dynamics import (
    build_generator,
    channel_operator,
    default_reference_energy,
    integrate_master_equation,
    liouvillian_apply,
    propagate,
    pure_state_density,
    purity,
)
from excitonsim.model import build_hamiltonian
from excitonsim.pulses import ENVELOPE_CUTOFF, pulse_amplitude

BELL_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "bell_two_dot.cfg"


def _dense_hamiltonian(register, sequence, reference_energy_ev):
    """H(t) in meV of the frame rotating at reference_energy_ev, as a dense
    matrix: a callable of t.

    Rebuilt from the basis-index bit patterns, not from dynamics'
    generator: H0 shifted by the reference energy per exciton on the
    diagonal, and -f_l sigma+_l - conj(f_l) sigma-_l for every dot l, with
    _field_reference's per-pulse drive f.
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

    def hamiltonian(t):
        h = np.diag(h0).astype(complex)
        amps = _field_reference(sequence, t, register.transition_dipoles, reference_energy_ev)
        for f_l, op in zip(amps, raising):
            h -= f_l * op + np.conj(f_l) * op.conj().T
        return h

    return hamiltonian


def _adaptive_reference(
    register, sequence, rho0, t_start_ps, t_end_ps, reference_energy_ev, channels=()
):
    """Final density matrix, or (B, d, d) stack, of a run from scipy's
    adaptive RK45.

    An independent route to the state that dynamics.propagate reaches in
    the rotating frame at reference_energy_ev: H is _dense_hamiltonian's,
    the channels enter as sum_k (L_k rho L_k+ - 1/2 {L_k+ L_k, rho}) of
    their dense jump operators (dynamics.channel_operator), and the master
    equation is integrated by solve_ivp (rtol 1e-10, atol 1e-12) instead of
    the fixed-step RK4 loop.  No arithmetic is shared with dynamics'
    generator or with pulses.field_at.
    """
    dim = 2**register.n_qubits
    hamiltonian = _dense_hamiltonian(register, sequence, reference_energy_ev)
    jumps = [channel_operator(register, ch).astype(complex) for ch in channels]
    decays = [lk.conj().T @ lk for lk in jumps]
    shape = np.shape(rho0)

    def rhs(t, y):
        rho = y.reshape(-1, dim, dim)
        h = hamiltonian(t)
        out = (-1j / units.HBAR_MEV_PS) * (h @ rho - rho @ h)
        for lk, lk_dag_lk in zip(jumps, decays):
            out += lk @ rho @ lk.conj().T - 0.5 * (lk_dag_lk @ rho + rho @ lk_dag_lk)
        return out.ravel()

    sol = solve_ivp(
        rhs,
        (t_start_ps, t_end_ps),
        np.asarray(rho0, dtype=complex).ravel(),
        rtol=1e-10,
        atol=1e-12,
        max_step=0.05,
    )
    return sol.y[:, -1].reshape(shape)


@pytest.fixture
def adaptive_reference():
    """The adaptive solve_ivp cross-check as a callable.

    Call it as adaptive_reference(register, sequence, rho0, t_start_ps,
    t_end_ps, reference_energy_ev, channels=()); it returns the final
    density matrix, or stack, of rho0's shape.
    """
    return _adaptive_reference


def _coherent_reference(register, sequence, psi0, t_start_ps, t_end_ps, reference_energy_ev):
    """Final state vector of a channel-free run from scipy's DOP853 on psi.

    Schroedinger's equation d psi/dt = -i/hbar H psi with
    _dense_hamiltonian's H, integrated by solve_ivp's 8th-order DOP853 at
    rtol 1e-12, atol 1e-13: accurate well below the fixed-step RK4 error
    of the configs' steps, and sharing no arithmetic with dynamics or with
    pulses.field_at.
    """
    hamiltonian = _dense_hamiltonian(register, sequence, reference_energy_ev)
    sol = solve_ivp(
        lambda t, psi: (-1j / units.HBAR_MEV_PS) * (hamiltonian(t) @ psi),
        (t_start_ps, t_end_ps),
        np.asarray(psi0, dtype=complex),
        method="DOP853",
        rtol=1e-12,
        atol=1e-13,
    )
    return sol.y[:, -1]


@pytest.fixture(scope="session")
def coherent_reference():
    """The DOP853 state-vector oracle as a callable:
    coherent_reference(register, sequence, psi0, t_start_ps, t_end_ps,
    reference_energy_ev) returns the final psi in the rotating frame."""
    return _coherent_reference


def _gaussian_pair_kernel(mu, var):
    """Z(k) = <exp(-k |z1 - z2|)> for z1 - z2 ~ Normal(mu, var): the z kernel
    of two Gaussian z densities, whose Coulomb energy has a closed form.
    device._radial_integral takes it in place of a pair of wells."""
    amu = abs(mu)
    sq2v = math.sqrt(2.0 * var)

    def kernel(k):
        k = np.asarray(k, dtype=float)
        arg_minus = (k * var - amu) / sq2v
        arg_plus = (k * var + amu) / sq2v
        pref = math.exp(-amu * amu / (2.0 * var)) if amu * amu / (2 * var) < 700 else 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            direct = 0.5 * pref * erfcx(arg_minus)
            # complementary form for strongly negative arguments, where
            # erfcx overflows: uses Phi(x) = 1 - Phi(-x)
            expo = np.where(arg_minus <= -20.0, 0.5 * k * k * var - k * amu, -np.inf)
            comp = np.exp(expo) - 0.5 * pref * erfcx(np.abs(arg_minus))
            plus_side = np.where(arg_minus <= -20.0, comp, direct)
        minus_side = 0.5 * pref * erfcx(arg_plus)
        return plus_side + minus_side

    return kernel


@pytest.fixture(scope="session")
def gaussian_pair_kernel():
    """The Gaussian z kernel as a callable: gaussian_pair_kernel(mu, var)
    returns Z(k) for z1 - z2 ~ Normal(mu, var)."""
    return _gaussian_pair_kernel


def _envelope(pulse, t):
    """A pulse's Gaussian envelope at time t: peak 1 at its center, 0 beyond
    ENVELOPE_CUTOFF durations from it."""
    dt = t - pulse.center_ps
    if abs(dt) > ENVELOPE_CUTOFF * pulse.tau_ps:
        return 0.0
    return math.exp(-0.5 * (dt / pulse.tau_ps) ** 2)


def _field_reference(sequence, t, dipoles, reference_energy_ev):
    """Per-dot rotating-frame drive amplitude at time t, pulse by pulse.

    The scalar formula that pulses.field_at evaluates, written out one
    time and one pulse at a time:
    sum_p Omega_p env_p(t)/2 exp(-i ((omega_p - omega_ref) t + phi_p))
    d / d_target.
    """
    dipoles = np.asarray(dipoles, dtype=float)
    out = np.zeros(dipoles.size, dtype=complex)
    for pulse in sequence:
        env = _envelope(pulse, t)
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


def _rk4_reference(rho0, sequence, register, channels, config):
    """Final state of dynamics.propagate's RK4 run with the drive evaluated
    at every stage on its own.

    At each stage time, _field_reference gives the amplitudes f, and H is
    built densely from the basis-index bits, H0 on the diagonal and
    0.0 - f_l at <i + 2^l|H|i>, 0.0 - conj(f_l) at <i|H|i + 2^l> for every i
    with bit l clear.  The stages run in propagate's order, and
    dynamics.liouvillian_apply applies each stage's H and the channels
    with the row-table generator of dynamics.build_generator, which
    propagate's stage loop takes: a coherent run, or one with channels on
    three or more dots, ends bit for bit where this loop does.  A run with
    channels on at most dynamics.LIOUVILLE_MAX_DIM basis states takes the
    map form instead, which sums in another order, so it ends within
    roundoff of this loop (test_dynamics.assert_matches_stage_loop).
    Three things are kept here on purpose that propagate no longer does:
    k2 and k3 from the generator itself, with stage inputs at dt/2 and dt,
    doubled only in the sum, where propagate takes 2 k2 and 2 k3 from a
    doubled generator with stage inputs at dt/4 and dt/2; the RK4 sum as
    seven in-place operations, ((k1 + 2 k2) + 2 k3) + k4 scaled by dt/6
    and added to rho, where propagate makes one np.add.reduce over its
    four stages; and a re-Hermitization of every step's state, where
    propagate's states are exactly Hermitian by construction.  A test that
    finds propagate bit-equal to this loop thus also shows that the
    doubling is exact, that the reduce adds in that order and that the
    re-Hermitization is a no-op.  rho0 is
    (d, d) or a (B, d, d) stack and must be exactly Hermitian (propagate
    Hermitizes its rho0 once); the window is the sequence's span, without
    propagate's checks and samples.
    """
    n = register.n_qubits
    dim = 2**n
    ref = (
        config.reference_energy_ev
        if config.reference_energy_ev is not None
        else default_reference_energy(sequence, register)
    )
    occupancy = np.array([bin(idx).count("1") for idx in range(dim)], dtype=float)
    h0 = (build_hamiltonian(register) - ref * occupancy) * units.MEV_PER_EV
    generator = build_generator(h0, channels)

    def dense_h(t):
        f = _field_reference(sequence, t, register.transition_dipoles, ref)
        h = np.diag(h0).astype(complex)
        for idx in range(dim):
            for l in range(n):
                if not (idx >> l) & 1:
                    h[idx | (1 << l), idx] = 0.0 - f[l]
                    h[idx, idx | (1 << l)] = 0.0 - np.conj(f[l])
        return h

    t_start = min(0.0, sequence.start_ps)
    span = sequence.end_ps - t_start
    n_steps = int(np.ceil(span / config.time_step_ps - 1e-12))
    dt = span / n_steps
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    rho = np.array(rho0, dtype=complex)
    t = t_start
    for step in range(1, n_steps + 1):
        h_mid = dense_h(t + half_dt)
        k1 = liouvillian_apply(rho, dense_h(t), generator)
        k2 = liouvillian_apply(rho + half_dt * k1, h_mid, generator)
        k3 = liouvillian_apply(rho + half_dt * k2, h_mid, generator)
        k4 = liouvillian_apply(rho + dt * k3, dense_h(t + dt), generator)
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= sixth_dt
        k2 += rho
        rho = 0.5 * (k2 + k2.swapaxes(-1, -2).conj())
        t = t_start + step * dt
    return rho


@pytest.fixture(scope="session")
def rk4_reference():
    """The per-stage RK4 loop as a callable, the oracle for propagate's
    drive blocks: rk4_reference(rho0, sequence, register, channels, config)
    returns the final density matrix."""
    return _rk4_reference


def _lab_frame_reference(register, sequence, rho0, config):
    """Trajectory of a coherent run in the literal lab frame.

    No rotating-wave step: the Hamiltonian keeps the full optical exciton
    energies (centred on the middle of the spectrum, since a global offset
    cancels in rho and centring halves the fastest phase), and every pulse
    drives every dot with the real field
    Omega_p(t) cos(omega_p t + phi_p) d_l / d_target, carrier included.
    dynamics.integrate_master_equation takes this real drive (of an array
    of times) as it is, so the run needs steps that resolve the ~2.4 fs
    optical period (2e-5 ps or finer).
    """
    h0 = build_hamiltonian(register) * units.MEV_PER_EV
    h0 = h0 - 0.5 * (h0.max() + h0.min())
    dipoles = np.asarray(register.transition_dipoles, dtype=float)

    def drive(times):
        out = np.zeros((len(times), dipoles.size))
        for pulse in sequence:
            env = np.array([_envelope(pulse, t) for t in times])
            omega0 = pulse_amplitude(pulse, dipoles[pulse.target_dipole])
            omega_opt = pulse.carrier_energy_ev * units.MEV_PER_EV / units.HBAR_MEV_PS
            value = omega0 * env * np.cos(omega_opt * times + pulse.phase_rad)
            out += value[:, None] * dipoles / dipoles[pulse.target_dipole]
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


def _record_checked_states(monkeypatch, record):
    """Pass every batch of (d, d) states, in (step, member) order, to record
    just before the integrator's step check tests it."""
    check = dynamics._StepCheck.check

    def recording_check(self, first_step, filled):
        record(self.flat[: filled * self.members])
        check(self, first_step, filled)

    monkeypatch.setattr(dynamics._StepCheck, "check", recording_check)


@pytest.fixture
def step_purities(monkeypatch):
    """tr(rho^2) of every step's state of the runs made while the test runs,
    in step order, read from the integrator's step check."""
    purities = []
    _record_checked_states(monkeypatch, lambda states: purities.extend(map(purity, states)))
    return purities


@pytest.fixture
def step_states(monkeypatch):
    """Copies of every step's (d, d) state of the runs made while the test
    runs, in (step, member) order, read from the integrator's step check."""
    states = []
    _record_checked_states(monkeypatch, lambda batch: states.extend(batch.copy()))
    return states


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
