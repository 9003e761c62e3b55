"""Why pulse duration decides whether conditional logic works.

A Gaussian pulse of duration tau has spectral width ~ hbar/tau.  The
conditional pi pulse sits 4.5 meV away from the transition it must NOT
drive, so it stays selective only when hbar/tau is well below that gap.
This script drives the conditional flip of dot b for a range of durations
and tabulates the leakage on the wrong branch (control empty) against the
transfer on the right branch (control occupied).

The compiler's default budget requires hbar/tau <= gap/4, i.e.
tau >= 0.585 ps for the 4.5 meV gap; 0.1 ps pulses (bandwidth 6.6 meV) are
far too broadband, which is visible in the first rows.

Run:  python demos/03_selectivity_vs_duration.py
"""

import numpy as np

from excitonsim import units
from excitonsim.dynamics import SimulationConfig, basis_state_density, propagate
from excitonsim.model import ExcitonRegister
from excitonsim.pulses import Pulse, PulseSequence

register = ExcitonRegister(
    exciton_energies_ev=np.array([1.70, 1.71]),
    shift_matrix_mev=np.array([[0.0, 4.5], [4.5, 0.0]]),
)

print("conditional pi pulse on dot b at 1.7145 eV (resonant when n_a = 1)")
print(f"{'tau (ps)':>9}  {'hbar/tau (meV)':>14}  {'leak n_b | n_a=0':>17}  "
      f"{'transfer n_b | n_a=1':>20}")

for tau in (0.1, 0.15, 0.2, 0.3, 0.45, 0.585, 0.8, 1.0):
    pulse = Pulse(
        carrier_energy_ev=1.7145,
        center_ps=4.0 * tau,
        tau_ps=tau,
        area_rad=np.pi,
        target_dipole=1,
    )
    sequence = PulseSequence((pulse,))
    config = SimulationConfig(time_step_ps=min(1e-3, tau / 25.0))
    # both branches in one run: |00> (dot a empty) and |01> (dot a occupied)
    branches = np.array([basis_state_density(2, 0), basis_state_density(2, 1)])
    traj = propagate(branches, sequence, register, config=config)
    leak, transfer = traj.occupations[-1, :, 1]
    marker = "  <- default budget" if abs(tau - 0.585) < 1e-9 else ""
    print(
        f"{tau:9.3f}  {units.HBAR_MEV_PS / tau:14.2f}  {leak:17.4f}  "
        f"{transfer:20.4f}{marker}"
    )

print(
    "\nselectivity improves roughly like exp(-(gap tau / hbar)^2): "
    "duration is the price of addressing"
)
