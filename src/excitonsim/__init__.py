"""Pulse-level simulator for exciton qubits in coupled semiconductor quantum dots.

The qubit is the presence or absence of a ground-state exciton in one dot
of a stacked array.  An in-plane static field gives every exciton a dipole,
adjacent dipoles shift each other's transition energies, and multi-color
pulse sequences exploit those conditional frequencies to run one- and
two-qubit logic.  The package covers the chain end to end:

- device: field-displaced single-particle states, Coulomb integrals,
  exciton energies, and biexcitonic shifts from geometry;
- model: the basis bit table, the diagonal register Hamiltonian and its
  operators;
- pulses: gate-to-pulse compilation under a spectral selectivity budget;
- dynamics: Liouville-von Neumann propagation with Lindblad channels;
- analysis: fidelity, concurrence, gate fidelity, absorption spectra;
- cli/config: reproducible, file-driven runs with CSV artifacts.
"""

__version__ = "0.1.0"

from .analysis import (
    AbsorptionSpectrum,
    SpectrumLine,
    absorption_spectrum,
    bell_state,
    concurrence,
    fidelity,
    gate_fidelity,
    spectrum_lines,
)
from .device import (
    ChargeDensity,
    DeviceStructure,
    DotGeometry,
    MaterialParams,
    biexcitonic_shift,
    build_register,
    carrier_density,
    coulomb_integral,
    exciton_energy,
    gaas_two_dot,
    inplane_ground_state,
    shift_vs_field,
)
from .dynamics import (
    LindbladChannel,
    SimulationConfig,
    Trajectory,
    basis_state_density,
    build_generator,
    hermitian_coordinates,
    liouvillian_apply,
    map_generator,
    propagate,
    pure_state_density,
    purity,
    validate_density_matrix,
)
from .model import (
    ExcitonRegister,
    basis_label,
    bit_table,
    build_hamiltonian,
    renormalized_energy,
)
from .pulses import (
    GateSpec,
    Pulse,
    PulseSequence,
    TimingPolicy,
    compile_gate,
    compile_program,
    field_at,
    ideal_gate_unitary,
    pulse_amplitude,
)

__all__ = [name for name in dir() if not name.startswith("_")]
