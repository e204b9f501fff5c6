"""Two two-level atoms crossing a single-mode photonic-crystal cavity.

Closed-form and ODE evolution of the atom-photon-atom dynamics, pulse-area
gate calibration (entangler / dual-rail Hadamard, NOT, Z, SWAP), amplitude
sweeps over velocity and coupling ratio, and mode-field analysis (mode
volume, peak coupling, polarization fraction) for discretized cavity modes.
"""

from .core import (
    HBAR,
    EPS0,
    C_LIGHT,
    AmplitudeVector,
    CalibrationError,
    CavityParams,
    ConvergenceError,
    SubspaceHamiltonian,
    basis_labels,
    build_subspace,
    g0_from_params,
    photon_lifetime,
)
from .coupling import (
    CouplingTrace,
    GenericProfile,
    GenericProfileParams,
    drive_from_profile,
    drive_pair,
    pulse_area,
    scaled_pair,
)
from .analytic import (
    analytic_trajectory,
    logical_unitary,
    two_excitation_unitary,
)
from .ode import (
    Trajectory,
    evolve,
    final_states,
    trajectory_to_csv,
)
from .fieldgrid import (
    FieldGrid,
    PathSpec,
    coupling_trace_from_field,
    grid_from_json,
    grid_to_json,
    mode_volume,
    peak_energy_point,
    polarization_fraction,
    synthesize_mode,
)
from .gates import (
    ENTANGLER_HADAMARD,
    IDENTITY,
    NOT,
    SWAP,
    TARGETS,
    Z,
    GateReport,
    GateSettings,
    GateTarget,
    calibrate_velocity,
    fidelity,
    truth_table,
)
from .sweep import SweepGrid, surface, surfaces_to_csv

__version__ = "0.1.0"
