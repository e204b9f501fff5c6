"""Two two-level atoms crossing a single-mode photonic-crystal cavity.

Closed-form and ODE evolution of the atom-photon-atom dynamics, pulse-area
gate calibration (entangler / dual-rail Hadamard, NOT, Z, SWAP), amplitude
sweeps over velocity and coupling ratio, and mode-field analysis (mode
volume, peak coupling, polarization fraction) for discretized cavity modes.
"""

# perfbench/workloads.py reads these two as pcqed.AmplitudeVector and pcqed.CavityParams.
from .core import AmplitudeVector, CavityParams

__version__ = "0.1.0"
