"""Shared domain types, physical constants, unit conventions, and the
interaction Hamiltonian of each excitation subspace.

Unit discipline across the package: angular frequencies in rad/s, times in s,
lengths in m, dipole moments in C*m.  Every quoted frequency is angular; the
factor of 2*pi is never implicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

__all__ = [
    "HBAR",
    "EPS0",
    "ConvergenceError",
    "CalibrationError",
    "CavityParams",
    "AmplitudeVector",
    "SubspaceHamiltonian",
    "basis_state",
    "basis_labels",
    "build_subspace",
    "g0_from_params",
    "photon_lifetime",
    "VELOCITY_WINDOW",
    "FLOAT_FORMAT",
    "write_csv",
]

# CODATA 2018
HBAR = 1.054571817e-34    # J*s
EPS0 = 8.8541878128e-12   # F/m

# Experimentally sensible transit velocities (m/s): the default calibration
# bounds and sweep range.
VELOCITY_WINDOW = (150.0, 650.0)


class ConvergenceError(RuntimeError):
    """An adaptive numerical routine could not reach its tolerance.

    ``t`` carries the time at which the routine gave up, when known.
    """

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class CalibrationError(RuntimeError):
    """No operating point exists inside the requested bounds.

    ``candidates`` lists the nearest solutions outside the bounds (m/s).
    """

    def __init__(self, message: str, candidates: tuple[float, ...] = ()):
        super().__init__(message)
        self.candidates = tuple(candidates)


def _require_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not (value > 0) or not math.isfinite(value):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def g0_from_params(mu_eg: float, omega: float, eps_m: float, v_mode: float) -> float:
    """Peak vacuum coupling rate (rad/s) of a dipole at the field maximum.

    mu_eg: transition dipole moment, C*m.  omega: mode angular frequency,
    rad/s.  eps_m: relative permittivity at the energy-density maximum.
    v_mode: cavity mode volume, m^3.
    """
    _require_positive(mu_eg=mu_eg, omega=omega, eps_m=eps_m, v_mode=v_mode)
    return (mu_eg / HBAR) * math.sqrt(HBAR * omega / (2.0 * EPS0 * eps_m * v_mode))


def photon_lifetime(q_factor: float, omega: float) -> float:
    """Cavity photon lifetime tau = Q / omega, in s (omega in rad/s)."""
    _require_positive(q_factor=q_factor, omega=omega)
    return q_factor / omega


@dataclass(frozen=True)
class CavityParams:
    """Single-mode cavity: frequency, permittivity at the peak, volume, coupling.

    ``g0`` is taken as given; :func:`g0_from_params` derives it from a dipole
    moment and the other three fields.
    """

    omega_cav: float      # rad/s
    eps_m: float          # dimensionless
    mode_volume: float    # m^3
    g0: float             # rad/s

    def __post_init__(self) -> None:
        _require_positive(
            omega_cav=self.omega_cav,
            eps_m=self.eps_m,
            mode_volume=self.mode_volume,
            g0=self.g0,
        )


@cache
def basis_labels(n_excitations: int) -> tuple[str, ...]:
    """Canonical basis of the two-atom + mode system with n total excitations.

    A label "abm" gives atom A's excitation (0/1), atom B's (0/1), and the
    photon number m.  Ordering: photon number ascending; within a photon
    sector, atom A excited before atom B excited.  For one excitation this is
    ("100", "010", "001"); for two, ("110", "101", "011", "002").
    """
    if n_excitations < 0:
        raise ValueError(f"n_excitations must be >= 0, got {n_excitations}")
    return tuple(f"{atoms}{m}" for m in range(n_excitations + 1)
                 for atoms in ("11", "10", "01", "00")
                 if atoms.count("1") + m == n_excitations)


@dataclass(frozen=True)
class SubspaceHamiltonian:
    """Interaction Hamiltonian (units of rad/s) for a fixed number of excitations.

    ``couplings`` is its one description: entries (row, col, atom, factor)
    with H = sum of factor * g_atom * |row><col| + h.c., atom 0 for A and 1
    for B, over ``basis_labels``, derived from ``n_excitations``.  The matrix
    and the ODE right-hand side both read it.
    """

    n_excitations: int
    couplings: tuple[tuple[int, int, int, float], ...]

    @property
    def basis_labels(self) -> tuple[str, ...]:
        return basis_labels(self.n_excitations)

    @property
    def dim(self) -> int:
        return len(self.basis_labels)

    def matrix(self, g_a: complex, g_b: complex) -> np.ndarray:
        g = (g_a, g_b)
        h = np.zeros((self.dim, self.dim), dtype=complex)
        for row, col, atom, factor in self.couplings:
            h[row, col] = factor * g[atom]
            h[col, row] = factor * np.conj(g[atom])
        return h


def _couplings(labels: tuple[str, ...]) -> tuple[tuple[int, int, int, float], ...]:
    """Coupling table of g_atom sigma+_atom a + h.c. over a canonical basis.

    Each excited atom of a basis state couples it to the state with that
    atom lowered and one more photon, with the ladder factor sqrt(m + 1) of
    a photon added to m.
    """
    entries = []
    for row, label in enumerate(labels):
        photons = int(label[2:])
        for atom in (0, 1):
            if label[atom] == "1":
                lowered = label[:atom] + "0" + label[atom + 1:2] + str(photons + 1)
                entries.append((row, labels.index(lowered), atom, math.sqrt(photons + 1)))
    return tuple(entries)


_SUBSPACES = {n: SubspaceHamiltonian(n, _couplings(basis_labels(n))) for n in (0, 1, 2)}


def build_subspace(n: int) -> SubspaceHamiltonian:
    """Interaction Hamiltonian for n total excitations, n in {0, 1, 2}; built once, shared."""
    if n not in (0, 1, 2):
        raise ValueError(f"unsupported excitation number {n}; supported: 0, 1, 2")
    return _SUBSPACES[n]


# Construction guard; evolution routines hold themselves to tighter bounds
# (1e-10 analytic, 1e-8 ODE) in their own contracts and tests.
NORM_TOL = 1e-6


@dataclass(frozen=True)
class AmplitudeVector:
    """Normalized complex amplitudes, one per label of ``basis_labels``,
    the canonical basis derived from ``n_excitations``."""

    n_excitations: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        dim = len(self.basis_labels)
        amps = np.asarray(self.amplitudes, dtype=complex).copy()
        if amps.shape != (dim,):
            raise ValueError(f"expected {dim} amplitudes, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def basis_labels(self) -> tuple[str, ...]:
        return basis_labels(self.n_excitations)

    @classmethod
    def basis_state(cls, label: str) -> "AmplitudeVector":
        n = sum(int(ch) for ch in label[:2]) + int(label[2:])
        labels = basis_labels(n)
        amps = np.zeros(len(labels), dtype=complex)
        amps[labels.index(label)] = 1.0
        return cls(n, amps)


# The basis state of a label, for callers that read nothing else of the class.
basis_state = AmplitudeVector.basis_state


# Every table pcqed writes: 17 significant digits read back bit-identical.
FLOAT_FORMAT = "%.17g"


def write_csv(path, header, columns) -> Path:
    """Write a table as CSV and return its path.

    Writes the ``header`` cells, then one row per index of the equal-length
    ``columns`` (1-D, or 2-D blocks of columns), every cell a float in
    FLOAT_FORMAT.  Lines end in CRLF.
    """
    path = Path(path)
    table = np.column_stack(columns)
    row_format = ",".join([FLOAT_FORMAT] * table.shape[1]) + "\r\n"
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row_format % tuple(row.tolist()) for row in table)
    return path
