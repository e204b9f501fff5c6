"""Closed-form dynamics for proportional coupling pulses.

Every drive pair the system builds (:func:`pcqed.coupling.drive_pair`) gives
atom B exactly c times atom A's drive.  The interaction Hamiltonian of
each excitation subspace is then g_a(t) times a constant matrix, so it
commutes with itself at all times, the propagator is the exponential of the
integrated Hamiltonian, and everything reduces to the two pulse areas.  With
Lambda = sqrt(g_a^2 + g_b^2) the amplitudes over {|100>, |010>, |001>} are

    a     = 1 + g_a^2 (cos Lambda - 1) / Lambda^2
    b     = g_a g_b (cos Lambda - 1) / Lambda^2
    gamma = -i g_a sin(Lambda) / Lambda

for the initial state |100>.  Every kernel here takes the two areas as
plain numbers, (g_a, g_b), with g_b = c g_a.  The two-excitation block over
{|110>, |101>, |011>, |002>} is exponentiated by
:func:`two_excitation_unitary`, so no logical input needs the ODE.
"""

from __future__ import annotations

import numpy as np

from .core import basis_labels, build_subspace
from .coupling import exact_area

__all__ = [
    "MAX_LAMBDA",
    "amplitudes",
    "logical_unitary",
    "two_excitation_unitary",
    "analytic_trajectory",
]

# Below this total area the trig prefactors switch to their Taylor forms
# (removable singularity at Lambda = 0).
_SMALL_LAMBDA = 1e-6

# The largest total area the closed form takes: the square root of the
# largest double, past which Lambda^2 overflows and the amplitudes turn NaN.
MAX_LAMBDA = float(np.sqrt(np.finfo(float).max))


def _trig_factors(lam):
    """(cos Lambda - 1) / Lambda^2 and sin(Lambda) / Lambda, elementwise.

    Both switch to their Taylor forms below _SMALL_LAMBDA (removable
    singularity at Lambda = 0).  Raises ValueError, before any square, when
    any Lambda is not at most MAX_LAMBDA (NaN included).
    """
    if not (lam <= MAX_LAMBDA).all():
        raise ValueError(f"total pulse area {np.max(lam):g} rad is past the closed form's "
                         f"limit of {MAX_LAMBDA:g} rad, the square root of the largest double")
    small = lam < _SMALL_LAMBDA
    safe = np.where(small, 1.0, lam)
    cosm1_over_sq = (np.cos(safe) - 1.0) / safe**2
    sin_over = np.sin(safe) / safe
    if small.any():  # skips grid-sized temporaries on the common path
        cosm1_over_sq = np.where(small, -0.5 + lam**2 / 24.0, cosm1_over_sq)
        sin_over = np.where(small, 1.0 - lam**2 / 6.0, sin_over)
    return cosm1_over_sq, sin_over


def _column(g_a, g_b, cosm1_over_sq, sin_over, initial: str):
    """Amplitudes on (|100>, |010>, |001>) from the basis state ``initial``, given the trig factors."""
    if initial == "100":
        return 1.0 + g_a**2 * cosm1_over_sq, g_a * g_b * cosm1_over_sq, -1j * g_a * sin_over
    if initial == "010":
        return g_a * g_b * cosm1_over_sq, 1.0 + g_b**2 * cosm1_over_sq, -1j * g_b * sin_over
    if initial == "001":  # photon initially in the cavity; cos(Lambda) = 1 + Lambda^2 c
        photon = 1.0 + (g_a**2 + g_b**2) * cosm1_over_sq
        return -1j * g_a * sin_over, -1j * g_b * sin_over, photon
    raise ValueError("initial must be one of '100', '010', '001'")


def amplitudes(g_a, g_b, initial: str = "100"):
    """Closed-form amplitudes on (|100>, |010>, |001>) after pulse areas g_a, g_b.

    The system starts in the basis state ``initial``.  Broadcasts over array
    areas; returns three arrays.  analytic_trajectory and sweep.surface
    evaluate through here; logical_unitary shares its per-column formulas.
    """
    g_a = np.asarray(g_a, dtype=float)
    g_b = np.asarray(g_b, dtype=float)
    # a helper, so that its grid-sized intermediates are freed on return
    return _column(g_a, g_b, *_trig_factors(np.hypot(g_a, g_b)), initial)


def logical_unitary(g_a: float, g_b: float) -> np.ndarray:
    """3x3 propagator over {|100>, |010>, |001>} after pulse areas g_a, g_b.

    U = I + (cos(Lambda) - 1)/Lambda^2 * M^2 - i sin(Lambda)/Lambda * M with
    M the symmetric matrix coupling each atom slot to the photon slot.
    Column j holds :func:`amplitudes` from the j-th basis state; the trig
    factors are evaluated once for all three.
    """
    g_a = np.asarray(g_a, dtype=float)
    g_b = np.asarray(g_b, dtype=float)
    factors = _trig_factors(np.hypot(g_a, g_b))
    return np.array(
        [_column(g_a, g_b, *factors, initial) for initial in ("100", "010", "001")],
        dtype=complex,
    ).T


def two_excitation_unitary(g_a: float, g_b: float) -> np.ndarray:
    """4x4 propagator over {|110>, |101>, |011>, |002>} after pulse areas g_a, g_b.

    The Tavis-Cummings block of the two-excitation subspace is
    H_2(t) = g_a(t) M_2(c) for drives in a constant ratio c, so it commutes
    with itself at all times and U = exp(-i H_2(g_a, g_b)) exactly, with
    H_2 the Hamiltonian of :func:`pcqed.core.build_subspace` evaluated at the
    pulse areas.  The exponential goes through its eigendecomposition.
    """
    w, v = np.linalg.eigh(build_subspace(2).matrix(g_a, g_b))
    return (v * np.exp(-1j * w)) @ v.conj().T


def analytic_trajectory(
    profile_a, c: float, times: np.ndarray, initial: str = "100"
) -> np.ndarray:
    """Closed-form amplitudes along ``times`` for proportional drives.

    profile_a is atom A's drive and atom B's is c times it; both come from
    :func:`pcqed.coupling.drive_pair`, which also returns c (|p| for a
    trace, p otherwise).  Running pulse areas are exact
    (:func:`pcqed.coupling.exact_area`); a drive without an exact area, such
    as a raw or complex trace or an arbitrary callable, raises TypeError.
    Returns an (len(times), 3) complex array over {|100>, |010>, |001>} for
    the chosen initial basis state; row 0 is the initial state when
    times[0] is the window start.
    """
    if initial not in basis_labels(1):
        raise ValueError(f"initial must be one of {', '.join(map(repr, basis_labels(1)))}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need at least two output times")
    g_a = exact_area(profile_a, times[0], times)
    return np.stack(amplitudes(g_a, c * g_a, initial), axis=1)
