"""Independent reference implementations that only the tests use."""

import itertools
import math
from pathlib import Path

import mpmath
import numpy as np

import pcqed
from pcqed.core import EPS0, HBAR, CalibrationError
from pcqed.fieldgrid import DEFECT_RADIUS_FRAC, ROD_EPS, ROD_RADIUS_FRAC

C_LIGHT = 299792458.0  # m/s, CODATA 2018


def example_config_path(name: str) -> Path:
    """Path to a bundled example config (name without the .json suffix)."""
    return Path(pcqed.__file__).parent / "configs" / f"{name}.json"


def series_amplitudes(g_a: float, g_b: float, n_terms: int) -> tuple[complex, complex, complex]:
    """(a, b, gamma) from |100> after pulse areas g_a, g_b, as partial sums
    of the power series through order n_terms.

    The single-excitation propagator exp(-i M) summed term by term, an
    oracle for the closed form of :func:`pcqed.analytic.amplitudes`.  The
    even series carries terms (-1)^n Lambda^(2n-2) / (2n)! and the odd one
    (-1)^n Lambda^(2n-2) / (2n-1)!; n_terms = 0 returns (1, 0, 0).
    """
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    lam_sq = g_a**2 + g_b**2
    even_sum = 0.0  # sum of (-1)^n lam^(2n-2) / (2n)!
    odd_sum = 0.0   # sum of (-1)^n lam^(2n-2) / (2n-1)!
    even_term = -0.5
    odd_term = -1.0
    for n in range(1, n_terms + 1):
        even_sum += even_term
        odd_sum += odd_term
        even_term *= -lam_sq / ((2 * n + 1) * (2 * n + 2))
        odd_term *= -lam_sq / ((2 * n) * (2 * n + 1))
    a = 1.0 + g_a**2 * even_sum
    b = g_a * g_b * even_sum
    gamma = 1j * g_a * odd_sum
    return (complex(a), complex(b), complex(gamma))


def mode_volume_from_g0(mu_eg: float, omega: float, eps_m: float, g0: float) -> float:
    """Mode volume (m^3) at which a dipole mu_eg sees peak coupling g0: the
    inverse of :func:`pcqed.core.g0_from_params`."""
    return mu_eg**2 * omega / (2.0 * HBAR * EPS0 * eps_m * g0**2)


def effective_interaction_time(params, envelope_cut: float = 0.01) -> float:
    """Window (s) outside which the generic profile's envelope, of family
    ``params``, is below ``envelope_cut`` of its peak."""
    return 2.0 * params.defect_radius * math.log(1.0 / envelope_cut) / params.velocity


def _rod_coverage(x, y, cx, cy, radius, hx, hy, sub=4):
    """Fraction of each (hx x hy) cell covered by the rod, by subcell sampling."""
    cover = np.zeros(np.broadcast(x, y).shape)
    offsets = (np.arange(sub) + 0.5) / sub - 0.5
    for ox in offsets:
        for oy in offsets:
            inside = (x + ox * hx - cx) ** 2 + (y + oy * hy - cy) ** 2 <= radius**2
            cover += inside
    return cover / sub**2


def rod_loop_epsilon(x, y, lattice_const, hx, hy):
    """Dielectric map of :func:`pcqed.fieldgrid._triangular_rod_epsilon`, rod by rod.

    Every rod that can reach a cell makes its own subcell passes over the
    whole grid, and each cell keeps the largest coverage of any rod; the
    work grows with (box / lattice constant)^2.  Row j of the lattice is
    shifted by j l/2 in x, so each row gets its own range of i, wide enough
    for the cells' subcell points.  An oracle for the four-nearest-rods
    version, with the same geometry constants.
    """
    l = lattice_const
    cover = np.zeros(np.broadcast(x, y).shape)
    a1 = np.array([l, 0.0])
    a2 = np.array([0.5 * l, 0.5 * math.sqrt(3.0) * l])
    x_min, x_max = np.min(x) - hx, np.max(x) + hx
    j_lo = math.floor((np.min(y) - hy) / a2[1]) - 1
    j_hi = math.ceil((np.max(y) + hy) / a2[1]) + 1
    rod_r = ROD_RADIUS_FRAC * l
    for j in range(j_lo, j_hi + 1):
        shift = j * a2[0]
        for i in range(math.floor((x_min - shift) / l) - 1, math.ceil((x_max - shift) / l) + 2):
            if i == 0 and j == 0:
                continue
            cx, cy = i * a1 + j * a2
            cover = np.maximum(cover, _rod_coverage(x, y, cx, cy, rod_r, hx, hy))
    defect_r = DEFECT_RADIUS_FRAC * l
    cover = np.maximum(cover, _rod_coverage(x, y, 0.0, 0.0, defect_r, hx, hy))
    return 1.0 + (ROD_EPS - 1.0) * cover


def mp_rod_epsilon(xs, ys, lattice_const, hx, hy, dps=60):
    """Dielectric map of :func:`pcqed.fieldgrid._triangular_rod_epsilon` in mpmath.

    The cell centres xs x ys are taken as the floats they are; each of the
    16 subcell points, its lattice coordinates and its distance to the rods
    of the 4 x 4 block around it are computed with ``dps`` digits, so the
    map holds for any box that the centres themselves resolve.
    """
    with mpmath.workdps(dps):
        l = mpmath.mpf(lattice_const)
        a2x, a2y = l / 2, mpmath.sqrt(3) * l / 2
        rod_r2 = (mpmath.mpf(ROD_RADIUS_FRAC) * l) ** 2
        defect_r2 = (mpmath.mpf(DEFECT_RADIUS_FRAC) * l) ** 2
        offsets = [mpmath.mpf(2 * k + 1) / 8 - mpmath.mpf(1) / 2 for k in range(4)]
        eps = np.empty((len(xs), len(ys)))
        for (a, x), (b, y) in itertools.product(enumerate(xs), enumerate(ys)):
            hits, defect = {}, 0
            for ox, oy in itertools.product(offsets, offsets):
                px, py = mpmath.mpf(x) + ox * mpmath.mpf(hx), mpmath.mpf(y) + oy * mpmath.mpf(hy)
                v = py / a2y
                j0, i0 = int(mpmath.floor(v)), int(mpmath.floor((px - a2x * v) / l))
                for i, j in itertools.product(range(i0 - 1, i0 + 3), range(j0 - 1, j0 + 3)):
                    if (i, j) != (0, 0) and (px - i * l - j * a2x) ** 2 + (py - j * a2y) ** 2 <= rod_r2:
                        hits[i, j] = hits.get((i, j), 0) + 1
                defect += px**2 + py**2 <= defect_r2
            eps[a, b] = 1.0 + (ROD_EPS - 1.0) * max([defect, *hits.values()]) / 16
        return eps


def odd_multiple_walk(lam_at_v, v_lo, v_hi):
    """The velocity of :func:`pcqed.gates._fastest_odd_multiple`, found by walking k.

    Tries v_k = lam_at_v / ((2k+1) pi) for k = 0, 1, 2, ... until one falls
    inside [v_lo, v_hi] or below v_lo, keeping every v_k; the work grows
    with the pulse area.  Raises CalibrationError with the two kept
    velocities nearest the bounds when none is inside.
    """
    candidates = []
    k = 0
    while True:
        v_k = lam_at_v / ((2 * k + 1) * math.pi)
        candidates.append(v_k)
        if v_lo <= v_k <= v_hi:
            residual = abs(lam_at_v / v_k - (2 * k + 1) * math.pi)
            if residual > 1e-8:
                raise CalibrationError(f"calibration residual {residual:g} exceeds 1e-8")
            return v_k
        if v_k < v_lo:
            break
        k += 1
    nearest = sorted(candidates, key=lambda v: min(abs(v - v_lo), abs(v - v_hi)))[:2]
    raise CalibrationError(
        f"no odd-multiple solution in [{v_lo:g}, {v_hi:g}] m/s; nearest "
        f"candidates: {', '.join(f'{v:.4g}' for v in nearest)}",
        candidates=tuple(nearest),
    )
