"""Independent reference implementations that only the tests use."""

import math

import numpy as np

from pcqed import PulseAreas


def series_amplitudes(areas: PulseAreas, n_terms: int) -> tuple[complex, complex, complex]:
    """(a, b, gamma) from |100> as partial sums of the power series through order n_terms.

    The single-excitation propagator exp(-i M) summed term by term, an
    oracle for the closed form of :func:`pcqed.analytic.amplitudes`.  The
    even series carries terms (-1)^n Lambda^(2n-2) / (2n)! and the odd one
    (-1)^n Lambda^(2n-2) / (2n-1)!; n_terms = 0 returns (1, 0, 0).
    """
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    lam_sq = areas.g_a**2 + areas.g_b**2
    even_sum = 0.0  # sum of (-1)^n lam^(2n-2) / (2n)!
    odd_sum = 0.0   # sum of (-1)^n lam^(2n-2) / (2n-1)!
    even_term = -0.5
    odd_term = -1.0
    for n in range(1, n_terms + 1):
        even_sum += even_term
        odd_sum += odd_term
        even_term *= -lam_sq / ((2 * n + 1) * (2 * n + 2))
        odd_term *= -lam_sq / ((2 * n) * (2 * n + 1))
    a = 1.0 + areas.g_a**2 * even_sum
    b = areas.g_a * areas.g_b * even_sum
    gamma = 1j * areas.g_a * odd_sum
    return (complex(a), complex(b), complex(gamma))


def _rod_coverage(x, y, cx, cy, radius, hx, hy, sub=4):
    """Fraction of each (hx x hy) cell covered by the rod, by subcell sampling."""
    cover = np.zeros(np.broadcast(x, y).shape)
    offsets = (np.arange(sub) + 0.5) / sub - 0.5
    for ox in offsets:
        for oy in offsets:
            inside = (x + ox * hx - cx) ** 2 + (y + oy * hy - cy) ** 2 <= radius**2
            cover += inside
    return cover / sub**2


def rod_loop_epsilon(
    x,
    y,
    lattice_const,
    hx,
    hy,
    rod_eps=12.0,
    rod_radius_frac=0.175,
    defect_radius_frac=0.15,
):
    """Dielectric map of :func:`pcqed.fieldgrid._triangular_rod_epsilon`, rod by rod.

    Every rod of the lattice cut to |i| <= reach_i, |j| <= reach_j makes
    its own subcell passes over the whole grid, and each cell keeps the
    largest coverage of any rod; the work grows with (box / lattice
    constant)^2.  An oracle for the four-nearest-rods version.
    """
    l = lattice_const
    cover = np.zeros(np.broadcast(x, y).shape)
    a1 = np.array([l, 0.0])
    a2 = np.array([0.5 * l, 0.5 * math.sqrt(3.0) * l])
    reach_i = int(np.ceil((np.max(np.abs(x)) + l) / l)) + 1
    reach_j = int(np.ceil((np.max(np.abs(y)) + l) / a2[1])) + 1
    rod_r = rod_radius_frac * l
    for j in range(-reach_j, reach_j + 1):
        for i in range(-reach_i, reach_i + 1):
            if i == 0 and j == 0:
                continue
            cx, cy = i * a1 + j * a2
            cover = np.maximum(cover, _rod_coverage(x, y, cx, cy, rod_r, hx, hy))
    defect_r = defect_radius_frac * l
    cover = np.maximum(cover, _rod_coverage(x, y, 0.0, 0.0, defect_r, hx, hy))
    return 1.0 + (rod_eps - 1.0) * cover
