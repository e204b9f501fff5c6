"""Independent reference implementations that only the tests use."""

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
