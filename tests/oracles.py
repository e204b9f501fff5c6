"""Independent reference implementations that only the tests use."""

import bisect
import cmath
import itertools
import math
from pathlib import Path

import mpmath
import numpy as np

import pcqed
from pcqed.core import EPS0, HBAR, CalibrationError, ConvergenceError
from pcqed.coupling import GenericProfile, ScaledProfile, TraceMagnitude
from pcqed.dop853 import (
    A21, A31, A32, A41, A43, A51, A53, A54, A61, A64, A65, A71, A74, A75, A76,
    A81, A84, A85, A86, A87, A91, A94, A95, A96, A97, A98,
    A101, A104, A105, A106, A107, A108, A109,
    A111, A114, A115, A116, A117, A118, A119, A1110,
    A121, A124, A125, A126, A127, A128, A129, A1210, A1211,
    B1, B6, B7, B8, B9, B10, B11, B12,
    C2, C3, C4, C5, C6, C7, C8, C9, C10, C11, C12,
    E31, E39, E312, ER1, ER6, ER7, ER8, ER9, ER10, ER11, ER12,
)
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


def comprehension_stages(fun, t, h, y, k1):
    """Stages 2..12 and the new state of one DOP853 step, one list
    comprehension over the components each: the stage arithmetic that
    :func:`pcqed.dop853._kernel` generates as straight-line code.

    Returns (y_new, k6, ..., k12).
    """
    k2 = fun(t + C2 * h, [a + A21 * b1 * h for a, b1 in zip(y, k1)])
    k3 = fun(t + C3 * h, [a + (A31 * b1 + A32 * b2) * h
                          for a, b1, b2 in zip(y, k1, k2)])
    k4 = fun(t + C4 * h, [a + (A41 * b1 + A43 * b3) * h
                          for a, b1, b3 in zip(y, k1, k3)])
    k5 = fun(t + C5 * h, [a + (A51 * b1 + A53 * b3 + A54 * b4) * h
                          for a, b1, b3, b4 in zip(y, k1, k3, k4)])
    k6 = fun(t + C6 * h, [a + (A61 * b1 + A64 * b4 + A65 * b5) * h
                          for a, b1, b4, b5 in zip(y, k1, k4, k5)])
    k7 = fun(t + C7 * h, [a + (A71 * b1 + A74 * b4 + A75 * b5 + A76 * b6) * h
                          for a, b1, b4, b5, b6 in zip(y, k1, k4, k5, k6)])
    k8 = fun(t + C8 * h, [a + (A81 * b1 + A84 * b4 + A85 * b5 + A86 * b6 + A87 * b7) * h
                          for a, b1, b4, b5, b6, b7 in zip(y, k1, k4, k5, k6, k7)])
    k9 = fun(t + C9 * h, [a + (A91 * b1 + A94 * b4 + A95 * b5 + A96 * b6 + A97 * b7
                               + A98 * b8) * h
                          for a, b1, b4, b5, b6, b7, b8 in zip(y, k1, k4, k5, k6, k7, k8)])
    k10 = fun(t + C10 * h, [a + (A101 * b1 + A104 * b4 + A105 * b5 + A106 * b6 + A107 * b7
                                 + A108 * b8 + A109 * b9) * h
                            for a, b1, b4, b5, b6, b7, b8, b9
                            in zip(y, k1, k4, k5, k6, k7, k8, k9)])
    k11 = fun(t + C11 * h, [a + (A111 * b1 + A114 * b4 + A115 * b5 + A116 * b6 + A117 * b7
                                 + A118 * b8 + A119 * b9 + A1110 * b10) * h
                            for a, b1, b4, b5, b6, b7, b8, b9, b10
                            in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
    k12 = fun(t + C12 * h, [a + (A121 * b1 + A124 * b4 + A125 * b5 + A126 * b6 + A127 * b7
                                 + A128 * b8 + A129 * b9 + A1210 * b10 + A1211 * b11) * h
                            for a, b1, b4, b5, b6, b7, b8, b9, b10, b11
                            in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
    y_new = [a + h * (B1 * b1 + B6 * b6 + B7 * b7 + B8 * b8 + B9 * b9 + B10 * b10
                      + B11 * b11 + B12 * b12)
             for a, b1, b6, b7, b8, b9, b10, b11, b12
             in zip(y, k1, k6, k7, k8, k9, k10, k11, k12)]
    return y_new, k6, k7, k8, k9, k10, k11, k12


def norm2(v):
    """Euclidean norm of a list of complex numbers, summed in order."""
    return math.sqrt(sum([z.real * z.real + z.imag * z.imag for z in v]))


def comprehension_norm(y, y_new, ks, h, rtol, atol, blocks):
    """The combined E3/E5 error norm of dop853.f as list comprehensions over
    the scale, E5 and E3, taken over list slices block by block: the norm
    that :func:`pcqed.dop853._kernel` generates.  ``ks`` is (k1, k6, ..., k12)."""
    scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
    e5 = [(ER1 * b1 + ER6 * b6 + ER7 * b7 + ER8 * b8 + ER9 * b9 + ER10 * b10
           + ER11 * b11 + ER12 * b12) / s
          for s, b1, b6, b7, b8, b9, b10, b11, b12 in zip(scale, *ks)]
    e3 = [(E31 * b1 + B6 * b6 + B7 * b7 + B8 * b8 + E39 * b9 + B10 * b10
           + B11 * b11 + E312 * b12) / s
          for s, b1, b6, b7, b8, b9, b10, b11, b12 in zip(scale, *ks)]
    err = 0.0
    for lo, hi in blocks:
        s5 = norm2(e5[lo:hi]) ** 2
        s3 = norm2(e3[lo:hi]) ** 2
        if s5 or s3:
            err = max(err, abs(h) * s5 / math.sqrt((s5 + 0.01 * s3) * (hi - lo)))
    return err


def comprehension_step(fun, blocks):
    """step(t, h, y, k1, rtol, atol) -> (error_norm, y_new, k6, ..., k13) of
    :func:`pcqed.dop853._kernel`, from :func:`comprehension_stages`, one call
    of ``fun`` at the step's end and :func:`comprehension_norm`."""
    def step(t, h, y, k1, rtol, atol):
        y_new, *ks = comprehension_stages(fun, t, h, y, k1)
        k13 = fun(t + h, y_new)
        return (comprehension_norm(y, y_new, (k1, *ks), h, rtol, atol, blocks), y_new, *ks, k13)

    return step


def initial_step(fun, t0, y0, t_bound, rtol, atol, blocks):
    """Hairer, Norsett & Wanner's first-step guess (sec. II.4), as scipy
    takes it, on the complex numbers of the state y0 at t0 and of f =
    fun(t, y) there: the first step of :class:`pcqed.dop853.DOP853`, whose
    norms are the largest root-mean-square norm over the (start, stop)
    ``blocks``, as it takes them on float pairs."""
    def norm(v):
        return max(norm2(v[lo:hi]) / (hi - lo) ** 0.5 for lo, hi in blocks)

    y0 = [complex(a) for a in y0]
    f0 = fun(t0, y0)
    interval = t_bound - t0
    scale = [atol + abs(a) * rtol for a in y0]
    d0 = norm([a / s for a, s in zip(y0, scale)])
    d1 = norm([a / s for a, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, [a + h0 * b for a, b in zip(y0, f0)])
    d2 = norm([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


class Formula:
    """A drive the tests state as one expression in T, through the protocol of
    :mod:`pcqed.coupling`: ``expr`` reads T and, written ``{p}name``, the
    keyword ``values``.  It reports no breakpoints.  A constant drive g is
    ``Formula("{p}g", g=g)``."""

    def __init__(self, expr: str, **values):
        self.expr, self.values = expr, values

    def scalar_lines(self, out: str, p: str) -> tuple[tuple, tuple, tuple]:
        return ((f"{out} = {self.expr.format(p=p)}",), tuple(p + name for name in self.values),
                tuple(self.values.values()))

    def breakpoints(self, t0: float, t1: float) -> np.ndarray:
        return np.empty(0)


def drive_at(drive):
    """The drive's value at one time, as a function of a Python float.

    A drive pcqed builds is evaluated by its vectorized call's formula term
    by term on Python scalars: the generic profile as Omega0 cos(zeta)
    exp(-|x| / R) cos(pi x / l) with x = V t - L, a trace's magnitude as
    the arithmetic of ``np.interp`` on the bracketing samples, found by
    bisection (0.0 outside the window), and a ScaledProfile as its factor
    times its base's value.  A :class:`Formula` is its expression.
    """
    if isinstance(drive, Formula):
        return eval(f"lambda T: {drive.expr.format(p='')}", dict(drive.values))
    if isinstance(drive, ScaledProfile):
        base = drive_at(drive.base)
        return lambda t: drive.factor * base(t)
    if isinstance(drive, GenericProfile):
        params = drive.params

        def generic(t):
            x = params.velocity * t - params.path_half_length
            return (params.omega0 * math.cos(params.zeta)
                    * math.exp(-abs(x) / params.defect_radius)
                    * math.cos(math.pi * x / params.lattice_const))

        return generic
    if isinstance(drive, TraceMagnitude):
        values = drive.trace.values
        times, re = drive.trace.times.tolist(), values.real.tolist()
        im = values.imag.tolist() if drive.trace.is_complex else []

        def magnitude(t):
            j = bisect.bisect_right(times, t) - 1
            if j < 0 or t > times[-1]:
                return 0.0
            if t == times[j]:
                return abs(complex(re[j], im[j])) if im else abs(re[j])
            u = t - times[j]
            h = times[j + 1] - times[j]
            value = (re[j + 1] - re[j]) / h * u + re[j]
            if im:
                return abs(complex(value, (im[j + 1] - im[j]) / h * u + im[j]))
            return abs(value)

        return magnitude
    raise TypeError(f"no scalar evaluator for a drive of type {type(drive).__name__}")


def table_rhs(couplings, g_a, g_b, dim):
    """The right-hand side that :func:`pcqed.ode._source` states, walking the
    coupling table entry by entry and reading both drives through
    :func:`drive_at`, atom B's as its own: -i H(t) psi with H from
    ``couplings`` over ``dim`` components."""
    drives = (drive_at(g_a), drive_at(g_b))
    table = [(row, col, atom, -1j * factor) for row, col, atom, factor in couplings]

    def rhs(t: float, psi: list) -> list:
        g = (drives[0](t), drives[1](t))
        if not (cmath.isfinite(g[0]) and cmath.isfinite(g[1])):
            raise ConvergenceError(f"non-finite coupling at t={t:g}", t=t)
        out = [0j] * dim
        for row, col, atom, c in table:
            c *= g[atom]  # -i H[row, col]; -i H[col, row] = -conj(c)
            out[row] += c * psi[col]
            out[col] -= c.conjugate() * psi[row]
        return out

    return rhs
