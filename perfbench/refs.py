"""Independent references for the pcqed benchmark.

Nothing here imports pcqed or scipy.integrate.  Pulse areas come from the
closed form of the generic profile or from the exact integral of the
magnitude of a trace's linear interpolant; propagators are the matrix
exponential of the constant coupling matrix times the running area, which
is exact whenever atom B's drive is a fixed real multiple of atom A's; mode
statistics are recomputed from the grid arrays with exactly rounded sums.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
HBAR = 1.054571817e-34   # J s, CODATA 2018
EPS0 = 8.8541878128e-12  # F/m, CODATA 2018

# Basis orders, as in the package: one excitation {|100>, |010>, |001>},
# two excitations {|110>, |101>, |011>, |002>} (atom A, atom B, photons).
ONE_EXCITATION = ("100", "010", "001")
TWO_EXCITATIONS = ("110", "101", "011", "002")


def generic_profile(t, omega0, half_length, defect_radius, lattice_const, velocity, zeta=0.0):
    """Omega0 cos(zeta) exp(-|x|/R) cos(pi x / l) at x = V t - L, rad/s."""
    x = velocity * np.asarray(t, dtype=float) - half_length
    return (
        omega0
        * math.cos(zeta)
        * np.exp(-np.abs(x) / defect_radius)
        * np.cos(np.pi * x / lattice_const)
    )


def generic_area(omega0, half_length, defect_radius, lattice_const, velocity, zeta=0.0):
    """Full-transit area (rad) of the generic profile, in closed form.

    2 Omega0 cos(zeta) Re[(1 - exp(-alpha L)) / alpha] / V with
    alpha = 1/R - i pi/l.
    """
    alpha = complex(1.0 / defect_radius, -math.pi / lattice_const)
    integral = ((1.0 - np.exp(-alpha * half_length)) / alpha).real
    return 2.0 * omega0 * math.cos(zeta) * integral / velocity


def generic_running_area(t, omega0, half_length, defect_radius, lattice_const, velocity, zeta=0.0):
    """Area (rad) gathered from the window start up to each time t, in closed form."""
    x = velocity * np.asarray(t, dtype=float) - half_length
    beta = complex(1.0 / defect_radius, math.pi / lattice_const)
    alpha = beta.conjugate()
    # exp(-|u|/R) cos(pi u/l) = Re exp(beta u) for u <= 0 and Re exp(-alpha u) for u >= 0.
    before = (np.exp(beta * np.minimum(x, 0.0)) - np.exp(-beta * half_length)) / beta
    after = (1.0 - np.exp(-alpha * np.maximum(x, 0.0))) / alpha
    return omega0 * math.cos(zeta) * (before.real + after.real) / velocity


def coupling_matrix(p: float, n_excitations: int = 1) -> np.ndarray:
    """Coupling structure K with H(t) = g_a(t) K when g_b = p g_a.

    Two excitations carry the sqrt(2) ladder factor into |002>.
    """
    if n_excitations == 1:
        k = np.zeros((3, 3))
        k[0, 2] = k[2, 0] = 1.0
        k[1, 2] = k[2, 1] = p
        return k
    if n_excitations == 2:
        k = np.zeros((4, 4))
        k[0, 1] = k[1, 0] = p          # |110> <-> |101>: atom B emits
        k[0, 2] = k[2, 0] = 1.0        # |110> <-> |011>: atom A emits
        k[1, 3] = k[3, 1] = SQRT2      # |101> <-> |002>: atom A emits
        k[2, 3] = k[3, 2] = SQRT2 * p  # |011> <-> |002>: atom B emits
        return k
    raise ValueError("n_excitations must be 1 or 2")


def propagators(areas, p: float, n_excitations: int = 1) -> np.ndarray:
    """expm(-i A K) for each area A: shape (len(areas), dim, dim).

    K is real symmetric, so expm(-i A K) = V diag(exp(-i A lambda)) V^T with
    K = V diag(lambda) V^T.  This keeps the checks off scipy.linalg.expm, whose
    BLAS threads would otherwise keep spinning beside the timed operations;
    the tests compare the two.
    """
    areas = np.atleast_1d(np.asarray(areas, dtype=float))
    lam, vec = np.linalg.eigh(coupling_matrix(p, n_excitations))
    return np.einsum("ik,nk,jk->nij", vec, np.exp(-1j * np.outer(areas, lam)), vec)


def states(areas, p: float, initial: str) -> np.ndarray:
    """Amplitudes expm(-i A K) |initial> for each area A: shape (len(areas), dim)."""
    basis = ONE_EXCITATION if initial in ONE_EXCITATION else TWO_EXCITATIONS
    n = 1 if basis is ONE_EXCITATION else 2
    return propagators(areas, p, n)[:, :, basis.index(initial)]


def _segment_area(z0, d, s):
    """Integral of |z0 + d u| over u in [0, s], elementwise.

    With |z0 + d u| = |d| sqrt((u + u0)^2 + k^2), the antiderivative of
    sqrt(x^2 + k^2) is (x r + k^2 asinh(x / k)) / 2; the difference is taken
    in a form that does not cancel when |d| is small against |z0|.
    """
    a = np.abs(d)
    flat = a == 0.0
    a_safe = np.where(flat, 1.0, a)
    u0 = (z0.real * d.real + z0.imag * d.imag) / a_safe**2
    k = np.abs(z0.real * d.imag - z0.imag * d.real) / a_safe**2
    u1 = u0 + s
    r0, r1 = np.hypot(u0, k), np.hypot(u1, k)
    r_sum = np.where(r0 + r1 == 0.0, 1.0, r0 + r1)
    first = s * r1 + u0 * s * (u0 + u1) / r_sum
    k_safe = np.where(k == 0.0, 1.0, k)
    # asinh(u1/k) - asinh(u0/k); on one side of the minimum it equals
    # asinh(s (u0 + u1) / (u1 r0 + u0 r1)), whose terms share a sign.
    same_side = u0 * u1 > 0.0
    denom = np.where(same_side, u1 * r0 + u0 * r1, 1.0)
    d_asinh = np.where(same_side, np.arcsinh(s * (u0 + u1) / denom),
                       np.arcsinh(u1 / k_safe) - np.arcsinh(u0 / k_safe))
    second = np.where(k == 0.0, 0.0, k**2 * d_asinh)
    return np.where(flat, np.abs(z0) * s, 0.5 * a * (first + second))


def interpolant_running_area(times, values, out_times) -> np.ndarray:
    """Area of |linear interpolant of values| from times[0] to each out_time.

    Integrated exactly within every sample interval, so kinks where the
    interpolant passes near zero cost no accuracy.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=complex)
    out_times = np.asarray(out_times, dtype=float)
    h = np.diff(times)
    z0, d = values[:-1], np.diff(values)
    full = np.concatenate(([0.0], np.cumsum(h * _segment_area(z0, d, np.ones_like(h)))))
    i = np.clip(np.searchsorted(times, out_times, side="right") - 1, 0, h.size - 1)
    s = np.clip((out_times - times[i]) / h[i], 0.0, 1.0)
    return full[i] + h[i] * _segment_area(z0[i], d[i], s)


def dense_running_area(times, values, out_times, subdivisions: int) -> np.ndarray:
    """The same area by the trapezoid rule over ``subdivisions`` pieces per interval
    (converges as subdivisions^-2; the tests use it to check the exact form)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=complex)
    frac = np.arange(subdivisions) / subdivisions
    dense = (times[:-1, None] + np.diff(times)[:, None] * frac).ravel()
    dense = np.union1d(np.concatenate((dense, times[-1:])), out_times)
    magnitude = np.abs(
        np.interp(dense, times, values.real) + 1j * np.interp(dense, times, values.imag)
    )
    running = np.concatenate(
        ([0.0], np.cumsum(0.5 * (magnitude[1:] + magnitude[:-1]) * np.diff(dense)))
    )
    return running[np.searchsorted(dense, out_times)]


def multilinear(axes, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of a 3D array sampled at axis centres.

    Points are clamped to the hull of the centres; an axis with one centre
    contributes that centre alone.
    """
    values = np.asarray(values)
    points = np.asarray(points, dtype=float)
    out = np.zeros(points.shape[0], dtype=complex)
    lows, weights = [], []
    for k, ax in enumerate(axes):
        if ax.size == 1:
            lows.append(np.zeros(points.shape[0], dtype=int))
            weights.append(np.zeros(points.shape[0]))
            continue
        q = np.clip(points[:, k], ax[0], ax[-1])
        i = np.clip(np.searchsorted(ax, q, side="right") - 1, 0, ax.size - 2)
        lows.append(i)
        weights.append((q - ax[i]) / (ax[i + 1] - ax[i]))
    for corner in range(8):
        w = np.ones(points.shape[0])
        idx = []
        for k in range(3):
            upper = (corner >> k) & 1
            if axes[k].size == 1 and upper:
                w = None
                break
            w = w * (weights[k] if upper else 1.0 - weights[k])
            idx.append(lows[k] + upper)
        if w is not None:
            out += w * values[idx[0], idx[1], idx[2]]
    return out


def cell_centres(origin, spacing, dims):
    return [origin[k] + (np.arange(dims[k]) + 0.5) * spacing[k] for k in range(3)]


def intensity(field: np.ndarray) -> np.ndarray:
    """|E|^2 per cell, summed over components for vector fields."""
    magnitude2 = field.real**2 + field.imag**2
    return magnitude2.sum(axis=-1) if field.ndim == 4 else magnitude2


def peak_cell(epsilon: np.ndarray, field: np.ndarray) -> tuple[int, int, int]:
    """Index of the first cell maximizing eps |E|^2 (row-major order)."""
    density = epsilon * intensity(field)
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(density)), density.shape))


def mode_volume(epsilon: np.ndarray, field: np.ndarray, cell_volume: float) -> float:
    """Sum of eps |E|^2 dV over its maximum, with an exactly rounded sum."""
    density = epsilon * intensity(field)
    return math.fsum(density.ravel()) * cell_volume / float(density.max())


def polarization_fraction(field: np.ndarray, plane_index: int) -> float:
    """Share of |E_z|^2 in the energy of one z-plane of a 3-component field."""
    plane = field[:, :, plane_index, :]
    energy = plane.real**2 + plane.imag**2
    return math.fsum(energy[..., 2].ravel()) / math.fsum(energy.ravel())


def field_trace(origin, spacing, epsilon, field, entry, direction, length, velocity,
                g0, zeta, n_samples):
    """(times, values) of g0 cos(zeta) Psi along a straight path inside the grid.

    Psi is the coupling component (E_z, or the scalar field) divided by |E|
    at the energy-density peak.
    """
    dims = epsilon.shape
    component = field[..., 2] if field.ndim == 4 else field
    peak = math.sqrt(float(intensity(field)[peak_cell(epsilon, field)]))
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    s = np.linspace(0.0, length, n_samples)
    points = np.asarray(entry, dtype=float) + np.outer(s, d)
    psi = multilinear(cell_centres(origin, spacing, dims), component, points) / peak
    return s / velocity, g0 * math.cos(zeta) * psi


def g0(mu_eg, omega, eps_m, v_mode):
    """Peak vacuum coupling (mu/hbar) sqrt(hbar omega / (2 eps0 eps_m V)), rad/s."""
    return (mu_eg / HBAR) * math.sqrt(HBAR * omega / (2.0 * EPS0 * eps_m * v_mode))


# Ideal dual-rail actions: input rail -> (amplitude on |10>, amplitude on |01>).
_H = 1.0 / SQRT2
GATES = {
    "ENTANGLER_HADAMARD": {"10": (_H, _H), "01": (_H, -_H)},
    "NOT": {"10": (0.0, 1.0), "01": (1.0, 0.0)},
    "Z": {"10": (-1.0, 0.0), "01": (0.0, 1.0)},
    "SWAP": {"10": (0.0, 1.0), "01": (1.0, 0.0)},
}
REQUIRED_P = {"ENTANGLER_HADAMARD": SQRT2 - 1.0, "NOT": 1.0, "Z": 0.0, "SWAP": 1.0}


def gate_reference(area_a: float, p: float, label: str) -> dict:
    """Expected truth-table figures for proportional drives of total area area_a on atom A.

    Rail columns come from the 3x3 propagator; for SWAP the |11> return comes
    from the 4x4 two-excitation propagator and |00> is left unchanged.
    """
    u = propagators([area_a], p, 1)[0]
    fidelities, residual, overlaps = {}, {}, {}
    for column, (rail, (t10, t01)) in enumerate(GATES[label].items()):
        final = u[:, column]
        overlaps[rail] = np.vdot(np.array([t10, t01, 0.0]), final)
        fidelities[rail] = abs(overlaps[rail]) ** 2
        residual[rail] = abs(final[2]) ** 2
    z0 = overlaps["10"]
    phases = {rail: float(np.angle(z * np.conj(z0))) for rail, z in overlaps.items()}
    if label == "SWAP":
        amp11 = propagators([area_a], p, 2)[0][0, 0]
        fidelities["11"] = abs(amp11) ** 2
        residual["11"] = 1.0 - abs(amp11) ** 2
        overlaps["11"] = amp11
        phases["11"] = float(np.angle(amp11 * np.conj(z0)))
        fidelities["00"], residual["00"] = 1.0, 0.0
    return {"fidelities": fidelities, "residual": residual, "overlaps": overlaps,
            "relative_phases": phases}


def max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
