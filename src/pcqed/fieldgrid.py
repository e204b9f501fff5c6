"""Discretized cavity-mode fields and the coupling machinery built on them.

A FieldGrid holds the relative permittivity and the (possibly complex)
electric field on a regular grid with samples at cell centers.  From it we
extract the energy-density maximum, the mode volume, the normalized spatial
profile along an atom path, the resulting coupling trace, and the in-plane
TM polarization fraction.  No eigenmode solving happens here: grids are
either loaded from JSON or synthesized as deterministic stand-ins shaped
like a defect mode (radially decaying, oscillating at the lattice period,
dielectric rods in air).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import CavityParams, _require_positive
from .coupling import CouplingTrace

__all__ = [
    "MAX_CELLS",
    "FieldGrid",
    "PathSpec",
    "peak_energy_point",
    "mode_volume",
    "coupling_trace_from_field",
    "polarization_fraction",
    "synthesize_mode",
    "grid_to_json",
    "grid_from_json",
]

# Samples per coupling trace, unless the caller asks for another count.
DEFAULT_SAMPLES = 2001

# The synthetic modes' triangular rod lattice, lengths in lattice constants l:
# rods of relative permittivity ROD_EPS and radius ROD_RADIUS_FRAC, in air,
# with a defect rod of radius DEFECT_RADIUS_FRAC replacing the rod at the origin.
ROD_EPS = 12.0
ROD_RADIUS_FRAC = 0.175
DEFECT_RADIUS_FRAC = 0.15

# The most cells a synthesized grid may have.  Synthesis holds about 105
# bytes per cavity3d cell (measured at 101^3 to 161^3), so the budget bounds
# it to about 0.2 GiB; the largest bundled grid has 60 025 cells.
MAX_CELLS = 2_000_000

# The widest box a synthesized grid may span, in lattice constants per axis.
# Rods are found from coordinates in lattice constants, whose rounding grows
# with the box: against a 60-digit recomputation, a 5x5 cavity2d grid's
# permittivity is exact up to a box of 1e15 lattice constants, and wrong in
# 6 of its 25 cells, with no warning, at 1e16.
MAX_BOX_LATTICE_CONSTANTS = 1e12


def _cell_centers(origin: float, spacing: float, n: int) -> np.ndarray:
    """Cell-center coordinates of one axis: origin + (index + 1/2) * spacing."""
    return origin + (np.arange(n) + 0.5) * spacing


@dataclass(frozen=True)
class FieldGrid:
    """Permittivity and field samples on a regular grid.

    spacing/origin are per-axis (m); origin is the corner of the grid box and
    samples sit at cell centers, origin + (index + 1/2) * spacing.  The field
    array is (nx, ny, nz) for scalar (TM 2D) grids or (nx, ny, nz, 3) for
    3-component grids.  lattice_const optionally records the generating
    lattice period, used as the default effective height of 2D grids.
    Every sample, spacing and origin must be finite.
    """

    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    epsilon: np.ndarray
    field: np.ndarray
    lattice_const: float | None = None

    def __post_init__(self) -> None:
        eps = np.asarray(self.epsilon, dtype=float)
        fld = np.asarray(self.field, dtype=complex)
        if eps.ndim != 3:
            raise ValueError("epsilon must be a 3D array (nx, ny, nz)")
        if fld.shape not in (eps.shape, eps.shape + (3,)):
            raise ValueError(
                f"field shape {fld.shape} inconsistent with epsilon shape {eps.shape}"
            )
        if not (np.all(np.isfinite(eps)) and np.all(np.isfinite(fld))):
            raise ValueError("epsilon and field must be finite")
        if np.any(eps < 1.0):
            raise ValueError("epsilon must be >= 1 everywhere")
        if len(self.spacing) != 3 or any(not (0 < h < math.inf) for h in self.spacing):
            raise ValueError("spacing must be three positive finite lengths")
        if len(self.origin) != 3 or not all(math.isfinite(o) for o in self.origin):
            raise ValueError("origin must have three finite components")
        eps.flags.writeable = False
        fld.flags.writeable = False
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "field", fld)
        object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.epsilon.shape

    @property
    def components(self) -> int:
        return 3 if self.field.ndim == 4 else 1

    @property
    def is_2d(self) -> bool:
        return self.dims[2] == 1

    def axis_centers(self, axis: int) -> np.ndarray:
        return _cell_centers(self.origin[axis], self.spacing[axis], self.dims[axis])

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.asarray(self.origin)
        hi = lo + np.asarray(self.dims) * np.asarray(self.spacing)
        return lo, hi

    def field_intensity(self) -> np.ndarray:
        """|E|^2 per cell (summed over components for vector fields)."""
        if self.components == 3:
            return np.sum(np.abs(self.field) ** 2, axis=-1)
        return np.abs(self.field) ** 2


@dataclass(frozen=True)
class PathSpec:
    """Straight constant-velocity atom path through the grid.

    entry: starting point (m).  direction is normalized on construction.
    length: m; velocity: m/s; zeta: dipole-polarization angle (rad).
    """

    entry: tuple[float, float, float]
    direction: tuple[float, float, float]
    length: float
    velocity: float
    zeta: float = 0.0

    def __post_init__(self) -> None:
        d = np.asarray(self.direction, dtype=float)
        norm = float(np.linalg.norm(d))
        if norm == 0.0 or not np.all(np.isfinite(d)):
            raise ValueError("direction must be a nonzero finite vector")
        _require_positive(length=self.length, velocity=self.velocity)
        if not all(math.isfinite(x) for x in self.entry):
            raise ValueError("entry must be a finite point")
        object.__setattr__(self, "direction", tuple(d / norm))
        object.__setattr__(self, "entry", tuple(float(x) for x in self.entry))


def _energy_density(grid: FieldGrid) -> tuple[np.ndarray, np.ndarray, int]:
    """|E|^2 and eps |E|^2 per cell, and the flat index of the latter's peak (the
    lowest on a tie); raises ValueError for a field that is identically zero."""
    intensity = grid.field_intensity()
    density = grid.epsilon * intensity
    peak = int(np.argmax(density))
    if not density.flat[peak] > 0:
        raise ValueError("field is identically zero")
    return intensity, density, peak


def peak_energy_point(grid: FieldGrid) -> tuple[np.ndarray, float]:
    """Position (cell center) maximizing eps |E|^2, and eps there.

    Ties break deterministically to the lowest linear (row-major) index.
    """
    idx = np.unravel_index(_energy_density(grid)[2], grid.dims)
    r_m = np.array([grid.axis_centers(k)[i] for k, i in enumerate(idx)])
    return r_m, float(grid.epsilon[idx])


def mode_volume(grid: FieldGrid, effective_height: float | None = None) -> float:
    """Mode volume (m^3): integral of eps |E|^2 over the energy density at the peak.

    Midpoint rule over cell centers.  For 2D grids (nz = 1) the cell area is
    multiplied by an effective height: the explicit argument if given, else
    the grid's lattice constant.
    """
    _, density, peak = _energy_density(grid)
    hx, hy, hz = grid.spacing
    if grid.is_2d:
        height = effective_height if effective_height is not None else grid.lattice_const
        if height is None:
            raise ValueError(
                "2D grid needs an effective height (argument or grid.lattice_const)"
            )
        if not height > 0:
            raise ValueError("effective height must be positive")
        cell = hx * hy * height
    else:
        cell = hx * hy * hz
    return float(np.sum(density) * cell / density.flat[peak])


def polarization_fraction(grid: FieldGrid, plane_index: int) -> float:
    """Share of |E_z|^2 in the total field energy of one z-plane, in [0, 1];
    1.0 on a scalar grid, a pure-TM mode whose field is all E_z."""
    if not 0 <= plane_index < grid.dims[2]:
        raise ValueError(
            f"plane index {plane_index} outside 0..{grid.dims[2] - 1}"
        )
    plane = grid.field[:, :, plane_index]
    total = float(np.sum(np.abs(plane) ** 2))
    if total == 0.0:
        raise ValueError("field vanishes in the requested plane")
    if grid.components == 1:
        return 1.0
    ez = float(np.sum(np.abs(plane[..., 2]) ** 2))
    return ez / total


def _sample(grid: FieldGrid, positions: np.ndarray) -> np.ndarray:
    """The coupling component of the field at ``positions``, linearly interpolated.

    Scalar grids interpolate the scalar field; 3-component grids interpolate
    E_z (the TM component that couples to the dipole).  Degenerate axes
    (length 1) are dropped from the interpolation.  The arithmetic is that
    of scipy's ``RegularGridInterpolator`` (method "linear"), real and
    imaginary parts apart: on each axis the cell index i with g[i] < q <=
    g[i+1], clipped to the first and last cells, and the distance
    (q - g[i]) / (g[i+1] - g[i]); then the values at the cell's corners
    times their weights, summed corner by corner in ``itertools.product``
    order, each weight multiplied up from 1 axis by axis.
    """
    values = grid.field if grid.components == 1 else grid.field[..., 2]
    axes = [grid.axis_centers(k) for k in range(3)]
    live = [k for k in range(3) if grid.dims[k] > 1]
    squeezed = values.reshape([grid.dims[k] for k in live]) if live else values
    parts = (squeezed.real, squeezed.imag)
    corners = []  # per axis, the lower and upper (index, weight)
    for k in live:
        g = axes[k]
        # Clamp to the cell-center hull: linear interpolation then never
        # exceeds the sampled extrema.
        q = np.clip(positions[:, k], g[0], g[-1])
        i = np.clip(np.searchsorted(g, q, side="left") - 1, 0, g.size - 2)
        d = (q - g[i]) / (g[i + 1] - g[i])
        corners.append(((i, 1 - d), (i + 1, d)))
    re, im = 0.0, 0.0
    for corner in itertools.product(*corners):
        index, weights = zip(*corner)
        weight = 1.0
        for w in weights:
            weight = weight * w
        re = re + parts[0][index] * weight
        im = im + parts[1][index] * weight
    return re + 1j * im


def _clip_to_bounds(path: PathSpec, grid: FieldGrid) -> tuple[float, float]:
    """Intersect the path segment [0, length] with the grid box.

    Returns the retained arclength interval.  Warns when clipping occurs;
    raises if nothing remains.
    """
    lo, hi = grid.bounds
    entry = np.asarray(path.entry)
    direction = np.asarray(path.direction)
    s_lo, s_hi = 0.0, path.length
    for k in range(3):
        if direction[k] == 0.0:
            if not lo[k] <= entry[k] <= hi[k]:
                raise ValueError("path lies outside the grid bounds")
            continue
        s1 = (lo[k] - entry[k]) / direction[k]
        s2 = (hi[k] - entry[k]) / direction[k]
        s_lo = max(s_lo, min(s1, s2))
        s_hi = min(s_hi, max(s1, s2))
    if not s_lo < s_hi:
        raise ValueError("path lies outside the grid bounds")
    if s_lo > 0.0 or s_hi < path.length:
        warnings.warn(
            f"path clipped to the grid box: arclength [{s_lo:g}, {s_hi:g}] of "
            f"[0, {path.length:g}] retained",
            stacklevel=3,
        )
    return s_lo, s_hi


def coupling_trace_from_field(
    grid: FieldGrid, path: PathSpec, cavity: CavityParams, n_samples: int = DEFAULT_SAMPLES
) -> CouplingTrace:
    """Coupling trace g0 * Psi(r(t)) * cos(zeta) along an atom path.

    Psi is the field normalized by its magnitude at the energy-density peak,
    sampled by multilinear interpolation at n_samples equally spaced points;
    times are arclength / velocity measured from the path entry.  Complex
    fields yield complex traces (the interaction uses their magnitude).
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    intensity, _, peak = _energy_density(grid)
    # Psi normalizes by |E| at the energy-density maximum, not the global
    # |E| maximum (the two coincide only when the peak sits in dielectric).
    peak_mag = math.sqrt(float(intensity.flat[peak]))

    s_lo, s_hi = _clip_to_bounds(path, grid)
    s = np.linspace(s_lo, s_hi, n_samples)
    positions = np.asarray(path.entry) + np.outer(s, np.asarray(path.direction))
    psi = _sample(grid, positions) / peak_mag
    if not psi.imag.any():  # exactly real, whatever the scale of g0
        psi = psi.real
    slack = float(np.max(np.abs(psi))) - 1.0
    if slack > 1e-9:
        warnings.warn(
            f"|Psi| exceeds 1 by {slack:.3g} along the path; the field magnitude "
            "is larger there than at the energy-density peak",
            stacklevel=2,
        )
    values = cavity.g0 * psi * math.cos(path.zeta)
    return CouplingTrace(s / path.velocity, values, velocity=path.velocity)


def _triangular_rod_epsilon(
    x: np.ndarray, y: np.ndarray, lattice_const: float, hx: float, hy: float
) -> np.ndarray:
    """Dielectric map: triangular lattice of rods with a reduced rod at the origin.

    Each (hx x hy) cell is sampled at 4 x 4 subcell points, and its rod
    coverage is the largest number of them inside any one rod, divided by
    16 (anti-aliasing the rod edges keeps grid sums convergent as the
    spacing shrinks).  The maximum over rods, not the sum, keeps cells wider
    than the gap between rods exact where they touch two.  The lattice is
    a1 = (l, 0), a2 = (l/2, l sqrt(3)/2), unbounded, so rods fill the whole
    box whatever its width; the rod at the origin is replaced by the defect
    rod, tested at every point.

    A point needs testing against four rods only.  In lattice coordinates
    (u, v) it lies in the parallelogram with corners (floor u, floor v) +
    {0, 1}^2.  The four parallelograms that have a rod as a corner cover
    the disk of radius sqrt(3) l / 2 (their height) about it, and
    ROD_RADIUS_FRAC = 0.175 is below sqrt(3)/2, so a point inside a rod is
    found there.  ROD_RADIUS_FRAC is also below 1/2, so the rods are
    disjoint and a point lies in one rod at most.  The work is thus set by
    the grid size alone, whatever the ratio of the box to the lattice
    constant.
    """
    l = lattice_const
    a2x, a2y = 0.5 * l, 0.5 * math.sqrt(3.0) * l
    rod_r2 = (ROD_RADIUS_FRAC * l) ** 2
    defect_r2 = (DEFECT_RADIUS_FRAC * l) ** 2
    sub = 4  # subcell points per axis
    offsets = (np.arange(sub) + 0.5) / sub - 0.5
    shape = x.shape
    x, y = x.ravel(), y.ravel()
    # Per subcell offset, the rod holding each point as i + 1j*j; NaN where none does.
    rods = np.full((sub * sub, x.size), complex(math.nan, math.nan))
    defect_hits = np.zeros(x.size)
    for rod, (ox, oy) in zip(rods, itertools.product(offsets, offsets)):
        px = x + ox * hx
        py = y + oy * hy
        v = py / a2y
        j0 = np.floor(v)
        i0 = np.floor((px - a2x * v) / l)
        for i, j in ((i0, j0), (i0 + 1, j0), (i0, j0 + 1), (i0 + 1, j0 + 1)):
            inside = (px - (i * l + j * a2x)) ** 2 + (py - j * a2y) ** 2 <= rod_r2
            inside &= (i != 0) | (j != 0)
            rod.real[inside] = i[inside]
            rod.imag[inside] = j[inside]
        defect_hits += px**2 + py**2 <= defect_r2
    hits = functools.reduce(np.maximum, (np.count_nonzero(rods == rod, axis=0) for rod in rods))
    cover = np.maximum(hits / sub**2, defect_hits / sub**2)
    return (1.0 + (ROD_EPS - 1.0) * cover).reshape(shape)


def synthesize_mode(
    kind: str,
    lattice_const: float,
    decay_radius: float,
    dims: tuple[int, int, int],
    spacing: tuple[float, float, float],
) -> FieldGrid:
    """Deterministic stand-in defect mode for tests and demos.

    kind "cavity2d": scalar TM field on an (nx, ny, 1) grid.  kind
    "cavity3d": 3-component complex field with a dominant E_z whose central
    plane carries >= 99% of the in-plane energy.  Both place the maximum of
    eps |E|^2 at the box center (use odd dims so a cell center sits exactly
    there) and decay radially while oscillating at the lattice period.
    The work is set by dims alone, whatever the spacing.  Raises ValueError
    naming the argument for an unknown kind, a lattice_const, decay_radius
    or spacing that is not positive and finite, a dims axis below 1 or more
    than MAX_CELLS cells, and naming spacing and lattice_const for a box
    wider than MAX_BOX_LATTICE_CONSTANTS lattice constants on any axis (a
    box that overflows included).
    """
    if kind not in ("cavity2d", "cavity3d"):
        raise ValueError(f"unknown synthetic mode kind {kind!r}")
    _require_positive(lattice_const=lattice_const, decay_radius=decay_radius)
    if len(dims) != 3 or any(n < 1 for n in dims):
        raise ValueError(f"dims must be three axis lengths of at least 1, got {dims!r}")
    if math.prod(dims) > MAX_CELLS:
        raise ValueError(f"dims {dims!r} give {math.prod(dims)} cells, more than the "
                         f"{MAX_CELLS} a synthesized grid may have")
    if len(spacing) != 3 or not all(0 < h < math.inf for h in spacing):
        raise ValueError(f"spacing must be three positive finite lengths, got {spacing!r}")
    if not all(n * h / lattice_const <= MAX_BOX_LATTICE_CONSTANTS for n, h in zip(dims, spacing)):
        raise ValueError(f"spacing {spacing!r} and lattice_const {lattice_const!r} give a box of "
                         f"{dims!r} cells wider than {MAX_BOX_LATTICE_CONSTANTS:g} lattice "
                         "constants on an axis")
    nx, ny, nz = dims
    if kind == "cavity2d" and nz != 1:
        raise ValueError("cavity2d grids must have nz = 1")
    if kind == "cavity3d" and nz < 3:
        raise ValueError("cavity3d grids need nz >= 3")
    box = np.asarray(dims) * np.asarray(spacing)
    origin = tuple(-0.5 * box)
    xs, ys, zs = (_cell_centers(o, h, n) for o, h, n in zip(origin, spacing, dims))
    x, y = np.meshgrid(xs, ys, indexing="ij")
    rho = np.hypot(x, y)
    radial = np.exp(-rho / decay_radius) * np.cos(np.pi * rho / lattice_const)
    eps2d = _triangular_rod_epsilon(x, y, lattice_const, spacing[0], spacing[1])

    if kind == "cavity2d":
        field = radial.astype(complex)[:, :, None]
        epsilon = eps2d[:, :, None]
    else:
        # cavity3d: extrude rods, modulate axially, add a weak in-plane
        # admixture and a slowly varying phase so the field is genuinely
        # complex (also in the central plane, hence the x term).
        axial = np.cos(np.pi * zs / box[2])
        phase = np.exp(
            1j * np.pi * (0.35 * zs[None, None, :] / box[2] + 0.2 * x[:, :, None] / box[0])
        )
        ez = radial[:, :, None] * axial[None, None, :] * phase
        admix = 0.07
        field = np.zeros((nx, ny, nz, 3), dtype=complex)
        field[..., 0] = admix * ez
        field[..., 1] = 0.5 * admix * ez
        field[..., 2] = ez
        epsilon = np.repeat(eps2d[:, :, None], nz, axis=2)
    return FieldGrid(spacing=tuple(spacing), origin=origin, epsilon=epsilon, field=field,
                     lattice_const=lattice_const)


def grid_to_json(grid: FieldGrid, path) -> Path:
    """Serialize a grid to the one-document JSON field format."""
    path = Path(path)
    if grid.components == 1:
        comps = [grid.field]
    else:
        comps = [grid.field[..., c] for c in range(3)]
    doc = {
        "dims": list(grid.dims),
        "spacing_m": list(grid.spacing),
        "origin_m": list(grid.origin),
        "components": grid.components,
        "epsilon": grid.epsilon.ravel().tolist(),
        "field_re": [c.real.ravel().tolist() for c in comps],
        "field_im": [c.imag.ravel().tolist() for c in comps],
    }
    if grid.lattice_const is not None:
        doc["lattice_const_m"] = grid.lattice_const
    path.write_text(json.dumps(doc))
    return path


def grid_from_json(path) -> FieldGrid:
    """Load a grid written by :func:`grid_to_json`.

    Raises ValueError naming the file when it cannot be read, is not JSON,
    lacks a key or holds a malformed or non-finite grid.
    """
    try:
        return _grid_from_doc(json.loads(Path(path).read_text()))
    except KeyError as exc:
        raise ValueError(f"field grid {path} lacks key {exc}") from None
    except (OSError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot load field grid {path}: {exc}") from exc


def _grid_from_doc(doc: dict) -> FieldGrid:
    dims = tuple(int(n) for n in doc["dims"])
    comps = int(doc["components"])
    if comps not in (1, 3):
        raise ValueError(f"components must be 1 or 3, got {comps}")
    eps = np.asarray(doc["epsilon"], dtype=float).reshape(dims)
    planes = [
        np.asarray(re, dtype=float).reshape(dims)
        + 1j * np.asarray(im, dtype=float).reshape(dims)
        for re, im in zip(doc["field_re"], doc["field_im"])
    ]
    if len(planes) != comps:
        raise ValueError("field component count mismatch")
    field = planes[0] if comps == 1 else np.stack(planes, axis=-1)
    return FieldGrid(
        spacing=tuple(float(h) for h in doc["spacing_m"]),
        origin=tuple(float(o) for o in doc["origin_m"]),
        epsilon=eps,
        field=field,
        lattice_const=doc.get("lattice_const_m"),
    )
