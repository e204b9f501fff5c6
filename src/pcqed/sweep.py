"""Asymptotic amplitude surfaces over velocity and coupling-ratio grids.

Pulse areas scale exactly as 1/V, so one exact area at V = 1 gives the
area at every grid velocity; one broadcast call of the closed-form kernel
then fills the whole grid.  Surfaces store signed real amplitudes (the
closed-form rail amplitudes are real), not probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import amplitudes
from .core import FLOAT_FORMAT, VELOCITY_WINDOW, basis_labels, write_csv
from .coupling import GenericProfile, GenericProfileParams, pulse_area

__all__ = ["SweepGrid", "surface", "surfaces_to_csv"]


@dataclass(frozen=True)
class SweepGrid:
    """Amplitude surfaces a(V, p) and b(V, p) for one initial rail state.

    a is the amplitude left on |10> and b the amplitude on |01>; rows follow
    v_values, columns p_values.
    """

    v_values: np.ndarray
    p_values: np.ndarray
    initial: str
    a_surface: np.ndarray
    b_surface: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.v_values, dtype=float)
        p = np.asarray(self.p_values, dtype=float)
        shape = (v.size, p.size)
        a = np.asarray(self.a_surface, dtype=float)
        b = np.asarray(self.b_surface, dtype=float)
        if a.shape != shape or b.shape != shape:
            raise ValueError("surface shapes must be (len(v), len(p))")
        if not (np.all(np.diff(v) > 0) and np.all(np.diff(p) > 0)):
            raise ValueError("v_values and p_values must be ascending")
        for arr in (v, p, a, b):
            arr.flags.writeable = False
        object.__setattr__(self, "v_values", v)
        object.__setattr__(self, "p_values", p)
        object.__setattr__(self, "a_surface", a)
        object.__setattr__(self, "b_surface", b)


def surface(
    family: GenericProfileParams,
    v_range: tuple[float, float] = VELOCITY_WINDOW,
    p_range: tuple[float, float] = (0.0, 1.0),
    initial: str = "100",
    resolution: tuple[int, int] = (251, 201),
) -> SweepGrid:
    """Evaluate the amplitude surfaces on a (velocity x ratio) grid.

    family's velocity field is ignored: the area at each grid velocity V is
    the exact area at V = 1 divided by V.
    """
    atom_states = basis_labels(1)[:2]
    if initial not in atom_states:
        raise ValueError(f"initial state must be {atom_states[0]!r} or {atom_states[1]!r}")
    n_v, n_p = resolution
    if n_v < 2 or n_p < 2:
        raise ValueError("resolution must be at least 2 per axis")
    if not (0 < v_range[0] < v_range[1] and math.isfinite(v_range[1])):
        raise ValueError(f"invalid velocity range {v_range!r}")
    if not (0 <= p_range[0] < p_range[1] and math.isfinite(p_range[1])):
        raise ValueError(f"invalid ratio range {p_range!r}")
    v_values = np.linspace(v_range[0], v_range[1], n_v)
    p_values = np.linspace(p_range[0], p_range[1], n_p)

    g_a = pulse_area(GenericProfile(family).at_velocity(1.0)) / v_values[:, None]
    a_surf, b_surf, _ = amplitudes(g_a, p_values * g_a, initial)
    return SweepGrid(v_values, p_values, initial, a_surf, b_surf)


def surfaces_to_csv(grid: SweepGrid, out_dir, stem: str) -> tuple[Path, Path]:
    """One CSV per surface: header of p values, first column V, cells = amplitude."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ["v_m_per_s", *(FLOAT_FORMAT % p for p in grid.p_values.tolist())]
    return tuple(
        write_csv(out_dir / f"{stem}_{name}.csv", header, (grid.v_values, surf))
        for name, surf in (("a", grid.a_surface), ("b", grid.b_surface))
    )
