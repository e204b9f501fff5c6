"""Direct numerical integration of the interaction-picture dynamics.

This is the independent check on the closed forms: an adaptive Runge-Kutta
integration of i psi' = H(t) psi with the coupling-only Hamiltonian (free
phases removed exactly on resonance), valid for arbitrary, including
non-proportional and complex, couplings.  Subspaces with zero, one, and two
total excitations are supported, through the Hamiltonians of
:func:`pcqed.core.build_subspace`, the same ones the closed forms use.

The integrator is pcqed's own DOP853 (:mod:`pcqed.dop853`), on Python
complex scalars, with its interpolants evaluated on arrays.  DOP853
assumes a smooth right-hand side; a step across a jump in a derivative of
the drive loses its order and its error estimate.
The drives of :mod:`pcqed.coupling` report such breakpoints, and
:func:`evolve` and :func:`final_states` step span by span between them
(Hairer, Norsett & Wanner, Solving Ordinary Differential Equations I,
sec. II.6) through one private integration loop.  Any other callable
integrates as one span.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .core import (AmplitudeVector, ConvergenceError, SubspaceHamiltonian, basis_labels,
                   build_subspace, write_csv)
# perfbench reads build_subspace and drive_from_profile from this module.
from .coupling import drive_from_profile  # noqa: F401
from .dop853 import DOP853

__all__ = [
    "MIN_ATOL",
    "MIN_RTOL",
    "Trajectory",
    "evolve",
    "final_states",
    "trajectory_to_csv",
]

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-11
# The tolerance floors.  Below 100 machine epsilons, scipy's floor for rtol,
# rounding alone exceeds the error bound and the run crawls.  The norms
# square f / atol, which overflows once |f| / atol passes 1.3e154: the
# bundled ODE configs run as at the default atol down to 1e-140 and fail
# at 1e-150.  At the atol floor, |f| may reach 1e54 rad/s.
MIN_RTOL = 100 * sys.float_info.epsilon
MIN_ATOL = 1e-100
DEFAULT_POINTS = 2000
_METHOD = "DOP853"


@dataclass(frozen=True)
class Trajectory:
    """Evolution samples: times (s) and amplitudes, one row per output time
    and one column per label of ``basis_labels``, derived from ``n_excitations``."""

    n_excitations: int
    times: np.ndarray
    amplitudes: np.ndarray  # shape (n_times, dim), complex
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (times.size, len(self.basis_labels)):
            raise ValueError("amplitude array shape does not match times/basis")
        if not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        times.flags.writeable = False
        amps.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def basis_labels(self) -> tuple[str, ...]:
        return basis_labels(self.n_excitations)

    def probabilities(self) -> np.ndarray:
        """|amplitude|^2, one row per output time."""
        return np.abs(self.amplitudes) ** 2

    @property
    def norm_drift(self) -> float:
        """max over output points of |sum of probabilities - 1|."""
        norms = np.sum(self.probabilities(), axis=1)
        return float(np.max(np.abs(norms - 1.0)))


def evolve(
    h: SubspaceHamiltonian,
    g_a: Callable[[float], complex],
    g_b: Callable[[float], complex],
    psi0: AmplitudeVector,
    t0: float,
    t1: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    n_points: int = DEFAULT_POINTS,
) -> Trajectory:
    """Integrate i psi' = H(t) psi from t0 to t1 with DOP853, span by span.

    g_a, g_b: coupling strengths as functions of time, rad/s (complex
    allowed).  A drive that pcqed builds (:mod:`pcqed.coupling`) is read
    through its scalar evaluator ``at`` and reports ``breakpoints``, the
    times where its derivative jumps; the integrator stops at every
    breakpoint of either drive and resumes from there, so no step straddles
    a kink.  Any other callable is called as it is and, reporting no
    breakpoints, integrates as one span.  Output is sampled on a fixed
    stride of n_points times, independent of the internal adaptive steps:
    each time is read from the order-7 interpolant of the first step whose
    end is at or past it.  The solver evaluates those interpolants for many
    steps at once; their three extra stages are three more calls of the
    right-hand side per step that holds an output time, which ``nfev``
    counts.  rtol must be at least MIN_RTOL and atol at least MIN_ATOL.
    Raises ConvergenceError when the integrator cannot proceed (step
    underflow / non-finite couplings), carrying the failure time.
    """
    if psi0.n_excitations != h.n_excitations:
        raise ValueError("initial state and Hamiltonian subspaces differ")
    _check_window(t0, t1, rtol, atol)
    if n_points < 2:
        raise ValueError("n_points must be >= 2")

    times = np.linspace(t0, t1, n_points)
    solver, n_steps, n_spans = _integrate(
        h.couplings, g_a, g_b, psi0.amplitudes, t0, t1, rtol, atol, times=times[1:]
    )
    amplitudes = np.concatenate([[psi0.amplitudes], solver.dense])
    diagnostics = {
        "nfev": solver.nfev,
        "n_steps": n_steps,
        "n_spans": n_spans,
        "rtol": rtol,
        "atol": atol,
        "method": _METHOD,
    }
    traj = Trajectory(h.n_excitations, times, amplitudes, diagnostics)
    diagnostics["norm_drift"] = traj.norm_drift
    return traj


def final_states(
    g_a: Callable[[float], complex],
    g_b: Callable[[float], complex],
    states: list[AmplitudeVector],
    t0: float,
    t1: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> list[AmplitudeVector]:
    """Final states of several initial states under one pair of drives.

    The states are integrated together as one block-diagonal system, each
    in the subspace of its own excitation number (1 or 2), by a single
    DOP853 run that steps span by span between the drives' breakpoints as
    :func:`evolve` does; the no-excitation state |000> is exactly invariant
    and is returned unintegrated.  Each block's coupling table is the one of
    :func:`pcqed.core.build_subspace`, shifted to the block's offset.  The
    steps are shared, but the error norm is taken block by block and the
    largest one sets the step, so a block that barely moves does not loosen
    the control of the others; a state's result may still differ from its
    own :func:`evolve` run in the last digits the tolerances allow, since
    the blocks stacked with it may force shorter steps.  Returns the
    final states in the order given.  Raises ValueError on an empty list and
    ConvergenceError, carrying the failure time, as :func:`evolve` does.
    """
    if not states:
        raise ValueError("need at least one initial state")
    _check_window(t0, t1, rtol, atol)
    # The interaction annihilates |000>: it is returned as it is.
    couplings, blocks = _stack(states)
    if not blocks:
        return list(states)
    y0 = np.concatenate([states[i].amplitudes for i in blocks])
    y1 = _integrate(couplings, g_a, g_b, y0, t0, t1, rtol, atol, blocks=blocks.values())[0].y
    return [AmplitudeVector(psi.n_excitations, y1[slice(*blocks[i])])
            if i in blocks else psi for i, psi in enumerate(states)]


def _stack(states: list[AmplitudeVector]) -> tuple[list, dict[int, tuple[int, int]]]:
    """The block-diagonal coupling table of the states that carry an
    excitation, and each one's (start, stop) range in the stack, by index."""
    couplings, blocks, offset = [], {}, 0
    for i, psi in enumerate(states):
        if psi.n_excitations > 0:
            h = build_subspace(psi.n_excitations)
            couplings += [(row + offset, col + offset, atom, factor)
                          for row, col, atom, factor in h.couplings]
            blocks[i] = (offset, offset + h.dim)
            offset += h.dim
    return couplings, blocks


def _check_window(t0: float, t1: float, rtol: float, atol: float) -> None:
    if not t0 < t1:
        raise ValueError(f"need t0 < t1, got [{t0!r}, {t1!r}]")
    if not rtol >= MIN_RTOL:
        raise ValueError(f"rtol must be at least {MIN_RTOL:.3g} (100 machine epsilons), "
                         f"got {rtol!r}")
    if not atol >= MIN_ATOL:
        raise ValueError(f"atol must be at least {MIN_ATOL:g}, got {atol!r}")


def _integrate(couplings, g_a, g_b, y0, t0, t1, rtol, atol, blocks=None, times=()):
    """Run one DOP853 from y0 at t0 to t1, span by span between breakpoints.

    The right-hand side is -i H(t) y with H read from ``couplings``, entries
    (row, col, atom, factor) over the components of y; ``blocks`` are the
    (start, stop) ranges the solver takes its norms over apart, and the
    solver's ``dense`` holds the state at each of ``times`` in (t0, t1].
    Returns the solver, the number of accepted steps and the number of spans.
    """
    drives = (getattr(g_a, "at", g_a), getattr(g_b, "at", g_b))
    table = [(row, col, atom, -1j * factor) for row, col, atom, factor in couplings]
    dim = len(y0)

    def rhs(t: float, psi: list) -> list:
        g = (drives[0](t), drives[1](t))
        if not (cmath.isfinite(g[0]) and cmath.isfinite(g[1])):
            # The step control would shrink the step to nothing on NaN; fail fast.
            raise ConvergenceError(f"non-finite coupling at t={t:g}", t=t)
        out = [0j] * dim
        for row, col, atom, c in table:
            c *= g[atom]  # -i H[row, col]; -i H[col, row] = -conj(c)
            out[row] += c * psi[col]
            out[col] -= c.conjugate() * psi[row]
        return out

    bounds = [*_breakpoints((g_a, g_b), t0, t1), float(t1)]
    solver = DOP853(rhs, float(t0), np.asarray(y0, dtype=complex).tolist(), bounds[0],
                    rtol, atol, blocks, times)
    n_steps = 0
    # DOP853 is a one-step method whose first stage reuses f at the step's
    # end.  The state and f are continuous across a kink of the drive, so
    # moving the solver's bound to the next breakpoint and stepping on is a
    # restart there that keeps the last proposed step.
    for bound in bounds:
        solver.t_bound = bound
        while solver.t < bound:
            solver.step()
            n_steps += 1
    return solver, n_steps, len(bounds)


def _breakpoints(drives, t0: float, t1: float) -> list[float]:
    """Sorted union of the drives' breakpoints in (t0, t1); a drive that
    reports none adds none."""
    cuts = [g.breakpoints(t0, t1) for g in drives if hasattr(g, "breakpoints")]
    return np.unique(np.concatenate([np.empty(0), *cuts])).tolist()


def trajectory_to_csv(traj: Trajectory, path) -> Path:
    """CSV export: time_s, |amplitude|^2 per basis label, then re/im parts."""
    labels = traj.basis_labels
    header = (
        ["time_s"]
        + [f"prob_{lbl}" for lbl in labels]
        + [part for lbl in labels for part in (f"re_{lbl}", f"im_{lbl}")]
    )
    # A contiguous complex array viewed as floats interleaves re and im per label.
    parts = np.ascontiguousarray(traj.amplitudes).view(float)
    return write_csv(path, header, (traj.times, traj.probabilities(), parts))
