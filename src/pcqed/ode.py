"""Direct numerical integration of the interaction-picture dynamics.

This is the independent check on the closed forms: an adaptive Runge-Kutta
integration of i psi' = H(t) psi with the coupling-only Hamiltonian (free
phases removed exactly on resonance), valid for any pair of drives that
state their formula, non-proportional pairs included.  Subspaces with zero,
one, and two total excitations are supported, through the Hamiltonians of
:func:`pcqed.core.build_subspace`, the same ones the closed forms use.

The integrator is pcqed's own DOP853 (:mod:`pcqed.dop853`), on the float
pairs of the complex amplitudes, with its interpolants evaluated on arrays.
The right-hand side is handed to it as source code stated from the coupling
table (:func:`_source`): lines that set f_<i>r and f_<i>i, the parts of
-i H(t) psi, from a_<i>r and a_<i>i, which the solver inlines at every
stage of one generated step function per table.  With real drives, as pcqed
builds them all, each coupling -i factor g is purely imaginary and each
term is one real product; each part of f is a sum from 0.0, which a term
that is an exact zero of either sign leaves as it is, so the values are
those of complex arithmetic to the bit (:mod:`pcqed.dop853` states the
whole argument).  Each drive enters that source as its
own formula, a :class:`pcqed.coupling.Drive`, whose text holds no value of
a run: the samples, parameters and factors are values bound by name, so
the runs of one kind of drive share one generated step.  DOP853 assumes a
smooth right-hand side; a step across a jump in a derivative of the drive
loses its order and its error estimate.  Each drive reports such
breakpoints, and :func:`evolve` and :func:`final_states` step span by span
between them (Hairer, Norsett & Wanner, Solving Ordinary Differential
Equations I, sec. II.6) through one private integration loop.  Anything
else, a bare callable included, raises TypeError before any step.  The work
grows with the drives' absolute pulse area: a run whose atom B drives as c
times atom A, as :func:`pcqed.coupling.drive_pair` builds the pair, refuses
before any step an area that may pass :data:`MAX_AREA` (:func:`check_area`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (AmplitudeVector, ConvergenceError, SubspaceHamiltonian, basis_labels,
                   build_subspace, write_csv)
from .coupling import Drive, ScaledProfile, _require_drive, absolute_area_bound, is_real
# perfbench reads build_subspace and drive_from_profile from this module.
from .coupling import drive_from_profile  # noqa: F401
from .dop853 import DOP853

__all__ = [
    "MAX_AREA",
    "MIN_ATOL",
    "MIN_RTOL",
    "Trajectory",
    "check_area",
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
# The largest absolute pulse area, sqrt(1 + c^2) times the integral of
# |g_a| over the window (rad), that a run of a drive pair integrates.
# DOP853's work and its norm drift grow with that area, not with the signed
# one.  The bundled generic family takes up to 7.7 steps per radian: 171 at
# 22.3 rad (433 m/s) and 16 667 at 2 198 rad with R_def and L widened 100x;
# at 0.433 m/s, 22 300 rad, it takes 55 031 steps with a norm drift of
# 3.9e-7.  So this bound allows at most some 80k steps.
MAX_AREA = 1e4
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


def evolve(h: SubspaceHamiltonian, g_a: Drive, g_b: Drive, psi0: AmplitudeVector, t0: float,
           t1: float, rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
           n_points: int = DEFAULT_POINTS) -> Trajectory:
    """Integrate i psi' = H(t) psi from t0 to t1 with DOP853, span by span.

    g_a, g_b: the atoms' drives (rad/s), each a :class:`pcqed.coupling.Drive`,
    whose formula enters the generated step; the integrator stops at every
    breakpoint of either drive and resumes from there, so no step straddles
    a kink.  Anything else raises TypeError before any step.  Output is
    sampled on a fixed stride of n_points times, independent of the internal
    adaptive steps: each time is read from the order-7 interpolant of the
    first step whose end is at or past it.  The solver evaluates those
    interpolants for many steps at once; their three extra stages are three
    more calls of the right-hand side per step that holds an output time,
    which ``nfev`` counts.  rtol must be at least MIN_RTOL and atol at least
    MIN_ATOL.  A pair of :func:`pcqed.coupling.drive_pair` whose absolute
    area may pass MAX_AREA raises ValueError before any step (:func:`check_area`).
    Raises ConvergenceError when the integrator cannot proceed (step
    underflow / non-finite couplings), carrying the failure time.
    """
    if psi0.n_excitations != h.n_excitations:
        raise ValueError("initial state and Hamiltonian subspaces differ")
    _check_run((g_a, g_b), t0, t1, rtol, atol)
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


def final_states(g_a: Drive, g_b: Drive, states: list[AmplitudeVector], t0: float, t1: float,
                 rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> list[np.ndarray]:
    """Final amplitudes of several initial states under one pair of drives.

    The states are integrated together as one block-diagonal system, each
    in the subspace of its own excitation number (1 or 2), by a single
    DOP853 run that steps span by span between the drives' breakpoints as
    :func:`evolve` does; the no-excitation state |000> is exactly invariant
    and its own amplitudes are returned.  Each block's coupling table is the
    one of :func:`pcqed.core.build_subspace`, shifted to the block's offset.
    The steps are shared, but the error norm is taken block by block and the
    largest one sets the step, so a block that barely moves does not loosen
    the control of the others; a state's result may still differ from its
    own :func:`evolve` run in the last digits the tolerances allow, since
    the blocks stacked with it may force shorter steps.  Returns one complex
    array per state, over the state's ``basis_labels``, in the order given;
    they are not validated, so a state that loses norm is returned as it
    is.  Raises ValueError on an empty list or an area past MAX_AREA, and
    TypeError and ConvergenceError, carrying the failure time, as
    :func:`evolve` does.
    """
    if not states:
        raise ValueError("need at least one initial state")
    _check_run((g_a, g_b), t0, t1, rtol, atol)
    # The interaction annihilates |000>: it is returned as it is.
    couplings, blocks = _stack(states)
    if blocks:
        y0 = np.concatenate([states[i].amplitudes for i in blocks])
        y1 = _integrate(couplings, g_a, g_b, y0, t0, t1, rtol, atol, blocks=blocks.values())[0].y
    return [y1[slice(*blocks[i])] if i in blocks else psi.amplitudes
            for i, psi in enumerate(states)]


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


def check_area(drive, c: float) -> float:
    """Refuse, before any step, a drive pair that may pass MAX_AREA.

    ``drive`` is atom A's drive, one :func:`pcqed.coupling.pulse_area` takes,
    and c atom B's ratio to it, as :func:`pcqed.coupling.drive_pair` returns
    them; the pair's absolute area is at most sqrt(1 + c^2) times
    :func:`pcqed.coupling.absolute_area_bound` of the drive.  Returns that
    bound; raises ValueError when it passes MAX_AREA or is not finite, as
    every ODE run of such a pair does before its first step.  A trace's
    bound is its exact area; its run also stops at every sample and zero
    crossing of the trace, so a trace of n samples (at most 1e6 in a
    config) takes one step or more per span, up to 2n - 2 spans, beside
    the steps its area needs.
    """
    area = math.hypot(1.0, c) * absolute_area_bound(drive)
    if not area <= MAX_AREA:
        raise ValueError(f"the absolute pulse area may reach {area:.4g} rad, past the ODE "
                         f"engine's MAX_AREA of {MAX_AREA:g} rad")
    return area


def _check_run(drives, t0: float, t1: float, rtol: float, atol: float) -> None:
    for drive in drives:
        _require_drive(drive)
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
    When atom B's drive is a ScaledProfile of one equal to atom A's, as in
    :func:`pcqed.coupling.drive_pair`, the pair passes :func:`check_area` first.
    """
    scaled = isinstance(g_b, ScaledProfile) and g_b.base == g_a
    if scaled:
        check_area(g_a, g_b.factor)
    bounds = [*_breakpoints((g_a, g_b), t0, t1), float(t1)]
    solver = DOP853(_source(couplings, g_a, g_b, len(y0), scaled), float(t0), y0, bounds[0],
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


def _source(couplings, g_a, g_b, dim: int, scaled: bool) -> tuple[tuple, tuple, tuple]:
    """The right-hand side -i H(t) psi of ``couplings`` over ``dim`` components,
    as the straight-line source :class:`pcqed.dop853.DOP853` takes: (lines,
    names, values), lines that set f_<i>r and f_<i>i, the real and imaginary
    parts of component i's derivative, from a_<i>r and a_<i>i.

    Sets g0 to atom A's drive at T and g1 to atom B's, each by its own
    ``scalar_lines``.  When ``scaled``, atom B's drive is a ScaledProfile of
    atom A's (:func:`_integrate` decides) and g1 is its factor times g0, the
    number B's own lines give, so atom A's formula is evaluated once.  Each
    distinct (atom, factor) of the table makes one coupling c = (-i factor)
    g_atom, and each part of component i sums, from 0.0 and in the order of
    the table, that part of + c psi[col] over the entries whose row is i and
    of - c.conjugate() psi[row] over those whose column is i: the operations
    of accumulating the table entry by entry in complex numbers, part by
    part, as CPython's complex product states them.  When both drives are
    real (:func:`pcqed.coupling.is_real`), c is purely imaginary: its real
    part is an exact zero, its imaginary part is -factor times g, and the
    lines write one real product per term, since a term that is an exact
    zero, of either sign, leaves a sum that starts at 0.0 as it is.  Any
    other drive takes its value's real and imaginary parts and writes every
    product of the complex ones.  Raises ConvergenceError on a non-finite
    coupling, at the time it was read: the step control would shrink the
    step to nothing on NaN.  g - g is 0 for a finite g and NaN otherwise, so
    the check calls nothing.  The lines hold the table's integers and the
    drives' formulas alone; every number of a run, the factors included, is
    a value.
    """
    a_lines, a_names, a_values = g_a.scalar_lines("g0", "da_")
    if scaled:
        b_lines, b_names, b_values = ("g1 = db_c * g0",), ("db_c",), (g_b.factor,)
    else:
        b_lines, b_names, b_values = g_b.scalar_lines("g1", "db_")
    real = is_real(g_a) and is_real(g_b)
    kinds: dict = {}  # (atom, factor) -> the index of its coupling
    re_terms, im_terms = [[] for _ in range(dim)], [[] for _ in range(dim)]
    for row, col, atom, factor in couplings:
        k = kinds.setdefault((atom, factor), len(kinds))
        if real:  # c = i c<k>: + c psi[col] and - c.conjugate() psi[row]
            re_terms[row].append(f" - c{k} * a_{col}i")
            im_terms[row].append(f" + c{k} * a_{col}r")
            re_terms[col].append(f" - c{k} * a_{row}i")
            im_terms[col].append(f" + c{k} * a_{row}r")
        else:
            re_terms[row].append(f" + (c{k}r * a_{col}r - c{k}i * a_{col}i)")
            im_terms[row].append(f" + (c{k}r * a_{col}i + c{k}i * a_{col}r)")
            re_terms[col].append(f" - (c{k}r * a_{row}r + c{k}i * a_{row}i)")
            im_terms[col].append(f" - (c{k}r * a_{row}i - c{k}i * a_{row}r)")
    # -i H[row, col] is (-i factor) g_atom; -i H[col, row] is minus its conjugate
    factors = [-1j * factor for _, factor in kinds]
    if real:
        couple = [f"c{k} = m{k} * g{atom}" for k, (atom, _) in enumerate(kinds)]
        names = tuple(f"m{k}" for k in range(len(kinds)))
        values = tuple(m.imag for m in factors)
    else:
        couple = [line for atom in sorted({atom for atom, _ in kinds})
                  for line in (f"g{atom}r = g{atom}.real", f"g{atom}i = g{atom}.imag")]
        couple += [line for k, (atom, _) in enumerate(kinds)
                   for line in (f"c{k}r = m{k}r * g{atom}r - m{k}i * g{atom}i",
                                f"c{k}i = m{k}r * g{atom}i + m{k}i * g{atom}r")]
        names = tuple(f"m{k}{part}" for k in range(len(kinds)) for part in "ri")
        values = tuple(part for m in factors for part in (m.real, m.imag))
    lines = (*a_lines, *b_lines,
             "if g0 - g0 or g1 - g1:",
             "    non_finite(T)",
             *couple,
             *(f"f_{i}{part} = 0.0{''.join(terms[i])}"
               for i in range(dim) for part, terms in (("r", re_terms), ("i", im_terms))))
    return (lines, (*a_names, *b_names, "non_finite", *names),
            (*a_values, *b_values, _non_finite, *values))


def _non_finite(t: float):
    raise ConvergenceError(f"non-finite coupling at t={t:g}", t=t)


def _breakpoints(drives, t0: float, t1: float) -> list[float]:
    """Sorted union of the drives' breakpoints in (t0, t1)."""
    return np.unique(np.concatenate([g.breakpoints(t0, t1) for g in drives])).tolist()


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
