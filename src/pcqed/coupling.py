"""Time-dependent coupling strengths seen by atoms crossing the cavity.

Two kinds of profile are supported: the analytic generic form (an
exponentially decaying envelope times a lattice-period oscillation, peaked
when the atom reaches the cavity center) and sampled traces, e.g. extracted
from a discretized mode field.  The drives built from both integrate into
pulse areas, the angles that drive the Rabi rotations downstream, and every
such area has a closed form.

Each drive also states its value at one time T as source lines, which the
ODE engine inlines into its generated DOP853 step: ``scalar_lines(out, p)``
returns (lines, names, values), lines that read T and ``names`` and set
``out``, the names bound to ``values`` when the step is built.  Every
other name the lines read or set begins with ``p`` or is a builtin.  The
text is the formula alone: the samples, parameters and factor of a drive
are values the lines read by name, so every drive of one kind shares one
generated step.  With ``breakpoints(t0, t1)``, the times in (t0, t1) where
its derivative jumps, these make the :class:`Drive` protocol, all the ODE
engine reads of a drive; it refuses anything else with TypeError.

Drive convention, decided in one place, :func:`drive_from_profile`:
analytic generic profiles are real and signed and drive the interaction as
they are; traces sampled from mode fields may be complex and drive it
through their magnitude |g|, whose area is the exact area of the magnitude
of the linear interpolant; the drives of one trace compare equal.
:func:`drive_pair` adds atom B, whose drive is exactly c times atom A's,
the same drive scaled.
:func:`pulse_area` is exact or refuses: it integrates what
:func:`exact_area` integrates and raises TypeError for anything else, a raw
trace or a bare callable included.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Protocol

import numpy as np

from .core import _require_positive

__all__ = [
    "GenericProfileParams",
    "GenericProfile",
    "ScaledProfile",
    "CouplingTrace",
    "Drive",
    "TraceMagnitude",
    "absolute_area_bound",
    "drive_from_profile",
    "drive_pair",
    "exact_area",
    "pulse_area",
]


class Drive(Protocol):
    """A drive's formula at one time T as source lines, and its breakpoints."""

    def scalar_lines(self, out: str, p: str) -> tuple[tuple, tuple, tuple]: ...

    def breakpoints(self, t0: float, t1: float) -> np.ndarray: ...


def _require_drive(drive) -> None:
    """Refuse, with TypeError, what is no :class:`Drive`: a bare callable or a raw
    trace.  Two attribute lookups, since every drive_pair runs this check and an
    isinstance on the protocol took ~5 us (Python 3.11, 2-core VM)."""
    if not (hasattr(drive, "scalar_lines") and hasattr(drive, "breakpoints")):
        raise TypeError(f"a drive of type {type(drive).__name__} states no formula; pass "
                        "drive_from_profile(profile) of a generic profile or a trace")


@dataclass(frozen=True)
class GenericProfileParams:
    """Parameters of the generic analytic coupling profile.

    omega0: peak Rabi frequency, rad/s.  path_half_length: distance from the
    entry point to the cavity center, m (the full transit covers twice this).
    defect_radius: envelope decay length, m.  lattice_const: oscillation
    period, m.  velocity: m/s.  zeta: dipole-polarization angle, rad.
    """

    omega0: float
    path_half_length: float
    defect_radius: float
    lattice_const: float
    velocity: float
    zeta: float = 0.0

    def __post_init__(self) -> None:
        _require_positive(**{name: getattr(self, name) for name in _POSITIVE})
        if not math.isfinite(self.zeta):
            raise ValueError("zeta must be finite")
        # Python floats, whatever number type the caller passed: the drive
        # then runs on float arithmetic, not on numpy scalars.
        for name in _FIELDS:
            object.__setattr__(self, name, float(getattr(self, name)))


_POSITIVE = ("omega0", "path_half_length", "defect_radius", "lattice_const", "velocity")
_FIELDS = (*_POSITIVE, "zeta")


@dataclass(frozen=True)
class GenericProfile:
    """Callable wrapper of the generic analytic profile over its transit
    window; its formula at one time is :meth:`scalar_lines`."""

    params: GenericProfileParams

    def __call__(self, t):
        """Coupling strength (rad/s) at time t (s), vectorized over t:

            Omega0 cos(zeta) exp(-|V t - L| / R_def) cos[(pi / l)(V t - L)]
        """
        params = self.params
        t = np.asarray(t, dtype=float)
        x = params.velocity * t - params.path_half_length
        value = (
            params.omega0
            * math.cos(params.zeta)
            * np.exp(-np.abs(x) / params.defect_radius)
            * np.cos(np.pi * x / params.lattice_const)
        )
        return value if value.ndim else float(value)

    def scalar_lines(self, out: str, p: str) -> tuple[tuple, tuple, tuple]:
        """(lines, names, values): the call's formula at one time T on Python
        floats, as source that sets ``out``, term by term with Omega0 cos(zeta)
        taken first as one number W."""
        params = self.params
        lines = (f"{p}x = {p}V * T - {p}L",
                 f"{out} = {p}W * {p}exp(-abs({p}x) / {p}R) * {p}cos({p}PI * {p}x / {p}l)")
        names = tuple(p + name for name in ("V", "L", "W", "R", "l", "exp", "cos", "PI"))
        return lines, names, (params.velocity, params.path_half_length,
                              params.omega0 * math.cos(params.zeta), params.defect_radius,
                              params.lattice_const, math.exp, math.cos, math.pi)

    def breakpoints(self, t0: float, t1: float) -> np.ndarray:
        """Times in (t0, t1) where the profile's derivative jumps: the peak,
        where the |V t - L| of the envelope has its kink."""
        return _inside(np.array([self.peak_time]), t0, t1)

    @property
    def window(self) -> tuple[float, float]:
        """Transit window [0, 2L/V], symmetric about the envelope peak."""
        return (0.0, 2.0 * self.params.path_half_length / self.params.velocity)

    @property
    def peak_time(self) -> float:
        return self.params.path_half_length / self.params.velocity

    @property
    def velocity(self) -> float:
        return self.params.velocity

    def at_velocity(self, velocity: float) -> "GenericProfile":
        """The same profile crossed at ``velocity`` (m/s)."""
        return GenericProfile(replace(self.params, velocity=velocity))


@dataclass(frozen=True)
class ScaledProfile:
    """A drive times a constant factor: atom B's drive, as :func:`drive_pair` builds it."""

    base: Drive
    factor: float

    def __post_init__(self) -> None:
        _require_drive(self.base)

    def __call__(self, t):
        return self.factor * self.base(t)

    def scalar_lines(self, out: str, p: str) -> tuple[tuple, tuple, tuple]:
        """(lines, names, values): the base's own lines, then ``out`` as the
        factor times their value."""
        lines, names, values = self.base.scalar_lines(f"{p}g", f"{p}b_")
        return (*lines, f"{out} = {p}c * {p}g"), (*names, f"{p}c"), (*values, self.factor)

    def breakpoints(self, t0: float, t1: float) -> np.ndarray:
        """The base's breakpoints in (t0, t1)."""
        return self.base.breakpoints(t0, t1)

    @property
    def window(self) -> tuple[float, float]:
        return self.base.window


@dataclass(frozen=True, eq=False)
class CouplingTrace:
    """Sampled coupling strength: strictly increasing times (s), values (rad/s).

    Values may be complex for traces taken from complex mode fields.
    ``velocity`` optionally records the atom speed the trace was sampled at,
    which calibration needs for its exact 1/V rescaling.  A trace compares
    and hashes by identity, so the drives of one trace compare equal.
    """

    times: np.ndarray
    values: np.ndarray
    velocity: float | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values)
        if not np.iscomplexobj(values):
            values = values.astype(float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("a trace needs at least two samples")
        if values.shape != times.shape:
            raise ValueError("times and values must have the same length")
        if not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("trace samples must be finite")
        if self.velocity is not None:
            _require_positive(velocity=self.velocity)
        times.flags.writeable = False
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __call__(self, t):
        """Linear interpolation; zero outside the sampled window."""
        t = np.asarray(t, dtype=float)
        if np.iscomplexobj(self.values):
            re = np.interp(t, self.times, self.values.real, left=0.0, right=0.0)
            im = np.interp(t, self.times, self.values.imag, left=0.0, right=0.0)
            out = re + 1j * im
        else:
            out = np.interp(t, self.times, self.values, left=0.0, right=0.0)
        return out if out.ndim else out[()]

    @property
    def window(self) -> tuple[float, float]:
        return (float(self.times[0]), float(self.times[-1]))

    @property
    def is_complex(self) -> bool:
        return bool(np.iscomplexobj(self.values))

    def at_velocity(self, velocity: float) -> "CouplingTrace":
        """The same path crossed at ``velocity`` (m/s): the times scale by the
        ratio of the recorded velocity to the new one, the values stay."""
        _require_positive(velocity=velocity)
        if self.velocity is None:
            raise ValueError("trace carries no velocity; cannot rescale to calibrate")
        return CouplingTrace(self.times * (self.velocity / velocity), self.values, velocity=velocity)


@dataclass(frozen=True)
class TraceMagnitude:
    """|g| of a sampled trace: the drive a field-derived trace puts into the
    interaction.  Its lines at one time (:meth:`scalar_lines`) read the
    samples and the segments' slopes as values, so one text serves every
    real trace and another every complex one."""

    trace: CouplingTrace

    def __call__(self, t):
        return np.abs(self.trace(t))

    def scalar_lines(self, out: str, p: str) -> tuple[tuple, tuple, tuple]:
        """(lines, names, values): |g| at one time T as source that sets
        ``out``, with the arithmetic of ``np.interp`` on the bracketing
        samples: the segment j found by bisection, then |g_j| at its sample
        and |slope_j u + g_j| at u = T - t_j past it, with each segment's
        slope precomputed, and 0.0 outside the window."""
        times, re, im, re_slope, im_slope = self._segments
        names = ["bisect", "times", "end", "re", "re_slope"]
        values = [bisect.bisect_right, times, times[-1], re, re_slope]
        sample, value = f"{p}re[{p}j]", f"{p}re_slope[{p}j] * {p}u + {p}re[{p}j]"
        if im:
            names += ["im", "im_slope"]
            values += [im, im_slope]
            sample = f"complex({sample}, {p}im[{p}j])"
            value = f"complex({value}, {p}im_slope[{p}j] * {p}u + {p}im[{p}j])"
        lines = (f"{p}j = {p}bisect({p}times, T) - 1",
                 f"if {p}j < 0 or T > {p}end:",
                 f"    {out} = 0.0",
                 "else:",
                 f"    {p}u = T - {p}times[{p}j]",
                 f"    {out} = abs({value}) if {p}u else abs({sample})")
        return lines, tuple(p + name for name in names), tuple(values)

    def breakpoints(self, t0: float, t1: float) -> np.ndarray:
        """Times in (t0, t1) where |g| bends: the sample times, and each
        segment's closest approach to zero where it falls inside the segment
        (a zero crossing on a real trace).  |z0 + u d| = sqrt(s^2 + delta^2)
        in the distance s along the segment from that point is smooth for
        delta > 0, but its curvature 1/delta grows without bound as the
        segment passes near zero."""
        return _inside(self._kinks, t0, t1)

    @cached_property
    def _segments(self) -> tuple[list, ...]:
        """Times, real parts, imaginary parts and each segment's slopes of
        both parts, (g_(j+1) - g_j) / (t_(j+1) - t_j), as lists; a real
        trace's imaginary parts and slopes are empty.  A slope past the
        largest double is inf, as that quotient is on Python floats."""
        times, values = self.trace.times, self.trace.values
        steps = np.diff(times)

        def split(part):
            with np.errstate(over="ignore"):
                return part.tolist(), (np.diff(part) / steps).tolist()

        re, re_slope = split(values.real)
        im, im_slope = split(values.imag) if self.trace.is_complex else ([], [])
        return times.tolist(), re, im, re_slope, im_slope

    @cached_property
    def _kinks(self) -> np.ndarray:
        times, values = self.trace.times, self.trace.values
        z0, d = values[:-1], np.diff(values)
        d_sq = np.abs(d) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            u = -np.real(z0 * np.conj(d)) / d_sq
        inside = (d_sq > 0) & (u > 0) & (u < 1)
        closest = times[:-1][inside] + u[inside] * np.diff(times)[inside]
        return np.union1d(times, closest)

    @property
    def window(self) -> tuple[float, float]:
        return self.trace.window


def _inside(times: np.ndarray, t0: float, t1: float) -> np.ndarray:
    """The entries of a sorted array that lie strictly inside (t0, t1)."""
    return times[np.searchsorted(times, t0, side="right"):np.searchsorted(times, t1, side="left")]


def drive_from_profile(profile):
    """The drive a coupling profile puts into the interaction Hamiltonian.

    Sampled traces, possibly complex, drive through their magnitude
    (:class:`TraceMagnitude`), one equal to every other drive of the same
    trace; every other profile is real and signed and is its own drive.
    """
    if isinstance(profile, CouplingTrace):
        return TraceMagnitude(profile)
    return profile


def drive_pair(profile, p: float):
    """Drives of atoms A and B, and their exact constant ratio c = drive_b / drive_a.

    Atom A drives through :func:`drive_from_profile` of ``profile``; atom B's
    drive is that same drive times c, a :class:`ScaledProfile`, so every
    engine reads B as exactly c times A and both report A's breakpoints.  A
    trace drives through |g|, so c = |p|; every other profile drives signed,
    so c = p.  c is a Python float whatever number type p is.  Every engine
    reads atom B from here; a profile that states no formula raises TypeError.
    """
    if not math.isfinite(p):
        raise ValueError("p must be finite")
    drive = drive_from_profile(profile)
    c = float(abs(p) if isinstance(profile, CouplingTrace) else p)
    return drive, ScaledProfile(drive, c), c


def _exact_parts(profile):
    """(base drive, constant factor) of a drive with an exact area; TypeError otherwise."""
    factor = 1.0
    if isinstance(profile, ScaledProfile):
        profile, factor = profile.base, profile.factor
    if not isinstance(profile, (GenericProfile, TraceMagnitude)):
        raise TypeError(
            f"no exact area for a drive of type {type(profile).__name__}; "
            "pass drive_from_profile(profile) of a generic profile or a trace"
        )
    return profile, factor


def exact_area(profile, t0: float, t):
    """Exact area (rad) from t0 to t of a generic profile, a trace magnitude,
    or a constant multiple of either.

    Vectorized over t; raises TypeError for any other drive.  With
    x = V t - L, a = 1/R and k = pi/l the generic profile has the odd
    antiderivative

        F(x) = sign(x) (a / (a^2 + k^2) + Re[e^((-a + ik)|x|) / (-a + ik)])

    in x, so the area is Omega0 cos(zeta) / V * (F(x) - F(x0)).  Areas
    therefore scale exactly as 1/V.  A :class:`TraceMagnitude` integrates
    |linear interpolant| interval by interval in closed form
    (:func:`_mean_abs_on_segments`) and is zero outside the trace window.
    """
    profile, factor = _exact_parts(profile)
    if isinstance(profile, TraceMagnitude):
        return factor * _trace_magnitude_area(profile.trace, t0, t)
    params = profile.params
    a = 1.0 / params.defect_radius
    k = math.pi / params.lattice_const
    alpha = complex(-a, k)

    def antiderivative(x):
        return np.sign(x) * (a / (a * a + k * k) + (np.exp(alpha * np.abs(x)) / alpha).real)

    x = params.velocity * np.asarray(t, dtype=float) - params.path_half_length
    x0 = params.velocity * t0 - params.path_half_length
    scale = factor * params.omega0 * math.cos(params.zeta) / params.velocity
    return scale * (antiderivative(x) - antiderivative(x0))


def _mean_abs_on_segments(z0, z1):
    """Mean of |z0 + u (z1 - z0)| over u in [0, 1], elementwise, in closed form.

    On the line through z0 and z1, with s the coordinate along the segment
    from the foot of the perpendicular from 0 and delta the distance of the
    line from 0, |z| = sqrt(s^2 + delta^2) integrates to
    (s |z| + delta^2 asinh(s / delta)) / 2.  Both terms are rearranged so
    that nothing cancels when the segment is short, passes through or near
    zero, or does not move at all; scaling by the larger end magnitude keeps
    tiny values from underflowing.
    """
    scale = np.maximum(np.abs(z0), np.abs(z1))
    safe_scale = np.where(scale > 0, scale, 1.0)
    z0, z1 = z0 / safe_scale, z1 / safe_scale
    d = z1 - z0
    length = np.abs(d)
    a, b = np.abs(z0), np.abs(z1)
    moving = length > 0
    safe_length = np.where(moving, length, 1.0)
    direction = np.conj(d) / safe_length
    s0, s1 = (z0 * direction).real, (z1 * direction).real
    delta = np.abs((z0 * direction).imag)
    # (s1 b - s0 a) / (2 length), by b - a = length (s0 + s1) / (a + b)
    mean = 0.25 * (a + b) + 0.25 * (s0 + s1) ** 2 / np.where(a + b > 0, a + b, 1.0)
    # asinh(s1 / delta) - asinh(s0 / delta): one asinh when both ends lie on
    # one side of the foot, a sum of two positive ones when they straddle it.
    # The floor on delta and the cap on the ratio keep both finite; past them
    # delta^2 times the asinh terms is under 1e-297, against a mean >= 1/4.
    same_side = s0 * s1 > 0
    safe_delta = np.maximum(delta, 1e-150)
    with np.errstate(over="ignore"):  # only where delta^2 underflows; capped below
        ratio = length * (s0 + s1) / np.where(same_side, s1 * a + s0 * b, 1.0)
    asinh_diff = np.where(
        same_side,
        np.arcsinh(np.minimum(ratio, 1e300)),
        np.arcsinh(s1 / safe_delta) - np.arcsinh(s0 / safe_delta),
    )
    return scale * np.where(moving, mean + delta**2 * asinh_diff / (2.0 * safe_length), a)


def _trace_magnitude_area(trace: CouplingTrace, t0: float, t):
    """Exact area of |linear interpolant of trace| from t0 to t; vectorized over t."""
    times, values = trace.times, trace.values
    knots = np.concatenate(
        ([0.0], np.cumsum(np.diff(times) * _mean_abs_on_segments(values[:-1], values[1:])))
    )

    def running(t):
        t = np.clip(t, times[0], times[-1])
        i = np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2)
        return knots[i] + (t - times[i]) * _mean_abs_on_segments(values[i], trace(t))

    return running(np.asarray(t, dtype=float)) - running(t0)


def pulse_area(profile) -> float:
    """Exact integrated coupling (rad) of a drive over its own window.

    Takes what :func:`exact_area` takes, a generic profile, a trace
    magnitude or a constant multiple of either, and raises TypeError for
    anything else: pass a trace through :func:`drive_from_profile` first.
    Any other window goes through :func:`exact_area`.
    """
    return float(exact_area(profile, *_exact_parts(profile)[0].window))


def absolute_area_bound(drive) -> float:
    """An upper bound (rad) on the integral of |drive| over its window.

    Takes what :func:`pulse_area` takes.  The magnitude of a trace is its
    own drive, so its bound is its exact area.  The generic profile's
    oscillation cancels in the signed area but not in the absolute one; with
    |cos| <= 1 under its envelope the bound is

        Omega0 |cos(zeta)| 2 R_def / V (1 - exp(-L / R_def)),

    in closed form, within a factor pi/2 of the absolute area once the
    path spans many lattice periods.  A constant multiple scales it by the
    factor's magnitude.
    """
    profile, factor = _exact_parts(drive)
    if isinstance(profile, TraceMagnitude):
        return abs(factor) * pulse_area(profile)
    params = profile.params
    radius = params.defect_radius
    envelope = 2.0 * radius * -math.expm1(-params.path_half_length / radius)
    return abs(factor) * params.omega0 * abs(math.cos(params.zeta)) * envelope / params.velocity


# No command reads this (every engine takes atom B from drive_pair); perfbench/workloads.py does.
def scaled_pair(profile, p: float):
    """Atom B's drive, as :func:`drive_pair` builds it."""
    return drive_pair(profile, p)[1]
