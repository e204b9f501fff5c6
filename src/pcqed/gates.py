"""Gate targets, velocity calibration, and truth tables with per-input fidelity.

A logical qubit lives in which atom carries the single excitation (|10> vs
|01>, cavity empty).  Calibration exploits the exact 1/V scaling of pulse
areas: the gate conditions are odd multiples of pi in the total area, so the
operating velocities follow algebraically from one reference area.  Truth
tables evolve every input of a gate, SWAP's |00> and |11> included, with
either engine (the ODE engine all of them in one integration), read every
rail figure from M = T^dagger U, U the rails' final states and T their
targets, and classify the result; everything is reported up to a common
global phase, printed separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .analytic import logical_unitary, two_excitation_unitary
from .core import VELOCITY_WINDOW, CalibrationError, basis_state, photon_lifetime
from .coupling import (
    CouplingTrace,
    GenericProfile,
    GenericProfileParams,
    drive_from_profile,
    drive_pair,
    pulse_area,
)
from .ode import DEFAULT_ATOL, DEFAULT_RTOL, final_states

__all__ = [
    "GateTarget",
    "GateReport",
    "GateSettings",
    "ENTANGLER_HADAMARD",
    "NOT",
    "Z",
    "SWAP",
    "IDENTITY",
    "TARGETS",
    "calibrate_velocity",
    "check_calibration",
    "truth_table",
]

# Classification thresholds: minimum per-input fidelity, and how far the
# rail phases may drift apart before the label is withheld.  With both rails
# perfect, 0.2 rad keeps every superposition input at or above cos^2(0.1),
# 0.990; with both at MIN_FIDELITY, the bound falls to 0.99 cos^2(0.1), 0.980.
MIN_FIDELITY = 0.99
MAX_RELATIVE_PHASE = 0.2
_RAILS = ("10", "01")  # the rail inputs, in the order of U's columns and of a target's rails


@dataclass(frozen=True)
class GateTarget:
    """Intended logical action: input label -> target rail amplitudes.

    Rail amplitudes are (amplitude on |10>, amplitude on |01>) for the inputs
    "10" and "01", once each, in either order.  ``rails`` is T, built from
    them: the target states of |10> and |01> over (|100>, |010>, |001>) as
    columns; its dual-rail block must be unitary.  SWAP additionally maps
    the no-excitation and double-excitation inputs to themselves.  p is the
    coupling ratio the gate's calibration condition needs, None for a
    target that has none.
    """

    label: str
    rail_map: tuple[tuple[str, tuple[complex, complex]], ...]
    includes_outer: bool = False  # also check |00> and |11>
    p: float | None = None
    rails: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        amps = dict(self.rail_map)
        if (sorted(label for label, _ in self.rail_map) != ["01", "10"]
                or any(len(pair) != 2 for pair in amps.values())):
            raise ValueError("rail map must cover exactly the two rail inputs")
        block = np.array([[*amps[label], 0.0] for label in _RAILS], dtype=complex).T
        if not np.allclose(block.conj().T @ block, np.eye(2), atol=1e-12):
            raise ValueError(f"target {self.label!r} is not unitary on the rails")
        block.flags.writeable = False
        object.__setattr__(self, "rails", block)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)

ENTANGLER_HADAMARD = GateTarget(
    "ENTANGLER_HADAMARD",
    (
        ("10", (_INV_SQRT2, _INV_SQRT2)),
        ("01", (_INV_SQRT2, -_INV_SQRT2)),
    ),
    p=math.sqrt(2.0) - 1.0,
)
NOT = GateTarget("NOT", (("10", (0.0, 1.0)), ("01", (1.0, 0.0))), p=1.0)
Z = GateTarget("Z", (("10", (-1.0, 0.0)), ("01", (0.0, 1.0))), p=0.0)
SWAP = GateTarget(
    "SWAP", (("10", (0.0, 1.0)), ("01", (1.0, 0.0))), includes_outer=True, p=1.0
)
IDENTITY = GateTarget("IDENTITY", (("10", (1.0, 0.0)), ("01", (0.0, 1.0))))

TARGETS = {t.label: t for t in (ENTANGLER_HADAMARD, NOT, Z, SWAP, IDENTITY)}

# The tolerance on a target's coupling ratio (the entangler ratio is quoted
# to three figures in practice).
_P_TOL = 0.005


def _reference_area(family) -> tuple[float, float]:
    """(pulse area, velocity) of atom A's drive at the reference velocity."""
    if isinstance(family, GenericProfileParams):
        family = GenericProfile(family)
    elif not isinstance(family, (GenericProfile, CouplingTrace)):
        raise TypeError(f"cannot calibrate a family of type {type(family).__name__}")
    if family.velocity is None:
        raise ValueError("trace carries no velocity; cannot rescale to calibrate")
    return pulse_area(drive_from_profile(family)), family.velocity


def check_calibration(target: GateTarget | str, p: float, v_bounds: tuple[float, float]) -> None:
    """Refuse a calibration that cannot run, before any profile is built.

    Raises ValueError when the target has no calibration condition (a
    label names one of TARGETS), when p misses the target's own ratio
    ``GateTarget.p`` by more than _P_TOL, and when ``v_bounds`` are not
    0 < v_lo < v_hi < inf.  :func:`calibrate_velocity` and the CLI's config
    loader both apply it.
    """
    gate = target if isinstance(target, GateTarget) else TARGETS.get(str(target))
    label = str(target) if gate is None else gate.label
    if gate is None or gate.p is None:
        raise ValueError(f"no calibration condition for target {label!r}")
    if not abs(p - gate.p) <= _P_TOL:  # NaN fails too
        raise ValueError(
            f"target {label} needs coupling ratio p = {gate.p:.5f} "
            f"(+/- {_P_TOL}), got {p}"
        )
    v_lo, v_hi = v_bounds
    if not (0 < v_lo < v_hi) or not math.isfinite(v_hi):
        raise ValueError(f"invalid velocity bounds {v_bounds!r}")


def calibrate_velocity(
    family,
    p: float,
    target: GateTarget | str,
    v_bounds: tuple[float, float] = VELOCITY_WINDOW,
) -> float:
    """Velocity (m/s) realizing the gate condition, the fastest one in bounds.

    family: GenericProfileParams or GenericProfile (its velocity is the
    reference), or a CouplingTrace sampled at a known velocity.  The total
    pulse area scales exactly as 1/V, so the condition
    Lambda_total = (2k+1) pi solves algebraically: the smallest k whose
    velocity is not above the upper bound is computed in one step, so the
    work does not depend on the pulse area, and its velocity (the fastest
    transit) is returned when it is in bounds, with residual
    |Lambda_total - (2k+1) pi| <= 1e-8.  Raises CalibrationError for a zero
    or non-finite pulse area, for odd multiples too large to tell apart in
    floating point, and, listing the nearest candidates, when no odd
    multiple falls inside the bounds; ValueError as :func:`check_calibration`
    does.
    """
    check_calibration(target, p, v_bounds)
    v_lo, v_hi = v_bounds
    area_ref, v_ref = _reference_area(family)
    lam_at_v = abs(area_ref) * math.hypot(1.0, p) * v_ref  # Lambda(V) * V
    if lam_at_v == 0.0:
        raise CalibrationError("profile has zero pulse area; nothing to calibrate")
    if not math.isfinite(lam_at_v):
        raise CalibrationError(
            f"profile has a non-finite pulse area ({area_ref:g} rad at {v_ref:g} m/s); "
            "nothing to calibrate"
        )
    return _fastest_odd_multiple(lam_at_v, v_lo, v_hi)


def _fastest_odd_multiple(lam_at_v: float, v_lo: float, v_hi: float) -> float:
    """The largest v_k = lam_at_v / ((2k+1) pi), k >= 0, inside [v_lo, v_hi].

    v_k falls with k, so the answer is v_k for the smallest k with
    v_k <= v_hi, when v_k >= v_lo.  That k is ceil((Lambda(v_hi)/pi - 1)/2),
    moved while rounding leaves it off by one; below 2^52 odd multiples the
    v_k are distinct, so the moves end at once.  Otherwise v_(k-1) and v_k
    are the nearest candidates.
    """
    def v_at(k: int) -> float:
        return lam_at_v / ((2 * k + 1) * math.pi)

    odd = lam_at_v / (math.pi * v_hi)  # Lambda(v_hi) / pi
    if not odd < 2.0**52:
        raise CalibrationError(
            f"pulse area at {v_hi:g} m/s is {odd:g} pi; odd multiples of pi that "
            "large are not distinct in floating point"
        )
    k = max(0, math.ceil((odd - 1) / 2))
    while k > 0 and v_at(k - 1) <= v_hi:
        k -= 1
    while v_at(k) > v_hi:
        k += 1
    v_k = v_at(k)
    if v_k >= v_lo:
        residual = abs(lam_at_v / v_k - (2 * k + 1) * math.pi)
        if residual > 1e-8:
            raise CalibrationError(f"calibration residual {residual:g} exceeds 1e-8")
        return v_k
    candidates = [v_at(j) for j in range(max(k - 1, 0), k + 1)]
    nearest = sorted(candidates, key=lambda v: min(abs(v - v_lo), abs(v - v_hi)))
    raise CalibrationError(
        f"no odd-multiple solution in [{v_lo:g}, {v_hi:g}] m/s; nearest "
        f"candidates: {', '.join(f'{v:.4g}' for v in nearest)}",
        candidates=tuple(nearest),
    )


@dataclass(frozen=True)
class GateSettings:
    """A calibrated operating point ready for a truth table.

    profile_a: atom A's coupling profile at the operating velocity
    (GenericProfile or CouplingTrace); both engines drive with
    :func:`pcqed.coupling.drive_pair` of it and p, so a trace drives
    through |g|.  velocity is the one the report states; a profile that
    records its own velocity must record this one, or ValueError names
    both.  omega_cav feeds the photon-lifetime margin.
    """

    target: GateTarget
    profile_a: object
    p: float
    velocity: float
    omega_cav: float
    q_factor: float = 1e8
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL

    def __post_init__(self) -> None:
        recorded = getattr(self.profile_a, "velocity", None)
        if recorded is not None and recorded != self.velocity:
            raise ValueError(f"velocity {self.velocity!r} m/s does not match the "
                             f"profile's own velocity {recorded!r} m/s")


@dataclass(frozen=True)
class GateReport:
    """Measured outcome of a calibrated gate run."""

    target: str
    engine: str
    velocity: float
    p: float
    pulse_area_a: float
    pulse_area_b: float
    fidelities: dict[str, float]
    residual_cavity: dict[str, float]
    global_phase: float
    relative_phases: dict[str, float]
    operation_time: float
    lifetime_margin: float
    classified_label: str | None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["notes"] = list(self.notes)
        return out

    def table(self) -> str:
        """Human-readable summary."""
        lines = [
            f"gate target      : {self.target}   (engine: {self.engine})",
            f"velocity         : {self.velocity:.6g} m/s   p = {self.p:g}",
            f"pulse areas      : g_a = {self.pulse_area_a:.6g} rad, "
            f"g_b = {self.pulse_area_b:.6g} rad",
            f"operation time   : {self.operation_time:.6g} s",
            f"lifetime margin  : {self.lifetime_margin:.3g}x",
            f"global phase     : {self.global_phase:+.4f} rad",
            "input   fidelity      residual |gamma|^2   rel. phase",
        ]
        for label, fid in self.fidelities.items():
            res = self.residual_cavity.get(label, float("nan"))
            rel = self.relative_phases.get(label, float("nan"))
            lines.append(f"|{label}>   {fid:12.9f}   {res:16.3e}   {rel:+9.4f}")
        lines.append(f"classified       : {self.classified_label or 'UNCLASSIFIED'}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _outcome(settings, drives, areas, engine: str) -> tuple[np.ndarray, list]:
    """U, the rails' final states over (|100>, |010>, |001>) as columns, and the
    list of |00>'s and |11>'s for a target that includes them, from the
    drives (ode) or the pulse areas (g_a, g_b) (analytic)."""
    outer = settings.target.includes_outer
    if engine == "analytic":
        # the interaction annihilates |000>: it is returned as it is
        finals = [np.ones(1, dtype=complex), two_excitation_unitary(*areas)[:, 0]] if outer else []
        return logical_unitary(*areas)[:, :2], finals
    if engine == "ode":
        inputs = [*_RAILS, "00", "11"] if outer else _RAILS
        finals = final_states(*drives, [basis_state(label + "0") for label in inputs],
                              *settings.profile_a.window, rtol=settings.rtol, atol=settings.atol)
        return np.stack(finals[:2], axis=1), finals[2:]
    raise ValueError(f"unknown engine {engine!r}")


def truth_table(settings: GateSettings, engine: Literal["analytic", "ode"]) -> GateReport:
    """Run every input of the gate through the engine and report the outcome.

    Every input runs on the requested engine in its own excitation subspace:
    the analytic engine reads U from :func:`logical_unitary` and SWAP's |11>
    from :func:`two_excitation_unitary`, and runs no ODE; the ode engine runs
    them all in one DOP853 run of :func:`pcqed.ode.final_states`.  Both
    return SWAP's |00> as it is.  Atom A's area is the pulse_area of its
    drive, atom B's c times it with the c of drive_pair (only the ode engine
    reads B's drive); a non-finite area raises ValueError before either
    engine runs, and :func:`pcqed.ode.final_states` refuses, before any
    step, an absolute area that may pass :data:`pcqed.ode.MAX_AREA`.  Every
    rail figure is a function of M = T^dagger U, T the target's ``rails``:
    a rail's overlap with its target is its diagonal entry of M, its
    fidelity |overlap|^2, its phase that relative to the first rail's (the
    global phase), and its residual its probability on |001>, U's photon
    row.  SWAP's |00> and |11> are measured against themselves, with the
    probability on the basis states that hold a photon as the residual.
    The label is assigned only if every rail fidelity reaches 0.99 and the
    rail phases agree to MAX_RELATIVE_PHASE.
    """
    target = settings.target
    drive_a, drive_b, c = drive_pair(settings.profile_a, settings.p)
    g_a = pulse_area(drive_a)
    g_b = c * g_a
    if not (math.isfinite(g_a) and math.isfinite(g_b)):
        raise ValueError("pulse areas must be finite")

    u, outer = _outcome(settings, (drive_a, drive_b), (g_a, g_b), engine)
    diagonal = dict(zip(_RAILS, np.diagonal(target.rails.conj().T @ u).tolist()))
    photon = dict(zip(_RAILS, (np.abs(u[2]) ** 2).tolist()))
    overlaps = {label: diagonal[label] for label, _ in target.rail_map}
    residual = {label: photon[label] for label in overlaps}
    # |00> and |11> each sit first in their own basis; every later state holds a photon
    for label, psi in zip(("00", "11"), outer):
        overlaps[label] = complex(psi[0])
        residual[label] = float(np.sum(np.abs(psi[1:]) ** 2))
    z0 = overlaps[target.rail_map[0][0]]
    global_phase = float(np.angle(z0)) if abs(z0) > 0 else 0.0
    fidelities = {label: float(abs(z) ** 2) for label, z in overlaps.items()}
    relative_phases = {label: float(np.angle(z * np.conj(z0))) if abs(z) > 0 else 0.0
                       for label, z in overlaps.items()}

    notes = (
        "double-excitation return measured, not asserted: the two-excitation "
        f"spectrum is incommensurate with the rail condition (fidelity "
        f"{fidelities['11']:.4f}); |00> acquires no phase in the interaction "
        "picture",
    ) if target.includes_outer else ()

    rail_ok = all(fidelities[lbl] >= MIN_FIDELITY for lbl in _RAILS)
    phases_ok = all(abs(relative_phases[lbl]) <= MAX_RELATIVE_PHASE for lbl in _RAILS)
    classified = target.label if (rail_ok and phases_ok) else None

    t0, t1 = settings.profile_a.window
    op_time = t1 - t0
    margin = photon_lifetime(settings.q_factor, settings.omega_cav) / op_time

    return GateReport(
        target=target.label,
        engine=engine,
        velocity=settings.velocity,
        p=settings.p,
        pulse_area_a=g_a,
        pulse_area_b=g_b,
        fidelities=fidelities,
        residual_cavity=residual,
        global_phase=global_phase,
        relative_phases=relative_phases,
        operation_time=op_time,
        lifetime_margin=margin,
        classified_label=classified,
        notes=notes,
    )
