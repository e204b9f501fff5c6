"""The benchmark's four workloads and the checks on their outputs.

Importing this module imports pcqed, so the benchmark times the import as
part of set-up.  Each workload is a fixed list of operations (a round) built
from the seed; the runner repeats whole rounds.  Every operation's output is
checked against the references in ``refs``, never against stored output.

Inputs are stratified: the parameters that set an operation's cost (the
path length in lattice periods, grid sizes, resolutions) take fixed values
across the operations of a round, and the seed jitters every parameter
around them.  So different seeds give different inputs of the same cost.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import pcqed  # first, so that set-up time covers the package import
from pcqed import analytic, coupling, fieldgrid, gates, ode, sweep

import refs

# Tolerances; the README gives the reason for each.
AREA_TOL = 1e-9          # rad, pulse areas against the closed form
ANALYTIC_TOL = 1e-9      # closed-form amplitudes, fidelities and surfaces
TRAJECTORY_TOL = 1e-4    # analytic_trajectory (trapezoid running area)
ODE_TOL = 1e-6           # DOP853 amplitudes, fidelities and norm drift on smooth drives
KINKED_ODE_TOL = 1e-5    # the same on |g| of a field trace, which has kinks
STATS_TOL = 1e-12        # relative, mode statistics and calibrated velocities
TRACE_TOL = 1e-9         # trace samples, relative to g0
FIDELITY_CEIL = 1.0 + 1e-12
SAMPLE_TOL = 1e-12       # relative, abscissae and profile samples read back from files

GENERIC_LATTICE = 6.278838557696178e-07  # m, lattice period of the bundled generic configs
OMEGA_OPTICAL = 2.4e15                   # rad/s, cavity frequency of the generic scenario
OMEGA_MM = 319262977509.9751             # rad/s, resonance of the millimetre-wave grids
V_BOUNDS = (150.0, 650.0)                # m/s, calibrate_velocity's default bounds

GATE_LABELS = ("ENTANGLER_HADAMARD", "NOT", "Z", "SWAP")


class Checks:
    """Failed expectations, and the largest error seen per accuracy figure."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.accuracy: dict[str, float] = {}

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def within(self, what: str, err: float, tol: float, metric: str | None = None) -> None:
        if metric is not None:
            self.accuracy[metric] = max(self.accuracy.get(metric, 0.0), float(err))
        self.expect(err <= tol, f"{what}: error {err:.3g} exceeds {tol:g}")


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not."""

    name: str
    run: Callable[[], object]
    check: Callable[[object, Checks], None]


def calibration_loop() -> float:
    """Seconds for a fixed loop of Python arithmetic and small numpy calls.

    Other tenants of a shared host slow this loop and pcqed's operations
    alike, by up to 2x for seconds at a time; an operation's time divided by
    the loop's time just before it stays within a few per cent.  About 1 ms.
    """
    x = np.ones(3)
    acc = 0.0
    start = time.perf_counter()
    for i in range(1500):
        acc += float(np.dot(x, x)) + i % 7
    return time.perf_counter() - start


def jitter(rng: np.random.Generator, base: float, spread: float = 0.1) -> float:
    return base * (1.0 + rng.uniform(-spread, spread))


# ---------------------------------------------------------------- generic families

def draw_family(rng: np.random.Generator, periods: int, radius: float) -> dict:
    """Generic family with a half-path of ``periods`` lattice periods.

    omega0 is set so that the Z condition (p = 0, total area pi) falls at
    220-440 m/s; every gate's fastest solution then lies inside 150-650 m/s.
    """
    lattice = jitter(rng, GENERIC_LATTICE)
    fam = {
        "path_half_length": periods * lattice,
        "defect_radius": jitter(rng, radius) * lattice,
        "lattice_const": lattice,
        "zeta": rng.uniform(0.0, 0.6),
        "velocity": jitter(rng, 433.0),
    }
    fam["omega0"] = jitter(rng, 330.0, 1.0 / 3.0) * math.pi / family_area({**fam, "omega0": 1.0}, 1.0)
    return fam


def family_area(fam: dict, velocity: float) -> float:
    return refs.generic_area(fam["omega0"], fam["path_half_length"], fam["defect_radius"],
                             fam["lattice_const"], velocity, fam.get("zeta", 0.0))


def family_running_area(fam: dict, velocity: float, times) -> np.ndarray:
    return refs.generic_running_area(times, fam["omega0"], fam["path_half_length"],
                                     fam["defect_radius"], fam["lattice_const"], velocity,
                                     fam.get("zeta", 0.0))


def params(fam: dict, velocity: float | None = None) -> coupling.GenericProfileParams:
    keys = ("omega0", "path_half_length", "defect_radius", "lattice_const", "zeta")
    return coupling.GenericProfileParams(
        velocity=fam["velocity"] if velocity is None else velocity, **{k: fam[k] for k in keys}
    )


def reference_velocity(fam: dict, p: float, bounds=V_BOUNDS) -> float | None:
    """Fastest velocity in bounds at which the total area is an odd multiple of pi."""
    lam_v = family_area(fam, 1.0) * math.hypot(1.0, p)
    k = 0
    while True:
        v = lam_v / ((2 * k + 1) * math.pi)
        if bounds[0] <= v <= bounds[1]:
            return v
        if v < bounds[0]:
            return None
        k += 1


def window(fam: dict, velocity: float) -> tuple[float, float]:
    return 0.0, 2.0 * fam["path_half_length"] / velocity


def check_report(checks: Checks, report: dict, fam: dict, p: float, label: str,
                 velocity: float, engine: str) -> None:
    """A truth-table report against the propagators at the same velocity."""
    tol = ANALYTIC_TOL if engine == "analytic" else ODE_TOL
    area_a = family_area(fam, velocity)
    ref = refs.gate_reference(area_a, p, label)
    checks.within(f"{label} velocity", abs(report["velocity"] - velocity) / velocity, STATS_TOL)
    checks.within(f"{label} pulse_area_a", abs(report["pulse_area_a"] - area_a), AREA_TOL,
                  "coupling.area_err_max")
    checks.within(f"{label} pulse_area_b", abs(report["pulse_area_b"] - p * area_a), AREA_TOL,
                  "coupling.area_err_max")
    checks.expect(set(report["fidelities"]) == set(ref["fidelities"]),
                  f"{label}: inputs {sorted(report['fidelities'])} != {sorted(ref['fidelities'])}")
    for rail, f_ref in ref["fidelities"].items():
        f = report["fidelities"].get(rail, math.nan)
        checks.within(f"{label} {engine} fidelity |{rail}>", abs(f - f_ref), tol)
        checks.expect(f <= FIDELITY_CEIL, f"{label} fidelity |{rail}> = {f!r} exceeds 1")
        res = report["residual_cavity"].get(rail, math.nan)
        checks.within(f"{label} {engine} residual |{rail}>", abs(res - ref["residual"][rail]), tol)
        z, z0 = ref["overlaps"].get(rail), ref["overlaps"]["10"]
        if z is not None and min(abs(z), abs(z0)) >= 0.1:
            d = report["relative_phases"].get(rail, math.nan) - ref["relative_phases"][rail]
            d = abs(math.remainder(d, 2.0 * math.pi))
            checks.within(f"{label} {engine} phase |{rail}>", d, 100.0 * tol)
    rails = [ref["fidelities"][r] for r in ("10", "01")]
    phases = [abs(ref["relative_phases"][r]) for r in ("10", "01")]
    near = [abs(f - gates.MIN_FIDELITY) for f in rails] + [abs(a - gates.MAX_RELATIVE_PHASE) for a in phases]
    if min(near) > 1e-6:
        ok = min(rails) >= gates.MIN_FIDELITY and max(phases) <= gates.MAX_RELATIVE_PHASE
        expected = label if ok else None
        checks.expect(report["classified_label"] == expected,
                      f"{label}: classified {report['classified_label']!r}, expected {expected!r}")


def check_states(checks: Checks, what: str, amplitudes, expected, tol: float, metric: str) -> None:
    amplitudes = np.asarray(amplitudes)
    checks.expect(amplitudes.shape == expected.shape,
                  f"{what}: shape {amplitudes.shape} != {expected.shape}")
    if amplitudes.shape == expected.shape:
        checks.within(what, refs.max_abs_diff(amplitudes, expected), tol, metric)


def check_norm(checks: Checks, what: str, amplitudes, tol: float = ODE_TOL) -> None:
    drift = float(np.max(np.abs(np.sum(np.abs(amplitudes) ** 2, axis=1) - 1.0)))
    checks.within(f"{what} norm drift", drift, tol, "ode.norm_drift_max")


# ---------------------------------------------------------------- closed-form

def surface_reference(fam: dict, v_range, p_range, resolution, initial: str) -> dict:
    """Grid axes and the real rail amplitudes a (on |10>) and b (on |01>) from expm."""
    v = np.linspace(*v_range, resolution[0])
    p = np.linspace(*p_range, resolution[1])
    areas = family_area(fam, 1.0) / v
    col = refs.ONE_EXCITATION.index(initial)
    a = np.empty((v.size, p.size))
    b = np.empty_like(a)
    for j, pj in enumerate(p):
        u = refs.propagators(areas, pj)
        a[:, j], b[:, j] = u[:, 0, col].real, u[:, 1, col].real
    return {"v": v, "p": p, "a": a, "b": b}


def surface_op(fam: dict, resolution: tuple[int, int], initial: str) -> Op:
    family = params(fam, 1.0)
    cache: dict = {}

    def run():
        return sweep.surface(family, resolution=resolution, initial=initial)

    def check(grid, checks: Checks):
        if not cache:
            cache.update(surface_reference(fam, V_BOUNDS, (0.0, 1.0), resolution, initial))
        checks.within("surface velocities", refs.max_abs_diff(grid.v_values, cache["v"]) / V_BOUNDS[1],
                      SAMPLE_TOL)
        checks.within("surface ratios", refs.max_abs_diff(grid.p_values, cache["p"]), SAMPLE_TOL)
        err = max(refs.max_abs_diff(grid.a_surface, cache["a"]),
                  refs.max_abs_diff(grid.b_surface, cache["b"]))
        checks.within(f"surface {resolution} |{initial}>", err, ANALYTIC_TOL, "sweep.amp_err_max")

    return Op("surface", run, check)


def analytic_gate_op(fam: dict, label: str, p: float, initial: str, n_points: int = 2000) -> Op:
    """calibrate_velocity, then the analytic truth table and trajectory at that velocity."""
    v_ref = reference_velocity(fam, p)
    times = np.linspace(*window(fam, v_ref), n_points)
    cache: dict = {}

    def run():
        v = gates.calibrate_velocity(params(fam), p, label)
        profile = coupling.GenericProfile(params(fam, v))
        settings = gates.GateSettings(target=gates.TARGETS[label], profile_a=profile, p=p,
                                      velocity=v, omega_cav=OMEGA_OPTICAL)
        report = gates.truth_table(settings, "analytic")
        amps = analytic.analytic_trajectory(profile, p, np.linspace(*profile.window, n_points),
                                            initial=initial)
        return v, report, amps

    def check(result, checks: Checks):
        v, report, amps = result
        checks.within(f"{label} calibrated velocity", abs(v - v_ref) / v_ref, STATS_TOL)
        check_report(checks, report.to_dict(), fam, p, label, v, "analytic")
        if not cache:
            cache["amps"] = refs.states(family_running_area(fam, v_ref, times), p, initial)
        check_states(checks, f"{label} analytic trajectory |{initial}>", amps, cache["amps"],
                     TRAJECTORY_TOL, "analytic.trajectory_err_max")

    return Op("analytic-gate", run, check)


def closed_form(seed: int, out_dir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for periods, radius, resolution, initial in (
        (6, 0.8, (251, 201), "100"),
        (10, 1.0, (151, 101), "010"),
        (14, 1.3, (61, 241), "100"),
    ):
        ops.append(surface_op(draw_family(rng, periods, radius), resolution, initial))
    for periods, radius in ((6, 1.3), (9, 0.8), (11, 1.0), (14, 1.1)):
        fam = draw_family(rng, periods, radius)
        for label in GATE_LABELS[:3]:
            p = refs.REQUIRED_P[label] - rng.uniform(0.0, 0.004)
            initial = refs.ONE_EXCITATION[int(rng.integers(3))]
            ops.append(analytic_gate_op(fam, label, p, initial))
    return ops


# ---------------------------------------------------------------- ode-transits

def ode_trajectory_op(fam: dict, p: float, velocity: float, initial: str) -> Op:
    profile = coupling.GenericProfile(params(fam, velocity))
    cache: dict = {}

    def run():
        t0, t1 = profile.window
        return ode.evolve(ode.build_subspace(1), ode.drive_from_profile(profile),
                          ode.drive_from_profile(coupling.scaled_pair(profile, p)),
                          pcqed.AmplitudeVector.basis_state(initial), t0, t1)

    def check(traj, checks: Checks):
        if not cache:
            cache["times"] = np.linspace(*window(fam, velocity), ode.DEFAULT_POINTS)
            cache["amps"] = refs.states(family_running_area(fam, velocity, cache["times"]), p, initial)
        checks.within("ode output times", refs.max_abs_diff(traj.times, cache["times"]) / cache["times"][-1],
                      SAMPLE_TOL)
        check_states(checks, f"ode trajectory |{initial}>", traj.amplitudes, cache["amps"], ODE_TOL,
                     "ode.amp_err_max")
        check_norm(checks, f"ode trajectory |{initial}>", traj.amplitudes)

    return Op("ode-trajectory", run, check)


def ode_gate_op(fam: dict, label: str, p: float, velocity: float) -> Op:
    def run():
        settings = gates.GateSettings(target=gates.TARGETS[label],
                                      profile_a=coupling.GenericProfile(params(fam, velocity)),
                                      p=p, velocity=velocity, omega_cav=OMEGA_OPTICAL)
        return gates.truth_table(settings, "ode")

    def check(report, checks: Checks):
        check_report(checks, report.to_dict(), fam, p, label, velocity, "ode")

    return Op("ode-gate", run, check)


def ode_transits(seed: int, out_dir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for (periods, radius), label in zip(((6, 1.3), (9, 0.8), (11, 1.0), (14, 1.1)), GATE_LABELS):
        fam = draw_family(rng, periods, radius)
        p = refs.REQUIRED_P[label] - rng.uniform(0.0, 0.004)
        v = reference_velocity(fam, p)
        ops.append(ode_trajectory_op(fam, p, v, "100"))
        ops.append(ode_trajectory_op(fam, p, v, "010"))
        ops.append(ode_gate_op(fam, label, p, v))
    return ops


# ---------------------------------------------------------------- field-traces

@dataclass
class Mode:
    """A synthesized grid and its statistics, shared by the transits of a round."""

    kind: str
    lattice: float
    decay: float
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    effective_height: float | None
    result: tuple = ()


def mode_op(mode: Mode) -> Op:
    cache: dict = {}

    def run():
        grid = fieldgrid.synthesize_mode(mode.kind, mode.lattice, mode.decay, mode.dims, mode.spacing)
        r_m, eps_m = fieldgrid.peak_energy_point(grid)
        v_mode = fieldgrid.mode_volume(grid, mode.effective_height)
        pol = (fieldgrid.polarization_fraction(grid, mode.dims[2] // 2)
               if grid.components == 3 else None)
        mode.result = (grid, r_m, eps_m, v_mode, pol)
        return mode.result

    def check(result, checks: Checks):
        grid, r_m, eps_m, v_mode, pol = result
        if not cache:
            hz = mode.effective_height if mode.effective_height is not None else mode.spacing[2]
            idx = refs.peak_cell(grid.epsilon, grid.field)
            centres = refs.cell_centres(grid.origin, mode.spacing, mode.dims)
            cache.update(
                r=np.array([centres[k][idx[k]] for k in range(3)]),
                eps=float(grid.epsilon[idx]),
                v=refs.mode_volume(grid.epsilon, grid.field, mode.spacing[0] * mode.spacing[1] * hz),
                pol=(refs.polarization_fraction(grid.field, mode.dims[2] // 2)
                     if grid.components == 3 else None),
                epsilon=grid.epsilon.copy(),
                field=grid.field.copy(),
            )
        box = max(n * h for n, h in zip(mode.dims, mode.spacing))
        checks.expect(grid.dims == mode.dims, f"{mode.kind} dims {grid.dims} != {mode.dims}")
        checks.expect(np.array_equal(grid.epsilon, cache["epsilon"])
                      and np.array_equal(grid.field, cache["field"]),
                      f"{mode.kind}: synthesis is not deterministic")
        checks.expect(float(grid.epsilon.min()) >= 1.0, f"{mode.kind}: epsilon below 1")
        checks.within(f"{mode.kind} peak position", refs.max_abs_diff(r_m, cache["r"]) / box, STATS_TOL)
        checks.within(f"{mode.kind} peak at the box centre", float(np.max(np.abs(r_m))) / box, STATS_TOL)
        checks.expect(eps_m == cache["eps"], f"{mode.kind}: eps_m {eps_m} != {cache['eps']}")
        checks.within(f"{mode.kind} mode volume", abs(v_mode - cache["v"]) / cache["v"], STATS_TOL,
                      "fieldgrid.mode_volume_rel_err")
        if cache["pol"] is not None:
            checks.within(f"{mode.kind} polarization", abs(pol - cache["pol"]), STATS_TOL)
            checks.expect(pol >= 0.99, f"{mode.kind}: central-plane E_z share {pol} < 0.99")

    return Op(f"mode-{mode.kind}", run, check)


def trace_reference(mode: Mode, path, g0: float, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    grid = mode.result[0]
    return refs.field_trace(grid.origin, mode.spacing, grid.epsilon, grid.field, path.entry,
                            path.direction, path.length, path.velocity, g0, path.zeta, n_samples)


def sample_trace(mode: Mode, path, g0: float, n_samples: int):
    _, _, eps_m, v_mode, _ = mode.result
    cavity = pcqed.CavityParams(omega_cav=OMEGA_MM, eps_m=eps_m, mode_volume=v_mode, g0=g0)
    return fieldgrid.coupling_trace_from_field(mode.result[0], path, cavity, n_samples)


def check_trace(checks: Checks, trace, reference, path, g0: float) -> None:
    times, values = reference
    checks.within("trace times", refs.max_abs_diff(trace.times, times) / times[-1], SAMPLE_TOL)
    checks.within("trace values", refs.max_abs_diff(trace.values, values) / g0, TRACE_TOL)
    checks.expect(trace.velocity == path.velocity, "trace lost its velocity")


def trace_op(mode: Mode, path, g0: float, n_samples: int = 2001) -> Op:
    """coupling_trace_from_field along a straight path through the mode."""
    cache: dict = {}

    def check(trace, checks: Checks):
        if not cache:
            cache["ref"] = trace_reference(mode, path, g0, n_samples)
        check_trace(checks, trace, cache["ref"], path, g0)

    return Op("field-trace", lambda: sample_trace(mode, path, g0, n_samples), check)


def transit_op(mode: Mode, path, g0: float, p: float, initial: str, n_samples: int) -> Op:
    """coupling_trace_from_field, then an ODE transit driven by |g| of the trace."""
    cache: dict = {}

    def run():
        trace = sample_trace(mode, path, g0, n_samples)
        t0, t1 = trace.window
        traj = ode.evolve(ode.build_subspace(1), ode.drive_from_profile(trace),
                          ode.drive_from_profile(coupling.scaled_pair(trace, p)),
                          pcqed.AmplitudeVector.basis_state(initial), t0, t1)
        return trace, traj

    def check(result, checks: Checks):
        trace, traj = result
        if not cache:
            cache["ref"] = times, values = trace_reference(mode, path, g0, n_samples)
            cache["amps"] = refs.states(refs.interpolant_running_area(times, values, traj.times), p, initial)
        check_trace(checks, trace, cache["ref"], path, g0)
        check_states(checks, f"field transit |{initial}>", traj.amplitudes, cache["amps"],
                     KINKED_ODE_TOL, "ode.amp_err_max")
        check_norm(checks, f"field transit |{initial}>", traj.amplitudes, KINKED_ODE_TOL)

    return Op("field-transit", run, check)


def field_traces(seed: int, out_dir: Path) -> list[Op]:
    """Seeded modes and trace samples, then the bundled field3d transit from both rails.

    ODE transits on seeded paths are left out: on |g| of a trace, DOP853's
    error at single output points has a heavy tail across paths, so a fixed
    tolerance would pass on some seeds and fail on others (README,
    "Workloads").  The bundled transit's input does not depend on the seed,
    so its error is the same in every run.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for kind, lattice, dims, box, height in (
        ("cavity2d", 2.202e-3, (81, 81, 1), (12.6, 12.6, 1.0), 1.0),
        ("cavity3d", 3.18e-3, (41, 41, 21), (10.5, 10.5, 5.25), None),
    ):
        l = jitter(rng, lattice, 0.03)
        spacing = tuple(b * l / n for b, n in zip(box, dims))
        mode = Mode(kind, l, jitter(rng, l, 0.03), dims, spacing, None if height is None else height * l)
        ops.append(mode_op(mode))
        bx = dims[0] * spacing[0]
        bz = dims[2] * spacing[2] if kind == "cavity3d" else 0.0
        for y in (0.1, 0.3):
            # Entry and exit sit a hair inside the x faces, so the path is never clipped.
            entry = np.array([-0.5 * bx * (1 - 1e-9), jitter(rng, y * l), rng.uniform(-0.1, 0.1) * bz])
            exit_ = np.array([0.5 * bx * (1 - 1e-9), -jitter(rng, y * l), rng.uniform(-0.1, 0.1) * bz])
            length = float(np.linalg.norm(exit_ - entry))
            path = fieldgrid.PathSpec(entry=tuple(entry), direction=tuple(exit_ - entry), length=length,
                                      velocity=jitter(rng, 353.0, 0.03), zeta=rng.uniform(0.0, 0.3))
            ops.append(trace_op(mode, path, jitter(rng, 2.899e6, 0.03)))

    config = json.loads((CONFIG_DIR / "evolve_field3d.json").read_text())
    block = config["field"]
    mode = Mode(block["kind"], block["lattice_const"], block["decay_radius"], tuple(block["dims"]),
                tuple(block["spacing"]), None)
    path = fieldgrid.PathSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in config["path"].items()})
    ops.append(mode_op(mode))
    for initial in ("100", "010"):
        ops.append(transit_op(mode, path, config["g0"], config["p"], initial, config["n_samples"]))
    return ops


# ---------------------------------------------------------------- cli-cold and the census

CONFIG_DIR = Path("src/pcqed/configs")
COMMAND_BY_PREFIX = (
    ("calibrate_", "calibrate"),
    ("gate_report_", "gate-report"),
    ("profile_", "profile"),
    ("sweep_", "sweep"),
    ("field", "field-stats"),  # field2d_stats, field3d_stats
    ("", "evolve"),
)


def bundled_configs() -> list[tuple[str, str, dict]]:
    """(stem, command, config) for every bundled config, by name."""
    out = []
    for path in sorted(CONFIG_DIR.glob("*.json")):
        command = next(c for prefix, c in COMMAND_BY_PREFIX if path.stem.startswith(prefix))
        out.append((path.stem, command, json.loads(path.read_text())))
    return out


def read_rows(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(x) for x in row] for row in reader if row])
    return header, rows


class ConfigChecker:
    """Checks the files one bundled config writes; references are built once."""

    def __init__(self, stem: str, command: str, config: dict):
        self.stem, self.command, self.config = stem, command, config
        self.cache: dict = {}

    def __call__(self, out: Path, checks: Checks) -> None:
        getattr(self, "_" + self.command.replace("-", "_"))(out, checks)

    def _family(self) -> dict:
        return dict(self.config.get("profile") or self.config["family"])

    def _grid(self):
        # Grids are inputs: synthesized here with the config's parameters,
        # then every statistic is recomputed from their arrays.
        block = self.config["field"]
        return fieldgrid.synthesize_mode(block["kind"], block["lattice_const"], block["decay_radius"],
                                         tuple(block["dims"]), tuple(block["spacing"]))

    def _evolve(self, out: Path, checks: Checks) -> None:
        c = self.config
        engines = ("analytic", "ode") if c.get("engine", "both") == "both" else (c["engine"],)
        for engine in engines:
            _, rows = read_rows(out / f"{self.stem}_{engine}.csv")
            times = rows[:, 0]
            amps = rows[:, 4:10:2] + 1j * rows[:, 5:10:2]
            if "amps" not in self.cache:
                self.cache["amps"] = self._evolve_reference(times)
            what = f"{self.stem} {engine}"
            checks.within(f"{what} probabilities", refs.max_abs_diff(rows[:, 1:4], np.abs(amps) ** 2),
                          SAMPLE_TOL)
            if engine == "ode":
                tol = ODE_TOL if c["scenario"] == "generic" else KINKED_ODE_TOL
                check_states(checks, what, amps, self.cache["amps"], tol, "ode.amp_err_max")
                check_norm(checks, what, amps, tol)
            else:
                check_states(checks, what, amps, self.cache["amps"], TRAJECTORY_TOL,
                             "analytic.trajectory_err_max")

    def _evolve_reference(self, times) -> np.ndarray:
        c = self.config
        # Generic drives are signed and field traces drive through |g|; the
        # propagator reference knows only these defaults.
        default = c["scenario"] != "generic"
        if c.get("use_magnitude", default) != default:
            raise ValueError("no propagator reference for a non-default drive convention")
        if c["scenario"] == "generic":
            fam = self._family()
            area = family_running_area(fam, fam["velocity"], times)
        else:
            grid = self._grid()
            path = c["path"]
            t, values = refs.field_trace(grid.origin, grid.spacing, grid.epsilon, grid.field,
                                         path["entry"], path["direction"], path["length"],
                                         path["velocity"], c["g0"], path.get("zeta", 0.0),
                                         c.get("n_samples", 2001))
            area = refs.interpolant_running_area(t, values, times)
        return refs.states(area, c["p"], c["initial"])

    def _profile(self, out: Path, checks: Checks) -> None:
        fam = self._family()
        _, rows = read_rows(out / f"{self.stem}_profile.csv")
        times = np.linspace(*window(fam, fam["velocity"]), self.config.get("n_samples", 2000))
        g_a = refs.generic_profile(times, fam["omega0"], fam["path_half_length"], fam["defect_radius"],
                                   fam["lattice_const"], fam["velocity"], fam.get("zeta", 0.0))
        checks.within(f"{self.stem} times", refs.max_abs_diff(rows[:, 0], times) / times[-1], SAMPLE_TOL)
        err = max(refs.max_abs_diff(rows[:, 1], g_a), refs.max_abs_diff(rows[:, 2], self.config["p"] * g_a))
        checks.within(f"{self.stem} couplings", err / fam["omega0"], SAMPLE_TOL)

    def _calibrate(self, out: Path, checks: Checks) -> None:
        doc = json.loads((out / f"{self.stem}_calibration.json").read_text())
        bounds = tuple(self.config.get("v_bounds", V_BOUNDS))
        v_ref = reference_velocity(self._family(), self.config["p"], bounds)
        checks.within(f"{self.stem} velocity", abs(doc["velocity_m_per_s"] - v_ref) / v_ref, STATS_TOL)

    def _gate_report(self, out: Path, checks: Checks) -> None:
        c = self.config
        doc = json.loads((out / f"{self.stem}_report.json").read_text())
        fam = self._family()
        v = c.get("velocity") or reference_velocity(fam, c["p"], tuple(c.get("v_bounds", V_BOUNDS)))
        check_report(checks, doc, fam, c["p"], c["target"], v, c.get("engine", "ode"))

    def _field_stats(self, out: Path, checks: Checks) -> None:
        c = self.config
        doc = json.loads((out / f"{self.stem}_stats.json").read_text())
        if not self.cache:
            grid = self._grid()
            hx, hy, hz = grid.spacing
            if grid.dims[2] == 1:
                hz = c.get("effective_height", c["field"]["lattice_const"])
            idx = refs.peak_cell(grid.epsilon, grid.field)
            centres = refs.cell_centres(grid.origin, grid.spacing, grid.dims)
            eps_m = float(grid.epsilon[idx])
            v_mode = refs.mode_volume(grid.epsilon, grid.field, hx * hy * hz)
            plane = c.get("plane_index", grid.dims[2] // 2)
            self.cache.update(
                v=v_mode, eps=eps_m, r=np.array([centres[k][idx[k]] for k in range(3)]),
                pol=refs.polarization_fraction(grid.field, plane) if grid.field.ndim == 4 else 1.0,
                g0=refs.g0(c["dipole_moment"], c["omega_cav"], eps_m, v_mode)
                if "dipole_moment" in c and "omega_cav" in c else None,
            )
        ref = self.cache
        box = max(n * h for n, h in zip(c["field"]["dims"], c["field"]["spacing"]))
        checks.within(f"{self.stem} mode volume", abs(doc["v_mode_m3"] - ref["v"]) / ref["v"], STATS_TOL,
                      "fieldgrid.mode_volume_rel_err")
        checks.within(f"{self.stem} peak", refs.max_abs_diff(doc["r_m"], ref["r"]) / box, STATS_TOL)
        checks.expect(doc["eps_m"] == ref["eps"], f"{self.stem}: eps_m {doc['eps_m']} != {ref['eps']}")
        checks.within(f"{self.stem} polarization", abs(doc["polarization_fraction"] - ref["pol"]), STATS_TOL)
        if ref["g0"] is None:
            checks.expect(doc["g0_rad_s"] is None, f"{self.stem}: unexpected g0")
        else:
            checks.within(f"{self.stem} g0", abs(doc["g0_rad_s"] - ref["g0"]) / ref["g0"], STATS_TOL)

    def _sweep(self, out: Path, checks: Checks) -> None:
        c = self.config
        fam = {**self._family(), "velocity": 1.0}
        initial = c.get("initial", "100")
        if not self.cache:
            self.cache.update(surface_reference(fam, c.get("v_range", V_BOUNDS), c.get("p_range", (0.0, 1.0)),
                                                c.get("resolution", (251, 201)), initial))
        ref = self.cache
        for name in ("a", "b"):
            header, rows = read_rows(out / f"{self.stem}_{name}.csv")
            p = np.array([float(x) for x in header[1:]])
            checks.within(f"{self.stem} ratios", refs.max_abs_diff(p, ref["p"]), SAMPLE_TOL)
            checks.within(f"{self.stem} velocities", refs.max_abs_diff(rows[:, 0], ref["v"]) / ref["v"][-1],
                          SAMPLE_TOL)
            checks.within(f"{self.stem} {name} surface", refs.max_abs_diff(rows[:, 1:], ref[name]),
                          ANALYTIC_TOL, "sweep.amp_err_max")


def child_env() -> dict:
    """The environment for child processes: pcqed comes from this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path("src").resolve()),
                                                      env.get("PYTHONPATH")]))
    return env


def cli_argv(command: str, stem: str, out: Path) -> list[str]:
    return [command, "--config", str(CONFIG_DIR / f"{stem}.json"), "--out", str(out)]


def cold_op(stem: str, command: str, checker: ConfigChecker, out: Path, env: dict) -> Op:
    entry = "import sys; from pcqed.cli import main; sys.exit(main())"

    def run():
        proc = subprocess.run([sys.executable, "-c", entry, *cli_argv(command, stem, out)],
                              env=env, capture_output=True, text=True, timeout=150)
        return proc

    def check(proc, checks: Checks):
        checks.expect(proc.returncode == 0,
                      f"pcqed {command} {stem}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if proc.returncode == 0:
            checker(out, checks)

    return Op(f"cli-{stem}", run, check)


def cli_cold(seed: int, out_dir: Path) -> list[Op]:
    import pcqed.cli  # noqa: F401  (the CLI's own import is the set-up users pay)

    configs = bundled_configs()
    random.Random(seed).shuffle(configs)
    return [cold_op(stem, command, ConfigChecker(stem, command, config), out_dir, child_env())
            for stem, command, config in configs]


def census_ops(out_dir: Path) -> list[Op]:
    """Warm in-process ``pcqed.cli.main`` on every bundled config."""
    import contextlib
    import io

    import pcqed.cli as cli

    ops = []
    for stem, command, config in bundled_configs():
        checker = ConfigChecker(stem, command, config)
        argv = cli_argv(command, stem, out_dir)

        def run(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        def check(code, checks: Checks, checker=checker, stem=stem):
            checks.expect(code == 0, f"census {stem}: exit {code}")
            if code == 0:
                checker(out_dir, checks)

        ops.append(Op("cli." + command.replace("-", "_"), run, check))
    return ops


WORKLOADS = {
    "cli-cold": cli_cold,
    "closed-form": closed_form,
    "ode-transits": ode_transits,
    "field-traces": field_traces,
}
