"""Command-line front end: evolve, sweep, calibrate, field-stats, gate-report, profile.

Science parameters come from JSON config files (schema-validated, unknown
keys rejected, each scenario's needed keys checked, optional keys resolved to
the defaults of the library code that reads them); flags handle only I/O.
Every command's schema comes from one helper, and each rule the library holds
is read from the library: the profile keys, which are required and which
positive, from :class:`GenericProfileParams`, and the ``initial`` states
from the one-excitation basis.
Every :class:`ConfigError` is raised while the config loads, before any work.
A number literal that is not a finite double (``NaN``, ``Infinity``,
``1e400``, a 401-digit integer) exits 2; an underflowing ``1e-400`` reads as
0.0.  Outputs are deterministic for a fixed config; every table is written by
:func:`pcqed.core.write_csv`.  Every command runs under one protocol, in
:func:`main`: load the config, create the output directory, run, print each
path written, and map exceptions to exit codes: 0 ok, 2 config error or an
``--out`` that cannot be created or written into, 3 integrator convergence
failure, 4 calibration not found.  Any other exception is a pcqed bug and
propagates: exit 1, with a traceback.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np

from .analytic import analytic_trajectory
from .core import (
    CalibrationError,
    CavityParams,
    ConvergenceError,
    AmplitudeVector,
    basis_labels,
    build_subspace,
    g0_from_params,
    write_csv,
)
from .coupling import _FIELDS, _POSITIVE, GenericProfile, GenericProfileParams, drive_pair
from .fieldgrid import (
    DEFAULT_SAMPLES,
    FieldGrid,
    PathSpec,
    coupling_trace_from_field,
    grid_from_json,
    mode_volume,
    peak_energy_point,
    polarization_fraction,
    synthesize_mode,
)
from .gates import GateSettings, TARGETS, calibrate_velocity, check_calibration, truth_table
from .ode import (
    DEFAULT_ATOL,
    DEFAULT_POINTS,
    DEFAULT_RTOL,
    MIN_ATOL,
    MIN_RTOL,
    Trajectory,
    evolve,
    trajectory_to_csv,
)
from .sweep import surface, surfaces_to_csv
from . import svg as svgmod

__all__ = ["main"]

_NUM_POS = {"type": "number", "exclusiveMinimum": 0}
_NUM = {"type": "number"}
_VEC3 = {"type": "array", "items": _NUM, "minItems": 3, "maxItems": 3}

# The generic profile's keys as GenericProfileParams takes them: positive
# where it checks so, required where it has no default.
_PROFILE_SCHEMA = {
    "type": "object",
    "properties": {key: _NUM_POS if key in _POSITIVE else _NUM for key in _FIELDS},
    "required": [name for name, param in inspect.signature(GenericProfileParams).parameters.items()
                 if param.default is param.empty],
    "additionalProperties": False,
}

# A sweep family: the profile without its velocity, which the sweep sets per cell.
_FAMILY_SCHEMA = {
    **_PROFILE_SCHEMA,
    "properties": {k: v for k, v in _PROFILE_SCHEMA["properties"].items() if k != "velocity"},
    "required": [k for k in _PROFILE_SCHEMA["required"] if k != "velocity"],
}

_FIELD_SCHEMA = {
    "type": "object",
    "oneOf": [
        {
            "properties": {
                "source": {"const": "synthesize"},
                "kind": {"enum": ["cavity2d", "cavity3d"]},
                "lattice_const": _NUM_POS,
                "decay_radius": _NUM_POS,
                "dims": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1, "maximum": 401},
                    "minItems": 3,
                    "maxItems": 3,
                },
                "spacing": {"type": "array", "items": _NUM_POS, "minItems": 3, "maxItems": 3},
            },
            "required": ["source", "kind", "lattice_const", "decay_radius", "dims", "spacing"],
            "additionalProperties": False,
        },
        {
            "properties": {"source": {"const": "file"}, "path": {"type": "string"}},
            "required": ["source", "path"],
            "additionalProperties": False,
        },
    ],
}

_PATH_SCHEMA = {
    "type": "object",
    "properties": {
        "entry": _VEC3,
        "direction": _VEC3,
        "length": _NUM_POS,
        "velocity": _NUM_POS,
        "zeta": _NUM,
    },
    "required": ["entry", "direction", "length", "velocity"],
    "additionalProperties": False,
}

_ODE_SCHEMA = {
    "type": "object",
    "properties": {"rtol": {"type": "number", "minimum": MIN_RTOL},
                   "atol": {"type": "number", "minimum": MIN_ATOL}},
    "additionalProperties": False,
}

_SCENARIO = {"enum": ["generic", "field2d", "field3d"]}
# Keys each scenario needs that its command's schema cannot require; one of each tuple.
_FIELD_NEEDS = (("field",), ("path",), ("omega_cav",), ("g0", "dipole_moment"))
_SCENARIO_NEEDS = {"generic": (("profile",),), "field2d": _FIELD_NEEDS, "field3d": _FIELD_NEEDS}
_TARGET = {"enum": sorted(TARGETS)}

_V_BOUNDS = {"type": "array", "items": _NUM_POS, "minItems": 2, "maxItems": 2}
# Every size key has a maximum, so that a typo is refused before anything is allocated.
_N_POINTS = {"type": "integer", "minimum": 2, "maximum": 1_000_000}

# Keys every command that builds atom A's profile from a scenario accepts.
_SCENARIO_KEYS = {
    "scenario": _SCENARIO,
    "profile": _PROFILE_SCHEMA,
    "field": _FIELD_SCHEMA,
    "path": _PATH_SCHEMA,
    "g0": _NUM_POS,
    "dipole_moment": _NUM_POS,
    "omega_cav": _NUM_POS,
    "effective_height": _NUM_POS,
    "p": _NUM,
}


def _command(required: tuple[str, ...], **keys) -> dict:
    """Schema of a command's config: a description, its own keys, and no other."""
    return {
        "type": "object",
        "properties": {"description": {"type": "string"}, **keys},
        "required": list(required),
        "additionalProperties": False,
    }


def _scenario_command(required: tuple[str, ...], **keys) -> dict:
    """Schema of a scenario command: the shared keys plus its own."""
    return _command(("scenario", "p", *required), **_SCENARIO_KEYS, **keys)


SCHEMAS = {
    "evolve": _scenario_command(
        ("initial",),
        initial={"enum": list(basis_labels(1))},
        engine={"enum": ["analytic", "ode", "both"]},
        ode=_ODE_SCHEMA,
        n_points=_N_POINTS,
        n_samples=_N_POINTS,
        svg={"type": "boolean"},
    ),
    "profile": _scenario_command((), n_samples=_N_POINTS, svg={"type": "boolean"}),
    "calibrate": _scenario_command(("target",), target=_TARGET, v_bounds=_V_BOUNDS),
    "gate-report": _scenario_command(
        ("target", "omega_cav"),
        target=_TARGET,
        v_bounds=_V_BOUNDS,
        velocity=_NUM_POS,
        q_factor=_NUM_POS,
        engine={"enum": ["analytic", "ode"]},
        ode=_ODE_SCHEMA,
    ),
    "field-stats": _command(
        ("field",),
        field=_FIELD_SCHEMA,
        plane_index={"type": "integer", "minimum": 0},
        dipole_moment=_NUM_POS,
        omega_cav=_NUM_POS,
        effective_height=_NUM_POS,
    ),
    "sweep": _command(
        ("family",),
        family=_FAMILY_SCHEMA,
        v_range=_V_BOUNDS,
        p_range={"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
        resolution={
            "type": "array",
            "items": {"type": "integer", "minimum": 2, "maximum": 5001},
            "minItems": 2,
            "maxItems": 2,
        },
        initial={"enum": list(basis_labels(1)[:2])},  # the atom states
        svg={"type": "boolean"},
    ),
}


def _keyword_defaults(function) -> dict:
    """Default of each keyword parameter of a library function, by name."""
    return {
        name: param.default
        for name, param in inspect.signature(function).parameters.items()
        if param.default is not param.empty
    }


# Each command's optional keys, resolved to the defaults of the library code
# that reads them; only the engine choices and the profile plot's title are
# the CLI's own.  A nested block ("ode") resolves key by key.
_ODE_DEFAULTS = {"rtol": DEFAULT_RTOL, "atol": DEFAULT_ATOL}
DEFAULTS = {
    "evolve": {
        "engine": "both",
        "ode": _ODE_DEFAULTS,
        "n_points": DEFAULT_POINTS,
        "n_samples": DEFAULT_SAMPLES,
    },
    "profile": {"n_samples": DEFAULT_SAMPLES, "description": "coupling profiles"},
    "calibrate": {"n_samples": DEFAULT_SAMPLES, **_keyword_defaults(calibrate_velocity)},
    "gate-report": {
        "n_samples": DEFAULT_SAMPLES,
        **_keyword_defaults(calibrate_velocity),
        "q_factor": GateSettings.q_factor,
        "engine": "ode",
        "ode": _ODE_DEFAULTS,
    },
    "field-stats": {},
    "sweep": _keyword_defaults(surface),
}


class ConfigError(ValueError):
    pass


def _load_config(path: str, command: str) -> dict:
    """The config at ``path``, validated for ``command`` and resolved over its DEFAULTS."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def refuse(literal: str):  # Python's json reads NaN and infinities; JSON Schema lets them by
        raise ConfigError(f"config {path} is not valid JSON: {literal} is not a number")

    def finite(parse):  # it reads 1e400 as inf, and a 401-digit integer past every double
        def read(literal: str):
            if not math.isfinite(float(literal)):
                shown = literal if len(literal) <= 24 else f"{literal[:24]}..."
                raise ConfigError(f"config {path} is not valid JSON: {shown} is not a finite double")
            return parse(literal)
        return read

    try:
        config = json.loads(raw, parse_constant=refuse,
                            parse_float=finite(float), parse_int=finite(int))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(config, SCHEMAS[command])
    except jsonschema.ValidationError as exc:
        location = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config {path} invalid at {location}: {exc.message}") from exc
    scenario = config.get("scenario")  # sweep and field-stats configs have none
    missing = [" or ".join(map(repr, keys)) for keys in _SCENARIO_NEEDS.get(scenario, ())
               if not any(key in config for key in keys)]
    if missing:
        raise ConfigError(f"config {path}: {scenario} scenarios need {', '.join(missing)}")
    defaults = DEFAULTS[command]
    resolved = {**defaults, **config}
    for key, value in defaults.items():
        if isinstance(value, dict):
            resolved[key] = {**value, **config.get(key, {})}
    # the ratio and bounds calibration will need: checked before any trace is built
    if command == "calibrate" or (command == "gate-report" and "velocity" not in config):
        try:
            check_calibration(resolved["target"], resolved["p"], tuple(resolved["v_bounds"]))
        except ValueError as exc:
            raise ConfigError(f"config {path}: {exc}") from exc
    return resolved


def _build_grid(config: dict) -> FieldGrid:
    block = config["field"]
    if block["source"] == "synthesize":
        return synthesize_mode(
            block["kind"],
            block["lattice_const"],
            block["decay_radius"],
            tuple(block["dims"]),
            tuple(block["spacing"]),
        )
    return grid_from_json(block["path"])


def _mode(config: dict):
    """The configured grid, its peak position and eps_m, its mode volume, and g0: the
    'g0' key, else derived from 'dipole_moment' and 'omega_cav' when both are set, else None."""
    grid = _build_grid(config)
    r_m, eps_m = peak_energy_point(grid)
    v_mode = mode_volume(grid, config.get("effective_height"))
    g0 = config.get("g0")
    if g0 is None and "dipole_moment" in config and "omega_cav" in config:
        g0 = g0_from_params(config["dipole_moment"], config["omega_cav"], eps_m, v_mode)
    return grid, r_m, eps_m, v_mode, g0


def _generic_params(block: dict) -> GenericProfileParams:
    """Generic-profile parameters from a validated 'profile' or 'family' block.

    A sweep family carries no velocity; the sweep sets each grid velocity.
    """
    return GenericProfileParams(**{"velocity": 1.0, **block})


def _profile_from_config(config: dict):
    """Atom A's coupling profile for the configured scenario.

    A GenericProfile for the generic scenario, else the CouplingTrace
    sampled along the configured path, which is checked before the field is
    built; both carry their reference velocity.
    """
    if config["scenario"] == "generic":
        return GenericProfile(_generic_params(config["profile"]))
    path = PathSpec(**config["path"])
    grid, _, eps_m, v_mode, g0 = _mode(config)
    cavity = CavityParams(config["omega_cav"], eps_m, v_mode, g0=g0)
    return coupling_trace_from_field(grid, path, cavity, config["n_samples"])


def _write_trajectory(traj: Trajectory, path: Path, fmt: str) -> Path:
    if fmt == "json":
        doc = {
            "basis": list(traj.basis_labels),
            "times_s": traj.times.tolist(),
            "probabilities": dict(zip(traj.basis_labels, traj.probabilities().T.tolist())),
            "amplitudes_re": traj.amplitudes.real.tolist(),
            "amplitudes_im": traj.amplitudes.imag.tolist(),
        }
        path = path.with_suffix(".json")
        path.write_text(json.dumps(doc))
        return path
    return trajectory_to_csv(traj, path)


# Each command takes the resolved config, the output directory, the file-name
# stem and the parsed flags, prints its own lines, and returns the paths it wrote.


def _cmd_evolve(config: dict, out: Path, stem: str, args) -> list[Path]:
    engine = config["engine"]
    profile_a = _profile_from_config(config)
    initial = config["initial"]
    n_points = config["n_points"]
    t0, t1 = profile_a.window
    times = np.linspace(t0, t1, n_points)
    drive_a, drive_b, c = drive_pair(profile_a, config["p"])
    # Every trajectory is computed before any file is written, the ODE's
    # first: a run it refuses (its area bound) or fails writes no file.
    ode = analytic = None
    if engine in ("ode", "both"):
        ode = evolve(
            build_subspace(1),
            drive_a,
            drive_b,
            AmplitudeVector.basis_state(initial),
            t0,
            t1,
            rtol=config["ode"]["rtol"],
            atol=config["ode"]["atol"],
            n_points=n_points,
        )
    if engine in ("analytic", "both"):
        amps = analytic_trajectory(drive_a, c, times, initial=initial)
        analytic = Trajectory(1, times, amps, {"engine": "analytic"})
    written = [_write_trajectory(traj, out / f"{stem}_{name}.csv", args.format)
               for name, traj in (("analytic", analytic), ("ode", ode)) if traj is not None]
    if config.get("svg"):  # the ODE trajectory if it ran, else the analytic one
        traj = ode if ode is not None else analytic
        probs = {f"|{lbl}>": col for lbl, col in zip(traj.basis_labels, traj.probabilities().T)}
        written.append(
            svgmod.line_plot_svg(
                out / f"{stem}.svg",
                traj.times,
                probs,
                title=config.get("description", stem),
                xlabel="time (s)",
                ylabel="probability",
            )
        )
    return written


def _cmd_profile(config: dict, out: Path, stem: str, args) -> list[Path]:
    profile_a = _profile_from_config(config)
    p = config["p"]
    t0, t1 = profile_a.window
    times = np.linspace(t0, t1, config["n_samples"])
    va = np.asarray(profile_a(times))
    vb = p * va
    is_complex = np.iscomplexobj(va)
    if is_complex:
        names = ("coupling_a_re", "coupling_a_im", "coupling_b_re", "coupling_b_im")
        columns = (va.real, va.imag, vb.real, vb.imag)
    else:
        names = ("coupling_a", "coupling_b")
        columns = (va, vb)
    header = ["time_s", *(f"{name}_rad_per_s" for name in names)]
    path = write_csv(out / f"{stem}_profile.csv", header, (times, *columns))
    written = [path]
    if config.get("svg"):
        series = (
            {"|g_A|": np.abs(va), "|g_B|": np.abs(vb)}
            if is_complex
            else {"g_A": va, "g_B": vb}
        )
        written.append(
            svgmod.line_plot_svg(
                out / f"{stem}_profile.svg",
                times,
                series,
                title=config["description"],
                xlabel="time (s)",
                ylabel="coupling (rad/s)",
            )
        )
    return written


def _cmd_calibrate(config: dict, out: Path, stem: str, args) -> list[Path]:
    v_bounds = tuple(config["v_bounds"])
    v_star = calibrate_velocity(_profile_from_config(config), config["p"], config["target"], v_bounds)
    doc = {
        "target": config["target"],
        "p": config["p"],
        "velocity_m_per_s": v_star,
        "v_bounds_m_per_s": list(v_bounds),
        "scenario": config["scenario"],
    }
    path = out / f"{stem}_calibration.json"
    path.write_text(json.dumps(doc, indent=2))
    print(f"calibrated velocity: {v_star:.6g} m/s (target {config['target']})")
    return [path]


def _cmd_gate_report(config: dict, out: Path, stem: str, args) -> list[Path]:
    p = config["p"]
    reference = _profile_from_config(config)
    if "velocity" in config:
        v_star = config["velocity"]
    else:
        v_star = calibrate_velocity(reference, p, config["target"], tuple(config["v_bounds"]))
    settings = GateSettings(
        target=TARGETS[config["target"]],
        profile_a=reference.at_velocity(v_star),
        p=p,
        velocity=v_star,
        omega_cav=config["omega_cav"],
        q_factor=config["q_factor"],
        rtol=config["ode"]["rtol"],
        atol=config["ode"]["atol"],
    )
    report = truth_table(settings, config["engine"])
    print(report.table())
    path = out / f"{stem}_report.json"
    path.write_text(json.dumps(report.to_dict(), indent=2))
    return [path]


def _cmd_field_stats(config: dict, out: Path, stem: str, args) -> list[Path]:
    grid, r_m, eps_m, v_mode, g0 = _mode(config)
    pol = polarization_fraction(grid, config.get("plane_index", grid.dims[2] // 2))
    doc = {
        "v_mode_m3": v_mode,
        "r_m": r_m.tolist(),
        "eps_m": eps_m,
        "g0_rad_s": g0,
        "polarization_fraction": pol,
    }
    path = out / f"{stem}_stats.json"
    path.write_text(json.dumps(doc, indent=2))
    print(json.dumps(doc, indent=2))
    return [path]


def _cmd_sweep(config: dict, out: Path, stem: str, args) -> list[Path]:
    grid = surface(
        _generic_params(config["family"]),
        v_range=tuple(config["v_range"]),
        p_range=tuple(config["p_range"]),
        initial=config["initial"],
        resolution=tuple(config["resolution"]),
    )
    written = list(surfaces_to_csv(grid, out, stem))
    if config.get("svg"):
        for name, surf in (("a", grid.a_surface), ("b", grid.b_surface)):
            written.append(
                svgmod.heatmap_svg(
                    out / f"{stem}_{name}.svg",
                    grid.v_values,
                    grid.p_values,
                    surf,
                    title=f"{name}(V, p), initial |{grid.initial}>",
                    xlabel="velocity (m/s)",
                    ylabel="coupling ratio p",
                )
            )
    return written


_COMMANDS = {
    "evolve": _cmd_evolve,
    "sweep": _cmd_sweep,
    "calibrate": _cmd_calibrate,
    "field-stats": _cmd_field_stats,
    "gate-report": _cmd_gate_report,
    "profile": _cmd_profile,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcqed",
        description="Two flying atoms crossing a single-mode cavity: dynamics, "
        "gate calibration, sweeps, and mode-field analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        if name == "evolve":
            p.add_argument(
                "--format", choices=["csv", "json"], default="csv", help="trajectory output format"
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config, args.command)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for path in _COMMANDS[args.command](config, out, Path(args.config).stem, args):
            print(path)
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # every input is read while the config loads, so this is --out
        print(f"output error: cannot write into {args.out}: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except CalibrationError as exc:
        print(f"calibration not found: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
