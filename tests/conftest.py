import json
import math
from pathlib import Path

import pytest

from pcqed import dop853
from pcqed.core import CavityParams
from pcqed.coupling import GenericProfileParams
from pcqed.fieldgrid import (
    PathSpec,
    coupling_trace_from_field,
    mode_volume,
    peak_energy_point,
    synthesize_mode,
)

from oracles import C_LIGHT, example_config_path

# Reference generic scenario used throughout: optical transition at
# 2.4e15 rad/s, lattice period 1.6*pi*c/omega, half-path of ten periods,
# envelope decay of one period, peak Rabi frequency 11e9 rad/s.
OMEGA_GENERIC = 2.4e15
LATTICE_GENERIC = 1.6 * math.pi * C_LIGHT / OMEGA_GENERIC
OMEGA0_GENERIC = 11e9

# Millimeter-wave scenarios: resonance wavelength 5.9 mm.
OMEGA_MM = 2 * math.pi * C_LIGHT / 5.9e-3
LATTICE_2D = 2.202e-3
LATTICE_3D = 3.18e-3


def csv_rows(path) -> list[list[str]]:
    """The cells of a CSV pcqed wrote, one list per line; every line must end in CRLF."""
    data = Path(path).read_bytes()
    assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n")
    return [line.split(",") for line in data.decode().split("\r\n")[:-1]]


def generic_family(velocity: float = 433.0, zeta: float = 0.0) -> GenericProfileParams:
    return GenericProfileParams(
        omega0=OMEGA0_GENERIC,
        path_half_length=10 * LATTICE_GENERIC,
        defect_radius=LATTICE_GENERIC,
        lattice_const=LATTICE_GENERIC,
        velocity=velocity,
        zeta=zeta,
    )


def inlined(drive):
    """The drive's value at one time, as the generated DOP853 code inlines
    it: its ``scalar_lines`` run by the right-hand side that
    ``dop853._kernel`` generates from them, as a function of T."""
    lines, names, values = drive.scalar_lines("g", "d_")
    rhs = dop853._kernel(1, ((0, 1),), (*lines, "f_0 = g"), names)(*values)[1]
    return lambda t: rhs(t, [0j])[0]


@pytest.fixture
def fig_family() -> GenericProfileParams:
    return generic_family()


@pytest.fixture(scope="session")
def field3d_config() -> dict:
    return json.loads(example_config_path("evolve_field3d").read_text())


@pytest.fixture(scope="session")
def field3d_trace(field3d_config):
    """The complex coupling trace of the bundled evolve_field3d transit."""
    return field3d_transit(field3d_config, field3d_config["g0"])


def field3d_transit(c: dict, g0: float):
    """The coupling trace of the evolve_field3d config ``c``'s transit at coupling g0 (rad/s)."""
    f = c["field"]
    grid = synthesize_mode(f["kind"], f["lattice_const"], f["decay_radius"],
                           tuple(f["dims"]), tuple(f["spacing"]))
    path = PathSpec(entry=tuple(c["path"]["entry"]), direction=tuple(c["path"]["direction"]),
                    length=c["path"]["length"], velocity=c["path"]["velocity"])
    _, eps_m = peak_energy_point(grid)
    cavity = CavityParams(omega_cav=c["omega_cav"], eps_m=eps_m, mode_volume=mode_volume(grid),
                          g0=g0)
    return coupling_trace_from_field(grid, path, cavity, c["n_samples"])
