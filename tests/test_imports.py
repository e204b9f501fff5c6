"""What a fresh pcqed process imports, and what each module imports.

pcqed's runtime needs numpy and jsonschema only: the ODE engine runs its own
DOP853 and field traces are sampled by its own multilinear interpolation, so
no command loads scipy (a test-only dependency).
Each check runs a fresh interpreter, because this test process has loaded
scipy long before.  Every name a module imports is read by its own code,
but for the re-exports perfbench reads; the check walks each module's
syntax tree, with the standard library alone.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import pcqed
from pcqed import cli
from oracles import example_config_path
from test_cli import BUNDLED, command_of

PACKAGE = Path(pcqed.__file__).parent

# Prints the sorted names of every module loaded once the given code has run.
_REPORT = "import json, sys; {code}; print(json.dumps(sorted(sys.modules)))"


def loaded_modules(code: str, cwd: Path) -> set[str]:
    """Modules a fresh interpreter holds after running ``code``.

    The child sees the environment's PYTHONPATH with this pcqed's source
    directory in front, so it imports the package under test.
    """
    pythonpath = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT.format(code=code)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def scipy_modules(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if m == "scipy" or m.startswith("scipy."))


def run_main(command: str, config: str, tmp_path: Path) -> str:
    """Code that runs ``pcqed <command>`` on a bundled config and checks its exit code."""
    argv = [command, "--config", str(example_config_path(config)), "--out", str(tmp_path)]
    return f"from pcqed.cli import main; assert main({argv!r}) == 0"


def test_cli_import_loads_no_scipy(tmp_path):
    assert scipy_modules(loaded_modules("import pcqed.cli", tmp_path)) == []


def test_cli_import_generates_no_kernel(tmp_path):
    """The ODE's straight-line step is generated when a solver first needs
    it, so an analytic-only process never pays for it."""
    code = ("import pcqed.cli; from pcqed import dop853; "
            "assert dop853._kernel.cache_info().currsize == 0")
    loaded_modules(code, tmp_path)


@pytest.mark.parametrize(
    "command, config",
    [
        ("calibrate", "calibrate_entangler_generic"),
        ("sweep", "sweep_default"),
        ("profile", "profile_generic"),
        ("field-stats", "field2d_stats"),
        ("gate-report", "gate_report_entangler_generic"),  # engine: analytic
    ],
)
def test_analytic_command_loads_no_scipy(command, config, tmp_path):
    assert scipy_modules(loaded_modules(run_main(command, config, tmp_path), tmp_path)) == []


def test_bundled_configs_load_no_scipy(tmp_path):
    """Every bundled config, the ODE engine and trace sampling included, run
    one after the other in one fresh interpreter."""
    code = "; ".join(run_main(command_of(config), config.stem, tmp_path) for config in BUNDLED)
    assert scipy_modules(loaded_modules(code, tmp_path)) == []


def test_cli_import_loads_what_the_benchmark_probes(tmp_path):
    """perfbench wraps functions only in modules already imported.

    ``perfbench/run.py`` (``layer_probes``) wraps ``jsonschema.validate``
    (span ``cli.validate``) and functions of ``pcqed.coupling``,
    ``pcqed.sweep``, ``pcqed.gates``, ``pcqed.analytic``, ``pcqed.ode`` and
    ``pcqed.fieldgrid``; ``perfbench/spans.py`` (``instrument``) skips any
    module not yet in ``sys.modules`` when it patches, and the metric then
    goes missing.  So ``import pcqed.cli`` must load jsonschema and every
    pcqed submodule eagerly.  ``cli.py``'s own imports do: jsonschema,
    ``analytic``, ``core``, ``coupling``, ``fieldgrid``, ``gates``, ``ode``
    (which imports ``dop853``), ``sweep`` and ``svg``.  The package
    ``__init__`` imports only ``core``.
    """
    modules = loaded_modules("import pcqed.cli", tmp_path)
    submodules = {f"pcqed.{path.stem}" for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    assert "jsonschema" in modules
    assert submodules - modules == set()


def test_load_config_validates_through_jsonschema_once(monkeypatch):
    """The ``cli.validate`` probe counts calls of ``jsonschema.validate``."""
    calls = []
    original = jsonschema.validate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(jsonschema, "validate", counting)
    config = cli._load_config(str(example_config_path("sweep_default")), "sweep")
    assert len(calls) == 1
    assert calls[0] == (config, cli.SCHEMAS["sweep"])


# Imported for others to read, as marked where they are imported:
# perfbench reads pcqed.AmplitudeVector, pcqed.CavityParams and
# pcqed.ode.drive_from_profile.
RE_EXPORTS = {"__init__.py": {"AmplitudeVector", "CavityParams"},
              "ode.py": {"drive_from_profile"}}


def unread_imports(path: Path) -> set[str]:
    """The names a module's imports bind that none of its own code reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert unread_imports(path) == RE_EXPORTS.get(path.name, set())
