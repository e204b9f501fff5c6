import dataclasses
import inspect
import json
import math

from pathlib import Path

import jsonschema
import numpy as np
import pytest

import pcqed
from pcqed import cli
from pcqed.core import ConvergenceError
from pcqed.coupling import GenericProfileParams
from pcqed.cli import main

from conftest import LATTICE_GENERIC, OMEGA0_GENERIC, csv_rows
from oracles import example_config_path


def run(args):
    return main([str(a) for a in args])


def generic_config(**overrides):
    config = {
        "scenario": "generic",
        "profile": {
            "omega0": OMEGA0_GENERIC,
            "path_half_length": 10 * LATTICE_GENERIC,
            "defect_radius": LATTICE_GENERIC,
            "lattice_const": LATTICE_GENERIC,
            "velocity": 433.0,
            "zeta": 0.0,
        },
        "p": 0.414,
        "initial": "100",
        "engine": "both",
    }
    config.update(overrides)
    return config


def write_config(tmp_path, name, config):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    return path


def final_probabilities(csv_path):
    return [float(x) for x in csv_rows(csv_path)[-1][1:4]]


class TestEvolve:
    def test_bundled_entangler_run(self, tmp_path):
        assert run(["evolve", "--config", example_config_path("entangler_generic"), "--out", tmp_path]) == 0
        for engine in ("analytic", "ode"):
            probs = final_probabilities(tmp_path / f"entangler_generic_{engine}.csv")
            assert probs[0] == pytest.approx(0.5, abs=0.02)
            assert probs[1] == pytest.approx(0.5, abs=0.02)
            assert probs[2] <= 0.02

    def test_bundled_rail_swap_run(self, tmp_path):
        assert run(["evolve", "--config", example_config_path("not_generic"), "--out", tmp_path]) == 0
        probs = final_probabilities(tmp_path / "not_generic_ode.csv")
        assert probs[1] >= 0.98

    def test_zero_velocity_rejected(self, tmp_path):
        config = generic_config()
        config["profile"]["velocity"] = 0.0
        path = write_config(tmp_path, "bad", config)
        assert run(["evolve", "--config", path, "--out", tmp_path]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        config = generic_config(frobnicate=1)
        path = write_config(tmp_path, "bad", config)
        assert run(["evolve", "--config", path, "--out", tmp_path]) == 2

    def test_missing_config_file(self, tmp_path):
        assert run(["evolve", "--config", tmp_path / "nope.json", "--out", tmp_path]) == 2

    def test_convergence_failure_maps_to_exit_3(self, tmp_path, monkeypatch):
        import pcqed.cli as cli

        def boom(*args, **kwargs):
            raise ConvergenceError("stuck", t=1e-9)

        monkeypatch.setattr(cli, "evolve", boom)
        path = write_config(tmp_path, "cfg", generic_config(engine="ode"))
        assert run(["evolve", "--config", path, "--out", tmp_path]) == 3

    def test_type_error_is_a_bug_not_a_config_error(self, tmp_path, monkeypatch):
        # every drive a command builds has an exact area, so a TypeError is
        # pcqed's own bug: main lets it through (exit 1) instead of exit 2
        def boom(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(cli, "evolve", boom)
        path = write_config(tmp_path, "cfg", generic_config(engine="ode"))
        with pytest.raises(TypeError, match="bug"):
            run(["evolve", "--config", path, "--out", tmp_path])

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, "cfg", generic_config(engine="ode"))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run(["evolve", "--config", path, "--out", out1]) == 0
        assert run(["evolve", "--config", path, "--out", out2]) == 0
        assert (out1 / "cfg_ode.csv").read_bytes() == (out2 / "cfg_ode.csv").read_bytes()

    def test_json_format(self, tmp_path):
        # the JSON and the CSV of one run carry the same floats, probabilities included
        config = example_config_path("entangler_generic")  # engine: both
        assert run(["evolve", "--config", config, "--out", tmp_path / "csv"]) == 0
        assert run(["evolve", "--config", config, "--out", tmp_path / "json", "--format", "json"]) == 0
        for engine in ("analytic", "ode"):
            doc = json.loads((tmp_path / "json" / f"entangler_generic_{engine}.json").read_text())
            data = np.array(csv_rows(tmp_path / "csv" / f"entangler_generic_{engine}.csv")[1:], dtype=float)
            assert doc["basis"] == ["100", "010", "001"]
            assert doc["probabilities"]["100"][0] == pytest.approx(1.0)
            assert doc["times_s"] == data[:, 0].tolist()
            assert [doc["probabilities"][label] for label in doc["basis"]] == data[:, 1:4].T.tolist()
            assert doc["amplitudes_re"] == data[:, 4::2].tolist()
            assert doc["amplitudes_im"] == data[:, 5::2].tolist()

    def test_svg_emission(self, tmp_path):
        path = write_config(tmp_path, "cfg", generic_config(engine="ode", svg=True, n_points=200))
        assert run(["evolve", "--config", path, "--out", tmp_path]) == 0
        svg = (tmp_path / "cfg.svg").read_text()
        assert svg.startswith("<svg")

    def test_svg_emission_analytic_only(self, tmp_path):
        path = write_config(tmp_path, "cfg", generic_config(engine="analytic", svg=True, n_points=200))
        assert run(["evolve", "--config", path, "--out", tmp_path]) == 0
        assert not (tmp_path / "cfg_ode.csv").exists()
        svg = (tmp_path / "cfg.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 3


class TestCalibrate:
    def test_bundled_entangler_calibration(self, tmp_path, capsys):
        code = run(["calibrate", "--config", example_config_path("calibrate_entangler_generic"), "--out", tmp_path])
        assert code == 0
        printed = capsys.readouterr().out
        assert "calibrated velocity" in printed
        doc = json.loads((tmp_path / "calibrate_entangler_generic_calibration.json").read_text())
        assert doc["velocity_m_per_s"] == pytest.approx(433.0, rel=0.03)

    def test_no_solution_exits_4(self, tmp_path):
        config = generic_config(target="ENTANGLER_HADAMARD", v_bounds=[150.0, 160.0])
        del config["initial"], config["engine"]
        path = write_config(tmp_path, "cfg", config)
        assert run(["calibrate", "--config", path, "--out", tmp_path]) == 4

    @pytest.mark.parametrize("key, value, codes", [
        ("velocity", 1e-300, {4}),  # an unbounded pulse area
        ("omega0", 1.1e20, {0, 4}),  # some 10^10 odd multiples of pi above the bounds
    ])
    def test_pulse_area_sets_no_work(self, tmp_path, key, value, codes):
        config = json.loads(example_config_path("calibrate_not_generic").read_text())
        config["profile"][key] = value
        path = write_config(tmp_path, "cfg", config)
        assert run(["calibrate", "--config", path, "--out", tmp_path]) in codes


class TestFieldStats:
    def test_bundled_3d_stats(self, tmp_path):
        code = run(["field-stats", "--config", example_config_path("field3d_stats"), "--out", tmp_path])
        assert code == 0
        doc = json.loads((tmp_path / "field3d_stats_stats.json").read_text())
        assert doc["polarization_fraction"] >= 0.99
        assert doc["eps_m"] == 12.0
        assert doc["v_mode_m3"] > 0
        assert doc["g0_rad_s"] > 0
        assert doc["r_m"] == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)

    def test_bundled_2d_stats(self, tmp_path):
        code = run(["field-stats", "--config", example_config_path("field2d_stats"), "--out", tmp_path])
        assert code == 0
        doc = json.loads((tmp_path / "field2d_stats_stats.json").read_text())
        assert doc["polarization_fraction"] == 1.0
        assert doc["eps_m"] == 12.0

    def test_plane_outside_a_2d_grid_exits_2(self, tmp_path, capsys):
        # a scalar grid's plane is checked as a 3D grid's is
        path = write_config(tmp_path, "stats", bundled_with("field2d_stats", ("plane_index",), 7))
        assert run(["field-stats", "--config", path, "--out", tmp_path]) == 2
        assert "plane index 7 outside 0..0" in capsys.readouterr().err
        assert not (tmp_path / "stats_stats.json").exists()

    def test_box_over_the_lattice_bound_exits_2(self, tmp_path, capsys):
        # x and y spacing typed 1e12x too large: a box of ~1.3e13 lattice constants
        config = json.loads(example_config_path("field2d_stats").read_text())
        config["field"]["spacing"][:2] = [h * 1e12 for h in config["field"]["spacing"][:2]]
        path = write_config(tmp_path, "stats", config)
        assert run(["field-stats", "--config", path, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: spacing") and "lattice_const" in err

    def test_same_mode_analysis_as_a_field_scenario(self, tmp_path, field3d_config, monkeypatch):
        # one field block and one dipole moment: field-stats and the trace it
        # drives see bit-identical eps_m, mode volume and g0
        scenario = {k: v for k, v in field3d_config.items()
                    if k not in ("initial", "engine", "svg", "g0")}
        scenario["dipole_moment"] = 2e-26
        cavities = []
        sample = cli.coupling_trace_from_field

        def recording(grid, path, cavity, n_samples):
            cavities.append(cavity)
            return sample(grid, path, cavity, n_samples)

        monkeypatch.setattr(cli, "coupling_trace_from_field", recording)
        assert run(["profile", "--config", write_config(tmp_path, "trace", scenario), "--out", tmp_path]) == 0
        stats = {k: scenario[k] for k in ("field", "dipole_moment", "omega_cav")}
        assert run(["field-stats", "--config", write_config(tmp_path, "stats", stats), "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "stats_stats.json").read_text())
        (cavity,) = cavities
        assert doc["eps_m"] == cavity.eps_m
        assert doc["v_mode_m3"] == cavity.mode_volume
        assert doc["g0_rad_s"] == cavity.g0

    @pytest.mark.parametrize("damage, message", [
        (None, "cannot load field grid"),
        ("components", "lacks key 'components'"),
        ("nan", "must be finite"),
    ])
    def test_bad_field_file_exits_2(self, tmp_path, capsys, damage, message):
        grid_path = tmp_path / "grid.json"
        if damage is not None:
            grid = pcqed.fieldgrid.synthesize_mode("cavity2d", 1e-3, 1e-3, (5, 5, 1), (2e-4, 2e-4, 1e-3))
            doc = json.loads(pcqed.fieldgrid.grid_to_json(grid, grid_path).read_text())
            if damage == "nan":
                doc["epsilon"][0] = math.nan
            else:
                del doc[damage]
            grid_path.write_text(json.dumps(doc))
        config = {"field": {"source": "file", "path": str(grid_path)}}
        path = write_config(tmp_path, "stats", config)
        assert run(["field-stats", "--config", path, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and str(grid_path) in err
        assert not (tmp_path / "out" / "stats_stats.json").exists()


class TestProfile:
    def test_bundled_trace_peaks(self, tmp_path):
        path = example_config_path("profile_generic")
        assert run(["profile", "--config", path, "--out", tmp_path]) == 0
        rows = csv_rows(tmp_path / "profile_generic_profile.csv")
        assert rows[0] == ["time_s", "coupling_a_rad_per_s", "coupling_b_rad_per_s"]
        data = np.array(rows[1:], dtype=float)
        # every float reads back bit-identical
        config = cli._load_config(str(path), "profile")
        profile = cli._profile_from_config(config)
        times = np.linspace(*profile.window, config["n_samples"])
        np.testing.assert_array_equal(data[:, 0], times)
        np.testing.assert_array_equal(data[:, 1], profile(times))
        # atom B's column is p times atom A's, bit for bit
        np.testing.assert_array_equal(data[:, 2], config["p"] * data[:, 1])
        # peaks up to the sampling stride of the exported trace
        assert float(np.max(np.abs(data[:, 1]))) == pytest.approx(OMEGA0_GENERIC, rel=0.01)
        assert float(np.max(np.abs(data[:, 2]))) == pytest.approx(0.414 * OMEGA0_GENERIC, rel=0.01)
        assert float(np.max(np.abs(data[:, 2]))) / float(np.max(np.abs(data[:, 1]))) == pytest.approx(0.414, rel=1e-9)


    def test_complex_trace_bytes(self, tmp_path, field3d_config):
        # header and atom A's columns recorded from the two-writer version of
        # the command; atom B's columns are p times atom A's, bit for bit
        config = {k: v for k, v in field3d_config.items() if k not in ("initial", "engine", "svg")}
        path = write_config(tmp_path, "f3", config)
        assert run(["profile", "--config", path, "--out", tmp_path]) == 0
        rows = csv_rows(tmp_path / "f3_profile.csv")
        data = np.array(rows[1:], dtype=float)
        np.testing.assert_array_equal(data[:, 3:], config["p"] * data[:, 1:3])
        lines = [",".join(row) for row in rows]
        assert len(lines) == 1 + config["n_samples"]
        assert lines[0] == (
            "time_s,coupling_a_re_rad_per_s,coupling_a_im_rad_per_s,"
            "coupling_b_re_rad_per_s,coupling_b_im_rad_per_s"
        )
        assert lines[1] == "0,-14495.017433131514,4607.1840440526548,-6000.9372173164465,1907.374194237799"
        assert lines[1000] == (
            "4.7247322946175644e-05,2864032.3319641049,-572.94148251914555,"
            "1185709.3854331393,-237.19777376292626"
        )

    def test_field_scenario_writes_one_row_per_trace_sample(self, tmp_path, field3d_config, monkeypatch):
        # without n_samples, the trace and the output grid share one default count
        config = {k: v for k, v in field3d_config.items()
                  if k not in ("initial", "engine", "svg", "n_samples")}
        traces = []
        sample = cli.coupling_trace_from_field

        def recording(*args, **kwargs):
            traces.append(sample(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(cli, "coupling_trace_from_field", recording)
        assert run(["profile", "--config", write_config(tmp_path, "f3", config), "--out", tmp_path]) == 0
        lines = (tmp_path / "f3_profile.csv").read_text().splitlines()
        assert len(lines) - 1 == traces[0].times.size


def _no_grid(*args, **kwargs):
    raise AssertionError("a grid was built for a config that must be refused")


class TestScenarioRules:
    """Keys a scenario needs that its command's schema cannot require.

    They are checked while the config loads, so each test runs with grid
    building patched to raise: a refused config builds nothing.
    """

    @pytest.mark.parametrize(
        "scenario, drop, missing",
        [
            ("generic", ("profile",), "'profile'"),
            ("field3d", ("field",), "'field'"),
            ("field3d", ("path",), "'path'"),
            ("field3d", ("omega_cav",), "'omega_cav'"),
            ("field3d", ("g0",), "'g0' or 'dipole_moment'"),
            ("field3d", ("path", "omega_cav"), "'path', 'omega_cav'"),
            ("field2d", ("field", "path", "omega_cav", "g0"),
             "'field', 'path', 'omega_cav', 'g0' or 'dipole_moment'"),
        ],
        ids=["generic-profile", "field3d-field", "field3d-path", "field3d-omega_cav", "field3d-g0",
             "field3d-path-omega_cav", "field2d-all"],
    )
    def test_missing_keys_exit_2(self, tmp_path, capsys, monkeypatch, field3d_config, scenario, drop,
                                 missing):
        monkeypatch.setattr(cli, "_build_grid", _no_grid)
        base = generic_config() if scenario == "generic" else {**field3d_config, "scenario": scenario}
        path = write_config(tmp_path, "cfg", {k: v for k, v in base.items() if k not in drop})
        assert run(["evolve", "--config", path, "--out", tmp_path]) == 2
        assert capsys.readouterr().err == f"config error: config {path}: {scenario} scenarios need {missing}\n"

    @pytest.mark.parametrize("command", ["evolve", "profile", "calibrate", "gate-report"])
    def test_every_scenario_command_checks(self, tmp_path, capsys, monkeypatch, field3d_config, command):
        monkeypatch.setattr(cli, "_build_grid", _no_grid)
        keys = cli.SCHEMAS[command]["properties"]
        config = {k: v for k, v in field3d_config.items() if k in keys and k != "g0"}
        if "target" in keys:
            config["target"] = "NOT"
        path = write_config(tmp_path, "cfg", config)
        assert run([command, "--config", path, "--out", tmp_path]) == 2
        assert capsys.readouterr().err == (
            f"config error: config {path}: field3d scenarios need 'g0' or 'dipole_moment'\n"
        )

    def test_zero_direction_exits_2_before_the_grid(self, tmp_path, capsys, monkeypatch, field3d_config):
        monkeypatch.setattr(cli, "_build_grid", _no_grid)
        config = {**field3d_config, "path": {**field3d_config["path"], "direction": [0.0, 0.0, 0.0]}}
        assert run(["evolve", "--config", write_config(tmp_path, "cfg", config), "--out", tmp_path]) == 2
        assert capsys.readouterr().err == "config error: direction must be a nonzero finite vector\n"


    @pytest.mark.parametrize("command", ["calibrate", "gate-report"])
    @pytest.mark.parametrize(
        "edit, refusal",
        [
            ({"target": "NOT"}, "target NOT needs coupling ratio p = 1.00000 (+/- 0.005), got 0.414"),
            ({"target": "IDENTITY"}, "no calibration condition for target 'IDENTITY'"),
            ({"target": "ENTANGLER_HADAMARD", "v_bounds": [650.0, 150.0]},
             "invalid velocity bounds (650.0, 150.0)"),
        ],
        ids=["ratio", "no-condition", "unordered-bounds"],
    )
    def test_calibration_refusals_exit_2_before_the_grid(self, tmp_path, capsys, monkeypatch,
                                                         field3d_config, command, edit, refusal):
        monkeypatch.setattr(cli, "_build_grid", _no_grid)
        keys = cli.SCHEMAS[command]["properties"]
        config = {**{k: v for k, v in field3d_config.items() if k in keys}, **edit}
        path = write_config(tmp_path, "cfg", config)
        assert run([command, "--config", path, "--out", tmp_path]) == 2
        assert capsys.readouterr().err == f"config error: config {path}: {refusal}\n"

    def test_gate_report_at_a_given_velocity_calibrates_nothing(self, tmp_path):
        # the ratio and bounds are calibration's; a report at a stated velocity needs neither
        config = generic_config(target="NOT", v_bounds=[650.0, 150.0], velocity=433.0,
                                omega_cav=2.4e15, engine="analytic")
        del config["initial"]
        path = write_config(tmp_path, "cfg", config)
        assert run(["gate-report", "--config", path, "--out", tmp_path]) == 0


class TestSweepCommand:
    def test_small_sweep_with_svg(self, tmp_path):
        config = {
            "family": {
                "omega0": OMEGA0_GENERIC,
                "path_half_length": 10 * LATTICE_GENERIC,
                "defect_radius": LATTICE_GENERIC,
                "lattice_const": LATTICE_GENERIC,
                "zeta": 0.0,
            },
            "v_range": [420.0, 460.0],
            "p_range": [0.3, 0.5],
            "resolution": [9, 11],
            "initial": "100",
            "svg": True,
        }
        path = write_config(tmp_path, "cfg", config)
        assert run(["sweep", "--config", path, "--out", tmp_path]) == 0
        lines = (tmp_path / "cfg_a.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "v_m_per_s"
        assert len(lines) == 10
        assert (tmp_path / "cfg_a.svg").read_text().startswith("<svg")


class TestGateReport:
    def test_bundled_swap_report(self, tmp_path):
        code = run(["gate-report", "--config", example_config_path("gate_report_swap_generic"), "--out", tmp_path])
        assert code == 0
        doc = json.loads((tmp_path / "gate_report_swap_generic_report.json").read_text())
        assert doc["classified_label"] == "SWAP"
        assert doc["fidelities"]["10"] >= 0.99
        assert doc["fidelities"]["01"] >= 0.99
        assert doc["fidelities"]["00"] == 1.0
        assert doc["fidelities"]["11"] == pytest.approx(
            ((2 + math.cos(math.sqrt(3) * math.pi)) / 3) ** 2, abs=1e-6
        )
        assert doc["lifetime_margin"] > 1.0

    @pytest.mark.parametrize("engine", ["analytic", "ode"])
    def test_non_finite_pulse_area_exits_2(self, tmp_path, capsys, monkeypatch, engine):
        # at 1e-300 m/s the area overflows; without the refusal the ODE would
        # crawl, so the test refuses to integrate.  truth_table refuses it
        # before either engine runs.
        def refuse(*args, **kwargs):
            raise AssertionError("the ODE ran")

        monkeypatch.setattr(pcqed.gates, "final_states", refuse)
        config = json.loads(example_config_path("gate_report_swap_generic").read_text())
        path = write_config(tmp_path, "crawl", {**config, "velocity": 1e-300, "engine": engine})
        assert run(["gate-report", "--config", path, "--out", tmp_path]) == 2
        assert "pulse areas must be finite" in capsys.readouterr().err

    def test_bundled_entangler_report(self, tmp_path):
        code = run(["gate-report", "--config", example_config_path("gate_report_entangler_generic"), "--out", tmp_path])
        assert code == 0
        doc = json.loads((tmp_path / "gate_report_entangler_generic_report.json").read_text())
        assert doc["classified_label"] == "ENTANGLER_HADAMARD"
        assert doc["global_phase"] == pytest.approx(math.pi, abs=0.05)

    def test_field_scenario_report(self, tmp_path):
        # synthesized 2D mode: calibrate on the sampled trace, then verify
        box = 12.625 * 2.202e-3
        config = {
            "scenario": "field2d",
            "field": {
                "source": "synthesize",
                "kind": "cavity2d",
                "lattice_const": 2.202e-3,
                "decay_radius": 2.202e-3,
                "dims": [101, 101, 1],
                "spacing": [box / 101, box / 101, 2.202e-3],
            },
            "path": {
                "entry": [-0.45 * box, 0.0, 0.0],
                "direction": [1.0, 0.0, 0.0],
                "length": 0.9 * box,
                "velocity": 374.0,
                "zeta": 0.0,
            },
            "g0": 2.765e6,
            "omega_cav": 2 * math.pi * 299792458.0 / 5.9e-3,
            "effective_height": 2.202e-3,
            "p": 1.0,
            "target": "NOT",
            "v_bounds": [150.0, 650.0],
            "engine": "ode",
        }
        path = write_config(tmp_path, "field_not", config)
        assert run(["gate-report", "--config", path, "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "field_not_report.json").read_text())
        assert doc["classified_label"] == "NOT"
        assert doc["fidelities"]["10"] >= 0.99
        assert 150.0 <= doc["velocity"] <= 650.0


# Command of each bundled config, by file-name prefix; the first match wins.
COMMAND_BY_PREFIX = (
    ("calibrate_", "calibrate"),
    ("gate_report_", "gate-report"),
    ("profile_", "profile"),
    ("sweep_", "sweep"),
    ("field", "field-stats"),
    ("", "evolve"),
)
BUNDLED = sorted((Path(pcqed.__file__).parent / "configs").glob("*.json"))


def command_of(config: Path) -> str:
    return next(c for prefix, c in COMMAND_BY_PREFIX if config.stem.startswith(prefix))


@pytest.mark.parametrize("config", BUNDLED, ids=lambda path: path.stem)
def test_bundled_config_runs(config, tmp_path, monkeypatch, capsys):
    # Two runs from two directories into the same relative --out: every
    # written file and stdout match byte for byte, and stdout names each file.
    command = command_of(config)
    runs = []
    for name in ("a", "b"):
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        assert run([command, "--config", config, "--out", "out"]) == 0
        written = {str(p.relative_to(work)): p.read_bytes() for p in work.rglob("*") if p.is_file()}
        runs.append((capsys.readouterr().out, written))
    stdout, written = runs[0]
    assert written
    assert set(written) <= set(stdout.splitlines())
    assert runs[1] == runs[0]


@pytest.mark.parametrize("command, stem", [
    ("sweep", "sweep_default"),
    ("calibrate", "calibrate_entangler_generic"),
    ("profile", "profile_generic"),
    ("field-stats", "field2d_stats"),
    ("gate-report", "gate_report_entangler_generic"),
])
def test_format_flag_is_evolve_only(command, stem, tmp_path):
    with pytest.raises(SystemExit) as exit_:
        run([command, "--config", example_config_path(stem), "--out", tmp_path, "--format", "json"])
    assert exit_.value.code == 2


@pytest.mark.parametrize("command", ["evolve", "gate-report"])
def test_removed_use_magnitude_key_is_rejected(command, tmp_path):
    config = generic_config(use_magnitude=True)
    if command == "gate-report":
        del config["initial"], config["engine"]
        config.update(target="ENTANGLER_HADAMARD", omega_cav=2.4e15)
    assert run([command, "--config", write_config(tmp_path, "cfg", config), "--out", tmp_path]) == 2


# Each size key's maximum: the command, a bundled config that carries the key,
# the key's path in the config, and the bound.
SIZE_BOUNDS = [
    pytest.param("evolve", "entangler_generic", ("n_points",), 1_000_000, id="evolve-n_points"),
    pytest.param("evolve", "evolve_field3d", ("n_samples",), 1_000_000, id="evolve-n_samples"),
    pytest.param("profile", "profile_generic", ("n_samples",), 1_000_000, id="profile-n_samples"),
    pytest.param("sweep", "sweep_default", ("resolution",), 5001, id="sweep-resolution"),
    pytest.param("field-stats", "field2d_stats", ("field", "dims"), 401, id="field-dims"),
]


def bundled_with(stem, key, value):
    """A bundled config with the size at ``key`` set to ``value`` (on every axis of a list)."""
    config = json.loads(example_config_path(stem).read_text())
    *parents, leaf = key
    block = config
    for name in parents:
        block = block[name]
    block[leaf] = [value] * len(block[leaf]) if isinstance(block.get(leaf), list) else value
    return config


@pytest.mark.parametrize("command, stem, key, bound", SIZE_BOUNDS)
def test_size_maximum_is_exact(command, stem, key, bound):
    jsonschema.validate(bundled_with(stem, key, bound), cli.SCHEMAS[command])
    with pytest.raises(jsonschema.ValidationError, match="maximum"):
        jsonschema.validate(bundled_with(stem, key, bound + 1), cli.SCHEMAS[command])


@pytest.mark.parametrize("command, stem, key, bound", SIZE_BOUNDS)
def test_oversize_config_rejected_by_schema(command, stem, key, bound, tmp_path, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("an oversize config passed validation")

    # Nothing past validation may run, so a missing bound fails here instead of allocating.
    for builder in ("_profile_from_config", "_build_grid", "surface"):
        monkeypatch.setattr(cli, builder, unreachable)
    path = write_config(tmp_path, stem, bundled_with(stem, key, 10**9))
    assert run([command, "--config", path, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert f"invalid at {'/'.join(key)}" in err
    assert "greater than the maximum" in err


# Each ODE tolerance's floor, and a bundled config of each command that reads it.
TOLERANCE_FLOORS = [pytest.param("rtol", pcqed.ode.MIN_RTOL, id="rtol"),
                    pytest.param("atol", pcqed.ode.MIN_ATOL, id="atol")]
ODE_COMMANDS = [pytest.param("evolve", "entangler_generic", id="evolve"),
                pytest.param("gate-report", "gate_report_swap_generic", id="gate-report")]


@pytest.mark.parametrize("command, stem", ODE_COMMANDS)
@pytest.mark.parametrize("key, floor", TOLERANCE_FLOORS)
def test_tolerance_minimum_is_exact(command, stem, key, floor):
    config = json.loads(example_config_path(stem).read_text())
    config["ode"] = {key: floor}
    jsonschema.validate(config, cli.SCHEMAS[command])
    config["ode"] = {key: math.nextafter(floor, 0.0)}
    with pytest.raises(jsonschema.ValidationError, match="minimum"):
        jsonschema.validate(config, cli.SCHEMAS[command])


@pytest.mark.parametrize("command, stem", ODE_COMMANDS)
@pytest.mark.parametrize("key, value", [("rtol", 1e-30), ("atol", 1e-300)])
def test_tolerance_below_its_floor_exits_2(command, stem, key, value, tmp_path, monkeypatch,
                                           capsys):
    # rtol 1e-30 crawled for minutes and atol 1e-300 divided by zero in the
    # solver's first step; both are refused before anything runs.
    def unreachable(*args, **kwargs):
        raise AssertionError("a tolerance below its floor passed validation")

    monkeypatch.setattr(cli, "_profile_from_config", unreachable)
    config = json.loads(example_config_path(stem).read_text())
    config.setdefault("engine", "ode")
    config["ode"] = {key: value}
    assert run([command, "--config", write_config(tmp_path, stem, config), "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert f"invalid at ode/{key}" in err
    assert "less than the minimum" in err


def _cross_engine_cases():
    """Every bundled evolve config that runs both engines, and the field3d transit at p < 0."""
    configs = {c.stem: json.loads(c.read_text()) for c in BUNDLED}
    cases = [pytest.param(stem, config, id=stem) for stem, config in configs.items()
             if config.get("engine") == "both"]
    negative_p = {**configs["evolve_field3d"], "p": -0.414, "engine": "both"}
    return cases + [pytest.param("evolve_field3d_negative_p", negative_p, id="evolve_field3d_negative_p")]


@pytest.mark.parametrize("stem, config", _cross_engine_cases())
def test_engines_agree(stem, config, tmp_path):
    path = write_config(tmp_path, stem, config)
    assert run(["evolve", "--config", path, "--out", tmp_path]) == 0
    analytic, ode = (
        np.loadtxt(tmp_path / f"{stem}_{engine}.csv", delimiter=",", skiprows=1)[:, 4:]
        for engine in ("analytic", "ode")
    )
    assert np.max(np.abs(analytic - ode)) <= 1e-6


def _default(function, name):
    return inspect.signature(function).parameters[name].default


# Every command's required keys, and the library default each optional key must resolve to.
_GENERIC = {k: v for k, v in generic_config().items() if k in ("scenario", "profile", "p")}
_FAMILY = {k: v for k, v in _GENERIC["profile"].items() if k != "velocity"}
_RESOLVED_DEFAULTS = [
    pytest.param(
        "evolve",
        {**_GENERIC, "initial": "100"},
        {
            "engine": "both",
            "ode": {"rtol": _default(pcqed.ode.evolve, "rtol"), "atol": _default(pcqed.ode.evolve, "atol")},
            "n_points": _default(pcqed.ode.evolve, "n_points"),
            "n_samples": _default(pcqed.fieldgrid.coupling_trace_from_field, "n_samples"),
        },
        id="evolve",
    ),
    pytest.param(
        "profile",
        _GENERIC,
        {"n_samples": _default(pcqed.fieldgrid.coupling_trace_from_field, "n_samples")},
        id="profile",
    ),
    pytest.param(
        "calibrate",
        {**_GENERIC, "target": "ENTANGLER_HADAMARD"},
        {"v_bounds": _default(pcqed.gates.calibrate_velocity, "v_bounds")},
        id="calibrate",
    ),
    pytest.param(
        "gate-report",
        {**_GENERIC, "target": "ENTANGLER_HADAMARD", "omega_cav": 2.4e15},
        {
            "v_bounds": _default(pcqed.gates.calibrate_velocity, "v_bounds"),
            "q_factor": _default(pcqed.gates.GateSettings, "q_factor"),
            "engine": "ode",
            "ode": {"rtol": _default(pcqed.gates.GateSettings, "rtol"),
                    "atol": _default(pcqed.gates.GateSettings, "atol")},
        },
        id="gate-report",
    ),
    pytest.param(
        "field-stats",
        {"field": json.loads(example_config_path("field3d_stats").read_text())["field"]},
        {},
        id="field-stats",
    ),
    pytest.param(
        "sweep",
        {"family": _FAMILY},
        {name: _default(pcqed.sweep.surface, name) for name in ("v_range", "p_range", "initial", "resolution")},
        id="sweep",
    ),
]
# Optional keys without a library default: blocks, physical inputs, plot switches and labels.
_NO_LIBRARY_DEFAULT = {"description", "svg", "profile", "field", "path", "g0", "dipole_moment",
                       "omega_cav", "effective_height", "plane_index", "velocity"}


@pytest.mark.parametrize("command, minimal, defaults", _RESOLVED_DEFAULTS)
def test_load_config_resolves_library_defaults(command, minimal, defaults, tmp_path):
    schema = cli.SCHEMAS[command]
    assert set(schema["required"]) <= set(minimal) <= set(schema["required"]) | {"profile"}
    optional = set(schema["properties"]) - set(schema["required"]) - _NO_LIBRARY_DEFAULT
    assert optional <= set(defaults)
    resolved = cli._load_config(str(write_config(tmp_path, command, minimal)), command)
    assert {k: resolved[k] for k in minimal} == minimal
    for key, value in defaults.items():
        assert resolved[key] == value, key


def test_ode_block_resolves_key_by_key(tmp_path):
    config = {**_GENERIC, "initial": "100", "ode": {"rtol": 1e-10}}
    resolved = cli._load_config(str(write_config(tmp_path, "cfg", config)), "evolve")
    assert resolved["ode"] == {"rtol": 1e-10, "atol": _default(pcqed.ode.evolve, "atol")}


def _refuses(build, *args) -> bool:
    try:
        build(*args)
    except (jsonschema.ValidationError, TypeError, ValueError):
        return True
    return False


# The block's parameters as the library takes them: a profile as GenericProfileParams
# does, a sweep family as the sweep does, with the velocity each grid cell sets.
@pytest.mark.parametrize("command, stem, block, params", [
    pytest.param("calibrate", "calibrate_not_generic", "profile",
                 lambda block: GenericProfileParams(**block), id="profile"),
    pytest.param("sweep", "sweep_default", "family", cli._generic_params, id="family"),
])
@pytest.mark.parametrize("key", [field.name for field in dataclasses.fields(GenericProfileParams)])
def test_profile_schema_agrees_with_generic_profile_params(command, stem, block, params, key):
    # each value, and the key's absence: the schema refuses exactly what the library does
    config = json.loads(example_config_path(stem).read_text())
    others = {k: v for k, v in config[block].items() if k != key}
    for edited in ({**others, key: 0.0}, {**others, key: -1.0}, others):
        assert (_refuses(jsonschema.validate, {**config, block: edited}, cli.SCHEMAS[command])
                == _refuses(params, edited)), edited


def test_sweep_family_takes_no_velocity():
    config = json.loads(example_config_path("sweep_default").read_text())
    config["family"]["velocity"] = 433.0
    with pytest.raises(jsonschema.ValidationError, match="'velocity' was unexpected"):
        jsonschema.validate(config, cli.SCHEMAS["sweep"])


def literal_config(tmp_path, stem, key, literal):
    """The bundled config ``stem`` written with the raw text ``literal`` as
    the number at ``key``, a literal json.dump may not write."""
    config = json.loads(example_config_path(stem).read_text())
    *parents, leaf = key
    block = config
    for name in parents:
        block = block.setdefault(name, {})
    marker = 271828.125
    block[leaf] = marker
    text = json.dumps(config)
    assert text.count(repr(marker)) == 1
    path = tmp_path / f"{stem}.json"
    path.write_text(text.replace(repr(marker), literal))
    return path


_LONG = "1" + "0" * 400


@pytest.mark.parametrize("command, stem, key, literal, message", [
    ("calibrate", "calibrate_not_generic", ("p",), "NaN", "NaN is not a number"),
    ("calibrate", "calibrate_not_generic", ("p",), "Infinity", "Infinity is not a number"),
    ("calibrate", "calibrate_not_generic", ("p",), "-Infinity", "-Infinity is not a number"),
    ("evolve", "entangler_generic", ("ode", "atol"), "1e400", "1e400 is not a finite double"),
    ("evolve", "entangler_generic", ("ode", "rtol"), "1e400", "1e400 is not a finite double"),
    ("calibrate", "calibrate_not_generic", ("profile", "omega0"), _LONG,
     f"{_LONG[:24]}... is not a finite double"),
], ids=["NaN", "Infinity", "-Infinity", "atol-1e400", "rtol-1e400", "omega0-401-digits"])
def test_non_finite_literal_exits_2(command, stem, key, literal, message, tmp_path, monkeypatch,
                                    capsys):
    # Python's json reads these, and JSON Schema takes them for numbers: a NaN
    # ratio passed calibration's tolerance test and blamed a finite pulse
    # area; an ODE atol of 1e400 (inf) wrote probabilities summing to 1.45e18
    # (exit 0), an rtol of 1e400 failed as a convergence failure (exit 3), and
    # a 401-digit integer omega0 raised an uncaught OverflowError (exit 1).
    def unreachable(*args, **kwargs):
        raise AssertionError("a non-finite literal passed validation")

    monkeypatch.setattr(cli, "_profile_from_config", unreachable)
    path = literal_config(tmp_path, stem, key, literal)
    assert run([command, "--config", path, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


def test_underflowing_literal_reads_as_zero(tmp_path):
    path = literal_config(tmp_path, "calibrate_not_generic", ("profile", "zeta"), "1e-400")
    assert cli._load_config(str(path), "calibrate")["profile"]["zeta"] == 0.0


def test_overflowing_drive_exits_3(tmp_path, capsys):
    # f at t0 over the error scale overflows the first step's norm, which then
    # divided by zero.  At as fast a transit the pulse area stays small, so
    # the bound on it lets the run start.
    config = generic_config(engine="ode")
    config["profile"]["omega0"] = config["profile"]["velocity"] = 1e160
    path = write_config(tmp_path, "cfg", config)
    assert run(["evolve", "--config", path, "--out", tmp_path]) == 3
    assert "is not finite" in capsys.readouterr().err


def test_failed_ode_run_writes_no_analytic_file(tmp_path):
    # engine both computes the ODE's trajectory before it writes any file
    config = generic_config(engine="both")
    config["profile"]["omega0"] = config["profile"]["velocity"] = 1e160
    path = write_config(tmp_path, "cfg", config)
    out = tmp_path / "out"
    assert run(["evolve", "--config", path, "--out", out]) == 3
    assert not (out / "cfg_analytic.csv").exists()


def no_step(solver):
    raise AssertionError("the ODE took a step")


class TestAreaBound:
    """The ODE engine's work is bounded by the absolute pulse area (ode.MAX_AREA)."""

    @pytest.mark.parametrize("edit", [
        {"velocity": 0.0433},  # 433 m/s typed 1e4x too small: ~30 s of ODE
        {"defect_radius": 1000 * LATTICE_GENERIC, "path_half_length": 1e4 * LATTICE_GENERIC},
    ], ids=["velocity-typo", "wide-cavity"])
    def test_generic_ode_run_exits_2_before_any_step(self, edit, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(pcqed.dop853.DOP853, "step", no_step)
        config = json.loads(example_config_path("entangler_generic").read_text())
        config["profile"].update(edit)
        for engine in ("ode", "both"):
            path = write_config(tmp_path, "crawl", {**config, "engine": engine})
            out = tmp_path / engine
            assert run(["evolve", "--config", path, "--out", out]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and "MAX_AREA" in err
            assert list(out.iterdir()) == []

    def test_gate_report_at_a_slow_velocity_exits_2_before_any_step(self, tmp_path, monkeypatch,
                                                                    capsys):
        monkeypatch.setattr(pcqed.dop853.DOP853, "step", no_step)
        config = json.loads(example_config_path("gate_report_swap_generic").read_text())
        path = write_config(tmp_path, "crawl", {**config, "velocity": 0.0433, "engine": "ode"})
        out = tmp_path / "out"
        assert run(["gate-report", "--config", path, "--out", out]) == 2
        assert "MAX_AREA" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_analytic_engine_and_calibration_are_unbounded(self, tmp_path):
        # the closed form's cost does not grow with the area
        config = json.loads(example_config_path("entangler_generic").read_text())
        config["profile"]["velocity"] = 0.0433
        path = write_config(tmp_path, "slow", {**config, "engine": "analytic"})
        assert run(["evolve", "--config", path, "--out", tmp_path]) == 0
        config = json.loads(example_config_path("calibrate_not_generic").read_text())
        config["profile"]["velocity"] = 0.0433
        path = write_config(tmp_path, "slow", config)
        assert run(["calibrate", "--config", path, "--out", tmp_path]) == 0

    def test_trace_run_exits_2_before_any_step(self, tmp_path, monkeypatch, capsys):
        # a trace's area is known once it is sampled: 353 m/s typed as 1 m/s
        monkeypatch.setattr(pcqed.dop853.DOP853, "step", no_step)
        config = json.loads(example_config_path("evolve_field3d").read_text())
        config["path"]["velocity"] = 1.0
        for engine in ("ode", "both"):
            path = write_config(tmp_path, "slow", {**config, "engine": engine})
            out = tmp_path / engine
            assert run(["evolve", "--config", path, "--out", out]) == 2
            assert "MAX_AREA" in capsys.readouterr().err
            assert list(out.iterdir()) == []


class TestClosedFormLimit:
    """The closed form refuses a total area past analytic.MAX_LAMBDA, whose
    square would overflow: exit 2, no file written and no warning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, stem, edit, profile_edit", [
        ("evolve", "entangler_generic", {"engine": "analytic"}, {"omega0": 1e170}),
        ("sweep", "sweep_default", {"v_range": [1e-300, 2e-300], "resolution": [3, 3]}, {}),
        ("gate-report", "gate_report_entangler_generic", {"velocity": 433.0}, {"omega0": 1e170}),
    ], ids=["evolve", "sweep", "gate-report"])
    def test_area_past_the_limit_exits_2(self, command, stem, edit, profile_edit, tmp_path, capsys):
        config = {**json.loads(example_config_path(stem).read_text()), **edit}
        config.get("profile", {}).update(profile_edit)
        out = tmp_path / "out"
        assert run([command, "--config", write_config(tmp_path, stem, config), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: total pulse area") and "closed form's limit" in err
        assert list(out.iterdir()) == []


class TestOutDirectory:
    """An --out that cannot be created or written into exits 2 with one line naming the path."""

    def test_existing_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "F"
        target.write_text("")
        config = example_config_path("calibrate_not_generic")
        assert run(["calibrate", "--config", config, "--out", target]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(target) in err
        assert target.read_text() == ""

    def test_unwritable_output_file_exits_2(self, tmp_path, capsys):
        # a directory where the calibration file goes
        blocked = tmp_path / "out" / "calibrate_not_generic_calibration.json"
        blocked.mkdir(parents=True)
        config = example_config_path("calibrate_not_generic")
        assert run(["calibrate", "--config", config, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(blocked) in err


@pytest.mark.parametrize("command, stem", [("field-stats", "field3d_stats"),
                                           ("evolve", "evolve_field3d")])
def test_grid_over_the_cell_budget_exits_2(command, stem, tmp_path, monkeypatch, capsys):
    # Every axis within the schema's 401, together ~6.4 GiB of synthesis.
    # Nothing past the check may run, so a missing budget fails here instead
    # of allocating.
    def unreachable(*args, **kwargs):
        raise AssertionError("a grid over the cell budget passed the check")

    monkeypatch.setattr(pcqed.fieldgrid, "_triangular_rod_epsilon", unreachable)
    path = write_config(tmp_path, stem, bundled_with(stem, ("field", "dims"), 401))
    assert run([command, "--config", path, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: dims (401, 401, 401)")
    assert f"more than the {pcqed.fieldgrid.MAX_CELLS}" in err
