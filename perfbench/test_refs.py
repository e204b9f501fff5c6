"""Tests of the benchmark's own references against cases known in closed form.

Run from the repository root: python3 -m pytest -q perfbench/test_refs.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import refs
import run

FAMILY = dict(omega0=1.1e10, half_length=6.3e-6, defect_radius=6.3e-7,
              lattice_const=6.3e-7, velocity=433.0, zeta=0.3)


def trapezoid(y, x):
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


class TestGenericArea:
    def test_whole_periods_closed_form(self):
        # With L = n l the oscillation ends at a node: Re[(1 - e^{-alpha L})/alpha]
        # reduces to (1/R)(1 - (-1)^n e^{-L/R}) / (1/R^2 + pi^2/l^2).
        r, l, n = 5e-7, 6e-7, 7
        area = refs.generic_area(2.0, n * l, r, l, 1.0)
        expected = 2 * 2.0 * (1 / r) * (1 - (-1) ** n * math.exp(-n * l / r)) / (1 / r**2 + math.pi**2 / l**2)
        assert area == pytest.approx(expected, rel=1e-13)

    def test_matches_dense_quadrature(self):
        t = np.linspace(0.0, 2 * FAMILY["half_length"] / FAMILY["velocity"], 2_000_001)
        dense = trapezoid(refs.generic_profile(t, **FAMILY), t)
        assert refs.generic_area(**FAMILY) == pytest.approx(dense, rel=1e-9)

    def test_area_scales_as_inverse_velocity(self):
        slow = refs.generic_area(**{**FAMILY, "velocity": 200.0})
        assert slow * 200.0 == pytest.approx(refs.generic_area(**FAMILY) * 433.0, rel=1e-14)

    def test_running_area_endpoints_and_symmetry(self):
        t1 = 2 * FAMILY["half_length"] / FAMILY["velocity"]
        running = refs.generic_running_area([0.0, 0.5 * t1, t1], **FAMILY)
        full = refs.generic_area(**FAMILY)
        assert running[0] == pytest.approx(0.0, abs=1e-12 * abs(full))
        assert running[1] == pytest.approx(0.5 * full, rel=1e-12)
        assert running[2] == pytest.approx(full, rel=1e-12)

    def test_running_area_differentiates_to_the_profile(self):
        t1 = 2 * FAMILY["half_length"] / FAMILY["velocity"]
        t = np.linspace(0.05 * t1, 0.95 * t1, 7)
        h = 1e-6 * t1
        slope = (refs.generic_running_area(t + h, **FAMILY)
                 - refs.generic_running_area(t - h, **FAMILY)) / (2 * h)
        profile = refs.generic_profile(t, **FAMILY)
        assert np.allclose(slope, profile, rtol=1e-5, atol=1e-7 * FAMILY["omega0"])


class TestPropagators:
    @pytest.mark.parametrize("p", [0.0, math.sqrt(2) - 1, 0.7, 1.0])
    def test_single_excitation_closed_form(self, p):
        # |100> -> (1 + (cos L - 1)/(1+p^2), p (cos L - 1)/(1+p^2), -i sin L / sqrt(1+p^2))
        # with L = A sqrt(1+p^2).
        areas = np.array([0.3, 1.7, 4.0])
        lam = areas * math.hypot(1.0, p)
        expected = np.stack([
            1 + (np.cos(lam) - 1) / (1 + p**2),
            p * (np.cos(lam) - 1) / (1 + p**2),
            -1j * np.sin(lam) / math.hypot(1.0, p),
        ], axis=1)
        assert np.allclose(refs.states(areas, p, "100"), expected, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p", [0.0, 0.41, 1.0])
    def test_matches_scipy_expm(self, n, p):
        areas = np.array([0.0, 0.7, 3.1, 9.0])
        k = refs.coupling_matrix(p, n)
        expected = np.array([expm(-1j * a * k) for a in areas])
        assert np.allclose(refs.propagators(areas, p, n), expected, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2])
    def test_unitary(self, n):
        u = refs.propagators([0.9, 2.5], 0.6, n)
        eye = np.eye(u.shape[1])
        for block in u:
            assert np.allclose(block.conj().T @ block, eye, atol=1e-13)

    def test_double_excitation_return_at_equal_couplings(self):
        # With p = 1, |110> couples to (|101> + |011>)/sqrt(2) by sqrt(2), which
        # couples to |002> by 2: <110|U|110> = 2/3 + cos(sqrt(6) A)/3.
        area = math.pi / math.sqrt(2)  # single-excitation SWAP condition
        amp = refs.states([area], 1.0, "110")[0, 0]
        assert amp == pytest.approx(2 / 3 + math.cos(math.sqrt(6) * area) / 3, abs=1e-14)
        assert abs(amp) ** 2 == pytest.approx(0.7898, abs=1e-4)

    @pytest.mark.parametrize("label", ["ENTANGLER_HADAMARD", "NOT", "Z", "SWAP"])
    def test_gates_are_exact_at_their_conditions(self, label):
        p = refs.REQUIRED_P[label]
        ref = refs.gate_reference(math.pi / math.hypot(1.0, p), p, label)
        for rail in ("10", "01"):
            assert ref["fidelities"][rail] == pytest.approx(1.0, abs=1e-13)
            assert ref["residual"][rail] == pytest.approx(0.0, abs=1e-13)
            assert ref["relative_phases"][rail] == pytest.approx(0.0, abs=1e-7)


class TestInterpolantArea:
    def test_constant(self):
        t = np.array([0.0, 1.0, 3.0])
        area = refs.interpolant_running_area(t, np.full(3, 2.0 - 1.0j), [0.5, 3.0])
        assert np.allclose(area, [0.5 * math.sqrt(5), 3 * math.sqrt(5)], rtol=1e-14)

    def test_real_zero_crossing(self):
        # |2t - 1| on [0, 1]
        area = refs.interpolant_running_area([0.0, 1.0], [-1.0, 1.0], [0.25, 0.5, 1.0])
        assert np.allclose(area, [0.1875, 0.25, 0.5], rtol=1e-14)

    def test_complex_segment(self):
        # |i + t| = sqrt(1 + t^2)
        area = refs.interpolant_running_area([0.0, 1.0], [1j, 1.0 + 1j], [1.0])
        assert area[0] == pytest.approx(0.5 * (math.sqrt(2) + math.asinh(1.0)), rel=1e-14)

    def test_nearly_constant_segment_does_not_cancel(self):
        # d/z0 = 1e-9: the antiderivative terms are ~1e18 times the result.
        z0, d = 1e6 + 2e6j, 1e-3 * (1 - 1j)
        area = refs.interpolant_running_area([0.0, 1.0], [z0, z0 + d], [1.0])
        mid = abs(z0 + 0.5 * d)
        assert area[0] == pytest.approx(mid, rel=1e-15)

    def test_converges_with_dense_sampling(self):
        rng = np.random.default_rng(3)
        t = np.cumsum(rng.uniform(0.5, 1.5, 60))
        v = rng.normal(size=60) + 1j * rng.normal(size=60)
        out = np.linspace(t[0], t[-1], 37)
        exact = refs.interpolant_running_area(t, v, out)
        coarse = np.max(np.abs(refs.dense_running_area(t, v, out, 256) - exact))
        fine = np.max(np.abs(refs.dense_running_area(t, v, out, 1024) - exact))
        assert 12 < coarse / fine < 20  # the trapezoid rule's h^2
        assert fine < 1e-6 * exact[-1]


class TestGridReferences:
    def axes(self):
        return refs.cell_centres((-1.0, -2.0, -0.5), (0.5, 0.25, 1.0), (5, 9, 1))

    def test_multilinear_reproduces_linear_fields(self):
        ax = self.axes()
        x, y, _ = np.meshgrid(*ax, indexing="ij")
        field = (1.0 + 2j) + 3.0 * x - 1j * y
        pts = np.array([[-0.6, -1.3, 0.0], [0.7, 0.1, 0.2], [-0.2, 0.0, -0.3]])
        expected = (1.0 + 2j) + 3.0 * pts[:, 0] - 1j * pts[:, 1]
        assert np.allclose(refs.multilinear(ax, field, pts), expected, atol=1e-14)

    def test_multilinear_clamps_to_the_centre_hull(self):
        ax = self.axes()
        x, _, _ = np.meshgrid(*ax, indexing="ij")
        out = refs.multilinear(ax, x.astype(complex), np.array([[-5.0, 0.0, 0.0]]))
        assert out[0] == pytest.approx(ax[0][0])

    def test_mode_volume_of_a_uniform_field(self):
        eps, field = np.full((3, 4, 5), 2.0), np.ones((3, 4, 5), dtype=complex)
        assert refs.mode_volume(eps, field, 0.1) == pytest.approx(60 * 0.1, rel=1e-15)

    def test_mode_volume_counts_weight_relative_to_the_peak(self):
        eps = np.ones((2, 1, 1))
        field = np.array([1.0, 0.5]).reshape(2, 1, 1).astype(complex)
        assert refs.mode_volume(eps, field, 1.0) == pytest.approx(1.25, rel=1e-15)

    def test_polarization_fraction(self):
        field = np.zeros((2, 2, 3, 3), dtype=complex)
        field[..., 2] = 1j
        field[..., 0] = 1.0
        assert refs.polarization_fraction(field, 1) == pytest.approx(0.5, rel=1e-15)

    def test_peak_cell_takes_the_first_maximum(self):
        eps = np.ones((2, 2, 1))
        field = np.ones((2, 2, 1), dtype=complex)
        assert refs.peak_cell(eps, field) == (0, 0, 0)

    def test_g0_inverts_to_the_mode_volume(self):
        g = refs.g0(2e-26, 3.2e11, 12.0, 1e-8)
        v = (2e-26) ** 2 * 3.2e11 / (2 * refs.HBAR * refs.EPS0 * 12.0 * g**2)
        assert v == pytest.approx(1e-8, rel=1e-13)


def test_importtime_cost_takes_outermost_modules():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     attrs",
        "import time:        20 |         30 |   jsonschema._types",
        "import time:        40 |         70 | jsonschema",
        "import time:         5 |          5 | json",
        "import time:       100 |        100 |   scipy._lib",
        "import time:        50 |        150 | scipy",
        "import time:        60 |         60 |   scipy.linalg._x",
        "import time:        20 |         80 | scipy.linalg",
    ])
    assert run.importtime_cost(report, "jsonschema") == pytest.approx(70e-6)
    assert run.importtime_cost(report, "scipy") == pytest.approx(230e-6)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == run.PER_LAYER_UNITS
