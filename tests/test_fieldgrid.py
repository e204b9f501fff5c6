import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import RegularGridInterpolator

from pcqed.core import CavityParams
from pcqed.coupling import drive_from_profile, pulse_area
from pcqed.fieldgrid import (
    FieldGrid,
    PathSpec,
    coupling_trace_from_field,
    grid_from_json,
    grid_to_json,
    mode_volume,
    peak_energy_point,
    polarization_fraction,
    synthesize_mode,
)
from pcqed import fieldgrid

from conftest import LATTICE_2D, LATTICE_3D, OMEGA_MM
from oracles import example_config_path, mp_rod_epsilon, rod_loop_epsilon

G0_2D = 2.765e6  # rad/s, calibration input for the 2D scenario


def make_grid(epsilon, field, spacing, origin, **kw):
    return FieldGrid(spacing=spacing, origin=origin, epsilon=epsilon, field=field, **kw)


def square_grid_2d(n, box, lattice=LATTICE_2D, decay=LATTICE_2D):
    h = box / n
    return synthesize_mode("cavity2d", lattice, decay, (n, n, 1), (h, h, lattice))


def cavity3d_grid(n=41, nz=21, box_factor=10.5, lattice=LATTICE_3D, decay=LATTICE_3D):
    box = box_factor * lattice
    return synthesize_mode(
        "cavity3d", lattice, decay, (n, n, nz), (box / n, box / n, 0.25 * lattice)
    )


def mm_cavity(g0=G0_2D):
    return CavityParams(omega_cav=OMEGA_MM, eps_m=12.0, mode_volume=1e-9, g0=g0)


class TestFieldGridValidation:
    def test_epsilon_below_vacuum_rejected(self):
        with pytest.raises(ValueError):
            make_grid(
                0.5 * np.ones((2, 2, 1)),
                np.ones((2, 2, 1), dtype=complex),
                (1.0, 1.0, 1.0),
                (0.0, 0.0, 0.0),
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_grid(
                np.ones((2, 2, 1)),
                np.ones((3, 2, 1), dtype=complex),
                (1.0, 1.0, 1.0),
                (0.0, 0.0, 0.0),
            )

    @pytest.mark.parametrize("where", ["epsilon", "field", "spacing", "origin"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, where, bad):
        parts = {
            "epsilon": np.ones((2, 2, 1)),
            "field": np.ones((2, 2, 1), dtype=complex),
            "spacing": [1.0, 1.0, 1.0],
            "origin": [0.0, 0.0, 0.0],
        }
        parts[where][0] = bad
        with pytest.raises(ValueError, match="finite"):
            FieldGrid(**parts)


class TestPeakEnergyPoint:
    def test_single_nonzero_cell(self):
        field = np.zeros((4, 3, 2), dtype=complex)
        field[2, 1, 0] = 1.0
        grid = make_grid(np.ones((4, 3, 2)), field, (0.5, 0.5, 0.5), (0.0, 0.0, 0.0))
        r_m, eps_m = peak_energy_point(grid)
        np.testing.assert_allclose(r_m, [1.25, 0.75, 0.25])
        assert eps_m == 1.0

    def test_gaussian_centers_on_nearest_cell(self):
        n = 21
        h = 0.1
        xs = (np.arange(n) + 0.5) * h
        cx, cy = 1.04, 0.52  # nearest cell centers: 1.05, 0.55
        x, y = np.meshgrid(xs, xs, indexing="ij")
        field = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / 0.05).astype(complex)[:, :, None]
        grid = make_grid(np.ones((n, n, 1)), field, (h, h, h), (0.0, 0.0, 0.0))
        r_m, _ = peak_energy_point(grid)
        np.testing.assert_allclose(r_m[:2], [1.05, 0.55], atol=1e-12)

    def test_synthetic_mode_peaks_at_center(self):
        grid = square_grid_2d(101, 12.625 * LATTICE_2D)
        r_m, eps_m = peak_energy_point(grid)
        np.testing.assert_allclose(r_m, [0.0, 0.0, 0.0], atol=1e-9)
        assert eps_m == 12.0

    def test_zero_field_rejected(self):
        grid = make_grid(
            np.ones((2, 2, 1)),
            np.zeros((2, 2, 1), dtype=complex),
            (1.0, 1.0, 1.0),
            (0.0, 0.0, 0.0),
        )
        # every statistic that normalizes by the energy-density peak refuses it
        path = PathSpec((0.0, 1.0, 0.5), (1.0, 0.0, 0.0), 2.0, 1.0)
        for stat in (peak_energy_point, mode_volume,
                     lambda g: coupling_trace_from_field(g, path, mm_cavity())):
            with pytest.raises(ValueError, match="identically zero"):
                stat(grid)


class TestModeVolume:
    def test_uniform_box(self):
        dims = (4, 5, 6)
        spacing = (0.3, 0.2, 0.1)
        grid = make_grid(
            2.0 * np.ones(dims),
            3.0 * np.ones(dims, dtype=complex),
            spacing,
            (0.0, 0.0, 0.0),
        )
        box = dims[0] * spacing[0] * dims[1] * spacing[1] * dims[2] * spacing[2]
        assert mode_volume(grid) == pytest.approx(box, rel=1e-12)

    def test_single_cell(self):
        field = np.zeros((3, 3, 3), dtype=complex)
        field[1, 1, 1] = 2.0
        grid = make_grid(np.ones((3, 3, 3)), field, (0.2, 0.2, 0.2), (0.0, 0.0, 0.0))
        assert mode_volume(grid) == pytest.approx(0.2**3, rel=1e-12)

    def test_separable_exponential_against_analytic(self):
        r_decay = 0.8
        half = 4.0
        height = 0.5

        def volume_at(n):
            h = 2 * half / n
            xs = -half + (np.arange(n) + 0.5) * h
            x, y = np.meshgrid(xs, xs, indexing="ij")
            field = np.exp(-(np.abs(x) + np.abs(y)) / r_decay).astype(complex)
            grid = make_grid(
                np.ones((n, n, 1)), field[:, :, None], (h, h, 1.0), (-half, -half, -0.5)
            )
            return mode_volume(grid, effective_height=height)

        analytic = height * (r_decay * (1 - math.exp(-2 * half / r_decay))) ** 2
        coarse = volume_at(161)
        assert coarse == pytest.approx(analytic, rel=0.01)
        # odd refinement keeps a sample at the field maximum
        assert volume_at(323) == pytest.approx(coarse, rel=0.01)

    def test_field_rescaling_invariance(self):
        grid = square_grid_2d(61, 8 * LATTICE_2D)
        scaled = make_grid(
            grid.epsilon,
            7.3 * grid.field,
            grid.spacing,
            grid.origin,
            lattice_const=grid.lattice_const,
        )
        assert mode_volume(scaled) == pytest.approx(mode_volume(grid), rel=1e-12)

    def test_synthetic_refinement_stable(self):
        box = 12.625 * LATTICE_2D
        coarse = mode_volume(square_grid_2d(101, box))
        fine = mode_volume(square_grid_2d(201, box))
        assert coarse == pytest.approx(fine, rel=0.01)

    def test_2d_needs_height(self):
        grid = square_grid_2d(31, 5 * LATTICE_2D)
        stripped = make_grid(grid.epsilon, grid.field, grid.spacing, grid.origin)
        with pytest.raises(ValueError):
            mode_volume(stripped)


class TestPolarizationFraction:
    def _vector_grid(self, ex, ey, ez):
        n = 8
        field = np.zeros((n, n, 3, 3), dtype=complex)
        pattern = np.linspace(0.5, 1.5, n)[:, None, None] * np.ones((n, n, 3))
        field[..., 0] = ex * pattern
        field[..., 1] = ey * pattern
        field[..., 2] = ez * pattern
        return make_grid(np.ones((n, n, 3)), field, (0.1, 0.1, 0.1), (0.0, 0.0, 0.0))

    def test_pure_tm(self):
        assert polarization_fraction(self._vector_grid(0, 0, 1.0), 1) == 1.0

    def test_pure_te(self):
        assert polarization_fraction(self._vector_grid(1.0, 0.5, 0), 1) == 0.0

    def test_balanced(self):
        assert polarization_fraction(self._vector_grid(1.0, 0.0, 1.0), 1) == pytest.approx(0.5)

    def test_zero_plane_rejected(self):
        grid = self._vector_grid(0, 0, 1.0)
        dead = np.array(grid.field)
        dead[:, :, 0, :] = 0.0
        dead_grid = make_grid(grid.epsilon, dead, grid.spacing, grid.origin)
        with pytest.raises(ValueError):
            polarization_fraction(dead_grid, 0)

    def test_scalar_grid_is_all_ez(self):
        # a scalar grid models a pure-TM mode; its plane is checked as a vector grid's
        grid = square_grid_2d(11, 2 * LATTICE_2D)
        assert polarization_fraction(grid, 0) == 1.0
        with pytest.raises(ValueError, match="plane index 7 outside 0..0"):
            polarization_fraction(grid, 7)
        dead = make_grid(np.ones((2, 2, 1)), np.zeros((2, 2, 1)), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="field vanishes"):
            polarization_fraction(dead, 0)


class TestSynthesizeMode:
    def test_3d_peaks_at_center(self):
        grid = cavity3d_grid()
        r_m, eps_m = peak_energy_point(grid)
        np.testing.assert_allclose(r_m, [0.0, 0.0, 0.0], atol=1e-9)
        assert eps_m == 12.0

    def test_3d_central_plane_is_tm(self):
        grid = cavity3d_grid()
        assert polarization_fraction(grid, grid.dims[2] // 2) >= 0.99

    def test_mode_volume_shrinks_with_decay_radius(self):
        box = 12.625 * LATTICE_2D
        n = 101
        h = box / n
        wide = synthesize_mode("cavity2d", LATTICE_2D, LATTICE_2D, (n, n, 1), (h, h, LATTICE_2D))
        narrow = synthesize_mode(
            "cavity2d", LATTICE_2D, LATTICE_2D / 2, (n, n, 1), (h, h, LATTICE_2D)
        )
        assert mode_volume(narrow) < mode_volume(wide)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            synthesize_mode("cavity4d", 1.0, 1.0, (3, 3, 1), (0.1, 0.1, 0.1))

    @pytest.mark.parametrize("lattice_const, decay_radius, dims, spacing, named", [
        (math.inf, 1.0, (3, 3, 1), (0.1, 0.1, 1.0), "lattice_const"),
        (math.nan, 1.0, (3, 3, 1), (0.1, 0.1, 1.0), "lattice_const"),
        (1.0, math.inf, (3, 3, 1), (0.1, 0.1, 1.0), "decay_radius"),
        (1.0, math.nan, (3, 3, 1), (0.1, 0.1, 1.0), "decay_radius"),
        (1.0, 1.0, (3, 3, 1), (math.nan, 0.1, 1.0), "spacing"),
        (1.0, 1.0, (3, 3, 1), (0.1, math.inf, 1.0), "spacing"),
        (1.0, 1.0, (0, 3, 1), (0.1, 0.1, 1.0), "dims"),
        (1.0, 1.0, (3, -1, 1), (0.1, 0.1, 1.0), "dims"),
    ])
    def test_bad_sizes_refused_by_name(self, lattice_const, decay_radius, dims, spacing, named):
        with pytest.raises(ValueError, match=named):
            synthesize_mode("cavity2d", lattice_const, decay_radius, dims, spacing)

    @pytest.mark.parametrize("lattice_const, spacing", [
        (1e-300, (1e300, 1e300, 1.0)),  # the box in lattice constants overflows
        (1.0, (1e308, 1.0, 1.0)),       # the box itself overflows
        (1.0, (1e16 / 3, 1e16 / 3, 1.0)),  # finite, but rounding misplaces rods
    ])
    def test_non_finite_box_refused_naming_both(self, lattice_const, spacing):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="spacing.*lattice_const"):
                synthesize_mode("cavity2d", lattice_const, 1.0, (3, 3, 1), spacing)

    @pytest.mark.parametrize("box", [12.625, fieldgrid.MAX_BOX_LATTICE_CONSTANTS])
    def test_box_up_to_the_bound_matches_mpmath(self, box):
        # the widest box synthesis accepts gives, with no warning, every cell's
        # permittivity as a 60-digit recomputation does
        h = box / 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = synthesize_mode("cavity2d", 1.0, 1.0, (5, 5, 1), (h, h, 1.0))
        want = mp_rod_epsilon(grid.axis_centers(0), grid.axis_centers(1), 1.0, h, h)
        np.testing.assert_array_equal(grid.epsilon[:, :, 0], want)

    def test_cell_budget_refused_by_name(self, monkeypatch):
        # (401, 401, 401) passes the schema's per-axis bound and would take
        # ~6.4 GiB.  Nothing past the check may run, so a missing budget fails
        # here instead of allocating.
        def unreachable(*args, **kwargs):
            raise AssertionError("a grid over the cell budget passed the check")

        monkeypatch.setattr(fieldgrid, "_triangular_rod_epsilon", unreachable)
        for dims in [(401, 401, 401), (fieldgrid.MAX_CELLS + 1, 1, 1)]:
            with pytest.raises(ValueError, match=f"dims .* more than the {fieldgrid.MAX_CELLS}"):
                synthesize_mode("cavity2d", 1.0, 1.0, dims, (0.1, 0.1, 1.0))

    def test_work_does_not_grow_with_the_spacing(self):
        # Cells 125 lattice periods wide: the box spans ~1400 periods, about
        # two million rods, of which each subcell point still tests four.
        grid = synthesize_mode("cavity2d", 1.0, 1.0, (11, 11, 1), (125.0, 125.0, 1.0))
        assert grid.dims == (11, 11, 1)
        assert set(np.unique(np.round((grid.epsilon - 1.0) / 11.0 * 16))) <= set(range(17))

    def test_json_round_trip(self, tmp_path):
        for grid in (square_grid_2d(21, 4 * LATTICE_2D), cavity3d_grid(n=15, nz=7)):
            back = grid_from_json(grid_to_json(grid, tmp_path / "grid.json"))
            np.testing.assert_array_equal(back.epsilon, grid.epsilon)
            np.testing.assert_array_equal(back.field, grid.field)
            assert back.spacing == grid.spacing
            assert back.lattice_const == grid.lattice_const

    def test_json_errors_name_the_file(self, tmp_path):
        path = tmp_path / "grid.json"
        with pytest.raises(ValueError, match="cannot load field grid .*grid.json"):
            grid_from_json(path)
        doc = json.loads(grid_to_json(square_grid_2d(5, 4 * LATTICE_2D), path).read_text())
        del doc["components"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="grid.json lacks key 'components'"):
            grid_from_json(path)

    def test_json_with_nan_permittivity_rejected(self, tmp_path):
        path = grid_to_json(square_grid_2d(5, 4 * LATTICE_2D), tmp_path / "grid.json")
        doc = json.loads(path.read_text())
        doc["epsilon"][7] = math.nan
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="must be finite"):
            grid_from_json(path)


class TestPathSpec:
    @pytest.mark.parametrize("name", ["length", "velocity"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_size_not_positive_and_finite_refused_by_name(self, name, bad):
        sizes = {"length": 1e-3, "velocity": 374.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got"):
            PathSpec((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), **sizes)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_entry_not_finite_refused(self, bad):
        with pytest.raises(ValueError, match="entry must be a finite point"):
            PathSpec((0.0, bad, 0.0), (1.0, 0.0, 0.0), 1e-3, 374.0)


class TestCouplingTraceFromField:
    def center_path(self, grid, velocity=374.0, zeta=0.0, frac=0.9):
        lo, hi = grid.bounds
        span = frac * (hi[0] - lo[0])
        return PathSpec(
            entry=(-span / 2, 0.0, 0.0),
            direction=(1.0, 0.0, 0.0),
            length=span,
            velocity=velocity,
            zeta=zeta,
        )

    def test_peak_reaches_g0_through_center(self):
        grid = square_grid_2d(101, 12.625 * LATTICE_2D)
        trace = coupling_trace_from_field(grid, self.center_path(grid), mm_cavity(), 1001)
        assert float(np.max(np.abs(trace.values))) == pytest.approx(G0_2D, rel=1e-12)

    def test_orthogonal_dipole_kills_coupling(self):
        grid = square_grid_2d(61, 8 * LATTICE_2D)
        path = self.center_path(grid, zeta=math.pi / 2)
        trace = coupling_trace_from_field(grid, path, mm_cavity(), 101)
        np.testing.assert_allclose(np.abs(trace.values), 0.0, atol=G0_2D * 1e-15)

    def test_pulse_area_matches_quadrature_oracle(self):
        grid = square_grid_2d(101, 12.625 * LATTICE_2D)
        trace = coupling_trace_from_field(grid, self.center_path(grid), mm_cavity(), 2001)
        area = pulse_area(drive_from_profile(trace))
        # oracle: adaptive quadrature of |trace interpolant|, the drive, in
        # chunks so each call sees a manageable number of kinks
        t0, t1 = trace.window
        edges = np.linspace(t0, t1, 81)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            oracle = sum(
                quad(lambda t: abs(trace(t)), a, b, epsabs=1e-10 * abs(area), epsrel=1e-10,
                     limit=400)[0]
                for a, b in zip(edges, edges[1:])
            )
        assert area == pytest.approx(oracle, rel=1e-6)

    def test_normalized_profile_bounded(self):
        grid = cavity3d_grid()
        trace = coupling_trace_from_field(grid, self.center_path(grid), mm_cavity(2.899e6), 501)
        assert float(np.max(np.abs(trace.values))) <= 2.899e6 * (1 + 1e-9)
        assert trace.is_complex  # 3D synthetic modes carry a genuine phase

    def test_off_center_path_stays_below_g0(self):
        grid = square_grid_2d(61, 8 * LATTICE_2D)
        lo, hi = grid.bounds
        path = PathSpec(
            entry=(lo[0] * 0.9, 0.31 * LATTICE_2D, 0.0),
            direction=(1.0, 0.0, 0.0),
            length=0.9 * (hi[0] - lo[0]),
            velocity=374.0,
        )
        trace = coupling_trace_from_field(grid, path, mm_cavity(), 501)
        assert float(np.max(np.abs(trace.values))) < G0_2D

    def test_clipping_warns(self):
        grid = square_grid_2d(31, 4 * LATTICE_2D)
        lo, hi = grid.bounds
        path = PathSpec(
            entry=(lo[0] + 0.1 * LATTICE_2D, 0.0, 0.0),
            direction=(1.0, 0.0, 0.0),
            length=10 * (hi[0] - lo[0]),
            velocity=374.0,
        )
        with pytest.warns(UserWarning, match="clipped"):
            coupling_trace_from_field(grid, path, mm_cavity(), 101)

    def test_outside_path_rejected(self):
        grid = square_grid_2d(31, 4 * LATTICE_2D)
        lo, hi = grid.bounds
        path = PathSpec(
            entry=(hi[0] + LATTICE_2D, 0.0, 0.0),
            direction=(1.0, 0.0, 0.0),
            length=LATTICE_2D / 2,
            velocity=374.0,
        )
        with pytest.raises(ValueError):
            coupling_trace_from_field(grid, path, mm_cavity(), 101)

    def test_times_follow_arclength(self):
        grid = square_grid_2d(31, 4 * LATTICE_2D)
        velocity = 200.0
        path = self.center_path(grid, velocity=velocity)
        trace = coupling_trace_from_field(grid, path, mm_cavity(), 101)
        assert trace.times[0] == pytest.approx(0.0)
        assert trace.times[-1] == pytest.approx(path.length / velocity, rel=1e-12)
        assert trace.velocity == velocity


def rgi_sampler(grid):
    """The field sampler on scipy's RegularGridInterpolator: the reference
    whose arithmetic ``fieldgrid._interpolators`` keeps."""
    values = grid.field if grid.components == 1 else grid.field[..., 2]
    axes = [grid.axis_centers(k) for k in range(3)]
    live = [k for k in range(3) if grid.dims[k] > 1]
    squeezed = values.reshape([grid.dims[k] for k in live])
    pts = tuple(axes[k] for k in live)
    interp_re = RegularGridInterpolator(pts, squeezed.real)
    interp_im = RegularGridInterpolator(pts, squeezed.imag)

    def sample(positions):
        q = np.column_stack([np.clip(positions[:, k], axes[k][0], axes[k][-1]) for k in live])
        return interp_re(q) + 1j * interp_im(q)

    return sample


def bundled_grid(name):
    f = json.loads(example_config_path(name).read_text())["field"]
    return synthesize_mode(f["kind"], f["lattice_const"], f["decay_radius"], tuple(f["dims"]),
                           tuple(f["spacing"]))


class TestSampler:
    @pytest.mark.parametrize("grid", [
        pytest.param(lambda: square_grid_2d(49, 12.625 * LATTICE_2D), id="cavity2d-49"),
        pytest.param(lambda: bundled_grid("field2d_stats"), id="cavity2d-101"),
        pytest.param(lambda: bundled_grid("field3d_stats"), id="cavity3d-49x49x25"),
    ])
    def test_bit_identical_to_regular_grid_interpolator(self, grid):
        grid = grid()
        mine, ref = fieldgrid._interpolators(grid), rgi_sampler(grid)
        lo, hi = grid.bounds
        rng = np.random.default_rng(2001)
        centres = [grid.axis_centers(k) for k in range(3)]
        for _ in range(30):
            a, b = lo + rng.random(3) * (hi - lo), lo + rng.random(3) * (hi - lo)
            positions = a + np.linspace(0.0, 1.0, 2001)[:, None] * (b - a)
            for k in range(3):  # grid nodes on one axis, on several where rows repeat
                positions[rng.integers(0, 2001, 100), k] = rng.choice(centres[k], 100)
            positions[:4] = [lo - 1.0, hi + 1.0, lo, [c[-1] for c in centres]]
            got, want = mine(positions), ref(positions)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def assert_rod_epsilon_matches_loop(lattice, dims, spacing):
    """Cell centres laid out as synthesize_mode lays them, then the map against the loop."""
    axes = [-0.5 * n * h + (np.arange(n) + 0.5) * h for n, h in zip(dims, spacing)]
    x, y = np.meshgrid(*axes, indexing="ij")
    got = fieldgrid._triangular_rod_epsilon(x, y, lattice, *spacing)
    want = rod_loop_epsilon(x, y, lattice, *spacing)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def bundled_lattice(name):
    f = json.loads(example_config_path(name).read_text())["field"]
    return f["lattice_const"], f["dims"][:2], f["spacing"][:2]


class TestRodEpsilon:
    """The four-nearest-rods map against the rod-by-rod loop, byte for byte."""

    @pytest.mark.parametrize("case", [
        pytest.param(lambda: bundled_lattice("field2d_stats"), id="field2d_stats"),
        pytest.param(lambda: bundled_lattice("field3d_stats"), id="field3d_stats"),
        pytest.param(lambda: (LATTICE_2D, (81, 81), (12.6 * LATTICE_2D / 81,) * 2), id="trace-cavity2d"),
        pytest.param(lambda: (LATTICE_3D, (41, 41), (10.5 * LATTICE_3D / 41,) * 2), id="trace-cavity3d"),
        # cells 9 and 11 periods wide, whose subcell points fall far out in
        # rows of rods that only the x shift j l/2 brings into the box
        pytest.param(lambda: (1.0, (3, 2), (9.0, 11.0)), id="wide-cells"),
    ])
    def test_explicit_grids(self, case):
        assert_rod_epsilon_matches_loop(*case())

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        lattice=st.floats(1e-4, 10.0),
        ratios=st.tuples(st.floats(0.05, 1.5), st.floats(0.05, 1.5)),
        dims=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    )
    def test_matches_rod_loop(self, lattice, ratios, dims):
        assume(ratios[0] != ratios[1])
        assert_rod_epsilon_matches_loop(lattice, dims, tuple(r * lattice for r in ratios))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        lattice=st.floats(1e-4, 10.0),
        ratios=st.tuples(st.floats(0.05, 1.5), st.floats(0.05, 1.5)),
        half_dims=st.tuples(st.integers(0, 40), st.integers(0, 40)),
    )
    # the 121 x 121 box 30 periods wide whose corners a lattice cut by |i| lost
    @example(lattice=1.0, ratios=(0.25, 0.25), half_dims=(60, 60))
    def test_mirror_symmetric(self, lattice, ratios, half_dims):
        # The lattice and the defect rod are symmetric under x -> -x and
        # y -> -y, and so is a box of odd dims centred at the origin.
        dims = (2 * half_dims[0] + 1, 2 * half_dims[1] + 1, 1)
        grid = synthesize_mode("cavity2d", lattice, lattice, dims, (*(r * lattice for r in ratios), lattice))
        eps = grid.epsilon[:, :, 0]
        np.testing.assert_array_equal(eps, eps[::-1, :])
        np.testing.assert_array_equal(eps, eps[:, ::-1])
