import math
import re

import numpy as np
import pytest
from scipy import integrate

from pcqed.coupling import GenericProfile, pulse_area
from pcqed.analytic import amplitudes, logical_unitary
from pcqed.svg import heatmap_svg, line_plot_svg
from pcqed.sweep import surface, surfaces_to_csv

from conftest import csv_rows, generic_family


@pytest.fixture(scope="module")
def small_grid():
    return surface(
        generic_family(),
        v_range=(400.0, 600.0),
        p_range=(0.0, 1.0),
        resolution=(41, 51),
    )


class TestSurface:
    def test_zero_ratio_column_is_single_atom(self, small_grid):
        grid = small_grid
        assert grid.p_values[0] == 0.0
        for i, v in enumerate(grid.v_values):
            area = pulse_area(GenericProfile(generic_family(velocity=float(v))))
            assert grid.a_surface[i, 0] == pytest.approx(math.cos(area), abs=1e-9)
            assert grid.b_surface[i, 0] == 0.0

    def test_entangler_cell(self):
        grid = surface(
            generic_family(),
            v_range=(433.0, 453.0),
            p_range=(0.404, 0.424),
            resolution=(3, 3),
        )
        # (433, 0.414) is the first cell of this grid
        assert grid.a_surface[0, 1] == pytest.approx(-1 / math.sqrt(2), abs=0.01)
        assert grid.b_surface[0, 1] == pytest.approx(-1 / math.sqrt(2), abs=0.01)

    def test_cross_amplitude_symmetry(self, small_grid):
        other = surface(
            generic_family(),
            v_range=(400.0, 600.0),
            p_range=(0.0, 1.0),
            resolution=(41, 51),
            initial="010",
        )
        np.testing.assert_allclose(
            small_grid.b_surface, other.a_surface, atol=1e-12
        )

    def test_amplitudes_bounded(self, small_grid):
        total = small_grid.a_surface**2 + small_grid.b_surface**2
        assert float(np.max(total)) <= 1.0 + 1e-9

    def test_fresh_evaluation_matches_grid(self, small_grid):
        rng = np.random.default_rng(31)
        for _ in range(10):
            i = int(rng.integers(small_grid.v_values.size))
            j = int(rng.integers(small_grid.p_values.size))
            v = float(small_grid.v_values[i])
            p = float(small_grid.p_values[j])
            area = pulse_area(GenericProfile(generic_family(velocity=v)))
            a, b, _ = amplitudes(area, p * area)
            assert small_grid.a_surface[i, j] == pytest.approx(float(a.real), abs=1e-12)
            assert small_grid.b_surface[i, j] == pytest.approx(float(b.real), abs=1e-12)

    def test_scaled_surface_matches_per_velocity_quadrature(self):
        kwargs = dict(v_range=(150.0, 650.0), p_range=(0.0, 1.0), resolution=(21, 13))
        areas = []
        for v in np.linspace(150.0, 650.0, 21):
            profile = GenericProfile(generic_family(velocity=float(v)))
            area, _ = integrate.quad(
                profile, *profile.window, epsabs=1e-12, epsrel=0.0, limit=500,
                points=[profile.peak_time],
            )
            areas.append(area)
        for column, initial in enumerate(("100", "010")):
            grid = surface(generic_family(), **kwargs, initial=initial)
            for i, area in enumerate(areas):
                u = [logical_unitary(area, p * area) for p in grid.p_values]
                want_a = [m[0, column].real for m in u]
                want_b = [m[1, column].real for m in u]
                np.testing.assert_allclose(grid.a_surface[i], want_a, rtol=0, atol=1e-12)
                np.testing.assert_allclose(grid.b_surface[i], want_b, rtol=0, atol=1e-12)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            surface(generic_family(), v_range=(0.0, 100.0))
        with pytest.raises(ValueError):
            surface(generic_family(), resolution=(1, 5))
        with pytest.raises(ValueError):
            surface(generic_family(), initial="001")


class TestSlice:
    def test_velocity_slice_crosses_at_silver_ratio(self):
        grid = surface(
            generic_family(),
            v_range=(433.0, 443.0),
            p_range=(0.0, 1.0),
            resolution=(2, 501),
        )
        a, b = grid.a_surface[0], grid.b_surface[0]  # the V = 433 m/s gridline
        crossing = grid.p_values[int(np.argmin(np.abs(a - b)))]
        assert crossing == pytest.approx(0.414, abs=0.01)

    def test_ratio_slice_reaches_full_transfer(self, small_grid):
        b = small_grid.b_surface[:, -1]  # the p = 1 gridline
        idx = int(np.argmin(b))
        assert b[idx] <= -0.999
        # full transfer happens near the quoted 565 m/s operating point
        assert small_grid.v_values[idx] == pytest.approx(565.0, rel=0.03)

    def test_zero_coupling_family(self):
        # dipole orthogonal to the mode: couplings vanish identically
        grid = surface(
            generic_family(zeta=math.pi / 2),
            v_range=(400.0, 600.0),
            p_range=(0.0, 1.0),
            resolution=(5, 7),
        )
        np.testing.assert_allclose(grid.a_surface, 1.0, atol=1e-12)
        np.testing.assert_allclose(grid.b_surface, 0.0, atol=1e-12)


class TestExport:
    def test_csv_layout(self, tmp_path, small_grid):
        path_a, path_b = surfaces_to_csv(small_grid, tmp_path, "surf")
        assert path_b.name == "surf_b.csv"
        for path, surf in ((path_a, small_grid.a_surface), (path_b, small_grid.b_surface)):
            header, *rows = csv_rows(path)
            assert header[0] == "v_m_per_s"
            # every float, in the header and the rows, reads back bit-identical
            np.testing.assert_array_equal(np.array(header[1:], dtype=float), small_grid.p_values)
            data = np.array(rows, dtype=float)
            np.testing.assert_array_equal(data[:, 0], small_grid.v_values)
            np.testing.assert_array_equal(data[:, 1:], surf)


class TestHeatmap:
    @pytest.mark.parametrize("shape", [(2000, 3), (3, 1000)])
    def test_at_most_one_cell_per_pixel(self, tmp_path, shape):
        # the plot is 630 x 400 pixels; the corner cells are drawn, once each
        z = np.zeros(shape)
        z[0, 0], z[-1, -1] = -1.0, 1.0
        svg = heatmap_svg(tmp_path / "h.svg", np.arange(shape[0]), np.arange(shape[1]), z).read_text()
        cells = svg.count("<rect") - 1  # the background
        assert cells == min(shape[0], 630) * min(shape[1], 400)
        assert svg.count('fill="#0000ff"') == svg.count('fill="#ff0000"') == 1


def polylines(svg: str) -> list[list[tuple[float, float]]]:
    """The vertices of each polyline of an SVG, as (x, y) pixels."""
    return [[tuple(map(float, point.split(","))) for point in points.split()]
            for points in re.findall(r'<polyline points="([^"]*)"', svg)]


class TestLinePlot:
    # the plot is 630 pixels wide: up to 4 samples per pixel column, 2520, all are drawn
    @pytest.mark.parametrize("n", [2, 2001, 2520])
    def test_every_sample_drawn_up_to_four_per_column(self, tmp_path, n):
        x = np.linspace(0.0, 1.0, n)
        svg = line_plot_svg(tmp_path / "l.svg", x, {"sin": np.sin(40 * x), "x": x}).read_text()
        for line in polylines(svg):
            assert len(line) == n
            assert [a for a, _ in line] == [float(f"{v:.2f}") for v in 70 + 630 * x]

    @pytest.mark.parametrize("shape", [lambda x: np.sin(4e3 * x) * np.exp(-x), lambda x: np.floor(7 * x)],
                             ids=["oscillating", "steps"])
    def test_bounded_vertices_keep_each_columns_extremes(self, tmp_path, shape):
        # 50 samples per pixel column, none within 0.01 pixel of a column's edge, and both ends
        x = np.concatenate([[0.0], (np.arange(630 * 50) + 0.5) / (630 * 50), [1.0]])
        y = shape(x)
        (line,) = polylines(line_plot_svg(tmp_path / "l.svg", x, {"y": y}).read_text())
        assert len(line) <= 4 * 630
        px, py = np.array(line).T
        assert np.all(np.diff(px) >= 0)  # in sample order
        assert line[0][0] == 70.0 and line[-1][0] == 700.0  # the first and last samples
        # every pixel column spans the y extent of its samples
        pad = 0.05 * np.ptp(y)
        scaled = 430 - (y - y.min() + pad) * 400 / (np.ptp(y) + 2 * pad)
        column, drawn = np.minimum((630 * x).astype(int), 629), np.minimum((px - 70).astype(int), 629)
        for c in range(630):
            assert py[drawn == c].min() == pytest.approx(scaled[column == c].min(), abs=0.006)
            assert py[drawn == c].max() == pytest.approx(scaled[column == c].max(), abs=0.006)
