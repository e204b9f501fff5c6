import math

import numpy as np
import pytest

from pcqed.core import AmplitudeVector, build_subspace
from pcqed.coupling import (
    CouplingTrace,
    GenericProfile,
    drive_from_profile,
    drive_pair,
    pulse_area,
)
from pcqed.analytic import amplitudes, analytic_trajectory, logical_unitary
from pcqed.ode import evolve
from pcqed import analytic

from oracles import series_amplitudes

P_STAR = math.sqrt(2.0) - 1.0


def entangler_areas(p=P_STAR):
    g_a = math.pi / math.hypot(1.0, p)
    return g_a, p * g_a


class TestClosedForm:
    def test_identity_limit(self):
        assert amplitudes(0.0, 0.0) == (1.0, 0.0, 0.0)

    def test_half_rabi_cycle_single_atom(self):
        a, b, gamma = amplitudes(math.pi / 2, 0.0)
        assert abs(a) < 1e-15
        assert b == 0.0
        assert gamma == pytest.approx(-1j, abs=1e-15)

    def test_entangler_point(self):
        # At total area pi and ratio sqrt(2)-1 both rails end at -1/sqrt(2).
        a, b, gamma = amplitudes(*entangler_areas())
        assert a == pytest.approx(-1 / math.sqrt(2), abs=1e-14)
        assert b == pytest.approx(-1 / math.sqrt(2), abs=1e-14)
        assert abs(gamma) < 1e-14

    def test_rail_swap_point(self):
        # Equal couplings, total area pi: the excitation changes rails.
        a, b, gamma = amplitudes(math.pi / math.sqrt(2), math.pi / math.sqrt(2))
        assert abs(a) < 1e-14
        assert b == pytest.approx(-1.0, abs=1e-14)
        assert abs(gamma) < 1e-14

    def test_small_area_branches_agree_with_series(self):
        # both sides of the series/trig switchover match the power series
        for g in (0.5e-6, 0.9999e-6, 1.0001e-6, 2e-6):
            got = amplitudes(g, 0.3 * g)
            want = series_amplitudes(g, 0.3 * g, 10)
            assert max(abs(x - y) for x, y in zip(got, want)) < 1e-15

    def test_normalization_random(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            g_a, g_b = rng.uniform(-4 * math.pi, 4 * math.pi, size=2)
            a, b, gamma = amplitudes(g_a, g_b)
            norm = abs(a) ** 2 + abs(b) ** 2 + abs(gamma) ** 2
            assert norm == pytest.approx(1.0, abs=1e-12)

    def test_single_atom_reduction_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = rng.uniform(0, 4 * math.pi)
            a, b, gamma = amplitudes(g, 0.0)
            assert a == pytest.approx(math.cos(g), abs=1e-14)
            assert b == 0.0
            assert gamma == pytest.approx(-1j * math.sin(g), abs=1e-14)


class TestSeries:
    def test_empty_sum(self):
        assert series_amplitudes(1.0, 2.0, 0) == (1.0, 0.0, 0.0)

    def test_first_term(self):
        a, b, gamma = series_amplitudes(0.7, 0.0, 1)
        assert a == pytest.approx(1 - 0.7**2 / 2, rel=1e-15)
        assert b == 0.0

    def test_converges_to_closed_form(self):
        got = series_amplitudes(1.0, 0.5, 20)
        want = amplitudes(1.0, 0.5)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12

    def test_error_monotone_beyond_turning_point(self):
        areas = (2.0, 1.5)  # Lambda = 2.5
        want = np.array(amplitudes(*areas))
        errors = []
        for n in range(3, 15):  # beyond the turning point n ~ Lambda / 2
            got = np.array(series_amplitudes(*areas, n))
            errors.append(float(np.max(np.abs(got - want))))
        for prev, nxt in zip(errors, errors[1:]):
            if prev < 1e-15:
                break
            assert nxt < prev

    def test_random_pairs_at_depth_25(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            g_a, g_b = rng.uniform(0, 2 * math.pi, size=2)
            got = series_amplitudes(g_a, g_b, 25)
            want = amplitudes(g_a, g_b)
            assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12


class TestLogicalUnitary:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(logical_unitary(0.0, 0.0), np.eye(3), atol=1e-15)

    def test_first_column_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            areas = rng.uniform(-6, 6, size=2)
            np.testing.assert_allclose(logical_unitary(*areas)[:, 0], amplitudes(*areas), atol=1e-14)

    def test_cross_elements_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u = logical_unitary(*rng.uniform(-6, 6, size=2))
            assert u[0, 1] == pytest.approx(u[1, 0], abs=1e-15)

    def test_unitary_random(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            u = logical_unitary(*rng.uniform(0, 4 * math.pi, size=2))
            dev = np.max(np.abs(u.conj().T @ u - np.eye(3)))
            assert dev <= 1e-12

    def test_exchange_symmetry(self):
        u = logical_unitary(1.3, 0.4)
        swapped = logical_unitary(0.4, 1.3)
        perm = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        np.testing.assert_allclose(perm @ u @ perm, swapped, atol=1e-14)

    def test_columns_are_amplitudes_byte_for_byte(self):
        rng = np.random.default_rng(20)
        pairs = 10 ** rng.uniform(-8, 1, size=(500, 2)) * rng.choice([-1.0, 1.0], size=(500, 2))
        for g_a, g_b in [(0.0, 0.0), (1e-7, 0.0), *pairs]:
            columns = [analytic.amplitudes(g_a, g_b, initial) for initial in ("100", "010", "001")]
            want = np.array(columns, dtype=complex).T
            assert logical_unitary(g_a, g_b).tobytes() == want.tobytes()

    def test_trig_factors_evaluated_once(self, monkeypatch):
        calls = []
        trig_factors = analytic._trig_factors

        def counted(lam):
            calls.append(lam)
            return trig_factors(lam)

        monkeypatch.setattr(analytic, "_trig_factors", counted)
        logical_unitary(1.3, 0.4)
        assert len(calls) == 1


class TestAnalyticTrajectory:
    def test_final_point_matches_quadrature_areas(self, fig_family):
        profile = GenericProfile(fig_family)
        t0, t1 = profile.window
        times = np.linspace(t0, t1, 2000)
        traj = analytic_trajectory(profile, 0.414, times)
        g_a = pulse_area(profile)
        want = amplitudes(g_a, 0.414 * g_a)
        # running areas of generic profiles are exact
        np.testing.assert_allclose(traj[-1], want, atol=1e-12)

    def test_starts_at_initial_state(self, fig_family):
        profile = GenericProfile(fig_family)
        t0, t1 = profile.window
        times = np.linspace(t0, t1, 100)
        for initial, row in (("100", [1, 0, 0]), ("010", [0, 1, 0]), ("001", [0, 0, 1])):
            traj = analytic_trajectory(profile, 0.5, times, initial=initial)
            np.testing.assert_allclose(traj[0], row, atol=1e-12)

    def test_normalized_along_the_way(self, fig_family):
        profile = GenericProfile(fig_family)
        t0, t1 = profile.window
        times = np.linspace(t0, t1, 257)
        for initial in ("100", "010", "001"):
            traj = analytic_trajectory(profile, 0.414, times, initial=initial)
            norms = np.sum(np.abs(traj) ** 2, axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_drive_without_exact_area_is_refused(self):
        raw = CouplingTrace([0.0, 1e-8, 2e-8], [1e8 + 1e8j, -2e8j, 5e7])
        times = np.linspace(0.0, 2e-8, 5)
        with pytest.raises(TypeError):
            analytic_trajectory(raw, 0.5, times)
        with pytest.raises(TypeError):
            analytic_trajectory(lambda t: np.ones_like(t), 0.5, times)
        assert analytic_trajectory(drive_from_profile(raw), 0.5, times).shape == (5, 3)

    def test_field_trace_drive_matches_tight_ode(self, field3d_trace):
        # |g| of the complex trace: exact |linear interpolant| areas against DOP853
        p = 0.414
        drive, drive_b, c = drive_pair(field3d_trace, p)
        t0, t1 = field3d_trace.window
        times = np.linspace(t0, t1, 400)
        want = evolve(build_subspace(1), drive, drive_b,
                      AmplitudeVector.basis_state("100"), t0, t1, rtol=1e-12, atol=1e-14,
                      n_points=times.size)
        np.testing.assert_allclose(analytic_trajectory(drive, c, times), want.amplitudes,
                                   rtol=0.0, atol=1e-8)
