import json
import math
from unittest import mock

import numpy as np
import pytest

from pcqed.core import AmplitudeVector, ConvergenceError, build_subspace
from pcqed.coupling import (CouplingTrace, GenericProfile, GenericProfileParams, ScaledProfile,
                            drive_from_profile, drive_pair, pulse_area, scaled_pair)
from pcqed.dop853 import DOP853
from pcqed.analytic import amplitudes, analytic_trajectory, logical_unitary, two_excitation_unitary
from pcqed.ode import evolve, final_states, trajectory_to_csv
from pcqed import ode
from pcqed.gates import calibrate_velocity

from conftest import csv_rows, generic_family
from oracles import Formula, example_config_path


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def ladder_hamiltonian(g_a: complex, g_b: complex, n_photon_max: int = 3) -> np.ndarray:
    """Full tensor-product interaction Hamiltonian, built from raw operators.

    Basis: atom A (g, e) x atom B (g, e) x photon Fock (0..n_photon_max).
    Independent of the hand-rolled subspace matrices.
    """
    dim_f = n_photon_max + 1
    a_op = np.diag(np.sqrt(np.arange(1, dim_f)), k=1)  # photon annihilation
    splus = np.array([[0.0, 0.0], [1.0, 0.0]])  # |e><g| with basis (g, e)
    eye2 = np.eye(2)
    eyef = np.eye(dim_f)

    def kron3(x, y, z):
        return np.kron(np.kron(x, y), z)

    h = g_a * kron3(splus, eye2, a_op) + g_b * kron3(eye2, splus, a_op)
    return h + h.conj().T


def ladder_index(atom_a: int, atom_b: int, n_photon: int, n_photon_max: int = 3) -> int:
    return (atom_a * 2 + atom_b) * (n_photon_max + 1) + n_photon


def project_two_excitations(h_full: np.ndarray) -> np.ndarray:
    """Restrict the ladder Hamiltonian to {|110>, |101>, |011>, |002>}."""
    idx = [
        ladder_index(1, 1, 0),
        ladder_index(1, 0, 1),
        ladder_index(0, 1, 1),
        ladder_index(0, 0, 2),
    ]
    return h_full[np.ix_(idx, idx)]


def expm_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) through the eigendecomposition of the Hermitian h."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def constant(value):
    """A constant drive, real or complex, with no breakpoints."""
    return Formula("{p}g", g=value)


def nan_after(t: float, value: float) -> Formula:
    """A drive of constant ``value`` that turns NaN past time t."""
    return Formula("{p}nan if T > {p}t else {p}g", nan=math.nan, t=t, g=value)


# ---------------------------------------------------------------------------
# subspace construction
# ---------------------------------------------------------------------------

class TestBuildSubspace:
    def test_zero_excitations_is_null(self):
        h = build_subspace(0)
        np.testing.assert_array_equal(h.matrix(1.0, 2.0), [[0.0]])

    def test_single_excitation_matrix(self):
        h = build_subspace(1).matrix(1.0, 0.414)
        want = np.zeros((3, 3))
        want[0, 2] = want[2, 0] = 1.0
        want[1, 2] = want[2, 1] = 0.414
        np.testing.assert_array_equal(h, want)

    def test_matches_ladder_construction(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g_a = complex(*rng.normal(size=2))
            g_b = complex(*rng.normal(size=2))
            ours = build_subspace(2).matrix(g_a, g_b)
            oracle = project_two_excitations(ladder_hamiltonian(g_a, g_b))
            np.testing.assert_allclose(ours, oracle, atol=1e-14)

    def test_two_excitation_spectrum(self):
        g = 1.7
        vals = np.sort(np.linalg.eigvalsh(build_subspace(2).matrix(g, g)))
        want = np.sort([0.0, 0.0, math.sqrt(6) * g, -math.sqrt(6) * g])
        np.testing.assert_allclose(vals, want, atol=1e-12)

    def test_hermitian_for_complex_couplings(self):
        rng = np.random.default_rng(4)
        for n in (1, 2):
            h = build_subspace(n).matrix(
                complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
            )
            np.testing.assert_allclose(h, h.conj().T, atol=0)

    def test_unsupported_subspace(self):
        with pytest.raises(ValueError):
            build_subspace(3)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

class TestEvolve:
    def test_zero_couplings_freeze_the_state(self):
        psi0 = AmplitudeVector(1, np.array([0.6, 0.8j, 0.0]))
        traj = evolve(build_subspace(1), constant(0.0), constant(0.0), psi0, 0.0, 1.0)
        np.testing.assert_allclose(traj.amplitudes[-1], psi0.amplitudes, atol=1e-12)

    def test_constant_couplings_match_logical_unitary(self):
        g_a, g_b, duration = 0.9e9, 0.5e9, 2.3e-9
        traj = evolve(
            build_subspace(1),
            constant(g_a),
            constant(g_b),
            AmplitudeVector.basis_state("100"),
            0.0,
            duration,
        )
        want = logical_unitary(g_a * duration, g_b * duration)[:, 0]
        np.testing.assert_allclose(traj.amplitudes[-1], want, atol=1e-8)

    def test_entangler_transit(self, fig_family):
        profile = GenericProfile(fig_family)
        companion = drive_pair(profile, 0.414)[1]
        t0, t1 = profile.window
        traj = evolve(
            build_subspace(1),
            profile,
            companion,
            AmplitudeVector.basis_state("100"),
            t0,
            t1,
        )
        probs = traj.probabilities()[-1]
        assert probs[0] == pytest.approx(0.5, abs=0.02)
        assert probs[1] == pytest.approx(0.5, abs=0.02)
        assert probs[2] <= 0.02

    def test_agrees_with_closed_form_for_random_profiles(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            lattice = rng.uniform(3e-7, 1e-6)
            family = generic_family().__class__(
                omega0=rng.uniform(2e9, 2e10),
                path_half_length=rng.uniform(5, 12) * lattice,
                defect_radius=rng.uniform(0.5, 2.0) * lattice,
                lattice_const=lattice,
                velocity=rng.uniform(150, 650),
                zeta=rng.uniform(0, math.pi / 3),
            )
            p = rng.uniform(-1.0, 1.0)
            profile = GenericProfile(family)
            t0, t1 = profile.window
            traj = evolve(
                build_subspace(1),
                profile,
                drive_pair(profile, p)[1],
                AmplitudeVector.basis_state("100"),
                t0,
                t1,
                n_points=2,
            )
            g_a = pulse_area(profile)
            want = amplitudes(g_a, p * g_a)
            err = np.max(np.abs(traj.amplitudes[-1] - np.array(want)))
            assert err < 1e-6

    def test_diagnostic_keys(self, fig_family):
        profile = GenericProfile(fig_family)
        t0, t1 = profile.window
        traj = evolve(
            build_subspace(1),
            profile,
            drive_pair(profile, 0.414)[1],
            AmplitudeVector.basis_state("100"),
            t0,
            t1,
        )
        # evolve owns the stepping loop, so accepted steps and spans are exact
        assert set(traj.diagnostics) == {
            "nfev", "n_steps", "n_spans", "rtol", "atol", "method", "norm_drift"
        }
        assert traj.diagnostics["nfev"] > traj.diagnostics["n_steps"] > 0
        assert traj.diagnostics["n_spans"] == 2  # split at the envelope peak
        assert traj.diagnostics["method"] == "DOP853"
        assert traj.diagnostics["norm_drift"] == traj.norm_drift

    def test_norm_preserved(self, fig_family):
        profile = GenericProfile(fig_family)
        t0, t1 = profile.window
        traj = evolve(
            build_subspace(1),
            profile,
            drive_pair(profile, 0.414)[1],
            AmplitudeVector.basis_state("100"),
            t0,
            t1,
        )
        assert traj.norm_drift <= 1e-8

    def test_time_reversal(self, fig_family):
        profile = GenericProfile(fig_family)
        t0, t1 = profile.window
        forward = evolve(
            build_subspace(1),
            profile,
            drive_pair(profile, 0.7)[1],
            AmplitudeVector.basis_state("100"),
            t0,
            t1,
            n_points=2,
        )
        # c times the profile at t0 + t1 - T, with no breakpoints reported
        x = "({p}V * ({p}s - T) - {p}L)"
        expr = "{p}c * {p}W * {p}exp(-abs(" + x + ") / {p}R) * {p}cos({p}PI * " + x + " / {p}l)"
        params = profile.params
        terms = dict(V=params.velocity, s=t0 + t1, L=params.path_half_length,
                     W=params.omega0 * math.cos(params.zeta), R=params.defect_radius,
                     l=params.lattice_const, exp=math.exp, cos=math.cos, PI=math.pi)
        back = evolve(
            build_subspace(1),
            Formula(expr, c=-1.0, **terms),
            Formula(expr, c=-0.7, **terms),
            AmplitudeVector(1, forward.amplitudes[-1]),
            t0,
            t1,
            n_points=2,
        )
        np.testing.assert_allclose(
            back.amplitudes[-1], AmplitudeVector.basis_state("100").amplitudes, atol=1e-6
        )

    def test_tightening_tolerances_reduces_error(self):
        g_a, g_b, duration = 1.1e9, 0.6e9, 3.0e-9
        h = build_subspace(1)
        want = expm_unitary(h.matrix(g_a, g_b), duration) @ np.array([1.0, 0.0, 0.0])

        def error_at(rtol, atol):
            traj = evolve(
                h,
                constant(g_a),
                constant(g_b),
                AmplitudeVector.basis_state("100"),
                0.0,
                duration,
                rtol=rtol,
                atol=atol,
                n_points=2,
            )
            return float(np.max(np.abs(traj.amplitudes[-1] - want)))

        loose = error_at(1e-6, 1e-8)
        tight = error_at(1e-11, 1e-13)
        assert tight < loose

    def test_non_finite_coupling_fails_with_time(self):
        with pytest.raises(ConvergenceError) as err:
            evolve(
                build_subspace(1),
                nan_after(0.5e-9, 1e9),
                constant(0.0),
                AmplitudeVector.basis_state("100"),
                0.0,
                1e-9,
            )
        assert err.value.t is not None

    @pytest.mark.parametrize("key, value", [
        ("rtol", 1e-30), ("rtol", math.nextafter(ode.MIN_RTOL, 0.0)), ("rtol", math.nan),
        ("atol", 1e-300), ("atol", math.nextafter(ode.MIN_ATOL, 0.0)), ("atol", 0.0),
    ])
    def test_tolerance_below_its_floor_is_refused(self, key, value):
        psi0 = AmplitudeVector.basis_state("100")
        with pytest.raises(ValueError, match=f"{key} must be at least"):
            evolve(build_subspace(1), constant(1e9), constant(0.0), psi0, 0.0, 1e-9,
                   **{key: value})
        with pytest.raises(ValueError, match=f"{key} must be at least"):
            final_states(constant(1e9), constant(0.0), [psi0], 0.0, 1e-9, **{key: value})

    def test_tolerances_at_their_floors_run(self):
        g_a, g_b, duration = 0.9e9, -0.5e9, 2.3e-9
        h = build_subspace(1)
        psi0 = AmplitudeVector.basis_state("100")
        traj = evolve(h, constant(g_a), constant(g_b), psi0, 0.0, duration,
                      rtol=ode.MIN_RTOL, atol=ode.MIN_ATOL, n_points=3)
        want = expm_unitary(h.matrix(g_a, g_b), duration) @ psi0.amplitudes
        np.testing.assert_allclose(traj.amplitudes[-1], want, rtol=0, atol=1e-12)

    def test_subspace_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evolve(
                build_subspace(2),
                constant(0.0),
                constant(0.0),
                AmplitudeVector.basis_state("100"),
                0.0,
                1.0,
            )


class TestConstantDrives:
    """Constant drives that report no breakpoints integrate as one span."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_real_constants_match_expm(self, n):
        g_a, g_b, duration = 0.9e9, -0.5e9, 2.3e-9
        h = build_subspace(n)
        psi0 = AmplitudeVector(n, np.eye(h.dim)[0])
        traj = evolve(h, constant(g_a), constant(g_b), psi0, 0.0, duration, n_points=5)
        want = expm_unitary(h.matrix(g_a, g_b), duration) @ psi0.amplitudes
        np.testing.assert_allclose(traj.amplitudes[-1], want, rtol=0, atol=1e-9)
        assert traj.diagnostics["n_spans"] == 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_complex_constants_match_expm(self, n):
        g_a, g_b, duration = (0.6 + 0.7j) * 1e9, (-0.2 + 0.4j) * 1e9, 2.3e-9
        h = build_subspace(n)
        psi0 = AmplitudeVector(n, np.eye(h.dim)[-1])
        traj = evolve(h, constant(g_a), constant(g_b), psi0, 0.0, duration, n_points=5)
        want = expm_unitary(h.matrix(g_a, g_b), duration) @ psi0.amplitudes
        np.testing.assert_allclose(traj.amplitudes[-1], want, rtol=0, atol=1e-9)
        assert traj.diagnostics["n_spans"] == 1

    def test_nan_in_a_built_drive_fails_with_time(self):
        trace = CouplingTrace([0.0, 1e-9, 2e-9], [1e9, 2e9, 1e9])
        drive_a, _, _ = drive_pair(trace, 1.0)
        with pytest.raises(ConvergenceError) as err:
            evolve(build_subspace(2), drive_a, nan_after(1.5e-9, 0.0),
                   AmplitudeVector.basis_state("110"), 0.0, 2e-9)
        assert 1.5e-9 < err.value.t <= 2e-9


class TestDrivesWithoutFormula:
    """A drive that states no formula is refused with TypeError before any step."""

    @pytest.mark.parametrize("atom", [0, 1], ids=["atom-a", "atom-b"])
    def test_bare_callable(self, atom):
        drives = [constant(2e9), constant(1e9)]
        drives[atom] = lambda t: 1e9
        psi0 = AmplitudeVector.basis_state("100")
        with mock.patch.object(DOP853, "step", side_effect=AssertionError("the ODE ran")):
            with pytest.raises(TypeError, match="type function"):
                evolve(build_subspace(1), *drives, psi0, 0.0, 1e-9)
            for states in ([psi0], [AmplitudeVector.basis_state("000")]):
                with pytest.raises(TypeError, match="type function"):
                    final_states(*drives, states, 0.0, 1e-9)

    def test_scaled_bare_callable(self):
        # atom B over a callable, beside a different atom A
        with pytest.raises(TypeError, match="type function"):
            evolve(build_subspace(1), constant(2e9), ScaledProfile(lambda t: 1e9, 0.5),
                   AmplitudeVector.basis_state("100"), 0.0, 1e-9)

    def test_drive_pair_of_a_bare_callable(self):
        with pytest.raises(TypeError, match="type function"):
            drive_pair(lambda t: 1e9, 0.5)


def kinked_trace(n: int, delta: float, g0: float = 4e9, duration: float = 1e-9) -> CouplingTrace:
    """A complex trace whose middle segment passes delta * g0 from zero, with
    |g| curving sharply there and bending at every sample."""
    u = np.linspace(-1.0, 1.0, n)
    values = g0 * (u * np.exp(-2 * u**2) + 1j * delta * np.cos(3 * u))
    return CouplingTrace(np.linspace(0.0, duration, n), values)


def zero_crossing_trace(n: int, g0: float = 4e9, duration: float = 1e-9) -> CouplingTrace:
    """A real trace that crosses zero inside its sample intervals."""
    u = np.linspace(-1.0, 1.0, n) + 0.3 / (n - 1)
    return CouplingTrace(np.linspace(0.0, duration, n), g0 * np.sin(4 * u) * np.exp(-(u**2)))


class TestKinkedTraces:
    """|g| of a trace bends at every sample, where a real trace crosses zero,
    and where a complex one passes near it; stepping span by span between
    those points follows the exact |linear interpolant| areas at every
    output point."""

    @pytest.mark.parametrize(
        "trace, p, initial",
        [
            (kinked_trace(201, 1e-2), 0.414, "100"),
            (kinked_trace(201, 1e-4), -0.7, "010"),
            (kinked_trace(81, 1e-3), 0.414, "100"),
            (zero_crossing_trace(201), 0.414, "010"),
            (zero_crossing_trace(41), -0.7, "100"),
        ],
        ids=["complex-1e-2", "complex-1e-4", "complex-81", "real-201", "real-41"],
    )
    def test_synthesized_trace_matches_exact_areas(self, trace, p, initial):
        drive_a, drive_b, c = drive_pair(trace, p)
        t0, t1 = trace.window
        traj = evolve(build_subspace(1), drive_a, drive_b, AmplitudeVector.basis_state(initial),
                      t0, t1)
        want = analytic_trajectory(drive_a, c, traj.times, initial)
        assert np.max(np.abs(traj.amplitudes - want)) <= 1e-8

    @pytest.mark.parametrize("initial", ["100", "010"])
    def test_bundled_field3d_transit_matches_exact_areas(self, field3d_trace, field3d_config,
                                                         initial):
        drive_a, drive_b, c = drive_pair(field3d_trace, field3d_config["p"])
        t0, t1 = field3d_trace.window
        traj = evolve(build_subspace(1), drive_a, drive_b, AmplitudeVector.basis_state(initial),
                      t0, t1)
        want = analytic_trajectory(drive_a, c, traj.times, initial)
        assert np.max(np.abs(traj.amplitudes - want)) <= 1e-9
        assert traj.diagnostics["n_spans"] > field3d_trace.times.size - 2


# ---------------------------------------------------------------------------
# several states in one integration
# ---------------------------------------------------------------------------

BATCHES = [("100", "010", "110", "000"), ("110", "000", "100"), ("000", "010", "100"), ("000",)]


def check_batch(profile, p: float, batch) -> None:
    """One stacked run against each state's own evolve (1e-9) and against the
    propagator's column (1e-8); proportional drives make the propagator a
    function of the two pulse areas."""
    drive_a, drive_b, _ = drive_pair(profile, p)
    areas = (pulse_area(drive_a), pulse_area(drive_b))
    unitaries = {0: np.eye(1), 1: logical_unitary(*areas), 2: two_excitation_unitary(*areas)}
    initials = [AmplitudeVector.basis_state(label) for label in batch]
    finals = final_states(drive_a, drive_b, initials, *profile.window)
    assert len(finals) == len(batch)
    for label, psi, got in zip(batch, initials, finals):
        assert got.dtype == complex and got.shape == psi.amplitudes.shape
        own = evolve(build_subspace(psi.n_excitations), drive_a, drive_b, psi, *profile.window,
                     n_points=2)
        assert np.max(np.abs(got - own.amplitudes[-1])) <= 1e-9, label
        column = unitaries[psi.n_excitations][:, psi.basis_labels.index(label)]
        assert np.max(np.abs(got - column)) <= 1e-8, label


class TestFinalStates:
    @pytest.mark.parametrize("batch", BATCHES, ids="-".join)
    @pytest.mark.parametrize("velocity, p", [(438.0, 0.414), (300.0, -0.7)])
    def test_generic_drive(self, batch, velocity, p):
        check_batch(GenericProfile(generic_family(velocity=velocity)), p, batch)

    @pytest.mark.parametrize("batch", BATCHES[:2], ids="-".join)
    def test_bundled_field3d_trace(self, field3d_trace, field3d_config, batch):
        check_batch(field3d_trace, field3d_config["p"], batch)

    def test_stationary_block_leaves_the_others_alone(self):
        # Z at p = 0: atom B is not driven, so |010> does not move.  The step
        # control takes the largest block norm, so stacking it changes no step
        # and |100> comes out bit for bit as when integrated alone.
        family = generic_family()
        profile = GenericProfile(family).at_velocity(calibrate_velocity(family, 0.0, "Z"))
        drive_a, drive_b, _ = drive_pair(profile, 0.0)
        rail_a, rail_b = (AmplitudeVector.basis_state(label) for label in ("100", "010"))
        (alone,) = final_states(drive_a, drive_b, [rail_a], *profile.window)
        stacked = final_states(drive_a, drive_b, [rail_a, rail_b], *profile.window)
        np.testing.assert_array_equal(stacked[1], rail_b.amplitudes)
        np.testing.assert_array_equal(stacked[0], alone)
        assert alone[0].real < -0.99  # the excitation went round: Z's sign

    def test_nan_drive_fails_with_time(self):
        trace = CouplingTrace([0.0, 1e-9, 2e-9], [1e9, 2e9, 1e9])
        drive_a, _, _ = drive_pair(trace, 1.0)
        initials = [AmplitudeVector.basis_state(label) for label in ("100", "110")]
        with pytest.raises(ConvergenceError) as err:
            final_states(drive_a, nan_after(1.5e-9, 0.0), initials, 0.0, 2e-9)
        assert 1.5e-9 < err.value.t <= 2e-9

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            final_states(constant(1e9), constant(1e9), [], 0.0, 1e-9)


class TestAreaBound:
    """Every run of a drive pair refuses an area past MAX_AREA before any step."""

    @pytest.fixture
    def slow(self):
        # the bundled entangler at 0.433 m/s: 55k steps, some 3 s, unbounded
        config = json.loads(example_config_path("entangler_generic").read_text())
        profile = GenericProfile(GenericProfileParams(**{**config["profile"], "velocity": 0.433}))
        return profile, config["p"]

    @pytest.fixture(params=["drive_pair", "built_apart"])
    def drives(self, request, slow):
        profile, p = slow
        if request.param == "drive_pair":
            return drive_pair(profile, p)[:2]
        return drive_from_profile(profile), drive_from_profile(scaled_pair(profile, p))

    def test_evolve_refuses(self, slow, drives):
        psi0 = AmplitudeVector.basis_state("100")
        with mock.patch.object(DOP853, "step", side_effect=AssertionError("the ODE ran")):
            with pytest.raises(ValueError, match="MAX_AREA"):
                evolve(build_subspace(1), *drives, psi0, *slow[0].window)

    def test_final_states_refuses(self, slow, drives):
        initials = [AmplitudeVector.basis_state(label) for label in ("100", "110")]
        with mock.patch.object(DOP853, "step", side_effect=AssertionError("the ODE ran")):
            with pytest.raises(ValueError, match="MAX_AREA"):
                final_states(*drives, initials, *slow[0].window)


# ---------------------------------------------------------------------------
# two-excitation return
# ---------------------------------------------------------------------------

def return_110(g_a, g_b, t0, t1, **tolerances):
    """|<110|psi(t1)>|^2 for |110> under the drives, through final_states."""
    (final,) = final_states(g_a, g_b, [AmplitudeVector.basis_state("110")], t0, t1, **tolerances)
    return float(abs(final[0]) ** 2)


class TestTwoExcitationReturn:
    def test_zero_couplings(self):
        silent = CouplingTrace([0.0, 1e-8], [0.0, 0.0])
        drive_a, drive_b, _ = drive_pair(silent, 1.0)
        assert return_110(drive_a, drive_b, *silent.window) == pytest.approx(1.0, abs=1e-12)

    def test_constant_equal_couplings_against_oracles(self):
        # rail condition: sqrt(2) g T = pi at one excitation
        g = 1.0e9
        duration = math.pi / (math.sqrt(2) * g)
        got = return_110(constant(g), constant(g), 0.0, duration)
        # eigendecomposition oracle on the 4x4 generator
        h2 = build_subspace(2).matrix(g, g)
        amp = expm_unitary(h2, duration)[0, 0]
        assert got == pytest.approx(float(abs(amp) ** 2), abs=1e-8)
        # frozen analytic value: ((2 + cos(sqrt(3) pi)) / 3)^2
        frozen = ((2 + math.cos(math.sqrt(3) * math.pi)) / 3) ** 2
        assert got == pytest.approx(frozen, abs=1e-8)

    def test_vacuum_subspace_is_trivial(self):
        psi0 = AmplitudeVector.basis_state("000")
        traj = evolve(
            build_subspace(0), constant(1e9), constant(1e9), psi0, 0.0, 1e-8
        )
        np.testing.assert_allclose(traj.amplitudes[-1], [1.0], atol=1e-15)

    def test_profile_based_return_matches_area_matched_oracle(self, fig_family):
        # proportional profiles make the two-excitation propagator a pure
        # function of the areas, so the matrix exponential of the area-built
        # generator is an exact oracle for the shaped pulse as well
        profile = GenericProfile(generic_family(velocity=572.0))
        drive_a, drive_b, _ = drive_pair(profile, 1.0)
        got = return_110(drive_a, drive_b, *profile.window, rtol=1e-11, atol=1e-13)
        area = pulse_area(profile)
        h2 = build_subspace(2).matrix(area, area)
        amp = expm_unitary(h2, 1.0)[0, 0]
        assert got == pytest.approx(float(abs(amp) ** 2), abs=1e-8)


class TestTrajectoryExport:
    def test_csv_layout(self, tmp_path, fig_family):
        profile = GenericProfile(fig_family)
        t0, t1 = profile.window
        traj = evolve(
            build_subspace(1),
            profile,
            drive_pair(profile, 0.414)[1],
            AmplitudeVector.basis_state("100"),
            t0,
            t1,
            n_points=50,
        )
        path = trajectory_to_csv(traj, tmp_path / "traj.csv")
        rows = csv_rows(path)
        assert ",".join(rows[0]) == (
            "time_s,prob_100,prob_010,prob_001,"
            "re_100,im_100,re_010,im_010,re_001,im_001"
        )
        assert len(rows) == 51
        # every float reads back bit-identical
        data = np.array(rows[1:], dtype=float)
        np.testing.assert_array_equal(data[:, 0], traj.times)
        np.testing.assert_array_equal(data[:, 1:4], traj.probabilities())
        np.testing.assert_array_equal(data[:, 4::2], traj.amplitudes.real)
        np.testing.assert_array_equal(data[:, 5::2], traj.amplitudes.imag)
        assert data[0, 1] == pytest.approx(1.0)
