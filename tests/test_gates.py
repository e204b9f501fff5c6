import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import pcqed
from pcqed.core import AmplitudeVector, CalibrationError, CavityParams, photon_lifetime
from pcqed.coupling import CouplingTrace, GenericProfile, pulse_area
from pcqed.analytic import amplitudes, logical_unitary
from pcqed.fieldgrid import PathSpec, coupling_trace_from_field, synthesize_mode
from pcqed.gates import (
    ENTANGLER_HADAMARD,
    GateSettings,
    GateTarget,
    IDENTITY,
    NOT,
    SWAP,
    Z,
    calibrate_velocity,
    truth_table,
)

from pcqed.cli import main

from conftest import (
    LATTICE_2D,
    OMEGA_GENERIC,
    OMEGA_MM,
    generic_family,
)
from oracles import effective_interaction_time, example_config_path, odd_multiple_walk

P_STAR = math.sqrt(2.0) - 1.0
RATIO_NOT_TO_HADAMARD = math.sqrt(2.0) / math.hypot(1.0, 0.414)


class TestFidelity:
    """|<target|state>|^2, as truth_table takes it from the overlap."""

    def test_identical_states(self):
        psi = AmplitudeVector(1, np.array([0.6, 0.8j, 0.0]))
        assert abs(psi.overlap(psi)) ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_kets(self):
        a = AmplitudeVector.basis_state("100")
        b = AmplitudeVector.basis_state("010")
        assert abs(a.overlap(b)) ** 2 == 0.0

    def test_basis_mismatch_rejected(self):
        with pytest.raises(ValueError, match="basis mismatch"):
            AmplitudeVector.basis_state("100").overlap(AmplitudeVector.basis_state("110"))

    def test_entangler_output_against_bell_target(self):
        target = AmplitudeVector(1, np.array([1.0, 1.0, 0.0]) / math.sqrt(2))
        # exact ratio: the overlap is 1 up to rounding
        g_a = math.pi / math.hypot(1.0, P_STAR)
        state = AmplitudeVector(1, amplitudes(g_a, P_STAR * g_a))
        assert abs(state.overlap(target)) ** 2 == pytest.approx(1.0, abs=1e-10)
        # quoted three-digit ratio: still essentially perfect
        g_a = math.pi / math.hypot(1.0, 0.414)
        state = AmplitudeVector(1, amplitudes(g_a, 0.414 * g_a))
        assert abs(state.overlap(target)) ** 2 >= 0.9999


class TestGateTarget:
    @pytest.mark.parametrize("rail_map", [
        (("10", (1.0, 0.0)), ("10", (0.0, 1.0))),
        (("10", (1.0, 0.0)), ("11", (0.0, 1.0))),
        (("10", (1.0, 0.0)),),
        (("10", (1.0, 0.0, 0.0)), ("01", (0.0, 1.0, 0.0))),
    ], ids=["repeated-rail", "outer-label", "one-rail", "triples"])
    def test_rail_map_must_cover_exactly_the_two_rails(self, rail_map):
        with pytest.raises(ValueError, match="two rail inputs"):
            GateTarget("X", rail_map)

    def test_rail_order_is_free(self):
        flipped = GateTarget("NOT", (("01", (1.0, 0.0)), ("10", (0.0, 1.0))))
        report = truth_table(dataclasses.replace(settings_for(NOT, 1.0, 433.0), target=flipped),
                             "analytic")
        assert list(report.fidelities) == ["01", "10"]
        assert report.classified_label == "NOT"


class TestCalibrateVelocity:
    def test_entangler_velocity(self, fig_family):
        v = calibrate_velocity(fig_family, 0.414, "ENTANGLER_HADAMARD")
        assert v == pytest.approx(433.0, rel=0.03)

    def test_rail_swap_velocity(self, fig_family):
        v = calibrate_velocity(fig_family, 1.0, "NOT")
        assert v == pytest.approx(565.0, rel=0.03)

    def test_velocity_ratio_is_exact(self, fig_family):
        v_had = calibrate_velocity(fig_family, 0.414, "ENTANGLER_HADAMARD")
        v_not = calibrate_velocity(fig_family, 1.0, "NOT")
        assert v_not / v_had == pytest.approx(RATIO_NOT_TO_HADAMARD, rel=1e-9)

    def test_quoted_velocity_pairs_consistent(self):
        # one calibrated family, three quoted operating pairs
        for v_had, v_not, tol in ((433.0, 565.0, 0.015), (374.0, 490.0, 0.015), (353.0, 459.0, 0.015)):
            assert v_had * RATIO_NOT_TO_HADAMARD == pytest.approx(v_not, rel=tol)

    def test_peak_rabi_scales_velocity(self, fig_family):
        doubled = generic_family().__class__(
            omega0=2 * fig_family.omega0,
            path_half_length=fig_family.path_half_length,
            defect_radius=fig_family.defect_radius,
            lattice_const=fig_family.lattice_const,
            velocity=fig_family.velocity,
            zeta=fig_family.zeta,
        )
        v1 = calibrate_velocity(fig_family, 1.0, "NOT", v_bounds=(100.0, 1300.0))
        v2 = calibrate_velocity(doubled, 1.0, "NOT", v_bounds=(100.0, 1300.0))
        assert v2 == pytest.approx(2 * v1, rel=1e-12)

    def test_phase_flip_calibration(self, fig_family):
        v = calibrate_velocity(fig_family, 0.0, "Z")
        # single-atom area pi condition
        assert 150 <= v <= 650

    def test_ratio_mismatch_rejected(self, fig_family):
        with pytest.raises(ValueError):
            calibrate_velocity(fig_family, 0.5, "ENTANGLER_HADAMARD")
        with pytest.raises(ValueError):
            calibrate_velocity(fig_family, 0.9, "NOT")

    def test_nan_ratio_rejected_by_name(self, fig_family):
        # abs(nan - 1) > tol is False: the ratio must pass the test, not fail it.
        with pytest.raises(ValueError, match="needs coupling ratio p = 1.00000.*got nan"):
            calibrate_velocity(fig_family, math.nan, "NOT")

    def test_custom_target_uses_its_own_ratio(self, fig_family):
        # labelled NOT, but its condition is the one at p = 0.5, not NOT's p = 1
        half = GateTarget("NOT", NOT.rail_map, p=0.5)
        v = calibrate_velocity(fig_family, 0.5, half)
        odd = pulse_area(GenericProfile(fig_family).at_velocity(v)) * math.hypot(1.0, 0.5) / math.pi
        assert abs(math.remainder(odd - 1.0, 2.0)) <= 1e-8
        with pytest.raises(ValueError, match=r"target NOT needs coupling ratio p = 0\.50000"):
            calibrate_velocity(fig_family, 1.0, half)
        with pytest.raises(ValueError, match="no calibration condition for target 'NOT'"):
            calibrate_velocity(fig_family, 1.0, GateTarget("NOT", NOT.rail_map))

    @pytest.mark.parametrize("target", ["IDENTITY", IDENTITY, "CNOT"],
                             ids=["identity-label", "identity-target", "unknown-label"])
    def test_target_without_condition_rejected_by_name(self, fig_family, target):
        label = getattr(target, "label", target)
        with pytest.raises(ValueError, match=f"no calibration condition for target '{label}'"):
            calibrate_velocity(fig_family, 1.0, target)

    def test_no_solution_reports_candidates(self, fig_family):
        with pytest.raises(CalibrationError) as err:
            calibrate_velocity(fig_family, 0.414, "ENTANGLER_HADAMARD", v_bounds=(150.0, 160.0))
        assert len(err.value.candidates) > 0

    def test_trace_family(self, fig_family):
        profile = GenericProfile(fig_family)
        t0, t1 = profile.window
        ts = np.linspace(t0, t1, 4001)
        trace = CouplingTrace(ts, np.abs(profile(ts)), velocity=fig_family.velocity)
        v = calibrate_velocity(trace, 1.0, "NOT", v_bounds=(150.0, 3000.0))
        # magnitude drive has no sign cancellation: much larger area, so a
        # higher odd multiple (same 1/V law)
        assert 150.0 <= v <= 3000.0

    def test_trace_without_velocity_rejected(self):
        trace = CouplingTrace([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            calibrate_velocity(trace, 1.0, "NOT")

    @pytest.mark.parametrize("target, p", [("ENTANGLER_HADAMARD", 0.414), ("NOT", 1.0), ("Z", 0.0)])
    def test_profile_and_params_calibrate_alike(self, fig_family, target, p):
        by_params = calibrate_velocity(fig_family, p, target)
        assert calibrate_velocity(GenericProfile(fig_family), p, target) == by_params

    def test_other_family_rejected(self, fig_family):
        with pytest.raises(TypeError):
            calibrate_velocity(fig_family.velocity, 1.0, "NOT")

    def test_non_finite_area_refused(self, fig_family):
        # an atom this slow spends an unbounded time in the mode
        with pytest.raises(CalibrationError, match="non-finite pulse area"):
            calibrate_velocity(dataclasses.replace(fig_family, velocity=1e-300), 1.0, "NOT")


def solve_both_ways(lam_at_v, v_lo, v_hi):
    """The closed form's and the walk's outcome: a velocity, or the refusal and its candidates."""
    outcomes = []
    for solve in (pcqed.gates._fastest_odd_multiple, odd_multiple_walk):
        try:
            outcomes.append(solve(lam_at_v, v_lo, v_hi))
        except CalibrationError as exc:
            outcomes.append((str(exc), exc.candidates))
    return outcomes


class TestFastestOddMultiple:
    """The one-step odd multiple against the walk over k = 0, 1, 2, ..., bit for bit."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        v_hi=st.floats(1e-3, 1e4),
        ratio=st.floats(1e-3, 1.0, exclude_max=True),
        k=st.integers(0, 3000),
        hit=st.sampled_from(["v_lo", "v_hi", None]),
        frac=st.floats(0.0, 2.0),
    )
    @example(v_hi=650.0, ratio=150.0 / 650.0, k=0, hit="v_hi", frac=0.0)
    @example(v_hi=650.0, ratio=150.0 / 650.0, k=7, hit="v_lo", frac=0.0)
    def test_matches_walk(self, v_hi, ratio, k, hit, frac):
        v_lo = ratio * v_hi
        # (2k + 1) pi exactly on a bound, up to the rounding of the product,
        # or anywhere from 2k pi to (2k + 2) pi at v_hi
        on = {"v_lo": v_lo, "v_hi": v_hi}
        lam_at_v = (2 * k + 1) * math.pi * on[hit] if hit else (2 * k + frac) * math.pi * v_hi
        assume(lam_at_v > 0)
        got, want = solve_both_ways(lam_at_v, v_lo, v_hi)
        assert got == want

    def test_too_many_odd_multiples_refused(self):
        with pytest.raises(CalibrationError, match="not distinct"):
            pcqed.gates._fastest_odd_multiple(2.0**53 * math.pi * 650.0, 150.0, 650.0)


def settings_for(target, p, fig_velocity, engine_q=1e8):
    family = generic_family(velocity=fig_velocity)
    v = calibrate_velocity(family, p, target)
    profile = GenericProfile(family).at_velocity(v)
    return GateSettings(
        target=target,
        profile_a=profile,
        p=p,
        velocity=v,
        omega_cav=OMEGA_GENERIC,
        q_factor=engine_q,
    )


class TestTruthTable:
    def test_analytic_rails_share_one_propagator(self, monkeypatch):
        built = []

        def counting(g_a, g_b):
            built.append((g_a, g_b))
            return logical_unitary(g_a, g_b)

        monkeypatch.setitem(pcqed.gates._PROPAGATORS, 1, counting)
        report = truth_table(settings_for(NOT, 1.0, 433.0), "analytic")
        assert len(built) == 1
        assert report.classified_label == "NOT"

    @pytest.mark.parametrize("engine", ["analytic", "ode"])
    def test_entangler(self, engine):
        report = truth_table(settings_for(ENTANGLER_HADAMARD, 0.414, 433.0), engine)
        assert report.fidelities["10"] >= 0.99
        assert report.fidelities["01"] >= 0.99
        assert report.global_phase == pytest.approx(math.pi, abs=0.05)
        assert abs(report.relative_phases["01"]) <= 0.05
        assert report.classified_label == "ENTANGLER_HADAMARD"

    @pytest.mark.parametrize("engine", ["analytic", "ode"])
    def test_rail_swap(self, engine):
        report = truth_table(settings_for(NOT, 1.0, 433.0), engine)
        assert report.fidelities["10"] >= 0.99
        assert report.fidelities["01"] >= 0.99
        assert report.classified_label == "NOT"

    def test_phase_flip(self):
        report = truth_table(settings_for(Z, 0.0, 433.0), "analytic")
        assert report.fidelities["10"] >= 0.99
        assert report.fidelities["01"] >= 0.99
        assert report.classified_label == "Z"
        # -|10>, +|01> relative to the target's own signs: phases agree
        assert abs(report.relative_phases["01"]) <= 1e-6

    def test_swap_reports_outer_inputs(self):
        report = truth_table(settings_for(SWAP, 1.0, 433.0), "ode")
        assert report.classified_label == "SWAP"
        assert report.fidelities["00"] == 1.0
        # measured double-excitation return: (2 + cos(sqrt(3) pi))^2 / 9
        frozen = ((2 + math.cos(math.sqrt(3) * math.pi)) / 3) ** 2
        assert report.fidelities["11"] == pytest.approx(frozen, abs=1e-6)
        assert any("measured" in note for note in report.notes)
        # the no-excitation input keeps phase 0 while the rails flip sign
        assert abs(abs(report.relative_phases["00"]) - math.pi) <= 0.05

    @pytest.mark.parametrize("engine, tol", [("analytic", 1e-12), ("ode", 1e-8)])
    @pytest.mark.parametrize("detuning", [1.0, 1.3])
    def test_swap_no_excitation_row_is_measured(self, monkeypatch, engine, tol, detuning):
        # |00> runs through the engine like every other input; off the
        # operating point the rails leave a visible photon residual
        settings = settings_for(SWAP, 1.0, 433.0)
        v = detuning * settings.velocity
        settings = dataclasses.replace(settings, profile_a=settings.profile_a.at_velocity(v),
                                       velocity=v)
        integrated = []
        real = pcqed.gates.final_states

        def recording(g_a, g_b, states, *args, **kwargs):
            integrated.extend(psi.basis_labels for psi in states)
            return real(g_a, g_b, states, *args, **kwargs)

        monkeypatch.setattr(pcqed.gates, "final_states", recording)
        report = truth_table(settings, engine)
        if engine == "ode":
            assert ("000",) in integrated and len(integrated) == 4
        assert list(report.fidelities) == ["10", "01", "00", "11"]
        assert report.fidelities["00"] == 1.0
        assert report.residual_cavity["00"] == 0.0
        assert report.relative_phases["00"] == -report.global_phase
        g_a, g_b = report.pulse_area_a, report.pulse_area_b
        for label, areas in (("10", (g_a, g_b)), ("01", (g_b, g_a))):
            gamma = amplitudes(*areas)[2]
            assert report.residual_cavity[label] == pytest.approx(abs(gamma) ** 2, rel=0, abs=tol)
            assert detuning == 1.0 or abs(gamma) ** 2 > 0.1

    def test_analytic_swap_matches_tight_ode(self):
        # the closed-form |11> block against DOP853 at rtol 1e-12
        settings = dataclasses.replace(settings_for(SWAP, 1.0, 433.0), rtol=1e-12, atol=1e-14)
        analytic = truth_table(settings, "analytic")
        ode = truth_table(settings, "ode")
        assert analytic.classified_label == "SWAP"
        for field in ("fidelities", "residual_cavity", "relative_phases"):
            got, want = getattr(analytic, field), getattr(ode, field)
            assert got.keys() == want.keys()
            for label in want:  # phases near +-pi compare modulo 2 pi
                assert abs(math.remainder(got[label] - want[label], 2 * math.pi)) <= 1e-9

    @pytest.mark.parametrize("target, p", [(ENTANGLER_HADAMARD, 0.414), (NOT, 1.0), (Z, 0.0),
                                           (SWAP, 1.0)], ids=lambda x: getattr(x, "label", x))
    def test_ode_engine_integrates_once(self, monkeypatch, target, p):
        # every input the report reads comes from one stacked DOP853 run,
        # which stays within 1e-8 of the closed forms at default tolerances
        built = []
        real = pcqed.ode.DOP853

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pcqed.ode, "DOP853", counting)
        settings = settings_for(target, p, 433.0)
        ode = truth_table(settings, "ode")
        assert len(built) == 1
        analytic = truth_table(settings, "analytic")
        for field in ("fidelities", "residual_cavity", "relative_phases"):
            got, want = getattr(ode, field), getattr(analytic, field)
            assert got.keys() == want.keys()
            for label in want:  # phases near +-pi compare modulo 2 pi
                assert abs(math.remainder(got[label] - want[label], 2 * math.pi)) <= 1e-8

    def test_ode_engine_refuses_an_area_past_its_bound(self, monkeypatch):
        # a velocity typed 1e4x too small: the ODE would take ~30 s
        def refuse(*args, **kwargs):
            raise AssertionError("the ODE ran")

        monkeypatch.setattr(pcqed.dop853.DOP853, "step", refuse)
        profile = GenericProfile(generic_family(velocity=0.0433))
        settings = GateSettings(target=NOT, profile_a=profile, p=1.0, velocity=0.0433,
                                omega_cav=OMEGA_GENERIC)
        with pytest.raises(ValueError, match="MAX_AREA"):
            truth_table(settings, "ode")
        assert truth_table(settings, "analytic").pulse_area_a == pulse_area(profile)

    def test_trace_area_is_bounded_exactly(self):
        # a trace of constant |g| = MAX_AREA rad/s over 1 s has that area exactly
        for value, ok in ((pcqed.ode.MAX_AREA, True),
                          (np.nextafter(pcqed.ode.MAX_AREA, np.inf), False)):
            trace = CouplingTrace([0.0, 1.0], [value, value], velocity=1.0)
            settings = GateSettings(target=Z, profile_a=trace, p=0.0, velocity=1.0,
                                    omega_cav=OMEGA_GENERIC)
            drive = pcqed.coupling.drive_from_profile(trace)
            if ok:
                assert pcqed.ode.check_area(drive, 0.0) == value
            else:
                with pytest.raises(ValueError, match="MAX_AREA"):
                    truth_table(settings, "ode")

    def test_misratioed_gate_declassified(self, fig_family):
        v = calibrate_velocity(fig_family, 1.0, "NOT")
        profile = GenericProfile(fig_family).at_velocity(v)
        report = truth_table(
            GateSettings(
                target=ENTANGLER_HADAMARD,
                profile_a=profile,
                p=1.0,
                velocity=v,
                omega_cav=OMEGA_GENERIC,
            ),
            "analytic",
        )
        assert report.classified_label is None

    def test_classification_is_global_phase_invariant(self):
        # same dynamics judged against a target rotated by a common phase
        rotated = GateTarget(
            "NOT", (("10", (0.0, -1.0)), ("01", (-1.0, 0.0)))
        )
        base = truth_table(settings_for(NOT, 1.0, 433.0), "analytic")
        settings = settings_for(NOT, 1.0, 433.0)
        settings = GateSettings(
            target=rotated,
            profile_a=settings.profile_a,
            p=settings.p,
            velocity=settings.velocity,
            omega_cav=settings.omega_cav,
        )
        flipped = truth_table(settings, "analytic")
        assert flipped.classified_label == "NOT"
        for key in ("10", "01"):
            assert flipped.fidelities[key] == pytest.approx(base.fidelities[key], abs=1e-12)
            assert abs(flipped.relative_phases[key]) == pytest.approx(
                abs(base.relative_phases[key]), abs=1e-9
            )
        assert abs(flipped.global_phase - base.global_phase) == pytest.approx(
            math.pi, abs=1e-9
        )

    def test_lifetime_margin_present(self):
        report = truth_table(settings_for(NOT, 1.0, 433.0), "analytic")
        tau = photon_lifetime(1e8, OMEGA_GENERIC)
        assert report.lifetime_margin == pytest.approx(tau / report.operation_time, rel=1e-12)

    def test_entangler_only_near_p_star(self, fig_family):
        # sweep the coupling ratio at the rail condition; the worst-case rail
        # fidelity peaks at the silver-ratio point
        ps = np.linspace(0.3, 0.5, 401)
        def min_fid(p):
            g_a = math.pi / math.hypot(1.0, p)
            u_col0 = amplitudes(g_a, p * g_a)
            out0 = AmplitudeVector(1, u_col0)
            t0 = AmplitudeVector(1, np.array([1, 1, 0]) / math.sqrt(2))
            u_col1 = amplitudes(p * g_a, g_a)  # exchange symmetry
            out1 = AmplitudeVector(1, [u_col1[1], u_col1[0], u_col1[2]])
            t1 = AmplitudeVector(1, np.array([1, -1, 0]) / math.sqrt(2))
            return min(abs(out0.overlap(t0)) ** 2, abs(out1.overlap(t1)) ** 2)

        fids = [min_fid(p) for p in ps]
        best = ps[int(np.argmax(fids))]
        assert abs(best - 0.41421) <= 0.005

    def test_full_rail_transfer_needs_equal_couplings(self):
        # |b| = (p / (1 + p^2)) |cos(Lambda) - 1| touches 1 only at p = 1 and
        # Lambda an odd multiple of pi; a grid search finds no other point
        ps = np.linspace(0.0, 1.0, 201)[:, None]
        lams = np.linspace(0.0, 4 * math.pi, 801)[None, :]
        b = (ps / (1 + ps**2)) * np.abs(np.cos(lams) - 1.0)
        assert float(np.max(b)) <= 1.0 + 1e-12
        near = np.argwhere(b >= 0.999)
        for i, j in near:
            assert abs(ps[i, 0] - 1.0) <= 0.05
            lam = lams[0, j]
            assert min(abs(lam - math.pi), abs(lam - 3 * math.pi)) <= 0.1


def transit_time(profile):
    """Length of a profile's window, which GateReport.operation_time reports."""
    t0, t1 = profile.window
    return t1 - t0


class TestTimes:
    def test_generic_transit(self, fig_family):
        t = transit_time(GenericProfile(fig_family))
        assert t == pytest.approx(2 * 10 * fig_family.lattice_const / 433.0, rel=1e-12)
        assert t == pytest.approx(29e-9, rel=0.02)

    def test_velocity_halves_time(self, fig_family):
        profile = GenericProfile(fig_family)
        fast = profile.at_velocity(866.0)
        assert transit_time(fast) == pytest.approx(transit_time(profile) / 2, rel=1e-12)

    def test_effective_interaction_under_20ns(self, fig_family):
        assert effective_interaction_time(fig_family) < 20e-9

    def test_millimeter_wave_transit(self):
        # ten lattice periods of a 2.202 mm crystal at 374 m/s, sampled from
        # a synthesized mode whose box holds the whole path
        h = 0.5 * LATTICE_2D
        grid = synthesize_mode("cavity2d", LATTICE_2D, LATTICE_2D, (25, 25, 1), (h, h, LATTICE_2D))
        path = PathSpec(
            entry=(-5 * LATTICE_2D, 0.0, 0.0),
            direction=(1.0, 0.0, 0.0),
            length=10 * LATTICE_2D,
            velocity=374.0,
        )
        cavity = CavityParams(omega_cav=OMEGA_MM, eps_m=12.0, mode_volume=1e-9, g0=2.765e6)
        t = transit_time(coupling_trace_from_field(grid, path, cavity))
        assert t == pytest.approx(path.length / path.velocity, rel=1e-12)
        assert 50e-6 <= t <= 60e-6

    def test_lifetime_margin_at_quality_1e8(self):
        tau = photon_lifetime(1e8, OMEGA_MM)
        hadamard_time = 10 * LATTICE_2D / 374.0
        assert tau / hadamard_time >= 5.0

    def test_report_takes_the_transit_time(self):
        settings = settings_for(NOT, 1.0, 433.0)
        report = truth_table(settings, "analytic")
        params = settings.profile_a.params
        assert report.operation_time == 2.0 * params.path_half_length / params.velocity

    def test_trace_report_takes_its_window(self, fig_family):
        profile = GenericProfile(fig_family)
        times = np.linspace(*profile.window, 801)
        trace = CouplingTrace(times + 1e-9, profile(times), velocity=fig_family.velocity)
        settings = GateSettings(target=NOT, profile_a=trace, p=1.0, velocity=fig_family.velocity,
                                omega_cav=OMEGA_GENERIC)
        report = truth_table(settings, "analytic")
        assert report.operation_time == trace.window[1] - trace.window[0]


class TestFieldTraceGate:
    def test_engines_agree_on_the_bundled_field3d_trace(self, field3d_trace, field3d_config):
        # both engines drive with |g|; the closed form takes its exact area
        settings = GateSettings(
            target=ENTANGLER_HADAMARD,
            profile_a=field3d_trace,
            p=field3d_config["p"],
            velocity=field3d_trace.velocity,
            omega_cav=field3d_config["omega_cav"],
        )
        analytic = truth_table(settings, "analytic")
        ode = truth_table(settings, "ode")
        assert analytic.pulse_area_a == ode.pulse_area_a
        for label in ("10", "01"):
            assert abs(analytic.fidelities[label] - ode.fidelities[label]) <= 1e-6


class TestAtomBArea:
    """Atom B's area is c times atom A's, c the ratio drive_pair returns."""

    @pytest.mark.parametrize("engine", ["analytic", "ode"])
    @pytest.mark.parametrize("scenario", ["generic", "trace"])
    def test_area_b_is_c_times_area_a(self, monkeypatch, field3d_trace, scenario, engine):
        # generic: B's dipole-angle drive integrates 5.6e-16 short of c g_a;
        # trace: B drives through |p g|, so c = |p|
        if scenario == "generic":
            profile, p, c = GenericProfile(generic_family(zeta=0.4)), 0.3, 0.3
        else:
            profile, p, c = field3d_trace, -0.7, 0.7
        areas = []
        real = pcqed.gates.pulse_area

        def counting(drive):
            areas.append(real(drive))
            return areas[-1]

        monkeypatch.setattr(pcqed.gates, "pulse_area", counting)
        settings = GateSettings(target=ENTANGLER_HADAMARD, profile_a=profile, p=p,
                                velocity=profile.velocity, omega_cav=OMEGA_GENERIC)
        report = truth_table(settings, engine)
        assert areas == [report.pulse_area_a]
        assert report.pulse_area_b == c * report.pulse_area_a

    @pytest.mark.parametrize("engine", ["analytic", "ode"])
    def test_non_finite_area_refused_before_the_engine_runs(self, monkeypatch, engine):
        def refuse(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(pcqed.gates, "final_states", refuse)
        monkeypatch.setitem(pcqed.gates._PROPAGATORS, 1, refuse)
        profile = GenericProfile(generic_family(velocity=1e-300))  # Omega0 / V overflows
        settings = GateSettings(target=NOT, profile_a=profile, p=1.0, velocity=1e-300,
                                omega_cav=OMEGA_GENERIC)
        with pytest.raises(ValueError, match="pulse areas must be finite"):
            truth_table(settings, engine)


class TestGateSettings:
    def test_velocity_must_be_the_profile_velocity(self, fig_family):
        profile = GenericProfile(fig_family)  # crossed at 433 m/s
        with pytest.raises(ValueError, match=r"velocity 500\.0 m/s .* own velocity 433\.0 m/s"):
            GateSettings(target=NOT, profile_a=profile, p=1.0, velocity=500.0,
                         omega_cav=OMEGA_GENERIC)
        trace = CouplingTrace([0.0, 1e-9], [1e9, 1e9], velocity=433.0)
        with pytest.raises(ValueError, match="own velocity 433"):
            GateSettings(target=NOT, profile_a=trace, p=1.0, velocity=500.0,
                         omega_cav=OMEGA_GENERIC)

    def test_profile_without_a_velocity_takes_the_given_one(self):
        trace = CouplingTrace([0.0, 1e-9], [1e9, 1e9])
        settings = GateSettings(target=NOT, profile_a=trace, p=1.0, velocity=500.0,
                                omega_cav=OMEGA_GENERIC)
        assert truth_table(settings, "analytic").velocity == 500.0


def test_analytic_engine_runs_no_ode(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the analytic engine ran the ODE")

    # both ways into the ODE are refused under every name; ode defines both,
    # and gates and cli are refused a name even where they do not bind it
    for module in (pcqed.ode, pcqed.gates, pcqed.cli):
        for name in ("evolve", "final_states"):
            monkeypatch.setattr(module, name, refuse, raising=module is pcqed.ode)
    with pytest.raises(AssertionError, match="ran the ODE"):
        truth_table(settings_for(SWAP, 1.0, 433.0), "ode")  # the refusal is in the ODE's way
    report = truth_table(settings_for(SWAP, 1.0, 433.0), "analytic")
    assert report.classified_label == "SWAP"
    assert report.fidelities["11"] == pytest.approx(((2 + math.cos(math.sqrt(3) * math.pi)) / 3) ** 2,
                                                    abs=1e-9)
    config = json.loads(example_config_path("entangler_generic").read_text())
    path = tmp_path / "entangler_generic.json"
    path.write_text(json.dumps({**config, "engine": "analytic"}))
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "entangler_generic_analytic.csv").exists()
