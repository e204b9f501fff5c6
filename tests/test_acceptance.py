"""Acceptance suite: the release criteria, each at its stated tolerance.

Every test prints one PASS/FAIL line (visible with ``pytest -rA``); a FAIL
line is always accompanied by the assertion that fails the test.
"""

import math
import time

import numpy as np
import pytest

from pcqed.core import AmplitudeVector, build_subspace, g0_from_params, photon_lifetime
from pcqed.coupling import GenericProfile, GenericProfileParams, drive_pair, pulse_area
from pcqed.analytic import amplitudes, logical_unitary
from pcqed.ode import evolve
from pcqed.fieldgrid import FieldGrid, mode_volume, polarization_fraction
from pcqed.gates import GateSettings, SWAP, calibrate_velocity, truth_table
from pcqed.sweep import surface

from conftest import LATTICE_2D, OMEGA_GENERIC, OMEGA_MM, generic_family
from oracles import effective_interaction_time, mode_volume_from_g0, series_amplitudes

RATIO = math.sqrt(2.0) / math.hypot(1.0, 0.414)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_entangler_reproduction():
    family = generic_family()  # 433 m/s, ratio 0.414, no dipole tilt
    profile = GenericProfile(family)
    t0, t1 = profile.window

    start = time.perf_counter()
    g_a = pulse_area(profile)
    analytic = np.abs(amplitudes(g_a, 0.414 * g_a)) ** 2
    traj = evolve(
        build_subspace(1),
        profile,
        drive_pair(profile, 0.414)[1],
        AmplitudeVector.basis_state("100"),
        t0,
        t1,
        n_points=2,
    )
    elapsed = time.perf_counter() - start
    ode = traj.probabilities()[-1]

    ok = True
    for probs in (analytic, ode):
        ok &= 0.48 <= probs[0] <= 0.52
        ok &= 0.48 <= probs[1] <= 0.52
        ok &= probs[2] <= 0.02
    ok &= elapsed < 1.0
    report(
        1,
        ok,
        f"analytic probs {np.round(analytic, 4)}, ode probs {np.round(ode, 4)}, "
        f"runtime {elapsed:.3f} s",
    )
    assert ok


def test_criterion_2_rail_swap_reproduction():
    family = generic_family(velocity=565.0)
    profile = GenericProfile(family)
    g_a = pulse_area(profile)
    u = logical_unitary(g_a, g_a)
    p_10_to_01 = abs(u[1, 0]) ** 2
    p_01_to_10 = abs(u[0, 1]) ** 2
    ok = p_10_to_01 >= 0.98 and p_01_to_10 >= 0.98
    report(2, ok, f"|<01|U|10>|^2 = {p_10_to_01:.5f}, |<10|U|01>|^2 = {p_01_to_10:.5f}")
    assert ok


def test_criterion_3_cross_velocity_consistency():
    family = generic_family()
    v_had = calibrate_velocity(family, 0.414, "ENTANGLER_HADAMARD")
    v_not = calibrate_velocity(family, 1.0, "NOT")
    calibrated_ratio = v_not / v_had
    ok = abs(calibrated_ratio - RATIO) / RATIO <= 0.01
    pairs = ((433.0, 565.0), (374.0, 490.0), (353.0, 459.0))
    deviations = []
    for quoted_had, quoted_not in pairs:
        predicted = quoted_had * RATIO
        deviations.append(abs(predicted - quoted_not) / quoted_not)
    ok &= all(dev <= 0.015 for dev in deviations)
    report(
        3,
        ok,
        f"calibrated ratio {calibrated_ratio:.6f} (target {RATIO:.6f}); quoted-pair "
        f"deviations {[f'{d:.3%}' for d in deviations]}",
    )
    assert ok


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst_ode = 0.0
    for _ in range(100):
        lattice = rng.uniform(3e-7, 1e-6)
        family = GenericProfileParams(
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
        want = np.array(amplitudes(g_a, p * g_a))
        worst_ode = max(worst_ode, float(np.max(np.abs(traj.amplitudes[-1] - want))))

    worst_series = 0.0
    for _ in range(100):
        areas = rng.uniform(0, 2 * math.pi, size=2)
        got = series_amplitudes(*areas, 25)
        want = amplitudes(*areas)
        worst_series = max(worst_series, max(abs(g - w) for g, w in zip(got, want)))

    ok = worst_ode <= 1e-6 and worst_series <= 1e-12
    report(
        4,
        ok,
        f"ODE vs closed form worst {worst_ode:.2e} (<= 1e-6); series depth 25 vs "
        f"closed form worst {worst_series:.2e} (<= 1e-12)",
    )
    assert ok


def test_criterion_5_unitarity_and_normalization():
    rng = np.random.default_rng(2024)
    worst_unitarity = 0.0
    for _ in range(1000):
        u = logical_unitary(*rng.uniform(0, 4 * math.pi, size=2))
        worst_unitarity = max(
            worst_unitarity, float(np.max(np.abs(u.conj().T @ u - np.eye(3))))
        )
    profile = GenericProfile(generic_family())
    t0, t1 = profile.window
    traj = evolve(
        build_subspace(1),
        profile,
        drive_pair(profile, 0.414)[1],
        AmplitudeVector.basis_state("100"),
        t0,
        t1,
    )
    ok = worst_unitarity <= 1e-12 and traj.norm_drift <= 1e-8
    report(
        5,
        ok,
        f"worst U+U deviation {worst_unitarity:.2e} (<= 1e-12); trajectory norm "
        f"drift {traj.norm_drift:.2e} (<= 1e-8)",
    )
    assert ok


def test_criterion_6_surface_symmetry_on_default_grid():
    family = generic_family()
    start = time.perf_counter()
    grid_100 = surface(family)  # default 251 x 201 over the stated windows
    grid_010 = surface(family, initial="010")
    elapsed = time.perf_counter() - start
    deviation = float(np.max(np.abs(grid_100.b_surface - grid_010.a_surface)))
    ok = deviation <= 1e-12 and elapsed < 60.0
    report(
        6,
        ok,
        f"max |b(100-initial) - cross-a(010-initial)| = {deviation:.2e} (<= 1e-12); "
        f"two full sweeps in {elapsed:.2f} s (< 60 s)",
    )
    assert ok


def test_criterion_7_field_machinery():
    # exact mode volume on a uniform box
    dims, spacing = (6, 5, 4), (0.3, 0.25, 0.2)
    box = math.prod(d * h for d, h in zip(dims, spacing))
    uniform = FieldGrid(
        spacing=spacing,
        origin=(0.0, 0.0, 0.0),
        epsilon=2.0 * np.ones(dims),
        field=1.5 * np.ones(dims, dtype=complex),
    )
    box_ok = mode_volume(uniform) == pytest.approx(box, rel=1e-12)

    # separable exponential profile against its analytic integral
    r_decay, half, height, n = 0.8, 4.0, 0.5, 161
    h = 2 * half / n
    xs = -half + (np.arange(n) + 0.5) * h
    x, y = np.meshgrid(xs, xs, indexing="ij")
    exp_grid = FieldGrid(
        spacing=(h, h, 1.0),
        origin=(-half, -half, -0.5),
        epsilon=np.ones((n, n, 1)),
        field=np.exp(-(np.abs(x) + np.abs(y)) / r_decay).astype(complex)[:, :, None],
    )
    analytic = height * (r_decay * (1 - math.exp(-2 * half / r_decay))) ** 2
    exp_value = mode_volume(exp_grid, effective_height=height)
    exp_ok = abs(exp_value - analytic) / analytic <= 0.01

    # polarization fractions of constructed fields
    def vector_grid(ex, ey, ez):
        n = 6
        field = np.zeros((n, n, 1, 3), dtype=complex)
        field[..., 0], field[..., 1], field[..., 2] = ex, ey, ez
        return FieldGrid(
            spacing=(0.1, 0.1, 0.1),
            origin=(0.0, 0.0, 0.0),
            epsilon=np.ones((n, n, 1)),
            field=field,
        )

    pol_ok = (
        polarization_fraction(vector_grid(0, 0, 1.0), 0) == 1.0
        and polarization_fraction(vector_grid(1.0, 0, 0), 0) == 0.0
        and polarization_fraction(vector_grid(1.0, 0, 1.0), 0) == pytest.approx(0.5, abs=1e-15)
    )

    # peak-coupling inversion round trip at the two quoted couplings
    mu = 2e-26
    round_trip_ok = True
    for g0 in (2.765e6, 2.899e6):
        v_mode = mode_volume_from_g0(mu, OMEGA_MM, 12.0, g0)
        back = g0_from_params(mu, OMEGA_MM, 12.0, v_mode)
        round_trip_ok &= abs(back - g0) / g0 <= 1e-12

    ok = box_ok and exp_ok and pol_ok and round_trip_ok
    report(
        7,
        ok,
        f"uniform box exact: {box_ok}; exponential field within "
        f"{abs(exp_value - analytic) / analytic:.3%} of analytic; polarization "
        f"1/0/0.5: {pol_ok}; coupling inversion 1e-12 round trip: {round_trip_ok}",
    )
    assert ok


def test_criterion_8_feasibility_diagnostics():
    family = generic_family()
    t0, t1 = GenericProfile(family).window
    transit = t1 - t0
    effective = effective_interaction_time(family)
    tau = photon_lifetime(1e8, OMEGA_MM)
    hadamard_time = 10 * LATTICE_2D / 374.0  # ten-period millimeter-wave transit
    margin = tau / hadamard_time
    ok = (
        effective < 20e-9
        and 25e-9 <= transit <= 33e-9
        and 50e-6 <= hadamard_time <= 60e-6
        and margin >= 5.0
    )
    report(
        8,
        ok,
        f"effective interaction {effective * 1e9:.1f} ns (< 20 ns), total transit "
        f"{transit * 1e9:.1f} ns; lifetime margin {margin:.2f}x (>= 5) against the "
        f"{hadamard_time * 1e6:.1f} us millimeter-wave transit",
    )
    assert ok


def test_criterion_9_double_excitation_return_reported_not_asserted():
    family = generic_family()
    v_not = calibrate_velocity(family, 1.0, "NOT")
    settings = GateSettings(target=SWAP, profile_a=GenericProfile(family).at_velocity(v_not),
                            p=1.0, velocity=v_not, omega_cav=OMEGA_GENERIC, rtol=1e-11, atol=1e-13)
    # the |11> fidelity the SWAP gate-report prints, on both engines
    returns = {engine: truth_table(settings, engine).fidelities["11"]
               for engine in ("ode", "analytic")}
    got = returns["ode"]

    # matrix-exponential oracle on the area-built 4x4 generator
    area = pulse_area(settings.profile_a)
    h2 = build_subspace(2).matrix(area, area)
    vals, vecs = np.linalg.eigh(h2)
    u = (vecs * np.exp(-1j * vals)) @ vecs.conj().T
    oracle = float(abs(u[0, 0]) ** 2)

    ok = all(abs(value - oracle) <= 1e-8 for value in returns.values())
    report(
        9,
        ok,
        f"double-excitation return probability {got:.6f} (reported, not asserted "
        f"against an idealized truth table); ODE vs matrix-exponential oracle "
        f"difference {abs(got - oracle):.2e} (<= 1e-8)",
    )
    assert ok
