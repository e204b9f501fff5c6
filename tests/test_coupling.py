import gc
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pcqed.coupling import (
    CouplingTrace,
    GenericProfile,
    GenericProfileParams,
    ScaledProfile,
    TraceMagnitude,
    absolute_area_bound,
    drive_from_profile,
    drive_pair,
    exact_area,
    pulse_area,
    scaled_pair,
)

from conftest import LATTICE_GENERIC, OMEGA0_GENERIC, generic_family, inlined
from oracles import drive_at
from test_area_properties import BOUNDS, family_at


def simpson_oracle(f, a, b, n_start=4096, max_doublings=8, tol=1e-12):
    """Brute-force composite Simpson with refinement until stable."""
    n = n_start
    prev = None
    for _ in range(max_doublings):
        xs = np.linspace(a, b, n + 1)
        ys = np.asarray(f(xs), dtype=float)
        h = (b - a) / n
        val = h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            return val
        prev = val
        n *= 2
    return prev


class TestGenericProfileParams:
    @pytest.mark.parametrize("name", ["omega0", "path_half_length", "defect_radius",
                                      "lattice_const", "velocity"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_size_not_positive_and_finite_refused_by_name(self, fig_family, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got"):
            replace(fig_family, **{name: bad})


class TestGenericCoupling:
    def test_peak_at_cavity_center(self, fig_family):
        t_peak = fig_family.path_half_length / fig_family.velocity
        assert GenericProfile(fig_family)(t_peak) == pytest.approx(
            fig_family.omega0, rel=1e-12
        )

    def test_zero_at_half_lattice_offset(self, fig_family):
        t = (fig_family.path_half_length + fig_family.lattice_const / 2) / fig_family.velocity
        assert abs(GenericProfile(fig_family)(t)) < 1e-6 * fig_family.omega0

    def test_entry_value(self, fig_family):
        # ten periods before the center: envelope e^-10, oscillation cos(10 pi) = 1
        assert GenericProfile(fig_family)(0.0) == pytest.approx(
            fig_family.omega0 * math.exp(-10), rel=1e-9
        )

    def test_envelope_symmetry(self, fig_family):
        t_peak = fig_family.path_half_length / fig_family.velocity
        offsets = np.linspace(0, t_peak, 17)
        np.testing.assert_allclose(
            GenericProfile(fig_family)(t_peak + offsets),
            GenericProfile(fig_family)(t_peak - offsets),
            rtol=1e-12,
        )

    def test_zeta_scales_amplitude(self, fig_family):
        tilted = generic_family(zeta=math.pi / 3)
        t = np.linspace(0, 2e-8, 50)
        np.testing.assert_allclose(
            GenericProfile(tilted)(t),
            0.5 * GenericProfile(fig_family)(t),
            rtol=1e-12,
        )


class TestPulseArea:
    def test_full_transit_against_oracles(self, fig_family):
        profile = GenericProfile(fig_family)
        area = pulse_area(profile)
        # brute-force Simpson oracle on the same window
        t0, t1 = profile.window
        oracle = simpson_oracle(profile, t0, t1)
        assert area == pytest.approx(oracle, abs=1e-8)
        # analytic value of the truncated integral:
        # Omega0/V * 2 l (1 - e^-10) / (1 + pi^2)
        analytic = (
            OMEGA0_GENERIC
            / fig_family.velocity
            * 2
            * LATTICE_GENERIC
            * (1 - math.exp(-10))
            / (1 + math.pi**2)
        )
        assert area == pytest.approx(analytic, rel=1e-9)
        # order of magnitude quoted for this transit
        assert area == pytest.approx(2.9, abs=0.05)

    def test_linearity(self, fig_family):
        profile = GenericProfile(fig_family)
        scaled = scaled_pair(profile, 0.37)
        assert pulse_area(scaled) == pytest.approx(0.37 * pulse_area(profile), rel=1e-9)

    def test_inverse_velocity_scaling(self, fig_family):
        area_v = pulse_area(GenericProfile(fig_family))
        area_2v = pulse_area(GenericProfile(generic_family(velocity=866.0)))
        assert area_v == pytest.approx(2 * area_2v, rel=1e-9)

    @pytest.mark.parametrize(
        "drive",
        [
            CouplingTrace([0.0, 1.0, 2.0], [0.0, 1.0, -1.0]),
            CouplingTrace([0.0, 1.0, 2.0], [1.0 + 1.0j, -2.0j, 0.5]),
            lambda t: np.ones_like(np.asarray(t, dtype=float)),
        ],
        ids=["real-trace", "complex-trace", "callable"],
    )
    def test_drive_without_exact_area_is_refused(self, drive):
        # a raw trace integrates only through drive_from_profile, as |g|
        with pytest.raises(TypeError):
            pulse_area(drive)
        with pytest.raises(TypeError):
            exact_area(drive, 0.0, np.array([1.0, 2.0]))
        # nor does it state a formula, so it is no base of atom B's drive
        with pytest.raises(TypeError, match="states no formula"):
            ScaledProfile(drive, 2.0)


class TestScaledPair:
    def test_zero_factor(self, fig_family):
        at = inlined(scaled_pair(GenericProfile(fig_family), 0.0))
        t = np.linspace(0, 2e-8, 7)
        np.testing.assert_allclose([at(x) for x in t.tolist()], 0.0, atol=1e-30)

    def test_unit_factor(self, fig_family):
        base = GenericProfile(fig_family)
        at = inlined(scaled_pair(base, 1.0))
        t = np.linspace(0, 2e-8, 7)
        np.testing.assert_allclose([at(x) for x in t.tolist()], base(t), rtol=1e-12)

    def test_ratio_is_exact_in_area(self, fig_family):
        base = GenericProfile(fig_family)
        companion = scaled_pair(base, 0.414)
        assert pulse_area(companion) / pulse_area(base) == pytest.approx(0.414, rel=1e-9)

    def test_ratio_above_one_scales_without_warning(self, fig_family):
        # |p cos(zeta_A)| > 1 has no dipole orientation, but the drive is
        # plain arithmetic: p times atom A's
        base = GenericProfile(fig_family)
        t = np.linspace(0, 2e-8, 7).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_b, at_a = inlined(scaled_pair(base, 1.5)), inlined(base)
            assert [at_b(x) for x in t] == [1.5 * at_a(x) for x in t]

    def test_trace_companion_is_drive_pairs_atom_b(self):
        # atom B of a trace scales atom A's drive, by |p|
        trace = CouplingTrace([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], velocity=433.0)
        scaled = scaled_pair(trace, -0.5)
        assert isinstance(scaled, ScaledProfile)
        assert scaled.base == drive_from_profile(trace)
        assert scaled.factor == 0.5


class TestDrivePair:
    """Atom B's drive is exactly c times atom A's, on both kinds of profile."""

    @pytest.fixture(params=[0.414, 1e-9, 1e-15, -0.7, 2.5, "field3d", "complex-trace"])
    def pair(self, request, fig_family):
        if request.param == "field3d":
            config = request.getfixturevalue("field3d_config")
            return request.getfixturevalue("field3d_trace"), config["p"]
        if request.param == "complex-trace":
            return complex_trace(), -0.7
        return GenericProfile(fig_family), request.param

    def test_ratio_follows_the_drive_convention(self, pair):
        # a trace drives through |g|, so atom B's |p g| is |p| times A's;
        # a generic profile drives signed, so c is p, sign included
        profile, p = pair
        c = drive_pair(profile, p)[2]
        assert type(c) is float
        assert c == (abs(p) if isinstance(profile, CouplingTrace) else p)

    def test_atom_b_is_c_times_atom_a(self, pair):
        profile, p = pair
        drive_a, drive_b, c = drive_pair(profile, p)
        times = np.linspace(*drive_a.window, 2001).tolist()
        at_a, at_b = inlined(drive_a), inlined(drive_b)
        assert [at_b(t) for t in times] == [c * at_a(t) for t in times]
        assert pulse_area(drive_b) == pytest.approx(c * pulse_area(drive_a), rel=1e-15)
        np.testing.assert_array_equal(drive_b.breakpoints(*drive_a.window),
                                      drive_a.breakpoints(*drive_a.window))

    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
    def test_ratio_must_be_finite(self, fig_family, p):
        with pytest.raises(ValueError, match="p must be finite"):
            drive_pair(GenericProfile(fig_family), p)


class TestCouplingTrace:
    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            CouplingTrace([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n", [0, 1])
    def test_requires_two_samples(self, n):
        with pytest.raises(ValueError, match="at least two samples"):
            CouplingTrace(np.arange(n, dtype=float), np.ones(n))

    def test_interpolation_outside_is_zero(self):
        trace = CouplingTrace([1.0, 2.0], [5.0, 5.0])
        assert trace(0.0) == 0.0
        assert trace(3.0) == 0.0

    @pytest.mark.parametrize("bad", [0.0, -433.0, math.inf, math.nan])
    def test_velocity_not_positive_and_finite_refused(self, bad):
        with pytest.raises(ValueError, match="^velocity must be positive and finite, got"):
            CouplingTrace([0.0, 1.0], [1.0, 1.0], velocity=bad)


def sampled(family, n=801, phase=0.0):
    """The generic profile of ``family`` sampled over its window, times e^(i phase)."""
    profile = GenericProfile(family)
    times = np.linspace(*profile.window, n)
    values = profile(times) * (np.exp(1j * phase) if phase else 1.0)
    return CouplingTrace(times, values, velocity=family.velocity)


class TestAtVelocity:
    def test_generic_profile_replaces_its_velocity(self, fig_family):
        profile = GenericProfile(fig_family)
        assert profile.velocity == fig_family.velocity
        moved = profile.at_velocity(866.0)
        assert moved == GenericProfile(replace(fig_family, velocity=866.0))
        assert moved.velocity == 866.0

    @pytest.mark.parametrize("phase", [0.0, 0.3], ids=["real", "complex"])
    def test_trace_scales_its_times_and_keeps_its_values(self, fig_family, phase):
        ref = sampled(fig_family, phase=phase)
        moved = ref.at_velocity(510.0)
        # the rescale written out by hand
        by_hand = CouplingTrace(ref.times * (ref.velocity / 510.0), ref.values, velocity=510.0)
        assert moved.times.tobytes() == by_hand.times.tobytes()
        assert moved.values.tobytes() == ref.values.tobytes()
        assert moved.velocity == 510.0

    @pytest.mark.parametrize("make", [GenericProfile, sampled], ids=["generic", "trace"])
    def test_area_scales_as_inverse_velocity(self, make, fig_family):
        profile = make(fig_family)
        area = pulse_area(drive_from_profile(profile))
        moved = pulse_area(drive_from_profile(profile.at_velocity(2 * profile.velocity)))
        assert moved == pytest.approx(area / 2, rel=1e-12)

    def test_trace_without_velocity_is_refused(self):
        with pytest.raises(ValueError, match="no velocity"):
            CouplingTrace([0.0, 1.0], [1.0, 1.0]).at_velocity(433.0)

    @pytest.mark.parametrize("bad", [0.0, -433.0, math.inf, math.nan])
    def test_trace_refuses_a_velocity_not_positive_and_finite(self, bad):
        trace = CouplingTrace([0.0, 1.0], [1.0, 1.0], velocity=433.0)
        with pytest.raises(ValueError, match="^velocity must be positive and finite, got"):
            trace.at_velocity(bad)


class TestDriveFromProfile:
    def test_trace_has_one_drive(self):
        trace = CouplingTrace([0.0, 1.0, 2.0], [1.0 + 1.0j, -2.0j, 0.5])
        assert drive_from_profile(trace) == drive_from_profile(trace)
        assert hash(drive_from_profile(trace)) == hash(drive_from_profile(trace))

    def test_traces_compare_by_identity(self):
        # equal samples, two traces: neither == nor hash reads the arrays
        times, values = [0.0, 1.0, 2.0], [1.0 + 1.0j, -2.0j, 0.5]
        trace, twin = CouplingTrace(times, values), CouplingTrace(times, values)
        assert trace == trace and trace != twin
        assert drive_from_profile(trace) != drive_from_profile(twin)
        assert hash(trace) == hash(trace)

    def test_trace_and_its_drive_form_no_cycle(self):
        # the trace holds no reference to its drive: with the cyclic
        # collector off, a dropped trace is freed at once
        gc.disable()
        try:
            trace = CouplingTrace([0.0, 1.0, 2.0], [1.0 + 1.0j, -2.0j, 0.5])
            drive = drive_from_profile(trace)
            assert drive_from_profile(trace) == drive and drive.trace is trace
            freed = weakref.ref(trace)
            del trace, drive
            assert freed() is None
        finally:
            gc.enable()

    def test_trace_drives_through_its_magnitude(self):
        trace = CouplingTrace([0.0, 1.0, 2.0], [1.0 + 1.0j, -2.0j, 0.5])
        drive = drive_from_profile(trace)
        t = np.linspace(-0.5, 2.5, 13)
        at, magnitude = inlined(drive), np.abs(trace(t))
        # to rounding: the lines take each segment's slope, np.interp does not
        np.testing.assert_allclose([at(x) for x in t.tolist()], magnitude, rtol=0,
                                   atol=4e-16 * magnitude.max())
        assert drive.window == trace.window

    def test_analytic_profiles_are_their_own_drive(self, fig_family):
        profile = GenericProfile(fig_family)
        assert drive_from_profile(profile) is profile
        companion = scaled_pair(profile, 0.414)
        assert drive_from_profile(companion) is companion


def complex_trace(n: int = 64, seed: int = 5) -> CouplingTrace:
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, 1e-8, n))
    return CouplingTrace(times, 3e9 * (rng.normal(size=n) + 1j * rng.normal(size=n)))


def real_trace(n: int = 64, seed: int = 6) -> CouplingTrace:
    rng = np.random.default_rng(seed)
    return CouplingTrace(np.sort(rng.uniform(0.0, 1e-8, n)), 3e9 * rng.normal(size=n))


def probe_times(window, samples=(), seed: int = 7) -> np.ndarray:
    """Random times across the window, its ends, points outside it and the given samples."""
    t0, t1 = window
    span = t1 - t0
    rng = np.random.default_rng(seed)
    inside = rng.uniform(t0, t1, 400)
    outside = [t0 - 0.1 * span, t0 - 1e-3 * span, t1 + 1e-3 * span, t1 + 0.1 * span]
    return np.concatenate((inside, [t0, t1], outside, samples))


class TestAbsoluteAreaBound:
    @pytest.mark.parametrize("radius, half_length, zeta", [(1, 10, 0.0), (0.5, 2, 0.4),
                                                           (30, 300, -1.2)])
    def test_bounds_the_absolute_area(self, fig_family, radius, half_length, zeta):
        family = replace(fig_family, defect_radius=radius * LATTICE_GENERIC,
                         path_half_length=half_length * LATTICE_GENERIC, zeta=zeta)
        profile = GenericProfile(family)
        t = np.linspace(*profile.window, 2_000_001)
        g = np.abs(profile(t))
        absolute = float(np.sum(g[1:] + g[:-1]) * (t[1] - t[0]) / 2)
        bound = absolute_area_bound(profile)
        assert absolute < bound < math.pi / 2 * absolute * 1.02
        assert absolute_area_bound(ScaledProfile(profile, -0.5)) == 0.5 * bound

    def test_wide_cavity_ratio_tends_to_pi_over_2(self, fig_family):
        # under the envelope, |cos| averages 2/pi over many lattice periods
        family = replace(fig_family, defect_radius=30 * LATTICE_GENERIC,
                         path_half_length=300 * LATTICE_GENERIC)
        profile = GenericProfile(family)
        t = np.linspace(*profile.window, 2_000_001)
        g = np.abs(profile(t))
        absolute = float(np.sum(g[1:] + g[:-1]) * (t[1] - t[0]) / 2)
        assert absolute_area_bound(profile) / absolute == pytest.approx(math.pi / 2, rel=1e-3)

    def test_trace_bound_is_its_exact_area(self):
        drive = drive_from_profile(CouplingTrace([0.0, 1.0, 2.0], [1.0 + 1.0j, -2.0j, 0.5]))
        assert absolute_area_bound(drive) == pulse_area(drive)
        assert absolute_area_bound(ScaledProfile(drive, 0.414)) == 0.414 * pulse_area(drive)


class TestScalarDrives:
    """Each drive's inlined scalar lines against its profile's vectorized
    sampling: GenericProfile(t) or |trace(t)|, times the factor of a scaled
    drive."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda fam: GenericProfile(fam),
            lambda fam: GenericProfile(generic_family(velocity=211.0, zeta=0.7)),
            lambda fam: ScaledProfile(GenericProfile(fam), -1.7),
            lambda fam: TraceMagnitude(complex_trace()),
            lambda fam: TraceMagnitude(real_trace()),
            lambda fam: ScaledProfile(TraceMagnitude(complex_trace()), 0.414),
        ],
        ids=["generic", "generic-zeta", "scaled-generic", "complex-trace", "real-trace",
             "scaled-trace"],
    )
    def test_agrees_with_vectorized_call(self, make, fig_family):
        drive = make(fig_family)
        scaled = isinstance(drive, ScaledProfile)
        base, factor = (drive.base, drive.factor) if scaled else (drive, 1)
        if isinstance(base, TraceMagnitude):
            times = probe_times(base.window, base.trace.times)
            vectorized = factor * np.abs(base.trace(times))
        else:
            times = probe_times(base.window, [base.peak_time])
            vectorized = factor * base(times)
        peak = np.max(np.abs(vectorized))
        at = inlined(drive)
        for t, want in zip(times.tolist(), vectorized):
            got = at(t)
            assert isinstance(got, float)
            assert abs(got - want) <= 4e-16 * peak, t

    def test_trace_is_zero_outside_its_window(self):
        drive = TraceMagnitude(complex_trace())
        t0, t1 = drive.window
        at = inlined(drive)
        assert at(t0) > 0 and at(t1) > 0
        assert at(math.nextafter(t0, -math.inf)) == 0.0
        assert at(math.nextafter(t1, math.inf)) == 0.0


class TestBreakpoints:
    def test_generic_profile_breaks_at_its_peak(self, fig_family):
        profile = GenericProfile(fig_family)
        t0, t1 = profile.window
        np.testing.assert_array_equal(profile.breakpoints(t0, t1), [profile.peak_time])
        assert profile.breakpoints(t0, profile.peak_time).size == 0
        assert profile.breakpoints(profile.peak_time, t1).size == 0
        scaled = ScaledProfile(profile, 0.5)
        np.testing.assert_array_equal(scaled.breakpoints(t0, t1), [profile.peak_time])

    def test_real_trace_breaks_at_samples_and_zero_crossings(self):
        trace = CouplingTrace([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, -3.0, -1.0, 2.0, 2.0])
        drive = TraceMagnitude(trace)
        # crossings at 0.25 and 2 + 1/3; the segment [2, 3] crossing is inside it
        np.testing.assert_allclose(drive.breakpoints(0.0, 4.0), [0.25, 1.0, 2.0, 2.0 + 1 / 3, 3.0],
                                   rtol=1e-15)
        np.testing.assert_allclose(drive.breakpoints(-1.0, 5.0),
                                   [0.0, 0.25, 1.0, 2.0, 2.0 + 1 / 3, 3.0, 4.0], rtol=1e-15)
        np.testing.assert_allclose(drive.breakpoints(0.5, 2.5), [1.0, 2.0, 2.0 + 1 / 3],
                                   rtol=1e-15)

    def test_complex_trace_breaks_at_closest_approaches(self):
        delta = 1e-3
        trace = CouplingTrace([0.0, 1.0, 2.0, 3.0], [-3.0 + 1j, -1.0 + delta * 1j, 1.0 + delta * 1j,
                                                       3.0 + 2j])
        drive = TraceMagnitude(trace)
        # segment 1 -> 2 passes delta from zero at its midpoint; the others'
        # closest approaches fall at or beyond an end, which is a sample time
        np.testing.assert_allclose(drive.breakpoints(0.0, 3.0), [1.0, 1.5, 2.0], rtol=1e-15)
        t, at = 1.5, inlined(drive)
        assert at(t) == pytest.approx(delta, rel=1e-12)
        assert at(t - 1e-2) > at(t) < at(t + 1e-2)


# hypothesis also draws floats from literals it collects in the package
# source, so its draws move with any edit there; the @example pins run
# whatever it draws: a slope past the largest double, signed zeros, a
# segment passing 1e-3 from zero, and the bundled family at zeta 0.7.
INLINED = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def real_traces(draw):
    """Real traces of 2..10 samples in [0, 10 ns] that change sign at least once."""
    times = sorted(draw(st.lists(st.floats(0.0, 1e-8), min_size=2, max_size=10, unique=True)))
    values = draw(st.lists(st.floats(-1e10, 1e10), min_size=len(times), max_size=len(times)))
    values[0], values[-1] = abs(values[0]) or 1.0, -abs(values[-1]) or -1.0
    return CouplingTrace(times, values)


@st.composite
def complex_traces(draw):
    times = sorted(draw(st.lists(st.floats(0.0, 1e-8), min_size=2, max_size=10, unique=True)))
    values = draw(st.lists(st.complex_numbers(max_magnitude=1e10, allow_nan=False,
                                              allow_infinity=False),
                           min_size=len(times), max_size=len(times)))
    return CouplingTrace(times, values)


@st.composite
def numpy_families(draw):
    """The property tests' generic families with zeta != 0, every parameter
    passed as a numpy scalar."""
    family = family_at(*(draw(st.floats(low, high)) for low, high in BOUNDS[:5]),
                       draw(st.floats(0.05, 3.0)))
    return as_numpy(family)


def as_numpy(family):
    return GenericProfileParams(**{name: np.float64(v) for name, v in vars(family).items()})


def check_inlined_bits(drive, factor, fractions):
    """The drive and c times it, inlined, give the oracle's bits at the
    window's ends, every breakpoint (each sample time and closest approach
    of a trace, a generic profile's peak), interior points and the doubles
    just outside the window, where a trace is 0.0."""
    t0, t1 = (float(t) for t in drive.window)
    times = [t0, t1, *drive.breakpoints(-math.inf, math.inf).tolist(),
             *(t0 + f * (t1 - t0) for f in fractions)]
    outside = [math.nextafter(t0, -math.inf), math.nextafter(t1, math.inf)]
    for d in (drive, ScaledProfile(drive, factor)):
        got, want = inlined(d), drive_at(d)
        for t in times + outside:
            value = got(t)
            assert type(value) is float and value.hex() == want(t).hex(), t
        if isinstance(drive, TraceMagnitude):
            assert [got(t) for t in outside] == [0.0, 0.0]


FRACTIONS = st.lists(st.floats(0.0, 1.0), max_size=8)
FACTORS = st.floats(-3.0, 3.0)


class TestInlinedDrives:
    """Each drive's inlined lines against the oracle's scalar evaluator, bit for bit."""

    @INLINED
    @given(real_traces(), FACTORS, FRACTIONS)
    @example(CouplingTrace([0.0, 1e-9, 2e-9, 3e-9, 4e-9], [1e9, -3e9, -1e9, 2e9, 2e9]), -0.7,
             [0.25 / 4, 0.5, 0.99])
    @example(CouplingTrace([0.0, 5e-324, 1e-9], [1e10, -1e10, 0.0]), 0.414, [0.5])
    @example(CouplingTrace([1e-9, 2e-9], [0.0, -0.0]), 1.0, [0.5])
    def test_real_traces_with_zero_crossings(self, trace, factor, fractions):
        check_inlined_bits(TraceMagnitude(trace), factor, fractions)

    @INLINED
    @given(complex_traces(), FACTORS, FRACTIONS)
    @example(CouplingTrace([0.0, 1.0, 2.0, 3.0], [-3.0 + 1j, -1.0 + 1e-3j, 1.0 + 1e-3j, 3.0 + 2j]),
             0.414, [0.3, 0.5, 0.9])
    @example(CouplingTrace([0.0, 1e-9], [1e9 + 1e9j, -1e9 - 1e9j]), -2.5, [0.5])
    def test_complex_traces(self, trace, factor, fractions):
        check_inlined_bits(TraceMagnitude(trace), factor, fractions)

    @INLINED
    @given(numpy_families(), FACTORS, FRACTIONS)
    @example(as_numpy(generic_family(velocity=433.0, zeta=0.7)), 0.414, [0.1, 0.7])
    @example(as_numpy(family_at(2.0, 3e10, 16.0, 0.5, 150.0, 3.0)), -1.0, [0.5])
    def test_generic_profiles(self, family, factor, fractions):
        check_inlined_bits(GenericProfile(family), factor, fractions)
