"""Property tests of the exact pulse areas against quadrature."""

import cmath
import json
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

import pcqed

from pcqed.coupling import (
    CouplingTrace,
    GenericProfile,
    GenericProfileParams,
    ScaledProfile,
    drive_from_profile,
    exact_area,
    pulse_area,
)

from conftest import LATTICE_GENERIC

PROPERTIES = settings(max_examples=200, deadline=None, derandomize=True, database=None)


# The bounds of each value families() draws, in the order family_at takes them.
BOUNDS = ((0.5, 2.0), (2e9, 3e10), (2.0, 16.0), (0.5, 1.5), (150.0, 650.0), (0.0, 1.5))


def family_at(lattice_factor, omega0, half_path, radius, velocity, zeta):
    """The family that families() draws from these values."""
    lattice = LATTICE_GENERIC * lattice_factor
    return GenericProfileParams(omega0=omega0, path_half_length=half_path * lattice,
                                defect_radius=radius * lattice, lattice_const=lattice,
                                velocity=velocity, zeta=zeta)


@st.composite
def families(draw):
    """Generic families around the optical scenario: a few to ~30 rad per transit."""
    return family_at(*(draw(st.floats(low, high)) for low, high in BOUNDS))


def bundled_families():
    """Each distinct generic family of the bundled configs, at its velocity."""
    profiles = (json.loads(path.read_text()).get("profile", {})
                for path in sorted((Path(pcqed.__file__).parent / "configs").glob("*.json")))
    distinct = {json.dumps(block, sort_keys=True): block for block in profiles if "velocity" in block}
    return [GenericProfileParams(**block) for block in distinct.values()]


# Examples every run tries, whatever hypothesis draws besides (it draws
# from literals in the package source too, so its draws move with any edit
# there): the bundled families, and the draws at the strategy's bounds, all
# low, all high, and a short slow and a long fast path at the largest omega0.
PINNED_FAMILIES = [
    *bundled_families(),
    family_at(*(low for low, _ in BOUNDS)),
    family_at(*(high for _, high in BOUNDS)),
    family_at(1.0, 3e10, 2.0, 1.5, 150.0, 0.0),
    family_at(1.0, 3e10, 16.0, 0.5, 650.0, 1.5),
]


def pinned(*others):
    """One @example per pinned family, with ``others`` for the test's other arguments."""
    def apply(test):
        for family in PINNED_FAMILIES:
            test = example(family, *others)(test)
        return test
    return apply


def quad_area(profile, t0, t1):
    peak = profile.peak_time
    with warnings.catch_warnings():
        # quad flags roundoff at areas of tens of rad; the comparison bounds the error
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        area, _ = integrate.quad(
            profile, t0, t1, epsabs=1e-13, epsrel=0.0, limit=1000,
            points=[peak] if t0 < peak < t1 else None,
        )
    return area


@PROPERTIES
@given(families())
@pinned()
def test_full_window_area_matches_quadrature(family):
    profile = GenericProfile(family)
    assert abs(pulse_area(profile) - quad_area(profile, *profile.window)) <= 1e-12


@PROPERTIES
@given(families(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@pinned(0.0, 1.0)
@pinned(0.25, 0.5)
def test_sub_window_area_matches_quadrature(family, u, w):
    profile = GenericProfile(family)
    w0, w1 = profile.window
    t0, t1 = sorted((w0 + u * (w1 - w0), w0 + w * (w1 - w0)))
    if not t0 < t1:
        return
    assert abs(float(exact_area(profile, t0, t1)) - quad_area(profile, t0, t1)) <= 1e-12


@PROPERTIES
@given(families(), st.floats(0.2, 5.0))
@pinned(0.2)
@pinned(5.0)
def test_area_times_velocity_is_constant(family, factor):
    reference = pulse_area(GenericProfile(family)) * family.velocity
    v = family.velocity * factor
    area = pulse_area(GenericProfile(family).at_velocity(v))
    assert math.isclose(area * v, reference, rel_tol=1e-14)


@PROPERTIES
@given(families(), st.floats(-3.0, 3.0))
@pinned(-3.0)
@pinned(0.414)
def test_scaled_profile_area_is_factor_times_base(family, factor):
    profile = GenericProfile(family)
    scaled = ScaledProfile(profile, factor)
    assert math.isclose(
        pulse_area(scaled), factor * pulse_area(profile), rel_tol=1e-15, abs_tol=1e-300
    )


@st.composite
def segments(draw):
    """(z0, z1) of one complex trace interval: free, short, through zero, near zero, or still."""
    z0 = cmath.rect(draw(st.floats(1e-6, 1e6)), draw(st.floats(-math.pi, math.pi)))
    kind = draw(st.sampled_from(["free", "short", "through_zero", "near_zero", "still"]))
    if kind == "free":
        z1 = cmath.rect(draw(st.floats(0.0, 1e6)), draw(st.floats(-math.pi, math.pi)))
    elif kind == "short":
        z1 = z0 * (1.0 + cmath.rect(draw(st.floats(1e-9, 1e-3)), draw(st.floats(-math.pi, math.pi))))
    elif kind == "through_zero":
        z1 = -draw(st.floats(1e-3, 1e3)) * z0
    elif kind == "near_zero":
        z1 = -draw(st.floats(1e-3, 1e3)) * z0 * complex(1.0, draw(st.floats(-1e-6, 1e-6)))
    else:
        z1 = z0
    return z0, z1


def mp_segment_area(z0, z1, width, u):
    """30-digit quadrature of |z0 + v (z1 - z0)| over v in [0, u], times width."""
    with mpmath.workdps(30):
        scale = max(abs(z0), abs(z1))  # keeps quad's absolute tolerance relative
        a, d = mpmath.mpc(z0) / scale, (mpmath.mpc(z1) - mpmath.mpc(z0)) / scale
        points = [0, u]
        if d != 0:
            kink = -mpmath.re(a * mpmath.conj(d)) / abs(d) ** 2  # closest approach to 0
            if 0 < kink < u:
                points = [0, kink, u]
        return float(width * scale * mpmath.quad(lambda v: abs(a + v * d), points))


@PROPERTIES
@given(segments(), st.floats(1e-12, 1.0), st.floats(0.0, 1.0))
# the smallest subnormal u: a partial area of about 5e-324, and at width 1e-12 an end at 0
@example((1e-6 + 0j, 1e6 + 0j), 1.0, 5e-324)
@example((1 + 1j, -3 - 3j), 1e-12, 5e-324)
def test_trace_magnitude_area_matches_mpmath(segment, width, u):
    z0, z1 = segment
    drive = drive_from_profile(CouplingTrace([0.0, width], [z0, z1]))
    full = mp_segment_area(z0, z1, width, 1)
    assert abs(pulse_area(drive) - full) <= 1e-12 * full
    if u > 0:
        t = u * width  # the oracle integrates to the same rounded end, which may underflow to 0
        partial = mp_segment_area(z0, z1, width, mpmath.mpf(t) / width)
        assert abs(float(exact_area(drive, 0.0, t)) - partial) <= 1e-12 * partial


def test_running_trace_magnitude_area_matches_mpmath():
    rng = np.random.default_rng(7)
    times = np.cumsum(rng.uniform(0.5, 1.5, 12))
    values = rng.normal(size=12) + 1j * rng.normal(size=12)
    values[4] = -0.7 * values[3]  # one interval through zero
    values[8] = values[7]  # one still interval
    drive = drive_from_profile(CouplingTrace(times, values))
    segment_areas = [
        mp_segment_area(z0, z1, t1 - t0, 1)
        for z0, z1, t0, t1 in zip(values[:-1], values[1:], times[:-1], times[1:])
    ]
    mid = 0.5 * (times[5] + times[6])
    want = [0.0, 0.0, sum(segment_areas[:5]), sum(segment_areas[:5])
            + mp_segment_area(values[5], values[6], times[6] - times[5], 0.5),
            sum(segment_areas), sum(segment_areas)]
    at = np.array([times[0] - 1.0, times[0], times[5], mid, times[-1], times[-1] + 1.0])
    np.testing.assert_allclose(exact_area(drive, times[0], at), want, rtol=1e-13, atol=0.0)
    assert pulse_area(drive) == pytest.approx(sum(segment_areas), rel=1e-13)
