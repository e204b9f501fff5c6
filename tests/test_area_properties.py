"""Property tests of the exact generic pulse area against quadrature."""

import math
import warnings

from hypothesis import given, settings, strategies as st
from scipy import integrate

from pcqed import GenericProfile, GenericProfileParams, pulse_area
from pcqed.coupling import ScaledProfile

from conftest import LATTICE_GENERIC

PROPERTIES = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def families(draw):
    """Generic families around the optical scenario: a few to ~30 rad per transit."""
    lattice = LATTICE_GENERIC * draw(st.floats(0.5, 2.0))
    return GenericProfileParams(
        omega0=draw(st.floats(2e9, 3e10)),
        path_half_length=draw(st.floats(2.0, 16.0)) * lattice,
        defect_radius=draw(st.floats(0.5, 1.5)) * lattice,
        lattice_const=lattice,
        velocity=draw(st.floats(150.0, 650.0)),
        zeta=draw(st.floats(0.0, 1.5)),
    )


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
def test_full_window_area_matches_quadrature(family):
    profile = GenericProfile(family)
    assert abs(pulse_area(profile) - quad_area(profile, *profile.window)) <= 1e-12


@PROPERTIES
@given(families(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_sub_window_area_matches_quadrature(family, u, w):
    profile = GenericProfile(family)
    w0, w1 = profile.window
    t0, t1 = sorted((w0 + u * (w1 - w0), w0 + w * (w1 - w0)))
    if not t0 < t1:
        return
    assert abs(pulse_area(profile, t0, t1) - quad_area(profile, t0, t1)) <= 1e-12


@PROPERTIES
@given(families(), st.floats(0.2, 5.0))
def test_area_times_velocity_is_constant(family, factor):
    reference = pulse_area(GenericProfile(family)) * family.velocity
    v = family.velocity * factor
    area = pulse_area(GenericProfile(family.replace_velocity(v)))
    assert math.isclose(area * v, reference, rel_tol=1e-14)


@PROPERTIES
@given(families(), st.floats(-3.0, 3.0))
def test_scaled_profile_area_is_factor_times_base(family, factor):
    profile = GenericProfile(family)
    scaled = ScaledProfile(profile, factor)
    assert math.isclose(
        pulse_area(scaled), factor * pulse_area(profile), rel_tol=1e-15, abs_tol=1e-300
    )
