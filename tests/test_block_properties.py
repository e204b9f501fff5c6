"""Property tests of the closed-form propagators of the one- and two-excitation blocks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pcqed.core import AmplitudeVector, basis_labels, build_subspace
from pcqed.analytic import _SMALL_LAMBDA, logical_unitary, two_excitation_unitary
from pcqed.ode import evolve

from oracles import Formula

PROPERTIES = settings(max_examples=200, deadline=None, derandomize=True, database=None)
# each example of the ODE comparison runs DOP853 at rtol 1e-12
ODE_PROPERTIES = settings(max_examples=25, deadline=None, derandomize=True, database=None)

AREAS = st.floats(-4 * math.pi, 4 * math.pi)

# Pinned (g_a, g_b): zero areas, equal areas, one area zero, and the total
# area Lambda just below and just above the switch to the Taylor forms.
PINNED = [
    (0.0, 0.0),
    (1.3, 1.3),
    (0.0, 2.1),
    (-2.1, 0.0),
    (0.6 * _SMALL_LAMBDA, -0.6 * _SMALL_LAMBDA),
    (0.8 * _SMALL_LAMBDA, 0.8 * _SMALL_LAMBDA),
]


def pinned(test):
    """``test`` with an explicit example at each pair of PINNED."""
    for g_a, g_b in PINNED:
        test = example(g_a, g_b)(test)
    return test


@ODE_PROPERTIES
@given(
    st.floats(-2 * math.pi, 2 * math.pi),
    st.floats(-2.0, 2.0),
    st.sampled_from(basis_labels(2)),
)
@example(0.0, 0.0, "110")
@example(1.3, 1.0, "101")
@example(2.1, 0.0, "110")
@example(0.6 * _SMALL_LAMBDA, -1.0, "011")
@example(0.8 * _SMALL_LAMBDA, 1.0, "002")
def test_two_excitation_block_matches_tight_ode(area, c, initial):
    # a smooth, non-constant drive of total area `area` over [0, 1]; atom B's
    # is c times it, stated as its own formula
    terms = dict(A=area, cos=math.cos, w=2.0 * math.pi)
    drive_a = Formula("{p}A * (1.0 - {p}cos({p}w * T))", **terms)
    drive_b = Formula("{p}c * ({p}A * (1.0 - {p}cos({p}w * T)))", c=c, **terms)
    traj = evolve(build_subspace(2), drive_a, drive_b, AmplitudeVector.basis_state(initial),
                  0.0, 1.0, rtol=1e-12, atol=1e-14, n_points=2)
    column = two_excitation_unitary(area, c * area)[:, basis_labels(2).index(initial)]
    assert np.max(np.abs(column - traj.amplitudes[-1])) <= 1e-9


@PROPERTIES
@given(AREAS, AREAS)
@pinned
def test_blocks_are_unitary(g_a, g_b):
    for u in (logical_unitary(g_a, g_b), two_excitation_unitary(g_a, g_b)):
        assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) <= 1e-12


@PROPERTIES
@given(AREAS, AREAS)
@pinned
def test_two_excitation_exchange_symmetry(g_a, g_b):
    # swapping the atoms exchanges |101> and |011> and leaves |110>, |002> alone
    perm = np.eye(4)[[0, 2, 1, 3]]
    u = two_excitation_unitary(g_a, g_b)
    swapped = two_excitation_unitary(g_b, g_a)
    assert np.max(np.abs(perm @ u @ perm - swapped)) <= 1e-12


def test_double_excitation_return_at_the_rail_swap_point():
    # c = 1: M_2 has eigenvalues 0, 0 and +-sqrt(6), so at A = pi / sqrt(2)
    # the |11> return is ((2 + cos(sqrt(3) pi)) / 3)^2, about 0.79
    area = math.pi / math.sqrt(2)
    u = two_excitation_unitary(area, area)
    frozen = ((2 + math.cos(math.sqrt(3) * math.pi)) / 3) ** 2
    assert abs(u[0, 0]) ** 2 == pytest.approx(frozen, abs=1e-12)
