import dataclasses
import math

import numpy as np
import pytest

from pcqed.core import (
    AmplitudeVector,
    CavityParams,
    SubspaceHamiltonian,
    basis_labels,
    build_subspace,
    g0_from_params,
    photon_lifetime,
)
from pcqed.ode import Trajectory

from oracles import C_LIGHT, mode_volume_from_g0

OMEGA_MM = 2 * math.pi * C_LIGHT / 5.9e-3
MU_RB = 2e-26  # C*m


class TestPeakCoupling:
    def test_round_trip_at_quoted_couplings(self):
        # Invert the relation for the mode volume, then recover g0 exactly.
        for g0 in (2.765e6, 2.899e6):
            v_mode = mode_volume_from_g0(MU_RB, OMEGA_MM, 12.0, g0)
            back = g0_from_params(MU_RB, OMEGA_MM, 12.0, v_mode)
            assert abs(back - g0) / g0 <= 1e-12

    def test_inverse_square_root_in_volume(self):
        g = g0_from_params(MU_RB, OMEGA_MM, 12.0, 1e-9)
        g_quarter = g0_from_params(MU_RB, OMEGA_MM, 12.0, 4e-9)
        assert g_quarter == pytest.approx(g / 2, rel=1e-14)

    def test_linear_in_dipole(self):
        g = g0_from_params(MU_RB, OMEGA_MM, 12.0, 1e-9)
        g2 = g0_from_params(2 * MU_RB, OMEGA_MM, 12.0, 1e-9)
        assert g2 == pytest.approx(2 * g, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            g0_from_params(bad, OMEGA_MM, 12.0, 1e-9)
        with pytest.raises(ValueError):
            g0_from_params(MU_RB, OMEGA_MM, bad, 1e-9)


class TestPhotonLifetime:
    def test_simple_ratio(self):
        assert photon_lifetime(1e8, 1e8) == 1.0

    def test_millimeter_wave_cavity(self):
        tau = photon_lifetime(1e8, OMEGA_MM)
        assert tau == pytest.approx(3.132e-4, rel=1e-3)
        # must comfortably exceed the tens-of-microseconds gate times
        assert tau > 50e-6

    @pytest.mark.parametrize("q", [0.0, -1e8])
    def test_rejects_bad_quality_factor(self, q):
        with pytest.raises(ValueError):
            photon_lifetime(q, OMEGA_MM)


class TestCavityParams:
    def test_rejects_non_positive_volume(self):
        with pytest.raises(ValueError):
            CavityParams(omega_cav=OMEGA_MM, eps_m=12.0, mode_volume=0.0, g0=1e6)


class TestBasis:
    def test_single_excitation_order(self):
        assert basis_labels(1) == ("100", "010", "001")

    def test_double_excitation_order(self):
        assert basis_labels(2) == ("110", "101", "011", "002")

    def test_zero_excitation(self):
        assert basis_labels(0) == ("000",)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            basis_labels(-1)


class TestAmplitudeVector:
    def test_basis_state(self):
        psi = AmplitudeVector.basis_state("010")
        assert psi.n_excitations == 1
        assert psi.amplitudes.tolist() == [0.0, 1.0, 0.0]

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            AmplitudeVector(1, [1.0, 1.0, 0.0])

    def test_amplitudes_read_only(self):
        psi = AmplitudeVector.basis_state("100")
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestStateModel:
    """A state's basis follows from its excitation number; none stores one."""

    @pytest.mark.parametrize("cls", [AmplitudeVector, Trajectory, SubspaceHamiltonian])
    def test_basis_is_derived_not_stored(self, cls):
        assert "basis_labels" not in {f.name for f in dataclasses.fields(cls)}
        assert isinstance(cls.basis_labels, property)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_each_subspace_is_built_once(self, n):
        h = build_subspace(n)
        assert build_subspace(n) is h
        assert h.basis_labels == basis_labels(n) and h.dim == len(basis_labels(n))

    def test_constructors_take_the_excitation_number(self):
        psi = AmplitudeVector(2, [0.0, 0.6, 0.8j, 0.0])
        assert psi.basis_labels == ("110", "101", "011", "002")
        traj = Trajectory(1, [0.0, 1.0], np.eye(3)[:2])
        assert traj.basis_labels == ("100", "010", "001")
        assert traj.amplitudes[1, traj.basis_labels.index("010")] == 1.0
        with pytest.raises(ValueError):
            AmplitudeVector(2, [1.0, 0.0, 0.0])
