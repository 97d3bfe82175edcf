"""Boundary geometry: the kernels A_r, B_r, P_r and their smooth factors."""

import numpy as np
import pytest
from dense_reference import (
    diagonal_difference_quotient,
    kernel_A,
    kernel_B,
    kernel_P,
    log_one_plus_P_half,
    log_v1,
    smooth_factor_v1,
)

from vortexpatch.geometry import BoundaryContactError, DegeneratePatchError, PatchState
from vortexpatch.spectral import PeriodicField, theta_grid

RNG = np.random.default_rng(21)


def make_state(b=0.5, amp=1e-3, mode=2, M=64):
    th = theta_grid(M)
    return PatchState(b, PeriodicField(amp * np.cos(mode * th)))


def random_small_state(b=0.5, scale=1e-3, M=64, rng=RNG, even=False):
    th = theta_grid(M)
    r = np.zeros(M)
    for j in range(1, 6):
        a, ph = rng.standard_normal(), rng.uniform(0, 2 * np.pi)
        r += a * np.cos(j * th + (0.0 if even else ph))
    r *= scale / max(1e-12, np.max(np.abs(r)))
    return PatchState(b, PeriodicField(r))


class TestPatchState:
    def test_b_out_of_range(self):
        for b in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError):
                PatchState(b, PeriodicField(np.zeros(64)))

    def test_radius_positivity_enforced(self):
        b = 0.5
        with pytest.raises(DegeneratePatchError):
            make_state(b=b, amp=0.5 * b * b, mode=2)

    def test_derived_radius(self):
        st = make_state()
        assert np.max(np.abs(st.R ** 2 - (st.b ** 2 + 2.0 * st.r.values))) < 1e-15

    def test_inside_disc_margin(self):
        with pytest.raises(BoundaryContactError):
            PatchState(0.999999999, PeriodicField(np.zeros(64)))

    def test_dR_spectral(self):
        st = make_state(amp=1e-3, mode=3)
        th = theta_grid(st.M)
        # R' = r'/R with r = a cos(3 theta)
        expected = -3e-3 * np.sin(3 * th) / st.R
        assert np.max(np.abs(st.dR - expected)) < 1e-12


class TestKernelA:
    def test_equilibrium_formula(self):
        for b in (0.25, 0.5, 0.75):
            st = PatchState(b, PeriodicField(np.zeros(64)))
            A = kernel_A(st)
            th = theta_grid(st.M)
            ref = 2.0 * b * np.abs(np.sin(0.5 * (th[None, :] - th[:, None])))
            assert np.max(np.abs(A - ref)) < 1e-14

    def test_symmetry(self):
        A = kernel_A(random_small_state())
        assert np.max(np.abs(A - A.T)) == 0.0

    def test_direct_complex_modulus_oracle(self):
        st = make_state(amp=1e-3, mode=2)
        th = theta_grid(st.M)
        z = st.R * np.exp(1j * th)
        ref = np.abs(z[:, None] - z[None, :])
        A = kernel_A(st)
        assert np.max(np.abs(A - ref)) < 1e-14

    def test_zero_diagonal(self):
        A = kernel_A(random_small_state())
        assert np.max(np.abs(np.diag(A))) == 0.0


class TestSmoothFactorV1:
    def test_equilibrium_is_one(self):
        st = PatchState(0.5, PeriodicField(np.zeros(64)))
        v = smooth_factor_v1(st)
        assert np.max(np.abs(v - 1.0)) < 1e-13

    def test_offdiagonal_identity(self):
        st = random_small_state()
        th = theta_grid(st.M)
        A = kernel_A(st)
        v = smooth_factor_v1(st)
        sin_half = np.abs(np.sin(0.5 * (th[None, :] - th[:, None])))
        mask = ~np.eye(st.M, dtype=bool)
        lhs = A[mask]
        rhs = (2.0 * st.b * sin_half * v)[mask]
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_diagonal_formula(self):
        st = make_state(amp=1e-3, mode=2)
        v = np.diag(smooth_factor_v1(st))
        expected = np.sqrt(st.dR ** 2 + st.R ** 2) / st.b
        assert np.max(np.abs(v - expected)) < 1e-13

    def test_diagonal_richardson_limit(self):
        # one-sided limit of A/(2b|sin|) as eta -> theta, Richardson-extrapolated
        st = make_state(amp=2e-3, mode=3, M=64)
        b, th = st.b, theta_grid(st.M)
        i = 5
        theta_i = th[i]

        def ratio(h):
            eta = theta_i + h
            R_eta = np.sqrt(b * b + 2.0 * 2e-3 * np.cos(3 * eta))
            z1 = st.R[i] * np.exp(1j * theta_i)
            z2 = R_eta * np.exp(1j * eta)
            return abs(z1 - z2) / (2.0 * b * abs(np.sin(0.5 * h)))

        h = 1e-3
        f1, f2, f3 = ratio(h), ratio(h / 2), ratio(h / 4)
        # two Richardson stages on the full (odd+even powers) h-expansion
        r1a, r1b = 2.0 * f2 - f1, 2.0 * f3 - f2
        extrap = (4.0 * r1b - r1a) / 3.0
        diag = smooth_factor_v1(st)[i, i]
        assert abs(diag - extrap) < 1e-8


class TestDifferenceQuotient:
    def test_cosine_diagonal(self):
        th = theta_grid(64)
        g = diagonal_difference_quotient(PeriodicField(np.cos(th)))
        assert np.max(np.abs(np.diag(g) + 2.0 * np.sin(th))) < 1e-13

    def test_constant(self):
        g = diagonal_difference_quotient(PeriodicField(np.full(64, 4.2)))
        assert np.max(np.abs(g)) < 1e-13

    def test_hand_value(self):
        # f = sin 3theta: g(0, pi/2) = sin(3 pi/2)/sin(pi/4) = -sqrt(2)
        M = 64
        th = theta_grid(M)
        g = diagonal_difference_quotient(PeriodicField(np.sin(3 * th)))
        assert abs(g[0, M // 4] + np.sqrt(2.0)) < 1e-13

    def test_swap_symmetry(self):
        f = PeriodicField(RNG.standard_normal(64))
        g = diagonal_difference_quotient(f)
        assert np.max(np.abs(g - g.T)) < 1e-12


class TestKernelB:
    def test_equilibrium_formula(self):
        for b in (0.25, 0.5, 0.75):
            st = PatchState(b, PeriodicField(np.zeros(64)))
            B = kernel_B(st)
            th = theta_grid(st.M)
            ref = np.abs(1.0 - b * b * np.exp(1j * (th[None, :] - th[:, None])))
            assert np.max(np.abs(B - ref)) < 1e-14

    def test_lower_bound(self):
        st = random_small_state(b=0.8, scale=5e-3)
        B = kernel_B(st)
        assert B.min() >= 1.0 - np.max(st.R) ** 2 - 1e-14

    def test_direct_oracle(self):
        st = make_state(amp=1e-3, mode=2)
        th = theta_grid(st.M)
        ref = np.abs(1.0 - st.R[:, None] * st.R[None, :] * np.exp(1j * (th[None, :] - th[:, None])))
        B = kernel_B(st)
        assert np.max(np.abs(B - ref)) < 1e-14

    def test_boundary_contact_rejected(self):
        with pytest.raises(BoundaryContactError):
            PatchState(0.9999995, PeriodicField(np.zeros(64)))


class TestKernelP:
    def test_equilibrium_zero(self):
        st = PatchState(0.5, PeriodicField(np.zeros(64)))
        assert np.max(np.abs(kernel_P(st))) < 1e-14

    def test_defining_identity(self):
        st = random_small_state(scale=5e-3)
        st0 = PatchState(st.b, PeriodicField(np.zeros(st.M)))
        B = kernel_B(st)
        B0 = kernel_B(st0)
        P = kernel_P(st)
        assert np.max(np.abs(B ** 2 - B0 ** 2 * (1.0 + P))) < 1e-13

    def test_linear_scaling(self):
        # |P_r|_inf <= C |r|_inf with a stable fitted C
        b = 0.5
        ratios = []
        for amp in (1e-2, 1e-3, 1e-4):
            st = make_state(b=b, amp=amp, mode=2)
            P = kernel_P(st)
            ratios.append(np.max(np.abs(P)) / amp)
        ratios = np.array(ratios)
        assert np.all(ratios < 100.0)
        assert np.max(ratios) / np.min(ratios) < 1.1  # C stable across amplitudes


class TestKernelInvariants:
    def test_even_r_reflection_symmetry(self):
        # even r: A_r(-theta,-eta) = A_r(theta,eta), same for B_r
        st = random_small_state(even=True)
        M = st.M
        idx = (-np.arange(M)) % M
        for table in (kernel_A(st), kernel_B(st)):
            reflected = table[np.ix_(idx, idx)]
            assert np.max(np.abs(reflected - table)) < 1e-13

    def test_log_A_decomposition(self):
        # log A_r = log(2b) + K1(eta-theta) + log v1 off-diagonal
        st = random_small_state()
        th = theta_grid(st.M)
        A = kernel_A(st)
        lv = log_v1(st)
        u = th[None, :] - th[:, None]
        K1 = 0.5 * np.log(np.sin(0.5 * u) ** 2, where=~np.eye(st.M, dtype=bool),
                          out=np.zeros((st.M, st.M)))
        mask = ~np.eye(st.M, dtype=bool)
        lhs = np.log(A[mask])
        rhs = (np.log(2.0 * st.b) + K1 + lv)[mask]
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_fused_tables_match_defining_forms(self):
        # the state's stack: T0 = 2 (log b + log v1), T1 = log(1 + P_r)
        for st in (random_small_state(scale=5e-3), random_small_state(b=0.8, M=256)):
            T0, T1 = st.log_tables
            assert np.max(np.abs(T0 - 2.0 * (np.log(st.b) + log_v1(st)))) < 1e-14
            assert np.max(np.abs(T1 - 2.0 * log_one_plus_P_half(st))) < 1e-14

    def test_log_B_decomposition(self):
        # log B_r = K2(eta-theta) + (1/2) log(1+P_r)
        st = random_small_state()
        th = theta_grid(st.M)
        B = kernel_B(st)
        u = th[None, :] - th[:, None]
        K2 = np.log(np.abs(1.0 - st.b ** 2 * np.exp(1j * u)))
        rhs = K2 + log_one_plus_P_half(st)
        assert np.max(np.abs(np.log(B) - rhs)) < 1e-12
