"""Linearized operator: transport coefficient, nonlocal pieces, assembly."""

import numpy as np
import pytest
from dense_reference import (
    apply_operator,
    e_mode,
    entry,
    kernel_B,
    mirror_deviation,
    smooth_factor_v1,
)
from scipy import integrate

from vortexpatch.geometry import PatchState, log_kernel_integrals
from vortexpatch.linearized import (
    assemble,
    matrix_to_csv,
    operator_spectrum,
    spectrum_to_csv,
    transport_coefficient,
)
from vortexpatch.spectral import PeriodicField, spectral_derivative, theta_grid
from vortexpatch.spectrum import omega

RNG = np.random.default_rng(41)


def cos_state(b=0.5, amp=1e-3, mode=2, M=64):
    th = theta_grid(M)
    return PatchState(b, PeriodicField(amp * np.cos(mode * th)))


def zero_state(b=0.5, M=64):
    return PatchState(b, PeriodicField(np.zeros(M)))


# ---------------------------------------------------------------------------
# transport coefficient
# ---------------------------------------------------------------------------

class TestTransportCoefficient:
    def test_equilibrium_half(self):
        for b in (0.25, 0.5, 0.75):
            V = transport_coefficient(zero_state(b)).values
            assert np.max(np.abs(V - 0.5)) < 1e-13

    def test_even_symmetry(self):
        th = theta_grid(64)
        r = 1e-3 * np.cos(2 * th) + 5e-4 * np.cos(5 * th)
        V = transport_coefficient(PatchState(0.5, PeriodicField(r))).values
        idx = (-np.arange(64)) % 64
        assert np.max(np.abs(V[idx] - V)) < 1e-13

    def test_linear_scaling(self):
        # |V_r - 1/2|_inf ~ |r|_inf : log-log slope 1 +- 0.1
        b = 0.5
        amps = np.array([1e-2, 1e-3, 1e-4])
        devs = []
        for amp in amps:
            V = transport_coefficient(cos_state(b=b, amp=amp)).values
            devs.append(np.max(np.abs(V - 0.5)))
        slope = np.polyfit(np.log(amps), np.log(devs), 1)[0]
        assert abs(slope - 1.0) <= 0.1


# ---------------------------------------------------------------------------
# nonlocal operators: L_r rho and S_r rho are the log A_r and log B_r columns
# of geometry.log_kernel_integrals, the integrals that assemble() runs
# ---------------------------------------------------------------------------

def L(state, rho):
    return log_kernel_integrals(state, rho[:, None])[0][:, 0]


def S(state, rho):
    return log_kernel_integrals(state, rho[:, None])[1][:, 0]


class TestNonlocalL:
    def test_equilibrium_modes(self):
        st = zero_state(0.5)
        th = theta_grid(64)
        for j in (1, 2, 7):
            out = L(st, np.cos(j * th))
            assert np.max(np.abs(out + np.cos(j * th) / (2 * j))) < 1e-13

    def test_constant_channel(self):
        # the K1 mean (-log 2) and the explicit log(2b) combine to log b
        for b in (0.25, 0.5, 0.75):
            out = L(zero_state(b), np.ones(64))
            assert np.max(np.abs(out - np.log(b))) < 1e-13

    def test_self_adjointness(self):
        # <L rho1, rho2> = <rho1, L rho2> (symmetric kernel)
        st = cos_state(amp=2e-3)
        th = theta_grid(64)
        rng = np.random.default_rng(8)
        for _ in range(5):
            r1 = sum(rng.standard_normal() * np.cos(j * th + rng.uniform(0, 7)) for j in range(1, 5))
            r2 = sum(rng.standard_normal() * np.cos(j * th + rng.uniform(0, 7)) for j in range(1, 5))
            lhs = np.mean(L(st, r1) * r2)
            rhs = np.mean(r1 * L(st, r2))
            assert abs(lhs - rhs) < 1e-12


class TestSmoothingS:
    def test_equilibrium_modes(self):
        b = 0.5
        st = zero_state(b)
        th = theta_grid(64)
        for j in (1, 2, 5):
            out = S(st, np.cos(j * th))
            expected = -b ** (2 * j) * np.cos(j * th) / (2 * j)
            assert np.max(np.abs(out - expected)) < 1e-14

    def test_constant_channel_zero(self):
        # the K2 kernel has zero mean
        out = S(zero_state(0.5), np.ones(64))
        assert np.max(np.abs(out)) < 1e-14

    def test_smoothing_decay(self):
        # |S_r e_j| decays at least like b^(2j)/j, also at r != 0
        b = 0.5
        for st in (zero_state(b), cos_state(b=b, amp=2e-3)):
            norms = []
            for j in (1, 2, 4, 8):
                out = S(st, np.cos(j * th_64()))
                norms.append(np.max(np.abs(out)))
            bound = [2.0 * b ** (2 * j) / (2 * j) for j in (1, 2, 4, 8)]
            assert all(n <= bd for n, bd in zip(norms, bound))


def th_64():
    return theta_grid(64)


# ---------------------------------------------------------------------------
# multiplier identities (independent adaptive quadrature)
# ---------------------------------------------------------------------------

class TestMultiplierIdentities:
    def test_log_sin_identity(self):
        # (1/2pi) int log(sin^2(eta/2)) cos(j eta) deta = -1/j
        for j in (1, 2, 5, 12, 32):
            val, err = integrate.quad(
                lambda u, j=j: np.log(np.sin(0.5 * u) ** 2) * np.cos(j * u),
                0.0, np.pi, limit=400, epsabs=1e-13, epsrel=1e-13,
            )
            val /= np.pi  # symmetric half-interval, normalized measure
            assert abs(val + 1.0 / j) < 1e-10

    def test_log_image_identity(self):
        # (1/2pi) int log|1 - b^2 e^{i eta}| cos(j eta) deta = -b^(2j)/(2j)
        for b in (0.25, 0.5, 0.9):
            for j in (1, 3, 10):
                val, _ = integrate.quad(
                    lambda u, b=b, j=j: np.log(np.abs(1 - b * b * np.exp(1j * u))) * np.cos(j * u),
                    0.0, np.pi, limit=200, epsabs=1e-13, epsrel=1e-13,
                )
                val /= np.pi
                assert abs(val + b ** (2 * j) / (2 * j)) < 1e-10

    def test_equilibrium_L_hermitian(self):
        # the Fourier matrix of L(b) = -1/2 - K_b* is diagonal real: Hermitian
        G = assemble(zero_state(0.5), 8)
        E = G.entries[0]
        offdiag = E - np.diag(np.diag(E))
        assert np.max(np.abs(offdiag)) < 1e-9
        # multiplier of L itself: -Omega_|j|/|j|, real
        for a, j in enumerate(G.jmodes):
            lam = E[a, a] / (1j * j)  # divide off the outer -d_theta... sign below
            assert abs(lam.imag) < 1e-12


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

class TestAssemble:
    def test_equilibrium_diagonal(self):
        b = 0.5
        G = assemble(zero_state(b), 16, )
        E = G.entries[0]
        for a, j in enumerate(G.jmodes):
            assert abs(E[a, a] + 1j * omega(b, int(j))) < 1e-12
        off = E - np.diag(np.diag(E))
        assert np.max(np.abs(off)) <= 1e-9

    def test_structure_predicates(self):
        for st in (zero_state(0.5), cos_state(amp=2e-3)):
            G = assemble(st, 8)
            assert mirror_deviation(G, 1.0, conjugate=True) <= 1e-12
            assert G.reversible_deviation() <= 1e-12

    def test_truncation_guard(self):
        with pytest.raises(ValueError):
            assemble(zero_state(0.5, M=64), 30)
        with pytest.raises(ValueError):
            assemble(zero_state(0.5), 0)

    def test_eigenvalue_perturbation(self):
        # spectrum at eps cos(2 theta) within C eps of the equilibrium multipliers
        b, N = 0.5, 8
        dists = {}
        for eps in (1e-3, 1e-4):
            G = assemble(cos_state(b=b, amp=eps, M=128), N)
            vals = np.linalg.eigvals(G.entries[0])
            target = [-1j * omega(b, int(j)) for j in G.jmodes]
            dists[eps] = max(np.min(np.abs(vals - t)) for t in target)
        assert dists[1e-3] <= 0.5 * 1e-3
        assert dists[1e-4] <= 0.5 * 1e-4

    def test_matrix_vs_apply(self):
        # the assembled matrix reproduces the operator application on a mode
        st = cos_state(amp=1e-3)
        G = assemble(st, 8)
        f = e_mode((64,), l=None, j=3)
        out = apply_operator(G, f)
        # column of G at j0=3 gives the same coefficients
        chat = np.fft.fft(out, norm="forward")
        for a, j in enumerate(G.jmodes):
            assert abs(chat[int(j) % 64] - entry(G, (), int(j), 3)) < 1e-12


class TestKressOracle:
    def test_brute_force_assembly_agreement(self):
        # independent path: dense Kress-type log-corrected weight matrix for
        # the K1 kernel plus pointwise smooth-factor quadrature, vs the
        # FFT-shift multiplier path used by assemble()
        M, N, b, eps = 256, 8, 0.5, 1e-3
        th = theta_grid(M)
        st = PatchState(b, PeriodicField(eps * np.cos(2 * th)))
        u = th[None, :] - th[:, None]
        W = np.zeros((M, M))
        for m in range(1, M // 2):
            W += -np.cos(m * u) / m
        W += -np.cos((M // 2) * u) / M  # half-weight Nyquist band
        KW = W / M

        v1 = smooth_factor_v1(st)
        log_smooth_A = np.log(b * v1)
        logB = np.log(kernel_B(st))
        dR = st.dR
        D1 = dR[None, :] * np.sin(u) + st.R[None, :] * np.cos(u)
        V = (
            -0.5 * np.mean(st.R ** 2) / st.R ** 2
            - (KW @ np.ones(M) * 0.0 + np.sum(KW * D1, axis=1)
               + (log_smooth_A * D1).mean(axis=1)) / st.R
            - (logB * D1).mean(axis=1) / st.R ** 3
        )
        jmodes = np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])
        E = np.zeros((2 * N, 2 * N), dtype=complex)
        for c, j0 in enumerate(jmodes):
            rho = np.exp(1j * j0 * th)
            Lr = KW @ rho + (log_smooth_A * rho[None, :]).mean(axis=1)
            Sr = (logB * rho[None, :]).mean(axis=1)
            g = V * rho + Lr - Sr  # complex: d_theta of each part
            col = -(spectral_derivative(g.real) + 1j * spectral_derivative(g.imag))
            ch = np.fft.fft(col, norm="forward")
            for a, j in enumerate(jmodes):
                E[a, c] = ch[int(j) % M]
        G = assemble(st, N)
        assert np.max(np.abs(G.entries[0] - E)) < 1e-6


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

class TestExport:
    def test_matrix_csv(self):
        G = assemble(zero_state(0.5), 2)
        lines = matrix_to_csv(G).strip().split("\n")
        assert lines[0] == "j,j0,re,im"
        assert len(lines) == 1 + 16
        j, j0, re, im = lines[1].split(",")
        assert (int(j), int(j0)) == (-2, -2)
        assert complex(float(re), float(im)) == pytest.approx(
            -1j * omega(0.5, -2), abs=1e-12
        )

    def test_spectrum_csv(self):
        G = assemble(zero_state(0.5), 4)
        lines = spectrum_to_csv(G).strip().split("\n")
        assert lines[0] == "j,re_lambda,im_lambda"
        rows = {int(l.split(",")[0]): complex(float(l.split(",")[1]), float(l.split(",")[2]))
                for l in lines[1:]}
        for j in (-4, -1, 2, 3):
            assert rows[j] == pytest.approx(-1j * omega(0.5, j), abs=1e-10)

    def test_operator_spectrum_labels(self):
        spec = operator_spectrum(assemble(cos_state(amp=1e-4), 6))
        js = [j for j, _ in spec]
        assert js == sorted(js)
        assert len(js) == len(set(js)) == 12
