"""Finite-truncation reduction engines: transport straightening and
remainder elimination."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference
from dense_reference import compose_with
from vortexpatch.kam import (
    ChangeOfVariables,
    NonReducibleError,
    ReductionState,
    TransportProblem,
    _reflected,
    _window,
    analytic_norm,
    evaluate_shifted,
    golden_frequency,
    kam_step,
    remainder_history_csv,
    run_remainder_kam,
    smooth_cutoff,
    solve_remainder_homological,
    solve_transport_homological,
    spectrum_table_json,
    straighten_transport,
    synthetic_reversible_remainder,
    transport_history_csv,
)
from vortexpatch.spectral import (
    LinearOperatorMatrix,
    PeriodicField,
    _mirror_project,
    offdiag_norm,
    theta_grid,
)
from vortexpatch.spectrum import omega


def _field_2d(K, M, fn):
    ph = theta_grid(K)
    th = theta_grid(M)
    vals = np.asarray(fn(ph[:, None], th[None, :]), dtype=float)
    return PeriodicField(np.broadcast_to(vals, (K, M)).copy())


class TestSmoothCutoff:
    def test_plateaus(self):
        assert np.all(smooth_cutoff(np.linspace(-1 / 3, 1 / 3, 50)) == 0.0)
        assert np.all(smooth_cutoff(np.array([0.5, 0.7, -2.0, 100.0])) == 1.0)

    def test_monotone_between(self):
        xs = np.linspace(1 / 3, 1 / 2, 200)
        ys = smooth_cutoff(xs)
        assert np.all(np.diff(ys) >= 0)
        assert np.all((ys >= 0) & (ys <= 1))

    def test_even(self):
        xs = np.linspace(0, 1, 37)
        assert np.array_equal(smooth_cutoff(xs), smooth_cutoff(-xs))

    def test_intermediate_value(self):
        y = float(smooth_cutoff(np.array([0.42]))[0])
        assert 0.0 < y < 1.0


class TestGoldenFrequency:
    def test_values(self):
        g = 0.5 * (np.sqrt(5) - 1)
        assert np.allclose(golden_frequency(1), [g])
        assert np.allclose(golden_frequency(2), [0.5, 0.5 * (1 + g)])

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            golden_frequency(3)


class TestAnalyticNorm:
    def test_single_mode(self):
        th = theta_grid(32)
        f = PeriodicField(np.cos(th))
        # coefficients 1/2 at j = +-1, weight <j> = 1
        for s in (0.0, 0.1, 0.5):
            assert abs(analytic_norm(f, s) - np.exp(s)) < 1e-12


def _samples(vals):
    """A field holding vals. PeriodicField admits power-of-two sizes only, and
    evaluate_shifted reads only .values, so other sizes go in through a bare
    holder: the formula covers every M."""
    if all(n >= 2 and n & (n - 1) == 0 for n in vals.shape):
        return PeriodicField(vals)
    return SimpleNamespace(values=vals)


class TestEvaluateShifted:
    def test_constant_shift(self):
        th = theta_grid(64)
        f = PeriodicField(np.cos(th))
        delta = 0.3
        out = evaluate_shifted(f, np.full(64, delta))
        assert np.max(np.abs(out - np.cos(th + delta))) < 1e-13

    def test_zero_shift_identity(self):
        th = theta_grid(32)
        vals = np.cos(th) + 0.5 * np.sin(3 * th)
        out = evaluate_shifted(PeriodicField(vals), np.zeros(32))
        assert np.max(np.abs(out - vals)) < 1e-13

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 63])
    @pytest.mark.parametrize("real", [True, False])
    def test_zero_shift_reproduces_samples(self, M, real):
        # every mode, the Nyquist mode of even M and the top mode of odd M included
        rng = np.random.default_rng(M)
        vals = rng.standard_normal(M)
        if not real:
            vals = vals + 1j * rng.standard_normal(M)
        out = evaluate_shifted(_samples(vals), np.zeros(M))
        assert out.dtype == vals.dtype
        assert np.max(np.abs(out - vals)) < 1e-13

    @pytest.mark.parametrize("shape", [(64,), (63,), (8, 32), (3, 5), (4, 8, 16), (2,)])
    @pytest.mark.parametrize("real", [True, False])
    def test_against_exp_sum(self, shape, real):
        rng = np.random.default_rng(len(shape) + 10 * real)
        vals = rng.standard_normal(shape)
        if not real:
            vals = vals + 1j * rng.standard_normal(shape)
        f = _samples(vals)
        shift = 0.5 * rng.standard_normal(shape)
        out = evaluate_shifted(f, shift)
        ref = dense_reference.evaluate_shifted(f, shift)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        scale = np.sum(np.abs(np.fft.fft(vals, axis=-1, norm="forward")), axis=-1)
        assert np.all(np.max(np.abs(out - ref), axis=-1) <= 1e-13 * scale)

    def test_shift_broadcasts_over_field(self):
        th = theta_grid(32)
        f = PeriodicField(np.cos(th) + 0.5 * np.sin(3 * th))
        shift = np.linspace(-1.0, 1.0, 4)[:, None] * np.ones(32)
        out = evaluate_shifted(f, shift)
        assert out.shape == (4, 32)
        exact = np.cos(th + shift) + 0.5 * np.sin(3 * (th + shift))
        assert np.max(np.abs(out - exact)) < 1e-13


class TestChangeOfVariables:
    def _cov(self, amp=0.2, K=8, M=64):
        beta = _field_2d(K, M, lambda p, t: amp * np.sin(t - p))
        return ChangeOfVariables(beta)

    def test_inverse_residual(self):
        cov = self._cov()
        bh = cov.beta_hat.values
        assert np.max(np.abs(bh + evaluate_shifted(cov.beta, bh))) < 1e-12

    def test_odd_shift(self):
        v = self._cov().beta.values
        assert np.max(np.abs(_reflected(v) + v)) < 1e-14

    def test_large_slope_rejected(self):
        th = theta_grid(64)
        with pytest.raises(ValueError):
            ChangeOfVariables(PeriodicField(1.5 * np.sin(th)[None, :].repeat(8, 0)))

    def test_unconverged_inverse_raises(self):
        # slope 0.95: the fixed point contracts like 0.95^k, still far above
        # the 1e-14 tolerance after 200 iterations
        th = theta_grid(64)
        with pytest.raises(ValueError, match="did not converge"):
            ChangeOfVariables(PeriodicField(0.95 * np.sin(th)))

    def test_composition_inverts(self):
        cov = self._cov(amp=0.15, M=128)
        f = _field_2d(8, 128, lambda p, t: np.cos(t) + 0.3 * np.cos(2 * t + p))
        back = compose_with(compose_with(f, cov), cov, inverse=True)
        assert np.max(np.abs(back.values - f.values)) < 1e-9

    def test_weighted_adjoint(self):
        # <B r1, r2> = <r1, B^{-1} r2> for the measure-preserving version
        cov = self._cov(amp=0.1, M=128)
        rng = np.random.default_rng(0)
        th = theta_grid(128)
        r1 = PeriodicField(np.cos(th)[None, :]
                           + 0.2 * np.cos(2 * th)[None, :] + 0 * rng.random((8, 1)))
        r2 = PeriodicField(np.sin(3 * th)[None, :] + 0.1 * np.cos(th)[None, :]
                           + 0 * rng.random((8, 1)))
        lhs = np.mean(compose_with(r1, cov, weighted=True).values * r2.values)
        rhs = np.mean(r1.values * compose_with(r2, cov, weighted=True,
                                               inverse=True).values)
        assert abs(lhs - rhs) < 1e-10

    def test_intertwines_theta_derivative(self):
        # chain rule: weighted composition of d_theta f equals d_theta of the
        # plain composition, for both the forward and the inverse shift
        cov = self._cov(amp=0.02, K=4, M=512)
        f = _field_2d(4, 512, lambda p, t: np.cos(t) + 0.5 * np.sin(2 * t))
        from vortexpatch.spectral import spectral_derivative
        for inverse in (False, True):
            lhs = compose_with(PeriodicField(spectral_derivative(f.values)), cov,
                               weighted=True, inverse=inverse).values
            rhs = spectral_derivative(compose_with(f, cov, inverse=inverse).values)
            assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestTransportHomological:
    def test_exact_solution(self):
        # (omega d_phi + V d_theta) beta = rhs with rhs = cos(theta):
        # beta = sin(theta)/V when the cutoff is inactive
        M = 64
        th = theta_grid(M)
        rhs = PeriodicField(np.broadcast_to(np.cos(th), (8, M)).copy())
        beta, frac = solve_transport_homological(
            rhs, golden_frequency(1), 0.5, 1e-3, 0.5, 3.0, Ncut=32)
        assert frac == 0.0
        assert np.max(np.abs(beta.values - 2.0 * np.sin(th))) < 1e-12

    def test_cut_fraction_reports(self):
        M = 64
        th = theta_grid(M)
        rhs = PeriodicField(np.broadcast_to(np.cos(th), (8, M)).copy())
        # gamma^upsilon = 10 makes every threshold dominate the divisors
        _, frac = solve_transport_homological(
            rhs, golden_frequency(1), 0.5, 100.0, 1.0, 3.0, Ncut=32)
        assert frac == 1.0


class TestStraightenTransport:
    def _problem(self, f_fn, K=16, M=64, **kw):
        return TransportProblem(golden_frequency(1), _field_2d(K, M, f_fn), **kw)

    def test_cosine_oracle(self):
        # V(theta) = 1/2 + 0.1 cos(theta) straightens to the rotation number
        # (2 pi) / int dtheta / V(theta) = sqrt(1/4 - 0.01)
        res = straighten_transport(self._problem(lambda p, t: 0.1 * np.cos(t)))
        assert res.reducible
        assert abs(res.V_infty - np.sqrt(0.24)) < 1e-8

    def test_zero_perturbation_fixed(self):
        res = straighten_transport(self._problem(lambda p, t: 0.0 * t))
        assert res.reducible
        assert res.V_infty == 0.5
        assert len(res.history) == 1  # stopped at m = 0, before any change of variables

    def test_quadratic_convergence(self):
        f = lambda p, t: 1e-3 * (np.cos(p) * np.cos(t) + 0.5 * np.cos(2 * t)
                                 + 0.3 * np.sin(p) * np.sin(t))
        res = straighten_transport(self._problem(f), steps=6)
        deltas = [row[1] for row in res.history if row[1] > 1e-14]
        logs = np.log(np.array(deltas))
        slopes = logs[1:] / logs[:-1]
        assert np.all(slopes >= 1.4)

    def test_non_reducible_path(self):
        res = straighten_transport(
            self._problem(lambda p, t: 0.1 * np.cos(t), gamma=100.0, upsilon=1.0))
        assert not res.reducible
        assert res.history[-1][3] > 0.5

    def test_odd_f0_rejected(self):
        with pytest.raises(ValueError):
            self._problem(lambda p, t: 0.1 * np.sin(t))

    @pytest.mark.parametrize("steps", [0, -1])
    def test_no_step_rejected(self, steps):
        # with no step run, reducibility is unknown
        with pytest.raises(ValueError, match="steps >= 1"):
            straighten_transport(self._problem(lambda p, t: 0.1 * np.cos(t)), steps=steps)

    def test_dimension_mismatch_rejected(self):
        th = theta_grid(32)
        with pytest.raises(ValueError):
            TransportProblem(golden_frequency(2), PeriodicField(
                np.broadcast_to(np.cos(th), (8, 32)).copy()))

    def test_history_csv(self):
        res = straighten_transport(self._problem(lambda p, t: 0.1 * np.cos(t)))
        csv = transport_history_csv(res)
        lines = csv.strip().split("\n")
        assert lines[0] == "m,delta_s0,delta_sh,cut_fraction,V_m"
        assert len(lines) - 1 == len(res.history)


def _initial_state(N=8, L=8, delta0=1e-3, seed=0, b=0.5, d=1):
    R = synthetic_reversible_remainder(N, L, delta0, seed=seed, d=d)
    jm = np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])
    mu = np.array([float(omega(b, int(j))) for j in jm])
    return ReductionState(omega=golden_frequency(d), mu=mu, R=R)


class TestReductionState:
    def test_frequency_count_must_match_bands(self):
        R = synthetic_reversible_remainder(4, 3, 1e-3, seed=2, d=2)
        mu = np.zeros(2 * R.N)
        with pytest.raises(ValueError, match="per phi angle"):
            ReductionState(omega=golden_frequency(1), mu=mu, R=R)
        assert ReductionState(omega=golden_frequency(2), mu=mu, R=R).R is R


class TestSyntheticRemainder:
    def test_structure_exact(self):
        R = synthetic_reversible_remainder(6, 4, 1e-3, seed=1)
        assert R.real_deviation() == 0.0
        assert R.reversible_deviation() == 0.0

    def test_scale(self):
        R = synthetic_reversible_remainder(6, 4, 1e-3, seed=1)
        assert 1e-4 < offdiag_norm(R, 0.0) < 1e-2

    def test_two_forcing_frequencies(self):
        R = synthetic_reversible_remainder(4, 3, 1e-3, seed=2, d=2)
        assert R.d == 2
        assert R.real_deviation() == 0.0
        assert R.reversible_deviation() == 0.0


class TestRemainderHomological:
    def test_residual_on_uncut_modes(self):
        state = _initial_state(N=6, L=4)
        gamma, tau2, Ncut = 1e-2, 2.5, 64.0
        psi, resolved, frac = solve_remainder_homological(state, gamma, tau2, Ncut)
        jm = state.R.jmodes
        mu = state.mu
        worst = 0.0
        for bi, m in enumerate(state.R.bands):
            div = float(np.dot(state.omega, m)) + mu[:, None] - mu[None, :]
            resid = 1j * div * psi.entries[bi] + resolved[bi]
            worst = max(worst, float(np.max(np.abs(resid))))
        assert worst < 1e-12

    @pytest.mark.parametrize("d,N,L", [(1, 6, 4), (1, 14, 10), (2, 4, 3), (2, 8, 4)])
    def test_bit_equal_to_band_loop(self, d, N, L):
        # gamma 30 puts many entries in the transition of the cutoff, where a
        # last-bit change of a threshold <l>^tau2 changes chi
        state = _initial_state(N, L, d=d)
        for cur in (state, kam_step(state, Ncut=2.0 * N)):
            for Ncut, gamma in itertools.product((4.0, 2.0 * N, 64.0), (1e-2, 30.0)):
                psi, resolved, frac = solve_remainder_homological(cur, gamma, 2.5, Ncut)
                ref = dense_reference.solve_remainder_homological(cur, gamma, 2.5, Ncut)
                assert np.array_equal(psi.bands, ref[0].bands)
                assert psi.entries.tobytes() == ref[0].entries.tobytes()
                assert resolved.tobytes() == ref[1].tobytes()
                assert frac == ref[2]

    def test_psi_structure(self):
        state = _initial_state(N=6, L=4)
        psi, _, _ = solve_remainder_homological(state, 1e-2, 2.5, 64.0)
        assert psi.real_deviation() == 0.0
        assert psi._mirror_deviation(1.0, conjugate=False) == 0.0

    def test_neumann_inverse(self):
        state = _initial_state(N=6, L=4)
        psi, _, _ = solve_remainder_homological(state, 1e-2, 2.5, 64.0)
        phi_inv = dense_reference.neumann_inverse(psi)
        ident = dense_reference.identity(psi.N)
        ident = LinearOperatorMatrix(psi.N, ident.entries,
                                     np.zeros((1, psi.d), dtype=int))
        resid = phi_inv @ (ident + psi) - ident
        assert offdiag_norm(resid, 0.0) < 1e-13

    def test_neumann_unconverged_raises(self):
        # |Psi| = 0.2: the terms stay far above 0 (and above underflow)
        # after 200 of them
        psi = LinearOperatorMatrix(2, 0.2 * np.eye(4)[None, :, :],
                                   np.zeros((1, 1), dtype=int))
        with pytest.raises(NonReducibleError, match="did not reach"):
            dense_reference.neumann_inverse(psi, tail=0.0)


class TestKamStep:
    def test_invariants_exact(self):
        state = _initial_state()
        nxt = kam_step(state, Ncut=4.0)
        nxt.assert_invariants()  # raises on any violation

    def test_remainder_shrinks(self):
        state = _initial_state()
        d_before = offdiag_norm(state.R, 0.0)
        nxt = kam_step(state, Ncut=64.0)
        # with the full truncation one step is nearly quadratic
        from vortexpatch.kam import _offnormal
        d_after = offdiag_norm(_offnormal(nxt.R), 0.0)
        assert d_after < 0.1 * d_before

    def test_non_reducible_raises(self):
        state = _initial_state()
        with pytest.raises(NonReducibleError):
            kam_step(state, gamma=1e6, Ncut=64.0)

    def test_large_psi_raises(self):
        # a remainder of size 1 gives |Psi| >= 1/2: Id + Psi is not inverted
        state = _initial_state(N=4, L=3, delta0=1.0)
        with pytest.raises(NonReducibleError, match="1/2"):
            kam_step(state, gamma=1e-6, Ncut=_window(state.R))

    @pytest.mark.parametrize("d,N,L", [(1, 6, 4), (2, 4, 3)])
    def test_grid_conjugation_matches_neumann(self, d, N, L):
        # R_next against the band-space oracle: the Neumann series of
        # (Id + Psi)^{-1} times X, cut to the window |l|_inf <= W and projected
        state = _initial_state(N, L, seed=3, d=d)
        R, Ncut = state.R, 2.0 * N
        nxt = kam_step(state, Ncut=Ncut)
        psi, resolved, _ = solve_remainder_homological(state, 1e-2, 2.5, Ncut)
        r = np.diag(R.entries[R.zero_band]).imag
        zero = np.zeros((1, d), dtype=int)
        leftover = LinearOperatorMatrix(N, R.entries - resolved, R.bands) \
            + LinearOperatorMatrix(N, -1j * np.diag(r), zero)
        nf = LinearOperatorMatrix(N, 1j * np.diag(r), zero)
        X = leftover + (-1.0 * (psi @ nf)) + (R @ psi)
        W = 2 * N
        ref = dense_reference.truncate_bands(dense_reference.neumann_inverse(psi) @ X, W)
        ref = LinearOperatorMatrix(N, 1j * _mirror_project(ref.entries.imag, -1), ref.bands)
        assert np.array_equal(nxt.R.bands,
                              np.indices((2 * W + 1,) * d).reshape(d, -1).T - W)
        got = {tuple(m): e for m, e in zip(nxt.R.bands, nxt.R.entries)}
        worst = max(np.max(np.abs(got.pop(tuple(m)) - e))
                    for m, e in zip(ref.bands, ref.entries))
        worst = max([worst] + [np.max(np.abs(e)) for e in got.values()])
        assert worst <= 1e-13 * np.max(np.abs(R.entries))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_invariants_property(self, seed):
        state = _initial_state(N=4, L=3, seed=seed)
        nxt = kam_step(state, Ncut=8.0)
        assert nxt.mu_oddness_deviation() == 0.0
        assert nxt.R.real_deviation() == 0.0
        assert nxt.R.reversible_deviation() == 0.0


class TestRunRemainderKam:
    def test_three_steps(self):
        res = run_remainder_kam(_initial_state(), steps=3)
        res.assert_invariants()
        deltas = [row[1] for row in res.history]
        assert deltas[-1] < 1e-10
        logs = [math.log(d) for d in deltas if d > 0]
        x = np.array(logs[:-1])
        y = np.array(logs[1:])
        slope = np.polyfit(x, y, 1)[0]
        assert slope >= 1.4

    def test_frequency_correction_bounded(self):
        delta0 = 1e-3
        state = _initial_state(delta0=delta0)
        mu0 = state.mu.copy()
        res = run_remainder_kam(state, steps=3)
        jm = state.R.jmodes
        assert np.max(np.abs(jm) * np.abs(res.mu - mu0)) <= 10 * delta0

    def test_two_frequencies(self):
        # d = 2 runs; golden_frequency(2) has omega_1 = 1/2, resonant with
        # mu_j - mu_{j-1} ~ 1/2, so the remainder stalls after step 1
        state = _initial_state(N=8, L=4, d=2)
        res = run_remainder_kam(state, steps=3)
        res.assert_invariants()
        deltas = [row[1] for row in res.history]
        assert len(deltas) == 4
        assert deltas[1] < 0.1 * deltas[0]
        assert min(deltas[2:]) > 0.5 * deltas[1]
        assert [G for _, G, _, _ in res.aliasing] == [41, 65, 65]

    def test_runs_own_their_logs(self):
        # two runs from one state: equal logs of their own, the state untouched
        s0 = _initial_state(N=4, L=3)
        first = run_remainder_kam(s0, steps=2)
        second = run_remainder_kam(s0, steps=2)
        assert s0.history == [] and s0.aliasing == []
        assert [row[0] for row in second.history] == [0, 1, 2]
        assert second.history == first.history
        assert len(second.aliasing) == 2
        assert second.aliasing == first.aliasing
        one = kam_step(s0, Ncut=4.0)
        assert s0.aliasing == [] and len(one.aliasing) == 1

    def test_history_csv(self):
        res = run_remainder_kam(_initial_state(N=4, L=3), steps=2)
        csv = remainder_history_csv(res)
        lines = csv.strip().split("\n")
        assert lines[0] == "m,delta_s0,delta_sh"
        assert len(lines) - 1 == 3

    def test_spectrum_table(self):
        res = run_remainder_kam(_initial_state(), steps=3)
        tab = spectrum_table_json(res, b=0.5)
        assert set(tab["mu"]) == set(int(j) for j in res.R.jmodes)
        worst = max(abs(v["residual"]) for v in tab["mu"].values())
        assert worst < 1e-2
