"""Finite-truncation reduction engines: transport straightening and
remainder elimination."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference
from dense_reference import compose_with
from vortexpatch import kam
from vortexpatch.kam import (
    ChangeOfVariables,
    NonReducibleError,
    ReductionState,
    SymmetryError,
    TransportProblem,
    _reflected,
    _smooth,
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
    _mode_numbers,
    offdiag_norm,
    theta_grid,
)
from vortexpatch.spectrum import omega


#: the kam-transport table's defaults: V0, gamma, upsilon and tau1
_TRANSPORT = dict(V0=0.5, gamma=1e-3, upsilon=0.5, tau1=3.0)


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

    @pytest.mark.parametrize("M", [2, 4])
    def test_zero_shift_reproduces_samples(self, M):
        # every mode, the Nyquist mode included
        rng = np.random.default_rng(M)
        vals = rng.standard_normal(M)
        out = evaluate_shifted(PeriodicField(vals), np.zeros(M))
        assert out.dtype == vals.dtype
        assert np.max(np.abs(out - vals)) < 1e-13

    @pytest.mark.parametrize("shape", [(64,), (8, 32), (4, 8, 16), (2,)])
    def test_against_exp_sum(self, shape):
        rng = np.random.default_rng(len(shape) + 10)
        vals = rng.standard_normal(shape)
        f = PeriodicField(vals)
        shift = 0.5 * rng.standard_normal(shape)
        out = evaluate_shifted(f, shift)
        ref = dense_reference.evaluate_shifted(f, shift)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        scale = np.sum(np.abs(np.fft.fft(vals, axis=-1, norm="forward")), axis=-1)
        assert np.all(np.max(np.abs(out - ref), axis=-1) <= 1e-13 * scale)

    def test_zero_padded_top_bit_identical(self):
        # coefficients at -2 <= j <= 5 give a real field on the theta band
        # |j| <= 5 (the real part adds the mirrors), with exact zeros off it;
        # the Horner loops start at the highest nonzero coefficient:
        # bit-identical to Horner over every coefficient, the zero top terms
        # included
        rng = np.random.default_rng(5)
        K, M = 8, 32
        j = _mode_numbers(M)
        coeffs = rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))
        coeffs[:, (j < -2) | (j > 5)] = 0.0
        band = np.abs(j) <= 5
        f = PeriodicField.from_coeffs(coeffs)
        c = f.theta_coeffs
        assert np.all(c[:, ~band] == 0.0)
        assert np.array_equal(c[:, band],
                              np.fft.fft(f.values, axis=-1, norm="forward")[:, band])
        shift = 0.5 * rng.standard_normal((K, M))
        assert (evaluate_shifted(f, shift).tobytes()
                == dense_reference.horner_shifted(c, shift).tobytes())

    @pytest.mark.parametrize("shape,shift_shape", [((8, 64), (8, 64)), ((32,), (4, 32)),
                                                   ((4, 8, 16), (4, 8, 16))])
    def test_sample_built_field_keeps_every_mode(self, shape, shift_shape):
        # samples have the full theta band: Horner over the whole FFT, in place,
        # bit-identical to the out-of-place loop
        rng = np.random.default_rng(len(shape))
        vals = rng.standard_normal(shape)
        f = PeriodicField(vals)
        c = np.fft.fft(vals, axis=-1, norm="forward")
        assert np.array_equal(f.theta_coeffs, c)
        shift = 0.5 * rng.standard_normal(shift_shape)
        assert (evaluate_shifted(f, shift).tobytes()
                == dense_reference.horner_shifted(c, shift).tobytes())

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

    def test_sample_built_equals_full_band_fixed_point(self):
        cov = self._cov()
        assert np.array_equal(cov.beta_hat.values,
                              dense_reference.inverse_shift(cov.beta.values))
        assert cov.band == 32

    def test_solver_band_matches_full_band(self, monkeypatch):
        # the betas of kam-transport at K 32, grid 128: the solve's band
        # |j| <= Ncut = 4, 8, 22, summed alone, against the full band
        seen = []
        solve = kam.solve_transport_homological

        def record(rhs, omega, V, gamma, upsilon, tau1, Ncut):
            beta, frac = solve(rhs, omega, V, gamma, upsilon, tau1, Ncut)
            seen.append((Ncut, beta))
            return beta, frac

        monkeypatch.setattr(kam, "solve_transport_homological", record)
        for amp in (0.1, 0.2):
            straighten_transport(TransportProblem(
                golden_frequency(1), _field_2d(32, 128, lambda p, t: amp * np.cos(t)),
                **_TRANSPORT), steps=8)
        checked = 0
        for Ncut, beta in seen:
            if Ncut < 64:
                cov = ChangeOfVariables(beta)
                assert cov.band == int(Ncut)
                ref = dense_reference.inverse_shift(beta.values)
                sup = np.max(np.abs(beta.values))
                assert np.max(np.abs(cov.beta_hat.values - ref)) <= 1e-15 * sup
                checked += 1
        assert checked == 6

    def test_large_slope_rejected(self):
        th = theta_grid(64)
        with pytest.raises(ValueError):
            ChangeOfVariables(PeriodicField(1.5 * np.sin(th)[None, :].repeat(8, 0)))

    def test_unconverged_inverse_raises(self):
        # the Nyquist mode 0.45 cos(32 theta): its slope vanishes on the nodes,
        # so the cap assumes the rate 1/2, but the interpolant's slope reaches
        # 14.4 between them and the fixed point does not contract
        th = theta_grid(64)
        with pytest.raises(ValueError, match="did not converge in 47 iterations"):
            ChangeOfVariables(PeriodicField(0.45 * np.cos(32 * th)))

    def test_slow_contraction_converges(self):
        # slope 0.9: the steps shrink about 0.9 per iteration and pass the stop
        # test after more than 200 of them, within the cap derived from the
        # slope.  The full-band oracle runs to the same cap and agrees within
        # the tolerance of test_solver_band_matches_full_band
        th = theta_grid(64)
        cov = ChangeOfVariables(PeriodicField(0.9 * np.sin(th)))
        assert cov.iterations > 200
        bh = cov.beta_hat.values
        assert np.max(np.abs(bh + evaluate_shifted(cov.beta, bh))) < 1e-13
        ref = dense_reference.inverse_shift(cov.beta.values)
        assert np.max(np.abs(bh - ref)) <= 1e-15 * np.max(np.abs(cov.beta.values))

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
        return TransportProblem(golden_frequency(1), _field_2d(K, M, f_fn),
                                **{**_TRANSPORT, **kw})

    def test_cosine_oracle(self):
        # V(theta) = 1/2 + 0.1 cos(theta) straightens to the rotation number
        # (2 pi) / int dtheta / V(theta) = sqrt(1/4 - 0.01)
        res = straighten_transport(self._problem(lambda p, t: 0.1 * np.cos(t)), steps=8)
        assert res.reducible
        assert abs(res.V_infty - np.sqrt(0.24)) < 1e-8

    def test_zero_perturbation_fixed(self):
        res = straighten_transport(self._problem(lambda p, t: 0.0 * t), steps=8)
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
            self._problem(lambda p, t: 0.1 * np.cos(t), gamma=100.0, upsilon=1.0), steps=8)
        assert not res.reducible
        assert res.history[-1][3] > 0.5

    @pytest.mark.parametrize("V0,amp", [(0.5, 0.6), (0.5, 0.5), (0.0, 0.1)],
                             ids=["changes-sign", "vanishes", "zero-mean"])
    def test_speed_without_one_sign_rejected(self, V0, amp):
        # V0 + amp cos(theta) has no rotation number to straighten to
        with pytest.raises(ValueError, match="one strict sign"):
            self._problem(lambda p, t: amp * np.cos(t), V0=V0)

    def test_negative_speed_straightens(self):
        res = straighten_transport(self._problem(lambda p, t: 0.1 * np.cos(t), V0=-0.5),
                                   steps=8)
        assert res.reducible
        assert abs(res.V_infty + np.sqrt(0.24)) < 1e-8

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
                np.broadcast_to(np.cos(th), (8, 32)).copy()), **_TRANSPORT)

    def test_history_csv(self):
        res = straighten_transport(self._problem(lambda p, t: 0.1 * np.cos(t)), steps=8)
        csv = transport_history_csv(res)
        lines = csv.strip().split("\n")
        assert lines[0] == "m,delta_s0,delta_sh,cut_fraction,V_m"
        assert len(lines) - 1 == len(res.history)


# kam-transport at K 32, grid 128, 8 steps, as recorded when each change of
# variables still summed beta over every theta mode: amp -> (V_infty,
# reducible, history rows (m, delta_s0, delta_sh, cut_fraction, V_m))
_RECORDED_TRANSPORT = {
    0.095: (0.49089204515860707, True, [
        (0, 0.09500000000000014, 0.10499123721720036, 0.0, 0.5),
        (1, 0.021469194552790706, 0.024357328007446746, 0.0, 0.5),
        (2, 0.0003884053419268242, 0.0004908048718681922, 0.0, 0.490975),
        (3, 1.9214476060657547e-07, 2.779866619583346e-07, 0.0, 0.4908920791912657),
        (4, 5.0339231400154285e-14, 2.7736573416953465e-13, 0.0, 0.49089204515861257),
        (5, 4.55077828367239e-16, 1.5270968531418395e-13, 0.0, 0.49089204515860707),
    ]),
    0.0975: (0.49040162112293223, True, [
        (0, 0.09750000000000014, 0.10775416451238964, 0.0, 0.5),
        (1, 0.022708203508441344, 0.02577894390123356, 0.0, 0.5),
        (2, 0.0004328121143192779, 0.0005473250923020177, 0.0, 0.49049375),
        (3, 2.3771957526371056e-07, 3.443898551617096e-07, 0.0, 0.4904016630744098),
        (4, 7.62523740822095e-14, 2.026710299114073e-13, 0.0, 0.4904016211229405),
        (5, 1.970964674438459e-16, 4.839043273460572e-14, 0.0, 0.49040162112293223),
    ]),
    0.1: (0.4898979485566356, True, [
        (0, 0.10000000000000014, 0.11051709180757974, 0.0, 0.5),
        (1, 0.02398668332222915, 0.027247271583089695, 0.0, 0.5),
        (2, 0.0004810253362911768, 0.0006087524945353395, 0.0, 0.49),
        (3, 2.925654179134615e-07, 4.244304122909996e-07, 0.0, 0.4898980000001163),
        (4, 1.1480575481414799e-13, 2.547160985917448e-13, 0.0, 0.489897948556648),
        (5, 0.0, 0.0, 0.0, 0.4898979485566356),
    ]),
    0.1025: (0.4893809865534214, True, [
        (0, 0.10250000000000015, 0.11328001910276835, 0.0, 0.5),
        (1, 0.02530499685472405, 0.028762833623815473, 0.0, 0.5),
        (2, 0.0005332704404119111, 0.0006753858620581584, 0.0, 0.48949375),
        (3, 3.5827457244650024e-07, 5.204831605470683e-07, 0.0, 0.489381049324281),
        (4, 1.715612404972171e-13, 3.5618570939319006e-13, 0.0, 0.48938098655343987),
        (5, 5.302864260403283e-16, 8.09136779801303e-14, 0.0, 0.4893809865534214),
    ]),
    0.105: (0.4888506929523574, True, [
        (0, 0.10500000000000016, 0.11604294639795802, 0.0, 0.5),
        (1, 0.026663506346948695, 0.030326155345096445, 0.0, 0.5),
        (2, 0.0005897808876671844, 0.0007475355286388625, 0.0, 0.488975),
        (3, 4.366657023027457e-07, 6.35266268901469e-07, 0.0, 0.4888507691839941),
        (4, 2.536379716378872e-13, 5.064471152393753e-13, 0.0, 0.4888506929523847),
        (5, 2.6522522405801907e-16, 2.986403428506881e-14, 0.0, 0.4888506929523574),
    ]),
    0.2: (0.458257569495584, True, [
        (0, 0.2000000000000003, 0.22103418361515947, 0.0, 0.5),
        (1, 0.11157546098725084, 0.1307195342549643, 0.0, 0.5),
        (2, 0.009168259064202454, 0.01214881936158155, 0.0, 0.45999999999999996),
        (3, 9.400079721037848e-05, 0.00014806432957605628, 0.0, 0.45827201856611277),
        (4, 1.046931811688132e-08, 2.2275819626887227e-08, 0.0, 0.4582575704981549),
        (5, 2.5166849646135337e-16, 4.83325757614011e-14, 0.0, 0.458257569495584),
    ]),
    0.3: (0.40000000000000013, True, [
        (0, 0.30000000000000054, 0.33155127542275253, 0.0, 0.5),
        (1, 0.28479623211802385, 0.3544174586932825, 0.0, 0.5),
        (2, 0.05628875537774229, 0.08285943477562238, 0.0, 0.41000000000000014),
        (3, 0.0032551945428716603, 0.006144001572298144, 0.0, 0.40045341938321544),
        (4, 1.2418129232176391e-05, 3.91586169974512e-05, 0.0, 0.4000010301341745),
        (5, 2.2936596048830105e-10, 5.115733709057256e-09, 0.0, 0.400000000010954),
        (6, 5.377826208055941e-12, 3.2364897764261113e-09, 0.0, 0.4000000000000001),
        (7, 5.377587264376871e-12, 3.2364742107893247e-09, 0.0, 0.40000000000000013),
    ]),
}


class TestTransportTolerance:
    """The stated tolerance of the history: summing beta on its band drops
    only round-off, which moves V_infty by at most 4 ulp and every history
    cell by at most 1e-12 times its column's row 0 (exact where that is 0)."""

    @pytest.mark.parametrize("amp", list(_RECORDED_TRANSPORT))
    def test_within_tolerance_of_recorded_run(self, amp):
        V, reducible, rows = _RECORDED_TRANSPORT[amp]
        res = straighten_transport(TransportProblem(
            golden_frequency(1), _field_2d(32, 128, lambda p, t: amp * np.cos(t)),
            **_TRANSPORT), steps=8)
        assert res.reducible == reducible
        assert len(res.history) == len(rows)
        assert abs(res.V_infty - V) <= 4 * np.spacing(V)
        got, want = np.array(res.history), np.array(rows)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want[0]))


def _initial_state(N=8, L=8, delta0=1e-3, seed=0, b=0.5, d=1):
    R = synthetic_reversible_remainder(N, L, delta0, seed=seed, d=d)
    jm = np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])
    mu = np.array([float(omega(b, int(j))) for j in jm])
    return ReductionState(omega=golden_frequency(d), mu=mu, R=R, step=0)


class TestReductionState:
    def test_frequency_count_must_match_bands(self):
        R = synthetic_reversible_remainder(4, 3, 1e-3, seed=2, d=2)
        mu = np.zeros(2 * R.N)
        with pytest.raises(ValueError, match="per phi angle"):
            ReductionState(omega=golden_frequency(1), mu=mu, R=R, step=0)
        assert ReductionState(omega=golden_frequency(2), mu=mu, R=R, step=0).R is R

    @pytest.mark.parametrize("d", [1, 2])
    def test_entry_with_real_part_refused(self, d):
        # one entry i a + x: kam_step's half grid needs every entry imaginary
        state = _initial_state(N=4, L=3, d=d)
        entries = state.R.entries.copy()
        entries[1, 2, 5] += 1e-300
        with pytest.raises(SymmetryError, match="real part"):
            ReductionState(state.omega, state.mu,
                           LinearOperatorMatrix(4, entries, state.R.bands), 0)

    def test_broken_mirror_refused(self):
        state = _initial_state(N=4, L=3)
        entries = state.R.entries.copy()
        entries[1, 2, 5] += 1e-20j
        with pytest.raises(SymmetryError, match="real and reversible"):
            ReductionState(state.omega, state.mu,
                           LinearOperatorMatrix(4, entries, state.R.bands), 0)

    def test_mu_not_odd_refused(self):
        state = _initial_state(N=4, L=3)
        mu = state.mu.copy()
        mu[0] = np.nextafter(mu[0], 0.0)
        with pytest.raises(SymmetryError, match="odd"):
            ReductionState(state.omega, mu, state.R, 0)


class TestSyntheticRemainder:
    def test_structure_exact(self):
        R = synthetic_reversible_remainder(6, 4, 1e-3, seed=1)
        assert dense_reference.mirror_deviation(R, 1.0, conjugate=True) == 0.0
        assert R.reversible_deviation() == 0.0

    def test_scale(self):
        R = synthetic_reversible_remainder(6, 4, 1e-3, seed=1)
        assert 1e-4 < offdiag_norm(R, 0.0) < 1e-2

    def test_two_forcing_frequencies(self):
        R = synthetic_reversible_remainder(4, 3, 1e-3, seed=2, d=2)
        assert R.d == 2
        assert dense_reference.mirror_deviation(R, 1.0, conjugate=True) == 0.0
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
        for cur in (state, kam_step(state, Ncut=2.0 * N, gamma=1e-2, tau2=2.5)[0]):
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
        assert dense_reference.mirror_deviation(psi, 1.0, conjugate=True) == 0.0
        assert dense_reference.mirror_deviation(psi, 1.0, conjugate=False) == 0.0

    def test_neumann_inverse(self):
        state = _initial_state(N=6, L=4)
        psi, _, _ = solve_remainder_homological(state, 1e-2, 2.5, 64.0)
        phi_inv = dense_reference.neumann_inverse(psi)
        ident = dense_reference.identity(psi.N)
        ident = LinearOperatorMatrix(psi.N, ident.entries,
                                     np.zeros((1, psi.d), dtype=int))
        resid = phi_inv @ (ident + psi) + dense_reference.scaled(ident, -1.0)
        assert offdiag_norm(resid, 0.0) < 1e-13

    def test_neumann_unconverged_raises(self):
        # |Psi| = 0.2: the terms stay far above 0 (and above underflow)
        # after 200 of them
        psi = LinearOperatorMatrix(2, 0.2 * np.eye(4)[None, :, :],
                                   np.zeros((1, 1), dtype=int))
        with pytest.raises(NonReducibleError, match="did not reach"):
            dense_reference.neumann_inverse(psi, tail=0.0)


class TestSmooth:
    @pytest.mark.parametrize("n,G", [(33, 36), (41, 45), (49, 50), (65, 72), (77, 80),
                                     (113, 120)])
    def test_next_smooth_size(self, n, G):
        assert _smooth(n) == G

    def test_smooth_sizes_fixed(self):
        smooth = [2 ** a * 3 ** b * 5 ** c
                  for a in range(8) for b in range(5) for c in range(4)]
        assert all(_smooth(n) == n for n in smooth)
        assert [_smooth(n) for n in range(1, 17)] == [1, 2, 3, 4, 5, 6, 8, 8, 9, 10,
                                                       12, 12, 15, 15, 15, 16]


class TestKamStep:
    def test_invariants_exact(self):
        state = _initial_state()
        nxt, _ = kam_step(state, Ncut=4.0, gamma=1e-2, tau2=2.5)
        nxt.assert_invariants()  # raises on any violation

    def test_remainder_shrinks(self):
        state = _initial_state()
        d_before = offdiag_norm(state.R, 0.0)
        nxt, _ = kam_step(state, Ncut=64.0, gamma=1e-2, tau2=2.5)
        # with the full truncation one step is nearly quadratic
        from vortexpatch.kam import _offnormal
        d_after = offdiag_norm(_offnormal(nxt.R), 0.0)
        assert d_after < 0.1 * d_before

    def test_non_reducible_raises(self):
        state = _initial_state()
        with pytest.raises(NonReducibleError):
            kam_step(state, gamma=1e6, Ncut=64.0, tau2=2.5)

    def test_large_psi_raises(self):
        # a remainder of size 1 gives |Psi| >= 1/2: Id + Psi is not inverted
        state = _initial_state(N=4, L=3, delta0=1.0)
        with pytest.raises(NonReducibleError, match="1/2"):
            kam_step(state, gamma=1e-6, Ncut=_window(state.R), tau2=2.5)

    @pytest.mark.parametrize("d,N,L", [(1, 6, 4), (2, 4, 3)])
    def test_grid_conjugation_matches_neumann(self, d, N, L):
        # R_next against the band-space oracle: the Neumann series of
        # (Id + Psi)^{-1} times X, cut to the window |l|_inf <= W and projected
        state = _initial_state(N, L, seed=3, d=d)
        R, Ncut = state.R, 2.0 * N
        nxt, _ = kam_step(state, Ncut=Ncut, gamma=1e-2, tau2=2.5)
        psi, resolved, _ = solve_remainder_homological(state, 1e-2, 2.5, Ncut)
        r = np.diag(R.entries[R.zero_band]).imag
        zero = np.zeros((1, d), dtype=int)
        leftover = LinearOperatorMatrix(N, R.entries - resolved, R.bands) \
            + LinearOperatorMatrix(N, (-1j * np.diag(r))[None], zero)
        nf = LinearOperatorMatrix(N, (1j * np.diag(r))[None], zero)
        X = leftover + dense_reference.scaled(psi @ nf, -1.0) + (R @ psi)
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

    @pytest.mark.parametrize("d,N,L", [(1, 6, 4), (1, 14, 10), (2, 4, 3), (2, 8, 4)])
    def test_full_grid_identity(self, d, N, L):
        # on the full grid Y = Phi^{-1} X takes -conj values at -phi, the
        # identity that lets kam_step sample half of it
        state = _initial_state(N, L, seed=3, d=d)
        step1, _ = kam_step(state, Ncut=4.0, gamma=1e-2, tau2=2.5)
        for cur, Ncut in ((state, 4.0), (step1, 8.0)):
            _, (_, G, _, _) = kam_step(cur, Ncut=Ncut, gamma=1e-2, tau2=2.5)
            _, Y = dense_reference.full_grid_step(cur, Ncut, G)
            mirror = Y[np.ix_(*[-np.arange(G) % G] * d)]
            assert np.max(np.abs(mirror + Y.conj())) <= 1e-14 * np.max(np.abs(Y))

    @pytest.mark.parametrize("d,N,L", [(1, 6, 4), (1, 14, 10), (2, 4, 3), (2, 8, 4)])
    def test_half_grid_matches_full_grid(self, d, N, L):
        # the same G, the same bands: only round-off apart
        state = _initial_state(N, L, seed=3, d=d)
        step1, _ = kam_step(state, Ncut=4.0, gamma=1e-2, tau2=2.5)
        for cur, Ncut in ((state, 4.0), (step1, 8.0)):
            nxt, (_, G, _, _) = kam_step(cur, Ncut=Ncut, gamma=1e-2, tau2=2.5)
            ref, _ = dense_reference.full_grid_step(cur, Ncut, G)
            assert np.array_equal(nxt.R.bands, ref.bands)
            assert (np.max(np.abs(nxt.R.entries - ref.entries))
                    <= 1e-15 * np.max(np.abs(cur.R.entries)))

    def test_two_frequency_step_peak_memory(self):
        # one d = 2 step at N 8, L 4 on the 72 x 72 grid: the three sampled
        # arrays are half-grid (72 x 37) and made one at a time; the measured
        # peak was 62.4 MB (the full complex grid held 161 MB)
        state, _ = kam_step(_initial_state(N=8, L=4, d=2), Ncut=4.0, gamma=1e-2, tau2=2.5)
        kam_step(state, Ncut=8.0, gamma=1e-2, tau2=2.5)
        tracemalloc.start()
        try:
            _, row = kam_step(state, Ncut=8.0, gamma=1e-2, tau2=2.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row[1] == 72
        assert peak <= 69 * 2 ** 20, peak

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_invariants_property(self, seed):
        state = _initial_state(N=4, L=3, seed=seed)
        nxt, _ = kam_step(state, Ncut=8.0, gamma=1e-2, tau2=2.5)
        assert nxt.mu_oddness_deviation() == 0.0
        assert dense_reference.mirror_deviation(nxt.R, 1.0, conjugate=True) == 0.0
        assert nxt.R.reversible_deviation() == 0.0


class TestRunRemainderKam:
    def test_three_steps(self):
        res, history, _ = run_remainder_kam(_initial_state(), steps=3, gamma=1e-2, tau2=2.5)
        res.assert_invariants()
        deltas = [row[1] for row in history]
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
        res, _, _ = run_remainder_kam(state, steps=3, gamma=1e-2, tau2=2.5)
        jm = state.R.jmodes
        assert np.max(np.abs(jm) * np.abs(res.mu - mu0)) <= 10 * delta0

    def test_two_frequencies(self):
        # d = 2 runs; golden_frequency(2) has omega_1 = 1/2, resonant with
        # mu_j - mu_{j-1} ~ 1/2, so the remainder stalls after step 1
        state = _initial_state(N=8, L=4, d=2)
        res, history, aliasing = run_remainder_kam(state, steps=3, gamma=1e-2, tau2=2.5)
        res.assert_invariants()
        deltas = [row[1] for row in history]
        assert len(deltas) == 4
        assert deltas[1] < 0.1 * deltas[0]
        assert min(deltas[2:]) > 0.5 * deltas[1]
        assert [G for _, G, _, _ in aliasing] == [45, 72, 72]

    def test_runs_own_their_logs(self):
        # two runs from one state return equal logs and leave its mu and R as they were
        s0 = _initial_state(N=4, L=3)
        mu, entries = s0.mu.copy(), s0.R.entries.copy()
        _, history, aliasing = run_remainder_kam(s0, steps=2, gamma=1e-2, tau2=2.5)
        assert [row[0] for row in history] == [0, 1, 2]
        assert [row[0] for row in aliasing] == [0, 1]
        assert run_remainder_kam(s0, steps=2, gamma=1e-2, tau2=2.5)[1:] == (history, aliasing)
        assert s0.mu.tobytes() == mu.tobytes() and s0.R.entries.tobytes() == entries.tobytes()

    def test_history_csv(self):
        _, history, _ = run_remainder_kam(_initial_state(N=4, L=3), steps=2, gamma=1e-2,
                                          tau2=2.5)
        csv = remainder_history_csv(history)
        lines = csv.strip().split("\n")
        assert lines[0] == "m,delta_s0,delta_sh"
        assert len(lines) - 1 == 3

    def test_spectrum_table(self):
        res, _, _ = run_remainder_kam(_initial_state(), steps=3, gamma=1e-2, tau2=2.5)
        tab = spectrum_table_json(res, b=0.5)
        assert set(tab["mu"]) == set(int(j) for j in res.R.jmodes)
        worst = max(abs(v["residual"]) for v in tab["mu"].values())
        assert worst < 1e-2


# run_remainder_kam for 3 steps, as recorded when kam_step sampled the full
# complex grid of size 2(W + max|l|) + 1: (d, N, L, seed) -> (history rows
# (m, delta_s0, delta_sh), mu_j for j = 1..N)
_RECORDED_REMAINDER = {
    (1, 14, 10, 0): ([
        (0, 0.0008978713049109896, 0.000932997113715274),
        (1, 0.00015373934180713033, 0.0001825448666090513),
        (2, 1.925257756707157e-05, 2.406338251489487e-05),
        (3, 3.936090931978143e-07, 5.424653378553188e-07),
    ], [
        0.12513523487811418, 0.5312776106719941, 1.0077424095315766,
        1.5020763296166386, 2.0004681625153538, 2.500225527227538,
        3.0001301593364653, 3.5000617640335623, 3.9999460694913385,
        4.499926912369034, 4.999994878562045, 5.500005635568356,
        5.9999835614384835, 6.4999767692748,
    ]),
    (1, 14, 10, 1): ([
        (0, 0.0010063958192531738, 0.0010489908851344673),
        (1, 0.00013112384104646576, 0.00015592069054116563),
        (2, 2.125882227817927e-05, 2.6576779891769733e-05),
        (3, 4.552584982967844e-07, 6.272239524053635e-07),
    ], [
        0.12465121344311907, 0.5312157337176473, 1.0079210565540138,
        1.5020579494073047, 2.0004511801752924, 2.500163995701607,
        2.999909044773825, 3.50002697721196, 4.000040173295085,
        4.500022150344412, 5.000020132242233, 5.500040051927021,
        5.999996912027365, 6.499991873310396,
    ]),
    (2, 8, 4, 0): ([
        (0, 0.00173396995870745, 0.0018271689229711406),
        (1, 0.00012836059863391837, 0.0001309807096406423),
        (2, 0.0001216965925206331, 0.00012203303517337229),
        (3, 0.00012144986251307592, 0.00012164078137848032),
    ], [
        0.12491059343331344, 0.5312373408654183, 1.0078920632620316,
        1.5019904483840152, 2.000506737666056, 2.5000613288041875,
        2.999960249936575, 3.499973320910314,
    ]),
}


class TestRemainderTolerance:
    """The stated tolerance of the remainder history: the half grid and the
    5-smooth G move only round-off and the aliasing of Phi^{-1}, which moves
    mu by at most 4 ulp and every history cell by at most 1e-14 times its
    column's row 0."""

    @pytest.mark.parametrize("key", list(_RECORDED_REMAINDER),
                             ids=lambda k: "d{}-N{}-L{}-seed{}".format(*k))
    def test_within_tolerance_of_recorded_run(self, key):
        d, N, L, seed = key
        rows, mu = _RECORDED_REMAINDER[key]
        res, history, _ = run_remainder_kam(_initial_state(N, L, seed=seed, d=d), steps=3,
                                            gamma=1e-2, tau2=2.5)
        got, want = np.array(history), np.array(rows)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want[0]))
        assert np.all(np.abs(res.mu[N:] - mu) <= 4 * np.spacing(np.array(mu)))
