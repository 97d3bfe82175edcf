"""Contour dynamics: velocity functional, energy/Hamiltonian, time stepping."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

import dense_reference as ref
import vortexpatch.geometry as geometry
from vortexpatch.dynamics import (
    EvolutionConfig,
    NoFrequencyError,
    Trajectory,
    _dealias_projector,
    _delta_tables,
    _delta_terms,
    _Fmm2,
    _phi_kernel,
    _psi_kernel,
    _rhs,
    _SC,
    dealias,
    energy,
    extract_frequencies,
    hamiltonian,
    quasi_periodic_seed,
    simulate,
    stream_gradient,
    trajectory_summary,
    trajectory_to_csv,
    velocity_functional,
)
from vortexpatch.geometry import (
    DegeneratePatchError,
    PatchState,
    _disc_tables,
    _grid_tables,
    pair_trig,
)
from vortexpatch.spectral import PeriodicField, spectral_derivative, theta_grid

RNG = np.random.default_rng(33)


def omega_eq(b, j):
    """Equilibrium rotation frequency (j - 1 + b^(2j))/2."""
    return 0.5 * (j - 1 + b ** (2 * j))


def cos_state(b=0.5, amp=1e-3, mode=2, M=64):
    th = theta_grid(M)
    return PatchState(b, PeriodicField(amp * np.cos(mode * th)))


# ---------------------------------------------------------------------------
# closed-form radial kernels vs adaptive quadrature
# ---------------------------------------------------------------------------

class TestRadialKernels:
    def green(self, l1, l2, delta):
        w = l1
        xi = l2 * np.exp(1j * delta)
        return np.log(abs(w - xi)) - np.log(abs(1.0 - w * np.conj(xi)))

    @pytest.mark.parametrize(
        "rho1,rho2,delta",
        [(0.3, 0.55, 1.1), (0.62, 0.41, 2.7), (0.2, 0.7, 0.4), (0.5, 0.5, 1.5)],
    )
    def test_phi_against_dblquad(self, rho1, rho2, delta):
        def f(l2, l1):
            return self.green(l1, l2, delta) * l1 * l2

        ref, err = integrate.dblquad(f, 0.0, rho1, 0.0, rho2, epsabs=1e-12, epsrel=1e-12)
        val = float(_phi_kernel(np.array(rho1), np.array(rho2), _delta_terms(delta)))
        assert abs(val - ref) < 1e-10 + 10 * err

    @pytest.mark.parametrize(
        "rho1,rho2,delta",
        [(0.3, 0.55, 1.1), (0.62, 0.41, 2.7), (0.45, 0.45, 0.9)],
    )
    def test_psi_against_quad(self, rho1, rho2, delta):
        def f(l2):
            return self.green(rho1, l2, delta) * l2

        ref, err = integrate.quad(f, 0.0, rho2, epsabs=1e-13, epsrel=1e-13,
                                  points=[rho1] if rho1 < rho2 else None)
        val = float(_psi_kernel(rho1, rho2, _delta_terms(delta)))
        assert abs(val - ref) < 1e-10 + 10 * err

    def test_phi_symmetric_in_radii(self):
        r1, r2 = np.array(0.3), np.array(0.6)
        terms = _delta_terms(np.array(0.8))
        assert abs(_phi_kernel(r1, r2, terms) - _phi_kernel(r2, r1, terms)) < 1e-15

    @pytest.mark.parametrize("delta", [1e-10, 5e-10])
    @pytest.mark.parametrize("rho1,rho2", [(0.3, 0.4), (0.4, 0.3)])
    def test_psi_even_in_delta(self, rho1, rho2, delta):
        # the w = 1 limit applies on both sides of Delta = 0
        assert (_psi_kernel(rho1, rho2, _delta_terms(-delta))
                == _psi_kernel(rho1, rho2, _delta_terms(delta)))


# ---------------------------------------------------------------------------
# fast paths against the full-work references
# ---------------------------------------------------------------------------

def _criterion5_r0(M):
    th = theta_grid(M)
    return 0.05 * np.cos(2 * th) + 0.04 * np.cos(5 * th) + 0.02 * np.cos(8 * th)


class TestFastPaths:
    MIXED = np.array([0.0, 0.1 + 0.2j, 0.49, -0.3j, 0.5, 0.7 - 0.2j, -0.9, 0.6 + 0.7j,
                      1.0 + 3e-10j, 1.0 - 4e-10, np.exp(2e-10j), 0.999 + 0.01j])

    @pytest.mark.parametrize("z", [
        MIXED,
        MIXED.reshape(3, 4),
        np.array([0.0, 0.1j, -0.2, 0.3 + 0.3j, 0.49]),  # all |z| < 0.5
        np.array([0.5, -0.6j, 0.8 + 0.1j, 1.0 + 1e-10j, -0.99]),  # none
        np.asarray(0.25 + 0.1j),
        np.asarray(0.75 - 0.1j),
    ])
    def test_guarded_series_bit_equal(self, z):
        lg = np.log(1.0 - np.asarray(z, dtype=complex))
        for fast, full in ((lambda z: _SC(z, lg), ref.series_SC), (_Fmm2, ref.series_Fmm2)):
            got, want = fast(z), full(z)
            assert got.shape == want.shape
            assert np.all(got == want)

    # M = 16 is one partial row block of stream_gradient, M = 512 sixteen full ones
    @pytest.mark.parametrize("M", [16, 32, 64, 256, 512])
    def test_energy_and_gradient_bit_equal(self, M):
        th = theta_grid(M)
        for r in (_criterion5_r0(M), 1e-3 * np.cos(2 * th) + 4e-4 * np.sin(3 * th)):
            st = PatchState(0.5, PeriodicField(r))
            assert energy(st) == ref.energy(st)
            assert np.all(stream_gradient(st).values == ref.stream_gradient(st))

    def test_delta_tables_read_only(self):
        tables = _delta_tables(64)
        assert _delta_tables(64) is tables
        for t, want in zip(tables, _delta_terms(ref.pair_delta(64))):
            assert np.all(t == want)
            with pytest.raises(ValueError):
                t[0, 1] = 0.0
        assert _delta_tables(32)[0].shape == (32, 32)

    @pytest.mark.parametrize("M", [16, 64, 256])
    def test_phi_table_symmetric(self, M):
        # energy evaluates Phi on the pairs i <= k only and mirrors it
        th = theta_grid(M)
        terms = _delta_terms(ref.pair_delta(M))
        for r in (np.zeros(M), _criterion5_r0(M), 1e-3 * np.cos(2 * th) + 4e-4 * np.sin(3 * th)):
            R = PatchState(0.5, PeriodicField(r)).R
            table = _phi_kernel(R[:, None], R[None, :], terms)
            assert np.all(table == table.T)

    @pytest.mark.parametrize("M", [16, 64, 256])
    def test_delta_tables_from_triangle_bit_equal(self, M):
        # the mirrored tables, signed zeros included (e^{i0} = 1 + 0j on the diagonal)
        for t, want in zip(_delta_tables(M), _delta_terms(ref.pair_delta(M))):
            assert t.dtype == want.dtype and t.shape == want.shape
            for part in (np.real, np.imag):
                assert np.all(part(t) == part(want))
                assert np.all(np.signbit(part(t)) == np.signbit(part(want)))

    def test_energy_and_gradient_peak_memory(self):
        # warm caches at M = 256: Phi on the triangle, psi in row blocks
        st = PatchState(0.5, PeriodicField(_criterion5_r0(256)))
        for fn, limit in ((energy, 6 * 2 ** 20), (stream_gradient, 2 * 2 ** 20)):
            fn(st)
            tracemalloc.start()
            try:
                fn(st)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit, (fn.__name__, peak)

    def test_scalar_delta_not_cached(self):
        # two scalar angles share a shape but not a table
        for d in (0.4, 1.1, 2.7):
            assert _phi_kernel(np.array(0.3), np.array(0.5), _delta_terms(d)) \
                == ref.phi_kernel(np.array(0.3), np.array(0.5), np.array(d))
            assert _psi_kernel(0.3, 0.5, _delta_terms(d)) == ref.psi_kernel(0.3, 0.5, d)

    def test_one_spectral_derivative_per_velocity_functional(self, monkeypatch):
        calls = []
        real = geometry.spectral_derivative

        def counted(values, *args, **kwargs):
            calls.append(len(values))
            return real(values, *args, **kwargs)

        monkeypatch.setattr(geometry, "spectral_derivative", counted)
        st = PatchState(0.5, PeriodicField(_criterion5_r0(64)))
        velocity_functional(st)
        assert calls == [64]
        assert st.dR is st.dR

    @pytest.mark.parametrize("M", [64, 256])
    def test_rhs_matches_reference(self, M):
        r0 = _criterion5_r0(M)
        got, want = _rhs(0.5, r0), ref.rhs(0.5, r0)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_rhs_peak_memory(self):
        # warm caches at M = 256: the state's 2 x M x M log-table stack and the
        # one M x M temporary of its build, no more than 4 tables at any time
        M = 256
        r0 = _criterion5_r0(M)
        _rhs(0.5, r0)
        tracemalloc.start()
        try:
            _rhs(0.5, r0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * M * M * 8, peak


class TestPerCallOracle:
    """The RK4 right-hand side and its kernels equal, bit for bit, the forms
    that rebuild every (M, b)-only table per call."""

    @pytest.mark.parametrize("M", [32, 64, 256])
    @pytest.mark.parametrize("b,deformed", [(0.5, False), (0.5, True), (0.43, True)],
                             ids=["equilibrium", "deformed", "deformed-b0.43"])
    def test_bit_equal(self, M, b, deformed):
        r = (b / 0.5) ** 2 * _criterion5_r0(M) if deformed else np.zeros(M)
        st = PatchState(b, PeriodicField(r))
        assert np.all(_rhs(b, r) == ref.rhs_per_call(b, r))
        assert np.all(velocity_functional(st).values == ref.velocity_functional_per_call(st))
        assert np.all(st.log_tables == ref.log_tables_per_call(st))

    @pytest.mark.parametrize("table", [
        lambda: _grid_tables(16)[0],
        lambda: _grid_tables(16)[1],
        lambda: pair_trig(16)[0],
        lambda: pair_trig(16)[1],
        lambda: _disc_tables(16, 0.5)[0],
        lambda: _disc_tables(16, 0.5)[1],
        lambda: _disc_tables(16, 0.5)[2],
        lambda: _dealias_projector(16),
        lambda: PatchState(0.5, PeriodicField(_criterion5_r0(16))).log_tables,
    ], ids=["exp_i_theta", "exp_minus_2i_theta", "sin_half_unit_diag", "log2_plus_k1",
            "B0sq", "b2_minus_2cos", "multipliers", "dealias_projector", "log_tables"])
    def test_tables_read_only(self, table):
        with pytest.raises(ValueError):
            table()[1] = 0
        with pytest.raises(ValueError):
            table()[...] *= 2

    def test_disc_tables_keyed_by_b(self):
        # two b one ulp apart share no table
        b0 = 0.5
        b1 = float(np.nextafter(b0, 1.0))
        t0, t1 = _disc_tables(64, b0), _disc_tables(64, b1)
        assert t0 is not t1
        assert not np.all(t0[2] == t1[2])  # the K2 matrix
        cos = np.cos(ref.pair_delta(64))
        for b, (B0sq, shift, _) in ((b0, t0), (b1, t1)):
            b2 = b ** 2
            assert np.all(B0sq == 1.0 + b2 * b2 - 2.0 * b2 * cos)
            assert np.all(shift == b2 - 2.0 * cos)

    @pytest.mark.parametrize("M", [16, 64])
    def test_cached_tables_per_entry(self, M):
        # the state's 2 x M x M stack adds no cached table: one pair_trig entry
        # (sin(Delta/2), log 2 + K1) and one _disc_tables entry (B0^2,
        # b^2 - 2 cos, K2) hold no more than 3 M x M tables each
        for entry in (pair_trig(M), _disc_tables(M, 0.5)):
            assert sum(t.size for t in entry) <= 3 * M * M

    @pytest.mark.parametrize("cache", [_grid_tables, _disc_tables, _dealias_projector])
    def test_cache_bounded(self, cache):
        assert cache.cache_info().maxsize is not None
        assert cache.cache_info().maxsize <= 32


class TestRhsStructure:
    """Deterministic counts of the work of one right-hand side (no timing)."""

    def test_fft_calls_per_rhs(self, monkeypatch):
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn"):
            real = getattr(np.fft, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        r = _criterion5_r0(64)
        _rhs(0.5, r)
        # r' (fft, ifft); the K1/K2 contraction and dealias are matrix products
        assert len(calls) == 2

    def test_tables_built_once(self):
        for cache in (_grid_tables, _disc_tables, _dealias_projector):
            cache.cache_clear()
        r = _criterion5_r0(64)
        for _ in range(20):
            _rhs(0.5, r)
        for cache in (_grid_tables, _disc_tables, _dealias_projector):
            info = cache.cache_info()
            assert info.misses == 1
            assert info.currsize == 1


# ---------------------------------------------------------------------------
# velocity functional
# ---------------------------------------------------------------------------

class TestVelocityFunctional:
    def test_equilibrium_stationary(self):
        for b in (0.25, 0.5, 0.75):
            st = PatchState(b, PeriodicField(np.zeros(64)))
            F = velocity_functional(st).values
            assert np.max(np.abs(F)) <= 1e-12

    def test_linearization_matches_equilibrium_frequency(self):
        # F_b[eps cos j theta] = -eps Omega_j(b) sin(j theta) + O(eps^2)
        b, M = 0.5, 128
        th = theta_grid(M)
        for j in (2, 3, 5):
            Om = omega_eq(b, j)
            res = {}
            for eps in (1e-3, 1e-4):
                st = PatchState(b, PeriodicField(eps * np.cos(j * th)))
                F = velocity_functional(st).values
                res[eps] = np.max(np.abs(F / eps + Om * np.sin(j * th)))
            # residual <= C eps with a modest constant, and linear in eps
            assert res[1e-4] <= 2.0 * j * 1e-4
            assert 5.0 < res[1e-3] / res[1e-4] < 20.0

    def test_odd_parity_for_even_r(self):
        th = theta_grid(64)
        r = 2e-3 * np.cos(2 * th) + 1e-3 * np.cos(5 * th)
        st = PatchState(0.5, PeriodicField(r))
        F = velocity_functional(st).values
        idx = (-np.arange(64)) % 64
        assert np.max(np.abs(F[idx] + F)) < 1e-12


# ---------------------------------------------------------------------------
# energy / Hamiltonian / gradient
# ---------------------------------------------------------------------------

class TestEnergy:
    def test_equilibrium_closed_form(self):
        # E(0) = b^4 (4 log b - 1)/16 (disc self-energy; image part vanishes)
        for b in (0.25, 0.5, 0.75):
            st = PatchState(b, PeriodicField(np.zeros(64)))
            exact = b ** 4 * (4.0 * np.log(b) - 1.0) / 16.0
            assert abs(energy(st) - exact) < 1e-12

    def test_equilibrium_resolution_doubling(self):
        b = 0.5
        e64 = energy(PatchState(b, PeriodicField(np.zeros(64))))
        e128 = energy(PatchState(b, PeriodicField(np.zeros(128))))
        assert abs(e64 - e128) < 1e-8

    def test_reflection_invariance(self):
        th = theta_grid(64)
        r = 2e-3 * np.cos(2 * th) + 1e-3 * np.sin(3 * th)
        st = PatchState(0.5, PeriodicField(r))
        idx = (-np.arange(64)) % 64
        st_ref = PatchState(0.5, PeriodicField(r[idx]))
        assert abs(energy(st) - energy(st_ref)) < 1e-13
        assert abs(hamiltonian(st) - hamiltonian(st_ref)) < 1e-13

    def test_hamiltonian_definition(self):
        st = cos_state()
        assert hamiltonian(st) == pytest.approx(-0.5 * energy(st), rel=1e-15)

    def test_quadratic_expansion(self):
        # H(eps rho) - H(0) = eps^2 H_L(rho) + O(eps^3),
        # H_L(cos 2theta) = -Omega_2(b)/8 at b = 0.5
        b, M = 0.5, 64
        th = theta_grid(M)
        H0 = hamiltonian(PatchState(b, PeriodicField(np.zeros(M))))
        exact = -omega_eq(b, 2) / 8.0
        rel = {}
        for eps in (1e-2, 1e-3):
            H = hamiltonian(PatchState(b, PeriodicField(eps * np.cos(2 * th))))
            rel[eps] = abs((H - H0) / eps ** 2 - exact) / abs(exact)
        # both sit on the quadratic form; the cubic term caps the larger eps
        assert rel[1e-2] < 1e-3
        assert rel[1e-3] < 1e-4

    def test_gradient_finite_difference(self):
        # <grad E, rho> vs central difference, 5 random rho, eps = 1e-5
        b, M = 0.5, 64
        th = theta_grid(M)
        r0 = 2e-3 * np.cos(2 * th)
        grad = stream_gradient(PatchState(b, PeriodicField(r0))).values
        eps = 1e-5
        rng = np.random.default_rng(17)
        for _ in range(5):
            rho = np.zeros(M)
            for j in range(1, 7):
                rho += rng.standard_normal() * np.cos(j * th + rng.uniform(0, 2 * np.pi))
            rho /= np.max(np.abs(rho))
            ep = energy(PatchState(b, PeriodicField(r0 + eps * rho)))
            em = energy(PatchState(b, PeriodicField(r0 - eps * rho)))
            fd = (ep - em) / (2.0 * eps)
            inner = np.mean(grad * rho)
            assert abs(fd - inner) <= 1e-6 * max(1.0, abs(inner))

    def test_equation_form(self):
        # F_b[r] = (1/2) d_theta grad E(r) to 1e-8; with d_t r = -F_b this is
        # the gradient form d_t r = -(1/2) d_theta grad E = d_theta grad H,
        # H = -E/2 (the sign is verified numerically, not assumed)
        b, M, eps = 0.5, 256, 1e-3
        th = theta_grid(M)
        st = PatchState(b, PeriodicField(eps * np.cos(2 * th)))
        F = velocity_functional(st).values
        dgrad = spectral_derivative(stream_gradient(st).values)
        assert np.max(np.abs(F - 0.5 * dgrad)) < 1e-8

    def test_equilibrium_gradient_constant(self):
        st = PatchState(0.5, PeriodicField(np.zeros(64)))
        g = stream_gradient(st).values
        assert np.max(np.abs(g - g.mean())) < 1e-13


# ---------------------------------------------------------------------------
# time integration
# ---------------------------------------------------------------------------

class TestSimulate:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.0, T=1.0, record_stride=1, track_modes=())
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.1, T=0.05, record_stride=1, track_modes=())
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.1, T=1.0, record_stride=0, track_modes=())

    def test_repeated_track_mode_refused(self):
        # each listed mode appends one sample per step to the same series
        with pytest.raises(ValueError, match="repeat a mode"):
            EvolutionConfig(dt=0.1, T=1.0, record_stride=1, track_modes=(2, 3, 2))
        cfg = EvolutionConfig(dt=0.1, T=1.0, record_stride=1, track_modes=(2, -2))
        assert cfg.track_modes == (2, -2)

    @pytest.mark.parametrize("modes", [(66, 2), (2, 22), (-22,)], ids=["66", "22", "minus-22"])
    def test_track_mode_outside_dealias_band_refused(self, modes):
        # on a grid of 64, mode 66 is sampled as mode 2, and 2/3 rule keeps |j| <= 21
        with pytest.raises(ValueError, match=r"\|j\| <= 21"):
            simulate(cos_state(M=64),
                     EvolutionConfig(dt=0.1, T=0.1, record_stride=1, track_modes=modes))
        traj = simulate(cos_state(M=64),
                        EvolutionConfig(dt=0.1, T=0.1, record_stride=1, track_modes=(21, -21)))
        assert sorted(traj.mode_series) == [-21, 21]

    @pytest.mark.parametrize("dt,T", [(0.3, 1.0), (0.4, 1.0), (1e-3, 0.0105)])
    def test_final_time_not_a_whole_number_of_steps(self, dt, T):
        # round(T/dt) steps would stop short of (or past) T
        with pytest.raises(ValueError, match="whole number of steps"):
            EvolutionConfig(dt=dt, T=T, record_stride=1, track_modes=())

    @pytest.mark.parametrize("dt,T", [(0.01, 0.5), (1.25e-4, 2.0), (0.05, 16.0)])
    def test_final_time_within_rounding_of_a_step(self, dt, T):
        EvolutionConfig(dt=dt, T=T, record_stride=1, track_modes=())

    def test_run_ends_at_final_time(self):
        # 0.3/0.1 = 2.9999999999999996: a whole number of steps up to rounding
        st = PatchState(0.5, PeriodicField(np.zeros(32)))
        traj = simulate(st, EvolutionConfig(dt=0.1, T=0.3, record_stride=1, track_modes=()))
        assert len(traj.times) == 4
        assert traj.times[-1] == pytest.approx(0.3, abs=1e-12)

    def test_equilibrium_stays_fixed(self):
        st = PatchState(0.5, PeriodicField(np.zeros(64)))
        traj = simulate(st, EvolutionConfig(dt=0.05, T=0.5, record_stride=1, track_modes=()))
        assert not traj.aborted
        assert np.max(np.abs(traj.snapshots[-1])) < 1e-13

    def test_trajectory_invariants(self):
        st = cos_state()
        cfg = EvolutionConfig(dt=0.01, T=0.5, record_stride=7, track_modes=())
        traj = simulate(st, cfg)
        nsteps = int(round(cfg.T / cfg.dt))
        # t = 0, every 7th step, and the final state (50 is off the stride)
        assert len(traj.snapshots) == nsteps // cfg.record_stride + 2
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == nsteps * cfg.dt
        aligned = simulate(st, EvolutionConfig(dt=0.01, T=0.5, record_stride=nsteps,
                                               track_modes=()))
        assert np.array_equal(traj.snapshots[-1], aligned.snapshots[-1])
        assert traj.hamiltonians[-1] == aligned.hamiltonians[-1]
        prof = traj.profile
        assert prof["rhs_evaluations"] == 4 * nsteps
        assert prof["energy_evaluations"] == len(traj.snapshots)
        sup = max(np.max(np.abs(s)) for s in traj.snapshots)
        assert prof["max_admissibility_ratio"] >= sup / (0.5 * 0.5 ** 2)
        assert prof["max_R"] >= max(np.max(np.sqrt(0.25 + 2 * s)) for s in traj.snapshots)

    def test_short_conservation(self):
        st = cos_state(b=0.5, amp=1e-3, mode=2, M=64)
        traj = simulate(st, EvolutionConfig(dt=1e-3, T=0.5, record_stride=500, track_modes=()))
        assert not traj.aborted
        drift = abs(traj.hamiltonians[-1] - traj.hamiltonians[0])
        assert drift <= 1e-8 * abs(traj.hamiltonians[0])
        assert abs(traj.means[-1] - traj.means[0]) <= 1e-12

    def test_abort_on_blowup(self):
        # amplitude just below the admissibility bound leaves the set quickly
        b = 0.5
        th = theta_grid(64)
        st = PatchState(b, PeriodicField(0.5 * b * b * (1 - 1e-6) * np.cos(2 * th)))
        traj = simulate(st, EvolutionConfig(dt=0.5, T=50.0, record_stride=1, track_modes=()))
        assert traj.aborted
        assert traj.abort_reason
        assert len(traj.snapshots) >= 1  # last valid snapshot retained
        # completed evaluations only; the margin stays below the bound
        assert traj.profile["rhs_evaluations"] < 4 * len(traj.times)  # record_stride 1
        assert traj.profile["energy_evaluations"] == 1  # the t = 0 record
        assert 0.999 < traj.profile["max_admissibility_ratio"] < 1.0

    @pytest.mark.parametrize("stride", [1, 1000])
    def test_abort_on_boundary_contact(self, stride):
        # an RK4 step of this seed leaves the disc; the step aborts the run at
        # any stride, and every accepted state stays inside the disc
        st = quasi_periodic_seed(0.7508216406058041,
                                 {4: 0.12646316189948498, 3: -0.054734360079358786}, M=32)
        traj = simulate(st, EvolutionConfig(dt=0.2, T=6.0, record_stride=stride, track_modes=()))
        assert traj.aborted
        assert "unit circle" in traj.abort_reason
        assert traj.profile["max_R"] <= 1.0 - 1e-6

    def test_step_matches_simulate(self):
        st = cos_state()
        one = ref.step(st, 1e-2)
        traj = simulate(st, EvolutionConfig(dt=1e-2, T=1e-2, record_stride=1, track_modes=()))
        assert np.max(np.abs(one.r.values - traj.snapshots[-1])) < 1e-13

    def test_flow_reversibility(self):
        # for even r0, r(-t, -theta) = r(t, theta): integrating the reversed
        # field backward and reflecting reproduces the forward solution
        b, M, T, dt = 0.5, 64, 1.0, 1e-2
        th = theta_grid(M)
        r0 = 1e-3 * np.cos(2 * th) + 5e-4 * np.cos(3 * th)
        n = int(round(T / dt))
        fwd = PatchState(b, PeriodicField(dealias(r0)))
        bwd = PatchState(b, PeriodicField(dealias(r0)))
        for _ in range(n):
            fwd = ref.step(fwd, dt)
            bwd = ref.step(bwd, -dt)
        idx = (-np.arange(M)) % M
        assert np.max(np.abs(bwd.r.values[idx] - fwd.r.values)) <= 1e-8

    def test_dealias_projects(self):
        M = 64
        th = theta_grid(M)
        vals = np.cos(2 * th) + np.cos((M // 3 + 5) * th)
        out = dealias(vals)
        assert np.max(np.abs(out - np.cos(2 * th))) < 1e-13


# ---------------------------------------------------------------------------
# seeds and linear flow
# ---------------------------------------------------------------------------

class TestQuasiPeriodicSeed:
    def test_single_mode(self):
        st = quasi_periodic_seed(0.5, {2: 1e-3}, M=64)
        th = theta_grid(64)
        assert np.max(np.abs(st.r.values - 1e-3 * np.cos(2 * th))) < 1e-15

    def test_evenness(self):
        st = quasi_periodic_seed(0.5, {1: 1e-3, 4: 5e-4}, M=64)
        idx = (-np.arange(64)) % 64
        assert np.max(np.abs(st.r.values[idx] - st.r.values)) < 1e-14

    def test_amplitude_guard(self):
        with pytest.raises(DegeneratePatchError):
            quasi_periodic_seed(0.5, {2: 0.2}, M=128)
        with pytest.raises(ValueError):
            quasi_periodic_seed(0.5, {0: 1e-3}, M=128)

    def test_modes_the_dealiasing_keeps(self):
        # simulate dealiases its initial state: a mode above M // 3 would vanish
        st = quasi_periodic_seed(0.5, {21: 1e-4}, M=64)
        assert np.max(np.abs(dealias(st.r.values) - st.r.values)) < 1e-18
        with pytest.raises(ValueError, match="1..21"):
            quasi_periodic_seed(0.5, {22: 1e-4}, M=64)

    def test_linear_flow_exact(self):
        # rho(t) = sum a_j cos(j theta - Omega_j t) solves
        # d_t rho = d_theta L(b) rho with multiplier L: e_j -> -Omega_|j|/j e_j
        b, M = 0.5, 64
        th = theta_grid(M)
        amps = {2: 1e-3, 3: 5e-4}
        for t in (0.0, 0.7, 2.3):
            rho = sum(a * np.cos(j * th - omega_eq(b, j) * t) for j, a in amps.items())
            drho_dt = sum(
                a * omega_eq(b, j) * np.sin(j * th - omega_eq(b, j) * t)
                for j, a in amps.items()
            )
            c = np.fft.fft(rho, norm="forward")
            jn = np.fft.fftfreq(M, 1.0 / M).astype(int)
            mult = np.zeros(M, dtype=complex)
            nz = jn != 0
            # Omega extends oddly to negative modes, so Omega_j/j is even
            mult[nz] = -omega_eq(b, np.abs(jn[nz])) / np.abs(jn[nz])
            Lrho = np.fft.ifft(c * mult, norm="forward").real
            residual = drho_dt - spectral_derivative(Lrho)
            assert np.max(np.abs(residual)) <= 1e-12


# ---------------------------------------------------------------------------
# frequency extraction
# ---------------------------------------------------------------------------

class TestExtractFrequencies:
    def synthetic_trajectory(self, omega, T=200.0, dt=0.05, second=0.0):
        # 1e-3 e^{-i omega t}, plus ``second`` e^{-i 1.7 omega t}; sample n at t = n dt
        cfg = EvolutionConfig(dt=dt, T=T, record_stride=1, track_modes=(2,))
        t = np.arange(int(round(T / dt)) + 1) * dt
        s = 1e-3 * np.exp(-1j * omega * t) + second * np.exp(-1j * 1.7 * omega * t)
        # only the mode series: no state is recorded
        return Trajectory(b=0.5, config=cfg, times=np.array([]), snapshots=[], means=[],
                          hamiltonians=[], hs_norms=[], mode_series={2: s},
                          aborted=False, abort_reason="", profile={})

    def test_synthetic_recovery(self):
        omega = 0.53125
        T = 200.0
        traj = self.synthetic_trajectory(omega, T=T)
        out = extract_frequencies(traj, 2)
        assert abs(out - omega) <= 2.0 * np.pi / (T * 1e3)

    @pytest.mark.parametrize("omega", [0.53125, -0.8])
    def test_two_component_recovery(self, omega):
        # the dominant component outweighs the other: the phase winds at its
        # rate, and the weighted average reads it, sign included
        traj = self.synthetic_trajectory(omega, T=1000.0, second=3e-4)
        assert abs(extract_frequencies(traj, 2) - omega) <= 1e-10

    def test_untracked_mode_rejected(self):
        traj = self.synthetic_trajectory(0.5)
        with pytest.raises(KeyError):
            extract_frequencies(traj, 3)

    def test_short_signal_rejected(self):
        traj = self.synthetic_trajectory(0.5, T=1.0, dt=0.05)
        with pytest.raises(ValueError):
            extract_frequencies(traj, 2)

    def test_no_peak(self):
        traj = self.synthetic_trajectory(0.5)
        traj.mode_series[2] = np.zeros_like(traj.mode_series[2])
        with pytest.raises(NoFrequencyError):
            extract_frequencies(traj, 2)

    def test_zero_sample_has_no_phase(self):
        traj = self.synthetic_trajectory(0.5)
        traj.mode_series[2][100] = 0.0
        with pytest.raises(NoFrequencyError):
            extract_frequencies(traj, 2)

    def test_weakly_nonlinear_frequency(self):
        # small-amplitude evolution of mode 2 at b=0.5: Omega_2 = 0.53125
        st = quasi_periodic_seed(0.5, {2: 1e-4}, M=64)
        traj = simulate(
            st, EvolutionConfig(dt=0.05, T=50.0, record_stride=1000, track_modes=(2,))
        )
        assert not traj.aborted
        out = extract_frequencies(traj, 2)
        assert abs(out - 0.53125) <= 1e-4


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

class TestExport:
    def run(self):
        st = cos_state()
        cfg = EvolutionConfig(dt=0.01, T=0.2, record_stride=5, track_modes=(2,))
        return simulate(st, cfg)

    def test_csv_shape(self):
        traj = self.run()
        lines = trajectory_to_csv(traj).strip().split("\n")
        assert lines[0] == "time,mean,hamiltonian,h_s_norm,re_mode_2,im_mode_2"
        assert len(lines) == 1 + len(traj.times)
        row = lines[1].split(",")
        assert len(row) == 6
        assert float(row[0]) == 0.0
        # 17 significant digits round-trip
        assert float(lines[2].split(",")[2]) == traj.hamiltonians[1]

    def test_summary_json_serializable(self):
        traj = self.run()
        summary = trajectory_summary(traj)
        text = json.dumps(summary)
        back = json.loads(text)
        assert back["config"]["dt"] == 0.01
        assert back["snapshots"] == len(traj.snapshots)
        assert back["aborted"] is False
        assert back["hamiltonian_drift"] >= 0.0
