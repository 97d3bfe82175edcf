"""Fourier core: fields, projectors, norms, operator matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import dense_reference
from dense_reference import (
    apply_operator,
    convolve_multiplier,
    e_mode,
    entry,
    from_multiplier,
    identity,
    mirror_deviation,
    project,
    scaled,
    shifted_kernel_integral,
)
from vortexpatch.geometry import pair_trig
from vortexpatch.spectral import (
    LinearOperatorMatrix,
    PeriodicField,
    _csv,
    _mirror_project,
    _mirrored,
    _mode_numbers,
    k1_multiplier_coeffs,
    k2_multiplier_coeffs,
    offdiag_norm,
    sobolev_norm,
    spectral_derivative,
    theta_grid,
)

RNG = np.random.default_rng(7)


def random_field(M=64, decay=2.0, rng=RNG, zero_mean=False):
    j = np.abs(np.fft.fftfreq(M, 1.0 / M).astype(int))
    c = (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / np.maximum(1, j) ** decay
    c[M // 2] = 0.0  # drop the Nyquist mode (not derivative-invertible on a real grid)
    vals = np.fft.ifft(c, norm="forward").real
    return PeriodicField(vals - vals.mean() if zero_mean else vals)


# ---------------------------------------------------------------------------
# PeriodicField structure
# ---------------------------------------------------------------------------

class TestPeriodicField:
    def test_round_trip(self):
        for M in (32, 64, 128, 256):
            f = random_field(M)
            back = np.fft.ifft(f.coeffs, norm="forward").real
            assert np.max(np.abs(back - f.values)) <= 1e-13 * max(1.0, np.max(np.abs(f.values)))

    def test_hermitian_symmetry(self):
        f = random_field(64)
        c = f.coeffs
        assert np.max(np.abs(c - np.conj(np.roll(c[::-1], 1)))) < 1e-12

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            PeriodicField(np.zeros(48))

    @pytest.mark.parametrize("values", [np.exp(1j * theta_grid(16)), np.zeros(16, complex)],
                             ids=["complex", "zero-imaginary-part"])
    def test_complex_values_refused(self, values):
        with pytest.raises(ValueError, match="real samples"):
            PeriodicField(values)

    def test_derivative_refuses_complex_values(self):
        with pytest.raises(ValueError, match="real samples"):
            spectral_derivative(np.exp(1j * theta_grid(16)))

    @given(hst.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_parseval(self, seed):
        f = random_field(64, rng=np.random.default_rng(seed))
        lhs = np.sum(np.abs(f.coeffs) ** 2)
        rhs = np.mean(np.abs(f.values) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    def test_two_dimensional_field(self):
        # cos(2 phi - 3 theta): 1/2 at (l, j) = (2, -3) and at its mirror (-2, 3)
        f = PeriodicField(e_mode((32, 64), l=[2], j=-3).real)
        c = f.coeffs
        idx = np.unravel_index(np.argmax(np.abs(c)), c.shape)
        assert idx == (2, 64 - 3)
        assert abs(c[idx] - 0.5) < 1e-12
        assert abs(c[32 - 2, 3] - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

class TestProject:
    def test_mode_below_cutoff_kept(self):
        f = PeriodicField(e_mode((64,), l=None, j=3).real)
        g = project(f, 5)
        assert np.max(np.abs(g.values - f.values)) < 1e-13

    def test_mode_above_cutoff_dropped(self):
        f = PeriodicField(e_mode((64,), l=None, j=7).real)
        g = project(f, 5)
        assert np.max(np.abs(g.values)) < 1e-13

    def test_invalid_cutoffs(self):
        f = random_field(64)
        with pytest.raises(ValueError):
            project(f, 0)
        with pytest.raises(ValueError):
            project(f, 33)

    def test_complement_projector(self):
        f = random_field(64)
        g = project(f, 5)
        comp = PeriodicField(f.values - g.values)
        assert np.max(np.abs(project(comp, 5).values)) < 1e-12

    def test_smoothing_bound(self):
        # |Pi_N rho|_{s+t} <= N^t |rho|_s
        for seed in range(5):
            f = random_field(64, rng=np.random.default_rng(seed))
            for N, s, t in ((4, 1.0, 2.0), (8, 0.0, 1.5), (16, 2.0, 0.5)):
                lhs = sobolev_norm(project(f, N), s + t)
                rhs = N ** t * sobolev_norm(f, s)
                assert lhs <= rhs * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# sobolev_norm
# ---------------------------------------------------------------------------

class TestSobolevNorm:
    def test_constant(self):
        f = PeriodicField(np.full(64, -2.5))
        for s in (0.0, 1.0, 3.5):
            assert abs(sobolev_norm(f, s) - 2.5) < 1e-12

    def test_single_mode(self):
        # cos(j theta): coefficients 1/2 at +-j
        for j in (1, 3, 7):
            f = PeriodicField(e_mode((64,), l=None, j=j).real)
            for s in (0.0, 1.0, 2.5):
                assert abs(sobolev_norm(f, s) - abs(j) ** s / np.sqrt(2.0)) < 1e-10

    def test_interpolation_inequality(self):
        # |rho|_{s3} <= |rho|_{s1}^theta |rho|_{s2}^(1-theta), s3 = theta s1 + (1-theta) s2
        for seed in range(10):
            f = random_field(64, rng=np.random.default_rng(seed + 100))
            for s1, s2, th in ((0.0, 3.0, 0.5), (1.0, 2.0, 0.25), (0.5, 4.0, 0.8)):
                s3 = th * s1 + (1 - th) * s2
                lhs = sobolev_norm(f, s3)
                rhs = sobolev_norm(f, s1) ** th * sobolev_norm(f, s2) ** (1 - th)
                assert lhs <= rhs * (1.0 + 1e-10)


# ---------------------------------------------------------------------------
# multiplier kernels and shifted integrals
# ---------------------------------------------------------------------------

class TestMultiplierKernels:
    def test_k1_action_on_cosine(self):
        # K1 * cos(m theta) = -cos(m theta)/(2m)
        M = 128
        th = theta_grid(M)
        khat = k1_multiplier_coeffs(M)
        for m in (1, 3, 10):
            out = convolve_multiplier(np.cos(m * th), khat)
            assert np.max(np.abs(out + np.cos(m * th) / (2 * m))) < 1e-13

    def test_k2_matches_direct_fft(self):
        # K2(u) = log|1 - b^2 e^{iu}| is smooth: compare exact coefficients
        # against the FFT of pointwise samples.
        M = 256
        b = 0.6
        u = theta_grid(M)
        direct = np.fft.fft(np.log(np.abs(1.0 - b * b * np.exp(1j * u))), norm="forward").real
        exact = k2_multiplier_coeffs(M, b)
        assert np.max(np.abs(direct - exact)) < 1e-12

    def test_shifted_kernel_integral_separable_oracle(self):
        # table(i, k) = g(theta_k) gives int K(eta - theta) g(eta) deta = (K*g)(theta)
        M = 64
        g = random_field(M).values
        khat = k2_multiplier_coeffs(M, 0.5)
        table = np.broadcast_to(g[None, :], (M, M)).copy()
        out = shifted_kernel_integral(table, khat)
        ref = convolve_multiplier(g, khat)
        assert np.max(np.abs(out - ref)) < 1e-13

    def test_shifted_kernel_integral_difference_kernel(self):
        # table(i, k) = cos(theta_k - theta_i): the integral is the constant
        # mean_u K(u) cos(u) = khat at modes +-1 averaged.
        M = 64
        th = theta_grid(M)
        table = np.cos(th[None, :] - th[:, None])
        khat = k1_multiplier_coeffs(M)
        out = shifted_kernel_integral(table, khat)
        expected = khat[1]  # (khat_1 + khat_{-1})/2 with symmetric khat
        assert np.max(np.abs(out - expected)) < 1e-13


class TestCachedTables:
    @pytest.mark.parametrize("table", [
        lambda: theta_grid(16),
        lambda: _mode_numbers(16),
        lambda: k1_multiplier_coeffs(16),
        lambda: k2_multiplier_coeffs(16, 0.5),
        *[lambda k=k: pair_trig(16)[k] for k in range(2)],
    ], ids=["theta_grid", "mode_numbers", "k1", "k2", "sin_half", "log2_plus_k1"])
    def test_write_raises(self, table):
        # the tables are shared by every caller at that size
        with pytest.raises(ValueError):
            table()[1] = 0.0
        with pytest.raises(ValueError):
            table()[...] *= 2.0


# ---------------------------------------------------------------------------
# LinearOperatorMatrix
# ---------------------------------------------------------------------------

def random_toeplitz_operator(N, nbands=2, rng=RNG, decay=1.5):
    """Random Toeplitz-in-time operator; nbands=0 gives a theta-only (d=0) one."""
    if nbands == 0:
        jm = np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])
        diff = jm[:, None] - jm[None, :]
        block = rng.standard_normal((2 * N, 2 * N)) + 1j * rng.standard_normal((2 * N, 2 * N))
        block /= np.maximum(1, np.abs(diff)) ** decay
        return LinearOperatorMatrix(N, block[None], np.zeros((1, 0), int))
    bands = np.arange(-nbands, nbands + 1)[:, None]
    entries = []
    jm = np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])
    diff = jm[:, None] - jm[None, :]
    for (m,) in bands:
        block = (rng.standard_normal((2 * N, 2 * N)) + 1j * rng.standard_normal((2 * N, 2 * N)))
        block /= np.maximum(1, np.abs(diff)) ** decay * max(1, abs(m)) ** decay
        entries.append(block)
    return LinearOperatorMatrix(N, np.stack(entries), bands)


def reflect_values(values):
    """(S rho)(theta) = rho(-theta) on the uniform grid."""
    M = len(values)
    idx = (-np.arange(M)) % M
    return values[idx]


class TestOperatorMatrix:
    def test_identity_norm(self):
        I = identity(6)
        for s in (0.0, 1.0, 2.5):
            assert abs(offdiag_norm(I, s) - 1.0) < 1e-13

    def test_multiplier_norm(self):
        a = {j: 1.0 / (abs(j) + 1) for j in range(-6, 7) if j != 0}
        op = from_multiplier(6, lambda j: a[j])
        sup = max(abs(v) for v in a.values())
        for s in (0.0, 2.0):
            assert abs(offdiag_norm(op, s) - sup) < 1e-13

    def test_composition_law(self):
        # |T1 T2|_{s0} <= C |T1|_{s0} |T2|_{s0}; at finite truncation the
        # crude constant C = 2^{s0} sqrt(#bands of the product) is rigorous:
        # <m> <= 2 <m1><m2> plus Cauchy-Schwarz over the band count.
        s0 = 1.0
        rng = np.random.default_rng(2024)
        N = 6
        for _ in range(50):
            t1 = random_toeplitz_operator(N, rng=rng)
            t2 = random_toeplitz_operator(N, rng=rng)
            prod = t1 @ t2
            C = 2.0 ** s0 * np.sqrt(len(prod.bands))
            lhs = offdiag_norm(prod, s0)
            rhs = C * offdiag_norm(t1, s0) * offdiag_norm(t2, s0)
            assert lhs <= rhs * (1.0 + 1e-10)

    def test_apply_identity(self):
        f = random_field(64, zero_mean=True)
        g = apply_operator(identity(16), project(f, 16).values)
        assert np.max(np.abs(g - project(f, 16).values)) < 1e-12

    def test_apply_equilibrium_multiplier(self):
        # multiplier -i Omega_j(b) acting on e_{0,j}
        b = 0.5

        def omega(j):
            aj = abs(j)
            return np.sign(j) * 0.5 * (aj - 1 + b ** (2 * aj))

        op = from_multiplier(8, lambda j: -1j * omega(j))
        for j in (2, -3, 5):
            f = e_mode((64,), l=None, j=j)
            g = apply_operator(op, f)
            assert np.max(np.abs(g - (-1j * omega(j)) * f)) < 1e-12

    def test_apply_operator_link_bound(self):
        # |T rho|_s <= C(|T|_{s0}|rho|_s + |T|_s |rho|_{s0})
        s0, s = 1.0, 2.5
        rng = np.random.default_rng(5)
        N = 8
        for _ in range(10):
            op = random_toeplitz_operator(N, nbands=0, rng=rng)
            f = project(random_field(64, rng=rng, zero_mean=True), N)
            lhs = sobolev_norm(PeriodicField(apply_operator(op, f.values).real), s)
            C = 2.0 ** s * np.sqrt(4 * N + 1)
            rhs = C * (
                offdiag_norm(op, s0) * sobolev_norm(f, s)
                + offdiag_norm(op, s) * sobolev_norm(f, s0)
            )
            assert lhs <= rhs * (1.0 + 1e-10)

    def test_truncation_mismatch_rejected(self):
        op = identity(40)
        with pytest.raises(ValueError):
            apply_operator(op, random_field(64).values)

    def test_entry_accessor(self):
        op = from_multiplier(4, lambda j: 2.0 * j)
        assert entry(op, (), 3, 3) == pytest.approx(6.0)
        assert entry(op, (), 3, 2) == 0.0
        assert entry(op, (), 5, 5) == 0.0  # outside truncation


def random_lattice_operator(N, d, L, rng):
    """Random operator on the bands |l|_1 <= L of Z^d (one band l = () if d = 0)."""
    grids = np.meshgrid(*[np.arange(-L, L + 1)] * d, indexing="ij")
    bands = np.stack([g.ravel() for g in grids], axis=1) if d else np.zeros((1, 0), int)
    bands = bands[np.abs(bands).sum(axis=1) <= L]
    shape = (len(bands), 2 * N, 2 * N)
    entries = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return LinearOperatorMatrix(N, entries, bands)


class TestFastOperatorPaths:
    """The vectorised norm and the band product against their loop references."""

    def _operators(self, rng):
        for d, L in ((0, 0), (1, 2), (2, 2)):
            for N in (1, 3, 5):
                a = random_lattice_operator(N, d, L, rng)
                b = random_lattice_operator(N, d, L, rng)
                zeroed = a.entries.copy()
                zeroed[0] = 0.0                      # an all-zero band
                zeroed[:, np.arange(2 * N), np.arange(2 * N)] = 0.0  # zero diagonals
                zeroed[:, 0, -1] = 0.0               # the corner diagonal -2N
                yield d, a, b, LinearOperatorMatrix(N, zeroed, a.bands)

    def test_offdiag_norm_bit_equal(self):
        rng = np.random.default_rng(11)
        for d, a, b, zeroed in self._operators(rng):
            for op in (a, a @ b, zeroed, zeroed @ b):
                for s in (0.0, 0.1, 1.0):
                    assert offdiag_norm(op, s) == dense_reference.offdiag_norm(op, s)

    def test_empty_operator_norm(self):
        # an operator without bands lacks l = 0: refused, so no norm of one is taken
        with pytest.raises(ValueError, match="hold l = 0"):
            LinearOperatorMatrix(2, np.zeros((0, 4, 4)), np.zeros((0, 1), dtype=int))

    def test_matmul_bit_equal(self):
        rng = np.random.default_rng(12)
        for d, a, b, zeroed in self._operators(rng):
            for left, right in ((a, b), (zeroed, a)):
                got, ref = left @ right, dense_reference.band_product(left, right)
                assert np.array_equal(got.bands, ref.bands)
                assert np.array_equal(got.entries, ref.entries)

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            identity(2) @ identity(3)

    def test_add_bit_equal(self):
        # signed zeros included: -0.0 real parts are common (1j * a for a < 0)
        rng = np.random.default_rng(13)
        for d, a, b, zeroed in self._operators(rng):
            # the outermost band of -(zeroed @ b) is all -0.0 and absent from a
            for left, right in ((a, b), (zeroed, a), (a, a @ b), (scaled(zeroed @ b, -1.0), a)):
                got, ref = left + right, dense_reference.band_sum(left, right)
                assert np.array_equal(got.bands, ref.bands)
                assert got.entries.tobytes() == ref.entries.tobytes()

    def test_mirrored_bit_equal(self):
        rng = np.random.default_rng(14)
        for d, a, b, zeroed in self._operators(rng):
            for op in (a, b, zeroed, a @ b, zeroed @ a):
                for arr in (op.entries, op.entries.real, op.entries.imag):
                    ref = dense_reference.mirrored(op, arr)
                    assert _mirrored(arr).tobytes() == ref.tobytes()

    def test_mirror_project_bit_equal(self):
        # against the formulas it replaces: the real-and-reversible projection
        # i (a - a(mirror))/2 of the imaginary parts, the reversibility-preserving
        # one (a + a(mirror))/2 of the real parts, and the oddness of a jmode vector
        rng = np.random.default_rng(15)
        for d, a, b, zeroed in self._operators(rng):
            for op in (a, b, zeroed, a @ b):
                im, re = op.entries.imag, op.entries.real
                want = 1j * 0.5 * (im - im[::-1, ::-1, ::-1])
                assert (1j * _mirror_project(im, -1)).tobytes() == want.tobytes()
                want = 0.5 * (re + re[::-1, ::-1, ::-1])
                assert _mirror_project(re, 1).tobytes() == want.tobytes()
        for mu in (rng.standard_normal(16), np.array([0.0, -0.0, 1.0, -1.0])):
            assert _mirror_project(mu, -1).tobytes() == (0.5 * (mu - mu[::-1])).tobytes()


class TestBandOrder:
    """Bands are sorted, unique and closed under l -> -l."""

    @pytest.mark.parametrize("bands", [[[1], [0]], [[0], [0]], [[0], [1]], np.zeros((2, 0), int),
                                       [[0, 1], [0, -1]], [[0, 0], [0, 0]]],
                             ids=["unsorted", "duplicate", "not-negation-closed", "d0-twice",
                                  "unsorted-d2", "duplicate-d2"])
    def test_rejected(self, bands):
        with pytest.raises(ValueError, match="sorted, unique and closed"):
            LinearOperatorMatrix(2, np.zeros((2, 4, 4)), bands)

    def test_flat_band_list_rejected(self):
        # a band is a row l of length d, also for d = 1
        with pytest.raises(ValueError, match="one row l per entry block"):
            LinearOperatorMatrix(2, np.zeros((3, 4, 4)), [-1, 0, 1])

    @pytest.mark.parametrize("d,L", [(0, 0), (1, 3), (2, 2)])
    def test_zero_band_is_middle(self, d, L):
        op = random_lattice_operator(2, d, L, np.random.default_rng(15))
        assert not op.bands[op.zero_band].any()
        assert entry(op, op.bands[op.zero_band], 1, -2) == op.entries[op.zero_band, 2, 0]

    def test_no_zero_band(self):
        # sorted, unique and closed under l -> -l, but without l = 0
        with pytest.raises(ValueError, match="hold l = 0"):
            LinearOperatorMatrix(2, np.ones((2, 4, 4)), [[-1], [1]])

    def test_unstacked_entries_refused(self):
        # a d = 0 operator is one band of shape (1, 2N, 2N), not a bare 2N x 2N block
        with pytest.raises(ValueError, match="band-stacked"):
            LinearOperatorMatrix(2, np.zeros((4, 4)), np.zeros((1, 0), int))

    def test_empty_truncation_refused(self):
        with pytest.raises(ValueError, match="N must be >= 1"):
            LinearOperatorMatrix(0, np.zeros((1, 0, 0)), np.zeros((1, 0), int))

    def test_jmodes_shared_and_read_only(self):
        a, b = identity(3), identity(3)
        assert a.jmodes is b.jmodes
        assert a.jmodes.tolist() == [-3, -2, -1, 1, 2, 3]
        with pytest.raises(ValueError):
            a.jmodes[0] = 0


class TestReversibilityStructure:
    def make_structured(self, N, kind, rng):
        A = rng.standard_normal((2 * N, 2 * N)) + 1j * rng.standard_normal((2 * N, 2 * N))
        flip = np.conj(A[::-1, ::-1]) if kind == "real" else A[::-1, ::-1]
        sign = -1.0 if kind == "reversible" else 1.0
        B = 0.5 * (A + sign * flip)
        return LinearOperatorMatrix(N, B[None], np.zeros((1, 0), int))

    def test_predicates(self):
        rng = np.random.default_rng(3)
        N = 6
        real_op = self.make_structured(N, "real", rng)
        rev_op = self.make_structured(N, "reversible", rng)
        pres_op = self.make_structured(N, "preserving", rng)
        tol = 1e-10
        assert (mirror_deviation(real_op, 1.0, conjugate=True) <= tol
                < mirror_deviation(rev_op, 1.0, conjugate=True))
        assert rev_op.reversible_deviation() <= tol < pres_op.reversible_deviation()
        assert rev_op.reversible_deviation() == mirror_deviation(rev_op, -1.0, conjugate=False)
        assert (mirror_deviation(pres_op, 1.0, conjugate=False) <= tol
                < mirror_deviation(rev_op, 1.0, conjugate=False))

    def test_reversible_matches_action_test(self):
        # T reversible <=> T o S = -S o T on random fields, (S rho)(theta) = rho(-theta)
        rng = np.random.default_rng(9)
        N = 6
        rev_op = self.make_structured(N, "reversible", rng)
        non_rev = self.make_structured(N, "preserving", rng)
        for op, expect in ((rev_op, True), (non_rev, False)):
            devs = []
            for _ in range(20):
                f = random_field(64, rng=rng)
                lhs = apply_operator(op, reflect_values(f.values)).real
                rhs = -reflect_values(apply_operator(op, f.values).real)
                devs.append(np.max(np.abs(lhs - rhs)))
            if expect:
                assert max(devs) < 1e-10
            else:
                assert max(devs) > 1e-6

    def test_algebra_preserves_truncation(self):
        rng = np.random.default_rng(4)
        a = random_toeplitz_operator(4, rng=rng)
        b = random_toeplitz_operator(4, rng=rng)
        two_a, minus_b = scaled(a, 2.0), scaled(b, -1.0)
        c = (a + b) @ (two_a + minus_b)
        assert c.N == 4
        # distributivity spot-check against dense arithmetic on the zero band
        direct = (a @ two_a) + (b @ two_a) + (a @ minus_b) + (b @ minus_b)
        for m in range(-4, 5):
            lhs = entry(c, (m,), 2, 1)
            rhs = entry(direct, (m,), 2, 1)
            assert abs(lhs - rhs) < 1e-10


class TestCsv:
    """The one CSV table writer: float -> 17 significant digits, int -> str,
    lattice site -> "l1 l2", None -> empty."""

    def test_cell_rules(self):
        rows = [((1, -2), 3, None, 0.1),
                ([0], np.int64(-4), np.nan, np.float64(2.5)),
                ((), np.intp(0), 7, -0.0)]
        assert _csv("l,j,j0,x", rows) == (
            "l,j,j0,x\n"
            '"1 -2",3,,1.0000000000000001e-01\n'
            '"0",-4,nan,2.5000000000000000e+00\n'
            '"",0,7,-0.0000000000000000e+00\n')

    def test_numpy_scalars_as_python_ones(self):
        row = (np.int32(5), np.float64(1 / 3), np.float32(0.5), np.array([2.0, 3.0])[1])
        assert _csv("a,b,c,d", [row]) == _csv("a,b,c,d", [(5, 1 / 3, 0.5, 3.0)])

    def test_header_only(self):
        assert _csv("m,delta_s0", []) == "m,delta_s0\n"
