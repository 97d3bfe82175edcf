"""Dense and loop references for the fast paths of the package (test-only).

Every integral int log A_r(theta, eta) w(theta, eta) deta is formed here from
the full M x M table w: the K1/K2 parts by gathering each row into the shifted
variable u = eta - theta and contracting its u-Fourier coefficients against
the multiplier coefficients, the smooth parts by row quadrature.  The package
computes the same integrals from rank-2 / column-block factorizations; these
functions are the independent path the tests compare against.

The contour references keep the work the package skips: the RK4 right-hand
side ``rhs`` with two spectral derivatives, K1 and K2 as two inverse FFTs and
the 2/3 rule on the FFT coefficients (``truncate_two_thirds``; the package
applies all three as cached matrices), one RK4 ``step`` with the 2/3
dealiasing after it (``simulate`` takes the same increment without that
projection), the energy kernels with their series
evaluated over every entry, and the right-hand side with every (M, b)-only
table rebuilt per call (``rhs_per_call`` and the ``*_per_call`` kernels it is
built from, on the pair grids ``_pair_grids``).

The operator references are the plain loop forms of the off-diagonal norm,
the band product and its window projection, the band sum and the mirror by
band lookup, the per-band remainder homological equation, the Neumann series
of (Id + Psi)^{-1} in band space, the conjugation of a reduction step on
the full complex phi grid (``full_grid_step``), and the shifted evaluation (as
the full exp-sum, and as ``horner_shifted``, Horner's rule over every given
coefficient), the per-iteration full-band inverse shift ``inverse_shift``,
plus the composition ``compose_with`` with a change of variables (plain or
weighted, forward or inverse).

The test-only helpers follow them: ``identity``, the multiple ``scaled``,
the entry lookup ``entry`` and the symmetry measure ``mirror_deviation`` of a
truncation, the coefficient-space operator action ``apply_operator`` and the
exponential ``e_mode`` (both on complex samples, which a ``PeriodicField``
does not hold), ``project``, ``convolve_multiplier``,
``from_multiplier``, ``diagonal_difference_quotient`` (2 d_theta f on the
diagonal), the kernel tables ``kernel_A`` and ``kernel_B`` and the frequency
report ``check_monotonicity``.  The pair angle ``pair_delta`` and the kernel
factors in their defining forms (``kernel_P``, ``difference_quotient``,
``smooth_factor_v1``, ``log_v1`` and ``log_one_plus_P_half``) serve the dense
integrals and the geometry tests; the package builds only the stack of
``geometry.smooth_log_tables``.

The Cantor references at the end are the one-function forms of the package's
runs engine and Russmann bound (``sublevel_measure`` with its
``SublevelResult``, and ``russmann_bound``), the node-by-node sublevel loop
with its scalar bisection, the per-tuple excluded-measure pipeline built on
it (a closure per tuple, a full-grid filter over an Omega table of every
index), ``measure_curve`` (the excluded measure per gamma with a fitted power
law), and two helpers only the tests use: ``intervals_nested`` and
``linear_cantor_measure``.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from vortexpatch import kam
from vortexpatch.cantor import (
    _FINE_GRID,
    _SCREEN_GRID,
    DiophantineSpec,
    ExcludedReport,
    _russmann,
    _sublevel_runs,
    _tail_bound,
    excluded_measure,
    merge_intervals,
)
from vortexpatch.dynamics import (
    _NEAR_ONE,
    _SA,
    _SB,
    _T3,
    _alias_tail_sum,
    _rhs,
    _rk4_increment,
)
from vortexpatch.geometry import PatchState, _disc_tables, pair_trig
from vortexpatch.kam import NonReducibleError, smooth_cutoff
from vortexpatch.spectral import (
    LinearOperatorMatrix,
    PeriodicField,
    _jmodes,
    _mirror_project,
    _mirrored,
    _mode_numbers,
    k1_multiplier_coeffs,
    k2_multiplier_coeffs,
    spectral_derivative,
    theta_grid,
)
from vortexpatch.spectrum import (
    FrequencySystem,
    _bracket,
    _lattice,
    omega,
    omega_derivative,
)


def shifted_kernel_integral(table, khat):
    """Per-theta integrals int_T K(eta - theta_i) w(theta_i, eta) deta.

    ``table[i, k] = w(theta_i, theta_k)`` with theta_k the eta node; exact on
    band-limited factors.
    """
    M = table.shape[0]
    rows = np.arange(M)[:, None]
    shifted = table[rows, (rows + np.arange(M)[None, :]) % M]
    what = np.fft.fft(shifted, axis=1, norm="forward")
    out = np.sum(what * khat[None, :], axis=1)
    return out.real if np.isrealobj(table) else out


def log_A_integral(state, table):
    return (
        shifted_kernel_integral(table, k1_multiplier_coeffs(state.M))
        + np.log(2.0 * state.b) * table.mean(axis=1)
        + (log_v1(state) * table).mean(axis=1)
    )


def log_B_integral(state, table):
    return (
        shifted_kernel_integral(table, k2_multiplier_coeffs(state.M, state.b))
        + (log_one_plus_P_half(state) * table).mean(axis=1)
    )


def pair_delta(M):
    """delta[i, k] = theta_k - theta_i (eta minus theta) on the M-point grid."""
    th = theta_grid(M)
    return th[None, :] - th[:, None]


def _pair_grids(state):
    """(R(theta) as a column, R(eta) as a row, delta = eta - theta)."""
    R = state.R
    return R[:, None], R[None, :], pair_delta(state.M)


def _pairwise(state):
    R, dR = state.R, state.dR
    delta = pair_delta(state.M)
    return R[:, None], R[None, :], dR[:, None], dR[None, :], np.sin(delta), np.cos(delta)


# -- the kernel tables of log A_r and log B_r in their defining forms ---------

def kernel_P(state):
    """P_r with B_r^2 = B_0^2 (1 + P_r); P_0 = 0.

    P_r = ((R R)^2 - b^4 - 2 (R R - b^2) cos) / (1 + b^4 - 2 b^2 cos).
    """
    b2 = state.b ** 2
    prod = np.multiply.outer(state.R, state.R)
    cs = np.cos(pair_delta(state.M))
    num = (prod * prod - b2 * b2) - 2.0 * (prod - b2) * cs
    return num / _disc_tables(state.M, state.b)[0]


def difference_quotient(vals, diag):
    """g(theta, eta) = (vals(eta) - vals(theta))/sin((eta-theta)/2) off the
    diagonal and ``diag`` on it (2 f' for the difference quotient of f)."""
    g = (vals[None, :] - vals[:, None]) / pair_trig(len(vals))[0]
    np.fill_diagonal(g, diag)
    return g


def smooth_factor_v1(state):
    """The smooth factor v1 with A_r = 2 b |sin((eta-theta)/2)| v1.

    v1 = sqrt((g/(2b))^2 + R(theta) R(eta)/b^2) where g is the difference
    quotient of R, with the state's 2R' on the diagonal; there v1 is
    sqrt(R'^2 + R^2)/b.
    """
    b = state.b
    g = difference_quotient(state.R, 2.0 * state.dR)
    return np.sqrt((g / (2.0 * b)) ** 2 + np.multiply.outer(state.R, state.R) / (b * b))


def log_v1(state):
    """log v1: the smooth part of log A_r = log(2b) + K1(eta-theta) + log v1."""
    return np.log(smooth_factor_v1(state))


def log_one_plus_P_half(state):
    """(1/2) log(1 + P_r): the smooth part of log B_r = K2(eta-theta) + (1/2)log(1+P_r)."""
    return 0.5 * np.log1p(kernel_P(state))


def velocity_functional(state):
    """F_b = -F0 - F1 + F2 from the dense mixed-derivative tables D and D2."""
    Rt, Re, dRt, dRe, sd, cd = _pairwise(state)
    F0 = 0.5 * spectral_derivative(state.r.values) * np.mean(state.R ** 2) / state.R ** 2
    D = dRt * dRe * sd + dRt * Re * cd - Rt * dRe * cd + Rt * Re * sd
    D2 = (-dRe * cd + Re * sd) / Rt - (dRe * sd + Re * cd) * dRt / Rt ** 2
    return -F0 - log_A_integral(state, D) + log_B_integral(state, D2)


def transport_coefficient(state):
    _, Re, _, dRe, sd, cd = _pairwise(state)
    D1 = dRe * sd + Re * cd
    R = state.R
    return (
        -0.5 * np.mean(R ** 2) / R ** 2
        - log_A_integral(state, D1) / R
        - log_B_integral(state, D1) / R ** 3
    )


def _rows(rho):
    return np.ascontiguousarray(np.broadcast_to(rho[None, :], (len(rho), len(rho))))


def nonlocal_L(state, rho):
    return log_A_integral(state, _rows(rho))


def smoothing_S(state, rho):
    return log_B_integral(state, _rows(rho))


def assemble(state, N):
    """Generator matrix column by column: G_r e_j0 = -d_theta(V e_j0 + L e_j0 - S e_j0)."""
    M = state.M
    th = theta_grid(M)
    V = transport_coefficient(state)
    jmodes = np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])
    entries = np.zeros((2 * N, 2 * N), dtype=complex)
    for c, j0 in enumerate(jmodes):
        rho = np.exp(1j * j0 * th)
        g = V * rho + nonlocal_L(state, rho) - smoothing_S(state, rho)
        col = -(spectral_derivative(g.real) + 1j * spectral_derivative(g.imag))
        entries[:, c] = np.fft.fft(col, norm="forward")[jmodes % M]
    return entries


def rhs(b, values):
    """The RK4 right-hand side -truncate_two_thirds(F_b[r]) with R' taken twice, as
    d_theta R on the diagonal of v1 and as r'/R, and K1, K2 applied by two
    separate inverse FFTs."""
    state = PatchState(b, PeriodicField(values))
    R, M = state.R, state.M
    drdth = spectral_derivative(state.r.values)
    dR = drdth / R
    F0 = 0.5 * drdth * np.mean(R ** 2) / R ** 2
    c, s = np.cos(theta_grid(M)), np.sin(theta_grid(M))
    pq = np.column_stack([dR * s + R * c, R * s - dR * c])
    g = diagonal_difference_quotient(PeriodicField(R))
    Rt, Re, _ = _pair_grids(state)
    lv = np.log(np.sqrt((g / (2.0 * b)) ** 2 + Rt * Re / (b * b)))
    lp = log_one_plus_P_half(state)
    chat = np.fft.fft(pq, axis=0, norm="forward")
    K1C = np.fft.ifft(chat * k1_multiplier_coeffs(M)[:, None], axis=0, norm="forward").real
    K2C = np.fft.ifft(chat * k2_multiplier_coeffs(M, b)[:, None], axis=0, norm="forward").real
    log_A = K1C + np.log(2.0 * b) * pq.mean(axis=0) + (lv @ pq) / M
    log_B = K2C + (lp @ pq) / M
    p, q = pq.T
    F1 = -q * log_A[:, 0] + p * log_A[:, 1]
    F2 = (-(R * s + dR * c) * log_B[:, 0] + (R * c - dR * s) * log_B[:, 1]) / R ** 2
    return -truncate_two_thirds(-F0 - F1 + F2)


def truncate_two_thirds(values):
    """The 2/3 rule on the Fourier coefficients: zero every mode |j| > M // 3."""
    M = len(values)
    c = np.fft.fft(values, norm="forward")
    c[np.abs(_mode_numbers(M)) > M // 3] = 0.0
    return np.fft.ifft(c, norm="forward").real


def step(state, dt):
    """One classical RK4 step of d_t r = -F_b[r], then 2/3 dealiasing."""
    rn = state.r.values + _rk4_increment(functools.partial(_rhs, state.b), state.r.values, dt)
    return PatchState(state.b, PeriodicField(truncate_two_thirds(rn)))


# -- the energy kernels with the series over every entry -----------------

def series_SC(z):
    """sum_{m>=1, m!=2} z^m / (m+2): the closed form on every entry, then the
    60-term series on every entry when any |z| < 0.5."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < 0.5
    if np.any(~small):
        zz = np.where(small, 0.5, z)
        out_big = (-np.log(1.0 - zz) - zz - 0.5 * zz * zz) / (zz * zz) - 0.25 * zz * zz
        out = np.where(small, out, out_big)
    if np.any(small):
        zs = np.where(small, z, 0.0)
        acc = np.zeros_like(zs)
        zp = np.ones_like(zs)
        for m in range(1, 61):
            zp = zp * zs
            if m != 2:
                acc += zp / (m + 2)
        out = np.where(small, acc, out)
    return out


def series_Fmm2(z):
    """sum_{m>=1} z^m / (m(m+2)), 3/4 at z = 1: closed form and 60-term
    series both over every entry."""
    z = np.asarray(z, dtype=complex)
    one = np.abs(1.0 - z) < _NEAR_ONE
    small = np.abs(z) < 0.5
    zz = np.where(one | small, 0.5, z)
    L = -np.log(1.0 - zz)
    closed = 0.5 * (L - (L - zz - 0.5 * zz * zz) / (zz * zz))
    zs = np.where(small, z, 0.0)
    acc = np.zeros_like(zs)
    zp = np.ones_like(zs)
    for m in range(1, 61):
        zp = zp * zs
        acc += zp / (m * (m + 2))
    out = np.where(small, acc, closed)
    return np.where(one, 0.75 + 0.0j, out)


def phi_kernel(rho1, rho2, delta):
    """Phi with every Delta-only factor computed per call."""
    rho = np.minimum(rho1, rho2)
    sig = np.maximum(rho1, rho2)
    eid = np.exp(1j * delta)
    q = rho / sig
    z = q * eid
    w = eid
    r2s2 = (rho * sig) ** 2
    r4 = rho ** 4
    lq = np.log(sig / rho)
    term1 = 0.25 * r2s2 * np.log(sig) - 0.125 * r2s2 + r4 / 16.0
    zdiag = np.abs(1.0 - z) < _NEAR_ONE
    zs = np.where(zdiag, 0.0, z)
    lz = np.log(1.0 - zs)
    PA = _SA(zs, lz).real / 4.0 + _SB(zs, lz).real / 8.0 - series_SC(zs).real / 8.0
    wone = np.abs(1.0 - w) < _NEAR_ONE
    ws = np.where(wone, 0.0, w)
    PW = np.where(wone, -0.75, (_SB(ws, np.log(1.0 - ws)) + series_SC(ws)).real)
    S2 = r2s2 * PA - 0.125 * r4 * PW + np.cos(2.0 * delta) * r4 * (lq + 0.5) / 8.0
    S2 = np.where(zdiag, 0.375 * r4, S2)
    term3 = r2s2 * _T3(rho * sig * eid)
    return term1 - S2 + term3


def psi_kernel(rho1, rho2, delta):
    """psi with both branches over every entry and the one-sided w = 1 guard
    |Delta mod 2 pi| < 1e-9 (the same on a grid, where Delta = 0 or |Delta| >= 2 pi/M)."""
    rho1, rho2, delta = np.broadcast_arrays(
        np.asarray(rho1, float), np.asarray(rho2, float), np.asarray(delta, float)
    )
    eid = np.exp(1j * delta)
    out = np.empty(rho1.shape)
    le = rho2 <= rho1
    if np.any(le):
        u = np.where(le, rho2 / rho1, 0.0) * eid
        piece1 = 0.5 * np.log(np.where(le, rho1, 1.0)) * rho2 ** 2
        series = -(rho2 ** 2) * series_Fmm2(u).real
        out = np.where(le, piece1 + series, out)
    gt = ~le
    if np.any(gt):
        r1 = np.where(gt, rho1, 0.5)
        r2 = np.where(gt, rho2, 1.0)
        v = (r1 / r2) * eid
        piece1 = 0.5 * r2 ** 2 * np.log(r2) - 0.25 * r2 ** 2 + 0.25 * r1 ** 2
        vone = np.abs(1.0 - v) < _NEAR_ONE
        vs = np.where(vone, 0.0, v)
        lv = np.log(1.0 - vs)
        AB = np.where(vone, 0.5, (_SA(vs, lv) + _SB(vs, lv)).real)
        wone = np.abs(delta % (2.0 * np.pi)) < _NEAR_ONE
        ws = np.where(wone, 0.0, eid)
        BC = np.where(wone, -0.75, (_SB(ws, np.log(1.0 - ws)) + series_SC(ws)).real)
        series = -(
            0.5 * r2 ** 2 * AB
            - 0.5 * r1 ** 2 * BC
            + 0.5 * np.cos(2.0 * delta) * r1 ** 2 * (0.25 + np.log(r2 / r1))
        )
        out = np.where(gt, piece1 + series, out)
    part2 = rho2 ** 2 * series_Fmm2(rho1 * rho2 * eid).real
    return out + part2


def energy(state):
    R = state.R
    table = phi_kernel(R[:, None], R[None, :], pair_delta(state.M))
    mean = np.sum(table, dtype=np.longdouble) / table.size
    return float(mean + 0.5 * np.mean(R ** 4) * _alias_tail_sum(state.M))


def stream_gradient(state):
    R = state.R
    psi = psi_kernel(R[:, None], R[None, :], pair_delta(state.M))
    return 2.0 * psi.mean(axis=1) + 2.0 * R ** 2 * _alias_tail_sum(state.M)


# -- the RK4 right-hand side with its per-call tables -----------------------
# The right-hand side as it was before the (M, b)-only tables were cached:
# every call rebuilds the sin(Delta/2) divisor with a unit diagonal,
# b^2 - 2 cos Delta, 1 + b^4 - 2 b^2 cos Delta, the log 2 + K1 and K2
# circulants, e^{i theta} and e^{-2 i theta}.  The package must equal these
# bit for bit.

def log_tables_per_call(state):
    """The stack (T0, T1): T0 = log((dR / (2 sin(Delta/2)))^2 + R R) with R' on
    the diagonal, T1 = log1p((R R - b^2)(R R + b^2 - 2 cos Delta) / B_0^2)."""
    M, b2, R = state.M, state.b ** 2, state.R
    delta = pair_delta(M)
    s = np.sin(0.5 * delta)
    np.fill_diagonal(s, 1.0)  # placeholder, diagonal overwritten below
    cs = np.cos(delta)
    half = 0.5 * R
    g = (half[None, :] - half[:, None]) / s
    np.fill_diagonal(g, state.dR)
    RR = np.multiply.outer(R, R)
    B0sq = 1.0 + b2 * b2 - 2.0 * b2 * cs
    return np.stack([np.log(g ** 2 + RR),
                     np.log1p((RR - b2) * (RR + (b2 - 2.0 * cs)) / B0sq)])


def eta_factors_per_call(state):
    z = (state.R - 1j * state.dR) * np.exp(1j * theta_grid(state.M))
    return z.view(float).reshape(state.M, 2)


def multiplier_matrix_per_call(mult):
    """The circulant [i, k] = ifft(mult)[(i - k) mod M] of an even multiplier."""
    return scipy.linalg.circulant(np.fft.ifft(mult).real)


def log_kernel_integrals_per_call(state, C):
    M = state.M
    out = log_tables_per_call(state) @ C
    out *= 0.5 / M
    k1 = k1_multiplier_coeffs(M).copy()
    k1[0] = 0.0  # -log 2 + log 2: the constant log 2 of log A_r
    out[0] += multiplier_matrix_per_call(k1) @ C
    out[1] += multiplier_matrix_per_call(k2_multiplier_coeffs(M, state.b)) @ C
    return out


def velocity_functional_per_call(state):
    R2 = state.R ** 2
    pq = eta_factors_per_call(state)
    z = pq.view(complex)[:, 0]
    L_A, L_B = log_kernel_integrals_per_call(state, pq).view(complex)[..., 0]
    G = z * np.exp(-2j * theta_grid(state.M)) * L_B / R2 - z.conj() * L_A
    F0 = 0.5 * state.dr * np.mean(R2) / R2
    return G.imag - F0


def dealias_per_call(values):
    keep = np.abs(_mode_numbers(len(values))) <= len(values) // 3
    return multiplier_matrix_per_call(keep.astype(float)) @ values


def rhs_per_call(b, values):
    st = PatchState(b, PeriodicField(values))
    return -dealias_per_call(velocity_functional_per_call(st))


def offdiag_norm(op, s):
    """Off-diagonal norm by one masked sup per (band, diagonal), summed in
    (band, diagonal ascending) order."""
    total = 0.0
    jm = op.jmodes
    diff = jm[:, None] - jm[None, :]
    for bi, m in enumerate(op.bands):
        labs = int(np.sum(np.abs(m)))
        block = np.abs(op.entries[bi])
        for band in range(-2 * op.N, 2 * op.N + 1):
            mask = diff == band
            if not mask.any():
                continue
            sup = block[mask].max()
            if sup == 0.0:
                continue
            w = max(1, labs, abs(band))
            total += float(w) ** (2.0 * s) * sup ** 2
    return float(np.sqrt(total))


def band_product(left, right):
    """left @ right one block product at a time, accumulated per output band
    in (left band, right band) order, output bands sorted."""
    sums = {}
    for bl, a in zip(left.bands, left.entries):
        for br, b in zip(right.bands, right.entries):
            key = tuple(int(x) for x in bl + br)
            sums.setdefault(key, np.zeros_like(a))
            sums[key] += a @ b
    keys = sorted(sums)
    bands = np.array(keys, dtype=int).reshape(len(keys), left.d)
    return LinearOperatorMatrix(left.N, np.stack([sums[k] for k in keys]), bands)


def band_sum(left, right):
    """left + right through a dict of band tuples, output bands sorted."""
    sums = {tuple(int(x) for x in m): left.entries[i].copy() for i, m in enumerate(left.bands)}
    for i, m in enumerate(right.bands):
        key = tuple(int(x) for x in m)
        if key in sums:
            sums[key] += right.entries[i]
        else:
            sums[key] = right.entries[i].copy()
    keys = sorted(sums)
    bands = np.array(keys, dtype=int).reshape(len(keys), left.d)
    return LinearOperatorMatrix(left.N, np.stack([sums[k] for k in keys]), bands)


def mirrored(op, a):
    """The full mirror of a band-stacked array by band lookup: out[b] = a[band -l]
    with both mode axes reversed (the jmodes list is symmetric under j -> -j),
    zero where the band -l is absent."""
    bpos = {tuple(int(x) for x in m): i for i, m in enumerate(op.bands)}
    out = np.zeros_like(a)
    for bi, m in enumerate(op.bands):
        mi = bpos.get(tuple(int(-x) for x in m))
        if mi is not None:
            out[bi] = a[mi][::-1, ::-1]
    return out


def solve_remainder_homological(state, gamma, tau2, Ncut):
    """(Psi, resolved, cut_fraction) of the remainder homological equation,
    one band at a time, Psi projected with ``mirrored``."""
    R = state.R
    jm = R.jmodes
    mu = state.mu
    bands = R.bands
    psi_entries = np.zeros_like(R.entries)
    resolved = np.zeros_like(R.entries)
    nsig = 0
    ncut = 0
    dj = np.abs(jm[:, None] - jm[None, :])
    mu_diff = mu[:, None] - mu[None, :]
    for bi, m in enumerate(bands):
        labs = int(np.sum(np.abs(m)))
        lb = max(1, labs)
        div = float(np.dot(state.omega, np.atleast_1d(m))) + mu_diff
        thr = gamma * np.maximum(1, dj) / lb ** tau2
        chi = smooth_cutoff(div / thr)
        inside = np.maximum(lb, dj) <= Ncut
        normal = (labs == 0) & (jm[:, None] == jm[None, :])
        active = inside & ~normal
        block = R.entries[bi]
        denom = np.where(chi > 0.0, 1j * div, 1.0)
        psi_entries[bi] = np.where(active, -chi * block / denom, 0.0)
        resolved[bi] = np.where(active, chi * block, 0.0)
        sig = active & (np.abs(block) > 1e-15)
        nsig += int(np.count_nonzero(sig))
        ncut += int(np.count_nonzero(sig & (chi < 1.0)))
    a = psi_entries.real
    psi = LinearOperatorMatrix(R.N, 0.5 * (a + mirrored(R, a)), bands)
    frac = ncut / nsig if nsig else 0.0
    return psi, resolved, frac


def truncate_bands(op, window):
    """Projection onto the band window |l|_inf <= window."""
    b = op.bands
    keep = (np.max(np.abs(b), axis=1) <= window) if b.shape[1] else np.ones(len(b), bool)
    return LinearOperatorMatrix(op.N, op.entries[keep], op.bands[keep])


def neumann_inverse(psi, tail=1e-14):
    """(Id + Psi)^{-1} = sum (-Psi)^k as band products, truncated when the
    term norm <= tail (NonReducibleError if that takes more than 200 terms)."""
    norm = offdiag_norm(psi, 0.0)
    if norm >= 0.5:
        raise NonReducibleError(f"Neumann series requires |Psi| < 1/2, got {norm:.3g}")
    N = psi.N
    out = LinearOperatorMatrix(N, np.eye(2 * N, dtype=complex)[None],
                               np.zeros((1, psi.d), dtype=int))
    term = neg = scaled(psi, -1.0)
    for _ in range(200):
        out = out + term
        if offdiag_norm(term, 0.0) <= tail:
            return out
        term = neg @ term
    raise NonReducibleError(f"Neumann series did not reach tail {tail:.3g} in 200 terms")


def full_grid_step(state, Ncut, G, gamma=1e-2, tau2=2.5):
    """The conjugation of ``kam.kam_step`` by the complex path on the full G^d
    phi grid: Psi, R and the leftover sampled at every point by one complex
    inverse FFT, Y = (Id + Psi)^{-1} (leftover + R Psi - Psi diag(i r)) solved
    at every point, and R_next read from Y's complex forward FFT on the bands
    |l|_inf <= W.  Returns (R_next, the samples of Y)."""
    R = state.R
    W = kam._window(R)
    zi = R.zero_band
    r = np.diag(R.entries[zi]).imag
    psi, resolved, _ = kam.solve_remainder_homological(state, gamma, tau2, Ncut)
    leftover = R.entries - resolved
    np.fill_diagonal(leftover[zi], np.diag(leftover[zi]) - 1j * r)
    phi = tuple(range(R.d))
    grid = np.zeros((3,) + (G,) * R.d + R.entries.shape[1:], dtype=complex)
    grid[(slice(None),) + tuple((R.bands % G).T)] = np.stack([psi.entries, R.entries, leftover])
    Psi, Rv, X = np.fft.ifftn(grid, axes=[a + 1 for a in phi], norm="forward")
    X = X + Rv @ Psi - Psi * (1j * r)
    Y = np.linalg.solve(Psi + np.eye(2 * R.N), X)
    coeffs = np.fft.fftn(Y, axes=phi, norm="forward")
    bands = np.indices((2 * W + 1,) * R.d).reshape(R.d, -1).T - W
    a = _mirror_project(coeffs[tuple((bands % G).T)].imag, -1)
    return LinearOperatorMatrix(R.N, 1j * a, bands), Y


def evaluate_shifted(f, shift):
    """f(phi, theta + shift) as the full sum_m c_m exp(i m (theta + shift))."""
    vals = f.values
    M = vals.shape[-1]
    c = np.fft.fft(vals, axis=-1, norm="forward")
    angles = theta_grid(M) + shift
    phase = np.exp(1j * angles[..., None] * _mode_numbers(M))
    return np.sum(c[..., None, :] * phase, axis=-1).real


def horner_shifted(c, shift):
    """sum_m c_m e^{i m (theta + shift)} from the theta coefficients c (FFT order),
    each side summed by Horner's rule over all of its terms, zero or not."""
    M = c.shape[-1]
    z = np.exp(1j * (theta_grid(M) + shift))

    def side(a, z):
        acc = 0.0
        for m in range(a.shape[-1] - 1, -1, -1):
            acc = (acc + a[..., m, None]) * z
        return acc

    h = (M + 1) // 2
    out = c[..., :1] + side(c[..., 1:h], z) + side(c[..., :h - 1:-1], z.conj())
    return out.real


def inverse_shift(beta_values):
    """beta_hat = -beta(phi, theta + beta_hat) by the fixed point of
    ``kam.ChangeOfVariables``, with beta's theta FFT taken anew and summed over
    every mode in each iteration.  The step cap is the class's: 1 +
    ceil(log(1e-14 / max|beta|) / log((1 + q)/2)), q = max|d_theta beta|."""
    q = float(np.max(np.abs(spectral_derivative(beta_values))))
    size = max(float(np.max(np.abs(beta_values))), 1e-14)
    cap = 1 + math.ceil(math.log(1e-14 / size) / math.log(0.5 * (1.0 + q)))
    bh = -beta_values.copy()
    for _ in range(cap):
        c = np.fft.fft(beta_values, axis=-1, norm="forward")
        nxt = -horner_shifted(c, bh)
        gap = np.max(np.abs(nxt - bh))
        bh = nxt
        if gap < 1e-14:
            return bh
    raise ValueError(f"the inverse shift did not converge in {cap} iterations")


def compose_with(f, cov, weighted=False, inverse=False):
    """Composition operator of the change of variables ``cov``.

    weighted=False: (B f)(phi, theta) = f(phi, theta + beta).
    weighted=True:  the measure-preserving version (1 + d_theta beta) B f,
    whose inverse is the same formula built from beta_hat.
    """
    shift = cov.beta_hat if inverse else cov.beta
    out = kam.evaluate_shifted(f, shift.values)
    if weighted:
        out = (1.0 + spectral_derivative(shift.values)) * out
    return PeriodicField(out)


def identity(N: int) -> LinearOperatorMatrix:
    """The identity on the zero-mean modes |j| <= N, with no phi angle (d = 0)."""
    return LinearOperatorMatrix(N, np.eye(2 * N, dtype=complex)[None], np.zeros((1, 0), int))


def scaled(op: LinearOperatorMatrix, c) -> LinearOperatorMatrix:
    """c T on the bands of T."""
    return LinearOperatorMatrix(op.N, op.entries * c, op.bands)


def mirror_deviation(op: LinearOperatorMatrix, sign: float, conjugate: bool) -> float:
    """sup |T^{-l,-j}_{-l0,-j0} - sign * (conj)T^{l,j}_{l0,j0}|: zero for a real
    operator at (1, conjugate), a reversible one at (-1, plain) and a
    reversibility-preserving one at (1, plain)."""
    ref = np.conj(op.entries) if conjugate else op.entries
    return float(np.max(np.abs(_mirrored(op.entries) - sign * ref), initial=0.0))


def entry(op: LinearOperatorMatrix, m, j: int, j0: int) -> complex:
    """T^{l0+m, j}_{l0, j0}; zero if the band or mode is absent."""
    key = list(np.atleast_1d(m)) if op.d else []
    bands, jm = op.bands.tolist(), op.jmodes.tolist()
    if key not in bands or j not in jm or j0 not in jm:
        return 0.0
    return complex(op.entries[bands.index(key), jm.index(j), jm.index(j0)])


def apply_operator(op: LinearOperatorMatrix, values: np.ndarray) -> np.ndarray:
    """Matrix-vector product in coefficient space (modes outside the truncation
    drop) on real or complex samples; returns complex samples."""
    shape = values.shape
    if values.ndim != op.d + 1:
        raise ValueError("field dimensionality does not match operator")
    if op.N > shape[-1] // 2 - 1:
        raise ValueError("operator truncation exceeds field grid")
    c = np.fft.fftn(values, norm="forward")
    jnums = _mode_numbers(shape[-1])
    jsel = [np.where(jnums == j)[0][0] for j in op.jmodes]
    out = np.zeros_like(c)
    if op.d == 0:
        vec = c[jsel]
        res = op.entries[0] @ vec
        out[jsel] = res
    else:
        cin = c[..., jsel]
        for bi, m in enumerate(op.bands):
            contrib = np.tensordot(cin, op.entries[bi].T, axes=([cin.ndim - 1], [0]))
            for ax, shift in enumerate(m):
                contrib = _shift_no_wrap(contrib, int(shift), ax, _mode_numbers(shape[ax]))
            out[..., jsel] += contrib
    return np.fft.ifftn(out, norm="forward")


def _shift_no_wrap(arr: np.ndarray, shift: int, axis: int, modes: np.ndarray) -> np.ndarray:
    """Shift coefficients l -> l + shift along an fft-ordered axis, dropping overflow."""
    if shift == 0:
        return arr
    order = np.argsort(modes)
    sorted_arr = np.take(arr, order, axis=axis)
    rolled = np.roll(sorted_arr, shift, axis=axis)
    idx = [slice(None)] * arr.ndim
    if shift > 0:
        idx[axis] = slice(0, shift)
    else:
        idx[axis] = slice(len(modes) + shift, len(modes))
    rolled[tuple(idx)] = 0.0
    inv = np.argsort(order)
    return np.take(rolled, inv, axis=axis)


def e_mode(shape, l, j) -> np.ndarray:
    """Samples of the complex exponential e_{l,j}(phi, theta) = exp(i(l.phi + j theta))."""
    shape = tuple(shape)
    l = np.atleast_1d(np.asarray(l, dtype=int)) if l is not None else np.array([], dtype=int)
    grids = np.meshgrid(*[theta_grid(n) for n in shape], indexing="ij")
    phase = j * grids[-1]
    for li, g in zip(l, grids[:-1]):
        phase = phase + li * g
    return np.exp(1j * phase)


def project(field: PeriodicField, N: int) -> PeriodicField:
    """Cut-off projector Pi_N: zero all coefficients with <l,j> > N."""
    if N < 1:
        raise ValueError("projection cutoff must be >= 1")
    limit = max(n // 2 for n in field.grid_sizes)
    if N > limit:
        raise ValueError(f"cutoff N={N} exceeds grid truncation {limit}")
    keep = field.mode_weights() <= N
    return PeriodicField.from_coeffs(field.coeffs * keep)


def convolve_multiplier(values: np.ndarray, khat: np.ndarray) -> np.ndarray:
    """(K * rho)(theta) where K has the given Fourier coefficients."""
    hat = np.fft.fft(values, norm="forward") * khat
    out = np.fft.ifft(hat, norm="forward")
    return out.real if np.isrealobj(values) else out


def from_multiplier(N: int, values) -> LinearOperatorMatrix:
    """Diagonal operator e_j -> a_j e_j; ``values`` maps j to a_j."""
    diag = np.array([values(int(j)) for j in _jmodes(N)], dtype=complex)
    return LinearOperatorMatrix(N, np.diag(diag)[None], np.zeros((1, 0), int))


def diagonal_difference_quotient(f: PeriodicField) -> np.ndarray:
    """g(theta, eta) = (f(eta) - f(theta))/sin((eta-theta)/2), g(theta,theta) = 2 f'(theta)."""
    return difference_quotient(f.values, 2.0 * spectral_derivative(f.values))


def kernel_A(state):
    """A_r via the stable form ((R(theta)-R(eta))^2 + 4 R R sin^2((eta-theta)/2))^{1/2}."""
    Rt, Re, _ = _pair_grids(state)
    sh = pair_trig(state.M)[0]
    diff2 = (Rt - Re) ** 2
    vals = np.sqrt(diff2 + 4.0 * Rt * Re * sh * sh)
    np.fill_diagonal(vals, 0.0)
    return vals


def kernel_B(state):
    """B_r = |1 - R(theta) R(eta) e^{i(eta-theta)}| (smooth, bounded below)."""
    Rt, Re, delta = _pair_grids(state)
    cs = np.cos(delta)
    prod = Rt * Re
    return np.sqrt(prod * prod - 2.0 * prod * cs + 1.0)


def check_monotonicity(b: float, Jmax: int = 50, b0: float = 0.1, b1: float = 0.9,
                       grid: int = 200) -> dict:
    """Monotonicity and lower-bound report for the frequency family.

    Checks (on the given b and a [b0, b1] grid):
    * Omega_j(b)/j strictly increasing in j up to Jmax (reports the min gap);
    * |Omega_j(b')| >= (b0^2/2) j;
    * |Omega_j(b') +- Omega_j'(b')| >= (b0^2/6) |j +- j'| for j, j' <= min(Jmax, 30).
    """
    js = np.arange(1, Jmax + 1)
    ratios = np.array([float(omega(b, j)) / j for j in js])
    gaps = np.diff(ratios)
    bs = np.linspace(b0, b1, grid)
    lower_ok = True
    lower_margin = np.inf
    for j in js:
        vals = np.abs(omega(bs, int(j)))
        margin = float(np.min(vals - 0.5 * b0 * b0 * j))
        lower_margin = min(lower_margin, margin)
        lower_ok &= margin >= 0.0
    jpair = js[: min(Jmax, 30)]
    pair_margin = np.inf
    for j in jpair:
        oj = omega(bs, int(j))
        for jp in jpair:
            ojp = omega(bs, int(jp))
            for sgn in (+1, -1):
                target = (b0 * b0 / 6.0) * abs(j + sgn * jp)
                pair_margin = min(pair_margin, float(np.min(np.abs(oj + sgn * ojp)) - target))
    return {
        "b": b,
        "Jmax": int(Jmax),
        "monotone": bool(np.all(gaps > 0)),
        "min_gap": float(np.min(gaps)),
        "lower_bound_ok": bool(lower_ok),
        "lower_bound_margin": float(lower_margin),
        "pair_bound_ok": bool(pair_margin >= 0.0),
        "pair_bound_margin": float(pair_margin),
    }


@dataclass
class SublevelResult:
    measure: float
    intervals: list
    flags: list


def sublevel_measure(f, alpha, a, b, grid=2 ** 14, tol=1e-12):
    """Measure of {x in [a, b] : |f(x)| <= alpha} from the package's runs engine
    ``_sublevel_runs`` applied to one function.

    ``f`` must accept a numpy array.  The indicator h = |f| - alpha is sampled
    on ``grid`` + 1 points; every sign change is refined to ``tol`` by
    bisection.  Nodes where h vanishes to within 1e-13 are flagged.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    xs = np.linspace(a, b, grid + 1)

    def h(who, x):
        return np.abs(np.asarray(f(x), dtype=float)) - alpha

    hx = h(None, xs)
    flags = ["tangency_suspect"] if np.any(np.abs(hx) < 1e-13) else []
    node = np.flatnonzero(hx <= 0.0)
    _, left, right = _sublevel_runs(np.zeros_like(node), node, xs, h, tol)
    intervals = [(float(l), float(r)) for l, r in zip(left, right)]
    return SublevelResult(measure=float(sum(r - l for l, r in intervals)),
                          intervals=intervals, flags=flags)


def russmann_bound(f_derivatives, alpha, q0, a, b):
    """The package's Russmann bound ``_russmann`` of one function on [a, b].

    ``f_derivatives(xs, q)`` returns the q-th derivative on the ``_SCREEN_GRID``
    nodes xs of [a, b]; ||f||_{C^q0} is the largest |d^q f| on them and beta the
    smallest over x of the largest over q.
    """
    xs = np.linspace(a, b, _SCREEN_GRID)
    table = np.stack([np.abs(np.asarray(f_derivatives(xs, q), dtype=float))
                      for q in range(q0 + 1)])
    return _russmann(float(np.max(table)), float(np.min(np.max(table, axis=0))),
                     alpha, q0, a, b)


def _bisect_root(h, lo, hi, tol=1e-12):
    """Root of the continuous h by bisection; h(lo), h(hi) have opposite signs."""
    flo = h(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fm = h(mid)
        if (flo <= 0) != (fm <= 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def sublevel_measure_loop(f, alpha: float, a: float, b: float,
                          grid: int = 2 ** 14, tol: float = 1e-12) -> SublevelResult:
    """Measure of {x in [a, b] : |f(x)| <= alpha} by sign-change bisection.

    ``f`` must accept a numpy array.  The indicator h = |f| - alpha is sampled
    on ``grid`` + 1 points; every sign change is refined to ``tol`` by
    bisection.  Features narrower than the grid spacing cannot be detected;
    nodes where h vanishes to within 1e-13 are flagged (tangency suspicion)
    rather than silently resolved.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    xs = np.linspace(a, b, grid + 1)
    h = np.abs(np.asarray(f(xs), dtype=float)) - alpha
    flags = []
    if np.any(np.abs(h) < 1e-13):
        flags.append("tangency_suspect")
    inside = h <= 0.0

    def h1(x):
        return float(np.abs(f(np.array([x])))[0] - alpha)

    intervals = []
    i = 0
    n = len(xs)
    while i < n:
        if not inside[i]:
            i += 1
            continue
        k = i
        while k + 1 < n and inside[k + 1]:
            k += 1
        left = xs[i] if i == 0 else _bisect_root(h1, xs[i - 1], xs[i], tol)
        right = xs[k] if k == n - 1 else _bisect_root(h1, xs[k], xs[k + 1], tol)
        if right > left:
            intervals.append((float(left), float(right)))
        i = k + 1
    measure = float(sum(r - l for l, r in intervals))
    return SublevelResult(measure=measure, intervals=intervals, flags=flags)


def intervals_nested(inner, outer, tol: float = 1e-9) -> bool:
    """Every interval of ``inner`` lies inside the union of ``outer`` (up to tol)."""
    outer = merge_intervals(outer)
    for l, r in merge_intervals(inner):
        ok = any(ol - tol <= l and r <= orr + tol for ol, orr in outer)
        if not ok:
            return False
    return True


def excluded_measure_per_tuple(sys: FrequencySystem,
                               spec: DiophantineSpec) -> ExcludedReport:
    """All excluded parameter intervals of the given small-divisor family.

    Every candidate tuple is first screened on a coarse grid with a Lipschitz
    safety margin (a tuple is skipped only when min |f| - margin > threshold,
    which is rigorous); survivors get the full sign-change bisection and a
    cross-check of each interval length against the Russmann sublevel bound.
    """
    if spec.tau1 <= sys.d:
        raise ValueError("need tau1 > d for the lattice sums")
    b0, b1, q0 = sys.b0, sys.b1, sys.q0
    xs = np.linspace(b0, b1, _SCREEN_GRID)
    dx = xs[1] - xs[0]
    C0 = 2.0 * (sys.omega_sup() + 1.0) + 1.0
    Jneed = max(int(np.ceil(C0 * spec.Lmax)) + spec.Jmax + 2, max(sys.sites) + 2)
    Ot = np.stack([omega(xs, j) for j in range(1, Jneed + 1)])       # Omega_j table
    dOmax = np.array([float(np.max(np.abs(omega_derivative(xs, j, 1))))
                      for j in range(1, Jneed + 1)])
    site_rows = [j - 1 for j in sys.sites]

    sign = -1.0 if spec.kind == "transport" else 1.0  # transport: omega = -omega_Eq
    rows = []
    flags = []
    violations = 0
    tuples = []  # (l, j, j0, threshold)

    def screen(fvals, lip, thr):
        """True when the sublevel set may be nonempty (rigorous skip otherwise)."""
        return float(np.min(np.abs(fvals))) - 0.5 * lip * dx <= thr

    if spec.kind == "transport":
        # one l of each pair +-l: the first nonzero entry is positive
        for l in (l for l in _lattice(sys.d, spec.Lmax) if l > (0,) * sys.d):
            lv = np.array(l, dtype=float)
            base = sign * np.tensordot(lv, Ot[site_rows], axes=([0], [0]))
            lip_l = float(np.dot(np.abs(lv), dOmax[site_rows]))
            br = _bracket(l)
            jcut = int(np.ceil(C0 * br))
            for j in range(-jcut, jcut + 1):
                thr = spec.gamma ** spec.upsilon * max(1, abs(j)) / br ** spec.tau1
                if screen(base + 0.5 * j, lip_l, thr):
                    tuples.append((l, j, None, thr))
        # l = 0, j > 0 (the pair (0, 0) is excluded by definition)
        for j in range(1, int(np.ceil(C0)) + 1):
            thr = spec.gamma ** spec.upsilon * j
            if 0.5 * j <= thr:
                tuples.append(((0,) * sys.d, j, None, thr))
    elif spec.kind == "first-order-Melnikov":
        for l in _lattice(sys.d, spec.Lmax):
            lv = np.array(l, dtype=float)
            base = np.tensordot(lv, Ot[site_rows], axes=([0], [0]))
            lip_l = float(np.dot(np.abs(lv), dOmax[site_rows]))
            br = _bracket(l)
            jcut = int(np.ceil(C0 * br))
            for j in range(1, jcut + 1):
                if j in sys.sites:
                    continue
                thr = spec.gamma * j / br ** spec.tau1
                if screen(base + Ot[j - 1], lip_l + dOmax[j - 1], thr):
                    tuples.append((l, j, None, thr))
    else:  # second-order-Melnikov
        for l in _lattice(sys.d, spec.Lmax):
            lv = np.array(l, dtype=float)
            base = np.tensordot(lv, Ot[site_rows], axes=([0], [0]))
            lip_l = float(np.dot(np.abs(lv), dOmax[site_rows]))
            br = _bracket(l)
            mcut = int(np.ceil(C0 * br))
            j0cut = min(spec.Jmax, int(np.ceil(spec.gamma ** (-spec.upsilon) * br ** spec.tau1)))
            jmin = min(j for j in range(1, Jneed) if j not in sys.sites)
            lip_pair = 2.0 * float(np.max(dOmax))
            for m in range(1, mcut + 1):
                thr_m = 2.0 * spec.gamma * m / br ** spec.tau2
                # f(j0) = g + (b^(2(j0+m)) - b^(2 j0))/2 is increasing in j0
                # toward g = omega.l + m/2, so dist(0, [g - b^(2 jmin)/2, g])
                # lower-bounds |f| for the whole (l, m) family.
                g = base + 0.5 * m
                lo = g - 0.5 * xs ** (2 * jmin)
                dist = np.where((lo <= 0.0) & (g >= 0.0), 0.0,
                                np.minimum(np.abs(lo), np.abs(g)))
                if float(np.min(dist)) - 0.5 * (lip_l + lip_pair) * dx > thr_m:
                    continue
                for j0 in range(1, j0cut + 1):
                    j = j0 + m
                    if j0 in sys.sites or j in sys.sites or j > Jneed:
                        continue
                    fv = base + Ot[j - 1] - Ot[j0 - 1]
                    if screen(fv, lip_l + dOmax[j - 1] + dOmax[j0 - 1], thr_m):
                        tuples.append((l, j, j0, thr_m))

    # exact filter on the measurement grid: sublevel detection needs a node
    # with |f| <= threshold, so dropping tuples whose fine-grid minimum
    # exceeds the threshold loses nothing relative to the instrument.
    xs_f = np.linspace(b0, b1, _FINE_GRID + 1)
    Otf = np.stack([omega(xs_f, j) for j in range(1, Jneed + 1)])
    filtered = []
    cur_l, base_f = None, None
    for l, j, j0, thr in sorted(tuples, key=lambda t: (t[0], t[1])):
        if l != cur_l:
            lv = np.array(l, dtype=float)
            base_f = sign * np.tensordot(lv, Otf[site_rows], axes=([0], [0]))
            cur_l = l
        if spec.kind == "transport":
            fv = base_f + 0.5 * j
        elif j0 is None:
            fv = base_f + Otf[j - 1]
        else:
            fv = base_f + Otf[j - 1] - Otf[j0 - 1]
        if float(np.min(np.abs(fv))) <= thr:
            filtered.append((l, j, j0, thr))
    tuples = filtered

    def f_callable(l, j, j0):
        lv = np.array(l, dtype=float)

        def f(x, q=0):
            out = sum(sign * lv[k] * omega_derivative(x, sj, q)
                      for k, sj in enumerate(sys.sites))
            if spec.kind == "transport":
                if q == 0:
                    out = out + 0.5 * j
                elif j != 0:
                    out = out + np.zeros_like(np.asarray(x, dtype=float))
            else:
                out = out + omega_derivative(x, j, q)
                if j0 is not None:
                    out = out - omega_derivative(x, j0, q)
            return np.asarray(out, dtype=float) + np.zeros_like(np.asarray(x, dtype=float))

        return f

    for l, j, j0, thr in tuples:
        f = f_callable(l, j, j0)
        res = sublevel_measure_loop(f, thr, b0, b1, grid=_FINE_GRID)
        flags.extend(f"{fl}@{l},{j},{j0}" for fl in res.flags)
        if not res.intervals:
            continue
        bound = russmann_bound(lambda x, q: f(x, q), thr, q0, b0, b1)
        for left, right in res.intervals:
            if right - left > bound:
                violations += 1
        for left, right in res.intervals:
            rows.append((l, j, j0, left, right, right - left))

    merged = merge_intervals([(r[3], r[4]) for r in rows])
    tau_used = spec.tau2 if spec.kind == "second-order-Melnikov" else spec.tau1
    tail, divergent = _tail_bound(sys.d, spec.Lmax, tau_used, q0)
    scale = spec.gamma ** spec.upsilon if spec.kind == "transport" else spec.gamma
    return ExcludedReport(
        kind=spec.kind,
        gamma=spec.gamma,
        total=float(sum(r - l for l, r in merged)),
        merged=merged,
        rows=sorted(rows, key=lambda r: (r[3], r[4])),
        tail_bound=tail if divergent else tail * scale ** (1.0 / q0),
        tail_divergent=divergent,
        russmann_violations=violations,
        flags=flags,
        profile={},
    )


def linear_cantor_measure(sys: FrequencySystem, gamma: float, tau: float,
                          Lmax: int = 20) -> float:
    """Surviving measure (b1 - b0) - |excluded| of the linearized conditions."""
    if gamma == 0.0:
        return sys.b1 - sys.b0
    spec = DiophantineSpec(gamma=gamma, tau1=tau, tau2=max(tau + 10.0, 13.0),
                           Lmax=Lmax, kind="first-order-Melnikov")
    rep = excluded_measure(sys, spec)
    return (sys.b1 - sys.b0) - rep.total


def measure_curve(sys, spec, gammas):
    """Excluded measure as a function of gamma, with a fitted power law."""
    reports = [excluded_measure(sys, replace(spec, gamma=float(g))) for g in gammas]
    gs = np.asarray(list(gammas), dtype=float)
    ms = np.array([rep.total for rep in reports])
    mask = ms > 0
    if np.count_nonzero(mask) >= 2:
        slope = float(np.polyfit(np.log(gs[mask]), np.log(ms[mask]), 1)[0])
    else:
        slope = math.nan
    return {"gammas": gs.tolist(), "measures": ms.tolist(),
            "fitted_exponent": slope, "reports": reports}
