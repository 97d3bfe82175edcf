"""Dense and loop references for the fast paths of the package (test-only).

Every integral int log A_r(theta, eta) w(theta, eta) deta is formed here from
the full M x M table w: the K1/K2 parts by gathering each row into the shifted
variable u = eta - theta and contracting its u-Fourier coefficients against
the multiplier coefficients, the smooth parts by row quadrature.  The package
computes the same integrals from rank-2 / column-block factorizations; these
functions are the independent path the tests compare against.

The operator references at the end are the plain loop forms of the
off-diagonal norm, the band product and its window projection, the Neumann
series of (Id + Psi)^{-1} in band space, and the shifted evaluation.
"""

import numpy as np

from vortexpatch.geometry import log_one_plus_P_half, log_v1, pair_trig
from vortexpatch.kam import NonReducibleError
from vortexpatch.spectral import (
    LinearOperatorMatrix,
    _mode_numbers,
    k1_multiplier_coeffs,
    k2_multiplier_coeffs,
    spectral_derivative,
    theta_grid,
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


def _pairwise(state):
    R, dR = state.R, state.dR()
    _, sd, cd, _ = pair_trig(state.M)
    return R[:, None], R[None, :], dR[:, None], dR[None, :], sd, cd


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
        col = -spectral_derivative(V * rho + nonlocal_L(state, rho) - smoothing_S(state, rho))
        entries[:, c] = np.fft.fft(col, norm="forward")[jmodes % M]
    return entries


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
    out = LinearOperatorMatrix(N, np.eye(2 * N, dtype=complex),
                               np.zeros((1, psi.d), dtype=int))
    term = neg = -1.0 * psi
    for _ in range(200):
        out = out + term
        if offdiag_norm(term, 0.0) <= tail:
            return out
        term = neg @ term
    raise NonReducibleError(f"Neumann series did not reach tail {tail:.3g} in 200 terms")


def evaluate_shifted(f, shift):
    """f(phi, theta + shift) as the full sum_m c_m exp(i m (theta + shift))."""
    vals = f.values
    M = vals.shape[-1]
    c = np.fft.fft(vals, axis=-1, norm="forward")
    angles = theta_grid(M) + shift
    phase = np.exp(1j * angles[..., None] * _mode_numbers(M))
    out = np.sum(c[..., None, :] * phase, axis=-1)
    return out.real if np.isrealobj(vals) else out
