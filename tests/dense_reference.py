"""Dense reference for the log-kernel integrals (test-only).

Every integral int log A_r(theta, eta) w(theta, eta) deta is formed here from
the full M x M table w: the K1/K2 parts by gathering each row into the shifted
variable u = eta - theta and contracting its u-Fourier coefficients against
the multiplier coefficients, the smooth parts by row quadrature.  The package
computes the same integrals from rank-2 / column-block factorizations; these
functions are the independent path the tests compare against.
"""

import numpy as np

from vortexpatch.geometry import log_one_plus_P_half, log_v1, pair_trig
from vortexpatch.spectral import (
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
