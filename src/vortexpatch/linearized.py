"""Linearized boundary dynamics at a small state r.

The linearization of d_t r = -F_b[r] at r is the time-dependent system

    d_t rho = G_r rho,   G_r = -d_theta (V_r . + L_r - S_r)

with a variable transport coefficient V_r, the order-zero nonlocal operator
L_r rho = int rho(eta) log A_r(., eta) deta, and the smoothing operator
S_r rho = int rho(eta) log B_r(., eta) deta.  All three go through
``geometry.log_kernel_integrals`` (K1/K2 as cached circulant matrices, the
matrix form of their Fourier multipliers, and the smooth tables T0, T1 of
log A_r = log 2 + K1 + T0/2 and log B_r = K2 + T1/2 as one batched product);
V_r integrates against the rank-2 factor
d/deta [R(eta) sin(eta - theta)] = cos(theta) p(eta) + sin(theta) q(eta),
the real part of e^{-i theta} (p + i q)(eta).  Since K * e_j = khat(j) e_j,
``assemble`` needs one V_r, one build of the table stack (read as
(T0 - T1) 0.5/M) and one M x M @ M x 2N product for the whole matrix.

At r = 0 the generator is the Fourier multiplier e_j -> -i Omega_j(b) e_j
with Omega_j(b) = sgn(j)(|j| - 1 + b^(2|j|))/2.
"""

from __future__ import annotations

import numpy as np

from .geometry import PatchState, _grid_tables, eta_factors, log_kernel_integrals
from .spectral import (
    LinearOperatorMatrix,
    PeriodicField,
    _csv,
    _jmodes,
    k1_multiplier_coeffs,
    k2_multiplier_coeffs,
    theta_grid,
)

__all__ = [
    "transport_coefficient",
    "assemble",
    "operator_spectrum",
    "matrix_to_csv",
    "spectrum_to_csv",
]


def transport_coefficient(state: PatchState) -> PeriodicField:
    """V_r(theta): the variable coefficient of the transport part.

    Three integrals: the mean-square ratio, the log A_r channel, and the
    log B_r channel, each against d/deta [R(eta) sin(eta - theta)].
    At r = 0 they contribute -1/2 + 1/2 + 1/2 = 1/2.
    """
    R = state.R
    L_A, L_B = log_kernel_integrals(state, eta_factors(state)).view(complex)[..., 0]
    V0 = -0.5 * np.mean(R ** 2) / R ** 2
    V12 = -(_grid_tables(state.M)[0].conj() * (L_A / R + L_B / R ** 3)).real
    return PeriodicField(V0 + V12)


def assemble(state: PatchState, N: int) -> LinearOperatorMatrix:
    """Matrix of the generator G_r = -d_theta (V_r + L_r - S_r) on the
    zero-mean modes |j| <= N; entry [a, c] is the e_{j_a} coefficient of G_r e_{j_c}.

    On e_j the mean vanishes and K1, K2 are the multipliers khat(j), so
    (L_r - S_r) e_j = (k1hat(j) - k2hat(j)) e_j + ((T0 - T1) @ e_j) 0.5/M.
    """
    M = state.M
    if N < 1:
        raise ValueError("truncation must be >= 1")
    if N > M // 3:
        raise ValueError(f"truncation N={N} too large for grid M={M} (need N <= M/3)")
    jmodes = _jmodes(N)
    rows = jmodes % M
    E = np.exp(1j * np.outer(theta_grid(M), jmodes))
    V = transport_coefficient(state).values
    T0, T1 = state.log_tables
    khat = k1_multiplier_coeffs(M)[rows] - k2_multiplier_coeffs(M, state.b)[rows]
    total = (V[:, None] + khat) * E + ((T0 - T1) @ E) * (0.5 / M)
    chat = np.fft.fft(total, axis=0, norm="forward")[rows]
    return LinearOperatorMatrix(N, (-1j * jmodes[:, None] * chat)[None], np.zeros((1, 0), int))


def operator_spectrum(op: LinearOperatorMatrix):
    """Eigenvalues of the assembled generator, labeled by the dominant mode.

    Returns a list of (j, eigenvalue) sorted by j; each eigenvalue is tagged
    with the Fourier mode carrying the largest weight in its eigenvector.
    """
    vals, vecs = np.linalg.eig(op.entries[0])
    out = []
    used = set()
    order = np.argsort(-np.abs(vecs).max(axis=0))
    for k in order:
        weights = np.abs(vecs[:, k])
        for a in np.argsort(-weights):
            j = int(op.jmodes[a])
            if j not in used:
                used.add(j)
                out.append((j, complex(vals[k])))
                break
    out.sort(key=lambda t: t[0])
    return out


def matrix_to_csv(op: LinearOperatorMatrix) -> str:
    """Dense complex entries: one row per (j, j0) pair with re/im columns."""
    return _csv("j,j0,re,im", [(j, j0, v.real, v.imag)
                               for j, row in zip(op.jmodes, op.entries[0])
                               for j0, v in zip(op.jmodes, row)])


def spectrum_to_csv(op: LinearOperatorMatrix) -> str:
    """Eigenvalues (j, re lambda, im lambda)."""
    return _csv("j,re_lambda,im_lambda",
                [(j, lam.real, lam.imag) for j, lam in operator_spectrum(op)])
