"""Linearized boundary dynamics at a small state r.

The linearization of d_t r = -F_b[r] at r is the time-dependent system

    d_t rho = G_r rho,   G_r = -d_theta (V_r . + L_r - S_r)

with a variable transport coefficient V_r, the order-zero nonlocal operator
L_r rho = int rho(eta) log A_r(., eta) deta, and the smoothing operator
S_r rho = int rho(eta) log B_r(., eta) deta.  All log-singular integrals go
through the same multiplier split as the nonlinear functional: exact Fourier
coefficients for the difference kernels K1/K2, plain quadrature for the
smooth factors.

At r = 0 the generator is the Fourier multiplier e_j -> -i Omega_j(b) e_j
with Omega_j(b) = sgn(j)(|j| - 1 + b^(2|j|))/2.
"""

from __future__ import annotations

import numpy as np

from .geometry import PatchState, log_one_plus_P_half, log_v1, pair_trig
from .spectral import (
    LinearOperatorMatrix,
    PeriodicField,
    _fmt,
    k1_multiplier_coeffs,
    k2_multiplier_coeffs,
    shifted_kernel_integral,
    spectral_derivative,
    theta_grid,
)
from .spectrum import omega

__all__ = [
    "transport_coefficient",
    "nonlocal_L",
    "smoothing_S",
    "assemble",
    "equilibrium_multiplier",
    "operator_spectrum",
    "matrix_to_csv",
    "spectrum_to_csv",
]


def _eta_derivative_factor(state: PatchState) -> np.ndarray:
    """d/deta [R(eta) sin(eta - theta)] = R'(eta) sin(eta-theta) + R(eta) cos(eta-theta)."""
    _, sd, cd, _ = pair_trig(state.M)
    dR = state.dR()
    return dR[None, :] * sd + state.R[None, :] * cd


def _log_A_integral(state: PatchState, table: np.ndarray) -> np.ndarray:
    """int log(A_r(theta, eta)) w(theta, eta) deta via the K1 multiplier split."""
    M = state.M
    return (
        shifted_kernel_integral(table, k1_multiplier_coeffs(M))
        + np.log(2.0 * state.b) * table.mean(axis=1)
        + (log_v1(state) * table).mean(axis=1)
    )


def _log_B_integral(state: PatchState, table: np.ndarray) -> np.ndarray:
    """int log(B_r(theta, eta)) w(theta, eta) deta via the K2 multiplier split."""
    M = state.M
    return (
        shifted_kernel_integral(table, k2_multiplier_coeffs(M, state.b))
        + (log_one_plus_P_half(state) * table).mean(axis=1)
    )


def transport_coefficient(state: PatchState) -> PeriodicField:
    """V_r(theta): the variable coefficient of the transport part.

    Three integrals: the mean-square ratio, the log A_r channel, and the
    log B_r channel, each against d/deta [R(eta) sin(eta - theta)].
    At r = 0 they contribute -1/2 + 1/2 + 1/2 = 1/2.
    """
    state.require_inside_disc()
    R = state.R
    D1 = _eta_derivative_factor(state)
    V0 = -0.5 * np.mean(R ** 2) / R ** 2
    V1 = -_log_A_integral(state, D1) / R
    V2 = -_log_B_integral(state, D1) / R ** 3
    return PeriodicField(V0 + V1 + V2)


def nonlocal_L(state: PatchState, rho: PeriodicField) -> PeriodicField:
    """L_r(rho)(theta) = int rho(eta) log A_r(theta, eta) deta.

    The constant channel is log(b) * mean(rho): the K1 mean -log 2 combines
    with the explicit log(2b) of the kernel split.
    """
    state.require_inside_disc()
    M = state.M
    vals = np.broadcast_to(rho.values[None, :], (M, M))
    out = _log_A_integral(state, np.ascontiguousarray(vals))
    return PeriodicField(out)


def smoothing_S(state: PatchState, rho: PeriodicField) -> PeriodicField:
    """S_r(rho)(theta) = int rho(eta) log B_r(theta, eta) deta."""
    state.require_inside_disc()
    M = state.M
    vals = np.broadcast_to(rho.values[None, :], (M, M))
    out = _log_B_integral(state, np.ascontiguousarray(vals))
    return PeriodicField(out)


def equilibrium_multiplier(b: float, j: int) -> complex:
    """Multiplier of the equilibrium generator on e_j: -i Omega_j(b)."""
    if j == 0:
        raise ValueError("the mean channel is outside the phase space (j != 0)")
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0, 1)")
    return complex(-1j * omega(b, j))


def _apply_generator(state: PatchState, rho_values: np.ndarray) -> np.ndarray:
    """G_r rho = -d_theta (V_r rho + L_r rho - S_r rho) on (possibly complex) samples."""
    M = state.M
    V = transport_coefficient(state).values
    table = np.ascontiguousarray(np.broadcast_to(rho_values[None, :], (M, M)))
    Lr = _log_A_integral(state, table)
    Sr = _log_B_integral(state, table)
    total = V * rho_values + Lr - Sr
    return -spectral_derivative(total)


def assemble(state: PatchState, N: int) -> LinearOperatorMatrix:
    """Matrix of the generator on zero-mean modes |j| <= N, column by column."""
    state.require_inside_disc()
    M = state.M
    if N < 1:
        raise ValueError("truncation must be >= 1")
    if N > M // 3:
        raise ValueError(f"truncation N={N} too large for grid M={M} (need N <= M/3)")
    th = theta_grid(M)
    jmodes = np.concatenate([np.arange(-N, 0), np.arange(1, N + 1)])
    entries = np.zeros((2 * N, 2 * N), dtype=complex)
    for c, j0 in enumerate(jmodes):
        col = _apply_generator(state, np.exp(1j * j0 * th))
        chat = np.fft.fft(col, norm="forward")
        for a, j in enumerate(jmodes):
            entries[a, c] = chat[j % M]
    return LinearOperatorMatrix(N, entries)


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
    lines = ["j,j0,re,im"]
    for a, j in enumerate(op.jmodes):
        for c, j0 in enumerate(op.jmodes):
            v = op.entries[0, a, c]
            lines.append(f"{int(j)},{int(j0)},{_fmt(v.real)},{_fmt(v.imag)}")
    return "\n".join(lines) + "\n"


def spectrum_to_csv(op: LinearOperatorMatrix) -> str:
    """Eigenvalues (j, re lambda, im lambda)."""
    lines = ["j,re_lambda,im_lambda"]
    for j, lam in operator_spectrum(op):
        lines.append(f"{j},{_fmt(lam.real)},{_fmt(lam.imag)}")
    return "\n".join(lines) + "\n"
