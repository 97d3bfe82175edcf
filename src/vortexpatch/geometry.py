"""Patch-boundary geometry: R, the two-point kernels A_r, B_r, and their
smooth factorizations across the diagonal singularity.

A patch state is the pair (b, r) with boundary radius R(theta) =
sqrt(b^2 + 2 r(theta)).  The kernels

    A_r(theta, eta) = |R(theta) e^{i theta} - R(eta) e^{i eta}|
    B_r(theta, eta) = |1 - R(theta) R(eta) e^{i (eta - theta)}|

are evaluated through cancellation-free algebraic forms, and the log-singular
kernel A_r is factorized as

    A_r = 2 b |sin((eta - theta)/2)| * v1(theta, eta)

with the smooth factor v1 carried across the diagonal by the difference
quotient g(theta, eta) = (f(eta) - f(theta)) / sin((eta - theta)/2),
g(theta, theta) = 2 f'(theta).
"""

from __future__ import annotations

import functools

import numpy as np

from .spectral import (
    PeriodicField,
    _multiplier_matrix,
    _read_only,
    k1_multiplier_coeffs,
    k2_multiplier_coeffs,
    spectral_derivative,
    theta_grid,
)

__all__ = [
    "DegeneratePatchError",
    "BoundaryContactError",
    "PatchState",
    "kernel_P",
    "smooth_factor_v1",
    "log_v1",
    "log_one_plus_P_half",
    "eta_factors",
    "log_kernel_integrals",
]

#: patches must stay strictly inside the unit disc by this margin
DISC_MARGIN = 1e-6
#: relative safety margin below the positivity bound |r| < b^2/2
RADIUS_MARGIN = 1e-9


class DegeneratePatchError(ValueError):
    """The deformation r violates b^2 + 2r > 0 (R would not be real)."""


class BoundaryContactError(ValueError):
    """The patch touches the unit circle (log B_r would blow up)."""


class PatchState:
    """Radius parameter b plus deformation field r(theta); admissible and
    inside the disc by construction."""

    def __init__(self, b: float, r: PeriodicField):
        if not 0.0 < b < 1.0:
            raise ValueError("b must lie in (0, 1)")
        if r.dims != 1:
            raise ValueError("patch deformation must be a theta-only field")
        self.b = float(b)
        self.r = r
        rmax = float(np.max(np.abs(r.values)))
        bound = 0.5 * b * b
        if rmax >= bound * (1.0 - RADIUS_MARGIN):
            raise DegeneratePatchError(
                f"sup|r| = {rmax:.3e} reaches the positivity bound b^2/2 = {bound:.3e}"
            )
        self.R = np.sqrt(b * b + 2.0 * r.values)
        if not np.all(self.R > 0.0):
            raise DegeneratePatchError("boundary radius R fails positivity on the grid")
        self.max_R = float(np.max(self.R))
        if self.max_R > 1.0 - DISC_MARGIN:
            raise BoundaryContactError("patch touches the unit circle: max R > 1 - 1e-6")
        self.admissibility_ratio = rmax / bound  # sup|r|/(b^2/2)

    @property
    def M(self) -> int:
        return self.r.grid_sizes[0]

    @functools.cached_property
    def dr(self) -> np.ndarray:
        """d_theta r by spectral differentiation; computed once per state, read-only."""
        return _read_only(spectral_derivative(self.r.values))

    @functools.cached_property
    def dR(self) -> np.ndarray:
        """d_theta R = r'/R; computed once per state, read-only."""
        return _read_only(self.dr / self.R)

    @functools.cached_property
    def log_tables(self):
        """(log v1, (1/2) log(1 + P_r)): the smooth M x M parts of log A_r and
        log B_r, built once per state and shared by every integral over it."""
        return log_v1(self), log_one_plus_P_half(self)


@functools.lru_cache(maxsize=32)
def pair_trig(M: int):
    """Cached (delta, cos delta, sin(delta/2) with a unit diagonal) tables with
    delta[i, k] = theta_k - theta_i (eta minus theta); read-only.  The last is
    the divisor of the difference quotient."""
    th = theta_grid(M)
    delta = th[None, :] - th[:, None]
    s = np.sin(0.5 * delta)
    np.fill_diagonal(s, 1.0)  # placeholder, the quotient's diagonal is set apart
    return tuple(_read_only(t) for t in (delta, np.cos(delta), s))


@functools.lru_cache(maxsize=32)
def _grid_tables(M: int):
    """Cached (cos theta, sin theta) on the M-point grid; read-only."""
    th = theta_grid(M)
    return _read_only(np.cos(th)), _read_only(np.sin(th))


@functools.lru_cache(maxsize=8)
def _disc_tables(M: int, b: float):
    """Cached tables of one (M, b), read-only: B_0^2 = 1 + b^4 - 2 b^2 cos(eta - theta),
    and the 2 x M x M stack of the ``_multiplier_matrix`` of K1 and of K2.  The
    mean multiplier of K1 takes in the constant log(2b) of log A_r:
    -log 2 + log 2b = log b."""
    b2 = b ** 2
    B0sq = 1.0 + b2 * b2 - 2.0 * b2 * pair_trig(M)[1]
    k1 = k1_multiplier_coeffs(M).copy()
    k1[0] = np.log(b)
    K = np.stack([_multiplier_matrix(k1), _multiplier_matrix(k2_multiplier_coeffs(M, b))])
    return _read_only(B0sq), _read_only(K)


def kernel_P(state: PatchState) -> np.ndarray:
    """P_r with B_r^2 = B_0^2 (1 + P_r); P_0 = 0.

    P_r = ((R R)^2 - b^4 - 2 (R R - b^2) cos) / (1 + b^4 - 2 b^2 cos).
    """
    b2 = state.b ** 2
    # the quotient above, in its order of operations, on two M x M buffers
    prod = np.multiply.outer(state.R, state.R)
    num = prod * prod
    num -= b2 * b2
    prod -= b2
    prod *= 2.0
    prod *= pair_trig(state.M)[1]
    num -= prod
    num /= _disc_tables(state.M, state.b)[0]
    return num


def _difference_quotient(vals: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """g(theta, eta) = (vals(eta) - vals(theta))/sin((eta-theta)/2) off the
    diagonal and ``diag`` on it (2 f' for the difference quotient of f)."""
    g = vals[None, :] - vals[:, None]
    g /= pair_trig(len(vals))[2]
    np.fill_diagonal(g, diag)
    return g


def smooth_factor_v1(state: PatchState) -> np.ndarray:
    """The smooth factor v1 with A_r = 2 b |sin((eta-theta)/2)| v1.

    v1 = sqrt((g/(2b))^2 + R(theta) R(eta)/b^2) where g is the difference
    quotient of R, with the state's 2R' on the diagonal; there v1 is
    sqrt(R'^2 + R^2)/b.
    """
    b = state.b
    # sqrt((g/(2b))^2 + R(theta) R(eta)/b^2), formed in place on g
    v = _difference_quotient(state.R, 2.0 * state.dR)
    v /= 2.0 * b
    np.square(v, out=v)
    prod = np.multiply.outer(state.R, state.R)
    prod /= b * b
    v += prod
    return np.sqrt(v, out=v)


def log_v1(state: PatchState) -> np.ndarray:
    """log v1: the smooth part of log A_r = log(2b) + K1(eta-theta) + log v1."""
    v = smooth_factor_v1(state)
    return np.log(v, out=v)


def log_one_plus_P_half(state: PatchState) -> np.ndarray:
    """(1/2) log(1 + P_r): the smooth part of log B_r = K2(eta-theta) + (1/2)log(1+P_r)."""
    P = kernel_P(state)
    np.log1p(P, out=P)
    P *= 0.5
    return P


def eta_factors(state: PatchState) -> np.ndarray:
    """The M x 2 block [p, q], p = R' sin + R cos, q = R sin - R' cos.

    Expanding sin/cos(eta - theta) splits every two-point factor of F_b and
    V_r into a(theta) p(eta) + c(theta) q(eta).
    """
    c, s = _grid_tables(state.M)
    R, dR = state.R, state.dR
    return np.column_stack([dR * s + R * c, R * s - dR * c])


def log_kernel_integrals(state: PatchState, C: np.ndarray):
    """int log A_r(., eta) c(eta) deta and int log B_r(., eta) c(eta) deta for
    every column c of the M x k block C (real or complex).

    log A_r = log(2b) + K1(eta - theta) + log v1, log B_r = K2(eta - theta) +
    (1/2) log(1 + P_r): K1 (with the constant log(2b)) and K2 act as the cached
    real circulants of ``_disc_tables``, the smooth parts as the state's
    tables; four matrix products and no FFT.
    """
    M = state.M
    lv, lp = state.log_tables
    K1, K2 = _disc_tables(M, state.b)[1]
    return K1 @ C + (lv @ C) / M, K2 @ C + (lp @ C) / M
