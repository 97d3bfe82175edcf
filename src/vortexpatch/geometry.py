"""Patch-boundary geometry: R, the two-point kernels A_r, B_r, and their
smooth factorizations across the diagonal singularity.

A patch state is the pair (b, r) with boundary radius R(theta) =
sqrt(b^2 + 2 r(theta)).  The kernels

    A_r(theta, eta) = |R(theta) e^{i theta} - R(eta) e^{i eta}|
    B_r(theta, eta) = |1 - R(theta) R(eta) e^{i (eta - theta)}|

are evaluated through cancellation-free algebraic forms.  With the singular
K1(u) = log|sin(u/2)| and the image kernel K2(u) = log|1 - b^2 e^{iu}|,

    log A_r = log 2 + K1(eta - theta) + T0 / 2,   T0 = log(b^2 v1^2),
    log B_r = K2(eta - theta) + T1 / 2,           T1 = log(1 + P_r),

where A_r = 2 b |sin((eta - theta)/2)| v1 and B_r^2 = B_0^2 (1 + P_r).  The
smooth factor b v1 is carried across the diagonal by the difference quotient
(R(eta) - R(theta)) / (2 sin((eta - theta)/2)), R'(theta) on the diagonal.
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
    "smooth_log_tables",
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
        # ndarray methods, not np.max/np.all: the same checks with about half the
        # call overhead, paid on every RK4 stage
        rmax = float(np.abs(r.values).max())
        bound = 0.5 * b * b
        if rmax >= bound * (1.0 - RADIUS_MARGIN):
            raise DegeneratePatchError(
                f"sup|r| = {rmax:.3e} reaches the positivity bound b^2/2 = {bound:.3e}"
            )
        self.R = np.sqrt(b * b + 2.0 * r.values)
        if not (self.R > 0.0).all():
            raise DegeneratePatchError("boundary radius R fails positivity on the grid")
        self.max_R = float(self.R.max())
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
        """The 2 x M x M stack ``smooth_log_tables(self)``, built once per state
        and shared by every integral over it."""
        return smooth_log_tables(self)


def _pair_delta(M: int) -> np.ndarray:
    """delta[i, k] = theta_k - theta_i (eta minus theta) on the M-point grid."""
    th = theta_grid(M)
    return th[None, :] - th[:, None]


@functools.lru_cache(maxsize=32)
def pair_trig(M: int):
    """Cached tables of the pair angle delta = eta - theta, read-only: sin(delta/2)
    with a unit diagonal (the divisor of the difference quotient) and the
    ``_multiplier_matrix`` of log 2 + K1, whose mean multiplier -log 2 + log 2 is 0."""
    s = np.sin(0.5 * _pair_delta(M))
    np.fill_diagonal(s, 1.0)  # placeholder, the quotient's diagonal is set apart
    k1 = k1_multiplier_coeffs(M).copy()
    k1[0] = 0.0
    return _read_only(s), _read_only(_multiplier_matrix(k1))


@functools.lru_cache(maxsize=32)
def _grid_tables(M: int):
    """Cached (e^{i theta}, e^{-2 i theta}) on the M-point grid; read-only."""
    th = theta_grid(M)
    return _read_only(np.exp(1j * th)), _read_only(np.exp(-2j * th))


@functools.lru_cache(maxsize=8)
def _disc_tables(M: int, b: float):
    """Cached tables of one (M, b), read-only: B_0^2 = 1 + b^4 - 2 b^2 cos(eta - theta),
    b^2 - 2 cos(eta - theta), and the ``_multiplier_matrix`` of K2."""
    b2 = b ** 2
    cos = np.cos(_pair_delta(M))
    B0sq = 1.0 + b2 * b2 - 2.0 * b2 * cos
    return tuple(_read_only(t) for t in (
        B0sq, b2 - 2.0 * cos, _multiplier_matrix(k2_multiplier_coeffs(M, b))))


def smooth_log_tables(state: PatchState) -> np.ndarray:
    """The smooth parts T0, T1 of 2 log A_r and 2 log B_r as one 2 x M x M stack:

        log A_r = log 2 + K1(eta - theta) + T0 / 2,
        T0 = log((dR / (2 sin((eta - theta)/2)))^2 + R(theta) R(eta)),
        log B_r = K2(eta - theta) + T1 / 2,
        T1 = log(1 + P_r),  P_r = (R R - b^2)(R R + b^2 - 2 cos) / B_0^2,

    with dR = R(eta) - R(theta), so that B_r^2 = B_0^2 (1 + P_r), and R' on the
    diagonal of the quotient.  (T0 / 2 is log b + log v1 with A_r = 2 b
    |sin((eta - theta)/2)| v1.)  Eleven M x M passes on the stack and one temporary.
    """
    M, b2, R = state.M, state.b ** 2, state.R
    B0sq, shift, _ = _disc_tables(M, state.b)
    T = np.empty((2, M, M))
    t0, t1 = T
    half = 0.5 * R
    np.subtract(half[None, :], half[:, None], out=t0)
    t0 /= pair_trig(M)[0]
    np.fill_diagonal(t0, state.dR)
    np.square(t0, out=t0)
    np.multiply.outer(R, R, out=t1)
    t0 += t1
    np.log(t0, out=t0)
    # P_r on t1 with the factor R R + b^2 - 2 cos in one temporary
    factor = np.add(t1, shift)
    t1 -= b2
    t1 *= factor
    t1 /= B0sq
    np.log1p(t1, out=t1)
    return _read_only(T)


def eta_factors(state: PatchState) -> np.ndarray:
    """The M x 2 block [p, q], p = R' sin + R cos, q = R sin - R' cos: the real
    view of the column z = p + i q = (R - i R') e^{i theta}.

    Expanding sin/cos(eta - theta) splits every two-point factor of F_b and
    V_r into a(theta) p(eta) + c(theta) q(eta).
    """
    z = (state.R - 1j * state.dR) * _grid_tables(state.M)[0]
    return z.view(float).reshape(state.M, 2)


def log_kernel_integrals(state: PatchState, C: np.ndarray) -> np.ndarray:
    """The 2 x M x k stack of int log A_r(., eta) c(eta) deta and int log B_r(.,
    eta) c(eta) deta for every column c of the M x k block C (real or complex).

    log A_r = log 2 + K1(eta - theta) + T0 / 2 and log B_r = K2(eta - theta) +
    T1 / 2: the stack (T0, T1) acts as one batched product with the 1/2 in its
    scale 0.5/M, log 2 + K1 and K2 as the cached real circulants of ``pair_trig``
    and ``_disc_tables``; three matrix products and no FFT.
    """
    M = state.M
    out = state.log_tables @ C
    out *= 0.5 / M
    out[0] += pair_trig(M)[1] @ C
    out[1] += _disc_tables(M, state.b)[2] @ C
    return out
