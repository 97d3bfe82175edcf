"""Contour dynamics of the patch boundary.

The boundary deformation r(t, theta) obeys the nonlocal transport equation
d_t r + F_b[r] = 0 with F_b = -F0 - F1 + F2:

    F0 = (1/2) d_theta(r)(theta) int_T R^2(eta)/R^2(theta) deta
    F1 = int_T log(A_r) d2/(dtheta deta)[R(theta) R(eta) sin(eta-theta)] deta
    F2 = int_T log(B_r) d2/(dtheta deta)[(R(eta)/R(theta)) sin(eta-theta)] deta

Both mixed derivatives are rank 2: with p = R' sin + R cos, q = R sin - R' cos
they are -q(theta) p(eta) + p(theta) q(eta) and b_p(theta) p(eta) + b_q(theta) q(eta),
b_p = -(R sin + R' cos)/R^2, b_q = (R cos - R' sin)/R^2.  So F1 and F2 need only
log A_r and log B_r integrated against p and q (``log_kernel_integrals``), with
log A_r = log 2 + K1 + T0/2 and log B_r = K2 + T1/2: log 2 + K1 (K1 the
singular kernel) and the image kernel K2 act as cached real circulant
matrices, the matrix form of their Fourier multipliers, and the smooth tables
T0, T1 of the state as one 2 x M x M stack (one batched product).  In the
complex column z = p + i q = (R - i R') e^{i theta}, -F1 + F2 is one imaginary
part (``velocity_functional``).

The kinetic energy

    E(r) = int_T int_T [ int_0^{R(theta)} int_0^{R(eta)}
              G(l1 e^{i theta}, l2 e^{i eta}) l1 l2 dl2 dl1 ] dtheta deta,
    G(w, xi) = log|w - xi| - log|1 - w conj(xi)|,

is evaluated by a closed form of the radial double integral per angle pair
(kernel Phi below; the surviving series converge geometrically since the
patch stays inside the unit disc) followed by the plain double grid average,
plus an explicit correction for the leading 1/M^2 angular aliasing caused by
the |Delta|-kink of Phi on the diagonal.  The boundary stream function and
the energy gradient nabla E = 2 Psi come from the same closed forms, so the
discrete gradient is the exact derivative of the discrete energy.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .geometry import (
    RADIUS_MARGIN,
    BoundaryContactError,
    DegeneratePatchError,
    PatchState,
    _grid_tables,
    eta_factors,
    log_kernel_integrals,
)
from .spectral import (
    PeriodicField,
    _csv,
    _mode_numbers,
    _multiplier_matrix,
    _read_only,
    sobolev_norm,
    theta_grid,
)

__all__ = [
    "velocity_functional",
    "energy",
    "hamiltonian",
    "stream_gradient",
    "EvolutionConfig",
    "Trajectory",
    "simulate",
    "quasi_periodic_seed",
    "extract_frequencies",
    "NoFrequencyError",
    "dealias",
    "trajectory_to_csv",
    "trajectory_summary",
]


# ---------------------------------------------------------------------------
# velocity functional
# ---------------------------------------------------------------------------

def velocity_functional(state: PatchState) -> PeriodicField:
    """F_b[r] on the state's grid: with z = p + i q = (R - i R') e^{i theta} and
    the integrals L_A, L_B of log A_r, log B_r against z,
    -F1 + F2 = Im(e^{-2 i theta} z L_B / R^2 - conj(z) L_A)."""
    R2 = state.R ** 2
    pq = eta_factors(state)
    z = pq.view(complex)[:, 0]
    L_A, L_B = log_kernel_integrals(state, pq).view(complex)[..., 0]
    G = z * _grid_tables(state.M)[1] * L_B / R2 - z.conj() * L_A
    F0 = 0.5 * state.dr * (R2.sum() / state.M) / R2  # the mean, without np.mean's overhead
    return PeriodicField(G.imag - F0)


# ---------------------------------------------------------------------------
# closed-form radial kernels for the energy
# ---------------------------------------------------------------------------

_NEAR_ONE = 1e-9
_ROW_BLOCK = 32  # rows of the psi table evaluated at once: 128 KB complex at M = 256


def _SA(z, lg):
    """sum_{m>=1, m!=2} z^m / m = -log(1-z) - z^2/2; ``lg`` is log(1-z)."""
    return -lg - 0.5 * z * z


def _SB(z, lg):
    """sum_{m>=1, m!=2} z^m / (2-m) = z + z^2 log(1-z); ``lg`` is log(1-z)."""
    return z + z * z * lg


def _series(z, denominators):
    """sum_{m>=1} z^m / denominators[m-1]; a zero denominator drops its term.

    Each term multiplies by the real 1/den, which is how numpy divides a
    complex array by a real number, so the sum is that of the quotients."""
    acc = np.zeros_like(z)
    zp = np.ones_like(z)
    term = np.empty_like(z)
    for den in denominators:
        np.multiply(zp, z, out=zp)
        if den:
            acc += np.multiply(zp, 1.0 / den, out=term)
    return acc


def _SC(z, lg):
    """sum_{m>=1, m!=2} z^m / (m+2).

    Closed form (-log(1-z) - z - z^2/2)/z^2 - z^2/4 for moderate |z|; a
    direct series on the entries with small |z|, where the closed form
    cancels catastrophically.  ``lg`` is log(1-z) on every entry.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < 0.5
    big = ~small
    zz = z[big]
    # (-log(1-zz) - zz - 0.5 zz zz) / (zz zz) - 0.25 zz zz, formed in place
    w = lg[big]  # a copy: boolean indexing
    np.negative(w, out=w)
    w -= zz
    t = 0.5 * zz
    t *= zz
    w -= t
    w /= np.multiply(zz, zz, out=t)
    np.multiply(0.25, zz, out=t)
    t *= zz
    w -= t
    out[big] = w
    out[small] = _series(z[small], [0 if m == 2 else m + 2 for m in range(1, 61)])
    return out


def _Fmm2(z):
    """sum_{m>=1} z^m / (m(m+2)); value 3/4 at z = 1."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    one = np.abs(1.0 - z) < _NEAR_ONE
    small = np.abs(z) < 0.5
    big = ~(one | small)
    zz = z[big]
    L = -np.log(1.0 - zz)
    out[big] = 0.5 * (L - (L - zz - 0.5 * zz * zz) / (zz * zz))
    out[small] = _series(z[small], [m * (m + 2) for m in range(1, 61)])
    out[one] = 0.75
    return out


def _T3(y):
    """Re sum_{m>=1} y^m / (m (m+2)^2), adaptively truncated.

    The energy passes y = R(theta) R(eta) e^{i Delta}, so 0 < |y| <= (1 - 1e-6)^2
    for every ``PatchState``.  The sum runs until max|y|^m <= 1e-18, with at
    least 10 and at most 30,000 terms.  The cap binds from max|y| >= 0.99862
    on; at max R = 1 - 1e-6 the dropped tail is about 5e-10.
    """
    y = np.asarray(y, dtype=complex)
    amax = float(np.max(np.abs(y)))
    mmax = int(np.ceil(np.log(1e-18) / np.log(amax)))
    mmax = min(max(mmax, 10), 30000)
    acc = np.zeros(y.shape)
    yp = np.ones_like(y)
    term = np.empty(y.shape)
    for m in range(1, mmax + 1):
        np.multiply(yp, y, out=yp)
        acc += np.divide(yp.real, m * (m + 2) ** 2, out=term)
    return acc


def _delta_terms(delta):
    """The Delta-only factors of Phi and psi: (e^{i Delta}, cos 2 Delta,
    Re(S_B + S_C)(e^{i Delta})), the last with its w = 1 limit -3/4."""
    delta = np.asarray(delta, float)
    eid = np.exp(1j * delta)
    wone = np.abs(1.0 - eid) < _NEAR_ONE
    ws = np.where(wone, 0.0, eid)
    lg = np.log(1.0 - ws)  # one log(1 - w) for S_B and S_C
    return eid, np.cos(2.0 * delta), np.where(wone, -0.75, (_SB(ws, lg) + _SC(ws, lg)).real)


@functools.lru_cache(maxsize=32)
def _triangle(M: int):
    """The pairs i <= k (``np.triu_indices(M)``) and ``_delta_terms`` of
    Delta = theta_k - theta_i on them; cached per M, hence read-only.
    Delta[k, i] = -Delta[i, k] exactly, so below the diagonal e^{i Delta} is
    conjugated and the two real terms are the same."""
    iu = np.triu_indices(M)
    th = theta_grid(M)
    terms = _delta_terms(th[iu[1]] - th[iu[0]])
    return tuple(_read_only(a) for a in iu), tuple(_read_only(t) for t in terms)


def _mirror(M: int, upper, lower):
    """The M x M table with ``upper`` on the pairs i <= k and ``lower`` at their
    mirrors (k, i).  The mirror is written first, so the diagonal holds ``upper``."""
    i, k = _triangle(M)[0]
    full = np.empty((M, M), dtype=upper.dtype)
    full[k, i] = lower
    full[i, k] = upper
    return full


@functools.lru_cache(maxsize=32)
def _delta_tables(M: int):
    """``_delta_terms`` on the pair grid theta_k - theta_i, mirrored from ``_triangle``."""
    eid, cos2, sbc = _triangle(M)[1]
    return tuple(_read_only(t) for t in (
        _mirror(M, eid, eid.conj()), _mirror(M, cos2, cos2), _mirror(M, sbc, sbc)))


def _phi_kernel(rho1, rho2, terms):
    """Phi(rho1, rho2, Delta): the radial double integral of G against l1 l2.

    ``terms`` is ``_delta_terms(Delta)``.  Each M x M temporary is dropped as
    soon as its last term is formed.
    """
    eid, cos2, sbc = terms
    rho = np.minimum(rho1, rho2)
    sig = np.maximum(rho1, rho2)
    rs = rho * sig
    r2s2 = rs ** 2
    term3 = r2s2 * _T3(rs * eid)
    del rs
    r4 = rho ** 4
    lq = np.log(sig / rho)  # = -log q >= 0

    term1 = 0.25 * r2s2 * np.log(sig) - 0.125 * r2s2 + r4 / 16.0

    z = (rho / sig) * eid
    del rho, sig
    zdiag = np.abs(1.0 - z) < _NEAR_ONE
    zs = np.where(zdiag, 0.0, z)
    del z
    # one log(1 - z) for S_A, S_B and S_C; each real part is folded into PA
    # as it is formed, so no two complex M x M results are alive at once
    lg = np.log(1.0 - zs)
    PA = _SA(zs, lg).real / 4.0
    PA += _SB(zs, lg).real / 8.0
    PA -= _SC(zs, lg).real / 8.0
    del zs, lg
    S2 = r2s2 * PA - 0.125 * r4 * sbc + cos2 * r4 * (lq + 0.5) / 8.0
    S2 = np.where(zdiag, 0.375 * r4, S2)
    return term1 - S2 + term3


def _psi_kernel(rho1, rho2, terms):
    """psi = int_0^{rho2} G(rho1, l' e^{i Delta}) l' dl' (so dPhi/drho1 = rho1 psi).

    ``terms`` is ``_delta_terms(Delta)``.  Each branch is evaluated on its own
    entries only, and its temporaries are dropped before the next one starts.
    """
    rho1, rho2, eid, cos2, sbc = np.broadcast_arrays(
        np.asarray(rho1, float), np.asarray(rho2, float), *terms)
    # image part: -int log|1 - rho1 l' e^{i Delta}| l' dl'
    part2 = rho2 ** 2 * _Fmm2(rho1 * rho2 * eid).real
    out = np.empty(rho1.shape)

    # -- rho2 <= rho1: integration stays below the evaluation radius
    le = rho2 <= rho1
    r1, r2 = rho1[le], rho2[le]
    piece1 = 0.5 * np.log(r1) * r2 ** 2
    series = -(r2 ** 2) * _Fmm2((r2 / r1) * eid[le]).real
    out[le] = piece1 + series
    del r1, r2, piece1, series
    # -- rho2 > rho1
    gt = ~le
    r1, r2 = rho1[gt], rho2[gt]
    v = (r1 / r2) * eid[gt]
    piece1 = 0.5 * r2 ** 2 * np.log(r2) - 0.25 * r2 ** 2 + 0.25 * r1 ** 2
    vone = np.abs(1.0 - v) < _NEAR_ONE
    vs = np.where(vone, 0.0, v)
    del v
    lg = np.log(1.0 - vs)
    AB = _SA(vs, lg)
    AB += _SB(vs, lg)
    del vs, lg
    AB = np.where(vone, 0.5, AB.real)
    series = -(
        0.5 * r2 ** 2 * AB
        - 0.5 * r1 ** 2 * sbc[gt]
        + 0.5 * cos2[gt] * r1 ** 2 * (0.25 + np.log(r2 / r1))
    )
    out[gt] = piece1 + series
    return out + part2


@functools.lru_cache(maxsize=64)
def _alias_tail_sum(M: int) -> float:
    """sum_{p>=1} 1/(pM (pM + 2)) — the aliased tail weights of the Phi series.

    Direct sum up to P, then the integral of the summand from P + 1/2
    (midpoint rule in reverse; the residual is O(P^-3 M^-2), negligible).
    """
    P = 512
    p = np.arange(1, P + 1, dtype=float)
    head = float(np.sum(1.0 / (p * M * (p * M + 2.0))))
    x = (P + 0.5) * M
    tail = np.log1p(2.0 / x) / (2.0 * M)  # = int_{P+1/2}^inf dp/(pM(pM+2))
    return head + tail


def energy(state: PatchState) -> float:
    """Kinetic energy E(r); the radial integrals are evaluated in closed form.  Phi
    is symmetric bit for bit, so it is evaluated on the pairs i <= k and mirrored."""
    R = state.R
    (i, k), terms = _triangle(state.M)
    upper = _phi_kernel(R[i], R[k], terms)
    table = _mirror(state.M, upper, upper)
    # extended-precision accumulation: the M^2-term sum is the only place
    # where rounding noise would be visible in drift diagnostics
    mean = np.sum(table, dtype=np.longdouble) / table.size
    correction = 0.5 * np.mean(R ** 4) * _alias_tail_sum(state.M)
    return float(mean + correction)


def hamiltonian(state: PatchState) -> float:
    """H(r) = -E(r)/2."""
    return -0.5 * energy(state)


def stream_gradient(state: PatchState) -> PeriodicField:
    """nabla E(theta) = 2 Psi(R(theta) e^{i theta}) with the matching alias correction."""
    R = state.R
    tables = _delta_tables(state.M)
    means = np.empty(state.M)
    for lo in range(0, state.M, _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        means[rows] = _psi_kernel(R[rows, None], R, [t[rows] for t in tables]).mean(axis=1)
    grad = 2.0 * means + 2.0 * R ** 2 * _alias_tail_sum(state.M)
    return PeriodicField(grad)


# ---------------------------------------------------------------------------
# time integration
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _dealias_projector(M: int) -> np.ndarray:
    """The real M x M projector onto the modes |j| <= M // 3 that the 2/3 rule
    keeps; cached per M, hence read-only."""
    return _read_only(_multiplier_matrix((np.abs(_mode_numbers(M)) <= M // 3).astype(float)))


def dealias(values: np.ndarray) -> np.ndarray:
    """2/3-rule truncation of a theta-only sample vector, as one matrix product."""
    return _dealias_projector(len(values)) @ values


_SOBOLEV_S = 2.0  # order s of the H^s norm recorded with each snapshot


@dataclass
class EvolutionConfig:
    dt: float
    T: float
    record_stride: int
    track_modes: tuple

    def __post_init__(self):
        if not (math.isfinite(self.dt) and math.isfinite(self.T)):
            raise ValueError("dt and T must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T < self.dt:
            raise ValueError("final time must be at least one step")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"final time T = {self.T!r} is not a whole number of "
                             f"steps dt = {self.dt!r} (T/dt = {steps!r})")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if len(set(self.track_modes)) != len(self.track_modes):
            raise ValueError(f"track modes {list(self.track_modes)} repeat a mode")

    def check_grid(self, M: int):
        """Refuse a track mode |j| > M // 3: ``dealias`` keeps no other mode on a
        grid of M, and above M / 2 the probe exp(-i j theta) reads an alias."""
        outside = [j for j in self.track_modes if abs(j) > M // 3]
        if outside:
            raise ValueError(f"track modes {outside} are not in |j| <= {M // 3}, the modes "
                             f"that the 2/3 rule keeps on a grid of {M}")


@dataclass
class Trajectory:
    b: float
    config: EvolutionConfig
    times: np.ndarray
    snapshots: list
    means: list
    hamiltonians: list
    hs_norms: list
    mode_series: dict  # j -> hat r_j at every step: sample n sits at t = n dt
    aborted: bool
    abort_reason: str
    profile: dict


def _rhs(b: float, values: np.ndarray) -> np.ndarray:
    # The 2/3 projection is part of the integrated vector field (not only a
    # post-step cleanup): with band-limited initial data every RK4 stage then
    # stays in the resolved subspace and the discrete system is a fixed smooth
    # ODE, so time-refinement keeps the full fourth-order rate.
    st = PatchState(b, PeriodicField(values))
    return -dealias(velocity_functional(st).values)


def _rk4_increment(rhs, r: np.ndarray, dt: float) -> np.ndarray:
    """The classical RK4 increment (dt/6)(k1 + 2 k2 + 2 k3 + k4) of d_t r = rhs(r)."""
    k1 = rhs(r)
    k2 = rhs(r + 0.5 * dt * k1)
    k3 = rhs(r + 0.5 * dt * k2)
    k4 = rhs(r + dt * k3)
    return (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulate(state: PatchState, config: EvolutionConfig) -> Trajectory:
    """RK4 run of d_t r = -F_b[r], recording the state (with H and the H^s norm)
    at t = 0, every ``record_stride`` steps and at T; ``traj.profile`` counts RHS
    and energy evaluations, the largest sup|r|/(b^2/2) and max R of the
    accepted states, and the seconds spent stepping and on diagnostics.  A step
    whose stages or result ``PatchState`` refuses ends the run with ``aborted``."""
    config.check_grid(state.M)
    b = state.b
    dt = config.dt
    nsteps = int(round(config.T / dt))
    th = theta_grid(state.M)
    probes = {j: np.exp(-1j * j * th) for j in config.track_modes}
    prof = dict(rhs_evaluations=0, energy_evaluations=0, max_admissibility_ratio=0.0,
                max_R=0.0, stepping_s=0.0, diagnostics_s=0.0)
    times, snapshots, means, hamiltonians, hs_norms = [], [], [], [], []
    series = {j: [] for j in config.track_modes}
    aborted, abort_reason = False, ""

    def rhs(values):
        out = _rhs(b, values)
        prof["rhs_evaluations"] += 1
        return out

    def record(t, st):
        times.append(t)
        snapshots.append(st.r.values.copy())
        means.append(float(st.r.values.mean()))
        t0 = time.perf_counter()
        hamiltonians.append(hamiltonian(st))
        hs_norms.append(sobolev_norm(st.r, _SOBOLEV_S))
        prof["energy_evaluations"] += 1
        prof["diagnostics_s"] += time.perf_counter() - t0

    def observe(st):
        for j in config.track_modes:
            series[j].append(complex(np.mean(st.r.values * probes[j])))
        prof["max_admissibility_ratio"] = max(prof["max_admissibility_ratio"],
                                              st.admissibility_ratio)
        prof["max_R"] = max(prof["max_R"], st.max_R)

    # Each step adds the classical RK4 increment with compensated (Kahan)
    # accumulation, which only matters for long drift diagnostics, and no
    # post-step 2/3 truncation: the right-hand side is already projected, so
    # with band-limited initial data that truncation is the identity and would
    # only inject FFT round-trip noise.
    r = dealias(state.r.values)
    comp = np.zeros_like(r)
    current = PatchState(b, PeriodicField(r))
    record(0.0, current)
    observe(current)
    for n in range(1, nsteps + 1):
        t0 = time.perf_counter()
        try:
            y = _rk4_increment(rhs, r, dt) - comp
            rn = r + y
            comp = (rn - r) - y
            r = rn
            current = PatchState(b, PeriodicField(r))
        except (DegeneratePatchError, BoundaryContactError) as exc:
            aborted, abort_reason = True, str(exc)
            break
        finally:
            prof["stepping_s"] += time.perf_counter() - t0
        t = n * dt
        observe(current)
        if n % config.record_stride == 0 or n == nsteps:
            record(t, current)

    return Trajectory(b=b, config=config, times=np.array(times), snapshots=snapshots,
                      means=means, hamiltonians=hamiltonians, hs_norms=hs_norms,
                      mode_series={j: np.array(v) for j, v in series.items()},
                      aborted=aborted, abort_reason=abort_reason, profile=prof)


def quasi_periodic_seed(b: float, amplitudes: dict, M: int) -> PatchState:
    """Even (reversible) initial data r0 = sum_j a_j cos(j theta) over the tangential
    set, whose modes must lie in 1 <= j <= M // 3: ``dealias`` removes the others."""
    total = sum(abs(a) for a in amplitudes.values())
    if total >= 0.5 * b * b * (1.0 - RADIUS_MARGIN):
        raise DegeneratePatchError("seed amplitudes exceed the admissibility margin b^2/2")
    th = theta_grid(M)
    r0 = np.zeros(M)
    for j, a in amplitudes.items():
        if not 1 <= j <= M // 3:
            raise ValueError(f"seed mode {j} is not in 1..{M // 3}, the modes that the "
                             f"2/3 rule keeps on a grid of {M}")
        r0 += a * np.cos(j * th)
    return PatchState(b, PeriodicField(r0))


# ---------------------------------------------------------------------------
# trajectory export
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory) -> str:
    """Diagnostics table: time, mean, hamiltonian, h_s_norm, then one pair of
    columns per tracked Fourier mode (real and imaginary parts interleaved)."""
    modes = sorted(traj.mode_series)
    header = "time,mean,hamiltonian,h_s_norm" + "".join(f",re_mode_{j},im_mode_{j}" for j in modes)
    dt = traj.config.dt
    rows = []
    for i, t in enumerate(traj.times):
        row = [t, traj.means[i], traj.hamiltonians[i], traj.hs_norms[i]]
        for j in modes:
            # mode coefficients are tracked every step; pick the sample at t
            c = traj.mode_series[j][int(round(t / dt))]
            row += [c.real, c.imag]
        rows.append(row)
    return _csv(header, rows)


def trajectory_summary(traj: Trajectory) -> dict:
    """JSON-serializable run summary: config echo plus final diagnostics."""
    cfg = traj.config
    H = traj.hamiltonians
    return {
        "b": traj.b,
        "config": {
            "dt": cfg.dt,
            "T": cfg.T,
            "record_stride": cfg.record_stride,
            "track_modes": list(cfg.track_modes),
            "diagnostics": True,
            "sobolev_s": _SOBOLEV_S,
        },
        "aborted": traj.aborted,
        "abort_reason": traj.abort_reason,
        "snapshots": len(traj.snapshots),
        "final_time": float(traj.times[-1]),
        "final_mean": traj.means[-1],
        "initial_hamiltonian": H[0],
        "final_hamiltonian": H[-1],
        "hamiltonian_drift": abs(H[-1] - H[0]),
        "final_h_s_norm": traj.hs_norms[-1],
    }


# ---------------------------------------------------------------------------
# frequency extraction
# ---------------------------------------------------------------------------

class NoFrequencyError(RuntimeError):
    """The tracked mode vanishes on some sample, where its phase is undefined."""


def extract_frequencies(traj: Trajectory, j: int) -> float:
    """Rotation frequency Omega of t -> hat r_j(t) ~ e^{-i Omega t}: the mean
    speed of arg hat r_j, taken as a weighted Birkhoff average of the phase
    increments of consecutive samples (sample n sits at t = n dt).

    The weight exp(-1/(u(1-u))), u in (0, 1) along the run, vanishes to all
    orders at both ends, so for a quasi-periodic signal the average converges
    faster than any power of T (Das, Saiki, Sander and Yorke, Nonlinearity 30,
    2017).  Two premises: the result is the dominant frequency when that
    component's amplitude exceeds the sum of the others' (then the phase winds
    at its rate), and |Omega dt| < pi, so each increment is read unaliased.
    """
    if j not in traj.mode_series:
        raise KeyError(f"mode {j} was not tracked during the run")
    s = traj.mode_series[j]
    if len(s) < 64:
        raise ValueError("need at least 64 samples of the mode coefficient")
    if np.min(np.abs(s)) <= 1e-13:
        raise NoFrequencyError(f"mode {j} vanishes on a sample, where its phase is undefined")
    inc = np.angle(s[1:] * np.conj(s[:-1]))
    u = (np.arange(len(inc)) + 0.5) / len(inc)
    w = np.exp(-1.0 / (u * (1.0 - u)))
    return float(-np.sum(w * inc) / (traj.config.dt * np.sum(w)))
