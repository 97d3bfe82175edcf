"""Two finite-truncation reduction engines for quasi-periodic transport.

Part 1 (straighten_transport): conjugate  omega . d_phi + (V0 + f0) d_theta
to constant coefficients by iterated changes of variables
theta -> theta + beta(phi, theta).  Each step solves the homological equation
mode-wise behind a smooth cutoff on the small divisors omega . l + j V_m and
extracts the new (quadratically smaller) remainder operationally, by applying
the conjugated operator to the linear probe theta.

Part 2 (kam_step / run_remainder_kam): eliminate the off-normal part of
omega . d_phi + diag(i mu_j) + R(phi) by conjugation with Id + Psi, where Psi
solves the matrix homological equation behind a second-order divisor cutoff.
The conjugation is pointwise on a phi grid (d = 1 or 2) of the smallest
5-smooth size G >= 2(W + max|l|) + 1: products of Toeplitz-in-time operators
are products of matrix functions of phi, exact on the kept bands for every
such G, and (Id + Psi)^{-1} is one 2N x 2N solve per grid point.  The
remainder R is real and reversible (every entry i a with a real), Psi is real
and reversibility preserving, and mu stays purely imaginary and odd in j;
ReductionState checks these invariants on construction.  They make the
conjugated remainder take -conj values at -phi, so kam_step samples only half
of the grid (the last phi axis on G//2 + 1 points) and transforms by real FFTs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    LinearOperatorMatrix,
    PeriodicField,
    _csv,
    _jmodes,
    _mirror_project,
    _mirrored,
    _mode_numbers,
    _support,
    offdiag_norm,
    spectral_derivative,
    theta_grid,
)
from .spectrum import _lattice, omega as omega_eq

__all__ = [
    "smooth_cutoff",
    "golden_frequency",
    "TransportProblem",
    "ChangeOfVariables",
    "evaluate_shifted",
    "solve_transport_homological",
    "straighten_transport",
    "TransportResult",
    "transport_history_csv",
    "ReductionState",
    "synthetic_reversible_remainder",
    "solve_remainder_homological",
    "kam_step",
    "run_remainder_kam",
    "remainder_history_csv",
    "spectrum_table_json",
    "NonReducibleError",
    "SymmetryError",
]


#: base N0 of the truncation schedule N_m = N0^{(3/2)^m} of both engines
_N0 = 4.0
#: straighten_transport stops once the remainder's delta_s0 is at most this
_STRAIGHTENED = 1e-14


class NonReducibleError(RuntimeError):
    """The divisor cutoff removed most modes, |Psi| >= 1/2, or a change of variables failed."""


class SymmetryError(ValueError):
    """A ReductionState whose mu is not exactly odd in j, or whose R is not
    exactly real and reversible."""


# ---------------------------------------------------------------------------
# smooth cutoff and frequencies
# ---------------------------------------------------------------------------

def _glue(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) glue: 0 for t <= 0, C-infinity, positive for t > 0."""
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smooth_cutoff(x) -> np.ndarray:
    """Even C-infinity step: 0 for |x| <= 1/3, 1 for |x| >= 1/2, monotone between."""
    x = np.abs(np.asarray(x, dtype=float))
    t = (x - 1.0 / 3.0) / (1.0 / 2.0 - 1.0 / 3.0)
    up = _glue(t)
    down = _glue(1.0 - t)
    return up / (up + down + (up + down == 0.0))


def golden_frequency(d: int) -> np.ndarray:
    """Diophantine base frequency: golden mean (d=1), (1, golden mean)/2 (d=2)."""
    g = 0.5 * (np.sqrt(5.0) - 1.0)
    if d == 1:
        return np.array([g])
    if d == 2:
        return 0.5 * np.array([1.0, 1.0 + g])
    raise ValueError("only d = 1 or 2 supported")


def _reflected(v: np.ndarray) -> np.ndarray:
    """v(-phi, -theta) on the uniform grid: index k -> -k mod n on every axis."""
    return v[np.ix_(*[(-np.arange(n)) % n for n in v.shape])]


def analytic_norm(f: PeriodicField, s: float) -> float:
    """Weighted coefficient norm sum |c_{l,j}| e^(s <l,j>)."""
    w = f.mode_weights().astype(float)
    return float(np.sum(np.abs(f.coeffs) * np.exp(s * w)))


# ---------------------------------------------------------------------------
# changes of variables theta -> theta + beta(phi, theta)
# ---------------------------------------------------------------------------

def _power_series(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_{m >= 1} a[..., m-1] z^m by Horner's rule, one z per sample point.

    The loop starts at the highest nonzero a[..., m-1]: exact-zero top terms
    add exactly nothing, so the sum is bit-identical to the one over all of a.
    """
    acc = np.zeros(np.broadcast_shapes(a.shape[:-1] + (1,), z.shape), dtype=complex)
    nonzero = np.flatnonzero(_support(a))
    for m in range(nonzero[-1] if nonzero.size else -1, -1, -1):
        acc += a[..., m, None]
        acc *= z
    return acc


def evaluate_shifted(f: PeriodicField, shift: np.ndarray) -> np.ndarray:
    """Samples of f(phi, theta + shift(phi, theta)): sum_m c_m z^m in z = e^{i(theta + shift)},
    each side of the spectrum summed by Horner's rule from its highest nonzero c_m
    of the cached ``theta_coeffs`` (exact zeros off f's theta band)."""
    M = f.grid_sizes[-1]
    c = f.theta_coeffs
    z = np.exp(1j * (theta_grid(M) + shift))  # broadcast over leading axes
    h = (M + 1) // 2
    # c_1, ..., c_{h-1} in z and c_{-1}, ..., c_{h-M} in conj(z); for even M
    # the Nyquist mode is c_{-M/2}, as in the frequency order of the FFT
    out = c[..., :1] + _power_series(c[..., 1:h], z) + _power_series(c[..., :h - 1:-1], z.conj())
    return out.real


class ChangeOfVariables:
    """theta -> theta + beta, with the inverse shift beta_hat precomputed.

    The fixed point sums beta on its theta band (``PeriodicField.theta_coeffs``,
    taken once): for a beta from ``solve_transport_homological`` the modes
    |j| <= Ncut, for a beta built from samples every mode.  ``iterations``
    counts the fixed-point steps and ``band`` the Horner terms per side, the
    largest |j| of a nonzero theta coefficient of beta.

    The fixed point beta_hat = -beta(phi, theta + beta_hat) contracts at the
    rate q = max|d_theta beta| < 1 of the grid.  Between the nodes the
    derivative of the interpolant can exceed q, so the step cap assumes the
    slower rate rho = (1 + q)/2: from beta_hat = -beta the k-th step is then at
    most rho^k max|beta|, below the 1e-14 stop test once k > log(1e-14 /
    max|beta|) / log(rho).  The cap is that bound plus one step; a shift that
    has not passed the stop test by then raises ``ValueError``.
    """

    def __init__(self, beta: PeriodicField):
        q = float(np.max(np.abs(spectral_derivative(beta.values))))
        if q >= 1.0:
            raise ValueError("the change of variables must satisfy |d_theta beta| < 1")
        modes = np.abs(_mode_numbers(beta.grid_sizes[-1]))
        self.beta = beta
        self.band = int(np.max(modes[_support(beta.theta_coeffs)], initial=0))
        size = max(float(np.max(np.abs(beta.values))), 1e-14)
        cap = 1 + math.ceil(math.log(1e-14 / size) / math.log(0.5 * (1.0 + q)))
        bh = -beta.values.copy()
        for k in range(1, cap + 1):
            nxt = -evaluate_shifted(beta, bh)
            gap = np.max(np.abs(nxt - bh))
            bh = nxt
            if gap < 1e-14:
                break
        else:
            raise ValueError(f"the inverse shift did not converge in {cap} iterations "
                             f"(last step {gap:.2g}, contraction bound {q:.3g})")
        self.iterations = k
        self.beta_hat = PeriodicField(bh)


# ---------------------------------------------------------------------------
# transport straightening
# ---------------------------------------------------------------------------

@dataclass
class TransportProblem:
    omega: np.ndarray
    f0: PeriodicField
    V0: float
    gamma: float
    upsilon: float
    tau1: float

    def __post_init__(self):
        self.omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        if self.f0.dims != len(self.omega) + 1:
            raise ValueError("f0 must live on (phi_1..phi_d, theta)")
        v = self.f0.values
        if np.max(np.abs(_reflected(v) - v)) > 1e-12:
            raise ValueError("f0 must be even under (phi, theta) -> (-phi, -theta)")
        # a speed that vanishes or changes sign has no rotation number
        speed = self.V0 + v
        if not (np.all(speed > 0.0) or np.all(speed < 0.0)):
            raise ValueError("the speed V0 + f0 must keep one strict sign on the grid")


def _mode_lattice(shape):
    """(l_1..l_d, j) integer mode arrays on the fftn coefficient grid."""
    return np.meshgrid(*[_mode_numbers(n) for n in shape], indexing="ij")


def solve_transport_homological(rhs: PeriodicField, omega: np.ndarray, V: float,
                                gamma: float, upsilon: float, tau1: float,
                                Ncut: float) -> tuple:
    """beta with (omega . d_phi + V d_theta) beta = rhs behind the divisor cutoff.

    Modes with |omega . l + j V| below the threshold gamma^upsilon <j>/<l>^tau1
    (smoothly cut) or outside the truncation <l, j> <= Ncut are dropped.
    Returns (beta, cut_fraction) where the fraction counts significant rhs
    modes inside the truncation whose cutoff factor is < 1.  beta is built
    from its coefficients, so its theta band is the modes j at which some
    solved coefficient is nonzero, |j| <= Ncut.
    """
    shape = rhs.grid_sizes
    mats = _mode_lattice(shape)
    j = mats[-1]
    lsum = sum(np.abs(m) for m in mats[:-1]) if len(mats) > 1 else np.zeros_like(j)
    div = V * j.astype(float)
    for k, m in enumerate(mats[:-1]):
        div = div + omega[k] * m
    jb = np.maximum(1, np.abs(j))
    lb = np.maximum(1, lsum)
    thr = gamma ** upsilon * jb / lb.astype(float) ** tau1
    chi = smooth_cutoff(div / thr)
    weight = np.maximum(lb, np.abs(j))
    inside = weight <= Ncut
    c = rhs.coeffs
    denom = np.where(chi > 0.0, 1j * div, 1.0)
    bhat = np.where(inside & (chi > 0.0), chi * c / denom, 0.0)
    bhat[(0,) * len(shape)] = 0.0
    significant = (np.abs(c) > 1e-15) & inside
    significant[(0,) * len(shape)] = False
    nsig = int(np.count_nonzero(significant))
    ncut = int(np.count_nonzero(significant & (chi < 1.0)))
    frac = ncut / nsig if nsig else 0.0
    return PeriodicField.from_coeffs(bhat), frac


@dataclass
class TransportResult:
    V_infty: float
    reducible: bool
    history: list  # (m, delta_s0, delta_sh, cut_fraction, V_m)
    shifts: list   # per change of variables: (inverse-shift iterations, Horner band)


def straighten_transport(prob: TransportProblem, steps: int) -> TransportResult:
    """Iterated straightening of omega . d_phi + (V0 + f0(phi, theta)) d_theta.

    Each step absorbs the average of the remainder into the constant V,
    solves the homological equation for beta behind the divisor cutoff
    (truncated at N_m = N0^{(3/2)^m}, ``_N0``), and recomputes the remainder by
    applying the conjugated operator to the theta-linear probe:
    f_next = B^{-1}[(V + f)(1 + d_theta beta) + omega . d_phi beta] - V_next.
    The history holds the remainder's analytic norms at widths 0 and 0.1; the
    iteration stops once the first is <= ``_STRAIGHTENED``.

    beta has no theta mode beyond N_m, and each change of variables sums it on
    that band alone (see ``ChangeOfVariables``).  Dropping the round-off that
    the samples hold off the band moves the history by round-off only: every
    cell stays within 1e-12 times its column's row 0 and V_infty within a few
    ulp (``tests/test_kam.py``, ``TestTransportTolerance``).  That bound is
    the history's tolerance: from row 2 on, the last of the 17 printed digits
    of the delta columns are round-off.
    """
    if steps < 1:
        raise ValueError("straighten_transport needs steps >= 1")
    V = float(prob.V0)
    f = prob.f0
    omega = prob.omega
    history, shifts = [], []
    nyquist = max(n // 2 for n in f.grid_sizes)
    for m in range(steps):
        mean_f = float(f.values.mean())
        centred = PeriodicField(f.values - mean_f)  # one field: its FFT serves both norms
        d0 = analytic_norm(centred, 0.0) + abs(mean_f)
        dh = analytic_norm(centred, 0.1) + abs(mean_f)
        history.append((m, d0, dh, 0.0, V))
        if d0 <= _STRAIGHTENED:
            break
        V_next = V + mean_f
        rhs = PeriodicField(mean_f - f.values)
        Ncut = min(_N0 ** (1.5 ** m), float(nyquist))
        beta, frac = solve_transport_homological(
            rhs, omega, V, prob.gamma, prob.upsilon, prob.tau1, Ncut)
        history[-1] = (m, d0, dh, frac, V)
        if frac > 0.5:
            return TransportResult(V, False, history, shifts)
        try:
            cov = ChangeOfVariables(beta)
        except ValueError as exc:  # a numerical failure of a valid problem
            raise NonReducibleError(str(exc)) from exc
        shifts.append((cov.iterations, cov.band))
        u = (V + f.values) * (1.0 + spectral_derivative(beta.values))
        for k in range(len(omega)):
            u = u + omega[k] * spectral_derivative(beta.values, axis=k)
        f_next = evaluate_shifted(PeriodicField(u), cov.beta_hat.values) - V_next
        V = V_next
        f = PeriodicField(f_next)
    return TransportResult(V, True, history, shifts)


def transport_history_csv(result: TransportResult) -> str:
    return _csv("m,delta_s0,delta_sh,cut_fraction,V_m", result.history)


# ---------------------------------------------------------------------------
# remainder elimination around diag(i mu_j)
# ---------------------------------------------------------------------------

@dataclass
class ReductionState:
    """Step m of the reduction: frequencies mu (imaginary parts, odd in j),
    remainder R (real, reversible, Toeplitz in the time modes)."""

    omega: np.ndarray
    mu: np.ndarray            # real; operator diagonal is i mu_j
    R: LinearOperatorMatrix
    step: int

    def __post_init__(self):
        self.omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        self.mu = np.asarray(self.mu, dtype=float)
        if len(self.mu) != 2 * self.R.N:
            raise ValueError("mu must list one frequency per mode in jmodes order")
        if len(self.omega) != self.R.d:
            raise ValueError(f"omega must list one frequency per phi angle of R ({self.R.d})")
        self.assert_invariants()

    def mu_oddness_deviation(self) -> float:
        return float(np.max(np.abs(self.mu + _mirrored(self.mu))))

    def assert_invariants(self):
        """Raise SymmetryError unless mu is exactly odd and R exactly real and
        reversible, i.e. every entry of R is i a with a real and odd under the
        mirror (kam_step's half grid rests on this); the constructor calls it."""
        if self.mu_oddness_deviation() > 0.0:
            raise SymmetryError("mu is not exactly odd in j")
        if np.any(self.R.entries.real):
            raise SymmetryError("the remainder has an entry with a real part")
        # for imaginary entries the realness and reversibility deviations are equal
        if self.R.reversible_deviation() > 0.0:
            raise SymmetryError("the remainder is not exactly real and reversible")


def synthetic_reversible_remainder(N: int, L: int, delta0: float,
                                   seed: int, d: int = 1) -> LinearOperatorMatrix:
    """Random real reversible remainder of size delta0 with smoothing decay.

    Entries are i a(l, j, j0) with a real and odd under (l, j, j0) ->
    (-l, -j, -j0); magnitudes decay like e^(-|l|/2)/(<j-j0>^2 max(|j|,|j0|)),
    so the l = 0 diagonal scales like delta0/|j|.  ``d`` is the number of
    forcing frequencies (bands range over |l|_1 <= L in Z^d).
    """
    rng = np.random.default_rng(seed)
    jm = _jmodes(N)
    bands = np.array(list(_lattice(d, L)), dtype=int)
    a = rng.uniform(-1.0, 1.0, (len(bands), 2 * N, 2 * N))
    dj = np.maximum(1, np.abs(jm[:, None] - jm[None, :]))
    mj = np.maximum(np.abs(jm[:, None]), np.abs(jm[None, :]))
    a *= (delta0 * np.exp(-0.5 * np.abs(bands).sum(axis=1)))[:, None, None] / (dj ** 2 * mj)
    # exact odd mirror a(-l,-j,-j0) = -a(l,j,j0) in the band order of
    # LinearOperatorMatrix: the bands after l = 0 become the negated mirrors
    # of the bands before it, and the l = 0 band is antisymmetrised
    zero = len(bands) // 2
    a[zero + 1:] = -_mirrored(a)[zero + 1:]
    a[zero] = _mirror_project(a[zero], -1)
    return LinearOperatorMatrix(N, 1j * a, bands)


def solve_remainder_homological(state: ReductionState, gamma: float, tau2: float,
                                Ncut: float) -> tuple:
    """Psi with  omega . d_phi Psi + [diag(i mu), Psi] = -(P_N R - normal part)
    behind the cutoff chi(div / (gamma <j-j0> / <l>^tau2)).

    Returns (Psi, resolved, cut_fraction) where ``resolved`` holds the part
    chi R of the entries that the homological equation absorbed (the leftover
    R - resolved stays in the remainder).  The residual of the homological
    equation on the chi = 1 modes is exact to rounding by construction.
    """
    R = state.R
    jm = R.jmodes
    labs = np.abs(R.bands).sum(axis=1)
    lb = np.maximum(1, labs)
    # per-band Python floats: a vectorised dot or pow may round differently
    wl = np.array([float(np.dot(state.omega, m)) for m in R.bands])
    lpow = np.array([float(k) ** tau2 for k in lb])
    dj = np.abs(jm[:, None] - jm[None, :])
    div = wl[:, None, None] + (state.mu[:, None] - state.mu[None, :])
    chi = smooth_cutoff(div / (gamma * np.maximum(1, dj) / lpow[:, None, None]))
    normal = (labs == 0)[:, None, None] & (jm[:, None] == jm[None, :])
    active = (np.maximum(lb[:, None, None], dj) <= Ncut) & ~normal
    denom = np.where(chi > 0.0, 1j * div, 1.0)
    psi_entries = np.where(active, -chi * R.entries / denom, 0.0)
    resolved = np.where(active, chi * R.entries, 0.0)
    sig = active & (np.abs(R.entries) > 1e-15)
    nsig = int(np.count_nonzero(sig))
    ncut = int(np.count_nonzero(sig & (chi < 1.0)))
    # real and reversibility preserving (real entries, even under the mirror)
    psi = LinearOperatorMatrix(R.N, _mirror_project(psi_entries.real, 1), R.bands)
    frac = ncut / nsig if nsig else 0.0
    return psi, resolved, frac


def _window(R: LinearOperatorMatrix) -> int:
    """The band window W = max(max |l|, 2N): kam_step keeps the bands
    |l|_inf <= W, and W caps the truncation schedule."""
    return int(max(np.max(np.abs(R.bands), initial=0), 2 * R.N))


def _smooth(n: int) -> int:
    """The smallest 5-smooth integer >= n: an FFT size with no prime factor above 5."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def kam_step(state: ReductionState, Ncut: float, gamma: float,
             tau2: float) -> tuple[ReductionState, tuple]:
    """One reduction step: frequency correction, conjugation, new remainder.

    mu_next = mu + r with r_j the (real) l = 0 diagonal coefficient of the
    remainder divided by i; R_next = Phi^{-1}(-Psi |P_N R| + P_N^perp R
    + R Psi) with Phi = Id + Psi, on the bands |l|_inf <= W = _window(R).

    Psi, R and the leftover are Toeplitz in time, i.e. matrix functions of
    phi: products are pointwise on a G^d phi grid and Phi^{-1} is one
    2N x 2N solve per point.  G is the smallest 5-smooth size >= 2(W + max|l|)
    + 1, so the transforms run at sizes with no prime factor above 5.  For
    every such G the products are exact on the kept bands, and only the terms
    of Phi^{-1} beyond |l|_inf = G - W - 1 alias onto them.

    Only half of the grid is sampled: the last phi axis on its G//2 + 1
    points, the others in full.  The rest follows exactly.  R = i A and the
    leftover i B have real coefficients A_l, B_l (``ReductionState`` holds R
    exactly real and reversible) and Psi has real ones, so each of A, B and
    Psi takes conj values at -phi.  So do X' = B + A Psi - Psi diag(r) and
    Y' = Phi^{-1} X', and R_next = i Y' has the real coefficients a of Y'.
    One real FFT pair carries them: with each band l placed at -l mod G the
    forward real FFT is the sampling sum_l c_l e^{i l phi}, and the inverse
    returns a_l at -l mod G.

    Returns the new state and its aliasing row (step, G, largest |a_l| on the
    outermost band shell of the grid, sup |R_next|): the shell is an aliasing
    estimate, not a bound.  ``state`` is left as it is.
    """
    R = state.R
    W = _window(R)
    zi = R.zero_band
    # the l = 0 diagonal entries are i r_j with r real
    r = np.diag(R.entries[zi]).imag
    mu_next = _mirror_project(state.mu + r, -1)  # exact oddness
    psi, resolved, frac = solve_remainder_homological(state, gamma, tau2, Ncut)
    if frac > 0.5:
        raise NonReducibleError("more than half of the remainder modes were cut")
    norm = offdiag_norm(psi, 0.0)
    if norm >= 0.5:
        raise NonReducibleError(f"Id + Psi requires |Psi| < 1/2, got {norm:.3g}")
    # B: the unsolved part of R (outside P_N, behind the cutoff, or normal-form
    # diagonal, minus the diagonal correction that moved into mu), divided by i
    B = R.entries.imag - resolved.imag
    np.fill_diagonal(B[zi], np.diag(B[zi]) - r)
    G = _smooth(2 * (W + int(np.max(np.abs(R.bands)))) + 1)
    phi = tuple(range(R.d))

    def sampled(c):
        """The half-grid samples of sum_l c_l e^{i l phi}, c real and band-stacked."""
        grid = np.zeros((G,) * R.d + c.shape[1:])
        grid[tuple((-R.bands % G).T)] = c
        return np.fft.rfftn(grid, axes=phi)

    # one at a time: a zero-filled grid and its transform live only while their
    # array is sampled
    Psi, A, X = (sampled(c) for c in (psi.entries.real, R.entries.imag, B))
    # in place: each grid temporary is one more G^(d-1) (G//2+1) (2N)^2 array
    X += A @ Psi
    X -= Psi * r  # Psi diag(r): column scaling
    Psi += np.eye(2 * R.N)  # now Phi = Id + Psi
    Y = np.linalg.solve(Psi, X)
    del Psi, A, X  # the inverse transform's two grids take their place
    a = np.fft.irfftn(Y, s=(G,) * R.d, axes=phi)
    bands = np.indices((2 * W + 1,) * R.d).reshape(R.d, -1).T - W
    # exactly real and reversible (entries i a, a odd): round-off in the FFTs and
    # the solve breaks the mirror symmetry at the 1e-16 sup|R| level
    R_next = LinearOperatorMatrix(R.N, 1j * _mirror_project(a[tuple((-bands % G).T)], -1),
                                  bands)
    shell = functools.reduce(np.maximum, np.ix_(*[np.abs(_mode_numbers(G))] * R.d))
    row = (state.step, G, float(np.max(np.abs(a[shell == shell.max()]))),
           float(np.max(np.abs(R_next.entries))))
    return ReductionState(state.omega, mu_next, R_next, state.step + 1), row


def run_remainder_kam(state: ReductionState, steps: int, gamma: float,
                      tau2: float) -> tuple[ReductionState, list, list]:
    """Iterate kam_step with the truncation schedule N_n = N0^{(3/2)^n} (``_N0``),
    capped at the window.  Returns the final state, the history (one
    ``_delta_row`` per state of the run, ``state`` first) and the aliasing rows
    of the steps; ``state`` itself is left as it is."""
    cur, history, aliasing = state, [_delta_row(state)], []
    cap = _window(state.R)
    for n in range(steps):
        Ncut = min(_N0 ** (1.5 ** n), cap)
        cur, row = kam_step(cur, gamma=gamma, tau2=tau2, Ncut=Ncut)
        history.append(_delta_row(cur))
        aliasing.append(row)
    return cur, history, aliasing


def _delta_row(state: ReductionState) -> tuple:
    """(step, delta_s0, delta_sh) of the off-normal remainder of ``state``."""
    off = _offnormal(state.R)
    return state.step, offdiag_norm(off, 0.0), offdiag_norm(off, 0.1)


def _offnormal(R: LinearOperatorMatrix) -> LinearOperatorMatrix:
    entries = R.entries.copy()
    np.fill_diagonal(entries[R.zero_band], 0.0)
    return LinearOperatorMatrix(R.N, entries, R.bands)


def remainder_history_csv(history: list) -> str:
    return _csv("m,delta_s0,delta_sh", history)


def spectrum_table_json(state: ReductionState, b: float) -> dict:
    """Final frequency table mu_j, split against the equilibrium prediction
    mu_j = Omega_j(b) + r_j (the transport speed V_infty = 1/2 of the
    equilibrium adds no j (V_infty - 1/2))."""
    out = {"step": state.step, "mu": {}}
    for a, j in enumerate(state.R.jmodes):
        out["mu"][int(j)] = {"mu": float(state.mu[a]),
                             "residual": float(state.mu[a]) - float(omega_eq(b, int(j)))}
    return out
