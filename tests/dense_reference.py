"""Dense and loop references for the fast paths of the package (test-only).

Every integral int log A_r(theta, eta) w(theta, eta) deta is formed here from
the full M x M table w: the K1/K2 parts by gathering each row into the shifted
variable u = eta - theta and contracting its u-Fourier coefficients against
the multiplier coefficients, the smooth parts by row quadrature.  The package
computes the same integrals from rank-2 / column-block factorizations; these
functions are the independent path the tests compare against.

The operator references are the plain loop forms of the off-diagonal norm,
the band product and its window projection, the Neumann series of
(Id + Psi)^{-1} in band space, and the shifted evaluation.

The Cantor references at the end are the node-by-node sublevel loop with its
scalar bisection, the per-tuple excluded-measure pipeline built on it (a
closure per tuple, a full-grid filter over an Omega table of every index),
and two helpers only the tests use: ``intervals_nested`` and
``linear_cantor_measure``.
"""

import numpy as np

from vortexpatch.cantor import (
    _FINE_GRID,
    _SCREEN_GRID,
    DiophantineSpec,
    ExcludedReport,
    SublevelResult,
    _half_lattice,
    _tail_bound,
    excluded_measure,
    merge_intervals,
    russmann_bound,
)
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
        for l in _half_lattice(sys.d, spec.Lmax):
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
            j0cut = min(spec.Jmax,
                        int(np.ceil(spec.c2 * spec.gamma ** (-spec.upsilon)
                                    * br ** spec.tau1)))
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
