"""Diophantine exclusion sets in the parameter b and their measure.

Three families of small-divisor conditions are screened over a lattice of
Fourier sites l and mode indices j (and j0 for the second-order family):

* transport:             |omega . l + j/2|            >= gamma^upsilon <j> / <l>^tau1
* first-order-Melnikov:  |omega_Eq . l + Omega_j|     >= gamma <j> / <l>^tau1
* second-order-Melnikov: |omega_Eq . l + Omega_j - Omega_j0|
                                                      >= 2 gamma <j - j0> / <l>^tau2

(the transport family uses omega = -omega_Eq, the straightened model with
V^infty = 1/2).  For each tuple the sublevel set {b : |f(b)| < threshold} is
measured by sign-change bisection; the lengths are cross-checked against the
polynomial sublevel bound (Russmann estimate) and merged into a sorted
disjoint union whose complement is the surviving (Cantor) parameter set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .spectral import _fmt
from .spectrum import FrequencySystem, _bracket, _lattice, omega, omega_derivative

__all__ = [
    "DiophantineSpec",
    "SublevelResult",
    "ExcludedReport",
    "russmann_bound",
    "sublevel_measure",
    "excluded_measure",
    "linear_cantor_measure",
    "measure_curve",
    "merge_intervals",
    "intervals_nested",
    "excluded_to_csv",
    "excluded_summary_json",
]

KINDS = ("transport", "first-order-Melnikov", "second-order-Melnikov")
_SCREEN_GRID = 512  # nodes of the Lipschitz screen
_FINE_GRID = 2 ** 14  # cells of the measurement grid (filter and bisection)


@dataclass(frozen=True)
class DiophantineSpec:
    """Exclusion thresholds: gamma scale, exponents, lattice/mode cutoffs."""

    gamma: float
    upsilon: float = 0.5
    tau1: float = 3.0
    tau2: float = 13.0
    Lmax: int = 20
    Jmax: int = 100
    kind: str = "first-order-Melnikov"
    c2: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not self.tau2 > self.tau1:
            raise ValueError("need tau2 > tau1")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.Lmax < 1 or self.Jmax < 1:
            raise ValueError("Lmax and Jmax must be >= 1")
        if not 0.0 < self.upsilon <= 1.0:
            raise ValueError("upsilon must lie in (0, 1]")

    def gamma_n(self, n: int) -> "DiophantineSpec":
        """Step-n member gamma (1 + 2^-n) of the shrinking threshold schedule."""
        return replace(self, gamma=self.gamma * (1.0 + 2.0 ** (-n)))


# ---------------------------------------------------------------------------
# sublevel sets of a scalar function
# ---------------------------------------------------------------------------

@dataclass
class SublevelResult:
    measure: float
    intervals: list
    flags: list


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


def sublevel_measure(f, alpha: float, a: float, b: float,
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


def russmann_bound(f_derivatives, alpha: float, q0: int, a: float, b: float,
                   beta: float | None = None, grid: int = 512) -> float:
    """Quantitative sublevel bound  C alpha^(1/q0) / beta^(1 + 1/q0).

    ``f_derivatives(xs, q)`` returns the q-th derivative on the array ``xs``.
    beta = min_x max_{q<=q0} |d^q f| is the transversality constant (computed
    on the grid when not supplied).  The constant is the constructive

        C = 2 (q0 + 1) (b - a + 1) (q0!)^(1/q0) (1 + ||f||_{C^q0})^(1 + 1/q0),

    obtained by splitting [a, b] into at most (q0 + 1) * (b - a + 1) * ||f||
    monotonicity cells of the first derivative that attains the lower bound
    beta, and applying the one-cell estimate |{|f| <= alpha}| <=
    2 (q0! alpha / beta)^(1/q0) on each.
    """
    xs = np.linspace(a, b, grid)
    table = np.stack([np.abs(np.asarray(f_derivatives(xs, q), dtype=float))
                      for q in range(q0 + 1)])
    cnorm = float(np.max(table))
    if beta is None:
        beta = float(np.min(np.max(table, axis=0)))
    if beta <= 0:
        return math.inf
    C = (2.0 * (q0 + 1) * (b - a + 1.0) * math.factorial(q0) ** (1.0 / q0)
         * (1.0 + cnorm) ** (1.0 + 1.0 / q0))
    return C * alpha ** (1.0 / q0) / beta ** (1.0 + 1.0 / q0)


# ---------------------------------------------------------------------------
# interval bookkeeping
# ---------------------------------------------------------------------------

def merge_intervals(intervals) -> list:
    """Sorted disjoint union of a list of (left, right) intervals."""
    ivs = sorted((l, r) for l, r in intervals if r > l)
    out = []
    for l, r in ivs:
        if out and l <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], r))
        else:
            out.append((l, r))
    return out


def intervals_nested(inner, outer, tol: float = 1e-9) -> bool:
    """Every interval of ``inner`` lies inside the union of ``outer`` (up to tol)."""
    outer = merge_intervals(outer)
    for l, r in merge_intervals(inner):
        ok = any(ol - tol <= l and r <= orr + tol for ol, orr in outer)
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# excluded sets of the frequency system
# ---------------------------------------------------------------------------

@dataclass
class ExcludedReport:
    kind: str
    gamma: float
    total: float
    merged: list
    rows: list = field(default_factory=list)  # (l, j, j0, left, right, length)
    tail_bound: float = 0.0
    tail_divergent: bool = False
    russmann_violations: int = 0
    flags: list = field(default_factory=list)


def _half_lattice(d: int, Lmax: int):
    """One representative of each +-l pair (zero excluded)."""
    for l in _lattice(d, Lmax):
        for x in l:
            if x > 0:
                yield l
                break
            if x < 0:
                break


def _tail_bound(d: int, Lmax: int, tau: float, q0: int, C: float = 1.0):
    """C sum_{|l| > Lmax} <l>^(-tau/q0) over the d-lattice (counted per shell)."""
    p = tau / q0
    if p <= d:
        return math.inf, True
    # shell count <= 2 d (2 n)^{d-1}; integral comparison for the n-sum
    coef = C * 2 * d * 2 ** (d - 1)
    total = coef * (Lmax + 1) ** (d - 1 - p) + coef * (Lmax + 1) ** (d - p) / (p - d)
    return float(total), False


def excluded_measure(sys: FrequencySystem, spec: DiophantineSpec) -> ExcludedReport:
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
        res = sublevel_measure(f, thr, b0, b1, grid=_FINE_GRID)
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


def measure_curve(sys: FrequencySystem, spec: DiophantineSpec, gammas) -> dict:
    """Excluded measure as a function of gamma, with a fitted power law."""
    measures = []
    reports = []
    for g in gammas:
        rep = excluded_measure(sys, replace(spec, gamma=float(g)))
        reports.append(rep)
        measures.append(rep.total)
    gs = np.asarray(list(gammas), dtype=float)
    ms = np.asarray(measures)
    mask = ms > 0
    if np.count_nonzero(mask) >= 2:
        slope = float(np.polyfit(np.log(gs[mask]), np.log(ms[mask]), 1)[0])
    else:
        slope = math.nan
    return {"gammas": gs.tolist(), "measures": ms.tolist(),
            "fitted_exponent": slope, "reports": reports}


def excluded_to_csv(report: ExcludedReport) -> str:
    lines = ["l,j,j0,left,right,length"]
    for l, j, j0, left, right, length in report.rows:
        lines.append(
            f"\"{' '.join(str(x) for x in l)}\",{j},{'' if j0 is None else j0},"
            f"{_fmt(left)},{_fmt(right)},{_fmt(length)}"
        )
    return "\n".join(lines) + "\n"


def excluded_summary_json(report: ExcludedReport) -> dict:
    return {
        "kind": report.kind,
        "gamma": report.gamma,
        "total_excluded": report.total,
        "interval_count": len(report.rows),
        "merged_count": len(report.merged),
        "tail_bound": None if report.tail_divergent else report.tail_bound,
        "tail_divergent": report.tail_divergent,
        "russmann_violations": report.russmann_violations,
        "flags": report.flags,
    }
