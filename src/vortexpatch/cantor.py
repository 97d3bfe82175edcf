"""Diophantine exclusion sets in the parameter b and their measure.

Three families of small-divisor conditions are screened over a lattice of
Fourier sites l and mode indices j (and j0 for the second-order family):

* transport:             |omega . l + j/2|            >= gamma^upsilon <j> / <l>^tau1
* first-order-Melnikov:  |omega_Eq . l + Omega_j|     >= gamma <j> / <l>^tau1
* second-order-Melnikov: |omega_Eq . l + Omega_j - Omega_j0|
                                                      >= 2 gamma <j - j0> / <l>^tau2

(the transport family uses omega = -omega_Eq, the straightened model with
V^infty = 1/2).  The sublevel sets {b : |f(b)| <= threshold} are found in
four batched stages: a Lipschitz screen of whole families on a coarse grid, a
filter on the measurement grid restricted to windows around the coarse nodes
the screen could not rule out, lockstep sign-change bisection of every
bracket, and a check of every length against the polynomial sublevel bound
(Russmann estimate).  The intervals are merged into a sorted disjoint union
whose complement is the surviving (Cantor) parameter set.
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
    "measure_curve",
    "merge_intervals",
    "excluded_to_csv",
    "excluded_summary_json",
]

KINDS = ("transport", "first-order-Melnikov", "second-order-Melnikov")
_SCREEN_GRID = 512  # nodes of the Lipschitz screen
_FINE_GRID = 2 ** 14  # cells of the measurement grid (filter and bisection)
_BLOCK = 2 ** 16  # fine-filter window nodes evaluated at once


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


def _sublevel_runs(who, node, xs, h, tol):
    """Sublevel intervals of many functions from their inside nodes at once.

    ``who``/``node`` list the grid nodes of ``xs`` where function ``who`` has
    h <= 0, sorted by (who, node); ``h(who, x)`` evaluates the indicators
    |f| - alpha at the points x.  Each run of consecutive inside nodes is one
    interval; an end strictly inside the grid is the root found by bisection
    on its bracketing cell, all brackets in lockstep with the steps of the
    scalar rule (an exact zero at the lower end is the root).  Returns
    (who, left, right) of the intervals with right > left, in (who, node) order.
    """
    first = np.ones(len(node), bool)
    first[1:] = (who[1:] != who[:-1]) | (node[1:] != node[:-1] + 1)
    i, k, w = node[first], node[np.roll(first, -1)], who[first]
    lb, rb = np.flatnonzero(i > 0), np.flatnonzero(k < len(xs) - 1)
    lo = np.concatenate([xs[i[lb] - 1], xs[k[rb]]])
    hi = np.concatenate([xs[i[lb]], xs[k[rb] + 1]])
    owner = np.concatenate([w[lb], w[rb]])
    flo = h(owner, lo) if len(lo) else lo
    exact = flo == 0.0
    live = ~exact
    for _ in range(200):
        live &= hi - lo > tol
        s = np.flatnonzero(live)
        if not len(s):
            break
        mid = 0.5 * (lo[s] + hi[s])
        fm = h(owner[s], mid)
        up = (flo[s] <= 0) != (fm <= 0)
        hi[s[up]] = mid[up]
        lo[s[~up]], flo[s[~up]] = mid[~up], fm[~up]
    root = np.where(exact, lo, 0.5 * (lo + hi))
    left, right = xs[i], xs[k]
    left[lb], right[rb] = root[:len(lb)], root[len(lb):]
    keep = right > left
    return w[keep], left[keep], right[keep]


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

    def h(who, x):
        return np.abs(np.asarray(f(x), dtype=float)) - alpha

    hx = h(None, xs)
    flags = ["tangency_suspect"] if np.any(np.abs(hx) < 1e-13) else []
    node = np.flatnonzero(hx <= 0.0)
    _, left, right = _sublevel_runs(np.zeros_like(node), node, xs, h, tol)
    intervals = [(float(l), float(r)) for l, r in zip(left, right)]
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

    1. Screen: one array per l (one per (l, m) for the second order) on the
       512-node grid.  A tuple is skipped when min |f| - lip dx/2 > threshold,
       which is rigorous: Omega_j' increases, so ``dOmax`` (taken at the node
       b1) is the exact sup of |Omega_j'|.
    2. Filter: f is evaluated on the 2^14 + 1-node measurement grid only
       within dx/2 of the coarse nodes with |f| - lip dx/2 <= threshold + 1e-13,
       in blocks of ``_BLOCK`` nodes.  These windows hold every fine node with
       |f| < threshold + 1e-13, so the kept tuples, their inside nodes and
       their tangency flags are those of the whole grid.
    3. Bisection of every bracket of every kept tuple in lockstep.
    4. Russmann check of every interval length, from derivative rows on the
       screen grid (the grid ``russmann_bound`` samples).
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
    G, S = _FINE_GRID, _SCREEN_GRID - 1  # fine nodes m within dx/2 of node i: |S m - G i| <= G/2
    reach_lo = np.maximum(0, -((G // 2 - G * np.arange(S + 1)) // S))
    reach_hi = np.minimum(G, (G * np.arange(S + 1) + G // 2) // S)

    transport = spec.kind == "transport"
    second = spec.kind == "second-order-Melnikov"
    sign = -1.0 if transport else 1.0  # transport: omega = -omega_Eq
    ls = []  # lattice sites, in sorted order
    keys = [(np.zeros(0, int),) * 3 + (np.zeros(0),)]  # (l index, j, j0, thr) per batch
    cells = [(np.zeros(0, int),) * 3]  # (row in batch, first, last fine node) per window

    def site(l):
        ls.append(l)
        lv = np.array(l, dtype=float)
        return (len(ls) - 1, sign * np.tensordot(lv, Ot[site_rows], axes=([0], [0])),
                float(np.dot(np.abs(lv), dOmax[site_rows])), _bracket(l))

    def screen(li, F, lip, thr, j, j0=0):
        """Keep the tuples (l, j[r], j0[r]) whose row F[r] may reach the threshold."""
        A = np.abs(F)
        margin = np.broadcast_to(0.5 * lip * dx, len(A))
        thr = np.broadcast_to(thr, len(A))
        keep = A.min(axis=1) - margin <= thr
        cand = A[keep] - margin[keep, None] <= thr[keep, None] + 1e-13
        r, c = np.nonzero(np.diff(cand, axis=1, prepend=False, append=False))
        cells.append((r[0::2].copy(), reach_lo[c[0::2]], reach_hi[c[1::2] - 1]))
        keys.append((np.full(keep.sum(), li), j[keep], np.broadcast_to(j0, len(A))[keep],
                     thr[keep]))

    if transport:
        # one l of each pair +-l: l = 0 and the sites after it in the mirror order;
        # l = 0 is its own mirror: only j > 0 (the pair (0, 0) is excluded by definition)
        lattice = list(_lattice(sys.d, spec.Lmax))
        for l in lattice[len(lattice) // 2:]:
            li, base, lip_l, br = site(l)
            jcut = int(np.ceil(C0 * br))
            js = np.arange(-jcut if any(l) else 1, jcut + 1)
            thr = spec.gamma ** spec.upsilon * np.maximum(1, np.abs(js)) / br ** spec.tau1
            screen(li, base + 0.5 * js[:, None], lip_l, thr, js)
    elif not second:
        for l in _lattice(sys.d, spec.Lmax):
            li, base, lip_l, br = site(l)
            js = np.setdiff1d(np.arange(1, int(np.ceil(C0 * br)) + 1), sys.sites)
            screen(li, base + Ot[js - 1], lip_l + dOmax[js - 1],
                   spec.gamma * js / br ** spec.tau1, js)
    else:
        jmin = min(j for j in range(1, Jneed) if j not in sys.sites)
        lip_pair = 2.0 * float(np.max(dOmax))
        half_pw = 0.5 * xs ** (2 * jmin)
        for l in _lattice(sys.d, spec.Lmax):
            li, base, lip_l, br = site(l)
            j0cut = min(spec.Jmax,
                        int(np.ceil(spec.c2 * spec.gamma ** (-spec.upsilon)
                                    * br ** spec.tau1)))
            j0s = np.setdiff1d(np.arange(1, j0cut + 1), sys.sites)
            ms = np.arange(1, int(np.ceil(C0 * br)) + 1)
            thr = 2.0 * spec.gamma * ms / br ** spec.tau2
            # f(j0) = g + (b^(2(j0+m)) - b^(2 j0))/2 is increasing in j0
            # toward g = omega.l + m/2, so dist(0, [g - b^(2 jmin)/2, g])
            # lower-bounds |f| for the whole (l, m) family.
            g = base + 0.5 * ms[:, None]
            lo = g - half_pw
            dist = np.where((lo <= 0.0) & (g >= 0.0), 0.0, np.minimum(np.abs(lo), np.abs(g)))
            for m in ms[dist.min(axis=1) - 0.5 * (lip_l + lip_pair) * dx <= thr]:
                j0 = j0s[~np.isin(j0s + m, sys.sites) & (j0s + m <= Jneed)]
                j = j0 + m
                screen(li, base + Ot[j - 1] - Ot[j0 - 1],
                       lip_l + dOmax[j - 1] + dOmax[j0 - 1], thr[m - 1], j, j0)

    # tuples in (l, j) order, the order of the flags and of equal rows
    L, J, J0, T = (np.concatenate(col) for col in zip(*keys))
    order = np.lexsort((J, L))
    L, J, J0, T = L[order], J[order], J0[order], T[order]
    rank = np.argsort(order)  # inverse permutation
    offset = np.cumsum([0] + [len(k[3]) for k in keys])
    own, fa, fb = (np.concatenate(col) for col in zip(*cells))
    own += np.repeat(offset[:-1], [len(c[0]) for c in cells])
    keys.clear()  # the concatenated columns hold the batches now
    cells.clear()
    s = np.argsort(rank[own], kind="stable")
    own, fa, fb = rank[own][s], fa[s], fb[s]
    xf = np.linspace(b0, b1, G + 1)
    Ofs = np.stack([omega(xf, j) for j in sys.sites])
    lvec = np.array(ls, dtype=float).reshape(len(ls), sys.d)
    coef = sign * lvec

    def plus_modes(part, who, row):
        """part + the mode terms of the tuples ``who``, with Omega_j from row(j)."""
        if transport:
            return part + 0.5 * J[who]
        out = part + row(J[who])
        return out - row(J0[who]) if second else out

    def h(who, x):
        part = sum(coef[L[who], k] * omega(x, sj) for k, sj in enumerate(sys.sites))
        return np.abs(plus_modes(part, who, lambda j: omega(x, j))) - T[who]

    per = np.bincount(own, fb - fa + 1, minlength=len(T)).astype(int)
    start = np.cumsum(per) - per
    first_cell = np.searchsorted(own, np.arange(len(T) + 1))
    found = [(np.zeros(0, int),) * 3]  # (inside tuple, inside node, flagged tuple) per block
    t0 = 0
    while t0 < len(T):
        t1 = max(t0 + 1, int(np.searchsorted(start, start[t0] + _BLOCK)))
        c0, c1 = first_cell[t0], first_cell[t1]
        n = fb[c0:c1] - fa[c0:c1] + 1
        who = np.repeat(own[c0:c1], n)
        node = np.arange(n.sum()) + np.repeat(fa[c0:c1] - np.cumsum(n) + n, n)
        base = np.empty(len(node))  # the filter's l-part, taken from the whole grid
        cut = np.r_[0, np.flatnonzero(np.diff(L[who])) + 1, len(node)]
        for a, b in zip(cut[:-1], cut[1:]):
            base[a:b] = (sign * np.tensordot(lvec[L[who[a]]], Ofs, axes=([0], [0])))[node[a:b]]
        fv = plus_modes(base, who, lambda j: omega(xf[node], j))
        fmin = np.minimum.reduceat(np.abs(fv), np.r_[0, np.flatnonzero(np.diff(who)) + 1])
        sel = (fmin <= T[t0:t1])[who - t0]
        who, node = who[sel], node[sel]
        hv = h(who, xf[node])
        found.append((who[hv <= 0.0], node[hv <= 0.0], np.unique(who[np.abs(hv) < 1e-13])))
        t0 = t1

    def key(t):
        return ls[L[t]], int(J[t]), int(J0[t]) if second else None

    inside_who, inside_node, flagged = (np.concatenate(col) for col in zip(*found))
    flags = [f"tangency_suspect@{l},{j},{j0}" for l, j, j0 in map(key, flagged)]
    w, left, right = _sublevel_runs(inside_who, inside_node, xf, h, 1e-12)
    need = set(sys.sites) if transport else {*sys.sites, *J[w].tolist(), *J0[w].tolist()} - {0}
    D = {j: [omega_derivative(xs, j, q) for q in range(q0 + 1)] for j in need}
    rows = []
    violations = 0
    cut = np.flatnonzero(np.diff(w, prepend=-1, append=-1))  # runs of one tuple
    for a, b in zip(cut[:-1], cut[1:]):
        t = w[a]
        table = []
        for q in range(q0 + 1):
            part = sum(coef[L[t], k] * D[sj][q] for k, sj in enumerate(sys.sites))
            table.append(part if transport and q else plus_modes(part, t, lambda j: D[j][q]))
        # russmann_bound samples the screen grid xs itself
        bound = russmann_bound(lambda _, q: table[q], float(T[t]), q0, b0, b1,
                               grid=_SCREEN_GRID)
        for lf, r in zip(left[a:b].tolist(), right[a:b].tolist()):
            violations += r - lf > bound
            rows.append(key(t) + (lf, r, r - lf))

    merged = merge_intervals([(r[3], r[4]) for r in rows])
    tau_used = spec.tau2 if second else spec.tau1
    tail, divergent = _tail_bound(sys.d, spec.Lmax, tau_used, q0)
    scale = spec.gamma ** spec.upsilon if transport else spec.gamma
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
