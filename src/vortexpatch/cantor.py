"""Diophantine exclusion sets in the parameter b and their measure.

Three families of small-divisor conditions are screened over a lattice of
Fourier sites l and mode indices j (and j0 for the second-order family):

* transport:             |omega . l + j/2|            >= gamma^upsilon <j> / <l>^tau1
* first-order-Melnikov:  |omega_Eq . l + Omega_j|     >= gamma <j> / <l>^tau1
* second-order-Melnikov: |omega_Eq . l + Omega_j - Omega_j0|
                                                      >= 2 gamma <j - j0> / <l>^tau2

(the transport family uses omega = -omega_Eq, the straightened model with
V^infty = 1/2).  Each is a divisor f = omega_Eq . l + c + sum_k Omega_k with
signed mode indices k, the model of the transversality scan: ``spectrum`` reads
Omega_k from its tables and bounds |f'| on a cell.  The sublevel sets
{b : |f(b)| <= threshold} are found in four batched stages: a Lipschitz
screen of whole families on a coarse grid that bounds each coarse cell from
both of its ends, a filter on the measurement grid restricted to the windows
of the cells where |f| can reach the threshold, lockstep sign-change bisection
of every bracket, and a check of every length against the polynomial sublevel
bound (Russmann estimate).  The intervals are merged into a sorted disjoint union whose complement is
the surviving (Cantor) parameter set.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .spectral import _csv
from .spectrum import (
    _SLACK,
    FrequencySystem,
    _bracket,
    _cell_sup,
    _derivative_table,
    _lattice,
    _signed,
    omega,
)

__all__ = [
    "DiophantineSpec",
    "ExcludedReport",
    "excluded_measure",
    "merge_intervals",
    "excluded_to_csv",
    "excluded_summary_json",
]

KINDS = ("transport", "first-order-Melnikov", "second-order-Melnikov")
_SCREEN_GRID = 512  # nodes of the Lipschitz screen
_FINE_GRID = 2 ** 14  # cells of the measurement grid (filter and bisection)
_BLOCK = 2 ** 16  # fine-filter window nodes evaluated at once


@dataclass(frozen=True, kw_only=True)
class DiophantineSpec:
    """Exclusion thresholds: gamma scale, exponents, lattice/mode cutoffs."""

    gamma: float
    upsilon: float = 0.5
    tau1: float = 3.0
    tau2: float
    Lmax: int
    Jmax: int = 100
    kind: str

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not all(map(math.isfinite, (self.tau1, self.tau2, self.upsilon))):
            raise ValueError("tau1, tau2 and upsilon must be finite")
        if not self.tau2 > self.tau1:
            raise ValueError("need tau2 > tau1")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.Lmax < 1 or self.Jmax < 1:
            raise ValueError("Lmax and Jmax must be >= 1")
        if not 0.0 < self.upsilon <= 1.0:
            raise ValueError("upsilon must lie in (0, 1]")


# ---------------------------------------------------------------------------
# sublevel sets of a scalar function
# ---------------------------------------------------------------------------

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


def _russmann(cnorm: float, beta: float, alpha: float, q0: int, a: float, b: float) -> float:
    """Quantitative sublevel bound  C alpha^(1/q0) / beta^(1 + 1/q0)  on [a, b].

    ``cnorm`` = ||f||_{C^q0} and the transversality constant
    beta = min_x max_{q<=q0} |d^q f| are taken on the ``_SCREEN_GRID`` nodes of
    [a, b].  The constant is the constructive

        C = 2 (q0 + 1) (b - a + 1) (q0!)^(1/q0) (1 + ||f||_{C^q0})^(1 + 1/q0),

    obtained by splitting [a, b] into at most (q0 + 1) * (b - a + 1) * ||f||
    monotonicity cells of the first derivative that attains the lower bound
    beta, and applying the one-cell estimate |{|f| <= alpha}| <=
    2 (q0! alpha / beta)^(1/q0) on each.  Infinite when beta = 0.
    """
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
    rows: list  # (l, j, j0, left, right, length)
    tail_bound: float
    tail_divergent: bool
    russmann_violations: int
    flags: list
    profile: dict  # stage seconds and counts of the run


def _ragged(start, n):
    """The runs start[i], ..., start[i] + n[i] - 1, concatenated."""
    return np.arange(n.sum()) + np.repeat(start - np.cumsum(n) + n, n)


def _tail_bound(d: int, Lmax: int, tau: float, q0: int):
    """sum_{|l| > Lmax} <l>^(-tau/q0) over the d-lattice (counted per shell)."""
    p = tau / q0
    if p <= d:
        return math.inf, True
    # shell count <= 2 d (2 n)^{d-1}; integral comparison for the n-sum
    coef = 2 * d * 2 ** (d - 1)
    total = coef * (Lmax + 1) ** (d - 1 - p) + coef * (Lmax + 1) ** (d - p) / (p - d)
    return float(total), False


def _modes(kind: str, j, j0) -> list:
    """Signed mode indices k of the divisors f = omega_Eq . l + c + sum_k Omega_k of
    the tuples (l, j, j0) of ``kind``.  The transport divisor omega . l + j/2 with
    omega = -omega_Eq is -f with no modes and c = -j/2 (only |f| is used)."""
    return [] if kind == "transport" else [j] if kind == "first-order-Melnikov" else [j, -j0]


def _divisor(kind: str, part, j, j0, row, q: int = 0):
    """d^q f of the tuples (l, j, j0) of ``kind`` from its l-part ``part``: part + c,
    c at q = 0 only, then + Omega_k^(q) = row(k) for each k of ``_modes``."""
    f = part - 0.5 * j if kind == "transport" and q == 0 else part
    for k in _modes(kind, j, j0):
        f = f + row(k)
    return f


def excluded_measure(sys: FrequencySystem, spec: DiophantineSpec) -> ExcludedReport:
    """All excluded parameter intervals of the given small-divisor family.

    On a screen cell [x_i, x_i+1], lipc_i, the ``_cell_sup`` of f's l-part and
    modes at x_i+1, bounds |f'|, and lip, the same sum at b1, bounds it on
    [b0, b1].  With t = threshold + 1e-13:

    1. Screen, one batch per l: |f| of every tuple at the 512 screen nodes (for
       the second order only at the ends of the cells of its (l, m) family that
       the family bound below leaves).  A cell can hold a point with |f| <= t
       only if (|f(x_i)| - t)+ + (|f(x_i+1)| - t)+ <= lip dx, then only if the
       same holds with lipc_i dx; the points of such a cell with
       |f(x_i)| - lipc_i (x - x_i) <= t and |f(x_i+1)| - lipc_i (x_i+1 - x) <= t,
       widened by one fine node on each side, are its window.
    2. Filter: f is evaluated on the 2^14 + 1-node measurement grid only
       inside the windows, in blocks of ``_BLOCK`` nodes.  The windows hold
       every fine node with |f| < threshold + 1e-13, so the kept tuples, their
       inside nodes and their tangency flags are those of the whole grid.
    3. Bisection of every bracket of every kept tuple in lockstep.
    4. Russmann check (``_russmann``) of every interval length, from the
       derivative rows of all tuples with intervals on the screen grid, built
       in the order of operations of a per-tuple derivative call.

    The kind enters only through the tuples and thresholds it generates, its
    divisors' constant and mode indices (``_divisor``) and the tail bound.
    ``report.profile`` holds the seconds of the four stages, the (l, m)
    families the family bound skips, the tuples screened, kept by the filter
    and with brackets bisected, and the window nodes the filter evaluates.
    """
    if spec.tau1 <= sys.d:
        raise ValueError("need tau1 > d for the lattice sums")
    t_screen = time.perf_counter()
    b0, b1, q0, C0 = sys.b0, sys.b1, sys.q0, sys.C0
    xs = np.linspace(b0, b1, _SCREEN_GRID)
    dx = xs[1] - xs[0]
    Jneed = max(int(np.ceil(C0 * spec.Lmax)) + spec.Jmax + 2, max(sys.sites) + 2)
    Ot, dOt = _derivative_table(Jneed, xs, range(2))  # Omega_j and Omega_j'
    dOmax = dOt[:, -1]  # sup of Omega_j' on [b0, b1]
    sites = list(sys.sites)
    dOs = dOt[sites]
    G, S = _FINE_GRID, _SCREEN_GRID - 1  # fine node m lies in cell floor(m S / G)

    ls = []  # lattice sites, in sorted order
    keys = [(np.zeros(0, int),) * 3 + (np.zeros(0),)]  # (l index, j, j0, thr) per batch
    cells = [(np.zeros(0, int),) * 3]  # (row in batch, first, last fine node) per window
    count = {"families_skipped": 0, "tuples_screened": 0}

    def site(l):
        ls.append(l)
        lv = np.array(l, dtype=float)
        return (len(ls) - 1, np.tensordot(lv, Ot[sites], axes=([0], [0])),
                float(np.dot(np.abs(lv), dOmax[sites])), _bracket(l))

    def windows(li, r, c, exl, exr, thr, j, j0):
        """Store the windows of the tuples (l, j[r], j0[r]) on the cells c.

        Rows r come sorted, each with its cells in increasing order; exl, exr
        are (|f| - t)+ at the two ends of the cell.
        """
        if not len(r):
            return
        e = c + 1  # every Omega_j' peaks on the cell at its right end
        lipc = _cell_sup(np.abs(np.array(ls[li], dtype=float)) @ dOs[:, e], dOt,
                         _modes(spec.kind, j[r], j0[r]), e)
        reach = lipc * (1.0 + _SLACK) * dx
        ok = exl + exr <= reach
        r, c, exl, exr, reach = r[ok], c[ok], exl[ok], exr[ok], reach[ok]
        # the fractions of the cell that each end rules out (reach = 0 only where f' = 0)
        u = np.divide(exl, reach, out=np.zeros_like(reach), where=exl > 0)
        v = np.divide(exr, reach, out=np.zeros_like(reach), where=exr > 0)
        lo = np.maximum(np.ceil(G * (c + u) / S).astype(int) - 1, 0)
        hi = np.minimum(np.floor(G * (c + 1 - v) / S).astype(int) + 1, G)
        # windows of adjacent cells of a row may share nodes: start each one after
        # the nodes of the row's earlier windows (every node once per tuple)
        shift = r * (G + 1)
        done = np.maximum.accumulate(shift + hi)
        lo[1:] = np.maximum(lo[1:], done[:-1] - shift[1:] + 1)
        ok = lo <= hi
        r, lo, hi = r[ok], lo[ok], hi[ok]
        first = np.ones(len(r), bool)
        first[1:] = r[1:] != r[:-1]
        rows = r[first]
        cells.append((np.cumsum(first) - 1, lo, hi))
        keys.append((np.full(len(rows), li), j[rows], j0[rows], thr[rows]))

    def screen(li, base, lip_l, thr, j, j0):
        """Windows of the tuples (l, j[r], j0[r]) from |f| on all screen nodes."""
        count["tuples_screened"] += len(j)
        A = np.abs(_divisor(spec.kind, base, j[:, None], j0[:, None],
                            lambda k: _signed(Ot, k[:, 0])))
        t = thr + 1e-13
        reach = _cell_sup(lip_l, dOmax, _modes(spec.kind, j, j0)) * (1.0 + _SLACK) * dx
        reach = np.broadcast_to(reach, len(j))
        rows = np.flatnonzero(A.min(axis=1) - t <= 0.5 * reach)  # the rows a cell may pass
        ex = np.maximum(A[rows] - t[rows, None], 0.0)
        r, c = np.nonzero(ex[:, :-1] + ex[:, 1:] <= reach[rows, None])
        windows(li, rows[r], c, ex[r, c], ex[r, c + 1], thr, j, j0)

    transport = spec.kind == "transport"
    scale = spec.gamma ** spec.upsilon if transport else spec.gamma  # of thresholds and tail
    if spec.kind != "second-order-Melnikov":
        # transport takes one l of each pair +-l: l = 0 and the sites after it in the
        # mirror order; l = 0 is its own mirror: only j > 0 (the pair (0, 0) is
        # excluded by definition)
        lattice = list(_lattice(sys.d, spec.Lmax))
        for l in lattice[len(lattice) // 2 if transport else 0:]:
            li, base, lip_l, br = site(l)
            jcut = int(np.ceil(C0 * br))
            js = (np.arange(-jcut if any(l) else 1, jcut + 1) if transport
                  else np.array([j for j in range(1, jcut + 1) if j not in sys.sites]))
            thr = scale * np.maximum(1, np.abs(js)) / br ** spec.tau1
            screen(li, base, lip_l, thr, js, np.zeros_like(js))
    else:
        jmin = min(j for j in range(1, Jneed) if j not in sys.sites)
        lip_pair = 2.0 * float(np.max(dOmax))
        half_pw = 0.5 * xs ** (2 * jmin)
        normal = np.ones(Jneed + 1, bool)  # j0 + m <= Jmax + ceil(C0 Lmax) < Jneed
        normal[list(sys.sites)] = False
        for l in _lattice(sys.d, spec.Lmax):
            li, base, lip_l, br = site(l)
            j0cut = min(spec.Jmax, int(np.ceil(spec.gamma ** (-spec.upsilon) * br ** spec.tau1)))
            j0s = np.array([j for j in range(1, j0cut + 1) if j not in sys.sites], dtype=int)
            ms = np.arange(1, int(np.ceil(C0 * br)) + 1)
            thr = 2.0 * spec.gamma * ms / br ** spec.tau2
            # f(j0) = g + (b^(2(j0+m)) - b^(2 j0))/2 is increasing in j0 toward
            # g = omega.l + m/2, so dist(0, [g - b^(2 jmin)/2, g]) lower-bounds |f|
            # for the whole (l, m) family, and the cell test on it rules out cells
            # of all its rows at once.  It needs dist <= near at a node, first
            # checked from the range of omega.l (near: t, the reach, and rounding).
            reach = (lip_l + lip_pair) * (1.0 + _SLACK) * dx
            near = thr[-1] + reach + 1e-12
            ms = ms[(0.5 * ms <= np.max(half_pw - base) + near)
                    & (0.5 * ms >= -np.max(base) - near)]
            g = base + 0.5 * ms[:, None]
            ex = np.maximum(np.maximum(g - half_pw, -g) - (thr[ms - 1] + 1e-13)[:, None], 0.0)
            live = ex[:, :-1] + ex[:, 1:] <= reach
            fam, fc = np.nonzero(live)  # the cells of each family left, in order
            nf = np.bincount(fam, minlength=len(ms))
            count["families_skipped"] += len(thr) - int(np.count_nonzero(nf))
            # rows (m, j0), stably sorted by j, and each row on every cell of its family
            rf, rj = np.nonzero(normal[j0s + ms[:, None]] & (nf > 0)[:, None])
            by_j = np.argsort(j0s[rj] + ms[rf], kind="stable")
            rf, rj = rf[by_j], rj[by_j]
            m, j0 = ms[rf], j0s[rj]
            j = j0 + m
            count["tuples_screened"] += len(j)
            r = np.repeat(np.arange(len(j)), nf[rf])
            c = fc[_ragged(np.cumsum(nf)[rf] - nf[rf], nf[rf])]
            t = (thr[m - 1] + 1e-13)[r]
            exl, exr = (np.maximum(np.abs(_divisor(spec.kind, base[x], j[r], j0[r],
                                                   lambda k: _signed(Ot, k, x))) - t, 0.0)
                        for x in (c, c + 1))
            lip = _cell_sup(lip_l, dOmax, _modes(spec.kind, j, j0))
            ok = exl + exr <= lip[r] * (1.0 + _SLACK) * dx
            windows(li, r[ok], c[ok], exl[ok], exr[ok], thr[m - 1], j, j0)

    # the batches come in (l, j) order, the order of the flags and of equal rows
    t_filter = time.perf_counter()
    L, J, J0, T = (np.concatenate(col) for col in zip(*keys))
    offset = np.cumsum([0] + [len(k[3]) for k in keys])
    own, fa, fb = (np.concatenate(col) for col in zip(*cells))
    own += np.repeat(offset[:-1], [len(c[0]) for c in cells])
    keys.clear()  # the concatenated columns hold the batches now
    cells.clear()
    xf = np.linspace(b0, b1, G + 1)
    Ofs = np.stack([omega(xf, j) for j in sys.sites])
    lvec = np.array(ls, dtype=float).reshape(len(ls), sys.d)

    def h(who, x):
        part = sum(lvec[L[who], k] * omega(x, sj) for k, sj in enumerate(sys.sites))
        return np.abs(_divisor(spec.kind, part, J[who], J0[who], lambda k: omega(x, k))) - T[who]

    per = np.bincount(own, fb - fa + 1, minlength=len(T)).astype(int)
    start = np.cumsum(per) - per
    first_cell = np.searchsorted(own, np.arange(len(T) + 1))
    found = [(np.zeros(0, int),) * 3]  # (inside tuple, inside node, flagged tuple) per block
    kept = 0
    t0 = 0
    while t0 < len(T):
        t1 = max(t0 + 1, int(np.searchsorted(start, start[t0] + _BLOCK)))
        c0, c1 = first_cell[t0], first_cell[t1]
        n = fb[c0:c1] - fa[c0:c1] + 1
        who = np.repeat(own[c0:c1], n)
        node = _ragged(fa[c0:c1], n)
        base = np.empty(len(node))  # the filter's l-part, taken from the whole grid
        cut = np.r_[0, np.flatnonzero(np.diff(L[who])) + 1, len(node)]
        for a, b in zip(cut[:-1], cut[1:]):
            base[a:b] = np.tensordot(lvec[L[who[a]]], Ofs, axes=([0], [0]))[node[a:b]]
        fv = _divisor(spec.kind, base, J[who], J0[who], lambda k: omega(xf[node], k))
        fmin = np.minimum.reduceat(np.abs(fv), np.r_[0, np.flatnonzero(np.diff(who)) + 1])
        keep = fmin <= T[t0:t1]
        kept += int(np.count_nonzero(keep))
        sel = keep[who - t0]
        who, node = who[sel], node[sel]
        hv = h(who, xf[node])
        near = who[np.abs(hv) < 1e-13]  # sorted, so its distinct tuples are where it changes
        found.append((who[hv <= 0.0], node[hv <= 0.0], near[np.diff(near, prepend=-1) != 0]))
        t0 = t1

    def key(t):
        return ls[L[t]], int(J[t]), int(J0[t]) or None

    t_bisect = time.perf_counter()
    inside_who, inside_node, flagged = (np.concatenate(col) for col in zip(*found))
    flags = [f"tangency_suspect@{l},{j},{j0}" for l, j, j0 in map(key, flagged)]
    w, left, right = _sublevel_runs(inside_who, inside_node, xf, h, 1e-12)

    t_russmann = time.perf_counter()
    first = np.flatnonzero(np.diff(w, prepend=-1))  # runs of one tuple
    tw = w[first]
    jtop = max([sys.sites[-1]] + [int(np.max(np.abs(k), initial=0))
                                  for k in _modes(spec.kind, J[tw], J0[tw])])
    # max over q of |d^q f| per tuple on the screen grid (its max and min are the
    # ||f||_{C^q0} and beta of ``_russmann``), each row summed in the order of a
    # per-tuple derivative call, ``step`` tuples at a time
    peak = np.zeros((len(tw), len(xs)))
    step = _BLOCK // len(xs)
    for q in range(q0 + 1):
        Dq = _derivative_table(jtop, xs, [q])[0]
        for a in range(0, len(tw), step):
            col, out = tw[a:a + step, None], peak[a:a + step]
            part = sum(lvec[L[col], k] * Dq[sj] for k, sj in enumerate(sys.sites))
            part = _divisor(spec.kind, part, J[col], J0[col], lambda k: _signed(Dq, k[:, 0]), q)
            np.maximum(out, np.abs(part), out=out)
    bound = [_russmann(c, beta, alpha, q0, b0, b1) for c, beta, alpha
             in zip(peak.max(axis=1).tolist(), peak.min(axis=1).tolist(), T[tw].tolist())]
    runs = np.diff(np.r_[first, len(w)])
    violations = int(np.count_nonzero(right - left > np.repeat(bound, runs)))
    rows = [key(t) + (lf, r, r - lf)
            for t, lf, r in zip(w.tolist(), left.tolist(), right.tolist())]
    inner = w[(left > b0) | (right < b1)]  # the tuples of the ends inside the grid, sorted
    bisected = int(np.count_nonzero(np.diff(inner, prepend=-1)))
    profile = {"screen_s": t_filter - t_screen, "filter_s": t_bisect - t_filter,
               "bisect_s": t_russmann - t_bisect, "russmann_s": time.perf_counter() - t_russmann,
               **count, "tuples_kept": kept, "tuples_bisected": bisected,
               "window_nodes": int(per.sum())}

    merged = merge_intervals([(r[3], r[4]) for r in rows])
    tau = spec.tau2 if spec.kind == "second-order-Melnikov" else spec.tau1
    tail, divergent = _tail_bound(sys.d, spec.Lmax, tau, q0)
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
        profile=profile,
    )


def excluded_to_csv(report: ExcludedReport) -> str:
    return _csv("l,j,j0,left,right,length", report.rows)


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
