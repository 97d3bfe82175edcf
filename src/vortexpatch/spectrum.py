"""Equilibrium frequency system Omega_j(b) and its transversality structure.

Omega_j(b) = sgn(j)(|j| - 1 + b^(2|j|))/2 is polynomial in b, so all
b-derivatives are exact monomial-rule evaluations (no finite differences).
The module verifies the linear independence (non-degeneracy) of the
tangential frequencies, and scans the four transversality cases for a
quantitative lower bound rho0_hat on the maximal-derivative functional
f -> min_b max_{q<=q0} |d^q f| / <l>.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .spectral import _csv

__all__ = [
    "FrequencySystem",
    "omega",
    "omega_derivative",
    "nondegeneracy_test",
    "transversality_scan",
    "perturbed_transversality",
    "scan_report_json",
    "scan_report_csv",
]


def omega(b, j):
    """Omega_j(b) = sgn(j)(|j| - 1 + b^(2|j|))/2 for j != 0.

    ``j`` may be an integer array broadcasting against ``b``; each value is
    that of its scalar-j call (numpy squares for the scalar exponent 2 but
    calls pow for an array exponent, so |j| = 1 squares explicitly).
    """
    j = np.asarray(j) if np.ndim(j) else int(j)
    if np.any(j == 0):
        raise ValueError("Omega is defined for j != 0")
    aj = abs(j)
    b = np.asarray(b, dtype=float)
    power = np.where(aj == 1, b * b, b ** (2 * aj)) if np.ndim(j) else b ** (2 * aj)
    return np.sign(j) * 0.5 * (aj - 1.0 + power)


def omega_derivative(b, j, q):
    """Exact q-th b-derivative of Omega_j by the monomial rule."""
    j = int(j)
    if j == 0:
        raise ValueError("Omega is defined for j != 0")
    q = int(q)
    if q < 0:
        raise ValueError("derivative order must be >= 0")
    aj = abs(j)
    b = np.asarray(b, dtype=float)
    if q == 0:
        return omega(b, j)
    if q > 2 * aj:
        return np.zeros_like(b)
    coeff = 0.5 * math.perm(2 * aj, q)  # (2j)(2j-1)...(2j-q+1)
    return np.sign(j) * coeff * b ** (2 * aj - q)


@dataclass(frozen=True)
class FrequencySystem:
    """Tangential set S, parameter interval, and the derived order q0 = 2 j_d + 2."""

    sites: tuple
    b0: float
    b1: float

    def __post_init__(self):
        sites = tuple(int(j) for j in self.sites)
        if not sites or any(j < 1 for j in sites) or list(sites) != sorted(set(sites)):
            raise ValueError("the tangential set must be strictly increasing positive integers")
        if not 0.0 < self.b0 < self.b1 < 1.0:
            raise ValueError("need 0 < b0 < b1 < 1")
        object.__setattr__(self, "sites", sites)

    @property
    def d(self) -> int:
        return len(self.sites)

    @property
    def q0(self) -> int:
        return 2 * self.sites[-1] + 2

    def omega_sup(self) -> float:
        """max_j sup_{[b0,b1]} |Omega_j| over the tangential set (Omega increases in b)."""
        return max(float(omega(self.b1, j)) for j in self.sites)

    @property
    def C0(self) -> float:
        """Index cutoff constant 2(sup|omega_Eq| + 1) + 1: by Omega_j >= (j - 1)/2, a
        divisor with a mode index beyond C0 <l> exceeds <l> in size."""
        return 2.0 * (self.omega_sup() + 1.0) + 1.0


def nondegeneracy_test(sys: FrequencySystem) -> bool:
    """Full column rank of {Omega_{j_1}, ..., Omega_{j_d}, 1} in the monomial basis.

    Exact integer arithmetic on the doubled coefficients 2 Omega_j.
    """
    polys = [{0: j - 1, 2 * j: 1} for j in sys.sites] + [{0: 2}]  # 2 Omega_j, then 2
    degrees = sorted({d for p in polys for d in p})
    return _rank([[p.get(d, 0) for p in polys] for d in degrees]) == len(polys)


def _rank(rows) -> int:
    """Rank of an integer matrix by exact row reduction over the Python ints.

    Below the pivot p of column c each row r becomes p r - r[c] (pivot row):
    no division, and every entry stays an integer.
    """
    rows = [[int(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][c]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c]
            rows[r] = [p * x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# transversality scan
# ---------------------------------------------------------------------------

def _lattice(d: int, Lmax: int):
    """The Fourier sites l in Z^d with |l|_1 <= Lmax, in lexicographic order: the band
    order of ``spectral.LinearOperatorMatrix``, -l at the reversed position of l."""
    for l in itertools.product(range(-Lmax, Lmax + 1), repeat=d):
        if sum(abs(x) for x in l) <= Lmax:
            yield l


def _bracket(l) -> int:
    """<l> = max(1, |l|_1)."""
    return max(1, sum(abs(x) for x in l))


@dataclass
class ScanReport:
    rho0_hat: float
    case: str
    witness: dict
    per_case: dict
    per_l: list
    profile: dict


_COARSE_POINTS = 64  # coarse knots: the per-l scores and the cells of the bound
_SLACK = 1e-12  # relative guard of the cell bounds against rounding
_BATCH = 256  # tuples, or (tuple, cell) pairs, evaluated at once
_PERTURBED_SAMPLES = 2  # random offsets of the perturbed scan, besides the aligned one


def _derivative_table(Jmax: int, bs: np.ndarray, qs) -> np.ndarray:
    """D[i, j, g] = d^q Omega_j (b_g) for 0 < j <= Jmax and the i-th order q of ``qs``;
    row j = 0 is zero (no mode)."""
    T = np.zeros((len(qs), Jmax + 1, len(bs)))
    for i, q in enumerate(qs):
        for j in range(1, Jmax + 1):
            T[i, j] = omega_derivative(bs, j, q)
    return T


def _signed(T, k, *at):
    """Omega_k = sign(k) T[|k|, *at] of a small divisor's signed mode indices k
    (an array) from a table T with one row per j >= 0, e.g. of _derivative_table:
    Omega_{-k} = -Omega_k bit for bit, and k = 0 (no mode) reads the zero row."""
    out = T[(np.abs(k), *at)]
    if k.min(initial=0) < 0:  # rows of indices >= 0 are read as they are
        out *= -1.0 if k.max() < 0 else np.sign(k).reshape(k.shape + (1,) * (T.ndim - 1 - len(at)))
    return out


def _cell_sup(lsup, T, ks, *at):
    """Monotone sup of |f^(q+1)| on cells [c, c'], f = omega_Eq . l + c + sum_k Omega_k:
    lsup = |l|.Omega_S^(q+1)(c') plus sum_k |Omega_k^(q+1)(c')| from the table T of
    Omega_j^(q+1) at the right ends c' (every monomial derivative of Omega_j is >= 0
    and nondecreasing for b > 0).  Linear: lsup and T may share a factor > 0."""
    for k in ks:
        lsup = lsup + T[(np.abs(k), *at)]
    return lsup


def _block_rows(nj: np.ndarray, jcut: int, lz: bool, half: float) -> dict:
    """The tuples of one l as columns, in generation order (cases i to iv,
    sigma = +1 before -1, case iv pairs j > j' in row-major order), each with
    its constant and its signed mode indices k1, k2 (0: no mode)."""
    hi, lo = np.tril_indices(len(nj), -1)
    hi, lo = nj[hi], nj[lo]
    segs = [] if lz else [(0, 0, np.zeros(1, int), 0, 0, 0, 0.0)]
    for sigma in (1, -1):
        segs.append((1, sigma, nj, 0, 0, 0, sigma * nj * half))
    for sigma in (1, -1):
        segs.append((2, sigma, nj, 0, 0, sigma * nj, 0.0))
    for sigma in (1, -1):
        keep = hi + sigma * lo <= jcut + 2
        segs.append((3, sigma, hi[keep], lo[keep], hi[keep], sigma * lo[keep], 0.0))
    names = ("case", "sigma", "j", "j0", "k1", "k2", "const")
    return {n: np.concatenate([np.broadcast_to(seg[k], seg[2].shape) for seg in segs])
            for k, n in enumerate(names)}


def _presigned(T) -> np.ndarray:
    """S[i, k] = sign(k) T[i, |k|] from a table with a row per j >= 0: rows k = 0..J,
    then -J..-1, where numpy's wrapped index k reads them (exact, as ``_signed``)."""
    S = np.concatenate([T, T[:, :0:-1]], axis=1)
    np.negative(S[:, T.shape[1]:], out=S[:, T.shape[1]:])
    return S


def _knot_order(Sk, base, q, k1, k2, const, out, tmp):
    """|F_q| = |(Omega_k1 + (base_q + const)) + Omega_k2| at the knots into ``out``
    (const only at q = 0), in the order of operations of ``_grid_values``."""
    Sk[q].take(k1, axis=0, out=out, mode="wrap")
    if q == 0:
        out += np.add(base[0], const[:, None], out=tmp)
    else:
        out += base[q]
    out += Sk[q].take(k2, axis=0, out=tmp, mode="wrap")
    return np.abs(out, out=out)


def _knot_cells(v, Uk, hubase, q, k1, k2, out, tmp):
    """Doubled cell bounds |F_q(c_i)| + |F_q(c_i+1)| - h_i U_{q+1}(c_i+1) into
    ``out``; h_i U_{q+1} is the ``_cell_sup`` enclosure, read by signed k."""
    u = Uk[q].take(k1, axis=0, out=out, mode="wrap")
    u += hubase[q]
    u += Uk[q].take(k2, axis=0, out=tmp, mode="wrap")
    return np.subtract(np.add(v[:, :-1], v[:, 1:], out=tmp), u, out=u)


def _grid_values(base, Dj, qs, k1, k2, const, pts):
    """|F_q| of the orders ``qs`` at the points ``pts`` (a row per tuple) of the
    grid of the table Dj[j, q, g] and of the l-part ``base``, shape (orders,
    tuples, points), from the signed mode indices k1, k2; const only at q = 0."""
    qs = np.asarray(qs)[:, None, None]
    F = base[qs, pts[None]]
    F[qs[:, 0, 0] == 0] += const[:, None]
    for k in (k1, k2):
        F += _signed(Dj, k[None, :, None], qs, pts[None])
    return np.abs(F, out=F)


def transversality_scan(sys: FrequencySystem, Lmax: int, grid_size: int,
                        delta: np.ndarray | None = None,
                        delta_prime: float = 0.0) -> ScanReport:
    """Minimum of min_b max_{q<=q0} |d_b^q f(b)| / <l> over the four families.

    (i)   f = omega_Eq . l                               (l != 0)
    (ii)  f = omega_Eq . l + sigma j/2                   (j not in S)
    (iii) f = omega_Eq . l + sigma Omega_j               (j not in S)
    (iv)  f = omega_Eq . l + Omega_j + sigma Omega_j'    (j != j' not in S)

    Index cutoffs j <= C0 <l> (``FrequencySystem.C0``), derived from
    Omega_j >= (j - 1)/2: beyond the cutoff the zeroth derivative alone
    exceeds <l>, so the tuple cannot be the arg min.  In case (iv) the sum
    j + j' (sigma = +1) resp. the gap j - j' (sigma = -1) is capped the same
    way since Omega_j + Omega_j' >= (j + j' - 2)/2 and
    |Omega_j - Omega_j' - (j - j')/2| <= 1/2.

    The result is the exact minimum over the grid, overall and per case;
    ties go to the smaller coarse score, then to the earlier tuple.  Tuples
    are scored on about 64 coarse knots (``per_l``); with b1 added, the knots
    cut [b0, b1] into cells.  On a cell [c, c'] of length h, U_{q+1}(c') of
    ``_cell_sup`` bounds |f^(q+1)|, and
    |f^(q)| >= (|f^(q)(c)| + |f^(q)(c')| - h U_{q+1}(c')) / 2.  The maximum
    over q, over <l> and less a relative 1e-12 for rounding, is a lower bound
    on the grid score in the cell.  Per case, tuples whose bound is below the
    best coarse score are rescored on the full grid, an l at a time in
    ascending order of its lowest bound, on the cells whose bound does not
    exceed the best score so far.  ``delta``/``delta_prime`` add constant
    frequency offsets (perturbed-scan mode).

    Orders are evaluated lazily, q = 2 max(S) first.  Then one probe per case
    of an l, the tuple of the smallest partial score, is scored at every
    order; it lowers the running minimum of the l and the running cap of its
    case (the smallest coarse score times 1 + 1e-12).  A tuple is dropped once
    its partial coarse score exceeds that minimum, the score times 1 + 1e-12
    exceeds the cap, and every partial cell bound exceeds the cap.  This is
    exact, bit for bit: a partial value (a maximum over some orders) bounds
    the full one from below, and the minimum and caps only fall.  The
    rescoring stops a (tuple, cell) pair once its first order exceeds the
    best score.  ``report.profile`` counts the work (see ``vpatch spectrum``).
    """
    if Lmax < 1:
        raise ValueError("Lmax must be >= 1")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    t_coarse = time.perf_counter()
    bs = np.linspace(sys.b0, sys.b1, grid_size)
    step = max(1, grid_size // _COARSE_POINTS)
    knots = np.arange(0, grid_size, step)
    Pc = len(knots)  # the coarse subgrid; a tail cell may end at b1
    if knots[-1] != grid_size - 1:
        knots = np.append(knots, grid_size - 1)
    h = np.diff(bs[knots])
    cellpts = np.minimum(knots[:-1, None] + np.arange(step + 1), knots[1:, None])
    q0, C0 = sys.q0, sys.C0
    Jmax = max(int(np.ceil(C0 * Lmax)), max(sys.sites) + 2)
    D = _derivative_table(Jmax, bs, range(q0 + 1))
    Dj = D.transpose(1, 0, 2)  # a row per j
    Dk = np.concatenate([D[:, :, knots], _derivative_table(Jmax, bs[knots], [q0 + 1])])
    Sk, Uk = _presigned(Dk[:q0 + 1]), np.abs(_presigned(Dk[1:, :, 1:] * h))
    K = len(knots)
    Dkj, kpts = Dk.transpose(1, 0, 2), np.broadcast_to(np.arange(K), (4, K))  # 4 probes at most
    delta = np.zeros(sys.d) if delta is None else np.asarray(delta, dtype=float)
    ksites, lsites = Dk[:, list(sys.sites)], D[:, list(sys.sites)]
    nonsites = np.array([j for j in range(1, Jmax + 1) if j not in sys.sites])
    lattice = list(_lattice(sys.d, Lmax))
    # q = 2 max(S), then the even orders and the odd ones, each from the highest:
    # of the sequences tried, it drops the most tuples early; it sets only the work
    top = 2 * sys.sites[-1]
    orders = [top] + sorted(set(range(q0 + 1)) - {top}, key=lambda q: (q % 2, -q))

    # buffers: one order's values and cell bounds, running maxima (two, to
    # compact into the other), scratch
    a, tmp, *vals = (np.empty((_BATCH, K)) for _ in range(4))
    lq, ltmp, *bnds = (np.empty((_BATCH, K - 1)) for _ in range(4))

    per_l, kept, blocks, gen0 = [], [], {}, 0  # blocks: the rows by (<l>, l = 0)
    dropped, evals = np.zeros(len(orders) - 1, int), 0
    cap = np.full(4, np.inf)  # smallest coarse score per case, plus slack
    for li, l in enumerate(lattice):
        lv = np.array(l, dtype=float)
        br = _bracket(l)
        base = np.tensordot(lv, ksites[:q0 + 1], axes=([0], [1]))
        # coarse columns from a coarse-only product, so per_l keeps its bits
        base[:, :Pc] = np.tensordot(lv, ksites[:q0 + 1, :, :Pc], axes=([0], [1]))
        base[0] = base[0] + float(np.dot(delta, lv))
        hubase = np.tensordot(np.abs(lv), ksites[1:, :, 1:], axes=([0], [1])) * h
        if (br, not any(l)) not in blocks:
            jcut = max(int(np.ceil(C0 * br)), max(sys.sites) + 2)
            blocks[br, not any(l)] = _block_rows(nonsites[nonsites <= jcut], jcut, not any(l),
                                                 0.5 + delta_prime)
        rows = blocks[br, not any(l)]
        n = len(rows["case"])
        scale = (1.0 - _SLACK) / (2.0 * br)  # doubled cell bound -> cell bound

        def order(q, at, out, cout):
            """|F_q| at the knots and the doubled cell bounds of the tuples ``at``."""
            m, k1, k2 = len(at), rows["k1"][at], rows["k2"][at]
            const = rows["const"][at] if q == 0 else None
            v = _knot_order(Sk, base, q, k1, k2, const, out[:m], tmp[:m])
            return v, _knot_cells(v, Uk, hubase, q, k1, k2, cout[:m], ltmp[:m])

        lmin, got = np.inf, []  # got: the chunks' tuples that may be candidates
        for s0 in range(0, n, _BATCH):
            at = np.arange(s0, min(s0 + _BATCH, n))
            amax, lb = order(orders[0], at, vals[0], bnds[0])
            part = amax[:, :Pc].min(axis=1) / br
            evals += len(at)
            if s0 == 0:  # one probe per case of the l, scored on every order
                edges = np.searchsorted(rows["case"][at], np.arange(5))
                probe = [e + int(np.argmin(part[e:f])) for e, f in zip(edges[:-1], edges[1:])
                         if e < f]
                p = at[probe]
                rest = _grid_values(base, Dkj, orders[1:], rows["k1"][p], rows["k2"][p],
                                    rows["const"][p], kpts[:len(p)])
                full = np.maximum(amax[probe], rest.max(axis=0))[:, :Pc].min(axis=1) / br
                lmin = float(np.min(full))
                np.minimum.at(cap, rows["case"][p], full * (1.0 + _SLACK))
                evals += len(p) * (len(orders) - 1)
            c = cap[rows["case"][at]]  # the caps stay put until the batch is scored
            for s, q in enumerate(orders[1:], 1):
                live = ((part <= lmin) | (part * (1.0 + _SLACK) <= c)
                        | (lb.min(axis=1) * scale <= c)).nonzero()[0]
                dropped[s - 1] += len(at) - len(live)
                at, c, m = at[live], c[live], len(live)
                amax = amax.take(live, axis=0, out=vals[s % 2][:m], mode="clip")
                lb = lb.take(live, axis=0, out=bnds[s % 2][:m], mode="clip")
                v, cells = order(q, at, a, lq)
                np.maximum(amax, v, out=amax)
                np.maximum(lb, cells, out=lb)
                part = amax[:, :Pc].min(axis=1) / br
                evals += m
            # the survivors are scored on every order
            lmin = min(lmin, float(np.min(part, initial=np.inf)))
            np.minimum.at(cap, rows["case"][at], part * (1.0 + _SLACK))
            bound = lb.min(axis=1) * scale
            live = bound <= cap[rows["case"][at]]
            at = at[live]
            got.append({"bound": bound[live], "cells": lb[live] * scale, "gen": gen0 + at,
                        "coarse": part[live], **{name: v[at] for name, v in rows.items()}})
        kept.append({name: np.concatenate([g[name] for g in got]) for name in got[0]})
        per_l.append((list(l), lmin))
        gen0 += n
    del a, tmp, vals, lq, ltmp, bnds  # the fine pass reuses their memory
    t_fine = time.perf_counter()

    def fine_base(li):
        lv = np.array(lattice[li], dtype=float)
        base = np.tensordot(lv, lsites, axes=([0], [1]))
        base[0] += float(np.dot(delta, lv))
        return base

    per_case, candidates, pairs, fine_evals = {}, 0, 0, 0
    for c, name in enumerate(("i", "ii", "iii", "iv")):
        cand = [np.flatnonzero((k["case"] == c) & (k["bound"] <= cap[c])) for k in kept]
        lows = {li: np.min(k["bound"][r]) for li, (k, r) in enumerate(zip(kept, cand)) if len(r)}
        candidates += sum(map(len, cand))
        best = (cap[c], np.inf)  # (score, coarse score, generation, l, row)
        for li in sorted(lows, key=lows.get):
            k = kept[li]
            rs = cand[li][k["bound"][cand[li]] <= best[0]]
            if not len(rs):
                continue
            base, br = fine_base(li), _bracket(lattice[li])
            rr, kk = np.nonzero(k["cells"][rs] <= best[0])
            pair = np.full(len(rr), np.inf)
            pairs += len(rr)
            for s in range(0, len(rr), _BATCH):
                # the first order on every pair, the other orders on the pairs it leaves
                at, prev = np.arange(s, min(s + _BATCH, len(rr))), None
                for qs in (orders[:1], orders[1:]):
                    p = rs[rr[at]]
                    A = _grid_values(base, Dj, qs, k["k1"][p], k["k2"][p], k["const"][p],
                                     cellpts[kk[at]]).max(axis=0)
                    if prev is not None:
                        np.maximum(A, prev, out=A)
                    score = A.min(axis=1)
                    live = score / br <= best[0]
                    at, prev, score = at[live], A[live], score[live]
                    fine_evals += len(p) * len(qs)
                pair[at] = score
            starts = np.flatnonzero(np.r_[True, rr[1:] != rr[:-1]])
            fs = np.minimum.reduceat(pair, starts) / br
            rs = rs[rr[starts]]
            i = np.lexsort((k["gen"][rs], k["coarse"][rs], fs))[0]
            best = min(best, (float(fs[i]), float(k["coarse"][rs[i]]), int(k["gen"][rs[i]]),
                              li, rs[i]))
        li, r = best[3:]
        k = kept[li]
        A = _grid_values(fine_base(li), Dj, range(q0 + 1), k["k1"][[r]], k["k2"][[r]],
                         k["const"][[r]], np.arange(grid_size)[None, :])[:, 0]
        g = int(np.argmin(np.max(A, axis=0)))
        sigma, j, j0 = (int(k[n][r]) for n in ("sigma", "j", "j0"))
        witness = {"b": float(bs[g]), "l": list(lattice[li]), "j": j or None,
                   "j0": j0 or None, "q": int(np.argmax(A[:, g])), "sigma": sigma or None}
        per_case[name] = (best[:3], witness)
    case = min(per_case, key=lambda c: per_case[c][0])
    profile = {"coarse_s": t_fine - t_coarse, "fine_s": time.perf_counter() - t_fine,
               "tuples": gen0, "orders": orders, "order_evaluations": evals,
               "dropped_after_order": dropped.tolist(), "candidates": candidates,
               "pairs_rescored": pairs, "pair_order_evaluations": fine_evals}
    return ScanReport(
        rho0_hat=per_case[case][0][0],
        case=case,
        witness=per_case[case][1],
        per_case={c: {"rho0_hat": k[0], "witness": w} for c, (k, w) in per_case.items()},
        per_l=per_l,
        profile=profile,
    )


def perturbed_transversality(sys: FrequencySystem, eps_hat: float, Lmax: int,
                             grid_size: int, seed: int, baseline: ScanReport) -> dict:
    """Scan with bounded synthetic frequency offsets |delta| <= eps_hat.

    Samples ``_PERTURBED_SAMPLES`` random offsets plus the worst-case direction
    aligned against the witness of the unperturbed scan ``baseline``; reports
    the minimum rho0_hat over all perturbations and whether it retains half of
    the unperturbed value.
    """
    rng = np.random.default_rng(seed)
    results = []
    offsets = [rng.uniform(-eps_hat, eps_hat, sys.d) for _ in range(_PERTURBED_SAMPLES)]
    lw = np.array(baseline.witness["l"], dtype=float)
    align = -np.sign(lw) * eps_hat if np.any(lw) else np.full(sys.d, eps_hat)
    offsets.append(align)
    for k, dv in enumerate(offsets):
        dp = float(rng.uniform(-eps_hat, eps_hat)) if k < _PERTURBED_SAMPLES else -eps_hat
        rep = transversality_scan(sys, Lmax, grid_size, delta=dv, delta_prime=dp)
        results.append(rep.rho0_hat)
    worst = min(results)
    return {
        "eps_hat": eps_hat,
        "rho0_hat_unperturbed": baseline.rho0_hat,
        "rho0_hat_perturbed": worst,
        "retains_half": bool(worst >= 0.5 * baseline.rho0_hat),
        "samples": results,
    }


def scan_report_json(report: ScanReport) -> dict:
    return {
        "case": report.case,
        "rho0_hat": report.rho0_hat,
        "witness": report.witness,
        "per_case": report.per_case,
    }


def scan_report_csv(report: ScanReport) -> str:
    return _csv("l,min_score", report.per_l)
