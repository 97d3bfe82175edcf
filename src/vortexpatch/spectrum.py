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
from dataclasses import dataclass, field
from fractions import Fraction

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
    b0: float = 0.1
    b1: float = 0.9

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
    """Rank of an integer matrix by exact Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
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
    per_case: dict = field(default_factory=dict)
    per_l: list = field(default_factory=list)


_COARSE_POINTS = 64  # coarse knots: the per-l scores and the cells of the bound
_SLACK = 1e-12  # relative guard of the cell bounds against rounding
_BATCH = 256  # tuples, or (tuple, cell) pairs, evaluated at once
_PERTURBED_SAMPLES = 2  # random offsets of the perturbed scan, besides the aligned one


def _derivative_table(Jmax: int, bs: np.ndarray, qs) -> np.ndarray:
    """D[i, j, g] = d^q Omega_j (b_g) for 0 < j <= Jmax and the i-th order q of ``qs``;
    row j = 0 is zero (no mode)."""
    return np.array([[omega_derivative(bs, j, q) if j else np.zeros_like(bs)
                      for j in range(Jmax + 1)] for q in qs])


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


def _knot_values(Dk, base, rows):
    """|F_q| = |(Omega_k1 + (base_q + const)) + Omega_k2| at the knots, shape
    (q0+1, tuples, knots); const only at q = 0.  The order of operations is
    that of ``_fine_values``, so equal inputs give equal bits."""
    A = np.empty((len(base), len(rows["k1"]), Dk.shape[2]))
    for q, out in enumerate(A):
        F = _signed(Dk[q], rows["k1"])
        F += base[0] + rows["const"][:, None] if q == 0 else base[q]
        F += _signed(Dk[q], rows["k2"])
        np.abs(F, out=out)
    return A


def _cell_bounds(A, HD, hubase, rows, thr):
    """Doubled cell bounds max_q |F_q(c_k)| + |F_q(c_k+1)| - h_k U_{q+1}(c_k+1)
    of the tuples whose smallest one can still be <= ``thr``; h_k U_{q+1} is the
    ``_cell_sup`` of the l-part ``hubase`` and the table ``HD``, both times h_k."""
    alive = np.arange(A.shape[1])
    for q, a in enumerate(A):
        a = a[alive]
        hU = _cell_sup(hubase[q], HD[q], (rows["k1"][alive], rows["k2"][alive]))
        lq = (a[:, :-1] + a[:, 1:]) - hU
        lb = lq if q == 0 else np.maximum(lb, lq, out=lq)
        keep = np.min(lb, axis=1) <= thr[alive]
        alive, lb = alive[keep], lb[keep]
    return alive, lb


def _fine_values(base, Dj, k1, k2, const, pts):
    """|F_q| at the grid points ``pts`` (a row per tuple), shape (q0+1, tuples,
    points), from the table Dj[j, q, g] and the signed mode indices k1, k2."""
    F = base[:, pts]
    F[0] += const[:, None]
    for k in (k1, k2):
        F += _signed(Dj, k[None, :, None], np.arange(len(F))[:, None, None], pts[None])
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
    """
    if Lmax < 1:
        raise ValueError("Lmax must be >= 1")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
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
    HD = Dk[1:, :, 1:] * h
    delta = np.zeros(sys.d) if delta is None else np.asarray(delta, dtype=float)
    ksites, lsites = Dk[:, list(sys.sites)], D[:, list(sys.sites)]
    nonsites = np.array([j for j in range(1, Jmax + 1) if j not in sys.sites])
    lattice = list(_lattice(sys.d, Lmax))

    per_l, kept, gen0 = [], [], 0
    cap = np.full(4, np.inf)  # smallest coarse score per case, plus slack
    for li, l in enumerate(lattice):
        lv = np.array(l, dtype=float)
        br = _bracket(l)
        jcut = max(int(np.ceil(C0 * br)), max(sys.sites) + 2)
        base = np.tensordot(lv, ksites[:q0 + 1], axes=([0], [1]))
        # coarse columns from a coarse-only product, so per_l keeps its bits
        base[:, :Pc] = np.tensordot(lv, ksites[:q0 + 1, :, :Pc], axes=([0], [1]))
        base[0] = base[0] + float(np.dot(delta, lv))
        hubase = np.tensordot(np.abs(lv), ksites[1:, :, 1:], axes=([0], [1])) * h
        rows = _block_rows(nonsites[nonsites <= jcut], jcut, not any(l), 0.5 + delta_prime)
        lmin = np.inf
        for s in range(0, len(rows["case"]), _BATCH):
            sub = {n: v[s:s + _BATCH] for n, v in rows.items()}
            A = _knot_values(Dk, base, sub)
            coarse = np.min(np.max(A[:, :, :Pc], axis=0), axis=1) / br
            lmin = min(lmin, float(np.min(coarse)))
            np.minimum.at(cap, sub["case"], coarse * (1.0 + _SLACK))
            alive, lb = _cell_bounds(A, HD, hubase, sub,
                                     cap[sub["case"]] * (2.0 * br / (1.0 - _SLACK)))
            cells = lb * ((1.0 - _SLACK) / (2.0 * br))
            kept.append({"bound": np.min(cells, axis=1), "cells": cells,
                         "gen": gen0 + s + alive, "coarse": coarse[alive],
                         "l": np.full(len(alive), li), **{n: v[alive] for n, v in sub.items()}})
        per_l.append((list(l), lmin))
        gen0 += len(rows["case"])
    kept = {n: np.concatenate([b[n] for b in kept]) for n in kept[0]}

    def fine_base(li):
        lv = np.array(lattice[li], dtype=float)
        base = np.tensordot(lv, lsites, axes=([0], [1]))
        base[0] += float(np.dot(delta, lv))
        return base

    per_case = {}
    for c, name in enumerate(("i", "ii", "iii", "iv")):
        cand = {n: v[(kept["case"] == c) & (kept["bound"] <= cap[c])] for n, v in kept.items()}
        best = (cap[c], np.inf)  # (score, coarse score, generation, candidate)
        ls = np.unique(cand["l"])
        lows = [np.min(cand["bound"][cand["l"] == li]) for li in ls]
        for li in ls[np.argsort(lows, kind="stable")]:
            rs = np.flatnonzero((cand["l"] == li) & (cand["bound"] <= best[0]))
            if not len(rs):
                continue
            base = fine_base(li)
            rr, kk = np.nonzero(cand["cells"][rs] <= best[0])
            pair = np.empty(len(rr))
            for s in range(0, len(rr), _BATCH):
                p = rs[rr[s:s + _BATCH]]
                A = _fine_values(base, Dj, cand["k1"][p], cand["k2"][p], cand["const"][p],
                                 cellpts[kk[s:s + _BATCH]])
                pair[s:s + _BATCH] = np.min(np.max(A, axis=0), axis=1)
            starts = np.flatnonzero(np.r_[True, rr[1:] != rr[:-1]])
            fs = np.minimum.reduceat(pair, starts) / _bracket(lattice[li])
            rs = rs[rr[starts]]
            k = np.lexsort((cand["gen"][rs], cand["coarse"][rs], fs))[0]
            best = min(best, (float(fs[k]), float(cand["coarse"][rs[k]]),
                              int(cand["gen"][rs[k]]), rs[k]))
        r = best[3]
        A = _fine_values(fine_base(cand["l"][r]), Dj, cand["k1"][[r]], cand["k2"][[r]],
                         cand["const"][[r]], np.arange(grid_size)[None, :])[:, 0]
        g = int(np.argmin(np.max(A, axis=0)))
        sigma, j, j0 = (int(cand[n][r]) for n in ("sigma", "j", "j0"))
        witness = {"b": float(bs[g]), "l": list(lattice[cand["l"][r]]), "j": j or None,
                   "j0": j0 or None, "q": int(np.argmax(A[:, g])), "sigma": sigma or None}
        per_case[name] = (best[:3], witness)
    case = min(per_case, key=lambda c: per_case[c][0])
    return ScanReport(
        rho0_hat=per_case[case][0][0],
        case=case,
        witness=per_case[case][1],
        per_case={c: {"rho0_hat": k[0], "witness": w} for c, (k, w) in per_case.items()},
        per_l=sorted(per_l),
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
