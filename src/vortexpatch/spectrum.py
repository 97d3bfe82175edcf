"""Equilibrium frequency system Omega_j(b) and its transversality structure.

Omega_j(b) = sgn(j)(|j| - 1 + b^(2|j|))/2 is polynomial in b, so all
b-derivatives are exact monomial-rule evaluations (no finite differences).
The module verifies monotonicity/lower-bound properties, the linear
independence (non-degeneracy) of the tangential frequencies, and scans the
four transversality cases for a quantitative lower bound rho0_hat on the
maximal-derivative functional f -> min_b max_{q<=q0} |d^q f| / <l>.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .spectral import _fmt

__all__ = [
    "FrequencySystem",
    "omega",
    "omega_derivative",
    "check_monotonicity",
    "nondegeneracy_test",
    "transversality_scan",
    "perturbed_transversality",
    "scan_report_json",
    "scan_report_csv",
]


def omega(b, j):
    """Omega_j(b) = sgn(j)(|j| - 1 + b^(2|j|))/2 for j != 0."""
    j = int(j)
    if j == 0:
        raise ValueError("Omega is defined for j != 0")
    aj = abs(j)
    return np.sign(j) * 0.5 * (aj - 1.0 + np.asarray(b, dtype=float) ** (2 * aj))


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

    def omega_vector(self, b) -> np.ndarray:
        return np.array([omega(b, j) for j in self.sites])

    def omega_sup(self) -> float:
        """max_j sup_{[b0,b1]} |Omega_j| over the tangential set (Omega increases in b)."""
        return max(float(omega(self.b1, j)) for j in self.sites)


def check_monotonicity(b: float, Jmax: int = 50, b0: float = 0.1, b1: float = 0.9,
                       grid: int = 200) -> dict:
    """Monotonicity and lower-bound report for the frequency family.

    Checks (on the given b and a [b0, b1] grid):
    * Omega_j(b)/j strictly increasing in j up to Jmax (reports the min gap);
    * |Omega_j(b')| >= (b0^2/2) j;
    * |Omega_j(b') +- Omega_j'(b')| >= (b0^2/6) |j +- j'| for j, j' <= min(Jmax, 30).
    """
    js = np.arange(1, Jmax + 1)
    ratios = np.array([float(omega(b, j)) / j for j in js])
    gaps = np.diff(ratios)
    bs = np.linspace(b0, b1, grid)
    lower_ok = True
    lower_margin = np.inf
    for j in js:
        vals = np.abs(omega(bs, int(j)))
        margin = float(np.min(vals - 0.5 * b0 * b0 * j))
        lower_margin = min(lower_margin, margin)
        lower_ok &= margin >= 0.0
    jpair = js[: min(Jmax, 30)]
    pair_margin = np.inf
    for j in jpair:
        oj = omega(bs, int(j))
        for jp in jpair:
            ojp = omega(bs, int(jp))
            for sgn in (+1, -1):
                target = (b0 * b0 / 6.0) * abs(j + sgn * jp)
                pair_margin = min(pair_margin, float(np.min(np.abs(oj + sgn * ojp)) - target))
    return {
        "b": b,
        "Jmax": int(Jmax),
        "monotone": bool(np.all(gaps > 0)),
        "min_gap": float(np.min(gaps)),
        "lower_bound_ok": bool(lower_ok),
        "lower_bound_margin": float(lower_margin),
        "pair_bound_ok": bool(pair_margin >= 0.0),
        "pair_bound_margin": float(pair_margin),
    }


def nondegeneracy_test(sys: FrequencySystem, polys=None) -> bool:
    """Full column rank of {Omega_{j_1}, ..., Omega_{j_d}, 1} in the monomial basis.

    Exact integer arithmetic on the doubled coefficients 2 Omega_j.
    ``polys`` may override the column set: a list of {degree: int-coefficient}
    maps (used by synthetic rank-deficiency tests).
    """
    if polys is None:
        polys = [{0: j - 1, 2 * j: 1} for j in sys.sites]  # 2 Omega_j
        polys = polys + [{0: 2}]  # the constant function (doubled)
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
    """The Fourier sites l in Z^d with |l|_1 <= Lmax, in lexicographic order
    (so -l sits at the reversed position of l)."""
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


def _derivative_table(sys: FrequencySystem, Jmax: int, bs: np.ndarray) -> np.ndarray:
    """D[q, j-1, g] = d^q Omega_j (b_g) for 1 <= j <= Jmax, 0 <= q <= q0."""
    q0 = sys.q0
    D = np.zeros((q0 + 1, Jmax, len(bs)))
    for j in range(1, Jmax + 1):
        for q in range(q0 + 1):
            D[q, j - 1, :] = omega_derivative(bs, j, q)
    return D


def _score_tensor(F: np.ndarray) -> np.ndarray:
    """min over the grid axis of max over the derivative axis of |F|."""
    return np.min(np.max(np.abs(F), axis=0), axis=-1)


def transversality_scan(sys: FrequencySystem, Lmax: int, grid_size: int,
                        coarse_points: int = 64, refine_factor: float = 30.0,
                        delta: np.ndarray | None = None,
                        delta_prime: float = 0.0,
                        max_refine: int = 20000) -> ScanReport:
    """Minimum of min_b max_{q<=q0} |d_b^q f(b)| / <l> over the four families.

    (i)   f = omega_Eq . l                               (l != 0)
    (ii)  f = omega_Eq . l + sigma j/2                   (j not in S)
    (iii) f = omega_Eq . l + sigma Omega_j               (j not in S)
    (iv)  f = omega_Eq . l + Omega_j + sigma Omega_j'    (j != j' not in S)

    Index cutoffs j <= C0 <l> with C0 = 2(sup|omega_Eq| + 1) + 1, derived from
    Omega_j >= (j - 1)/2: beyond the cutoff the zeroth derivative alone
    exceeds <l>, so the tuple cannot be the arg min.  In case (iv) the sum
    j + j' (sigma = +1) resp. the gap j - j' (sigma = -1) is capped the same
    way since Omega_j + Omega_j' >= (j + j' - 2)/2 and
    |Omega_j - Omega_j' - (j - j')/2| <= 1/2.

    Two-stage evaluation: every tuple is scored on a coarse subgrid of
    ``coarse_points`` samples (a subset of the full grid, so the coarse score
    upper-bounds nothing and lower-bounds nothing per point but its min is >=
    the full-grid min); all tuples within ``refine_factor`` of the coarse
    minimum (at most ``max_refine`` of them) are rescored on the full grid.
    ``delta``/``delta_prime`` add constant frequency offsets (perturbed-scan
    mode).
    """
    if Lmax < 1:
        raise ValueError("Lmax must be >= 1")
    bs = np.linspace(sys.b0, sys.b1, grid_size)
    step = max(1, grid_size // coarse_points)
    coarse_idx = np.arange(0, grid_size, step)
    q0 = sys.q0
    C0 = 2.0 * (sys.omega_sup() + 1.0) + 1.0
    Jmax = max(int(np.ceil(C0 * Lmax)), max(sys.sites) + 2)
    D = _derivative_table(sys, Jmax, bs)
    Dc = np.ascontiguousarray(D[:, :, coarse_idx])
    if delta is None:
        delta = np.zeros(sys.d)
    delta = np.asarray(delta, dtype=float)
    site_idx = [j - 1 for j in sys.sites]
    nonsites = np.array([j for j in range(1, Jmax + 1) if j not in sys.sites])

    batches = []  # (case, l, sigma, jarr, jparr, scores)
    per_l_coarse = {}
    coarse_min = np.inf

    def _batch_score(base, jarr, jsign, jparr, sigma, base0_shift):
        """max over q of |base + jsign D_j (+ sigma D_j')|, then min over the grid."""
        acc = np.abs(base[0][None, :] + base0_shift + jsign * Dc[0, jarr - 1, :]
                     + (sigma * Dc[0, jparr - 1, :] if jparr is not None else 0.0))
        for q in range(1, q0 + 1):
            ch = base[q][None, :] + jsign * Dc[q, jarr - 1, :]
            if jparr is not None:
                ch = ch + sigma * Dc[q, jparr - 1, :]
            np.maximum(acc, np.abs(ch), out=acc)
        return np.min(acc, axis=1)

    for l in _lattice(sys.d, Lmax):
        lv = np.array(l, dtype=float)
        lz = all(x == 0 for x in l)
        br = _bracket(l)
        jcut = max(int(np.ceil(C0 * br)), max(sys.sites) + 2)
        base = np.tensordot(lv, Dc[:, site_idx, :], axes=([0], [1]))  # (q0+1, Gc)
        base0_shift = float(np.dot(delta, lv))
        lmin = np.inf

        def record(case, sigma, jarr, jparr, scores):
            nonlocal coarse_min, lmin
            batches.append((case, l, sigma, jarr, jparr, scores))
            m = float(np.min(scores))
            coarse_min = min(coarse_min, m)
            lmin = min(lmin, m)

        # case (i)
        if not lz:
            s = float(np.min(np.max(np.abs(base + np.array(
                [base0_shift] + [0.0] * q0)[:, None]), axis=0))) / br
            record("i", None, None, None, np.array([s]))

        nj = nonsites[nonsites <= jcut]
        if nj.size:
            # case (ii): sigma j (1/2 + delta') is constant in b
            derivmax = np.max(np.abs(base[1:]), axis=0)
            for sigma in (1, -1):
                consts = base[0] + base0_shift + sigma * nj[:, None] * (0.5 + delta_prime)
                s = np.min(np.maximum(np.abs(consts), derivmax[None, :]), axis=1) / br
                record("ii", sigma, nj.copy(), None, s)

            # case (iii)
            for sigma in (1, -1):
                s = _batch_score(base, nj, sigma, None, 1, base0_shift)
                record("iii", sigma, nj.copy(), None, s / br)

            # case (iv)
            for sigma in (1, -1):
                pj, pjp = [], []
                for a in range(len(nj)):
                    for c in range(a):
                        hi, lo = int(nj[a]), int(nj[c])
                        combo = hi + lo if sigma == 1 else hi - lo
                        if combo <= jcut + 2:
                            pj.append(hi)
                            pjp.append(lo)
                if pj:
                    pj = np.array(pj)
                    pjp = np.array(pjp)
                    s = _batch_score(base, pj, 1, pjp, sigma, base0_shift) / br
                    record("iv", sigma, pj, pjp, s)

        per_l_coarse[tuple(l)] = float(lmin)

    threshold = refine_factor * coarse_min

    refine = []  # (coarse_score, case, l, sigma, j, jp)
    case_best = {}
    for case, l, sigma, jarr, jparr, scores in batches:
        kbest = int(np.argmin(scores))
        entry = (float(scores[kbest]), case, l, sigma,
                 None if jarr is None else int(jarr[kbest]),
                 None if jparr is None else int(jparr[kbest]))
        if case not in case_best or entry[0] < case_best[case][0]:
            case_best[case] = entry
        idx = np.nonzero(scores <= threshold)[0]
        for k in idx:
            refine.append((float(scores[k]), case, l, sigma,
                           None if jarr is None else int(jarr[k]),
                           None if jparr is None else int(jparr[k])))
    refine.sort(key=lambda t: t[0])
    refine = refine[:max_refine]
    # always refine each case's best tuple so per-case results exist
    seen = {t[1:] for t in refine}
    for entry in case_best.values():
        if entry[1:] not in seen:
            refine.append(entry)

    def fine_score(case, l, sigma, j, jp):
        lv = np.array(l, dtype=float)
        base = np.tensordot(lv, D[:, site_idx, :], axes=([0], [1]))
        base[0] += float(np.dot(delta, lv))
        if case == "i":
            F = base
        elif case == "ii":
            F = base.copy()
            F[0] = base[0] + sigma * j * (0.5 + delta_prime)
        elif case == "iii":
            F = base + sigma * D[:, j - 1, :]
        else:
            F = base + D[:, j - 1, :] + sigma * D[:, jp - 1, :]
        A = np.abs(F)
        g = int(np.argmin(np.max(A, axis=0)))
        q = int(np.argmax(A[:, g]))
        return float(A[q, g]) / _bracket(l), float(bs[g]), q

    best = None
    per_case = {}
    for _, case, l, sigma, j, jp in refine:
        fs, bwit, qwit = fine_score(case, l, sigma, j, jp)
        entry = (fs, case, {"b": bwit, "l": list(l), "j": j, "j0": jp,
                            "q": qwit, "sigma": sigma})
        if best is None or fs < best[0]:
            best = entry
        if case not in per_case or fs < per_case[case][0]:
            per_case[case] = entry
    assert best is not None
    per_l = sorted((list(k), v) for k, v in per_l_coarse.items())
    return ScanReport(
        rho0_hat=best[0],
        case=best[1],
        witness=best[2],
        per_case={c: {"rho0_hat": e[0], "witness": e[2]} for c, e in per_case.items()},
        per_l=per_l,
    )


def perturbed_transversality(sys: FrequencySystem, eps_hat: float, Lmax: int,
                             grid_size: int, n_samples: int = 2, seed: int = 0,
                             baseline: ScanReport | None = None) -> dict:
    """Scan with bounded synthetic frequency offsets |delta| <= eps_hat.

    Samples random offsets plus the worst-case direction aligned against the
    baseline witness; reports the minimum rho0_hat over all perturbations and
    whether it retains half of the unperturbed value.
    """
    if baseline is None:
        baseline = transversality_scan(sys, Lmax, grid_size)
    rng = np.random.default_rng(seed)
    results = []
    offsets = [rng.uniform(-eps_hat, eps_hat, sys.d) for _ in range(n_samples)]
    lw = np.array(baseline.witness["l"], dtype=float)
    align = -np.sign(lw) * eps_hat if np.any(lw) else np.full(sys.d, eps_hat)
    offsets.append(align)
    for k, dv in enumerate(offsets):
        dp = float(rng.uniform(-eps_hat, eps_hat)) if k < n_samples else -eps_hat
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
    lines = ["l,min_score"]
    for l, v in report.per_l:
        lines.append(f"\"{' '.join(str(x) for x in l)}\",{_fmt(v)}")
    return "\n".join(lines) + "\n"
