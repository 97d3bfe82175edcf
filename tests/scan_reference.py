"""Brute-force transversality scan: every tuple scored on the full grid.

Test-only oracle for ``spectrum.transversality_scan``.  It generates the same
tuples in the same order, evaluates f and its b-derivatives with the same
floating-point operations (the l-part as one ``tensordot`` over the whole
table, then the offset, the case-(ii) constant and the Omega_j terms added
in that order), and breaks ties the same way (grid score, then coarse
score, then generation order), but scores every tuple on every grid point,
without bounds or pruning.
"""

from __future__ import annotations

import numpy as np

from vortexpatch.spectrum import ScanReport, _bracket, _lattice, omega_derivative

CASES = ("i", "ii", "iii", "iv")


def _tuples(l, nonsites, jcut):
    """(case, sigma, j, j0) of one l in generation order."""
    nj = [j for j in nonsites if j <= jcut]
    out = [] if not any(l) else [("i", None, None, None)]
    out += [("ii", s, j, None) for s in (1, -1) for j in nj]
    out += [("iii", s, j, None) for s in (1, -1) for j in nj]
    out += [("iv", s, hi, lo) for s in (1, -1) for a, hi in enumerate(nj) for lo in nj[:a]
            if hi + s * lo <= jcut + 2]
    return out


def _abs_values(T, lv, sites, shift, tup, half):
    """|d^q f| on the columns of the derivative table T[q, j-1, :]."""
    F = np.tensordot(lv, T[:, sites, :], axes=([0], [1]))
    F[0] = F[0] + shift
    case, sigma, j, j0 = tup
    if case == "ii":
        F[0] = F[0] + sigma * j * half
    elif case == "iii":
        F = F + sigma * T[:, j - 1, :]
    elif case == "iv":
        F = (F + T[:, j - 1, :]) + sigma * T[:, j0 - 1, :]
    return np.abs(F)


def reference_scan(sys, Lmax, grid_size, delta=None, delta_prime=0.0) -> ScanReport:
    bs = np.linspace(sys.b0, sys.b1, grid_size)
    coarse_idx = np.arange(0, grid_size, max(1, grid_size // 64))
    C0 = 2.0 * (sys.omega_sup() + 1.0) + 1.0
    Jmax = max(int(np.ceil(C0 * Lmax)), max(sys.sites) + 2)
    D = np.array([[omega_derivative(bs, j, q) for j in range(1, Jmax + 1)]
                  for q in range(sys.q0 + 1)])
    Dc = np.ascontiguousarray(D[:, :, coarse_idx])
    delta = np.zeros(sys.d) if delta is None else np.asarray(delta, dtype=float)
    sites = [j - 1 for j in sys.sites]
    nonsites = [j for j in range(1, Jmax + 1) if j not in sys.sites]

    best = {}  # case -> ((score, coarse score, generation), witness)
    per_l = []
    gen = 0
    for l in _lattice(sys.d, Lmax):
        lv = np.array(l, dtype=float)
        br = _bracket(l)
        jcut = max(int(np.ceil(C0 * br)), max(sys.sites) + 2)
        shift = float(np.dot(delta, lv))
        lmin = np.inf
        for tup in _tuples(l, nonsites, jcut):
            coarse = float(np.min(np.max(
                _abs_values(Dc, lv, sites, shift, tup, 0.5 + delta_prime), axis=0))) / br
            A = _abs_values(D, lv, sites, shift, tup, 0.5 + delta_prime)
            g = int(np.argmin(np.max(A, axis=0)))
            q = int(np.argmax(A[:, g]))
            key = (float(A[q, g]) / br, coarse, gen)
            case, sigma, j, j0 = tup
            if case not in best or key < best[case][0]:
                best[case] = (key, {"b": float(bs[g]), "l": list(l), "j": j, "j0": j0,
                                    "q": q, "sigma": sigma})
            lmin = min(lmin, coarse)
            gen += 1
        per_l.append((list(l), lmin))
    case = min(best, key=lambda c: best[c][0])
    return ScanReport(
        rho0_hat=best[case][0][0],
        case=case,
        witness=best[case][1],
        per_case={c: {"rho0_hat": best[c][0][0], "witness": best[c][1]} for c in CASES},
        per_l=sorted(per_l),
        profile={"tuples": gen},
    )
