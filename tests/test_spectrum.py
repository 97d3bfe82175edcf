"""Equilibrium frequencies Omega_j(b): exact derivatives, non-degeneracy,
and the transversality scan."""

import itertools

import numpy as np
import pytest
import sympy
from dense_reference import check_monotonicity
from scan_reference import reference_scan

from vortexpatch.cantor import KINDS, _modes
from vortexpatch.spectrum import (
    FrequencySystem,
    _block_rows,
    _bracket,
    _cell_sup,
    _derivative_table,
    _knot_cells,
    _knot_order,
    _presigned,
    _rank,
    _signed,
    nondegeneracy_test,
    omega,
    omega_derivative,
    perturbed_transversality,
    scan_report_csv,
    scan_report_json,
    transversality_scan,
)

SYS = FrequencySystem((1, 2), 0.1, 0.9)


class TestOmega:
    def test_hand_values(self):
        assert abs(omega(0.3, 1) - 0.045) < 1e-15
        assert abs(omega(0.5, 2) - 0.53125) < 1e-15

    def test_odd_in_j(self):
        for j in (1, 2, 5):
            assert omega(0.4, -j) == -omega(0.4, j)

    def test_j_zero_rejected(self):
        with pytest.raises(ValueError):
            omega(0.5, 0)

    def test_vectorized_over_b(self):
        bs = np.linspace(0.1, 0.9, 7)
        vals = omega(bs, 3)
        assert np.allclose(vals, [(3 - 1 + b ** 6) / 2 for b in bs])

    def test_array_j_equals_scalar_j(self):
        # bit-equal, |j| = 1 included: numpy squares for a scalar exponent 2
        # but calls pow for an array exponent
        rng = np.random.default_rng(3)
        bs = rng.uniform(0.05, 0.95, 5000)
        js = rng.integers(-40, 41, 5000)
        js[js == 0] = 1
        vals = omega(bs, js)
        for j in np.unique(js):
            assert np.array_equal(vals[js == j], omega(bs, int(j))[js == j])
        with pytest.raises(ValueError):
            omega(bs[:2], np.array([1, 0]))


class TestOmegaDerivative:
    def test_against_sympy(self):
        b = sympy.Symbol("b")
        for j in (1, 2, 4, 7):
            expr = sympy.Rational(1, 2) * (j - 1 + b ** (2 * j))
            for q in range(0, 2 * j + 3):
                exact = float(sympy.diff(expr, b, q).subs(b, sympy.Rational(17, 25)))
                assert abs(float(omega_derivative(0.68, j, q)) - exact) < 1e-9 * max(1, abs(exact))

    def test_against_finite_differences(self):
        # exact vs central finite differences, q <= 4, relative 1e-6
        h = 1e-2
        for j in (2, 3, 6):
            for q in range(1, 5):
                lower = np.array([float(omega_derivative(0.5 - h, j, q - 1))])
                upper = np.array([float(omega_derivative(0.5 + h, j, q - 1))])
                fd = (upper - lower) / (2 * h)
                exact = float(omega_derivative(0.5, j, q))
                # central FD has O(h^2) error; compare with the third derivative scale
                scale = abs(float(omega_derivative(0.5, j, q + 2))) * h * h / 6 + 1e-12
                assert abs(fd[0] - exact) < max(1e-6, 2 * scale)

    def test_vanishes_beyond_polynomial_degree(self):
        assert float(omega_derivative(0.7, 2, 5)) == 0.0
        assert float(omega_derivative(0.7, 1, 3)) == 0.0

    def test_q_zero_is_omega(self):
        assert float(omega_derivative(0.35, 4, 0)) == float(omega(0.35, 4))

    def test_negative_j_sign(self):
        assert float(omega_derivative(0.5, -3, 2)) == -float(omega_derivative(0.5, 3, 2))


class TestFrequencySystem:
    def test_q0(self):
        assert SYS.q0 == 6
        assert FrequencySystem((1, 3), 0.1, 0.9).q0 == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencySystem((2, 1), 0.1, 0.9)
        with pytest.raises(ValueError):
            FrequencySystem((1, 2), 0.9, 0.1)
        with pytest.raises(ValueError):
            FrequencySystem((0, 1), 0.1, 0.9)

    def test_omega_sup(self):
        assert abs(SYS.omega_sup() - float(omega(0.9, 2))) < 1e-15


class TestMonotonicity:
    def test_report(self):
        rep = check_monotonicity(0.5)
        assert rep["monotone"]
        assert rep["min_gap"] > 0
        assert rep["lower_bound_ok"]
        assert rep["pair_bound_ok"]

    def test_uniform_pair_derivative_bound(self):
        # max_q sup_b |d^q (Omega_j - Omega_j')| <= C0_hat |j - j'| with a
        # j-independent C0_hat: the b1^(2j) decay beats the polynomial growth.
        bs = np.linspace(0.1, 0.9, 400)
        ratios = []
        for j in range(2, 120, 7):
            jp = j - 1
            worst = max(
                float(np.max(np.abs(omega_derivative(bs, j, q) - omega_derivative(bs, jp, q))))
                for q in range(7)
            )
            ratios.append(worst / (j - jp))
        ratios = np.array(ratios)
        # finite, and decaying again for large j (no unbounded growth)
        assert np.all(np.isfinite(ratios))
        assert ratios[-1] < np.max(ratios)
        assert np.max(ratios) < 1e9


class TestNondegeneracy:
    def test_default_sets(self):
        assert nondegeneracy_test(SYS)
        assert nondegeneracy_test(FrequencySystem((1, 3), 0.1, 0.9))
        assert nondegeneracy_test(FrequencySystem((2,), 0.1, 0.9))

    # the rank tests build the integer matrix of nondegeneracy_test (rows:
    # monomial degrees, columns: polys) and pass it to its _rank

    def test_duplicated_column_degenerate(self):
        # columns {0: 0, 2: 1}, {0: 0, 2: 1}, {0: 2} at degrees 0, 2
        assert _rank([[0, 0, 2], [1, 1, 0]]) < 3

    def test_constant_dependence_degenerate(self):
        # a column proportional to the constant column:
        # {0: 4}, {0: 1, 4: 1}, {0: 2} at degrees 0, 4
        assert _rank([[4, 1, 2], [0, 1, 0]]) < 3

    def test_exact_rank_against_sympy(self):
        # seeded small integer matrices, full rank and rank-deficient (a
        # product through a narrower inner dimension), plus the two synthetic
        # column sets above; rows are monomial degrees, columns are polys
        rng = np.random.default_rng(2024)
        mats = []
        for _ in range(40):
            rows, cols = (int(n) for n in rng.integers(1, 6, size=2))
            full = rng.integers(-4, 5, size=(rows, cols))
            inner = int(rng.integers(1, max(1, min(rows, cols) - 1) + 1))
            thin = rng.integers(-3, 4, size=(rows, inner)) @ rng.integers(-3, 4, size=(inner, cols))
            mats += [full, thin]
        cases = [[{d: int(a[d, c]) for d in range(a.shape[0])} for c in range(a.shape[1])]
                 for a in mats]
        cases += [[{0: 0, 2: 1}, {0: 0, 2: 1}, {0: 2}], [{0: 4}, {0: 1, 4: 1}, {0: 2}]]
        verdicts = set()
        for polys in cases:
            degrees = sorted({d for p in polys for d in p})
            matrix = [[p.get(d, 0) for p in polys] for d in degrees]
            exact = sympy.Matrix(matrix).rank()
            verdicts.add(exact == len(polys))
            assert _rank(matrix) == exact
        assert verdicts == {True, False}


class TestTransversalityScan:
    def test_positive_and_complete(self):
        rep = transversality_scan(SYS, Lmax=3, grid_size=800)
        assert rep.rho0_hat > 0
        assert set(rep.per_case) == {"i", "ii", "iii", "iv"}
        for c in rep.per_case.values():
            assert c["rho0_hat"] > 0
        w = rep.witness
        assert set(w) == {"b", "l", "j", "j0", "q", "sigma"}
        assert SYS.b0 <= w["b"] <= SYS.b1

    def test_deterministic(self):
        r1 = transversality_scan(SYS, Lmax=2, grid_size=500)
        r2 = transversality_scan(SYS, Lmax=2, grid_size=500)
        assert r1.rho0_hat == r2.rho0_hat
        assert r1.witness == r2.witness

    def test_grid_refinement_stable(self):
        vals = [transversality_scan(SYS, Lmax=3, grid_size=g).rho0_hat
                for g in (1000, 2000, 4000)]
        assert abs(vals[-1] - vals[-2]) < 5e-3 * vals[-1]

    def test_small_offset_moves_little(self):
        base = transversality_scan(SYS, Lmax=2, grid_size=500)
        shifted = transversality_scan(SYS, Lmax=2, grid_size=500,
                                      delta=np.array([1e-5, -1e-5]), delta_prime=1e-5)
        assert abs(shifted.rho0_hat - base.rho0_hat) < 1e-3

    def test_invalid_lmax(self):
        with pytest.raises(ValueError):
            transversality_scan(SYS, Lmax=0, grid_size=100)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            transversality_scan(SYS, Lmax=2, grid_size=1)

    @pytest.mark.parametrize("sysf, Lmax, grid, offsets", [
        (SYS, 3, 400, {}),
        (FrequencySystem((1, 2), 0.3, 0.45), 3, 250, {}),
        (SYS, 2, 400, {"delta": np.array([3e-3, -2e-3]), "delta_prime": -1e-3}),
        (FrequencySystem((1, 3), 0.1, 0.9), 3, 129, {}),
        (FrequencySystem((1, 2), 0.09602679510077404, 0.9019765322236867), 4, 1000, {}),
        (FrequencySystem((1, 2), 0.02, 0.3), 3, 300, {}),
        (FrequencySystem((2,), 0.1, 0.9), 4, 400, {}),
    ])
    def test_exact_against_brute_force(self, sysf, Lmax, grid, offsets):
        # the pruned scan returns what scoring every tuple on the full grid gives
        rep = transversality_scan(sysf, Lmax=Lmax, grid_size=grid, **offsets)
        ref = reference_scan(sysf, Lmax, grid, **offsets)
        # ... with tuples dropped after more than one order, so the drops are exercised
        assert rep.profile["tuples"] == ref.profile["tuples"]
        assert sum(n > 0 for n in rep.profile["dropped_after_order"]) > 1
        assert rep.rho0_hat == ref.rho0_hat
        assert rep.case == ref.case
        assert rep.witness == ref.witness
        assert rep.per_case == ref.per_case
        assert rep.per_l == ref.per_l

    def test_perturbed_retains_half(self):
        baseline = transversality_scan(SYS, Lmax=2, grid_size=500)
        out = perturbed_transversality(SYS, eps_hat=1e-4, Lmax=2, grid_size=500,
                                       seed=3, baseline=baseline)
        assert out["retains_half"]
        assert out["rho0_hat_perturbed"] > 0

    def test_report_exports(self):
        rep = transversality_scan(SYS, Lmax=2, grid_size=500)
        js = scan_report_json(rep)
        assert js["rho0_hat"] == rep.rho0_hat
        csv = scan_report_csv(rep)
        lines = csv.strip().split("\n")
        assert lines[0] == "l,min_score"
        # one row per lattice site |l|_1 <= Lmax (including l = 0)
        assert len(lines) - 1 == 13


class TestCellBound:
    """The per-cell lower bound that lets the scan skip tuples and cells, and the
    divisor model f = omega_Eq . l + c + sum_k Omega_k it shares with the Cantor
    measure: signed mode indices and the monotone cell enclosure."""

    def test_signed_index_reads(self):
        # Omega_{-j} = -Omega_j bit for bit on array j, |j| = 1 included (the table
        # holds scalar-j values, numpy squares there but calls pow for array j)
        bs = np.linspace(0.1, 0.9, 101)
        T = _derivative_table(12, bs, range(3))
        js = np.array([1, 2, 1, 7, 12, 3, 1])
        for q in range(3):
            assert np.array_equal(_signed(T[q], -js), -_signed(T[q], js))
            assert np.array_equal(_signed(T.transpose(1, 0, 2), -js)[:, q], -T[q, js])
        assert np.array_equal(_signed(T[0], js), omega(bs, js[:, None]))
        assert np.array_equal(_signed(T[0], -js), omega(bs, -js[:, None]))
        mixed = np.array([1, -1, 0, 5, -12, 0])
        zero = mixed[:, None] == 0
        want = np.where(zero, 0.0, omega(bs, mixed[:, None] + zero))
        assert np.array_equal(_signed(T[0], mixed), want)
        assert np.array_equal(_signed(T[0], mixed, np.arange(6)), np.diag(want[:, :6]))
        # the pre-signed table of the coarse scan reads the same bits by signed index
        S = _presigned(T)
        for q in range(3):
            for k in (js, -js, mixed):
                assert np.array_equal(S[q].take(k, axis=0, mode="wrap"), _signed(T[q], k))

    @pytest.mark.parametrize("offset", [False, True])
    def test_below_score_on_finer_grid(self, offset):
        # on a 16x finer grid inside each cell: cell bound <= min of
        # max_q |f^(q)| / <l>, and the enclosure U_{q+1}(c') >= max |f^(q+1)|, for
        # random tuples of the scan's four cases and of the three Cantor kinds
        # (their mode lists from cantor._modes; transport has c = -j/2)
        rng = np.random.default_rng(11 + offset)
        q0, Jmax, G = SYS.q0, 24, 400
        delta = rng.uniform(-1e-2, 1e-2, SYS.d) if offset else np.zeros(SYS.d)
        dprime = float(rng.uniform(-1e-2, 1e-2)) if offset else 0.0
        bs = np.linspace(SYS.b0, SYS.b1, G)
        knots = np.append(np.arange(0, G, G // 64), G - 1)  # with the tail cell
        h = np.diff(bs[knots])
        Dk = _derivative_table(Jmax, bs[knots], range(q0 + 2))
        HD = Dk[1:, :, 1:] * h
        Sk, Uk = _presigned(Dk[:q0 + 1]), np.abs(_presigned(HD))
        fine = np.linspace(SYS.b0, SYS.b1, 16 * (G - 1) + 1)
        Df = _derivative_table(Jmax, fine, range(q0 + 2))
        sites = [(0, 0), (1, 0), (-4, 1), (2, -3), (-1, -2), (3, 3)]
        for family, l in itertools.product(("scan", *KINDS), sites):
            lv = np.array(l, dtype=float)
            br = _bracket(l)
            base = np.tensordot(lv, Dk[:q0 + 1, 1:3], axes=([0], [1]))
            base[0] += float(delta @ lv)
            hubase = np.tensordot(np.abs(lv), Dk[1:, 1:3, 1:], axes=([0], [1])) * h
            if family == "scan":
                rows = _block_rows(np.arange(3, 23), 22, not any(l), 0.5 + dprime)
                pick = np.concatenate([rng.permutation(np.flatnonzero(rows["case"] == c))[:8]
                                       for c in range(4)])
                sub = {n: v[pick] for n, v in rows.items()}
            else:
                j = rng.integers(-22, 23, 12) if family == KINDS[0] else rng.integers(3, 23, 12)
                j0 = rng.integers(3, 23, 12)  # normal modes of S = {1, 2}
                ks = _modes(family, j, j0) + [np.zeros_like(j)] * 2
                sub = {"case": np.full(12, -1), "sigma": np.ones(12, int), "j": j, "j0": j0,
                       "k1": ks[0], "k2": ks[1],
                       "const": -0.5 * j if family == KINDS[0] else np.zeros(12)}
            m, k1, k2 = len(sub["j"]), sub["k1"], sub["k2"]
            lb = np.full((m, len(h)), -np.inf)
            for q in range(q0 + 1):
                v = _knot_order(Sk, base, q, k1, k2, sub["const"], *np.empty((2, m, len(knots))))
                lq = _knot_cells(v, Uk, hubase, q, k1, k2, *np.empty((2, m, len(h))))
                # the scan's cell bound is the one of the _cell_sup enclosure, bit for bit
                hU = _cell_sup(hubase[q], HD[q], (k1, k2))
                assert np.array_equal(lq, (v[:, :-1] + v[:, 1:]) - hU)
                lb = np.maximum(lb, lq)
            cells = lb * (1.0 - 1e-12) / (2.0 * br)
            U = np.array([_cell_sup(np.abs(lv) @ Dk[q + 1, 1:3, 1:], Dk[q + 1, :, 1:],
                                    (sub["k1"], sub["k2"])) for q in range(q0 + 1)])
            for r, (case, sigma, j, j0) in enumerate(zip(sub["case"], sub["sigma"],
                                                         sub["j"], sub["j0"])):
                F = np.tensordot(lv, Df[:, 1:3], axes=([0], [1]))
                F[0] += float(delta @ lv)
                if family == "transport":  # omega . l + j/2 with omega = -omega_Eq
                    F = -F
                    F[0] += 0.5 * j
                elif family == "first-order-Melnikov":
                    F += Df[:, j]
                elif family == "second-order-Melnikov":
                    F += Df[:, j] - Df[:, j0]
                elif case == 1:
                    F[0] += sigma * j * (0.5 + dprime)
                elif case == 2:
                    F += sigma * Df[:, j]
                elif case == 3:
                    F += Df[:, j] + sigma * Df[:, j0]
                score = np.max(np.abs(F[:q0 + 1]), axis=0) / br
                for k in range(len(h)):
                    inside = slice(16 * knots[k], 16 * knots[k + 1] + 1)
                    assert cells[r, k] <= np.min(score[inside]), (l, case, sigma, j, j0, k)
                    sup = np.max(np.abs(F[1:, inside]), axis=1)
                    assert np.all(sup <= U[:, r, k] * (1.0 + 1e-12)), (l, case, j, j0, k)
