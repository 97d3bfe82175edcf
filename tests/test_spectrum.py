"""Equilibrium frequencies Omega_j(b): exact derivatives, non-degeneracy,
and the transversality scan."""

import numpy as np
import pytest
import sympy
from scan_reference import reference_scan

from vortexpatch.spectrum import (
    FrequencySystem,
    _block_rows,
    _bracket,
    _cell_bounds,
    _derivative_table,
    _knot_values,
    check_monotonicity,
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

    def test_duplicated_column_degenerate(self):
        polys = [{0: 0, 2: 1}, {0: 0, 2: 1}, {0: 2}]
        assert not nondegeneracy_test(SYS, polys=polys)

    def test_constant_dependence_degenerate(self):
        # a column proportional to the constant column
        polys = [{0: 4}, {0: 1, 4: 1}, {0: 2}]
        assert not nondegeneracy_test(SYS, polys=polys)

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
            exact = sympy.Matrix([[p.get(d, 0) for p in polys] for d in degrees]).rank()
            verdicts.add(exact == len(polys))
            assert nondegeneracy_test(SYS, polys=polys) == (exact == len(polys))
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
    ])
    def test_exact_against_brute_force(self, sysf, Lmax, grid, offsets):
        # the pruned scan returns what scoring every tuple on the full grid gives
        rep = transversality_scan(sysf, Lmax=Lmax, grid_size=grid, **offsets)
        ref = reference_scan(sysf, Lmax, grid, **offsets)
        assert rep.rho0_hat == ref.rho0_hat
        assert rep.case == ref.case
        assert rep.witness == ref.witness
        assert rep.per_case == ref.per_case
        assert rep.per_l == ref.per_l

    def test_perturbed_retains_half(self):
        out = perturbed_transversality(SYS, eps_hat=1e-4, Lmax=2, grid_size=500,
                                       n_samples=1, seed=3)
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
    """The per-cell lower bound that lets the scan skip tuples and cells."""

    @pytest.mark.parametrize("offset", [False, True])
    def test_below_score_on_finer_grid(self, offset):
        # cell bound <= min over a 16x finer grid inside the cell of
        # max_q |f^(q)| / <l>, for random tuples of all four cases
        rng = np.random.default_rng(11 + offset)
        q0, Jmax, G = SYS.q0, 24, 400
        delta = rng.uniform(-1e-2, 1e-2, SYS.d) if offset else np.zeros(SYS.d)
        dprime = float(rng.uniform(-1e-2, 1e-2)) if offset else 0.0
        bs = np.linspace(SYS.b0, SYS.b1, G)
        knots = np.append(np.arange(0, G, G // 64), G - 1)  # with the tail cell
        h = np.diff(bs[knots])
        Dk = _derivative_table(Jmax, bs[knots], q0 + 2)
        E = np.concatenate([np.zeros((q0 + 2, 1, len(knots))), Dk, -Dk], axis=1)
        fine = np.linspace(SYS.b0, SYS.b1, 16 * (G - 1) + 1)
        Df = _derivative_table(Jmax, fine, q0 + 1)
        for l in [(0, 0), (1, 0), (-4, 1), (2, -3), (-1, -2), (3, 3)]:
            lv = np.array(l, dtype=float)
            br = _bracket(l)
            base = np.tensordot(lv, Dk[:q0 + 1, :2], axes=([0], [1]))
            base[0] += float(delta @ lv)
            hubase = np.tensordot(np.abs(lv), Dk[1:, :2, 1:], axes=([0], [1])) * h
            rows = _block_rows(np.arange(3, 23), 22, not any(l), Jmax, 0.5 + dprime)
            pick = np.concatenate([rng.permutation(np.flatnonzero(rows["case"] == c))[:8]
                                   for c in range(4)])
            sub = {n: v[pick] for n, v in rows.items()}
            alive, lb = _cell_bounds(_knot_values(E, base, sub), np.abs(E[1:, :, 1:]) * h,
                                     hubase, sub, np.full(len(pick), np.inf))
            assert len(alive) == len(pick)
            cells = lb * (1.0 - 1e-12) / (2.0 * br)
            for r, (case, sigma, j, j0) in enumerate(zip(sub["case"], sub["sigma"],
                                                         sub["j"], sub["j0"])):
                F = np.tensordot(lv, Df[:, :2], axes=([0], [1]))
                F[0] += float(delta @ lv)
                if case == 1:
                    F[0] += sigma * j * (0.5 + dprime)
                elif case == 2:
                    F += sigma * Df[:, j - 1]
                elif case == 3:
                    F += Df[:, j - 1] + sigma * Df[:, j0 - 1]
                score = np.max(np.abs(F), axis=0) / br
                for k in range(len(h)):
                    inside = score[16 * knots[k]:16 * knots[k + 1] + 1]
                    assert cells[r, k] <= np.min(inside), (l, case, sigma, j, j0, k)
