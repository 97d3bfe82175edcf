"""Sublevel-set measurement, Russmann bounds, and Diophantine exclusion sets."""

import numpy as np
import pytest

import dense_reference
from dense_reference import (
    intervals_nested,
    linear_cantor_measure,
    measure_curve,
    russmann_bound,
    sublevel_measure,
)
from vortexpatch.cantor import (
    KINDS,
    DiophantineSpec,
    excluded_measure,
    excluded_summary_json,
    excluded_to_csv,
    merge_intervals,
)
from vortexpatch.spectrum import FrequencySystem, omega, omega_derivative

SYS = FrequencySystem((1, 2), 0.1, 0.9)
RNG = np.random.default_rng(7)


class TestSublevelMeasure:
    def test_parabola(self):
        res = sublevel_measure(lambda x: x * x, 1e-4, -1.0, 1.0)
        assert abs(res.measure - 2e-2) < 1e-8

    def test_frequency_gap_empty(self):
        res = sublevel_measure(lambda x: omega(x, 3) - omega(x, 2), 1e-6, 0.1, 0.9)
        assert res.measure == 0.0
        assert res.intervals == []

    def test_endpoint_interval(self):
        res = sublevel_measure(lambda x: x, 0.5, 0.0, 1.0)
        assert abs(res.measure - 0.5) < 1e-10
        assert res.intervals[0][0] == 0.0

    def test_two_components(self):
        res = sublevel_measure(lambda x: np.cos(x), 0.1, 0.0, 2 * np.pi)
        # |cos| <= 0.1 near pi/2 and 3pi/2: each 2 arcsin(0.1) wide
        assert len(res.intervals) == 2
        assert abs(res.measure - 4 * np.arcsin(0.1)) < 1e-9

    def test_monte_carlo_oracle(self):
        f = lambda x: np.sin(20.0 * x) + 0.3
        res = sublevel_measure(f, 0.2, 0.0, 2.0)
        n = 10 ** 6
        xs = RNG.uniform(0.0, 2.0, n)
        p_hat = np.mean(np.abs(f(xs)) <= 0.2)
        mc = 2.0 * p_hat
        sigma = 2.0 * np.sqrt(p_hat * (1 - p_hat) / n)
        assert abs(mc - res.measure) <= 3.0 * sigma

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            sublevel_measure(lambda x: x, -1.0, 0.0, 1.0)

    def test_tangency_flagged(self):
        res = sublevel_measure(lambda x: x * x, 0.0, -1.0, 1.0)
        assert "tangency_suspect" in res.flags

    # (f, alpha, a, b, grid); on the integer nodes of [0, 16] (grid 16) and
    # the dyadic nodes of [0, 1] the inside nodes are known exactly
    EDGE_CASES = {
        "run_at_first_node": (lambda x: x, 2.5, 0.0, 16.0, 16),
        "run_at_last_node": (lambda x: 16.0 - x, 2.5, 0.0, 16.0, 16),
        "single_node_runs": (lambda x: np.minimum(np.abs(x - 3), np.abs(x - 11)), 0.5,
                             0.0, 16.0, 16),
        "runs_one_node_apart": (lambda x: np.minimum(np.abs(x - 5), np.abs(x - 7)), 0.5,
                                0.0, 16.0, 16),
        "all_nodes_inside": (lambda x: 0.0 * x + 0.1, 1.0, 0.0, 16.0, 16),
        "no_node_inside": (lambda x: x + 2.0, 1.0, 0.0, 16.0, 16),
        "alpha_zero_exact_node_zero": (lambda x: x - 0.5, 0.0, 0.0, 1.0, 16),
        "cos_default_grid": (np.cos, 0.1, 0.0, 2 * np.pi, 2 ** 14),
        "oscillating": (lambda x: np.sin(20.0 * x) + 0.3, 0.2, 0.0, 2.0, 2 ** 14),
    }

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_equal_to_node_loop(self, case):
        f, alpha, a, b, grid = self.EDGE_CASES[case]
        res = sublevel_measure(f, alpha, a, b, grid=grid)
        ref = dense_reference.sublevel_measure_loop(f, alpha, a, b, grid=grid)
        assert res.intervals == ref.intervals
        assert res.flags == ref.flags
        assert res.measure == ref.measure


class TestRussmannBound:
    @staticmethod
    def _parabola(x, q):
        if q == 0:
            return x * x
        if q == 1:
            return 2.0 * x
        if q == 2:
            return 2.0 * np.ones_like(x)
        return np.zeros_like(x)

    def test_dominates_true_measure(self):
        for alpha in (1e-2, 1e-4, 1e-6):
            true = 2.0 * np.sqrt(alpha)
            bound = russmann_bound(self._parabola, alpha, 2, -1.0, 1.0)
            assert bound >= true

    def test_alpha_scaling(self):
        b1 = russmann_bound(self._parabola, 1e-4, 2, -1.0, 1.0)
        b2 = russmann_bound(self._parabola, 1e-6, 2, -1.0, 1.0)
        assert abs(b1 / b2 - 10.0) < 1e-6  # alpha^(1/q0) with q0 = 2

    def test_degenerate_beta_infinite(self):
        zero = lambda x, q: np.zeros_like(x)
        assert russmann_bound(zero, 1e-4, 2, 0.0, 1.0) == np.inf


class TestIntervalBookkeeping:
    def test_merge(self):
        out = merge_intervals([(0.4, 0.6), (0.0, 0.2), (0.5, 0.9), (0.1, 0.15)])
        assert out == [(0.0, 0.2), (0.4, 0.9)]

    def test_merge_drops_empty(self):
        assert merge_intervals([(0.3, 0.3), (0.1, 0.2)]) == [(0.1, 0.2)]

    def test_nested(self):
        inner = [(0.11, 0.12), (0.5, 0.55)]
        outer = [(0.1, 0.2), (0.45, 0.6)]
        assert intervals_nested(inner, outer)
        assert not intervals_nested(outer, inner)


class TestDiophantineSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiophantineSpec(gamma=0.0, tau2=13.0, Lmax=20, kind="first-order-Melnikov")
        with pytest.raises(ValueError):
            DiophantineSpec(gamma=1e-3, tau1=5.0, tau2=4.0, Lmax=20,
                            kind="first-order-Melnikov")
        with pytest.raises(ValueError):
            DiophantineSpec(gamma=1e-3, kind="bogus", tau2=13.0, Lmax=20)

    @pytest.mark.parametrize("field", ["tau1", "tau2", "upsilon"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            DiophantineSpec(**{"gamma": 1e-3, "tau2": 13.0, "Lmax": 20,
                               "kind": "first-order-Melnikov", field: value})


class TestExcludedMeasure:
    def test_all_kinds_run_clean(self):
        for kind in ("transport", "first-order-Melnikov", "second-order-Melnikov"):
            rep = excluded_measure(SYS, DiophantineSpec(gamma=1e-3, kind=kind, Lmax=3, tau2=13.0))
            assert rep.russmann_violations == 0
            # merged list is sorted and disjoint
            for (l1, r1), (l2, r2) in zip(rep.merged, rep.merged[1:]):
                assert r1 < l2
            # rows sorted by left endpoint and consistent lengths
            lefts = [r[3] for r in rep.rows]
            assert lefts == sorted(lefts)
            for row in rep.rows:
                assert abs(row[5] - (row[4] - row[3])) < 1e-15

    def test_gamma_nesting(self):
        spec = DiophantineSpec(gamma=1e-2, kind="first-order-Melnikov", Lmax=3, tau2=13.0)
        big = excluded_measure(SYS, spec)
        small = excluded_measure(SYS, DiophantineSpec(gamma=1e-3,
                                                      kind="first-order-Melnikov", Lmax=3,
                                                      tau2=13.0))
        assert intervals_nested(small.merged, big.merged)
        assert small.total <= big.total

    def test_tail_bound_reporting(self):
        rep = excluded_measure(SYS, DiophantineSpec(gamma=1e-3, kind="first-order-Melnikov",
                                                    Lmax=2, tau2=13.0))
        assert rep.tail_divergent  # tau1 = 3 < 2 q0: the reported lattice tail diverges
        rep2 = excluded_measure(SYS, DiophantineSpec(gamma=1e-3,
                                                     kind="second-order-Melnikov", Lmax=2,
                                                     tau2=13.0))
        assert not rep2.tail_divergent
        assert np.isfinite(rep2.tail_bound)

    def test_measure_curve_decreasing(self):
        spec = DiophantineSpec(gamma=1e-2, kind="first-order-Melnikov", Lmax=3, tau2=13.0)
        out = measure_curve(SYS, spec, [1e-2, 1e-3, 1e-4])
        ms = out["measures"]
        assert all(a > b for a, b in zip(ms, ms[1:]))
        assert out["fitted_exponent"] >= 1.0 / SYS.q0

    def test_tau1_must_exceed_dimension(self):
        with pytest.raises(ValueError):
            excluded_measure(SYS, DiophantineSpec(gamma=1e-3, tau1=1.5, tau2=13.0, Lmax=20,
                                                  kind="first-order-Melnikov"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestExcludedOracle:
    """The batched pipeline equals the per-tuple reference exactly.  Sites
    (2, 3) make j = 1 and j0 = 1 normal modes (exponent 2, where numpy's
    array-exponent power and the scalar-exponent square differ); b0 = 0.1,
    b1 = 0.9 keep exact grid nodes such as b = 0.5, so tangency flags occur.
    A config's sites may be a whole FrequencySystem, for another [b0, b1]."""

    # gamma = 0.5 gives transport tuples at l = 0 (f' = 0), whose window is the
    # whole grid; Lmax 8 at gamma 9.66e-4 is the benchmark's second-order case;
    # on [0.01, 0.99] Omega_j' spans many decades, so the per-cell bounds of the
    # screen lie far below their sup on [b0, b1]
    CONFIGS = ([((1, 2), L, g) for L in (3, 4, 5, 6) for g in (1e-2, 1e-3)]
               + [((1,), 8, 1e-2), ((1,), 6, 1e-3), ((2, 3), 4, 1e-2), ((2, 3), 4, 1e-3),
                  ((1, 2), 2, 0.5), ((1, 2), 8, 9.66e-4),
                  (FrequencySystem((1, 2), 0.01, 0.99), 5, 1e-3)])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("sites,Lmax,gamma", CONFIGS)
    def test_equal_to_per_tuple(self, kind, sites, Lmax, gamma):
        sysf = sites if isinstance(sites, FrequencySystem) else FrequencySystem(sites, 0.1, 0.9)
        spec = DiophantineSpec(gamma=gamma, kind=kind, Lmax=Lmax, tau2=13.0)
        fast = excluded_measure(sysf, spec)
        ref = dense_reference.excluded_measure_per_tuple(sysf, spec)
        assert fast.rows == ref.rows
        assert fast.merged == ref.merged
        assert fast.flags == ref.flags
        assert fast.russmann_violations == ref.russmann_violations
        assert fast.total == ref.total

    def test_flags_exercised(self):
        for sites, Lmax, kind in (((1,), 8, "second-order-Melnikov"),
                                  ((2, 3), 4, "transport")):
            rep = excluded_measure(FrequencySystem(sites, 0.1, 0.9),
                                   DiophantineSpec(gamma=1e-2, kind=kind, Lmax=Lmax, tau2=13.0))
            assert rep.flags

    def test_window_nodes_of_the_benchmark_case(self):
        """The filter evaluates f only where the two-sided cell bounds let |f|
        reach the threshold: 0.36 M window nodes, against 4.0 M with windows
        of dx/2 around every coarse node within the sup-Lipschitz margin."""
        rep = excluded_measure(SYS, DiophantineSpec(gamma=9.66e-4, Lmax=8,
                                                    kind="second-order-Melnikov", tau2=13.0))
        prof = rep.profile
        assert prof["window_nodes"] <= 500_000
        assert prof["tuples_screened"] >= prof["tuples_kept"] >= prof["tuples_bisected"] > 0
        assert prof["tuples_bisected"] == len({r[:3] for r in rep.rows})
        assert prof["families_skipped"] > 0


class TestLinearCantorMeasure:
    def test_gamma_zero_full(self):
        assert linear_cantor_measure(SYS, 0.0, 3.0) == pytest.approx(0.8)

    def test_monotone_in_gamma(self):
        m1 = linear_cantor_measure(SYS, 1e-2, 3.0, Lmax=3)
        m2 = linear_cantor_measure(SYS, 1e-3, 3.0, Lmax=3)
        assert 0.0 < m1 < m2 <= 0.8
        assert m1 < 0.8  # gamma = 1e-2 genuinely excludes something


class TestExports:
    def test_csv_and_json(self):
        rep = excluded_measure(SYS, DiophantineSpec(gamma=1e-2,
                                                    kind="first-order-Melnikov", Lmax=3,
                                                    tau2=13.0))
        csv = excluded_to_csv(rep)
        lines = csv.strip().split("\n")
        assert lines[0] == "l,j,j0,left,right,length"
        assert len(lines) - 1 == len(rep.rows)
        js = excluded_summary_json(rep)
        assert js["total_excluded"] == rep.total
        assert js["russmann_violations"] == 0
