import itertools
import math

import numpy as np
import pytest

from oracles import bands, binary_rows, check_distribution, hockey_stick, l_value_approx

from privsample import PrivacyParams, l_value, verify_dp
from privsample.privacy import _pair_divergences


def brute_force_divergence(p, q, epsilon):
    """Max over all token subsets of p(T) - e^eps q(T); oracle for hockey_stick."""
    factor = math.exp(epsilon)
    best = 0.0
    for mask in itertools.product([0, 1], repeat=len(p)):
        sel = np.array(mask, dtype=bool)
        best = max(best, p[sel].sum() - factor * q[sel].sum())
    return best


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyParams(0.0, 0.1)
        with pytest.raises(ValueError):
            PrivacyParams(-1.0, 0.1)
        with pytest.raises(ValueError):
            PrivacyParams(0.1, 0.0)
        with pytest.raises(ValueError):
            PrivacyParams(0.1, 1.5)
        PrivacyParams(0.1, 1.0)  # delta = 1 is allowed


class TestLValue:
    def test_standard_params(self, params_std):
        # high-precision reference via mpmath, independent of float evaluation
        import mpmath

        mpmath.mp.dps = 50
        eps, delta = mpmath.mpf("0.1"), mpmath.mpf("0.01")
        ref = mpmath.log((mpmath.e**eps - 1 + 2 * delta) / (delta * (mpmath.e**eps + 1))) / eps
        assert l_value(params_std) == pytest.approx(float(ref), rel=1e-14)
        assert l_value(params_std) == pytest.approx(17.83, abs=5e-3)

    def test_algebraic_inversion(self, params_integral_l):
        # (1 + 2/46) / ((3/46)) = 16, so L = log_2(16) = 4 exactly
        assert l_value(params_integral_l) == pytest.approx(4.0, abs=1e-12)

    def test_within_coarse_approximation(self):
        # |L - approx| <= 2/eps across the delta <= eps regime
        for eps in [0.01, 0.1, 0.5, 1.0, 2.0, 5.0]:
            for delta in [1e-8, 1e-6, 1e-4, 1e-2]:
                if delta > eps:
                    continue
                p = PrivacyParams(eps, delta)
                assert abs(l_value(p) - l_value_approx(p)) <= 2.0 / eps

    def test_strictly_decreasing_in_delta(self):
        for eps in [0.05, 0.5, 2.0]:
            deltas = np.logspace(-8, 0, 30)
            vals = [l_value(PrivacyParams(eps, float(d))) for d in deltas]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_delta_one_gives_zero(self):
        assert l_value(PrivacyParams(0.3, 1.0)) == pytest.approx(0.0, abs=1e-15)


class TestHockeyStick:
    def test_identical_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert hockey_stick(p, p, 0.7) == 0.0

    def test_disjoint_point_masses(self):
        assert hockey_stick([0.0, 1.0], [1.0, 0.0], 1.0) == 1.0

    def test_half_half_vs_point_mass(self):
        # brute force over all subsets confirms the max gap is 0.5 at eps=0
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        assert hockey_stick(p, q, 0.0) == 0.5
        assert brute_force_divergence(p, q, 0.0) == 0.5

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(1234)
        for n_tokens in [2, 5, 9, 12]:
            for epsilon in [0.0, 0.1, 1.0]:
                p = rng.dirichlet(np.ones(n_tokens))
                q = rng.dirichlet(np.ones(n_tokens))
                got = hockey_stick(p, q, epsilon)
                want = brute_force_divergence(p, q, epsilon)
                assert got == pytest.approx(want, abs=1e-12)

    def test_non_increasing_in_epsilon(self):
        rng = np.random.default_rng(99)
        p = rng.dirichlet(np.ones(8))
        q = rng.dirichlet(np.ones(8))
        vals = [hockey_stick(p, q, e) for e in np.linspace(0.0, 3.0, 25)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_mismatched_token_sets(self):
        with pytest.raises(ValueError):
            hockey_stick([0.5, 0.5], [0.2, 0.3, 0.5], 0.1)


class TestCheckDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            check_distribution([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_distribution([-0.1, 1.1])

    def test_accepts_rounding_dust(self):
        check_distribution([0.1, 0.9 + 5e-13])


class TestVerifyDp:
    def test_identical_rows_pass(self, params_std):
        rows = np.tile([0.4, 0.6], (5, 1))
        rows[0] = [1.0, 0.0]
        # rows 0 -> 1 jump from a point mass; use delta large enough
        report = verify_dp(bands(rows), PrivacyParams(0.1, 1.0))
        assert report.ok

    def test_first_step_violation(self):
        # pi_1 = 2 delta against pi_0 = 0 diverges by 2 delta > delta
        delta = 0.01
        rows = np.array([[1.0, 0.0], [1.0 - 2 * delta, 2 * delta]])
        report = verify_dp(bands(rows), PrivacyParams(0.5, delta))
        assert not report.ok
        assert report.worst_pair == (0, 1)
        assert report.worst_divergence == pytest.approx(2 * delta, abs=1e-15)

    def test_reports_worst_pair(self, params_std):
        # three rows, middle step too aggressive in the up direction
        rows = np.array(
            [
                [1.0, 0.0],
                [1.0 - 0.01, 0.01],
                [1.0 - 0.5, 0.5],
            ]
        )
        report = verify_dp(bands(rows), params_std)
        assert not report.ok
        assert report.worst_pair == (1, 2)
        assert report.direction == "up"

    # DpReport's tie rule over hand-made rows at epsilon 1: A against B
    # diverges by 0.9 - 0.05 e = 0.764, B against A by 0.95 - 0.1 e = 0.678,
    # C against A by 0.5, and the step from row 0 to A by 0.1.  Equal rows at
    # equal band starts give bit-equal sums, so the ties below are exact.
    # Row 0 is the absent-key law, so "down" at (0, 1) never exceeds "up"
    # there: the lowest pair a "down" maximum can name is (1, 2).
    ABSENT, A, B, C = [1.0, 0.0, 0.0], [0.9, 0.1, 0.0], [0.05, 0.95, 0.0], [0.5, 0.0, 0.5]

    @pytest.mark.parametrize("rows, maxima, pair, direction", [
        # "down" at (1, 2) ties "up" at (2, 3): "up" wins over the lower pair
        ([ABSENT, A, B, A], [("up", 2), ("down", 1)], (2, 3), "up"),
        # "up" at (1, 2) and (3, 4) tie, and "down" at (2, 3): the lowest "up" wins
        ([ABSENT, A, C, A, C], [("up", 1), ("up", 3), ("down", 2)], (1, 2), "up"),
        # the only maximum is "down" at (1, 2)
        ([ABSENT, A, B], [("down", 1)], (1, 2), "down"),
    ], ids=["up-beats-lower-down", "lowest-up", "only-down"])
    def test_tie_rule(self, rows, maxima, pair, direction):
        table, epsilon = bands(np.array(rows)), 1.0
        up, down = _pair_divergences(table, math.exp(epsilon))
        worst = max(up.max(), down.max())
        # the pairs at the maximum of the sums that verify_dp reduces
        assert [("up", k) for k in np.flatnonzero(up == worst)] + [
            ("down", k) for k in np.flatnonzero(down == worst)] == maxima
        report = verify_dp(table, PrivacyParams(epsilon, 1.0))
        assert (report.worst_pair, report.direction) == (pair, direction)
        assert report.worst_divergence == worst

    def test_key_reporting_rows_pass(self, params_std, scheme_none):
        from privsample import compute_pi

        rv = compute_pi(params_std, scheme_none, 500)
        report = verify_dp(binary_rows(rv), params_std)
        assert report.ok

    @pytest.mark.parametrize("bad_row", [[0.5, 0.5 + 1e-6], [-0.5, 1.5], [math.nan, 1.0]])
    def test_rejects_row_not_a_distribution(self, params_std, bad_row):
        # the error names the first offending row
        rows = np.array([[1.0, 0.0], [0.5, 0.5], bad_row, [0.3, 0.3]])
        with pytest.raises(ValueError, match="row 2 "):
            verify_dp(bands(rows), params_std)
