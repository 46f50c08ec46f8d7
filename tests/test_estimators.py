import math

import numpy as np
import pytest
from oracles import inclusion_prob, inverse_prob_coeffs, per_key_moments, table_from_dense

from privsample import (
    FrequencyHistogram,
    PrivacyParams,
    ReportingVector,
    SamplingScheme,
    compute_pdfs,
    compute_pi,
    compute_pij,
    discretize_pdfs,
    estimate_statistic,
    g_identity,
    l_value,
    mle_coeffs,
    moments_by_frequency,
    nonprivate_moment_table,
    statistic_moments,
    unbiased_coeffs,
)


@pytest.fixture(scope="module")
def std_table(params_std, scheme_none):
    return compute_pij(params_std, scheme_none, 200)


@pytest.fixture(scope="module")
def std_rv(params_std, scheme_none):
    return compute_pi(params_std, scheme_none, 200)


class TestInverseProb:
    def test_no_sampling_is_identity(self, scheme_none):
        coeffs = inverse_prob_coeffs(scheme_none, g_identity, 20)
        np.testing.assert_allclose(coeffs.values[1:], np.arange(1, 21), rtol=1e-15)

    def test_ppswor_low_rate(self):
        coeffs = inverse_prob_coeffs(SamplingScheme.ppswor(0.01), g_identity, 5)
        assert coeffs.values[1] == pytest.approx(1.0 / -math.expm1(-0.01), rel=1e-12)
        assert coeffs.values[1] == pytest.approx(100.5, abs=0.01)

    def test_unbiased_by_construction(self):
        scheme = SamplingScheme.ppswor(0.3)
        coeffs = inverse_prob_coeffs(scheme, g_identity, 50)
        for i in range(1, 51):
            assert inclusion_prob(scheme, i) * coeffs.values[i] == pytest.approx(
                float(i), rel=1e-12
            )

    def test_inestimable_when_q_zero(self):
        with pytest.raises(ValueError, match="inestimable"):
            inverse_prob_coeffs(SamplingScheme.ppswor(0.0), g_identity, 5)

    def test_variance_formula(self):
        # matches g(i)^2 (1/q_i - 1)
        scheme = SamplingScheme.pps(0.02)
        table = nonprivate_moment_table(scheme, g_identity, 100)
        for i in [1, 7, 49, 50, 100]:
            q = inclusion_prob(scheme, i)
            assert table.variance[i] == pytest.approx(i * i * (1 / q - 1), rel=1e-12)
        assert np.all(table.bias == 0.0)


class TestUnbiased:
    def test_first_coefficient(self, std_table):
        # a_1 = g(1) / pi_{1,1} = 1 / delta
        coeffs = unbiased_coeffs(std_table, g_identity)
        assert coeffs.values[1] == pytest.approx(100.0, rel=1e-12)

    def test_residuals_vanish(self, std_table):
        coeffs = unbiased_coeffs(std_table, g_identity)
        rows = std_table.dense()
        for i in range(1, 201):
            resid = float(rows[i, 1:] @ coeffs.values[1:]) - float(i)
            assert abs(resid) <= 1e-9 * i

    def test_some_coefficients_negative(self, std_table):
        # nonnegativity is impossible for unbiased estimates here
        coeffs = unbiased_coeffs(std_table, g_identity)
        assert coeffs.values.min() < 0.0

    def test_uniqueness_via_perturbation(self, std_table):
        coeffs = unbiased_coeffs(std_table, g_identity)
        rows = std_table.dense()
        rng = np.random.default_rng(5)
        for j in rng.integers(1, 201, size=12):
            perturbed = coeffs.values.copy()
            perturbed[j] += 1e-6
            worst = max(
                abs(float(rows[i, 1:] @ perturbed[1:]) - i) for i in range(1, 201)
            )
            assert worst > 1e-9  # some equation now visibly broken

    def test_rejects_interval_tables(self, params_std):
        table = discretize_pdfs(compute_pdfs(params_std, SamplingScheme.ppswor(0.5), 10))
        with pytest.raises(ValueError, match="integer-token"):
            unbiased_coeffs(table, g_identity)


class TestMle:
    def test_nonnegative(self, std_table, std_rv):
        coeffs = mle_coeffs(std_table, std_rv, g_identity)
        assert coeffs.values.min() >= 0.0

    def test_fails_closed_on_another_law(self):
        params, scheme, m = PrivacyParams(0.1, 0.01), SamplingScheme.ppswor(0.05), 100
        table = discretize_pdfs(compute_pdfs(params, scheme, m))
        # a fresh vector of the same law, to the same or a wider range, is accepted
        for reach in (m, m + 30):
            got = mle_coeffs(table, compute_pi(params, scheme, reach), g_identity)
            want = mle_coeffs(table, table.reporting, g_identity)
            np.testing.assert_array_equal(got.values, want.values)
        for other in (compute_pi(params, SamplingScheme.none(), m),
                      compute_pi(PrivacyParams(0.5, 0.01), scheme, m)):
            with pytest.raises(ValueError, match="reporting vector is for"):
                mle_coeffs(table, other, g_identity)
        with pytest.raises(ValueError, match="cover the table's range"):
            mle_coeffs(table, compute_pi(params, scheme, m - 1), g_identity)
        law = table.reporting
        moved = law.pi.copy()
        moved[m // 2] *= 1.0 + 1e-15
        with pytest.raises(ValueError, match="with the table's pi"):
            mle_coeffs(table, ReportingVector(law.params, law.scheme, moved, law.q), g_identity)

    def test_argmax_structure_at_integral_l(self, params_integral_l, scheme_none):
        # the law at frequency j + L puts the most mass on token j
        params = params_integral_l
        L = 4
        m = 40
        table = compute_pij(params, scheme_none, m)
        rv = compute_pi(params, scheme_none, m)
        coeffs = mle_coeffs(table, rv, g_identity)
        for j in range(1, m - 2 * L):
            i_star = j + L
            assert coeffs.values[j] == pytest.approx(i_star / rv.pi[i_star], rel=1e-12)

    def test_argmax_scale_invariance(self, std_table, std_rv):
        # the most likely frequency of each token survives scaling every row
        scaled = table_from_dense(std_table.dense() * 0.37, std_table.reporting)
        np.testing.assert_array_equal(
            mle_coeffs(scaled, std_rv, g_identity).values,
            mle_coeffs(std_table, std_rv, g_identity).values,
        )

    def test_undefined_token_errors(self, std_table, std_rv):
        coeffs = mle_coeffs(std_table, std_rv, g_identity)
        # build a fake coefficient set with an unemitted token
        from privsample.estimators import EstimatorCoeffs

        defined = coeffs.defined.copy()
        defined[3] = False
        crippled = EstimatorCoeffs(values=coeffs.values, defined=defined)
        with pytest.raises(ValueError, match="never emitted"):
            estimate_statistic({"k": 3}, crippled)


class TestPerKeyMoments:
    def test_unbiased_has_zero_bias(self, std_table):
        coeffs = unbiased_coeffs(std_table, g_identity)
        for i in [1, 10, 100, 200]:
            mom = per_key_moments(std_table, coeffs, g_identity, i)
            assert abs(mom.bias) <= 1e-9 * max(1.0, abs(mom.expectation))

    def test_zero_row(self, params_tight, scheme_none):
        # frequency 0: nothing reported, estimate is identically zero
        table = compute_pij(params_tight, scheme_none, 5)
        coeffs = unbiased_coeffs(table, g_identity)
        mom = per_key_moments(table, coeffs, g_identity, 0)
        assert mom.expectation == 0.0 and mom.variance == 0.0 and mom.mse == 0.0

    def test_never_reported_row_moments(self, params_std, scheme_none):
        # a row with no reporting mass: the estimate is always 0, so the
        # error is deterministic: bias -g(i), MSE g(i)^2, variance 0
        from privsample.estimators import EstimatorCoeffs

        rows = np.zeros((3, 3))
        rows[0, 0] = 1.0
        rows[1, 0], rows[1, 1] = 0.9, 0.1
        rows[2, 0] = 1.0  # frequency 2 never reported
        table = table_from_dense(rows, compute_pi(params_std, scheme_none, 2))
        coeffs = EstimatorCoeffs(
            values=np.array([0.0, 10.0, 20.0]),
            defined=np.array([False, True, True]),
        )
        mom = per_key_moments(table, coeffs, g_identity, 2)
        assert mom.expectation == 0.0
        assert mom.bias == -2.0
        assert mom.mse == 4.0
        assert mom.variance == 0.0

    def test_mse_decomposition(self, std_table, std_rv):
        coeffs = mle_coeffs(std_table, std_rv, g_identity)
        table = moments_by_frequency(std_table, coeffs, g_identity)
        for i in range(1, 201):
            assert table.mse[i] == pytest.approx(
                table.variance[i] + table.bias[i] ** 2, rel=1e-9
            )
            assert table.variance[i] >= 0.0

    def test_monte_carlo_agreement(self, std_table, std_rv):
        # simulate the per-key estimate and compare mean and variance
        coeffs = mle_coeffs(std_table, std_rv, g_identity)
        rng = np.random.default_rng(2024)
        n = 1_000_000
        for i in [1, 18, 72]:
            row = std_table.dense()[i]
            values = np.concatenate([[0.0], coeffs.values[1:]])
            draws = rng.choice(len(row), size=n, p=row)
            est = values[draws]
            mom = per_key_moments(std_table, coeffs, g_identity, i)
            mean_sd = math.sqrt(mom.variance / n)
            assert abs(est.mean() - mom.expectation) <= 4 * mean_sd
            # fourth central moment controls the variance estimator's spread
            mu4 = float(row @ (values - mom.expectation) ** 4)
            var_sd = math.sqrt(max(mu4 - mom.variance**2, 0.0) / n)
            assert abs(est.var() - mom.variance) <= 4 * var_sd


class TestStatisticMoments:
    def test_single_key_matches_per_key(self, std_table, std_rv):
        coeffs = mle_coeffs(std_table, std_rv, g_identity)
        table = moments_by_frequency(std_table, coeffs, g_identity)
        i = 37
        sel = FrequencyHistogram.from_counts({i: 1})
        stat = statistic_moments(sel, table)
        per_key = per_key_moments(std_table, coeffs, g_identity, i)
        assert stat.bias == pytest.approx(per_key.bias, rel=1e-12)
        assert stat.variance == pytest.approx(per_key.variance, rel=1e-12)

    def test_unbiased_selection(self, std_table):
        coeffs = unbiased_coeffs(std_table, g_identity)
        table = moments_by_frequency(std_table, coeffs, g_identity)
        sel = FrequencyHistogram.from_counts({1: 10, 5: 3, 40: 7})
        stat = statistic_moments(sel, table)
        assert abs(stat.bias) <= 1e-7

    def test_doubling_counts(self, std_table, std_rv):
        coeffs = mle_coeffs(std_table, std_rv, g_identity)
        table = moments_by_frequency(std_table, coeffs, g_identity)
        sel1 = FrequencyHistogram.from_counts({3: 5, 20: 2})
        sel2 = FrequencyHistogram.from_counts({3: 10, 20: 4})
        s1, s2 = statistic_moments(sel1, table), statistic_moments(sel2, table)
        assert s2.bias == pytest.approx(2 * s1.bias, rel=1e-12)
        assert s2.variance == pytest.approx(2 * s1.variance, rel=1e-12)

    def test_nrmse_scaling_when_unbiased(self, scheme_none):
        # with zero bias, doubling counts divides NRMSE by sqrt(2)
        table = nonprivate_moment_table(SamplingScheme.ppswor(0.1), g_identity, 50)
        sel1 = FrequencyHistogram.from_counts({3: 5, 20: 2})
        sel2 = FrequencyHistogram.from_counts({3: 10, 20: 4})
        s1, s2 = statistic_moments(sel1, table), statistic_moments(sel2, table)
        assert s2.nrmse == pytest.approx(s1.nrmse / math.sqrt(2), rel=1e-12)

    def test_empty_statistic_has_no_nrmse(self, std_table, std_rv):
        coeffs = mle_coeffs(std_table, std_rv, g_identity)
        table = moments_by_frequency(std_table, coeffs, g_identity)
        stat = statistic_moments(FrequencyHistogram.from_counts({}), table)
        assert math.isnan(stat.nrmse)


class TestEstimateStatistic:
    def test_reads_only_private_output(self, std_table, std_rv):
        # the estimate is a pure function of the key -> token mapping and
        # the public coefficients; true frequencies never enter
        coeffs = mle_coeffs(std_table, std_rv, g_identity)
        sanitized = {"a": 5, "b": 12, "c": 5}
        total = estimate_statistic(sanitized, coeffs)
        want = 2 * coeffs.values[5] + coeffs.values[12]
        assert total == pytest.approx(want, rel=1e-12)

    def test_selection_filter(self, std_table, std_rv):
        coeffs = mle_coeffs(std_table, std_rv, g_identity)
        sanitized = {"a": 5, "b": 12}
        assert estimate_statistic(sanitized, coeffs, selection={"b"}) == pytest.approx(
            coeffs.values[12], rel=1e-12
        )
