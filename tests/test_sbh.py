import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from oracles import inclusion_prob
from scipy import integrate

from privsample import (
    PrivacyParams,
    SamplingScheme,
    SbhConfig,
    compute_pi,
    g_identity,
    g_power,
    sampled_sbh,
    sampled_sbh_report_prob,
    sbh_concordance_prob,
    sbh_moment_table,
)

NONE = SamplingScheme.none()


def moments_at(config, scheme, g, i):
    """Row i of the baseline's moment table."""
    table = sbh_moment_table(config, scheme, g, i)
    return SimpleNamespace(expectation=table.expectation[i], bias=table.bias[i],
                           variance=table.variance[i], mse=table.mse[i])


@pytest.fixture(scope="module")
def config(params_std):
    return SbhConfig(params_std)


class TestThreshold:
    def test_value(self, config):
        assert config.threshold == pytest.approx(10 * math.log(100.0) + 1.0, rel=1e-14)

    def test_above_one_for_delta_below_one(self):
        assert SbhConfig(PrivacyParams(1.0, 0.5)).threshold > 1.0


class TestReportProb:
    def test_frequency_one(self, config):
        # T - 1 = ln(1/delta)/eps exactly, so phi_1 = delta / 2
        assert sampled_sbh_report_prob(config, NONE, 1) == pytest.approx(0.01 / 2, rel=1e-12)

    def test_median_at_threshold(self, config):
        phi = sampled_sbh_report_prob(config, NONE, config.threshold)
        assert phi == pytest.approx(0.5, rel=1e-12)

    def test_low_frequency_ratio(self, params_std, scheme_none, config):
        # optimal reporting doubles the baseline at frequency 1
        rv = compute_pi(params_std, scheme_none, 5)
        assert rv.pi[1] / sampled_sbh_report_prob(config, NONE, 1) == pytest.approx(2.0, rel=1e-12)

    def test_non_decreasing_and_dp_recurrence(self, config, params_std):
        eps, delta = params_std.epsilon, params_std.delta
        phis = [sampled_sbh_report_prob(config, NONE, i) for i in range(1, 400)]
        assert all(b >= a for a, b in zip(phis, phis[1:]))
        for a, b in zip(phis, phis[1:]):
            assert b <= math.exp(eps) * a + delta + 1e-15

    def test_pointwise_dominated_by_optimal(self, params_std, params_tight, scheme_none):
        for params in [params_std, params_tight]:
            cfg = SbhConfig(params)
            rv = compute_pi(params, scheme_none, 2000)
            phis = np.array([sampled_sbh_report_prob(cfg, NONE, i) for i in range(1, 2001)])
            assert np.all(rv.pi[1:] >= phis - 1e-15)

    @pytest.mark.parametrize(
        "scheme", [NONE, SamplingScheme.ppswor(0.05), SamplingScheme.pps(0.05)],
        ids=["none", "ppswor-closed-form", "pps-quadrature"],
    )
    @pytest.mark.parametrize("i", [0, -3])
    def test_absent_key_is_never_kept(self, config, scheme, i):
        assert sampled_sbh_report_prob(config, scheme, i) == 0.0


class TestSanitize:
    def test_empty_input(self, config):
        assert sampled_sbh({}, config, NONE, seed=1) == {}

    def test_rejects_nonpositive_frequency(self, config):
        with pytest.raises(ValueError):
            sampled_sbh({"k": 0}, config, NONE, seed=1)

    def test_high_frequency_almost_surely_kept(self, config):
        # Laplace tail: keys far above threshold survive with prob > 1 - 1e-4
        i = int(config.threshold + 10 / config.params.epsilon) + 1
        n = 20_000
        kept = sampled_sbh({f"k{j}": i for j in range(n)}, config, NONE, seed=4)
        assert len(kept) >= n * (1 - 1e-4) - 4 * math.sqrt(n * 1e-4)

    def test_keep_rate_concentrates(self, config):
        n = 1_000_000
        i = 40
        kept = sampled_sbh({f"k{j}": i for j in range(n)}, config, NONE, seed=5)
        phi = sampled_sbh_report_prob(config, NONE, i)
        sd = math.sqrt(n * phi * (1 - phi))
        assert abs(len(kept) - n * phi) <= 4 * sd

    def test_outputs_are_sparse_and_real(self, config):
        data = {f"k{j}": 60 for j in range(100)}
        out = sampled_sbh(data, config, NONE, seed=6)
        assert set(out) <= set(data)
        assert all(isinstance(v, float) and v >= config.threshold for v in out.values())

    def test_reproducible(self, config):
        data = {f"k{j}": 50 for j in range(1000)}
        assert sampled_sbh(data, config, NONE, seed=7) == sampled_sbh(data, config, NONE, seed=7)


class TestSampledSbh:
    def test_scheme_none_is_plain_sbh(self, config):
        # scheme none keeps every noised value that clears T, as q = 1 does
        data = {f"k{j}": 55 for j in range(500)}
        keep_all = SamplingScheme.pps(1.0, 0.0)
        assert sampled_sbh(data, config, NONE, seed=8) == sampled_sbh(data, config, keep_all, seed=8)

    def test_tau_zero_empty(self, config):
        data = {f"k{j}": 55 for j in range(500)}
        assert sampled_sbh(data, config, SamplingScheme.ppswor(0.0), seed=8) == {}

    @pytest.mark.parametrize("scheme", [
        SamplingScheme.pps(0.0), SamplingScheme.pps(0.0, 0.0), SamplingScheme.ppswor(0.0),
        SamplingScheme.ppswor(0.0, 0.5),
    ], ids=["pps", "pps-power-0", "ppswor", "ppswor-power-0.5"])
    def test_tau_zero_keeps_nothing(self, config, scheme):
        for i in [1, 47, 48, 120]:
            assert sampled_sbh_report_prob(config, scheme, i) == 0.0

    def test_cap_past_the_largest_double(self, config):
        # (1 / tau)**(1 / power) overflows a double: q has no kink in range
        scheme = SamplingScheme.pps(1e-300, 0.1)
        for i in [1, 47, 48, 120]:
            p = sampled_sbh_report_prob(config, scheme, i)
            assert math.isfinite(p) and 0.0 <= p <= 1.0
        table = sbh_moment_table(config, scheme, g_identity, 60)
        assert np.isfinite(table.expectation).all()

    def test_closed_form_matches_quadrature(self, config):
        eps = config.params.epsilon
        T = config.threshold
        for tau in [0.5, 0.03, 0.001]:
            scheme = SamplingScheme.ppswor(tau)
            for i in [1, 20, 47, 48, 120]:
                def integrand(w):
                    return inclusion_prob(scheme, w) * 0.5 * eps * math.exp(
                        -eps * abs(w - i)
                    )

                want = 0.0
                pts = sorted({float(i), T + 60 / eps + i})
                lo = T
                for b in pts:
                    if b > lo:
                        want += integrate.quad(integrand, lo, b, limit=300)[0]
                        lo = b
                want += integrate.quad(integrand, lo, np.inf, limit=300)[0]
                got = sampled_sbh_report_prob(config, scheme, i)
                assert got == pytest.approx(want, rel=1e-8, abs=1e-14)

    def test_end_to_end_keep_rate(self, config):
        n = 500_000
        i = 45
        scheme = SamplingScheme.ppswor(0.05)
        data = {f"k{j}": i for j in range(n)}
        out = sampled_sbh(data, config, scheme, seed=9)
        p = sampled_sbh_report_prob(config, scheme, i)
        sd = math.sqrt(n * p * (1 - p))
        assert abs(len(out) - n * p) <= 4 * sd


class TestMoments:
    def test_bias_from_tail_formula(self, config):
        # scheme none, g identity: E_i = i - 0.5 e^{-eps (i - T)} (T - 1/eps)
        eps = config.params.epsilon
        T = config.threshold
        for i in [60, 72, 100]:
            mom = moments_at(config, SamplingScheme.none(), g_identity, i)
            want = i - 0.5 * math.exp(-eps * (i - T)) * (T - 1 / eps)
            assert mom.expectation == pytest.approx(want, rel=1e-9)

    def test_bias_vanishes_at_high_frequency(self, config):
        i = int(config.threshold + 10 / config.params.epsilon) + 1
        mom = moments_at(config, SamplingScheme.none(), g_identity, i)
        assert abs(mom.bias) < 1e-3 * i

    def test_bias_invariant_to_sampling_rate(self, config):
        # inverse-probability weighting cancels q in the first moment
        base = moments_at(config, SamplingScheme.none(), g_identity, 30)
        for tau in [0.5, 0.01]:
            mom = moments_at(config, SamplingScheme.ppswor(tau), g_identity, 30)
            assert mom.bias == pytest.approx(base.bias, rel=1e-8, abs=1e-12)
            assert mom.variance >= base.variance

    def test_monte_carlo_agreement(self, config):
        # simulate estimate = w* / q(w*) for kept-and-sampled keys
        i = math.ceil(config.threshold)
        scheme = SamplingScheme.ppswor(0.1)
        mom = moments_at(config, scheme, g_identity, i)
        n = 1_000_000
        rng = np.random.default_rng(31337)
        noised = i + rng.laplace(scale=1 / config.params.epsilon, size=n)
        kept = noised >= config.threshold
        q = np.where(kept, -np.expm1(-np.maximum(noised, 0) * scheme.tau), 1.0)
        sampled = kept & (rng.random(n) < q)
        est = np.where(sampled, noised / np.where(q > 0, q, 1.0), 0.0)
        sd = math.sqrt(mom.variance / n)
        assert abs(est.mean() - mom.expectation) <= 4 * sd

    def test_tau_zero_is_undefined(self, config):
        with pytest.raises(ValueError):
            moments_at(config, SamplingScheme.ppswor(0.0), g_identity, 5)


class TestConcordance:
    def test_matches_double_quadrature(self, config):
        eps = config.params.epsilon
        T = config.threshold

        def oracle(i1, i2):
            f2 = lambda b: 0.5 * eps * math.exp(-eps * abs(b - i2))
            def surv(b):
                if b < i1:
                    return 1.0 - 0.5 * math.exp(eps * (b - i1))
                return 0.5 * math.exp(-eps * (b - i1))

            val = integrate.quad(
                lambda b: f2(b) * surv(b), T, T + 900, limit=500,
                points=[p for p in (i1, i2) if p > T],
            )[0]
            phi1 = sampled_sbh_report_prob(config, NONE, i1)
            phi2 = sampled_sbh_report_prob(config, NONE, i2)
            return 0.5 * (1 - phi1) * (1 - phi2) + phi1 * (1 - phi2) + val

        for i1, i2 in [(80, 30), (50, 48), (100, 99), (10, 5), (48, 20), (2, 1)]:
            assert sbh_concordance_prob(config, i1, i2) == pytest.approx(
                oracle(i1, i2), rel=1e-9, abs=1e-12
            )

    def test_antisymmetry(self, config):
        for i1, i2 in [(80, 30), (50, 48), (7, 3)]:
            total = sbh_concordance_prob(config, i1, i2) + sbh_concordance_prob(
                config, i2, i1
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_equal_frequencies_tie(self, config):
        assert sbh_concordance_prob(config, 40, 40) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("epsilon, delta", [(0.5, 0.3), (1.0, 0.1), (0.1, 0.01), (2.0, 1e-6)])
    def test_absent_key_sits_at_the_bottom(self, epsilon, delta):
        # an absent key is never reported, so conc(i, 0) = (1 + phi_i) / 2
        # and conc(0, i) = (1 - phi_i) / 2, as concordance_matrix gives row 0
        config = SbhConfig(PrivacyParams(epsilon, delta))
        for i in (1, 5, 60, 500):
            phi = sampled_sbh_report_prob(config, NONE, i)
            above, below = sbh_concordance_prob(config, i, 0), sbh_concordance_prob(config, 0, i)
            assert above == pytest.approx(0.5 * (1.0 + phi), rel=0, abs=1e-15)
            assert below == pytest.approx(0.5 * (1.0 - phi), rel=0, abs=1e-15)
            assert above + below == pytest.approx(1.0, rel=0, abs=1e-15)
        assert sbh_concordance_prob(config, 0, 0) == 0.5
        grid = range(0, 80, 4)
        assert max(sbh_concordance_prob(config, i1, i2) for i1 in grid for i2 in grid) <= 1.0


# Schemes for the quadrature checks at eps 0.1, delta 0.01 (T = 47.05),
# with the frequencies on both sides of each pps cap w**power * tau = 1.
QUAD_SCHEMES = {
    "none": (SamplingScheme.none(), ()),
    "ppswor": (SamplingScheme.ppswor(0.03), ()),
    "pps-power-0.5": (SamplingScheme.pps(0.05, 0.5), (399, 401)),
    "pps-power-1": (SamplingScheme.pps(0.01), (99, 101)),
    "pps-power-2": (SamplingScheme.pps(1e-4, 2.0), (99, 101)),
}
# 1, just below, at and just above T, and far above it: 300 is within 60
# scales of T, 1000 is not
QUAD_FREQS = (1, 46, 47, 48, 300, 1000)
QUAD_CASES = [
    (name, i) for name, (_, caps) in QUAD_SCHEMES.items() for i in (*QUAD_FREQS, *caps)
]


def _mp_kept_integral(config, scheme, i, f):
    """30-digit integral of f(w) times the noise density at i over the kept region w >= T."""
    with mpmath.workdps(30):
        eps = mpmath.mpf(config.params.epsilon)
        T = mpmath.log(1 / mpmath.mpf(config.params.delta)) / eps + 1
        points = {T, max(T, mpmath.mpf(i)) + 60 / eps}
        if i > T:
            points.add(mpmath.mpf(i))
        if scheme.kind == "pps":
            cap = (1 / mpmath.mpf(scheme.tau)) ** (1 / mpmath.mpf(scheme.power))
            if cap > T:
                points.add(cap)

        def density(w):
            return eps / 2 * mpmath.exp(-eps * abs(w - i))

        return mpmath.quad(lambda w: f(w) * density(w), [*sorted(points), mpmath.inf])


def _mp_q(scheme):
    def q(w):
        if scheme.kind == "none":
            return mpmath.mpf(1)
        x = w ** mpmath.mpf(scheme.power) * mpmath.mpf(scheme.tau)
        return -mpmath.expm1(-x) if scheme.kind == "ppswor" else min(mpmath.mpf(1), x)

    return q


class TestQuadratureAgainstMpmath:
    @pytest.mark.parametrize("name, i", QUAD_CASES)
    @pytest.mark.parametrize("power", [1.0, 0.5])
    def test_moments(self, config, name, i, power):
        scheme, _ = QUAD_SCHEMES[name]
        q = _mp_q(scheme)
        g = g_identity if power == 1.0 else g_power(power)
        mom = moments_at(config, scheme, g, i)
        p = mpmath.mpf(power)
        want_first = _mp_kept_integral(config, scheme, i, lambda w: w**p)
        want_second = _mp_kept_integral(config, scheme, i, lambda w: w ** (2 * p) / q(w))
        gi = float(g(i))
        second = mom.mse + gi * (2.0 * mom.expectation - gi)
        assert mom.expectation == pytest.approx(float(want_first), rel=1e-12)
        assert second == pytest.approx(float(want_second), rel=1e-12)

    @pytest.mark.parametrize("name, i", QUAD_CASES)
    def test_report_prob(self, config, name, i):
        scheme, _ = QUAD_SCHEMES[name]
        want = _mp_kept_integral(config, scheme, i, _mp_q(scheme))
        assert sampled_sbh_report_prob(config, scheme, i) == pytest.approx(float(want), rel=1e-12)


class TestMomentTable:
    @pytest.mark.parametrize("name", QUAD_SCHEMES)
    @pytest.mark.parametrize("g", [g_identity, g_power(0.5)])
    def test_rows_equal_single_frequency_bit_for_bit(self, config, name, g):
        scheme, _ = QUAD_SCHEMES[name]
        table = sbh_moment_table(config, scheme, g, 120)
        assert table.max_frequency == 120
        assert table.expectation[0] == table.bias[0] == table.variance[0] == table.mse[0] == 0.0
        for i in range(1, 121):
            mom = moments_at(config, scheme, g, i)  # a table that ends at i
            got = (table.expectation[i], table.bias[i], table.variance[i], table.mse[i])
            assert got == (mom.expectation, mom.bias, mom.variance, mom.mse), i

    def test_undefined_inputs_raise(self, config):
        with pytest.raises(ValueError):
            sbh_moment_table(config, SamplingScheme.pps(0.0), g_identity, 10)
