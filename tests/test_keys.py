import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from oracles import (dense, inclusion_prob, pi_star_closed_form, ppswor_structure, table_laws,
                     verify_dp_dense)

from privsample import (
    PrivacyParams,
    SamplingScheme,
    WeightedSample,
    compute_pdfs,
    compute_pi,
    compute_pij,
    discretize_pdfs,
    draw_sample,
    l_value,
    sanitize_keys,
    verify_dp,
)
from privsample.formats import read_pi_csv, write_pi_csv


class TestComputePi:
    def test_needs_a_frequency(self, params_std, scheme_none):
        with pytest.raises(ValueError, match="max_frequency must be >= 1"):
            compute_pi(params_std, scheme_none, 0)

    def test_first_step_is_delta(self, params_std, scheme_none):
        rv = compute_pi(params_std, scheme_none, 10)
        assert rv.pi[0] == 0.0
        assert rv.pi[1] == params_std.delta

    def test_second_step(self, params_std, scheme_none):
        # one recurrence step: delta (e^eps + 1)
        rv = compute_pi(params_std, scheme_none, 10)
        want = params_std.delta * (math.exp(params_std.epsilon) + 1.0)
        assert rv.pi[2] == pytest.approx(want, rel=1e-15)
        assert rv.pi[2] == pytest.approx(0.0210517, abs=5e-8)

    def test_small_q_wins_at_low_frequency(self, params_std):
        # q_1 < delta, so privacy costs nothing at frequency 1
        scheme = SamplingScheme.ppswor(0.01)
        rv = compute_pi(params_std, scheme, 10)
        assert rv.pi[1] == inclusion_prob(scheme, 1)

    def test_invariants(self, params_std, params_tight):
        for params in [params_std, params_tight]:
            for scheme in [
                SamplingScheme.none(),
                SamplingScheme.ppswor(0.1),
                SamplingScheme.pps(0.02),
            ]:
                rv = compute_pi(params, scheme, 300)
                eps, delta = params.epsilon, params.delta
                e_eps, e_neg = math.exp(eps), math.exp(-eps)
                pi, q = rv.pi, rv.q
                assert pi[0] == 0.0
                assert np.all(np.diff(pi) >= -1e-15)  # non-decreasing
                assert np.all(pi <= q + 1e-15)
                for i in range(1, 301):
                    assert pi[i] <= e_eps * pi[i - 1] + delta + 1e-15
                    assert 1.0 - pi[i - 1] <= e_eps * (1.0 - pi[i]) + delta + 1e-12

    def test_stepwise_optimality(self, params_std, scheme_none):
        # raising any pi[i] by 1e-9 breaks one of the three constraints
        rv = compute_pi(params_std, scheme_none, 100)
        eps, delta = params_std.epsilon, params_std.delta
        e_eps, e_neg = math.exp(eps), math.exp(-eps)
        for i in range(1, 101):
            raised = rv.pi[i] + 1e-9
            caps = (
                rv.q[i],
                e_eps * rv.pi[i - 1] + delta,
                1.0 + e_neg * (rv.pi[i - 1] + delta - 1.0),
            )
            assert raised > min(caps)

    def test_end_to_end_law_is_private(self, params_std, params_tight, scheme_none):
        for params in [params_std, params_tight]:
            rv = compute_pi(params, scheme_none, 500)
            assert verify_dp(rv, params).ok

    @pytest.mark.parametrize("params", [PrivacyParams(0.1, 0.01), PrivacyParams(0.5, 0.001)])
    @pytest.mark.parametrize(
        "scheme",
        [SamplingScheme.none(), SamplingScheme.ppswor(0.05), SamplingScheme.pps(0.1, 0.5),
         SamplingScheme.ppswor(0.002, 2.0)],
    )
    def test_tables_spend_exactly_pi(self, params, scheme):
        # one recurrence: both tables report with exactly compute_pi's mass,
        # and a larger range extends the same pi array
        pi = compute_pi(params, scheme, 100).pi
        np.testing.assert_array_equal(dense(compute_pij(params, scheme, 100))[:, 0], 1.0 - pi)
        alg5 = discretize_pdfs(compute_pdfs(params, scheme, 100))
        np.testing.assert_array_equal(dense(alg5)[:, 0], 1.0 - pi)
        np.testing.assert_array_equal(compute_pi(params, scheme, 400).pi[:101], pi)

    @pytest.mark.parametrize("params", [PrivacyParams(0.1, 0.01), PrivacyParams(0.5, 0.001)])
    @pytest.mark.parametrize(
        "scheme",
        [SamplingScheme.none(), SamplingScheme.ppswor(0.05), SamplingScheme.pps(0.1, 0.5)],
    )
    def test_tables_carry_their_law(self, params, scheme):
        # every table holds the very pi and q its rows were built from
        rv = compute_pi(params, scheme, 60)
        family = compute_pdfs(params, scheme, 60)
        tables = (compute_pij(params, scheme, 60), family.reporting, discretize_pdfs(family))
        for carried in tables:
            assert (carried.params, carried.scheme) == (params, scheme)
            assert carried.pi.tobytes() == rv.pi.tobytes()
            assert carried.q.tobytes() == rv.q.tobytes()


class TestClosedForm:
    def test_first_value_is_delta(self, params_std):
        assert pi_star_closed_form(params_std, 1) == pytest.approx(params_std.delta, rel=1e-15)

    def test_saturation(self, params_std):
        L = l_value(params_std)
        i_sat = math.ceil(2 * L + 2)
        assert pi_star_closed_form(params_std, i_sat) == 1.0

    def test_matches_recurrence_through_growth_phase(self, params_std, params_tight, scheme_none):
        # agreement holds for every i <= floor(L) (and in fact floor(L + 1))
        for params in [params_std, params_tight]:
            L = l_value(params)
            rv = compute_pi(params, scheme_none, int(L) + 2)
            for i in range(int(L) + 1):
                assert rv.pi[i] == pytest.approx(
                    pi_star_closed_form(params, i), rel=1e-12
                )

    def test_mirror_phase_is_shifted_by_one(self, params_integral_l, scheme_none):
        """Recorded deviation: the printed decay branch lags the recurrence.

        For integral L the recurrence saturates at 2L + 1 and its decay
        phase equals the closed form evaluated one step later; this is the
        seam ambiguity, kept visible here rather than forced to agree.
        """
        params = params_integral_l
        L = 4
        rv = compute_pi(params, scheme_none, 2 * L + 3)
        for i in range(L + 2, 2 * L + 2):
            assert rv.pi[i] == pytest.approx(
                pi_star_closed_form(params, i + 1), rel=1e-12
            )
        assert rv.pi[2 * L + 1] == 1.0
        assert pi_star_closed_form(params, 2 * L + 1) != 1.0


class TestPpsworStructure:
    def test_two_phase_shape(self, params_std):
        for tau in [1.0, 0.1, 0.01]:
            ell = ppswor_structure(params_std, SamplingScheme.ppswor(tau), 500)
            assert ell is None or 1 <= ell <= 500

    def test_delta_dominates_q(self, params_std):
        # q_1 < delta means the solution equals q everywhere (crossover at 1)
        scheme = SamplingScheme.ppswor(0.01)
        ell = ppswor_structure(params_std, scheme, 200)
        assert ell == 1
        rv = compute_pi(params_std, scheme, 200)
        np.testing.assert_allclose(rv.pi, rv.q, rtol=0, atol=1e-15)

    def test_crossover_scan_matches_definition(self):
        from privsample import PrivacyParams

        params = PrivacyParams(0.1, 0.001)
        scheme = SamplingScheme.ppswor(1.0)
        ell = ppswor_structure(params, scheme, 500)
        star = compute_pi(params, SamplingScheme.none(), 500).pi
        q = scheme.probs(500)
        scan = next((i for i in range(1, 501) if star[i] > q[i]), None)
        assert ell == scan

    def test_no_crossover_returns_none(self, params_std):
        # huge tau: q is essentially 1 everywhere, the no-sampling curve
        # never exceeds it
        ell = ppswor_structure(params_std, SamplingScheme.ppswor(1000.0), 100)
        assert ell is None

    def test_rejects_other_schemes(self, params_std):
        with pytest.raises(ValueError):
            ppswor_structure(params_std, SamplingScheme.pps(0.1), 100)
        with pytest.raises(ValueError):
            ppswor_structure(params_std, SamplingScheme.ppswor(0.1, power=2.0), 100)


class TestSanitizeKeys:
    def test_certain_keep_when_pi_equals_q(self, params_std):
        scheme = SamplingScheme.ppswor(0.01)  # pi = q everywhere here
        rv = compute_pi(params_std, scheme, 50)
        sample = WeightedSample(pairs={f"k{i}": 5 for i in range(500)}, scheme=scheme)
        kept = sanitize_keys(sample, rv, seed=3)
        assert kept == [f"k{i}" for i in range(500)]

    def test_empty_sample(self, params_std, scheme_none):
        rv = compute_pi(params_std, scheme_none, 10)
        sample = WeightedSample(pairs={}, scheme=scheme_none)
        assert sanitize_keys(sample, rv, seed=3) == []

    def test_frequency_beyond_table_errors(self, params_std, scheme_none):
        rv = compute_pi(params_std, scheme_none, 10)
        sample = WeightedSample(pairs={"k": 11}, scheme=scheme_none)
        with pytest.raises(ValueError, match="extended|max_frequency"):
            sanitize_keys(sample, rv, seed=3)

    def test_scheme_mismatch_errors(self, params_std, scheme_none):
        rv = compute_pi(params_std, scheme_none, 10)
        sample = WeightedSample(pairs={"k": 3}, scheme=SamplingScheme.ppswor(0.5))
        with pytest.raises(ValueError, match="scheme|drawn with"):
            sanitize_keys(sample, rv, seed=3)

    def test_keep_rate_concentrates(self, params_std):
        # binomial check of the conditional keep probability pi_i / q_i
        n = 1_000_000
        i = 25
        scheme = SamplingScheme.ppswor(0.05)
        rv = compute_pi(params_std, scheme, 50)
        sample = WeightedSample(pairs={f"k{j}": i for j in range(n)}, scheme=scheme)
        kept = sanitize_keys(sample, rv, seed=5)
        p = rv.pi[i] / rv.q[i]
        sd = math.sqrt(n * p * (1 - p))
        assert abs(len(kept) - n * p) <= 4 * sd

    def test_end_to_end_reporting_rate(self, params_std):
        # over both sampling and sanitization randomness the keep rate is pi_i
        n = 200_000
        i = 10
        scheme = SamplingScheme.ppswor(0.1)
        sample = draw_sample({f"k{j}": i for j in range(n)}, scheme, seed=42)
        rv = compute_pi(params_std, scheme, 50)
        kept = sanitize_keys(sample, rv, seed=43)
        p = rv.pi[i]
        sd = math.sqrt(n * p * (1 - p))
        assert abs(len(kept) - n * p) <= 4 * sd


class TestReportingLossSupport:
    def test_reporting_loss_support_is_bounded(self, params_std, params_tight):
        for params, scheme, m in [
            (params_std, SamplingScheme.ppswor(1.0), 500),
            (params_std, SamplingScheme.ppswor(0.01), 500),
            (params_std, SamplingScheme.pps(0.003), 2000),
            (params_tight, SamplingScheme.ppswor(0.1), 2500),
        ]:
            rv = compute_pi(params, scheme, m)
            n_below = int(np.sum(rv.pi[1:] < rv.q[1:]))
            assert n_below <= 2 * math.ceil(l_value(params)) + 1


@settings(deadline=None, max_examples=60)
@given(table_laws())
def test_non_report_mass_has_one_home(law):
    # the key law is bands of one token with atom0 = 1 - pi, and every
    # table and density built from it takes that atom0 bit for bit
    params, scheme, m = law
    rv = compute_pi(params, scheme, m)
    assert rv.atom0.tobytes() == (1.0 - rv.pi).tobytes()
    family = compute_pdfs(params, scheme, m)
    for atom0 in (compute_pij(params, scheme, m).atom0, discretize_pdfs(family).atom0,
                  np.array([pdf.atom0 for pdf in family])):
        assert atom0.tobytes() == rv.atom0.tobytes()

    # the DP oracle reads the law as it is, as it reads the dense two-token rows
    report = verify_dp(rv, params)
    want = verify_dp_dense(np.stack([1.0 - rv.pi, rv.pi], 1), params)
    assert (report.worst_pair, report.direction) == (want.worst_pair, want.direction)
    assert abs(report.worst_divergence - want.worst_divergence) <= 1e-12

    # a pi export reads back as the same bands
    buf = io.StringIO()
    write_pi_csv(buf, rv)
    buf.seek(0)
    back = read_pi_csv(buf)
    for name in ("atom0", "first", "rows"):
        assert getattr(back, name).tobytes() == getattr(rv, name).tobytes()
