import math

import numpy as np
import pytest
from hypothesis import given, settings
from oracles import inclusion_prob, pdf_mass, pi_marginals, table_laws, verify_table

from privsample import (
    PrivacyParams,
    SamplingScheme,
    WeightedSample,
    compute_pdfs,
    compute_pi,
    compute_pij,
    discretize_pdfs,
    sanitize_frequencies,
    sanitize_keys,
)

CONFIGS = [
    (PrivacyParams(0.1, 0.01), SamplingScheme.none()),
    (PrivacyParams(0.1, 0.01), SamplingScheme.ppswor(0.1)),
    (PrivacyParams(0.01, 1e-6), SamplingScheme.none()),
    (PrivacyParams(0.5, 0.05), SamplingScheme.pps(0.05)),
]


def continuous_hockey_stick(pdf_p, pdf_q, epsilon):
    """Segment-exact divergence between two piecewise laws; discretization oracle."""
    factor = math.exp(epsilon)
    total = max(0.0, pdf_p.atom0 - factor * pdf_q.atom0)
    grid = np.unique(np.concatenate([pdf_p.bounds, pdf_q.bounds]))

    def density(pdf, left_edge):
        k = np.searchsorted(pdf.bounds, left_edge, side="right") - 1
        if k < 0 or k >= len(pdf.densities):
            return 0.0
        return float(pdf.densities[k])

    for lo, hi in zip(grid[:-1], grid[1:]):
        dp = density(pdf_p, lo)
        dq = density(pdf_q, lo)
        total += max(0.0, dp - factor * dq) * (hi - lo)
    return total


class TestComputePij:
    def test_first_row_single_token(self, params_std, scheme_none):
        table = compute_pij(params_std, scheme_none, 5)
        pi_1 = compute_pi(params_std, scheme_none, 5).pi[1]
        assert table.dense()[1, 1] == pytest.approx(pi_1, rel=1e-15)
        assert table.dense()[1, 0] == pytest.approx(1.0 - pi_1, rel=1e-15)
        assert np.all(table.dense()[1, 2:] == 0.0)

    def test_support_is_lower_triangular(self, params_std, scheme_none):
        rows = compute_pij(params_std, scheme_none, 30).dense()
        for i in range(31):
            assert np.all(rows[i, i + 1 :] == 0.0)

    @pytest.mark.parametrize("params,scheme", CONFIGS)
    def test_marginals_match_key_solution(self, params, scheme):
        table = compute_pij(params, scheme, 120)
        rv = compute_pi(params, scheme, 120)
        np.testing.assert_allclose(pi_marginals(table), rv.pi, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("params,scheme", CONFIGS)
    def test_rows_are_private(self, params, scheme):
        assert verify_table(compute_pij(params, scheme, 120)).ok

    @pytest.mark.parametrize("params,scheme", CONFIGS)
    def test_stochastic_dominance(self, params, scheme):
        rows = compute_pij(params, scheme, 120).dense()
        cum = np.cumsum(rows, axis=1)
        # higher frequency -> cumulative mass pointwise no larger
        assert float((cum[1:] - cum[:-1]).max()) <= 1e-12

    def test_triangular_closed_form_at_integral_l(self, params_integral_l, scheme_none):
        # delta e^{k eps} up to offset L, mirrored decay to offset 2L
        params = params_integral_l
        eps, delta = params.epsilon, params.delta
        L = 4
        rows = compute_pij(params, scheme_none, 25).dense()
        for i in range(1, 26):
            for j in range(1, i + 1):
                k = i - j
                if k <= L:
                    want = delta * math.exp(k * eps)
                elif k <= 2 * L:
                    want = delta * math.exp((2 * L - k) * eps)
                else:
                    want = 0.0
                assert rows[i, j] == pytest.approx(want, rel=1e-9, abs=1e-15)


class TestComputePdfs:
    def test_first_pdf(self, params_std, scheme_none):
        fam = compute_pdfs(params_std, scheme_none, 3)
        pi_1 = compute_pi(params_std, scheme_none, 3).pi[1]
        f1 = fam[1]
        assert f1.atom0 == pytest.approx(1.0 - pi_1, rel=1e-15)
        assert f1.bounds[-1] == 1.0
        # pi_1 <= delta always, so the top density is pi_1 itself
        assert f1.densities[-1] == pytest.approx(pi_1, rel=1e-15)

    @pytest.mark.parametrize("params,scheme", CONFIGS)
    def test_masses_are_one(self, params, scheme):
        fam = compute_pdfs(params, scheme, 120)
        for pdf in fam:
            assert pdf_mass(pdf) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("params,scheme", CONFIGS)
    def test_top_density_is_min_pi_delta(self, params, scheme):
        fam = compute_pdfs(params, scheme, 60)
        pi = compute_pi(params, scheme, 60).pi
        for i in range(1, 61):
            pdf = fam[i]
            assert pdf.bounds[-1] == float(i)
            assert pdf.densities[-1] == pytest.approx(
                min(pi[i], params.delta), rel=1e-12
            )

    def test_segments_sorted_disjoint(self, params_std):
        fam = compute_pdfs(params_std, SamplingScheme.ppswor(0.2), 80)
        for pdf in fam[1:]:
            assert np.all(np.diff(pdf.bounds) > 0)
            assert pdf.bounds[0] == 0.0


@settings(deadline=None, max_examples=60)
@given(table_laws(min_epsilon=0.003, max_delta=0.8))
def test_density_family_shape(law):
    # what the crossover solve promises for every row, f_1 included; a
    # crossover clamped to the wrong end of its range breaks the mass check.
    # The mass below i - 1 carries rounding scaled by the e^eps densities:
    # up to 28 ulps of e^eps over 3,000 random laws, so 256 are allowed.
    params, scheme, m = law
    family = compute_pdfs(params, scheme, m)
    pi = family.reporting.pi
    tol = 1e-12 + 2.0 ** -44 * math.exp(params.epsilon)
    for i in range(1, m + 1):
        pdf = family[i]
        top = min(float(pi[i]), params.delta)
        assert pdf.atom0 == 1.0 - pi[i]
        assert pdf.bounds[0] == 0.0 and pdf.bounds[-1] == i
        assert np.all(np.diff(pdf.bounds) > 0)
        assert np.all(pdf.densities >= 0.0)
        # equal neighbours merge, so the top segment may start below i - 1
        assert pdf.bounds[-2] <= i - 1 and pdf.densities[-1] == top
        below = np.clip(np.minimum(pdf.bounds[1:], i - 1) - pdf.bounds[:-1], 0.0, None)
        assert abs(float(pdf.densities @ below) - (pi[i] - top)) <= tol


@settings(deadline=None, max_examples=60)
@given(table_laws(min_epsilon=0.003, max_delta=0.8, max_m=300))
def test_one_row_step(law):
    # each row builds on the previous row's band: band starts never go
    # down, an alg4 row's mass lies on [first nonzero token of row i-1, i]
    # (on [i, i] after a row with no mass off token 0) and adds up to pi_i
    params, scheme, m = law
    alg4 = compute_pij(params, scheme, m)
    for table in (alg4, discretize_pdfs(compute_pdfs(params, scheme, m))):
        assert np.all(np.diff(table.first[1:]) >= 0)
    rows, pi = alg4.dense(), alg4.reporting.pi
    lo = 1
    for i in range(1, m + 1):
        tokens = np.flatnonzero(rows[i, 1:]) + 1
        assert np.all((lo <= tokens) & (tokens <= i))
        assert abs(math.fsum(rows[i, 1:]) - pi[i]) <= 1e-15
        lo = int(tokens[0]) if tokens.size else i + 1


class TestDiscretize:
    def test_single_segment_pdf(self, params_std, scheme_none):
        fam = compute_pdfs(params_std, scheme_none, 1)
        table = discretize_pdfs(fam)
        assert table.n_tokens == 1
        assert table.dense().shape == (2, 2)

    @pytest.mark.parametrize("params,scheme", CONFIGS)
    def test_token_budget(self, params, scheme):
        m = 120
        table = discretize_pdfs(compute_pdfs(params, scheme, m))
        assert table.n_tokens <= 3 * m

    def test_token_budget_at_scale(self, params_std):
        m = 500
        table = discretize_pdfs(compute_pdfs(params_std, SamplingScheme.ppswor(0.1), m))
        assert table.n_tokens <= 3 * m

    @pytest.mark.parametrize("params,scheme", CONFIGS)
    def test_marginals_match_key_solution(self, params, scheme):
        m = 120
        table = discretize_pdfs(compute_pdfs(params, scheme, m))
        rv = compute_pi(params, scheme, m)
        np.testing.assert_allclose(pi_marginals(table), rv.pi, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("params,scheme", CONFIGS)
    def test_rows_are_private(self, params, scheme):
        assert verify_table(discretize_pdfs(compute_pdfs(params, scheme, 120))).ok

    @pytest.mark.parametrize("params,scheme", CONFIGS)
    def test_stochastic_dominance(self, params, scheme):
        rows = discretize_pdfs(compute_pdfs(params, scheme, 120)).dense()
        cum = np.cumsum(rows, axis=1)
        assert float((cum[1:] - cum[:-1]).max()) <= 1e-12

    def test_divergences_preserved_exactly(self, params_std):
        # hockey-stick between adjacent laws: segment arithmetic on the
        # continuous pdfs vs the discretized rows
        scheme = SamplingScheme.ppswor(0.3)
        fam = compute_pdfs(params_std, scheme, 40)
        rows = discretize_pdfs(fam).dense()
        factor = math.exp(params_std.epsilon)
        for i in range(1, 41):
            want_up = continuous_hockey_stick(fam[i], fam[i - 1], params_std.epsilon)
            got_up = float(
                np.maximum(rows[i] - factor * rows[i - 1], 0.0).sum()
            )
            assert got_up == pytest.approx(want_up, abs=1e-13)
            want_down = continuous_hockey_stick(fam[i - 1], fam[i], params_std.epsilon)
            got_down = float(
                np.maximum(rows[i - 1] - factor * rows[i], 0.0).sum()
            )
            assert got_down == pytest.approx(want_down, abs=1e-13)

    @pytest.mark.parametrize("params,scheme", CONFIGS)
    def test_cumulative_profiles_match_integer_table(self, params, scheme):
        """Cross-construction oracle: at every integer split both tables
        carry the same cumulative mass.

        Both constructions satisfy cum_i(z) = max(forced_min(z),
        pi_i - cap(z)) with identical forced minimums and caps at integer
        positions, so the discrete two-pass build and the segment-exact
        density build must agree there despite sharing no code.
        """
        m = 60
        t4 = compute_pij(params, scheme, m)
        t5 = discretize_pdfs(compute_pdfs(params, scheme, m))
        edges = t5.token_edges
        rows4, rows5 = t4.dense(), t5.dense()
        for i in range(m + 1):
            cum4 = np.concatenate([[0.0], np.cumsum(rows4[i, 1:])])
            cum5 = np.cumsum(rows5[i, 1:])
            for z in range(m + 1):
                k = int(np.searchsorted(edges, z, side="right"))
                c5 = cum5[k - 1] if k > 0 else 0.0
                assert abs(cum4[z] - c5) <= 1e-12

    def test_tokens_bounded_by_own_frequency(self, params_std, scheme_none):
        # row i never reports a token whose interval lies above position i
        table = discretize_pdfs(compute_pdfs(params_std, scheme_none, 50))
        edges = table.token_edges
        rows = table.dense()
        for i in range(1, 51):
            support = np.nonzero(rows[i, 1:])[0]
            assert edges[support].max() <= i + 1e-12


class TestRandomizedConfigurations:
    def test_invariants_across_parameter_space(self):
        # seeded sweep over privacy and sampling parameters: both
        # constructions must keep masses, marginals, privacy, dominance and
        # the token budget everywhere, not just at the headline settings
        rng = np.random.default_rng(7)
        for _ in range(12):
            eps = float(10 ** rng.uniform(-2, 0.7))
            delta = float(10 ** rng.uniform(-7, -0.001))
            kind = rng.choice(["none", "ppswor", "pps"])
            if kind == "none":
                scheme = SamplingScheme.none()
            else:
                scheme = SamplingScheme(
                    kind=kind,
                    tau=float(10 ** rng.uniform(-3, 0.5)),
                    power=float(rng.choice([0.5, 1.0, 2.0])),
                )
            m = int(rng.integers(5, 60))
            params = PrivacyParams(eps, delta)
            fam = compute_pdfs(params, scheme, m)
            t5 = discretize_pdfs(fam)
            t4 = compute_pij(params, scheme, m)
            rv = compute_pi(params, scheme, m)
            label = f"eps={eps:.3g} delta={delta:.3g} {kind} m={m}"
            assert max(abs(pdf_mass(pdf) - 1) for pdf in fam) <= 1e-11, label
            assert float(np.abs(pi_marginals(t5) - rv.pi).max()) <= 1e-11, label
            assert float(np.abs(pi_marginals(t4) - rv.pi).max()) <= 1e-11, label
            assert verify_table(t5).ok and verify_table(t4).ok, label
            assert t5.n_tokens <= 3 * m, label
            cum = np.cumsum(t5.dense(), axis=1)
            assert float((cum[1:] - cum[:-1]).max()) <= 1e-12, label


class TestSanitizeFrequencies:
    def test_never_reported_row(self, params_tight, scheme_none):
        # at tiny delta, frequency-1 keys are reported with pi_1 = delta;
        # token draws respect that almost-never rate
        table = compute_pij(params_tight, scheme_none, 3)
        sample = WeightedSample(pairs={f"k{i}": 1 for i in range(1000)}, scheme=scheme_none)
        out = sanitize_frequencies(sample, table, seed=1)
        assert len(out) <= 3  # mean 1e-3, wildly above 4 sigma otherwise

    def test_empty_sample(self, params_std, scheme_none):
        table = compute_pij(params_std, scheme_none, 5)
        assert sanitize_frequencies(WeightedSample({}, scheme_none), table, seed=1) == {}

    def test_frequency_beyond_table(self, params_std, scheme_none):
        table = compute_pij(params_std, scheme_none, 5)
        sample = WeightedSample(pairs={"k": 6}, scheme=scheme_none)
        with pytest.raises(ValueError, match="max_frequency"):
            sanitize_frequencies(sample, table, seed=1)

    @pytest.mark.parametrize("pairs, scheme", [
        ({"a": 2, "k": 6}, SamplingScheme.none()),
        ({"a": 2, "k": 0}, SamplingScheme.none()),
        ({"a": 2}, SamplingScheme.ppswor(0.5)),
    ])
    def test_fails_closed_as_sanitize_keys_does(self, params_std, scheme_none, pairs, scheme):
        # one check serves both sanitizers, so they fail with one message
        table = compute_pij(params_std, scheme_none, 5)
        sample = WeightedSample(pairs=pairs, scheme=scheme)
        with pytest.raises(ValueError) as keys_error:
            sanitize_keys(sample, table.reporting, seed=1)
        with pytest.raises(ValueError) as freqs_error:
            sanitize_frequencies(sample, table, seed=1)
        assert str(freqs_error.value) == str(keys_error.value)

    def test_tokens_at_most_frequency(self, params_std, scheme_none):
        table = compute_pij(params_std, scheme_none, 40)
        sample = WeightedSample(
            pairs={f"k{i}": (i % 40) + 1 for i in range(5000)}, scheme=scheme_none
        )
        for key, token in sanitize_frequencies(sample, table, seed=2).items():
            freq = sample.pairs[key]
            assert 1 <= token <= freq

    def test_token_law_concentrates(self, params_std):
        # multinomial check: empirical token histogram within 4 sigma per token
        n = 1_000_000
        i = 12
        scheme = SamplingScheme.ppswor(0.1)
        table = discretize_pdfs(compute_pdfs(params_std, scheme, 20))
        sample = WeightedSample(pairs={f"k{j}": i for j in range(n)}, scheme=scheme)
        out = sanitize_frequencies(sample, table, seed=3)
        q_i = inclusion_prob(scheme, i)

        counts = np.zeros(table.n_tokens + 1)
        for token in out.values():
            counts[token] += 1
        # conditional law given sampled; token 0 is the complement
        cond = table.dense()[i] / q_i
        cond[0] = 1.0 - cond[1:].sum()
        counts[0] = n - len(out)
        for j in range(table.n_tokens + 1):
            if cond[j] < 1e-7:
                continue
            sd = math.sqrt(n * cond[j] * (1 - cond[j]))
            assert abs(counts[j] - n * cond[j]) <= 4 * sd

    def test_reproducible(self, params_std, scheme_none):
        table = compute_pij(params_std, scheme_none, 30)
        sample = WeightedSample(
            pairs={f"k{i}": (i % 30) + 1 for i in range(2000)}, scheme=scheme_none
        )
        assert sanitize_frequencies(sample, table, seed=9) == sanitize_frequencies(
            sample, table, seed=9
        )
