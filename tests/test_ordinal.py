import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import concordance_matrix_dense, concordance_prob, dense, table_from_dense, table_laws

from privsample import (
    FrequencyHistogram,
    PrivacyParams,
    SamplingScheme,
    TokenBands,
    compute_pdfs,
    compute_pi,
    compute_pij,
    concordance_matrix,
    discretize_pdfs,
    expected_kendall_tau,
)


def enumerate_concordance(row1, row2):
    """Oracle: enumerate all outcome pairs with the 0.5 tie credit."""
    total = 0.0
    for j1, p1 in enumerate(row1):
        for j2, p2 in enumerate(row2):
            if j1 > j2:
                total += p1 * p2
            elif j1 == j2:
                total += 0.5 * p1 * p2
    return total


class TestConcordanceProb:
    def test_ordered_point_masses(self):
        assert concordance_prob([0, 0, 1], [0, 1, 0]) == 1.0

    def test_identical_rows(self):
        row = [0.3, 0.3, 0.4]
        assert concordance_prob(row, row) == pytest.approx(0.5, abs=1e-15)

    def test_two_outcome_enumeration(self):
        # row1 half on t1 and t2, row2 all on t1: 0.5 * 1 + 0.5 * 0.5
        row1 = [0.0, 0.5, 0.5]
        row2 = [0.0, 1.0, 0.0]
        assert concordance_prob(row1, row2) == pytest.approx(0.75, abs=1e-15)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = rng.integers(2, 8)
            r1 = rng.dirichlet(np.ones(n))
            r2 = rng.dirichlet(np.ones(n))
            assert concordance_prob(r1, r2) == pytest.approx(
                enumerate_concordance(r1, r2), abs=1e-12
            )

    def test_antisymmetry(self):
        rng = np.random.default_rng(78)
        for _ in range(25):
            n = rng.integers(2, 9)
            r1 = rng.dirichlet(np.ones(n))
            r2 = rng.dirichlet(np.ones(n))
            assert concordance_prob(r1, r2) + concordance_prob(r2, r1) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_dominance_implies_majority(self, params_std):
        # strictly dominating rows win at least half the comparisons
        table = discretize_pdfs(compute_pdfs(params_std, SamplingScheme.none(), 40))
        conc = concordance_matrix(table)
        for hi in range(1, 41):
            for lo in range(hi):
                assert conc[hi, lo] >= 0.5 - 1e-12

    def test_matrix_matches_scalar(self, params_std):
        table = discretize_pdfs(compute_pdfs(params_std, SamplingScheme.ppswor(0.4), 15))
        conc = concordance_matrix(table)
        for i1, i2 in [(3, 1), (10, 2), (15, 14), (4, 4)]:
            assert conc[i1, i2] == pytest.approx(
                concordance_prob(*dense(table)[[i1, i2]]), abs=1e-12
            )

    @settings(deadline=None, max_examples=40)
    @given(table_laws())
    def test_matrix_matches_dense_on_built_tables(self, law):
        for table in (compute_pij(*law), discretize_pdfs(compute_pdfs(*law))):
            np.testing.assert_allclose(
                concordance_matrix(table), concordance_matrix_dense(table), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])  # around the block of 64 columns
    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_matrix_matches_dense_on_random_bands(self, n, data):
        # any starts, not monotone, with zeros in and out of the bands
        n_tokens = data.draw(st.integers(1, 200))
        width = data.draw(st.integers(0, n_tokens))
        seed = data.draw(st.integers(0, 2**32 - 1))
        first = np.random.default_rng(seed).integers(1, n_tokens - width + 2, n)
        table = _random_bands(seed, first, width, n_tokens)
        np.testing.assert_allclose(
            concordance_matrix(table), concordance_matrix_dense(table), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("width, n_tokens, first", [
        (0, 30, np.arange(65) % 30 + 1),  # no band: token 0 only
        (4, 300, np.arange(129)[::-1] * 2 + 1),  # starts falling, not rising
        (5, 100, np.where(np.arange(64) % 2, 96, 1)),  # each block spans all tokens
        (300, 300, np.ones(63, dtype=np.int64)),  # one band over all tokens
    ])
    def test_matrix_matches_dense_on_edge_layouts(self, width, n_tokens, first):
        table = _random_bands(0, first, width, n_tokens)
        np.testing.assert_allclose(
            concordance_matrix(table), concordance_matrix_dense(table), rtol=0, atol=1e-12)

    def test_matrix_holds_probabilities(self, params_std, scheme_none):
        # alg5 rows sum to up to 1 + 8.9e-16, which put 358,221 pairs of
        # this matrix above 1 (at most by 1.1e-15) before the clip; C + C^T
        # misses 1 by the rounding of two sums over the bands, 1.3e-15 here
        conc = concordance_matrix(discretize_pdfs(compute_pdfs(params_std, scheme_none, 1000)))
        assert conc.min() >= 0.0 and conc.max() <= 1.0
        assert np.abs(conc + conc.T - 1.0).max() <= 2e-15


def _random_bands(seed, first, width, n_tokens):
    """Probability rows with random masses, some 0, on token 0 and bands at ``first``."""
    rng = np.random.default_rng(seed)
    laws = rng.random((len(first), width + 1)) * (rng.random((len(first), width + 1)) < 0.7)
    laws[:, 0] += 1e-3  # no empty row
    laws /= laws.sum(axis=1, keepdims=True)
    return TokenBands(laws[:, 0], np.asarray(first, dtype=np.int64), laws[:, 1:], n_tokens)


def test_concordance_and_kendall_memory_follow_the_bands(params_std, scheme_none):
    # at m = 1000 the bands are 1001 x 109 and the tokens 2955; expanding
    # the rows peaked at 60.4 MiB and the pair arrays of all 1000
    # frequencies added 22.9 MiB; the output matrix alone is 7.6 MiB
    table = discretize_pdfs(compute_pdfs(params_std, scheme_none, 1000))
    hist = FrequencyHistogram.from_counts({f: f % 7 + 1 for f in range(1, 1001)})
    tracemalloc.start()
    try:
        conc = concordance_matrix(table)
        conc_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        expected_kendall_tau(hist, conc)
        kendall_extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert conc_peak < 24 * 2**20, f"concordance peak {conc_peak / 2**20:.1f} MiB"
    assert kendall_extra < 8 * 2**20, f"Kendall tau added {kendall_extra / 2**20:.1f} MiB"


@pytest.fixture(scope="module")
def table(params_std):
    return discretize_pdfs(compute_pdfs(params_std, SamplingScheme.none(), 60))


@pytest.fixture(scope="module")
def conc(table):
    return concordance_matrix(table)


class TestKendallTau:

    def test_single_frequency_is_degenerate(self, conc):
        hist = FrequencyHistogram.from_counts({5: 1000})
        assert math.isnan(expected_kendall_tau(hist, conc))

    def test_perfect_order(self, params_std, scheme_none):
        # point-mass tokens in frequency order give expected tau of 1
        rows = np.zeros((4, 4))
        rows[0, 0] = 1.0
        for i in range(1, 4):
            rows[i, i] = 1.0
        perfect = table_from_dense(rows, compute_pi(params_std, scheme_none, 3))
        hist = FrequencyHistogram.from_counts({1: 3, 2: 4, 3: 5})
        assert expected_kendall_tau(hist, concordance_matrix(perfect)) == pytest.approx(1.0, abs=1e-15)

    def test_single_pair_identity(self, table, conc):
        hist = FrequencyHistogram.from_counts({10: 1, 30: 1})
        want = 2.0 * concordance_prob(*dense(table)[[30, 10]]) - 1.0
        assert expected_kendall_tau(hist, conc) == pytest.approx(want, rel=1e-12)

    def test_matches_direct_enumeration(self, table, conc):
        # exact average over all truth-distinct pairs, straight from counts
        hist = FrequencyHistogram.from_counts({2: 3, 11: 2, 25: 4})
        freqs = [2, 11, 25]
        counts = {2: 3, 11: 2, 25: 4}
        num = 0.0
        den = 0.0
        for hi, lo in itertools.combinations(reversed(freqs), 2):
            w = counts[hi] * counts[lo]
            num += w * (2 * concordance_prob(*dense(table)[[hi, lo]]) - 1)
            den += w
        assert expected_kendall_tau(hist, conc) == pytest.approx(num / den, rel=1e-12)

    def test_beyond_table_errors(self, conc):
        for freq in (61, 1000):  # just past the 61 x 61 matrix, and far past it
            with pytest.raises(ValueError, match=f"frequency {freq} beyond 0..60"):
                expected_kendall_tau(FrequencyHistogram.from_counts({1: 2, freq: 2}), conc)
