import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import inclusion_prob

from privsample import (
    FrequencyHistogram,
    PrivacyParams,
    SamplingScheme,
    aggregate_elements,
    compute_pi,
    draw_sample,
)
from privsample._rng import PURPOSE_SAMPLE, key_uniforms


class TestScheme:
    def test_probs_need_a_nonnegative_range(self):
        with pytest.raises(ValueError, match="max_frequency must be >= 0"):
            SamplingScheme.none().probs(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingScheme(kind="bogus", tau=1.0)
        with pytest.raises(ValueError):
            SamplingScheme(kind="ppswor")  # missing tau
        with pytest.raises(ValueError):
            SamplingScheme(kind="none", tau=0.5)
        with pytest.raises(ValueError):
            SamplingScheme(kind="pps", tau=1.0, power=3.0)

    def test_ppswor_inclusion(self):
        scheme = SamplingScheme.ppswor(0.01)
        assert inclusion_prob(scheme, 1) == pytest.approx(-math.expm1(-0.01), rel=1e-15)
        assert inclusion_prob(scheme, 1) == pytest.approx(0.00995, abs=5e-6)

    def test_pps_caps_at_one(self):
        assert inclusion_prob(SamplingScheme.pps(0.5), 2) == 1.0

    def test_zero_frequency_convention(self):
        for scheme in [SamplingScheme.none(), SamplingScheme.ppswor(0.3), SamplingScheme.pps(0.3)]:
            assert inclusion_prob(scheme, 0) == 0.0
            assert scheme.probs(5)[0] == 0.0

    def test_none_is_certain(self):
        scheme = SamplingScheme.none()
        assert all(inclusion_prob(scheme, i) == 1.0 for i in range(1, 10))

    def test_non_decreasing_in_frequency_and_tau(self):
        for kind in ["ppswor", "pps"]:
            for power in [0.5, 1.0, 2.0]:
                prev_tau_q = np.zeros(51)
                for tau in [0.001, 0.01, 0.1, 1.0]:
                    q = SamplingScheme(kind=kind, tau=tau, power=power).probs(50)
                    assert np.all(np.diff(q[1:]) >= -1e-15)
                    assert np.all(q >= prev_tau_q - 1e-15)
                    prev_tau_q = q

    @pytest.mark.parametrize("scheme", [
        SamplingScheme.none(), SamplingScheme.ppswor(0.03), SamplingScheme.ppswor(0.01, 2.0),
        SamplingScheme.pps(0.05, 0.5), SamplingScheme.pps(0.01), SamplingScheme.pps(0.2, 0.0),
    ])
    def test_array_form_matches_scalar_form(self, scheme):
        w = np.array([0.0, 0.5, 1.0, 7.25, 48.0, 99.9, 100.0, 401.3, 1e4])
        got = scheme.inclusion_probs(w)
        want = [inclusion_prob(scheme, x) for x in w]
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)
        assert got[0] == 0.0
        assert np.array_equal(scheme.probs(30), scheme.inclusion_probs(np.arange(31.0)))

    def test_ppswor_memorylessness(self):
        # q_i = 1 - (1 - q_1)^i exactly for the identity weight
        scheme = SamplingScheme.ppswor(0.037)
        q1 = inclusion_prob(scheme, 1)
        for i in range(1, 40):
            assert inclusion_prob(scheme, i) == pytest.approx(1.0 - (1.0 - q1) ** i, rel=1e-12)


class TestHistogram:
    def test_aggregate(self):
        by_key = aggregate_elements(["a", "b", "a"])
        assert list(by_key.items()) == [("a", 2), ("b", 1)]  # first-seen order
        assert FrequencyHistogram.from_keys(by_key).counts == {2: 1, 1: 1}

    def test_aggregate_empty(self):
        by_key = aggregate_elements([])
        assert by_key == {}
        with pytest.raises(ValueError, match="histogram is empty"):
            FrequencyHistogram.from_keys(by_key)

    def test_aggregate_all_distinct(self):
        hist = FrequencyHistogram.from_keys(aggregate_elements(str(i) for i in range(100)))
        assert hist.counts == {1: 100}

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            FrequencyHistogram.from_counts({0: 3})

    @pytest.mark.parametrize("count", [0, -2])
    def test_rejects_a_frequency_no_key_has(self, count):
        # a listed frequency holds at least one key, so no average divides by 0
        with pytest.raises(ValueError, match=f"key counts must be >= 1, got {count} at frequency 5"):
            FrequencyHistogram.from_counts({2: 3, 5: count})


class TestDrawSample:
    def test_scheme_none_keeps_everything(self):
        sample = draw_sample({"a": 1, "b": 7}, SamplingScheme.none(), seed=1)
        assert sample.pairs == {"a": 1, "b": 7}

    def test_tau_zero_keeps_nothing(self):
        by_key = {f"k{i}": 3 for i in range(100)}
        for kind in ["ppswor", "pps"]:
            sample = draw_sample(by_key, SamplingScheme(kind=kind, tau=0.0), seed=1)
            assert sample.pairs == {}

    def test_reproducible_and_order_independent(self):
        keys = {f"k{i}": (i % 7) + 1 for i in range(2000)}
        keys_rev = dict(reversed(list(keys.items())))
        scheme = SamplingScheme.ppswor(0.3)
        s1 = draw_sample(keys, scheme, seed=11)
        s2 = draw_sample(keys, scheme, seed=11)
        s3 = draw_sample(keys_rev, scheme, seed=11)
        assert s1.pairs == s2.pairs
        assert s1.pairs == s3.pairs  # dict equality ignores insertion order
        assert draw_sample(keys, scheme, seed=12).pairs != s1.pairs

    def test_inclusion_rate_concentrates(self):
        # binomial check against the closed-form inclusion probability
        n = 100_000
        by_key = {f"k{i}": 5 for i in range(n)}
        scheme = SamplingScheme.ppswor(0.01)
        sample = draw_sample(by_key, scheme, seed=202)
        q = inclusion_prob(scheme, 5)
        sd = math.sqrt(n * q * (1 - q))
        assert abs(len(sample.pairs) - n * q) <= 4 * sd

    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from(["ppswor", "pps"]), st.floats(0.0, 1.0), st.floats(0.0, 2.0),
           st.integers(1, 500), st.data())
    def test_decides_on_the_tables_own_q(self, kind, tau, power, m, data):
        # every table conditions on rv.q, so the sampler must compare each
        # key's uniform with that very float, not a recomputation of it
        scheme = SamplingScheme(kind, tau, power)
        ws = data.draw(st.lists(st.integers(1, m), min_size=1, max_size=60))
        order = data.draw(st.permutations(range(len(ws))))
        by_key = {f"k{i}": ws[i] for i in order}
        seed = data.draw(st.integers(0, 2**64 - 1))
        q = compute_pi(PrivacyParams(0.5, 0.01), scheme, m).q
        uniforms = key_uniforms(seed, by_key, PURPOSE_SAMPLE)
        want = [(k, w) for (k, w), u in zip(by_key.items(), uniforms) if u < q[w]]
        assert list(draw_sample(by_key, scheme, seed).pairs.items()) == want
        assert scheme.inclusion_probs(ws).tobytes() == scheme.probs(m)[ws].tobytes()
        # at the boundary, where one ulp of q decides: a draw equal to q_w is
        # out and the double just below it is in
        draws = {k: math.nextafter(q[w], 0.0) if i % 2 else q[w]
                 for i, (k, w) in enumerate(by_key.items())}
        with mock.patch("privsample.sampling.key_uniforms",
                        lambda seed, keys, purpose: [draws[k] for k in keys]):
            kept = draw_sample(by_key, scheme, seed).pairs
        assert list(kept) == [k for i, (k, w) in enumerate(by_key.items()) if i % 2 and q[w] > 0]

    def test_negative_seed_is_valid(self):
        by_key = {f"k{i}": 3 for i in range(100)}
        scheme = SamplingScheme.ppswor(0.5)
        assert draw_sample(by_key, scheme, seed=-1).pairs == draw_sample(
            by_key, scheme, seed=-1
        ).pairs
        # -1 and its unsigned 64-bit alias address the same stream
        assert (
            draw_sample(by_key, scheme, seed=-1).pairs
            == draw_sample(by_key, scheme, seed=0xFFFFFFFFFFFFFFFF).pairs
        )

    def test_pairwise_independence(self):
        # disjoint keys: inclusion indicators are uncorrelated within 4 sigma
        n = 100_000
        scheme = SamplingScheme.ppswor(0.2)
        by_key = {f"a{i}": 5 for i in range(n)} | {f"b{i}": 5 for i in range(n)}
        sample = draw_sample(by_key, scheme, seed=77)
        x = np.array([f"a{i}" in sample.pairs for i in range(n)], dtype=float)
        y = np.array([f"b{i}" in sample.pairs for i in range(n)], dtype=float)
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(n)
