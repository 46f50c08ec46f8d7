"""The top of the uniform grid stays below 1.0 through every inverse CDF.

The digest whose top 53 bits are all ones gives b = 2**53 - 1, and
b + 0.5 rounds half to even up to 2**53; that draw is held at the largest
double below 1.0.  Each caller of ``key_uniforms`` is fed that draw.  The
sampling rule is also fed the two grid values on either side of one q_w.
"""

import math

import pytest

from privsample import (
    PrivacyParams,
    SamplingScheme,
    SbhConfig,
    WeightedSample,
    compute_pi,
    draw_sample,
    sampled_sbh,
    sanitize_keys,
)
from privsample._rng import _uniforms

TOP = _uniforms([b"\xff" * 8])[0]


def _top_draws(seed, keys, purpose):
    return _uniforms([b"\xff" * 8] * len(keys))


def test_grid_ends_inside_the_open_interval():
    assert TOP == math.nextafter(1.0, 0.0)
    assert _uniforms([b"\x00" * 8]) == [2.0**-54]
    # b = 2**53 - 2: b + 0.5 rounds half to even down to b itself
    assert _uniforms([b"\x00\xf0" + b"\xff" * 6]) == [1.0 - 2.0**-52]


@pytest.mark.parametrize("kind", ["ppswor", "pps"])
def test_sampling_inverse_cdf_at_the_top(monkeypatch, kind):
    monkeypatch.setattr("privsample.sampling.key_uniforms", _top_draws)
    scheme = getattr(SamplingScheme, kind)(1e3)
    # u = TOP is below q = 1, the inclusion probability at threshold 1e3
    assert scheme.sampled(0, {"a": 1, "b": 2}) == {"a": 1, "b": 2}


def test_sampling_keeps_a_key_iff_its_uniform_is_below_q(monkeypatch):
    # the rule is u < q_w on the float q_w the tables condition on; an
    # Exp(1) score compared with w * tau = 4 kept the key at u = q_8 too
    scheme = SamplingScheme.ppswor(0.5)
    q8 = scheme.probs(8)[8]
    below = q8 - 2.0**-52  # the grid steps by 2**-52 above 0.5
    assert (q8, below) == (0.9816843611112658, 0.9816843611112656)
    monkeypatch.setattr("privsample.sampling.key_uniforms", lambda seed, keys, purpose: [q8, below])
    assert draw_sample({"at": 8, "below": 8}, scheme, 0).pairs == {"below": 8}


def test_laplace_inverse_cdf_at_the_top(monkeypatch):
    monkeypatch.setattr("privsample.sbh.key_uniforms", _top_draws)
    config = SbhConfig(PrivacyParams(1.0, 0.01))
    noised = sampled_sbh({"a": 100}, config, SamplingScheme.none(), 0)
    # the draw of largest magnitude, 52 ln 2 for scale 1, taken off 100
    assert noised == {"a": pytest.approx(100.0 - 52.0 * math.log(2.0), rel=1e-15)}


def test_keep_probability_one_keeps_the_key(monkeypatch):
    monkeypatch.setattr("privsample.keys.key_uniforms", _top_draws)
    params, scheme = PrivacyParams(1.0, 0.5), SamplingScheme.none()
    rv = compute_pi(params, scheme, 10)
    assert rv.pi[10] == 1.0
    sample = WeightedSample(pairs={"a": 10}, scheme=scheme)
    assert sanitize_keys(sample, rv, 0) == ["a"]
