"""Optimal private reporting probabilities for sampled keys.

For each frequency i the end-to-end probability pi_i that a key is sampled
and then reported is driven to the maximum allowed by the privacy
constraints against the adjacent frequencies, via the forward recurrence

    pi_i = min(q_i,  e^eps pi_{i-1} + delta,  1 + e^-eps (pi_{i-1} + delta - 1)).

The recurrence is the source of truth everywhere in this package; the
tests keep the closed form for the no-sampling case as a cross-check.
Every law built from it, this key law of one token and both token tables,
is a ``SanitizerTable``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import PURPOSE_KEEP, key_uniforms
from .privacy import PrivacyParams, TokenBands
from .sampling import SamplingScheme, WeightedSample

__all__ = [
    "SanitizerTable",
    "compute_pi",
    "sanitize_keys",
]


@dataclass(frozen=True, eq=False)
class SanitizerTable(TokenBands):
    """End-to-end token laws per frequency, stored as bands (``TokenBands``).

    Row i holds Pr[report token j] for a key of frequency i: ``atom0[i]``
    for token 0 and ``rows[i, c]`` for token ``first[i] + c``.  Token 0
    means "not reported"; tokens are ordered and only their order carries
    meaning downstream.  For integer-token tables token j stands for the
    value j itself; for discretized density tables ``token_edges[j - 1]``
    is the right edge of token j's interval; the key law of ``compute_pi``
    is the table of one token.  ``params``, ``scheme``, ``q`` and ``pi`` are
    the law the rows were built from: row i reports with mass pi[i], and a
    sampled key with frequency i draws from row i divided by q[i].
    """

    params: PrivacyParams
    scheme: SamplingScheme
    q: np.ndarray
    pi: np.ndarray
    token_edges: np.ndarray | None = None

    def sampled_q(self, sample: WeightedSample) -> dict[int, float]:
        """q_w for each distinct frequency w of ``sample``, in order of first appearance.

        Both sanitizers condition on these.  Fails closed when the sample was
        drawn with another scheme, on the first w outside 1..max_frequency
        and on a w with q_w = 0.
        """
        if sample.scheme != self.scheme:
            raise ValueError(
                f"table was built for {self.scheme}, sample drawn with {sample.scheme}"
            )
        out = {}
        for w in dict.fromkeys(sample.pairs.values()):
            if not 1 <= w <= self.max_frequency:
                raise ValueError(
                    f"frequency {w} outside table range 1..{self.max_frequency}; "
                    "rebuild the table with a larger max_frequency"
                )
            q_w = out[w] = float(self.q[w])
            if q_w <= 0.0:
                raise ValueError(
                    f"q_{w} = 0 but a sampled key with frequency {w} exists; input is corrupt"
                )
        return out


def compute_pi(
    params: PrivacyParams, scheme: SamplingScheme, max_frequency: int
) -> SanitizerTable:
    """Run the three-way minimum recurrence up to max_frequency.

    The package's only copy of the recurrence: both token tables take their
    per-row reporting and non-report masses from it.  pi_i depends only on
    q_1..q_i, so a larger max_frequency extends the same array.
    """
    if max_frequency < 1:
        raise ValueError("max_frequency must be >= 1")
    eps, delta = params.epsilon, params.delta
    e_eps, e_neg = math.exp(eps), math.exp(-eps)
    q = scheme.probs(max_frequency)
    pi = np.zeros(max_frequency + 1)
    prev = 0.0
    for i in range(1, max_frequency + 1):
        prev = min(float(q[i]), e_eps * prev + delta, 1.0 + e_neg * (prev + delta - 1.0))
        pi[i] = prev
    return SanitizerTable(atom0=1.0 - pi, first=np.ones(max_frequency + 1, dtype=np.int64),
                          rows=pi[:, None], n_tokens=1, params=params, scheme=scheme, q=q, pi=pi)


def sanitize_keys(sample: WeightedSample, rv: SanitizerTable, seed: int) -> list[str]:
    """Report each sampled key independently with probability pi_w / q_w.

    The output is a subset of the sampled keys (never introduces keys absent
    from the data) in input order; deterministic in the seed.
    """
    keep = {w: float(rv.pi[w]) / q_w for w, q_w in rv.sampled_q(sample).items()}
    pairs = sample.pairs
    return [
        key for (key, freq), u in zip(pairs.items(), key_uniforms(seed, pairs, PURPOSE_KEEP))
        if u < keep[freq]
    ]
