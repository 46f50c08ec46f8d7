"""Optimal private reporting probabilities for sampled keys.

For each frequency i the end-to-end probability pi_i that a key is sampled
and then reported is driven to the maximum allowed by the privacy
constraints against the adjacent frequencies, via the forward recurrence

    pi_i = min(q_i,  e^eps pi_{i-1} + delta,  1 + e^-eps (pi_{i-1} + delta - 1)).

The recurrence is the source of truth everywhere in this package; the
closed form for the no-sampling case is kept as a cross-check because its
two middle branches disagree at the seam i = L + 1 (see tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import PURPOSE_KEEP, key_uniforms
from .privacy import PrivacyParams, l_value
from .sampling import SamplingScheme, WeightedSample

__all__ = [
    "ReportingVector",
    "compute_pi",
    "pi_star_closed_form",
    "ppswor_structure",
    "sanitize_keys",
]


@dataclass(frozen=True, eq=False)
class ReportingVector:
    """End-to-end reporting probabilities pi_0..pi_max for one scheme.

    pi[i] is the probability that a key with true frequency i survives both
    sampling and sanitization; q[i] is the scheme's sampling probability.
    The conditional keep probability applied to a sampled key is pi[i]/q[i].
    """

    params: PrivacyParams
    scheme: SamplingScheme
    pi: np.ndarray
    q: np.ndarray

    @property
    def max_frequency(self) -> int:
        return len(self.pi) - 1

    def keep_probability(self, i: int) -> float:
        """Conditional probability of keeping a sampled key with frequency i."""
        if not 1 <= i <= self.max_frequency:
            raise ValueError(
                f"frequency {i} outside table range 1..{self.max_frequency}; "
                "recompute with a larger max_frequency"
            )
        q_i = float(self.q[i])
        if q_i <= 0.0:
            raise ValueError(
                f"q_{i} = 0 but a sampled key with frequency {i} exists; input is corrupt"
            )
        return float(self.pi[i]) / q_i

    def binary_rows(self) -> np.ndarray:
        """Per-frequency output laws over (not reported, reported) tokens."""
        return np.stack([1.0 - self.pi, self.pi], axis=1)


def compute_pi(
    params: PrivacyParams, scheme: SamplingScheme, max_frequency: int
) -> ReportingVector:
    """Run the three-way minimum recurrence up to max_frequency.

    The package's only copy of the recurrence: both token tables take their
    per-row reporting mass from it.  pi_i depends only on q_1..q_i, so a
    larger max_frequency extends the same array.
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
    return ReportingVector(params=params, scheme=scheme, pi=pi, q=q)


def pi_star_closed_form(params: PrivacyParams, i: int) -> float:
    """Three-branch closed form of the no-sampling reporting curve.

    Kept as a validation aid only: with L = l_value(params) the growth and
    decay branches disagree at the seam i = L + 1, and the recurrence
    saturates at 2L + 1 rather than 2L + 2, so exact agreement with
    compute_pi is only expected away from those indices.
    """
    if i < 0:
        raise ValueError("frequency must be >= 0")
    if i == 0:
        return 0.0
    eps, delta = params.epsilon, params.delta
    L = l_value(params)
    if i <= L + 1.0:
        return delta * math.expm1(eps * i) / math.expm1(eps)
    if i < 2.0 * L + 2.0:
        return 1.0 - delta * math.expm1(eps * (2.0 * L + 2.0 - i)) / math.expm1(eps)
    return 1.0


def ppswor_structure(
    params: PrivacyParams, scheme: SamplingScheme, max_frequency: int
) -> int | None:
    """Crossover index of the two-phase solution under ppswor with power 1.

    Returns the smallest i where the no-sampling solution exceeds q_i, or
    None when there is no crossover within range.  Also verifies that the
    scheme's solution equals the no-sampling solution below the crossover
    and q itself at and above it (within 1e-12).
    """
    if scheme.kind != "ppswor" or scheme.power != 1.0:
        raise ValueError("the two-phase structure applies to ppswor with power 1 only")
    star = compute_pi(params, SamplingScheme.none(), max_frequency).pi
    actual = compute_pi(params, scheme, max_frequency)
    q = actual.q

    above = np.nonzero(star[1:] > q[1:])[0]
    ell = int(above[0]) + 1 if above.size else None

    cut = ell if ell is not None else max_frequency + 1
    if not np.allclose(actual.pi[:cut], star[:cut], rtol=0.0, atol=1e-12):
        raise RuntimeError("two-phase structure violated below the crossover")
    if not np.allclose(actual.pi[cut:], q[cut:], rtol=0.0, atol=1e-12):
        raise RuntimeError("two-phase structure violated at or above the crossover")
    return ell


def sanitize_keys(sample: WeightedSample, rv: ReportingVector, seed: int) -> list[str]:
    """Report each sampled key independently with probability pi_w / q_w.

    The output is a subset of the sampled keys (never introduces keys absent
    from the data) in input order; deterministic in the seed.
    """
    if rv.scheme != sample.scheme:
        raise ValueError(
            f"reporting table was built for {rv.scheme}, sample drawn with {sample.scheme}"
        )
    keep_by_freq: dict[int, float] = {}
    kept: list[str] = []
    pairs = sample.pairs
    for (key, freq), u in zip(pairs.items(), key_uniforms(seed, pairs, PURPOSE_KEEP)):
        p = keep_by_freq.get(freq)
        if p is None:
            p = keep_by_freq[freq] = rv.keep_probability(freq)
        if u < p:
            kept.append(key)
    return kept
