"""Threshold weighted sampling of key-frequency data.

A scheme keeps a key of frequency w iff its score is below w**power * tau:
an Exp(1) score gives probability-proportional-to-size without replacement
(ppswor), a uniform score Poisson PPS.  Both are drawn as one uniform u per
key and decided as u < q_w, the inclusion probability every token table
conditions on.  q_i is non-decreasing in the frequency i, with q_0 = 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ._rng import PURPOSE_SAMPLE, key_uniforms

__all__ = [
    "SamplingScheme",
    "FrequencyHistogram",
    "WeightedSample",
    "aggregate_elements",
    "draw_sample",
]

SCHEME_KINDS = ("ppswor", "pps", "none")


@dataclass(frozen=True)
class SamplingScheme:
    """Threshold sampling spec: keep a key iff its random score < w**power * tau.

    kind "ppswor" scores by Exp(1), "pps" by Uniform(0,1) and "none" keeps
    every key (q_i = 1 for i >= 1, no threshold).  power is restricted to
    [0, 2], the range for which the weight w**power is sketchable.
    """

    kind: str
    tau: float | None = None
    power: float = 1.0

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}, expected one of {SCHEME_KINDS}")
        if self.kind == "none":
            if self.tau is not None:
                raise ValueError("scheme 'none' takes no threshold")
        else:
            if self.tau is None or not (math.isfinite(self.tau) and self.tau >= 0.0):
                raise ValueError(f"threshold tau must be a finite value >= 0, got {self.tau!r}")
        if not (0.0 <= self.power <= 2.0):
            raise ValueError(f"power must be in [0, 2], got {self.power!r}")

    @classmethod
    def none(cls) -> "SamplingScheme":
        return cls(kind="none")

    @classmethod
    def ppswor(cls, tau: float, power: float = 1.0) -> "SamplingScheme":
        return cls(kind="ppswor", tau=tau, power=power)

    @classmethod
    def pps(cls, tau: float, power: float = 1.0) -> "SamplingScheme":
        return cls(kind="pps", tau=tau, power=power)

    def sampled(self, seed: int, pairs: Mapping[str, float]) -> dict[str, float]:
        """The sampling rule: the keys of ``pairs`` whose uniform draw u < q_w.

        pairs maps each key to its frequency w, which may be real-valued
        (already-noised data); the result keeps their order.  q_w is
        ``inclusion_probs`` at w, the float every table conditions on, and
        u < q_w is the event that the key's Exp(1) or uniform score is below
        w**power * tau.
        """
        if self.kind == "none":
            return dict(pairs)
        distinct = list(dict.fromkeys(pairs.values()))
        q = dict(zip(distinct, self.inclusion_probs(distinct).tolist()))
        uniforms = key_uniforms(seed, pairs, PURPOSE_SAMPLE)
        return {key: w for (key, w), u in zip(pairs.items(), uniforms) if u < q[w]}

    def inclusion_probs(self, w) -> np.ndarray:
        """Array of q_w over frequencies w >= 0, which may be real-valued (noised data)."""
        w = np.asarray(w, dtype=float)
        if self.kind == "none":
            q = np.ones_like(w)
        else:
            x = w**self.power * self.tau
            if self.kind == "ppswor":
                q = -np.expm1(-x)
            else:
                q = np.minimum(1.0, x)
        return np.where(w == 0.0, 0.0, q)

    def probs(self, max_frequency: int) -> np.ndarray:
        """Vector (q_0, ..., q_max_frequency)."""
        if max_frequency < 0:
            raise ValueError("max_frequency must be >= 0")
        return self.inclusion_probs(np.arange(max_frequency + 1, dtype=float))


@dataclass(eq=False)
class FrequencyHistogram:
    """Key counts per frequency: the form exact expectation computations need.

    counts maps each frequency value (>= 1) to the number of distinct keys
    with that frequency.  Drawing a sample needs the keys themselves, the
    key -> frequency mapping.
    """

    counts: dict[int, int]

    def __post_init__(self):
        for freq, count in self.counts.items():
            if freq < 1:
                raise ValueError(f"frequencies must be >= 1, got {freq}")
            if count < 0:
                raise ValueError(f"key counts must be >= 0, got {count} at frequency {freq}")

    @classmethod
    def from_keys(cls, by_key: Mapping[str, int]) -> "FrequencyHistogram":
        return cls(counts=dict(Counter(by_key.values())))

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "FrequencyHistogram":
        return cls(counts={int(f): int(c) for f, c in counts.items()})

    @property
    def n_keys(self) -> int:
        return sum(self.counts.values())

    @property
    def max_frequency(self) -> int:
        return max(self.counts) if self.counts else 0

    def counts_within(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Distinct frequencies in increasing order, each below ``length``, and real key counts."""
        freqs = np.array(sorted(self.counts), dtype=int)
        if freqs.size and freqs[-1] >= length:
            raise ValueError(f"histogram contains frequency {freqs[-1]} beyond 0..{length - 1}")
        return freqs, np.array([self.counts[f] for f in freqs.tolist()], dtype=float)


@dataclass(eq=False)
class WeightedSample:
    """A sample of (key, frequency) pairs together with the scheme that drew it."""

    pairs: dict[str, int]
    scheme: SamplingScheme


def _require_positive(by_key: Mapping[str, int]) -> None:
    """Fail closed on a frequency that is not positive, naming the first such key."""
    if by_key and min(by_key.values()) <= 0:
        key, freq = next((k, w) for k, w in by_key.items() if w <= 0)
        raise ValueError(f"frequencies must be positive, got {freq} for key {key!r}")


def aggregate_elements(elements: Iterable[str]) -> dict[str, int]:
    """Single-pass aggregation of an element stream into key -> frequency, in first-seen order."""
    return dict(Counter(elements))


def draw_sample(by_key: Mapping[str, int], scheme: SamplingScheme, seed: int) -> WeightedSample:
    """Threshold-sample key -> frequency data, deterministically in the seed.

    Each key is included independently by ``scheme.sampled``.  Decisions
    are per-key functions of (seed, key), so partitioning keys across
    workers cannot change the result.  Fails closed on a frequency that is
    not positive.
    """
    _require_positive(by_key)
    return WeightedSample(pairs=scheme.sampled(seed, by_key), scheme=scheme)
