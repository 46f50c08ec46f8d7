"""Stability-histogram baseline: Laplace noise plus a keep threshold.

Each key's frequency gets Laplace(1/eps) noise and survives iff the noised
value clears T = (1/eps) ln(1/delta) + 1.  The sampled variant noises
first and then threshold-samples the noised values as if they were true
frequencies.  Reporting probabilities, estimate moments and pairwise
concordance are computed exactly (closed forms and adaptive quadrature)
for comparison against the optimal sanitizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from ._rng import PURPOSE_LAPLACE, key_uniforms
from .estimators import FrequencyFunc, MomentTable, PerKeyMoments, _g_values
from .privacy import PrivacyParams
from .sampling import SamplingScheme

__all__ = [
    "SbhConfig",
    "sbh_sanitize",
    "sbh_report_prob",
    "sampled_sbh",
    "sampled_sbh_report_prob",
    "sbh_moments",
    "sbh_moment_table",
    "sbh_concordance_prob",
]

_QUAD_EPSREL = 1e-9
# Laplace tails beyond this many scale lengths carry < 1e-26 mass.
_TAIL_SCALES = 60.0


@dataclass(frozen=True)
class SbhConfig:
    """Baseline parameters; the keep threshold is derived from (eps, delta)."""

    params: PrivacyParams

    @property
    def threshold(self) -> float:
        p = self.params
        return math.log(1.0 / p.delta) / p.epsilon + 1.0


def sbh_sanitize(by_key: dict[str, int], config: SbhConfig, seed: int) -> dict[str, float]:
    """Noise every frequency and keep keys whose noised value clears T.

    Output is sparse (a subset of the input keys) and deterministic in the
    seed; sanitized frequencies stay real-valued.
    """
    scale = 1.0 / config.params.epsilon
    T = config.threshold
    out: dict[str, float] = {}
    for (key, freq), u in zip(by_key.items(), key_uniforms(seed, by_key, PURPOSE_LAPLACE)):
        if freq <= 0:
            raise ValueError(f"frequencies must be positive, got {freq} for key {key!r}")
        u -= 0.5  # Laplace(scale) by the inverse CDF
        noised = freq - scale * math.copysign(math.log1p(-2.0 * abs(u)), u)
        if noised >= T:
            out[key] = noised
    return out


def sbh_report_prob(config: SbhConfig, i: float) -> float:
    """Probability that a key with frequency i clears the threshold."""
    if i <= 0:
        return 0.0
    eps = config.params.epsilon
    T = config.threshold
    if i <= T:
        return 0.5 * math.exp(-eps * (T - i))
    return 1.0 - 0.5 * math.exp(-eps * (i - T))


def sampled_sbh(
    by_key: dict[str, int], config: SbhConfig, scheme: SamplingScheme, seed: int
) -> dict[str, float]:
    """Noise-then-sample: threshold-sample the noised frequencies.

    The sampling rule is applied to the real-valued noised frequency; the
    per-key sampling draw is independent of the noise draw.
    """
    noised = sbh_sanitize(by_key, config, seed)
    return scheme.sampled(seed, noised)


def _integrate_tail(fn, config: SbhConfig, scheme: SamplingScheme, i: int) -> float:
    """Integral over the kept region w >= T of fn(w) times the noise density at i.

    Adaptive quadrature, split where the integrand has kinks or falls off:
    at i, at the pps cap w**power * tau = 1, and far out in the Laplace tail.
    """
    eps, lo, center = config.params.epsilon, config.threshold, float(i)
    half = 0.5 * eps

    def integrand(w: float) -> float:
        return fn(w) * (half * math.exp(-eps * abs(w - center)))

    breaks = [center]
    if scheme.kind == "pps":
        breaks.append((1.0 / scheme.tau) ** (1.0 / scheme.power) if scheme.power else 1.0)
    breaks.append(max(lo, center) + _TAIL_SCALES / eps)
    total = 0.0
    start = lo
    for b in sorted({b for b in breaks if b > lo}):
        val, _ = integrate.quad(integrand, start, b, epsrel=_QUAD_EPSREL, epsabs=1e-14, limit=200)
        total += val
        start = b
    val, _ = integrate.quad(integrand, start, np.inf, epsrel=_QUAD_EPSREL, epsabs=1e-14, limit=200)
    return total + val


def sampled_sbh_report_prob(config: SbhConfig, scheme: SamplingScheme, i: int) -> float:
    """End-to-end keep probability of noise-then-sample at true frequency i.

    Integral of q(w) against the Laplace density over the kept region; in
    closed form for ppswor with power 1, quadrature otherwise.
    """
    if i <= 0:
        return 0.0
    if scheme.kind == "none":
        return sbh_report_prob(config, i)
    eps = config.params.epsilon
    T = config.threshold
    if scheme.kind == "ppswor" and scheme.power == 1.0 and scheme.tau > 0.0:
        tau = scheme.tau
        # phi_i minus (eps/2) * integral of exp(-tau w - eps |w - i|) over [T, inf)
        if i <= T:
            partial = math.exp(-eps * (T - i) - tau * T) / (eps + tau)
        else:
            tail = math.exp(-tau * i) / (eps + tau)
            if eps == tau:
                mid = (i - T) * math.exp(-eps * i)
            else:
                mid = (math.exp(-tau * i) - math.exp(-eps * (i - T) - tau * T)) / (eps - tau)
            partial = mid + tail
        return sbh_report_prob(config, i) - 0.5 * eps * partial
    if scheme.tau == 0.0:
        return 0.0
    return _integrate_tail(scheme.inclusion_prob, config, scheme, i)


def sbh_moments(
    config: SbhConfig, scheme: SamplingScheme, g: FrequencyFunc, i: int
) -> PerKeyMoments:
    """Exact moments of the inverse-probability estimate applied to noised data.

    The estimate for a kept key is g(w*) / q(w*); the sampling probability
    cancels in the expectation, so the bias depends only on the noise and
    threshold, while the variance grows as sampling thins out.
    """
    if i <= 0:
        raise ValueError("frequency must be >= 1")
    if scheme.kind != "none" and scheme.tau == 0.0:
        raise ValueError("tau = 0 keeps nothing; the estimate is undefined")
    first = _integrate_tail(lambda w: float(g(w)), config, scheme, i)
    second = _integrate_tail(
        lambda w: float(g(w)) ** 2 / scheme.inclusion_prob(w), config, scheme, i
    )
    gi = float(g(i))
    bias = first - gi
    mse = second - 2.0 * gi * first + gi * gi
    variance = max(0.0, mse - bias * bias)
    return PerKeyMoments(expectation=first, bias=bias, variance=variance, mse=mse)


def sbh_moment_table(
    config: SbhConfig, scheme: SamplingScheme, g: FrequencyFunc, max_frequency: int
) -> MomentTable:
    """Per-frequency moments for 1..max_frequency, as a vectorized table."""
    gv = _g_values(g, max_frequency)
    expectation = np.zeros(max_frequency + 1)
    bias = np.zeros(max_frequency + 1)
    variance = np.zeros(max_frequency + 1)
    mse = np.zeros(max_frequency + 1)
    for i in range(1, max_frequency + 1):
        mom = sbh_moments(config, scheme, g, i)
        expectation[i] = mom.expectation
        bias[i] = mom.bias
        variance[i] = mom.variance
        mse[i] = mom.mse
    return MomentTable(
        g_values=gv, expectation=expectation, bias=bias, variance=variance, mse=mse
    )


def _exp_segments_integral(eps: float, T: float, i_hi: float, i_lo: float) -> float:
    """P[noised(i_hi) > noised(i_lo), both kept] by piecewise closed form.

    Integrates density(i_lo at b) * survival(i_hi above b) over b in [T, inf).
    On each segment between the cutpoints {i_lo, i_hi} every factor is a
    single exponential with non-positive exponent at the endpoints, so each
    term integrates in closed form without overflow.
    """
    cuts = sorted({c for c in (i_lo, i_hi) if c > T})
    edges = [T, *cuts, math.inf]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        below2 = hi <= i_lo  # density side of the lower-frequency law
        below1 = hi <= i_hi  # survival side of the higher-frequency law
        r2 = eps if below2 else -eps
        # terms: (coef, rate, exponent base at point b)
        terms = []
        if below1:
            terms.append((0.5 * eps, r2, lambda b, r2=r2: r2 * (b - i_lo)))
            terms.append(
                (
                    -0.25 * eps,
                    r2 + eps,
                    lambda b, r2=r2: r2 * (b - i_lo) + eps * (b - i_hi),
                )
            )
        else:
            terms.append(
                (
                    0.25 * eps,
                    r2 - eps,
                    lambda b, r2=r2: r2 * (b - i_lo) - eps * (b - i_hi),
                )
            )
        for coef, rate, expo in terms:
            if math.isinf(hi):
                total += -coef * math.exp(expo(lo)) / rate
            elif rate == 0.0:
                total += coef * math.exp(expo(lo)) * (hi - lo)
            else:
                total += coef * (math.exp(expo(hi)) - math.exp(expo(lo))) / rate
    return total


def sbh_concordance_prob(config: SbhConfig, i_first: int, i_second: int) -> float:
    """Pr[sanitized(i_first) > sanitized(i_second)] plus half the tie mass.

    Not-reported keys sit at the bottom of the order and tie with each other
    at one half, matching the convention used for the token tables.  With
    i_first the larger true frequency this is the pair's concordance.
    """
    eps = config.params.epsilon
    T = config.threshold
    phi_first = sbh_report_prob(config, i_first)
    phi_second = sbh_report_prob(config, i_second)
    both = _exp_segments_integral(eps, T, float(i_first), float(i_second))
    return 0.5 * (1.0 - phi_first) * (1.0 - phi_second) + phi_first * (1.0 - phi_second) + both
