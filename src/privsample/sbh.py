"""Stability-histogram baseline: Laplace noise plus a keep threshold.

Each key's frequency gets Laplace(1/eps) noise and survives iff the noised
value clears T = (1/eps) ln(1/delta) + 1; the survivors are then
threshold-sampled as if their noised values were true frequencies.  Scheme
none, which samples nothing, gives the stability histogram itself, so one
entry per quantity serves both.  Reporting probabilities, estimate moments
and pairwise concordance (of the unsampled histogram) are computed exactly
for comparison against the optimal sanitizers: in closed form where one
exists, otherwise by a fixed rule in units of the Laplace scale 1/eps,
vectorized over frequencies.  It is a composite 16-point Gauss-Legendre
rule on panels at most one scale long between the kinks of the integrand
(T, the frequency, the pps cap), one panel for the stretch more than 60
scales below the frequency, and a 16-point Gauss-Laguerre rule on the tail
more than 60 scales above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import PURPOSE_LAPLACE, key_uniforms
from .estimators import FrequencyFunc, MomentTable, _g_values
from .privacy import PrivacyParams
from .sampling import SamplingScheme, _require_positive

__all__ = [
    "SbhConfig",
    "sampled_sbh",
    "sampled_sbh_report_prob",
    "sbh_moment_table",
    "sbh_concordance_prob",
]

# Split points of the quadrature, in Laplace scale lengths below i and past
# max(T, i); the mass beyond them (< 1e-26) gets one panel below and a
# Gauss-Laguerre rule above.
_TAIL_SCALES = 60.0
# Fixed rules: 16-point Gauss-Legendre mapped to [0, 1] for the panels, and
# 16-point Gauss-Laguerre with weights times exp(t) for the tail.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS
_LAG_NODES, _LAG_WEIGHTS = np.polynomial.laguerre.laggauss(16)
_LAG_WEIGHTS = _LAG_WEIGHTS * np.exp(_LAG_NODES)
_PANEL_BUDGET = 1 << 12


@dataclass(frozen=True)
class SbhConfig:
    """Baseline parameters; the keep threshold is derived from (eps, delta)."""

    params: PrivacyParams

    @property
    def threshold(self) -> float:
        p = self.params
        return math.log(1.0 / p.delta) / p.epsilon + 1.0


def _report_prob(config: SbhConfig, i: float) -> float:
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
    """Noise every frequency, keep keys whose noised value clears T, then sample.

    The sampling rule is applied to the real-valued noised frequency; the
    per-key sampling draw is independent of the noise draw.  Scheme none
    gives the stability histogram itself.  Output is sparse (a subset of
    the input keys, in input order) and deterministic in the seed;
    sanitized frequencies stay real-valued.
    """
    _require_positive(by_key)
    scale = 1.0 / config.params.epsilon
    T = config.threshold
    noised: dict[str, float] = {}
    for (key, freq), u in zip(by_key.items(), key_uniforms(seed, by_key, PURPOSE_LAPLACE)):
        u -= 0.5  # Laplace(scale) by the inverse CDF
        w = freq - scale * math.copysign(math.log1p(-2.0 * abs(u)), u)
        if w >= T:
            noised[key] = w
    return scheme.sampled(seed, noised)


def _kept_integrals(config: SbhConfig, scheme: SamplingScheme, freqs, integrands) -> tuple:
    """Integrals over the kept region w >= T against the noise density at each frequency.

    ``integrands(w, q)`` maps an array of noised values w and their sampling
    probabilities q to a tuple of arrays; the result holds one integral per
    entry of that tuple, per frequency.  Each frequency's range is split at
    T, at the frequency itself, at the pps cap w**power * tau = 1, at the
    cut max(T, i) + 60 scale lengths and at i - 60 scale lengths.  The cap
    splits only for pps with power > 0 and a cap that is a finite double
    (clipped into [T, cut]); with tau = 0, power 0 or a cap past the largest
    double q has no kink in the range, and the cap stays at the cut.  Every
    finite segment is cut into equal panels at most one scale long, each
    with a 16-point Gauss-Legendre rule, except that the stretch more than
    60 scales below i (mass < 1e-26) takes a single panel, so the cost of a
    row does not grow with i.  Past the cut a 16-point Gauss-Laguerre rule
    in scale units takes the tail.  All integrands share one node grid and
    one density evaluation.  A frequency's sum depends on its own nodes
    only, so a row comes out the same alone or in a table.
    """
    eps, T = config.params.epsilon, config.threshold
    freqs = np.asarray(freqs, dtype=float)
    cut = np.maximum(T, freqs) + _TAIL_SCALES / eps
    far = np.clip(freqs - _TAIL_SCALES / eps, T, cut)
    cap = cut
    if scheme.kind == "pps" and scheme.power > 0.0:
        try:
            cap = (1.0 / scheme.tau) ** (1.0 / scheme.power)
        except (ZeroDivisionError, OverflowError):
            pass  # tau = 0 or a cap past the largest double: q has no kink in range
    points = [np.full_like(freqs, T), far, np.clip(freqs, T, cut), np.clip(cap, T, cut), cut]
    edges = np.sort(np.stack(points, axis=1), axis=1)
    n_panels = np.ceil(np.diff(edges, axis=1) * eps).astype(np.int64)  # 0 on an empty segment
    np.minimum(n_panels, 1, out=n_panels, where=edges[:, 1:] <= far[:, None])
    # rows in chunks of about _PANEL_BUDGET panels bound the node grid
    per_row = n_panels.sum(axis=1) + 1  # the tail is one more panel
    block = (np.cumsum(per_row) - per_row) // _PANEL_BUDGET
    chunks = np.split(np.arange(len(freqs)), np.flatnonzero(np.diff(block)) + 1)
    parts = [
        _panel_sums(eps, scheme, freqs[r], edges[r], n_panels[r], cut[r], integrands)
        for r in chunks
    ]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _panel_sums(eps, scheme, freqs, edges, n_panels, cut, integrands) -> list:
    """``_kept_integrals`` over one chunk of rows."""
    n, n_seg = n_panels.shape
    counts = n_panels.ravel()
    seg = np.repeat(np.arange(counts.size), counts)
    h = (np.diff(edges, axis=1).ravel() / np.maximum(counts, 1))[seg]
    lo = edges[:, :-1].ravel()[seg] + (np.arange(seg.size) - (np.cumsum(counts) - counts)[seg]) * h
    # the panels, then one Laguerre row per frequency whose weights carry
    # exp(t) back out, so one density evaluation serves every node
    panels = seg.size
    w = np.empty((panels + n, len(_GL_NODES)))
    weights = np.empty_like(w)
    np.multiply(h[:, None], _GL_NODES, out=w[:panels])
    w[:panels] += lo[:, None]
    w[panels:] = cut[:, None] + _LAG_NODES / eps
    np.multiply(h[:, None], _GL_WEIGHTS, out=weights[:panels])
    weights[panels:] = _LAG_WEIGHTS / eps
    row = np.concatenate([seg // n_seg, np.arange(n)])
    weights *= 0.5 * eps * np.exp(-eps * np.abs(w - freqs[row, None]))
    # bincount adds each row's panels in order, then its tail
    return [
        np.bincount(row, weights=np.einsum("ij,ij->i", values, weights), minlength=n)
        for values in integrands(w, scheme.inclusion_probs(w))
    ]


def sampled_sbh_report_prob(config: SbhConfig, scheme: SamplingScheme, i: int) -> float:
    """End-to-end keep probability of noise-then-sample at true frequency i.

    Integral of q(w) against the Laplace density over the kept region.
    Scheme none, which gives the stability histogram's own keep
    probability, and ppswor with power 1 and tau > 0 are in closed form;
    every other scheme goes through the quadrature.  So does tau = 0: q = 0
    there, so it returns exactly 0.0.
    """
    if i <= 0:
        return 0.0
    if scheme.kind == "none":
        return _report_prob(config, i)
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
        return _report_prob(config, i) - 0.5 * eps * partial
    (kept,) = _kept_integrals(config, scheme, [i], lambda w, q: (q,))
    return float(kept[0])


def sbh_moment_table(
    config: SbhConfig, scheme: SamplingScheme, g: FrequencyFunc, max_frequency: int
) -> MomentTable:
    """Per-frequency moments for 1..max_frequency, as a vectorized table.

    The moments are those of the inverse-probability estimate applied to
    noised data: a kept key estimates g(w*) / q(w*).  The sampling
    probability cancels in the expectation, so the bias depends only on the
    noise and threshold, while the variance grows as sampling thins out.
    """
    if scheme.kind != "none" and scheme.tau == 0.0:
        raise ValueError("tau = 0 keeps nothing; the estimate is undefined")

    def integrands(w, q):
        gw = g(w)
        return gw, gw * gw / q

    gv = _g_values(g, max_frequency)
    first, second = _kept_integrals(config, scheme, np.arange(1, max_frequency + 1), integrands)
    gi = gv[1:]
    mse = second - 2.0 * gi * first + gi * gi
    return MomentTable(g_values=gv, expectation=np.concatenate([[0.0], first]),
                       mse=np.concatenate([[0.0], mse]))


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
        # density side of the lower-frequency law
        r2 = eps if hi <= i_lo else -eps
        # survival side of the higher-frequency law; each term is
        # (coef, rate, s) with exponent r2 * (b - i_lo) + s * (b - i_hi) at b
        if hi <= i_hi:
            terms = ((0.5 * eps, r2, 0.0), (-0.25 * eps, r2 + eps, eps))
        else:
            terms = ((0.25 * eps, r2 - eps, -eps),)
        for coef, rate, s in terms:
            at_lo = math.exp(r2 * (lo - i_lo) + s * (lo - i_hi))
            if math.isinf(hi):
                total += -coef * at_lo / rate
            elif rate == 0.0:
                total += coef * at_lo * (hi - lo)
            else:
                total += coef * (math.exp(r2 * (hi - i_lo) + s * (hi - i_hi)) - at_lo) / rate
    return total


def sbh_concordance_prob(config: SbhConfig, i_first: int, i_second: int) -> float:
    """Pr[sanitized(i_first) > sanitized(i_second)] plus half the tie mass.

    Not-reported keys sit at the bottom of the order and tie with each other
    at one half, matching the convention used for the token tables.  With
    i_first the larger true frequency this is the pair's concordance.  A
    frequency <= 0 is an absent key, never reported, so no mass is kept
    for both.
    """
    eps = config.params.epsilon
    T = config.threshold
    phi_first = _report_prob(config, i_first)
    phi_second = _report_prob(config, i_second)
    both = 0.0
    if i_first > 0 and i_second > 0:
        both = _exp_segments_integral(eps, T, float(i_first), float(i_second))
    return 0.5 * (1.0 - phi_first) * (1.0 - phi_second) + phi_first * (1.0 - phi_second) + both
