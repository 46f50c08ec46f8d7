"""Exact sweep harness: reporting fractions and estimation error over grids.

All sweep outputs are exact expectations computed from frequency counts and
per-frequency probabilities or moments; nothing here simulates.  A sweep
takes its grid as points (value, params, scheme) that the caller builds, so
each point states everything it is computed from.  Results come back as
flat rows ready for CSV: (sweep_var, value, method, metric, result).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import g_identity, mle_coeffs, moments_by_frequency, nonprivate_moment_table, statistic_moments
from .frequencies import compute_pdfs, compute_pij, discretize_pdfs
from .keys import compute_pi
from .privacy import PrivacyParams, l_value
from .sampling import FrequencyHistogram, SamplingScheme
from .sbh import SbhConfig, sampled_sbh_report_prob, sbh_moment_table

__all__ = [
    "SweepRow",
    "DELTA_GRID_DEFAULT",
    "TAU_GRID_DEFAULT",
    "zipf_histogram",
    "uniform_histogram",
    "expected_reported_fraction",
    "run_sweep",
    "nrmse_experiment",
]

DELTA_GRID_DEFAULT = tuple(10.0**-k for k in range(0, 9))  # 1 down to 1e-8
TAU_GRID_DEFAULT = tuple(
    m * 10.0**-k for k in range(0, 5) for m in (1.0, 0.5, 0.2)
) + (1e-5,)  # 1, 0.5, 0.2, 0.1, ... , 1e-5

REPORTING_METHODS = ("pws-keys", "sbh", "sampled-sbh", "nonprivate")
NRMSE_METHODS = ("pws-freq-mle", "sampled-sbh", "nonprivate")


def zipf_histogram(n_keys: int, alpha: float, w_max: int) -> FrequencyHistogram:
    """Power-law frequencies: rank r gets max(1, round(w_max * r^-alpha))."""
    if n_keys < 1 or w_max < 1:
        raise ValueError("n_keys and w_max must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    ranks = np.arange(1, n_keys + 1, dtype=float)
    freqs = np.maximum(1, np.rint(w_max * ranks**-alpha)).astype(np.int64)
    values, counts = np.unique(freqs, return_counts=True)
    return FrequencyHistogram.from_counts(dict(zip(values.tolist(), counts.tolist())))


def uniform_histogram(n_keys: int, low: int, high: int) -> FrequencyHistogram:
    """n_keys spread as evenly as possible over frequencies low..high.

    Deterministic stand-in for 'frequencies drawn uniformly': each value
    gets n_keys // span keys and the first n_keys % span values get one more.
    """
    if n_keys < 1 or not 1 <= low <= high:
        raise ValueError("need n_keys >= 1 and 1 <= low <= high")
    span = high - low + 1
    base, extra = divmod(n_keys, span)
    counts = {low + k: base + (1 if k < extra else 0) for k in range(span)}
    return FrequencyHistogram.from_counts({f: c for f, c in counts.items() if c > 0})


def expected_reported_fraction(histogram: FrequencyHistogram, report_probs: np.ndarray) -> float:
    """Exact expected fraction of keys reported, given per-frequency probabilities.

    ``report_probs`` is indexed by frequency; it must cover every frequency
    present.
    """
    freqs, c = histogram.counts_within(len(report_probs))
    if freqs.size == 0:
        raise ValueError("histogram is empty")
    return float(np.sum(c * report_probs[freqs]) / np.sum(c))


@dataclass(frozen=True)
class SweepRow:
    sweep_var: str
    value: float
    method: str
    metric: str
    result: float


def _method_names(methods, known: tuple) -> tuple:
    """``methods`` as a tuple of distinct names from ``known``, at least one."""
    names = tuple(methods)
    if not names or not set(names) <= set(known) or len(set(names)) < len(names):
        raise ValueError(f"need distinct method names from {','.join(known)}, "
                         f"got {','.join(map(str, names))!r}")
    return names


def _max_frequency(histogram: FrequencyHistogram) -> int:
    if histogram.n_keys == 0:
        raise ValueError("histogram is empty")
    return histogram.max_frequency


def _reported_fraction(hist: FrequencyHistogram, max_f: int, method: str,
                       params: PrivacyParams, scheme: SamplingScheme) -> float:
    if method == "pws-keys":
        return expected_reported_fraction(hist, compute_pi(params, scheme, max_f).pi)
    if method == "nonprivate":
        return expected_reported_fraction(hist, scheme.probs(max_f))
    config_sbh = SbhConfig(params)
    if method == "sbh":
        scheme = SamplingScheme.none()  # sbh is sampled-sbh without sampling
    freqs, _ = hist.counts_within(max_f + 1)
    probs = np.zeros(max_f + 1)
    probs[freqs] = [sampled_sbh_report_prob(config_sbh, scheme, int(f)) for f in freqs]
    return expected_reported_fraction(hist, probs)


def run_sweep(histogram: FrequencyHistogram, sweep_var: str, points,
              methods=REPORTING_METHODS) -> list[SweepRow]:
    """Expected reported fraction per grid point and method.

    ``points`` holds (value, params, scheme) per grid point; ``value`` is
    the swept quantity named ``sweep_var`` that labels the point's rows.
    """
    max_f = _max_frequency(histogram)
    methods = _method_names(methods, REPORTING_METHODS)

    rows: list[SweepRow] = []
    for value, params, scheme in points:
        for method in methods:
            frac = _reported_fraction(histogram, max_f, method, params, scheme)
            rows.append(SweepRow(sweep_var, float(value), method, "reported_fraction", frac))
    return rows


def _pws_mle_nrmse(params: PrivacyParams, scheme: SamplingScheme,
                   selection: FrequencyHistogram, max_f: int) -> float:
    # The most likely frequency behind a top token lies above the token, so
    # the public table must extend past the largest estimated frequency or
    # the boundary rows get truncation-distorted coefficients.
    reach = max_f + 2 * math.ceil(l_value(params)) + 2
    if np.all(scheme.probs(reach)[1:] == 1.0):
        table = compute_pij(params, scheme, reach)
    else:
        table = discretize_pdfs(compute_pdfs(params, scheme, reach))
    coeffs = mle_coeffs(table, table.reporting, g_identity)
    moments = moments_by_frequency(table, coeffs, g_identity)
    return statistic_moments(selection, moments).nrmse


def nrmse_experiment(selection: FrequencyHistogram, points,
                     methods=NRMSE_METHODS) -> list[SweepRow]:
    """Estimation error of the frequency-sum statistic across a tau grid.

    ``points`` holds (tau, params, scheme) per grid point.  Compares the
    private sample with most-likely-frequency coefficients, the
    noise-then-sample baseline with its inverse-probability estimate, and
    the non-private sample.  With the pps family, tau = 1 makes q = 1 on
    every frequency >= 1, so that grid point is exactly "no sampling".
    Undefined grid points yield NaN, not failure.
    """
    max_f = _max_frequency(selection)
    methods = _method_names(methods, NRMSE_METHODS)

    rows: list[SweepRow] = []
    for tau, params, scheme in points:
        for method in methods:
            try:
                if method == "pws-freq-mle":
                    result = _pws_mle_nrmse(params, scheme, selection, max_f)
                elif method == "sampled-sbh":
                    table = sbh_moment_table(SbhConfig(params), scheme, g_identity, max_f)
                    result = statistic_moments(selection, table).nrmse
                else:
                    table = nonprivate_moment_table(scheme, g_identity, max_f)
                    result = statistic_moments(selection, table).nrmse
            except ValueError:
                result = math.nan  # undefined at this grid point; flagged, not fatal
            rows.append(SweepRow("tau", float(tau), method, "nrmse", result))
    return rows
