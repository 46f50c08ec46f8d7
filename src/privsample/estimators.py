"""Per-token estimate coefficients and exact moment computations.

Estimates of linear statistics sum L(x) g(w_x) are formed from the private
sample alone: each reported key contributes the coefficient of its token,
keys absent contribute 0.  Expectation, bias, variance and MSE of the
per-key estimate are computed exactly from the token table, and statistic
moments follow by summation over a frequency histogram; no simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .frequencies import SanitizerTable
from .keys import ReportingVector
from .sampling import FrequencyHistogram, SamplingScheme

__all__ = [
    "EstimatorCoeffs",
    "MomentTable",
    "StatisticMoments",
    "g_identity",
    "g_power",
    "unbiased_coeffs",
    "mle_coeffs",
    "moments_by_frequency",
    "nonprivate_moment_table",
    "statistic_moments",
    "estimate_statistic",
]

FrequencyFunc = Callable[[np.ndarray], np.ndarray]


def g_identity(w):
    return np.asarray(w, dtype=float)


def g_power(p: float) -> FrequencyFunc:
    if not math.isfinite(p):
        raise ValueError(f"the exponent must be finite, got {p!r}")

    def g(w):
        return np.asarray(w, dtype=float) ** p

    return g


def _g_values(g: FrequencyFunc, max_frequency: int) -> np.ndarray:
    """(0, g(1), ..., g(max_frequency))."""
    gv = np.zeros(max_frequency + 1)
    gv[1:] = g(np.arange(1, max_frequency + 1))
    return gv


def _estimable(scheme: SamplingScheme, g: FrequencyFunc, max_frequency: int):
    """q and g over 0..max_frequency, where every g(i) > 0 has q_i > 0."""
    q = scheme.probs(max_frequency)
    gv = _g_values(g, max_frequency)
    bad = (q[1:] <= 0.0) & (gv[1:] > 0.0)
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0]) + 1
        raise ValueError(f"q_{i} = 0 with g({i}) > 0: statistic is inestimable")
    return q, gv


@dataclass(frozen=True, eq=False)
class EstimatorCoeffs:
    """Per-token estimate values a_j (a_0 = 0 for "not reported").

    ``defined[j]`` marks tokens that some frequency can actually emit;
    estimating with an undefined token is an error.
    """

    values: np.ndarray
    defined: np.ndarray

    def value(self, token: int) -> float:
        if not 0 <= token < len(self.values):
            raise ValueError(f"token {token} outside coefficient range")
        if token > 0 and not self.defined[token]:
            raise ValueError(f"token {token} is never emitted; no coefficient defined")
        return float(self.values[token])


def unbiased_coeffs(table: SanitizerTable, g: FrequencyFunc) -> EstimatorCoeffs:
    """The unique unbiased coefficients for an integer-token table.

    Forward substitution on the triangular unbiasedness system
    sum_{j<=i} pi_{i,j} a_j = g(i).  Coefficients may be negative; that is
    inherent, not a defect (see tests).
    """
    if table.token_edges is not None or table.n_tokens != table.max_frequency:
        raise ValueError("unbiased coefficients need the square integer-token table")
    m = table.max_frequency
    gv = _g_values(g, m)
    a = np.zeros(m + 1)
    # Each row is expanded into one reused dense buffer, so every dot product
    # runs over tokens 1..i-1 exactly as on a dense row: the substitution
    # amplifies any change in summation order.
    row = np.zeros(m + 1)
    tokens = table.tokens()
    for i in range(1, m + 1):
        row[tokens[i]] = table.rows[i]
        diag = row[i]
        if diag <= 0.0:
            raise ValueError(f"zero diagonal at frequency {i}: system is singular there")
        a[i] = (gv[i] - float(row[1:i] @ a[1:i])) / diag
        row[tokens[i]] = 0.0
    defined = np.ones(m + 1, dtype=bool)
    defined[0] = False
    return EstimatorCoeffs(values=a, defined=defined)


def mle_coeffs(
    table: SanitizerTable, rv: ReportingVector, g: FrequencyFunc
) -> EstimatorCoeffs:
    """Most-likely-frequency coefficients a_j = g(i*) / pi_{i*}.

    i* is the frequency whose row puts the most mass on token j, ties broken
    toward the smaller frequency.  Nonnegative whenever g is.  The argmax
    searches the table's whole frequency range; size the table comfortably
    past the largest frequency you will estimate, because the most likely
    frequency behind a top token lies above that token.  ``rv`` must hold
    the law the table was built from, pi_0..pi_m included.
    """
    law = table.reporting
    if (rv.params, rv.scheme) != (law.params, law.scheme):
        raise ValueError(f"reporting vector is for {rv.params}, {rv.scheme}, not the table's law")
    if not np.array_equal(rv.pi[: table.max_frequency + 1], law.pi):
        raise ValueError("reporting vector must cover the table's range with the table's pi")
    # per token, its largest entry, and the smallest frequency holding it
    tokens, rows = table.tokens().ravel(), table.rows.ravel()
    freqs = np.repeat(np.arange(len(table)), table.width)
    best = np.zeros(table.n_tokens + 1)
    np.maximum.at(best, tokens, rows)
    defined = best > 0.0
    defined[0] = False
    held = (rows == best[tokens]) & defined[tokens]
    i_star = np.full(table.n_tokens + 1, len(table))
    np.minimum.at(i_star, tokens[held], freqs[held])
    i_star = np.where(defined, i_star, 0)[1:]
    values = np.zeros(table.n_tokens + 1)
    gv = g(i_star.astype(float))
    pi_star = rv.pi[i_star]
    ok = defined[1:]
    values[1:][ok] = gv[ok] / pi_star[ok]
    return EstimatorCoeffs(values=values, defined=defined)


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Per-frequency estimate moments over 0..max_frequency; bias and variance derive from them."""

    g_values: np.ndarray
    expectation: np.ndarray
    mse: np.ndarray

    @property
    def max_frequency(self) -> int:
        return len(self.g_values) - 1

    @property
    def bias(self) -> np.ndarray:
        return self.expectation - self.g_values

    @property
    def variance(self) -> np.ndarray:
        """MSE minus the squared bias, floored at 0 against rounding."""
        return np.maximum(0.0, self.mse - self.bias**2)


def moments_by_frequency(
    table: SanitizerTable, coeffs: EstimatorCoeffs, g: FrequencyFunc
) -> MomentTable:
    """Exact per-key moments for every frequency in the table at once."""
    if len(coeffs.values) != table.n_tokens + 1:
        raise ValueError("coefficients do not match the table's token set")
    gv = _g_values(g, table.max_frequency)
    a = coeffs.values
    pi_m = table.rows.sum(axis=1)
    expectation = table.weighted_sums(a)
    # MSE_i = (1 - pi_i) g^2 + sum_j pi_ij (a_j - g)^2, expanded
    mse = table.atom0 * gv**2 + table.weighted_sums(a**2) - 2.0 * gv * expectation + pi_m * gv**2
    return MomentTable(g_values=gv, expectation=expectation, mse=mse)


def nonprivate_moment_table(
    scheme: SamplingScheme, g: FrequencyFunc, max_frequency: int
) -> MomentTable:
    """Moments of the non-private inverse-probability estimate per frequency.

    Unbiased with per-key variance g(i)^2 (1/q_i - 1).
    """
    q, gv = _estimable(scheme, g, max_frequency)
    mse = np.zeros(max_frequency + 1)
    nz = q > 0.0
    mse[nz] = gv[nz] ** 2 * (1.0 / q[nz] - 1.0)
    return MomentTable(g_values=gv, expectation=gv.copy(), mse=mse)


@dataclass(frozen=True)
class StatisticMoments:
    """Exact moments of a statistic estimate over a selection of keys."""

    statistic: float
    bias: float
    variance: float
    mse: float
    nrmse: float  # NaN when the true statistic is 0


def statistic_moments(selection: FrequencyHistogram, moments: MomentTable) -> StatisticMoments:
    """Moments of sum g(w_x) over the selected keys, exactly from counts.

    Keys are independent, so bias and variance add over the selection.
    """
    freqs, c = selection.counts_within(len(moments.g_values))
    statistic = float(np.sum(c * moments.g_values[freqs]))
    bias = float(np.sum(c * moments.bias[freqs]))
    variance = float(np.sum(c * moments.variance[freqs]))
    mse = variance + bias * bias
    nrmse = math.sqrt(mse) / statistic if statistic > 0.0 else math.nan
    return StatisticMoments(
        statistic=statistic, bias=bias, variance=variance, mse=mse, nrmse=nrmse
    )


def estimate_statistic(
    sanitized: Mapping[str, int], coeffs: EstimatorCoeffs, selection: set[str] | None = None
) -> float:
    """Evaluate sum a_{j_x} over a sanitized sample, a key -> token mapping.

    Reads only the private output and public coefficients.  ``selection``
    restricts the sum to those keys (None selects everything).
    """
    total = 0.0
    for key, token in sanitized.items():
        if selection is None or key in selection:
            total += coeffs.value(token)
    return total
