"""Ordinal quality of sanitized frequencies.

A pair of keys is concordant when their sanitized order matches their true
frequency order; equal sanitized values count one half.  A key that is not
reported carries the minimum sanitized value (token 0), tied with other
non-reported keys under the same convention.  All quantities here are exact
expectations over the sanitizer's randomness, not simulations.
"""

from __future__ import annotations

import math

import numpy as np

from .privacy import TokenBands
from .sampling import FrequencyHistogram

__all__ = [
    "concordance_matrix",
    "expected_kendall_tau",
]


def concordance_matrix(table: TokenBands) -> np.ndarray:
    """Concordance probabilities C[i1, i2] for all row pairs at once.

    C[i1, i2] treats i1 as the larger true frequency; C + C^T = 1 on
    off-diagonal pairs and the diagonal is 0.5.  The rows are expanded over
    all tokens for the duration of the call; the running totals reuse one
    buffer.
    """
    mat = table.dense()
    upper = np.cumsum(mat, axis=1)
    np.subtract(1.0, upper, out=upper)
    return upper @ mat.T + 0.5 * (mat @ mat.T)


def expected_kendall_tau(histogram: FrequencyHistogram, conc: np.ndarray) -> float:
    """Expected rank correlation between true and sanitized key orders.

    ``conc`` is any matrix whose strict lower triangle holds the pair
    concordances C[hi, lo], hi > lo: the ``concordance_matrix`` of a token
    table, or the baseline's ``sbh_concordance_prob`` per pair.  Nothing
    else of it is read.  Averages the pair sign
    E[sign] = 2 * concordance - 1 over all key pairs with distinct true
    frequencies; pairs tied in truth are excluded from the normalizer (they
    carry no order information).  Returns NaN when no truth-distinct pair
    exists.  Exact in O(#distinct frequencies^2).
    """
    freqs, c = histogram.counts_within(len(conc))
    if freqs.size < 2:
        return math.nan

    # Pairs (hi, lo) with lo < hi in row-major order; cumsum adds them one
    # after another in that order, as a running total would.
    hi, lo = np.tril_indices(len(freqs), -1)
    n_pairs = c[hi] * c[lo]
    total_pairs = float(np.cumsum(n_pairs)[-1])
    total_sign = float(np.cumsum(n_pairs * (2.0 * conc[freqs[hi], freqs[lo]] - 1.0))[-1])
    return total_sign / total_pairs
