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

# Columns of the concordance matrix computed by one product.
_BLOCK = 64
# Key pairs summed by one cumsum of the Kendall tau.
_PAIRS = 1 << 16


def concordance_matrix(table: TokenBands) -> np.ndarray:
    """Concordance probabilities C[i1, i2] for all row pairs at once.

    C[i1, i2] treats i1 as the larger true frequency; C + C^T = 1 on
    off-diagonal pairs and the diagonal is 0.5.  With S the CDF of row i1,
    C[i1, i2] = sum over tokens j of Pr[X_i2 = j] (1 - S(j) + Pr[X_i1 = j] / 2).
    That factor of row i1 is constant below its band and above it, so each
    block of ``_BLOCK`` columns i2 is one product over token 0 and the
    tokens the block's bands span.  Memory is O(rows^2 + rows x span); the
    span is at most n_tokens, and no row is expanded over all tokens.
    Every value is clipped to [0, 1]; C + C^T = 1 holds up to rounding.
    """
    n, width, atom0, first = len(table), table.width, table.atom0, table.first
    cdf = np.cumsum(np.column_stack([atom0, table.rows]), axis=1)
    # the factor at token 0, below the band, on it and above it
    mid = np.column_stack([1.0 - 0.5 * atom0, 1.0 - atom0,
                           1.0 - cdf[:, 1:] + 0.5 * table.rows, 1.0 - cdf[:, -1]])
    out = np.empty((n, n))
    for start in range(0, n, _BLOCK):
        block = slice(start, start + _BLOCK)
        starts = first[block]
        lo = int(starts.min())
        tokens = np.arange(lo, int(starts.max()) + width)
        col = np.zeros((n, tokens.size + 1), dtype=np.int64)  # column 0 reads token 0
        col[:, 1:] = np.clip(tokens - first[:, None] + 2, 1, width + 2)
        mass = np.zeros((len(starts), tokens.size + 1))
        mass[:, 0] = atom0[block]
        band = starts[:, None] - lo + 1 + np.arange(width)  # mass column of each band entry
        np.put_along_axis(mass, band, table.rows[block], axis=1)
        out[:, block] = np.take_along_axis(mid, col, axis=1) @ mass.T
    # rows whose float sums miss 1 can put a pair a few ulps outside [0, 1]
    return np.clip(out, 0.0, 1.0, out=out)


def expected_kendall_tau(histogram: FrequencyHistogram, conc: np.ndarray) -> float:
    """Expected rank correlation between true and sanitized key orders.

    ``conc`` is any matrix whose strict lower triangle holds the pair
    concordances C[hi, lo], hi > lo: the ``concordance_matrix`` of a token
    table, or the baseline's ``sbh_concordance_prob`` per pair.  Nothing
    else of it is read.  Averages the pair sign
    E[sign] = 2 * concordance - 1 over all key pairs with distinct true
    frequencies; pairs tied in truth are excluded from the normalizer (they
    carry no order information).  Returns NaN when no truth-distinct pair
    exists.  Exact in O(#distinct frequencies^2) time; the pairs are summed
    in blocks of about ``_PAIRS``.
    """
    freqs, c = histogram.counts_within(len(conc))
    if freqs.size < 2:
        return math.nan

    # Pairs (hi, lo) with lo < hi in row-major order, a block of rows hi at
    # a time; each cumsum starts from the totals so far and adds the pairs
    # one after another in that order, as a running total would.
    totals = np.zeros(2)  # key pairs, sum of their signs
    step = max(1, _PAIRS // len(freqs))
    for start in range(1, len(freqs), step):
        stop = min(start + step, len(freqs))
        r, lo = np.tril_indices(stop - start, start - 1, stop)
        hi = r + start
        terms = np.empty((len(hi) + 1, 2))
        terms[0] = totals
        terms[1:, 0] = c[hi] * c[lo]
        terms[1:, 1] = terms[1:, 0] * (2.0 * conc[freqs[hi], freqs[lo]] - 1.0)
        totals = np.cumsum(terms, axis=0, out=terms)[-1]
    return float(totals[1]) / float(totals[0])
