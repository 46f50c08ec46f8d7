"""Privacy parameters and divergence checks for discrete output laws.

The verification oracle treats a mechanism as a family of per-frequency
output distributions, stored as bands (``TokenBands``), and checks the
(epsilon, delta) inequality between every pair of adjacent frequencies,
which is exactly the element-level privacy requirement (neighboring
datasets move one key's frequency by 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PrivacyParams",
    "DpReport",
    "TokenBands",
    "l_value",
    "verify_dp",
]

#: Additive slack absorbing float rounding when comparing divergences to delta.
DELTA_SLACK = 1e-12


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) privacy budget with epsilon > 0 and 0 < delta <= 1."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must be in (0, 1], got {self.delta!r}")


def l_value(params: PrivacyParams) -> float:
    """Length of the geometric growth phase of the optimal reporting curve.

    Returns (1/eps) * ln((e^eps - 1 + 2 delta) / (delta (e^eps + 1))).  The
    value is generally non-integral and is never rounded by this package;
    saturation of the reporting curve happens after roughly twice this many
    frequency steps.
    """
    eps, delta = params.epsilon, params.delta
    ratio = (math.expm1(eps) + 2.0 * delta) / (delta * (math.exp(eps) + 1.0))
    return math.log(ratio) / eps


@dataclass(frozen=True, eq=False)
class TokenBands:
    """Per-frequency token laws stored as one fixed-width band per row.

    Row i is the law of the token reported for frequency i over tokens
    0..n_tokens: ``atom0[i]`` is the mass on token 0 ("not reported") and
    ``rows[i, c]`` the mass on token ``first[i] + c``, for c below the
    common ``width``.  Every other token of row i has mass 0.  Each band
    lies inside 1..n_tokens, so a row may store zeros at either end of its
    band.  Time and memory are O(rows x width), not O(rows x n_tokens).
    """

    atom0: np.ndarray
    first: np.ndarray
    rows: np.ndarray
    n_tokens: int

    def __post_init__(self):
        n = len(self.atom0)
        if self.rows.ndim != 2 or self.rows.shape[0] != n or self.first.shape != (n,):
            raise ValueError("atom0, first and rows must hold one entry per frequency row")
        if n and (self.first.min() < 1 or self.first.max() + self.width - 1 > max(self.n_tokens, 0)):
            raise ValueError(f"every band must lie inside tokens 1..{self.n_tokens}")

    def __len__(self) -> int:
        return len(self.atom0)

    @property
    def max_frequency(self) -> int:
        return len(self.atom0) - 1

    @property
    def width(self) -> int:
        return self.rows.shape[1]

    def tokens(self) -> np.ndarray:
        """The token each stored entry stands for: ``first[:, None] + arange(width)``."""
        return self.first[:, None] + np.arange(self.width)

    def weighted_sums(self, values: np.ndarray) -> np.ndarray:
        """Per row, sum over tokens j >= 1 of Pr[token j] * values[j]."""
        return np.einsum("ij,ij->i", self.rows, values[self.tokens()])

    def dense(self) -> np.ndarray:
        """The rows expanded over tokens 0..n_tokens."""
        out = np.zeros((len(self), self.n_tokens + 1))
        out[:, 0] = self.atom0
        np.put_along_axis(out, self.tokens(), self.rows, axis=1)
        return out

    @classmethod
    def from_entries(cls, atom0, i, j, v, n_tokens: int, **fields):
        """Pack the entries ``v`` at (row ``i``, token ``j`` >= 1) into bands.

        Entries equal to 0 are left out, so each band spans its row's first
        to last nonzero token; ``width`` is the widest span.  A row without
        entries starts at token 1.  ``fields`` go to the constructor of
        ``cls`` unchanged.
        """
        atom0 = np.asarray(atom0, dtype=float)
        i, j, v = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64), np.asarray(v, dtype=float)
        keep = v != 0.0
        i, j, v = i[keep], j[keep], v[keep]
        n = len(atom0)
        lo = np.full(n, n_tokens + 1, dtype=np.int64)
        hi = np.zeros(n, dtype=np.int64)
        np.minimum.at(lo, i, j)
        np.maximum.at(hi, i, j)
        has = hi > 0
        width = int((hi - lo + 1)[has].max(initial=0))
        first = np.clip(np.where(has, lo, 1), 1, max(1, n_tokens - width + 1))
        rows = np.zeros((n, width))
        rows[i, j - first[i]] = v
        return cls(atom0=atom0, first=first, rows=rows, n_tokens=int(n_tokens), **fields)


def _pair_divergences(bands: TokenBands, factor: float) -> tuple[np.ndarray, np.ndarray]:
    """Every adjacent pair's hockey-stick divergence both ways, as (up, down).

    ``up[k]`` is the sum of max(p - factor * q, 0), with p row k+1 and q
    row k, over token 0 and p's band, which hold all of p's mass; ``down[k]``
    swaps the rows.  q is read at p's tokens by index, and an index outside
    q's band reads a zero column.
    """
    n, width = len(bands), bands.width
    # column 0 is token 0, columns 1..width the band, width + 1 the zero column
    laws = np.column_stack([bands.atom0, bands.rows, np.zeros(n)])
    shift = np.diff(bands.first)  # first[k + 1] - first[k]
    sums = []
    for p, q, offset in ((laws[1:], laws[:-1], shift), (laws[:-1], laws[1:], -shift)):
        j = offset[:, None] + np.arange(width + 1)  # q's column at p's column c
        j[(j < 1) | (j > width)] = width + 1
        j[:, 0] = 0
        j += np.arange(0, q.size, width + 2)[:, None]  # each row's start in flat q
        d = np.take(q, j)
        d *= -factor
        d += p[:, : width + 1]
        sums.append(np.maximum(d, 0.0, out=d).sum(axis=1))
    return tuple(sums)


@dataclass(frozen=True)
class DpReport:
    """Outcome of a privacy check over adjacent frequency pairs.

    ``worst_pair`` is the adjacent pair with the largest float divergence
    of ``_pair_divergences``.  On an exact tie "up" wins, even over a lower
    tied "down" pair, and within one direction the lowest pair wins.  Pairs
    tied at the maximum up to rounding differ only in their last bits, so
    which of them it names depends on the order the sums run in.
    """

    ok: bool
    worst_pair: tuple[int, int]
    worst_divergence: float
    delta: float
    direction: str  # "up": higher row against lower; "down": the reverse


def verify_dp(bands: TokenBands, params: PrivacyParams) -> DpReport:
    """Check the privacy inequality in both directions for adjacent rows.

    ``bands`` holds the output law of every frequency over one shared token
    set.  Row 0 must be the law of an absent key, all mass on token 0, and
    each row a probability vector; it fails closed otherwise.  Passes iff
    every adjacent pair has hockey-stick divergence <= delta + DELTA_SLACK
    both ways, as ``_pair_divergences`` sums them over token 0 and the band
    of the pair's first row: time and memory are O(rows x width) whatever
    the bands' starts.  The sums may differ from sums over all tokens in
    the last digits.  The report names the worst pair by DpReport's rule.
    """
    n = len(bands)
    if n < 2:
        raise ValueError("need at least the frequency-0 row and one more")
    atom0, rows = bands.atom0, bands.rows
    if atom0[0] != 1.0 or np.any(rows[0] != 0.0):
        raise ValueError("row 0 must be the law of an absent key: all mass on token 0")
    # every row a probability vector, entries in [0, 1] summing to 1; NaN
    # fails.  The band's zeros and the tokens outside it count as entries 0.
    tol = 1e-9
    total = atom0 + rows.sum(axis=1)
    ok = (
        (np.minimum(atom0, rows.min(axis=1, initial=0.0)) >= -tol)
        & (np.maximum(atom0, rows.max(axis=1, initial=0.0)) <= 1.0 + tol)
        & (np.abs(total - 1.0) <= tol)
    )
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(
            f"row {i} is not a probability vector: entries must lie in [0, 1] "
            f"and sum to 1 within {tol}, got sum {float(total[i])!r}"
        )

    # argmax takes the first maximum, so an "up" pair whenever one is worst
    divergences = np.concatenate(_pair_divergences(bands, math.exp(params.epsilon)))
    i = int(np.argmax(divergences))
    side, k = divmod(i, n - 1)
    worst = float(divergences[i])
    return DpReport(ok=worst <= params.delta + DELTA_SLACK, worst_pair=(k, k + 1),
                    worst_divergence=worst, delta=params.delta, direction=("up", "down")[side])
