"""Privacy parameters and divergence checks for discrete output laws.

The verification oracle treats a mechanism as a family of per-frequency
output distributions and checks the (epsilon, delta) inequality between
every pair of adjacent frequencies, which is exactly the element-level
privacy requirement (neighboring datasets move one key's frequency by 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PrivacyParams",
    "DpReport",
    "l_value",
    "l_value_approx",
    "check_distribution",
    "hockey_stick",
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


def l_value_approx(params: PrivacyParams) -> float:
    """Coarse approximation (1/eps) * ln(min(1, eps/2) / delta) of l_value.

    Useful as a sanity scale; accurate to O(1/eps) when delta <= eps.
    """
    eps, delta = params.epsilon, params.delta
    return math.log(min(1.0, eps / 2.0) / delta) / eps


def check_distribution(probs, *, tol: float = 1e-12) -> np.ndarray:
    """Validate a finite probability vector (entries in [0,1], sums to 1)."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1:
        raise ValueError("a distribution must be a one-dimensional probability vector")
    if p.size == 0:
        raise ValueError("a distribution must have at least one token")
    if np.any(p < -tol) or np.any(p > 1.0 + tol):
        raise ValueError("probabilities must lie in [0, 1]")
    total = float(p.sum())
    if abs(total - 1.0) > tol:
        raise ValueError(f"probabilities must sum to 1 within {tol}, got {total!r}")
    return p


def hockey_stick(p, q, epsilon: float) -> float:
    """Divergence sum_j max(0, p_j - e^eps q_j) between two discrete laws.

    Equals the maximum over all token subsets T of p(T) - e^eps q(T), so the
    privacy inequality from p to q holds for every output set iff the result
    is <= delta.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(
            f"distributions must share one token index set, got shapes {p.shape} and {q.shape}"
        )
    return float(np.maximum(p - math.exp(epsilon) * q, 0.0).sum())


@dataclass(frozen=True)
class DpReport:
    """Outcome of a privacy check over adjacent frequency pairs."""

    ok: bool
    worst_pair: tuple[int, int]
    worst_divergence: float
    delta: float
    direction: str  # "up": higher row against lower; "down": the reverse

    def __bool__(self) -> bool:
        return self.ok


def verify_dp(rows, params: PrivacyParams, *, slack: float = DELTA_SLACK) -> DpReport:
    """Check the privacy inequality in both directions for adjacent rows.

    rows[i] is the output law for frequency i over a shared token set, with
    rows[0] the law of an absent key (all mass on token 0).  Passes iff every
    adjacent pair has hockey-stick divergence <= delta + slack both ways.
    """
    mat = np.asarray(rows, dtype=float)
    if mat.ndim != 2:
        raise ValueError("rows must form a matrix over one shared token set")
    if mat.shape[0] < 2:
        raise ValueError("need at least the frequency-0 row and one more")
    # every row a probability vector, entries in [0, 1] summing to 1; NaN fails
    tol = 1e-9
    ok = (
        (mat.min(axis=1) >= -tol)
        & (mat.max(axis=1) <= 1.0 + tol)
        & (np.abs(mat.sum(axis=1) - 1.0) <= tol)
    )
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(
            f"row {i} is not a probability vector: entries must lie in [0, 1] "
            f"and sum to 1 within {tol}, got sum {float(mat[i].sum())!r}"
        )

    factor = math.exp(params.epsilon)
    tmp = np.empty((mat.shape[0] - 1, mat.shape[1]))

    def divergences(p, q):
        # max(p - e^eps * q, 0) summed per row, in one reused temporary
        np.multiply(q, factor, out=tmp)
        np.subtract(p, tmp, out=tmp)
        return np.maximum(tmp, 0.0, out=tmp).sum(axis=1)

    div_up = divergences(mat[1:], mat[:-1])
    div_down = divergences(mat[:-1], mat[1:])

    i_up = int(np.argmax(div_up))
    i_down = int(np.argmax(div_down))
    if div_up[i_up] >= div_down[i_down]:
        worst, pair, direction = float(div_up[i_up]), (i_up, i_up + 1), "up"
    else:
        worst, pair, direction = float(div_down[i_down]), (i_down, i_down + 1), "down"
    return DpReport(
        ok=worst <= params.delta + slack,
        worst_pair=pair,
        worst_divergence=worst,
        delta=params.delta,
        direction=direction,
    )
