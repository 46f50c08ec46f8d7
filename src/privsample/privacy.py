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


@dataclass(frozen=True)
class DpReport:
    """Outcome of a privacy check over adjacent frequency pairs."""

    ok: bool
    worst_pair: tuple[int, int]
    worst_divergence: float
    delta: float
    direction: str  # "up": higher row against lower; "down": the reverse


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
