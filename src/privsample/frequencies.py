"""Sanitized-frequency output laws.

Two constructions are provided for the distribution of the reported token
given a key's true frequency:

* an integer-token table (``compute_pij``) where frequency i is reported as
  some token j <= i, with the reporting mass pushed to the highest tokens
  the privacy constraints against the previous row allow; and

* a family of piecewise-constant densities (``compute_pdfs``) on (0, i]
  plus an atom at 0 for "not reported", which separates the laws of
  different frequencies to the maximum extent possible and is then
  discretized (``discretize_pdfs``) over the union of its breakpoints.

In both constructions row i's total reporting mass equals the optimal
key-reporting probability pi_i, so reporting is never sacrificed for
frequency information.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from ._rng import PURPOSE_TOKEN, key_uniforms
from .keys import SanitizerTable, compute_pi
from .privacy import PrivacyParams, band_layout
from .sampling import SamplingScheme, WeightedSample

__all__ = [
    "PiecewisePdf",
    "PdfFamily",
    "compute_pij",
    "compute_pdfs",
    "discretize_pdfs",
    "sanitize_frequencies",
]


def compute_pij(
    params: PrivacyParams, scheme: SamplingScheme, max_frequency: int
) -> SanitizerTable:
    """Integer-token table: row i spreads mass pi_i over tokens 1..i.

    Per row, first set the forced lower bounds implied by the previous row
    (privacy in the shrinking direction), then assign the remaining mass
    from token i downward, capping each entry by the budget the previous
    row leaves in the growing direction.  Both steps run over tokens
    lo..i, where lo is the previous row's first nonzero token (token i
    when that row has no mass off token 0), so every row's band starts no
    lower than the previous row's.  In exact arithmetic nothing belongs
    below lo: the previous row's running sum is 0 there, so the pi
    recurrence keeps the forced bound <= 0 and the capped fill ends by lo.
    A forced bound that rounds above 0 below lo (up to 1e-16) is carried by
    token lo's running sum instead; fill mass left over at lo stays unplaced.
    """
    rv = compute_pi(params, scheme, max_frequency)
    eps, delta = params.epsilon, params.delta
    e_eps, e_neg = math.exp(eps), math.exp(-eps)
    m = max_frequency

    # row i's band: its entries from its first nonzero token starts[i] to its
    # last; a row without one keeps start 1 and an empty band
    starts, bands = np.ones(m + 1, dtype=np.int64), [[]] * (m + 1)
    lo, prev = 1, []  # the previous row on tokens lo..i-1; row 0 has none
    for i in range(1, m + 1):
        pi_i = float(rv.pi[i])
        gap = max(0.0, e_neg * float(rv.atom0[i - 1]) - float(rv.atom0[i]))

        # Forced minimum on tokens lo..i-1.  The running sum of the clamped
        # increments telescopes to max(0, target_j), because the targets are
        # non-decreasing in j.
        cum = np.maximum(e_neg * (np.cumsum(prev) - delta) + gap, 0.0)
        row = [*np.diff(cum, prepend=0.0).tolist(), 0.0]  # tokens lo..i
        assigned = float(cum[-1]) if cum.size else 0.0

        # The forced mass never exceeds pi_i; clamp float dust only.
        remaining = max(0.0, pi_i - assigned)
        suffix_prev = 0.0  # sum of prev[j..i-1]
        suffix_cur = 0.0  # sum of row[j+1..i]
        for k in range(i - lo, -1, -1):  # token j = lo + k
            if remaining == 0.0:
                break
            cap = e_eps * suffix_prev + delta - suffix_cur
            room = cap - row[k]
            if room <= remaining:
                remaining -= room
                row[k] = cap
            else:
                row[k] += remaining
                remaining = 0.0
            if k > 0:
                suffix_prev += prev[k - 1]
            suffix_cur += row[k]

        lead = next((k for k, x in enumerate(row) if x != 0.0), len(row))
        lo, prev = lo + lead, row[lead:]
        span = len(prev)  # token i holds min(delta, remaining): 0 only when nothing is left
        while span and prev[span - 1] == 0.0:
            span -= 1
        if span:
            starts[i], bands[i] = lo, np.array(prev[:span])

    spans = np.array([len(band) for band in bands])
    first, width = band_layout(starts, starts + spans - 1, m)  # an empty band ends at token 0
    rows = np.zeros((m + 1, width))
    for i in np.flatnonzero(spans):
        c = starts[i] - first[i]
        rows[i, c:c + spans[i]] = bands[i]
    return replace(rv, first=first, rows=rows, n_tokens=m)


@dataclass(frozen=True, eq=False)
class PiecewisePdf:
    """Law of one sanitized frequency: atom at 0 plus a piecewise-constant
    density on (0, top].

    ``bounds`` are the breakpoints 0 = b_0 < ... < b_K = top and
    ``densities[k]`` is the constant density on (b_k, b_{k+1}].  Zero-density
    segments are kept so breakpoint bookkeeping stays explicit.
    """

    atom0: float
    bounds: np.ndarray
    densities: np.ndarray


@dataclass(frozen=True, eq=False)
class PdfFamily:
    """Piecewise densities for frequencies 0..max_frequency, from the key law ``reporting``."""

    reporting: SanitizerTable
    pdfs: tuple[PiecewisePdf, ...]

    def __len__(self) -> int:
        return len(self.pdfs)

    def __iter__(self):
        return iter(self.pdfs)


def _cumulative(bounds: np.ndarray, densities: np.ndarray) -> np.ndarray:
    """Mass on (bounds[0], bounds[k]] at every breakpoint, for each row of a stack of densities."""
    out = np.zeros((*densities.shape[:-1], len(bounds)))
    np.cumsum(densities * np.diff(bounds), axis=-1, out=out[..., 1:])
    return out


def _split_at(bounds: np.ndarray, densities: np.ndarray, z: float):
    """Insert breakpoint z, which lies in [bounds[0], bounds[-1]], under every row of a stack;
    a no-op if already a node.  Also returns k, the number of segments ending at or below z."""
    k = int(np.searchsorted(bounds, z))
    if bounds[k] == z:
        return bounds, densities, k
    return (
        np.concatenate((bounds[:k], [z], bounds[k:])),
        np.concatenate((densities[..., :k], densities[..., k - 1:k], densities[..., k:]), axis=-1),
        k,
    )


def _smallest_crossing(bounds: np.ndarray, node_values: np.ndarray, slopes, target: float):
    """Smallest z with a piecewise-linear node function equal to target.

    ``node_values`` holds the non-decreasing function at the breakpoints;
    within segment k it is linear with slope ``slopes[k]``.  A target
    outside the function's range is clamped to the nearer end of ``bounds``,
    and so is an interpolated point that rounds past the last breakpoint.
    """
    k = int(np.searchsorted(node_values, target, side="left"))
    if k == 0:
        return float(bounds[0])
    if k == len(bounds):
        return float(bounds[-1])
    z = bounds[k - 1] + (target - node_values[k - 1]) / slopes[k - 1]  # slope > 0 here
    return min(float(z), float(bounds[-1]))


def compute_pdfs(
    params: PrivacyParams, scheme: SamplingScheme, max_frequency: int
) -> PdfFamily:
    """Build the maximally separating piecewise densities f_0..f_max.

    Each f_i has an atom 1 - pi_i at zero, density min(pi_i, delta) on
    (i-1, i], and below i-1 follows the privacy-tight lower bound up to a
    crossover point c_i and e^eps times the previous density above it.  The
    crossover is the point where the remaining mass balances exactly; all
    integrals are exact segment arithmetic and any tie in the crossover
    equation is broken toward the smallest solution.  Each row splits its
    grid once at b and once at c, under the lower bound and the previous
    density stacked, and sums both their masses in one cumulative pass.

    Every row, f_1 included, takes the same step.  The pi recurrence puts
    the crossover target target_c = pi_i - min(pi_i, delta) inside the
    balance function's range [balance[-1], balance[0]], so the solver's
    clamp only absorbs rounding:

    * pi_i <= e^eps pi_{i-1} + delta gives target_c <= e^eps pi_{i-1} = balance[0];
    * pi_i <= 1 + e^-eps (pi_{i-1} + delta - 1), with pi non-decreasing,
      gives target_c >= balance[-1], the forced lower-bound mass.
    """
    rv = compute_pi(params, scheme, max_frequency)
    eps, delta = params.epsilon, params.delta
    e_eps, e_neg = math.exp(eps), math.exp(-eps)

    pdfs = [PiecewisePdf(atom0=float(rv.atom0[0]), bounds=np.array([0.0]), densities=np.empty(0))]
    for i in range(1, max_frequency + 1):
        pi_i, atom = float(rv.pi[i]), float(rv.atom0[i])
        top_density = min(pi_i, delta)
        prev = pdfs[-1]

        gap = max(0.0, e_neg * prev.atom0 - atom)
        prev_cum = _cumulative(prev.bounds, prev.densities)
        total_prev = float(prev_cum[-1])

        # Lower-bound density on (0, i-1]: zero up to a budget point b, then
        # e^-eps times the previous density.  The shrink-direction divergence
        # is e^eps gap + (mass zeroed out), so the atom gap costs e^eps gap
        # of the delta budget; gap <= e^-eps delta is guaranteed by the
        # recurrence, which keeps the budget nonnegative.  A budget covering
        # the whole previous mass puts b at the top breakpoint, so the
        # lower bound is zero throughout.
        target_b = max(0.0, delta - e_eps * gap)
        b = _smallest_crossing(prev.bounds, prev_cum, prev.densities, target_b)
        grid, dens_prev, k = _split_at(prev.bounds, prev.densities, b)
        stack = np.stack((e_neg * dens_prev, dens_prev))  # (lower bound, previous)
        stack[0, :k] = 0.0  # the k segments that end at or below b

        # Crossover c: mass below c follows the lower bound, mass above c is
        # e^eps times the previous density, and the total on (0, i-1] must be
        # pi_i - top_density.  The balance is non-increasing in c, so solve
        # on its negation.
        target_c = pi_i - top_density
        cum_lower, cum_prev = _cumulative(grid, stack)
        balance = cum_lower + e_eps * (total_prev - cum_prev)
        c = _smallest_crossing(grid, -balance, e_eps * dens_prev - stack[0], -target_c)

        grid, (dens_lower, dens_prev), k = _split_at(grid, stack, c)
        dens_i = np.concatenate((dens_lower[:k], e_eps * dens_prev[k:], [top_density]))
        pdfs.append(_merged(atom, np.append(grid, float(i)), dens_i))
    return PdfFamily(reporting=rv, pdfs=tuple(pdfs))


def _merged(atom: float, bounds: np.ndarray, densities: np.ndarray) -> PiecewisePdf:
    """Merge each run of adjacent segments with exactly equal density into one.

    Densities are never averaged, so every one stays the exact segment
    arithmetic that built it.
    """
    starts = np.concatenate(([True], densities[1:] != densities[:-1]))
    return PiecewisePdf(
        atom0=atom, bounds=np.append(bounds[:-1][starts], bounds[-1]), densities=densities[starts]
    )


def discretize_pdfs(family: PdfFamily) -> SanitizerTable:
    """Turn the densities into a token table over their shared breakpoints.

    Tokens are the maximal intervals between consecutive breakpoints of any
    density in the family, in increasing position order; every density is
    constant on each token interval, so masses and all pairwise divergences
    are preserved exactly.  Each row's band runs from its first to its last
    token of nonzero mass.  The masses are computed twice, ``_ROWS`` rows at
    a time: once for the bands' extent, once to fill them.
    """
    all_bounds = np.unique(np.concatenate([pdf.bounds for pdf in family]))
    n, n_tokens = len(family), len(all_bounds) - 1
    lo, hi = np.full(n, n_tokens + 1), np.zeros(n, dtype=np.int64)
    for i, j, _ in _token_masses(family, all_bounds):
        np.minimum.at(lo, i, j)
        np.maximum.at(hi, i, j)
    first, width = band_layout(lo, hi, n_tokens)
    rows = np.zeros((n, width))
    for i, j, v in _token_masses(family, all_bounds):
        rows[i, j - first[i]] = v

    return replace(family.reporting, first=first, rows=rows, n_tokens=n_tokens,
                   token_edges=all_bounds[1:])


_ROWS = 64  # density rows discretized at a time


def _token_masses(family: PdfFamily, all_bounds: np.ndarray):
    """Yield (i, j, v) for the nonzero masses: row i puts mass v on token j.

    Token j is (all_bounds[j-1], all_bounds[j]].  A segment between
    all_bounds[lo] and all_bounds[hi] covers tokens lo+1..hi, and gives each
    the product of its density and the token's width.  One block of rows at
    a time, each in token order.
    """
    widths = np.diff(all_bounds)
    for start in range(0, len(family), _ROWS):
        pdfs = family.pdfs[start:start + _ROWS]
        bounds = np.concatenate([pdf.bounds for pdf in pdfs])
        n_bounds = np.array([len(pdf.bounds) for pdf in pdfs])
        at = np.searchsorted(all_bounds, bounds)
        left = np.ones(len(bounds), dtype=bool)
        left[np.cumsum(n_bounds) - 1] = False
        lo = at[left]
        hi = at[np.flatnonzero(left) + 1]
        density = np.concatenate([pdf.densities for pdf in pdfs])
        freq = np.repeat(np.arange(start, start + len(pdfs)), n_bounds - 1)
        nonzero = density != 0.0
        lo, hi, density, freq = lo[nonzero], hi[nonzero], density[nonzero], freq[nonzero]
        span = hi - lo
        seg = np.repeat(np.arange(len(span)), span)
        k = np.arange(len(seg)) - np.repeat(np.cumsum(span) - span - lo, span)
        v = density[seg] * widths[k]
        kept = v != 0.0
        yield freq[seg][kept], k[kept] + 1, v[kept]


def sanitize_frequencies(
    sample: WeightedSample, table: SanitizerTable, seed: int
) -> dict[str, int]:
    """Draw a sanitized token for each sampled key; keys drawing 0 are dropped.

    The conditional row for a sampled key with frequency w is the table row
    divided by q_w, with the leftover mass on token 0, so the end-to-end law
    over sampling and sanitization is exactly the table row.  Each w has one
    list of thresholds t: t[0] = max(0, 1 - row sum) for token 0, then the
    running masses of the band up to its last nonzero entry, the last one
    raised to at least 1.  A key's uniform u gives k = bisect_right(t, u):
    k = 0 is token 0 (not reported), otherwise token first[w] - 1 + k.  So
    the band's k-th token gets exactly the uniforms in [t[k-1], t[k]), and
    the highest nonzero one also takes every draw above the row's float total.
    Deterministic in the seed; the key -> token mapping keeps input order.
    """
    draws = {}
    for w, q_w in table.sampled_q(sample).items():
        cond = table.rows[w] / q_w
        band = np.trim_zeros(cond, "b")  # cumsum is sequential: trailing zeros never moved it
        cum = np.cumsum(np.concatenate(([max(0.0, 1.0 - float(cond.sum()))], band)))
        cum[-1] = max(cum[-1], 1.0)
        draws[w] = (cum.tolist(), int(table.first[w]) - 1)
    out: dict[str, int] = {}
    pairs = sample.pairs
    for (key, freq), u in zip(pairs.items(), key_uniforms(seed, pairs, PURPOSE_TOKEN)):
        cum, before = draws[freq]
        k = bisect_right(cum, u)
        if k:
            out[key] = before + k
    return out
