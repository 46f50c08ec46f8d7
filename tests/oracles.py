"""Scalar and closed-form references that only the tests use.

The library keeps one implementation of each quantity, the one its CLI
runs.  The twins below compute the same quantities another way (a closed
form, one row at a time, a scalar formula, or over dense rows where the
library stores bands) and the tests compare the library against them.  ``test_loop_oracles.py`` keeps the loop versions
of the vectorised table paths in the same spirit, and compares the file
writers with the ``csv.writer`` versions kept at the end of this module.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from privsample import (
    DpReport,
    EstimatorCoeffs,
    PrivacyParams,
    SamplingScheme,
    SanitizerTable,
    TokenBands,
    compute_pi,
    l_value,
    verify_dp,
)
from privsample.estimators import _estimable, _g_values
from privsample.privacy import DELTA_SLACK

# ---------------------------------------------------------------- sampling


@st.composite
def table_laws(draw, min_epsilon=0.01, max_delta=0.5, max_m=150):
    """(params, scheme, m) over the ranges the tables are built for.

    epsilon runs from ``min_epsilon`` to 10 and delta (log-uniform) from
    1e-12 to ``max_delta``; the scheme is none, or ppswor or pps with tau
    from 1e-4 to 1 and power 0 to 2; m runs from 1 to ``max_m``.
    """
    epsilon = draw(st.floats(min_epsilon, 10.0))
    delta = 10.0 ** draw(st.floats(-12.0, math.log10(max_delta)))
    kind = draw(st.sampled_from(["none", "ppswor", "pps"]))
    if kind == "none":
        scheme = SamplingScheme.none()
    else:
        tau = 10.0 ** draw(st.floats(-4.0, 0.0))
        scheme = getattr(SamplingScheme, kind)(tau, draw(st.floats(0.0, 2.0)))
    return PrivacyParams(epsilon, delta), scheme, draw(st.integers(1, max_m))


def inclusion_prob(scheme: SamplingScheme, w: float) -> float:
    """Probability q_w that a key with frequency w is sampled, one scalar at a time.

    The library computes q only in array form (``SamplingScheme.inclusion_probs``).
    """
    if w <= 0:
        return 0.0
    if scheme.kind == "none":
        return 1.0
    x = float(w) ** scheme.power * scheme.tau
    if scheme.kind == "ppswor":
        return -math.expm1(-x)
    return min(1.0, x)


# ---------------------------------------------------------------- keys


def binary_rows(rv) -> TokenBands:
    """Per-frequency output laws over (not reported, reported) tokens."""
    return bands(np.stack([1.0 - rv.pi, rv.pi], axis=1))


def pi_star_closed_form(params: PrivacyParams, i: int) -> float:
    """Three-branch closed form of the no-sampling reporting curve.

    With L = l_value(params) the growth and decay branches disagree at the
    seam i = L + 1, and the recurrence saturates at 2L + 1 rather than
    2L + 2, so exact agreement with compute_pi is only expected away from
    those indices.
    """
    if i < 0:
        raise ValueError("frequency must be >= 0")
    if i == 0:
        return 0.0
    eps, delta = params.epsilon, params.delta
    L = l_value(params)
    if i <= L + 1.0:
        return delta * math.expm1(eps * i) / math.expm1(eps)
    if i < 2.0 * L + 2.0:
        return 1.0 - delta * math.expm1(eps * (2.0 * L + 2.0 - i)) / math.expm1(eps)
    return 1.0


def ppswor_structure(params: PrivacyParams, scheme: SamplingScheme, max_frequency: int):
    """Crossover index of the two-phase solution under ppswor with power 1.

    Returns the smallest i where the no-sampling solution exceeds q_i, or
    None when there is no crossover within range.  Also verifies that the
    scheme's solution equals the no-sampling solution below the crossover
    and q itself at and above it (within 1e-12).
    """
    if scheme.kind != "ppswor" or scheme.power != 1.0:
        raise ValueError("the two-phase structure applies to ppswor with power 1 only")
    star = compute_pi(params, SamplingScheme.none(), max_frequency).pi
    actual = compute_pi(params, scheme, max_frequency)
    q = actual.q

    above = np.nonzero(star[1:] > q[1:])[0]
    ell = int(above[0]) + 1 if above.size else None

    cut = ell if ell is not None else max_frequency + 1
    if not np.allclose(actual.pi[:cut], star[:cut], rtol=0.0, atol=1e-12):
        raise RuntimeError("two-phase structure violated below the crossover")
    if not np.allclose(actual.pi[cut:], q[cut:], rtol=0.0, atol=1e-12):
        raise RuntimeError("two-phase structure violated at or above the crossover")
    return ell


# ---------------------------------------------------------------- privacy


def l_value_approx(params: PrivacyParams) -> float:
    """Coarse approximation (1/eps) * ln(min(1, eps/2) / delta) of l_value.

    Accurate to O(1/eps) when delta <= eps.
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


# ---------------------------------------------------------------- tables
# The library stores every token table as bands.  The dense forms below,
# one full row of tokens 0..n_tokens per frequency, are what it built and
# checked before; they are the reference for the bands.


def bands(rows) -> TokenBands:
    """The bands of dense rows: column 0 is token 0, column j token j."""
    return _from_dense(TokenBands, rows)


def table_from_dense(rows, reporting, token_edges=None) -> SanitizerTable:
    """A table over dense rows, for hand-built laws."""
    return _from_dense(SanitizerTable, rows, reporting=reporting, token_edges=token_edges)


def _from_dense(cls, rows, **fields):
    mat = np.asarray(rows, dtype=float)
    i, j = np.nonzero(mat[:, 1:])
    return cls.from_entries(mat[:, 0], i, j + 1, mat[i, j + 1], mat.shape[1] - 1, **fields)


def compute_pij_dense(params: PrivacyParams, scheme: SamplingScheme, max_frequency: int):
    """The integer-token table over dense rows: forced minimum, then the suffix loop.

    Both steps run from the previous row's first nonzero token lo (token i
    when that row has no mass off token 0) up to token i.
    """
    rv = compute_pi(params, scheme, max_frequency)
    eps, delta = params.epsilon, params.delta
    e_eps, e_neg = math.exp(eps), math.exp(-eps)
    m = max_frequency

    rows = np.zeros((m + 1, m + 1))
    rows[0, 0] = 1.0
    for i in range(1, m + 1):
        pi_i = float(rv.pi[i])
        prev = rows[i - 1]
        row = rows[i]
        row[0] = 1.0 - pi_i
        gap = max(0.0, e_neg * prev[0] - row[0])
        nonzero = np.flatnonzero(prev[1:i])
        lo = int(nonzero[0]) + 1 if nonzero.size else i
        cum = np.maximum(e_neg * (np.cumsum(prev[lo:i]) - delta) + gap, 0.0)
        row[lo:i] = np.diff(cum, prepend=0.0)
        assigned = float(cum[-1]) if cum.size else 0.0
        remaining = max(0.0, pi_i - assigned)
        suffix_prev = 0.0
        suffix_cur = 0.0
        for j in range(i, lo - 1, -1):
            if remaining == 0.0:
                break
            cap = e_eps * suffix_prev + delta - suffix_cur
            room = cap - row[j]
            if room <= remaining:
                remaining -= room
                row[j] = cap
            else:
                row[j] += remaining
                remaining = 0.0
            suffix_prev += prev[j - 1]
            suffix_cur += row[j]
    return rows


def discretize_pdfs_dense(family):
    """The density table over dense rows: every token of every row filled in."""
    all_bounds = np.unique(np.concatenate([pdf.bounds for pdf in family]))
    edges = all_bounds[1:]
    widths = np.diff(all_bounds)
    rows = np.zeros((len(family), len(edges) + 1))
    rows[0, 0] = 1.0
    for i in range(1, len(family)):
        pdf = family[i]
        rows[i, 0] = pdf.atom0
        cover = int(np.searchsorted(edges, pdf.bounds[-1], side="right"))
        seg = np.searchsorted(pdf.bounds, edges[:cover], side="left") - 1
        rows[i, 1 : cover + 1] = pdf.densities[seg] * widths[:cover]
    return rows


def verify_dp_dense(rows, params: PrivacyParams) -> DpReport:
    """The DP oracle over dense rows: every pair compared over all tokens."""
    mat = np.asarray(rows, dtype=float)
    for row in mat:
        check_distribution(row, tol=1e-9)
    factor = math.exp(params.epsilon)
    div_up = np.maximum(mat[1:] - factor * mat[:-1], 0.0).sum(axis=1)
    div_down = np.maximum(mat[:-1] - factor * mat[1:], 0.0).sum(axis=1)
    i_up = int(np.argmax(div_up))
    i_down = int(np.argmax(div_down))
    if div_up[i_up] >= div_down[i_down]:
        worst, pair, direction = float(div_up[i_up]), (i_up, i_up + 1), "up"
    else:
        worst, pair, direction = float(div_down[i_down]), (i_down, i_down + 1), "down"
    return DpReport(worst <= params.delta + DELTA_SLACK, pair, worst, params.delta, direction)


def pi_marginals(table) -> np.ndarray:
    """Total reporting mass per row; matches the key-reporting solution."""
    return table.dense()[:, 1:].sum(axis=1)


def verify_table(table):
    """The DP oracle on a table's rows under the table's own parameters."""
    return verify_dp(table, table.reporting.params)


def pdf_mass(pdf) -> float:
    """Atom at 0 plus the mass of every density segment."""
    return pdf.atom0 + float((pdf.densities * np.diff(pdf.bounds)).sum())


# ---------------------------------------------------------------- estimators


def inverse_prob_coeffs(scheme: SamplingScheme, g, max_frequency: int) -> EstimatorCoeffs:
    """Non-private coefficients a_i = g(i) / q_i over true frequencies.

    Unbiased by construction: q_i * a_i = g(i) for every estimable i.
    """
    q, gv = _estimable(scheme, g, max_frequency)
    values = np.zeros(max_frequency + 1)
    nz = q > 0.0
    values[nz] = gv[nz] / q[nz]
    defined = np.ones(max_frequency + 1, dtype=bool)
    defined[0] = False
    return EstimatorCoeffs(values=values, defined=defined)


def unbiased_coeffs_dense(rows, g) -> EstimatorCoeffs:
    """Forward substitution over dense rows of a square integer-token table."""
    m = rows.shape[0] - 1
    gv = _g_values(g, m)
    a = np.zeros(m + 1)
    for i in range(1, m + 1):
        a[i] = (gv[i] - float(rows[i, 1:i] @ a[1:i])) / rows[i, i]
    defined = np.ones(m + 1, dtype=bool)
    defined[0] = False
    return EstimatorCoeffs(values=a, defined=defined)


def mle_coeffs_dense(rows, rv, g) -> EstimatorCoeffs:
    """Most-likely-frequency coefficients by an argmax down each dense column."""
    cols = rows[:, 1:]
    i_star = np.argmax(cols, axis=0)
    defined = np.concatenate([[False], cols.max(axis=0) > 0.0])
    values = np.zeros(rows.shape[1])
    gv = g(i_star.astype(float))
    ok = defined[1:]
    values[1:][ok] = gv[ok] / rv.pi[i_star][ok]
    return EstimatorCoeffs(values=values, defined=defined)


@dataclass(frozen=True, eq=False)
class DenseMoments:
    """Per-frequency moments with bias and variance computed here, not derived by MomentTable."""

    g_values: np.ndarray
    expectation: np.ndarray
    bias: np.ndarray
    variance: np.ndarray
    mse: np.ndarray


def moments_dense(rows, coeffs: EstimatorCoeffs, g) -> DenseMoments:
    """Per-frequency moments by matrix products over dense rows."""
    gv = _g_values(g, rows.shape[0] - 1)
    a = coeffs.values[1:]
    reported = rows[:, 1:]
    expectation = reported @ a
    bias = expectation - gv
    mse = rows[:, 0] * gv**2 + reported @ a**2 - 2.0 * gv * expectation + reported.sum(axis=1) * gv**2
    return DenseMoments(gv, expectation, bias, np.maximum(0.0, mse - bias**2), mse)


@dataclass(frozen=True)
class PerKeyMoments:
    """Exact moments of the per-key estimate for one true frequency."""

    expectation: float
    bias: float
    variance: float
    mse: float


def per_key_moments(table, coeffs: EstimatorCoeffs, g, i: int) -> PerKeyMoments:
    """Exact moments of the estimate a_J for a key with true frequency i, one row at a time."""
    if not 0 <= i <= table.max_frequency:
        raise ValueError(f"frequency {i} outside table range 0..{table.max_frequency}")
    if len(coeffs.values) != table.n_tokens + 1:
        raise ValueError("coefficients do not match the table's token set")
    row = table.dense()[i]
    a = coeffs.values
    gi = float(g(np.array([i]))[0]) if i > 0 else 0.0
    expectation = float(row[1:] @ a[1:])
    bias = expectation - gi
    mse = float(row[0]) * gi * gi + float(row[1:] @ (a[1:] - gi) ** 2)
    variance = max(0.0, mse - bias * bias)
    return PerKeyMoments(expectation=expectation, bias=bias, variance=variance, mse=mse)


# ---------------------------------------------------------------- ordinal


def concordance_prob(row_high, row_low) -> float:
    """Pr[J_high > J_low] + 0.5 Pr[J_high = J_low] for independent draws.

    ``row_high`` is the token law of the strictly larger true frequency.
    Token 0 participates as the minimum token.
    """
    p = check_distribution(row_high, tol=1e-9)
    q = check_distribution(row_low, tol=1e-9)
    if p.shape != q.shape:
        raise ValueError("rows must share one ordered token set")
    upper = 1.0 - np.cumsum(p)  # Pr[J_high > token j]
    return float(q @ upper + 0.5 * (p @ q))


# ---------------------------------------------------------------- formats
# The writers as they were before the library wrote preformatted blocks of
# lines: one csv.writer row, or one f-string line, and one format() call per
# value.  Their bytes are the reference for the library's writers.


def _fmt(x) -> str:
    return format(float(x), ".17g")


def write_keyed_tsv_ref(fp, pairs, *, float_values: bool = False) -> None:
    for key, value in pairs.items():
        fp.write(f"{key}\t{_fmt(value) if float_values else value}\n")


def write_key_lines_ref(fp, keys) -> None:
    for key in keys:
        fp.write(f"{key}\n")


def write_pi_csv_ref(fp, rv) -> None:
    writer = csv.writer(fp)
    writer.writerow(["i", "q_i", "pi_i", "p_i"])
    for i in range(1, rv.max_frequency + 1):
        q_i = float(rv.q[i])
        p_i = rv.pi[i] / q_i if q_i > 0 else 0.0
        writer.writerow([i, _fmt(q_i), _fmt(rv.pi[i]), _fmt(p_i)])


def write_pij_csv_ref(fp, rows) -> None:
    """The export of dense rows, one cell at a time."""
    writer = csv.writer(fp)
    writer.writerow(["i", "j", "pi_ij"])
    for i in range(rows.shape[0]):
        for j in range(rows.shape[1]):
            if j == 0 or rows[i, j] != 0.0:
                writer.writerow([i, j, _fmt(rows[i, j])])


def write_pdf_segments_csv_ref(fp, family) -> None:
    writer = csv.writer(fp)
    writer.writerow(["i", "left", "right", "density"])
    for i, pdf in enumerate(family):
        for k in range(len(pdf.densities)):
            writer.writerow([i, _fmt(pdf.bounds[k]), _fmt(pdf.bounds[k + 1]),
                             _fmt(pdf.densities[k])])


def write_pdf_atoms_csv_ref(fp, family) -> None:
    writer = csv.writer(fp)
    writer.writerow(["i", "atom0"])
    for i, pdf in enumerate(family):
        writer.writerow([i, _fmt(pdf.atom0)])


def write_sweep_csv_ref(fp, rows) -> None:
    writer = csv.writer(fp)
    writer.writerow(["sweep_var", "value", "method", "metric", "result"])
    for r in rows:
        writer.writerow([r.sweep_var, _fmt(r.value), r.method, r.metric, _fmt(r.result)])


def write_concordance_csv_ref(fp, pairs) -> None:
    writer = csv.writer(fp)
    writer.writerow(["i1", "i2", "concordance"])
    for i1, i2, c in pairs:
        writer.writerow([i1, i2, _fmt(c)])


def write_moments_csv_ref(fp, moment_table) -> None:
    writer = csv.writer(fp)
    writer.writerow(["i", "E_i", "Bias_i", "Var_i", "MSE_i"])
    for i in range(1, moment_table.max_frequency + 1):
        writer.writerow([i, _fmt(moment_table.expectation[i]), _fmt(moment_table.bias[i]),
                         _fmt(moment_table.variance[i]), _fmt(moment_table.mse[i])])
