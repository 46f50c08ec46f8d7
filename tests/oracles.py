"""Scalar and closed-form references that only the tests use.

The library keeps one implementation of each quantity, the one its CLI
runs.  The twins below compute the same quantities another way (a closed
form, one row at a time, or a scalar formula) and the tests compare the
library against them.  ``test_loop_oracles.py`` keeps the loop versions
of the vectorised table paths in the same spirit, and compares the file
writers with the ``csv.writer`` versions kept at the end of this module.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from privsample import (
    EstimatorCoeffs,
    PrivacyParams,
    SamplingScheme,
    compute_pi,
    l_value,
    verify_dp,
)
from privsample.estimators import _estimable

# ---------------------------------------------------------------- sampling


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


def binary_rows(rv):
    """Per-frequency output laws over (not reported, reported) tokens."""
    return np.stack([1.0 - rv.pi, rv.pi], axis=1)


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


def pi_marginals(table) -> np.ndarray:
    """Total reporting mass per row; matches the key-reporting solution."""
    return table.rows[:, 1:].sum(axis=1)


def verify_table(table, *, slack: float = 1e-12):
    """The DP oracle on a table's rows under the table's own parameters."""
    return verify_dp(table.rows, table.reporting.params, slack=slack)


def pdf_mass(pdf) -> float:
    """Atom at 0 plus the mass of every density segment."""
    return pdf.atom0 + float(pdf.segment_masses().sum())


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
    row = table.rows[i]
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
    items = pairs.items() if hasattr(pairs, "items") else pairs
    for key, value in items:
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


def write_pij_csv_ref(fp, table) -> None:
    writer = csv.writer(fp)
    writer.writerow(["i", "j", "pi_ij"])
    rows = table.rows
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
