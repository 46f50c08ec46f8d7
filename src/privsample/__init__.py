"""Differentially private post-processing of weighted key-frequency samples.

The pipeline: threshold-sample aggregated (key, frequency) data, then
sanitize the sample so that reporting a key, and the token reported for
its frequency, satisfy element-level (epsilon, delta) privacy with the
maximum possible reporting probability per frequency.  Exact estimators,
ordinal diagnostics, a stability-histogram baseline and a sweep harness
round out the analysis surface.
"""

from .estimators import (
    EstimatorCoeffs,
    MomentTable,
    StatisticMoments,
    estimate_statistic,
    g_identity,
    g_power,
    mle_coeffs,
    moments_by_frequency,
    nonprivate_moment_table,
    statistic_moments,
    unbiased_coeffs,
)
from .experiments import (
    SweepRow,
    expected_reported_fraction,
    nrmse_experiment,
    run_sweep,
    uniform_histogram,
    zipf_histogram,
)
from .frequencies import (
    PdfFamily,
    PiecewisePdf,
    compute_pdfs,
    compute_pij,
    discretize_pdfs,
    sanitize_frequencies,
)
from .keys import SanitizerTable, compute_pi, sanitize_keys
from .ordinal import concordance_matrix, expected_kendall_tau
from .privacy import DpReport, PrivacyParams, TokenBands, l_value, verify_dp
from .sampling import (
    FrequencyHistogram,
    SamplingScheme,
    WeightedSample,
    aggregate_elements,
    draw_sample,
)
from .sbh import (
    SbhConfig,
    sampled_sbh,
    sampled_sbh_report_prob,
    sbh_concordance_prob,
    sbh_moment_table,
)

__version__ = "0.1.0"
