"""The public surface is pinned: adding or dropping a name shows up as a diff here.

The library exports what its CLI and the benchmark run.  References that
only the tests use live in ``tests/oracles.py``.
"""

import dataclasses
import importlib
import inspect
import types

import numpy as np
import pytest

import privsample

PACKAGE = [
    "DpReport", "EstimatorCoeffs", "FrequencyHistogram", "MomentTable", "PdfFamily",
    "PiecewisePdf", "PrivacyParams", "SamplingScheme", "SanitizerTable", "SbhConfig",
    "StatisticMoments", "SweepRow", "TokenBands",
    "WeightedSample", "aggregate_elements", "compute_pdfs", "compute_pi", "compute_pij",
    "concordance_matrix", "discretize_pdfs", "draw_sample", "estimate_statistic",
    "expected_kendall_tau", "expected_reported_fraction", "g_identity", "g_power", "l_value",
    "mle_coeffs", "moments_by_frequency", "nonprivate_moment_table", "nrmse_experiment",
    "run_sweep", "sampled_sbh", "sampled_sbh_report_prob", "sanitize_frequencies",
    "sanitize_keys", "sbh_concordance_prob", "sbh_moment_table", "statistic_moments",
    "unbiased_coeffs", "uniform_histogram", "verify_dp", "zipf_histogram",
]

MODULES = {
    "estimators": [
        "EstimatorCoeffs", "MomentTable", "StatisticMoments",
        "estimate_statistic", "g_identity", "g_power", "mle_coeffs", "moments_by_frequency",
        "nonprivate_moment_table", "statistic_moments", "unbiased_coeffs",
    ],
    "experiments": [
        "DELTA_GRID_DEFAULT", "SweepRow", "TAU_GRID_DEFAULT",
        "expected_reported_fraction", "nrmse_experiment", "run_sweep", "uniform_histogram",
        "zipf_histogram",
    ],
    "frequencies": [
        "PdfFamily", "PiecewisePdf", "compute_pdfs", "compute_pij", "discretize_pdfs",
        "sanitize_frequencies",
    ],
    "keys": ["SanitizerTable", "compute_pi", "sanitize_keys"],
    "ordinal": ["concordance_matrix", "expected_kendall_tau"],
    "privacy": ["DpReport", "PrivacyParams", "TokenBands", "l_value", "verify_dp"],
    "sampling": [
        "FrequencyHistogram", "SamplingScheme", "WeightedSample", "aggregate_elements",
        "draw_sample",
    ],
    "sbh": [
        "SbhConfig", "sampled_sbh", "sampled_sbh_report_prob", "sbh_concordance_prob",
        "sbh_moment_table",
    ],
}


def test_package_names():
    # submodules become attributes once imported, so they are left out
    names = sorted(
        n for n in dir(privsample)
        if not n.startswith("_") and not isinstance(getattr(privsample, n), types.ModuleType)
    )
    assert names == PACKAGE


# The fields of every public dataclass, in order: a field change shows up as a diff here.
FIELDS = {
    "DpReport": ["ok", "worst_pair", "worst_divergence", "delta", "direction"],
    "EstimatorCoeffs": ["values", "defined"],
    "FrequencyHistogram": ["counts"],
    "MomentTable": ["g_values", "expectation", "mse"],
    "PdfFamily": ["reporting", "pdfs"],
    "PiecewisePdf": ["atom0", "bounds", "densities"],
    "PrivacyParams": ["epsilon", "delta"],
    "SamplingScheme": ["kind", "tau", "power"],
    "SanitizerTable": [
        "atom0", "first", "rows", "n_tokens", "params", "scheme", "q", "pi", "token_edges",
    ],
    "SbhConfig": ["params"],
    "StatisticMoments": ["statistic", "bias", "variance"],
    "SweepRow": ["sweep_var", "value", "method", "metric", "result"],
    "TokenBands": ["atom0", "first", "rows", "n_tokens"],
    "WeightedSample": ["pairs", "scheme"],
}


def test_every_public_dataclass_is_pinned():
    assert [n for n in PACKAGE if dataclasses.is_dataclass(getattr(privsample, n))] == sorted(FIELDS)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_dataclass_fields(name):
    assert [field.name for field in dataclasses.fields(getattr(privsample, name))] == FIELDS[name]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_all(module):
    mod = importlib.import_module(f"privsample.{module}")
    assert sorted(mod.__all__) == MODULES[module]
    stale = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not stale, f"__all__ names missing from privsample.{module}: {stale}"


@pytest.mark.parametrize("name", ["sbh_sanitize", "sbh_report_prob"])
def test_unsampled_baseline_is_scheme_none(name):
    # the baseline without sampling is sampled_sbh and sampled_sbh_report_prob
    # under SamplingScheme.none(), not a second pair of functions
    assert not hasattr(privsample, name)
    assert not hasattr(importlib.import_module("privsample.sbh"), name)


@pytest.mark.parametrize("owner, method", [
    (privsample.SanitizerTable, "binary_rows"),
    (privsample.SanitizerTable, "verify"),
    (privsample.SanitizerTable, "pi_marginals"),
    (privsample.PiecewisePdf, "mass"),
    (privsample.PiecewisePdf, "top"),
    (privsample.SamplingScheme, "weight"),
    (privsample.SamplingScheme, "inclusion_prob"),
    (privsample.StatisticMoments, "nrmse_defined"),
    (privsample.DpReport, "__bool__"),
    (privsample.EstimatorCoeffs, "kind"),
    (privsample.SanitizerTable, "reporting"),
    (privsample.PdfFamily, "params"),
    (privsample.PdfFamily, "scheme"),
    (privsample.PdfFamily, "max_frequency"),
    (privsample.FrequencyHistogram, "by_key"),
    (privsample.FrequencyHistogram, "require_keyed"),
    (privsample.SanitizerTable, "keep_probability"),
    (privsample.FrequencyHistogram, "frequencies_and_counts"),
    (privsample.PiecewisePdf, "segment_masses"),
    (privsample.PiecewisePdf, "node_cumulative"),
    (privsample.PdfFamily, "__getitem__"),
    (privsample.FrequencyHistogram, "n_keys"),
    (privsample.TokenBands, "dense"),
    (privsample.TokenBands, "from_entries"),
])
def test_removed_methods_stay_out(owner, method):
    assert not hasattr(owner, method)
    assert method not in {field.name for field in dataclasses.fields(owner)}


def test_tables_hold_bands_only():
    # one table representation: the bands, and no dense matrix beside them;
    # the key law is the table of one token, not a class of its own, stores
    # pi once, and every table built from it carries that same pi
    assert issubclass(privsample.SanitizerTable, privsample.TokenBands)
    assert not hasattr(privsample, "ReportingVector")
    assert not hasattr(importlib.import_module("privsample.keys"), "ReportingVector")
    params, scheme = privsample.PrivacyParams(1.0, 0.1), privsample.SamplingScheme.none()
    rv = privsample.compute_pi(params, scheme, 30)
    assert isinstance(rv, privsample.SanitizerTable) and rv.n_tokens == 1
    assert np.shares_memory(rv.rows, rv.pi)
    assert np.array_equal(privsample.compute_pij(params, scheme, 30).pi, rv.pi)
    family = privsample.compute_pdfs(params, scheme, 30)
    assert privsample.discretize_pdfs(family).pi is family.reporting.pi


def test_moment_table_stores_what_bias_and_variance_derive_from():
    # bias = E - g and variance = max(0, MSE - bias^2) are properties, not
    # fields (FIELDS pins the fields); so are a statistic's MSE and NRMSE
    assert isinstance(privsample.MomentTable.bias, property)
    assert isinstance(privsample.MomentTable.variance, property)
    assert isinstance(privsample.StatisticMoments.mse, property)
    assert isinstance(privsample.StatisticMoments.nrmse, property)


def test_concordance_is_expanded_once():
    # Kendall tau reads the concordance matrix; no caller expands chosen rows,
    # and the matrix is built from the bands (TokenBands has no dense form)
    assert list(inspect.signature(privsample.expected_kendall_tau).parameters) == [
        "histogram", "conc"]
    assert not hasattr(importlib.import_module("privsample.ordinal"), "_concordance")
    # the writer, not its caller, picks the exported pairs of the matrix
    write = importlib.import_module("privsample.formats").write_concordance_csv
    assert list(inspect.signature(write).parameters) == ["fp", "conc"]


def test_verify_dp_takes_bands_and_params_only():
    # the gate compares with delta + DELTA_SLACK; no caller picks its own slack
    assert list(inspect.signature(privsample.verify_dp).parameters) == ["bands", "params"]
