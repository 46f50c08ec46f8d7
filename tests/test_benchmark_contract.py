"""The names of the library that the benchmark under ``perfbench/`` relies on.

The benchmark wraps functions by name where the CLI, the experiments
harness and the file formats look them up, takes counts from what some of
them return, and checks each op's outputs by calling the library directly.
A renamed function drops its spans from the benchmark's layers; a changed
call crashes its checks; a changed flag breaks its command lines.  These
tests pin all three.  The benchmark's files are only read here.
"""

import importlib
import importlib.util
import inspect
import math
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from privsample.cli import build_parser
from privsample.estimators import g_power, mle_coeffs, moments_by_frequency, statistic_moments
from privsample.experiments import zipf_histogram
from privsample.frequencies import compute_pdfs, compute_pij, discretize_pdfs
from privsample.keys import compute_pi
from privsample.ordinal import concordance_matrix, expected_kendall_tau
from privsample.privacy import PrivacyParams, verify_dp
from privsample.sampling import FrequencyHistogram, SamplingScheme
from privsample.sbh import SbhConfig, sbh_moment_table

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PARAMS = PrivacyParams(0.5, 0.05)
SCHEME = SamplingScheme.ppswor(0.5)
M = 12


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def test_every_wrapped_name_is_a_function(tracing):
    missing = [
        f"{namespace}.{name}"
        for namespace, names in tracing.WRAPPED.items()
        for name in names
        if not inspect.isfunction(getattr(importlib.import_module(namespace), name, None))
    ]
    assert missing == []


def test_counts_read_what_the_layers_return(tracing):
    # each call as the CLI or the experiments harness makes it
    family = compute_pdfs(PARAMS, SCHEME, M)
    table = discretize_pdfs(family)
    hist = zipf_histogram(50, 1.0, M)
    calls = {
        "frequencies.compute_pdfs": ((PARAMS, SCHEME, M), family),
        "frequencies.discretize_pdfs": ((family,), table),
        "frequencies.compute_pij": ((PARAMS, SCHEME, M), compute_pij(PARAMS, SCHEME, M)),
        "privacy.verify_dp": ((table, PARAMS), verify_dp(table, PARAMS)),
        "ordinal.expected_kendall_tau": (
            (hist, concordance_matrix(table)),
            expected_kendall_tau(hist, concordance_matrix(table)),
        ),
        "sbh.sbh_moment_table": (
            (SbhConfig(PARAMS), SCHEME, g_power(1.0), M),
            sbh_moment_table(SbhConfig(PARAMS), SCHEME, g_power(1.0), M),
        ),
    }
    assert calls.keys() == tracing.COUNTS.keys()
    counts = defaultdict(int)
    for name, (args, result) in calls.items():
        tracing.COUNTS[name](counts, args, result)
    assert counts["frequencies.pdf_segments"] > 0
    assert counts["privacy.rows_checked"] == M + 1
    assert counts["ordinal.distinct_freqs"] == len(hist.counts)
    assert counts["sbh.moment_rows"] == M + 1


def test_the_calls_the_output_checks_make():
    table = discretize_pdfs(compute_pdfs(PARAMS, SCHEME, M))
    assert table.n_tokens >= 1
    g = g_power(1.0)
    moments = moments_by_frequency(table, mle_coeffs(table, compute_pi(PARAMS, SCHEME, M), g), g)
    exact = statistic_moments(FrequencyHistogram.from_keys({"a": 3, "b": 7, "c": 7}), moments)
    assert exact.statistic == 17.0
    assert math.isfinite(exact.bias)
    assert exact.variance > 0.0
    assert SbhConfig(PARAMS).threshold == math.log(1.0 / 0.05) / 0.5 + 1.0


def test_the_command_lines_parse(tmp_path):
    workloads = _load("workloads")
    parser = build_parser()
    for workload in workloads.WORKLOADS:
        inputs = tmp_path / workload
        inputs.mkdir()
        spec = workloads.make_inputs(workload, 1, workloads.TINY, inputs)
        commands = workloads.commands(spec, inputs)
        assert commands
        for command in commands:
            args = parser.parse_args(command.argv)
            assert callable(args.func), command.argv
