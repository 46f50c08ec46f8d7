"""Spans around the calls into each privsample module, recorded from outside the package.

The public entry points are wrapped where ``privsample.cli``,
``privsample.experiments`` and ``privsample.formats`` look them up, so a
call from the CLI into a layer, and from the experiments harness into the
layers below it, each opens a span.  Per-element callbacks (``g_identity``,
``g_power``, ``formats.fmt``) are never wrapped: they run millions of times
per op and their spans would cost more than the work they measure.  Spans
stay in memory until the op ends.  They are timed in process CPU time, the
clock the worker times its op with, so the layers add up to the op.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import process_time

# Names looked up in each namespace by the code paths the workloads reach.
WRAPPED = {
    "privsample.cli": (
        "draw_sample", "compute_pi", "sanitize_keys", "compute_pdfs", "compute_pij",
        "discretize_pdfs", "sanitize_frequencies", "verify_dp", "mle_coeffs", "unbiased_coeffs",
        "moments_by_frequency", "estimate_statistic", "concordance_matrix", "expected_kendall_tau",
        "sbh_concordance_prob", "sampled_sbh", "run_sweep", "nrmse_experiment",
        "uniform_histogram", "zipf_histogram",
    ),
    "privsample.experiments": (
        "compute_pi", "compute_pdfs", "compute_pij", "discretize_pdfs", "mle_coeffs",
        "moments_by_frequency", "nonprivate_moment_table", "statistic_moments",
        "sbh_moment_table", "sampled_sbh_report_prob", "expected_reported_fraction",
    ),
    "privsample.formats": (
        "read_keyed_tsv", "write_keyed_tsv", "write_key_lines", "write_pij_csv", "read_pij_csv",
        "write_sweep_csv", "write_concordance_csv", "write_moments_csv",
    ),
}


def layer_name(fn) -> str:
    """`<module>.<function>` with the package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _table_counts(counts, args, result):
    rows = result.rows
    counts["frequencies.table_bytes"] = max(counts.get("frequencies.table_bytes", 0), rows.nbytes)
    counts["frequencies.table_cells"] += rows.size
    counts["frequencies.table_nonzero"] += int((rows != 0.0).sum())


def _pdf_counts(counts, args, result):
    counts["frequencies.pdf_segments"] += sum(len(pdf.densities) for pdf in result)


def _verify_counts(counts, args, result):
    counts["privacy.rows_checked"] += len(args[0])


def _kendall_counts(counts, args, result):
    counts["ordinal.distinct_freqs"] += len(args[0].counts)


def _moment_row_counts(counts, args, result):
    counts["sbh.moment_rows"] += len(result.g_values)


# Counts taken from the objects a layer returns, after its span has closed.
COUNTS = {
    "frequencies.compute_pij": _table_counts,
    "frequencies.discretize_pdfs": _table_counts,
    "frequencies.compute_pdfs": _pdf_counts,
    "privacy.verify_dp": _verify_counts,
    "ordinal.expected_kendall_tau": _kendall_counts,
    "sbh.sbh_moment_table": _moment_row_counts,
}


class Tracer:
    """Records one span per wrapped call: [name, parent index, start, end]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = defaultdict(int)
        self.missing: list = []

    def wrap(self, fn):
        name = layer_name(fn)
        count = COUNTS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = process_time()
                stack.pop()
            if count is not None:
                try:
                    count(self.counts, args, result)
                except (AttributeError, TypeError, IndexError):
                    self.missing.append(f"count:{name}")
            return result

        return traced

    def install(self) -> None:
        """Wrap every name in WRAPPED; names that no longer exist are listed in ``missing``."""
        wrappers = {}
        for namespace, names in WRAPPED.items():
            module = importlib.import_module(namespace)
            for name in names:
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn):
                    self.missing.append(f"{namespace}.{name}")
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self.wrap(fn)
                setattr(module, name, wrappers[fn])

    def layers(self) -> dict:
        """Per layer: self time (span minus child spans) and call count; and the top-level total."""
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        child_s = [0.0] * len(self.spans)
        top_s = 0.0
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
            else:
                top_s += t1 - t0
        for (name, _, t0, t1), children in zip(self.spans, child_s):
            self_s[name] += (t1 - t0) - children
            calls[name] += 1
        return {"self_s": dict(self_s), "calls": dict(calls), "top_s": top_s}
