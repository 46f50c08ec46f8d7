"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import check  # noqa: E402
from run import ROOT, end_to_end, per_layer, run_ops  # noqa: E402
from worker import run_commands  # noqa: E402
from workloads import TINY, WORKLOADS, commands, make_inputs  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work():
    path = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        path.parent.rmdir()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_ops_pass_their_checks_and_report_every_metric(workload, work):
    spec, ops = run_ops(workload, 7, 0, True, work, sizes="tiny")
    assert [op["errors"] for op in ops] == [[], []]
    assert [op["traced"] for op in ops] == [False, True]

    e2e = end_to_end(spec, ops)
    assert set(e2e) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(value > 0 for value, _ in e2e.values())

    names = [m["name"] for m in BENCH["per_layer"]]
    values, residual = per_layer(ops, names)
    assert set(names) <= set(values)
    assert all(math.isfinite(v) for v in values.values())
    assert abs(residual) < 1e-9
    assert ops[1]["missing"] == []


def run_in_process(workload: str, work: Path) -> tuple[dict, Path]:
    """One tiny op run in this process; returns its spec and output directory."""
    import privsample.cli as cli

    spec = make_inputs(workload, 11, TINY, work)
    op_dir = work / "op"
    op_dir.mkdir()
    assert run_commands(cli, commands(spec, op_dir)) is None
    assert check(spec, op_dir)[0] == []
    return spec, op_dir


def test_tampered_tokens_or_a_far_estimate_fail_the_op(work):
    from privsample.frequencies import compute_pdfs, discretize_pdfs
    from privsample.privacy import PrivacyParams
    from privsample.sampling import SamplingScheme

    spec, op_dir = run_in_process("release", work)
    tokens = op_dir / "tokens.tsv"
    original = tokens.read_text()
    tokens.write_text(original + "not-an-input-key\t1\n")
    assert any("not sampled" in e for e in check(spec, op_dir)[0])

    n_tokens = discretize_pdfs(
        compute_pdfs(PrivacyParams(0.1, 0.01), SamplingScheme.ppswor(0.5), TINY.release_max_freq)
    ).n_tokens
    first, rest = original.split("\n", 1)
    key = first.split("\t")[0]
    tokens.write_text(f"{key}\t{n_tokens + 1}\n{rest}")
    assert any(f"outside 1..{n_tokens}" in e for e in check(spec, op_dir)[0])

    tokens.write_text(original)
    estimate = op_dir / "estimate.txt"
    estimate.write_text(f"{float(estimate.read_text()) * 10}\n")
    assert any("sd" in e for e in check(spec, op_dir)[0])


@pytest.mark.parametrize("workload, name, row, column", [
    ("analysis", "nrmse.csv", 5, "result"),
    ("analysis", "conc_pws.csv", 700, "concordance"),
    ("analysis", "conc_sbh.csv", 100, "concordance"),
    ("tables", "moments_alg4.csv", 30, "Var_i"),
    ("tables", "moments_alg5.csv", 30, "Bias_i"),
])
def test_one_perturbed_value_fails_the_op(workload, name, row, column, work):
    spec, op_dir = run_in_process(workload, work)
    path = op_dir / name
    lines = path.read_text().splitlines()
    c = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[c] = repr(float(cells[c]) * (1 + 1e-6) + 1e-6)  # above every tolerance
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert any(e.startswith(f"{name}: column {column}") for e in check(spec, op_dir)[0])
