"""Correctness checks of one op's outputs, run after the op's timed section.

Each check function returns ``(errors, counts)``: a list of failure messages
(empty when the op is correct) and counts read from the output files.
Released tokens are checked by invariants, never byte for byte, because
the token stream is allowed to change between versions of the program.
Exact analysis outputs are compared value by value with the outputs
recorded in ``reference.json``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import EPSILON, DELTA, Sizes

REFERENCE = Path(__file__).with_name("reference.json")

# Relative tolerance of each exact output value.  It admits re-ordered
# floating-point arithmetic: evaluating the m=2000 moments in extended
# precision moves no compared value by more than 4e-11 of itself.
REL_TOL = 1e-9

# Bias_i = E_i - g(i) carries the rounding error of E_i, so it is compared
# at the scale of E_i in the same row.
SCALE_OF = {"Bias_i": "E_i"}

# conc_pws.csv has 499,500 rows, too many to store.  Its columns are stored
# as sums over blocks of this many rows, so one concordance value may move
# by REL_TOL times its block's absolute sum (at most 5e-7) unnoticed.
BLOCK_ROWS = {"conc_pws.csv": 500}

# The unbiased alg4 coefficients come from a forward substitution that
# loses precision row by row.  At m=2000, E_i = i holds to 1e-14 in the
# first ~300 rows; later rows are rounding noise that reaches 1e40 and
# changes by orders of magnitude with any reordering of the arithmetic.
# Only the leading rows whose recorded |Bias_i| <= STABLE_BIAS * |E_i| are
# compared by value; all rows are checked for header, count, the i column
# and NaN counts.
STABLE_ONLY = ("moments_alg4.csv",)
STABLE_BIAS = 1e-14

# The MLE estimate must lie this many standard deviations from its exact
# expectation; a correct program fails this once in about 5e8 ops.
ESTIMATE_SDS = 6.0

# Output files compared with the reference, per workload.
REFERENCE_FILES = {
    "tables": ("moments_alg5.csv", "moments_alg4.csv"),
    "analysis": ("nrmse.csv", "conc_pws.csv", "conc_sbh.csv", "sweep.csv"),
}


def _read_tsv(path: Path, value_type) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            key, value = line.rstrip("\n").split("\t")
            if key in out:
                raise ValueError(f"{path.name}: duplicate key {key!r}")
            out[key] = value_type(value)
    return out


def check_release(spec: dict, op_dir: Path) -> tuple[list, dict]:
    from privsample.estimators import g_power, mle_coeffs, moments_by_frequency, statistic_moments
    from privsample.frequencies import compute_pdfs, discretize_pdfs
    from privsample.keys import compute_pi
    from privsample.privacy import PrivacyParams
    from privsample.sampling import FrequencyHistogram, SamplingScheme
    from privsample.sbh import SbhConfig

    s = Sizes(**spec["sizes"])
    errors = []
    hist = _read_tsv(Path(spec["histogram"]), int)
    sample = _read_tsv(op_dir / "sample.tsv", int)
    with open(op_dir / "keys.txt", encoding="utf-8") as fp:
        reported = [line.rstrip("\n") for line in fp]
    tokens = _read_tsv(op_dir / "tokens.tsv", int)
    baseline = _read_tsv(op_dir / "baseline.tsv", float)
    estimate = float((op_dir / "estimate.txt").read_text().strip())

    if any(hist.get(k) != f for k, f in sample.items()):
        errors.append("sample: a key is not in the input or its frequency changed")
    if not set(reported) <= sample.keys() or len(set(reported)) != len(reported):
        errors.append("sanitize keys: reported keys are not distinct sampled keys")
    if not tokens.keys() <= sample.keys():
        errors.append("sanitize freqs: a token was released for a key that was not sampled")

    params = PrivacyParams(float(EPSILON), float(DELTA))
    scheme = SamplingScheme.ppswor(0.5)
    m = s.release_max_freq
    table = discretize_pdfs(compute_pdfs(params, scheme, m))
    bad = [t for t in tokens.values() if not 1 <= t <= table.n_tokens]
    if bad:
        errors.append(f"sanitize freqs: {len(bad)} tokens outside 1..{table.n_tokens}")

    g = g_power(1.0)
    moments = moments_by_frequency(table, mle_coeffs(table, compute_pi(params, scheme, m), g), g)
    exact = statistic_moments(FrequencyHistogram.from_keys(hist), moments)
    expectation = exact.statistic + exact.bias
    sd = math.sqrt(exact.variance)
    if not abs(estimate - expectation) <= ESTIMATE_SDS * sd:
        errors.append(f"estimate {estimate} is more than {ESTIMATE_SDS} sd ({sd}) from {expectation}")

    T = SbhConfig(params).threshold
    if not baseline.keys() <= hist.keys():
        errors.append("baseline: output holds a key that is not in the input")
    if any(not v >= T for v in baseline.values()):
        errors.append(f"baseline: a released value lies below the threshold {T}")

    counts = {
        "sampling.sampled_ratio": len(sample) / len(hist),
        "keys.reported_ratio": len(reported) / max(1, len(sample)),
        "frequencies.token_reported_ratio": len(tokens) / max(1, len(sample)),
    }
    return errors, counts


def read_columns(path: Path) -> tuple[list, dict]:
    """A CSV's header and its columns, each parsed as integers, reals or labels."""
    with open(path, newline="", encoding="utf-8") as fp:
        reader = csv.reader(fp)
        header = next(reader)
        rows = [r for r in reader if r]
    columns = {}
    for c, name in enumerate(header):
        values = [r[c] for r in rows]
        for kind in (int, float):
            try:
                values = [kind(v) for v in values]
                break
            except ValueError:
                pass
        columns[name] = values
    return header, columns


def _nan_counts(columns: dict) -> dict:
    return {c: sum(map(math.isnan, v)) for c, v in columns.items() if v and isinstance(v[0], float)}


def _blocks(values: list, block: int) -> list:
    """The values themselves, or per block of rows an exact integer sum or a real [sum, abs sum]."""
    if block == 1:
        return values
    out = []
    for start in range(0, len(values), block):
        part = values[start:start + block]
        out.append(sum(part) if isinstance(part[0], int)
                   else [math.fsum(part), math.fsum(map(abs, part))])
    return out


def summarize(name: str, path: Path) -> dict:
    """The reference form of one output CSV (see the notes on the constants above)."""
    header, columns = read_columns(path)
    n = len(columns[header[0]])
    compared = n
    if name in STABLE_ONLY:
        bias, e = columns["Bias_i"], columns["E_i"]
        compared = next((r for r in range(n) if not abs(bias[r]) <= STABLE_BIAS * abs(e[r])), n)
    block = BLOCK_ROWS.get(name, 1)
    return {
        "header": header, "rows": n, "block": block, "nan": _nan_counts(columns),
        "columns": {c: _blocks(v if isinstance(v[0], int) else v[:compared], block)
                    for c, v in columns.items()},
    }


def _same(got, want, scale: float = 0.0) -> bool:
    if isinstance(want, list):  # a block of reals: [sum, abs sum]
        return _same(got[0], want[0], want[1])
    if isinstance(want, float):
        if math.isnan(want):
            return isinstance(got, float) and math.isnan(got)
        return isinstance(got, (int, float)) and abs(got - want) <= REL_TOL * max(abs(want), abs(scale))
    return got == want


def csv_mismatch(path: Path, ref: dict) -> str | None:
    """Compare one output CSV with its reference form; a message, or None when it matches."""
    header, columns = read_columns(path)
    n = len(columns[header[0]]) if header else 0
    if header != ref["header"] or n != ref["rows"]:
        return f"header or row count {header} x {n} != {ref['header']} x {ref['rows']}"
    if _nan_counts(columns) != ref["nan"]:
        return f"NaN counts {_nan_counts(columns)} != {ref['nan']}"
    block = ref["block"]
    for c, want in ref["columns"].items():
        # only the stored rows are compared; see STABLE_ONLY
        got = _blocks(columns[c][:len(want) * block], block)
        scales = columns[SCALE_OF[c]] if c in SCALE_OF and block == 1 else [0.0] * len(want)
        for r, (g, w, scale) in enumerate(zip(got, want, scales)):
            if not _same(g, w, scale):
                where = f"row {r + 1}" if block == 1 else f"rows {r * block + 1}..{(r + 1) * block}"
                return f"column {c}, {where}: {g!r} != {w!r}"
    return None


def _verify_line(path: Path) -> dict:
    """Verdict and worst divergence from a `verify-dp` stdout line."""
    fields = path.read_text().split()
    return {"verdict": fields[1], "worst_divergence": float(fields[2].split("=", 1)[1])}


def _scalars(workload: str, op_dir: Path) -> dict:
    """The verify-dp verdicts (tables) or the kendall_tau line (analysis)."""
    if workload == "tables":
        return {f"verify_{table}": _verify_line(op_dir / f"verify_{table}.txt") for table in ("alg5", "alg4")}
    label, value = (op_dir / "kendall.txt").read_text().strip().split(",")
    return {"kendall_tau": {"label": label, "value": float(value)}}


def exact_outputs(workload: str, op_dir: Path) -> dict:
    """The op's exact outputs, in the form stored in ``reference.json``."""
    out = {name: summarize(name, op_dir / name) for name in REFERENCE_FILES[workload]}
    return {**out, **_scalars(workload, op_dir)}


def compare_exact(workload: str, op_dir: Path, ref: dict) -> list:
    errors = []
    scalars = _scalars(workload, op_dir)
    for name, r in ref.items():
        if "columns" in r:
            msg = csv_mismatch(op_dir / name, r)
            if msg:
                errors.append(f"{name}: {msg}")
            continue
        g = scalars[name]
        if "verdict" in r:
            ok = g["verdict"] == r["verdict"] and _same(g["worst_divergence"], r["worst_divergence"])
        else:
            ok = g["label"] == r["label"] and _same(g["value"], r["value"])
        if not ok:
            errors.append(f"{name}: {g} != {r}")
    return errors


def check(spec: dict, op_dir: Path) -> tuple[list, dict]:
    """Check one op.  Returns (errors, counts)."""
    workload = spec["workload"]
    if workload == "release":
        return check_release(spec, op_dir)
    ref = json.loads(REFERENCE.read_text())[spec["sizes"]["name"]][workload]
    return compare_exact(workload, op_dir, ref), {}
