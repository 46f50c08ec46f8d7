"""The vectorised table paths against the per-cell loops they replaced.

Each oracle below is the earlier loop implementation, kept verbatim in
spirit.  The arithmetic is unchanged, so results must agree bit for bit.
"""

import csv
import io
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from privsample import FrequencyHistogram, PrivacyParams, SamplingScheme, verify_dp
from privsample.formats import fmt, read_pij_csv, write_pij_csv
from privsample.frequencies import SanitizerTable, _merged
from privsample.ordinal import concordance_matrix, expected_kendall_tau
from privsample.privacy import check_distribution

PARAMS = PrivacyParams(0.1, 0.01)
SCHEME = SamplingScheme.none()
SETTINGS = settings(deadline=None, max_examples=150)


def write_pij_csv_loop(fp, table):
    writer = csv.writer(fp)
    writer.writerow(["i", "j", "pi_ij"])
    rows = table.rows
    for i in range(rows.shape[0]):
        for j in range(rows.shape[1]):
            if j == 0 or rows[i, j] != 0.0:
                writer.writerow([i, j, fmt(rows[i, j])])


def merged_loop(atom, bounds, densities):
    keep_bounds = [float(bounds[0])]
    out_dens = []

    def flush(start_idx, end_idx):
        d0 = densities[start_idx]
        if np.all(densities[start_idx:end_idx] == d0):
            merged = float(d0)
        else:
            mass = float((densities[start_idx:end_idx] * np.diff(bounds)[start_idx:end_idx]).sum())
            merged = mass / (bounds[end_idx] - bounds[start_idx])
        out_dens.append(merged)
        keep_bounds.append(float(bounds[end_idx]))

    run_start = 0
    for k in range(1, len(densities)):
        d, d_prev = densities[k], densities[run_start]
        if abs(d - d_prev) <= 1e-12 * max(abs(d), abs(d_prev)):
            continue
        flush(run_start, k)
        run_start = k
    flush(run_start, len(densities))
    return np.array(keep_bounds), np.array(out_dens)


def kendall_tau_loop(histogram, table):
    freqs, counts = histogram.frequencies_and_counts()
    if freqs.size < 2:
        return math.nan
    conc = concordance_matrix(table.rows[freqs])
    c = counts.astype(float)
    pair_counts = np.outer(c, c)
    total_sign = 0.0
    total_pairs = 0.0
    for hi in range(1, len(freqs)):
        for lo in range(hi):
            n_pairs = pair_counts[hi, lo]
            total_sign += n_pairs * (2.0 * conc[hi, lo] - 1.0)
            total_pairs += n_pairs
    if total_pairs == 0.0:
        return math.nan
    return total_sign / total_pairs


def verify_dp_loop(rows, params):
    mat = np.asarray(rows, dtype=float)
    for row in mat:
        check_distribution(row, tol=1e-9)
    factor = math.exp(params.epsilon)
    div_up = np.maximum(mat[1:] - factor * mat[:-1], 0.0).sum(axis=1)
    div_down = np.maximum(mat[:-1] - factor * mat[1:], 0.0).sum(axis=1)
    i_up = int(np.argmax(div_up))
    i_down = int(np.argmax(div_down))
    if div_up[i_up] >= div_down[i_down]:
        return float(div_up[i_up]), (i_up, i_up + 1), "up"
    return float(div_down[i_down]), (i_down, i_down + 1), "down"


def _table(rows):
    return SanitizerTable(params=PARAMS, scheme=SCHEME, rows=rows)


# mostly zeros, as in the banded tables
sparse_cells = st.one_of(
    st.just(0.0),
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True),
)
sparse_tables = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)), elements=sparse_cells
)


@SETTINGS
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 9), st.integers(1, 9)),
        elements=st.one_of(st.just(0.0), st.just(-0.0), st.floats()),
    )
)
def test_write_pij_csv_matches_cell_loop(rows):
    new, old = io.StringIO(), io.StringIO()
    write_pij_csv(new, _table(rows))
    write_pij_csv_loop(old, _table(rows))
    assert new.getvalue() == old.getvalue()


@SETTINGS
@given(sparse_tables, st.floats(min_value=1e-300, max_value=1.0))
def test_pij_csv_round_trip_is_exact(rows, corner):
    rows[-1, -1] = corner  # the last token is emitted, so the width survives
    buf = io.StringIO()
    write_pij_csv(buf, _table(rows))
    buf.seek(0)
    back = read_pij_csv(buf)
    assert back.shape == rows.shape
    assert back.tobytes() == rows.tobytes()


@st.composite
def segmentations(draw):
    """Breakpoints and densities with exact repeats and near-equal runs."""
    n = draw(st.integers(1, 30))
    widths = draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n))
    bounds = np.concatenate(([0.0], np.cumsum(widths)))
    dens = [draw(st.floats(0.0, 1.0))]
    for _ in range(n - 1):
        how = draw(st.sampled_from(["same", "near", "new"]))
        if how == "same":
            dens.append(dens[-1])
        elif how == "near":
            dens.append(dens[-1] * (1.0 + draw(st.floats(-9e-13, 9e-13))))
        else:
            dens.append(draw(st.floats(0.0, 1.0)))
    return bounds, np.array(dens)


@SETTINGS
@given(segmentations())
@example((np.array([0.0, 1.0, 2.5, 3.0]), np.array([0.3, 0.3 * (1 + 5e-13), 0.3 * (1 - 4e-13)])))
def test_merged_matches_loop(seg):
    bounds, densities = seg
    pdf = _merged(0.25, bounds, densities)
    ref_bounds, ref_dens = merged_loop(0.25, bounds, densities)
    assert pdf.atom0 == 0.25
    assert pdf.bounds.tobytes() == ref_bounds.tobytes()
    assert pdf.densities.tobytes() == ref_dens.tobytes()


@st.composite
def stochastic_rows(draw, max_rows=12):
    m = draw(st.integers(2, max_rows))
    n = draw(st.integers(1, 8))
    raw = draw(hnp.arrays(np.float64, (m, n), elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0))))
    raw[:, 0] += 1e-3  # no empty row
    return raw / raw.sum(axis=1, keepdims=True)


@SETTINGS
@given(stochastic_rows(max_rows=40), st.data())
def test_expected_kendall_tau_matches_loop(rows, data):
    m = rows.shape[0] - 1
    freqs = data.draw(st.lists(st.integers(1, m), unique=True, max_size=m))
    counts = {f: data.draw(st.integers(1, 10_000)) for f in freqs}
    hist = FrequencyHistogram.from_counts(counts)
    got = expected_kendall_tau(hist, _table(rows))
    want = kendall_tau_loop(hist, _table(rows))
    assert got == want or (math.isnan(got) and math.isnan(want))


@SETTINGS
@given(stochastic_rows(), st.floats(0.01, 2.0), st.floats(1e-6, 1.0))
def test_verify_dp_matches_loop(rows, epsilon, delta):
    params = PrivacyParams(epsilon, delta)
    report = verify_dp(rows, params)
    worst, pair, direction = verify_dp_loop(rows, params)
    assert report.worst_divergence == worst
    assert report.worst_pair == pair
    assert report.direction == direction
