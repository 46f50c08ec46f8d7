"""The vectorised table paths, the batched per-key draws and the block writers
against the loops they replaced.

Each oracle below is the earlier loop implementation, kept verbatim in
spirit.  The arithmetic is unchanged, so results must agree bit for bit,
and the file writers byte for byte.
"""

import csv
import hashlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import (
    bands,
    dense,
    from_entries,
    table_from_dense,
    verify_dp_dense,
    write_concordance_csv_ref,
    write_key_lines_ref,
    write_keyed_tsv_ref,
    write_moments_csv_ref,
    write_pdf_atoms_csv_ref,
    write_pdf_segments_csv_ref,
    write_pi_csv_ref,
    write_pij_csv_ref,
    write_sweep_csv_ref,
)

from privsample import (
    FrequencyHistogram,
    MomentTable,
    PdfFamily,
    PiecewisePdf,
    PrivacyParams,
    SamplingScheme,
    SanitizerTable,
    SbhConfig,
    SweepRow,
    TokenBands,
    WeightedSample,
    compute_pdfs,
    compute_pi,
    compute_pij,
    discretize_pdfs,
    draw_sample,
    sampled_sbh,
    sanitize_frequencies,
    sanitize_keys,
    verify_dp,
)
from privsample._rng import (
    CHUNK,
    PURPOSE_KEEP,
    PURPOSE_LAPLACE,
    PURPOSE_SAMPLE,
    PURPOSE_TOKEN,
    key_uniforms,
)
from privsample.experiments import NRMSE_METHODS, REPORTING_METHODS
from privsample.formats import (
    _BLOCK,
    read_pij_csv,
    write_concordance_csv,
    write_key_lines,
    write_keyed_tsv,
    write_moments_csv,
    write_pdf_atoms_csv,
    write_pdf_segments_csv,
    write_pi_csv,
    write_pij_csv,
    write_sweep_csv,
)
from privsample.frequencies import _merged, _split_at
from privsample.ordinal import concordance_matrix, expected_kendall_tau
from privsample.sbh import _exp_segments_integral

PARAMS = PrivacyParams(0.1, 0.01)
SCHEME = SamplingScheme.none()
SETTINGS = settings(deadline=None, max_examples=150)


def merged_loop(atom, bounds, densities):
    # runs of exactly equal density merge; near-equal ones stay apart
    keep_bounds = [float(bounds[0])]
    out_dens = []

    def flush(start_idx, end_idx):
        out_dens.append(float(densities[start_idx]))
        keep_bounds.append(float(bounds[end_idx]))

    run_start = 0
    for k in range(1, len(densities)):
        if densities[k] == densities[run_start]:
            continue
        flush(run_start, k)
        run_start = k
    flush(run_start, len(densities))
    return np.array(keep_bounds), np.array(out_dens)


def kendall_tau_loop(histogram, table):
    freqs = np.array(sorted(histogram.counts), dtype=int)
    if freqs.size < 2:
        return math.nan
    conc = concordance_matrix(table)[np.ix_(freqs, freqs)]
    c = np.array([histogram.counts[f] for f in freqs.tolist()], dtype=float)
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


def _table(rows):
    return table_from_dense(rows, compute_pi(PARAMS, SCHEME, max(1, len(rows) - 1)))


# Row counts at the edges of a block of lines, and a few small ones.
N_ROWS = st.sampled_from([0, 1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
SPECIAL_REALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308]
reals = st.one_of(st.floats(), st.sampled_from(SPECIAL_REALS))
real_scalars = st.one_of(reals, reals.map(np.float64))
counts = st.one_of(st.integers(0, 2**62), st.integers(0, 2**62).map(np.int64))
labels = st.text(max_size=6)


@st.composite
def columns(draw, *elements):
    """One list per element strategy, each N_ROWS long.

    Each column cycles through a few drawn values, so that bodies of a few
    thousand rows stay cheap to draw.
    """
    n = draw(N_ROWS)
    out = []
    for elements_of in elements:
        pool = draw(st.lists(elements_of, min_size=1, max_size=7))
        out.append([pool[k % len(pool)] for k in range(n)])
    return out


def assert_same_bytes(write, write_ref, *args, **kwargs):
    new, old = io.StringIO(), io.StringIO()
    write(new, *args, **kwargs)
    write_ref(old, *args, **kwargs)
    got, want = new.getvalue().splitlines(True), old.getvalue().splitlines(True)
    if got != want:
        # name the first differing line: a full diff of thousands of lines takes minutes
        k = next((k for k, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                 min(len(got), len(want)))
        pytest.fail(f"line {k}: wrote {got[k:k + 1]}, the reference wrote {want[k:k + 1]}")


# mostly zeros, as in the banded tables
sparse_cells = st.one_of(
    st.just(0.0),
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True),
)
sparse_tables = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)), elements=sparse_cells
)


pij_cells = st.one_of(st.just(0.0), st.just(-0.0), st.floats())


@st.composite
def pij_tables(draw, cells):
    """Bands of ``width`` tokens over as many rows as fill one block of pij
    cells (``_BLOCK // (width + 1)`` rows), one less or one more, or two
    blocks and a row; the cells cycle through a few drawn values."""
    width = draw(st.integers(0, 9))
    step = _BLOCK // (width + 1)
    n = draw(st.sampled_from([1, step - 1, step, step + 1, 2 * step + 1]))
    n_tokens = max(width, 1) + draw(st.integers(0, 3))
    pool = draw(st.lists(cells, min_size=1, max_size=7))
    values = np.array([pool[k % len(pool)] for k in range(n * (width + 1))]).reshape(n, width + 1)
    first = np.array([1 + k % (n_tokens - width + 1) for k in range(n)])
    return TokenBands(atom0=values[:, 0].copy(), first=first, rows=values[:, 1:].copy(),
                      n_tokens=n_tokens)


@SETTINGS
@given(
    st.one_of(
        hnp.arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)), elements=pij_cells),
        # one row of tokens, whose nonzero cells and token 0 fill 0 to 2B+1 lines
        columns(pij_cells).map(lambda cols: np.array([cols[0] or [0.0]])),
    )
)
def test_write_pij_csv_matches_cell_loop(rows):
    assert_same_bytes(lambda fp, rows: write_pij_csv(fp, bands(rows)), write_pij_csv_ref, rows)


@SETTINGS
@given(pij_tables(pij_cells))
def test_write_pij_csv_matches_cell_loop_across_blocks(table):
    # the table's own bands, so each block holds exactly _BLOCK // (width + 1) rows
    assert_same_bytes(write_pij_csv, lambda fp, table: write_pij_csv_ref(fp, dense(table)), table)


@SETTINGS
@given(sparse_tables, st.floats(min_value=1e-300, max_value=1.0))
def test_pij_csv_round_trip_is_exact(rows, corner):
    rows[-1, -1] = corner  # the last token is emitted, so the width survives
    buf = io.StringIO()
    write_pij_csv(buf, _table(rows))
    buf.seek(0)
    back = dense(read_pij_csv(buf))
    assert back.shape == rows.shape
    assert back.tobytes() == rows.tobytes()


def read_pij_csv_ref(fp):
    """The entries of an `i,j,pi_ij` export, packed into bands."""
    entries = [(int(i), int(j), float(v)) for i, j, v in list(csv.reader(fp))[1:]]
    i, j, v = (np.array(col) for col in zip(*entries))
    atom0 = np.zeros(i.max() + 1)
    atom0[i[j == 0]] = v[j == 0]
    return from_entries(TokenBands, atom0, i[j > 0], j[j > 0], v[j > 0], int(j.max()))


@SETTINGS
@given(pij_tables(sparse_cells))
def test_read_pij_csv_matches_the_entry_list_across_blocks(table):
    buf = io.StringIO()
    write_pij_csv(buf, table)
    buf.seek(0)
    got = read_pij_csv(buf)
    buf.seek(0)
    want = read_pij_csv_ref(buf)
    assert got.n_tokens == want.n_tokens
    for name in ("atom0", "first", "rows"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 8), sparse_cells), min_size=1,
                max_size=40, unique_by=lambda entry: entry[:2]))
def test_read_pij_csv_matches_the_entry_list_in_any_order(entries):
    # hand-written files: any order, zeros on and off the bands, rows or token 0 missing
    text = "i,j,pi_ij\r\n" + "".join(f"{i},{j},{v!r}\r\n" for i, j, v in entries)
    got, want = read_pij_csv(io.StringIO(text)), read_pij_csv_ref(io.StringIO(text))
    assert got.n_tokens == want.n_tokens
    for name in ("atom0", "first", "rows"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@SETTINGS
@given(columns(labels, st.one_of(counts, real_scalars)), columns(labels, real_scalars))
def test_write_keyed_tsv_matches_lines(int_cols, real_cols):
    for cols, float_values in ((int_cols, False), (real_cols, True)):
        pairs = {f"{key}{n}": value for n, (key, value) in enumerate(zip(*cols))}
        assert_same_bytes(write_keyed_tsv, write_keyed_tsv_ref, pairs, float_values=float_values)


@SETTINGS
@given(columns(labels))
def test_write_key_lines_matches_lines(cols):
    assert_same_bytes(write_key_lines, write_key_lines_ref, cols[0])


@SETTINGS
@given(columns(reals, reals))
def test_write_pi_csv_matches_csv_writer(cols):
    q, pi = (np.array([1.0, *col]) for col in cols)
    with np.errstate(all="ignore"):  # p_i = pi_i / q_i of drawn infinities and NaN
        rv = SanitizerTable(atom0=1.0 - pi, first=np.ones(len(pi), dtype=np.int64),
                            rows=pi[:, None], n_tokens=1, params=PARAMS, scheme=SCHEME, q=q, pi=pi)
        assert_same_bytes(write_pi_csv, write_pi_csv_ref, rv)


@SETTINGS
@given(columns(reals, reals), st.data())
def test_write_pdf_segments_csv_matches_csv_writer(cols, data):
    bounds, densities = np.array([0.0, *cols[0]]), np.array(cols[1])
    cut = data.draw(st.integers(0, len(densities)))
    pdfs = (PiecewisePdf(1.0, bounds[: cut + 1], densities[:cut]),
            PiecewisePdf(0.5, bounds[cut:], densities[cut:]))
    family = PdfFamily(compute_pi(PARAMS, SCHEME, 1), pdfs)
    assert_same_bytes(write_pdf_segments_csv, write_pdf_segments_csv_ref, family)


@SETTINGS
@given(columns(real_scalars))
def test_write_pdf_atoms_csv_matches_csv_writer(cols):
    empty = np.zeros(0)
    pdfs = tuple(PiecewisePdf(atom0, empty, empty) for atom0 in cols[0])
    family = PdfFamily(compute_pi(PARAMS, SCHEME, 1), pdfs)
    assert_same_bytes(write_pdf_atoms_csv, write_pdf_atoms_csv_ref, family)


@SETTINGS
@given(columns(st.sampled_from(["tau", "delta"]), real_scalars,
               st.sampled_from(sorted({*REPORTING_METHODS, *NRMSE_METHODS})),
               st.sampled_from(["reported_fraction", "nrmse"]), real_scalars))
def test_write_sweep_csv_matches_csv_writer(cols):
    rows = [SweepRow(*fields) for fields in zip(*cols)]
    assert_same_bytes(write_sweep_csv, write_sweep_csv_ref, rows)


@st.composite
def concordance_matrices(draw):
    """Square matrices whose strict lower triangle past column 0 fills 0 to 2B+1 lines."""
    n = draw(st.sampled_from([0, 1, 2, 3, 9, 46, 47, 48]))  # 47 rows hold 1035 pairs
    pool = draw(st.lists(reals, min_size=1, max_size=7))
    return np.array([pool[k % len(pool)] for k in range(n * n)], dtype=float).reshape(n, n)


@SETTINGS
@given(concordance_matrices())
def test_write_concordance_csv_matches_csv_writer(conc):
    pairs = [(i1, i2, conc[i1, i2]) for i1 in range(len(conc)) for i2 in range(1, i1)]
    assert_same_bytes(lambda fp, _: write_concordance_csv(fp, conc), write_concordance_csv_ref,
                      pairs)


@SETTINGS
@given(columns(reals, reals, reals))
def test_write_moments_csv_matches_csv_writer(cols):
    g, expectation, mse = (np.array([0.0, *col]) for col in cols)
    table = MomentTable(g, expectation, mse)
    with np.errstate(all="ignore"):  # the derived bias and variance may overflow
        assert_same_bytes(write_moments_csv, write_moments_csv_ref, table)


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
def stochastic_rows(draw, max_rows=12, absent_first=False):
    """Random probability rows; with ``absent_first``, row 0 is the absent-key law."""
    m = draw(st.integers(2, max_rows))
    n = draw(st.integers(1, 8))
    raw = draw(hnp.arrays(np.float64, (m, n), elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0))))
    raw[:, 0] += 1e-3  # no empty row
    rows = raw / raw.sum(axis=1, keepdims=True)
    if absent_first:
        rows[0] = 0.0
        rows[0, 0] = 1.0
    return rows


@SETTINGS
@given(stochastic_rows(max_rows=40), st.data())
def test_expected_kendall_tau_matches_loop(rows, data):
    m = rows.shape[0] - 1
    # a histogram holds a key; one frequency alone (tau NaN) is still drawn
    freqs = data.draw(st.lists(st.integers(1, m), unique=True, min_size=1, max_size=m))
    counts = {f: data.draw(st.integers(1, 10_000)) for f in freqs}
    hist = FrequencyHistogram.from_counts(counts)
    got = expected_kendall_tau(hist, concordance_matrix(_table(rows)))
    want = kendall_tau_loop(hist, _table(rows))
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_expected_kendall_tau_matches_loop_over_blocks():
    # 600 distinct frequencies: the pairs are summed in several blocks of rows
    raw = np.random.default_rng(5).random((601, 8))
    rows = raw / raw.sum(axis=1, keepdims=True)
    hist = FrequencyHistogram.from_counts({f: f % 13 + 1 for f in range(1, 601)})
    got = expected_kendall_tau(hist, concordance_matrix(_table(rows)))
    assert got == kendall_tau_loop(hist, _table(rows))


@SETTINGS
@given(stochastic_rows(absent_first=True), st.floats(0.01, 2.0), st.floats(1e-6, 1.0))
def test_verify_dp_matches_loop(rows, epsilon, delta):
    # the window sums run in another order: the same verdict, the same
    # worst value to rounding, and the pair found worst is worst to rounding
    params = PrivacyParams(epsilon, delta)
    report = verify_dp(bands(rows), params)
    want = verify_dp_dense(rows, params)
    if abs(want.worst_divergence - (delta + 1e-12)) > 1e-12 * want.worst_divergence:
        assert report.ok == want.ok
    assert report.worst_divergence == pytest.approx(want.worst_divergence, rel=1e-12, abs=1e-300)
    i = report.worst_pair[0]
    p, q = (rows[i + 1], rows[i]) if report.direction == "up" else (rows[i], rows[i + 1])
    at_pair = float(np.maximum(p - math.exp(epsilon) * q, 0.0).sum())
    assert at_pair == pytest.approx(want.worst_divergence, rel=1e-12, abs=1e-300)


def split_at_insert(bounds, densities, z):
    k = int(np.searchsorted(bounds, z))
    if k < len(bounds) and bounds[k] == z:
        return bounds, densities
    return np.insert(bounds, k, z), np.insert(densities, k, densities[k - 1])


@SETTINGS
@given(segmentations(), st.floats(0.0, 1.0))
def test_split_at_matches_insert(seg, where):
    bounds, densities = seg
    z = float(bounds[0] + where * (bounds[-1] - bounds[0]))
    if not bounds[0] < z < bounds[-1]:
        return
    got_bounds, got_dens = _split_at(bounds, densities, z)
    ref_bounds, ref_dens = split_at_insert(bounds, densities, z)
    assert got_bounds.tobytes() == ref_bounds.tobytes()
    assert got_dens.tobytes() == ref_dens.tobytes()


# ---------------------------------------------------------------- per-key draws
#
# The scalar draws and the per-key loops that called them, one fresh keyed
# blake2b per key; the package now draws a batch from one copied state.


def key_uniform_loop(seed, key, purpose):
    h = hashlib.blake2b(
        key.encode("utf-8"),
        digest_size=8,
        key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"),
        person=purpose,
    )
    bits = int.from_bytes(h.digest(), "little") >> 11
    return min((bits + 0.5) / float(1 << 53), math.nextafter(1.0, 0.0))


def key_laplace_loop(seed, key, purpose, scale):
    u = key_uniform_loop(seed, key, purpose) - 0.5
    return -scale * math.copysign(math.log1p(-2.0 * abs(u)), u)


def includes_loop(scheme, seed, key, w):
    return key_uniform_loop(seed, key, PURPOSE_SAMPLE) < scheme.inclusion_probs([w])[0]


def draw_sample_loop(by_key, scheme, seed):
    if scheme.kind == "none":
        return dict(by_key)
    return {key: freq for key, freq in by_key.items() if includes_loop(scheme, seed, key, freq)}


def sampled_q_loop(rv, freq):
    if not 1 <= freq <= rv.max_frequency:
        raise ValueError(
            f"frequency {freq} outside table range 1..{rv.max_frequency}; "
            "rebuild the table with a larger max_frequency"
        )
    q_w = float(rv.q[freq])
    if q_w <= 0.0:
        raise ValueError(
            f"q_{freq} = 0 but a sampled key with frequency {freq} exists; "
            "input is corrupt"
        )
    return q_w


def sanitize_keys_loop(pairs, rv, seed):
    kept = []
    for key, freq in pairs.items():
        q_w = sampled_q_loop(rv, freq)
        p = float(rv.pi[freq]) / q_w
        if key_uniform_loop(seed, key, PURPOSE_KEEP) < p:
            kept.append(key)
    return kept


def sanitize_frequencies_loop(pairs, table, seed):
    cum_by_freq = {}
    out = {}
    for key, freq in pairs.items():
        q_w = sampled_q_loop(table, freq)
        cum = cum_by_freq.get(freq)
        if cum is None:
            cond = dense(table)[freq] / q_w
            cond[0] = max(0.0, 1.0 - float(cond[1:].sum()))
            cum = np.cumsum(cond)
            cum_by_freq[freq] = cum
        u = key_uniform_loop(seed, key, PURPOSE_TOKEN)
        token = int(np.searchsorted(cum, u, side="right"))
        if token == len(cum):  # above the row's total: its highest nonzero token
            token = int(np.flatnonzero(cum[1:] > cum[:-1])[-1]) + 1
        if token > 0:
            out[key] = token
    return out


def sbh_sanitize_loop(by_key, config, seed):
    eps = config.params.epsilon
    T = config.threshold
    out = {}
    for key, freq in by_key.items():
        if freq <= 0:
            raise ValueError(f"frequencies must be positive, got {freq} for key {key!r}")
        noised = freq + key_laplace_loop(seed, key, PURPOSE_LAPLACE, 1.0 / eps)
        if noised >= T:
            out[key] = noised
    return out


def sampled_sbh_loop(by_key, config, scheme, seed):
    noised = sbh_sanitize_loop(by_key, config, seed)
    return {key: w for key, w in noised.items() if includes_loop(scheme, seed, key, w)}


PURPOSES = [PURPOSE_SAMPLE, PURPOSE_KEEP, PURPOSE_TOKEN, PURPOSE_LAPLACE]
SCHEMES = [SamplingScheme.ppswor(0.05), SamplingScheme.pps(0.2, power=0.5), SamplingScheme.none()]
MAX_FREQ = 60
BASELINE = SbhConfig(PrivacyParams(0.5, 0.01))  # threshold ~10.2, inside 1..MAX_FREQ

# seeds wider than 64 bits on both sides: the draw takes them modulo 2**64
seeds = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(-(2**70), -1),
    st.integers(2**64, 2**72),
)
# any text UTF-8 can encode (no lone surrogates), the empty key and long keys
key_text = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.text("ab\u00e9\u4e2d\U0001f600", min_size=100, max_size=400),
)


def _keys(n):
    return [f"k{i}" for i in range(n)]


@SETTINGS
@given(seeds, st.lists(key_text, max_size=40), st.sampled_from(PURPOSES))
@example(0, ["", "\u00e9\u00e8", "\U0001f600", "x" * 300], PURPOSE_SAMPLE)
def test_key_uniforms_match_scalar(seed, keys, purpose):
    assert list(key_uniforms(seed, keys, purpose)) == [
        key_uniform_loop(seed, key, purpose) for key in keys
    ]


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_key_uniforms_batch_sizes(n):
    keys = _keys(n)
    for purpose in PURPOSES:
        assert list(key_uniforms(-3, keys, purpose)) == [
            key_uniform_loop(-3, key, purpose) for key in keys
        ]


_tables = {}


def _tables_for(scheme):
    """The alg4 and alg5 tables for one scheme, built once per session."""
    if scheme not in _tables:
        _tables[scheme] = (
            compute_pij(PARAMS, scheme, MAX_FREQ),
            discretize_pdfs(compute_pdfs(PARAMS, scheme, MAX_FREQ)),
        )
    return _tables[scheme]


def _assert_per_key_path_matches(by_key, scheme, seed):
    """Every per-key stage against its loop, in order and value."""
    sample = draw_sample(by_key, scheme, seed)
    ref_pairs = draw_sample_loop(by_key, scheme, seed)
    assert list(sample.pairs.items()) == list(ref_pairs.items())

    rv = compute_pi(PARAMS, scheme, MAX_FREQ)
    assert sanitize_keys(sample, rv, seed) == sanitize_keys_loop(ref_pairs, rv, seed)
    for table in _tables_for(scheme):
        got = sanitize_frequencies(sample, table, seed)
        assert list(got.items()) == list(sanitize_frequencies_loop(ref_pairs, table, seed).items())

    got = sampled_sbh(by_key, BASELINE, SamplingScheme.none(), seed)
    assert list(got.items()) == list(sbh_sanitize_loop(by_key, BASELINE, seed).items())
    got = sampled_sbh(by_key, BASELINE, scheme, seed)
    assert list(got.items()) == list(sampled_sbh_loop(by_key, BASELINE, scheme, seed).items())


@SETTINGS
@given(
    st.dictionaries(key_text, st.integers(1, MAX_FREQ), max_size=60),
    st.sampled_from(SCHEMES),
    seeds,
)
def test_per_key_path_matches_loops(by_key, scheme, seed):
    _assert_per_key_path_matches(by_key, scheme, seed)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: f"{s.kind}-{s.power}")
@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_per_key_path_batch_sizes(n, scheme):
    by_key = {key: 1 + i % MAX_FREQ for i, key in enumerate(_keys(n))}
    _assert_per_key_path_matches(by_key, scheme, 2**64 + 11)


@pytest.mark.parametrize("freq", [0, MAX_FREQ + 1])
def test_per_key_errors_match_loops(freq):
    # the first out-of-range key raises the loop's error, after valid keys
    pairs = {"a": 3, "b": freq, "c": MAX_FREQ + 5}
    scheme = SCHEMES[0]
    sample = WeightedSample(pairs=pairs, scheme=scheme)
    rv = compute_pi(PARAMS, scheme, MAX_FREQ)
    with pytest.raises(ValueError) as want:
        sanitize_keys_loop(pairs, rv, 1)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        sanitize_keys(sample, rv, 1)
    for table in _tables_for(scheme):
        with pytest.raises(ValueError) as want:
            sanitize_frequencies_loop(pairs, table, 1)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            sanitize_frequencies(sample, table, 1)


# The baseline's pair integral as it was written with one closure per term.
def exp_segments_integral_closures(eps: float, T: float, i_hi: float, i_lo: float) -> float:
    """P[noised(i_hi) > noised(i_lo), both kept] by piecewise closed form.

    Integrates density(i_lo at b) * survival(i_hi above b) over b in [T, inf).
    On each segment between the cutpoints {i_lo, i_hi} every factor is a
    single exponential with non-positive exponent at the endpoints, so each
    term integrates in closed form without overflow.
    """
    cuts = sorted({c for c in (i_lo, i_hi) if c > T})
    edges = [T, *cuts, math.inf]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        below2 = hi <= i_lo  # density side of the lower-frequency law
        below1 = hi <= i_hi  # survival side of the higher-frequency law
        r2 = eps if below2 else -eps
        # terms: (coef, rate, exponent base at point b)
        terms = []
        if below1:
            terms.append((0.5 * eps, r2, lambda b, r2=r2: r2 * (b - i_lo)))
            terms.append(
                (
                    -0.25 * eps,
                    r2 + eps,
                    lambda b, r2=r2: r2 * (b - i_lo) + eps * (b - i_hi),
                )
            )
        else:
            terms.append(
                (
                    0.25 * eps,
                    r2 - eps,
                    lambda b, r2=r2: r2 * (b - i_lo) - eps * (b - i_hi),
                )
            )
        for coef, rate, expo in terms:
            if math.isinf(hi):
                total += -coef * math.exp(expo(lo)) / rate
            elif rate == 0.0:
                total += coef * math.exp(expo(lo)) * (hi - lo)
            else:
                total += coef * (math.exp(expo(hi)) - math.exp(expo(lo))) / rate
    return total


@st.composite
def integral_args(draw):
    """(eps, T, i_hi, i_lo) over frequencies 1..3000, ties and values near T."""
    eps = draw(st.floats(1e-3, 10.0))
    T = SbhConfig(PrivacyParams(eps, draw(st.floats(1e-12, 0.8)))).threshold
    freqs = st.one_of(st.integers(1, 3000),
                      st.integers(-3, 3).map(lambda d: max(1, math.floor(T) + d)))
    i_hi = draw(freqs)
    i_lo = draw(st.one_of(freqs, st.just(i_hi)))
    return eps, T, float(i_hi), float(i_lo)


@settings(deadline=None, max_examples=1000)
@given(integral_args())
@example((0.5, BASELINE.threshold, 7.0, 7.0))  # a tie below T
@example((0.5, BASELINE.threshold, 40.0, 40.0))  # a tie above T
@example((0.5, BASELINE.threshold, 40.0, 3.0))  # one on each side of T
def test_exp_segments_integral_matches_closures(args):
    eps, T, a, b = args
    for i_hi, i_lo in ((a, b), (b, a)):
        got = _exp_segments_integral(eps, T, i_hi, i_lo)
        want = exp_segments_integral_closures(eps, T, i_hi, i_lo)
        assert got.hex() == want.hex()
