"""Banded token tables against the dense rows they replace.

The library stores each table as one fixed-width band per row
(``TokenBands``).  The dense constructors, the dense DP oracle and the
dense coefficient and moment formulas in ``oracles.py`` are the reference:
table entries, ``pij`` CSV bytes and coefficients must match them bit for
bit, and the reductions whose summation order changed (the worst
divergence, the moments) must match them within 1e-12.
"""

import io
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    bands,
    compute_pij_dense,
    discretize_pdfs_dense,
    hockey_stick,
    mle_coeffs_dense,
    moments_dense,
    table_from_dense,
    table_laws,
    unbiased_coeffs_dense,
    verify_dp_dense,
    write_pij_csv_ref,
)

from privsample import (
    PrivacyParams,
    SamplingScheme,
    TokenBands,
    WeightedSample,
    compute_pdfs,
    compute_pi,
    compute_pij,
    discretize_pdfs,
    g_identity,
    g_power,
    mle_coeffs,
    moments_by_frequency,
    sanitize_frequencies,
    unbiased_coeffs,
    verify_dp,
)
from privsample._rng import _uniforms
from privsample.formats import read_pij_csv, write_pij_csv
from privsample.privacy import DELTA_SLACK, _pair_divergences


def _csv(write, table):
    buf = io.StringIO()
    write(buf, table)
    return buf.getvalue()


def _assert_moments_close(table, rows, coeffs, g):
    """Moments within 1e-12 of the scale of the terms each one sums."""
    got, want = moments_by_frequency(table, coeffs, g), moments_dense(rows, coeffs, g)
    reported, a, gv = rows[:, 1:], np.abs(coeffs.values[1:]), want.g_values
    first = reported @ a
    second = rows[:, 0] * gv**2 + reported @ a**2 + 2.0 * gv * first + reported.sum(axis=1) * gv**2
    for name, scale in [("expectation", first), ("bias", first), ("mse", second),
                        ("variance", second)]:
        diff = np.abs(getattr(got, name) - getattr(want, name))
        assert np.all(diff <= 1e-12 * scale), name


@settings(deadline=None, max_examples=60)
@given(table_laws())
def test_bands_match_dense(law):
    params, scheme, m = law
    family = compute_pdfs(params, scheme, m)
    built = [
        (compute_pij(params, scheme, m), compute_pij_dense(params, scheme, m)),
        (discretize_pdfs(family), discretize_pdfs_dense(family)),
    ]
    for table, rows in built:
        assert table.dense().tobytes() == rows.tobytes()
        assert _csv(write_pij_csv, table) == _csv(write_pij_csv_ref, rows)

        report, want = verify_dp(table, params), verify_dp_dense(rows, params)
        assert report.ok == want.ok
        assert report.worst_divergence == pytest.approx(want.worst_divergence, rel=1e-12)

        for g in (g_identity, g_power(0.5)):
            coeffs = mle_coeffs(table, table.reporting, g)
            ref = mle_coeffs_dense(rows, table.reporting, g)
            assert coeffs.values.tobytes() == ref.values.tobytes()
            assert np.array_equal(coeffs.defined, ref.defined)
            _assert_moments_close(table, rows, coeffs, g)

    table, rows = built[0]
    if np.all(np.diagonal(rows)[1:] > 0.0):
        with np.errstate(all="ignore"):  # the exact coefficients may overflow
            got, ref = unbiased_coeffs(table, g_identity), unbiased_coeffs_dense(rows, g_identity)
        assert got.values.tobytes() == ref.values.tobytes()
    else:
        with pytest.raises(ValueError, match="zero diagonal"):
            unbiased_coeffs(table, g_identity)


def test_tables_are_banded():
    # the band is about 2L wide, not m + 1
    params, scheme = PrivacyParams(0.1, 0.01), SamplingScheme.ppswor(0.01)
    t4 = compute_pij(params, scheme, 600)
    t5 = discretize_pdfs(compute_pdfs(params, scheme, 600))
    assert t4.width <= 40 and t4.n_tokens == 600
    assert t5.width <= 120 and t5.n_tokens > 1500


def test_from_entries_layout():
    # rows 0 and 2 have no entry and start at token 1; row 3's band is
    # clamped inside the tokens; zero entries are not stored
    atom0 = [1.0, 0.5, 1.0, 0.25]
    got = TokenBands.from_entries(atom0, [1, 1, 1, 3, 3], [2, 3, 4, 6, 5], [0.2, 0.0, 0.3, 0.5, 0.25], 6)
    assert got.width == 3 and got.n_tokens == 6
    assert got.first.tolist() == [1, 2, 1, 4]
    np.testing.assert_array_equal(got.rows, [[0, 0, 0], [0.2, 0, 0.3], [0, 0, 0], [0, 0.25, 0.5]])
    np.testing.assert_array_equal(got.dense(), [
        [1.0, 0, 0, 0, 0, 0, 0],
        [0.5, 0, 0.2, 0, 0.3, 0, 0],
        [1.0, 0, 0, 0, 0, 0, 0],
        [0.25, 0, 0, 0, 0, 0.25, 0.5],
    ])
    np.testing.assert_allclose(got.weighted_sums(np.arange(7.0)), [0.0, 1.6, 0.0, 4.25])


@pytest.mark.parametrize("first, width", [([0, 1], 1), ([1, 3], 2)])
def test_bands_outside_the_tokens_are_rejected(first, width):
    with pytest.raises(ValueError, match="inside tokens 1..3"):
        TokenBands(np.ones(2), np.array(first), np.zeros((2, width)), 3)


def test_verify_dp_aligns_shifted_bands():
    # adjacent bands far apart: the divergence counts every token of both
    rows = np.zeros((3, 12))
    rows[0, 0] = 1.0
    rows[1, [0, 1, 2]] = [0.5, 0.25, 0.25]
    rows[2, [0, 10, 11]] = [0.5, 0.25, 0.25]
    params = PrivacyParams(0.5, 0.6)
    got, want = verify_dp(bands(rows), params), verify_dp_dense(rows, params)
    assert (got.ok, got.worst_pair, got.direction) == (want.ok, want.worst_pair, want.direction)
    assert got.worst_divergence == want.worst_divergence == 0.5


def test_verify_dp_memory_follows_the_bands():
    # 201 rows of width 10 whose starts alternate between tokens 1 and 5991
    # of 6000: each pair is read at its first row's band, not on a window
    # as wide as the shift between the two starts
    rows = np.random.default_rng(1).random((201, 10)) * 0.09
    rows[0] = 0.0
    first = np.where(np.arange(201) % 2, 5991, 1)
    table = TokenBands(1.0 - rows.sum(axis=1), first, rows, 6000)
    params = PrivacyParams(1.0, 0.5)
    tracemalloc.start()
    try:
        report = verify_dp(table, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * table.rows.nbytes, f"peak {peak} B for {table.rows.nbytes} B of rows"
    want = verify_dp_dense(table.dense(), params)
    assert report.ok == want.ok
    assert abs(report.worst_divergence - want.worst_divergence) <= 1e-12


@st.composite
def banded_laws(draw):
    """Bands at arbitrary starts: overlapping, far apart, some rows empty.

    Row 0 is the law of an absent key, as ``verify_dp`` requires.
    """
    n = draw(st.integers(2, 8))
    width = draw(st.integers(0, 5))
    n_tokens = draw(st.integers(max(width, 1), 40))
    first = draw(st.lists(st.integers(1, n_tokens - width + 1), min_size=n, max_size=n))
    mass = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    raw = np.array(draw(st.lists(st.lists(mass, min_size=width + 1, max_size=width + 1),
                                 min_size=n, max_size=n)))
    empty = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    empty[0] = True
    raw[empty, 1:] = 0.0
    raw[0, 0] = 1.0
    raw[raw.sum(axis=1) == 0.0, 0] = 1.0
    raw /= raw.sum(axis=1, keepdims=True)
    table = TokenBands(raw[:, 0].copy(), np.array(first), raw[:, 1:].copy(), n_tokens)
    epsilon = draw(st.floats(1e-3, 5.0))
    delta = draw(st.floats(1e-6, 1.0))
    return table, PrivacyParams(epsilon, delta)


@settings(deadline=None, max_examples=300)
@given(banded_laws())
def test_verify_dp_matches_dense_at_any_starts(law):
    table, params = law
    got, want = verify_dp(table, params), verify_dp_dense(table.dense(), params)
    assert abs(got.worst_divergence - want.worst_divergence) <= 1e-12
    if abs(want.worst_divergence - (params.delta + DELTA_SLACK)) > 1e-12:
        assert got.ok == want.ok


@settings(deadline=None, max_examples=300)
@given(banded_laws())
def test_pair_divergences_match_the_dense_pairs(law):
    # every pair both ways, not only the worst one
    table, params = law
    up, down = _pair_divergences(table, math.exp(params.epsilon))
    rows = table.dense()
    assert up.shape == down.shape == (len(rows) - 1,)
    for k in range(len(rows) - 1):
        assert abs(up[k] - hockey_stick(rows[k + 1], rows[k], params.epsilon)) <= 1e-12
        assert abs(down[k] - hockey_stick(rows[k], rows[k + 1], params.epsilon)) <= 1e-12


@pytest.mark.parametrize("row0", [[0.0, 1.0], [0.5, 0.5], [1.0 - 2**-53, 2**-53]])
def test_verify_dp_rejects_a_row_0_that_reports(row0):
    # a table whose row 0 reports can pass every pair (here rows 0..2 are
    # equal) yet release absent keys; the gate fails closed on it
    rows = np.array([row0, row0, row0])
    with pytest.raises(ValueError, match="row 0 must be the law of an absent key"):
        verify_dp(bands(rows), PrivacyParams(1.0, 0.5))


TOP = _uniforms([b"\xff" * 8])[0]


def test_draw_above_the_row_total_stays_in_the_row(monkeypatch):
    # row 2 reports 0.2 on token 1 and 0.1 on token 2 of 5.  Token 0 takes
    # the float leftover 1 - 0.30000000000000004, so the row's running total
    # ends at 1 - 2**-53, the top uniform: that draw goes to the row's own
    # highest token 2, not to token 5
    rows = np.zeros((3, 6))
    rows[0, 0] = rows[1, 0] = 1.0
    rows[2, [0, 1, 2]] = [0.7, 0.2, 0.1]
    assert (1.0 - (0.2 + 0.1)) + 0.2 + 0.1 == TOP
    scheme = SamplingScheme.none()
    table = table_from_dense(rows, compute_pi(PrivacyParams(1.0, 0.5), scheme, 2))
    monkeypatch.setattr("privsample.frequencies.key_uniforms", lambda seed, keys, purpose: [TOP])
    sample = WeightedSample(pairs={"k": 2}, scheme=scheme)
    assert sanitize_frequencies(sample, table, seed=0) == {"k": 2}


def test_round_trip_memory_stays_banded(tmp_path):
    # the dense alg5 table alone would take 96 MB, its divergence temporary as much
    params, scheme = PrivacyParams(0.1, 0.01), SamplingScheme.ppswor(0.01)
    path = os.path.join(tmp_path, "pij.csv")
    tracemalloc.start()
    try:
        table = discretize_pdfs(compute_pdfs(params, scheme, 2000))
        with open(path, "w", encoding="utf-8") as fp:
            write_pij_csv(fp, table)
        with open(path, encoding="utf-8") as fp:
            back = read_pij_csv(fp)
        report = verify_dp(back, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert (back.n_tokens, back.width) == (table.n_tokens, table.width)
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
