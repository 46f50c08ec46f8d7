"""File formats: TSV for key data, CSV for tables and analysis output.

Reals are written as ``%.17g`` (17 significant digits), so parsing them back
reproduces the exact double.  CSV lines end in ``\r\n``, TSV and key-list
lines in ``\n``; no field is quoted.
"""

from __future__ import annotations

import csv
import warnings
from itertools import chain, islice, repeat
from typing import Iterable, Mapping, TextIO

import numpy as np

from .frequencies import PdfFamily
from .keys import ReportingVector
from .privacy import TokenBands


def fmt(x: float) -> str:
    return format(float(x), ".17g")


_BLOCK = 1024  # rows formatted and written per fp.write


def _write_lines(fp: TextIO, header: str, line: str, rows: Iterable[tuple]) -> None:
    """Write ``header``, then ``line % row`` per row: one template and write per block."""
    fp.write(header)
    rows = iter(rows)
    while block := list(islice(rows, _BLOCK)):
        fp.write((line * len(block)) % tuple(chain.from_iterable(block)))


# ---------------------------------------------------------------- key data


def read_element_stream(fp: TextIO) -> Iterable[str]:
    """Yield each nonempty line as a key; fails closed on a tab, which no keyed TSV can hold."""
    for lineno, line in enumerate(fp, 1):
        key = line.rstrip("\n")
        if "\t" in key:
            raise ValueError(f"line {lineno}: key contains a tab")
        if key:
            yield key


def read_keyed_tsv(fp: TextIO) -> dict[str, int]:
    """Read `key<TAB>integer` lines into an ordered mapping.

    Fails closed on a malformed line and on a repeated key, naming the line.
    """
    out = {}
    for lineno, line in enumerate(fp, 1):
        line = line.rstrip("\n")
        if not line:
            continue
        try:
            key, value = line.split("\t")
            value = int(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: expected 'key<TAB>value', got {line!r}") from exc
        if key in out:
            raise ValueError(f"line {lineno}: repeated key {key!r}")
        out[key] = value
    return out


def write_keyed_tsv(fp: TextIO, pairs: Mapping[str, float], *, float_values: bool = False) -> None:
    _write_lines(fp, "", "%s\t%.17g\n" if float_values else "%s\t%s\n", pairs.items())


def write_key_lines(fp: TextIO, keys: Iterable[str]) -> None:
    _write_lines(fp, "", "%s\n", zip(keys))


# ---------------------------------------------------------------- tables


def write_pi_csv(fp: TextIO, rv: ReportingVector) -> None:
    m = rv.max_frequency
    q, pi = rv.q[1 : m + 1], rv.pi[1 : m + 1]
    p = np.divide(pi, q, out=np.zeros(m), where=q > 0)
    rows = zip(range(1, m + 1), q.tolist(), pi.tolist(), p.tolist())
    _write_lines(fp, "i,q_i,pi_i,p_i\r\n", "%d,%.17g,%.17g,%.17g\r\n", rows)


def write_pij_csv(fp: TextIO, table: TokenBands) -> None:
    """One `i,j,pi_ij` line per token 0 and per nonzero entry, row by row.

    Cells are formatted one block of rows at a time, so the text never
    exists whole in memory.
    """
    _write_lines(fp, "i,j,pi_ij\r\n", "%d,%d,%.17g\r\n", _pij_cells(table))


def _pij_cells(table: TokenBands):
    # token 0 anchors the row; zero entries elsewhere are implicit
    for start in range(0, len(table), _BLOCK):
        block = slice(start, start + _BLOCK)
        first = table.first[block, None]
        values = np.column_stack((table.atom0[block], table.rows[block]))
        tokens = np.column_stack((0 * first, first + np.arange(table.width)))
        exported = values != 0.0
        exported[:, 0] = True
        i, c = np.nonzero(exported)
        yield from zip((i + start).tolist(), tokens[i, c].tolist(), values[i, c].tolist())


def _read_entries(fp: TextIO, header: str, index: tuple[str, ...], usecols: tuple[int, ...]):
    """The index columns and the values of a table export.

    ``usecols`` picks the index columns, then the value column.  Fails closed
    on a wrong header, an empty body, a negative index and a repeated index.
    """
    names = header.split(",")
    got = next(csv.reader(fp), None)
    if got is None or [h.strip() for h in got[:3]] != names[:3]:
        raise ValueError(f"expected a CSV with header {header}")
    dtype = [(name, np.int64) for name in index] + [("v", np.float64)]
    with warnings.catch_warnings():
        # an empty body is reported below, as a ValueError
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        entries = np.loadtxt(
            fp, delimiter=",", dtype=dtype, ndmin=1, usecols=usecols, comments=None
        )
    if entries.size == 0:
        raise ValueError("table file holds no entries")
    at = tuple(entries[name] for name in index)
    if min(int(ix.min()) for ix in at) < 0:
        raise ValueError("table file holds a negative index")
    shape = tuple(int(ix.max()) + 1 for ix in at)
    flat = np.sort(np.ravel_multi_index(at, shape))
    repeated = flat[1:][flat[1:] == flat[:-1]]
    if repeated.size:
        where = np.unravel_index(int(repeated[0]), shape)
        named = ", ".join(f"{name}={int(k)}" for name, k in zip(index, where))
        raise ValueError(f"table file repeats entry {named}")
    return at, entries["v"], shape


def read_pij_csv(fp: TextIO) -> TokenBands:
    """Rebuild the banded rows from an `i,j,pi_ij` export.

    Row i spans 0..max i; tokens run to the largest j in the file.  A cell
    the file does not list holds 0, token 0 included.  Fails closed on
    negative indices and on a repeated (i, j) entry.
    """
    (i, j), v, (n_rows, n_cols) = _read_entries(fp, "i,j,pi_ij", ("i", "j"), (0, 1, 2))
    atom0 = np.zeros(n_rows)
    at0 = j == 0
    atom0[i[at0]] = v[at0]
    return TokenBands.from_entries(atom0, i[~at0], j[~at0], v[~at0], n_cols - 1)


def read_pi_csv(fp: TextIO) -> np.ndarray:
    """Rebuild per-frequency reporting probabilities from an `i,q_i,pi_i,p_i` export.

    Fails closed on negative indices and on a repeated i.
    """
    (i,), v, shape = _read_entries(fp, "i,q_i,pi_i,p_i", ("i",), (0, 2))
    out = np.zeros(shape)
    out[i] = v
    return out


def write_pdf_segments_csv(fp: TextIO, family: PdfFamily) -> None:
    segments = chain.from_iterable(
        zip(repeat(i), pdf.bounds.tolist(), pdf.bounds[1:].tolist(), pdf.densities.tolist())
        for i, pdf in enumerate(family)
    )
    _write_lines(fp, "i,left,right,density\r\n", "%d,%.17g,%.17g,%.17g\r\n", segments)


def write_pdf_atoms_csv(fp: TextIO, family: PdfFamily) -> None:
    atoms = ((i, pdf.atom0) for i, pdf in enumerate(family))
    _write_lines(fp, "i,atom0\r\n", "%d,%.17g\r\n", atoms)


# ---------------------------------------------------------------- analysis


def write_sweep_csv(fp: TextIO, rows) -> None:
    fields = ((r.sweep_var, r.value, r.method, r.metric, r.result) for r in rows)
    _write_lines(fp, "sweep_var,value,method,metric,result\r\n", "%s,%.17g,%s,%s,%.17g\r\n", fields)


def write_concordance_csv(fp: TextIO, conc: np.ndarray) -> None:
    """One `i1,i2,concordance` line per pair 1 <= i2 < i1 < len(conc), by i1 then i2.

    ``conc[i1, i2]`` is the pair's concordance; only the strict lower
    triangle past column 0 is read, one row slice at a time.
    """
    pairs = chain.from_iterable(
        zip(repeat(i1), range(1, i1), conc[i1, 1:i1].tolist()) for i1 in range(2, len(conc))
    )
    _write_lines(fp, "i1,i2,concordance\r\n", "%d,%d,%.17g\r\n", pairs)


def write_moments_csv(fp: TextIO, moment_table) -> None:
    m = moment_table.max_frequency
    columns = (moment_table.expectation, moment_table.bias, moment_table.variance, moment_table.mse)
    rows = zip(range(1, m + 1), *(c[1 : m + 1].tolist() for c in columns))
    _write_lines(fp, "i,E_i,Bias_i,Var_i,MSE_i\r\n", "%d,%.17g,%.17g,%.17g,%.17g\r\n", rows)
