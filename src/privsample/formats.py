"""File formats: TSV for key data, CSV for tables and analysis output.

Probabilities and other reals are serialized with 17 significant digits so
that parsing them back reproduces the exact double.
"""

from __future__ import annotations

import csv
import warnings
from typing import Iterable, TextIO

import numpy as np

from .frequencies import PdfFamily, SanitizerTable
from .keys import ReportingVector


def fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------- key data


def read_element_stream(fp: TextIO) -> Iterable[str]:
    for line in fp:
        key = line.rstrip("\n")
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


def write_keyed_tsv(fp: TextIO, pairs, *, float_values: bool = False) -> None:
    items = pairs.items() if hasattr(pairs, "items") else pairs
    for key, value in items:
        fp.write(f"{key}\t{fmt(value) if float_values else value}\n")


def write_key_lines(fp: TextIO, keys: Iterable[str]) -> None:
    for key in keys:
        fp.write(f"{key}\n")


# ---------------------------------------------------------------- tables


def write_pi_csv(fp: TextIO, rv: ReportingVector) -> None:
    writer = csv.writer(fp)
    writer.writerow(["i", "q_i", "pi_i", "p_i"])
    for i in range(1, rv.max_frequency + 1):
        q_i = float(rv.q[i])
        p_i = rv.pi[i] / q_i if q_i > 0 else 0.0
        writer.writerow([i, fmt(q_i), fmt(rv.pi[i]), fmt(p_i)])


def write_pij_csv(fp: TextIO, table: SanitizerTable) -> None:
    writer = csv.writer(fp)
    writer.writerow(["i", "j", "pi_ij"])
    rows = table.rows
    # token 0 anchors the row; zero entries elsewhere are implicit
    exported = rows != 0.0
    exported[:, 0] = True
    i, j = np.nonzero(exported)
    writer.writerows(zip(i.tolist(), j.tolist(), map(fmt, rows[i, j].tolist())))


def _read_table(fp: TextIO, header: str, index: tuple[str, ...], usecols: tuple[int, ...]):
    """Rebuild the array a table export describes, zero where it holds no entry.

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
    out = np.zeros(shape)
    out[at] = entries["v"]
    return out


def read_pij_csv(fp: TextIO) -> np.ndarray:
    """Rebuild the row matrix from an `i,j,pi_ij` export.

    Fails closed on negative indices and on a repeated (i, j) entry.
    """
    return _read_table(fp, "i,j,pi_ij", ("i", "j"), (0, 1, 2))


def read_pi_csv(fp: TextIO) -> np.ndarray:
    """Rebuild per-frequency reporting probabilities from an `i,q_i,pi_i,p_i` export.

    Fails closed on negative indices and on a repeated i.
    """
    return _read_table(fp, "i,q_i,pi_i,p_i", ("i",), (0, 2))


def write_pdf_segments_csv(fp: TextIO, family: PdfFamily) -> None:
    writer = csv.writer(fp)
    writer.writerow(["i", "left", "right", "density"])
    for i, pdf in enumerate(family):
        for k in range(len(pdf.densities)):
            writer.writerow([i, fmt(pdf.bounds[k]), fmt(pdf.bounds[k + 1]), fmt(pdf.densities[k])])


def write_pdf_atoms_csv(fp: TextIO, family: PdfFamily) -> None:
    writer = csv.writer(fp)
    writer.writerow(["i", "atom0"])
    for i, pdf in enumerate(family):
        writer.writerow([i, fmt(pdf.atom0)])


# ---------------------------------------------------------------- analysis


def write_sweep_csv(fp: TextIO, rows) -> None:
    writer = csv.writer(fp)
    writer.writerow(["sweep_var", "value", "method", "metric", "result"])
    for r in rows:
        writer.writerow([r.sweep_var, fmt(r.value), r.method, r.metric, fmt(r.result)])


def write_concordance_csv(fp: TextIO, pairs) -> None:
    """pairs: iterable of (i1, i2, concordance)."""
    writer = csv.writer(fp)
    writer.writerow(["i1", "i2", "concordance"])
    for i1, i2, c in pairs:
        writer.writerow([i1, i2, fmt(c)])


def write_moments_csv(fp: TextIO, moment_table) -> None:
    writer = csv.writer(fp)
    writer.writerow(["i", "E_i", "Bias_i", "Var_i", "MSE_i"])
    for i in range(1, moment_table.max_frequency + 1):
        writer.writerow(
            [
                i,
                fmt(moment_table.expectation[i]),
                fmt(moment_table.bias[i]),
                fmt(moment_table.variance[i]),
                fmt(moment_table.mse[i]),
            ]
        )
