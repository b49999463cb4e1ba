"""The whole-text CSV reader that ``fairthresh.data.Inputs.table`` replaced, used only by the tests.

It reads the whole file, cuts it with ``str.splitlines`` and hands the list
of lines to ``np.loadtxt``.  The streamed reader must return the same header
and arrays, or raise the same exception class with the same message, on
every UTF-8 input without a byte-order mark.  Tests import this module as
they import conftest.
"""

import csv

import numpy as np

from fairthresh.errors import DataValueError, ParseError, SchemaError


def read_text(path) -> str:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read the file: {exc.strerror or exc}") from None


def _first_bad_cell(path, header, body, binary) -> None:
    for r, line in enumerate(body):
        cells = line.split(",")
        if len(cells) != len(header):
            raise SchemaError(f"{path}: row {r} has {len(cells)} cells, header has {len(header)}")
        for name, cell in zip(header, cells):
            try:
                float(cell)
            except ValueError:
                error = DataValueError if name in binary else ParseError
                raise error(f"{path}: row {r}, column {name!r}: cannot parse {cell!r}") from None


def read_table(path, binary=(), unit=()):
    lines = read_text(path).splitlines()
    try:
        header = [h.strip() for h in next(csv.reader(lines[:1]), [])]
    except csv.Error as exc:
        raise SchemaError(f"{path}: unreadable header row: {exc}") from None
    if not header:
        raise SchemaError(f"{path}: empty file, header row required")
    if "" in header or len(set(header)) < len(header):
        raise SchemaError(f"{path}: header names must be non-blank and distinct, got {header}")
    body = lines[1:]
    if not body:
        raise SchemaError(f"{path}: no data rows")
    reason = "row count or width differs from the header"
    try:
        values = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        values, reason = None, str(exc)
    if values is None or values.shape != (len(body), len(header)):
        _first_bad_cell(path, header, body, binary)
        raise ParseError(f"{path}: cannot parse the data rows: {reason}")

    bad = ~np.isfinite(values)
    for i, name in enumerate(header):
        if name in binary:
            bad[:, i] = ~np.isin(values[:, i], (0.0, 1.0))
        elif name in unit:
            bad[:, i] |= (values[:, i] < 0.0) | (values[:, i] > 1.0)
    if bad.any():
        r, i = np.argwhere(bad)[0]
        where, v = f"{path}: row {r}, column {header[i]!r}", float(values[r, i])
        if header[i] in binary:
            raise DataValueError(f"{where}: value {v:g} is not 0 or 1")
        if not np.isfinite(v):
            raise ParseError(f"{where}: non-finite value {v!r}")
        raise DataValueError(f"{where}: score {v:g} outside [0, 1]")
    return header, values
