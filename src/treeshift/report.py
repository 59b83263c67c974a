"""Report writer: report.json and one CSV per table, as byte-stable text.

A table is ``{"name", "columns", "cells"}``, with one sequence of scalars
per column in ``cells``. report.json holds exactly the text of
``json.dumps(report, sort_keys=True, indent=2, allow_nan=False)`` plus a
newline, each table's cells written as its "rows", one list per row. Each
CSV holds a header of column names and one line per row. Floats in CSVs
use 17 significant digits; report.json holds Python's shortest round-trip repr.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import os
import types
from typing import NamedTuple

_SCALARS = frozenset((str, int, float, bool, type(None)))
_BOOL_TEXT = ("false", "true").__getitem__
# CSV text of a cell by its exact type; every other scalar is str().
_CSV_CELL = {float: "%.17g".__mod__, bool: _BOOL_TEXT}
_JSON_CELL = json.JSONEncoder(allow_nan=False).encode


def _json(value, pad: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2, allow_nan=False) nested at indentation pad.

    Encoded strings escape their newlines, so every newline in the text is
    layout and one replace re-indents it.
    """
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False).replace("\n", "\n" + pad)


def _block(brackets: str, items: list, pad: str) -> str:
    """Encoded items laid out as indent=2 lays out a container nested at pad."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1]


def _object(d: dict, pad: str, encoders: dict) -> str:
    """_json(d, pad), with the value of each key in encoders encoded by it."""
    inner = pad + "  "
    fields = [f"{json.dumps(k)}: {encoders.get(k, _json)(d[k], inner)}" for k in sorted(d)]
    return _block("{}", fields, pad)


def _csv_lines(rows) -> list:
    """The lines csv.writer (QUOTE_MINIMAL, "\\n" line ends) writes for rows."""
    lines = []
    csv.writer(types.SimpleNamespace(write=lines.append), lineterminator="\n").writerows(rows)
    return lines


class _Cells(NamedTuple):
    """A table's cells after the column pass.

    For report.json and for the CSV: the % directive of each column, and
    the matching arguments, flattened row by row.
    """

    n_rows: int
    json_fmts: list
    json_args: tuple
    csv_fmts: list
    csv_args: tuple


def _cells(table: dict) -> _Cells:
    """Encode a table's cells one column at a time, as table["cells"] holds them.

    A column of floats is %r in JSON and %.17g in the CSV, a column of ints
    %d in both and a column of bools true/false in both. Any other column
    is encoded cell by cell: json.dumps for JSON, and for the CSV the
    cell's text (as for a float or bool column, else str()) quoted as
    ``csv.writer`` quotes it. Raises TypeError unless there is one column
    per column spec, all of one length, or on a cell that is not a scalar,
    and ValueError on a NaN or infinity.
    """
    columns = table["cells"]
    width = len(table["columns"])
    n_rows = len(columns[0]) if columns else 0
    if len(columns) != width or any(len(col) != n_rows for col in columns):
        raise TypeError(f"table {table['name']!r}: cells must be {width} columns of equal length")
    json_fmts, json_cols, csv_fmts, csv_cols = [], [], [], []
    for col in columns:
        kinds = set(map(type, col))
        if kinds == {float}:
            if not all(map(math.isfinite, col)):
                raise ValueError("non-finite cell")
            fmts, texts = ("%r", "%.17g"), (col, col)
        elif kinds == {int}:
            fmts, texts = ("%d", "%d"), (col, col)
        elif kinds == {bool}:
            words = tuple(map(_BOOL_TEXT, col))
            fmts, texts = ("%s", "%s"), (words, words)
        elif kinds <= _SCALARS:
            # csv.writer writes a row whose one field is empty as "", so a
            # lone column is quoted as one-field rows, any other beside a "".
            tail = ("",) if width > 1 else ()
            lines = _csv_lines((_CSV_CELL.get(type(x), str)(x), *tail) for x in col)
            fmts = ("%s", "%s")
            texts = (list(map(_JSON_CELL, col)), [line[:-1 - len(tail)] for line in lines])
        else:
            raise TypeError("table cells must be str, int, float, bool or None")
        json_fmts.append(fmts[0])
        csv_fmts.append(fmts[1])
        json_cols.append(texts[0])
        csv_cols.append(texts[1])
    return _Cells(n_rows, json_fmts, _by_row(json_cols), csv_fmts, _by_row(csv_cols))


def _by_row(columns: list) -> tuple:
    """The cells of equal-length columns, flattened row by row."""
    return tuple(itertools.chain.from_iterable(zip(*columns)))


def _rows_json(cells: _Cells, pad: str) -> str:
    """_json(rows, pad) for the table's rows, by one % over a row template
    repeated once per row."""
    if not cells.n_rows:
        return "[]"
    row, cell = "\n" + pad + "  ", "\n" + pad + "    "
    body = ",".join(cell + f for f in cells.json_fmts)
    template = row + ("[" + body + row + "]" if body else "[]")
    return "[" + ",".join([template] * cells.n_rows) % cells.json_args + "\n" + pad + "]"


def _csv_text(table: dict, cells: _Cells) -> str:
    """The CSV of a table: the header through csv.writer, then the rows by one %."""
    header = _csv_lines([[c["name"] for c in table["columns"]]])[0]
    return header + ((",".join(cells.csv_fmts) + "\n") * cells.n_rows) % cells.csv_args


def _tables_json(cells: list, tables: list, pad: str) -> str:
    """_json(tables, pad) for the report's tables with rows in place of cells."""
    items = [_object({"columns": t["columns"], "name": t["name"], "rows": c}, pad + "  ",
                     {"rows": _rows_json}) for t, c in zip(tables, cells)]
    return _block("[]", items, pad)


def write_report(out_dir: str, report: dict) -> str:
    """Write report.json and one CSV per table into out_dir.

    report.json holds exactly the text of ``json.dumps(report,
    sort_keys=True, indent=2, allow_nan=False)`` plus a newline, each
    table's "cells" (one sequence per column) written as "rows" (one list
    per row). The cells are encoded one column at a time (``_cells``), then
    laid out by one % over a row template repeated once per row, in
    report.json and in the CSV alike; everything else is encoded by
    ``json.dumps`` itself. A CSV cell is "%.17g" of a float, true/false of a
    bool and str() of anything else, quoted as ``csv.writer`` quotes it. A
    NaN or infinite number, which JSON cannot hold, raises ``ValueError``,
    and miscounted or unequal columns or a cell that is not a scalar
    ``TypeError``, before any file or directory is created.
    """
    tables = report["tables"]
    try:
        cells = [_cells(t) for t in tables]
        text = _object(report, "", {"tables": functools.partial(_tables_json, cells)})
    except ValueError:
        raise ValueError("the report holds a non-finite number; nothing was written") from None
    csvs = [_csv_text(t, c) for t, c in zip(tables, cells)]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines((text, "\n"))
    for tab, csv_text in zip(tables, csvs):
        with open(os.path.join(out_dir, f"{tab['name']}.csv"), "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    return path
