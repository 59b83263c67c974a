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
import itertools
import json
import math
import os
import types

_SCALARS = frozenset((str, int, float, bool, type(None)))
_BOOL_TEXT = ("false", "true").__getitem__
# CSV text of a cell by its exact type; every other scalar is str().
_CSV_CELL = {float: "%.17g".__mod__, bool: _BOOL_TEXT}
_JSON_CELL = json.JSONEncoder(allow_nan=False).encode
_BLOCK = 1 << 14  # rows formatted and written at a time
# report.json holds a table's "rows" at a fixed depth under "tables": each
# row opens on _ROW and each of its cells on _ROW + "  ".
_ROW, _ROWS_END = "\n" + " " * 8, "\n" + " " * 6 + "]"
_ROWS_KEY = '"rows": '


def _csv_lines(rows) -> list:
    """The lines csv.writer (QUOTE_MINIMAL, "\\n" line ends) writes for rows."""
    lines = []
    csv.writer(types.SimpleNamespace(write=lines.append), lineterminator="\n").writerows(rows)
    return lines


def _encode(table: dict) -> tuple:
    """Check and encode a table's cells one column at a time, as table["cells"] holds them.

    Returns the CSV header line, the % templates of one report.json row and
    of one CSV row, and the argument columns both templates read, one
    argument per row from each. A column of floats is one argument column,
    %r in JSON and %.17g in the CSV; a column of ints is %d in both and a
    column of bools true/false in both. Any other column is encoded cell by
    cell into two argument columns, json.dumps text and CSV text (the text
    of a float or bool cell as in those columns, else str(), quoted as
    ``csv.writer`` quotes it), and each template skips the other's with
    %.0s. Raises TypeError unless there is one column per column spec, all
    of one length, or on a cell that is not a scalar, and ValueError on a
    NaN or infinity.
    """
    columns = table["cells"]
    width = len(table["columns"])
    n_rows = len(columns[0]) if columns else 0
    if len(columns) != width or any(len(col) != n_rows for col in columns):
        raise TypeError(f"table {table['name']!r}: cells must be {width} columns of equal length")
    json_fmts, csv_fmts, args = [], [], []
    for col in columns:
        kinds = set(map(type, col))
        if kinds == {float}:
            if not all(map(math.isfinite, col)):
                raise ValueError("non-finite cell")
            fmts, texts = ("%r", "%.17g"), [col]
        elif kinds == {int}:
            fmts, texts = ("%d", "%d"), [col]
        elif kinds == {bool}:
            fmts, texts = ("%s", "%s"), [tuple(map(_BOOL_TEXT, col))]
        elif kinds <= _SCALARS:
            # csv.writer writes a row whose one field is empty as "", so a
            # lone column is quoted as one-field rows, any other beside a "".
            tail = ("",) if width > 1 else ()
            lines = _csv_lines((_CSV_CELL.get(type(x), str)(x), *tail) for x in col)
            fmts = ("%s%.0s", "%.0s%s")
            texts = [list(map(_JSON_CELL, col)), [line[:-1 - len(tail)] for line in lines]]
        else:
            raise TypeError("table cells must be str, int, float, bool or None")
        json_fmts.append(fmts[0])
        csv_fmts.append(fmts[1])
        args += texts
    header = _csv_lines([[c["name"] for c in table["columns"]]])[0]
    json_row = _ROW + "[" + ",".join(_ROW + "  " + f for f in json_fmts) + _ROW + "]"
    return header, json_row, ",".join(csv_fmts) + "\n", args


def write_report(out_dir: str, report: dict) -> str:
    """Write report.json and one CSV per table into out_dir.

    report.json holds exactly the text of ``json.dumps(report,
    sort_keys=True, indent=2, allow_nan=False)`` plus a newline, each
    table's "cells" (one sequence per column) written as "rows" (one list
    per row). Every table is first checked and encoded one column at a time
    (``_encode``). The rest of report.json is ``json.dumps``'s own text of
    the report with each table cut to its "columns", its "name" and a NaN
    as its "rows": once a first ``json.dumps`` with ``allow_nan=False`` has
    refused every other NaN, a NaN can only be such a placeholder, and an
    encoded string escapes every ``"``, so that text splits exactly on
    ``"rows": NaN``. Then each table's rows are written in blocks of
    ``_BLOCK``: one argument tuple per block, and one % over a row template
    repeated once per row, for report.json and for the CSV alike. A CSV
    cell is "%.17g" of a float, true/false of a bool and str() of anything
    else, quoted as ``csv.writer`` quotes it. A NaN or infinite number,
    which JSON cannot hold, raises ``ValueError``, and miscounted or
    unequal columns or a cell that is not a scalar ``TypeError``, before
    any file or directory is created.
    """
    tables = report["tables"]

    def skeleton(rows) -> dict:
        return {**report, "tables": [{"columns": t["columns"], "name": t["name"], "rows": rows} for t in tables]}

    try:
        encoded = [_encode(t) for t in tables]
        json.dumps(skeleton(None), sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError("the report holds a non-finite number; nothing was written") from None
    text = json.dumps(skeleton(math.nan), sort_keys=True, indent=2) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    head, *tails = text.split(_ROWS_KEY + "NaN")
    with open(path, "w", encoding="utf-8", newline="\n") as json_fh:
        json_fh.write(head)
        for tab, (header, json_row, csv_row, args), tail in zip(tables, encoded, tails):
            with open(os.path.join(out_dir, f"{tab['name']}.csv"), "w", encoding="utf-8", newline="") as csv_fh:
                csv_fh.write(header)
                sep, rows = _ROWS_KEY + "[", zip(*args)
                while block := tuple(itertools.chain.from_iterable(itertools.islice(rows, _BLOCK))):
                    n = len(block) // len(args)
                    json_fh.write((sep + ",".join([json_row] * n)) % block)
                    csv_fh.write((csv_row * n) % block)
                    sep = ","
            json_fh.writelines((_ROWS_KEY + "[]" if sep != "," else _ROWS_END, tail))
    return path
