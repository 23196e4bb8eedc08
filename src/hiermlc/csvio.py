"""The package's one CSV layer: it reads and writes every CSV file.

``reader`` yields a file's header and its numbered data rows; it raises
``DataFormatError`` for an empty file or a row whose cell count differs
from the header's, and skips blank lines.  Files are written with the
excel dialect and ``"\\n"`` line endings: small tables through
``csv.writer``, large numeric ones as ``",".join`` rows over
``ndarray.tolist()`` chunks.  Numeric cells never need quoting, and text
fields that do are quoted by ``csv.writer`` itself, so the bytes are
always ``csv.writer``'s.
"""

from __future__ import annotations

import csv
import io
import re
from array import array
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataFormatError

# Rows formatted per write; bounds the Python objects alive at once.
CHUNK_ROWS = 64

_MAY_NEED_QUOTING = re.compile(r'[,"\r\n]').search


def _text_field(text: str) -> str:
    """A text field as ``csv.writer`` writes it within a row."""
    if not _MAY_NEED_QUOTING(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


@contextmanager
def reader(path) -> Iterator[tuple[list[str], Iterator[tuple[int, list[str]]]]]:
    """Yield ``(header, rows)``; ``rows`` gives each data row as ``(line, cells)``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        try:
            header = next(rows, None)
            if header is None:
                raise DataFormatError(f"{path}: empty file")
            yield header, _checked_rows(rows, len(header), path)
        except (csv.Error, UnicodeDecodeError) as exc:  # also from the caller's loop
            msg = f"{path}: unreadable near line {rows.line_num}: {exc}"
            raise DataFormatError(msg) from exc


def _checked_rows(rows, width: int, path) -> Iterator[tuple[int, list[str]]]:
    for cells in rows:
        if len(cells) != width:
            if not cells:  # a blank line
                continue
            raise DataFormatError(
                f"{path}:{rows.line_num}: expected {width} cells, got {len(cells)}"
            )
        yield rows.line_num, cells


def column_indices(path, header: Sequence[str], names, what: str) -> list[int]:
    """The position of each of ``names`` in the header of the file at ``path``."""
    missing = [name for name in names if name not in header]
    if missing:
        msg = f"{path}: missing {what} column(s) {missing}; found columns {header}"
        raise DataFormatError(msg)
    return [header.index(name) for name in names]


def read_id_matrix(path, what: str) -> tuple[tuple, tuple, np.ndarray]:
    """``(column names, row ids, float64 matrix)`` of an ``id,<name>...`` file."""
    with reader(path) as (header, rows):
        if header[:1] != ["id"]:
            raise DataFormatError(f"{path}: {what} file must start with an id column")
        ids = []
        values = array("d")  # row after row, without a float object per cell
        for line, cells in rows:
            ids.append(cells[0])
            try:
                values.extend(map(float, cells[1:]))
            except ValueError:
                msg = f"{path}:{line}: unparsable {what} value"
                raise DataFormatError(msg) from None
    if not ids:
        raise DataFormatError(f"{path}: no data rows")
    matrix = np.array(values).reshape(len(ids), len(header) - 1)
    return tuple(header[1:]), tuple(ids), matrix


def write_table(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows through ``csv.writer``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def float_row(row: list) -> str:
    """Cells joined as ``repr``, which round-trips float64 exactly."""
    return ",".join(map(repr, row))


def write_rows(
    path,
    header: Sequence[str],
    text_columns: Sequence[Sequence[str]],
    cells: np.ndarray,
    row_text: Callable[[list], str] = float_row,
) -> None:
    """Write ``header`` and one line per row of ``cells``, led by the text columns.

    Text fields (ids, metadata) are quoted as ``csv.writer`` quotes them;
    ``row_text`` must produce fields that need no quoting.  A row made of
    one empty field is written as ``""``, as ``csv.writer`` does.
    """
    quoted = [list(map(_text_field, column)) for column in text_columns]
    lead = [",".join(fields) for fields in zip(*quoted)]
    sep = "," if quoted and cells.shape[1] else ""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for start in range(0, cells.shape[0], CHUNK_ROWS):
            block = cells[start : start + CHUNK_ROWS].tolist()
            heads = lead[start : start + CHUNK_ROWS] if quoted else [""] * len(block)
            lines = [head + sep + row_text(row) for head, row in zip(heads, block)]
            fh.write("".join((line or '""') + "\n" for line in lines))
