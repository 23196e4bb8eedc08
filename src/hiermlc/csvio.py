"""Row-joined CSV writing, byte-identical to ``csv.writer``.

The package writes its CSV files with the excel dialect and ``"\\n"`` line
endings.  Numeric cells never need quoting, so whole rows are built with
``",".join`` over ``ndarray.tolist()`` chunks instead of one
``writerow`` call per row.  Text fields (ids, metadata, headers) that
contain a delimiter, quote or line break are quoted by ``csv.writer``
itself, so quoting stays exactly as it would be.
"""

from __future__ import annotations

import csv
import io
import re
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

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
def open_with_header(path, header: Sequence[str]) -> Iterator[TextIO]:
    """Open ``path`` for writing, write the header row and yield the file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        yield fh


def float_row(row: list) -> str:
    """Cells joined as ``repr``, which round-trips float64 exactly."""
    return ",".join(map(repr, row))


def write_rows(
    fh: TextIO,
    text_columns: Sequence[Sequence[str]],
    cells: np.ndarray,
    row_text: Callable[[list], str] = float_row,
) -> None:
    """Write line i as each text column's field i, then ``row_text(cells[i])``.

    Text fields (ids, metadata) are quoted as ``csv.writer`` quotes them;
    ``row_text`` must produce fields that need no quoting.  A row made of
    one empty field is written as ``""``, as ``csv.writer`` does.
    """
    quoted = [list(map(_text_field, column)) for column in text_columns]
    lead = [",".join(fields) for fields in zip(*quoted)]
    sep = "," if quoted and cells.shape[1] else ""
    for start in range(0, cells.shape[0], CHUNK_ROWS):
        block = cells[start : start + CHUNK_ROWS].tolist()
        heads = lead[start : start + CHUNK_ROWS] if quoted else [""] * len(block)
        lines = [head + sep + row_text(row) for head, row in zip(heads, block)]
        fh.write("".join((line or '""') + "\n" for line in lines))
