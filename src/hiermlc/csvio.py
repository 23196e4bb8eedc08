"""The package's one CSV layer: it reads and writes every CSV file.

``reader`` yields a file's header and its numbered data rows; it raises
``DataFormatError`` for an empty file or a row whose cell count differs
from the header's, and skips blank lines.  ``read_id_matrix`` reads the
``id,<name>...`` float files (features, predictions) from the
``<file>.npy`` sidecar that ``write_id_matrix`` left beside it, while
its sha256 of the file, its dtype and its shape still match, and
otherwise by the checked row loop ``read_id_rows``.  The sidecar gives
the loop's results, so a deleted sidecar costs only time.
This module alone saves and loads ``.npy`` files.
``read_coded_rows`` splits label files a block of lines at a time, each
column a slice of the block's cells mapped to codes; where it cannot
vouch for a file it returns None, and the caller's checked loop reads it.

Files are written with the excel dialect and ``"\\n"`` line endings:
small tables through ``csv.writer``, large numeric ones as ``",".join``
rows over ``ndarray.tolist()`` chunks, hashed as they are written for the
sidecar, and columns of preformatted text (the ROC points) by
``write_fields``.  Numeric cells never need quoting, and text fields that
do are quoted by ``csv.writer`` itself, so the bytes are always
``csv.writer``'s.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import re
from array import array
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataFormatError

# Rows formatted per write; bounds the Python objects alive at once.
CHUNK_ROWS = 64
# Characters of label lines split per block: each cell is a Python string.
LABEL_BLOCK_CHARS = 1 << 13

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
    """``(column names, row ids, float64 matrix)`` of an ``id,<name>...`` file.

    A file ``write_id_matrix`` wrote is read from its sidecar when the
    sidecar still matches it; any other file by ``read_id_rows``, which
    alone decides what is an error.
    """
    parsed = _read_sidecar(path)
    return read_id_rows(path, what) if parsed is None else parsed


def sidecar_path(path) -> Path:
    """Where ``write_id_matrix`` keeps the parsed form of the file at ``path``."""
    return Path(f"{os.fspath(path)}.npy")


def sha256_file(path) -> str:
    """The hex sha256 of a file, read 64 KiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def _read_sidecar(path) -> tuple[tuple, tuple, np.ndarray] | None:
    """``read_id_matrix``'s result from the sidecar of the file at
    ``path``, or None where there is no sidecar or it does not match.

    The sidecar must hold three arrays and nothing more: the sha256 of
    the file, which is checked last and only if the rest holds, a 1-D
    array of ids, and a C-order float64 matrix of one row per id and one
    column per header name after ``id``.  No field may exceed
    ``csv.field_size_limit()``, which the checked loop would reject; 24
    characters is the longest ``repr`` of a float64.
    """
    try:
        with open(sidecar_path(path), "rb") as fh:
            digest, ids, matrix = (np.load(fh, allow_pickle=False) for _ in range(3))
            complete = fh.read(1) == b""
        with reader(path) as (header, _):
            pass
    except Exception:
        # A missing, truncated or foreign sidecar: numpy's loader raises
        # ValueError, EOFError, SyntaxError, BadZipFile or MemoryError,
        # among others, for such files, and the checked loop decides each one.
        return None
    if not (
        complete
        and all(type(array) is np.ndarray for array in (digest, ids, matrix))
        and digest.shape == ()
        and digest.dtype.kind == ids.dtype.kind == "U"
        and ids.ndim == 1
        and ids.size > 0
        and matrix.dtype == np.float64
        and matrix.flags.c_contiguous
        and matrix.shape == (ids.size, len(header) - 1)
        and header[:1] == ["id"]
        and max(ids.dtype.itemsize // 4, 24) <= csv.field_size_limit()
        and digest.item() == sha256_file(path)
    ):
        return None
    return tuple(header[1:]), tuple(ids.tolist()), matrix


def _plain(lines: list[str], commas: int) -> bool:
    """Whether ``csv.reader`` would split ``lines`` at their commas alone,
    and they hold ``commas`` commas a line in all.

    True when they have no quote, no carriage return and no NUL (which
    ``csv.reader`` rejects before Python 3.11), and no line is longer
    than ``csv.field_size_limit()``.
    """
    text = "".join(lines)
    return (
        '"' not in text
        and "\r" not in text
        and "\0" not in text
        and text.count(",") == len(lines) * commas
        and max(map(len, lines), default=0) <= csv.field_size_limit()
    )


def read_coded_rows(
    path, names: Sequence[str], codes: Mapping[str, int]
) -> tuple[np.ndarray, dict[str, tuple[str, ...]]] | None:
    """The cells of a file whose header holds every one of ``names``, or
    None where the checked row loop of ``reader`` must decide.

    Returns an int8 matrix of each row's ``names`` cells mapped through
    ``codes``, and the cells of each other column by name (a repeated
    name keeps its first column).  The file is read ``LABEL_BLOCK_CHARS``
    at a time; each block must pass ``_plain``, every line holding as
    many commas as the header, and is split at its commas in one go, each
    column a slice of the cells.  A cell missing from ``codes``, another
    cell count, a file without data rows or a decode error returns None.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            first = fh.readline()
            if first in ("", "\n") or not _plain([first], first.count(",")):
                return None
            header = first.rstrip("\n").split(",")
            if not set(names) <= set(header):
                return None
            width = len(header)
            coded = [(array("b"), header.index(name)) for name in names]
            kept = {c: ([], header.index(c)) for c in header if c not in names}
            code = codes.__getitem__
            commas = repeat(",")
            while lines := fh.readlines(LABEL_BLOCK_CHARS):
                lines = [line for line in lines if line != "\n"]  # csv skips blank lines
                if not lines:
                    continue
                # the block's comma count and one count for every line
                if not _plain(lines, width - 1) or len(set(map(str.count, lines, commas))) > 1:
                    return None
                cells = "".join(lines).rstrip("\n").replace("\n", ",").split(",")
                for column, i in coded:
                    column.extend(map(code, cells[i::width]))
                for column, i in kept.values():
                    column += cells[i::width]
    except (UnicodeDecodeError, KeyError):
        return None
    if not coded[0][0]:
        return None
    matrix = np.column_stack([np.frombuffer(column, dtype=np.int8) for column, _ in coded])
    return matrix, {c: tuple(column) for c, (column, _) in kept.items()}


def read_id_rows(path, what: str) -> tuple[tuple, tuple, np.ndarray]:
    """``read_id_matrix`` through the checked row loop of ``reader``."""
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
) -> str:
    """Write ``header`` and one line per row of ``cells``, led by the text
    columns; return the hex sha256 of the bytes written.

    Text fields (ids, metadata) are quoted as ``csv.writer`` quotes them;
    ``row_text`` must produce fields that need no quoting.  A row made of
    one empty field is written as ``""``, as ``csv.writer`` does.
    """
    quoted = [list(map(_text_field, column)) for column in text_columns]
    lead = [",".join(fields) for fields in zip(*quoted)]
    sep = "," if quoted and cells.shape[1] else ""
    header_line = io.StringIO()
    csv.writer(header_line, lineterminator="\n").writerow(header)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def put(text: str) -> None:
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)

        put(header_line.getvalue())
        for start in range(0, cells.shape[0], CHUNK_ROWS):
            block = cells[start : start + CHUNK_ROWS].tolist()
            heads = lead[start : start + CHUNK_ROWS] if quoted else [""] * len(block)
            lines = [head + sep + row_text(row) for head, row in zip(heads, block)]
            put("".join((line or '""') + "\n" for line in lines))
    return digest.hexdigest()


def write_id_matrix(path, header: Sequence[str], ids: Sequence[str], matrix: np.ndarray) -> None:
    """Write an ``id,<name>...`` file of float64 ``matrix`` rows, then
    atomically its sidecar: the file's sha256, the ids and the matrix as
    the checked loop returns it (every NaN as ``float("nan")``).

    A file without rows, or with an id or a column name that needs
    quoting or holds a NUL, gets no sidecar, and loses any it had: the
    checked loop reads such files.  (``csv.writer`` leaves a carriage return
    unquoted, and ``csv.reader`` ends the row there.)
    """
    digest = write_rows(path, header, [ids], matrix)
    sidecar = sidecar_path(path)
    joined = "".join(header) + "".join(ids)
    if not len(ids) or _MAY_NEED_QUOTING(joined) or "\0" in joined:
        sidecar.unlink(missing_ok=True)
        return
    nan = np.isnan(matrix)
    parsed = np.where(nan, np.nan, matrix) if nan.any() else matrix
    partial = sidecar.with_name(sidecar.name + ".tmp")
    try:
        with open(partial, "wb") as fh:
            for array in (np.array(digest), np.array(ids, dtype=str), parsed):
                np.save(fh, array, allow_pickle=False)
        os.replace(partial, sidecar)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_fields(
    path, header: Sequence[str], blocks: Iterable[Sequence[Sequence[str]]]
) -> None:
    """Write ``header`` and, for each block of text columns, one line per row.

    Each block holds at least one row; the fields need no quoting, and a
    row has at least two of them, so that no row is one empty field: the
    bytes are ``csv.writer``'s.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for columns in blocks:
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")
