"""The package's one CSV layer, and the one module that writes files.

Every file the package writes, CSV or not, goes through ``replacing``:
the bytes go to ``<file>.tmp`` beside the target, which ``os.replace``
then puts in its place, so a file on disk is always a whole write, the
old one or the new.  ``replace_text`` writes a string that way.

``reader`` yields a file's header and its numbered data rows, read as
UTF-8 with or without a byte-order mark; it raises ``DataFormatError``
for an empty file or a row whose cell count differs from the header's,
and skips blank lines.  ``read_sidecar`` reads an
``id,<name>...`` file (features and predictions of float64, labels of
int8 codes) from the ``<file>.npy`` sidecar that ``write_id_matrix``
left beside it, while its sha256 of the file, its dtype and its shape
still match.  ``read_id_matrix`` reads float files by it, and otherwise
by the checked row loop ``read_id_rows``.  A sidecar gives what the
checked reader would, so a deleted sidecar costs only time.
``write_id_matrix`` leaves alone a file whose sidecar already holds what
it would write.  This module alone saves and loads ``.npy`` files and
hashes files.

Files are written with the excel dialect and ``"\\n"`` line endings:
small tables by ``write_table``, and matrices (features, labels,
predictions, ROC points) by ``write_rows``, hashed as they are written
for the sidecar: each cell a zone of bytes in a numpy array, float64s
laid out by ``float_cells`` as ``repr`` writes them, and the NULs dropped.
Text fields are quoted as ``csv.writer`` quotes them, and also where they
hold a carriage return, which ``csv.reader`` would take for a line end.
``write_rows`` searches the id column once, and where no id needs
quoting it joins a chunk's ids in one call and lays them beside the
chunk's cell lines with no Python code per row.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import os
import re
from array import array
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DataFormatError

# Cells laid out per write; bounds the bytes of the arrays alive at once.
CHUNK_CELLS = 4096

_MAY_NEED_QUOTING = re.compile(r'[,"\r\n]').search


def _text_field(text: str) -> str:
    """A text field as ``csv.writer`` writes it within a row, and quoted
    also where it holds a carriage return, which ``csv.reader`` would
    otherwise take for the end of the row."""
    if not _MAY_NEED_QUOTING(text):
        return text
    return '"' + text.replace('"', '""') + '"'


@contextmanager
def reader(path) -> Iterator[tuple[list[str], Iterator[tuple[int, list[str]]]]]:
    """Yield ``(header, rows)``; ``rows`` gives each data row as ``(line, cells)``."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
    return read_sidecar(path, np.float64) or read_id_rows(path, what)


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


def read_sidecar(path, dtype) -> tuple[tuple, tuple, np.ndarray] | None:
    """The column names after ``id``, the ids and the ``dtype`` matrix
    from the sidecar of the file at ``path``, or None where there is no
    sidecar or it does not match.

    The sidecar must hold three arrays and nothing more: the sha256 of
    the file, which is checked last and only if the rest holds, a 1-D
    array of ids, and a C-order ``dtype`` matrix of one row per id and
    one column per header name after ``id``.  No field may exceed
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
        and matrix.dtype == dtype
        and matrix.flags.c_contiguous
        and matrix.shape == (ids.size, len(header) - 1)
        and header[:1] == ["id"]
        and max(ids.dtype.itemsize // 4, 24) <= csv.field_size_limit()
        and digest.item() == sha256_file(path)
    ):
        return None
    return tuple(header[1:]), tuple(ids.tolist()), matrix


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


# ---------------------------------------------------------------------------
# Float cells: the bytes of ``repr(x)`` for a block of float64s at once.
#
# ``repr`` gives the shortest decimal that reads back as x, and of those
# the closest to x, ties to an even last digit.  So does Schubfach
# (R. Giulietti, "The Schubfach way to render doubles", 2020), which
# ``_shortest`` runs over uint64 arrays: numpy's array multiply wraps at
# 2**64, so each 64x64-bit product is built from 32-bit halves.  Its
# 2-digit floor for subnormals, a rule of Java's format, is left out.

# Bytes of a cell's zone, as 7 uint64 words: the head (sign, and "0."
# with up to three zeros), 24 bytes of leading digits then the dot in
# byte 17, and 24 of trailing digits then the tail ("0", "e+NN", "nan"
# or "inf") in bytes 17-22; byte 23 stays NUL for the separator.
CELL_BYTES = 56
# Exponent range of Schubfach's scaled powers of ten g(k).
_K_MIN, _K_MAX = -324, 292
_M32, _M52, _M63 = (1 << 32) - 1, (1 << 52) - 1, (1 << 63) - 1


class _FloatTables(NamedTuple):
    g: np.ndarray  # (5, k - _K_MIN): g1 and g0's 32-bit halves, then g1
    quad_text: np.ndarray  # 4 ASCII digits of 0..9999 as a uint64
    quad_zeros: np.ndarray  # trailing zeros of those 4 digits
    pow10: np.ndarray
    masks: np.ndarray  # (3, n): the words of 24 bytes, the first n 0xFF
    heads: np.ndarray  # by 5 * sign + leading zeros + 1; 0: no "0."
    tails: np.ndarray  # at byte 1: "", "0", "nan", "inf", then e-324..e+308


@functools.cache
def _float_tables() -> _FloatTables:
    """``float_cells``'s tables, built on first use."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        # g(k) = floor(10**-k * 2**(125 - r)) + 1 with r = flog2pow10(-k):
        # 126 bits, split at bit 63 into g1 and g0
        shift = 125 - ((-k * 913124641741) >> 38)
        num, den = 10 ** max(-k, 0), 10 ** max(k, 0)
        gk = ((num << shift) // den if shift >= 0 else num // (den << -shift)) + 1
        g.append((gk >> 63, gk & _M63))
    g1, g0 = np.array(g, dtype=np.uint64).T
    quads = [b"%04d" % i for i in range(10_000)]
    heads = [s + z for s in (b"", b"-") for z in (b"", b"0.", b"0.0", b"0.00", b"0.000")]
    tails = [b"", b"0", b"nan", b"inf"] + [b"e%+03d" % e for e in range(-324, 309)]
    return _FloatTables(
        g=np.stack([g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32, g1]),
        quad_text=np.array(quads, dtype="S4").view(np.uint32).astype(np.uint64),
        quad_zeros=np.array([4] + [4 - len(q.rstrip(b"0")) for q in quads[1:]]),
        pow10=np.array([10**i for i in range(20)], dtype=np.uint64),
        masks=np.array([b"\xff" * n for n in range(18)], "S24").view(np.uint64).reshape(18, 3).T,
        heads=np.array(heads, dtype="S8").view(np.uint64),
        tails=np.array([b"\0" + tail for tail in tails], dtype="S8").view(np.uint64),
    )


def _mulhi(a1, a0, b1, b0):
    """The high 64 bits of (a1 * 2**32 + a0) * (b1 * 2**32 + b0)."""
    low = a0 * b0
    mid = a1 * b0 + (low >> 32)
    return a1 * b1 + (mid >> 32) + (((mid & _M32) + a0 * b1) >> 32)


def _round_to_odd(g, cp):
    """Schubfach's rop(g, cp): floor(g * cp / 2**127), its lowest bit set
    where bits 64-126 of the product are not all zero."""
    g1h, g1l, g0h, g0l, g1 = g
    ch, cl = cp >> 32, cp & _M32
    z = ((g1 * cp) >> 1) + _mulhi(g0h, g0l, ch, cl)
    return (_mulhi(g1h, g1l, ch, cl) + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(s, k)`` with s * 10**k the decimal ``repr`` gives, for the uint64
    bits of finite nonzero float64s."""
    biased = ((bits >> 52) & 0x7FF).astype(np.int64)
    t = bits & _M52
    c = t | ((biased > 0).astype(np.uint64) << 52)
    q = np.maximum(biased, 1) - 1075  # x = c * 2**q
    # a power of two above the least normal has a narrower interval below
    irregular = (t == 0) & (biased > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    g = _float_tables().g[:, k - _K_MIN]
    odd = c & 1  # an odd c leaves the interval open
    cb = c << 2
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - 2 + irregular) << h)
    vbr = _round_to_odd(g, (cb + 2) << h)
    # one digit fewer: sp10 or sp10 + 10, where just one is in the interval
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl + odd <= sp10 << 2
    wpin = ((sp10 + 10) << 2) + odd <= vbr
    # else the one of s and s + 1 in the interval, or the closer, or even s
    uin = vbl + odd <= s << 2
    win = ((s + 1) << 2) + odd <= vbr
    cmp = vb.view(np.int64) - ((2 * s + 1) << 1).view(np.int64)
    lower = np.where(uin != win, uin, (cmp < 0) | ((cmp == 0) & ((s & 1) == 0)))
    s = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10), np.where(lower, s, s + 1))
    return s, k


def _digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(n, point, words)`` for finite nonzero float64 bits: the count of
    significant digits, the place of the decimal point (x = 0.d1d2... *
    10**point) and 17 digits, zeros after the n-th, as 3 words of ASCII."""
    tables = _float_tables()
    s, k = _shortest(bits)
    length = np.searchsorted(tables.pow10, s, side="right")  # s < 10**17
    quads, lead = [], s * tables.pow10[17 - length]  # 17 digits
    for _ in range(4):  # the 16 digits after the first, four at a time
        rest = lead // 10_000
        quads.insert(0, lead - rest * 10_000)
        lead = rest
    text = [tables.quad_text[quad] for quad in quads]
    trailing = 0
    for quad in quads:
        trailing = tables.quad_zeros[quad] + (quad == 0) * trailing
    word0 = (lead + ord("0")) | (text[0] << 8) | (text[1] << 40)
    word1 = (text[1] >> 24) | (text[2] << 8) | (text[3] << 40)
    return 17 - trailing, length + k, np.stack([word0, word1, text[3] >> 24], axis=1)


def float_cells(values: np.ndarray) -> np.ndarray:
    """The ``repr`` of each float64 of ``values`` as ASCII in a zone of
    ``CELL_BYTES`` bytes, NUL where unused: shape ``values.shape +
    (CELL_BYTES,)``, each zone's last byte NUL.

    ``repr`` writes ``[-]ddd.ddd`` where the decimal point falls after
    digit -3 to 16 of the shortest digits (``0.000ddd``, ``ddd00.0``),
    and ``[-]d[.ddd]e[+-]XX`` elsewhere; zero is ``0.0`` and ``-0.0``.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    bits = x.reshape(-1).view(np.uint64)
    tables = _float_tables()
    special = (bits >> 52 & 0x7FF) == 0x7FF
    nan = special & ((bits & _M52) != 0)
    numeric = ((bits << 1) != 0) & ~special
    if numeric.all():  # every cell finite and nonzero, as in features and predictions
        n, point, words = _digits(bits)
    else:
        n = (~special).astype(np.int64)  # zero: the digit "0", the point after it
        point = np.ones(bits.size, dtype=np.int64)
        words = np.tile(np.array([ord("0"), 0, 0], dtype=np.uint64), (bits.size, 1))
        if numeric.any():
            n[numeric], point[numeric], words[numeric] = _digits(bits[numeric])
    fixed = (point > 0) & (point <= 16) & ~special
    fraction = (point > -4) & (point <= 0)
    exponent = ~(fixed | fraction | special)
    whole = np.where(fixed, point, exponent)  # the digits before the dot
    sign = (bits >> 63).astype(np.int64) & ~nan
    zones = np.empty((bits.size, CELL_BYTES // 8), dtype=np.uint64)
    zones[:, 0] = tables.heads[5 * sign + np.where(fraction, 1 - point, 0)]
    for w in range(3):
        before = tables.masks[w][whole]
        zones[:, 1 + w] = words[:, w] & before
        zones[:, 4 + w] = words[:, w] & tables.masks[w][n] & ~before
    zones[:, 3] |= (fixed | (exponent & (n > 1))).astype(np.uint64) * (ord(".") << 8)
    # tails[1] is the "0" after a dot with no digit behind it
    tail = np.where(fixed, point >= n, np.where(exponent, point + 327, 0))
    zones[:, 6] |= tables.tails[np.where(special, 3 - nan, tail)]
    return zones.view(np.uint8).reshape(*x.shape, CELL_BYTES)


@contextmanager
def replacing(path) -> Iterator[BinaryIO]:
    """A binary file that replaces the file at ``path`` when the block ends.

    The bytes go to ``<path>.tmp``, which ``os.replace`` puts in place of
    ``path`` once the block has finished; if it raises, the partial file
    is deleted and ``path`` keeps its old bytes.  A ``.tmp`` that a
    killed process left is overwritten by the next write of its target.
    """
    partial = Path(f"{os.fspath(path)}.tmp")
    try:
        with open(partial, "wb") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def replace_text(path, text: str) -> None:
    """Replace the file at ``path`` with ``text`` in UTF-8, through ``replacing``."""
    with replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def write_table(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows of at least two fields each as ``csv.writer``
    does, each field the ``str`` of its value (None: empty) quoted as
    ``_text_field`` quotes it."""
    lines = (
        ",".join("" if value is None else _text_field(str(value)) for value in row) + "\n"
        for row in [header, *rows]
    )
    replace_text(path, "".join(lines))


def _leads(ids: Sequence[str], quoted: bool) -> list[bytes]:
    """Each id as ``_text_field`` quotes it, followed by a comma.

    ``quoted`` tells whether any id needs quoting.  Where none does, every
    lead comes from one join and one encode, split at the line ends no id
    holds.
    """
    if quoted:
        return [(_text_field(row_id) + ",").encode() for row_id in ids]
    return (",\n".join(ids) + ",").encode().split(b"\n")


def write_rows(
    path,
    header: Sequence[str],
    ids: Sequence[str] | None,
    cells: np.ndarray,
    cell_zones: Callable[[np.ndarray], np.ndarray] = float_cells,
    quoted: bool = False,
) -> str:
    """Write ``header`` and one line per row of ``cells``, each led by its
    id where there are ``ids``; return the hex sha256 of the bytes written.

    ``cell_zones`` lays out a block of rows of ``cells`` as one zone of
    bytes per cell, NUL where unused and in the zone's last byte, which
    takes the separator; the bytes must need no quoting.  ``cells`` has at
    least one column, and a row without an id must not be one empty cell,
    which would read as a blank line; a header that does not name every
    column is refused before any file opens.  ``quoted`` tells whether any
    id needs quoting, as the caller found by one search of the ids; if so,
    they are quoted as ``_text_field`` quotes them.  The ids' leads are
    built a chunk of rows at a time.
    """
    n_rows, width = cells.shape
    columns = width + (ids is not None)
    if len(header) != columns:
        raise ValueError(f"{path}: {len(header)} header names for {columns} columns")
    step = max(1, CHUNK_CELLS // width)
    digest = hashlib.sha256()
    with replacing(path) as fh:
        lines = ",".join(map(_text_field, header)).encode() + b"\n"
        digest.update(lines)
        fh.write(lines)
        for start in range(0, n_rows, step):
            zones = cell_zones(cells[start : start + step])
            zones[..., -1] = ord(",")
            zones[:, -1, -1] = ord("\n")
            lines = zones[zones != 0].tobytes()
            if ids is not None:
                leads = _leads(ids[start : start + step], quoted)
                lines = b"".join(chain.from_iterable(zip(leads, lines.splitlines(keepends=True))))
            digest.update(lines)
            fh.write(lines)
    return digest.hexdigest()


def _scan(text: str) -> tuple[bool, bool]:
    """Whether ``text`` holds a character that needs quoting, and a NUL."""
    return bool(_MAY_NEED_QUOTING(text)), "\0" in text


def write_id_matrix(
    path, header: Sequence[str], ids: Sequence[str], matrix: np.ndarray, cell_zones=float_cells
) -> None:
    """Write an ``id,<name>...`` file of ``matrix`` rows as ``write_rows``
    does, then its sidecar: the file's sha256, the ids and the
    matrix as its reader returns it (every NaN as ``float("nan")``).

    A file whose sidecar, checked by ``read_sidecar``, holds this header,
    these ids and this matrix bit for bit (``0.0`` and ``-0.0`` differ)
    is left alone, with its sidecar.  A file without rows, or with an id
    or a column name that needs quoting or holds a NUL, gets no sidecar,
    and loses any it had: the checked loop reads such files.  A matrix
    without columns is refused.
    """
    if matrix.shape[1] == 0:
        raise ValueError(f"{path}: a matrix without columns has no cells to write")
    held = read_sidecar(path, matrix.dtype)
    if (
        held is not None
        and ("id", *held[0]) == tuple(header)
        and held[1] == tuple(ids)
        and held[2].tobytes() == matrix.tobytes()
    ):
        return
    del held  # not kept alive through the write
    quoted, nul = _scan("".join(ids))  # the joined ids are freed before the write
    digest = write_rows(path, header, ids, matrix, cell_zones, quoted)
    sidecar = sidecar_path(path)
    if not len(ids) or quoted or nul or any(_scan("".join(header))):
        sidecar.unlink(missing_ok=True)
        return
    nan = np.isnan(matrix)
    # C order: ``read_sidecar`` accepts no other
    parsed = np.ascontiguousarray(np.where(nan, np.nan, matrix) if nan.any() else matrix)
    with replacing(sidecar) as fh:
        for array in (np.array(digest), np.array(ids, dtype=str), parsed):
            np.save(fh, array, allow_pickle=False)
