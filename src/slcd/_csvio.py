"""The dataset CSV codec: an n-by-m matrix as m lines of n
comma-separated numbers with 17 significant digits, written and read in
pieces on up to one process per usable CPU (see _fork._workers).

datagen imports this module on the first save or load, so that importing
slcd compiles and loads none of it.
"""
from __future__ import annotations

import io
import os
import shutil
import tempfile

import numpy as np

from . import _fork

# Samples formatted per write: large enough that the per-block Python
# overhead vanishes, small enough that the block's text (about 0.6 MB at
# n = 7) stays a small fraction of X.
_WRITE_BLOCK = 4096

# The pieces handed to the processes: samples per piece written, and
# bytes per piece parsed (about 15 000 lines at n = 7). Several pieces
# per process even out their finishing times; each piece costs a task
# and a file open.
_WRITE_PIECE = 8 * _WRITE_BLOCK
_READ_PIECE = 1 << 21

def _write_samples(X: np.ndarray, start: int, stop: int, fh) -> None:
    """Write samples start..stop of X to the text file fh, _WRITE_BLOCK
    at a time, each through one '%' on a format string of that many
    lines of n '%.17g' fields."""
    line = ",".join(["%.17g"] * X.shape[0]) + "\n"
    for first in range(start, stop, _WRITE_BLOCK):
        block = X[:, first:min(first + _WRITE_BLOCK, stop)]
        fh.write((line * block.shape[1]) % tuple(block.T.ravel().tolist()))


def _write_part(X: np.ndarray, start: int, stop: int, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        _write_samples(X, start, stop, fh)
    return path


def write(X: np.ndarray, path: str) -> None:
    """Write X to path, one sample (column) per line; the bytes are those
    of np.savetxt(fh, X.T, fmt="%.17g", delimiter=",").

    Pieces of _WRITE_PIECE samples are formatted on a pool of processes,
    each into a part file beside path that this process then appends to
    path; in this process, the samples are written in order. Either way
    this process holds no more text than one _WRITE_BLOCK."""
    m = X.shape[1]
    pieces = [(start, min(start + _WRITE_PIECE, m)) for start in range(0, m, _WRITE_PIECE)]
    if _fork._workers(len(pieces)) == 1:   # one file, no part files
        _write_part(X, 0, m, path)
        return
    # path is opened first, so that an unwritable path fails under its own
    # name; the pool exits first, so no worker still writes a part file
    # when the directory is removed
    with open(path, "wb") as fh, \
            tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(path))) as parts, \
            _fork._runner(len(pieces), X) as (_, run):
        tasks = [(start, stop, os.path.join(parts, f"{k}.csv"))
                 for k, (start, stop) in enumerate(pieces)]
        for part in run(_write_part, tasks):
            with open(part, "rb") as src:
                shutil.copyfileobj(src, fh)
            os.remove(part)


def _newlines(raw: bytes) -> bytes:
    """raw with each \\r\\n and each other \\r as \\n, as a text-mode read
    gives them."""
    return raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in raw else raw


def _cut(fh) -> tuple[list[tuple[int, int, int, int]], int]:
    """The pieces of the binary file fh, each _READ_PIECE bytes and on
    to the end of the line there: (start, stop, lines, rows) with its
    line count and its count of data rows, the non-empty lines. Also
    the number of cells on the first data row, 0 when there is none."""
    pieces, cols, start = [], 0, 0
    while True:
        raw = fh.read(_READ_PIECE) + fh.readline()
        if not raw:
            return pieces, cols
        text = _newlines(raw)
        ends = np.frombuffer(text, dtype=np.uint8) == ord("\n")
        # an empty line is a newline at the piece's start or after another
        empty = int(ends[0]) + int(np.count_nonzero(ends[1:] & ends[:-1]))
        lines = int(np.count_nonzero(ends)) + (not ends[-1])
        if not cols and lines > empty:
            cols = text.lstrip(b"\n").partition(b"\n")[0].count(b",") + 1
        pieces.append((start, start + len(raw), lines, lines - empty))
        start += len(raw)


def _parse(lines) -> np.ndarray:
    """The rows of lines, an iterable of text, as an (m, n) matrix."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _fault(raw: bytes, line: int, n: int) -> str | None:
    """'line: reason' for the first malformed line in raw, a piece of a
    file whose first line is the file's line number line; None if there
    is none. A line is malformed unless it is empty, or is UTF-8 text of
    n cells that are all numbers."""
    for k, text in enumerate(_newlines(raw).split(b"\n"), line):
        if not text:
            continue
        try:
            row = text.decode("utf-8")
        except UnicodeDecodeError:
            return f"{k}: not UTF-8 text"
        cells = row.split(",")
        if len(cells) != n:
            return (f"{k}: {len(cells)} column{'s' * (len(cells) != 1)}, "
                    f"but the first data row has {n}")
        for c, cell in enumerate(cells, 1):
            try:
                number = bool(cell) and _parse([cell]).size == 1   # "" is an empty line
            except ValueError:
                number = False
            if not number:
                return f"{k}: column {c}, {cell!r} is not a number"
    return None


def _parse_piece(state, start: int, stop: int, line: int, row: int, rows: int) -> str | None:
    """Parse one piece of the file into columns row..row + rows of X;
    or, when the piece is malformed, return its _fault. state is
    (path, n, X), X None when the file is known to be malformed."""
    path, n, X = state
    with open(path, "rb") as fh:
        fh.seek(start)
        raw = fh.read(stop - start)
    try:
        # decoded and its line ends read as a text-mode file reads them
        block = _parse(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except ValueError:
        block = None
    if block is None or block.shape != (rows, n):
        return _fault(raw, line, n) or f"{line}: a piece that could not be read"
    if X is not None:
        X[:, row:row + rows] = block.T
    return None


def read(path: str) -> np.ndarray:
    """The n-by-m matrix of the CSV file at path, read-only, in an
    anonymous shared mapping. Empty lines are skipped; any other line
    must hold the same number of numeric cells, else a ValueError names
    the first malformed line as 'path:line: reason'.

    The file is cut into pieces of about _READ_PIECE bytes, each ending
    with a line, whose lines and data rows this process counts. The
    pieces are then parsed on a pool of processes straight into the
    matrix; in this process, they are parsed in order."""
    import mmap

    with open(path, "rb") as fh:
        pieces, n = _cut(fh)
        size = fh.tell()
    m = sum(rows for *_, rows in pieces)
    if m == 0:
        raise ValueError(f"no data rows in {path}")
    # Each cell of a valid file takes at least 2 bytes, a digit and a
    # comma or newline (the last newline aside). More cells than that
    # mean short rows: the pieces then report the first, writing no X.
    X = None
    if 2 * n * m <= size + 1:
        X = np.frombuffer(mmap.mmap(-1, 8 * n * m), dtype=np.float64).reshape(n, m)
    tasks, line, row = [], 1, 0
    for start, stop, lines, rows in pieces:
        if rows:
            tasks.append((start, stop, line, row, rows))
        line, row = line + lines, row + rows
    # in this process, the pieces after the first malformed one are not parsed
    with _fork._runner(len(tasks), (path, n, X)) as (_, run):
        fault = next((f for f in run(_parse_piece, tasks) if f is not None), None)
    if fault is not None:
        raise ValueError(f"{path}:{fault}")
    X.flags.writeable = False
    return X
