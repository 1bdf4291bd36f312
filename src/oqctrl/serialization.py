"""Deterministic file emission.

Matrices are written as row-major lists of ``[re, im]`` pairs, the form in
which configs give them (``oqctrl.cli`` reads those).  All floating-point
output is printed with 17 significant digits so files round-trip
bit-exactly and identical (config, seed) pairs produce byte-identical
outputs.

A 2-D float array goes to CSV through an exact numpy encoder of that text
(``_csv_bytes``), ``CSV_BLOCK_CELLS`` cells at a time: a cell in the fixed
notation of the format (1e-4 <= |x| < 1e17) gets its 17 digits from an
error-free product (Dekker, Numer. Math. 18, 224 (1971)) and its bytes from
lookup tables; zeros are written by index, and every other cell (smaller,
larger or not finite) goes through ``fmt``.  The bytes are those of ``fmt``
on every cell.
"""

from __future__ import annotations

import functools
import hashlib
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# the one float format of every emitted file: 17 significant digits
# round-trip any float64 exactly
FLOAT_FORMAT = "%.17g"
# cells of a float array encoded per file write, whatever its number of
# columns; the largest temporaries (40 bytes a cell) stay below 128 KiB,
# glibc's threshold for mapping fresh pages per allocation
CSV_BLOCK_CELLS = 3072
# rows of such a block of a three-column array, as points.csv
CSV_BLOCK_ROWS = CSV_BLOCK_CELLS // 3


def matrix_to_lists(m: np.ndarray) -> list:
    """Row-major [re, im] pairs of a complex matrix, the form in which configs
    give matrices; ``oqctrl.cli`` reads them back bit-exactly."""
    a = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def fmt(x) -> str:
    """Scalar formatting: floats at 17 significant digits."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return FLOAT_FORMAT % float(x)
    return str(x)


# The encoder lays each cell out in 40 bytes, five uint64 words, and deletes
# the NUL bytes.  Word 0 holds the sign, "0." and up to three zeros of a
# number below 1, then the first digit and a gap; words 1-4 hold four digits
# each, every digit followed by a gap.  The gap after digit X (the decimal
# exponent) takes the "." of a number >= 1, and the last gap the separator.
_CELL_BYTES = 40
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter: 53-bit doubles into 26-bit halves
# by c = X + 4 for X = -4..16: 10^(16 - X) (exact below 10^23) and its halves
_SCALE = np.array([float(10**k) for k in range(20, -1, -1)])
_SCALE_HI = _SPLIT * _SCALE - (_SPLIT * _SCALE - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI
# the class of a zero (and of the cells fmt writes), after c = 0..20
_ZERO = 21
# by c: the byte of the "." (a number below 1 has it in word 0 already;
# X = 16 and zeros, whole numbers, write a NUL to a gap)
_DOT = np.array([2] * 4 + [7 + 2 * x for x in range(16)] + [37] * 2)


@functools.cache
def _group_words() -> np.ndarray:
    """[g]: the four digits of 0 <= g < 10^4, one each in bytes 0, 2, 4, 6;
    [10^4 + g]: the same with the trailing zeros NUL.  Built on first use,
    so a process that writes no float array holds no table."""
    digits = np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    words = np.zeros((2, 10_000, 8), np.uint8)
    words[:, :, ::2] = digits + ord("0")
    words[1, :, ::2][trailing] = 0
    return _read_only(words)


@functools.cache
def _lead_words() -> np.ndarray:
    """[(22 s + c) 10 + d]: word 0 of a cell of sign s (1 for "-"), class c
    and first digit d; a zero's class writes "0" whatever d."""
    words = np.zeros((2, _ZERO + 1, 10, 8), np.uint8)
    words[1, :, :, 0] = ord("-")
    for c in range(4):  # X = c - 4
        words[:, c, :, 1:3] = np.frombuffer(b"0.", np.uint8)
        words[:, c, :, 3 : 6 - c] = ord("0")
    words[:, :_ZERO, :, 6] = np.arange(ord("0"), ord("9") + 1)
    words[:, _ZERO, :, 6] = ord("0")
    return _read_only(words)


def _read_only(words: np.ndarray) -> np.ndarray:
    """The rows of 8 bytes as one flat, read-only uint64 table."""
    table = words.view(np.uint64).ravel()
    table.flags.writeable = False
    return table


def _rounded(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a 10^(16 - X) rounded half-even to an int64, for c = X + 4.  Dekker's
    product of Veltkamp-split factors gives it exactly as p + e with p the
    rounded product (no overflow for a < 1e17); p >= 2^53 is an even
    integer, so p + rint(e) rounds the exact value half-even."""
    b, b_hi, b_lo = _SCALE[c], _SCALE_HI[c], _SCALE_LO[c]
    a_hi = _SPLIT * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    p = a * b
    e = a_hi * b_hi
    e -= p
    e += a_hi * b_lo
    e += a_lo * b_hi
    a_lo *= b_lo
    e += a_lo
    d = p.astype(np.int64)
    d += np.rint(e).astype(np.int64)
    return d


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, d) for 1e-4 <= a < 1e17: c = X + 4 with X = floor(log10 a), and
    d = a 10^(16 - X) rounded half-even (``_rounded``), 10^16 <= d < 10^17.

    No double below a power of ten 10^m (-4 <= m <= 17) lies within half a
    17th digit of it.  So d shows whether a guess of X is one too large
    (d < 10^16) or one too small (d >= 10^17), and rounding never carries d
    to 10^17."""
    c = np.log10(a)
    np.floor(c, out=c)
    c = c.astype(np.intp)
    c += 4
    np.clip(c, 0, 20, out=c)
    d = _rounded(a, c)
    # log10 may miss X by one next to a power of ten
    off = np.flatnonzero((d < 10**16) | (d >= 10**17))
    if off.size:
        c[off] += np.where(d[off] < 10**16, -1, 1)
        d[off] = _rounded(a[off], c[off])
    return c, d


def _csv_bytes(block: np.ndarray) -> bytes:
    """The CSV lines of a 2-D float array: byte for byte ``fmt`` of each
    cell, cells joined by "," and each row ended by a newline."""
    rows, cols = block.shape
    if cols == 0:
        return b"\n" * rows
    x = np.asarray(block, dtype=np.float64).ravel()
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    rest = ~fixed
    np.copyto(a, 1.0, where=rest)  # 1.0 stands in for zeros and the cells fmt writes
    c, d = _decimal(a)
    np.copyto(c, _ZERO, where=rest)
    # the digits d: the first one, then the groups g1 g2 g3 g4 of four
    g2 = d // 10**8
    d -= g2 * 10**8
    lead = g2 // 10**8
    g2 -= lead * 10**8
    g1 = g2 // 10**4
    g2 -= g1 * 10**4
    g3 = d // 10**4
    d -= g3 * 10**4
    words = np.empty((x.size, 5), np.uint64)
    lead += c * 10
    lead += np.signbit(x) * ((_ZERO + 1) * 10)
    words[:, 0] = _lead_words()[lead]
    # a group loses its trailing zeros when the groups after it are all
    # zero; an integer keeps its digits unless it ends in 0, and those
    # integers go through fmt below
    groups = _group_words()
    tail = np.ones(x.size, bool)
    for k, g in ((4, d), (3, g3), (2, g2), (1, g1)):
        g += tail * 10_000
        words[:, k] = groups[g]
        tail &= g == 10_000
    cells = words.view(np.uint8)
    whole = a == np.floor(a)
    at = _DOT[c]
    at += np.arange(0, _CELL_BYTES * x.size, _CELL_BYTES)
    cells.reshape(-1)[at] = ~whole * np.uint8(ord("."))
    cells.reshape(rows, cols, _CELL_BYTES)[:, :, -1] = [ord(",")] * (cols - 1) + [ord("\n")]
    whole = np.flatnonzero(whole & fixed)
    spelled = np.concatenate([np.flatnonzero(rest & (x != 0)), whole[a[whole] % 10 == 0]])
    if spelled.size:
        text = np.array([fmt(v) for v in x[spelled].tolist()], dtype=f"S{_CELL_BYTES - 1}")
        cells[spelled, :-1] = text.view(np.uint8).reshape(-1, _CELL_BYTES - 1)
    return cells.tobytes().translate(None, b"\0")


def _write_rows(f, rows: Iterable[Sequence]) -> None:
    """Write one line per row to the binary file ``f``, each as it is
    formatted; a 2-D float array goes through ``_csv_bytes`` in blocks of
    ``CSV_BLOCK_CELLS`` cells, with the same text as formatting it cell by
    cell."""
    if not (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f"):
        for row in rows:
            f.write((",".join(fmt(x) for x in row) + "\n").encode())
        return
    step = max(1, CSV_BLOCK_CELLS // max(1, rows.shape[1]))
    for lo in range(0, rows.shape[0], step):
        f.write(_csv_bytes(rows[lo : lo + step]))


@contextmanager
def csv_row_blocks(path: Path, header: Sequence[str]) -> Iterator[Callable[[Iterable], None]]:
    """Yield a function that appends rows (a 2-D float array or rows of
    cells) to a CSV file with this header; the blocks appended in turn give
    the text their concatenation gives.  The text goes to a ``.part`` file
    beside ``path``, which becomes ``path`` when the block exits normally
    and is removed when it raises, so no partial file is left."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        with part.open("wb") as f:
            f.write((",".join(header) + "\n").encode())
            yield lambda rows: _write_rows(f, rows)
        part.replace(path)
    finally:
        part.unlink(missing_ok=True)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Header line, then one line per row (see :func:`csv_row_blocks`, which
    writes it): no file if the rows raise."""
    with csv_row_blocks(path, header) as append:
        append(rows)


def _render_json(obj, indent: int) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_render_json(v, indent + 2)}'
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}  {_render_json(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path: Path, obj) -> None:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    Path(path).write_text(_render_json(obj, 0) + "\n")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
