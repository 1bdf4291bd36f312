"""Deterministic file emission.

Matrices are written as row-major lists of ``[re, im]`` pairs, the form in
which configs give them (``oqctrl.cli`` reads those).  All floating-point
output is printed with 17 significant digits so files round-trip
bit-exactly and identical (config, seed) pairs produce byte-identical
outputs.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# the one float format of every emitted file: 17 significant digits
# round-trip any float64 exactly
FLOAT_FORMAT = "%.17g"
CSV_BLOCK_ROWS = 4096  # rows of a float array formatted per file write


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


def _write_rows(f, rows: Iterable[Sequence]) -> None:
    """Write one line per row to ``f``, each as it is formatted; a 2-D float
    array goes in blocks of ``CSV_BLOCK_ROWS`` rows, one template each, with
    the same text as formatting it cell by cell."""
    if not (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f"):
        for row in rows:
            f.write(",".join(fmt(x) for x in row) + "\n")
        return
    line = ",".join([FLOAT_FORMAT] * rows.shape[1]) + "\n"
    for lo in range(0, rows.shape[0], CSV_BLOCK_ROWS):
        block = rows[lo : lo + CSV_BLOCK_ROWS]
        f.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


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
        with part.open("w") as f:
            f.write(",".join(header) + "\n")
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
