"""Small output helpers: lossless float text, CSV text, atomic file writes, digests."""

from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np


def fmt_float(x: float) -> str:
    """Format with 17 significant digits: parsing the text recovers the bits."""
    return format(float(x), ".17g")


def csv_text(header, columns) -> str:
    """CSV text: the header row, then row i holds entry i of every column.

    A column whose first entry is a float (numpy floats included) is written
    with fmt_float, any other column with str.  Columns are formatted whole,
    then joined row by row.
    """
    cells = []
    for column in columns:
        values = column.tolist() if isinstance(column, np.ndarray) else list(column)
        fmt = fmt_float if values and isinstance(values[0], float) else str
        cells.append(map(fmt, values))
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def atomic_write(path, data: str) -> None:
    """Write text to path via a temp file + rename; never leaves partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_text(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def sha256_file(path) -> str:
    """sha256 of a file's bytes, read in 1 MiB blocks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
