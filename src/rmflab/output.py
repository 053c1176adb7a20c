"""Small output helpers: lossless float text, CSV blocks, atomic file writes, digests."""

from __future__ import annotations

import hashlib
import itertools
import os
import tempfile

import numpy as np

BLOCK = 2**16  # rows per block of csv_blocks


def fmt_float(x: float) -> str:
    """Format with 17 significant digits: parsing the text recovers the bits."""
    return format(float(x), ".17g")


def csv_blocks(header, columns):
    """CSV text in blocks: the header row, then BLOCK rows at a time, row i
    holding entry i of every column (lists, ranges or numpy arrays).  A column
    whose first entry, after .tolist(), is a float is written with %.17g (as
    fmt_float), any other with %s (as str); a block is one % of the repeated
    row template, so only one block of rows is ever held as text."""
    yield ",".join(header) + "\n"
    rows = min(map(len, columns), default=0)
    for start in range(0, rows, BLOCK):
        entries = [c[start : start + BLOCK] for c in columns]
        entries = [e.tolist() if isinstance(e, np.ndarray) else list(e) for e in entries]
        if start == 0:
            template = ",".join("%.17g" if isinstance(e[0], float) else "%s" for e in entries) + "\n"
        yield (template * min(BLOCK, rows - start)) % tuple(itertools.chain.from_iterable(zip(*entries)))


def sha256_text(blocks, sink=None) -> str:
    """sha256 of the UTF-8 text of the blocks; each encoded block also goes to sink, if given."""
    h = hashlib.sha256()
    for data in map(str.encode, blocks):
        h.update(data)
        if sink is not None:
            sink(data)
    return h.hexdigest()


def write_blocks(path, blocks) -> str:
    """Write the text blocks to path via a temp file + rename, hashing them as
    they go, and return their sha256; never leaves a partial file.  The file
    gets the mode open() gives, 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            digest = sha256_text(blocks, fh.write)
        umask = os.umask(0o022)  # the umask is read by setting it; restored at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest


def atomic_write(path, data: str) -> str:
    """write_blocks of the one block data."""
    return write_blocks(path, (data,))


def sha256_file(path) -> str:
    """sha256 of a file's bytes, read in 1 MiB blocks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
