import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rmflab.experiments import _write_run, resolve_threads
from rmflab.output import BLOCK, atomic_write, csv_blocks, fmt_float, sha256_file, sha256_text

from oracles import csv_text


def test_fmt_float_round_trips():
    rng = np.random.default_rng(12)
    values = list(rng.normal(size=200) * 10.0 ** rng.integers(-12, 12, size=200))
    values += [0.0, 1.0, -1.0, 1e-300, float(np.pi)]
    for x in values:
        assert float(fmt_float(x)) == float(x)


def test_atomic_write_creates_dirs_and_no_temp_left(tmp_path):
    target = tmp_path / "a" / "b" / "out.csv"
    digest = atomic_write(target, "x,y\n1,2\n")
    assert target.read_text() == "x,y\n1,2\n"
    leftovers = [p for p in (tmp_path / "a" / "b").iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
    assert sha256_file(target) == sha256_text(["x,y\n1,2\n"]) == digest


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.225e-308, 1e308]
ROWS = (0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1)


@st.composite
def column(draw, rows: int):
    """A column of `rows` entries: a list of floats, ints, bools or a mix, a
    numpy array or a range.  The drawn entries repeat to fill the rows."""
    kind = draw(st.sampled_from(["float", "int", "bool", "mixed", "array", "range"]))
    if kind == "range":
        start, step = draw(st.integers(-10**6, 10**6)), draw(st.integers(-50, 50).filter(bool))
        return range(start, start + rows * step, step)
    floats = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    ints = st.integers(-2**60, 2**60)
    entries = {"float": floats, "int": ints, "bool": st.booleans(), "mixed": floats | ints | st.booleans(),
               "array": floats}[kind]
    drawn = draw(st.lists(entries, min_size=1, max_size=8))
    values = [drawn[i % len(drawn)] for i in range(rows)]
    if kind != "array":
        return values
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]))
    with np.errstate(all="ignore"):
        return np.array(values, dtype=np.float64).astype(dtype)


@st.composite
def tables(draw):
    rows = draw(st.sampled_from(ROWS) | st.integers(0, 40))
    width = draw(st.integers(0, 3))
    header = draw(st.lists(st.text("abcxyz_", min_size=1, max_size=6), min_size=width, max_size=width))
    return header, [draw(column(rows)) for _ in range(width)]


@settings(deadline=None, max_examples=40)
@given(tables())
@example((["x", "value"], [range(1, BLOCK + 2), np.linspace(-1.0, 1.0, BLOCK + 1)]))
@example((["x"], [[]]))
@example(([], []))
def test_csv_blocks_join_to_the_oracle_text(table):
    header, columns = table
    blocks = list(csv_blocks(header, columns))
    assert "".join(blocks) == csv_text(header, columns)
    rows = min(map(len, columns), default=0)
    assert len(blocks) == 1 + -(-rows // BLOCK)


def test_a_formatting_error_partway_keeps_the_old_file(tmp_path):
    manifest = {"command": "test"}
    _write_run(tmp_path, manifest, {"a.csv": csv_blocks(("x",), ([1.0, 2.0],))})
    old = (tmp_path / "a.csv").read_bytes()
    # %.17g of None fails in the second block, after the first is written
    bad = [0.5] * (BLOCK + 1) + [None]
    with pytest.raises(TypeError):
        _write_run(tmp_path, manifest, {"a.csv": csv_blocks(("x",), (bad,))})
    assert (tmp_path / "a.csv").read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "manifest.json"]
    assert json.loads((tmp_path / "manifest.json").read_text())["csv_sha256"] is None


def test_resolve_threads_env(monkeypatch):
    assert resolve_threads(3) == 3
    monkeypatch.setenv("RMF_LAB_THREADS", "5")
    assert resolve_threads(None) == 5
    monkeypatch.delenv("RMF_LAB_THREADS")
    assert resolve_threads(None) >= 1
