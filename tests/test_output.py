import numpy as np

from rmflab.experiments import resolve_threads
from rmflab.output import atomic_write, fmt_float, sha256_file, sha256_text


def test_fmt_float_round_trips():
    rng = np.random.default_rng(12)
    values = list(rng.normal(size=200) * 10.0 ** rng.integers(-12, 12, size=200))
    values += [0.0, 1.0, -1.0, 1e-300, float(np.pi)]
    for x in values:
        assert float(fmt_float(x)) == float(x)


def test_atomic_write_creates_dirs_and_no_temp_left(tmp_path):
    target = tmp_path / "a" / "b" / "out.csv"
    atomic_write(target, "x,y\n1,2\n")
    assert target.read_text() == "x,y\n1,2\n"
    leftovers = [p for p in (tmp_path / "a" / "b").iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
    assert sha256_file(target) == sha256_text("x,y\n1,2\n")


def test_resolve_threads_env(monkeypatch):
    assert resolve_threads(3) == 3
    monkeypatch.setenv("RMF_LAB_THREADS", "5")
    assert resolve_threads(None) == 5
    monkeypatch.delenv("RMF_LAB_THREADS")
    assert resolve_threads(None) >= 1
