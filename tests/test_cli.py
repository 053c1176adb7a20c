import argparse
import builtins
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from rmflab import errors, experiments, mellin, primes
from rmflab.cli import build_parser, parse_and_dispatch
from rmflab.series import engine_bytes

from conftest import host_of


def run_cli(*argv) -> int:
    return parse_and_dispatch(list(argv))


def run_python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter on args that imports the rmflab under test,
    whether or not it is installed."""
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_usage_error_exit_2():
    assert run_cli("no-such-command") == 2
    assert run_cli("euler", "--bogus-flag", "1") == 2


def test_domain_error_exit_3(capsys):
    assert run_cli("euler", "--model", "fstar", "--sigma", "0.4", "--t", "0") == 3
    err = capsys.readouterr().err
    assert "Re s > 1/2" in err


def test_io_error_exit_4(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code = run_cli(
        "series", "--model", "f", "--alpha", "0", "--limit", "10",
        "--minus-one", "--out", str(blocker / "sub"),
    )
    assert code == 4


def test_euler_command_prints_value(capsys):
    assert run_cli("euler", "--model", "f", "--sigma", "2.0", "--minus-one", "--prime-limit", "10000") == 0
    out = capsys.readouterr().out
    assert "value=" in out and "last_factor_deviation=" in out


def test_negative_t_prints_as_a_minus_sign(capsys):
    assert run_cli("euler", "--sigma", "0.6", "--t", "-3", "--prime-limit", "99") == 0
    assert capsys.readouterr().out.splitlines()[0] == "model=f s=0.59999999999999998-3i prime_limit=99"
    assert run_cli("mellin-check", "--alpha", "0.5", "--sigma", "0.75", "--t", "-3", "--limit", "99") == 0
    assert capsys.readouterr().out.splitlines()[0] == "model=f alpha=0.5 s=0.75-3i N=99"


def test_mellin_check_command(capsys):
    code = run_cli("mellin-check", "--alpha", "0.5", "--sigma", "0.75", "--limit", "20000", "--seed", "7")
    assert code == 0
    out = capsys.readouterr().out
    residual = float(out.split("residual=")[1].split()[0])
    assert residual <= 1e-9


def test_series_write_and_replay(tmp_path, capsys):
    outdir = tmp_path / "run"
    assert run_cli("series", "--model", "fstar", "--alpha", "0", "--limit", "1000",
                   "--seed", "3", "--out", str(outdir)) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["csv_sha256"]["series.csv"]
    assert (outdir / "series.csv").exists() and (outdir / "sign_changes.csv").exists()
    assert run_cli("replay", "--manifest", str(outdir / "manifest.json")) == 0


def test_replay_detects_tampering(tmp_path, capsys):
    outdir = tmp_path / "run"
    assert run_cli("sign-changes", "--model", "f", "--alpha", "0.5", "--limit", "2000",
                   "--trials", "4", "--seed", "5", "--out", str(outdir)) == 0
    manifest_path = outdir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["csv_sha256"]["trials.csv"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("replay", "--manifest", str(manifest_path)) == 1
    assert "differs: trials.csv" in capsys.readouterr().out

    outdir = tmp_path / "series"
    assert run_cli("series", "--model", "f", "--alpha", "0.5", "--limit", "500",
                   "--seed", "5", "--out", str(outdir)) == 0
    manifest_path = outdir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["csv_sha256"]["sign_changes.csv"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("replay", "--manifest", str(manifest_path)) == 1
    out = capsys.readouterr().out
    assert "differs: sign_changes.csv" in out and "series.csv" not in out


def test_experiment_command_with_assert_pass(tmp_path, capsys):
    code = run_cli(
        "positivity", "--limit", "200", "--trials", "50", "--seed", "9",
        "--out", str(tmp_path / "pos"), "--assert",
    )
    assert code in (0, 1)
    out = capsys.readouterr().out
    assert "assert:" in out


def _signs_file(tmp_path):
    """An explicit assignment for every prime below 100, alternating signs."""
    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
    path = tmp_path / "signs.txt"
    path.write_text("".join(f"{p} {(-1) ** i}\n" for i, p in enumerate(primes)))
    return path


WRITING_COMMANDS = {
    "sign-changes": ["sign-changes", "--model", "f", "--alpha", "0.25", "--limit", "2000",
                     "--trials", "3", "--seed", "4"],
    "positivity": ["positivity", "--limit", "200", "--trials", "5", "--seed", "4"],
    "harper": ["harper", "--trials", "2", "--seed", "4", "--sigma-grid", "0.58,0.55",
               "--prime-limit", "5000", "--limit", "1"],
    "divergence": ["divergence", "--model", "f", "--alpha", "0.5", "--limit", "2000",
                   "--trials", "2", "--seed", "11", "--sigma-grid", "0.58,0.54",
                   "--prime-limit", "4000"],
    "growth": ["growth", "--limit", "100", "--trials", "2", "--seed", "4"],
    "series": ["series", "--model", "fstar", "--alpha", "0.5", "--limit", "99", "--seed", "3"],
    "series-minus-one": ["series", "--model", "f", "--alpha", "0", "--limit", "99", "--minus-one"],
    "series-signs-file": ["series", "--model", "f", "--alpha", "0.5", "--limit", "99",
                          "--signs-file", "SIGNS"],
}


# The trials.csv schema of each experiment, as written since manifests
# gained a `columns` key; the records that produce them must not drift.
TRIALS_COLUMNS = {
    "sign-changes": ("trial", "seed", "count", "last_position"),
    "positivity": ("trial", "seed", "all_positive", "min_value"),
    "harper": ("trial", "seed", "sigma", "t_star", "sup_value", "centered_value", "grid_step", "prime_limit"),
    "divergence": ("trial", "seed", "sigma", "signed", "absolute", "harper_witness", "N", "prime_limit"),
    "growth": ("trial", "seed", "theta", "N", "value"),
}


@pytest.mark.parametrize("case", list(WRITING_COMMANDS))
def test_experiment_manifest_matches_replay(tmp_path, case):
    argv = [str(_signs_file(tmp_path)) if a == "SIGNS" else a for a in WRITING_COMMANDS[case]]
    outdir = tmp_path / "out"
    assert run_cli(*argv, "--out", str(outdir)) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["command"] == argv[0]
    for name, digest in manifest["csv_sha256"].items():
        assert hashlib.sha256((outdir / name).read_bytes()).hexdigest() == digest
    if case in TRIALS_COLUMNS:
        columns = TRIALS_COLUMNS[case]
        assert (outdir / "trials.csv").read_text().split("\n", 1)[0] == ",".join(columns)
        assert manifest["columns"] == list(columns)
    assert run_cli("replay", "--manifest", str(outdir / "manifest.json")) == 0


@pytest.mark.parametrize("case", ["series", "growth"])
def test_manifest_is_written_before_and_after_the_csvs(tmp_path, monkeypatch, case):
    # the manifests go through atomic_write, each CSV through write_blocks
    writes = []
    real_write, real_blocks = experiments.atomic_write, experiments.write_blocks

    def recording_write(path, data):
        writes.append((os.path.basename(path), json.loads(data)["csv_sha256"]))
        return real_write(path, data)

    def recording_blocks(path, blocks):
        text = "".join(blocks)
        writes.append((os.path.basename(path), text))
        return real_blocks(path, [text])

    monkeypatch.setattr(experiments, "atomic_write", recording_write)
    monkeypatch.setattr(experiments, "write_blocks", recording_blocks)
    assert run_cli(*WRITING_COMMANDS[case], "--out", str(tmp_path / "out")) == 0
    names = [name for name, _ in writes]
    assert names[0] == names[-1] == "manifest.json"
    assert "manifest.json" not in names[1:-1] and names[1:-1]
    assert writes[0][1] is None
    assert writes[-1][1] == {
        name: hashlib.sha256(text.encode()).hexdigest() for name, text in writes[1:-1]
    }


def test_replay_names_a_changed_signs_file(tmp_path, capsys):
    signs = _signs_file(tmp_path)
    outdir = tmp_path / "out"
    assert run_cli("series", "--model", "f", "--alpha", "0.5", "--limit", "99",
                   "--signs-file", str(signs), "--out", str(outdir)) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["signs_file"] == str(signs)
    assert manifest["signs_sha256"] == hashlib.sha256(signs.read_bytes()).hexdigest()
    signs.write_text(signs.read_text().replace("2 1\n", "2 -1\n", 1))
    capsys.readouterr()
    assert run_cli("replay", "--manifest", str(outdir / "manifest.json")) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and f"differs: {signs}" in out
    # the input check comes first: the changed sign at 2 is never recomputed
    assert ".csv" not in out


def test_relative_signs_file_replays_from_another_directory(tmp_path, monkeypatch, capsys):
    run_dir = tmp_path / "a"
    run_dir.mkdir()
    _signs_file(run_dir)
    monkeypatch.chdir(run_dir)
    assert run_cli("series", "--model", "f", "--alpha", "0.5", "--limit", "99",
                   "--signs-file", "signs.txt", "--out", "run") == 0
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert run_cli("replay", "--manifest", os.path.join("a", "run", "manifest.json")) == 0
    assert "replay: MATCH" in capsys.readouterr().out


def test_replay_checks_the_digest_map_before_recomputing(tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "g"
    assert run_cli("growth", "--trials", "2", "--seed", "4", "--limit", "100", "--out", str(outdir)) == 0
    manifest_path = outdir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["csv_sha256"] = None
    manifest_path.write_text(json.dumps(manifest))

    def no_recompute(*args, **kwargs):
        raise AssertionError("replay recomputed a run that has no digest map")

    monkeypatch.setattr(experiments, "run_experiment", no_recompute)
    capsys.readouterr()
    assert run_cli("replay", "--manifest", str(manifest_path)) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out
    assert [line for line in out.splitlines() if line.startswith("differs:")] == [
        "differs: csv_sha256 recorded=None recomputed=(not recomputed)"
    ]


@pytest.mark.parametrize(
    "case, key, value",
    [*(("harper", key, value) for key in ("prime_limit", "grid_step", "sigma_grid") for value in ("abc", [1], [])),
     ("series-signs-file", "signs_file", None),
     # a step whose point count overflows a float, and trial counts no index holds
     *(pytest.param(case, key, value, id=f"{case}-{key}-{value!r}") for case in ("harper", "divergence")
       for key, value in (("grid_step", 1e-320), ("trials", 10**20), ("trials", 2**63)))],
)
def test_replay_of_a_mistyped_key_exit_3(tmp_path, capsys, case, key, value):
    argv = [str(_signs_file(tmp_path)) if a == "SIGNS" else a for a in WRITING_COMMANDS[case]]
    outdir = tmp_path / "out"
    assert run_cli(*argv, "--out", str(outdir)) == 0
    manifest_path = outdir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest[key] = value
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("replay", "--manifest", str(manifest_path)) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "case, key, value",
    [*(pytest.param("harper", key, value, id=f"{key}-{value}")
       for key, value in [("N", 1.5), ("trials", 2.5), ("base_seed", 4.5), ("prime_limit", 5000.7)]),
     ("series", "N", 99.5), ("series", "seed", 3.5),
     # int() and float() would take these too: JSON booleans and numeric strings
     *(pytest.param("sign-changes", key, value, id=f"{key}-{json.dumps(value)}")
       for key, value in [("N", True), ("trials", True), ("alpha", False), ("base_seed", "42"), ("N", "1")]),
     pytest.param("harper", "sigma_grid", ["0.58", "0.55"], id="sigma_grid-strings"),
     pytest.param("series", "seed", True, id="series-seed-true")],
)
def test_replay_of_a_fractional_integer_exit_3(tmp_path, capsys, case, key, value):
    # int() would truncate the fractional ones and replay the run they were edited from
    outdir = tmp_path / "out"
    assert run_cli(*WRITING_COMMANDS[case], "--out", str(outdir)) == 0
    manifest_path = outdir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest[key] = value
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("replay", "--manifest", str(manifest_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: not a replayable manifest: ")
    assert ("is not a number" if key in ("alpha", "sigma_grid") else "is not an integer") in err


def test_harper_with_another_model_exit_3(tmp_path, capsys):
    outdir = tmp_path / "h"
    assert run_cli(*WRITING_COMMANDS["harper"], "--out", str(outdir)) == 0
    manifest_path = outdir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for model, alpha in (("fstar", 0.0), ("f", 0.25)):
        manifest["model"], manifest["alpha"] = model, alpha
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("replay", "--manifest", str(manifest_path)) == 3
        assert "harper experiment requires model f and alpha = 0" in capsys.readouterr().err


def test_replay_reads_the_manifest_once(tmp_path, monkeypatch):
    outdir = tmp_path / "g"
    code = run_cli(
        "growth", "--trials", "2", "--seed", "4", "--limit", "100", "--out", str(outdir),
    )
    assert code == 0
    manifest_path = str(outdir / "manifest.json")
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == manifest_path:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert run_cli("replay", "--manifest", manifest_path) == 0
    assert len(opened) == 1


def test_console_script_entry_point():
    result = run_python("-m", "rmflab.cli", "--version")
    assert result.returncode == 0
    assert "rmflab" in result.stdout


def test_growth_command(tmp_path, capsys):
    code = run_cli("growth", "--limit", "10000", "--trials", "2", "--seed", "3",
                   "--out", str(tmp_path / "g"))
    assert code == 0
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    assert manifest["reporting_only"] is True


def test_divergence_command(tmp_path):
    code = run_cli(
        "divergence", "--model", "f", "--alpha", "0.5", "--limit", "2000",
        "--trials", "2", "--seed", "11", "--sigma-grid", "0.58,0.54",
        "--prime-limit", "4000", "--out", str(tmp_path / "d"),
    )
    assert code == 0
    csv_text = (tmp_path / "d" / "trials.csv").read_text()
    assert csv_text.splitlines()[0] == "trial,seed,sigma,signed,absolute,harper_witness,N,prime_limit"


@pytest.mark.parametrize("command", experiments.EXPERIMENTS)
def test_bad_threads_env_exit_3(tmp_path, monkeypatch, capsys, command):
    # not an integer, or an integer below 1, from the env var or the flag
    for value in ("abc", "0", "-4"):
        monkeypatch.setenv("RMF_LAB_THREADS", value)
        assert run_cli(*WRITING_COMMANDS[command], "--out", str(tmp_path / "o")) == 3
        assert "RMF_LAB_THREADS must be an integer >= 1" in capsys.readouterr().err
    monkeypatch.delenv("RMF_LAB_THREADS")
    for value in ("0", "-4"):
        assert run_cli(*WRITING_COMMANDS[command], "--threads", value, "--out", str(tmp_path / "o")) == 3
        assert "threads must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# Each experiment command's option strings and usage line at 80 columns.
# The subparsers are generated from the EXPERIMENTS table; this pins them to
# the CLI as documented: only sign-changes and divergence take --model and
# --alpha, and the scan flags follow --assert.
EXPERIMENT_SURFACE = {
    "sign-changes": (
        "-h --help --model --alpha --limit --trials --seed --minus-one --threads --out --assert",
        """\
usage: rmflab sign-changes [-h] [--model {f,fstar}] [--alpha ALPHA]
                           [--limit LIMIT] [--trials TRIALS] [--seed SEED]
                           [--minus-one] [--threads THREADS] --out OUT
                           [--assert]
""",
    ),
    "positivity": (
        "-h --help --limit --trials --seed --minus-one --threads --out --assert",
        """\
usage: rmflab positivity [-h] [--limit LIMIT] [--trials TRIALS] [--seed SEED]
                         [--minus-one] [--threads THREADS] --out OUT
                         [--assert]
""",
    ),
    "harper": (
        "-h --help --limit --trials --seed --minus-one --threads --out --assert"
        " --sigma-grid --prime-limit --grid-step",
        """\
usage: rmflab harper [-h] [--limit LIMIT] [--trials TRIALS] [--seed SEED]
                     [--minus-one] [--threads THREADS] --out OUT [--assert]
                     [--sigma-grid SIGMA_GRID] [--prime-limit PRIME_LIMIT]
                     [--grid-step GRID_STEP]
""",
    ),
    "divergence": (
        "-h --help --model --alpha --limit --trials --seed --minus-one --threads --out --assert"
        " --sigma-grid --prime-limit --grid-step",
        """\
usage: rmflab divergence [-h] [--model {f,fstar}] [--alpha ALPHA]
                         [--limit LIMIT] [--trials TRIALS] [--seed SEED]
                         [--minus-one] [--threads THREADS] --out OUT
                         [--assert] [--sigma-grid SIGMA_GRID]
                         [--prime-limit PRIME_LIMIT] [--grid-step GRID_STEP]
""",
    ),
    "growth": (
        "-h --help --limit --trials --seed --minus-one --threads --out --assert",
        """\
usage: rmflab growth [-h] [--limit LIMIT] [--trials TRIALS] [--seed SEED]
                     [--minus-one] [--threads THREADS] --out OUT [--assert]
""",
    ),
}


def test_experiment_subparsers_keep_their_options_and_usage(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == ["series", *EXPERIMENT_SURFACE, "euler", "mellin-check", "replay"]
    for name, (options, usage) in EXPERIMENT_SURFACE.items():
        parser = sub.choices[name]
        assert " ".join(o for a in parser._actions for o in a.option_strings) == options, name
        assert parser.format_usage() == usage, name


@pytest.mark.parametrize("command", list(experiments.EXPERIMENTS))
def test_limit_below_the_minimum_exit_3(tmp_path, capsys, command):
    bound = experiments.EXPERIMENTS[command].min_limit
    outdir = tmp_path / "o"
    assert run_cli(*WRITING_COMMANDS[command], "--limit", str(bound - 1), "--out", str(outdir)) == 3
    assert f"{command} experiment requires limit >= {bound}, got {bound - 1}" in capsys.readouterr().err
    assert not outdir.exists()


def test_replay_of_an_explicit_sign_mode_experiment_exit_3(tmp_path, capsys):
    outdir = tmp_path / "sc"
    assert run_cli(*WRITING_COMMANDS["sign-changes"], "--out", str(outdir)) == 0
    manifest_path = outdir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["sign_mode"] = "explicit"
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("replay", "--manifest", str(manifest_path)) == 3
    assert "explicit" in capsys.readouterr().err


def test_replay_validates_the_config_before_the_digest_map(tmp_path, capsys):
    outdir = tmp_path / "sc"
    assert run_cli(*WRITING_COMMANDS["sign-changes"], "--out", str(outdir)) == 0
    manifest_path = outdir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["sign_mode"], manifest["csv_sha256"] = "explicit", None
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("replay", "--manifest", str(manifest_path)) == 3
    assert "explicit" in capsys.readouterr().err


_MAXRSS_GROWTH = """
import resource, sys
from rmflab.cli import build_parser, parse_and_dispatch
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = parse_and_dispatch(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_sup_scan_larger_than_memory_exit_3_before_allocating(tmp_path):
    # one more trial than fits at 9 bytes (int8 sign, float64 weight) per
    # trial and prime below 10^6; 78498 primes
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    trials = physical // (9 * 78498) + 1
    result = run_python(
        "-c", _MAXRSS_GROWTH, "harper", "--trials", str(trials), "--prime-limit", "1000000",
        "--sigma-grid", "0.58", "--limit", "1", "--threads", "1", "--out", str(tmp_path / "h"),
    )
    code, growth_kb = map(int, result.stdout.split())
    assert code == 3
    assert result.stderr.startswith("error: ") and "physical memory" in result.stderr
    assert growth_kb < 50 * 1024
    assert not (tmp_path / "h").exists()


def test_many_trials_exit_3_before_their_assignments_are_built(tmp_path, capsys, monkeypatch):
    # a host of 1 MB: the scan of 10^6 trials needs 1.6 GB; their seeds and
    # sign assignments, about 184 bytes a trial if built first, are not built
    host_of(monkeypatch, 256)
    outdir = tmp_path / "h"
    peak = _peak_growth(lambda: run_cli("harper", "--trials", "1000000", "--limit", "1", "--prime-limit", "1000",
                                        "--sigma-grid", "0.58", "--out", str(outdir)), 3)
    assert peak < 2**20
    assert "sup scan of 1000000 trials" in capsys.readouterr().err
    assert not outdir.exists()


def test_many_series_trials_exit_3_before_any_trial_runs(tmp_path, capsys, monkeypatch):
    # a host of 1 MB: 40000 positivity trials at N = 100 need 1.3 MB for
    # their 4 CSV columns alone, 6.4 MB with their results' Python objects
    host_of(monkeypatch, 256)
    monkeypatch.setattr(experiments, "stream_trials", lambda *args, **kwargs: pytest.fail("a trial ran"))
    outdir = tmp_path / "p"
    assert run_cli("positivity", "--limit", "100", "--trials", "40000", "--out", str(outdir)) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "physical memory" in captured.err
    assert not outdir.exists()


def test_series_engine_larger_than_memory_exit_3_before_allocating(tmp_path):
    # the sieve's mask (1 byte per n) and the engine's lane words (8 bytes
    # per n for 64 trials) alone exceed physical memory at this N
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    limit = physical // 9 + 1
    if limit > 2**32 - 1:
        pytest.skip("this host's memory holds the largest sieve")
    result = run_python(
        "-c", _MAXRSS_GROWTH, "sign-changes", "--limit", str(limit), "--trials", "64",
        "--threads", "1", "--out", str(tmp_path / "sc"),
    )
    code, growth_kb = map(int, result.stdout.split())
    assert code == 3
    assert result.stderr.startswith("error: ") and "physical memory" in result.stderr
    assert growth_kb < 50 * 1024
    assert not (tmp_path / "sc").exists()


@pytest.mark.parametrize("command", [
    ["series", "--limit", "100000", "--seed", "1", "--out", "OUT"],
    ["mellin-check", "--alpha", "0.5", "--sigma", "0.75", "--limit", "100000"],
])
def test_single_series_larger_than_memory_exit_3_before_the_sieve(tmp_path, capsys, monkeypatch, command):
    # a host of 1 MB: the sieve alone (its mask and primes) needs 0.2 MB,
    # the whole series from the engine about 2.5 MB more
    host_of(monkeypatch, 256)
    outdir = tmp_path / "s"
    assert run_cli(*[str(outdir) if a == "OUT" else a for a in command]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "physical memory" in captured.err
    assert not outdir.exists()


# At N = 10^5 the sieve and the engine's whole series need about 2.7 MB.
# The complex temporaries of mellin-check raise its peak RSS by about 5 MB,
# so a host of 6 MB passes a check that counts only the engine.
@pytest.mark.parametrize("command, pages", [
    (["mellin-check", "--alpha", "0.5", "--sigma", "0.75", "--limit", "100000"], 1536),
], ids=["mellin-check"])
def test_single_series_counts_what_it_holds_after_the_engine(tmp_path, capsys, monkeypatch, command, pages):
    host_of(monkeypatch, pages)
    outdir = tmp_path / "s"
    assert run_cli(*[str(outdir) if a == "OUT" else a for a in command]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "physical memory" in captured.err
    assert not outdir.exists()


@pytest.mark.parametrize("command", [
    ["series", "--alpha", "0.5", "--limit", "1000", "--seed", "1", "--out", "OUT"],
    ["mellin-check", "--alpha", "0.5", "--sigma", "0.75", "--limit", "1000"],
    ["sign-changes", "--limit", "1000", "--trials", "3", "--out", "OUT"],
    ["positivity", "--limit", "1000", "--trials", "3", "--out", "OUT"],
    ["harper", "--limit", "1", "--prime-limit", "1000", "--trials", "3", "--out", "OUT"],
    ["divergence", "--limit", "1000", "--prime-limit", "1000", "--trials", "3", "--out", "OUT"],
    ["growth", "--limit", "1000", "--trials", "3", "--out", "OUT"],
], ids=["series", "mellin-check", "sign-changes", "positivity", "harper", "divergence", "growth"])
def test_single_series_checks_its_memory_once(tmp_path, monkeypatch, command):
    checks = []

    def counted(requested, what):
        checks.append(what)
        original(requested, what)

    original = errors.require_memory
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rmflab" and getattr(module, "require_memory", None) is original:
            monkeypatch.setattr(module, "require_memory", counted)
    assert run_cli(*[str(tmp_path / "s") if a == "OUT" else a for a in command]) == 0
    assert len(checks) == 1


@pytest.mark.parametrize("command, needle", [
    (["series", "--alpha", "2", "--limit", "10000000", "--seed", "1", "--out", "OUT"], "alpha must lie in [0, 1]"),
    (["mellin-check", "--alpha", "0.5", "--sigma", "0.4", "--limit", "1000000"], "need Re s > alpha"),
    # a step whose point count overflows a float, and a trial count no index holds
    (["harper", "--limit", "1", "--prime-limit", "1000000", "--grid-step", "1e-320", "--out", "OUT"],
     "2^63 or more points"),
    (["divergence", "--limit", "1000000", "--prime-limit", "1000000", "--grid-step", "1e-320", "--out", "OUT"],
     "2^63 or more points"),
    (["harper", "--limit", "1", "--prime-limit", "1000000", "--trials", str(10**20), "--out", "OUT"], "below 2^63"),
    (["divergence", "--limit", "1000000", "--prime-limit", "1000000", "--trials", str(2**63), "--out", "OUT"],
     "below 2^63"),
    # an s whose phases |s - alpha| log N overflow, with alpha = 0 and N = P for euler
    (["euler", "--sigma", "0.6", "--t", "1e308", "--prime-limit", "1000"], "log P finite"),
    (["euler", "--sigma", "1e308"], "log P finite"),
    (["mellin-check", "--alpha", "0", "--sigma", "0.7", "--t", "1e308", "--limit", "100"], "log N finite"),
], ids=["series", "mellin-check", "harper-grid-step", "divergence-grid-step", "harper-trials", "divergence-trials",
        "euler-t", "euler-sigma", "mellin-check-t"])
def test_bad_arguments_exit_3_before_the_sieve(tmp_path, capsys, monkeypatch, command, needle):
    # a 10^7 or 10^6 sieve would be built, then thrown away
    monkeypatch.setattr(primes, "build_spf_sieve", lambda limit: pytest.fail("sieve built"))
    outdir = tmp_path / "s"
    assert run_cli(*[str(outdir) if a == "OUT" else a for a in command]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and needle in captured.err
    assert not outdir.exists()


# One trial runs on one thread whatever --threads says.  Each host lies
# between the largest request that counts one thread's segment buffers
# (divergence: its one check, the sup scan of three sigmas at once
# included, 2.45 MB; sign-changes: 1.80 MB) and the check that counts eight
# (5.65 MB and 12.30 MB).  Divergence would pass on fewer threads too, so
# it must not have taken fewer.
@pytest.mark.parametrize("command, pages", [
    (["divergence", "--limit", "20000", "--prime-limit", "10000"], 1024),
    (["sign-changes", "--limit", "100000"], 2048),
], ids=["divergence", "sign-changes"])
def test_one_trial_on_many_threads_counts_the_buffers_of_one(tmp_path, monkeypatch, command, pages):
    host_of(monkeypatch, pages)
    fitted, fit = [], primes.threads_that_fit
    monkeypatch.setattr(mellin, "threads_that_fit", lambda *args: fitted.append((args[1], fit(*args))) or fitted[-1][1])
    assert run_cli(*command, "--trials", "1", "--threads", "8", "--out", str(tmp_path / "o")) == 0
    assert (tmp_path / "o" / "trials.csv").exists()
    assert all(threads == taken for threads, taken in fitted) and len(fitted) == (command[0] == "divergence")


def _asked(monkeypatch, argv) -> int:
    """The bytes that the one memory check of a CLI run asks for."""
    asked = []
    with monkeypatch.context() as patch:
        patch.setattr(primes, "require_memory", lambda requested, what: asked.append(requested))
        assert run_cli(*argv) == 0
    return asked[-1]


@pytest.mark.parametrize("command", [
    ["harper", "--limit", "1", "--prime-limit", "20000", "--trials", "200"],
    ["divergence", "--limit", "20000", "--prime-limit", "10000", "--trials", "20"],
], ids=["harper", "divergence"])
def test_the_sup_scan_takes_fewer_threads_where_more_do_not_fit(tmp_path, capsys, monkeypatch, command):
    # the columns do not depend on the thread count, so a host between the
    # 1- and 2-thread asks runs the 2-thread command on one thread, and says so
    command = [*command, "--sigma-grid", "0.58,0.55"]
    one, two = (_asked(monkeypatch, [*command, "--threads", t, "--out", str(tmp_path / t)]) for t in ("1", "2"))
    pages = (one + two) // 2 // 4096
    assert one < 4096 * pages < two
    capsys.readouterr()
    host_of(monkeypatch, pages)
    assert run_cli(*command, "--threads", "2", "--out", str(tmp_path / "fit")) == 0
    assert (tmp_path / "fit" / "trials.csv").read_bytes() == (tmp_path / "1" / "trials.csv").read_bytes()
    notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note: ")]
    assert len(notes) == 1 and notes[0].endswith("runs on 1 of 2 threads: more do not fit in physical memory")
    # below the 1-thread ask nothing fits
    host_of(monkeypatch, one // 4096 - 1)
    assert run_cli(*command, "--threads", "2", "--out", str(tmp_path / "none")) == 3
    assert not (tmp_path / "none").exists()


def test_euler_sieve_larger_than_memory_exit_3(capsys, monkeypatch):
    # a host of 1 MB: the sieve to 10^6 takes 1.7 MB
    host_of(monkeypatch, 256)
    assert run_cli("euler", "--sigma", "0.6", "--prime-limit", "1000000") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "physical memory" in captured.err


def test_series_and_its_replay_need_only_the_engine(tmp_path, capsys, monkeypatch):
    # a host of 10 MB holds the sieve and the engine at N = 10^5 (2.7 MB);
    # the CSVs are written and hashed a block of rows at a time
    host_of(monkeypatch, 2560)
    outdir = tmp_path / "s"
    assert run_cli("series", "--alpha", "0.5", "--limit", "100000", "--seed", "1", "--out", str(outdir)) == 0
    capsys.readouterr()
    assert run_cli("replay", "--manifest", str(outdir / "manifest.json")) == 0
    assert "replay: MATCH" in capsys.readouterr().out


def _peak_growth(run, code: int) -> int:
    """The tracemalloc peak of run(), which must return code, over what was
    traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert run() == code
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _peak_bytes(argv) -> int:
    """The tracemalloc peak of one CLI run, over what was traced before it."""
    return _peak_growth(lambda: run_cli(*argv), 0)


def test_series_memory_grows_as_its_engine(tmp_path):
    # per n, the series command holds no more than its sieve (4 bytes) and
    # engine: formatting and hashing the CSVs add one block of rows
    limits = (200_000, 400_000)
    peaks = [_peak_bytes(["series", "--model", "f", "--alpha", "0.5", "--limit", str(n), "--seed", "1",
                          "--out", str(tmp_path / str(n))]) for n in limits]
    engine = [engine_bytes(n, 1, 1, n) for n in limits]
    per_n = (peaks[1] - peaks[0]) / (limits[1] - limits[0])
    assert per_n <= (engine[1] - engine[0]) / (limits[1] - limits[0]) + 4


def test_sup_scan_counts_its_cosine_block(tmp_path, capsys, monkeypatch):
    # 2262 primes below 20000: their signs and weights take 20 kB, the
    # scan's slab of 64 cosine rows 1.3 MB (counted with pi(P) < 2545),
    # more than a 1 MB host
    host_of(monkeypatch, 256)
    outdir = tmp_path / "h"
    code = run_cli("harper", "--trials", "1", "--limit", "1", "--prime-limit", "20000",
                   "--sigma-grid", "0.58", "--out", str(outdir))
    assert code == 3
    assert "sup scan" in capsys.readouterr().err
    assert not outdir.exists()


def test_harper_checks_its_scan_before_the_sieve(tmp_path, capsys, monkeypatch):
    # a host of 8 MB holds the sieve to 10^6 (4 MB), not the scan of 100
    # trials over its primes, so the sieve is never built
    host_of(monkeypatch, 2048)
    monkeypatch.setattr(primes, "build_spf_sieve", lambda limit: pytest.fail("sieve built"))
    outdir = tmp_path / "h"
    code = run_cli("harper", "--trials", "100", "--limit", "1", "--prime-limit", "1000000",
                   "--sigma-grid", "0.58", "--out", str(outdir))
    assert code == 3
    assert "sup scan of 100 trials" in capsys.readouterr().err
    assert not outdir.exists()


def test_divergence_checks_its_scan_before_the_sieve(tmp_path, capsys, monkeypatch):
    # a host of 16 MB holds the sieve to 10^6 (4 MB) and the engine at
    # N = 1000, not the sup scan of 100 trials over its primes: divergence
    # counts the scan in its one check, so the sieve is never built
    host_of(monkeypatch, 4096)
    monkeypatch.setattr(primes, "build_spf_sieve", lambda limit: pytest.fail("sieve built"))
    outdir = tmp_path / "d"
    code = run_cli("divergence", "--trials", "100", "--limit", "1000", "--prime-limit", "1000000",
                   "--sigma-grid", "0.55", "--out", str(outdir))
    assert code == 3
    assert "divergence at N = 1000, P = 1000000" in capsys.readouterr().err
    assert not outdir.exists()


def test_harper_sieve_covers_only_the_prime_limit(tmp_path, monkeypatch):
    # harper reads the primes up to --prime-limit alone, so --limit 10^6
    # neither builds a 4 MB sieve on a 1 MB host nor changes a trial
    host_of(monkeypatch, 256)
    texts = []
    for limit in ("1000000", "1"):
        outdir = tmp_path / limit
        assert run_cli("harper", "--trials", "3", "--limit", limit, "--prime-limit", "1000",
                       "--out", str(outdir)) == 0
        texts.append((outdir / "trials.csv").read_text())
    assert texts[0] == texts[1]


def _mobius(n: int) -> int:
    """mu(n) by trial division."""
    value, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            value = -value
        d += 1
    return -value if n > 1 else value


def test_series_prints_max_abs_at_its_first_x(tmp_path, capsys):
    # |M(x)| of the Mertens function first reaches its largest value on
    # [1, 100] at x = 31
    mertens = list(itertools.accumulate(_mobius(n) for n in range(1, 101)))
    peak = max(abs(m) for m in mertens)
    first = 1 + [abs(m) for m in mertens].index(peak)
    assert (peak, first) == (4, 31)
    assert run_cli("series", "--model", "f", "--alpha", "0", "--limit", "100", "--minus-one",
                   "--out", str(tmp_path / "mertens")) == 0
    assert f"max|M|={peak} at x={first}," in capsys.readouterr().out
    assert run_cli("series", "--limit", "1", "--out", str(tmp_path / "one")) == 0
    assert "max|M|=1 at x=1," in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, needle",
    [
        ("not json {", "not a JSON manifest"),
        ("[1, 2]", "JSON object"),
        ('{"command": "growth"}', "'model'"),
        ('{"command": "series"}', "'sign_mode'"),
        pytest.param('{"experiment": "growth"}', "not a replayable manifest", id="parent-experiment"),
        pytest.param(
            '{"command": "series", "model": "f", "alpha": 0.5, "limit": 10, "sign_mode": "iid",'
            ' "seed": 0, "signs_file": null}',
            "not a replayable manifest",
            id="parent-series",
        ),
        pytest.param('{"command": ["growth"]}', "not a replayable manifest", id="command-list"),
        pytest.param('{"command": {"growth": 1}}', "not a replayable manifest", id="command-object"),
    ],
)
def test_malformed_manifest_exit_3(tmp_path, capsys, text, needle):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    assert run_cli("replay", "--manifest", str(path)) == 3
    assert needle in capsys.readouterr().err


def test_divergence_limit_1_exit_3(tmp_path, capsys):
    code = run_cli(
        "divergence", "--model", "f", "--alpha", "0.5", "--limit", "1", "--trials", "2",
        "--sigma-grid", "0.58", "--prime-limit", "1000", "--out", str(tmp_path / "d"),
    )
    assert code == 3
    assert "limit >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["harper", "divergence"])
def test_malformed_sigma_grid_exit_2(tmp_path, capsys, command):
    code = run_cli(
        command, "--limit", "100", "--trials", "2", "--sigma-grid", "0.58,x",
        "--prime-limit", "1000", "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert "--sigma-grid" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["harper", "divergence"])
@pytest.mark.parametrize("step", ["0", "-1", "inf"])
def test_bad_grid_step_exit_3(tmp_path, capsys, command, step):
    code = run_cli(
        command, "--limit", "100", "--trials", "2", "--sigma-grid", "0.58,0.54",
        "--prime-limit", "1000", "--grid-step", step, "--out", str(tmp_path / "o"),
    )
    assert code == 3
    assert "grid_step must be > 0" in capsys.readouterr().err


# The scan window at sigma = 0.58 is [1, 12.7586...], 11.7586 wide: a wider
# step would scan t = 1 alone, and report it as the supremum.
@pytest.mark.parametrize("argv", [
    ["harper", "--limit", "1", "--sigma-grid", "0.58,0.55", "--grid-step", "1e300"],
    ["divergence", "--limit", "100", "--sigma-grid", "0.58", "--grid-step", "20"],
], ids=["harper", "divergence"])
def test_grid_step_wider_than_the_window_exit_3(tmp_path, capsys, argv):
    outdir = tmp_path / "o"
    assert run_cli(*argv, "--trials", "2", "--prime-limit", "1000", "--out", str(outdir)) == 3
    assert "at most 11.758" in capsys.readouterr().err
    assert not outdir.exists()


def test_grid_step_inside_the_window_scans_two_points(tmp_path):
    outdir = tmp_path / "o"
    assert run_cli("harper", "--limit", "1", "--sigma-grid", "0.58", "--grid-step", "11.7", "--trials", "2",
                   "--prime-limit", "1000", "--out", str(outdir)) == 0
    t_star = [float(row.split(",")[3]) for row in (outdir / "trials.csv").read_text().splitlines()[1:]]
    assert set(t_star) <= {1.0, 12.7}


def test_written_files_get_the_mode_open_gives(tmp_path):
    # mkstemp makes its file 0600, and the rename keeps that mode
    umask = os.umask(0o022)
    try:
        assert run_cli("series", "--limit", "99", "--out", str(tmp_path / "s")) == 0
        assert run_cli("growth", "--limit", "99", "--trials", "2", "--out", str(tmp_path / "g")) == 0
    finally:
        os.umask(umask)
    modes = {path.relative_to(tmp_path).as_posix(): path.stat().st_mode & 0o777 for path in tmp_path.glob("*/*")}
    assert modes == dict.fromkeys(
        ["s/manifest.json", "s/series.csv", "s/sign_changes.csv", "g/manifest.json", "g/trials.csv"], 0o644)


SINGLE_COMMANDS = {
    "series": ["series", "--limit", "99", "--out", "OUT"],
    "euler": ["euler", "--sigma", "0.6", "--prime-limit", "99"],
    "mellin-check": ["mellin-check", "--alpha", "0.5", "--sigma", "0.75", "--limit", "99"],
}


@pytest.mark.parametrize("content", [b"2 1\nx 1\n", b"2 1\n5 1.0\n", b"2 1\n3 \xe2\x88\x921\n", b"2 1\n2 -1\n"],
                         ids=["not-a-number", "not-an-integer", "not-ascii", "a-prime-twice"])
@pytest.mark.parametrize("command", list(SINGLE_COMMANDS))
def test_malformed_signs_file_exit_3(tmp_path, capsys, command, content):
    # the second line is at fault; the last case writes its sign with U+2212
    signs = tmp_path / "signs.txt"
    signs.write_bytes(content)
    argv = [str(tmp_path / "s") if a == "OUT" else a for a in SINGLE_COMMANDS[command]]
    assert run_cli(*argv, "--signs-file", str(signs)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {signs}:2: ")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("argv", [
    ["euler", "--sigma", "nan"],
    ["euler", "--sigma", "0.6", "--t", "nan"],
    ["euler", "--sigma", "0.6", "--t", "inf"],
    ["mellin-check", "--alpha", "0.5", "--sigma", "nan", "--limit", "99"],
    ["mellin-check", "--alpha", "0.5", "--sigma", "inf", "--limit", "99"],
    ["mellin-check", "--alpha", "0.5", "--sigma", "0.75", "--t", "nan", "--limit", "99"],
], ids=" ".join)
def test_non_finite_s_exit_3(capsys, argv):
    assert run_cli(*argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "finite" in captured.err


# Tiny runs of every command: the property test below puts a drawn numeral in
# place of one numeric flag's value, or a drawn JSON value in place of one key
# of the manifest a writing command wrote.
TINY_COMMANDS = {
    "series": ["series", "--alpha", "0.5", "--limit", "30", "--seed", "1", "--out", "OUT"],
    "sign-changes": ["sign-changes", "--model", "f", "--alpha", "0.5", "--limit", "30", "--trials", "2",
                     "--seed", "1", "--threads", "1", "--out", "OUT"],
    "positivity": ["positivity", "--limit", "30", "--trials", "2", "--seed", "1", "--threads", "1", "--out", "OUT"],
    "growth": ["growth", "--limit", "30", "--trials", "2", "--seed", "1", "--threads", "1", "--out", "OUT"],
    "harper": ["harper", "--limit", "1", "--trials", "2", "--seed", "1", "--threads", "1", "--sigma-grid", "0.58,0.55",
               "--prime-limit", "100", "--grid-step", "0.5", "--out", "OUT"],
    "divergence": ["divergence", "--model", "f", "--alpha", "0.5", "--limit", "30", "--trials", "2", "--seed", "1",
                   "--threads", "1", "--sigma-grid", "0.58,0.55", "--prime-limit", "100", "--grid-step", "0.5",
                   "--out", "OUT"],
    "euler": ["euler", "--sigma", "0.6", "--t", "1", "--prime-limit", "100", "--seed", "1"],
    "mellin-check": ["mellin-check", "--alpha", "0.5", "--sigma", "0.75", "--t", "1", "--limit", "30", "--seed", "1"],
}
NUMERIC_FLAGS = [(command, i) for command, argv in TINY_COMMANDS.items() for i in range(1, len(argv) - 1)
                 if argv[i].startswith("--") and argv[i + 1][:1].isdigit()]
# subnormal, huge, non-finite, signed zero, Unicode digits (Arabic-Indic,
# fullwidth) and empty; the numbers are small enough to run, or too large
# for any host
NUMERALS = st.sampled_from([
    "5e-324", "-5e-324", "2.2e-308", "1e308", "-1e308", "1e309", str(2**63), str(2**64), str(-2**64), str(10**30),
    "nan", "-nan", "inf", "-inf", "Infinity", "0", "-0", "-0.0", "0e0", "0x10", "1_0", "\u0663", "\uff11\uff12",
    "\u0660.\u0665\u0665", "", " ", "0.56,", ",", "0.58,0.58"])
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), NUMERALS,
    st.sampled_from([0, -1, 2, 2**63, 2**64, -2**64, 10**30, 5e-324, 1e308, -0.0, 0.5, float("nan"), float("inf")]),
    st.lists(st.sampled_from([0.58, "0.58", None, 2]), max_size=2), st.dictionaries(st.just("a"), st.just(1)))


@pytest.fixture(scope="module")
def tiny_manifests(tmp_path_factory):
    manifests = {}
    for command, argv in TINY_COMMANDS.items():
        if "OUT" in argv:
            outdir = tmp_path_factory.mktemp(command)
            assert run_cli(*[str(outdir) if a == "OUT" else a for a in argv]) == 0
            manifests[command] = json.loads((outdir / "manifest.json").read_text())
    return manifests


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_malformed_numbers_exit_with_a_documented_code(tiny_manifests, data):
    # exit 0, 2 (usage) or 3 (domain) for a command; 0, 3 or 1 with MISMATCH
    # for a replay; never an exception out of parse_and_dispatch
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "out")
        if data.draw(st.booleans()):
            command, i = data.draw(st.sampled_from(NUMERIC_FLAGS))
            argv = [out if a == "OUT" else a for a in TINY_COMMANDS[command]]
            argv[i + 1] = data.draw(NUMERALS)
            documented = {0, 2, 3}
        else:
            command = data.draw(st.sampled_from(sorted(tiny_manifests)))
            manifest = dict(tiny_manifests[command])
            manifest[data.draw(st.sampled_from(sorted(manifest)))] = data.draw(JSON_VALUES)
            argv = ["replay", "--manifest", os.path.join(scratch, "manifest.json")]
            with open(argv[2], "w") as fh:
                json.dump(manifest, fh)
            documented = {0, 1, 3}
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
            code = parse_and_dispatch(argv)
    assert code in documented, argv
    assert code != 1 or "replay: MISMATCH" in printed.getvalue()
