"""Tests of the benchmark itself, at tiny workload sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

wl.load_rmflab()

with open(os.path.join(wl.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.FULL)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in wl.FULL.values()]


@pytest.mark.parametrize("name", list(wl.TINY))
def test_end_to_end_run_is_correct_and_prints_declared_metrics(name):
    result = run.run_workload(name, seed=3, seconds=0.01, trace=False, size="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(wl.TINY))
def test_traced_run_at_one_thread_matches_digests_and_prints_declared_metrics(name):
    result = run.run_workload(name, seed=4, seconds=0.01, trace=True, size="tiny")
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    assert result["metrics"]["traced_wall_s"]["value"] > 0


def test_flipped_digest_counts_as_failure(monkeypatch):
    golden = copy.deepcopy(wl.load_golden())
    for entry in golden["tiny"]["sign-changes-1e6"].values():
        digest = entry["trials.csv"]
        entry["trials.csv"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    monkeypatch.setattr(wl, "load_golden", lambda: golden)
    result = run.run_workload("sign-changes-1e6", seed=3, seconds=0.01, trace=False, size="tiny")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_witness_is_checked_by_tolerance_and_triangle_inequality():
    want = {"d": "x", "harper_witness": [2.0, 3.0]}
    assert wl.check({"d": "x", "harper_witness": [2.0, 3.0 * (1 + 1e-12)]}, want) == []
    assert wl.check({"d": "x", "harper_witness": [2.0, 3.0 * (1 + 1e-3)]}, want)
    assert wl.check({"d": "x", "harper_witness": [2.0, float("nan")]}, want)
    assert wl.check({"d": "x", "harper_witness": [2.0, 3.0], "triangle_ok": False}, want)
    assert wl.check({"d": "y", "harper_witness": [2.0, 3.0]}, want)
    assert wl.check({"d": "x", "harper_witness": [2.0, 3.0]}, None)


def test_self_times_add_up_and_originals_are_restored(tmp_path):
    import rmflab.experiments
    import rmflab.signs

    originals = (rmflab.experiments.primes_up_to, rmflab.signs.MultiplicativeEvaluator.values_up_to)
    tracer = spans.Tracer()
    workload = wl.TINY["divergence-1e5"]
    with tracer.installed():
        workload.run(wl.FIRST_SEED, str(tmp_path / "out"), threads=1)
    tracer.run_id = 1
    assert (rmflab.experiments.primes_up_to, rmflab.signs.MultiplicativeEvaluator.values_up_to) == originals

    roots_s = sum(end - start for _, parent, _, start, end in tracer.spans if parent is None) / 1e9
    values = tracer.per_layer(1)
    modules_self_s = sum(values[f"{m}.self_s"] for m in spans.MODULES)
    assert modules_self_s == pytest.approx(roots_s, rel=1e-9)
    assert values["dirichlet.scan_grid_max_calls"] == len(workload.sigma_grid)
    assert values["dirichlet.euler_product_calls"] == workload.trials * len(workload.sigma_grid)
    assert values["dirichlet.scan_gemm_flops"] == 2 * workload.trials * values["dirichlet.scan_cos_evals"]
    assert values["output.bytes_written"] > 0


def test_traced_call_from_another_thread_is_refused(tmp_path):
    config = wl.TINY["sign-changes-1e6"]
    with spans.Tracer().installed(), pytest.raises(RuntimeError, match="single worker thread"):
        config.run(wl.FIRST_SEED, str(tmp_path / "out"), threads=2)


def test_exits_nonzero_without_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE.rsplit(os.sep, 1)[0], tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(wl.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "sign-changes-1e6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
