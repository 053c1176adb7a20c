import json
import math
import tracemalloc

import numpy as np
import pytest

from rmflab import experiments as experiments_module, primes as primes_module
from rmflab.dirichlet import default_grid_step, scan_bytes, sup_scans
from rmflab.errors import DomainError
from rmflab.experiments import (
    MIN_SIGN_CHANGES,
    ExperimentConfig,
    assert_outcome,
    config_from_manifest,
    manifest_dict,
    replay_experiment,
    run_experiment,
    trials_csv,
    write_experiment,
)
from rmflab.mellin import divergence_rows
from rmflab.series import compute_series, detect_sign_changes, engine_bytes
from rmflab.signs import SignAssignment, SignMode, trial_seed

from oracles import records_csv


def test_config_validation():
    with pytest.raises(DomainError):
        ExperimentConfig(experiment="nope").validate()
    with pytest.raises(DomainError):
        ExperimentConfig(experiment="sign-changes", trials=0).validate()
    with pytest.raises(DomainError):
        ExperimentConfig(experiment="sign-changes", model="f", alpha=0.6).validate()
    with pytest.raises(DomainError):
        ExperimentConfig(experiment="positivity", model="f", alpha=1.0).validate()
    with pytest.raises(DomainError):
        ExperimentConfig(experiment="positivity", model="fstar", alpha=0.5).validate()
    with pytest.raises(DomainError):
        ExperimentConfig(experiment="growth", model="fstar", alpha=0.0).validate()
    with pytest.raises(DomainError):
        ExperimentConfig(experiment="harper", sigma_grid=(0.52, 0.55)).validate()
    with pytest.raises(DomainError):
        ExperimentConfig(experiment="harper", sigma_grid=(0.65, 0.55)).validate()
    with pytest.raises(DomainError):
        ExperimentConfig(experiment="divergence", model="fstar", alpha=0.5).validate()


def test_explicit_sign_mode_is_rejected():
    config = ExperimentConfig(experiment="sign-changes", limit=100, trials=2, sign_mode=SignMode.EXPLICIT)
    with pytest.raises(DomainError, match="explicit"):
        run_experiment(config)


@pytest.mark.parametrize("threads", [0, -4])
def test_a_config_with_fewer_than_1_thread_is_refused(threads):
    config = ExperimentConfig(experiment="sign-changes", limit=100, trials=2, threads=threads)
    with pytest.raises(DomainError, match="threads must be an integer >= 1"):
        run_experiment(config)


def test_default_grids_applied():
    cfg = ExperimentConfig(experiment="harper")
    assert cfg.sigma_grid == (0.58, 0.55, 0.52, 0.51)
    assert cfg.prime_limit == 10**6
    cfg2 = ExperimentConfig(experiment="divergence", model="f", alpha=0.5)
    assert cfg2.sigma_grid == (0.56, 0.54, 0.52)


def test_sign_change_trivial_single_trial():
    cfg = ExperimentConfig(experiment="sign-changes", model="f", alpha=0.0, limit=1, trials=1, base_seed=0)
    stats = run_experiment(cfg)
    assert stats.columns["count"].tolist() == [0]
    assert stats.columns["last_position"].tolist() == [0]


def test_sign_change_records_depend_only_on_trial_seed(table_1e5):
    cfg = ExperimentConfig(
        experiment="sign-changes", model="fstar", alpha=0.25, limit=5000, trials=6, base_seed=99, threads=2
    )
    stats = run_experiment(cfg)
    for i in (0, 3, 5):
        seed = trial_seed(99, i)
        series = compute_series(SignAssignment.iid(seed), "fstar", 0.25, 5000, table_1e5)
        log = detect_sign_changes(series)
        assert stats.columns["seed"][i] == seed
        assert stats.columns["count"][i] == log.count


@pytest.mark.parametrize(
    "base",
    [
        dict(experiment="sign-changes", model="f", alpha=0.5, limit=10**4, trials=10, base_seed=7),
        dict(experiment="positivity", model="fstar", alpha=1.0, limit=2000, trials=12, base_seed=7),
        dict(experiment="harper", limit=1, trials=5, base_seed=7, sigma_grid=(0.56, 0.53), prime_limit=10**4),
        dict(experiment="divergence", model="fstar", alpha=0.25, limit=3000, trials=5, base_seed=7,
             sigma_grid=(0.58, 0.54), prime_limit=3000),
        dict(experiment="growth", model="f", alpha=0.0, limit=2000, trials=6, base_seed=7),
    ],
    ids=lambda base: base["experiment"],
)
def test_sign_change_worker_count_invariance(base):
    texts = []
    for threads in (1, 2, 3, 4, 8):  # 3 threads split the runs unevenly
        cfg = ExperimentConfig(**base, threads=threads)
        texts.append("".join(trials_csv(run_experiment(cfg))))
    assert texts[0] == texts[1] == texts[2] == texts[3] == texts[4]


def test_sign_change_reporting_only_regime():
    cfg = ExperimentConfig(experiment="sign-changes", model="fstar", alpha=0.5, limit=2000, trials=5, base_seed=1)
    stats = run_experiment(cfg)
    assert stats.summary["reporting_only"] is True
    assert "pass_fraction" not in stats.summary
    ok, message = assert_outcome(stats)
    assert ok and "reporting-only" in message


def test_positivity_trivial_n1():
    cfg = ExperimentConfig(experiment="positivity", model="fstar", alpha=1.0, limit=1, trials=4, base_seed=2)
    stats = run_experiment(cfg)
    assert stats.summary["pass_fraction"] == 1.0
    assert stats.columns["min_value"].tolist() == [1.0] * 4


def test_positivity_small_run():
    cfg = ExperimentConfig(experiment="positivity", model="fstar", alpha=1.0, limit=100, trials=64, base_seed=3, threads=2)
    stats = run_experiment(cfg)
    min_value = stats.columns["min_value"]
    assert np.array_equal(min_value > 0, stats.columns["all_positive"] == 1)
    # M_1(2) = 1 + fstar(2)/2 >= 1/2 > 0 regardless of the sign
    assert np.all((min_value > 0) | (min_value <= 0.5))


def test_harper_minus_one_trials_identical():
    cfg = ExperimentConfig(
        experiment="harper",
        trials=3,
        base_seed=5,
        limit=1,
        sign_mode=SignMode.ALL_MINUS_ONE,
        sigma_grid=(0.58, 0.55),
        prime_limit=10**4,
    )
    stats = run_experiment(cfg)
    by_trial = np.stack([stats.columns[c] for c in ("sigma", "sup_value", "t_star")], axis=1).reshape(3, 2, 3)
    assert np.array_equal(stats.columns["trial"], [0, 0, 1, 1, 2, 2])
    assert np.array_equal(by_trial[0], by_trial[1]) and np.array_equal(by_trial[0], by_trial[2])


def test_harper_batch_matches_single_scan(table_1e5):
    cfg = ExperimentConfig(
        experiment="harper", trials=4, base_seed=11, limit=1, sigma_grid=(0.55,), prime_limit=10**4
    )
    stats = run_experiment(cfg)
    for i in (0, 2):
        seed = trial_seed(11, i)
        single = sup_scans([SignAssignment.iid(seed)], (0.55,), None, 10**4, table_1e5)
        assert abs(stats.columns["sup_value"][i] - single["sup_value"][0]) < 1e-9
        assert abs(stats.columns["t_star"][i] - single["t_star"][0]) < 1e-12
        assert stats.columns["grid_step"][i] == single["grid_step"][0]


def test_harper_grid_step_refinement_non_decreasing():
    base = dict(experiment="harper", trials=3, base_seed=21, limit=1, sigma_grid=(0.55,), prime_limit=10**4)
    step = default_grid_step(0.55)
    coarse = run_experiment(ExperimentConfig(**base, grid_step=step))
    fine = run_experiment(ExperimentConfig(**base, grid_step=step / 2))
    assert np.all(fine.columns["sup_value"] >= coarse.columns["sup_value"])


def test_divergence_experiment_summary():
    cfg = ExperimentConfig(
        experiment="divergence", model="f", alpha=0.5, limit=4000, trials=6, base_seed=13,
        sigma_grid=(0.58, 0.55, 0.52), prime_limit=10**4, threads=2,
    )
    stats = run_experiment(cfg)
    assert stats.summary["triangle_inequality_ok"] is True
    assert 0.0 <= stats.summary["fraction_ratio_monotone"] <= 1.0
    assert stats.columns["trial"].size == 6 * 3
    assert np.all(stats.columns["absolute"] >= np.abs(stats.columns["signed"]))
    assert stats.columns["N"].tolist() == [4000] * (6 * 3)


def test_growth_experiment_reporting():
    cfg = ExperimentConfig(experiment="growth", model="f", alpha=0.0, limit=10**4, trials=3, base_seed=17, threads=2)
    stats = run_experiment(cfg)
    assert stats.summary["reporting_only"] is True
    # theta = 0.25 can never beat theta = 0 (normalizer >= 1 on x >= 16)
    by_key = {(trial, theta, n): value for trial, theta, n, value in
              zip(*(stats.columns[c].tolist() for c in ("trial", "theta", "N", "value")))}
    for trial in range(3):
        assert by_key[(trial, 0.25, 10**4)] <= by_key[(trial, 0.0, 10**4)]
        assert by_key[(trial, 0.5, 10**4)] <= by_key[(trial, 0.25, 10**4)]
    ok, _ = assert_outcome(stats)
    assert ok


def test_growth_minus_one_deterministic():
    cfg = ExperimentConfig(
        experiment="growth", model="f", alpha=0.0, limit=10**4, trials=2, base_seed=1,
        sign_mode=SignMode.ALL_MINUS_ONE,
    )
    stats = run_experiment(cfg)
    v0, v1 = stats.columns["value"].reshape(2, -1)
    assert v0.tolist() == v1.tolist()


def _summary_from_csv(experiment: str, csv_text: str, cfg: ExperimentConfig) -> dict:
    rows = []
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    for line in lines[1:]:
        rows.append(dict(zip(header, line.split(","))))
    if experiment == "sign-changes":
        counts = [int(r["count"]) for r in rows]
        out = {
            "mean_count": float(np.mean(counts)),
            "median_count": float(np.quantile(counts, 0.5)),
            "q05_count": float(np.quantile(counts, 0.05)),
            "q95_count": float(np.quantile(counts, 0.95)),
            "reporting_only": cfg.reporting_only,
        }
        if not cfg.reporting_only:
            out["pass_fraction"] = float(np.mean([c >= MIN_SIGN_CHANGES for c in counts]))
            out["min_sign_changes"] = MIN_SIGN_CHANGES
        return out
    if experiment == "positivity":
        mins = [float(r["min_value"]) for r in rows]
        return {
            "mean_min_value": float(np.mean(mins)),
            "median_min_value": float(np.quantile(mins, 0.5)),
            "q05_min_value": float(np.quantile(mins, 0.05)),
            "q95_min_value": float(np.quantile(mins, 0.95)),
            "pass_fraction": float(np.mean([int(r["all_positive"]) for r in rows])),
        }
    if experiment == "harper":
        medians = [float(np.quantile([float(r["centered_value"]) for r in rows if float(r["sigma"]) == sigma], 0.5))
                   for sigma in cfg.sigma_grid]
        steps = sum(1 for a, b in zip(medians, medians[1:]) if b > a)
        return {
            "median_centered": {repr(sigma): m for sigma, m in zip(cfg.sigma_grid, medians)},
            "trend_steps_increasing": steps,
            "trend_steps_total": len(medians) - 1,
            "trend_increasing": steps == len(medians) - 1,
        }
    if experiment == "divergence":
        def ratio(r):
            signed = float(r["signed"])
            return float(r["absolute"]) / abs(signed) if signed != 0.0 else math.inf

        trials = {}
        for r in rows:
            trials.setdefault(r["trial"], []).append(ratio(r))
        return {
            "fraction_ratio_monotone": float(np.mean([all(b > a for a, b in zip(t, t[1:])) for t in trials.values()])),
            "triangle_inequality_ok": all(float(r["absolute"]) >= abs(float(r["signed"])) for r in rows),
            "median_ratio": {
                repr(sigma): float(np.quantile([ratio(r) for r in rows
                                                if float(r["sigma"]) == sigma and float(r["signed"]) != 0.0], 0.5))
                for sigma in cfg.sigma_grid
            },
        }
    if experiment == "growth":
        cells = []
        for cell in (r for r in rows if r["trial"] == "0"):
            values = [float(r["value"]) for r in rows if (r["theta"], r["N"]) == (cell["theta"], cell["N"])]
            cells.append({"theta": float(cell["theta"]), "N": int(cell["N"]),
                          "median": float(np.quantile(values, 0.5)), "q95": float(np.quantile(values, 0.95))})
        return {"cells": cells, "reporting_only": True}
    raise NotImplementedError(experiment)


def test_summary_recomputable_from_csv():
    configs = [
        ExperimentConfig(experiment="sign-changes", model="f", alpha=0.25, limit=3000, trials=12, base_seed=4),
        ExperimentConfig(experiment="positivity", model="fstar", alpha=1.0, limit=500, trials=20, base_seed=5),
        ExperimentConfig(experiment="harper", limit=1, trials=9, base_seed=6, sigma_grid=(0.58, 0.55, 0.52),
                         prime_limit=10**4),
        ExperimentConfig(experiment="divergence", model="f", alpha=0.5, limit=2000, trials=9, base_seed=7,
                         sigma_grid=(0.58, 0.55, 0.52), prime_limit=2000),
        ExperimentConfig(experiment="growth", model="f", alpha=0.0, limit=10**5, trials=7, base_seed=8),
    ]
    for cfg in configs:
        stats = run_experiment(cfg)
        assert _summary_from_csv(cfg.experiment, "".join(trials_csv(stats)), cfg) == stats.summary, cfg.experiment


def test_divergence_summary_takes_a_zero_signed_integral_as_an_infinite_ratio(monkeypatch):
    # ratios (absolute / |signed|, inf where signed = 0) per trial:
    # [2, inf, 2.5] falls at the end, [2, 3, inf] and [1, 2, 4] rise
    signed = [[1.0, 0.0, 2.0], [1.0, 1.0, 0.0], [-1.0, 0.5, 0.25]]
    absolute = [[2.0, 3.0, 5.0], [2.0, 3.0, 4.0], [1.0, 1.0, 1.0]]
    grid = (0.58, 0.55, 0.52)
    columns = {"sigma": np.tile(grid, 3), "signed": np.ravel(signed), "absolute": np.ravel(absolute),
               "harper_witness": np.ones(9), "N": np.full(9, 100), "prime_limit": np.full(9, 1000)}
    monkeypatch.setattr(experiments_module.mellin, "divergence_rows", lambda *args: columns)
    cfg = ExperimentConfig(experiment="divergence", model="f", alpha=0.5, limit=100, trials=3, sigma_grid=grid,
                           prime_limit=1000)
    stats = run_experiment(cfg)
    assert stats.summary == {
        "fraction_ratio_monotone": 2 / 3,
        "triangle_inequality_ok": True,
        "median_ratio": {"0.58": 2.0, "0.55": 2.5, "0.52": 3.25},
    }
    assert _summary_from_csv("divergence", "".join(trials_csv(stats)), cfg) == stats.summary


# trial seeds 0, 1 and 3 of base seed 0 lie at or above 2^63, where an int64 seed would wrap
@pytest.mark.parametrize("base", [
    dict(experiment="sign-changes", model="f", alpha=0.5, limit=3000, trials=10),
    dict(experiment="sign-changes", model="fstar", alpha=0.0, limit=1000, trials=3, sign_mode="minus-one"),
    dict(experiment="positivity", model="fstar", alpha=1.0, limit=2000, trials=12),
    dict(experiment="harper", limit=1, trials=5, sigma_grid=(0.56, 0.53), prime_limit=10**4),
    dict(experiment="harper", limit=1, trials=2, sigma_grid=(0.56,), prime_limit=10**3, sign_mode="minus-one"),
    dict(experiment="divergence", model="fstar", alpha=0.25, limit=3000, trials=5, sigma_grid=(0.58, 0.54),
         prime_limit=3000),
    dict(experiment="divergence", model="f", alpha=0.5, limit=500, trials=2, sigma_grid=(0.56,), prime_limit=500,
         sign_mode="minus-one"),
    dict(experiment="growth", model="f", alpha=0.0, limit=2000, trials=6),
    dict(experiment="growth", model="f", alpha=0.0, limit=2000, trials=2, sign_mode="minus-one"),
], ids=lambda base: "-".join(filter(None, (base["experiment"], base.get("sign_mode")))))
def test_trials_csv_matches_the_record_route(base):
    config = ExperimentConfig(**base, base_seed=0, threads=2)
    assert trial_seed(0, 0) >= 2**63
    assert "".join(trials_csv(run_experiment(config))) == records_csv(config)


@pytest.mark.parametrize("experiment, model, alpha", [
    ("sign-changes", "f", 0.5), ("positivity", "fstar", 1.0), ("harper", "f", 0.0), ("divergence", "f", 0.5)])
def test_the_memory_check_counts_what_a_run_holds(monkeypatch, experiment, model, alpha):
    # at N = 100 and P = 1000 nearly all that 10^4 trials hold is per row: the
    # Python objects of their results or the scan's blocks at the peak, then
    # only the CSV columns; divergence's peak is taken from its first Euler
    # product on, after the scan and the engine
    trials, grid, asked, reset = 10**4, (0.56, 0.54, 0.52), [], []
    monkeypatch.setattr(primes_module, "require_memory", lambda requested, what: asked.append(requested))
    config = dict(experiment=experiment, model=model, alpha=alpha, limit=100, threads=1)
    if experiment in ("harper", "divergence"):
        config.update(sigma_grid=grid, prime_limit=1000)
    # what the check counts that does not grow with the rows: the engine (its
    # batch is capped), the sieve, divergence's kernels and integrand and a
    # scan of no rows
    engine, scan = engine_bytes(100, trials, 1), scan_bytes(0, grid, None, 1000) + 4 * 1001
    fixed = {"harper": scan, "divergence": engine + 8 * 101 * (len(grid) + 1) + scan}.get(experiment, engine + 4 * 101)
    run_experiment(ExperimentConfig(**config, trials=3))  # what a first run allocates once
    product = experiments_module.dirichlet.euler_product_F

    def product_after_reset(*args):
        if not reset:
            reset.append(tracemalloc.reset_peak())
        return product(*args)

    monkeypatch.setattr(experiments_module.dirichlet, "euler_product_F", product_after_reset)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stats = run_experiment(ExperimentConfig(**config, trials=trials))
        held, peak = (traced - before for traced in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    rows = len(stats.columns["trial"])
    assert bool(reset) == (experiment == "divergence")
    assert peak / rows <= (asked[-1] - fixed) / rows
    # 16 a row: the interpreter keeps up to 2000 freed pairs for reuse (112 kB)
    assert held <= rows * (8 * len(stats.columns) + 16)


@pytest.mark.parametrize("config", [
    *(dict(experiment="sign-changes", model=model, alpha=alpha, trials=trials, threads=threads)
      for model, alpha in (("f", 0.5), ("fstar", 0.25)) for trials in (16, 64, 65) for threads in (1, 2)),
    *(dict(experiment="divergence", model="f", alpha=0.5, trials=threads, threads=threads, prime_limit=1000)
      for threads in (1, 2)),
], ids=lambda c: "-".join(map(str, (c["experiment"], c["model"], c["alpha"], c["trials"], c["threads"]))))
def test_the_memory_check_covers_the_peak_past_2_20(monkeypatch, config):
    # past 2^20 integers the per-n arrays, lane steps, segment buffers and
    # integrands make the peak, not the rows; 65 trials make a second batch
    asked = []
    monkeypatch.setattr(primes_module, "require_memory", lambda requested, what: asked.append(requested))
    run_experiment(ExperimentConfig(**config, limit=100))  # what a first run allocates once
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_experiment(ExperimentConfig(**config, limit=2**20 + 1))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= asked[-1]


def test_manifest_round_trip():
    cfg = ExperimentConfig(
        experiment="divergence", model="fstar", alpha=0.25, limit=2000, trials=3, base_seed=8,
        sigma_grid=(0.56, 0.54), prime_limit=10**4,
    )
    stats = run_experiment(cfg)
    manifest = manifest_dict(stats, wall_time=1.0)
    for key in ("command", "model", "alpha", "N", "trials", "base_seed",
                "prime_limit", "sigma_grid", "tool_version", "wall_time"):
        assert key in manifest
    cfg2 = config_from_manifest(manifest)
    assert cfg2.experiment == cfg.experiment
    assert cfg2.model is cfg.model
    assert cfg2.alpha == cfg.alpha
    assert cfg2.limit == cfg.limit
    assert cfg2.sigma_grid == cfg.sigma_grid


def test_write_and_replay(tmp_path):
    cfg = ExperimentConfig(experiment="sign-changes", model="f", alpha=0.0, limit=2000, trials=5, base_seed=10)
    stats = run_experiment(cfg)
    manifest_path, csv_path = write_experiment(stats, tmp_path / "run", wall_time=0.5)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    assert manifest["csv_sha256"]
    ok, recorded, recomputed = replay_experiment(manifest_path)
    assert ok and recorded == recomputed


def test_assert_outcome_positivity():
    cfg = ExperimentConfig(experiment="positivity", model="fstar", alpha=1.0, limit=200, trials=30, base_seed=6)
    stats = run_experiment(cfg)
    ok, message = assert_outcome(stats)
    assert isinstance(ok, bool) and "fraction" in message


@pytest.mark.parametrize(
    "grid, step",
    [
        ((), None),
        ((0.52, 0.56), None),
        ((0.55, 0.55), None),
        ((0.8, 0.6), None),
        ((0.65, 0.55), None),
        ((0.56, 0.5), None),
        ((0.58, 0.54), 0.0),
        ((0.58, 0.54), -1.0),
        ((0.58, 0.54), float("inf")),
        ((0.58, 0.54), 11.76),
    ],
)
def test_divergence_apis_reject_the_same_grids(grid, step):
    with pytest.raises(DomainError) as single:
        divergence_rows([SignAssignment.iid(1)], "f", 0.5, list(grid), 100, 100, step)
    cfg = ExperimentConfig(
        experiment="divergence", model="f", alpha=0.5, limit=100, trials=2,
        sigma_grid=grid, prime_limit=100, grid_step=step,
    )
    with pytest.raises(DomainError) as batch:
        run_experiment(cfg)
    assert str(single.value) == str(batch.value)
