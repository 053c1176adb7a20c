import json

import numpy as np
import pytest

from rmflab.dirichlet import default_grid_step, sup_scans
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
from rmflab.series import compute_series, detect_sign_changes
from rmflab.signs import SignAssignment, SignMode, trial_seed


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


def test_explicit_sign_mode_is_rejected(table_1e5):
    config = ExperimentConfig(experiment="sign-changes", limit=100, trials=2, sign_mode=SignMode.EXPLICIT)
    with pytest.raises(DomainError, match="explicit"):
        run_experiment(config, table_1e5)


def test_default_grids_applied():
    cfg = ExperimentConfig(experiment="harper")
    assert cfg.sigma_grid == (0.58, 0.55, 0.52, 0.51)
    assert cfg.prime_limit == 10**6
    cfg2 = ExperimentConfig(experiment="divergence", model="f", alpha=0.5)
    assert cfg2.sigma_grid == (0.56, 0.54, 0.52)


def test_sign_change_trivial_single_trial(table_1e5):
    cfg = ExperimentConfig(experiment="sign-changes", model="f", alpha=0.0, limit=1, trials=1, base_seed=0)
    stats = run_experiment(cfg, table_1e5)
    assert stats.per_trial[0]["count"] == 0
    assert stats.per_trial[0]["last_position"] == 0


def test_sign_change_records_depend_only_on_trial_seed(table_1e5):
    cfg = ExperimentConfig(
        experiment="sign-changes", model="fstar", alpha=0.25, limit=5000, trials=6, base_seed=99, threads=2
    )
    stats = run_experiment(cfg, table_1e5)
    for i in (0, 3, 5):
        seed = trial_seed(99, i)
        series = compute_series(SignAssignment.iid(seed), "fstar", 0.25, 5000, table_1e5)
        log = detect_sign_changes(series)
        assert stats.per_trial[i]["seed"] == seed
        assert stats.per_trial[i]["count"] == log.count


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
def test_sign_change_worker_count_invariance(table_1e5, base):
    texts = []
    for threads in (1, 2, 4, 8):
        cfg = ExperimentConfig(**base, threads=threads)
        texts.append(trials_csv(run_experiment(cfg, table_1e5)))
    assert texts[0] == texts[1] == texts[2] == texts[3]


def test_sign_change_reporting_only_regime(table_1e5):
    cfg = ExperimentConfig(experiment="sign-changes", model="fstar", alpha=0.5, limit=2000, trials=5, base_seed=1)
    stats = run_experiment(cfg, table_1e5)
    assert stats.summary["reporting_only"] is True
    assert "pass_fraction" not in stats.summary
    ok, message = assert_outcome(stats)
    assert ok and "reporting-only" in message


def test_positivity_trivial_n1(table_1e5):
    cfg = ExperimentConfig(experiment="positivity", model="fstar", alpha=1.0, limit=1, trials=4, base_seed=2)
    stats = run_experiment(cfg, table_1e5)
    assert stats.summary["pass_fraction"] == 1.0
    assert all(r["min_value"] == 1.0 for r in stats.per_trial)


def test_positivity_small_run(table_1e5):
    cfg = ExperimentConfig(experiment="positivity", model="fstar", alpha=1.0, limit=100, trials=64, base_seed=3, threads=2)
    stats = run_experiment(cfg, table_1e5)
    for r in stats.per_trial:
        assert (r["min_value"] > 0) == bool(r["all_positive"])
    # M_1(2) = 1 + fstar(2)/2 >= 1/2 > 0 regardless of the sign
    assert all(r["min_value"] > 0 or r["min_value"] <= 0.5 for r in stats.per_trial)


def test_harper_minus_one_trials_identical(table_1e5):
    cfg = ExperimentConfig(
        experiment="harper",
        trials=3,
        base_seed=5,
        limit=1,
        sign_mode=SignMode.ALL_MINUS_ONE,
        sigma_grid=(0.58, 0.55),
        prime_limit=10**4,
    )
    stats = run_experiment(cfg, table_1e5)
    rows_by_trial = {}
    for row in stats.per_trial:
        rows_by_trial.setdefault(row["trial"], []).append((row["sigma"], row["sup_value"], row["t_star"]))
    assert rows_by_trial[0] == rows_by_trial[1] == rows_by_trial[2]


def test_harper_batch_matches_single_scan(table_1e5):
    cfg = ExperimentConfig(
        experiment="harper", trials=4, base_seed=11, limit=1, sigma_grid=(0.55,), prime_limit=10**4
    )
    stats = run_experiment(cfg, table_1e5)
    for i in (0, 2):
        seed = trial_seed(11, i)
        single = sup_scans([SignAssignment.iid(seed)], (0.55,), None, 10**4, table_1e5)[0][0]
        row = [r for r in stats.per_trial if r["trial"] == i][0]
        assert abs(row["sup_value"] - single.sup_value) < 1e-9
        assert abs(row["t_star"] - single.t_star) < 1e-12
        assert row["grid_step"] == single.grid_step


def test_harper_grid_step_refinement_non_decreasing(table_1e5):
    base = dict(experiment="harper", trials=3, base_seed=21, limit=1, sigma_grid=(0.55,), prime_limit=10**4)
    step = default_grid_step(0.55)
    coarse = run_experiment(ExperimentConfig(**base, grid_step=step), table_1e5)
    fine = run_experiment(ExperimentConfig(**base, grid_step=step / 2), table_1e5)
    for r_coarse, r_fine in zip(coarse.per_trial, fine.per_trial):
        assert r_fine["sup_value"] >= r_coarse["sup_value"]


def test_divergence_experiment_summary(table_1e5):
    cfg = ExperimentConfig(
        experiment="divergence", model="f", alpha=0.5, limit=4000, trials=6, base_seed=13,
        sigma_grid=(0.58, 0.55, 0.52), prime_limit=10**4, threads=2,
    )
    stats = run_experiment(cfg, table_1e5)
    assert stats.summary["triangle_inequality_ok"] is True
    assert 0.0 <= stats.summary["fraction_ratio_monotone"] <= 1.0
    assert len(stats.per_trial) == 6 * 3
    for row in stats.per_trial:
        assert row["absolute"] >= abs(row["signed"])
        assert row["N"] == 4000


def test_growth_experiment_reporting(table_1e5):
    cfg = ExperimentConfig(experiment="growth", model="f", alpha=0.0, limit=10**4, trials=3, base_seed=17, threads=2)
    stats = run_experiment(cfg, table_1e5)
    assert stats.summary["reporting_only"] is True
    # theta = 0.25 can never beat theta = 0 (normalizer >= 1 on x >= 16)
    by_key = {(r["trial"], r["theta"], r["N"]): r["value"] for r in stats.per_trial}
    for trial in range(3):
        assert by_key[(trial, 0.25, 10**4)] <= by_key[(trial, 0.0, 10**4)]
        assert by_key[(trial, 0.5, 10**4)] <= by_key[(trial, 0.25, 10**4)]
    ok, _ = assert_outcome(stats)
    assert ok


def test_growth_minus_one_deterministic(table_1e5):
    cfg = ExperimentConfig(
        experiment="growth", model="f", alpha=0.0, limit=10**4, trials=2, base_seed=1,
        sign_mode=SignMode.ALL_MINUS_ONE,
    )
    stats = run_experiment(cfg, table_1e5)
    v0 = [r["value"] for r in stats.per_trial if r["trial"] == 0]
    v1 = [r["value"] for r in stats.per_trial if r["trial"] == 1]
    assert v0 == v1


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
    raise NotImplementedError(experiment)


def test_summary_recomputable_from_csv(table_1e5):
    cfg = ExperimentConfig(experiment="sign-changes", model="f", alpha=0.25, limit=3000, trials=12, base_seed=4)
    stats = run_experiment(cfg, table_1e5)
    assert _summary_from_csv("sign-changes", trials_csv(stats), cfg) == stats.summary
    cfg2 = ExperimentConfig(experiment="positivity", model="fstar", alpha=1.0, limit=500, trials=20, base_seed=5)
    stats2 = run_experiment(cfg2, table_1e5)
    assert _summary_from_csv("positivity", trials_csv(stats2), cfg2) == stats2.summary


def test_manifest_round_trip(table_1e5):
    cfg = ExperimentConfig(
        experiment="divergence", model="fstar", alpha=0.25, limit=2000, trials=3, base_seed=8,
        sigma_grid=(0.56, 0.54), prime_limit=10**4,
    )
    stats = run_experiment(cfg, table_1e5)
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


def test_write_and_replay(tmp_path, table_1e5):
    cfg = ExperimentConfig(experiment="sign-changes", model="f", alpha=0.0, limit=2000, trials=5, base_seed=10)
    stats = run_experiment(cfg, table_1e5)
    manifest_path, csv_path = write_experiment(stats, tmp_path / "run", wall_time=0.5)
    manifest = json.loads(open(manifest_path).read())
    assert manifest["csv_sha256"]
    ok, recorded, recomputed = replay_experiment(manifest_path)
    assert ok and recorded == recomputed


def test_assert_outcome_positivity(table_1e5):
    cfg = ExperimentConfig(experiment="positivity", model="fstar", alpha=1.0, limit=200, trials=30, base_seed=6)
    stats = run_experiment(cfg, table_1e5)
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
    ],
)
def test_divergence_apis_reject_the_same_grids(table_1e5, grid, step):
    with pytest.raises(DomainError) as single:
        divergence_rows([SignAssignment.iid(1)], "f", 0.5, list(grid), 100, 100, table_1e5, step)
    cfg = ExperimentConfig(
        experiment="divergence", model="f", alpha=0.5, limit=100, trials=2,
        sigma_grid=grid, prime_limit=100, grid_step=step,
    )
    with pytest.raises(DomainError) as batch:
        run_experiment(cfg, table_1e5)
    assert str(single.value) == str(batch.value)
