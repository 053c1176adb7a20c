"""Multi-seed experiment drivers with reproducible seeding and summaries.

Trial i of an experiment uses the derived seed mix64((base_seed ^ salt) +
i * golden), so per-trial results are independent of execution order and
worker count; aggregation is an ordered fold by trial index.  Trials are
embarrassingly parallel and share nothing mutable beyond the result sink
(per-trial series are transient: only sign-change logs, extremes, and scalar
statistics are retained).

Statistical thresholds (minimum sign-change count, pass rates, majority
fractions) are configuration defaults calibrated by a pilot run, not
constants of any theorem; they are recorded in every manifest and reports
never fail on them unless the caller asks for assert mode.  The
completely-multiplicative model at alpha = 1/2 is always reporting-only:
whether those sums keep changing sign is open, and the tool must not claim
a pass or a fail there.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, dirichlet, mellin
from .errors import DomainError
from .output import atomic_write, csv_text, sha256_file, sha256_text
from .primes import SpfTable, build_spf_sieve
from .primes import primes_up_to  # noqa: F401  the benchmark's tests read this binding
from .series import (
    Model,
    SignChangeLog,
    WeightedSumSeries,
    compute_series,
    detect_sign_changes,
    growth_statistic,
    map_ordered,
)
from .signs import SignAssignment, SignMode, load_explicit_signs, trial_seed

EXPERIMENTS = ("sign-changes", "positivity", "harper", "divergence", "growth")

DEFAULT_HARPER_GRID = (0.58, 0.55, 0.52, 0.51)
DEFAULT_DIVERGENCE_GRID = (0.56, 0.54, 0.52)
GROWTH_THETAS = (0.0, 0.25, 0.5)
GROWTH_CHECKPOINTS = (10**4, 10**5, 10**6)

CSV_COLUMNS = {
    "sign-changes": ("trial", "seed", "count", "last_position"),
    "positivity": ("trial", "seed", "all_positive", "min_value"),
    "harper": (
        "trial",
        "seed",
        "sigma",
        "t_star",
        "sup_value",
        "centered_value",
        "grid_step",
        "prime_limit",
    ),
    "divergence": (
        "trial",
        "seed",
        "sigma",
        "signed",
        "absolute",
        "harper_witness",
        "N",
        "prime_limit",
    ),
    "growth": ("trial", "seed", "theta", "N", "value"),
}


def resolve_threads(threads: int | None) -> int:
    """Worker count: explicit value, else RMF_LAB_THREADS, else cpu count."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("RMF_LAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise DomainError(f"RMF_LAB_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


@dataclass
class ExperimentConfig:
    """Everything needed to bit-reproduce one experiment run."""

    experiment: str
    model: Model = Model.F
    alpha: float = 0.0
    limit: int = 10**6
    trials: int = 100
    base_seed: int = 42
    sign_mode: SignMode = SignMode.IID_RADEMACHER
    sigma_grid: tuple[float, ...] | None = None
    prime_limit: int | None = None
    grid_step: float | None = None
    threads: int | None = None
    output_path: str | None = None
    # Statistical acceptance defaults, calibrated by pilot (see README).
    min_sign_changes: int = 5
    pass_rate: float = 0.95
    positivity_rate: float = 0.99

    def __post_init__(self):
        self.model = Model(self.model)
        self.sign_mode = SignMode(self.sign_mode)
        if self.sigma_grid is not None:
            self.sigma_grid = tuple(float(x) for x in self.sigma_grid)
        if self.experiment == "harper" and self.sigma_grid is None:
            self.sigma_grid = DEFAULT_HARPER_GRID
        if self.experiment == "divergence" and self.sigma_grid is None:
            self.sigma_grid = DEFAULT_DIVERGENCE_GRID
        if self.experiment in ("harper", "divergence") and self.prime_limit is None:
            self.prime_limit = 10**6

    @property
    def reporting_only(self) -> bool:
        """No pass/fail is ever attached: the open alpha = 1/2 fstar probe
        and the growth envelope report distributions only."""
        if self.experiment == "growth":
            return True
        return (
            self.experiment == "sign-changes"
            and self.model is Model.F_STAR
            and self.alpha == 0.5
        )

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise DomainError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.limit < 1:
            raise DomainError(f"limit must be >= 1, got {self.limit}")
        if self.experiment == "sign-changes":
            if not 0.0 <= self.alpha <= 0.5:
                raise DomainError(
                    f"model {self.model.value} sign changes need alpha in [0, 1/2], got {self.alpha}"
                )
        elif self.experiment == "positivity":
            if self.model is not Model.F_STAR or self.alpha != 1.0:
                raise DomainError("positivity experiment requires model fstar and alpha = 1")
        elif self.experiment == "growth":
            if self.model is not Model.F or self.alpha != 0.0:
                raise DomainError("growth experiment requires model f and alpha = 0")
            if self.limit < 16:
                raise DomainError("growth experiment requires limit >= 16")
        if self.experiment in ("harper", "divergence"):
            low = 0.5 if self.experiment == "harper" else max(self.alpha, 0.5)
            dirichlet.check_sigma_grid(self.sigma_grid, self.grid_step, low)
            if self.prime_limit is None or self.prime_limit < 2:
                raise DomainError("prime_limit >= 2 is required")
        if self.experiment == "divergence":
            if self.limit < 2:
                raise DomainError(f"divergence experiment requires limit >= 2, got {self.limit}")
            if self.model is Model.F and not 0.0 <= self.alpha <= 0.5:
                raise DomainError(f"model f divergence needs alpha in [0, 1/2], got {self.alpha}")
            if self.model is Model.F_STAR and not 0.0 <= self.alpha < 0.5:
                raise DomainError(
                    f"model fstar divergence needs alpha in [0, 1/2), got {self.alpha}"
                )

    def assignment_for_trial(self, index: int) -> tuple[int, SignAssignment]:
        seed = trial_seed(self.base_seed, index)
        if self.sign_mode is SignMode.ALL_MINUS_ONE:
            return seed, SignAssignment.all_minus_one()
        return seed, SignAssignment.iid(seed)

    def trial_assignments(self) -> tuple[list[int], list[SignAssignment]]:
        """(seeds, assignments) of every trial, in trial order."""
        pairs = [self.assignment_for_trial(i) for i in range(self.trials)]
        return [seed for seed, _ in pairs], [assignment for _, assignment in pairs]


@dataclass
class AggregateStats:
    """Ordered per-trial records plus a summary recomputable from them."""

    config: ExperimentConfig
    per_trial: list[dict] = field(repr=False)
    summary: dict

    @property
    def columns(self) -> tuple[str, ...]:
        return CSV_COLUMNS[self.config.experiment]


def _quantile_summary(values, prefix: str) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {
        f"mean_{prefix}": float(np.mean(arr)),
        f"median_{prefix}": float(np.quantile(arr, 0.5)),
        f"q05_{prefix}": float(np.quantile(arr, 0.05)),
        f"q95_{prefix}": float(np.quantile(arr, 0.95)),
    }


def _map_trials(config: ExperimentConfig, worker) -> list:
    """Run worker(i) for each trial, results ordered by trial index."""
    return map_ordered(worker, range(config.trials), resolve_threads(config.threads))


def _shared_table(config: ExperimentConfig, table: SpfTable | None) -> SpfTable:
    need = max(config.limit, config.prime_limit or 2, 2)
    if table is not None:
        if table.limit < need:
            raise DomainError(f"provided sieve covers {table.limit} < required {need}")
        return table
    return build_spf_sieve(need)


# ---------------------------------------------------------------------------
# Individual experiments
# ---------------------------------------------------------------------------


def run_sign_change_experiment(
    config: ExperimentConfig, table: SpfTable | None = None
) -> AggregateStats:
    """Sign-change census of M_alpha over independent realizations.

    Per trial: crossing count and last crossing position.  The summary holds
    count quantiles and, except in the reporting-only regime, the fraction
    of trials with at least min_sign_changes crossings.
    """
    config.validate()
    if config.experiment != "sign-changes":
        raise DomainError("config.experiment must be 'sign-changes'")
    tab = _shared_table(config, table)

    def worker(i: int) -> dict:
        seed, assignment = config.assignment_for_trial(i)
        series = compute_series(assignment, config.model, config.alpha, config.limit, tab)
        log = detect_sign_changes(series)
        return {
            "trial": i,
            "seed": seed,
            "count": log.count,
            "last_position": int(log.positions[-1]) if log.count else 0,
        }

    records = _map_trials(config, worker)
    counts = [r["count"] for r in records]
    summary = _quantile_summary(counts, "count")
    summary["reporting_only"] = config.reporting_only
    if not config.reporting_only:
        summary["pass_fraction"] = float(
            np.mean([c >= config.min_sign_changes for c in counts])
        )
        summary["min_sign_changes"] = config.min_sign_changes
    return AggregateStats(config=config, per_trial=records, summary=summary)


def run_positivity_experiment(
    config: ExperimentConfig, table: SpfTable | None = None
) -> AggregateStats:
    """Probability that the harmonic fstar sums stay strictly positive.

    Per trial: the minimum of M_1(x) over 1 <= x <= N and the indicator that
    it is positive (equivalently that M_1(x) > 0 for all 2 <= x <= N, since
    M_1(1) = 1).
    """
    config.validate()
    if config.experiment != "positivity":
        raise DomainError("config.experiment must be 'positivity'")
    tab = _shared_table(config, table)

    def worker(i: int) -> dict:
        seed, assignment = config.assignment_for_trial(i)
        series = compute_series(assignment, Model.F_STAR, 1.0, config.limit, tab)
        min_value = float(np.min(series.values[1:]))
        return {
            "trial": i,
            "seed": seed,
            "all_positive": int(min_value > 0.0),
            "min_value": min_value,
        }

    records = _map_trials(config, worker)
    summary = _quantile_summary([r["min_value"] for r in records], "min_value")
    summary["pass_fraction"] = float(np.mean([r["all_positive"] for r in records]))
    return AggregateStats(config=config, per_trial=records, summary=summary)


def run_harper_scan(config: ExperimentConfig, table: SpfTable | None = None) -> AggregateStats:
    """Sup-scan statistics per trial and sigma, with the trend summary.

    All trials of one sigma are scanned against shared cosine blocks (the
    grid depends only on sigma), which keeps the acceptance-scale run inside
    its time budget.  The summary reports the median centered value per
    sigma and whether the medians increase at every step of the
    (decreasing-sigma) grid.
    """
    config.validate()
    if config.experiment != "harper":
        raise DomainError("config.experiment must be 'harper'")
    tab = _shared_table(config, table)
    seeds, assignments = config.trial_assignments()
    scans = dirichlet.sup_scans(
        assignments, config.sigma_grid, config.grid_step, config.prime_limit, tab
    )
    records = [
        {"trial": i, "seed": seeds[i], **asdict(scan)}
        for i, row in enumerate(scans)
        for scan in row
    ]
    med_list = [
        float(np.quantile([row[k].centered_value for row in scans], 0.5))
        for k in range(len(config.sigma_grid))
    ]
    trend_steps = sum(1 for a, b in zip(med_list, med_list[1:]) if b > a)
    summary = {
        "median_centered": {repr(float(sig)): m for sig, m in zip(config.sigma_grid, med_list)},
        "trend_steps_increasing": trend_steps,
        "trend_steps_total": max(len(med_list) - 1, 0),
        "trend_increasing": trend_steps == max(len(med_list) - 1, 0),
    }
    return AggregateStats(config=config, per_trial=records, summary=summary)


def run_divergence_comparison(
    config: ExperimentConfig, table: SpfTable | None = None
) -> AggregateStats:
    """Signed vs absolute Mellin integrals with sup-scan witnesses, per trial.

    One assignment per trial is shared across the whole sigma grid.  The
    summary reports the fraction of trials whose absolute/|signed| ratio
    increases monotonically toward sigma = 1/2 and whether the triangle
    inequality absolute >= |signed| held everywhere (it must).
    """
    config.validate()
    if config.experiment != "divergence":
        raise DomainError("config.experiment must be 'divergence'")
    tab = _shared_table(config, table)
    seeds, assignments = config.trial_assignments()
    tables = mellin.divergence_rows(
        assignments, config.model, config.alpha, config.sigma_grid, config.limit,
        config.prime_limit, tab, config.grid_step, resolve_threads(config.threads),
    )

    records = []
    monotone_flags = []
    triangle_ok = True
    for i, rows in enumerate(tables):
        ratios = []
        for row in rows:
            if row.absolute < abs(row.signed):
                triangle_ok = False
            ratios.append(row.absolute / abs(row.signed) if row.signed != 0.0 else math.inf)
            records.append(
                {
                    "trial": i,
                    "seed": seeds[i],
                    "sigma": row.sigma,
                    "signed": row.signed,
                    "absolute": row.absolute,
                    "harper_witness": row.harper_witness,
                    "N": row.limit,
                    "prime_limit": row.prime_limit,
                }
            )
        monotone_flags.append(all(b > a for a, b in zip(ratios, ratios[1:])))
    summary = {
        "fraction_ratio_monotone": float(np.mean(monotone_flags)),
        "triangle_inequality_ok": triangle_ok,
        "median_ratio": {
            repr(float(sigma)): float(
                np.quantile(
                    [rows[k].absolute / abs(rows[k].signed) for rows in tables if rows[k].signed != 0.0],
                    0.5,
                )
            )
            for k, sigma in enumerate(config.sigma_grid)
        },
    }
    return AggregateStats(config=config, per_trial=records, summary=summary)


def run_growth_experiment(config: ExperimentConfig, table: SpfTable | None = None) -> AggregateStats:
    """Growth-envelope statistics max |M_0(x)| / (sqrt(x) (log log x)^theta).

    Reporting-only: quantiles per (theta, checkpoint N); asymptotic claims
    admit no finite-N pass/fail.
    """
    config.validate()
    if config.experiment != "growth":
        raise DomainError("config.experiment must be 'growth'")
    tab = _shared_table(config, table)
    checkpoints = [n for n in GROWTH_CHECKPOINTS if n <= config.limit] or [config.limit]

    def worker(i: int) -> list[dict]:
        seed, assignment = config.assignment_for_trial(i)
        series = compute_series(assignment, Model.F, 0.0, config.limit, tab)
        rows = []
        for n in checkpoints:
            prefix = series.values[1 : n + 1]
            sub = WeightedSumSeries.from_values(prefix, model=Model.F, alpha=0.0)
            for theta in GROWTH_THETAS:
                rows.append(
                    {
                        "trial": i,
                        "seed": seed,
                        "theta": float(theta),
                        "N": n,
                        "value": growth_statistic(sub, theta),
                    }
                )
        return rows

    nested = _map_trials(config, worker)
    records = [row for rows in nested for row in rows]
    cells = []
    for n in checkpoints:
        for theta in GROWTH_THETAS:
            vals = [r["value"] for r in records if r["N"] == n and r["theta"] == theta]
            cells.append(
                {
                    "theta": float(theta),
                    "N": n,
                    "median": float(np.quantile(vals, 0.5)),
                    "q95": float(np.quantile(vals, 0.95)),
                }
            )
    summary = {"cells": cells, "reporting_only": True}
    return AggregateStats(config=config, per_trial=records, summary=summary)


_RUNNERS = {
    "sign-changes": run_sign_change_experiment,
    "positivity": run_positivity_experiment,
    "harper": run_harper_scan,
    "divergence": run_divergence_comparison,
    "growth": run_growth_experiment,
}


def run_experiment(config: ExperimentConfig, table: SpfTable | None = None) -> AggregateStats:
    config.validate()
    return _RUNNERS[config.experiment](config, table)


# ---------------------------------------------------------------------------
# Serialization: CSVs, the manifest of every command that writes files, replay
# ---------------------------------------------------------------------------


def trials_csv(stats: AggregateStats) -> str:
    """Per-trial CSV with the experiment's column schema, one row per record."""
    return csv_text(stats.columns, [[r[c] for r in stats.per_trial] for c in stats.columns])


def _series_csvs(series: WeightedSumSeries, log: SignChangeLog) -> dict[str, str]:
    """File name -> CSV text of the series command's two outputs."""
    return {
        "series.csv": csv_text(("x", "value"), (range(1, series.limit + 1), series.values[1:])),
        "sign_changes.csv": csv_text(("position", "sign_after"), (log.positions, log.signs_after())),
    }


def _manifest(command, model, alpha, limit, sign_mode, wall_time, **specific) -> dict:
    """The keys every manifest carries, around the command's own keys.

    The writer adds csv_sha256, the map file name -> sha256 of each CSV.
    """
    return {
        "command": command,
        "tool_version": __version__,
        "model": model.value,
        "alpha": alpha,
        "N": limit,
        "sign_mode": sign_mode.value,
        **specific,
        "wall_time": wall_time,
    }


def manifest_dict(stats: AggregateStats, wall_time: float | None = None) -> dict:
    cfg = stats.config
    return _manifest(
        cfg.experiment, cfg.model, cfg.alpha, cfg.limit, cfg.sign_mode, wall_time,
        trials=cfg.trials,
        base_seed=cfg.base_seed,
        sigma_grid=list(cfg.sigma_grid) if cfg.sigma_grid else None,
        prime_limit=cfg.prime_limit,
        grid_step=cfg.grid_step,
        thresholds={k: getattr(cfg, k) for k in ("min_sign_changes", "pass_rate", "positivity_rate")},
        reporting_only=cfg.reporting_only,
        columns=list(stats.columns),
        summary=stats.summary,
    )


def _write_run(outdir, manifest: dict, texts: dict[str, str]) -> list[str]:
    """Write manifest.json with csv_sha256 null, then each CSV, then the
    manifest again with csv_sha256 mapping each file name to its sha256.

    Every write is temp-file + rename, so a manifest whose csv_sha256 is
    null marks a run that did not finish.  Returns the absolute paths
    written, manifest first.
    """
    paths = [os.path.join(os.path.abspath(outdir), name) for name in ("manifest.json", *texts)]
    atomic_write(paths[0], json.dumps({**manifest, "csv_sha256": None}, indent=2) + "\n")
    for path, text in zip(paths[1:], texts.values()):
        atomic_write(path, text)
    digests = {name: sha256_text(text) for name, text in texts.items()}
    atomic_write(paths[0], json.dumps({**manifest, "csv_sha256": digests}, indent=2) + "\n")
    return paths


def write_experiment(stats: AggregateStats, outdir=None, wall_time: float | None = None):
    """Write the manifest and trials.csv (see _write_run); returns their paths.

    outdir defaults to the config's output_path.
    """
    if outdir is None:
        outdir = stats.config.output_path
    if not outdir:
        raise DomainError("no output directory: pass outdir or set config.output_path")
    return tuple(_write_run(outdir, manifest_dict(stats, wall_time), {"trials.csv": trials_csv(stats)}))


def write_series(
    series: WeightedSumSeries, log: SignChangeLog, assignment: SignAssignment, outdir,
    wall_time: float | None = None, signs_file: str | None = None,
) -> str:
    """Write the manifest, series.csv and sign_changes.csv of one series run
    (see _write_run); returns the absolute outdir.

    signs_file names the file an explicit assignment was read from; its
    sha256 is recorded so that replay can tell a changed input from a
    changed program.
    """
    manifest = _manifest(
        "series", series.model, series.alpha, series.limit, assignment.mode, wall_time,
        seed=assignment.seed,
        signs_file=signs_file,
        signs_sha256=sha256_file(signs_file) if signs_file else None,
    )
    return os.path.dirname(_write_run(outdir, manifest, _series_csvs(series, log))[0])


def config_from_manifest(manifest: dict) -> ExperimentConfig:
    try:
        return ExperimentConfig(
            experiment=manifest["command"],
            model=Model(manifest["model"]),
            alpha=float(manifest["alpha"]),
            limit=int(manifest["N"]),
            trials=int(manifest["trials"]),
            base_seed=int(manifest["base_seed"]),
            sign_mode=SignMode(manifest["sign_mode"]),
            sigma_grid=tuple(manifest["sigma_grid"]) if manifest.get("sigma_grid") else None,
            prime_limit=manifest.get("prime_limit"),
            grid_step=manifest.get("grid_step"),
            **manifest.get("thresholds", {}),
        )
    except KeyError as exc:
        raise DomainError(f"not a replayable manifest: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise DomainError(f"not a replayable manifest: {exc}") from None


def replay_experiment(manifest_path) -> tuple[bool, dict, dict]:
    """Re-run the command of the manifest at manifest_path; compare digest maps.

    Returns (match, recorded, recomputed), each a map file name -> sha256.
    A series run from a signs file first hashes that file again: if it
    changed, nothing is recomputed and the maps hold the signs file's
    recorded and current digests.
    """
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise DomainError(f"{manifest_path}: not a JSON manifest ({exc})") from None
    if not isinstance(manifest, dict):
        raise DomainError(f"{manifest_path}: manifest must be a JSON object")
    command = manifest.get("command")
    if command in EXPERIMENTS:
        texts = {"trials.csv": trials_csv(run_experiment(config_from_manifest(manifest)))}
    elif command == "series":
        try:
            mode = SignMode(manifest["sign_mode"])
            model, alpha, limit = Model(manifest["model"]), float(manifest["alpha"]), int(manifest["N"])
            seed, signs_file = int(manifest["seed"]), str(manifest["signs_file"])
        except KeyError as exc:
            raise DomainError(f"not a replayable manifest: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise DomainError(f"not a replayable manifest: {exc}") from None
        if mode is SignMode.EXPLICIT:
            recorded, current = manifest.get("signs_sha256"), sha256_file(signs_file)
            if current != recorded:
                return False, {signs_file: recorded}, {signs_file: current}
            assignment = SignAssignment.explicit(load_explicit_signs(signs_file))
        elif mode is SignMode.ALL_MINUS_ONE:
            assignment = SignAssignment.all_minus_one()
        else:
            assignment = SignAssignment.iid(seed)
        series = compute_series(assignment, model, alpha, limit)
        texts = _series_csvs(series, detect_sign_changes(series))
    else:
        raise DomainError(f"not a replayable manifest: unknown command {command!r}")
    recorded = manifest.get("csv_sha256")
    # null (a run that did not finish) or not a map: every file differs
    recorded = recorded if isinstance(recorded, dict) else {}
    recomputed = {name: sha256_text(text) for name, text in texts.items()}
    return recomputed == recorded, recorded, recomputed


def assert_outcome(stats: AggregateStats) -> tuple[bool, str]:
    """Evaluate the experiment's statistical expectation for assert mode.

    Reporting-only configurations always pass (there is nothing to assert).
    """
    cfg = stats.config
    s = stats.summary
    if cfg.reporting_only:
        return True, "reporting-only: no statistical assertion attached"
    if cfg.experiment == "sign-changes":
        ok = s["pass_fraction"] >= cfg.pass_rate
        return ok, (
            f"fraction of trials with >= {cfg.min_sign_changes} sign changes: "
            f"{s['pass_fraction']:.4f} (needs >= {cfg.pass_rate})"
        )
    if cfg.experiment == "positivity":
        ok = s["pass_fraction"] >= cfg.positivity_rate
        return ok, f"all-positive fraction: {s['pass_fraction']:.4f} (needs >= {cfg.positivity_rate})"
    if cfg.experiment == "harper":
        ok = s["trend_increasing"]
        return ok, (
            f"median centered sup increased on {s['trend_steps_increasing']} of "
            f"{s['trend_steps_total']} grid steps (needs all)"
        )
    if cfg.experiment == "divergence":
        ok = s["triangle_inequality_ok"] and s["fraction_ratio_monotone"] > 0.5
        return ok, (
            f"triangle inequality ok: {s['triangle_inequality_ok']}, "
            f"monotone ratio fraction: {s['fraction_ratio_monotone']:.4f} (needs > 0.5)"
        )
    return True, "no assertion defined"
