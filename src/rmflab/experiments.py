"""Multi-seed experiment drivers with reproducible seeding and summaries.

run_experiment is the one runner.  It validates the config, derives every
trial's seed and assignment, and hands them to the experiment's body, which
returns each trial's rows and the summary; the runner prefixes every row
with its trial index and seed.  Each body's row literal is the experiment's
CSV schema.

Trial i of an experiment uses the derived seed mix64((base_seed ^ salt) +
i * golden), so per-trial results are independent of execution order and
worker count; aggregation is an ordered fold by trial index.  The series
experiments run their trials through series.stream_trials: each trial feeds
its M_alpha and signed weights, segment by segment, to its own reducer (sign
changes carry the last nonzero sign through series.sign_crossings,
positivity keeps the minimum, growth a running maximum per theta up to each
checkpoint) and keeps only its CSV rows.  Each run builds its own sieve,
and sizes itself in the memory check of primes.sieve_for before it does:
stream_trials counts its engine, growth adds its norms, and
mellin.divergence_rows and dirichlet.sup_scans count theirs.

EXPERIMENTS declares each experiment once (see Experiment); the config
defaults, validation, assert mode and the CLI all read that table.

The statistical thresholds (MIN_SIGN_CHANGES, PASS_RATE, POSITIVITY_RATE
and the divergence majority 1/2) are module constants calibrated by a pilot
run, not constants of any theorem; every manifest records them, and reports
never fail on them unless the caller asks for assert mode.  The
completely-multiplicative model at alpha = 1/2 is always reporting-only:
whether those sums keep changing sign is open, and the tool must not claim
a pass or a fail there.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import __version__, dirichlet, mellin
from .errors import DomainError
from .output import atomic_write, csv_blocks, sha256_file, sha256_text, write_blocks
from .primes import sieve_for
from .primes import primes_up_to  # noqa: F401  the benchmark's tests read this binding
from .series import (
    Model,
    SignChangeLog,
    WeightedSumSeries,
    compute_series,
    detect_sign_changes,
    engine_bytes,
    growth_norm,
    sign_crossings,
    stream_trials,
)
from .signs import SignAssignment, SignMode, trial_seed

DEFAULT_PRIME_LIMIT = 10**6
GROWTH_THETAS = (0.0, 0.25, 0.5)
GROWTH_CHECKPOINTS = (10**4, 10**5, 10**6)

# Statistical acceptance thresholds, calibrated by pilot (see README).
MIN_SIGN_CHANGES = 5
PASS_RATE = 0.95
POSITIVITY_RATE = 0.99


def resolve_threads(threads: int | None) -> int:
    """Worker count: explicit value, else RMF_LAB_THREADS, else cpu count;
    a given count must be an integer >= 1."""
    name, value = "threads", threads
    if value is None:
        name, value = "RMF_LAB_THREADS", os.environ.get("RMF_LAB_THREADS") or os.cpu_count() or 1
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
    return count


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

    def __post_init__(self):
        self.model = Model(self.model)
        self.sign_mode = SignMode(self.sign_mode)
        if self.sigma_grid is not None:
            self.sigma_grid = tuple(float(x) for x in self.sigma_grid)
        spec = EXPERIMENTS.get(self.experiment)
        if spec is not None and spec.sigma_grid is not None:
            if self.sigma_grid is None:
                self.sigma_grid = spec.sigma_grid
            if self.prime_limit is None:
                self.prime_limit = DEFAULT_PRIME_LIMIT

    @property
    def reporting_only(self) -> bool:
        """No pass/fail is ever attached: the open alpha = 1/2 fstar probe
        and the experiments without a check report distributions only."""
        open_probe = self.model is Model.F_STAR and self.alpha == 0.5
        return EXPERIMENTS[self.experiment].check is None or open_probe

    def validate(self) -> None:
        spec = EXPERIMENTS.get(self.experiment)
        if spec is None:
            raise DomainError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.limit < spec.min_limit:
            raise DomainError(
                f"{self.experiment} experiment requires limit >= {spec.min_limit}, got {self.limit}"
            )
        if self.sign_mode is SignMode.EXPLICIT:
            raise DomainError("experiments need iid or all-minus-one signs, got explicit")
        if spec.fixed is not None:
            model, alpha = spec.fixed
            if self.model is not model or self.alpha != alpha:
                raise DomainError(
                    f"{self.experiment} experiment requires model {model.value} and alpha = {alpha:g}"
                )
        else:
            open_end = self.experiment == "divergence" and self.model is Model.F_STAR
            if not (0.0 <= self.alpha < 0.5 if open_end else 0.0 <= self.alpha <= 0.5):
                raise DomainError(
                    f"model {self.model.value} {self.experiment} needs alpha in "
                    f"[0, 1/2{')' if open_end else ']'}, got {self.alpha}"
                )
        if spec.sigma_grid is not None:
            dirichlet.check_sigma_grid(self.sigma_grid, self.grid_step, max(self.alpha, 0.5))
            if self.prime_limit is None or self.prime_limit < 2:
                raise DomainError("prime_limit >= 2 is required")

    def trial_assignments(self) -> tuple[list[int], list[SignAssignment]]:
        """(seeds, assignments) of every trial, in trial order; all-minus-one
        mode ignores the seeds."""
        seeds = [trial_seed(self.base_seed, i) for i in range(self.trials)]
        return seeds, [SignAssignment.of(self.sign_mode, seed) for seed in seeds]


@dataclass
class AggregateStats:
    """Ordered per-trial records plus a summary recomputable from them."""

    config: ExperimentConfig
    per_trial: list[dict] = field(repr=False)
    summary: dict

    @property
    def columns(self) -> tuple[str, ...]:
        """The CSV schema: the keys of the records, in record order."""
        return tuple(self.per_trial[0])


def _quantile_summary(values, prefix: str) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {
        f"mean_{prefix}": float(np.mean(arr)),
        f"median_{prefix}": float(np.quantile(arr, 0.5)),
        f"q05_{prefix}": float(np.quantile(arr, 0.05)),
        f"q95_{prefix}": float(np.quantile(arr, 0.95)),
    }


# ---------------------------------------------------------------------------
# Reducers: feed(start, values, weights) takes one segment of a trial, with
# M_alpha(n) and g(n)/n^alpha at n = start - 1 + i in slot i >= 1 and the sum
# before the segment in slot 0, valid only during feed (series.stream_trials).
# result() is the trial's rows.
# ---------------------------------------------------------------------------


class _Crossings:
    """Crossing count and last crossing position by series.sign_crossings,
    with the last nonzero sign carried from segment to segment."""

    def __init__(self):
        self.count = self.last_position = self.sign = 0

    def feed(self, start: int, values: np.ndarray, weights: np.ndarray) -> None:
        at, self.sign = sign_crossings(values[1:], self.sign)
        if at.size:
            self.count += at.size
            self.last_position = start + int(at[-1])

    def result(self) -> list[dict]:
        return [{"count": self.count, "last_position": self.last_position}]


class _Minimum:
    """The minimum of M_alpha(x) over 1 <= x <= N."""

    def __init__(self):
        self.min_value = math.inf

    def feed(self, start: int, values: np.ndarray, weights: np.ndarray) -> None:
        self.min_value = min(self.min_value, float(np.min(values[1:])))

    def result(self) -> list[dict]:
        return [{"all_positive": int(self.min_value > 0.0), "min_value": self.min_value}]


class _GrowthMaxima:
    """max over 16 <= x <= N of |M_0(x)| / norms[theta][x] at each checkpoint
    N and theta: running maxima, recorded as x passes each N."""

    def __init__(self, norms: list[np.ndarray], checkpoints: list[int]):
        self.norms, self.checkpoints = norms, checkpoints
        self.best = [-math.inf] * len(norms)
        self.rows: list[dict] = []

    def feed(self, start: int, values: np.ndarray, weights: np.ndarray) -> None:
        stop = start + values.size - 1
        lo = max(start, 16)
        for n in self.checkpoints[len(self.rows) // len(GROWTH_THETAS) :]:
            hi = min(stop, n + 1)
            if lo < hi:
                magnitude = np.abs(values[lo - start + 1 : hi - start + 1])
                self.best = [max(b, float(np.max(magnitude / norm[lo:hi]))) for b, norm in zip(self.best, self.norms)]
            if hi <= n:
                return
            self.rows += [{"theta": float(t), "N": n, "value": b} for t, b in zip(GROWTH_THETAS, self.best)]
            lo = hi

    def result(self) -> list[dict]:
        return self.rows


# ---------------------------------------------------------------------------
# The experiments.  Each body takes (config, assignments, threads) and
# returns (rows of each trial, summary); run_experiment adds trial and seed.
# ---------------------------------------------------------------------------


def _sign_changes(config: ExperimentConfig, assignments, threads: int):
    """Sign-change census of M_alpha: per trial the crossing count and the
    last crossing position; the summary holds count quantiles and, except in
    the reporting-only regime, the fraction of trials with at least
    MIN_SIGN_CHANGES crossings."""
    rows = stream_trials(config.model, config.alpha, config.limit, assignments, _Crossings, threads)
    counts = [trial[0]["count"] for trial in rows]
    summary = _quantile_summary(counts, "count")
    summary["reporting_only"] = config.reporting_only
    if not config.reporting_only:
        summary["pass_fraction"] = float(np.mean([c >= MIN_SIGN_CHANGES for c in counts]))
        summary["min_sign_changes"] = MIN_SIGN_CHANGES
    return rows, summary


def _positivity(config: ExperimentConfig, assignments, threads: int):
    """Probability that the harmonic fstar sums stay strictly positive.

    Per trial: the minimum of M_1(x) over 1 <= x <= N and the indicator that
    it is positive (equivalently that M_1(x) > 0 for all 2 <= x <= N, since
    M_1(1) = 1).
    """
    rows = stream_trials(config.model, config.alpha, config.limit, assignments, _Minimum, threads)
    summary = _quantile_summary([trial[0]["min_value"] for trial in rows], "min_value")
    summary["pass_fraction"] = float(np.mean([trial[0]["all_positive"] for trial in rows]))
    return rows, summary


def _harper(config: ExperimentConfig, assignments, threads: int):
    """Sup-scan statistics per trial and sigma, with the trend summary.

    All trials of one sigma are scanned against shared cosine blocks (the
    grid depends only on sigma), which keeps the acceptance-scale run inside
    its time budget.  The summary reports the median centered value per
    sigma and whether the medians increase at every step of the
    (decreasing-sigma) grid.
    """
    scans = dirichlet.sup_scans(assignments, config.sigma_grid, config.grid_step, config.prime_limit)
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
    return [[asdict(scan) for scan in row] for row in scans], summary


def _divergence(config: ExperimentConfig, assignments, threads: int):
    """Signed vs absolute Mellin integrals with sup-scan witnesses, per trial.

    One assignment per trial is shared across the whole sigma grid.  The
    summary reports the fraction of trials whose absolute/|signed| ratio
    increases monotonically toward sigma = 1/2 and whether the triangle
    inequality absolute >= |signed| held everywhere (it must).
    """
    tables = mellin.divergence_rows(
        assignments, config.model, config.alpha, config.sigma_grid, config.limit,
        config.prime_limit, config.grid_step, threads,
    )
    rows = [
        [{"sigma": row.sigma, "signed": row.signed, "absolute": row.absolute,
          "harper_witness": row.harper_witness, "N": row.limit, "prime_limit": row.prime_limit}
         for row in trial]
        for trial in tables
    ]
    monotone_flags = []
    for trial in tables:
        ratios = [row.absolute / abs(row.signed) if row.signed != 0.0 else math.inf for row in trial]
        monotone_flags.append(all(b > a for a, b in zip(ratios, ratios[1:])))
    summary = {
        "fraction_ratio_monotone": float(np.mean(monotone_flags)),
        "triangle_inequality_ok": all(row.absolute >= abs(row.signed) for trial in tables for row in trial),
        "median_ratio": {
            repr(float(sigma)): float(
                np.quantile(
                    [trial[k].absolute / abs(trial[k].signed) for trial in tables if trial[k].signed != 0.0],
                    0.5,
                )
            )
            for k, sigma in enumerate(config.sigma_grid)
        },
    }
    return rows, summary


def _growth(config: ExperimentConfig, assignments, threads: int):
    """Growth-envelope statistics max |M_0(x)| / (sqrt(x) (log log x)^theta).

    Reporting-only: quantiles per (theta, checkpoint N); asymptotic claims
    admit no finite-N pass/fail.  The sieve first checks the engine and
    the float64 norms, 8 bytes per n and theta.
    """
    more = engine_bytes(config.model, config.limit, config.trials, threads)
    more += 8 * (config.limit + 1) * len(GROWTH_THETAS)
    what = f"growth at N = {config.limit} with {config.trials} trials on {threads} threads"
    table = sieve_for(config.limit, None, more, what)
    checkpoints = [n for n in GROWTH_CHECKPOINTS if n <= config.limit] or [config.limit]
    x = np.arange(16, config.limit + 1, dtype=np.float64)
    norms = [np.concatenate([np.ones(16), growth_norm(x, theta)]) for theta in GROWTH_THETAS]
    reducer = partial(_GrowthMaxima, norms, checkpoints)
    rows = stream_trials(config.model, config.alpha, config.limit, assignments, reducer, threads, table=table)
    cells = []
    for k, (n, theta) in enumerate(itertools.product(checkpoints, GROWTH_THETAS)):
        values = [trial[k]["value"] for trial in rows]
        cells.append({"theta": float(theta), "N": n, "median": float(np.quantile(values, 0.5)),
                      "q95": float(np.quantile(values, 0.95))})
    return rows, {"cells": cells, "reporting_only": True}


@dataclass(frozen=True)
class Experiment:
    """An experiment's body, CLI help, fixed (model, alpha) (None: per run),
    default sigma grid (None: no sup scan), smallest limit, and assert-mode
    check of the summary (None: reporting-only)."""

    body: Callable
    help: str
    fixed: tuple[Model, float] | None = None
    sigma_grid: tuple[float, ...] | None = None
    min_limit: int = 1
    check: Callable[[dict], tuple[bool, str]] | None = None


EXPERIMENTS = {
    "sign-changes": Experiment(
        _sign_changes, "sign-change census across trials",
        check=lambda s: (s["pass_fraction"] >= PASS_RATE, (
            f"fraction of trials with >= {MIN_SIGN_CHANGES} sign changes: "
            f"{s['pass_fraction']:.4f} (needs >= {PASS_RATE})")),
    ),
    "positivity": Experiment(
        _positivity, "positivity probability of harmonic fstar sums", fixed=(Model.F_STAR, 1.0),
        check=lambda s: (s["pass_fraction"] >= POSITIVITY_RATE,
                         f"all-positive fraction: {s['pass_fraction']:.4f} (needs >= {POSITIVITY_RATE})"),
    ),
    "harper": Experiment(
        _harper, "sup scan of the prime cosine sum across trials", fixed=(Model.F, 0.0),
        sigma_grid=(0.58, 0.55, 0.52, 0.51),
        check=lambda s: (s["trend_increasing"], (
            f"median centered sup increased on {s['trend_steps_increasing']} of "
            f"{s['trend_steps_total']} grid steps (needs all)")),
    ),
    "divergence": Experiment(
        _divergence, "signed vs absolute Mellin integral comparison",
        sigma_grid=(0.56, 0.54, 0.52), min_limit=2,
        check=lambda s: (s["triangle_inequality_ok"] and s["fraction_ratio_monotone"] > 0.5, (
            f"triangle inequality ok: {s['triangle_inequality_ok']}, "
            f"monotone ratio fraction: {s['fraction_ratio_monotone']:.4f} (needs > 0.5)")),
    ),
    "growth": Experiment(
        _growth, "growth-envelope statistics (reporting only)", fixed=(Model.F, 0.0), min_limit=16,
    ),
}


def run_experiment(config: ExperimentConfig) -> AggregateStats:
    """Run every trial of the config's experiment and summarize them.

    Records come in trial order, each prefixed by trial and seed.
    """
    config.validate()
    threads = resolve_threads(config.threads)
    seeds, assignments = config.trial_assignments()
    rows, summary = EXPERIMENTS[config.experiment].body(config, assignments, threads)
    records = [{"trial": i, "seed": seeds[i], **row} for i, trial in enumerate(rows) for row in trial]
    return AggregateStats(config=config, per_trial=records, summary=summary)


# ---------------------------------------------------------------------------
# Serialization: CSVs, the manifest of every command that writes files, replay
# ---------------------------------------------------------------------------


def trials_csv(stats: AggregateStats):
    """Per-trial CSV blocks with the experiment's column schema, one row per record."""
    return csv_blocks(stats.columns, [[r[c] for r in stats.per_trial] for c in stats.columns])


def _series_csvs(series: WeightedSumSeries, log: SignChangeLog) -> dict:
    """File name -> CSV blocks of the series command's two outputs."""
    return {
        "series.csv": csv_blocks(("x", "value"), (range(1, series.limit + 1), series.values[1:])),
        "sign_changes.csv": csv_blocks(("position", "sign_after"), (log.positions, log.signs_after())),
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
        thresholds=dict(min_sign_changes=MIN_SIGN_CHANGES, pass_rate=PASS_RATE, positivity_rate=POSITIVITY_RATE),
        reporting_only=cfg.reporting_only,
        columns=list(stats.columns),
        summary=stats.summary,
    )


def _write_run(outdir, manifest: dict, csvs: dict) -> list[str]:
    """Write manifest.json with csv_sha256 null, then each CSV from its blocks,
    then the manifest again with csv_sha256 mapping each file name to its sha256.
    Every write is temp-file + rename, so a manifest whose csv_sha256 is null
    marks a run that did not finish.  Returns the absolute paths written,
    manifest first."""
    paths = [os.path.join(os.path.abspath(outdir), name) for name in ("manifest.json", *csvs)]
    atomic_write(paths[0], json.dumps({**manifest, "csv_sha256": None}, indent=2) + "\n")
    digests = {name: write_blocks(path, blocks) for path, (name, blocks) in zip(paths[1:], csvs.items())}
    atomic_write(paths[0], json.dumps({**manifest, "csv_sha256": digests}, indent=2) + "\n")
    return paths


def write_experiment(stats: AggregateStats, outdir, wall_time: float | None = None):
    """Write the manifest and trials.csv (see _write_run); returns their paths."""
    return tuple(_write_run(outdir, manifest_dict(stats, wall_time), {"trials.csv": trials_csv(stats)}))


def write_series(
    series: WeightedSumSeries, log: SignChangeLog, assignment: SignAssignment, outdir,
    wall_time: float | None = None, signs_file: str | None = None,
) -> str:
    """Write the manifest, series.csv and sign_changes.csv of one series run
    (see _write_run); returns the absolute outdir.  The sha256 of signs_file,
    the file an explicit assignment was read from, is recorded so that replay
    can tell a changed input from a changed program."""
    manifest = _manifest(
        "series", series.model, series.alpha, series.limit, assignment.mode, wall_time,
        seed=assignment.seed,
        signs_file=os.path.abspath(signs_file) if signs_file else None,
        signs_sha256=sha256_file(signs_file) if signs_file else None,
    )
    return os.path.dirname(_write_run(outdir, manifest, _series_csvs(series, log))[0])


def _optional(manifest: dict, key: str, convert):
    return None if manifest.get(key) is None else convert(manifest[key])


def _number(value) -> float:
    """float(value) of a JSON number; a bool or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _integer(value) -> int:
    """int(value) of a JSON integer or integral number; a bool, a string or a fraction is refused."""
    if isinstance(value, int) and not isinstance(value, bool) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


@contextlib.contextmanager
def _manifest_errors():
    """Raise a missing key or a mistyped value of a manifest as DomainError."""
    try:
        yield
    except KeyError as exc:
        raise DomainError(f"not a replayable manifest: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise DomainError(f"not a replayable manifest: {exc}") from None


def config_from_manifest(manifest: dict) -> ExperimentConfig:
    with _manifest_errors():
        return ExperimentConfig(
            experiment=manifest["command"],
            model=manifest["model"],
            alpha=_number(manifest["alpha"]),
            limit=_integer(manifest["N"]),
            trials=_integer(manifest["trials"]),
            base_seed=_integer(manifest["base_seed"]),
            sign_mode=manifest["sign_mode"],
            sigma_grid=_optional(manifest, "sigma_grid", lambda grid: tuple(map(_number, grid))),
            prime_limit=_optional(manifest, "prime_limit", _integer),
            grid_step=_optional(manifest, "grid_step", _number),
        )


def replay_experiment(manifest_path) -> tuple[bool, dict, dict]:
    """Re-run the command of the manifest at manifest_path; compare digest maps.

    Returns (match, recorded, recomputed), each a map file name -> sha256.
    Two checks come before any recomputation.  A csv_sha256 that is null (a
    run that did not finish) or not a map is reported as the one difference,
    under the key "csv_sha256".  A series run from a signs file hashes that
    file again: if it changed, the maps hold the signs file's recorded and
    current digests.
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
        config = config_from_manifest(manifest)
        config.validate()
    elif command == "series":
        with _manifest_errors():
            mode, model, alpha = SignMode(manifest["sign_mode"]), Model(manifest["model"]), _number(manifest["alpha"])
            limit, seed, signs_file = _integer(manifest["N"]), _integer(manifest["seed"]), manifest["signs_file"]
        if mode is SignMode.EXPLICIT and not isinstance(signs_file, str):
            raise DomainError(f"not a replayable manifest: explicit signs with signs_file {signs_file!r}")
    else:
        raise DomainError(f"not a replayable manifest: unknown command {command!r}")
    recorded = manifest.get("csv_sha256")
    if not isinstance(recorded, dict):
        return False, {"csv_sha256": recorded}, {"csv_sha256": "(not recomputed)"}
    if command in EXPERIMENTS:
        csvs = {"trials.csv": trials_csv(run_experiment(config))}
    else:
        if mode is SignMode.EXPLICIT:
            recorded_signs, current = manifest.get("signs_sha256"), sha256_file(signs_file)
            if current != recorded_signs:
                return False, {signs_file: recorded_signs}, {signs_file: current}
        series = compute_series(SignAssignment.of(mode, seed, signs_file), model, alpha, limit)
        csvs = _series_csvs(series, detect_sign_changes(series))
    recomputed = {name: sha256_text(blocks) for name, blocks in csvs.items()}
    return recomputed == recorded, recorded, recomputed


def assert_outcome(stats: AggregateStats) -> tuple[bool, str]:
    """Evaluate the experiment's statistical expectation for assert mode.

    Reporting-only configurations always pass (there is nothing to assert).
    """
    if stats.config.reporting_only:
        return True, "reporting-only: no statistical assertion attached"
    return EXPERIMENTS[stats.config.experiment].check(stats.summary)
