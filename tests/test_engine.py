"""The batched trial engine against the per-trial route it replaced.

The per-trial route (tests/oracles.py: values_by_recurrence and
series_and_values, with the whole-array statistics of each experiment) is the
oracle; the engine must reproduce it, M_alpha and the signed weights it hands
each reducer, bit for bit whatever the segment size, lane batch and worker
count.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rmflab import experiments as experiments_module, primes as primes_module, series as series_module
from rmflab.experiments import (
    GROWTH_CHECKPOINTS,
    GROWTH_THETAS,
    AggregateStats,
    ExperimentConfig,
    run_experiment,
    trials_csv,
)
from rmflab.primes import build_spf_sieve, prime_count_bound, primes_up_to, spf_cofactors, squarefree_mask
from rmflab.series import compute_series, detect_sign_changes, engine_bytes, stream_trials, WeightedSumSeries
from rmflab.signs import MultiplicativeEvaluator, SignAssignment, prime_sign_table, sign_lanes

from oracles import growth_statistic, is_squarefree, series_and_values, values_by_recurrence

SEGMENTS = (1, 2**10, 2**16, None)  # None: one segment of size N
TRIAL_COUNTS = (1, 8, 9, 16, 17, 64, 65)  # every lane width and batch edge


def _oracle_rows(experiment: str, series: WeightedSumSeries) -> list[dict]:
    """A trial's rows from its whole series, as each experiment formed them
    before the engine reduced segments."""
    if experiment == "sign-changes":
        log = detect_sign_changes(series)
        return [{"count": log.count, "last_position": int(log.positions[-1]) if log.count else 0}]
    if experiment == "positivity":
        min_value = float(np.min(series.values[1:]))
        return [{"all_positive": int(min_value > 0.0), "min_value": min_value}]
    checkpoints = [n for n in GROWTH_CHECKPOINTS if n <= series.limit] or [series.limit]
    return [
        {"theta": float(theta), "N": n,
         "value": growth_statistic(WeightedSumSeries(series.model, series.alpha, series.values[: n + 1]), theta)}
        for n in checkpoints for theta in GROWTH_THETAS
    ]


def _oracle_csv(config: ExperimentConfig, table, trials=None) -> str:
    """The oracle's trials.csv; trials, if given, is series_and_values of
    each trial."""
    seeds, assignments = config.trial_assignments()
    if trials is None:
        trials = [series_and_values(a, config.model, config.alpha, config.limit, table) for a in assignments]
    records = []
    for i, (series, _) in enumerate(trials):
        records += [{"trial": i, "seed": seeds[i], **row} for row in _oracle_rows(config.experiment, series)]
    return "".join(trials_csv(AggregateStats(config, records, {})))


class _Recorder:
    """Hands each segment on to an experiment's reducer and copies it:
    result() is (the reducer's rows, M_alpha on 1..limit, g on 1..limit),
    with g as np.sign of the signed weights."""

    def __init__(self, limit: int, reduce):
        self.reduce = reduce
        self.values, self.weights = np.empty(limit), np.empty(limit)

    def feed(self, start, values, weights):
        self.reduce.feed(start, values, weights)
        self.values[start - 1 : start - 2 + values.size] = values[1:]
        self.weights[start - 1 : start - 2 + weights.size] = weights[1:]

    def result(self):
        return self.reduce.result(), self.values, np.sign(self.weights)


def _engine_run(config: ExperimentConfig, segment, threads: int):
    """(trials.csv, [(M_alpha, g) of each trial]) of one run, whose engine
    feeds a _Recorder around each trial's reducer."""
    fed = []

    def recording(model, alpha, limit, assignments, reducer, threads, segment=None, table=None):
        results = stream_trials(model, alpha, limit, assignments, lambda: _Recorder(limit, reducer()), threads,
                                segment, table)
        fed.extend((values, g) for _, values, g in results)
        return [rows for rows, _, _ in results]

    config.threads = threads
    with mock.patch.object(series_module, "SEGMENT", segment or config.limit), \
            mock.patch.object(experiments_module, "stream_trials", recording):
        return "".join(trials_csv(run_experiment(config))), fed


@st.composite
def configs(draw):
    experiment = draw(st.sampled_from(["sign-changes", "positivity", "growth"]))
    model, alpha = {"positivity": ("fstar", 1.0), "growth": ("f", 0.0)}.get(experiment, (None, None))
    if experiment == "sign-changes":
        model = draw(st.sampled_from(["f", "fstar"]))
        alpha = draw(st.sampled_from([0.0, 0.0, 0.25, 0.5]) | st.floats(0.0, 0.5))
    return ExperimentConfig(
        experiment=experiment, model=model, alpha=alpha,
        limit=draw(st.sampled_from([16, 17, 1023, 1024, 1025]) | st.integers(16, 1500)),
        trials=draw(st.sampled_from(TRIAL_COUNTS)),
        base_seed=draw(st.integers(0, 2**64 - 1)),
        sign_mode=draw(st.sampled_from(["iid", "iid", "minus-one"])),
    )


@settings(deadline=None, max_examples=12)
@given(configs())
@example(ExperimentConfig(experiment="sign-changes", model="f", alpha=0.0, limit=1500, trials=65, base_seed=1))
@example(ExperimentConfig(experiment="growth", limit=1100, trials=17, base_seed=2, sign_mode="minus-one"))
def test_trials_csv_does_not_depend_on_segment_batch_or_threads(config):
    table = build_spf_sieve(max(config.limit, 2))
    _, assignments = config.trial_assignments()
    trials = [series_and_values(a, config.model, config.alpha, config.limit, table) for a in assignments]
    expected = _oracle_csv(config, table, trials)
    for segment in SEGMENTS:
        for threads in (1, 2):
            csv, fed = _engine_run(config, segment, threads)
            assert csv == expected, (segment, threads)
            assert len(fed) == len(trials)
            for (values, g), (series, want_g) in zip(fed, trials):
                assert np.array_equal(values.view(np.uint64), series.values[1:].view(np.uint64)), (segment, threads)
                assert np.array_equal(g, want_g[1:]), (segment, threads)


@pytest.mark.parametrize("experiment", ["sign-changes", "positivity", "growth"])
def test_segments_of_2_16_over_several_segments_match_the_oracle(experiment, table_1e5):
    # 2^16 only splits a series longer than 2^16
    config = ExperimentConfig(
        experiment=experiment, model="f" if experiment != "positivity" else "fstar",
        alpha={"positivity": 1.0}.get(experiment, 0.0), limit=10**5, trials=9, base_seed=77,
    )
    expected = _oracle_csv(config, table_1e5)
    for segment in (2**10, 2**16, None):
        assert _engine_run(config, segment, 2)[0] == expected, segment


def test_exact_zero_at_a_segment_edge_neither_creates_nor_hides_a_crossing():
    # M_0 of the Liouville function at 1..10: 1 0 -1 0 -1 0 -1 -2 -1 0 crosses once,
    # at x = 3; a segment may end on any of its zeros
    config = ExperimentConfig(experiment="sign-changes", model="fstar", alpha=0.0, limit=10,
                              trials=1, sign_mode="minus-one")
    for segment in (1, 2, 3, 4, None):
        assert _engine_run(config, segment, 1)[0] == "trial,seed,count,last_position\n" + (
            f"0,{config.trial_assignments()[0][0]},1,3\n"
        )


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3000), st.sampled_from(["f", "fstar"]), st.floats(0.0, 1.0), st.integers(0, 2**64 - 1))
def test_compute_series_matches_the_per_trial_oracle(limit, model, alpha, seed):
    table = build_spf_sieve(max(limit, 2))
    assignment = SignAssignment.iid(seed)
    got = compute_series(assignment, model, alpha, limit, table)
    want, g = series_and_values(assignment, model, alpha, limit, table)
    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))
    values = MultiplicativeEvaluator(assignment, table).values_up_to(limit, model)
    assert np.array_equal(values, g.astype(np.int8))


@pytest.mark.parametrize("batch", [1, 7, 8, 9, 16, 17, 32, 33, 64])
def test_each_lane_is_its_own_trial(batch, table_1e5):
    limit = 5000
    primes = primes_up_to(table_1e5)
    primes = primes[primes <= limit]
    assignments = [SignAssignment.iid(1000 + k) for k in range(batch)]
    lanes = sign_lanes([prime_sign_table(a, primes) for a in assignments], *spf_cofactors(table_1e5, limit))
    assert lanes.dtype.itemsize == max(1, 2 ** math.ceil(math.log2(batch)) // 8)
    for k, assignment in enumerate(assignments):
        fstar = values_by_recurrence(MultiplicativeEvaluator(assignment, table_1e5), limit, "fstar")
        assert np.array_equal(1 - 2 * ((lanes[1:] >> k) & 1).astype(np.int8), fstar[1:])


def test_cofactors_and_squarefree_mask(table_1e5):
    limit = 3000
    cofactor, spf_index = spf_cofactors(table_1e5, limit)
    primes = primes_up_to(table_1e5)
    n = np.arange(2, limit + 1)
    assert cofactor.dtype == spf_index.dtype == np.int32
    assert np.array_equal(primes[spf_index[2:]], table_1e5.spf[2 : limit + 1])
    assert np.array_equal(cofactor[2:] * primes[spf_index[2:]], n)
    mask = squarefree_mask(table_1e5, limit)
    assert mask[1:].tolist() == [is_squarefree(k, table_1e5) for k in range(1, limit + 1)]


def test_stream_trials_checks_the_memory_of_its_own_call(monkeypatch, table_1e5):
    checks = []
    monkeypatch.setattr(primes_module, "require_memory", lambda requested, what: checks.append(requested))
    limit, assignments = 10**4, [SignAssignment.iid(k) for k in range(65)]
    rows = stream_trials("f", 0.25, limit, assignments, experiments_module._Crossings, 2)
    assert checks == [engine_bytes("f", limit, 65, 2, None) + 4 * (limit + 1)]
    # a caller that gives the table has checked what it needs
    assert stream_trials("f", 0.25, limit, assignments, experiments_module._Crossings, 2, table=table_1e5) == rows
    assert len(checks) == 1


def test_engine_bytes_count_only_the_trials_that_run_at_once():
    # a batch of 3 trials runs on at most 3 of 8 threads, one trial on one:
    # seed-free arrays and mask (17), one-byte lane words, sign rows, and
    # two 8-byte segment buffers per running trial
    limit = 10**5
    assert engine_bytes("f", limit, 3, 8) == 18 * (limit + 1) + 3 * prime_count_bound(limit) + 3 * 16 * 2**16
    assert engine_bytes("f", limit, 1, 8, limit) == engine_bytes("f", limit, 1, 1, limit)
    assert engine_bytes("f", limit, 1, 1, limit) == 18 * (limit + 1) + prime_count_bound(limit) + 16 * limit
