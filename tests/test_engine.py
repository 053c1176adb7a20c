"""The batched trial engine against the per-trial route it replaced.

The per-trial route (tests/oracles.py: values_by_recurrence and
series_and_values, with the whole-array statistics of each experiment
written by records_csv) is the oracle; the engine must reproduce it,
M_alpha and the signed weights it hands each reducer, bit for bit whatever
the segment size, lane batch and worker count.
"""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rmflab import experiments as experiments_module, primes as primes_module, series as series_module, signs as signs_module
from rmflab.experiments import ExperimentConfig, run_experiment, trials_csv
from rmflab.primes import build_spf_sieve, prime_count_bound, primes_up_to, sieve_bytes, squarefree_mask
from rmflab.series import Model, compute_series, engine_bytes, stream_trials
from rmflab.signs import LANE_STEP, MultiplicativeEvaluator, SignAssignment, lane_dtype, prime_sign_table, sign_lanes

from oracles import (
    is_squarefree, lanes_by_cofactors, lanes_by_spf, records_csv, seed_free_weights, series_and_values, spf_cofactors,
    spf_sieve, values_by_recurrence,
)

SEGMENTS = (1, 2**10, 2**16, None)  # None: one segment of size N
TRIAL_COUNTS = (1, 8, 9, 16, 17, 64, 65)  # every lane width and batch edge


class _Recorder:
    """Hands each segment on to an experiment's reducer and copies it:
    result() is (the reducer's result, M_alpha on 1..limit, g on 1..limit),
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
        return [result for result, _, _ in results]

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
    expected = records_csv(config, table, trials)
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
    expected = records_csv(config, table_1e5)
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
    lanes = sign_lanes([prime_sign_table(a, primes) for a in assignments], table_1e5, limit)
    assert lanes.dtype.itemsize == max(1, 2 ** math.ceil(math.log2(batch)) // 8)
    for k, assignment in enumerate(assignments):
        fstar = values_by_recurrence(MultiplicativeEvaluator(assignment, table_1e5), limit, "fstar")
        assert np.array_equal(1 - 2 * ((lanes[1:] >> k) & 1).astype(np.int8), fstar[1:])


#: A sieve past three lane steps of 2^16, and the limits on both sides of
#: every dyadic step edge up to it
LANE_LIMIT = 3 * 2**16 + 1
EDGES = sorted({1, 2, 3, LANE_LIMIT} | {2**k + d for k in range(1, 18) for d in (-1, 0, 1)})


@pytest.fixture(scope="module")
def lane_table():
    return build_spf_sieve(LANE_LIMIT)


@st.composite
def lane_rows(draw, primes: np.ndarray):
    """Sign rows of a batch of 1-64 assignments, each iid, all -1 or explicit."""
    rows = []
    for _ in range(draw(st.integers(1, 64))):
        mode, seed = draw(st.sampled_from(["iid", "minus-one", "explicit"])), draw(st.integers(0, 2**64 - 1))
        if mode == "explicit":
            signs = np.random.default_rng(seed).choice([-1, 1], primes.size)
            assignment = SignAssignment.explicit(dict(zip(primes.tolist(), signs.tolist())))
        else:
            assignment = SignAssignment.of(mode, seed)
        rows.append(prime_sign_table(assignment, primes))
    return rows


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_sign_lanes_match_the_cofactor_oracle(lane_table, data):
    limit = data.draw(st.sampled_from(EDGES) | st.integers(1, LANE_LIMIT))
    rows = data.draw(lane_rows(primes_up_to(lane_table, limit)))
    lanes = sign_lanes(rows, lane_table, limit)
    want = lanes_by_cofactors(rows, lane_table, limit)
    assert lanes.dtype == want.dtype and np.array_equal(lanes, want)


def test_sign_lanes_match_the_cofactor_oracle_at_every_step_edge(lane_table):
    for k, limit in enumerate(EDGES):
        primes = primes_up_to(lane_table, limit)
        rows = [prime_sign_table(SignAssignment.iid(k + i), primes) for i in range(k % 64 + 1)]
        rows[0] = prime_sign_table(SignAssignment.all_minus_one(), primes)
        assert np.array_equal(sign_lanes(rows, lane_table, limit), lanes_by_cofactors(rows, lane_table, limit)), limit


#: Step caps of sign_lanes, in bytes of words: the default, and caps that
#: make every word size take capped steps below 5,000 integers
LANE_STEPS = (LANE_STEP, 8, 64, 512)


def _cap_edges(cap: int) -> set[int]:
    # limits on both sides of the first two capped steps' ends, for each word
    # size: with c = cap // w integers, the steps double up to [c, 2c), then
    # end at 3c and 4c
    return {k * (cap // w) + d for w in (1, 2, 4, 8) for k in (2, 3, 4) for d in (-1, 0, 1)}


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_sign_lanes_match_the_spf_oracle(data):
    cap = data.draw(st.sampled_from(LANE_STEPS))
    edges = sorted({1, 2, 3} | {2**k + d for k in range(1, 13) for d in (-1, 1)} | _cap_edges(cap))
    limit = data.draw(st.integers(1, 5000) | st.sampled_from([n for n in edges if n <= 5000]))
    table = build_spf_sieve(max(limit, 2))
    rows = data.draw(lane_rows(primes_up_to(table, limit)))
    with mock.patch.object(signs_module, "LANE_STEP", cap):
        lanes = sign_lanes(rows, table, limit)
    want = lanes_by_spf(rows, table, limit)
    assert lanes.dtype == want.dtype == lane_dtype(len(rows)) and np.array_equal(lanes, want)


def test_sign_lanes_match_the_spf_oracle_past_the_default_step_cap():
    # one-byte words take steps of 2^20 integers from 2^21 on, eight-byte
    # words steps of 2^17 from 2^18 on
    table = build_spf_sieve(4 * 2**17 + 1)
    for batch, limit in itertools.product((1, 64), (3 * 2**17 - 1, 3 * 2**17 + 1, 4 * 2**17 + 1)):
        rows = [prime_sign_table(SignAssignment.iid(k), primes_up_to(table, limit)) for k in range(batch)]
        assert np.array_equal(sign_lanes(rows, table, limit), lanes_by_spf(rows, table, limit)), (batch, limit)


def test_sign_lanes_hold_only_the_lanes_and_the_packed_words(table_1e6):
    # engine_bytes counts no step term: at N = 10^6 and 64 trials the pass
    # peaks at its 8-byte lane words and one word per prime, and 6 kB more
    # (the list of the primes up to 1000), inside the 12,703 words by which
    # prime_count_bound exceeds pi(10^6)
    limit, primes = 10**6, primes_up_to(table_1e6)
    rows = [prime_sign_table(SignAssignment.iid(k), primes) for k in range(64)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sign_lanes(rows, table_1e6, limit)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert 8 * (limit + 1 + primes.size) <= peak <= 8 * (limit + 1 + prime_count_bound(limit))


#: Limits and n on both sides of p^2 and of the segment edges, up to LANE_LIMIT
WEIGHT_EDGES = (1, 2, 3, 4, 9, 25, 2**16 - 1, 2**16, 2**16 + 1, LANE_LIMIT)
WEIGHT_SEGMENTS = (1, 2, 3, 4, 9, 2**10, 2**16)


def _check_segment_weights(table, model: str, alpha: float, segment: int, limit: int, picks=()):
    """series._weights of the whole series and of the engine's segments from
    n = 1, in one reused buffer, bit for bit against the oracle's slices; of
    more than 300 segments, the first and last 100, those holding an n of
    WEIGHT_EDGES and those at `picks`."""
    want = seed_free_weights(model, alpha, limit, table).view(np.uint64)
    whole = series_module._weights(Model(model), alpha, 1, limit + 1, table, np.empty(limit))
    assert np.array_equal(whole.view(np.uint64), want[1:])
    starts = range(1, limit + 1, segment)
    if len(starts) > 300:
        edges = [starts[(n - 1) // segment] for n in WEIGHT_EDGES if n <= limit]
        starts = sorted({*starts[:100], *starts[-100:], *edges, *(starts[i % len(starts)] for i in picks)})
    out = np.full(segment, np.nan)
    for start in starts:
        stop = min(start + segment, limit + 1)
        got = series_module._weights(Model(model), alpha, start, stop, table, out)
        assert np.array_equal(got.view(np.uint64), want[start:stop]), (model, alpha, segment, limit, start)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(["f", "fstar"]), st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
       st.sampled_from(WEIGHT_SEGMENTS), st.sampled_from(WEIGHT_EDGES) | st.integers(1, LANE_LIMIT),
       st.lists(st.integers(0, LANE_LIMIT), max_size=50))
def test_segment_weights_match_the_seed_free_oracle(lane_table, model, alpha, segment, limit, picks):
    _check_segment_weights(lane_table, model, alpha, segment, limit, picks)


def test_segment_weights_match_the_seed_free_oracle_past_every_edge(lane_table):
    for model, alpha, segment in itertools.product(["f", "fstar"], [0.0, 0.25, 0.5, 1.0], WEIGHT_SEGMENTS):
        _check_segment_weights(lane_table, model, alpha, segment, LANE_LIMIT)


def test_cofactors_and_squarefree_mask(table_1e5):
    limit = 3000
    cofactor, spf_index = spf_cofactors(table_1e5, limit)
    primes = primes_up_to(table_1e5)
    n = np.arange(2, limit + 1)
    assert cofactor.dtype == spf_index.dtype == np.int32
    assert np.array_equal(primes[spf_index[2:]], spf_sieve(10**5)[2 : limit + 1])
    assert np.array_equal(cofactor[2:] * primes[spf_index[2:]], n)
    mask = squarefree_mask(table_1e5, limit)
    assert mask[1:].tolist() == [is_squarefree(k, table_1e5) for k in range(1, limit + 1)]


def test_stream_trials_checks_the_memory_of_its_own_call(monkeypatch, table_1e5):
    checks = []
    monkeypatch.setattr(primes_module, "require_memory", lambda requested, what: checks.append(requested))
    limit, assignments = 10**4, [SignAssignment.iid(k) for k in range(65)]
    rows = stream_trials("f", 0.25, limit, assignments, experiments_module._Crossings, 2)
    assert checks == [engine_bytes(limit, 65, 2, None) + sieve_bytes(limit)]
    # a caller that gives the table has checked what it needs
    assert stream_trials("f", 0.25, limit, assignments, experiments_module._Crossings, 2, table=table_1e5) == rows
    assert len(checks) == 1


def test_engine_bytes_count_only_the_trials_that_run_at_once():
    # one-byte lane words, sign rows and their packed one-byte words, and
    # what the running trials' floats take: over segments of 2^16, a batch
    # of 3 trials runs on at most 3 of 8 threads, each a run with the
    # segment's weights and two buffers, 24 bytes per integer of 2^16; in one
    # segment, the shared weights (8 per n) and two 8-byte buffers per
    # running trial, one trial on one thread
    limit = 10**5
    assert engine_bytes(limit, 3, 8) == (limit + 1) + 4 * prime_count_bound(limit) + 3 * 24 * 2**16
    assert engine_bytes(limit, 1, 8, limit) == engine_bytes(limit, 1, 1, limit)
    assert engine_bytes(limit, 1, 1, limit) == 9 * (limit + 1) + 2 * prime_count_bound(limit) + 16 * limit
    assert engine_bytes(limit, 3, 2, limit) == 9 * (limit + 1) + 4 * prime_count_bound(limit) + 32 * limit
