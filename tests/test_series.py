import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rmflab.errors import DomainError
from rmflab.series import (
    Model,
    compute_series,
    detect_sign_changes,
    map_ordered,
    split_runs,
)
from rmflab.experiments import _Crossings, _series_csvs
from rmflab.signs import MultiplicativeEvaluator, SignAssignment

from conftest import oracle_mobius
from oracles import evaluate_f, growth_statistic, kahan_series_values, riesz_mean, series_from_values


def test_mertens_and_liouville_at_10(table_1e5):
    minus = SignAssignment.all_minus_one()
    f_series = compute_series(minus, "f", 0.0, 10, table_1e5)
    fstar_series = compute_series(minus, "fstar", 0.0, 10, table_1e5)
    assert f_series.values[10] == -1.0  # Mertens M(10)
    assert fstar_series.values[10] == 0.0  # Liouville L(10)


def test_series_n1_is_one(table_1e5):
    for seed in (0, 5, 9):
        series = compute_series(SignAssignment.iid(seed), "f", 0.0, 1, table_1e5)
        assert series.values[1] == 1.0
        assert series.limit == 1


def test_m_alpha_starts_at_one(table_1e5):
    series = compute_series(SignAssignment.iid(3), "fstar", 0.37, 500, table_1e5)
    assert series.values[1] == 1.0


def test_reconstruction_invariant(table_1e6):
    a = SignAssignment.iid(8)
    table = table_1e6
    ev = MultiplicativeEvaluator(a, table)
    for model, alpha in (("f", 0.5), ("fstar", 0.25), ("f", 0.0)):
        series = compute_series(a, model, alpha, 10**5, table)
        g = ev.values_up_to(10**5, model).astype(np.float64)
        rng = np.random.default_rng(1)
        for x in rng.integers(2, 10**5 + 1, size=10**3):
            x = int(x)
            diff = series.values[x] - series.values[x - 1]
            expected = g[x] / x**alpha
            assert abs(diff - expected) <= 1e-12 * max(1.0, abs(expected))


def test_series_bit_determinism(table_1e5):
    a = SignAssignment.iid(99)
    s1 = compute_series(a, "f", 0.5, 10**4, table_1e5)
    s2 = compute_series(a, "f", 0.5, 10**4, table_1e5)
    assert np.array_equal(s1.values, s2.values)


def test_compensated_mode_agrees_with_plain(table_1e5):
    a = SignAssignment.iid(55)
    plain = compute_series(a, "fstar", 0.5, 10**4, table_1e5)
    kahan = kahan_series_values(a, "fstar", 0.5, 10**4, table_1e5)
    diff = np.max(np.abs(plain.values - kahan))
    assert diff <= 1e-11
    # integer-valued sums at alpha = 0 must be identical in both modes
    plain0 = compute_series(a, "f", 0.0, 2000, table_1e5)
    kahan0 = kahan_series_values(a, "f", 0.0, 2000, table_1e5)
    assert np.array_equal(plain0.values, kahan0)


def test_alpha_range_validation(table_1e5):
    with pytest.raises(DomainError):
        compute_series(SignAssignment.iid(1), "f", -0.1, 100, table_1e5)
    with pytest.raises(DomainError):
        compute_series(SignAssignment.iid(1), "f", 1.2, 100, table_1e5)
    with pytest.raises(DomainError):
        compute_series(SignAssignment.iid(1), "f", 0.0, 0, table_1e5)


def test_detect_sign_changes_stated_examples():
    log = detect_sign_changes(series_from_values([1.0, 0.5, -0.2, 0.1]))
    assert log.positions.tolist() == [3, 4]
    assert log.count == 2
    assert log.first_sign == 1
    log2 = detect_sign_changes(series_from_values([1.0, 0.0, 1.0, 2.0]))
    assert log2.count == 0


def naive_sign_changes(values) -> tuple[list[int], int]:
    """(crossing positions, first nonzero sign) by a plain loop over x = 1..N
    that skips zeros and records x when its sign opposes the last nonzero one."""
    positions, first, last = [], 0, 0
    for x, v in enumerate(values, start=1):
        sign = (v > 0) - (v < 0)
        if sign == 0:
            continue
        if last == 0:
            first = sign
        elif sign != last:
            positions.append(x)
        last = sign
    return positions, first


# runs of equal integers put zeros in runs of up to 5; zero-free floats take
# the path with no exact zero, which every series with alpha > 0 takes
INTEGER_RUNS = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(1, 5)), min_size=1, max_size=40
).map(lambda runs: [float(v) for v, length in runs for _ in range(length)])
ZERO_FREE_FLOATS = st.lists(
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0),
    min_size=1,
    max_size=40,
)


@settings(deadline=None)
@given(st.one_of(INTEGER_RUNS, ZERO_FREE_FLOATS))
def test_detect_sign_changes_matches_naive_loop(values):
    log = detect_sign_changes(series_from_values(values))
    positions, first = naive_sign_changes(values)
    assert log.positions.tolist() == positions
    assert log.count == len(positions)
    assert log.first_sign == first


@st.composite
def values_and_cuts(draw):
    """Integer runs (zeros in runs of up to 5), a zero-free float array or a
    float array with runs of exact zeros, and sorted cut points into it,
    which may repeat, so that a block can be empty, all zeros or start and
    end inside a run of zeros."""
    floats = st.floats(-1e6, 1e6, allow_nan=False).filter(lambda v: v != 0.0)
    with_zeros = st.lists(st.one_of(st.lists(floats, min_size=1, max_size=4), st.lists(st.just(0.0), max_size=6)),
                          min_size=1, max_size=12).map(lambda runs: [v for run in runs for v in run]).filter(bool)
    values = draw(st.one_of(INTEGER_RUNS, ZERO_FREE_FLOATS, with_zeros))
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=8)))
    return values, cuts


@settings(deadline=None, max_examples=300)
@given(values_and_cuts())
@example(([1.0, 0.0, 0.0, -1.0], [2]))  # a run of zeros across the cut, then a crossing
@example(([0.0, 0.0, 2.0, 0.0, 0.0, 0.0, -2.0, 0.0], [2, 4, 6, 6]))  # all-zero blocks on both sides
@example(([-1.0, 1.0, -1.0], [1, 2]))  # a crossing at every block's first value
def test_crossings_fed_block_by_block_match_the_whole_series_rule(case):
    # _Crossings carries the last nonzero sign from block to block; its
    # count and last position must not depend on where the blocks are cut
    values, cuts = case
    reducer = _Crossings()
    for lo, hi in zip([0, *cuts], [*cuts, len(values)]):
        if lo < hi:  # slot 0 holds the sum before the block
            reducer.feed(lo + 1, np.array([values[lo - 1] if lo else 0.0, *values[lo:hi]]), None)
    count, last_position = reducer.result()
    log = detect_sign_changes(series_from_values(values))
    positions, _ = naive_sign_changes(values)
    assert count == log.count == len(positions)
    assert last_position == (int(log.positions[-1]) if log.count else 0) == (positions[-1] if positions else 0)


def test_detect_sign_changes_zero_bridges():
    # a zero between opposite signs: the crossing lands on the first strictly
    # opposite value
    log = detect_sign_changes(series_from_values([1.0, 0.0, -1.0]))
    assert log.positions.tolist() == [3]
    # zeros alone never produce a crossing
    log2 = detect_sign_changes(series_from_values([0.0, 0.0, 0.0]))
    assert log2.count == 0
    assert log2.first_sign == 0


def test_sign_alternation_property(table_1e5):
    for seed in range(5):
        series = compute_series(SignAssignment.iid(seed), "fstar", 0.0, 10**4, table_1e5)
        log = detect_sign_changes(series)
        after = log.signs_after()
        assert all(a != b for a, b in zip(after, after[1:]))
        if log.count:
            assert after[0] == -log.first_sign


def test_negation_symmetry(table_1e5):
    series = compute_series(SignAssignment.iid(21), "f", 0.25, 10**4, table_1e5)
    log = detect_sign_changes(series)
    neg = series_from_values(-series.values[1:], model=series.model, alpha=series.alpha)
    log_neg = detect_sign_changes(neg)
    assert np.array_equal(log.positions, log_neg.positions)


def test_mertens_oscillates_at_desk_scale(table_1e6):
    series = compute_series(SignAssignment.all_minus_one(), "f", 0.0, 10**6, table_1e6)
    log = detect_sign_changes(series)
    assert log.count >= 1
    # independent check of the first crossing: cumulative Moebius turns
    # negative at x = 3
    mu = oracle_mobius(1000)
    cums = np.cumsum(mu[1:])
    first_negative = int(np.flatnonzero(cums < 0)[0] + 1)
    assert first_negative == 3
    assert log.positions[0] == 3


def test_riesz_mean_trivial(table_1e5):
    a = SignAssignment.iid(31)
    assert riesz_mean(a, 1, table_1e5) == 0.0
    # closed form at x = 2: the n = 2 term carries log(2/2) = 0, so only
    # f(1) log 2 survives
    assert abs(riesz_mean(a, 2, table_1e5) - math.log(2)) < 1e-15


def test_riesz_mean_reverse_summation_oracle(table_1e5):
    a = SignAssignment.iid(77)
    x = 10**3
    ev = MultiplicativeEvaluator(a, table_1e5)
    total = 0.0
    for n in range(x, 0, -1):  # reverse order, scalar evaluator
        total += evaluate_f(ev, n) / math.sqrt(n) * math.log(x / n)
    value = riesz_mean(a, x, table_1e5)
    assert abs(value - total) <= 1e-12 * max(1.0, abs(total))


def test_growth_statistic_synthetic_single_point():
    values = np.zeros(16)
    values[15] = 1.0  # M(16) = 1, all else 0
    series = series_from_values(values)
    for theta in (0.0, 0.25, 2.0):
        expected = 1.0 / (4.0 * math.log(math.log(16.0)) ** theta)
        assert abs(growth_statistic(series, theta) - expected) < 1e-15


def test_growth_statistic_brute_force(table_1e5, oracle_mu_1e5):
    series = compute_series(SignAssignment.all_minus_one(), "f", 0.0, 10**4, table_1e5)
    stat = growth_statistic(series, 0.0)
    cums = np.cumsum(oracle_mu_1e5[1 : 10**4 + 1])
    brute = max(abs(cums[x - 1]) / math.sqrt(x) for x in range(16, 10**4 + 1))
    assert abs(stat - brute) < 1e-12


def test_growth_statistic_theta_monotone(table_1e5):
    series = compute_series(SignAssignment.iid(6), "f", 0.0, 10**4, table_1e5)
    assert growth_statistic(series, 10.0) <= growth_statistic(series, 0.0)
    assert growth_statistic(series, 0.25) <= growth_statistic(series, 0.0)


def test_growth_statistic_validation(table_1e5):
    series = compute_series(SignAssignment.iid(6), "f", 0.5, 100, table_1e5)
    with pytest.raises(DomainError):
        growth_statistic(series, 0.0)
    short = compute_series(SignAssignment.iid(6), "f", 0.0, 10, table_1e5)
    with pytest.raises(DomainError):
        growth_statistic(short, 0.0)


def test_high_alpha_series_stabilize(table_1e6):
    # alpha in the convergent regime: the tail of the series should hold one
    # sign for nearly all realizations at desk scale
    stable = 0
    trials = 50
    for seed in range(trials):
        series = compute_series(SignAssignment.iid(seed), "f", 0.75, 10**6, table_1e6)
        tail = series.values[9 * 10**5 :]
        if (tail > 0).all() or (tail < 0).all():
            stable += 1
    assert stable >= 0.9 * trials


def test_csv_exports(table_1e5):
    series = compute_series(SignAssignment.iid(2), "f", 0.5, 20, table_1e5)
    log = detect_sign_changes(series)
    texts = {name: "".join(blocks) for name, blocks in _series_csvs(series, log).items()}
    text = texts["series.csv"]
    lines = text.strip().split("\n")
    assert lines[0] == "x,value"
    assert len(lines) == 21
    assert lines[1].startswith("1,1")
    text2 = texts["sign_changes.csv"]
    assert text2.splitlines()[0] == "position,sign_after"
    assert len(text2.splitlines()) == 1 + log.count


def test_model_enum_round_trip():
    assert Model("f") is Model.F
    assert Model("fstar") is Model.F_STAR
    with pytest.raises(ValueError):
        Model("g")


def test_map_ordered_runs_every_call_on_the_same_threads():
    # a pool per call would start new threads each time, and with them new
    # malloc arenas whenever an ended thread had not yet handed its back
    idents = set()

    def square(x):
        idents.add(threading.get_native_id())
        time.sleep(0.001)
        return x * x

    for _ in range(5):
        assert map_ordered(square, range(8), 2) == [x * x for x in range(8)]
    assert len(idents) <= 2 and threading.get_native_id() not in idents


@pytest.mark.parametrize("items, threads", [(7, 3), (2, 5), (8, 2), (5, 1), (0, 4)])
def test_map_ordered_submits_one_call_per_run(monkeypatch, items, threads):
    # 7 items on 3 threads run as 0-2, 3-4 and 5-6; with more threads than
    # items each item is a run; one run goes on the calling thread
    submitted, ran = [], {}
    submit = ThreadPoolExecutor.submit

    def counted(pool, fn, *args):
        submitted.append(args)
        return submit(pool, fn, *args)

    def square(x):
        ran.setdefault(threading.get_native_id(), []).append(x)
        return x * x

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
    assert map_ordered(square, range(items), threads) == [x * x for x in range(items)]
    calls = max(1, min(threads, items))  # one run per thread, at most one per item
    assert len(submitted) == (calls if calls > 1 else 0)
    runs = [run.tolist() for (run,) in submitted] or [list(range(items))]
    assert runs == [list(run) for run in np.array_split(np.arange(items), calls)]
    assert runs == [run.tolist() for run in split_runs(threads, items)]
    # every item ran once, each thread's items in ascending order
    assert sorted(x for xs in ran.values() for x in xs) == list(range(items))
    assert all(xs == sorted(xs) for xs in ran.values())


def test_map_ordered_raises_the_first_failure_in_item_order_after_running_calls_end():
    # 12 items on 2 threads run as items 0-5 and 6-11, and a run stops at
    # its own first failure
    ended = []

    def work(x):
        if x == 1:
            time.sleep(0.2)
            raise ValueError("item 1")
        if x == 7:
            raise KeyError("item 7")  # fails first in time
        ended.append(x)
        return x

    with pytest.raises(ValueError, match="item 1"):
        map_ordered(work, range(12), 2)
    # both runs have ended, and neither ran past its failure
    assert sorted(ended) == [0, 6]
