"""Weighted partial sums M_alpha(x) = sum_{n<=x} g(n)/n^alpha and their signs.

M_alpha is a right-continuous step function of x, constant between
consecutive integers, so the integer samples stored here are a lossless
representation; the mellin module relies on exactly this.

Every M_alpha comes from one trial engine, stream_trials, over the sieve
of primes.sieve_for.  A batch of up to 64 trials gets g in one pass over
the sieve's smallest prime factors, one bit lane per trial
(signs.sign_lanes).  Each worker walks fixed segments of n, builds each
segment's weights n^-alpha once (_weights) and accumulates each of its
trials' signed weights g(n)/n^alpha over it, handing sums and weights to
the trial's reducer, so an experiment keeps its statistics, not its
series; a single series (compute_series) is a batch of one in one segment.
sign_crossings states the crossing rule for a whole series
(detect_sign_changes) and for one segment of it alike.

Summation is plain float64 accumulation in ascending n (np.cumsum), carried
from segment to segment, which is sequential and therefore bit-reproducible
across runs, thread counts, batch sizes and segment sizes.  At desk scale
the rounding this admits sits far below statistical noise; the
reconstruction test M_alpha(x) - M_alpha(x-1) = g(x)/x^alpha quantifies it.
"""

from __future__ import annotations

import enum
import math
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DomainError
from .primes import SpfTable, prime_count_bound, primes_up_to, sieve_for
from .signs import LANE_STEP, SignAssignment, lane_dtype, prime_sign_table, sign_lanes


class Model(str, enum.Enum):
    """The two function models: squarefree-supported f, completely
    multiplicative fstar."""

    F = "f"
    F_STAR = "fstar"


@dataclass(frozen=True)
class WeightedSumSeries:
    """M_alpha(1..limit) for one model, one assignment realization.

    ``values[x]`` holds M_alpha(x) for 1 <= x <= limit (index 0 unused, 0.0),
    so limit is values.size - 1.  A series wraps its values array without a
    copy; a prefix up to n is WeightedSumSeries(model, alpha, values[: n + 1]).
    """

    model: Model
    alpha: float
    values: np.ndarray = field(repr=False)

    @property
    def limit(self) -> int:
        return self.values.size - 1


@dataclass(frozen=True)
class SignChangeLog:
    """Positions where the partial sum crosses between strictly positive and
    strictly negative values, zeros ignored.

    A crossing is recorded at the smallest x whose sign is strictly opposite
    to the last recorded nonzero sign, so signs at consecutive crossings
    alternate.  first_sign is the sign of the first nonzero value (0 if the
    series is identically zero).
    """

    positions: np.ndarray
    count: int
    first_sign: int

    def signs_after(self) -> np.ndarray:
        """Sign that holds right after each recorded crossing."""
        k = np.arange(1, self.count + 1)
        return self.first_sign * (-1) ** k


#: Trials evaluated together, one bit lane each, by one pass of sign_lanes.
LANES = 64
#: Integers per segment of the float pass; a segment's two float64 buffers
#: stay in a core's L2 cache.
SEGMENT = 2**16
_SIGN_BIT = np.uint64(1 << 63)


def check_run(model: Model | str, alpha: float, limit: int) -> Model:
    """Model(model), once the engine's arguments hold: alpha in [0, 1] (the
    regime of interest is [0, 1/2], the rest a sanity range) and limit >= 1."""
    model = Model(model)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    return model


def _weights(model: Model, alpha: float, start: int, stop: int, table: SpfTable, out: np.ndarray) -> np.ndarray:
    """out[: stop - start] set to n^-alpha at n = start + i >= 1, bit for bit
    as one whole float64 array, and for f to +0.0 at the multiples of p^2,
    p <= isqrt(stop - 1), so that the lanes of fstar give f."""
    w = out[: stop - start]
    w[:1], w[1:] = start, 1.0
    np.cumsum(w, out=w)  # n = start + i: sums of ones are exact and need no temporary
    np.power(w, -float(alpha), out=w)
    if model is Model.F:
        for p in primes_up_to(table, math.isqrt(stop - 1)).tolist():
            w[-start % (p * p) :: p * p] = 0.0
    return w


def stream_trials(model: Model | str, alpha: float, limit: int, assignments, reducer, threads: int,
                  segment: int | None = None, table: SpfTable | None = None) -> list:
    """[reducer().result() fed with M_alpha(1..limit) of each assignment].

    After check_run, primes.sieve_for gives the sieve, checking it and
    engine_bytes of this call first unless the caller gives a table.
    Assignments go in batches of up to LANES.  A batch's sign rows are built
    on `threads` worker threads, and one pass of sign_lanes over the sieve
    gives fstar for the whole batch, one bit lane per trial.  Each run of
    split_runs(threads, len(batch)), on its own thread, walks the segments
    of `segment` integers (default SEGMENT) in ascending n, builds their
    weights w = n^-alpha once each (_weights), and for each of its trials
    turns the lane into +-w by XOR-ing the float sign bit, accumulates it
    after the trial's own sum and calls feed(start, values, weights) of the
    trial's reducer: values[i] = M_alpha(n) and weights[i] =
    g(n)/n^alpha at n = start - 1 + i for i >= 1, slot 0 of both holds the
    sum before the segment, and a segment of size limit is a whole series.
    The arrays are the run's buffers, valid only during feed, except in
    one-segment calls, whose weights are built once for every run and whose
    trials each get buffers that last through result().
    np.sign(weights[1:]) is g (+0.0 where g = 0).  Each sum is sequential,
    so results do not depend on the segment size, batch size or threads.
    """
    model = check_run(model, alpha, limit)
    more = 0 if table is not None else engine_bytes(limit, len(assignments), threads, segment)
    table = sieve_for(max(limit, 2), table, more, f"{len(assignments)} {model.value} series at N = {limit}")
    primes = primes_up_to(table, limit)
    size = min(segment or SEGMENT, limit)
    whole = _weights(model, alpha, 1, limit + 1, table, np.empty(limit)) if size == limit else None
    results = []
    for first in range(0, len(assignments), LANES):
        batch = assignments[first : first + LANES]
        lanes = sign_lanes(map_ordered(lambda a: prime_sign_table(a, primes), batch, threads), table, limit)
        work = partial(_stream_run, model, alpha, limit, table, whole, lanes, reducer, size)
        results += [y for run in map_ordered(work, split_runs(threads, len(batch)), threads) for y in run]
    return results


def _stream_run(model: Model, alpha: float, limit: int, table: SpfTable, whole, lanes: np.ndarray, reducer,
                size: int, run: np.ndarray) -> list:
    # [reducer().result() of each lane k of the run], a segment of every trial
    # at a time, in the run's buffers, or in one segment a pair per trial
    reduces, carry = [reducer() for _ in run], [0.0] * len(run)
    pair = lambda: (np.empty(size + 1, dtype=np.uint64), np.empty(size + 1))
    weights, shared = (np.empty(size), pair()) if whole is None else (None, None)
    for start in range(1, limit + 1, size):
        stop = min(start + size, limit + 1)
        w = whole if whole is not None else _weights(model, alpha, start, stop, table, weights)
        for i, k in enumerate(run.tolist()):
            # a pair made here is held only by the reducer, until result()
            carry[i] = _feed(reduces[i], start, lanes[start:stop], k, w, *(shared or pair()), carry[i])
            if stop > limit:
                reduces[i] = reduces[i].result()
    return reduces


def _feed(reduce, start: int, lanes: np.ndarray, k: int, weights, signed, values, carry: float) -> float:
    # lane k of a segment to reduce, after the sum `carry`; returns the sum at its end
    m = lanes.size
    bits = signed[1 : m + 1]
    # bit k of the lane to the sign bit, where XOR turns w into -w
    np.left_shift(lanes, 63 - k, out=bits, dtype=np.uint64)
    np.bitwise_and(bits, _SIGN_BIT, out=bits)
    np.bitwise_xor(bits, weights.view(np.uint64), out=bits)
    signed_weights = signed[: m + 1].view(np.float64)
    signed_weights[0] = carry
    # into a separate buffer: an in-place cumsum barely uses a second thread
    np.cumsum(signed_weights, out=values[: m + 1])
    reduce.feed(start, values[: m + 1], signed_weights)
    return values[m]


def engine_bytes(limit: int, trials: int, threads: int, segment: int | None = None) -> int:
    """Bytes stream_trials holds at once, for either model: one batch's lane
    words (w per n), its sign rows and their packed words (b + w per prime
    for b trials, counted by prime_count_bound), a lane step's temporaries
    (16 + 2 w per integer of the largest step; signs.sign_lanes), and the
    floats of the runs at once (split_runs): over several segments of L, a
    run's weights and pair of buffers, 24 bytes per integer of L; in one,
    the shared weights (8 per n) and a pair per running trial, 16 per n."""
    batch = min(trials, LANES)
    lane = np.dtype(lane_dtype(batch)).itemsize
    size, runs = min(segment or SEGMENT, limit), len(split_runs(threads, batch))
    held = 8 * (limit + 1) + 16 * size * runs if size == limit else 24 * size * runs
    step = (16 + 2 * lane) * min(LANE_STEP, (limit + 1) // 2)
    return lane * (limit + 1) + (batch + lane) * prime_count_bound(limit) + step + held


class WholeSeries:
    """Reducer of one segment of size limit: result() is the series, or
    fn(series, weights)."""

    def __init__(self, model: Model | str, alpha: float, fn=None):
        self.model, self.alpha, self.fn = Model(model), float(alpha), fn

    def feed(self, start: int, values: np.ndarray, weights: np.ndarray) -> None:
        self.series, self.weights = WeightedSumSeries(self.model, self.alpha, values), weights

    def result(self):
        return self.series if self.fn is None else self.fn(self.series, self.weights)


def compute_series(
    assignment: SignAssignment,
    model: Model | str,
    alpha: float,
    limit: int,
    table: SpfTable | None = None,
) -> WeightedSumSeries:
    """M_alpha(1..limit) for g in {f, fstar}: the engine with a batch of one
    and one segment.  alpha is restricted to [0, 1].  Cost O(limit)."""
    return stream_trials(model, alpha, limit, [assignment], lambda: WholeSeries(model, alpha), 1, limit, table)[0]


def sign_crossings(values: np.ndarray, sign: int) -> tuple[np.ndarray, int]:
    """(indices of the crossings in values, the last nonzero sign at their
    end), given `sign`, the last nonzero sign before values (0: none).  A
    crossing is each value strictly opposite in sign to the last nonzero
    one, so exact zeros (possible only at alpha = 0) never create or destroy
    a crossing by themselves."""
    # indices of the nonzero values; None when no value is an exact zero
    at = None if values.all() else np.flatnonzero(values)
    positive = (values if at is None else values[at]) > 0
    if positive.size == 0:
        return np.empty(0, dtype=np.intp), sign
    flips = np.flatnonzero(positive[1:] != positive[:-1]) + 1
    if sign == (-1 if positive[0] else 1):  # the first nonzero value crosses
        flips = np.concatenate(([0], flips))
    return (flips if at is None else at[flips]), 1 if positive[-1] else -1


def detect_sign_changes(series: WeightedSumSeries) -> SignChangeLog:
    """Crossing positions of the whole series, by sign_crossings."""
    at, last = sign_crossings(series.values[1:], 0)
    return SignChangeLog(positions=at + 1, count=int(at.size), first_sign=last * (-1) ** at.size)


def growth_norm(x: np.ndarray, theta: float) -> np.ndarray:
    """sqrt(x) (log log x)^theta, the growth envelope at x >= 16."""
    return np.sqrt(x) * np.log(np.log(x)) ** float(theta)


def split_runs(threads: int, items: int) -> list[np.ndarray]:
    """map_ordered's runs of range(items), one per thread and at most one per
    item, of consecutive indices as np.array_split splits them."""
    return np.array_split(np.arange(items), max(1, min(threads, items)))


#: map_ordered's worker pools, one per worker count, kept for the process.
#: A pool per call would start and end its threads each time, and a thread
#: that starts while an ended one has not yet handed back its malloc arena
#: gets a new arena, which keeps what the thread's arrays leave in it: the
#: peak RSS of a run would then depend on thread timing.
_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def map_ordered(worker, items, threads: int) -> list:
    """[worker(x) for x in items], a sequence, in the runs of consecutive
    items of split_runs(threads, len(items)): one run on the calling thread,
    more one call per run on the kept pool of that many threads, so each
    starts at once.  A run stops at its own first exception; once every run
    has ended, the one first in item order is raised, or the results come
    back in item order."""
    runs = split_runs(threads, len(items))
    if len(runs) == 1:
        return [worker(x) for x in items]
    with _POOLS_LOCK:
        if len(runs) not in _POOLS:
            _POOLS[len(runs)] = ThreadPoolExecutor(max_workers=len(runs), thread_name_prefix="rmflab")
        pool = _POOLS[len(runs)]
    futures = [pool.submit(lambda run: [worker(items[i]) for i in run], run) for run in runs]
    wait(futures)
    return [y for future in futures for y in future.result()]
