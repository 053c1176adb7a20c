"""Weighted partial sums M_alpha(x) = sum_{n<=x} g(n)/n^alpha and their signs.

M_alpha is a right-continuous step function of x, constant between
consecutive integers, so the integer samples stored here are a lossless
representation; the mellin module relies on exactly this.

Every M_alpha comes from one trial engine, stream_trials.  Each call does
the seed-free work once (_seed_free): the cofactor n/spf(n), the index of
spf(n) among the primes and the weights n^-alpha, from the sieve of
primes.sieve_for.  A batch of up to 64 trials gets g in one pass, one bit
lane per trial (signs.sign_lanes).  Each trial then accumulates its signed
weights g(n)/n^alpha in fixed segments and hands each segment, sums and
weights, to a reducer, so an experiment keeps its statistics, not its
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .primes import SpfTable, prime_count_bound, primes_up_to, sieve_for, spf_cofactors, squarefree_mask
from .signs import SignAssignment, lane_dtype, prime_sign_table, sign_lanes


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


def _seed_free(model: Model, alpha: float, limit: int, table: SpfTable):
    """stream_trials' seed-free arrays: the primes <= limit, spf_cofactors,
    and weights[n] = n^-alpha as float64, +0.0 at n = 0 and, for f, where n
    is not squarefree, so that the lanes of fstar give f."""
    cofactor, spf_index = spf_cofactors(table, limit)
    weights = np.arange(limit + 1, dtype=np.float64)
    weights[0] = 1.0
    np.power(weights, -float(alpha), out=weights)
    weights[0] = 0.0
    if model is Model.F:
        weights *= squarefree_mask(table, limit)
    return primes_up_to(table, limit), cofactor, spf_index, weights


def stream_trials(model: Model | str, alpha: float, limit: int, assignments, reducer, threads: int,
                  segment: int | None = None, table: SpfTable | None = None) -> list:
    """[reducer().result() fed with M_alpha(1..limit) of each assignment].

    After check_run, primes.sieve_for gives the sieve, checking it and
    engine_bytes of this call first unless the caller gives a table.
    Assignments go in batches of up to LANES.  A batch's sign rows are built
    on `threads` worker threads and packed into one bit lane per trial, and
    one pass of sign_lanes gives fstar for the whole batch.  Then each trial,
    on the worker threads, turns its lane into weights +-w by XOR-ing the
    float sign bit, accumulates them in ascending n one segment of `segment`
    integers at a time (default SEGMENT), and calls feed(start, values,
    weights) of its own reducer per segment: values[i] = M_alpha(n) and
    weights[i] = g(n)/n^alpha at n = start - 1 + i for i >= 1, slot 0 of
    both holds the sum before the segment, and a segment of size limit is a
    whole series.  The arrays are the engine's buffers, valid only during
    feed, except in one-segment runs, where they last through result().
    np.sign(weights[1:]) is g (+0.0 where g = 0).  The sum is sequential,
    so results do not depend on the segment size, batch size or threads.
    """
    model = check_run(model, alpha, limit)
    more = 0 if table is not None else engine_bytes(model, limit, len(assignments), threads, segment)
    table = sieve_for(max(limit, 2), table, more, f"{len(assignments)} {model.value} series at N = {limit}")
    primes, cofactor, spf_index, weights = _seed_free(model, alpha, limit, table)
    size = min(segment or SEGMENT, limit)
    results = []
    for first in range(0, len(assignments), LANES):
        batch = assignments[first : first + LANES]
        rows = map_ordered(lambda a: prime_sign_table(a, primes), batch, threads)
        lanes = sign_lanes(rows, cofactor, spf_index)
        del rows
        results += map_ordered(lambda k: _stream_lane(weights, lanes, k, reducer(), size), range(len(batch)), threads)
    return results


def _stream_lane(weights: np.ndarray, lanes: np.ndarray, k: int, reduce, size: int):
    # signed[0] carries the sum before the segment, signed[1:] its weights
    signed = np.empty(size + 1, dtype=np.uint64)
    values = np.empty(size + 1, dtype=np.float64)
    weight_bits = weights.view(np.uint64)
    carry = 0.0
    for start in range(1, weights.size, size):
        stop = min(start + size, weights.size)
        bits = signed[1 : stop - start + 1]
        # bit k of the lane to the sign bit, where XOR turns w into -w
        np.left_shift(lanes[start:stop], 63 - k, out=bits, dtype=np.uint64)
        np.bitwise_and(bits, _SIGN_BIT, out=bits)
        np.bitwise_xor(bits, weight_bits[start:stop], out=bits)
        signed_weights = signed[: stop - start + 1].view(np.float64)
        signed_weights[0] = carry
        # into a separate buffer: an in-place cumsum barely uses a second thread
        np.cumsum(signed_weights, out=values[: stop - start + 1])
        reduce.feed(start, values[: stop - start + 1], signed_weights)
        carry = values[stop - start]
    return reduce.result()


def engine_bytes(model: Model | str, limit: int, trials: int, threads: int, segment: int | None = None) -> int:
    """Bytes stream_trials holds at once: the seed-free arrays (16 per n; f
    also builds a squarefree mask, 1 per n), one batch's lane words and sign
    rows (a byte per trial and prime, counted by prime_count_bound), and the
    two 8-byte segment buffers of each trial that runs at once."""
    batch = min(trials, LANES)
    seed_free = 17 if Model(model) is Model.F else 16
    lane = np.dtype(lane_dtype(batch)).itemsize
    buffers = concurrent_calls(threads, batch) * 16 * min(segment or SEGMENT, limit)
    return (seed_free + lane) * (limit + 1) + batch * prime_count_bound(limit) + buffers


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


def concurrent_calls(threads: int, items: int) -> int:
    """Calls map_ordered runs at once: one per thread, at most one per item."""
    return max(1, min(threads, items))


def map_ordered(worker, items, threads: int) -> list:
    """[worker(x) for x in items], concurrent_calls of them at a time.

    Results come back in item order whatever the thread count; an exception
    raised by any call is raised here.
    """
    items = list(items)
    running = concurrent_calls(threads, len(items))
    if running == 1:
        return [worker(x) for x in items]
    with ThreadPoolExecutor(max_workers=running) as pool:
        return list(pool.map(worker, items))
