"""Weighted partial sums M_alpha(x) = sum_{n<=x} g(n)/n^alpha and their signs.

M_alpha is a right-continuous step function of x, constant between
consecutive integers, so the integer samples stored here are a lossless
representation; the mellin module relies on exactly this.

Summation is plain float64 accumulation in ascending n (np.cumsum), which is
sequential and therefore bit-reproducible across runs and thread counts.  At
desk scale the rounding this admits sits far below statistical noise; the
reconstruction test M_alpha(x) - M_alpha(x-1) = g(x)/x^alpha quantifies it.
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .primes import SpfTable, build_spf_sieve
from .signs import MultiplicativeEvaluator, SignAssignment


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

    @classmethod
    def from_values(cls, values, model: Model | str = Model.F, alpha: float = 0.0):
        """Wrap an explicit sequence M(1), ..., M(N); mainly for synthetic
        series in tests and for oracle comparisons."""
        arr = np.concatenate([[0.0], np.asarray(values, dtype=np.float64)])
        if arr.size < 2:
            raise DomainError("series needs at least one value")
        return cls(Model(model), float(alpha), arr)


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


def compute_series(
    assignment: SignAssignment,
    model: Model | str,
    alpha: float,
    limit: int,
    table: SpfTable | None = None,
) -> WeightedSumSeries:
    """Stream M_alpha(1..limit) for g in {f, fstar}.

    alpha is restricted to [0, 1]: the regime of interest is [0, 1/2], the
    rest is a convergence sanity range.  Cost is one bulk evaluation of g
    plus a cumulative sum, O(limit).
    """
    return series_and_values(assignment, model, alpha, limit, table)[0]


def series_and_values(
    assignment: SignAssignment,
    model: Model | str,
    alpha: float,
    limit: int,
    table: SpfTable | None = None,
) -> tuple[WeightedSumSeries, np.ndarray]:
    """compute_series together with the float64 values g(0..limit) it summed
    (index 0 unused, 0.0), for callers that need g as well."""
    model = Model(model)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    if table is None:
        table = build_spf_sieve(max(limit, 2))
    evaluator = MultiplicativeEvaluator(assignment, table)
    g = evaluator.values_up_to(limit, model.value).astype(np.float64)
    x = np.arange(limit + 1, dtype=np.float64)
    x[0] = 1.0
    weights = g * np.power(x, -float(alpha))
    values = np.empty(limit + 1, dtype=np.float64)
    values[0] = 0.0
    np.cumsum(weights[1:], out=values[1:])
    return WeightedSumSeries(model, float(alpha), values), g


def detect_sign_changes(series: WeightedSumSeries) -> SignChangeLog:
    """Crossing positions of the series, by the zeros-ignored rule.

    Exact zeros (possible only at alpha = 0, where sums are integers) never
    create or destroy a crossing by themselves.
    """
    v = series.values[1:]
    # indices of the nonzero values in v; None when no value is an exact zero
    at = None if v.all() else np.flatnonzero(v)
    positive = (v if at is None else v[at]) > 0
    if positive.size == 0:
        return SignChangeLog(positions=np.empty(0, dtype=np.int64), count=0, first_sign=0)
    flips = np.flatnonzero(positive[1:] != positive[:-1]) + 1
    positions = ((flips if at is None else at[flips]) + 1).astype(np.int64, copy=False)
    return SignChangeLog(
        positions=positions, count=int(positions.size), first_sign=1 if positive[0] else -1
    )


def growth_statistic(series: WeightedSumSeries, theta: float) -> float:
    """max over 16 <= x <= limit of |M_0(x)| / (sqrt(x) (log log x)^theta).

    Requires alpha = 0 (the unweighted sums whose growth envelope is
    sqrt(x) times powers of log log x) and limit >= 16 so the normalizer
    exceeds 1 on the whole range.
    """
    if series.alpha != 0.0:
        raise DomainError(f"growth statistic needs alpha = 0, got {series.alpha}")
    if series.limit < 16:
        raise DomainError(f"growth statistic needs limit >= 16, got {series.limit}")
    x = np.arange(16, series.limit + 1, dtype=np.float64)
    norm = np.sqrt(x) * np.log(np.log(x)) ** float(theta)
    return float(np.max(np.abs(series.values[16:]) / norm))


def map_ordered(worker, items, threads: int) -> list:
    """[worker(x) for x in items], on up to `threads` threads.

    Results come back in item order whatever the thread count; an exception
    raised by any call is raised here.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [worker(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, items))
