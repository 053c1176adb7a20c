"""Slow or independent reference routes that only tests use.

Each one recomputes something the package computes another way: a sign or
g(n) one prime or one n at a time by factorization, g by stripping smallest
prime factors, g and M_alpha one trial at a time by the int8 recurrence, a compensated running sum, fstar by Dirichlet convolution,
the prime cosine sum and the Riesz mean at one point, the sup scan with a
full cosine matrix, the Mellin record at one point, the growth statistic
over a whole series, a CSV file as one string.  Tests compare the package against them, and wrap
synthetic series of explicit values (series_from_values).
"""

from dataclasses import dataclass

import numpy as np

from rmflab.errors import DomainError, MissingSignError
from rmflab.mellin import boundary_term, mellin_step_integral, signed_and_absolute_integrals
from rmflab.output import fmt_float
from rmflab.primes import SpfTable, build_spf_sieve, primes_up_to
from rmflab.series import Model, WeightedSumSeries, growth_norm
from rmflab.signs import (
    _GOLDEN,
    _MASK64,
    MultiplicativeEvaluator,
    SignAssignment,
    SignMode,
    mix64,
    prime_sign_table,
)


def csv_text(header, columns) -> str:
    """CSV text: the header row, then row i holds entry i of every column.

    A column whose first entry is a float (numpy floats included) is written
    with fmt_float, any other column with str.  Columns are formatted whole,
    then joined row by row; output.csv_blocks formats blocks of rows instead.
    """
    cells = []
    for column in columns:
        values = column.tolist() if isinstance(column, np.ndarray) else list(column)
        fmt = fmt_float if values and isinstance(values[0], float) else str
        cells.append(map(fmt, values))
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def series_from_values(values, model: Model | str = Model.F, alpha: float = 0.0) -> WeightedSumSeries:
    """Wrap an explicit sequence M(1), ..., M(N) as a series of the given
    model and alpha; for synthetic series."""
    arr = np.concatenate([[0.0], np.asarray(values, dtype=np.float64)])
    if arr.size < 2:
        raise DomainError("series needs at least one value")
    return WeightedSumSeries(Model(model), float(alpha), arr)


def growth_statistic(series: WeightedSumSeries, theta: float) -> float:
    """max over 16 <= x <= limit of |M_0(x)| / (sqrt(x) (log log x)^theta),
    over the whole series at once; the growth experiment's reducer keeps
    running maxima of the same ratios instead.

    Requires alpha = 0 (the unweighted sums whose growth envelope is
    sqrt(x) times powers of log log x) and limit >= 16 so the normalizer
    exceeds 1 on the whole range.
    """
    if series.alpha != 0.0:
        raise DomainError(f"growth statistic needs alpha = 0, got {series.alpha}")
    if series.limit < 16:
        raise DomainError(f"growth statistic needs limit >= 16, got {series.limit}")
    x = np.arange(16, series.limit + 1, dtype=np.float64)
    return float(np.max(np.abs(series.values[16:]) / growth_norm(x, theta)))


def factorize(n: int, table: SpfTable) -> list[tuple[int, int]]:
    """Prime factorization of n as (prime, exponent) pairs, primes increasing.

    n = 1 yields the empty list (empty product).
    """
    table.check_range(n)
    out: list[tuple[int, int]] = []
    m = n
    while m > 1:
        p = int(table.spf[m])
        a = 0
        while m % p == 0:
            m //= p
            a += 1
        out.append((p, a))
    return out


def is_squarefree(n: int, table: SpfTable) -> bool:
    """True iff no prime divides n twice (mu^2(n) = 1)."""
    table.check_range(n)
    m = n
    while m > 1:
        p = int(table.spf[m])
        m //= p
        if m % p == 0:
            return False
    return True


def sign_at_prime(assignment: SignAssignment, p: int) -> int:
    """The +-1 value attached to the prime p (primality is caller-verified),
    one prime at a time; prime_sign_table is the bulk route."""
    if assignment.mode is SignMode.ALL_MINUS_ONE:
        return -1
    if assignment.mode is SignMode.EXPLICIT:
        signs = assignment.explicit_signs or {}
        if p not in signs:
            raise MissingSignError(f"explicit assignment has no sign for p={p}")
        return signs[p]
    z = mix64((assignment.seed + p * _GOLDEN) & _MASK64)
    return 1 if z >> 63 == 0 else -1


def evaluate_f(ev: MultiplicativeEvaluator, n: int) -> int:
    """f(n) by factorization: 0 if n is not squarefree, else the product of
    the signs at the distinct primes dividing n; f(1) = 1."""
    ev.table.check_range(n)
    value = 1
    for p, a in factorize(n, ev.table):
        if a >= 2:
            return 0
        value *= sign_at_prime(ev.assignment, p)
    return value


def evaluate_f_star(ev: MultiplicativeEvaluator, n: int) -> int:
    """fstar(n) by factorization: product of sign(p)^a over p^a exactly
    dividing n; never 0."""
    ev.table.check_range(n)
    value = 1
    for p, a in factorize(n, ev.table):
        if a % 2 == 1:
            value *= sign_at_prime(ev.assignment, p)
    return value


def sign_by_value(ev: MultiplicativeEvaluator, limit: int) -> np.ndarray:
    """int8 array s with s[p] = sign at p for every prime p <= limit.

    Entries at non-prime indices are 0.  Explicit assignments must cover
    every prime <= limit.
    """
    ev.table.check_range(max(limit, 1))
    primes = primes_up_to(ev.table)
    primes = primes[primes <= limit]
    out = np.zeros(limit + 1, dtype=np.int8)
    out[primes] = prime_sign_table(ev.assignment, primes)
    return out


def values_by_recurrence(ev: MultiplicativeEvaluator, limit: int, model: str) -> np.ndarray:
    """g(0..limit) as int8, as values_up_to returns it, one assignment at a
    time: the int8 dyadic recurrence values_up_to ran before sign_lanes.

    With p = spf(n) and q = n/p, fstar(n) = fstar(q) s(p), and f(n) =
    f(q) s(p) when p does not divide q, else 0; q is found by dividing.
    """
    sign_of = sign_by_value(ev, limit)
    spf = ev.table.spf
    g = np.zeros(limit + 1, dtype=np.int8)
    g[1] = 1
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, limit + 1)
        p = spf[lo:hi]
        q = (np.arange(lo, hi, dtype=np.float64) / p).astype(np.intp)
        s = sign_of[p]
        if model == "f":
            # every prime of q is >= p, so p | q exactly when spf(q) = p
            s *= spf[q] != p
        np.multiply(g[q], s, out=g[lo:hi])
        lo = hi
    return g


def series_and_values(assignment, model, alpha: float, limit: int, table=None):
    """(M_alpha(0..limit) as a WeightedSumSeries, g(0..limit) as float64), one
    trial at a time over whole float64 arrays: the route compute_series took
    before the batched engine."""
    model = Model(model)
    if table is None:
        table = build_spf_sieve(max(limit, 2))
    g = values_by_recurrence(MultiplicativeEvaluator(assignment, table), limit, model.value).astype(np.float64)
    x = np.arange(limit + 1, dtype=np.float64)
    x[0] = 1.0
    weights = g * np.power(x, -float(alpha))
    values = np.empty(limit + 1, dtype=np.float64)
    values[0] = 0.0
    np.cumsum(weights[1:], out=values[1:])
    return WeightedSumSeries(model, float(alpha), values), g


def values_by_stripping(ev: MultiplicativeEvaluator, limit: int, model: str) -> np.ndarray:
    """g(0..limit) as int8, as values_up_to returns it, by stripping the
    smallest prime factor from every n > 1 in vectorized rounds until only 1
    is left; the route values_up_to took before its dyadic recurrence."""
    sign_of = sign_by_value(ev, limit)
    fstar = np.ones(limit + 1, dtype=np.int8)
    squarefree = np.ones(limit + 1, dtype=bool)
    spf = ev.table.spf
    m = np.arange(limit + 1, dtype=np.int64)
    idx = np.flatnonzero(m > 1)
    while idx.size:
        p = spf[m[idx]].astype(np.int64)
        q = m[idx] // p
        squarefree[idx[q % p == 0]] = False
        fstar[idx] *= sign_of[p]
        m[idx] = q
        idx = idx[q > 1]
    fstar[0] = 0
    if model == "fstar":
        return fstar
    f = np.where(squarefree, fstar, np.int8(0))
    f[0] = 0
    return f


def kahan_cumsum(weights: np.ndarray) -> np.ndarray:
    """Compensated running sum; the validation mode for the plain cumsum."""
    out = np.empty_like(weights)
    total = 0.0
    carry = 0.0
    for i, w in enumerate(weights):
        y = w - carry
        t = total + y
        carry = (t - total) - y
        total = t
        out[i] = total
    return out


def kahan_series_values(assignment, model, alpha: float, limit: int, table) -> np.ndarray:
    """M_alpha(0..limit) as compute_series forms it, but summed by kahan_cumsum."""
    g = MultiplicativeEvaluator(assignment, table).values_up_to(limit, Model(model).value)
    x = np.arange(limit + 1, dtype=np.float64)
    x[0] = 1.0
    weights = g.astype(np.float64) * np.power(x, -float(alpha))
    values = np.zeros(limit + 1, dtype=np.float64)
    values[1:] = kahan_cumsum(weights[1:])
    return values


def f_star_by_convolution(ev: MultiplicativeEvaluator, n: int) -> int:
    """fstar(n) computed as sum over d^2 | n of f(n/d^2).

    The sum has exactly one nonzero term (d with d^2 the largest square
    dividing n up to squarefree part), so it equals evaluate_f_star(ev, n).
    """
    ev.table.check_range(n)
    total = 0
    d = 1
    while d * d <= n:
        if n % (d * d) == 0:
            total += evaluate_f(ev, n // (d * d))
        d += 1
    return total


def prime_cosine_sum(assignment, sigma: float, t: float, prime_limit: int, table=None) -> float:
    """sum_{p <= prime_limit} f(p) cos(t log p) p^-sigma, accumulated in
    ascending p; the single-point value that the sup scan maximizes over t."""
    if sigma <= 0.5:
        raise DomainError(f"prime sums require sigma > 1/2, got {sigma}")
    if prime_limit < 2:
        raise DomainError(f"prime_limit must be >= 2, got {prime_limit}")
    primes = primes_up_to(table if table is not None else build_spf_sieve(prime_limit))
    primes = primes[primes <= prime_limit]
    signs = prime_sign_table(assignment, primes).astype(np.float64)
    p = primes.astype(np.float64)
    return float(np.cumsum(signs * p ** (-float(sigma)) * np.cos(float(t) * np.log(p)))[-1])


def scan_by_cosine_matrix(
    weights: np.ndarray,
    logp: np.ndarray,
    t_start: float,
    grid_step: float,
    n_points: int,
    chunk: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """dirichlet.scan_grid_max with every cosine evaluated by np.cos: row-wise
    (max, first argmax t) of weights @ cos(t log p) over t = t_start + j*step,
    one chunk x primes cosine matrix per block of grid points."""
    weights = np.atleast_2d(weights)
    n_rows = weights.shape[0]
    best = np.full(n_rows, -np.inf)
    best_t = np.full(n_rows, t_start)
    for start in range(0, n_points, chunk):
        stop = min(start + chunk, n_points)
        t_block = t_start + grid_step * np.arange(start, stop, dtype=np.float64)
        phases = np.outer(t_block, logp)
        np.cos(phases, out=phases)
        vals = weights @ phases.T
        block_best = vals.max(axis=1)
        block_arg = vals.argmax(axis=1)
        update = block_best > best
        best[update] = block_best[update]
        best_t[update] = t_block[block_arg[update]]
    return best, best_t


def riesz_mean(assignment, x: int, table=None) -> float:
    """sum_{n<=x} (f(n)/sqrt(n)) * log(x/n), natural log.

    The smoothed average that approximates sum_{n<=x} fstar(n)/sqrt(n) after
    convolving f with the perfect-square indicator.
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if table is None:
        table = build_spf_sieve(max(x, 2))
    f = MultiplicativeEvaluator(assignment, table).values_up_to(x, "f").astype(np.float64)[1:]
    n = np.arange(1, x + 1, dtype=np.float64)
    return float(np.sum(f / np.sqrt(n) * np.log(x / n)))


def prime_sum_real(assignment, sigma: float, prime_limit: int, table=None) -> float:
    """sum_{p <= prime_limit} f(p) p^-sigma (the cosine sum at t = 0)."""
    return prime_cosine_sum(assignment, sigma, 0.0, prime_limit, table)


def abs_mellin_integral(series: WeightedSumSeries, sigma: float) -> float:
    """integral_1^N |M_alpha(x)| x^-(sigma+1-alpha) dx at real sigma > alpha.

    Reported without the (s - alpha) prefactor; every per-interval weight is
    positive, so this dominates |signed integral| / (sigma - alpha).
    """
    return signed_and_absolute_integrals(series, sigma)[1]


@dataclass(frozen=True)
class MellinEvaluation:
    """One evaluation of the truncated identity at a point s.

    signed_integral + boundary_term equals the truncated Dirichlet sum up to
    rounding; abs_integral (real s only, else None) dominates
    |signed_integral| / (s - alpha) by the triangle inequality.
    """

    s: complex
    alpha: float
    limit: int
    signed_integral: complex
    boundary_term: complex
    abs_integral: float | None


def evaluate_mellin(series: WeightedSumSeries, s: complex) -> MellinEvaluation:
    """Signed integral, boundary term, and (real s) absolute integral at s."""
    s = complex(s)
    signed = mellin_step_integral(series, s)
    bnd = boundary_term(series, s)
    absint = abs_mellin_integral(series, s.real) if s.imag == 0.0 else None
    return MellinEvaluation(
        s=s,
        alpha=series.alpha,
        limit=series.limit,
        signed_integral=signed,
        boundary_term=bnd,
        abs_integral=absint,
    )
