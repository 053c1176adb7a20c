"""Slow or independent reference routes that only tests use.

Each one recomputes something the package computes another way: the sieve
by one mask pass per prime, the iid sign table by np.where, a sign or
g(n) one prime or one n at a time by factorization, g by stripping smallest
prime factors, g and M_alpha one trial at a time by the int8 recurrence,
the lanes of fstar from per-n cofactor and spf-index arrays, the weights
n^-alpha of every n at once, a compensated
running sum, fstar by Dirichlet convolution, the prime cosine sum and the
Riesz mean at one point, the sup scan with a full cosine
matrix, by the cosine recurrence and by a Chebyshev interpolant, the Mellin
record at one point, the growth statistic over a whole series, a CSV file
as one string, and trials.csv by one dict per row (records_csv).  Tests
compare the package against them, and wrap synthetic series of explicit
values (series_from_values).
"""

import math
from dataclasses import dataclass

import numpy as np

from rmflab.dirichlet import sup_scans
from rmflab.errors import DomainError, MissingSignError
from rmflab.experiments import GROWTH_CHECKPOINTS, GROWTH_THETAS
from rmflab.mellin import boundary_term, divergence_rows, mellin_step_integral, signed_and_absolute_integrals
from rmflab.output import fmt_float
from rmflab.primes import SpfTable, build_spf_sieve, primes_up_to, squarefree_mask
from rmflab.series import Model, WeightedSumSeries, detect_sign_changes, growth_norm
from rmflab.signs import (
    _GOLDEN,
    _MASK64,
    _MIX_A,
    _MIX_B,
    MultiplicativeEvaluator,
    SignAssignment,
    SignMode,
    lane_dtype,
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


def spf_sieve_by_masks(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(spf, primes) as build_spf_sieve fills them, the route it took before
    its descending strided stores: for each i <= sqrt(limit) still at 0, set
    the entries of i^2, i^2 + i, ... that are still 0 to i, then each
    remaining 0 at n >= 2 to n; the primes are the n with spf[n] = n."""
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == 0:
            block = spf[i * i :: i]
            block[block == 0] = i
    n = np.arange(limit + 1, dtype=np.uint32)
    mask = (spf == 0) & (n >= 2)
    spf[mask] = n[mask]
    primes = (np.flatnonzero(spf[2:] == n[2:]) + 2).astype(np.int64)
    return spf, primes


def prime_sign_table_by_where(seed: int, primes: np.ndarray) -> np.ndarray:
    """The iid signs of prime_sign_table at an array of primes, as int8: the
    whole mix64 on fresh arrays, then np.where on the top bit; the route
    prime_sign_table took before it ran mix64 in place."""
    z = np.uint64(seed) + np.asarray(primes).astype(np.uint64) * np.uint64(_GOLDEN)
    z ^= z >> 30
    z *= np.uint64(_MIX_A)
    z ^= z >> 27
    z *= np.uint64(_MIX_B)
    z ^= z >> 31
    return np.where((z >> 63) == 0, 1, -1).astype(np.int8)


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


def spf_cofactors(table: SpfTable, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(cofactor, spf_index) of every n <= limit, both int32: for 2 <= n <=
    limit, cofactor[n] = n / spf(n) and spf_index[n] is the index of spf(n)
    in primes_up_to(table); entries 0 and 1 are 0.  The per-n arrays the
    engine built before sign_lanes read the sieve itself."""
    table.check_range(limit)
    cofactor = np.zeros(limit + 1, dtype=np.int32)
    spf_index = np.zeros(limit + 1, dtype=np.int32)
    primes = primes_up_to(table, limit)
    spf_index[primes] = np.arange(primes.size, dtype=np.int32)
    spf = table.spf[2 : limit + 1]
    cofactor[2:] = np.arange(2, limit + 1) // spf
    spf_index[2:] = spf_index.take(spf)
    return cofactor, spf_index


def lanes_by_cofactors(rows, table: SpfTable, limit: int) -> np.ndarray:
    """sign_lanes(rows, table, limit) by the pass it replaced: from n = 2 in
    dyadic steps, lanes[n] = lanes[cofactor[n]] XOR words[spf_index[n]],
    with the batch's words indexed by the position of the prime."""
    cofactor, spf_index = spf_cofactors(table, limit)
    dtype = lane_dtype(len(rows))
    words = np.zeros(len(rows[0]), dtype=dtype)
    for k, row in enumerate(rows):
        words |= (row < 0).astype(dtype) << k
    lanes = np.zeros(limit + 1, dtype=dtype)
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, limit + 1)
        np.bitwise_xor(lanes.take(cofactor[lo:hi]), words.take(spf_index[lo:hi]), out=lanes[lo:hi])
        lo = hi
    return lanes


def seed_free_weights(model, alpha: float, limit: int, table: SpfTable) -> np.ndarray:
    """weights[n] = n^-alpha for 0 <= n <= limit as float64, +0.0 at n = 0
    and, for f, where n is not squarefree: the whole array the engine built
    once per call before each worker built its segments' (series._weights)."""
    weights = np.arange(limit + 1, dtype=np.float64)
    weights[0] = 1.0
    np.power(weights, -float(alpha), out=weights)
    weights[0] = 0.0
    if Model(model) is Model.F:
        weights *= squarefree_mask(table, limit)
    return weights


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


def scan_by_recurrence(
    weights: np.ndarray,
    logp: np.ndarray,
    t_start: float,
    grid_step: float,
    n_points: int,
    chunk: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """dirichlet.scan_grid_max with its cosine rows from the three-term
    recurrence cos((j+1)theta) = 2 cos(theta) cos(j theta) - cos((j-1)theta),
    theta = step log p, seeded with exact cosines at the first two grid
    points of every chunk: row-wise (max, first argmax t) by a running strict
    max over the chunks, each max recomputed exactly at its t."""
    weights = np.atleast_2d(weights)
    n_rows = weights.shape[0]
    best = np.full(n_rows, -np.inf)
    best_t = np.full(n_rows, t_start)
    two_cos_step = 2.0 * np.cos(grid_step * logp)
    buf = np.empty((min(chunk, n_points), len(logp)))
    for start in range(0, n_points, chunk):
        size = min(chunk, n_points - start)
        for row in range(size):
            if row < 2:
                np.cos((t_start + grid_step * (start + row)) * logp, out=buf[row])
            else:
                np.multiply(two_cos_step, buf[row - 1], out=buf[row])
                np.subtract(buf[row], buf[row - 2], out=buf[row])
        vals = weights @ buf[:size].T
        block_best = vals.max(axis=1)
        block_arg = vals.argmax(axis=1)
        update = block_best > best
        best[update] = block_best[update]
        best_t[update] = t_start + grid_step * (start + block_arg[update])
    for i in range(n_rows):
        best[i] = weights[i] @ np.cos(best_t[i] * logp)
    return best, best_t


#: Chebyshev points beyond the band limit omega*h of scan_by_chebyshev's
#: interpolant; at +30 its error at sigma = 0.51, P = 10^6 is near 1e-6.
MARGIN = 60
#: Grid points per barycentric block of scan_by_chebyshev.
BLOCK = 256


def interpolation_points(omega: float, half_width: float) -> int:
    """Chebyshev points of scan_by_chebyshev's interpolant on a span of
    half-width h for frequencies up to omega: ceil(omega h) + MARGIN."""
    return math.ceil(omega * half_width) + MARGIN


def _barycentric(node_values: np.ndarray, nodes: np.ndarray, grid: np.ndarray):
    """Yield the values of the interpolant through (nodes, node_values) at
    grid[start : start + BLOCK], start = 0, BLOCK, ..., by the second-form
    barycentric formula for Chebyshev points of the second kind; a grid
    point on a node takes the node's value."""
    node_weights = np.where(np.arange(nodes.size) % 2, -1.0, 1.0)
    node_weights[[0, -1]] *= 0.5
    for start in range(0, grid.size, BLOCK):
        kernel = grid[start : start + BLOCK, None] - nodes
        on_node = kernel == 0.0
        kernel[on_node] = 1.0
        kernel = node_weights / kernel
        hit = on_node.any(axis=1)
        kernel[hit] = on_node[hit]
        yield (node_values @ kernel.T) / kernel.sum(axis=1)


def scan_by_chebyshev(
    weights: np.ndarray,
    logp: np.ndarray,
    t_start: float,
    grid_step: float,
    n_points: int,
) -> tuple[np.ndarray, np.ndarray]:
    """dirichlet.scan_grid_max by one Chebyshev interpolant of the grid's
    span: S is band-limited to omega = max |log p|, so on the span of
    half-width h it is interpolated at m = interpolation_points(omega, h)
    Chebyshev points of the second kind by the barycentric formula, within

        E = min over u > 0 of 4 W e^(omega h sinh u) / (e^(m u) - e^((m-1) u))
            + (n + 4 (m + 1)) eps 2 (Lambda + 1) W

    of every exact grid value (Bernstein ellipse, Trefethen ATAP Thm 8.2;
    W = max_i sum_p |w_p|, Lambda = (2/pi) log m + 1); a grid of at most
    m + 1 points takes its exact cosine sums and the rounding term alone.
    Every grid point within 2E of its row's maximum is recomputed exactly
    as weights[i] @ np.cos(t * logp); row-wise (max, first argmax t)."""
    weights = np.atleast_2d(weights)
    grid = t_start + grid_step * np.arange(n_points, dtype=np.float64)
    half = 0.5 * grid_step * (n_points - 1)
    omega = float(np.max(np.abs(logp)))
    m = interpolation_points(omega, half)
    total = float(np.max(np.sum(np.abs(weights), axis=1)))
    lebesgue = 2.0 / math.pi * math.log(m) + 1.0
    bound = (logp.size + 4 * (m + 1)) * np.finfo(np.float64).eps * 2.0 * (lebesgue + 1.0) * total
    if n_points <= m + 1:
        values = weights @ np.cos(np.outer(grid, logp)).T
    else:
        u = np.geomspace(1e-4, 50.0, 1000)
        exponent = omega * half * np.sinh(u) - (m - 1) * u - np.log(np.expm1(u))
        bound += 4.0 * total * math.exp(float(np.min(exponent)))
        nodes = t_start + half * (1.0 - np.cos(np.pi * np.arange(m) / (m - 1)))
        node_values = weights @ np.cos(np.outer(nodes, logp)).T
        values = np.hstack(list(_barycentric(node_values, nodes, grid)))
    best = np.full(weights.shape[0], -np.inf)
    best_t = np.full(weights.shape[0], t_start)
    for i in range(weights.shape[0]):
        for j in np.flatnonzero(values[i] >= values[i].max() - 2.0 * bound):
            t = t_start + grid_step * j
            value = weights[i] @ np.cos(t * logp)
            if value > best[i]:
                best[i], best_t[i] = value, t
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


def experiment_rows(experiment: str, series: WeightedSumSeries) -> list[dict]:
    """A trial's rows of a series experiment from its whole series, as each
    experiment formed them before the engine reduced segments."""
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


def _rows(columns: dict) -> list[dict]:
    """The rows of a batch's columns, {name: entry} each, entries as Python scalars."""
    return [dict(zip(columns, row)) for row in zip(*(column.tolist() for column in columns.values()))]


def records_csv(config, table=None, trials=None) -> str:
    """trials.csv of an ExperimentConfig by the record route: one dict per
    CSV row, {"trial": i, "seed": seed of trial i, **row} in trial order,
    written by csv_text with the first record's keys as the header.

    A series experiment's rows come from each trial's whole series
    (experiment_rows of series_and_values over table; trials, if given, is
    series_and_values of each trial); harper's and divergence's from one
    sup_scans or divergence_rows call per assignment (a batch of one), taken
    apart row by row, one row per sigma.
    """
    seeds, assignments = config.trial_assignments()
    if config.experiment == "harper":
        rows = [_rows(sup_scans([a], config.sigma_grid, config.grid_step, config.prime_limit)) for a in assignments]
    elif config.experiment == "divergence":
        rows = [_rows(divergence_rows([a], config.model, config.alpha, config.sigma_grid, config.limit,
                                      config.prime_limit, config.grid_step)) for a in assignments]
    else:
        if trials is None:
            trials = [series_and_values(a, config.model, config.alpha, config.limit, table) for a in assignments]
        rows = [experiment_rows(config.experiment, series) for series, _ in trials]
    records = [{"trial": i, "seed": seeds[i], **row} for i, trial in enumerate(rows) for row in trial]
    return csv_text(records[0], [[record[c] for record in records] for c in records[0]])
