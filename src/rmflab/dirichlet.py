"""Zeta values, truncated random Euler products, and prime cosine sums.

The Dirichlet series of f and fstar factor over primes for Re s > 1/2 as

    F(s)     = prod_p (1 + f(p)/p^s),
    Fstar(s) = prod_p (1 - f(p)/p^s)^(-1),

and taking logarithms factorwise gives the exponential formulas

    log F(s)     = sum_p f(p)/p^s - (1/2) log zeta(2s) + bounded term,
    log Fstar(s) = sum_p f(p)/p^s + (1/2) log zeta(2s) + bounded term.

One rule gives both, with e = +1 for f and -1 for fstar: the factor
(1 + e f(p)/p^s)^e, whose log is e log(1 + e f(p)/p^s), and -(e/2) log zeta(2s).

Everything here replaces the infinite products/sums by truncations at a
prime limit P; callers must carry P in their outputs, and each product
reports |last factor - 1| as a Cauchy-style convergence diagnostic.

The sup statistic scans t over the window [1, 2 (log(1/(sigma-1/2)))^2] for
the largest value of sum_p f(p) cos(t log p) / p^sigma on a uniform grid.
A uniform grid with recorded step gives a certified lower bound on the sup,
which is the direction the comparison in the mellin module needs.  The sum
is entire of exponential type omega = log P and bounded, so it is fixed by
its samples on a lattice spaced below the Nyquist spacing pi/omega.  The
scan computes the sum on such a lattice, its cosines by the three-term
recurrence with exact reseeds, filters the grid from the lattice with a
Gaussian-regularized sinc (Qian, Proc. AMS 131 (2003); Schmeisser and
Stenger, Sampl. Theory Signal Image Process. 6 (2007)), and recomputes
exactly every grid point that the filter's error bound cannot rule out as
the maximum.  It reports the exact sum at the first grid point where that
sum is largest.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .primes import SpfTable, prime_count_bound, primes_up_to, sieve_for, threads_that_fit
from .series import map_ordered, split_runs
from .signs import SignAssignment, prime_sign_table

# ---------------------------------------------------------------------------
# Riemann zeta via Euler-Maclaurin
# ---------------------------------------------------------------------------

_EM_TERMS = 14


def _bernoulli_over_factorial(k_max: int) -> list[float]:
    """B_{2k}/(2k)! for k = 1..k_max, computed exactly then rounded once."""
    m_max = 2 * k_max
    bern = [Fraction(0)] * (m_max + 1)
    bern[0] = Fraction(1)
    for m in range(1, m_max + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += Fraction(math.comb(m + 1, j)) * bern[j]
        bern[m] = -acc / (m + 1)
    return [float(bern[2 * k] / Fraction(math.factorial(2 * k))) for k in range(1, k_max + 1)]


_B2K_OVER_FACT = _bernoulli_over_factorial(_EM_TERMS)


def zeta(s: complex) -> complex:
    """zeta(s) for finite s with Re s > 0, s != 1, by Euler-Maclaurin summation.

    sum_{n<N} n^-s  +  N^(1-s)/(s-1)  +  N^-s/2  +  Bernoulli corrections,
    with N growing linearly in |Im s|.  Absolute error is below 1e-10
    throughout Re s >= 0.5 + 1e-3, |Im s| <= 100 (the rectangle the rest of
    the package uses), with large margin.
    """
    s = complex(s)
    if s == 1:
        raise DomainError("zeta has a pole at s = 1")
    if not np.isfinite(s) or s.real <= 0.0:
        raise DomainError(f"zeta evaluation requires a finite s with Re s > 0, got {s}")
    n_cut = 48 + int(math.ceil(abs(s.imag) / 2.0))
    n = np.arange(1, n_cut, dtype=np.float64)
    value = complex(np.sum(n ** (-s)))
    value += n_cut ** (1 - s) / (s - 1) + 0.5 * n_cut ** (-s)
    poch = s
    scale = n_cut ** (-s - 1)
    for k in range(_EM_TERMS):
        value += _B2K_OVER_FACT[k] * poch * scale
        poch *= (s + 2 * k + 1) * (s + 2 * k + 2)
        scale /= n_cut * n_cut
    return value


# ---------------------------------------------------------------------------
# Truncated Euler products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EulerProduct:
    """A truncated Euler product value with its convergence diagnostic."""

    value: complex
    last_factor_deviation: float
    prime_limit: int


def _product_factors(
    assignment: SignAssignment,
    s: complex,
    prime_limit: int,
    table: SpfTable | None,
) -> np.ndarray:
    if not np.isfinite(s) or complex(s).real <= 0.5 or not math.isfinite(abs(s) * math.log(max(prime_limit, 2))):
        raise DomainError(f"Euler products require a finite s with Re s > 1/2 and |s| log P finite, got {s}")
    primes = primes_up_to(sieve_for(prime_limit, table, 0, f"the sieve to P = {prime_limit}"), prime_limit)
    signs = prime_sign_table(assignment, primes)
    return signs.astype(np.float64) * np.exp(-complex(s) * np.log(primes.astype(np.float64)))


#: The exponent e of each model's Euler factor (1 + e f(p)/p^s)^e.
_EXPONENT = {"f": 1, "fstar": -1}


def _euler_product(assignment, s, prime_limit, table, e: int) -> EulerProduct:
    """prod_{p <= prime_limit} (1 + e f(p)/p^s)^e, factors multiplied in
    ascending p: F at e = +1, Fstar at e = -1."""
    factors = 1.0 + e * _product_factors(assignment, s, prime_limit, table)
    if e < 0:  # by division: np.reciprocal rounds differently, np.power is slower
        factors = 1.0 / factors
    value = complex(np.multiply.accumulate(factors)[-1])
    return EulerProduct(
        value=value,
        last_factor_deviation=float(abs(factors[-1] - 1.0)),
        prime_limit=prime_limit,
    )


def euler_product_F(
    assignment: SignAssignment,
    s: complex,
    prime_limit: int,
    table: SpfTable | None = None,
) -> EulerProduct:
    """prod_{p <= prime_limit} (1 + f(p)/p^s), factors multiplied in
    ascending p."""
    return _euler_product(assignment, s, prime_limit, table, _EXPONENT["f"])


def euler_product_F_star(
    assignment: SignAssignment,
    s: complex,
    prime_limit: int,
    table: SpfTable | None = None,
) -> EulerProduct:
    """prod_{p <= prime_limit} (1 - f(p)/p^s)^(-1), ascending p.

    Each factor needs |f(p)/p^s| < 1, which holds automatically for p >= 2
    and Re s > 1/2.
    """
    return _euler_product(assignment, s, prime_limit, table, _EXPONENT["fstar"])


# ---------------------------------------------------------------------------
# Exponential formula residual
# ---------------------------------------------------------------------------


def exponential_formula_check(
    assignment: SignAssignment,
    s: complex,
    prime_limit: int,
    model: str,
    table: SpfTable | None = None,
) -> float:
    """|log of the truncated product - (sum_p f(p)p^-s -/+ (1/2) log zeta(2s))|.

    The minus sign applies to model 'f', the plus sign to model 'fstar'.
    Logs are principal, taken factor by factor; the residual realizes the
    bounded analytic term of the exponential formulas numerically and stays
    <= 2 over the package's validation grid (Re s >= 0.51).
    """
    s = complex(s)
    if s.real < 0.51:
        raise DomainError(f"exponential formula check requires Re s >= 0.51, got {s}")
    if prime_limit < 10**3:
        raise DomainError(f"prime_limit must be >= 10^3, got {prime_limit}")
    e = _EXPONENT.get(getattr(model, "value", model))
    if e is None:
        raise DomainError(f"model must be 'f' or 'fstar', got {model!r}")
    x = _product_factors(assignment, s, prime_limit, table)
    log_product = e * complex(np.cumsum(np.log(1.0 + e * x))[-1])
    half_log_zeta = -(e / 2) * np.log(complex(zeta(2 * s)))
    prime_sum = complex(np.cumsum(x)[-1])
    return float(abs(log_product - (prime_sum + half_log_zeta)))


# ---------------------------------------------------------------------------
# Sup statistic over the t-window
# ---------------------------------------------------------------------------


#: scan_grid_max samples S on a lattice OVERSAMPLE times finer than its
#: Nyquist spacing pi/omega, filters each grid point from the 2 TAPS lattice
#: sums around it, and computes the first two of every RESEED lattice rows
#: of cosines by np.cos, the others by the three-term recurrence.
OVERSAMPLE = 1.5
TAPS = 36
RESEED = 64
#: Rows per GEMM of cosines in a reseed period's ring (RESEED is a multiple),
#: and grid points and weight rows per block of filtered values, in scan_grid_max.
SLAB = 32
BLOCK_POINTS = 1024
BLOCK_ROWS = 64


def harper_window(sigma: float) -> float:
    """Right endpoint 2 (log(1/(sigma-1/2)))^2 of the scan window [1, T]."""
    return 2.0 * math.log(1.0 / (sigma - 0.5)) ** 2


def default_grid_step(sigma: float) -> float:
    """Default scan spacing 0.01 / log(1/(sigma-1/2))."""
    return 0.01 / math.log(1.0 / (sigma - 0.5))


def lattice(omega: float, grid_step: float, n_points: int) -> tuple[int, int]:
    """(q, rows): scan_grid_max's lattice for frequencies up to omega on a
    grid of n_points spaced grid_step.

    q grid points fill each lattice cell, at most n_points and BLOCK_POINTS,
    and at most pi / (OVERSAMPLE omega grid_step), so the lattice spacing q
    grid_step is at most pi / (OVERSAMPLE omega); the grid needs
    (n_points - 1) // q + 2 TAPS lattice rows.  A grid of no more points
    than that gets (0, n_points): it is evaluated exactly.
    """
    q = min(n_points, BLOCK_POINTS)
    if OVERSAMPLE * omega * grid_step * q > math.pi:
        q = math.floor(math.pi / (OVERSAMPLE * omega * grid_step))
    rows = (n_points - 1) // q + 2 * TAPS if q else n_points
    return (q, rows) if rows < n_points else (0, n_points)


def _cosine_sums(weights: np.ndarray, logp: np.ndarray, t_start: float, spacing: float, count: int,
                 reseed: int) -> np.ndarray:
    """weights @ cos(outer(t, logp)).T at t = t_start + spacing * i for
    i < count, one GEMM per SLAB rows of cosines in one ring: a row with
    i % reseed < 2 by np.cos, the others by the recurrence
    cos(x + theta) = 2 cos(theta) cos(x) - cos(x - theta), theta = spacing log p."""
    sums = np.empty((weights.shape[0], count))
    two_cos = np.multiply(spacing, logp)
    np.cos(two_cos, out=two_cos)
    two_cos *= 2.0
    ring = np.empty((min(SLAB, count), logp.size))
    for start in range(0, count, SLAB):
        stop = min(start + SLAB, count)
        for i in range(start, stop):
            row = ring[i % SLAB]
            if i % reseed < 2:
                np.multiply(t_start + spacing * i, logp, out=row)
                np.cos(row, out=row)
            else:
                np.multiply(two_cos, ring[(i - 1) % SLAB], out=row)
                np.subtract(row, ring[(i - 2) % SLAB], out=row)
        np.matmul(weights, ring[: stop - start].T, out=sums[:, start:stop])
    return sums


def _taps(q: int, alpha: float) -> np.ndarray:
    """The q x 2 TAPS filter: row r holds g(r/q - n) for the lattice offsets
    n = 1 - TAPS, ..., TAPS, where g(x) = sinc(x) exp(-alpha x^2 / TAPS)."""
    x = np.arange(q)[:, None] / q - np.arange(1 - TAPS, TAPS + 1)
    return np.sinc(x) * np.exp(-alpha / TAPS * x * x)


def _tone_bound(alpha: float) -> float:
    """2 e^(-alpha N) / sqrt(pi alpha N) (1 + 2 / sqrt(pi alpha N)), N = TAPS:
    the filter's error on a tone e^(i nu x) of frequency |nu| <= pi - 2 alpha
    sampled at the integers."""
    root = math.sqrt(math.pi * alpha * TAPS)
    return 2.0 * math.exp(-alpha * TAPS) / root * (1.0 + 2.0 / root)


def _filtered(sums: np.ndarray, taps: np.ndarray, n_points: int):
    """Yield (first row, first point, values): the filter's values at the
    grid points from the lattice sums, BLOCK_ROWS weight rows and
    BLOCK_POINTS // q whole cells at a time, each block in the buffer of the
    last: the window of 2 TAPS sums starting at cell k times the taps gives
    cell k's q points."""
    q = taps.shape[0]
    windows = np.lib.stride_tricks.sliding_window_view(sums, 2 * TAPS, axis=1)
    height, cells = min(BLOCK_ROWS, sums.shape[0]), min(BLOCK_POINTS // q, windows.shape[1])
    window, values = np.empty(height * cells * 2 * TAPS), np.empty(height * cells * q)
    for row in range(0, sums.shape[0] or 1, BLOCK_ROWS):  # one empty block without rows
        rows = min(height, sums.shape[0] - row)
        for first in range(0, windows.shape[1], cells):
            size = min(cells, windows.shape[1] - first)
            block = window[: rows * size * 2 * TAPS].reshape(rows, size, 2 * TAPS)
            np.copyto(block, windows[row : row + rows, first : first + size])
            out = values[: rows * size * q].reshape(rows * size, q)
            np.matmul(block.reshape(rows * size, 2 * TAPS), taps.T, out=out)
            yield row, first * q, out.reshape(rows, size * q)[:, : n_points - first * q]


def _grid_values(weights, logp, t_start, grid_step, n_points):
    """(E, blocks): the bound E of scan_grid_max, and an iterator over the
    values it compares, (first row, first point, values) per block of
    weight rows and consecutive grid points."""
    omega = float(np.max(np.abs(logp)))
    q, rows = lattice(omega, grid_step, n_points)
    total = max((float(np.sum(np.abs(row))) for row in weights), default=0.0)  # W, one row at a time
    eps = float(np.finfo(np.float64).eps)
    if not q:
        reach = max(abs(t_start), abs(t_start + grid_step * (n_points - 1)))
        rounding = 2.0 * eps * total * (logp.size + 4.0 * (1.0 + omega * reach))
        return rounding, [(0, 0, _cosine_sums(weights, logp, t_start, grid_step, n_points, 1))]
    spacing = q * grid_step
    alpha = 0.5 * (math.pi - omega * spacing)
    t_first = t_start - (TAPS - 1) * spacing
    reach = max(abs(t_first), abs(t_first + spacing * (rows - 1)))
    taps = _taps(q, alpha)
    lebesgue = float(np.max(np.sum(np.abs(taps), axis=1)))
    rounding = eps * total * (lebesgue + 1.0) * (
        logp.size + 2 * TAPS + 2 * RESEED**2 + 4 * RESEED * (1.0 + omega * reach))
    sums = _cosine_sums(weights, logp, t_first, spacing, rows, RESEED)
    return total * _tone_bound(alpha) + rounding, _filtered(sums, taps, n_points)


def scan_grid_max(
    weights: np.ndarray,
    logp: np.ndarray,
    t_start: float,
    grid_step: float,
    n_points: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise maximum of S(t) = sum_p w_p cos(t log p) over t = t_start + j*step.

    weights has one row per realization; returns (max values, argmax t):
    the largest exact sum weights[i] @ np.cos(t * logp) over the grid, and
    the smallest grid t that attains it.

    S is entire of exponential type omega = max |log p| and bounded by
    W = max_i sum_p |w_p|.  Its sums at the lattice u_i = t_start +
    (i - N + 1) Delta, N = TAPS, with the spacing Delta = q step of
    lattice(omega, step, n_points), come from cosine GEMMs of SLAB rows
    each: the first two of every RESEED rows by np.cos, the others by the
    three-term recurrence.  The grid point t_start + (k + r/q) Delta gets
    sum over n = 1 - N..N of S(u_(k+n+N-1)) g(r/q - n), one GEMM per block
    of cells, with the Gaussian-regularized sinc g(x) = sinc(x)
    exp(-alpha x^2 / N), alpha = (pi - omega Delta) / 2 (Qian 2003;
    Schmeisser and Stenger 2007).  Those values lie within E of every exact
    grid value, where, with n = len(logp), Lambda = max_r sum_n |g(r/q - n)|
    and T the largest |u_i|,

        E = W 2 e^(-alpha N) / sqrt(pi alpha N) (1 + 2 / sqrt(pi alpha N))
            + eps W (Lambda + 1) (n + 2 N + 2 RESEED^2 + 4 RESEED (1 + omega T)).

    The first term bounds the filter's error on each tone cos(t log p); the
    second the rounding of the recurrence (quadratic in the rows since a
    reseed, linear in the phases' rounding), the lattice GEMM, the taps and
    the exact sums.  Every grid point whose value lies within 2E of its
    row's maximum is recomputed exactly, so E only decides how many points
    are: by bands of BLOCK_ROWS rows as each closes, one np.cos row and one
    dot product per candidate, folded in ascending t per row.  A grid of no
    more points than lattice rows is evaluated with exact cosines instead,
    and E is then 2 eps W (n + 4 (1 + omega T)).  It runs on the calling
    thread.
    """
    weights = np.atleast_2d(weights)
    bound, blocks = _grid_values(weights, logp, t_start, grid_step, n_points)
    top, best, best_t = (np.full(weights.shape[0], fill) for fill in (-np.inf, -np.inf, t_start))

    for first, band in itertools.groupby(blocks, key=lambda block: block[0]):
        # block by block, keep each point within 2E of its row's running maximum
        parts = []
        for _first, start, values in band:
            running = top[first : first + values.shape[0]]
            np.maximum(running, values.max(axis=1), out=running)
            rows, points = np.nonzero(values >= (running - 2.0 * bound)[:, None])
            parts.append((rows + first, points + start, values[rows, points]))
        # the maxima of the band's rows are final: recompute its points within
        # 2E of them, folded in the blocks' order, ascending t in each row, so
        # the first grid point of a row's maximum wins
        rows, points, values = (np.concatenate(arrays) for arrays in zip(*parts))
        keep = values >= top[rows] - 2.0 * bound
        for i, t in zip(rows[keep], t_start + grid_step * points[keep]):
            value = weights[i] @ np.cos(t * logp)
            if value > best[i]:
                best[i], best_t[i] = value, t
    return best, best_t


def check_sigma_grid(sigma_grid, grid_step: float | None, low: float = 0.5) -> tuple[float, ...]:
    """The scan's sigma grid as floats, after checking it and the grid step.

    The grid must be nonempty and strictly decreasing, with every entry in
    (low, 0.6], where the scan window is defined; low is 1/2 or above.  A
    given grid_step must lie in (0, T - 1], T - 1 the width of the window
    [1, T] at grid[0], the narrowest: every sigma then scans 2 points or
    more; and it must put fewer than 2^63 points, an index, in the widest.
    """
    grid = tuple(float(x) for x in sigma_grid)
    if not grid:
        raise DomainError("sigma_grid must be nonempty")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise DomainError("sigma_grid must be sorted strictly decreasing")
    for sig in grid:
        if not low < sig <= 0.6:
            raise DomainError(f"sigma must lie in ({low}, 0.6], got {sig}")
    if grid_step is not None and not 0 < grid_step <= harper_window(grid[0]) - 1.0:
        raise DomainError(f"grid_step must be > 0 and at most {harper_window(grid[0]) - 1.0!r}, "
                          f"the width of the scan window at sigma = {grid[0]!r}, got {grid_step}")
    if grid_step is not None and not (harper_window(grid[-1]) - 1.0) / grid_step < 2**63:
        raise DomainError(f"grid_step {grid_step!r} puts 2^63 or more points in the window at sigma = {grid[-1]!r}")
    return grid


def _scan_grids(sigma_grid, grid_step: float | None) -> list[tuple[float, float, int]]:
    """(sigma, step, n_points) of each sigma's scan: the grid t = 1 + step j
    over the window [1, harper_window(sigma)], step default_grid_step(sigma)
    if grid_step is None."""
    grids = []
    for sigma in sigma_grid:
        step = default_grid_step(sigma) if grid_step is None else float(grid_step)
        grids.append((sigma, step, int(math.floor((harper_window(sigma) - 1.0) / step)) + 1))
    return grids


def scan_bytes(n_rows: int, sigma_grid, grid_step: float | None, prime_limit: int, threads: int = 1) -> int:
    """The bytes that sup_scans of n_rows assignments on `threads` threads
    allocates besides its sieve, counted before the sieve with
    prime_count_bound(P) primes and omega = log P (no larger q, no fewer
    lattice rows than the scan's).

    Throughout: six float64 arrays over the primes, 48 bytes per row and
    sigma (its six 8-byte columns), and the float64 buffers of a numpy
    ufunc.  Then, for each run of sigmas that sup_scans scans at once, one
    per thread, its float64 weight matrix and the most that one of its
    sigmas holds besides: per row the lattice's or exact grid's sums, and
    the largest of the cosines (2 cos(theta) and a ring, whose GEMMs write
    into the sums), the taps' temporaries, and the filter (the taps; per
    row of a band of BLOCK_ROWS its windows of sums, its values and its
    candidate mask; over an exact grid, one mask) with one band's recheck:
    the phases and the cosines of one grid point over the primes, 512 bytes
    of array headers per block, and 128 bytes per candidate (its row, point,
    value, t and result), counted at one per row and block; a row's
    near-ties within 2E beyond that are held uncounted.
    """
    n_primes, omega = prime_count_bound(prime_limit), math.log(max(prime_limit, 2))
    held = []  # each sigma's bytes besides its weights
    for _sigma, step, points in _scan_grids(sigma_grid, grid_step):
        q, rows = lattice(omega, step, points)
        phase = 8 * (min(SLAB, rows) + 1) * n_primes
        if q:
            cells = BLOCK_POINTS // q
            band, blocks = min(n_rows, BLOCK_ROWS), -(-(rows - 2 * TAPS + 1) // cells)
            filtering = band * (9 * cells * q + 16 * TAPS * cells) + 16 * TAPS * q
            phase = max(phase, 96 * TAPS * (q + 1))
        else:
            band, blocks, filtering = n_rows, 1, n_rows * rows
        held.append(8 * n_rows * rows + max(phase, filtering + 16 * n_primes + blocks * (512 + 128 * band)))
    runs = split_runs(threads, len(held))
    more = 48 * n_primes + 48 * n_rows * len(held) + 24 * np.getbufsize()
    return more + sum(8 * n_rows * n_primes + max(held[k] for k in run) for run in runs)


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS this process has
    loaded, found once in /proc/self/maps; None if there is none.  The scan
    holds it at one thread: after a threaded call its threads spin on the
    cores the run's own threads use, and a dot split over threads rounds
    apart."""
    try:
        with open("/proc/self/maps") as maps:
            libs = [ctypes.CDLL(path) for path in sorted({line.split(maxsplit=5)[5].strip()
                                                          for line in maps if "openblas" in line})]
    except OSError:
        return None
    for name, lib in itertools.product(("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"), libs):
        get, set_ = (getattr(lib, name.format(op), None) for op in ("get", "set"))
        if get and set_:
            get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
            return get, set_
    return None


def sup_scans(
    assignments,
    sigma_grid,
    grid_step: float | None,
    prime_limit: int,
    table: SpfTable | None = None,
    *,
    threads: int = 1,
) -> dict[str, np.ndarray]:
    """Grid supremum of the prime cosine sum over t in
    [1, 2 log(1/(sigma-1/2))^2] for every assignment and sigma.

    Returns the columns sigma, t_star, sup_value, centered_value, grid_step
    and prime_limit (int64), {name: numpy array}, row i len(grid) + k being
    assignment i at the k-th sigma; every sigma must lie in (1/2, 0.6],
    where the window is nonempty.  grid_step None means
    default_grid_step(sigma) at each sigma.  t_star is the smallest grid
    point attaining the maximum, and sup_value the cosine sum there,
    computed exactly, so a certified lower bound for the true supremum at
    the recorded grid_step; halving grid_step can only increase it.
    centered_value subtracts 2 log log(1/(sigma-1/2)), the centering under
    which large values force the absolute Mellin integral to dominate the
    signed one.  All assignments share one scan_grid_max call per sigma, one
    weight row per assignment, whose two result arrays fill the columns.
    The sigmas are split into the runs of split_runs(threads, len(grid)),
    one run per worker thread with its own weight matrix, each sigma
    scanned whole on its run's thread, with the loaded OpenBLAS held at one
    thread, so the columns depend on neither count.
    Without a table, it scans on the most threads, up to `threads`, at
    which scan_bytes (per concurrent sigma the weights, the cosine ring, the
    lattice sums and the filter's blocks; the columns) and the sieve fit in
    the host's physical memory, and raises ResourceError before it builds
    its sieve if they do not fit on one; a caller that passes a table has
    counted scan_bytes itself.
    """
    grid = check_sigma_grid(sigma_grid, grid_step)
    n_rows = len(assignments)
    if table is None:
        threads = threads_that_fit(prime_limit, min(threads, len(grid)),
                                   lambda t: scan_bytes(n_rows, grid, grid_step, prime_limit, t))
    more = 0 if table is not None else scan_bytes(n_rows, grid, grid_step, prime_limit, threads)
    what = f"sup scan of {n_rows} trials over the sieve to P = {prime_limit}"
    primes = primes_up_to(sieve_for(prime_limit, table, more, what), prime_limit)
    weights = np.empty((n_rows, len(primes)))  # the signs, then each sigma's weights
    for i, assignment in enumerate(assignments):
        weights[i] = prime_sign_table(assignment, primes)
    runs = split_runs(threads, len(grid))
    matrices = [weights] + [weights.copy() for _run in runs[1:]]
    primes = primes.astype(np.float64)
    logp = np.log(primes)
    grids = _scan_grids(grid, grid_step)
    t_star, sup_value = (np.empty((n_rows, len(grid))) for _ in range(2))

    def scan(run) -> None:  # (its weight matrix, a run of the sigmas' indices)
        weights, sigmas = run
        for j in sigmas:
            sigma, step, points = grids[j]
            np.copysign(primes ** (-sigma), weights, out=weights)
            sup_value[:, j], t_star[:, j] = scan_grid_max(weights, logp, 1.0, step, points)

    get, set_ = _openblas() or (lambda: None, lambda count: None)
    before = get()
    set_(1)
    try:
        map_ordered(scan, list(zip(matrices, runs)), threads)
    finally:
        set_(before)
    centering = [2.0 * math.log(math.log(1.0 / (sigma - 0.5))) for sigma in grid]
    return {
        "sigma": np.tile(grid, n_rows),
        "t_star": t_star.ravel(),
        "sup_value": sup_value.ravel(),
        "centered_value": (sup_value - centering).ravel(),
        "grid_step": np.tile([step for _sigma, step, _points in grids], n_rows),
        "prime_limit": np.full(n_rows * len(grid), prime_limit, dtype=np.int64),
    }
