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
which is the direction the comparison in the mellin module needs.  The scan
fills its cosine rows by the three-term (Chebyshev, Goertzel) recurrence in
t, seeded with exact cosines at the first two grid points of each 256-point
block, and reports the cosine sum recomputed exactly at the grid point it
selects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .primes import SpfTable, prime_count_bound, primes_up_to, sieve_for
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
    if not np.isfinite(s) or complex(s).real <= 0.5:
        raise DomainError(f"Euler products require a finite s with Re s > 1/2, got {s}")
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


@dataclass(frozen=True)
class HarperScanResult:
    """Largest grid value of the prime cosine sum over the t-window.

    t_star is the smallest grid point attaining the maximum; centered_value
    subtracts 2 log log(1/(sigma-1/2)), the centering under which large
    values force the absolute Mellin integral to dominate the signed one.
    """

    sigma: float
    t_star: float
    sup_value: float
    centered_value: float
    grid_step: float
    prime_limit: int


#: Grid points per block of scan_grid_max; each block's first two are
#: evaluated exactly and seed the cosine recurrence of the rest.
CHUNK = 256


def harper_window(sigma: float) -> float:
    """Right endpoint 2 (log(1/(sigma-1/2)))^2 of the scan window [1, T]."""
    return 2.0 * math.log(1.0 / (sigma - 0.5)) ** 2


def default_grid_step(sigma: float) -> float:
    """Default scan spacing 0.01 / log(1/(sigma-1/2))."""
    return 0.01 / math.log(1.0 / (sigma - 0.5))


def scan_grid_max(
    weights: np.ndarray,
    logp: np.ndarray,
    t_start: float,
    grid_step: float,
    n_points: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise maximum of sum_p w_p cos(t log p) over t = t_start + j*step.

    weights has one row per realization; returns (max values, argmax t) with
    ties broken by the smallest t (first occurrence).  Blocks of CHUNK grid
    points are evaluated in ascending t with a running strict-max reduction.

    The cosine rows come from the three-term recurrence
    cos((j+1)theta) = 2 cos(theta) cos(j theta) - cos((j-1)theta) with
    theta = step * log p, one vectorized step over the primes per grid point.
    The first two grid points of every block are seeded exactly with
    cos(t_j log p), which keeps the recurrence's rounding error near 1e-12.
    Each returned max value is recomputed exactly at its t, one dot product
    per row, so it is the cosine sum at a grid point.
    """
    weights = np.atleast_2d(weights)
    n_rows = weights.shape[0]
    best = np.full(n_rows, -np.inf)
    best_t = np.full(n_rows, t_start)
    two_cos_step = 2.0 * np.cos(grid_step * logp)
    buf = np.empty((min(CHUNK, n_points), len(logp)))
    for start in range(0, n_points, CHUNK):
        size = min(CHUNK, n_points - start)
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


def check_sigma_grid(sigma_grid, grid_step: float | None, low: float = 0.5) -> tuple[float, ...]:
    """The scan's sigma grid as floats, after checking it and the grid step.

    The grid must be nonempty and strictly decreasing, with every entry in
    (low, 0.6], where the scan window is defined; low is 1/2 or above.  A
    given grid_step must lie in (0, T - 1], T - 1 the width of the window
    [1, T] at grid[0], the narrowest: every sigma then scans 2 points or more.
    """
    if not sigma_grid:
        raise DomainError("sigma_grid must be nonempty")
    grid = tuple(float(x) for x in sigma_grid)
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise DomainError("sigma_grid must be sorted strictly decreasing")
    for sig in grid:
        if not low < sig <= 0.6:
            raise DomainError(f"sigma must lie in ({low}, 0.6], got {sig}")
    if grid_step is not None and not 0 < grid_step <= harper_window(grid[0]) - 1.0:
        raise DomainError(f"grid_step must be > 0 and at most {harper_window(grid[0]) - 1.0!r}, "
                          f"the width of the scan window at sigma = {grid[0]!r}, got {grid_step}")
    return grid


def sup_scans(
    assignments,
    sigma_grid,
    grid_step: float | None,
    prime_limit: int,
    table: SpfTable | None = None,
) -> list[list[HarperScanResult]]:
    """Grid supremum of the prime cosine sum over t in
    [1, 2 log(1/(sigma-1/2))^2] for every assignment and sigma.

    Returns one list per assignment, one result per sigma in grid order;
    every sigma must lie in (1/2, 0.6], where the window is nonempty.
    grid_step None means default_grid_step(sigma) at each sigma.  Each
    sup_value is the cosine sum at the grid point t_star, so a certified
    lower bound for the true supremum at the recorded grid_step; halving
    grid_step can only increase it, unless two grid values tie to within the
    scan's rounding (about 1e-12).  All assignments are scanned against the
    same cosine blocks, one scan_grid_max call per sigma with one weight row
    per assignment.  Raises ResourceError, before the sieve if it builds
    one, if the int8 signs and float64 weights (9 bytes per assignment and
    prime) and the block of scan_grid_max, counted with prime_count_bound(P),
    exceed the host's physical memory.
    """
    grid = check_sigma_grid(sigma_grid, grid_step)
    n_rows, n_primes = len(assignments), prime_count_bound(prime_limit)
    steps = [default_grid_step(sigma) if grid_step is None else float(grid_step) for sigma in grid]
    n_points = [int(math.floor((harper_window(sigma) - 1.0) / step)) + 1 for sigma, step in zip(grid, steps)]
    # scan_grid_max's block: CHUNK float64 cosine rows over the primes, a GEMM output row per trial
    more = 9 * n_rows * n_primes + 8 * min(CHUNK, max(n_points)) * (n_primes + n_rows)
    what = f"sup scan of {n_rows} trials over the sieve to P = {prime_limit}"
    primes = primes_up_to(sieve_for(prime_limit, table, more, what), prime_limit)
    signs = np.empty((len(assignments), len(primes)), dtype=np.int8)
    for i, assignment in enumerate(assignments):
        signs[i] = prime_sign_table(assignment, primes)
    primes = primes.astype(np.float64)
    logp = np.log(primes)
    results: list[list[HarperScanResult]] = [[] for _ in assignments]
    for sigma, step, points in zip(grid, steps, n_points):
        weights = signs * primes ** (-sigma)
        sup_vals, t_stars = scan_grid_max(weights, logp, 1.0, step, points)
        centered = sup_vals - 2.0 * math.log(math.log(1.0 / (sigma - 0.5)))
        for i, row in enumerate(results):
            row.append(
                HarperScanResult(
                    sigma=sigma,
                    t_star=float(t_stars[i]),
                    sup_value=float(sup_vals[i]),
                    centered_value=float(centered[i]),
                    grid_step=step,
                    prime_limit=prime_limit,
                )
            )
    return results
