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
is band-limited to omega = log P, so the scan evaluates it exactly at about
omega h Chebyshev points of the grid's span (half-width h), interpolates the
whole grid from them, and recomputes exactly every grid point that the
interpolant's error bound cannot rule out as the maximum (Odlyzko and
Schoenhage 1988; Berrut and Trefethen 2004).  It reports the exact sum at
the first grid point where that sum is largest.
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


#: Chebyshev points beyond the band limit omega*h of scan_grid_max's
#: interpolant; at +30 its error at sigma = 0.51, P = 10^6 is near 1e-6.
MARGIN = 60
#: Points per slab of cosines over the primes, and grid points per
#: barycentric block, in scan_grid_max.
SLAB = 64
BLOCK = 256


def harper_window(sigma: float) -> float:
    """Right endpoint 2 (log(1/(sigma-1/2)))^2 of the scan window [1, T]."""
    return 2.0 * math.log(1.0 / (sigma - 0.5)) ** 2


def default_grid_step(sigma: float) -> float:
    """Default scan spacing 0.01 / log(1/(sigma-1/2))."""
    return 0.01 / math.log(1.0 / (sigma - 0.5))


def interpolation_points(omega: float, half_width: float) -> int:
    """Chebyshev points of scan_grid_max's interpolant on a span of
    half-width h for frequencies up to omega: ceil(omega h) + MARGIN."""
    return math.ceil(omega * half_width) + MARGIN


def _cosine_sums(weights: np.ndarray, logp: np.ndarray, t: np.ndarray):
    """Yield weights @ cos(outer(t[start : start + SLAB], logp)).T for
    start = 0, SLAB, ..., the cosines built in one reused slab."""
    slab = np.empty((min(SLAB, t.size), logp.size))
    for start in range(0, t.size, SLAB):
        block = slab[: min(SLAB, t.size - start)]
        np.outer(t[start : start + SLAB], logp, out=block)
        np.cos(block, out=block)
        yield weights @ block.T


def _barycentric(node_values: np.ndarray, nodes: np.ndarray, grid: np.ndarray):
    """Yield the values of the interpolant through (nodes, node_values) at
    grid[start : start + BLOCK], start = 0, BLOCK, ..., by the second-form
    barycentric formula
    for Chebyshev points of the second kind; a grid point on a node takes
    the node's value."""
    node_weights = np.where(np.arange(nodes.size) % 2, -1.0, 1.0)
    node_weights[[0, -1]] *= 0.5
    kernels = np.empty((min(BLOCK, grid.size), nodes.size))
    masks = np.empty(kernels.shape, dtype=bool)
    for start in range(0, grid.size, BLOCK):
        kernel, on_node = kernels[: grid.size - start], masks[: grid.size - start]
        np.subtract(grid[start : start + BLOCK, None], nodes, out=kernel)
        np.equal(kernel, 0.0, out=on_node)
        kernel[on_node] = 1.0
        np.divide(node_weights, kernel, out=kernel)
        hit = on_node.any(axis=1)
        kernel[hit] = on_node[hit]
        yield (node_values @ kernel.T) / kernel.sum(axis=1)


def _grid_values(weights, logp, t_start, grid_step, n_points):
    """(E, blocks): the bound E of scan_grid_max, and an iterator over its
    interpolated values at consecutive blocks of grid points, one row per
    weight row."""
    grid = t_start + grid_step * np.arange(n_points, dtype=np.float64)
    half = 0.5 * grid_step * (n_points - 1)
    omega = float(np.max(np.abs(logp)))
    m = interpolation_points(omega, half)
    total = max(float(np.sum(np.abs(row))) for row in weights)  # W, one row at a time
    lebesgue = 2.0 / math.pi * math.log(m) + 1.0
    rounding = (logp.size + 4 * (m + 1)) * np.finfo(np.float64).eps * 2.0 * (lebesgue + 1.0) * total
    if n_points <= m + 1:
        return rounding, _cosine_sums(weights, logp, grid)
    # Bernstein ellipse of parameter rho = e^u: |Im x| <= sinh u on it, so
    # |S| <= W e^(omega h sinh u) there (ATAP Thm 8.2, degree m - 1)
    u = np.geomspace(1e-4, 50.0, 1000)
    exponent = omega * half * np.sinh(u) - (m - 1) * u - np.log(np.expm1(u))
    ellipse = 4.0 * total * math.exp(float(np.min(exponent)))
    nodes = t_start + half * (1.0 - np.cos(np.pi * np.arange(m) / (m - 1)))
    node_values = np.hstack(list(_cosine_sums(weights, logp, nodes)))
    return ellipse + rounding, _barycentric(node_values, nodes, grid)


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

    S is band-limited to omega = max |log p|.  On the grid's span, of
    half-width h, it is interpolated at m = ceil(omega h) + MARGIN Chebyshev
    points of the second kind: the node values come from cosine GEMMs of
    SLAB nodes each, the grid values from the second-form barycentric
    formula, one GEMM per BLOCK grid points.  The interpolant lies within E
    of every exact grid value, where, with W = max_i sum_p |w_p|,
    n = len(logp) and Lambda = (2/pi) log m + 1 >= the nodes' Lebesgue
    constant,

        E = min over u > 0 of 4 W e^(omega h sinh u) / (e^(m u) - e^((m-1) u))
            + (n + 4 (m + 1)) eps 2 (Lambda + 1) W.

    The first term is the Bernstein-ellipse bound for degree m - 1
    (Trefethen, ATAP Thm 8.2), as |cos| <= e^(omega h sinh u) on the
    ellipse rho = e^u; the second bounds the rounding of the node GEMM, the
    barycentric step and the exact sums.  Every grid point whose
    interpolated value lies within 2E of its row's interpolated maximum is
    recomputed exactly, so E only decides how many points are.  A grid of
    at most m + 1 points is evaluated with exact cosines instead, and E is
    then the rounding term alone.
    """
    weights = np.atleast_2d(weights)
    bound, blocks = _grid_values(weights, logp, t_start, grid_step, n_points)
    # block by block, keep each point within 2E of its row's running maximum
    top = np.full(weights.shape[0], -np.inf)
    found, start = [], 0
    for values in blocks:
        np.maximum(top, values.max(axis=1), out=top)
        rows, points = np.nonzero(values >= (top - 2.0 * bound)[:, None])
        found.append((rows, points + start, values[rows, points]))
        start += values.shape[1]
    rows, points, values = (np.concatenate(parts) for parts in zip(*found))
    keep = values >= top[rows] - 2.0 * bound
    rows, points = rows[keep], points[keep]
    best = np.full(weights.shape[0], -np.inf)
    best_t = np.full(weights.shape[0], t_start)
    last = None
    # in ascending t, one cosine row per candidate point shared by its rows
    for k in np.lexsort((rows, points)):
        i, j = rows[k], points[k]
        if j != last:
            t, last = t_start + grid_step * j, j
            cosines = np.cos(t * logp)
        value = weights[i] @ cosines
        if value > best[i]:
            best[i], best_t[i] = value, t
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
    sup_value is the cosine sum at the grid point t_star, computed exactly
    there, so a certified lower bound for the true supremum at the recorded
    grid_step; halving grid_step can only increase it.  All assignments
    share one scan_grid_max call per sigma, one weight row per assignment.
    Raises ResourceError, before the sieve if it builds one, if the int8
    signs and float64 weights (9 bytes per assignment and prime) and what
    scan_grid_max allocates at the widest window (its cosine slab, node
    values and barycentric block), counted with prime_count_bound(P) and
    omega = log P, exceed the host's physical memory.
    """
    grid = check_sigma_grid(sigma_grid, grid_step)
    n_rows, n_primes = len(assignments), prime_count_bound(prime_limit)
    steps = [default_grid_step(sigma) if grid_step is None else float(grid_step) for sigma in grid]
    n_points = [int(math.floor((harper_window(sigma) - 1.0) / step)) + 1 for sigma, step in zip(grid, steps)]
    half = 0.5 * max(step * (points - 1) for step, points in zip(steps, n_points))
    m, block = interpolation_points(math.log(max(prime_limit, 2)), half), min(BLOCK, max(n_points))
    # signs and weights; the cosine slab and six arrays over the primes; per
    # row the node values (twice, while stacked), a block's two products, its
    # candidate mask and a result per sigma; the grid, the block's float
    # kernel and its bool mask, and the float64 buffers of a numpy ufunc
    more = 9 * n_rows * n_primes + 8 * (SLAB + 6) * n_primes
    more += n_rows * (16 * m + 17 * block + 256 * len(grid)) + 8 * max(n_points) + 9 * block * m
    more += 24 * np.getbufsize()
    what = f"sup scan of {n_rows} trials over the sieve to P = {prime_limit}"
    primes = primes_up_to(sieve_for(prime_limit, table, more, what), prime_limit)
    signs = np.empty((len(assignments), len(primes)), dtype=np.int8)
    for i, assignment in enumerate(assignments):
        signs[i] = prime_sign_table(assignment, primes)
    primes = primes.astype(np.float64)
    logp = np.log(primes)
    weights = np.empty(signs.shape)
    results: list[list[HarperScanResult]] = [[] for _ in range(n_rows)]
    for sigma, step, points in zip(grid, steps, n_points):
        np.multiply(signs, primes ** (-sigma), out=weights)
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
