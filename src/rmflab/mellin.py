"""Exact Mellin-type integrals of the step function M_alpha.

Because M_alpha is constant on each [n, n+1), the integral

    (s - alpha) * integral_1^N M_alpha(x) x^-(s+1-alpha) dx

collapses to the finite sum  sum_{n=1}^{N-1} M_alpha(n) (n^-(s-alpha) -
(n+1)^-(s-alpha)): every interval integral has a closed form, so there is no
quadrature error, only rounding.  Partial summation then makes the truncation
exact:

    sum_{n<=N} g(n) n^-s  =  (that sum)  +  M_alpha(N) N^-(s-alpha),

an algebraic identity whose numerical residual is pure rounding.  The
absolute-value companion integral uses the same per-interval weights against
|M_alpha(n)| and is reported without the (s-alpha) prefactor.

The infinite upper limit is never extrapolated: truncation at N plus the
exact boundary term is the whole story at desk scale, and the comparison
table tracks how the signed and absolute integrals separate as sigma
decreases toward 1/2.  truncated_identity_sides and divergence_rows each
build their own sieve, after sizing their run in the one memory check of
primes.sieve_for.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import DomainError
from .primes import sieve_for, threads_that_fit
from .series import Model, WeightedSumSeries, WholeSeries, check_run, engine_bytes, map_ordered, stream_trials
from .signs import SignAssignment
from . import dirichlet


def _kernel(limit: int, exponent: complex, times_exponent: bool = False) -> np.ndarray:
    """The integrals of x^-(e+1) over [n, n+1) for n = 1..N-1, in closed form
    (n^-e - (n+1)^-e) / e; with times_exponent, e times them, which skips
    the division: the weights of (s - alpha) * integral at e = s - alpha."""
    n = np.arange(1, limit + 1, dtype=np.float64)
    powers = n ** (-exponent)
    weights = powers[:-1] - powers[1:]
    return weights if times_exponent else weights / exponent


def _convergent(s: complex, alpha: float, name: str, limit: int) -> None:
    """DomainError unless s is finite, so is |s - alpha| log(limit), which
    bounds the exponent of n^-(s - alpha) for n <= limit, and the real part
    of s, called `name` in the message, exceeds alpha, where each interval
    integral is finite."""
    if not np.isfinite(s) or not math.isfinite(abs(s - alpha) * math.log(max(limit, 1))):
        raise DomainError(f"s must be finite, with |s - alpha| log N finite, got {s}")
    if s.real <= alpha:
        raise DomainError(f"divergent kernel: need {name} > alpha, got {name} = {s.real}, alpha = {alpha}")


def mellin_step_integral(series: WeightedSumSeries, s: complex) -> complex:
    """(s - alpha) * integral_1^N M_alpha(x) x^-(s+1-alpha) dx, exactly.

    Requires Re s > alpha so each closed-form interval integral is finite.
    """
    s = complex(s)
    _convergent(s, series.alpha, "Re s", series.limit)
    w = _kernel(series.limit, s - series.alpha, times_exponent=True)
    return complex(np.sum(series.values[1 : series.limit] * w))


def boundary_term(series: WeightedSumSeries, s: complex) -> complex:
    """M_alpha(N) N^-(s-alpha), the exact partial-summation boundary term."""
    s = complex(s)
    n = float(series.limit)
    return complex(series.values[series.limit] * n ** (-(s - series.alpha)))


def signed_and_absolute_integrals(
    series: WeightedSumSeries, sigma: float, kernel: np.ndarray | None = None
) -> tuple[float, float]:
    """(integral of M_alpha, integral of |M_alpha|) against x^-(sigma+1-alpha).

    Both are reported without the (sigma - alpha) prefactor and are summed
    over the identical per-interval products, so absolute >= |signed| holds
    exactly in floating point (rounding is monotone), not just up to error.
    kernel, if given, is _kernel(series.limit, sigma - series.alpha), which
    depends on no seed, so a run computes it once per sigma.  The products
    take one temporary, 8 bytes per n, made absolute in place once summed.
    """
    sigma = float(sigma)
    _convergent(complex(sigma), series.alpha, "sigma", series.limit)
    if kernel is None:
        kernel = _kernel(series.limit, sigma - series.alpha)
    v = series.values[1 : series.limit] * kernel
    signed = float(np.sum(v))
    return signed, float(np.sum(np.abs(v, out=v)))


def truncated_identity_sides(
    assignment: SignAssignment,
    model: Model | str,
    alpha: float,
    s: complex,
    limit: int,
) -> tuple[complex, complex]:
    """(sum_{n<=N} g(n) n^-s, signed integral + boundary term).

    An algebraic identity for the truncation makes the two sides equal, so
    their difference is pure rounding, below 1e-9 relative to |sum| + 1 at
    desk scale.  One engine pass gives the series and g = np.sign of its
    signed weights.  After the arguments, the one memory check counts the
    engine and the 56 bytes per n held after it: the series and g, then n,
    n^-s and their product (the peak RSS of `mellin-check` grows by 51 bytes
    per n).
    """
    s = complex(s)
    model = check_run(model, alpha, limit)
    _convergent(s, alpha, "Re s", limit)

    def series_and_g(series: WeightedSumSeries, weights: np.ndarray):
        return series, np.sign(weights[1:])

    more = engine_bytes(limit, 1, 1, limit) + 56 * (limit + 1)
    table = sieve_for(max(limit, 2), None, more, f"the {model.value} series at N = {limit}")
    reducer = partial(WholeSeries, model, alpha, series_and_g)
    series, g = stream_trials(model, alpha, limit, [assignment], reducer, 1, limit, table)[0]
    integral_side = mellin_step_integral(series, s) + boundary_term(series, s)
    n = np.arange(1, limit + 1, dtype=np.float64)
    return complex(np.sum(g * n ** (-s))), integral_side


def divergence_rows(
    assignments,
    model: Model | str,
    alpha: float,
    sigma_grid,
    limit: int,
    prime_limit: int,
    grid_step: float | None = None,
    threads: int = 1,
) -> dict[str, np.ndarray]:
    """The signed vs absolute comparison table of each assignment at each
    sigma of the strictly decreasing grid in (max(alpha, 1/2), 0.6].

    Returns the columns sigma, signed, absolute, harper_witness, N and
    prime_limit (both int64), {name: numpy array}, row i len(grid) + k being
    assignment i at the k-th sigma.  signed and absolute are the integrals
    of M_alpha and |M_alpha| without prefactor
    (signed_and_absolute_integrals); the witness is |G(sigma + i t*)| / t*
    for the model's truncated Euler product G, with t* from the sup scan at
    the same prime_limit.  Each assignment is used across the whole grid:
    mixing realizations across sigma would destroy the phenomenon being
    compared.

    It runs on the most threads, up to `threads`, at which its one memory
    check passes, as the columns do not depend on the count; on one thread
    too much raises ResourceError.  The sieve first checks the engine (one
    segment of N), 8 bytes per n of
    each sigma's kernel and of the integrand of each trial that runs at
    once (signed_and_absolute_integrals), the sup scan
    (dirichlet.scan_bytes), which then runs once for all assignments, and
    what is held here: 176 bytes per assignment for the array of its
    integrals that the engine returns (tracemalloc: 169 with the
    temporaries of stacking them), and 48 per row for the integrals
    stacked, the witness and three columns.  The
    engine builds each whole series (one segment: np.sum adds pairwise, so
    the integrals cannot be summed per segment) on up to `threads` threads
    and integrates it against each sigma's kernel, computed once per run.
    The sup scan scans up to `threads` sigmas at once, each whole on one
    thread, and then the witness products at each assignment's t* for each
    sigma take the same threads by runs of assignments.
    """
    model = check_run(model, alpha, limit)
    grid = dirichlet.check_sigma_grid(sigma_grid, grid_step, low=max(alpha, 0.5))
    shape = (len(assignments), len(grid))

    def ask(threads: int) -> int:
        per_n = 8 * (limit + 1) * (len(grid) + min(threads, shape[0]))
        scan = dirichlet.scan_bytes(shape[0], grid, grid_step, prime_limit, threads)
        return engine_bytes(limit, shape[0], threads, limit) + per_n + scan + (176 + 48 * len(grid)) * shape[0]

    sieve, what = max(limit, prime_limit, 2), f"divergence at N = {limit}, P = {prime_limit}"
    threads = threads_that_fit(sieve, min(threads, max(shape)), ask, what)
    table = sieve_for(sieve, None, ask(threads), what)

    scans = dirichlet.sup_scans(assignments, grid, grid_step, prime_limit, table, threads=threads)
    kernels = [_kernel(limit, sig - alpha) for sig in grid]

    def integrals(series: WeightedSumSeries, _weights) -> np.ndarray:
        return np.array([signed_and_absolute_integrals(series, sig, k) for sig, k in zip(grid, kernels)])

    reducer = partial(WholeSeries, model, alpha, integrals)
    pairs = np.array(stream_trials(model, alpha, limit, assignments, reducer, threads, limit, table))
    pairs = pairs.reshape(*shape, 2)
    product = dirichlet.euler_product_F if model is Model.F else dirichlet.euler_product_F_star
    t_star = scans["t_star"].reshape(shape)

    def witnesses(i: int) -> list[float]:
        return [float(abs(product(assignments[i], complex(sigma, t), prime_limit, table).value)) / t
                for sigma, t in zip(grid, t_star[i])]

    witness = np.array(map_ordered(witnesses, range(shape[0]), threads)).reshape(shape)
    return {
        "sigma": scans["sigma"],
        "signed": pairs[..., 0].ravel(),
        "absolute": pairs[..., 1].ravel(),
        "harper_witness": witness.ravel(),
        "N": np.full(witness.size, limit, dtype=np.int64),
        "prime_limit": scans["prime_limit"],
    }
