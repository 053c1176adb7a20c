import cmath
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmflab.dirichlet import (
    BLOCK_POINTS,
    BLOCK_ROWS,
    TAPS,
    default_grid_step,
    euler_product_F,
    euler_product_F_star,
    exponential_formula_check,
    harper_window,
    lattice,
    scan_bytes,
    scan_grid_max,
    sup_scans,
    zeta,
)
import rmflab.dirichlet as dirichlet_module
import rmflab.primes as primes_module
from rmflab.errors import DomainError, ResourceError
from rmflab.primes import build_spf_sieve, primes_up_to
from rmflab.signs import SignAssignment, prime_sign_table

from conftest import host_of
from oracles import (
    csv_text,
    prime_cosine_sum,
    prime_sum_real,
    scan_by_chebyshev,
    scan_by_cosine_matrix,
    scan_by_recurrence,
)


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------


def test_zeta_at_2():
    assert abs(zeta(2.0) - math.pi**2 / 6) < 1e-10


def test_zeta_direct_summation_oracle():
    # sum 10^7 terms, then the integral tail N^(1-s)/(s-1) plus N^-s/2
    m = 10**7
    n = np.arange(1, m + 1, dtype=np.float64)
    oracle = float(np.sum(n**-1.5)) + m**-0.5 / 0.5 + 0.5 * m**-1.5
    assert abs(zeta(1.5).real - oracle) < 1e-8
    assert abs(zeta(1.5).imag) < 1e-12


def test_zeta_laurent_cancellation_near_one():
    for sigma in (0.51, 0.505, 0.501):
        value = math.log(zeta(2 * sigma).real) + math.log(2 * sigma - 1)
        assert abs(value) <= 1.0


def test_zeta_domain_errors():
    with pytest.raises(DomainError):
        zeta(1.0)
    with pytest.raises(DomainError):
        zeta(-0.5)
    with pytest.raises(DomainError):
        zeta(0.0 + 3.0j)
    for s in (complex("nan"), complex(0.75, math.nan), complex(math.inf, 1.0), complex(0.75, math.inf)):
        with pytest.raises(DomainError, match="finite"):
            zeta(s)


def test_zeta_conjugate_symmetry():
    for s in (0.6 + 11.0j, 1.3 + 73.2j, 0.501 + 99.0j):
        assert abs(zeta(np.conj(s)) - np.conj(zeta(s))) < 1e-12


def test_zeta_matches_dirichlet_partial_sum_at_large_sigma():
    # at sigma = 8 the Dirichlet series itself converges fast enough to be
    # its own oracle
    n = np.arange(1, 10**4, dtype=np.float64)
    s = 8.0 + 2.0j
    oracle = complex(np.sum(n ** (-s)))
    assert abs(zeta(s) - oracle) < 1e-12


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------


def test_euler_product_prime_limit_2(table_1e5):
    a = SignAssignment.iid(5)
    s = 0.9 + 1.3j
    f2 = float(prime_sign_table(a, np.array([2], dtype=np.int64))[0])
    expected_f = 1 + f2 * 2.0 ** (-s)
    expected_fstar = 1.0 / (1 - f2 * 2.0 ** (-s))
    assert abs(euler_product_F(a, s, 2, table_1e5).value - expected_f) < 1e-15
    assert abs(euler_product_F_star(a, s, 2, table_1e5).value - expected_fstar) < 1e-15


def test_euler_products_classical_values(table_1e6):
    minus = SignAssignment.all_minus_one()
    f_result = euler_product_F(minus, 2.0, 10**6, table_1e6)
    assert abs(f_result.value - 6 / math.pi**2) < 1e-4
    fstar_result = euler_product_F_star(minus, 2.0, 10**6, table_1e6)
    zeta4_over_zeta2 = (math.pi**4 / 90) / (math.pi**2 / 6)
    assert abs(fstar_result.value - zeta4_over_zeta2) < 1e-4


def test_euler_product_doubling_cauchy_example(table_1e6):
    # package default seed; the change under doubling is a realization of the
    # random tail, so the 10x-diagnostic envelope is seed-dependent
    a = SignAssignment.iid(42)
    r1 = euler_product_F(a, 0.75, 10**5, table_1e6)
    r2 = euler_product_F(a, 0.75, 2 * 10**5, table_1e6)
    assert abs(r2.value - r1.value) < 10 * r1.last_factor_deviation


def test_euler_product_reciprocity(table_1e6):
    # F(s) * prod(1 - f(p)/p^s) = prod(1 - p^(-2s)) = 1/zeta(2s) up to the
    # truncation tail
    for s in (1.0, 1.5):
        for seed in (1, 2):
            a = SignAssignment.iid(seed)
            f_val = euler_product_F(a, s, 10**6, table_1e6).value
            fstar_val = euler_product_F_star(a, s, 10**6, table_1e6).value
            assert abs(f_val / fstar_val - 1.0 / zeta(2 * s)) < 1e-6


def test_euler_product_conjugate_symmetry(table_1e5):
    a = SignAssignment.iid(77)
    s = 0.8 + 2.4j
    for product in (euler_product_F, euler_product_F_star):
        v = product(a, s, 10**4, table_1e5).value
        w = product(a, np.conj(s), 10**4, table_1e5).value
        assert abs(w - np.conj(v)) < 1e-12


def test_euler_product_diagnostic_monotone_f(table_1e5):
    a = SignAssignment.iid(3)
    devs = [euler_product_F(a, 0.75, p, table_1e5).last_factor_deviation for p in (100, 500, 2500, 12500, 62500)]
    assert all(b < a for a, b in zip(devs, devs[1:]))


def test_euler_product_diagnostic_monotone_fstar_doubling(table_1e5):
    a = SignAssignment.iid(3)
    devs = [
        euler_product_F_star(a, 0.6, p, table_1e5).last_factor_deviation
        for p in (100, 200, 400, 800, 1600, 3200)
    ]
    assert all(b < a for a, b in zip(devs, devs[1:]))


def test_euler_product_domain_errors(table_1e5):
    a = SignAssignment.iid(1)
    with pytest.raises(DomainError):
        euler_product_F(a, 0.5, 100, table_1e5)
    with pytest.raises(DomainError):
        euler_product_F_star(a, 0.4 + 1j, 100, table_1e5)
    with pytest.raises(DomainError):
        euler_product_F(a, 2.0, 1, table_1e5)


# ---------------------------------------------------------------------------
# Prime sums
# ---------------------------------------------------------------------------


def test_a_table_short_of_the_prime_limit_raises(table_1e5):
    # a 10^3 sieve holds 168 of the 9592 primes up to 10^5
    small, a, s = build_spf_sieve(10**3), SignAssignment.iid(3), 0.6 + 1j
    for call in (
        lambda table: euler_product_F(a, s, 10**5, table),
        lambda table: euler_product_F_star(a, s, 10**5, table),
        lambda table: exponential_formula_check(a, s, 10**5, "f", table),
        lambda table: sup_scans([a], (0.55,), None, 10**5, table),
    ):
        with pytest.raises(DomainError, match="covers 1000 < required 100000"):
            call(small)
        call(table_1e5)
    assert abs(euler_product_F(a, s, 10**5, table_1e5).value - (0.3773 + 0.2126j)) < 1e-4


def test_products_and_scans_without_a_table_check_their_sieve(monkeypatch):
    # a host of 1 MB; a sieve to 10^6 takes 4 MB
    host_of(monkeypatch, 256)
    monkeypatch.setattr(primes_module, "build_spf_sieve", lambda limit: pytest.fail("sieve built"))
    a = SignAssignment.iid(3)
    for call in (
        lambda: euler_product_F(a, 0.6, 10**6),
        lambda: euler_product_F_star(a, 0.6, 10**6),
        lambda: sup_scans([a], (0.55,), None, 10**6),
    ):
        with pytest.raises(ResourceError, match="sieve to P = 1000000"):
            call()


def test_sup_scan_checks_its_memory_before_its_sieve(monkeypatch):
    # a host of 8 MB holds the sieve to 10^6 (4 MB), not the scan: before
    # the sieve, pi(P) < 1.26 P / ln P stands for the 78498 primes, each
    # with 8 bytes of float64 weight per trial
    host_of(monkeypatch, 2048)
    monkeypatch.setattr(primes_module, "build_spf_sieve", lambda limit: pytest.fail("sieve built"))
    assignments = [SignAssignment.iid(k) for k in range(100)]
    n_primes = int(1.26 * (10**6 + 1) / math.log(10**6))
    step = default_grid_step(0.58)
    n_points = int(math.floor((harper_window(0.58) - 1.0) / step)) + 1  # 2970
    # omega = log P: 38 grid points per lattice cell, 2969 // 38 + 2 TAPS =
    # 150 lattice rows, blocks of 1024 // 38 = 26 cells
    q = math.floor(math.pi / (1.5 * math.log(10**6) * step))
    rows, cells = (n_points - 1) // q + 72, 1024 // q
    assert (q, rows) == (38, 150)
    # throughout: 6 arrays over the primes, per trial 48 bytes for its six
    # CSV columns, three float64 ufunc buffers; then, for the one sigma,
    # scanned whole on one thread however many there are: its weights, per
    # trial its lattice sums, and the largest of the cosines, the 2 cos(theta)
    # row and a 32-row ring (24 MB), the taps' temporaries (0.5 MB), and the
    # filter (1.5 MB): per trial of a block of 64 its window of 72 sums per
    # cell, its values and their mask, and the taps
    filtering = 64 * (9 * cells * q + 16 * 36 * cells) + 16 * 36 * q
    cosines = 8 * (1 + 32) * n_primes
    scan = 48 * n_primes + 100 * (8 * rows + 48) + 24 * np.getbufsize() + max(cosines, 96 * 36 * (q + 1), filtering)
    for threads in (1, 2):
        with pytest.raises(ResourceError, match="sup scan of 100 trials over the sieve to P = 1000000") as info:
            sup_scans(assignments, (0.58,), None, 10**6, threads=threads)
        assert info.value.requested_bytes == 4 * (10**6 + 1) + 8 * 100 * n_primes + scan


def test_sup_scan_peak_stays_under_its_estimate(table_1e5):
    # scan_bytes, what sup_scans asks the gate for, against what tracemalloc
    # sees it hold on all threads: filtered at the default step, evaluated
    # exactly at step 1, and at P = 1000 with few trials.  On 2 or 3 threads
    # each run of sigmas holds its own weights and scans, and the peak is
    # highest when the runs' scans overlap, which depends on thread timing:
    # every threaded peak stays under the estimate, and the highest of three
    # runs is more than 1/1.5 of it
    grid = (0.56, 0.54, 0.52)

    def peak(assignments, grid, step, prime_limit, threads):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sup_scans(assignments, grid, step, prime_limit, table_1e5, threads=threads)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    for prime_limit, trials, step in ((10**5, 20, None), (10**5, 20, 1.0), (1000, 20, None), (1000, 64, None)):
        assignments = [SignAssignment.iid(k) for k in range(trials)]
        for threads in (1, 2, 3):
            estimate = scan_bytes(trials, grid, step, prime_limit, threads)
            peaks = [peak(assignments, grid, step, prime_limit, threads) for _ in range(1 if threads == 1 else 3)]
            assert max(peaks) <= estimate < 1.5 * max(peaks), (prime_limit, trials, threads)


def test_sup_scan_filters_a_capped_block_of_rows(table_1e5):
    # 2,000 trials at P = 1000 on the divergence grid: the filter holds a
    # block of BLOCK_ROWS rows, so the peak stays below what one block of
    # all 2,000 rows would hold (about 32 MB), and under scan_bytes
    grid, trials = (0.56, 0.54, 0.52), 2000
    assignments = [SignAssignment.iid(k) for k in range(trials)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        columns = sup_scans(assignments, grid, None, 1000, table_1e5)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    uncapped = 0
    for sigma in grid:
        step = default_grid_step(sigma)
        n_points = math.floor((harper_window(sigma) - 1.0) / step) + 1
        q = lattice(math.log(997), step, n_points)[0]
        cells = BLOCK_POINTS // q
        uncapped = max(uncapped, trials * (9 * cells * q + 16 * TAPS * cells))
    assert peak <= scan_bytes(trials, grid, None, 1000) < 1.5 * peak
    assert peak < uncapped / 3
    # rows on both sides of a block edge, as one block of their own
    part = slice(BLOCK_ROWS - 4, BLOCK_ROWS + 4)
    alone = sup_scans(assignments[part], grid, None, 1000, table_1e5)
    rows = slice(part.start * len(grid), part.stop * len(grid))
    for name, column in alone.items():
        assert np.array_equal(columns[name][rows], column), name


@pytest.mark.parametrize("prime_limit, trials, step, grid", [
    pytest.param(10**5, 7, None, (0.56, 0.54, 0.52), id="None"),
    pytest.param(10**5, 7, 1.0, (0.56, 0.54, 0.52), id="1.0"),
    pytest.param(1000, 130, None, (0.56, 0.54, 0.52), id="bands"),
    pytest.param(10**5, 7, None, (0.55,), id="1-sigma"),
    pytest.param(10**5, 7, 1.0, (0.56, 0.52), id="2-sigma"),
    pytest.param(1000, 130, None, (0.58, 0.56, 0.54, 0.52), id="4-sigma")])
def test_sup_scans_do_not_depend_on_the_thread_count(table_1e5, prime_limit, trials, step, grid):
    # filtered from the lattice at the default step, 3 reseed periods per
    # sigma; evaluated exactly at step 1; 130 rows in 3 bands of BLOCK_ROWS,
    # each rechecked as it closes, trials k and k + 100 with the same signs;
    # on 1 to 3 threads, so the grid's sigmas split into 1 to 3 runs, each
    # sigma scanned whole on one thread, the runs writing their own columns;
    # the threads switch every 10 us, so a lost write would show
    assignments = [SignAssignment.iid(k % 100) for k in range(trials)]
    one = sup_scans(assignments, grid, step, prime_limit, table_1e5, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = {threads: sup_scans(assignments, grid, step, prime_limit, table_1e5, threads=threads)
                    for threads in (2, 3)}
    finally:
        sys.setswitchinterval(interval)
    for threads, columns in threaded.items():
        assert list(columns) == list(one)
        for name, column in one.items():
            assert np.array_equal(columns[name], column), (threads, name)
    # rows k and k + 100 lie in different bands, and their points are rechecked in each
    assert BLOCK_ROWS <= 100
    for name, column in one.items():
        rows = column.reshape(trials, len(grid))
        assert np.array_equal(rows[: max(trials - 100, 0)], rows[100:]), name


def test_sup_scans_hold_blas_at_one_thread_and_restore_it(table_1e5, monkeypatch):
    blas = dirichlet_module._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS loaded")
    get, set_ = blas
    seen, scan = [], dirichlet_module.scan_grid_max

    def spy(*args, **kwargs):
        seen.append(get())
        return scan(*args, **kwargs)

    def failing(*args, **kwargs):
        seen.append(get())
        raise RuntimeError("scan failed")

    assignments = [SignAssignment.iid(k) for k in range(3)]
    before = get()
    set_(2)
    try:
        # one call per sigma, each on its own worker thread
        monkeypatch.setattr(dirichlet_module, "scan_grid_max", spy)
        columns = sup_scans(assignments, (0.56, 0.54), None, 10**4, table_1e5, threads=2)
        assert seen == [1, 1] and get() == 2
        # each of the two runs stops at its own first call
        monkeypatch.setattr(dirichlet_module, "scan_grid_max", failing)
        with pytest.raises(RuntimeError, match="scan failed"):
            sup_scans(assignments, (0.56, 0.54), None, 10**4, table_1e5, threads=2)
        assert seen == [1, 1, 1, 1] and get() == 2
    finally:
        set_(before)
    # without a BLAS library found, nothing is held and the columns are the same
    monkeypatch.setattr(dirichlet_module, "scan_grid_max", scan)
    monkeypatch.setattr(dirichlet_module, "_openblas", lambda: None)
    unheld = sup_scans(assignments, (0.56, 0.54), None, 10**4, table_1e5, threads=2)
    assert all(np.array_equal(unheld[name], column) for name, column in columns.items())


def test_prime_cosine_sum_reduces_at_t0(table_1e5):
    a = SignAssignment.iid(11)
    value = prime_cosine_sum(a, 0.7, 0.0, 10**4, table_1e5)
    assert value == prime_sum_real(a, 0.7, 10**4, table_1e5)
    # cos(0) = 1 exactly, so t = 0 must reproduce the plain weighted sum bitwise
    primes = primes_up_to(table_1e5)
    primes = primes[primes <= 10**4]
    weights = prime_sign_table(a, primes).astype(np.float64) * primes.astype(np.float64) ** -0.7
    assert value == float(np.cumsum(weights)[-1])


def test_prime_cosine_sum_single_prime(table_1e5):
    a = SignAssignment.iid(11)
    f2 = float(prime_sign_table(a, np.array([2], dtype=np.int64))[0])
    t = 1.7
    expected = f2 * math.cos(t * math.log(2)) * 2.0**-0.6
    assert abs(prime_cosine_sum(a, 0.6, t, 2, table_1e5) - expected) < 1e-15


def test_prime_cosine_sum_truncation_triangle_bound(table_1e6):
    a = SignAssignment.iid(123)
    s_small = prime_cosine_sum(a, 0.6, 1.0, 10**5, table_1e6)
    s_big = prime_cosine_sum(a, 0.6, 1.0, 10**6, table_1e6)
    primes = primes_up_to(table_1e6)
    between = primes[(primes > 10**5) & (primes <= 10**6)].astype(np.float64)
    bound = float(np.sum(between**-0.6))
    assert abs(s_big - s_small) <= bound


def test_prime_sum_real_mertens_value(table_1e6):
    # all-minus-one at sigma = 1: minus the prime harmonic sum, which by
    # Mertens' theorem is log log x + M; M is recomputed here from
    # M = euler_gamma + sum_p (log(1 - 1/p) + 1/p)
    value = prime_sum_real(SignAssignment.all_minus_one(), 1.0, 10**6, table_1e6)
    primes = primes_up_to(table_1e6).astype(np.float64)
    meissel_mertens = float(np.euler_gamma + np.sum(np.log1p(-1.0 / primes) + 1.0 / primes))
    expected = -(math.log(math.log(10**6)) + meissel_mertens)
    assert abs(value - expected) < 0.01


def test_prime_sum_real_statistical_envelope(table_1e6):
    # 3-sigma-style envelope at sigma just above 1/2
    primes = primes_up_to(table_1e6)
    weights = primes.astype(np.float64) ** -0.51
    bound = 3.0 * math.log(100.0) ** 0.6
    inside = 0
    for seed in range(200):
        signs = prime_sign_table(SignAssignment.iid(seed), primes).astype(np.float64)
        if abs(float(np.cumsum(signs * weights)[-1])) <= bound:
            inside += 1
    assert inside >= 190


def test_prime_sum_domain_error(table_1e5):
    with pytest.raises(DomainError):
        prime_sum_real(SignAssignment.iid(1), 0.5, 100, table_1e5)


# ---------------------------------------------------------------------------
# Exponential formula residual
# ---------------------------------------------------------------------------


def test_exponential_formula_far_right(table_1e5):
    for seed in range(5):
        residual = exponential_formula_check(SignAssignment.iid(seed), 2.0, 10**5, "f", table_1e5)
        assert residual <= 0.3


def test_exponential_formula_grid(table_1e5):
    worst = 0.0
    for seed in range(20):
        a = SignAssignment.iid(seed)
        for model in ("f", "fstar"):
            worst = max(worst, exponential_formula_check(a, 0.6, 10**5, model, table_1e5))
    assert worst <= 2.0


def test_exponential_formula_f_fstar_consistency(table_1e6):
    # the zeta terms cancel in the DIFFERENCE of the two signed residuals:
    # e_f - e_fstar = sum_p log(1 - p^(-2s)) + log zeta(2s), which at s = 1
    # and prime_limit 10^6 is just the truncation tail
    primes = primes_up_to(table_1e6).astype(np.float64)
    consistency = abs(complex(np.sum(np.log1p(-primes**-2.0))) + cmath.log(zeta(2.0)))
    assert consistency <= 1e-6
    a = SignAssignment.iid(31)
    x = prime_sign_table(a, primes.astype(np.int64)).astype(np.float64) * primes**-1.0
    s_sum = complex(np.sum(x))
    log_f = complex(np.sum(np.log1p(x)))
    log_fstar = complex(-np.sum(np.log1p(-x)))
    e_f = log_f - (s_sum - 0.5 * cmath.log(zeta(2.0)))
    e_fstar = log_fstar - (s_sum + 0.5 * cmath.log(zeta(2.0)))
    assert abs(e_f - e_fstar) <= consistency + 1e-12
    # so the module's two absolute residuals agree to the same accuracy
    r_f = exponential_formula_check(a, 1.0, 10**6, "f", table_1e6)
    r_fstar = exponential_formula_check(a, 1.0, 10**6, "fstar", table_1e6)
    assert abs(r_f - r_fstar) <= 1e-6
    assert abs(r_f - abs(e_f)) < 1e-9 and abs(r_fstar - abs(e_fstar)) < 1e-9


def test_exponential_formula_validation(table_1e5):
    a = SignAssignment.iid(1)
    with pytest.raises(DomainError):
        exponential_formula_check(a, 0.5, 10**4, "f", table_1e5)
    with pytest.raises(DomainError):
        exponential_formula_check(a, 1.0, 100, "f", table_1e5)
    with pytest.raises(DomainError):
        exponential_formula_check(a, 1.0, 10**4, "g", table_1e5)


# ---------------------------------------------------------------------------
# Sup scan
# ---------------------------------------------------------------------------


def test_harper_window_arithmetic():
    assert abs(harper_window(0.51) - 2 * math.log(100.0) ** 2) < 1e-12
    assert 42.0 < harper_window(0.51) < 42.5


def test_harper_sup_dominates_t1(table_1e5):
    a = SignAssignment.iid(17)
    scan = sup_scans([a], (0.55,), None, 10**4, table_1e5)
    at_one = prime_cosine_sum(a, 0.55, 1.0, 10**4, table_1e5)
    assert scan["sup_value"][0] >= at_one - 1e-12
    assert 1.0 <= scan["t_star"][0] <= harper_window(0.55)
    centering = 2.0 * math.log(math.log(1.0 / 0.05))
    assert abs(scan["centered_value"][0] - (scan["sup_value"][0] - centering)) < 1e-12


def test_harper_sup_grid_refinement(table_1e5):
    a = SignAssignment.iid(17)
    step = default_grid_step(0.55)
    coarse = sup_scans([a], (0.55,), step, 10**4, table_1e5)
    fine = sup_scans([a], (0.55,), step / 2, 10**4, table_1e5)
    assert fine["sup_value"][0] >= coarse["sup_value"][0]


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_scan_grid_max_matches_cosine_matrix_oracle(table_1e5, data):
    prime_limit = data.draw(st.integers(2, 3000))
    primes = primes_up_to(table_1e5)
    primes = primes[primes <= prime_limit]
    seeds = data.draw(st.lists(st.integers(0, 2**63), min_size=1, max_size=5))
    sigma = data.draw(st.floats(0.5, 0.6, exclude_min=True))
    weights = np.array([prime_sign_table(SignAssignment.iid(seed), primes) for seed in seeds])
    weights = weights * primes.astype(np.float64) ** (-sigma)
    logp = np.log(primes.astype(np.float64))
    t_start = data.draw(st.floats(0.0, 100.0))
    step = data.draw(st.floats(1e-3, 0.5))
    n_points = data.draw(st.sampled_from([1, 2, 255, 256, 257, 513]) | st.integers(1, 1200))

    oracle_sup, oracle_t = scan_by_cosine_matrix(weights, logp, t_start, step, n_points)
    routes = [scan_by_recurrence(weights, logp, t_start, step, n_points),
              scan_by_chebyshev(weights, logp, t_start, step, n_points)]
    t_grid = t_start + step * np.arange(n_points, dtype=np.float64)
    grid_values = np.sort(weights @ np.cos(np.outer(t_grid, logp)).T, axis=1)
    sup, t_star = scan_grid_max(weights, logp, t_start, step, n_points)
    for i in range(len(weights)):
        assert sup[i] == weights[i] @ np.cos(t_star[i] * logp)
        at_t_star = scan_by_cosine_matrix(weights[i], logp, t_star[i], step, 1)[0][0]
        assert abs(at_t_star - oracle_sup[i]) <= 1e-12
        for route_sup, route_t in routes:
            assert abs(sup[i] - route_sup[i]) <= 1e-12
            if n_points == 1 or grid_values[i, -1] - grid_values[i, -2] > 1e-9:
                assert t_star[i] == oracle_t[i] == route_t[i]
                assert sup[i] == route_sup[i]


def test_scan_grid_max_ties_take_the_first_occurrence():
    # log p = 0: every grid value is exactly the weight, so each row's first
    # grid point is its maximum; filtered from the lattice in 4 blocks of
    # one 1024-point cell, every point of each block rechecked
    weights = np.array([[1.0], [-2.0]])
    n_points = 3 * BLOCK_POINTS + 3
    assert lattice(0.0, 0.5, n_points)[0] == BLOCK_POINTS
    sup, t_star = scan_grid_max(weights, np.array([0.0]), 2.0, 0.5, n_points)
    assert sup.tolist() == [1.0, -2.0] and t_star.tolist() == [2.0, 2.0]
    # on a grid of no more points than lattice rows, evaluated exactly: the same
    n_points = 2 * TAPS
    assert lattice(0.0, 0.5, n_points) == (0, n_points)
    sup, t_star = scan_grid_max(weights, np.array([0.0]), 2.0, 0.5, n_points)
    assert sup.tolist() == [1.0, -2.0] and t_star.tolist() == [2.0, 2.0]
    # theta = pi/4 and t_0 = pi/8: cos(t_j) = cos(pi/8) at j mod 8 in {0, 7}
    # up to the rounding of t_j, the grid maximum; 2 grid points per lattice
    # cell, so 3075 points are filtered in 4 blocks of 512 cells
    for n_points, q in ((63, 0), (3 * BLOCK_POINTS + 3, 2)):
        assert lattice(1.0, math.pi / 4, n_points)[0] == q
        sup, t_star = scan_grid_max(weights[:1], np.array([1.0]), math.pi / 8, math.pi / 4, n_points)
        assert abs(sup[0] - math.cos(math.pi / 8)) <= 1e-12
        assert round((t_star[0] - math.pi / 8) / (math.pi / 4)) % 8 in (0, 7)


@pytest.mark.parametrize("taps", [8, TAPS])
@pytest.mark.parametrize("band", [1 / 4, 1 / 2, 2 / 3, 0.9])
def test_filter_error_on_each_tone_lies_under_its_bound(monkeypatch, taps, band):
    # tones e^(i nu x), 0 <= nu <= band * pi, sampled at the integers and
    # filtered to x = r/q in [0, 1): the per-tone term of scan_grid_max's E,
    # from Schmeisser and Stenger's bound, plus the rounding of the taps
    monkeypatch.setattr(dirichlet_module, "TAPS", taps)
    alpha, q = 0.5 * math.pi * (1.0 - band), 101
    filtered = dirichlet_module._taps(q, alpha)
    n, x = np.arange(1 - taps, taps + 1), np.arange(q) / q
    nu = np.linspace(0.0, band * math.pi, 501)
    error = np.abs(np.exp(1j * np.outer(nu, n)) @ filtered.T - np.exp(1j * np.outer(nu, x)))
    bound = dirichlet_module._tone_bound(alpha)
    assert error.max() <= bound + 8 * taps * np.finfo(np.float64).eps
    if bound > 1e-12:  # the bound is close: within a factor of 7
        assert error.max() > bound / 7


def test_scan_interpolant_error_lies_under_its_bound(table_1e6, monkeypatch):
    # sigma = 0.51 over the largest 2000 primes below 10^6: the band
    # omega = log P and the window of the sup scan at its smallest sigma
    primes = primes_up_to(table_1e6)[-2000:]
    weights = np.array([prime_sign_table(SignAssignment.iid(seed), primes) for seed in (1, 2)])
    weights = weights * primes.astype(np.float64) ** -0.51
    logp = np.log(primes.astype(np.float64))
    step = default_grid_step(0.51)
    n_points = int(math.floor((harper_window(0.51) - 1.0) / step)) + 1
    exact = np.empty((2, n_points))
    for start in range(0, n_points, 1024):
        t_block = 1.0 + step * np.arange(start, min(start + 1024, n_points), dtype=np.float64)
        exact[:, start : start + 1024] = weights @ np.cos(np.outer(t_block, logp)).T

    def error_and_bound():
        bound, blocks = dirichlet_module._grid_values(weights, logp, 1.0, step, n_points)
        values = np.hstack([block.copy() for _row, _point, block in blocks])  # each block reuses the last one's buffer
        return np.max(np.abs(values - exact)), bound

    total = float(np.max(np.sum(np.abs(weights), axis=1)))
    error, bound = error_and_bound()
    assert error <= bound
    # the shipped taps leave a bound of 1.5e-9 W, mostly the filter's term
    # (the error is 3.6e-11): few exact rechecks
    assert bound < 2e-9 * total
    # at 12 taps the filter is off by about 1e-5, far above the rounding
    monkeypatch.setattr(dirichlet_module, "TAPS", 12)
    error, bound = error_and_bound()
    assert 1e-7 < error <= bound


def test_harper_sup_validation(table_1e5):
    a = SignAssignment.iid(1)
    with pytest.raises(DomainError):
        sup_scans([a], (0.65,), None, 10**4, table_1e5)
    with pytest.raises(DomainError):
        sup_scans([a], (0.5,), None, 10**4, table_1e5)
    with pytest.raises(DomainError):
        sup_scans([a], (0.55,), -0.1, 10**4, table_1e5)


def test_harper_scan_csv(table_1e5):
    a = SignAssignment.iid(17)
    scan = sup_scans([a], (0.55,), None, 10**4, table_1e5)
    text = csv_text(scan, scan.values())
    lines = text.strip().split("\n")
    assert lines[0] == "sigma,t_star,sup_value,centered_value,grid_step,prime_limit"
    assert len(lines) == 2
    assert lines[1].endswith(",10000")


def test_sup_scans_take_a_numpy_grid_and_no_assignments(table_1e5):
    assignments = [SignAssignment.iid(k) for k in range(3)]
    by_tuple = sup_scans(assignments, (0.56, 0.54), None, 10**4, table_1e5)
    by_array = sup_scans(assignments, np.array([0.56, 0.54]), None, 10**4, table_1e5)
    assert list(by_array) == list(by_tuple)
    assert all(np.array_equal(by_array[name], by_tuple[name]) for name in by_tuple)
    with pytest.raises(DomainError, match="nonempty"):
        sup_scans(assignments, np.array([]), None, 10**4, table_1e5)
    empty = sup_scans([], (0.56, 0.54), None, 10**4, table_1e5)
    assert list(empty) == list(by_tuple)
    assert [(column.size, column.dtype) for column in empty.values()] == [
        (0, column.dtype) for column in by_tuple.values()]
