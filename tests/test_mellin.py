import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import rmflab.primes as primes_module
from rmflab.dirichlet import scan_bytes
from rmflab.errors import DomainError, ResourceError
from rmflab.mellin import (
    boundary_term,
    mellin_step_integral,
    signed_and_absolute_integrals,
    divergence_rows,
    truncated_identity_sides,
)
from rmflab.primes import primes_up_to, sieve_bytes
from rmflab.series import compute_series, engine_bytes
from rmflab.signs import SignAssignment, prime_sign_table

from conftest import host_of
from oracles import (
    MellinEvaluation, abs_mellin_integral, csv_text, evaluate_mellin, series_and_values, series_from_values,
)


def quad_oracle(series, s_real: float) -> float:
    """Adaptive quadrature of (s - alpha) * integral M_alpha(x) x^-(s+1-alpha),
    interval by interval (the integrand is smooth inside each [n, n+1))."""
    total = 0.0
    expo = s_real + 1 - series.alpha
    for n in range(1, series.limit):
        coeff = series.values[n]
        if coeff == 0.0:
            continue
        part, _ = quad(lambda x: x**-expo, n, n + 1, epsabs=1e-13, epsrel=1e-13)
        total += coeff * part
    return (s_real - series.alpha) * total


def test_all_ones_series_telescopes():
    series = series_from_values(np.ones(500), alpha=0.0)
    for s in (0.7, 1.3 + 0.9j):
        value = mellin_step_integral(series, s)
        assert abs(value - (1 - 500.0 ** (-s))) < 1e-13


def test_two_point_series_single_interval():
    series = series_from_values([1.0, 0.3], alpha=0.25)
    s = 1.1
    expected = 1.0 - 2.0 ** (-(s - 0.25))
    assert abs(mellin_step_integral(series, s) - expected) < 1e-15


def test_mellin_matches_quadrature_oracle(table_1e5):
    series = compute_series(SignAssignment.iid(19), "f", 0.5, 400, table_1e5)
    for s in (0.8, 0.62):
        mine = mellin_step_integral(series, s)
        oracle = quad_oracle(series, s)
        assert abs(mine.real - oracle) < 1e-8
        assert abs(mine.imag) < 1e-15


def test_mellin_quadrature_large_series(table_1e5):
    series = compute_series(SignAssignment.iid(40), "f", 0.5, 10**5, table_1e5)
    mine = mellin_step_integral(series, 0.8).real
    oracle = quad_oracle(series, 0.8)
    assert abs(mine - oracle) < 1e-8


def test_divergent_kernel_errors(table_1e5):
    series = compute_series(SignAssignment.iid(19), "f", 0.5, 100, table_1e5)
    with pytest.raises(DomainError):
        mellin_step_integral(series, 0.5)
    with pytest.raises(DomainError):
        abs_mellin_integral(series, 0.4)


def _residual(*args) -> float:
    """|sum_{n<=N} g(n) n^-s - (signed integral + boundary term)|."""
    lhs, rhs = truncated_identity_sides(*args)
    return abs(lhs - rhs)


def test_truncated_identity_n1(table_1e5):
    series = compute_series(SignAssignment.iid(3), "f", 0.0, 1, table_1e5)
    # sum_{n<=1} g(n) n^-s = 1; integral part 0; boundary M(1) * 1 = 1
    assert mellin_step_integral(series, 1.0) == 0j
    assert boundary_term(series, 1.0) == 1 + 0j
    assert _residual(SignAssignment.iid(3), "f", 0.0, 1.0, 1) == 0.0


def test_truncated_identity_n3_by_hand(table_1e5):
    # explicit signs {2: +1, 3: -1}, alpha = 0, s = 1, N = 3:
    #   dirichlet sum = 1 + 1/2 - 1/3 = 7/6
    #   M = (1, 2, 1); integral = 1*(1 - 1/2) + 2*(1/2 - 1/3) = 5/6
    #   boundary = M(3)/3 = 1/3; total 7/6, residual 0
    a = SignAssignment.explicit({2: 1, 3: -1})
    series = compute_series(a, "f", 0.0, 3, table_1e5)
    assert series.values[1:].tolist() == [1.0, 2.0, 1.0]
    integral = mellin_step_integral(series, 1.0)
    assert abs(integral - 5.0 / 6.0) < 1e-15
    residual = _residual(a, "f", 0.0, 1.0, 3)
    assert residual < 1e-15


def test_truncated_identity_residual_large():
    residual = _residual(SignAssignment.iid(11), "f", 0.5, 0.75, 10**6)
    assert residual <= 1e-9


def test_truncated_identity_random_configurations(table_1e5):
    rng = np.random.default_rng(2024)
    for _ in range(20):
        seed = int(rng.integers(0, 2**32))
        alpha = float(rng.choice([0.0, 0.25, 0.5]))
        re_s = float(rng.uniform(alpha + 0.05, 1.5))
        im_s = float(rng.uniform(-3.0, 3.0)) if rng.random() < 0.5 else 0.0
        limit = int(rng.choice([10**3, 10**4]))
        a = SignAssignment.iid(seed)
        model = str(rng.choice(["f", "fstar"]))
        residual = _residual(a, model, alpha, complex(re_s, im_s), limit)
        series = compute_series(a, model, alpha, limit, table_1e5)
        scale = abs(mellin_step_integral(series, complex(re_s, im_s)) + boundary_term(series, complex(re_s, im_s))) + 1.0
        assert residual <= 1e-9 * scale


@st.composite
def assignments(draw, limit: int, table):
    kind = draw(st.sampled_from(["iid", "minus-one", "explicit"]))
    if kind == "minus-one":
        return SignAssignment.all_minus_one()
    iid = SignAssignment.iid(draw(st.integers(0, 2**64 - 1)))
    if kind == "iid":
        return iid
    primes = primes_up_to(table, limit)
    return SignAssignment.explicit(dict(zip(primes.tolist(), prime_sign_table(iid, primes).tolist())))


@settings(deadline=None, max_examples=40)
@given(data=st.data(), limit=st.integers(1, 3000), model=st.sampled_from(["f", "fstar"]),
       alpha=st.just(0.0) | st.floats(0.0, 1.0), re_above=st.floats(0.01, 2.0), im_s=st.floats(-50.0, 50.0))
def test_truncated_identity_sides_equal_the_two_pass_route(table_1e5, data, limit, model, alpha, re_above, im_s):
    # the one-pass sides against g and M_alpha from the per-trial oracle,
    # summed exactly as before the engine handed reducers their weights
    assignment = data.draw(assignments(limit, table_1e5))
    s = complex(alpha + re_above, im_s)
    series, g = series_and_values(assignment, model, alpha, limit, table_1e5)
    n = np.arange(1, limit + 1, dtype=np.float64)
    two_pass = (complex(np.sum(g[1:] * n ** (-s))), mellin_step_integral(series, s) + boundary_term(series, s))
    assert truncated_identity_sides(assignment, model, alpha, s, limit) == two_pass


def test_kernel_positivity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        alpha = float(rng.choice([0.0, 0.25, 0.5]))
        sigma = float(rng.uniform(alpha + 0.01, 1.5))
        n = np.arange(1, 500, dtype=np.float64)
        powers = n ** (-(sigma - alpha))
        weights = powers[:-1] - powers[1:]
        assert (weights > 0).all()


def test_abs_integral_triangle_inequality(table_1e5):
    series = compute_series(SignAssignment.iid(23), "fstar", 0.25, 10**4, table_1e5)
    for sigma in (0.3, 0.6, 1.0):
        signed, absolute = signed_and_absolute_integrals(series, sigma)
        assert absolute >= abs(signed)
        assert abs(absolute - abs_mellin_integral(series, sigma)) == 0.0


def test_abs_integral_on_nonnegative_series(table_1e5):
    values = np.abs(np.random.default_rng(5).normal(size=300)) + 0.1
    series = series_from_values(values, alpha=0.0)
    sigma = 0.9
    signed, absolute = signed_and_absolute_integrals(series, sigma)
    assert signed == absolute
    direct = mellin_step_integral(series, sigma).real / sigma
    assert abs(absolute - direct) < 1e-12 * max(1.0, abs(direct))


def test_abs_integral_alternating_series_collapses():
    alternating = np.array([(-1.0) ** n for n in range(1, 301)])
    ones = np.ones(300)
    s_alt = series_from_values(alternating, alpha=0.0)
    s_one = series_from_values(ones, alpha=0.0)
    assert abs(abs_mellin_integral(s_alt, 0.8) - abs_mellin_integral(s_one, 0.8)) < 1e-15


def test_series_negation_flips_signed_fixes_absolute(table_1e5):
    series = compute_series(SignAssignment.iid(29), "f", 0.0, 5000, table_1e5)
    neg = series_from_values(-series.values[1:], alpha=0.0)
    for sigma in (0.6, 1.0):
        signed, absolute = signed_and_absolute_integrals(series, sigma)
        signed_neg, absolute_neg = signed_and_absolute_integrals(neg, sigma)
        assert signed_neg == -signed
        assert absolute_neg == absolute


def test_evaluate_mellin_record(table_1e5):
    series = compute_series(SignAssignment.iid(2), "f", 0.25, 2000, table_1e5)
    ev = evaluate_mellin(series, 0.8)
    assert isinstance(ev, MellinEvaluation)
    assert ev.abs_integral is not None
    assert ev.abs_integral >= abs(ev.signed_integral) / (0.8 - 0.25) - 1e-12
    ev_complex = evaluate_mellin(series, 0.8 + 1.0j)
    assert ev_complex.abs_integral is None


def test_divergence_comparison_validation():
    a = SignAssignment.iid(1)
    with pytest.raises(DomainError):
        divergence_rows([a], "f", 0.5, [], 100, 100)
    with pytest.raises(DomainError):
        divergence_rows([a], "f", 0.5, [0.52, 0.56], 100, 100)
    with pytest.raises(DomainError):
        divergence_rows([a], "f", 0.5, [0.8, 0.6], 100, 100)
    with pytest.raises(DomainError):
        divergence_rows([a], "f", 0.5, [0.65, 0.55], 100, 100)


def _refused_bytes(monkeypatch, pages: int, *args) -> int:
    """The bytes divergence_rows(*args) asks for, on a host of `pages` 4 KiB
    pages too small for them, without building a sieve."""
    host_of(monkeypatch, pages)
    monkeypatch.setattr(primes_module, "build_spf_sieve", lambda limit: pytest.fail("sieve built"))
    with pytest.raises(ResourceError, match="physical memory") as info:
        divergence_rows(*args)
    return info.value.requested_bytes


def test_divergence_rows_check_their_sieve_to_the_prime_limit(monkeypatch):
    # a host of 1 MB; the sieve to P = 10^6 takes 1.7 MB, the run at N = 10^3 little
    requested = _refused_bytes(monkeypatch, 256, [SignAssignment.iid(3)], "f", 0.5, (0.55,), 10**3, 10**6)
    # one kernel and one running trial's integrand, 8 bytes per n each, and
    # 176 + 48 bytes for the trial's integrals, witness and columns at one sigma
    run = engine_bytes(10**3, 1, 1, 10**3) + 16 * (10**3 + 1) + scan_bytes(1, (0.55,), None, 10**6) + 224
    assert requested == run + sieve_bytes(10**6)


def test_divergence_rows_check_the_engine_and_kernels_before_the_sieve(monkeypatch):
    # a host of 1 MB holds the sieve to 10^5 (0.2 MB), not the engine's two
    # whole series, the kernel and the integrand of the one running trial
    assignments = [SignAssignment.iid(1), SignAssignment.iid(2)]
    requested = _refused_bytes(monkeypatch, 256, assignments, "f", 0.5, (0.55,), 10**5, 10**3)
    run = engine_bytes(10**5, 2, 1, 10**5) + 16 * (10**5 + 1) + scan_bytes(2, (0.55,), None, 10**3) + 2 * 224
    assert requested == run + sieve_bytes(10**5)


def test_divergence_rows_check_their_scan_before_the_sieve(monkeypatch):
    # a host of 16 MB holds the sieve to P = 10^6 (4 MB), the engine and the
    # kernel at N = 10^3, not the sup scan of 100 trials (its cosine ring
    # alone takes 24 MB), so the one check refuses the run and no sieve is built
    assignments = [SignAssignment.iid(k) for k in range(100)]
    requested = _refused_bytes(monkeypatch, 4096, assignments, "f", 0.5, (0.55,), 10**3, 10**6)
    scan = scan_bytes(100, (0.55,), None, 10**6)
    assert requested - scan < 4096 * 4096 < scan


def test_divergence_comparison_rows():
    a = SignAssignment.iid(12)
    rows = divergence_rows([a], "f", 0.5, [0.58, 0.54], 2000, 10**4)
    assert rows["sigma"].tolist() == [0.58, 0.54]
    assert np.all(rows["absolute"] >= np.abs(rows["signed"]))
    assert np.all(rows["harper_witness"] > 0)
    assert rows["N"].tolist() == [2000, 2000] and rows["prime_limit"].tolist() == [10**4, 10**4]
    minus_rows = divergence_rows([SignAssignment.all_minus_one()], "fstar", 0.0, [0.58], 500, 1000)
    assert minus_rows["absolute"][0] >= abs(minus_rows["signed"][0])


@pytest.mark.parametrize("step", [None, 1.0])
def test_divergence_rows_do_not_depend_on_the_thread_count(step):
    # the scan filtered at the default step and exact at step 1, the engine
    # and the witness products on 1, 2 and 3 threads
    assignments = [SignAssignment.iid(k) for k in range(5)]
    one = divergence_rows(assignments, "f", 0.5, (0.56, 0.54, 0.52), 2000, 10**5, step)
    for threads in (2, 3):
        rows = divergence_rows(assignments, "f", 0.5, (0.56, 0.54, 0.52), 2000, 10**5, step, threads)
        assert list(rows) == list(one)
        for name, column in one.items():
            assert np.array_equal(rows[name], column), (threads, name)


def test_comparison_csv_schema():
    rows = divergence_rows([SignAssignment.iid(12)], "f", 0.5, [0.58], 100, 1000)
    text = csv_text(rows, rows.values())
    lines = text.strip().split("\n")
    assert lines[0] == "sigma,signed,absolute,harper_witness,N,prime_limit"
    assert lines[1].split(",")[4:] == ["100", "1000"]


def test_divergence_rows_take_a_numpy_grid_and_no_assignments():
    assignments = [SignAssignment.iid(k) for k in range(3)]
    by_tuple = divergence_rows(assignments, "f", 0.5, (0.56, 0.54), 500, 1000)
    by_array = divergence_rows(assignments, "f", 0.5, np.array([0.56, 0.54]), 500, 1000)
    assert list(by_array) == list(by_tuple)
    assert all(np.array_equal(by_array[name], by_tuple[name]) for name in by_tuple)
    with pytest.raises(DomainError, match="nonempty"):
        divergence_rows(assignments, "f", 0.5, np.array([]), 500, 1000)
    empty = divergence_rows([], "f", 0.5, (0.56, 0.54), 500, 1000)
    assert list(empty) == list(by_tuple)
    assert [(column.size, column.dtype) for column in empty.values()] == [
        (0, column.dtype) for column in by_tuple.values()]
