import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rmflab.primes as primes_module
from rmflab.errors import DomainError, ResourceError
from rmflab.primes import SpfTable, build_spf_sieve, prime_count_bound, primes_up_to, sieve_bytes, sieve_for

from conftest import host_of, oracle_prime_mask
from oracles import factorize, is_squarefree, spf_sieve, spf_sieve_by_masks


def test_spf_limit_10():
    table = build_spf_sieve(10)
    expected = {2: 2, 3: 3, 4: 2, 5: 5, 6: 2, 7: 7, 8: 2, 9: 3, 10: 2}
    for n, spf in expected.items():
        assert spf_sieve(10)[n] == spf
    assert table.primes.tolist() == [n for n, spf in expected.items() if n == spf]


def test_spf_smallest_case():
    table = build_spf_sieve(2)
    assert table.limit == 2
    assert spf_sieve(2)[2] == 2 and table.primes.tolist() == [2]


def test_spf_fixed_point_count_is_prime_count(table_1e6):
    # number of n with spf[n] = n equals pi(10^6), checked against the
    # independent trial-division sieve
    n = np.arange(table_1e6.limit + 1, dtype=np.uint32)
    fixed = int(np.count_nonzero(spf_sieve(10**6)[2:] == n[2:]))
    oracle = int(np.count_nonzero(oracle_prime_mask(10**6)))
    assert fixed == oracle == table_1e6.primes.size == 78498


def _assert_sieve_matches_mask_route(limit):
    table = build_spf_sieve(limit)
    spf, primes = spf_sieve_by_masks(limit)
    assert spf_sieve(limit).dtype == np.uint32 and np.array_equal(spf_sieve(limit), spf)
    assert table.primes.dtype == np.int64 and np.array_equal(table.primes, primes)


# around squares of primes, where the strided stores start
@pytest.mark.parametrize("limit", [2, 3, 4, 5, 8, 9, 24, 25, 26, 48, 49, 120, 121, 1000, 1001, 10**5 + 1])
def test_sieve_matches_the_mask_per_prime_route(limit):
    _assert_sieve_matches_mask_route(limit)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 2 * 10**4))
def test_sieve_matches_the_mask_per_prime_route_at_any_limit(limit):
    _assert_sieve_matches_mask_route(limit)


def test_sieve_build_peaks_at_the_table_a_mask_and_two_prime_arrays():
    n = 10**6
    tracemalloc.start()
    try:
        build_spf_sieve(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sieve_bytes(n)


def test_prime_count_bound_bounds_pi_up_to_1e6(table_1e6):
    # pi[i] = pi(i + 2)
    x = np.arange(2, 10**6 + 1)
    pi = np.cumsum(spf_sieve(10**6)[2:] == x)
    assert pi[-1] == 78498 and prime_count_bound(10**6) == 91201
    assert np.all(pi <= [prime_count_bound(v) for v in x.tolist()])


def test_primes_up_to_small_cases():
    assert primes_up_to(build_spf_sieve(10)).tolist() == [2, 3, 5, 7]
    assert primes_up_to(build_spf_sieve(2)).tolist() == [2]


def test_primes_up_to_1e4_count():
    primes = primes_up_to(build_spf_sieve(10**4))
    oracle = int(np.count_nonzero(oracle_prime_mask(10**4)))
    assert len(primes) == oracle == 1229


def test_primes_up_to_matches_oracle_exhaustive(table_1e5):
    oracle = np.flatnonzero(oracle_prime_mask(10**5))
    assert np.array_equal(primes_up_to(table_1e5), oracle)


def test_factorize_trivial(table_1e5):
    assert factorize(12, table_1e5) == [(2, 2), (3, 1)]
    assert factorize(1, table_1e5) == []


def test_factorize_primorial():
    table = build_spf_sieve(9699690)
    pairs = factorize(9699690, table)
    assert pairs == [(p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19)]
    product = 1
    for p, a in pairs:
        product *= p**a
    assert product == 9699690


def test_factorize_reconstructs_random_n(table_1e6):
    rng = np.random.default_rng(321)
    for n in rng.integers(1, table_1e6.limit + 1, size=10**5):
        n = int(n)
        product = 1
        last = 1
        for p, a in factorize(n, table_1e6):
            assert p > last, "primes must be strictly increasing"
            assert a >= 1
            last = p
            product *= p**a
        assert product == n


def test_is_squarefree_trivial(table_1e5):
    assert is_squarefree(10, table_1e5)
    assert not is_squarefree(12, table_1e5)


def test_squarefree_count_1e6(table_1e6):
    # independent oracle: knock out multiples of the squares d^2
    free = np.ones(10**6 + 1, dtype=bool)
    free[0] = False
    for d in range(2, 1001):
        free[d * d :: d * d] = False
    oracle_count = int(np.count_nonzero(free[1:]))
    count = sum(is_squarefree(n, table_1e6) for n in range(1, 10**6 + 1, 97))
    oracle_sampled = int(np.count_nonzero(free[1 : 10**6 + 1 : 97]))
    assert count == oracle_sampled
    assert oracle_count == 607926


def test_squarefree_iff_all_exponents_one_exhaustive(table_1e5):
    for n in range(1, 10**4 + 1):
        expected = all(a == 1 for _, a in factorize(n, table_1e5))
        assert is_squarefree(n, table_1e5) == expected


def test_spf_divides_and_is_prime(table_1e6):
    mask = oracle_prime_mask(10**3)
    rng = np.random.default_rng(5)
    for n in rng.integers(2, 10**6, size=2000):
        n = int(n)
        p = int(spf_sieve(10**6)[n])
        assert n % p == 0
        if p < len(mask):
            assert mask[p]


def test_errors():
    with pytest.raises(DomainError):
        build_spf_sieve(1)
    with pytest.raises(DomainError):
        build_spf_sieve(2**32)
    table = build_spf_sieve(100)
    with pytest.raises(DomainError):
        factorize(0, table)
    with pytest.raises(DomainError):
        factorize(101, table)
    with pytest.raises(DomainError):
        is_squarefree(1000, table)


def test_primes_up_to_refuses_a_limit_beyond_its_table():
    table = build_spf_sieve(100)
    assert primes_up_to(table, 100)[-1] == 97
    with pytest.raises(DomainError):
        primes_up_to(table, 101)


def test_sieve_for_passes_on_a_covering_table_and_refuses_a_short_one(table_1e5):
    assert sieve_for(10**5, table_1e5, 0, "a sum") is table_1e5
    assert sieve_for(10, table_1e5, 0, "a sum") is table_1e5
    assert sieve_for(10, None, 0, "a sum").limit == 10
    with pytest.raises(DomainError, match="covers 100000 < required 100001"):
        sieve_for(10**5 + 1, table_1e5, 0, "a sum")
    with pytest.raises(DomainError):
        sieve_for(1, None, 0, "a sum")


def test_sieve_for_checks_memory_before_it_builds(monkeypatch, table_1e5):
    # a host of 1 MB; a sieve to 10^6 takes 1.7 MB: its mask, 1 byte per n,
    # and 8 bytes for each of 91,201 primes that prime_count_bound allows
    host_of(monkeypatch, 256)
    monkeypatch.setattr(primes_module, "build_spf_sieve", lambda limit: pytest.fail("sieve built"))
    with pytest.raises(ResourceError, match="^a sum needs") as info:
        sieve_for(10**6, None, 0, "a sum")
    assert info.value.requested_bytes == sieve_bytes(10**6) == 10**6 + 1 + 8 * 91201
    with pytest.raises(ResourceError) as info:
        sieve_for(10**3, None, 2**20 - sieve_bytes(10**3) + 1, "a sum")
    assert info.value.requested_bytes == 2**20 + 1
    # with a table, only what the caller allocates besides is checked
    assert sieve_for(10**5, table_1e5, 2**20, "a sum") is table_1e5
    with pytest.raises(ResourceError):
        sieve_for(10**5, table_1e5, 2**20 + 1, "a sum")


def test_allocation_failure_reports_size(monkeypatch):
    def failing_zeros(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(primes_module.np, "zeros", failing_zeros)
    with pytest.raises(ResourceError) as info:
        build_spf_sieve(10**6)
    assert info.value.requested_bytes == sieve_bytes(10**6)


def test_table_is_immutable(table_1e5):
    # the table keeps its primes and no per-n array; the oracle's smallest
    # prime factors are read-only too
    assert [f.name for f in dataclasses.fields(SpfTable)] == ["limit", "primes"]
    with pytest.raises(ValueError):
        spf_sieve(10**5)[10] = 3
    # the primes are built with the table, and every call shares them
    assert primes_up_to(table_1e5) is table_1e5.primes is primes_up_to(table_1e5)
    with pytest.raises(ValueError):
        table_1e5.primes[0] = 3
