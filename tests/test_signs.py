import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmflab.errors import DomainError, MissingSignError
from rmflab.primes import primes_up_to
from rmflab.signs import (
    MultiplicativeEvaluator,
    SignAssignment,
    load_explicit_signs,
    mix64,
    prime_sign_table,
    trial_seed,
)

from oracles import (
    evaluate_f,
    evaluate_f_star,
    f_star_by_convolution,
    prime_sign_table_by_where,
    sign_at_prime,
    values_by_stripping,
)


def test_all_minus_one_mode():
    a = SignAssignment.all_minus_one()
    assert sign_at_prime(a, 2) == -1
    assert sign_at_prime(a, 97) == -1


def test_explicit_mode():
    a = SignAssignment.explicit({2: 1, 3: -1})
    assert sign_at_prime(a, 2) == 1
    assert sign_at_prime(a, 3) == -1
    with pytest.raises(MissingSignError):
        sign_at_prime(a, 5)
    with pytest.raises(DomainError):
        SignAssignment.explicit({2: 0})


def test_iid_determinism():
    a = SignAssignment.iid(12345)
    first = sign_at_prime(a, 3)
    assert sign_at_prime(a, 3) == first
    assert sign_at_prime(SignAssignment.iid(12345), 3) == first


def test_scalar_matches_vectorized(table_1e5):
    primes = primes_up_to(table_1e5)
    for seed in (0, 1, 2**63 + 17):
        a = SignAssignment.iid(seed)
        vec = prime_sign_table(a, primes)
        scal = np.array([sign_at_prime(a, int(p)) for p in primes[:500]], dtype=np.int8)
        assert np.array_equal(vec[:500], scal)
        assert set(np.unique(vec)) <= {-1, 1}


def _assert_sign_table_matches_where_route(seed, primes):
    signs = prime_sign_table(SignAssignment.iid(seed), primes)
    assert signs.dtype == np.int8 and signs.shape == primes.shape
    assert np.array_equal(signs, prime_sign_table_by_where(seed, primes))
    assert np.all(np.abs(signs) == 1)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_sign_table_matches_the_where_route(table_1e5, seed):
    _assert_sign_table_matches_where_route(seed, primes_up_to(table_1e5))
    _assert_sign_table_matches_where_route(seed, primes_up_to(table_1e5)[:0])


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**64 - 1))
def test_sign_table_matches_the_where_route_at_any_seed(table_1e5, seed):
    _assert_sign_table_matches_where_route(seed, primes_up_to(table_1e5))


def test_fair_coin_across_seeds():
    # for fixed p the empirical mean over seeds tends to 0
    p = 101
    values = [sign_at_prime(SignAssignment.iid(seed), p) for seed in range(4000)]
    assert abs(np.mean(values)) < 0.06  # ~4 sigma for a fair coin


def test_fair_coin_across_primes(table_1e6):
    primes = primes_up_to(table_1e6)
    mean = float(np.mean(prime_sign_table(SignAssignment.iid(7), primes).astype(np.float64)))
    assert abs(mean) < 0.015


def test_evaluate_f_trivial(table_1e5):
    ev = MultiplicativeEvaluator(SignAssignment.iid(9), table_1e5)
    assert evaluate_f(ev, 1) == 1
    assert evaluate_f(ev, 4) == 0
    minus = MultiplicativeEvaluator(SignAssignment.all_minus_one(), table_1e5)
    assert evaluate_f(minus, 10) == 1  # mu(10) = 1


def test_evaluate_f_star_trivial(table_1e5):
    for seed in range(20):
        ev = MultiplicativeEvaluator(SignAssignment.iid(seed), table_1e5)
        assert evaluate_f_star(ev, 4) == 1
        assert evaluate_f_star(ev, 1) == 1
    minus = MultiplicativeEvaluator(SignAssignment.all_minus_one(), table_1e5)
    assert evaluate_f_star(minus, 8) == -1  # lambda(8) = (-1)^3
    assert sum(evaluate_f_star(minus, n) for n in range(1, 11)) == 0  # L(10)


def test_mu_lambda_recovery_exhaustive(table_1e5, oracle_mu_1e5, oracle_lambda_1e5):
    minus = MultiplicativeEvaluator(SignAssignment.all_minus_one(), table_1e5)
    f = minus.values_up_to(10**5, "f").astype(np.int64)
    fstar = minus.values_up_to(10**5, "fstar").astype(np.int64)
    assert np.array_equal(f[1:], oracle_mu_1e5[1:])
    assert np.array_equal(fstar[1:], oracle_lambda_1e5[1:])


def test_bulk_matches_scalar(table_1e5):
    for seed in (3, 77):
        ev = MultiplicativeEvaluator(SignAssignment.iid(seed), table_1e5)
        f = ev.values_up_to(3000, "f")
        fstar = ev.values_up_to(3000, "fstar")
        for n in range(1, 3001):
            assert f[n] == evaluate_f(ev, n)
            assert fstar[n] == evaluate_f_star(ev, n)


# limits on both sides of the dyadic block edges 2^k, and anywhere in 1..5000
LIMITS = st.one_of(
    st.sampled_from([2**k + d for k in range(13) for d in (-1, 0, 1) if 1 <= 2**k + d <= 5000]),
    st.integers(1, 5000),
)


@st.composite
def assignments(draw, limit: int):
    mode = draw(st.sampled_from(["iid", "minus-one", "explicit"]))
    if mode == "iid":
        return SignAssignment.iid(draw(st.integers(0, 2**64 - 1)))
    if mode == "minus-one":
        return SignAssignment.all_minus_one()
    primes = [p for p in range(2, limit + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    bits = draw(st.integers(0, 2 ** len(primes) - 1))
    return SignAssignment.explicit({p: 1 - 2 * ((bits >> i) & 1) for i, p in enumerate(primes)})


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_values_up_to_matches_stripping_oracle_and_scalars(table_1e5, data):
    limit = data.draw(LIMITS)
    ev = MultiplicativeEvaluator(data.draw(assignments(limit)), table_1e5)
    for model, scalar in (("f", evaluate_f), ("fstar", evaluate_f_star)):
        g = ev.values_up_to(limit, model)
        assert g.dtype == np.int8 and g.shape == (limit + 1,)
        assert np.array_equal(g, values_by_stripping(ev, limit, model))
        assert g[1:].tolist() == [scalar(ev, n) for n in range(1, limit + 1)]


def test_convolution_identity_exhaustive(table_1e5):
    # fstar = f convolved with the perfect-square indicator, and the sum
    # collapses to exactly one nonzero term
    for seed in range(10):
        ev = MultiplicativeEvaluator(SignAssignment.iid(seed), table_1e5)
        for n in list(range(1, 200)) + [12, 144, 1024, 9999]:
            assert f_star_by_convolution(ev, n) == evaluate_f_star(ev, n)


def test_convolution_examples(table_1e5):
    ev = MultiplicativeEvaluator(SignAssignment.iid(4), table_1e5)
    assert f_star_by_convolution(ev, 1) == 1
    # n = 12: d = 1 contributes f(12) = 0, d = 2 contributes f(3)
    assert f_star_by_convolution(ev, 12) == evaluate_f(ev, 3)


def test_multiplicativity_on_coprime_pairs(table_1e6):
    rng = np.random.default_rng(42)
    ev = MultiplicativeEvaluator(SignAssignment.iid(13), table_1e6)
    checked = 0
    while checked < 10**4:
        m = int(rng.integers(1, 1000))
        n = int(rng.integers(1, 1000))
        if math.gcd(m, n) != 1:
            continue
        assert evaluate_f(ev, m * n) == evaluate_f(ev, m) * evaluate_f(ev, n)
        checked += 1


def test_complete_multiplicativity_on_all_pairs(table_1e6):
    rng = np.random.default_rng(43)
    ev = MultiplicativeEvaluator(SignAssignment.iid(14), table_1e6)
    for _ in range(10**4):
        m = int(rng.integers(1, 1000))
        n = int(rng.integers(1, 1000))
        assert evaluate_f_star(ev, m * n) == evaluate_f_star(ev, m) * evaluate_f_star(ev, n)


def test_support_is_squarefree(table_1e5):
    from oracles import is_squarefree

    ev = MultiplicativeEvaluator(SignAssignment.iid(15), table_1e5)
    f = ev.values_up_to(10**5, "f")
    for n in range(1, 10**5 + 1):
        assert (f[n] == 0) == (not is_squarefree(n, table_1e5))


def test_squarefree_count_1e6_via_bulk(table_1e6):
    # nonzero support of f is exactly the squarefree integers
    ev = MultiplicativeEvaluator(SignAssignment.iid(1), table_1e6)
    f = ev.values_up_to(10**6, "f")
    assert int(np.count_nonzero(f[1:])) == 607926


def test_explicit_signs_file(tmp_path, table_1e5):
    path = tmp_path / "signs.txt"
    path.write_text("# fixture\n2 1\n3 -1\n5 1\n7 -1\n\n")
    signs = load_explicit_signs(path)
    assert signs == {2: 1, 3: -1, 5: 1, 7: -1}
    ev = MultiplicativeEvaluator(SignAssignment.explicit(signs), table_1e5)
    assert evaluate_f(ev, 6) == -1
    with pytest.raises(MissingSignError):
        evaluate_f(ev, 11)


def test_explicit_signs_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1 extra\n")
    with pytest.raises(DomainError):
        load_explicit_signs(bad)
    bad.write_text("1 1\n")
    with pytest.raises(DomainError):
        load_explicit_signs(bad)
    bad.write_text("3 2\n")
    with pytest.raises(DomainError):
        load_explicit_signs(bad)


def test_values_up_to_explicit_missing_prime(table_1e5):
    ev = MultiplicativeEvaluator(SignAssignment.explicit({2: 1}), table_1e5)
    with pytest.raises(MissingSignError):
        ev.values_up_to(10, "fstar")


def test_trial_seed_mixing():
    assert trial_seed(42, 0) == trial_seed(42, 0)
    seeds = {trial_seed(42, i) for i in range(10**4)}
    assert len(seeds) == 10**4
    assert trial_seed(42, 1) != trial_seed(43, 1)
    with pytest.raises(DomainError):
        trial_seed(42, -1)


def test_mix64_is_bijective_sample():
    outs = {mix64(z) for z in range(10**4)}
    assert len(outs) == 10**4
