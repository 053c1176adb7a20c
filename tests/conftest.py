import os

import numpy as np
import pytest

from rmflab.primes import build_spf_sieve


@pytest.fixture(scope="session")
def table_1e6():
    return build_spf_sieve(10**6)


@pytest.fixture(scope="session")
def table_1e5():
    return build_spf_sieve(10**5)


def host_of(monkeypatch, pages: int) -> None:
    """Make os.sysconf report a host of `pages` 4 KiB pages."""
    monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}[name])


# ---------------------------------------------------------------------------
# Independent oracles (no rmflab internals): composite marking by trial
# division, Moebius / Liouville by direct prime-power sieves.
# ---------------------------------------------------------------------------


def oracle_prime_mask(limit: int) -> np.ndarray:
    """is_prime[0..limit] by marking multiples of every d >= 2 (trial division
    in sieve form; deliberately does not skip composite d)."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for d in range(2, int(limit**0.5) + 1):
        mask[2 * d :: d] = False
    return mask


def oracle_mobius(limit: int) -> np.ndarray:
    """mu(0..limit) via sign flips at primes and zeroing at squares."""
    mask = oracle_prime_mask(limit)
    mu = np.ones(limit + 1, dtype=np.int64)
    mu[0] = 0
    for p in range(2, limit + 1):
        if mask[p]:
            mu[p::p] *= -1
            if p * p <= limit:
                mu[p * p :: p * p] = 0
    return mu


def oracle_liouville(limit: int) -> np.ndarray:
    """lambda(0..limit) via sign flips at every prime power."""
    mask = oracle_prime_mask(limit)
    lam = np.ones(limit + 1, dtype=np.int64)
    lam[0] = 0
    for p in range(2, limit + 1):
        if mask[p]:
            q = p
            while q <= limit:
                lam[q::q] *= -1
                q *= p
    return lam


@pytest.fixture(scope="session")
def oracle_mu_1e5():
    return oracle_mobius(10**5)


@pytest.fixture(scope="session")
def oracle_lambda_1e5():
    return oracle_liouville(10**5)
