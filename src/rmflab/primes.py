"""Smallest-prime-factor sieve and the list of primes it yields.

The sieve is the only piece of shared number-theoretic state in the package:
everything downstream (sign evaluation, partial sums, prime sums) reads
smallest prime factors from it, through sieve_for, the one gate that checks
and builds a sieve, and the list of primes is derived from it once per
table.  spf_cofactors and squarefree_mask derive the per-n arrays that a run
of the series engine builds once.

Memory: entries are stored as uint32, so a table up to N costs 4*(N+1) bytes
plus numpy overhead (40 MB at N=10^7, 400 MB at N=10^8).  N may not exceed
2^32 - 1.  Construction is single-threaded; the finished table is immutable
and safe for concurrent reads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceError, require_memory

#: Largest supported sieve limit (uint32 entries).
MAX_LIMIT = 2**32 - 1
#: Integers per chunk of the derived per-n arrays.
_CHUNK = 2**20


@dataclass(frozen=True)
class SpfTable:
    """Smallest prime factor of every integer in [2, limit].

    ``spf[n]`` is the smallest prime factor of n for 2 <= n <= limit
    (entries 0 and 1 are unused and set to 0).  ``spf[p] == p`` exactly when
    p is prime.
    """

    limit: int
    spf: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.spf.setflags(write=False)

    @functools.cached_property
    def primes(self) -> np.ndarray:
        """All primes <= limit, strictly increasing, as read-only int64;
        computed on first use."""
        n = np.arange(2, self.limit + 1, dtype=np.uint32)
        primes = (np.flatnonzero(self.spf[2:] == n) + 2).astype(np.int64)
        primes.setflags(write=False)
        return primes

    def check_range(self, n: int) -> None:
        if not 1 <= n <= self.limit:
            raise DomainError(f"n={n} outside sieve range [1, {self.limit}]")


def build_spf_sieve(limit: int) -> SpfTable:
    """Build the smallest-prime-factor table for [2, limit].

    Deterministic; raises DomainError for limit < 2 and ResourceError if the
    4*(limit+1)-byte array cannot be allocated.
    """
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > MAX_LIMIT:
        raise DomainError(f"sieve limit {limit} exceeds uint32 bound {MAX_LIMIT}")
    try:
        spf = np.zeros(limit + 1, dtype=np.uint32)
    except MemoryError as exc:
        raise ResourceError(
            f"cannot allocate spf table for limit {limit}",
            requested_bytes=4 * (limit + 1),
        ) from exc
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == 0:
            block = spf[i * i :: i]
            block[block == 0] = i
    # Remaining zero entries at n >= 2 are primes > sqrt(limit).
    n = np.arange(limit + 1, dtype=np.uint32)
    mask = (spf == 0) & (n >= 2)
    spf[mask] = n[mask]
    return SpfTable(limit=limit, spf=spf)


def prime_count_bound(x: int) -> int:
    """An upper bound on pi(x) known before any sieve: pi(x) < 1.26 x / ln x
    for x > 1 (Rosser and Schoenfeld), as int(1.26 (x + 1) / ln max(x, 3))."""
    return int(1.26 * (x + 1) / math.log(max(x, 3)))


def sieve_for(limit: int, table: SpfTable | None, more: int, what: str) -> SpfTable:
    """The sieve that `what` reads up to limit: table if given, else a new one.

    Raises DomainError if limit < 2 or table covers less than limit.  Before
    anything is allocated, raises ResourceError if `more` bytes, which the
    caller allocates besides, and a new sieve's 4*(limit+1) bytes exceed
    physical memory; with a table and more = 0 there is nothing to check.
    """
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if table is not None and table.limit < limit:
        raise DomainError(f"provided sieve covers {table.limit} < required {limit}")
    need = more + (0 if table is not None else 4 * (limit + 1))
    if need:
        require_memory(need, what)
    return table if table is not None else build_spf_sieve(limit)


def spf_cofactors(table: SpfTable, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(cofactor, spf_index) of every n <= limit, both int32.

    For 2 <= n <= limit, cofactor[n] = n / spf(n) and spf_index[n] is the
    index of spf(n) in primes_up_to(table); entries 0 and 1 are 0.  As
    cofactor[n] <= n/2 < 2^31, int32 holds them for every table.
    """
    table.check_range(limit)
    cofactor = np.zeros(limit + 1, dtype=np.int32)
    spf_index = np.zeros(limit + 1, dtype=np.int32)
    primes = primes_up_to(table, limit)
    spf_index[primes] = np.arange(primes.size, dtype=np.int32)
    # In chunks, to keep the float64 and index temporaries small; rewriting
    # spf_index in place is safe as its entry at a prime never changes.
    for lo in range(2, limit + 1, _CHUNK):
        hi = min(lo + _CHUNK, limit + 1)
        spf = table.spf[lo:hi]
        # exact: p divides n, and n < 2^32 is far below 2^53
        np.divide(np.arange(lo, hi, dtype=np.float64), spf, out=cofactor[lo:hi], casting="unsafe")
        spf_index[lo:hi] = spf_index.take(spf)
    return cofactor, spf_index


def squarefree_mask(table: SpfTable, limit: int) -> np.ndarray:
    """bool array s with s[n] true exactly when 1 <= n <= limit is squarefree."""
    table.check_range(limit)
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    for p in primes_up_to(table, math.isqrt(limit)):
        mask[p * p :: p * p] = False
    return mask


def primes_up_to(table: SpfTable, limit: int | None = None) -> np.ndarray:
    """All primes <= limit (default table.limit), strictly increasing, as
    read-only int64.

    A view of SpfTable.primes, computed once per table and shared by every
    call.  Raises DomainError if limit exceeds table.limit.
    """
    if limit is not None and limit > table.limit:
        raise DomainError(f"primes up to {limit} requested from a sieve up to {table.limit}")
    primes = table.primes
    return primes if limit is None else primes[: np.searchsorted(primes, limit, "right")]

