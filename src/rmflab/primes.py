"""Smallest-prime-factor sieve and the list of primes it yields.

The sieve is the only piece of shared number-theoretic state in the package:
everything downstream (sign evaluation, partial sums, prime sums) reads
smallest prime factors from it, through sieve_for, the one gate that checks
and builds a sieve.  The build stores p at every multiple of p from p^2 on,
for the primes p <= sqrt(N) in descending order, so the smallest prime
factor is stored last; the integers left at 0 are the primes, which the
table keeps.  squarefree_mask gives signs.MultiplicativeEvaluator its f;
the series engine reads spf straight from the table and builds no per-n
array for f, whose weights it zeroes at the multiples of p^2 per segment.

Memory: entries are stored as uint32, so a table up to N costs 4*(N+1) bytes
plus numpy overhead (40 MB at N=10^7, 400 MB at N=10^8), and its int64
primes 8 pi(N) bytes more.  The build peaks below 4(N+1) + (N+1) +
16 prime_count_bound(N) bytes, with its bool mask of zeros or two arrays of
primes.  N may not exceed 2^32 - 1.  Construction is single-threaded; the
finished table is immutable and safe for concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceError, physical_memory, require_memory

#: Largest supported sieve limit (uint32 entries).
MAX_LIMIT = 2**32 - 1


@dataclass(frozen=True)
class SpfTable:
    """Smallest prime factor of every integer in [2, limit].

    ``spf[n]`` is the smallest prime factor of n for 2 <= n <= limit
    (entries 0 and 1 are unused and set to 0).  ``spf[p] == p`` exactly when
    p is prime; ``primes`` holds all primes <= limit, strictly increasing, as
    int64.  Both arrays are read-only.
    """

    limit: int
    spf: np.ndarray = field(repr=False)
    primes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.spf.setflags(write=False)
        self.primes.setflags(write=False)

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
    root = math.isqrt(limit)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for i in range(2, math.isqrt(root) + 1):
        if small[i]:
            small[i * i :: i] = False
    # a smaller p overwrites a larger one, so n keeps its smallest prime
    # factor, and only the primes stay 0
    for p in np.flatnonzero(small)[::-1].tolist():
        spf[p * p :: p] = p
    primes = np.flatnonzero(spf[2:] == 0) + 2
    spf[primes] = primes
    return SpfTable(limit=limit, spf=spf, primes=primes)


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


def threads_that_fit(limit: int, threads: int, ask) -> int:
    """The most threads t <= threads whose ask(t) bytes, with a new sieve to
    limit, fit in physical memory; 1 if none does, whose ask sieve_for then
    refuses.  For a computation whose results do not depend on t."""
    physical = physical_memory()
    return next((t for t in range(threads, 1, -1) if physical is None or ask(t) + 4 * (limit + 1) <= physical), 1)


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

    SpfTable.primes or a view of it, shared by every call.  Raises
    DomainError if limit exceeds table.limit.
    """
    if limit is not None and limit > table.limit:
        raise DomainError(f"primes up to {limit} requested from a sieve up to {table.limit}")
    primes = table.primes
    return primes if limit is None else primes[: np.searchsorted(primes, limit, "right")]

