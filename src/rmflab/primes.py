"""The primes up to a limit, found by a sieve, and the squarefree mask.

The primes are the only piece of shared number-theoretic state in the
package: everything downstream (sign evaluation, partial sums, prime sums)
reads them from an SpfTable, through sieve_for, the one gate that checks
and builds a sieve.  The build strikes the multiples of each prime p <=
sqrt(N) from p^2 on out of a transient bool mask and keeps the primes.  No
smallest prime factor is stored: signs.sign_lanes builds fstar from the
primes alone, as fstar is completely multiplicative.  The names SpfTable
and build_spf_sieve stay, as callers, the benchmark's set-up and traced
layers among them, import them by name.

Memory: the table holds 8 pi(N) bytes of int64 primes (0.63 MB at N=10^6,
46 MB at N=10^8); the build peaks at sieve_bytes(N).  N may not exceed
MAX_LIMIT.  Construction is single-threaded; the finished table is
immutable and safe for concurrent reads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceError, physical_memory, require_memory

#: Largest supported sieve limit.  No stored type sets it any more; it stays
#: the documented domain of --limit and --prime-limit: nothing past it has
#: run, and there the mask and one trial's lane words alone take 8.6 GB.
MAX_LIMIT = 2**32 - 1


@dataclass(frozen=True)
class SpfTable:
    """The primes <= limit, as a sieve to limit yields them.

    ``primes`` holds all primes <= limit, strictly increasing, as read-only
    int64.  The name is kept from when the table also stored the smallest
    prime factor of every n; tests/oracles.py still builds that array.
    """

    limit: int
    primes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.primes.setflags(write=False)

    def check_range(self, n: int) -> None:
        if not 1 <= n <= self.limit:
            raise DomainError(f"n={n} outside sieve range [1, {self.limit}]")


def build_spf_sieve(limit: int) -> SpfTable:
    """The table of the primes <= limit, by a sieve of Eratosthenes.

    The name is kept from the smallest-prime-factor table it built before.
    Deterministic; raises DomainError for limit < 2 or > MAX_LIMIT and
    ResourceError if the mask cannot be allocated.
    """
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > MAX_LIMIT:
        raise DomainError(f"sieve limit {limit} exceeds {MAX_LIMIT}")
    try:
        prime = np.zeros(limit + 1, dtype=bool)
    except MemoryError as exc:
        raise ResourceError(f"cannot allocate the sieve to {limit}", requested_bytes=sieve_bytes(limit)) from exc
    prime[2:] = True
    for p in range(2, math.isqrt(limit) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    return SpfTable(limit=limit, primes=np.flatnonzero(prime))


def sieve_bytes(limit: int, more: int = 0) -> int:
    """What build_spf_sieve(limit), and `more` bytes allocated after it, take
    at their peak: the int64 primes (tracemalloc: 8 pi(N) and 0.4 kB)
    counted by prime_count_bound, which the table keeps, and its bool mask,
    which the build frees, or `more`, whichever is larger."""
    return 8 * prime_count_bound(limit) + max(limit + 1, more)


def prime_count_bound(x: int) -> int:
    """An upper bound on pi(x) known before any sieve: pi(x) < 1.26 x / ln x
    for x > 1 (Rosser and Schoenfeld), as int(1.26 (x + 1) / ln max(x, 3))."""
    return int(1.26 * (x + 1) / math.log(max(x, 3)))


def sieve_for(limit: int, table: SpfTable | None, more: int, what: str) -> SpfTable:
    """The sieve that `what` reads up to limit: table if given, else a new one.

    Raises DomainError if limit < 2 or table covers less than limit.  Before
    anything is allocated, raises ResourceError if `more` bytes, which the
    caller allocates once it has the sieve, exceed physical memory, with a
    new sieve counted at sieve_bytes(limit, more); with a table and more = 0
    there is nothing to check.
    """
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if table is not None and table.limit < limit:
        raise DomainError(f"provided sieve covers {table.limit} < required {limit}")
    need = more if table is not None else sieve_bytes(limit, more)
    if need:
        require_memory(need, what)
    return table if table is not None else build_spf_sieve(limit)


def threads_that_fit(limit: int, threads: int, ask, what: str) -> int:
    """The most threads t <= threads whose ask(t) bytes, after a new sieve to
    limit (sieve_bytes(limit, ask(t))), fit in physical memory; 1 if none
    does, whose ask sieve_for then refuses.  For a computation whose results
    do not depend on t; taking fewer than `threads`, it says so on stderr."""
    physical = physical_memory()
    fit = next((t for t in range(threads, 1, -1) if physical is None or sieve_bytes(limit, ask(t)) <= physical), 1)
    if fit < threads:
        print(f"note: {what} runs on {fit} of {threads} threads: more do not fit in physical memory", file=sys.stderr)
    return fit


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

