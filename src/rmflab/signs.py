"""Sign assignments on primes and the two random multiplicative functions.

A :class:`SignAssignment` is the single source of randomness.  In IID mode
the sign at a prime p is a pure function of (seed, p) computed by a fixed
64-bit mixing function, so values never depend on evaluation order, thread
count, or machine: scattered and parallel evaluation agree bit-for-bit with
sequential evaluation.

From an assignment and an spf table, :class:`MultiplicativeEvaluator`
evaluates in bulk, for every n up to a limit at once,

* ``f(n)``  -- zero unless n is squarefree, otherwise the product of the
  signs at the distinct primes dividing n, and
* ``fstar(n)`` -- the completely multiplicative extension: the product of
  sign(p)^a over the prime powers p^a exactly dividing n.

Both take the value 1 at n = 1 (empty product).  Scalar routes that evaluate
one prime or one n by factorization live in ``tests/oracles.py``, where the
tests check the bulk routes against them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DomainError, MissingSignError
from .primes import SpfTable, primes_up_to

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_TRIAL_SALT = 0x5851F42D4C957F2D


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective mixing of a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized mix64 on a uint64 array (wrapping arithmetic)."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> 30
    z *= np.uint64(_MIX_A)
    z ^= z >> 27
    z *= np.uint64(_MIX_B)
    z ^= z >> 31
    return z


def trial_seed(base_seed: int, index: int) -> int:
    """Derive the seed of trial ``index`` from an experiment's base seed.

    mix64((base_seed ^ salt) + index * golden mod 2^64); injective in index,
    so trials are independent of execution order.
    """
    if index < 0:
        raise DomainError(f"trial index must be >= 0, got {index}")
    return mix64(((base_seed ^ _TRIAL_SALT) + index * _GOLDEN) & _MASK64)


class SignMode(enum.Enum):
    IID_RADEMACHER = "iid"
    ALL_MINUS_ONE = "minus-one"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class SignAssignment:
    """A reproducible rule prime -> {-1, +1}.

    mode IID_RADEMACHER: sign(p) = high bit of mix64(seed + p*golden mod 2^64)
    mapped to {+1, -1}; a fair coin per prime, deterministic in (seed, p).
    mode ALL_MINUS_ONE: every prime maps to -1 (f becomes the Moebius
    function, fstar the Liouville function).
    mode EXPLICIT: signs read from a finite map; querying a missing prime
    raises MissingSignError.
    """

    mode: SignMode
    seed: int = 0
    explicit_signs: Mapping[int, int] | None = None

    @classmethod
    def iid(cls, seed: int) -> "SignAssignment":
        return cls(mode=SignMode.IID_RADEMACHER, seed=seed & _MASK64)

    @classmethod
    def all_minus_one(cls) -> "SignAssignment":
        return cls(mode=SignMode.ALL_MINUS_ONE)

    @classmethod
    def explicit(cls, signs: Mapping[int, int]) -> "SignAssignment":
        for p, s in signs.items():
            if s not in (-1, 1):
                raise DomainError(f"explicit sign at p={p} must be -1 or +1, got {s}")
        return cls(mode=SignMode.EXPLICIT, explicit_signs=dict(signs))


def prime_sign_table(assignment: SignAssignment, primes: np.ndarray) -> np.ndarray:
    """Signs at an array of primes, as int8, by the rule of SignAssignment.

    Checked entry by entry against the scalar oracles.sign_at_prime.
    """
    if assignment.mode is SignMode.ALL_MINUS_ONE:
        return np.full(len(primes), -1, dtype=np.int8)
    if assignment.mode is SignMode.EXPLICIT:
        signs = assignment.explicit_signs or {}
        out = np.empty(len(primes), dtype=np.int8)
        for i, p in enumerate(primes):
            pv = int(p)
            if pv not in signs:
                raise MissingSignError(f"explicit assignment has no sign for p={pv}")
            out[i] = signs[pv]
        return out
    z = np.uint64(assignment.seed) + primes.astype(np.uint64) * np.uint64(_GOLDEN)
    z = _mix64_array(z)
    return np.where((z >> 63) == 0, 1, -1).astype(np.int8)


class MultiplicativeEvaluator:
    """Pure evaluation of f and fstar against a fixed assignment and sieve."""

    def __init__(self, assignment: SignAssignment, table: SpfTable):
        self.assignment = assignment
        self.table = table

    def sign_by_value(self, limit: int) -> np.ndarray:
        """int8 array s with s[p] = sign at p for every prime p <= limit.

        Entries at non-prime indices are 0.  Explicit assignments must cover
        every prime <= limit.
        """
        self.table.check_range(max(limit, 1))
        primes = primes_up_to(self.table)
        primes = primes[primes <= limit]
        out = np.zeros(limit + 1, dtype=np.int8)
        out[primes] = prime_sign_table(self.assignment, primes)
        return out

    def values_up_to(self, limit: int, model: str) -> np.ndarray:
        """Bulk values g(1..limit) as int8 (index 0 unused, set to 0).

        model 'f' gives the squarefree-supported function, 'fstar' the
        completely multiplicative one.  With p = spf(n) and q = n/p,
        fstar(n) = fstar(q) s(p), and f(n) = f(q) s(p) when p does not
        divide q, else 0.  As q <= n/2, each dyadic block [2^j, 2^(j+1))
        reads g only at blocks already finished, so a block is one
        vectorized step and the cost is O(limit).  Agrees entrywise with the
        scalar oracles.evaluate_f and oracles.evaluate_f_star.
        """
        if model not in ("f", "fstar"):
            raise DomainError(f"model must be 'f' or 'fstar', got {model!r}")
        self.table.check_range(limit)
        sign_of = self.sign_by_value(limit)
        spf = self.table.spf
        g = np.zeros(limit + 1, dtype=np.int8)
        g[1] = 1
        lo = 2
        while lo <= limit:
            hi = min(2 * lo, limit + 1)
            p = spf[lo:hi]
            # exact: p divides n, and n < 2^32 is far below 2^53
            q = (np.arange(lo, hi, dtype=np.float64) / p).astype(np.intp)
            s = sign_of[p]
            if model == "f":
                # every prime of q is >= p, so p | q exactly when spf(q) = p
                s *= spf[q] != p
            np.multiply(g[q], s, out=g[lo:hi])
            lo = hi
        return g


def load_explicit_signs(path) -> dict[int, int]:
    """Read a two-column text file "p sign" into an explicit sign map.

    Blank lines and lines starting with '#' are ignored; signs must parse to
    -1 or +1.
    """
    signs: dict[int, int] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise DomainError(f"{path}:{lineno}: expected 'p sign', got {line!r}")
            p, s = int(parts[0]), int(parts[1])
            if p < 2:
                raise DomainError(f"{path}:{lineno}: p must be >= 2, got {p}")
            if s not in (-1, 1):
                raise DomainError(f"{path}:{lineno}: sign must be -1 or +1, got {s}")
            signs[p] = s
    return signs
