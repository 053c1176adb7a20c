"""Sign assignments on primes and the two random multiplicative functions.

A :class:`SignAssignment` is the single source of randomness.  In IID mode
the sign at a prime p is a pure function of (seed, p) computed by a fixed
64-bit mixing function, so values never depend on evaluation order, thread
count, or machine: scattered and parallel evaluation agree bit-for-bit with
sequential evaluation.

From rows of signs at the primes, :func:`sign_lanes` evaluates fstar for up
to 64 assignments at once, one bit lane each; from an assignment and an spf
table, :class:`MultiplicativeEvaluator` evaluates in bulk, for every n up to
a limit at once,

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
from .primes import SpfTable, primes_up_to, squarefree_mask

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_TRIAL_SALT = 0x5851F42D4C957F2D
#: Most integers per step of sign_lanes, which bounds its temporaries.
LANE_STEP = 2**16


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective mixing of a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


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

    @classmethod
    def of(cls, mode: SignMode | str, seed: int = 0, signs_file=None) -> "SignAssignment":
        """The assignment of a sign mode: iid from seed, all -1, or read from signs_file."""
        mode = SignMode(mode)
        if mode is SignMode.EXPLICIT:
            return cls.explicit(load_explicit_signs(signs_file))
        return cls.all_minus_one() if mode is SignMode.ALL_MINUS_ONE else cls.iid(seed)


def prime_sign_table(assignment: SignAssignment, primes: np.ndarray) -> np.ndarray:
    """Signs at an array of primes, as int8, by the rule of SignAssignment.

    In iid mode, mix64 runs in place on one uint64 buffer, with one reused
    temporary for the shifts; the sign is 1 - 2 b for the top bit b, which
    the last step z ^ (z >> 31) leaves unchanged, so that step is skipped.
    Checked entry by entry against the scalar oracles.sign_at_prime and the
    whole-array oracles.prime_sign_table_by_where.
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
    z = np.multiply(primes, np.uint64(_GOLDEN), dtype=np.uint64, casting="unsafe")
    z += np.uint64(assignment.seed)
    shifted = np.empty_like(z)
    for shift, factor in ((30, _MIX_A), (27, _MIX_B)):
        z ^= np.right_shift(z, np.uint64(shift), out=shifted)
        z *= np.uint64(factor)
    signs = np.right_shift(z, np.uint64(63), out=z).astype(np.int8)
    signs *= -2
    signs += 1
    return signs


def lane_dtype(batch: int) -> type:
    """The narrowest unsigned integer type with a bit for each of `batch` <= 64 trials."""
    return next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if np.iinfo(t).bits >= batch)


def sign_lanes(rows, table: SpfTable, limit: int) -> np.ndarray:
    """fstar(0..limit) for up to 64 rows of signs at once, one bit lane per row.

    rows[k] holds the signs at primes_up_to(table, limit), as
    prime_sign_table returns them; bit k of lanes[n] is set exactly when
    fstar(n) = -1 under rows[k] (bit 0 throughout at n = 0 and n = 1), in
    words of lane_dtype(len(rows)).  Each prime gets its word first.  A step
    over [lo, hi) then sets lanes[n] to lanes[n/p] XOR lanes[p] for p =
    spf(n), read from the sieve.  At a composite n, p <= sqrt(n) < lo holds
    its prime's word and fstar(n) = fstar(n/p) s(p); at a prime, n/p = 1
    and the word stays its own.  As n/p <= n/2, a step with hi <= 2 lo reads
    only finished words: a step is one XOR of gathered words for the whole
    batch, and the cost O(limit).  A step holds at most min(LANE_STEP,
    (limit + 1) // 2) integers, as hi - lo <= min(lo, limit + 1 - lo);
    besides lanes and the packed words (w bytes per prime for words of w
    bytes) its temporaries take (16 + 2 w) bytes per integer of that
    largest step (tracemalloc at limit = 10^6: 18, 20, 24, 32 for w = 1, 2,
    4, 8).
    """
    dtype = lane_dtype(len(rows))
    words = np.zeros(len(rows[0]), dtype=dtype)
    for k, row in enumerate(rows):
        words |= (row < 0).astype(dtype) << k
    lanes = np.zeros(limit + 1, dtype=dtype)
    lanes[primes_up_to(table, limit)] = words
    ints = np.empty(min(LANE_STEP, (limit + 1) // 2), dtype=np.intp)
    lo = 4
    while lo <= limit:
        hi = min(2 * lo, lo + LANE_STEP, limit + 1)
        spf, at = table.spf[lo:hi], ints[: hi - lo]
        # n / spf(n) is exact in float64: spf(n) divides n < 2^32
        np.divide(np.arange(lo, hi, dtype=np.float64), spf, out=at, casting="unsafe")
        np.bitwise_xor(lanes.take(at), lanes.take(spf), out=lanes[lo:hi])
        lo = hi
    return lanes


class MultiplicativeEvaluator:
    """Pure evaluation of f and fstar against a fixed assignment and sieve."""

    def __init__(self, assignment: SignAssignment, table: SpfTable):
        self.assignment = assignment
        self.table = table

    def values_up_to(self, limit: int, model: str) -> np.ndarray:
        """Bulk values g(1..limit) as int8 (index 0 unused, set to 0).

        model 'f' gives the squarefree-supported function, 'fstar' the
        completely multiplicative one: sign_lanes for a batch of one, and f
        is fstar at squarefree n, else 0.  Explicit assignments must cover
        every prime <= limit.  Agrees entrywise with the scalar
        oracles.evaluate_f and oracles.evaluate_f_star.
        """
        if model not in ("f", "fstar"):
            raise DomainError(f"model must be 'f' or 'fstar', got {model!r}")
        self.table.check_range(limit)
        primes = primes_up_to(self.table, limit)
        lanes = sign_lanes([prime_sign_table(self.assignment, primes)], self.table, limit)
        g = 1 - 2 * lanes.view(np.int8)
        if model == "f":
            g *= squarefree_mask(self.table, limit)
        g[0] = 0
        return g


def load_explicit_signs(path) -> dict[int, int]:
    """Read a two-column text file "p sign" into an explicit sign map.

    Blank lines and lines starting with '#' are ignored; each p comes once,
    its sign -1 or +1.  A malformed line raises DomainError naming path:line.
    """
    signs: dict[int, int] = {}
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:  # a UnicodeDecodeError is a ValueError too
                stripped = line.decode("ascii").strip()
                if not stripped or stripped.startswith("#"):
                    continue
                p, s = map(int, stripped.split())
            except ValueError:
                raise DomainError(f"{path}:{lineno}: expected two ASCII integers 'p sign', got {line!r}") from None
            if p < 2:
                raise DomainError(f"{path}:{lineno}: p must be >= 2, got {p}")
            if s not in (-1, 1):
                raise DomainError(f"{path}:{lineno}: sign must be -1 or +1, got {s}")
            if p in signs:
                raise DomainError(f"{path}:{lineno}: p = {p} is listed twice")
            signs[p] = s
    return signs
