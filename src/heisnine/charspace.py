"""Finitely supported functions P3 -> F_3 and their cubic characters.

P3 is {3} together with the primes p = 1 (mod 3).  A support function f
encodes the character chi(f) = prod_p chi_p^f(p) (with chi_3 the order-3
character mod 9), of conductor Delta(f) or 9 Delta(f); the F_3 structure
(linear combinations) mirrors composition of characters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping

from ._primes import check_int, is_prime, primes_in_class

__all__ = [
    "SupportFunction",
    "delta",
    "conductor",
    "DeltaIndex",
    "enumerate_deltas",
]


def _valid_prime(p: int) -> bool:
    return p == 3 or (p % 3 == 1 and is_prime(p))


@dataclass(frozen=True, order=True)
class SupportFunction:
    """Sorted (prime, value) pairs with values in {1, 2}; zeros are dropped,
    so structural equality is equality of functions.  Primes and values are
    ints (TypeError otherwise; a bool is not one)."""

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        last = 0
        for p, v in self.entries:
            check_int(p, "prime")
            check_int(v, "value")
            if p <= last:
                raise ValueError(f"entries out of order at prime {p}")
            if v not in (1, 2):
                raise ValueError(f"value {v} at {p} must be 1 or 2")
            if not _valid_prime(p):
                raise ValueError(f"{p} is not 3 or a prime = 1 mod 3")
            last = p

    @classmethod
    def of(cls, values: Mapping[int, int]) -> "SupportFunction":
        ent = tuple(sorted((p, v % 3) for p, v in values.items() if v % 3))
        return cls(ent)

    @classmethod
    def _trusted(cls, entries: tuple[tuple[int, int], ...]) -> "SupportFunction":
        """The function with these entries, not checked: for entries the
        census built sorted, nonzero and on 3 or split primes."""
        f = object.__new__(cls)
        object.__setattr__(f, "entries", entries)
        return f

    def value(self, p: int) -> int:
        for q, v in self.entries:
            if q == p:
                return v
        return 0

    @property
    def f3(self) -> int:
        return self.value(3)

    @property
    def supp3(self) -> tuple[int, ...]:
        """Support away from 3."""
        return tuple(p for p, _ in self.entries if p != 3)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        return ",".join(f"{p}:{v}" for p, v in self.entries)


def delta(f: SupportFunction) -> int:
    """Product of the support primes away from 3."""
    out = 1
    for p in f.supp3:
        out *= p
    return out


def conductor(f: SupportFunction) -> int:
    return 9 * delta(f) if f.f3 else delta(f)


# ---------------------------------------------------------------------------
# enumeration of squarefree moduli and their function spaces


@dataclass(frozen=True)
class DeltaIndex:
    """A squarefree product of primes = 1 (mod 3), with its factorization."""

    delta: int
    primes: tuple[int, ...]


@lru_cache(maxsize=64)
def _deltas_cached(limit: int) -> tuple[DeltaIndex, ...]:
    """Depth-first over products of increasing split primes, each node's
    children cut at the first prime that takes the product past limit."""
    # plain ints: a product of int64 primes would wrap past 2^63
    ps = primes_in_class(limit, 3, 1).tolist()
    out = [DeltaIndex(1, ())]
    stack = [(1, (), 0)]
    while stack:
        d, primes, i = stack.pop()
        for k in range(i, len(ps)):
            m = d * ps[k]
            if m > limit:
                break
            node = primes + (ps[k],)
            out.append(DeltaIndex(m, node))
            stack.append((m, node, k + 1))
    return tuple(sorted(out, key=lambda d: d.delta))


def enumerate_deltas(limit: int) -> Iterator[DeltaIndex]:
    """All Delta <= limit that are squarefree products of primes = 1 mod 3,
    ascending, including Delta = 1.  limit is an integer (TypeError
    otherwise)."""
    check_int(limit, "limit")
    if limit < 1:
        return iter(())
    return iter(_deltas_cached(limit))
