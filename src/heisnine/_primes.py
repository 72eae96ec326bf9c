"""Prime sieves and a deterministic Miller-Rabin test.

Shared plumbing: the ring arithmetic needs a primality check for input
validation, the summation and constant pipelines need dense prime arrays,
and a few small moduli are factored by trial division.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_int", "check_type", "is_prime", "prime_divisors",
           "primes_up_to", "primes_in_class", "progression_sieve"]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Miller-Rabin witnesses by the size of n: (2, 7, 61) below 4,759,123,141
# (Jaeschke 1993), the first 13 primes below psi_13 (Sorenson and Webster
# 2015).  The first 12 primes fail at psi_12 = 318,665,857,834,031,151,167,461.
_MR_TIERS = ((4_759_123_141, (2, 7, 61)),
             (3_317_044_064_679_887_385_961_981, _SMALL_PRIMES))


def check_int(v: object, name: str) -> None:
    """TypeError unless v is an int; a bool is not one."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"{name} must be an integer, got {v!r}")


def check_type(v: object, kind: type, name: str) -> None:
    """TypeError unless v is an instance of kind."""
    if not isinstance(v, kind):
        raise TypeError(f"{name} must be a {kind.__name__}, got {v!r}")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < psi_13 ~ 3.3e24; ValueError at or
    above it unless a prime up to 41 divides n."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor up to 41; every base below is < n
        return True
    bases = next((b for bound, b in _MR_TIERS if n < bound), None)
    if bases is None:
        raise ValueError(f"primality of {n} is not decided past psi_13 ~ 3.3e24")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    m = n
    q = 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        out.append(m)
    return out


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (empty for n < 2)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def primes_in_class(n: int, mod: int, res: int) -> np.ndarray:
    """Primes p <= n with p = res (mod mod)."""
    ps = primes_up_to(n)
    return ps[ps % mod == res]


def progression_sieve(n: int, m: int, small: list[int]) -> np.ndarray:
    """s[k] is True exactly when 1 + k m <= n is prime (n >= 1, m >= 2).
    Each of small, the primes up to isqrt(n), that is prime to m strikes
    its multiples among the terms past itself."""
    sieve = np.ones((n - 1) // m + 1, dtype=bool)
    sieve[0] = False
    for p in small:
        if m % p:
            k = -pow(m, -1, p) % p  # 1 + k m = 0 (mod p); skip p itself
            sieve[k + p if 1 + k * m == p else k :: p] = False
    return sieve
