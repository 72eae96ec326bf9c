"""Sums of 2^omega over squarefree integers with split prime factors.

K(x; ell, d) = sum over squarefree n <= x, all prime factors = 1 (mod ell),
gcd(n, d) = 1, of (ell - 1)^omega(n).  These grow linearly: K(x; ell, d) ~
alpha_ell psi_ell(d) x, the Tauberian input for the census main term.

k_direct counts them exactly, by a depth-first walk whose leaves are read
off the number of primes = 1 (mod ell) up to each x // k.  Those counts come
from Legendre's sieve in residue classes (_class_counts): the primes up to
x^(1/3) strike one at a time, and those above it in one batch.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import isqrt, pi as PI, prod

import numpy as np

from ._primes import (check_int, is_prime, prime_divisors, primes_up_to,
                      progression_sieve)

__all__ = ["k_direct", "psi_ell", "alpha_ell"]

# the leaf-counting DFS reads its leaf counts off prime
# counts at the values x // k, so it lists only the primes <= sqrt(x) and
# holds O(ell sqrt(x)) integers, or x / ell bytes if fewer (at the cap,
# ell = 3: 0.11-0.17 s cold and ~7.6 MB peak, 2 cores, Python 3.11).  The
# cap stays because a d whose cofactor exceeds x takes a pass over
# (sqrt(x), x] (~0.45 s at the cap), which keeps its limb arithmetic in
# uint64 only for x <= 2^32
K_DIRECT_MAX = 10**9


# (v, p) pairs per pass of _class_counts' batched strikes.  At K_DIRECT_MAX,
# ell = 3, the batch holds about 3 MB of temporaries, less than the
# prime-by-prime strikes before it, so it adds nothing to the peak
_STRIKE_CHUNK = 2**14


def _check_ell(ell: int) -> None:
    if not is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")


def _values(x: int) -> np.ndarray:
    """0 and then every x // k, k >= 1, once, ascending: 0, 1, ..., isqrt(x),
    then x // k for k descending to 1.  A value x // k above isqrt(x) sits
    at index len - k."""
    r = isqrt(x)
    big = r if x // r > r else r - 1
    return np.concatenate(
        (np.arange(r + 1, dtype=np.int64), x // np.arange(big, 0, -1, dtype=np.int64))
    )


def _class_counts(x: int, ell: int, small: list[int]) -> np.ndarray:
    """counts[c, i], the number of primes p <= _values(x)[i] with p = c
    (mod ell); small lists the primes up to isqrt(x).

    Legendre's sieve in residue classes: start from the integers 2..v of
    each class, then for each prime p <= sqrt(x) strike, at every v >= p^2,
    the p m with m >= p free of primes below p.  Those m <= v // p in class
    c / p are counted at v // p, less the primes below p counted at p - 1;
    p = ell strikes class 0 by the m of every class.

    The primes p <= x^(1/3), and ell, strike one at a time.  A larger p
    reads only below x^(2/3) < p^2 (at v // p <= x / p and at p - 1) and
    writes only at v >= p^2, so no such prime reads what another writes:
    their strikes commute and all of them are summed in one pass over the
    (v, p) pairs with p^2 <= v, _STRIKE_CHUNK pairs at a time.
    """
    r = isqrt(x)
    vals = _values(x)
    size = len(vals)
    # the n in 0..v of each class, less 0 and (from v = 1 on) 1
    counts = (vals - np.arange(ell, dtype=np.int64)[:, None]) // ell + 1
    counts[0] -= 1
    counts[1, 1:] -= 1
    rows = np.arange(ell)
    for p in small:
        if p * p * p > x and p != ell:
            continue  # struck in the batch below
        lo = int(np.searchsorted(vals, p * p))
        w = vals[lo:] // p
        strike = counts[:, np.where(w <= r, w, size - x // w)] - counts[:, p - 1 : p]
        if p == ell:
            counts[0, lo:] -= strike.sum(axis=0)
        else:
            counts[:, lo:] -= strike[rows * pow(p, -1, ell) % ell]
    late = [p for p in small if p * p * p > x and p != ell]
    if not late:
        return counts
    ps = np.array(late, dtype=np.int64)
    inv = np.array([pow(p, -1, ell) for p in late], dtype=np.int64)
    # the late primes striking at vals[i] are ps[:m[i]]; m never falls, so
    # the columns from the first m > 0 on each take at least one pair
    m = np.searchsorted(ps * ps, vals, side="right")
    cum = np.cumsum(m)
    cuts = np.searchsorted(cum, np.arange(0, cum[-1], _STRIKE_CHUNK), side="right")
    edges = cuts.tolist() + [size]
    for j0, j1 in zip(edges, edges[1:]):
        mj = m[j0:j1]
        seg = np.cumsum(mj) - mj
        k = np.arange(int(mj.sum())) - np.repeat(seg, mj)
        p = ps[k]
        w = vals[np.repeat(np.arange(j0, j1), mj)] // p
        src = rows[:, None] * inv[k] % ell
        strike = counts[src, np.where(w <= r, w, size - x // w)] - counts[src, p - 1]
        counts[:, j0:j1] -= np.add.reduceat(strike, seg, axis=1)
    return counts


@lru_cache(maxsize=4)  # an entry is ~0.5 MB at K_DIRECT_MAX
def _one_counts(x: int, ell: int) -> np.ndarray:
    """The number of primes = 1 (mod ell) up to each value of _values(x),
    read-only, for every d.  The primes are listed when their sieve (x / ell
    bytes) is no larger than the int64 table of ell classes, as for the
    census's x = 7; Legendre's class counts serve large x, as 10^7."""
    small = primes_up_to(isqrt(x)).tolist()
    vals = _values(x)
    if x // ell <= 8 * ell * len(vals):
        primes = 1 + ell * np.flatnonzero(progression_sieve(x, ell, small))
        ones = np.searchsorted(primes, vals, side="right")
    else:
        ones = _class_counts(x, ell, small)[1].copy()
    ones.setflags(write=False)
    return ones


def _residues(c: int, ms: np.ndarray) -> np.ndarray:
    """c mod m for each m of the integer array ms, 1 <= m <= 2^32, as int64,
    for c of any size: the top 64 bits of c are reduced at once and the
    rest by 32-bit limbs; rem < m keeps rem 2^32 + limb in uint64."""
    m = ms.astype(np.uint64, copy=False)
    shift = -(-max(c.bit_length() - 64, 0) // 32) * 32
    rem = np.uint64(c >> shift) % m
    while shift:
        shift -= 32
        rem = (rem << np.uint64(32) | np.uint64(c >> shift & 0xFFFFFFFF)) % m
    return rem.astype(np.int64)


# small primes whose multiples the pass over (sqrt(x), x] skips
_WHEEL = (2, 5, 7, 11, 13, 17)


def _divisors_above_root(c: int, x: int, ell: int) -> list[int]:
    """The m = 1 (mod ell) in (isqrt(x), x] that divide c, ascending.

    c has no prime factor <= isqrt(x), so each such m is prime, and no
    multiple of a wheel prime p <= isqrt(x), p != ell, divides c.  One
    period of the wheel lists the m = 1 (mod ell) prime to those p; the pass
    shifts that list across (isqrt(x), x] and tests c mod m for each m of it
    (_residues), for c of any size.  For ell = 3 that is a quarter of the
    m = 1 (mod 3): 8.5e7 residues at x = 10^9.
    """
    r = isqrt(x)
    wheel = [p for p in _WHEEL if p != ell and p <= r]
    span = ell * prod(wheel)
    ms = np.arange(1, span, ell, dtype=np.uint64)
    keep = np.ones(len(ms), dtype=bool)
    for p in wheel:
        keep &= ms % np.uint64(p) != 0
    offs = ms[keep]
    out: list[int] = []
    for lo in range(r - r % span, x + 1, span):
        ms = offs + np.uint64(lo)
        out += [m for m in ms[_residues(c, ms) == 0].tolist() if r < m <= x]
    return out


def k_direct(x: int, ell: int, d: int = 1) -> int:
    """Exact K(x; ell, d) by depth-first squarefree products.

    The DFS walks products n of increasing admissible primes: p = 1
    (mod ell), p not dividing d.  The children of n are n * p for
    admissible p <= x // n; only those with p * p' <= x // n, p' the next
    admissible prime, have children of their own and are pushed.  The rest
    are leaves, and each node adds their weight in one product.  Their
    number is the count of primes = 1 (mod ell) up to x // n, from
    _one_counts, less the excluded primes up to x // n.  A pushed p is at
    most sqrt(x), so only the primes up to sqrt(x) are listed.  Time is
    O(x^(3/4)) for the counts, once per (x, ell), plus one step per pushed
    node (20,018 nodes at 10^9 for ell = 3); memory is the lesser of
    O(ell sqrt(x)) integers, x / ell bytes.

    The excluded primes come from trial division of d by the primes up to
    sqrt(x).  A cofactor c <= x is then prime; a larger one is searched for
    divisors in (sqrt(x), x] in blocks (_divisors_above_root).  x, ell and
    d are integers (TypeError otherwise).
    """
    for v, name in ((x, "x"), (ell, "ell"), (d, "d")):
        check_int(v, name)
    _check_ell(ell)
    if d < 1:
        raise ValueError("d must be positive")
    if x > K_DIRECT_MAX:
        raise ValueError(f"x = {x} exceeds the supported bound {K_DIRECT_MAX}")
    if x < 1:
        return 0
    r = isqrt(x)
    small = primes_up_to(r).tolist()
    excluded, ps, c = [], [], d
    for p in small:
        if c % p == 0:
            while c % p == 0:
                c //= p
            if p % ell == 1:
                excluded.append(p)
        elif p % ell == 1:
            ps.append(p)
    if c > x:
        excluded += _divisors_above_root(c, x, ell)
    elif c > 1 and c % ell == 1:
        excluded.append(c)
    # the pushing test reads the admissible prime after the last one <= r.
    # r + 1 stands in for it: being a lower bound, it can only push a node
    # with no children of its own, and that node counts itself and zero
    # leaves, as a leaf would.  x + 1 ends the list past any q.
    ps += [r + 1, x + 1]
    ones = _one_counts(x, ell).tolist()
    top = len(ones)
    total = 0
    stack = [(1, 1, 0)]
    while stack:
        n, w, i = stack.pop()
        total += w
        q = x // n
        hi = ones[q if q <= r else top - n] - bisect_right(excluded, q)
        w *= ell - 1
        k = i
        while k + 1 < hi and ps[k] * ps[k + 1] <= q:
            stack.append((n * ps[k], w, k + 1))
            k += 1
        total += w * (hi - k)
    return total


def psi_ell(d: int, ell: int) -> Fraction:
    """prod over primes p | d of p / (p + ell - 1), exact; d and ell are
    integers (TypeError otherwise)."""
    for v, name in ((d, "d"), (ell, "ell")):
        check_int(v, name)
    _check_ell(ell)
    if d < 1:
        raise ValueError("d must be positive")
    out = Fraction(1)
    for q in prime_divisors(d):
        out *= Fraction(q, q + ell - 1)
    return out


def alpha_ell(ell: int, p_max: int = 10**6) -> float:
    """Leading density alpha_ell in K(x; ell, 1) ~ alpha_ell x, for ell = 3
    only (ValueError otherwise), from the absolutely convergent rewriting
        alpha_3 = (3/4) L(1, (./3)) prod_p g(p),
    g(p) = 1 - 1/p^2 (p = 2 mod 3), (1 + 2/p)(1 - 1/p)^2 (p = 1 mod 3),
    8/9 (p = 3), with L(1, (./3)) = pi / 3^(3/2); the truncation error is
    O(1/p_max).  ell and p_max are integers (TypeError otherwise).
    """
    for v, name in ((ell, "ell"), (p_max, "p_max")):
        check_int(v, name)
    if ell != 3:
        raise ValueError(f"alpha_ell is computed for ell = 3 only, got {ell}")
    ps = primes_up_to(p_max).astype(np.float64)
    return _alpha3(ps[ps % 3 == 1], ps[ps % 3 == 2])


def _alpha3(one: np.ndarray, two: np.ndarray) -> float:
    """alpha_3 of alpha_ell from the primes = 1 and = 2 mod 3 up to p_max,
    as ascending float64 arrays."""
    log_prod = (
        np.log1p(-1.0 / two**2).sum()
        + (np.log1p(2.0 / one) + 2.0 * np.log1p(-1.0 / one)).sum()
        + np.log(8.0 / 9.0)
    )
    return 0.75 * (PI / 3**1.5) * float(np.exp(log_prod))
