"""Sums of 2^omega over squarefree integers with split prime factors.

K(x; ell, d) = sum over squarefree n <= x, all prime factors = 1 (mod ell),
gcd(n, d) = 1, of (ell - 1)^omega(n).  These grow linearly: K(x; ell, d) ~
alpha_ell psi_ell(d) x, the Tauberian input for the census main term.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import pi as PI

import numpy as np

from ._primes import primes_up_to

__all__ = ["k_direct", "psi_ell", "alpha_ell"]

# the leaf-counting DFS is exact but not sublinear: it visits every n <= x
# that still has a child, and sieves all primes <= x; refuse beyond
K_DIRECT_MAX = 10**9

# arguments at or below this threshold hit a cached table; the census asks
# for tiny x thousands of times
_SMALL_MAX = 10**4


def _check_ell(ell: int) -> None:
    if ell < 2 or any(ell % q == 0 for q in range(2, ell)):
        raise ValueError(f"ell must be prime, got {ell}")


def _admissible_primes(x: int, ell: int, d: int) -> list[int]:
    ps = primes_up_to(x)
    ps = ps[ps % ell == 1]
    if d >= 2**63:  # past int64: reduce d by each prime in Python
        return [p for p in ps.tolist() if d % p]
    return ps[d % ps != 0].tolist()


@lru_cache(maxsize=8)
def _small_table(ell: int) -> tuple[np.ndarray, np.ndarray]:
    """(values n, weights (ell-1)^omega(n)) for the small-x fast path."""
    ns, ws = [], []
    ps = _admissible_primes(_SMALL_MAX, ell, 1)
    stack = [(1, 1, 0)]
    while stack:
        n, w, i = stack.pop()
        ns.append(n)
        ws.append(w)
        for k in range(i, len(ps)):
            m = n * ps[k]
            if m > _SMALL_MAX:
                break
            stack.append((m, w * (ell - 1), k + 1))
    order = np.argsort(ns)
    return np.asarray(ns, dtype=np.int64)[order], np.asarray(ws, dtype=np.int64)[order]


def k_direct(x: int, ell: int, d: int = 1) -> int:
    """Exact K(x; ell, d) by depth-first squarefree products.

    x <= 10^4 reads a cached table.  Above it, the DFS walks products n of
    increasing admissible primes.  The children of n are n * ps[k] for
    ps[k] <= x // n, found with one bisect.  Only children with
    ps[k] * ps[k+1] <= x // n have children of their own and are pushed;
    the rest are leaves, and each node adds their weight in one product.
    """
    _check_ell(ell)
    if d < 1:
        raise ValueError("d must be positive")
    if x > K_DIRECT_MAX:
        raise ValueError(f"x = {x} exceeds the supported bound {K_DIRECT_MAX}")
    if x < 1:
        return 0
    if x <= _SMALL_MAX:
        ns, ws = _small_table(ell)
        hi = int(np.searchsorted(ns, x, side="right"))
        if hi == 0:
            return 0
        ns, ws = ns[:hi], ws[:hi]
        if d > 1:
            keep = np.gcd(ns, d) == 1
            return int(ws[keep].sum())
        return int(ws.sum())
    ps = _admissible_primes(x, ell, d)
    total = 0
    stack = [(1, 1, 0)]
    while stack:
        n, w, i = stack.pop()
        total += w
        q = x // n
        hi = bisect_right(ps, q, i)
        w *= ell - 1
        k = i
        while k + 1 < hi and ps[k] * ps[k + 1] <= q:
            stack.append((n * ps[k], w, k + 1))
            k += 1
        total += w * (hi - k)
    return total


def psi_ell(d: int, ell: int) -> Fraction:
    """prod over primes p | d of p / (p + ell - 1), exact."""
    _check_ell(ell)
    if d < 1:
        raise ValueError("d must be positive")
    out = Fraction(1)
    m = d
    q = 2
    while q * q <= m:
        if m % q == 0:
            out *= Fraction(q, q + ell - 1)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        out *= Fraction(m, m + ell - 1)
    return out


def alpha_ell(ell: int, p_max: int = 10**6) -> float:
    """Leading density alpha_ell in K(x; ell, 1) ~ alpha_ell x.

    ell = 3 uses the absolutely convergent rewriting
        alpha_3 = (3/4) L(1, (./3)) prod_p g(p),
    g(p) = 1 - 1/p^2 (p = 2 mod 3), (1 + 2/p)(1 - 1/p)^2 (p = 1 mod 3),
    8/9 (p = 3), with L(1, (./3)) = pi / 3^(3/2); the truncation error is
    O(1/p_max).  Other ell fall back to Cesaro-damped partial products of
    the conditionally convergent Euler product; accuracy is poor (a few
    percent) and documented as such.
    """
    _check_ell(ell)
    ps = primes_up_to(p_max).astype(np.float64)
    if ell == 3:
        l_value = PI / 3**1.5
        one = ps[ps % 3 == 1]
        two = ps[ps % 3 == 2]
        log_prod = (
            np.log1p(-1.0 / two**2).sum()
            + (np.log1p(2.0 / one) + 2.0 * np.log1p(-1.0 / one)).sum()
            + np.log(8.0 / 9.0)
        )
        return 0.75 * l_value * float(np.exp(log_prod))
    # sum over all nontrivial characters mod ell collapses to a real form:
    # factor (1 + (ell-1)[p = 1 mod ell]/p)(1 - 1/p), damped by averaging
    # the partial products over the second half of the prime cutoffs
    factors = np.where(
        ps % ell == 1, 1.0 + (ell - 1.0) / ps, np.where(ps == ell, 1.0 + 1.0 / ps, 1.0)
    )
    logs = np.log(factors) + np.log1p(-1.0 / ps)
    partial = np.cumsum(logs)
    half = len(partial) // 2
    damped = np.exp(partial[half:]).mean()
    return float(ell / (ell + 1.0) * damped)
