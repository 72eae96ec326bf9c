"""Arithmetic in Z[j] and cubic residue symbols.

j denotes the primitive cube root of unity (-1 + sqrt(-3))/2, so j^2 = -1 - j
and elements are written a + b*j with integer a, b.  A prime p = 1 (mod 3)
splits as p = pi * conj(pi); the standard factor pi is pinned by three
conditions: pi is primary (a = 2, b = 0 mod 3), Im(pi) > 0 (b > 0), and the
residue r of j in Z[j]/(pi) = F_p is recorded alongside.  Cubic symbols are
evaluated through the F_p image; Euler's criterion inside Z[j], the
independent route they are checked against, lives in the verify module.
EisensteinInt is the API type: the decomposition runs on ints
(_standard_ints) and int64 arrays (standard_prime_arrays, whose image r of
j is computed only for readers of it).

Every other module reads the exponent of chi_p(n), or of chi_9(n) at p = 3,
through one of two routes here: _chi_exp(p, n) for one value (Euler's
criterion in F_p, None at the zero value) and _chi_exps(p, ns) for an
integer array (a lookup in chi_p_table, int8 with -1 at the zero value).
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from math import isqrt
from numbers import Integral
from typing import Callable, Iterator

import numpy as np

from ._primes import check_int, is_prime, prime_divisors, primes_up_to, progression_sieve

__all__ = [
    "CharValue",
    "ZERO",
    "ROOT",
    "EisensteinInt",
    "StandardPrime",
    "standard_decompose",
    "STANDARD_ARRAY_MAX",
    "standard_prime_arrays",
    "cubic_symbol",
    "chi_p",
    "chi_nine",
    "standard_primes_up_to",
]


# ---------------------------------------------------------------------------
# values of cubic characters


@dataclass(frozen=True)
class CharValue:
    """Zero or a cube root of unity j^exp; exp is None for the zero value."""

    exp: int | None

    @property
    def is_zero(self) -> bool:
        return self.exp is None

    def __mul__(self, other: "CharValue") -> "CharValue":
        if self.exp is None or other.exp is None:
            return ZERO
        return ROOT(self.exp + other.exp)

    def __repr__(self) -> str:
        if self.exp is None:
            return "CharValue(ZERO)"
        return f"CharValue(j^{self.exp})"


# j^e as a complex number, indexed by e
W3 = np.exp(2j * np.pi * np.arange(3) / 3)

ZERO = CharValue(None)
_ROOTS = (CharValue(0), CharValue(1), CharValue(2))


def ROOT(e: int) -> CharValue:
    """j^e as one of three shared values, so no symbol allocates its result."""
    return _ROOTS[e % 3]


# ---------------------------------------------------------------------------
# ring elements


@dataclass(frozen=True)
class EisensteinInt:
    """a + b*j with j^2 = -1 - j."""

    a: int
    b: int

    def conj(self) -> "EisensteinInt":
        return EisensteinInt(self.a - self.b, -self.b)

    @property
    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def __str__(self) -> str:
        return f"{self.a}{self.b:+d}j"


def _primary_pair(a: int, b: int) -> tuple[int, int]:
    """The primary one (a = 2, b = 0 mod 3) of the six associates u *
    (a + b*j), u = 1, -1, j, -j, j^2, -j^2; a + b*j must be prime to 3."""
    for x, y in ((a, b), (-a, -b), (-b, a - b), (b, b - a), (b - a, -a), (a - b, a)):
        if x % 3 == 2 and y % 3 == 0:
            return x, y
    raise AssertionError("unreachable: one of six associates must be primary")


# ---------------------------------------------------------------------------
# standard decomposition of split primes


@dataclass(frozen=True)
class StandardPrime:
    """Canonical factor pi of a split prime p, with r = image of j in F_p."""

    p: int
    pi: EisensteinInt
    r: int


def standard_decompose(p: int) -> StandardPrime:
    """Split p = 1 (mod 3) as pi * conj(pi) and pin the standard pi.

    pi is primary with b > 0; r in [2, p-2] satisfies r^2 + r + 1 = 0 (mod p)
    and pi | (j - r), so j maps to r under Z[j]/(pi) = F_p.  This is the
    single-prime route, exact for any p; walks over all split primes up to
    a limit use standard_prime_arrays.  A p that is not an int (or is a
    bool) raises TypeError.
    """
    a, b, r = _standard_ints(p)
    return StandardPrime(p, EisensteinInt(a, b), r)


def _standard_ints(p: int) -> tuple[int, int, int]:
    """(a, b, r) of standard_decompose(p), on plain ints.

    The Euclid on (p, c), c a cube root of unity mod p, stopped at the first
    remainder below sqrt(p), gives a + b c = 0 (mod p) with |a|, |b| <
    sqrt(p) (Thue's lemma): a + b*j lies in (p, j - c), and its norm, a
    multiple of p below 3p (2 is inert), is p.
    """
    check_int(p, "p")
    if p % 3 != 1 or not is_prime(p):
        raise ValueError(f"{p} is not a prime congruent to 1 mod 3")
    e = (p - 1) // 3
    g = 2
    while pow(g, e, p) == 1:
        g += 1
    c = pow(g, e, p)  # a primitive cube root of unity mod p
    r0, r1, t0, t1 = p, c, 0, 1  # r_i = t_i c (mod p) throughout
    while r1 * r1 > p:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    a0, b0 = r1, -t1
    if a0 * a0 - a0 * b0 + b0 * b0 != p:
        raise AssertionError(f"the Euclid on ({p}, {c}) missed the norm-{p} element")
    a, b = _primary_pair(a0, b0)
    # pi | (j - c); the conjugate, which keeps primariness, divides j - c^2
    if b > 0:
        return a, b, c
    return a - b, -b, c * c % p


# standard_prime_arrays is exact.  A point of norm N <= limit has 4 N =
# (2a - b)^2 + 3 b^2 = (2b - a)^2 + 3 a^2, and its conjugate (a - b) - b*j
# has norm N too, so |a|, |a - b|, b <= sqrt(4 limit / 3): int64 values stay
# <= 4 limit.  _j_images works in float64 on values <= b, where floor(r0 /
# r1) is exact while r0 < 2^26, and ends at |u b - (u + v) a| <= 4 limit <
# 2^53.  Both hold far past the limit, which the sieve's limit / 6 bytes set.
STANDARD_ARRAY_MAX = 2**30

# lattice points per block of b-rows, which bounds the working memory
_BLOCK_POINTS = 2**15

# primes per block that standard_primes_up_to converts to Python ints
_WALK_ROWS = 2**12


def _j_images(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """r = -a / b (mod p), the image of j: pi = a + b*j divides j - r
    exactly when p divides a + b r.  The extended Euclid on (b, a mod b)
    gives u a + v b = 1, and b^2 = ab - a^2 (mod p) turns b r = -a into
    r = u b - (u + v) a, on all lanes at once."""
    fa, fb = a.astype(np.float64), b.astype(np.float64)
    r0, r1 = fb.copy(), np.mod(fa, fb)
    s0, s1 = np.zeros_like(fb), np.ones_like(fb)
    # two half-steps per pass; a lane with a zero remainder stays as it is
    while np.logical_and(r0, r1).any():
        q = np.floor(r0 / np.maximum(r1, 1.0))
        r0 -= q * r1
        s0 -= q * s1
        q = np.floor(r1 / np.maximum(r0, 1.0))
        r1 -= q * r0
        s1 -= q * s0
    u = np.where(r0 == 1, s0, s1)
    v = (1 - u * fa) / fb
    return np.mod(u * fb - (u + v) * fa, p).astype(np.int64)


def standard_prime_arrays(
    limit: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(p, a, b, r) as int64 arrays for every split p <= limit, ascending,
    with pi = a + b*j the standard factor of p and r the image of j.

    The primary a + b*j with b > 0 and prime norm are exactly the standard
    factors, one per split p: they are listed row by row of b, in blocks of
    2^15 of the ~0.15 limit lattice points with an odd norm, with a sieve
    of limit / 6 bytes, and the rows are sorted by norm.  r comes from one
    vectorised extended Euclid, run on the first read of r for a limit, in
    blocks of 2^15 primes.  The columns take about 6 ms at 10^6 and 60 ms
    at 10^7, and r about 5 ms and 40 ms more (2 cores, Python 3.11).  A
    limit that is not an integer (a bool is not one) or exceeds
    STANDARD_ARRAY_MAX = 2^30 raises ValueError.

    A one-entry cache keeps the arrays of the last limit, so callers that
    walk the same range again decompose it once.  The arrays are shared
    between those callers and therefore read-only.
    """
    t = _standard_table(limit)
    return t.p, t.a, t.b, t.r


class _StandardTable:
    """The read-only columns of standard_prime_arrays for one limit; the
    image r of j is computed on its first read."""

    def __init__(self, p: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        self.p, self.a, self.b = p, a, b

    @cached_property
    def r(self) -> np.ndarray:
        r = np.empty_like(self.p)
        for i in range(0, len(r), _BLOCK_POINTS):
            rows = slice(i, i + _BLOCK_POINTS)
            r[rows] = _j_images(self.p[rows], self.a[rows], self.b[rows])
        r.setflags(write=False)
        return r


def _standard_table(limit: int) -> _StandardTable:
    """The cached table behind standard_prime_arrays(limit), after its
    checks on limit; a caller that reads only p, a and b leaves r
    uncomputed."""
    if isinstance(limit, bool) or not isinstance(limit, Integral):
        raise ValueError(f"limit must be an integer, got {limit!r}")
    if limit > STANDARD_ARRAY_MAX:
        raise ValueError(f"limit {limit} exceeds the supported {STANDARD_ARRAY_MAX}")
    return _build_standard_table(max(int(limit), 1))


@lru_cache(maxsize=1)
def _build_standard_table(limit: int) -> _StandardTable:
    # Row b = 0 (mod 3) holds the a = 2 (mod 3) with (2a - b)^2 <= 4 limit -
    # 3 b^2.  The norm a^2 - ab + b^2 is odd unless a and b are both even,
    # so an even row steps a through a = 5 (mod 6) only, and every norm
    # listed is odd; primary, it is 1 (mod 3), so it is 1 + 6k.
    isp = progression_sieve(limit, 6, primes_up_to(isqrt(limit)).tolist())
    bs = np.arange(3, isqrt(4 * limit // 3) + 1, 3, dtype=np.int64)
    s = np.sqrt(4 * limit - 3 * bs * bs).astype(np.int64)  # isqrt below 2^52
    st = 3 + 3 * (bs & 1 == 0)  # the step of a: 3, or 6 on an even row
    a0 = (bs - s + 1) // 2
    a0 += (st - 1 - a0) % st
    cnt = np.maximum(((bs + s) // 2 - a0) // st + 1, 0)
    rows = max(1, _BLOCK_POINTS // max(int(cnt[:1].sum()), 1))
    cols: list[list[np.ndarray]] = [[np.empty(0, dtype=np.int64)] for _ in range(3)]
    for i in range(0, len(bs), rows):
        c = cnt[i : i + rows]
        step = np.arange(c.sum()) - np.repeat(np.cumsum(c) - c, c)
        a = np.repeat(a0[i : i + rows], c) + np.repeat(st[i : i + rows], c) * step
        b = np.repeat(bs[i : i + rows], c)
        n = a * (a - b) + b * b
        keep = isp[n // 6]
        for col, v in zip(cols, (n, a, b)):
            col.append(v[keep])
    order = np.argsort(np.concatenate(cols[0]))
    out = [np.concatenate(col)[order] for col in cols]
    for col in out:
        col.setflags(write=False)
    return _StandardTable(*out)


# ---------------------------------------------------------------------------
# cubic residue symbols


def _euler_exp(n: int, p: int, r: int) -> int | None:
    """Euler's criterion in F_p: the e with n^((p-1)/3) = r^e (mod p), r the
    image of j, or None where p | n."""
    n %= p
    if n == 0:
        return None
    t = pow(n, (p - 1) // 3, p)
    if t == 1:
        return 0
    if t == r:
        return 1
    if t == r * r % p:
        return 2
    raise AssertionError(f"cube-power class of {n} mod {p} is not a root of unity")


def _value(e: int | None) -> CharValue:
    return ZERO if e is None else ROOT(e)


def cubic_symbol(alpha: EisensteinInt, sp: StandardPrime) -> CharValue:
    """Cubic residue symbol (alpha / pi)_3 for the standard prime sp: reduce
    a + b*r mod p through Z[j]/(pi) = F_p and take the cube-power class.
    It holds as well for sp = (p, conj(pi), r^2 mod p), the conjugate factor
    with its image of j."""
    return _value(_euler_exp(alpha.a + alpha.b * sp.r, sp.p, sp.r))


def _primitive_root(p: int) -> int:
    fac = prime_divisors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise AssertionError(f"no primitive root mod {p}")


# The bytes of tables chi_p_table holds, the sum of their lengths.  The
# census and the symbols suite build none, constant_report at the default
# truncation 148 (138 KB), the reciprocity suite 611 at 10^4 (2.9 MB); at
# its 10^5 cap that suite builds 4,784 tables, 227 MB in all, and reads each
# one twice in a row, so the bound costs it no rebuild.
_CHI_TABLE_BYTES = 32 * 2**20

_TableCacheInfo = namedtuple(
    "_TableCacheInfo", "hits misses maxsize currsize maxbytes currbytes"
)


def _table_cache(build: Callable[[int], bytes]) -> Callable[[int], bytes]:
    """build(p) cached like lru_cache, but bounded by the bytes held
    (_CHI_TABLE_BYTES, read at each miss) rather than by a count: a new
    table evicts the least recently used ones until the tables fit, and one
    longer than the bound is returned without being held.  cache_info()
    reports no count bound (maxsize None) and the byte bound and total."""
    held: OrderedDict[int, bytes] = OrderedDict()  # least recently used first
    hits = misses = nbytes = 0

    @wraps(build)
    def cached(p: int) -> bytes:
        nonlocal hits, misses, nbytes
        tab = held.get(p)
        if tab is not None:
            hits += 1
            held.move_to_end(p)
            return tab
        misses += 1
        tab = build(p)
        if len(tab) <= _CHI_TABLE_BYTES:
            nbytes += len(tab)
            while nbytes > _CHI_TABLE_BYTES:
                nbytes -= len(held.popitem(last=False)[1])
            held[p] = tab
        return tab

    def cache_info() -> _TableCacheInfo:
        return _TableCacheInfo(hits, misses, None, len(held), _CHI_TABLE_BYTES, nbytes)

    def cache_clear() -> None:
        nonlocal hits, misses, nbytes
        held.clear()
        hits = misses = nbytes = 0

    cached.cache_info = cache_info  # type: ignore[attr-defined]
    cached.cache_clear = cache_clear  # type: ignore[attr-defined]
    return cached


@_table_cache
def chi_p_table(p: int) -> bytes:
    """Exponent of chi_p(n) indexed by n mod p; 0xFF marks the zero value.

    The powers g^k of a primitive root g come as a B x B grid, B =
    ceil(sqrt(p - 1)): entry (i, l) is g^(B i) g^l mod p, k = B i + l, and
    the two short lists of giant and baby steps are plain-int loops.  The
    entry at g^k is k t mod 3 for chi_p(g) = j^t, which runs through
    (0, t, 2t) mod 3 as k runs through the residues mod 3.  int64 holds the
    grid products exactly for p < 3e9.
    """
    r = _j_image(p)  # ValueError unless p is a split prime
    g = _primitive_root(p)
    t = _euler_exp(g, p, r)
    if t not in (1, 2):
        raise AssertionError(f"chi_{p} of a primitive root must have order 3")
    n = p - 1
    size = isqrt(n - 1) + 1
    baby = [1] * size
    for l in range(1, size):
        baby[l] = baby[l - 1] * g % p
    step = baby[-1] * g % p
    giant = [1] * -(-n // size)
    for i in range(1, len(giant)):
        giant[i] = giant[i - 1] * step % p
    pw = np.multiply.outer(np.array(giant, dtype=np.int64), baby) % p
    tab = np.empty(p, dtype=np.uint8)
    tab[0] = 0xFF
    tab[pw.ravel()[:n]] = np.tile(np.array([0, t, 2 * t % 3], dtype=np.uint8), n // 3)
    return tab.tobytes()


# Exponent of chi_9, the order-3 character mod 9 with chi_9(2) = j, at
# n mod 9; -1 marks the zero value at multiples of 3.
_CHI_NINE = (-1, 0, 1, -1, 2, 2, -1, 1, 0)


# r_p, the image of j in F_p under the standard prime above p.  The largest
# census build (the 10^24 bound) reads ~5,300 primes, so the cache never
# evicts there and stays below ~2 MB.
@lru_cache(maxsize=8192)
def _j_image(p: int) -> int:
    return _standard_ints(p)[2]


def _chi_exp(p: int, n: int) -> int | None:
    """Exponent of chi_p(n), or of chi_9(n) at p = 3; None at the zero value.
    O(log p) by Euler's criterion; ValueError unless p is 3 or a split prime."""
    if p == 3:
        e = _CHI_NINE[n % 9]
        return None if e < 0 else e
    return _euler_exp(n, p, _j_image(p))


def _chi_table(p: int) -> np.ndarray:
    """chi_p_table as a read-only int8 view: 0xFF reads as -1, the zero."""
    return np.frombuffer(chi_p_table(p), dtype=np.int8)


def _chi_exps(p: int, ns: np.ndarray) -> np.ndarray:
    """_chi_exp over an integer array, as int8, -1 at the zero value."""
    if p == 3:
        return np.array(_CHI_NINE, dtype=np.int8)[ns % 9]
    return _chi_table(p)[ns % p]


def chi_p(p: int, n: int) -> CharValue:
    """chi_p(n) = (n / pi)_3 for the standard prime above p; ValueError
    unless p is a prime = 1 (mod 3), so p = 3 too (chi_9 is chi_nine), and
    TypeError unless p and n are ints (a bool is not one)."""
    check_int(p, "p")
    check_int(n, "n")
    return _value(_euler_exp(n, p, _j_image(p)))


def chi_nine(n: int) -> CharValue:
    check_int(n, "n")
    return _value(_chi_exp(3, n))


# ---------------------------------------------------------------------------
# walking the standard primes


def standard_primes_up_to(limit: int) -> Iterator[StandardPrime]:
    """Standard decompositions for every p = 1 (mod 3) up to limit, ascending.

    Built from standard_prime_arrays, so the limit must be an integer no
    larger than STANDARD_ARRAY_MAX = 2^30 (ValueError otherwise, raised at
    the call).  The arrays turn into Python ints _WALK_ROWS rows at a time,
    so a walk holds one such block of them, not the whole range.
    """
    cols = standard_prime_arrays(limit)
    return (
        StandardPrime(p, EisensteinInt(a, b), r)
        for start in range(0, len(cols[0]), _WALK_ROWS)
        for p, a, b, r in zip(*(c[start : start + _WALK_ROWS].tolist() for c in cols))
    )
