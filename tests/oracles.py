"""Independent reference implementations used to pin expected test values.

Everything here recomputes results from definitions with arithmetic that
shares no code with the package: ring elements are plain (a, b) tuples,
divisibility goes through Cramer's rule, canonical primes come from an
exhaustive lattice search, and censuses come from a brute-force scan.
The pair functions and the literal census on support functions, the
L-value closed forms, the literal Euler products and the prime walks are
the exceptions: they keep loops the package replaced, on top of package
primitives.

- The Z[j] symbols run Euler's criterion on tuples, every product reduced
  by t_rem, the exact remainder: symbol_exp_by_euler at the standard
  factor of the lattice search, and symbol_eis_literal at any factor, the
  route that verify._euler_symbols runs batched on int64 arrays;
  symbol_inert keeps the scalar F_{q^2} ladder that verify._inert_exps
  runs on arrays for the reciprocity suite.
- Character values and linear combinations come from chi_exp_oracle and
  d_comb on plain dicts {prime: value}: chi(f)(m) is a sum of per-prime
  exponents from symbol_exp_by_euler and a walk of the powers of 2 mod 9.
- The pair functions keep the route over validated support functions that
  the package replaced with its tuple kernel: indicator_literal (kernel
  generators through d_comb and chi_exp_oracle, each factor tested by
  one_plus_v_plus_v2), three_row_literal (the row of the table at 3),
  big_d_literal and s_sum_literal (D and the pair weight S(X, f, f') from
  that row and k_direct).
- The object-route helpers keep what only the oracles and tests use:
  is_linearly_independent on support functions, enumerate_V listing
  V(Delta) and V*(Delta) from the factored Delta, and lambda_delta with
  its own loop over the prime divisors of Delta (the package reads lambda
  off the primes of each Delta it enumerates).
- The L-value closed forms take L(1, chi) over the whole conductor, from
  the character values of chi_exponent_arrays, which sums the package's
  _chi_exps over the support of chi(f) (no package route reads whole
  characters any more): the Gauss sum times a log-sine sum for even characters, times the first character
  Bernoulli number for odd ones.  The package reads the same forms off
  class bucket sums and multiplies its Gauss sums out of per-prime
  factors.
- The L-value series are truncated Dirichlet series with period-averaged
  partial sums, one on numpy arrays and one a plain loop; both agree with
  the closed forms to 1e-6 for every conductor up to 500.
- The literal Euler products take character values and L(1, chi) from the
  closed forms above and redo only the product assembly.
- The walks keep the per-prime loops that the package replaced with array
  code, on top of the package's scalar decomposition and symbols.
- k_direct_dfs keeps the full-sieve K-sum: it lists every admissible prime
  up to x from the package's sieve and pushes every squarefree product,
  leaves included.  The package no longer shares either step: it counts
  leaves from prime counts in residue classes and lists primes only up to
  sqrt(x).
- symbol_pairs keeps the symbols suite's Z[j] pairs as tuples read off
  StandardPrime objects; the suite builds them as int64 array lanes from
  the columns of standard_prime_arrays.
- class_counts_by_prime keeps those prime counts with one Legendre strike
  per prime up to sqrt(x); the package strikes every prime above x^(1/3)
  in one batch.
- standard_prime_arrays_by_reduction keeps the array decomposition the
  package replaced with a walk over primary lattice points: a cube root
  of unity c mod p, Gauss reduction of the lattice of (p, j - c), the
  primary associate and the conjugate where b < 0, on int64 arrays.
- deltas_scan keeps the scan that extends every Delta found so far by each
  split prime; the package walks a pruned DFS over the sorted primes.
- The literal census keeps the loop over validated support functions that
  the package replaced with tuple code.  It takes its indicator, row and D
  from the pair functions above, not from the package, and only its
  K-sums from k_direct.
- census_for_delta_by_product keeps the census's product-then-filter
  enumeration on tuples: every f' of every shared subset and new part is
  listed with its exponent sums, then tested by the kernel rule at the
  primes of Delta(f), and no Delta(f) is skipped up front.  The package
  lists each half of f' once and joins the halves by the exponents the
  kernel rule requires, after _no_entry's skip.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import fsum, gcd, isqrt, prod, sqrt
from math import pi as PI
from typing import Iterable, Iterator

import numpy as np

from heisnine._primes import prime_divisors, primes_in_class, primes_up_to
from heisnine.charspace import (
    DeltaIndex,
    SupportFunction,
    conductor,
    delta,
    enumerate_deltas,
)
from heisnine.constants import (
    CancellationSum,
    HConstants,
    TruncationParams,
    _Grids,
)
from heisnine.counting import (
    _MU_BY_ROW,
    SubsumClass,
    TermRecord,
    WeightMode,
    _exp,
    _mu_floor,
    _row,
    _summed,
    ifourth_root,
    isixth_root,
)
from heisnine.eisenstein import (
    ROOT,
    ZERO,
    CharValue,
    EisensteinInt,
    StandardPrime,
    W3,
    _chi_exps,
    _primitive_root,
    cubic_symbol,
    standard_decompose,
)
from heisnine.ksum import _values, k_direct, psi_ell

# ---------------------------------------------------------------------------
# tuple arithmetic for a + b*j, j^2 = -1 - j


def t_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c - b * d)


def t_sub(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return (x[0] - y[0], x[1] - y[1])


def t_norm(x: tuple[int, int]) -> int:
    a, b = x
    return a * a - a * b + b * b


T_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1), (1, 1))
T_J_POWERS = ((1, 0), (0, 1), (-1, -1))


def t_divides(d: tuple[int, int], n: tuple[int, int]) -> bool:
    """d | n decided by Cramer's rule on n = (x + y*j) * d."""
    a, b = d
    det = t_norm(d)
    if det == 0:
        return n == (0, 0)
    # solve x*a - y*b = n0 ; x*b + y*(a-b) = n1
    x_num = n[0] * (a - b) + n[1] * b
    y_num = n[1] * a - n[0] * b
    return x_num % det == 0 and y_num % det == 0


def t_rem(n: tuple[int, int], d: tuple[int, int]) -> tuple[int, int]:
    """n - q d with q the nearest point to n conj(d) / norm(d), each
    coordinate rounded in integers, ties toward zero: exact at any size,
    and the remainder's norm is at most 3/4 norm(d)."""
    det = t_norm(d)
    if det == 0:
        raise ZeroDivisionError("division by zero in Z[j]")
    t = t_mul(n, (d[0] - d[1], -d[1]))
    q = tuple((2 * abs(c) + det - 1) // (2 * det) * (1 if c >= 0 else -1) for c in t)
    return t_sub(n, t_mul(q, d))


def primary_by_enumeration(z: tuple[int, int]) -> tuple[int, int]:
    """The associate with a = 2, b = 0 mod 3, by trying all six units."""
    hits = [t_mul(u, z) for u in T_UNITS]
    hits = [w for w in hits if w[0] % 3 == 2 and w[1] % 3 == 0]
    assert len(hits) == 1, f"expected exactly one primary associate of {z}, got {hits}"
    return hits[0]


@lru_cache(maxsize=None)
def standard_by_search(p: int) -> tuple[tuple[int, int], int]:
    """Canonical (pi, r) for split p by exhaustive norm-form search.

    Scans every a with 3a^2 <= 4p, solving b from the discriminant of
    a^2 - ab + b^2 = p, keeps primary elements with b > 0, and demands the
    survivor be unique.  r is the root of x^2 + x + 1 mod p with pi | (j - r).
    """
    found = []
    amax = isqrt(4 * p // 3) + 1
    for a in range(-amax, amax + 1):
        disc = 4 * p - 3 * a * a
        if disc < 0:
            continue
        s = isqrt(disc)
        if s * s != disc:
            continue
        for b in ((a + s) // 2, (a - s) // 2):
            if t_norm((a, b)) == p and b > 0 and a % 3 == 2 and b % 3 == 0:
                if (a, b) not in found:
                    found.append((a, b))
    assert len(found) == 1, f"expected one standard factor of {p}, got {found}"
    pi = found[0]
    roots = [r for r in range(2, p - 1) if (r * r + r + 1) % p == 0]
    assert len(roots) == 2
    pinned = [r for r in roots if t_divides(pi, (-r, 1))]
    assert len(pinned) == 1
    return pi, pinned[0]


def _powmod(base: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """base^e mod p elementwise, by square-and-multiply on int64 arrays."""
    out = np.ones_like(p)
    base = base % p
    e = e.copy()
    while e.any():
        out = np.where(e & 1 == 1, out * base % p, out)
        base = base * base % p
        e >>= 1
    return out


def _ideal_generators(p: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with a + b*j generating the prime (p, j - c), for arrays: Gauss
    reduction of the lattice with basis (p, 0), (-c, 1) under the norm form,
    run until every lattice has reached its shortest vector."""
    ga = np.empty_like(p)
    gb = np.empty_like(p)
    idx = np.arange(len(p))
    ua, ub, nu = p.copy(), np.zeros_like(p), p * p
    va, vb = -c, np.ones_like(p)
    nv = c * c + c + 1
    while len(idx):
        swap = nv < nu
        ua, va = np.where(swap, va, ua), np.where(swap, ua, va)
        ub, vb = np.where(swap, vb, ub), np.where(swap, ub, vb)
        nu, nv = np.where(swap, nv, nu), np.where(swap, nu, nv)
        t = 2 * (ua * va + ub * vb) - ua * vb - ub * va
        q = (t + nu) // (2 * nu)
        done = q == 0
        ga[idx[done]] = ua[done]
        gb[idx[done]] = ub[done]
        keep = ~done
        idx, ua, ub, nu, q = idx[keep], ua[keep], ub[keep], nu[keep], q[keep]
        va = va[keep] - q * ua
        vb = vb[keep] - q * ub
        nv = va * va - va * vb + vb * vb
    return ga, gb


def standard_prime_arrays_by_reduction(
    limit: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(p, a, b, r) of standard_prime_arrays by lattice reduction: for each
    split p <= limit (exact in int64 up to about 1.1e9), c = g^((p-1)/3)
    for the least g that gives c != 1, the reduced generator of (p, j - c),
    its primary associate, and its conjugate (with c^2) where b < 0."""
    p = primes_in_class(limit, 3, 1)
    e = (p - 1) // 3
    c = _powmod(np.full_like(p, 2), e, p)
    g = 3
    todo = np.nonzero(c == 1)[0]
    while len(todo):
        c[todo] = _powmod(np.full(len(todo), g, dtype=np.int64), e[todo], p[todo])
        todo = todo[c[todo] == 1]
        g += 1
    a0, b0 = _ideal_generators(p, c)
    assert np.all(a0 * a0 - a0 * b0 + b0 * b0 == p), "reduction missed the norm-p element"
    # the six associates u * (a0 + b0*j); exactly one is primary
    cand_a = np.stack((a0, -a0, -b0, b0, b0 - a0, a0 - b0))
    cand_b = np.stack((b0, -b0, a0 - b0, b0 - a0, -a0, a0))
    primary = (cand_a % 3 == 2) & (cand_b % 3 == 0)
    assert np.all(primary.sum(axis=0) == 1), "expected exactly one primary associate"
    which = primary.argmax(axis=0)
    cols = np.arange(len(p))
    a, b = cand_a[which, cols], cand_b[which, cols]
    up = b > 0
    return p, np.where(up, a, a - b), np.where(up, b, -b), np.where(up, c, c * c % p)


def _euler_exp_in_zj(alpha: tuple[int, int], pi: tuple[int, int], p: int) -> int | None:
    """Exponent m with alpha^((p-1)/3) = j^m mod pi, pi of norm p, by
    Euler's criterion in Z[j], every product reduced by t_rem; None where
    pi divides alpha."""
    base = t_rem(alpha, pi)
    if base == (0, 0):
        return None
    acc = (1, 0)
    e = (p - 1) // 3
    while e:
        if e & 1:
            acc = t_rem(t_mul(acc, base), pi)
        base = t_rem(t_mul(base, base), pi)
        e >>= 1
    hits = [m for m in range(3) if t_divides(pi, t_sub(acc, T_J_POWERS[m]))]
    assert len(hits) == 1, f"Euler criterion produced a non-root mod {pi}"
    return hits[0]


@lru_cache(maxsize=None)
def symbol_exp_by_euler(alpha: tuple[int, int], p: int) -> int | None:
    """Exponent m with (alpha/pi)_3 = j^m at the standard pi of the lattice
    search, by Euler's criterion in Z[j]; None encodes the zero value.  No
    package code."""
    return _euler_exp_in_zj(alpha, standard_by_search(p)[0], p)


def symbol_eis_literal(alpha: EisensteinInt, sp: StandardPrime) -> CharValue:
    """(alpha / pi)_3 at sp.pi, which may be the conjugate factor, by the
    Z[j] Euler criterion on tuples: the route verify._euler_symbols runs
    batched on int64 arrays.  Python ints, so any norm."""
    e = _euler_exp_in_zj((alpha.a, alpha.b), (sp.pi.a, sp.pi.b), sp.p)
    return ZERO if e is None else ROOT(e)


def symbol_inert(alpha: EisensteinInt, q: int) -> CharValue:
    """(alpha / q)_3 for an inert prime q = 2 mod 3, working in F_{q^2}:
    the scalar ladder that verify._inert_exps runs on int64 arrays."""
    a, b = alpha.a % q, alpha.b % q
    if a == 0 and b == 0:
        return ZERO
    x, y = 1, 0
    e = (q * q - 1) // 3
    while e:
        if e & 1:
            x, y = (x * a - y * b) % q, (x * b + y * a - y * b) % q
        a, b = (a * a - b * b) % q, (2 * a * b - b * b) % q
        e >>= 1
    if y == 0 and x == 1:
        return ROOT(0)
    if x == 0 and y == 1:
        return ROOT(1)
    if x == q - 1 and y == q - 1:
        return ROOT(2)
    raise AssertionError(f"cube-power class mod {q} is not a root of unity")


def is_cubic_residue(q: int, n: int) -> bool:
    """Rational cube test: n is a nonzero cube mod q = 1 (mod 3)."""
    if n % q == 0:
        raise ValueError("zero class")
    return pow(n, (q - 1) // 3, q) == 1


def chi_nine_exp_by_walk(n: int) -> int | None:
    """Exponent table of the order-3 character mod 9 with value j at 2."""
    if n % 3 == 0:
        return None
    tab = {}
    x = 1
    for k in range(6):  # (Z/9)* = <2>, order 6
        tab[x] = k % 3
        x = x * 2 % 9
    return tab[n % 9]


# ---------------------------------------------------------------------------
# support functions as plain dicts {prime: value in {1,2}}


def d_delta(f: dict[int, int]) -> int:
    out = 1
    for p, v in f.items():
        if p != 3 and v % 3:
            out *= p
    return out


def d_comb(z: int, f: dict[int, int], zp: int, fp: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in set(f) | set(fp):
        v = (z * f.get(p, 0) + zp * fp.get(p, 0)) % 3
        if v:
            out[p] = v
    return out


def chi_exp_oracle(f: dict[int, int], m: int) -> int | None:
    """Exponent of chi(f)(m) from independent per-prime symbols."""
    e = 0
    for p, v in f.items():
        if v % 3 == 0:
            continue
        if p == 3:
            part = chi_nine_exp_by_walk(m)
        else:
            if m % p == 0:
                return None
            part = symbol_exp_by_euler((m % p, 0), p)
        if part is None:
            return None
        e += v * part
    return e % 3


def splitting_oracle(f: dict[int, int], fp: dict[int, int]) -> int:
    """Indicator via residue degrees: 1 iff every ramified r != 3 has
    trivial Frobenius in the quotient of <chi, chi'> unramified at r."""
    supp = sorted({p for p in set(f) | set(fp) if p != 3})
    for r in supp:
        orders = []
        for z in range(3):
            for zp in range(3):
                if (z * f.get(r, 0) + zp * fp.get(r, 0)) % 3:
                    continue  # ramified at r, excluded by inertia
                g = d_comb(z, f, zp, fp)
                e = chi_exp_oracle(g, r)
                assert e is not None, "unramified value cannot vanish"
                orders.append(1 if e == 0 else 3)
        deg = 1
        for o in orders:
            deg = deg * o // gcd(deg, o)
        if deg != 1:
            return 0
    return 1


# ---------------------------------------------------------------------------
# squarefree moduli by the scan the package's pruned DFS replaced


def deltas_scan(limit: int) -> tuple[DeltaIndex, ...]:
    """Every Delta <= limit, a squarefree product of primes = 1 mod 3,
    ascending with Delta = 1: for each split prime p, extend every Delta
    found so far by p where it fits, (#primes) x (#Delta) steps."""
    out = [DeltaIndex(1, ())]
    for p in primes_up_to(limit).tolist():
        if p % 3 == 1:
            out.extend(
                [DeltaIndex(d.delta * p, d.primes + (p,)) for d in out if d.delta * p <= limit]
            )
    return tuple(sorted(out, key=lambda d: d.delta))


# ---------------------------------------------------------------------------
# object-route helpers: independence, the spaces V(Delta), and lambda(Delta)


def is_linearly_independent(f: SupportFunction, fp: SupportFunction) -> bool:
    """True iff no (z, z') != (0, 0) combines f, f' to the zero function."""
    if f.is_zero or fp.is_zero:
        return False
    return fp != f and fp != SupportFunction.of(d_comb(2, dict(f.entries), 0, {}))


def _factor_delta(d: int) -> tuple[int, ...]:
    primes = tuple(prime_divisors(d))
    if prod(primes) != d or any(q % 3 != 1 for q in primes):
        raise ValueError(f"{d} is not a squarefree product of split primes")
    return primes


def enumerate_V(d: int, star: bool) -> list[SupportFunction]:
    """V*(Delta) (star=True): f with Delta(f) = Delta and f(3) = 0, size
    2^omega; V(Delta) additionally ranges f(3) over F_3, size 3 * 2^omega.
    Delta = 1, star=True yields exactly the zero function."""
    if d < 1:
        raise ValueError("Delta must be positive")
    primes = _factor_delta(d)
    out: list[list[tuple[int, int]]] = [[]]
    for p in primes:
        out = [ent + [(p, v)] for ent in out for v in (1, 2)]
    star_funcs = [SupportFunction(tuple(ent)) for ent in out]
    if star:
        return star_funcs
    full = []
    for f in star_funcs:
        for v3 in (0, 1, 2):
            ent = ((3, v3),) + f.entries if v3 else f.entries
            full.append(SupportFunction(ent))
    return full


def lambda_delta(d: int) -> float:
    """prod over p | d of (1 + 2 / (sqrt p (p + 2)))^(-1), over the
    ascending prime divisors of d."""
    out = 1.0
    for q in prime_divisors(d):
        out /= 1.0 + 2.0 / (sqrt(q) * (q + 2))
    return out


# ---------------------------------------------------------------------------
# brute-force K-sum and census scan


def k_brute(x: int, ell: int, d: int) -> int:
    """Direct scan of squarefree products of primes = 1 mod ell, coprime to d."""

    def factor(n: int) -> list[int] | None:
        out = []
        m = n
        q = 2
        while q * q <= m:
            if m % q == 0:
                out.append(q)
                m //= q
                if m % q == 0:
                    return None  # not squarefree
            q += 1
        if m > 1:
            out.append(m)
        return out

    total = 0
    for n in range(1, x + 1):
        if gcd(n, d) != 1:
            continue
        fac = factor(n)
        if fac is None:
            continue
        if all(q % ell == 1 for q in fac):
            total += (ell - 1) ** len(fac)
    return total


def _mu_exp_literal(f: dict[int, int], fp: dict[int, int]) -> int:
    """Row-by-row transcription of the seven-case 3-exponent table."""
    f3, fp3 = f.get(3, 0) % 3, fp.get(3, 0) % 3
    if f3 == 0 and fp3 == 0:
        return 0
    if f3 == 0 and fp3 != 0:
        return 8 if chi_exp_oracle(f, 3) == 0 else 12
    if f3 != 0 and fp3 == 0:
        return 12 if chi_exp_oracle(fp, 3) == 0 else 16
    g = d_comb(fp3, f, 2 * f3, fp)
    return 12 if chi_exp_oracle(g, 3) == 0 else 16


def _squarefree_one_mod_three(limit: int) -> list[tuple[int, tuple[int, ...]]]:
    ps = [p for p in range(7, limit + 1) if p % 3 == 1 and all(p % q for q in range(2, isqrt(p) + 1))]
    out = [(1, ())]
    for p in ps:
        out += [(n * p, fac + (p,)) for n, fac in out if n * p <= limit]
    return sorted(out)


def census_scan_raw_total(x: int, w3: int) -> tuple[int, dict[int, int]]:
    """Brute-force raw census total and per-pair-class subsums.

    Enumerates every ordered pair of support functions inside the safe
    bounds Delta(f) <= x^(1/6), extra primes of f' <= x^(1/4), with a
    literal mu table and a direct loop over admissible d.  Returns
    (raw_total, {class_index: subtotal}) with class 1..14.
    """

    def iroot(n: int, k: int) -> int:
        if n < 0:
            raise ValueError
        r = int(round(n ** (1.0 / k)))
        while r > 0 and r**k > n:
            r -= 1
        while (r + 1) ** k <= n:
            r += 1
        return r

    def funcs_on(delta_fac: tuple[int, ...]) -> list[dict[int, int]]:
        out: list[dict[int, int]] = [{}]
        for p in delta_fac:
            nxt = []
            for f in out:
                for v in (1, 2):
                    g = dict(f)
                    g[p] = v
                    nxt.append(g)
            out = nxt
        return out

    b6 = iroot(x, 6)
    b4 = iroot(x, 4)
    n3_small = _squarefree_one_mod_three(b6)
    n3_wide = _squarefree_one_mod_three(b4)

    subsums = {k: 0 for k in range(1, 15)}
    for df, df_fac in n3_small:
        if df**6 > x:
            continue
        for f_base in funcs_on(df_fac):
            for f3 in (0, 1, 2):
                f = dict(f_base)
                if f3:
                    f[3] = f3
                if not f:
                    continue
                for dfp_extra, extra_fac in n3_wide:
                    if gcd(dfp_extra, df) != 1:
                        continue
                    if df**6 * dfp_extra**4 > x:
                        continue  # D >= Delta(f)^6 free^4 already exceeds x
                    for shared_fac in _subsets(df_fac):
                        for fp_base in funcs_on(shared_fac + extra_fac):
                            for fp3 in (0, 1, 2):
                                fp = dict(fp_base)
                                if fp3:
                                    fp[3] = fp3
                                if not fp:
                                    continue
                                if fp == f or fp == d_comb(2, f, 0, {}):
                                    continue
                                _accumulate_pair(x, w3, f, fp, subsums)
    raw = sum(subsums.values())
    return raw, subsums


def _subsets(fac: tuple[int, ...]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    for p in fac:
        out += [s + (p,) for s in out]
    return out


def _accumulate_pair(
    x: int, w3: int, f: dict[int, int], fp: dict[int, int], subsums: dict[int, int]
) -> None:
    df, dfp = d_delta(f), d_delta(fp)
    mu = _mu_exp_literal(f, fp)
    f3, fp3 = f.get(3, 0) % 3, fp.get(3, 0) % 3
    if f3 == 0 and fp3 == 0:
        row = 1
    elif f3 == 0:
        row = 2 if mu == 8 else 3
    elif fp3 == 0:
        row = 4 if mu == 12 else 5
    else:
        row = 6 if mu == 12 else 7
    free = dfp // gcd(dfp, df)
    base = df**6 * free**4
    d_false = base * 3**mu
    d_true = base * 3 ** (12 if (f3 == 0 and fp3 == 0) else mu)
    if min(d_false, d_true) > x:
        return
    if splitting_oracle(f, fp) == 0:
        return
    weight = 3 ** len({p for p in set(f) | set(fp) if p != 3})
    # direct d-loop: d = m (classes 1..7) and d = 3m (classes 8..14),
    # m squarefree with factors = 1 mod 3, coprime to Delta(f)Delta(f'),
    # each weighted 2^omega(m)
    for n in range(1, x + 1):
        if d_false * n**6 > x:
            break
        om = _n3star_omega(n)
        if om is not None and gcd(n, df * dfp) == 1:
            subsums[row] += weight * 2**om
    for n in range(1, x + 1):
        if d_true * n**6 > x:
            break
        om = _n3star_omega(n)
        if om is not None and gcd(n, df * dfp) == 1:
            subsums[row + 7] += weight * w3 * 2**om


def _n3star_omega(n: int) -> int | None:
    """omega(n) if n is a squarefree product of primes = 1 mod 3, else None."""
    if n == 1:
        return 0
    count = 0
    m = n
    q = 2
    while q * q <= m:
        if m % q == 0:
            if q % 3 != 1:
                return None
            m //= q
            if m % q == 0:
                return None
            count += 1
        q += 1
    if m > 1:
        if m % 3 != 1:
            return None
        count += 1
    return count


# ---------------------------------------------------------------------------
# L(1, chi): closed forms over the whole conductor, and series with
# period-averaged partial sums


def chi_exponent_arrays(
    f: SupportFunction, ns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(exponent of chi(f) mod 3, nonzero mask) over an integer array."""
    e = np.zeros(len(ns), dtype=np.int64)
    ok = np.ones(len(ns), dtype=bool)
    for p, v in f.entries:
        t = _chi_exps(p, ns)
        ok &= t >= 0
        e += v * np.where(t >= 0, t, 0)
    return e % 3, ok


def character_values(f: SupportFunction) -> np.ndarray:
    """chi(f)(a) for a in [0, conductor); index q-1 gives the parity."""
    q = conductor(f)
    a = np.arange(q, dtype=np.int64)
    e, ok = chi_exponent_arrays(f, a)
    vals = np.where(ok, W3[e], 0.0)
    if q == 1:
        vals = np.ones(1, dtype=complex)  # trivial character
    return vals


def twisted_character_values(f: SupportFunction) -> np.ndarray:
    """((./3) chi(f))(a) mod 3 Delta (f(3) = 0) or 9 Delta (f(3) != 0)."""
    q = conductor(f) if f.f3 else 3 * delta(f)
    a = np.arange(q, dtype=np.int64)
    e, ok = chi_exponent_arrays(f, a)
    leg3 = np.array([0, 1, -1])[a % 3]
    return np.where(ok, W3[e], 0.0) * leg3


def gauss_sum(vals: np.ndarray) -> complex:
    q = len(vals)
    a = np.arange(q)
    return complex((vals * np.exp(2j * PI * a / q)).sum())


def is_even(vals: np.ndarray) -> bool:
    v = vals[-1]  # chi(-1)
    if abs(v - 1) < 1e-9:
        return True
    if abs(v + 1) < 1e-9:
        return False
    raise ValueError("character has no parity: chi(-1) is not +-1")


def l_one(vals: np.ndarray) -> complex:
    """Closed form for L(1, chi), chi primitive non-principal mod q.

    even chi: -(tau(chi)/q) sum_a conj(chi)(a) log(2 sin(pi a/q));
    odd  chi: (i pi tau(chi)/q) (1/q) sum_a conj(chi)(a) a.
    """
    q = len(vals)
    if q < 3:
        raise ValueError("need a non-principal character")
    tau = gauss_sum(vals)
    a = np.arange(1, q)
    cbar = np.conj(vals[1:])
    if is_even(vals):
        s = (cbar * np.log(2.0 * np.sin(PI * a / q))).sum()
        return complex(-(tau / q) * s)
    b1 = (cbar * a).sum() / q
    return complex(1j * PI * tau / q * b1)


def l_one_series(vals: np.ndarray, n_terms: int = 10**6) -> complex:
    """Dirichlet series cut at n_terms, averaging the partial sums over the
    final character period; the oscillating term cancels to O(q^2/N^2)."""
    q = len(vals)
    n_terms = max(n_terms, 8 * q)
    n = np.arange(1, n_terms + 1, dtype=np.int64)
    terms = vals[n % q] / n
    csum = np.cumsum(terms)
    return complex(csum[-q:].mean())


def l_one_series_oracle(values: list[complex], n_terms: int) -> complex:
    """Truncated Dirichlet series, averaging partial sums over one period.

    values[a] = chi(a) for a in [0, q).  Averaging the last q cutoffs
    cancels the leading oscillation, leaving an O(q^2/N^2) error.
    """
    q = len(values)
    n0 = n_terms - q
    s = 0.0 + 0.0j
    acc = 0.0 + 0.0j
    for n in range(1, n_terms + 1):
        s += values[n % q] / n
        if n > n0:
            acc += s
    return acc / q


# ---------------------------------------------------------------------------
# literal Euler products and H-series: one full array of local factors per
# character, every character on its own, every prime power in float64


_C_OF_E = np.array([2.0, -1.0, -1.0])  # 2 Re of j^e


def _literal_scale(f: SupportFunction) -> float:
    """|L(1, chi)|^2 |L(1, (./3) chi)|^2 times the local factor at 3."""
    lc = l_one(character_values(f))
    lt = l_one(twisted_character_values(f))
    if f.f3:
        three = 1.0
    else:
        c3 = 2.0 if chi_exp_oracle(dict(f.entries), 3) == 0 else -1.0
        three = 1.0 - c3 / 3.0 + 1.0 / 9.0
    return (abs(lc) * abs(lt)) ** 2 * three


def _literal_logs(f: SupportFunction, p_max: int) -> tuple[float, float]:
    """(log of the truncated product in P(f), log of the first form's),
    both renormalized by |1 - chi(p)/p|^4 and corrected over p = 2 mod 3."""
    ps = primes_up_to(p_max)
    one = ps[ps % 3 == 1]
    two = ps[ps % 3 == 2]
    e1, ok1 = chi_exponent_arrays(f, one)
    c1 = np.where(ok1, _C_OF_E[e1], 0.0)
    p = one.astype(np.float64)
    loc = np.where(ok1, (1.0 - c1 / p + 1.0 / p**2) ** 2, 1.0)
    c2 = _C_OF_E[chi_exponent_arrays(f, two)[0]]
    q = two.astype(np.float64)
    log_two = float(np.log1p((-c2 * q**2 + 1.0) / q**4).sum())
    big_f = 1.0 + 2.0 * c1 / (p + 2.0) + 2.0 / (np.sqrt(p) * (p + 2.0))
    log_p = float(np.log(big_f * loc).sum()) + log_two
    first = 1.0 + 2.0 * c1 / (p + 2.0)
    second = np.where(ok1, 1.0 + 2.0 / (np.sqrt(p) * (p + 2.0 + 2.0 * c1)), 1.0)
    log_first = float(np.log(first * loc).sum() + np.log(second).sum()) + log_two
    return log_p, log_first


def euler_product_P_literal(f: SupportFunction, p_max: int) -> float:
    """P(f) = prod over p = 1 mod 3, p <= p_max, of
    1 + 2 c_p/(p + 2) + 2/(sqrt p (p + 2)), c_p = 2 Re chi(f)(p)."""
    return _literal_scale(f) * float(np.exp(_literal_logs(f, p_max)[0]))


def _form1_literal(f: SupportFunction, p_max: int) -> float:
    """prod(1 + 2c_p/(p + 2)) times prod over p coprime to Delta(f) of
    1 + 2/(sqrt p (p + 2 + 2c_p)), renormalized as P(f)."""
    return _literal_scale(f) * float(np.exp(_literal_logs(f, p_max)[1]))


def h_constants_literal(params: TruncationParams) -> tuple[HConstants, float]:
    """The Delta-series term by term, each sum exact in math.fsum: every f
    in V*(Delta) and both of its f(3) != 0 shifts get their own Euler
    products.  Also returns the first product form of the starred
    constant, sum psi_3 3^k / Delta^(3/2) times _form1_literal over f with
    f(3) = 0, which equals H0 in exact arithmetic; the package computes
    only H0."""
    h0: list[float] = []
    h1: list[float] = []
    h1p: list[float] = []
    h2: list[float] = []
    form1: list[float] = []
    p_max_seen = 0.0
    for dI in enumerate_deltas(params.delta_max):
        d = dI.delta
        pref = float(psi_ell(d, 3)) * 3 ** len(dI.primes) / d**1.5
        lam = lambda_delta(d)
        for f in enumerate_V(d, True):
            fd = dict(f.entries)
            for eta in (1, 2):
                gfn = SupportFunction.of(d_comb(1, fd, eta, {3: 1}))
                h2.append(lam * pref * euler_product_P_literal(gfn, params.p_max))
            if d == 1:
                continue
            pf = euler_product_P_literal(f, params.p_max)
            p_max_seen = max(p_max_seen, pf)
            h0.append(lam * pref * pf)
            (h1 if chi_exp_oracle(fd, 3) == 0 else h1p).append(lam * pref * pf)
            form1.append(pref * _form1_literal(f, params.p_max))
    hc = HConstants(
        h0=fsum(h0),
        h1=fsum(h1),
        h1_prime=fsum(h1p),
        h2=fsum(h2),
        p_of_f_max=p_max_seen,
    )
    return hc, fsum(form1)


def grid_sums_by_prime(
    g: _Grids, primes: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, list[int], list[np.ndarray]]:
    """The grid side of constants._grid_bins one support prime at a time:
    the id of p is e_9(p) + sum lut_i[p mod r_i], lut_i the digit 3^i e_i
    of r_i by residue (n_ids where r_i | p), and the dead primes are found
    by a scan of the ids.  Returns the ids on the primes = 1 mod 3 and on
    the primes = 2 mod 3 (the two halves of g.primes, both without the h
    digit), the dead primes in grid order, and g.diff over each half (the
    correction over the primes = 2 mod 3, then P) bucketed by those ids."""
    n_ids = 2 * 3 ** (len(primes) + 1)
    n_euler = n_ids // 2
    luts = []
    for i, r in enumerate(primes, 1):
        tab = _chi_exps(r, np.arange(r)).astype(np.int64)
        luts.append(np.where(tab >= 0, 3**i * tab, n_ids))

    def grid_ids(ps: np.ndarray) -> np.ndarray:
        ps = ps.astype(np.int64)
        ids = _chi_exps(3, ps).astype(np.int64)
        for r, lut in zip(primes, luts):
            ids += lut[ps % r]
        return ids

    one = grid_ids(g.primes[: g.split])
    two = grid_ids(g.primes[g.split :])
    dead = g.primes[: g.split][one >= n_euler].tolist()

    def bins(ids: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.bincount(ids, w, minlength=n_euler)[:n_euler]

    return one, two, dead, [bins(two, g.diff[g.split :]), bins(one, g.diff[: g.split])]


# ---------------------------------------------------------------------------
# per-prime walks: the loops behind the package's array code


def char_cancellation_profile_literal(
    f: SupportFunction,
    checkpoints: tuple[int, ...],
    eps: tuple[int, int] = (0, 0),
    pattern: dict[int, tuple[int, int]] | None = None,
) -> list[CancellationSum]:
    """The cancellation probe one standard prime at a time: scalar
    decomposition, chi_exp_oracle for the characters, cubic_symbol for
    (pi/rho_r)_3, and exact counts of the cube roots of unity."""
    if pattern is None:
        pattern = {r: (1, 0) for r in f.supp3}
    fd = dict(f.entries)
    f2 = d_comb(2, fd, 0, {})
    rhos = {r: standard_decompose(r) for r in pattern}
    counts = [0, 0, 0]
    terms = 0
    out: list[CancellationSum] = []
    idx = 0
    w = np.exp(2j * np.pi * np.arange(3) / 3)
    for p in primes_in_class(checkpoints[-1], 3, 1).tolist():
        sp = standard_decompose(p)
        while idx < len(checkpoints) and p > checkpoints[idx]:
            val = complex(counts[0] + counts[1] * w[1] + counts[2] * w[2])
            out.append(CancellationSum(val, terms))
            idx += 1
        terms += 1
        e = 0
        dead = False
        if eps[0] or eps[1]:
            v = chi_exp_oracle(fd, p)
            if v is None:
                dead = True
            elif eps[0]:
                e += v
            if not dead and eps[1]:
                e += chi_exp_oracle(f2, p)
        if not dead:
            for r, (e1, e2) in pattern.items():
                k = 2 * e1 + e2
                if k == 0:
                    continue
                vr = chi_exp_oracle({r: 1}, p)
                vs = cubic_symbol(sp.pi, rhos[r])
                if vr is None or vs.is_zero:
                    dead = True
                    break
                e += k * (vr + vs.exp)
        if not dead:
            counts[e % 3] += 1
    while idx < len(checkpoints):
        val = complex(counts[0] + counts[1] * w[1] + counts[2] * w[2])
        out.append(CancellationSum(val, terms))
        idx += 1
    return out


def k_direct_dfs(x: int, ell: int, d: int) -> int:
    """K(x; ell, d) by a DFS that pushes every squarefree product, leaves
    included."""
    ps = [p for p in primes_up_to(x).tolist() if p % ell == 1 and d % p != 0]
    total = 0
    stack = [(1, 1, 0)]
    while stack:
        n, w, i = stack.pop()
        total += w
        for k in range(i, len(ps)):
            m = n * ps[k]
            if m > x:
                break
            stack.append((m, w * (ell - 1), k + 1))
    return total


def symbol_pairs(
    sps: Iterable[StandardPrime], alphas: list[tuple[int, int]]
) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """The (alpha, beta) int pairs the symbols suite reads off the Z[j]
    route, 15 per prime in the order of its checks: each alpha at pi and at
    conj(pi), then (p // 3 + 1, 0) at pi, read off the prime objects."""
    for sp in sps:
        pi, bar = sp.pi, sp.pi.conj()
        for alpha in alphas:
            yield alpha, (pi.a, pi.b)
            yield alpha, (bar.a, bar.b)
        yield (sp.p // 3 + 1, 0), (pi.a, pi.b)


def class_counts_by_prime(x: int, ell: int) -> np.ndarray:
    """counts[c, i], the primes p <= _values(x)[i] with p = c (mod ell), by
    Legendre's sieve in residue classes with one strike per prime p <=
    sqrt(x), each reading the counts left by the primes before it."""
    r = isqrt(x)
    vals = _values(x)
    size = len(vals)
    counts = (vals - np.arange(ell, dtype=np.int64)[:, None]) // ell + 1
    counts[0] -= 1
    counts[1, 1:] -= 1
    rows = np.arange(ell)
    for p in primes_up_to(r).tolist():
        lo = int(np.searchsorted(vals, p * p))
        w = vals[lo:] // p
        strike = counts[:, np.where(w <= r, w, size - x // w)] - counts[:, p - 1 : p]
        if p == ell:
            counts[0, lo:] -= strike.sum(axis=0)
        else:
            counts[:, lo:] -= strike[rows * pow(p, -1, ell) % ell]
    return counts


def chi_p_table_walk(p: int) -> bytes:
    """chi_p exponents by walking the powers of a primitive root g one
    multiplication at a time: the entry at g^k is k * t mod 3, where
    chi_p(g) = j^t."""
    g = _primitive_root(p)
    t = cubic_symbol(EisensteinInt(g, 0), standard_decompose(p)).exp
    tab = bytearray(p)
    tab[0] = 0xFF
    x = 1
    for k in range(p - 1):
        tab[x] = k * t % 3
        x = x * g % p
    return bytes(tab)


# ---------------------------------------------------------------------------
# pair functions on validated objects: the route the package's tuple kernel
# replaced


def one_plus_v_plus_v2(v: CharValue) -> int:
    """1 + v + v^2 for a root of unity v: 3 at v = 1, else 0."""
    if v.is_zero:
        raise ValueError("one_plus_v_plus_v2 is undefined at the zero value")
    return 3 if v.exp == 0 else 0


def indicator_literal(f: SupportFunction, fp: SupportFunction) -> int:
    """Product over union support primes r != 3 of the kernel averages
    3^-1 sum over {(z, z'): z f(r) + z' f'(r) = 0} of chi(z f + z' f')(r).

    Each factor is 1 or 0: the three kernel values form a subgroup image in
    the cube roots of unity, so it is enough to test the value at a kernel
    generator.  Requires a linearly independent pair.
    """
    if not is_linearly_independent(f, fp):
        raise ValueError("indicator needs a linearly independent pair")
    fd, fpd = dict(f.entries), dict(fp.entries)
    for r in sorted(set(f.supp3) | set(fp.supp3)):
        vr, vpr = f.value(r), fp.value(r)
        if vr == 0:
            z, zp = 1, 0
        elif vpr == 0:
            z, zp = 0, 1
        else:
            # z = -v'(r)/v(r), z' = 1 generates the kernel
            z, zp = (-vpr * pow(vr, -1, 3)) % 3, 1
        v = chi_exp_oracle(d_comb(z, fd, zp, fpd), r)
        if one_plus_v_plus_v2(ZERO if v is None else ROOT(v)) == 0:
            return 0
    return 1


def three_row_literal(f: SupportFunction, fp: SupportFunction) -> int:
    """Row 1..7 of the local table at 3, by the pair's values there."""
    f3, fp3 = f.f3, fp.f3
    fd, fpd = dict(f.entries), dict(fp.entries)
    if f3 == 0 and fp3 == 0:
        return 1
    if f3 == 0:
        return 2 if chi_exp_oracle(fd, 3) == 0 else 3
    if fp3 == 0:
        return 4 if chi_exp_oracle(fpd, 3) == 0 else 5
    return 6 if chi_exp_oracle(d_comb(fp3, fd, 2 * f3, fpd), 3) == 0 else 7


_MU_BY_ROW_LITERAL = (None, 0, 8, 12, 12, 16, 12, 16)


def big_d_literal(f: SupportFunction, fp: SupportFunction, three_divides_d: bool) -> int:
    """D = Delta(f)^6 free(Delta(f'), Delta(f))^4 3^mu, mu by the row of
    three_row_literal, with the first row promoted to 12 when 3 | d."""
    row = three_row_literal(f, fp)
    mu = 12 if three_divides_d and row == 1 else _MU_BY_ROW_LITERAL[row]
    df, dfp = delta(f), delta(fp)
    return df**6 * (dfp // gcd(dfp, df)) ** 4 * 3**mu


def s_sum_literal(x: int, f: SupportFunction, fp: SupportFunction, mode: WeightMode) -> int:
    """S(X, f, f') = sum over admissible d of the 2^omega weight.

    d runs over squarefree products of primes = 1 mod 3, optionally times 3,
    coprime to Delta(f) Delta(f'), with free(d, 3)^6 <= X / D(d, f, f').
    Splitting d = m vs d = 3m turns each branch into a K-sum.
    """
    dd = delta(f) * delta(fp)
    m1 = isixth_root(x // big_d_literal(f, fp, False))
    m3 = isixth_root(x // big_d_literal(f, fp, True))
    return k_direct(m1, 3, dd) + mode.w3 * k_direct(m3, 3, dd)


# ---------------------------------------------------------------------------
# the census loop on validated objects: the route the package's tuple loop
# replaced


def census_literal(
    x: int, w3: int, collect: bool = False
) -> tuple[dict[SubsumClass, int], list[TermRecord]]:
    """Subsums and, if collect, the sorted term stream at X = x for the
    3 | d weight w3, one SupportFunction per candidate f': independence by
    is_linearly_independent, D by big_d_literal, the row by
    three_row_literal, the indicator by indicator_literal, and every K-sum
    by k_direct."""
    subs = {c: 0 for c in SubsumClass}
    records: list[TermRecord] = []
    if x < 3**8:
        return subs, records
    wide = list(enumerate_deltas(ifourth_root(x // 3**8)))
    for dI in enumerate_deltas(isixth_root(x)):
        df, fac = dI.delta, dI.primes
        for f_vals in product((1, 2), repeat=len(fac)):
            base = tuple(zip(fac, f_vals))
            for f3 in (0, 1, 2):
                if f3 == 0 and not base:
                    continue
                f = SupportFunction(((3, f3),) + base if f3 else base)
                for fp3 in (0, 1, 2):
                    mu_floor = 0 if f3 == fp3 == 0 else (8 if f3 == 0 else 12)
                    bound = ifourth_root(x // (df**6 * 3**mu_floor))
                    for eI in wide:
                        if eI.delta > bound:
                            break
                        if gcd(eI.delta, df) != 1:
                            continue
                        u = 3 ** (len(fac) + len(eI.primes))
                        for shared in _subsets(fac):
                            sup = tuple(sorted(shared + eI.primes))
                            for fp_vals in product((1, 2), repeat=len(sup)):
                                ent = tuple(zip(sup, fp_vals))
                                fp = SupportFunction(((3, fp3),) + ent if fp3 else ent)
                                if not is_linearly_independent(f, fp):
                                    continue
                                dd = df * delta(fp)
                                terms = []
                                for d_class, shift, w in ((1, 0, 1), (3, 7, w3)):
                                    big = big_d_literal(f, fp, d_class == 3)
                                    k = k_direct(isixth_root(x // big), 3, dd)
                                    if k:
                                        terms.append((d_class, big, shift, u * w * k))
                                if not terms or indicator_literal(f, fp) == 0:
                                    continue
                                row = three_row_literal(f, fp)
                                for d_class, big, shift, w in terms:
                                    cls = SubsumClass(row + shift)
                                    subs[cls] += w
                                    if collect:
                                        records.append(TermRecord(f, fp, d_class, big, cls, w))
    records.sort(
        key=lambda t: (delta(t.f), delta(t.fp), t.f.entries, t.fp.entries, t.d_class)
    )
    return subs, records


# ---------------------------------------------------------------------------
# the census's product-then-filter enumeration: the route the package's join
# of the two halves of f' replaced


def census_for_delta_by_product(bound: int, dI: DeltaIndex, wide: list[DeltaIndex]) -> list:
    """The skeleton entries at X = bound with Delta(f) = dI.delta, in the
    package's tuple layout: every f' of every shared subset and new part is
    listed with its exponent sums, then the kernel test at the r_i keeps
    those whose chi(f')(r_i) less the entry at r_i, f'(3) chi_nine(r_i)
    included, is f'(r_i) f(r_i) times chi(f)(r_i) less f(r_i).  It skips no
    Delta(f) up front, works out one of f and 2f, and takes its character
    exponents, sums, rows and 3-exponent floors from the package."""
    out = []
    df, fac = dI.delta, dI.primes
    d6 = df**6
    k = len(fac)
    pts = (3,) + fac
    new_bound = {mu: ifourth_root(bound // (d6 * 3**mu)) for mu in (0, 8, 12)}
    top = new_bound[0 if fac else 12]
    # a prime's exponents at the points, then its place among the r_i
    vec = {
        q: tuple(0 if s == q else _exp(q, s) for s in pts) + tuple(int(q == r) for r in fac)
        for q in pts
    }
    chi_nine_at = vec[3][1 : k + 1]
    at_new: dict[int, tuple[int, ...]] = {}
    cands = []
    for eI in wide:
        if eI.delta > top:
            break
        if gcd(eI.delta, df) == 1:
            for r in eI.primes:
                if r not in at_new:
                    at_new[r] = tuple(_exp(p, r) for p in pts)
            cands.append((eI, {at_new[r] for r in eI.primes}))
    new_vecs = set(at_new.values())
    zero = (0,) * (2 * k + 1)
    parts: dict[int, tuple[int, int, list]] = {}

    def parts_of(eI: DeltaIndex) -> tuple[int, int, list]:
        if eI.delta not in parts:
            for q in eI.primes:
                if q not in vec:
                    vec[q] = tuple(_exp(q, s) for s in pts) + zero[:k]
            fps = []
            for shared in _subsets(fac):
                combos = [((), zero)]
                for q in sorted(shared + eI.primes):
                    combos = [
                        (ent + ((q, v),), tuple(s + v * e for s, e in zip(sums, vec[q])))
                        for ent, sums in combos
                        for v in (1, 2)
                    ]
                dfp = prod(shared) * eI.delta
                for ent, sums in combos:
                    e = [s % 3 for s in sums]
                    fps.append((dfp, ent, e[0], e[1 : k + 1], tuple(e[k + 1 :])))
            parts[eI.delta] = (d6 * eI.delta**4, 3 ** (k + len(eI.primes)), fps)
        return parts[eI.delta]

    for f_vals in product((1, 2), repeat=k):
        base = tuple(zip(fac, f_vals))
        for f3 in (0, 1, 2):
            if f3 == 0 and not base:
                continue
            f_top = new_bound[_mu_floor(f3, 0)]
            if f_top < 1:
                continue
            f_ent = ((3, f3),) + base if f3 else base
            if f_ent[0][1] == 2:
                continue
            f2_ent = tuple((p, 2 * v % 3) for p, v in f_ent)
            fvec = (f3,) + f_vals
            e_f, *at_f = _summed(f_ent, vec)[: k + 1]
            a_f = [v * e for v, e in zip(f_vals, at_f)]
            ones = {w for w in new_vecs if sum(v * e for v, e in zip(fvec, w)) % 3 == 0}
            news = [eI for eI, ws in cands if eI.delta <= f_top and ws <= ones]
            for fp3 in (0, 1, 2):
                fp_bound = new_bound[_mu_floor(f3, fp3)]
                rows = [_row(f3, fp3, e_f, e) for e in range(3)]
                shift = [fp3 * e for e in chi_nine_at]
                for eI in news:
                    if eI.delta > fp_bound:
                        break
                    d_base, u, fps = parts_of(eI)
                    for dfp, ent, e_fp, at_fp, fpv in fps:
                        d1 = d_base * 3 ** _MU_BY_ROW[rows[e_fp]]
                        if d1 > bound:
                            continue
                        if at_fp != [(x * a - s) % 3 for x, a, s in zip(fpv, a_f, shift)]:
                            continue
                        fp_ent = ((3, fp3),) + ent if fp3 else ent
                        if not fp_ent or fp_ent == f_ent or fp_ent == f2_ent:
                            continue
                        row = rows[e_fp]
                        d3 = d_base * 3**12 if row == 1 else d1
                        for g in (f_ent, f2_ent):
                            out.append((df, dfp, g, fp_ent, row, d1, d3, u, df * dfp))
    return out


def skeleton_by_product(bound: int) -> list:
    """counting._build_skeleton's list at X = bound, each Delta(f) taken by
    census_for_delta_by_product."""
    wide = list(enumerate_deltas(ifourth_root(bound // 3**8)))
    skel = [
        t
        for dI in enumerate_deltas(isixth_root(bound))
        for t in census_for_delta_by_product(bound, dI, wide)
    ]
    skel.sort(key=lambda t: t[:4])
    return skel
