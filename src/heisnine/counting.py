"""Census of pairs of cubic characters weighted by squarefree K-sums.

The count of interest is a double sum over ordered, linearly independent
pairs (f, f') of support functions whose characters cut out the same field
collection (detected by a product-of-kernels indicator), each weighted by
3^|union support|, and an inner sum S(X, f, f') over auxiliary squarefree
moduli d below a sliding bound X / D(d, f, f').  The raw total is divisible
by 108 = 2^2 3^3 under one weight normalization and the quotient is the
number of counted objects with invariant <= X; divisibility is always
observed from the computed integer, never assumed.

The terms at a smaller X are the terms at a larger X with D <= X, so one
enumeration serves every X: the term skeleton lists each pair with a term
at X_MAX, without its K-value, and holds the four pairs of a conjugate
orbit {f, 2f} x {f', 2f'}, which share row, D, u and dd, as one entry (186
orbits for the 744 pairs).  Cost model of the census: the first X >= 3^8
asked builds the skeleton, once per process; every X then costs one pass
over the orbits, with a sixth root and a K-sum only where X // D >= 7^6 (3
orbits at 10^18), and counts each orbit four times.  enumerate_terms
lists the four pairs of each orbit with D <= X and sorts them into stream
order, 1.2-1.5 ms warm at 10^18.  An enumeration at a bound B skips the
Delta(f) that _no_entry proves empty, by a rank test over F_3 that reads
the characters at the primes of Delta(f), at 3 and at the primes below 63
(92 of 105 at 10^18), works out one of f and 2f and one of f' and 2f',
reads chi_p(n) once per Delta(f) through eisenstein._chi_exp, Euler's
criterion n^((p-1)/3) = r_p^e (mod p) with r_p the image of j, and builds
no chi_p table.  It lists the new parts of f' up to ifourth_root(B //
7^6), the most any Delta(f) reads, and each half of f' once, its values on
the primes of Delta(f) and on a new part, and joins the halves by the
exponents the kernel test requires, so it builds only the f' that pass:
about 6 ms cold at X_MAX = 10^18, and 0.14-0.20 s at a 10^24 bound (2
cores, Python 3.11).  enumerate_terms builds its records, and the distinct
functions they share, without checking again what the census built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import exp, gcd, log, prod
from operator import mul
from typing import Iterator, Sequence

from ._primes import check_int, check_type
from .charspace import DeltaIndex, SupportFunction, enumerate_deltas
from .eisenstein import _chi_exp
from .ksum import k_direct

__all__ = [
    "WeightMode",
    "SubsumClass",
    "indicator",
    "isixth_root",
    "ifourth_root",
    "TermRecord",
    "CountReport",
    "heis_total",
    "heis_subsum",
    "enumerate_terms",
    "log_grid",
    "X_MAX",
]

X_MAX = 10**18


class WeightMode(Enum):
    """Two weightings of the auxiliary modulus d = m or 3m.

    OMEGA_STAR weighs by 2^omega(m) in both branches (omega of the 3-free
    part); OMEGA_FULL weighs d = 3m by 2^(omega(m) + 1).  They are kept as
    separate first-class routes: only OMEGA_FULL makes the raw total
    divisible by 108 at every X, and the divergence is pinned by tests.
    """

    OMEGA_STAR = "omega-star"
    OMEGA_FULL = "omega-full"

    @property
    def w3(self) -> int:
        return 1 if self is WeightMode.OMEGA_STAR else 2


class SubsumClass(Enum):
    C1 = 1
    C2 = 2
    C3 = 3
    C4 = 4
    C5 = 5
    C6 = 6
    C7 = 7
    C8 = 8
    C9 = 9
    C10 = 10
    C11 = 11
    C12 = 12
    C13 = 13
    C14 = 14


# The census loop works on SupportFunction.entries tuples: sorted (prime,
# value) pairs with values in {1, 2}.  It builds objects only for the terms
# enumerate_terms emits; indicator reads its pair as vectors on a support.
Entries = tuple[tuple[int, int], ...]
Ints = Sequence[int]


def _exp(p: int, n: int) -> int:
    """Exponent of chi_p(n), or of chi_nine(n) at p = 3; n must be prime to p."""
    e = _chi_exp(p, n)
    if e is None:
        raise ValueError(f"chi_{p}({n}) is zero: {n} is not prime to {p}")
    return e


def _exp_table(sup: Ints) -> list[list[int]]:
    """Row i holds the exponents of chi_q, q = sup[i] (chi_nine at q = 3), at
    each prime of sup, 0 at q itself: one _exp call per ordered pair."""
    return [[0 if s == q else _exp(q, s) for s in sup] for q in sup]


def _exps(table: list[list[int]], w: Ints) -> tuple[int, ...]:
    """e_w(r) at each prime r of the table's support, w the values there:
    the exponent of chi(w)(r) less w's own entry at r, mod 3."""
    return tuple([sum(map(mul, w, col)) % 3 for col in zip(*table)])


def _kernel_rule(sup: Ints, u: Ints, e_u: Ints, v: Ints, e_v: Ints) -> int:
    """The indicator of the value vectors u, v on sup, from their exponents
    (_exps): 1 iff v(r) e_u(r) = u(r) e_v(r) (mod 3) at every r != 3 of sup.
    The kernel generator v(r) f - u(r) f' at r (a multiple of f if u(r) = 0)
    vanishes at r, and chi of it at r has exponent the difference."""
    for r, x, a, y, b in zip(sup, u, e_u, v, e_v):
        if r != 3 and (y * a - x * b) % 3:
            return 0
    return 1


def _row(f3: int, fp3: int, e: int, ep: int) -> int:
    """Row 1..7 of the local table at 3, from f(3), f'(3) and the exponents
    e, ep of chi(f)(3), chi(f')(3) less their entries at 3.  With f(3) and
    f'(3) both nonzero the row reads chi(g)(3) for g = f'(3) f + 2 f(3) f',
    which vanishes at 3; chi(g)(3) is linear in g."""
    if f3 == 0 and fp3 == 0:
        return 1
    if f3 == 0:
        return 2 if e == 0 else 3
    if fp3 == 0:
        return 4 if ep == 0 else 5
    return 6 if (fp3 * e + 2 * f3 * ep) % 3 == 0 else 7


_MU_BY_ROW = (None, 0, 8, 12, 12, 16, 12, 16)
_CLASSES = tuple(SubsumClass)  # by value - 1, without the Enum lookup


def indicator(f: SupportFunction, fp: SupportFunction) -> int:
    """Product over union support primes r != 3 of the kernel averages
    3^-1 sum over {(z, z'): z f(r) + z' f'(r) = 0} of chi(z f + z' f')(r).

    Each factor is 1 or 0: the three kernel values form a subgroup image in
    the cube roots of unity, so it is enough to test the value at a kernel
    generator (_kernel_rule).  Requires a linearly independent pair of
    SupportFunction values (ValueError, TypeError otherwise).
    """
    if not isinstance(f, SupportFunction) or not isinstance(fp, SupportFunction):
        raise TypeError(
            f"a pair of SupportFunction values is needed, got {f!r} and {fp!r}"
        )
    f_ent, fp_ent = f.entries, fp.entries
    f2_ent = tuple((p, 2 * v % 3) for p, v in f_ent)
    if not f_ent or not fp_ent or fp_ent == f_ent or fp_ent == f2_ent:
        raise ValueError("indicator needs a linearly independent pair")
    fd, fpd = dict(f_ent), dict(fp_ent)
    sup = sorted(fd.keys() | fpd.keys())
    u, v = [fd.get(r, 0) for r in sup], [fpd.get(r, 0) for r in sup]
    # e_u, e_v as _exps reads them off _exp_table, but only at the r != 3
    # that _kernel_rule reads (0 stands in at 3)
    e_u, e_v = [0] * len(sup), [0] * len(sup)
    for i, r in enumerate(sup):
        if r != 3:
            for q, x, y in zip(sup, u, v):
                if q != r:
                    e = _exp(q, r)
                    e_u[i] += x * e
                    e_v[i] += y * e
            e_u[i] %= 3
            e_v[i] %= 3
    return _kernel_rule(sup, u, e_u, v, e_v)


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) by integer Newton from a float seed below 2^64, a
    bit-length one above; the answer is settled by integer comparisons."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    if n < 1 << 64:
        r = int(n ** (1.0 / k))  # >= 1, and within one of the root
    else:
        r = 1 << -(-n.bit_length() // k)  # certainly >= the root
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def isixth_root(n: int) -> int:
    return _iroot(n, 6)


def ifourth_root(n: int) -> int:
    return _iroot(n, 4)


# ---------------------------------------------------------------------------
# full census


@dataclass(frozen=True)
class TermRecord:
    """One nonzero (f, f', d-class) contribution to the raw total."""

    f: SupportFunction
    fp: SupportFunction
    d_class: int  # 1 if 3 coprime to d, 3 if 3 | d
    big_d: int
    cls: SubsumClass
    weight: int  # 3^|union| * (w3 if 3 | d) * K-sum value


def _term_record(
    f: SupportFunction,
    fp: SupportFunction,
    d_class: int,
    big_d: int,
    cls: SubsumClass,
    weight: int,
) -> TermRecord:
    """TermRecord(f, fp, d_class, big_d, cls, weight) with its six fields
    set in one step, not by six frozen __setattr__ calls."""
    t = object.__new__(TermRecord)
    t.__dict__.update(f=f, fp=fp, d_class=d_class, big_d=big_d, cls=cls, weight=weight)
    return t


@dataclass(frozen=True)
class CountReport:
    x: int
    weight_mode: WeightMode
    raw_total: int
    count: Fraction
    divisible_by_108: bool
    subsums: dict[SubsumClass, int]


def _check_x(x: int) -> None:
    check_int(x, "X")
    if x < 0:
        raise ValueError("X must be nonnegative")
    if x > X_MAX:
        raise ValueError(f"X = {x} exceeds the supported bound {X_MAX}")


# minimal 3-exponent over the rows compatible with the (f(3), f'(3)) pattern
def _mu_floor(f3: int, fp3: int) -> int:
    if f3 == 0 and fp3 == 0:
        return 0
    if f3 == 0:
        return 8
    return 12


def _k_value(q: int, dd: int) -> int:
    """K(isixth_root(q); 3, dd) for q = X // D >= 1."""
    if q < 7**6:
        return 1  # only n = 1: 7 is the least admissible prime
    return k_direct(isixth_root(q), 3, dd)


# a raw term: (Delta(f), Delta(f'), f entries, f' entries, d-class, D,
# class value, weight without the w3 factor); the first five are its sort key
RawTerm = tuple[int, int, Entries, Entries, int, int, int, int]

# a skeleton entry: one conjugate orbit {f, 2f} x {f', 2f'} of pairs with a
# term at some X up to the bound it was built at, without its K-value; the
# four pairs share everything but their entries: (Delta(f), Delta(f'), f
# entries, f' entries, row, D for 3 coprime to d, D for 3 | d, u =
# 3^|union support|, dd = Delta(f) Delta(f')), f and f' each the one that
# leads with a 1; the first four are its sort key
Orbit = tuple[int, int, Entries, Entries, int, int, int, int, int]
Skeleton = list[Orbit]


def _summed(ent: Entries, vec: dict[int, tuple[int, ...]]) -> list[int]:
    """The sum of v * vec[q] over the entries (q, v), mod 3."""
    sums = [0] * len(vec[3])
    for q, v in ent:
        for i, e in enumerate(vec[q]):
            sums[i] += v * e
    return [e % 3 for e in sums]


def _rank3(rows: list[list[int]]) -> int:
    """The rank over F_3 of the matrix with these rows."""
    rows = [[x % 3 for x in r] for r in rows]
    rank = 0
    while rows:
        p = rows.pop()
        for c, x in enumerate(p):
            if x:
                break
        else:
            continue  # a zero row
        rank += 1
        # x is its own inverse mod 3, so r - r[c] x p is 0 at c
        rows = [[(a - t * b) % 3 for a, b in zip(r, p)] if (t := r[c] * x) else r for r in rows]
    return rank


# the split primes below 7 * 3^2, with their fourth powers: a new part short
# of 63 is 1 or one of these
_SMALL_NEW = tuple((q, q**4) for q in (7, 13, 19, 31, 37, 43, 61))


def _no_entry(bound: int, dI: DeltaIndex) -> bool:
    """True if the pairs with Delta(f) = dI.delta provably have no skeleton
    entry at X = bound.  It reads the cubic characters at the primes r_1,
    ..., r_k of Delta(f), at 3 and at the primes below 63 only, before
    _census_for_delta lists any new part or half of f'.

    Write T_mu for ifourth_root(bound // (Delta(f)^6 3^mu)), the largest
    new part (the primes of f' outside Delta(f)) that a pair of 3-exponent
    mu admits.  The rule applies where T_8 < 7.  Then a pair with f(3) or
    f'(3) nonzero has mu >= 8 and no new part, and a pair with f(3) = f'(3)
    = 0 (row 1, mu = 0) has a new part N with N^4 < 7^4 3^8, so N < 63: N
    is 1 or one prime q < 63, as two split primes make at least 91.  Also
    T_16 = 0, so a pair with f(3) != 0 lies in row 4 or 6 (mu = 12), not 5
    or 7: by _row, g3 chi(f)(3) + 2 chi(f')(3) = 0 (each chi(.)(3) less
    the entry at 3), an equation linear in f' that f satisfies.

    Take f with values f3 at 3 and v_i at the r_i, and f' with values g3
    at 3, s_i at the r_i and n_q on N.  In exponents, the kernel test of
    _census_for_delta at the r_i reads L(g3, s) = sum n_q E_q, where
    L(g3, s)_i = s_i a_f(r_i) - g3 chi_nine(r_i) - sum_{l != i} s_l
    chi_{r_l}(r_i), with a_f as there, and E_q = (chi_q(r_i))_i; at q the
    indicator needs chi(f)(q) = 1.  L is linear over F_3, and L(f3, v) =
    0.  So where the kernel of L is the line of f, no f' without a new
    part is independent of f, and where moreover E_q lies outside the
    image of L(0, .) for every q with chi(f)(q) = 1, no f' with a new part
    passes.  The rule asks both of every f that leads with a 1 (f3 != 0
    only if T_12 >= 1): the kernel is the line of f iff L has rank k over
    (g3, s), with the row equation above where f3 != 0, or rank k - 1 over
    s alone, which is all f' ranges over where f3 = 0 and no row with g3
    != 0 fits (row 2 needs chi(f)(3) = 1 and T_8 >= 1, row 3 needs T_12
    >= 1); then E_q lies in the image iff appending it keeps the rank at
    k - 1.  If every f passes, no pair has an entry.  At k = 1 this reads:
    L(g3, s) = (f3 v_1 s_1 - g3) chi_nine(r_1), and L(0, .) = 0 where f3
    = 0, so an entry needs chi_nine(r_1) = 1 where a g3 != 0 fits beside
    f3 = 0 (which it does wherever f3 != 0 fits), or a q with
    chi_{r_1}(q) = chi_q(r_1) = 1."""
    d6, fac = dI.delta**6, dI.primes
    q8 = bound // (d6 * 3**8)
    if q8 >= 7**4:
        return False  # a new part fits beside f(3) or f'(3) != 0
    if not fac:
        return True  # f = (3: 1), and every f' = (3: g3) is on its line
    k = len(fac)
    three = q8 >= 3**4  # T_12 >= 1: f(3) != 0 fits
    top = bound // d6
    news = [q for q, q4 in _SMALL_NEW if q4 <= top and q not in fac]
    if k == 1:
        (r,) = fac
        if (three or q8 and _exp(r, 3) == 0) and _exp(3, r) == 0:
            return False
        return not any(_exp(r, q) == 0 == _exp(q, r) for q in news)
    # col[i][l] is the exponent of chi_{r_l}(r_i), 0 at l = i
    col = [[0 if q == r else _exp(q, r) for q in fac] for r in fac]
    nine = [_exp(3, r) for r in fac] if q8 else []
    at3 = [_exp(r, 3) for r in fac] if q8 else []
    # per q: chi_{r_i}(q), which chi(f)(q) sums, and E_q
    at_q = [([_exp(r, q) for r in fac], [_exp(q, r) for r in fac]) for q in news]
    for f3 in (0, 1) if three else (0,):
        for v in product((1, 2), repeat=k):
            if not f3 and v[0] == 2:
                continue  # 2f of an f that leads with a 1
            # L(0, .): row i, column l; a_f(r_i) on the diagonal
            m = [[-x for x in c] for c in col]
            for i, c in enumerate(col):
                m[i][i] = v[i] * (sum(map(mul, v, c)) + (f3 * nine[i] if f3 else 0))
            # g3 != 0 fits where f3 != 0, or beside f3 = 0 in row 2 or 3
            if f3 or (q8 and (three or sum(map(mul, v, at3)) % 3 == 0)):
                rows = [row + [-c] for row, c in zip(m, nine)]  # column g3 last
                if f3:  # row 4 or 6: g3 chi(f)(3) + 2 chi(f')(3) = 0
                    rows.append([2 * a for a in at3] + [sum(map(mul, v, at3))])
                if _rank3(rows) != k:
                    return False
            elif _rank3(m) != k - 1:
                return False
            if f3:
                continue
            for chi_f, e_q in at_q:
                if sum(map(mul, v, chi_f)) % 3 == 0:
                    if _rank3([row + [e] for row, e in zip(m, e_q)]) == k - 1:
                        return False
    return True


def _census_for_delta(
    bound: int, dI: DeltaIndex, wide: Sequence[DeltaIndex], seen: dict[Entries, Entries]
) -> Skeleton:
    """The skeleton entries at X = bound of the pairs with Delta(f) =
    dI.delta, one per orbit {f, 2f} x {f', 2f'}: (2f, f'), (f, 2f') and
    (2f, 2f') have the row, D and kernel factors of (f, f'), so the entry
    names f and f' by the one of each that leads with a 1.  seen interns
    the f' entry tuples across the calls of one build: an f' entry tuple
    equal to one in seen is replaced by it.  Every pruning bound here
    is necessary for D <= bound, and the independence and kernel tests do
    not read X, so the entries at a smaller X are exactly those with D <= X.

    Away from 3, f' is a shared half, its values s on the primes r_i of
    Delta(f) (3^k of them), plus a new half, its values on the primes of a
    new part (2^|new|).  The vector of a prime q holds the exponents of
    chi_q at the points (3, r_1, ..., r_k), read once per call, so a sum
    over a half's entries (_summed) gives chi(h)(3) and each chi(h)(r_i)
    less the entry at r_i.  The kernel generator at r_i is s_i f - f(r_i)
    f', so in exponents the test there reads s_i a_f(r_i) - f'(3)
    chi_nine(r_i) - chi(s)(r_i) = chi(n)(r_i), with a_f(r_i) = f(r_i)
    chi(f)(r_i), each chi(.)(r_i) less the entry at r_i, and n the new
    half.  It is affine in f', so each (f, f'(3), shared half) fixes the
    exponents its new half must have, and the join reads just those halves:
    only the f' that pass are built.  The shared halves are summed once per
    call.  Each new part's halves are summed once, keyed by their exponents
    at the r_i, read by every (f, f'(3)) that reaches the part, and
    dropped, so a call holds one part's halves at a time.

    It returns [] before any of this where _no_entry holds; the proof that
    no entry is lost is there."""
    if _no_entry(bound, dI):
        return []
    out: Skeleton = []
    df, fac = dI.delta, dI.primes
    d6 = df**6
    k = len(fac)
    pts = (3,) + fac
    # the bound on free(Delta(f'), Delta(f)) for each floor of mu
    new_bound = {mu: ifourth_root(bound // (d6 * 3**mu)) for mu in (0, 8, 12)}
    # f = 0 is skipped, so with Delta(f) = 1 every f has f(3) != 0
    top = new_bound[0 if fac else 12]
    # a prime's exponents at the points, 0 at itself
    vec = {q: tuple(0 if s == q else _exp(q, s) for s in pts) for q in pts}
    chi_nine_at = vec[3][1:]
    # new parts prime to Delta(f), each with the set of chi_p(r), p in pts,
    # at its primes r: the indicator's factor at r is 1 iff chi(f)(r) = 1
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
    # the shared halves: (values s, each chi(.)(r_i) less the entry at r_i,
    # entries, their Delta, chi(.)(3))
    shared = []
    for s in product((0, 1, 2), repeat=k):
        ent = tuple((r, v) for r, v in zip(fac, s) if v)
        e, *at = _summed(ent, vec)
        shared.append((s, at, ent, prod(r for r, _ in ent), e))
    # per f that leads with a 1: its bound on new parts, the new-prime
    # vectors where chi(f) = 1, its entries, and per f'(3) in (0, 1) that
    # fits ((f, 2f') has the row, D and kernel factors of (f, f')): the
    # bound, the rows by chi(f')(3), their 3^mu, and the new-half exponents
    # each shared half needs
    fs = []
    for f_vals in product((1, 2), repeat=k):
        base = tuple(zip(fac, f_vals))
        for f3 in (0, 1, 2):
            if f3 == 0 and not base:
                continue  # f = 0
            f_top = new_bound[_mu_floor(f3, 0)]
            if f_top < 1:
                continue  # D > bound for every f', even with no new prime
            f_ent = ((3, f3),) + base if f3 else base
            if f_ent[0][1] == 2:
                continue  # (2f, f') has the row, D and kernel factors of (f, f')
            fvec = (f3,) + f_vals
            e_f, *at_f = _summed(f_ent, vec)
            # f'(r_i) times this is the kernel generator's f-term at r_i
            a_f = [v * e for v, e in zip(f_vals, at_f)]
            ones = {w for w in new_vecs if sum(v * e for v, e in zip(fvec, w)) % 3 == 0}
            per_fp3 = []
            for fp3 in (0, 1):
                fp_bound = new_bound[_mu_floor(f3, fp3)]
                if fp_bound < 1:
                    continue
                rows = [_row(f3, fp3, e_f, e) for e in range(3)]
                pow3 = [3 ** _MU_BY_ROW[row] for row in rows]
                # the kernel test at r_i: chi(f')(r_i) less the entry at r_i,
                # f'(3) chi_nine(r_i) included, is s_i a_f[i]; so the new
                # half's exponents at the r_i are fixed by s
                shift = [fp3 * c for c in chi_nine_at]
                needs = []
                for s, at, *half in shared:
                    need = [(x * a - c - t) % 3 for x, a, c, t in zip(s, a_f, shift, at)]
                    needs.append((tuple(need), *half))
                per_fp3.append((fp_bound, fp3, rows, pow3, needs))
            fs.append((f_top, ones, f_ent, per_fp3))

    # each new part's halves are built once, read by every (f, f'(3)) that
    # reaches it, and dropped
    for eI, ws in cands:
        by_at = None
        for f_top, ones, f_ent, per_fp3 in fs:
            if eI.delta > f_top or not ws <= ones:
                continue
            for fp_bound, fp3, rows, pow3, needs in per_fp3:
                if eI.delta > fp_bound:
                    continue
                if by_at is None:
                    # its halves (entries, chi(.)(3)) by their exponents at
                    # the r_i, D less its 3^mu (free(Delta(f'), Delta(f)) =
                    # eI.delta: shared primes divide Delta(f)) and u =
                    # 3^|union support|
                    for q in eI.primes:
                        if q not in vec:
                            vec[q] = tuple(_exp(q, s) for s in pts)
                    by_at = {}
                    for vals in product((1, 2), repeat=len(eI.primes)):
                        ent = tuple(zip(eI.primes, vals))
                        e, *at = _summed(ent, vec)
                        by_at.setdefault(tuple(at), []).append((ent, e))
                    d_base, u = d6 * eI.delta**4, 3 ** (k + len(eI.primes))
                for need, s_ent, dfs, e_s in needs:
                    for n_ent, e_n in by_at.get(need, ()):
                        e_fp = (e_s + e_n) % 3
                        d1 = d_base * pow3[e_fp]
                        if d1 > bound:
                            continue  # no term: D only grows when 3 | d
                        ent = tuple(sorted(s_ent + n_ent))
                        fp_ent = ((3, fp3),) + ent if fp3 else ent
                        # skip f' = 0, f' = f and an f' that leads with a
                        # 2: its orbit is that of the f' that leads with a
                        # 1 (f' = 2f leads with a 2, as f with a 1)
                        if not fp_ent or fp_ent[0][1] == 2 or fp_ent == f_ent:
                            continue
                        row = rows[e_fp]
                        # 3 | d raises mu from 0 to 12 in row 1 only
                        d3 = d_base * 3**12 if row == 1 else d1
                        dfp = dfs * eI.delta
                        fp_ent = seen.setdefault(fp_ent, fp_ent)
                        out.append((df, dfp, f_ent, fp_ent, row, d1, d3, u, df * dfp))
    return out


def _build_skeleton(bound: int) -> Skeleton:
    """Every skeleton entry (one per orbit) at X = bound, sorted."""
    narrow = enumerate_deltas(isixth_root(bound))
    # the new parts any Delta(f) reads: its top is at most this bound, as
    # Delta(f) >= 7, or Delta(f) = 1 and 3^12 > 7^6
    wide = list(enumerate_deltas(ifourth_root(bound // 7**6)))
    seen: dict[Entries, Entries] = {}
    skel = [t for dI in narrow for t in _census_for_delta(bound, dI, wide, seen)]
    skel.sort()  # one entry per orbit, so the first four fields decide
    return skel


@lru_cache(maxsize=1)
def _skeleton() -> Skeleton:
    """The one skeleton every census reads, built on first use at X_MAX."""
    return _build_skeleton(X_MAX)


def _weighed(x: int) -> Iterator[tuple[Orbit, int, int | None]]:
    """(orbit, weight, weight for 3 | d or None if past x) of each orbit
    with a term at X = x: a weight is u * K(isixth_root(x // D), dd), the
    3 | d one without its w3 factor, for each pair of the orbit.  Every D
    is at least 3^8, so no x below it builds the skeleton."""
    if x < 3**8:
        return
    for orbit in _skeleton():
        _, _, _, _, row, d1, d3, u, dd = orbit
        if d1 > x:
            continue
        w = u * _k_value(x // d1, dd)
        if row != 1:  # 3 | d raises D in row 1 only; other rows keep the weight
            yield orbit, w, w
        elif d3 > x:
            yield orbit, w, None
        else:
            yield orbit, w, u * _k_value(x // d3, dd)


def _terms(x: int) -> list[RawTerm]:
    """The raw terms at X = x in stream order: the four pairs of each orbit
    with D <= x, weighed once per orbit (_weighed)."""
    out: list[RawTerm] = []
    for (df, dfp, f, fp, row, d1, d3, _, _), w, w3 in _weighed(x):
        f2, fp2 = (tuple([(p, 3 - v) for p, v in e]) for e in (f, fp))
        for g, h in ((f, fp), (f2, fp), (f, fp2), (f2, fp2)):
            out.append((df, dfp, g, h, 1, d1, row, w))
            if w3 is not None:
                out.append((df, dfp, g, h, 3, d3, row + 7, w3))
    out.sort()  # the first five fields are distinct
    return out


# Memoized by X: both weight modes, verify suites, ratio grids and subsum
# lookups ask for the same X many times.
@lru_cache(maxsize=256)
def _census(x: int) -> tuple[int, ...]:
    """Mode-free subsums C1..C14 at X = x, the 3 | d classes without the w3
    factor.  One pass over the orbits serves both weight modes: every 3 | d
    weight is u * w3 * K, and each orbit weighs four times its one pair."""
    subs = [0] * 15
    for (_, _, _, _, row, *_), w, w3 in _weighed(x):
        subs[row] += w
        if w3 is not None:
            subs[row + 7] += w3
    return tuple(4 * s for s in subs[1:])


def _report(x: int, mode: WeightMode, base: tuple[int, ...]) -> CountReport:
    w3 = mode.w3
    subs = {c: base[c.value - 1] * (w3 if c.value > 7 else 1) for c in SubsumClass}
    raw = sum(subs.values())
    return CountReport(
        x=x,
        weight_mode=mode,
        raw_total=raw,
        count=Fraction(raw, 108),
        divisible_by_108=raw % 108 == 0,
        subsums=subs,
    )


def heis_total(x: int, mode: WeightMode = WeightMode.OMEGA_FULL) -> CountReport:
    """Raw census total, per-class subsums, and the divided count at X = x.

    The bound x must be an integer (not a bool) no larger than X_MAX =
    10^18, and mode a WeightMode (TypeError otherwise).  Integer
    arithmetic is exact throughout.
    """
    _check_x(x)
    check_type(mode, WeightMode, "mode")
    return _report(x, mode, _census(x))


def heis_subsum(x: int, cls: SubsumClass, mode: WeightMode) -> int:
    """The single-class contribution to the raw total; a cls that is not a
    SubsumClass raises TypeError before any census work."""
    check_type(cls, SubsumClass, "cls")
    return heis_total(x, mode).subsums[cls]


def enumerate_terms(
    x: int,
    mode: WeightMode = WeightMode.OMEGA_FULL,
    limit: int | None = None,
) -> Iterator[TermRecord]:
    """Stream the nonzero pair contributions in deterministic order:
    (Delta(f), Delta(f'), f entries, f' entries, d-class).  A limit keeps
    the first limit terms: an integer (not a bool, else TypeError), and
    nonnegative (else ValueError)."""
    _check_x(x)
    check_type(mode, WeightMode, "mode")
    if limit is not None:
        check_int(limit, "limit")
        if limit < 0:
            raise ValueError(f"limit must be nonnegative, got {limit}")
    records = _terms(x)[:limit]
    w3 = mode.w3
    # one object per function: terms share them, as pairs share f; the
    # census built every entry tuple in normal form
    funcs = {e: SupportFunction._trusted(e) for e in {e for t in records for e in t[2:4]}}
    return (
        _term_record(
            funcs[f_ent],
            funcs[fp_ent],
            d_class,
            d,
            _CLASSES[cls - 1],
            w * w3 if d_class == 3 else w,
        )
        for _, _, f_ent, fp_ent, d_class, d, cls, w in records
    )


def log_grid(lo: int, hi: int, n: int) -> list[int]:
    """n log-spaced integers from lo to hi inclusive, rounded, deduplicated
    and ascending; n = 1 gives [hi].  lo, hi and n are integers (TypeError
    otherwise), and n is at most 1000, since every X of the grid costs one
    census."""
    for v, name in ((lo, "lo"), (hi, "hi"), (n, "n")):
        check_int(v, name)
    if lo < 1 or hi < lo or not 1 <= n <= 1000:
        raise ValueError(
            f"a log grid needs 1 <= lo <= hi and 1 <= n <= 1000, "
            f"got lo={lo} hi={hi} n={n}"
        )
    if n == 1:
        return [hi]
    xs = {lo, hi}
    for i in range(1, n - 1):
        xs.add(int(round(exp(log(lo) + (log(hi) - log(lo)) * i / (n - 1)))))
    return sorted(xs)
