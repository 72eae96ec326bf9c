"""Self-contained verification suites behind the `verify` subcommand.

Each suite re-derives a property with an independent route where one exists
(a general Euler criterion in Z[j] for the cubic symbols and reciprocity,
trial-division brute force for the K-sum) and reports a deterministic check
count plus any failures.  Suites never sample randomly, so two runs produce
identical output.

The reciprocity suite reads (alpha / beta)_3 for all alpha at once, a row per
primary prime beta, from the chi_p_table of the constant pipeline and the
probe at a split beta; the symbols suite checks the scalar cubic_symbol at
both factors and chi_p, 17 checks per split prime, against the Z[j] route
by exponent.

The Euler criterion runs batched: _euler_symbols takes a block of
(alpha, beta) pairs, as int tuples (the reciprocity suite's sampled pairs)
or as (n, 2) int64 arrays (the symbols suite's lanes, built straight from
the columns of standard_prime_arrays), checks every beta at once, and
raises each alpha to its own (N - 1)/3 in Z[j]/(N), N = N(beta), on int64
numpy arrays.  The suites' primes come from standard_prime_arrays, which
refuses limits past STANDARD_ARRAY_MAX = 2^30, so N <= 2^30; with both
coordinates in [0, N), every product the ladder forms is below 2 N^2 <=
2^61 and none wraps.  The suites hand it at most _EULER_BLOCK pairs a
call, so its working memory does not grow with the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from math import isqrt
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._primes import check_int, primes_in_class
from .charspace import SupportFunction
from .counting import (
    SubsumClass,
    WeightMode,
    X_MAX,
    _exp_table,
    _exps,
    _kernel_rule,
    heis_subsum,
    heis_total,
    log_grid,
)
from .eisenstein import (
    ROOT,
    STANDARD_ARRAY_MAX,
    CharValue,
    EisensteinInt,
    StandardPrime,
    ZERO,
    _chi_table,
    chi_p,
    cubic_symbol,
    standard_prime_arrays,
    standard_primes_up_to,
)
from .ksum import k_direct

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite", "indicator_pairs"]


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    bound: int
    checks: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


# failures kept per suite; the check count goes on past it
_FAILURE_CAP = 20


class _Recorder:
    def __init__(self) -> None:
        self.checks = 0
        self.failures: list[str] = []

    def check(self, ok: bool, fmt: str, *args: object) -> None:
        """Count one check; on failure record fmt.format(*args), built only
        then, since most suites run hundreds of thousands of checks."""
        self.checks += 1
        if not ok and len(self.failures) < _FAILURE_CAP:
            self.failures.append(fmt.format(*args))


# ---------------------------------------------------------------------------
# general cubic symbol for primary denominators: Euler's criterion in
# Z[j]/(N(beta)), batched on int64 arrays with its own reduction, so it
# shares no Z[j] arithmetic with eisenstein and never reads r


def _reduce(x, y, ba, bb, nb):
    """x + y*j minus a nearest multiple of beta = ba + bb*j, of norm nb:
    the quotient rounds (x + y*j) conj(beta) / nb componentwise, ties up.
    The result is zero exactly when beta divides x + y*j.  Works alike on
    ints and on int64 arrays, whose // floors as Python's does."""
    ca, cb = ba - bb, -bb  # conj(beta)
    qa = (2 * (x * ca - y * cb) + nb) // (2 * nb)
    qb = (2 * (x * cb + y * ca - y * cb) + nb) // (2 * nb)
    return x - qa * ba + qb * bb, y - qa * bb - qb * ba + qb * bb


# j^m as (a, b) pairs, indexed by m
_J_POWER_PAIRS = ((1, 0), (0, 1), (-1, -1))

# N(beta) <= 2^30, the suites' own cap, keeps every ladder product below
# 2 N^2 <= 2^61, inside int64
_EULER_NORM_MAX = STANDARD_ARRAY_MAX

# (alpha, beta) pairs per call of _euler_symbols in the suites, which bounds
# the working memory whatever the suite bound
_EULER_BLOCK = 2**12

# exponent -1 marks the zero value
_VALUE_OF_EXP = (ROOT(0), ROOT(1), ROOT(2), ZERO)


# a norm N <= 2^30 has 4 N = (2a - b)^2 + 3 b^2 = (2b - a)^2 + 3 a^2, so
# |a|, |b| < 2^16; a coordinate clipped to +-2^16 keeps the norm past the cap
_EULER_COORD_CLIP = 2**16


Pairs = Sequence[tuple[int, int]] | np.ndarray


def _pair_array(pairs: Pairs) -> np.ndarray:
    """(a, b) pairs as an (n, 2) array: an int64 array as it is, a sequence
    of int tuples as Python ints (object dtype), which no coordinate
    overflows."""
    if isinstance(pairs, np.ndarray):
        return pairs.reshape(-1, 2)
    return np.array(pairs, dtype=object).reshape(-1, 2)


def _euler_symbols(alphas: Pairs, betas: Pairs) -> list[CharValue]:
    """(alpha / beta)_3 by Euler's criterion for each (alpha, beta) pair,
    beta a primary prime of norm N <= 2^30.  alphas and betas are sequences
    of (a, b) int tuples or (n, 2) int64 arrays.

    The powers alpha^((N-1)/3) are taken in Z[j]/(N), each component reduced
    by a plain % N: beta divides N = beta conj(beta), so Z[j] -> Z[j]/(N)
    -> Z[j]/(beta) is reduction mod beta.  alpha is reduced mod N before
    the ladder, as Python ints for tuple input, so any coordinates are fine
    there.  _reduce divides by beta only at the zero test on entry and the
    j^m test on exit.
    """
    at, bt = _pair_array(alphas), _pair_array(betas)
    if len(at) != len(bt):
        raise ValueError("alphas and betas differ in length")
    primary = (bt[:, 0] % 3 == 2) & (bt[:, 1] % 3 == 0)
    clip = _EULER_COORD_CLIP
    ba, bb = np.clip(bt, -clip, clip).astype(np.int64).T
    nb = ba * ba - ba * bb + bb * bb
    bad = ~primary | (nb > _EULER_NORM_MAX)
    if bad.any():
        i = int(bad.argmax())
        beta = EisensteinInt(*map(int, bt[i]))
        if not primary[i]:
            raise ValueError(f"{beta!r} is not primary")
        raise ValueError(f"norm of {beta!r} exceeds {_EULER_NORM_MAX}")
    x, y = (at % nb.astype(at.dtype)[:, None]).astype(np.int64).T
    rx, ry = _reduce(x, y, ba, bb, nb)
    zero = (rx == 0) & (ry == 0)
    oa, ob = np.ones_like(nb), np.zeros_like(nb)
    e = (nb - 1) // 3
    while e.any():
        odd = (e & 1) == 1
        oa, ob = (
            np.where(odd, (oa * x - ob * y) % nb, oa),
            np.where(odd, (oa * y + ob * x - ob * y) % nb, ob),
        )
        x, y = (x - y) * (x + y) % nb, (2 * x - y) * y % nb
        e >>= 1
    exps = np.full(len(nb), -1, dtype=np.int64)
    for m, (ja, jb) in enumerate(_J_POWER_PAIRS):
        rx, ry = _reduce(oa - ja, ob - jb, ba, bb, nb)
        exps[(rx == 0) & (ry == 0)] = m
    exps[zero] = -1  # beta | alpha reads as zero, even for a unit beta
    bad = np.flatnonzero((exps < 0) & ~zero)
    if len(bad):
        beta = EisensteinInt(*map(int, bt[bad[0]]))
        raise AssertionError(f"Euler criterion failed mod {beta!r}")
    return [_VALUE_OF_EXP[m] for m in exps.tolist()]


def _inert_exps(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exponent of ((a + b*j) / q)_3 over int64 arrays for an inert prime
    q = 2 mod 3, -1 at the zero value: Euler's criterion in F_{q^2}."""
    a, b = a % q, b % q
    x, y = np.ones_like(a), np.zeros_like(a)
    e = (q * q - 1) // 3
    while e:
        if e & 1:
            x, y = (x * a - y * b) % q, (x * b + y * a - y * b) % q
        a, b = (a * a - b * b) % q, (2 * a * b - b * b) % q
        e >>= 1
    exps = np.full(len(x), -1, dtype=np.int8)
    for m, (ja, jb) in enumerate(_J_POWER_PAIRS):
        exps[(x == ja % q) & (y == jb % q)] = m
    if ((exps < 0) & ((x != 0) | (y != 0))).any():
        raise AssertionError(f"cube-power class mod {q} is not a root of unity")
    return exps


def _conjugate(sp: StandardPrime) -> StandardPrime:
    """The conjugate factor: conj(pi) divides j - r^2 when pi divides j - r,
    so it carries r^2 = -1 - r (mod p) as the image of j."""
    return StandardPrime(sp.p, sp.pi.conj(), (-1 - sp.r) % sp.p)


def _primary_primes(norm_bound: int) -> list[tuple[int, int, int, int]]:
    """Primary primes a + b*j with norm <= norm_bound, prime to 3, as (a, b,
    q, r) by (norm, a, b): q is the rational prime below, r the image of j
    in F_q at a split q (b < 0 at the conjugate factor), 0 at an inert q."""
    out = []
    for p, a, b, r in zip(*(c.tolist() for c in standard_prime_arrays(norm_bound))):
        out += [(a, b, p, r), (a - b, -b, p, (-1 - r) % p)]
    out += [(q, 0, q, 0) for q in primes_in_class(isqrt(norm_bound), 3, 2).tolist()]
    out.sort(key=lambda t: (t[0] * t[0] - t[0] * t[1] + t[1] * t[1], t[0], t[1]))
    return out


def _symbol_row(beta: tuple, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """The exponents of (alpha / beta)_3 as int8, -1 at the zero value, for
    every alpha = na + nb*j, beta = (a, b, q, r) as _primary_primes lists it."""
    _, b, q, r = beta
    if q % 3 == 2:
        return _inert_exps(na, nb, q)
    # chi_p_table reads n^((q-1)/3) = r^e; at the conjugate factor (b < 0)
    # j maps to r^2, so the exponent is 2e, the table's at n^2
    n = (na + nb * r) % q
    return _chi_table(q)[n if b > 0 else n * n % q]


def _sampled_pairs(m: int, stride: int) -> Iterator[tuple[int, int]]:
    """(i, j) at every stride-th place, counting from 1, in the row-major
    order of the pairs i < j < m."""
    seen = 0  # pairs in the rows before row i
    for i in range(m - 1):
        row = m - 1 - i
        for k in range(stride - seen % stride, row + 1, stride):
            yield i, i + k
        seen += row


def _euler_stream(
    pairs: Iterable[tuple[tuple[int, int], tuple[int, int]]],
) -> Iterator[CharValue]:
    """_euler_symbols along a stream of (alpha, beta) int pairs, at most
    _EULER_BLOCK of them per call, in stream order."""
    it = iter(pairs)
    while block := list(islice(it, _EULER_BLOCK)):
        alphas, betas = zip(*block)
        yield from _euler_symbols(alphas, betas)


def _suite_reciprocity(bound: int) -> _Recorder:
    rec = _Recorder()
    prs = _primary_primes(bound)
    m = len(prs)
    na, nb = np.array(prs, dtype=np.int64).reshape(-1, 4).T[:2]
    # exps[i, k] is the exponent of (prs[k] / prs[i])_3, a row per denominator
    exps = np.empty((m, m), dtype=np.int8)
    for i, beta in enumerate(prs):
        exps[i] = _symbol_row(beta, na, nb)
    # failures as (i, k, 0 or 1, format) sort into the row-major walk of the
    # pairs i < k, a pair's slow check after its reciprocity check
    fails = []
    for i0 in range(0, m, 256):  # exps against its transpose, 256 rows a time
        blk = slice(i0, i0 + 256)
        rows, cols = np.nonzero(np.triu(exps[blk] != exps[:, blk].T, i0 + 1))
        for i, k in zip(rows[:_FAILURE_CAP].tolist(), cols[:_FAILURE_CAP].tolist()):
            fails.append((i0 + i, k, 0, "reciprocity fails for {} and {}"))
    # the independent slow route keeps the rows honest at every 997th pair:
    # (b / a) then (a / b), read in pair order
    pairs = list(_sampled_pairs(m, 997))
    coords = [t[:2] for t in prs]
    slow = _euler_stream(
        p for i, k in pairs for p in ((coords[k], coords[i]), (coords[i], coords[k]))
    )
    for i, k in pairs:
        sa, sb = next(slow), next(slow)
        if _VALUE_OF_EXP[exps[i, k]] != sa or _VALUE_OF_EXP[exps[k, i]] != sb:
            fails.append((i, k, 1, "fast and general symbol routes differ at {}, {}"))
    rec.checks = m * (m - 1) // 2 + len(pairs)
    for i, k, _, fmt in sorted(fails)[:_FAILURE_CAP]:
        rec.failures.append(fmt.format(*(EisensteinInt(*coords[t]) for t in (i, k))))
    return rec


# the symbols suite's alphas, and its Z[j] lanes per split prime: each alpha
# at pi and at conj(pi), then p // 3 + 1 at pi
_SYMBOL_ALPHAS = tuple((t, (t * t + 1) % 7 - 3) for t in range(1, 8))
_SYMBOL_LANES = 2 * len(_SYMBOL_ALPHAS) + 1


def _symbol_blocks(bound: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (alpha, beta) pairs the symbols suite reads off the Z[j] route,
    _SYMBOL_LANES per split prime up to bound in the order of its checks,
    as (n, 2) int64 arrays of at most _EULER_BLOCK pairs.  They come
    straight from the columns of standard_prime_arrays: conj(pi) of pi = a +
    b*j is (a - b) - b*j."""
    p, a, b, _ = standard_prime_arrays(bound)
    step = _EULER_BLOCK // _SYMBOL_LANES
    head = np.repeat(np.array(_SYMBOL_ALPHAS, dtype=np.int64), 2, axis=0)
    for i in range(0, len(p), step):
        pa, pb = a[i : i + step, None], b[i : i + step, None]
        alphas = np.zeros((len(pa), _SYMBOL_LANES, 2), dtype=np.int64)
        alphas[:, :-1] = head
        alphas[:, -1, 0] = p[i : i + step] // 3 + 1
        betas = np.empty_like(alphas)
        betas[:, 0::2, 0], betas[:, 0::2, 1] = pa, pb
        betas[:, 1:-1:2, 0], betas[:, 1:-1:2, 1] = pa - pb, -pb
        yield alphas.reshape(-1, 2), betas.reshape(-1, 2)


def _suite_symbols(bound: int) -> _Recorder:
    rec = _Recorder()
    alphas = [EisensteinInt(*t) for t in _SYMBOL_ALPHAS]
    sps = standard_primes_up_to(bound)
    for lanes in _symbol_blocks(bound):
        slow = [v.exp for v in _euler_symbols(*lanes)]
        for i, sp in zip(range(0, len(slow), _SYMBOL_LANES), sps):
            # the library's F_p route at pi and at conj(pi) against the Z[j]
            # one, by exponent
            bar = _conjugate(sp)
            for k, alpha in enumerate(alphas):
                rec.check(
                    cubic_symbol(alpha, sp).exp == slow[i + 2 * k],
                    "fp symbol of {} differs mod {}",
                    alpha,
                    sp.p,
                )
                rec.check(
                    cubic_symbol(alpha, bar).exp == slow[i + 2 * k + 1],
                    "fp symbol of {} differs mod the conjugate factor of {}",
                    alpha,
                    sp.p,
                )
            # chi_p shares the F_p Euler step with the fp symbol, so it is
            # spot-checked against the Z[j] ladder; then multiplicativity
            n1 = sp.p // 3 + 1
            n2 = sp.p // 2 + 1
            v1, v2 = chi_p(sp.p, n1), chi_p(sp.p, n2)
            rec.check(
                v1.exp == slow[i + _SYMBOL_LANES - 1],
                "chi_{}({}) differs from the symbol",
                sp.p,
                n1,
            )
            rec.check(
                v1 * v2 == chi_p(sp.p, n1 * n2),
                "chi_{} not multiplicative at {},{}",
                sp.p,
                n1,
                n2,
            )
            rec.check(
                chi_p(sp.p, sp.p) == ZERO and chi_p(sp.p, 1) == ROOT(0),
                "chi_{} wrong at 0 or 1",
                sp.p,
            )
    return rec


# ---------------------------------------------------------------------------
# indicator pairs: every independent ordered pair supported on at most two
# split primes besides 3, drawn from {3} + split primes <= prime_bound.  The
# suite reads each support's exponent table and each value vector's exponents
# once, and decides every pair by indicator's own rule, _kernel_rule.


def _pair_supports(prime_bound: int) -> list[tuple[int, ...]]:
    qs = primes_in_class(prime_bound, 3, 1).tolist()
    sups: list[tuple[int, ...]] = [(3,)]
    for i, q1 in enumerate(qs):
        sups.append((q1,))
        sups.append((3, q1))
        for q2 in qs[i + 1 :]:
            sups.append((q1, q2))
            sups.append((3, q1, q2))
    return sups


Vector = tuple[int, ...]
VectorPair = tuple[Vector, Vector]


def _vector_pairs(k: int) -> list[VectorPair]:
    """Ordered linearly independent pairs in F_3^k whose union support is
    all k coordinates."""
    vecs = list(product((0, 1, 2), repeat=k))
    out = []
    for u in vecs:
        if not any(u):
            continue
        du = tuple(2 * c % 3 for c in u)
        for v in vecs:
            if not any(v) or v == u or v == du:
                continue
            if all(a or b for a, b in zip(u, v)):
                out.append((u, v))
    return out


def indicator_pairs(prime_bound: int) -> list[tuple[SupportFunction, SupportFunction]]:
    """Every ordered independent pair supported on at most two split primes
    besides 3 up to an integer prime_bound (TypeError otherwise), each pair
    listed once, at its exact union support."""
    check_int(prime_bound, "prime_bound")
    vps_by_size = {k: _vector_pairs(k) for k in (1, 2, 3)}
    out = []
    for sup in _pair_supports(prime_bound):
        vecs = product((0, 1, 2), repeat=len(sup))
        fn = {w: SupportFunction.of(dict(zip(sup, w))) for w in vecs}
        out += [(fn[u], fn[v]) for u, v in vps_by_size[len(sup)]]
    return out


def _suite_indicator(bound: int) -> _Recorder:
    rec = _Recorder()
    vps_by_size = {k: _vector_pairs(k) for k in (1, 2, 3)}
    # a span is keyed by its nonzero vectors, which depend only on (u, v)
    span_keys = {
        (u, v): frozenset(
            tuple((z * a + zp * b) % 3 for a, b in zip(u, v))
            for z in range(3)
            for zp in range(3)
            if z or zp
        )
        for vps in vps_by_size.values()
        for u, v in vps
    }
    for sup in _pair_supports(bound):
        table = _exp_table(sup)
        exps = {w: _exps(table, w) for w in product((0, 1, 2), repeat=len(sup))}
        vals: dict[tuple, int] = {}
        spans: dict[frozenset, set[int]] = {}
        bases: dict[frozenset, int] = {}
        for u, v in vps_by_size[len(sup)]:
            w = _kernel_rule(sup, u, exps[u], v, exps[v])
            rec.check(w in (0, 1), "indicator on {} at {},{} is {}", sup, u, v, w)
            vals[(u, v)] = w
            key = span_keys[(u, v)]
            spans.setdefault(key, set()).add(w)
            bases[key] = bases.get(key, 0) + 1
        for (u, v), w in vals.items():
            rec.check(
                w == vals[(v, u)], "indicator not symmetric on {} at {},{}", sup, u, v
            )
        for key, got in spans.items():
            rec.check(
                len(got) == 1, "indicator not constant on a span over {}", sup
            )
            rec.check(
                bases[key] == 48,
                "a span over {} has {} ordered bases, not 48",
                sup,
                bases[key],
            )
    return rec


def _suite_integrality(bound: int) -> _Recorder:
    rec = _Recorder()
    hi = min(bound, X_MAX)
    prev = None
    for x in log_grid(10**9, hi, 12):
        rep = heis_total(x, WeightMode.OMEGA_FULL)
        rec.check(
            rep.raw_total % 108 == 0,
            "raw_total({}) = {} not divisible by 108",
            x,
            rep.raw_total,
        )
        if prev is not None:
            rec.check(rep.count >= prev, "count decreases at {}", x)
        prev = rep.count
    rec.check(
        heis_total(10**9, WeightMode.OMEGA_FULL).count == 0,
        "count(10^9) is nonzero",
    )
    return rec


_STAR = WeightMode.OMEGA_STAR
_FULL = WeightMode.OMEGA_FULL


def _suite_subsums(bound: int) -> _Recorder:
    rec = _Recorder()
    hi = min(bound, X_MAX)
    for x in log_grid(10**12, hi, 4):
        for mode in (_STAR, _FULL):
            total = heis_total(x, mode)
            parts = [heis_subsum(x, c, mode) for c in SubsumClass]
            rec.check(
                sum(parts) == total.raw_total,
                "subsums do not add up at {} under {}",
                x,
                mode.value,
            )
        for k in range(2, 8):
            a = heis_subsum(x, SubsumClass(k), _STAR)
            b = heis_subsum(x, SubsumClass(k + 7), _STAR)
            rec.check(a == b, "C{}({}) != C{}({}) under omega-star", k + 7, x, k, x)
        c1 = heis_subsum(x // 3**12, SubsumClass.C1, _STAR)
        rec.check(
            heis_subsum(x, SubsumClass.C8, _STAR) == c1,
            "C8({0}) != C1({0}//3^12) under omega-star",
            x,
        )
        c1f = heis_subsum(x // 3**12, SubsumClass.C1, _FULL)
        rec.check(
            heis_subsum(x, SubsumClass.C8, _FULL) == 2 * c1f,
            "C8({0}) != 2 C1({0}//3^12) under omega-full",
            x,
        )
    return rec


def _squarefree_split_weight(n: int, d: int) -> int:
    """2^omega(n) if n is squarefree with all prime factors = 1 mod 3 and
    coprime to d, else 0.  Trial division; the brute route for the K-sum."""
    w = 1
    m = n
    q = 2
    while q * q <= m:
        if m % q == 0:
            m //= q
            if m % q == 0 or q % 3 != 1 or d % q == 0:
                return 0
            w *= 2
        q += 1
    if m > 1:
        if m % 3 != 1 or d % m == 0:
            return 0
        w *= 2
    return w


def _suite_ksum(bound: int) -> _Recorder:
    rec = _Recorder()
    hi = min(bound, 3000)
    for d in (1, 7, 13, 91):
        acc = 1
        brute = {1: 1}
        for n in range(2, hi + 1):
            acc += _squarefree_split_weight(n, d)
            brute[n] = acc
        for x in [t for t in (1, 2, 6, 7, 12, 48, 90, 91, hi // 2, hi) if 0 < t <= hi]:
            rec.check(
                k_direct(x, 3, d) == brute[x],
                "k_direct({},3,{}) != brute force {}",
                x,
                d,
                brute[x],
            )
        rec.check(
            k_direct(hi, 3, d) <= k_direct(hi, 3, 1),
            "K({0};3,{1}) exceeds K({0};3,1)",
            hi,
            d,
        )
    rec.check(k_direct(10, 3, 1) == 3, "k_direct(10,3,1) != 3")
    rec.check(k_direct(100, 3, 1) == 27, "k_direct(100,3,1) != 27")
    rec.check(k_direct(100, 3, 7) == 21, "k_direct(100,3,7) != 21")
    return rec


# name: (suite, default bound, smallest bound, largest bound or 0); the
# census grids start at 10^9 and 10^12, the suites over split primes at the
# first one, 7, below which they would check nothing, and reciprocity's m^2
# bytes of exponents for m primary primes reach about 92 MB at 10^5
_SUITES = {
    "reciprocity": (_suite_reciprocity, 10**4, 7, 10**5),
    "symbols": (_suite_symbols, 10**4, 7, STANDARD_ARRAY_MAX),
    "indicator": (_suite_indicator, 200, 7, 0),
    "integrality": (_suite_integrality, 10**16, 10**9, 0),
    "subsum-identities": (_suite_subsums, 10**16, 10**12, 0),
    "ksum": (_suite_ksum, 2000, 1, 0),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, bound: int | None = None) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    fn, default, lo, hi = _SUITES[name]
    b = default if bound is None else bound
    check_int(b, "bound")
    if not lo <= b <= (hi or b):
        top = f" to {hi}" if hi else ""
        raise ValueError(f"suite {name} takes a bound from {lo}{top}, got {b}")
    rec = fn(b)
    return SuiteResult(name, b, rec.checks, tuple(rec.failures))
