"""Numeric pipeline for the leading constant of the census asymptotic.

Everything here is floating point with explicit truncation parameters and
reported tail bounds.  The conditionally convergent Euler products are
renormalized against |L(1, chi)|^2 |L(1, (./3)chi)|^2 before truncation, so
the truncated factors are 1 + O(p^(-3/2)) and the products converge
absolutely; each H-series over the moduli Delta is the exactly rounded sum
of its terms (math.fsum), so it does not depend on the order of the Deltas.

The characters chi(f) of one Delta = r_1 ... r_k take their values on
residue classes: n is classed by the exponents of chi_(r_i)(n) and
chi_9(n) and by (n/3).  The work is split by what it depends on:
- per Delta, only what scales with Delta or the prime grid: one table of
  class ids over the residues mod 9 Delta (_classes), one pass of the grid
  over it at p mod 9 Delta (_grid_bins), and the L side's bucket sums over
  its slice below 9 Delta / 2 (_bucket_sums).  The weights (log
  differences of the local factors, log 2 sin(pi a/q) and a) are summed
  per class with bincount;
- per k, once per call: the character rows, their exponents on the
  2 * 3^(k+1) classes, the zero masks and chi on the classes
  (_Characters);
- per support prime r, once per call: tau(chi_r^v) and the dead-prime
  term (_prime), with chi_r read off the cached chi_p_table (_chi_table);
- per block of Deltas with the same k: the Gauss sums, from per-prime
  factors, the L-values, the masked grid sums, the factor at 3 and P(f),
  each a few elementwise steps and sums over the buckets on (B, rows)
  arrays (_block_products).
The per-character closed forms over the whole conductor stay in
tests/oracles.py as the independent route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import product
from math import fsum, log, prod, sqrt
from numbers import Integral
from typing import NamedTuple

import numpy as np

from ._primes import check_type, primes_up_to
from .charspace import DeltaIndex, SupportFunction, enumerate_deltas
from .eisenstein import (
    W3,
    _chi_exp,
    _chi_exps,
    _chi_table,
    _standard_table,
    standard_decompose,
)
from .ksum import _alpha3

__all__ = [
    "TruncationParams",
    "euler_product_P",
    "HConstants",
    "h_constants",
    "ConstantReport",
    "constant_report",
    "CancellationSum",
    "char_cancellation_profile",
]


# Caps on the truncation: the sieve of p_max takes p_max bytes (100 MB at
# the cap) and the prime grids are exact in uint32; the class table of one
# Delta holds 9 Delta ids.
P_MAX_CAP = 10**8
DELTA_MAX_CAP = 10**6

# characters times classes per _block_products call in h_constants: a
# block of Deltas with k support primes takes _BLOCK_CELLS // (rows n_ids)
# of them (at least one), so its complex work arrays stay near 64 KB
# whatever k
_BLOCK_CELLS = 2**12


@dataclass(frozen=True)
class TruncationParams:
    """delta_max in [1, DELTA_MAX_CAP] and p_max in [100, P_MAX_CAP], both
    integers (not bool), with delta_max <= p_max, so every support prime
    lies on the prime grids; anything else raises ValueError here, before
    any sieve is allocated."""

    delta_max: int = 2000
    p_max: int = 10**6

    def __post_init__(self) -> None:
        for name in ("delta_max", "p_max"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if not 1 <= self.delta_max <= DELTA_MAX_CAP:
            raise ValueError(
                f"delta_max must be in [1, {DELTA_MAX_CAP}], got {self.delta_max}"
            )
        if not 100 <= self.p_max <= P_MAX_CAP:
            raise ValueError(f"p_max must be in [100, {P_MAX_CAP}], got {self.p_max}")
        if self.delta_max > self.p_max:
            raise ValueError(f"delta_max {self.delta_max} exceeds p_max {self.p_max}")


# The local factors see chi(f)(p) only through c_p = 2 Re chi(f)(p): 2 where
# the exponent of chi(f)(p) is 0, -1 where it is 1 or 2, and 0 at support
# primes.


def _p_logs(p: np.ndarray, sqrt_p: np.ndarray, c: float) -> np.ndarray:
    """Logs of the local factors of P at primes p = 1 mod 3 with c_p = c
    != 0: 1 + 2c/(p + 2) + 2/(sqrt p (p + 2)), renormalized by
    |1 - chi(p)/p|^4."""
    loc = (1.0 - c / p + 1.0 / p**2) ** 2
    return np.log((1.0 + 2.0 * c / (p + 2.0) + 2.0 / (sqrt_p * (p + 2.0))) * loc)


def _two_grid_logs(two: np.ndarray, c: float) -> np.ndarray:
    """Logs of the correction at primes p = 2 mod 3 with c_p = c.  p**4 is
    formed in int64 (the explicit astype: the grids are uint32) and wraps
    for p > 55,108; the float64 oracle in tests/oracles.py pins the gap."""
    two = two.astype(np.int64)
    return np.log1p((-c * two**2 + 1.0) / two**4)


@dataclass(frozen=True)
class _Grids:
    """Everything of one p_max that no Delta changes.

    `primes` is one descending uint32 grid of the primes up to p_max (exact
    below 2^32; TruncationParams caps p_max at 10^8): the primes = 1 mod 3,
    then from `split` on the primes = 2 mod 3.  Each half is bucketed by a
    uint32 residue mod 9 Delta (_residues), a gather and a bincount
    (_grid_bins).  Descending, so that the sequential bucket sums add the
    local log differences, all of one sign, smallest first.

    Over each half a log-sum of the local factors, P over the primes = 1
    mod 3 (`one_base`) and the correction over the primes = 2 mod 3
    (`two_base`): a scalar base with every prime at c_p = -1, plus the
    difference in `diff`, aligned with `primes`, added where the exponent
    of chi(f)(p) is 0.  A prime = 1 mod 3 has h = 0 and a prime = 2 mod 3
    has h = 1, so the halves fill disjoint bins, each in the order of the
    grid, and each character sums the 3^(k+1) bins of each half where the
    exponent of chi(f) is 0.  `full` is the Euler product of the
    Delta-series of 6^omega / Delta^(3/2) (_delta_tail_bound).
    """

    primes: np.ndarray
    split: int
    diff: np.ndarray
    one_base: float
    two_base: float
    full: float


def _log_sum(logs, *args: np.ndarray) -> tuple[float, np.ndarray]:
    """One half's log-sum: base (c_p = -1) and difference (2 less -1)."""
    lo = logs(*args, -1.0)
    diff = logs(*args, 2.0)
    diff -= lo
    return float(lo.sum()), diff


# an entry holds 12 bytes per prime: about 69 MB at P_MAX_CAP
@lru_cache(maxsize=2)
def _grids(p_max: int) -> _Grids:
    ps = primes_up_to(p_max)[::-1].astype(np.uint32)
    res = ps % 3
    primes = np.concatenate((ps[res == 1], ps[res == 2]))
    split = int(np.count_nonzero(res == 1))
    # each temporary is freed before the next is made
    del ps, res
    p = primes[:split].astype(np.float64)
    full = float(np.exp(np.log1p(6.0 / p**1.5).sum()))
    one_base, one_diff = _log_sum(_p_logs, p, np.sqrt(p))
    del p
    two_base, two_diff = _log_sum(_two_grid_logs, primes[split:])
    diff = np.concatenate((one_diff, two_diff))
    for a in (primes, diff):  # shared by every caller
        a.setflags(write=False)
    return _Grids(
        primes=primes, split=split, diff=diff,
        one_base=one_base, two_base=two_base, full=full,
    )


# Class ids.  A residue n of one Delta = r_1 ... r_k gets the id
#   e_9 + 3 e_1 + ... + 3^k e_k + 3^(k+1) h,
# e_9 and e_i the exponents of chi_9(n) and chi_(r_i)(n), and h = 1 iff
# (n/3) = -1.  Every id at or above 2 * 3^(k+1) is dead: some r_i | n, or
# 3 | n where chi_9 or (./3) enters.  chi(f)(n) for f = f(3) e_3 + sum v_i
# e_(r_i) is j^(f(3) e_9 + sum v_i e_i), so a character is a function of
# the class, and a sum of chi(f)(n) w(n) is a sum over the bucket sums of w.


def _rows(k: int) -> list[tuple[int, ...]]:
    """The rows (f(3), v_1, ..., v_k) that h_constants computes for a Delta
    with k support primes: the v of V*(Delta) in the order of the oracle
    enumerate_V, less the second member 2v of each conjugate pair, times
    f(3) in (0, 1, 2).  Delta = 1 has f = 0 only, whose f(3) = 1 and 2 are
    conjugate."""
    f3s = (0, 1, 2) if k else (1,)
    vs = [v for v in product((1, 2), repeat=k) if not v or v[0] == 1]
    return [(f3,) + v for v in vs for f3 in f3s]


class _Characters(NamedTuple):
    """What the characters of every Delta with k support primes share.

    Row i of `chars` is (f(3), v_1, ..., v_k); `e` is the exponent of
    chi(f) on each of the n_ids = 2 * 3^(k+1) live classes, `zero` marks
    e = 0 on the Euler classes (the ids without their h digit), `chi` and
    `chi_t` are chi(f) and (./3) chi(f) on the live classes, and `row9` is
    the part of a class id that n mod 9 fixes (e_9 and h; dead where 3 | n).
    """

    chars: np.ndarray
    e: np.ndarray
    zero: np.ndarray
    chi: np.ndarray
    chi_t: np.ndarray
    row9: np.ndarray


def _characters(rows: list[tuple[int, ...]]) -> _Characters:
    chars = np.array(rows, dtype=np.int64)
    k = chars.shape[1] - 1
    n_ids = 2 * 3 ** (k + 1)
    cls = np.arange(n_ids)
    e = chars @ np.stack([cls // 3**i % 3 for i in range(k + 1)]) % 3
    chi = W3[e]
    e9 = _chi_exps(3, np.arange(9))
    row9 = np.where(e9 >= 0, e9 + n_ids // 2 * (np.arange(9) % 3 == 2), n_ids)
    chi_t = np.where(cls >= n_ids // 2, -chi, chi)
    return _Characters(chars, e, e[:, : n_ids // 2] == 0, chi, chi_t, row9)


def _gauss_table(exps: np.ndarray, sign: np.ndarray | None = None) -> np.ndarray:
    """tau(chi^v), v = 0, 1, 2, for the character chi mod q = len(exps) with
    exponents `exps` (-1 at the zero value), times `sign` when given.  The
    sums S_e of exp(2 pi i a/q) over the a of exponent e give
    tau(chi^v) = sum_e j^(v e) S_e: O(q) once per character."""
    q = len(exps)
    w = np.exp(np.arange(q) * (2j * np.pi / q))
    if sign is not None:
        w *= sign
    live = exps >= 0
    idx = exps[live]
    s = np.bincount(idx, w.real[live], minlength=3)
    s = s + 1j * np.bincount(idx, w.imag[live], minlength=3)
    return (W3[np.arange(3)[:, None] * np.arange(3) % 3] * s).sum(axis=1)


@cache
def _nine_taus() -> tuple[np.ndarray, np.ndarray]:
    """tau(chi_9^t) and tau((./3) chi_9^t), t = 0, 1, 2; tau((./3)) is
    i sqrt 3.  Built on first use: importing the module runs no numpy."""
    e9 = _chi_exps(3, np.arange(9))
    sign = np.array([0.0, 1.0, -1.0])[np.arange(9) % 3]
    return _gauss_table(e9), _gauss_table(e9, sign)


def _prime(r: int) -> tuple[np.ndarray, float]:
    """What every Delta with the support prime r shares, O(1) of it:
    tau(chi_r^v) for v = 0, 1, 2, and the dead-prime term, the log of the
    local factor of P at r less the c_p = -1 log of the grid (chi(f)(r) =
    0, so that factor is 1 + 2/(sqrt r (r + 2)))."""
    p = np.array([r], dtype=np.float64)
    sqrt_p = np.sqrt(p)
    dead = np.log(1.0 + 2.0 / (sqrt_p * (p + 2.0))) - _p_logs(p, sqrt_p, -1.0)
    return _gauss_table(_chi_table(r)), float(dead[0])


def _residues(ps: np.ndarray, m: np.uint32) -> np.ndarray:
    """ps mod m over a uint32 array, as ps - (ps // m) m, which cannot
    wrap: numpy's uint32 `//` by a scalar takes about a tenth of the time
    of its `%` (numpy 2.4 on a 2-core x86-64 machine, 39,000 primes: 8
    against 97 us)."""
    r = ps // m
    r *= m
    np.subtract(ps, r, out=r)
    return r


def _classes(
    ch: _Characters, primes: tuple[int, ...], rows: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The class tables of Delta = prod(primes), from the _row of each
    prime: `digits`, sum 3^i e_i over the residues mod Delta (the ids
    without their 3-digits; dead where some r_i | n), and `ids9`, the class
    id over the residues mod 9 Delta.  Every dead entry is at least n_ids."""
    n_ids = ch.e.shape[1]
    digits = np.zeros(prod(primes), dtype=np.int64)
    # each table as rows of length r (or 9), so its digit broadcasts in place
    for i, (r, row) in enumerate(zip(primes, rows), 1):
        digits.reshape(-1, r)[:] += np.where(row >= 0, row * np.int64(3**i), n_ids)
    ids9 = np.tile(digits, 9)
    ids9.reshape(-1, 9)[:] += ch.row9
    return digits, ids9


def _grid_ids(g: _Grids, ids9: np.ndarray, half: slice) -> np.ndarray:
    """The class ids of one half of the grid, ids9 at p mod 9 Delta.  A
    prime = 1 mod 3 has h = 0, and is dead only if it is a support prime; a
    prime = 2 mod 3 has h = 1 and is never dead, so its ids lie in
    [n_ids / 2, n_ids)."""
    return ids9.take(_residues(g.primes[half], np.uint32(len(ids9))))


def _grid_bins(g: _Grids, ids9: np.ndarray, n_ids: int) -> np.ndarray:
    """g.diff bucketed by the class ids of the grid: P's Euler classes in
    bins [0, n_ids / 2), the correction's (their h digit set) in the rest.
    One bincount per half: one over the whole grid would hold twice the
    index memory, as numpy's bincount copies its index array."""
    n_euler = n_ids // 2
    one, two = slice(None, g.split), slice(g.split, None)
    one_bins = np.bincount(_grid_ids(g, ids9, one), g.diff[one], minlength=n_euler)
    two_bins = np.bincount(_grid_ids(g, ids9, two), g.diff[two], minlength=n_ids)
    return np.concatenate((one_bins[:n_euler], two_bins[n_euler:n_ids]))


def _bucket_sums(
    d: int, digits: np.ndarray, ids9: np.ndarray, n_ids: int
) -> tuple[np.ndarray, ...]:
    """The class bucket sums behind the closed forms of L(1, chi) for the
    characters of one Delta = d: the log-sine sums of the even ones, chi(f)
    mod d and 9d, and the a sums of the odd ones, (./3) chi(f) mod 3d and
    9d.  Their Gauss sums come from _gauss_sums.

    A residue q - a has the digits of a and the opposite h, so each closed
    form of L(1, chi) (l_one in tests/oracles.py) folds a with q - a (q is
    odd): the log-sine sum is 2 sum conj(chi)(a) log 2 sin(pi a/q) for even
    chi, and sum conj(chi)(a) a is sum conj(chi)(a) (2a - q) for odd chi;
    both over 1 <= a < q/2.  One pass of log sin over a < 9d/2 serves the
    three moduli: a mod 3d and a mod d sit at 3a and 9a.  The classes of
    these a are the slice ids9[1:half]; mod d they are `digits`, which
    carry no 3-digits."""
    half = (9 * d + 1) // 2
    # in place, so one array of length 9d/2 is alive at a time
    log2sin = np.arange(1, half) * (np.pi / (9 * d))
    np.sin(log2sin, out=log2sin)
    log2sin *= 2.0
    np.log(log2sin, out=log2sin)
    ids = ids9[1:half]

    def bins(idx: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.bincount(idx, w, minlength=n_ids)[:n_ids]

    n1, n3 = (d - 1) // 2, (3 * d - 1) // 2
    even = bins(digits[1 : n1 + 1], log2sin[8::9][:n1]), bins(ids, log2sin)
    del log2sin
    a = np.arange(1.0, half)  # then 2a - 9d in place; 2a - 3d is 6d more,
    a *= 2.0  # and all are exact integers
    a -= 9 * d
    return *even, bins(ids[:n3], a[:n3] + 6 * d), bins(ids, a)


def _delta_sums(
    g: _Grids, ch: _Characters, dIs: list[DeltaIndex]
) -> tuple[np.ndarray, np.ndarray]:
    """The per-Delta work of a block, each step O(Delta) or O(grid): the
    class tables, one pass over the grid and the L bucket sums.  Returns
    (5, B, n_ids) sums, the _grid_bins and the four _bucket_sums of each
    Delta, and the class of 3 of each, digits[3 mod Delta]."""
    n_ids = ch.e.shape[1]
    sums = np.empty((5, len(dIs), n_ids))
    cls3 = np.empty(len(dIs), dtype=np.int64)
    for b, dI in enumerate(dIs):
        digits, ids9 = _classes(ch, dI.primes, [_chi_table(r) for r in dI.primes])
        sums[0, b] = _grid_bins(g, ids9, n_ids)
        sums[1:, b] = _bucket_sums(dI.delta, digits, ids9, n_ids)
        cls3[b] = digits[3 % dI.delta]
        del digits, ids9  # freed before the next Delta builds its tables
    return sums, cls3


def _gauss_sums(
    ch: _Characters,
    dIs: list[DeltaIndex],
    primes: dict[int, tuple[np.ndarray, float]],
) -> tuple[np.ndarray, np.ndarray]:
    """tau(chi(f)) and tau((./3) chi(f)), (B, rows), for each Delta of the
    block and each row (f(3), v_1, ..., v_k) of ch, at the moduli of
    _l_values, from per-prime factors: tau(chi_1 chi_2) = chi_1(q_2)
    chi_2(q_1) tau(chi_1) tau(chi_2) for characters of coprime moduli q_1,
    q_2 (Iwaniec & Kowalski, ch. 3).  `primes` maps a support prime to its
    _prime; a prime not yet in it is added, so one dict serves every block
    of a call.  (Delta/3) = 1, as every r = 1 mod 3."""
    f3 = ch.chars[:, 0]
    v = ch.chars[:, 1:]
    for r in {r for dI in dIs for r in dI.primes} - primes.keys():
        primes[r] = _prime(r)
    # t has at least 3 entries when a factor comes in: numpy's in-place
    # complex multiply rounds a 1-entry array by another route
    t = np.ones((len(dIs), len(f3)), dtype=complex)
    for i in range(v.shape[1]):
        t *= np.array([primes[dI.primes[i]][0] for dI in dIs])[:, v[:, i]]

    def at(m: int) -> np.ndarray:  # prod over r of chi_r^(v_r)(q / r), times t
        x = [[_chi_table(r)[m * dI.delta // r % r] for r in dI.primes] for dI in dIs]
        return W3[np.array(x, dtype=np.int64).reshape(len(dIs), -1) @ v.T % 3] * t

    tau9, tau9_t = _nine_taus()
    e9 = np.array([[_chi_exp(3, dI.delta)] for dI in dIs])  # chi_9(Delta)
    nine = W3[f3 * e9 % 3] * at(9)
    plain = np.where(f3 == 0, at(1), nine * tau9[f3])
    twist = np.where(f3 == 0, 1j * sqrt(3.0) * at(3), nine * tau9_t[f3])
    return plain, twist


def _l_values(
    ch: _Characters,
    dIs: list[DeltaIndex],
    sums: np.ndarray,
    primes: dict[int, tuple[np.ndarray, float]],
) -> tuple[np.ndarray, np.ndarray]:
    """L(1, chi(f)) and L(1, (./3) chi(f)), (B, rows), for each Delta of the
    block and each row of ch, off the bucket sums of _delta_sums.  chi(f)
    has conductor Delta and (./3) chi(f) 3 Delta; with f(3) != 0 both have
    9 Delta."""
    tau, tau_t = _gauss_sums(ch, dIs, primes)
    f3 = ch.chars[:, 0]
    d = np.array([[dI.delta] for dI in dIs])
    _, even_d, even_9d, odd_3d, odd_9d = sums
    l_plain = np.empty(tau.shape, dtype=complex)
    l_twist = np.empty(tau.shape, dtype=complex)
    for sel, q, qt, even, odd in (
        (f3 == 0, d, 3 * d, even_d, odd_3d),
        (f3 != 0, 9 * d, 9 * d, even_9d, odd_9d),
    ):
        s = np.conj((ch.chi[sel] * even[:, None]).sum(axis=2))
        l_plain[:, sel] = -(tau[:, sel] / q) * 2.0 * s
        s = np.conj((ch.chi_t[sel] * odd[:, None]).sum(axis=2))
        l_twist[:, sel] = 1j * np.pi * tau_t[:, sel] / qt * s / qt
    return l_plain, l_twist


def _block_products(
    g: _Grids,
    ch: _Characters,
    dIs: list[DeltaIndex],
    primes: dict[int, tuple[np.ndarray, float]],
) -> tuple[np.ndarray, np.ndarray]:
    """Euler products of the characters of a block of Deltas with k support
    primes: P(f) for each Delta and each row (f(3), v_1, ..., v_k) of ch,
    and the exponent of chi(f)(3), both (B, rows).

    After the per-Delta work of _delta_sums, the Gauss sums, L-values,
    masked grid sums, the factor at 3 and P(f) are assembled for the whole
    block at once.  Each step is elementwise or a sum along the last axis,
    so the values of a Delta do not depend on its block."""
    sums, cls3 = _delta_sums(g, ch, dIs)
    l_plain, l_twist = _l_values(ch, dIs, sums, primes)
    n_euler = ch.zero.shape[1]
    bins = sums[0][:, None]

    def masked(b: np.ndarray) -> np.ndarray:
        return (ch.zero * b).sum(axis=2)

    # the support primes are dead on the grid, in its descending order
    dead = [[primes[r][1] for r in dI.primes[::-1]] for dI in dIs]
    dead = np.array(dead).reshape(len(dIs), -1).sum(axis=1, keepdims=True)
    two = g.two_base + masked(bins[..., n_euler:])
    logs = g.one_base + masked(bins[..., :n_euler]) + dead + two
    f3 = ch.chars[:, 0]
    e3 = ch.e.T[cls3]
    c3 = np.where(e3 == 0, 2.0, -1.0)
    three = np.where(f3 == 0, 1.0 - c3 / 3.0 + 1.0 / 9.0, 1.0)
    scale = (abs(l_plain) * abs(l_twist)) ** 2 * three
    return scale * np.exp(logs), e3


def euler_product_P(f: SupportFunction, params: TruncationParams) -> float:
    """P(f) = prod over primes p = 1 mod 3 of
    1 + 2 c_p / (p + 2) + 2 / (sqrt p (p + 2)), c_p = 2 Re chi(f)(p),
    renormalized through |L(1,chi)|^2 |L(1,(./3)chi)|^2 so the truncated
    local factors are 1 + 2 p^(-3/2) + O(p^-2).

    A block of one Delta: the rows h_constants computes for Delta(f),
    read at the row of f, or of its conjugate 2f when the first value of f
    is 2 (P(2f) = P(f)), so the float is the one h_constants adds."""
    check_type(f, SupportFunction, "f")
    check_type(params, TruncationParams, "params")
    if f.is_zero:
        raise ValueError("P(f) needs a nonzero support function")
    d = prod(f.supp3)
    if d > params.p_max:  # the domain of TruncationParams
        raise ValueError(f"Delta(f) = {d} exceeds p_max {params.p_max}")
    k = len(f.supp3)
    row = (f.f3,) + tuple(f.value(r) for r in f.supp3)
    if row[min(k, 1)] == 2:  # v_1, or f(3) when Delta = 1
        row = tuple(2 * x % 3 for x in row)
    rows = _rows(k)
    dI = DeltaIndex(d, f.supp3)
    pf, _ = _block_products(_grids(params.p_max), _characters(rows), [dI], {})
    return float(pf[0, rows.index(row)])


def _euler_tail_bound(p_max: int) -> float:
    # sum over p > p_max, p = 1 mod 3 of ~2 p^(-3/2), prime density 1/log p
    return 2.0 / (sqrt(p_max) * log(p_max)) * 2.0


def _delta_weights(d: int, primes: tuple[int, ...]) -> float:
    """lambda(Delta) psi_3(Delta) 3^k / Delta^(3/2), lambda(Delta) =
    prod over r | Delta of (1 + 2 / (sqrt r (r + 2)))^(-1), from the k
    ascending primes of Delta = d, bit for bit as from psi_ell(d, 3) and the
    oracle lambda_delta(d) in tests/oracles.py, which factor d: the exact
    int quotient d / prod(r + 2) rounds once, as float(Fraction) does."""
    pref = d / prod(r + 2 for r in primes) * 3 ** len(primes) / d**1.5
    lam = 1.0
    for r in primes:
        lam /= 1.0 + 2.0 / (sqrt(r) * (r + 2))
    return lam * pref


@dataclass(frozen=True)
class HConstants:
    h0: float
    h1: float
    h1_prime: float
    h2: float
    p_of_f_max: float


def h_constants(params: TruncationParams) -> HConstants:
    """The Delta-series H0, H1, H1', H2 and the largest P(f) with
    f(3) = 0.  H0 is the starred constant before its 2^-2 3^-3 alpha_3
    prefactor; the oracle h_constants_literal in tests/oracles.py also
    sums its first product form, as an independent route.

    chi(2f) is the conjugate of chi(f), so c_p, |L|^2 and the factor at 3
    agree and P(2f) = P(f): each conjugate pair, f with first value 1, is
    computed once and counted twice.  chi(2f)(3) = chi(f)(3)^2 keeps both in
    the same H1 or H1' bucket.  The Deltas with k support primes share one
    _Characters and go through _block_products a block at a time; each
    term w(Delta) P(f) is kept in its bucket, and each series is the
    exactly rounded sum of its terms (math.fsum), doubled, so it does not
    depend on the order of the Deltas or on the blocks."""
    check_type(params, TruncationParams, "params")
    g = _grids(params.p_max)
    by_k: dict[int, list[DeltaIndex]] = {}
    for dI in enumerate_deltas(params.delta_max):
        by_k.setdefault(len(dI.primes), []).append(dI)
    primes: dict[int, tuple[np.ndarray, float]] = {}  # support prime -> _prime
    buckets: tuple[list[np.ndarray], ...] = ([], [], [])  # H1, H1', H2 terms
    p_of_f_max = 0.0
    for k, dIs in by_k.items():
        ch = _characters(_rows(k))
        plain = ch.chars[:, 0] == 0
        size = max(1, _BLOCK_CELLS // ch.e.size)
        for i in range(0, len(dIs), size):
            block = dIs[i : i + size]
            pf, e3 = _block_products(g, ch, block, primes)
            w = np.array([_delta_weights(dI.delta, dI.primes) for dI in block])
            terms = w[:, None] * pf
            sels = plain & (e3 == 0), plain & (e3 != 0), ~plain
            for bucket, sel in zip(buckets, sels):
                bucket.append(terms[np.broadcast_to(sel, terms.shape)])
            p_of_f_max = float(pf[:, plain].max(initial=p_of_f_max))
    h1, h1p, h2 = (np.concatenate(b) for b in buckets)
    return HConstants(
        h0=2.0 * fsum(np.concatenate((h1, h1p))),
        h1=2.0 * fsum(h1),
        h1_prime=2.0 * fsum(h1p),
        h2=2.0 * fsum(h2),
        p_of_f_max=p_of_f_max,
    )


# exact rational coefficients of (H0, H1, H2) in c(Heis_3) / alpha_3, times 4
_C_H0 = 32.0 / 3**6
_C_H1 = 8.0 / 3**6
_C_H2 = 10.0 / 3**7


@dataclass(frozen=True)
class ConstantReport:
    alpha3: float
    h0: float
    h1: float
    h1_prime: float
    h2: float
    c_heis3: float
    c_heis_star: float
    tails: dict[str, float]
    params: TruncationParams


def _delta_tail_bound(params: TruncationParams, p_cap: float) -> float:
    """Positivity bound: the full Delta-series of 6^omega / Delta^(3/2) is
    an Euler product; whatever the truncation misses is below the product
    minus the partial sum, times the largest P(f) lambda psi seen."""
    partial = 0.0
    for dI in enumerate_deltas(params.delta_max):
        partial += 6 ** len(dI.primes) / dI.delta**1.5
    return max(_grids(params.p_max).full - partial, 0.0) * p_cap


def constant_report(params: TruncationParams = TruncationParams()) -> ConstantReport:
    """alpha_3, the H-constants, and the assembled leading constants, with
    crude tail bounds for every truncation: tails["euler"], ["delta"] and
    ["alpha"]."""
    check_type(params, TruncationParams, "params")
    g = _grids(params.p_max)
    # alpha_3 over the primes of the grid: its ascending float64 halves are
    # the arrays ksum.alpha_ell sieves for, so no second sieve is run
    a3 = _alpha3(
        g.primes[: g.split][::-1].astype(np.float64),
        g.primes[g.split :][::-1].astype(np.float64),
    )
    hc = h_constants(params)
    c3 = 0.25 * (_C_H0 * hc.h0 + _C_H1 * hc.h1 + _C_H2 * hc.h2) * a3
    c_star = 0.25 / 27.0 * a3 * hc.h0
    tails = {
        "euler": _euler_tail_bound(params.p_max),
        "delta": _delta_tail_bound(params, hc.p_of_f_max),
        "alpha": 3.0 / params.p_max,
    }
    return ConstantReport(
        alpha3=a3,
        h0=hc.h0,
        h1=hc.h1,
        h1_prime=hc.h1_prime,
        h2=hc.h2,
        c_heis3=c3,
        c_heis_star=c_star,
        tails=tails,
        params=params,
    )


# ---------------------------------------------------------------------------
# oscillation probe for twisted character sums over standard primes


@dataclass(frozen=True)
class CancellationSum:
    value: complex
    terms: int

    @property
    def normalized(self) -> float:
        return abs(self.value) / self.terms if self.terms else 0.0


def _check_pattern(
    f: SupportFunction,
    eps: tuple[int, int],
    pattern: dict[int, tuple[int, int]] | None,
) -> dict[int, tuple[int, int]]:
    if pattern is None:
        pattern = {r: (1, 0) for r in f.supp3}
    if eps[0] not in (0, 1) or eps[1] not in (0, 1) or sum(eps) > 1:
        raise ValueError("epsilon exponents must be 0/1 with sum <= 1")
    total = 0
    for r, (e1, e2) in pattern.items():
        if r not in f.supp3:
            raise ValueError(f"{r} is not a support prime of f away from 3")
        if e1 not in (0, 1) or e2 not in (0, 1) or e1 + e2 > 1:
            raise ValueError("per-prime exponents must be 0/1 with sum <= 1")
        total += e1 + e2
    if total < 1:
        raise ValueError("trivial exponent pattern: some e1 + e2 must be >= 1")
    return pattern


def char_cancellation_profile(
    f: SupportFunction,
    checkpoints: tuple[int, ...],
    eps: tuple[int, int] = (0, 0),
    pattern: dict[int, tuple[int, int]] | None = None,
) -> list[CancellationSum]:
    """Partial sums of M(pi) over standard primes with norm p <= x, at each
    checkpoint x, in one pass.

    M(pi) multiplies chi(f)(p)^eps1, chi(2f)(p)^eps2 and, for each chosen
    support prime r, [chi_r(p) (pi/rho_r)_3]^(2 e1 + e2); rho_r is the
    standard prime above r.  The sum is accumulated as exact counts of cube
    roots of unity, so reruns are bit-identical.  The walk reads the (p, a,
    b) columns of standard_prime_arrays, not r, and each character over
    them once, as int8 exponents: chi_q(p) for every prime q of f (when
    eps is not (0, 0)) or of the pattern, and (pi/rho_r)_3 = chi_r(a + b
    r_rho) for each pattern prime.  Checkpoints must be ascending integers
    in [7, STANDARD_ARRAY_MAX]; anything else raises ValueError.
    """
    check_type(f, SupportFunction, "f")
    pattern = _check_pattern(f, eps, pattern)
    if not checkpoints:
        raise ValueError("no checkpoints")
    if not all(isinstance(x, Integral) for x in checkpoints):
        raise ValueError(f"checkpoints must be integers, got {checkpoints!r}")
    if any(x < 7 for x in checkpoints) or list(checkpoints) != sorted(checkpoints):
        raise ValueError("checkpoints must be ascending and >= 7")
    t = _standard_table(checkpoints[-1])
    ps = t.p
    # the power of each factor in M(pi): chi(f)^eps1 chi(2f)^eps2 is
    # chi(f)^(eps1 + 2 eps2), and a pattern prime r adds chi_r(p)^k and
    # (pi/rho_r)_3^k, k = 2 e1 + e2
    ks = {r: 2 * e1 + e2 for r, (e1, e2) in pattern.items() if 2 * e1 + e2}
    weights = {q: (eps[0] + 2 * eps[1]) * v for q, v in f.entries} if any(eps) else {}
    for r, k in ks.items():
        weights[r] = weights.get(r, 0) + k
    # e: exponent of M(pi) mod 3; ok: M(pi) != 0
    e = np.zeros(len(ps), dtype=np.int8)
    ok = np.ones(len(ps), dtype=bool)
    for q, w in weights.items():
        _add_exponents(e, ok, w, _chi_exps(q, ps))
    for r, k in ks.items():
        n = t.b * standard_decompose(r).r
        n += t.a
        _add_exponents(e, ok, k, _chi_exps(r, n))
    cls = np.where(ok, e, 3)
    out = []
    for end in np.searchsorted(ps, checkpoints, side="right").tolist():
        counts = np.bincount(cls[:end], minlength=4).tolist()
        val = complex(counts[0] + counts[1] * W3[1] + counts[2] * W3[2])
        out.append(CancellationSum(val, end))
    return out


def _add_exponents(e: np.ndarray, ok: np.ndarray, w: int, t: np.ndarray) -> None:
    """e += w t (mod 3) and ok &= t >= 0, in place, for int8 exponents t
    (-1 at the zero value) that are scaled in place: with e in [0, 2] every
    sum stays in [-2, 6]."""
    ok &= t >= 0
    t *= w % 3
    e += t
    np.remainder(e, 3, out=e)
