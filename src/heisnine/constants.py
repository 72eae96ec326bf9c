"""Numeric pipeline for the leading constant of the census asymptotic.

Everything here is floating point with explicit truncation parameters and
reported tail bounds.  The conditionally convergent Euler products are
renormalized against |L(1, chi)|^2 |L(1, (./3)chi)|^2 before truncation, so
the truncated factors are 1 + O(p^(-3/2)) and the products converge
absolutely; the H-series over moduli Delta are accumulated with compensated
summation in a fixed deterministic order.

The characters chi(f) of one Delta = r_1 ... r_k take their values on
residue classes: n is classed by the exponents of chi_(r_i)(n) and
chi_9(n) and by (n/3).  So the work over primes and residues happens once
per Delta, on one table of class ids over the residues mod 9 Delta: each
prime grid reads it at p mod 9 Delta, and the L side reads its slice
below 9 Delta / 2.  The weights (log differences of the local factors,
log 2 sin(pi a/q) and a) are summed per class with bincount, and each
character's masked Euler sum and closed-form L-sum is a sum over at most
2 * 3^(k+1) buckets.  Gauss sums come from per-prime factors instead:
tau(chi_r) once per support prime r and call, tau of chi_9 and its
twists once, multiplied out per character.  The per-character closed
forms over the whole conductor stay in tests/oracles.py as the
independent route.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import product
from math import log, prod, sqrt
from numbers import Integral

import numpy as np

from ._primes import primes_up_to
from .charspace import SupportFunction, enumerate_deltas
from .eisenstein import (
    W3,
    _chi_exp,
    _chi_exponent_arrays,
    _chi_exps,
    standard_decompose,
    standard_prime_arrays,
)
from .ksum import alpha_ell

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
        if not 1 <= self.delta_max <= DELTA_MAX_CAP:
            raise ValueError(
                f"delta_max must be in [1, {DELTA_MAX_CAP}], got {self.delta_max}"
            )
        if not 100 <= self.p_max <= P_MAX_CAP:
            raise ValueError(f"p_max must be in [100, {P_MAX_CAP}], got {self.p_max}")
        if self.delta_max > self.p_max:
            raise ValueError(f"delta_max {self.delta_max} exceeds p_max {self.p_max}")


class _CompensatedSum:
    """Neumaier summation; insertion order is fixed by the callers."""

    __slots__ = ("s", "c")

    def __init__(self) -> None:
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float) -> None:
        t = self.s + x
        if abs(self.s) >= abs(x):
            self.c += (self.s - t) + x
        else:
            self.c += (x - t) + self.s
        self.s = t

    @property
    def value(self) -> float:
        return self.s + self.c


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

    The primes up to p_max, split by their residue mod 3 and stored once as
    uint32 (exact below 2^32; TruncationParams caps p_max at 10^8), so a
    grid's residues mod 9 Delta are uint32 arithmetic (_residues).
    Descending, so that the sequential bucket sums of _delta_products add
    the local log differences, all of one sign, smallest first.

    Over each grid a log-sum of the local factors, the correction over the
    primes = 2 mod 3 (`two_*`) and P (`one_*`): a scalar base with every
    prime at c_p = -1, plus a difference array added where the exponent of
    chi(f)(p) is 0.  One Delta buckets each difference array by the class
    ids of its grid (_grid_sums), and each of its characters sums the
    3^(k+1) buckets where the exponent of chi(f) is 0.  `full` is the Euler
    product of the Delta-series of 6^omega / Delta^(3/2) (_delta_tail_bound).
    """

    one: np.ndarray  # primes = 1 mod 3 up to p_max
    two: np.ndarray  # primes = 2 mod 3 up to p_max (includes 2)
    two_base: float
    two_diff: np.ndarray
    one_base: float
    one_diff: np.ndarray
    full: float


def _log_sum(logs, *args: np.ndarray) -> tuple[float, np.ndarray]:
    """One grid's log-sum: base (c_p = -1) and difference (2 less -1)."""
    lo = logs(*args, -1.0)
    diff = logs(*args, 2.0)
    diff -= lo
    return float(lo.sum()), diff


# an entry holds 12 bytes per prime: about 69 MB at P_MAX_CAP
@lru_cache(maxsize=2)
def _grids(p_max: int) -> _Grids:
    ps = primes_up_to(p_max)[::-1]
    one = ps[ps % 3 == 1].astype(np.uint32)
    two = ps[ps % 3 == 2].astype(np.uint32)
    # each temporary is freed before the next is made: with ps or the
    # terms of `full` alive, the build peaked 0.6 MB higher at p_max 10^6
    del ps
    p = one.astype(np.float64)
    full = float(np.exp(np.log1p(6.0 / p**1.5).sum()))
    two_base, two_diff = _log_sum(_two_grid_logs, two)
    one_base, one_diff = _log_sum(_p_logs, p, np.sqrt(p))
    for a in (one, two, two_diff, one_diff):  # shared by every caller
        a.setflags(write=False)
    return _Grids(
        one=one, two=two, two_base=two_base, two_diff=two_diff,
        one_base=one_base, one_diff=one_diff, full=full,
    )


# Class ids.  A residue n of one Delta = r_1 ... r_k gets the id
#   e_9 + 3 e_1 + ... + 3^k e_k + 3^(k+1) h,
# e_9 and e_i the exponents of chi_9(n) and chi_(r_i)(n), and h = 1 iff
# (n/3) = -1.  Every id at or above 2 * 3^(k+1) is dead: some r_i | n, or
# 3 | n where chi_9 or (./3) enters.  chi(f)(n) for f = f(3) e_3 + sum v_i
# e_(r_i) is j^(f(3) e_9 + sum v_i e_i), so a character is a function of
# the class, and a sum of chi(f)(n) w(n) is a sum over the bucket sums of w.


def _dead_fix(rs: tuple[int, ...]) -> float:
    """Moves the support primes r out of the c_p = -1 class: chi(f)(r) = 0,
    so the local factor of P is 1 + 2/(sqrt r (r + 2))."""
    r = np.array(rs, dtype=np.float64)
    sqrt_r = np.sqrt(r)
    dead_p = np.log(1.0 + 2.0 / (sqrt_r * (r + 2.0)))
    return float((dead_p - _p_logs(r, sqrt_r, -1.0)).sum())


def _classes(
    primes: tuple[int, ...], chars: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The class tables of Delta = prod(primes) and the characters' exponents.

    Returns `digits`, sum 3^i e_i over the residues mod Delta (the ids
    without their 3-digits; dead where some r_i | n), `ids9`, the class
    id over the residues mod 9 Delta, and the exponent of chi(f) on every
    live class for each row (f(3), v_1, ..., v_k) of chars.  Every dead
    entry is at least n_ids = 2 * 3^(k+1)."""
    d = prod(primes)
    n_ids = 2 * 3 ** (len(primes) + 1)
    # each table as rows of length r (or 9), so its digit broadcasts in place
    digits = np.zeros(d, dtype=np.int64)
    for i, r in enumerate(primes, 1):
        tab = _chi_exps(r, np.arange(r))
        digits.reshape(-1, r)[:] += np.where(tab >= 0, 3**i * tab, n_ids)
    ids9 = np.tile(digits, 9)
    e9 = _chi_exps(3, np.arange(9))
    ids9.reshape(-1, 9)[:] += np.where(
        e9 >= 0, e9 + n_ids // 2 * (np.arange(9) % 3 == 2), n_ids
    )
    cls = np.arange(n_ids)
    exps = np.stack([cls // 3**i % 3 for i in range(len(primes) + 1)])
    return digits, ids9, chars @ exps % 3


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


def _gauss_sums(
    primes: tuple[int, ...], chars: np.ndarray, taus: dict[int, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """tau(chi(f)) and tau((./3) chi(f)) for each row (f(3), v_1, ..., v_k)
    of chars, at the moduli of _l_values, from per-prime factors:
    tau(chi_1 chi_2) = chi_1(q_2) chi_2(q_1) tau(chi_1) tau(chi_2) for
    characters of coprime moduli q_1, q_2 (Iwaniec & Kowalski, ch. 3).
    `taus` maps a support prime r to tau(chi_r^v), v = 0, 1, 2; a prime
    not yet in it is added, so one dict serves every Delta of a call.
    (Delta/3) = 1, as every r = 1 mod 3."""
    d = prod(primes)
    f3 = chars[:, 0]
    v = chars[:, 1:]
    t = np.ones(len(chars), dtype=complex)
    for i, r in enumerate(primes):
        tr = taus.get(r)
        if tr is None:
            tr = taus[r] = _gauss_table(_chi_exps(r, np.arange(r)))
        t *= tr[v[:, i]]

    def at(q: int) -> np.ndarray:  # prod over r of chi_r^(v_r)(q / r), times t
        e = v @ np.array([_chi_exp(r, q // r) for r in primes], dtype=np.int64)
        return W3[e % 3] * t

    tau9, tau9_t = _nine_taus()
    nine = W3[f3 * _chi_exp(3, d) % 3] * at(9 * d)  # chi_9^f(3)(Delta)
    plain = np.where(f3 == 0, at(d), nine * tau9[f3])
    twist = np.where(f3 == 0, 1j * sqrt(3.0) * at(3 * d), nine * tau9_t[f3])
    return plain, twist


def _bucket_sums(
    d: int, digits: np.ndarray, ids9: np.ndarray, n_ids: int
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """The class bucket sums behind the closed forms of L(1, chi) for the
    characters of one Delta = d: {modulus: log-sine sums} of the even ones,
    chi(f) mod d and 9d, and {modulus: a sums} of the odd ones, (./3) chi(f)
    mod 3d and 9d.  Their Gauss sums come from _gauss_sums.

    A residue q - a has the digits of a and the opposite h, so each closed
    form of L(1, chi) (l_one in tests/oracles.py) folds a with q - a (q is
    odd): the log-sine sum is 2 sum conj(chi)(a) log 2 sin(pi a/q) for even
    chi, and sum conj(chi)(a) a is sum conj(chi)(a) (2a - q) for odd chi;
    both over 1 <= a < q/2.  One pass of log sin over a < 9d/2 serves the
    three moduli: a mod 3d and a mod d sit at 3a and 9a.  The classes of
    these a are the slice ids9[1:half]; mod d they are `digits`, which
    carry no 3-digits."""
    half = (9 * d + 1) // 2
    log2sin = np.log(2.0 * np.sin(np.arange(1, half) * (np.pi / (9 * d))))
    ids = ids9[1:half]

    def bins(idx: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.bincount(idx, w, minlength=n_ids)[:n_ids]

    n1, n3 = (d - 1) // 2, (3 * d - 1) // 2
    even = {
        d: bins(digits[1 : n1 + 1], log2sin[8::9][:n1]),
        9 * d: bins(ids, log2sin),
    }
    odd = {
        3 * d: bins(ids[:n3], 2.0 * np.arange(1, n3 + 1) - 3 * d),
        9 * d: bins(ids, 2.0 * np.arange(1, half) - 9 * d),
    }
    return even, odd


def _l_values(
    primes: tuple[int, ...],
    digits: np.ndarray,
    ids9: np.ndarray,
    e: np.ndarray,
    chars: np.ndarray,
    taus: dict[int, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """L(1, chi(f)) and L(1, (./3) chi(f)) for the rows of chars, off the
    classes of _classes of Delta = prod(primes).  chi(f) has conductor
    Delta and (./3) chi(f) 3 Delta; with f(3) != 0 both have 9 Delta."""
    d = prod(primes)
    n_ids = e.shape[1]
    even, odd = _bucket_sums(d, digits, ids9, n_ids)
    tau, tau_t = _gauss_sums(primes, chars, taus)
    chi = W3[e]
    chi_t = np.where(np.arange(n_ids) >= n_ids // 2, -chi, chi)
    f3 = chars[:, 0]
    l_plain = np.empty(len(e), dtype=complex)
    l_twist = np.empty(len(e), dtype=complex)
    for sel, q, qt in ((f3 == 0, d, 3 * d), (f3 != 0, 9 * d, 9 * d)):
        s = np.conj((chi[sel] * even[q]).sum(axis=1))
        l_plain[sel] = -(tau[sel] / q) * 2.0 * s
        s = np.conj((chi_t[sel] * odd[qt]).sum(axis=1))
        l_twist[sel] = 1j * np.pi * tau_t[sel] / qt * s / qt
    return l_plain, l_twist


def _residues(ps: np.ndarray, m: np.uint32) -> np.ndarray:
    """ps mod m over a uint32 array, as ps - (ps // m) m, which cannot
    wrap: numpy's uint32 `//` by a scalar takes about a tenth of the time
    of its `%` (numpy 2.4 on a 2-core x86-64 machine, 39,000 primes: 8
    against 97 us)."""
    r = ps // m
    r *= m
    np.subtract(ps, r, out=r)
    return r


def _grid_ids(g: _Grids, ids9: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The class ids of both grids, ids9 at p mod 9 Delta: one uint32
    residue and one gather per grid.  A prime = 1 mod 3 has h = 0, and is
    dead only if it is a support prime; a prime = 2 mod 3 has h = 1 and is
    never dead, so its ids lie in [n_ids / 2, n_ids)."""
    m = np.uint32(len(ids9))
    return ids9.take(_residues(g.one, m)), ids9.take(_residues(g.two, m))


def _grid_sums(
    g: _Grids, ids9: np.ndarray, n_ids: int
) -> tuple[np.ndarray, np.ndarray]:
    """The two difference arrays of g bucketed by the Euler class ids (the
    ids less their h digit) of the grid they run over."""
    one, two = _grid_ids(g, ids9)
    n_euler = n_ids // 2
    # the h offset of the primes = 2 mod 3 comes off by reading their bins
    # from n_euler on
    two_bins = np.bincount(two, g.two_diff, minlength=n_ids)[n_euler:n_ids]
    one_bins = np.bincount(one, g.one_diff, minlength=n_euler)[:n_euler]
    return two_bins, one_bins


def _delta_products(
    g: _Grids,
    primes: tuple[int, ...],
    chars: np.ndarray,
    taus: dict[int, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Euler products of the characters of one Delta = prod(primes).

    Row i of `chars` is (f(3), v_1, ..., v_k), the values of f at 3 and at
    the support primes; `taus` is the per-prime Gauss-sum dict of
    _gauss_sums.  Returns P(f) for each row, and the exponent of
    chi(f)(3) for the rows with f(3) = 0.

    One table of class ids over the residues mod 9 Delta (_classes) serves
    both sides: each prime grid reads it at p mod 9 Delta (_grid_sums), and
    the L side reads its slice below 9 Delta / 2 (_bucket_sums).  The class
    of 3 is digits[3 mod Delta].  Each character then costs a few dot
    products over the buckets."""
    digits, ids9, e = _classes(primes, chars)
    n_ids = e.shape[1]
    zero = e[:, : n_ids // 2] == 0  # the grids have no h digit

    def masked(bins: np.ndarray) -> np.ndarray:
        return (zero * bins).sum(axis=1)

    two_bins, one_bins = _grid_sums(g, ids9, n_ids)
    two = g.two_base + masked(two_bins)
    # the support primes are dead on the grid, in its descending order
    logs = g.one_base + masked(one_bins) + _dead_fix(primes[::-1]) + two

    f3 = chars[:, 0]
    l_plain, l_twist = _l_values(primes, digits, ids9, e, chars, taus)
    e3 = e[:, digits[3 % len(digits)]]
    c3 = np.where(e3 == 0, 2.0, -1.0)
    three = np.where(f3 == 0, 1.0 - c3 / 3.0 + 1.0 / 9.0, 1.0)
    scale = (abs(l_plain) * abs(l_twist)) ** 2 * three
    return scale * np.exp(logs), e3


def euler_product_P(f: SupportFunction, params: TruncationParams) -> float:
    """P(f) = prod over primes p = 1 mod 3 of
    1 + 2 c_p / (p + 2) + 2 / (sqrt p (p + 2)), c_p = 2 Re chi(f)(p),
    renormalized through |L(1,chi)|^2 |L(1,(./3)chi)|^2 so the truncated
    local factors are 1 + 2 p^(-3/2) + O(p^-2).

    The one-character case of h_constants: each call builds the class
    buckets of Delta(f) and reads its one character off them."""
    if f.is_zero:
        raise ValueError("P(f) needs a nonzero support function")
    if prod(f.supp3) > params.p_max:  # the domain of TruncationParams
        raise ValueError(f"Delta(f) = {prod(f.supp3)} exceeds p_max {params.p_max}")
    row = [f.f3] + [v for p, v in f.entries if p != 3]
    chars = np.array([row], dtype=np.int64)
    pf, _ = _delta_products(_grids(params.p_max), f.supp3, chars, {})
    return float(pf[0])


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
    computed once and added twice.  chi(2f)(3) = chi(f)(3)^2 keeps both in
    the same H1 or H1' bucket.  All characters of one Delta share one
    _delta_products call."""
    g = _grids(params.p_max)
    taus: dict[int, np.ndarray] = {}  # tau(chi_r^v) by support prime r
    h0 = _CompensatedSum()
    h1 = _CompensatedSum()
    h1p = _CompensatedSum()
    h2 = _CompensatedSum()
    p_max_seen = 0.0
    for dI in enumerate_deltas(params.delta_max):
        d = dI.delta
        k = len(dI.primes)
        w = _delta_weights(d, dI.primes)
        # Delta = 1 adds to H2 only: f = 0, whose f(3) = 1 and 2 are conjugate
        f3s = (0, 1, 2) if d > 1 else (1,)
        # V*(Delta) in the order of the oracle enumerate_V, less the second
        # member of each conjugate pair
        vs = [v for v in product((1, 2), repeat=k) if not v or v[0] == 1]
        chars = np.array([(f3,) + v for v in vs for f3 in f3s], dtype=np.int64)
        pfs, e3 = _delta_products(g, dI.primes, chars, taus)
        for f3, pf, e in zip(chars[:, 0].tolist(), pfs.tolist(), e3.tolist()):
            if f3:
                h2.add(w * pf)
                h2.add(w * pf)
                continue
            p_max_seen = max(p_max_seen, pf)
            bucket = h1 if e == 0 else h1p
            for _ in range(2):
                h0.add(w * pf)
                bucket.add(w * pf)
    return HConstants(
        h0=h0.value,
        h1=h1.value,
        h1_prime=h1p.value,
        h2=h2.value,
        p_of_f_max=p_max_seen,
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

    def to_json(self) -> str:
        obj = {
            "alpha3": self.alpha3,
            "h0": self.h0,
            "h1": self.h1,
            "h1_prime": self.h1_prime,
            "h2": self.h2,
            "c_heis3": self.c_heis3,
            "c_heis_star": self.c_heis_star,
            "tails": self.tails,
            "params": {
                "delta_max": self.params.delta_max,
                "p_max": self.params.p_max,
            },
        }
        return json.dumps(obj, separators=(",", ":"))

    def to_text(self) -> str:
        lines = [
            f"alpha3 = {self.alpha3!r}",
            f"h0 = {self.h0!r}",
            f"h1 = {self.h1!r}",
            f"h1_prime = {self.h1_prime!r}",
            f"h2 = {self.h2!r}",
            f"c_heis3 = {self.c_heis3!r}",
            f"c_heis_star = {self.c_heis_star!r}",
        ]
        lines += [f"tail.{k} = {v!r}" for k, v in self.tails.items()]
        lines += [
            f"params.delta_max = {self.params.delta_max}",
            f"params.p_max = {self.params.p_max}",
        ]
        return "\n".join(lines)


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
    a3 = alpha_ell(3, params.p_max)
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
    roots of unity, so reruns are bit-identical.  Checkpoints must be
    ascending integers in [7, STANDARD_ARRAY_MAX]; anything else raises
    ValueError.
    """
    pattern = _check_pattern(f, eps, pattern)
    if not checkpoints:
        raise ValueError("no checkpoints")
    if not all(isinstance(x, Integral) for x in checkpoints):
        raise ValueError(f"checkpoints must be integers, got {checkpoints!r}")
    if any(x < 7 for x in checkpoints) or list(checkpoints) != sorted(checkpoints):
        raise ValueError("checkpoints must be ascending and >= 7")
    ps, a, b, _ = standard_prime_arrays(checkpoints[-1])
    # e: exponent of M(pi) as a power of j; ok: M(pi) != 0
    e = np.zeros(len(ps), dtype=np.int64)
    ok = np.ones(len(ps), dtype=bool)
    if any(eps):  # chi(2f)(p) = chi(f)(p)^2
        ef, okf = _chi_exponent_arrays(f, ps)
        e += (eps[0] + 2 * eps[1]) * ef
        ok &= okf
    for r, (e1, e2) in pattern.items():
        k = 2 * e1 + e2
        if k == 0:
            continue
        vr = _chi_exps(r, ps)
        vs = _chi_exps(r, a + b * standard_decompose(r).r)
        ok &= (vr >= 0) & (vs >= 0)
        e += k * (vr + vs)
    cls = np.where(ok, e % 3, 3)
    out = []
    for end in np.searchsorted(ps, checkpoints, side="right").tolist():
        counts = np.bincount(cls[:end], minlength=4).tolist()
        val = complex(counts[0] + counts[1] * W3[1] + counts[2] * W3[2])
        out.append(CancellationSum(val, end))
    return out
