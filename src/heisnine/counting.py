"""Census of pairs of cubic characters weighted by squarefree K-sums.

The count of interest is a double sum over ordered, linearly independent
pairs (f, f') of support functions whose characters cut out the same field
collection (detected by a product-of-kernels indicator), each weighted by
3^|union support|, and an inner sum S(X, f, f') over auxiliary squarefree
moduli d below a sliding bound X / D(d, f, f').  The raw total is divisible
by 108 = 2^2 3^3 under one weight normalization and the quotient is the
number of counted objects with invariant <= X; divisibility is always
observed from the computed integer, never assumed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from math import exp, gcd, log
from typing import Iterator, Sequence

from .charspace import (
    DeltaIndex,
    SupportFunction,
    chi_eval,
    delta,
    enumerate_deltas,
    is_linearly_independent,
    linear_combination,
)
from .eisenstein import ROOT, one_plus_v_plus_v2
from .ksum import k_direct

__all__ = [
    "WeightMode",
    "SubsumClass",
    "PairContext",
    "pair_context",
    "free",
    "indicator",
    "mu",
    "mu_d",
    "big_d",
    "isixth_root",
    "ifourth_root",
    "s_sum",
    "classify",
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


def free(d: int, a: int) -> int:
    """The a-free part d / gcd(d, a) (squarefree d)."""
    if d < 1 or a < 1:
        raise ValueError("free(d, a) needs positive arguments")
    return d // gcd(d, a)


@dataclass(frozen=True)
class PairContext:
    """Support bookkeeping shared by the pair-local quantities."""

    f: SupportFunction
    fp: SupportFunction
    delta_f: int
    delta_fp: int
    shared: tuple[int, ...]  # supp3 f  /\  supp3 f'
    only_f: tuple[int, ...]
    only_fp: tuple[int, ...]
    union: tuple[int, ...]


def pair_context(f: SupportFunction, fp: SupportFunction) -> PairContext:
    sf, sfp = set(f.supp3), set(fp.supp3)
    return PairContext(
        f,
        fp,
        delta(f),
        delta(fp),
        tuple(sorted(sf & sfp)),
        tuple(sorted(sf - sfp)),
        tuple(sorted(sfp - sf)),
        tuple(sorted(sf | sfp)),
    )


def indicator(f: SupportFunction, fp: SupportFunction) -> int:
    """Product over union support primes r != 3 of the kernel averages
    3^-1 sum over {(z, z'): z f(r) + z' f'(r) = 0} of chi(z f + z' f')(r).

    Each factor is 1 or 0: the three kernel values form a subgroup image in
    the cube roots of unity, so it is enough to test the value at a kernel
    generator.  Requires a linearly independent pair.
    """
    if not is_linearly_independent(f, fp):
        raise ValueError("indicator needs a linearly independent pair")
    for r in sorted(set(f.supp3) | set(fp.supp3)):
        vr, vpr = f.value(r), fp.value(r)
        if vr == 0:
            z, zp = 1, 0
        elif vpr == 0:
            z, zp = 0, 1
        else:
            # z = -v'(r)/v(r), z' = 1 generates the kernel
            z, zp = (-vpr * pow(vr, -1, 3)) % 3, 1
        v = chi_eval(linear_combination(z, f, zp, fp), r)
        if one_plus_v_plus_v2(v) == 0:
            return 0
    return 1


def _three_row(f: SupportFunction, fp: SupportFunction) -> int:
    """Row 1..7 of the local table at 3, by the pair's values there."""
    f3, fp3 = f.f3, fp.f3
    if f3 == 0 and fp3 == 0:
        return 1
    if f3 == 0:
        return 2 if chi_eval(f, 3) == ROOT(0) else 3
    if fp3 == 0:
        return 4 if chi_eval(fp, 3) == ROOT(0) else 5
    g = linear_combination(fp3, f, 2 * f3, fp)
    return 6 if chi_eval(g, 3) == ROOT(0) else 7


_MU_BY_ROW = (None, 0, 8, 12, 12, 16, 12, 16)


def mu(f: SupportFunction, fp: SupportFunction) -> int:
    """Exponent of 3 in the local discriminant factor at 3."""
    return _MU_BY_ROW[_three_row(f, fp)]


def mu_d(f: SupportFunction, fp: SupportFunction, three_divides_d: bool) -> int:
    """mu adjusted for 3 | d: the first row is promoted to 12."""
    if three_divides_d and f.f3 == 0 and fp.f3 == 0:
        return 12
    return mu(f, fp)


def big_d(f: SupportFunction, fp: SupportFunction, three_divides_d: bool) -> int:
    """D = Delta(f)^6 free(Delta(f'), Delta(f))^4 3^mu_d, exact."""
    df, dfp = delta(f), delta(fp)
    return df**6 * free(dfp, df) ** 4 * 3 ** mu_d(f, fp, three_divides_d)


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) by integer Newton; comparisons never touch floats."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
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


def classify(
    f: SupportFunction, fp: SupportFunction, three_divides_d: bool
) -> SubsumClass:
    """Pair class C1..C7 (3 coprime to d) or C8..C14 (3 | d)."""
    return SubsumClass(_three_row(f, fp) + (7 if three_divides_d else 0))


def s_sum(x: int, f: SupportFunction, fp: SupportFunction, mode: WeightMode) -> int:
    """S(X, f, f') = sum over admissible d of the 2^omega weight.

    d runs over squarefree products of primes = 1 mod 3, optionally times 3,
    coprime to Delta(f) Delta(f'), with free(d, 3)^6 <= X / D(d, f, f').
    Splitting d = m vs d = 3m turns each branch into a K-sum.
    """
    _check_x(x)
    dd = delta(f) * delta(fp)
    m1 = isixth_root(x // big_d(f, fp, False))
    m3 = isixth_root(x // big_d(f, fp, True))
    return k_direct(m1, 3, dd) + mode.w3 * k_direct(m3, 3, dd)


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


@dataclass(frozen=True)
class CountReport:
    x: int
    weight_mode: WeightMode
    raw_total: int
    count: Fraction
    divisible_by_108: bool
    subsums: dict[SubsumClass, int]

    def _count_json(self) -> int | str:
        if self.divisible_by_108:
            return int(self.count)
        return f"{self.count.numerator}/{self.count.denominator}"

    def to_json(self) -> str:
        obj = {
            "x": self.x,
            "weight_mode": self.weight_mode.value,
            "raw_total": self.raw_total,
            "count": self._count_json(),
            "divisible_by_108": self.divisible_by_108,
            "subsums": {c.name: self.subsums[c] for c in SubsumClass},
        }
        return json.dumps(obj, separators=(",", ":"))

    @staticmethod
    def csv_header() -> str:
        names = ",".join(c.name for c in SubsumClass)
        return f"x,weight_mode,raw_total,count,divisible_by_108,{names}"

    def to_csv_row(self) -> str:
        cells = [
            str(self.x),
            self.weight_mode.value,
            str(self.raw_total),
            str(self._count_json()),
            "true" if self.divisible_by_108 else "false",
        ]
        cells += [str(self.subsums[c]) for c in SubsumClass]
        return ",".join(cells)

    def to_text(self) -> str:
        lines = [
            f"x = {self.x}",
            f"weight_mode = {self.weight_mode.value}",
            f"raw_total = {self.raw_total}",
            f"count = {self._count_json()}",
            f"divisible_by_108 = {'true' if self.divisible_by_108 else 'false'}",
        ]
        lines += [f"{c.name} = {self.subsums[c]}" for c in SubsumClass]
        return "\n".join(lines)


def _check_x(x: int) -> None:
    if not isinstance(x, int):
        raise TypeError("X must be an integer")
    if x < 0:
        raise ValueError("X must be nonnegative")
    if x > X_MAX:
        raise ValueError(f"X = {x} exceeds the supported bound {X_MAX}")


def _subsets(fac: Sequence[int]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    for p in fac:
        out.extend([s + (p,) for s in out])
    return out


# minimal 3-exponent over the rows compatible with the (f(3), f'(3)) pattern
def _mu_floor(f3: int, fp3: int) -> int:
    if f3 == 0 and fp3 == 0:
        return 0
    if f3 == 0:
        return 8
    return 12


def _census_for_delta(
    x: int, w3: int, dI: DeltaIndex, wide: Sequence[DeltaIndex], collect: bool
) -> tuple[dict[SubsumClass, int], list[TermRecord]]:
    subs = {c: 0 for c in SubsumClass}
    records: list[TermRecord] = []
    df, fac = dI.delta, dI.primes
    d6 = df**6
    shared_choices = _subsets(fac)
    for f_vals in product((1, 2), repeat=len(fac)):
        base = tuple(zip(fac, f_vals))
        for f3 in (0, 1, 2):
            if f3 == 0 and not base:
                continue  # f = 0
            f = SupportFunction(((3, f3),) + base if f3 else base)
            for fp3 in (0, 1, 2):
                cap = x // (d6 * 3 ** _mu_floor(f3, fp3))
                if cap == 0:
                    continue
                bound = ifourth_root(cap)
                for eI in wide:
                    if eI.delta > bound:
                        break
                    if gcd(eI.delta, df) != 1:
                        continue
                    u = 3 ** (len(fac) + len(eI.primes))
                    for shared in shared_choices:
                        sup = tuple(sorted(shared + eI.primes))
                        for fp_vals in product((1, 2), repeat=len(sup)):
                            ent = tuple(zip(sup, fp_vals))
                            fp = SupportFunction(((3, fp3),) + ent if fp3 else ent)
                            if fp.is_zero:
                                continue
                            if not is_linearly_independent(f, fp):
                                continue
                            mm = (
                                isixth_root(x // big_d(f, fp, False)),
                                isixth_root(x // big_d(f, fp, True)),
                            )
                            if mm == (0, 0):
                                continue
                            dd = df * delta(fp)
                            kk = (
                                k_direct(mm[0], 3, dd),
                                k_direct(mm[1], 3, dd),
                            )
                            if kk == (0, 0):
                                continue
                            if indicator(f, fp) == 0:
                                continue
                            row = _three_row(f, fp)
                            if kk[0]:
                                c = SubsumClass(row)
                                w = u * kk[0]
                                subs[c] += w
                                if collect:
                                    records.append(
                                        TermRecord(f, fp, 1, big_d(f, fp, False), c, w)
                                    )
                            if kk[1]:
                                c = SubsumClass(row + 7)
                                w = u * w3 * kk[1]
                                subs[c] += w
                                if collect:
                                    records.append(
                                        TermRecord(f, fp, 3, big_d(f, fp, True), c, w)
                                    )
    return subs, records


# Memo of finished reports: verify suites, ratio grids and subsum lookups ask
# for the same (X, mode) many times.  Cleared when full, so it stays bounded.
_report_cache: dict[tuple[int, WeightMode], CountReport] = {}
_REPORT_CACHE_MAX = 256


def _census(
    x: int, mode: WeightMode, collect: bool = False
) -> tuple[CountReport, tuple[TermRecord, ...]]:
    _check_x(x)
    key = (x, mode)
    if not collect and key in _report_cache:
        return _report_cache[key], ()
    w3 = mode.w3
    narrow = list(enumerate_deltas(isixth_root(x)))
    # global bound for the new-prime part of f'; per-pair bounds are tighter
    wide = list(enumerate_deltas(ifourth_root(x // 3**8)) if x >= 3**8 else [])
    subs = {c: 0 for c in SubsumClass}
    records: list[TermRecord] = []
    if wide:
        for dI in narrow:
            psubs, precs = _census_for_delta(x, w3, dI, wide, collect)
            for c in SubsumClass:
                subs[c] += psubs[c]
            records.extend(precs)
    records.sort(
        key=lambda t: (delta(t.f), delta(t.fp), t.f.entries, t.fp.entries, t.d_class)
    )
    raw = sum(subs.values())
    report = CountReport(
        x=x,
        weight_mode=mode,
        raw_total=raw,
        count=Fraction(raw, 108),
        divisible_by_108=raw % 108 == 0,
        subsums=subs,
    )
    if len(_report_cache) >= _REPORT_CACHE_MAX:
        _report_cache.clear()
    _report_cache[key] = report
    return report, tuple(records)


def heis_total(x: int, mode: WeightMode = WeightMode.OMEGA_FULL) -> CountReport:
    """Raw census total, per-class subsums, and the divided count at X = x.

    The bound x must not exceed X_MAX = 10^18.  Integer arithmetic is exact
    throughout.
    """
    return _census(x, mode)[0]


def heis_subsum(x: int, cls: SubsumClass, mode: WeightMode) -> int:
    """The single-class contribution to the raw total."""
    return _census(x, mode)[0].subsums[cls]


def enumerate_terms(
    x: int,
    mode: WeightMode = WeightMode.OMEGA_FULL,
    limit: int | None = None,
) -> Iterator[TermRecord]:
    """Stream the nonzero pair contributions in deterministic order:
    (Delta(f), Delta(f'), f entries, f' entries, d-class)."""
    report, records = _census(x, mode, collect=True)
    del report
    if limit is not None:
        records = records[:limit]
    return iter(records)


def log_grid(lo: int, hi: int, n: int) -> list[int]:
    """n log-spaced integers from lo to hi inclusive, rounded, deduplicated
    and ascending; n = 1 gives [hi]."""
    if lo < 1 or hi < lo or n < 1:
        raise ValueError(
            f"a log grid needs 1 <= lo <= hi and n >= 1, got lo={lo} hi={hi} n={n}"
        )
    if n == 1:
        return [hi]
    xs = {lo, hi}
    for i in range(1, n - 1):
        xs.add(int(round(exp(log(lo) + (log(hi) - log(lo)) * i / (n - 1)))))
    return sorted(xs)
