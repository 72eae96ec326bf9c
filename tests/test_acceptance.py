"""Acceptance gate: the eight desk-scale criteria, each with its stated
runtime budget, tolerances, and independent confirmation routes."""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from heisnine._primes import primes_up_to
from heisnine.charspace import SupportFunction, conductor, enumerate_deltas
from heisnine.cli import ratio_report
from heisnine.constants import (
    TruncationParams,
    char_cancellation_profile,
    constant_report,
    h_constants,
)
from heisnine.counting import SubsumClass, WeightMode, heis_total, log_grid
from heisnine.eisenstein import (
    EisensteinInt,
    ROOT,
    chi_p,
    cubic_symbol,
    standard_decompose,
    standard_primes_up_to,
)
from heisnine.ksum import alpha_ell, k_direct, psi_ell
from heisnine.verify import _euler_symbols, indicator_pairs, run_suite
from heisnine.counting import indicator

from oracles import (
    census_scan_raw_total,
    character_values,
    enumerate_V,
    h_constants_literal,
    is_cubic_residue,
    l_one,
    l_one_series,
    l_one_series_oracle,
    splitting_oracle,
    standard_by_search,
    t_divides,
    t_mul,
    twisted_character_values,
)

FULL = WeightMode.OMEGA_FULL
STAR = WeightMode.OMEGA_STAR


@pytest.fixture(scope="session")
def default_constants():
    return constant_report(TruncationParams())


# 1. exact arithmetic ------------------------------------------------------


def test_criterion_1_exact_arithmetic():
    t0 = time.monotonic()

    # standard decomposition invariants for every split p up to 10^6
    n = 0
    for sp in standard_primes_up_to(10**6):
        a, b = sp.pi.a, sp.pi.b
        assert sp.pi.norm == sp.p
        assert a % 3 == 2 and b % 3 == 0 and b > 0
        assert 2 <= sp.r <= sp.p - 2 and (sp.r * sp.r + sp.r + 1) % sp.p == 0
        assert t_mul((a, b), (a - b, -b)) == (sp.p, 0)
        assert t_divides((a, b), (-sp.r, 1))
        n += 1
    assert n == 39231

    # equality with the exhaustive lattice search
    for p in map(int, primes_up_to(10**4)):
        if p % 3 != 1:
            continue
        sp = standard_decompose(p)
        (a, b), r = standard_by_search(p)
        assert (sp.pi.a, sp.pi.b) == (a, b) and sp.r == r

    # cubic reciprocity for all primary prime pairs with norms <= 10^4
    res = run_suite("reciprocity", 10**4)
    assert res.ok and res.checks == 762_759

    # F_p symbol against the Z[j] Euler criterion on 10^4 random cases
    rng = random.Random(90001)
    split = [int(p) for p in primes_up_to(2000) if p % 3 == 1]
    cases = []
    for _ in range(10**4):
        sp = standard_decompose(rng.choice(split))
        alpha = EisensteinInt(rng.randint(-50, 50), rng.randint(-50, 50))
        cases.append((alpha, sp))
    slow = _euler_symbols(
        [(alpha.a, alpha.b) for alpha, _ in cases],
        [(sp.pi.a, sp.pi.b) for _, sp in cases],
    )
    assert [cubic_symbol(alpha, sp) for alpha, sp in cases] == slow

    # rational cube test against the Euler-criterion oracle
    for q in map(int, primes_up_to(10**4)):
        if q % 3 != 1:
            continue
        for r in range(1, 101):
            if r % q == 0:
                continue
            assert (chi_p(q, r) == ROOT(0)) == is_cubic_residue(q, r)

    assert time.monotonic() - t0 < 30


# 2. indicator -------------------------------------------------------------


def test_criterion_2_indicator():
    t0 = time.monotonic()
    res = run_suite("indicator", 200)
    assert res.ok and res.checks > 2 * 10**5

    pairs = indicator_pairs(200)
    assert len(pairs) == 111888
    for f, fp in pairs:
        assert indicator(f, fp) == splitting_oracle(dict(f.entries), dict(fp.entries))

    assert time.monotonic() - t0 < 15


# 3. census integrality ----------------------------------------------------


def test_criterion_3_census_integrality():
    t0 = time.monotonic()
    census_grid = [(x, heis_total(x, FULL)) for x in log_grid(10**9, 10**16, 20)]
    prev = Fraction(-1)
    for x, rep in census_grid:
        assert rep.raw_total % 108 == 0, f"raw_total({x}) not divisible by 108"
        assert rep.divisible_by_108
        assert rep.count >= prev
        prev = rep.count
    assert len(census_grid) == 20
    assert heis_total(10**9, FULL).count == 0

    # documented divergence at 6e12, confirmed by the exhaustive scan first
    x = 6 * 10**12
    scan_star, sub_star = census_scan_raw_total(x, 1)
    scan_full, sub_full = census_scan_raw_total(x, 2)
    assert scan_star == 72 and scan_full == 108

    star = heis_total(x, STAR)
    full = heis_total(x, FULL)
    assert star.raw_total == scan_star and full.raw_total == scan_full
    assert star.raw_total % 108 != 0 and not star.divisible_by_108
    assert star.count == Fraction(2, 3)
    assert full.count == 1 and full.divisible_by_108
    assert {c.value: star.subsums[c] for c in SubsumClass} == sub_star
    assert {c.value: full.subsums[c] for c in SubsumClass} == sub_full

    assert time.monotonic() - t0 < 30


# 4. subsum identities -----------------------------------------------------


def test_criterion_4_subsum_identities():
    t0 = time.monotonic()
    for x in (10**12, 10**13, 10**14, 10**15, 10**16):
        for mode in (STAR, FULL):
            rep = heis_total(x, mode)
            assert sum(rep.subsums.values()) == rep.raw_total
        star = heis_total(x, STAR).subsums
        for k in range(2, 8):
            assert star[SubsumClass(k + 7)] == star[SubsumClass(k)], (x, k)
        shifted_star = heis_total(x // 3**12, STAR).subsums[SubsumClass.C1]
        assert star[SubsumClass.C8] == shifted_star
        full = heis_total(x, FULL).subsums
        shifted_full = heis_total(x // 3**12, FULL).subsums[SubsumClass.C1]
        assert full[SubsumClass.C8] == 2 * shifted_full
    assert time.monotonic() - t0 < 30


# 5. Tauberian -------------------------------------------------------------


def test_criterion_5_tauberian():
    t0 = time.monotonic()
    assert k_direct(10, 3, 1) == 3
    assert k_direct(100, 3, 1) == 27
    assert k_direct(100, 3, 7) == 21

    a3 = alpha_ell(3, 10**6)
    for d in (1, 7, 91):
        psi = float(psi_ell(d, 3))
        dev5 = abs(k_direct(10**5, 3, d) / (a3 * psi * 10**5) - 1)
        dev7 = abs(k_direct(10**7, 3, d) / (a3 * psi * 10**7) - 1)
        assert dev7 <= 0.02, (d, dev7)
        assert dev7 < dev5, (d, dev5, dev7)
    assert time.monotonic() - t0 < 5


# 6. constant pipeline -----------------------------------------------------


def test_criterion_6_constants():
    t0 = time.monotonic()
    rep = constant_report(TruncationParams())

    # alpha_3 stability under p_max doubling
    assert abs(alpha_ell(3, 2 * 10**6) - rep.alpha3) < 1e-4

    # the odd quadratic L-value, against both the constant and its oracle
    vals = twisted_character_values(SupportFunction())
    lq = l_one(vals)
    assert abs(lq - 0.60459979) < 1e-6
    assert abs(lq - l_one_series_oracle(list(vals), 10**6)) < 1e-6

    # dual evaluation for every pipeline character with conductor <= 500
    checked = 0
    for dI in enumerate_deltas(500):
        for f in enumerate_V(dI.delta, True):
            for f3 in (0, 1, 2):
                g = f if f3 == 0 else SupportFunction.of({**dict(f.entries), 3: f3})
                if g.is_zero or conductor(g) > 500:
                    continue
                cv = character_values(g)
                assert abs(l_one(cv) - l_one_series(cv, 10**6)) <= 1e-6 * abs(l_one(cv))
                checked += 1
    assert checked >= 150

    assert rep.h0 > 0
    assert rep.h0 == pytest.approx(rep.h1 + rep.h1_prime, rel=1e-12)
    # the P-form against the oracle's first form of the starred constant,
    # both truncations below p = 55,108, where p**4 wraps in int64
    for params in (TruncationParams(100, 20000), TruncationParams(300, 50000)):
        _, form1 = h_constants_literal(params)
        assert h_constants(params).h0 == pytest.approx(form1, rel=1e-12)
    assert rep.c_heis3 > 0
    assert time.monotonic() - t0 < 30


# 7. asymptotic trend ------------------------------------------------------


def test_criterion_7_asymptotic_trend(default_constants):
    t0 = time.monotonic()
    c = default_constants.c_heis3
    xs = log_grid(10**12, 10**16, 9)
    rows = ratio_report(xs, FULL, c_estimate=c)
    print()
    for r in rows:
        print(r)
    assert len(rows) == 9
    for r in rows:
        assert r.ratio <= 10 * c, f"ratio at {r.x} above 10x the constant"
    top = rows[-1]
    assert top.x == 10**16
    assert c / 10 <= top.ratio <= 10 * c
    assert 0.1 <= top.ratio_over_c <= 10
    assert time.monotonic() - t0 < 30


# 8. cancellation probe ----------------------------------------------------


def test_criterion_8_cancellation():
    t0 = time.monotonic()
    checkpoints = (10**5, 10**7)
    probes = [
        (SupportFunction(((7, 1),)), (1, 0), {7: (1, 0)}),
        (SupportFunction(((19, 1),)), (0, 0), {19: (0, 1)}),
        (SupportFunction(((7, 1), (13, 2))), (1, 0), {7: (0, 1), 13: (1, 0)}),
    ]
    for f, eps, pattern in probes:
        lo, hi = char_cancellation_profile(f, checkpoints, eps, pattern)
        assert hi.terms > lo.terms > 0
        assert hi.normalized < lo.normalized, (f, lo.normalized, hi.normalized)

    # real-character sanity: sum of (p/3) over p <= x is o(pi(x))
    ps = primes_up_to(10**7)
    ratios = []
    for x in (10**5, 10**7):
        sel = ps[(ps <= x) & (ps != 3)]
        s = int(np.count_nonzero(sel % 3 == 1)) - int(np.count_nonzero(sel % 3 == 2))
        ratios.append(abs(s) / len(sel))
    assert ratios[-1] < 0.01
    assert ratios[-1] < ratios[0]
    assert time.monotonic() - t0 < 5
