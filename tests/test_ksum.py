import time
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from heisnine import ksum
from heisnine._primes import primes_up_to, progression_sieve
from heisnine.ksum import (
    K_DIRECT_MAX,
    _class_counts,
    _one_counts,
    _values,
    alpha_ell,
    k_direct,
    psi_ell,
)


def _clear_ksum_caches():
    ksum._one_counts.cache_clear()


def test_k_direct_examples():
    assert k_direct(10, 3) == 3  # 1, 7 counts 2, and nothing else
    assert k_direct(100, 3) == 27
    assert k_direct(100, 3, 7) == 21


def test_k_direct_matches_brute_force():
    for x in (1, 6, 7, 48, 91, 300, 2000):
        for d in (1, 7, 91):
            assert k_direct(x, 3, d) == oracles.k_brute(x, 3, d)
    assert k_direct(200, 7) == oracles.k_brute(200, 7, 1)


def test_k_direct_small_equals_dfs():
    # the DFS against the brute-force scan around x = 10^4, at d = 91
    for x in (9999, 10**4, 10**4 + 1):
        assert k_direct(x, 3, 91) == oracles.k_brute(x, 3, 91)


# 103 * 109 = 11227 is a product of consecutive admissible primes, the edge
# between a pushed child and a counted leaf
@pytest.mark.parametrize("x", [10**4 + 1, 103 * 109, 10**5, 10**6])
def test_k_direct_matches_full_dfs(x):
    # the leaf-counting DFS against the one that pushes every product
    for d in (1, 7, 91, 2923):
        for ell in (2, 3, 7):
            assert k_direct(x, ell, d) == oracles.k_direct_dfs(x, ell, d), (x, d, ell)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
@pytest.mark.parametrize("x", [10**6 + 1, 3 * 10**6])
def test_class_counts_match_sieve(x, ell):
    vals = _values(x)
    assert vals.tolist() == [0] + np.unique(x // np.arange(1, x + 1)).tolist()
    counts = _class_counts(x, ell, primes_up_to(isqrt(x)).tolist())
    ps = primes_up_to(x)
    for c in range(ell):
        want = np.searchsorted(ps[ps % ell == c], vals, side="right")
        assert np.array_equal(counts[c], want), c


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 13])
def test_class_counts_match_the_prime_by_prime_strikes(ell):
    # the batched strikes of the primes above x^(1/3) against one strike a
    # prime, at every small x (ell strikes alone above x^(1/3) for x in
    # [ell^2, ell^3)) and at two large ones
    for x in [*range(1, 3001), 10**6 + 7, 10**8 + 3]:
        small = primes_up_to(isqrt(x)).tolist()
        got = _class_counts(x, ell, small)
        assert np.array_equal(got, oracles.class_counts_by_prime(x, ell)), x


@pytest.mark.parametrize("ell", [2, 3, 7, 101, 1009])
@pytest.mark.parametrize("x", [10**4 + 1, 10**6 + 1])
def test_progression_primes_match_sieve(x, ell):
    ps = primes_up_to(x)
    sieve = progression_sieve(x, ell, primes_up_to(isqrt(x)).tolist())
    assert np.array_equal(1 + ell * np.flatnonzero(sieve), ps[ps % ell == 1])


@pytest.mark.parametrize("ell", [31, 101, 1009, 10007])
def test_k_direct_large_ell_matches_full_dfs(ell):
    # large ell takes the listed progression, not the ell class rows; d
    # removes two admissible primes
    adm = [p for p in primes_up_to(10**6).tolist() if p % ell == 1]
    for x in (10**6 + 1, 3 * 10**6):
        for d in (1, 6 * adm[0] * adm[len(adm) // 2]):
            assert k_direct(x, ell, d) == oracles.k_direct_dfs(x, ell, d), (x, d)


@pytest.mark.parametrize("ell", [2, 3, 7])
@pytest.mark.parametrize("skip", [False, True])
def test_k_direct_pushes_across_the_root(ell, skip):
    # x = p * p' for consecutive admissible primes p < sqrt(x) < p': the
    # root must push p, whose one child is x itself.  With skip, d removes
    # the admissible prime that would otherwise follow p.
    adm = [p for p in primes_up_to(2000).tolist() if p % ell == 1]
    i = bisect_right(adm, 1000) - 1
    d = adm[i + 1] if skip else 1
    p, p_next = adm[i], adm[i + 2 if skip else i + 1]
    x = p * p_next
    assert p <= isqrt(x) < p_next
    assert k_direct(x, ell, d) == oracles.k_direct_dfs(x, ell, d)


@pytest.mark.parametrize("d", [7 * 1009, 2 * 500029, 1009 * 500029])
def test_k_direct_d_with_a_factor_above_the_root(d):
    # 1009 and 500029 are primes = 1 (mod 3) in (sqrt(x), x]
    x = 10**6
    assert k_direct(x, 3, d) == oracles.k_direct_dfs(x, 3, d)


@pytest.mark.parametrize("big", [2000003, 2**89 - 1])
def test_k_direct_cofactor_above_x(big):
    # big is a prime past x (2^89 - 1 one past int64), so the cofactor
    # 1000003 * big of d exceeds x and its factor 1000003 = 1 (mod 3) is
    # found by the block pass over (sqrt(x), x]
    x = 2 * 10**6
    d = 7 * 1000003 * big
    assert k_direct(x, 3, d) == oracles.k_direct_dfs(x, 3, d)
    assert k_direct(x, 3, d) == k_direct(x, 3, 7 * 1000003)


def test_k_direct_cofactor_above_x_with_x_as_its_prime():
    # x = 1000003 = 1 (mod 3) is prime: the block pass reaches x itself
    x = 1000003
    d = 7 * x * (2**89 - 1)
    assert k_direct(x, 3, d) == oracles.k_direct_dfs(x, 3, d) == k_direct(x, 3, 7 * x)


def test_k_direct_cofactor_past_x_at_the_cap():
    # both primes of d lie past x, so the pass over (sqrt(x), x] finds none
    t0 = time.monotonic()
    k = k_direct(K_DIRECT_MAX, 3, (10**9 + 7) * (10**9 + 9))
    assert time.monotonic() - t0 < 2
    assert k == k_direct(K_DIRECT_MAX, 3, 1)


def test_k_direct_cofactor_above_x_with_a_prime_below_x_at_the_cap():
    # 999999937 = 1 (mod 3) is the largest prime below 10^9; with 10^9 + 7
    # beside it the cofactor exceeds x, alone it takes the c <= x path
    q = 999999937
    t0 = time.monotonic()
    k = k_direct(K_DIRECT_MAX, 3, q * (10**9 + 7))
    assert time.monotonic() - t0 < 2
    assert k == k_direct(K_DIRECT_MAX, 3, q)


def test_k_direct_pinned_at_1e8():
    # recorded with the route that sieved every prime <= x
    assert [k_direct(10**8, 3, d) for d in (1, 7, 2923)] == [25940747, 20176285, 24002923]


@pytest.mark.parametrize(
    "x, ell, p",
    [(10**8, 3, 7), (10**8, 3, 9973), (10**8, 3, 1000003), (98765431, 7, 29), (10**7 + 1, 2, 3)],
)
def test_k_direct_splits_on_one_prime(x, ell, p):
    # n counted by K(x; ell, 1) is coprime to p, or p m with m <= x / p
    # coprime to p and one more factor ell - 1
    assert k_direct(x, ell) == k_direct(x, ell, p) + (ell - 1) * k_direct(x // p, ell, p)


def test_k_direct_budget_at_the_cap():
    _clear_ksum_caches()  # a cold call: the prime counts are built in the budget
    tracemalloc.start()
    try:
        t0 = time.monotonic()
        k = k_direct(K_DIRECT_MAX, 3)
        elapsed = time.monotonic() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k > 0
    assert elapsed < 10
    assert peak < 32 * 2**20


def test_k_direct_huge_d():
    d = 7 * 13 * 2**64  # past int64
    assert k_direct(10**5, 3, d) == k_direct(10**5, 3, 91)


def test_k_direct_huge_d_with_a_cofactor_above_x():
    # at x = 5000 trial division clears 7 13 2^64, while the prime cofactor
    # 2^89 - 1 exceeds x and is searched for divisors by _divisors_above_root
    d = 7 * 13 * 2**64
    assert k_direct(5000, 3, d) == k_direct(5000, 3, 91) == oracles.k_brute(5000, 3, d)
    d = 19 * 37 * (2**89 - 1)  # limbs that all differ from zero
    assert k_direct(5000, 3, d) == oracles.k_brute(5000, 3, d)


def test_k_direct_domain():
    assert k_direct(0, 3) == 0
    assert k_direct(1, 3) == 1
    with pytest.raises(ValueError):
        k_direct(K_DIRECT_MAX + 1, 3)
    with pytest.raises(ValueError):
        k_direct(100, 4)
    with pytest.raises(ValueError):
        k_direct(100, 3, 0)


def test_large_prime_ell_is_checked_by_miller_rabin():
    ell = 10**12 + 39
    t0 = time.monotonic()
    assert k_direct(100, ell) == 1
    assert psi_ell(7, ell) == Fraction(7, ell + 6)
    assert time.monotonic() - t0 < 0.1
    for composite in (1, (10**6 + 3) * (10**6 + 33), ell * ell):
        with pytest.raises(ValueError, match="ell must be prime"):
            k_direct(100, composite)
        with pytest.raises(ValueError, match="ell must be prime"):
            psi_ell(7, composite)


@given(st.integers(1, 3000), st.integers(1, 3000))
def test_k_direct_monotone(x, y):
    if x > y:
        x, y = y, x
    assert k_direct(x, 3) <= k_direct(y, 3)


@given(st.sampled_from([1, 7, 13, 91, 133]))
def test_k_direct_antitone_in_d(d):
    assert k_direct(5000, 3, d) <= k_direct(5000, 3)


def test_k_direct_reuses_the_counts_across_d():
    ds = (1, 7, 91, 2923)
    cold = {}
    for d in ds:
        _clear_ksum_caches()
        cold[d] = k_direct(10**7, 3, d)
    _clear_ksum_caches()
    assert [k_direct(10**7, 3, d) for d in ds] == [cold[d] for d in ds]
    assert _one_counts.cache_info().misses == 1
    assert [k_direct(10**7, 3, d) for d in reversed(ds)] == [cold[d] for d in reversed(ds)]
    assert _one_counts.cache_info().misses == 1


@pytest.mark.parametrize("ell, path", [(2, "_class_counts"), (3, "progression_sieve")])
def test_k_direct_on_each_count_path(ell, path, monkeypatch):
    # at 10^4 + 1, ell = 2 counts by classes and ell = 3 lists its
    # progression; both must match the brute-force scan, cold and warm
    calls = []
    orig = getattr(ksum, path)
    monkeypatch.setattr(ksum, path, lambda *a: calls.append(a) or orig(*a))
    x = 10**4 + 1
    for d in (1, 91):
        _clear_ksum_caches()
        want = oracles.k_brute(x, ell, d)
        assert k_direct(x, ell, d) == want
        assert k_direct(x, ell, d) == want
    assert len(calls) == 2


def test_one_counts_cache_is_bounded_and_read_only():
    _clear_ksum_caches()
    assert _one_counts.cache_info().maxsize == 4
    for x in range(10**5, 10**5 + 6):
        k_direct(x, 3, 7)
    assert _one_counts.cache_info().currsize == 4
    ones = _one_counts(10**5 + 5, 3)
    assert ones.dtype == np.int64
    with pytest.raises(ValueError):
        ones[0] = 1
    ps = primes_up_to(10**5 + 5)
    want = np.searchsorted(ps[ps % 3 == 1], _values(10**5 + 5), side="right")
    assert np.array_equal(ones, want)


def test_psi_examples():
    assert psi_ell(7, 3) == Fraction(7, 9)
    assert psi_ell(91, 3) == Fraction(91, 135)
    assert psi_ell(1, 5) == Fraction(1)
    assert psi_ell(12, 3) == Fraction(2, 4) * Fraction(3, 5)


def test_alpha3_tauberian_sanity():
    a3 = alpha_ell(3)
    assert 0.2 < a3 < 0.3
    x = 10**5
    assert abs(k_direct(x, 3) / (a3 * x) - 1) < 0.01


def test_alpha3_stable_under_pmax():
    assert abs(alpha_ell(3, 10**6) - alpha_ell(3, 2 * 10**6)) < 1e-4


@pytest.mark.parametrize("ell", [2, 7])
def test_alpha_is_for_ell_3_only(ell):
    with pytest.raises(ValueError, match="ell = 3 only"):
        alpha_ell(ell)
