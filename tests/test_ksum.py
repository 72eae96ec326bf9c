from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from heisnine.ksum import K_DIRECT_MAX, alpha_ell, k_direct, psi_ell


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
    # the cached-table path and the DFS must agree across the threshold
    from heisnine.ksum import _SMALL_MAX

    for x in (_SMALL_MAX - 1, _SMALL_MAX, _SMALL_MAX + 1):
        assert k_direct(x, 3, 91) == oracles.k_brute(x, 3, 91)


# 103 * 109 = 11227 is a product of consecutive admissible primes, the edge
# between a pushed child and a counted leaf
@pytest.mark.parametrize("x", [10**4 + 1, 103 * 109, 10**5, 10**6])
def test_k_direct_matches_full_dfs(x):
    # the leaf-counting DFS against the one that pushes every product
    for d in (1, 7, 91, 2923):
        for ell in (2, 3, 7):
            assert k_direct(x, ell, d) == oracles.k_direct_dfs(x, ell, d), (x, d, ell)


def test_k_direct_huge_d():
    d = 7 * 13 * 2**64  # past int64
    assert k_direct(10**5, 3, d) == k_direct(10**5, 3, 91)


def test_k_direct_domain():
    assert k_direct(0, 3) == 0
    assert k_direct(1, 3) == 1
    with pytest.raises(ValueError):
        k_direct(K_DIRECT_MAX + 1, 3)
    with pytest.raises(ValueError):
        k_direct(100, 4)
    with pytest.raises(ValueError):
        k_direct(100, 3, 0)


@given(st.integers(1, 3000), st.integers(1, 3000))
def test_k_direct_monotone(x, y):
    if x > y:
        x, y = y, x
    assert k_direct(x, 3) <= k_direct(y, 3)


@given(st.sampled_from([1, 7, 13, 91, 133]))
def test_k_direct_antitone_in_d(d):
    assert k_direct(5000, 3, d) <= k_direct(5000, 3)


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


def test_alpha_generic_ell_rough():
    # conditionally convergent route: only rough agreement is promised
    a7 = alpha_ell(7, 10**6)
    assert 0 < a7 < 1
    x = 10**5
    ratio = k_direct(x, 7) / (a7 * x)
    assert 0.8 < ratio < 1.25
