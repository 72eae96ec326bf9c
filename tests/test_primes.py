"""Primality: the Miller-Rabin witness tiers and the progression sieve."""

import numpy as np
import pytest

from heisnine._primes import is_prime, primes_up_to, progression_sieve

# the least strong pseudoprimes to the bases (2, 7, 61), to the first 12
# primes and to the first 13 primes
PSEUDO_2_7_61 = 4_759_123_141
PSI_12 = 318_665_857_834_031_151_167_461
PSI_13 = 3_317_044_064_679_887_385_961_981


def test_is_prime_matches_the_sieve():
    n = 10**6
    want = np.zeros(n + 1, dtype=bool)
    want[primes_up_to(n)] = True
    assert [is_prime(k) for k in range(n + 1)] == want.tolist()


def test_is_prime_rejects_the_strong_pseudoprimes():
    assert PSEUDO_2_7_61 == 48_781 * 97_561
    assert PSI_12 == 399_165_290_221 * 798_330_580_441
    assert not is_prime(PSEUDO_2_7_61)
    assert not is_prime(953 * 2381)  # passes the bases 2 and 7, fails 61
    assert not is_prime(PSI_12)
    for p in (48_781, 97_561, 399_165_290_221, 798_330_580_441):
        assert is_prime(p)


def test_is_prime_across_the_tiers():
    # 4759123129 is the largest prime below the first tier's bound, and
    # 4759123151 the least above it; 2^61 - 1 and 10^24 + 7 are prime
    assert is_prime(4_759_123_129) and is_prime(4_759_123_151)
    gap = range(4_759_123_130, 4_759_123_151)
    assert not any(is_prime(n) for n in gap)
    assert all(any(n % q == 0 for q in range(2, 70_000)) for n in gap)
    assert is_prime(2**61 - 1) and is_prime(10**24 + 7)
    assert not is_prime(1_000_003 * (2**61 - 1))
    assert not is_prime(PSI_13 - 1)


@pytest.mark.parametrize("n", [PSI_13, 10**30 + 57])
def test_is_prime_refuses_past_the_proven_bound(n):
    with pytest.raises(ValueError, match="not decided"):
        is_prime(n)


def test_is_prime_trial_division_decides_past_the_bound():
    assert not is_prime(PSI_13 + 1)
    assert not is_prime(41 * PSI_13)


@pytest.mark.parametrize("m", [2, 3, 6, 7, 10, 30])
@pytest.mark.parametrize("n", [1, 2, 7, 60, 61, 10**5 + 1])
def test_progression_sieve_matches_the_sieve(n, m):
    ps = primes_up_to(n)
    small = primes_up_to(int(n**0.5)).tolist()
    got = 1 + m * np.flatnonzero(progression_sieve(n, m, small))
    assert got.tolist() == ps[ps % m == 1].tolist()
