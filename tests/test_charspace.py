import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from heisnine.charspace import SupportFunction, conductor, delta, enumerate_deltas
from heisnine.eisenstein import ROOT, ZERO
from oracles import chi_exponent_arrays, d_comb, enumerate_V, is_linearly_independent

F = SupportFunction.of


def chi_value(f, m):
    """chi(f)(m) by the oracles' array route over the package's _chi_exps,
    at one point."""
    e, ok = chi_exponent_arrays(f, np.array([m]))
    return ROOT(int(e[0])) if ok[0] else ZERO

SMALL_SPLIT = [7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97, 103, 109]


@st.composite
def support_functions(draw, primes=SMALL_SPLIT, max_support=3):
    pool = draw(st.sets(st.sampled_from([3] + list(primes)), max_size=max_support))
    return F({p: draw(st.integers(1, 2)) for p in pool})


def test_construction_normalizes():
    assert F({7: 1, 13: 0}) == F({7: 1})
    assert F({}) == SupportFunction()
    assert F({7: 4}) == F({7: 1})
    assert str(F({19: 2, 3: 1})) == "3:1,19:2"


def test_construction_rejects_bad_primes():
    with pytest.raises(ValueError):
        F({5: 1})
    with pytest.raises(ValueError):
        F({91: 1})
    with pytest.raises(ValueError):
        SupportFunction(((7, 3),))


def test_delta_examples():
    assert delta(F({})) == 1
    assert delta(F({3: 1})) == 1
    assert delta(F({3: 2, 7: 1, 13: 2})) == 91


def test_conductor():
    assert conductor(F({7: 1})) == 7
    assert conductor(F({3: 1, 7: 1})) == 63
    assert conductor(F({3: 2})) == 9


def test_linear_combination_examples():
    # the oracles' combination, behind their kernel generators and rows
    assert d_comb(1, {7: 1}, 2, {7: 1}) == {}
    assert d_comb(1, {3: 1}, 2, {19: 1, 3: 1}) == {19: 2}
    assert d_comb(0, {7: 2, 13: 1}, 0, {3: 1}) == {}


def test_independence_examples():
    assert not is_linearly_independent(F({7: 1}), F({7: 2}))
    assert is_linearly_independent(F({3: 1}), F({19: 1}))
    assert not is_linearly_independent(F({}), F({19: 1}))
    assert not is_linearly_independent(F({19: 1}), F({}))


@given(support_functions(), support_functions())
def test_independence_matches_brute_force(f, fp):
    brute = all(
        d_comb(z, dict(f.entries), zp, dict(fp.entries))
        for z in range(3)
        for zp in range(3)
        if (z, zp) != (0, 0)
    )
    assert is_linearly_independent(f, fp) == brute


def test_chi_eval_examples():
    assert chi_value(F({}), 5) == ROOT(0)
    assert chi_value(F({7: 1, 13: 1}), 26) == ZERO
    assert chi_value(F({3: 1}), 19) == ROOT(0)


@given(support_functions(), st.integers(min_value=1, max_value=10**6))
def test_chi_eval_matches_oracle(f, m):
    e = oracles.chi_exp_oracle(dict(f.entries), m)
    assert chi_value(f, m) == (ZERO if e is None else ROOT(e))


@given(support_functions(), st.integers(min_value=1, max_value=10**5))
def test_chi_eval_periodic_mod_conductor(f, m):
    q = conductor(f)
    assert chi_value(f, m) == chi_value(f, m + q)
    assert chi_value(f, m) == chi_value(f, m + 3 * q)


@given(
    st.integers(0, 2),
    support_functions(),
    st.integers(0, 2),
    support_functions(),
    st.integers(min_value=1, max_value=10**5),
)
def test_chi_eval_homomorphism(z, f, zp, fp, m):
    g = F(d_comb(z, dict(f.entries), zp, dict(fp.entries)))
    if any(m % p == 0 for p, _ in g.entries):
        return  # zero on one side only when a support prime divides m
    # chi_g(m) = chi_f(m)^z chi_fp(m)^zp, compared as exponents of j
    parts = [(k, chi_value(h, m)) for k, h in ((z, f), (zp, fp)) if k]
    if any(v.is_zero for _, v in parts):
        return  # a prime cancelled from g but divides m
    assert chi_value(g, m) == ROOT(sum(k * v.exp for k, v in parts))


def test_enumerate_deltas_examples():
    got = [d.delta for d in enumerate_deltas(10)]
    assert got == [1, 7]
    got = [d.delta for d in enumerate_deltas(100)]
    assert len(got) == 13
    assert got == sorted(got)
    assert 91 in got
    assert [d.delta for d in enumerate_deltas(6)] == [1]


def test_enumerate_deltas_factorizations():
    for d in enumerate_deltas(500):
        prod = 1
        for p in d.primes:
            assert p % 3 == 1
            prod *= p
        assert prod == d.delta


@pytest.mark.parametrize("limit", [15, 1000, 11100, 111111])
def test_enumerate_deltas_matches_scan(limit):
    assert tuple(enumerate_deltas(limit)) == oracles.deltas_scan(limit)


def test_enumerate_V_examples():
    assert enumerate_V(1, True) == [SupportFunction()]
    assert len(enumerate_V(7, False)) == 6
    assert len(enumerate_V(91, True)) == 4


def test_enumerate_V_cardinalities():
    for d in enumerate_deltas(2500):
        k = len(d.primes)
        star = enumerate_V(d.delta, True)
        assert len(star) == 2**k
        assert len(set(star)) == 2**k
        assert all(delta(f) == d.delta and f.f3 == 0 for f in star)
        full = enumerate_V(d.delta, False)
        assert len(full) == 3 * 2**k
        assert len(set(full)) == 3 * 2**k


def test_enumerate_V_rejects_bad_modulus():
    with pytest.raises(ValueError):
        enumerate_V(5, True)
    with pytest.raises(ValueError):
        enumerate_V(49, True)
