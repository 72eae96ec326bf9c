"""The L-value oracle: closed-form L(1, chi) against known values and the
partial-sum series."""

from math import pi, sqrt

import pytest

from heisnine.charspace import SupportFunction, conductor

from oracles import (
    character_values,
    enumerate_V,
    gauss_sum,
    is_even,
    l_one,
    l_one_series,
    l_one_series_oracle,
    twisted_character_values,
)

F7 = SupportFunction(((7, 1),))
F7_13 = SupportFunction(((7, 1), (13, 1)))
F3 = SupportFunction(((3, 1),))


def test_quadratic_mod_three_closed_form():
    # the twist of the trivial character is the quadratic character mod 3
    vals = twisted_character_values(SupportFunction())
    assert len(vals) == 3
    got = l_one(vals)
    assert abs(got - pi / 3**1.5) < 1e-13
    assert abs(got.imag) < 1e-13


def test_quadratic_mod_three_vs_series_oracle():
    vals = twisted_character_values(SupportFunction())
    want = l_one_series_oracle(list(vals), 10**5)
    assert abs(l_one(vals) - want) < 1e-8


def test_cubic_seven_frozen_value():
    got = l_one(character_values(F7))
    assert got.real == pytest.approx(0.5377473805049042, abs=1e-12)
    assert got.imag == pytest.approx(0.10529754563079557, abs=1e-12)


def test_cubic_characters_are_even_twists_are_odd():
    for f in (F7, F7_13, F3):
        assert is_even(character_values(f))
        assert not is_even(twisted_character_values(f))


def test_gauss_sum_modulus():
    for f in (F7, F7_13, F3):
        vals = character_values(f)
        q = len(vals)
        assert abs(gauss_sum(vals)) == pytest.approx(sqrt(q), rel=1e-12)


def test_closed_vs_series_small_conductors():
    # every primitive character the pipeline uses with modulus <= 400
    fs = []
    for d in (1, 7, 13, 19, 31, 37, 43):
        for f in enumerate_V(d, True):
            for extra in (None, 1, 2):
                g = f if extra is None else SupportFunction.of(
                    {**dict(f.entries), 3: extra}
                )
                if conductor(g) <= 400 and not g.is_zero:
                    fs.append(g)
    assert len(fs) > 10
    for g in fs:
        vals = character_values(g)
        got = l_one(vals)
        want = l_one_series(vals, 4 * 10**5)
        assert abs(got - want) <= 1e-7 * abs(want), str(g)
        tv = twisted_character_values(g)
        assert abs(l_one(tv) - l_one_series(tv, 4 * 10**5)) <= 1e-7 * abs(l_one(tv))


def test_conjugate_character_conjugates_the_value():
    f2 = SupportFunction(((7, 2),))
    a = l_one(character_values(F7))
    b = l_one(character_values(f2))
    assert abs(a - b.conjugate()) < 1e-12


def test_trivial_modulus_rejected():
    with pytest.raises(ValueError):
        l_one(character_values(SupportFunction()))


def test_character_values_periodic_structure():
    vals = character_values(F7)
    assert len(vals) == 7
    assert vals[0] == 0
    # multiplicative on units mod 7
    for a in range(1, 7):
        for b in range(1, 7):
            assert vals[a * b % 7] == pytest.approx(vals[a] * vals[b], abs=1e-12)
