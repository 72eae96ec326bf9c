"""The verification suites at reduced bounds, and their helpers."""

import time

import pytest

from heisnine import verify
from heisnine.eisenstein import (
    ROOT,
    ZERO,
    EisensteinInt,
    cubic_symbol,
    standard_decompose,
)
from heisnine.verify import (
    SUITE_NAMES,
    _symbol_inert,
    _symbol_primary,
    indicator_pairs,
    run_suite,
)

from oracles import symbol_exp_by_euler


SMALL_BOUNDS = {
    "reciprocity": 600,
    "symbols": 600,
    "indicator": 31,
    "integrality": 10**13,
    "subsum-identities": 10**13,
    "ksum": 300,
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suites_pass_at_small_bounds(name):
    res = run_suite(name, SMALL_BOUNDS[name])
    assert res.ok, res.failures
    assert res.checks > 0
    assert res.suite == name


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything")
    with pytest.raises(ValueError):
        run_suite("ksum", 0)


def test_result_text_shape():
    res = run_suite("ksum", 200)
    line = res.to_text().splitlines()[0]
    assert line == f"suite=ksum bound=200 checks={res.checks} failures=0"


def test_general_symbol_matches_oracle():
    # (alpha / conj pi) = conj (conj alpha / pi): the branch reciprocity uses
    for p in (7, 13, 19, 31):
        sp = standard_decompose(p)
        for a in range(-3, 4):
            for b in range(-3, 4):
                alpha = EisensteinInt(a, b)
                e = symbol_exp_by_euler((a, b), p)
                got = _symbol_primary(alpha, sp.pi)
                assert got.exp == e
                ec = symbol_exp_by_euler((a - b, -b), p)
                got = _symbol_primary(alpha, sp.pi.conj())
                assert got.exp == (None if ec is None else -ec % 3)


@pytest.mark.parametrize("q", [2, 5, 11, 47])
def test_general_symbol_at_inert_q_matches_inert_route(q):
    # beta = q has norm q^2, so the ladder runs mod q^2; alpha is far past it
    for a in (-3 * q * q - 1, 1, q, 7 * q * q + 2):
        for b in (-5 * q * q + 3, 0, q * q, 4 * q * q * q - 1):
            alpha = EisensteinInt(a, b)
            assert _symbol_primary(alpha, EisensteinInt(q, 0)) == _symbol_inert(alpha, q)


@pytest.mark.parametrize("p", [7, 13, 97, 9973])
def test_general_symbol_matches_oracle_past_the_norm(p):
    sp = standard_decompose(p)
    for a, b in ((3 * p + 2, -5 * p - 1), (-p * p - 4, p * p + 7), (p, 2 * p)):
        e = symbol_exp_by_euler((a, b), p)
        assert _symbol_primary(EisensteinInt(a, b), sp.pi).exp == e
        ec = symbol_exp_by_euler((a - b, -b), p)
        got = _symbol_primary(EisensteinInt(a, b), sp.pi.conj())
        assert got.exp == (None if ec is None else -ec % 3)


@pytest.mark.parametrize(
    "beta",
    [EisensteinInt(3, 1), EisensteinInt(-2, -3), EisensteinInt(7, 0)],
)
def test_general_symbol_rejects_beta_that_is_not_primary(beta):
    # an associate of a prime (3 + j, -(2 + 3j)) or a split rational prime
    with pytest.raises(ValueError):
        _symbol_primary(EisensteinInt(2, 1), beta)


def _flip_at_seven(orig):
    def fast(alpha, beta, tag):
        v = orig(alpha, beta, tag)
        return v.conj() if beta == EisensteinInt(2, 3) else v

    return fast


# failure texts pinned byte for byte
_RECIPROCITY_FLIP_TEXT = """\
suite=reciprocity bound=50 checks=91 failures=10
reciprocity fails for 2+0j and 2+3j
reciprocity fails for 2+3j and -4-3j
reciprocity fails for 2+3j and -1+3j
reciprocity fails for 2+3j and 2-3j
reciprocity fails for 2+3j and 5+3j
reciprocity fails for 2+3j and 5+0j
reciprocity fails for 2+3j and -1-6j
reciprocity fails for 2+3j and -7-3j
reciprocity fails for 2+3j and -7-6j
reciprocity fails for 2+3j and -1+6j"""

_RECIPROCITY_SLOW_TEXT = """\
suite=reciprocity bound=600 checks=5465 failures=5
fast and general symbol routes differ at -7-3j, -7-6j
fast and general symbol routes differ at -7+3j, -16-9j
fast and general symbol routes differ at 14+9j, 17+12j
fast and general symbol routes differ at 17+12j, -16+3j
fast and general symbol routes differ at 17+21j, 17-9j"""

_SYMBOLS_TEXT = """\
suite=symbols bound=7 checks=17 failures=15
fp symbol of 1-1j differs mod 7
fp symbol of 1-1j differs mod the conjugate factor of 7
fp symbol of 2+2j differs mod 7
fp symbol of 2+2j differs mod the conjugate factor of 7
fp symbol of 3+0j differs mod 7
fp symbol of 3+0j differs mod the conjugate factor of 7
fp symbol of 4+0j differs mod 7
fp symbol of 4+0j differs mod the conjugate factor of 7
fp symbol of 5+2j differs mod 7
fp symbol of 5+2j differs mod the conjugate factor of 7
fp symbol of 6-1j differs mod 7
fp symbol of 6-1j differs mod the conjugate factor of 7
fp symbol of 7-2j differs mod 7
fp symbol of 7-2j differs mod the conjugate factor of 7
chi_7(3) differs from the symbol"""


def test_failure_text_unchanged(monkeypatch):
    monkeypatch.setattr(verify, "_symbol_fast", _flip_at_seven(verify._symbol_fast))
    assert run_suite("reciprocity", 50).to_text() == _RECIPROCITY_FLIP_TEXT
    monkeypatch.undo()
    monkeypatch.setattr(verify, "_symbol_primary", lambda alpha, beta: ZERO)
    assert run_suite("reciprocity", 600).to_text() == _RECIPROCITY_SLOW_TEXT
    assert run_suite("symbols", 7).to_text() == _SYMBOLS_TEXT


def test_symbols_suite_checks_the_conjugate_factor(monkeypatch):
    # a symbol wrong only at conj(pi), the factor with b < 0: every nonzero
    # value times j differs, and at p = 7 no alpha of the suite is zero
    def wrong_at_conjugate(alpha, sp):
        v = cubic_symbol(alpha, sp)
        return v * ROOT(1) if sp.pi.b < 0 else v

    monkeypatch.setattr(verify, "cubic_symbol", wrong_at_conjugate)
    res = run_suite("symbols", 7)
    alphas = [EisensteinInt(t, (t * t + 1) % 7 - 3) for t in range(1, 8)]
    assert res.checks == 17
    assert res.failures == tuple(
        f"fp symbol of {alpha} differs mod the conjugate factor of 7" for alpha in alphas
    )


def test_symbols_suite_at_its_default_bound_in_budget():
    t0 = time.monotonic()
    res = run_suite("symbols")
    elapsed = time.monotonic() - t0
    assert res.ok and (res.bound, res.checks) == (10**4, 10387)
    assert elapsed < 3


def test_inert_symbol_cube_classes():
    # (alpha/q) = 1 exactly on nonzero cubes of F_{q^2} = Z[j]/(q)
    q = 5
    cubes = set()
    for a in range(q):
        for b in range(q):
            if a or b:
                c = EisensteinInt(a, b)
                c3 = c * c * c
                cubes.add((c3.a % q, c3.b % q))
    for a in range(q):
        for b in range(q):
            v = _symbol_inert(EisensteinInt(a, b), q)
            if a == 0 and b == 0:
                assert v.is_zero
            else:
                assert (v.exp == 0) == ((a % q, b % q) in cubes)


def test_indicator_pair_universe_census():
    pairs = indicator_pairs(31)
    # split primes 7, 13, 19, 31: 4 two-prime supports with 3, 6 without,
    # 6 three-prime supports, each span contributing 48 ordered bases
    assert len(pairs) == 4 * 48 + 6 * 48 + 6 * 480
    assert len({(f.entries, fp.entries) for f, fp in pairs}) == len(pairs)
    for f, fp in pairs:
        assert not f.is_zero and not fp.is_zero
        assert fp.entries != f.entries
