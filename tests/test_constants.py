"""Constant pipeline at reduced truncation, plus the cancellation probe."""

import cmath
import json
import time
from dataclasses import astuple
from math import sqrt

import numpy as np
import pytest

from heisnine.charspace import (
    DeltaIndex,
    SupportFunction,
    chi_eval,
    enumerate_deltas,
    linear_combination,
)
from heisnine.constants import (
    DELTA_MAX_CAP,
    P_MAX_CAP,
    CancellationSum,
    TruncationParams,
    _classes,
    _delta_weights,
    _gauss_sums,
    _grid_ids,
    _grid_sums,
    _grids,
    _l_values,
    char_cancellation_profile,
    constant_report,
    euler_product_P,
    h_constants,
)
from heisnine.cli import ratio_csv, ratio_report
from heisnine.counting import WeightMode
from heisnine.eisenstein import cubic_symbol, standard_primes_up_to, standard_decompose
from heisnine.ksum import psi_ell

import heisnine.constants
import heisnine.eisenstein
from oracles import (
    char_cancellation_profile_literal,
    character_values,
    enumerate_V,
    euler_product_P_literal,
    gauss_sum,
    grid_sums_by_prime,
    h_constants_literal,
    l_one,
    lambda_delta,
    twisted_character_values,
)

SMALL = TruncationParams(delta_max=100, p_max=20000)
F7 = SupportFunction(((7, 1),))


def test_lambda_single_prime():
    assert lambda_delta(7) == pytest.approx(1 / (1 + 2 / (sqrt(7) * 9)), rel=1e-14)
    assert lambda_delta(1) == 1.0
    assert lambda_delta(91) == pytest.approx(
        lambda_delta(7) * lambda_delta(13), rel=1e-14
    )


def test_euler_product_positive_and_stable():
    p1 = euler_product_P(F7, SMALL)
    p2 = euler_product_P(F7, TruncationParams(100, 40000))
    assert p1 > 0
    assert abs(p2 - p1) / p1 < 1e-3


LITERAL_CASES = [
    F7,
    SupportFunction(((7, 2), (13, 1))),
    SupportFunction(((3, 1), (19, 2))),
    SupportFunction(((3, 2), (7, 1), (13, 1), (19, 2))),
    # V(1729): three support primes, 81 Euler classes and 162 L classes
    SupportFunction(((7, 1), (13, 2), (19, 2))),
    SupportFunction(((7, 2), (13, 2), (19, 1))),
    SupportFunction(((3, 1), (7, 2), (13, 1), (19, 1))),
]


@pytest.mark.parametrize("f", LITERAL_CASES, ids=str)
def test_euler_product_matches_literal(f):
    got = euler_product_P(f, TruncationParams(100, 50000))
    assert got == pytest.approx(euler_product_P_literal(f, 50000), rel=1e-12)


@pytest.mark.xfail(strict=True, reason="int64 p**4 overflow")
@pytest.mark.parametrize("f", LITERAL_CASES, ids=str)
def test_euler_product_matches_literal_past_int64_fourth_powers(f):
    # p**4 wraps in int64 for primes p = 2 mod 3 above 55,108
    got = euler_product_P(f, TruncationParams(100, 10**5))
    assert got == pytest.approx(euler_product_P_literal(f, 10**5), rel=1e-12)


@pytest.mark.parametrize(
    "params",
    # (300, 300): p_max as small as delta_max allows; (1729, 1729): the
    # first Delta with three support primes
    [
        SMALL,
        TruncationParams(300, 50000),
        TruncationParams(300, 300),
        TruncationParams(1729, 1729),
    ],
    ids=str,
)
def test_h_constants_match_literal(params):
    t0 = time.monotonic()
    got = astuple(h_constants(params))
    want = astuple(h_constants_literal(params)[0])
    assert len(got) == 5
    assert got == pytest.approx(want, rel=1e-13)
    assert time.monotonic() - t0 < 30


def _pipeline_characters():
    """Every g = f + f(3) e_3 of the pipeline, f in V*(Delta), with its row
    (f(3), v_1, ..., v_k), for Delta <= 500 and 1729 = 7 * 13 * 19, the
    only Delta <= 2000 with three support primes."""
    e3 = SupportFunction(((3, 1),))
    for dI in list(enumerate_deltas(500)) + [DeltaIndex(1729, (7, 13, 19))]:
        gs = [
            linear_combination(1, f, f3, e3)
            for f in enumerate_V(dI.delta, True)
            for f3 in (0, 1, 2)
        ]
        gs = [g for g in gs if not g.is_zero]
        chars = np.array(
            [[g.f3] + [g.value(r) for r in dI.primes] for g in gs], dtype=np.int64
        )
        yield dI, gs, chars


def test_bucketed_l_values_match_l_one():
    # the bucketed closed forms against the oracle closed forms over the
    # full conductor
    t0 = time.monotonic()
    taus = {}
    checked = 0
    for dI, gs, chars in _pipeline_characters():
        digits, ids9, e = _classes(dI.primes, chars)
        l_plain, l_twist = _l_values(dI.primes, digits, ids9, e, chars, taus)
        for g, lp, lt in zip(gs, l_plain, l_twist):
            want = l_one(character_values(g))
            assert abs(lp - want) <= 1e-12 * abs(want), str(g)
            want = l_one(twisted_character_values(g))
            assert abs(lt - want) <= 1e-12 * abs(want), str(g)
            checked += 1
    assert checked == 416
    assert time.monotonic() - t0 < 30


def test_product_gauss_sums_match_gauss_sum():
    # tau(chi_1 chi_2) = chi_1(q_2) chi_2(q_1) tau(chi_1) tau(chi_2) over the
    # support primes and 9 (or 3), against the sum over the whole modulus
    t0 = time.monotonic()
    taus = {}
    checked = 0
    for dI, gs, chars in _pipeline_characters():
        tau, tau_t = _gauss_sums(dI.primes, chars, taus)
        for g, tp, tt in zip(gs, tau, tau_t):
            for got, vals in (
                (tp, character_values(g)),
                (tt, twisted_character_values(g)),
            ):
                assert abs(got - gauss_sum(vals)) <= 1e-12 * sqrt(len(vals)), str(g)
            checked += 1
    assert checked == 416
    # one O(r) sum per support prime, shared by every Delta
    assert set(taus) == {r for dI, _, _ in _pipeline_characters() for r in dI.primes}
    assert time.monotonic() - t0 < 30


@pytest.mark.parametrize(
    "params",
    # (300, 300): p_max as small as delta_max allows
    [TruncationParams(2000, 10**6), TruncationParams(300, 300)],
    ids=str,
)
def test_grid_classes_match_per_prime_route(params):
    t0 = time.monotonic()
    g = _grids(params.p_max)
    assert not any(a.flags.writeable for a in (g.one, g.two, g.one_diff, g.two_diff))
    deltas = list(enumerate_deltas(params.delta_max))
    for dI in deltas:
        k = len(dI.primes)
        n_ids = 2 * 3 ** (k + 1)
        n_euler = n_ids // 2
        _, ids9, _ = _classes(dI.primes, np.ones((1, k + 1), dtype=np.int64))
        one, two = _grid_ids(g, ids9)
        sums = _grid_sums(g, ids9, n_ids)
        want_one, want_two, want_dead, want_sums = grid_sums_by_prime(g, dI.primes)
        live = want_one < n_euler
        assert np.array_equal(one < n_euler, live), dI
        assert np.array_equal(one[live], want_one[live]), dI
        assert np.array_equal(two - n_euler, want_two), dI  # h = 1 on every p
        # the dead scan finds every support prime (none is off the grid), in
        # the grid's order: the primes the library hands to _dead_fix
        assert want_dead == list(reversed(dI.primes)), dI
        assert len(sums) == 2
        for got, want in zip(sums, want_sums):
            assert np.array_equal(got, want), dI  # bit for bit
    if params.p_max == 10**6:
        assert DeltaIndex(1729, (7, 13, 19)) in deltas
    assert time.monotonic() - t0 < 10


def test_delta_weights_match_psi_ell_and_lambda_delta():
    # h_constants reads psi_3 and lambda off the primes of each Delta
    t0 = time.monotonic()
    deltas = list(enumerate_deltas(20000))
    for dI in deltas:
        d = dI.delta
        pref = float(psi_ell(d, 3)) * 3 ** len(dI.primes) / d**1.5
        assert _delta_weights(d, dI.primes) == lambda_delta(d) * pref, d
    assert len(deltas) > 1000
    assert time.monotonic() - t0 < 5


def test_euler_product_conjugate_symmetry():
    # chi(2g) is the conjugate of chi(g), which h_constants relies on
    checked = 0
    for dI in enumerate_deltas(300):
        for f in enumerate_V(dI.delta, True):
            for f3 in (0, 1, 2):
                g = linear_combination(1, f, f3, SupportFunction(((3, 1),)))
                if g.is_zero:
                    continue
                g2 = linear_combination(2, g, 0, g)
                assert euler_product_P(g, SMALL) == pytest.approx(
                    euler_product_P(g2, SMALL), rel=1e-13
                ), str(g)
                checked += 1
    assert checked >= 200


def test_euler_product_rejects_zero_function():
    with pytest.raises(ValueError):
        euler_product_P(SupportFunction(()), SMALL)


def test_euler_product_rejects_support_past_p_max():
    # the domain rule of TruncationParams: Delta(f) <= p_max.  A support
    # prime above p_max is not on the grid, so its dead-prime correction
    # would divide out a factor the product never had
    f = SupportFunction(((211, 1),))
    with pytest.raises(ValueError, match="exceeds p_max"):
        euler_product_P(f, TruncationParams(100, 200))
    with pytest.raises(ValueError, match="exceeds p_max"):
        # Delta = 133: both primes on the grid, Delta itself past p_max
        euler_product_P(SupportFunction(((7, 1), (19, 1))), TruncationParams(100, 100))
    got = euler_product_P(f, TruncationParams(100, 211))
    assert got == pytest.approx(euler_product_P_literal(f, 211), rel=1e-12)


def test_h_partition_and_positivity():
    hc = h_constants(SMALL)
    assert hc.h0 > 0 and hc.h2 > 0
    assert hc.h1 + hc.h1_prime == pytest.approx(hc.h0, rel=1e-12)
    assert 0 < hc.h1 < hc.h0


def test_star_constant_two_routes_agree():
    # the package's H0 (the P-form) against the oracle's first form, both
    # truncations below p = 55,108, where p**4 wraps in int64
    for params in (SMALL, TruncationParams(300, 50000)):
        _, form1 = h_constants_literal(params)
        assert h_constants(params).h0 == pytest.approx(form1, rel=1e-12), params


def test_report_shape_and_key_order():
    rep = constant_report(SMALL)
    s = rep.to_json()
    assert s.startswith('{"alpha3":')
    obj = json.loads(s)
    assert list(obj) == [
        "alpha3",
        "h0",
        "h1",
        "h1_prime",
        "h2",
        "c_heis3",
        "c_heis_star",
        "tails",
        "params",
    ]
    assert list(obj["tails"]) == ["euler", "delta", "alpha"]
    assert obj["c_heis3"] > 0
    assert obj["c_heis_star"] > 0
    assert obj["params"]["delta_max"] == 100
    assert obj["h0"] == pytest.approx(obj["h1"] + obj["h1_prime"], rel=1e-12)
    assert rep.to_text().splitlines()[0].startswith("alpha3 = ")


def test_truncation_params_validated():
    with pytest.raises(ValueError):
        TruncationParams(delta_max=0)
    with pytest.raises(ValueError):
        TruncationParams(p_max=10)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"delta_max": 2000.5},
        {"delta_max": 2000.0},
        {"delta_max": True},
        {"delta_max": "2000"},
        {"p_max": 10**6 + 0.5},
        {"p_max": True},
        {"p_max": np.float64(10**6)},
        {"delta_max": DELTA_MAX_CAP + 1},
        {"p_max": P_MAX_CAP + 1},
        {"p_max": 10**11},
    ],
    ids=repr,
)
def test_truncation_params_rejected_at_the_boundary(kwargs):
    # no sieve is allocated: the constructor raises before any work
    t0 = time.monotonic()
    with pytest.raises(ValueError):
        TruncationParams(**kwargs)
    assert time.monotonic() - t0 < 0.1


def test_truncation_params_refuse_delta_max_above_p_max():
    # delta_max <= p_max puts every support prime on the grids; the range
    # checks run first, so their messages do not change
    for dm, pm in ((2000, 100), (20000, 1000)):
        with pytest.raises(ValueError, match=f"delta_max {dm} exceeds p_max {pm}"):
            TruncationParams(dm, pm)
    with pytest.raises(ValueError, match="delta_max must be in"):
        TruncationParams(DELTA_MAX_CAP + 1, 100)
    with pytest.raises(ValueError, match="p_max must be in"):
        TruncationParams(2000, 10)


@pytest.mark.parametrize(
    "params", [(100, 100), (300, 300), (1729, 1729), (100, 20000)], ids=str
)
def test_delta_tail_is_positive_on_the_truncation_domain(params):
    # every support prime is on the grid, so the Euler product of the
    # Delta-series exceeds its partial sum
    assert constant_report(TruncationParams(*params)).tails["delta"] > 0


def test_truncation_params_accept_the_caps_and_numpy_ints():
    t0 = time.monotonic()
    TruncationParams(DELTA_MAX_CAP, P_MAX_CAP)
    TruncationParams(1, 100)
    assert TruncationParams(np.int64(300), np.int64(1000)).p_max == 1000
    assert time.monotonic() - t0 < 0.1


def test_cancellation_pattern_validation():
    with pytest.raises(ValueError):
        char_cancellation_profile(F7, (1000,), pattern={7: (0, 0)})
    with pytest.raises(ValueError):
        char_cancellation_profile(F7, (1000,), pattern={13: (1, 0)})
    with pytest.raises(ValueError):
        char_cancellation_profile(F7, (1000,), pattern={7: (1, 1)})
    with pytest.raises(ValueError):
        char_cancellation_profile(F7, (1000,), eps=(1, 1))
    with pytest.raises(ValueError):
        char_cancellation_profile(F7, (1000, 100))


def test_cancellation_matches_complex_product():
    # exact mu_3-exponent bookkeeping vs a float product over the same primes
    f = SupportFunction(((7, 1), (13, 2)))
    eps = (1, 0)
    pattern = {7: (0, 1), 13: (1, 0)}
    x = 2000
    (got,) = char_cancellation_profile(f, (x,), eps, pattern)
    total = 0.0 + 0.0j
    terms = 0
    w = [cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
    for sp in standard_primes_up_to(x):
        terms += 1
        m = 1.0 + 0.0j
        v = chi_eval(f, sp.p)
        m *= 0.0 if v.is_zero else w[v.exp]
        for r, (e1, e2) in pattern.items():
            k = 2 * e1 + e2
            vr = chi_eval(SupportFunction(((r, 1),)), sp.p)
            vs = cubic_symbol(sp.pi, standard_decompose(r))
            if vr.is_zero or vs.is_zero:
                m = 0.0
            else:
                m *= w[(k * (vr.exp + vs.exp)) % 3]
        total += m
    assert got.terms == terms
    assert abs(got.value - total) < 1e-9


# the three benchmark probes, one with eps = (0, 1) and a prime of f
# outside the pattern, and two with 3 in the support of f
LITERAL_PROBES = [
    (((7, 1),), (1, 0), {7: (1, 0)}),
    (((19, 1),), (0, 0), {19: (0, 1)}),
    (((7, 1), (13, 2)), (1, 0), {7: (0, 1), 13: (1, 0)}),
    (((7, 1), (13, 1)), (0, 1), {13: (0, 1)}),
    (((3, 1), (7, 2)), (1, 0), {7: (1, 0)}),
    (((3, 2), (7, 2), (19, 1)), (0, 1), {7: (1, 0), 19: (1, 0)}),
]


@pytest.mark.parametrize("entries,eps,pattern", LITERAL_PROBES)
def test_cancellation_matches_literal_walk(entries, eps, pattern):
    f = SupportFunction(entries)
    checkpoints = (7, 1000, 10**4, 10**5)
    got = char_cancellation_profile(f, checkpoints, eps, pattern)
    want = char_cancellation_profile_literal(f, checkpoints, eps, pattern)
    assert got == want


def test_cancellation_decomposes_only_pattern_primes(monkeypatch):
    calls = []
    scalar = heisnine.eisenstein.standard_decompose

    def counted(p):
        calls.append(p)
        return scalar(p)

    for mod in (heisnine.eisenstein, heisnine.constants):
        monkeypatch.setattr(mod, "standard_decompose", counted)
    f = SupportFunction(((7, 1), (13, 2)))
    pattern = {7: (0, 1), 13: (1, 0)}
    prof = char_cancellation_profile(f, (10**5,), (1, 0), pattern)
    assert prof[0].terms == 4784
    # once for rho_r, and at most once more for a chi_p_table not yet built
    assert set(calls) <= set(pattern) and len(calls) <= 2 * len(pattern)


@pytest.mark.parametrize(
    "checkpoints", [(), (100.5,), (100, 1000.0), (100, 2**30 + 1)]
)
def test_cancellation_rejects_bad_checkpoints(checkpoints):
    with pytest.raises(ValueError):
        char_cancellation_profile(F7, checkpoints)


def test_cancellation_profile_single_pass_consistency():
    prof = char_cancellation_profile(F7, (500, 2000, 8000))
    one = [char_cancellation_profile(F7, (x,))[0] for x in (500, 2000, 8000)]
    assert [c.value for c in prof] == [c.value for c in one]
    assert [c.terms for c in prof] == [c.terms for c in one]
    assert prof[0].terms < prof[1].terms < prof[2].terms


def test_cancellation_sum_normalization():
    c = CancellationSum(3 + 4j, 10)
    assert c.normalized == pytest.approx(0.5)
    assert CancellationSum(0j, 0).normalized == 0.0


def test_ratio_report_rows():
    rows = ratio_report([6 * 10**12, 10**14], WeightMode.OMEGA_FULL, c_estimate=0.003)
    assert len(rows) == 2
    r = rows[0]
    assert r.count == 1.0
    assert r.ratio == pytest.approx(1.0 / (6e12) ** 0.25, rel=1e-12)
    assert r.ratio_over_c == pytest.approx(r.ratio / 0.003, rel=1e-12)
    text = ratio_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "x,count,x_quarter,ratio,c_estimate,ratio_over_c"
    assert len(lines) == 3
    assert lines[1].startswith("6000000000000,1.0,")
