"""Constant pipeline at reduced truncation, plus the cancellation probe."""

import cmath
import json
import time
from dataclasses import astuple, fields
from math import fsum, sqrt

import numpy as np
import pytest

from heisnine.charspace import DeltaIndex, SupportFunction, enumerate_deltas
from heisnine.constants import (
    DELTA_MAX_CAP,
    P_MAX_CAP,
    CancellationSum,
    HConstants,
    TruncationParams,
    _characters,
    _classes,
    _delta_sums,
    _delta_weights,
    _gauss_sums,
    _grid_bins,
    _grid_ids,
    _grids,
    _l_values,
    _rows,
    char_cancellation_profile,
    constant_report,
    euler_product_P,
    h_constants,
)
from heisnine.cli import RatioRow, ratio_report
from heisnine.counting import WeightMode
from heisnine.eisenstein import (
    _chi_table,
    cubic_symbol,
    standard_decompose,
    standard_primes_up_to,
)
from heisnine.ksum import alpha_ell, psi_ell

import heisnine.cli
import heisnine.constants
import heisnine.eisenstein
from oracles import (
    char_cancellation_profile_literal,
    character_values,
    chi_exp_oracle,
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


def _with_f3(f, f3):
    """f + f3 e_3, for f with f(3) = 0."""
    return SupportFunction.of({**dict(f.entries), 3: f3})


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


def _pipeline_blocks():
    """Every g = f + f(3) e_3 of the pipeline, f in V*(Delta), for Delta <=
    500 and 1729 = 7 * 13 * 19, the only Delta <= 2000 with three support
    primes, as one block per number k of support primes: the Deltas, their
    g in the order of the rows (f(3), v_1, ..., v_k) of its _Characters
    (the same rows for every Delta of the block), and that _Characters."""
    blocks = {}
    for dI in list(enumerate_deltas(500)) + [DeltaIndex(1729, (7, 13, 19))]:
        gs = [_with_f3(f, f3) for f in enumerate_V(dI.delta, True) for f3 in (0, 1, 2)]
        gs = [g for g in gs if not g.is_zero]
        rows = [(g.f3,) + tuple(g.value(r) for r in dI.primes) for g in gs]
        block = blocks.setdefault(len(dI.primes), ([], [], rows))
        assert block[2] == rows, dI
        block[0].append(dI)
        block[1].append(gs)
    for dIs, gss, rows in blocks.values():
        yield dIs, gss, _characters(rows)


def test_bucketed_l_values_match_l_one():
    # the bucketed closed forms, one block per k, against the oracle closed
    # forms over the full conductor
    t0 = time.monotonic()
    g = _grids(1729)  # the grid side of _delta_sums; the L side ignores it
    primes = {}
    checked = 0
    for dIs, gss, ch in _pipeline_blocks():
        sums, _ = _delta_sums(g, ch, dIs)
        l_plain, l_twist = _l_values(ch, dIs, sums, primes)
        for gs, lps, lts in zip(gss, l_plain, l_twist):
            for f, lp, lt in zip(gs, lps, lts):
                want = l_one(character_values(f))
                assert abs(lp - want) <= 1e-12 * abs(want), str(f)
                want = l_one(twisted_character_values(f))
                assert abs(lt - want) <= 1e-12 * abs(want), str(f)
                checked += 1
    assert checked == 416
    assert time.monotonic() - t0 < 30


def test_product_gauss_sums_match_gauss_sum():
    # tau(chi_1 chi_2) = chi_1(q_2) chi_2(q_1) tau(chi_1) tau(chi_2) over the
    # support primes and 9 (or 3), one block per k, against the sum over
    # the whole modulus
    t0 = time.monotonic()
    primes = {}
    checked = 0
    for dIs, gss, ch in _pipeline_blocks():
        tau, tau_t = _gauss_sums(ch, dIs, primes)
        for gs, tps, tts in zip(gss, tau, tau_t):
            for f, tp, tt in zip(gs, tps, tts):
                for got, vals in (
                    (tp, character_values(f)),
                    (tt, twisted_character_values(f)),
                ):
                    assert abs(got - gauss_sum(vals)) <= 1e-12 * sqrt(len(vals)), str(f)
                checked += 1
    assert checked == 416
    # one O(r) sum per support prime, shared by every Delta
    blocks = _pipeline_blocks()
    assert set(primes) == {r for dIs, _, _ in blocks for dI in dIs for r in dI.primes}
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
    assert not any(a.flags.writeable for a in (g.primes, g.diff))
    deltas = list(enumerate_deltas(params.delta_max))
    for dI in deltas:
        k = len(dI.primes)
        ch = _characters(_rows(k))
        n_ids = 2 * 3 ** (k + 1)
        n_euler = n_ids // 2
        _, ids9 = _classes(ch, dI.primes, [_chi_table(r) for r in dI.primes])
        one = _grid_ids(g, ids9, slice(None, g.split))
        two = _grid_ids(g, ids9, slice(g.split, None))
        bins = _grid_bins(g, ids9, n_ids)
        want_one, want_two, want_dead, want_sums = grid_sums_by_prime(g, dI.primes)
        live = want_one < n_euler
        assert np.array_equal(one < n_euler, live), dI
        assert np.array_equal(one[live], want_one[live]), dI
        assert np.array_equal(two - n_euler, want_two), dI  # h = 1 on every p
        # the dead scan finds every support prime (none is off the grid), in
        # the grid's order: the primes whose dead terms the library adds
        assert want_dead == list(reversed(dI.primes)), dI
        assert len(bins) == n_ids
        # bit for bit: the correction's bins, then P's
        assert np.array_equal(bins[n_euler:], want_sums[0]), dI
        assert np.array_equal(bins[:n_euler], want_sums[1]), dI
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
                g = _with_f3(f, f3)
                if g.is_zero:
                    continue
                g2 = SupportFunction.of({p: 2 * v for p, v in g.entries})
                assert euler_product_P(g, SMALL) == euler_product_P(g2, SMALL), str(g)
                checked += 1
    assert checked >= 200


@pytest.mark.parametrize(
    "params", [TruncationParams(300, 300), TruncationParams(1729, 1729)], ids=str
)
def test_euler_product_is_the_float_h_constants_adds(params):
    # euler_product_P reads its row off the block of its Delta, so the
    # exactly rounded sums of its terms w(Delta) P(f) over every f
    # (V*(Delta), first value 1, times f(3) = 0, 1, 2; each counted twice)
    # give h_constants bit for bit
    t0 = time.monotonic()
    h0, h1, h1p, h2 = [], [], [], []
    p_seen = 0.0
    for dI in enumerate_deltas(params.delta_max):
        w = _delta_weights(dI.delta, dI.primes)
        for f in enumerate_V(dI.delta, True):
            if f.entries and f.entries[0][1] == 2:
                continue
            for f3 in (0, 1, 2) if dI.delta > 1 else (1,):
                g = _with_f3(f, f3)
                pf = euler_product_P(g, params)
                if f3:
                    h2.append(w * pf)
                    continue
                p_seen = max(p_seen, pf)
                h0.append(w * pf)
                (h1 if chi_exp_oracle(dict(g.entries), 3) == 0 else h1p).append(w * pf)
    got = HConstants(*(2.0 * fsum(t) for t in (h0, h1, h1p, h2)), p_seen)
    assert got == h_constants(params)
    assert time.monotonic() - t0 < 20


@pytest.mark.parametrize(
    "params", [TruncationParams(300, 300), TruncationParams(1729, 1729)], ids=str
)
def test_h_constants_do_not_depend_on_the_order_of_the_deltas(params, monkeypatch):
    want = h_constants(params)
    forward = heisnine.constants.enumerate_deltas
    monkeypatch.setattr(
        heisnine.constants,
        "enumerate_deltas",
        lambda limit: reversed(list(forward(limit))),
    )
    got = h_constants(params)
    assert [d.delta for d in heisnine.constants.enumerate_deltas(10)] == [7, 1]
    assert got == want


# the JSON constant report as recorded before the block pipeline;
# all three truncations lie below p = 55,108, where p**4 wraps in int64
REPORT_BYTES = {
    (300, 300): (
        '{"alpha3":0.25966564225050315,"h0":0.704457051103803,'
        '"h1":0.07301901091110002,"h1_prime":0.631438040192703,'
        '"h2":3.3109611082119996,"c_heis3":0.0030421944670646905,'
        '"c_heis_star":0.0016937341908589306,"tails":{"euler":0.04048894022554223,'
        '"delta":0.1945797924767023,"alpha":0.01},'
        '"params":{"delta_max":300,"p_max":300}}'
    ),
    (1729, 1729): (
        '{"alpha3":0.25944521302534584,"h0":0.8105383148739362,'
        '"h1":0.10361622917344042,"h1_prime":0.7069220857004959,'
        '"h2":3.5424736689181935,"c_heis3":0.0034320794949710895,'
        '"c_heis_star":0.001947132275626604,"tails":{"euler":0.012903200889073423,'
        '"delta":0.19329511028895288,"alpha":0.001735106998264893},'
        '"params":{"delta_max":1729,"p_max":1729}}'
    ),
    (100, 20000): (
        '{"alpha3":0.25941226501487197,"h0":0.629491885920356,'
        '"h1":0.043486707641246895,"h1_prime":0.5860051782791091,'
        '"h2":3.1533466933409824,"c_heis3":0.0027580603176256863,'
        '"c_heis_star":0.0015120177401396569,"tails":{"euler":0.0028559909928112894,'
        '"delta":0.45872518073396884,"alpha":0.00015},'
        '"params":{"delta_max":100,"p_max":20000}}'
    ),
}


@pytest.mark.parametrize("params", list(REPORT_BYTES), ids=str)
def test_constant_report_bytes_are_pinned(params, capsys):
    argv = ["constant", "--delta-max", str(params[0]), "--p-max", str(params[1])]
    assert heisnine.cli.run(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == REPORT_BYTES[params] + "\n"


@pytest.mark.parametrize("params", [(2000, 10**6), (300, 50000)], ids=str)
def test_report_alpha3_is_alpha_ell(params):
    # the report reads alpha_3 off the grid's primes, with no second sieve;
    # the float is the one alpha_ell sieves for
    got = constant_report(TruncationParams(*params)).alpha3
    assert got.hex() == alpha_ell(3, params[1]).hex()


def test_default_constant_report_within_budget():
    # the whole pipeline at the default truncation, the sieve and the grid
    # build included
    _grids.cache_clear()
    t0 = time.monotonic()
    rep = constant_report(TruncationParams())
    assert time.monotonic() - t0 < 1.0
    assert rep.c_heis3 > 0


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


def _constant_out(capsys, fmt):
    argv = ["constant", "--delta-max", str(SMALL.delta_max), "--p-max", str(SMALL.p_max)]
    assert heisnine.cli.run(argv + ["--format", fmt]) == 0
    return capsys.readouterr().out


def test_report_shape_and_key_order(capsys):
    s = _constant_out(capsys, "json")
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
    assert _constant_out(capsys, "text").splitlines()[0].startswith("alpha3 = ")


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
    params = TruncationParams(np.int64(300), np.int64(1000))
    assert params == TruncationParams(300, 1000)
    # stored as ints: enumerate_deltas below takes no numpy integer
    assert type(params.delta_max) is int and type(params.p_max) is int
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
    # malformed eps or pattern: refused at the boundary, not by an
    # IndexError or a numpy error inside the walk, nor read in part
    for eps in ((1,), (0, 0, 1), (1.0, 0), (True, 0), [1, 0], None):
        with pytest.raises(ValueError, match="eps must be"):
            char_cancellation_profile(F7, (1000,), eps=eps)
    for pattern in ({7.0: (1, 0)}, {True: (1, 0)}, {7: (1,)}, {7: (1.0, 0)}, [(7, (1, 0))]):
        with pytest.raises(ValueError):
            char_cancellation_profile(F7, (1000,), pattern=pattern)


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
        v = chi_exp_oracle(dict(f.entries), sp.p)
        m *= 0.0 if v is None else w[v]
        for r, (e1, e2) in pattern.items():
            k = 2 * e1 + e2
            vr = chi_exp_oracle({r: 1}, sp.p)
            vs = cubic_symbol(sp.pi, standard_decompose(r))
            if vr is None or vs.is_zero:
                m = 0.0
            else:
                m *= w[(k * (vr + vs.exp)) % 3]
        total += m
    assert got.terms == terms
    assert abs(got.value - total) < 1e-9


# the three benchmark probes, one with eps = (0, 1) and a prime of f
# outside the pattern, two with 3 in the support of f, and one with the
# pattern on all six split primes of f, which adds thirteen int8 exponent
# arrays into one
LITERAL_PROBES = [
    (((7, 1),), (1, 0), {7: (1, 0)}),
    (((19, 1),), (0, 0), {19: (0, 1)}),
    (((7, 1), (13, 2)), (1, 0), {7: (0, 1), 13: (1, 0)}),
    (((7, 1), (13, 1)), (0, 1), {13: (0, 1)}),
    (((3, 1), (7, 2)), (1, 0), {7: (1, 0)}),
    (((3, 2), (7, 2), (19, 1)), (0, 1), {7: (1, 0), 19: (1, 0)}),
    (
        ((3, 1), (7, 2), (13, 1), (19, 2), (31, 1), (37, 2), (43, 1)),
        (0, 1),
        {7: (0, 1), 13: (1, 0), 19: (0, 1), 31: (1, 0), 37: (0, 1), 43: (1, 0)},
    ),
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


def test_cancellation_reads_no_image_of_j(monkeypatch):
    # the probe reads (p, a, b) only, so the r column is never filled
    def refused(p, a, b):
        raise AssertionError("the probe computed the images of j")

    monkeypatch.setattr(heisnine.eisenstein, "_j_images", refused)
    heisnine.eisenstein._build_standard_table.cache_clear()
    f = SupportFunction(((7, 1), (13, 2)))
    prof = char_cancellation_profile(f, (10**5,), (1, 0), {7: (0, 1), 13: (1, 0)})
    assert prof[0].terms == 4784


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


def test_ratio_report_checks_the_mode_before_any_work(monkeypatch):
    def built(*args):
        raise AssertionError("a census or the constant was computed for bad input")

    monkeypatch.setattr(heisnine.cli, "constant_report", built)
    monkeypatch.setattr(heisnine.cli, "heis_total", built)
    full = WeightMode.OMEGA_FULL
    for xs in ([], [10**12]):
        with pytest.raises(TypeError, match="WeightMode"):
            ratio_report(xs, "not-a-mode")
        # c_estimate: not a real number, or a bool
        for c in ("0.003", True, False, 1j, [0.003]):
            with pytest.raises(TypeError, match="c_estimate must be a real number"):
                ratio_report(xs, full, c_estimate=c)
        # c_estimate: nonpositive or not finite
        for c in (0.0, -0.0, 0, -1.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="c_estimate must be positive and finite"):
                ratio_report(xs, full, c_estimate=c)


def test_ratio_report_rows():
    rows = ratio_report([6 * 10**12, 10**14], WeightMode.OMEGA_FULL, c_estimate=0.003)
    assert len(rows) == 2
    r = rows[0]
    assert r.count == 1.0
    assert r.ratio == pytest.approx(1.0 / (6e12) ** 0.25, rel=1e-12)
    assert r.ratio_over_c == pytest.approx(r.ratio / 0.003, rel=1e-12)
    # the report's CSV header is the row's field names
    assert [f.name for f in fields(RatioRow)] == [
        "x", "count", "x_quarter", "ratio", "c_estimate", "ratio_over_c"
    ]
    assert astuple(r)[:2] == (6 * 10**12, 1.0)
    assert rows[1].x == 10**14
