import hashlib
import json
import random
import sys
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from heisnine import charspace, cli, counting, eisenstein, ksum
from heisnine._primes import primes_in_class
from heisnine.charspace import SupportFunction, enumerate_deltas
from heisnine.constants import (
    TruncationParams,
    char_cancellation_profile,
    constant_report,
    euler_product_P,
    h_constants,
)
from heisnine.counting import (
    CountReport,
    SubsumClass,
    WeightMode,
    X_MAX,
    enumerate_terms,
    heis_subsum,
    heis_total,
    ifourth_root,
    indicator,
    isixth_root,
    log_grid,
)
from heisnine.eisenstein import chi_nine, chi_p, chi_p_table
from heisnine.verify import indicator_pairs, run_suite

F = SupportFunction.of
STAR = WeightMode.OMEGA_STAR
FULL = WeightMode.OMEGA_FULL


def test_indicator_examples():
    assert indicator(F({7: 1}), F({13: 1})) == 0
    assert indicator(F({3: 1}), F({19: 1})) == 1
    assert indicator(F({3: 1}), F({19: 1, 3: 1})) == 1


def test_indicator_rejects_dependent():
    with pytest.raises(ValueError):
        indicator(F({7: 1}), F({7: 2}))
    with pytest.raises(ValueError):
        indicator(F({}), F({7: 1}))
    with pytest.raises(ValueError):
        indicator(F({7: 1}), F({}))
    with pytest.raises(TypeError):
        indicator({7: 1}, F({13: 1}))
    with pytest.raises(TypeError):
        indicator(F({7: 1}), {13: 1})


@st.composite
def independent_pairs(draw):
    primes = [3, 7, 13, 19, 31, 37, 43, 61]
    pool = draw(st.sets(st.sampled_from(primes), min_size=1, max_size=3))
    f = F({p: draw(st.integers(1, 2)) for p in pool})
    pool2 = draw(st.sets(st.sampled_from(primes), min_size=1, max_size=3))
    fp = F({p: draw(st.integers(1, 2)) for p in pool2})
    if not oracles.is_linearly_independent(f, fp):
        fp = F(dict(fp.entries) | {97: 1})
    return f, fp


@given(independent_pairs())
def test_indicator_matches_splitting_oracle(pair):
    f, fp = pair
    v = indicator(f, fp)
    assert v == oracles.splitting_oracle(dict(f.entries), dict(fp.entries))
    assert v == oracles.indicator_literal(f, fp)


@given(independent_pairs())
def test_indicator_symmetric_and_span_invariant(pair):
    f, fp = pair
    v = indicator(f, fp)
    assert v in (0, 1)
    assert indicator(fp, f) == v


def test_exp_by_euler_matches_table_route():
    ns = [3] + primes_in_class(1000, 3, 1).tolist()
    for p in primes_in_class(3600, 3, 1).tolist() + [20011, 99991]:
        tab = chi_p_table(p)
        for n in ns:
            if n != p:
                assert counting._exp(p, n) == tab[n % p], (p, n)
        # the scalar and the array route, n = 0 and n = p at the zero value
        grid = ns + [0]
        want = [-1 if tab[n % p] == 0xFF else tab[n % p] for n in grid]
        assert eisenstein._chi_exps(p, np.array(grid)).tolist() == want, p
        assert [chi_p(p, n).exp for n in grid] == [
            None if e < 0 else e for e in want
        ], p
    grid = list(range(-9, 18)) + ns
    want = [-1 if chi_nine(n).is_zero else chi_nine(n).exp for n in grid]
    assert eisenstein._chi_exps(3, np.array(grid)).tolist() == want
    assert [counting._exp(3, n) for n in grid if n % 3] == [
        e for e in want if e >= 0
    ]


def test_exp_rejects_a_multiple_of_p():
    with pytest.raises(ValueError):
        counting._exp(7, 14)


def _row(f, fp):
    """The census's row at 3 of the pair (f, f'), its exponents at 3 read off
    the exponent table of the union support with 3 in front."""
    sup = [3] + sorted({p for p, _ in f.entries + fp.entries} - {3})
    table = counting._exp_table(sup)
    e, ep = (counting._exps(table, [g.value(p) for p in sup])[0] for g in (f, fp))
    return counting._row(f.f3, fp.f3, e, ep)


def test_mu_examples():
    for f, fp, mu in (
        (F({7: 1}), F({13: 1}), 0),
        (F({19: 1}), F({19: 1, 3: 1}), 12),
        (F({3: 1}), F({19: 1}), 16),
    ):
        assert counting._MU_BY_ROW[_row(f, fp)] == mu
        assert oracles._mu_exp_literal(dict(f.entries), dict(fp.entries)) == mu


def test_mu_d_examples():
    # 3 | d promotes the exponent of 3 in row 1 only, from 0 to 12
    big_d = oracles.big_d_literal
    assert big_d(F({7: 1}), F({13: 1}), True) == 7**6 * 13**4 * 3**12
    assert big_d(F({7: 1}), F({13: 1}), False) == 7**6 * 13**4
    assert big_d(F({3: 1}), F({19: 1}), True) == 19**4 * 3**16


@given(independent_pairs())
def test_mu_matches_literal_table(pair):
    f, fp = pair
    row = _row(f, fp)
    assert row == oracles.three_row_literal(f, fp)
    mu = oracles._mu_exp_literal(dict(f.entries), dict(fp.entries))
    assert counting._MU_BY_ROW[row] == mu


def test_big_d_examples():
    big_d = oracles.big_d_literal
    assert big_d(F({3: 1}), F({19: 1}), False) == 19**4 * 3**16
    assert big_d(F({19: 1}), F({19: 1, 3: 1}), False) == 19**6 * 3**12
    assert big_d(F({7: 1}), F({13: 1}), False) == 7**6 * 13**4


def test_isixth_root_examples():
    assert isixth_root(0) == 0
    assert isixth_root(63) == 1
    assert isixth_root(64) == 2
    assert isixth_root(10**18) == 1000


def _assert_roots(n):
    r = isixth_root(n)
    assert r**6 <= n < (r + 1) ** 6
    s = ifourth_root(n)
    assert s**4 <= n < (s + 1) ** 4


# past 2^64 the float seed gives way to the bit-length one; next to a
# perfect power the float seed may land one off the root
_next_to_powers = st.builds(
    lambda r, k, off: r**k + off,
    st.integers(min_value=1, max_value=2**17),
    st.sampled_from([4, 6]),
    st.integers(-1, 1),
)


@given(
    st.integers(min_value=0, max_value=10**24)
    | st.integers(min_value=0, max_value=10**400)
    | _next_to_powers
)
def test_integer_roots(n):
    _assert_roots(n)


@pytest.mark.parametrize("k", [4, 6])
def test_integer_roots_around_the_float_seed_boundary(k):
    # the roots of 2^64 are 2^16 and 2^(32/3): the k-th powers on either
    # side of the switch from the float seed to the bit-length seed
    r0 = isixth_root(2**64) if k == 6 else ifourth_root(2**64)
    for r in range(r0 - 3, r0 + 4):
        for n in (r**k - 1, r**k, r**k + 1):
            _assert_roots(n)
    for n in (2**64 - 1, 2**64, 2**64 + 1):
        _assert_roots(n)


def test_s_sum_examples():
    s_sum = oracles.s_sum_literal
    f, fp = F({19: 1}), F({19: 1, 3: 1})
    assert s_sum(3 * 10**13, f, fp, STAR) == 2
    assert s_sum(3 * 10**13, f, fp, FULL) == 3
    g, gp = F({3: 1}), F({19: 1})
    assert s_sum(6 * 10**12, g, gp, STAR) == 2
    assert s_sum(6 * 10**12, g, gp, FULL) == 3
    # below both D values the sum is empty
    assert s_sum(10**9, g, gp, FULL) == 0


@pytest.mark.parametrize(
    "x, f, fp",
    [
        (6 * 10**12, F({3: 1}), F({19: 1})),
        (3 * 10**13, F({19: 1}), F({19: 1, 3: 1})),
        (10**16, F({3: 1}), F({3: 1, 19: 1})),
        (10**16, F({7: 2}), F({7: 1, 181: 1})),
        (10**16, F({73: 2}), F({3: 2, 73: 2})),
        (10**16, F({7: 1}), F({13: 1})),  # indicator 0, S = 3
        (10**16, F({7: 1}), F({3: 1, 13: 1})),  # indicator 0, S = 3
    ],
)
def test_pair_terms_match_literal_weight(x, f, fp):
    union = set(f.supp3) | set(fp.supp3)
    for mode in (STAR, FULL):
        got = sum(t.weight for t in enumerate_terms(x, mode) if (t.f, t.fp) == (f, fp))
        want = oracles.indicator_literal(f, fp) * 3 ** len(union)
        assert got == want * oracles.s_sum_literal(x, f, fp, mode)


def test_classify_examples():
    for f, fp, three_divides_d, cls in (
        (F({7: 1}), F({13: 1}), False, SubsumClass.C1),
        (F({3: 1}), F({19: 1}), False, SubsumClass.C5),
        (F({7: 1}), F({13: 1}), True, SubsumClass.C8),
    ):
        shift = 7 if three_divides_d else 0
        assert counting._CLASSES[_row(f, fp) - 1 + shift] is cls
        assert oracles.three_row_literal(f, fp) + shift == cls.value


# ---------------------------------------------------------------------------
# census totals


def test_census_zero_below_minimal_invariant():
    assert heis_total(10**6, FULL).raw_total == 0
    assert heis_total(10**9, FULL).raw_total == 0
    assert heis_total(10**9, STAR).raw_total == 0
    # each X cold, so each builds its own skeleton: from 3^8, where the
    # first one is built, past 7^4 3^8, below which every Delta(f) is skipped
    for x in (3**8, 3**8 + 1, 7**4, 10**6, 7**4 * 3**8 - 1, 7**4 * 3**8, 10**9):
        _clear_census_caches()
        assert heis_total(x, FULL).raw_total == 0
        assert counting._skeleton(x) == []


def test_census_divergence_at_6e12():
    x = 6 * 10**12
    full = heis_total(x, FULL)
    assert full.raw_total == 108
    assert full.divisible_by_108
    assert int(full.count) == 1
    star = heis_total(x, STAR)
    assert star.raw_total == 72
    assert not star.divisible_by_108


def test_census_matches_scan_oracle_midrange():
    for x, mode in ((6 * 10**12, FULL), (6 * 10**12, STAR), (3 * 10**13, FULL)):
        raw, subs = oracles.census_scan_raw_total(x, mode.w3)
        rep = heis_total(x, mode)
        assert rep.raw_total == raw
        assert {c.value: v for c, v in rep.subsums.items()} == subs


def test_terms_stream_at_6e12():
    x = 6 * 10**12
    recs = list(enumerate_terms(x, FULL))
    pairs = {(t.f, t.fp) for t in recs}
    assert len(pairs) == 12
    # every pair lives in the span of 1_3 and the function at 19
    for f, fp in pairs:
        assert {p for p, _ in f.entries + fp.entries} <= {3, 19}
    assert sum(t.weight for t in recs) == heis_total(x, FULL).raw_total
    keys = [(t.f.entries, t.fp.entries, t.d_class) for t in recs]
    assert keys == sorted(keys)


def test_terms_stream_empty_and_limited():
    assert list(enumerate_terms(10**9, FULL)) == []
    x = 6 * 10**12
    assert len(list(enumerate_terms(x, FULL, limit=5))) == 5
    n = len(list(enumerate_terms(x, FULL)))
    assert len(list(enumerate_terms(x, FULL, limit=n + 1))) == n
    assert list(enumerate_terms(x, FULL, limit=0)) == []
    with pytest.raises(ValueError):
        enumerate_terms(x, FULL, limit=-1)


@pytest.mark.parametrize("limit", [sys.maxsize, sys.maxsize + 1, 2**70])
def test_terms_limit_past_maxsize_keeps_every_term(limit):
    # islice takes no stop above sys.maxsize; such a limit cuts nothing
    x = 10**13
    assert list(enumerate_terms(x, FULL, limit=limit)) == list(enumerate_terms(x, FULL))


def test_terms_stream_total_matches_raw():
    for x in (10**13, 10**14):
        for mode in (STAR, FULL):
            total = sum(t.weight for t in enumerate_terms(x, mode))
            assert total == heis_total(x, mode).raw_total


def test_subsums_partition_total():
    for x in (6 * 10**12, 10**14):
        for mode in (STAR, FULL):
            rep = heis_total(x, mode)
            assert sum(rep.subsums.values()) == rep.raw_total
            for cls in SubsumClass:
                assert heis_subsum(x, cls, mode) == rep.subsums[cls]


def test_subsum_identities_midrange():
    for x in (6 * 10**12, 10**14, 10**15):
        star = heis_total(x, STAR)
        for k in range(2, 8):
            assert star.subsums[SubsumClass(k + 7)] == star.subsums[SubsumClass(k)]
        assert star.subsums[SubsumClass.C8] == heis_subsum(
            x // 3**12, SubsumClass.C1, STAR
        )
        full = heis_total(x, FULL)
        assert full.subsums[SubsumClass.C8] == 2 * heis_subsum(
            x // 3**12, SubsumClass.C1, FULL
        )


@pytest.mark.parametrize(
    "x, side",
    [(10**15, -324), (10**17 + 12345, -1944), (10**18, -4212)],
    ids=["1e15", "1e17+12345", "1e18"],
)
def test_modes_differ_by_the_first_class(x, side):
    # C(k+7) = C(k) for k = 2..7 and C8(X) = C1(X / 3^12) under omega-star,
    # and each 3 | d class weighs twice under omega-full, so
    # 2 raw_full(X) - 3 raw_star(X) = C1(X / 3^12) - C1(X) under omega-star
    t0 = time.monotonic()
    lhs = 2 * heis_total(x, FULL).raw_total - 3 * heis_total(x, STAR).raw_total
    rhs = heis_subsum(x // 3**12, SubsumClass.C1, STAR) - heis_subsum(x, SubsumClass.C1, STAR)
    assert lhs == rhs == side
    assert time.monotonic() - t0 < 1


def test_census_monotone_on_grid():
    xs = [10**9, 10**10, 10**11, 10**12, 10**13, 10**14, 10**15, 10**16]
    raws = [heis_total(x, FULL).raw_total for x in xs]
    assert raws == sorted(raws)
    counts = [heis_total(x, FULL).count for x in xs]
    assert counts == sorted(counts)


def test_census_jump_location():
    # first nonzero contribution requires X >= min D = 7^4 3^12
    d_min = 7**4 * 3**12
    assert heis_total(d_min - 1, FULL).raw_total == 0


def test_census_rejects_out_of_range():
    with pytest.raises(ValueError):
        heis_total(X_MAX + 1, FULL)
    with pytest.raises(ValueError):
        heis_total(-1, FULL)


def test_census_rejects_bool():
    for x in (True, False):
        with pytest.raises(TypeError):
            heis_total(x, FULL)
        with pytest.raises(TypeError):
            enumerate_terms(x, FULL)


@pytest.mark.parametrize("mode", ["omega-full", None, 2])
def test_census_rejects_mode_that_is_not_a_weight_mode(mode):
    with pytest.raises(TypeError):
        heis_total(10**13, mode)
    with pytest.raises(TypeError):
        heis_subsum(10**13, SubsumClass.C1, mode)
    with pytest.raises(TypeError):
        enumerate_terms(10**13, mode)


@pytest.mark.parametrize("cls", [3, "C3", None, SubsumClass.C3.value])
def test_subsum_rejects_class_that_is_not_a_subsum_class(cls, monkeypatch):
    # refused before any census work: the census itself would raise
    def no_census(x):
        raise AssertionError("census ran")

    monkeypatch.setattr(counting, "_census", no_census)
    with pytest.raises(TypeError, match="SubsumClass"):
        heis_subsum(10**12, cls, FULL)


@pytest.mark.parametrize("limit", [True, False, 2.0, "3"])
def test_terms_rejects_limit_that_is_not_an_int(limit):
    with pytest.raises(TypeError):
        enumerate_terms(10**14, FULL, limit=limit)


def _literal_report(x, mode):
    subs, _ = oracles.census_literal(x, mode.w3)
    raw = sum(subs.values())
    return CountReport(x, mode, raw, Fraction(raw, 108), raw % 108 == 0, subs)


def test_census_matches_literal_route():
    for x in log_grid(10**9, 10**18, 12) + [6 * 10**12]:
        for mode in (STAR, FULL):
            assert heis_total(x, mode) == _literal_report(x, mode)


@pytest.mark.parametrize("x", [6 * 10**12, 10**16, 10**18])
def test_terms_stream_matches_literal_route(x):
    for mode in (STAR, FULL):
        _, recs = oracles.census_literal(x, mode.w3, collect=True)
        assert list(enumerate_terms(x, mode)) == recs


def _clear_census_caches():
    counting._census.cache_clear()
    counting._skeleton_cache.clear()
    eisenstein._j_image.cache_clear()
    charspace._deltas_cached.cache_clear()
    ksum._one_counts.cache_clear()


def test_census_k_values_reach_the_prime_counts(monkeypatch):
    # the census's K-sums at 10^18 all sit at x = 7, where the leaf-counting
    # DFS reads the primes it lists in the progression 1 (mod 3)
    _clear_census_caches()
    calls = []
    orig = ksum._one_counts
    monkeypatch.setattr(ksum, "_one_counts", lambda x, ell: calls.append((x, ell)) or orig(x, ell))
    heis_total(10**18)
    assert (7, 3) in calls


def test_second_mode_at_one_x_matches_cold_call():
    for x in (6 * 10**12, 10**16):
        for first, second in ((FULL, STAR), (STAR, FULL)):
            _clear_census_caches()
            cold = heis_total(x, second)
            _clear_census_caches()
            heis_total(x, first)
            assert heis_total(x, second) == cold


@pytest.mark.parametrize("mode", [STAR, FULL])
def test_skeleton_reports_do_not_depend_on_call_order(mode):
    xs = log_grid(10**9, 10**18, 12)

    def reports(order):
        _clear_census_caches()
        return {x: heis_total(x, mode) for x in order}

    ascending = reports(xs)
    assert reports(xs[::-1]) == ascending
    assert reports(random.Random(11).sample(xs, len(xs))) == ascending


def test_terms_stream_unchanged_by_a_call_at_x_max():
    x = 6 * 10**12
    _clear_census_caches()
    before = list(enumerate_terms(x, FULL))
    assert list(counting._skeleton_cache) == [x]
    # the expansion into pairs is held with its skeleton, and made only for
    # the term stream
    assert counting._skeleton_cache[x][1] is not None
    heis_total(X_MAX, FULL)
    assert list(counting._skeleton_cache) == [X_MAX]
    assert counting._skeleton_cache[X_MAX][1] is None
    assert list(enumerate_terms(x, FULL)) == before
    assert len(counting._skeleton_cache[X_MAX][1]) == 744


def test_one_skeleton_after_many_x():
    _clear_census_caches()
    for x in log_grid(10**9, 10**18, 300):
        heis_total(x, STAR)
    assert len(counting._skeleton_cache) == 1


def test_lone_call_builds_at_its_own_x_and_a_larger_x_at_x_max():
    _clear_census_caches()
    heis_total(10**12, FULL)
    assert list(counting._skeleton_cache) == [10**12]
    heis_total(10**13, FULL)
    assert list(counting._skeleton_cache) == [X_MAX]


def test_low_grid_never_builds_at_x_max():
    # B is 10^9, then 10^9 isqrt(10^9), about 10^13.5, covers the grid
    _clear_census_caches()
    for x in log_grid(10**9, 10**13, 9):
        heis_total(x, FULL)
        assert X_MAX not in counting._skeleton_cache
    assert list(counting._skeleton_cache) == [31622 * 10**9]


def _expanded(skel):
    # the held orbits as the per-pair skeleton they stand for: each of the
    # four pairs with its orbit's row, D1, D3, u and dd, in stream order
    return [(df, dfp, g, h) + skel[i][4:] for df, dfp, g, h, i in counting._expand(skel)]


def test_cold_build_at_x_max_within_budget():
    _clear_census_caches()
    t0 = time.monotonic()
    skel = counting._build_skeleton(X_MAX)
    assert time.monotonic() - t0 < 0.5
    assert len(skel) == 186
    assert len(_expanded(skel)) == 744


def test_skeleton_pinned_at_1e21():
    # past X_MAX, through the build the census uses; count and digest
    # recorded with the route that read every exponent from chi_p tables
    _clear_census_caches()
    t0 = time.monotonic()
    skel = _expanded(counting._build_skeleton(10**21))
    assert time.monotonic() - t0 < 3
    assert len(skel) == 4332
    digest = hashlib.sha256(repr(skel).encode()).hexdigest()
    assert digest == "87d2ebb0396c51239dd43d3e288187e3d5444533d47be3ee91402af0731f1300"


@pytest.mark.parametrize(
    "bound, size, digest, budget",
    [
        (10**18, 744, "db3f26060d7cd782037c056c96b2ced13677aff9b2441714e32fc5287525efcf", 0.5),
        (10**24, 23424, "31147e10c614af4b8b2ce2f3b0d3e75c7f553de653048c8607a2c84e50dc59a0", 2),
    ],
    ids=["1e18", "1e24"],
)
def test_skeleton_digest_pinned(bound, size, digest, budget):
    # recorded with the route that listed every f' of every shared subset
    # and new part before the kernel test, one entry per pair
    _clear_census_caches()
    t0 = time.monotonic()
    skel = counting._build_skeleton(bound)
    assert time.monotonic() - t0 < budget
    assert len(skel) * 4 == size
    skel = _expanded(skel)
    assert len(skel) == size
    assert hashlib.sha256(repr(skel).encode()).hexdigest() == digest


@pytest.mark.parametrize("bound", [10**18, 10**24], ids=["1e18", "1e24"])
def test_skeleton_matches_the_product_route(bound):
    # the join of the two halves of f' against listing every f' and testing
    # it, with no Delta(f) skipped by _no_entry
    t0 = time.monotonic()
    assert _expanded(counting._build_skeleton(bound)) == oracles.skeleton_by_product(bound)
    assert time.monotonic() - t0 < 3


@pytest.mark.parametrize("bound", [10**12, 10**18, 10**24], ids=["1e12", "1e18", "1e24"])
def test_skeleton_lists_every_new_part_it_reads_and_one_entry_per_pair(bound):
    # each Delta(f) reads new parts up to its top, ifourth_root(bound //
    # (Delta(f)^6 3^mu)) with mu = 0, or mu = 12 at Delta(f) = 1; the build
    # lists them up to ifourth_root(bound // 7^6) only
    t0 = time.monotonic()
    tops = [
        ifourth_root(bound // (dI.delta**6 * 3 ** (0 if dI.primes else 12)))
        for dI in enumerate_deltas(isixth_root(bound))
    ]
    assert max(tops) <= ifourth_root(bound // 7**6)
    # so a plain sort of the entries (one per orbit) or of their four pairs
    # orders them by their first four fields
    skel = counting._build_skeleton(bound)
    for entries in (skel, _expanded(skel)):
        assert len({t[:4] for t in entries}) == len(entries)
        assert entries == sorted(entries, key=lambda t: t[:4])
    # one f' entry tuple per distinct value across the build
    assert len({id(t[3]) for t in skel}) == len({t[3] for t in skel})
    assert time.monotonic() - t0 < 2


@pytest.mark.parametrize("limit", [None, 100])
def test_term_records_equal_their_public_construction(limit):
    # the census builds its records and functions unchecked; each must be
    # the object the validating constructors give
    t0 = time.monotonic()
    recs = list(enumerate_terms(10**18, FULL, limit))
    assert len(recs) == (1140 if limit is None else limit)
    for r in recs:
        for g in (r.f, r.fp):
            pub = SupportFunction(g.entries)
            assert pub == g and hash(pub) == hash(g) and repr(pub) == repr(g)
        pub = counting.TermRecord(
            SupportFunction(r.f.entries),
            SupportFunction(r.fp.entries),
            r.d_class,
            r.big_d,
            r.cls,
            r.weight,
        )
        assert pub == r and hash(pub) == hash(r) and repr(pub) == repr(r)
        assert type(r) is counting.TermRecord and vars(pub) == vars(r)
    assert time.monotonic() - t0 < 1


def test_orbit_weighing_matches_the_per_pair_sum():
    # the census weighs each orbit {f, 2f} x {f', 2f'} once and counts it
    # four times; the per-pair sum over the expanded stream, K looked up for
    # every pair, and the literal route, which builds every pair on its own,
    # give the same subsums, and the literal route gives the four pairs of
    # an orbit one D, class and weight
    t0 = time.monotonic()
    for x in log_grid(10**12, X_MAX, 7):
        base = counting._census(x)
        skel = counting._skeleton(x)
        subs = [0] * 15
        members = {}
        for df, dfp, g, h, i in counting._expand(skel):
            members.setdefault(i, []).append((g, h))
            _, _, _, _, row, d1, d3, u, dd = skel[i]
            if d1 > x:
                continue
            w = u * counting._k_value(x // d1, dd)
            subs[row] += w
            if row == 1:
                if d3 > x:
                    continue
                w = u * counting._k_value(x // d3, dd)
            subs[row + 7] += w
        assert tuple(subs[1:]) == base
        assert sorted(members) == list(range(len(skel)))
        for i, pairs in members.items():
            f, fp = skel[i][2:4]
            twice = [tuple((p, 3 - v) for p, v in e) for e in (f, fp)]
            assert len(set(pairs)) == 4
            assert set(pairs) == {(g, h) for g in (f, twice[0]) for h in (fp, twice[1])}
        for mode in (STAR, FULL):
            lit, recs = oracles.census_literal(x, mode.w3, collect=mode is FULL)
            assert heis_total(x, mode).subsums == lit
            orbits = {}
            for r in recs:
                key = tuple(min(e, tuple((p, 3 - v) for p, v in e)) for e in (r.f.entries, r.fp.entries))
                orbits.setdefault(key + (r.d_class,), []).append(r)
            assert 4 * len(orbits) == len(recs)
            for group in orbits.values():
                assert len({(r.f, r.fp) for r in group}) == 4
                assert len({(r.big_d, r.cls, r.weight) for r in group}) == 1
    assert time.monotonic() - t0 < 6


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-8, 8), min_size=n, max_size=n), max_size=4)
    )
)
def test_rank3_matches_the_size_of_the_row_span(rows):
    # the span of r rows over F_3 has 3^rank elements
    span = {
        tuple(sum(c * x for c, x in zip(cs, col)) % 3 for col in zip(*rows))
        for cs in product(range(3), repeat=len(rows))
    }
    assert 3 ** counting._rank3(rows) == len(span)


@pytest.mark.parametrize(
    "bound, skipped",
    [(10**18, (92, 105)), (10**21, (257, 312)), (10**6, (2, 2)), (10**24, (769, 938))],
)
def test_skipped_deltas_yield_no_entry_on_the_unpruned_route(monkeypatch, bound, skipped):
    narrow = list(enumerate_deltas(isixth_root(bound)))
    wide = list(enumerate_deltas(ifourth_root(bound // 3**8)))
    skip = [dI for dI in narrow if counting._no_entry(bound, dI)]
    assert (len(skip), len(narrow)) == skipped
    monkeypatch.setattr(counting, "_no_entry", lambda bound, dI: False)
    for dI in skip:
        assert counting._census_for_delta(bound, dI, wide, {}) == [], dI


@pytest.mark.parametrize("bound", [3**8, 10**6, 10**9, 10**12, 10**15, 10**18, 10**21])
def test_pruned_skeleton_equals_the_unpruned_one(monkeypatch, bound):
    pruned = counting._build_skeleton(bound)
    monkeypatch.setattr(counting, "_no_entry", lambda bound, dI: False)
    assert counting._build_skeleton(bound) == pruned


def _count_k_calls(monkeypatch):
    calls = []
    for name in ("k_direct", "isixth_root"):
        orig = getattr(counting, name)
        monkeypatch.setattr(
            counting, name, lambda *a, n=name, f=orig: calls.append((n, a)) or f(*a)
        )
    return calls


def test_k_funnel_pinned_at_1e18(monkeypatch):
    # one K lookup per orbit, in the census pass and in the term stream
    list(counting._terms(10**18))
    calls = _count_k_calls(monkeypatch)
    counting._census.__wrapped__(10**18)
    names = [n for n, _ in calls]
    assert (names.count("k_direct"), names.count("isixth_root")) == (3, 3)
    calls.clear()
    assert len(list(counting._terms(10**18))) == 1140
    names = [n for n, _ in calls]
    assert (names.count("k_direct"), names.count("isixth_root")) == (3, 3)


@pytest.mark.parametrize("q", [7**6 - 1, 7**6])
def test_k_takes_a_root_only_from_seven_to_the_sixth(monkeypatch, q):
    # one row-1 orbit whose 3 | d term lies past x: a single term for each
    # of its four pairs, x // D = q
    d1 = 3**8
    x = q * d1 + d1 - 1
    entry = (7, 13, ((7, 1),), ((13, 1),), 1, d1, x + 1, 9, 91)
    monkeypatch.setattr(counting, "_skeleton", lambda x: [entry])
    calls = _count_k_calls(monkeypatch)
    subs = counting._census.__wrapped__(x)
    k = 1 if q < 7**6 else ksum.k_direct(7, 3, 91)
    if q < 7**6:
        assert calls == []
    else:
        assert calls == [("isixth_root", (q,)), ("k_direct", (7, 3, 91))]
    assert subs == (4 * 9 * k,) + (0,) * 13


def test_report_serialization(capsys):
    def out(*flags):
        assert cli.run(["count", "--x", "6e12", *flags]) == 0
        return capsys.readouterr().out

    obj = json.loads(out("--format", "json"))
    assert list(obj) == [
        "x",
        "weight_mode",
        "raw_total",
        "count",
        "divisible_by_108",
        "subsums",
    ]
    assert obj["count"] == 1
    assert obj["raw_total"] == 108
    assert list(obj["subsums"]) == [c.name for c in SubsumClass]
    star = ("--weight-mode", "omega-star")
    assert json.loads(out(*star, "--format", "json"))["count"] == "2/3"
    header, row = out(*star, "--format", "csv").splitlines()
    assert row.startswith("6000000000000,omega-star,72,2/3,false,")
    assert header.startswith("x,weight_mode,raw_total,count,")


def test_log_grid_points_and_validation():
    assert log_grid(10**12, 10**13, 3) == [10**12, 3162277660168, 10**13]
    assert log_grid(10**9, 10**16, 20)[:3] == [10**9, 2335721469, 5455594781]
    assert log_grid(5, 5, 4) == [5]
    assert log_grid(5, 80, 1) == [80]
    for lo, hi, n in ((0, 10, 3), (10, 9, 3), (1, 10, 0), (1, 10, 1001)):
        with pytest.raises(ValueError):
            log_grid(lo, hi, n)


@pytest.mark.parametrize(
    "fn, args",
    [
        (ksum.k_direct, (10.5, 3)),
        (ksum.k_direct, (True, 3)),
        (ksum.k_direct, (100, 3.0)),
        (ksum.k_direct, (100, 3, 7.0)),
        (run_suite, ("ksum", True)),
        (run_suite, ("ksum", 200.0)),
        (log_grid, (1.5, 10, 3)),
        (log_grid, (1, 10.0, 3)),
        (log_grid, (1, 10, True)),
        # a float prime, or a bool value, would fail later inside pow or
        # print as 7:True
        (SupportFunction, (((7.0, 1),),)),
        (SupportFunction, (((7, True),),)),
        (enumerate_deltas, (20.5,)),
        (ksum.psi_ell, (7.5, 3)),
        (ksum.alpha_ell, (3, 1000.5)),
        # a bool bound would read as 1, a float one fail inside numpy
        (indicator_pairs, (True,)),
        (indicator_pairs, (2.5,)),
        # a bool p or n would read as 1; a float or numpy one fail in pow
        (chi_p, (7, True)),
        (chi_p, (True, 2)),
        (chi_p, (7, 2.5)),
        (chi_p, (7, np.int64(2))),
        (chi_nine, (True,)),
        (eisenstein.standard_decompose, (7.0,)),
        # the constant pipeline's entry points would fail deep inside with
        # AttributeError; they name the type they take instead
        (euler_product_P, ({7: 1}, TruncationParams())),
        (euler_product_P, (SupportFunction(((7, 1),)), None)),
        (h_constants, (None,)),
        (constant_report, ((2000, 10**6),)),
        (char_cancellation_profile, ({7: 1}, (10**4,))),
    ],
    ids=lambda v: getattr(v, "__name__", None) or repr(v),
)
def test_non_integer_arguments_fail_at_the_boundary(fn, args):
    # one shared integer test, as for the census bound X and terms' limit,
    # and one shared type test for the constant pipeline
    typed = fn in (euler_product_P, h_constants, constant_report, char_cancellation_profile)
    with pytest.raises(TypeError, match="must be a [A-Z]" if typed else "must be an integer"):
        fn(*args)


def test_report_cache_is_bounded():
    _clear_census_caches()
    info = counting._census.cache_info()
    for x in range(info.maxsize + 10):
        heis_total(x, STAR)
    assert counting._census.cache_info().currsize == info.maxsize
    assert not counting._skeleton_cache  # every x < 3^8 has no terms
