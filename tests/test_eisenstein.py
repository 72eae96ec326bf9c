import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from heisnine import eisenstein
from heisnine.eisenstein import (
    _BLOCK_POINTS,
    _WALK_ROWS,
    _build_standard_table,
    _j_images,
    _primary_pair,
    ROOT,
    STANDARD_ARRAY_MAX,
    ZERO,
    CharValue,
    EisensteinInt,
    StandardPrime,
    chi_nine,
    chi_p,
    chi_p_table,
    cubic_symbol,
    standard_decompose,
    standard_prime_arrays,
    standard_primes_up_to,
)
from heisnine._primes import is_prime, primes_in_class
from heisnine.verify import _euler_symbols

E = EisensteinInt

coords = st.integers(min_value=-10**6, max_value=10**6)
elements = st.builds(E, coords, coords)
# tuples for oracles.t_rem, some past 2^53, where a float quotient would
# round off the lattice point
big = st.integers(min_value=-(2**72), max_value=2**72)
tuple_elements = st.tuples(coords, coords) | st.tuples(big, big)


def split_primes(bound):
    return [int(p) for p in primes_in_class(bound, 3, 1)]


# ---------------------------------------------------------------------------
# ring basics


def test_norm_examples():
    assert E(0, 0).norm == 0
    assert E(2, 3).norm == 7
    assert E(-1, 3).norm == 13


def test_units_have_norm_one():
    assert [oracles.t_norm(u) for u in oracles.T_UNITS] == [1] * 6
    assert len(set(oracles.T_UNITS)) == 6


def test_divrem_example():
    assert oracles.t_rem((7, 0), (2, 3)) == (0, 0)


@given(tuple_elements, tuple_elements)
def test_divrem_contract(n, d):
    # the oracles' exact remainder, on which their Z[j] symbols rest
    if d == (0, 0):
        with pytest.raises(ZeroDivisionError):
            oracles.t_rem(n, d)
        return
    r = oracles.t_rem(n, d)
    assert oracles.t_divides(d, oracles.t_sub(n, r))
    assert 4 * oracles.t_norm(r) <= 3 * oracles.t_norm(d)


@pytest.mark.parametrize(
    "n, d, r",
    [
        # n conj(d) / norm(d) = +-1/2 on one or both components: ties go to 0
        ((2, 0), (4, 0), (2, 0)),
        ((-2, 0), (4, 0), (-2, 0)),
        ((2, 2), (4, 0), (2, 2)),
        ((-2, -2), (4, 0), (-2, -2)),
        ((6, 0), (4, 0), (2, 0)),
        ((-6, 0), (4, 0), (-2, 0)),
    ],
)
def test_divrem_rounds_ties_toward_zero(n, d, r):
    assert oracles.t_rem(n, d) == r


@given(elements)
def test_conj_is_involutive_and_norm_preserving(z):
    assert z.conj().conj() == z
    assert z.conj().norm == z.norm


def test_primary_examples():
    assert _primary_pair(3, 1) == (2, 3)
    assert _primary_pair(2, 3) == (2, 3)
    assert _primary_pair(1, -3) == (-1, 3)


@given(elements.filter(lambda z: z.norm % 3))
def test_primary_matches_enumeration_oracle(z):
    assert _primary_pair(z.a, z.b) == oracles.primary_by_enumeration((z.a, z.b))


def _is_standard(sp):
    """pi primary with b > 0, and pi | j - r."""
    a, b = sp.pi.a, sp.pi.b
    return a % 3 == 2 and b % 3 == 0 and b > 0 and oracles.t_divides((a, b), (-sp.r, 1))


# ---------------------------------------------------------------------------
# standard decomposition


def test_standard_decompose_examples():
    s7 = standard_decompose(7)
    assert (s7.pi, s7.r) == (E(2, 3), 4)
    s13 = standard_decompose(13)
    assert (s13.pi, s13.r) == (E(-1, 3), 9)


@pytest.mark.parametrize("p", [2, 5, 11, 3, 9, 91])
def test_standard_decompose_rejects_non_split(p):
    with pytest.raises(ValueError):
        standard_decompose(p)


@pytest.mark.parametrize("p", split_primes(300))
def test_standard_matches_search_oracle_small(p):
    sp = standard_decompose(p)
    pi, r = oracles.standard_by_search(p)
    assert (sp.pi.a, sp.pi.b) == pi
    assert sp.r == r


def test_decomposition_invariants_medium():
    # the full p <= 1e6 sweep lives in the acceptance suite
    for sp in standard_primes_up_to(20000):
        pi = sp.pi
        assert pi.norm == sp.p
        assert _is_standard(sp)
        assert (sp.r * sp.r + sp.r + 1) % sp.p == 0


def _scalar_rows(ps):
    return [(p, sp.pi.a, sp.pi.b, sp.r) for p in ps for sp in [standard_decompose(p)]]


def test_prime_arrays_match_scalar():
    cols = standard_prime_arrays(10**5)
    assert all(col.dtype == np.int64 for col in cols)
    rows = list(zip(*(col.tolist() for col in cols)))
    assert rows == _scalar_rows(split_primes(10**5))


def test_prime_arrays_exact_at_their_limit():
    # the last split primes below the bound exercise the largest int64 products
    ps = []
    n = STANDARD_ARRAY_MAX
    while len(ps) < 100:
        if n % 3 == 1 and is_prime(n):
            ps.append(n)
        n -= 1
    rows = _scalar_rows(ps)
    p, a, b = (np.array(col, dtype=np.int64) for col in list(zip(*rows))[:3])
    r = _j_images(p, a, b)
    assert list(zip(ps, a.tolist(), b.tolist(), r.tolist())) == rows


@pytest.mark.parametrize(
    "limit, budget",
    [(1, 0.1), (7, 0.1), (13, 0.1), (97, 0.1), (10**4 + 1, 0.1), (123457, 0.1),
     (10**6, 0.1), (10**7, 0.5)],
)
def test_prime_arrays_match_reduction_oracle(limit, budget):
    _build_standard_table.cache_clear()
    t0 = time.monotonic()
    got = standard_prime_arrays(limit)
    elapsed = time.monotonic() - t0
    want = oracles.standard_prime_arrays_by_reduction(limit)
    assert all(g.dtype == np.int64 for g in got)
    assert tuple(g.tolist() for g in got) == tuple(w.tolist() for w in want)
    assert elapsed < budget


def test_prime_arrays_are_read_only():
    for col in standard_prime_arrays(1000):
        with pytest.raises(ValueError):
            col[0] = 0


def test_prime_arrays_cache_holds_one_limit():
    want = {
        lim: [(p, *oracles.standard_by_search(p)) for p in split_primes(lim)]
        for lim in (300, 500)
    }
    for lim in (300, 500, 300, 500, 500, 300):
        p, a, b, r = (col.tolist() for col in standard_prime_arrays(lim))
        assert list(zip(p, zip(a, b), r)) == want[lim]
        assert _build_standard_table.cache_info().currsize <= 1
    assert _build_standard_table.cache_info().maxsize == 1


def test_prime_arrays_fill_r_once_per_held_limit(monkeypatch):
    # r is filled on its first read, in blocks, and kept with the columns
    calls = []

    def counted(p, a, b):
        calls.append(len(p))
        return _j_images(p, a, b)

    monkeypatch.setattr(eisenstein, "_j_images", counted)
    _build_standard_table.cache_clear()
    eisenstein._standard_table(10**6)
    assert calls == []
    p, a, b, r = standard_prime_arrays(10**6)
    assert sum(calls) == len(p) == 39231
    assert len(calls) == -(-len(p) // _BLOCK_POINTS) == 2
    assert r.tolist() == _j_images(p, a, b).tolist()
    for _ in range(2):
        assert standard_prime_arrays(10**6)[3] is r
    assert sum(calls) == len(p)
    # a new limit evicts the table, and its r is computed anew
    n = len(standard_prime_arrays(1000)[0])
    standard_prime_arrays(10**6)
    assert sum(calls) == 2 * len(p) + n


# a bool is not an integer limit, though it passes as an Integral
@pytest.mark.parametrize("limit", [100.5, 1e4, True, False, STANDARD_ARRAY_MAX + 1])
def test_standard_primes_reject_bad_limit(limit):
    with pytest.raises(ValueError):
        standard_primes_up_to(limit)
    with pytest.raises(ValueError):
        standard_prime_arrays(limit)


def test_standard_primes_small_limits():
    assert list(standard_primes_up_to(6)) == []
    assert [sp.p for sp in standard_primes_up_to(13)] == [7, 13]
    assert list(standard_primes_up_to(np.int64(7))) == [standard_decompose(7)]
    assert standard_prime_arrays(np.int64(7))[0].tolist() == [7]


def test_standard_primes_walk_matches_arrays_across_blocks():
    # 4,784 split primes up to 10^5 reach the walk in two blocks of ints
    rows = list(zip(*(col.tolist() for col in standard_prime_arrays(10**5))))
    walk = [(sp.p, sp.pi.a, sp.pi.b, sp.r) for sp in standard_primes_up_to(10**5)]
    assert len(walk) == 4784 > _WALK_ROWS
    assert walk == rows


def _split_primes_from(start, k):
    out = []
    n = start + (1 - start) % 3
    while len(out) < k:
        if is_prime(n):
            out.append(n)
        n += 3
    return out


@pytest.mark.parametrize(
    "p", _split_primes_from(10**12, 3) + _split_primes_from(10**18, 3)
)
def test_decomposition_invariants_large(p):
    sp = standard_decompose(p)
    pi = sp.pi
    assert sp.p == p and pi.norm == p
    assert _is_standard(sp)
    assert 2 <= sp.r <= p - 2 and (sp.r * sp.r + sp.r + 1) % p == 0
    # past the 2^30 norms of the batched Z[j] route: the object route
    for n in (2, 7):
        assert chi_p(p, n) == oracles.symbol_eis_literal(E(n, 0), sp)


# ---------------------------------------------------------------------------
# cubic symbols


def test_cubic_symbol_examples():
    s7 = standard_decompose(7)
    assert cubic_symbol(E(2, 0), s7) == ROOT(1)
    assert cubic_symbol(E(6, 0), s7) == ROOT(0)
    assert cubic_symbol(E(7, 0), s7) == ZERO
    with pytest.raises(TypeError):  # one route: no method= to choose
        cubic_symbol(E(2, 0), s7, method="eis")


def test_chi_p_examples():
    assert chi_p(7, 2) == ROOT(1)
    assert chi_p(7, 9) == chi_p(7, 2)
    assert chi_p(13, 7) == ROOT(1)
    for p in (3, 25):  # chi_3 is chi_nine; 25 is not prime
        with pytest.raises(ValueError):
            chi_p(p, 2)


def test_chi_p_table_matches_walk():
    for p in split_primes(5000) + split_primes(20000)[-50:]:
        assert chi_p_table(p) == oracles.chi_p_table_walk(p), p


def _first_split_prime_above(n):
    n += 1
    while n % 3 != 1 or not is_prime(n):
        n += 1
    return n


@pytest.mark.parametrize(
    "p",
    # p - 1 = 6 (a ragged last grid row), 6^2 and 24^2 (square grids), the
    # first split prime above 20000, and near the primes the census reaches
    # at X = 10^24
    [7, 37, 577, _first_split_prime_above(20000), 99991],
)
def test_chi_p_table_grid_edges_match_walk(p):
    assert chi_p_table(p) == oracles.chi_p_table_walk(p)


def test_chi_p_table_cache_is_bounded(monkeypatch):
    # held to 32 MB of tables, whatever their count; the least recently
    # used table goes first, and one past the bound is not held at all
    info = chi_p_table.cache_info()
    assert (info.maxsize, info.maxbytes) == (None, 32 * 2**20)
    bound = 20000
    monkeypatch.setattr(eisenstein, "_CHI_TABLE_BYTES", bound)
    chi_p_table.cache_clear()
    ps = split_primes(6000)
    for p in ps:
        chi_p_table(p)
        info = chi_p_table.cache_info()
        assert info.maxbytes == bound and info.currbytes <= bound
    # the newest tables are held until their sum passes the bound
    held, total = [], 0
    for p in reversed(ps):
        if total + p > bound:
            break
        held.append(p)
        total += p
    assert (info.currsize, info.currbytes) == (len(held), total)
    oldest, next_oldest = held[-1], held[-2]
    chi_p_table(oldest)  # a hit, and now the most recent
    chi_p_table(_first_split_prime_above(6000))  # evicts next_oldest only
    misses = chi_p_table.cache_info().misses
    chi_p_table(oldest)
    assert chi_p_table.cache_info().misses == misses
    chi_p_table(next_oldest)
    assert chi_p_table.cache_info().misses == misses + 1
    big = _first_split_prime_above(bound)
    assert chi_p_table(big) == oracles.chi_p_table_walk(big)
    info = chi_p_table.cache_info()
    assert info.currbytes <= bound and info.misses == misses + 2
    chi_p_table(big)  # not held: built again
    assert chi_p_table.cache_info().misses == misses + 3
    chi_p_table.cache_clear()


def test_chi_p_table_cache_holds_at_most_32_mb():
    # eight tables of about 4.2 MB pass 32 MB, so the first is evicted
    t0 = time.monotonic()
    chi_p_table.cache_clear()
    ps = [_first_split_prime_above(4_200_000)]
    while len(ps) < 8:
        ps.append(_first_split_prime_above(ps[-1]))
    for p in ps:
        chi_p_table(p)
    info = chi_p_table.cache_info()
    assert sum(ps) > 32 * 2**20
    assert (info.currsize, info.currbytes) == (7, sum(ps[1:]))
    chi_p_table.cache_clear()
    assert time.monotonic() - t0 < 3


def test_chi_nine_examples():
    assert chi_nine(2) == ROOT(1)
    assert chi_nine(8) == ROOT(0)
    assert chi_nine(12) == ZERO


def test_chi_nine_matches_walk_oracle():
    for n in range(-20, 40):
        e = oracles.chi_nine_exp_by_walk(n)
        assert chi_nine(n) == (ZERO if e is None else ROOT(e))


@pytest.mark.parametrize("e", range(-5, 6))
def test_root_is_the_shared_value_of_its_class(e):
    assert ROOT(e) == CharValue(e % 3)
    assert ROOT(e) is ROOT(e + 3)


def test_char_value_algebra():
    assert ROOT(1) * ROOT(2) == ROOT(0)
    assert ZERO * ROOT(1) == ZERO
    assert oracles.one_plus_v_plus_v2(ROOT(0)) == 3
    assert oracles.one_plus_v_plus_v2(ROOT(1)) == 0
    with pytest.raises(ValueError):
        oracles.one_plus_v_plus_v2(ZERO)


@given(st.sampled_from(split_primes(500)), elements, elements)
def test_symbol_multiplicative(p, x, y):
    sp = standard_decompose(p)
    xy = E(*oracles.t_mul((x.a, x.b), (y.a, y.b)))
    assert cubic_symbol(xy, sp) == cubic_symbol(x, sp) * cubic_symbol(y, sp)


def _euler_at(pairs):
    """The batched Z[j] route on (alpha, StandardPrime) pairs, at each pi."""
    return _euler_symbols(
        [(alpha.a, alpha.b) for alpha, _ in pairs],
        [(s.pi.a, s.pi.b) for _, s in pairs],
    )


@given(st.sampled_from(split_primes(500)), elements)
def test_symbol_codepaths_agree(p, x):
    sp = standard_decompose(p)
    assert [cubic_symbol(x, sp)] == _euler_at([(x, sp)])


def test_eis_symbol_matches_object_route_on_small_grid():
    grid = [E(x, y) for x in range(-8, 9) for y in range(-8, 9)]
    pairs = []
    for p in split_primes(400):
        sp = standard_decompose(p)
        other = StandardPrime(p, sp.pi.conj(), (-1 - sp.r) % p)
        pairs += [(alpha, s) for s in (sp, other) for alpha in grid]
    want = [oracles.symbol_eis_literal(alpha, s) for alpha, s in pairs]
    assert _euler_at(pairs) == want


@pytest.mark.parametrize("p", [7, 13, 97, 9973])
def test_eis_symbol_matches_object_route_past_p(p):
    # coordinates past p, and multiples of pi, conj(pi) and p: the ladder
    # reduces mod p, and only multiples of pi and p may read as zero
    sp = standard_decompose(p)
    other = StandardPrime(p, sp.pi.conj(), (-1 - sp.r) % p)
    alphas = [E(3 * p + 2, -5 * p - 1), E(-p * p - 4, p * p + 7), E(p + 1, 2 * p - 1)]
    alphas += [
        E(*oracles.t_mul((z.a, z.b), m))
        for z in (sp.pi, other.pi, E(p, 0))
        for m in ((1, 0), (2, -1), (p + 3, 5))
    ]
    pairs = [(alpha, s) for s in (sp, other) for alpha in alphas]
    want = [oracles.symbol_eis_literal(alpha, s) for alpha, s in pairs]
    assert _euler_at(pairs) == want


def test_eis_symbol_matches_object_route_on_suite_alphas():
    # the seven alphas of the symbols suite, at its default bound
    alphas = [E(t, (t * t + 1) % 7 - 3) for t in range(1, 8)]
    pairs = [(alpha, sp) for sp in standard_primes_up_to(10**4) for alpha in alphas]
    want = [oracles.symbol_eis_literal(alpha, sp) for alpha, sp in pairs]
    assert _euler_at(pairs) == want


@given(st.sampled_from(split_primes(500)), elements)
def test_symbol_matches_euler_oracle(p, x):
    e = oracles.symbol_exp_by_euler((x.a, x.b), p)
    want = ZERO if e is None else ROOT(e)
    assert cubic_symbol(x, standard_decompose(p)) == want


@given(st.sampled_from(split_primes(500)), elements)
def test_symbol_conjugation(p, x):
    # (conj a / conj pi)_3 = conj (a / pi)_3; conj pi pins the other root
    sp = standard_decompose(p)
    other = StandardPrime(sp.p, sp.pi.conj(), (-1 - sp.r) % sp.p)
    got, want = cubic_symbol(x.conj(), other), cubic_symbol(x, sp)
    assert got.exp == (None if want.exp is None else -want.exp % 3)


def test_reciprocity_small():
    ps = split_primes(200)
    for p in ps:
        for q in ps:
            if p == q:
                continue
            sp, sq = standard_decompose(p), standard_decompose(q)
            assert cubic_symbol(sq.pi, sp) == cubic_symbol(sp.pi, sq)


def test_rational_cube_criterion_small():
    for q in split_primes(300):
        for n in range(1, 50):
            if n % q == 0:
                continue
            want = oracles.is_cubic_residue(q, n)
            assert (chi_p(q, n) == ROOT(0)) == want
