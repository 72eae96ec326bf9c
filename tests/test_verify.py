"""The verification suites at reduced bounds, and their helpers."""

import time
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from heisnine import cli, verify
from heisnine._primes import is_prime
from heisnine.eisenstein import (
    ROOT,
    ZERO,
    EisensteinInt,
    StandardPrime,
    cubic_symbol,
    standard_decompose,
    standard_prime_arrays,
    standard_primes_up_to,
)
from heisnine.verify import (
    SUITE_NAMES,
    _conjugate,
    _euler_symbols,
    _sampled_pairs,
    indicator_pairs,
    run_suite,
)

import oracles
from oracles import symbol_exp_by_euler


def _pairs(zs):
    return [(z.a, z.b) for z in zs]


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


def _verify_out(capsys, suite, bound, code=0):
    assert cli.run(["verify", "--suite", suite, "--bound", str(bound)]) == code
    return capsys.readouterr().out


def test_result_text_shape(capsys):
    res = run_suite("ksum", 200)
    line = _verify_out(capsys, "ksum", 200).splitlines()[0]
    assert line == f"suite=ksum bound=200 checks={res.checks} failures=0"


def test_general_symbol_matches_oracle():
    # (alpha / conj pi) = conj (conj alpha / pi): the branch reciprocity uses
    alphas, betas, want = [], [], []
    for p in (7, 13, 19, 31):
        pi = standard_decompose(p).pi
        bar = pi.conj()
        for a in range(-3, 4):
            for b in range(-3, 4):
                e = symbol_exp_by_euler((a, b), p)
                ec = symbol_exp_by_euler((a - b, -b), p)
                alphas += [(a, b), (a, b)]
                betas += [(pi.a, pi.b), (bar.a, bar.b)]
                want += [e, None if ec is None else -ec % 3]
    assert [v.exp for v in _euler_symbols(alphas, betas)] == want


@pytest.mark.parametrize("q", [2, 5, 11, 47])
def test_general_symbol_at_inert_q_matches_inert_route(q):
    # beta = q has norm q^2, so the ladder runs mod q^2; alpha is far past it
    alphas = [
        EisensteinInt(a, b)
        for a in (-3 * q * q - 1, 1, q, 7 * q * q + 2)
        for b in (-5 * q * q + 3, 0, q * q, 4 * q * q * q - 1)
    ]
    got = _euler_symbols(_pairs(alphas), [(q, 0)] * len(alphas))
    assert got == [oracles.symbol_inert(alpha, q) for alpha in alphas]


@pytest.mark.parametrize("p", [7, 13, 97, 9973])
def test_general_symbol_matches_oracle_past_the_norm(p):
    pi = standard_decompose(p).pi
    bar = pi.conj()
    grid = ((3 * p + 2, -5 * p - 1), (-p * p - 4, p * p + 7), (p, 2 * p))
    got = _euler_symbols(
        [ab for ab in grid for _ in range(2)], [(pi.a, pi.b), (bar.a, bar.b)] * 3
    )
    want = []
    for a, b in grid:
        e = symbol_exp_by_euler((a, b), p)
        ec = symbol_exp_by_euler((a - b, -b), p)
        want += [e, None if ec is None else -ec % 3]
    assert [v.exp for v in got] == want


@pytest.mark.parametrize(
    "beta",
    [EisensteinInt(3, 1), EisensteinInt(-2, -3), EisensteinInt(7, 0)],
)
def test_general_symbol_rejects_beta_that_is_not_primary(beta):
    # an associate of a prime (3 + j, -(2 + 3j)) or a split rational prime,
    # in a batch whose other betas are primary primes
    with pytest.raises(ValueError, match="not primary"):
        _euler_symbols([(2, 1)] * 3, [(2, 3), (beta.a, beta.b), (5, 0)])


def test_general_symbol_rejects_norm_past_int64_ladder():
    # 32771 = 2 mod 3 is primary, and its norm 32771^2 exceeds 2^30
    with pytest.raises(ValueError, match="exceeds"):
        _euler_symbols([(2, 1)] * 2, [(2, 3), (32771, 0)])


def test_general_symbol_raises_when_the_power_is_not_a_root():
    # 5 - 3j = -(2 + 3j)^2 is primary but not prime: 3^16 is no j^m mod it
    with pytest.raises(AssertionError, match=r"a=5, b=-3\)"):
        _euler_symbols([(2, 1), (3, 0), (2, 1)], [(2, 3), (5, -3), (5, 0)])


def test_general_symbol_at_the_int64_edge():
    # the largest split p <= 2^30 and inert q with q^2 <= 2^30 put the
    # ladder's products nearest 2^61; coordinates past 2^63 must be reduced
    # mod N before they enter the arrays
    p = max(n for n in range(2**30 - 300, 2**30 + 1) if n % 3 == 1 and is_prime(n))
    q = max(n for n in range(2**15 - 300, 2**15) if n % 3 == 2 and is_prime(n))
    assert (p, q) == (1073741719, 32717)
    sp = standard_decompose(p)
    bar = StandardPrime(p, sp.pi.conj(), (-1 - sp.r) % p)
    big = 2**64
    alphas = [EisensteinInt(big + 5 * t, -3 * big + t * t) for t in range(1, 9)]
    alphas += [EisensteinInt(-(2**63) - t, 2**70 + 7 * t) for t in range(1, 9)]
    alphas += [
        EisensteinInt(*oracles.t_mul((z.a, z.b), (big + 1, 2)))
        for z in (sp.pi, bar.pi, EisensteinInt(q, 0))
    ]
    betas = [(sp.pi.a, sp.pi.b), (bar.pi.a, bar.pi.b), (q, 0)]
    got = _euler_symbols(_pairs(alphas) * 3, [beta for beta in betas for _ in alphas])
    want = [oracles.symbol_eis_literal(alpha, s) for s in (sp, bar) for alpha in alphas]
    want += [oracles.symbol_inert(alpha, q) for alpha in alphas]
    assert got == want
    assert {v.exp for v in want} == {None, 0, 1, 2}


def test_sampled_pairs_match_the_counted_walk():
    for m in (0, 1, 2, 5, 40, 150):
        walk = [(i, j) for i in range(m) for j in range(i + 1, m)]
        for stride in (1, 3, 7, 997):
            assert list(_sampled_pairs(m, stride)) == walk[stride - 1 :: stride]


def _all_zero(alphas, betas):
    return [ZERO] * len(alphas)


def _all_zero_blocks(bound):
    """_symbol_blocks with every Z[j] exponent read as the zero value."""
    p = standard_prime_arrays(bound)[0]
    yield np.full((len(p), verify._SYMBOL_EXPS), -1, dtype=np.int64)


def _conj_row_at(a, b, orig):
    """_symbol_row with the row of the denominator a + b*j conjugated."""

    def row(beta, na, nb):
        e = orig(beta, na, nb)
        return np.where(e < 0, e, -e % 3) if beta[:2] == (a, b) else e

    return row


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


def test_failure_text_unchanged(monkeypatch, capsys):
    monkeypatch.setattr(verify, "_symbol_row", _conj_row_at(2, 3, verify._symbol_row))
    assert _verify_out(capsys, "reciprocity", 50, 1) == _RECIPROCITY_FLIP_TEXT + "\n"
    monkeypatch.undo()
    monkeypatch.setattr(verify, "_euler_symbols", _all_zero)
    assert _verify_out(capsys, "reciprocity", 600, 1) == _RECIPROCITY_SLOW_TEXT + "\n"
    # the symbols suite reads its Z[j] exponents from _symbol_blocks
    monkeypatch.setattr(verify, "_symbol_blocks", _all_zero_blocks)
    assert _verify_out(capsys, "symbols", 7, 1) == _SYMBOLS_TEXT + "\n"


def test_reciprocity_failures_keep_the_walk_order(monkeypatch):
    # the slow route's values are read in pair order, so a slow failure
    # lands between the fast ones around it, as the walk meets them
    last = EisensteinInt(*verify._primary_primes(600)[-1][:2])
    monkeypatch.setattr(
        verify, "_symbol_row", _conj_row_at(last.a, last.b, verify._symbol_row)
    )
    monkeypatch.setattr(verify, "_euler_symbols", _all_zero)
    res = run_suite("reciprocity", 600)
    slow = [i for i, f in enumerate(res.failures) if f.startswith("fast and general")]
    assert (res.checks, len(res.failures), slow) == (5465, 20, [6, 17])
    assert res.failures[6] == "fast and general symbol routes differ at -7-3j, -7-6j"
    assert res.failures[5] == f"reciprocity fails for -1-6j and {last}"


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
    assert elapsed < 0.25


def test_symbol_lanes_match_the_pairs_of_the_prime_objects():
    # the suite's 15 Z[j] exponents per prime, from one ladder per alpha
    # read at both factors, against the tuple route on the pairs read off
    # the prime objects; 10^4 holds 611 split primes, two blocks of at most
    # 512 primes
    bound = 10**4
    blocks = list(verify._symbol_blocks(bound))
    assert [b.shape for b in blocks] == [(512, 15), (99, 15)]
    assert all(b.dtype == np.int64 for b in blocks)
    got = [v for b in blocks for v in verify._VALUE_OF_EXP[b].ravel().tolist()]
    sps = standard_primes_up_to(bound)
    pairs = list(oracles.symbol_pairs(sps, list(verify._SYMBOL_ALPHAS)))
    assert len(pairs) == 611 * 15
    assert got == _euler_symbols(*zip(*pairs))


@pytest.mark.parametrize("beta", [(2, 0), (2, 3), (5, 0)])
def test_general_symbol_exit_at_small_norms(beta):
    # N = 4, 7 and 25: at beta = 2, j is not its own remainder (_reduce(j, 2)
    # is -j), so the exit must compare remainders; every residue class of
    # alpha mod N, against the oracle at the split beta and the inert route
    # at an inert one
    a, b = beta
    n = a * a - a * b + b * b
    alphas = [EisensteinInt(x, y) for x in range(n) for y in range(n)]
    got = _euler_symbols(_pairs(alphas), [beta] * len(alphas))
    if b:
        sp = StandardPrime(n, EisensteinInt(a, b), standard_decompose(n).r)
        want = [oracles.symbol_eis_literal(alpha, sp) for alpha in alphas]
    else:
        want = [oracles.symbol_inert(alpha, a) for alpha in alphas]
    assert got == want
    assert {v.exp for v in got} == {None, 0, 1, 2}
    assert verify._reduce(0, 1, 2, 0, 4) == (0, -1)


def test_symbols_suite_catches_a_ladder_read_at_the_wrong_factor(monkeypatch):
    # the Z[j] powers read at pi where conj(pi) is due: every alpha whose
    # symbols at the two factors of 7 differ fails its conjugate check, six
    # of the seven (6 - j has j at both)
    orig = verify._root_exps

    def at_pi(oa, ob, ba, bb, nb):
        if (bb < 0).all():  # conj(pi) = (a - b) - b*j of pi = a + b*j, b > 0
            ba, bb = ba - bb, -bb
        return orig(oa, ob, ba, bb, nb)

    sp = standard_decompose(7)
    bar = StandardPrime(7, sp.pi.conj(), sp.r * sp.r % 7)
    alphas = [EisensteinInt(*t) for t in verify._SYMBOL_ALPHAS]
    want = tuple(
        f"fp symbol of {alpha} differs mod the conjugate factor of 7"
        for alpha in alphas
        if oracles.symbol_eis_literal(alpha, sp) != oracles.symbol_eis_literal(alpha, bar)
    )
    assert len(want) == 6
    monkeypatch.setattr(verify, "_root_exps", at_pi)
    res = run_suite("symbols", 7)
    assert res.checks == 17 and res.failures == want


def test_walk_builds_the_prime_objects_of_the_scalar_route():
    # standard_primes_up_to and _conjugate set the fields of each object in
    # one step; the objects must equal, hash and print like those built
    # field by field
    sps = list(standard_primes_up_to(2000))
    assert len(sps) == 148
    for sp in sps:
        p, r = sp.p, sp.r
        want = standard_decompose(p)
        assert sp == want and hash(sp) == hash(want) and repr(sp) == repr(want)
        assert hash(sp.pi) == hash(want.pi)
        assert all(type(v) is int for v in (p, r, sp.pi.a, sp.pi.b))
        bar = _conjugate(sp)
        want = StandardPrime(p, sp.pi.conj(), r * r % p)
        assert bar == want and hash(bar) == hash(want) and repr(bar) == repr(want)
        with pytest.raises(FrozenInstanceError):
            bar.r = 0
        with pytest.raises(FrozenInstanceError):
            bar.pi.a = 0


def test_general_symbol_takes_arrays_and_tuples_alike():
    # the symbols suite's pairs at 10^4, and a grid at 7 that meets zero
    sps = standard_primes_up_to(10**4)
    pairs = list(oracles.symbol_pairs(sps, list(verify._SYMBOL_ALPHAS)))
    pi = standard_decompose(7).pi
    pairs += [((a, b), (pi.a, pi.b)) for a in range(-7, 8) for b in range(-7, 8)]
    alphas, betas = (list(t) for t in zip(*pairs))
    want = _euler_symbols(alphas, betas)
    got = _euler_symbols(np.array(alphas, dtype=np.int64), np.array(betas, dtype=np.int64))
    assert got == want
    assert {v.exp for v in want} == {None, 0, 1, 2}


@pytest.mark.parametrize(
    "beta,fmt",
    [
        ((3, 1), "{!r} is not primary"),
        ((32771, 0), "norm of {!r} exceeds 1073741824"),
        ((2**40 + 1, 0), "norm of {!r} exceeds 1073741824"),
    ],
)
def test_general_symbol_checks_array_betas_as_tuples(beta, fmt):
    # the first offending beta of a batch, at the same place in both forms;
    # 2^40 + 1 = 2 mod 3 is primary, with a norm far past int64 squares
    betas = [(2, 3), (5, 0), beta, (3, 1)]
    alphas = [(2, 1)] * len(betas)
    for form in (list, lambda v: np.array(v, dtype=np.int64)):
        with pytest.raises(ValueError) as exc:
            _euler_symbols(form(alphas), form(betas))
        assert str(exc.value) == fmt.format(EisensteinInt(*beta))
    # past int64, as tuples only
    with pytest.raises(ValueError, match="exceeds"):
        _euler_symbols([(2, 1)] * 2, [(2, 3), (2**70 + 1, -3 * 2**68)])


def test_reciprocity_rows_match_the_scalar_symbols():
    # the scalar symbols as the oracle of every off-diagonal entry:
    # cubic_symbol at pi or at its conjugate, symbol_inert at an inert q
    prs = verify._primary_primes(600)
    na, nb = np.array([t[:2] for t in prs], dtype=np.int64).T
    alphas = [EisensteinInt(a, b) for a, b, _, _ in prs]
    kinds = set()
    for i, (_, b, q, _) in enumerate(prs):
        row = verify._symbol_row(prs[i], na, nb)
        assert row.dtype == np.int8 and len(row) == len(prs)
        if q % 3 == 2:
            want = [oracles.symbol_inert(alpha, q) for alpha in alphas]
            kinds.add("inert")
        else:
            sp = standard_decompose(q)
            if b < 0:
                sp = _conjugate(sp)
                kinds.add("conjugate")
            else:
                kinds.add("standard")
            assert sp.pi == alphas[i]
            want = [cubic_symbol(alpha, sp) for alpha in alphas]
        got = [ZERO if e < 0 else ROOT(e) for e in row.tolist()]
        assert got[:i] + got[i + 1 :] == want[:i] + want[i + 1 :], alphas[i]
    assert kinds == {"inert", "standard", "conjugate"}


@pytest.mark.parametrize("bound,m", [(1, 0), (4, 1), (7, 3)])
def test_reciprocity_suite_with_few_primes(bound, m):
    # no prime, the inert 2 alone, then 2 and the two factors of 7; the
    # suite starts at 7, the first bound with a pair to check
    assert len(verify._primary_primes(bound)) == m
    if bound < 7:
        with pytest.raises(ValueError, match="from 7 to 100000"):
            run_suite("reciprocity", bound)
        return
    res = run_suite("reciprocity", bound)
    assert res.ok and res.checks == m * (m - 1) // 2


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_checks_something_at_its_smallest_bound(name):
    lo = verify._SUITES[name][2]
    res = run_suite(name, lo)
    assert res.ok and res.checks >= 1
    with pytest.raises(ValueError, match=f"suite {name} takes a bound from {lo}"):
        run_suite(name, lo - 1)


@pytest.mark.parametrize("name", ["reciprocity", "symbols", "indicator"])
def test_suites_over_split_primes_refuse_a_bound_below_7(name, capsys):
    # below the first split prime these suites would check nothing
    assert cli.run(["verify", "--suite", name, "--bound", "6"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: suite {name} takes a bound from 7")


def test_reciprocity_suite_at_its_default_bound_in_budget():
    t0 = time.monotonic()
    res = run_suite("reciprocity")
    elapsed = time.monotonic() - t0
    assert res.ok and (res.bound, res.checks) == (10**4, 762_759)
    assert elapsed < 0.6


@pytest.mark.parametrize(
    "name,bound,limits",
    [
        ("integrality", 10**9 - 1, "from 1000000000 to 1000000000000000000"),
        ("subsum-identities", 10**12 - 1, "from 1000000000000 to 1000000000000000000"),
        ("reciprocity", 10**5 + 1, "from 7 to 100000"),
        ("symbols", 10**7 + 1, "from 7 to 10000000"),
        # past what they check, the suites refuse a bound rather than clip it
        ("integrality", 10**18 + 1, "from 1000000000 to 1000000000000000000"),
        ("subsum-identities", 10**18 + 1, "from 1000000000000 to 1000000000000000000"),
        ("ksum", 3001, "from 1 to 3000"),
        ("indicator", 1001, "from 7 to 1000"),
    ],
)
def test_suite_bound_out_of_range_names_the_suite(name, bound, limits):
    with pytest.raises(ValueError) as exc:
        run_suite(name, bound)
    assert str(exc.value) == f"suite {name} takes a bound {limits}, got {bound}"


@pytest.mark.parametrize(
    "name,bound", [("integrality", 10**9), ("subsum-identities", 10**12)]
)
def test_census_suites_run_at_their_smallest_bound(name, bound):
    res = run_suite(name, bound)
    assert res.ok and res.checks > 0


@pytest.mark.parametrize("bound", [1, 2, 90])
def test_ksum_suite_below_its_fixed_points(bound):
    res = run_suite("ksum", bound)
    assert res.ok and res.checks > 0


def test_inert_symbol_cube_classes():
    # (alpha/q) = 1 exactly on nonzero cubes of F_{q^2} = Z[j]/(q)
    q = 5
    cubes = set()
    for a in range(q):
        for b in range(q):
            if a or b:
                c3 = oracles.t_mul(oracles.t_mul((a, b), (a, b)), (a, b))
                cubes.add((c3[0] % q, c3[1] % q))
    grid = np.array([(a, b) for a in range(q) for b in range(q)], dtype=np.int64)
    rows = verify._inert_exps(grid[:, 0], grid[:, 1], q).tolist()
    for (a, b), e in zip(grid.tolist(), rows):
        v = oracles.symbol_inert(EisensteinInt(a, b), q)
        assert e == (-1 if v.is_zero else v.exp)
        if a == 0 and b == 0:
            assert v.is_zero
        else:
            assert (v.exp == 0) == ((a % q, b % q) in cubes)


@pytest.mark.parametrize("q", [2, 5, 11, 47, 317, 32717])
def test_inert_rows_match_the_scalar_ladder(q):
    # coordinates far past q, multiples of q among them, on both routes
    vals = [-7 * q * q - 1, -q, 0, 1, 2, q, 3 * q + 2, 5 * q * q + 4]
    alphas = [EisensteinInt(a, b) for a in vals for b in vals]
    row = verify._inert_exps(
        np.array([z.a for z in alphas]), np.array([z.b for z in alphas]), q
    )
    assert row.dtype == np.int8
    want = [oracles.symbol_inert(alpha, q) for alpha in alphas]
    assert row.tolist() == [-1 if v.is_zero else v.exp for v in want]


def test_indicator_pair_universe_census():
    pairs = indicator_pairs(31)
    # split primes 7, 13, 19, 31: 4 two-prime supports with 3, 6 without,
    # 6 three-prime supports, each span contributing 48 ordered bases
    assert len(pairs) == 4 * 48 + 6 * 48 + 6 * 480
    assert len({(f.entries, fp.entries) for f, fp in pairs}) == len(pairs)
    for f, fp in pairs:
        assert not f.is_zero and not fp.is_zero
        assert fp.entries != f.entries


def _one_sided_rule(sup, u, e_u, v, e_v):
    """A broken kernel rule: v(r) e_u(r) = 0 at each r != 3, without the
    u(r) e_v(r) side."""
    return int(all(r == 3 or y * a % 3 == 0 for r, a, y in zip(sup, e_u, v)))


def test_indicator_suite_catches_a_one_sided_kernel_rule(monkeypatch, capsys):
    # the suite decides every pair by the library's rule, so a broken rule
    # must show in its symmetry and span checks, and in the exit code
    monkeypatch.setattr(verify, "_kernel_rule", _one_sided_rule)
    res = run_suite("indicator", 31)
    assert res.checks == 6860 and len(res.failures) == 20
    assert _verify_out(capsys, "indicator", 31, 1).startswith(
        "suite=indicator bound=31 checks=6860 failures=20"
    )
