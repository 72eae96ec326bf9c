"""Tests of the benchmark itself, outside the repository's tier-1 suite:

    python3 -m pytest perfbench
"""

import json
import math
import re
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import heisnine  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

SEEDS = range(40)
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())


# ---------------------------------------------------------------------------
# the seed-to-input generator


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    seen = set()
    for seed in SEEDS:
        inputs = wl.make_inputs(workload, seed)
        assert inputs == wl.make_inputs(workload, seed)
        seen.add(json.dumps(inputs, sort_keys=True))
    assert len(seen) > 1


def test_census_grid_never_repeats_an_x_mode_pair():
    for seed in SEEDS:
        inputs = wl.make_inputs("census-grid", seed)
        xs = inputs["xs"]
        for k, x in zip(wl.CENSUS_DECADES, xs):
            assert 10**k <= x < 10 ** (k + 1)
        assert xs[-1] == wl.X_TOP
        keys = [op.key for op in wl.build_ops(heisnine, "census-grid", inputs)]
        assert len(keys) == len(set(keys)) == 2 * len(xs) + 1


def test_other_generators_stay_near_their_defaults():
    for seed in SEEDS:
        const = wl.make_inputs("constant-default", seed)
        assert abs(const["delta_max"] - wl.CONSTANT_DELTA_MAX) <= wl.CONSTANT_DELTA_SPREAD
        ds = wl.make_inputs("prime-walk", seed)["ds"]
        assert ds[0] == 1 and len(set(ds)) == len(ds)
        for d, n_primes in zip(ds[1:], (1, 2)):
            primes = [p for p in wl.KSUM_D_PRIMES if d % p == 0]
            assert len(primes) == n_primes and math.prod(primes) == d


# ---------------------------------------------------------------------------
# metric names


def test_metric_names_match_the_contract():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    e2e = [(m["name"], m["unit"]) for m in BENCH["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in BENCH["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == [(n, u) for n, u, _ in tracer.LAYER_METRICS] + [tracer.TRACE_OVERHEAD]
    names = [n for n, _ in e2e + layers]
    assert len(names) == len(set(names))
    for name in names:
        assert pattern.fullmatch(name), name
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)


# ---------------------------------------------------------------------------
# the tracer


def _bindings():
    out = {}
    for mod in tracer._package_modules():
        for attr, val in vars(mod).items():
            out[(mod.__name__, attr)] = val
    sf, tr = heisnine.SupportFunction, heisnine.counting.TermRecord
    out["post_init"] = vars(sf)["__post_init__"]
    out["term_init"] = vars(tr)["__init__"]
    return out


def test_wrappers_restore_the_originals():
    before = _bindings()
    with tracer.Tracer() as tr:
        assert heisnine.heis_total is not before[("heisnine", "heis_total")]
        heisnine.heis_total(10**12 + 4321, heisnine.WeightMode.OMEGA_FULL)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tr.absent == []
    assert tr.calls["counting.heis_total"] == 1
    assert tr.calls["ksum.k_direct"] > 0
    assert tr.counters["counting.funnel.k_pairs"] == tr.calls["ksum.k_direct"]
    assert 0 <= tr.self_s["counting.heis_total"]


def test_absent_targets_are_reported_not_raised():
    targets = (
        ("ksum.no_such_function", None),
        ("charspace.SupportFunction.no_such_method", None),
        ("no_such_module.f", None),
        ("ksum.k_direct", None),
    )
    with tracer.Tracer(targets) as tr:
        assert heisnine.k_direct(100, 3, 7) == 21
    assert tr.absent == [p for p, _ in targets[:3]]
    assert tr.calls["ksum.k_direct"] == 1
    metrics = tracer.layer_metrics(tr, {})
    assert metrics["trace.absent_targets"] == 3
    assert metrics["counting.indicator.calls"] == 0


# ---------------------------------------------------------------------------
# every output check rejects a corrupted result

FULL = heisnine.WeightMode.OMEGA_FULL
STAR = heisnine.WeightMode.OMEGA_STAR
X = 10**14 + 987


def _with_raw(rep, raw, subsums):
    return replace(rep, raw_total=raw, count=Fraction(raw, 108), subsums=subsums)


def test_census_check_rejects_corruption():
    full = heisnine.heis_total(X, FULL)
    star = heisnine.heis_total(X, STAR)
    assert wl.check_census(X, "omega-full", full, {}) == []
    assert wl.check_census(X, "omega-star", star, {}) == []
    # subsums no longer add up
    assert wl.check_census(X, "omega-full", replace(full, raw_total=full.raw_total + 108), {})
    # a total off the multiples of 108, with consistent subsums and count
    subs = dict(full.subsums)
    subs[heisnine.SubsumClass.C1] += 1
    assert wl.check_census(X, "omega-full", _with_raw(full, full.raw_total + 1, subs), {})
    # the omega-star pairing C(k+7) = C(k) broken
    subs = dict(star.subsums)
    subs[heisnine.SubsumClass.C9] += 108
    assert wl.check_census(X, "omega-star", _with_raw(star, star.raw_total + 108, subs), {})
    # a count that falls as X grows
    assert wl.check_census(X, "omega-full", full, {("raw", "omega-full"): full.raw_total + 1})


def test_terms_check_rejects_a_missing_term():
    x = 10**13 + 55
    terms = list(heisnine.enumerate_terms(x, FULL))
    state = {}
    assert wl.check_census(x, "omega-full", heisnine.heis_total(x, FULL), state) == []
    assert wl.check_terms(x, terms, state) == []
    assert wl.check_terms(x, terms[1:], state)
    assert wl.check_terms(x, [], state)


def test_constant_check_rejects_corruption():
    good = SimpleNamespace(
        alpha3=0.5, h0=3.0, h1=1.25, h1_prime=1.75, h2=0.5, c_heis3=0.01, c_heis_star=0.02
    )
    assert wl.check_constant(good, {}) == []
    assert wl.check_constant(replace_ns(good, h1_prime=1.75 * (1 + 1e-9)), {})
    assert wl.check_constant(replace_ns(good, h2=-0.5), {})
    assert wl.check_constant(replace_ns(good, c_heis3=math.nan), {})


def replace_ns(ns, **kw):
    return SimpleNamespace(**{**vars(ns), **kw})


def test_prime_walk_checks_reject_corruption():
    cps = list(wl.PROBE_CHECKPOINTS)
    good = [SimpleNamespace(terms=4784, value=25 + 3j), SimpleNamespace(terms=39231, value=-60j)]
    assert wl.check_profile(cps, good, {}) == []
    assert wl.check_profile(cps, [good[0], replace_ns(good[1], terms=39230)], {})
    assert wl.check_profile(cps, [good[0], replace_ns(good[1], value=40000.0)], {})
    assert wl.check_profile(cps, good[:1], {})

    ok = SimpleNamespace(suite="symbols", checks=10, ok=True, failures=())
    assert wl.check_suite("symbols", ok, {}) == []
    assert wl.check_suite("symbols", replace_ns(ok, ok=False, failures=("bad",)), {})
    assert wl.check_suite("symbols", replace_ns(ok, checks=0), {})

    state = {}
    assert wl.check_ksum(1, 100, state) == []
    assert wl.check_ksum(7, 90, state) == []
    assert wl.check_ksum(7, 101, state)
    assert wl.check_ksum(91, 0, state)


def test_reference_comparison_rejects_changed_outputs():
    census = REFERENCE["census-grid"]
    key = "heis_total(x=1000000000000000000,mode=omega-full)"
    want = census[key]
    assert wl.compare(dict(want), want, ("rel", wl.REL_TOL)) == []
    assert wl.compare({**want, "count": "83"}, want, ("rel", wl.REL_TOL))

    const = next(iter(REFERENCE["constant-default"].values()))
    near = {k: v * (1 + 1e-14) for k, v in const.items()}
    far = {**const, "h2": const["h2"] * (1 + 1e-10)}
    assert wl.compare(near, const, ("rel", wl.REL_TOL)) == []
    assert wl.compare(far, const, ("rel", wl.REL_TOL))


def test_reference_keys_come_from_the_default_seed():
    for workload in wl.WORKLOADS:
        inputs = wl.make_inputs(workload, wl.DEFAULT_SEED)
        keys = {op.key for op in wl.build_ops(heisnine, workload, inputs)}
        assert keys == set(REFERENCE[workload])


# ---------------------------------------------------------------------------
# run.py


def test_run_refuses_a_directory_without_the_library(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "census-grid"])
    assert run.main() == 2
    assert capsys.readouterr().out == ""


def test_run_ops_counts_raised_and_unreadable_outputs_as_failed():
    def op(key, run, check=lambda out, st: []):
        return wl.Op(key=key, run=run, check=check, summarize=lambda out: {"v": str(out)})

    ops = [
        op("fine", lambda: 1),
        op("raises", lambda: 1 // 0),
        op("unreadable", lambda: None, check=lambda out, st: [out.raw_total]),
        op("off-reference", lambda: 2),
    ]
    rows = wl.run_ops(ops, {"fine": {"v": "1"}, "off-reference": {"v": "3"}})
    assert [r["ok"] for r in rows] == [True, False, False, False]
    assert "ZeroDivisionError" in rows[1]["failures"][0]
    assert "AttributeError" in rows[2]["failures"][0]
    assert all(r["seconds"] >= 0 for r in rows)
