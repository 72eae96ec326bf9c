"""The benchmark's three workloads: seeded inputs, the operations a run
times, and the checks every output must pass.

Inputs are plain JSON data made from the seed alone; the library only ever
sees those generated values.  Operations call the public ``heisnine`` API
through attribute lookups at call time, so the tracer's wrappers see them.
Checks read outputs only and never call back into the library.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

WORKLOADS = ("census-grid", "constant-default", "prime-walk")
DEFAULT_SEED = 0

# census-grid: one X per decade band k = 12..17, drawn from [10^k, 2 10^k)
# so the seed moves the cost of each band by under a fifth, plus the cap
CENSUS_DECADES = range(12, 18)
X_TOP = 10**18

# constant-default: delta_max within this distance of the default of 2000
CONSTANT_DELTA_MAX = 2000
CONSTANT_DELTA_SPREAD = 10
CONSTANT_P_MAX = 10**6

# prime-walk: the three patterns of the cancellation probe script
PROBES = (
    ("chi(f) * [chi_7 (pi/rho_7)]", ((7, 1),), (1, 0), {7: (1, 0)}),
    ("[chi_19 (pi/rho_19)]^2", ((19, 1),), (0, 0), {19: (0, 1)}),
    (
        "chi(f) * [chi_7 (pi/rho_7)]^2 [chi_13 (pi/rho_13)]",
        ((7, 1), (13, 2)),
        (1, 0),
        {7: (0, 1), 13: (1, 0)},
    ),
)
PROBE_CHECKPOINTS = (10**5, 10**6)
# primes p = 1 (mod 3) up to each checkpoint: pi(x; 3, 1)
SPLIT_PRIME_COUNTS = {10**5: 4784, 10**6: 39231}
SUITE = "symbols"
KSUM_X = 10**7
# split primes the seeded moduli d are drawn from (criterion 5 uses 7, 91)
KSUM_D_PRIMES = (7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97)

REL_TOL = 1e-12  # floats of the constant report, as in tests/test_constants.py
ABS_TOL = 1e-9  # cancellation sums, as in tests/test_constants.py


def make_inputs(workload: str, seed: int) -> dict[str, Any]:
    """The workload's inputs for one seed; the same seed gives the same data."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census-grid":
        xs = [10**k + rng.randrange(10**k) for k in CENSUS_DECADES] + [X_TOP]
        return {"xs": xs, "modes": ["omega-full", "omega-star"], "terms_x": X_TOP}
    if workload == "constant-default":
        off = rng.randint(-CONSTANT_DELTA_SPREAD, CONSTANT_DELTA_SPREAD)
        return {"delta_max": CONSTANT_DELTA_MAX + off, "p_max": CONSTANT_P_MAX}
    if workload == "prime-walk":
        one = rng.choice(KSUM_D_PRIMES)
        two = math.prod(rng.sample(KSUM_D_PRIMES, 2))
        return {
            "checkpoints": list(PROBE_CHECKPOINTS),
            "suite": SUITE,
            "ksum_x": KSUM_X,
            "ds": [1, one, two],
        }
    raise ValueError(f"unknown workload {workload!r}")


@dataclass(frozen=True)
class Op:
    """One timed library call with the checks on its output.

    ``check(out, state)`` returns failure messages; ``state`` carries
    values between the operations of one run.  ``summarize`` gives the
    output's reference form: exact numbers as strings, floats as floats,
    compared with ``tol`` = (kind, tolerance).
    """

    key: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], list[str]]
    summarize: Callable[[Any], dict[str, Any]]
    tol: tuple[str, float] = ("rel", REL_TOL)


def build_ops(h: Any, workload: str, inputs: dict[str, Any]) -> list[Op]:
    """The operations of one run, built before any of them is timed."""
    if workload == "census-grid":
        return _census_ops(h, inputs)
    if workload == "constant-default":
        return _constant_ops(h, inputs)
    if workload == "prime-walk":
        return _prime_walk_ops(h, inputs)
    raise ValueError(f"unknown workload {workload!r}")


def compare(summary: dict[str, Any], expected: dict[str, Any], tol: tuple[str, float]) -> list[str]:
    """Differences between an output summary and its recorded reference."""
    kind, eps = tol
    out = []
    for name, want in expected.items():
        got = summary.get(name)
        if isinstance(want, float) and isinstance(got, float):
            err = abs(got - want)
            limit = eps * abs(want) if kind == "rel" else eps
            if not err <= limit:
                out.append(f"{name} = {got!r}, reference {want!r}")
        elif got != want:
            out.append(f"{name} = {got!r}, reference {want!r}")
    return out


def run_ops(ops: list, reference: dict) -> list[dict]:
    """Time each operation, then check its output outside the timed span."""
    state: dict = {}
    rows = []
    for op in ops:
        t0 = time.perf_counter()
        # a failed operation, or an output the checks cannot read, is
        # counted as failed rather than ending the run
        try:
            out = op.run()
        except Exception as exc:
            seconds, fails = time.perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"]
        else:
            seconds = time.perf_counter() - t0
            try:
                fails = op.check(out, state)
                if op.key in reference:
                    fails += compare(op.summarize(out), reference[op.key], op.tol)
            except Exception as exc:
                fails = [f"output unreadable, {type(exc).__name__}: {exc}"]
        rows.append({"key": op.key, "seconds": seconds, "ok": not fails, "failures": fails})
    return rows


# ---------------------------------------------------------------------------
# census-grid


def _census_summary(rep: Any) -> dict[str, Any]:
    out = {"raw_total": str(rep.raw_total), "count": str(rep.count)}
    out.update((c.name, str(v)) for c, v in rep.subsums.items())
    return out


def check_census(x: int, mode_name: str, rep: Any, state: dict) -> list[str]:
    fails = []
    raw = rep.raw_total
    subs = {c.value: v for c, v in rep.subsums.items()}
    if rep.x != x or rep.weight_mode.value != mode_name:
        fails.append(f"report is for ({rep.x}, {rep.weight_mode.value})")
    if sum(subs.values()) != raw:
        fails.append("subsums do not add up to raw_total")
    if rep.count != Fraction(raw, 108):
        fails.append("count is not raw_total / 108")
    if mode_name == "omega-full" and (raw % 108 != 0 or not rep.divisible_by_108):
        fails.append("108 does not divide raw_total under omega-full")
    if mode_name == "omega-star":
        for k in range(2, 8):
            if subs.get(k + 7) != subs.get(k):
                fails.append(f"omega-star C{k + 7} != C{k}")
    last = state.get(("raw", mode_name))
    if last is not None and raw < last:
        fails.append(f"raw_total {raw} falls below {last} at a smaller X")
    state[("raw", mode_name)] = raw
    state[("total", mode_name, x)] = raw
    return fails


def check_terms(x: int, terms: list, state: dict) -> list[str]:
    if not terms:
        return ["no terms"]
    want = state.get(("total", "omega-full", x))
    if want is None:
        return ["no omega-full total at this X to compare the terms with"]
    got = sum(t.weight for t in terms)
    if got != want:
        return [f"term weights sum to {got}, raw_total is {want}"]
    return []


def _census_ops(h: Any, inputs: dict[str, Any]) -> list[Op]:
    ops = []
    for x in sorted(inputs["xs"]):
        for mode_name in inputs["modes"]:
            mode = h.WeightMode(mode_name)
            ops.append(
                Op(
                    key=f"heis_total(x={x},mode={mode_name})",
                    run=lambda x=x, mode=mode: h.heis_total(x, mode),
                    check=lambda out, st, x=x, m=mode_name: check_census(x, m, out, st),
                    summarize=_census_summary,
                )
            )
    tx = inputs["terms_x"]
    full = h.WeightMode("omega-full")
    ops.append(
        Op(
            key=f"enumerate_terms(x={tx},mode=omega-full)",
            run=lambda: list(h.enumerate_terms(tx, full)),
            check=lambda out, st: check_terms(tx, out, st),
            summarize=lambda out: {
                "terms": str(len(out)),
                "weight_sum": str(sum(t.weight for t in out)),
            },
        )
    )
    return ops


# ---------------------------------------------------------------------------
# constant-default

CONSTANT_FIELDS = ("alpha3", "h0", "h1", "h1_prime", "h2", "c_heis3", "c_heis_star")


def check_constant(rep: Any, state: dict) -> list[str]:
    fails = []
    for name in CONSTANT_FIELDS:
        v = getattr(rep, name)
        if not (math.isfinite(v) and v > 0):
            fails.append(f"{name} = {v!r} is not a positive number")
    if not abs(rep.h0 - (rep.h1 + rep.h1_prime)) <= REL_TOL * abs(rep.h0):
        fails.append(f"H0 = {rep.h0!r} differs from H1 + H1' = {rep.h1 + rep.h1_prime!r}")
    return fails


def _constant_ops(h: Any, inputs: dict[str, Any]) -> list[Op]:
    dm, pm = inputs["delta_max"], inputs["p_max"]
    params = h.TruncationParams(delta_max=dm, p_max=pm)
    return [
        Op(
            key=f"constant_report(delta_max={dm},p_max={pm})",
            run=lambda: h.constant_report(params),
            check=check_constant,
            summarize=lambda rep: {n: getattr(rep, n) for n in CONSTANT_FIELDS},
        )
    ]


# ---------------------------------------------------------------------------
# prime-walk


def check_profile(checkpoints: list[int], prof: list, state: dict) -> list[str]:
    if len(prof) != len(checkpoints):
        return [f"{len(prof)} sums for {len(checkpoints)} checkpoints"]
    fails = []
    for x, cs in zip(checkpoints, prof):
        want = SPLIT_PRIME_COUNTS.get(x)
        if want is not None and cs.terms != want:
            fails.append(f"{cs.terms} terms up to {x}, expected {want}")
        if not abs(cs.value) <= cs.terms:
            fails.append(f"|sum| = {abs(cs.value)!r} exceeds the {cs.terms} terms at {x}")
    return fails


def check_suite(name: str, res: Any, state: dict) -> list[str]:
    if res.suite != name or res.checks < 1:
        return [f"suite {res.suite!r} ran {res.checks} checks"]
    if not res.ok:
        return [f"suite {name} failed: {'; '.join(res.failures[:3])}"]
    return []


def check_ksum(d: int, k: int, state: dict) -> list[str]:
    fails = []
    if k < 1:
        fails.append(f"K(d={d}) = {k} is not positive")
    if d == 1:
        state["k1"] = k
    elif "k1" not in state:
        fails.append("K(1) was not computed before K(d)")
    elif k > state["k1"]:
        fails.append(f"K(d={d}) = {k} exceeds K(1) = {state['k1']}")
    return fails


def _profile_summary(checkpoints: list[int], prof: list) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for x, cs in zip(checkpoints, prof):
        out[f"terms.{x}"] = str(cs.terms)
        out[f"abs_sum.{x}"] = abs(cs.value)
    return out


def _prime_walk_ops(h: Any, inputs: dict[str, Any]) -> list[Op]:
    cps = list(inputs["checkpoints"])
    ops = []
    for label, entries, eps, pattern in PROBES:
        f = h.SupportFunction(entries)
        ops.append(
            Op(
                key=f"char_cancellation_profile({label})",
                run=lambda f=f, eps=eps, pattern=pattern: h.char_cancellation_profile(
                    f, tuple(cps), eps, dict(pattern)
                ),
                check=lambda out, st: check_profile(cps, out, st),
                summarize=lambda out: _profile_summary(cps, out),
                tol=("abs", ABS_TOL),
            )
        )
    suite = inputs["suite"]
    ops.append(
        Op(
            key=f"run_suite({suite})",
            run=lambda: h.run_suite(suite),
            check=lambda out, st: check_suite(suite, out, st),
            summarize=lambda res: {"ok": str(res.ok), "checks": str(res.checks)},
        )
    )
    x = inputs["ksum_x"]
    for d in inputs["ds"]:
        ops.append(
            Op(
                key=f"k_direct(x={x},ell=3,d={d})",
                run=lambda d=d: h.k_direct(x, 3, d),
                check=lambda out, st, d=d: check_ksum(d, out, st),
                summarize=lambda k: {"k": str(k)},
            )
        )
    return ops
