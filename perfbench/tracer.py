"""Outside-in tracer for heisnine, kept in the benchmark's own files.

``Tracer`` wraps library functions for the length of a ``with`` block and
puts every original back afterwards; no library file is edited.  A module
function is replaced under every name that refers to it in any loaded
``heisnine`` module (``from .x import f`` copies the reference), so calls
between modules are seen too.  A method is replaced on its class only.
A target that no longer exists is reported as absent, not raised.

Self time is a span's duration minus the time of wrapped calls made inside
it, kept on a stack of child-time accumulators.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable

PACKAGE = "heisnine"

# the census entry points; K-sum and indicator calls below them form the funnel
CENSUS_ROOTS = ("counting.heis_total", "counting.enumerate_terms")
# K-sum arguments up to this size take the small-table path at the seed commit
KSUM_SMALL_X = 10**4


def _under_census(tr: "Tracer") -> bool:
    return any(tr.active.get(name) for name in CENSUS_ROOTS)


def _observe_k_direct(tr: "Tracer", args: tuple, kwargs: dict, out: Any) -> None:
    x = args[0] if args else kwargs["x"]
    tr.bump("ksum.k_direct.small", x <= KSUM_SMALL_X)
    tr.bump("ksum.k_direct.nonzero", out != 0)
    if _under_census(tr):
        tr.bump("counting.funnel.k_pairs")


def _observe_indicator(tr: "Tracer", args: tuple, kwargs: dict, out: Any) -> None:
    tr.bump("counting.indicator.one", out == 1)
    if _under_census(tr):
        tr.bump("counting.funnel.indicator_calls")


def _observe_exponents(tr: "Tracer", args: tuple, kwargs: dict, out: Any) -> None:
    tr.bump("lfunctions.chi_exponent_arrays.elements", len(out[0]))


def _observe_suite(tr: "Tracer", args: tuple, kwargs: dict, out: Any) -> None:
    tr.bump("verify.run_suite.checks", out.checks)


# (dotted path below the package, observer of each call's arguments and result)
TARGETS: tuple[tuple[str, Callable | None], ...] = (
    ("_primes.primes_up_to", None),
    ("_primes.is_prime", None),
    ("eisenstein.standard_decompose", None),
    ("eisenstein.cubic_symbol", None),
    ("eisenstein.chi_p_table", None),
    ("charspace.SupportFunction.__post_init__", None),
    ("charspace.chi_eval", None),
    ("charspace.linear_combination", None),
    ("ksum.k_direct", _observe_k_direct),
    ("counting.indicator", _observe_indicator),
    ("counting.heis_total", None),
    ("counting.enumerate_terms", None),
    ("counting.TermRecord.__init__", None),
    ("lfunctions.chi_exponent_arrays", _observe_exponents),
    ("lfunctions.l_one", None),
    ("constants.euler_product_P", None),
    ("constants.h_constants", None),
    ("constants.constant_report", None),
    ("constants.char_cancellation_profile", None),
    ("verify.run_suite", _observe_suite),
)


def _package_modules() -> list[Any]:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Per-target call counts, self time and counters while installed."""

    def __init__(self, targets: tuple[tuple[str, Callable | None], ...] = TARGETS) -> None:
        self.targets = targets
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.cache_misses: dict[str, int] = {}
        self.active: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._misses_at_start: dict[str, tuple[Any, int]] = {}

    def bump(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def __enter__(self) -> "Tracer":
        try:
            for path, observe in self.targets:
                self._install(path, observe)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        for path, (fn, start) in self._misses_at_start.items():
            self.cache_misses[path] = fn.cache_info().misses - start
        self._misses_at_start.clear()

    def _install(self, path: str, observe: Callable | None) -> None:
        modname, *attrs = path.split(".")
        owner = sys.modules.get(f"{PACKAGE}.{modname}")
        for attr in attrs[:-1]:
            owner = getattr(owner, attr, None)
        if owner is None:
            self.absent.append(path)
            return
        name = attrs[-1]
        if len(attrs) > 1:
            # a method: patch the class that defines it, and nothing else
            orig = vars(owner).get(name) if isinstance(owner, type) else None
            if orig is None:
                self.absent.append(path)
                return
            self._patch(owner, name, orig, self._wrap(path, orig, observe))
            return
        orig = getattr(owner, name, None)
        if not callable(orig):
            self.absent.append(path)
            return
        wrapper = self._wrap(path, orig, observe)
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, attr, orig, wrapper)
        if hasattr(orig, "cache_info"):
            self._misses_at_start[path] = (orig, orig.cache_info().misses)

    def _patch(self, owner: Any, attr: str, orig: Any, wrapper: Any) -> None:
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _wrap(self, path: str, orig: Callable, observe: Callable | None) -> Callable:
        self.calls[path] = 0
        self.self_s[path] = 0.0
        calls, self_s, active, stack = self.calls, self.self_s, self.active, self._stack
        clock = time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            active[path] = active.get(path, 0) + 1
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                dur = clock() - t0
                active[path] -= 1
                inner = stack.pop()
                calls[path] += 1
                self_s[path] += dur - inner
                if stack:
                    stack[-1] += dur
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        return wrapper


def cache_sizes() -> dict[str, int]:
    """Entries held by every lru_cache and every module-level ``*_cache``
    dict in the loaded heisnine modules, keyed ``module.name``."""
    out = {}
    for mod in _package_modules():
        if mod.__name__ == PACKAGE:
            continue
        short = mod.__name__[len(PACKAGE) + 1 :]
        for attr, val in vars(mod).items():
            if hasattr(val, "cache_info") and getattr(val, "__module__", None) == mod.__name__:
                out[f"{short}.{attr}"] = val.cache_info().currsize
            elif isinstance(val, dict) and attr.endswith("_cache"):
                out[f"{short}.{attr}"] = len(val)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics of one traced process


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _builds(tr: Tracer, path: str) -> int:
    # a cached table is built once per miss; without a cache, once per call
    return tr.cache_misses.get(path, tr.calls.get(path, 0))


def _calls(path: str) -> Callable[[Tracer, dict], float]:
    return lambda tr, caches: tr.calls.get(path, 0)


def _self(path: str) -> Callable[[Tracer, dict], float]:
    return lambda tr, caches: tr.self_s.get(path, 0.0)


def _count(name: str) -> Callable[[Tracer, dict], float]:
    return lambda tr, caches: tr.counters.get(name, 0)


def _share(name: str, path: str) -> Callable[[Tracer, dict], float]:
    return lambda tr, caches: _ratio(tr.counters.get(name, 0), tr.calls.get(path, 0))


def _entries(name: str) -> Callable[[Tracer, dict], float]:
    return lambda tr, caches: caches.get(name, 0)


_KD = "ksum.k_direct"
_IND = "counting.indicator"
_SF = "charspace.SupportFunction.__post_init__"
_CT = "eisenstein.chi_p_table"

# (metric name, unit, value from the tracer and the cache audit); names must
# start with a letter or digit, so the _primes module reports as primes.*
LAYER_METRICS: tuple[tuple[str, str, Callable[[Tracer, dict], float]], ...] = (
    ("primes.primes_up_to.calls", "count", _calls("_primes.primes_up_to")),
    ("primes.primes_up_to.self_s", "s", _self("_primes.primes_up_to")),
    ("primes.is_prime.calls", "count", _calls("_primes.is_prime")),
    ("primes.is_prime.self_s", "s", _self("_primes.is_prime")),
    ("eisenstein.standard_decompose.calls", "count", _calls("eisenstein.standard_decompose")),
    ("eisenstein.standard_decompose.self_s", "s", _self("eisenstein.standard_decompose")),
    ("eisenstein.standard_decompose.cache_entries", "count", _entries("eisenstein.standard_decompose")),
    ("eisenstein.cubic_symbol.calls", "count", _calls("eisenstein.cubic_symbol")),
    ("eisenstein.cubic_symbol.self_s", "s", _self("eisenstein.cubic_symbol")),
    ("eisenstein.chi_p_table.builds", "count", lambda tr, caches: _builds(tr, _CT)),
    ("eisenstein.chi_p_table.self_s", "s", _self(_CT)),
    ("eisenstein.chi_p_table.cache_entries", "count", _entries(_CT)),
    ("charspace.SupportFunction.built", "count", _calls(_SF)),
    ("charspace.SupportFunction.self_s", "s", _self(_SF)),
    ("charspace.chi_eval.calls", "count", _calls("charspace.chi_eval")),
    ("charspace.chi_eval.self_s", "s", _self("charspace.chi_eval")),
    ("charspace.linear_combination.calls", "count", _calls("charspace.linear_combination")),
    ("charspace._deltas_cached.cache_entries", "count", _entries("charspace._deltas_cached")),
    ("ksum.k_direct.calls", "count", _calls(_KD)),
    ("ksum.k_direct.self_s", "s", _self(_KD)),
    ("ksum.k_direct.small_ratio", "ratio", _share("ksum.k_direct.small", _KD)),
    ("ksum.k_direct.nonzero_ratio", "ratio", _share("ksum.k_direct.nonzero", _KD)),
    ("ksum._small_table.cache_entries", "count", _entries("ksum._small_table")),
    ("counting.indicator.calls", "count", _calls(_IND)),
    ("counting.indicator.self_s", "s", _self(_IND)),
    ("counting.indicator.one_ratio", "ratio", _share("counting.indicator.one", _IND)),
    ("counting.funnel.k_pairs", "count", _count("counting.funnel.k_pairs")),
    ("counting.funnel.indicator_calls", "count", _count("counting.funnel.indicator_calls")),
    ("counting.funnel.terms", "count", _calls("counting.TermRecord.__init__")),
    ("counting.heis_total.self_s", "s", _self("counting.heis_total")),
    ("counting.enumerate_terms.self_s", "s", _self("counting.enumerate_terms")),
    ("counting._report_cache.cache_entries", "count", _entries("counting._report_cache")),
    ("lfunctions.chi_exponent_arrays.calls", "count", _calls("lfunctions.chi_exponent_arrays")),
    ("lfunctions.chi_exponent_arrays.self_s", "s", _self("lfunctions.chi_exponent_arrays")),
    ("lfunctions.chi_exponent_arrays.elements", "count", _count("lfunctions.chi_exponent_arrays.elements")),
    ("lfunctions.l_one.calls", "count", _calls("lfunctions.l_one")),
    ("lfunctions.l_one.self_s", "s", _self("lfunctions.l_one")),
    ("constants.euler_product_P.calls", "count", _calls("constants.euler_product_P")),
    ("constants.euler_product_P.self_s", "s", _self("constants.euler_product_P")),
    ("constants.h_constants.self_s", "s", _self("constants.h_constants")),
    ("constants.constant_report.self_s", "s", _self("constants.constant_report")),
    ("constants.char_cancellation_profile.self_s", "s", _self("constants.char_cancellation_profile")),
    ("constants._grid_cache.cache_entries", "count", _entries("constants._grid_cache")),
    ("verify.run_suite.self_s", "s", _self("verify.run_suite")),
    ("verify.run_suite.checks", "count", _count("verify.run_suite.checks")),
    ("trace.absent_targets", "count", lambda tr, caches: len(tr.absent)),
)
# measured by comparing traced with untraced processes, not inside one
TRACE_OVERHEAD = ("trace.overhead_s", "s")


def layer_metrics(tr: Tracer, caches: dict[str, int]) -> dict[str, float]:
    return {name: float(get(tr, caches)) for name, _, get in LAYER_METRICS}
