"""Command line front end.

Every subcommand writes one deterministic report to stdout (or --out) and
exits 0 on success, 1 on a domain error, 2 on a usage error.  Identical
invocations produce byte-identical output.  The library's reports carry
values only: every byte of JSON, CSV and text is decided in this module,
and tests/golden pins them.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, astuple, dataclass, fields
from decimal import Decimal, InvalidOperation
from math import isfinite
from numbers import Real
from typing import Callable, Iterable

from ._primes import check_type
from .charspace import SupportFunction
from .constants import TruncationParams, char_cancellation_profile, constant_report
from .counting import (
    CountReport,
    WeightMode,
    _check_x,
    enumerate_terms,
    heis_total,
    log_grid,
)
from .eisenstein import chi_p, standard_decompose
from .ksum import k_direct
from .verify import SUITE_NAMES, run_suite

__all__ = ["main", "run"]


def _exact_int(text: str) -> int:
    """Integer flag parser; scientific notation is accepted when the value
    is exactly integral (6e12 yes, 1.23e1 no)."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        d = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not d.is_finite() or d != d.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an exact integer: {text!r}")
    # more digits than int(str) accepts (0: no limit); int(d) would build
    # the whole integer first, and the reports could not print it
    limit = sys.get_int_max_str_digits()
    if d and 0 < limit <= d.adjusted():
        raise argparse.ArgumentTypeError(f"integer too large: {text!r}")
    return int(d)


def _weight_mode(text: str) -> WeightMode:
    for m in WeightMode:
        if m.value == text:
            return m
    raise argparse.ArgumentTypeError(f"unknown weight mode {text!r}")


def _add_common(sp: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    sp.add_argument("--format", choices=formats, default="text")
    sp.add_argument("--out", default=None, help="write the report to this file")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heisnine",
        description="census and constant pipeline for nonic Heisenberg fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("count", "subsums"):
        sp = sub.add_parser(name)
        sp.add_argument("--x", type=_exact_int, required=True)
        sp.add_argument(
            "--weight-mode", type=_weight_mode, default=WeightMode.OMEGA_FULL
        )
        _add_common(sp, ("json", "csv", "text"))

    sp = sub.add_parser("terms")
    sp.add_argument("--x", type=_exact_int, required=True)
    sp.add_argument("--limit", type=_exact_int, default=None)
    sp.add_argument("--weight-mode", type=_weight_mode, default=WeightMode.OMEGA_FULL)
    _add_common(sp, ("json", "csv", "text"))

    sp = sub.add_parser("constant")
    sp.add_argument("--delta-max", type=_exact_int, default=2000)
    sp.add_argument("--p-max", type=_exact_int, default=10**6)
    _add_common(sp, ("json", "text"))

    sp = sub.add_parser("ksum")
    sp.add_argument("--x", type=_exact_int, required=True)
    sp.add_argument("--ell", type=_exact_int, required=True)
    sp.add_argument("--d", type=_exact_int, default=1)
    _add_common(sp, ("json", "csv", "text"))

    sp = sub.add_parser("symbol")
    sp.add_argument("--p", type=_exact_int, required=True)
    sp.add_argument("--n", type=_exact_int, required=True)
    _add_common(sp, ("json", "csv", "text"))

    sp = sub.add_parser("decompose")
    sp.add_argument("--p", type=_exact_int, required=True)
    _add_common(sp, ("json", "csv", "text"))

    sp = sub.add_parser("verify")
    sp.add_argument("--suite", choices=SUITE_NAMES, required=True)
    sp.add_argument("--bound", type=_exact_int, default=None)
    _add_common(sp, ("json", "text"))

    sp = sub.add_parser("probe")
    sp.add_argument("--x-max", type=_exact_int, default=10**7)
    sp.add_argument("--out", default=None, help="write the report to this file")

    sp = sub.add_parser("report")
    sp.add_argument("--x-min", type=_exact_int, required=True)
    sp.add_argument("--x-max", type=_exact_int, required=True)
    sp.add_argument("--points", type=_exact_int, required=True)
    sp.add_argument("--weight-mode", type=_weight_mode, default=WeightMode.OMEGA_FULL)
    _add_common(sp, ("json", "csv", "text"))

    return ap


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# rendering: one JSON dumper, one CSV writer, and two text layouts


def _json(obj: object) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _cell(v: object) -> str:
    """A value as CSV and text print it, booleans spelled as in JSON."""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _csv(header: Iterable[str], rows: Iterable[Iterable[object]]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(map(_cell, row) for row in rows)
    return buf.getvalue().rstrip("\n")


def _lines(rec: dict) -> str:
    """key = value lines."""
    return "\n".join(f"{k} = {_cell(v)}" for k, v in rec.items())


def _line(rec: dict) -> str:
    """A k=v one-liner."""
    return " ".join(f"{k}={_cell(v)}" for k, v in rec.items())


# prefix of a nested record's keys when flattened: subsums keep their class
# names, tails print as tail.<name>, any other record as <name>.<key>
_PREFIX = {"subsums": "", "tails": "tail."}


def _record(
    rec: dict, fmt: str, text: Callable[[dict], str] = _lines, keys: tuple[str, ...] = ()
) -> str:
    """rec as compact JSON; or flattened one level, cut to keys if given,
    as a CSV header and row or as text."""
    if fmt == "json":
        return _json(rec)
    flat = {}
    for k, v in rec.items():
        if isinstance(v, dict):
            pre = _PREFIX.get(k, f"{k}.")
            flat.update((pre + kk, vv) for kk, vv in v.items())
        else:
            flat[k] = v
    if keys:
        flat = {k: flat[k] for k in keys}
    if fmt == "csv":
        return _csv(flat, [flat.values()])
    return text(flat)


def _count_record(rep: CountReport) -> dict:
    return {
        "x": rep.x,
        "weight_mode": rep.weight_mode.value,
        "raw_total": rep.raw_total,
        # an integer where 108 divides the raw total, else "p/q"
        "count": int(rep.count) if rep.divisible_by_108 else str(rep.count),
        "divisible_by_108": rep.divisible_by_108,
        "subsums": {c.name: v for c, v in rep.subsums.items()},
    }


_TERM_KEYS = ("f", "fp", "d_class", "big_d", "class", "weight")


def _terms_text(args: argparse.Namespace) -> str:
    rows = [
        (str(t.f), str(t.fp), t.d_class, t.big_d, t.cls.name, t.weight)
        for t in enumerate_terms(args.x, args.weight_mode, args.limit)
    ]
    if args.format == "json":
        terms = [dict(zip(_TERM_KEYS, r)) for r in rows]
        return _json({"x": args.x, "weight_mode": args.weight_mode.value, "terms": terms})
    if args.format == "csv":
        return _csv(_TERM_KEYS, rows)
    # the text says D for big_d
    keys = ["D" if k == "big_d" else k for k in _TERM_KEYS]
    lines = [_line(dict(zip(keys, r))) for r in rows]
    lines.append(_lines({"total_terms": len(rows)}))
    return "\n".join(lines)


# (label, support entries, (eps1, eps2), exponent pattern) of each probe
_PROBES = (
    ("chi(f) * [chi_7 (pi/rho_7)]", ((7, 1),), (1, 0), {7: (1, 0)}),
    ("[chi_19 (pi/rho_19)]^2", ((19, 1),), (0, 0), {19: (0, 1)}),
    ("chi(f) * [chi_7 (pi/rho_7)]^2 [chi_13 (pi/rho_13)]",
     ((7, 1), (13, 2)), (1, 0), {7: (0, 1), 13: (1, 0)}),
)


def _probe_text(x_max: int) -> str:
    """CSV of |sum| and |sum| / terms for twisted character sums over the
    standard primes, at the cutoffs 10^4, ..., 10^8 up to x_max."""
    checkpoints = tuple(10**k for k in range(4, 9) if 10**k <= x_max)
    if not checkpoints:
        raise ValueError(f"x-max must be at least 10000, got {x_max}")
    rows = []
    for label, entries, eps, pattern in _PROBES:
        prof = char_cancellation_profile(SupportFunction(entries), checkpoints, eps, pattern)
        rows += [
            (label, x, cs.terms, abs(cs.value), cs.normalized)
            for x, cs in zip(checkpoints, prof)
        ]
    return _csv(("pattern", "x", "terms", "abs_sum", "normalized"), rows)


# ---------------------------------------------------------------------------
# census-to-constant comparison grid


@dataclass(frozen=True)
class RatioRow:
    x: int
    count: float
    x_quarter: float
    ratio: float
    c_estimate: float
    ratio_over_c: float


def ratio_report(
    x_values: list[int],
    mode: WeightMode = WeightMode.OMEGA_FULL,
    c_estimate: float | None = None,
) -> list[RatioRow]:
    """count(X) / X^(1/4) along a grid, against the predicted constant (by
    default c_heis3 at the default truncation).  Every X and the mode are
    checked as heis_total checks them, and a given c_estimate must be a
    real number (not a bool, else TypeError) that is positive and finite
    (else ValueError), all before any census or constant is computed."""
    check_type(mode, WeightMode, "mode")
    for x in x_values:
        _check_x(x)
    if c_estimate is None:
        c_estimate = constant_report().c_heis3
    elif isinstance(c_estimate, bool) or not isinstance(c_estimate, Real):
        raise TypeError(f"c_estimate must be a real number, got {c_estimate!r}")
    elif not (isfinite(c_estimate) and c_estimate > 0):
        raise ValueError(f"c_estimate must be positive and finite, got {c_estimate!r}")
    rows = []
    for x in x_values:
        count = float(heis_total(x, mode).count)
        xq = x**0.25
        ratio = count / xq
        rows.append(RatioRow(x, count, xq, ratio, c_estimate, ratio / c_estimate))
    return rows


def _ratio_text(args: argparse.Namespace) -> str:
    rows = ratio_report(log_grid(args.x_min, args.x_max, args.points), args.weight_mode)
    if args.format == "json":
        return _json([asdict(r) for r in rows])
    # the text is the CSV too
    return _csv([f.name for f in fields(RatioRow)], map(astuple, rows))


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    code = 0
    try:
        if args.command in ("count", "subsums"):
            rec = _count_record(heis_total(args.x, args.weight_mode))
            if args.command == "subsums" and args.format == "text":
                text = _lines(rec["subsums"])
            else:
                text = _record(rec, args.format)
        elif args.command == "terms":
            text = _terms_text(args)
        elif args.command == "constant":
            rep = constant_report(TruncationParams(args.delta_max, args.p_max))
            text = _record(asdict(rep), args.format)
        elif args.command == "ksum":
            rec = {"x": args.x, "ell": args.ell, "d": args.d}
            rec["k"] = k_direct(args.x, args.ell, args.d)
            text = _record(rec, args.format, _line)
        elif args.command == "symbol":
            v = chi_p(args.p, args.n)
            sym = "0" if v.is_zero else f"j^{v.exp}"
            rec = {"p": args.p, "n": args.n, "symbol": sym, "exp": v.exp}
            text = _record(rec, args.format, _line, ("p", "n", "symbol"))
        elif args.command == "decompose":
            sp = standard_decompose(args.p)
            rec = {"p": args.p, "pi": str(sp.pi), "a": sp.pi.a, "b": sp.pi.b, "r": sp.r}
            text = _record(rec, args.format, _line, ("p", "pi", "r"))
        elif args.command == "verify":
            res = run_suite(args.suite, args.bound)
            rec = asdict(res)
            if args.format == "json":
                text = _json(rec)
            else:
                head = _line(rec | {"failures": len(res.failures)})
                text = "\n".join([head, *res.failures])
            code = 0 if res.ok else 1
        elif args.command == "probe":
            text = _probe_text(args.x_max)
        else:
            text = _ratio_text(args)
        _emit(text, args.out)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
