"""Command line front end.

Every subcommand writes one deterministic report to stdout (or --out) and
exits 0 on success, 1 on a domain error, 2 on a usage error.  Identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass
from decimal import Decimal, InvalidOperation

from .charspace import SupportFunction
from .constants import TruncationParams, char_cancellation_profile, constant_report
from .counting import (
    CountReport,
    WeightMode,
    _check_mode,
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


def _count_text(rep: CountReport, fmt: str, subsums_only: bool) -> str:
    if fmt == "json":
        return rep.to_json()
    if fmt == "csv":
        return rep.csv_header() + "\n" + rep.to_csv_row()
    if subsums_only:
        return "\n".join(f"{c.name} = {rep.subsums[c]}" for c in rep.subsums)
    return rep.to_text()


def _terms_text(args: argparse.Namespace) -> str:
    records = list(enumerate_terms(args.x, args.weight_mode, args.limit))
    if args.format == "json":
        obj = {
            "x": args.x,
            "weight_mode": args.weight_mode.value,
            "terms": [
                {
                    "f": str(t.f),
                    "fp": str(t.fp),
                    "d_class": t.d_class,
                    "big_d": t.big_d,
                    "class": t.cls.name,
                    "weight": t.weight,
                }
                for t in records
            ],
        }
        return json.dumps(obj, separators=(",", ":"))
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["f", "fp", "d_class", "big_d", "class", "weight"])
        for t in records:
            w.writerow([t.f, t.fp, t.d_class, t.big_d, t.cls.name, t.weight])
        return buf.getvalue().rstrip("\n")
    lines = [
        f"f={t.f} fp={t.fp} d_class={t.d_class} D={t.big_d} "
        f"class={t.cls.name} weight={t.weight}"
        for t in records
    ]
    lines.append(f"total_terms = {len(records)}")
    return "\n".join(lines)


def _record(obj: dict, keys: tuple[str, ...], fmt: str) -> str:
    """obj as compact JSON, or its keys as CSV header and row, or as k=v text."""
    if fmt == "json":
        return json.dumps(obj, separators=(",", ":"))
    vals = [str(obj[k]) for k in keys]
    if fmt == "csv":
        return ",".join(keys) + "\n" + ",".join(vals)
    return " ".join(f"{k}={v}" for k, v in zip(keys, vals))


def _symbol_text(p: int, n: int, fmt: str) -> str:
    v = chi_p(p, n)
    obj = {"p": p, "n": n, "symbol": "0" if v.is_zero else f"j^{v.exp}", "exp": v.exp}
    return _record(obj, ("p", "n", "symbol"), fmt)


def _decompose_text(p: int, fmt: str) -> str:
    sp = standard_decompose(p)
    obj = {"p": p, "pi": str(sp.pi), "a": sp.pi.a, "b": sp.pi.b, "r": sp.r}
    return _record(obj, ("p", "pi", "r"), fmt)


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
    lines = ["pattern,x,terms,abs_sum,normalized"]
    for label, entries, eps, pattern in _PROBES:
        prof = char_cancellation_profile(SupportFunction(entries), checkpoints, eps, pattern)
        for x, cs in zip(checkpoints, prof):
            lines.append(f"{label},{x},{cs.terms},{abs(cs.value)!r},{cs.normalized!r}")
    return "\n".join(lines)


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


RATIO_CSV_HEADER = "x,count,x_quarter,ratio,c_estimate,ratio_over_c"


def ratio_report(
    x_values: list[int],
    mode: WeightMode = WeightMode.OMEGA_FULL,
    c_estimate: float | None = None,
) -> list[RatioRow]:
    """count(X) / X^(1/4) along a grid, against the predicted constant (by
    default c_heis3 at the default truncation).  Every X and the mode are
    checked as heis_total checks them before any constant is computed."""
    _check_mode(mode)
    for x in x_values:
        _check_x(x)
    if c_estimate is None:
        c_estimate = constant_report().c_heis3
    rows = []
    for x in x_values:
        count = float(heis_total(x, mode).count)
        xq = x**0.25
        ratio = count / xq
        rows.append(RatioRow(x, count, xq, ratio, c_estimate, ratio / c_estimate))
    return rows


def ratio_csv(rows: list[RatioRow]) -> str:
    out = [RATIO_CSV_HEADER]
    for r in rows:
        out.append(
            f"{r.x},{r.count!r},{r.x_quarter!r},{r.ratio!r},"
            f"{r.c_estimate!r},{r.ratio_over_c!r}"
        )
    return "\n".join(out)


def _ratio_text(args: argparse.Namespace) -> str:
    rows = log_grid(args.x_min, args.x_max, args.points)
    out = ratio_report(rows, args.weight_mode)
    if args.format == "json":
        return json.dumps([asdict(r) for r in out], separators=(",", ":"))
    return ratio_csv(out)


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("count", "subsums"):
            rep = heis_total(args.x, args.weight_mode)
            _emit(_count_text(rep, args.format, args.command == "subsums"), args.out)
        elif args.command == "terms":
            _emit(_terms_text(args), args.out)
        elif args.command == "constant":
            params = TruncationParams(args.delta_max, args.p_max)
            rep = constant_report(params)
            _emit(rep.to_json() if args.format == "json" else rep.to_text(), args.out)
        elif args.command == "ksum":
            obj = {"x": args.x, "ell": args.ell, "d": args.d}
            obj["k"] = k_direct(args.x, args.ell, args.d)
            _emit(_record(obj, tuple(obj), args.format), args.out)
        elif args.command == "symbol":
            _emit(_symbol_text(args.p, args.n, args.format), args.out)
        elif args.command == "decompose":
            _emit(_decompose_text(args.p, args.format), args.out)
        elif args.command == "verify":
            res = run_suite(args.suite, args.bound)
            obj = {"suite": res.suite, "bound": res.bound, "checks": res.checks,
                   "failures": list(res.failures)}
            text = _record(obj, (), "json") if args.format == "json" else res.to_text()
            _emit(text, args.out)
            if not res.ok:
                return 1
        elif args.command == "probe":
            _emit(_probe_text(args.x_max), args.out)
        elif args.command == "report":
            _emit(_ratio_text(args), args.out)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
