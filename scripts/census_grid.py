#!/usr/bin/env python3
"""Emit census reports over a log-spaced X grid as CSV, one row per X.

Example:
    python3 scripts/census_grid.py --x-min 1e9 --x-max 1e16 --points 20
"""

import argparse
import sys

sys.path.insert(0, "src")

from heisnine.cli import _exact_int, _weight_mode
from heisnine.counting import CountReport, heis_total, log_grid


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--x-min", type=_exact_int, default=10**9)
    ap.add_argument("--x-max", type=_exact_int, default=10**16)
    ap.add_argument("--points", type=int, default=20)
    ap.add_argument("--weight-mode", type=_weight_mode, default=None,
                    help="restrict to one mode; default emits both")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    from heisnine.counting import WeightMode

    modes = [args.weight_mode] if args.weight_mode else list(WeightMode)
    lines = [CountReport.csv_header()]
    for x in log_grid(args.x_min, args.x_max, args.points):
        for mode in modes:
            lines.append(heis_total(x, mode).to_csv_row())
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
