#!/usr/bin/env python3
"""Convergence study for the constant pipeline: one JSON report per
truncation setting, showing how c(Heis_3) moves as the cutoffs grow.

Example:
    python3 scripts/constant_table.py --delta-max 500 1000 2000 --p-max 1e6
"""

import argparse
import sys

sys.path.insert(0, "src")

from heisnine.cli import _exact_int
from heisnine.constants import TruncationParams, constant_report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta-max", type=int, nargs="+", default=[500, 1000, 2000])
    ap.add_argument("--p-max", type=_exact_int, default=10**6)
    args = ap.parse_args()

    for dm in args.delta_max:
        rep = constant_report(TruncationParams(dm, args.p_max))
        sys.stdout.write(rep.to_json() + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
