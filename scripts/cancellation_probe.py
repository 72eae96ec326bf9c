#!/usr/bin/env python3
"""Oscillation of twisted character sums over standard primes: partial sums
at several cutoffs for a few fixed exponent patterns, normalized by the
number of standard primes.  A decreasing column is the qualitative content
of the equidistribution the asymptotic depends on.

Example:
    python3 scripts/cancellation_probe.py --x-max 1e7
"""

import argparse
import sys

sys.path.insert(0, "src")

from heisnine.charspace import SupportFunction
from heisnine.cli import _exact_int
from heisnine.constants import char_cancellation_profile

PROBES = [
    ("chi(f) * [chi_7 (pi/rho_7)]",
     SupportFunction(((7, 1),)), (1, 0), {7: (1, 0)}),
    ("[chi_19 (pi/rho_19)]^2",
     SupportFunction(((19, 1),)), (0, 0), {19: (0, 1)}),
    ("chi(f) * [chi_7 (pi/rho_7)]^2 [chi_13 (pi/rho_13)]",
     SupportFunction(((7, 1), (13, 2))), (1, 0), {7: (0, 1), 13: (1, 0)}),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--x-max", type=_exact_int, default=10**7)
    args = ap.parse_args()

    checkpoints = tuple(
        x for x in (10**4, 10**5, 10**6, 10**7, 10**8) if x <= args.x_max
    )
    sys.stdout.write("pattern,x,terms,abs_sum,normalized\n")
    for label, f, eps, pattern in PROBES:
        prof = char_cancellation_profile(f, checkpoints, eps, pattern)
        for x, cs in zip(checkpoints, prof):
            sys.stdout.write(
                f"{label},{x},{cs.terms},{abs(cs.value)!r},{cs.normalized!r}\n"
            )
        sys.stdout.flush()


if __name__ == "__main__":
    main()
