#!/usr/bin/env python3
"""Record reference.json: the outputs of every operation of the default
seed, which later runs compare exact counts against byte for byte and
floats within the stated tolerances.

Record only from a commit whose outputs are trusted:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

import json
import sys
from pathlib import Path

import heisnine

import workloads

OUT = Path(__file__).resolve().parent / "reference.json"


def main() -> int:
    ref = {}
    for w in workloads.WORKLOADS:
        inputs = workloads.make_inputs(w, workloads.DEFAULT_SEED)
        state: dict = {}
        ref[w] = {}
        for op in workloads.build_ops(heisnine, w, inputs):
            out = op.run()
            fails = op.check(out, state)
            if fails:
                print(f"{op.key}: {fails}", file=sys.stderr)
                return 1
            ref[w][op.key] = op.summarize(out)
            print(op.key, file=sys.stderr)
    OUT.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
