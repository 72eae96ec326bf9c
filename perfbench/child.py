"""One measured process: import heisnine, run one workload, check it.

Started by run.py as ``python3 child.py SPAWN_STAMP SPEC_JSON``.  SPAWN_STAMP
is the parent's ``time.monotonic()`` just before the start, so set-up time
covers interpreter start through ``import heisnine``.  The last line of
stdout is one JSON object with the per-operation timings and checks, the
peak resident set size, the cache audit and, when traced, the layer
metrics.
"""

import sys
import time

import heisnine

SETUP_S = time.monotonic() - float(sys.argv[1])

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def main() -> None:
    spec = json.loads(sys.argv[2])
    result: dict = {"setup_s": SETUP_S}
    if spec.get("setup_only"):
        import numpy

        result["numpy"] = numpy.__version__
        print(json.dumps(result))
        return
    workload = spec["workload"]
    inputs = workloads.make_inputs(workload, spec["seed"])
    ops = workloads.build_ops(heisnine, workload, inputs)
    reference = json.loads(REFERENCE.read_text()).get(workload, {})
    if spec["trace"]:
        with tracer.Tracer() as tr:
            result["ops"] = workloads.run_ops(ops, reference)
    else:
        result["ops"] = workloads.run_ops(ops, reference)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    caches = tracer.cache_sizes()
    result["caches"] = caches
    if spec["trace"]:
        result["layers"] = tracer.layer_metrics(tr, caches)
        result["absent"] = tr.absent
    print(json.dumps(result))


if __name__ == "__main__":
    main()
