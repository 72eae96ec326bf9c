#!/usr/bin/env python3
"""Cold-process benchmark for heisnine.

Every measured run of a workload is a fresh interpreter started by this one
process, one after another, with numpy held to one thread: repeats inside
one process would time the library's module caches, not its code.  Each
child times its operations and checks their outputs (child.py).  Set-up
time is also sampled from children that only import the package.

    python3 perfbench/run.py --workload census-grid --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the result holds the end-to-end metrics, medians over
the children.  With ``--trace 1`` untraced and traced children alternate,
and the result holds the per-layer metrics of the traced ones plus the
tracing overhead (traced minus untraced wall time).  The last line of
stdout is the JSON result; a readable table goes to stderr.  Run it from
the repository root, which must hold ``src/heisnine``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5  # import-only children per run, besides the workload children
MIN_CHILDREN = 2  # workload children per untraced run, even past --seconds
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit): every one is a median over the run's children
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("max_op_s", "s"),
    ("peak_rss_mb", "MB"),
)


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HEIS_CACHE_DIR", None)  # the benchmark times recomputation, never the TSV cache
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(spec: dict, env: dict[str, str]) -> dict:
    stamp = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), repr(stamp), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child {spec} ran past {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child {spec} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def wall(child: dict) -> float:
    return sum(op["seconds"] for op in child["ops"])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    t0 = time.monotonic()
    machine = run_child({"setup_only": True}, env)  # unmeasured: warms the file cache
    setups = [run_child({"setup_only": True}, env)["setup_s"] for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    t_loop = time.monotonic()
    while True:
        plain.append(run_child({"workload": workload, "seed": seed, "trace": False}, env))
        if trace:
            traced.append(run_child({"workload": workload, "seed": seed, "trace": True}, env))
        now = time.monotonic()
        per_round = (now - t_loop) / len(plain)
        enough = trace or len(plain) >= MIN_CHILDREN
        if enough and now - t0 + per_round > seconds:
            break
    children = plain + traced
    setups += [c["setup_s"] for c in children]
    ops = [op for c in children for op in c["ops"]]
    failed = [op for op in ops if not op["ok"]]
    if trace:
        metrics = {
            name: {"value": statistics.median(c["layers"][name] for c in traced), "unit": unit}
            for name, unit, _ in tracer.LAYER_METRICS
        }
        name, unit = tracer.TRACE_OVERHEAD
        overhead = statistics.median(map(wall, traced)) - statistics.median(map(wall, plain))
        metrics[name] = {"value": overhead, "unit": unit}
    else:
        per_child = {
            "wall_s": [wall(c) for c in plain],
            "max_op_s": [max(op["seconds"] for op in c["ops"]) for c in plain],
            "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
            "setup_s": setups,
        }
        metrics = {
            name: {"value": statistics.median(per_child[name]), "unit": unit}
            for name, unit in END_TO_END
        }
    report(workload, seed, machine, plain, traced, failed, len(ops), metrics)
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }


def report(workload, seed, machine, plain, traced, failed, attempted, metrics) -> None:
    """The readable summary, on stderr."""
    err = sys.stderr
    print(
        f"== {workload} seed={seed}: {len(plain)} untraced + {len(traced)} traced children; "
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={machine['numpy']}",
        file=err,
    )
    print(f"   inputs: {json.dumps(workloads.make_inputs(workload, seed))}", file=err)
    print(f"   error_rate = {len(failed)}/{attempted}", file=err)
    print("   wall_s per untraced child: " + " ".join(f"{wall(c):.3f}" for c in plain), file=err)
    for op in failed[:5]:
        print(f"   FAILED {op['key']}: {'; '.join(op['failures'])}", file=err)
    for name, m in metrics.items():
        print(f"   {name:<46} {m['value']:>14.6g} {m['unit']}", file=err)
    last = (traced or plain)[-1]
    print("   caches after the run: " + ", ".join(
        f"{k}={v}" for k, v in sorted(last["caches"].items())), file=err)
    if traced:
        if last["absent"]:
            print(f"   absent wrap targets: {', '.join(last['absent'])}", file=err)
        selfs = {k[: -len(".self_s")]: m["value"] for k, m in metrics.items() if k.endswith(".self_s")}
        modules: dict[str, float] = {}
        for k, v in selfs.items():
            modules[k.split(".")[0]] = modules.get(k.split(".")[0], 0.0) + v
        total = statistics.median(map(wall, traced))
        for label, table in (("modules", modules), ("functions", selfs)):
            top = sorted(table.items(), key=lambda kv: -kv[1])[:4]
            print(f"   dominant {label} by self time: " + ", ".join(
                f"{k} {v:.3g} s ({100 * v / total:.0f}%)" for k, v in top), file=err)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "heisnine" / "__init__.py").is_file():
        print(f"no heisnine package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: measure(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
