"""Golden outputs of the command line: one file of stdout bytes per case.

CASES maps each case name to its argv and the exit code it must give;
tests/test_golden.py runs every case through ``cli.run`` in-process and
compares its stdout with ``<name>.txt`` byte for byte.

Run this file to rewrite the golden files from the current tree:

    PYTHONPATH=src python tests/golden/regen.py

It refuses to write when a case's exit code differs from CASES, removes
the files no case reads, and prints the name of every file it changed.
A change that rewrites a file declares it, since the bytes of a report
are part of its answer.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from heisnine import SUITE_NAMES
from heisnine.cli import run

GOLDEN = Path(__file__).resolve().parent

_X18 = ["--x", "1e18"]
_MODES = {"full": "omega-full", "star": "omega-star"}
_FORMATS = ("json", "csv", "text")

CASES: dict[str, tuple[list[str], int]] = {}
for _cmd in ("count", "subsums"):
    for _m, _mode in _MODES.items():
        for _f in _FORMATS:
            CASES[f"{_cmd}-1e18-{_m}-{_f}"] = (
                [_cmd, *_X18, "--weight-mode", _mode, "--format", _f], 0
            )
for _f in _FORMATS:
    CASES[f"terms-1e14-{_f}"] = (["terms", "--x", "1e14", "--format", _f], 0)
CASES["terms-1e18-csv"] = (["terms", *_X18, "--format", "csv"], 0)
for _t in ("300", "1729"):
    for _f in ("json", "text"):
        CASES[f"constant-{_t}-{_f}"] = (
            ["constant", "--delta-max", _t, "--p-max", _t, "--format", _f], 0
        )
CASES["constant-default-json"] = (["constant", "--format", "json"], 0)
for _f in _FORMATS:
    CASES[f"ksum-{_f}"] = (["ksum", "--x", "100", "--ell", "3", "--d", "7", "--format", _f], 0)
    CASES[f"symbol-{_f}"] = (["symbol", "--p", "13", "--n", "2", "--format", _f], 0)
    CASES[f"symbol-zero-{_f}"] = (["symbol", "--p", "7", "--n", "14", "--format", _f], 0)
    CASES[f"decompose-{_f}"] = (["decompose", "--p", "13", "--format", _f], 0)
    CASES[f"report-{_f}"] = (
        ["report", "--x-min", "1e12", "--x-max", "1e16", "--points", "9", "--format", _f], 0
    )
CASES["probe-1e5"] = (["probe", "--x-max", "1e5"], 0)
# every suite at its default bound
for _s in SUITE_NAMES:
    for _f in ("json", "text"):
        CASES[f"verify-{_s}-{_f}"] = (["verify", "--suite", _s, "--format", _f], 0)
# one past the reciprocity suite's largest bound: a domain error, no stdout
CASES["verify-reciprocity-out-of-range"] = (
    ["verify", "--suite", "reciprocity", "--bound", "100001"], 1
)


def capture(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout bytes of one in-process run; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue().encode("utf-8")


def main() -> int:
    outputs = {}
    for name, (argv, want) in CASES.items():
        code, outputs[name] = capture(argv)
        if code != want:
            print(f"{name}: exit {code}, the case says {want}; nothing written", file=sys.stderr)
            return 1
    for name, data in outputs.items():
        path = GOLDEN / f"{name}.txt"
        if not path.is_file() or path.read_bytes() != data:
            path.write_bytes(data)
            print(f"wrote {path.name}")
    for path in GOLDEN.glob("*.txt"):
        if path.stem not in CASES:
            path.unlink()
            print(f"removed {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
