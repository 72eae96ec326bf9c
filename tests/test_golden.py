"""Golden outputs: every case of tests/golden/regen.py gives the stdout
bytes of its file and its exit code.  After an intended change of output,
rewrite the files with that script and declare each rewritten file."""

import time

import pytest

from golden.regen import CASES, GOLDEN, capture

# CPU seconds of this process spent in the cases, so a busy machine does
# not fail the budget
BUDGET_S = 3.0
_SECONDS: dict[str, float] = {}


def _timed(name: str) -> tuple[int, bytes]:
    t0 = time.process_time()
    got = capture(CASES[name][0])
    _SECONDS[name] = time.process_time() - t0
    return got


@pytest.mark.parametrize("name", list(CASES))
def test_golden_output(name):
    code, out = _timed(name)
    assert code == CASES[name][1]
    assert out == (GOLDEN / f"{name}.txt").read_bytes()


def test_every_golden_file_has_a_case_and_every_case_a_file():
    files = {p.name for p in GOLDEN.iterdir() if p.is_file()} - {"regen.py"}
    assert files == {f"{name}.txt" for name in CASES}


def test_golden_cases_keep_their_budget():
    # runs here the cases this session has not run yet
    for name in CASES.keys() - _SECONDS.keys():
        _timed(name)
    total = sum(_SECONDS.values())
    assert total <= BUDGET_S, sorted(_SECONDS.items(), key=lambda kv: -kv[1])[:5]
