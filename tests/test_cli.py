"""Front-end behavior: flag parsing, exit codes, deterministic output."""

import json
import time

import pytest

from heisnine.cli import run


def _out(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_decompose_text_example(capsys):
    assert run(["decompose", "--p", "13"]) == 0
    out, _ = _out(capsys)
    assert out == "p=13 pi=-1+3j r=9\n"


def test_decompose_rejects_bad_prime(capsys):
    assert run(["decompose", "--p", "11"]) == 1
    _, err = _out(capsys)
    assert "error:" in err


def test_count_json_example(capsys):
    assert run(["count", "--x", "1000000", "--format", "json"]) == 0
    out, _ = _out(capsys)
    assert '"count":0' in out
    obj = json.loads(out)
    assert obj["x"] == 1000000
    assert obj["divisible_by_108"] is True


def test_count_scientific_notation(capsys):
    assert run(["count", "--x", "6e12", "--weight-mode", "omega-star",
                "--format", "json"]) == 0
    out, _ = _out(capsys)
    obj = json.loads(out)
    assert obj["x"] == 6 * 10**12
    assert obj["count"] == "2/3"
    assert obj["raw_total"] == 72


def test_non_integral_mantissa_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["count", "--x", "1.23e1"])
    assert exc.value.code == 2


def test_integral_mantissa_accepted(capsys):
    assert run(["count", "--x", "15e0", "--format", "json"]) == 0
    out, _ = _out(capsys)
    assert json.loads(out)["x"] == 15


def test_x_above_bound_is_domain_error(capsys):
    assert run(["count", "--x", "1e19"]) == 1
    _, err = _out(capsys)
    assert "exceeds" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--p-max", "100000000000"],
        ["--p-max", "1e11"],
        ["--delta-max", "2000000"],
        ["--delta-max", "0"],
    ],
)
def test_constant_truncation_out_of_range_is_domain_error(flags, capsys):
    # rejected by TruncationParams before the sieve is allocated
    t0 = time.monotonic()
    assert run(["constant"] + flags) == 1
    _, err = _out(capsys)
    assert err.startswith("error:") and "must be in" in err
    assert time.monotonic() - t0 < 1


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["tabulate"])
    assert exc.value.code == 2


def test_subsums_lists_all_classes(capsys):
    assert run(["subsums", "--x", "6e12", "--weight-mode", "omega-full"]) == 0
    out, _ = _out(capsys)
    lines = out.strip().splitlines()
    assert len(lines) == 14
    assert lines[0] == "C1 = 0"
    assert "C5 = 12" in lines


def test_terms_csv_and_limit(capsys):
    assert run(["terms", "--x", "6e12", "--limit", "2", "--format", "csv"]) == 0
    out, _ = _out(capsys)
    lines = out.strip().splitlines()
    assert lines[0] == "f,fp,d_class,big_d,class,weight"
    assert len(lines) == 3
    assert lines[1].startswith('3:1,"3:1,19:1"') or lines[1].startswith('"3:1"')


def test_terms_negative_limit_is_domain_error(capsys):
    assert run(["terms", "--x", "1e16", "--limit", "-1", "--format", "csv"]) == 1
    out, err = _out(capsys)
    assert out == ""
    assert "error:" in err and "limit" in err


def test_terms_json_roundtrip(capsys):
    assert run(["terms", "--x", "6e12", "--format", "json"]) == 0
    out, _ = _out(capsys)
    obj = json.loads(out)
    assert len(obj["terms"]) == 24
    assert all(t["big_d"] <= 6 * 10**12 for t in obj["terms"])


def test_ksum_text(capsys):
    assert run(["ksum", "--x", "100", "--ell", "3", "--d", "7"]) == 0
    out, _ = _out(capsys)
    assert out == "x=100 ell=3 d=7 k=21\n"


def test_ksum_large_prime_ell(capsys):
    assert run(["ksum", "--x", "100", "--ell", "1000000000039"]) == 0
    out, _ = _out(capsys)
    assert out == "x=100 ell=1000000000039 d=1 k=1\n"


def test_ksum_d_past_int64(capsys):
    d = 7 * 13 * 2**64
    assert run(["ksum", "--x", "5000", "--ell", "3", "--d", str(d)]) == 0
    out, _ = _out(capsys)
    assert out == f"x=5000 ell=3 d={d} k=877\n"


def test_symbol_text_and_zero(capsys):
    assert run(["symbol", "--p", "7", "--n", "2"]) == 0
    out, _ = _out(capsys)
    assert out == "p=7 n=2 symbol=j^1\n"
    assert run(["symbol", "--p", "7", "--n", "14", "--format", "json"]) == 0
    out, _ = _out(capsys)
    assert json.loads(out) == {"p": 7, "n": 14, "symbol": "0", "exp": None}
    assert run(["symbol", "--p", "1000000000000000003", "--n", "7"]) == 0
    out, _ = _out(capsys)
    assert out == "p=1000000000000000003 n=7 symbol=j^1\n"


def test_verify_suite_exit_zero(capsys):
    assert run(["verify", "--suite", "ksum", "--bound", "200"]) == 0
    out, _ = _out(capsys)
    assert out.startswith("suite=ksum bound=200")


def test_report_grid(capsys):
    assert run([
        "report", "--x-min", "1e12", "--x-max", "1e13", "--points", "3",
        "--format", "csv",
    ]) == 0
    out, _ = _out(capsys)
    lines = out.strip().splitlines()
    assert lines[0] == "x,count,x_quarter,ratio,c_estimate,ratio_over_c"
    assert len(lines) == 4
    assert lines[1].startswith("1000000000000,")
    assert lines[3].startswith("10000000000000,")


def test_out_flag_writes_identical_bytes(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run(["count", "--x", "3e13", "--format", "json",
                "--out", str(path)]) == 0
    assert run(["count", "--x", "3e13", "--format", "json"]) == 0
    out, _ = _out(capsys)
    assert path.read_text() == out


def test_runs_are_byte_identical(capsys):
    argv = ["count", "--x", "3e13", "--format", "csv"]
    assert run(argv) == 0
    first, _ = _out(capsys)
    assert run(argv) == 0
    second, _ = _out(capsys)
    assert first == second


def test_cache_roundtrip_changes_nothing(capsys):
    # The prime tables live only in process memory: repeated runs of a
    # verify suite, after the first has filled them, give the same bytes.
    argv = ["verify", "--suite", "reciprocity", "--bound", "300"]
    assert run(argv) == 0
    cold, _ = _out(capsys)
    assert run(argv) == 0
    warm, _ = _out(capsys)
    assert cold == warm
    assert run(argv) == 0
    again, _ = _out(capsys)
    assert again == cold


@pytest.mark.parametrize(
    "suite,bound", [("integrality", "1000"), ("subsum-identities", "1e11")]
)
def test_verify_bound_below_grid_is_domain_error(suite, bound, capsys):
    assert run(["verify", "--suite", suite, "--bound", bound]) == 1
    out, err = _out(capsys)
    assert out == ""
    assert err.startswith("error:")
