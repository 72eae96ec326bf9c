"""Front-end behavior: flag parsing, exit codes, deterministic output, and
the package's public names and module caches."""

import ast
import importlib
import importlib.util
import inspect
import json
import pkgutil
import sys
import time
from pathlib import Path

import pytest

import heisnine
from heisnine.cli import _PROBES, run


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


@pytest.mark.parametrize("x", ["1.23e1", "1e1000000000"])
def test_inexact_or_oversized_integer_flag_is_usage_error(x, capsys):
    # 1e1000000000 has more digits than int(str) accepts: refused before
    # any integer is built
    t0 = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        run(["count", "--x", x])
    assert exc.value.code == 2
    assert time.monotonic() - t0 < 1


@pytest.mark.parametrize(
    "argv, plain",
    [
        (["constant", "--p-max", "1000", "--delta-max", "1e2"], "100"),
        (["terms", "--x", "6e12", "--limit", "1e1"], "10"),
        (["report", "--x-min", "1e12", "--x-max", "1e13", "--points", "3e0"], "3"),
        (["ksum", "--x", "100", "--d", "7", "--ell", "3e0"], "3"),
        (["symbol", "--n", "2", "--p", "1.3e1"], "13"),
        (["decompose", "--p", "1.3e1"], "13"),
    ],
)
def test_every_integer_flag_takes_exact_scientific_notation(argv, plain, capsys):
    # the last flag's value in scientific notation, then as a plain integer,
    # then not integral
    assert run(argv) == 0
    sci = _out(capsys)
    assert run(argv[:-1] + [plain]) == 0
    assert _out(capsys) == sci
    with pytest.raises(SystemExit) as exc:
        run(argv[:-1] + ["2.5"])
    assert exc.value.code == 2


def test_report_points_past_the_grid_cap_is_domain_error(capsys):
    # log_grid refuses n > 1000 before any census or constant is computed
    t0 = time.monotonic()
    assert run(["report", "--x-min", "1e12", "--x-max", "1e13", "--points", "1001"]) == 1
    assert time.monotonic() - t0 < 1
    out, err = _out(capsys)
    assert out == "" and "error:" in err and "1000" in err


def test_report_x_past_the_bound_fails_before_the_constant(monkeypatch, capsys):
    # every X of the grid is checked before the constant pipeline or any
    # census runs; the message is the one heis_total gives
    def refuse(*args):
        raise AssertionError("constant_report was called")

    monkeypatch.setattr(heisnine.cli, "constant_report", refuse)
    t0 = time.monotonic()
    assert run(["report", "--x-min", "1e9", "--x-max", "1e19", "--points", "3"]) == 1
    assert time.monotonic() - t0 < 1
    out, err = _out(capsys)
    assert out == ""
    assert err == (
        "error: X = 10000000000000000000 exceeds the supported bound "
        "1000000000000000000\n"
    )


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


def test_constant_delta_max_above_p_max_is_domain_error(capsys):
    # refused before any report, so no tail.delta of 0.0 is printed
    assert run(["constant", "--delta-max", "2000", "--p-max", "100"]) == 1
    out, err = _out(capsys)
    assert out == ""
    assert err.startswith("error:") and "exceeds p_max" in err


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


def test_terms_limit_past_maxsize_is_no_limit(capsys):
    assert run(["terms", "--x", "1e13", "--format", "csv"]) == 0
    want, _ = _out(capsys)
    assert run(["terms", "--x", "1e13", "--limit", "1e30", "--format", "csv"]) == 0
    out, err = _out(capsys)
    assert err == ""
    assert out == want and len(out.splitlines()) > 1


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


def test_out_path_that_cannot_be_opened_is_domain_error(tmp_path, capsys):
    path = tmp_path / "missing" / "r.txt"
    assert run(["count", "--x", "1e12", "--out", str(path)]) == 1
    out, err = _out(capsys)
    assert out == ""
    assert err.startswith("error: ") and "r.txt" in err
    assert not path.exists()


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
    lo = {"integrality": 10**9, "subsum-identities": 10**12}[suite]
    assert err.startswith(f"error: suite {suite} takes a bound from {lo} to {10**18}, got ")


def test_verify_ksum_past_what_it_checks_is_domain_error(capsys):
    # refused, not run up to 3000 and reported at this bound
    assert run(["verify", "--suite", "ksum", "--bound", "1000000000"]) == 1
    out, err = _out(capsys)
    assert out == ""
    assert err == "error: suite ksum takes a bound from 1 to 3000, got 1000000000\n"


def test_verify_reciprocity_above_its_cap_is_domain_error(capsys):
    assert run(["verify", "--suite", "reciprocity", "--bound", "100001"]) == 1
    out, err = _out(capsys)
    assert out == ""
    want = "error: suite reciprocity takes a bound from 7 to 100000, got 100001\n"
    assert err == want


def test_verify_symbols_above_its_cap_is_domain_error(capsys):
    # the standard table the suite walks grows with the bound, so it stops
    # at 10^7 as reciprocity stops at 10^5
    assert run(["verify", "--suite", "symbols", "--bound", "10000001"]) == 1
    out, err = _out(capsys)
    assert out == ""
    want = "error: suite symbols takes a bound from 7 to 10000000, got 10000001\n"
    assert err == want


@pytest.mark.parametrize("bound", ["1", "2", "90"])
def test_verify_ksum_below_its_fixed_points(bound, capsys):
    assert run(["verify", "--suite", "ksum", "--bound", bound]) == 0
    out, _ = _out(capsys)
    assert out.startswith(f"suite=ksum bound={bound} ") and out.endswith("failures=0\n")


PSI_12 = 318_665_857_834_031_151_167_461  # passes Miller-Rabin to the first 12 primes


@pytest.mark.parametrize(
    "argv",
    [
        ["ksum", "--x", "100", "--ell", str(PSI_12)],
        ["decompose", "--p", str(PSI_12)],
        ["symbol", "--p", str(PSI_12), "--n", "2"],
    ],
)
def test_strong_pseudoprime_is_domain_error(argv, capsys):
    assert run(argv) == 1
    out, err = _out(capsys)
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


# the bytes of the cancellation probe at --x-max 1e6, as first recorded
PROBE_1E6 = """\
pattern,x,terms,abs_sum,normalized
chi(f) * [chi_7 (pi/rho_7)],10000,611,6.999999999999996,0.011456628477905066
chi(f) * [chi_7 (pi/rho_7)],100000,4784,26.05762844159009,0.005446828687623346
chi(f) * [chi_7 (pi/rho_7)],1000000,39231,64.8613906727317,0.001653319840756843
[chi_19 (pi/rho_19)]^2,10000,611,10.583005244258363,0.017320794180455585
[chi_19 (pi/rho_19)]^2,100000,4784,128.2926342390704,0.026817022207163543
[chi_19 (pi/rho_19)]^2,1000000,39231,200.00749985937793,0.005098200399158266
chi(f) * [chi_7 (pi/rho_7)]^2 [chi_13 (pi/rho_13)],10000,611,7.549834435270698,0.012356521170655808
chi(f) * [chi_7 (pi/rho_7)]^2 [chi_13 (pi/rho_13)],100000,4784,40.50925820105844,0.008467654306241312
chi(f) * [chi_7 (pi/rho_7)]^2 [chi_13 (pi/rho_13)],1000000,39231,133.91041781729152,0.003413382728385499
"""


def test_probe_csv_bytes(capsys):
    assert run(["probe", "--x-max", "1e6"]) == 0
    out, _ = _out(capsys)
    assert out == PROBE_1E6
    assert run(["probe", "--x-max", "999999"]) == 0
    out, _ = _out(capsys)
    assert out == "".join(line for line in PROBE_1E6.splitlines(True) if ",1000000," not in line)


@pytest.mark.parametrize("x_max", ["9999", "0", "-5"])
def test_probe_below_the_first_cutoff_is_domain_error(x_max, capsys):
    assert run(["probe", "--x-max", x_max]) == 1
    out, err = _out(capsys)
    assert out == ""
    assert err.startswith("error:")


def test_probe_non_integral_x_max_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["probe", "--x-max", "12345.5"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, text, csv, json_text",
    [
        (["decompose", "--p", "7"], "p=7 pi=2+3j r=4", "p,pi,r\n7,2+3j,4",
         '{"p":7,"pi":"2+3j","a":2,"b":3,"r":4}'),
        (["ksum", "--x", "100", "--ell", "3"], "x=100 ell=3 d=1 k=27",
         "x,ell,d,k\n100,3,1,27", '{"x":100,"ell":3,"d":1,"k":27}'),
        (["symbol", "--p", "7", "--n", "3"], "p=7 n=3 symbol=j^2",
         "p,n,symbol\n7,3,j^2", '{"p":7,"n":3,"symbol":"j^2","exp":2}'),
        (["symbol", "--p", "7", "--n", "14"], "p=7 n=14 symbol=0",
         "p,n,symbol\n7,14,0", '{"p":7,"n":14,"symbol":"0","exp":null}'),
    ],
)
def test_record_bytes_in_every_format(argv, text, csv, json_text, capsys):
    for fmt, want in (("text", text), ("csv", csv), ("json", json_text)):
        assert run(argv + ["--format", fmt]) == 0
        out, _ = _out(capsys)
        assert out == want + "\n"


def test_verify_json_bytes(capsys):
    assert run(["verify", "--suite", "ksum", "--bound", "200", "--format", "json"]) == 0
    out, _ = _out(capsys)
    assert out == '{"suite":"ksum","bound":200,"checks":47,"failures":[]}\n'


def test_benchmark_probes_are_the_cli_probes(monkeypatch):
    # the benchmark's prime-walk keeps its own copy of the probe patterns
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    # registered first: its dataclass looks up its own module
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    assert mod.PROBES == _PROBES


def test_public_names():
    assert sorted(heisnine.__all__) == [
        "CancellationSum", "CharValue", "ConstantReport", "CountReport",
        "EisensteinInt", "ROOT", "SUITE_NAMES", "StandardPrime", "SubsumClass",
        "SuiteResult", "SupportFunction", "TermRecord", "TruncationParams",
        "WeightMode", "X_MAX", "ZERO", "alpha_ell", "char_cancellation_profile",
        "chi_nine", "chi_p", "conductor", "constant_report", "cubic_symbol",
        "delta", "enumerate_deltas", "enumerate_terms", "euler_product_P",
        "h_constants", "heis_subsum", "heis_total", "indicator", "k_direct",
        "psi_ell", "run_suite", "standard_decompose", "standard_primes_up_to",
    ]
    # every __all__ entry of every module resolves, so no star import breaks
    mods = [heisnine] + [
        importlib.import_module(f"heisnine.{info.name}")
        for info in pkgutil.iter_modules(heisnine.__path__)
    ]
    for mod in mods:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("heisnine.lfunctions")


def test_no_module_cache_grows_with_every_call():
    # every functools cache has a finite maxsize or wraps a function of no
    # parameters, and the chi_p tables are held to a byte bound instead; no
    # module holds a cache dict of its own
    caches, by_bytes, dicts = [], [], []
    for info in pkgutil.iter_modules(heisnine.__path__):
        mod = importlib.import_module(f"heisnine.{info.name}")
        for attr, val in vars(mod).items():
            name = f"{info.name}.{attr}"
            if hasattr(val, "cache_info") and val.__module__ == mod.__name__:
                caches.append(name)
                params = inspect.signature(val).parameters
                held = val.cache_info()
                if hasattr(held, "maxbytes"):
                    by_bytes.append(name)
                    assert held.maxbytes == 32 * 2**20, name
                    assert held.currbytes <= held.maxbytes, name
                else:
                    assert held.maxsize is not None or not params, name
            elif isinstance(val, dict) and attr.endswith("_cache"):
                dicts.append(name)
    assert {"constants._grids", "counting._census"} <= set(caches)
    assert by_bytes == ["eisenstein.chi_p_table"]
    assert dicts == []


def test_only_cli_imports_json_or_csv():
    # every report's bytes are decided in cli: the library's reports carry
    # values and no other module imports a serializer
    importers = set()
    for path in Path(heisnine.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if {n.split(".")[0] for n in names} & {"json", "csv"}:
                importers.add(path.stem)
    assert importers == {"cli"}
