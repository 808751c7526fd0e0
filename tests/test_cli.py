import cmath
import itertools
import json
import re
import subprocess
import sys

import pytest

from gencheb import cli, gcn

CMD = [sys.executable, "-m", "gencheb"]


def run_cli(*args):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=300
    )


def test_cheb_u_prints_polynomial_text():
    result = run_cli("cheb", "u", "--n", "3")
    assert result.returncode == 0
    assert result.stdout == "8*x^3 - 4*x\n"


def test_cheb_t_json():
    result = run_cli("cheb", "t", "--n", "2", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload == {"schema": 1, "op": "cheb-t", "n": 2, "poly": "2*x^2 - 1"}


def test_negative_index_is_usage_error():
    result = run_cli("cheb", "u", "--n", "-1")
    assert result.returncode == 2


def test_unknown_subcommand_is_usage_error():
    result = run_cli("frobnicate")
    assert result.returncode == 2


def test_malformed_polynomial_is_usage_error():
    result = run_cli("gcn", "power", "--a", "x +", "--b", "1", "--n", "2")
    assert result.returncode == 2
    assert "error" in result.stderr


def test_gcn_power_symbolic():
    result = run_cli("gcn", "power", "--a", "-1", "--b", "2*x", "--n", "3")
    assert result.returncode == 0
    assert "a_n = -2*x" in result.stdout
    assert "b_n = 4*x^2 - 1" in result.stdout


def test_gcn_roots_json():
    result = run_cli("gcn", "roots", "--a", "1", "--b", "1", "--format", "json")
    payload = json.loads(result.stdout)
    assert payload["h_plus"] == "1/2 + 1/2*sqrt(5)"
    assert payload["degenerate"] is False


def test_euler_series_matches_cosine():
    result = run_cli("euler", "series", "--a", "-1", "--b", "0", "--phi", "0")
    assert result.returncode == 0
    assert "c = 1.0" in result.stdout
    assert "s = 0.0" in result.stdout


def test_mat_pow_requires_unimodular_for_chebyshev():
    result = run_cli(
        "mat", "pow", "--entries", "1,1;0,2", "--n", "3", "--method", "chebyshev"
    )
    assert result.returncode == 2
    assert "determinant" in result.stderr


def test_mat_decompose_complex_entries():
    result = run_cli("mat", "decompose", "--entries", "0,0:-1;0:1,0")
    assert result.returncode == 0
    assert "beta2 = 1" in result.stdout


def test_u2_series_listing():
    result = run_cli("u2", "series", "--nmax", "4")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "U2_0 = 0"
    assert lines[-1] == "U2_4 = u^3 - 2*u*v + 1"


def test_hermite3_output():
    result = run_cli("hermite3", "--n", "3")
    assert result.stdout.strip() == "x^3 + 6*x*y + 6*z"


def test_verify_subsets_pass():
    result = run_cli("cheb", "verify", "--nmax", "6")
    assert result.returncode == 0
    result = run_cli("u2", "verify", "--nmax", "6")
    assert result.returncode == 0


def test_verify_all_small_and_deterministic():
    first = run_cli("verify", "all", "--nmax", "6")
    second = run_cli("verify", "all", "--nmax", "6")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert "0 failures" in first.stdout


def test_verify_json_schema():
    result = run_cli("verify", "all", "--nmax", "6", "--format", "json")
    payload = json.loads(result.stdout)
    assert payload["schema"] == 1
    assert payload["suite"] == "all"
    assert payload["failures"] == []
    assert isinstance(payload["millis"], int)


def test_failed_verification_exits_one():
    # An impossible tolerance forces numeric-suite failures.
    result = run_cli("verify", "all", "--nmax", "6", "--tol", "1e-30")
    assert result.returncode == 1
    assert "FAIL" in result.stdout
    payload = json.loads(
        run_cli(
            "verify", "all", "--nmax", "6", "--tol", "1e-30", "--format", "json"
        ).stdout
    )
    assert payload["failures"]
    assert {"case", "expected", "actual"} == set(payload["failures"][0])


def test_seed_changes_random_draws_but_not_status():
    a = run_cli("verify", "all", "--nmax", "6", "--seed", "1")
    b = run_cli("verify", "all", "--nmax", "6", "--seed", "2")
    assert a.returncode == 0 and b.returncode == 0


def test_bench_csv_header():
    result = run_cli(
        "mat", "bench", "--n-list", "4,8", "--trials", "1", "--format", "csv"
    )
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "method,n,median_ns,max_coeff_bits"
    assert len(lines) == 5


def test_bench_json_records():
    result = run_cli(
        "mat", "bench", "--n-list", "4,8", "--trials", "1", "--format", "json"
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["schema"] == 1
    assert payload["op"] == "mat-bench"
    assert [(r["method"], r["n"]) for r in payload["records"]] == [
        ("chebyshev", 4), ("squaring", 4), ("chebyshev", 8), ("squaring", 8)
    ]
    assert all(
        set(r) == {"method", "n", "median_ns", "max_coeff_bits"}
        for r in payload["records"]
    )


@pytest.mark.parametrize(
    "args",
    [
        ("euler", "series", "--a", "-1", "--b", "0", "--phi", "1000"),
        ("euler", "series", "--a", "1e6", "--b", "0", "--phi", "1"),
        ("euler", "ode", "--a", "-1", "--b", "0", "--tol", "nan"),
        ("euler", "closed", "--a", "1", "--b", "0", "--phi", "800"),
        ("verify", "all", "--tol", "nan"),
        ("verify", "all", "--tol", "-1"),
        ("gcn", "power", "--a", "5", "--b", "5", "--n", "100000", "--method", "binet_float"),
        ("gcn", "power", "--a", "1e200", "--b", "0", "--n", "3", "--method", "binet_float"),
        ("euler", "closed", "--a", "1e300", "--b", "1e300", "--phi", "1"),
        ("euler", "series", "--a", "1e400", "--b", "0", "--phi", "1"),
        ("euler", "closed", "--a", "1e400", "--b", "0", "--phi", "1"),
        ("euler", "ode", "--a", "1e400", "--b", "0"),
        ("gcn", "roots", "--a", "1e400", "--b", "0", "--numeric"),
        ("euler", "series", "--a", "1e300", "--b", "0", "--phi", "1"),
        ("euler", "ode", "--a", "1e300", "--b", "0", "--points", "3"),
        ("gcn", "power", "--a", "(" * 1000 + "x" + ")" * 1000, "--b", "1", "--n", "2"),
        ("euler", "ode", "--a", "-1", "--b", "0", "--points", "1"),
    ],
)
def test_unanswerable_requests_are_refused(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert "error:" in result.stderr
    assert "Traceback" not in result.stderr
    if "--points" in args and int(args[args.index("--points") + 1]) < 3:
        assert "need at least 3 grid points" in result.stderr


_EXTREMES = ("0", "-1", "1e-400", "1e300", "1e400", "-1e400")
_FLOAT_FIELDS = {
    "c", "s", "max_c_residual", "max_s_residual", "h_plus_numeric", "h_minus_numeric"
}


def _extreme_requests():
    for a, b in itertools.product(_EXTREMES, repeat=2):
        unit = (f"--a={a}", f"--b={b}")
        yield ("gcn", "roots", *unit, "--numeric")
        for method in gcn.POWER_METHODS:
            yield ("gcn", "power", *unit, "--n", "3", "--method", method)
        yield ("euler", "ode", *unit, "--points", "3")
        for phi in ("0", "1", "1e300"):
            yield ("euler", "closed", *unit, f"--phi={phi}")
            if phi != "1e300":
                yield ("euler", "series", *unit, f"--phi={phi}")


def test_extreme_scalars_are_answered_finite_or_refused(capsys):
    # Exit 0 with finite floats or exit 2 with a message; accuracy is not checked.
    for args in _extreme_requests():
        code = cli.main([*args, "--format", "json"])
        out, err = capsys.readouterr()
        assert code in (0, 2), args
        if code == 2:
            assert err.startswith("error:"), args
            continue
        payload = json.loads(out)
        floats = [v for k, v in payload.items() if k in _FLOAT_FIELDS]
        if payload.get("method") == "binet_float":
            floats += [payload["a_n"], payload["b_n"]]
        assert all(cmath.isfinite(complex(v)) for v in floats), (args, payload)


_BAD_COUNTS = ("-1", "abc", "1.5", "", "1e3", "nan", "0x10")
_MATRICES = (
    "1,1;0,1", "0,0;0,0", "2,1;1,1", "0:1,0;0,0:-1", "1e400,0;0,1", "-1e400,1;-1,0",
    "1e-400,1;-1,0", "1e300:1e300,0;0,1", "1,2;3", "1,2,3;4,5", "1,2;3,4;5,6", "",
    ";", "nan,0;0,1", "inf,0;0,1", "1/0,0;0,1", "1:2:3,0;0,1", ":,0;0,1", "x,0;0,1",
)


def _sweep_requests():
    for count in ("0", "1", "5", *_BAD_COUNTS):
        for action in ("u", "t", "ab"):
            yield ("cheb", action, "--n", count)
    for count in ("1", "2", "0", *_BAD_COUNTS):
        yield ("u2", "series", "--nmax", count)
        yield ("u2", "rec", "--nmax", count)
        yield ("u2", "laplace", "--n", count)
        yield ("cheb", "verify", "--nmax", count)
        yield ("u2", "verify", "--nmax", count)
    for entries in _MATRICES:
        yield ("mat", "decompose", f"--entries={entries}")
        for method in ("squaring", "chebyshev", "general_recurrence", "bogus"):
            for n in ("0", "3", "-1"):
                yield ("mat", "pow", f"--entries={entries}", "--n", n,
                       "--method", method)
    for seed in ("-1", str(2**70)):
        yield ("verify", "all", "--nmax", "1", "--seed", seed)
    yield ("verify", "all", "--nmax", "1", "--tol", "1e300")
    for nmax in ("0", "-3", "abc"):
        yield ("verify", "all", "--nmax", nmax)
    for tol in ("0", "inf", "nan", "-1", "abc"):
        yield ("verify", "all", "--nmax", "1", "--tol", tol)
    yield ("verify", "all", "--nmax", "1", "--seed", "x")
    yield ("verify", "bogus")
    yield ("verify",)


def test_sweep_exits_zero_or_refuses(capsys):
    # Usage errors from argparse raise SystemExit(2); anything else escaping
    # cli.main is a traceback and fails the test.
    for args in _sweep_requests():
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        _, err = capsys.readouterr()
        assert code in (0, 2), args
        if code == 2:
            assert "error:" in err, args


def _in_process(capsys, *args):
    assert cli.main(list(args)) == 0
    out, _ = capsys.readouterr()
    return [line for line in out.splitlines() if not line.startswith("method =")]


def test_fast_closed_forms_print_what_the_slow_routes_print(capsys):
    # n = 2048 keeps this quick; test_results_past_the_default_digit_limit
    # prints n = 4096, whose numbers pass Python's default 4300-digit limit.
    unit = ("gcn", "power", "--a", "11/13", "--b", "7/5", "--n", "2048")
    recurrence = _in_process(capsys, *unit, "--method", "recurrence")
    assert any(line.startswith("b_n = ") for line in recurrence)
    assert recurrence == _in_process(capsys, *unit, "--method", "matrix")
    matrix = ("mat", "pow", "--entries", "2:1,1;1,4/5:-2/5", "--n", "1024")
    chebyshev = _in_process(capsys, *matrix, "--method", "chebyshev")
    assert any(line.startswith("m22 = ") for line in chebyshev)
    assert chebyshev == _in_process(capsys, *matrix, "--method", "squaring")


def test_results_past_the_default_digit_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    unit = ("gcn", "power", "--a", "11/13", "--b", "7/5")
    recurrence = _in_process(capsys, *unit, "--n", "4096", "--method", "recurrence")
    digits = re.findall(r"\d+", "\n".join(recurrence))
    assert max(map(len, digits)) > 4300
    assert recurrence == _in_process(capsys, *unit, "--n", "4096", "--method", "matrix")
    # At n = 40000 the largest numerator has about 61,000 digits, over the cap.
    code = cli.main([*unit, "--n", "40000", "--method", "recurrence"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"{cli.MAX_DIGITS} decimal digits" in err
    assert "--n" in err and "set_int_max_str_digits" not in err
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
