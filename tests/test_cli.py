import argparse
import cmath
import itertools
import json
import random
import re
import shlex
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gencheb import cli, gcn, pauli


def _reply(capsys, args):
    """``cli.main(args)`` in this process: its exit code, stdout and stderr.

    argparse's ``SystemExit`` becomes the exit code; any other exception
    escapes and fails the test, as a traceback would.
    """
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_cheb_t_json(capsys):
    assert _reply(capsys, ("cheb", "t", "--n", "2", "--format", "json")) == (
        0, '{"schema": 1, "op": "cheb-t", "n": 2, "poly": "2*x^2 - 1"}\n', ""
    )


_USAGE_ERROR = (
    "usage: gencheb cheb u [-h] --n N [--format {text,json}]\n"
    "gencheb cheb u: error: argument --n: value must be non-negative\n"
)


def test_negative_index_is_usage_error(capsys):
    assert _reply(capsys, ("cheb", "u", "--n", "-1")) == (2, "", _USAGE_ERROR)


def test_unknown_subcommand_is_usage_error(capsys):
    code, out, err = _reply(capsys, ("frobnicate",))
    assert (code, out) == (2, "")
    assert err.startswith("usage: gencheb [-h] ")
    assert "gencheb: error: argument command: invalid choice: 'frobnicate'" in err


def test_malformed_polynomial_is_usage_error(capsys):
    assert _reply(capsys, ("gcn", "power", "--a", "x +", "--b", "1", "--n", "2")) == (
        2, "", "error: expected a factor (offset 3)\n"
    )


def test_superscript_digit_is_refused_with_its_offset(capsys):
    assert _reply(capsys, ("gcn", "power", "--a", "x^²", "--b", "1", "--n", "2")) == (
        2, "", "error: expected digits (offset 2)\n"
    )


def test_gcn_roots_json(capsys):
    assert _reply(capsys, ("gcn", "roots", "--a", "1", "--b", "1", "--format", "json")) == (
        0,
        '{"schema": 1, "op": "gcn-roots", "h_plus": "1/2 + 1/2*sqrt(5)", '
        '"h_minus": "1/2 - 1/2*sqrt(5)", "degenerate": false}\n',
        "",
    )


def test_euler_series_matches_cosine(capsys):
    assert _reply(capsys, ("euler", "series", "--a", "-1", "--b", "0", "--phi", "0")) == (
        0, "op = euler-series\nphi = 0.0\nc = 1.0\ns = 0.0\nterms = 1\n", ""
    )


def test_mat_pow_requires_unimodular_for_chebyshev(capsys):
    args = ("mat", "pow", "--entries", "1,1;0,2", "--n", "3", "--method", "chebyshev")
    assert _reply(capsys, args) == (
        2, "", "error: the Chebyshev closed form needs determinant 1, got 2\n"
    )


def test_mat_decompose_complex_entries(capsys):
    assert _reply(capsys, ("mat", "decompose", "--entries", "0,0:-1;0:1,0")) == (
        0,
        "op = mat-decompose\nalpha = 0\nbeta1 = 0\nbeta2 = 1\nbeta3 = 0\ngamma = 1\n",
        "",
    )


def test_u2_series_listing(capsys):
    assert _reply(capsys, ("u2", "series", "--nmax", "4")) == (
        0, "U2_0 = 0\nU2_1 = 1\nU2_2 = u\nU2_3 = u^2 - v\nU2_4 = u^3 - 2*u*v + 1\n", ""
    )


def test_verify_subsets_pass(capsys):
    # At nmax 32 cheb-numeric evaluates U_32 and T_32 exactly at each of its
    # 50 binary64 points.
    for suite, nmax in (("cheb", "6"), ("u2", "6"), ("cheb", "32")):
        code, out, err = _reply(capsys, (suite, "verify", "--nmax", nmax))
        assert (code, err) == (0, ""), (suite, nmax)
        assert re.fullmatch(r"TOTAL \d+ cases, 0 failures", out.splitlines()[-1]), out


# test_criterion_8_cli pins the same through two interpreter launches.
def test_verify_all_small_and_deterministic(capsys):
    first = _reply(capsys, ("verify", "all", "--nmax", "6"))
    assert first[0] == 0 and first[2] == ""
    assert first[1].endswith(" cases, 0 failures\n")
    assert _reply(capsys, ("verify", "all", "--nmax", "6")) == first


def test_verify_json_schema(capsys):
    code, out, err = _reply(capsys, ("verify", "all", "--nmax", "6", "--format", "json"))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["suite"] == "all"
    assert payload["failures"] == []
    assert isinstance(payload["millis"], int)


def test_failed_verification_exits_one(capsys):
    # An impossible tolerance forces numeric-suite failures.
    request = ("verify", "all", "--nmax", "6", "--tol", "1e-30")
    code, out, err = _reply(capsys, request)
    assert (code, err) == (1, "")
    assert "FAIL" in out
    code, out, err = _reply(capsys, (*request, "--format", "json"))
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["failures"]
    assert {"case", "expected", "actual"} == set(payload["failures"][0])


def test_seed_changes_random_draws_but_not_status(capsys):
    for nmax, seeds in (("6", "12"), ("32", "123")):
        for seed in seeds:
            code = _reply(capsys, ("verify", "all", "--nmax", nmax, "--seed", seed))[0]
            assert code == 0, (nmax, seed)


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
        ("gcn", "roots", "--a", "1e700", "--b", "0", "--numeric"),
        ("euler", "series", "--a", "1e300", "--b", "0", "--phi", "1"),
        ("euler", "ode", "--a", "1e300", "--b", "0", "--points", "3"),
        ("gcn", "power", "--a", "(" * 1000 + "x" + ")" * 1000, "--b", "1", "--n", "2"),
        ("euler", "ode", "--a", "-1", "--b", "0", "--points", "1"),
        ("euler", "ode", "--a", "1e300", "--b", "1e300", "--lo", "0", "--hi", "1e-300",
         "--points", "3"),
    ],
)
def test_unanswerable_requests_are_refused(capsys, args):
    code, out, err = _reply(capsys, args)
    assert (code, out) == (2, "")
    assert "error:" in err and "Traceback" not in err
    if "--points" in args and int(args[args.index("--points") + 1]) < 3:
        assert "need at least 3 grid points" in err


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
        for phi in ("0", "1", "1e300", "1e-300"):
            yield ("euler", "closed", *unit, f"--phi={phi}")
            if phi != "1e300":
                yield ("euler", "series", *unit, f"--phi={phi}")


def test_extreme_scalars_are_answered_finite_or_refused(capsys):
    # Exit 0 with finite floats or exit 2 with a message; accuracy is not checked.
    for args in _extreme_requests():
        code, out, err = _reply(capsys, (*args, "--format", "json"))
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
    for args in _sweep_requests():
        code, _, err = _reply(capsys, args)
        assert code in (0, 2), args
        if code == 2:
            assert "error:" in err, args


def _in_process(capsys, *args):
    code, out, err = _reply(capsys, args)
    assert (code, err) == (0, ""), args
    return [line for line in out.splitlines() if not line.startswith("method =")]


_AB = r"^(a_n|b_n) = "
_ENTRIES = r"^m[12][12] = "
_EVERY_LINE = ""
_EXACT = ("recurrence", "matrix")


def _gcn_powers(a, b, n, methods=(*_EXACT, "binet")):
    return [("gcn", "power", f"--a={a}", f"--b={b}", "--n", str(n), "--method", method)
            for method in methods]


def _cheb_ab_and_gcn_powers(n, methods):
    """``cheb ab``, from U's explicit coefficients, and ``gcn power`` of its unit (-1, 2x)."""
    return [("cheb", "ab", "--n", str(n)), *_gcn_powers(-1, "2*x", n, methods)]


def _mat_powers(entries, n, methods=("squaring", "general_recurrence")):
    return [("mat", "pow", "--entries", entries, "--n", str(n), "--method", method)
            for method in methods]


# Requests whose lines selected by the row's regex must be identical.  A route
# that a library test already compares on the same input has no row: the CLI
# reads every scalar as a Fraction and every matrix entry as a GaussianRational,
# so a library test of an int unit or of a Fraction matrix is not that input.
_SAME_LINES = [
    # d = 20: recurrence and matrix divide each product exactly by d.
    pytest.param(_gcn_powers("2/5", "-3/4", 24), _AB, id="gcn-d20-n24"),
    pytest.param(_gcn_powers("2/5", "-3/4", 25), _AB, id="gcn-d20-n25"),
    # d = 1: at 4097 each route ends with one product by g = d*h; below the
    # period K = 2 each kernel returns its ring's one, and n = 1 takes one step.
    pytest.param(_gcn_powers(3, -5, 4097), _AB, id="gcn-int-n4097"),
    pytest.param(_gcn_powers(3, -5, 0), _AB, id="gcn-int-n0"),
    pytest.param(_gcn_powers(3, -5, 1), _AB, id="gcn-int-n1"),
    # The int kernels' product skips the zero c_0; E = T^2 is a square for binet.
    pytest.param(_gcn_powers(0, "2/3", 4097), _AB, id="gcn-zero-c0-n4097"),
    # n = 2048 keeps this quick; test_results_past_the_default_digit_limit
    # prints n = 4096, whose numbers pass Python's default 4300-digit limit.
    pytest.param(_gcn_powers("11/13", "7/5", 2048, _EXACT), _AB, id="gcn-fraction-n2048"),
    # Packed, with a zero coefficient that the element product skips; binet
    # refuses polynomial units.
    pytest.param(_gcn_powers("x^2 - 1", 0, 41, _EXACT), _AB, id="gcn-poly-n41"),
    # A leading minus negates any factor.
    pytest.param([("gcn", "power", a, "--b=1", "--n", "3") for a in ("--a=-x", "--a=0-x")],
                 _EVERY_LINE, id="leading-minus"),
    # Both gcn routes pack at 64 and 65, and neither does at 1024 and 1025.
    pytest.param(_cheb_ab_and_gcn_powers(64, _EXACT), _AB, id="cheb-ab-n64"),
    pytest.param(_cheb_ab_and_gcn_powers(65, _EXACT), _AB, id="cheb-ab-n65"),
    pytest.param(_cheb_ab_and_gcn_powers(1024, ("recurrence",)), _AB, id="cheb-ab-n1024"),
    pytest.param(_cheb_ab_and_gcn_powers(1025, ("recurrence",)), _AB, id="cheb-ab-n1025"),
    # Gaussian matrices, det 1 and det -4.  At 4097 a multiply follows the
    # squares: squaring's square is the 2x2 formula, general_recurrence's
    # that of pauli's kernel.
    pytest.param(_mat_powers("1:1,1;0:1,1", 4096, ("squaring", "chebyshev", "general_recurrence")),
                 _ENTRIES, id="mat-det1-n4096"),
    pytest.param(_mat_powers("1:1,1;0:1,1", 4097), _ENTRIES, id="mat-det1-n4097"),
    pytest.param(_mat_powers("1:1,2;3,1:-1", 4096), _ENTRIES, id="mat-det-4-n4096"),
    pytest.param(_mat_powers("1:1,2;3,1:-1", 4097), _ENTRIES, id="mat-det-4-n4097"),
    pytest.param(_mat_powers("2:1,1;1,4/5:-2/5", 1024, ("chebyshev", "squaring")), _ENTRIES,
                 id="mat-chebyshev-n1024"),
    # det has the denominator 13, which the trace lacks.  At 0 pauli's kernel
    # returns its one, (d, 0, 0, 0); at 1 it takes its step, the product by d*g.
    *(pytest.param(_mat_powers("0,1/13;-1,1", n), _ENTRIES, id=f"mat-det-prime-n{n}")
      for n in (4096, 4097, 0, 1)),
]


@pytest.mark.parametrize("argvs, pattern", _SAME_LINES)
def test_routes_print_the_same_lines(capsys, argvs, pattern):
    first, *others = (
        [line for line in _in_process(capsys, *argv) if re.match(pattern, line)]
        for argv in argvs
    )
    assert first, argvs[0]  # else two routes that print nothing would agree
    for argv, lines in zip(argvs[1:], others):
        assert lines == first, argv


def test_results_past_the_default_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    unit = ("gcn", "power", "--a", "11/13", "--b", "7/5")
    recurrence = _in_process(capsys, *unit, "--n", "4096", "--method", "recurrence")
    digits = re.findall(r"\d+", "\n".join(recurrence))
    assert max(map(len, digits)) > 4300
    assert recurrence == _in_process(capsys, *unit, "--n", "4096", "--method", "matrix")
    # At n = 40000 the largest numerator has about 61,000 digits, over the cap.
    code, out, err = _reply(capsys, (*unit, "--n", "40000", "--method", "recurrence"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"{cli.MAX_DIGITS} decimal digits" in err
    assert "--n" in err and "set_int_max_str_digits" not in err
    assert sys.get_int_max_str_digits() == limit


def test_a_result_past_the_digit_cap_names_no_option_its_command_lacks(capsys):
    # The exact roots print the radicand b^2 + 4a, of 60,001 digits; gcn roots has no --n.
    assert _reply(capsys, ("gcn", "roots", "--a", "1e30000", "--b", "1e30000")) == (
        2,
        "",
        f"error: a number has more than {cli.MAX_DIGITS} decimal digits, the "
        "most this program reads or prints\n",
    )


# Every command's whole stdout, once per format it offers.  The floats need
# no libm transcendental (the series and closed form use + * / and exp(0),
# the roots sqrt), so every supported Python prints them alike.  Timings are
# masked.
_WHOLE_OUTPUTS = [
    (("gcn", "power", "--a", "-1", "--b", "2*x", "--n", "3"), {
        "text": (
            "op = gcn-power\n"
            "method = recurrence\n"
            "n = 3\n"
            "a_n = -2*x\n"
            "b_n = 4*x^2 - 1\n"
        ),
        "json": (
            '{"schema": 1, "op": "gcn-power", "method": "recurrence", "n": 3, '
            '"a_n": "-2*x", "b_n": "4*x^2 - 1"}\n'
        ),
    }),
    # The value behind the leading-minus row of test_routes_print_the_same_lines.
    (("gcn", "power", "--a=-x", "--b", "1", "--n", "3"), {
        "text": (
            "op = gcn-power\n"
            "method = recurrence\n"
            "n = 3\n"
            "a_n = -1*x\n"
            "b_n = -1*x + 1\n"
        ),
    }),
    (("gcn", "roots", "--a", "1", "--b", "1", "--numeric"), {
        "text": (
            "op = gcn-roots\n"
            "h_plus = 1/2 + 1/2*sqrt(5)\n"
            "h_minus = 1/2 - 1/2*sqrt(5)\n"
            "degenerate = False\n"
            "h_plus_numeric = 1.618033988749895\n"
            "h_minus_numeric = -0.6180339887498949\n"
        ),
        "json": (
            '{"schema": 1, "op": "gcn-roots", "h_plus": "1/2 + 1/2*sqrt(5)", '
            '"h_minus": "1/2 - 1/2*sqrt(5)", "degenerate": false, '
            '"h_plus_numeric": "1.618033988749895", "h_minus_numeric": '
            '"-0.6180339887498949"}\n'
        ),
    }),
    (("euler", "series", "--a", "-1", "--b", "0", "--phi", "1"), {
        "text": (
            "op = euler-series\n"
            "phi = 1.0\n"
            "c = 0.540302305868092\n"
            "s = 0.8414709848078937\n"
            "terms = 16\n"
        ),
        "json": (
            '{"schema": 1, "op": "euler-series", "phi": 1.0, "c": '
            '"0.540302305868092", "s": "0.8414709848078937", "terms": 16}\n'
        ),
    }),
    (("euler", "closed", "--a", "-1", "--b", "0", "--phi", "0"), {
        "text": (
            "op = euler-closed\n"
            "phi = 0.0\n"
            "c = 1.0\n"
            "s = 0.0\n"
        ),
        "json": (
            '{"schema": 1, "op": "euler-closed", "phi": 0.0, "c": "1.0", "s": '
            '"0.0"}\n'
        ),
    }),
    (("euler", "ode", "--a", "-1", "--b", "0", "--points", "3"), {
        "text": (
            "op = euler-ode\n"
            "points = 3\n"
            "max_c_residual = 0.0\n"
            "max_s_residual = 0.0\n"
        ),
        "json": (
            '{"schema": 1, "op": "euler-ode", "points": 3, "max_c_residual": '
            '"0.0", "max_s_residual": "0.0"}\n'
        ),
    }),
    (("cheb", "u", "--n", "3"), {
        "text": "8*x^3 - 4*x\n",
        "json": (
            '{"schema": 1, "op": "cheb-u", "n": 3, "poly": "8*x^3 - 4*x"}\n'
        ),
    }),
    (("cheb", "t", "--n", "3"), {
        "text": "4*x^3 - 3*x\n",
        "json": (
            '{"schema": 1, "op": "cheb-t", "n": 3, "poly": "4*x^3 - 3*x"}\n'
        ),
    }),
    (("cheb", "ab", "--n", "3"), {
        "text": (
            "op = cheb-ab\n"
            "n = 3\n"
            "a_n = -2*x\n"
            "b_n = 4*x^2 - 1\n"
        ),
        "json": (
            '{"schema": 1, "op": "cheb-ab", "n": 3, "a_n": "-2*x", "b_n": '
            '"4*x^2 - 1"}\n'
        ),
    }),
    (("cheb", "verify", "--nmax", "2"), {
        "text": (
            "suite cheb-exact             cases     23  ok\n"
            "suite cheb-numeric           cases      6  ok\n"
            "TOTAL 29 cases, 0 failures\n"
        ),
        "json": (
            '{"schema": 1, "suite": "all", "cases": 29, "failures": [], '
            '"millis": 0}\n'
        ),
    }),
    (("mat", "decompose", "--entries", "1,2:1;3,4"), {
        "text": (
            "op = mat-decompose\n"
            "alpha = 5/2\n"
            "beta1 = 5/2+1/2i\n"
            "beta2 = -1/2-1/2i\n"
            "beta3 = -3/2\n"
            "gamma = 2+3i\n"
        ),
        "json": (
            '{"schema": 1, "op": "mat-decompose", "alpha": "5/2", "beta1": '
            '"5/2+1/2i", "beta2": "-1/2-1/2i", "beta3": "-3/2", "gamma": '
            '"2+3i"}\n'
        ),
    }),
    (("mat", "pow", "--entries", "2,1;1,1", "--n", "3"), {
        "text": (
            "op = mat-pow\n"
            "method = squaring\n"
            "n = 3\n"
            "m11 = 13\n"
            "m12 = 8\n"
            "m21 = 8\n"
            "m22 = 5\n"
        ),
        "json": (
            '{"schema": 1, "op": "mat-pow", "method": "squaring", "n": 3, '
            '"m11": "13", "m12": "8", "m21": "8", "m22": "5"}\n'
        ),
    }),
    (("mat", "bench", "--n-list", "4,8", "--trials", "1"), {
        "text": (
            "chebyshev  n=4        median_ns=0 bits=6\n"
            "squaring   n=4        median_ns=0 bits=6\n"
            "chebyshev  n=8        median_ns=0 bits=11\n"
            "squaring   n=8        median_ns=0 bits=11\n"
        ),
        "json": (
            '{"schema": 1, "op": "mat-bench", "records": [{"method": '
            '"chebyshev", "n": 4, "median_ns": 0, "max_coeff_bits": 6}, '
            '{"method": "squaring", "n": 4, "median_ns": 0, "max_coeff_bits": '
            '6}, {"method": "chebyshev", "n": 8, "median_ns": 0, '
            '"max_coeff_bits": 11}, {"method": "squaring", "n": 8, '
            '"median_ns": 0, "max_coeff_bits": 11}]}\n'
        ),
        "csv": (
            "method,n,median_ns,max_coeff_bits\n"
            "chebyshev,4,0,6\n"
            "squaring,4,0,6\n"
            "chebyshev,8,0,11\n"
            "squaring,8,0,11\n"
        ),
    }),
    (("u2", "series", "--nmax", "3"), {
        "text": (
            "U2_0 = 0\n"
            "U2_1 = 1\n"
            "U2_2 = u\n"
            "U2_3 = u^2 - v\n"
        ),
        "json": (
            '{"schema": 1, "op": "u2-series", "values": [{"n": 0, "poly": '
            '"0"}, {"n": 1, "poly": "1"}, {"n": 2, "poly": "u"}, {"n": 3, '
            '"poly": "u^2 - v"}]}\n'
        ),
    }),
    (("u2", "rec", "--nmax", "3"), {
        "text": (
            "U2_0 = 0\n"
            "U2_1 = 1\n"
            "U2_2 = u\n"
            "U2_3 = u^2 - v\n"
        ),
        "json": (
            '{"schema": 1, "op": "u2-rec", "values": [{"n": 0, "poly": "0"}, '
            '{"n": 1, "poly": "1"}, {"n": 2, "poly": "u"}, {"n": 3, "poly": '
            '"u^2 - v"}]}\n'
        ),
    }),
    (("u2", "laplace", "--n", "3"), {
        "text": (
            "op = u2-laplace\n"
            "n = 4\n"
            "poly = u^3 - 2*u*v + 1\n"
        ),
        "json": (
            '{"schema": 1, "op": "u2-laplace", "n": 4, "poly": "u^3 - 2*u*v + '
            '1"}\n'
        ),
    }),
    (("u2", "verify", "--nmax", "2"), {
        "text": (
            "suite u2-triple              cases     14  ok\n"
            "suite hermite3               cases     26  ok\n"
            "TOTAL 40 cases, 0 failures\n"
        ),
        "json": (
            '{"schema": 1, "suite": "all", "cases": 40, "failures": [], '
            '"millis": 0}\n'
        ),
    }),
    (("hermite3", "--n", "3"), {
        "text": "x^3 + 6*x*y + 6*z\n",
        "json": (
            '{"schema": 1, "op": "hermite3", "n": 3, "poly": "x^3 + 6*x*y + '
            '6*z"}\n'
        ),
    }),
    (("verify", "all", "--nmax", "1"), {
        "text": (
            "suite gcn-power-methods      cases    550  ok\n"
            "suite euler-pair             cases    540  ok\n"
            "suite cheb-exact             cases     15  ok\n"
            "suite cheb-numeric           cases      4  ok\n"
            "suite mat-unit               cases    499  ok\n"
            "suite u2-triple              cases     10  ok\n"
            "suite hermite3               cases     26  ok\n"
            "suite corrections            cases      8  ok\n"
            "TOTAL 1652 cases, 0 failures\n"
        ),
        "json": (
            '{"schema": 1, "suite": "all", "cases": 1652, "failures": [], '
            '"millis": 0}\n'
        ),
        "csv": (
            "suite,cases,failures\n"
            "gcn-power-methods,550,0\n"
            "euler-pair,540,0\n"
            "cheb-exact,15,0\n"
            "cheb-numeric,4,0\n"
            "mat-unit,499,0\n"
            "u2-triple,10,0\n"
            "hermite3,26,0\n"
            "corrections,8,0\n"
            "all,1652,0\n"
        ),
    }),
]


def _untimed(text):
    text = re.sub(r'("millis": |"median_ns": )\d+', r"\g<1>0", text)
    text = re.sub(r"median_ns=\d+ +", "median_ns=0 ", text)
    return re.sub(r"^(\w+,\d+,)\d+,", r"\g<1>0,", text, flags=re.M)


def test_every_command_prints_its_whole_output(capsys):
    rows = [args for args, _ in _WHOLE_OUTPUTS]
    assert [
        words for words in cli.build_parser().leaves
        if not any(args[:len(words)] == words for args in rows)
    ] == []  # a leaf without a row
    for args, outputs in _WHOLE_OUTPUTS:
        for fmt, expected in outputs.items():
            code, out, err = _reply(capsys, (*args, "--format", fmt))
            assert (code, _untimed(out), err) == (0, expected, ""), (args, fmt)


def test_every_command_of_the_readme_cli_block_exits_zero(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands and all(words[0] == "gencheb" for words in commands)
    for words in commands:
        assert _reply(capsys, words[1:])[0] == 0, words


# One parser is built per process and shared by every cli.main call; these
# tests pin that a request answers as it would from a fresh parser.


_ROOTS_TEXT = (
    "op = gcn-roots\n"
    "h_plus = 1/2 + 1/2*sqrt(5)\n"
    "h_minus = 1/2 - 1/2*sqrt(5)\n"
    "degenerate = False\n"
)
_ODE_TEXT = "op = euler-ode\npoints = {}\nmax_c_residual = 0.0\nmax_s_residual = 0.0\n"


def test_shared_parser_holds_no_state_between_requests(capsys):
    roots = ("gcn", "roots", "--a", "1", "--b", "1")
    numeric = _ROOTS_TEXT + (
        "h_plus_numeric = 1.618033988749895\n"
        "h_minus_numeric = -0.6180339887498949\n"
    )
    assert _reply(capsys, (*roots, "--numeric")) == (0, numeric, "")
    assert _reply(capsys, roots) == (0, _ROOTS_TEXT, "")

    ode = ("euler", "ode", "--a", "-1", "--b", "0")
    assert _reply(capsys, (*ode, "--points", "3")) == (0, _ODE_TEXT.format(3), "")
    assert _reply(capsys, ode) == (0, _ODE_TEXT.format(21), "")

    cheb = ("cheb", "u", "--n", "3")
    assert _reply(capsys, cheb) == (0, "8*x^3 - 4*x\n", "")
    assert _reply(capsys, ("cheb", "u", "--n", "-3")) == (2, "", _USAGE_ERROR)
    assert _reply(capsys, cheb) == (0, "8*x^3 - 4*x\n", "")

    code, out, err = _reply(capsys, ("--help",))
    assert (code, err) == (0, "") and out.startswith("usage: gencheb ")
    assert _reply(capsys, ("--help",)) == (0, out, "")


@pytest.mark.parametrize(
    "args, text",
    [
        (("euler", "series", "--a", "1/0", "--b", "0", "--phi", "1"), "1/0"),
        (("euler", "ode", "--a", "1", "--b", "2/0"), "2/0"),
        (("mat", "pow", "--entries", "1/0,0;0,1", "--n", "2"), "1/0"),
    ],
)
def test_zero_denominators_are_refused_by_name(capsys, args, text):
    assert _reply(capsys, args) == (2, "", f"error: zero denominator in {text!r}\n")


_TEXT_NUMBER_REQUESTS = (
    lambda x: ("gcn", "power", "--a", x, "--b", "1", "--n", "2"),
    lambda x: ("euler", "closed", "--a", x, "--b", "0", "--phi", "1"),
    lambda x: ("mat", "pow", "--entries", f"{x},0;0,1", "--n", "2"),
)


@pytest.mark.parametrize("request_of", _TEXT_NUMBER_REQUESTS)
@pytest.mark.parametrize("text", ["1e20000000", "1e-20000000"])
def test_a_large_decimal_exponent_is_refused_before_it_is_expanded(
    capsys, request_of, text
):
    # Fraction would build 10**20000000 first; the digits plus |exponent|
    # are counted off the text instead.
    start = time.perf_counter()
    reply = _reply(capsys, request_of(text))
    assert time.perf_counter() - start < 1
    assert reply == (
        2,
        "",
        f"error: a number has more than {cli.MAX_DIGITS} decimal digits, the "
        "most this program reads or prints\n",
    )


@pytest.mark.parametrize("request_of", _TEXT_NUMBER_REQUESTS)
@pytest.mark.parametrize(
    "text",
    ["1" * 60_000, "9" * 50_001, "1/" + "7" * 60_000, "1.5" + "0" * 60_000],
    ids=["ones", "nines", "denominator", "decimal"],
)
def test_an_input_number_over_the_digit_cap_is_refused_as_input(capsys, request_of, text):
    # The refusal names the input, not --n: the interpreter's own digit
    # limit would otherwise be reported as an output that grew too long.
    assert _reply(capsys, request_of(text)) == (
        2,
        "",
        f"error: a number has more than {cli.MAX_DIGITS} decimal digits, the "
        "most this program reads or prints\n",
    )


def test_a_decimal_exponent_within_the_digit_cap_parses(capsys):
    assert cli._rational("1e49990") == 10 ** 49990
    assert cli._scalar_or_poly("-1e-49990", ("x",)) == Fraction(-1, 10 ** 49990)
    code, out, err = _reply(capsys, ("mat", "pow", "--entries", "1e49990,0;0,1", "--n", "1"))
    assert (code, err) == (0, "") and "0" * 49990 in out


@pytest.mark.parametrize("text", ["3", "-1/4", "0.5", "1e-3", "x - x + 2/3", "(1/2)*(4)"])
def test_a_constant_coefficient_is_read_as_a_fraction(text):
    # The polynomial grammar has no imaginary literal, so every unit the CLI
    # builds is real or polynomial: no complex unit reaches gcn's generic path.
    assert type(cli._scalar_or_poly(text, ("x",))) is Fraction


def test_each_coefficient_has_its_digits_checked_once(capsys, monkeypatch):
    checked = []
    check_digits = cli._check_digits

    def recording(text):
        checked.append(text)
        check_digits(text)

    monkeypatch.setattr(cli, "_check_digits", recording)
    reply = _reply(capsys, ("gcn", "power", "--a", "1/2", "--b", "x + 1", "--n", "3"))
    assert reply[0] == 0
    assert checked == ["1/2", "x + 1"]


def test_numeric_roots_are_printed_correctly_rounded(capsys):
    # The float formula (b - sqrt(b^2 + 4a))/2 printed -1.000000082740371e-10.
    args = ("gcn", "roots", "--a", "1/10000000000", "--b", "1", "--numeric")
    code, out, err = _reply(capsys, args)
    assert (code, err) == (0, "")
    assert "h_plus_numeric = 1.0000000001\nh_minus_numeric = -9.999999999e-11\n" in out


def test_numeric_roots_of_a_unit_beyond_the_float_range_are_printed(capsys):
    # a = 1e400 is no float, but its roots +-1e200 are.
    args = ("gcn", "roots", "--a", "1e400", "--b", "0", "--numeric")
    code, out, err = _reply(capsys, args)
    assert (code, err) == (0, "")
    assert "h_plus_numeric = 1e+200\nh_minus_numeric = -1e+200\n" in out


def test_numeric_roots_of_a_polynomial_unit_are_refused(capsys):
    args = ("gcn", "roots", "--a", "x", "--b", "1", "--numeric")
    assert _reply(capsys, args) == (
        2,
        "",
        "error: numeric roots need a rational scalar unit; the exact roots "
        "hold for polynomial-valued units too\n",
    )


_SCALARS = ("0", "1", "-1", "2/3", "-5/7", "1/4")


def _mixed_request(rng):
    a, b = (f"--{name}={rng.choice(_SCALARS)}" for name in ("a", "b"))
    kind = rng.randrange(12)
    n = str(rng.randint(0, 4))
    if kind == 0:
        request = ("cheb", rng.choice(("u", "t", "ab")), "--n", n)
    elif kind == 1:
        a = rng.choice((a, "--a=x", "--a=-1"))
        method = rng.choice(gcn.POWER_METHODS)
        request = ("gcn", "power", a, b, "--n", n, "--method", method)
    elif kind == 2:
        request = ("gcn", "roots", rng.choice((a, "--a=x")), b)
        request += ("--numeric",) * rng.randint(0, 1)
    elif kind == 3:
        phi = f"--phi={rng.choice(('0', '0.5', '-1'))}"
        request = ("euler", rng.choice(("series", "closed")), a, b, phi)
    elif kind == 4:
        request = ("euler", "ode", "--a=-1", "--b=0")
        request += ("--points", str(rng.randint(1, 5))) * rng.randint(0, 1)
        request += ("--lo=-1", "--hi=0.5") * rng.randint(0, 1)
    elif kind == 5:
        entries = rng.choice(("2,1;1,1", "1,2:1;3,4", "0,1;-1,0", "1,2;3"))
        request = ("mat", "decompose", f"--entries={entries}")
    elif kind == 6:
        entries = rng.choice(("2,1;1,1", "1,2:1;3,4", "0,1;-1,0", "1,2;3"))
        method = rng.choice(pauli.POWER_METHODS)
        request = ("mat", "pow", f"--entries={entries}", "--n", n, "--method", method)
    elif kind == 7:
        request = ("u2", rng.choice(("series", "rec")), "--nmax", n)
    elif kind == 8:
        request = (*rng.choice((("u2", "laplace"), ("hermite3",))), "--n", n)
    elif kind == 9:
        request = ("cheb", "verify", "--nmax", str(rng.randint(1, 2)))
    elif kind == 10:
        request = rng.choice((
            ("cheb", "u", "--n", "-3"),
            ("frobnicate",),
            ("gcn", "power", "--a", "x^"),
            ("cheb", "t", "--n", "abc"),
            ("euler", "ode", "--a", "-1/4", "--b", "0"),
        ))
    else:
        helps = (("--help",), ("gcn", "roots", "--help"), ("euler", "ode", "-h"))
        request = rng.choice(helps)
    if kind < 10 and rng.randint(0, 1):
        request += ("--format", "json")
    return request


def test_cached_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    rng = random.Random(1307)
    requests = [_mixed_request(rng) for _ in range(50)]

    def replies():
        for args in requests:
            code, out, err = _reply(capsys, args)
            yield code, _untimed(out), err

    cached = list(replies())
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = list(replies())
    assert {code for code, _, _ in cached} == {0, 2}
    for args, one, other in zip(requests, cached, fresh):
        assert one == other, args


def test_requests_after_the_first_build_no_parser(capsys, monkeypatch):
    _reply(capsys, ("cheb", "u", "--n", "1"))
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    rng = random.Random(1308)
    for _ in range(20):
        _reply(capsys, _mixed_request(rng))
    assert built == []


@pytest.mark.parametrize(
    "args, line",
    [
        (("gcn", "roots", "--a", "1", "--b", "1", "--vars", "x,x"),
         "gencheb gcn roots: error: argument --vars: duplicate symbols in 'x,x'"),
        (("gcn", "roots", "--a", "x", "--b", "1", "--vars", "x,x"),
         "gencheb gcn roots: error: argument --vars: duplicate symbols in 'x,x'"),
        (("gcn", "power", "--a", "1", "--b", "1", "--n", "2", "--vars", "2y"),
         "gencheb gcn power: error: argument --vars: not a symbol: '2y'"),
        (("gcn", "roots", "--a", "1", "--b", "1", "--vars="),
         "gencheb gcn roots: error: argument --vars: not a symbol: ''"),
        (("gcn", "power", "--a", "x", "--b", "1", "--n", "2", "--vars", "x,,y"),
         "gencheb gcn power: error: argument --vars: not a symbol: ''"),
        (("gcn", "roots", "--a", "1", "--b", "1", "--vars", "x, y"),
         "gencheb gcn roots: error: argument --vars: not a symbol: ' y'"),
        (("mat", "bench", "--n-list", "1,abc"),
         "gencheb mat bench: error: argument --n-list: not an integer: 'abc'"),
        (("mat", "bench", "--n-list", "2.5"),
         "gencheb mat bench: error: argument --n-list: not an integer: '2.5'"),
        (("mat", "bench", "--n-list=4,-1"),
         "gencheb mat bench: error: argument --n-list: value must be non-negative"),
    ],
)
def test_malformed_symbol_and_power_lists_are_usage_errors(capsys, args, line):
    if line == _FORMAT_REFUSAL:
        line = _reply(capsys, line)[2].splitlines()[-1].replace("'xml'", "'--'")
        assert line.startswith("gencheb cheb u: error: argument --format: invalid choice: '--'")
    code, out, err = _reply(capsys, args)
    assert (code, out, err.splitlines()[-1]) == (2, "", line)
    assert err.startswith("usage: gencheb ")


@pytest.mark.parametrize("nmax", ["-3", "0"])
def test_a_bound_below_one_is_refused_as_not_positive(capsys, monkeypatch, nmax):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    assert _reply(capsys, ("verify", "all", "--nmax", nmax)) == (
        2,
        "",
        "usage: gencheb verify all [-h] [--nmax NMAX] [--seed SEED] [--tol TOL]\n"
        "                          [--format {text,json,csv}]\n"
        "gencheb verify all: error: argument --nmax: value must be positive\n",
    )


def test_symbols_are_read_as_the_polynomial_parser_reads_them(capsys):
    args = ("gcn", "power", "--a", "é_1", "--b", "_y", "--n", "2", "--vars", "_y,é_1")
    assert _reply(capsys, args) == (
        0, "op = gcn-power\nmethod = recurrence\nn = 2\na_n = é_1\nb_n = _y\n", ""
    )


def test_power_lists_skip_empty_parts_and_refuse_an_empty_list(capsys):
    code, out, err = _reply(capsys, ("mat", "bench", "--n-list", ",4,,8,", "--trials", "1"))
    assert (code, err) == (0, "")
    assert [line.split()[1] for line in out.splitlines()] == ["n=4"] * 2 + ["n=8"] * 2
    assert _reply(capsys, ("mat", "bench", "--n-list", ",,")) == (
        2, "", "error: need at least one power to benchmark\n"
    )


# A well-formed request to a leaf is read through that leaf's actions, with no
# argparse pass; every other request goes through the whole tree.  Both routes
# must answer alike.

_LEAF_REQUESTS = {
    ("gcn", "power"): ("--a=-1", "--b", "2*x", "--n", "3"),
    ("gcn", "roots"): ("--a", "1", "--b", "1", "--numeric"),
    ("euler", "series"): ("--a=-1", "--b", "0", "--phi", "0.5"),
    ("euler", "closed"): ("--a=-1", "--b", "0", "--phi", "0.5"),
    ("euler", "ode"): ("--a=-1", "--b", "0", "--points", "3"),
    ("cheb", "u"): ("--n", "3"),
    ("cheb", "t"): ("--n", "2", "--format", "json"),
    ("cheb", "ab"): ("--n", "3"),
    ("cheb", "verify"): ("--nmax", "2"),
    ("mat", "decompose"): ("--entries", "2,1;1,1"),
    ("mat", "pow"): ("--entries", "2,1;1,1", "--n", "3"),
    ("mat", "bench"): ("--n-list", "4", "--trials", "1", "--format", "csv"),
    ("u2", "series"): ("--nmax", "2"),
    ("u2", "rec"): ("--nmax", "2"),
    ("u2", "laplace"): ("--n", "2"),
    ("u2", "verify"): ("--nmax", "2"),
    ("hermite3",): ("--n", "2"),
    ("verify", "all"): ("--nmax", "2", "--format", "json"),
}
# Requests to a leaf in a form its index hands on to the whole tree.
_HANDED_ON = [
    ("euler", "series", "--a=-1", "--b", "0", "--phi", "-1.5"),  # a "-" value, apart
    ("euler", "closed", "--a", "-1", "--b", "0", "--phi", "0.5"),
    ("cheb", "u", "--n", "3", "--n", "4"),  # a repeat
    ("gcn", "roots", "--a", "1", "--b", "1", "--numeric=1"),  # a switch given a value
    ("gcn", "power", "--a=", "--b", "1", "--n", "2"),  # an empty "=" value
    ("cheb", "u", "--n=3=4"),
    ("cheb", "u", "--", "--n", "3"),
    ("mat", "pow", "--entries", "2,1;1,1", "--n", "3", "--method", "bogus"),
    ("cheb", "u", "--n", "abc"),
    ("cheb", "u", "--format", "json"),  # --n missing
    ("cheb", "u", "--n", "-3"),  # a bad value
    ("cheb", "u", "-h"),
    ("hermite3", "--help"),
    ("cheb", "u", "--n", "3", "extra"),  # a leftover argument
    ("hermite3", "--n", "2", "extra"),
    ("cheb", "u", "--n", "3", "--bogus"),  # an unknown option
    ("cheb", "t", "--n", "2", "--for", "json"),  # an abbreviated option
    ("verify", "all", "--nmax", "2", "--format", "xml"),
]
_ROUTE_CORPUS = [
    *((*words, *rest) for words, rest in _LEAF_REQUESTS.items()),
    *_HANDED_ON,
    ("cheb", "--n", "3", "u"),  # an option before the action word
    (),
    ("cheb",),
    ("frobnicate",),
]


def _routed_reply(capsys, monkeypatch, args):
    """``_reply`` and the Namespace ``main`` parsed, if parsing succeeded."""
    parsed = []
    parse = cli._parse

    def recording(parser, argv):
        parsed.append(parse(parser, argv))
        return parsed[-1]

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse", recording)
        code, out, err = _reply(capsys, args)
    return code, _untimed(out), err, parsed


def test_leaf_route_answers_as_the_whole_tree(capsys, monkeypatch):
    parser = cli.build_parser()
    for args in _HANDED_ON:
        words = args[:2] if args[:2] in parser.leaves else args[:1]
        assert cli._read(parser.leaves[words], list(args[len(words):])) is None, args
    by_leaf = [_routed_reply(capsys, monkeypatch, args) for args in _ROUTE_CORPUS]
    monkeypatch.setattr(parser, "leaves", {})
    by_tree = [_routed_reply(capsys, monkeypatch, args) for args in _ROUTE_CORPUS]
    for args, one, other in zip(_ROUTE_CORPUS, by_leaf, by_tree):
        assert one == other, args
    codes = {args: reply[0] for args, reply in zip(_ROUTE_CORPUS, by_leaf)}
    assert [codes[(*words, *rest)] for words, rest in _LEAF_REQUESTS.items()] == [0] * 18
    assert codes[("cheb", "u", "-h")] == 0
    assert codes[("euler", "series", "--a=-1", "--b", "0", "--phi", "-1.5")] == 0
    leftover = by_leaf[_ROUTE_CORPUS.index(("cheb", "u", "--n", "3", "extra"))]
    assert leftover[:2] == (2, "")
    assert leftover[2].startswith("usage: gencheb [-h]")
    assert leftover[2].endswith("gencheb: error: unrecognized arguments: extra\n")


# Values drawn for an option, by its type: those it takes, then odd ones, some
# refused.  An "=--" value is left out: argparse before 3.13 reads it apart
# from cli (see the test after the next).
_VALUES = {
    None: (("1", "2*x", "1/2", "2,1;1,1"), ("-1", "-1/4", "x^", "", "1e400")),
    cli._nonneg_int: (("0", "3", "12"), ("-3", "abc", " 4", "")),
    cli._positive_int: (("1", "2"), ("0", "-2", "x")),
    float: (("0.5", "2", "1e3"), ("-1.5", "nan", "-inf", "-1e3", "x")),
    cli._tolerance: (("1e-10", "0.5"), ("0", "-1", "nan")),
    cli._symbols: (("x", "x,y"), ("x,x", "2y")),
    cli._int_list: (("4,8", "16"), (",,", "1,abc", "-1")),
    int: (("7", "0"), ("-7", "0x10", "1.5")),
}


def _option_tokens(rng, flag, settings):
    """One option as tokens: a switch, or its value joined by "=" or apart."""
    if len(flag) > 3 and rng.random() < 0.1:
        flag = flag[: rng.randint(3, len(flag) - 1)]  # an abbreviation
    if settings.get("action") == "store_true":
        return [flag] if rng.random() < 0.9 else [f"{flag}=1"]
    choices = settings.get("choices")
    taken, odd = (choices, ("xml",)) if choices else _VALUES[settings.get("type")]
    value = rng.choice(taken if rng.random() < 0.85 else odd)
    return [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]


def _generated_requests(count, seed):
    """Seeded (words, tokens) requests to every leaf of ``_LEAVES``: its options
    reordered, some left out, repeated or abbreviated, in "=" and apart forms,
    with "-"-leading values and now and then a stray token."""
    rng = random.Random(seed)
    leaves = list(cli._LEAVES.items())
    for _ in range(count):
        words, (_, *options) = rng.choice(leaves)
        chosen = [
            option
            for option in options
            if rng.random() < (0.97 if option[1].get("required") else 0.5)
        ]
        rng.shuffle(chosen)
        if chosen and rng.random() < 0.1:
            chosen.append(rng.choice(chosen))
        tokens = [token for option in chosen for token in _option_tokens(rng, *option)]
        if rng.random() < 0.05:
            stray = rng.choice(("extra", "--", "-x", "--bogus", "-h"))
            tokens.insert(rng.randint(0, len(tokens)), stray)
        yield words, tokens


def _parsed(capsys, parse, argv):
    """Exit code, stdout, stderr and Namespace of one parse; floats compare by repr."""
    try:
        args, code = vars(parse(argv)), 0
    except SystemExit as exc:
        args, code = None, exc.code
    out, err = capsys.readouterr()
    if args is not None:
        args = {key: repr(v) if isinstance(v, float) else v for key, v in args.items()}
    return code, out, err, args


def test_generated_requests_parse_alike_by_table_and_tree(capsys):
    parser = cli.build_parser()
    read = 0
    for words, tokens in _generated_requests(2000, 4401):
        argv = [*words, *tokens]
        by_route = _parsed(capsys, lambda argv: cli._parse(parser, argv), argv)
        assert by_route == _parsed(capsys, parser.parse_args, argv), argv
        read += cli._read(parser.leaves[words], tokens) is not None
    assert 400 < read < 1600  # both routes are well exercised


_ENTRIES_REFUSAL = "error: --entries must be a matrix 'a,b;c,d' (use re:im for complex)"
# argparse words its list of choices differently across versions, so "--" is
# pinned to the refusal of another bad choice, "xml", with "--" in its place.
_FORMAT_REFUSAL = ("cheb", "u", "--n", "3", "--format", "xml")
_SEED_REFUSAL = "gencheb verify all: error: argument --seed: invalid int value: '--'"


@pytest.mark.parametrize(
    "args, line",
    [
        (("mat", "decompose", "--entries=--"), _ENTRIES_REFUSAL),
        (("cheb", "u", "--n", "3", "--format=--"), _FORMAT_REFUSAL),
        (("verify", "all", "--seed=--"), _SEED_REFUSAL),
        (("cheb", "u", "--n=--"), "gencheb cheb u: error: argument --n: not an integer: '--'"),
        # the same, in forms the table hands on to the whole tree
        (("mat", "decompose", "--ent=--"), _ENTRIES_REFUSAL),
        (("mat", "decompose", "--entries=--", "--entries=--"), _ENTRIES_REFUSAL),
        (("cheb", "u", "--n", "3", "--form=--"), _FORMAT_REFUSAL),
        (("verify", "all", "--se=--"), _SEED_REFUSAL),
        (("gcn", "power", "--a", "1", "--b=--", "--b=--", "--n", "2"),
         "error: expected a factor (offset 2)"),
    ],
)
def test_an_option_joined_to_two_dashes_reads_them_as_text(capsys, args, line):
    # argparse 3.10-3.12 hands the command [] here; 3.13 reads "--", as gencheb does.
    if line == _FORMAT_REFUSAL:
        line = _reply(capsys, line)[2].splitlines()[-1].replace("'xml'", "'--'")
        assert line.startswith("gencheb cheb u: error: argument --format: invalid choice: '--'")
    code, out, err = _reply(capsys, args)
    assert (code, out, err.splitlines()[-1]) == (2, "", line)


def _tree_leaves(parser, words=()):
    """Command words of every parser in the tree with no subcommands."""
    # argparse has no public way to list subcommands; this walk is only a
    # cross-check of the table build_parser keeps.
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        return [words]
    return [
        leaf
        for group in groups
        for name, child in group.choices.items()
        for leaf in _tree_leaves(child, (*words, name))
    ]


def test_a_well_formed_request_to_any_leaf_takes_no_argparse_pass(capsys, monkeypatch):
    parser = cli.build_parser()
    assert sorted(parser.leaves) == sorted(_tree_leaves(parser))
    assert sorted(parser.leaves) == sorted(_LEAF_REQUESTS)
    for words, leaf in parser.leaves.items():
        assert leaf.parser is _leaf_parser(parser, words), words
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for words, rest in _LEAF_REQUESTS.items():
        assert _reply(capsys, (*words, *rest))[0] == 0, words
    assert calls == []
    assert _reply(capsys, ("euler", "series", "--a", "-1", "--b", "0", "--phi", "0.5"))[0] == 0
    assert calls == ["gencheb", "gencheb euler", "gencheb euler series"]


def test_an_overflowing_ode_grid_is_refused_for_its_span(capsys):
    refusal = (
        2,
        "",
        "error: the grid from --lo to --hi overflows a float; "
        "choose --lo and --hi closer together\n",
    )
    ode = ("euler", "ode", "--a", "1", "--b", "0")
    assert _reply(capsys, (*ode, "--lo=-1e308", "--hi", "1e308")) == refusal
    # hi - lo is finite here, but 2 * (hi - lo) is not
    assert _reply(capsys, (*ode, "--lo", "0", "--hi", "1e308", "--points", "3")) == refusal
    assert _reply(capsys, (*ode, "--lo=-inf", "--hi", "0")) == (
        2, "", "error: grid points must be finite\n"
    )


# The whole --help text of every command prefix at 80 columns, in the order
# the tree lists them: every option, its choices and help, in help order.
_HELP = {
    (): """\
usage: gencheb [-h] {gcn,euler,cheb,mat,u2,hermite3,verify} ...

Exact generalized-complex-number and Chebyshev algebra with built-in identity
verification.

positional arguments:
  {gcn,euler,cheb,mat,u2,hermite3,verify}
    gcn                 unit powers and conjugate roots
    euler               Euler-like pair C, S
    cheb                Chebyshev polynomials and identities
    mat                 2x2 matrix decomposition and powers
    u2                  two-variable Chebyshev polynomials
    hermite3            third-order Hermite polynomial
    verify              identity verification suites

options:
  -h, --help            show this help message and exit
""",
    ("gcn",): """\
usage: gencheb gcn [-h] {power,roots} ...

positional arguments:
  {power,roots}

options:
  -h, --help     show this help message and exit
""",
    ("gcn", "power"): """\
usage: gencheb gcn power [-h] --a A --b B [--vars VARS] [--format {text,json}]
                         --n N
                         [--method {recurrence,matrix,binet,binet_float}]

options:
  -h, --help            show this help message and exit
  --a A                 rational or polynomial text; write a negative one as
                        --a=-1/4
  --b B                 rational or polynomial text; write a negative one as
                        --b=-1/4
  --vars VARS           comma-separated symbols
  --format {text,json}  output format
  --n N
  --method {recurrence,matrix,binet,binet_float}
""",
    ("gcn", "roots"): """\
usage: gencheb gcn roots [-h] --a A --b B [--vars VARS] [--format {text,json}]
                         [--numeric]

options:
  -h, --help            show this help message and exit
  --a A                 rational or polynomial text; write a negative one as
                        --a=-1/4
  --b B                 rational or polynomial text; write a negative one as
                        --b=-1/4
  --vars VARS           comma-separated symbols
  --format {text,json}  output format
  --numeric
""",
    ("euler",): """\
usage: gencheb euler [-h] {series,closed,ode} ...

positional arguments:
  {series,closed,ode}

options:
  -h, --help           show this help message and exit
""",
    ("euler", "series"): """\
usage: gencheb euler series [-h] --a A --b B [--tol TOL]
                            [--format {text,json}] --phi PHI

options:
  -h, --help            show this help message and exit
  --a A                 rational or decimal; write a negative one as --a=-1/4
  --b B                 rational or decimal; write a negative one as --b=-1/4
  --tol TOL
  --format {text,json}  output format
  --phi PHI
""",
    ("euler", "closed"): """\
usage: gencheb euler closed [-h] --a A --b B [--tol TOL]
                            [--format {text,json}] --phi PHI

options:
  -h, --help            show this help message and exit
  --a A                 rational or decimal; write a negative one as --a=-1/4
  --b B                 rational or decimal; write a negative one as --b=-1/4
  --tol TOL
  --format {text,json}  output format
  --phi PHI
""",
    ("euler", "ode"): """\
usage: gencheb euler ode [-h] --a A --b B [--tol TOL] [--format {text,json}]
                         [--lo LO] [--hi HI] [--points POINTS]

options:
  -h, --help            show this help message and exit
  --a A                 rational or decimal; write a negative one as --a=-1/4
  --b B                 rational or decimal; write a negative one as --b=-1/4
  --tol TOL
  --format {text,json}  output format
  --lo LO
  --hi HI
  --points POINTS
""",
    ("cheb",): """\
usage: gencheb cheb [-h] {u,t,ab,verify} ...

positional arguments:
  {u,t,ab,verify}

options:
  -h, --help       show this help message and exit
""",
    ("cheb", "u"): """\
usage: gencheb cheb u [-h] --n N [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --n N
  --format {text,json}  output format
""",
    ("cheb", "t"): """\
usage: gencheb cheb t [-h] --n N [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --n N
  --format {text,json}  output format
""",
    ("cheb", "ab"): """\
usage: gencheb cheb ab [-h] --n N [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --n N
  --format {text,json}  output format
""",
    ("cheb", "verify"): """\
usage: gencheb cheb verify [-h] [--nmax NMAX] [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --nmax NMAX
  --format {text,json}  output format
""",
    ("mat",): """\
usage: gencheb mat [-h] {decompose,pow,bench} ...

positional arguments:
  {decompose,pow,bench}

options:
  -h, --help            show this help message and exit
""",
    ("mat", "decompose"): """\
usage: gencheb mat decompose [-h] --entries ENTRIES [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --entries ENTRIES     matrix as 'a,b;c,d' (re:im allowed)
  --format {text,json}  output format
""",
    ("mat", "pow"): """\
usage: gencheb mat pow [-h] --entries ENTRIES [--format {text,json}] --n N
                       [--method {chebyshev,squaring,general_recurrence}]

options:
  -h, --help            show this help message and exit
  --entries ENTRIES     matrix as 'a,b;c,d' (re:im allowed)
  --format {text,json}  output format
  --n N
  --method {chebyshev,squaring,general_recurrence}
""",
    ("mat", "bench"): """\
usage: gencheb mat bench [-h] [--n-list N_LIST] [--trials TRIALS]
                         [--format {text,json,csv}]

options:
  -h, --help            show this help message and exit
  --n-list N_LIST       comma-separated powers
  --trials TRIALS
  --format {text,json,csv}
                        output format
""",
    ("u2",): """\
usage: gencheb u2 [-h] {series,rec,laplace,verify} ...

positional arguments:
  {series,rec,laplace,verify}

options:
  -h, --help            show this help message and exit
""",
    ("u2", "series"): """\
usage: gencheb u2 series [-h] --nmax NMAX [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --nmax NMAX
  --format {text,json}  output format
""",
    ("u2", "rec"): """\
usage: gencheb u2 rec [-h] --nmax NMAX [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --nmax NMAX
  --format {text,json}  output format
""",
    ("u2", "laplace"): """\
usage: gencheb u2 laplace [-h] --n N [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --n N
  --format {text,json}  output format
""",
    ("u2", "verify"): """\
usage: gencheb u2 verify [-h] [--nmax NMAX] [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --nmax NMAX
  --format {text,json}  output format
""",
    ("hermite3",): """\
usage: gencheb hermite3 [-h] --n N [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --n N
  --format {text,json}  output format
""",
    ("verify",): """\
usage: gencheb verify [-h] {all} ...

positional arguments:
  {all}

options:
  -h, --help  show this help message and exit
""",
    ("verify", "all"): """\
usage: gencheb verify all [-h] [--nmax NMAX] [--seed SEED] [--tol TOL]
                          [--format {text,json,csv}]

options:
  -h, --help            show this help message and exit
  --nmax NMAX
  --seed SEED
  --tol TOL
  --format {text,json,csv}
                        output format
""",
}


def test_every_command_prefix_prints_its_whole_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    assert set(_tree_leaves(cli.build_parser())) <= set(_HELP)
    for words, text in _HELP.items():
        assert _reply(capsys, (*words, "--help")) == (0, text, ""), words


def _leaf_parser(parser, words):
    """The parser the tree reaches by ``words``, found as ``_tree_leaves`` walks."""
    for word in words:
        group, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = group.choices[word]
    return parser


# Every default the help text does not show, by leaf and option.
_DEFAULTS = {
    ("gcn", "power"): {"vars": "x", "format": "text", "method": "recurrence"},
    ("gcn", "roots"): {"vars": "x", "format": "text", "numeric": False},
    ("euler", "series"): {"tol": 1e-12, "format": "text"},
    ("euler", "closed"): {"tol": 1e-12, "format": "text"},
    ("euler", "ode"): {"tol": 1e-12, "format": "text", "lo": -2.0, "hi": 2.0, "points": 21},
    ("cheb", "u"): {"format": "text"},
    ("cheb", "t"): {"format": "text"},
    ("cheb", "ab"): {"format": "text"},
    ("cheb", "verify"): {"nmax": 24, "format": "text"},
    ("mat", "decompose"): {"format": "text"},
    ("mat", "pow"): {"format": "text", "method": "squaring"},
    ("mat", "bench"): {"n_list": "64,256,1024", "trials": 3, "format": "text"},
    ("u2", "series"): {"format": "text"},
    ("u2", "rec"): {"format": "text"},
    ("u2", "laplace"): {"format": "text"},
    ("u2", "verify"): {"nmax": 24, "format": "text"},
    ("hermite3",): {"format": "text"},
    ("verify", "all"): {"nmax": 24, "seed": 987654321, "format": "text"},
}


def test_every_leaf_keeps_its_defaults():
    parser = cli.build_parser()
    assert list(_DEFAULTS) == list(_LEAF_REQUESTS)
    for words, defaults in _DEFAULTS.items():
        actions = _leaf_parser(parser, words)._actions
        assert {a.dest: a.default for a in actions if a.default is not None} == {
            "help": argparse.SUPPRESS, **defaults
        }, words
