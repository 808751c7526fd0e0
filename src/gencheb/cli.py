"""Command-line front end.

Exit codes: 0 success, 1 at least one verification failure, 2 usage or
parse error or a request the library refuses (a ValueError and the like,
printed as ``error:`` without a traceback).  Text output carries no timing so identical invocations are
byte-identical; JSON verification reports include a ``millis`` field (the
one intentionally non-deterministic value, required by the report schema).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction

from . import cheby, euler, gcn, higher, pauli, verify
from .matrices import Mat2
from .poly import MultiPoly, PolyParseError, parse_poly
from .scalars import GaussianRational

SCHEMA = 1

# Exact results are printed in full.  The interpreter refuses to turn an int
# of more than 4300 digits into text by default; a command may print up to
# this many digits per number (50,000 digits convert in tens of ms), and
# anything longer is refused with exit 2.
MAX_DIGITS = 50_000


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError("value must be non-negative")
    return value


def _positive_int(text: str) -> int:
    value = _nonneg_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("tolerance must be finite and positive")
    return value


def _scalar_or_poly(text: str, variables: tuple[str, ...]):
    """A CLI coefficient: plain rational if possible, else polynomial text."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    poly = parse_poly(text, variables)
    if poly.is_constant():
        value = poly.constant_value()
        return value.re if value.is_real else value
    return poly


def _gaussian_entry(text: str) -> GaussianRational:
    if ":" in text:
        re_text, im_text = text.split(":", 1)
        return GaussianRational(Fraction(re_text or "0"), Fraction(im_text))
    return GaussianRational(Fraction(text))


def _parse_matrix(text: str) -> Mat2:
    rows = text.split(";")
    if len(rows) != 2:
        raise ValueError("matrix text must be 'a,b;c,d' (use re:im for complex)")
    entries = []
    for row in rows:
        cells = row.split(",")
        if len(cells) != 2:
            raise ValueError("each matrix row needs exactly two entries")
        entries.extend(_gaussian_entry(cell.strip()) for cell in cells)
    return Mat2(*entries)


def _show(value) -> str:
    if isinstance(value, MultiPoly):
        return value.render()
    return str(value)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            if key == "schema":
                continue
            print(f"{key} = {value}")


def _report_payload(report: verify.VerificationReport) -> dict:
    return {
        "schema": SCHEMA,
        "suite": report.suite,
        "cases": report.cases,
        "failures": [
            {"case": f.case, "expected": f.expected, "actual": f.actual}
            for f in report.failures
        ],
        "millis": report.millis,
    }


def _print_reports(reports: list[verify.VerificationReport], fmt: str) -> int:
    merged = verify.merge_reports(reports)
    if fmt == "json":
        print(json.dumps(_report_payload(merged)))
    elif fmt == "csv":
        print("suite,cases,failures")
        for report in reports:
            print(f"{report.suite},{report.cases},{len(report.failures)}")
        print(f"all,{merged.cases},{len(merged.failures)}")
    else:
        for report in reports:
            status = "ok" if report.ok else "FAIL"
            print(f"suite {report.suite:<22} cases {report.cases:>6}  {status}")
            for failure in report.failures:
                print(
                    f"  FAIL {failure.case}: expected {failure.expected}, "
                    f"got {failure.actual}"
                )
        print(
            f"TOTAL {merged.cases} cases, {len(merged.failures)} failures"
        )
    return 0 if merged.ok else 1


def _cmd_gcn(args: argparse.Namespace) -> int:
    variables = tuple(args.vars.split(","))
    a = _scalar_or_poly(args.a, variables)
    b = _scalar_or_poly(args.b, variables)
    unit = gcn.GcnUnit(a, b)
    if args.action == "power":
        a_n, b_n = gcn.power_coeffs(unit, args.n, args.method)
        _emit(
            {
                "schema": SCHEMA,
                "op": "gcn-power",
                "method": args.method,
                "n": args.n,
                "a_n": _show(a_n),
                "b_n": _show(b_n),
            },
            args.format,
        )
        return 0
    roots = gcn.conjugate_roots(unit)
    payload = {
        "schema": SCHEMA,
        "op": "gcn-roots",
        "h_plus": str(roots.h_plus),
        "h_minus": str(roots.h_minus),
        "degenerate": roots.degenerate,
    }
    if args.numeric:
        plus, minus = roots.numeric()
        payload["h_plus_numeric"] = repr(plus)
        payload["h_minus_numeric"] = repr(minus)
    _emit(payload, args.format)
    return 0


def _cmd_euler(args: argparse.Namespace) -> int:
    unit = gcn.GcnUnit(Fraction(args.a), Fraction(args.b))
    if args.action == "series":
        pair = euler.euler_series(unit, args.phi, args.tol)
        _emit(
            {
                "schema": SCHEMA,
                "op": "euler-series",
                "phi": args.phi,
                "c": repr(pair.c),
                "s": repr(pair.s),
                "terms": pair.terms,
            },
            args.format,
        )
        return 0
    if args.action == "closed":
        pair = euler.euler_closed_form(unit, args.phi)
        _emit(
            {
                "schema": SCHEMA,
                "op": "euler-closed",
                "phi": args.phi,
                "c": repr(pair.c),
                "s": repr(pair.s),
            },
            args.format,
        )
        return 0
    # A one-point grid divides by 1, not 0, and ode_residual refuses it.
    grid = [
        args.lo + (args.hi - args.lo) * k / max(args.points - 1, 1)
        for k in range(args.points)
    ]
    report = euler.ode_residual(unit, grid, args.tol)
    _emit(
        {
            "schema": SCHEMA,
            "op": "euler-ode",
            "points": report.points,
            "max_c_residual": repr(report.max_c_residual),
            "max_s_residual": repr(report.max_s_residual),
        },
        args.format,
    )
    return 0


def _cmd_cheb(args: argparse.Namespace) -> int:
    if args.action == "verify":
        return _print_reports(
            [
                verify.suite_cheb(nmax=args.nmax),
                verify.suite_cheb_numeric(nmax=min(args.nmax, 32)),
            ],
            args.format,
        )
    if args.action == "u":
        poly = cheby.cheb_U(args.n).poly
        _print_poly({"op": "cheb-u", "n": args.n}, poly, args.format)
        return 0
    if args.action == "t":
        poly = cheby.cheb_T(args.n).poly
        _print_poly({"op": "cheb-t", "n": args.n}, poly, args.format)
        return 0
    pair = cheby.cheb_AB(args.n)
    _emit(
        {
            "schema": SCHEMA,
            "op": "cheb-ab",
            "n": args.n,
            "a_n": pair.a.render(),
            "b_n": pair.b.render(),
        },
        args.format,
    )
    return 0


def _print_poly(meta: dict, poly: MultiPoly, fmt: str) -> None:
    if fmt == "json":
        payload = {"schema": SCHEMA, **meta, "poly": poly.render()}
        print(json.dumps(payload))
    else:
        print(poly.render())


def _cmd_mat(args: argparse.Namespace) -> int:
    if args.action == "bench":
        sizes = [int(part) for part in args.n_list.split(",") if part]
        records = pauli.bench_power(sizes, args.trials)
        if args.format == "json":
            payload = {
                "schema": SCHEMA,
                "op": "mat-bench",
                "records": [dataclasses.asdict(record) for record in records],
            }
            print(json.dumps(payload))
        elif args.format == "csv":
            print("method,n,median_ns,max_coeff_bits")
            for record in records:
                print(
                    f"{record.method},{record.n},{record.median_ns},"
                    f"{record.max_coeff_bits}"
                )
        else:
            for record in records:
                print(
                    f"{record.method:<10} n={record.n:<8} "
                    f"median_ns={record.median_ns:<12} "
                    f"bits={record.max_coeff_bits}"
                )
        return 0
    matrix = _parse_matrix(args.entries)
    if args.action == "decompose":
        coords = pauli.pauli_decompose(matrix)
        _emit(
            {
                "schema": SCHEMA,
                "op": "mat-decompose",
                "alpha": str(coords.alpha),
                "beta1": str(coords.beta1),
                "beta2": str(coords.beta2),
                "beta3": str(coords.beta3),
                "gamma": str(coords.gamma),
            },
            args.format,
        )
        return 0
    power = pauli.mat_power(matrix, args.n, args.method)
    _emit(
        {
            "schema": SCHEMA,
            "op": "mat-pow",
            "method": args.method,
            "n": args.n,
            "m11": str(power.m11),
            "m12": str(power.m12),
            "m21": str(power.m21),
            "m22": str(power.m22),
        },
        args.format,
    )
    return 0


def _cmd_u2(args: argparse.Namespace) -> int:
    if args.action == "verify":
        return _print_reports(
            [verify.suite_u2(nmax=args.nmax), verify.suite_hermite()], args.format
        )
    if args.action == "laplace":
        value = higher.u2_by_laplace(args.n)
        _emit(
            {
                "schema": SCHEMA,
                "op": "u2-laplace",
                "n": value.n,
                "poly": value.poly.render(),
            },
            args.format,
        )
        return 0
    route = higher.u2_by_series if args.action == "series" else higher.u2_by_recurrence
    values = route(args.nmax)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "op": f"u2-{args.action}",
            "values": [{"n": v.n, "poly": v.poly.render()} for v in values],
        }
        print(json.dumps(payload))
    else:
        for value in values:
            print(f"U2_{value.n} = {value.poly.render()}")
    return 0


def _cmd_hermite3(args: argparse.Namespace) -> int:
    value = higher.hermite3(args.n)
    _print_poly({"op": "hermite3", "n": args.n}, value.poly, args.format)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = verify.suite_all(nmax=args.nmax, seed=args.seed, tol=args.tol)
    return _print_reports(reports, args.format)


def _add_format(parser: argparse.ArgumentParser, *extra: str) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "json", *extra),
        default="text",
        help="output format",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gencheb",
        description=(
            "Exact generalized-complex-number and Chebyshev algebra with "
            "built-in identity verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gcn = sub.add_parser("gcn", help="unit powers and conjugate roots")
    gcn_sub = p_gcn.add_subparsers(dest="action", required=True)
    for action in ("power", "roots"):
        sp = gcn_sub.add_parser(action)
        sp.add_argument("--a", required=True, help="rational or polynomial text")
        sp.add_argument("--b", required=True, help="rational or polynomial text")
        sp.add_argument("--vars", default="x", help="comma-separated symbols")
        _add_format(sp)
        if action == "power":
            sp.add_argument("--n", type=_nonneg_int, required=True)
            sp.add_argument(
                "--method", choices=gcn.POWER_METHODS, default="recurrence"
            )
        else:
            sp.add_argument("--numeric", action="store_true")
        sp.set_defaults(func=_cmd_gcn)

    p_euler = sub.add_parser("euler", help="Euler-like pair C, S")
    euler_sub = p_euler.add_subparsers(dest="action", required=True)
    for action in ("series", "closed", "ode"):
        sp = euler_sub.add_parser(action)
        sp.add_argument("--a", required=True)
        sp.add_argument("--b", required=True)
        sp.add_argument("--tol", type=_tolerance, default=euler.DEFAULT_TOL)
        _add_format(sp)
        if action == "ode":
            sp.add_argument("--lo", type=float, default=-2.0)
            sp.add_argument("--hi", type=float, default=2.0)
            sp.add_argument("--points", type=_positive_int, default=21)
        else:
            sp.add_argument("--phi", type=float, required=True)
        sp.set_defaults(func=_cmd_euler)

    p_cheb = sub.add_parser("cheb", help="Chebyshev polynomials and identities")
    cheb_sub = p_cheb.add_subparsers(dest="action", required=True)
    for action in ("u", "t", "ab"):
        sp = cheb_sub.add_parser(action)
        sp.add_argument("--n", type=_nonneg_int, required=True)
        _add_format(sp)
        sp.set_defaults(func=_cmd_cheb)
    sp = cheb_sub.add_parser("verify")
    sp.add_argument("--nmax", type=_positive_int, default=verify.DEFAULT_NMAX)
    _add_format(sp)
    sp.set_defaults(func=_cmd_cheb)

    p_mat = sub.add_parser("mat", help="2x2 matrix decomposition and powers")
    mat_sub = p_mat.add_subparsers(dest="action", required=True)
    for action in ("decompose", "pow"):
        sp = mat_sub.add_parser(action)
        sp.add_argument(
            "--entries", required=True, help="matrix as 'a,b;c,d' (re:im allowed)"
        )
        _add_format(sp)
        if action == "pow":
            sp.add_argument("--n", type=_nonneg_int, required=True)
            sp.add_argument(
                "--method", choices=pauli.POWER_METHODS, default="squaring"
            )
        sp.set_defaults(func=_cmd_mat)
    sp = mat_sub.add_parser("bench")
    sp.add_argument("--n-list", default="64,256,1024", help="comma-separated powers")
    sp.add_argument("--trials", type=_positive_int, default=3)
    _add_format(sp, "csv")
    sp.set_defaults(func=_cmd_mat)

    p_u2 = sub.add_parser("u2", help="two-variable Chebyshev polynomials")
    u2_sub = p_u2.add_subparsers(dest="action", required=True)
    for action in ("series", "rec"):
        sp = u2_sub.add_parser(action)
        sp.add_argument("--nmax", type=_positive_int, required=True)
        _add_format(sp)
        sp.set_defaults(func=_cmd_u2)
    sp = u2_sub.add_parser("laplace")
    sp.add_argument("--n", type=_nonneg_int, required=True)
    _add_format(sp)
    sp.set_defaults(func=_cmd_u2)
    sp = u2_sub.add_parser("verify")
    sp.add_argument("--nmax", type=_positive_int, default=verify.DEFAULT_NMAX)
    _add_format(sp)
    sp.set_defaults(func=_cmd_u2)

    p_h3 = sub.add_parser("hermite3", help="third-order Hermite polynomial")
    p_h3.add_argument("--n", type=_nonneg_int, required=True)
    _add_format(p_h3)
    p_h3.set_defaults(func=_cmd_hermite3)

    p_verify = sub.add_parser("verify", help="identity verification suites")
    verify_sub = p_verify.add_subparsers(dest="target", required=True)
    sp = verify_sub.add_parser("all")
    sp.add_argument("--nmax", type=_positive_int, default=verify.DEFAULT_NMAX)
    sp.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    sp.add_argument("--tol", type=_tolerance, default=None)
    _add_format(sp, "csv")
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limited = hasattr(sys, "set_int_max_str_digits")  # Python 3.10.7+
    if limited:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        return args.func(args)
    except (PolyParseError, ValueError, TypeError, ZeroDivisionError) as exc:
        message = str(exc)
        if "set_int_max_str_digits" in message:
            message = (
                f"a number has more than {MAX_DIGITS} decimal digits, the most "
                "this program reads or prints; choose a smaller --n"
            )
        print(f"error: {message}", file=sys.stderr)
        return 2
    finally:
        if limited:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
