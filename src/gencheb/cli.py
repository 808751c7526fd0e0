"""Command-line front end.

Each command returns an :class:`Answer` and prints nothing.  ``main`` hands
the answer to one function, which prints it as JSON, text or CSV.  Every
number is turned into text before the first line is printed, so a refused
request writes nothing to stdout.

Exit codes: 0 success, 1 at least one verification failure, 2 usage or
parse error or a request the library refuses (a ValueError and the like,
printed as ``error:`` without a traceback).  Text output carries no timing
so identical invocations are byte-identical; JSON verification reports
include a ``millis`` field (the one intentionally non-deterministic value,
required by the report schema).

The argparse tree is built once per process, on the first call of
``build_parser``, and shared by every later ``main`` call; callers must not
mutate the parser it returns.  Parsing leaves it unchanged, so a request
answers as it would from a fresh parser.  A request that names a leaf parser
(``cheb u``, ``hermite3``, ``verify all``, ...) is parsed once, by that leaf
alone.  The full tree parses only the rest: top-level help, usage errors
above the leaves (no command, an unknown one) and leftover arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from fractions import Fraction
from typing import NamedTuple

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
_TOO_LONG = f"a number has more than {MAX_DIGITS} decimal digits, the most this program reads or prints"
# A decimal with an exponent, as Fraction reads it: (mantissa, exponent).
_EXPONENT_FORM = re.compile(r"\s*[-+]?(?=\.?\d)([\d_.]*)e([-+]?\d+(?:_\d+)*)\s*", re.I)
# One number's digits, as int and Fraction read them: "_" and "." may split them.
_DIGIT_RUN = re.compile(r"[\d_.]+")


def _int_from(text: str, least: int, words: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < least:
        raise argparse.ArgumentTypeError(f"value must be {words}")
    return value


def _nonneg_int(text: str) -> int:
    return _int_from(text, 0, "non-negative")


def _positive_int(text: str) -> int:
    return _int_from(text, 1, "positive")


def _int_list(text: str) -> list[int]:
    """Comma-separated non-negative ints; empty parts are skipped."""
    return [_nonneg_int(part) for part in text.split(",") if part]


def _symbols(text: str) -> tuple[str, ...]:
    """Comma-separated distinct names, each a symbol of the polynomial grammar."""
    names = tuple(text.split(","))
    for name in names:
        word = name.replace("_", "a")  # in a symbol "_" counts as a letter
        if not (word[:1].isalpha() and word.isalnum()):
            raise argparse.ArgumentTypeError(f"not a symbol: {name!r}")
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"duplicate symbols in {text!r}")
    return names


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("tolerance must be finite and positive")
    return value


def _check_digits(text: str) -> None:
    """Refuse a number of more than MAX_DIGITS digits in the text, and a
    decimal whose digits plus |exponent| exceed it, which ``Fraction`` would
    expand into 10**exponent before any digit limit."""
    match = _EXPONENT_FORM.fullmatch(text)
    if match and sum(map(str.isdigit, match[1])) + abs(int(match[2])) > MAX_DIGITS:
        raise ValueError(_TOO_LONG)
    if any(sum(map(str.isdigit, run)) > MAX_DIGITS for run in _DIGIT_RUN.findall(text)):
        raise ValueError(_TOO_LONG)


def _rational(text: str) -> Fraction:
    """``Fraction(text)``, with a zero denominator and an overlong decimal refused."""
    _check_digits(text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _scalar_or_poly(text: str, variables: tuple[str, ...]):
    """A CLI coefficient: plain rational if possible, else polynomial text."""
    _check_digits(text)  # a refusal, not a cue to try the polynomial parser
    try:
        return _rational(text)
    except ValueError:
        pass
    poly = parse_poly(text, variables)
    if poly.is_constant():
        value = poly.constant_value()
        return value.re if value.is_real else value
    return poly


def _gaussian_entry(text: str) -> GaussianRational:
    if ":" in text:
        re_text, im_text = text.split(":", 1)
        return GaussianRational(_rational(re_text or "0"), _rational(im_text))
    return GaussianRational(_rational(text))


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


class Answer(NamedTuple):
    """A command's result, before any of it is printed."""

    payload: dict  # the JSON fields that follow "schema", in output order
    lines: list[str] | None = None  # text or CSV, if not "key = value" per field
    code: int = 0


def _print_answer(answer: Answer, fmt: str) -> int:
    if fmt == "json":
        lines = [json.dumps({"schema": SCHEMA, **answer.payload})]
    elif answer.lines is None:
        lines = [f"{key} = {value}" for key, value in answer.payload.items()]
    else:
        lines = answer.lines
    for line in lines:
        print(line)
    return answer.code


def _report(reports: list[verify.VerificationReport], fmt: str) -> Answer:
    merged = verify.merge_reports(reports)
    if fmt == "csv":
        lines = ["suite,cases,failures"] + [
            f"{report.suite},{report.cases},{len(report.failures)}"
            for report in (*reports, merged)
        ]
    else:
        lines = []
        for report in reports:
            status = "ok" if report.ok else "FAIL"
            lines.append(f"suite {report.suite:<22} cases {report.cases:>6}  {status}")
            lines.extend(
                f"  FAIL {failure.case}: expected {failure.expected}, "
                f"got {failure.actual}"
                for failure in report.failures
            )
        lines.append(f"TOTAL {merged.cases} cases, {len(merged.failures)} failures")
    payload = {
        "suite": merged.suite,
        "cases": merged.cases,
        "failures": [
            {"case": f.case, "expected": f.expected, "actual": f.actual}
            for f in merged.failures
        ],
        "millis": merged.millis,
    }
    return Answer(payload, lines, 0 if merged.ok else 1)


def _cmd_gcn(args: argparse.Namespace) -> Answer:
    a = _scalar_or_poly(args.a, args.vars)
    b = _scalar_or_poly(args.b, args.vars)
    unit = gcn.GcnUnit(a, b)
    if args.action == "power":
        a_n, b_n = gcn.power_coeffs(unit, args.n, args.method)
        return Answer(
            {
                "op": "gcn-power",
                "method": args.method,
                "n": args.n,
                "a_n": _show(a_n),
                "b_n": _show(b_n),
            }
        )
    roots = gcn.conjugate_roots(unit)
    payload = {
        "op": "gcn-roots",
        "h_plus": str(roots.h_plus),
        "h_minus": str(roots.h_minus),
        "degenerate": roots.degenerate,
    }
    if args.numeric:
        plus, minus = roots.numeric()
        payload["h_plus_numeric"] = repr(plus)
        payload["h_minus_numeric"] = repr(minus)
    return Answer(payload)


def _cmd_euler(args: argparse.Namespace) -> Answer:
    unit = gcn.GcnUnit(_rational(args.a), _rational(args.b))
    if args.action == "series":
        pair = euler.euler_series(unit, args.phi, args.tol)
        return Answer(
            {
                "op": "euler-series",
                "phi": args.phi,
                "c": repr(pair.c),
                "s": repr(pair.s),
                "terms": pair.terms,
            }
        )
    if args.action == "closed":
        pair = euler.euler_closed_form(unit, args.phi)
        return Answer(
            {
                "op": "euler-closed",
                "phi": args.phi,
                "c": repr(pair.c),
                "s": repr(pair.s),
            }
        )
    # A one-point grid divides by 1, not 0, and ode_residual refuses it.
    grid = [
        args.lo + (args.hi - args.lo) * k / max(args.points - 1, 1)
        for k in range(args.points)
    ]
    # Finite ends give a non-finite point only if hi - lo, or k times it,
    # overflows; ode_residual would blame the points themselves.
    ends = (args.lo, args.hi)
    if all(map(math.isfinite, ends)) and not all(map(math.isfinite, grid)):
        raise ValueError(
            "the grid from --lo to --hi overflows a float; "
            "choose --lo and --hi closer together"
        )
    report = euler.ode_residual(unit, grid, args.tol)
    return Answer(
        {
            "op": "euler-ode",
            "points": report.points,
            "max_c_residual": repr(report.max_c_residual),
            "max_s_residual": repr(report.max_s_residual),
        }
    )


def _cmd_cheb(args: argparse.Namespace) -> Answer:
    if args.action == "verify":
        return _report(
            [
                verify.suite_cheb(nmax=args.nmax),
                verify.suite_cheb_numeric(nmax=min(args.nmax, 32)),
            ],
            args.format,
        )
    if args.action in ("u", "t"):
        route = cheby.cheb_U if args.action == "u" else cheby.cheb_T
        text = route(args.n).poly.render()
        return Answer({"op": f"cheb-{args.action}", "n": args.n, "poly": text}, [text])
    pair = cheby.cheb_AB(args.n)
    return Answer(
        {
            "op": "cheb-ab",
            "n": args.n,
            "a_n": pair.a.render(),
            "b_n": pair.b.render(),
        }
    )


def _cmd_mat(args: argparse.Namespace) -> Answer:
    if args.action == "bench":
        records = pauli.bench_power(args.n_list, args.trials)
        if args.format == "csv":
            lines = ["method,n,median_ns,max_coeff_bits"] + [
                f"{r.method},{r.n},{r.median_ns},{r.max_coeff_bits}" for r in records
            ]
        else:
            lines = [
                f"{r.method:<10} n={r.n:<8} median_ns={r.median_ns:<12} "
                f"bits={r.max_coeff_bits}"
                for r in records
            ]
        payload = {
            "op": "mat-bench",
            "records": [dataclasses.asdict(record) for record in records],
        }
        return Answer(payload, lines)
    matrix = _parse_matrix(args.entries)
    if args.action == "decompose":
        coords = pauli.pauli_decompose(matrix)
        return Answer(
            {
                "op": "mat-decompose",
                "alpha": str(coords.alpha),
                "beta1": str(coords.beta1),
                "beta2": str(coords.beta2),
                "beta3": str(coords.beta3),
                "gamma": str(coords.gamma),
            }
        )
    power = pauli.mat_power(matrix, args.n, args.method)
    return Answer(
        {
            "op": "mat-pow",
            "method": args.method,
            "n": args.n,
            "m11": str(power.m11),
            "m12": str(power.m12),
            "m21": str(power.m21),
            "m22": str(power.m22),
        }
    )


def _cmd_u2(args: argparse.Namespace) -> Answer:
    if args.action == "verify":
        return _report(
            [verify.suite_u2(nmax=args.nmax), verify.suite_hermite()], args.format
        )
    if args.action == "laplace":
        value = higher.u2_by_laplace(args.n)
        return Answer(
            {
                "op": "u2-laplace",
                "n": value.n,
                "poly": value.poly.render(),
            }
        )
    route = higher.u2_by_series if args.action == "series" else higher.u2_by_recurrence
    values = [{"n": v.n, "poly": v.poly.render()} for v in route(args.nmax)]
    lines = [f"U2_{value['n']} = {value['poly']}" for value in values]
    return Answer({"op": f"u2-{args.action}", "values": values}, lines)


def _cmd_hermite3(args: argparse.Namespace) -> Answer:
    text = higher.hermite3(args.n).poly.render()
    return Answer({"op": "hermite3", "n": args.n, "poly": text}, [text])


def _cmd_verify(args: argparse.Namespace) -> Answer:
    reports = verify.suite_all(nmax=args.nmax, seed=args.seed, tol=args.tol)
    return _report(reports, args.format)


def _add_format(parser: argparse.ArgumentParser, *extra: str) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "json", *extra),
        default="text",
        help="output format",
    )


def _add_unit(parser: argparse.ArgumentParser, kind: str) -> None:
    # argparse reads "-1/4" or "-1e3" after "--a" as an option, not a value.
    for name in ("--a", "--b"):
        parser.add_argument(
            name, required=True, help=f"{kind}; write a negative one as {name}=-1/4"
        )


class _Leaf(NamedTuple):
    """A parser with no subcommands, and the values the tree sets on the way to it."""

    parser: argparse.ArgumentParser
    seeds: dict[str, str]  # dest -> command word: {"command": "cheb", "action": "u"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then shared.

    Every call returns the same parser, so callers must not mutate it.
    ``main`` looks this function up by name on each request.  The parser's
    ``leaves`` attribute maps the command words of every leaf parser, such
    as ``("cheb", "u")`` or ``("hermite3",)``, to that leaf; it is filled as
    the tree is built, so the two always agree.
    """
    parser = argparse.ArgumentParser(
        prog="gencheb",
        description=(
            "Exact generalized-complex-number and Chebyshev algebra with "
            "built-in identity verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    leaves: dict[tuple[str, ...], _Leaf] = {}
    parser.leaves = leaves

    def add_command(command: str, summary: str, dest: str = "action"):
        """Add ``command`` with its own subcommands; return their factory."""
        group = sub.add_parser(command, help=summary).add_subparsers(
            dest=dest, required=True
        )

        def add_leaf(name: str) -> argparse.ArgumentParser:
            leaf = group.add_parser(name)
            leaves[command, name] = _Leaf(leaf, {"command": command, dest: name})
            return leaf

        return add_leaf

    add_leaf = add_command("gcn", "unit powers and conjugate roots")
    for action in ("power", "roots"):
        sp = add_leaf(action)
        _add_unit(sp, "rational or polynomial text")
        sp.add_argument(
            "--vars", type=_symbols, default="x", help="comma-separated symbols"
        )
        _add_format(sp)
        if action == "power":
            sp.add_argument("--n", type=_nonneg_int, required=True)
            sp.add_argument(
                "--method", choices=gcn.POWER_METHODS, default="recurrence"
            )
        else:
            sp.add_argument("--numeric", action="store_true")
        sp.set_defaults(func=_cmd_gcn)

    add_leaf = add_command("euler", "Euler-like pair C, S")
    for action in ("series", "closed", "ode"):
        sp = add_leaf(action)
        _add_unit(sp, "rational or decimal")
        sp.add_argument("--tol", type=_tolerance, default=euler.DEFAULT_TOL)
        _add_format(sp)
        if action == "ode":
            sp.add_argument("--lo", type=float, default=-2.0)
            sp.add_argument("--hi", type=float, default=2.0)
            sp.add_argument("--points", type=_positive_int, default=21)
        else:
            sp.add_argument("--phi", type=float, required=True)
        sp.set_defaults(func=_cmd_euler)

    add_leaf = add_command("cheb", "Chebyshev polynomials and identities")
    for action in ("u", "t", "ab"):
        sp = add_leaf(action)
        sp.add_argument("--n", type=_nonneg_int, required=True)
        _add_format(sp)
        sp.set_defaults(func=_cmd_cheb)
    sp = add_leaf("verify")
    sp.add_argument("--nmax", type=_positive_int, default=verify.DEFAULT_NMAX)
    _add_format(sp)
    sp.set_defaults(func=_cmd_cheb)

    add_leaf = add_command("mat", "2x2 matrix decomposition and powers")
    for action in ("decompose", "pow"):
        sp = add_leaf(action)
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
    sp = add_leaf("bench")
    sp.add_argument(
        "--n-list", type=_int_list, default="64,256,1024", help="comma-separated powers"
    )
    sp.add_argument("--trials", type=_positive_int, default=3)
    _add_format(sp, "csv")
    sp.set_defaults(func=_cmd_mat)

    add_leaf = add_command("u2", "two-variable Chebyshev polynomials")
    for action in ("series", "rec"):
        sp = add_leaf(action)
        sp.add_argument("--nmax", type=_positive_int, required=True)
        _add_format(sp)
        sp.set_defaults(func=_cmd_u2)
    sp = add_leaf("laplace")
    sp.add_argument("--n", type=_nonneg_int, required=True)
    _add_format(sp)
    sp.set_defaults(func=_cmd_u2)
    sp = add_leaf("verify")
    sp.add_argument("--nmax", type=_positive_int, default=verify.DEFAULT_NMAX)
    _add_format(sp)
    sp.set_defaults(func=_cmd_u2)

    sp = sub.add_parser("hermite3", help="third-order Hermite polynomial")
    leaves[("hermite3",)] = _Leaf(sp, {"command": "hermite3"})
    sp.add_argument("--n", type=_nonneg_int, required=True)
    _add_format(sp)
    sp.set_defaults(func=_cmd_hermite3)

    add_leaf = add_command("verify", "identity verification suites", dest="target")
    sp = add_leaf("all")
    sp.add_argument("--nmax", type=_positive_int, default=verify.DEFAULT_NMAX)
    sp.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    sp.add_argument("--tol", type=_tolerance, default=None)
    _add_format(sp, "csv")
    sp.set_defaults(func=_cmd_verify)

    return parser


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, by one pass of the leaf that argv names.

    The tree's parsers above a leaf pass everything after the command words
    to it unread, so the leaf's own pass is the tree's last one.  A request
    that names no leaf, or leaves arguments over, goes through the whole tree,
    which gives its usage text and errors.
    """
    leaf = parser.leaves.get(tuple(argv[:2])) or parser.leaves.get(tuple(argv[:1]))
    if leaf is not None:
        words = len(leaf.seeds)  # one dest per command word
        args, rest = leaf.parser.parse_known_args(
            argv[words:], argparse.Namespace(**leaf.seeds)
        )
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(build_parser(), sys.argv[1:] if argv is None else list(argv))
    limited = hasattr(sys, "set_int_max_str_digits")  # Python 3.10.7+
    if limited:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        return _print_answer(args.func(args), args.format)
    except (PolyParseError, ValueError, TypeError, ZeroDivisionError) as exc:
        message = str(exc)
        if "set_int_max_str_digits" in message:
            message = f"{_TOO_LONG}; choose a smaller --n"
        print(f"error: {message}", file=sys.stderr)
        return 2
    finally:
        if limited:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
