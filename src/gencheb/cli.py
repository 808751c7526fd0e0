"""Command-line front end.

Each command returns an :class:`Answer` and prints nothing.  ``main`` hands
the answer to one function, which prints it as JSON, text or CSV.  Every
number is turned into text before the first line is printed, so a refused
request writes nothing to stdout.

Exit codes: 0 success, 1 at least one verification failure, 2 usage or
parse error or a request the library refuses (a ValueError and the like,
printed as ``error:`` without a traceback).  Identical invocations print
byte-identical output, with two timing-dependent exceptions: the
``millis`` field of JSON verification reports (required by the report
schema), and ``median_ns`` in every format of ``mat bench``, which
measures time.

The command line is declared once, in the table ``_LEAVES``: each leaf
parser's command words, its handler and its options.  ``build_parser``
builds the argparse tree and its ``leaves`` index from that table in one
loop, on its first call; every later ``main`` call shares the tree, and
callers must not mutate it.  Parsing leaves it unchanged, so a request
answers as it would from a fresh parser.  A well-formed request to a leaf
(``cheb u --n 3``, ``euler series --a=-1 --b 0 --phi 0.5``, ...: exact
flags, each once, values that pass their option's type and choices) is read
through that leaf's argparse actions, with no argparse pass.  argparse parses
every other request through the whole tree, which stays the only source of
help, usage and error text.  On either route an option written ``--flag=--``
is read as the text ``--``, as argparse reads it from 3.13 on.
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
from .poly import PolyParseError, parse_poly
from .scalars import GaussianRational

SCHEMA = 1

# Exact results are printed in full.  The interpreter refuses to turn an int
# of more than 4300 digits into text by default; main raises that limit to
# this many digits per number (50,000 digits convert in tens of ms) and
# restores it on return, and anything longer is refused with exit 2.
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


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated non-negative ints; empty parts are skipped.

    A tuple, since a list value is argparse's reading of ``--flag=--`` (see ``_parse``).
    """
    return tuple(_nonneg_int(part) for part in text.split(",") if part)


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
        return GaussianRational(_rational(re_text or "0"), _rational(im_text))
    return GaussianRational(_rational(text))


def _parse_matrix(text: str) -> Mat2:
    rows = text.split(";")
    if len(rows) != 2:
        raise ValueError("--entries must be a matrix 'a,b;c,d' (use re:im for complex)")
    entries = []
    for row in rows:
        cells = row.split(",")
        if len(cells) != 2:
            raise ValueError("each matrix row needs exactly two entries")
        entries.extend(_gaussian_entry(cell.strip()) for cell in cells)
    return Mat2(*entries)


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
                "a_n": str(a_n),
                "b_n": str(b_n),
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
                verify.suite_cheb_numeric(nmax=args.nmax),
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


# An option of a leaf is its flag and the settings add_argument takes.
def _format(*extra: str) -> tuple[str, dict]:
    return "--format", dict(choices=("text", "json", *extra), default="text", help="output format")


def _unit(kind: str) -> tuple[tuple[str, dict], ...]:
    # argparse reads "-1/4" or "-1e3" after "--a" as an option, not a value.
    return tuple(
        (name, dict(required=True, help=f"{kind}; write a negative one as {name}=-1/4"))
        for name in ("--a", "--b")
    )


def _method(choices: tuple[str, ...], default: str) -> tuple[str, dict]:
    return "--method", dict(choices=choices, default=default)


def _nmax(**bound) -> tuple[str, dict]:
    return "--nmax", dict(type=_positive_int, **bound)  # required=True or a default


_N = ("--n", dict(type=_nonneg_int, required=True))
_NMAX = _nmax(default=verify.DEFAULT_NMAX)
_TEXT = _format()
_VARS = ("--vars", dict(type=_symbols, default="x", help="comma-separated symbols"))
_GCN = (*_unit("rational or polynomial text"), _VARS, _TEXT)
_TOL = ("--tol", dict(type=_tolerance, default=euler.DEFAULT_TOL))
_EULER = (*_unit("rational or decimal"), _TOL, _TEXT)
_PHI = ("--phi", dict(type=float, required=True))
_MATRIX = (("--entries", dict(required=True, help="matrix as 'a,b;c,d' (re:im allowed)")), _TEXT)

# The summary of each command in the top-level help.
_COMMANDS = {
    "gcn": "unit powers and conjugate roots",
    "euler": "Euler-like pair C, S",
    "cheb": "Chebyshev polynomials and identities",
    "mat": "2x2 matrix decomposition and powers",
    "u2": "two-variable Chebyshev polynomials",
    "hermite3": "third-order Hermite polynomial",
    "verify": "identity verification suites",
}

# Every leaf parser, by its command words, in the order the help lists them:
# its handler, then its options in the order its own help lists them.
_LEAVES = {
    ("gcn", "power"): (_cmd_gcn, *_GCN, _N, _method(gcn.POWER_METHODS, "recurrence")),
    ("gcn", "roots"): (_cmd_gcn, *_GCN, ("--numeric", dict(action="store_true"))),
    ("euler", "series"): (_cmd_euler, *_EULER, _PHI),
    ("euler", "closed"): (_cmd_euler, *_EULER, _PHI),
    ("euler", "ode"): (
        _cmd_euler,
        *_EULER,
        ("--lo", dict(type=float, default=-2.0)),
        ("--hi", dict(type=float, default=2.0)),
        ("--points", dict(type=_positive_int, default=21)),
    ),
    ("cheb", "u"): (_cmd_cheb, _N, _TEXT),
    ("cheb", "t"): (_cmd_cheb, _N, _TEXT),
    ("cheb", "ab"): (_cmd_cheb, _N, _TEXT),
    ("cheb", "verify"): (_cmd_cheb, _NMAX, _TEXT),
    ("mat", "decompose"): (_cmd_mat, *_MATRIX),
    ("mat", "pow"): (_cmd_mat, *_MATRIX, _N, _method(pauli.POWER_METHODS, "squaring")),
    ("mat", "bench"): (
        _cmd_mat,
        ("--n-list", dict(type=_int_list, default="64,256,1024", help="comma-separated powers")),
        ("--trials", dict(type=_positive_int, default=3)),
        _format("csv"),
    ),
    ("u2", "series"): (_cmd_u2, _nmax(required=True), _TEXT),
    ("u2", "rec"): (_cmd_u2, _nmax(required=True), _TEXT),
    ("u2", "laplace"): (_cmd_u2, _N, _TEXT),
    ("u2", "verify"): (_cmd_u2, _NMAX, _TEXT),
    ("hermite3",): (_cmd_hermite3, _N, _TEXT),
    ("verify", "all"): (
        _cmd_verify,
        _NMAX,
        ("--seed", dict(type=int, default=verify.DEFAULT_SEED)),
        ("--tol", dict(type=_tolerance, default=None)),
        _format("csv"),
    ),
}


class _Leaf(NamedTuple):
    """A leaf parser, with what ``_parse`` reads a well-formed request by."""

    parser: argparse.ArgumentParser
    actions: dict[str, argparse.Action]  # by flag, as ``add_argument`` returned them
    defaults: dict  # what ``set_defaults`` gave the leaf


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built from ``_LEAVES`` on the first call and then shared.

    Every call returns the same parser, so callers must not mutate it.
    ``main`` looks this function up by name on each request.  The parser's
    ``leaves`` attribute maps the command words of every leaf parser, such
    as ``("cheb", "u")`` or ``("hermite3",)``, to a ``_Leaf``: that parser,
    the ``Action`` each of its options returned, by flag, and the values it
    sets by default.  The loop that adds each leaf to the tree records it
    there, so the two always agree; ``_parse`` reads well-formed requests
    through that index.
    """
    parser = argparse.ArgumentParser(
        prog="gencheb",
        description=(
            "Exact generalized-complex-number and Chebyshev algebra with "
            "built-in identity verification."
        ),
    )
    parser.leaves = {}
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {}  # command word -> the subparsers of its actions
    for words, (handler, *options) in _LEAVES.items():
        command, *action = words
        dests = ("command", "target" if command == "verify" else "action")
        if not action:  # a command with no subcommands is itself a leaf
            leaf = commands.add_parser(command, help=_COMMANDS[command])
        else:
            if command not in groups:
                child = commands.add_parser(command, help=_COMMANDS[command])
                groups[command] = child.add_subparsers(dest=dests[1], required=True)
            leaf = groups[command].add_parser(*action)
        actions = {flag: leaf.add_argument(flag, **settings) for flag, settings in options}
        # The handler, and the words the tree sets on its way to the leaf; _read sets them too.
        defaults = dict(func=handler, **dict(zip(dests, words)))
        leaf.set_defaults(**defaults)
        parser.leaves[words] = _Leaf(leaf, actions, defaults)
    return parser


def _value(action: argparse.Action, text: str):
    """``text`` as argparse reads an option's value: by the option's type, then
    checked against its choices.  A refusal raises the ``ArgumentError``, with
    the message, that argparse raises for it."""
    try:
        value = text if action.type is None else action.type(text)
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentError(action, str(exc)) from None
    except (TypeError, ValueError):
        raise argparse.ArgumentError(
            action, f"invalid {action.type.__name__} value: {text!r}"
        ) from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")
    return value


def _read(leaf: _Leaf, tokens: list[str]) -> argparse.Namespace | None:
    """The Namespace the whole tree parses from a well-formed request to ``leaf``.

    Well-formed means: every token is an exact ``--flag value``, ``--flag=value``
    or bare switch of the leaf; a separate value does not start with ``-``; an
    ``=`` value is not empty and has no ``=``; no flag repeats; each value
    passes its option's type and choices; every required option is there.
    Options not given take their defaults as argparse sets them, a text default
    read by its option's type.  Any other request gives None.
    """
    given = {}
    tokens = iter(tokens)
    for token in tokens:
        flag, sep, text = token.partition("=")
        action = leaf.actions.get(flag)
        if action is None or flag in given:
            return None
        if action.nargs == 0:  # a switch: argparse hands its action no values
            if sep:
                return None
            given[flag] = []
            continue
        if not sep:
            text = next(tokens, "-")  # a flag last, with no value, is handed on too
            if text.startswith("-"):
                return None
        elif not text or "=" in text:
            return None
        try:
            given[flag] = _value(action, text)
        except argparse.ArgumentError:
            return None
    args = argparse.Namespace(**leaf.defaults)
    for flag, action in leaf.actions.items():
        if flag in given:
            action(leaf.parser, args, given[flag], flag)
        elif action.required:
            return None
        else:
            default = action.default
            if isinstance(default, str) and action.type is not None:
                default = action.type(default)
            setattr(args, action.dest, default)
    return args


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, read through the leaf's index where it can be.

    A well-formed request to a leaf (see ``_read``) is read through the
    actions of the leaf that argv names, with no argparse pass.  Every other
    request goes through the whole tree, which gives its help, usage text and
    errors.  argparse 3.10-3.12 hand an option given as ``--flag=--`` to the
    command as an empty list, where 3.13 reads the text ``--``; no option's
    type gives a list, so an empty list is read again here as ``--``, or
    refused with the message 3.13 gives.
    """
    words = tuple(argv[:2]) if tuple(argv[:2]) in parser.leaves else tuple(argv[:1])
    leaf = parser.leaves.get(words)
    if leaf is not None:
        args = _read(leaf, argv[len(words):])
        if args is not None:
            return args
    args = parser.parse_args(argv)
    if leaf is not None:
        for action in leaf.actions.values():
            if getattr(args, action.dest) == []:
                try:
                    setattr(args, action.dest, _value(action, "--"))
                except argparse.ArgumentError as exc:
                    leaf.parser.error(str(exc))
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(build_parser(), sys.argv[1:] if argv is None else list(argv))
    saved = sys.get_int_max_str_digits()  # Python 3.10.7+, as requires-python says
    sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        return _print_answer(args.func(args), args.format)
    except (PolyParseError, ValueError, TypeError, ZeroDivisionError) as exc:
        message = str(exc)
        if "set_int_max_str_digits" in message:
            message = _TOO_LONG
            if "n" in vars(args):  # only a leaf with --n can be asked for a smaller one
                message += "; choose a smaller --n"
        print(f"error: {message}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
