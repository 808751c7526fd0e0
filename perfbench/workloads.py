"""The benchmark's workloads: seeded inputs, the operations, and their checks.

A workload is a list of :class:`Op`.  Inputs are drawn from the seed while
the list is built, which is set-up; ``Op.run`` is the timed call into the
program; ``Op.check`` runs afterwards, outside the timed region, and returns
``None`` when the output is right or a short reason when it is not.  Checks
go through :mod:`oracle`, which never imports gencheb.

Random inputs keep their size and height fixed and let the seed choose
signs, positions and small coefficients, so that every seed asks for the
same amount of work and only the values change.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

import oracle
from gencheb import cheby, cli, gcn, higher, pauli
from gencheb.matrices import Mat2
from gencheb.poly import MultiPoly
from gencheb.scalars import GaussianRational

# ``gencheb verify all --nmax 24`` checks this many identity cases.  The
# count is fixed by nmax alone, except that suite_mat skips each of its ten
# det-rejection draws that happens to have determinant exactly 1.
VERIFY_CASES = 11634
VERIFY_SKIPPABLE = 10


@dataclass
class Op:
    label: str  # "<layer>.<what>", the span name in the traced run
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{seed}:{workload}")


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _point(rng: random.Random, count: int) -> tuple[F, ...]:
    """A rational point with small, nonzero coordinates."""
    return tuple(
        F(_sign(rng) * rng.randint(1, 7), rng.randint(2, 9)) for _ in range(count)
    )


def _mismatch(what: str, expected, actual) -> str:
    return f"{what}: expected {expected}, got {actual}"


# -- verify-all ------------------------------------------------------------------------------


def verify_report(output: str) -> dict | None:
    """The report of a ``verify --format json`` reply, or None for any other output."""
    try:
        report = json.loads(output.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None
    return report if isinstance(report, dict) and "cases" in report else None


def verify_problem(code: int, output: str) -> str | None:
    """Why a ``verify all --format json`` reply is wrong, or None when it is right."""
    report = verify_report(output)
    if code != 0 or report is None:
        return f"verify all exited {code}: {output.strip()[-300:]}"
    if report.get("failures"):
        return f"verify all reported failures: {report['failures'][:3]}"
    return cases_problem(report.get("cases"))


def cases_problem(cases) -> str | None:
    if isinstance(cases, int) and VERIFY_CASES - VERIFY_SKIPPABLE <= cases <= VERIFY_CASES:
        return None
    return f"verify all checked {cases} cases, expected {VERIFY_CASES}"


def verify_ops(seed: int) -> list[Op]:
    """The ``verify all`` command through ``cli.main``, as ``python -m gencheb`` runs it."""
    argv = ["verify", "all", "--nmax", "24", "--seed", str(seed), "--format", "json"]
    def check(reply):
        return verify_problem(reply.code, reply.stdout)

    return [Op("cli.verify_all", lambda: call_cli(argv), check)]


# -- poly-big ------------------------------------------------------------------------------

UV = ("u", "v")


def _graded_monomials(count: int) -> list[tuple[int, int]]:
    """The first ``count`` monomials in u, v by total degree."""
    out: list[tuple[int, int]] = []
    degree = 0
    while len(out) < count:
        out.extend((degree - j, j) for j in range(degree + 1))
        degree += 1
    return out[:count]


def _dense_poly(rng: random.Random, count: int) -> MultiPoly:
    terms = {
        exps: _sign(rng) * rng.randint(1, 9) for exps in _graded_monomials(count)
    }
    return MultiPoly(UV, terms)


POLY_SIZES = {"full": (50, 100, 200), "tiny": (4, 6)}


def poly_big_ops(seed: int, tiny: bool = False) -> list[Op]:
    rng = _rng(seed, "poly-big")
    ops: list[Op] = []
    point = _point(rng, 2)

    for count in POLY_SIZES["tiny" if tiny else "full"]:
        p, q = _dense_poly(rng, count), _dense_poly(rng, count)

        def check_product(r, p=p, q=q):
            want = oracle.poly_value(p, point) * oracle.poly_value(q, point)
            got = oracle.poly_value(r, point)
            return None if got == want else _mismatch("product at point", want, got)

        ops.append(Op(f"poly.mul{count}", lambda p=p, q=q: p * q, check_product))

    n_u2 = 6 if tiny else 40
    u2_want = oracle.u2_values(n_u2, *point)

    def check_u2_list(values):
        if [v.n for v in values] != list(range(n_u2 + 1)):
            return "wrong index list"
        for v, want in zip(values, u2_want):
            got = oracle.poly_value(v.poly, point)
            if got != want:
                return _mismatch(f"U2_{v.n} at point", want, got)
        return None

    ops.append(Op("higher.u2_series", lambda: higher.u2_by_series(n_u2), check_u2_list))
    ops.append(Op("higher.u2_recurrence", lambda: higher.u2_by_recurrence(n_u2), check_u2_list))
    # Every fourth index from a seeded offset, so each seed does the same work.
    offset = rng.randint(0, 2)
    for n in range(offset, 4 if tiny else 31, 4):

        def check_laplace(value, n=n):
            got = oracle.poly_value(value.poly, point)
            want = u2_want[n + 1] if n + 1 <= n_u2 else oracle.u2_values(n + 1, *point)[-1]
            return None if got == want else _mismatch(f"laplace U2_{n + 1}", want, got)

        ops.append(Op("higher.u2_laplace", lambda n=n: higher.u2_by_laplace(n), check_laplace))

    # Cold Chebyshev caches: cheb_AB first, then T (reads the AB cache) and U.
    n_cheb = 8 if tiny else 300
    x = point[0]
    u_want = oracle.cheb_u_values(n_cheb, x)

    def check_ab(pair):
        a_got, b_got = oracle.poly_value(pair.a, (x,)), oracle.poly_value(pair.b, (x,))
        if (a_got, b_got) != (-u_want[n_cheb - 1], u_want[n_cheb]):
            want = (-u_want[n_cheb - 1], u_want[n_cheb])
            return _mismatch(f"A,B_{n_cheb + 1} at x", want, (a_got, b_got))
        return None

    def check_cheb(kind, want):
        def check(value):
            got = oracle.poly_value(value.poly, (x,))
            return None if got == want else _mismatch(f"{kind}_{n_cheb} at x", want, got)

        return check

    ops.append(Op("cheby.ab", lambda: cheby.cheb_AB(n_cheb + 1), check_ab))
    t_want = oracle.cheb_t_value(n_cheb, x)
    ops.append(Op("cheby.t", lambda: cheby.cheb_T(n_cheb), check_cheb("T", t_want)))
    ops.append(Op("cheby.u", lambda: cheby.cheb_U(n_cheb), check_cheb("U", u_want[n_cheb])))

    # Third-order Hermite polynomial, then substituted into (u, v).
    n_h = 6 if tiny else 18
    subs = {
        name: MultiPoly(UV, {(1, 0): 2 * _sign(rng), (0, 1): 3 * _sign(rng), (0, 0): _sign(rng)})
        for name in higher.XYZ
    }
    sub_point = tuple(oracle.poly_value(subs[name], point) for name in higher.XYZ)
    h_point = _point(rng, 3)
    ops.append(
        Op(
            "higher.hermite3",
            lambda: higher.hermite3(n_h),
            lambda h: None
            if oracle.poly_value(h.poly, h_point) == oracle.hermite3_value(n_h, *h_point)
            else f"H3_{n_h} at point",
        )
    )
    hermite = higher.hermite3(n_h).poly
    ops.append(
        Op(
            "poly.substitute",
            lambda: hermite.substitute(subs),
            lambda r: None
            if oracle.poly_value(r, point) == oracle.hermite3_value(n_h, *sub_point)
            else f"H3_{n_h} substituted at point",
        )
    )

    # Powers of polynomial units over x, by both ring-generic methods.
    n_unit = 6 if tiny else 28
    for _ in range(2):
        unit = gcn.GcnUnit(
            MultiPoly(("x",), {(3,): 3 * _sign(rng), (1,): 2 * _sign(rng)}),
            MultiPoly(("x",), {(2,): 2 * _sign(rng), (0,): _sign(rng)}),
        )
        at_x = oracle.unit_power(
            oracle.poly_value(unit.a, (x,)), oracle.poly_value(unit.b, (x,)), n_unit
        )
        for method in ("recurrence", "matrix"):

            def check_unit(pair, at_x=at_x):
                got = tuple(oracle.poly_value(c, (x,)) for c in pair)
                return None if got == at_x else _mismatch(f"h^{n_unit} at x", at_x, got)

            ops.append(
                Op(
                    f"gcn.{method}",
                    lambda unit=unit, method=method: gcn.power_coeffs(unit, n_unit, method),
                    check_unit,
                )
            )
    return ops


# -- scalar-power ----------------------------------------------------------------------------


def _conjugated(rng: random.Random, trace, shear) -> tuple:
    """S B S^-1 for B = [[t, -1], [1, 0]] and S a product of two shears.

    det = 1 and trace t are fixed by the caller, so every seed raises a
    matrix with the same growth; the shears (entries +-shear with seeded
    signs and, for Gaussian entries, seeded placement of the imaginary
    part) change the entries.
    """
    one, zero = (F(1), F(0)), (F(0), F(0))
    s, r = shear(rng), shear(rng)
    upper = (one, s, zero, one)
    lower = (one, zero, r, one)
    s_mat = oracle.mat_mul(upper, lower)
    a, b, c, d = s_mat
    s_inv = (d, (-b[0], -b[1]), (-c[0], -c[1]), a)  # det S = 1
    base = (trace, (F(-1), F(0)), one, zero)
    return oracle.mat_mul(oracle.mat_mul(s_mat, base), s_inv)


def _gaussian_shear(rng: random.Random):
    part = F(_sign(rng), 3)
    return (part, F(_sign(rng) * 2, 3)) if rng.random() < 0.5 else (F(_sign(rng) * 2, 3), part)


def _integer_shear(rng: random.Random):
    return (F(_sign(rng) * 2), F(0))


def _as_mat2(m) -> Mat2:
    return Mat2(*(GaussianRational(re, im) for re, im in m))


def _mat_entries(m: Mat2) -> tuple:
    return tuple((F(e.re), F(e.im)) for e in m.entries())


MAT_METHODS = (("chebyshev", "chebyshev"), ("general_recurrence", "general"), ("squaring", "squaring"))
SCALAR_SIZES = {
    "full": {"gauss": (64, 256, 1024), "integer": (4096,), "unit": (256, 1024, 4096)},
    "tiny": {"gauss": (3, 8), "integer": (16,), "unit": (5, 12)},
}


def scalar_power_ops(seed: int, tiny: bool = False) -> list[Op]:
    rng = _rng(seed, "scalar-power")
    sizes = SCALAR_SIZES["tiny" if tiny else "full"]
    ops: list[Op] = []

    matrices = []
    for n in sizes["gauss"]:
        for _ in range(2):
            trace = (F(_sign(rng) * 3), F(_sign(rng) * 2))
            matrices.append((n, _conjugated(rng, trace, _gaussian_shear)))
    for n in sizes["integer"]:
        for _ in range(2):
            matrices.append((n, _conjugated(rng, (F(_sign(rng) * 6), F(0)), _integer_shear)))
    for n, m in matrices:
        if oracle.mat_det(m) != (1, 0):
            raise ValueError("generated matrix is not unimodular")
        want = oracle.mat_pow(m, n)
        mat = _as_mat2(m)
        for method, label in MAT_METHODS:

            def check_power(power, want=want, n=n):
                if _mat_entries(power) == want:
                    return None
                return f"M^{n} differs from squaring over Fractions"

            def run(mat=mat, n=n, method=method):
                return pauli.mat_power(mat, n, method)

            ops.append(Op(f"pauli.{label}", run, check_power))

    # The sign of b does not change how fast the coefficients grow (it
    # negates both roots); that of a does, so each n takes one unit of each.
    for n in sizes["unit"]:
        for a in (F(11, 13), F(-11, 13)):
            b = _sign(rng) * F(7, 5)
            unit = gcn.GcnUnit(a, b)
            want = oracle.unit_power(a, b, n)
            for method in ("recurrence", "matrix", "binet"):

                def check_coeffs(pair, want=want, n=n):
                    got = tuple(F(c) for c in pair)
                    return None if got == want else f"h^{n} coefficients differ"

                def run(unit=unit, n=n, method=method):
                    return gcn.power_coeffs(unit, n, method)

                ops.append(Op(f"gcn.{method}", run, check_coeffs))
    return ops


# -- cli-requests ----------------------------------------------------------------------------


@dataclass
class Reply:
    code: int
    stdout: str
    stderr: str


def call_cli(argv: list[str]) -> Reply:
    """One request through ``cli.main``, with its output captured.

    argparse reports usage errors by raising SystemExit; that is the
    request's exit code, not a failure of the benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return Reply(code, out.getvalue(), err.getvalue())


def _refused(reply: Reply) -> str | None:
    if reply.code == 2 and "error" in reply.stderr:
        return None
    return f"expected exit 2 with a message, got exit {reply.code}"


def _ok_fields(reply: Reply, fmt: str) -> dict:
    if reply.code != 0:
        raise ValueError(f"exit {reply.code}: {reply.stderr.strip()[-200:]}")
    return oracle.output_fields(reply.stdout, fmt)


def _fmt(rng: random.Random) -> str:
    return rng.choice(("text", "json"))


def _req_cheb(rng, i):
    kind, n, fmt = ("u", "t", "ab")[i % 3], i % 31, _fmt(rng)
    x = _point(rng, 1)[0]
    u = oracle.cheb_u_values(n + 1, x)

    def check(reply):
        if kind == "ab":
            fields = _ok_fields(reply, fmt)
            got = tuple(oracle.eval_text(fields[k], ("x",), (x,)) for k in ("a_n", "b_n"))
            # A_n = -U_{n-2}, B_n = U_{n-1}, with U_{-2} = -1 and U_{-1} = 0.
            want = (-u[n - 2] if n >= 2 else F(n == 0), u[n - 1] if n >= 1 else F(0))
            return None if got == want else _mismatch(f"A,B_{n}", want, got)
        if reply.code != 0:
            return f"exit {reply.code}"
        text = oracle.output_fields(reply.stdout, fmt)["poly"] if fmt == "json" else reply.stdout
        got = oracle.eval_text(text, ("x",), (x,))
        want = u[n] if kind == "u" else oracle.cheb_t_value(n, x)
        return None if got == want else _mismatch(f"{kind.upper()}_{n}", want, got)

    return ["cheb", kind, "--n", str(n), "--format", fmt], check


def _small_rational(rng, top=5):
    return F(rng.randint(-top, top), rng.randint(1, top))


def _req_gcn_power_poly(rng, i):
    """A unit (c x^2 + d, e x + f) over x, raised symbolically."""
    n, method, fmt = i % 13, ("recurrence", "matrix")[i % 2], _fmt(rng)
    a = MultiPoly(("x",), {(2,): 3 * _sign(rng), (0,): 2 * _sign(rng)})
    b = MultiPoly(("x",), {(1,): 2 * _sign(rng), (0,): _sign(rng)})
    x = _point(rng, 1)
    want = oracle.unit_power(oracle.poly_value(a, x), oracle.poly_value(b, x), n)
    return _gcn_power_request(a.render(), b.render(), n, method, fmt, x, want)


def _req_gcn_power_rational(rng, i):
    n, fmt = i % 21, _fmt(rng)
    method = ("recurrence", "matrix", "binet", "binet_float")[i % 4]
    a, b = _small_rational(rng), _small_rational(rng)
    return _gcn_power_request(str(a), str(b), n, method, fmt, (F(0),), oracle.unit_power(a, b, n))


def _gcn_power_request(a_text, b_text, n, method, fmt, x, want):
    """``gcn power``; ``want`` is (a_n, b_n) at the point ``x``."""

    def check(reply):
        fields = _ok_fields(reply, fmt)
        if method == "binet_float":
            # The scale-aware bound of verify.suite_gcn: 1e-10 * max(1, rho^n).
            a, b = F(a_text), F(b_text)
            roots = [abs((float(b) + s * complex(float(b * b + 4 * a)) ** 0.5) / 2) for s in (1, -1)]
            bound = 1e-10 * max(1.0, max(roots) ** n)
            got = (float(fields["a_n"]), float(fields["b_n"]))
            ok = all(abs(g - float(w)) <= bound for g, w in zip(got, want))
            return None if ok else _mismatch(f"h^{n} (float)", want, got)
        got = tuple(oracle.eval_text(fields[k], ("x",), x) for k in ("a_n", "b_n"))
        return None if got == want else _mismatch(f"h^{n}", want, got)

    argv = ["gcn", "power", f"--a={a_text}", f"--b={b_text}", "--n", str(n)]
    argv += ["--method", method, "--format", fmt]
    return argv, check


def _req_gcn_roots(rng, i):
    a, b, fmt = _small_rational(rng), _small_rational(rng), _fmt(rng)
    disc = complex(float(b * b + 4 * a)) ** 0.5
    want = ((float(b) + disc) / 2, (float(b) - disc) / 2)

    def check(reply):
        fields = _ok_fields(reply, fmt)
        got = (complex(fields["h_plus_numeric"]), complex(fields["h_minus_numeric"]))
        ok = all(abs(g - w) <= 1e-12 * max(1.0, abs(w)) for g, w in zip(got, want))
        return None if ok else _mismatch("roots", want, got)

    return ["gcn", "roots", f"--a={a}", f"--b={b}", "--numeric", "--format", fmt], check


def _gaussian_text(value: tuple[F, F]) -> str:
    return f"{value[0]}:{value[1]}" if value[1] else str(value[0])


def _random_gaussian(rng):
    return (_small_rational(rng, 3), _small_rational(rng, 3) if rng.random() < 0.5 else F(0))


def _entries_text(m) -> str:
    a, b, c, d = (_gaussian_text(e) for e in m)
    return f"{a},{b};{c},{d}"


def _req_mat_decompose(rng, i):
    m, fmt = tuple(_random_gaussian(rng) for _ in range(4)), _fmt(rng)
    (a, b, c, d) = m
    half = F(1, 2)
    alpha = ((a[0] + d[0]) * half, (a[1] + d[1]) * half)
    beta3 = ((a[0] - d[0]) * half, (a[1] - d[1]) * half)
    beta1 = ((b[0] + c[0]) * half, (b[1] + c[1]) * half)
    diff = ((b[0] - c[0]) * half, (b[1] - c[1]) * half)
    beta2 = (-diff[1], diff[0])  # times i
    det = oracle.mat_det(m)
    want = {"alpha": alpha, "beta1": beta1, "beta2": beta2, "beta3": beta3, "gamma": (-det[0], -det[1])}

    def check(reply):
        fields = _ok_fields(reply, fmt)
        got = {k: oracle.parse_gaussian(fields[k]) for k in want}
        return None if got == want else _mismatch("pauli coordinates", want, got)

    return ["mat", "decompose", f"--entries={_entries_text(m)}", "--format", fmt], check


def _req_mat_pow(rng, i):
    n, fmt = i % 65, _fmt(rng)
    method = ("chebyshev", "general_recurrence", "squaring")[i % 3]
    m = _conjugated(rng, (F(_sign(rng)), F(_sign(rng))), _gaussian_shear)
    want = oracle.mat_pow(m, n)

    def check(reply):
        fields = _ok_fields(reply, fmt)
        got = tuple(oracle.parse_gaussian(fields[k]) for k in ("m11", "m12", "m21", "m22"))
        return None if got == want else f"M^{n} differs"

    argv = ["mat", "pow", f"--entries={_entries_text(m)}", "--n", str(n)]
    argv += ["--method", method, "--format", fmt]
    return argv, check


def _req_hermite3(rng, i):
    n, fmt = i % 13, _fmt(rng)
    point = _point(rng, 3)
    want = oracle.hermite3_value(n, *point)

    def check(reply):
        if reply.code != 0:
            return f"exit {reply.code}"
        text = oracle.output_fields(reply.stdout, fmt)["poly"] if fmt == "json" else reply.stdout
        got = oracle.eval_text(text, higher.XYZ, point)
        return None if got == want else _mismatch(f"H3_{n}", want, got)

    return ["hermite3", "--n", str(n), "--format", fmt], check


def _req_u2(rng, i):
    action, fmt = ("series", "rec", "laplace")[i % 3], _fmt(rng)
    point = _point(rng, 2)
    n = i % 9 if action == "laplace" else 1 + i % 8
    want = oracle.u2_values(n + 1, *point)

    def check(reply):
        if reply.code != 0:
            return f"exit {reply.code}"
        if action == "laplace":
            fields = oracle.output_fields(reply.stdout, fmt)
            got = oracle.eval_text(fields["poly"], UV, point)
            return None if got == want[n + 1] else _mismatch(f"U2_{n + 1}", want[n + 1], got)
        if fmt == "json":
            values = {v["n"]: v["poly"] for v in oracle.output_fields(reply.stdout, fmt)["values"]}
        else:
            values = {int(k[3:]): v for k, v in oracle.output_fields(reply.stdout, fmt).items()}
        if sorted(values) != list(range(n + 1)):
            return "wrong index list"
        for k, text in values.items():
            if oracle.eval_text(text, UV, point) != want[k]:
                return f"U2_{k} differs"
        return None

    flag = ("--n", str(n)) if action == "laplace" else ("--nmax", str(n))
    return ["u2", action, *flag, "--format", fmt], check


# Units with a math-module reference: (a, b) = (-k^2, 0) gives C = cos(k phi),
# S = sin(k phi)/k; (k^2, 0) gives cosh and sinh; (0, 0) gives C = 1, S = phi.
def _euler_reference(a: F, b: F, phi: float) -> tuple[float, float]:
    if a == 0:
        return 1.0, phi
    k = math.sqrt(abs(float(a)))
    if a < 0:
        return math.cos(k * phi), math.sin(k * phi) / k
    return math.cosh(k * phi), math.sinh(k * phi) / k


_EULER_UNITS = ((F(-1), F(0)), (F(1), F(0)), (F(-1, 4), F(0)), (F(1, 4), F(0)), (F(0), F(0)))


def _euler_request(rng, action: str, phi: float, tol: float):
    a, b = rng.choice(_EULER_UNITS)
    fmt = _fmt(rng)
    try:
        want = _euler_reference(a, b, phi)
    except OverflowError:
        want = None  # no finite answer: only a refusal is right

    def check(reply):
        if reply.code == 2 and "error" in reply.stderr:
            return None
        fields = _ok_fields(reply, fmt)
        if want is None:
            return "answered where the true value overflows"
        got = (float(fields["c"]), float(fields["s"]))
        ok = all(abs(g - w) <= tol * max(1.0, abs(w)) for g, w in zip(got, want))
        return None if ok else _mismatch(f"C,S at phi={phi!r}", want, got)

    argv = ["euler", action, f"--a={a}", f"--b={b}", f"--phi={phi!r}", f"--tol={tol!r}"]
    argv += ["--format", fmt]
    return argv, check


def _req_euler(rng, i):
    action = ("series", "series", "closed", "ode")[i % 4]
    if action != "ode":
        return _euler_request(rng, action, rng.uniform(-4.0, 4.0), rng.choice((1e-12, 1e-10, 1e-8)))
    a, b = (F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(2))
    fmt = _fmt(rng)
    points = 3 + i % 19

    def check(reply):
        fields = _ok_fields(reply, fmt)
        worst = max(float(fields["max_c_residual"]), float(fields["max_s_residual"]))
        if int(fields["points"]) != points:
            return "wrong point count"
        return None if worst <= 1e-9 else f"ODE residual {worst}"

    argv = ["euler", "ode", f"--a={a}", f"--b={b}", "--points", str(points), "--format", fmt]
    return argv, check


_INVALID = (
    ["cheb", "u", "--n", "-3"],
    ["cheb", "t", "--n", "abc"],
    ["gcn", "power", "--a", "x^", "--b", "1", "--n", "3"],
    ["gcn", "power", "--a", "1/0*x", "--b", "1", "--n", "3"],
    ["gcn", "power", "--a", "y", "--b", "1", "--n", "3"],
    ["gcn", "power", "--a", "x", "--b", "1", "--n", "3", "--method", "binet"],
    ["gcn", "roots", "--a", "x", "--b", "1", "--numeric"],
    ["mat", "pow", "--entries", "1,2;3", "--n", "2"],
    ["mat", "pow", "--entries", "2,1;1,2", "--n", "3", "--method", "chebyshev"],
    ["mat", "decompose", "--entries", "a,b;c,d"],
    ["euler", "series", "--a", "-1", "--b", "0", "--phi", "nan"],
    ["euler", "series", "--a", "-1", "--b", "0", "--phi", "1", "--tol", "0"],
    ["u2", "series", "--nmax", "0"],
    ["hermite3", "--n", "x"],
    ["frobnicate"],
)


def _req_invalid(rng, i):
    return list(_INVALID[i % len(_INVALID)]), _refused


# Requests of each kind in one stream; the order is shuffled by the seed.
# The counts are assumed, not taken from recorded use: every kind of request
# the CLI offers appears, with 10 % invalid input.
CLI_MIX = (
    (_req_cheb, 180),
    (_req_gcn_power_poly, 75),
    (_req_gcn_power_rational, 75),
    (_req_gcn_roots, 50),
    (_req_mat_decompose, 70),
    (_req_mat_pow, 100),
    (_req_hermite3, 50),
    (_req_u2, 80),
    (_req_euler, 220),
    (_req_invalid, 100),  # 10 % of the stream: right only on exit 2 with a message
)


def cli_ops(seed: int, tiny: bool = False) -> list[Op]:
    rng = _rng(seed, "cli-requests")
    requests = []
    for make, count in CLI_MIX:
        requests.extend(make(rng, i) for i in range(2 if tiny else count))
    rng.shuffle(requests)
    return [Op("cli.main", lambda argv=argv: call_cli(argv), check) for argv, check in requests]


def euler_defect_ops(seed: int, tiny: bool = False) -> list[Op]:
    """Euler requests at |phi| up to 1000 (ROADMAP open item 4).

    At the seed commit most of these print a wrong value with exit 0 or
    raise instead of refusing with exit 2.  They are run after the timed
    stream and reported as their own count, not as failed operations.
    """
    rng = _rng(seed, "euler-defects")
    ops = []
    for _ in range(4 if tiny else 40):
        phi = _sign(rng) * rng.uniform(20.0, 1000.0)
        argv, check = _euler_request(rng, rng.choice(("series", "closed")), phi, 1e-12)
        ops.append(Op("cli.main", lambda argv=argv: call_cli(argv), check))
    return ops


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    if workload == "verify-all":
        return verify_ops(seed)
    if workload == "poly-big":
        return poly_big_ops(seed, tiny)
    if workload == "scalar-power":
        return scalar_power_ops(seed, tiny)
    if workload == "cli-requests":
        return cli_ops(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}")
