"""Verification suites: every identity in the library, run to a report.

Each suite returns a :class:`VerificationReport`; the CLI renders reports
and maps "zero failures" to exit code 0.  Suites that draw random inputs
take an explicit seed and derive a per-suite stream from it, so identical
invocations produce identical reports.

Every exact per-n family is one :meth:`_Recorder.each` statement over two
sequences, one case per n: the library's values against a reference
independent of them.  The library reads U_n and U2_n off the power walks
of their units; the recurrences behind ``b-is-u`` and ``series-vs-rec`` are
written out here instead.  The sampled-unit suites run their references on
integer numerators, one denominator per sequence: ``suite_gcn`` the
companion and root powers of g = d*h (:func:`_companion_columns`,
:func:`_root_readings`), ``suite_mat`` M^n = N^n / e^n
(:func:`_matrix_powers`).  These share no kernel with the library.

The library's own powers, raised by squaring, are checked once, at nmax,
by one rule: a reference's last value gives way to the first of the
library's values unequal to the expected one (:func:`_first_other`), so
that case fails if the reference or any of those values is wrong.  Float
families stay loops of ``close`` cases.  Cases run family by family.
"""

from __future__ import annotations

import math
import operator
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice, repeat
from typing import Iterable, Iterator

from . import cheby, euler, gcn, higher, pauli
from .matrices import Mat2
from .poly import MultiPoly
from .scalars import GaussianRational, _triple, _unchecked

__all__ = [
    "DEFAULT_NMAX",
    "DEFAULT_SEED",
    "Failure",
    "VerificationReport",
    "merge_reports",
    "suite_all",
    "suite_cheb",
    "suite_cheb_numeric",
    "suite_corrections",
    "suite_euler",
    "suite_gcn",
    "suite_hermite",
    "suite_mat",
    "suite_u2",
]

DEFAULT_SEED = 987654321
DEFAULT_NMAX = 24
# The costly rows (cheb-exact's t-norm and ODE rows, cheb-numeric and the
# unimodular powers of mat-unit) stop at n = 32, whatever nmax is.
_CAPPED_NMAX = 32
# The numeric suites' default tolerance, for `verify all` and each suite alone.
_FLOAT_TOL = 1e-10


@dataclass(frozen=True)
class Failure:
    case: str
    expected: str
    actual: str


@dataclass
class VerificationReport:
    suite: str
    cases: int
    failures: list[Failure] = field(default_factory=list)
    millis: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


class _Recorder:
    """One suite's cases and failures, timed from construction to :meth:`report`."""

    def __init__(self, suite: str) -> None:
        self.suite = suite
        self.cases = 0
        self.failures: list[Failure] = []
        self.started = time.perf_counter()

    def check(self, case: str, ok: bool, expected: object = "", actual: object = "") -> None:
        self.cases += 1
        if not ok:
            self.failures.append(Failure(case, str(expected), str(actual)))

    def equal(self, case: str, expected: object, actual: object) -> None:
        self.check(case, expected == actual, expected, actual)

    def close(self, case: str, value: float, bound: float) -> None:
        self.check(case, value <= bound, f"<= {bound}", value)

    def each(
        self, template: str, expected: Iterable, actual: Iterable, first: int = 0
    ) -> None:
        """One ``equal`` case per n = first, first + 1, ...: ``template.format(n)``.

        The two sequences must have the same length, so no case goes missing.
        A case's name is formatted only when it fails.
        """
        for n, (want, got) in enumerate(zip(expected, actual, strict=True), first):
            self.cases += 1
            if not want == got:
                self.failures.append(Failure(template.format(n), str(want), str(got)))

    def report(self) -> VerificationReport:
        millis = int((time.perf_counter() - self.started) * 1000)
        return VerificationReport(self.suite, self.cases, self.failures, millis)


def _random_fraction(rng: random.Random, top: int = 5) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


def _random_unit(rng: random.Random, top: int = 5) -> gcn.GcnUnit:
    return gcn.GcnUnit(_random_fraction(rng, top), _random_fraction(rng, top))


def _scaled_unit(unit: gcn.GcnUnit) -> tuple[int, int, int]:
    """(d, d*a, d*b) for a rational unit (a, b), with d = lcm(den a, den b)."""
    a, b = unit.a, unit.b
    d = math.lcm(a.denominator, b.denominator)
    return d, a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)


def _companion_columns(unit: gcn.GcnUnit) -> Iterator[tuple[tuple, Fraction]]:
    """(first column, det) of C^n for C = ``unit.companion()``, n = 0, 1, ...

    G = d*C = [[0, d*a], [d, d*b]] is an int matrix and C^n = G^n / d^n, so
    the running product of G needs no gcd; each value is built once.
    """
    d, s, t = _scaled_unit(unit)
    x, y, z, w = 1, 0, 0, 1  # G^0
    scale = 1  # d^n
    while True:
        yield (Fraction(x, scale), Fraction(z, scale)), Fraction(x * w - y * z, scale * scale)
        x, y, z, w = d * y, s * x + t * y, d * w, s * z + t * w
        scale *= d


def _root_readings(unit: gcn.GcnUnit) -> Iterator[tuple[Fraction, Fraction]]:
    """(p_n - b*q_n, 2*q_n) for h+^n = p_n + q_n*sqrt(D), n = 0, 1, ...

    2d*h+ = B + sqrt(E) with B = d*b and E = d^2*D = B^2 + 4*d^2*a, so
    (B + sqrt(E))^n = P + Q*sqrt(E) runs on ints, with p_n = P / (2d)^n and
    q_n = d*Q / (2d)^n: the reading is (P - B*Q, 2d*Q) / (2d)^n.
    """
    d, s, t = _scaled_unit(unit)
    e = t * t + 4 * d * s
    p, q = 1, 0  # (B + sqrt(E))^0
    scale = 1  # (2d)^n
    while True:
        yield Fraction(p - t * q, scale), Fraction(2 * d * q, scale)
        p, q = t * p + e * q, p + t * q
        scale *= 2 * d


def _first_other(value: object, candidates: tuple) -> object:
    """The first of ``candidates`` unequal to ``value``; ``value`` if none is."""
    return next((c for c in candidates if c != value), value)


def suite_gcn(
    nmax: int = DEFAULT_NMAX,
    units: int = 50,
    seed: int = DEFAULT_SEED,
    float_tol: float = _FLOAT_TOL,
) -> VerificationReport:
    """Power-coefficient agreement: recurrence vs matrix vs root closed form.

    The walk is checked at every n against the companion and root powers of
    :func:`_companion_columns` and :func:`_root_readings`, and at nmax also
    against the library's companion and root powers and all three exact
    ``power_coeffs`` routes.  The floating closed form is compared with a
    scale-aware bound |delta| <= tol * max(1, rho^n) where rho is the larger
    root modulus; an absolute bound is meaningless once the coefficients
    reach 1e40.
    """
    rec = _Recorder("gcn-power-methods")
    rng = random.Random(f"{seed}:gcn")
    for i in range(units):
        unit = _random_unit(rng)
        tag = f"unit{i}({unit.a},{unit.b})"
        roots = gcn.conjugate_roots(unit)
        rho = max(*map(abs, roots.numeric()), 1.0)
        walk = gcn.power_coeff_sequence(unit, nmax)
        matrix, det = map(list, zip(*islice(_companion_columns(unit), nmax + 1)))
        surd = list(islice(_root_readings(unit), nmax + 1))
        signs = [(-unit.a) ** n for n in range(nmax + 1)]
        power = unit.companion() ** nmax
        p, q = (roots.h_plus ** nmax).coeffs
        routes = [gcn.power_coeffs(unit, nmax, route) for route in ("recurrence", "matrix")]
        matrix[-1] = _first_other(walk[-1], (matrix[-1], power.column(0), *routes))
        surd[-1] = _first_other(walk[-1], (
            surd[-1], (p - unit.b * q, 2 * q), gcn.power_coeffs(unit, nmax, "binet")
        ))
        det[-1] = _first_other(signs[-1], (det[-1], power.det()))
        rec.each(tag + "/n{}/matrix", walk, matrix)
        rec.each(tag + "/n{}/surd", walk, surd)
        a_from_b = [unit.a * b_n for _, b_n in walk[:-1]]
        rec.each(tag + "/n{}/a-from-b", [a_n for a_n, _ in walk[1:]], a_from_b, first=1)
        rec.each(tag + "/n{}/det", det, signs)
        scales = accumulate(repeat(rho, nmax), operator.mul, initial=1.0)
        for n, ((a_n, b_n), scale) in enumerate(zip(walk, scales, strict=True)):
            af, bf = gcn.power_coeffs(unit, n, "binet_float")
            bound = float_tol * max(1.0, scale)
            rec.close(f"{tag}/n{n}/float-a", abs(af - float(a_n)), bound)
            rec.close(f"{tag}/n{n}/float-b", abs(bf - float(b_n)), bound)
    return rec.report()


def suite_euler(seed: int = DEFAULT_SEED, tol: float = _FLOAT_TOL) -> VerificationReport:
    """The Euler pair: cos/sin within 1e-12; ODE, closed form, addition within ``tol``."""
    rec = _Recorder("euler-pair")
    rng = random.Random(f"{seed}:euler")

    circle = gcn.GcnUnit(Fraction(-1), Fraction(0))
    for k in range(100):
        phi = -3.0 + 6.0 * k / 99
        pair = euler.euler_series(circle, phi, 1e-14)
        rec.close(f"circle/phi{k}/cos", abs(pair.c - math.cos(phi)), 1e-12)
        rec.close(f"circle/phi{k}/sin", abs(pair.s - math.sin(phi)), 1e-12)

    # Small random units keep double-precision roundoff far below tol.
    def small_unit() -> gcn.GcnUnit:
        return gcn.GcnUnit(_random_fraction(rng, 2), _random_fraction(rng, 2))

    grid = [-2.0 + 4.0 * k / 20 for k in range(21)]
    for i in range(20):
        unit = small_unit()
        report = euler.ode_residual(unit, grid, 1e-13)
        rec.close(f"ode/unit{i}/c", report.max_c_residual, tol)
        rec.close(f"ode/unit{i}/s", report.max_s_residual, tol)
        seed_pair = euler.euler_series(unit, 0.0, 1e-13)
        rec.equal(f"seed/unit{i}", (1.0, 0.0), (seed_pair.c, seed_pair.s))
        for j, phi in enumerate((-1.5, -0.25, 0.5, 1.25)):
            series_pair = euler.euler_series(unit, phi, 1e-13)
            closed_pair = euler.euler_closed_form(unit, phi)
            rec.close(
                f"closed/unit{i}/phi{j}",
                max(abs(series_pair.c - closed_pair.c), abs(series_pair.s - closed_pair.s)),
                tol,
            )

    for i in range(100):
        unit = small_unit()
        phi = rng.uniform(-1.0, 1.0)
        psi = rng.uniform(-1.0, 1.0)
        rc, rs = euler.addition_residuals(unit, phi, psi, 1e-13)
        rec.close(f"addition/{i}/c", rc, tol)
        rec.close(f"addition/{i}/s", rs, tol)
    return rec.report()


def suite_cheb(nmax: int = DEFAULT_NMAX) -> VerificationReport:
    """Exact Chebyshev identities; every residual must be the zero polynomial."""
    rec = _Recorder("cheb-exact")
    x = cheby.X
    zero, one = MultiPoly.zero(("x",)), MultiPoly.one(("x",))
    reference = [zero, one]  # U_{-1}, U_0, ... U_{nmax-1}
    while len(reference) < nmax + 1:
        reference.append(2 * x * reference[-1] - reference[-2])
    u = [zero, *(cheby.cheb_U(n).poly for n in range(nmax + 2))]  # U_{-1} .. U_{nmax+1}
    triples = list(zip(u, u[1:], u[2:]))  # (U_{n-1}, U_n, U_{n+1}), n = 0 .. nmax
    pairs = [cheby.cheb_AB(n) for n in range(nmax + 2)]
    b = [pair.b for pair in pairs[:-1]]
    ones = [one] * (nmax + 1)
    pell = [u_n * u_n - u_prev * u_next for u_prev, u_n, u_next in triples]
    rec.each("pell/n{}", ones, pell)
    rec.each("b-is-u/n{}", reference, b)
    rec.each("b-is-neg-a/n{}", b, [-pair.a for pair in pairs[1:]])
    norm = [p.a * p.a + 2 * x * p.a * p.b + p.b * p.b for p in pairs[:-1]]
    rec.each("norm/n{}", ones, norm)
    expected = [Mat2(-u_prev, -u_n, u_n, u_next) for u_prev, u_n, u_next in triples]
    companion = cheby.cheb_unit().companion()
    # C^1 .. C^(nmax+1), by a running product
    powers = list(accumulate(repeat(companion, nmax + 1), operator.mul))
    powers[-1] = _first_other(expected[-1], (powers[-1], companion ** (nmax + 1)))
    rec.each("companion/n{}", expected, powers)
    last = min(nmax, _CAPPED_NMAX)
    t = [cheby.cheb_T(n).poly for n in range(last + 1)]
    t_norm = [t_n * t_n - (x * x - 1) * u_prev * u_prev for t_n, u_prev in zip(t, u)]
    rec.each("t-norm/n{}", ones[: last + 1], t_norm)
    rec.each("u-ode/n{}", [zero] * (last + 1), map(cheby.u_ode_residual, range(last + 1)))
    b_ode = map(cheby.b_ode_residual, range(1, last + 1))
    rec.each("b-ode/n{}", [zero] * last, b_ode, first=1)
    return rec.report()


def suite_cheb_numeric(nmax: int = DEFAULT_NMAX, tol: float = _FLOAT_TOL) -> VerificationReport:
    """sin/cos quotient identities, evaluated exactly at 50 binary64 points."""
    rec = _Recorder("cheb-numeric")
    nmax = min(nmax, _CAPPED_NMAX)
    thetas = [0.1 + (3.0 - 0.1) * k / 49 for k in range(50)]
    points = [{"x": Fraction(math.cos(theta))} for theta in thetas]
    for n in range(nmax + 1):
        u_poly = cheby.cheb_U(n).poly
        t_poly = cheby.cheb_T(n).poly
        worst_u = worst_t = 0.0
        for theta, point in zip(thetas, points):
            u_val = float(u_poly.evaluate_exact(point))
            t_val = float(t_poly.evaluate_exact(point))
            worst_u = max(worst_u, abs(u_val * math.sin(theta) - math.sin((n + 1) * theta)))
            worst_t = max(worst_t, abs(t_val - math.cos(n * theta)))
        rec.close(f"u-sine/n{n}", worst_u, tol)
        rec.close(f"t-cosine/n{n}", worst_t, tol)
    return rec.report()


def _random_gaussian(rng: random.Random, top: int = 3) -> GaussianRational:
    return GaussianRational(_random_fraction(rng, top), _random_fraction(rng, top))


def _random_matrix(rng: random.Random) -> Mat2:
    return Mat2(*(_random_gaussian(rng) for _ in range(4)))


def _random_unimodular(rng: random.Random) -> Mat2:
    while True:
        a = _random_gaussian(rng)
        if a:
            break
    b = _random_gaussian(rng)
    c = _random_gaussian(rng)
    d = (1 + b * c) / a
    return Mat2(a, b, c, d)


def _matrix_powers(m: Mat2) -> Iterator[Mat2]:
    """M^n for a matrix of GaussianRational entries, n = 0, 1, ...

    With e the lcm of the entries' denominators, N = e*M has Gaussian-integer
    entries and M^n = N^n / e^n, so the running product of N runs on int
    pairs with no gcd, and each entry of M^n is built once, with one.
    """
    triples = [_triple(v) for v in m.entries()]
    e = math.lcm(*(d for _, _, d in triples))
    (ap, aq), (bp, bq), (cp, cq), (dp, dq) = [
        (p * (e // d), q * (e // d)) for p, q, d in triples
    ]

    def times_n(p1: int, q1: int, p2: int, q2: int) -> tuple[int, int, int, int]:
        """The row (p1 + q1*i, p2 + q2*i) times N."""
        return (
            p1 * ap - q1 * aq + p2 * cp - q2 * cq,
            p1 * aq + q1 * ap + p2 * cq + q2 * cp,
            p1 * bp - q1 * bq + p2 * dp - q2 * dq,
            p1 * bq + q1 * bp + p2 * dq + q2 * dp,
        )

    top, bottom = (1, 0, 0, 0), (0, 0, 1, 0)  # the rows of N^0
    scale = 1  # e^n
    while True:
        yield Mat2(
            _unchecked(top[0], top[1], scale),
            _unchecked(top[2], top[3], scale),
            _unchecked(bottom[0], bottom[1], scale),
            _unchecked(bottom[2], bottom[3], scale),
        )
        top, bottom = times_n(*top), times_n(*bottom)
        scale *= e


def suite_mat(
    count: int = 200, nmax: int = _CAPPED_NMAX, seed: int = DEFAULT_SEED
) -> VerificationReport:
    rec = _Recorder("mat-unit")
    nmax = min(nmax, _CAPPED_NMAX)
    rng = random.Random(f"{seed}:mat")
    zero = Mat2(*(GaussianRational() for _ in range(4)))
    for i in range(count):
        m = _random_matrix(rng)
        rec.equal(f"cayley-hamilton/{i}", zero, pauli.quadratic_residual(m))
        coords = pauli.pauli_decompose(m)
        rec.equal(f"recompose/{i}", m, pauli.pauli_recompose(coords))
        rec.equal(f"gamma-det/{i}", -m.det(), coords.gamma)
    for i in range(count):
        m = _random_unimodular(rng)
        powers = list(islice(_matrix_powers(m), nmax + 1))
        for kind, method in (("chebyshev", "chebyshev"), ("general", "general_recurrence")):
            routed = [pauli.mat_power(m, n, method) for n in range(nmax + 1)]
            rec.each(f"unimodular/{i}/n{{}}/{kind}", powers, routed)
        squared = pauli.mat_power(m, nmax, "squaring")
        rec.equal(f"unimodular/{i}/squaring", powers[-1], squared)
    for i in range(10):
        m = _random_matrix(rng)
        if m.det() == 1:
            continue
        try:
            pauli.mat_power(m, 3, "chebyshev")
        except ValueError as exc:
            rec.check(f"reject-det/{i}", str(m.det()) in str(exc), "det in message", exc)
        else:
            rec.check(f"reject-det/{i}", False, "ValueError", "no error")
    for i, a in enumerate(pauli.PAULI):
        for j, b in enumerate(pauli.PAULI):
            expected = pauli.IDENTITY * (2 if i == j else 0)
            rec.equal(f"anticommutator/{i}{j}", expected, a * b + b * a)
    return rec.report()


def suite_u2(nmax: int = DEFAULT_NMAX) -> VerificationReport:
    rec = _Recorder("u2-triple")
    u, v = higher.u2_gens()
    zero, one = MultiPoly.zero(higher.UV), MultiPoly.one(higher.UV)
    reference = [zero, zero, one]  # U2_{-1}, U2_0, ... U2_{nmax+1}
    while len(reference) < nmax + 3:
        reference.append(u * reference[-1] - v * reference[-2] + reference[-3])
    series = [value.poly for value in higher.u2_by_series(nmax + 1)]  # U2_0 .. U2_{nmax+1}
    rec.each("series-vs-rec/n{}", series, reference[1:])
    laplace = (higher.u2_by_laplace(n).poly for n in range(nmax + 1))
    rec.each("series-vs-laplace/n{}", series[1:], laplace)
    coeffs = higher.cubic_power_sequence(u, v, nmax)
    walk = [(c.alpha, c.beta, c.gamma) for c in coeffs]
    companion = higher.CubicUnit(u, v).companion()
    identity = companion.identity_like()
    powers = accumulate(repeat(companion, nmax), operator.mul, initial=identity)
    matrix = [power.column(0) for power in powers]
    lib = higher.cubic_power(u, v, nmax, "matrix")
    matrix[-1] = _first_other(walk[-1], (matrix[-1], (lib.alpha, lib.beta, lib.gamma)))
    rec.each("cubic-matrix/n{}", walk, matrix)
    rec.each("gamma-is-u2/n{}", [zero, *series[:nmax]], [c.gamma for c in coeffs])
    cubic = companion * companion * u - companion * v + 1
    rec.equal("companion-cubic", companion ** 3, cubic)
    return rec.report()


def suite_hermite(order: int = 12) -> VerificationReport:
    rec = _Recorder("hermite3")
    series = higher.hermite3_generating_series(order)
    h = [higher.hermite3(n).poly for n in range(order + 1)]
    scaled = [h_n * Fraction(1, math.factorial(n)) for n, h_n in enumerate(h)]
    rec.each("generating/n{}", map(series.coefficient, range(order + 1)), scaled)
    pure = [MultiPoly(higher.XYZ, {(n, 0, 0): 1}) for n in range(order + 1)]
    pure_x = [{e: c for e, c in h_n.terms.items() if e[1:] == (0, 0)} for h_n in h]
    rec.each("pure-x/n{}", pure, [MultiPoly(higher.XYZ, terms) for terms in pure_x])
    return rec.report()


def suite_corrections() -> VerificationReport:
    """Pin the three repaired identities: the plausible variants must fail.

    1. Root-weighted sums C = h+ e^{h+phi} + h- e^{h-phi} and
       S = (e^{h+phi} + e^{h-phi}) / (h+ + h-) do not satisfy the defining
       identity; the solved forms do.
    2. The companion power with flipped argument signs, Q(1, -2x), does not
       reproduce the Chebyshev matrix; Q(-1, 2x) does.
    3. M^n with +U_{n-2}(alpha)*I fails already at n = 2; the minus sign is
       forced by M^2 = 2*alpha*M - I for det-1 matrices.
    """
    rec = _Recorder("corrections")

    unit = gcn.GcnUnit(Fraction(1), Fraction(1))
    phi = 1.0
    sq = math.sqrt(5.0)
    h_plus, h_minus = (1 + sq) / 2, (1 - sq) / 2
    c_variant = h_plus * math.exp(h_plus * phi) + h_minus * math.exp(h_minus * phi)
    s_variant = (math.exp(h_plus * phi) + math.exp(h_minus * phi)) / (h_plus + h_minus)
    solved = euler.euler_closed_form(unit, phi)
    series = euler.euler_series(unit, phi, 1e-14)
    variant = euler.defining_identity_residual(unit, phi, c_variant, s_variant)
    rec.check("closed-form/variant-fails", variant > 1e-3, "> 1e-3", variant)
    rec.close(
        "closed-form/solved-passes",
        euler.defining_identity_residual(unit, phi, solved.c, solved.s),
        1e-10,
    )
    rec.close(
        "closed-form/matches-series",
        max(abs(solved.c - series.c), abs(solved.s - series.s)),
        1e-10,
    )

    x = cheby.X
    flipped = gcn.GcnUnit(MultiPoly.one(("x",)), -2 * x).companion()
    u0 = cheby.cheb_U(0).poly
    u1 = cheby.cheb_U(1).poly
    u2 = cheby.cheb_U(2).poly
    target = Mat2(-u0, -u1, u1, u2)
    rec.check("companion-signs/variant-fails", flipped ** 2 != target, "mismatch", "equal")
    corrected = cheby.cheb_unit().companion() ** 2
    rec.equal("companion-signs/corrected-passes", target, corrected)
    det = flipped.det()
    rec.check("companion-signs/variant-det", det == -1, -1, det)

    m = pauli.gaussian_mat(((2, 1), (1, 1)))
    u1_alpha = m.m11 + m.m22  # U_1(alpha) = 2*alpha, the trace
    plus_variant = m * u1_alpha + 1  # + U_0(alpha)*I, with U_0 = 1
    rec.check(
        "power-sign/variant-fails", plus_variant != m * m, "mismatch", "equal"
    )
    rec.equal("power-sign/corrected-passes", m * m, pauli.mat_power(m, 2, "chebyshev"))
    return rec.report()


def suite_all(
    nmax: int = DEFAULT_NMAX, seed: int = DEFAULT_SEED, tol: float | None = None
) -> list[VerificationReport]:
    """All suites in a fixed order (reports merge deterministically)."""
    numeric_tol = tol if tol is not None else _FLOAT_TOL
    return [
        suite_gcn(nmax=nmax, seed=seed, float_tol=numeric_tol),
        suite_euler(seed=seed, tol=numeric_tol),
        suite_cheb(nmax=nmax),
        suite_cheb_numeric(nmax=nmax, tol=numeric_tol),
        suite_mat(count=60, nmax=nmax, seed=seed),
        suite_u2(nmax=nmax),
        suite_hermite(order=12),
        suite_corrections(),
    ]


def merge_reports(reports: list[VerificationReport]) -> VerificationReport:
    merged = VerificationReport("all", 0, [], 0)
    for report in reports:
        merged.cases += report.cases
        merged.failures.extend(
            Failure(f"{report.suite}/{f.case}", f.expected, f.actual)
            for f in report.failures
        )
        merged.millis += report.millis
    return merged
