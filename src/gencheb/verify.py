"""Verification suites: every identity in the library, run to a report.

Each suite returns a :class:`VerificationReport`; the CLI renders reports
and maps "zero failures" to exit code 0.  Suites that draw random inputs
take an explicit seed and derive a per-suite stream from it, so identical
invocations produce identical reports.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import cheby, euler, gcn, higher, pauli
from .matrices import Mat2
from .poly import MultiPoly
from .scalars import GaussianRational

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
    def __init__(self) -> None:
        self.cases = 0
        self.failures: list[Failure] = []

    def check(self, case: str, ok: bool, expected: object = "", actual: object = "") -> None:
        self.cases += 1
        if not ok:
            self.failures.append(Failure(case, str(expected), str(actual)))

    def equal(self, case: str, expected: object, actual: object) -> None:
        self.check(case, expected == actual, expected, actual)

    def close(self, case: str, value: float, bound: float) -> None:
        self.check(case, value <= bound, f"<= {bound}", value)


def _finish(name: str, recorder: _Recorder, started: float) -> VerificationReport:
    millis = int((time.perf_counter() - started) * 1000)
    return VerificationReport(name, recorder.cases, recorder.failures, millis)


def _random_fraction(rng: random.Random, top: int = 5) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


def _random_unit(rng: random.Random, top: int = 5) -> gcn.GcnUnit:
    return gcn.GcnUnit(_random_fraction(rng, top), _random_fraction(rng, top))


def suite_gcn(
    nmax: int = DEFAULT_NMAX,
    units: int = 50,
    seed: int = DEFAULT_SEED,
    float_tol: float = 1e-10,
) -> VerificationReport:
    """Power-coefficient agreement: recurrence vs matrix vs root closed form.

    The floating closed form is compared with a scale-aware bound
    |delta| <= tol * max(1, rho^n) where rho is the larger root modulus;
    an absolute bound is meaningless once the coefficients reach 1e40.
    """
    started = time.perf_counter()
    rec = _Recorder()
    rng = random.Random(f"{seed}:gcn")
    for i in range(units):
        unit = _random_unit(rng)
        tag = f"unit{i}({unit.a},{unit.b})"
        roots = gcn.conjugate_roots(unit)
        root = roots.h_plus
        rho = max(*map(abs, roots.numeric()), 1.0)
        companion = gcn.companion_matrix(unit)
        matrix_power = companion.identity_like()
        surd_power = root ** 0
        seq = gcn.power_coeff_sequence(unit, nmax)
        scale = 1.0
        for n, (a_n, b_n) in enumerate(seq):
            if n:
                matrix_power = matrix_power * companion
                surd_power = surd_power * root
                scale *= rho
            rec.equal(f"{tag}/n{n}/matrix", (a_n, b_n), matrix_power.column(0))
            binet_b = 2 * surd_power.q
            binet_a = surd_power.p - unit.b * surd_power.q
            rec.equal(f"{tag}/n{n}/surd", (a_n, b_n), (binet_a, binet_b))
            af, bf = gcn.power_coeffs(unit, n, "binet_float")
            bound = float_tol * max(1.0, scale)
            rec.close(f"{tag}/n{n}/float-a", abs(af - float(a_n)), bound)
            rec.close(f"{tag}/n{n}/float-b", abs(bf - float(b_n)), bound)
            if n >= 1:
                rec.equal(
                    f"{tag}/n{n}/a-from-b", a_n, unit.a * seq[n - 1][1]
                )
            rec.equal(
                f"{tag}/n{n}/det", matrix_power.det(), (-unit.a) ** n
            )
    return _finish("gcn-power-methods", rec, started)


def suite_euler(
    seed: int = DEFAULT_SEED,
    grid_points: int = 100,
    units: int = 20,
    pairs: int = 100,
    tol_trig: float = 1e-12,
    tol_ode: float = 1e-10,
    tol_add: float = 1e-10,
) -> VerificationReport:
    started = time.perf_counter()
    rec = _Recorder()
    rng = random.Random(f"{seed}:euler")

    circle = gcn.GcnUnit(Fraction(-1), Fraction(0))
    for k in range(grid_points):
        phi = -3.0 + 6.0 * k / (grid_points - 1)
        pair = euler.euler_series(circle, phi, 1e-14)
        rec.close(f"circle/phi{k}/cos", abs(pair.c - math.cos(phi)), tol_trig)
        rec.close(f"circle/phi{k}/sin", abs(pair.s - math.sin(phi)), tol_trig)

    # Small random units keep double-precision roundoff far below tol.
    def small_unit() -> gcn.GcnUnit:
        return gcn.GcnUnit(_random_fraction(rng, 2), _random_fraction(rng, 2))

    grid = [-2.0 + 4.0 * k / 20 for k in range(21)]
    for i in range(units):
        unit = small_unit()
        report = euler.ode_residual(unit, grid, 1e-13)
        rec.close(f"ode/unit{i}/c", report.max_c_residual, tol_ode)
        rec.close(f"ode/unit{i}/s", report.max_s_residual, tol_ode)
        seed_pair = euler.euler_series(unit, 0.0, 1e-13)
        rec.equal(f"seed/unit{i}", (1.0, 0.0), (seed_pair.c, seed_pair.s))
        for j, phi in enumerate((-1.5, -0.25, 0.5, 1.25)):
            series_pair = euler.euler_series(unit, phi, 1e-13)
            closed_pair = euler.euler_closed_form(unit, phi)
            rec.close(
                f"closed/unit{i}/phi{j}",
                max(abs(series_pair.c - closed_pair.c), abs(series_pair.s - closed_pair.s)),
                tol_ode,
            )

    for i in range(pairs):
        unit = small_unit()
        phi = rng.uniform(-1.0, 1.0)
        psi = rng.uniform(-1.0, 1.0)
        rc, rs = euler.addition_residuals(unit, phi, psi, 1e-13)
        rec.close(f"addition/{i}/c", rc, tol_add)
        rec.close(f"addition/{i}/s", rs, tol_add)
    return _finish("euler-pair", rec, started)


def suite_cheb(nmax: int = DEFAULT_NMAX, ode_nmax: int | None = None) -> VerificationReport:
    """Exact Chebyshev identities; every residual must be the zero polynomial."""
    started = time.perf_counter()
    rec = _Recorder()
    if ode_nmax is None:
        ode_nmax = min(nmax, 32)
    x = cheby.X
    one = MultiPoly.one(("x",))
    for n in range(nmax + 1):
        u_n = cheby.cheb_U(n).poly
        u_prev = cheby.cheb_U(n - 1).poly if n >= 1 else MultiPoly.zero(("x",))
        u_next = cheby.cheb_U(n + 1).poly
        rec.equal(f"pell/n{n}", one, u_n * u_n - u_prev * u_next)
        pair = cheby.cheb_AB(n)
        pair_next = cheby.cheb_AB(n + 1)
        rec.equal(f"b-is-u/n{n}", u_prev, pair.b)
        rec.equal(f"b-is-neg-a/n{n}", pair.b, -pair_next.a)
        rec.equal(
            f"norm/n{n}",
            one,
            pair.a * pair.a + 2 * x * pair.a * pair.b + pair.b * pair.b,
        )
        power = cheby.cheb_companion_power(n)
        expected = Mat2(-u_prev, -u_n, u_n, u_next)
        rec.equal(f"companion/n{n}", expected, power)
        if n <= 32:
            t_n = cheby.cheb_T(n).poly
            rec.equal(
                f"t-norm/n{n}", one, t_n * t_n - (x * x - 1) * u_prev * u_prev
            )
    for n in range(ode_nmax + 1):
        rec.equal(f"u-ode/n{n}", MultiPoly.zero(("x",)), cheby.u_ode_residual(n))
        if n >= 1:
            rec.equal(
                f"b-ode/n{n}", MultiPoly.zero(("x",)), cheby.b_ode_residual(n)
            )
    return _finish("cheb-exact", rec, started)


def suite_cheb_numeric(
    nmax: int = DEFAULT_NMAX, points: int = 50, tol: float = 1e-10
) -> VerificationReport:
    """sin/cos quotient identities, evaluated exactly at binary64 points."""
    started = time.perf_counter()
    rec = _Recorder()
    thetas = [0.1 + (3.0 - 0.1) * k / (points - 1) for k in range(points)]
    for n in range(nmax + 1):
        u_poly = cheby.cheb_U(n).poly
        t_poly = cheby.cheb_T(n).poly
        worst_u = worst_t = 0.0
        for theta in thetas:
            x_exact = Fraction(math.cos(theta))
            u_val = float(u_poly.evaluate_exact({"x": x_exact}))
            t_val = float(t_poly.evaluate_exact({"x": x_exact}))
            worst_u = max(worst_u, abs(u_val * math.sin(theta) - math.sin((n + 1) * theta)))
            worst_t = max(worst_t, abs(t_val - math.cos(n * theta)))
        rec.close(f"u-sine/n{n}", worst_u, tol)
        rec.close(f"t-cosine/n{n}", worst_t, tol)
    return _finish("cheb-numeric", rec, started)


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


def suite_mat(
    count: int = 200, nmax: int = 32, seed: int = DEFAULT_SEED
) -> VerificationReport:
    started = time.perf_counter()
    rec = _Recorder()
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
        power = m.identity_like()
        for n in range(nmax + 1):
            if n:
                power = power * m
            rec.equal(
                f"unimodular/{i}/n{n}/chebyshev",
                power,
                pauli.mat_power(m, n, "chebyshev"),
            )
            rec.equal(
                f"unimodular/{i}/n{n}/general",
                power,
                pauli.mat_power(m, n, "general_recurrence"),
            )
        squared = pauli.mat_power(m, nmax, "squaring")
        rec.equal(f"unimodular/{i}/squaring", power, squared)
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
            rec.equal(f"anticommutator/{i}{j}", expected, pauli.anticommutator(a, b))
    return _finish("mat-unit", rec, started)


def suite_u2(nmax: int = DEFAULT_NMAX) -> VerificationReport:
    started = time.perf_counter()
    rec = _Recorder()
    by_series = higher.u2_by_series(nmax + 1)
    by_rec = higher.u2_by_recurrence(nmax + 1)
    for n in range(nmax + 2):
        rec.equal(f"series-vs-rec/n{n}", by_series[n].poly, by_rec[n].poly)
    for n in range(nmax + 1):
        rec.equal(
            f"series-vs-laplace/n{n}",
            by_series[n + 1].poly,
            higher.u2_by_laplace(n).poly,
        )
    u, v = higher.u2_gens()
    reduction = higher.cubic_power_sequence(u, v, nmax)
    for n in range(nmax + 1):
        coeffs = reduction[n]
        matrix = higher.cubic_power(u, v, n, "matrix")
        rec.equal(
            f"cubic-matrix/n{n}",
            (coeffs.alpha, coeffs.beta, coeffs.gamma),
            (matrix.alpha, matrix.beta, matrix.gamma),
        )
        expected_gamma = by_series[n - 1].poly if n >= 1 else MultiPoly.zero(higher.UV)
        rec.equal(f"gamma-is-u2/n{n}", expected_gamma, coeffs.gamma)
    unit = higher.CubicUnit(u, v)
    companion = unit.companion()
    rec.equal(
        "companion-cubic",
        companion ** 3,
        companion * companion * u - companion * v + 1,
    )
    return _finish("u2-triple", rec, started)


def suite_hermite(order: int = 12) -> VerificationReport:
    started = time.perf_counter()
    rec = _Recorder()
    series = higher.hermite3_generating_series(order)
    for n in range(order + 1):
        h_n = higher.hermite3(n)
        scaled = h_n.poly * Fraction(1, math.factorial(n))
        rec.equal(f"generating/n{n}", series.coefficient(n), scaled)
        pure = MultiPoly(higher.XYZ, {(n, 0, 0): 1})
        rec.equal(
            f"pure-x/n{n}",
            pure,
            MultiPoly(
                higher.XYZ,
                {
                    exps: c
                    for exps, c in h_n.poly.terms.items()
                    if exps[1] == 0 and exps[2] == 0
                },
            ),
        )
    return _finish("hermite3", rec, started)


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
    started = time.perf_counter()
    rec = _Recorder()

    unit = gcn.GcnUnit(Fraction(1), Fraction(1))
    phi = 1.0
    sq = math.sqrt(5.0)
    h_plus, h_minus = (1 + sq) / 2, (1 - sq) / 2
    c_variant = h_plus * math.exp(h_plus * phi) + h_minus * math.exp(h_minus * phi)
    s_variant = (math.exp(h_plus * phi) + math.exp(h_minus * phi)) / (h_plus + h_minus)
    solved = euler.euler_closed_form(unit, phi)
    series = euler.euler_series(unit, phi, 1e-14)
    rec.check(
        "closed-form/variant-fails",
        euler.defining_identity_residual(unit, phi, c_variant, s_variant) > 1e-3,
        "> 1e-3",
        euler.defining_identity_residual(unit, phi, c_variant, s_variant),
    )
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
    flipped = gcn.GcnUnit(MultiPoly.one(("x",)), -2 * x)
    u0 = cheby.cheb_U(0).poly
    u1 = cheby.cheb_U(1).poly
    u2 = cheby.cheb_U(2).poly
    target = Mat2(-u0, -u1, u1, u2)
    rec.check(
        "companion-signs/variant-fails",
        gcn.companion_power(flipped, 2) != target,
        "mismatch",
        "equal",
    )
    rec.equal(
        "companion-signs/corrected-passes", target, cheby.cheb_companion_power(1)
    )
    rec.check(
        "companion-signs/variant-det",
        gcn.companion_matrix(flipped).det() == -1,
        -1,
        gcn.companion_matrix(flipped).det(),
    )

    m = pauli.gaussian_mat(((2, 1), (1, 1)))
    u1_alpha = m.m11 + m.m22  # U_1(alpha) = 2*alpha, the trace
    plus_variant = m * u1_alpha + 1  # + U_0(alpha)*I, with U_0 = 1
    rec.check(
        "power-sign/variant-fails", plus_variant != m * m, "mismatch", "equal"
    )
    rec.equal("power-sign/corrected-passes", m * m, pauli.mat_power(m, 2, "chebyshev"))
    return _finish("corrections", rec, started)


def suite_all(
    nmax: int = DEFAULT_NMAX, seed: int = DEFAULT_SEED, tol: float | None = None
) -> list[VerificationReport]:
    """All suites in a fixed order (reports merge deterministically)."""
    numeric_tol = tol if tol is not None else 1e-10
    return [
        suite_gcn(nmax=nmax, seed=seed, float_tol=numeric_tol),
        suite_euler(seed=seed, tol_ode=numeric_tol, tol_add=numeric_tol),
        suite_cheb(nmax=nmax),
        suite_cheb_numeric(nmax=min(nmax, 32), tol=numeric_tol),
        suite_mat(count=60, nmax=min(nmax, 32), seed=seed),
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
