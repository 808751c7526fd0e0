"""The verification suites' recurrences are references of their own.

The library reads U_n and U2_n off the power walks of their units.  A
library that is wrong in a consistent way, in both the unit's coefficients
and the polynomials read off them, must still be caught by the suites'
hand-written recurrences.  The suites build their references for every n
up to nmax incrementally, so their cost grows linearly in nmax.  The
sampled-unit suites run theirs on integer numerators; each of those fast
references is checked here against the running product it replaced, and
a wrong library power at nmax must still fail its case.
"""

import math
import random
from fractions import Fraction

import pytest

from gencheb import cheby, gcn, higher, pauli, verify
from gencheb.matrices import Mat2, Mat3
from gencheb.poly import MultiPoly
from gencheb.scalars import GaussianRational


def _failed_cases(report):
    return {failure.case for failure in report.failures}


def test_cheb_reference_catches_consistent_b_and_u(monkeypatch):
    cheb_ab, cheb_u = cheby.cheb_AB, cheby.cheb_U

    def bad_ab(n):
        pair = cheb_ab(n)
        return cheby.ChebCoeffPair(n, pair.a, pair.b + 1) if n == 5 else pair

    def bad_u(n):
        u = cheb_u(n)
        return cheby.ChebPoly(u.kind, n, u.poly + 1) if n == 4 else u

    monkeypatch.setattr(cheby, "cheb_AB", bad_ab)
    monkeypatch.setattr(cheby, "cheb_U", bad_u)
    assert "b-is-u/n5" in _failed_cases(verify.suite_cheb(nmax=8))


def test_u2_reference_catches_consistent_series_and_gamma(monkeypatch):
    by_series, by_recurrence = higher.u2_by_series, higher.u2_by_recurrence
    sequence = higher.cubic_power_sequence

    def bad(route):
        def wrong(n_max):
            values = route(n_max)
            values[5] = higher.TwoVarCheb(5, values[5].poly + 1)
            return values

        return wrong

    def bad_sequence(u, v, n_max):
        values = sequence(u, v, n_max)
        c = values[6]
        values[6] = higher.CubicPowerCoeffs(6, c.alpha, c.beta, c.gamma + 1)
        return values

    monkeypatch.setattr(higher, "u2_by_series", bad(by_series))
    monkeypatch.setattr(higher, "u2_by_recurrence", bad(by_recurrence))
    monkeypatch.setattr(higher, "cubic_power_sequence", bad_sequence)
    assert "series-vs-rec/n5" in _failed_cases(verify.suite_u2(nmax=8))


def _counted_mat3_products(monkeypatch):
    counter = {"calls": 0}
    multiply = Mat3.__mul__

    def counted(self, other):
        counter["calls"] += 1
        return multiply(self, other)

    monkeypatch.setattr(Mat3, "__mul__", counted)
    return counter


def test_suite_u2_matrix_products_grow_linearly_in_nmax(monkeypatch):
    # The cubic-matrix cases walk one running product of the companion, and
    # raise it by squaring once, at nmax; raising it afresh for every n
    # costs O(nmax log nmax) products instead.
    counter = _counted_mat3_products(monkeypatch)
    counts = []
    for nmax in (16, 32):
        counter["calls"] = 0
        assert verify.suite_u2(nmax=nmax).ok
        counts.append(counter["calls"])
    assert counts[1] - counts[0] <= 20, counts


def test_sampled_unit_suites_grow_in_log_nmax_matrix_products(monkeypatch):
    # The references run on ints; the only matrix products left are the
    # library's powers by squaring at nmax: two per unit in suite_gcn (its
    # companion and the matrix route's), one per matrix in suite_mat.  Each
    # doubling of nmax adds at most two products to each.  Running products
    # of Mat2 would add 16 per unit and per matrix from nmax 16 to 32.
    counter = _counted_mat3_products(monkeypatch)
    units = matrices = 10
    counts = []
    for nmax in (16, 32):
        counter["calls"] = 0
        assert verify.suite_gcn(nmax=nmax, units=units).ok
        assert verify.suite_mat(count=matrices, nmax=nmax).ok
        counts.append(counter["calls"])
    assert counts[1] - counts[0] <= 2 * (2 * units + matrices), counts


# Fast references against the running products they replaced.

def _reference_units():
    rng = random.Random(20)
    units = [verify._random_unit(rng) for _ in range(20)]
    return units + [
        gcn.GcnUnit(Fraction(-9, 16), Fraction(3, 2)),  # D = 0
        gcn.GcnUnit(Fraction(0), Fraction(0)),  # D = 0 and a = 0
        gcn.GcnUnit(Fraction(-3, 2), Fraction(1, 3)),  # D < 0
        gcn.GcnUnit(2, 3),  # int coefficients, d = 1
    ]


def _unit_id(unit):
    return f"({unit.a},{unit.b})"


@pytest.mark.parametrize("unit", _reference_units(), ids=_unit_id)
def test_companion_columns_match_the_running_companion_product(unit):
    companion = unit.companion()
    power = companion.identity_like()
    columns = verify._companion_columns(unit)
    for n in range(41):
        if n:
            power = power * companion
        assert next(columns) == (power.column(0), power.det()), n


@pytest.mark.parametrize("unit", _reference_units(), ids=_unit_id)
def test_root_readings_match_the_running_surd_product(unit):
    root = gcn.conjugate_roots(unit).h_plus
    power = root ** 0
    readings = verify._root_readings(unit)
    for n in range(41):
        if n:
            power = power * root
        assert next(readings) == (power.p - unit.b * power.q, 2 * power.q), n


def _g(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def _reference_matrices():
    rng = random.Random(40)
    drawn = [verify._random_matrix(rng) for _ in range(6)]
    drawn += [verify._random_unimodular(rng) for _ in range(6)]
    return drawn + [
        Mat2(_g("1/2", "1/3"), _g("2/5"), _g(0, "-3/7"), _g(1)),
        Mat2(_g(3), _g(0, 2), _g(-1), _g(0)),  # e = 1
        Mat2(_g("1/4", "-1/6"), _g(0), _g(0), _g("5/9", "2/3")),
    ]


@pytest.mark.parametrize("m", _reference_matrices())
def test_matrix_powers_match_the_running_matrix_product(m):
    power = m.identity_like()
    powers = verify._matrix_powers(m)
    for n in range(41):
        if n:
            power = power * m
        fast = next(powers)
        assert fast == power, n
        assert [type(x) for x in fast.entries()] == [GaussianRational] * 4


# A walk wrong at n = 5, by one in b_5 for every unit, fails these cases and
# only these; so did the Mat2 and Surd running products.
_TAGS = ("unit0(3/4,3)", "unit1(0,2)", "unit2(-1/3,-2)", "unit3(5/2,0)")
_WALK5_FAILURES = {
    f"{tag}/n5/{kind}"
    for tag in _TAGS
    for kind in ("matrix", "surd", "float-b")
} | {f"{tag}/n6/a-from-b" for tag in _TAGS if tag != "unit1(0,2)"}  # a = 0


def test_a_walk_wrong_at_n5_fails_the_same_cases(monkeypatch):
    sequence = gcn.power_coeff_sequence

    def bad(unit, n_max):
        values = sequence(unit, n_max)
        a_5, b_5 = values[5]
        values[5] = (a_5, b_5 + 1)
        return values

    monkeypatch.setattr(gcn, "power_coeff_sequence", bad)
    report = verify.suite_gcn(nmax=8, units=len(_TAGS))
    assert _failed_cases(report) == _WALK5_FAILURES


_NMAX = 8


def _wrong_route(method):
    def patch(monkeypatch):
        route = gcn.power_coeffs

        def wrong(unit, n, chosen="recurrence"):
            a_n, b_n = route(unit, n, chosen)
            return (a_n + 1, b_n) if (chosen, n) == (method, _NMAX) else (a_n, b_n)

        monkeypatch.setattr(gcn, "power_coeffs", wrong)

    return patch


def _wrong_companion_power(monkeypatch):
    raise_ = Mat2.__pow__

    def wrong(self, n):
        out = raise_(self, n)
        # Only the unit's own companion, of Fractions; the matrix route
        # raises the companion of g = d*h, of ints.
        return out + 1 if n == _NMAX and type(self.m11) is Fraction else out

    monkeypatch.setattr(Mat2, "__pow__", wrong)


def _wrong_det(monkeypatch):
    det = Mat2.det
    monkeypatch.setattr(Mat2, "det", lambda self: det(self) + 1)


def _wrong_root_power(monkeypatch):
    raise_ = gcn.Surd.__pow__

    def wrong(self, n):
        out = raise_(self, n)
        return out + 1 if n == _NMAX else out

    monkeypatch.setattr(gcn.Surd, "__pow__", wrong)


@pytest.mark.parametrize(
    "patch, kinds",
    [
        (_wrong_companion_power, ("matrix", "det")),  # det = that power's det
        (_wrong_route("recurrence"), ("matrix",)),
        (_wrong_route("matrix"), ("matrix",)),
        (_wrong_det, ("det",)),
        (_wrong_root_power, ("surd",)),
        (_wrong_route("binet"), ("surd",)),
    ],
    ids=["companion-power", "recurrence", "matrix", "det", "root-power", "binet"],
)
def test_a_wrong_library_power_at_nmax_fails_its_case(monkeypatch, patch, kinds):
    patch(monkeypatch)
    report = verify.suite_gcn(nmax=_NMAX, units=len(_TAGS))
    assert _failed_cases(report) == {
        f"{tag}/n{_NMAX}/{kind}" for tag in _TAGS for kind in kinds
    }


def _wrong_polynomial_companion_power(monkeypatch):
    raise_ = Mat2.__pow__

    def wrong(self, n):
        out = raise_(self, n)
        # suite_cheb checks C^(n+1) for n <= nmax: the last power is nmax + 1.
        return out + 1 if n == _NMAX + 1 and isinstance(self.m11, MultiPoly) else out

    monkeypatch.setattr(Mat2, "__pow__", wrong)


def _wrong_cubic_matrix(monkeypatch):
    route = higher.cubic_power

    def wrong(u, v, n, method="reduction"):
        c = route(u, v, n, method)
        if (method, n) == ("matrix", _NMAX):
            return higher.CubicPowerCoeffs(n, c.alpha, c.beta, c.gamma + 1)
        return c

    monkeypatch.setattr(higher, "cubic_power", wrong)


def _wrong_mat_power(method, at):
    def patch(monkeypatch):
        route = pauli.mat_power

        def wrong(m, n, chosen="squaring"):
            out = route(m, n, chosen)
            return out + 1 if (chosen, n) == (method, at) else out

        monkeypatch.setattr(pauli, "mat_power", wrong)

    return patch


_COUNT = 5


@pytest.mark.parametrize(
    "patch, suite, failed",
    [
        (
            _wrong_polynomial_companion_power,
            lambda: verify.suite_cheb(nmax=_NMAX),
            {f"companion/n{_NMAX}"},
        ),
        (
            _wrong_cubic_matrix,
            lambda: verify.suite_u2(nmax=_NMAX),
            {f"cubic-matrix/n{_NMAX}"},
        ),
        (
            _wrong_mat_power("general_recurrence", 3),
            lambda: verify.suite_mat(count=_COUNT, nmax=_NMAX),
            {f"unimodular/{i}/n3/general" for i in range(_COUNT)},
        ),
        (
            _wrong_mat_power("squaring", _NMAX),
            lambda: verify.suite_mat(count=_COUNT, nmax=_NMAX),
            {f"unimodular/{i}/squaring" for i in range(_COUNT)},
        ),
    ],
    ids=["cheb-companion-power", "cubic-matrix", "mat-general", "mat-squaring"],
)
def test_a_wrong_library_value_fails_exactly_its_cases(monkeypatch, patch, suite, failed):
    patch(monkeypatch)
    assert _failed_cases(suite()) == failed



def test_the_costly_suites_stop_at_n32_whatever_nmax():
    # cheb-numeric checks two rows per n and mat-unit two routes per n.
    assert verify.suite_cheb_numeric(nmax=40).cases == 2 * 33
    assert verify.suite_mat(count=2, nmax=40).cases == verify.suite_mat(count=2, nmax=32).cases

def test_each_names_one_case_per_n_from_first():
    rec = verify._Recorder("each")
    rec.each("n{}/x", [1, 2, 3], [1, 0, 3], first=1)
    assert rec.cases == 3
    assert _failed_cases(rec.report()) == {"n2/x"}


def test_each_records_a_failing_case_with_its_name_and_texts():
    formatted = []

    class Template(str):
        def format(self, *args):
            formatted.append(args)
            return super().format(*args)

    x = MultiPoly.variable("x", "x")
    rec = verify._Recorder("each")
    rec.each(Template("u/n{}"), [Fraction(1, 2), 3, x], [Fraction(1, 2), Fraction(7, 3), x], first=4)
    assert rec.cases == 3
    assert rec.report().failures == [verify.Failure("u/n5", "3", "7/3")]
    # Only the failing case's name is formatted.
    assert formatted == [(5,)]


def test_each_refuses_sequences_of_unequal_length():
    # A family whose sides differ in length would drop cases without notice.
    with pytest.raises(ValueError):
        verify._Recorder("each").each("n{}", [1, 2, 3], [1, 2])


def test_close_passes_at_its_bound_and_fails_just_past_it():
    rec = verify._Recorder("close")
    bound = 1e-12
    rec.close("at", bound, bound)
    rec.close("past", math.nextafter(bound, math.inf), bound)
    assert rec.cases == 2
    assert _failed_cases(rec.report()) == {"past"}


def test_cheb_numeric_evaluates_50_thetas_from_0_1_to_3_0(monkeypatch):
    points = []
    evaluate = MultiPoly.evaluate_exact

    def spy(self, values):
        points.append(values["x"])
        return evaluate(self, values)

    monkeypatch.setattr(MultiPoly, "evaluate_exact", spy)
    nmax = 2
    verify.suite_cheb_numeric(nmax=nmax)
    # U_n and T_n at each theta, for n = 0 .. nmax.
    assert len(points) == (nmax + 1) * 2 * 50
    assert len(set(points)) == 50
    assert points[0] == Fraction(math.cos(0.1))
    assert points[-1] == Fraction(math.cos(3.0))
