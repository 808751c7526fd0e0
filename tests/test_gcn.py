import random
from fractions import Fraction
from itertools import islice

import pytest

from gencheb.gcn import (
    Element,
    GcnElement,
    GcnUnit,
    Surd,
    Unit,
    UnitMismatchError,
    companion_matrix,
    companion_power,
    conjugate_roots,
    power_coeff_sequence,
    power_coeffs,
    unit_power,
    unit_powers,
)
from gencheb.higher import CubicUnit
from gencheb.poly import MultiPoly, gens
from gencheb.scalars import GaussianRational

X, = gens("x")


def test_imaginary_unit_multiplication():
    unit = GcnUnit(Fraction(-1), Fraction(0))
    h = GcnElement(unit, Fraction(0), Fraction(1))
    square = h * h
    assert (square.re, square.im) == (-1, 0)


def test_defining_identity_generic_unit():
    unit = GcnUnit(Fraction(1), Fraction(1))
    h = GcnElement(unit, Fraction(0), Fraction(1))
    assert (h * h).re == 1 and (h * h).im == 1


def test_polynomial_unit_multiplication():
    unit = GcnUnit(MultiPoly.constant(("x",), -1), 2 * X)
    h = GcnElement(unit, MultiPoly.zero(("x",)), MultiPoly.one(("x",)))
    square = h * h
    assert square.re == -1
    assert square.im == 2 * X


def test_unit_mismatch_rejected():
    a = GcnElement(GcnUnit(Fraction(1), Fraction(0)), Fraction(1), Fraction(0))
    b = GcnElement(GcnUnit(Fraction(-1), Fraction(0)), Fraction(1), Fraction(0))
    with pytest.raises(UnitMismatchError):
        a * b
    with pytest.raises(UnitMismatchError):
        Surd(Fraction(1), Fraction(1), Fraction(2)) * Surd(
            Fraction(1), Fraction(1), Fraction(3)
        )


def test_powers_of_i():
    unit = GcnUnit(Fraction(-1), Fraction(0))
    expected = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)]
    for n, pair in enumerate(expected):
        assert power_coeffs(unit, n) == pair
        assert power_coeffs(unit, n, "matrix") == pair
        assert power_coeffs(unit, n, "binet") == pair


def test_fibonacci_coefficients():
    unit = GcnUnit(Fraction(1), Fraction(1))
    seq = power_coeff_sequence(unit, 6)
    assert [b for _, b in seq[1:]] == [1, 1, 2, 3, 5, 8]
    for n in range(1, 7):
        assert seq[n][0] == seq[n - 1][1]  # a_n = a * b_{n-1} with a = 1


def test_symbolic_power_against_repeated_multiplication():
    unit = GcnUnit(MultiPoly.constant(("x",), -1), 2 * X)
    h = GcnElement(unit, MultiPoly.zero(("x",)), MultiPoly.one(("x",)))
    cube = h * h * h
    a3, b3 = power_coeffs(unit, 3)
    assert (cube.re, cube.im) == (a3, b3)
    assert a3 == -2 * X
    assert b3 == 4 * X * X - 1
    assert h ** 3 == cube


def test_companion_matrix_shape_and_identity():
    rng = random.Random(5150)
    for _ in range(20):
        unit = GcnUnit(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        q = companion_matrix(unit)
        assert (q.m11, q.m12, q.m21, q.m22) == (0, unit.a, 1, unit.b)
        assert q * q == q * unit.b + q.identity_like() * unit.a


def test_companion_power_examples():
    unit_i = GcnUnit(Fraction(-1), Fraction(0))
    assert companion_power(unit_i, 4) == companion_matrix(unit_i).identity_like()
    fib = GcnUnit(Fraction(1), Fraction(1))
    seq = power_coeff_sequence(fib, 12)
    for n in range(12):
        advanced = companion_matrix(fib).apply(seq[n])
        assert advanced == seq[n + 1]
        power = companion_power(fib, n)
        assert (power.m11, power.m21) == seq[n]
        assert power.det() == (-fib.a) ** n


def test_negative_power_rejected():
    unit = GcnUnit(Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        power_coeffs(unit, -1)
    with pytest.raises(ValueError):
        companion_power(unit, -2)


def test_binet_requires_rational_unit():
    unit = GcnUnit(MultiPoly.constant(("x",), -1), 2 * X)
    with pytest.raises(TypeError):
        power_coeffs(unit, 3, "binet")
    with pytest.raises(ValueError):
        power_coeffs(GcnUnit(Fraction(1), Fraction(1)), 3, "nonsense")


def test_conjugate_root_examples():
    imaginary = conjugate_roots(GcnUnit(Fraction(-1), Fraction(0)))
    assert imaginary.numeric() == (1j, -1j)
    golden = conjugate_roots(GcnUnit(Fraction(1), Fraction(1)))
    plus, minus = golden.numeric()
    assert abs(plus - (1 + 5 ** 0.5) / 2) < 1e-15
    assert abs(minus - (1 - 5 ** 0.5) / 2) < 1e-15
    degenerate = conjugate_roots(GcnUnit(Fraction(-1), Fraction(2)))
    assert degenerate.degenerate
    assert degenerate.numeric() == (1.0, 1.0)


def test_root_invariants_exact():
    rng = random.Random(99)
    for _ in range(30):
        unit = GcnUnit(
            Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
        )
        roots = conjugate_roots(unit)
        assert roots.h_plus + roots.h_minus == unit.b
        assert roots.h_plus * roots.h_minus == -unit.a
        delta = unit.discriminant
        assert roots.h_plus - roots.h_minus == Surd(Fraction(0), Fraction(1), delta)


def test_binet_numerators_in_surd_arithmetic():
    # b_n * (h+ - h-) must equal h+^n - h-^n exactly, for n <= 20.
    unit = GcnUnit(Fraction(2, 3), Fraction(-5, 7))
    roots = conjugate_roots(unit)
    seq = power_coeff_sequence(unit, 20)
    for n in range(21):
        lhs = (roots.h_plus - roots.h_minus) * seq[n][1]
        rhs = roots.h_plus ** n - roots.h_minus ** n
        assert lhs == rhs


def test_method_agreement_random_units():
    rng = random.Random(321)
    for _ in range(25):
        unit = GcnUnit(
            Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
        )
        seq = power_coeff_sequence(unit, 16)
        for n in (0, 1, 2, 7, 16):
            assert power_coeffs(unit, n, "matrix") == seq[n]
            assert power_coeffs(unit, n, "binet") == seq[n]


def test_degenerate_unit_binet_stays_exact():
    # Discriminant zero: the closed form goes through nilpotent sqrt(0).
    unit = GcnUnit(Fraction(-1), Fraction(2))
    assert unit.is_degenerate
    seq = power_coeff_sequence(unit, 10)
    for n in range(11):
        assert power_coeffs(unit, n, "binet") == seq[n]
        float_a, float_b = power_coeffs(unit, n, "binet_float")
        assert abs(float_a - seq[n][0]) < 1e-9
        assert abs(float_b - seq[n][1]) < 1e-9


def _g(re, im):
    return GaussianRational(Fraction(re), Fraction(im))


# Units h^k = c_0 + ... + c_{k-1}*h^{k-1} for k = 1..4 over each coefficient
# ring; the polynomial ones mix int and MultiPoly coefficients, as the cubic
# unit (1, -v, u) does.
UNIT_COEFFS = [
    (3,), (2, -1), (1, 0, -2), (1, -1, 2, 1),
    (Fraction(-3, 2),), (Fraction(11, 13), Fraction(7, 5)),
    (Fraction(1, 3), Fraction(-2, 5), Fraction(3, 4)),
    (Fraction(1, 2), Fraction(2), Fraction(-3, 7), Fraction(1, 5)),
    (_g(1, 1),), (_g(-1, 0), _g(Fraction(3, 2), Fraction(1, 3))),
    (_g(1, -1), _g(0, 1), _g(Fraction(1, 2), 0)),
    (_g(0, 1), _g(1, 0), _g(-1, 1), _g(Fraction(1, 3), 2)),
    (2 * X,), (-1, 2 * X), (1, -X, X + 1), (X, 0, -1, 1 - X),
]


@pytest.mark.parametrize("coeffs", UNIT_COEFFS)
def test_unit_power_matches_walk(coeffs):
    walk = list(islice(unit_powers(coeffs), 71))
    companion = Unit(coeffs).companion()
    e_0 = (1,) + (0,) * (len(coeffs) - 1)
    for n, expected in enumerate(walk):
        assert unit_power(coeffs, n) == expected, n
        assert (companion ** n).apply(e_0) == expected, n


def test_unit_power_rejects_negative_index():
    with pytest.raises(ValueError):
        unit_power((1, 1), -1)


def test_recurrence_route_at_large_index():
    unit = GcnUnit(Fraction(11, 13), Fraction(7, 5))
    by_recurrence = power_coeffs(unit, 4096, "recurrence")
    assert by_recurrence == power_coeffs(unit, 4096, "matrix")
    assert by_recurrence == power_coeffs(unit, 4096, "binet")


def _pair_mul(unit, x, y):
    """(x0 + x1*h)(y0 + y1*h) with h^2 = a + b*h, written out."""
    a, b = unit
    cross = x[1] * y[1]
    return (x[0] * y[0] + a * cross, x[0] * y[1] + x[1] * y[0] + b * cross)


def test_views_match_pair_formula_reference():
    rng = random.Random(20261018)

    def fraction():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    for _ in range(40):
        a, b = fraction(), fraction()
        delta = fraction()
        views = [
            (lambda x, y: GcnElement(GcnUnit(a, b), x, y), (a, b), lambda e: (e.re, e.im)),
            (lambda x, y: Surd(x, y, delta), (delta, 0), lambda e: (e.p, e.q)),
        ]
        for make, unit, pair in views:
            x, y = (fraction(), fraction()), (fraction(), fraction())
            ex, ey, s = make(*x), make(*y), fraction()
            results = {
                "add": (ex + ey, (x[0] + y[0], x[1] + y[1])),
                "sub": (ex - ey, (x[0] - y[0], x[1] - y[1])),
                "neg": (-ex, (-x[0], -x[1])),
                "mul": (ex * ey, _pair_mul(unit, x, y)),
                "add-scalar": (ex + s, (x[0] + s, x[1])),
                "scalar-add": (s + ex, (s + x[0], x[1])),
                "sub-scalar": (ex - s, (x[0] - s, x[1])),
                "scalar-sub": (s - ex, (s - x[0], -x[1])),
                "mul-scalar": (ex * s, (x[0] * s, x[1] * s)),
                "scalar-mul": (s * ex, (s * x[0], s * x[1])),
                "conjugate": (ex.conjugate(), (x[0] + unit[1] * x[1], -x[1])),
            }
            expected = (Fraction(1), Fraction(0))
            for n in range(7):
                results[f"pow{n}"] = (ex ** n, expected)
                expected = _pair_mul(unit, expected, x)
            for name, (value, want) in results.items():
                assert type(value) is type(ex), name
                assert pair(value) == want, name
            # Zero higher coefficients: the element equals its constant.
            constant = make(s, Fraction(0))
            assert constant == s and s == constant and hash(constant) == hash(s)
            assert (ex == x[0]) == (x[1] == 0)
    for coeffs in ((3,), (1, 2, -1), (Fraction(1, 2), 0, 1, 2)):
        k = len(coeffs)
        constant = Element(Unit(coeffs), (Fraction(5, 7),) + (0,) * (k - 1))
        assert constant == Fraction(5, 7) and hash(constant) == hash(Fraction(5, 7))
        from_lists = Element(Unit(list(coeffs)), [1] * k)
        assert from_lists == Element(Unit(coeffs), (1,) * k)
        assert hash(from_lists) == hash(Element(Unit(coeffs), (1,) * k))
        assert constant == Surd(Fraction(5, 7), 0, Fraction(2))
        with pytest.raises(ValueError):
            Element(Unit(coeffs), (1,) + (0,) * (k - 1)).conjugate()
    # A view's unit is the relation itself: it equals, hashes like and
    # combines with the plain unit of the same coefficients, on either side.
    for view, plain in ((GcnUnit(1, 1), Unit((1, 1))), (CubicUnit(1, 2), Unit((1, -2, 1)))):
        assert view == plain and plain == view and hash(view) == hash(plain)
    assert GcnUnit(1, 1) != Unit((1, -1)) and CubicUnit(1, 2) != Unit((1, 2, 1))
    view, plain = GcnElement(GcnUnit(1, 1), 1, 2), Element(Unit((1, 1)), (1, 2))
    assert view == plain and plain == view and hash(view) == hash(plain)
    want = _pair_mul((1, 1), (1, 2), (1, 2))
    for product in (view * plain, plain * view):
        assert product.coeffs == want
    assert type(view * plain) is GcnElement and (view * plain) == (plain * view)
