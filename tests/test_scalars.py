import functools
import math
import operator
import random
from fractions import Fraction

import pytest

from gencheb.gcn import GcnElement, GcnUnit, Surd
from gencheb.matrices import Mat2, Mat3
from gencheb.poly import MultiPoly, gens
from gencheb.scalars import BigRational, GaussianRational


def test_big_rational_is_reduced_with_positive_denominator():
    rng = random.Random(101)
    for _ in range(200):
        value = BigRational(rng.randint(-500, 500), rng.choice([1, 2, 3, 7, 12, 360]))
        other = BigRational(rng.randint(-500, 500), rng.randint(1, 99))
        for result in (value + other, value - other, value * other):
            assert result.denominator > 0
            assert math.gcd(abs(result.numerator), result.denominator) == 1
    assert BigRational(0, 7) == BigRational(0, 1)


def test_gaussian_field_ops():
    z = GaussianRational(Fraction(1, 2), Fraction(3))
    w = GaussianRational(Fraction(-2), Fraction(1, 3))
    assert z + w == GaussianRational(Fraction(-3, 2), Fraction(10, 3))
    assert z * w == GaussianRational(Fraction(-2), Fraction(-35, 6))
    assert (z / w) * w == z
    assert z - z == GaussianRational()
    assert -(-z) == z


def test_conjugate_times_self_is_real():
    rng = random.Random(77)
    for _ in range(100):
        z = GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        product = z * z.conjugate()
        assert product.im == 0
        assert product.re == z.squared_norm()


def test_scalar_coercion_and_eq():
    one = GaussianRational(Fraction(1))
    assert one == 1
    assert 1 == one
    assert one + 1 == 2
    assert 3 * one == GaussianRational(Fraction(3))
    assert Fraction(1, 2) * one == GaussianRational(Fraction(1, 2))
    assert hash(one) == hash(1)
    assert GaussianRational(Fraction(0), Fraction(1)) ** 2 == -1


def test_powers_and_inverse():
    i = GaussianRational(Fraction(0), Fraction(1))
    assert i ** 4 == 1
    assert i ** -1 == -i
    z = GaussianRational(Fraction(3), Fraction(4))
    assert z * z.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        GaussianRational().inverse()


def test_floats_rejected():
    with pytest.raises(TypeError):
        GaussianRational(0.5)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        float(GaussianRational(Fraction(1), Fraction(1)))


_UV = ("u", "v")
_U, _V = gens(*_UV)
_P1, _P0 = MultiPoly.one(_UV), MultiPoly.zero(_UV)
_UNIT = GcnUnit(Fraction(1), Fraction(1))

# (value, identity of its type): every __pow__ goes through the one
# square-and-multiply loop in gencheb.scalars.power.
POWER_CASES = [
    (GaussianRational(Fraction(1, 2), Fraction(-2)), GaussianRational(Fraction(1))),
    (_U - 2 * _V + 1, _P1),
    (
        Mat2(Fraction(2), Fraction(1), Fraction(-1), Fraction(1, 3)),
        Mat2(Fraction(1), Fraction(0), Fraction(0), Fraction(1)),
    ),
    (
        Mat3(((_P0, _P0, _P1), (_P1, _P0, -_V), (_P0, _P1, _U))),
        Mat3(((_P1, _P0, _P0), (_P0, _P1, _P0), (_P0, _P0, _P1))),
    ),
    (
        GcnElement(_UNIT, Fraction(1, 2), Fraction(2)),
        GcnElement(_UNIT, Fraction(1), Fraction(0)),
    ),
    (
        Surd(Fraction(1, 2), Fraction(-3), Fraction(5)),
        Surd(Fraction(1), Fraction(0), Fraction(5)),
    ),
]


@pytest.mark.parametrize(
    "x, identity", POWER_CASES, ids=[type(x).__name__ for x, _ in POWER_CASES]
)
def test_power_is_repeated_product(x, identity):
    assert x ** 0 == identity
    assert type(x ** 0) is type(x)
    for n in range(1, 7):
        assert x ** n == functools.reduce(operator.mul, [x] * n)
    if isinstance(x, GaussianRational):
        for n in range(1, 4):
            assert x ** -n == x.inverse() ** n
            assert x ** -n * x ** n == identity
    else:
        with pytest.raises(ValueError):
            x ** -1
