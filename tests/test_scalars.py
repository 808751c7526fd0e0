import copy
import functools
import itertools
import math
import operator
import pickle
import random
import sys
from fractions import Fraction

import pytest

from gencheb import cli
from gencheb.gcn import GcnElement, GcnUnit, Surd, power_coeffs, unit_power
from gencheb.higher import cubic_power
from gencheb.matrices import Mat2, Mat3
from gencheb.pauli import mat_power
from gencheb.poly import MultiPoly, gens
from gencheb.scalars import (
    BigRational,
    GaussianRational,
    _from_coprime,
    _kind,
    _stripped,
    _unchecked,
    zero_of,
)
from gencheb.series import TruncatedSeries


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


# A plain pair-of-Fractions model of the Gaussian rationals: the reference
# every GaussianRational operation is compared with.
def ref_pair(value):
    if isinstance(value, GaussianRational):
        return value.re, value.im
    return Fraction(value), Fraction(0)


def ref_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def ref_div(x, y):
    (a, b), (c, d) = x, y
    norm = c * c + d * d
    return (a * c + b * d) / norm, (b * c - a * d) / norm


def ref_pow(x, n):
    out = (Fraction(1), Fraction(0))
    base = ref_div(out, x) if n < 0 else x
    for _ in range(abs(n)):
        out = ref_mul(out, base)
    return out


def random_part(rng):
    # Small denominators that divide 6, so operands often share d exactly.
    return Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 6]))


def scalar_operands(rng):
    values = [
        GaussianRational(),
        GaussianRational(Fraction(5, 6)),
        GaussianRational(0, Fraction(-7, 3)),
        GaussianRational(Fraction(1, 6), Fraction(-1, 6)),
        GaussianRational(Fraction(1, 2), Fraction(1, 3)),
        0, -3, Fraction(0), Fraction(-5, 6),
    ]
    for _ in range(24):
        kind = rng.randrange(5)
        if kind == 0:
            values.append(rng.randint(-4, 4))
        elif kind == 1:
            values.append(random_part(rng))
        else:
            values.append(GaussianRational(random_part(rng), random_part(rng)))
    return values


def assert_matches(result, ref):
    """``result`` is the reference value, in the one stored form."""
    expected = GaussianRational(*ref)
    assert type(result) is GaussianRational
    assert (result.re, result.im) == ref
    assert result == expected and expected == result
    assert hash(result) == hash(expected)
    assert result.is_real == (ref[1] == 0)
    if ref[1] == 0:
        assert result == ref[0] and ref[0] == result
        assert hash(result) == hash(ref[0])


def test_operations_match_fraction_pair_reference():
    rng = random.Random(20261019)
    values = scalar_operands(rng)
    for x, y in itertools.product(values, repeat=2):
        if not (isinstance(x, GaussianRational) or isinstance(y, GaussianRational)):
            continue
        rx, ry = ref_pair(x), ref_pair(y)
        assert_matches(x + y, (rx[0] + ry[0], rx[1] + ry[1]))
        assert_matches(x - y, (rx[0] - ry[0], rx[1] - ry[1]))
        assert_matches(x * y, ref_mul(rx, ry))
        if ry == (0, 0):
            with pytest.raises(ZeroDivisionError):
                x / y
        else:
            assert_matches(x / y, ref_div(rx, ry))
        assert (x == y) == (rx == ry) and (y == x) == (rx == ry)
        assert (x != y) == (rx != ry)
        if rx == ry:
            assert hash(x) == hash(y)
    for x in values:
        if not isinstance(x, GaussianRational):
            continue
        re, im = ref_pair(x)
        assert_matches(-x, (-re, -im))
        assert_matches(x.conjugate(), (re, -im))
        assert x.squared_norm() == re * re + im * im
        assert type(x.squared_norm()) is Fraction
        assert bool(x) == (re != 0 or im != 0)
        if x:
            assert_matches(x.inverse(), ref_div((Fraction(1), Fraction(0)), (re, im)))
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        for n in range(-3, 4):
            if n < 0 and not x:
                with pytest.raises(ZeroDivisionError):
                    x ** n
            else:
                assert_matches(x ** n, ref_pow((re, im), n))


def test_equal_values_by_different_routes():
    half = GaussianRational(Fraction(1, 2))
    sixth, third = GaussianRational(Fraction(1, 6)), GaussianRational(Fraction(1, 3))
    routes = [
        (sixth + third) + GaussianRational(0, 0),
        sixth + sixth + sixth,
        GaussianRational(Fraction(1, 4), Fraction(1, 4)) * GaussianRational(1, -1),
        GaussianRational(Fraction(3, 4), Fraction(1, 2))
        - GaussianRational(Fraction(1, 4), Fraction(1, 2)),
        GaussianRational(2).inverse(),
        GaussianRational(0, 2) ** -1 * GaussianRational(0, 1),
        3 * sixth,
        Fraction(1, 2) - GaussianRational(0, 0),
        GaussianRational(Fraction(3, 2)) / 3,
    ]
    for value in routes:
        assert value == half and value == Fraction(1, 2)
        assert hash(value) == hash(half) == hash(Fraction(1, 2))
        assert repr(value) == repr(half) and str(value) == "1/2"
    assert len({half, Fraction(1, 2), *routes}) == 1
    z = GaussianRational(Fraction(1, 6), Fraction(1, 6)) + GaussianRational(
        Fraction(1, 6), Fraction(1, 2)
    )
    assert z == GaussianRational(Fraction(1, 3), Fraction(2, 3))
    assert hash(z) == hash(GaussianRational(Fraction(1, 3), Fraction(2, 3)))
    assert GaussianRational(0, 3) ** 2 == -9
    assert hash(GaussianRational(0, 3) ** 2) == hash(-9)


def test_instances_are_immutable():
    z = GaussianRational(Fraction(1, 2), Fraction(-3))
    for name in ("re", "im", "is_real", "_t", "extra"):
        with pytest.raises(AttributeError):
            setattr(z, name, Fraction(1))
        with pytest.raises(AttributeError):
            delattr(z, name)
    assert z == GaussianRational(Fraction(1, 2), Fraction(-3))
    assert copy.deepcopy(z) == z and pickle.loads(pickle.dumps(z)) == z

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


_X, = gens("x")
_UNIT = GcnUnit(Fraction(1, 2), 1)
_DET_1 = Mat2(2, 1, 1, 1)
# Every entry point that raises something to a power n.
_POWERS = {
    "GcnElement": lambda n: GcnElement(_UNIT, 1, 2) ** n,
    "Surd": lambda n: Surd(1, 1, 2) ** n,
    "TruncatedSeries": lambda n: TruncatedSeries(("x",), [1, _X]) ** n,
    "Mat2": lambda n: _DET_1 ** n,
    "Mat3": lambda n: Mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1))) ** n,
    "MultiPoly": lambda n: (_X + 1) ** n,
    "unit_power-exact": functools.partial(unit_power, (Fraction(1, 2), 1)),
    "unit_power-polynomial": functools.partial(unit_power, (1, _X)),
}
for _method in ("recurrence", "matrix", "binet", "binet_float"):
    _POWERS[f"power_coeffs-{_method}"] = functools.partial(
        power_coeffs, _UNIT, method=_method
    )
for _method in ("chebyshev", "squaring", "general_recurrence"):
    _POWERS[f"mat_power-{_method}"] = functools.partial(mat_power, _DET_1, method=_method)
for _method in ("reduction", "matrix"):
    _POWERS[f"cubic_power-{_method}"] = functools.partial(cubic_power, 1, 2, method=_method)


@pytest.mark.parametrize("raise_to", _POWERS.values(), ids=_POWERS.keys())
def test_every_power_refuses_a_negative_index_in_one_message(raise_to):
    raise_to(2)  # the entry point works at n >= 0
    with pytest.raises(ValueError) as info:
        raise_to(-1)
    assert str(info.value) == "power index must be non-negative"


def test_kind_matches_the_zero_of_every_mix_of_exact_scalars():
    # _kind reads the result type of exact-scalar ring arithmetic off the
    # types alone; zero_of learns it by arithmetic.
    values = (
        0,
        -3,
        Fraction(0),
        Fraction(-2, 7),
        GaussianRational(),
        GaussianRational(Fraction(1, 2), -1),
    )
    for k in range(1, 4):
        for mix in itertools.product(values, repeat=k):
            assert _kind(mix) is type(zero_of(*mix)), mix


def test_gcd_free_builder_matches_the_checked_constructors():
    # _from_coprime builds a Fraction through object.__new__ and its two
    # slots, with no gcd; it must be indistinguishable from Fraction(n, d).
    rng = random.Random(20261019)
    pairs = [(0, 1), (1, 1), (-1, 1), (7, 1), (-3, 4), (4, 65), (2 ** 200 + 1, 2 ** 70)]
    while len(pairs) < 60:
        n, d = rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 30)
        g = math.gcd(n, d)
        pairs.append((n // g, d // g))
    other = Fraction(-7, 13)
    for n, d in pairs:
        built, want = _from_coprime(Fraction, n, 0, d), Fraction(n, d)
        assert type(built) is Fraction
        assert (built.numerator, built.denominator) == (want.numerator, want.denominator)
        assert built == want and hash(built) == hash(want)
        assert str(built) == str(want) and repr(built) == repr(want)
        assert pickle.loads(pickle.dumps(built)) == want
        assert copy.deepcopy(built) == want
        for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.lt):
            assert op(built, other) == op(want, other)
            if n or op is not operator.truediv:
                assert op(other, built) == op(other, want)
        assert -built == -want and abs(built) == abs(want) and built ** 3 == want ** 3
        assert float(built) == float(want) and built == built + 0
        q = rng.randint(-10 ** 20, 10 ** 20)
        if math.gcd(n, q, d) == 1:
            assert _from_coprime(GaussianRational, n, q, d)._t == _unchecked(n, q, d)._t
    zero = _from_coprime(Fraction, 0, 0, 1)
    assert (zero.numerator, zero.denominator) == (0, 1) and zero == 0 and hash(zero) == 0
    assert type(_from_coprime(int, -5, 0, 1)) is int


def test_stripped_reduces_as_one_gcd_does():
    # The base need only hold every prime of den: here a product of small
    # primes, possibly with primes den lacks, and factors of den cancel with
    # powers of 2, 3, 5 and 7 that the base holds only once.
    rng = random.Random(20261020)
    primes = [2, 3, 5, 7]
    for _ in range(300):
        used = [r for r in primes if rng.random() < 0.6] or [2]
        den = math.prod(r ** rng.randint(0, 300) for r in used)
        base = math.prod(used) * rng.choice([1, 11, 13])
        common = math.prod(r ** rng.randint(0, 300) for r in used)
        p, q = (rng.choice([0, rng.randint(-10**30, 10**30)]) * common for _ in range(2))
        want = _unchecked(p, q, den)._t
        assert _stripped(GaussianRational, p, q, den, base)._t == want
        if q == 0:
            for kind in (Fraction, int):
                got = _stripped(kind, p, 0, den, base)
                if kind is int and want[2] != 1:
                    continue
                assert type(got) is kind and got == Fraction(p, den)


def test_gaussian_square_matches_the_general_product_of_a_copy():
    # z * z takes the square (p^2 - q^2 + 2pq*i)/d^2; z * copy(z) takes the
    # general product, since the copy is an equal value but another object.
    rng = random.Random(36)
    half = Fraction(1, 2)
    values = [
        GaussianRational(Fraction(5, 6)),  # q = 0
        GaussianRational(-3),
        GaussianRational(0, Fraction(-7, 3)),  # p = 0
        GaussianRational(0, 1),
        GaussianRational(Fraction(-3, 4), Fraction(-5, 2)),  # both parts negative
        GaussianRational(half, half),  # ((1+i)/2)^2 = i/2: the 2 cancels
        GaussianRational(half, -half),
        GaussianRational(),
        GaussianRational(2 ** 80 + 1, -(3 ** 50)),
    ]
    values += [GaussianRational(random_part(rng), random_part(rng)) for _ in range(200)]
    for z in values:
        twin = copy.copy(z)
        assert twin is not z and twin == z
        square, product = z * z, z * twin
        assert square._t == product._t
        p, q, d = square._t
        assert d > 0 and math.gcd(p, q, d) == 1
        assert_matches(square, ref_mul(ref_pair(z), ref_pair(z)))
    assert (GaussianRational(half, half) * GaussianRational(half, half))._t == (0, 1, 2)


def fraction_str(z):
    """``str`` of a GaussianRational as its two Fraction parts print it."""
    re, im = z.re, z.im
    if im == 0:
        return str(re)
    imag = "i" if abs(im) == 1 else f"{abs(im)}i"
    sign = "-" if im < 0 else ("+" if re != 0 else "")
    if re == 0:
        return f"{sign}{imag}"
    return f"{re}{sign if sign else '+'}{imag}"


def _text_or_error(show, z):
    try:
        return show(z)
    except ValueError as exc:
        return type(exc), str(exc)


def test_text_matches_the_fraction_parts():
    rng = random.Random(5003)
    values = []
    for p, q in itertools.product((-4, -2, -1, 0, 1, 2, 4, 6), repeat=2):
        for d in (1, 2, 3, 6):
            values.append(_unchecked(p, q, d))  # (2 + 4i)/6 and the like reduce
    for _ in range(3000):
        bits = rng.choice((4, 20, 80))
        p, q = (rng.randint(-(1 << bits), 1 << bits) for _ in range(2))
        values.append(_unchecked(p, q, rng.randint(1, 1 << bits)))
    for z in values:
        assert str(z) == fraction_str(z), z._t
    assert [str(_unchecked(*t)) for t in ((0, 1, 1), (0, -1, 1), (3, -3, 3), (0, 4, 6), (2, 4, 6))] == [
        "i", "-i", "1-i", "2/3i", "1/3+2/3i"
    ]


def test_text_past_the_default_digit_limit():
    big = 10**4400 + 1
    values = [
        _unchecked(big, 1, 3),
        _unchecked(1, big, 7),
        _unchecked(0, -big, 1),
        _unchecked(1, 0, big),
        _unchecked(2, 3, big),
    ]
    for z in values:
        got = _text_or_error(str, z)
        assert got == _text_or_error(fraction_str, z)
        assert got[0] is ValueError
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(cli.MAX_DIGITS)
    try:
        for z in values:
            assert str(z) == fraction_str(z)
    finally:
        sys.set_int_max_str_digits(saved)
