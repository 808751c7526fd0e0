import random
from fractions import Fraction

import pytest

from gencheb.poly import MultiPoly, gens
from gencheb.scalars import GaussianRational
from gencheb.series import SingularSeriesError, TruncatedSeries

U, V = gens("u", "v")
ONE_UV = MultiPoly.one(("u", "v"))


def test_geometric_inverse():
    s = TruncatedSeries(("x",), [1, -1], 3)
    assert s.inverse() == TruncatedSeries(("x",), [1, 1, 1, 1], 3)


def test_unit_inverse():
    s = TruncatedSeries(("x",), [1], 4)
    assert s.inverse() == s


def test_cubic_denominator_inverse_to_order_two():
    # Long division by hand: c0 = 1, c1 = u, c2 = u^2 - v.
    denominator = TruncatedSeries(("u", "v"), [ONE_UV, -U, V, -ONE_UV], 2)
    inverse = denominator.inverse()
    assert inverse.coefficient(0) == 1
    assert inverse.coefficient(1) == U
    assert inverse.coefficient(2) == U * U - V


def test_singular_series_rejected():
    with pytest.raises(SingularSeriesError):
        TruncatedSeries(("x",), [0, 1], 3).inverse()
    # Non-constant leading coefficient is not a unit of the polynomial ring.
    with pytest.raises(SingularSeriesError):
        TruncatedSeries(("u", "v"), [U, V], 3).inverse()


def test_inverse_times_self_is_one_random():
    rng = random.Random(31337)
    for _ in range(100):
        order = rng.randint(1, 16)
        coeffs = [Fraction(rng.choice([c for c in range(-5, 6) if c]))]
        for _ in range(order):
            coeffs.append(Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
        s = TruncatedSeries(("x",), coeffs, order)
        assert s * s.inverse() == TruncatedSeries.one(("x",), order)


def recurrence_inverse(s):
    """e_0 = 1/c_0 and e_n = -(c_1 e_{n-1} + ... + c_n e_0)/c_0, term by term."""
    c = s.coeffs
    inv = c[0].constant_value().inverse()
    e = [MultiPoly.constant(s.variables, inv)]
    for n in range(1, len(c)):
        acc = MultiPoly.zero(s.variables)
        for k in range(1, n + 1):
            acc = acc + c[k] * e[n - k]
        e.append(acc * -inv)
    return tuple(e)


@pytest.mark.parametrize(
    "head",
    [3, Fraction(1, 3), GaussianRational(Fraction(1, 5), Fraction(2, 5))],
    ids=["3", "1/3", "(1+2i)/5"],
)
def test_inverse_matches_the_written_out_recurrence(head):
    # The solver forms the weights -c_k/c_0 once and sums from the highest
    # index down; the reference divides each sum by c_0 as it goes.
    rng = random.Random(20261021)
    for order in range(9):
        coeffs = [head]
        for _ in range(order):
            terms = {
                (rng.randint(0, 2), rng.randint(0, 2)): Fraction(
                    rng.randint(-4, 4), rng.randint(1, 3)
                )
                for _ in range(rng.randint(0, 3))
            }
            coeffs.append(MultiPoly(("u", "v"), terms))
        s = TruncatedSeries(("u", "v"), coeffs, order)
        inverse = s.inverse()
        assert s * inverse == TruncatedSeries.one(("u", "v"), order)
        assert inverse.coeffs == recurrence_inverse(s)


def test_arithmetic_and_order_checks():
    a = TruncatedSeries(("x",), [1, 2, 3], 2)
    b = TruncatedSeries(("x",), [0, 1], 2)
    assert (a + b).coefficient(1) == 3
    assert (a - b).coefficient(1) == 1
    assert (a * b).coeffs == TruncatedSeries(("x",), [0, 1, 2], 2).coeffs
    for result in (a + b, a - b, a * b, a * Fraction(1, 2), -a):
        assert isinstance(result, TruncatedSeries)
    with pytest.raises(ValueError):
        a + TruncatedSeries(("x",), [1], 5)
    with pytest.raises(ValueError):
        a + TruncatedSeries(("y",), [1], 2)


def test_exp_of_t():
    s = TruncatedSeries(("x",), [0, 1], 5)
    e = s.exp()
    for n in range(6):
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        assert e.coefficient(n) == Fraction(1, fact)
    with pytest.raises(ValueError):
        TruncatedSeries(("x",), [1, 1], 3).exp()


def test_exp_matches_power_sum_random():
    # exp(A) against sum_{k <= N} A^k/k!, built from series products.
    rng = random.Random(8675309)
    names = ("x", "y")
    x, y = gens(*names)
    nonzero = [c for c in range(-4, 5) if c]
    for order in [n for n in range(1, 9) for _ in range(3)]:
        coeffs = [0] + [
            rng.choice(nonzero) * x
            + Fraction(rng.choice(nonzero), rng.randint(1, 4)) * y
            + rng.choice(nonzero)
            for _ in range(order)
        ]
        series = TruncatedSeries(names, coeffs)
        total = term = TruncatedSeries.one(names, order)
        for k in range(1, order + 1):
            term = term * series * Fraction(1, k)
            total = total + term
        assert series.exp() == total
