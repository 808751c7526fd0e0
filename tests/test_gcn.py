import copy
import math
import random
from fractions import Fraction
from itertools import islice, zip_longest

import pytest

from gencheb import gcn, poly
from gencheb.gcn import (
    Element,
    GcnElement,
    GcnUnit,
    Surd,
    Unit,
    UnitMismatchError,
    _companion_power,
    _exact_triples,
    _integer_unit,
    _product,
    conjugate_roots,
    power_coeff_sequence,
    power_coeffs,
    unit_power,
    unit_powers,
)
from gencheb.higher import CubicUnit
from gencheb.poly import MultiPoly, gens
from gencheb.scalars import GaussianRational, _from_numerators, _kind, power, zero_of

X, = gens("x")
U, V = gens("u", "v")


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


def test_products_never_multiply_by_a_zero_unit_coefficient():
    calls = []

    class Counted(int):
        def __mul__(self, other):
            calls.append(other)
            return int(self) * other

        __rmul__ = __mul__

    zero = Counted(0)
    for coeffs in ((3, 0), (0, 5), (0, 0, 0, 0), (2, 0, 0, 7)):
        unit = Unit(tuple(zero if c == 0 else c for c in coeffs))
        k = len(coeffs)
        x = Element(unit, tuple(range(1, k + 1)))
        y = Element(unit, tuple(range(-k, 0)))
        (x * y) ** 5
    assert calls == []


def test_element_square_matches_the_general_product_of_a_copy():
    # _product(xs, xs, c) takes the square's k(k+1)/2 coefficient products;
    # a copy of xs, equal but another tuple of other objects, the general
    # product.  Units of order 1-4 with a zero coefficient and without, over
    # ints, Fractions, Gaussian rationals and polynomials.
    rng = random.Random(36)
    draws = (
        lambda: rng.randint(-9, 9),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        lambda: _g(Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(-4, 4), 2)),
        lambda: rng.randint(-3, 3) * X ** rng.randint(0, 3) + Fraction(rng.randint(-3, 3), 2),
    )
    for k in range(1, 5):
        for draw in draws:
            for trial in range(12):
                coeffs = [draw() for _ in range(k)]
                if trial % 2:
                    coeffs[rng.randrange(k)] *= 0
                unit = Unit(tuple(coeffs))
                x = Element(unit, tuple(draw() for _ in range(k)))
                twin = tuple(map(copy.copy, x.coeffs))
                assert twin is not x.coeffs and twin == x.coeffs
                square = _product(x.coeffs, x.coeffs, unit.coeffs)
                assert square == _product(x.coeffs, twin, unit.coeffs)
                assert (x * x).coeffs == square == (x * Element(unit, twin)).coeffs
                assert x ** 5 == x * x * x * x * x


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
        q = unit.companion()
        assert (q.m11, q.m12, q.m21, q.m22) == (0, unit.a, 1, unit.b)
        assert q * q == q * unit.b + q.identity_like() * unit.a


def test_companion_power_examples():
    unit_i = GcnUnit(Fraction(-1), Fraction(0))
    assert unit_i.companion() ** 4 == unit_i.companion().identity_like()
    fib = GcnUnit(Fraction(1), Fraction(1))
    seq = power_coeff_sequence(fib, 12)
    for n in range(12):
        advanced = fib.companion().apply(seq[n])
        assert advanced == seq[n + 1]
        power = fib.companion() ** n
        assert (power.m11, power.m21) == seq[n]
        assert power.det() == (-fib.a) ** n


def test_negative_power_rejected():
    unit = GcnUnit(Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        power_coeffs(unit, -1)
    with pytest.raises(ValueError):
        unit.companion() ** -2


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



def test_a_real_gaussian_unit_is_a_rational_unit():
    # Realness is decided by the exact (p, q, d) of each coefficient, so a
    # GaussianRational with q = 0 is as rational as the Fraction it equals.
    unit = GcnUnit(GaussianRational(1), GaussianRational(1))
    for n in range(21):
        assert power_coeffs(unit, n, "binet") == power_coeffs(unit, n, "recurrence"), n
    golden = GcnUnit(Fraction(1), Fraction(1))
    assert conjugate_roots(unit).numeric() == conjugate_roots(golden).numeric()
    complex_unit = GcnUnit(GaussianRational(0, 1), GaussianRational(1))
    with pytest.raises(TypeError, match="rational scalar unit"):
        power_coeffs(complex_unit, 3, "binet")
    with pytest.raises(TypeError, match="rational scalar unit"):
        conjugate_roots(complex_unit).numeric()


def test_refusals_name_complex_and_polynomial_units():
    complex_unit = GcnUnit(GaussianRational(0, 1), GaussianRational(1))
    polynomial_unit = GcnUnit(X, 1)
    binet = "this method needs a rational scalar unit; use 'recurrence' or 'matrix' for {} units"
    numeric = "numeric roots need a rational scalar unit; the exact roots hold for {} units too"
    for unit, kind in ((complex_unit, "complex"), (polynomial_unit, "polynomial-valued")):
        with pytest.raises(TypeError) as refused:
            power_coeffs(unit, 3, "binet")
        assert str(refused.value) == binet.format(kind)
        with pytest.raises(TypeError) as refused:
            conjugate_roots(unit).numeric()
        assert str(refused.value) == numeric.format(kind)
    # The complex unit's exact powers and roots still hold.
    assert power_coeffs(complex_unit, 3, "recurrence") == power_coeffs(complex_unit, 3, "matrix")


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
    assert unit.discriminant == 0
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
    (1, Fraction(1, 2)), (Fraction(1, 6), 0, _g(Fraction(-2, 9), Fraction(1, 4))),
]


@pytest.mark.parametrize("coeffs", UNIT_COEFFS)
def test_unit_power_matches_walk(coeffs):
    walk = list(islice(unit_powers(coeffs), 71))
    companion = Unit(coeffs).companion()
    e_0 = (1,) + (0,) * (len(coeffs) - 1)
    for n, expected in enumerate(walk):
        power = unit_power(coeffs, n)
        assert power == expected, n
        assert list(map(type, power)) == list(map(type, expected)), n
        assert (companion ** n).apply(e_0) == expected, n


# The exact units above, raised at indices either side of a power of two:
# all bits set, one bit, and the first and last bits.
EXACT_COEFFS = [c for c in UNIT_COEFFS if not any(isinstance(x, MultiPoly) for x in c)]
LARGE_INDICES = [2 ** j + s for j in range(6, 11) for s in (-1, 0, 1)]


@pytest.mark.parametrize("coeffs", EXACT_COEFFS)
def test_unit_power_at_large_index_matches_element_power(coeffs):
    k = len(coeffs)
    unit = Unit(coeffs)
    zero = zero_of(*coeffs)
    h = coeffs if k == 1 else (zero, zero + 1) + (zero,) * (k - 2)
    for n in LARGE_INDICES:
        expected = (Element(unit, h) ** n).coeffs
        power = unit_power(coeffs, n)
        assert power == expected, n
        assert list(map(type, power)) == list(map(type, expected)), n


def test_unit_power_rejects_negative_index():
    with pytest.raises(ValueError):
        unit_power((1, 1), -1)


def test_empty_unit_refused():
    message = "a unit needs at least one coefficient"
    with pytest.raises(ValueError, match=message):
        Unit(())
    with pytest.raises(ValueError, match=message):
        unit_power((), 3)


def test_recurrence_route_at_large_index():
    unit = GcnUnit(Fraction(11, 13), Fraction(7, 5))
    by_recurrence = power_coeffs(unit, 4096, "recurrence")
    assert by_recurrence == power_coeffs(unit, 4096, "matrix")
    assert by_recurrence == power_coeffs(unit, 4096, "binet")


# The matrix and binet routes raise g = d*h on integer numerators; each is
# pinned here against the generic path it replaced, on Fraction (or
# GaussianRational) entries: the companion raised by ``power`` and the surd
# root h+ raised by ``power``.  Units: an int unit, (+-11/13, +-7/5), the
# double roots of (-1/4, 1) and (0, 0), D < 0, mixed int and Fraction, and
# (matrix only) Gaussian units, one of them real-valued.
RATIONAL_UNITS = [
    (2, -1),
    *((Fraction(sa * 11, 13), Fraction(sb * 7, 5)) for sa in (1, -1) for sb in (1, -1)),
    (Fraction(-1, 4), 1), (0, 0),
    (Fraction(-3, 2), Fraction(1, 3)),
    (3, Fraction(-1, 2)), (Fraction(2, 7), -3),
]
GAUSSIAN_UNITS = [
    (_g(-1, 0), _g(Fraction(3, 2), Fraction(1, 3))),
    (_g(0, 1), _g(1, -1)),
    (_g(1, 0), _g(Fraction(1, 2), 0)),
]
ROUTE_INDICES = [*range(71), *(2 ** j + s for j in range(6, 13) for s in (-1, 0, 1))]


def _same(got, want, n, route):
    """Assert that ``route`` gave h^n's coefficients in their types and stored forms.

    A mismatch is told by index, type and bit lengths: past n = 4096 the
    coefficients have more digits than Python converts to text.
    """
    if type(got) is not type(want):
        pytest.fail(f"{route} at n = {n}: a {type(got).__name__}, expected a "
                    f"{type(want).__name__}", pytrace=False)
    for i, (x, y) in enumerate(zip_longest(got, want)):
        if type(x) is not type(y) or _stored(x) != _stored(y):
            pytest.fail(
                f"{route} at n = {n}: coefficient {i} is {_shape(x)}, expected {_shape(y)}",
                pytrace=False,
            )


def _shape(x):
    """``x``'s type and the bit lengths of its stored ints, never its digits."""
    stored = _stored(x)
    ints = stored if type(stored) is tuple else (stored,)
    if not all(type(v) is int for v in ints):
        return type(x).__name__
    return f"{type(x).__name__} of {'/'.join(str(v.bit_length()) for v in ints)} bits"


@pytest.mark.parametrize("coeffs", RATIONAL_UNITS + GAUSSIAN_UNITS)
def test_matrix_route_matches_generic_companion_power(coeffs):
    unit = GcnUnit(*coeffs)
    companion = unit.companion()
    indices = ROUTE_INDICES
    if any(q for _, q, _ in _exact_triples(coeffs)):
        # The matrix route raises a unit with an imaginary part as this very
        # companion power, so the walk is its reference instead, to n = 1025:
        # the walk's Gaussian rationals take seconds to reach 4097.
        indices = [n for n in ROUTE_INDICES if n <= 1025]
        reference = list(islice(unit_powers(coeffs), indices[-1] + 1)).__getitem__
    else:
        reference = lambda n: power(companion, n, companion.identity_like()).column(0)
    for n in indices:
        _same(power_coeffs(unit, n, "matrix"), reference(n), n, "matrix")


# Exact units with an imaginary part never enter the integer lift: both routes
# raise them as an Element and as a companion matrix of Gaussian rationals.
# Real exact units, Gaussian ones with no imaginary part included, take the
# lift, one call per route.
COMPLEX_UNITS = list(dict.fromkeys(
    c for c in EXACT_COEFFS + GAUSSIAN_UNITS if any(q for _, q, _ in _exact_triples(c))
))


@pytest.mark.parametrize("coeffs", COMPLEX_UNITS)
def test_a_complex_unit_is_raised_without_the_integer_lift(monkeypatch, coeffs):
    def refused(*args):
        raise AssertionError("a complex unit entered the integer lift")

    monkeypatch.setattr(gcn, "_lift", refused)
    unit = Unit(coeffs)
    for n, expected in enumerate(islice(unit_powers(coeffs), 65)):
        _same(unit_power(coeffs, n), expected, n, "unit_power")
        _same(_companion_power(unit, n), expected, n, "companion")


@pytest.mark.parametrize(
    "coeffs", [(3, -5), (Fraction(11, 13), Fraction(7, 5)), (_g(1, 0), _g(Fraction(1, 2), 0))]
)
def test_a_real_exact_unit_is_raised_through_the_integer_lift(monkeypatch, coeffs):
    kernels = []
    lift = gcn._lift

    def spy(triples, n, kernel):
        kernels.append(kernel)
        return lift(triples, n, kernel)

    monkeypatch.setattr(gcn, "_lift", spy)
    expected = next(islice(unit_powers(coeffs), 97, None))
    _same(unit_power(coeffs, 97), expected, 97, "unit_power")
    _same(_companion_power(Unit(coeffs), 97), expected, 97, "companion")
    assert kernels == [gcn._element_lift, gcn._companion_lift]


# Below the lift's period K, m = n // K is 0 and every kernel returns its
# ring's one with no start built: no element product and no companion
# matrix.  (2/5, -3/4) and (3, -5) have K = 2, the order-3 unit K = 6.
@pytest.mark.parametrize(
    "coeffs, indices",
    [
        ((Fraction(2, 5), Fraction(-3, 4)), range(2)),
        ((3, -5), range(2)),
        ((Fraction(1, 13), Fraction(2, 5), Fraction(3, 7)), range(6)),
    ],
)
def test_below_the_period_no_kernel_multiplies(monkeypatch, coeffs, indices):
    def refused(*args):
        raise AssertionError("a kernel built its start below the period")

    walk = list(islice(unit_powers(coeffs), len(indices)))
    monkeypatch.setattr(gcn, "_product", refused)
    monkeypatch.setattr(gcn.Unit, "companion", refused)
    for n in indices:
        routes = {"unit_power": unit_power(coeffs, n),
                  "companion": _companion_power(Unit(coeffs), n)}
        if len(coeffs) == 2:
            unit = GcnUnit(*coeffs)
            routes.update((m, power_coeffs(unit, n, m)) for m in ("recurrence", "matrix"))
            assert power_coeffs(unit, n, "binet") == walk[n], n
        for route, got in routes.items():
            _same(got, walk[n], n, route)


@pytest.mark.parametrize("coeffs", RATIONAL_UNITS)
def test_binet_route_matches_generic_surd_power(coeffs):
    unit = GcnUnit(*coeffs)
    h_plus = conjugate_roots(unit).h_plus
    for n in ROUTE_INDICES:
        root_n = power(h_plus, n, h_plus ** 0)
        generic = (root_n.p - unit.b * root_n.q, 2 * root_n.q)
        _same(power_coeffs(unit, n, "binet"), generic, n, "binet")
    # Each route returns the walk's values; binet returns Fractions even for
    # an int unit.
    assert power_coeffs(unit, 5, "binet") == power_coeff_sequence(unit, 5)[5]
    assert {type(x) for x in power_coeffs(unit, 5, "binet")} == {Fraction}


# Every exact route builds x_i = y_i / d^(n-i) over the predicted denominator
# of h^n, dividing out the excess exactly and stripping what is left against
# powers of d.  Each is pinned here, in value, type and stored form, against
# the plain reference that builds each x_i with its own gcd.  Units: seeded
# ones of orders 1-5 over each exact ring; tie units, whose c_0 has the square
# of c_1's denominator, so that terms through either coefficient reach the
# predicted denominator; one whose powers keep a large gcd left to strip; and
# the double roots of (-1/4, 1) and (0, 0).
def _seeded_exact_units(seed, count):
    rng = random.Random(seed)
    dens = (1, 2, 3, 4, 5, 6, 8, 9, 13, 25, 27)

    def rational():
        return Fraction(rng.randint(-20, 20), rng.choice(dens))

    makers = (
        lambda: rng.randint(-9, 9),
        rational,
        lambda: GaussianRational(rational(), rational()),
    )
    return [
        tuple(makers[i % 3]() for _ in range(i % 5 + 1)) for i in range(count)
    ]


HIGH_RESIDUAL = (Fraction(-1 + 2 ** 200, 4), Fraction(1, 2))
TIE_UNITS = [(Fraction(-3, 4), Fraction(1, 2)), (Fraction(5, 9), Fraction(1, 3))]
# Units where raising g = d*h would carry a large excess (d^K/L)^(n//K):
# scalar-power's (+-11/13, +-7/5), whose excess at n = 4096 is 13^2048, and
# units of orders 2-5, real and complex, whose c_0 has a prime denominator p
# that no other coefficient has, so that p divides d^K/L to the largest power
# it can, K(1 - 1/k).
EXCESS_UNITS = [
    *((Fraction(sa * 11, 13), Fraction(sb * 7, 5)) for sa in (1, -1) for sb in (1, -1)),
    (Fraction(1, 13), Fraction(2, 5), Fraction(3, 7)),
    (_g(Fraction(1, 13), Fraction(-2, 13)), _g(Fraction(2, 5), 1)),
    (_g(Fraction(1, 13), Fraction(-2, 13)), _g(Fraction(2, 5), 1), _g(0, Fraction(3, 7))),
    (Fraction(1, 13), Fraction(2, 5), Fraction(3, 7), Fraction(-1, 2)),
    (Fraction(-1, 11), Fraction(2, 5), Fraction(-3, 7), Fraction(1, 2), Fraction(5, 3)),
]
PINNED_UNITS = [
    *_seeded_exact_units(20261019, 30),
    *TIE_UNITS, (Fraction(-1, 4), 1), (0, 0), HIGH_RESIDUAL,
    *EXCESS_UNITS,
]
PINNED_INDICES = [*range(8), 59, 60, 61, 119, 120, 121, 128]


def _stored(x):
    """How an exact scalar is held: the int, (numerator, denominator) or the triple."""
    if type(x) is GaussianRational:
        return x._t
    return (x.numerator, x.denominator) if type(x) is Fraction else x


def _reference(coeffs, n, kind):
    """h^n with each x_i = y_i / d^(n-i) built by ``_from_numerators``, one gcd each.

    g^n = sum y_i g^i for g = d*h is the generic ``Element`` power over g's
    unit in GaussianRational over 1, which never enters ``_lift``.
    """
    d, scaled = _integer_unit(_exact_triples(coeffs))
    unit = Unit(tuple(GaussianRational(p, q) for p, q in scaled))
    ps, qs, _ = zip(*(y._t for y in (Element(unit, unit.companion().column(0)) ** n).coeffs))
    dens = (d ** max(n - i, 0) for i in range(len(ps)))
    return tuple(map(_from_numerators, [kind] * len(ps), ps, qs, dens))


def _pinned_indices(coeffs):
    if coeffs == HIGH_RESIDUAL:
        return [3, 6, 96, 4095]
    if coeffs in EXCESS_UNITS:  # either side of K = lcm(1..k) and of 4096
        order_lcm = math.lcm(*range(1, len(coeffs) + 1))
        return [order_lcm - 1, order_lcm, order_lcm + 1, 4095, 4096, 4097]
    return PINNED_INDICES + [4095, 4096] * (coeffs in TIE_UNITS)


@pytest.mark.parametrize("coeffs", PINNED_UNITS)
def test_exact_routes_match_the_gcd_reference_in_stored_form(coeffs):
    for n in _pinned_indices(coeffs):
        want = _reference(coeffs, n, _kind(coeffs))
        _same(unit_power(coeffs, n), want, n, "unit_power")
        _same(_companion_power(Unit(coeffs), n), want, n, "companion")
        if len(coeffs) == 2 and _kind(coeffs) is not GaussianRational:
            want = _reference(coeffs, n, Fraction)
            _same(power_coeffs(GcnUnit(*coeffs), n, "binet"), want, n, "binet")


def test_exact_routes_keep_zero_and_int_results_canonical():
    # h^3 = (1/2)h for h^2 = 1/2: a_3 is 0 over the predicted 4, stored as 0/1.
    unit = GcnUnit(Fraction(1, 2), 0)
    for method in ("recurrence", "matrix", "binet"):
        a_3, b_3 = power_coeffs(unit, 3, method)
        assert _stored(a_3) == (0, 1) and _stored(b_3) == (1, 2), method
    for method in ("recurrence", "matrix"):
        assert {type(x) for x in power_coeffs(GcnUnit(-3, 5), 97, method)} == {int}


@pytest.mark.parametrize("method", ["recurrence", "matrix", "binet"])
def test_exact_routes_build_no_fraction_over_a_large_denominator(monkeypatch, method):
    # Fraction(y_i, d^(n-i)) at n = 4096 is a gcd of a 28k-bit numerator with
    # 65^4096; each x_i is built over its predicted denominator instead, and
    # the Fraction through its slots, with no gcd of its own.
    large = []
    new = Fraction.__new__

    def counting(cls, numerator=0, denominator=None, **kwargs):
        if isinstance(denominator, int) and denominator.bit_length() > 64:
            large.append(denominator.bit_length())
        return new(cls, numerator, denominator, **kwargs)

    unit = GcnUnit(Fraction(11, 13), Fraction(7, 5))
    monkeypatch.setattr(Fraction, "__new__", counting)
    got = power_coeffs(unit, 4096, method)
    monkeypatch.undo()
    assert large == []
    _same(got, _reference(unit.coeffs, 4096, Fraction), 4096, method)


@pytest.mark.parametrize("method", ["recurrence", "binet"])
def test_exact_routes_raise_no_integer_beyond_the_reduced_numerators(monkeypatch, method):
    # Raising g = d*h to 4096 for (11/13, 7/5) builds 28,320-bit integers
    # where the reduced numerators of h^4096 have 20,737 bits: the excess
    # 13^2048 that raising G = L*h^2 never builds.
    bits = []
    raise_ = gcn.power

    def record(value):
        if isinstance(value, int):
            bits.append(value.bit_length())
        elif isinstance(value, (tuple, list)):
            for item in value:
                record(item)

    def recording(*args):
        result = raise_(*args)
        record(result)
        return result

    unit = GcnUnit(Fraction(11, 13), Fraction(7, 5))
    monkeypatch.setattr(gcn, "power", recording)
    got = power_coeffs(unit, 4096, method)
    monkeypatch.undo()
    _same(got, power_coeffs(unit, 4096, "matrix"), 4096, method)
    numerator_bits = max(x.numerator.bit_length() for x in got)
    assert numerator_bits == 20737
    assert max(bits) <= numerator_bits + 64


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


def _surd_sign(x: Fraction, y: Fraction, delta: Fraction) -> int:
    """The sign of x + y*sqrt(delta), exactly, for delta >= 0."""
    signs = {(x > 0) - (x < 0), (y > 0) - (y < 0) if delta else 0} - {0}
    if len(signs) < 2:
        return signs.pop() if signs else 0
    # x and y*sqrt(delta) have opposite signs: the larger square wins.
    return (x > 0) - (x < 0) if x * x > y * y * delta else (y > 0) - (y < 0)


def _assert_nearest(got: float, p: Fraction, q: Fraction, delta: Fraction):
    """p + q*sqrt(delta) lies within half a float spacing on each side of got."""
    assert type(got) is float
    here = Fraction(got)
    for toward in (-math.inf, math.inf):
        midpoint = (here + Fraction(math.nextafter(got, toward))) / 2
        # The value minus the midpoint must not have the sign of toward.
        side = _surd_sign(p - midpoint, q, delta)
        assert side * toward <= 0, (got, p, q, delta)


def _assert_roots_rounded(unit: GcnUnit):
    roots = conjugate_roots(unit)
    delta = unit.discriminant
    for surd, got in zip((roots.h_plus, roots.h_minus), roots.numeric()):
        p, q = Fraction(surd.p), Fraction(surd.q)
        if delta >= 0:
            _assert_nearest(got, p, q, delta)
        else:
            assert type(got) is complex
            _assert_nearest(got.real, p, Fraction(0), Fraction(0))
            _assert_nearest(got.imag, Fraction(0), q, -delta)


def test_numeric_roots_are_correctly_rounded():
    # b - sqrt(b^2 + 4a) cancels in floats: the old float formula gave
    # -1.000000082740371e-10 for the smaller root.
    tiny = GcnUnit(Fraction(1, 10**10), Fraction(1))
    assert conjugate_roots(tiny).numeric() == (1.0000000001, -9.999999999e-11)
    _assert_roots_rounded(tiny)
    rng = random.Random(20261019)
    kinds = {"positive": 0, "negative": 0, "zero": 0}
    for i in range(200):
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        if i % 4 == 0:
            a = -b * b / 4  # a double root
        else:
            a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            a *= Fraction(10) ** rng.randint(-12, 12)
        unit = GcnUnit(a, b)
        delta = unit.discriminant
        kinds["zero" if delta == 0 else "positive" if delta > 0 else "negative"] += 1
        _assert_roots_rounded(unit)
    assert min(kinds.values()) >= 40
    # A rational square root is exact, a surd whose parts but not its value
    # lie past the float range is rounded, and one whose value does is refused.
    assert conjugate_roots(GcnUnit(Fraction(2), Fraction(1))).numeric() == (2.0, -1.0)
    assert conjugate_roots(GcnUnit(Fraction(10**400), Fraction(0))).numeric() == (1e200, -1e200)
    assert conjugate_roots(GcnUnit(-Fraction(10**400), Fraction(0))).numeric() == (1e200j, -1e200j)
    with pytest.raises(ValueError, match="beyond the float range"):
        conjugate_roots(GcnUnit(Fraction(10**800), Fraction(0))).numeric()


def _isqrt_rounded(p: Fraction, q: Fraction, delta: Fraction, k: int = 4096) -> float:
    """p + q*sqrt(delta) rounded from an isqrt bracket of width 2^-k; both ends must agree."""
    d = delta.denominator
    s = math.isqrt(delta.numerator * d << (2 * k))
    low, high = (float(p + q * Fraction(r, d << k)) for r in (s, s + 1))
    assert low == high
    return low


def test_rounded_surd_widens_a_bracket_that_straddles_a_midpoint():
    # p + q*sqrt(2) exceeds 1 + 2^-53, the midpoint of 1 and its successor,
    # by about 4.9e-23: far inside the first bracket, k = 64, whose width is
    # q*2^-64, about 7.7e-18.  Its ends round to 1 and 1 + 2^-52, so the
    # loop must widen k.  p is the convergent of the continued fraction of
    # (1 + 2^-53) - q*sqrt(2) that first lands that close above it; q's
    # numerator and p's denominator both exceed 1, so the upper end
    # base + c*b of the bracket differs from base + c + b, which would stop
    # at k = 64 on 1.0.  Negated, the bracket runs down from base.
    p = Fraction(-26927373516147, 133946701235)
    q = Fraction(1000, 7)
    gap = p + q * Fraction(math.isqrt(2 << 8192), 1 << 4096) - (1 + Fraction(1, 2**53))
    assert 0 < gap < q / 2**64 / 10**4
    for sign in (1, -1):
        want = _isqrt_rounded(sign * p, sign * q, Fraction(2))
        assert want == sign * math.nextafter(1.0, 2.0)
        assert Surd(sign * p, sign * q, Fraction(2)).numeric() == want
        _assert_nearest(want, sign * p, sign * q, Fraction(2))


# -- integer polynomial units raised as packed ints -------------------------------


def _force_packing(monkeypatch):
    """Every unit of integer polynomials whose box is not sparse packs, at every n."""
    for name, value in (("_PACKED_TERMS", 0), ("_PACKED_BYTES", 10**9)):
        monkeypatch.setattr(poly, name, value)


def _element_power(coeffs, n):
    """h^n as an Element raised by squaring: the path of every other polynomial unit."""
    unit = Unit(coeffs)
    return (Element(unit, unit.companion().column(0)) ** n).coeffs


def _random_integer_coefficient(rng, names):
    """An int, a Fraction with denominator 1, or an integer polynomial, any of them zero."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return Fraction(rng.randint(-3, 3))
    top = 0 if kind == 2 else 2 if len(names) == 1 else 1
    terms = {
        tuple(rng.randint(0, top) for _ in names): rng.choice((-3, -2, -1, 1, 2, 3))
        for _ in range(rng.randint(0 if kind == 3 else 1, 2))
    }
    return MultiPoly(names, terms)


def _random_integer_units(seed):
    """Units of orders 1-4 in one and two variables, each with a nonconstant polynomial.

    The draws include negative and zero coefficients, a zero c_0 in the
    first unit of each order from 2 to 4, and ints, Fractions and constant polynomials beside the
    polynomials.
    """
    rng = random.Random(seed)
    units = []
    for names, count in ((("x",), 3), (("u", "v"), 2)):
        for k in range(1, 5):
            for i in range(count):
                while True:
                    coeffs = [_random_integer_coefficient(rng, names) for _ in range(k)]
                    if i == 0 and k > 1:
                        coeffs[0] = rng.choice((0, Fraction(0), MultiPoly.zero(names)))
                    if any(isinstance(c, MultiPoly) and not c.is_constant() for c in coeffs):
                        units.append(tuple(coeffs))
                        break
    return units


# One-variable units; two-variable ones take n = 0..32 and 64, as a dense
# one of order 3 or 4 takes seconds over n = 33..63 on the matrix route.
PACKED_INDICES = [*range(65), 97, 301]
PACKED_INDICES_UV = [*range(33), 64]


@pytest.mark.parametrize("coeffs", _random_integer_units(20261020), ids=str)
def test_packed_routes_match_the_walk_and_the_element_power(monkeypatch, coeffs):
    _force_packing(monkeypatch)
    packed = []
    pack = gcn.packed_unit_power

    def spy(*args):
        got = pack(*args)
        packed.append(got is not None)
        return got

    monkeypatch.setattr(gcn, "packed_unit_power", spy)
    one_variable = len(next(c for c in coeffs if isinstance(c, MultiPoly)).variables) == 1
    walk = list(islice(unit_powers(coeffs), 302 if one_variable else 65))
    unit = Unit(coeffs)
    for n in PACKED_INDICES if one_variable else PACKED_INDICES_UV:
        want = walk[n] if n < len(walk) else _element_power(coeffs, n)
        if n >= 64:
            _same(_element_power(coeffs, n), want, n, "_element_power")
        _same(unit_power(coeffs, n), want, n, "unit_power")
        _same(_companion_power(unit, n), want, n, "companion")
    # Both routes pack at least at n = 0 and 1, where no box is sparse yet.
    assert packed[:4] == [True] * 4


@pytest.mark.parametrize(
    "coeffs, n",
    [
        # h = x*h' with h'^2 = 3 + 2h': each x_i of h^n is x^(n-i) times
        # x_i of N^n, N = (3, 2), and the larger one is the height.
        ((3 * X**2, 2 * X), 31),
        ((3 * X**2, 2 * X), 36),
        # h = uv*h' with h'^2 = 2 - 3h': x_1 of h^40 is -u^39 v^39 times
        # x_1 of N^40, N = (2, 3).
        ((2 * U**2 * V**2, -3 * U * V), 40),
        # h^n = (-3)^n x^(2n): a coefficient -3^n at odd n.
        ((-3 * X**2,), 5),
        ((-3 * X**2,), 15),
    ],
)
def test_a_coefficient_at_the_predicted_height_reads_back(monkeypatch, coeffs, n):
    # Each height has a bit length that is a multiple of 8, so a slot one
    # bit narrower would lose a whole byte and could not hold it.  These
    # boxes are sparse: each x_i is one monomial.
    _force_packing(monkeypatch)
    monkeypatch.setattr(poly, "_PACKED_SPARSITY", 10**9)
    norms = [abs(c) if isinstance(c, int) else sum(map(abs, c._terms.values())) for c in coeffs]
    height = max(unit_power(norms, n))
    assert height.bit_length() % 8 == 0
    want = next(islice(unit_powers(coeffs), n, None))
    assert max(abs(c) for x in want for c in x._terms.values()) == height
    for kernel in (gcn._element_lift, gcn._companion_lift):
        _same(gcn._packed_power(coeffs, n, kernel), want, n, kernel.__name__)


def test_a_nonnegative_unit_reaches_the_norm_bound(monkeypatch):
    # Every coefficient of (x + 1, x + 1) is nonnegative, so each x_i of h^n
    # at x = 1 is the norm bound x_i(N^n), N = (2, 2).
    _force_packing(monkeypatch)
    coeffs = (X + 1, X + 1)
    for n in (16, 40, 63):
        want = next(islice(unit_powers(coeffs), n, None))
        bound = unit_power((2, 2), n)
        assert tuple(x.evaluate_exact({"x": 1}) for x in want) == bound
        for kernel in (gcn._element_lift, gcn._companion_lift):
            _same(gcn._packed_power(coeffs, n, kernel), want, n, kernel.__name__)


POLY_BIG_UNIT = (3 * X**3 + 2 * X, 2 * X**2 + 1)


def _routes_packed(monkeypatch, coeffs, n):
    """Whether ``recurrence`` and then ``matrix`` raise h^n packed; each must equal the walk."""
    packed = []
    pack = gcn.packed_unit_power

    def spy(*args):
        got = pack(*args)
        packed.append(got is not None)
        return got

    monkeypatch.setattr(gcn, "packed_unit_power", spy)
    want = next(islice(unit_powers(coeffs), n, None))
    _same(unit_power(coeffs, n), want, n, "unit_power")
    _same(_companion_power(Unit(coeffs), n), want, n, "companion")
    return packed


@pytest.mark.parametrize(
    "coeffs, n",
    [
        ((-1, 2 * X), 8),  # a tiny box
        ((3 * X**2 + 2, 2 * X + 1), 8),  # a box of nine slots
        ((X * X - 1, 0), 24),  # few terms
        ((-10**40, 2 * X), 28),  # tall slots
        ((0, 2, V + 3 * U * V), 44),  # 50 bytes per term, where the lower bound reads 46
        ((0, 2, V + 3 * U * V), 48),  # 54 bytes per term: 4.2 slots of 13 bytes
        (POLY_BIG_UNIT, 301),  # 78 bytes per term; the term estimate exceeds the box
        ((U, V), 18),  # a sparse box: 19 slots per term, 38 bytes per term
        ((U, V), 200),  # a sparse box: about 100 terms in 101 x 201 slots
        ((X * X - 1, Fraction(1, 2)), 64),  # a Fraction coefficient
        ((-1, X * Fraction(1, 2) + 1), 40),  # a polynomial coefficient with a Fraction
    ],
)
def test_units_where_packing_loses_keep_the_element_path(monkeypatch, coeffs, n):
    assert _routes_packed(monkeypatch, coeffs, n) == [False, False]


@pytest.mark.parametrize(
    "coeffs, n",
    [((0, 2, V + 3 * U * V), 48), ((-10**40, 2 * X), 28), ((-10**308, 2 * X), 300)],
)
def test_a_lower_bound_on_the_height_refuses_before_the_norm_power(coeffs, n):
    def power(norms):
        raise AssertionError("the norm unit was raised")

    assert poly._unit_layout(coeffs, n, power) is None


@pytest.mark.parametrize(
    "coeffs, n",
    [
        (POLY_BIG_UNIT, 28),
        ((3 * X**2 + 2, 2 * X + 1), 9),  # cli-requests' unit: 10 slots, the fewest that pack
        ((-1, 2 * X), 64),  # CI's cheb ab comparison
        ((U * V - 1, U + V), 40),  # CI's two-variable comparison
        # The lower bound on the height sits one bit below a byte boundary:
        # a slot one byte wider per term would refuse these.
        ((2 * U**2 + 2, 0), 94),
        ((2 * U**2 + 2, 0), 95),
    ],
)
def test_units_where_packing_wins_take_the_packed_path(monkeypatch, coeffs, n):
    assert _routes_packed(monkeypatch, coeffs, n) == [True, True]


def test_packed_slots_hold_the_units_own_coefficients(monkeypatch):
    # Below n = k, h^n is h^n itself and its height is 1, but the packed
    # unit carries each c_j, so the slots must hold |c_j|_1 as well.
    _force_packing(monkeypatch)
    coeffs = (1000 * X**2 - 7, 300 * X)
    walk = list(islice(unit_powers(coeffs), 4))
    for n, want in enumerate(walk):
        for kernel in (gcn._element_lift, gcn._companion_lift):
            _same(gcn._packed_power(coeffs, n, kernel), want, n, kernel.__name__)
