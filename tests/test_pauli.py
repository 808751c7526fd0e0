import copy
import random
from fractions import Fraction
from operator import add, mul, sub

import pytest

from gencheb import pauli
from gencheb.cheby import X, cheb_U
from gencheb.gcn import unit_power
from gencheb.matrices import Mat2, Mat3
from gencheb.pauli import (
    IDENTITY,
    PAULI,
    bench_power,
    coeff_bits,
    gaussian_mat,
    mat_power,
    pauli_decompose,
    pauli_recompose,
    quadratic_residual,
)
from gencheb.poly import gens
from gencheb.scalars import GaussianRational, power

ZERO_MAT = IDENTITY * 0


def rand_gauss(rng, top=4):
    return GaussianRational(
        Fraction(rng.randint(-top, top), rng.randint(1, top)),
        Fraction(rng.randint(-top, top), rng.randint(1, top)),
    )


def rand_mat(rng):
    return Mat2(*(rand_gauss(rng) for _ in range(4)))


def rand_unimodular(rng):
    while True:
        a = rand_gauss(rng)
        if a:
            break
    b, c = rand_gauss(rng), rand_gauss(rng)
    return Mat2(a, b, c, (1 + b * c) / a)


def test_decompose_identity():
    coords = pauli_decompose(IDENTITY)
    assert coords.alpha == 1
    assert (coords.beta1, coords.beta2, coords.beta3) == (0, 0, 0)
    assert coords.gamma == -1


def test_decompose_first_pauli():
    coords = pauli_decompose(PAULI[0])
    assert coords.alpha == 0
    assert coords.beta1 == 1
    assert coords.beta2 == 0 and coords.beta3 == 0
    assert coords.gamma == 1


def test_decompose_worked_example():
    coords = pauli_decompose(gaussian_mat(((2, 1), (1, 1))))
    assert coords.alpha == Fraction(3, 2)
    assert coords.beta1 == 1
    assert coords.beta2 == 0
    assert coords.beta3 == Fraction(1, 2)
    assert coords.gamma == -1  # -9/4 + 1 + 0 + 1/4


def test_decompose_recompose_roundtrip():
    rng = random.Random(1234)
    for _ in range(100):
        m = rand_mat(rng)
        coords = pauli_decompose(m)
        assert pauli_recompose(coords) == m
        assert coords.gamma == -m.det()


def test_quadratic_identity_always_holds():
    rng = random.Random(4321)
    for _ in range(100):
        assert quadratic_residual(rand_mat(rng)) == ZERO_MAT
    nilpotent = gaussian_mat(((0, 1), (0, 0)))
    coords = pauli_decompose(nilpotent)
    assert coords.alpha == 0 and coords.gamma == 0
    assert quadratic_residual(nilpotent) == ZERO_MAT
    assert quadratic_residual(PAULI[1]) == ZERO_MAT
    assert pauli_decompose(PAULI[1]).gamma == 1


def test_pauli_anticommutators():
    for i in range(3):
        for j in range(3):
            expected = IDENTITY * (2 if i == j else 0)
            assert PAULI[i] * PAULI[j] + PAULI[j] * PAULI[i] == expected


def test_power_closed_form_worked_example():
    m = gaussian_mat(((2, 1), (1, 1)))
    # alpha = 3/2: M^2 = U_1(3/2)*M - U_0(3/2)*I = 3M - I.
    assert mat_power(m, 2, "chebyshev") == gaussian_mat(((5, 3), (3, 2)))
    assert mat_power(m, 2, "squaring") == gaussian_mat(((5, 3), (3, 2)))


def test_power_identity_matrix():
    for n in (0, 1, 5, 17):
        assert mat_power(IDENTITY, n, "chebyshev") == IDENTITY
        assert mat_power(IDENTITY, n, "general_recurrence") == IDENTITY


def test_plus_sign_variant_is_not_an_identity():
    # With +U_{n-2}*I the n = 2 case gives 3M + I != M^2; the subtraction
    # is forced by M^2 = 2*alpha*M - I when det M = 1.
    m = gaussian_mat(((2, 1), (1, 1)))
    alpha = (m.m11 + m.m22) * Fraction(1, 2)
    variant = m * (2 * alpha) + IDENTITY
    assert variant != m * m
    assert m * (2 * alpha) - IDENTITY == m * m


def test_methods_agree_on_unimodular_matrices():
    rng = random.Random(987)
    for _ in range(50):
        m = rand_unimodular(rng)
        assert m.det() == 1
        for n in (0, 1, 2, 3, 9, 16):
            by_squaring = mat_power(m, n, "squaring")
            assert mat_power(m, n, "chebyshev") == by_squaring
            assert mat_power(m, n, "general_recurrence") == by_squaring


def test_general_recurrence_handles_any_determinant():
    m = gaussian_mat(((1, 1), (0, 2)))  # det 2
    for n in range(21):
        assert mat_power(m, n, "general_recurrence") == mat_power(m, n, "squaring")
    with pytest.raises(ValueError) as info:
        mat_power(m, 4, "chebyshev")
    assert "2" in str(info.value)


def test_power_input_validation():
    m = gaussian_mat(((2, 1), (1, 1)))
    assert m.det() == 1
    for method in ("squaring", "chebyshev", "general_recurrence"):
        with pytest.raises(ValueError):
            mat_power(m, -1, method)
    with pytest.raises(ValueError):
        mat_power(m, 3, "unknown")


def test_bench_returns_identical_results_and_bit_growth():
    records = bench_power([1, 1024], trials=2)
    assert {r.method for r in records} == {"chebyshev", "squaring"}
    by_key = {(r.method, r.n): r for r in records}
    assert by_key[("chebyshev", 1024)].max_coeff_bits == by_key[("squaring", 1024)].max_coeff_bits
    assert by_key[("chebyshev", 1)].max_coeff_bits <= 3
    m = gaussian_mat(((2, 1), (1, 1)))
    assert mat_power(m, 1, "chebyshev") == m
    assert coeff_bits(m) == 2


def test_coeff_bits_reads_int_and_fraction_entries():
    # [[2, 1], [1, 1]]^5 = [[89, 55], [55, 34]], with int entries.
    assert coeff_bits(mat_power(Mat2(2, 1, 1, 1), 5, "chebyshev")) == 7
    assert coeff_bits(Mat2(Fraction(1, 300), 0, 5, Fraction(-7, 2))) == 9
    assert coeff_bits(gaussian_mat(((Fraction(1, 300), 0), (5, Fraction(-7, 2))))) == 9


def test_coeff_bits_refuses_polynomial_entries_as_gaussian_mat_does():
    message = "entries must be exact rationals or GaussianRationals"
    with pytest.raises(TypeError, match=message):
        gaussian_mat(((X, 1), (0, 1)))
    with pytest.raises(TypeError, match=message):
        coeff_bits(Mat2(X, 1, 0, 1))


def test_bench_input_validation():
    with pytest.raises(ValueError):
        bench_power([], trials=3)
    with pytest.raises(ValueError):
        bench_power([4], trials=0)


def test_closed_forms_match_squaring_at_large_index():
    m = rand_unimodular(random.Random(1024))
    assert m.det() == 1
    squared = mat_power(m, 1024, "squaring")
    assert mat_power(m, 1024, "chebyshev") == squared
    assert mat_power(m, 1024, "general_recurrence") == squared


def _mul2(x, y):
    """[[x0, x1], [x2, x3]] times [[y0, y1], [y2, y3]], written out on entry 4-tuples."""
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def test_mat2_view_matches_written_out_formulas():
    rng = random.Random(20261019)

    def fraction():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    for draw in (lambda: rand_gauss(rng), fraction):
        for _ in range(25):
            x, y, s = tuple(draw() for _ in range(4)), tuple(draw() for _ in range(4)), draw()
            mx, my = Mat2(*x), Mat2(*y)
            zero = s * 0
            scalar = Mat2(s, zero, zero, s)
            results = {
                "mul": (mx * my, _mul2(x, y)),
                "add": (mx + my, tuple(map(add, x, y))),
                "sub": (mx - my, tuple(map(sub, x, y))),
                "neg": (-mx, tuple(-v for v in x)),
                "mul-scalar": (mx * s, tuple(v * s for v in x)),
                "scalar-mul": (s * mx, tuple(s * v for v in x)),
                "add-scalar": (mx + s, (x[0] + s, x[1], x[2], x[3] + s)),
                "scalar-add": (s + mx, (s + x[0], x[1], x[2], s + x[3])),
                "sub-scalar": (mx - s, (x[0] - s, x[1], x[2], x[3] - s)),
                "scalar-sub": (s - mx, (s - x[0], -x[1], -x[2], s - x[3])),
                "identity": (mx.identity_like(), (1, 0, 0, 1)),
            }
            expected = (1, 0, 0, 1)
            for n in range(7):
                results[f"pow{n}"] = (mx ** n, expected)
                expected = _mul2(expected, x)
            for name, (value, want) in results.items():
                assert type(value) is Mat2, name
                assert value.entries() == want, name
                assert (value.m11, value.m12, value.m21, value.m22) == want, name
            # A scalar operand of + and - is that multiple of the identity.
            assert mx + s == mx + scalar and s + mx == scalar + mx
            assert mx - s == mx - scalar and s - mx == scalar - mx
            assert mx.det() == x[0] * x[3] - x[1] * x[2]
            assert mx.apply(y[:2]) == (x[0] * y[0] + x[1] * y[1], x[2] * y[0] + x[3] * y[1])
            as_mat3 = Mat3(((x[0], x[1]), (x[2], x[3])))
            assert mx == as_mat3 and as_mat3 == mx and hash(mx) == hash(as_mat3)
            assert mx != Mat3(((x[0], x[1]), (x[2], x[3] + 1)))
    big, small = Mat3(((1, 2, 3), (4, 5, 6), (7, 8, 10))), Mat2(1, 2, 3, 4)
    for combine in (add, sub, mul):
        for left, right in ((big, small), (small, big)):
            with pytest.raises(ValueError, match="3x3.*2x2|2x2.*3x3"):
                combine(left, right)
    with pytest.raises(ValueError, match="3x3.*length 2"):
        big.apply((1, 1))
    with pytest.raises(ValueError, match="2x2.*length 3"):
        small.apply((1, 1, 1))


def _copied(m: Mat2) -> Mat2:
    """An equal matrix that is not m, over copies of its entries.

    A GaussianRational or MultiPoly entry copies to another object; an int
    or Fraction copies to itself, and neither has a square of its own.
    """
    return Mat2(*map(copy.copy, m.entries()))


def test_mat2_square_matches_the_general_product_of_a_copy():
    # m * m takes the 2x2 square formula, and a Gaussian entry times itself
    # the Gaussian square; m * copy takes the general product on both levels.
    rng = random.Random(36)
    x, y = gens("x", "y")

    def poly():
        return sum(
            (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * x ** i * y ** j
             for i in range(3) for j in range(2)),
            rng.randint(-2, 2),
        )

    draws = (
        lambda: rng.randint(-9, 9),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        lambda: rand_gauss(rng),
        poly,
    )
    for draw in draws:
        for _ in range(25):
            m = Mat2(*(draw() for _ in range(4)))
            twin = _copied(m)
            assert twin is not m and twin == m
            square = m * m
            assert type(square) is Mat2
            assert square.entries() == (m * twin).entries() == _mul2(m.entries(), twin.entries())
            assert [type(v) for v in square.entries()] == [type(v) for v in (m * twin).entries()]
    gaussian = rand_gauss(rng)
    assert _copied(Mat2(gaussian, 0, 0, 0)).m11 is not gaussian


class _Counted:
    """An int entry that counts the products it takes part in."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(self.value * other.value)

    def __add__(self, other):
        return _Counted(self.value + other.value)


@pytest.mark.parametrize("j", [1, 2, 5, 9])
def test_mat2_power_of_two_takes_five_entry_products_a_square(monkeypatch, j):
    monkeypatch.setattr(_Counted, "products", 0)
    m = Mat2(*map(_Counted, (2, 1, 1, 1)))
    got = m ** (2 ** j)
    assert _Counted.products == 5 * j
    want = mat_power(Mat2(2, 1, 1, 1), 2 ** j, "chebyshev")
    assert tuple(v.value for v in got.entries()) == want.entries()


def test_pauli_kernel_square_matches_its_general_product(monkeypatch):
    # Every square the kernel takes is checked against its general product
    # of a copy, for d = 1 (int and Gaussian-int units) and d > 1.
    squares = []

    def checked(base, n, one, product):
        def both(a, b):
            got = product(a, b)
            if a is b:
                twin = tuple(list(b))
                assert twin is not a and got == product(a, twin)
                squares.append(a)
            return got

        return power(base, n, one, both)

    monkeypatch.setattr(pauli, "power", checked)
    cases = {
        "int, d = 1": Mat2(3, -2, 5, 4),
        "gaussian int, d = 1": Mat2(_gauss(1, 1), 2, 3, _gauss(1, -1)),
        "fraction, d > 1": Mat2(_F(1, 2), _F(3, 4), _F(-2, 3), _F(5, 7)),
        "gaussian, d > 1": EXACT_MATRICES["gauss-det-not-1"],
        "det prime, d > 1": EXACT_MATRICES["gauss-det-prime"],
    }
    for name, m in cases.items():
        for n in (4, 5, 64, 65, 257):
            before = len(squares)
            assert mat_power(m, n, "general_recurrence") == m ** n, (name, n)
            assert len(squares) > before, (name, n)


def _gauss(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


# Matrices of exact scalars, which mat_power's chebyshev and
# general_recurrence routes raise on integer numerators; det M = 1 exactly
# for the names with "unimodular".
_F = Fraction
_A, _B, _C = _gauss(_F(1, 2), 1), _gauss(_F(3, 4)), _gauss(0, _F(-2, 3))
EXACT_MATRICES = {
    "gauss-unimodular-1": rand_unimodular(random.Random(11)),
    "gauss-unimodular-2": rand_unimodular(random.Random(12)),
    "gauss-unimodular-3": Mat2(_A, _B, _C, (1 + _B * _C) / _A),
    "gauss-det-not-1": Mat2(_A, _B, _C, _gauss(_F(5, 6), 2)),
    "gauss-trace-0": Mat2(_A, _B, _C, -_A),  # P = 0 in g^2 = P*g - Q
    "gauss-det-0": Mat2(_A, _B, _C, _B * _C / _A),  # Q = 0
    "gauss-real": gaussian_mat(((_F(1, 2), 3), (_F(-2, 3), _F(5, 4)))),
    "fraction": Mat2(_F(1, 2), _F(3, 4), _F(-2, 3), _F(5, 7)),
    "int-unimodular": Mat2(2, 1, 1, 1),
    "int-det-not-1": Mat2(3, -2, 5, 4),
    "mixed-int-fraction": Mat2(1, _F(3, 4), -2, _F(5, 7)),
    "mixed-int-fraction-unimodular": Mat2(_F(2), 3, _F(1, 3), 1),
    "zero": ZERO_MAT,
    "nilpotent": gaussian_mat(((0, 1), (0, 0))),
    "scalar": Mat2(_F(-3, 5), 0, 0, _F(-3, 5)),
    # det has the denominator 13 or 7, which the trace lacks: L < d^2
    "fraction-det-prime": Mat2(0, _F(1, 13), -1, 1),
    "gauss-det-prime": Mat2(_gauss(1, 1), _gauss(_F(1, 7), _F(2, 7)), _gauss(0, -1), _gauss(2, -1)),
}
KERNEL_INDICES = sorted(
    set(range(41)) | {2 ** j + k for j in range(6, 13) for k in (-1, 0, 1)}
)


@pytest.mark.parametrize("name", sorted(EXACT_MATRICES))
def test_exact_kernel_matches_the_path_it_replaces(name):
    m = EXACT_MATRICES[name]
    det = m.det()
    assert (det == 1) == ("unimodular" in name)
    methods = ("chebyshev", "general_recurrence") if det == 1 else ("general_recurrence",)
    for n in KERNEL_INDICES:
        a, b = unit_power((-det, m.m11 + m.m22), n)
        reference = m * b + a
        want = [(type(v), v) for v in reference.entries()]
        assert mat_power(m, n, "squaring") == reference, n
        for method in methods:
            got = mat_power(m, n, method)
            assert type(got) is Mat2
            assert [(type(v), v) for v in got.entries()] == want, (method, n)


def test_exact_kernel_raises_no_integer_beyond_the_output_numerators(monkeypatch):
    # Raising g = d*h of the unit (-1/13, 1) to 4096 builds 14,636-bit
    # integers where the numerators of M^4096 have 7,061 bits: the excess
    # (d^2/L)^2048 = 13^2048 that raising G = L*h^2 never builds.
    bits = []
    raise_ = pauli.power

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

    m = EXACT_MATRICES["fraction-det-prime"]
    monkeypatch.setattr(pauli, "power", recording)
    got = mat_power(m, 4096, "general_recurrence")
    monkeypatch.undo()
    assert got == mat_power(m, 4096, "squaring")
    numerator_bits = max(x.numerator.bit_length() for x in got.entries())
    assert numerator_bits == 7061
    assert max(bits) <= numerator_bits + 64


@pytest.mark.parametrize(
    "m, det",
    [
        (EXACT_MATRICES["gauss-det-not-1"], "-19/12+7/3i"),
        (EXACT_MATRICES["gauss-real"], "21/8"),
        (EXACT_MATRICES["fraction"], "6/7"),
        (EXACT_MATRICES["int-det-not-1"], "22"),
        (EXACT_MATRICES["mixed-int-fraction"], "31/14"),
        (EXACT_MATRICES["zero"], "0"),
        (Mat2(X, 1, 0, 1), "x"),
    ],
)
def test_chebyshev_refusal_text(m, det):
    assert str(m.det()) == det
    with pytest.raises(ValueError) as info:
        mat_power(m, 3, "chebyshev")
    assert str(info.value) == f"the Chebyshev closed form needs determinant 1, got {det}"


def test_polynomial_matrix_takes_the_generic_path():
    m = Mat2(2 * X, -1, 1, 0)
    assert m.det() == 1
    for n in range(13):
        by_squaring = mat_power(m, n, "squaring")
        assert mat_power(m, n, "chebyshev") == by_squaring
        assert mat_power(m, n, "general_recurrence") == by_squaring
        assert by_squaring.m11 == cheb_U(n).poly
