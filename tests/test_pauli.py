import random
from fractions import Fraction
from operator import add, mul, sub

import pytest

from gencheb.matrices import Mat2, Mat3
from gencheb.pauli import (
    IDENTITY,
    PAULI,
    anticommutator,
    bench_power,
    coeff_bits,
    gaussian_mat,
    mat_power,
    pauli_decompose,
    pauli_recompose,
    quadratic_residual,
)
from gencheb.scalars import GaussianRational

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
            assert anticommutator(PAULI[i], PAULI[j]) == expected


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
    with pytest.raises(ValueError):
        mat_power(m, -1)
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
