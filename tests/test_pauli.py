import random
from fractions import Fraction

import pytest

from gencheb.matrices import Mat2
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
