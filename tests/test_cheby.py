import math
import tracemalloc
from fractions import Fraction

import pytest

from gencheb import cheby
from gencheb.cheby import (
    X,
    b_ode_residual,
    cheb_AB,
    cheb_T,
    cheb_U,
    cheb_unit,
    ode_apply,
    u_ode_residual,
)
from gencheb.gcn import (
    GcnUnit,
    conjugate_roots,
    power_coeff_sequence,
    power_coeffs,
    unit_powers,
)
from gencheb.matrices import Mat2
from gencheb.poly import MultiPoly


def test_u_seeds_and_small_values():
    assert cheb_U(0).poly == 1
    assert cheb_U(1).poly == 2 * X
    assert cheb_U(2).poly == 4 * X * X - 1
    assert cheb_U(3).poly == 8 * X ** 3 - 4 * X


def test_u_recurrence_holds():
    for n in range(1, 40):
        assert cheb_U(n + 1).poly == 2 * X * cheb_U(n).poly - cheb_U(n - 1).poly


def test_t_small_values():
    assert cheb_T(0).poly == 1
    assert cheb_T(1).poly == X
    assert cheb_T(2).poly == 2 * X * X - 1
    assert cheb_T(3).poly == 4 * X ** 3 - 3 * X


def test_degrees_and_leading_coefficients():
    for n in range(0, 24):
        u = cheb_U(n).poly
        assert u.total_degree() == n
        assert u.coefficient((n,)) == 2 ** n
        if n >= 1:
            t = cheb_T(n).poly
            assert t.total_degree() == n
            assert t.coefficient((n,)) == 2 ** (n - 1)


def test_ab_pairs_match_unit_power_coefficients():
    # (A_n, B_n) are exactly the power coefficients of the unit (-1, 2x).
    seq = power_coeff_sequence(cheb_unit(), 16)
    for n in range(17):
        pair = cheb_AB(n)
        assert (pair.a, pair.b) == seq[n]
    assert cheb_AB(2).a == -1
    assert cheb_AB(2).b == 2 * X
    assert cheb_AB(3).a == -2 * X
    assert cheb_AB(3).b == 4 * X * X - 1


def test_ab_pairs_match_the_unit_walk():
    # The explicit coefficients against the walk h^(n+1) = h * h^n of gcn.
    walk = unit_powers(cheb_unit().coeffs)
    for n in range(65):
        pair = cheb_AB(n)
        assert (pair.a, pair.b) == next(walk)


def test_u_memo_stays_within_its_bound():
    for n in range(1001):
        cheb_AB(n)
    info = cheby._u.cache_info()
    assert info.currsize <= info.maxsize


def test_cold_u_1000_memory_peak():
    # U_1000 has 501 terms of at most about 1,270 bits, about 0.15 MB; a
    # build that keeps every U_m, m < 1000, peaks near 75 MB.
    cheby._u.cache_clear()
    tracemalloc.start()
    try:
        cheb_U(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_u_1000_at_a_rational_point():
    # U_{n+1} = 2x U_n - U_{n-1} on Fractions, with no polynomial at all.
    x = Fraction(3, 7)
    u_prev, u_n = Fraction(0), Fraction(1)
    for _ in range(1000):
        u_prev, u_n = u_n, 2 * x * u_n - u_prev
    assert cheb_U(1000).poly.evaluate_exact({"x": x}) == u_n


def test_ab_norm_identity_exact():
    for n in range(0, 20):
        pair = cheb_AB(n)
        value = pair.a * pair.a + 2 * X * pair.a * pair.b + pair.b * pair.b
        assert value == 1


def test_b_equals_shifted_u_and_negated_a():
    # cheb_U reads B off the unit, so U_{n-1} is rebuilt here by the
    # three-term recurrence, U_{-1} = 0, U_0 = 1.
    u_prev, u_n = MultiPoly.zero(("x",)), MultiPoly.one(("x",))
    for n in range(0, 32):
        pair = cheb_AB(n)
        pair_next = cheb_AB(n + 1)
        assert pair.b == u_prev
        assert pair.b == -pair_next.a
        u_prev, u_n = u_n, 2 * X * u_n - u_prev


def test_companion_power_identity():
    zero = MultiPoly.zero(("x",))
    assert cheb_unit().companion() ** 1 == Mat2(zero, -cheb_U(0).poly, cheb_U(0).poly, cheb_U(1).poly)
    assert cheb_unit().companion() ** 2 == Mat2(
        -cheb_U(0).poly, -cheb_U(1).poly, cheb_U(1).poly, cheb_U(2).poly
    )
    for n in range(0, 24):
        power = cheb_unit().companion() ** (n + 1)
        u_prev = cheb_U(n - 1).poly if n >= 1 else zero
        assert power == Mat2(-u_prev, -cheb_U(n).poly, cheb_U(n).poly, cheb_U(n + 1).poly)
        assert power.det() == 1


def test_pell_identity():
    for n in range(1, 40):
        u_n = cheb_U(n).poly
        assert u_n * u_n - cheb_U(n - 1).poly * cheb_U(n + 1).poly == 1
    # n = 1 by hand: 4x^2 - (4x^2 - 1) = 1.
    assert cheb_U(1).poly ** 2 - cheb_U(0).poly * cheb_U(2).poly == 1


def test_first_kind_norm():
    for n in range(1, 24):
        t_n = cheb_T(n).poly
        u_prev = cheb_U(n - 1).poly
        assert t_n * t_n - (X * X - 1) * u_prev * u_prev == 1


def test_u_ode_annihilates():
    for n in range(0, 33):
        assert u_ode_residual(n).is_zero


def test_b_ode_annihilates_with_correct_constant():
    for n in range(1, 33):
        assert b_ode_residual(n).is_zero


def test_b_ode_squared_constant_is_not_an_identity():
    # The constant (n-1)^2 leaves -4x on B_2 = 2x; (n-1)(n+1) is the one
    # that annihilates.  Pinned so the corrected operator stays.
    b2 = cheb_AB(2).b
    wrong = ode_apply(b2, (2 - 1) ** 2)
    assert wrong == -4 * X
    assert ode_apply(b2, 2 * 2 - 1).is_zero


def test_flipped_sign_companion_is_a_different_matrix():
    from gencheb.gcn import GcnUnit

    flipped = GcnUnit(MultiPoly.one(("x",)), -2 * X)
    assert flipped.companion().det() == -1
    target = Mat2(-cheb_U(0).poly, -cheb_U(1).poly, cheb_U(1).poly, cheb_U(2).poly)
    assert flipped.companion() ** 2 != target
    assert cheb_unit().companion() ** 2 == target


def test_sine_quotient_numeric():
    theta = 0.3
    x = Fraction(math.cos(theta))
    u3 = float(cheb_U(3).poly.evaluate_exact({"x": x}).re)
    assert abs(u3 * math.sin(theta) - math.sin(4 * theta)) < 1e-12
    t5 = float(cheb_T(5).poly.evaluate_exact({"x": Fraction(math.cos(0.7))}).re)
    assert abs(t5 - math.cos(3.5)) < 1e-12


def _roots(x: float) -> tuple[float, float]:
    """H± = x ± sqrt(x^2 - 1): the numeric roots of the unit (-1, 2x)."""
    return conjugate_roots(GcnUnit(-1, 2 * Fraction(x))).numeric()


def test_root_derivative_numeric():
    # dH±/dx = ±H±/sqrt(x^2 - 1), finite differences at step 1e-6.
    step = 1e-6
    for k in range(20):
        x = 1.5 + 0.35 * k
        plus, minus = _roots(x)
        d_plus = (_roots(x + step)[0] - _roots(x - step)[0]) / (2 * step)
        d_minus = (_roots(x + step)[1] - _roots(x - step)[1]) / (2 * step)
        s = math.sqrt(x * x - 1)
        assert abs(d_plus - plus / s) < 1e-6 * max(1.0, abs(plus / s))
        assert abs(d_minus + minus / s) < 1e-6 * max(1.0, abs(minus / s))


def test_u_from_roots_real_branch():
    for n in (0, 1, 3, 8, 15):
        for x in (1.25, 2.0, 2.75):
            direct = cheb_U(n).poly.evaluate_float({"x": x})
            # U_n = B_{n+1} of the unit (-1, 2x), by the float closed form
            u_n = power_coeffs(GcnUnit(-1, 2 * x), n + 1, "binet_float")[1]
            assert abs(u_n - direct) < 1e-9 * max(1.0, abs(direct))


def test_index_validation():
    with pytest.raises(ValueError):
        cheb_U(-1)
    with pytest.raises(ValueError):
        cheb_T(-3)
    with pytest.raises(ValueError):
        b_ode_residual(0)
