import math
from fractions import Fraction

import pytest

from gencheb import gcn
from gencheb.higher import (
    UV,
    CubicUnit,
    cubic_power,
    cubic_power_sequence,
    hermite3,
    hermite3_generating_series,
    u2_by_laplace,
    u2_by_recurrence,
    u2_by_series,
    u2_gens,
)
from gencheb.poly import MultiPoly, gens

U, V = u2_gens()


def divide_one_by_cubic(n_terms):
    """Independent oracle: plain long division of 1 by 1 - u*t + v*t^2 - t^3.

    Maintains the running remainder's lowest coefficient directly instead of
    going through TruncatedSeries, so the two routes share no code.
    """
    quotient = []
    remainder = {0: MultiPoly.one(UV)}  # t-degree -> coefficient
    for k in range(n_terms):
        c = remainder.pop(k, MultiPoly.zero(UV))
        quotient.append(c)
        if c.is_zero:
            continue
        # Subtract c * t^k * (1 - u*t + v*t^2 - t^3) from the remainder.
        for offset, factor in ((1, U), (2, -V), (3, MultiPoly.one(UV))):
            key = k + offset
            remainder[key] = remainder.get(key, MultiPoly.zero(UV)) + c * factor
    return quotient


def test_first_values_against_independent_division():
    oracle = divide_one_by_cubic(6)
    assert oracle[0] == 1
    assert oracle[1] == U
    assert oracle[2] == U * U - V
    assert oracle[3] == U ** 3 - 2 * U * V + 1
    by_series = u2_by_series(6)
    for k in range(6):
        assert by_series[k + 1].poly == oracle[k]
    assert by_series[0].poly.is_zero


def test_series_seeds_and_values():
    values = u2_by_series(4)
    assert [v.poly for v in values] == [
        MultiPoly.zero(UV),
        MultiPoly.one(UV),
        U,
        U * U - V,
        U ** 3 - 2 * U * V + 1,
    ]


def test_recurrence_matches_series():
    by_series = u2_by_series(20)
    by_rec = u2_by_recurrence(20)
    for a, b in zip(by_series, by_rec):
        assert a.n == b.n
        assert a.poly == b.poly


def test_recurrence_step_by_hand():
    values = u2_by_recurrence(4)
    expected = U * (U * U - V) - V * U + 1
    assert values[4].poly == expected


def test_zero_seeds_stay_zero():
    zero = MultiPoly.zero(UV)
    window = [zero, zero, zero]
    for _ in range(12):
        nxt = U * window[-1] - V * window[-2] + window[-3]
        assert nxt.is_zero
        window = [window[-2], window[-1], nxt]


def test_setting_v_zero_does_not_give_one_variable_chebyshev():
    # Negative control: the third-order term survives, so U2_4(2x, 0) is
    # 8x^3 + 1, not U_3(x) = 8x^3 - 4x.
    from gencheb.cheby import X, cheb_U

    u2_4 = u2_by_recurrence(4)[4].poly
    specialized = u2_4.substitute({"u": 2 * X, "v": MultiPoly.zero(("x",))})
    assert specialized == 8 * X ** 3 + 1
    assert specialized != cheb_U(3).poly


def test_cubic_power_seeds_and_relation():
    seq = cubic_power_sequence(U, V, 4)
    assert (seq[0].alpha, seq[0].beta, seq[0].gamma) == (1, 0, 0)
    assert (seq[1].alpha, seq[1].beta, seq[1].gamma) == (0, 1, 0)
    assert (seq[2].alpha, seq[2].beta, seq[2].gamma) == (0, 0, 1)
    assert (seq[3].alpha, seq[3].beta, seq[3].gamma) == (1, -V, U)
    assert seq[4].alpha == U
    assert seq[4].beta == 1 - U * V
    assert seq[4].gamma == U * U - V


def test_cubic_power_methods_agree():
    for n in range(0, 16):
        reduction = cubic_power(U, V, n, "reduction")
        matrix = cubic_power(U, V, n, "matrix")
        assert (reduction.alpha, reduction.beta, reduction.gamma) == (
            matrix.alpha,
            matrix.beta,
            matrix.gamma,
        )
    with pytest.raises(ValueError):
        cubic_power(U, V, -1)
    with pytest.raises(ValueError):
        cubic_power(U, V, 2, "banana")


def test_the_matrix_route_is_gcns_and_packs_the_cubic_unit(monkeypatch):
    layouts = []
    packed_unit_power = gcn.packed_unit_power

    def spy(coeffs, n, power):
        out = packed_unit_power(coeffs, n, power)
        layouts.append(out is not None)
        return out

    monkeypatch.setattr(gcn, "packed_unit_power", spy)
    matrix = cubic_power(U, V, 24, "matrix")
    assert layouts == [True]
    assert matrix == cubic_power(U, V, 24, "reduction")


def test_gamma_tracks_two_variable_chebyshev():
    by_series = u2_by_series(16)
    for n, coeffs in enumerate(cubic_power_sequence(U, V, 16)):
        expected = by_series[n - 1].poly if n >= 1 else MultiPoly.zero(UV)
        assert coeffs.gamma == expected


def test_companion_satisfies_its_cubic():
    unit = CubicUnit(U, V)
    c = unit.companion()
    assert c ** 3 == c * c * U - c * V + c.identity_like()


def test_hermite_small_values():
    x, y, z = gens("x", "y", "z")
    assert hermite3(0).poly == 1
    assert hermite3(1).poly == x
    assert hermite3(2).poly == x * x + 2 * y
    assert hermite3(3).poly == x ** 3 + 6 * x * y + 6 * z


def test_hermite_pure_x_slice():
    for n in (0, 1, 4, 9):
        poly = hermite3(n).poly
        assert poly.coefficient((n, 0, 0)) == 1


def test_hermite_generating_function():
    series = hermite3_generating_series(12)
    fact = 1
    for n in range(13):
        if n:
            fact *= n
        assert series.coefficient(n) == hermite3(n).poly * Fraction(1, fact)


def test_laplace_route_small_cases():
    assert u2_by_laplace(0).poly == 1
    assert u2_by_laplace(1).poly == U
    assert u2_by_laplace(2).poly == U * U - V
    assert u2_by_laplace(0).n == 1


def test_laplace_route_matches_series():
    by_series = u2_by_series(13)
    for n in range(12):
        assert u2_by_laplace(n).poly == by_series[n + 1].poly


def laplace_by_substitution(n):
    """The Laplace route as a whole: substitute into H3_n, then integrate s away.

    Builds the (u, v, s) polynomial H3_n(u*s, -v*s, s) and replaces each
    s^m by m!, through the public API only; ``u2_by_laplace`` works term by
    term instead.
    """
    u, v, s = gens("u", "v", "s")
    substituted = hermite3(n).poly.substitute({"x": u * s, "y": -(v * s), "z": s})
    sums = {}
    for (eu, ev, es), coeff in substituted.terms.items():
        sums[eu, ev] = sums.get((eu, ev), 0) + coeff * math.factorial(es)
    scale = Fraction(1, math.factorial(n))
    return MultiPoly(UV, {exps: c * scale for exps, c in sums.items()})


def test_term_by_term_laplace_matches_substitution():
    for n in range(41):
        assert u2_by_laplace(n).poly == laplace_by_substitution(n)


def test_index_validation():
    with pytest.raises(ValueError):
        u2_by_series(0)
    with pytest.raises(ValueError):
        u2_by_recurrence(-2)
    with pytest.raises(ValueError):
        hermite3(-1)
    with pytest.raises(ValueError):
        u2_by_laplace(-1)
