import math
import random
from fractions import Fraction

import pytest

from gencheb.euler import (
    addition_residuals,
    defining_identity_residual,
    euler_closed_form,
    euler_series,
    ode_residual,
)
from gencheb.gcn import GcnUnit, power_coeff_sequence
from gencheb.poly import gens

CIRCLE = GcnUnit(Fraction(-1), Fraction(0))
SPLIT = GcnUnit(Fraction(1), Fraction(0))
FIB = GcnUnit(Fraction(1), Fraction(1))


def test_circle_unit_is_cos_sin():
    phi = math.pi / 3
    pair = euler_series(CIRCLE, phi)
    assert abs(pair.c - 0.5) < 1e-12
    assert abs(pair.s - math.sqrt(3) / 2) < 1e-12
    assert pair.terms is not None and pair.terms > 4


def test_split_unit_is_cosh_sinh():
    pair = euler_series(SPLIT, 1.0)
    assert abs(pair.c - math.cosh(1.0)) < 1e-12
    assert abs(pair.s - math.sinh(1.0)) < 1e-12


def test_series_matches_closed_form_golden_unit():
    for phi in (-1.5, -0.3, 0.0, 0.7, 2.0):
        series = euler_series(FIB, phi, 1e-14)
        closed = euler_closed_form(FIB, phi)
        assert abs(series.c - closed.c) < 1e-11
        assert abs(series.s - closed.s) < 1e-11


def test_closed_form_reduces_to_cos_sin():
    for phi in (-2.0, -0.5, 0.1, 1.7):
        pair = euler_closed_form(CIRCLE, phi)
        assert abs(pair.c - math.cos(phi)) < 1e-13
        assert abs(pair.s - math.sin(phi)) < 1e-13


def test_degenerate_unit_closed_form():
    # Double root at 1: S = phi*e^phi, C = (1 - phi)*e^phi.
    unit = GcnUnit(Fraction(-1), Fraction(2))
    for phi in (-1.0, 0.25, 0.9):
        closed = euler_closed_form(unit, phi)
        series = euler_series(unit, phi, 1e-14)
        assert abs(closed.s - phi * math.exp(phi)) < 1e-12
        assert abs(closed.c - (1 - phi) * math.exp(phi)) < 1e-12
        assert abs(series.s - closed.s) < 1e-11
        assert abs(series.c - closed.c) < 1e-11


def test_seed_values():
    for unit in (CIRCLE, SPLIT, FIB, GcnUnit(Fraction(2, 3), Fraction(-1, 2))):
        pair = euler_series(unit, 0.0)
        assert pair.c == 1.0
        assert pair.s == 0.0
        closed = euler_closed_form(unit, 0.0)
        assert abs(closed.c - 1.0) < 1e-14
        assert abs(closed.s) < 1e-14


def test_defining_identity_holds_for_series_values():
    rng = random.Random(808)
    for _ in range(20):
        unit = GcnUnit(
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
        )
        phi = rng.uniform(-1.5, 1.5)
        pair = euler_series(unit, phi, 1e-14)
        assert defining_identity_residual(unit, phi, pair.c, pair.s) < 1e-11


def test_ode_residuals():
    grid = [-2.0 + 4.0 * k / 24 for k in range(25)]
    report = ode_residual(CIRCLE, grid)
    assert report.max_c_residual < 1e-12
    assert report.max_s_residual < 1e-12
    report = ode_residual(FIB, grid)
    assert report.max_c_residual < 1e-10
    assert report.max_s_residual < 1e-10
    # Chebyshev unit fixed at x = 1/2: (a, b) = (-1, 1).
    report = ode_residual(GcnUnit(Fraction(-1), Fraction(1)), grid)
    assert report.max_c_residual < 1e-10
    assert report.max_s_residual < 1e-10
    with pytest.raises(ValueError):
        ode_residual(CIRCLE, [0.0, 1.0])


def test_addition_law():
    rng = random.Random(909)
    for _ in range(50):
        unit = GcnUnit(
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
        )
        rc, rs = addition_residuals(unit, rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert rc < 1e-10
        assert rs < 1e-10


def test_series_coefficients_are_the_power_coefficients():
    # Partial sums rebuilt from the exact (a_n, b_n) agree with euler_series.
    for unit in (FIB, GcnUnit(Fraction(-1, 2), Fraction(1, 3))):
        seq = power_coeff_sequence(unit, 40)
        for phi in (-0.8, 0.4, 1.1):
            c = s = 0.0
            t = 1.0
            for n, (a_n, b_n) in enumerate(seq):
                if n:
                    t *= phi / n
                c += t * float(a_n)
                s += t * float(b_n)
            pair = euler_series(unit, phi, 1e-14)
            assert abs(pair.c - c) < 1e-12
            assert abs(pair.s - s) < 1e-12


def test_input_validation():
    with pytest.raises(ValueError):
        euler_series(CIRCLE, 1.0, 0.0)
    with pytest.raises(ValueError):
        euler_series(CIRCLE, math.inf)
    with pytest.raises(ValueError, match="tolerance"):
        euler_series(CIRCLE, 1.0, math.nan)
    with pytest.raises(ValueError, match="tolerance"):
        ode_residual(CIRCLE, [-1.0, 0.0, 1.0], -1.0)
    with pytest.raises(ValueError, match="grid"):
        ode_residual(CIRCLE, [math.nan, 0.0, 1.0])
    x, = gens("x")
    with pytest.raises(TypeError):
        euler_series(GcnUnit(x, x), 1.0)
