import random
from fractions import Fraction

import pytest

from gencheb.poly import MultiPoly, PolyParseError, gens, parse_poly
from gencheb.scalars import GaussianRational

X, = gens("x")
U, V = gens("u", "v")


def random_poly(rng, variables, max_degree=4, max_terms=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in variables)
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return MultiPoly(variables, terms)


def test_ring_laws_on_random_triples():
    rng = random.Random(424242)
    for _ in range(60):
        p = random_poly(rng, ("u", "v"))
        q = random_poly(rng, ("u", "v"))
        r = random_poly(rng, ("u", "v"))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_no_zero_terms_stored():
    p = MultiPoly(("x",), {(2,): 1, (0,): -1})
    q = MultiPoly(("x",), {(2,): -1, (0,): 1})
    assert not (p + q).terms
    assert (p + q).is_zero
    assert MultiPoly(("x",), {(3,): 0}).is_zero


def test_exponent_width_checked():
    with pytest.raises(ValueError):
        MultiPoly(("x", "y"), {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly(("x",), {(-1,): 1})


def test_variable_mismatch_requires_explicit_alignment():
    p = MultiPoly(("x",), {(1,): 1})
    q = MultiPoly(("y",), {(1,): 1})
    with pytest.raises(ValueError):
        p + q
    widened = p.aligned(("x", "y")) + q.aligned(("x", "y"))
    assert widened == MultiPoly(("x", "y"), {(1, 0): 1, (0, 1): 1})


def test_derivative_examples():
    p = parse_poly("4*x^2 - 1", ("x",))
    assert p.derivative("x") == parse_poly("8*x", ("x",))
    assert MultiPoly.constant(("x",), 5).derivative("x").is_zero
    assert (U * U * V).derivative("u") == 2 * U * V
    with pytest.raises(ValueError):
        p.derivative("t")


def test_parse_examples():
    p = parse_poly("4*x^2 - 1", ("x",))
    assert p.coefficient((2,)) == 4
    assert p.coefficient((0,)) == -1
    assert parse_poly("u^3 - 2*u*v + 1", ("u", "v")) == U ** 3 - 2 * U * V + 1


def test_parse_error_positions():
    with pytest.raises(PolyParseError) as info:
        parse_poly("x +", ("x",))
    assert info.value.position == 3
    with pytest.raises(PolyParseError) as info:
        parse_poly("x + y", ("x",))
    assert info.value.position == 4
    with pytest.raises(PolyParseError) as info:
        parse_poly("1/0", ("x",))
    assert info.value.position == 2
    with pytest.raises(PolyParseError):
        parse_poly("2^3", ("x",))
    with pytest.raises(PolyParseError):
        parse_poly("(x+1)^2", ("x",))  # '^' binds to symbols only
    with pytest.raises(PolyParseError):
        parse_poly("(x", ("x",))


def test_parse_accepts_insignificant_whitespace_and_parens():
    assert parse_poly(" ( x + 1 ) * ( x - 1 ) ", ("x",)) == X * X - 1
    assert parse_poly("3/2 * x ^ 2", ("x",)) == MultiPoly(("x",), {(2,): Fraction(3, 2)})
    assert parse_poly("4*-1", ("x",)) == -4


def test_render_ordering_and_format():
    assert (8 * X ** 3 - 4 * X).render() == "8*x^3 - 4*x"
    assert (U ** 3 - 2 * U * V + 1).render() == "u^3 - 2*u*v + 1"
    # Same total degree: the first-listed variable dominates the tie-break.
    assert (U * U + U * V + V * V).render() == "u^2 + u*v + v^2"
    assert MultiPoly.zero(("x",)).render() == "0"
    assert (-X ** 2 + 1).render() == "-1*x^2 + 1"
    assert MultiPoly(("x",), {(1,): Fraction(-3, 2)}).render() == "-3/2*x"


def test_render_parse_roundtrip_random():
    rng = random.Random(2024)
    for _ in range(150):
        p = random_poly(rng, ("x", "y", "z"), max_degree=6, max_terms=7)
        assert parse_poly(p.render(), ("x", "y", "z")) == p


def test_render_rejects_imaginary_coefficients():
    p = MultiPoly(("x",), {(1,): GaussianRational(Fraction(0), Fraction(1))})
    with pytest.raises(ValueError):
        p.render()


def test_substitute_and_evaluate():
    p = parse_poly("x^2 + 2*x + 1", ("x",))
    shifted = p.substitute({"x": U - 1})
    assert shifted == U * U
    value = p.evaluate_exact({"x": Fraction(1, 2)})
    assert value == Fraction(9, 4)
    assert abs(p.evaluate_float({"x": 0.5}) - 2.25) < 1e-15


def test_scalar_equality_and_pow():
    assert MultiPoly.constant(("x",), 7) == 7
    assert X ** 0 == 1
    assert (X + 1) ** 2 == X * X + 2 * X + 1
    with pytest.raises(ValueError):
        X ** -1
