import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from gencheb import cheby, gcn, poly, scalars, series
from gencheb.higher import XYZ, CubicUnit, hermite3, u2_by_series
from gencheb.poly import MAX_NESTING, MultiPoly, PolyParseError, gens, parse_poly
from gencheb.scalars import GaussianRational

X, = gens("x")
U, V = gens("u", "v")


def random_poly(rng, variables, max_degree=4, max_terms=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in variables)
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return MultiPoly(variables, terms)


# The product's fold has a form of its own for one and two variables and a
# generic one for more, so the ring checks run at every width up to four.
WIDTHS = pytest.mark.parametrize(
    "names", [("u",), ("u", "v"), ("u", "v", "w"), ("u", "v", "w", "z")], ids="-".join
)


@WIDTHS
def test_ring_laws_on_random_triples(names):
    rng = random.Random(424242)
    for _ in range(60):
        p = random_poly(rng, names)
        q = random_poly(rng, names)
        r = random_poly(rng, names)
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
    with pytest.raises(PolyParseError) as info:
        parse_poly("(" * 1000 + "x" + ")" * 1000, ("x",))
    assert info.value.position == MAX_NESTING


def test_parse_refuses_digits_that_int_does_not_read():
    # '²' is a digit to str.isdigit but not to int(); a decimal digit of
    # another script is read by int() and parses.
    for text, position, message in (
        ("x^²", 2, "expected digits"),
        ("1/²", 2, "expected digits"),
        ("²", 0, "expected a factor"),
    ):
        with pytest.raises(PolyParseError) as info:
            parse_poly(text, ("x",))
        assert info.value.position == position
        assert str(info.value) == f"{message} (offset {position})"
    assert parse_poly("x^\u0661", ("x",)) == X


def test_a_leading_minus_negates_any_factor():
    assert parse_poly("-x", ("x",)) == -X
    assert parse_poly("-(x + 1)", ("x",)) == -X - 1
    assert parse_poly("2*-x", ("x",)) == -2 * X
    assert parse_poly("- -x", ("x",)) == X
    assert parse_poly("1 - -x", ("x",)) == X + 1
    # The sign takes the whole factor, power included.
    assert parse_poly("-x^2", ("x",)) == -(X ** 2)
    assert parse_poly("-x^2", ("x",)).render() == "-1*x^2"


def test_a_run_of_signs_is_read_without_recursion():
    assert parse_poly("-" * 100_000 + "x", ("x",)) == X
    assert parse_poly("-" * 100_001 + "x", ("x",)) == -X


def test_a_sign_before_no_factor_is_refused_with_its_offset():
    with pytest.raises(PolyParseError) as info:
        parse_poly("-²", ("x",))
    assert info.value.position == 1
    assert str(info.value) == "expected a factor (offset 1)"


def test_parse_refuses_duplicate_variable_names():
    for text in ("x + 1", "1"):
        with pytest.raises(ValueError) as info:
            parse_poly(text, ("x", "x"))
        assert str(info.value) == "duplicate variable names in ('x', 'x')"


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


def test_equal_polynomials_hash_alike():
    x, y = gens("x", "y")
    assert hash((x + 1) ** 2) == hash(x * x + 2 * x + 1)
    assert hash((x + y) - y) == hash(x)
    # A constant equals its scalar, so it hashes like it.
    for scalar in (Fraction(1, 2), 0, GaussianRational(1, 2)):
        assert hash(MultiPoly.constant(("x", "y"), scalar)) == hash(scalar)
    assert len({(x + 1) ** 2, x * x + 2 * x + 1, (x + y) - y, x}) == 2


# -- fast coefficient path against a plain GaussianRational reference ----------

_G0 = GaussianRational()
_G1 = GaussianRational(Fraction(1))


def random_coeff(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice([-3, -2, -1, 1, 2, 5])
    if kind == 1:
        return Fraction(rng.choice([-5, -1, 1, 3, 7]), rng.choice([2, 3, 4]))
    return GaussianRational(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3)),
    )


def random_mixed_poly(rng, variables, max_degree=3, max_terms=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in variables)
        terms[exps] = random_coeff(rng)
    return MultiPoly(variables, terms)


def ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, _G0) + c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, _G0) + c1 * c2
    return ref_clean(out)


def ref_pow(a, n, width):
    out = {(0,) * width: _G1}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_derivative(a, idx):
    out = {}
    for e, c in a.items():
        if e[idx]:
            lowered = e[:idx] + (e[idx] - 1,) + e[idx + 1 :]
            out[lowered] = out.get(lowered, _G0) + c * e[idx]
    return ref_clean(out)


def ref_evaluate(a, point):
    acc = _G0
    for e, c in a.items():
        term = c
        for value, k in zip(point, e):
            term = term * GaussianRational._coerce(value) ** k
        acc = acc + term
    return acc


def ref_substitute(a, images, width):
    out = {}
    for e, c in a.items():
        term = {(0,) * width: c}
        for image, k in zip(images, e):
            term = ref_mul(term, ref_pow(image, k, width))
        out = ref_add(out, term)
    return out


def assert_canonical(p):
    for coeff in p._terms.values():
        assert type(coeff) in (int, Fraction, GaussianRational)
        assert coeff
        if type(coeff) is Fraction:
            assert coeff.denominator != 1
        if type(coeff) is GaussianRational:
            assert coeff.im != 0
    assert all(type(c) is GaussianRational for c in p.terms.values())


@WIDTHS
def test_fast_coefficients_match_gaussian_reference(names):
    rng = random.Random(20261018)
    width = len(names)
    origin = (0,) * width
    for _ in range(80):
        p = random_mixed_poly(rng, names)
        q = random_mixed_poly(rng, names)
        a, b = p.terms, q.terms
        scalar = random_coeff(rng)
        lifted = {origin: GaussianRational._coerce(scalar)}
        constant = MultiPoly.constant(names, scalar)
        conj = MultiPoly(names, {e: c.conjugate() for e, c in a.items()})
        results = {
            "add": (p + q, ref_add(a, b)),
            "sub": (p - q, ref_add(a, {e: -c for e, c in b.items()})),
            "neg": (-p, {e: -c for e, c in a.items()}),
            "mul": (p * q, ref_mul(a, b)),
            "norm": (p * conj, ref_mul(a, conj.terms)),
            "scale": (p * scalar, ref_mul(a, lifted)),
            "rscale": (scalar * p, ref_mul(a, lifted)),
            "const": (p * constant, ref_mul(a, lifted)),
            "rconst": (constant * p, ref_mul(a, lifted)),
            "const2": (constant * constant, ref_mul(lifted, lifted)),
            "pow": (p ** 3, ref_pow(a, 3, width)),
        }
        for i, name in enumerate(names):
            results[f"d{name}"] = (p.derivative(name), ref_derivative(a, i))
        for op, (fast, slow) in results.items():
            assert fast.terms == slow, op
            assert_canonical(fast)
        # Every imaginary part of p * conj(p) cancels inside the product.
        assert (p * conj).is_real_valued()
        point = tuple(random_coeff(rng) for _ in names)
        assert_evaluates_as_reference(p, names, point)
        for target in (("s",), ("s", "t"), ("s", "t", "r")):
            images = [random_mixed_poly(rng, target, 2, 3) for _ in names]
            substituted = p.substitute(dict(zip(names, images)))
            slow = ref_substitute(a, [i.terms for i in images], len(target))
            assert substituted.terms == slow
            assert_canonical(substituted)
        exps = tuple(rng.randint(0, 3) for _ in names)
        assert type(p.coefficient(exps)) is GaussianRational
        assert p.coefficient(exps) == a.get(exps, _G0)
        assert type(p.constant_value()) is GaussianRational
        assert p.constant_value() == a.get(origin, _G0)
    # Products whose terms cancel: p * conj(p) minus its expansion is the
    # zero polynomial, over Fraction and Gaussian coefficients.
    generators = gens(*names)
    first, last = generators[0], generators[-1]
    half, gauss = Fraction(1, 2), GaussianRational(Fraction(2, 3), Fraction(-3, 4))
    p = half * first - gauss * last + Fraction(1, 5)
    conj = half * first - gauss.conjugate() * last + Fraction(1, 5)
    twice_re = gauss + gauss.conjugate()
    expansion = (
        Fraction(1, 4) * first * first
        - twice_re * half * first * last
        + gauss * gauss.conjugate() * last * last
        + Fraction(1, 5) * first
        - twice_re * Fraction(1, 5) * last
        + Fraction(1, 25)
    )
    assert (p * conj - expansion).terms == {}
    difference = (first - half * last) * (first + half * last)
    assert (difference - first ** 2 + Fraction(1, 4) * last ** 2).terms == {}
    # Binary64 points, zero and a Gaussian point over d > 1, at the zero
    # polynomial, constants and polynomials missing a variable.
    points = [Fraction(math.cos(t)) for t in (0.1, 1.3, 2.9)] + [
        0,
        GaussianRational(Fraction(-2, 3), Fraction(5, 6)),
    ]
    polys = [
        MultiPoly.zero(names),
        MultiPoly.constant(names, Fraction(-7, 3)),
        MultiPoly.constant(names, GaussianRational(Fraction(1, 2), 3)),
        first ** 7 * Fraction(2, 5) - first + Fraction(1, 3),
        (first * Fraction(1, 2) - last + Fraction(1, 3)) ** 6,
    ]
    for p in polys:
        for point in itertools.product(points, repeat=width):
            assert_evaluates_as_reference(p, names, point)


def assert_evaluates_as_reference(p, names, point):
    value = p.evaluate_exact(dict(zip(names, point)))
    assert type(value) is GaussianRational
    numerator_re, numerator_im, denominator = value._t
    assert denominator > 0
    assert math.gcd(numerator_re, numerator_im, denominator) == 1
    assert value == ref_evaluate(p.terms, point)


def _parts(value):
    """(re, im) of an exact scalar, as two Fractions."""
    if isinstance(value, GaussianRational):
        return value.re, value.im
    return Fraction(value), Fraction(0)


def fraction_sum(terms, point):
    """The sum of c * prod v^e, on (re, im) pairs of Fractions, term by term."""
    re = im = Fraction(0)
    for exps, c in terms.items():
        x, y = _parts(c)
        for value, e in zip(point, exps):
            a, b = _parts(value)
            if b:
                for _ in range(e):
                    x, y = x * a - y * b, x * b + y * a
            else:
                x, y = x * a**e, y * a**e
        re, im = re + x, im + y
    return re, im


def assert_evaluates_as_fraction_sum(p, point):
    value = p.evaluate_exact(dict(zip(p.variables, point)))
    x, y, d = value._t
    assert d > 0 and math.gcd(x, y, d) == 1
    assert (value.re, value.im) == fraction_sum(p.terms, point)


def test_evaluate_exact_matches_a_plain_fraction_sum():
    rng = random.Random(20261020)
    coefficient_kinds = {
        "int": lambda: rng.choice([-3, -1, 1, 2, 7]),
        "fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        "gaussian": lambda: random_coeff(rng),
    }
    point_kinds = [
        lambda: 0,
        lambda: rng.randint(-3, 3),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        # binary64 values, one with a denominator of 2^1074
        lambda: Fraction(math.cos(rng.uniform(0.1, 3.0))),
        lambda: Fraction(rng.choice([5e-324, -7e-300, 1e-100])),
        lambda: GaussianRational(Fraction(rng.randint(-5, 5), 3), Fraction(rng.randint(1, 5), 4)),
    ]
    for width in range(4):
        names = ("x", "y", "z")[:width]
        for kind, coeff in coefficient_kinds.items():
            polys = [
                MultiPoly.zero(names),
                MultiPoly.constant(names, coeff()),
            ] + [
                MultiPoly(names, {
                    tuple(rng.randint(0, 6) for _ in names): coeff()
                    for _ in range(rng.randint(1, 8))
                })
                for _ in range(12)
            ]
            for p in polys:
                for _ in range(6):
                    point = [rng.choice(point_kinds)() for _ in names]
                    assert_evaluates_as_fraction_sum(p, point)
                assert_evaluates_as_fraction_sum(p, [0] * width)


def test_evaluate_exact_strips_only_the_integer_walk(monkeypatch):
    calls = []
    stripped = scalars._stripped

    def spy(*args):
        calls.append(args)
        return stripped(*args)

    monkeypatch.setattr(scalars, "_stripped", spy)
    real = cheby.cheb_U(24).poly
    gaussian = real + MultiPoly.constant(("x",), GaussianRational(1, 2))
    cases = [
        (gaussian, Fraction(math.cos(0.7)), 0),
        (real, GaussianRational(Fraction(1, 3), 2), 0),
        (real, Fraction(math.cos(0.7)), 1),
        (real, 3, 1),
    ]
    for p, x, strips in cases:
        calls.clear()
        assert_evaluates_as_fraction_sum(p, [x])
        assert len(calls) == strips


def test_chebyshev_values_at_the_cheb_numeric_points_match_a_fraction_sum():
    thetas = [0.1 + (3.0 - 0.1) * k / 49 for k in range(50)]
    points = [Fraction(math.cos(theta)) for theta in thetas]
    for n in range(33):
        for p in (cheby.cheb_U(n).poly, cheby.cheb_T(n).poly):
            for x in points:
                assert_evaluates_as_fraction_sum(p, [x])


def test_canonical_forms_and_identity_scaling():
    p = MultiPoly(
        ("x",),
        {
            (0,): Fraction(4, 2),
            (1,): GaussianRational(Fraction(3, 3), Fraction(0)),
            (2,): GaussianRational(Fraction(1, 2), Fraction(-1)),
            (3,): Fraction(1, 3),
        },
    )
    assert_canonical(p)
    assert type(p._terms[(0,)]) is int and type(p._terms[(1,)]) is int
    assert p * 1 is p and 1 * p is p
    assert (p * 0).is_zero and (p * Fraction(0)).is_zero
    three = {(0,): GaussianRational(Fraction(3))}
    assert (p * Fraction(3)).terms == ref_mul(p.terms, three)
    assert (p * Fraction(3, 2) * Fraction(2, 3)) == p
    assert not p.is_real_valued()
    conj = MultiPoly(("x",), {e: c.conjugate() for e, c in p.terms.items()})
    norm = p * conj
    assert norm.is_real_valued()
    assert all(type(c) in (int, Fraction) for c in norm._terms.values())
    assert_canonical(norm)
    assert parse_poly(norm.render(), ("x",)) == norm
    i_x = MultiPoly(("x",), {(1,): GaussianRational(Fraction(0), Fraction(1))})
    assert i_x ** 2 == -X ** 2


# -- packed (Kronecker) product against a plain-dict schoolbook ----------------


def schoolbook(a, b):
    """The product of two int term maps, one step per pair of terms."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def full_box(names, side, coeff):
    """coeff times every monomial with each exponent below ``side``."""
    exps = itertools.product(range(side), repeat=len(names))
    return MultiPoly(names, {e: coeff(e) for e in exps})


# A box side per width whose full box has enough pairs per product monomial.
PACKED_SIDES = {1: 32, 2: 6, 3: 3, 4: 3}


@WIDTHS
def test_packed_products_match_schoolbook(names, monkeypatch):
    rng = random.Random(20261019)
    side = PACKED_SIDES[len(names)]
    count = side ** len(names)
    # c times a full box squared: the central coefficient count * c^2 meets
    # the size bound of the slots.  With a bit length that is a multiple of
    # 8, a slot one bit too narrow cannot hold it.
    tight = [math.isqrt(((1 << bits) - 1) // count) for bits in (16, 608)]
    assert [(count * c * c).bit_length() for c in tight] == [16, 608]
    cases = [(full_box(names, side, lambda e, c=c: c),) * 2 for c in tight]
    for bits in (4, 64, 400):
        def draw(e, bits=bits):
            return rng.choice((-1, 1)) * rng.randint(1, 2**bits)

        p, q = full_box(names, side, draw), full_box(names, side, draw)
        cases.append((p, q))
        cases.append((p, -p))
        # p(-x0, ...) * p(x0, ...) is even in x0: every odd power of x0
        # cancels to zero in the packed slots.
        mirror = MultiPoly(names, {e: (-1) ** e[0] * c for e, c in p._terms.items()})
        cases.append((p, mirror))
    calls = []
    real = poly._packed_product

    def spy(left, right, sizes):
        calls.append(sizes)
        return real(left, right, sizes)

    monkeypatch.setattr(poly, "_packed_product", spy)
    for p, q in cases:
        got = p * q
        want = schoolbook(p._terms, q._terms)
        assert got._terms == want
        assert_canonical(got)
    assert len(calls) == len(cases)
    for c, (p, _) in zip(tight, cases):
        assert max((p * p)._terms.values()) == count * c * c
    assert not any(e[0] % 2 for e in (cases[-1][0] * cases[-1][1])._terms)


def test_products_the_packed_path_refuses_use_the_term_loop(monkeypatch):
    def refuse(*_):
        raise AssertionError("packed path taken")

    monkeypatch.setattr(poly, "_packed_product", refuse)
    rng = random.Random(7)
    # Sparse operands in a wide box: 20 x 20 pairs of terms, far below
    # four per monomial of the box.
    sparse = [
        MultiPoly(("x",), {(rng.randrange(10**6),): rng.randint(1, 9) for _ in range(20)})
        for _ in range(2)
    ]
    assert sparse[0] * sparse[1] == MultiPoly(
        ("x",), schoolbook(sparse[0]._terms, sparse[1]._terms)
    )
    x_big = MultiPoly(("x",), {(10**6,): 1, (0,): 1})
    assert (x_big * x_big)._terms == {(2 * 10**6,): 1, (10**6,): 2, (0,): 1}
    # A one-term operand and small operands fold term by term; neither packs.
    dense = full_box(("u", "v"), 20, lambda e: e[0] - e[1] + 1)
    monomial = MultiPoly(("u", "v"), {(3, 1): -5})
    assert (monomial * dense)._terms == schoolbook(monomial._terms, dense._terms)
    small = full_box(("u", "v"), 3, lambda e: e[0] + 2)
    assert (small * small)._terms == schoolbook(small._terms, small._terms)
    # Dense products with a Fraction or GaussianRational coefficient.
    for odd in (Fraction(1, 3), GaussianRational(Fraction(1, 2), 1)):
        mixed = dense + MultiPoly(("u", "v"), {(1, 1): odd})
        want = ref_mul(mixed.terms, dense.terms)
        assert (mixed * dense).terms == want
        assert (dense * mixed).terms == want
        assert_canonical(mixed * dense)


# -- one fold per term of the shorter operand -----------------------------------


@pytest.mark.parametrize("names", [("u",), ("u", "v"), ("u", "v", "w")], ids="-".join)
def test_one_term_products_match_the_references(names, monkeypatch):
    rng = random.Random(20261020)
    calls = []
    real = poly._fold_product

    def spy(out, terms, shift, factor):
        calls.append(len(terms))
        return real(out, terms, shift, factor)

    def refuse(*_):
        raise AssertionError("a one-term product built the packed box")

    monkeypatch.setattr(poly, "_fold_product", spy)
    monkeypatch.setattr(poly, "_packed_box", refuse)
    draws = [
        lambda: rng.choice((-1, 1)) * rng.randint(1, 2**70),
        lambda: Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 9)),
        lambda: random_coeff(rng),
    ]
    # A full box of integer terms has enough pairs with a monomial to reach
    # _PACKED_PAIRS, but a one-term operand never packs.
    side = {1: 300, 2: 17, 3: 7}[len(names)]
    full = full_box(names, side, lambda e: sum(e) + 1)
    products = 0
    for draw in draws * 10:
        exps = tuple(rng.randint(0, 5) for _ in names)
        if not any(exps):
            exps = (1,) + exps[1:]
        monomial = MultiPoly(names, {exps: draw()})
        small = MultiPoly(
            names, {tuple(rng.randint(0, 6) for _ in names): draw() for _ in range(12)}
        )
        for other in (full, small):
            for got in (monomial * other, other * monomial):
                products += 1
                assert calls[-1] == len(other._terms)
                assert got.terms == ref_mul(monomial.terms, other.terms)
                assert_canonical(got)
                if all(type(c) is int for c in (*monomial._terms.values(), *other._terms.values())):
                    assert got._terms == schoolbook(monomial._terms, other._terms)
    assert len(calls) == products


# Partial sums at one key of short * long, after each term of short.
# long's terms (a, b, c[, d]) step through x^0..x^3 in the first variable
# and short's (s0, s1, s2) through x^0..x^2, each times a fixed monomial of
# the other variables, so the key two steps above both starts sums s0*c,
# then + s1*b, then + s2*a.
I = GaussianRational(Fraction(0), Fraction(1))
PARTIAL_SUMS = {
    # The key cancels after the second term and returns after the third.
    "cancels": ((3, 2, 2, 5), (1, -1, 1), (2, None, 3)),
    # A Fraction partial sum that is integral partway through.
    "fraction": (
        (Fraction(1, 2), Fraction(2, 3), Fraction(1, 3), 5),
        (1, 1, 1),
        (Fraction(1, 3), 1, Fraction(3, 2)),
    ),
    # A Gaussian partial sum that is real partway through.
    "gaussian": ((I, -I, 1 + I, 5), (1, 1, 1), (1 + I, 1, 1 + I)),
}


@pytest.mark.parametrize("names", [("u",), ("u", "v"), ("u", "v", "w")], ids="-".join)
@pytest.mark.parametrize("case", PARTIAL_SUMS)
# offset 0: short's first term is a constant, a zero shift; equal: long
# has as many terms as short.
@pytest.mark.parametrize("offset, equal", [(0, False), (1, False), (0, True), (1, True)])
def test_products_whose_partial_sums_cancel_and_return(names, case, offset, equal, monkeypatch):
    def at(e, rest):
        return (e,) + (rest,) * (len(names) - 1)

    long_coeffs, short_coeffs, partials = PARTIAL_SUMS[case]
    if equal:
        long_coeffs = long_coeffs[:3]
    long = MultiPoly(names, {at(e, 1): c for e, c in enumerate(long_coeffs)})
    short = MultiPoly(names, {at(e + offset, offset): c for e, c in enumerate(short_coeffs)})
    key = at(2 + offset, 1 + offset)
    seen = []
    real = poly._fold_product

    def spy(out, terms, shift, factor):
        real(out, terms, shift, factor)
        seen.append(out.get(key))

    monkeypatch.setattr(poly, "_fold_product", spy)
    got = short * long
    assert seen == list(partials)
    assert [type(c) for c in seen] == [type(c) for c in partials]
    for got in (got, long * short):
        assert got.terms == ref_mul(short.terms, long.terms)
        assert_canonical(got)
        if case == "cancels":
            assert got._terms == schoolbook(short._terms, long._terms)
        assert got._terms[key] == partials[-1]


def test_one_term_products_store_canonical_coefficients():
    x, y = gens("x", "y")
    half_x = x * Fraction(1, 2)
    for got in (half_x * (2 * x), (2 * x) * half_x):
        assert got._terms == {(2, 0): 1}
        assert type(got._terms[(2, 0)]) is int
        assert_canonical(got)
    i = GaussianRational(Fraction(0), Fraction(1))
    got = (x * i) * (y * i)
    assert got._terms == {(1, 1): -1}
    assert type(got._terms[(1, 1)]) is int
    assert_canonical(got)


# -- add_product: x + c*y in one pass over y's terms ---------------------------


@pytest.mark.parametrize("names", [("u",), ("u", "v"), ("u", "v", "w")], ids="-".join)
def test_add_product_matches_the_sum_of_the_product(names):
    rng = random.Random(20261022)
    zero = MultiPoly.zero(names)
    draws = [
        lambda: rng.choice((-1, 1)) * rng.randint(1, 2**70),
        lambda: Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 9)),
        lambda: random_coeff(rng),
    ]
    for draw in draws * 15:
        x, y = (
            MultiPoly(names, {tuple(rng.randint(0, 3) for _ in names): draw() for _ in range(8)})
            for _ in range(2)
        )
        monomial = MultiPoly(names, {tuple(rng.randint(0, 2) for _ in names): draw()})
        many = random_mixed_poly(rng, names)
        for c in (draw(), monomial, many, 1, MultiPoly.one(names), 0, zero):
            for a in (x, zero, -y):
                got = poly.add_product(a, c, y)
                assert got == a + c * y
                assert_canonical(got)
        assert poly.add_product(zero, 1, y) is y
        assert poly.add_product(x, monomial, zero) is x
        # x = z - c*y, so every term of c*y meets one of x's, and each sum
        # either cancels or leaves z's canonical coefficient.
        for c in (draw(), monomial):
            z = random_mixed_poly(rng, names)
            got = poly.add_product(z - c * y, c, y)
            assert got._terms == z._terms
            assert_canonical(got)
    assert poly.add_product(2, 3, 4) == 14


def test_add_product_refuses_mismatched_variables_as_sums_do():
    u, v = gens("u", "v")
    (w,) = gens("w")
    for x, c, y in ((u, 2, w), (w, 2, u), (u + v, w, u), (u, w * w + 1, v)):
        with pytest.raises(ValueError):
            x + c * y
        with pytest.raises(ValueError):
            poly.add_product(x, c, y)


WALKS = {
    "chebyshev": lambda: list(itertools.islice(gcn.unit_powers((-1, 2 * X)), 51)),
    "cubic": lambda: list(itertools.islice(gcn.unit_powers(CubicUnit(U, V).coeffs), 51)),
    "series": lambda: u2_by_series(50),
}


def walk_census(walk, fallback):
    """Folds of a product into a copy of x, of ``+``'s fold and of wide products in ``walk``.

    add_product folds c*y into a copy of a nonzero x, and a product folds
    into an empty map until its second fold, which only a wide product, of
    two operands of more than one term, makes.  With ``fallback`` every
    add_product of the walks is ``x + c * y``.
    """
    counts = dict.fromkeys(("fused", "fold", "wide"), 0)

    def fused(out, *args):
        counts["fused"] += bool(out)
        return real_fold_product(out, *args)

    def fold(*args):
        counts["fold"] += 1
        return real_fold_into(*args)

    def mul(self, other):
        if isinstance(other, MultiPoly) and min(len(self._terms), len(other._terms)) > 1:
            counts["wide"] += 1
        return real_mul(self, other)

    real_fold_product, real_fold_into = poly._fold_product, poly._fold_into
    real_mul = MultiPoly.__mul__
    with pytest.MonkeyPatch.context() as m:
        if fallback:
            for module in (gcn, series):
                m.setattr(module, "add_product", lambda x, c, y: x + c * y)
        m.setattr(poly, "_fold_product", fused)
        m.setattr(poly, "_fold_into", fold)
        m.setattr(MultiPoly, "__mul__", mul)
        m.setattr(MultiPoly, "__rmul__", mul)
        walk()
    return counts


def steps_are_fused(counts):
    # Past its first steps, whose polynomials are constants, each step adds
    # a product into a copy in one pass at least once; no sum folds a
    # product map built first into a copy, and every product has a scalar,
    # constant or one-term operand, so none folds many terms of each side.
    return counts["fused"] >= 48 and counts["fold"] == 0 and counts["wide"] == 0


def test_walk_steps_never_run_the_pair_loop():
    for name, walk in WALKS.items():
        counts = walk_census(walk, fallback=False)
        assert steps_are_fused(counts), (name, counts)
        # The census sees a step that falls back to x + c*y.
        counts = walk_census(walk, fallback=True)
        assert not steps_are_fused(counts), (name, counts)
        assert counts["fused"] == 0 and counts["fold"] >= 48, (name, counts)


@WIDTHS
def test_sums_commute_whichever_side_is_larger(names):
    rng = random.Random(20261021)
    zero = MultiPoly.zero(names)
    for _ in range(60):
        small = random_mixed_poly(rng, names, max_terms=3)
        large = random_mixed_poly(rng, names, max_degree=5, max_terms=20)
        assert large + zero is large and small + zero is small
        for a, b in ((small, large), (large, zero), (small, zero), (large, -small)):
            assert a + b == b + a
            assert (a + b).terms == ref_add(a.terms, b.terms)
            assert_canonical(a + b)
            if (a + b).is_real_valued():
                assert (a + b).render() == (b + a).render()


# -- substitution -------------------------------------------------------------


def test_substitute_edge_cases():
    names = ("x", "y")
    x, y = gens(*names)
    images = {"x": U + 2 * V, "y": U - 1}
    zero = MultiPoly.zero(names).substitute(images)
    assert zero.variables == ("u", "v") and zero.terms == {}
    # A polynomial over no variables needs no images and keeps its value.
    for value in (0, 5, Fraction(-7, 3)):
        got = MultiPoly.constant((), value).substitute({})
        assert got.variables == () and got == MultiPoly.constant((), value)
    # Scalars only: the target is (), and the result is the value there.
    p = x ** 2 * y - 3 * x + Fraction(1, 4)
    point = {"x": Fraction(2, 3), "y": GaussianRational(Fraction(1), Fraction(-2))}
    got = p.substitute(point)
    assert got.variables == ()
    assert got.constant_value() == p.evaluate_exact(point)
    # One-term images relabel every term.
    rng = random.Random(20261019)
    for _ in range(20):
        p = random_mixed_poly(rng, names, max_degree=5, max_terms=8)
        monomials = [
            MultiPoly(("u", "v"), {(rng.randint(0, 3), rng.randint(0, 3)): random_coeff(rng)})
            for _ in names
        ]
        got = p.substitute(dict(zip(names, monomials)))
        assert got.terms == ref_substitute(p.terms, [m.terms for m in monomials], 2)
        assert_canonical(got)
    # Exponent gaps: x^7 + y^3, against the expansion.
    gapped = x ** 7 + y ** 3
    assert gapped.substitute(images) == (U + 2 * V) ** 7 + (U - 1) ** 3
    assert gapped.substitute({"x": U, "y": 0}) == U ** 7


def test_substitute_refusals_keep_their_messages():
    x, y = gens("x", "y")
    with pytest.raises(ValueError, match=r"substitution is missing variables \['y'\]"):
        (x + y).substitute({"x": U})
    with pytest.raises(ValueError, match="substitution values use different variable lists"):
        (x + y).substitute({"x": U, "y": X})


@WIDTHS
def test_substitute_is_a_homomorphism_at_points(names):
    # The right side evaluates the images first and never calls substitute.
    rng = random.Random(20261018)
    for _ in range(40):
        p = random_mixed_poly(rng, names)
        for target in (("s",), ("s", "t"), ("s", "t", "r")):
            images = [random_mixed_poly(rng, target, 2, 3) for _ in names]
            point = {v: random_coeff(rng) for v in target}
            inner = {v: image.evaluate_exact(point) for v, image in zip(names, images)}
            got = p.substitute(dict(zip(names, images))).evaluate_exact(point)
            assert got == p.evaluate_exact(inner)


@WIDTHS
def test_substitute_ignores_the_declared_variable_order(names):
    rng = random.Random(20261020)
    for _ in range(30):
        p = random_mixed_poly(rng, names, max_degree=5, max_terms=8)
        images = dict(zip(names, (random_mixed_poly(rng, ("s", "t"), 2, 3) for _ in names)))
        permuted = list(names)
        rng.shuffle(permuted)
        assert p.aligned(permuted).substitute(images) == p.substitute(images)
        assert p.aligned(names[::-1]).substitute(images) == p.substitute(images)


# H3_18 into three linear (u, v) images, as poly-big substitutes it.
HERMITE_IMAGES = {
    "x": MultiPoly(("u", "v"), {(1, 0): 2, (0, 1): -3, (0, 0): 1}),
    "y": MultiPoly(("u", "v"), {(1, 0): -2, (0, 1): 3, (0, 0): 1}),
    "z": MultiPoly(("u", "v"), {(1, 0): 2, (0, 1): 3, (0, 0): -1}),
}


def _packing(monkeypatch, packs):
    """Every composition of integer polynomials packs (``packs``), or none does."""
    if packs:
        limits = (("_PACKED_TERMS", 0), ("_PACKED_SPARSITY", 10**9), ("_PACKED_BYTES", 10**9))
        for name, value in limits:
            monkeypatch.setattr(poly, name, value)
    else:
        monkeypatch.setattr(poly, "_PACKED_TERMS", 10**9)


def _packed_compositions(monkeypatch):
    """A list that records, for each composition, whether it takes the packed path."""
    packed = []
    real = poly._composition_layout

    def spy(*args):
        layout = real(*args)
        packed.append(layout is not None)
        return layout

    monkeypatch.setattr(poly, "_composition_layout", spy)
    return packed


def test_hermite_substitution_multiplies_only_by_small_images(monkeypatch):
    # Horner's rule multiplies the running sum by one image at each step, so
    # no product has two operands of more than 3 terms; power tables of the
    # images multiply two dense polynomials 37 times.  This is the term
    # path, so packing is refused.
    _packing(monkeypatch, False)
    sizes = []
    real_mul = MultiPoly.__mul__

    def mul(self, other):
        if isinstance(other, MultiPoly):
            sizes.append((len(self._terms), len(other._terms)))
        return real_mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", mul)
    monkeypatch.setattr(MultiPoly, "__rmul__", mul)
    h = hermite3(18).poly
    images = HERMITE_IMAGES
    got = h.substitute(images)
    assert sizes and all(min(pair) <= 3 for pair in sizes), max(map(min, sizes))
    point = {"u": Fraction(2, 7), "v": Fraction(-5, 3)}
    inner = {v: images[v].evaluate_exact(point) for v in XYZ}
    assert got.evaluate_exact(point) == h.evaluate_exact(inner)


def test_hermite_substitution_packs(monkeypatch):
    # By default the same composition is one Horner walk on packed ints: it
    # multiplies no two polynomials and stores the term path's int terms.
    h = hermite3(18).poly
    products = []
    real_mul = MultiPoly.__mul__

    def mul(self, other):
        products.append(other)
        return real_mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", mul)
    monkeypatch.setattr(MultiPoly, "__rmul__", mul)
    packed = _packed_compositions(monkeypatch)
    got = h.substitute(HERMITE_IMAGES)
    assert packed == [True] and not products
    _packing(monkeypatch, False)
    want = h.substitute(HERMITE_IMAGES)
    assert packed == [True, False] and products
    assert got._terms == want._terms and len(got._terms) == 190
    assert all(type(c) is int for c in got._terms.values())


def _image_terms(image, target):
    """The reference's term map of a polynomial or scalar image."""
    if isinstance(image, MultiPoly):
        return image.terms
    return {(0,) * len(target): GaussianRational._coerce(image)} if image else {}


def integer_compositions(names):
    """(p, images) with int coefficients of both signs, over 1, 2 and 3 target variables.

    A draw of 0 drops its term.  Beside random images come a constant, a
    zero and a scalar image, and a sum that cancels to the zero polynomial.
    """
    rng = random.Random(20261021)

    def draw(variables, degree, terms):
        exps = [tuple(rng.randint(0, degree) for _ in variables) for _ in range(terms)]
        return MultiPoly(variables, {e: rng.randint(-9, 9) for e in exps})

    first, last = gens(*names)[0], gens(*names)[-1]
    cases = []
    for target in (("s",), ("s", "t"), ("s", "t", "r")):
        for _ in range(10):
            p = draw(names, 4, rng.randint(1, 8))
            cases.append((p, [draw(target, 2, rng.randint(1, 4)) for _ in names]))
        p, images = cases[-1]
        q = images[0]
        cases.append((p, [MultiPoly.constant(target, -3), *images[1:]]))
        cases.append((p, [MultiPoly.zero(target), *images[1:]]))
        # p(q, ..., q) = 0 and p(-1) = 0: every slot reads 0.
        if len(names) > 1:
            cases.append((p, [*images[:-1], -2]))
            cases.append((p, [q, *[0] * (len(names) - 1)]))
            cases.append((first**2 - last**2 + 3 * first - 3 * last, [q] * len(names)))
        else:
            cases.append((first**2 - 1, [MultiPoly.constant(target, -1)]))
    return cases


@WIDTHS
@pytest.mark.parametrize("packs", [True, False], ids=["packed", "terms"])
def test_integer_compositions_match_the_reference_packed_and_by_terms(names, packs, monkeypatch):
    _packing(monkeypatch, packs)
    packed = _packed_compositions(monkeypatch)
    cases = integer_compositions(names)
    for p, images in cases:
        target = next(image.variables for image in images if isinstance(image, MultiPoly))
        got = p.substitute(dict(zip(names, images)))
        want = ref_substitute(p.terms, [_image_terms(i, target) for i in images], len(target))
        assert got.variables == target
        assert got.terms == want
        assert all(type(c) is int for c in got._terms.values())
    assert packed == [packs] * sum(1 for p, _ in cases if p)


@pytest.mark.parametrize("target", [("s",), ("s", "t"), ("s", "t", "r")], ids="-".join)
def test_a_composition_coefficient_at_the_height_bound_reads_back(target, monkeypatch):
    # p = a*x^2 - b*y at x = -3m and y = -5m^2, m the product of the target
    # variables, is (9a + 5b)*m^2: both terms land on one monomial with the
    # same sign, so the coefficient is the height bound sum |c_e| prod
    # |q_i|_1^e_i.  Its bit length is a multiple of 8, so a slot one bit
    # narrower would lose a byte and could not hold it, whichever its sign.
    _packing(monkeypatch, True)
    reads = []
    real = poly._unpacked

    def spy(packed, sizes, width):
        reads.append(width)
        return real(packed, sizes, width)

    monkeypatch.setattr(poly, "_unpacked", spy)
    m = math.prod(gens(*target))
    x, y = gens("x", "y")
    images = {"x": -3 * m, "y": -5 * m**2}
    for bits in (16, 64, 608):
        height = (1 << bits) - 1
        b = height * 2 % 9 or 9  # 5 * 2 = 1 mod 9
        a = (height - 5 * b) // 9
        assert 9 * a + 5 * b == height and a > 0
        for sign in (1, -1):
            got = (sign * (a * x**2 - b * y)).substitute(images)
            assert got._terms == {(2,) * len(target): sign * height}
    assert reads == [(bits + 8) // 8 for bits in (16, 64, 608) for _ in range(2)]


_H3_6 = hermite3(6).poly


@pytest.mark.parametrize(
    "p, images",
    [
        # A sparse box: 200,001 slots for an estimate of 2 terms.
        pytest.param(X**2 + 1, {"x": MultiPoly(("u",), {(100000,): 1})}, id="sparse-box"),
        # Few terms: a box of 3 slots.
        pytest.param(X * X - X, {"x": U + 1}, id="few-terms"),
        # Tall slots: 168 bytes per term.
        pytest.param(_H3_6, {**HERMITE_IMAGES, "z": U * 10**200 + 1}, id="tall-slots"),
        pytest.param(_H3_6 + Fraction(1, 2), HERMITE_IMAGES, id="fraction-coefficient"),
        pytest.param(
            _H3_6,
            {**HERMITE_IMAGES, "z": U + GaussianRational(Fraction(0), Fraction(1))},
            id="gaussian-image",
        ),
        pytest.param(_H3_6, {"x": 2, "y": Fraction(-1, 3), "z": 5}, id="scalar-images"),
    ],
)
def test_compositions_where_packing_loses_keep_the_term_path(monkeypatch, p, images):
    # Each is refused before any box is laid out or allocated.  H3_6 into
    # the integer images alone packs, so each row refuses for what it names.
    hermite_images = [q._terms for q in HERMITE_IMAGES.values()]
    assert poly._composition_layout(_H3_6._terms, hermite_images, 2)

    def refuse(*_):
        raise AssertionError("a box was laid out")

    for name in ("_strides", "_pack", "_unpacked"):
        monkeypatch.setattr(poly, name, refuse)
    packed = _packed_compositions(monkeypatch)
    got = p.substitute(images)
    assert not any(packed)
    target = next((i.variables for i in images.values() if isinstance(i, MultiPoly)), ())
    terms = [_image_terms(images[v], target) for v in p.variables]
    want = ref_substitute(p.terms, terms, len(target))
    assert got.terms == want


@WIDTHS
def test_packed_product_reads_both_signs_at_its_bound(names, monkeypatch):
    # c times a full box, times +-c times the same box: the central
    # coefficient is +-count * c^2, exactly the bound the slots are sized
    # for.  Its bit length is a multiple of 8, so a slot one bit narrower
    # loses a byte and cannot hold it, whichever its sign.
    side = PACKED_SIDES[len(names)]
    count = side ** len(names)
    reads = []
    real = poly._unpacked

    def spy(packed, sizes, width):
        reads.append(width)
        return real(packed, sizes, width)

    monkeypatch.setattr(poly, "_unpacked", spy)
    for bits in (16, 64, 608):
        c = math.isqrt(((1 << bits) - 1) // count)
        assert (count * c * c).bit_length() == bits
        box = full_box(names, side, lambda e: c)
        for left, right in ((box, -box), (-box, box), (-box, -box), (box, box)):
            got = left * right
            assert got._terms == schoolbook(left._terms, right._terms)
            centre = (side - 1,) * len(names)
            assert abs(got._terms[centre]) == count * c * c
    assert reads == [(bits + 8) // 8 for bits in (16, 64, 608) for _ in range(4)]


def test_slot_reader_returns_each_nonzero_slot_at_its_exponents():
    # Slots hold every value in (-half, half), zeros among them, so the
    # reader must skip exactly the slots that hold 0 and read the rest.
    rng = random.Random(20261020)
    for width in (1, 2, 3, 9):
        half = 1 << (8 * width - 1)
        sizes = [3, 4]
        strides, size = poly._strides(sizes, width)
        for _ in range(20):
            terms = {
                e: rng.choice((1 - half, -1, 1, half - 1, rng.randrange(1 - half, half)))
                for e in itertools.product(range(3), range(4))
                if rng.random() < 0.5
            }
            terms = {e: c for e, c in terms.items() if c}
            assert poly._unpacked(poly._pack(terms, strides, width, size), sizes, width) == terms
    assert poly._unpacked(0, [5], 2) == {}


@pytest.mark.parametrize("width", range(1, 10))
def test_slot_reader_reads_signed_slots_by_cast_and_by_slices(width, monkeypatch):
    # On a little-endian machine slots of 1, 2, 4 and 8 bytes are read
    # through memoryview.cast; with the codes taken away every width is read
    # by byte slices, and both read the same slots.
    rng = random.Random(width)
    half = 1 << (8 * width - 1)
    sizes = [5, 7]
    strides, size = poly._strides(sizes, width)
    casts = []

    def view(data):
        casts.append(width)
        return memoryview(data)

    monkeypatch.setattr(poly, "memoryview", view, raising=False)
    codes = poly._SLOT_CODES
    if sys.byteorder == "little":
        assert (width in codes) == (width in (1, 2, 4, 8))
    edges = [0, 0, 1, -1, half - 1, 1 - half]
    for _ in range(10):
        slots = {
            e: rng.choice(edges + [rng.randrange(1 - half, half)] * 4)
            for e in itertools.product(*map(range, sizes))
        }
        terms = {e: c for e, c in slots.items() if c}
        packed = poly._pack(terms, strides, width, size)
        for path in (codes, {}):
            monkeypatch.setattr(poly, "_SLOT_CODES", path)
            casts.clear()
            assert poly._unpacked(packed, sizes, width) == terms
            assert casts == ([width] if width in path and packed else [])


class _ItemsOnly:
    """A mapping stand-in whose keys are lists, which no dict can hold."""

    def __init__(self, items):
        self._items = items

    def items(self):
        return self._items


def test_constructor_accepts_and_refuses_as_its_checks_say():
    # Tuple keys of int exponents with int coefficients are stored as
    # given; every other term takes the full checks.  Each case is the
    # outcome of those checks: the stored terms or the error raised.
    accepted = [
        (("x",), {(2,): 3, (0,): 0}, {(2,): 3}),
        (("x", "y"), {(1, 0): -7, (0, 2): 10**40}, {(1, 0): -7, (0, 2): 10**40}),
        ((), {(): 5}, {(): 5}),
        (["x"], {(True,): 2}, {(1,): 2}),  # a bool exponent is an int
        (("x",), {(1,): True}, {(1,): 1}),  # so is a bool coefficient
        (("x",), {(1,): Fraction(4, 2)}, {(1,): 2}),
        (("x",), {(1,): Fraction(1, 2)}, {(1,): Fraction(1, 2)}),
        (("x",), {range(1, 2): 3}, {(1,): 3}),
        (("x",), _ItemsOnly([([1], 3), ([0], 0)]), {(1,): 3}),
        (("x",), None, {}),
    ]
    for names, terms, stored in accepted:
        p = MultiPoly(names, terms)
        assert p._terms == stored
        assert all(type(e) is tuple for e in p._terms)
        assert all(type(c) in (int, Fraction) for c in p._terms.values())
    refused = [
        ("xy", {}, TypeError, "variables must be a sequence of names, not a string"),
        (("x", "x"), {}, ValueError, "duplicate variable names"),
        (("x", "y"), {(1,): 1}, ValueError, "does not match 2 variable"),
        (("x",), {(1, 0): 1}, ValueError, "does not match 1 variable"),
        (("x",), {(-1,): 1}, ValueError, "non-negative ints"),
        (("x",), {(1.0,): 1}, ValueError, "non-negative ints"),
        (("x",), {(1,): 1.5}, TypeError, "cannot use float as a coefficient"),
        (("x",), {(1,): "1"}, TypeError, "cannot use str as a coefficient"),
        (("x",), _ItemsOnly([([1, 2], 3)]), ValueError, "does not match 1 variable"),
        (("x",), _ItemsOnly([([-1], 3)]), ValueError, "non-negative ints"),
    ]
    for names, terms, error, message in refused:
        with pytest.raises(error, match=message):
            MultiPoly(names, terms)


def test_canonical_keeps_each_stored_form():
    real = GaussianRational(Fraction(3, 2))
    imaginary = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
    for value, stored in (
        (7, 7),
        (Fraction(6, 3), 2),
        (Fraction(-2, 3), Fraction(-2, 3)),
        (real, Fraction(3, 2)),
        (GaussianRational(4), 4),
        (imaginary, imaginary),
    ):
        got = poly._canonical(value)
        assert (type(got), got) == (type(stored), stored), value
    assert poly._canonical(imaginary) is imaginary


# -- the parser against a reference built from ring operations --------------------


class RefParser:
    """The grammar of ``poly``'s module docstring, each value built by ``MultiPoly``
    ring operations: a generator for each symbol, ``**`` for a power, and ``+``,
    ``-`` and ``*`` as the text spells them."""

    def __init__(self, text, variables):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.variables = variables
        self.generators = {name: MultiPoly.variable(name, variables) for name in variables}

    def fail(self, message, position=None):
        raise PolyParseError(message, self.pos if position is None else position)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail(f"unexpected {self.peek()!r}")
        return value

    def expr(self):
        value = self.term()
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()
            elif ch == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                value = value * self.factor()
            else:
                return value

    def factor(self):
        negative = False
        self.skip_ws()
        while self.peek() == "-":
            negative = not negative
            self.pos += 1
            self.skip_ws()
        value = self.unsigned_factor()
        return -value if negative else value

    def unsigned_factor(self):
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING}")
            self.depth += 1
            self.pos += 1
            value = self.expr()
            self.skip_ws()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            self.depth -= 1
            return value
        if ch.isdecimal():
            return MultiPoly.constant(self.variables, self.rational())
        if ch.isalpha() or ch == "_":
            start = self.pos
            name = self.symbol()
            if name not in self.generators:
                self.fail(f"unknown symbol {name!r}", start)
            value = self.generators[name]
            self.skip_ws()
            if self.peek() == "^":
                self.pos += 1
                return value ** self.uint()
            return value
        self.fail("expected a factor")

    def rational(self):
        numerator = self.uint()
        self.skip_ws()
        denominator = 1
        if self.peek() == "/":
            self.pos += 1
            self.skip_ws()
            at = self.pos
            denominator = self.uint()
            if denominator == 0:
                self.fail("zero denominator", at)
        return Fraction(numerator, denominator)

    def uint(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.fail("expected digits")
        return int(self.text[start : self.pos])

    def symbol(self):
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


_NAMES = (("x",), ("x", "y"), ("u", "v_1", "é"))


def _space(rng):
    return rng.choice(("", "", "", " ", "  ", "\t"))


def _grammar_text(rng, names, depth=0):
    """A text of the grammar: rationals p/q, powers ^0 and up, runs of "-",
    whitespace, and parentheses nested at most 3 deep."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            signs = "-" * rng.choice((0, 0, 0, 1, 2, 3)) + _space(rng)
            kind = rng.random()
            if kind < 0.15 and depth < 3:
                factor = f"({_space(rng)}{_grammar_text(rng, names, depth + 1)}{_space(rng)})"
            elif kind < 0.5:
                factor = str(rng.randint(0, 12))
                if rng.random() < 0.4:
                    factor += f"{_space(rng)}/{_space(rng)}{rng.randint(1, 12)}"
            else:
                factor = rng.choice(names)
                if rng.random() < 0.6:
                    factor += f"{_space(rng)}^{_space(rng)}{rng.randint(0, 4)}"
            factors.append(signs + factor)
        terms.append(f"{_space(rng)}*{_space(rng)}".join(factors))
    text = terms[0]
    for term in terms[1:]:
        text += f"{_space(rng)}{rng.choice('+-')}{_space(rng)}{term}"
    return text


def _parsed_by(parse, text, names):
    """The polynomial ``parse`` reads from ``text``, or its error's words and offset."""
    try:
        return parse(text, names)
    except PolyParseError as exc:
        return str(exc), exc.position


def _ref_parse(text, names):
    return RefParser(text, names).parse()


def test_parser_matches_the_ring_operation_reference():
    rng = random.Random(5001)
    for _ in range(2000):
        names = rng.choice(_NAMES)
        text = _grammar_text(rng, names)
        got = parse_poly(text, names)
        assert got == _ref_parse(text, names), text
        assert_canonical(got)
        assert parse_poly(got.render(), names) == got


def test_parser_refuses_broken_text_as_the_reference_does():
    rng = random.Random(5002)
    refused = 0
    for _ in range(2000):
        names = rng.choice(_NAMES)
        text = _grammar_text(rng, names)
        at = rng.randint(0, len(text))
        edit = rng.random()
        if edit < 0.3:
            text = text[:at]
        elif edit < 0.65:
            text = text[:at] + rng.choice("+-*/^()0 w_x²#") + text[at + 1 :]
        else:
            text = text[:at] + rng.choice("+-*/^()0 w_x²#") + text[at:]
        got = _parsed_by(parse_poly, text, names)
        want = _parsed_by(_ref_parse, text, names)
        assert got == want, text
        if isinstance(got, MultiPoly):
            assert_canonical(got)
        else:
            refused += 1
    assert 500 < refused < 1900  # both outcomes are well exercised
