"""Generalized complex units, their elements and their power coefficients.

A unit of order k is the relation h^k = c_0 + c_1*h + ... + c_{k-1}*h^{k-1}
(:class:`Unit`).  Its elements x_0 + x_1*h + ... + x_{k-1}*h^{k-1} form the
quotient ring R[h]/(h^k - c_{k-1}*h^{k-1} - ... - c_0) (:class:`Element`),
and its companion matrix advances the coefficient column of h^n to that of
h^{n+1}.  The paper's unit h^2 = a + b*h is :class:`GcnUnit`, with the view
x + y*h :class:`GcnElement`; the surd p + q*sqrt(delta) is the view
:class:`Surd` over the unit (delta, 0); the cubic unit of
:mod:`gencheb.higher` is (1, -v, u); a power series truncated after t^N
(:mod:`gencheb.series`) is an element over the nilpotent unit t^(N+1) = 0.
Views add names, not arithmetic.

Powers h^n = a_n + b_n*h of a unit (a, b) are computed three ways and must
always agree:

* recurrence            h^n in the quotient ring, by squaring
* companion matrix      ``unit.companion() ** n``, powers of [[0, a], [1, b]]
                        by squaring; its first column is (a_n, b_n)
* root closed form      through the conjugate roots h± = (b ± sqrt(D))/2
                        with D = b^2 + 4a:
                            b_n = (h+^n - h-^n) / (h+ - h-)
                            a_n = (h+ * h-^n - h- * h+^n) / (h+ - h-)

Both recurrence forms are written once, for a unit of any order.
:func:`unit_powers` is the walk: its step ``_times_h`` multiplies h^n by h,
shifting the coefficients up and feeding the top one back through the unit.
Readers of a whole sequence use it through ``power_coeff_sequence``, the
one list reader for every order (behind ``verify.suite_gcn`` and the cubic
unit's sequences in :mod:`gencheb.higher`); the tests read the Chebyshev
pairs of :mod:`gencheb.cheby` against it.
:func:`unit_power` is one h^n on its own, the element h raised by squaring
(Fiduccia, SIAM J. Comput. 14, 1985) in O(k^2 log n) scalar products
instead of the walk's O(k n); it is the ``recurrence`` route of
``power_coeffs`` and, for a matrix of polynomials, the closed form of the
matrix powers of :mod:`gencheb.pauli`.  A unit of real exact scalars (int,
Fraction, or GaussianRational with no imaginary part) is raised on integer
numerators.  With d the lcm of its denominators, g = d*h is the root of a
unit with integer coefficients (Gaussian integers for pauli's units).  x_i
of h^w is homogeneous of weight w - i when c_j has weight k - j, so with
K = lcm(1..k) and L = lcm_j d_j^(K/(k-j)) the element G = L*h^K has integer
coefficients as well.  Every exact power, pauli's included, is read off one
lift, ``_lift``: h^n = G^m h^r / L^m (m = n // K, r = n % K) over the
denominator L^m d^(k-1+r-i) that its integers need, so none carries the
excess (d^K/L)^m that raising g would.  Each route gives the lift its own
kernel, so the routes still check one another.  Each takes g's int unit, d,
K and L, and hands the lift d^(k-1)*G^m in its own ring with the ring's
step x -> x*g for the r steps; gcn's build nothing at m = 0, where they
return the ring's one, d^(k-1).  ``recurrence`` multiplies with
``_product``, the product of every :class:`Element`, and ``matrix`` with
the companion's; each divides its one product exactly by d^(k-1) and builds
with it its start (L/d^K)*(d^(k-1)*g)^K.  ``binet`` raises G's root.  The
int kernels step by the walk's ``_times_h``; :mod:`gencheb.pauli`
multiplies Gaussian int 4-tuples of its own.  ``_lifted_power`` builds each
coefficient once, in the walk's own type, with no gcd taken with its
denominator.

A unit of integer polynomials over one variable tuple, with ints or
Fractions of denominator 1 beside them, rides the same lift as one packed
int unit (Kronecker substitution; Harvey, J. Symb. Comp. 44, 2009):
:func:`gencheb.poly.packed_unit_power` evaluates each c_j at
x_v = 256^(W*stride_v), so that every monomial of a box has a slot of W
bytes, ``_packed_power`` raises that int unit through ``_lift`` with the
route's own kernel and d = 1, and each x_i is read back from its slots.
Evaluation at a power of 256 is a ring homomorphism, so only h^n's own
coefficients must fit, and no intermediate value can spoil them.  The
layout is predicted from the unit and n alone.  The box has
floor(n * max_j deg_v(c_j)/(k - j)) + 1 slots for variable v: by induction
on the walk x'_i = x_{i-1} + c_i*x_{k-1}, x_i of h^n has degree at most
(n - i) * max_j deg_v(c_j)/(k - j).  A slot holds the height
max_i x_i(N^n), N = (|c_0|_1, ..., |c_{k-1}|_1) the norm unit, with a sign
bit to spare: along the same walk the triangle inequality and
|pq|_1 <= |p|_1 |q|_1 bound |x_i|_1 of h^n by x_i(N^n), and a coefficient
by its polynomial's |.|_1.  A predicate on the layout, in :mod:`gencheb.poly`,
keeps the Element path where packing loses: where x_i can have fewer than
10 terms (a box of fewer than 10 slots among them), where the box is
sparse, and where the box spends more than 48 bytes per term, as tall
slots do for (-10^40, 2x).  The routes still check one another through
their kernels, and the walk, which never packs, is the tests' reference.
Every other unit, with an imaginary part or other polynomial
coefficients, is raised as an :class:`Element`, and its companion as a
matrix of its scalars.  On bivariate polynomial coefficients such as the
cubic unit's the walk wins over the Element even for one power: each of
its steps multiplies by the small unit coefficients, while a squaring
multiplies two large ones.

The exact closed form needs a rational unit.  G = L*h^2 = L*a + L*b*h is
the root of the integer unit (-N, T) with T = L(b^2 + 2a) and N = (L*a)^2,
whose root G+ = (T + sqrt(E))/2, E = T^2 - 4N, is held as the int pair
(P, Q) of (P + Q*sqrt(E))/2.  Each product is halved with ``>> 1``, exactly
and with no gcd, because G+ is an algebraic integer; G^m = P/2 + Q*sqrt(E)/2
then gives y_1 = Q and y_0 = (P - T*Q)/2 identically, with no division by
G+ - G-, so the form stays valid when D = 0.  The floating closed form, of h^n and of every
other function of the unit, is :func:`at_roots`.  The recurrence and matrix
routes are ring-generic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from operator import add, mul, neg
from typing import Any, Iterator, Sequence

from .matrices import Mat2, Mat3
from .poly import MultiPoly, add_product, packed_unit_power
from .scalars import _kind, _stripped, _triple, power, zero_of

__all__ = [
    "ConjugateRoots",
    "Element",
    "GcnElement",
    "GcnUnit",
    "Surd",
    "Unit",
    "UnitMismatchError",
    "at_roots",
    "conjugate_roots",
    "float_unit",
    "power_coeff_sequence",
    "power_coeffs",
    "unit_power",
    "unit_powers",
]

POWER_METHODS = ("recurrence", "matrix", "binet", "binet_float")


class UnitMismatchError(ValueError):
    """Raised when combining elements over different units."""


@dataclass(frozen=True, eq=False)
class Unit:
    """The relation h^k = c_0 + c_1*h + ... + c_{k-1}*h^{k-1}, as (c_0, ..., c_{k-1}).

    Units of any type, views included, are equal when their coefficients are.
    """

    coeffs: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("a unit needs at least one coefficient")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Unit) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def companion(self) -> Mat2 | Mat3:
        """The matrix advancing the coefficient column of h^n to that of h^{n+1}.

        Row i has 1 left of the diagonal and c_i last; it is a k x k
        :class:`Mat3`, seen as a :class:`Mat2` for k = 2.
        """
        k = len(self.coeffs)
        zero = zero_of(*self.coeffs)
        rows = [[zero] * (k - 1) + [c] for c in self.coeffs]
        for i in range(1, k):
            rows[i][i - 1] = zero + 1
        return Mat2(*rows[0], *rows[1]) if k == 2 else Mat3(rows)


class GcnUnit(Unit):
    """The defining pair (a, b) of the relation h^2 = a + b*h."""

    def __init__(self, a: Any, b: Any):
        super().__init__((a, b))

    a = property(lambda self: self.coeffs[0])
    b = property(lambda self: self.coeffs[1])

    @property
    def discriminant(self):
        return self.b * self.b + 4 * self.a


def _product(xs: tuple, ys: tuple, unit: tuple) -> tuple:
    """The coefficients of (sum x_i h^i)(sum y_j h^j), reduced by the unit (c_0, ..., c_{k-1}).

    Each term t*h^m with m >= k is folded back, top down, through
    h^m = h^{m-k} * h^k, which adds c_i*t*h^{m-k+i}.  Every coefficient
    starts from its first term, never from an added zero, and the fold
    skips the unit's zero coefficients, so no time goes to adding zeros or
    multiplying by them; on polynomial coefficients each such step is a
    pass over a polynomial.  A square (``xs is ys``) takes each cross
    product x_i*x_j, i < j, once, as 2x_i times x_j: k(k+1)/2 coefficient
    products instead of k^2.
    """
    k = len(xs)
    if xs is ys:
        full = _square_terms(xs)
    else:
        full = list(map(mul, repeat(xs[0]), ys))
        y_init, y_last = ys[:-1], ys[-1]
        for i in range(1, k):
            x = xs[i]
            m = i
            for y in y_init:
                full[m] += x * y
                m += 1
            full.append(x * y_last)
    for m in range(k - 2, -1, -1):
        top = full.pop()
        for i, c in enumerate(unit, m):
            if c:
                full[i] += c * top
    return tuple(full)


def _square_terms(xs: tuple) -> list:
    """The 2k - 1 coefficients of (sum x_i h^i)^2, before the unit's fold.

    Row i puts x_i^2 and each 2x_i*x_j, j > i, at h^(2i) .. h^(i+k-1),
    adding to a place that a row above started and starting the others.
    """
    full = []
    for i, x in enumerate(xs):
        row = [x * x, *map(mul, repeat(x + x), xs[i + 1 :])]
        for m, z in enumerate(row, 2 * i):
            if m < len(full):
                full[m] += z
            else:
                full.append(z)
    return full


@dataclass(eq=False, slots=True)
class Element:
    """x_0 + x_1*h + ... + x_{k-1}*h^{k-1} over a unit of order k, as (x_0, ..., x_{k-1}).

    The other operand of ``+``, ``-`` and ``*`` is an element over the same
    unit or a scalar, on either side; results keep the element's type, so a
    view stays a view.  An element whose higher coefficients are all zero
    equals, and hashes like, its constant coefficient, over any unit.
    """

    unit: Unit
    coeffs: tuple

    def __post_init__(self) -> None:
        self.coeffs = tuple(self.coeffs)
        if len(self.coeffs) != len(self.unit.coeffs):
            raise ValueError("an element has one coefficient per power of h below h^k")

    def _new(self, coeffs: tuple) -> "Element":
        out = object.__new__(type(self))
        out.unit = self.unit
        out.coeffs = coeffs
        return out

    def _coeffs_of(self, other: object) -> tuple | None:
        """The coefficients of an element over this unit; None for a scalar."""
        if not isinstance(other, Element):
            return None
        if other.unit is not self.unit and other.unit != self.unit:
            raise UnitMismatchError(
                f"elements use different units {self.unit} and {other.unit}"
            )
        return other.coeffs

    def __add__(self, other: object) -> "Element":
        ys = self._coeffs_of(other)
        if ys is None:
            return self._new((self.coeffs[0] + other, *self.coeffs[1:]))
        return self._new(tuple(map(add, self.coeffs, ys)))

    __radd__ = __add__

    def __sub__(self, other: object) -> "Element":
        return self + -other

    def __rsub__(self, other: object) -> "Element":
        return -self + other

    def __neg__(self) -> "Element":
        return self._new(tuple(map(neg, self.coeffs)))

    def __mul__(self, other: object) -> "Element":
        ys = self._coeffs_of(other)
        if ys is None:
            return self._new(tuple(x * other for x in self.coeffs))
        return self._new(_product(self.coeffs, ys, self.unit.coeffs))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Element":
        if not isinstance(exponent, int):
            return NotImplemented
        if not exponent:
            zero = zero_of(*self.unit.coeffs, *self.coeffs)
            return self._new((zero + 1,) + (zero,) * (len(self.coeffs) - 1))
        return power(self, exponent, None)

    def conjugate(self) -> "Element":
        """x + y*h' for x + y*h, where h' = b - h is the other root of h^2 = a + b*h."""
        if len(self.coeffs) != 2:
            raise ValueError("conjugation is defined for units of order 2 only")
        x, y = self.coeffs
        return self._new((x + self.unit.coeffs[1] * y, -y))

    def _constant(self):
        """x_0 when every higher coefficient is zero, else None."""
        return None if any(self.coeffs[1:]) else self.coeffs[0]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Element) and self.unit == other.unit:
            return self.coeffs == other.coeffs
        # Against an element over another unit, ``constant == other`` falls
        # back to ``other == constant``: equal only if both are that constant.
        constant = self._constant()
        return constant is not None and constant == other

    def __hash__(self) -> int:
        constant = self._constant()
        return hash((self.unit, self.coeffs) if constant is None else constant)


class GcnElement(Element):
    """Element x + y*h over a unit (a, b), with re = x and im = y."""

    __slots__ = ()

    def __init__(self, unit: GcnUnit, re: Any, im: Any):
        super().__init__(unit, (re, im))

    re = property(lambda self: self.coeffs[0])
    im = property(lambda self: self.coeffs[1])


def unit_powers(coeffs: Sequence[Any]) -> Iterator[tuple[Any, ...]]:
    """Power coefficients of the unit h^k = c_0 + c_1*h + ... + c_{k-1}*h^{k-1}.

    ``coeffs`` is (c_0, ..., c_{k-1}).  The n-th tuple yielded is
    (x_0, ..., x_{k-1}) with h^n = x_0 + x_1*h + ... + x_{k-1}*h^{k-1}, and
    :func:`_times_h` steps to the next.  The sequence is endless; callers slice it.
    """
    zero = zero_of(*coeffs)
    powers = (zero + 1,) + (zero,) * (len(coeffs) - 1)
    while True:
        yield powers
        powers = _times_h(powers, coeffs)


def _times_h(xs: Sequence[Any], coeffs: Sequence[Any]) -> tuple[Any, ...]:
    """h times sum x_i h^i: x_0' = c_0*x_{k-1} and x_i' = x_{i-1} + c_i*x_{k-1}.

    On polynomials each x_i' is one :func:`gencheb.poly.add_product`, one
    pass over x_{k-1}'s terms; scalars, the int kernels' among them, take
    ``+`` and ``*`` with no call per coefficient.
    """
    top = xs[-1]
    if isinstance(top, MultiPoly):
        return (coeffs[0] * top, *map(add_product, xs, coeffs[1:], repeat(top)))
    return (coeffs[0] * top, *[x + c * top for x, c in zip(xs, coeffs[1:])])


def unit_power(coeffs: Sequence[Any], n: int) -> tuple[Any, ...]:
    """The n-th tuple of :func:`unit_powers`, as the element h of ``Unit(coeffs)`` to the n.

    Each product multiplies two k-tuples and reduces the top k - 1
    coefficients, so h^n costs O(k^2 log n) scalar products instead of the
    O(k n) of the walk.  A unit of real exact scalars (int, Fraction, or
    GaussianRational with no imaginary part) is raised on integer
    numerators, through :func:`_element_lift` and :func:`_lifted_power`,
    and its result has the walk's type: int for an int unit, Fraction for a
    rational one and GaussianRational otherwise.  A unit of integer
    polynomials is raised packed, through :func:`_packed_power`, where its
    layout says packing wins.  Any other unit, one with an imaginary part
    or a polynomial coefficient, is raised as an :class:`Element`.
    """
    triples = _real_triples(coeffs)
    if triples is not None:  # an empty unit is refused below
        return _lifted_power(triples, n, _kind(coeffs), _element_lift)
    packed = _packed_power(coeffs, n, _element_lift)
    if packed is not None:
        return packed
    unit = Unit(coeffs)
    h = unit.companion().column(0)  # the column of h^1; it is c_0 for k = 1
    return (Element(unit, h) ** n).coeffs


def _exact_triples(coeffs: Sequence[Any]) -> list | None:
    """The (p, q, d) of each coefficient of a unit of exact scalars, else None."""
    triples = [_triple(c) for c in coeffs]
    return triples if triples and None not in triples else None


def _real_triples(values: Sequence[Any]) -> list | None:
    """The (p, 0, d) of each value if all are exact real scalars, else None.

    A GaussianRational with no imaginary part is as real as a Fraction.
    """
    triples = _exact_triples(values)
    return None if triples is None or any(q for _, q, _ in triples) else triples


def _integer_unit(triples: list) -> tuple[int, list]:
    """(d, scaled) for the unit of exact scalars (p_i + q_i*i)/d_i.

    With d the lcm of the d_i, g = d*h is the root of the unit
    g^k = sum c_i d^(k-i) g^i; ``scaled`` holds those Gaussian-integer
    coefficients as (p, q) int pairs.  For k = 1, g = d*c_0.
    """
    k = len(triples)
    d = math.lcm(*[d_i for _, _, d_i in triples])
    scaled = []
    for i, (p, q, d_i) in enumerate(triples):
        scale = d // d_i * d ** (k - 1 - i)
        scaled.append((p * scale, q * scale))
    return d, scaled


def _lifted_power(triples: list, n: int, kind: type, kernel) -> tuple:
    """h^n for a unit of real exact scalars: :func:`_lift`, then each x_i stripped.

    Every prime of each denominator divides d, so :func:`scalars._stripped`
    reduces each x_i with small gcds only, against d and then the square of
    each factor it divides out, and builds it once as a ``kind``.
    """
    ys, d, scale, e = _lift(triples, n, kernel)
    return tuple(
        _stripped(kind, p, 0, scale * d ** (e - i), d) for i, p in enumerate(ys)
    )


def _lift(triples: list, n: int, kernel) -> tuple:
    """(ys, d, scale, e) with x_i of h^n = ys[i] / (scale * d^(e-i)), unreduced.

    ``kernel((scaled, d, K, L), m)`` gets g = d*h's int unit
    (:func:`_integer_unit`) and returns d^(k-1)*G^m, G = L*h^K, in its own
    ring over the g-basis (at m = 0 the ring's one) with the step x -> x*g.
    G is integral: a prime p divides the denominator of x_i of h^w at most
    (w - i) * max_j v_p(d_j)/(k-j) times.  Times g^r over L^m d^(k-1+r): h^n.
    """
    k = len(triples)
    d, scaled = _integer_unit(triples)
    order_lcm = math.lcm(*range(1, k + 1))
    m, r = divmod(n, order_lcm)
    top = math.lcm(*(d_j ** (order_lcm // (k - j)) for j, (_, _, d_j) in enumerate(triples)))
    ys, step = kernel((scaled, d, order_lcm, top), m)
    for _ in range(r):
        ys = step(ys)
    return ys, d, top ** m, k - 1 + r


def _element_lift(lift: tuple, m: int) -> tuple:
    """d^(k-1)*G^m by :func:`power` with :func:`_product`: the ``recurrence`` kernel.

    Each product is divided exactly by e = d^(k-1); the start (L/d^K)*e*g^K
    raises the element e*g^k, read off g's int unit, to K/k.
    """
    scaled, d, order_lcm, top = lift
    unit = tuple(p for p, _ in scaled)
    e = d ** (len(unit) - 1)
    step = lambda ys: _times_h(ys, unit)
    if not m:
        return [e] + [0] * (len(unit) - 1), step
    product = lambda x, y: [z // e for z in _product(x, y, unit)]
    g_k = power([c * e for c in unit], order_lcm // len(unit), None, product)
    return power([x * top // d ** order_lcm for x in g_k], m, None, product), step


def _companion_lift(lift: tuple, m: int) -> tuple:
    """d^(k-1)*G^m as the first column of A^m, A = L*C^K / d^(K-k+1): the ``matrix`` kernel.

    C is the companion of g's int unit; A = (L/d^K)*(e*C)^K is e = d^(k-1)
    times G's matrix in the g-basis.  Each product is divided by e, exactly.
    """
    scaled, d, order_lcm, top = lift
    unit = tuple(p for p, _ in scaled)
    e = d ** (len(unit) - 1)
    step = lambda ys: _times_h(ys, unit)
    if not m:
        return [e] + [0] * (len(unit) - 1), step

    def rescaled(a: Mat3, num: int, den: int) -> Mat3:
        return a._new(tuple([tuple([x * num // den for x in row]) for row in a.rows]))

    product = lambda x, y: rescaled(x * y, 1, e)
    c_k = power(rescaled(Unit(unit).companion(), e, 1), order_lcm, None, product)
    return power(rescaled(c_k, top, d ** order_lcm), m, None, product).column(0), step


def _companion_power(unit: Unit, n: int) -> tuple[Any, ...]:
    """The first column of ``unit.companion() ** n``: the ``matrix`` route."""
    triples = _real_triples(unit.coeffs)
    if triples is not None:
        return _lifted_power(triples, n, _kind(unit.coeffs), _companion_lift)
    packed = _packed_power(unit.coeffs, n, _companion_lift)
    return (unit.companion() ** n).column(0) if packed is None else packed


def _packed_power(coeffs: Sequence[Any], n: int, kernel) -> tuple | None:
    """h^n of a unit of integer polynomials through :func:`_lift` on packed ints, else None.

    :func:`poly.packed_unit_power` packs the unit and reads h^n back; each
    int unit it raises, d = 1, goes through the lift with ``kernel``.
    """
    lift = lambda ints: _lift([(c, 0, 1) for c in ints], n, kernel)[0]
    return packed_unit_power(coeffs, n, lift)


class Surd(Element):
    """Exact element p + q*sqrt(delta): the element view over the unit (delta, 0)."""

    __slots__ = ()

    def __init__(self, p: Any, q: Any, delta: Any):
        super().__init__(Unit((delta, 0)), (p, q))

    p = property(lambda self: self.coeffs[0])
    q = property(lambda self: self.coeffs[1])
    delta = property(lambda self: self.unit.coeffs[0])

    def numeric(self) -> float | complex:
        """The nearest float to the value; complex when delta < 0.

        The value is rounded once from exact rationals, so no float
        subtraction cancels; for delta < 0 the real part p and the
        imaginary part q*sqrt(-delta) are each rounded.  Only a value beyond
        the float range is refused; its parts may lie beyond it.
        """
        p, q, delta = map(_real, (self.p, self.q, self.delta))
        try:
            if delta >= 0:
                return _rounded_surd(p, q, delta)
            return complex(float(p), _rounded_surd(Fraction(0), q, -delta))
        except OverflowError:
            raise ValueError("the surd lies beyond the float range") from None

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p)
        try:
            negative = self.q < 0
        except TypeError:
            negative = False
        sign, q = ("-", -self.q) if negative else ("+", self.q)
        return f"{self.p} {sign} {q}*sqrt({self.delta})"


def _real(value: Any) -> Fraction:
    """An exact real scalar as a Fraction; TypeError for anything else."""
    triples = _real_triples((value,))
    if triples is None:
        raise TypeError(f"a numeric surd needs real rational parts, not {value}")
    p, _, d = triples[0]
    return Fraction(p, d)


def _rounded_surd(p: Fraction, q: Fraction, delta: Fraction) -> float:
    """The nearest float to p + q*sqrt(delta), for delta >= 0.

    sqrt(delta) = sqrt(m)/d with m = n*d for delta = n/d.  A rational root
    is exact; otherwise s = isqrt(m * 4^k) brackets sqrt(m) * 2^k in
    [s, s + 1), so the value lies between two rationals over one
    denominator, and k doubles until both round to the same float.  Int
    true division rounds correctly and rounding is monotone, so that float
    is the value's.  An irrational value is no float and no midpoint of
    two, so the loop ends.
    """
    d = delta.denominator
    m = delta.numerator * d
    root = math.isqrt(m)
    if root * root == m:
        return float(p + q * Fraction(root, d))
    a, b = p.numerator, p.denominator
    c, e = q.numerator, q.denominator
    k = 64
    while True:
        s = math.isqrt(m << (2 * k))
        base = (a * e * d << k) + c * b * s
        denominator = b * e * d << k
        low = base / denominator
        if low == (base + c * b) / denominator:
            return low
        k *= 2


@dataclass(frozen=True)
class ConjugateRoots:
    """The two roots h± = (b ± sqrt(b^2 + 4a))/2 of the defining quadratic."""

    unit: GcnUnit
    h_plus: Surd
    h_minus: Surd
    degenerate: bool

    def numeric(self) -> tuple[float | complex, float | complex]:
        refusal = "numeric roots need a rational scalar unit; the exact roots hold for {} units too"
        _rational_unit(self.unit, refusal)
        return (self.h_plus.numeric(), self.h_minus.numeric())


def conjugate_roots(unit: GcnUnit) -> ConjugateRoots:
    """Roots of h^2 = a + b*h as exact surds over the unit's ring.

    Works for rational and polynomial-valued units alike; use ``.numeric()``
    for floating values (scalar units only).
    """
    delta = unit.discriminant
    half = Fraction(1, 2)
    p = unit.b * half
    return ConjugateRoots(
        unit,
        Surd(p, half, delta),
        Surd(p, -half, delta),
        delta == 0,
    )


def _rational_unit(unit: GcnUnit, refusal: str) -> list:
    """The (p, 0, d) of a rational unit's coefficients, else TypeError(``refusal``).

    ``refusal`` names the unit at ``{}``: complex, or polynomial-valued."""
    triples = _real_triples(unit.coeffs)
    if triples is None:
        exact = _exact_triples(unit.coeffs) is not None
        raise TypeError(refusal.format("complex" if exact else "polynomial-valued"))
    return triples


def _binet_exact(unit: GcnUnit, n: int) -> tuple[Fraction, Fraction]:
    """h^n through :func:`_binet_lift` and :func:`_lifted_power`: the ``binet`` route."""
    refusal = "this method needs a rational scalar unit; use 'recurrence' or 'matrix' for {} units"
    return _lifted_power(_rational_unit(unit, refusal), n, Fraction, _binet_lift)


def _binet_lift(lift: tuple, m: int) -> tuple:
    """d*G^m through the root G+ = (T + sqrt(E))/2 of G = L*h^2: the ``binet`` kernel.

    L*a = L*c_0/d^2 and L*b = L*c_1/d are read off g's int unit (c_0, c_1).
    G+ is held as the int pair (P, Q) of (P + Q*sqrt(E))/2, and a product of
    two pairs is ((P1 P2 + Q1 Q2 E)/2, (P1 Q2 + Q1 P2)/2).  Both halvings are
    exact: each power is s + t*G+, so P = 2s + t*T = Q*T modulo 2, and
    E = T^2 modulo 4.  With G^m = y_0 + y_1*G, d*G^m is
    d*(y_0 + y_1*L*a) + y_1*L*b*g.  The cross term is taken as
    (P1 + Q1)(P2 + Q2) - P1 P2 - Q1 Q2, so a squaring costs three large
    products, not four.
    """
    ((c0, _), (c1, _)), d, _, top = lift
    step = lambda ys: _times_h(ys, (c0, c1))
    if not m:
        return [d, 0], step
    la, lb = top * c0 // (d * d), top * c1 // d
    t = lb * c1 // d + 2 * la  # L*b^2 = lb*c_1/d, an integer as d_b^2 divides L
    e = t * t - 4 * la * la

    def surd_product(x: tuple, y: tuple) -> tuple:
        (p1, q1), (p2, q2) = x, y
        pp, qq = p1 * p2, q1 * q2
        return (pp + qq * e) >> 1, ((p1 + q1) * (p2 + q2) - pp - qq) >> 1

    p, q = power((t, 1), m, None, surd_product)
    return [d * (((p - t * q) >> 1) + q * la), q * lb], step


def float_unit(unit: GcnUnit) -> tuple[float, float]:
    """The unit (a, b) as floats, for the floating closed forms."""
    try:
        return float(unit.a), float(unit.b)
    except OverflowError:
        raise ValueError("the unit lies beyond the float range") from None
    except (TypeError, ValueError) as exc:
        raise TypeError("a floating closed form needs a real scalar unit") from exc


def at_roots(unit: GcnUnit, f, df) -> tuple[float, float]:
    """The floats (C, S) with f(h) = C + S*h; ``df`` is the derivative of f.

    Distinct roots h± give S = (f(h+) - f(h-))/(h+ - h-) and
    C = (h+ f(h-) - h- f(h+))/(h+ - h-).  A double root r, decided exactly,
    or roots no float tells apart, give S = f'(r) and C = f(r) - r f'(r).
    Overflow and a non-finite C or S raise ValueError.
    """
    a, b = float_unit(unit)
    try:
        sq = 0.0 if unit.discriminant == 0 else cmath.sqrt(b * b + 4 * a)
        h_plus, h_minus = (b + sq) / 2, (b - sq) / 2
        if h_plus == h_minus:
            s = df(h_plus)
            c = f(h_plus) - h_plus * s
        else:
            f_plus, f_minus = f(h_plus), f(h_minus)
            width = h_plus - h_minus  # makes S exactly 1 for f(z) = z
            s = (f_plus - f_minus) / width
            c = (h_plus * f_minus - h_minus * f_plus) / width
    except OverflowError as exc:
        raise ValueError("the closed form overflows a float") from exc
    if not (cmath.isfinite(c) and cmath.isfinite(s)):
        raise ValueError("the closed form is not finite in floating point")
    return (c.real, s.real)


def power_coeffs(unit: GcnUnit, n: int, method: str = "recurrence"):
    """The pair (a_n, b_n) with h^n = a_n + b_n*h.

    ``method`` is one of ``recurrence``, ``matrix``, ``binet`` (exact surd
    arithmetic, rational units only) or ``binet_float`` (:func:`at_roots`
    with f(z) = z^n, flagged by its float return type).  ``recurrence`` and
    ``matrix`` take a :class:`Unit` of any order, such as the cubic unit of
    :mod:`gencheb.higher`, and return its k coefficients of h^n.
    """
    if n < 0:
        raise ValueError("power index must be non-negative")
    if method == "recurrence":
        return unit_power(unit.coeffs, n)
    if method == "matrix":
        return _companion_power(unit, n)
    if method == "binet":
        return _binet_exact(unit, n)
    if method == "binet_float":
        if n == 0:  # n * z**(n - 1) divides by zero at the double root of (0, 0)
            return (1.0, 0.0)
        return at_roots(unit, lambda z: z ** n, lambda z: n * z ** (n - 1))
    raise ValueError(f"unknown method {method!r}; expected one of {POWER_METHODS}")


def power_coeff_sequence(unit: Unit, n_max: int) -> list[tuple]:
    """The coefficient tuples of h^0 .. h^{n_max}, by the walk, at any order."""
    if n_max < 0:
        raise ValueError("power index must be non-negative")
    return list(islice(unit_powers(unit.coeffs), n_max + 1))
