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
* companion matrix      powers of [[0, a], [1, b]] by squaring; the first
                        column of the n-th power is (a_n, b_n)
* root closed form      through the conjugate roots h± = (b ± sqrt(D))/2
                        with D = b^2 + 4a:
                            b_n = (h+^n - h-^n) / (h+ - h-)
                            a_n = (h+ * h-^n - h- * h+^n) / (h+ - h-)

Both recurrence forms are written once, for a unit of any order.
:func:`unit_powers` is the walk: it multiplies h^n by h, shifting the
coefficients up one place and feeding the top one back through the unit.
Readers of a whole sequence use it: ``power_coeff_sequence`` (and so
``verify.suite_gcn``), ``cheby.cheb_AB`` and the cubic unit.
:func:`unit_power` is one h^n on its own, the element h raised by squaring
(Fiduccia, SIAM J. Comput. 14, 1985) in O(k^2 log n) scalar products
instead of the walk's O(k n); it is the ``recurrence`` route of
``power_coeffs`` and the closed form of the matrix powers of
:mod:`gencheb.pauli`.  On bivariate polynomial coefficients such as the
cubic unit's the walk wins even for one power: each of its steps multiplies
by the small unit coefficients, while a squaring multiplies two large ones.

The closed form is evaluated exactly over the unit (D, 0), which remains
valid when D = 0: writing h^n = p_n + q_n*sqrt(D) gives b_n = 2*q_n and
a_n = p_n - b*q_n identically, with no division by h+ - h-.  The floating
closed form, of h^n and of every other function of the unit, is
:func:`at_roots`.  The recurrence and matrix routes are ring-generic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice, repeat
from operator import add, mul, neg
from typing import Any, Iterator, Sequence

from .matrices import Mat2, Mat3
from .scalars import power, zero_of

__all__ = [
    "ConjugateRoots",
    "Element",
    "GcnElement",
    "GcnUnit",
    "Surd",
    "Unit",
    "UnitMismatchError",
    "at_roots",
    "companion_matrix",
    "companion_power",
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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Unit) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @cached_property
    def _fold(self) -> tuple:
        """The nonzero (i, c_i): reducing h^m, m >= k, adds c_i*h^{m-k+i}."""
        return tuple((i, c) for i, c in enumerate(self.coeffs) if c != 0)

    def companion(self) -> Mat2 | Mat3:
        """The matrix advancing the coefficient column of h^n to that of h^{n+1}.

        Row i has 1 left of the diagonal and c_i last; it is a k x k
        :class:`Mat3`, seen as a :class:`Mat2` for k = 2.
        """
        k = len(self.coeffs)
        zero = zero_of(*self.coeffs)
        one = zero + 1
        rows = tuple(
            tuple(one if j == i - 1 else zero for j in range(k - 1)) + (c,)
            for i, c in enumerate(self.coeffs)
        )
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

    @property
    def is_degenerate(self) -> bool:
        return self.discriminant == 0


def _product(xs: tuple, ys: tuple, fold: tuple) -> tuple:
    """The coefficients of (sum x_i h^i)(sum y_j h^j), reduced through ``fold``.

    Each x_m*h^m with m >= k is folded back, top down, through
    h^m = h^{m-k} * h^k.  Every coefficient starts from its first term,
    never from an added zero, and the fold skips the unit's zero
    coefficients, so no time goes to adding zeros or multiplying by them;
    on polynomial coefficients each such step is a pass over a polynomial.
    """
    k = len(xs)
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
        for i, c in fold:
            full[m + i] += c * top
    return tuple(full)


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
        return self._new(_product(self.coeffs, ys, self.unit._fold))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Element":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative element powers are out of scope")
        zero = zero_of(*self.unit.coeffs, *self.coeffs)
        one = (zero + 1,) + (zero,) * (len(self.coeffs) - 1)
        return power(self, exponent, self._new(one))

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
    (x_0, ..., x_{k-1}) with h^n = x_0 + x_1*h + ... + x_{k-1}*h^{k-1}; the
    next one is x_0' = c_0*x_{k-1} and x_i' = x_{i-1} + c_i*x_{k-1}.  The
    sequence is endless; callers slice it.
    """
    c_0, *c_rest = coeffs
    zero = zero_of(*coeffs)
    powers = (zero + 1,) + (zero,) * len(c_rest)
    while True:
        yield powers
        top = powers[-1]
        powers = (c_0 * top, *[x + c * top for x, c in zip(powers, c_rest)])


def unit_power(coeffs: Sequence[Any], n: int) -> tuple[Any, ...]:
    """The n-th tuple of :func:`unit_powers`, as the element h of ``Unit(coeffs)`` to the n.

    Each product multiplies two k-tuples and reduces the top k - 1
    coefficients, so h^n costs O(k^2 log n) scalar products instead of the
    O(k n) of the walk.
    """
    if n < 0:
        raise ValueError("power index must be non-negative")
    unit = Unit(coeffs)
    zero = zero_of(*coeffs)
    one = (zero + 1,) + (zero,) * (len(coeffs) - 1)
    h = (zero,) + one[:-1] if len(coeffs) > 1 else unit.coeffs  # h = c_0 if k = 1
    return power(Element(unit, h), n, Element(unit, one)).coeffs


def companion_matrix(unit: GcnUnit) -> Mat2:
    """The matrix [[0, a], [1, b]] advancing (a_n, b_n) to (a_{n+1}, b_{n+1})."""
    return unit.companion()


def companion_power(unit: GcnUnit, n: int) -> Mat2:
    """n-th power of the companion matrix, by exponentiation by squaring."""
    return unit.companion() ** n


class Surd(Element):
    """Exact element p + q*sqrt(delta): the element view over the unit (delta, 0)."""

    __slots__ = ()

    def __init__(self, p: Any, q: Any, delta: Any):
        super().__init__(Unit((delta, 0)), (p, q))

    p = property(lambda self: self.coeffs[0])
    q = property(lambda self: self.coeffs[1])
    delta = property(lambda self: self.unit.coeffs[0])

    def numeric(self) -> float | complex:
        """Floating value; complex when delta < 0."""
        try:
            p, q, d = float(self.p), float(self.q), float(self.delta)
        except OverflowError:
            raise ValueError("the surd lies beyond the float range") from None
        if d >= 0:
            return p + q * math.sqrt(d)
        return complex(p, q * math.sqrt(-d))

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p)
        try:
            negative = self.q < 0
        except TypeError:
            negative = False
        sign, q = ("-", -self.q) if negative else ("+", self.q)
        return f"{self.p} {sign} {q}*sqrt({self.delta})"


@dataclass(frozen=True)
class ConjugateRoots:
    """The two roots h± = (b ± sqrt(b^2 + 4a))/2 of the defining quadratic."""

    unit: GcnUnit
    h_plus: Surd
    h_minus: Surd
    degenerate: bool

    def numeric(self) -> tuple[float | complex, float | complex]:
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


def _binet_exact(unit: GcnUnit, n: int) -> tuple[Fraction, Fraction]:
    if not all(isinstance(c, (int, Fraction)) for c in unit.coeffs):
        raise TypeError(
            "this method needs a rational scalar unit; use 'recurrence' or "
            "'matrix' for polynomial-valued units"
        )
    root_n = conjugate_roots(unit).h_plus ** n
    return (root_n.p - unit.b * root_n.q, 2 * root_n.q)


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
    with f(z) = z^n, flagged by its float return type).
    """
    if n < 0:
        raise ValueError("power index must be non-negative")
    if method == "recurrence":
        return unit_power(unit.coeffs, n)
    if method == "matrix":
        return companion_power(unit, n).column(0)
    if method == "binet":
        return _binet_exact(unit, n)
    if method == "binet_float":
        if n == 0:  # n * z**(n - 1) divides by zero at the double root of (0, 0)
            return (1.0, 0.0)
        return at_roots(unit, lambda z: z ** n, lambda z: n * z ** (n - 1))
    raise ValueError(f"unknown method {method!r}; expected one of {POWER_METHODS}")


def power_coeff_sequence(unit: GcnUnit, n_max: int) -> list[tuple[Any, Any]]:
    """[(a_0, b_0), ..., (a_{n_max}, b_{n_max})] by the recurrence."""
    if n_max < 0:
        raise ValueError("power index must be non-negative")
    return list(islice(unit_powers(unit.coeffs), n_max + 1))
