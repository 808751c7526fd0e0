"""Generalized complex units h^2 = a + b*h and their power coefficients.

A unit is the scalar pair (a, b); elements x + y*h multiply by reducing
h^2 back to a + b*h.  Powers h^n = a_n + b_n*h are computed three ways and
must always agree:

* recurrence            h^n in the quotient ring R[h]/(h^2 - b*h - a), by
                        squaring: each product of two pairs is reduced
                        through h^2 = a + b*h
* companion matrix      powers of [[0, a], [1, b]] by squaring; the first
                        column of the n-th power is (a_n, b_n)
* root closed form      through the conjugate roots h± = (b ± sqrt(D))/2
                        with D = b^2 + 4a:
                            b_n = (h+^n - h-^n) / (h+ - h-)
                            a_n = (h+ * h-^n - h- * h+^n) / (h+ - h-)

Both recurrence forms are written once, for a unit of any order k,
h^k = c_0 + ... + c_{k-1}*h^{k-1}.  The generator :func:`unit_powers` is the
walk a_{n+1} = a*b_n, b_{n+1} = a_n + b*b_n (seeds a_0 = 1, b_0 = 0): it
multiplies h^n by h, shifting the coefficients up one place and feeding the
top one back through the unit.  Readers of a whole sequence use it:
``power_coeff_sequence`` (and so ``verify.suite_gcn``) with (a, b) and the
cubic unit of :mod:`gencheb.higher` with (1, -v, u).  :func:`unit_power` is
one h^n on its own, reduced by squaring (Fiduccia, SIAM J. Comput. 14,
1985) in O(k^2 log n) scalar products instead of the walk's O(k n); it is
the ``recurrence`` route of ``power_coeffs`` and the closed form of the
matrix powers of :mod:`gencheb.pauli` with (-det M, 2*alpha).  A sequence
reader needs every term, and on bivariate polynomial coefficients such as
the cubic unit's the walk wins even for one power: each of its steps
multiplies by the small unit coefficients, while a squaring multiplies two
large ones.

The closed form is evaluated exactly in the quadratic extension Q[sqrt(D)]
(class :class:`Surd`), which remains valid when D = 0: writing
h^n = p_n + q_n*sqrt(D) gives b_n = 2*q_n and a_n = p_n - b*q_n identically,
with no division by h+ - h-.  The floating closed form, of h^n and of every
other function of the unit, is :func:`at_roots`.

The scalars a and b may be Fractions or polynomials; the recurrence and
matrix routes are ring-generic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Any, Iterator, Sequence

from .matrices import Mat2
from .scalars import power, zero_of

__all__ = [
    "ConjugateRoots",
    "GcnElement",
    "GcnUnit",
    "Surd",
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


@dataclass(frozen=True)
class GcnUnit:
    """The defining pair (a, b) of the relation h^2 = a + b*h."""

    a: Any
    b: Any

    @property
    def discriminant(self):
        return self.b * self.b + 4 * self.a

    @property
    def is_degenerate(self) -> bool:
        return self.discriminant == 0


@dataclass(frozen=True)
class GcnElement:
    """Element x + y*h over a fixed unit, stored as the pair (x, y)."""

    unit: GcnUnit
    re: Any
    im: Any

    def _require_same_unit(self, other: "GcnElement") -> None:
        if self.unit != other.unit:
            raise UnitMismatchError(
                f"elements use different units {self.unit} and {other.unit}"
            )

    def __add__(self, other: "GcnElement") -> "GcnElement":
        if not isinstance(other, GcnElement):
            return NotImplemented
        self._require_same_unit(other)
        return GcnElement(self.unit, self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GcnElement") -> "GcnElement":
        if not isinstance(other, GcnElement):
            return NotImplemented
        self._require_same_unit(other)
        return GcnElement(self.unit, self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GcnElement") -> "GcnElement":
        if not isinstance(other, GcnElement):
            return NotImplemented
        self._require_same_unit(other)
        a, b = self.unit.a, self.unit.b
        x0, x1 = self.re, self.im
        y0, y1 = other.re, other.im
        cross = x1 * y1
        return GcnElement(
            self.unit,
            x0 * y0 + a * cross,
            x0 * y1 + x1 * y0 + b * cross,
        )

    def __pow__(self, exponent: int) -> "GcnElement":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative element powers are out of scope")
        zero = zero_of(self.unit.a, self.unit.b)
        return power(self, exponent, GcnElement(self.unit, zero + 1, zero))


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


class _Residue:
    """x_0 + ... + x_{k-1}*h^{k-1} modulo h^k = c_0 + ... + c_{k-1}*h^{k-1}."""

    __slots__ = ("coeffs", "zero", "xs")

    def __init__(self, coeffs: Sequence[Any], zero: Any, full: list[Any]):
        # Fold each x_m*h^m with m >= k back through h^m = h^{m-k} * h^k.
        k = len(coeffs)
        for m in range(len(full) - 1, k - 1, -1):
            top = full[m]
            for i, c in enumerate(coeffs):
                full[m - k + i] += c * top
        self.coeffs = coeffs
        self.zero = zero
        self.xs = tuple(full[:k])

    def __mul__(self, other: "_Residue") -> "_Residue":
        full = [self.zero] * (2 * len(self.coeffs) - 1)
        for i, x in enumerate(self.xs):
            for j, y in enumerate(other.xs):
                full[i + j] += x * y
        return _Residue(self.coeffs, self.zero, full)


def unit_power(coeffs: Sequence[Any], n: int) -> tuple[Any, ...]:
    """The n-th tuple of :func:`unit_powers`, by squaring in R[h]/(h^k - ... - c_0).

    Each product multiplies two k-tuples and reduces the top k - 1
    coefficients, so h^n costs O(k^2 log n) scalar products instead of the
    O(k n) of the walk.
    """
    if n < 0:
        raise ValueError("power index must be non-negative")
    k = len(coeffs)
    zero = zero_of(*coeffs)
    h = _Residue(coeffs, zero, [zero, zero + 1] + [zero] * (k - 2))  # (c_0,) if k = 1
    one = _Residue(coeffs, zero, [zero + 1] + [zero] * (k - 1))
    return power(h, n, one).xs


def companion_matrix(unit: GcnUnit) -> Mat2:
    """The matrix [[0, a], [1, b]] advancing (a_n, b_n) to (a_{n+1}, b_{n+1})."""
    zero = zero_of(unit.a, unit.b)
    return Mat2(zero, unit.a, zero + 1, unit.b)


def companion_power(unit: GcnUnit, n: int) -> Mat2:
    """n-th power of the companion matrix, by exponentiation by squaring."""
    if n < 0:
        raise ValueError("power index must be non-negative")
    return companion_matrix(unit) ** n


@dataclass(frozen=True)
class Surd:
    """Exact element p + q*sqrt(delta) of a fixed quadratic extension."""

    p: Any
    q: Any
    delta: Any

    def _check(self, other: "Surd") -> None:
        if self.delta != other.delta:
            raise ValueError("surds live in different quadratic extensions")

    def __add__(self, other: object) -> "Surd":
        if isinstance(other, Surd):
            self._check(other)
            return Surd(self.p + other.p, self.q + other.q, self.delta)
        return Surd(self.p + other, self.q, self.delta)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Surd":
        if isinstance(other, Surd):
            self._check(other)
            return Surd(self.p - other.p, self.q - other.q, self.delta)
        return Surd(self.p - other, self.q, self.delta)

    def __neg__(self) -> "Surd":
        return Surd(-self.p, -self.q, self.delta)

    def __mul__(self, other: object) -> "Surd":
        if isinstance(other, Surd):
            self._check(other)
            return Surd(
                self.p * other.p + self.q * other.q * self.delta,
                self.p * other.q + self.q * other.p,
                self.delta,
            )
        return Surd(self.p * other, self.q * other, self.delta)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Surd":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative surd powers are not needed here")
        zero = zero_of(self.p, self.q)
        return power(self, exponent, Surd(zero + 1, zero, self.delta))

    def conjugate(self) -> "Surd":
        return Surd(self.p, -self.q, self.delta)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Surd):
            if self.p != other.p or self.q != other.q:
                return False
            return self.delta == other.delta or (self.q == 0 and other.q == 0)
        # Scalar comparison: only radical-free surds equal plain scalars.
        return self.q == 0 and self.p == other

    def __hash__(self) -> int:
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.delta))

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


def _require_rational_unit(unit: GcnUnit) -> tuple[Fraction, Fraction]:
    if not isinstance(unit.a, (int, Fraction)) or not isinstance(
        unit.b, (int, Fraction)
    ):
        raise TypeError(
            "this method needs a rational scalar unit; use 'recurrence' or "
            "'matrix' for polynomial-valued units"
        )
    return Fraction(unit.a), Fraction(unit.b)


def _binet_exact(unit: GcnUnit, n: int) -> tuple[Fraction, Fraction]:
    _, b = _require_rational_unit(unit)
    root_n = conjugate_roots(unit).h_plus ** n
    b_n = 2 * root_n.q
    a_n = root_n.p - b * root_n.q
    return (a_n, b_n)


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
        return unit_power((unit.a, unit.b), n)
    if method == "matrix":
        matrix = companion_power(unit, n)
        return (matrix.m11, matrix.m21)
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
    return list(islice(unit_powers((unit.a, unit.b)), n_max + 1))
