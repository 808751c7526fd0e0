"""Exact scalars: arbitrary-precision rationals and Gaussian rationals.

The rational carrier is :class:`fractions.Fraction` (re-exported as
``BigRational``): it is always reduced to lowest terms, keeps a positive
denominator, and has the canonical zero 0/1.  ``GaussianRational`` layers an
exact imaginary part on top.  It is the entry type of the Gaussian matrices
(purely real values simply carry ``im = 0``); a polynomial stores one only
for a coefficient whose imaginary part is nonzero, and ``int``/``Fraction``
otherwise.

Floats are deliberately rejected everywhere in this module.  Numeric
evaluation happens in the consumers, never in the exact core.

Two ring-generic helpers live here, at the bottom layer, so that every
other type uses them: :func:`power` is the library's one square-and-multiply
loop and :func:`zero_of` the zero of whatever ring some values live in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["BigRational", "GaussianRational", "as_fraction", "power", "zero_of"]

BigRational = Fraction


def as_fraction(value: int | Fraction) -> Fraction:
    """Coerce an exact rational to ``Fraction``; anything inexact is an error."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def power(base, n: int, one):
    """``base`` to the power ``n >= 0`` by square-and-multiply.

    Works in any ring whose elements multiply with ``*``; ``one`` is its
    identity and is what ``n = 0`` returns.  The bits of ``n`` are read
    from the top down, so every multiply is by ``base`` itself, which is
    usually far smaller than the running result.
    """
    if n == 0:
        return one
    result = base
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


def zero_of(*values):
    """The zero of the ring that ``values`` live in.

    Mixed inputs promote as ``+`` does: a Fraction beside a MultiPoly gives
    the zero polynomial, and plain ints give 0.
    """
    return sum(value * 0 for value in values)


@dataclass(frozen=True, slots=True, eq=False)
class GaussianRational:
    """An exact complex number ``re + im*i`` with rational parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", as_fraction(self.re))
        object.__setattr__(self, "im", as_fraction(self.im))

    @staticmethod
    def _coerce(value: object) -> "GaussianRational | None":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        return None

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other: object) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.re == coerced.re and self.im == coerced.im

    def __hash__(self) -> int:
        # Real values hash like their Fraction so 1, Fraction(1) and
        # GaussianRational(1) agree as dict keys.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other: object) -> "GaussianRational":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return GaussianRational(self.re + coerced.re, self.im + coerced.im)

    __radd__ = __add__

    def __sub__(self, other: object) -> "GaussianRational":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return GaussianRational(self.re - coerced.re, self.im - coerced.im)

    def __rsub__(self, other: object) -> "GaussianRational":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: object) -> "GaussianRational":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return GaussianRational(
            self.re * coerced.re - self.im * coerced.im,
            self.re * coerced.im + self.im * coerced.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def squared_norm(self) -> Fraction:
        """``z * conj(z)`` as an exact rational (always real)."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        norm = self.squared_norm()
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        conj = self.conjugate()
        return GaussianRational(conj.re / norm, conj.im / norm)

    def __truediv__(self, other: object) -> "GaussianRational":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self * coerced.inverse()

    def __rtruediv__(self, other: object) -> "GaussianRational":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced * self.inverse()

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            return NotImplemented
        base = self.inverse() if exponent < 0 else self
        return power(base, abs(exponent), GaussianRational(Fraction(1)))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __float__(self) -> float:
        if self.im != 0:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return float(self.re)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        imag = "i" if abs(self.im) == 1 else f"{abs(self.im)}i"
        sign = "-" if self.im < 0 else ("+" if self.re != 0 else "")
        if self.re == 0:
            return f"{sign}{imag}"
        return f"{self.re}{sign if sign else '+'}{imag}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"
