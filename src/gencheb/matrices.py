"""Dense square matrices over any exact commutative ring.

:class:`Mat2` is the 2x2 matrix with named entries; :class:`Mat3`, named for
the cubic companion, is the k x k matrix of any size.  Entries only need
``+``, ``-`` and ``*`` among themselves and with ints; Fraction,
GaussianRational and MultiPoly all qualify.  Powers go through the shared
square-and-multiply helper :func:`gencheb.scalars.power`, and identities are
built on :func:`gencheb.scalars.zero_of` of the entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul, sub
from typing import Any

from .scalars import power, zero_of

__all__ = ["Mat2", "Mat3"]


@dataclass(frozen=True)
class Mat2:
    m11: Any
    m12: Any
    m21: Any
    m22: Any

    def identity_like(self) -> "Mat2":
        zero = zero_of(*self.entries())
        one = zero + 1
        return Mat2(one, zero, zero, one)

    def __add__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.m11 + other.m11,
            self.m12 + other.m12,
            self.m21 + other.m21,
            self.m22 + other.m22,
        )

    def __sub__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.m11 - other.m11,
            self.m12 - other.m12,
            self.m21 - other.m21,
            self.m22 - other.m22,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.m11, -self.m12, -self.m21, -self.m22)

    def __mul__(self, other: object) -> "Mat2":
        if isinstance(other, Mat2):
            return Mat2(
                self.m11 * other.m11 + self.m12 * other.m21,
                self.m11 * other.m12 + self.m12 * other.m22,
                self.m21 * other.m11 + self.m22 * other.m21,
                self.m21 * other.m12 + self.m22 * other.m22,
            )
        return self.scale(other)

    def __rmul__(self, other: object) -> "Mat2":
        return self.scale(other)

    def scale(self, value: object) -> "Mat2":
        return Mat2(
            self.m11 * value,
            self.m12 * value,
            self.m21 * value,
            self.m22 * value,
        )

    def __pow__(self, exponent: int) -> "Mat2":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative matrix powers are not defined here")
        return power(self, exponent, self.identity_like())

    def apply(self, vector: tuple[Any, Any]) -> tuple[Any, Any]:
        v0, v1 = vector
        return (self.m11 * v0 + self.m12 * v1, self.m21 * v0 + self.m22 * v1)

    def det(self):
        return self.m11 * self.m22 - self.m12 * self.m21

    def entries(self) -> tuple[Any, Any, Any, Any]:
        return (self.m11, self.m12, self.m21, self.m22)


def _dot(row: tuple, col: tuple):
    """The sum of row[i] * col[i], started from the first product, not from 0."""
    return sum(map(mul, row[1:], col[1:]), row[0] * col[0])


@dataclass(frozen=True)
class Mat3:
    """A dense k x k matrix for any k >= 1, stored as a tuple of rows."""

    rows: tuple[tuple[Any, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.rows)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ValueError("Mat3 needs a square, nonempty entry grid")
        object.__setattr__(self, "rows", rows)

    def identity_like(self) -> "Mat3":
        zero = zero_of(*(entry for row in self.rows for entry in row))
        one = zero + 1
        k = len(self.rows)
        return Mat3(
            tuple(tuple(one if i == j else zero for j in range(k)) for i in range(k))
        )

    def _entrywise(self, op, other: object) -> "Mat3":
        if not isinstance(other, Mat3):
            return NotImplemented
        return Mat3(
            tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(self.rows, other.rows))
        )

    def __add__(self, other: "Mat3") -> "Mat3":
        return self._entrywise(add, other)

    def __sub__(self, other: "Mat3") -> "Mat3":
        return self._entrywise(sub, other)

    def __mul__(self, other: object) -> "Mat3":
        if isinstance(other, Mat3):
            cols = tuple(zip(*other.rows))
            return Mat3(
                tuple(tuple(_dot(row, col) for col in cols) for row in self.rows)
            )
        return Mat3(
            tuple(tuple(entry * other for entry in row) for row in self.rows)
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Mat3":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative matrix powers are not defined here")
        return power(self, exponent, self.identity_like())

    def apply(self, vector: tuple[Any, ...]) -> tuple[Any, ...]:
        return tuple(_dot(row, vector) for row in self.rows)

    def column(self, j: int) -> tuple[Any, ...]:
        return tuple(row[j] for row in self.rows)
