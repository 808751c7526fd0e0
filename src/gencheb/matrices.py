"""Dense 2x2 and 3x3 matrices over any exact commutative ring.

Entries only need ``+``, ``-`` and ``*`` among themselves and with ints;
Fraction, GaussianRational and MultiPoly all qualify.  Powers go through
the shared square-and-multiply helper :func:`gencheb.scalars.power`, and
identities are built on :func:`gencheb.scalars.zero_of` of the entries.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def trace(self):
        return self.m11 + self.m22

    def det(self):
        return self.m11 * self.m22 - self.m12 * self.m21

    def entries(self) -> tuple[Any, Any, Any, Any]:
        return (self.m11, self.m12, self.m21, self.m22)


@dataclass(frozen=True)
class Mat3:
    rows: tuple[tuple[Any, Any, Any], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("Mat3 needs a 3x3 entry grid")
        object.__setattr__(self, "rows", rows)

    def identity_like(self) -> "Mat3":
        zero = zero_of(*(entry for row in self.rows for entry in row))
        one = zero + 1
        return Mat3(
            (
                (one, zero, zero),
                (zero, one, zero),
                (zero, zero, one),
            )
        )

    def __add__(self, other: "Mat3") -> "Mat3":
        if not isinstance(other, Mat3):
            return NotImplemented
        return Mat3(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "Mat3") -> "Mat3":
        if not isinstance(other, Mat3):
            return NotImplemented
        return Mat3(
            tuple(
                tuple(a - b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
        )

    def __mul__(self, other: object) -> "Mat3":
        if isinstance(other, Mat3):
            cols = tuple(zip(*other.rows))
            return Mat3(
                tuple(
                    tuple(r0 * c0 + r1 * c1 + r2 * c2 for c0, c1, c2 in cols)
                    for r0, r1, r2 in self.rows
                )
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

    def apply(self, vector: tuple[Any, Any, Any]) -> tuple[Any, Any, Any]:
        v0, v1, v2 = vector
        return tuple(r0 * v0 + r1 * v1 + r2 * v2 for r0, r1, r2 in self.rows)

    def column(self, j: int) -> tuple[Any, Any, Any]:
        return tuple(row[j] for row in self.rows)
