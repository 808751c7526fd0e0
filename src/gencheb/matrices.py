"""Dense square matrices over any exact commutative ring.

:class:`Mat3`, named for the cubic companion, is the k x k matrix of any size
and has all the arithmetic; :class:`Mat2` is its 2x2 view with named entries
and a determinant.  Results keep the operand's type, and a scalar operand of
``+`` or ``-``, on either side, is that multiple of the identity.  Entries
only need ``+``, ``-`` and ``*`` among themselves and with ints; Fraction,
GaussianRational and MultiPoly all qualify.  Powers go through the library's
one square-and-multiply loop :func:`gencheb.scalars.power`, and identities
are built on :func:`gencheb.scalars.zero_of` of the entries.  A 2x2 matrix
times itself is squared as [[a^2 + bc, b(a+d)], [c(a+d), d^2 + bc]], with 5
entry products instead of 8; this needs the entries to commute.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add, mul, neg, sub
from typing import Any

from .scalars import power, zero_of

__all__ = ["Mat2", "Mat3"]


def _dot(row: tuple, col: tuple):
    """The sum of row[i] * col[i], started from the first product, not from 0."""
    return sum(map(mul, row[1:], col[1:]), row[0] * col[0])


@dataclass(frozen=True, eq=False)
class Mat3:
    """A dense k x k matrix for any k >= 1, stored as a tuple of rows.

    Matrices of any type are equal, and hash alike, when their rows are.
    """

    rows: tuple[tuple[Any, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.rows)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ValueError("Mat3 needs a square, nonempty entry grid")
        object.__setattr__(self, "rows", rows)

    def _new(self, rows: tuple) -> "Mat3":
        """A matrix of this one's type over the square ``rows``, unchecked."""
        out = object.__new__(type(self))
        object.__setattr__(out, "rows", rows)
        return out

    def _check_size(self, j: int, other: str = "a {j}x{j} matrix") -> None:
        k = len(self.rows)
        if j != k:
            raise ValueError(
                f"a {k}x{k} matrix does not combine with {other.format(j=j)}"
            )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mat3) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def identity_like(self) -> "Mat3":
        k, zero = len(self.rows), zero_of(*chain.from_iterable(self.rows))
        return self._new(((zero,) * k,) * k) + 1

    def _entrywise(self, op, other: object) -> "Mat3":
        if not isinstance(other, Mat3):  # a scalar: only the diagonal moves
            indexed = enumerate(self.rows)
            return self._new(
                tuple(r[:i] + (op(r[i], other),) + r[i + 1 :] for i, r in indexed)
            )
        self._check_size(len(other.rows))
        pairs = zip(self.rows, other.rows)
        return self._new(tuple([tuple(map(op, r1, r2)) for r1, r2 in pairs]))

    def __add__(self, other: object) -> "Mat3":
        return self._entrywise(add, other)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Mat3":
        return self._entrywise(sub, other)

    def __rsub__(self, other: object) -> "Mat3":
        return -self + other

    def __neg__(self) -> "Mat3":
        return self._new(tuple(tuple(map(neg, row)) for row in self.rows))

    def __mul__(self, other: object) -> "Mat3":
        if not isinstance(other, Mat3):
            return self._new(tuple([tuple([x * other for x in r]) for r in self.rows]))
        self._check_size(len(other.rows))
        if other is self and len(self.rows) == 2:  # a square: 5 entry products, not 8
            (a, b), (c, d) = self.rows
            bc, trace = b * c, a + d
            return self._new(((a * a + bc, b * trace), (c * trace, d * d + bc)))
        cols = tuple(zip(*other.rows))
        return self._new(tuple([tuple([_dot(r, c) for c in cols]) for r in self.rows]))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Mat3":
        if not isinstance(exponent, int):
            return NotImplemented
        if not exponent:
            return self.identity_like()
        return power(self, exponent, None)

    def apply(self, vector: tuple[Any, ...]) -> tuple[Any, ...]:
        self._check_size(len(vector), "a vector of length {j}")
        return tuple(_dot(row, vector) for row in self.rows)

    def column(self, j: int) -> tuple[Any, ...]:
        return tuple(row[j] for row in self.rows)


class Mat2(Mat3):
    """The 2x2 view of :class:`Mat3`, with named entries [[m11, m12], [m21, m22]]."""

    def __init__(self, m11: Any, m12: Any, m21: Any, m22: Any):
        # Four named entries are a square grid: Mat3's check is skipped.
        object.__setattr__(self, "rows", ((m11, m12), (m21, m22)))

    m11 = property(lambda self: self.rows[0][0])
    m12 = property(lambda self: self.rows[0][1])
    m21 = property(lambda self: self.rows[1][0])
    m22 = property(lambda self: self.rows[1][1])

    def det(self):
        return self.m11 * self.m22 - self.m12 * self.m21

    def entries(self) -> tuple[Any, Any, Any, Any]:
        return (*self.rows[0], *self.rows[1])
