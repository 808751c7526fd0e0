"""Truncated power series in one formal variable t with polynomial coefficients.

A :class:`TruncatedSeries` of order N holds coefficients c_0..c_N (each a
:class:`MultiPoly` over a shared variable tuple) and does exact arithmetic
modulo t^(N+1).  The generating-function checks in this package are all
coefficient-extraction exercises on these series.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .poly import MultiPoly, ScalarLike

__all__ = ["SingularSeriesError", "TruncatedSeries"]


class SingularSeriesError(ValueError):
    """Raised when inverting a series whose constant term is not a unit."""


class TruncatedSeries:
    """Exact power-series prefix c_0 + c_1 t + ... + c_N t^N."""

    __slots__ = ("_variables", "_order", "_coeffs")

    def __init__(
        self,
        variables: Iterable[str],
        coeffs: Sequence[MultiPoly | ScalarLike],
        order: int | None = None,
    ):
        names = tuple(variables)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("series order must be non-negative")
        lifted: list[MultiPoly] = []
        for c in coeffs[: order + 1]:
            if isinstance(c, MultiPoly):
                if c.variables != names:
                    raise ValueError(
                        f"coefficient variables {c.variables} != {names}"
                    )
                lifted.append(c)
            else:
                lifted.append(MultiPoly.constant(names, c))
        while len(lifted) < order + 1:
            lifted.append(MultiPoly.zero(names))
        self._variables = names
        self._order = order
        self._coeffs = tuple(lifted)

    @classmethod
    def zero(cls, variables: Iterable[str], order: int) -> "TruncatedSeries":
        return cls(variables, [], order)

    @classmethod
    def one(cls, variables: Iterable[str], order: int) -> "TruncatedSeries":
        return cls(variables, [1], order)

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    @property
    def order(self) -> int:
        return self._order

    def coefficient(self, n: int) -> MultiPoly:
        if n < 0 or n > self._order:
            raise IndexError(f"coefficient index {n} outside 0..{self._order}")
        return self._coeffs[n]

    def coefficients(self) -> tuple[MultiPoly, ...]:
        return self._coeffs

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self._variables != other._variables:
            raise ValueError("series variables differ")
        if self._order != other._order:
            raise ValueError(
                f"series orders differ ({self._order} vs {other._order})"
            )

    def _lift(self, other: object) -> "TruncatedSeries | None":
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            return other
        if isinstance(other, (int, Fraction)) or isinstance(other, MultiPoly):
            return TruncatedSeries(self._variables, [other], self._order)
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self._variables == other._variables
            and self._order == other._order
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self._variables, self._order, self._coeffs))

    def __add__(self, other: object) -> "TruncatedSeries":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return TruncatedSeries(
            self._variables,
            [a + b for a, b in zip(self._coeffs, rhs._coeffs)],
            self._order,
        )

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(
            self._variables, [-c for c in self._coeffs], self._order
        )

    def __sub__(self, other: object) -> "TruncatedSeries":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "TruncatedSeries":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: object) -> "TruncatedSeries":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        zero = MultiPoly.zero(self._variables)
        out = [zero] * (self._order + 1)
        for i, a in enumerate(self._coeffs):
            if a.is_zero:
                continue
            for j in range(self._order + 1 - i):
                b = rhs._coeffs[j]
                if b.is_zero:
                    continue
                out[i + j] = out[i + j] + a * b
        return TruncatedSeries(self._variables, out, self._order)

    __rmul__ = __mul__

    def scale(self, value: ScalarLike) -> "TruncatedSeries":
        return TruncatedSeries(
            self._variables, [c * value for c in self._coeffs], self._order
        )

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse modulo t^(order+1).

        Requires the constant coefficient to be a nonzero scalar (a unit of
        the coefficient ring); otherwise raises :class:`SingularSeriesError`.
        """
        head = self._coeffs[0]
        if not head.is_constant() or head.is_zero:
            raise SingularSeriesError(
                "series inverse needs a nonzero scalar constant term, "
                f"got {head!s}"
            )
        inv_head = head.constant_value().inverse()
        out = [MultiPoly.constant(self._variables, inv_head)]
        for n in range(1, self._order + 1):
            acc = MultiPoly.zero(self._variables)
            for k in range(1, n + 1):
                sk = self._coeffs[k]
                if sk.is_zero:
                    continue
                acc = acc + sk * out[n - k]
            out.append(acc * (-inv_head))
        return TruncatedSeries(self._variables, out, self._order)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, exactly truncated."""
        if not self._coeffs[0].is_zero:
            raise ValueError("exp needs a zero constant term")
        acc = TruncatedSeries.one(self._variables, self._order)
        power = TruncatedSeries.one(self._variables, self._order)
        for k in range(1, self._order + 1):
            power = (power * self).scale(Fraction(1, k))
            acc = acc + power
        return acc

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self._coeffs):
            if c.is_zero:
                continue
            parts.append(f"({c})*t^{n}" if n else f"({c})")
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return (
            f"TruncatedSeries({self._variables!r}, order={self._order}, "
            f"coeffs={[str(c) for c in self._coeffs]!r})"
        )
