"""Truncated power series in one formal variable t with polynomial coefficients.

A :class:`TruncatedSeries` of order N holds coefficients c_0..c_N (each a
:class:`MultiPoly` over a shared variable tuple).  It is an element over the
nilpotent unit t^(N+1) = 0, ``gcn.Unit((0,) * (N + 1))``: the quotient ring
R[t]/(t^(N+1)), whose element product drops every power above t^N.  For
N = 1 this is the dual-number unit h^2 = 0.  Like ``Surd`` and
``GcnElement`` it is a view of :class:`gencheb.gcn.Element`, so ``+``,
``-``, ``*``, ``==`` and ``hash`` are the element's; the view adds the
checked constructor, inversion and ``exp``.  The generating-function checks
in this package are all coefficient-extraction exercises on these series.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .gcn import Element, Unit
from .poly import MultiPoly, ScalarLike, add_product

__all__ = ["SingularSeriesError", "TruncatedSeries"]


class SingularSeriesError(ValueError):
    """Raised when inverting a series whose constant term is not a unit."""


class TruncatedSeries(Element):
    """Exact power-series prefix c_0 + c_1 t + ... + c_N t^N."""

    __slots__ = ()

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
        lifted += [MultiPoly.zero(names)] * (order + 1 - len(lifted))
        super().__init__(Unit((0,) * (order + 1)), lifted)

    @classmethod
    def one(cls, variables: Iterable[str], order: int) -> "TruncatedSeries":
        return cls(variables, [1], order)

    @property
    def variables(self) -> tuple[str, ...]:
        return self.coeffs[0].variables

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> MultiPoly:
        if n < 0 or n > self.order:
            raise IndexError(f"coefficient index {n} outside 0..{self.order}")
        return self.coeffs[n]

    def _solve(
        self,
        weights: Sequence[MultiPoly],
        head: ScalarLike,
        scale: Callable[[int], ScalarLike] | None = None,
    ) -> "TruncatedSeries":
        """The series e_0 = head, e_n = scale(n) * (w_n e_0 + ... + w_1 e_{n-1}).

        The sum runs from the highest weight index down, each term one
        :func:`gencheb.poly.add_product`, a pass over e_{n-k}'s terms; the
        first term is e_{n-k} itself when its weight is 1, as the weight of
        t^3 is in the inverse of U2's denominator.  No ``scale`` leaves the
        sum as it is.  U2 read off this inverse still meets two checks that
        take no ``add_product``: ``verify``'s written-out recurrence
        (``series-vs-rec``) and the Laplace route (``series-vs-laplace``).
        """
        terms = [(k, w) for k, w in enumerate(weights) if k and w][::-1]
        zero = MultiPoly.zero(self.variables)
        out = [MultiPoly.constant(self.variables, head)]
        for n in range(1, len(weights)):
            acc = zero
            for k, w in terms:
                if k <= n:
                    acc = add_product(acc, w, out[n - k])
            out.append(acc * scale(n) if scale else acc)
        return self._new(tuple(out))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse modulo t^(order+1).

        Requires the constant coefficient to be a nonzero scalar (a unit of
        the coefficient ring); otherwise raises :class:`SingularSeriesError`.
        Solves c_0 e_n = -(c_1 e_{n-1} + ... + c_n e_0) term by term, with
        the weights -c_k/c_0 formed once.
        """
        head = self.coeffs[0]
        if not head.is_constant() or head.is_zero:
            raise SingularSeriesError(
                "series inverse needs a nonzero scalar constant term, "
                f"got {head!s}"
            )
        inv_head = head.constant_value().inverse()
        return self._solve([c * -inv_head for c in self.coeffs], inv_head)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, exactly truncated.

        E = exp(A) solves E' = A'E, so n e_n = 1 a_1 e_{n-1} + ... + n a_n e_0
        with e_0 = 1.
        """
        if not self.coeffs[0].is_zero:
            raise ValueError("exp needs a zero constant term")
        weights = [c * k for k, c in enumerate(self.coeffs)]
        return self._solve(weights, 1, lambda n: Fraction(1, n))

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            parts.append(f"({c})*t^{n}" if n else f"({c})")
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return (
            f"TruncatedSeries({self.variables!r}, order={self.order}, "
            f"coeffs={[str(c) for c in self.coeffs]!r})"
        )
