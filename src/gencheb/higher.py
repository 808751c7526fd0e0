"""Third-order sector: the unit Y^3 = u*Y^2 - v*Y + 1 and its polynomials.

Powers of the cubic unit reduce to Y^n = alpha_n + beta_n*Y + gamma_n*Y^2
with the recurrence (obtained by multiplying by Y and reducing)

    alpha_{n+1} = gamma_n
    beta_{n+1}  = alpha_n - v*gamma_n
    gamma_{n+1} = beta_n + u*gamma_n

which is :func:`gencheb.gcn.unit_powers` of :class:`CubicUnit`, the order-3
:class:`gencheb.gcn.Unit` (1, -v, u); the ``matrix`` route of
:func:`cubic_power` is gcn's ``matrix`` route of ``power_coeffs`` on that
unit, which lifts or packs it where that wins and otherwise raises its 3x3
companion.  gamma_n equals the two-variable Chebyshev polynomial of index
n - 1.
The family U2_n(u, v) is produced by three independent exact routes that all
must agree:

* coefficient extraction from 1 / (1 - u*t + v*t^2 - t^3)
  (U2_{n+1} is the t^n coefficient; the seeds U2_0 = U2_{-1} = 0 are forced
  by that extraction),
* the recurrence U2_{n+2} = u*U2_{n+1} - v*U2_n + U2_{n-1}, which is the
  cubic unit's walk read at U2_n = gamma_{n+1} (written out only in verify),
* the Laplace route: the term c*x^p y^q z^r of the third-order Hermite
  polynomial H3_n becomes c*(-1)^q*(p+q+r)!/n! * u^p v^q, which is the
  substitution (x, y, z) -> (u*s, -v*s, s), the Gamma integral of s^m
  against exp(-s) (m!) and division by n!, one term at a time.

H3_n itself comes from the triple sum
    H3_n(x, y, z) = n! * sum_{p+2q+3r=n} x^p y^q z^r / (p! q! r!)
whose exponential generating function is exp(x*t + y*t^2 + z*t^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Any

from .gcn import Unit, power_coeff_sequence, power_coeffs
from .poly import MultiPoly, gens
from .series import TruncatedSeries

__all__ = [
    "CubicPowerCoeffs",
    "CubicUnit",
    "Hermite3",
    "TwoVarCheb",
    "cubic_power",
    "cubic_power_sequence",
    "hermite3",
    "hermite3_generating_series",
    "u2_by_laplace",
    "u2_by_recurrence",
    "u2_by_series",
    "u2_gens",
]

UV = ("u", "v")
XYZ = ("x", "y", "z")

U, V = gens(*UV)


def u2_gens() -> tuple[MultiPoly, MultiPoly]:
    """The generator polynomials (u, v) shared by this module's outputs."""
    return (U, V)


@dataclass(frozen=True)
class TwoVarCheb:
    n: int
    poly: MultiPoly


@dataclass(frozen=True)
class Hermite3:
    n: int
    poly: MultiPoly


@dataclass(frozen=True)
class CubicPowerCoeffs:
    n: int
    alpha: Any
    beta: Any
    gamma: Any


class CubicUnit(Unit):
    """The relation Y^3 = u*Y^2 - v*Y + 1: the unit (1, -v, u).

    Its ``companion()`` advances the coefficient column (alpha, beta, gamma).
    """

    def __init__(self, u: Any, v: Any):
        super().__init__((1, -v, u))

    u = property(lambda self: self.coeffs[2])
    v = property(lambda self: -self.coeffs[1])


def cubic_power_sequence(u, v, n_max: int) -> list[CubicPowerCoeffs]:
    """Coefficients of Y^0 .. Y^{n_max}: the cubic unit's ``power_coeff_sequence``."""
    powers = power_coeff_sequence(CubicUnit(u, v), n_max)
    return [CubicPowerCoeffs(n, *coeffs) for n, coeffs in enumerate(powers)]


def cubic_power(u, v, n: int, method: str = "reduction") -> CubicPowerCoeffs:
    """Coefficients (alpha_n, beta_n, gamma_n) of Y^n.

    ``reduction`` iterates the coefficient recurrence; ``matrix`` is the
    cubic unit's :func:`gencheb.gcn.power_coeffs` by the companion matrix.
    """
    if method == "reduction":
        return cubic_power_sequence(u, v, n)[-1]
    if method == "matrix":
        return CubicPowerCoeffs(n, *power_coeffs(CubicUnit(u, v), n, "matrix"))
    raise ValueError(f"unknown method {method!r}; expected reduction or matrix")


def u2_by_series(n_max: int) -> list[TwoVarCheb]:
    """[U2_0, ..., U2_{n_max}] from the generating-series inverse."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    denominator = TruncatedSeries(
        UV, [MultiPoly.one(UV), -U, V, -MultiPoly.one(UV)], max(n_max - 1, 3)
    )
    inverse = denominator.inverse()
    out = [TwoVarCheb(0, MultiPoly.zero(UV))]
    for k in range(1, n_max + 1):
        out.append(TwoVarCheb(k, inverse.coefficient(k - 1)))
    return out


def u2_by_recurrence(n_max: int) -> list[TwoVarCheb]:
    """[U2_0, ..., U2_{n_max}], read as gamma_{n+1} off the cubic unit's walk.

    The walk is the third-order recurrence, with seeds U2_{-1} = U2_0 = 0,
    U2_1 = 1 (gamma_0 to gamma_2, the first series values).
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    powers = power_coeff_sequence(CubicUnit(U, V), n_max + 1)[1:]
    return [TwoVarCheb(n, gamma) for n, (_, _, gamma) in enumerate(powers)]


def _hermite3_terms(n: int) -> dict[tuple[int, int, int], int]:
    """H3_n's term map by the exact triple sum: n!/(p! q! r!) at x^p y^q z^r, p + 2q + 3r = n."""
    if n < 0:
        raise ValueError("index must be non-negative")
    terms: dict[tuple[int, int, int], int] = {}
    n_fact = math.factorial(n)
    for r in range(n // 3 + 1):
        for q in range((n - 3 * r) // 2 + 1):
            p = n - 2 * q - 3 * r
            terms[(p, q, r)] = n_fact // math.prod(map(math.factorial, (p, q, r)))
    return terms


def hermite3(n: int) -> Hermite3:
    """Third-order Hermite polynomial by the exact triple sum."""
    return Hermite3(n, MultiPoly(XYZ, _hermite3_terms(n)))


def hermite3_generating_series(order: int) -> TruncatedSeries:
    """exp(x*t + y*t^2 + z*t^3) truncated at t^order, exactly."""
    if order < 3:
        raise ValueError("order must be at least 3")
    x, y, z = gens(*XYZ)
    argument = TruncatedSeries(XYZ, [MultiPoly.zero(XYZ), x, y, z], order)
    return argument.exp()


def u2_by_laplace(n: int) -> TwoVarCheb:
    """U2_{n+1} = (1/n!) * integral over s >= 0 of exp(-s) H3_n(u*s, -v*s, s), exactly.

    The term c*x^p y^q z^r of H3_n, c = n!/(p! q! r!), becomes
    c*(-1)^q*u^p v^q s^m, m = p+q+r, and s^m integrates to m!, so the
    coefficient of u^p v^q is the integer multinomial (-1)^q m!/(p! q! r!).
    As p + 2q + 3r = n, (p, q) fixes r, so no two terms land on one monomial.
    """
    fact = list(accumulate(range(1, n + 1), mul, initial=1))
    terms = {}
    for p, q, r in _hermite3_terms(n):
        c = fact[p + q + r] // (fact[p] * fact[q] * fact[r])
        terms[(p, q)] = -c if q % 2 else c
    return TwoVarCheb(n + 1, MultiPoly(UV, terms))
