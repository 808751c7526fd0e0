"""Exact one-variable Chebyshev machinery built on the unit H^2 = 2x*H - 1.

The unit's power coefficients H^n = A_n + H*B_n coincide with second-kind
Chebyshev polynomials: B_n = U_{n-1} and A_n = -U_{n-2} once U is extended
backward with U_{-1} = 0, U_{-2} = -1.  First-kind polynomials come from
T_n = A_n + x*B_n.  All identities here are checked in exact polynomial
arithmetic.

``cheb_AB``, ``cheb_U`` and ``cheb_T`` build U_m from its explicit
coefficients, U_m = sum_k (-1)^k C(m-k, k) (2x)^(m-2k) (Mason and Handscomb,
*Chebyshev Polynomials*, ch. 2), one exact small-by-big integer step per
term and no polynomial product, held in a memo of fixed size.  The walk
:func:`gencheb.gcn.unit_powers` over the unit is the tests' reference, and
the three-term recurrence U_{n+1} = 2x*U_n - U_{n-1} is written out only in
:func:`gencheb.verify.suite_cheb`, as the reference independent of both.
The companion identity reads ``cheb_unit().companion() ** (n + 1)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import gcn
from .poly import MultiPoly, add_product

__all__ = [
    "ChebCoeffPair",
    "ChebPoly",
    "X",
    "b_ode_residual",
    "cheb_AB",
    "cheb_T",
    "cheb_U",
    "cheb_unit",
    "ode_apply",
    "u_ode_residual",
]

_XVARS = ("x",)
X = MultiPoly.variable("x", _XVARS)

_CHEB_UNIT = gcn.GcnUnit(MultiPoly.constant(_XVARS, -1), 2 * X)


@dataclass(frozen=True)
class ChebPoly:
    kind: str  # "first" or "second"
    n: int
    poly: MultiPoly


@dataclass(frozen=True)
class ChebCoeffPair:
    """The pair (A_n, B_n) with H^n = A_n + H*B_n."""

    n: int
    a: MultiPoly
    b: MultiPoly


def cheb_unit() -> gcn.GcnUnit:
    """The fixed unit (a, b) = (-1, 2x) over polynomials in x.

    ``cheb_unit().companion() ** (n + 1)`` = [[-U_{n-1}, -U_n], [U_n, U_{n+1}]]
    entry by entry; determinant 1 gives U_n^2 - U_{n-1} U_{n+1} = 1.
    """
    return _CHEB_UNIT


# Enough for every U_m of ``verify all --nmax 96``; older ones are rebuilt.
_U_MEMO_SIZE = 128


@functools.lru_cache(maxsize=_U_MEMO_SIZE)
def _u(m: int) -> MultiPoly:
    """U_m from its explicit coefficients, for m >= -2 (U_{-1} = 0, U_{-2} = -1).

    c_0 = 2^m is the coefficient of x^m, and the coefficient of x^(m-2k-2) is
    c_{k+1} = -c_k (m-2k)(m-2k-1) / (4(k+1)(m-k)), an exact division.
    """
    if m < 0:
        return MultiPoly.constant(_XVARS, -1 if m == -2 else 0)
    c = 1 << m
    terms = {(m,): c}
    for k in range(m // 2):
        c = -c * (m - 2 * k) * (m - 2 * k - 1) // (4 * (k + 1) * (m - k))
        terms[(m - 2 * k - 2,)] = c
    return MultiPoly(_XVARS, terms)


def _ab(n: int) -> tuple[MultiPoly, MultiPoly]:
    """(A_n, B_n) = (-U_{n-2}, U_{n-1})."""
    if n < 0:
        raise ValueError("index must be non-negative")
    return -_u(n - 2), _u(n - 1)


def cheb_U(n: int) -> ChebPoly:
    """Second-kind Chebyshev polynomial U_n = B_{n+1} (U_0 = 1, U_1 = 2x)."""
    if n < 0:
        raise ValueError("index must be non-negative")
    return ChebPoly("second", n, _u(n))


def cheb_AB(n: int) -> ChebCoeffPair:
    """(A_n, B_n), the power coefficients H^n = A_n + H*B_n of the unit (-1, 2x)."""
    return ChebCoeffPair(n, *_ab(n))


def cheb_T(n: int) -> ChebPoly:
    """First-kind Chebyshev polynomial T_n = A_n + x*B_n."""
    a_n, b_n = _ab(n)
    return ChebPoly("first", n, add_product(a_n, X, b_n))


def ode_apply(poly: MultiPoly, constant) -> MultiPoly:
    """Apply (1 - x^2) d^2/dx^2 - 3x d/dx + constant to a polynomial in x."""
    d1 = poly.derivative("x")
    d2 = d1.derivative("x")
    return (1 - X * X) * d2 - 3 * X * d1 + poly * constant


def b_ode_residual(n: int) -> MultiPoly:
    """Residual of [(1 - x^2) d^2 - 3x d + (n^2 - 1)] B_n; zero for n >= 1.

    The annihilating constant is (n - 1)(n + 1): since B_n = U_{n-1}, the
    standard second-kind equation with index n - 1 applies.  The constant
    (n - 1)^2 does not annihilate B_2 = 2x (it leaves -4x) and is pinned as
    a non-identity in the tests.
    """
    if n < 1:
        raise ValueError("index must be at least 1")
    return ode_apply(cheb_AB(n).b, n * n - 1)


def u_ode_residual(n: int) -> MultiPoly:
    """Residual of [(1 - x^2) d^2 - 3x d + n(n + 2)] U_n; zero for n >= 0."""
    return ode_apply(cheb_U(n).poly, n * (n + 2))
