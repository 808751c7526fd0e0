"""Euler-like cosine and sine for a generalized complex unit.

For a unit h^2 = a + b*h the exponential splits as
``exp(h*phi) = C(phi) + h*S(phi)`` with entire series

    C(phi) = sum phi^n / n! * a_n        S(phi) = sum phi^n / n! * b_n

whose coefficients are exactly the power coefficients of the unit.  The
series is the ground truth here.  Closed forms through the conjugate roots
are obtained by solving the 2x2 linear system

    exp(h+ * phi) = C + h+ * S
    exp(h- * phi) = C + h- * S

which gives, for distinct roots,

    S(phi) = (exp(h+ phi) - exp(h- phi)) / (h+ - h-)
    C(phi) = (h+ exp(h- phi) - h- exp(h+ phi)) / (h+ - h-)

and in the degenerate double-root case (b^2 + 4a = 0)

    S(phi) = phi * exp(b phi / 2)
    C(phi) = (1 - b phi / 2) * exp(b phi / 2).

Both are :func:`gencheb.gcn.at_roots` with f(z) = exp(z*phi), the floating
closed form shared by every function of the unit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .gcn import GcnElement, GcnUnit, at_roots, conjugate_roots, float_unit

__all__ = [
    "EulerPair",
    "OdeResidualReport",
    "addition_residuals",
    "defining_identity_residual",
    "euler_closed_form",
    "euler_series",
    "ode_residual",
]

DEFAULT_TOL = 1e-12

_MAX_TERMS = 100_000


@dataclass(frozen=True)
class EulerPair:
    """Values C(phi), S(phi) for one unit and angle."""

    unit: GcnUnit
    phi: float
    c: float
    s: float
    terms: int | None = None


@dataclass(frozen=True)
class OdeResidualReport:
    """Max residuals of C' = a*S and S' = C + b*S over a grid."""

    unit: GcnUnit
    points: int
    max_c_residual: float
    max_s_residual: float


def _require_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive")


def _growth_bound(a: float, b: float) -> float:
    # |a_n|, |b_n| <= rho^n with rho = max(|a|, 1 + |b|): both recurrence
    # steps scale the running maximum by at most that factor.
    return max(abs(a), 1.0 + abs(b), 1.0)


def _budget_exhausted(tol: float) -> ValueError:
    return ValueError(
        f"the series did not reach tol={tol} within the term budget "
        f"of {_MAX_TERMS} terms"
    )


def _series_sums(
    a: float, b: float, phi: float, tol: float, with_derivatives: bool
) -> tuple[float, float, float, float, int]:
    """Partial sums of C, S and (optionally) C', S' with a certified tail.

    Terms are majorized by kappa * (|phi| * rho)^n / n!; summation stops when
    the geometric bound on the remaining tail drops below ``tol``.
    """
    rho = _growth_bound(a, b)
    # The loop below stops only once |phi|*rho/(n+1) < 0.5, and it gives up
    # after n = _MAX_TERMS; this ratio only falls as n grows, so when it is
    # not below 0.5 at the last n the loop cannot stop.
    if abs(phi) * rho / (_MAX_TERMS + 1) >= 0.5:
        raise _budget_exhausted(tol)
    # The derivative series shift coefficients by one index, costing one
    # extra factor of rho in the majorant.
    kappa = rho if with_derivatives else 1.0
    # The (a_n, b_n) step is written out, not read off gcn.unit_powers: on
    # floats the walk costs 0.8-0.9 us a step against 0.06-0.09 us inline
    # (timeit, 60-step sums, CPython 3.11), 3x on euler_series.  ROADMAP
    # item 2 replaces this loop.
    a_n, b_n = 1.0, 0.0
    t_n = 1.0  # phi^n / n!
    major = kappa  # kappa * (|phi| * rho)^n / n!
    c = s = dc = ds = 0.0
    n = 0
    while True:
        c += t_n * a_n
        s += t_n * b_n
        a_next, b_next = a * b_n, a_n + b * b_n
        if with_derivatives:
            dc += t_n * a_next
            ds += t_n * b_next
        n += 1
        if n > _MAX_TERMS:
            raise _budget_exhausted(tol)
        a_n, b_n = a_next, b_next
        t_n *= phi / n
        major *= abs(phi) * rho / n
        ratio = abs(phi) * rho / (n + 1)
        if ratio < 0.5 and 2.0 * major < tol:
            break
    # A coefficient can overflow to inf while phi^n/n! underflows to 0, and
    # inf * 0 is nan, though the majorant converged.
    if not all(map(math.isfinite, (c, s, dc, ds))):
        raise ValueError("a series sum is not a finite float (a term overflowed)")
    return c, s, dc, ds, n


def euler_series(unit: GcnUnit, phi: float, tol: float = DEFAULT_TOL) -> EulerPair:
    """Evaluate C and S by their defining series with remainder below tol."""
    _require_tol(tol)
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    a, b = float_unit(unit)
    c, s, _, _, terms = _series_sums(a, b, float(phi), tol, False)
    return EulerPair(unit, float(phi), c, s, terms)


def euler_closed_form(unit: GcnUnit, phi: float) -> EulerPair:
    """Evaluate C and S through the conjugate roots (series-free)."""
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    phi = float(phi)
    c, s = at_roots(
        unit, lambda z: cmath.exp(z * phi), lambda z: phi * cmath.exp(z * phi)
    )
    return EulerPair(unit, phi, c, s)


def ode_residual(
    unit: GcnUnit, phi_grid, tol: float = DEFAULT_TOL
) -> OdeResidualReport:
    """Residuals of C' = a*S and S' = C + b*S over a grid.

    Derivatives come from term-wise differentiation of the series (an index
    shift of the coefficients), not from finite differences.
    """
    _require_tol(tol)
    grid = [float(p) for p in phi_grid]
    if len(grid) < 3:
        raise ValueError("need at least 3 grid points")
    if not all(map(math.isfinite, grid)):
        raise ValueError("grid points must be finite")
    a, b = float_unit(unit)
    max_c = max_s = 0.0
    for phi in grid:
        c, s, dc, ds, _ = _series_sums(a, b, phi, tol, True)
        max_c = max(max_c, abs(dc - a * s))
        max_s = max(max_s, abs(ds - c - b * s))
    return OdeResidualReport(unit, len(grid), max_c, max_s)


def addition_residuals(
    unit: GcnUnit, phi: float, psi: float, tol: float = DEFAULT_TOL
) -> tuple[float, float]:
    """Residuals of the exponential addition law at (phi, psi).

    exp(h*(phi+psi)) = exp(h*phi)*exp(h*psi) forces
        C(phi+psi) = C(phi)C(psi) + a S(phi)S(psi)
        S(phi+psi) = C(phi)S(psi) + S(phi)C(psi) + b S(phi)S(psi).
    """
    first = euler_series(unit, phi, tol)
    second = euler_series(unit, psi, tol)
    combined = euler_series(unit, phi + psi, tol)
    law = GcnElement(unit, first.c, first.s) * GcnElement(unit, second.c, second.s)
    return (abs(combined.c - law.re), abs(combined.s - law.im))


def defining_identity_residual(unit: GcnUnit, phi: float, c: float, s: float) -> float:
    """Max over both roots of |exp(h± phi) - (c + h± s)|."""
    worst = 0.0
    for root in conjugate_roots(unit).numeric():
        residual = abs(cmath.exp(root * phi) - (c + root * s))
        worst = max(worst, residual)
    return worst
