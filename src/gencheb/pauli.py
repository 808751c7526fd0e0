"""2x2 matrices as generalized complex units.

Any 2x2 matrix splits over the Pauli basis as
``M = alpha*I + beta1*s1 + beta2*s2 + beta3*s3`` and then satisfies the
quadratic ``M^2 = gamma*I + 2*alpha*M`` with
``gamma = -alpha^2 + beta1^2 + beta2^2 + beta3^2 = -det(M)`` (this is
Cayley-Hamilton).  So M is a generalized complex unit (gamma, 2*alpha), and
its power coefficients from :func:`gencheb.gcn.unit_power` give

    M^n = b_n*M + a_n

for any determinant, the scalar a_n standing for a_n*I as it does in
:mod:`gencheb.matrices`.  For unimodular matrices (det = 1, gamma = -1) these
are second-kind Chebyshev values, b_n = U_{n-1}(alpha) and
a_n = -U_{n-2}(alpha), which is the closed form
M^n = U_{n-1}(alpha) * M - U_{n-2}(alpha) * I.  The pair (a_n, b_n) is
h^n in R[h]/(h^2 - 2*alpha*h + det M), computed by squaring there, so the
closed form takes O(log n) scalar products, as plain squaring of M does.

Entries are Gaussian rationals so the beta2 component of a real matrix is
exact (s2 itself has imaginary entries).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .gcn import unit_power
from .matrices import Mat2
from .scalars import GaussianRational

__all__ = [
    "BenchRecord",
    "IDENTITY",
    "PAULI",
    "PauliCoords",
    "anticommutator",
    "bench_power",
    "coeff_bits",
    "gaussian_mat",
    "mat_power",
    "pauli_decompose",
    "pauli_recompose",
    "quadratic_residual",
]

POWER_METHODS = ("chebyshev", "squaring", "general_recurrence")


def _g(re, im=0) -> GaussianRational:
    return GaussianRational(Fraction(re), Fraction(im))


def gaussian_mat(entries: Sequence[Sequence]) -> Mat2:
    """Build a Mat2 of GaussianRationals from a 2x2 nested sequence."""
    (a, b), (c, d) = entries
    lift = GaussianRational._coerce
    out = [lift(v) for v in (a, b, c, d)]
    if any(v is None for v in out):
        raise TypeError("entries must be exact rationals or GaussianRationals")
    return Mat2(*out)


IDENTITY = gaussian_mat(((1, 0), (0, 1)))
PAULI = (
    gaussian_mat(((0, 1), (1, 0))),
    Mat2(_g(0), _g(0, -1), _g(0, 1), _g(0)),
    gaussian_mat(((1, 0), (0, -1))),
)


@dataclass(frozen=True)
class PauliCoords:
    """Coordinates of M = alpha*I + sum beta_k * s_k, plus gamma."""

    alpha: GaussianRational
    beta1: GaussianRational
    beta2: GaussianRational
    beta3: GaussianRational
    gamma: GaussianRational


def pauli_decompose(m: Mat2) -> PauliCoords:
    half = Fraction(1, 2)
    alpha = (m.m11 + m.m22) * half
    beta3 = (m.m11 - m.m22) * half
    beta1 = (m.m12 + m.m21) * half
    beta2 = (m.m12 - m.m21) * half * _g(0, 1)
    gamma = -(alpha * alpha) + beta1 * beta1 + beta2 * beta2 + beta3 * beta3
    return PauliCoords(alpha, beta1, beta2, beta3, gamma)


def pauli_recompose(coords: PauliCoords) -> Mat2:
    return (
        PAULI[0] * coords.beta1
        + PAULI[1] * coords.beta2
        + PAULI[2] * coords.beta3
        + coords.alpha
    )


def quadratic_residual(m: Mat2) -> Mat2:
    """M^2 - gamma*I - 2*alpha*M; identically zero by Cayley-Hamilton."""
    coords = pauli_decompose(m)
    return m * m - m * (2 * coords.alpha) - coords.gamma


def anticommutator(a: Mat2, b: Mat2) -> Mat2:
    return a * b + b * a


def mat_power(m: Mat2, n: int, method: str = "squaring") -> Mat2:
    """M^n by the chosen method; all applicable methods agree exactly.

    ``chebyshev`` requires det(M) = 1 and is the closed form
    U_{n-1}(alpha)*M - U_{n-2}(alpha)*I; ``general_recurrence`` handles any
    determinant through the unit (-det M, 2*alpha); ``squaring`` is plain
    exponentiation by squaring.
    """
    if n < 0:
        raise ValueError("power index must be non-negative")
    if method == "squaring":
        return m ** n
    if method not in POWER_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {POWER_METHODS}")
    det = m.det()
    if method == "chebyshev" and det != 1:
        raise ValueError(f"the Chebyshev closed form needs determinant 1, got {det}")
    a_n, b_n = unit_power((-det, m.m11 + m.m22), n)  # 2*alpha is the trace
    return m * b_n + a_n


def coeff_bits(m: Mat2) -> int:
    """Largest numerator/denominator bit length over all entry components."""
    worst = 0
    for entry in m.entries():
        for part in (entry.re, entry.im):
            worst = max(
                worst,
                part.numerator.bit_length(),
                part.denominator.bit_length(),
            )
    return worst


@dataclass(frozen=True)
class BenchRecord:
    method: str
    n: int
    median_ns: int
    max_coeff_bits: int


def bench_power(
    ns: Iterable[int], trials: int, matrix: Mat2 | None = None
) -> list[BenchRecord]:
    """Median wall times for the det-1 closed form vs squaring.

    Results from the two methods are compared for equality before timings
    are reported; a mismatch is an error, not a data point.
    """
    sizes = list(ns)
    if not sizes:
        raise ValueError("need at least one power to benchmark")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    m = matrix if matrix is not None else gaussian_mat(((2, 1), (1, 1)))
    records: list[BenchRecord] = []
    for n in sizes:
        results = {}
        for method in ("chebyshev", "squaring"):
            times = []
            for _ in range(trials):
                start = time.perf_counter_ns()
                value = mat_power(m, n, method)
                times.append(time.perf_counter_ns() - start)
            results[method] = value
            records.append(
                BenchRecord(
                    method, n, int(statistics.median(times)), coeff_bits(value)
                )
            )
        if results["chebyshev"] != results["squaring"]:
            raise AssertionError(f"methods disagree at n={n}")
    return records
