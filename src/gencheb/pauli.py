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
h^n in R[h]/(h^2 - 2*alpha*h + det M), computed by squaring there in
O(log n) scalar products; the ``chebyshev`` route is ``general_recurrence``
refusing det M != 1.

The Pauli coordinates are Gaussian rationals, so the beta2 component of a
real matrix is exact (s2 itself has imaginary entries).  The powers take
any entries that the ring operations take.  When all four are exact
scalars (int, Fraction or GaussianRational), the ``chebyshev`` and
``general_recurrence`` routes raise G = L*h^2 on Gaussian int 4-tuples in
gcn's lift (``gcn._lift``), whose step x -> x*g is their product by d*g,
and build each entry of M^n once, with no a_n, b_n or matrix pass in
between.  Any other entry, such as a polynomial, takes ``m * b_n + a_n``
from :func:`gencheb.gcn.unit_power`.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .gcn import _exact_triples, _lift, unit_power
from .matrices import Mat2
from .scalars import GaussianRational, _from_numerators, _kind, _triple, power

__all__ = [
    "BenchRecord",
    "IDENTITY",
    "PAULI",
    "PauliCoords",
    "bench_power",
    "coeff_bits",
    "gaussian_mat",
    "mat_power",
    "pauli_decompose",
    "pauli_recompose",
    "quadratic_residual",
]

POWER_METHODS = ("chebyshev", "squaring", "general_recurrence")
_I = GaussianRational(0, 1)


def gaussian_mat(entries: Sequence[Sequence]) -> Mat2:
    """Build a Mat2 of GaussianRationals from a 2x2 nested sequence."""
    (a, b), (c, d) = entries
    return Mat2(*_lifted((a, b, c, d)))


def _lifted(values: Iterable) -> list[GaussianRational]:
    """Each value as a GaussianRational; TypeError if one is not an exact scalar."""
    out = list(map(GaussianRational._coerce, values))
    if None in out:
        raise TypeError("entries must be exact rationals or GaussianRationals")
    return out


IDENTITY = gaussian_mat(((1, 0), (0, 1)))
PAULI = (
    gaussian_mat(((0, 1), (1, 0))),
    gaussian_mat(((0, -_I), (_I, 0))),
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
    beta2 = (m.m12 - m.m21) * half * _I
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


def mat_power(m: Mat2, n: int, method: str = "squaring") -> Mat2:
    """M^n by the chosen method; all applicable methods agree exactly.

    ``general_recurrence`` handles any determinant through the unit
    (-det M, 2*alpha); ``chebyshev`` is the same unit power refusing
    det(M) != 1, where b_n = U_{n-1}(alpha) and a_n = -U_{n-2}(alpha);
    ``squaring`` is plain exponentiation by squaring.  The first two build
    M^n = b_n*M + a_n of a matrix of exact scalars (int, Fraction or
    GaussianRational) from gcn's lift of G = L*h^2
    (:func:`_exact_power`); a matrix with any other entry, such as a
    polynomial, takes ``m * b_n + a_n`` from :func:`unit_power`.
    """
    if method == "squaring":
        return m ** n
    if method not in POWER_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {POWER_METHODS}")
    det, trace = m.det(), m.m11 + m.m22  # exact scalars are reduced
    if method == "chebyshev" and det != 1:
        raise ValueError(f"the Chebyshev closed form needs determinant 1, got {det}")
    triples = _exact_triples(m.entries())
    if triples is not None:
        return _exact_power(m, triples, _triple(det), _triple(trace), n)
    a_n, b_n = unit_power((-det, trace), n)  # 2*alpha is the trace
    return m * b_n + a_n


def _exact_power(m: Mat2, triples: list, det: tuple, trace: tuple, n: int) -> Mat2:
    """M^n for entries m_ij = (p + q*i)/e, from gcn's lift of the unit (-det M, tr M).

    ``gcn._lift`` gives a_n = y_0/D and b_n = y_1*d/D, so each entry of
    b_n*M + a_n is (y_1*d*(p + q*i) + y_0*e*[i = j]) / (D e), built once, with
    one gcd, in the type that ``m * b_n + a_n`` has.  d and D are read off the
    *reduced* det and trace; unreduced ones would inflate them.
    """
    p, q, e = det
    (y0p, y0q, y1p, y1q), d, scale, exponent = _lift([(-p, -q, e), trace], n, _lift_kernel)
    y1p, y1q, den = y1p * d, y1q * d, scale * d ** exponent
    kind = _kind(m.entries())
    entries = []
    for k, (p, q, e) in enumerate(triples):
        re, im = y1p * p - y1q * q, y1p * q + y1q * p
        if k in (0, 3):
            re, im = re + y0p * e, im + y0q * e
        entries.append(_from_numerators(kind, re, im, den * e))
    return m._new((tuple(entries[:2]), tuple(entries[2:])))


def _lift_kernel(lift: tuple, m: int) -> tuple:
    """d*G^m for G = L*h^2 by :func:`power` on int 4-tuples: pauli's own kernel.

    d*G^m = y_0 + y_1*g is held as (re y_0, im y_0, re y_1, im y_1); g = d*h
    satisfies g^2 = P*g - Q (c_0 = -Q, c_1 = P), and d*G = (L/d)*g^2.  The
    product (a + b*g)(c + e*g) = (ac - Q*be) + (ae + bc + P*be)*g is written
    out and divided exactly by d.  A square is (a^2 - Q*b^2) + (2ab + P*b^2)*g,
    from a^2 and b^2, two products each as (x+y)(x-y) + 2xy*i, and ab: 8
    large products instead of the general product's 16.  The step x -> x*g
    is the product by d*g, exact as (a + b*g)(d*g) is divisible by d.
    """
    ((c0p, c0q), (c1p, c1q)), d, _, top = lift
    s = top // d

    def product(x, y):
        ar, ai, br, bi = x
        if x is y:  # a square: a^2, b^2 and ab, 8 large products, not 16
            fr, fi = (br + bi) * (br - bi), (br * bi) << 1  # b^2
            y0r, y0i = (ar + ai) * (ar - ai), (ar * ai) << 1  # a^2
            y1r, y1i = (ar * br - ai * bi) << 1, (ar * bi + ai * br) << 1  # 2ab
        else:
            cr, ci, er, ei = y
            fr, fi = br * er - bi * ei, br * ei + bi * er  # b*e
            y0r, y0i = ar * cr - ai * ci, ar * ci + ai * cr  # a*c
            y1r = ar * er - ai * ei + br * cr - bi * ci  # a*e + b*c
            y1i = ar * ei + ai * er + br * ci + bi * cr
        y0r, y0i = y0r + c0p * fr - c0q * fi, y0i + c0p * fi + c0q * fr
        y1r, y1i = y1r + c1p * fr - c1q * fi, y1i + c1p * fi + c1q * fr
        if d == 1:  # d = 1 divides nothing
            return y0r, y0i, y1r, y1i
        return y0r // d, y0i // d, y1r // d, y1i // d

    start = (c0p * s, c0q * s, c1p * s, c1q * s)
    return power(start, m, (d, 0, 0, 0), product), lambda x: product(x, (0, 0, d, 0))


def coeff_bits(m: Mat2) -> int:
    """Largest numerator/denominator bit length over the parts of the exact entries."""
    worst = 0
    for entry in _lifted(m.entries()):
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


def bench_power(ns: Iterable[int], trials: int) -> list[BenchRecord]:
    """Median wall times for the det-1 closed form vs squaring of [[2, 1], [1, 1]].

    Results from the two methods are compared for equality before timings
    are reported; a mismatch is an error, not a data point.
    """
    sizes = list(ns)
    if not sizes:
        raise ValueError("need at least one power to benchmark")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    m = gaussian_mat(((2, 1), (1, 1)))
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
