"""Exact scalars: arbitrary-precision rationals and Gaussian rationals.

The rational carrier is :class:`fractions.Fraction` (re-exported as
``BigRational``): it is always reduced to lowest terms, keeps a positive
denominator, and has the canonical zero 0/1.  ``GaussianRational`` is an
exact complex number stored as one triple of ints ``(p, q, d)`` meaning
``(p + q*i)/d``, with ``d > 0`` and ``gcd(p, q, d) = 1``.  Ring operations
work on the ints and build each result through one unchecked constructor
that divides out a single ``math.gcd(d, p, q)``, where ``Fraction`` parts
would reduce each part on its own; the public constructor ``(re, im)``
keeps its checks.  ``re`` and ``im`` are ``Fraction`` views.  It is the
entry type of the Gaussian matrices (purely real values carry ``q = 0``); a
polynomial stores one only for a coefficient whose imaginary part is
nonzero, and ``int``/``Fraction`` otherwise.

Floats are deliberately rejected everywhere in this module.  Numeric
evaluation happens in the consumers, never in the exact core.

A GaussianRational times itself is squared as ((p+q)(p-q) + 2pq*i)/d^2,
two products of numerators instead of four.

Two ring-generic helpers live here, at the bottom layer, so that every
other type uses them: :func:`power` is the library's one square-and-multiply
loop (every ``**`` and ``gcn.unit_power``) and its one refusal of n < 0,
and :func:`zero_of` the zero of whatever ring some values live in.
:func:`_stripped` is the one reduction of ``(p + q*i)/den`` when every
prime of ``den`` divides a small base: ``gcn``'s lift and
``MultiPoly.evaluate_exact`` build their large denominators so, and reduce
by gcds against the base, never one of two large ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

__all__ = ["BigRational", "GaussianRational", "as_fraction", "power", "zero_of"]

BigRational = Fraction


def as_fraction(value: int | Fraction) -> Fraction:
    """Coerce an exact rational to ``Fraction``; anything inexact is an error."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def power(base, n: int, one, _mul=mul):
    """``base`` to the power ``n >= 0`` by square-and-multiply.

    Works in any ring whose elements multiply with ``*``, or with ``_mul``
    for one held in plain data; ``one`` is its identity and is what ``n = 0``
    returns.  The bits of ``n`` are read from the top down, so every
    multiply is by ``base`` itself, usually far smaller than the result.
    The square step passes one operand twice, ``_mul(result, result)``, and
    the library's exact products notice that and square with fewer
    products: a 2x2 matrix, a GaussianRational, an :class:`~gencheb.gcn.Element`
    and :mod:`gencheb.pauli`'s kernel.
    """
    if n < 0:
        raise ValueError("power index must be non-negative")
    if n == 0:
        return one
    result = base
    for bit in bin(n)[3:]:
        result = _mul(result, result)
        if bit == "1":
            result = _mul(result, base)
    return result


def zero_of(*values):
    """The zero of the ring that ``values`` live in.

    Mixed inputs promote as ``+`` does: a Fraction beside a MultiPoly gives
    the zero polynomial, and plain ints give 0.
    """
    return sum(value * 0 for value in values)


def _triple(value: object) -> "tuple[int, int, int] | None":
    """``(p, q, d)`` of an exact scalar, or None for anything else."""
    if type(value) is GaussianRational:
        return value._t
    if isinstance(value, int):
        return value, 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    return None


def _kind(values) -> type:
    """``type(zero_of(*values))`` for exact scalars, read off their types alone.

    GaussianRational if any value is one, else Fraction if any is one, else
    int: the type that ``+`` and ``*`` promote them to, with no ring
    operation spent to learn it.
    """
    kinds = set(map(type, values))
    if GaussianRational in kinds:
        return GaussianRational
    return Fraction if any(issubclass(k, Fraction) for k in kinds) else int


def _from_numerators(kind: type, p: int, q: int, d: int):
    """``(p + q*i)/d`` as a :func:`_kind`; a Fraction needs q = 0, an int also d = 1."""
    if kind is GaussianRational:
        return _unchecked(p, q, d)
    return Fraction(p, d) if kind is Fraction else p


def _from_coprime(kind: type, p: int, q: int, d: int):
    """:func:`_from_numerators` for ``gcd(p, q, d) = 1`` and ``d > 0``, with no gcd taken.

    A Fraction is built as ``GaussianRational`` is, through ``object.__new__``
    and its two slots, so its own gcd is skipped too.
    """
    if kind is GaussianRational:
        z = _new(GaussianRational)
        _set_t(z, (p, q, d))
        return z
    if kind is Fraction:
        x = _new(Fraction)
        x._numerator = p
        x._denominator = d
        return x
    return p


def _stripped(kind: type, p: int, q: int, den: int, base: int):
    """``(p + q*i)/den`` in lowest terms as a :func:`_kind`, for ``den > 0``.

    Every prime of ``den`` must divide ``base``.  Each round divides out
    g = gcd(base, p, q, den), taken in that order so that each gcd is
    against a small int, never one of two large ones; g = 1 proves the
    value reduced.  What is left to cancel is made of primes of g, so the
    next round's base is g squared.  The result is built once, by
    :func:`_from_coprime`.
    """
    while True:
        g = gcd(base, p, q, den)
        if g == 1:
            return _from_coprime(kind, p, q, den)
        p, q, den = p // g, q // g, den // g
        base = g * g


def _unchecked(p: int, q: int, d: int) -> "GaussianRational":
    """``(p + q*i)/d`` for ``d > 0``, reduced by one gcd and not otherwise checked.

    Every ring operation builds its result here.  ``d`` goes first: once a
    gcd is 1 the rest are skipped, so d = 1 costs no gcd of ``p`` and ``q``.
    """
    g = gcd(d, p, q)
    if g != 1:
        p //= g
        q //= g
        d //= g
    z = _new(GaussianRational)
    _set_t(z, (p, q, d))
    return z


def _part(n: int, d: int) -> str:
    """``n/d`` as its ``Fraction`` prints, for ``d > 0``, reduced by one gcd."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _quotient(a: tuple[int, int, int], b: tuple[int, int, int]) -> "GaussianRational":
    """``a / b`` as ``d_b (p_a + q_a i)(p_b - q_b i) / (d_a (p_b^2 + q_b^2))``."""
    pa, qa, da = a
    pb, qb, db = b
    norm = pb * pb + qb * qb
    if norm == 0:
        raise ZeroDivisionError("division by zero GaussianRational")
    return _unchecked(db * (pa * pb + qa * qb), db * (qa * pb - pa * qb), da * norm)


class GaussianRational:
    """An exact complex number ``re + im*i`` with rational parts.

    It is stored as one triple of ints ``(p, q, d)`` meaning ``(p + q*i)/d``,
    with ``d > 0`` and ``gcd(p, q, d) = 1``, so every value has one stored
    form and ``==`` compares triples.  ``GaussianRational(re, im)`` checks
    its arguments (exact rationals only) and runs ``__post_init__``; ring
    operations skip both and build each result with ``_unchecked``, which
    divides out one gcd.  ``re`` and ``im`` are ``Fraction`` views built on
    request.  Instances are immutable.
    """

    __slots__ = ("_t",)

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0) -> None:
        self.__post_init__(re, im)

    def __post_init__(self, re: int | Fraction, im: int | Fraction) -> None:
        # The checked constructor's work.  Over d = lcm of the two reduced
        # denominators the triple is already reduced: each prime of d divides
        # one of the denominators as often as it divides d, so it does not
        # divide that part's numerator.
        re = as_fraction(re)
        im = as_fraction(im)
        d_re, d_im = re.denominator, im.denominator
        d = d_re * d_im // gcd(d_re, d_im)
        _set_t(self, (re.numerator * (d // d_re), im.numerator * (d // d_im), d))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"GaussianRational is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"GaussianRational is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @staticmethod
    def _coerce(value: object) -> "GaussianRational | None":
        """``value`` as a GaussianRational, or None if it is not an exact scalar."""
        if type(value) is GaussianRational:
            return value
        triple = _triple(value)
        return None if triple is None else _unchecked(*triple)

    @property
    def re(self) -> Fraction:
        p, _, d = self._t
        return Fraction(p, d)

    @property
    def im(self) -> Fraction:
        _, q, d = self._t
        return Fraction(q, d)

    @property
    def is_real(self) -> bool:
        return self._t[1] == 0

    def __bool__(self) -> bool:
        p, q, _ = self._t
        return p != 0 or q != 0

    def __eq__(self, other: object) -> bool:
        triple = _triple(other)
        if triple is None:
            return NotImplemented
        return self._t == triple

    def __hash__(self) -> int:
        # Real values hash like their Fraction so 1, Fraction(1) and
        # GaussianRational(1) agree as dict keys.
        if self._t[1] == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other: object) -> "GaussianRational":
        triple = _triple(other)
        if triple is None:
            return NotImplemented
        p1, q1, d1 = self._t
        p2, q2, d2 = triple
        if d1 == d2:
            return _unchecked(p1 + p2, q1 + q2, d1)
        return _unchecked(p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: object) -> "GaussianRational":
        triple = _triple(other)
        if triple is None:
            return NotImplemented
        p1, q1, d1 = self._t
        p2, q2, d2 = triple
        if d1 == d2:
            return _unchecked(p1 - p2, q1 - q2, d1)
        return _unchecked(p1 * d2 - p2 * d1, q1 * d2 - q2 * d1, d1 * d2)

    def __rsub__(self, other: object) -> "GaussianRational":
        triple = _triple(other)
        if triple is None:
            return NotImplemented
        return _unchecked(*triple) - self

    def __neg__(self) -> "GaussianRational":
        p, q, d = self._t
        return _unchecked(-p, -q, d)

    def __mul__(self, other: object) -> "GaussianRational":
        if other is self:  # a square: 2 products of numerators, not 4
            p, q, d = self._t
            return _unchecked((p + q) * (p - q), (p * q) << 1, d * d)
        triple = _triple(other)
        if triple is None:
            return NotImplemented
        p1, q1, d1 = self._t
        p2, q2, d2 = triple
        return _unchecked(p1 * p2 - q1 * q2, p1 * q2 + q1 * p2, d1 * d2)

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        p, q, d = self._t
        return _unchecked(p, -q, d)

    def squared_norm(self) -> Fraction:
        """``z * conj(z)`` as an exact rational (always real)."""
        p, q, d = self._t
        return Fraction(p * p + q * q, d * d)

    def inverse(self) -> "GaussianRational":
        return _quotient((1, 0, 1), self._t)

    def __truediv__(self, other: object) -> "GaussianRational":
        triple = _triple(other)
        if triple is None:
            return NotImplemented
        return _quotient(self._t, triple)

    def __rtruediv__(self, other: object) -> "GaussianRational":
        triple = _triple(other)
        if triple is None:
            return NotImplemented
        return _quotient(triple, self._t)

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            return NotImplemented
        base = self.inverse() if exponent < 0 else self
        return power(base, abs(exponent), _ONE)

    def __complex__(self) -> complex:
        p, q, d = self._t
        return complex(p / d, q / d)

    def __float__(self) -> float:
        p, q, d = self._t
        if q != 0:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return p / d

    def __str__(self) -> str:
        p, q, d = self._t
        if q == 0:
            return _part(p, d)
        imag = "i" if abs(q) == d else f"{_part(abs(q), d)}i"
        if p == 0:
            return f"-{imag}" if q < 0 else imag
        return f"{_part(p, d)}{'-' if q < 0 else '+'}{imag}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__
_set_t = GaussianRational._t.__set__
_ONE = _unchecked(1, 0, 1)
