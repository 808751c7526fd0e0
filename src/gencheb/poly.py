"""Sparse multivariate polynomials over exact rationals and Gaussian rationals.

Representation
--------------
A :class:`MultiPoly` fixes an ordered tuple of variable names at construction
and stores a mapping ``{exponent tuple -> coefficient}``.  Each coefficient
is stored in one canonical form: an ``int`` when the value is integral, a
``Fraction`` when it is rational but not integral, and a
``GaussianRational`` only when its imaginary part is nonzero.  Every
polynomial of the paper has rational coefficients, so the ring operations
run on native ``int``/``Fraction`` arithmetic; the accessors ``terms``,
``coefficient``, ``constant_value`` and ``evaluate_exact`` still return
``GaussianRational`` values.  Zero coefficients are never stored, so the
zero polynomial has an empty term map, and since the form is canonical,
equality is plain structural comparison.  Values are immutable after
construction; every operation returns a new polynomial.

The public constructor validates its input; the ring operations build
their results through an unchecked internal constructor instead, since
their terms are canonical by construction.

After a constant operand has scaled the other, a product is a fold: for
each term c*x^m of the shorter operand, :func:`_fold_product` relabels and
scales every term of the longer, a*x^e -> (a*c)*x^(e+m), and adds it into
one map by the sum's rules (canonical coefficients, cancelled terms
dropped).  With a one-term operand that is one pass, in which no two terms
meet.  A sum x + c*y with such a c is one pass too, :func:`add_product`:
the fold starts from a copy of x's term map, made in C, and no map is built
for c*y.  Every step of the unit walk, x_i' = x_{i-1} + c_i*x_{k-1} with the
one-term c_i of ``U_n`` and ``U2_n``, every term of the series solver's
sums, and A_n + x*B_n in ``T_n`` take it.  Neither U2 route's independent
check does: ``verify`` compares the series with its written-out recurrence
(``series-vs-rec``) and with the Laplace route (``series-vs-laplace``), and
the walk with the series.  A dense product of
integer polynomials is done by Kronecker substitution (Harvey, J. Symb.
Comp. 44, 2009): each operand is packed into one int, with a slot of fixed
width per monomial of the product's exponent box, the two ints are
multiplied once, in C, and the slots are read back through
``int.to_bytes``: on a little-endian machine a slot of 1, 2, 4 or 8 bytes
is read as one item of ``memoryview.cast``, and any other by a byte slice
and ``int.from_bytes``.  It applies when every coefficient is an ``int``, the
operands have at least ``_PACKED_PAIRS`` pairs of terms, and there are at
least ``_PACKED_DENSITY`` pairs per monomial of the box, so the box never
outgrows the work of the fold (``(x^1000000 + 1)^2`` keeps the fold).  The
box holds a shift of every term of the longer operand, so both operands
then have ``_PACKED_DENSITY`` terms at least, and a one-term product never
builds the box.  Every other product, with ``Fraction`` or
``GaussianRational`` coefficients or small or sparse operands, folds, one
Python step per pair of terms.  The fold writes out the exponent sums for
one variable (``T_n``, the ODE residuals) and for two (``U2_n``), because
building each sum tuple with ``map`` costs several times the coefficient
arithmetic of a term; other widths, and a zero shift, share one generic
form.

Kronecker substitution also raises a whole unit of integer polynomials
(:func:`packed_unit_power`, the integer lift of :mod:`gencheb.gcn`): each
c_j is packed once in the box and slot width that h^n's coefficients need,
predicted from the unit and n alone (``_unit_layout``), the caller raises
the int unit, and the slots of each x_i are read back by ``_unpacked``,
the one slot reader, which the product shares.  Packing loses on few
terms, sparse boxes and many bytes per term (tall slots), and there the
layout is refused by ``_packs``, the one predicate of unit powers and
compositions.

Substitution runs Horner's rule (Knuth, TAOCP vol. 2, section 4.6.4), one
variable inside another: the terms are grouped by the exponent of the
outermost variable, and ``acc = acc * image + inner`` runs from its top
exponent down to 0, where ``inner`` is the same walk over the group with
the remaining variables.  The variable with the largest top exponent is
outermost, ties in declared order.  A composition of integer polynomials
runs the walk on ints: evaluation at x_w = 256^(W*stride_w) is a ring
homomorphism, so p(q_1, ..., q_m) is the walk at the packed images, read
back once by ``_unpacked``.  The box and slot width are predicted from p
and the images without expanding (``_composition_layout``), and each step
multiplies by an image of t terms as t shifted copies of the running sum,
acc * q = sum c * (acc << s), s the bit offset of c's slot: t passes over
the sum, where one int product would cost the sum's length times the
image's, which is a whole stride long.
``H3_18`` into three linear (u, v) images reads back 190 terms
from 361 slots of 9 bytes.  Every other composition, with ``Fraction`` or
``GaussianRational`` coefficients or images, scalar images only, or a box
that ``_packs`` refuses, runs the walk on polynomials: every product then
has an image as one operand, so it costs one pass over the running sum per
term of the image and takes the fold above unchanged, and ``H3_18``
into three 3-term images is 160 products and 6,690 pairs of terms, against
22,795 pairs for tables of image powers multiplied term by term.
``evaluate_exact`` runs the same walk on integer numerators at a real
point with real coefficients, as at each binary64 ``cos theta`` of
``verify``: a point p/d steps ``acc = acc * p + inner * d^j``, d^j the
running power of d, so the sum is one int over L * prod d^D, with L the
lcm of the coefficients' denominators and D each variable's top exponent,
and a step is one int product.  Every prime of that denominator divides
L * prod d, the base of ``scalars._stripped``'s gcds.  With a Gaussian
coefficient or point the walk runs on the exact scalars, as the term walk
of ``substitute`` does.

Two polynomials only combine when their variable tuples are identical.
Mixing different variable lists raises instead of silently capturing symbols;
use :meth:`MultiPoly.aligned` to embed a polynomial into a larger variable
tuple explicitly.

Text format
-----------
``parse_poly`` and :meth:`MultiPoly.render` speak the grammar

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := '-'* (rational | symbol ('^' uint)? | '(' expr ')')
    rational := uint ('/' uint)?

with insignificant whitespace and parentheses nested at most
``MAX_NESTING`` deep, so that no input exhausts the parser's recursion.
A leading minus negates the whole factor, so ``-x^2`` is -(x^2), and a run
of them is read in a loop.  The parser reads each term straight into its
coefficient and exponent vector, as its factors are scanned, and adds it
into the expression's term map; only a parenthesised factor is built as a
polynomial and multiplied in.
Rendering emits terms in graded-lexicographic order (higher total degree
first; ties broken by the exponent tuple, so the first-listed variable is
the most significant) and always stays inside the grammar, so output
re-parses bit-exactly.  Only real coefficients are renderable; the grammar
has no imaginary literal.
"""

from __future__ import annotations

import itertools
import math
import struct
import sys
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Mapping

from . import scalars
from .scalars import GaussianRational, power

__all__ = ["MultiPoly", "PolyParseError", "add_product", "gens", "packed_unit_power", "parse_poly"]

Exponents = tuple[int, ...]

MAX_NESTING = 100

# An integer product takes the packed path (module docstring) when it has
# at least _PACKED_PAIRS pairs of terms and at least _PACKED_DENSITY pairs
# per monomial of its exponent box.  Below either, packing and reading back
# the box cost more than folding the terms (measured on dense one- and
# two-variable products).
_PACKED_PAIRS = 256
_PACKED_DENSITY = 4

# A unit of integer polynomials is raised packed (packed_unit_power), and a
# composition of integer polynomials is evaluated packed (substitute), when
# the result can have at least _PACKED_TERMS terms, and its box has at most
# _PACKED_SPARSITY slots and _PACKED_BYTES bytes per such term (_packs).
# Forced packing against the Element path, recurrence / matrix: a box of 7
# or 9 slots reads 0.84-2.3x / 0.57-1.12x, one of 10-13 slots 1.7-1.9x /
# 1.3-1.7x; (u, v), n^2/2 slots for n/2 terms, 0.74x / 0.66x at n = 16.
# Bytes per term stand for the height: (0, 2, v + 3uv) reads 1.04-1.6x /
# 1.4-3.0x up to 46 bytes per term, and 0.83-0.91x by recurrence at 50-62;
# (-10^40, 2x) at 450 bytes 0.29x / 0.20x.  Compositions take the same
# limits: forced packing against the term path, H3_n into three linear
# (u, v) images reads 1.3x at n = 6, 3.1-5.0x at 12-30, 1.8x at 60 and 1.3x
# at 72 (45 bytes per term); from n = 78 (50 bytes) it is refused, where
# forced packing reads 1.3x, 1.0x at 90 and 0.69x at 120.  Small packed
# compositions, 8-30 terms out, read 0.7-0.8x (5-15 us more), and one with
# 145 terms in 2,337 slots 0.9x, where the estimate reads 495 terms.
_PACKED_TERMS = 10
_PACKED_SPARSITY = 8
_PACKED_BYTES = 48

# The unsigned native codes whose items are 1, 2, 4 or 8 bytes, by width,
# through which ``_unpacked`` reads whole slots in C; a big-endian machine
# reads every width by byte slices.
_SLOT_CODES = (
    {struct.calcsize(code): code for code in "BHIQ"} if sys.byteorder == "little" else {}
)

_SCALARS = (int, Fraction, GaussianRational)
ScalarLike = int | Fraction | GaussianRational


class PolyParseError(ValueError):
    """Syntax or symbol error in polynomial text, with a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


def _canonical(value: ScalarLike) -> ScalarLike:
    """The stored form of an exact scalar: int, else Fraction, else GaussianRational.

    A Fraction, the coefficient of every rational polynomial that is not an
    int, is told by its type before the GaussianRational test.
    """
    kind = type(value)
    if kind is int:
        return value
    if kind is Fraction:
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, GaussianRational):
        if not value.is_real:
            return value
        value = value.re
    return value.numerator if value.denominator == 1 else value


def _as_coeff(value: ScalarLike) -> ScalarLike:
    """Check a scalar from outside and return its stored form."""
    if not isinstance(value, _SCALARS):
        raise TypeError(f"cannot use {type(value).__name__} as a coefficient")
    return _canonical(value)


# A stored coefficient is already an exact scalar, so it is lifted without
# the public constructor's checks.
_gaussian = GaussianRational._coerce


def _unchecked(
    variables: tuple[str, ...], terms: dict[Exponents, ScalarLike]
) -> "MultiPoly":
    """A polynomial from nonzero canonical terms, skipping the constructor's checks."""
    poly = object.__new__(MultiPoly)
    poly._variables = variables
    poly._terms = terms
    return poly


def _fold_into(
    out: dict[Exponents, ScalarLike], terms: Mapping[Exponents, ScalarLike]
) -> None:
    """Add canonical ``terms`` into ``out`` in place, dropping sums that cancel."""
    get = out.get
    for exps, coeff in terms.items():
        total = get(exps, 0) + coeff
        if total:
            out[exps] = total if type(total) is int else _canonical(total)
        else:
            out.pop(exps, None)


def _fold_product(
    out: dict[Exponents, ScalarLike],
    terms: Mapping[Exponents, ScalarLike],
    shift: Exponents,
    factor: ScalarLike,
) -> None:
    """Add ``terms`` times factor*x^shift into ``out`` in place, in one pass.

    ``factor`` is a nonzero canonical scalar.  Each sum follows
    :func:`_fold_into`'s rules; only a key already in ``out`` can cancel,
    as a product of nonzero exact scalars is nonzero.  One and two
    variables write the shifted exponents out (module docstring), and a
    zero shift keeps the keys as they are.  ``MultiPoly.__mul__`` folds
    the longer operand once per term of the shorter into one map, from
    empty, and :func:`add_product` folds y once into a copy of x.
    """
    get = out.get
    width = len(shift) if any(shift) else 0
    if width == 1:
        (m0,) = shift
        for (x,), a in terms.items():
            exps = (x + m0,)
            total = get(exps, 0) + a * factor
            if total:
                out[exps] = total if type(total) is int else _canonical(total)
            else:
                del out[exps]
    elif width == 2:
        m0, m1 = shift
        for (x0, x1), a in terms.items():
            exps = (x0 + m0, x1 + m1)
            total = get(exps, 0) + a * factor
            if total:
                out[exps] = total if type(total) is int else _canonical(total)
            else:
                del out[exps]
    else:
        for exps, a in terms.items():
            if width:
                exps = tuple(map(add, exps, shift))
            total = get(exps, 0) + a * factor
            if total:
                out[exps] = total if type(total) is int else _canonical(total)
            else:
                del out[exps]


def _packed_box(
    left: dict[Exponents, ScalarLike], right: dict[Exponents, ScalarLike], pairs: int
) -> list[int] | None:
    """The extents of the product's exponent box, if it takes the packed path.

    None (fold the terms) unless every coefficient is an int and the
    ``pairs`` pairs of terms number at least ``_PACKED_DENSITY`` times the
    box, which also bounds the packed size by ``pairs``.
    """
    sizes = [a + b + 1 for a, b in zip(map(max, zip(*left)), map(max, zip(*right)))]
    if pairs < _PACKED_DENSITY * math.prod(sizes):
        return None
    kinds = set(map(type, left.values()))
    kinds.update(map(type, right.values()))
    return sizes if kinds == {int} else None


def _packed_product(
    left: dict[Exponents, int], right: dict[Exponents, int], sizes: list[int]
) -> dict[Exponents, int]:
    """The product of two integer term maps by Kronecker substitution.

    Each map becomes one int with a slot of ``width`` bytes per monomial of
    the exponent box with extents ``sizes``, so one int product, done in C,
    forms every coefficient.  A product coefficient is at most ``bound`` in
    size, and ``width`` holds it with a sign bit to spare, so
    :func:`_unpacked` reads every slot back exactly.
    """
    bound = min(len(left), len(right))
    bound *= max(map(abs, left.values())) * max(map(abs, right.values()))
    width = _slot_width(bound)
    strides, size = _strides(sizes, width)
    packed = _pack(left, strides, width, size) * _pack(right, strides, width, size)
    return _unpacked(packed, sizes, width)


def _slot_width(bound: int) -> int:
    """The bytes of a slot for every int of size at most ``bound``, with a sign bit to spare."""
    return (bound.bit_length() + 8) // 8


def _packs(slots: int, terms: int, width: int) -> bool:
    """Whether a box of ``slots`` slots of ``width`` bytes, for about ``terms`` terms, packs.

    Packing loses on few terms, a sparse box and many bytes per term
    (module docstring); the constants above set each limit.
    """
    return (
        terms >= _PACKED_TERMS
        and slots <= _PACKED_SPARSITY * terms
        and slots * width <= _PACKED_BYTES * terms
    )


def _strides(sizes: list[int], width: int) -> tuple[list[int], int]:
    """The byte offset of one step in each exponent of the box ``sizes``, and the box's bytes.

    The last variable has stride one slot of ``width`` bytes.
    """
    strides = []
    size = width
    for extent in reversed(sizes):
        strides.append(size)
        size *= extent
    strides.reverse()
    return strides, size


def _pack(
    terms: dict[Exponents, int], strides: list[int], width: int, size: int
) -> int:
    """The sum of c * 256^offset(e) over the terms, offsets in bytes."""
    positive, negative = bytearray(size), bytearray(size)
    for exps, c in terms.items():
        at = sum(map(mul, exps, strides))
        if c > 0:
            positive[at : at + width] = c.to_bytes(width, "little")
        else:
            negative[at : at + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(positive, "little") - int.from_bytes(negative, "little")


def _unpacked(packed: int, sizes: list[int], width: int) -> dict[Exponents, int]:
    """The nonzero slots of ``packed``, keyed by their exponents in the box ``sizes``.

    ``packed`` is the sum of c * 256^offset(e), offsets as :func:`_strides`
    lays them out, and each |c| is below ``half = 2^(8*width - 1)``.  Adding
    ``half`` to every slot makes each slot's content positive and below
    ``2^(8*width)``, so the slots read back exactly, with no borrow between
    them, and a slot that holds ``half`` holds 0 and is skipped.  Slots of
    a width in ``_SLOT_CODES`` are read in C, through ``memoryview.cast``;
    any other width is read by byte slices and ``int.from_bytes``, and a
    slice equal to ``half``'s bytes is skipped with no int built.
    """
    if not packed:
        return {}
    count = math.prod(sizes)
    half = 1 << (8 * width - 1)
    zero = half.to_bytes(width, "little")
    data = (packed + int.from_bytes(zero * count, "little")).to_bytes(width * count, "little")
    boxes = itertools.product(*map(range, sizes))
    code = _SLOT_CODES.get(width)
    if code:
        slots = memoryview(data).cast(code)
        return {exps: slot - half for exps, slot in zip(boxes, slots) if slot != half}
    slots = (data[at : at + width] for at in range(0, len(data), width))
    from_bytes = int.from_bytes
    return {
        exps: from_bytes(slot, "little") - half
        for exps, slot in zip(boxes, slots)
        if slot != zero
    }


def _constant(variables: tuple[str, ...], value: ScalarLike) -> "MultiPoly":
    return _unchecked(variables, {(0,) * len(variables): value} if value else {})


def _horner(terms, order: list[int], points: list, tops: list[int]):
    """The sum of c * prod z_i^e_i * d_i^(D_i - e_i) over nonempty ``terms``.

    ``points[i]`` is (z_i, d_i) and D_i is ``tops[i]``.  The terms are grouped
    by the exponent of the outermost variable ``order[0]``, and ``acc = acc *
    z + inner * d^j`` runs from the group's top exponent down to 0, where
    ``inner`` is the same walk over the group with the remaining variables
    and a leaf is one term's coefficient.  A list of (bit offset s, c) pairs
    is the packed image sum c * 2^s.  d = 1, as for every image of
    ``substitute`` and every Gaussian point of ``evaluate_exact``, skips the
    scaling.
    """
    outer, rest = order[0], order[1:]
    if rest:
        groups: dict[int, list] = {}
        for term in terms:
            groups.setdefault(term[0][outer], []).append(term)
        inner = {e: _horner(group, rest, points, tops) for e, group in groups.items()}
    else:
        inner = {exps[outer]: c for exps, c in terms}
    z, d = points[outer]
    top = max(inner)
    scale = d ** (tops[outer] - top)
    if type(z) is list:
        # acc * z as a sum of shifted copies of acc (module docstring).
        acc = inner[top]
        for e in range(top - 1, -1, -1):
            acc = sum([c * acc << s for s, c in z])
            if e in inner:
                acc += inner[e]
        return acc
    acc = inner[top] * scale if d > 1 else inner[top]
    for e in range(top - 1, -1, -1):
        acc = acc * z
        scale *= d
        if e in inner:
            acc = acc + (inner[e] * scale if d > 1 else inner[e])
    return acc


class MultiPoly:
    """Immutable sparse polynomial in a fixed tuple of variables."""

    __slots__ = ("_variables", "_terms")

    def __init__(
        self,
        variables: Iterable[str],
        terms: Mapping[Exponents, ScalarLike] | None = None,
    ):
        if isinstance(variables, str):
            raise TypeError("variables must be a sequence of names, not a string")
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        width = len(names)
        cleaned: dict[Exponents, ScalarLike] = {}
        for exps, raw in (terms or {}).items():
            # A tuple of int exponents with an int coefficient is stored as
            # given; any other term takes the full checks, which accept or
            # refuse it.
            if type(exps) is tuple and len(exps) == width and type(raw) is int:
                for e in exps:
                    if type(e) is not int or e < 0:
                        break
                else:
                    if raw:
                        cleaned[exps] = raw
                    continue
            exps = tuple(exps)
            if len(exps) != width:
                raise ValueError(
                    f"exponent tuple {exps} does not match {width} variable(s)"
                )
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"exponents must be non-negative ints, got {exps}")
            coeff = _as_coeff(raw)
            if coeff:
                cleaned[exps] = coeff
        self._variables = names
        self._terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def one(cls, variables: Iterable[str]) -> "MultiPoly":
        return cls.constant(variables, 1)

    @classmethod
    def constant(cls, variables: Iterable[str], value: ScalarLike) -> "MultiPoly":
        names = tuple(variables)
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str]) -> "MultiPoly":
        names = tuple(variables)
        if name not in names:
            raise ValueError(f"{name!r} is not among variables {names}")
        exps = tuple(1 if v == name else 0 for v in names)
        return cls(names, {exps: 1})

    # -- structure ---------------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    @property
    def terms(self) -> dict[Exponents, GaussianRational]:
        return {exps: _gaussian(c) for exps, c in self._terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_constant(self) -> bool:
        # Stored terms are nonzero and distinct, so a constant has at most one.
        return len(self._terms) < 2 and not any(next(iter(self._terms), ()))

    def constant_value(self) -> GaussianRational:
        """The coefficient of the empty monomial (the value, if constant)."""
        return self.coefficient((0,) * len(self._variables))

    def coefficient(self, exps: Exponents) -> GaussianRational:
        return _gaussian(self._terms.get(tuple(exps), 0))

    def total_degree(self) -> int:
        """Maximum total degree, or -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(exps) for exps in self._terms)

    def is_real_valued(self) -> bool:
        return not any(
            isinstance(c, GaussianRational) for c in self._terms.values()
        )

    # -- ring operations ---------------------------------------------------

    def _lift(self, other: object) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            if other._variables != self._variables:
                raise ValueError(
                    f"variable lists differ ({self._variables} vs {other._variables}); "
                    "align explicitly with .aligned()"
                )
            return other
        if isinstance(other, _SCALARS):
            return _constant(self._variables, _canonical(other))
        return None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            if other._variables != self._variables:
                return False
            return self._terms == other._terms
        if isinstance(other, _SCALARS):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self._variables, frozenset(self._terms.items())))

    def __add__(self, other: object) -> "MultiPoly":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        # Values are immutable, so a zero operand returns the other one.
        # Otherwise the left map is copied, as add_product copies x: a sum
        # then shares its older operand's key tuples.
        if not rhs._terms:
            return self
        if not self._terms:
            return rhs
        out = dict(self._terms)
        _fold_into(out, rhs._terms)
        return _unchecked(self._variables, out)

    __radd__ = __add__

    def __sub__(self, other: object) -> "MultiPoly":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "MultiPoly":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __neg__(self) -> "MultiPoly":
        return _unchecked(self._variables, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other: object) -> "MultiPoly":
        if isinstance(other, _SCALARS):
            return self._scaled(_canonical(other))
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        # A constant operand scales the other in one pass over its terms.
        if rhs.is_constant():
            return self._scaled(next(iter(rhs._terms.values()), 0))
        if self.is_constant():
            return rhs._scaled(next(iter(self._terms.values()), 0))
        short, long = self._terms, rhs._terms
        if len(long) < len(short):
            short, long = long, short
        # Packing needs _PACKED_DENSITY terms on each side (module docstring).
        pairs = len(short) * len(long)
        if len(short) >= _PACKED_DENSITY and pairs >= _PACKED_PAIRS:
            sizes = _packed_box(short, long, pairs)
            if sizes:
                return _unchecked(self._variables, _packed_product(short, long, sizes))
        out: dict[Exponents, ScalarLike] = {}
        for exps, coeff in short.items():
            _fold_product(out, long, exps, coeff)
        return _unchecked(self._variables, out)

    __rmul__ = __mul__

    def _scaled(self, factor: ScalarLike) -> "MultiPoly":
        """Every coefficient times a canonical scalar, in one pass."""
        if factor == 1:
            return self
        if factor == -1:
            return -self
        if not factor:
            return _unchecked(self._variables, {})
        # A product of nonzero Gaussian rationals is nonzero.
        return _unchecked(
            self._variables,
            {e: _canonical(c * factor) for e, c in self._terms.items()},
        )

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int):
            return NotImplemented
        return power(self, exponent, _constant(self._variables, 1))

    # -- calculus and rebasing ----------------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        """Exact formal partial derivative with respect to ``name``."""
        if name not in self._variables:
            raise ValueError(f"unknown variable {name!r}; have {self._variables}")
        idx = self._variables.index(name)
        # Lowering one positive exponent maps distinct monomials to distinct
        # monomials, so no two terms meet and none cancels.
        out: dict[Exponents, ScalarLike] = {}
        for exps, coeff in self._terms.items():
            e = exps[idx]
            if e:
                lowered = exps[:idx] + (e - 1,) + exps[idx + 1 :]
                out[lowered] = _canonical(coeff * e)
        return _unchecked(self._variables, out)

    def aligned(self, variables: Iterable[str]) -> "MultiPoly":
        """Embed into a larger variable tuple (must contain all current names)."""
        names = tuple(variables)
        missing = [v for v in self._variables if v not in names]
        if missing:
            raise ValueError(f"target variables {names} do not contain {missing}")
        index = {v: names.index(v) for v in self._variables}
        out: dict[Exponents, ScalarLike] = {}
        for exps, coeff in self._terms.items():
            widened = [0] * len(names)
            for v, e in zip(self._variables, exps):
                widened[index[v]] = e
            out[tuple(widened)] = coeff
        return MultiPoly(names, out)

    def substitute(
        self, mapping: Mapping[str, "MultiPoly | ScalarLike"]
    ) -> "MultiPoly":
        """Substitute a polynomial or scalar for every variable.

        All values that are polynomials must share one variable tuple, which
        becomes the variable tuple of the result; with scalars only it is
        ``()``.  The sum is built by Horner's rule (module docstring), the
        variable with the largest top exponent outermost, so each step
        multiplies the running sum by one image: one step per exponent step
        of each group, none between two powers of the images.  With integer
        coefficients and images in a box that ``_packs`` accepts, the walk
        runs on packed ints and each step is a sum of shifted copies;
        otherwise each step is a product of polynomials.
        """
        missing = [v for v in self._variables if v not in mapping]
        if missing:
            raise ValueError(f"substitution is missing variables {missing}")
        target: tuple[str, ...] | None = None
        for v in self._variables:
            value = mapping[v]
            if isinstance(value, MultiPoly):
                if target is None:
                    target = value.variables
                elif value.variables != target:
                    raise ValueError(
                        "substitution values use different variable lists"
                    )
        if target is None:
            target = ()
        points = [
            (v if isinstance(v, MultiPoly) else MultiPoly.constant(target, v), 1)
            for v in map(mapping.__getitem__, self._variables)
        ]
        if not self._terms:
            return _unchecked(target, {})
        # The variable with the largest top exponent goes outermost; sorted
        # is stable, so ties keep the declared order.
        tops = [max(column) for column in zip(*self._terms)]
        order = sorted(range(len(tops)), key=tops.__getitem__, reverse=True)
        images = [image._terms for image, _ in points]
        layout = _composition_layout(self._terms, images, len(target)) if target else None
        if layout:
            sizes, width = layout
            strides, _ = _strides(sizes, width)
            shifts = [
                ([(8 * sum(map(mul, e, strides)), c) for e, c in image.items()], 1)
                for image in images
            ]
            packed = _horner(self._terms.items(), order, shifts, tops)
            return _unchecked(target, _unpacked(packed, sizes, width))
        terms = [(exps, _constant(target, c)) for exps, c in self._terms.items()]
        return _horner(terms, order, points, tops) if order else terms[0][1]

    # -- evaluation ----------------------------------------------------------

    def evaluate_exact(
        self, values: Mapping[str, ScalarLike]
    ) -> GaussianRational:
        """Evaluate at exact scalars; the result is an exact GaussianRational.

        The sum runs by Horner's rule (module docstring).  At a real point
        with real coefficients it runs on integer numerators over
        L * prod d^D, one int product per step, and ``scalars._stripped``
        reduces it with gcds against L * prod d; with a Gaussian coefficient
        or point it runs on the exact scalars themselves.
        """
        missing = [v for v in self._variables if v not in values]
        if missing:
            raise ValueError(f"evaluation is missing variables {missing}")
        points = [_as_coeff(values[v]) for v in self._variables]
        terms, den = self._terms, 1
        if not terms:
            return GaussianRational()
        tops = [max(column) for column in zip(*terms)]
        order = sorted(range(len(tops)), key=tops.__getitem__, reverse=True)
        kinds = set(map(type, terms.values()))
        if GaussianRational in kinds or GaussianRational in map(type, points):
            zs = [(z, 1) for z in points]
            return _gaussian(_horner(terms.items(), order, zs, tops) if order else terms[()])
        if kinds != {int}:
            den = math.lcm(*[c.denominator for c in terms.values()])
            terms = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
        base = den
        for z, top in zip(points, tops):
            den *= z.denominator**top
            base *= z.denominator
        zs = [(z.numerator, z.denominator) for z in points]
        acc = _horner(terms.items(), order, zs, tops) if order else terms[()]
        return scalars._stripped(GaussianRational, acc, 0, den, base)

    def evaluate_float(self, values: Mapping[str, float | complex]):
        """Evaluate at floating-point values (complex when needed)."""
        missing = [v for v in self._variables if v not in values]
        if missing:
            raise ValueError(f"evaluation is missing variables {missing}")
        use_complex = not self.is_real_valued() or any(
            isinstance(values[v], complex) for v in self._variables
        )
        acc = 0j if use_complex else 0.0
        for exps, coeff in self._terms.items():
            term = complex(coeff) if use_complex else float(coeff)
            for v, e in zip(self._variables, exps):
                if e:
                    term *= values[v] ** e
            acc += term
        return acc

    # -- text form -----------------------------------------------------------

    def render(self) -> str:
        """Grammar-exact text form (graded-lex, highest degree first)."""
        if not self._terms:
            return "0"
        ordered = sorted(
            self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True
        )
        pieces: list[str] = []
        for i, (exps, value) in enumerate(ordered):
            if isinstance(value, GaussianRational):
                raise ValueError(
                    "cannot render a polynomial with imaginary coefficients"
                )
            factors = []
            for v, e in zip(self._variables, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mono = "*".join(factors)
            if i:  # the leading term keeps its own sign
                pieces.append(" - " if value < 0 else " + ")
                value = abs(value)
            if not mono:
                pieces.append(str(value))
            elif value == 1:
                pieces.append(mono)
            else:
                pieces.append(f"{value!s}*{mono}")
        return "".join(pieces)

    def __str__(self) -> str:
        if self.is_real_valued():
            return self.render()
        parts = [
            f"({coeff})*{exps}" for exps, coeff in sorted(self._terms.items())
        ]
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"MultiPoly({self._variables!r}, {self._terms!r})"


def gens(*names: str) -> tuple[MultiPoly, ...]:
    """Generator polynomials for the given variable tuple, in order."""
    return tuple(MultiPoly.variable(name, names) for name in names)


def add_product(x, c, y):
    """x + c*y, in one pass over y's terms where the operands allow it.

    When x and y are polynomials over one variable tuple and c is a nonzero
    scalar or a one-term polynomial over it, x's term map is copied once
    and each term of y, relabelled by c's monomial and scaled by its
    coefficient, is added into the copy (``_fold_product``): no map is
    built for c*y.  A zero x returns c*y, which is y itself for c = 1, and
    a zero y returns x.  Any other operands give ``x + c * y``, with its
    checks: mismatched variable lists raise ``ValueError``.
    """
    if isinstance(x, MultiPoly) and isinstance(y, MultiPoly) and x._variables == y._variables:
        if isinstance(c, _SCALARS):
            c = _constant(y._variables, _canonical(c))
        if isinstance(c, MultiPoly) and c._variables == y._variables and len(c._terms) == 1:
            if not y._terms:
                return x
            if not x._terms:
                return c * y
            ((shift, factor),) = c._terms.items()
            out = dict(x._terms)
            _fold_product(out, y._terms, shift, factor)
            return _unchecked(x._variables, out)
    return x + c * y


def packed_unit_power(coeffs, n: int, power) -> tuple[MultiPoly, ...] | None:
    """h^n of a unit of integer polynomials, raised as one packed int unit; else None.

    ``coeffs`` is (c_0, ..., c_{k-1}); ``power(ints)`` raises the int unit
    ``ints`` to the n and returns its (x_0, ..., x_{k-1}).  Each c_j is
    evaluated at x_v = 256^stride_v in the layout of :func:`_unit_layout`,
    the packed unit is raised by ``power``, and each x_i is read back from
    its slots (module docstring).  None where the layout is None.
    """
    layout = _unit_layout(coeffs, n, power)
    if layout is None:
        return None
    variables, units, sizes, width = layout
    strides, size = _strides(sizes, width)
    packed = power([_pack(terms, strides, width, size) for terms in units])
    return tuple(_unchecked(variables, _unpacked(x, sizes, width)) for x in packed)


def _unit_layout(coeffs, n: int, power) -> tuple | None:
    """(variables, term maps, box, slot width) of h^n's coefficients; None where packing loses.

    The unit must be integer polynomials over one variable tuple, with ints
    or Fractions of denominator 1 beside them.  The box has
    floor(n * max_j deg_v(c_j)/(k - j)) + 1 slots for variable v.  Each
    term of x_i is a product of the unit's T terms, term t of c_j taken a_t
    times with sum a_t (k - j) = n - i, so x_i has at most about
    ``terms`` = n^(T-1) / ((T-1)! prod (k - j)) terms, and at most one per
    slot.  A slot holds, with a sign bit to spare and in whole bytes, the
    height max_i x_i(N^n), N the unit of the norms |c_j|_1, and each
    |c_j|_1, as the c_j are packed too (module docstring).  The predicate
    keeps few terms, a sparse box or many bytes per term on the path of an
    Element; each test is made before the next, dearer one.
    """
    variables = None
    for c in coeffs:
        if isinstance(c, MultiPoly):
            if variables not in (None, c._variables):
                return None
            variables = c._variables
        elif type(c) is not int and not (type(c) is Fraction and c.denominator == 1):
            return None
    if variables is None:
        return None
    k = len(coeffs)
    sizes = [1] * len(variables)
    for j, c in enumerate(coeffs):
        if isinstance(c, MultiPoly):
            for v, top in enumerate(map(max, zip(*c._terms))):
                sizes[v] = max(sizes[v], n * top // (k - j) + 1)
    slots = math.prod(sizes)
    # A coefficient has at most one term per slot, each of at least a byte.
    if not _packs(slots, slots, 1):
        return None
    origin = (0,) * len(variables)
    units = [
        c._terms if isinstance(c, MultiPoly) else {origin: int(c)} if c else {}
        for c in coeffs
    ]
    lengths = list(map(len, units))
    count = sum(lengths) - 1
    weight = math.prod(map(pow, range(k, 0, -1), lengths))
    terms = min(n**count // (math.factorial(count) * weight) + 1, slots)
    if not _packs(slots, terms, 1):
        return None
    if not set(map(type, itertools.chain.from_iterable(map(dict.values, units)))) <= {int}:
        return None
    norms = [sum(map(abs, c.values())) for c in units]
    # N_j^((n - j) // (k - j)) is a coefficient of the power of the unit
    # N_j*h^j, which N bounds, so it bounds the height from below with no
    # power taken; 1 << low is the least int of its bit length.
    low = max((n - j) // (k - j) * (c.bit_length() - 1) for j, c in enumerate(norms))
    if not _packs(slots, terms, _slot_width(1 << low)):
        return None
    width = _slot_width(max(*power(norms), *norms))
    if not _packs(slots, terms, width):
        return None
    return variables, units, sizes, width


def _composition_layout(terms, images, targets: int) -> tuple[list[int], int] | None:
    """(box, slot width) of p(q_1, ..., q_m); None where packing loses.

    ``terms`` is p's term map and ``images`` the q_i's, over ``targets``
    variables; every coefficient must be an int.  The box has max_e sum_i
    e_i deg_w(q_i) + 1 slots for variable w.  The term e of p expands to at
    most prod_i C(e_i + t_i - 1, e_i) terms, t_i the terms of q_i (at least
    1), and their sum over p, capped at the box, is the estimate of the
    terms that :func:`_packs` judges.  A slot holds the height bound sum_e |c_e| prod_i
    |q_i|_1^e_i.  Each test is made before the next, dearer one, and each
    sum over p runs down its columns of exponents, one per q_i.
    """
    kinds = set(map(type, terms.values()))
    for image in images:
        kinds.update(map(type, image.values()))
    if kinds != {int}:
        return None
    columns = list(zip(*terms))
    reach = [(0,) * len(terms)] * targets
    for column, image in zip(columns, images):
        for w, degree in enumerate(map(max, zip(*image))):
            if degree:
                reach[w] = list(map(add, reach[w], map(mul, column, itertools.repeat(degree))))
    sizes = [max(r) + 1 for r in reach]
    slots = math.prod(sizes)
    # The result has at most one term per slot, each of at least a byte.
    if not _packs(slots, slots, 1):
        return None
    estimate = [1] * len(terms)
    for column, image in zip(columns, images):
        if len(image) > 1:
            t = len(image) - 1
            counts = {e: math.comb(e + t, e) for e in set(column)}
            estimate = list(map(mul, estimate, map(counts.__getitem__, column)))
    estimate = min(sum(estimate), slots)
    if not _packs(slots, estimate, 1):
        return None
    bound = list(map(abs, terms.values()))
    for column, image in zip(columns, images):
        norm = sum(map(abs, image.values()))
        if norm != 1:
            powers = {e: norm**e for e in set(column)}
            bound = list(map(mul, bound, map(powers.__getitem__, column)))
    slot = _slot_width(sum(bound))
    return (sizes, slot) if _packs(slots, estimate, slot) else None


class _Parser:
    """The grammar of the module docstring, read straight into term maps.

    A term is a coefficient times an exponent vector, built up as its
    factors are read; only a parenthesised factor becomes a
    :class:`MultiPoly`, which ``__mul__`` multiplies in.
    """

    def __init__(self, text: str, variables: tuple[str, ...]):
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables}")
        self.text = text
        self.pos = 0
        self.depth = 0
        self.variables = variables
        self.index = {name: i for i, name in enumerate(variables)}

    def fail(self, message: str, position: int | None = None) -> None:
        raise PolyParseError(
            message, self.pos if position is None else position
        )

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> MultiPoly:
        terms = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail(f"unexpected {self.peek()!r}")
        return _unchecked(self.variables, terms)

    def expr(self) -> dict[Exponents, ScalarLike]:
        """The expression's terms, added into one map by :func:`_fold_into`'s rules."""
        out: dict[Exponents, ScalarLike] = {}
        coeff = 1
        while True:
            exps = [0] * len(self.variables)
            group = None  # the product of the term's parenthesised factors
            while True:
                value = self.factor(exps)
                if type(value) is MultiPoly:
                    group = value if group is None else group * value
                else:
                    coeff *= value
                self.skip_ws()
                if self.peek() != "*":
                    break
                self.pos += 1
            if coeff:
                term = _unchecked(self.variables, {tuple(exps): _canonical(coeff)})
                _fold_into(out, (term if group is None else group * term)._terms)
            ch = self.peek()
            if ch != "+" and ch != "-":
                return out
            self.pos += 1
            coeff = -1 if ch == "-" else 1

    def factor(self, exps: list[int]):
        """The next factor: a parenthesised one as a polynomial, a rational as
        itself, and a symbol's power added into ``exps``, giving 1; each
        leading minus negates it."""
        sign = 1
        self.skip_ws()
        while self.peek() == "-":  # a loop: no run of signs exhausts the stack
            sign = -sign
            self.pos += 1
            self.skip_ws()
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING}")
            self.depth += 1
            self.pos += 1
            value = _unchecked(self.variables, self.expr())
            self.skip_ws()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            self.depth -= 1
            return value if sign == 1 else -value
        if ch.isdecimal():
            return sign * self.rational()
        if ch.isalpha() or ch == "_":
            start = self.pos
            name = self.symbol()
            if name not in self.index:
                self.fail(f"unknown symbol {name!r}", start)
            self.skip_ws()
            if self.peek() == "^":
                self.pos += 1
                exps[self.index[name]] += self.uint()
            else:
                exps[self.index[name]] += 1
            return sign
        self.fail("expected a factor")

    def rational(self) -> int | Fraction:
        numerator = self.uint()
        self.skip_ws()
        if self.peek() != "/":
            return numerator
        self.pos += 1
        self.skip_ws()
        at = self.pos
        denominator = self.uint()
        if denominator == 0:
            self.fail("zero denominator", at)
        return Fraction(numerator, denominator)

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.fail("expected digits")
        return int(self.text[start : self.pos])

    def symbol(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


def parse_poly(text: str, variables: Iterable[str]) -> MultiPoly:
    """Parse polynomial text over the given variables.

    The text is read in one pass into a term map (module docstring).
    Raises :class:`PolyParseError` (with ``.position``) on syntax errors,
    unknown symbols, or zero denominators, and ValueError on duplicate
    variable names, as :class:`MultiPoly` words it, before any text is read.
    """
    return _Parser(text, tuple(variables)).parse()
