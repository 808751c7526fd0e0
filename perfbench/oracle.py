"""Independent arithmetic that checks the program's outputs.

Nothing here imports gencheb.  Each function recomputes a value by a second
route -- plain Fraction recurrences, evaluation at rational points,
square-and-multiply over pairs of Fractions, or the math module -- so that
a check never trusts the code it is checking.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction as F

# -- polynomials held by the program ---------------------------------------------


def _real(coeff) -> F:
    """A program coefficient (GaussianRational, Fraction or int) as a Fraction."""
    if hasattr(coeff, "im"):
        if coeff.im != 0:
            raise ValueError(f"unexpected imaginary coefficient {coeff!r}")
        return F(coeff.re)
    return F(coeff)


def eval_terms(terms: dict, point: tuple) -> F:
    """Value of ``sum c * prod x_i^e_i`` over an exponent->coefficient map."""
    powers: list[dict[int, F]] = [{0: F(1)} for _ in point]
    total = F(0)
    for exps, coeff in terms.items():
        value = _real(coeff)
        for i, e in enumerate(exps):
            table = powers[i]
            if e not in table:
                table[e] = point[i] ** e
            value *= table[e]
        total += value
    return total


def poly_value(poly, point: tuple) -> F:
    return eval_terms(poly.terms, point)


def poly_size(poly) -> tuple[int, int]:
    """(term count, largest numerator or denominator bit length)."""
    terms = poly.terms
    bits = 0
    for coeff in terms.values():
        for part in (coeff.re, coeff.im):
            bits = max(bits, part.numerator.bit_length(), part.denominator.bit_length())
    return len(terms), bits


# -- rendered text ------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\^)|([-+*/()]))")


def eval_text(text: str, names: tuple[str, ...], point: tuple) -> F:
    """Value of a rendered polynomial at a rational point.

    The text is turned token by token into a Python expression over
    Fractions; any character outside the polynomial grammar is an error, so
    nothing but arithmetic is ever evaluated.
    """
    values = dict(zip(names, point))
    pieces: list[str] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.end() == pos:
            raise ValueError(f"unexpected text at offset {pos}: {text[pos:pos + 20]!r}")
        number, name, caret, op = match.groups()
        if number is not None:
            pieces.append(f"F({number})")
        elif name is not None:
            if name not in values:
                raise ValueError(f"unknown symbol {name!r}")
            pieces.append(f"V[{name!r}]")
        elif caret is not None:
            pieces.append("**")
        else:
            pieces.append(op)
        pos = match.end()
    if not pieces:
        raise ValueError("empty polynomial text")
    return F(eval("".join(pieces), {"__builtins__": {}, "F": F, "V": values}))


def parse_gaussian(text: str) -> tuple[F, F]:
    """Read ``str(GaussianRational)``: '3/2', '-i', '2i', '1/2+3/4i', '-1-i'."""
    text = text.strip()
    if not text.endswith("i"):
        return F(text), F(0)
    body = text[:-1]
    cut = max(body.rfind("+", 1), body.rfind("-", 1))
    real_text, imag_text = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
    if imag_text in ("", "+", "-"):
        imag_text += "1"
    return F(real_text), F(imag_text)


def output_fields(stdout: str, fmt: str) -> dict:
    """The ``key = value`` lines (text) or the JSON object a command printed."""
    if fmt == "json":
        return json.loads(stdout)
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"unexpected output line {line!r}")
        fields[key] = value
    return fields


# -- scalar recurrences ---------------------------------------------------------------


def cheb_u_values(n: int, x: F) -> list[F]:
    """[U_0(x), ..., U_n(x)] by U_{k+1} = 2x U_k - U_{k-1}."""
    values = [F(1), 2 * x]
    while len(values) <= n:
        values.append(2 * x * values[-1] - values[-2])
    return values[: n + 1]


def cheb_t_value(n: int, x: F) -> F:
    prev, curr = F(1), x
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, curr = curr, 2 * x * curr - prev
    return curr


def u2_values(n_max: int, u: F, v: F) -> list[F]:
    """[U2_0, ..., U2_{n_max}] at (u, v): U2_{k+2} = u U2_{k+1} - v U2_k + U2_{k-1}."""
    values = [F(0), F(0), F(1)]  # U2_{-1}, U2_0, U2_1
    while len(values) <= n_max + 1:
        values.append(u * values[-1] - v * values[-2] + values[-3])
    return values[1 : n_max + 2]


def hermite3_value(n: int, x: F, y: F, z: F) -> F:
    """n! * sum_{p+2q+3r=n} x^p y^q z^r / (p! q! r!)."""
    total = F(0)
    for r in range(n // 3 + 1):
        for q in range((n - 3 * r) // 2 + 1):
            p = n - 2 * q - 3 * r
            total += (
                x**p * y**q * z**r
                / (math.factorial(p) * math.factorial(q) * math.factorial(r))
            )
    return total * math.factorial(n)


def unit_power(a, b, n: int) -> tuple:
    """(a_n, b_n) with h^n = a_n + b_n h, by squaring in R[h]/(h^2 - a - b h)."""

    def mul(x, y):
        cross = x[1] * y[1]
        return (x[0] * y[0] + a * cross, x[0] * y[1] + x[1] * y[0] + b * cross)

    result, base = (F(1), F(0)), (F(0), F(1))
    while n:
        if n & 1:
            result = mul(result, base)
        base = mul(base, base)
        n >>= 1
    return result


# -- Gaussian-rational 2x2 matrices as ((re, im), ...) ---------------------------------------


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def mat_mul(m, k):
    a, b, c, d = m
    e, f, g, h = k
    return (
        _cadd(_cmul(a, e), _cmul(b, g)),
        _cadd(_cmul(a, f), _cmul(b, h)),
        _cadd(_cmul(c, e), _cmul(d, g)),
        _cadd(_cmul(c, f), _cmul(d, h)),
    )


def mat_pow(m, n: int):
    one, zero = (F(1), F(0)), (F(0), F(0))
    result = (one, zero, zero, one)
    while n:
        if n & 1:
            result = mat_mul(result, m)
        m = mat_mul(m, m)
        n >>= 1
    return result


def mat_det(m):
    a, b, c, d = m
    ad, bc = _cmul(a, d), _cmul(b, c)
    return (ad[0] - bc[0], ad[1] - bc[1])
