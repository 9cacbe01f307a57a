"""Exact scalars: the rational text format, points and integer affine maps.

The text format "p" / "p/q" is read and written on Python ints:
:func:`parse_rational` gives a lowest-terms pair (p, q) and
:func:`format_quotient` writes any integer quotient, so `certify` reads
and prints a polygon and its quasipolynomial without building a
`fractions.Fraction`.  `Fraction` remains the value type of the `Vec2`
points that constructions and tests build polygons from, and of the
derived views (`RationalPolygon.vertices`, `QuasiPolynomial.coeffs`).
Both are arbitrary precision, and a `Fraction` is eagerly normalized
to lowest terms with a positive denominator.  No floating point is used
anywhere; lattice-point decisions are exact-equality decisions and any
rounding would invalidate them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

Scalar = int | Fraction

_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def format_rational(q: Scalar) -> str:
    """Render q as "p/q" in lowest terms, or bare "p" when q is integral: `Fraction.__str__`."""
    return str(q)


def format_quotient(p: int, q: int) -> str:
    """Render the quotient p / q, for q > 0, as `Fraction(p, q).__str__` does, with one gcd."""
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def parse_rational(s: str) -> tuple[int, int]:
    """Inverse of :func:`format_rational`: "p" or "p/q" as ints (p, q) in lowest terms, q > 0.

    The grammar is optional whitespace, an optional sign, ASCII digits
    and an optional "/digits".  Anything else raises ValueError: a
    non-string (format_rational always writes strings, so bare JSON
    numbers are rejected), decimals, exponents and underscores (which
    `Fraction` would take, so "1e-1000000000" would build a billion-digit
    denominator), and a zero denominator.
    """
    if not isinstance(s, str):
        raise ValueError(f"rational must be a string like \"p/q\", got {type(s).__name__}")
    m = _RATIONAL.fullmatch(s)
    if m is None:
        raise ValueError(f"rational must look like \"p\" or \"p/q\", got {s!r}")
    num, den = m.group(1, 2)
    if den is None:
        return int(num), 1
    p, q = int(num), int(den)
    if q == 0:
        raise ValueError(f"zero denominator in {s!r}")
    g = math.gcd(p, q)
    return p // g, q // g


def parse_integer(s: str) -> int:
    """An integer in the grammar of :func:`parse_rational`, without "/q"."""
    m = _RATIONAL.fullmatch(s)
    if m is None or m.group(2) is not None:
        raise ValueError(f"integer must be an optional sign and ASCII digits, got {s!r}")
    return int(m.group(1))


@dataclass(frozen=True)
class Vec2:
    """Point or vector in the rational plane."""

    x: Fraction
    y: Fraction

    def __init__(self, x: Scalar, y: Scalar) -> None:
        # a Fraction is kept as it is: it is already in lowest terms
        object.__setattr__(self, "x", x if type(x) is Fraction else Fraction(x))
        object.__setattr__(self, "y", y if type(y) is Fraction else Fraction(y))

    @property
    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def __str__(self) -> str:
        return f"({format_rational(self.x)}, {format_rational(self.y)})"


@dataclass(frozen=True)
class IntMat2:
    """2x2 integer matrix, rows (a, b) and (c, d)."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def is_unimodular(self) -> bool:
        return abs(self.det()) == 1

    def __matmul__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @classmethod
    def identity(cls) -> "IntMat2":
        return cls(1, 0, 0, 1)


@dataclass(frozen=True)
class AffineMap:
    """Integer affine map p -> linear @ p + translate.

    With a unimodular linear part this is a lattice automorphism and
    preserves all lattice-point counts.
    """

    linear: IntMat2
    translate: Vec2

    def __post_init__(self) -> None:
        if not self.translate.is_integral:
            raise ValueError("translation part must be integral")
