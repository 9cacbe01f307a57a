"""Exact scalars and tiny 2x2 integer linear algebra.

Everything downstream runs on Python ints and fractions.Fraction:
arbitrary precision, eagerly normalized to lowest terms with positive
denominator, structurally comparable and hashable.  No floating point
is used anywhere; lattice-point decisions are exact-equality decisions
and any rounding would invalidate them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

Scalar = int | Fraction

_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def format_rational(q: Scalar) -> str:
    """Render q as "p/q" in lowest terms, or bare "p" when q is integral."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    """Inverse of :func:`format_rational`; accepts "p" and "p/q".

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
    num, den = m.group(1), int(m.group(2) or 1)
    if den == 0:
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(int(num), den)


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
        object.__setattr__(self, "x", Fraction(x))
        object.__setattr__(self, "y", Fraction(y))

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __rmul__(self, k: Scalar) -> "Vec2":
        return Vec2(k * self.x, k * self.y)

    @property
    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def as_ints(self) -> tuple[int, int]:
        if not self.is_integral:
            raise ValueError(f"not an integer vector: {self}")
        return int(self.x), int(self.y)

    def __str__(self) -> str:
        return f"({format_rational(self.x)}, {format_rational(self.y)})"


def det2(u: Vec2, v: Vec2) -> Fraction:
    """Determinant of the 2x2 matrix with columns u, v."""
    return u.x * v.y - u.y * v.x


def primitive(v: Vec2) -> Vec2:
    """Divide a nonzero integer vector by the gcd of its components.

    The result is the primitive lattice vector with the same direction.
    """
    ix, iy = v.as_ints()
    if ix == 0 and iy == 0:
        raise ValueError("zero vector has no primitive direction")
    g = math.gcd(abs(ix), abs(iy))
    return Vec2(ix // g, iy // g)


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

    def apply(self, v: Vec2) -> Vec2:
        return Vec2(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)

    def __matmul__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "IntMat2":
        """Exact inverse; requires |det| = 1 so the inverse is integral."""
        det = self.det()
        if abs(det) != 1:
            raise ValueError(f"matrix with det {det} has no integer inverse")
        return IntMat2(self.d * det, -self.b * det, -self.c * det, self.a * det)

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

    def apply(self, v: Vec2) -> Vec2:
        return self.linear.apply(v) + self.translate

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(IntMat2.identity(), Vec2(0, 0))
