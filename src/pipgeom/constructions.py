"""Generators for every polygon family the package certifies.

Each generator returns a canonical :class:`RationalPolygon` and makes
no claim beyond its construction: the advertised (interior, boundary)
profile of every instance is established downstream by certification,
never assumed.  Every family is written on integers: its points as
reduced triples (X, Y, d) for (X/d, Y/d), or integer pairs when it is
integral, handed to the hull, or its facets as primitive integer
normals and offsets handed to `RationalPolygon.from_facets`.

Families
--------
reflexive-catalog   the 16 integral polygons whose only interior
                    lattice point is the origin and whose dual is
                    integral, one representative per lattice-
                    equivalence class
example-b1 / -b2    rational triangles with i interior points and just
                    1 or 2 boundary points (unattainable integrally)
t-xyz               one-interior-point triangles built from a solution
                    of b = (x+y+z)^2/(xyz) with x | y and x | z
fibonacci           the t-xyz instances at (1, F_{2j-1}^2, F_{2j+1}^2)
scott-grid          integral polygons realizing every (i, b) allowed
                    for integral polygons (b <= 2i+6, plus b <= 9 when
                    i = 1); this package's own explicit family
p3 / p4 / p10       denominator-3/4/10 polygons realizing (i, b) up to
                    b <= 3i+5, 4i+4, 5i+4 respectively
"""

from __future__ import annotations

import functools

from .polygon import RationalPolygon, _hull, hull
from .vieta import VietaSolution


class NotConstructibleError(ValueError):
    """Raised when a solution lacks the divisibility a construction needs."""


def fibonacci(k: int) -> int:
    """k-th Fibonacci number with F_1 = F_2 = 1."""
    if k < 1:
        raise ValueError("index must be >= 1")
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a


# --- reflexive catalog -----------------------------------------------------

# Vertex lists transcribed from the standard picture of the 16 classes,
# each placed so that its unique interior lattice point is the origin;
# `test_reflexive_catalog_properties` and the reflexive suite check both.
_REFLEXIVE_RAW: tuple[tuple[tuple[int, int], ...], ...] = (
    ((-1, -1), (2, -1), (-1, 2)),
    ((-1, -1), (2, -1), (0, 1), (-1, 0)),
    ((-2, -1), (1, -1), (0, 1)),
    ((-1, -1), (1, -1), (1, 0), (0, 1)),
    ((-1, 0), (0, -1), (1, 0), (0, 1)),
    ((-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)),
    ((-1, 0), (0, -1), (1, -1), (1, 0), (0, 1)),
    ((-1, -1), (0, -1), (1, 0), (1, 1), (-1, 1)),
    ((-1, -1), (1, -1), (1, 1), (0, 1)),
    ((-1, -1), (1, -1), (1, 0), (0, 1), (-1, 0)),
    ((-1, -1), (1, -1), (1, 1), (-1, 1)),
    ((-1, -1), (1, 0), (0, 1)),
    ((-1, 1), (1, 1), (0, -1)),
    ((-1, 0), (0, -1), (1, -1), (0, 1)),
    ((-1, -1), (2, -1), (0, 1), (-1, 1)),
    ((-2, 1), (2, 1), (0, -1)),
)


def reflexive_catalog() -> list[RationalPolygon]:
    """The 16 integral polygons with a unique interior lattice point at 0."""
    return [hull(raw) for raw in _REFLEXIVE_RAW]


# --- triangles with 1 or 2 boundary points ---------------------------------


def example_pip_b1(i: int) -> RationalPolygon:
    """Triangle with i interior lattice points and a single boundary point."""
    if i < 1:
        raise ValueError("i must be >= 1")
    d = 2 * i + 1
    return _hull([(i, 0, 1), (-2 * i, 2 * i - 1, d), (-1, 1 - 2 * i, d)])


def example_pip_b2(i: int) -> RationalPolygon:
    """Triangle with i interior lattice points and two boundary points."""
    if i < 1:
        raise ValueError("i must be >= 1")
    return _hull([(i, 0, 1), (-i - 1, i, i + 1), (-i - 1, -i, i + 1)])


# --- solution triangles -----------------------------------------------------


def t_xyz(s: VietaSolution) -> RationalPolygon:
    """Triangle cut out by <u_k, a> <= 1 for the normals of a solution.

    The normals are (0, -1), (y, (y+z)/x), (-x, -1), with pairwise
    determinants y, z, x; they need x | y and x | z, which the
    recursively generated families satisfy but not every solution does,
    e.g. (4, 5, 81) at b = 5.
    """
    x, y, z = s.triple()
    if y % x or z % x:
        raise NotConstructibleError(
            f"({x},{y},{z}) violates the divisibility x | y, x | z"
        )
    return RationalPolygon.from_facets([(0, -1), (y, (y + z) // x), (-x, -1)], [1, 1, 1])


def fibonacci_triangle(j: int) -> RationalPolygon:
    """One-interior-point triangle with 9 boundary points and growing denominator:
    t_xyz at the solution (1, F_{2j-1}^2, F_{2j+1}^2)."""
    if j < 1:
        raise ValueError("index must be >= 1")
    return t_xyz(VietaSolution(1, fibonacci(2 * j - 1) ** 2, fibonacci(2 * j + 1) ** 2, 9))


# --- integral polygons for the full (i, b) range ----------------------------


def scott_admissible(i: int, b: int) -> bool:
    """Whether some integral polygon has i interior and b boundary points."""
    if i < 1 or b < 3:
        return False
    return b <= 9 if i == 1 else b <= 2 * i + 6


def scott_grid_polygon(i: int, b: int) -> RationalPolygon:
    """An integral polygon with profile (i, b), for any admissible pair.

    The family: a long primitive edge from (0,0) to (a, 1) closed off
    through (1, -1), optionally with a horizontal top edge of lattice
    length c = conv{(0,0), (1,-1), (a+c,1), (a,1)}, covers
    3 <= b <= 2i+4; the rectangle [0, i+1] x [0, 2] gives b = 2i+6, a
    clipped-corner pentagon gives b = 2i+5, and (1, 9) is the triangle
    conv{(-1,-1), (2,-1), (-1,2)}.  Every case is certified in tests.
    """
    if not scott_admissible(i, b):
        raise ValueError(
            f"no integral polygon has profile ({i}, {b}): "
            "require i >= 1 and 3 <= b <= (9 if i == 1 else 2*i + 6)"
        )
    if i == 1 and b == 9:
        return hull([(-1, -1), (2, -1), (-1, 2)])
    if b == 2 * i + 6:
        return hull([(0, 0), (i + 1, 0), (i + 1, 2), (0, 2)])
    if b == 2 * i + 5:
        return hull([(0, 0), (i + 1, 0), (i + 1, 1), (i, 2), (0, 2)])
    if b <= 2 * i + 2:
        a, c = 2 * i - b + 3, b - 3
    else:  # b in {2i+3, 2i+4}
        a, c = 2 * i - b + 5, b - 4
    return hull([(0, 0), (1, -1), (a + c, 1), (a, 1)])


# --- fixed-denominator constructions ----------------------------------------

_PIP_RANGES = {3: (3, 5), 4: (4, 4), 10: (5, 4)}  # d -> (slope, intercept) of max b


def construct_pip(d: int, i: int, b: int) -> RationalPolygon:
    """Denominator-d polygon with profile (i, b), for d in {3, 4, 10}.

    The allowed range is 2 <= b <= slope*i + intercept with slope,
    intercept = (3, 5), (4, 4), (5, 4) for d = 3, 4, 10.  The full
    point list is handed to hull; in the i = 1 and extremal-b cases
    some listed points fall on edges and are absorbed.
    """
    if d not in _PIP_RANGES:
        raise ValueError("denominator must be 3, 4, or 10")
    if i < 1:
        raise ValueError("i >= 1 violated")
    slope, intercept = _PIP_RANGES[d]
    if not 2 <= b <= slope * i + intercept:
        raise ValueError(f"2 <= b <= {slope}*i + {intercept} violated for (i={i}, b={b})")
    # each point (X, Y, e) stands for (X/e, Y/e) and is reduced: e is prime to X or to Y
    if d == 3:
        pts = [(i, 0, 1), (0, 1, 3), (-2, -1, 1), (b - 4, -1, 1), (3 * i + 2 * (b - 5), -2, 3)]
    elif d == 4:
        pts = [(i, 0, 1), (0, 1, 4), (-2, -1, 2), (-1, -1, 1), (b - 3, -1, 1), (4 * i + 3 * (b - 4), -3, 4)]
    else:
        pts = [(i, 0, 1), (0, 1, 5), (-3, -2, 2), (b - 3, -1, 1), (5 * i + 4 * (b - 4), -4, 5)]
    return _hull(pts)


# --- boundary-behaviour counterexamples --------------------------------------


def fourgon_distance_two() -> RationalPolygon:
    """Quadrilateral {|2x| + |3y| <= 2}: origin is its only interior
    lattice point, yet every edge sits at lattice distance 2 from it.
    Not pseudointegral."""
    return RationalPolygon.from_facets([(2, -3), (2, 3), (-2, 3), (-2, -3)], [2] * 4)


def octagon_empty_boundary() -> RationalPolygon:
    """Octagon {|x| + 2|y| <= 1, 2|x| + |y| <= 1}: integral dual, all
    edges at lattice distance 1, but no lattice point on the boundary,
    so it cannot be pseudointegral."""
    normals = [(1, -2), (2, -1), (2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2)]
    return RationalPolygon.from_facets(normals, [1] * 8)


# --- CLI dispatch -------------------------------------------------------------


def _reflexive_entry(index: int) -> RationalPolygon:
    catalog = reflexive_catalog()
    if not 0 <= index < len(catalog):
        raise ValueError(f"catalog index must be in 0..{len(catalog) - 1}")
    return catalog[index]


# family tag -> (number of integer parameters, builder taking them in order)
FAMILIES = {
    "reflexive": (1, _reflexive_entry),
    "example-b1": (1, example_pip_b1),
    "example-b2": (1, example_pip_b2),
    "t-xyz": (3, lambda x, y, z: t_xyz(VietaSolution.from_triple(x, y, z))),
    "fibonacci": (1, fibonacci_triangle),
    "scott-grid": (2, scott_grid_polygon),
    **{f"p{d}": (2, functools.partial(construct_pip, d)) for d in _PIP_RANGES},
}


def build(family: str, params: tuple[int, ...]) -> RationalPolygon:
    """Construct the polygon of a family tag and its integer parameters."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    count, builder = FAMILIES[family]
    if len(params) != count:
        raise ValueError(f"family {family!r} takes {count} parameter(s), got {len(params)}")
    return builder(*params)
