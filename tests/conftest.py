"""Shared fixtures: counting oracles and random generators.

The brute counters decide membership point by point with half-plane
tests over the bounding box, deliberately sharing no code with the
floor-sum counter they check.  The column scan `_count_total_python`
is the second oracle: it bounds each column of the dilate directly
instead of summing floors edge by edge.  Both take their half-planes
from `fraction_edges`, never from `RationalPolygon.edge_table`, whose
rows the counters under test read.

The Vieta oracles `brute_b_sweep` and `brute_general_bound` visit
every sorted tuple up to the bound, with no divisor pruning.
`pruned_b_sweep` and `pruned_general_bound` are the second oracle, fast
enough for the benchmark's sizes: they walk every sorted prefix and try
as last entry only the divisors of the prefix sum's square, one prefix
at a time instead of grouped by sum.

`fraction_of_text` reads a "p" / "p/q" text with `Fraction`'s own
parser, the oracle of `exact.parse_rational`.

`fraction_fit_coeffs` is the residue fit in `Fraction` arithmetic:
divided differences through three samples per residue class, against
which the integer finite-difference fit is checked.

The integer edge table has `Fraction` oracles: `lattice_progression`
lists the lattice points of a rational segment, `boundary_by_segments`
counts the boundary of t*P with it over the pairs of consecutive
vertices, `fraction_hull` is the monotone chain with `Fraction`
orientation tests, `fraction_edges` takes each edge's primitive normal
and offset from `Fraction` differences, and `fraction_lattice_length`
each edge's lattice length.  They work on `Vec2` points with the
helpers `sub`, `scale` and `primitive` below, which the package does
not keep: its polygons hold integer vertices.  `polygon_of` and
`translated` build polygons from `Vec2` vertices.

The random generators are the `properties` suite's own, so a seeded test
sees the same instance stream as the suite; `random_triangle` differs
from the suite's triangle generator and stays here.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

import pytest

from pipgeom.counting import count_total
from pipgeom.exact import Vec2
from pipgeom.polygon import DegenerateHullError, RationalPolygon, hull
from pipgeom.suites import _random_polygon as random_polygon
from pipgeom.suites import _random_unimodular as random_unimodular
from pipgeom.vieta import NTuple, _square_divisors, is_solution


def sub(b: Vec2, a: Vec2) -> Vec2:
    """The vector b - a."""
    return Vec2(b.x - a.x, b.y - a.y)


def scale(k: int | Fraction, v: Vec2) -> Vec2:
    """The vector k * v."""
    return Vec2(k * v.x, k * v.y)


def primitive(x: int, y: int) -> tuple[int, int]:
    """The nonzero integer vector (x, y) divided by the gcd of its entries.

    The result is the primitive lattice vector with the same direction.
    """
    if x == 0 and y == 0:
        raise ValueError("zero vector has no primitive direction")
    g = math.gcd(x, y)
    return x // g, y // g


def polygon_of(vertices: Sequence[Vec2]) -> RationalPolygon:
    """The polygon of `Vec2` vertices in canonical order, as its constructor checks them."""
    out = []
    for v in vertices:
        d = math.lcm(v.x.denominator, v.y.denominator)
        out.append((int(v.x * d), int(v.y * d), d))
    return RationalPolygon(out)


def translated(P: RationalPolygon, shift: Vec2) -> RationalPolygon:
    """P moved by the vector shift."""
    return hull([Vec2(v.x + shift.x, v.y + shift.y) for v in P.vertices])


def brute_counts(P: RationalPolygon, t: int = 1) -> tuple[int, int, int]:
    """(total, boundary, interior) of t*P by exhaustive membership tests."""
    edges = fraction_edges(P)
    xmin, xmax, ymin, ymax = P.bounding_box()
    total = boundary = 0
    for x in range(math.ceil(t * xmin), math.floor(t * xmax) + 1):
        for y in range(math.ceil(t * ymin), math.floor(t * ymax) + 1):
            vals = [(n.x * x + n.y * y, t * c) for n, c in edges]
            if all(v <= c for v, c in vals):
                total += 1
                if any(v == c for v, c in vals):
                    boundary += 1
    return total, boundary, total - boundary


def _count_total_python(P: RationalPolygon, t: int) -> int:
    """Lattice points in t*P by a column scan over integer x.

    Each facet <n, p> <= c with c = num/den becomes the integer
    inequality den*n_x*X + den*n_y*Y <= num*t for the dilate t.
    Vertical facets (n_y = 0) only delimit the x-range, which the
    vertex extremes already encode, so they are dropped.
    """
    uppers, lowers = [], []
    for normal, offset in fraction_edges(P):
        nx, ny = int(normal.x), int(normal.y)
        num, den = offset.numerator, offset.denominator
        a, b, c = den * nx, den * ny, num
        if b > 0:
            uppers.append((a, b, c))
        elif b < 0:
            lowers.append((a, b, c))
    xmin, xmax, _, _ = P.bounding_box()
    total = 0
    for x in range(math.ceil(t * xmin), math.floor(t * xmax) + 1):
        hi = min((c * t - a * x) // b for a, b, c in uppers)
        # ceil(A/b) for b < 0 is -(A // -b)
        lo = max(-((c * t - a * x) // -b) for a, b, c in lowers)
        if hi >= lo:
            total += hi - lo + 1
    return total


def _fit_quadratic(samples: list[tuple[int, int]]) -> tuple[Fraction, Fraction, Fraction]:
    """Exact quadratic through three (t, value) points, via divided differences."""
    (t0, n0), (t1, n1), (t2, n2) = samples
    d1 = Fraction(n1 - n0, t1 - t0)
    d2 = Fraction(n2 - n1, t2 - t1)
    c2 = (d2 - d1) / (t2 - t0)
    c1 = d1 - c2 * (t0 + t1)
    c0 = n0 - c1 * t0 - c2 * t0 * t0
    return c0, c1, c2


def fraction_of_text(text: str) -> Fraction:
    """The value of a text in the grammar of `exact.parse_rational`, read by `Fraction`.

    `Fraction` also takes decimals, exponents and underscores, so pass only
    texts in the grammar: optional whitespace and sign, ASCII digits, "/digits".
    """
    return Fraction(text)


def fraction_fit_coeffs(P: RationalPolygon) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    """One quadratic per residue r mod den(P), fitted at r, r+D, r+2D (D, 2D, 3D for r = 0)."""
    D = P.denominator
    fits = []
    for r in range(D):
        ts = [D, 2 * D, 3 * D] if r == 0 else [r, r + D, r + 2 * D]
        fits.append(_fit_quadratic([(t, count_total(P, t)) for t in ts]))
    return tuple(fits)


def brute_segment_points(a: Vec2, b: Vec2) -> int:
    """Lattice points on [a, b] by scanning the bounding box."""
    count = 0
    for x in range(math.ceil(min(a.x, b.x)), math.floor(max(a.x, b.x)) + 1):
        for y in range(math.ceil(min(a.y, b.y)), math.floor(max(a.y, b.y)) + 1):
            p = Vec2(x, y)
            cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
            within = min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(a.y, b.y)
            if cross == 0 and within:
                count += 1
    return count


def lattice_progression(a: Vec2, b: Vec2) -> tuple[tuple[int, int], tuple[int, int], int]:
    """Lattice points on the closed rational segment [a, b], a != b.

    Returns (first, step, count): the points are first + k * step for
    0 <= k < count, with step the primitive direction from a to b.
    They exist only when <n, a> is an integer for the primitive normal
    n = (step_y, -step_x) of the segment's line.
    """
    if a == b:
        raise ValueError("segment endpoints must differ")
    w = sub(b, a)
    m = math.lcm(w.x.denominator, w.y.denominator)
    dx, dy = primitive(int(w.x * m), int(w.y * m))
    c = dy * a.x - dx * a.y
    if c.denominator != 1:
        return (0, 0), (dx, dy), 0
    # one lattice point on the line is c * (u, v) with dy*u - dx*v = 1
    u = pow(dy, -1, abs(dx)) if dx else dy
    v = (dy * u - 1) // dx if dx else 0
    x0, y0 = int(c) * u, int(c) * v
    # a + s * step for 0 <= s <= length covers [a, b]; (x0, y0) sits at s0
    norm = dx * dx + dy * dy
    s0 = ((x0 - a.x) * dx + (y0 - a.y) * dy) / norm
    length = (w.x * dx + w.y * dy) / norm
    k0 = math.ceil(-s0)
    return (x0 + k0 * dx, y0 + k0 * dy), (dx, dy), math.floor(length - s0) - k0 + 1


def segment_lattice_points(a: Vec2, b: Vec2) -> int:
    """Number of lattice points on the closed rational segment [a, b]."""
    return lattice_progression(a, b)[2]


def fraction_lattice_length(a: Vec2, b: Vec2) -> Fraction:
    """Lattice length of the segment [a, b]: |b-a| over its primitive direction."""
    w = sub(b, a)
    if w.x == 0 and w.y == 0:
        return Fraction(0)
    m = math.lcm(w.x.denominator, w.y.denominator)
    wx, wy = int(w.x * m), int(w.y * m)
    return Fraction(math.gcd(abs(wx), abs(wy)), m)


def boundary_by_segments(P: RationalPolygon, t: int) -> int:
    """Boundary lattice points of t*P: closed edges, less each lattice vertex once."""
    vs = P.vertices
    total = sum(segment_lattice_points(scale(t, a), scale(t, b)) for a, b in zip(vs, vs[1:] + vs[:1]))
    return total - sum(1 for v in P.vertices if scale(t, v).is_integral)


def fraction_hull(points) -> RationalPolygon:
    """Monotone-chain hull with `Fraction` cross products."""

    def cross(o: Vec2, a: Vec2, b: Vec2) -> Fraction:
        return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)

    pts = sorted({p if isinstance(p, Vec2) else Vec2(*p) for p in points}, key=lambda v: (v.x, v.y))
    if len(pts) < 3:
        raise DegenerateHullError("hull needs at least 3 distinct points")
    chains = []
    for seq in (pts, pts[::-1]):
        chain: list[Vec2] = []
        for p in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    vs = chains[0] + chains[1]
    if len(vs) < 3:
        raise DegenerateHullError("points are collinear")
    return polygon_of(vs)


def fraction_edges(P: RationalPolygon) -> list[tuple[Vec2, Fraction]]:
    """(outward primitive normal, offset) per edge, from `Fraction` edge vectors."""
    out = []
    vs = P.vertices
    for a, b in zip(vs, vs[1:] + vs[:1]):
        d = sub(b, a)
        m = math.lcm(d.x.denominator, d.y.denominator)
        sx, sy = primitive(int(d.x * m), int(d.y * m))
        normal = Vec2(sy, -sx)
        out.append((normal, normal.x * a.x + normal.y * a.y))
    return out


def brute_b_sweep(bound: int) -> dict[int, tuple[int, int, int]]:
    """First witness per b over every 1 <= x <= y <= z <= bound, in order."""
    witnesses: dict[int, tuple[int, int, int]] = {}
    for x in range(1, bound + 1):
        for y in range(x, bound + 1):
            for z in range(y, bound + 1):
                s = x + y + z
                if (s * s) % (x * y * z) == 0:
                    witnesses.setdefault((s * s) // (x * y * z), (x, y, z))
    return witnesses


def brute_general_bound(n: int, bound: int) -> tuple[NTuple, ...]:
    """Every sorted n-tuple with entries <= bound and integer b, in order."""
    solutions = []
    for combo in combinations_with_replacement(range(1, bound + 1), n):
        b = is_solution(*combo)
        if b is not None:
            solutions.append(NTuple(combo, b))
    return tuple(solutions)


def pruned_b_sweep(bound: int) -> dict[int, tuple[int, int, int]]:
    """First witness per b, trying for each (x, y) only the z | (x+y)^2."""
    divs = _square_divisors(2 * bound, bound)
    witnesses: dict[int, tuple[int, int, int]] = {}
    for x in range(1, bound + 1):
        for y in range(x, bound + 1):
            xy = x * y
            sxy = x + y
            zs = divs[sxy]
            for z in zs[bisect_left(zs, y) :]:
                s = sxy + z
                if (s * s) % (xy * z) == 0:
                    witnesses.setdefault((s * s) // (xy * z), (x, y, z))
    return witnesses


def pruned_general_bound(n: int, bound: int) -> tuple[NTuple, ...]:
    """Every solution up to bound, trying per sorted prefix only the last entries v | sum^2."""
    divs = _square_divisors((n - 1) * bound, bound)
    solutions = []
    for prefix in combinations_with_replacement(range(1, bound + 1), n - 1):
        lasts = divs[sum(prefix)]
        for v in lasts[bisect_left(lasts, prefix[-1]) :]:
            combo = prefix + (v,)
            b = is_solution(*combo)
            if b is not None:
                solutions.append(NTuple(combo, b))
    return tuple(solutions)


def random_triangle(rng: random.Random, span: int = 6, max_den: int = 3) -> RationalPolygon:
    while True:
        pts = [
            Vec2(
                Fraction(rng.randint(-span, span), rng.randint(1, max_den)),
                Fraction(rng.randint(-span, span), rng.randint(1, max_den)),
            )
            for _ in range(3)
        ]
        try:
            T = hull(pts)
        except DegenerateHullError:
            continue
        if len(T.vertices) == 3:
            return T


@pytest.fixture
def rng() -> random.Random:
    return random.Random(987654321)
