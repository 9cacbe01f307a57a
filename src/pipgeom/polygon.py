"""Convex rational polygons: hull, edges, normals, duals, invariants.

Polygons are stored in a canonical form (counterclockwise, starting at
the lexicographically least vertex) so that equality is structural and
fixtures are stable.  Construction goes through :func:`hull`, a
monotone-chain hull with an exact rational orientation predicate;
collinear and interior points are absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .exact import AffineMap, Scalar, Vec2, det2, format_rational, parse_rational, primitive


class DegenerateHullError(ValueError):
    """Raised when a point set has fewer than 3 extreme points."""


class NotConvexOrderError(ValueError):
    """Raised when normals are not in strictly convex counterclockwise order."""


def _cross(o: Vec2, a: Vec2, b: Vec2) -> Fraction:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def _lex_key(v: Vec2) -> tuple[Fraction, Fraction]:
    return (v.x, v.y)


@dataclass(frozen=True)
class Edge:
    """Closed polygon edge with its primitive outer normal.

    `offset` is the common value of <normal, p> over the edge; the
    polygon lies in <normal, p> <= offset.
    """

    start: Vec2
    end: Vec2
    normal: Vec2
    offset: Fraction

    def lattice_distance(self, p: Vec2) -> Fraction:
        """Lattice distance from p to the affine span of the edge."""
        return abs(self.normal.dot(p) - self.offset)

    def lattice_length(self) -> Fraction:
        """Length of the edge measured in lattice steps along its span."""
        return segment_lattice_length(self.start, self.end)


def segment_lattice_length(a: Vec2, b: Vec2) -> Fraction:
    """Lattice length of the segment [a, b]: |b-a| over its primitive direction."""
    w = b - a
    if w.x == 0 and w.y == 0:
        return Fraction(0)
    m = math.lcm(w.x.denominator, w.y.denominator)
    wx, wy = int(w.x * m), int(w.y * m)
    return Fraction(math.gcd(abs(wx), abs(wy)), m)


class RationalPolygon:
    """Convex polygon with rational vertices in canonical order.

    Vertices must be at least 3, strictly convex (no three consecutive
    collinear), counterclockwise, and start at the lexicographically
    least vertex.  Use :func:`hull` to build one from arbitrary points.
    """

    __slots__ = ("vertices", "__dict__")

    def __init__(self, vertices: Sequence[Vec2]) -> None:
        vs = tuple(vertices)
        if len(vs) < 3:
            raise DegenerateHullError(f"need at least 3 vertices, got {len(vs)}")
        n = len(vs)
        for i in range(n):
            if _cross(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]) <= 0:
                raise ValueError("vertices not in strictly convex counterclockwise order")
        least = min(range(n), key=lambda i: _lex_key(vs[i]))
        if least != 0:
            raise ValueError("canonical form starts at the lexicographically least vertex")
        self.vertices = vs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalPolygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        pts = ", ".join(str(v) for v in self.vertices)
        return f"RationalPolygon[{pts}]"

    @cached_property
    def area(self) -> Fraction:
        """Exact shoelace area (positive: vertices are counterclockwise)."""
        total = Fraction(0)
        vs = self.vertices
        for i in range(len(vs)):
            j = (i + 1) % len(vs)
            total += vs[i].x * vs[j].y - vs[j].x * vs[i].y
        return total / 2

    @cached_property
    def denominator(self) -> int:
        """Least positive k such that k * P has integer vertices."""
        d = 1
        for v in self.vertices:
            d = math.lcm(d, v.x.denominator, v.y.denominator)
        return d

    @cached_property
    def _edges(self) -> tuple[Edge, ...]:
        out = []
        vs = self.vertices
        for i in range(len(vs)):
            a, b = vs[i], vs[(i + 1) % len(vs)]
            d = b - a
            m = math.lcm(d.x.denominator, d.y.denominator)
            dir_prim = primitive(Vec2(d.x * m, d.y * m))
            # outward normal of a counterclockwise edge = clockwise rotation
            normal = Vec2(dir_prim.y, -dir_prim.x)
            out.append(Edge(a, b, normal, normal.dot(a)))
        return tuple(out)

    @cached_property
    def column_sums(self) -> tuple[int, int, int, tuple[tuple[int, int, int, int, int], ...]]:
        """Integer data for counting lattice points in dilates by columns.

        (D, x_lo, x_hi, edges): the denominator D, the x-extent of D * P,
        and (lo, hi, m, a, c) per non-vertical edge.  The edge spans
        lo/D <= x <= hi/D; at column x of t * P an upper edge gives
        y <= (c*t - a*x) / m and a lower edge y >= -(c*t - a*x) / m.
        """
        D = self.denominator
        edges = []
        for e in self._edges:
            nx, ny = e.normal.as_ints()
            if ny == 0:
                continue
            # <n, p> <= num/den over t * P is den*nx*x + den*ny*y <= num*t
            num, den = e.offset.numerator, e.offset.denominator
            lo, hi = sorted((int(D * e.start.x), int(D * e.end.x)))
            edges.append((lo, hi, den * abs(ny), den * nx, num))
        xs = [int(D * v.x) for v in self.vertices]
        return D, min(xs), max(xs), tuple(edges)

    def edges(self) -> tuple[Edge, ...]:
        """Edges in counterclockwise order, starting at the first vertex."""
        return self._edges

    @property
    def is_integral(self) -> bool:
        return self.denominator == 1

    def contains(self, p: Vec2) -> bool:
        return all(e.normal.dot(p) <= e.offset for e in self._edges)

    def strictly_contains(self, p: Vec2) -> bool:
        return all(e.normal.dot(p) < e.offset for e in self._edges)

    def bounding_box(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return min(xs), max(xs), min(ys), max(ys)

    def translate(self, t: Vec2) -> "RationalPolygon":
        return hull([v + t for v in self.vertices])

    def dual(self) -> "RationalPolygon":
        """Dual polygon conv{ normal / offset } over all edges.

        Defined only when the origin is strictly interior, which makes
        every edge offset positive.
        """
        origin = Vec2(0, 0)
        if not self.strictly_contains(origin):
            raise ValueError("dual requires the origin strictly inside the polygon")
        return hull([Vec2(e.normal.x / e.offset, e.normal.y / e.offset) for e in self._edges])

    def apply_map(self, m: AffineMap) -> "RationalPolygon":
        """Image under an affine map with unimodular linear part."""
        if not m.linear.is_unimodular:
            raise ValueError(f"linear part must be unimodular, det = {m.linear.det()}")
        return hull([m.apply(v) for v in self.vertices])

    def to_json_dict(self) -> dict:
        return {
            "vertices": [[format_rational(v.x), format_rational(v.y)] for v in self.vertices]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RationalPolygon":
        """Inverse of :meth:`to_json_dict`: the hull of {"vertices": [[x, y], ...]}.

        Raises ValueError unless "vertices" is a list of two-entry lists
        (a bare "xy" string would otherwise unpack as a point).
        """
        vertices = data["vertices"]
        if not isinstance(vertices, (list, tuple)) or not all(
            isinstance(v, (list, tuple)) and len(v) == 2 for v in vertices
        ):
            raise ValueError('"vertices" must be a list of [x, y] pairs')
        return hull([Vec2(parse_rational(x), parse_rational(y)) for x, y in vertices])


def hull(points: Iterable[Vec2 | tuple[Scalar, Scalar]]) -> RationalPolygon:
    """Canonical convex hull of a rational point set.

    Monotone chain with exact orientation tests; interior points and
    points on edges are absorbed.  Raises :class:`DegenerateHullError`
    when the points do not span dimension 2.
    """
    pts = sorted(
        {p if isinstance(p, Vec2) else Vec2(*p) for p in points},
        key=_lex_key,
    )
    if len(pts) < 3:
        raise DegenerateHullError("hull needs at least 3 distinct points")
    lower: list[Vec2] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Vec2] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    vs = lower[:-1] + upper[:-1]
    if len(vs) < 3:
        raise DegenerateHullError("points are collinear")
    return RationalPolygon(vs)


def edge_vector_from_normals(
    normals: Sequence[Vec2], offsets: Sequence[Scalar], i: int
) -> Vec2:
    """Edge vector of edge i of the polygon with the given facet data.

    Normals must be in counterclockwise order with every consecutive
    determinant positive.  The result equals end - start of edge i when
    edges are indexed counterclockwise.
    """
    return edge_lattice_length_from_normals(normals, offsets, i) * normals[i % len(normals)].perp()


def edge_lattice_length_from_normals(
    normals: Sequence[Vec2], offsets: Sequence[Scalar], i: int
) -> Fraction:
    """Lattice length of edge i from primitive facet normals and offsets."""
    n = len(normals)
    um, u, up = normals[(i - 1) % n], normals[i % n], normals[(i + 1) % n]
    cm, c, cp = (Fraction(offsets[(i + k) % n]) for k in (-1, 0, 1))
    d_mi = det2(um, u)
    d_ip = det2(u, up)
    if d_mi <= 0 or d_ip <= 0:
        raise NotConvexOrderError("consecutive normal determinants must be positive")
    return (cm * d_ip - c * det2(um, up) + cp * d_mi) / (d_mi * d_ip)


def triangle_edge_lattice_length(
    normals: Sequence[Vec2], offsets: Sequence[Scalar], i: int
) -> Fraction:
    """Triangle specialization of the lattice-length formula.

    With u the primitive outer normal of edge i and v, w the remaining
    normals counterclockwise from it, the length is
    (alpha*x + beta*y + gamma*z) / (x*y*z) * x for the pairwise
    determinants x = det(v, w), y = det(w, u), z = det(u, v).
    """
    if len(normals) != 3:
        raise ValueError("specialized formula applies to triangles only")
    u, v, w = (normals[(i + k) % 3] for k in (0, 1, 2))
    alpha, beta, gamma = (Fraction(offsets[(i + k) % 3]) for k in (0, 1, 2))
    x, y, z = det2(v, w), det2(w, u), det2(u, v)
    if x <= 0 or y <= 0 or z <= 0:
        raise NotConvexOrderError("triangle normals must be in counterclockwise order")
    return (alpha * x + beta * y + gamma * z) / (x * y * z) * x


def triangle_invariant(T: RationalPolygon) -> tuple[int, int, int]:
    """Sorted pairwise determinants of a triangle's primitive outer normals.

    Invariant under lattice automorphisms and translations; for the
    one-interior-point triangles built from a Diophantine solution
    (x, y, z) the value is exactly (x, y, z).
    """
    es = T.edges()
    if len(es) != 3:
        raise ValueError("triangle invariant is defined for triangles")
    u, v, w = es[0].normal, es[1].normal, es[2].normal
    vals = sorted((det2(v, w), det2(w, u), det2(u, v)))
    if vals[0] <= 0:
        raise ValueError("degenerate triangle")
    return tuple(int(d) for d in vals)  # determinants of integer normals are ints
