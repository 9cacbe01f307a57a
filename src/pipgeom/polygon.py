"""Convex rational polygons: hull, facets, duals, invariants.

A polygon stores each vertex once, as reduced homogeneous integers
(X, Y, d), in a canonical order (counterclockwise, starting at the
lexicographically least vertex), so that equality is structural and
fixtures are stable.  Construction goes through :func:`hull`, a
monotone-chain hull whose comparisons and orientation tests run on those
triples; collinear and interior points are absorbed.
`RationalPolygon.from_facets` builds one from facet data instead, and
the constructor alone checks every vertex cycle it is given.

The denominator D, the area and the `Fraction` view `vertices` are
derived from the triples, and every edge fact from one integer row per
edge built from the vertices V = D * v of D * P,
`RationalPolygon.edge_table`: its primitive outer normal, offset and
lattice length, from which `counting.dilate_counter` counts the boundary
and `boundary_points` lists the lattice points on each half-open edge
[A, B), so every boundary lattice point belongs to exactly one edge.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property, cmp_to_key

from .exact import AffineMap, Scalar, Vec2, format_quotient, parse_rational


class DegenerateHullError(ValueError):
    """Raised when a point set has fewer than 3 extreme points."""


class NotConvexOrderError(ValueError):
    """Raised when normals or vertices are not in strictly convex counterclockwise order."""


def _homogeneous(p: int, q: int, r: int, s: int) -> tuple[int, int, int]:
    """(p/q, r/s), both in lowest terms with q, s > 0, as reduced integers (X, Y, d) with d = lcm(q, s)."""
    d = math.lcm(q, s)
    return p * (d // q), r * (d // s), d


def _dual_step(sx: int, sy: int) -> tuple[int, int]:
    """An integer w = (u, v) with u*sx + v*sy = 1, for a primitive step (sx, sy)."""
    if sy:
        u = pow(sx, -1, abs(sy))
        return u, (1 - u * sx) // sy
    return sx, 0


def _det(u: tuple[int, int], v: tuple[int, int]) -> int:
    """Determinant u_x*v_y - u_y*v_x of two integer vectors."""
    return u[0] * v[1] - u[1] * v[0]


def _upper(n: tuple[int, int]) -> bool:
    """Whether the direction of n has angle in [0, pi)."""
    return n[1] > 0 or (n[1] == 0 and n[0] > 0)


class RationalPolygon:
    """Convex polygon with rational vertices in canonical order.

    `homogeneous` holds each vertex v = (X/d, Y/d) as reduced integers
    (X, Y, d): d > 0 and gcd(X, Y, d) = 1.  Vertices must be at least 3,
    strictly convex (no three consecutive collinear), counterclockwise,
    wind once around, and start at the lexicographically least vertex.
    Use :func:`hull` to build one from arbitrary points.
    """

    __slots__ = ("homogeneous", "__dict__")

    def __init__(self, vertices: Sequence[tuple[int, int, int]]) -> None:
        H = tuple(vertices)
        if len(H) < 3:
            raise DegenerateHullError(f"need at least 3 vertices, got {len(H)}")
        if any(d <= 0 or math.gcd(X, Y, d) != 1 for X, Y, d in H):
            raise ValueError("each vertex must be integers (X, Y, d) with d > 0 and gcd(X, Y, d) = 1")
        # each step is ad * bd * (b - a), a positive multiple of its edge vector
        steps = [(bx * ad - ax * bd, by * ad - ay * bd) for (ax, ay, ad), (bx, by, bd) in zip(H, H[1:] + H[:1])]
        nxt = steps[1:] + steps[:1]
        if any(sx * ey - sy * ex <= 0 for (sx, sy), (ex, ey) in zip(steps, nxt)):
            raise NotConvexOrderError("vertices not in strictly convex counterclockwise order")
        # every turn is left and less than a half turn, so the edge directions
        # wind once around, a convex polygon, exactly when they cross once
        # from the lower half-plane into the upper; a star winds more often
        if sum(not _upper(s) and _upper(e) for s, e in zip(steps, nxt)) != 1:
            raise NotConvexOrderError("vertices wind more than once around")
        if any(_lex_cmp(h, H[0]) < 0 for h in H):
            raise ValueError("canonical form starts at the lexicographically least vertex")
        self.homogeneous = H

    @classmethod
    def from_facets(cls, normals: Sequence[tuple[int, int]], offsets: Sequence[Scalar]) -> "RationalPolygon":
        """The polygon whose edges are exactly the facets <n_k, p> <= c_k, in order.

        `normals` are primitive integer vectors in counterclockwise order,
        `offsets` rationals.  With c_k = C_k / L over one denominator L,
        facets n = n_k and m = n_{k+1} meet at the vertex
        (C_k*m_y - C_{k+1}*n_y, C_{k+1}*n_x - C_k*m_x) / (L*det(n, m)),
        Cramer's rule on integers.  The constructor checks the vertex cycle,
        so NotConvexOrderError refuses data of no polygon, and a redundant
        facet (an edge of lattice length <= 0) is refused, never absorbed.
        """
        ns, n = list(normals), len(normals)
        if len(offsets) != n or any(math.gcd(*u) != 1 for u in ns):
            raise ValueError("need one offset per facet and primitive integer normals")
        if n < 3:
            raise NotConvexOrderError(f"need at least 3 facets, got {n}")
        L = math.lcm(*[c.denominator for c in offsets])
        C = [c.numerator * (L // c.denominator) for c in offsets]
        vertices = []
        for k in range(n):
            (nx, ny), (mx, my), c, cm = ns[k], ns[(k + 1) % n], C[k], C[(k + 1) % n]
            X, Y, d = c * my - cm * ny, cm * nx - c * mx, L * (nx * my - ny * mx)
            if d <= 0:
                raise NotConvexOrderError("consecutive normal determinants must be positive")
            g = math.gcd(X, Y, d)
            vertices.append((X // g, Y // g, d // g))
        # once the constructor accepts, every turn is left, so all edges run one
        # way along their facets: forward exactly when the edge into vertex 0,
        # on facet 0, has n_0 on its right; backward is a point reflection
        (ax, ay, ad), (bx, by, bd), (nx, ny) = vertices[-1], vertices[0], ns[0]
        if (bx * ad - ax * bd) * ny - (by * ad - ay * bd) * nx >= 0:
            raise NotConvexOrderError("every edge needs a positive lattice length")
        least = vertices.index(min(vertices, key=cmp_to_key(_lex_cmp)))
        return cls(vertices[least:] + vertices[:least])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalPolygon) and self.homogeneous == other.homogeneous

    def __hash__(self) -> int:
        return hash(self.homogeneous)

    def __repr__(self) -> str:
        pts = ", ".join(str(v) for v in self.vertices)
        return f"RationalPolygon[{pts}]"

    @cached_property
    def vertices(self) -> tuple[Vec2, ...]:
        """The vertices as `Vec2` points, in canonical order."""
        return tuple([Vec2(Fraction(X, d), Fraction(Y, d)) for X, Y, d in self.homogeneous])

    @cached_property
    def area(self) -> Fraction:
        """Exact shoelace area: the integer shoelace sum on V = D * v over 2 * D^2."""
        V, D = self.scaled_vertices, self.denominator
        return Fraction(sum(ax * by - bx * ay for (ax, ay), (bx, by) in zip(V, V[1:] + V[:1])), 2 * D * D)

    @cached_property
    def denominator(self) -> int:
        """Least positive D such that D * P has integer vertices."""
        return math.lcm(*[d for _, _, d in self.homogeneous])

    @cached_property
    def scaled_vertices(self) -> tuple[tuple[int, int], ...]:
        """The integer vertices V = D * v of D * P, for the denominator D."""
        D = self.denominator
        return tuple([(X * (D // d), Y * (D // d)) for X, Y, d in self.homogeneous])

    @cached_property
    def edge_table(self) -> tuple[tuple[int, int, int, int, int, int], ...]:
        """One integer row (n_x, n_y, num, den, <w, A>, <w, B>) per edge of D * P.

        For the edge from A to B of the vertices V = D * v, with
        g = gcd(B - A) and the primitive step s = (B - A) / g, the outward
        normal is n = (s_y, -s_x) and P's offset <n, A> / D reduces to
        num / den.  w is an integer vector with <w, s> = 1, so that
        <w, B> - <w, A> = g is the lattice length of the edge and <w, .>
        numbers the lattice points of the edge's line by consecutive integers.
        """
        D, V = self.denominator, self.scaled_vertices
        # a list, not a generator, feeds the tuple: tuple() of a generator is
        # resized to fit, and CPython then keeps the freed tuple on the free
        # list of its final size, so each op would leave one more
        rows = []
        for (ax, ay), (bx, by) in zip(V, V[1:] + V[:1]):
            g = math.gcd(bx - ax, by - ay)
            sx, sy = (bx - ax) // g, (by - ay) // g
            # outward normal of a counterclockwise edge = clockwise rotation
            nx, ny = sy, -sx
            c = nx * ax + ny * ay
            h = math.gcd(c, D)
            u, v = _dual_step(sx, sy)
            rows.append((nx, ny, c // h, D // h, u * ax + v * ay, u * bx + v * by))
        return tuple(rows)

    def boundary_points(self) -> set[tuple[int, int]]:
        """Lattice points on the boundary, from the rows of `edge_table`.

        Only an edge with den = 1 holds any: those p with <n, p> = num and
        <w, p> = j for <w, A> <= D*j < <w, B>, as det[[n_x, n_y], [u, v]] = 1.
        Each edge is half-open, so it lists its start but not its end.
        """
        D, points = self.denominator, set()
        for nx, ny, num, den, wa, wb in self.edge_table:
            if den == 1:
                u, v = _dual_step(-ny, nx)
                points.update((v * num - ny * j, nx * j - u * num) for j in range(-(-wa // D), -(-wb // D)))
        return points

    @property
    def is_integral(self) -> bool:
        return self.denominator == 1

    def strictly_contains(self, p: Vec2) -> bool:
        """Whether den * <n, p> < num holds for every row of `edge_table`."""
        return all(den * (nx * p.x + ny * p.y) < num for nx, ny, num, den, _, _ in self.edge_table)

    def bounding_box(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return min(xs), max(xs), min(ys), max(ys)

    def dual(self) -> "RationalPolygon":
        """Dual polygon conv{ n * den / num } over the rows of `edge_table`.

        Defined only when the origin is strictly interior, that is when
        every offset num / den is positive.
        """
        rows = self.edge_table
        if any(num <= 0 for _, _, num, _, _, _ in rows):
            raise ValueError("dual requires the origin strictly inside the polygon")
        # gcd(n_x, n_y) = gcd(num, den) = 1, so each (n * den, num) is reduced
        return _hull([(nx * den, ny * den, num) for nx, ny, num, den, _, _ in rows])

    def apply_map(self, m: AffineMap) -> "RationalPolygon":
        """Image under an affine map with unimodular linear part."""
        L, tx, ty = m.linear, m.translate.x.numerator, m.translate.y.numerator
        if not L.is_unimodular:
            raise ValueError(f"linear part must be unimodular, det = {L.det()}")
        # a unimodular map keeps gcd(X, Y), so the image of a reduced (X, Y, d) is reduced
        H = self.homogeneous
        return _hull([(L.a * X + L.b * Y + tx * d, L.c * X + L.d * Y + ty * d, d) for X, Y, d in H])

    def to_json_dict(self) -> dict:
        """{"vertices": [[x, y], ...]} in canonical order, each X/d and Y/d written with one gcd."""
        return {
            "vertices": [[format_quotient(X, d), format_quotient(Y, d)] for X, Y, d in self.homogeneous]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RationalPolygon":
        """Inverse of :meth:`to_json_dict`: the hull of {"vertices": [[x, y], ...]}.

        Raises ValueError unless data is a dict whose "vertices" is a list
        of two-entry lists (a bare "xy" string would otherwise unpack as a
        point).
        """
        if not isinstance(data, dict) or "vertices" not in data:
            raise ValueError('a polygon must be a JSON object with "vertices"')
        vertices = data["vertices"]
        if not isinstance(vertices, (list, tuple)) or not all(
            isinstance(v, (list, tuple)) and len(v) == 2 for v in vertices
        ):
            raise ValueError('"vertices" must be a list of [x, y] pairs')
        return _hull([_homogeneous(*parse_rational(x), *parse_rational(y)) for x, y in vertices])


def hull(points: Iterable[Vec2 | tuple[Scalar, Scalar]]) -> RationalPolygon:
    """Canonical convex hull of a rational point set.

    Monotone chain with exact orientation tests on the homogeneous
    integer coordinates (X, Y, d) of each point, so every test costs only
    the size of its own three points; interior points and points on
    edges are absorbed.  Raises :class:`DegenerateHullError` when the
    points do not span dimension 2.
    """
    vs = [Vec2(*p) for p in points]
    return _hull([_homogeneous(v.x.numerator, v.x.denominator, v.y.numerator, v.y.denominator) for v in vs])


def _hull(points: Iterable[tuple[int, int, int]]) -> RationalPolygon:
    """:func:`hull` of points given as reduced integers (X, Y, d) with d > 0."""
    # (X, Y, d) is unique per point, so a set drops duplicates
    pts = sorted(set(points), key=cmp_to_key(_lex_cmp))
    if len(pts) < 3:
        raise DegenerateHullError("hull needs at least 3 distinct points")
    # each chain ends at the point where the other begins
    vs = _chain(pts)[:-1] + _chain(reversed(pts))[:-1]
    if len(vs) < 3:
        raise DegenerateHullError("points are collinear")
    return RationalPolygon(vs)


def _lex_cmp(a: tuple[int, int, int], b: tuple[int, int, int]) -> int:
    """Sign of the lexicographic comparison of two points (X, Y, d) with d > 0."""
    return (a[0] * b[2] - b[0] * a[2]) or (a[1] * b[2] - b[1] * a[2])


def _turn(o: tuple[int, int, int], a: tuple[int, int, int], p: tuple[int, int, int]) -> int:
    """det[[ox, oy, od], [ax, ay, ad], [px, py, pd]]: with all weights d > 0,
    positive exactly when o -> a -> p turns left."""
    (ox, oy, od), (ax, ay, ad), (px, py, pd) = o, a, p
    return od * (ax * py - ay * px) - ad * (ox * py - oy * px) + pd * (ox * ay - oy * ax)


def _chain(pts: Iterable[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """One monotone chain: the points kept while every turn is strictly left."""
    out: list[tuple[int, int, int]] = []
    for p in pts:
        while len(out) >= 2 and _turn(out[-2], out[-1], p) <= 0:
            out.pop()
        out.append(p)
    return out


def edge_lattice_length_from_normals(
    normals: Sequence[tuple[int, int]], offsets: Sequence[Scalar], i: int
) -> Fraction:
    """Lattice length of edge i from primitive integer facet normals and offsets.

    With u = normals[i], its neighbours u- and u+ and their offsets c-, c
    and c+, it is (c-*det(u, u+) - c*det(u-, u+) + c+*det(u-, u)) /
    (det(u-, u) * det(u, u+)).  For a triangle with normals u (edge i), v, w
    and offsets alpha, beta, gamma that is (alpha*x + beta*y + gamma*z) / (y*z),
    with x = det(v, w), y = det(w, u), z = det(u, v).
    """
    n = len(normals)
    um, u, up = (normals[(i + k) % n] for k in (-1, 0, 1))
    cm, c, cp = (offsets[(i + k) % n] for k in (-1, 0, 1))
    d_mi, d_ip = _det(um, u), _det(u, up)
    if d_mi <= 0 or d_ip <= 0:
        raise NotConvexOrderError("consecutive normal determinants must be positive")
    return Fraction(cm * d_ip - c * _det(um, up) + cp * d_mi) / (d_mi * d_ip)


def triangle_invariant(T: RationalPolygon) -> tuple[int, int, int]:
    """Sorted pairwise determinants of a triangle's primitive outer normals.

    Invariant under lattice automorphisms and translations; for the
    one-interior-point triangles built from a Diophantine solution
    (x, y, z) the value is exactly (x, y, z).  The normals come from the
    rows of `edge_table`, so every determinant is positive.
    """
    rows = T.edge_table
    if len(rows) != 3:
        raise ValueError("triangle invariant is defined for triangles")
    u, v, w = [(nx, ny) for nx, ny, _, _, _, _ in rows]
    return tuple(sorted((_det(v, w), _det(w, u), _det(u, v))))
