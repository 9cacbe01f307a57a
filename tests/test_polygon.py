import hashlib
import math
import random
from fractions import Fraction as F

import pytest

from pipgeom.constructions import (
    construct_pip,
    fibonacci_triangle,
    fourgon_distance_two,
    octagon_empty_boundary,
    reflexive_catalog,
    t_xyz,
)
from pipgeom.counting import count_boundary
from pipgeom.exact import AffineMap, IntMat2, Vec2
from pipgeom.polygon import (
    DegenerateHullError,
    NotConvexOrderError,
    RationalPolygon,
    edge_lattice_length_from_normals,
    hull,
    triangle_invariant,
)
from pipgeom.svg import render_svg
from pipgeom.vieta import VietaSolution

from conftest import (
    fraction_edges,
    fraction_hull,
    fraction_lattice_length,
    polygon_of,
    random_polygon,
    random_triangle,
    random_unimodular,
    scale,
    sub,
)

UNIT_SQUARE = hull([Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)])
T111 = hull([Vec2(-3, 2), Vec2(0, -1), Vec2(3, -1)])


def facet_data(P: RationalPolygon) -> list[tuple[tuple[int, int], F]]:
    """(normal, offset) per row of `P.edge_table`, the normal as an integer pair."""
    return [((nx, ny), F(num, den)) for nx, ny, num, den, _, _ in P.edge_table]


def test_hull_absorbs_interior_point():
    P = hull([Vec2(0, 0), Vec2(1, 0), Vec2(0, 1), Vec2(F(1, 4), F(1, 4))])
    assert P.vertices == (Vec2(0, 0), Vec2(1, 0), Vec2(0, 1))


def test_hull_absorbs_degenerate_construction_points():
    # denominator-3 polygon at i=1: the (i + 2(b-5)/3, -2/3) point lies on
    # an edge; at the extremal b = 3i+5 the point (i, 0) does too, so the
    # doubly degenerate (1, 8) case collapses to a triangle
    P7 = construct_pip(3, 1, 7)
    assert Vec2(F(7, 3), F(-2, 3)) not in P7.vertices
    assert len(P7.vertices) == 4
    P8 = construct_pip(3, 1, 8)
    assert len(P8.vertices) == 3
    assert P8.vertices == (Vec2(-2, -1), Vec2(4, -1), Vec2(0, F(1, 3)))


def test_hull_rejects_collinear():
    with pytest.raises(DegenerateHullError):
        hull([Vec2(0, 0), Vec2(1, 1), Vec2(2, 2)])
    with pytest.raises(DegenerateHullError):
        hull([Vec2(0, 0), Vec2(1, 1)])


def test_hull_idempotent(rng):
    for _ in range(50):
        P = random_polygon(rng)
        assert hull(P.vertices) == P


def _hull_or_error(build, points):
    try:
        return build(points)
    except DegenerateHullError as exc:
        return str(exc)


def _messy_points(rng: random.Random) -> list[Vec2]:
    """Mixed denominators, repeated points and collinear runs, shuffled."""

    def q(k: int) -> F:
        return F(rng.randint(-k, k), rng.randint(1, 9))

    pts = [Vec2(q(9), q(9)) for _ in range(rng.randint(0, 6))]
    if pts and rng.random() < 0.6:
        a, step = rng.choice(pts), Vec2(q(3), q(3))
        pts += [Vec2(a.x + k * step.x, a.y + k * step.y) for k in range(1, rng.randint(2, 6))]
    pts += rng.choices(pts, k=min(len(pts), 3))
    rng.shuffle(pts)
    return pts


def test_hull_matches_fraction_chain(rng):
    for _ in range(600):
        pts = _messy_points(rng)
        assert _hull_or_error(hull, pts) == _hull_or_error(fraction_hull, pts)
        pairs = [(p.x, p.y) for p in pts]
        assert _hull_or_error(hull, pairs) == _hull_or_error(fraction_hull, pairs)


@pytest.mark.parametrize(
    "points",
    [
        [],
        [Vec2(F(1, 3), F(-2, 7))] * 4,
        [Vec2(0, 0), Vec2(F(1, 3), F(1, 2)), Vec2(0, 0)],
        [Vec2(F(k, 3), F(k, 2)) for k in (4, 0, 2, 4, 1, 3)],
        [(F(k, 5), 7) for k in range(-3, 4)],
    ],
)
def test_hull_degenerate_cases_match_fraction_chain(points):
    with pytest.raises(DegenerateHullError) as exc:
        hull(points)
    assert str(exc.value) == _hull_or_error(fraction_hull, points)


def _catalog_and_random() -> list[RationalPolygon]:
    rng = random.Random(20261018)
    polys = reflexive_catalog() + [fibonacci_triangle(2), octagon_empty_boundary(), fourgon_distance_two()]
    return polys + [random_polygon(rng, max_den=d) for d in range(1, 10) for _ in range(6)]


def test_edges_match_fraction_normals_and_offsets():
    for P in _catalog_and_random():
        vs = P.vertices
        assert [(Vec2(*n), c) for n, c in facet_data(P)] == fraction_edges(P)
        for a, b, (_, _, _, _, wa, wb) in zip(vs, vs[1:] + vs[:1], P.edge_table):
            assert F(wb - wa, P.denominator) == fraction_lattice_length(a, b)


def test_from_facets_rebuilds_every_polygon():
    for P in _catalog_and_random():
        normals, offsets = zip(*facet_data(P))
        assert RationalPolygon.from_facets(normals, offsets) == P


SQUARE_NORMALS = [(0, -1), (1, 0), (0, 1), (-1, 0)]


@pytest.mark.parametrize(
    "normals, offsets",
    [
        # consecutive determinants are all positive, but the facet
        # <(1, 1), p> <= 5 misses the square [-1, 1]^2 and would give no edge
        ([(0, -1), (1, 0), (1, 1), (0, 1), (-1, 0)], [1, 1, 5, 1, 1]),
        ([(0, -1), (1, 0), (-1, 0)], [1, 1, 1]),
        (SQUARE_NORMALS[::-1], [1, 1, 1, 1]),
        # a pentagram: every consecutive determinant and every lattice
        # length is positive, but the normals turn twice around
        ([(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)], [1, 1, 1, 1, 1]),
        # the normals turn once, but every formula length is negative: the Cramer
        # vertices are the point reflection of the triangle at offsets 1
        ([(0, -1), (1, 3), (-1, -1)], [-1, -1, -1]),
        # <(1, 1), p> <= 2 touches the square [-1, 1]^2 at its corner (1, 1),
        # so its edge has lattice length 0
        ([(0, -1), (1, 0), (1, 1), (0, 1), (-1, 0)], [1, 1, 2, 1, 1]),
        ([], []),
        ([(1, 0)], [1]),
        ([(1, 0), (-1, 1)], [1, 1]),
    ],
    ids=["redundant-facet", "zero-determinant", "reversed", "turns-twice", "inward", "touching", "0", "1", "2"],
)
def test_from_facets_refuses_data_of_no_polygon(normals, offsets):
    with pytest.raises(NotConvexOrderError):
        RationalPolygon.from_facets(normals, offsets)


def _random_facet_data(rng: random.Random) -> tuple[list[tuple[int, int]], list[F]]:
    """0 to 6 primitive normals, mostly in angular order from a random start, with random offsets."""
    n, normals = rng.choice([0, 1, 2, 3, 3, 4, 4, 5, 6]), []
    while len(normals) < n:
        u = (rng.randint(-4, 4), rng.randint(-4, 4))
        if math.gcd(*u) == 1:
            normals.append(u)
    if normals and rng.random() < 0.8:
        normals.sort(key=lambda u: math.atan2(u[1], u[0]))
        k = rng.randrange(len(normals))
        normals = normals[k:] + normals[:k]
    return normals, [F(rng.randint(-2, 6), rng.randint(1, 3)) for _ in normals]


def _facet_data_of_a_polygon(normals: list[tuple[int, int]], offsets: list[F]) -> bool:
    """The facet rule, independent of the constructor: every consecutive
    determinant is positive, the normals turn once around (their angle
    increments sum to 2*pi) and every formula length is positive."""
    pairs = list(zip(normals, normals[1:] + normals[:1]))
    if not normals or any(a[0] * b[1] - a[1] * b[0] <= 0 for a, b in pairs):
        return False
    turned = sum(math.atan2(a[0] * b[1] - a[1] * b[0], a[0] * b[0] + a[1] * b[1]) for a, b in pairs)
    if round(turned / (2 * math.pi)) != 1:
        return False
    return all(edge_lattice_length_from_normals(normals, offsets, k) > 0 for k in range(len(normals)))


def test_from_facets_refuses_exactly_data_of_no_polygon():
    rng = random.Random(20261020)
    accepted = 0
    for _ in range(6000):
        normals, offsets = _random_facet_data(rng)
        if not _facet_data_of_a_polygon(normals, offsets):
            with pytest.raises(NotConvexOrderError):
                RationalPolygon.from_facets(normals, offsets)
            continue
        accepted += 1
        P = RationalPolygon.from_facets(normals, offsets)
        rows = P.edge_table
        k = normals.index(rows[0][:2])
        normals, offsets = normals[k:] + normals[:k], offsets[k:] + offsets[:k]
        assert [(nx, ny) for nx, ny, _, _, _, _ in rows] == normals
        assert [F(num, den) for _, _, num, den, _, _ in rows] == offsets
        for j, (_, _, _, _, wa, wb) in enumerate(rows):
            assert F(wb - wa, P.denominator) == edge_lattice_length_from_normals(normals, offsets, j)
    assert 200 < accepted < 5800


def test_from_facets_refuses_non_primitive_normals():
    with pytest.raises(ValueError, match="primitive"):
        RationalPolygon.from_facets([(0, -2), (1, 0), (0, 1), (-1, 0)], [2, 1, 1, 1])
    assert RationalPolygon.from_facets(SQUARE_NORMALS, [1, 1, 1, 1]) == hull(
        [Vec2(-1, -1), Vec2(1, -1), Vec2(1, 1), Vec2(-1, 1)]
    )


def test_boundary_points_match_brute_force():
    for P in _catalog_and_random():
        facets = fraction_edges(P)
        xmin, xmax, ymin, ymax = P.bounding_box()
        brute = set()
        for x in range(math.ceil(xmin), math.floor(xmax) + 1):
            for y in range(math.ceil(ymin), math.floor(ymax) + 1):
                levels = [n.x * x + n.y * y - c for n, c in facets]
                if max(levels) == 0:
                    brute.add((x, y))
        points = P.boundary_points()
        assert points == brute
        assert len(points) == count_boundary(P, 1)


def test_svg_output_unchanged():
    # SHA-256 of the SVGs written by the Fraction edge construction
    svg = "".join(line for P in _catalog_and_random() for line in render_svg(P))
    digest = "fa1d788adeb0dbb95dfa1776fa3f040a0f552101ff35f02a286db8ddb7609027"
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


def test_integer_paths_match_fraction_hull():
    # each integer path against the Fraction hull of the same points in Fractions
    rng = random.Random(20261019)
    duals = 0
    for _ in range(200):
        P = random_polygon(rng, max_den=5)
        facets = fraction_edges(P)
        corners = []
        for (n, c), (m, cm) in zip(facets, facets[1:] + facets[:1]):
            det = n.x * m.y - n.y * m.x
            corners.append(((c * m.y - cm * n.y) / det, (cm * n.x - c * m.x) / det))
        normals = [(int(n.x), int(n.y)) for n, _ in facets]
        assert RationalPolygon.from_facets(normals, [c for _, c in facets]) == fraction_hull(corners)
        L, t = random_unimodular(rng), Vec2(rng.randint(-3, 3), rng.randint(-3, 3))
        image = [(L.a * v.x + L.b * v.y + t.x, L.c * v.x + L.d * v.y + t.y) for v in P.vertices]
        assert P.apply_map(AffineMap(L, t)) == fraction_hull(image)
        if all(c > 0 for _, c in facets):
            duals += 1
            assert P.dual() == fraction_hull([(n.x / c, n.y / c) for n, c in facets])
        pts = [(F(rng.randint(-9, 9), rng.randint(1, 5)), F(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(5)]
        data = {"vertices": [[str(x), str(y)] for x, y in pts]}
        assert _hull_or_error(RationalPolygon.from_json_dict, data) == _hull_or_error(fraction_hull, pts)
    assert duals > 0


@pytest.mark.parametrize("bad", [(0, 0, 0), (0, 0, -1), (1, 0, -1), (0, 0, 2), (2, 0, 2), (-3, 6, 9)])
def test_constructor_refuses_unreduced_triples(bad):
    # (0, 1, 1) in place of bad is a triangle in canonical form
    assert RationalPolygon([(-3, -3, 1), (1, 0, 1), (0, 1, 1)]).vertices == (Vec2(-3, -3), Vec2(1, 0), Vec2(0, 1))
    with pytest.raises(ValueError, match="gcd"):
        RationalPolygon([(-3, -3, 1), (1, 0, 1), bad])


def test_canonical_form_is_validated():
    with pytest.raises(ValueError):
        polygon_of((Vec2(0, 0), Vec2(0, 1), Vec2(1, 0)))  # clockwise
    with pytest.raises(ValueError):
        polygon_of((Vec2(1, 0), Vec2(1, 1), Vec2(0, 1), Vec2(0, 0)))  # wrong start
    with pytest.raises(ValueError):
        polygon_of((Vec2(0, 0), Vec2(F(1, 2), 0), Vec2(1, 0), Vec2(0, 1)))  # collinear run
    # the last vertex is the second least, so each start puts the least elsewhere
    vs = hull([Vec2(0, F(1, 7)), Vec2(1, F(1, 3)), Vec2(F(1, 2), 1)]).vertices
    for k in range(1, len(vs)):
        with pytest.raises(ValueError, match="lexicographically least"):
            polygon_of(vs[k:] + vs[:k])


def test_star_vertex_list_is_refused():
    # every turn is left, but the edge directions wind twice around
    star = [Vec2(F(-2, 3), F(-5, 9)), Vec2(1, 0), Vec2(F(-2, 3), F(5, 9)), Vec2(1, F(-5, 3)), Vec2(1, F(5, 3))]
    with pytest.raises(NotConvexOrderError, match="wind more than once"):
        polygon_of(star)
    assert hull(star).vertices == (star[0], star[3], star[4], star[2])


def test_unit_square_edges():
    assert facet_data(UNIT_SQUARE) == [((0, -1), 0), ((1, 0), 1), ((0, 1), 1), ((-1, 0), 0)]


def test_t111_edges():
    assert facet_data(T111) == [((-1, -1), 1), ((0, -1), 1), ((1, 2), 1)]


def test_fourgon_edges_have_offset_two():
    P = hull([Vec2(1, 0), Vec2(0, F(2, 3)), Vec2(-1, 0), Vec2(0, F(-2, 3))])
    assert {n for n, _ in facet_data(P)} == {(2, 3), (2, -3), (-2, 3), (-2, -3)}
    assert all(c == 2 for _, c in facet_data(P))


def test_edge_normals_point_outward(rng):
    for _ in range(50):
        P = random_polygon(rng)
        n = len(P.vertices)
        centroid = Vec2(
            sum((v.x for v in P.vertices), F(0)) / n,
            sum((v.y for v in P.vertices), F(0)) / n,
        )
        for (nx, ny), c in facet_data(P):
            assert nx * centroid.x + ny * centroid.y < c


def test_consecutive_normal_determinants_positive(rng):
    for _ in range(50):
        P = random_polygon(rng)
        ns = [n for n, _ in facet_data(P)]
        assert all(a[0] * b[1] - a[1] * b[0] > 0 for a, b in zip(ns, ns[1:] + ns[:1]))


def test_area_examples():
    assert UNIT_SQUARE.area == 1
    assert T111.area == F(9, 2)
    # interior 3, boundary 14, so area must be i + b/2 - 1 = 9
    assert construct_pip(3, 3, 14).area == 9


def test_area_matches_scaled_integer_polygon(rng):
    for _ in range(30):
        P = random_polygon(rng)
        d = P.denominator
        Q = hull([scale(d, v) for v in P.vertices])
        assert Q.denominator == 1
        assert P.area == Q.area / (d * d)


def test_denominator_examples():
    assert UNIT_SQUARE.denominator == 1
    assert fibonacci_triangle(1).denominator == 2
    assert construct_pip(10, 2, 14).denominator == 10


def test_lattice_distance_examples():
    # the lattice distance from the origin to the line <n, p> = c is |c|
    right = next(c for n, c in facet_data(UNIT_SQUARE) if n == (1, 0))
    assert abs(right) == 1
    assert all(abs(c) == 1 for _, c in facet_data(T111))
    fourgon = hull([Vec2(1, 0), Vec2(0, F(2, 3)), Vec2(-1, 0), Vec2(0, F(-2, 3))])
    assert all(abs(c) == 2 for _, c in facet_data(fourgon))


def test_dual_examples():
    square = hull([Vec2(1, 1), Vec2(-1, 1), Vec2(-1, -1), Vec2(1, -1)])
    diamond = hull([Vec2(1, 0), Vec2(0, 1), Vec2(-1, 0), Vec2(0, -1)])
    assert square.dual() == diamond
    assert diamond.dual() == square
    assert T111.dual() == hull([Vec2(1, 2), Vec2(-1, -1), Vec2(0, -1)])


def test_dual_requires_interior_origin():
    with pytest.raises(ValueError):
        UNIT_SQUARE.dual()  # origin is a vertex


def test_dual_involution(rng):
    count = 0
    while count < 30:
        P = random_polygon(rng)
        if not P.strictly_contains(Vec2(0, 0)):
            continue
        count += 1
        assert P.dual().dual() == P


def test_apply_map_examples():
    shear = AffineMap(IntMat2(1, 0, 1, 1), Vec2(0, 0))
    image = UNIT_SQUARE.apply_map(shear)
    assert image == hull([Vec2(0, 0), Vec2(1, 1), Vec2(1, 2), Vec2(0, 1)])
    assert T111.apply_map(AffineMap(IntMat2.identity(), Vec2(0, 0))) == T111
    with pytest.raises(ValueError):
        UNIT_SQUARE.apply_map(AffineMap(IntMat2(2, 0, 0, 1), Vec2(0, 0)))


def _edge_vectors(P: RationalPolygon) -> list[Vec2]:
    """Edge k's vector from facet data: its lattice length times the normal turned a quarter left."""
    normals, offsets = zip(*facet_data(P))
    lengths = [edge_lattice_length_from_normals(normals, offsets, k) for k in range(len(normals))]
    return [scale(length, Vec2(-ny, nx)) for length, (nx, ny) in zip(lengths, normals)]


def test_edge_vector_formula_on_square():
    square = hull([Vec2(1, 1), Vec2(-1, 1), Vec2(-1, -1), Vec2(1, -1)])
    vs = square.vertices
    for v, a, b in zip(_edge_vectors(square), vs, vs[1:] + vs[:1]):
        assert v == sub(b, a)
        assert abs(v.x) + abs(v.y) == 2  # side length 2, axis-parallel


def test_edge_vector_formula_on_t111_bottom_edge():
    bottom = [n for n, _ in facet_data(T111)].index((0, -1))
    assert _edge_vectors(T111)[bottom] == Vec2(3, 0)
    vs = T111.vertices
    assert sub(vs[(bottom + 1) % 3], vs[bottom]) == Vec2(3, 0)


def test_edge_vector_formula_rejects_bad_order():
    with pytest.raises(NotConvexOrderError):
        edge_lattice_length_from_normals(SQUARE_NORMALS[::-1], [1, 1, 1, 1], 0)


def test_formulas_match_geometry_randomized(rng):
    for _ in range(100):
        T = random_triangle(rng)
        vs = T.vertices
        for v, a, b, row in zip(_edge_vectors(T), vs, vs[1:] + vs[:1], T.edge_table):
            assert v == sub(b, a)
            assert fraction_lattice_length(a, b) == F(row[5] - row[4], T.denominator)


def test_lattice_length_examples():
    for P, length in ((T111, 3), (UNIT_SQUARE, 1)):
        assert all(F(wb - wa, P.denominator) == length for _, _, _, _, wa, wb in P.edge_table)
    normals = [n for n, _ in facet_data(T111)]
    for k in range(3):
        assert edge_lattice_length_from_normals(normals, [1, 1, 1], k) == 3


def test_triangle_invariant_examples():
    assert triangle_invariant(T111) == (1, 1, 1)
    assert triangle_invariant(fibonacci_triangle(1)) == (1, 1, 4)
    assert triangle_invariant(t_xyz(VietaSolution(3, 6, 9, 2))) == (3, 6, 9)


def test_triangle_invariant_unimodular_invariance(rng):
    for _ in range(100):
        T = random_triangle(rng)
        m = AffineMap(random_unimodular(rng), Vec2(rng.randint(-4, 4), rng.randint(-4, 4)))
        assert triangle_invariant(T.apply_map(m)) == triangle_invariant(T)


def test_triangle_invariant_rejects_nontriangle():
    with pytest.raises(ValueError):
        triangle_invariant(UNIT_SQUARE)


def test_polygon_json_roundtrip():
    T = fibonacci_triangle(1)
    data = T.to_json_dict()
    assert data == {"vertices": [["-3/2", "1/2"], ["0", "-1"], ["6", "-1"]]}
    assert RationalPolygon.from_json_dict(data) == T
