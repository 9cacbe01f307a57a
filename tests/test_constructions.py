from fractions import Fraction as F

import pytest

from pipgeom.constructions import (
    _PIP_RANGES,
    NotConstructibleError,
    build,
    construct_pip,
    example_pip_b1,
    example_pip_b2,
    fibonacci,
    fibonacci_triangle,
    fourgon_distance_two,
    octagon_empty_boundary,
    reflexive_catalog,
    scott_admissible,
    scott_grid_polygon,
    t_xyz,
)
from pipgeom.counting import count_boundary, dilate_counter
from pipgeom.ehrhart import is_pseudointegral
from pipgeom.exact import Vec2
from pipgeom.polygon import hull, triangle_invariant
from pipgeom.vieta import VietaSolution, all_reduced_solutions, family


def test_fibonacci_numbers():
    assert [fibonacci(k) for k in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_reflexive_catalog_properties():
    catalog = reflexive_catalog()
    assert len(catalog) == 16
    b_values = set()
    for P in catalog:
        assert P.is_integral
        assert P.strictly_contains(Vec2(0, 0))
        total, boundary = dilate_counter(P)(1)
        assert total - boundary == 1
        assert P.dual().is_integral
        b = count_boundary(P, 1)
        b_values.add(b)
        assert 3 <= b <= 9
        assert P.area == total - boundary + F(b, 2) - 1
    assert 9 in b_values


def test_reflexive_catalog_big_triangle():
    big = hull([Vec2(-1, -1), Vec2(2, -1), Vec2(-1, 2)])
    assert big in reflexive_catalog()
    assert count_boundary(big, 1) == 9


def test_reflexive_catalog_twelve_point_duality():
    # classical duality: boundary counts of a reflexive polygon and its
    # dual always sum to 12; a transcription slip would break this
    for P in reflexive_catalog():
        assert count_boundary(P, 1) + count_boundary(P.dual(), 1) == 12


def test_example_pip_b1():
    P = example_pip_b1(2)
    assert P == hull([Vec2(2, 0), Vec2(F(-4, 5), F(3, 5)), Vec2(F(-1, 5), F(-3, 5))])
    for i in (1, 2, 5):
        cert = is_pseudointegral(example_pip_b1(i))
        assert cert.is_pip and (cert.interior, cert.boundary) == (i, 1)


def test_example_pip_b2():
    P = example_pip_b2(2)
    assert P == hull([Vec2(2, 0), Vec2(-1, F(2, 3)), Vec2(-1, F(-2, 3))])
    for i in (1, 2, 4):
        cert = is_pseudointegral(example_pip_b2(i))
        assert cert.is_pip and (cert.interior, cert.boundary) == (i, 2)


def test_t_xyz_examples():
    T = t_xyz(VietaSolution(1, 1, 1, 9))
    assert T == hull([Vec2(-3, 2), Vec2(0, -1), Vec2(3, -1)])
    cert = is_pseudointegral(T)
    assert (cert.interior, cert.boundary) == (1, 9)

    cert2 = is_pseudointegral(t_xyz(VietaSolution(3, 6, 9, 2)))
    assert (cert2.interior, cert2.boundary) == (1, 2)


def test_t_xyz_normals_and_offsets_match_construction():
    # the defining half-planes are <u_k, a> <= 1 with u_1 = (y, (y+z)/x),
    # u_2 = (-x, -1), u_3 = (0, -1); recover them from the built polygon
    for s in ((1, 1, 1, 9), (3, 6, 9, 2), (1, 4, 25, 9)):
        sol = VietaSolution(*s)
        x, y, z = sol.triple()
        T = t_xyz(sol)
        got = {((nx, ny), F(num, den)) for nx, ny, num, den, _, _ in T.edge_table}
        expected = {((y, (y + z) // x), F(1)), ((-x, -1), F(1)), ((0, -1), F(1))}
        assert got == expected


def test_t_xyz_vertices_match_closed_form():
    # vertices worked out by hand from the facets, an independent reference
    # for the Cramer's rule in RationalPolygon.from_facets
    for seed in all_reduced_solutions():
        for state in family(seed, 4):
            x, y, z = state.solution().triple()
            total = x + y + z
            expected = [Vec2(F(-total, x * z), F(x + y, z)), Vec2(0, -1), Vec2(F(total, x * y), -1)]
            assert t_xyz(state.solution()) == hull(expected)


def test_t_xyz_rejects_bad_divisibility():
    with pytest.raises(NotConstructibleError):
        t_xyz(VietaSolution(4, 5, 81, 5))


def test_t_xyz_profile_is_seed_b_across_table():
    for seed in all_reduced_solutions():
        cert = is_pseudointegral(t_xyz(seed))
        assert cert.is_pip and (cert.interior, cert.boundary) == (1, seed.b)
        assert triangle_invariant(t_xyz(seed)) == seed.triple()


def test_boundary_counts_stay_in_allowed_range():
    # every family triangle certifies with b <= 9 and never 7
    for seed in all_reduced_solutions():
        for state in family(seed, 3):
            cert = is_pseudointegral(t_xyz(state.solution()))
            assert 1 <= cert.boundary <= 9 and cert.boundary != 7


def test_boundary_count_is_seed_b_to_depth_five():
    # direct boundary counts (no certification needed) down the families
    for seed in all_reduced_solutions():
        for state in family(seed, 5):
            T = t_xyz(state.solution())
            b = count_boundary(T, 1)
            assert b == seed.b
            assert 1 <= b <= 9 and b != 7


def test_t_xyz_per_edge_lattice_length_identity():
    # each edge's directly counted lattice length equals
    # (x + y + z) / (xyz) times the determinant of the other two normals
    for seed in all_reduced_solutions():
        x, y, z = seed.triple()
        T = t_xyz(seed)
        normals = [(nx, ny) for nx, ny, _, _, _, _ in T.edge_table]
        total = F(x + y + z, x * y * z)
        for k, (_, _, _, _, wa, wb) in enumerate(T.edge_table):
            (vx, vy), (wx, wy) = normals[(k + 1) % 3], normals[(k + 2) % 3]
            assert F(wb - wa, T.denominator) == total * (vx * wy - vy * wx)


def test_fibonacci_triangle_examples():
    T1 = fibonacci_triangle(1)
    assert T1 == hull([Vec2(F(-3, 2), F(1, 2)), Vec2(0, -1), Vec2(6, -1)])
    assert T1.denominator == 2
    cert = is_pseudointegral(T1)
    assert (cert.interior, cert.boundary) == (1, 9)


def test_fibonacci_triangle_matches_t_xyz():
    for j in range(1, 6):
        fm, fp = fibonacci(2 * j - 1), fibonacci(2 * j + 1)
        assert fibonacci_triangle(j) == t_xyz(VietaSolution.from_triple(1, fm * fm, fp * fp))
        # the same triangle written with Fibonacci ratios, worked out by hand
        r = F(3 * fm, fp)
        assert fibonacci_triangle(j) == hull([Vec2(-r, r - 1), Vec2(0, -1), Vec2(F(3 * fp, fm), -1)])


def test_fibonacci_invariants_distinct():
    values = []
    for j in range(1, 7):
        fm, fp = fibonacci(2 * j - 1), fibonacci(2 * j + 1)
        inv = triangle_invariant(fibonacci_triangle(j))
        assert inv == (1, fm * fm, fp * fp)
        values.append(inv)
    assert len(set(values)) == 6  # pairwise lattice-inequivalent witnesses


def test_scott_admissible():
    assert scott_admissible(1, 3) and scott_admissible(1, 9)
    assert not scott_admissible(1, 10)
    assert scott_admissible(2, 10) and not scott_admissible(2, 11)
    for i in range(1, 6):
        assert not scott_admissible(i, 1)
        assert not scott_admissible(i, 2)


def test_scott_grid_polygon_examples():
    for i, b in ((1, 9), (2, 10), (3, 3)):
        P = scott_grid_polygon(i, b)
        assert P.is_integral
        total, boundary = dilate_counter(P)(1)
        assert (total - boundary, boundary) == (i, b)


def test_scott_grid_polygon_full_range():
    for i in range(1, 9):
        top = 9 if i == 1 else 2 * i + 6
        for b in range(3, top + 1):
            P = scott_grid_polygon(i, b)
            assert P.is_integral
            total, boundary = dilate_counter(P)(1)
            assert (total - boundary, boundary) == (i, b), (i, b)
            assert is_pseudointegral(P).is_pip


def test_scott_grid_polygon_rejects_inadmissible():
    for i, b in ((1, 10), (2, 11), (3, 2), (1, 1), (0, 5)):
        with pytest.raises(ValueError):
            scott_grid_polygon(i, b)


def test_construct_pip_examples():
    cases = [(3, 3, 14), (4, 2, 12), (10, 2, 14)]
    for d, i, b in cases:
        P = construct_pip(d, i, b)
        assert P.denominator == d
        cert = is_pseudointegral(P)
        assert cert.is_pip and (cert.interior, cert.boundary) == (i, b)


def test_construct_pip_range_errors():
    with pytest.raises(ValueError, match=r"3\*i \+ 5"):
        construct_pip(3, 1, 9)
    with pytest.raises(ValueError, match=r"4\*i \+ 4"):
        construct_pip(4, 2, 13)
    with pytest.raises(ValueError, match=r"5\*i \+ 4"):
        construct_pip(10, 1, 10)
    with pytest.raises(ValueError):
        construct_pip(5, 1, 3)
    with pytest.raises(ValueError):
        construct_pip(3, 2, 1)


def test_counterexample_fixtures():
    Q = fourgon_distance_two()
    assert len(Q.vertices) == 4
    total, boundary = dilate_counter(Q)(1)
    assert total - boundary == 1
    O = octagon_empty_boundary()
    assert len(O.vertices) == 8
    assert count_boundary(O, 1) == 0


def test_build_dispatch():
    assert build("reflexive", (3,)) == reflexive_catalog()[3]
    assert build("example-b1", (2,)) == example_pip_b1(2)
    assert build("example-b2", (3,)) == example_pip_b2(3)
    assert build("t-xyz", (2, 4, 6)) == t_xyz(VietaSolution(2, 4, 6, 3))
    assert build("fibonacci", (2,)) == fibonacci_triangle(2)
    assert build("scott-grid", (3, 7)) == scott_grid_polygon(3, 7)
    assert build("p3", (2, 9)) == construct_pip(3, 2, 9)
    assert build("p4", (1, 5)) == construct_pip(4, 1, 5)
    assert build("p10", (2, 14)) == construct_pip(10, 2, 14)
    with pytest.raises(ValueError, match="unknown family 'unknown'"):
        build("unknown", ())
    with pytest.raises(ValueError, match=r"takes 1 parameter\(s\), got 2"):
        build("fibonacci", (1, 2))
    with pytest.raises(ValueError, match=r"catalog index must be in 0\.\.15"):
        build("reflexive", (16,))


# --- the Fraction point lists the integer constructions transcribe -----------


def _fraction_pip(d, i, b):
    if d == 3:
        return [(i, 0), (0, F(1, 3)), (-2, -1), (b - 4, -1), (i + F(2 * (b - 5), 3), F(-2, 3))]
    if d == 4:
        return [(i, 0), (0, F(1, 4)), (-1, F(-1, 2)), (-1, -1), (b - 3, -1), (i + F(3 * (b - 4), 4), F(-3, 4))]
    return [(i, 0), (0, F(1, 5)), (F(-3, 2), -1), (b - 3, -1), (i + F(4 * (b - 4), 5), F(-4, 5))]


def _fraction_scott(i, b):
    if i == 1 and b == 9:
        return [(-1, -1), (2, -1), (-1, 2)]
    if b == 2 * i + 6:
        return [(0, 0), (i + 1, 0), (i + 1, 2), (0, 2)]
    if b == 2 * i + 5:
        return [(0, 0), (i + 1, 0), (i + 1, 1), (i, 2), (0, 2)]
    a, c = (2 * i - b + 3, b - 3) if b <= 2 * i + 2 else (2 * i - b + 5, b - 4)
    return [(0, 0), (1, -1), (a + c, 1), (a, 1)]


def _fraction_families():
    """(built polygon, its Fraction point list) over each family's grid."""
    h, t, third = F(1, 2), F(1, 3), F(2, 3)
    yield fourgon_distance_two(), [(1, 0), (0, third), (-1, 0), (0, -third)]
    yield octagon_empty_boundary(), [(h, 0), (t, t), (0, h), (-t, t), (-h, 0), (-t, -t), (0, -h), (t, -t)]
    for i in range(1, 12):
        d = 2 * i + 1
        yield example_pip_b1(i), [(i, 0), (F(-2 * i, d), F(2 * i - 1, d)), (F(-1, d), F(-(2 * i - 1), d))]
        yield example_pip_b2(i), [(i, 0), (-1, F(i, i + 1)), (-1, F(-i, i + 1))]
        for d, (slope, intercept) in _PIP_RANGES.items():
            for b in range(2, slope * i + intercept + 1):
                yield construct_pip(d, i, b), _fraction_pip(d, i, b)
    for i in range(1, 15):
        for b in range(3, (9 if i == 1 else 2 * i + 6) + 1):
            yield scott_grid_polygon(i, b), _fraction_scott(i, b)


def test_integer_constructions_match_their_fraction_points():
    count = 0
    for P, points in _fraction_families():
        assert P.homogeneous == hull(points).homogeneous, points
        count += 1
    assert count == 1_193
