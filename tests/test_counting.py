import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pipgeom.constructions import (
    construct_pip,
    example_pip_b1,
    fibonacci_triangle,
    octagon_empty_boundary,
    t_xyz,
)
from pipgeom.counting import (
    _steps,
    count_boundary,
    count_total,
    dilate_counter,
)
from pipgeom.exact import AffineMap, IntMat2, Vec2
from pipgeom.polygon import DegenerateHullError, hull
from pipgeom.vieta import VietaSolution

from conftest import (
    _count_total_python,
    boundary_by_segments,
    brute_counts,
    brute_segment_points,
    fraction_lattice_length,
    lattice_progression,
    random_polygon,
    segment_lattice_points,
    translated,
)

UNIT_SQUARE = hull([Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)])
T111 = t_xyz(VietaSolution(1, 1, 1, 9))


def test_count_total_examples():
    assert count_total(UNIT_SQUARE, 3) == 16
    assert count_total(example_pip_b1(2), 1) == 3
    assert count_total(T111, 1) == 10


def test_count_boundary_examples():
    assert count_boundary(UNIT_SQUARE, 1) == 4
    assert count_boundary(octagon_empty_boundary(), 1) == 0
    assert count_boundary(fibonacci_triangle(1), 1) == 9


def interior(P, t):
    total, boundary = dilate_counter(P)(t)
    return total - boundary


def test_count_interior_examples():
    assert interior(UNIT_SQUARE, 1) == 0
    assert interior(fibonacci_triangle(1), 1) == 1
    assert interior(construct_pip(3, 3, 14), 1) == 3


def test_counts_against_brute_oracle(rng):
    cases = [UNIT_SQUARE, T111, example_pip_b1(2), octagon_empty_boundary()]
    cases += [random_polygon(rng, span=4) for _ in range(40)]
    for P in cases:
        for t in (1, 2, 5):
            total, boundary, inside = brute_counts(P, t)
            assert count_total(P, t) == total
            assert count_boundary(P, t) == boundary
            assert interior(P, t) == inside


def test_python_and_fast_paths_agree(rng):
    for _ in range(60):
        P = random_polygon(rng)
        for t in (1, 3, 11):
            assert count_total(P, t) == _count_total_python(P, t)


coords = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@given(st.lists(st.tuples(coords, coords), min_size=3, max_size=7), st.integers(1, 50))
def test_count_total_matches_column_scan(points, t):
    try:
        P = hull(points)
    except DegenerateHullError:
        assume(False)
    assert count_total(P, t) == _count_total_python(P, t)


def test_count_total_beyond_int64(rng):
    # Ehrhart polynomial of an integral polygon: area*t^2 + (B/2)*t + 1
    shift = Vec2(2**70 + 3, -(2**70) - 5)
    for _ in range(10):
        P = translated(random_polygon(rng, max_den=1), shift)
        vs = P.vertices
        B = sum(fraction_lattice_length(a, b) for a, b in zip(vs, vs[1:] + vs[:1]))
        for t in (1, 7, 999, 10**6):
            assert count_total(P, t) == P.area * t * t + B / 2 * t + 1


coords9 = st.builds(F, st.integers(-9, 9), st.integers(1, 9))


@given(st.lists(st.tuples(coords9, coords9), min_size=3, max_size=7), st.integers(1, 60))
def test_count_boundary_matches_segment_route(points, t):
    try:
        P = hull(points)
    except DegenerateHullError:
        assume(False)
    assert count_boundary(P, t) == boundary_by_segments(P, t)


def test_count_boundary_matches_segment_route_at_every_t(rng):
    for max_den in range(1, 10):
        for _ in range(8):
            P = random_polygon(rng, max_den=max_den)
            for t in range(1, 2 * P.denominator + 3):
                assert count_boundary(P, t) == boundary_by_segments(P, t)


def test_count_boundary_beyond_int64(rng):
    shift = Vec2(2**70 + 3, -(2**70) - 5)
    for _ in range(10):
        P = translated(random_polygon(rng, max_den=1), shift)
        vs = P.vertices
        B = sum(fraction_lattice_length(a, b) for a, b in zip(vs, vs[1:] + vs[:1]))
        for t in (1, 7, 999, 10**6):
            assert count_boundary(P, t) == t * B
    # an integer shift moves t*P by the lattice vector t*shift
    for _ in range(10):
        P = random_polygon(rng, max_den=5)
        Q = translated(P, shift)
        for t in range(1, 2 * P.denominator + 1):
            assert count_boundary(Q, t) == count_boundary(P, t) == boundary_by_segments(Q, t)


def test_lattice_progression_lists_the_segment_points(rng):
    for _ in range(100):
        a = Vec2(F(rng.randint(-9, 9), rng.randint(1, 3)), F(rng.randint(-9, 9), rng.randint(1, 3)))
        b = Vec2(F(rng.randint(-9, 9), rng.randint(1, 3)), F(rng.randint(-9, 9), rng.randint(1, 3)))
        if a == b:
            continue
        (x0, y0), (dx, dy), n = lattice_progression(a, b)
        pts = {Vec2(x0 + k * dx, y0 + k * dy) for k in range(n)}
        assert len(pts) == n == brute_segment_points(a, b)
        for p in pts:
            assert (b.x - a.x) * (p.y - a.y) == (b.y - a.y) * (p.x - a.x)
            assert min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(a.y, b.y)


def test_segment_lattice_points_examples():
    assert segment_lattice_points(Vec2(0, 0), Vec2(3, 0)) == 4
    assert segment_lattice_points(Vec2(0, -1), Vec2(3, -1)) == 4
    assert segment_lattice_points(Vec2(F(-4, 5), F(3, 5)), Vec2(F(-1, 5), F(-3, 5))) == 0


def test_segment_lattice_points_against_brute(rng):
    for _ in range(100):
        a = Vec2(F(rng.randint(-9, 9), rng.randint(1, 3)), F(rng.randint(-9, 9), rng.randint(1, 3)))
        b = Vec2(F(rng.randint(-9, 9), rng.randint(1, 3)), F(rng.randint(-9, 9), rng.randint(1, 3)))
        if a == b:
            continue
        assert segment_lattice_points(a, b) == brute_segment_points(a, b)


def test_segment_rejects_degenerate():
    with pytest.raises(ValueError):
        segment_lattice_points(Vec2(1, 2), Vec2(1, 2))


def test_closed_edge_count_is_lattice_length_plus_one(rng):
    for _ in range(40):
        P = random_polygon(rng, max_den=1)  # integral polygon, so D = 1
        vs = P.vertices
        for a, b, (_, _, _, _, wa, wb) in zip(vs, vs[1:] + vs[:1], P.edge_table):
            assert segment_lattice_points(a, b) == wb - wa + 1


def test_pick_formula_for_integral_polygons(rng):
    for _ in range(60):
        P = random_polygon(rng, max_den=1)
        total, boundary = dilate_counter(P)(1)
        assert P.area == total - boundary + F(boundary, 2) - 1


def test_counts_invariant_under_unimodular_maps():
    shear = AffineMap(IntMat2(1, -9, 0, 1), Vec2(0, 0))
    image = T111.apply_map(shear)
    for t in range(1, 7):
        assert count_total(image, t) == count_total(T111, t)
        assert count_boundary(image, t) == count_boundary(T111, t)


def test_count_monotonic_in_t(rng):
    for _ in range(20):
        P = random_polygon(rng)
        counts = [count_total(P, t) for t in range(1, 8)]
        assert all(a < b for a, b in zip(counts, counts[1:]))


def test_boundary_scales_linearly_for_certified_polygons():
    # certified one-interior-point triangle: boundary of t*P is t times b
    P = fibonacci_triangle(1)
    b = count_boundary(P, 1)
    for t in range(1, 3 * P.denominator + 1):
        assert count_boundary(P, t) == t * b


def test_dilate_counter_splits_total_into_boundary_and_interior():
    # T111 is a PIP with i = 1, b = 9 and area 9/2: 2 * T111 holds 18 + 9 + 1 points, 18 on its boundary
    assert dilate_counter(T111)(2) == (28, 18) == brute_counts(T111, 2)[:2]
    assert count_total(T111, 2) - count_boundary(T111, 2) == interior(T111, 2) == 10


def test_rejects_nonpositive_dilation():
    with pytest.raises(ValueError):
        count_total(T111, 0)
    with pytest.raises(ValueError):
        count_boundary(T111, -1)


def counter_floor_sum(n, m, a, b):
    """Sum of floor((a*i + b) / m) over 0 <= i < n, as `dilate_counter` counts it.

    The counter runs at D = 1 and t = 1 on a stand-in with vertices (0, 0),
    (n, 0), (n + 1, 0): the edge rows give the first edge the normal
    (-a, m) and offset b, and the two others are vertical with every
    <w, .> = 0.  The first edge spans the columns 0..n-1 (it does not end
    at x = n + 1), so the count is the n + 2 columns plus this floor sum.
    """
    rows = ((-a, m, b, 1, 0, 0), (1, 0, 0, 1, 0, 0), (1, 0, 0, 1, 0, 0))
    P = SimpleNamespace(denominator=1, scaled_vertices=((0, 0), (n, 0), (n + 1, 0)), edge_table=rows)
    total, boundary = dilate_counter(P)(1)
    assert boundary == 0
    return total - (n + 2)


def test_step_chains_match_the_naive_floor_sum():
    rng = random.Random(4400)
    cases = [(300, 7, 7 * 13, -5), (300, 7, -7 * 13, 5), (300, 10, 10 * 4 + 5, 3), (300, 10, -10 * 4 - 5, -3)]
    for _ in range(1500):
        n, m = rng.randint(0, 300), rng.randint(1, 500)
        a, b = rng.randint(-3 * m, 3 * m), rng.randint(-300 * m, 300 * m)
        cases.append((n, m, a, b))
        # a multiple of m, and a remainder of exactly half the modulus 2m
        cases.append((n, m, m * rng.randint(-3, 3), b))
        cases.append((n, 2 * m, 2 * m * rng.randint(-3, 3) + m, b))
    halves = negatives = 0
    for n, m, a, b in cases:
        assert counter_floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n)), (n, m, a, b)
        # Euclid steps with nearest-integer remainders: a = q*m + r, |r| <= m/2,
        # and the next step divides m by |r|, until r = 0
        steps, mk, ak = _steps(m, a), m, a
        for step in steps:
            _, q, r = step
            assert step == (mk, q, ak - q * mk) and 2 * abs(r) <= mk
            mk, ak = abs(r), mk
        assert mk == 0
        halves += any(2 * abs(r) == s for s, _, r in steps)
        negatives += any(r < 0 for _, _, r in steps)
    assert halves and negatives


def test_dilate_counter_matches_oracles():
    # vertices over one denominator q, so D divides q; D = q is met for each q = 1..12
    rng = random.Random(4500)
    denominators, vertical, horizontal = set(), 0, 0
    for q in range(1, 13):
        for _ in range(8):
            coordinate = lambda: F(rng.randint(-2 * q, 2 * q), q)  # noqa: E731
            pts = [Vec2(coordinate(), coordinate()) for _ in range(rng.randint(3, 6))]
            try:
                P = hull(pts)
            except DegenerateHullError:
                continue
            count, D = dilate_counter(P), P.denominator
            for t in range(1, 3 * D + 1):
                assert count(t) == (_count_total_python(P, t), boundary_by_segments(P, t)), (P, t)
            for t in (1, 2, D):
                total, boundary, _ = brute_counts(P, t)
                assert count(t) == (total, boundary), (P, t)
            denominators.add(D)
            vertical += any(ny == 0 for _, ny, _, _, _, _ in P.edge_table)
            horizontal += any(nx == 0 for nx, _, _, _, _, _ in P.edge_table)
    assert denominators == set(range(1, 13)) and vertical and horizontal


def test_dilate_counter_on_sixty_digit_coordinates():
    rng = random.Random(4600)
    Q = [rng.randint(10**59, 10**60) for _ in range(5)]
    shift = rng.randint(10**59, 10**60)
    P = hull([Vec2(F(rng.randint(-2 * q, 2 * q), q) + shift, F(rng.randint(-2 * q, 2 * q), q)) for q in Q])
    assert len(str(P.denominator)) > 100
    # 60-digit slopes give long step chains, each step at least halving m
    assert max(len(_steps(den * abs(ny), -den * nx)) for nx, ny, _, den, _, _ in P.edge_table if ny) > 40
    count = dilate_counter(P)
    # wide dilates keep n above 1 deep enough in the chains for the reverse-order shift to matter
    for t in (1, 2, 3, 97, 500):
        assert count(t) == (_count_total_python(P, t), boundary_by_segments(P, t)) == (
            count_total(P, t),
            count_boundary(P, t),
        )
