import pytest
from hypothesis import given
from hypothesis import strategies as st

from pipgeom import vieta
from pipgeom.cli import VERIFY_SEARCH_LIMIT
from pipgeom.suites import _brute_reduced
from pipgeom.vieta import (
    BoundViolationError,
    NTuple,
    VietaSolution,
    _reduced_triples,
    _reduced_tuples,
    _sorted_solutions,
    all_reduced_solutions,
    enumerate_reduced,
    family,
    is_solution,
    is_vieta_reduced,
    jump_forest,
    reduce_tuple,
    search_cost,
    solution_b_sweep,
    verify_general_bound,
    vieta_jump,
    vieta_reduce,
)

from conftest import (
    brute_b_sweep,
    brute_general_bound,
    divisor_search,
    pruned_b_sweep,
    pruned_general_bound,
    square_divisors,
)

TABLE = {
    1: {(5, 20, 25), (6, 12, 18), (8, 8, 16), (9, 9, 9)},
    2: {(3, 6, 9), (4, 4, 8)},
    3: {(2, 4, 6), (3, 3, 3)},
    4: {(2, 2, 4)},
    5: {(1, 4, 5)},
    6: {(1, 2, 3)},
    7: set(),
    8: {(1, 1, 2)},
    9: {(1, 1, 1)},
}


def test_is_solution_examples():
    assert is_solution(1, 1, 1) == 9
    assert is_solution(3, 6, 9) == 2
    assert is_solution(1, 2, 4) is None
    with pytest.raises(ValueError):
        is_solution(0, 1, 1)


def test_solution_type_validates():
    with pytest.raises(ValueError):
        VietaSolution(1, 2, 4, 6)
    with pytest.raises(ValueError):
        VietaSolution(2, 1, 1, 9)  # unsorted
    assert VietaSolution.from_triple(9, 6, 3).triple() == (3, 6, 9)


def test_is_vieta_reduced_examples():
    assert is_vieta_reduced(VietaSolution(1, 1, 1, 9))
    assert not is_vieta_reduced(VietaSolution(1, 1, 4, 9))
    assert is_vieta_reduced(VietaSolution(5, 20, 25, 1))


def test_vieta_reduce_examples():
    assert vieta_reduce(VietaSolution(1, 4, 25, 9)).triple() == (1, 1, 1)
    assert vieta_reduce(VietaSolution(1, 1, 1, 9)).triple() == (1, 1, 1)
    assert vieta_reduce(VietaSolution(3, 6, 9, 2)).triple() == (3, 6, 9)


def test_vieta_jump_examples():
    assert vieta_jump(VietaSolution(1, 1, 1, 9), 2).triple() == (1, 1, 4)
    assert vieta_jump(VietaSolution(1, 1, 4, 9), 1).triple() == (1, 4, 25)


def test_jump_stays_in_solution_set():
    s = VietaSolution(3, 6, 9, 2)
    for pos in range(3):
        t = vieta_jump(s, pos)
        assert is_solution(*t.triple()) == 2


def test_top_jump_twice_is_identity_on_reduced_solutions():
    # a reduced solution jumps its maximum up; the image keeps the same
    # two smaller entries, so repeating the top jump comes straight back
    for s in all_reduced_solutions():
        up = vieta_jump(s, 2)
        assert vieta_jump(up, 2) == s


def test_jump_reversibility_from_any_node():
    s = VietaSolution(1, 4, 25, 9)
    once = vieta_jump(s, 2)  # conjugate of 25 over (1, 4) is 1
    assert once.triple() == (1, 1, 4)
    # the new entry sits at slot 0 now; jumping it back recovers s
    assert vieta_jump(once, 0).triple() == (1, 4, 25)


def test_enumerate_reduced_matches_table():
    for b, expected in TABLE.items():
        assert {s.triple() for s in enumerate_reduced(b)} == expected
    with pytest.raises(ValueError):
        enumerate_reduced(10)


def test_all_reduced_solutions_has_13_rows():
    table = all_reduced_solutions()
    assert len(table) == 13
    assert all(is_vieta_reduced(s) for s in table)


@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40))
def test_every_solution_reduces_into_table(x, y, z):
    b = is_solution(x, y, z)
    if b is None:
        return
    s = VietaSolution.from_triple(x, y, z)
    r = vieta_reduce(s)
    assert is_vieta_reduced(r)
    assert r.b == b
    assert r.triple() in TABLE[b]


def test_jump_forest_b9():
    forest = jump_forest(9, 30)
    nodes = {s.triple() for s in forest}
    assert nodes == {(1, 1, 1), (1, 1, 4), (1, 4, 25)}
    assert {t.triple() for t in forest[VietaSolution(1, 1, 4, 9)]} == {(1, 1, 1), (1, 4, 25)}


def test_jump_forest_b7_empty():
    assert jump_forest(7, 10**6) == {}


def test_jump_forest_nodes_reduce_to_table(rng):
    for b in (1, 2, 3, 5, 9):
        forest = jump_forest(b, 500)
        assert forest, f"no nodes for b={b}"
        for s in forest:
            assert vieta_reduce(s).triple() in TABLE[b]
            for nb in forest[s]:
                assert s in forest[nb]  # symmetry


def test_forest_component_structure():
    # the sorted quotient has one component per reduced solution; the
    # unsorted forest has one tree per reordering, 51 over all b
    def components(forest):
        seen, count = set(), 0
        for start in forest:
            if start in seen:
                continue
            count += 1
            stack = [start]
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(forest[node])
        return count

    total_components = 0
    total_orderings = 0
    for b in range(1, 10):
        reduced = enumerate_reduced(b)
        assert components(jump_forest(b, 200)) == len(reduced)
        total_components += len(reduced)
        for s in reduced:
            distinct = len({s.x, s.y, s.z})
            total_orderings += {1: 1, 2: 3, 3: 6}[distinct]
    assert total_components == 13
    assert total_orderings == 51


def reference_jump_forest(b, max_z):
    # the forest search on solution objects: every jump through the public
    # vieta_jump, with the graph keyed and sorted by VietaSolution
    adjacency = {s: set() for s in enumerate_reduced(b) if s.z <= max_z}
    frontier = list(adjacency)
    while frontier:
        s = frontier.pop()
        for pos in range(3):
            nb = vieta_jump(s, pos)
            if nb == s or nb.z > max_z:
                continue
            adjacency[s].add(nb)
            if nb not in adjacency:
                adjacency[nb] = set()
                frontier.append(nb)
            adjacency[nb].add(s)
    return {s: tuple(sorted(adjacency[s])) for s in sorted(adjacency)}


@pytest.mark.parametrize("max_z", [1, 2, 3, 4, 25, 26, 10**6, 10**12, 10**40])
@pytest.mark.parametrize("b", range(1, 10))
def test_jump_forest_matches_the_reference_search(b, max_z):
    forest, expected = jump_forest(b, max_z), reference_jump_forest(b, max_z)
    assert forest == expected
    assert list(forest) == list(expected)
    for s, nbrs in forest.items():
        assert all(type(t) is VietaSolution and t.b == b for t in (s, *nbrs))


def test_family_fibonacci_z_values():
    fam = family(VietaSolution(1, 1, 1, 9), 4)
    assert [st.z for st in fam] == [1, 4, 25, 169, 1156]


def test_family_recursion_example():
    fam = family(VietaSolution(3, 6, 9, 2), 1)
    assert (fam[1].x, fam[1].y, fam[1].z) == (3, 9, 24)
    assert (3 + 9 + 24) ** 2 == 2 * 3 * 9 * 24


def test_family_invariants_all_seeds():
    for seed in all_reduced_solutions():
        fam = family(seed, 5)
        zs = [st.z for st in fam]
        assert all(a < b for a, b in zip(zs, zs[1:]))
        for st_ in fam:
            assert is_solution(st_.x, st_.y, st_.z) == seed.b
            assert st_.y % st_.x == 0 and st_.z % st_.x == 0


def test_family_fibonacci_closed_form_to_depth_ten():
    fam = family(VietaSolution(1, 1, 1, 9), 10)
    fib = [1, 1]  # F_1, F_2
    while len(fib) < 22:
        fib.append(fib[-1] + fib[-2])
    for j in range(1, 11):
        assert (fam[j].x, fam[j].y, fam[j].z) == (1, fib[2 * j - 2] ** 2, fib[2 * j] ** 2)


def reference_family(seed, j_max):
    """The family recursion written out, as (x, y, z) per state."""
    b, (x, y, z) = seed.b, seed.triple()
    states = [(x, y, z)]
    for _ in range(j_max):
        y, z = z, b * x * z - 2 * (x + z) - y
        states.append((x, y, z))
    return states


def test_family_matches_the_recursion_to_depth_200():
    for seed in all_reduced_solutions():
        fam = family(seed, 200)
        assert [(st.x, st.y, st.z) for st in fam] == reference_family(seed, 200)
        assert [st.j for st in fam] == list(range(201))


def test_family_rejects_a_step_that_does_not_grow(monkeypatch):
    # a conjugate that returns the middle entry leaves z where it was
    monkeypatch.setattr("pipgeom.vieta._jump", lambda b, p, q, e: (p, e, q))
    with pytest.raises(AssertionError, match="j=1"):
        family(VietaSolution(1, 1, 1, 9), 3)


def test_family_requires_reduced_seed():
    with pytest.raises(ValueError):
        family(VietaSolution(1, 1, 4, 9), 2)


def test_divisibility_not_universal_regression():
    # valid solution whose entries do not satisfy x | y, x | z
    assert is_solution(4, 5, 81) == 5
    assert 5 % 4 != 0


def test_solution_b_sweep_small():
    witnesses = solution_b_sweep(30)
    assert set(witnesses) <= {1, 2, 3, 4, 5, 6, 8, 9}
    assert witnesses[9] == (1, 1, 1)
    assert 7 not in witnesses


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 7, 40])
def test_square_divisors_match_brute(bound):
    limit = 3 * bound
    divs = square_divisors(limit, bound)
    assert len(divs) == limit + 1
    for s, got in enumerate(divs):
        assert got == [d for d in range(1, bound + 1) if s * s % d == 0]


@pytest.mark.parametrize("n, bound", [(2, 60), (4, 25), (5, 12), (6, 8)])
def test_divisor_search_matches_pruned(n, bound):
    assert divisor_search(n, bound) == [(t.values, t.b) for t in pruned_general_bound(n, bound)]


def test_solution_b_sweep_matches_brute():
    for bound in range(-1, 81):
        assert list(solution_b_sweep(bound).items()) == list(brute_b_sweep(bound).items())


@pytest.mark.parametrize("n, max_bound", [(2, 60), (3, 30), (4, 12), (5, 8)])
def test_verify_general_bound_matches_brute(n, max_bound):
    for bound in range(-1, max_bound + 1):
        report = verify_general_bound(n, bound)
        expected = brute_general_bound(n, bound)
        assert report.solutions == expected
        assert report.b_values == frozenset(t.b for t in expected)
        assert report.max_b == max((t.b for t in expected), default=0)
        reduced = [reduce_tuple(t).values for t in expected]
        assert report.all_reduce == all(r[-1] <= sum(r[:-1]) for r in reduced)


def test_solution_b_sweep_matches_pruned_at_benchmark_size():
    assert list(solution_b_sweep(300).items()) == list(pruned_b_sweep(300).items())


@pytest.mark.parametrize("n, bound", [(3, 200), (4, 40), (5, 14), (6, 8)])
def test_verify_general_bound_matches_pruned(n, bound):
    expected = pruned_general_bound(n, bound)
    assert expected
    assert verify_general_bound(n, bound).solutions == expected


@pytest.mark.parametrize(
    "n, bound", [(3, 100), (3, 200), (3, 315), (4, 40), (4, 60), (5, 20), (6, 12)]
)
def test_sorted_solutions_match_pruned_at_benchmark_size(n, bound):
    expected = [(t.values, t.b) for t in pruned_general_bound(n, bound)]
    assert expected
    assert _sorted_solutions(n, bound) == expected


def test_reduced_triples_cover_every_b_that_reducedness_admits():
    brute = _brute_reduced()
    assert {b for b, *_ in brute} == {1, 2, 3, 4, 5, 6, 8, 9}
    for b in range(1, 17):
        assert sorted(_reduced_triples(b)) == sorted((x, y, z) for c, x, y, z in brute if c == b)


def test_sorted_solutions_n3_match_pruned_at_every_bound_to_400():
    # entries <= B are the tuples of the bound-400 oracle whose last entry is <= B
    everything = [(t.values, t.b) for t in pruned_general_bound(3, 400)]
    for bound in range(1, 401):
        assert _sorted_solutions(3, bound) == [hit for hit in everything if hit[0][-1] <= bound]
    for bound in (1, 2, 3, 9, 25, 64):
        assert _sorted_solutions(3, bound) == [(t.values, t.b) for t in pruned_general_bound(3, bound)]


@pytest.mark.parametrize("bound", [1, 2, 3, 5, 8, 13, 21, 50, 99, 150, 257, 400])
def test_solution_b_sweep_matches_pruned_on_a_grid(bound):
    assert list(solution_b_sweep(bound).items()) == list(pruned_b_sweep(bound).items())


def test_n3_search_builds_no_divisor_table(monkeypatch):
    # no n builds one: the module keeps no table builder, and one patched in is never called
    def divisor_table(*args):
        raise AssertionError("divisor table built")

    assert not hasattr(vieta, "_square_divisors")
    monkeypatch.setattr(vieta, "_square_divisors", divisor_table, raising=False)
    assert _sorted_solutions(3, 400)
    assert len(solution_b_sweep(300)) == 8
    assert verify_general_bound(3, 200).max_b == 9
    for n in (2, 4, 5, 6, 8, 10):
        assert _sorted_solutions(n, 10)


def largest_admitted_bound(n):
    bound = 0
    while search_cost(n, bound + 1) <= VERIFY_SEARCH_LIMIT:
        bound += 1
    return bound


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_walk_matches_the_divisor_search_at_every_admitted_bound(n):
    top = largest_admitted_bound(n)
    assert top == {4: 82, 5: 34, 6: 20, 7: 14, 8: 11}[n]
    for bound in range(-1, top + 1):
        assert _sorted_solutions(n, bound) == divisor_search(n, bound), bound


@pytest.mark.parametrize("n, bound", [(20, 4), (100, 2), (47059, 1)])
def test_walk_matches_the_divisor_search_at_large_n(n, bound):
    assert search_cost(n, bound) <= VERIFY_SEARCH_LIMIT
    expected = divisor_search(n, bound)
    assert expected
    assert _sorted_solutions(n, bound) == expected


def test_n2_is_the_diagonal():
    assert largest_admitted_bound(2) == 4209
    for bound in (-1, 0, 1, 2, 3, 50, 360, 4209):
        diagonal = [((y, y), 4) for y in range(1, bound + 1)]
        assert _sorted_solutions(2, bound) == diagonal == divisor_search(2, bound)


def test_reduced_tuples_n3_are_the_reduced_triples():
    triples = sorted((t, b) for b in range(1, 17) for t in _reduced_triples(b))
    assert sorted(_reduced_tuples(3)) == triples
    for bound in (1, 2, 3, 5, 9, 24, 25):
        assert sorted(_reduced_tuples(3, bound)) == [(t, b) for t, b in triples if t[-1] <= bound]


def test_reduced_tuples_n4_match_the_divisor_search_past_the_largest_root():
    # a head has product <= n^2 = 16, so S <= 17 and T = S + w <= 34; the positive
    # root of (k - 4) y^2 + (k*w - 4T) y - T^2 is at most 4T + T, so y <= 170 and v <= 187
    roots = sorted(_reduced_tuples(4))
    reduced = [(t, b) for t, b in divisor_search(4, 187) if t[-1] <= sum(t[:-1])]
    assert roots == reduced
    assert max(t[-1] for t, _ in roots) == 30


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_every_bounded_solution_reduces_into_the_reduced_tuples(n):
    roots = dict(_reduced_tuples(n))
    assert len(roots) == len(_reduced_tuples(n))
    bound = largest_admitted_bound(n)
    for t, b in divisor_search(n, bound):
        assert roots[reduce_tuple(NTuple(t, b)).values] == b
    assert sorted(_reduced_tuples(n, bound)) == sorted((t, b) for t, b in roots.items() if t[-1] <= bound)


def test_reduced_tuples_reach_what_the_bounded_search_misses():
    # b = 5 at n = 6 needs entries up to 20
    assert ((1, 1, 1, 1, 16, 20), 5) in _reduced_tuples(6)
    assert ((1, 1, 1, 1, 16, 20), 5) in _sorted_solutions(6, 20)
    assert 5 not in {b for _, b in _sorted_solutions(6, 19)}
    # n = 8 at its largest admitted bound, 11, misses b = 6, 7 and 8
    b_values = {b for _, b in _reduced_tuples(8)}
    assert b_values == {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 18, 25, 28, 64}
    assert b_values - {b for _, b in _sorted_solutions(8, 11)} == {6, 7, 8}
    assert max({b for _, b in _reduced_tuples(10)}) == 100


def test_is_solution_any_length_and_ntuple():
    assert is_solution(2, 2) == 4
    assert is_solution(1, 2) is None
    assert is_solution(1, 1, 1, 1) == 16
    assert is_solution(1, 1, 1, 3) == 12
    assert is_solution(1, 2, 5) is None
    assert is_solution(1, 1, 1, 1, 1) == 25
    assert is_solution(1, 1, 1, 2, 5) == 10
    assert is_solution(1, 1, 1, 1, 3) is None
    with pytest.raises(ValueError):
        NTuple((2, 1), 4)


def test_reduce_tuple():
    r = reduce_tuple(NTuple((1, 4, 25), 9))
    assert r.values == (1, 1, 1)
    assert r.values[-1] <= sum(r.values[:-1])


def test_vieta_reduce_agrees_with_reduce_tuple():
    for b in range(1, 10):
        for s in jump_forest(b, 2000):
            assert vieta_reduce(s).triple() == reduce_tuple(NTuple(s.triple(), s.b)).values


def test_verify_general_bound_n2():
    report = verify_general_bound(2, 50)
    assert report.max_b == 4
    assert all(t.values[0] == t.values[1] and t.b == 4 for t in report.solutions)
    assert len(report.solutions) == 50


def test_verify_general_bound_n3():
    report = verify_general_bound(3, 60)
    assert report.b_values <= {1, 2, 3, 4, 5, 6, 8, 9}
    assert report.max_b == 9
    assert report.all_reduce


def test_verify_general_bound_n4():
    report = verify_general_bound(4, 12)
    assert report.max_b == 16  # witnessed by (1, 1, 1, 1)
    assert NTuple((1, 1, 1, 1), 16) in report.solutions
    assert report.all_reduce


def test_verify_general_bound_rejects_small_n():
    with pytest.raises(ValueError):
        verify_general_bound(1, 10)


def test_bound_violation_error_exists():
    # the guard must never fire on honest input; make sure it is raisable
    with pytest.raises(BoundViolationError):
        raise BoundViolationError("sentinel")
