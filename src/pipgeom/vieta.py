"""Positive solutions of b = (x+y+z)^2 / (xyz) and their jump structure.

Solutions are stored sorted increasing; jumping replaces one entry by
the conjugate root of the quadratic it satisfies, which walks a forest
whose roots are the Vieta-reduced solutions (x <= y <= z <= x+y).
The module also provides the recursively generated one-parameter
families used to build triangle fixtures, and the n-variable
generalization of the bound b <= n^2.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations_with_replacement


class BoundViolationError(RuntimeError):
    """An enumerated solution broke a proven bound; must never fire."""


def is_solution(*entries: int) -> int | None:
    """The integer b = (sum)^2/(product) of the entries, or None when it is not one."""
    if min(entries) < 1:
        raise ValueError("entries must be positive")
    s = sum(entries)
    p = math.prod(entries)
    if (s * s) % p:
        return None
    return (s * s) // p


@dataclass(frozen=True, order=True)
class VietaSolution:
    """Sorted positive triple with its b-value; (x+y+z)^2 = b*x*y*z."""

    x: int
    y: int
    z: int
    b: int

    def __post_init__(self) -> None:
        if not (1 <= self.x <= self.y <= self.z):
            raise ValueError("solution entries must be positive and sorted")
        if (self.x + self.y + self.z) ** 2 != self.b * self.x * self.y * self.z:
            raise ValueError(f"({self.x},{self.y},{self.z}) is not a solution for b={self.b}")

    @classmethod
    def from_triple(cls, x: int, y: int, z: int) -> "VietaSolution":
        b = is_solution(x, y, z)
        if b is None:
            raise ValueError(f"({x},{y},{z}) does not solve the equation for any integer b")
        x, y, z = sorted((x, y, z))
        return cls(x, y, z, b)

    def triple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


def is_vieta_reduced(s: VietaSolution) -> bool:
    return s.z <= s.x + s.y


def vieta_jump(s: VietaSolution, position: int) -> VietaSolution:
    """Replace the entry at sorted slot `position` by its conjugate root.

    With the other two entries p, q fixed, the replaced entry e and its
    image e' are the two roots of t^2 - (b*p*q - 2(p+q))*t + (p+q)^2,
    so e' = b*p*q - 2(p+q) - e = (p+q)^2/e > 0 and the result is again
    a solution.  Jumping the same slot twice is the identity.
    """
    entries = list(s.triple())
    e = entries.pop(position)
    x, y, z = _jump(s.b, *entries, e)
    if x <= 0:
        raise ValueError("jump produced a nonpositive entry")  # impossible: e*e' = (p+q)^2
    return VietaSolution(x, y, z, s.b)


def _jump(b: int, p: int, q: int, e: int) -> tuple[int, int, int]:
    """The sorted triple (p, q, e') with e' = b*p*q - 2(p+q) - e, for p <= q."""
    e = b * p * q - 2 * (p + q) - e
    if e <= p:
        return (e, p, q)
    if e <= q:
        return (p, e, q)
    return (p, q, e)


def vieta_reduce(s: VietaSolution) -> VietaSolution:
    """Jump the largest entry down until z <= x + y; see `reduce_tuple`."""
    return VietaSolution(*reduce_tuple(NTuple(s.triple(), s.b)).values, s.b)


def enumerate_reduced(b: int) -> frozenset[VietaSolution]:
    """All Vieta-reduced solutions for one b in 1..9.

    Reducedness forces x <= 16/b and w := z - y in 0..x, leaving a
    quadratic in y per (x, w) cell:
    (b*x - 4) y^2 + (b*x*w - 4(x+w)) y - (x+w)^2 = 0.
    Cells with b*x <= 4 have no positive root (the root product is
    negative or the linear case forces y < 0).  The perfect-square test
    uses exact integer square roots; a near-square is never accepted.
    """
    if not 1 <= b <= 9:
        raise ValueError("b must be in 1..9")
    found = set()
    for x in range(1, 16 // b + 1):
        for w in range(0, x + 1):
            A = b * x - 4
            if A <= 0:
                continue
            B = b * x * w - 4 * (x + w)
            C = -((x + w) ** 2)
            disc = B * B - 4 * A * C
            root = math.isqrt(disc)
            if root * root != disc:
                continue
            for num in (-B + root, -B - root):
                if num > 0 and num % (2 * A) == 0:
                    y = num // (2 * A)
                    z = y + w
                    if x <= y and is_solution(x, y, z) == b:
                        found.add(VietaSolution(x, y, z, b))
    return frozenset(found)


def all_reduced_solutions() -> tuple[VietaSolution, ...]:
    """The complete table of reduced solutions over b = 1..9, sorted."""
    out = []
    for b in range(1, 10):
        out.extend(enumerate_reduced(b))
    return tuple(sorted(out, key=lambda s: (s.b, s.x, s.y, s.z)))


def jump_forest(b: int, max_z: int) -> dict[VietaSolution, tuple[VietaSolution, ...]]:
    """Sorted-solution graph with single jumps as edges, entries <= max_z.

    Every node is reachable from a reduced root because reduction paths
    have strictly decreasing maxima.  The unsorted solution graph is a
    3-regular rooted forest with one tree per reordering of each
    reduced solution (51 trees over all b); what is exposed here is its
    quotient modulo reordering, one component per reduced solution, so
    jumps that land on the same sorted triple are dropped.

    The search walks plain sorted triples; each node's `VietaSolution`,
    which checks the equation, is built once from the finished graph and
    shared by its key and every neighbour tuple.  Nodes and neighbours
    come sorted, which orders them as `VietaSolution`s of one b.
    """
    if not 1 <= b <= 9:
        raise ValueError("b must be in 1..9")
    adjacency: dict[tuple[int, int, int], set[tuple[int, int, int]]] = {
        s.triple(): set() for s in enumerate_reduced(b) if s.z <= max_z
    }
    frontier = list(adjacency)
    while frontier:
        t = frontier.pop()
        x, y, z = t
        for nb in (_jump(b, y, z, x), _jump(b, x, z, y), _jump(b, x, y, z)):
            if nb == t or nb[2] > max_z:
                continue
            adjacency[t].add(nb)
            if nb not in adjacency:
                adjacency[nb] = set()
                frontier.append(nb)
            adjacency[nb].add(t)
    nodes = {t: VietaSolution(*t, b) for t in sorted(adjacency)}
    # tuple() of a list sizes each neighbour tuple exactly; of a generator it over-allocates
    return {s: tuple([nodes[u] for u in sorted(adjacency[t])]) for t, s in nodes.items()}


@dataclass(frozen=True)
class FamilyState:
    """State s_j = (x, y_j, z_j) of the recursively generated family."""

    seed: VietaSolution
    j: int
    x: int
    y: int
    z: int

    def solution(self) -> VietaSolution:
        return VietaSolution(*sorted((self.x, self.y, self.z)), self.seed.b)


def family(seed: VietaSolution, j_max: int) -> list[FamilyState]:
    """States s_0..s_j_max grown from a reduced seed by jumping the middle entry.

    Each step is `_jump(b, x, z, y)`: y_{j+1} = z_j and z_{j+1} is the
    conjugate b*x*z_j - 2(x + z_j) - y_j, with x fixed.  Every state is a
    solution, z grows strictly, and x divides both y_j and z_j, which
    downstream triangle construction relies on.
    """
    if not is_vieta_reduced(seed):
        raise ValueError("family seeds must be Vieta-reduced")
    b = seed.b
    x, y, z = seed.triple()
    states = [FamilyState(seed, 0, x, y, z)]
    for j in range(1, j_max + 1):
        _, y, z = _jump(b, x, z, y)
        st = FamilyState(seed, j, x, y, z)
        prev = states[-1]
        if st.z <= prev.z or y % x or z % x or is_solution(x, y, z) != b:
            raise AssertionError(f"family recursion invariant broken at j={j}")
        states.append(st)
    return states


def _square_divisors(limit: int, bound: int) -> list[list[int]]:
    """divs[s] = the ascending d <= bound with d | s^2, for 0 <= s <= limit.

    Write d = a^2 * c with c squarefree.  Then d | s^2 exactly when
    k(d) = a * c = d / a divides s, so each d is sieved onto the
    multiples of k(d); the largest such a comes from a sieve over the
    squares.  Taking d in increasing order keeps every list sorted.
    """
    root = [1] * (bound + 1)  # root[d] = the largest a with a^2 | d
    for a in range(2, math.isqrt(max(bound, 0)) + 1):
        root[a * a :: a * a] = [a] * (bound // (a * a))
    divs: list[list[int]] = [[] for _ in range(limit + 1)]
    for d in range(1, bound + 1):
        for s in range(0, limit + 1, d // root[d]):
            divs[s].append(d)
    return divs


def _sorted_solutions(n: int, bound: int) -> list[tuple[tuple[int, ...], int]]:
    """Every sorted n-tuple with entries <= bound and integer b, as (tuple, b).

    An integer b forces the last entry v to divide (R + v)^2, hence R^2,
    where R is the sum of the other entries; every other v fails that
    necessary condition.  The candidates are exactly the sorted tuples
    with v | R^2, the set a walk over each sorted prefix and the v in
    divs[R] would try, but grouped by sum instead of visited prefix by
    prefix.  For n >= 3 a tuple is a head of n - 3 entries (sum S,
    product P, last entry lo, or 1 when empty), then x <= y, then v.
    With r = x + y and R = S + r, every tuple of a group (head, r, v)
    with v | R^2 shares the integer N = (R + v)^2 / v, and b is
    N / (P*x*y).  A group is dropped at once unless P | N; otherwise
    each x costs one test of M = N / P against x*y.

    The x range: x >= lo keeps the tuple sorted after the head, x <= r // 2
    is x <= y, and x >= r - v is y <= v (hence y <= bound); a v below r / 2
    admits no x.  Within it only the x in divs[R + v] are tried, found by
    two bisections: x*y*v*P*b = (R + v)^2, so x divides the square of the
    whole sum, and every other x fails.  The table therefore reaches sums
    up to n * bound.  n = 2 has no x, so its tuples (y, v) are tried
    directly from a table up to bound.  The result is sorted
    lexicographically.
    """
    divs = _square_divisors(n * bound if n > 2 else bound, bound)
    hits = []
    if n == 2:
        for y in range(1, bound + 1):
            vs = divs[y]
            for v in vs[bisect_left(vs, y) :]:
                s2 = (y + v) ** 2
                if s2 % (y * v) == 0:
                    hits.append(((y, v), s2 // (y * v)))
        return hits
    for head in combinations_with_replacement(range(1, bound + 1), n - 3):
        S, P, lo = sum(head), math.prod(head), head[-1] if head else 1
        for r in range(2 * lo, 2 * bound + 1):
            R = S + r
            vs = divs[R]
            for v in vs[bisect_left(vs, (r + 1) // 2) :]:
                M, rem = divmod((R + v) ** 2 // v, P)
                if rem:
                    continue
                xs = divs[R + v]
                for x in xs[bisect_left(xs, max(lo, r - v)) : bisect_left(xs, r // 2 + 1)]:
                    xy = x * (r - x)
                    if M % xy == 0:
                        hits.append((head + (x, r - x, v), M // xy))
    hits.sort()
    return hits


def search_cost(n: int, bound: int) -> int | float:
    """About how much work `_sorted_solutions(n, bound)` does.

    With k = bound.bit_length(), it counts a divisor table of (n - 1) * bound + 1
    lists of about k^2 / 8 entries; each of the C(bound + n - 4, n - 3) heads
    (n >= 3) sums and multiplies n - 3 entries and steps through 2 * bound
    sums r; and each of the C(bound + n - 2, n - 1) sorted tuples of the first
    n - 1 entries meets about k / 8 candidates v | R^2.  Against counts taken
    in the search (table lists and entries, head entries, sums r, groups and
    x tests), this is 0.7 to 1.03 times the work for n = 2 from bound 100 up.
    For n >= 3 it is an upper estimate: the search tries only the x dividing
    the square of the whole sum, so at n = 3 the estimate is 1.2 times the
    work at bound 100 and 2.7 times at 315 (63,641 against about 23,500), and
    for n = 4..6 at the largest admitted bounds 3 to 4.5 times.  The estimate
    is kept as it is so that `cli.VERIFY_SEARCH_LIMIT` admits the same searches.
    As C(m, i) >= 2^i for i <= m / 2, huge n or bound pass sys.maxsize within
    63 factors: math.inf.
    """
    tuples, m = 1, bound + n - 2
    for i in range(min(n - 1, bound - 1)):
        tuples = tuples * (m - i) // (i + 1)
        if tuples > sys.maxsize:
            return math.inf
    heads = tuples * (n - 1) * (n - 2) // (m * (m - 1)) if n > 2 else 0
    lists, k = (n - 1) * bound + 1, bound.bit_length()
    return lists + (lists * k * k + tuples * k) // 8 + heads * (n - 3 + 2 * bound)


def solution_b_sweep(bound: int) -> dict[int, tuple[int, int, int]]:
    """Map each attained b-value to its first witness triple.

    Takes, in lexicographic order, every 1 <= x <= y <= z <= bound with
    xyz | (x+y+z)^2 from `_sorted_solutions` and keeps the first triple
    per b.  Only the z dividing (x+y)^2 are candidates there, since an
    integer b forces z | (x+y+z)^2, hence z | (x+y)^2; every other z
    fails that necessary condition, so the search is complete up to the
    bound.  The full divisibility test still decides each candidate.
    """
    witnesses: dict[int, tuple[int, int, int]] = {}
    for triple, b in _sorted_solutions(3, bound):
        witnesses.setdefault(b, triple)
    return witnesses


# --- n-variable generalization -------------------------------------------


@dataclass(frozen=True)
class NTuple:
    """Sorted positive n-tuple with (sum)^2 = b * product."""

    values: tuple[int, ...]
    b: int

    def __post_init__(self) -> None:
        if len(self.values) < 2 or list(self.values) != sorted(self.values) or self.values[0] < 1:
            raise ValueError("values must be a sorted positive tuple with n >= 2")
        s = sum(self.values)
        if s * s != self.b * math.prod(self.values):
            raise ValueError(f"{self.values} is not a solution for b={self.b}")


def reduce_tuple(t: NTuple) -> NTuple:
    """n-variable reduction: jump the largest entry until it is <= the rest.

    The largest entry and its image multiply to (sum rest)^2 < last^2, so
    each jump keeps the entries positive and lowers the largest one.
    """
    values, b = t.values, t.b
    while values[-1] > sum(values[:-1]):
        rest = values[:-1]
        new_last = b * math.prod(rest) - 2 * sum(rest) - values[-1]
        assert 1 <= new_last < values[-1]
        values = tuple(sorted(rest + (new_last,)))
    return NTuple(values, b)


@dataclass(frozen=True)
class GeneralBoundReport:
    solutions: tuple[NTuple, ...]
    max_b: int
    b_values: frozenset[int]
    all_reduce: bool


def verify_general_bound(n: int, search_bound: int) -> GeneralBoundReport:
    """Exhaust sorted n-tuples up to search_bound and check b <= n^2.

    The solutions come from `_sorted_solutions` in lexicographic order.
    An integer b forces the last entry v to divide (R + v)^2, hence R^2,
    where R is the sum of the first n - 1 entries; so only the v in
    [y, search_bound] dividing R^2 are candidates (y the entry before
    v), and no solution up to the bound is skipped.  Each candidate is
    decided exactly, by the divisibility test that also yields its b.

    Also reduces every solution found and confirms the reduced form has
    its largest entry bounded by the sum of the others.  The search is
    complete only up to the given bound; no completeness of the b-value
    list is claimed beyond it.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    solutions = []
    for combo, b in _sorted_solutions(n, search_bound):
        if b > n * n:
            raise BoundViolationError(f"{combo} gives b={b} > n^2={n * n}")
        solutions.append(NTuple(combo, b))
    all_reduce = all(r.values[-1] <= sum(r.values[:-1]) for r in map(reduce_tuple, solutions))
    b_values = frozenset(t.b for t in solutions)
    return GeneralBoundReport(
        solutions=tuple(solutions),
        max_b=max(b_values) if b_values else 0,
        b_values=b_values,
        all_reduce=all_reduce,
    )
