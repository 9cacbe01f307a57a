"""Positive solutions of b = (x+y+z)^2 / (xyz) and their jump structure.

Solutions are stored sorted increasing; jumping replaces one entry by
the conjugate root of the quadratic it satisfies.  The same step solves
Hurwitz's n-variable equation (sum)^2 = b * product, and for every n >= 3
one walk (`_walk`) reaches every solution by single jumps from the
finitely many reduced n-tuples (largest entry at most the sum of the
others), which one scan lists (`_reduced_tuples`); n = 3 is the forest
over the 13 reduced triples.  The module also provides the recursively
generated one-parameter families used to build triangle fixtures, and
the n-variable bound b <= n^2.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple


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


class VietaSolution(namedtuple("VietaSolution", "x y z b")):
    """Sorted positive triple with its b-value; (x+y+z)^2 = b*x*y*z.

    Solutions compare as the tuples (x, y, z, b).
    """

    __slots__ = ()

    def __new__(cls, x: int, y: int, z: int, b: int) -> "VietaSolution":
        if not (1 <= x <= y <= z):
            raise ValueError("solution entries must be positive and sorted")
        if (x + y + z) ** 2 != b * x * y * z:
            raise ValueError(f"({x},{y},{z}) is not a solution for b={b}")
        return tuple.__new__(cls, (x, y, z, b))

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
    t = s.triple()
    rest = t[:position] + t[position + 1 :]
    return VietaSolution(*sorted(rest + (_jump(s.b, sum(t), math.prod(t), t[position]),)), s.b)


def _jump(b: int, s: int, p: int, e: int) -> int:
    """The conjugate e' = b*p/e - 2*s + e of the entry e of a solution with sum s and product p.

    With the other entries fixed, e and e' are the two roots of
    t^2 - (b*p/e - 2(s - e)) t + (s - e)^2, so e' = (s - e)^2 / e > 0.
    """
    return b * (p // e) - 2 * s + e


def vieta_reduce(s: VietaSolution) -> VietaSolution:
    """Jump the largest entry down until z <= x + y; see `reduce_tuple`."""
    return VietaSolution(*reduce_tuple(NTuple(s.triple(), s.b)).values, s.b)


def enumerate_reduced(b: int) -> frozenset[VietaSolution]:
    """All Vieta-reduced solutions for one b in 1..9, from the reduced triples of `_reduced_tuples(3)`."""
    if not 1 <= b <= 9:
        raise ValueError("b must be in 1..9")
    return frozenset(VietaSolution(*t, b) for t, c in _REDUCED_TRIPLES if c == b)


def all_reduced_solutions() -> tuple[VietaSolution, ...]:
    """The complete table of reduced solutions over b = 1..9, sorted by (b, x, y, z)."""
    rows = sorted(_REDUCED_TRIPLES, key=lambda row: (row[1], row[0]))
    return tuple(VietaSolution(*t, b) for t, b in rows)


def _walk(
    roots: list[tuple[tuple[int, ...], int]], bound: int
) -> tuple[dict[tuple[int, ...], list[tuple[int, ...]]], dict[tuple[int, ...], int]]:
    """The single-jump graph on the solutions reached from `roots` with entries <= bound.

    `roots` are sorted reduced n-tuples (n >= 3) with entries <= bound, as
    (tuple, b).  Returns each node's list of distinct neighbours and each
    node's b.  A node t (sum s, product p, largest entry v) jumps every
    distinct entry e to e' = `_jump(b, s, p, e)` = (s - e)^2 / e, except
    the largest entry of a node that is not reduced:

    - Every jump taken goes up.  An entry e that is not the last one has
      s - e >= v + 1 > e, so e' > s - e > v; the last entry of a reduced
      node has s - v >= v, so e' >= v, and e' = v is the identity.  So the
      image is t less one e with e' appended, sorted as it stands, and its
      largest entry e' exceeds the sum s - e of the others: it is not
      reduced, and reducing it jumps e' back to e, which gives t.
    - The skipped jump adds nothing.  A node t that is not reduced has one
      largest entry (v > s - v), and jumping it is t's reduction step: it
      lands on the node that t reduces to, whose jump up reached t and
      recorded the edge both ways.  A reduced node still jumps its largest
      entry: from n = 4 on that reaches new nodes.
    - The walk is complete.  Reducing a solution within the bound lowers
      only its largest entry, so the path to its reduced root stays within
      the bound, and the walk takes the path back, one jump up at a time.
    - Each node is met once.  A node that is not a root is entered only
      from the node it reduces to, so the graph is a forest and needs no
      visited test.

    Each image is compared with the bound before its tuple is built, and
    each node is checked exactly, s^2 == b*p.
    """
    b_of = dict(roots)
    adjacency: dict[tuple[int, ...], list[tuple[int, ...]]] = {t: [] for t in b_of}
    frontier = list(b_of.items())
    while frontier:
        t, b = frontier.pop()
        s, p = sum(t), math.prod(t)
        if s * s != b * p:
            raise ValueError(f"{t} is not a solution for b={b}")
        for e in set(t) if 2 * t[-1] <= s else set(t[:-1]):
            f = _jump(b, s, p, e)
            if f <= bound and f != e:
                i = t.index(e)
                u = t[:i] + t[i + 1 :] + (f,)
                b_of[u] = b
                adjacency[u] = [t]
                adjacency[t].append(u)
                frontier.append((u, b))
    return adjacency, b_of


def jump_forest(b: int, max_z: int) -> dict[VietaSolution, tuple[VietaSolution, ...]]:
    """Sorted-solution graph with single jumps as edges, entries <= max_z.

    The unsorted solution graph is a 3-regular rooted forest with one tree
    per reordering of each reduced solution (51 trees over all b); what is
    exposed here is its quotient modulo reordering, one component per
    reduced solution, so jumps that land on the same sorted triple are
    dropped.  `_walk` reaches every node from b's reduced triples, on plain
    sorted triples; each node's `VietaSolution`, which checks the
    equation, is built once from the finished graph and shared by its key
    and every neighbour tuple.  Nodes and neighbours come sorted, which
    orders them as `VietaSolution`s of one b.
    """
    if not 1 <= b <= 9:
        raise ValueError("b must be in 1..9")
    adjacency, _ = _walk([(t, c) for t, c in _REDUCED_TRIPLES if c == b and t[-1] <= max_z], max_z)
    nodes = {t: VietaSolution(*t, b) for t in sorted(adjacency)}
    # tuple() of a list sizes each neighbour tuple exactly; of a generator it over-allocates
    return {s: tuple([nodes[u] for u in sorted(adjacency[t])]) for t, s in nodes.items()}


class FamilyState(namedtuple("FamilyState", "seed j x y z")):
    """State s_j = (x, y_j, z_j) of the recursively generated family from `seed`."""

    __slots__ = ()

    def solution(self) -> VietaSolution:
        return VietaSolution(*sorted((self.x, self.y, self.z)), self.seed.b)


def family(seed: VietaSolution, j_max: int) -> list[FamilyState]:
    """States s_0..s_j_max grown from a reduced seed by jumping the middle entry.

    Each step jumps y with `_jump`: y_{j+1} = z_j and z_{j+1} is the
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
        y, z = z, _jump(b, x + y + z, x * y * z, y)
        st = FamilyState(seed, j, x, y, z)
        prev = states[-1]
        if st.z <= prev.z or y % x or z % x or is_solution(x, y, z) != b:
            raise AssertionError(f"family recursion invariant broken at j={j}")
        states.append(st)
    return states


def _reduced_tuples(n: int, bound: int | None = None) -> list[tuple[tuple[int, ...], int]]:
    """Every reduced sorted n-tuple (n >= 3) with integer b, as (tuple, b); entries <= bound if given.

    A sorted tuple is reduced when its largest entry v is at most the sum
    of the others; `reduce_tuple` takes every solution to a reduced one
    with the same b.  Write the first n - 2 entries as the head (sum S,
    product P, last entry h), followed by h <= y <= v = y + w.
    Reducedness is w <= S.  With T = S + w and k = b*P the equation
    (S + y + v)^2 = b*P*y*v is the cell (b, head, w) quadratic
    (k - 4) y^2 + (k*w - 4T) y - T^2 = 0, that is k = (T + 2y)^2 / (y(y + w)).

    - The head is bounded: every head entry is at most y, so S <= (n-2)*y
      and the whole sum T + 2y <= n*y + w, while w <= S <= (n-2)*y; hence
      (T + 2y)^2 <= n^2 y^2 + (3n - 2) y w <= n^2 * y * (y + w), and
      k = b*P <= n^2.  (In particular b <= n^2 for every solution.)  So a
      head is n - 2 - j ones and j entries >= 2 with product <= n^2, built
      by extending one entry at a time, never by recursing n deep.  For
      n = 3 the head is (x) and b*x <= 9.
    - The range of b is exact: k(y) = (T + 2y)^2 / (y(y + w)) strictly
      decreases in y > 0 towards 4 (the numerator of its log-derivative is
      -2*S*y - T*w < 0).  So the positive root y exists exactly when
      k > 4, it is >= h exactly when k <= k(h), and <= Y = bound - w
      exactly when k >= k(Y).  k(h) does not grow with w and k(Y) grows,
      so the w loop stops at the first empty range of b.
    - Each cell of that range is decided exactly: the discriminant is
      k * (k*w^2 + 4T(T - 2w)), and y = (4T - k*w + root) / (2(k - 4))
      counts only when the integer square root is exact and divides.  When
      the y range h..Y is the shorter one, each y is tried instead, and
      b = (T + 2y)^2 / (P*y*(y + w)) must be an integer.
    """
    limit = n * n
    top = limit if bound is None else min(bound, limit)
    found = []
    heads = [((), 0, 1)]  # the head's entries >= 2, their sum and their product
    while heads:
        big, total, P = heads.pop()
        j = len(big)
        if j < n - 2:
            heads.extend((big + (e,), total + e, P * e) for e in range(big[-1] if j else 2, min(top, limit // P) + 1))
        S, h = n - 2 - j + total, big[-1] if j else 1
        head = (1,) * (n - 2 - j) + big
        for w in range(S + 1 if bound is None else min(S, bound - h) + 1):
            T = S + w
            b_lo, b_hi = 4 // P + 1, (T + 2 * h) ** 2 // (P * h * (h + w))
            if bound is not None:
                Y = bound - w
                b_lo = max(b_lo, -(-((T + 2 * Y) ** 2) // (P * Y * (Y + w))))
            if b_lo > b_hi:
                break
            if bound is not None and Y - h < b_hi - b_lo:
                for y in range(h, Y + 1):
                    b, rem = divmod((T + 2 * y) ** 2, P * y * (y + w))
                    if not rem:
                        found.append((head + (y, y + w), b))
                continue
            for b in range(b_lo, b_hi + 1):
                k = b * P
                disc = k * (k * w * w + 4 * T * (T - 2 * w))
                root = math.isqrt(disc)
                if root * root == disc:
                    y, rem = divmod(4 * T - k * w + root, 2 * (k - 4))
                    if not rem:
                        found.append((head + (y, y + w), b))
    return found


# the reduced triples of every b, a finite table: 13 rows, all with b <= 9
_REDUCED_TRIPLES = tuple(_reduced_tuples(3))


def _sorted_solutions(n: int, bound: int) -> list[tuple[tuple[int, ...], int]]:
    """Every sorted n-tuple with entries <= bound and integer b, as (tuple, b).

    n = 2 is the diagonal (y, y) with b = 4: write y = g*a and v = g*c with
    gcd(a, c) = 1; (y + v)^2 = b*y*v becomes (a + c)^2 = b*a*c, so a
    divides c^2 and c divides a^2, hence a = c = 1 and b = 4.

    n >= 3 is the `_walk` out from the reduced n-tuples of
    `_reduced_tuples(n, bound)`: every solution within the bound reduces to
    one of them, with the same b, through solutions within the bound, and
    the walk reaches it by the reverse jumps.  Each node is checked exactly.
    The result is sorted lexicographically.
    """
    if n == 2:
        return [((y, y), 4) for y in range(1, bound + 1)]
    return sorted(_walk(_reduced_tuples(n, bound), bound)[1].items())


def search_cost(n: int, bound: int) -> int | float:
    """About how much work the divisor search that `_sorted_solutions(n, bound)` once ran would do.

    No n runs that search now: n = 2 is the diagonal, and every n >= 3 is
    the one `_walk` out from its reduced tuples, with work of the order of
    the roots scanned and the solutions found.  The model prices the old search
    unchanged, only so that `cli.VERIFY_SEARCH_LIMIT` admits exactly the
    searches it admitted before and every exit code stays the same.
    With k = bound.bit_length(),
    it counts a divisor table of (n - 1) * bound + 1 lists of about k^2 / 8
    entries; each of the C(bound + n - 4, n - 3) heads (n >= 3) summing and
    multiplying n - 3 entries and stepping through 2 * bound sums r; and about
    k / 8 candidates v | R^2 for each of the C(bound + n - 2, n - 1) sorted
    tuples of the first n - 1 entries.  Against counts taken in that search
    it was 0.7 to 1.03 times the work for n = 2 from bound 100 up, and 3 to
    4.5 times for n = 4..6 at the largest admitted bounds.
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
    per b.  Those triples are the nodes of the `_walk` from the reduced
    triples (b*x <= 9 for each, see `_reduced_tuples`); since every
    solution reduces to such a root through solutions with smaller largest
    entries, the walk is complete up to the bound.  Each node is checked
    exactly.
    """
    witnesses: dict[int, tuple[int, int, int]] = {}
    for triple, b in _sorted_solutions(3, bound):
        witnesses.setdefault(b, triple)
    return witnesses


# --- n-variable generalization -------------------------------------------


class NTuple(namedtuple("NTuple", "values b")):
    """Sorted positive n-tuple `values` with (sum)^2 = b * product."""

    __slots__ = ()

    def __new__(cls, values: tuple[int, ...], b: int) -> "NTuple":
        if len(values) < 2 or list(values) != sorted(values) or values[0] < 1:
            raise ValueError("values must be a sorted positive tuple with n >= 2")
        s = sum(values)
        if s * s != b * math.prod(values):
            raise ValueError(f"{values} is not a solution for b={b}")
        return tuple.__new__(cls, (values, b))


def reduce_tuple(t: NTuple) -> NTuple:
    """n-variable reduction: jump the largest entry until it is <= the rest.

    The largest entry and its image multiply to (sum rest)^2 < last^2, so
    each jump keeps the entries positive and lowers the largest one.
    """
    values, b = t.values, t.b
    while values[-1] > sum(values[:-1]):
        new_last = _jump(b, sum(values), math.prod(values), values[-1])
        assert 1 <= new_last < values[-1]
        values = tuple(sorted(values[:-1] + (new_last,)))
    return NTuple(values, b)


# solutions: tuple of NTuple; max_b: int; b_values: frozenset of int; all_reduce: bool
GeneralBoundReport = namedtuple("GeneralBoundReport", "solutions max_b b_values all_reduce")


def verify_general_bound(n: int, search_bound: int) -> GeneralBoundReport:
    """Exhaust sorted n-tuples up to search_bound and check b <= n^2.

    The solutions come from `_sorted_solutions` in lexicographic order,
    and no solution up to the bound is skipped.  For n = 2 they are the
    diagonal pairs (b = 4); for n >= 3 they are the nodes of the jump walks
    from the reduced tuples, which every solution reduces to through
    solutions with entries no larger than its own.  Each solution is
    decided exactly, by the equation that also yields its b.

    Also reduces every solution found and confirms the reduced form has
    its largest entry bounded by the sum of the others.  The search is
    complete only up to the given bound; the complete b-value set of each n
    is that of `_reduced_tuples(n)`, which needs no bound.
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
