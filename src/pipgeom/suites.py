"""Named verification suites behind the `verify` CLI command.

Each suite re-derives a batch of certified facts from scratch and
reports one pass/fail check per fact.  All randomized suites run on a
fixed seed so reports are byte-deterministic.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import constructions, counting, ehrhart, polygon, vieta
from .exact import AffineMap, IntMat2, Vec2
from .polygon import RationalPolygon, edge_lattice_length_from_normals, hull, triangle_invariant
from .vieta import VietaSolution


class SuiteResult:
    """The checks of one suite run: (label, ok, detail) each, in the order made."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.checks: list[tuple[str, bool, str]] = []

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append((label, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self) -> list[str]:
        out = []
        for label, ok, detail in self.checks:
            status = "ok" if ok else "FAIL"
            out.append(f"{status:4s} {label}" + (f"  [{detail}]" if detail else ""))
        return out


REDUCED_TABLE = frozenset(
    {
        (1, 5, 20, 25), (1, 6, 12, 18), (1, 8, 8, 16), (1, 9, 9, 9),
        (2, 3, 6, 9), (2, 4, 4, 8),
        (3, 2, 4, 6), (3, 3, 3, 3),
        (4, 2, 2, 4), (5, 1, 4, 5), (6, 1, 2, 3), (8, 1, 1, 2), (9, 1, 1, 1),
    }
)

# every integer b = (x+y+z)^2/(xyz) over positive triples; 7 never occurs
ALLOWED_B = frozenset({1, 2, 3, 4, 5, 6, 8, 9})


def _brute_reduced() -> set[tuple[int, int, int, int]]:
    """Reduced solutions by raw scan: x <= 16, y bounded, z in [y, x+y].

    The positive root of the per-cell quadratic is at most
    |B|/(b*x - 4) + (x + w)/sqrt(b*x - 4) <= 256 + 32, so y <= 600 is a
    safe cover.
    """
    out = set()
    for x in range(1, 17):
        for y in range(x, 601):
            for z in range(y, x + y + 1):
                s = x + y + z
                if (s * s) % (x * y * z) == 0:
                    out.add(((s * s) // (x * y * z), x, y, z))
    return out


def suite_reduced_table() -> SuiteResult:
    res = SuiteResult("reduced-table")
    got = {(s.b, s.x, s.y, s.z) for b in range(1, 10) for s in vieta.enumerate_reduced(b)}
    res.add("13 reduced solutions", len(got) == 13, f"found {len(got)}")
    res.add("solution set matches the known table", got == REDUCED_TABLE)
    res.add("independent brute force agrees", _brute_reduced() == got)
    res.add("b = 7 has no solutions", not vieta.enumerate_reduced(7))
    res.add(
        "b = 10..16 have no reduced solutions",
        not any(vieta._reduced_triples(b) for b in range(10, 17)),
        "a reduced triple has b*x <= 16",
    )
    return res


def suite_b_sweep(bound: int = 300) -> SuiteResult:
    res = SuiteResult("b-sweep")
    witnesses = vieta.solution_b_sweep(bound)
    res.add(
        f"all b-values over entries <= {bound} lie in {{1..6, 8, 9}}",
        set(witnesses) <= ALLOWED_B,
        f"values: {sorted(witnesses)}",
    )
    missing = ALLOWED_B - set(witnesses)
    res.add("every allowed b-value is witnessed", not missing, f"missing: {sorted(missing)}")
    return res


# the entry bound of nvar-bound given n alone; without n it runs its three cases
NVAR_BOUND = 40


def suite_nvar(n: int | None = None, bound: int = NVAR_BOUND) -> SuiteResult:
    res = SuiteResult("nvar-bound")
    cases = ((2, 50), (3, 200), (4, 40)) if n is None else ((n, bound),)
    for n, bound in cases:
        report = vieta.verify_general_bound(n, bound)
        res.add(
            f"n={n}, entries <= {bound}: max b = {n * n} <= n^2",
            report.max_b == n * n,
            f"max_b={report.max_b}, {len(report.solutions)} solutions",
        )
        res.add(f"n={n}: every solution reduces", report.all_reduce)
        if n == 2:
            diagonal = all(t.values[0] == t.values[1] and t.b == 4 for t in report.solutions)
            res.add("n=2: solutions are exactly the diagonal pairs", diagonal)
        if n == 3:
            res.add(
                "n=3: b-values within {1..6, 8, 9}",
                report.b_values <= ALLOWED_B,
            )
    return res


def _profile(P: RationalPolygon) -> tuple[int | None, int | None]:
    """The certified (interior, boundary) of P; (None, None) when P is not a PIP."""
    cert = ehrhart.is_pseudointegral(P)
    return cert.interior, cert.boundary


def suite_family_grid(depth: int = 4) -> SuiteResult:
    """Certify the solution triangle of every family state up to `depth`.

    Instances whose certification work D * edges exceeds
    `ehrhart.CERTIFY_WORK_LIMIT` are skipped and logged; at depths up to
    6 none trigger.
    """
    res = SuiteResult("family-grid")
    for seed in vieta.all_reduced_solutions():
        for state in vieta.family(seed, depth):
            sol = state.solution()
            T = constructions.t_xyz(sol)
            work = ehrhart.certify_work(T)
            label = f"seed {seed.triple()} b={seed.b} j={state.j}: triangle of {sol.triple()}"
            if work > ehrhart.CERTIFY_WORK_LIMIT:
                res.add(label + " [skipped]", True, f"work {work} exceeds CERTIFY_WORK_LIMIT")
                continue
            profile = _profile(T)
            res.add(label, profile == (1, seed.b), f"profile {profile}")
    return res


def suite_fibonacci() -> SuiteResult:
    res = SuiteResult("fibonacci")
    depth = 5
    # family recursion against a direct Fibonacci iteration
    fam = vieta.family(VietaSolution(1, 1, 1, 9), depth)
    fa, fb = 1, 1  # F_1, F_2
    squares = []
    for _ in range(depth + 1):
        squares.append(fa * fa)
        fa, fb = fa + fb, fa + 2 * fb  # advance by two: (F_{k+2}, F_{k+3})
    res.add(
        "family z-values are squares of odd-index Fibonacci numbers",
        [st.z for st in fam] == squares[: depth + 1],
        f"z = {[st.z for st in fam]}",
    )
    dens = []
    for j in range(1, depth + 2):
        T = constructions.fibonacci_triangle(j)
        dens.append(T.denominator)
        if j <= depth:
            res.add(f"triangle j={j} certifies (1, 9)", _profile(T) == (1, 9), f"denominator {T.denominator}")
            # the solution triangle worked out by hand from Fibonacci ratios
            fm, fp = constructions.fibonacci(2 * j - 1), constructions.fibonacci(2 * j + 1)
            r = Fraction(3 * fm, fp)
            same = T == hull([(-r, r - 1), (0, -1), (Fraction(3 * fp, fm), -1)])
            res.add(f"triangle j={j} equals the solution-triangle form", same)
    res.add(
        f"denominators strictly increase over j = 1..{depth + 1}",
        all(a < b for a, b in zip(dens, dens[1:])),
        f"denominators {dens}",
    )
    return res


def suite_denominator_grid() -> SuiteResult:
    res = SuiteResult("denominator-grid")
    for d, (slope, intercept) in constructions._PIP_RANGES.items():
        all_ok, count, first_bad = True, 0, ""
        for i in range(1, 7):
            for b in range(2, slope * i + intercept + 1):
                P = constructions.construct_pip(d, i, b)
                ok = _profile(P) == (i, b) and P.denominator == d
                count += 1
                if not ok and all_ok:
                    all_ok, first_bad = False, f"first failure at (i={i}, b={b})"
        res.add(
            f"denominator-{d} grid: profile and denominator for i <= 6, 2 <= b <= {slope}i+{intercept}",
            all_ok,
            first_bad or f"{count} polygons",
        )
    return res


def suite_counterexamples() -> SuiteResult:
    res = SuiteResult("counterexamples")

    Q = constructions.fourgon_distance_two()
    cert = ehrhart.is_pseudointegral(Q)
    total, boundary = counting.dilate_counter(Q)(1)
    res.add("4-gon is not pseudointegral", not cert.is_pip)
    res.add("4-gon has exactly one interior lattice point", total - boundary == 1)
    res.add(
        "4-gon has an edge at lattice distance 2 from the origin",
        any(abs(num) == 2 * den for _, _, num, den, _, _ in Q.edge_table),
    )

    O = constructions.octagon_empty_boundary()
    cert = ehrhart.is_pseudointegral(O)
    total, boundary = counting.dilate_counter(O)(1)
    res.add("8-gon is not pseudointegral", not cert.is_pip)
    res.add("8-gon has no boundary lattice points", boundary == 0)
    res.add("8-gon has exactly one interior lattice point", total - boundary == 1)
    res.add("8-gon dual is integral", O.dual().is_integral)
    res.add(
        "8-gon edges all at lattice distance 1",
        all(abs(num) == den for _, _, num, den, _, _ in O.edge_table),
    )
    return res


def suite_reflexive() -> SuiteResult:
    res = SuiteResult("reflexive")
    catalog = constructions.reflexive_catalog()
    res.add("catalog has 16 entries", len(catalog) == 16)
    b_values = []
    for k, P in enumerate(catalog):
        total, b = counting.dilate_counter(P)(1)
        i = total - b
        b_values.append(b)
        pick = P.area == i + Fraction(b, 2) - 1
        ok = (
            P.is_integral
            and i == 1
            and P.strictly_contains(Vec2(0, 0))
            and P.dual().is_integral
            and 3 <= b <= 9
            and pick
        )
        res.add(f"entry {k}: integral, i=1, integral dual, 3 <= b <= 9, Pick", ok, f"b={b}")
    res.add("boundary count 9 occurs (the large triangle)", 9 in b_values)
    return res


def suite_small_boundary(i_max: int = 5) -> SuiteResult:
    res = SuiteResult("small-boundary")
    for i in range(1, i_max + 1):
        for b, word, example in ((1, "one", constructions.example_pip_b1), (2, "two", constructions.example_pip_b2)):
            res.add(f"{word}-boundary-point triangle certifies ({i}, {b})", _profile(example(i)) == (i, b))
    res.add(
        "integral polygons never admit b in {1, 2}",
        all(
            not constructions.scott_admissible(i, b)
            for i in range(1, i_max + 1)
            for b in (1, 2)
        ),
    )
    return res


# --- randomized property batteries ------------------------------------------


def _random_unimodular(rng: random.Random) -> IntMat2:
    m = IntMat2.identity()
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-3, 3)
        kind = rng.randrange(3)
        if kind == 0:
            m = m @ IntMat2(1, k, 0, 1)
        elif kind == 1:
            m = m @ IntMat2(1, 0, k, 1)
        else:
            m = m @ IntMat2(0, -1, 1, 0)
    if rng.random() < 0.5:
        m = m @ IntMat2(0, 1, 1, 0)  # det -1 representative
    return m


def _random_polygon(rng: random.Random, span: int = 6, max_den: int = 3) -> RationalPolygon:
    while True:
        pts = [
            Vec2(
                Fraction(rng.randint(-span, span), rng.randint(1, max_den)),
                Fraction(rng.randint(-span, span), rng.randint(1, max_den)),
            )
            for _ in range(rng.randint(3, 7))
        ]
        try:
            return hull(pts)
        except polygon.DegenerateHullError:
            continue


def _random_triangle(rng: random.Random) -> RationalPolygon:
    # a polygon's vertices are strictly convex, so its first three are never collinear
    return hull(_random_polygon(rng).vertices[:3])


def suite_properties(count: int = 100) -> SuiteResult:
    """Randomized invariant batteries, `count` instances per property."""
    res = SuiteResult("properties")
    rng = random.Random(20250810)

    ok = True
    for _ in range(count):
        P = _random_polygon(rng, span=4, max_den=2)
        ok &= ehrhart.check_reciprocity(P, 6 * P.denominator)
    res.add(f"reciprocity at negated arguments, {count} random polygons", ok)

    ok = True
    for _ in range(count):
        P = _random_polygon(rng, span=4, max_den=2)
        m = AffineMap(_random_unimodular(rng), Vec2(rng.randint(-3, 3), rng.randint(-3, 3)))
        Q = P.apply_map(m)
        count_p, count_q = counting.dilate_counter(P), counting.dilate_counter(Q)
        ok &= all(count_p(t) == count_q(t) for t in (1, 2, 3))
        ok &= ehrhart.is_pseudointegral(P).is_pip == ehrhart.is_pseudointegral(Q).is_pip
    res.add(f"counts and verdicts invariant under unimodular maps, {count} polygons", ok)

    ok = True
    for _ in range(count):
        T = _random_triangle(rng)
        m = AffineMap(_random_unimodular(rng), Vec2(rng.randint(-3, 3), rng.randint(-3, 3)))
        ok &= triangle_invariant(T) == triangle_invariant(T.apply_map(m))
    res.add(f"triangle invariant unchanged by unimodular maps, {count} triangles", ok)

    ok = True
    for _ in range(count):
        P = _random_polygon(rng)
        rows = P.edge_table
        normals = [(nx, ny) for nx, ny, _, _, _, _ in rows]
        offsets = [Fraction(num, den) for _, _, num, den, _, _ in rows]
        ok &= RationalPolygon.from_facets(normals, offsets) == P
        for k, (_, _, _, _, wa, wb) in enumerate(rows):
            ok &= edge_lattice_length_from_normals(normals, offsets, k) == Fraction(wb - wa, P.denominator)
    res.add(f"facet-data formulas match direct geometry, {count} polygons", ok)

    ok = True
    pips = 0
    for _ in range(count):
        P = _random_polygon(rng, span=4, max_den=2)
        cert = ehrhart.is_pseudointegral(P)
        if cert.is_pip:
            pips += 1
            ok &= all(den == 1 for _, _, _, den, _, _ in P.edge_table)
            count_p = counting.dilate_counter(P)
            ok &= all(count_p(t)[1] == t * cert.boundary for t in range(1, 3 * P.denominator + 1))
    res.add(
        f"certified polygons have reticular edges and linear boundary counts ({pips} hits)",
        ok and pips > 0,
    )

    ok = True
    nodes = [s for b in (1, 2, 3, 5, 9) for s in vieta.jump_forest(b, 2000)]
    sample = rng.sample(nodes, min(count, len(nodes)))
    table = set(vieta.all_reduced_solutions())
    for s in sample:
        for pos in range(3):
            ok &= vieta_double_jump_is_identity(s, pos)
        ok &= vieta.vieta_reduce(s) in table
    res.add(f"jump involution and reduction to the table, {len(sample)} forest nodes", ok)

    return res


def vieta_double_jump_is_identity(s: VietaSolution, pos: int) -> bool:
    once = vieta.vieta_jump(s, pos)
    # the jumped entry may land elsewhere after sorting; jumping back means
    # jumping the entry that is NOT one of the two kept ones
    kept = list(s.triple())
    kept.pop(pos)
    back_pos = next(
        k for k in range(3) if sorted(once.triple()[:k] + once.triple()[k + 1 :]) == sorted(kept)
    )
    return vieta.vieta_jump(once, back_pos) == s


SUITES = {
    "reduced-table": suite_reduced_table,
    "b-sweep": suite_b_sweep,
    "nvar-bound": suite_nvar,
    "family-grid": suite_family_grid,
    "fibonacci": suite_fibonacci,
    "denominator-grid": suite_denominator_grid,
    "counterexamples": suite_counterexamples,
    "reflexive": suite_reflexive,
    "properties": suite_properties,
    "small-boundary": suite_small_boundary,
}
