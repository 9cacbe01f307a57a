from fractions import Fraction as F

import random

import pytest

from pipgeom.constructions import (
    construct_pip,
    example_pip_b1,
    example_pip_b2,
    fibonacci_triangle,
    fourgon_distance_two,
    octagon_empty_boundary,
    scott_grid_polygon,
    t_xyz,
)
from pipgeom.counting import count_boundary, count_total, dilate_counter
from pipgeom.ehrhart import (
    CountingConsistencyError,
    QuasiPolynomial,
    check_reciprocity,
    is_pseudointegral,
    reconstruct_quasipolynomial,
)
from pipgeom.exact import AffineMap, Vec2
from pipgeom.polygon import DegenerateHullError, hull
from pipgeom.suites import suite_properties
from pipgeom.vieta import VietaSolution, all_reduced_solutions

from conftest import fraction_fit_coeffs, random_polygon, random_unimodular

UNIT_SQUARE = hull([Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)])
# D = 3: residues 0 and 1 are counted, and the first residue whose triple
# differs from residue 0's is 2, fitted from residue 1's interior counts
MIRRORED_WITNESS = hull([Vec2(F(-1, 3), 1), Vec2(1, 1), Vec2(1, 2)])


def corrupt_counter(monkeypatch, total=lambda t: 0, boundary=lambda t: 0, calls=None):
    """Make every counter the certificate builds add total(t) and boundary(t) to its counts.

    When `calls` is a list, each counted dilate t is appended to it.
    """
    import pipgeom.ehrhart as ehrhart_mod

    honest = ehrhart_mod.dilate_counter

    def corrupted_counter(Q):
        count = honest(Q)

        def corrupted(t):
            if calls is not None:
                calls.append(t)
            n, b = count(t)
            return n + total(t), b + boundary(t)

        return corrupted

    monkeypatch.setattr(ehrhart_mod, "dilate_counter", corrupted_counter)


def reciprocity_holds(P, t_max):
    """check_reciprocity, and the interior counts against the Fraction oracle at -t."""
    oracle, D = fraction_fit_coeffs(P), P.denominator

    def at(t):
        c0, c1, c2 = oracle[t % D]
        return c0 + c1 * t + c2 * t * t

    count = dilate_counter(P)
    return check_reciprocity(P, t_max) and all(
        count(t)[0] - count(t)[1] == at(-t) for t in range(1, t_max + 1)
    )


def test_unit_square_quasipolynomial():
    qp = reconstruct_quasipolynomial(UNIT_SQUARE)
    assert qp.period == 1
    assert qp.coeffs == ((F(1), F(2), F(1)),)  # (t + 1)^2


def test_fibonacci_triangle_polynomial_collapses():
    T = fibonacci_triangle(1)
    qp = reconstruct_quasipolynomial(T)
    assert qp.period == 2 and qp.is_polynomial
    cert = is_pseudointegral(T)
    assert cert.ehrhart.period == 1
    assert cert.ehrhart.coeffs == ((F(1), F(9, 2), F(9, 2)),)


def test_fourgon_has_distinct_residue_triples():
    qp = reconstruct_quasipolynomial(fourgon_distance_two())
    assert qp.period == 3
    assert not qp.is_polynomial
    assert len(set(qp.coeffs)) >= 2


def test_octagon_certifies_its_minimal_period():
    # D = 6, but residues 0/3, 1/4 and 2/5 share their triples
    O = octagon_empty_boundary()
    full, cert = reconstruct_quasipolynomial(O), is_pseudointegral(O)
    assert full.period == O.denominator == 6
    assert cert.ehrhart.period == 3 and cert.ehrhart.numerators == full.numerators[:3]
    assert list(cert.to_json_dict()["coeffs"]) == ["0", "1", "2"]
    assert cert.witness_residues == (0, 1)


def test_every_family_pip_has_period_one():
    pips = [example_pip_b1(3), example_pip_b2(4), fibonacci_triangle(2), scott_grid_polygon(2, 7)]
    pips += [construct_pip(d, 2, 9) for d in (3, 4, 10)] + [t_xyz(s) for s in all_reduced_solutions()]
    for P in pips:
        cert = is_pseudointegral(P)
        assert cert.is_pip and cert.ehrhart.period == 1


@pytest.mark.parametrize("max_den", [4, 6])
def test_collapse_finds_the_least_period_dividing_d(max_den):
    rng = random.Random(4300 + max_den)
    proper = False
    for _ in range(30):
        P = random_polygon(rng, span=4, max_den=max_den)
        full = reconstruct_quasipolynomial(P)
        D, keys = full.period, full.numerators
        qp = is_pseudointegral(P).ehrhart
        p = qp.period
        assert qp == full.collapse() and D % p == 0
        # the collapsed table expands to the full fit, and no smaller divisor of D is a period
        assert tuple(qp.numerators[r % p] for r in range(D)) == keys
        assert not any(D % s == 0 and all(keys[r] == keys[r % s] for r in range(D)) for s in range(1, p))
        proper |= 1 < p < D
    assert proper


def test_quadratic_coefficient_is_area(rng):
    for _ in range(40):
        P = random_polygon(rng, span=4, max_den=2)
        qp = reconstruct_quasipolynomial(P)
        assert all(c2 == P.area for _, _, c2 in qp.coeffs)


def test_certificates_for_known_polygons():
    cert = is_pseudointegral(t_xyz(VietaSolution(3, 6, 9, 2)))
    assert cert.is_pip and (cert.interior, cert.boundary) == (1, 2)
    assert not is_pseudointegral(octagon_empty_boundary()).is_pip
    assert not is_pseudointegral(fourgon_distance_two()).is_pip


def test_integral_polygons_are_certified(rng):
    for _ in range(30):
        P = random_polygon(rng, max_den=1)
        cert = is_pseudointegral(P)
        assert cert.is_pip
        assert cert.ehrhart.evaluate(1) == count_total(P, 1)


def test_certified_polynomial_form(rng):
    # whenever a polygon certifies, its polynomial is area*t^2 + (b/2)*t + 1
    checked = 0
    for _ in range(60):
        P = random_polygon(rng, span=4, max_den=2)
        cert = is_pseudointegral(P)
        if not cert.is_pip:
            continue
        checked += 1
        b = count_boundary(P, 1)
        assert cert.boundary == b
        assert cert.ehrhart.coeffs[0] == (F(1), F(b, 2), P.area)
        # certified polygons have reticular edges: integer offsets
        assert all(den == 1 for _, _, _, den, _, _ in P.edge_table)
    assert checked > 0


def test_verdict_invariant_under_unimodular_maps(rng):
    for _ in range(40):
        P = random_polygon(rng, span=4, max_den=2)
        m = AffineMap(random_unimodular(rng), Vec2(rng.randint(-3, 3), rng.randint(-3, 3)))
        assert is_pseudointegral(P).is_pip == is_pseudointegral(P.apply_map(m)).is_pip


def test_witness_residues_differ():
    cert = is_pseudointegral(fourgon_distance_two())
    r1, r2 = cert.witness_residues
    assert cert.ehrhart.coeffs[r1] != cert.ehrhart.coeffs[r2]


def test_reciprocity_examples():
    assert reciprocity_holds(UNIT_SQUARE, 5)
    assert reciprocity_holds(t_xyz(VietaSolution(1, 1, 1, 9)), 6)
    assert reciprocity_holds(construct_pip(4, 2, 12), 12)
    assert reciprocity_holds(MIRRORED_WITNESS, 15)


def test_reciprocity_randomized(rng):
    for _ in range(100):
        P = random_polygon(rng, span=4, max_den=2)
        assert reciprocity_holds(P, 2 * P.denominator)


def test_reciprocity_requires_t_max_at_least_denominator():
    with pytest.raises(ValueError):
        check_reciprocity(fibonacci_triangle(1), 1)


def test_properties_reciprocity_battery_catches_a_late_boundary_error(monkeypatch):
    # the battery's polygons have D <= 2, and every fit reads dilates
    # t <= 4D <= 8 only: a boundary count one too high past t = 8 leaves each
    # fit intact, and only reciprocity checked beyond 4D can see it
    corrupt_counter(monkeypatch, boundary=lambda t: int(t > 8))
    failed = [label for label, ok, _ in suite_properties().checks if not ok]
    assert failed == ["reciprocity at negated arguments, 100 random polygons"]


def test_quasipolynomial_evaluate_uses_residue_classes():
    qp = QuasiPolynomial(2, ((2, 0, 2), (0, 2, 2)), 2)
    assert qp.evaluate(2) == 5  # residue 0
    assert qp.evaluate(3) == 12  # residue 1
    assert qp.evaluate(-1) == 0  # residue 1: 0 + (-1) + 1
    assert qp.coeffs == ((F(1), F(0), F(1)), (F(0), F(1), F(1)))
    assert QuasiPolynomial(1, ((1, 3, 2),), 2).evaluate(1) == 3
    with pytest.raises(ValueError):
        QuasiPolynomial(2, ((1, 0, 1),), 1)
    with pytest.raises(ValueError):
        QuasiPolynomial(1, ((1, 0, 1),), 0)


def test_validation_sample_catches_corrupted_counts(monkeypatch):
    corrupt_counter(monkeypatch, total=lambda t: t == 4)  # poison only the 4th sample
    with pytest.raises(CountingConsistencyError):
        reconstruct_quasipolynomial(UNIT_SQUARE)


def test_polynomial_with_constant_term_other_than_one_is_refused(monkeypatch):
    # one more point at every dilate, in the totals only: every residue fits c0 = 2
    corrupt_counter(monkeypatch, total=lambda t: 1)
    # (t + 1)^2 + 1 = 2 + 2t + t^2, written as certify writes coefficients
    with pytest.raises(CountingConsistencyError, match=r"impossible coefficients \(2, 2, 1\)$"):
        is_pseudointegral(UNIT_SQUARE)


def test_certificate_json_shapes():
    pip = is_pseudointegral(fibonacci_triangle(1)).to_json_dict()
    assert pip == {
        "is_pip": True,
        "period": 1,
        "coeffs": {"0": ["1", "9/2", "9/2"]},
        "i": 1,
        "b": 9,
    }
    non = is_pseudointegral(fourgon_distance_two()).to_json_dict()
    assert non["is_pip"] is False and non["period"] == 3
    assert "witness_residues" in non and "i" not in non


@pytest.mark.parametrize(
    "P",
    [
        fibonacci_triangle(1),
        fibonacci_triangle(2),
        fibonacci_triangle(3),
        fourgon_distance_two(),
        octagon_empty_boundary(),
    ],
    ids=["fibonacci-1", "fibonacci-2", "fibonacci-3", "fourgon", "octagon"],
)
def test_integer_fit_matches_fraction_oracle(P):
    assert reconstruct_quasipolynomial(P).coeffs == fraction_fit_coeffs(P)


@pytest.mark.parametrize("max_den", [1, 2, 3, 4])
def test_integer_fit_matches_fraction_oracle_random(max_den):
    rng = random.Random(4100 + max_den)
    verdicts = set()
    for _ in range(25):
        P = random_polygon(rng, span=4, max_den=max_den)
        qp = reconstruct_quasipolynomial(P)
        assert qp.coeffs == fraction_fit_coeffs(P)
        verdicts.add(qp.is_polynomial)
    # integral polygons are PIPs; with denominators non-PIPs, which list every residue, occur
    if max_den == 1:
        assert verdicts == {True}
    else:
        assert False in verdicts


def test_pip_residues_share_one_triple():
    qp = reconstruct_quasipolynomial(fibonacci_triangle(2))
    assert qp.period == 10
    assert all(c is qp.coeffs[0] for c in qp.coeffs)


@pytest.mark.parametrize("sample", [0, 3])
def test_poisoned_sample_names_its_residue(monkeypatch, sample):
    P = fourgon_distance_two()
    D, r = P.denominator, 1
    poisoned_t = r + sample * D

    corrupt_counter(monkeypatch, total=lambda t: -(t == poisoned_t))
    with pytest.raises(CountingConsistencyError, match=rf"^residue {r}: .* at t={r + 3 * D},"):
        reconstruct_quasipolynomial(P)


@pytest.mark.parametrize(
    "P, message",
    [
        (UNIT_SQUARE, r"^residue 0: interior counts give \(0, 2, 1\), totals \(1, 2, 1\)$"),
        (fibonacci_triangle(1), r"^residue 0: interior counts give \(0, 9/2, 9/2\), totals \(1, 9/2, 9/2\)$"),
        (fibonacci_triangle(2), r"^residue 0: interior counts give \(0, 9/2, 9/2\), totals \(1, 9/2, 9/2\)$"),
    ],
    ids=["unit-square", "fibonacci-1", "fibonacci-2"],
)
def test_boundary_cross_check_catches_corrupted_boundary(monkeypatch, P, message):
    corrupt_counter(monkeypatch, boundary=lambda t: 1)
    with pytest.raises(CountingConsistencyError, match=message):
        is_pseudointegral(P)


@pytest.mark.parametrize(
    "P, witness",
    [(UNIT_SQUARE, None), (fibonacci_triangle(2), None), (octagon_empty_boundary(), 1), (fourgon_distance_two(), 2)],
    ids=["unit-square", "fibonacci-2", "octagon", "fourgon"],
)
def test_certificate_counts_four_totals_per_counted_residue(monkeypatch, P, witness):
    calls = []
    corrupt_counter(monkeypatch, calls=calls)
    cert = is_pseudointegral(P)
    D = P.denominator
    mirrored = witness is not None and witness > D // 2
    assert cert.witness_residues == (None if witness is None else (0, witness))
    assert len(calls) == 4 * (D // 2 + 1) + 4 * mirrored


def test_mirrored_witness_is_counted(monkeypatch):
    calls = []
    corrupt_counter(monkeypatch, calls=calls)
    cert = is_pseudointegral(MIRRORED_WITNESS)
    assert cert.ehrhart.coeffs == (
        (F(1), F(4, 3), F(2, 3)),
        (F(1), F(4, 3), F(2, 3)),
        (F(2, 3), F(4, 3), F(2, 3)),
    )
    assert cert.ehrhart.period == 3 and cert.witness_residues == (0, 2)
    # residues 0 and 1 fit the quasipolynomial, then residue 2 is counted
    assert calls == [3, 6, 9, 12, 1, 4, 7, 10, 2, 5, 8, 11]


def test_mirrored_witness_disagreeing_with_its_totals_is_refused(monkeypatch):
    # a constant shift on residue 2 keeps every fourth-sample check quiet
    corrupt_counter(monkeypatch, total=lambda t: t % 3 == 2)
    with pytest.raises(CountingConsistencyError, match=r"^residue 2: totals disagree"):
        is_pseudointegral(MIRRORED_WITNESS)


@pytest.mark.parametrize("q", range(1, 13))
def test_reciprocity_fit_matches_fraction_oracle(q):
    # vertices over one denominator q, so D divides q and the oracle stays
    # cheap; D = q is met for each q, so D runs over odd and even 1..12
    rng = random.Random(4200 + q)
    denominators, vertical, verdicts = set(), False, set()
    for _ in range(20):
        span = 2 * q
        pts = [Vec2(F(rng.randint(-span, span), q), F(rng.randint(-span, span), q)) for _ in range(rng.randint(3, 6))]
        try:
            P = hull(pts)
        except DegenerateHullError:
            continue
        qp = reconstruct_quasipolynomial(P)
        assert qp.coeffs == fraction_fit_coeffs(P)
        denominators.add(P.denominator)
        vertical |= any(ny == 0 for _, ny, _, _, _, _ in P.edge_table)
        verdicts.add(qp.is_polynomial)
    assert q in denominators and vertical
    if q > 1:
        assert False in verdicts


def test_corrupted_boundary_at_one_dilate_is_caught(monkeypatch):
    corrupt_counter(monkeypatch, boundary=lambda t: t == 1)
    with pytest.raises(CountingConsistencyError, match=r"^residue 1: interior counts: quadratic predicts"):
        is_pseudointegral(fibonacci_triangle(2))


def test_half_period_residue_is_self_paired(monkeypatch):
    P = fibonacci_triangle(2)
    D = P.denominator
    assert D == 10
    # a constant shift on residue D/2 passes its fourth-sample checks
    corrupt_counter(monkeypatch, boundary=lambda t: t % D == D // 2)
    with pytest.raises(CountingConsistencyError, match=r"^residue 5: interior counts give \(0, 9/2, 9/2\)"):
        reconstruct_quasipolynomial(P)
