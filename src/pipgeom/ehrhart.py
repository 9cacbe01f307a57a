"""Ehrhart quasipolynomials and pseudointegrality certificates.

The lattice-point count of the dilates of a rational polygon is a
degree-2 quasipolynomial whose period divides the polygon denominator
D.  We reconstruct it residue class by residue class from exact counts
at four dilates spaced D apart, in integer arithmetic: finite
differences of the first three samples give the quadratic's
coefficients as integers over 2*D^2, and the fourth must make the third
difference zero, which turns any counting bug into a loud failure
instead of a wrong certificate.

A polygon is pseudointegral (a PIP) when the count function is a
genuine polynomial, i.e. when all residue classes share one
coefficient triple.  For a PIP the polynomial is
area * t^2 + (b/2) * t + 1, so the boundary and interior counts can be
read off the coefficients; we recover them both ways and treat any
disagreement as an internal error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .counting import count_boundary, count_interior, count_total
from .exact import format_rational
from .polygon import RationalPolygon

# Largest certification `certify` and the family-grid suite start, as
# denominator D times edges: the residue fits make 4*D count calls of one
# floor sum per edge.  The Fibonacci triangle j = 7 (D = 142,130, 426,390
# at 3 edges) takes about 6 s; a D of 10^9 would take hours.
CERTIFY_WORK_LIMIT = 5 * 10**5


def certify_work(P: RationalPolygon) -> int:
    """Cost of certifying P as D * edges, the measure `CERTIFY_WORK_LIMIT` bounds."""
    return P.denominator * len(P.vertices)


class CountingConsistencyError(RuntimeError):
    """Internal cross-check failed; signals a counting bug, not bad input."""


@dataclass(frozen=True)
class QuasiPolynomial:
    """Degree-2 quasipolynomial: one (c0, c1, c2) triple per residue class."""

    period: int
    coeffs: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        if self.period < 1 or len(self.coeffs) != self.period:
            raise ValueError("need one coefficient triple per residue class")

    def evaluate(self, t: int) -> Fraction:
        """Value at any integer t, using the residue class of t mod period."""
        c0, c1, c2 = self.coeffs[t % self.period]
        return c0 + c1 * t + c2 * t * t

    @property
    def is_polynomial(self) -> bool:
        return all(c == self.coeffs[0] for c in self.coeffs)

    def collapse(self) -> "QuasiPolynomial":
        """Period-1 form when all residue triples agree, otherwise self.

        This is not a minimal-period search; only the fully degenerate
        (polynomial) case collapses.
        """
        if self.period > 1 and self.is_polynomial:
            return QuasiPolynomial(1, (self.coeffs[0],))
        return self

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "coeffs": {
                str(r): [format_rational(c) for c in triple]
                for r, triple in enumerate(self.coeffs)
            },
        }


def reconstruct_quasipolynomial(P: RationalPolygon) -> QuasiPolynomial:
    """Fit the count quasipolynomial of P with period den(P).

    For residue r the counts n0..n3 are taken at t = t0 + k*D for
    k = 0..3, with t0 = r (t0 = D for the r = 0 class).  The samples are
    equally spaced, so integer finite differences give the quadratic
    exactly: with dd = n2 - 2*n1 + n0 and
    a1 = 2*D*(n1 - n0) - dd*(2*t0 + D), the triple is
    (2*D^2*n0 - t0*a1 - dd*t0^2, a1, dd) / (2*D^2).  The fourth sample
    validates the fit: its third difference must vanish, and a nonzero
    one, impossible for a correct counter, raises
    :class:`CountingConsistencyError`.

    Residues with equal numerators share one coefficient tuple, so for
    a PIP every class holds the same object.
    """
    D = P.denominator
    scale = 2 * D * D
    shared: dict[tuple[int, int, int], tuple[Fraction, Fraction, Fraction]] = {}
    triples = []
    for r in range(D):
        t0 = r or D
        n0 = count_total(P, t0)
        n1 = count_total(P, t0 + D)
        n2 = count_total(P, t0 + 2 * D)
        n3 = count_total(P, t0 + 3 * D)
        predicted = 3 * (n2 - n1) + n0
        if n3 != predicted:
            raise CountingConsistencyError(
                f"residue {r}: quadratic predicts {predicted} at t={t0 + 3 * D}, counted {n3}"
            )
        dd = n2 - 2 * n1 + n0
        a1 = 2 * D * (n1 - n0) - dd * (2 * t0 + D)
        key = (scale * n0 - t0 * a1 - dd * t0 * t0, a1, dd)
        triple = shared.get(key)
        if triple is None:
            # from a list: tuple() of a generator would leave a resized tuple on a free list
            triple = shared[key] = tuple([Fraction(c, scale) for c in key])
        triples.append(triple)
    return QuasiPolynomial(period=D, coeffs=tuple(triples))


@dataclass(frozen=True)
class PipCertificate:
    """Outcome of the pseudointegrality decision for one polygon.

    `interior`/`boundary` are set exactly when `is_pip`; for non-PIPs
    `witness_residues` names two residue classes whose coefficient
    triples differ.
    """

    is_pip: bool
    ehrhart: QuasiPolynomial
    interior: int | None = None
    boundary: int | None = None
    witness_residues: tuple[int, int] | None = None

    def to_json_dict(self) -> dict:
        out = {"is_pip": self.is_pip}
        out.update(self.ehrhart.to_json_dict())
        if self.is_pip:
            out["i"] = self.interior
            out["b"] = self.boundary
        else:
            out["witness_residues"] = list(self.witness_residues)
        return out


def is_pseudointegral(P: RationalPolygon) -> PipCertificate:
    """Decide whether the count function of P is a polynomial.

    True exactly when all residue coefficient triples of the
    reconstructed quasipolynomial coincide.  The recovered profile
    b = 2*c1, i = c2 - c1 + 1 is cross-checked against a direct
    boundary count at t = 1; the two routes can only disagree if
    counting is broken.  The fit sampled the total at t = 1 (residue 1,
    or residue 0 when D = 1) and its triple interpolates that sample, so
    the total there is c0 + c1 + c2 = i + b (c0 = 1), and the interior
    check follows from the boundary check.
    """
    qp = reconstruct_quasipolynomial(P)
    if not qp.is_polynomial:
        first = qp.coeffs[0]
        witness = next(r for r, c in enumerate(qp.coeffs) if c != first)
        return PipCertificate(False, qp, witness_residues=(0, witness))
    c0, c1, c2 = qp.coeffs[0]
    b = 2 * c1
    i = c2 - c1 + 1
    if c0 != 1 or b.denominator != 1 or i.denominator != 1:
        raise CountingConsistencyError(f"polynomial counts with impossible coefficients {qp.coeffs[0]}")
    b, i = int(b), int(i)
    boundary = count_boundary(P, 1)
    if boundary != b:
        raise CountingConsistencyError(
            f"coefficient profile ({i}, {b}) disagrees with direct counts "
            f"({i + b - boundary}, {boundary})"
        )
    return PipCertificate(True, qp.collapse(), interior=i, boundary=b)


def check_reciprocity(P: RationalPolygon, t_max: int) -> bool:
    """Interior counts against the quasipolynomial at negated arguments.

    For polygons (dimension 2) the interior count at t must equal the
    count quasipolynomial evaluated at -t, for every t = 1..t_max.
    """
    if t_max < P.denominator:
        raise ValueError("t_max must be at least the polygon denominator")
    qp = reconstruct_quasipolynomial(P)
    return all(count_interior(P, t) == qp.evaluate(-t) for t in range(1, t_max + 1))
