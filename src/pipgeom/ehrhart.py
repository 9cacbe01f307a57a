"""Ehrhart quasipolynomials and pseudointegrality certificates.

The lattice-point count of the dilates of a rational polygon is a
degree-2 quasipolynomial whose period divides the polygon denominator.
We reconstruct it residue class by residue class from exact counts:
three samples pin the quadratic and a fourth independent sample turns
any counting bug into a loud failure instead of a wrong certificate.

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

from .counting import count_interior, count_report, count_total
from .exact import format_rational
from .polygon import RationalPolygon


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


def _fit_quadratic(samples: list[tuple[int, int]]) -> tuple[Fraction, Fraction, Fraction]:
    """Exact quadratic through three (t, value) points, via divided differences."""
    (t0, n0), (t1, n1), (t2, n2) = samples
    d1 = Fraction(n1 - n0, t1 - t0)
    d2 = Fraction(n2 - n1, t2 - t1)
    c2 = (d2 - d1) / (t2 - t0)
    c1 = d1 - c2 * (t0 + t1)
    c0 = n0 - c1 * t0 - c2 * t0 * t0
    return c0, c1, c2


def reconstruct_quasipolynomial(P: RationalPolygon) -> QuasiPolynomial:
    """Fit the count quasipolynomial of P with period den(P).

    For residue r the quadratic is fitted at t = r, r+D, r+2D (the
    r = 0 class uses D, 2D, 3D) and validated at one further sample.
    A validation mismatch is impossible for a correct counter and
    raises :class:`CountingConsistencyError`.
    """
    D = P.denominator
    triples = []
    for r in range(D):
        ts = [D, 2 * D, 3 * D] if r == 0 else [r, r + D, r + 2 * D]
        check_t = 4 * D if r == 0 else r + 3 * D
        c0, c1, c2 = _fit_quadratic([(t, count_total(P, t)) for t in ts])
        predicted = c0 + c1 * check_t + c2 * check_t * check_t
        actual = count_total(P, check_t)
        if predicted != actual:
            raise CountingConsistencyError(
                f"residue {r}: quadratic predicts {predicted} at t={check_t}, counted {actual}"
            )
        triples.append((c0, c1, c2))
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
    b = 2*c1, i = c2 - c1 + 1 is cross-checked against direct counts
    at t = 1; the two routes can only disagree if counting is broken.
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
    direct = count_report(P, 1)
    if direct.boundary != b or direct.interior != i:
        raise CountingConsistencyError(
            f"coefficient profile ({i}, {b}) disagrees with direct counts "
            f"({direct.interior}, {direct.boundary})"
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
