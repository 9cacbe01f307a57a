"""Ehrhart quasipolynomials and pseudointegrality certificates.

The lattice-point count of the dilates of a rational polygon is a
degree-2 quasipolynomial whose period divides the polygon denominator
D.  We reconstruct it residue class by residue class from exact counts
at four dilates spaced D apart, taken from one `counting.dilate_counter`
per polygon, in integer arithmetic: finite
differences of the first three samples give the quadratic's
coefficients as integers over 2*D^2, and the fourth must make the third
difference zero, which turns any counting bug into a loud failure
instead of a wrong certificate.

Only the residues r = 0..D//2 are counted.  By Ehrhart-Macdonald
reciprocity (Macdonald, J. London Math. Soc. 1971; Beck & Robins,
*Computing the Continuous Discretely*, ch. 4) the interior count of a
polygon at t >= 1 is the count quasipolynomial at -t, so the interior
counts at the dilates of residue r, totals minus boundary counts, fit
the class of -r mod D: a fit (K0, K1, K2) / (2*D^2) there gives the
triple (K0, -K1, K2) / (2*D^2) of residue -r mod D.  Three checks guard
the fits: the fourth sample of each, totals and interior counts alike;
for the self-paired residues 0 and D/2 the two fits must give the same
triple; and a non-PIP witness taken from the mirrored half is counted
directly and must match.

A polygon is pseudointegral (a PIP) when the count function is a
genuine polynomial, i.e. when all residue classes share one
coefficient triple.  For a PIP the polynomial is
area * t^2 + (b/2) * t + 1, so the boundary and interior counts are
read off the coefficients; the fits at t = 1 already equal them to the
direct counts there (see `is_pseudointegral`).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .counting import dilate_counter
from .exact import format_quotient
from .polygon import RationalPolygon

# Largest certification `certify` and the family-grid suite start, as
# denominator D times edges: the residue fits count 4*(D//2 + 1) dilates,
# each with one floor sum per edge.  The Fibonacci triangle j = 6
# (D = 20,737) takes about 0.25 s and j = 7 (D = 142,130, 426,390 at 3
# edges) about 2.2 s on a 2-vCPU VM; a D of 10^9 would take hours.
CERTIFY_WORK_LIMIT = 5 * 10**5


def certify_work(P: RationalPolygon) -> int:
    """Cost of certifying P as D * edges, the measure `CERTIFY_WORK_LIMIT` bounds."""
    return P.denominator * len(P.homogeneous)


class CountingConsistencyError(RuntimeError):
    """Internal cross-check failed; signals a counting bug, not bad input."""


class QuasiPolynomial(namedtuple("QuasiPolynomial", "period numerators scale")):
    """Degree-2 quasipolynomial: one triple per residue class.

    Residue r has the coefficients (c0, c1, c2) = (K0, K1, K2) / scale
    for its integer numerators `numerators[r]` = (K0, K1, K2), over one
    common positive `scale` (2*D^2 for a fit with denominator D).  The
    triples are not reduced, so two quasipolynomials are equal as
    objects only when they share the scale.
    """

    # no __slots__: the cached `coeffs` view lives in the instance __dict__

    def __new__(cls, period: int, numerators: tuple[tuple[int, int, int], ...], scale: int) -> "QuasiPolynomial":
        if period < 1 or len(numerators) != period or scale < 1:
            raise ValueError("need one coefficient triple per residue class and a positive scale")
        return tuple.__new__(cls, (period, numerators, scale))

    @cached_property
    def coeffs(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        """The (c0, c1, c2) triples as `Fraction`s, derived on first use.

        Residues with equal numerators share one triple object.
        """
        view: dict[tuple[int, int, int], tuple[Fraction, Fraction, Fraction]] = {}
        for key in self.numerators:
            if key not in view:
                view[key] = tuple([Fraction(k, self.scale) for k in key])
        return tuple([view[key] for key in self.numerators])

    def evaluate(self, t: int) -> Fraction:
        """Value at any integer t, using the residue class of t mod period."""
        k0, k1, k2 = self.numerators[t % self.period]
        return Fraction(k0 + k1 * t + k2 * t * t, self.scale)

    @property
    def is_polynomial(self) -> bool:
        first = self.numerators[0]
        return all(key == first for key in self.numerators)

    def collapse(self) -> "QuasiPolynomial":
        """The same quasipolynomial over its minimal period, or self when that is the period.

        The minimal period is the least p dividing the period with
        numerators[r] == numerators[r % p] for every r; the periods that
        divide it are closed under gcd, so the least is the minimal one.
        The divisors are found by trial division up to its square root.
        """
        D, keys = self.period, self.numerators
        low = [p for p in range(1, math.isqrt(D) + 1) if D % p == 0]
        for p in low + [D // p for p in reversed(low)]:
            if all(keys[r] == keys[r % p] for r in range(p, D)):
                return self if p == D else QuasiPolynomial(p, keys[:p], self.scale)

    def to_json_dict(self) -> dict:
        """Each coefficient written from its numerator over the scale, with one gcd."""
        scale = self.scale
        return {
            "period": self.period,
            "coeffs": {
                str(r): [format_quotient(k, scale) for k in key]
                for r, key in enumerate(self.numerators)
            },
        }


def _fit(D: int, r: int, samples: list[int], what: str) -> tuple[int, int, int]:
    """Numerators over 2*D^2 of the quadratic through four samples at t0 + k*D.

    The dilates are those of residue r: t0 = r, or t0 = D for r = 0.
    With dd = n2 - 2*n1 + n0 and a1 = 2*D*(n1 - n0) - dd*(2*t0 + D), the
    numerators are (2*D^2*n0 - t0*a1 - dd*t0^2, a1, dd).  The fourth
    sample must make the third difference zero; otherwise, impossible for
    a correct counter, :class:`CountingConsistencyError` names residue r
    and `what` was fitted.
    """
    t0 = r or D
    n0, n1, n2, n3 = samples
    predicted = 3 * (n2 - n1) + n0
    if n3 != predicted:
        raise CountingConsistencyError(
            f"residue {r}: {what}quadratic predicts {predicted} at t={t0 + 3 * D}, counted {n3}"
        )
    dd = n2 - 2 * n1 + n0
    a1 = 2 * D * (n1 - n0) - dd * (2 * t0 + D)
    return 2 * D * D * n0 - t0 * a1 - dd * t0 * t0, a1, dd


def reconstruct_quasipolynomial(P: RationalPolygon) -> QuasiPolynomial:
    """Fit the count quasipolynomial of P with period den(P).

    Residues r = 0..D//2 are counted: totals n_k at t_k = t0 + k*D for
    k = 0..3, with t0 = r (t0 = D for r = 0), fit residue r, and the
    interior counts n_k - b_k, b_k the boundary counts at the same
    dilates, fit residue -r mod D by reciprocity: interior(t) = L(-t)
    for the count quasipolynomial L, so a fit (K0, K1, K2) gives
    (K0, -K1, K2) there.  Both fits check their fourth sample, and a
    nonzero third difference raises :class:`CountingConsistencyError`.
    Residues 0 and D/2 are their own mirror, so there the two fits must
    agree, which checks the boundary counts against the totals at four
    dilates on every polygon.  One `dilate_counter` gives both counts of
    each of the 4*(D//2 + 1) dilates.

    The numerators are kept over the scale 2*D^2, and residues with
    equal numerators share one triple, so for a PIP every class holds
    the same object.
    """
    D = P.denominator
    scale = 2 * D * D
    count = dilate_counter(P)
    shared: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    triples: list = [None] * D
    for r in range(D // 2 + 1):
        t0 = r or D
        counts = [count(t) for t in range(t0, t0 + 4 * D, D)]
        counted = _fit(D, r, [n for n, _ in counts], "")
        k0, k1, k2 = _fit(D, r, [n - b for n, b in counts], "interior counts: ")
        mirrored = (k0, -k1, k2)
        if -r % D == r and mirrored != counted:
            raise CountingConsistencyError(
                f"residue {r}: interior counts give ({', '.join(format_quotient(k, scale) for k in mirrored)}), "
                f"totals ({', '.join(format_quotient(k, scale) for k in counted)})"
            )
        triples[r] = shared.setdefault(counted, counted)
        triples[-r % D] = shared.setdefault(mirrored, mirrored)
    return QuasiPolynomial(D, tuple(triples), scale)


class PipCertificate(
    namedtuple("PipCertificate", "is_pip ehrhart interior boundary witness_residues", defaults=(None, None, None))
):
    """Outcome of the pseudointegrality decision for one polygon.

    `ehrhart` is the `QuasiPolynomial` over its minimal period.
    `interior`/`boundary` are set exactly when `is_pip`; for non-PIPs
    `witness_residues` names two residue classes, both below that period,
    whose coefficient triples differ.
    """

    __slots__ = ()

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
    reconstructed quasipolynomial coincide, that is when its minimal
    period (`QuasiPolynomial.collapse`) is 1; the certificate holds the
    collapsed quasipolynomial.  Otherwise the witness is residue 0 and
    the first residue whose triple differs, which lies below the minimal
    period, as every later triple repeats one below it; when that
    residue was fitted from its mirror's interior counts, its four totals
    are counted as well and must give the same triple, so both named
    residues are counted ones.

    For a PIP the profile is b = 2*c1 and i = c2 - c1 + 1, and c0 must
    be 1.  It needs no direct boundary count at t = 1: the fit of
    residue 1 (residue 0 when D = 1) interpolates the total at t = 1,
    and the mirror of that residue interpolates the interior count there,
    total(1) - boundary(1).  With one triple for every residue, the
    first gives c0 + c1 + c2 = total(1) and the second, at -1,
    c0 - c1 + c2 = total(1) - boundary(1), so b = 2*c1 = boundary(1) and
    i = total(1) - b hold by construction; a boundary count corrupted at
    t = 1 fails the fourth-sample check of that interior fit instead.
    """
    full = reconstruct_quasipolynomial(P)
    qp = full.collapse()
    if qp.period > 1:
        first = qp.numerators[0]
        witness = next(r for r, key in enumerate(qp.numerators) if key != first)
        D = full.period
        if witness > D // 2:
            # a mirrored witness: count its totals too, so both residues named are counted
            count = dilate_counter(P)
            key = _fit(D, witness, [count(t)[0] for t in range(witness, witness + 4 * D, D)], "")
            if key != qp.numerators[witness]:
                raise CountingConsistencyError(
                    f"residue {witness}: totals disagree with the interior counts of residue {D - witness}"
                )
        return PipCertificate(False, qp, witness_residues=(0, witness))
    # c0 must be 1, and b = 2*c1 and i = c2 - c1 + 1 integers: checked on the numerators over S
    (k0, k1, k2), S = qp.numerators[0], qp.scale
    b, b_rest = divmod(2 * k1, S)
    i, i_rest = divmod(k2 - k1, S)
    if k0 != S or b_rest or i_rest:
        coeffs = ", ".join(format_quotient(k, S) for k in (k0, k1, k2))
        raise CountingConsistencyError(f"polynomial counts with impossible coefficients ({coeffs})")
    return PipCertificate(True, qp, interior=i + 1, boundary=b)


def check_reciprocity(P: RationalPolygon, t_max: int) -> bool:
    """Interior counts against the quasipolynomial at negated arguments.

    For polygons (dimension 2) the interior count at t must equal the
    count quasipolynomial evaluated at -t, for every t = 1..t_max.  The
    quasipolynomial is itself fitted by this identity, from the interior
    counts at the dilates t <= 4*D of residues 0..D//2, so up to 4*D the
    check partly re-reads the fit's own samples; beyond that, and at the
    dilates of the mirrored residues, the counts are new.
    """
    if t_max < P.denominator:
        raise ValueError("t_max must be at least the polygon denominator")
    qp = reconstruct_quasipolynomial(P)
    count = dilate_counter(P)
    return all(n - b == qp.evaluate(-t) for t in range(1, t_max + 1) for n, b in [count(t)])
