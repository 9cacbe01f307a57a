"""Exact lattice-point counting in dilates of rational polygons.

Column x of the dilate t*P holds floor(U) - ceil(L) + 1 lattice points,
where L <= U are the heights of its lower and upper boundary at x; the
count is never negative, so no clipping is needed.  Summed edge by edge,
the total is the number of columns plus, for each non-vertical edge, a
sum of floors of one linear function over the integer x-range that edge
spans.  Such a floor sum has a Euclid-style recursion (the lattice-point
sums of Beck & Robins, *Computing the Continuous Discretely*, ch. 1-2),
so one count costs O(edges * log(size)) big-int steps at any dilate.

Boundary counts need no floor sums.  On the edge from A to B of D * P
(integer vertices, primitive step s), the lattice points of the line of
the dilated edge exist only when the offset's reduced denominator den
divides t.  Then an integer w with <w, s> = 1 numbers them by
consecutive integers, so the half-open edge [A, B) of t * P holds
ceil(t*<w, B>/D) - ceil(t*<w, A>/D) of them.  Half-open edges count
every boundary lattice point exactly once: a lattice vertex t*A/D makes
the offset of the edge it starts integral at t, so that edge's den
divides t and counts the vertex, and the edge ending there does not.
O(edges) integer steps per count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polygon import RationalPolygon


@dataclass(frozen=True)
class CountReport:
    """Counts for one dilate t: total = boundary + interior."""

    t: int
    total: int
    boundary: int
    interior: int

    def __post_init__(self) -> None:
        if self.total != self.boundary + self.interior:
            raise ValueError("total must equal boundary + interior")
        if min(self.t, self.total, self.boundary, self.interior) < 0 or self.t < 1:
            raise ValueError("counts must be nonnegative and t >= 1")


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*i + b) / m) over 0 <= i < n, for m > 0.

    Euclid-style reduction as in the AtCoder Library's `floor_sum`: take
    out the integer parts of a/m and b/m, then count the lattice points
    left under the line with the two axes swapped.  O(log m) steps.
    """
    total = 0
    while n > 0:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


def count_total(P: RationalPolygon, t: int = 1) -> int:
    """Number of lattice points in the closed dilate t * P (t >= 1)."""
    if t < 1:
        raise ValueError("dilation factor must be >= 1")
    table = P.edge_table
    D, x_hi = table.denominator, table.x_hi
    first_column = -(-t * table.x_lo // D)
    total = t * x_hi // D - first_column + 1
    for lo, hi, m, a, c in table.columns:
        start = -(-t * lo // D)
        # half-open x-ranges, except that the column at floor(t * xmax)
        # belongs to the edge of each chain that ends there
        stop = t * hi // D + 1 if hi == x_hi else -(-t * hi // D)
        total += _floor_sum(stop - start, m, -a, c * t - a * start)
    return total


def count_boundary(P: RationalPolygon, t: int = 1) -> int:
    """Number of lattice points on the boundary of t * P.

    The sum, over the rows of `P.edge_table` with den | t, of the
    ceil(t*<w, B>/D) - ceil(t*<w, A>/D) lattice points on the half-open
    edge [A, B) of t * P; see the module docstring.
    """
    if t < 1:
        raise ValueError("dilation factor must be >= 1")
    table = P.edge_table
    D = table.denominator
    total = 0
    for _, _, _, den, wa, wb in table.edges:
        if t % den == 0:
            total += (-t * wa) // D - (-t * wb) // D
    return total


def count_interior(P: RationalPolygon, t: int = 1) -> int:
    """Number of lattice points strictly inside t * P."""
    return count_total(P, t) - count_boundary(P, t)


def count_report(P: RationalPolygon, t: int = 1) -> CountReport:
    total = count_total(P, t)
    boundary = count_boundary(P, t)
    return CountReport(t=t, total=total, boundary=boundary, interior=total - boundary)


def profile(P: RationalPolygon) -> tuple[int, int]:
    """(interior, boundary) counts of the undilated polygon."""
    r = count_report(P, 1)
    return r.interior, r.boundary
