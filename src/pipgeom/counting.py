"""Exact lattice-point counting in dilates of rational polygons.

Column x of the dilate t*P holds floor(U) - ceil(L) + 1 lattice points,
where L <= U are the heights of its lower and upper boundary at x; the
count is never negative, so no clipping is needed.  Summed edge by edge,
the total is the number of columns plus, for each non-vertical edge, a
floor sum S(n, b) = sum of floor((a*i + b) / m) over 0 <= i < n, where
the slope a / m is the edge's and only n and b change with t.

A floor sum has a Euclid-style recursion (the lattice-point sums of
Beck & Robins, *Computing the Continuous Discretely*, ch. 1; the same
recursion gives the Dedekind-Rademacher sums of Beck & Robins,
"Explicit and efficient formulas for the lattice point count in rational
polygons using Dedekind-Rademacher sums", DCG 27, 2002).  Write
a = q*m + r: the q*i part sums to q*n*(n-1)/2, and floor(b / m) comes
out of every term; what is left, counted with the two axes swapped, is
a floor sum of slope m / r.  The quotients q and the moduli depend only
on the slope, so `dilate_counter` fixes each edge's chain of steps
(m, q, r) once per polygon, and a dilate only runs b and n down it.
The remainders are the nearest-integer ones, r in (-m/2, m/2], so every
step at least halves m.  A negative r is summed in reverse order: i ->
n - 1 - i turns r*i + b into -r*i + b + r*(n - 1), so the step sets
b += r*(n - 1) and goes on with -r.  One count costs
O(edges * log(size)) big-int steps at any dilate.

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

`dilate_counter(P)` returns the one counter of both; `count_total`,
`count_boundary` and `count_interior` each build one and count a single
dilate with it.
"""

from __future__ import annotations

from typing import Callable

from .polygon import RationalPolygon


def _steps(m: int, a: int) -> list[tuple[int, int, int]]:
    """The Euclid steps (m, q, r) of a floor sum of slope a / m, for m > 0.

    Each step has a = q*m + r with r in (-m/2, m/2]; the next one has
    modulus |r| and slope m / |r|, and the chain ends at r = 0.
    """
    steps = []
    while True:
        q, r = divmod(a, m)
        if 2 * r > m:
            q, r = q + 1, r - m
        steps.append((m, q, r))
        if not r:
            return steps
        m, a = abs(r), m


def dilate_counter(P: RationalPolygon) -> Callable[[int], tuple[int, int]]:
    """`count(t) -> (total, boundary)`: the lattice points of t * P, and those on its boundary.

    Built once per polygon from `P.edge_table`: each non-vertical edge
    keeps its column range and its fixed chain of floor-sum steps, and
    each edge its boundary row; see the module docstring.
    """
    table = P.edge_table
    D, x_lo, x_hi = table.denominator, table.x_lo, table.x_hi
    # per non-vertical edge: its column range, whether it ends at the last
    # column, the terms c and a of b = c*t - a*start, the steps before the
    # last, and the last step's m and q (its r is 0)
    rows = []
    for lo, hi, m, a, c in table.columns:
        *steps, (m, q, _) = _steps(m, -a)
        rows.append((lo, hi, hi == x_hi, a, c, steps, m, q))
    # boundary rows; an edge with den = 1 holds lattice points at every t
    reticular = [(wa, wb) for _, _, _, den, wa, wb in table.edges if den == 1]
    others = [(den, wa, wb) for _, _, _, den, wa, wb in table.edges if den != 1]

    def count(t: int) -> tuple[int, int]:
        if t < 1:
            raise ValueError("dilation factor must be >= 1")
        mt = -t
        total = t * x_hi // D + mt * x_lo // D + 1
        for lo, hi, last, a, c, steps, m_last, q_last in rows:
            start = -(mt * lo // D)
            # half-open x-ranges, except that the column at floor(t * xmax)
            # belongs to the edge of each chain that ends there
            n = (t * hi // D + 1 if last else -(mt * hi // D)) - start
            b = c * t - a * start
            # once n is 0 every later term is 0, so the chain needs no early exit
            for m, q, r in steps:
                if r < 0:
                    b += r * (n - 1)
                    r = -r
                qb, b = divmod(b, m)
                total += q * (n * (n - 1) >> 1) + qb * n
                n, b = divmod(r * n + b, m)
            total += q_last * (n * (n - 1) >> 1) + b // m_last * n
        boundary = 0
        for wa, wb in reticular:
            boundary += mt * wa // D - mt * wb // D
        for den, wa, wb in others:
            if not t % den:
                boundary += mt * wa // D - mt * wb // D
        return total, boundary

    return count


def count_total(P: RationalPolygon, t: int = 1) -> int:
    """Number of lattice points in the closed dilate t * P (t >= 1)."""
    return dilate_counter(P)(t)[0]


def count_boundary(P: RationalPolygon, t: int = 1) -> int:
    """Number of lattice points on the boundary of t * P.

    The sum, over the rows of `P.edge_table` with den | t, of the
    ceil(t*<w, B>/D) - ceil(t*<w, A>/D) lattice points on the half-open
    edge [A, B) of t * P; see the module docstring.
    """
    return dilate_counter(P)(t)[1]


def count_interior(P: RationalPolygon, t: int = 1) -> int:
    """Number of lattice points strictly inside t * P."""
    total, boundary = dilate_counter(P)(t)
    return total - boundary

