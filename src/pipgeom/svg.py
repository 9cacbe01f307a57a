"""Static SVG pictures of polygons on the integer lattice.

Output shows the unit lattice as dots, the polygon filled, and every
boundary lattice point (`RationalPolygon.boundary_points`) highlighted.
Floating point appears only here, in presentation coordinates, each an
integer quotient of the vertex triples (X, Y, d) of
`RationalPolygon.homogeneous`; nothing feeds back into the geometry.
"""

from __future__ import annotations

from collections.abc import Iterator

from .polygon import RationalPolygon


def _fmt(v: float) -> str:
    s = f"{v:.3f}".rstrip("0").rstrip(".")
    return s if s else "0"


SCALE = 48  # pixels per lattice unit
MARGIN = 1  # lattice units drawn around the bounding box

# Most lattice points the grid of one picture may have.  The document is
# written line by line as it is drawn, one line per grid point, and only the
# boundary points are kept: at the limit a picture takes about 1 s and 13-16 MB
# of SVG, at 16 MB peak RSS on a 500 x 500 grid and 31 MB on scott-grid's
# 50,000 x 5 grid, whose 100,000 boundary points are kept in a set (2-vCPU
# Xeon, Python 3.11).  Time and file size grow linearly with the grid.
SVG_GRID_POINT_LIMIT = 250_000


def render_svg(P: RationalPolygon) -> Iterator[str]:
    """Render a polygon as a standalone SVG 1.1 document, one line at a time.

    Raises ValueError when called, before drawing anything, when the grid
    of lattice points over the bounding box has more than
    SVG_GRID_POINT_LIMIT points.  Otherwise returns an iterator over the
    document's lines, each ending in a newline, drawn as they are read.
    """
    H = P.homogeneous
    gx0, gx1 = min(X // d for X, _, d in H) - MARGIN, max(-(-X // d) for X, _, d in H) + MARGIN
    gy0, gy1 = min(Y // d for _, Y, d in H) - MARGIN, max(-(-Y // d) for _, Y, d in H) + MARGIN
    grid = (gx1 - gx0 + 1) * (gy1 - gy0 + 1)
    if grid > SVG_GRID_POINT_LIMIT:
        raise ValueError(f"the SVG grid has {grid} lattice points, over SVG_GRID_POINT_LIMIT = {SVG_GRID_POINT_LIMIT}")
    return _lines(P, gx0, gx1, gy0, gy1)


def _lines(P: RationalPolygon, gx0: int, gx1: int, gy0: int, gy1: int) -> Iterator[str]:
    """The lines of :func:`render_svg`'s document over the grid [gx0, gx1] x [gy0, gy1]."""

    # int / int rounds once, exactly as float(Fraction) does
    def px(X: int, d: int = 1) -> float:
        return (X - gx0 * d) * SCALE / d

    def py(Y: int, d: int = 1) -> float:
        return (gy1 * d - Y) * SCALE / d  # flip: SVG y grows downward

    width, height = (gx1 - gx0) * SCALE, (gy1 - gy0) * SCALE
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
    )
    yield f'<rect width="{width}" height="{height}" fill="white"/>\n'
    path = " ".join(
        f"{'M' if i == 0 else 'L'} {_fmt(px(X, d))} {_fmt(py(Y, d))}"
        for i, (X, Y, d) in enumerate(P.homogeneous)
    )
    yield f'<path d="{path} Z" fill="#c8c8c8" fill-opacity="0.8" stroke="black" stroke-width="1.5"/>\n'
    boundary = P.boundary_points()
    for gx in range(gx0, gx1 + 1):
        for gy in range(gy0, gy1 + 1):
            if (gx, gy) not in boundary:
                yield f'<circle cx="{_fmt(px(gx))}" cy="{_fmt(py(gy))}" r="2" fill="#404040"/>\n'
    for gx, gy in sorted(boundary):
        yield (
            f'<circle cx="{_fmt(px(gx))}" cy="{_fmt(py(gy))}" r="4" '
            'fill="black" stroke="white" stroke-width="1"/>\n'
        )
    yield "</svg>\n"

