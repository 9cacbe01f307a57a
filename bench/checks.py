"""Output checks for the benchmark, independent of pipgeom's own code.

Each check takes one manifest op and the op's output and returns an
empty string when the output is right, else the reason it is wrong.
Certificates of random polygons are checked against this module's own
hull and lattice-point counter, which share no code with pipgeom.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# The 13 Vieta-reduced solutions (b, x, y, z) of b = (x+y+z)^2/(xyz).
REDUCED_TABLE = frozenset(
    {
        (1, 5, 20, 25), (1, 6, 12, 18), (1, 8, 8, 16), (1, 9, 9, 9),
        (2, 3, 6, 9), (2, 4, 4, 8),
        (3, 2, 4, 6), (3, 3, 3, 3),
        (4, 2, 2, 4), (5, 1, 4, 5), (6, 1, 2, 3), (8, 1, 1, 2), (9, 1, 1, 1),
    }
)
B_VALUES = frozenset({1, 2, 3, 4, 5, 6, 8, 9})

Point = tuple[Fraction, Fraction]


def read_points(path) -> list[Point]:
    with open(path) as fh:
        return [(Fraction(x), Fraction(y)) for x, y in json.load(fh)["vertices"]]


def convex_hull(points: list[Point]) -> list[Point]:
    """Counterclockwise hull vertices by monotone chain, collinear points dropped."""
    pts = sorted(set(points))

    def chain(seq):
        out: list[Point] = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    return chain(pts)[:-1] + chain(reversed(pts))[:-1]


def denominator(points: list[Point]) -> int:
    return math.lcm(*(c.denominator for p in points for c in p))


def dilate_columns(xmin: Fraction, xmax: Fraction, t: int) -> int:
    """floor(t*xmax) - ceil(t*xmin) + 1: the lattice columns of t*P."""
    return (t * xmax.numerator) // xmax.denominator + (-t * xmin.numerator) // xmin.denominator + 1


def count_lattice_points(hull: list[Point], t: int) -> int:
    """Lattice points in t * conv(hull), one integer column at a time.

    Works on the integer polygon L*t*P (L clears every denominator): at
    column X = L*x each edge crossing the line gives an exact y-value
    n/d, and the column holds the integers y with L*y between the least
    and greatest of them.
    """
    L = denominator(hull)
    vs = [(int(x * L) * t, int(y * L) * t) for x, y in hull]
    edges = list(zip(vs, vs[1:] + vs[:1]))
    xs = [v[0] for v in vs]
    total = 0
    for x in range(-(-min(xs) // L), max(xs) // L + 1):
        X = x * L
        lo = hi = None
        for (ax, ay), (bx, by) in edges:
            if not min(ax, bx) <= X <= max(ax, bx):
                continue
            if ax == bx:
                cuts = ((ay, 1), (by, 1))
            else:
                n, d = ay * (bx - ax) + (X - ax) * (by - ay), bx - ax
                cuts = ((n, d) if d > 0 else (-n, -d),)
            for n, d in cuts:
                floor_, ceil_ = n // (d * L), -(-n // (d * L))
                hi = floor_ if hi is None else max(hi, floor_)
                lo = ceil_ if lo is None else min(lo, ceil_)
        if hi is not None and hi >= lo:
            total += hi - lo + 1
    return total


def _certificate(code: int, stdout: str) -> tuple[dict, list[Point], str]:
    try:
        report = json.loads(stdout)
        cert = report["results"]
        verts = [(Fraction(x), Fraction(y)) for x, y in report["inputs"]["polygon"]["vertices"]]
    except (ValueError, KeyError, TypeError) as exc:
        return {}, [], f"unparsable certify output: {exc!r}"
    if code != (0 if cert.get("is_pip") else 1):
        return cert, verts, f"exit code {code} does not match is_pip={cert.get('is_pip')}"
    return cert, verts, ""


def _coeffs(cert: dict) -> dict[int, tuple[Fraction, Fraction, Fraction]]:
    return {int(r): tuple(Fraction(c) for c in triple) for r, triple in cert["coeffs"].items()}


def _pip_profile(cert: dict, i: int, b: int) -> str:
    if not cert.get("is_pip"):
        return "not certified as a PIP"
    if (cert.get("i"), cert.get("b")) != (i, b):
        return f"profile ({cert.get('i')}, {cert.get('b')}), expected ({i}, {b})"
    c0, c1, c2 = _coeffs(cert)[0]
    if cert["period"] != 1 or (c0, 2 * c1, c2 - c1 + 1) != (1, b, i):
        return "polynomial coefficients disagree with the profile"
    return ""


def check_certify(op: dict, code: int, stdout: str, input_path) -> str:
    """Check one `pipgeom certify` result against what its input must give."""
    cert, verts, err = _certificate(code, stdout)
    if err:
        return err
    if op["kind"] == "family":
        return _pip_profile(cert, 1, op["b"]) or (
            "" if denominator(verts) == op["D"] else f"denominator {denominator(verts)} != {op['D']}"
        )
    if op["kind"] == "pip":
        return _pip_profile(cert, op["i"], op["b"]) or (
            "" if denominator(verts) == op["d"] else f"denominator {denominator(verts)} != {op['d']}"
        )
    if op["kind"] == "reflexive":
        return "" if cert.get("is_pip") and cert.get("i") == 1 else "reflexive polygon without i = 1"
    return check_random(cert, verts, read_points(input_path))


def check_random(cert: dict, verts: list[Point], points: list[Point]) -> str:
    """The certificate's quasipolynomial must match direct counts at t = 1..4D."""
    hull = convex_hull(points)
    if sorted(verts) != sorted(hull):
        return "certified polygon is not the hull of the input points"
    D = denominator(hull)
    coeffs = _coeffs(cert)
    period = cert["period"]
    if sorted(coeffs) != list(range(period)) or D % period:
        return f"bad period {period} for denominator {D}"
    for t in range(1, 4 * D + 1):
        c0, c1, c2 = coeffs[t % period]
        if c0 + c1 * t + c2 * t * t != count_lattice_points(hull, t):
            return f"quasipolynomial disagrees with the direct count at t={t}"
    if cert["is_pip"]:
        if len(set(coeffs.values())) != 1:
            return "is_pip with distinct residue coefficients"
        c0, c1, c2 = coeffs[0]
        if (cert["b"], cert["i"]) != (2 * c1, c2 - c1 + 1):
            return "profile disagrees with the polynomial coefficients"
    else:
        r0, r1 = cert["witness_residues"]
        if coeffs[r0 % period] == coeffs[r1 % period]:
            return "witness residues have equal coefficients"
    return ""


def _reduce(x: int, y: int, z: int, b: int) -> tuple[int, int, int]:
    """Jump the largest entry of a sorted solution down until z <= x + y."""
    while z > x + y:
        x, y, z = sorted((x, y, b * x * y - 2 * (x + y) - z))
    return x, y, z


def check_vieta(op: dict, result) -> str:
    """Check one Vieta call's result against the known solution structure."""
    call, args = op["call"], op["args"]
    if call == "all_reduced_solutions":
        got = {(s.b, s.x, s.y, s.z) for s in result}
        return "" if got == REDUCED_TABLE and len(result) == 13 else f"reduced table {sorted(got)}"
    if call == "solution_b_sweep":
        if set(result) != B_VALUES:
            return f"b-values {sorted(result)}"
        bad = [b for b, (x, y, z) in result.items() if (x + y + z) ** 2 != b * x * y * z or z > args[0]]
        return f"bad witnesses for b in {bad}" if bad else ""
    if call == "verify_general_bound":
        n = args[0]
        if result.max_b != n * n or not result.all_reduce:
            return f"max_b={result.max_b}, all_reduce={result.all_reduce}"
        if n == 3 and not result.b_values <= B_VALUES:
            return f"b-values {sorted(result.b_values)}"
        return ""
    if call == "jump_forest":
        b, max_z = args
        for s in result:
            if (s.x + s.y + s.z) ** 2 != b * s.x * s.y * s.z or s.z > max_z:
                return f"forest node {s} is not a solution with z <= {max_z}"
            if (b, *_reduce(s.x, s.y, s.z, b)) not in REDUCED_TABLE:
                return f"forest node {s} does not reduce into the table"
        return "" if result or b == 7 else "empty forest"
    return f"unknown call {call}"
