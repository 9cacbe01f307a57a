"""Seeded input generation for the pipgeom benchmark workloads.

Run as a script, this is the benchmark's set-up step in a fresh
interpreter: it imports pipgeom, builds and writes one workload's inputs,
and prints one JSON line with the elapsed time and the input digest.

    python3 bench/inputs.py --workload certify-deep --seed 1 --out bench/.work/inputs/x

The same (workload, seed, smoke) always writes byte-identical files.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from before `import pipgeom`

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pipgeom import AffineMap, IntMat2, Vec2, constructions, vieta  # noqa: E402
from pipgeom.exact import format_rational  # noqa: E402

MANIFEST = "manifest.json"


def _unimodular_image(T, rng: random.Random):
    """T under a seeded lattice automorphism that widens every dilate.

    x' = s1 (x - y) sets the column count, which the seed does not
    touch, so run cost stays steady across seeds; the seed picks the
    y-shear m, the signs and the translation.  D and the verdict are
    lattice invariants, so the expected certificate is unchanged.
    """
    s1, s2 = rng.choice((1, -1)), rng.choice((1, -1))
    m = rng.randint(-3, 3)
    # rows: x' = s1*(x - y), y' = s2*(y + m*(x - y))
    linear = IntMat2(s1, -s1, s2 * m, s2 * (1 - m))
    shift = Vec2(rng.randint(-3, 3), rng.randint(-3, 3))
    return T.apply_map(AffineMap(linear, shift))


def _certify_deep(rng: random.Random, smoke: bool) -> list[dict]:
    depth = 1 if smoke else 4
    seeds = vieta.all_reduced_solutions()
    if smoke:
        seeds = seeds[-3:]
    ops = []
    for seed in seeds:
        for state in vieta.family(seed, depth):
            T = constructions.t_xyz(state.solution())
            tag = f"{seed.b}-{'-'.join(map(str, seed.triple()))}-j{state.j}"
            expect = {"kind": "family", "b": seed.b, "D": T.denominator}
            ops.append({"name": f"t{tag}", "polygon": T, **expect})
            ops.append({"name": f"t{tag}-map", "polygon": _unimodular_image(T, rng), **expect})
    return ops


def _random_points(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    """3-7 points with |coordinate| <= 6 and denominators <= 3, not all collinear."""
    while True:
        pts = [
            (Fraction(rng.randint(-6, 6), rng.randint(1, 3)), Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            for _ in range(rng.randint(3, 7))
        ]
        (ax, ay), (bx, by) = pts[0], pts[1]
        if any((bx - ax) * (cy - ay) != (by - ay) * (cx - ax) for cx, cy in pts[2:]):
            return pts


def _certify_many(rng: random.Random, smoke: bool) -> list[dict]:
    i_max, n_random = (1, 5) if smoke else (6, 200)
    ops = []
    for d, (slope, intercept) in ((3, (3, 5)), (4, (4, 4)), (10, (5, 4))):
        for i in range(1, i_max + 1):
            for b in range(2, slope * i + intercept + 1):
                P = constructions.construct_pip(d, i, b)
                ops.append({"name": f"p{d}-{i}-{b}", "polygon": P, "kind": "pip", "d": d, "i": i, "b": b})
    catalog = constructions.reflexive_catalog()
    for k, P in enumerate(catalog[:2] if smoke else catalog):
        ops.append({"name": f"reflexive-{k}", "polygon": P, "kind": "reflexive"})
    for k in range(n_random):
        # raw points, not their hull: the certify call parses and hulls them
        ops.append({"name": f"random-{k}", "points": _random_points(rng), "kind": "random"})
    rng.shuffle(ops)
    return ops


def _vieta_search(rng: random.Random, smoke: bool) -> list[dict]:
    sweep, bounds, max_z = (30, ((3, 20), (4, 8)), 10**4) if smoke else (300, ((3, 200), (4, 40)), 10**12)
    ops = [{"name": f"sweep-{sweep}", "call": "solution_b_sweep", "args": [sweep]}]
    ops += [{"name": f"nvar-{n}-{B}", "call": "verify_general_bound", "args": [n, B]} for n, B in bounds]
    ops.append({"name": "reduced-table", "call": "all_reduced_solutions", "args": []})
    ops += [{"name": f"forest-{b}", "call": "jump_forest", "args": [b, max_z]} for b in range(1, 10)]
    rng.shuffle(ops)
    return ops


_GENERATORS = {"certify-deep": _certify_deep, "certify-many": _certify_many, "vieta-search": _vieta_search}
WORKLOADS = tuple(_GENERATORS)


def build(workload: str, seed: int, out: Path, smoke: bool = False) -> dict:
    """Write one workload's inputs under `out` and return its manifest.

    Certify ops get one polygon JSON file each; the manifest lists every
    op with what its output must satisfy, and carries a SHA-256 digest
    of everything written.
    """
    ops = _GENERATORS[workload](random.Random(f"{workload}:{seed}"), smoke)
    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for k, op in enumerate(ops):
        if "call" in op:
            continue
        pts = op.pop("points", None) or [(v.x, v.y) for v in op.pop("polygon").vertices]
        data = json.dumps({"vertices": [[format_rational(x), format_rational(y)] for x, y in pts]}).encode()
        op["file"] = f"{k:04d}-{op['name']}.json"
        (out / op["file"]).write_bytes(data)
        digest.update(op["file"].encode() + b"\0" + data + b"\0")
    body = json.dumps(ops, sort_keys=True).encode()
    digest.update(body)
    manifest = {"workload": workload, "seed": seed, "smoke": smoke, "digest": digest.hexdigest(), "ops": ops}
    (out / MANIFEST).write_text(json.dumps(manifest, sort_keys=True))
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for the self-test")
    args = parser.parse_args()
    manifest = build(args.workload, args.seed, args.out, args.smoke)
    print(json.dumps({"setup_s": time.perf_counter() - STARTED, "digest": manifest["digest"]}))


if __name__ == "__main__":
    main()
