"""Command-line surface: certify, vieta, construct, verify.

All machine-readable output is JSON on stdout and is byte-deterministic
for fixed inputs and flags; wall-clock timing goes to stderr.  One
writer, `_emit`, prints the JSON of `certify`, `vieta` and `construct`:
its bytes are exactly those of `json.dumps(payload, indent=2,
sort_keys=True)` plus a newline, written by a short recursive writer
rather than the pure-Python encoder that `indent` selects.  The
`certify` exit code distinguishes a pseudointegral polygon (0) from a
rational one that is not (1) and from unusable input (2).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import NoReturn

from . import __version__
from .constructions import build
from .ehrhart import CERTIFY_WORK_LIMIT, certify_work, is_pseudointegral
from .exact import parse_integer
from .polygon import RationalPolygon
from .suites import SUITES
from .svg import render_svg
from .vieta import VietaSolution, enumerate_reduced, family, is_vieta_reduced, jump_forest, search_cost

USAGE_ERROR = 2


class UsageError(Exception):
    """Unusable input: `main` prints "error: <message>" on stderr and exits 2.

    Not a ValueError, so a ValueError from library code still propagates
    as the internal fault it is.
    """


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals raise UsageError; subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)


# Largest search `verify` starts, in the work units of `vieta.search_cost`.
# At the limit each n = 2..6 searches in at most about 40 ms and 1.6 MB of
# traced allocations (n = 2, bound 4,209); b-sweep admits bounds up to 400,
# which search in about 7 ms (2-vCPU VM).
VERIFY_SEARCH_LIMIT = 10**5

# Most digits `certify` accepts in the integers that write the polygon over
# its denominator D: D itself and the vertex coordinates of D * P.  The
# Ehrhart coefficients print counts of dilates up to 3D over 2*D^2; with D
# within CERTIFY_WORK_LIMIT no printed value can pass 4,014 digits (a
# triangle at the limit with D = 166,666 prints 4,001), inside CPython's
# 4,300-digit int-to-str limit.
CERTIFY_COORDINATE_DIGITS = 2000
_COORDINATE_BOUND = 10**CERTIFY_COORDINATE_DIGITS

# Largest index `construct --family fibonacci` builds.  The triangle's
# coordinates have numerators near 3 * F_{2j+1}, about 0.418 * j digits:
# 4,181 at the limit, inside CPython's 4,300-digit int-to-str limit.
FIBONACCI_INDEX_LIMIT = 10**4

# Most digits of each `construct --params` entry.  A family's coordinates are
# sums and products of at most two parameters (t-xyz has denominators x * z),
# so no printed integer has more than 4,000 digits, inside CPython's 4,300-digit
# int-to-str limit.  Fibonacci indices have their own, smaller limit.
CONSTRUCT_PARAMETER_DIGITS = 2000
_PARAMETER_BOUND = 10**CONSTRUCT_PARAMETER_DIGITS

# Largest `vieta --forest --max-z`.  The forest grows with the square of the
# number of digits of max-z; b = 1 grows fastest: at the limit it has 21,132
# nodes and a whole run takes about 0.6 s (0.2-0.25 s of it the search, most of
# the rest writing 9 MB of JSON) and 65 MB peak RSS (2-vCPU Xeon, Python 3.11).
# Every other b takes at most about half of that.
VIETA_MAX_Z_LIMIT = 10**100

# Deepest family `vieta --family` grows.  The fastest-growing families
# (b*x = 9) multiply z by about 6.85 per step, so at depth 1000 no entry
# passes 840 digits, well inside CPython's 4,300-digit int-to-str limit;
# all 13 reduced seeds print at the limit, about 10 MB of JSON in total.
# `verify --suite family-grid --depth` has the same limit: at depth 1000 it
# builds 13,013 triangles and takes about 40-44 s and 47 MB peak RSS, nearly
# all of it certifying the 117 within CERTIFY_WORK_LIMIT (2-vCPU VM, Python 3.11).
VIETA_DEPTH_LIMIT = 1000

# Largest `verify --suite properties --count`.  Each instance costs about
# 1.3 ms: the limit runs in about 1.3-1.5 s at 17 MB peak RSS (2-vCPU VM, Python 3.11).
PROPERTIES_COUNT_LIMIT = 1000

# The numeric flags each suite reads, each mapped to its least value and its
# (name, most value) limit, None where VERIFY_SEARCH_LIMIT bounds the search;
# any other numeric flag is refused.  A suite takes each flag as the keyword of
# the same name, except nvar-bound, which folds --n and --bound into one case.
_SUITE_FLAGS = {
    "b-sweep": {"bound": (1, None)},
    "nvar-bound": {"n": (2, None), "bound": (1, None)},
    "family-grid": {"depth": (0, ("VIETA_DEPTH_LIMIT", VIETA_DEPTH_LIMIT))},
    "properties": {"count": (1, ("PROPERTIES_COUNT_LIMIT", PROPERTIES_COUNT_LIMIT))},
}


def _emit(payload: dict) -> None:
    """Print payload as `json.dumps(payload, indent=2, sort_keys=True)` would.

    Takes dicts with str keys, lists, tuples, str, int, bool and None;
    anything else raises TypeError, as `json.dumps` does.  Strings go
    through the encoder that `ensure_ascii` uses, ints through
    `int.__repr__`.
    """
    out: list[str] = []
    _write_json(payload, out, "\n")
    text = "".join(out)
    del out  # the pieces are freed before print encodes the text
    print(text)


def _write_json(value, out: list[str], newline: str) -> None:
    """Append the indented JSON text of value to out; `newline` is the line break and indent before it."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        # the separators are shared strings: out holds one new string per value
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write_json(value[key], out, inner)
            sep = comma
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = comma
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _cmd_certify(args: argparse.Namespace) -> int:
    try:
        with open(args.polygon_file) as fh:
            data = json.load(fh)
        P = RationalPolygon.from_json_dict(data)
    except RecursionError:
        # json.load recurses once per level of nesting
        raise UsageError("cannot read polygon: JSON nested too deeply") from None
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read polygon: {exc}") from exc
    # a D too long to print is refused under the digit limit, and D * P is
    # built only once D is within the work limit
    work = certify_work(P)
    if work > CERTIFY_WORK_LIMIT and P.denominator < _COORDINATE_BOUND:
        raise UsageError(
            f"denominator {P.denominator} times {len(P.homogeneous)} edges is {work}, "
            f"over CERTIFY_WORK_LIMIT = {CERTIFY_WORK_LIMIT}"
        )
    if P.denominator >= _COORDINATE_BOUND or any(
        abs(c) >= _COORDINATE_BOUND for xy in P.scaled_vertices for c in xy
    ):
        raise UsageError(
            "the denominator D or a vertex coordinate of D * P has more than "
            f"CERTIFY_COORDINATE_DIGITS = {CERTIFY_COORDINATE_DIGITS} digits"
        )
    cert = is_pseudointegral(P)
    _emit({"command": "certify", "inputs": {"polygon": P.to_json_dict()}, "results": cert.to_json_dict()})
    return 0 if cert.is_pip else 1


def _solutions_json(solutions) -> list[list[int]]:
    return [[s.x, s.y, s.z, s.b] for s in sorted(solutions)]


def _solutions_table(solutions) -> str:
    rows = [("b", "x", "y", "z")] + [
        (str(s.b), str(s.x), str(s.y), str(s.z))
        for s in sorted(solutions, key=lambda s: (s.b, s.x, s.y, s.z))
    ]
    widths = [max(len(r[k]) for r in rows) for k in range(4)]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)


def _cmd_vieta(args: argparse.Namespace) -> int:
    if not 1 <= args.b <= 9:
        raise UsageError("--b must be in 1..9")
    modes = [mode for mode in ("reduced", "forest", "family") if getattr(args, mode)]
    if len(modes) != 1:
        raise UsageError("choose exactly one of --reduced, --forest, --family")
    # each mode reads only its own flags, as each `verify` suite does
    unread = (
        "--max-z" if args.max_z is not None and not args.forest
        else "--depth" if args.depth is not None and not args.family
        else "--format table" if args.format == "table" and args.forest
        else None
    )
    if unread:
        raise UsageError(f"vieta --{modes[0]} does not read {unread}")
    depth = 4 if args.depth is None else args.depth
    if not 0 <= depth <= VIETA_DEPTH_LIMIT:
        raise UsageError(f"--depth must be in 0..VIETA_DEPTH_LIMIT = {VIETA_DEPTH_LIMIT}, got {depth}")
    inputs: dict = {"b": args.b}
    if args.reduced:
        sols = enumerate_reduced(args.b)
        if args.format == "table":
            print(_solutions_table(sols))
            return 0
        results = {"reduced": _solutions_json(sols)}
    elif args.forest:
        if args.max_z is None:
            raise UsageError("--forest requires --max-z")
        if not 1 <= args.max_z <= VIETA_MAX_Z_LIMIT:
            raise UsageError("--max-z must be in 1..VIETA_MAX_Z_LIMIT = 10**100")
        inputs["max_z"] = args.max_z
        forest = jump_forest(args.b, args.max_z)
        results = {
            "forest": {
                f"{s.x},{s.y},{s.z}": [f"{t.x},{t.y},{t.z}" for t in nbrs]
                for s, nbrs in forest.items()
            }
        }
    else:
        try:
            x, y, z = (parse_integer(v) for v in args.family.split(","))
            seed = VietaSolution.from_triple(x, y, z)
        except ValueError as exc:
            raise UsageError(f"bad --family seed: {exc}") from exc
        if seed.b != args.b or not is_vieta_reduced(seed):
            raise UsageError("--family seed must be a reduced solution for --b")
        inputs |= {"seed": seed.triple(), "depth": depth}
        states = family(seed, depth)
        if args.format == "table":
            print("\n".join(f"{st.j:3d}  x={st.x}  y={st.y}  z={st.z}" for st in states))
            return 0
        results = {"family": [{"j": st.j, "x": st.x, "y": st.y, "z": st.z} for st in states]}
    _emit({"command": "vieta", "inputs": inputs, "results": results})
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    try:
        params = tuple(parse_integer(v) for v in args.params.split(",")) if args.params else ()
        if any(abs(p) >= _PARAMETER_BOUND for p in params):
            raise UsageError(
                f"parameters must have at most CONSTRUCT_PARAMETER_DIGITS = {CONSTRUCT_PARAMETER_DIGITS} digits"
            )
        if args.family == "fibonacci" and max(params, default=0) > FIBONACCI_INDEX_LIMIT:
            raise UsageError(f"index must be at most FIBONACCI_INDEX_LIMIT = {FIBONACCI_INDEX_LIMIT}")
        P = build(args.family, params)
        if args.svg:
            # render_svg refuses an oversized grid when called, before the file is opened
            lines = render_svg(P)
            with open(args.svg, "w") as fh:
                fh.writelines(lines)
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    # bare polygon JSON so the output pipes straight into `certify`
    _emit(P.to_json_dict())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; known: {sorted(SUITES)}")
    read = _SUITE_FLAGS.get(args.suite, {})
    given = {name: value for name in ("bound", "n", "depth", "count") if (value := getattr(args, name)) is not None}
    for name, value in given.items():
        if name not in read:
            raise UsageError(f"suite {args.suite} does not read --{name}")
        least, limit = read[name]
        if value < least:
            raise UsageError(f"--{name} must be at least {least}, got {value}")
        if limit is not None and value > limit[1]:
            raise UsageError(f"--{name} must be at most {limit[0]} = {limit[1]}, got {value}")
    if args.suite == "nvar-bound" and args.bound is not None and args.n is None:
        raise UsageError("suite nvar-bound reads --bound only together with --n")
    kwargs = {} if args.suite == "nvar-bound" else given
    search = None
    if args.suite == "b-sweep" and args.bound is not None:
        search = (3, args.bound)
    if args.suite == "nvar-bound" and args.n is not None:
        bound = 40 if args.bound is None else args.bound
        kwargs["cases"] = ((args.n, bound),)
        search = (args.n, bound)
    if search is not None and search_cost(*search) > VERIFY_SEARCH_LIMIT:
        n, bound = search
        raise UsageError(
            f"a search over {n}-tuples with entries <= {bound} exceeds "
            f"VERIFY_SEARCH_LIMIT = {VERIFY_SEARCH_LIMIT} units of work"
        )
    result = SUITES[args.suite](**kwargs)
    for line in result.lines():
        print(line)
    print(f"suite {result.name}: {'pass' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pipgeom",
        description="Exact lattice geometry of rational polygons.",
    )
    parser.add_argument("--version", action="version", version=f"pipgeom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="decide pseudointegrality of a polygon JSON file")
    p.add_argument("polygon_file")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("vieta", help="solution sets of b = (x+y+z)^2/(xyz)")
    p.add_argument("--b", type=parse_integer, required=True)
    p.add_argument("--reduced", action="store_true", help="list the reduced solutions")
    p.add_argument("--forest", action="store_true", help="jump graph up to --max-z")
    p.add_argument("--max-z", type=parse_integer, default=None)
    p.add_argument("--family", metavar="X,Y,Z", help="grow the family from a reduced seed")
    p.add_argument("--depth", type=parse_integer, default=None, help="family depth (default 4)")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=_cmd_vieta)

    p = sub.add_parser("construct", help="emit a polygon from a named family")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default="", help="comma-separated integer parameters")
    p.add_argument("--svg", metavar="PATH", help="also render the polygon as SVG")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--bound", type=parse_integer, default=None)
    p.add_argument("--n", type=parse_integer, default=None)
    p.add_argument("--depth", type=parse_integer, default=None)
    p.add_argument("--count", type=parse_integer, default=None)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: its exit code and one elapsed_ms line, or exit 2 on a UsageError.

    argparse's own refusals (a missing or unknown argument) are UsageErrors
    too; only --help and --version exit from inside, with 0.
    """
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        code = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"elapsed_ms={int((time.perf_counter() - started) * 1000)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
