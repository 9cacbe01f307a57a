"""Command-line surface: certify, vieta, construct, verify.

All machine-readable output is JSON on stdout and is byte-deterministic
for fixed inputs and flags; wall-clock timing goes to stderr.  One
writer, `_emit`, prints the JSON of `certify`, `vieta` and `construct`:
its bytes are exactly those of `json.dumps(payload, indent=2,
sort_keys=True)` plus a newline, written by a short recursive writer
rather than the pure-Python encoder that `indent` selects.  The
`certify` exit code distinguishes a pseudointegral polygon (0) from a
rational one that is not (1) and from no verdict (2).

The parser holds every flag rule: each integer's `type`, alone or in the
lists `construct --params` and `vieta --family`, checks its range, and
`choices` and a required group fix `--b`, `--suite`, `--family` and the
one `vieta` mode.  `_given` refuses a flag that the `vieta` mode or
`verify` suite does not read, by the one table `_READS`.  `main` makes
each refusal one `error:` line and exit 2.

Each command imports the modules it runs when it runs, and the family and
suite names are imported only when the parser reads them, so `certify`
loads only `polygon`, `counting` and `ehrhart`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from importlib import import_module
from json.encoder import encode_basestring_ascii
from typing import Callable, NoReturn

from . import __version__
from .exact import parse_integer

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

    def _print_message(self, message: str, file=None) -> None:
        # argparse's own swallows an OSError; here it reaches `main`, as any failed write does
        file = file or sys.stderr
        file.write(message)
        file.flush()


def _integer(
    least: int | None = None, most: int | None = None, name: str = "", digits: int | None = None
) -> Callable[[str], int]:
    """An argparse type: a `parse_integer` integer from `least` to the limit `name` = `most`, or of `digits` digits."""

    def read(text: str) -> int:
        try:
            value = parse_integer(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if least is not None and value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {name} = {most}, got {value}")
        if digits is not None and abs(value) >= 10**digits:
            raise argparse.ArgumentTypeError(f"must have at most {name} = {digits} digits")
        return value

    return read


def _integers(read: Callable[[str], int], count: int | None = None) -> Callable[[str], tuple[int, ...]]:
    """An argparse type: comma-separated entries, each read by `read`, exactly `count` of them when given."""

    def read_all(text: str) -> tuple[int, ...]:
        values = tuple(map(read, text.split(","))) if text else ()
        if count is not None and len(values) != count:
            raise argparse.ArgumentTypeError(f"needs {count} comma-separated integers, got {len(values)}")
        return values

    return read_all


# Largest search `verify` starts, in the work units of `vieta.search_cost`,
# which prices the divisor search that every n ran before it became the
# diagonal (n = 2) or a jump walk from the reduced tuples (n >= 3).  The
# limit admits what it admitted then: b-sweep and nvar n = 3 up to bound 400,
# n = 4, 5, 6, 8, 10 up to 82, 34, 20, 11, 8, n = 2 up to 4,209 and
# all-ones tuples up to n = 47,059.  At the limit a `verify_general_bound`
# call takes at most about 10 ms (n = 2, bound 4,209, nearly all of it in
# building and reducing its 4,209 `NTuple`s; 2-vCPU VM).
VERIFY_SEARCH_LIMIT = 10**5

# Most digits `certify` accepts in the integers that write the polygon over
# its denominator D: D itself and the vertex coordinates of D * P.  The
# Ehrhart coefficients print counts of dilates up to 3D over 2*D^2; with D
# within CERTIFY_WORK_LIMIT no printed value can pass 4,014 digits (a
# triangle at the limit with D = 166,666 prints 4,001), inside CPython's
# 4,300-digit int-to-str limit.
CERTIFY_COORDINATE_DIGITS = 2000
_COORDINATE_BOUND = 10**CERTIFY_COORDINATE_DIGITS

# Most characters `certify` reads from a polygon file; it reads at most one
# more, so a stream that never ends is refused too.  At the limit, 20,000 to
# 34,000 small points are read, hulled and certified in 0.2-0.4 s at up to
# 42 MB peak RSS; 17,000 vertices on a parabola with distinct prime-square
# denominators are refused by the digit limit in 0.2 s, as the lcm that gives D
# stops once it passes the limit (2-vCPU VM, Python 3.11).
CERTIFY_FILE_LIMIT = 500_000

# Largest index `construct --family fibonacci` builds.  The triangle's
# coordinates have numerators near 3 * F_{2j+1}, about 0.418 * j digits:
# 4,181 at the limit, inside CPython's 4,300-digit int-to-str limit.
FIBONACCI_INDEX_LIMIT = 10**4

# Most digits of each `construct --params` entry.  A family's coordinates are
# sums and products of at most two parameters (t-xyz has denominators x * z),
# so no printed integer has more than 4,000 digits, inside CPython's 4,300-digit
# int-to-str limit.  Fibonacci indices have their own, smaller limit.
CONSTRUCT_PARAMETER_DIGITS = 2000

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

# The flags each `vieta` mode and `verify` suite reads, by their `args` names;
# the parser checks their values, `_given` refuses any other flag, and `verify`
# calls each suite with its flags as the keywords of the same name.
_READS = {
    "vieta --reduced": {"format"}, "vieta --forest": {"max_z"}, "vieta --family": {"depth", "format"},
    "verify --suite b-sweep": {"bound"}, "verify --suite nvar-bound": {"n", "bound"},
    "verify --suite family-grid": {"depth"}, "verify --suite properties": {"count"},
}


def _given(args: argparse.Namespace, mode: str) -> dict:
    """The flags of `_READS` set off their defaults (None, json for `--format`); `mode`, a key of it, must read each."""
    flags = set().union(*_READS.values())
    given = {flag: value for flag, value in vars(args).items() if flag in flags and value not in (None, "json")}
    for flag, value in given.items():
        if flag not in _READS.get(mode, ()):
            raise UsageError(f"{mode} does not read --{flag.replace('_', '-')} {value}")
    return given


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
    from .ehrhart import CERTIFY_WORK_LIMIT, certify_work, is_pseudointegral
    from .polygon import RationalPolygon

    try:
        with open(args.polygon_file) as fh:
            text = fh.read(CERTIFY_FILE_LIMIT + 1)
        if len(text) > CERTIFY_FILE_LIMIT:
            raise UsageError(f"polygon file has more than CERTIFY_FILE_LIMIT = {CERTIFY_FILE_LIMIT} characters")
        P = RationalPolygon.from_json_dict(json.loads(text))
    except RecursionError:
        # json.loads recurses once per level of nesting
        raise UsageError("cannot read polygon: JSON nested too deeply") from None
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read polygon: {exc}") from exc
    # a D too long to print is refused under the digit limit as soon as the
    # running lcm of the vertex denominators reaches it, and D * P is built
    # only once D is within the work limit
    D = 1
    for _, _, d in P.homogeneous:
        D = math.lcm(D, d)
        if D >= _COORDINATE_BOUND:
            break
    if D < _COORDINATE_BOUND and (work := certify_work(P)) > CERTIFY_WORK_LIMIT:
        raise UsageError(
            f"denominator {D} times {len(P.homogeneous)} edges is {work}, "
            f"over CERTIFY_WORK_LIMIT = {CERTIFY_WORK_LIMIT}"
        )
    if D >= _COORDINATE_BOUND or any(
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
    from .vieta import VietaSolution, enumerate_reduced, family, is_vieta_reduced, jump_forest

    mode = "reduced" if args.reduced else "forest" if args.forest else "family"
    given = _given(args, f"vieta --{mode}")
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
        inputs["max_z"] = args.max_z
        forest = jump_forest(args.b, args.max_z)
        results = {"forest": {f"{s.x},{s.y},{s.z}": [f"{t.x},{t.y},{t.z}" for t in nbrs] for s, nbrs in forest.items()}}
    else:
        try:
            seed = VietaSolution.from_triple(*args.family)
        except ValueError as exc:
            raise UsageError(f"bad --family seed: {exc}") from exc
        if seed.b != args.b or not is_vieta_reduced(seed):
            raise UsageError("--family seed must be a reduced solution for --b")
        depth = given.get("depth", 4)
        inputs |= {"seed": seed.triple(), "depth": depth}
        states = family(seed, depth)
        if args.format == "table":
            print("\n".join(f"{st.j:3d}  x={st.x}  y={st.y}  z={st.z}" for st in states))
            return 0
        results = {"family": [{"j": st.j, "x": st.x, "y": st.y, "z": st.z} for st in states]}
    _emit({"command": "vieta", "inputs": inputs, "results": results})
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    from .constructions import build

    try:
        if args.family == "fibonacci" and max(args.params, default=0) > FIBONACCI_INDEX_LIMIT:
            raise UsageError(f"index must be at most FIBONACCI_INDEX_LIMIT = {FIBONACCI_INDEX_LIMIT}")
        P = build(args.family, args.params)
        if args.svg:
            from .svg import render_svg

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
    from .suites import NVAR_BOUND, SUITES
    from .vieta import search_cost

    given = _given(args, f"verify --suite {args.suite}")
    if args.suite == "nvar-bound" and "bound" in given and "n" not in given:
        raise UsageError("suite nvar-bound reads --bound only together with --n")
    if given.keys() & {"n", "bound"}:
        n, bound = given.get("n", 3), given.get("bound", NVAR_BOUND)  # b-sweep searches triples
        if search_cost(n, bound) > VERIFY_SEARCH_LIMIT:
            raise UsageError(
                f"a search over {n}-tuples with entries <= {bound} exceeds "
                f"VERIFY_SEARCH_LIMIT = {VERIFY_SEARCH_LIMIT} units of work"
            )
    result = SUITES[args.suite](**given)
    for line in result.lines():
        print(line)
    print(f"suite {result.name}: {'pass' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


class _Formatter(argparse.HelpFormatter):
    """argparse's help layout, wrapping help text between words only: no family or suite name splits at a hyphen."""

    def _split_lines(self, text: str, width: int) -> list[str]:
        import textwrap

        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)


class _Names:
    """Parser `choices`: the sorted keys of `attribute` in the package module `module`, imported when read.

    argparse reads choices only to check a value or to list them, so
    `construct --help` imports `constructions` and `certify` never does.
    An argument that takes it needs a `metavar`: without one,
    `add_argument` formats its choices.
    """

    def __init__(self, module: str, attribute: str) -> None:
        self.module, self.attribute = module, attribute

    def _names(self) -> list[str]:
        return sorted(getattr(import_module(f"{__package__}.{self.module}"), self.attribute))

    def __contains__(self, value: object) -> bool:
        return value in self._names()

    def __iter__(self):
        return iter(self._names())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pipgeom",
        description="Exact lattice geometry of rational polygons.",
    )
    parser.add_argument("--version", action="version", version=f"pipgeom {__version__}")
    depth = _integer(0, VIETA_DEPTH_LIMIT, "VIETA_DEPTH_LIMIT")  # one range for vieta and verify
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="decide pseudointegrality of a polygon JSON file")
    p.add_argument("polygon_file")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("vieta", help="solution sets of b = (x+y+z)^2/(xyz)")
    p.add_argument("--b", type=_integer(), choices=range(1, 10), required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--reduced", action="store_true", help="list the reduced solutions")
    mode.add_argument("--forest", action="store_true", help="jump graph up to --max-z")
    seed = _integers(_integer(), 3)
    mode.add_argument("--family", metavar="X,Y,Z", type=seed, help="grow the family from a reduced seed")
    p.add_argument("--max-z", type=_integer(1, VIETA_MAX_Z_LIMIT, "VIETA_MAX_Z_LIMIT"))
    p.add_argument("--depth", type=depth, help="family depth (default 4)")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=_cmd_vieta)

    p = sub.add_parser("construct", help="emit a polygon from a named family", formatter_class=_Formatter)
    family = _Names("constructions", "FAMILIES")
    p.add_argument("--family", choices=family, metavar="FAMILY", required=True, help="one of: %(choices)s")
    params = _integer(name="CONSTRUCT_PARAMETER_DIGITS", digits=CONSTRUCT_PARAMETER_DIGITS)
    p.add_argument("--params", type=_integers(params), default=(), help="comma-separated integer parameters")
    p.add_argument("--svg", metavar="PATH", help="also render the polygon as SVG")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="run a named verification suite", formatter_class=_Formatter)
    p.add_argument(
        "--suite", choices=_Names("suites", "SUITES"), metavar="SUITE", required=True, help="one of: %(choices)s"
    )
    p.add_argument("--bound", type=_integer(1))
    p.add_argument("--n", type=_integer(2))
    p.add_argument("--depth", type=depth)
    p.add_argument("--count", type=_integer(1, PROPERTIES_COUNT_LIMIT, "PROPERTIES_COUNT_LIMIT"))
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: its exit code and one elapsed_ms line, or exit 2 with one error line.

    Exit 2 means no verdict: a UsageError, argparse's own refusals among
    them, or output that cannot be written (a closed pipe, a full disk).
    Only --help and --version exit from inside, with 0 once their text is written.
    """
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        code = args.func(args)
        sys.stdout.flush()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        # the interpreter flushes stdout once more at exit: what is left of
        # the refused output goes to os.devnull, so it prints no traceback
        with contextlib.suppress(OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"elapsed_ms={int((time.perf_counter() - started) * 1000)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
