import contextlib
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pipgeom
from pipgeom.cli import (
    CERTIFY_COORDINATE_DIGITS,
    CERTIFY_FILE_LIMIT,
    CONSTRUCT_PARAMETER_DIGITS,
    FIBONACCI_INDEX_LIMIT,
    PROPERTIES_COUNT_LIMIT,
    VERIFY_SEARCH_LIMIT,
    VIETA_DEPTH_LIMIT,
    VIETA_MAX_Z_LIMIT,
    UsageError,
    _emit,
    build_parser,
    main,
)
from pipgeom.constructions import _PIP_RANGES, FAMILIES, construct_pip, fibonacci_triangle, octagon_empty_boundary
from pipgeom.ehrhart import CERTIFY_WORK_LIMIT
from pipgeom.exact import Vec2
from pipgeom.polygon import RationalPolygon, hull
from pipgeom.suites import SUITES, SuiteResult
from pipgeom.svg import SVG_GRID_POINT_LIMIT
from pipgeom.vieta import all_reduced_solutions, family


def write_polygon(tmp_path, P, name="poly.json"):
    path = tmp_path / name
    path.write_text(json.dumps(P.to_json_dict()))
    return str(path)


def test_certify_pip_exit_zero(tmp_path, capsys):
    path = write_polygon(tmp_path, fibonacci_triangle(1))
    assert main(["certify", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["is_pip"] is True
    assert payload["results"]["i"] == 1 and payload["results"]["b"] == 9


def test_certify_non_pip_exit_one(tmp_path, capsys):
    path = write_polygon(tmp_path, octagon_empty_boundary())
    assert main(["certify", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["is_pip"] is False


def test_certify_bad_input_exit_two(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["certify", str(empty)]) == 2
    collinear = tmp_path / "collinear.json"
    collinear.write_text(json.dumps({"vertices": [["0", "0"], ["1", "1"], ["2", "2"]]}))
    assert main(["certify", str(collinear)]) == 2
    assert main(["certify", str(tmp_path / "missing.json")]) == 2
    zero_den = tmp_path / "zero_den.json"
    zero_den.write_text(json.dumps({"vertices": [["1/0", "0"], ["1", "0"], ["0", "1"]]}))
    assert main(["certify", str(zero_den)]) == 2
    numbers = tmp_path / "numbers.json"
    numbers.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0, 1]]}))
    assert main(["certify", str(numbers)]) == 2


@pytest.mark.parametrize(
    "vertices",
    [
        ["00", "10", "01"],
        {"00": 1, "10": 2, "01": 3},
        [["0", "0", "5"], ["1", "0", "5"], ["0", "1", "5"]],
        [["0", "0"], ["1", "0"], "01"],
    ],
)
def test_certify_vertices_not_given_as_pairs_exit_two(vertices, tmp_path, capsys):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"vertices": vertices}))
    assert main(["certify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[x, y] pairs" in captured.err


@pytest.mark.parametrize("coordinate", ["1e-5", "1e-1000", "1.5", "1_0", "1/2.0", " 1 / 2"])
def test_certify_coordinate_outside_the_grammar_exit_two(coordinate, tmp_path, capsys):
    path = tmp_path / "grammar.json"
    path.write_text(json.dumps({"vertices": [["0", "0"], [coordinate, "0"], ["0", "1"]]}))
    assert main(["certify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p/q" in captured.err


@pytest.mark.parametrize("coordinate", ["1/0", 5, "1e5", "1_0", "1" * 4301, "1/" + "7" * 4301])
def test_certify_unreadable_coordinate_exit_two(coordinate, tmp_path, capsys):
    # a zero denominator, a JSON number, an exponent, an underscore, and more
    # digits than CPython's 4,300-digit int-to-str limit converts
    path = tmp_path / "coordinate.json"
    path.write_text(json.dumps({"vertices": [["0", "0"], [coordinate, "0"], ["0", "1"]]}))
    assert main(["certify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read polygon")


@pytest.mark.parametrize("body", ["{}", "[]", "1", "null", '"x"'])
def test_certify_file_without_vertices_object_exit_two(body, tmp_path, capsys):
    path = tmp_path / "not-a-polygon.json"
    path.write_text(body)
    assert main(["certify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: cannot read polygon") and '"vertices"' in captured.err


@pytest.mark.parametrize("argv, prefix", [(["--version"], "pipgeom "), (["certify", "--help"], "usage: ")])
def test_help_and_version_print_and_exit_zero(argv, prefix, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(prefix)


@pytest.mark.parametrize(
    "polygon, code",
    [
        (lambda: fibonacci_triangle(2), 0),
        (octagon_empty_boundary, 1),
        (lambda: hull([(Fraction(-1, 3), 1), (1, 1), (1, 2)]), 1),
    ],
    ids=["pip", "non-pip", "mirrored-witness"],
)
def test_certify_builds_no_fraction(polygon, code, tmp_path, capsys, monkeypatch):
    # certify reads, decides and prints on ints; the Fraction views are never built
    path = write_polygon(tmp_path, polygon())
    built = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    if "_from_coprime_ints" in vars(Fraction):
        # Python 3.12+ builds arithmetic results without calling __new__
        from_coprime = vars(Fraction)["_from_coprime_ints"].__func__

        def counted_from_coprime(cls, *args):
            built.append(args)
            return from_coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_from_coprime))
    assert main(["certify", path]) == code
    assert built == []
    assert json.loads(capsys.readouterr().out)["results"]["is_pip"] is (code == 0)


_json_text = st.text(st.sampled_from('"\\/\x00\x08\x1f\x7f \t\nab\u00e9\u2028\ud800\U0001f600') | st.characters())
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | _json_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_json_text, inner, max_size=4),
    max_leaves=20,
)


@given(_json_values)
def test_emit_writes_the_text_of_json_dumps(value):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(value)
    assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, b"x", object(), {"a": [1, {"b": Fraction(1)}]}])
def test_emit_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError), contextlib.redirect_stdout(io.StringIO()):
        _emit(value)


@pytest.mark.parametrize("template", ["{}", '{{"vertices": {}}}'])
def test_certify_deeply_nested_json_exit_two(template, tmp_path, capsys):
    depth = 200_000
    path = tmp_path / "deep.json"
    path.write_text(template.format("[" * depth + "]" * depth))
    assert main(["certify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nested too deeply" in captured.err


def test_vieta_reduced(capsys):
    assert main(["vieta", "--b", "1", "--reduced"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["reduced"] == [
        [5, 20, 25, 1],
        [6, 12, 18, 1],
        [8, 8, 16, 1],
        [9, 9, 9, 1],
    ]


def test_vieta_reduced_b7_empty_table(capsys):
    assert main(["vieta", "--b", "7", "--reduced"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["reduced"] == []


def test_vieta_family(capsys):
    assert main(["vieta", "--b", "9", "--family", "1,1,1", "--depth", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["z"] for row in payload["results"]["family"]] == [1, 4, 25, 169, 1156]


def test_vieta_forest(capsys):
    assert main(["vieta", "--b", "9", "--forest", "--max-z", "30"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["forest"] == {
        "1,1,1": ["1,1,4"],
        "1,1,4": ["1,1,1", "1,4,25"],
        "1,4,25": ["1,1,4"],
    }


def test_vieta_usage_errors(capsys):
    assert main(["vieta", "--b", "10", "--reduced"]) == 2
    assert main(["vieta", "--b", "3"]) == 2
    assert main(["vieta", "--b", "3", "--reduced", "--forest", "--max-z", "5"]) == 2
    assert main(["vieta", "--b", "9", "--family", "1,1,4"]) == 2  # not reduced
    assert main(["vieta", "--b", "8", "--family", "1,1,1"]) == 2  # wrong b


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--reduced", "--max-z", "5"], "--max-z"),
        (["--family", "1,1,1", "--max-z", "5"], "--max-z"),
        (["--reduced", "--depth", "4"], "--depth"),
        (["--forest", "--max-z", "50", "--depth", "7"], "--depth"),
        (["--forest", "--max-z", "50", "--format", "table"], "--format table"),
    ],
)
def test_vieta_refuses_flags_the_mode_does_not_read(argv, flag, capsys):
    assert main(["vieta", "--b", "9", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"does not read {flag}" in captured.err


@pytest.mark.parametrize("seed", ["1,1", "1,1,1,1", "", "1,,1"])
def test_parser_refuses_a_vieta_seed_that_is_not_three_integers(seed):
    with pytest.raises(UsageError, match="argument --family"):
        build_parser().parse_args(["vieta", "--b", "9", "--family", seed])


@pytest.mark.parametrize("seed", ["0_1,1,1", "\u0661,1,1", "1/1,1,1"])
def test_vieta_family_seed_takes_certify_integers(seed, capsys):
    assert main(["vieta", "--b", "9", "--family", seed]) == 2
    assert capsys.readouterr().out == ""
    assert main(["vieta", "--b", "9", "--family", " 1,+1,1"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["vieta", "--b", "\u0669", "--reduced"],
        ["vieta", "--b", "0_9", "--reduced"],
        ["verify", "--suite", "b-sweep", "--bound", "3_0"],
        ["vieta", "--b", "9", "--family", "1,1,1", "--depth", "\u0662"],
    ],
)
def test_integer_flags_take_certify_integers(argv):
    code, out, _ = _run_main(argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("depth", [-1, VIETA_DEPTH_LIMIT + 1])
def test_vieta_depth_out_of_range_exit_two(depth, capsys, monkeypatch):
    def family_started(*args):
        raise AssertionError("the family started")

    monkeypatch.setattr("pipgeom.vieta.family", family_started)
    assert main(["vieta", "--b", "9", "--family", "1,1,1", "--depth", str(depth)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("must be at least 0" if depth < 0 else f"VIETA_DEPTH_LIMIT = {VIETA_DEPTH_LIMIT}") in captured.err


def test_vieta_every_seed_prints_at_depth_limit(capsys):
    for s in all_reduced_solutions():
        argv = ["vieta", "--b", str(s.b), "--family", f"{s.x},{s.y},{s.z}", "--depth", str(VIETA_DEPTH_LIMIT)]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["results"]["family"]
        assert len(rows) == VIETA_DEPTH_LIMIT + 1


def test_construct_and_certify_roundtrip(tmp_path, capsys):
    assert main(["construct", "--family", "p10", "--params", "2,14"]) == 0
    polygon_json = capsys.readouterr().out
    path = tmp_path / "p10.json"
    path.write_text(polygon_json)
    assert main(["certify", str(path)]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["results"]["i"] == 2 and cert["results"]["b"] == 14


def test_construct_errors_name_the_violated_inequality(capsys):
    assert main(["construct", "--family", "p10", "--params", "1,10"]) == 2
    assert "5*i + 4" in capsys.readouterr().err
    assert main(["construct", "--family", "t-xyz", "--params", "4,5,81"]) == 2
    assert "divisibility" in capsys.readouterr().err
    assert main(["construct", "--family", "nope", "--params", "1"]) == 2


def test_construct_help_lists_every_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in FAMILIES)


def test_construct_refuses_an_unknown_family_before_building(capsys, monkeypatch):
    def construction_started(*args):
        raise AssertionError("construction started")

    monkeypatch.setattr("pipgeom.constructions.build", construction_started)
    assert main(["construct", "--family", "nope", "--params", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "invalid choice: 'nope'" in captured.err


def test_construct_all_reflexive_entries(capsys):
    for idx in range(16):
        assert main(["construct", "--family", "reflexive", "--params", str(idx)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["vertices"]) >= 3


def test_construct_svg(tmp_path, capsys):
    svg_path = tmp_path / "t1.svg"
    assert main(["construct", "--family", "fibonacci", "--params", "1", "--svg", str(svg_path)]) == 0
    capsys.readouterr()
    text = svg_path.read_text()
    assert text.startswith("<svg")
    assert '<path d="M' in text
    assert text.count("<circle") > 9  # lattice dots plus highlighted boundary points


def test_reports_are_deterministic(capsys):
    assert main(["vieta", "--b", "2", "--reduced"]) == 0
    first = capsys.readouterr().out
    assert main(["vieta", "--b", "2", "--reduced"]) == 0
    assert capsys.readouterr().out == first
    assert main(["construct", "--family", "p3", "--params", "3,14"]) == 0
    first = capsys.readouterr().out
    assert main(["construct", "--family", "p3", "--params", "3,14"]) == 0
    assert capsys.readouterr().out == first


def test_verify_known_and_unknown_suites(capsys):
    assert main(["verify", "--suite", "reduced-table"]) == 0
    out = capsys.readouterr().out
    assert "suite reduced-table: pass" in out
    assert out.count("ok") >= 4
    assert main(["verify", "--suite", "no-such-suite"]) == 2


def test_verify_counterexamples_suite(capsys):
    assert main(["verify", "--suite", "counterexamples"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_certify_output_parses_as_polygon(tmp_path, capsys):
    assert main(["construct", "--family", "scott-grid", "--params", "2,10"]) == 0
    payload = json.loads(capsys.readouterr().out)
    P = RationalPolygon.from_json_dict(payload)
    assert len(P.vertices) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "nvar-bound", "--n", "1"],
        ["--suite", "nvar-bound", "--n", "0"],
        ["--suite", "properties", "--count", "-1"],
        ["--suite", "b-sweep", "--bound", "0"],
        ["--suite", "family-grid", "--depth", "-1"],
        ["--suite", "nvar-bound", "--n", "3", "--bound", "0"],
    ],
)
def test_verify_malformed_parameters_exit_two(argv, capsys):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "b-sweep", "--bound", "401"],
        ["--suite", "nvar-bound", "--n", "2", "--bound", "100001"],
        ["--suite", "nvar-bound", "--n", "100002", "--bound", "1"],
        ["--suite", "nvar-bound", "--n", str(10**18), "--bound", str(10**18)],
        ["--suite", "nvar-bound", "--n", "3", "--bound", str(10**100)],
        ["--suite", "nvar-bound", "--n", "2", "--bound", "100000"],
    ],
)
def test_verify_refuses_oversized_search_up_front(argv, capsys, monkeypatch):
    def search_started(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr("pipgeom.vieta.solution_b_sweep", search_started)
    monkeypatch.setattr("pipgeom.vieta.verify_general_bound", search_started)
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"VERIFY_SEARCH_LIMIT = {VERIFY_SEARCH_LIMIT}" in captured.err


def test_verify_search_at_the_limit_runs(capsys):
    # vieta.search_cost(3, 315) = 63,641; bound 401 is the first one refused
    assert main(["verify", "--suite", "b-sweep", "--bound", "315"]) == 0
    assert "suite b-sweep: pass" in capsys.readouterr().out
    assert main(["verify", "--suite", "nvar-bound", "--n", "3", "--bound", "1"]) == 0
    assert "max b = 9" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--suite", "b-sweep"], "ad2abf3cce931b2dcef04a1e146063b8b1134d53b2c5a01a83cab2e5a4bf639b"),
        (["--suite", "nvar-bound"], "123ec331637726fb4b56552757efe2265bfc4234ff93bf167e7b8c2824436c28"),
        (["--suite", "reduced-table"], "94c3bbfdb6b28e74fc383605ad554c9fd54162d9b4fdacc0b18e29bcfc8e0dfd"),
        (["--suite", "family-grid"], "7ede869c1a721bb3978f38b386222304750339f592a90f89195c38d68ae12fc3"),
        (["--suite", "fibonacci"], "d822bf4ad9d6851dcaaca4fba8a784ca320402db624cb2bfac6054c56652b649"),
        (["--suite", "denominator-grid"], "55fddeb45f19f1f7b2dd4bc4e946ada9dc4a8f031f48409e08bc4c1c55cca0d6"),
        (["--suite", "counterexamples"], "fdac87eb64bbc7bf66a6a63e136416006d9ab139f84d430bf124ce556e9dc391"),
        (["--suite", "reflexive"], "ffb0adf5a2b85ecc31001763ea06581d48cd8dbc878cf78afd5b4284797434d5"),
        (["--suite", "properties"], "f043d63d78734a35a4033167caec6b72047d2498d6e47cb667068e76c373df75"),
        (["--suite", "small-boundary"], "59645432edf2ce6b027991babd254b6952514afbc4b75ec053478eef98f4ecf3"),
    ],
)
def test_verify_search_output_unchanged(argv, digest, capsys):
    # SHA-256 of the stdout of every suite at its defaults
    assert main(["verify", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "family, params, digest",
    [
        ("t-xyz", "1,1,1", "f9cb7b24ab9d4195332296f35d7864e7466b4f0596f1a3e141f8e1290a180e07"),
        ("t-xyz", "1,4,25", "f4ff9fcd64179cd9f085720e9ac8c8503430e09a8696d7f855bfa653f0028fb9"),
        ("t-xyz", "3,6,9", "0e7dfbdeb36a4054f41d89796816ef5ddcdf3f28abb1833a64c8a02b0adc45dc"),
        # state j = 4 of the family seeded at (3, 6, 9), b = 2
        ("t-xyz", "3,294,1089", "e80627fb8c55c37486a0fbf833183191b6b7719a9de0d4e8a00a92074ee70cc4"),
        ("fibonacci", "1", "6e81d18d90cf351febca6117cc67cc147a1d8243279848091b88604201ef426d"),
        ("fibonacci", "2", "f4ff9fcd64179cd9f085720e9ac8c8503430e09a8696d7f855bfa653f0028fb9"),
        ("fibonacci", "3", "aebb24b778701543e9322965dcf3aa70dfbce669cd72ab4f68a2c29943abed80"),
        ("fibonacci", "4", "d0dfe53f79f662055bfb87c7e82f3b211c1ce5ab4de7aeba2f2f9219bf453cce"),
        ("fibonacci", "5", "df2a3dcb442cb43664cfaabc0d7b2193521ab1643f0f7af1b0a1179fd1ca0d74"),
        ("example-b1", "3", "0d49ba008ec2c42943c359bdde2dcb8b47e3eb3c7709a788cf44571a30be5cdb"),
        ("example-b2", "3", "4681fc8d1efdff0f237cb5546390abf061ffce3471e709e67fef4349128fd68a"),
    ],
)
def test_construct_output_unchanged(family, params, digest, capsys):
    # SHA-256 of the polygon JSON that `construct` writes
    assert main(["construct", "--family", family, "--params", params]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "b, digest",
    [
        (1, "40bcb83a0d27cc535e622f1d015765e42a996d520443b62af09f0c84189a5e20"),
        (2, "d8260e520976f65a912964b9c3271a32440399e2e928e0cce454f6263cf50c55"),
        (3, "8b40cb5df8fe7d72eeb417c9f7de80f3325f83fafcae9c3c577abdd629e42e24"),
        (4, "7c52070ae4c35e505580b59c9198efb92fe423172d8f82f47e4b5aa5f01d3149"),
        (5, "c9e6277a0571579221c6598bb0a3ea61277e30f4c9ced51cdec7c2c321b9901d"),
        (6, "9bb6ba6ed8ce0e85b6b3a09a2357c320aeaf3ad6091cadc846821e538ae7ab09"),
        (7, "827b4b1db90c0b09f8d930023d37b5b72ea5fc0f14c24e3c7b74858cbbdbf263"),
        (8, "8b116d5fe7e0ed79cd35f96ea06336e274218b74b20574b61567dc9b55125b0a"),
        (9, "a4823732c37dc97c6e2a4843308bdde3051e1ed7f6ebeae54acc2683465df2e4"),
    ],
)
def test_vieta_forest_output_unchanged(b, digest, capsys):
    # SHA-256 of the stdout written by the forest search on solution objects
    assert main(["vieta", "--b", str(b), "--forest", "--max-z", str(10**12)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


_LEG = 10**CERTIFY_COORDINATE_DIGITS - 1


@pytest.mark.parametrize(
    "polygon, digest",
    [
        (lambda: fibonacci_triangle(1), "24f82027a8879e5afc5b8afb059b9a360479b9ec12cdb29785567b01ba9ec458"),
        (lambda: construct_pip(10, 2, 14), "5bd416918503668001df6540065f61a6c473c296497f3cf304f18e9859662d59"),
        # a non-PIP whose witness, residue 2, comes from the mirrored half
        (lambda: hull([(Fraction(-1, 3), 1), (1, 1), (1, 2)]), "3a1c26ce207db7f47e29d28608603d15ae9214f8dd849598597fd76401a37797"),
        (octagon_empty_boundary, "d8d50c4fb97db085b17489c68395b207c458380917f91ab26a3df09add934aa7"),
        (lambda: hull([(0, 0), (3, 0), (1, 2)]), "ccad40336cda4055dbb4da50026552b4996a8a86b998c393d06eb9619eaa90a1"),
        # D = 4: residue D/2 is its own mirror
        (
            lambda: hull([(1, 0), (0, Fraction(3, 4)), (-1, 0), (0, Fraction(-3, 4))]),
            "6160bac16697284e59307296776e51baa9c96f4d8b24ab67fa15731b3f9dd4af",
        ),
        (lambda: hull([(0, 0), (_LEG, 0), (0, _LEG)]), "0e27b54b012c47e098c366db90d0b51a99fdd0304911aa8d513387ee42786518"),
    ],
    ids=["fibonacci-1", "p10-2-14", "mirrored-witness", "octagon", "integral", "even-denominator", "digit-limit"],
)
def test_certify_output_unchanged(polygon, digest, tmp_path, capsys):
    # SHA-256 of the exit code and stdout of `certify`, taken from the
    # json.dumps writer and the Fraction coefficient view
    code = main(["certify", write_polygon(tmp_path, polygon())])
    assert hashlib.sha256(f"{code}\n{capsys.readouterr().out}".encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--suite", "b-sweep", "--n", "7", "--depth", "3"], "--n"),
        (["--suite", "b-sweep", "--bound", "20", "--depth", "5"], "--depth"),
        (["--suite", "nvar-bound", "--bound", "5"], "--bound"),
        (["--suite", "nvar-bound", "--n", "3", "--count", "2"], "--count"),
        (["--suite", "reduced-table", "--bound", "3"], "--bound"),
        (["--suite", "family-grid", "--count", "3"], "--count"),
        (["--suite", "properties", "--depth", "1"], "--depth"),
    ],
)
def test_verify_refuses_flags_the_suite_does_not_read(argv, flag, capsys, monkeypatch):
    def suite_started(*args, **kwargs):
        raise AssertionError("the suite started")

    monkeypatch.setattr("pipgeom.suites.SUITES", dict.fromkeys(SUITES, suite_started))
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


SUITE_FLAG_LIMITS = [
    ("family-grid", "--depth", "VIETA_DEPTH_LIMIT", VIETA_DEPTH_LIMIT),
    ("properties", "--count", "PROPERTIES_COUNT_LIMIT", PROPERTIES_COUNT_LIMIT),
]


@pytest.mark.parametrize("suite, flag, name, limit", SUITE_FLAG_LIMITS)
def test_verify_refuses_suite_flags_over_their_limit(suite, flag, name, limit, capsys, monkeypatch):
    def suite_started(*args, **kwargs):
        raise AssertionError("the suite started")

    monkeypatch.setattr("pipgeom.suites.SUITES", dict.fromkeys(SUITES, suite_started))
    for value in (limit + 1, 10**4000):
        assert main(["verify", "--suite", suite, flag, str(value)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"must be at most {name} = {limit}" in captured.err


@pytest.mark.parametrize("suite, flag, name, limit", SUITE_FLAG_LIMITS)
def test_verify_suite_flags_at_their_limit_run(suite, flag, name, limit, capsys, monkeypatch):
    calls = []

    def suite_stub(**kwargs):
        calls.append(kwargs)
        return SuiteResult(suite)

    monkeypatch.setattr("pipgeom.suites.SUITES", dict.fromkeys(SUITES, suite_stub))
    assert main(["verify", "--suite", suite, flag, str(limit)]) == 0
    assert calls == [{flag[2:]: limit}]
    assert capsys.readouterr().out == f"suite {suite}: pass\n"


@pytest.mark.parametrize("depth", ["-1", str(VIETA_DEPTH_LIMIT + 1)])
def test_vieta_and_verify_refuse_a_depth_alike(depth):
    vieta = _run_main(["vieta", "--b", "9", "--family", "1,1,1", "--depth", depth])
    verify = _run_main(["verify", "--suite", "family-grid", "--depth", depth])
    assert vieta[0] == verify[0] == 2
    assert vieta[1] == verify[1] == ""
    assert vieta[2] == verify[2]


def test_verify_has_no_max_width_flag(capsys):
    assert main(["verify", "--suite", "family-grid", "--max-width", "5"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "vertices",
    [
        # D = 1 and a PIP, but its area has 8,000 digits
        [["0", "0"], [str(10**4000), "0"], ["0", str(10**4000)]],
        [["0", "0"], [str(10**CERTIFY_COORDINATE_DIGITS), "0"], ["0", "1"]],
        # coprime 2,200-digit denominators: D has 4,400 digits
        [["0", "0"], [f"1/{10**2200}", "0"], ["0", f"1/{10**2200 + 1}"]],
        # D has 2,201 digits, though D * P is the unit triangle
        [["0", "0"], [f"1/{10**2200}", "0"], ["0", f"1/{10**2200}"]],
    ],
)
def test_certify_refuses_oversized_coordinates_up_front(vertices, tmp_path, capsys, monkeypatch):
    def certification_started(P):
        raise AssertionError("certification started")

    monkeypatch.setattr("pipgeom.ehrhart.is_pseudointegral", certification_started)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vertices": vertices}))
    assert main(["certify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"CERTIFY_COORDINATE_DIGITS = {CERTIFY_COORDINATE_DIGITS}" in captured.err


def test_certify_reads_a_file_up_to_the_limit(tmp_path, capsys, monkeypatch):
    def certification_started(P):
        raise AssertionError("certification started")

    text = json.dumps(fibonacci_triangle(1).to_json_dict())
    path = tmp_path / "padded.json"
    path.write_text(text.ljust(CERTIFY_FILE_LIMIT))
    assert main(["certify", str(path)]) == 0
    assert capsys.readouterr().out == _certify_stdout(tmp_path, fibonacci_triangle(1), capsys)
    monkeypatch.setattr("pipgeom.ehrhart.is_pseudointegral", certification_started)
    path.write_text(text.ljust(CERTIFY_FILE_LIMIT + 1))
    assert main(["certify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert f"CERTIFY_FILE_LIMIT = {CERTIFY_FILE_LIMIT}" in captured.err


def test_certify_coordinates_at_the_digit_limit_print(tmp_path, capsys):
    leg = 10**CERTIFY_COORDINATE_DIGITS - 1
    path = write_polygon(tmp_path, hull([Vec2(0, 0), Vec2(leg, 0), Vec2(0, leg)]))
    assert main(["certify", path]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert (results["i"], results["b"]) == ((leg - 1) * (leg - 2) // 2, 3 * leg)


@pytest.mark.parametrize("j", [FIBONACCI_INDEX_LIMIT + 1, 100000])
def test_construct_refuses_fibonacci_index_over_the_limit(j, capsys, monkeypatch):
    def construction_started(spec):
        raise AssertionError("construction started")

    monkeypatch.setattr("pipgeom.constructions.build", construction_started)
    assert main(["construct", "--family", "fibonacci", "--params", str(j)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"FIBONACCI_INDEX_LIMIT = {FIBONACCI_INDEX_LIMIT}" in captured.err


def test_construct_fibonacci_at_the_index_limit_prints(capsys):
    assert main(["construct", "--family", "fibonacci", "--params", str(FIBONACCI_INDEX_LIMIT)]) == 0
    assert len(json.loads(capsys.readouterr().out)["vertices"]) == 3


@pytest.mark.parametrize("params", [str(10**CONSTRUCT_PARAMETER_DIGITS), "1," + "9" * (CONSTRUCT_PARAMETER_DIGITS + 1)])
def test_construct_refuses_parameters_over_the_digit_limit(params, capsys, monkeypatch):
    def construction_started(spec):
        raise AssertionError("construction started")

    monkeypatch.setattr("pipgeom.constructions.build", construction_started)
    assert main(["construct", "--family", "p10", "--params", params]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"CONSTRUCT_PARAMETER_DIGITS = {CONSTRUCT_PARAMETER_DIGITS}" in captured.err


@pytest.mark.parametrize("params", [" 1_0,+4", "\u0661,4", "1_0,4", "4/1,4"])
def test_construct_refuses_parameters_certify_would_refuse(params, capsys):
    assert main(["construct", "--family", "p4", "--params", params]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sign and ASCII digits" in captured.err


def test_construct_every_family_prints_at_the_digit_limit(capsys):
    top = 10**CONSTRUCT_PARAMETER_DIGITS - 1
    # the last state below the limit of a b = 9 family, whose z grows about
    # 6.85-fold per step; x divides y and z on every family
    seed = next(s for s in all_reduced_solutions() if s.b == 9)
    s = [st for st in family(seed, 3000) if st.z <= top][-1]
    cases = [
        ("example-b1", [top]),
        ("example-b2", [top]),
        ("scott-grid", [top // 2 - 3, top // 2 * 2]),
        ("scott-grid", [top, 3]),
        ("t-xyz", [s.x, s.y, s.z]),
    ] + [(f"p{d}", [top // 5, slope * (top // 5) + intercept]) for d, (slope, intercept) in _PIP_RANGES.items()]
    assert len(str(s.z)) == CONSTRUCT_PARAMETER_DIGITS
    for name, params in cases:
        assert main(["construct", "--family", name, "--params", ",".join(map(str, params))]) == 0
        assert len(json.loads(capsys.readouterr().out)["vertices"]) >= 3


@pytest.mark.parametrize("target", ["/nonexistent/x.svg", "directory"])
def test_construct_svg_unwritable_path_exit_two(target, tmp_path, capsys):
    path = tmp_path if target == "directory" else target
    assert main(["construct", "--family", "fibonacci", "--params", "1", "--svg", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    assert list(tmp_path.iterdir()) == []


# scott-grid (i, 2i + 6) is the rectangle [0, i + 1] x [0, 2], whose grid with
# the one-unit margin has (i + 4) * 5 lattice points
@pytest.mark.parametrize("params", ["1000000,2000006", f"{SVG_GRID_POINT_LIMIT // 5 - 3},{2 * (SVG_GRID_POINT_LIMIT // 5 - 3) + 6}"])
def test_construct_svg_refuses_oversized_grid(params, tmp_path, capsys):
    svg_path = tmp_path / "big.svg"
    assert main(["construct", "--family", "scott-grid", "--params", params, "--svg", str(svg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"SVG_GRID_POINT_LIMIT = {SVG_GRID_POINT_LIMIT}" in captured.err
    assert not svg_path.exists()


def test_construct_svg_at_the_grid_limit_writes(tmp_path, capsys):
    i = SVG_GRID_POINT_LIMIT // 5 - 4
    svg_path = tmp_path / "limit.svg"
    assert main(["construct", "--family", "scott-grid", "--params", f"{i},{2 * i + 6}", "--svg", str(svg_path)]) == 0
    assert json.loads(capsys.readouterr().out)["vertices"]
    # one dot per grid point, boundary points drawn larger
    assert svg_path.read_text().count("<circle") == SVG_GRID_POINT_LIMIT


@pytest.mark.parametrize("max_z", [0, -1, VIETA_MAX_Z_LIMIT + 1, 10**4000])
def test_vieta_forest_max_z_out_of_range_exit_two(max_z, capsys, monkeypatch):
    def forest_started(*args):
        raise AssertionError("the forest started")

    monkeypatch.setattr("pipgeom.vieta.jump_forest", forest_started)
    assert main(["vieta", "--b", "1", "--forest", "--max-z", str(max_z)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("must be at least 1" if max_z < 1 else "VIETA_MAX_Z_LIMIT") in captured.err


def test_vieta_forest_at_the_max_z_limit_prints(capsys):
    assert main(["vieta", "--b", "9", "--forest", "--max-z", str(VIETA_MAX_Z_LIMIT)]) == 0
    forest = json.loads(capsys.readouterr().out)["results"]["forest"]
    # z grows about 6.85-fold per jump in this forest, so it reaches past a seventh of the limit
    top = max(int(node.split(",")[2]) for node in forest)
    assert top <= VIETA_MAX_Z_LIMIT < 7 * top


@pytest.mark.parametrize("den", [1000000007, CERTIFY_WORK_LIMIT // 3 + 1])
def test_certify_refuses_oversized_work_up_front(den, tmp_path, capsys, monkeypatch):
    def certification_started(P):
        raise AssertionError("certification started")

    monkeypatch.setattr("pipgeom.ehrhart.is_pseudointegral", certification_started)
    path = write_polygon(tmp_path, hull([Vec2(0, 0), Vec2(1, 0), Vec2(0, Fraction(1, den))]))
    assert main(["certify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"CERTIFY_WORK_LIMIT = {CERTIFY_WORK_LIMIT}" in captured.err


def test_certify_work_just_under_the_limit_runs(tmp_path, capsys):
    # conv{(0,0), (D,0), (1, (D-1)/D)} is a PIP with i = 0, b = D + 1 for every D
    D = CERTIFY_WORK_LIMIT // 3
    path = write_polygon(tmp_path, hull([Vec2(0, 0), Vec2(D, 0), Vec2(1, Fraction(D - 1, D))]))
    assert main(["certify", path]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert (results["i"], results["b"]) == (0, D + 1)


def test_certify_work_limit_admits_fibonacci_seven():
    T = fibonacci_triangle(7)
    assert T.denominator == 142130
    assert T.denominator * len(T.vertices) <= CERTIFY_WORK_LIMIT


def _odd_primes(n):
    primes = []
    k = 3
    while len(primes) < n:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 2
    return primes


def test_certify_interior_points_with_distinct_denominators_run_fast(tmp_path, capsys):
    # the lcm of all 3000 denominators has about 40 kbit; a hull that scaled
    # every point by it took seconds, each orientation test must stay small
    interior = [[f"1/{p}", f"1/{p}"] for p in _odd_primes(3000)]
    path = tmp_path / "interior.json"
    path.write_text(json.dumps({"vertices": [["0", "0"], ["1", "0"], ["0", "1"]] + interior}))
    start = time.perf_counter()
    assert main(["certify", str(path)]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert out == _certify_stdout(tmp_path, hull([Vec2(0, 0), Vec2(1, 0), Vec2(0, 1)]), capsys)
    assert elapsed < 5.0


def test_certify_vertices_with_distinct_denominators_refused_fast(tmp_path, capsys):
    # all 3000 points lie on the parabola y = x^2, so all are vertices, and
    # D has about 80 kbit; a canonical-form check that scaled every vertex
    # by D took seconds, each test must stay the size of its own points
    vertices = [[f"1/{p}", f"1/{p * p}"] for p in _odd_primes(3000)]
    path = tmp_path / "parabola.json"
    path.write_text(json.dumps({"vertices": vertices}))
    start = time.perf_counter()
    assert main(["certify", str(path)]) == 2
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "CERTIFY_COORDINATE_DIGITS" in captured.err
    assert elapsed < 5.0


def test_certify_refuses_a_long_denominator_before_the_full_lcm(tmp_path, capsys, monkeypatch):
    # 16,933 vertices (1/p, 1/p^2) on the parabola y = x^2, p prime, fill the file
    # limit; the lcm of all their denominators took over 3 s, but its running
    # value passes the digit limit after a few hundred of them
    def started(*args):
        raise AssertionError("the full lcm or the certification started")

    monkeypatch.setattr("pipgeom.ehrhart.is_pseudointegral", started)
    monkeypatch.setattr(RationalPolygon, "denominator", property(started))
    sieve = bytearray([1]) * 190_000
    for k in range(2, 436):
        if sieve[k]:
            sieve[k * k :: k] = bytes(len(range(k * k, len(sieve), k)))
    primes = [p for p in range(2, len(sieve)) if sieve[p]][:16_933]
    path = tmp_path / "parabola.json"
    path.write_text(json.dumps({"vertices": [[f"1/{p}", f"1/{p * p}"] for p in primes]}))
    assert path.stat().st_size == 498_976 <= CERTIFY_FILE_LIMIT
    assert main(["certify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the denominator D or a vertex coordinate of D * P has more than "
        f"CERTIFY_COORDINATE_DIGITS = {CERTIFY_COORDINATE_DIGITS} digits\n"
    )


def _certify_stdout(tmp_path, P, capsys):
    main(["certify", write_polygon(tmp_path, P, "reference.json")])
    return capsys.readouterr().out


# rational strings with denominators <= 9 keep every well-formed polygon far under the limit
RATIONAL_TEXT = st.from_regex(r"\A-?[0-9]{1,2}(/[0-9])?\Z")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | RATIONAL_TEXT,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.sampled_from(["vertices"]) | st.text(max_size=6), children, max_size=3),
    max_leaves=24,
)
# lists of [x, y] rational-string pairs, some with other values mixed in, so
# that well-formed polygons occur too
PAIR = st.lists(RATIONAL_TEXT, min_size=2, max_size=2)
POLYGON_SHAPED = st.fixed_dictionaries(
    {"vertices": st.lists(PAIR, max_size=6) | st.lists(PAIR | JSON_VALUES, max_size=6)}
)


def _well_formed(data) -> bool:
    """Whether data is {"vertices": [[x, y], ...]} with rational strings spanning the plane."""
    if not isinstance(data, dict) or not isinstance(data.get("vertices"), list):
        return False
    points = []
    for vertex in data["vertices"]:
        if not (isinstance(vertex, list) and len(vertex) == 2 and all(isinstance(c, str) for c in vertex)):
            return False
        try:
            points.append([Fraction(c.strip()) for c in vertex])
        except (ValueError, ZeroDivisionError):
            return False
    return any(
        (bx - ax) * (cy - ay) != (by - ay) * (cx - ax)
        for (ax, ay), (bx, by), (cx, cy) in combinations(points, 3)
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(JSON_VALUES | POLYGON_SHAPED)
def test_certify_fuzz_malformed_input_exits_two(tmp_path, data):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["certify", str(path)])
    if _well_formed(data):
        assert code in (0, 1)
        assert json.loads(out.getvalue())["command"] == "certify"
    else:
        assert code == 2
        assert out.getvalue() == ""


def _run_main(argv):
    """Exit code, stdout and stderr of one in-process run; argparse's refusals return 2 too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _as_int(text):
    """The integer parse_integer reads from text, or None where it refuses."""
    m = re.fullmatch(r"\s*([+-]?[0-9]{1,4300})\s*", text)
    return int(m.group(1)) if m else None


# integer flags: small values, values past each limit, digit runs longer than
# int() accepts, text only int() would read, and text with no digits at all
INT_TEXT = (
    st.integers(-3, 12).map(str)
    | st.integers(-(10**15), 10**15).map(str)
    | st.sampled_from([VIETA_DEPTH_LIMIT, VIETA_DEPTH_LIMIT + 1, VIETA_MAX_Z_LIMIT + 1]).map(str)
    | (st.integers(101, 5000) | st.sampled_from([CONSTRUCT_PARAMETER_DIGITS + 1, 4300, 4301])).map(lambda k: "9" * k)
    | st.sampled_from(["1_0", "\u0661", " 7 ", "+4"])
    | st.text(alphabet=",-x ./", max_size=4)
)
REDUCED_TEXT = st.sampled_from(all_reduced_solutions()).flatmap(
    lambda s: st.permutations([s.x, s.y, s.z]).map(lambda t: ",".join(map(str, t)))
)
SEED_TEXT = REDUCED_TEXT | st.lists(INT_TEXT, min_size=1, max_size=4).map(",".join)


@st.composite
def vieta_argv(draw):
    """An argv for `vieta`, with the flag values it carries."""
    fields = {}
    if draw(st.integers(0, 4)):
        fields["--b"] = draw(st.integers(1, 9).map(str) | INT_TEXT)
    for flag in ("--max-z", "--depth"):
        if draw(st.booleans()):
            fields[flag] = draw(INT_TEXT)
    if draw(st.booleans()):
        fields["--format"] = draw(st.sampled_from(["json", "table", "xml"]))
    mode = st.sampled_from(["--reduced", "--forest", "--family"])
    modes = draw(mode.map(lambda m: [m]) | st.lists(mode, unique=True, max_size=3))
    argv = ["vieta"] + [token for flag, value in fields.items() for token in (flag, value)]
    for mode in modes:
        argv.append(mode)
        if mode == "--family":
            fields[mode] = draw(SEED_TEXT)
            argv.append(fields[mode])
    return argv, fields, modes


def _vieta_well_formed(fields, modes) -> bool:
    ints = {flag: _as_int(fields[flag]) for flag in ("--b", "--max-z", "--depth") if flag in fields}
    b, depth = ints.get("--b"), ints.get("--depth", 4)
    if None in ints.values() or b is None or not 1 <= b <= 9:
        return False
    if fields.get("--format", "json") == "xml" or len(modes) != 1:
        return False
    # each mode refuses the flags it does not read
    if "--max-z" in fields and modes != ["--forest"]:
        return False
    if "--depth" in fields and modes != ["--family"]:
        return False
    if modes == ["--forest"]:
        return (
            fields.get("--format") != "table"
            and ints.get("--max-z") is not None
            and 1 <= ints["--max-z"] <= VIETA_MAX_Z_LIMIT
        )
    if modes == ["--family"]:
        if not 0 <= depth <= VIETA_DEPTH_LIMIT:
            return False
        seed = fields["--family"]
        if re.fullmatch(r"\s*\+?[0-9]+\s*(,\s*\+?[0-9]+\s*){2}", seed) is None:
            return False
        # an entry past CPython's int-to-str digit limit is refused, as _as_int says
        entries = [_as_int(v) for v in seed.split(",")]
        return None not in entries and tuple(sorted(entries)) in {
            (s.x, s.y, s.z) for s in all_reduced_solutions() if s.b == b
        }
    return True


@settings(max_examples=300, deadline=None)
@given(vieta_argv())
def test_vieta_fuzz_argv_exit_codes(case):
    argv, fields, modes = case
    code, out, err = _run_main(argv)
    assert "Traceback" not in err
    if _vieta_well_formed(fields, modes):
        assert code == 0 and out
    else:
        assert code == 2
        assert out == ""


@st.composite
def construct_argv(draw):
    """An argv for `construct`, and whether it must build (True), must be refused (False) or may do either (None)."""
    if draw(st.booleans()):
        # well formed by construction, with parameters small enough to draw
        name = draw(st.sampled_from(sorted(FAMILIES)))
        i = draw(st.integers(1, 40))
        if name == "reflexive":
            params = [draw(st.integers(0, 15))]
        elif name == "fibonacci":
            params = [draw(st.integers(1, 30))]
        elif name == "t-xyz":
            s = draw(st.sampled_from([s for s in all_reduced_solutions() if s.y % s.x == 0 and s.z % s.x == 0]))
            params = [s.x, s.y, s.z]
        elif name == "scott-grid":
            params = [i, draw(st.integers(3, 9 if i == 1 else 2 * i + 6))]
        elif name.startswith("p"):
            slope, intercept = _PIP_RANGES[int(name[1:])]
            params = [i, draw(st.integers(2, slope * i + intercept))]
        else:
            params = [i]
        expect, text = True, ",".join(map(str, params))
    else:
        name = draw(st.sampled_from(sorted(FAMILIES)) | st.text(alphabet="abp3-", max_size=5))
        pieces = draw(st.lists(INT_TEXT | st.just("4/1"), max_size=4))
        text = ",".join(pieces)
        values = [_as_int(p) for p in text.split(",")] if text else []
        malformed = (
            name not in FAMILIES
            or None in values
            or len(values) != FAMILIES[name][0]
            or any(abs(v) >= 10**CONSTRUCT_PARAMETER_DIGITS for v in values)
            or (name == "fibonacci" and values[0] > FIBONACCI_INDEX_LIMIT)
            or (name == "reflexive" and not 0 <= values[0] <= 15)
        )
        expect = False if malformed else None
    svg = draw(st.sampled_from([None, "file", "directory", "missing"]))
    if svg in ("directory", "missing"):
        expect = False
    return name, text, svg, expect


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(construct_argv())
def test_construct_fuzz_argv_exit_codes(tmp_path, case):
    name, text, svg, expect = case
    svg_path = tmp_path / "fuzz.svg"
    svg_path.unlink(missing_ok=True)
    argv = ["construct", "--family", name, "--params", text]
    if svg is not None:
        argv += ["--svg", str({"file": svg_path, "directory": tmp_path, "missing": tmp_path / "no" / "x.svg"}[svg])]
    code, out, err = _run_main(argv)
    assert "Traceback" not in err
    if expect is not None:
        assert code == (0 if expect else 2)
    if code == 0:
        assert len(RationalPolygon.from_json_dict(json.loads(out)).vertices) >= 3
        assert svg != "file" or svg_path.read_text().startswith("<svg")
    else:
        assert code == 2
        assert out == ""
        assert not svg_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "{tmp}/missing.json"],
        ["certify", "{tmp}/nested.json"],
        ["certify", "{tmp}/wide.json"],
        ["vieta", "--b", "0", "--reduced"],
        ["vieta", "--b", "9", "--family", "1,1,x"],
        ["vieta", "--b", "9", "--family", "1,1,4"],
        ["construct", "--family", "p4", "--params", "1_0,4"],
        ["construct", "--family", "p4", "--params", "1,99"],
        ["construct", "--family", "p4", "--params", "1,4", "--svg", "{tmp}"],
        ["verify", "--suite", "no-such-suite"],
        ["verify", "--suite", "reflexive", "--bound", "3"],
        # argparse's own refusals
        ["certify"],
        ["vieta", "--b", "0_9", "--reduced"],
        ["verify", "--suite", "family-grid", "--max-width", "5"],
        ["frobnicate"],
        # a stream that never ends, refused at CERTIFY_FILE_LIMIT
        ["certify", "/dev/zero"],
    ],
)
def test_refusal_writes_one_error_line_and_no_timing(argv, tmp_path):
    (tmp_path / "nested.json").write_text("[" * 100_000)
    (tmp_path / "wide.json").write_text(json.dumps({"vertices": [["0", "0"], ["1", "0"], ["0", "1/1000000"]]}))
    code, out, err = _run_main([arg.format(tmp=tmp_path) for arg in argv])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith("error: ") and not err.startswith("error: error:")
    assert "elapsed_ms" not in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["certify", "{tmp}/pip.json"], 0),
        (["certify", "{tmp}/octagon.json"], 1),
        (["vieta", "--b", "1", "--reduced"], 0),
        (["vieta", "--b", "1", "--reduced", "--format", "table"], 0),
        (["vieta", "--b", "9", "--family", "1,1,1", "--format", "table"], 0),
        (["vieta", "--b", "1", "--forest", "--max-z", "50"], 0),
        (["construct", "--family", "p4", "--params", "1,4"], 0),
        (["verify", "--suite", "reduced-table"], 0),
    ],
)
def test_every_completed_run_writes_one_timing_line(argv, expected, tmp_path):
    write_polygon(tmp_path, fibonacci_triangle(1), "pip.json")
    write_polygon(tmp_path, octagon_empty_boundary(), "octagon.json")
    code, out, err = _run_main([arg.format(tmp=tmp_path) for arg in argv])
    assert code == expected
    assert out
    assert re.fullmatch(r"elapsed_ms=[0-9]+\n", err)


def test_library_value_error_is_not_a_usage_error(tmp_path, monkeypatch):
    def broken(P):
        raise ValueError("internal fault")

    monkeypatch.setattr("pipgeom.ehrhart.is_pseudointegral", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["certify", write_polygon(tmp_path, fibonacci_triangle(1))])


class _RefusingStdout(io.StringIO):
    """A stdout whose `write` or `flush` raises the given OSError."""

    def __init__(self, method, exc):
        super().__init__()
        self.method, self.exc = method, exc

    def write(self, text):
        if self.method == "write":
            raise self.exc
        return super().write(text)

    def flush(self):
        if self.method == "flush":
            raise self.exc


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "{tmp}/pip.json"],
        ["certify", "{tmp}/octagon.json"],
        ["vieta", "--b", "1", "--reduced", "--format", "table"],
        ["verify", "--suite", "reduced-table"],
        ["--help"],
        ["--version"],
    ],
)
@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize(
    "exc",
    [BrokenPipeError(errno.EPIPE, "Broken pipe"), OSError(errno.ENOSPC, "No space left on device")],
    ids=["EPIPE", "ENOSPC"],
)
def test_unwritable_output_is_no_verdict(argv, method, exc, tmp_path):
    write_polygon(tmp_path, fibonacci_triangle(1), "pip.json")
    write_polygon(tmp_path, octagon_empty_boundary(), "octagon.json")
    err = io.StringIO()
    with contextlib.redirect_stdout(_RefusingStdout(method, exc)), contextlib.redirect_stderr(err):
        code = main([arg.format(tmp=tmp_path) for arg in argv])
    assert code == 2
    assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
    assert "elapsed_ms" not in err.getvalue()


@pytest.mark.parametrize("target", ["/dev/full", "closed pipe"])
def test_unwritable_output_exits_two_without_traceback(target, tmp_path):
    """The script's own exit flushes nothing more into a stdout that refused output."""
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full on this platform")
    path = write_polygon(tmp_path, fibonacci_triangle(2))
    # a buffered stdout, as a shell gives, still holds the refused output at exit
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(pipgeom.__file__).parents[1])
    command = [sys.executable, "-m", "pipgeom.cli", "certify", path]
    if target == "/dev/full":
        with open(target, "w") as out:
            done = subprocess.run(command, stdout=out, stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    else:
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(command, stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=60)
        finally:
            os.close(write)
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_help_into_a_full_disk_exits_two(unbuffered):
    """--help is no verdict either when its text cannot be written."""
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(pipgeom.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "pipgeom.cli", "--help"]
    with open("/dev/full", "w") as out:
        done = subprocess.run(command, stdout=out, stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")
