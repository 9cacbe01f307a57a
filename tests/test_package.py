"""The package surface: public names resolved on first use, a lean import, and the value types."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pipgeom
from pipgeom.constructions import fibonacci_triangle, octagon_empty_boundary
from pipgeom.ehrhart import QuasiPolynomial, is_pseudointegral
from pipgeom.exact import AffineMap, IntMat2, Vec2
from pipgeom.vieta import NTuple, VietaSolution, all_reduced_solutions, family, jump_forest, verify_general_bound

# the modules each import adds, against a snapshot taken before it, so that
# whatever the interpreter loads at start-up does not count
_IMPORT_CHECK = """
import sys
before = set(sys.modules)
import pipgeom.constructions, pipgeom.vieta
print(sorted(set(sys.modules) - before))
import pipgeom.cli
print(sorted(set(sys.modules) - before))
"""


def test_constructions_and_vieta_import_without_counting_ehrhart_or_dataclasses():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(pipgeom.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", _IMPORT_CHECK], capture_output=True, env=env, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lean, everything = (set(ast.literal_eval(line)) for line in done.stdout.splitlines())
    assert {"pipgeom", "pipgeom.constructions", "pipgeom.vieta"} <= lean
    assert not lean & {"dataclasses", "pipgeom.counting", "pipgeom.ehrhart"}
    # the command layer loads each command's modules when the command runs, and none imports dataclasses
    assert not everything & {"pipgeom.counting", "pipgeom.ehrhart", "pipgeom.suites", "pipgeom.svg"}
    assert "dataclasses" not in everything


# the package modules a snapshot finds after one command, run in a fresh interpreter
_COMMAND_CHECK = """
import contextlib, io, sys
from pipgeom.cli import main
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(code, sorted(m for m in set(sys.modules) - before if m.startswith("pipgeom.")))
"""


def _modules_after(*argv: str) -> tuple[int, set[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(pipgeom.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _COMMAND_CHECK, *argv], capture_output=True, env=env, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    code, modules = done.stdout.split(" ", 1)
    return int(code), set(ast.literal_eval(modules))


def test_each_command_loads_only_its_own_modules(tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(fibonacci_triangle(2).to_json_dict()))
    code, loaded = _modules_after("certify", str(path))
    assert code == 0
    assert {"pipgeom.polygon", "pipgeom.counting", "pipgeom.ehrhart"} <= loaded
    assert not loaded & {"pipgeom.suites", "pipgeom.svg", "pipgeom.vieta", "pipgeom.constructions"}
    code, loaded = _modules_after("vieta", "--b", "9", "--reduced")
    assert code == 0 and "pipgeom.vieta" in loaded
    assert not loaded & {"pipgeom.counting", "pipgeom.ehrhart", "pipgeom.suites", "pipgeom.svg"}
    # the parser imports constructions to check the family, and svg only for --svg
    code, loaded = _modules_after("construct", "--family", "p10", "--params", "2,14")
    assert code == 0 and "pipgeom.constructions" in loaded
    assert not loaded & {"pipgeom.counting", "pipgeom.ehrhart", "pipgeom.suites", "pipgeom.svg"}
    code, loaded = _modules_after("construct", "--family", "p10", "--params", "2,14", "--svg", str(tmp_path / "p.svg"))
    assert code == 0 and "pipgeom.svg" in loaded


def test_every_public_name_resolves_and_is_listed():
    for name in pipgeom.__all__:
        value = getattr(pipgeom, name)
        assert value is getattr(sys.modules[value.__module__], name)
    assert set(pipgeom.__all__) <= set(dir(pipgeom))
    assert pipgeom.__all__ == sorted(pipgeom.__all__)
    namespace: dict = {}
    exec("from pipgeom import *", namespace)
    assert set(pipgeom.__all__) <= set(namespace)


def test_an_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pipgeom.no_such_name
    with pytest.raises(ImportError):
        exec("from pipgeom import no_such_name", {})


_PER_RESIDUE = "need one coefficient triple per residue class and a positive scale"


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (VietaSolution, (2, 1, 1, 9), "solution entries must be positive and sorted"),
        (VietaSolution, (0, 1, 1, 9), "solution entries must be positive and sorted"),
        (VietaSolution, (1, 2, 4, 6), "(1,2,4) is not a solution for b=6"),
        (NTuple, ((2, 1), 4), "values must be a sorted positive tuple with n >= 2"),
        (NTuple, ((1,), 1), "values must be a sorted positive tuple with n >= 2"),
        (NTuple, ((1, 1, 1), 8), "(1, 1, 1) is not a solution for b=8"),
        (AffineMap, (IntMat2.identity(), Vec2(Fraction(1, 2), 0)), "translation part must be integral"),
        (QuasiPolynomial, (2, ((1, 0, 1),), 1), _PER_RESIDUE),
        (QuasiPolynomial, (0, (), 1), _PER_RESIDUE),
        (QuasiPolynomial, (1, ((1, 0, 1),), 0), _PER_RESIDUE),
    ],
    ids=[
        "VietaSolution-unsorted", "VietaSolution-zero", "VietaSolution-no-solution", "NTuple-unsorted",
        "NTuple-one-entry", "NTuple-no-solution", "AffineMap-half-shift", "QuasiPolynomial-short",
        "QuasiPolynomial-no-period", "QuasiPolynomial-zero-scale",
    ],  # fmt: skip
)
def test_value_types_refuse_what_they_refused(cls, args, message):
    with pytest.raises(ValueError) as excinfo:
        cls(*args)
    assert str(excinfo.value) == message


def _values():
    seed = VietaSolution(1, 1, 1, 9)
    return [
        Vec2(1, Fraction(1, 2)),
        IntMat2(1, 1, 0, 1),
        AffineMap(IntMat2(1, 1, 0, 1), Vec2(2, -1)),
        seed,
        family(seed, 1)[1],
        NTuple((1, 4, 25), 9),
        verify_general_bound(2, 20),
        is_pseudointegral(fibonacci_triangle(1)),
        is_pseudointegral(octagon_empty_boundary()),
        is_pseudointegral(octagon_empty_boundary()).ehrhart,
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_value_types_refuse_field_assignment(value):
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))


def test_quasipolynomial_keeps_its_coefficient_view():
    qp = is_pseudointegral(octagon_empty_boundary()).ehrhart
    assert qp.coeffs is qp.coeffs
    assert qp.coeffs[0] == tuple(Fraction(k, qp.scale) for k in qp.numerators[0])
    assert qp == QuasiPolynomial(qp.period, qp.numerators, qp.scale)


def test_vieta_solutions_sort_by_x_y_z_then_b():
    # the order of the sorted reduced solutions of every b, written out
    assert [s.triple() for s in sorted(all_reduced_solutions())] == [
        (1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 4, 5), (2, 2, 4), (2, 4, 6), (3, 3, 3),
        (3, 6, 9), (4, 4, 8), (5, 20, 25), (6, 12, 18), (8, 8, 16), (9, 9, 9),
    ]  # fmt: skip
    nodes = [s for b in (1, 4, 9) for s in jump_forest(b, 10**4)]
    assert sorted(nodes) == sorted(nodes, key=lambda s: (s.x, s.y, s.z, s.b))
    assert sorted(nodes, reverse=True) == sorted(nodes, key=lambda s: (s.x, s.y, s.z, s.b), reverse=True)
