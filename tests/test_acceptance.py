"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Every check is an exact-equality assertion (zero tolerance).  Each test
prints a single pass/fail line; run `pytest -s tests/test_acceptance.py`
to see them, or `pipgeom verify --suite <name>` for the per-check view.
"""

import time

import pytest

from pipgeom import suites


def _run(number: int, title: str, result: suites.SuiteResult) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"acceptance {number:2d} [{result.name}] {title}: {status}")
    if not result.passed:
        for line in result.lines():
            if line.startswith("FAIL"):
                print("   ", line)
    assert result.passed, f"criterion {number} failed; see lines above"


def test_criterion_01_reduced_solution_table():
    started = time.time()
    result = suites.suite_reduced_table()
    elapsed = time.time() - started
    _run(1, "13 reduced solutions, brute force agrees", result)
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_02_b_value_sweep():
    started = time.time()
    result = suites.suite_b_sweep(bound=300)
    elapsed = time.time() - started
    _run(2, "b-values over entries <= 300 are {1..6, 8, 9}, all witnessed", result)
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"


def test_criterion_03_nvar_bound():
    started = time.time()
    result = suites.suite_nvar()
    elapsed = time.time() - started
    _run(3, "n-variable bound b <= n^2 at desk scale", result)
    assert elapsed < 120.0, f"took {elapsed:.2f}s, budget 120s"


def test_criterion_04_family_triangle_grid():
    started = time.time()
    result = suites.suite_family_grid(depth=4)
    elapsed = time.time() - started
    _run(4, "solution triangles certify (1, b) for all seeds, depth <= 4", result)
    assert elapsed < 600.0, f"took {elapsed:.2f}s, budget 600s"


def test_criterion_05_fibonacci_family():
    result = suites.suite_fibonacci()
    _run(5, "Fibonacci triangles certify (1, 9), denominators grow", result)


def test_criterion_06_denominator_grid():
    started = time.time()
    result = suites.suite_denominator_grid()
    elapsed = time.time() - started
    _run(6, "denominator-3/4/10 grid certifies every in-range (i, b)", result)
    assert elapsed < 300.0, f"took {elapsed:.2f}s, budget 300s"


def test_criterion_07_counterexamples():
    result = suites.suite_counterexamples()
    _run(7, "4-gon and 8-gon counterexample configurations", result)


def test_criterion_08_reflexive_catalog():
    result = suites.suite_reflexive()
    _run(8, "16 catalog entries: integral, i=1, integral dual, Pick", result)


def test_criterion_09_property_suites():
    result = suites.suite_properties(count=100)
    _run(9, "randomized invariant batteries (>= 100 instances each)", result)


def test_criterion_10_small_boundary_profiles():
    result = suites.suite_small_boundary(i_max=5)
    _run(10, "profiles (i, 1) and (i, 2); integral range rejects b < 3", result)
