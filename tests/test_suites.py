from pipgeom.suites import (
    SUITES,
    SuiteResult,
    suite_family_grid,
    suite_reduced_table,
    suite_small_boundary,
)


def test_suite_result_lines():
    r = SuiteResult("demo")
    r.add("first", True)
    r.add("second", False, "why")
    assert not r.passed
    assert r.lines() == ["ok   first", "FAIL second  [why]"]


def test_work_limit_skips_and_logs(monkeypatch):
    # an absurdly small limit: every instance is skipped, none certified
    monkeypatch.setattr("pipgeom.ehrhart.CERTIFY_WORK_LIMIT", 1)
    r = suite_family_grid(depth=0)
    assert r.passed
    assert all("[skipped]" in label for label, _, _ in r.checks)
    assert len(r.checks) == 13


def test_registry_contains_all_suites():
    assert set(SUITES) == {
        "reduced-table",
        "b-sweep",
        "nvar-bound",
        "family-grid",
        "fibonacci",
        "denominator-grid",
        "counterexamples",
        "reflexive",
        "properties",
        "small-boundary",
    }


def test_two_quick_suites_pass():
    assert suite_reduced_table().passed
    assert suite_small_boundary(i_max=2).passed
