"""Every named identity check in the verification registry must pass, and
tolerance overrides must be applied verbatim."""

import pytest

from h1geom.verify import SUITES, run_suites


@pytest.fixture(scope="session")
def suite_results():
    """Each suite run once per test session, by name."""
    return {name: run_suites([name]) for name in SUITES}


@pytest.mark.parametrize("suite", list(SUITES))
def test_suite_green(suite, suite_results):
    failures = [r.line() for r in suite_results[suite] if not r.passed]
    assert not failures, "\n".join(failures)


def test_override_applied():
    results = run_suites(["core"], {"group_associativity": 1e-30})
    failed = [r for r in results if r.name == "group_associativity"][0]
    assert failed.threshold == 1e-30
    assert not failed.passed


def test_check_names_unique(suite_results):
    names = [r.name for results in suite_results.values() for r in results]
    assert len(names) == len(set(names))
