"""Every named identity check in the verification registry must pass, and
tolerance overrides must be applied verbatim."""

import math

import pytest

from h1geom import cli, verify
from h1geom.surfaces import SingularLocus
from h1geom.verify import CHECK_TABLE, SUITES, declared_names, run_suites


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


def test_check_names_unique():
    names = [row[0] for _, _, rows in CHECK_TABLE for row in rows]
    assert len(names) == len(set(names))
    assert declared_names(SUITES) == names


def test_suites_report_the_declared_rows_in_order(suite_results):
    for suite, results in suite_results.items():
        assert [r.name for r in results] == declared_names([suite])


# rows that read exact derivatives (of the closed geodesic flow or of a
# chart's 2-jet) and so hold round-off, though their thresholds stay wider
EXACT_DERIVATIVE_ROWS = (
    "jacobi_trivial_family", "jacobi_equation_rulings", "jacobi_commutation",
    "jacobi_vertical_quadratic_fit", "jacobi_equation_general",
    "characteristic_flow_derivatives", "scalar_flow_derivatives",
    "jacobi_vertical_coefficients", "singular_helix_geometry",
    # read off Taylor numbers: the operator L along Z, Z<B(Z),S>, d^2A/dr^2
    # and U<V,W> (2.6e-7, 2.1e-11, 4.6e-7 and 9.2e-12 by central differences)
    "lnh_closed_vs_direct", "shape_term_flow_derivative", "vertical_variation_second",
    "metric_compatibility")


def test_exact_derivative_rows_hold_round_off(suite_results):
    got = {r.name: r.residual for results in suite_results.values() for r in results}
    assert {name: got[name] for name in EXACT_DERIVATIVE_ROWS if not got[name] <= 1e-13} == {}


@pytest.mark.parametrize("empty_call", [0, 2])
def test_singular_locus_without_crossings_reports_inf(monkeypatch, empty_call):
    # a helicoid or paraboloid locus with no crossings is a failed check under
    # the check's one name and identity, with an infinite residual
    real, calls = verify.singular_locus, []

    def locus(chart, grid):
        calls.append(1)
        got = real(chart, grid)
        return SingularLocus([], []) if len(calls) - 1 == empty_call else got

    monkeypatch.setattr(verify, "singular_locus", locus)
    result = verify.check_singular_locus()
    assert (result.name, result.residual, result.passed) == ("singular_locus", math.inf, False)
    assert result.identity == "helices s=+-1/R; empty catenoid; line x=0 on t=xy"


@pytest.mark.parametrize("nan_at", [0, 4])
def test_a_nan_sample_fails_its_check(monkeypatch, capsys, nan_at):
    # max(0.0, nan) is 0.0: a NaN Ricci value, first or later, reads as a
    # nan residual that fails, and verify exits 3 (numerical failure)
    real, calls = verify.ricci, []

    def ricci(u, v):
        calls.append(1)
        return math.nan if len(calls) - 1 == nan_at else real(u, v)

    monkeypatch.setattr(verify, "ricci", ricci)
    result = verify.check_ricci_table()
    assert math.isnan(result.residual) and not result.passed
    assert result.line().split()[-3:] == ["nan", "1.0e-12", "FAIL"]
    calls.clear()
    assert cli.main(["verify", "--suite", "core"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "nan" in line] == [result.line()]
    assert lines[-1] == f"# {len(lines) - 4}/{len(lines) - 3} checks passed"
