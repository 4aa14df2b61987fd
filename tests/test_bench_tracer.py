"""The benchmark tracer wraps library functions by name; a rename in the
library must fail here, not only in the slow bench self-test."""

import sys
from pathlib import Path

import pytest

from h1geom import verify

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        import tracer as mod
    finally:
        sys.path.remove(str(BENCH))
    return mod


def test_tracer_installs_and_uninstalls(tracer):
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()  # restores the originals even when install fails


def test_tracer_checks_name_verify_checks(tracer):
    missing = [name for name in tracer.CHECKS
               if not (name.startswith("check_") and callable(getattr(verify, name, None)))]
    assert not missing


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_tracer_times_every_declared_check(tracer, suite):
    # the suite runner calls each check through its module attribute, which
    # the tracer rebinds: a runner that kept the check functions in a list
    # would leave every per-check span at 0
    t = tracer.Tracer()
    try:
        t.install()
        verify.run_suites([suite])
    finally:
        t.uninstall()
    for in_suite, name, _ in verify.CHECK_TABLE:
        if in_suite == suite:
            calls, seconds, _ = t.totals(f"verify.{name}")
            assert calls == 1 and seconds > 0, name


def test_tracer_sees_the_ruled_chart(tracer):
    # the bench counts ruled_coordinates and RuledChart.curve_chart_point by
    # name: a change to the ruled chart must not silently zero them
    t = tracer.Tracer()
    try:
        t.install()
        verify.check_ruled_charts()
    finally:
        t.uninstall()
    assert t.metrics()["surfaces.ruled_coordinates.calls"][0] == 3
    assert t.counts["surfaces.RuledChart.curve_chart_point.calls"] > 0
