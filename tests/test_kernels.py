"""The velocity-only RK4 stage and the one-sample operator L against the
forms they replace, compared with ``==``, and the shared kernels pinned to
``float.hex`` values."""

import math

import numpy as np
import pytest

from h1geom import stability
from h1geom.core import FrameField, Point, flow
from h1geom.geodesics import exp_euclidean, helpers_fgh
from h1geom.errors import NonFiniteValue, SingularPoint
from h1geom.stability import operator_L, tangent_derivative
from h1geom.surfaces import (CatenoidChart, Chart, HelicoidChart, _chart_velocity,
                             catalog_surface, dilated, integrate_tangent_field, rotated,
                             surface_frame, translated)


def _charts():
    cat = CatenoidChart(1.0)
    return {
        "vertical_plane": catalog_surface("vertical_plane"),
        "plane": catalog_surface("plane", a=0.4, b=-0.7, c=0.3),
        "paraboloid": catalog_surface("paraboloid"),
        "helicoid": catalog_surface("helicoid", R=2.0),
        "catenoid": catalog_surface("catenoid", lam=-2.5),
        "dilated": dilated(HelicoidChart(1.0), 0.3),
        "rotated": rotated(cat, 1.234),
        "translated": translated(cat, Point(0.3, -0.8, 1.1)),
    }


def _outcome(fn):
    try:
        return fn()
    except (NonFiniteValue, SingularPoint) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", list(_charts()))
def test_chart_velocity_equals_frame(name):
    chart = _charts()[name]
    (a1, b1), (a2, b2) = chart.domain
    rng = np.random.default_rng(17)
    for u in zip(rng.uniform(a1, b1, 500).tolist(), rng.uniform(a2, b2, 500).tolist()):
        fr = _outcome(lambda: surface_frame(chart, u))
        for which, field in (("Z", "z_chart"), ("S", "s_chart")):
            want = fr if isinstance(fr, tuple) else getattr(fr, field)
            assert _outcome(lambda: _chart_velocity(chart, u, which)) == want, (u, which)


def test_chart_velocity_errors_match_frame():
    class Fold(Chart):
        def _jet_parts(self, u1, u2, m):
            zero = (0.0, 0.0, 0.0)
            return (u1, u2, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), zero, zero, zero

    cases = [(HelicoidChart(2.0), (0.5, 0.4), SingularPoint),
             (HelicoidChart(2.0), (-0.5, -0.7), SingularPoint),
             (Fold(), (0.1, 0.2), NonFiniteValue)]
    for chart, u, exc in cases:
        want = _outcome(lambda: surface_frame(chart, u))
        assert want[0] is exc
        for which in ("Z", "S"):
            assert _outcome(lambda: _chart_velocity(chart, u, which)) == want


def test_operator_l_one_sample_set(monkeypatch):
    chart = CatenoidChart(1.0)
    field_calls = []
    nh = lambda u: field_calls.append(u) or surface_frame(chart, u).Nh_norm
    calls = []
    rk4 = stability.integrate_tangent_field

    def counted(*args, **kwargs):
        calls.append(args[1])
        return rk4(*args, **kwargs)

    monkeypatch.setattr(stability, "integrate_tangent_field", counted)
    for u in ((0.8, 0.9), (2.0, -0.4), (4.5, 1.2)):
        fr = surface_frame(chart, u)
        zv = tangent_derivative(chart, nh, u, 1, "Z")
        zzv = tangent_derivative(chart, nh, u, 2, "Z")
        want = (zzv + 2.0 / fr.Nh_norm * fr.NT * fr.BZS * zv + fr.q * nh(u)) / fr.Nh_norm
        calls.clear()
        field_calls.clear()
        assert operator_L(chart, nh, u) == want
        assert len(calls) == 4
        # four curve samples and the centre, each evaluated once
        assert len(field_calls) == 5


# ---------------------------------------------------------------------------
# Kernels pinned bit for bit: RK4 (core.flow, integrate_tangent_field), the
# closed geodesic flow (exp_euclidean) and the f, g, h helpers
# ---------------------------------------------------------------------------

def _hex(v):
    if isinstance(v, (tuple, list)):
        return tuple(_hex(c) for c in v)
    if isinstance(v, np.ndarray):
        return tuple(float(c).hex() for c in v.ravel())
    return float(v).hex()


_FGH_XS = [0.0, 1e-4 * (1 + 1e-12), 1e-4 * (1 - 1e-12), -1e-4 * (1 + 1e-12),
           -1e-4 * (1 - 1e-12), math.pi]
_FGH_PINNED = [
    ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
    ("0x1.fffffff1aef62p-1", "0x1.a36e2e86fe32dp-15", "0x1.179ec939eed91p-16"),
    ("0x1.fffffff1aef61p-1", "0x1.a36e2eabe5328p-15", "0x1.179ec9c97e738p-16"),
    ("0x1.fffffff1aef62p-1", "-0x1.a36e2e86fe32dp-15", "-0x1.179ec939eed91p-16"),
    ("0x1.fffffff1aef61p-1", "-0x1.a36e2eabe5328p-15", "-0x1.179ec9c97e738p-16"),
    ("0x1.678afae35cdd1p-55", "0x1.45f306dc9c883p-1", "0x1.45f306dc9c883p-2"),
]


def test_helpers_fgh_pinned_bitwise():
    # both sides of the series switch at |x| = 1e-4, scalar and array alike
    for x, pinned in zip(_FGH_XS, _FGH_PINNED):
        assert _hex(helpers_fgh(x)) == pinned
    arr = _hex(helpers_fgh(np.array(_FGH_XS)))
    assert arr == tuple(zip(*_FGH_PINNED))


def test_exp_euclidean_pinned_bitwise():
    pinned = ("0x1.559ecd0c39e5ep-1", "-0x1.216161d61b5eep+1", "0x1.05ea50ee9ee87p+1")
    assert _hex(exp_euclidean((0.3, -0.2, 0.7), (0.6, -1.1, 0.4), 1.7)) == pinned
    # a batch, with a zero velocity (lam = 0, the series branch) beside it
    batch = exp_euclidean((np.array([0.3, 0.0]), np.array([-0.2, 0.0]), np.array([0.7, 0.0])),
                          (np.array([0.6, 1.0]), np.array([-1.1, 0.0]), np.array([0.4, 0.0])),
                          1.7)
    assert _hex(batch) == tuple(zip(pinned, ("0x1.b333333333333p+0", "0x0.0p+0",
                                             "0x0.0p+0")))


def test_flow_pinned_bitwise():
    field = FrameField(lambda p: 1.0 + 0.2 * p.y, lambda p: -0.3 * p.x,
                       lambda p: 0.5 + 0.1 * p.t)
    end = flow(field, Point(0.3, -0.2, 0.7), 1.3)
    assert _hex(end.coords()) == ("0x1.830e13982cb90p+0", "-0x1.1cd905430a692p-1",
                                  "0x1.731140872307ap+0")


def test_integrate_tangent_field_pinned_bitwise():
    us = integrate_tangent_field(CatenoidChart(1.0), (0.4, 0.3), 0.5, 5, "S")
    assert len(us) == 6 and us[0] == (0.4, 0.3)
    assert _hex(us[-1]) == ("0x1.8e8c784c9bac1p-2", "-0x1.6c4ce9acd033ep-3")
    us = integrate_tangent_field(HelicoidChart(2.0), (0.1, 0.1), 0.2, 4, "Z")
    assert _hex(us[-1]) == ("0x1.3333333333334p-2", "0x1.999999999999ap-4")
