"""The velocity-only RK4 stage, the streamed ruling sums and the one-sample
operator L against the forms they replace, compared with ``==``."""

import math

import numpy as np
import pytest

from h1geom import stability
from h1geom._gauss import NODES_WEIGHTS
from h1geom.core import Point
from h1geom.errors import NonFiniteValue, SingularPoint
from h1geom.numerics import QuadratureSpec, kahan_sum
from h1geom.stability import (cosine_bump, jacobi_vertical_quadratic, operator_L,
                              ruled_index_value, tangent_derivative)
from h1geom.surfaces import (CatenoidChart, Chart, HelicoidChart, _chart_velocity,
                             catalog_surface, dilated, rotated, ruled_coordinates,
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


def _scalar_ruled_index_value(chart, ruled, phi, k, quad):
    """The scalar double loop that ``ruled_index_value`` streams, verbatim."""
    gnodes, gweights = NODES_WEIGHTS[quad.points_per_cell]

    lo, hi = phi.support
    ncells = quad.cells[0]
    h = (hi - lo) / ncells
    eps_nodes = []
    for cidx in range(ncells):
        mid = lo + (cidx + 0.5) * h
        for x, w in zip(gnodes, gweights):
            eps_nodes.append((mid + 0.5 * h * x, 0.5 * h * w))

    int_phi2 = kahan_sum([w * phi.value(e) ** 2 for e, w in eps_nodes])
    int_dphi2 = kahan_sum([w * phi.deriv(e) ** 2 for e, w in eps_nodes])

    coeffs = []
    for e, w in eps_nodes:
        uc = ruled.curve_chart_point(e)
        a, b, c, disc = jacobi_vertical_quadratic(chart, uc)
        coeffs.append((a, b, c, -disc))

    s_lo, s_hi = k * lo, k * hi
    s_cells = max(quad.cells[1], int(math.ceil(k)) * 2)
    hs = (s_hi - s_lo) / s_cells
    s_nodes = []
    for cidx in range(s_cells):
        mid = s_lo + (cidx + 0.5) * hs
        for x, w in zip(gnodes, gweights):
            s_nodes.append((mid + 0.5 * hs * x, 0.5 * hs * w))

    second_terms = []
    for (e, we), (a, b, c, d) in zip(eps_nodes, coeffs):
        pe2 = phi.value(e) ** 2
        if pe2 == 0.0 or d == 0.0:
            continue
        acc = []
        for s, ws in s_nodes:
            vt = a * s * s + b * s + c
            acc.append(ws * phi.value(s / k) ** 2 * d / (vt * vt))
        second_terms.append(we * pe2 * kahan_sum(acc))
    second = kahan_sum(second_terms)
    return int_dphi2 * int_phi2 / k - 0.75 * second


def _catenoid_ruled(lam):
    chart = CatenoidChart(lam)
    u0 = chart.locate(Point(math.sqrt(2.0) * abs(lam), 0.0, lam * lam))
    return chart, ruled_coordinates(chart, u0, 1.0, (-8.0, 8.0))


@pytest.mark.parametrize("lam", [1.0, -2.5])
def test_ruled_index_value_equals_scalar_loop(lam):
    chart, ruled = _catenoid_ruled(lam)
    phi = cosine_bump(0.0, 1.0)
    quad = QuadratureSpec(16, (8, 8))
    for q in (quad, quad.doubled()):
        for k in range(1, 9):
            want = _scalar_ruled_index_value(chart, ruled, phi, float(k), q)
            assert ruled_index_value(ruled, phi, float(k), q) == want, (q, k)


def test_ruling_coefficients_once_per_node(monkeypatch):
    _, ruled = _catenoid_ruled(1.0)
    phi = cosine_bump(0.0, 1.0)
    quad = QuadratureSpec(16, (8, 8))
    calls = []

    def counted(c, u):
        calls.append(u)
        return jacobi_vertical_quadratic(c, u)

    monkeypatch.setattr(stability, "jacobi_vertical_quadratic", counted)
    for k in range(1, 6):
        ruled_index_value(ruled, phi, float(k), quad)
    assert len(calls) == 8 * 16
    ruled_index_value(ruled, phi, 3.0, quad.doubled())
    assert len(calls) == 8 * 16 + 16 * 16


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
