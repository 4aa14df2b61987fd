import math

import mpmath as mp
import numpy as np
import pytest

from h1geom import surfaces
from h1geom.core import Point
from h1geom.errors import NonFiniteValue, SingularPoint, StoppedAtSingular
from h1geom.numerics import QuadratureSpec, Taylor, taylor
from h1geom.surfaces import (CatenoidChart, CatenoidRulingChart, Chart, GraphChart,
                             HelicoidChart, ParaboloidChart, PlaneChart, VerticalPlaneChart,
                             area, area_elements, catalog_surface, characteristic_ray,
                             dilated, rotated, ruled_coordinates, singular_locus,
                             surface_frame, surface_frames, translated)
from referees import area_element

QUAD = QuadratureSpec(16, (8, 8))


def helicoid_reference(R, s):
    f = 1.0 / R - R * s * s
    w = math.hypot(f, R * s)
    return f, w, abs(f) / w, -R * s / w


def test_vertical_plane_frame():
    chart = VerticalPlaneChart()
    fr = surface_frame(chart, (0.5, -0.7))
    assert abs(fr.Nh_norm - 1.0) <= 1e-15
    assert fr.NT == 0.0
    assert abs(fr.BZS - 1.0) <= 1e-15
    assert abs(fr.H) <= 1e-15
    assert abs(fr.q) <= 1e-15


def test_helicoid_closed_forms():
    for R in (1.0, 2.0, 3.5):
        chart = HelicoidChart(R)
        for s, e in ((0.1, 0.3), (-0.7, 1.2), (1.1, -0.4)):
            fr = surface_frame(chart, (s, e))
            f, w, nh, nt = helicoid_reference(R, s)
            assert abs(fr.Nh_norm - nh) <= 1e-12
            assert abs(fr.NT - nt) <= 1e-12
            assert abs(fr.riem_area - w) <= 1e-12
            bzs = 1.0 - (1.0 + R * R * s * s) / (w * w)
            assert abs(fr.BZS - bzs) <= 1e-12
            assert abs(fr.q - (R * R - 4.0) * f * f / w ** 4) <= 1e-12
            assert abs(fr.H) <= 1e-12


def test_helicoid_normal_orientation_locked():
    # N = (f cos X - f sin Y - R s T)/W for the (s, eps) ordering
    R = 2.0
    chart = HelicoidChart(R)
    s, e = 0.3, 0.7
    fr = surface_frame(chart, (s, e))
    f, w, _, _ = helicoid_reference(R, s)
    want = (f * math.cos(R * e) / w, -f * math.sin(R * e) / w, -R * s / w)
    assert max(abs(a - b) for a, b in zip(fr.N, want)) <= 1e-14


def test_catenoid_chart():
    chart = CatenoidChart(1.0)
    for th, ph in ((0.0, 0.0), (1.2, -0.8), (4.0, 1.1)):
        p = chart.point(th, ph)
        assert abs(chart.implicit_residual(p)) <= 1e-12
        th2, ph2 = chart.locate(p)
        assert abs(th2 - th % (2 * math.pi)) <= 1e-12
        assert abs(ph2 - ph) <= 1e-12
        fr = surface_frame(chart, (th, ph))
        assert abs(fr.H) <= 1e-12
        assert fr.Nh_norm > 0.1


@pytest.mark.parametrize("lam", [1.0, -2.5, 0.5])
def test_catenoid_ruling_chart_is_the_catenoid(lam):
    rc, cat = CatenoidRulingChart(lam), CatenoidChart(lam)
    for s, a in ((0.0, 0.0), (0.3 * lam, 0.4), (-1.7 * lam, -2.0), (2.5 * lam, 3.0),
                 (0.01 * lam, -0.9)):
        p = rc.point(s, a)
        assert abs(cat.implicit_residual(p)) <= 1e-13 * lam ** 4
        fr, want = surface_frame(rc, (s, a)), surface_frame(cat, cat.locate(p))
        for got, ref in ((fr.Nh_norm, want.Nh_norm), (fr.H, want.H), (fr.q, want.q)):
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (s, a)
        # the rulings are the s-lines: Z = +-d/ds
        assert abs(fr.z_chart[1]) <= 1e-12 and abs(abs(fr.z_chart[0]) - 1.0) <= 1e-12


def test_catenoid_ruling_chart_rejects_lam():
    for lam in (0.0, 1e-200, 1e200, math.inf, math.nan):
        with pytest.raises(ValueError):
            CatenoidRulingChart(lam)


def test_paraboloid_frame():
    chart = ParaboloidChart()
    # singular along the whole line x = 0 (the tangent plane is horizontal
    # there); the origin is one such point
    with pytest.raises(SingularPoint):
        surface_frame(chart, (0.0, 0.0))
    with pytest.raises(SingularPoint):
        surface_frame(chart, (0.0, 0.7))
    fr = surface_frame(chart, (0.5, -0.3))
    assert abs(fr.H) <= 1e-12
    fr0 = surface_frames(chart, [0.0], [0.4], singular_ok=True)
    assert fr0.Nh_norm[0] <= 1e-15 and not fr0.regular[0] and math.isnan(fr0.H[0])


def test_plane_chart_minimal():
    chart = PlaneChart(0.7, -0.3, 0.5)
    fr = surface_frame(chart, (0.4, 0.9))
    assert abs(fr.H) <= 1e-12


def test_mean_curvature_error_on_singular():
    with pytest.raises(SingularPoint):
        surface_frame(HelicoidChart(2.0), (0.5, 0.1)).H


def test_graph_bowl_not_minimal():
    bowl = GraphChart(lambda x, y: x * x + y * y, lambda x, y: 2 * x,
                      lambda x, y: 2 * y, lambda x, y: 2.0, lambda x, y: 0.0,
                      lambda x, y: 2.0)
    assert abs(surface_frame(bowl, (0.7, 0.2)).H) > 1e-3


def test_area_examples():
    vp = VerticalPlaneChart()
    assert abs(area_element(vp, (0.3, 0.3)) - 1.0) <= 1e-15
    assert abs(area(vp, ((0.0, 1.0), (0.0, 1.0)), QUAD) - 1.0) <= 1e-12

    hel = HelicoidChart(2.0)
    for s in (0.1, 0.3, 0.45):
        f = 0.5 - 2.0 * s * s
        assert abs(area_element(hel, (s, 0.7)) - abs(f)) <= 1e-14
    patch_area = area(hel, ((0.0, 0.4), (0.0, 1.0)), QUAD)
    closed = 0.4 / 2.0 - 2.0 * 0.4 ** 3 / 3.0
    assert abs(patch_area - closed) <= 1e-12
    assert area_element(hel, (0.5, 0.0)) <= 1e-15  # continuous zero at the helix


def _sine_graph():
    # math.sin raises on inf: the chart must not be evaluated there
    return GraphChart(lambda x, y: math.sin(x) * y, lambda x, y: math.cos(x) * y,
                      lambda x, y: math.sin(x), lambda x, y: -math.sin(x) * y,
                      lambda x, y: math.cos(x), lambda x, y: 0.0)


@pytest.mark.parametrize("chart, u", [(CatenoidChart(1.0), (math.inf, 0.1)),
                                      (ParaboloidChart(), (1e200, 1e200)),
                                      (VerticalPlaneChart(), (0.1, math.nan)),
                                      (_sine_graph(), (math.inf, 0.2))])
def test_area_element_nonfinite_message(chart, u):
    # one message for a non-finite chart point, surface point or density,
    # at the first such point of an array
    with pytest.raises(NonFiniteValue, match=r"^non-finite tangent plane at \(") as exc:
        area_element(chart, u)
    with pytest.raises(NonFiniteValue) as batch:
        area_elements(chart, [0.3, u[0], 0.2], [0.4, u[1], 0.1])
    assert str(batch.value) == str(exc.value)
    # the point first, in the middle or last, on 1-D and 2-D batches, with a
    # non-finite chart point after it
    for shape in ((5,), (3, 4)):
        n = math.prod(shape)
        for where in (0, n // 2, n - 1):
            U1, U2 = np.full(n, 0.3), np.full(n, 0.4)
            U1[-1] = math.nan
            U1[where], U2[where] = u
            with pytest.raises(NonFiniteValue) as batch:
                area_elements(chart, U1.reshape(shape), U2.reshape(shape))
            assert str(batch.value) == str(exc.value)


def test_area_dilation_and_rotation():
    hel = HelicoidChart(2.0)
    patch = ((0.0, 0.4), (0.0, 1.0))
    base = area(hel, patch, QUAD)
    lam = 0.3
    scaled = area(dilated(hel, lam), patch, QUAD)
    assert abs(scaled - math.exp(3 * lam) * base) <= 1e-6 * scaled
    rot = area(rotated(hel, 2.1), patch, QUAD)
    assert abs(rot - base) <= 1e-10 * base
    tra = area(translated(hel, Point(0.4, -1.0, 2.0)), patch, QUAD)
    assert abs(tra - base) <= 1e-10 * base


def test_characteristic_rays():
    hel = HelicoidChart(2.0)
    pts = characteristic_ray(hel, (0.0, 0.5), 0.4, 20)

    def straightness(points):
        p0, p1 = points[0], points[1]
        d = (p1.x - p0.x, p1.y - p0.y, p1.t - p0.t)
        n = math.sqrt(sum(c * c for c in d))
        d = tuple(c / n for c in d)
        worst = 0.0
        for p in points:
            w = (p.x - p0.x, p.y - p0.y, p.t - p0.t)
            proj = sum(a * b for a, b in zip(w, d))
            worst = max(worst, math.sqrt(max(0.0, sum(a * a for a in w) - proj * proj)))
        return worst

    assert straightness(pts) <= 1e-8
    cat = CatenoidChart(1.0)
    assert straightness(characteristic_ray(cat, (0.7, 0.4), 2.0, 64)) <= 1e-6
    vp = VerticalPlaneChart(domain=((-3, 3), (-3, 3)))
    ray = characteristic_ray(vp, (0.2, 0.5), 1.0, 10)
    assert max(abs(p.x) for p in ray) == 0.0
    assert max(abs(p.t - ray[0].t) for p in ray) <= 1e-12


def test_ray_stops_at_singular():
    hel = HelicoidChart(2.0)
    with pytest.raises(StoppedAtSingular):
        characteristic_ray(hel, (0.45, 0.0), 0.2, 40)


def test_singular_locus():
    hel = HelicoidChart(2.0)
    loc = singular_locus(hel, (10, 6))
    assert loc.points
    assert max(abs(abs(p[0]) - 0.5) for p in loc.points) <= 1e-8
    assert loc.cells == sorted(loc.cells)

    cat = singular_locus(CatenoidChart(1.0), (8, 8))
    assert cat.cells == [] and cat.points == []

    par = singular_locus(ParaboloidChart(), (9, 9))
    assert par.points
    assert max(abs(p[0]) for p in par.points) <= 1e-8


def test_singular_locus_reports_no_point_off_the_locus():
    # N_h turns by more than a right angle between these grid nodes, along
    # theta on the catenoid and along eps on the helicoids, off the locus
    cat = singular_locus(CatenoidChart(1.0), (3, 8))
    assert cat.cells == [] and cat.points == []
    for chart in (HelicoidChart(2.0), rotated(HelicoidChart(2.0), 0.3)):
        loc = singular_locus(chart, (10, 3))
        assert len(loc.points) == 8
        assert max(abs(abs(p[0]) - 0.5) for p in loc.points) <= 1e-12


@pytest.mark.parametrize("chart, grid, message", [
    (HelicoidChart(2.0), (0, 5), r"grid entries must be positive ints, not \(0, 5\)$"),
    (HelicoidChart(2.0), (-2, 3), r"grid entries must be positive ints, not \(-2, 3\)$"),
    (HelicoidChart(2.0), (4.0, 3), r"grid entries must be positive ints, not \(4\.0, 3\)$"),
    (CatenoidRulingChart(1.0), (4, 4), r"singular_locus needs a bounded domain, not "
                                       r"\(\(-inf, inf\), \(-3\.14159"),
], ids=["zero", "negative", "float", "unbounded"])
def test_singular_locus_refuses_a_bad_grid_or_an_unbounded_domain(chart, grid, message):
    with pytest.raises(ValueError, match=message):
        singular_locus(chart, grid)


def test_ruled_coordinates():
    vp = VerticalPlaneChart(domain=((-4, 4), (-4, 4)))
    rv = ruled_coordinates(vp, (0.3, -0.2), 0.8, (-1.5, 1.5))
    assert max(abs(rv.point(s, a).x) for a in (-0.7, 0.0, 0.5)
               for s in (-1.2, 0.0, 1.0)) <= 1e-12

    cat = CatenoidChart(1.0)
    rc = ruled_coordinates(cat, cat.locate(Point(math.sqrt(2.0), 0.0, 1.0)),
                           1.0, (-3, 3))
    worst = max(abs(cat.implicit_residual(rc.point(s, a)))
                for a in (-0.9, -0.3, 0.2, 0.8) for s in (-2.5, -1.0, 0.5, 2.0))
    assert worst <= 1e-6

    # frames computed through the FD jets agree with the base-chart frames
    p = rc.point(1.3, 0.4)
    fr_ruled = surface_frame(rc, (1.3, 0.4))
    fr_base = surface_frame(cat, cat.locate(p))
    assert abs(abs(fr_ruled.NT) - abs(fr_base.NT)) <= 1e-6
    assert abs(fr_ruled.Nh_norm - fr_base.Nh_norm) <= 1e-6
    assert abs(fr_ruled.BZS - fr_base.BZS) <= 1e-4
    assert abs(fr_ruled.H) <= 1e-5


def test_catalog_factory():
    assert isinstance(catalog_surface("helicoid", R=2.0), HelicoidChart)
    assert isinstance(catalog_surface("catenoid", lam=1.0), CatenoidChart)
    assert isinstance(catalog_surface("vertical_plane"), VerticalPlaneChart)
    with pytest.raises(ValueError):
        catalog_surface("sphere")


def test_degenerate_chart_rejected():
    class Bad(Chart):
        def _jet_parts(self, u1, u2, m):
            zero = (0.0, 0.0, 0.0)
            return (u1, u2, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), zero, zero, zero

    with pytest.raises(NonFiniteValue):
        surface_frame(Bad(), (0.0, 0.0))


def _dot(u, v):
    # the metric on frame coefficients: the frame X, Y, T is orthonormal
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def test_frame_relations_invariants():
    for chart, u in ((CatenoidChart(1.0), (1.1, 0.6)),
                     (HelicoidChart(1.0), (0.4, -0.7)),
                     (ParaboloidChart(), (0.8, 0.5))):
        fr = surface_frame(chart, u)
        assert abs(fr.Nh_norm ** 2 + fr.NT ** 2 - 1.0) <= 1e-12
        assert abs(math.sqrt(_dot(fr.N, fr.N)) - 1.0) <= 1e-12
        assert abs(_dot(fr.Z, fr.S)) <= 1e-12
        assert abs(math.sqrt(_dot(fr.Z, fr.Z)) - 1.0) <= 1e-12
        assert abs(math.sqrt(_dot(fr.S, fr.S)) - 1.0) <= 1e-12
        assert fr.Z[2] == 0.0
        # Z, S tangent: orthogonal to N
        assert abs(_dot(fr.Z, fr.N)) <= 1e-12
        assert abs(_dot(fr.S, fr.N)) <= 1e-12
        assert abs(2.0 * fr.H * fr.Nh_norm - fr.BZZ) <= 1e-12
        assert abs(fr.HR - 0.5 * (fr.BZZ + fr.BSS)) <= 1e-12


@pytest.mark.parametrize("h", [1e-2, 1e-6, 1e-10, 1e-14])
def test_taylor_unit_normal_matches_mpmath(h):
    # n = v/|v| on Taylor numbers v + t v' + t^2 v''/2 with |v_h| = h, as next
    # to a singular curve, where n -> (0, 0, -1): every term of every entry
    # is within 1e-15 relative of mpmath's at 50 digits on the same terms.
    # The product (1/w) v on Taylor numbers is off in the derivative term of
    # n_c by 1.3e-10 at h = 1e-6 and by 3.8e-3 at 1e-14.
    terms = [(0.6 * h, -1.9, 0.3), (-0.8 * h, 0.4, -0.7), (-1.0, -2.0, 0.5)]
    v = [Taylor(*t) for t in terms]
    n = surfaces._unit_normal(v, taylor.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]), taylor)

    def entry(i):
        def f(t):
            vt = [mp.mpf(a) + mp.mpf(b) * t + mp.mpf(c) * t * t for a, b, c in terms]
            return vt[i] / mp.sqrt(vt[0] ** 2 + vt[1] ** 2 + vt[2] ** 2)
        return f

    with mp.workdps(50):
        for i in range(3):
            for got, want in zip((n[i].c0, n[i].c1, n[i].c2), mp.taylor(entry(i), 0, 2)):
                assert abs(got - want) <= 1e-15 * abs(want), (i, got, want)
