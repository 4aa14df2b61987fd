"""The batched frame kernel against its scalar view, and the quadrature
rule it runs on."""

import math
import re
import warnings

import numpy as np
import pytest

from h1geom import numerics, stability, surfaces, verify
from h1geom.core import FrameVector, Point
from h1geom.errors import GeometryError, NonFiniteValue, SingularPoint, StoppedAtSingular
from h1geom.geodesics import GeodesicArc, exp_euclidean, exp_geodesic, exp_geodesics
from h1geom.numerics import QuadratureSpec, gauss_nodes, integrate_2d
from h1geom.stability import cosine_bump, index_form_I, separable, smooth_bump, times_nh
from h1geom.surfaces import (CatenoidChart, CatenoidRulingChart, Chart, GraphChart,
                             HelicoidChart, ParaboloidChart, PlaneChart, VerticalPlaneChart, area,
                             area_element, area_elements, catalog_surface, _chart_velocity,
                             dilated, ruled_coordinates, rotated, surface_frame, surface_frames,
                             translated)
from referees import combined_normal_component

SCALAR_FIELDS = ("Nh_norm", "NT", "riem_area", "BZZ", "BZS", "BSS", "H", "HR", "q")
PAIR_FIELDS = ("z_chart", "s_chart", "dNh", "dNT")


def _charts():
    cat = CatenoidChart(1.0)
    return {
        "vertical_plane": (catalog_surface("vertical_plane"), ((-1, 1), (-1, 1))),
        "plane": (catalog_surface("plane", a=0.4, b=-0.7, c=0.3), ((-1, 1), (-1, 1))),
        "paraboloid": (catalog_surface("paraboloid"), ((0.2, 1.5), (-1.0, 1.3))),
        "helicoid": (catalog_surface("helicoid", R=2.0), ((-0.45, 0.45), (-1.5, 1.5))),
        "catenoid": (catalog_surface("catenoid", lam=1.0), ((0.0, 6.2), (-1.4, 1.4))),
        "dilated": (dilated(HelicoidChart(1.0), 0.3), ((-0.9, 0.9), (-3.0, 3.0))),
        "rotated": (rotated(cat, 1.234), ((0.0, 6.2), (-1.4, 1.4))),
        "translated": (translated(cat, Point(0.3, -0.8, 1.1)), ((0.0, 6.2), (-1.4, 1.4))),
        "ruled": (ruled_coordinates(cat, cat.locate(Point(math.sqrt(2.0), 0.0, 1.0)),
                                    0.5, (-1.0, 1.0)), ((-0.9, 0.9), (-0.4, 0.4))),
    }


def _sample(rect, n, seed):
    rng = np.random.default_rng(seed)
    (a1, b1), (a2, b2) = rect
    return rng.uniform(a1, b1, n), rng.uniform(a2, b2, n)


def _assert_close(got, want, what):
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (what, got, want)


@pytest.mark.parametrize("name", list(_charts()))
def test_surface_frames_match_scalar_view(name):
    chart, rect = _charts()[name]
    U1, U2 = _sample(rect, 40, 7)
    fb = surface_frames(chart, U1, U2)
    assert fb.regular.all()
    dens = area_elements(chart, U1, U2)
    for i, u in enumerate(zip(U1.tolist(), U2.tolist())):
        fr = surface_frame(chart, u)
        for f in SCALAR_FIELDS:
            _assert_close(getattr(fb, f)[i], getattr(fr, f), f)
        for f in PAIR_FIELDS:
            for k in range(2):
                _assert_close(getattr(fb, f)[k][i], getattr(fr, f)[k], f)
        for f in ("N", "points", "nu_h", "Z", "S"):
            for k in range(3):
                _assert_close(getattr(fb, f)[k][i], getattr(fr, f)[k], f)
        _assert_close(dens[i], area_element(chart, u), "area_element")


def _one_point_cases():
    """Every catalog chart and two more seed charts, at the verify grid
    points, all regular."""
    grids = verify._GRID
    return {"vertical_plane": (VerticalPlaneChart(), grids["plane"]),
            "plane": (PlaneChart(0.4, -0.7, 0.3), grids["plane"]),
            "paraboloid": (ParaboloidChart(), grids["paraboloid"]),
            "helicoid": (HelicoidChart(2.0), grids["helicoid"]),
            "helicoid R=1": (HelicoidChart(1.0), grids["helicoid"]),
            "catenoid": (CatenoidChart(1.0), grids["catenoid"]),
            "catenoid_ruling": (CatenoidRulingChart(-2.5), grids["helicoid"])}


def _entries(fr):
    """Every entry of a frame package as a flat list of (name, value)."""
    triples = {"points": fr.points, "N": fr.N, "nu_h": fr.nu_h, "Z": fr.Z, "S": fr.S,
               "c1": fr.tangents[0], "c2": fr.tangents[1],
               "dN1": fr.normal_partial(0), "dN2": fr.normal_partial(1)}
    triples.update((f, getattr(fr, f)) for f in PAIR_FIELDS)
    return ([(f, getattr(fr, f)) for f in SCALAR_FIELDS]
            + [(f"{f}[{k}]", v[k]) for f, v in triples.items() for k in range(len(v))])


class _FloatJet(Chart):
    """``base`` whose jet at a batch of one point is its float jet, as
    arrays: the batch reads the bits of the scalar jet, where numpy's and
    math's cos or cosh may differ in the last bit."""

    def __init__(self, base):
        self.base, self.domain = base, base.domain

    def _jet_parts(self, u1, u2, m):
        if m is math:
            return self.base._jet_floats(u1, u2)
        (v1,), (v2,) = u1.tolist(), u2.tolist()
        return tuple(tuple(np.array([c]) for c in v) for v in self.base._jet_floats(v1, v2))


@pytest.mark.parametrize("name", list(_one_point_cases()))
def test_scalar_frame_is_the_batch_of_its_one_point(name):
    # from one jet, the scalar view is the package of a batch of its one
    # point bit for bit, with a float for each entry
    chart, points = _one_point_cases()[name]
    for u in points:
        one, many = surface_frame(chart, u), surface_frames(_FloatJet(chart), [u[0]], [u[1]])
        assert bool(one.regular) and many.regular.tolist() == [True]
        got, want = _entries(one), _entries(many)
        assert [f for f, _ in got] == [f for f, _ in want]
        for (f, a), (_, b) in zip(got, want):
            assert type(a) is float, (f, u, type(a))
            assert a.hex() == float(b[0]).hex(), (f, u, a, b)


@pytest.mark.parametrize("name", list(_charts()))
def test_normal_partials_are_the_chart_derivatives_of_n(name):
    # the 2-jet formula against a central difference of the frames' own N;
    # the ruled chart's jet is itself differenced along its walked curve
    chart, rect = _charts()[name]
    U1, U2 = _sample(rect, 40, 11)
    fb = surface_frames(chart, U1, U2)
    h, tol = 1e-5, 1e-6 if name == "ruled" else 1e-8
    for j, (d1, d2) in enumerate(((h, 0.0), (0.0, h))):
        plus = surface_frames(chart, U1 + d1, U2 + d2).N
        minus = surface_frames(chart, U1 - d1, U2 - d2).N
        for k, got in enumerate(fb.normal_partial(j)):
            assert np.abs(got - (plus[k] - minus[k]) / (2.0 * h)).max() <= tol, (j, k)


def _graph_cases():
    # t = x|x| + y^2: partials that branch on the sign of x
    branching = GraphChart(lambda x, y: x * abs(x) + y * y,
                           lambda x, y: 2.0 * x if x > 0 else -2.0 * x,
                           lambda x, y: 2 * y,
                           lambda x, y: 2.0 if x > 0 else -2.0,
                           lambda x, y: 0.0, lambda x, y: 2.0)
    # t = |(x, y)|: the value reduces over its arguments with a norm
    cone = GraphChart(lambda x, y: float(np.linalg.norm([x, y])),
                      lambda x, y: x / np.linalg.norm([x, y]),
                      lambda x, y: y / np.linalg.norm([x, y]),
                      lambda x, y: y * y / np.linalg.norm([x, y]) ** 3,
                      lambda x, y: -x * y / np.linalg.norm([x, y]) ** 3,
                      lambda x, y: x * x / np.linalg.norm([x, y]) ** 3)
    # math.exp takes floats only
    bowl = GraphChart(lambda x, y: math.exp(x) + y * y, lambda x, y: math.exp(x),
                      lambda x, y: 2 * y, lambda x, y: math.exp(x), lambda x, y: 0.0,
                      lambda x, y: 2.0)
    return {"floats_only": (bowl, ((0.3, 1.0), (-1.0, 1.0))),
            "branching": (branching, ((-1.0, 1.0), (-1.0, 1.0))),
            "cone": (cone, ((0.3, 1.2), (0.2, 1.1)))}


@pytest.mark.parametrize("name", list(_graph_cases()))
def test_graph_partials_on_floats(name):
    chart, rect = _graph_cases()[name]
    U1, U2 = _sample(rect, 30, 13)
    fb = surface_frames(chart, U1, U2, singular_ok=True)
    dens = area_elements(chart, U1, U2)
    for i, u in enumerate(zip(U1.tolist(), U2.tolist())):
        if fb.regular[i]:
            fr = surface_frame(chart, u)
            for f in SCALAR_FIELDS:
                _assert_close(getattr(fb, f)[i], getattr(fr, f), f)
        else:  # the scalar view raises there; the batch's shape terms are NaN
            with pytest.raises(SingularPoint):
                surface_frame(chart, u)
            assert all(math.isnan(getattr(fb, f)[i]) for f in SCALAR_FIELDS[3:])
        _assert_close(dens[i], area_element(chart, u), "area_element")
    quad = QuadratureSpec(4, (2, 2))
    _assert_close(area(chart, rect, quad),
                  integrate_2d(lambda a, b: area_element(chart, (a, b)), rect, quad), "area")


def _eager_frames(chart, U1, U2, singular_ok):
    """The shape terms as ``surface_frames`` computed them before they were
    deferred: from the frame head, all at once, NaN at singular points."""
    jet, c1, c2, w, n, nh = surfaces._frame_heads(chart, U1, U2, singular_ok)
    with np.errstate(all="ignore"):
        *terms, zc, sc = surfaces._shape_terms(
            jet.p[0], jet.p[1], jet.f1, jet.f2, jet.f11, jet.f12, jet.f22, c1, c2, w, n, nh)
    out = [*terms, *zc, *sc]
    singular = nh <= surfaces.SINGULAR_TOL
    if singular.any():
        out = [np.where(singular, np.nan, a) for a in out]
    return dict(zip(["BZZ", "BZS", "BSS", "H", "HR", "q", "z1", "z2", "s1", "s2"], out))


def _shape_entries(fb):
    return dict(zip(["BZZ", "BZS", "BSS", "H", "HR", "q"],
                    (getattr(fb, f) for f in SCALAR_FIELDS[3:])),
                z1=fb.z_chart[0], z2=fb.z_chart[1], s1=fb.s_chart[0], s2=fb.s_chart[1])


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("name", ["vertical_plane", "plane", "paraboloid", "helicoid",
                                  "catenoid", "graph"])
def test_deferred_shape_terms_are_the_eager_ones(name):
    charts = _charts()
    chart, rect = (_graph_cases()["floats_only"] if name == "graph" else charts[name])
    U1, U2 = _sample(rect, 40, 11)
    fb = surface_frames(chart, U1, U2)
    other = surface_frames(charts["helicoid"][0], U1 * 0.1, U2 * 0.1)  # framed in between
    want = _eager_frames(chart, U1, U2, False)
    got = _shape_entries(fb)
    assert not np.isnan(got["q"]).any()
    assert {k: _bits(v) for k, v in got.items()} == {k: _bits(v) for k, v in want.items()}
    assert _bits(other.q) == _bits(_eager_frames(charts["helicoid"][0], U1 * 0.1, U2 * 0.1,
                                                 False)["q"])


def test_deferred_shape_terms_are_nan_across_the_singular_line():
    chart = ParaboloidChart()
    U1, U2 = (a.ravel() for a in np.meshgrid(np.linspace(-1.0, 1.0, 9), [-0.7, 0.2, 0.9]))
    fb = surface_frames(chart, U1, U2, singular_ok=True)
    on_line = U1 == 0.0
    assert (fb.regular == ~on_line).all() and on_line.sum() == 3
    got = _shape_entries(fb)
    assert {k: _bits(v) for k, v in got.items()} == \
        {k: _bits(v) for k, v in _eager_frames(chart, U1, U2, True).items()}
    # the partials of |N_h| and <N,T>, read off normal_partial, are NaN there too
    for v in (*got.values(), *fb.dNh, *fb.dNT):
        assert np.isnan(v[on_line]).all() and not np.isnan(v[~on_line]).any()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # NaN at singular points, and no warning
def test_singular_semantics_helicoid():
    chart = HelicoidChart(2.0)
    U1 = np.array([0.1, 0.5, -0.5, 0.3])
    U2 = np.array([0.2, 0.4, -0.7, 0.0])
    for s, e in ((0.5, 0.4), (-0.5, -0.7)):
        with pytest.raises(SingularPoint):
            surface_frame(chart, (s, e))
        assert math.isnan(surface_frames(chart, [s], [e], singular_ok=True).q[0])
    with pytest.raises(SingularPoint, match=r"at \(0\.5, 0\.4\)"):
        surface_frames(chart, U1, U2)
    fb = surface_frames(chart, U1, U2, singular_ok=True)
    assert fb.regular.tolist() == [True, False, False, True]
    for f in SCALAR_FIELDS[3:]:
        vals = getattr(fb, f)
        assert math.isnan(vals[1]) and math.isnan(vals[2]) and not math.isnan(vals[0])
    for f in PAIR_FIELDS + ("nu_h", "Z", "S"):
        assert all(math.isnan(c[1]) and math.isnan(c[2]) and not math.isnan(c[0])
                   for c in getattr(fb, f))
    assert fb.Nh_norm[1] <= 1e-9 and fb.riem_area[1] > 0.0
    scalar = surface_frame(chart, (0.3, 0.0))
    assert fb.q[3] == pytest.approx(scalar.q, abs=1e-13)


def test_nonfinite_and_nonimmersion_rejected():
    with pytest.raises(NonFiniteValue):
        surface_frames(CatenoidChart(1.0), np.array([0.1, math.nan]), np.array([0.0, 0.0]))

    class Fold(Chart):
        def _jet_parts(self, u1, u2, m):
            zero = (0.0, 0.0, 0.0)
            return (u1, u2, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), zero, zero, zero

    with pytest.raises(NonFiniteValue, match="not an immersion"):
        surface_frame(Fold(), (0.1, 0.2))
    with pytest.raises(NonFiniteValue, match=r"not an immersion at \(0\.1, 0\.2\)"):
        surface_frames(Fold(), np.array([0.1]), np.array([0.2]))


def _error_of(call):
    """(type, message) of the error ``call()`` raises, or None."""
    try:
        call()
    except GeometryError as exc:
        return type(exc), str(exc)
    return None


def _planted_frame_cases():
    """(chart, a good chart point, bad chart points of every kind the
    scalar view checks)."""
    return [(CatenoidChart(1.0), (1.0, 0.2),  # non-finite, overflow, no immersion
             [(math.nan, 0.1), (0.0, 1000.0), (0.0, 332.3333333333333)]),
            (HelicoidChart(2.0), (0.1, 0.3),  # non-finite, singular
             [(0.2, math.inf), (0.5, 0.4)]),
            (_overflowing_graph(), (0.3, 0.5),  # non-finite, singular, the jet's overflow
             [(math.nan, 0.1), (0.0, 0.5), (0.3, 1000.0)])]


def _overflowing_graph():
    # t = xy + 0 exp(y): stacked jets, and math.exp overflows at y = 1000
    return GraphChart(lambda x, y: x * y + 0.0 * math.exp(y), lambda x, y: y,
                      lambda x, y: x + 0.0 * math.exp(y), lambda x, y: 0.0,
                      lambda x, y: 1.0, lambda x, y: 0.0)


def test_stacked_jet_errors_wait_for_earlier_points():
    # the second point's jet overflows, but the first one is already singular
    # (surface_frames) or not finite (area_elements)
    chart = _overflowing_graph()
    with pytest.raises(SingularPoint):
        surface_frame(chart, (0.0, 0.5))
    with pytest.raises(SingularPoint, match=re.escape("at (0.0, 0.5)")):
        surface_frames(chart, [0.0, 0.3], [0.5, 1000.0])
    with pytest.raises(NonFiniteValue, match=re.escape("non-finite point at (0.3, 1000.0)")):
        surface_frames(chart, [0.3, 0.0], [1000.0, 0.5])
    with pytest.raises(NonFiniteValue, match=re.escape("non-finite tangent plane at (nan, 0.5)")):
        area_elements(chart, [math.nan, 0.3], [0.5, 1000.0])
    for call in (lambda: area_element(chart, (0.3, 1000.0)),
                 lambda: area_elements(chart, [0.2, 0.3, math.nan], [0.5, 1000.0, 0.5])):
        with pytest.raises(NonFiniteValue,
                           match=re.escape("non-finite tangent plane at (0.3, 1000.0)")):
            call()
    # through an affine map the stacked error keeps its place
    with pytest.raises(SingularPoint):
        surface_frames(dilated(chart, 0.3), [0.0, 0.3], [0.5, 1000.0])

    def phi(x, y):  # stacked jets that raise an error of their own
        if y > 100.0:
            raise StoppedAtSingular(f"no jet at {(x, y)!r}")
        return x * y

    stops = GraphChart(phi, lambda x, y: y, lambda x, y: x, lambda x, y: 0.0,
                       lambda x, y: 1.0, lambda x, y: 0.0)
    for call in (lambda: surface_frames(stops, [0.3, 0.0], [1000.0, 0.5]),
                 lambda: area_elements(stops, [0.3, math.nan], [1000.0, 0.5])):
        with pytest.raises(StoppedAtSingular, match=re.escape("no jet at (0.3, 1000.0)")):
            call()
    with pytest.raises(SingularPoint):
        surface_frames(stops, [0.0, 0.3], [0.5, 1000.0])


def test_math_domain_errors_are_nonfinite_values():
    # math.sin(inf) raises ValueError where numpy returns NaN: the scalar jet
    # reports it as the array views do
    hel = HelicoidChart(1e300)
    message = re.escape("non-finite point at (0.0, 10000000000.0)")
    for call in (lambda: surface_frame(hel, (0.0, 1e10)),
                 lambda: surface_frames(hel, [0.0], [1e10])):
        with pytest.raises(NonFiniteValue, match=message):
            call()
    with pytest.raises(NonFiniteValue):
        area_element(hel, (0.0, 1e10))

    # a stacked jet's domain error waits for an earlier failing point
    def root(x, y):
        return 0.0 * math.sqrt(y)

    chart = GraphChart(lambda x, y: x * y + root(x, y), lambda x, y: y,
                       lambda x, y: x + root(x, y), lambda x, y: 0.0,
                       lambda x, y: 1.0, lambda x, y: 0.0)
    with pytest.raises(NonFiniteValue, match=re.escape("non-finite point at (0.3, -1.0)")):
        surface_frame(chart, (0.3, -1.0))
    with pytest.raises(SingularPoint, match=re.escape("at (0.0, 0.5)")):
        surface_frames(chart, [0.0, 0.3], [0.5, -1.0])
    with pytest.raises(NonFiniteValue, match=re.escape("non-finite point at (0.3, -1.0)")):
        surface_frames(chart, [0.3, 0.0], [-1.0, 0.5])
    with pytest.raises(NonFiniteValue, match=re.escape("non-finite tangent plane at (nan, 0.5)")):
        area_elements(chart, [math.nan, 0.3], [0.5, -1.0])


def test_frames_agree_where_a_shape_term_overflows():
    # <B(Z),S> is about -7e199 at (0.3, 0.5), so (<B(Z),S> + 1)^2 overflows:
    # both views give q = inf, and the ruled chart, which reads no shape
    # term, still places its points
    K = 1e200
    chart = GraphChart(lambda x, y: x * y + K * (x - 0.3) * (y - 0.5),
                       lambda x, y: y + K * (y - 0.5), lambda x, y: x + K * (x - 0.3),
                       lambda x, y: 0.0, lambda x, y: 1.0 + K, lambda x, y: 0.0)
    one = surface_frame(chart, (0.3, 0.5))
    many = surface_frames(chart, [0.3], [0.5])
    assert one.q == math.inf and many.q.tolist() == [math.inf]
    assert one.BZS == many.BZS[0] and one.H == many.H[0]
    rc = ruled_coordinates(chart, (0.3, 0.5), 0.01, (-0.1, 0.1))
    assert rc.point(0.05, 0.0) == Point(0.35, 0.5, 0.175)


@pytest.mark.parametrize("name", ["helicoid", "graph", "ruled", "dilated"])
def test_parameter_arrays_of_two_shapes_are_refused(name):
    cat = CatenoidChart(1.0)
    chart = {"helicoid": HelicoidChart(2.0), "graph": _overflowing_graph(),
             "ruled": ruled_coordinates(cat, (0.5, 0.5), 0.1, (-1.0, 1.0)),
             "dilated": dilated(HelicoidChart(2.0), 0.3)}[name]
    for call in (surface_frames, area_elements, lambda c, U1, U2: c.jets(U1, U2)):
        with pytest.raises(ValueError, match="parameter arrays must have one shape"):
            call(chart, [0.1, 0.2], [0.3])


def _planted(good, bads):
    """Batches of shape (5,) and (3, 4) of ``good`` with each of ``bads``
    first, in the middle or last, and the next bad one at the end after it."""
    for shape in ((5,), (3, 4)):
        n = math.prod(shape)
        for where in (0, n // 2, n - 1):
            for j, bad in enumerate(bads):
                U1, U2 = np.full(n, good[0]), np.full(n, good[1])
                U1[where], U2[where] = bad
                if where < n - 1:
                    U1[-1], U2[-1] = bads[(j + 1) % len(bads)]
                yield U1.reshape(shape), U2.reshape(shape)


def _scalar_first_error(chart, U1, U2, singular_ok):
    """(type, message) of the scalar view's error at the first failing point
    of (U1, U2) in row-major order, or None; with ``singular_ok`` a singular
    point, which passed every other check, is no failure."""
    for u in zip(U1.ravel().tolist(), U2.ravel().tolist()):
        error = _error_of(lambda: surface_frame(chart, u))
        if error is not None and not (singular_ok and error[0] is SingularPoint):
            return error
    return None


def test_surface_frames_fail_at_first_point_in_row_major_order():
    # on this grid cosh(1000) overflows, but (0, 332.3...) already is no
    # immersion; a non-finite sample after that point must not win either
    chart = CatenoidChart(1.0)
    u1 = np.linspace(0.0, 2.0 * math.pi, 4)
    u2 = -1.5 + (1000.0 + 1.5) * np.arange(4) / 3
    U1, U2 = np.repeat(u1, 4), np.tile(u2, 4)
    for V1, V2 in ((U1, U2), (np.append(U1[:3], 0.5), np.append(U2[:3], math.nan))):
        kind, message = _scalar_first_error(chart, V1, V2, True)
        assert (kind, message) == (NonFiniteValue,
                                   "chart is not an immersion at (0.0, 332.3333333333333)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(kind, match=re.escape(message)):
                surface_frames(chart, V1, V2, singular_ok=True)
    # one bad point first, in the middle or last, on 1-D and 2-D batches, and
    # a bad point of another kind after it: the scalar loop's first error
    for chart, good, bads in _planted_frame_cases():
        for U1, U2 in _planted(good, bads):
            for singular_ok in (False, True):
                want = _scalar_first_error(chart, U1, U2, singular_ok)
                assert want is not None or singular_ok
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert _error_of(lambda: surface_frames(chart, U1, U2, singular_ok)) == want


def test_surface_frames_overflow_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue):
            surface_frames(HelicoidChart(1e-300), np.array([-2e300]), np.array([-3e300]))


def test_scalar_and_batched_frames_raise_the_same_overflow_error():
    # cosh(1000) raises OverflowError on floats; 1e308 * 10 is inf without raising
    plane = PlaneChart(1e308, 0.0, 0.0, domain=((-100.0, 100.0), (-1.0, 1.0)))
    for chart, u in ((CatenoidChart(1.0), (0.0, 1000.0)), (plane, (10.0, 0.0))):
        outcomes = []
        for call in (lambda: surface_frame(chart, u),
                     lambda: _chart_velocity(chart, u, "Z"),
                     lambda: surface_frames(chart, np.array([u[0]]), np.array([u[1]]))):
            with pytest.raises(NonFiniteValue) as info:
                call()
            outcomes.append((type(info.value), str(info.value)))
        assert outcomes == [(NonFiniteValue, f"non-finite point at {u!r}")] * 3, chart


@pytest.mark.parametrize("chart, u", [(CatenoidChart(1.0), (math.inf, 0.0)),
                                      (HelicoidChart(2.0), (0.1, math.nan))])
def test_scalar_and_batched_frames_reject_a_non_finite_chart_point(chart, u):
    outcomes = []
    for call in (lambda: surface_frame(chart, u),
                 lambda: _chart_velocity(chart, u, "S"),
                 lambda: surface_frames(chart, np.array([u[0]]), np.array([u[1]]))):
        with pytest.raises(NonFiniteValue) as info:
            call()
        outcomes.append((type(info.value), str(info.value)))
    assert outcomes == [(NonFiniteValue, f"non-finite chart point {u!r}")] * 3


@pytest.mark.parametrize("transform", [lambda c: dilated(c, 0.5), lambda c: rotated(c, 0.7),
                                       lambda c: translated(c, Point(0.3, -0.8, 1.1))],
                         ids=["dilated", "rotated", "translated"])
def test_affine_maps_of_a_stacked_base_name_its_non_finite_point(transform):
    # t = inf at (0.3, 0.5): every view names the base point, not its image
    # under the map, where 0 * inf makes x and y nan
    def phi(x, y):
        return math.inf if (x, y) == (0.3, 0.5) else x * y

    chart = transform(GraphChart(phi, lambda x, y: y, lambda x, y: x, lambda x, y: 0.0,
                                 lambda x, y: 1.0, lambda x, y: 0.0))
    for call in (lambda: surface_frame(chart, (0.3, 0.5)),
                 lambda: _chart_velocity(chart, (0.3, 0.5), "S"),
                 lambda: chart.jet(0.3, 0.5),
                 lambda: surface_frames(chart, [0.1, 0.3], [0.2, 0.5])):
        with pytest.raises(NonFiniteValue, match=re.escape("non-finite point at (0.3, 0.5)")):
            call()


def _graph_chart():
    return GraphChart(lambda x, y: x * y, lambda x, y: y, lambda x, y: x,
                      lambda x, y: 0.0, lambda x, y: 1.0, lambda x, y: 0.0)


@pytest.mark.parametrize("name", ["graph", "ruled", "dilated_graph"])
def test_stacked_jets_of_an_empty_batch(name):
    cat = CatenoidChart(1.0)
    chart = {"graph": _graph_chart(),
             "ruled": ruled_coordinates(cat, cat.locate(Point(math.sqrt(2.0), 0.0, 1.0)),
                                        0.5, (-1.0, 1.0)),
             "dilated_graph": dilated(_graph_chart(), 0.3)}[name]
    for shape in ((0,), (0, 3)):
        fr = surface_frames(chart, np.zeros(shape), np.zeros(shape))
        assert all(a.shape == shape for a in (*fr.points, fr.Nh_norm, fr.q, *fr.z_chart))


def test_exp_geodesics_match_scalar():
    p0 = Point(0.3, -0.2, 0.5)
    arc = GeodesicArc(p0, FrameVector(0.4, -1.1, 0.8, p0))
    S = np.concatenate((np.linspace(-3.0, 7.0, 101), [1e-6, -3e-5]))  # series branch too
    (x, y, t), v = exp_geodesics(arc, S)
    for i, s in enumerate(S.tolist()):
        q, vel = exp_geodesic(arc, s)
        for got, want in zip((x[i], y[i], t[i], *(c[i] for c in v)),
                             (*q.coords(), *vel.coeffs())):
            _assert_close(got, want, "exp_geodesics")


def test_exp_geodesics_nonfinite_raises_no_warning():
    p0 = Point(0.0, 0.0, 0.0)
    arc = GeodesicArc(p0, FrameVector(0.0, 0.0, 1e307, p0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match=r"at s = 100\.0"):  # 2 lambda s overflows
            exp_geodesics(arc, np.array([0.0, 1.0, 100.0, 200.0]))
        # first, in the middle or last, on 1-D and 2-D batches: the error of
        # a batch of one at the first bad parameter
        for S, _ in _planted((1.0, 1.0), [(100.0, 100.0), (-200.0, -200.0)]):
            first = next(s for s in S.ravel().tolist() if abs(s) >= 100.0)
            want = _error_of(lambda: exp_geodesics(arc, [first]))
            assert want == (NonFiniteValue, f"geodesic is not finite at s = {first!r}")
            assert _error_of(lambda: exp_geodesics(arc, S)) == want


def test_batch_split_invariance():
    chart = CatenoidChart(1.0)
    U1, U2 = _sample(((0.0, 6.2), (-1.4, 1.4)), 257, 11)
    whole = surface_frames(chart, U1, U2)
    for k in (1, 100, 256):
        a = surface_frames(chart, U1[:k], U2[:k])
        b = surface_frames(chart, U1[k:], U2[k:])
        for f in SCALAR_FIELDS:
            joined = np.concatenate((getattr(a, f), getattr(b, f)))
            assert np.array_equal(joined, getattr(whole, f)), f
        for f in PAIR_FIELDS + ("N", "points"):
            for ca, cb, cw in zip(getattr(a, f), getattr(b, f), getattr(whole, f)):
                assert np.array_equal(np.concatenate((ca, cb)), cw), f


def test_exp_euclidean_batch_matches_scalar():
    rng = np.random.default_rng(5)
    p = tuple(rng.uniform(-2, 2, 50) for _ in range(3))
    v = tuple(rng.uniform(-1.5, 1.5, 50) for _ in range(3))
    # zero vertical momentum on five points: the small-argument series branch
    v[2][:5] = v[0][:5] * p[1][:5] - v[1][:5] * p[0][:5]
    (moved,) = exp_euclidean(p, v, [0.7])
    for i in range(50):
        (want,) = exp_euclidean(tuple(c[i] for c in p), tuple(c[i] for c in v), [0.7])
        for k in range(3):
            _assert_close(moved[k][i], want[k], "exp_euclidean")


def test_gauss_nodes_layout():
    spec = QuadratureSpec(4, (2, 3))
    U1, U2, W = gauss_nodes(((0.0, 1.0), (-1.0, 2.0)), spec)
    assert U1.shape == U2.shape == W.shape == (6, 16)
    # row c1 * n2 + c2 is cell (c1, c2); nodes run row-major inside it
    assert U1[0].max() < 0.5 < U1[3].min()
    assert U2[0].max() < 0.0 < U2[1].min() and U2[1].max() < 1.0 < U2[2].min()
    assert U1[0][0] == U1[0][3] and U2[0][0] != U2[0][1]
    assert math.fsum(W.ravel().tolist()) == pytest.approx(3.0, abs=1e-14)
    empty = gauss_nodes(((0.0, 0.0), (0.0, 1.0)), spec)
    assert all(a.size == 0 for a in empty)
    with pytest.raises(ValueError):
        gauss_nodes(((1.0, 0.0), (0.0, 1.0)), spec)


def test_integrate_2d_pinned_bitwise():
    # values of the scalar-loop rule, kept bit for bit by the node arrays
    cases = [
        (lambda a, b: math.sin(3 * a) * math.exp(-b) + a * b,
         ((0.0, 2.0), (0.0, 1.0)), QuadratureSpec(16, (8, 8)), "0x1.022600ffd8f6fp+0"),
        (lambda a, b: math.cos(a - 2 * b) / (1.5 + a * a),
         ((-1.3, 0.7), (0.25, 2.0)), QuadratureSpec(8, (3, 5)), "-0x1.700fa77d81c76p-1"),
        (lambda a, b: a ** 3 * b - b ** 2,
         ((-0.1, 0.1), (-3.0, -2.5)), QuadratureSpec(32, (1, 2)), "-0x1.8444444444445p-1"),
    ]
    for f, rect, spec, pinned in cases:
        assert integrate_2d(f, rect, spec).hex() == pinned


def test_separable_jet_matches_scalar_profiles():
    # the products of the scalar profile calls that ``separable`` made
    p1, p2 = cosine_bump(1.5, 0.7), smooth_bump(0.3, 0.5)
    f = separable(p1, p2)
    U1, U2 = _sample(((0.7, 2.3), (-0.3, 0.9)), 200, 3)
    want = ([p1.value(a) * p2.value(b) for a, b in zip(U1, U2)],
            [p1.deriv(a) * p2.value(b) for a, b in zip(U1, U2)],
            [p1.value(a) * p2.deriv(b) for a, b in zip(U1, U2)])
    for got, view, ref in zip(f.jet(U1, U2), (f.value, f.d1, f.d2), want):
        assert got.shape == U1.shape
        for g, a, b, r in zip(got.tolist(), U1, U2, ref):
            _assert_close(g, r, "separable jet")
            _assert_close(view(a, b), r, "scalar view")


def _scalar_times_nh(chart, f):
    """The scalar (value, d1, d2) of f |N_h| that ``times_nh`` had, verbatim."""

    def value(a, b):
        fv = f.value(a, b)
        if fv == 0.0:
            return 0.0
        return fv * surface_frame(chart, (a, b)).Nh_norm

    def make_d(i):
        def d(a, b):
            fv = f.value(a, b)
            dv = (f.d1 if i == 0 else f.d2)(a, b)
            if fv == 0.0 and dv == 0.0:
                return 0.0
            fr = surface_frame(chart, (a, b))
            return dv * fr.Nh_norm + fv * fr.dNh[i]
        return d

    return value, make_d(0), make_d(1)


def _scalar_combined(chart, v, w):
    """The scalar (value, d1, d2) of v + <N,T> w that
    ``combined_normal_component`` had, verbatim."""

    def value(a, b):
        wv = w.value(a, b)
        vv = v.value(a, b)
        if wv == 0.0:
            return vv
        return vv + surface_frame(chart, (a, b)).NT * wv

    def make_d(i):
        def d(a, b):
            dv = (v.d1 if i == 0 else v.d2)(a, b)
            wv = w.value(a, b)
            dw = (w.d1 if i == 0 else w.d2)(a, b)
            if wv == 0.0 and dw == 0.0:
                return dv
            fr = surface_frame(chart, (a, b))
            return dv + fr.dNT[i] * wv + fr.NT * dw
        return d

    return value, make_d(0), make_d(1)


def _pointwise(fns, like):
    """A test function with the support and kinks of ``like`` that calls the
    scalar ``fns`` = (value, d1, d2) node by node."""

    def jet(U1, U2, frames=None):
        pts = list(zip(np.ravel(U1).tolist(), np.ravel(U2).tolist()))
        return tuple(np.array([fn(a, b) for a, b in pts], dtype=float).reshape(np.shape(U1))
                     for fn in fns)

    return stability.TestFunction(jet, like.support, like.kinks)


def _composed_pairs(chart):
    """(array field, scalar reference) for ``times_nh`` and
    ``combined_normal_component`` built on ``chart``."""
    v = separable(cosine_bump(1.5, 0.7), cosine_bump(0.3, 0.5))
    w = separable(smooth_bump(1.5, 0.6), cosine_bump(0.35, 0.4))
    u, uc = times_nh(chart, v), combined_normal_component(chart, v, w)
    return [(u, _pointwise(_scalar_times_nh(chart, v), u)),
            (uc, _pointwise(_scalar_combined(chart, v, w), uc))]


def test_index_form_batch_hooks_match_scalar_callables():
    cat = CatenoidChart(1.0)
    quad = QuadratureSpec(8, (2, 2))
    for u, plain in _composed_pairs(cat):
        _assert_close(index_form_I(cat, u, u, quad), index_form_I(cat, plain, plain, quad),
                      "index form")


def test_batch_hooks_ignore_frames_of_another_chart():
    # fields built on one chart, integrated over another: they must not read
    # the integration chart's frames
    cat, other = CatenoidChart(1.0), CatenoidChart(1.3)
    quad = QuadratureSpec(8, (2, 2))
    for u, plain in _composed_pairs(other):
        _assert_close(index_form_I(cat, u, u, quad), index_form_I(cat, plain, plain, quad),
                      "index form")
        assert abs(index_form_I(cat, u, u, quad)
                   - index_form_I(other, u, u, quad)) > 1e-6


def _block_size_cases():
    """Named zero-argument integrals that run through ``integrate_cells``."""
    quad = QuadratureSpec(16, (8, 16))
    bowl, bowl_rect = _graph_cases()["floats_only"]
    hel = HelicoidChart(2.0)
    cases = {}
    for lam in (0.3, -2.5):
        ruled = CatenoidRulingChart(lam)
        u = times_nh(ruled, separable(cosine_bump(0.2, 1.5 * abs(lam)), cosine_bump(0.0, 1.0)))
        cases[f"index_form_I ruling lam={lam}"] = (
            lambda ruled=ruled, u=u: index_form_I(ruled, u, u, quad))
    hu = separable(cosine_bump(0.0, 0.4), cosine_bump(0.1, 1.3))
    cases["index_form_I helicoid"] = lambda: index_form_I(hel, hu, hu, quad)
    gu = separable(cosine_bump(0.65, 0.3), smooth_bump(0.0, 0.9))
    cases["index_form_I graph"] = lambda: index_form_I(bowl, gu, gu, QuadratureSpec(8, (4, 4)))
    cases["area catenoid"] = lambda: area(CatenoidChart(1.0), ((0.0, 6.2), (-1.4, 1.4)), quad)
    cases["area graph"] = lambda: area(bowl, bowl_rect, QuadratureSpec(32, (5, 3)))
    for lam in (1.0, -1.0):
        def nosing(lam=lam):
            cert = stability.certify_instability_nosing(lam)
            return cert.Q_value, cert.Q_value_doubled
        cases[f"nosing lam={lam}"] = nosing
    return cases


def test_integrate_cells_block_size_is_invisible(monkeypatch):
    # one cell per call at any points_per_cell (a cell-by-cell loop), a
    # quarter block, the default block, and one block per rectangle give
    # the same bits
    def hexes(result):
        return tuple(float(v).hex() for v in np.atleast_1d(result))

    runs = []
    for block in (1, 256, numerics.CELL_BLOCK_NODES, 1 << 30):
        monkeypatch.setattr(numerics, "CELL_BLOCK_NODES", block)
        runs.append({name: hexes(fn()) for name, fn in _block_size_cases().items()})
    assert runs[0] == runs[1] == runs[2] == runs[3]
    assert len(runs[0]) == 8
