import math
import warnings

import mpmath as mp
import pytest

from h1geom.core import FrameVector, ORIGIN, Point, dot, euclidean_to_frame
from h1geom.errors import NonFiniteValue
from h1geom.geodesics import (EPS_STEP, GeodesicArc,
                              covariant_derivative_along, exp_euclidean,
                              exp_geodesic, helpers_fgh,
                              jacobi_field, jacobi_fields, jacobi_residual,
                              straight_line_residual)
from h1geom.numerics import DiffSpec, central_diff


def test_fgh_special_values():
    f, g, h = helpers_fgh(0.0)
    assert (f, g, h) == (1.0, 0.0, 0.0)
    f, g, _ = helpers_fgh(math.pi)
    assert abs(f) <= 1e-16
    assert abs(g - 2.0 / math.pi) <= 1e-16


@pytest.mark.parametrize("x", [1e-4, -1e-4, 5e-5, 9.9e-5, 1.0001e-4, 2e-4, 0.5])
def test_fgh_reference_values(x):
    # gold reference at 50 digits; the flow only consumes s g(2ls) and
    # s^2 h(2ls), so g and h are held to x-scaled absolute accuracy (the
    # closed branch above the cutoff carries the usual 1-cos cancellation)
    mp.mp.dps = 50
    xm = mp.mpf(x)
    f_ref, g_ref, h_ref = (mp.sin(xm) / xm, (1 - mp.cos(xm)) / xm,
                           (xm - mp.sin(xm)) / xm ** 2)
    f, g, h = helpers_fgh(x)
    assert abs(f - float(f_ref)) <= 4e-16
    assert abs(x * (g - float(g_ref))) <= 4e-16
    assert abs(x * x * (h - float(h_ref))) <= 4e-16


def test_straight_line_cases():
    p = Point(0.4, -0.7, 1.2)
    v = euclidean_to_frame(p, (0.6, 0.8, 0.6 * p.y - 0.8 * p.x))  # horizontal
    assert abs(v.c) <= 1e-16
    q, vel = exp_geodesic(GeodesicArc(p, v), 2.5)
    ve = (0.6, 0.8, 0.6 * p.y - 0.8 * p.x)
    assert max(abs(q.x - p.x - 2.5 * ve[0]), abs(q.y - p.y - 2.5 * ve[1]),
               abs(q.t - p.t - 2.5 * ve[2])) <= 1e-12
    assert abs(vel.norm() - v.norm()) <= 1e-14

    vert = FrameVector(0.0, 0.0, 1.0, ORIGIN)
    q, _ = exp_geodesic(GeodesicArc(ORIGIN, vert), 3.0)
    assert (q.x, q.y, q.t) == (0.0, 0.0, 3.0)


def test_unit_circle_lift_example():
    # from the origin with Euclidean velocity (1,0,1): after s = pi the
    # horizontal projection closes and the height is 3 pi / 2
    v = euclidean_to_frame(ORIGIN, (1.0, 0.0, 1.0))
    assert v.c == 1.0
    q, vel = exp_geodesic(GeodesicArc(ORIGIN, v), math.pi)
    assert max(abs(q.x), abs(q.y)) <= 1e-12
    assert abs(q.t - 1.5 * math.pi) <= 1e-12
    assert abs(vel.c - 1.0) <= 1e-14


def test_conservation_and_semigroup():
    p = Point(0.8, -0.1, 0.5)
    v = FrameVector(0.7, -0.4, 0.9, p)
    arc = GeodesicArc(p, v)
    speed = v.norm()
    for i in range(41):
        s = -10.0 + 0.5 * i
        _, vel = exp_geodesic(arc, s)
        assert abs(vel.c - arc.lam) <= 1e-10
        assert abs(vel.norm() - speed) <= 1e-10
    q1, v1 = exp_geodesic(arc, 1.3)
    direct, _ = exp_geodesic(arc, 3.7)
    rest, _ = exp_geodesic(GeodesicArc(q1, v1), 3.7 - 1.3)
    assert max(abs(direct.x - rest.x), abs(direct.y - rest.y),
               abs(direct.t - rest.t)) <= 1e-9


def test_exp_euclidean_matches_typed_api():
    p = Point(0.4, 1.0, -0.3)
    v = FrameVector(0.2, -0.5, 0.8, p)
    q, _ = exp_geodesic(GeodesicArc(p, v), 1.7)
    from h1geom.core import frame_to_euclidean
    (q2,) = exp_euclidean(p.coords(), frame_to_euclidean(v), [1.7])
    assert max(abs(a - b) for a, b in zip(q.coords(), q2)) <= 1e-15


def test_arc_requires_matching_base():
    with pytest.raises(ValueError):
        GeodesicArc(ORIGIN, FrameVector(1, 0, 0, Point(1, 0, 0)))


def _helicoid_family(R=2.0):
    def alpha(e):
        return Point(0.0, 0.0, e / R)

    def u_of(e):
        return euclidean_to_frame(alpha(e), (math.sin(R * e), math.cos(R * e), 0.0))

    return alpha, u_of


def test_jacobi_helicoid_rulings():
    alpha, u_of = _helicoid_family()
    for eps, s in ((0.0, 0.5), (0.4, -1.2)):
        sample = jacobi_field(alpha, u_of, eps, s)
        _, vel = exp_geodesic(GeodesicArc(alpha(eps), u_of(eps)), s)
        assert straight_line_residual(sample, vel) <= 1e-5
        assert jacobi_residual(sample, vel) <= 1e-5
        assert jacobi_fields(alpha, u_of, eps, [s]).commutation_residual(0) <= 1e-5
        # vertical component is 1/R - R s^2 for this family
        tvec = FrameVector(0, 0, 1, sample.V.base)
        assert abs(dot(sample.V, tvec) - (0.5 - 2.0 * s * s)) <= 1e-9


def _general_family(scale=1.0):
    def alpha(e):
        return Point(math.sin(e), e, 0.3 * e * e)

    def u_of(e):
        return FrameVector(scale * (0.8 + 0.1 * e), scale * (-0.5 * e),
                           scale * (0.9 + 0.2 * math.cos(e)), alpha(e))

    return alpha, u_of


def test_jacobi_general_family():
    alpha, u_of = _general_family()
    sample = jacobi_field(alpha, u_of, 0.3, -1.0)
    _, vel = exp_geodesic(GeodesicArc(alpha(0.3), u_of(0.3)), -1.0)
    assert jacobi_residual(sample, vel) <= 1e-4


def test_exp_point_shortcut():
    p = Point(1.0, 2.0, 3.0)
    v = FrameVector(0.5, 0.0, 0.0, p)
    assert exp_geodesic(GeodesicArc(p, v), 2.0)[0].x == 2.0


def _hex_columns(fields, i):
    return [[float(x).hex() for x in a[:, i]]
            for a in (fields.V, fields.Vprime, fields.Vsecond)]


def _hex_sample(sample):
    return [[x.hex() for x in v.coeffs()] for v in (sample.V, sample.Vprime, sample.Vsecond)]


NINE_S = [-1.0 + 0.25 * i for i in range(9)]


@pytest.mark.parametrize("family", [_helicoid_family, _general_family])
@pytest.mark.parametrize("S", [[0.3], [-0.8, 0.4, 1.5], NINE_S, NINE_S[::-1]])
def test_jacobi_fields_columns_are_single_points(family, S):
    # the batch size and order cannot change a bit of any column
    alpha, u_of = family()
    for eps in (0.0, 0.5):
        fields = jacobi_fields(alpha, u_of, eps, S)
        for i, s in enumerate(S):
            assert _hex_columns(fields, i) == _hex_sample(jacobi_field(alpha, u_of, eps, s))
            assert (fields.commutation_residual(i).hex()
                    == jacobi_fields(alpha, u_of, eps, [s]).commutation_residual(0).hex())


def _nested_reference(alpha, u_of, eps, s):
    """V, V', V'' by nested scalar ``central_diff`` calls on ``exp_geodesic``:
    the loop form that ``jacobi_fields`` writes out as one array pass."""
    def arc(e):
        return GeodesicArc(alpha(e), u_of(e))

    def v_at(x):
        de = central_diff(lambda e: exp_geodesic(arc(e), x)[0].coords(), eps,
                          DiffSpec(EPS_STEP, 1))
        return euclidean_to_frame(exp_geodesic(arc(eps), x)[0], de)

    def vel_at(x):
        return exp_geodesic(arc(eps), x)[1]

    def vprime_at(x):
        return covariant_derivative_along(v_at, vel_at, x)

    return v_at(s), vprime_at(s), covariant_derivative_along(vprime_at, vel_at, s)


def test_jacobi_fields_match_nested_reference():
    # bit for bit on the helicoid family, whose flow never reaches sin or cos
    alpha, u_of = _helicoid_family()
    S = [-1.3, -0.2, 0.0, 0.7, 2.5]
    for eps in (-0.3, 0.0, 0.9):
        fields = jacobi_fields(alpha, u_of, eps, S)
        for i, s in enumerate(S):
            want = [[x.hex() for x in v.coeffs()]
                    for v in _nested_reference(alpha, u_of, eps, s)]
            assert _hex_columns(fields, i) == want


# V, V', V'' and the commutation residual of the R = 2 helicoid family at
# the (eps, s) pairs of verify's jacobi_equation_rulings check, as computed
# by the scalar nested-central_diff implementation.  The family has lam = 0,
# so the flow never reaches sin or cos, and the values are exact pins.
HELICOID_PINS = [
    (0.0, 0.3,
     [["0x1.3333333333333p-1", "0x0.0p+0", "0x1.47ae147ae147bp-2"],
      ["0x1.ae147ae147aa6p+0", "0x0.0p+0", "-0x1.33333333332fbp-1"],
      ["0x1.ccccccccccbaap+0", "0x0.0p+0", "-0x1.47ae147ae60c8p-2"]],
     "0x1.019eb020ee283p-46"),
    (0.5, -0.8,
     [["-0x1.ba9d9b2b9b4dfp-1", "0x1.58aaa0c07e703p+0", "-0x1.8f5c28f5c4179p-1"],
      ["0x1.8085b86e822cap+0", "-0x1.2b6dd541257e0p+1", "0x1.9999999d0c46ap+0"],
      ["-0x1.4bf638275a782p+1", "0x1.027ff8820dd31p+2", "0x1.8f5c22de148eap-1"]],
     "0x1.f2040e9643495p-30"),
    (-0.4, 1.5,
     [["0x1.0b890e6d4a1ebp+1", "0x1.1376f920f9b38p+1", "-0x1.fffffffff19ccp+1"],
      ["0x1.0b890e6b8c335p+2", "0x1.1376f926e9d85p+2", "-0x1.8000000914364p+1"],
      ["0x1.914d931df2c00p+2", "0x1.9d3275b7ff5d4p+2", "0x1.000002aea8c54p+2"]],
     "0x1.ecc1caa1218ecp-28"),
]


@pytest.mark.parametrize("eps, s, fields, comm", HELICOID_PINS)
def test_jacobi_helicoid_pins(eps, s, fields, comm):
    alpha, u_of = _helicoid_family()
    assert _hex_sample(jacobi_field(alpha, u_of, eps, s)) == fields
    assert jacobi_fields(alpha, u_of, eps, [s]).commutation_residual(0).hex() == comm


# V, V', V'' of the general family at the (eps, s) pairs of verify's
# jacobi_equation_general check, as computed by the scalar implementation.
# The flow reaches sin and cos here, and numpy's need not match math's to
# the bit.  Every difference quotient amplifies round-off: moving numpy's sin
# and cos by one ulp in the flow moves V, V' and V'' by up to 2.7e-11,
# 9.7e-9 and 1.9e-6 relative, so each is held about ten times wider.
GENERAL_REFERENCE = [
    (0.0, 0.5,
     [[0.9163267257768687, 0.7726163327818427, 0.9621229916414642],
      [-0.5641611620031308, 1.0411728087147296, 0.933674316659085],
      [1.2723235749370785, -0.6729961532890487, -0.8559275106581694]]),
    (0.3, -1.0,
     [[0.5152760135250049, 1.127604075192486, 0.06804255263278916],
      [-0.8398329713327772, 0.948807220788837, -0.852357965768495],
      [1.182692665313946, -0.44409793329943037, 0.6949381903401097]]),
    (-0.2, 1.2,
     [[0.5384665428889712, 0.8059558947541103, 1.3993217537019138],
      [-0.6038728441287219, 0.15404250694085853, -0.2167045010511861],
      [-1.975804579854248, -1.2013863983858868, -1.652057301475638]]),
]


@pytest.mark.parametrize("eps, s, want", GENERAL_REFERENCE)
def test_jacobi_general_reference(eps, s, want):
    sample = jacobi_field(*_general_family(), eps, s)
    got = [v.coeffs() for v in (sample.V, sample.Vprime, sample.Vsecond)]
    for g, w, rel in zip(got, want, (3e-10, 1e-7, 2e-5)):
        for a, b in zip(g, w):
            assert abs(a - b) <= rel * abs(b)


def _never_called(e):
    raise AssertionError("the family was evaluated")


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_jacobi_fields_rejects_nonfinite_s_at_entry(s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue) as err:
            jacobi_fields(_never_called, _never_called, 0.3, [0.5, s])
    assert str(err.value) == f"Jacobi field is not finite at eps = 0.3, s = {s!r}"


@pytest.mark.parametrize("family", [_helicoid_family, _general_family])
@pytest.mark.parametrize("scale, s, first", [(1.0, 1e300, 1e300), (1e200, 0.5, 0.25),
                                             (1e150, 1e10, 0.25), (1.0, math.inf, math.inf),
                                             (1.0, math.nan, math.nan)])
def test_jacobi_fields_nonfinite_families(family, scale, s, first):
    # one line naming the first failing parameter of [0.25, s], as a call at
    # that parameter alone names it, and no numpy warning
    if family is _helicoid_family:
        alpha, u0 = family()
        u_of = lambda e: u0(e).scaled(scale)
    else:
        alpha, u_of = family(scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue) as err:
            jacobi_field(alpha, u_of, 0.3, s)
        assert str(err.value) == f"Jacobi field is not finite at eps = 0.3, s = {s!r}"
        with pytest.raises(NonFiniteValue) as err:
            jacobi_fields(alpha, u_of, 0.3, [0.25, s])
        assert str(err.value) == f"Jacobi field is not finite at eps = 0.3, s = {first!r}"
        with pytest.raises(NonFiniteValue) as err:
            jacobi_fields(alpha, u_of, 0.3, [s, 0.25])
        assert str(err.value) == f"Jacobi field is not finite at eps = 0.3, s = {s!r}"
        if scale == 1.0:
            # s the one bad parameter, first, in the middle or last (a
            # larger scale makes every parameter bad)
            for S in ([s, 0.25, 0.5], [0.25, s, 0.5], [0.25, 0.5, s]):
                with pytest.raises(NonFiniteValue) as err:
                    jacobi_fields(alpha, u_of, 0.3, S)
                assert str(err.value) == f"Jacobi field is not finite at eps = 0.3, s = {s!r}"


def test_jacobi_fields_wants_one_axis():
    alpha, u_of = _helicoid_family()
    with pytest.raises(ValueError):
        jacobi_fields(alpha, u_of, 0.0, [[0.1, 0.2]])
