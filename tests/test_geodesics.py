import math
import random
import warnings

import mpmath as mp
import numpy as np
import pytest

from h1geom.core import (FrameVector, ORIGIN, Point, connection_correct, dot,
                         euclidean_to_frame, frame_coeffs)
from h1geom.errors import NonFiniteValue
from h1geom.geodesics import (GeodesicArc, exp_euclidean, exp_geodesic, helpers_fgh,
                              jacobi_field, jacobi_fields, jacobi_residual,
                              straight_line_residual)
from referees import nested_jacobi_reference


def test_fgh_special_values():
    f, g, h = helpers_fgh(0.0)
    assert (f, g, h) == (1.0, 0.0, 0.0)
    f, g, _ = helpers_fgh(math.pi)
    assert abs(f) <= 1e-16
    assert abs(g - 2.0 / math.pi) <= 1e-16


@pytest.mark.parametrize("x", [1e-4, -1e-4, 5e-5, 9.9e-5, 1.0001e-4, 2e-4, 0.5])
def test_fgh_reference_values(x):
    # gold reference at 50 digits, on both sides of the f, g switch; the flow
    # consumes s g(2ls) and s^2 h(2ls), so g and h are held to x-scaled
    # absolute accuracy here (test_fgh_match_mpmath_at_every_scale holds
    # them to relative accuracy)
    mp.mp.dps = 50
    xm = mp.mpf(x)
    f_ref, g_ref, h_ref = (mp.sin(xm) / xm, (1 - mp.cos(xm)) / xm,
                           (xm - mp.sin(xm)) / xm ** 2)
    f, g, h = helpers_fgh(x)
    assert abs(f - float(f_ref)) <= 4e-16
    assert abs(x * (g - float(g_ref))) <= 4e-16
    assert abs(x * x * (h - float(h_ref))) <= 4e-16


def test_fgh_match_mpmath_at_every_scale():
    # relative accuracy at every x, on floats and arrays alike: f and g take
    # the closed forms sin x / x and 2 sin^2(x/2)/x above 1e-4, h its series
    # below 1, so neither 1 - cos x nor x - sin x cancels
    mp.mp.dps = 50
    xs = np.concatenate([np.logspace(-12, 4, 481), [1e-4, 1.0001e-4, 1.0 - 2**-53, 1.0]])
    xs = np.concatenate([xs, -xs])
    batched = helpers_fgh(xs)
    for i, x in enumerate(xs.tolist()):
        xm = mp.mpf(x)
        refs = (mp.sin(xm) / xm, (1 - mp.cos(xm)) / xm, (xm - mp.sin(xm)) / xm ** 2)
        for value, batch, ref in zip(helpers_fgh(x), batched, refs):
            assert abs(value - ref) <= 1e-15 * abs(ref), x
            assert abs(float(batch[i]) - ref) <= 1e-15 * abs(ref), x


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


# A geodesic family is (alpha, u_of, dalpha, du): the start point alpha(e),
# the frame coefficients u_of(e) of the initial velocity, and the exact
# e-derivatives of the Euclidean start and of those coefficients.

def _helicoid_family(R=2.0, scale=1.0):
    # the rulings of the pitch-R helicoid's seed
    return (lambda e: Point(0.0, 0.0, e / R),
            lambda e: (scale * math.sin(R * e), scale * math.cos(R * e), 0.0),
            lambda e: (0.0, 0.0, 1.0 / R),
            lambda e: (scale * R * math.cos(R * e), -scale * R * math.sin(R * e), 0.0))


def _general_family(scale=1.0):
    return (lambda e: Point(math.sin(e), e, 0.3 * e * e),
            lambda e: (scale * (0.8 + 0.1 * e), scale * (-0.5 * e),
                       scale * (0.9 + 0.2 * math.cos(e))),
            lambda e: (math.cos(e), 1.0, 0.6 * e),
            lambda e: (0.1 * scale, -0.5 * scale, -0.2 * scale * math.sin(e)))


def _initial_data(family, eps):
    """The arc of the member ``eps`` of ``family``, and V(0) and V'(0) =
    D_e U of the family's Jacobi field on it."""
    alpha, u_of, dalpha, du = family
    p, u = alpha(eps), u_of(eps)
    v0 = euclidean_to_frame(p, dalpha(eps))
    return (GeodesicArc(p, FrameVector(*u, p)), v0,
            FrameVector(*connection_correct(du(eps), v0.coeffs(), u), p))


def _coeffs(sample):
    return [v.coeffs() for v in (sample.V, sample.Vprime, sample.Vsecond)]


def test_jacobi_helicoid_rulings():
    for eps, s in ((0.0, 0.5), (0.4, -1.2)):
        data = _initial_data(_helicoid_family(), eps)
        sample = jacobi_field(*data, s)
        assert straight_line_residual(sample, sample.velocity) <= 1e-14
        assert jacobi_residual(sample, sample.velocity) <= 1e-14
        assert jacobi_fields(*data, [s]).commutation_residual(0) <= 1e-14
        # vertical component is 1/R - R s^2 for this family
        tvec = FrameVector(0, 0, 1, sample.V.base)
        assert abs(dot(sample.V, tvec) - (0.5 - 2.0 * s * s)) <= 1e-15


def test_jacobi_general_family():
    sample = jacobi_field(*_initial_data(_general_family(), 0.3), -1.0)
    assert jacobi_residual(sample, sample.velocity) <= 1e-14


def test_exp_point_shortcut():
    p = Point(1.0, 2.0, 3.0)
    v = FrameVector(0.5, 0.0, 0.0, p)
    assert exp_geodesic(GeodesicArc(p, v), 2.0)[0].x == 2.0


def _hex_columns(fields, i):
    return [[float(x).hex() for x in a[:, i]]
            for a in (fields.points, fields.V, fields.Vprime, fields.Vsecond, fields.velocity)]


def _hex_sample(sample):
    return [[x.hex() for x in c] for c in (sample.V.base.coords(), *_coeffs(sample),
                                           sample.velocity.coeffs())]


NINE_S = [-1.0 + 0.25 * i for i in range(9)]


@pytest.mark.parametrize("family", [_helicoid_family, _general_family])
@pytest.mark.parametrize("S", [[0.3], [-0.8, 0.4, 1.5], NINE_S, NINE_S[::-1]])
def test_jacobi_fields_columns_are_single_points(family, S):
    # the batch size and order cannot change a bit of any column
    for eps in (0.0, 0.5):
        data = _initial_data(family(), eps)
        fields = jacobi_fields(*data, S)
        for i, s in enumerate(S):
            assert _hex_columns(fields, i) == _hex_sample(jacobi_field(*data, s))
            assert (fields.commutation_residual(i).hex()
                    == jacobi_fields(*data, [s]).commutation_residual(0).hex())


def _random_initial_data(rng, lam):
    p = Point(*(rng.uniform(-2.0, 2.0) for _ in range(3)))
    v = FrameVector(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), lam, p)
    V0, DV0 = (FrameVector(*(rng.uniform(-1.0, 1.0) for _ in range(3)), p) for _ in range(2))
    return GeodesicArc(p, v), V0, DV0


# lam = 0 (straight lines), lam = 1e-6 (the series branch of helpers_fgh
# on all of [-10, 10]), lam from 3e-5 to 3e-2 (|2 lam s| across the f, g
# switch at 1e-4 and up to the h switch at 1, where 1 - cos x and x - sin x
# would cancel) and |lam| in [0.5, 1.5] (|2 lam s| up to 30)
RANDOM_LAMS = [0.0, 1e-6, -1e-6, None, 3e-5, -3e-5, 1e-4, 2e-3, 3e-2]


@pytest.mark.parametrize("lam", RANDOM_LAMS)
def test_jacobi_fields_solve_the_jacobi_equation(lam):
    rng = random.Random(17)
    S = np.linspace(-10.0, 10.0, 21)
    for _ in range(15):
        draw = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5) if lam is None else lam
        fields = jacobi_fields(*_random_initial_data(rng, draw), S)
        for i in range(len(S)):
            sample = fields.sample(i)
            vel, V = sample.velocity, sample.V
            # each side against the size of its terms
            scale = sample.Vsecond.norm() + vel.norm() ** 2 * V.norm()
            assert jacobi_residual(sample, vel) <= 1e-14 * scale
            scale = sample.Vprime.norm() + vel.norm() * V.norm()
            assert fields.commutation_residual(i) <= 1e-14 * scale


@pytest.mark.parametrize("lam", RANDOM_LAMS)
def test_jacobi_fields_start_at_their_initial_data(lam):
    rng = random.Random(19)
    for _ in range(15):
        draw = rng.uniform(-1.5, 1.5) if lam is None else lam
        arc, V0, DV0 = _random_initial_data(rng, draw)
        sample = jacobi_field(arc, V0, DV0, 0.0)
        assert sample.V.base.coords() == arc.p0.coords()
        assert (sample.velocity - arc.v0).norm() <= 4e-15
        assert (sample.V - V0).norm() <= 2e-15
        assert (sample.Vprime - DV0).norm() <= 4e-15


def test_jacobi_fields_are_linear_in_their_initial_data():
    rng = random.Random(23)
    S = [-3.0, -0.5, 0.0, 1.25, 4.0]
    for lam in (0.0, 1e-6, 0.9):
        arc, V0, DV0 = _random_initial_data(rng, lam)
        W0, DW0 = (FrameVector(*(rng.uniform(-1.0, 1.0) for _ in range(3)), arc.p0)
                   for _ in range(2))
        base = jacobi_fields(arc, V0, DV0, S)
        # a binary scale changes no bit of the fields it scales
        for j in range(-1000, 1001, 125):
            k = math.ldexp(1.0, j)
            scaled = jacobi_fields(arc, V0.scaled(k), DV0.scaled(k), S)
            for name in ("V", "Vprime", "Vsecond", "DV_velocity"):
                assert np.array_equal(np.ldexp(getattr(scaled, name), -j), getattr(base, name))
        # and a sum of data is the sum of their fields
        other = jacobi_fields(arc, W0, DW0, S)
        both = jacobi_fields(arc, V0 + W0.scaled(-0.75), DV0 + DW0.scaled(-0.75), S)
        for name in ("V", "Vprime", "Vsecond", "DV_velocity"):
            want = getattr(base, name) - 0.75 * getattr(other, name)
            size = np.abs(getattr(base, name)).max() + np.abs(getattr(other, name)).max()
            assert np.abs(getattr(both, name) - want).max() <= 1e-14 * size


def test_jacobi_fields_of_zero_data_vanish():
    arc, V0, _ = _initial_data(_general_family(), 0.3)
    fields = jacobi_fields(arc, V0.scaled(0.0), V0.scaled(0.0), [-1.0, 2.0])
    for name in ("V", "Vprime", "Vsecond", "DV_velocity"):
        assert not getattr(fields, name).any()


def test_jacobi_fields_want_data_at_the_start():
    arc, V0, DV0 = _initial_data(_general_family(), 0.3)
    elsewhere = FrameVector(*V0.coeffs(), Point(0.0, 0.0, 0.0))
    for data in ((elsewhere, DV0), (V0, elsewhere)):
        with pytest.raises(ValueError):
            jacobi_fields(arc, *data, [0.5])


def test_jacobi_fields_match_nested_reference():
    # the referee differences the flow across the family and along the
    # geodesic; it is good to 1e-6 on V and 1e-4 on V' and V''
    for family in (_helicoid_family(), _general_family()):
        alpha, u_coeffs = family[:2]
        u_of = lambda e: FrameVector(*u_coeffs(e), alpha(e))
        for eps in (-0.3, 0.0, 0.9):
            for s in (-1.3, -0.2, 0.0, 0.7, 2.5):
                got = _coeffs(jacobi_field(*_initial_data(family, eps), s))
                want = [v.coeffs() for v in nested_jacobi_reference(alpha, u_of, eps, s)]
                for g, w, tol in zip(got, want, (1e-6, 1e-4, 1e-4)):
                    assert max(abs(a - b) for a, b in zip(g, w)) <= tol * max(1.0, *map(abs, w))


@pytest.mark.parametrize("eps, s", [(0.0, 0.3), (0.5, -0.8), (-0.4, 1.5)])
def test_jacobi_helicoid_closed_form(eps, s):
    # the R = 2 helicoid's rulings (s sin Re, s cos Re, e/R) are horizontal
    # lines, and V = d/de of them is a polynomial in s:
    # V = (Rs co, -Rs si, 1/R - Rs^2), V' = (c co, -c si, -Rs) with
    # c = R - 1/R + Rs^2, and V'' = (3Rs co, -3Rs si, Rs^2 - 1/R)
    R, co, si = 2.0, math.cos(2.0 * eps), math.sin(2.0 * eps)
    c = R - 1.0 / R + R * s * s
    want = [(R * s * co, -R * s * si, 1.0 / R - R * s * s), (c * co, -c * si, -R * s),
            (3.0 * R * s * co, -3.0 * R * s * si, R * s * s - 1.0 / R)]
    data = _initial_data(_helicoid_family(), eps)
    sample = jacobi_field(*data, s)
    for g, w in zip(_coeffs(sample), want):
        assert max(abs(a - b) for a, b in zip(g, w)) <= 4e-15 * max(map(abs, w))
    assert sample.velocity.coeffs() == pytest.approx((si, co, 0.0), abs=1e-16)
    assert jacobi_fields(*data, [s]).commutation_residual(0) <= 4e-15 * c


def _mp_flow(p, u, s):
    """The closed flow of ``geodesics`` in mpmath arithmetic."""
    (x0, y0, t0), (A, B, lam) = p, u
    x = 2 * lam * s
    f, g, h = ((mp.sin(x) / x, (1 - mp.cos(x)) / x, (x - mp.sin(x)) / x ** 2) if x
               else (1, 0, 0))
    r2, ax, ay = A * A + B * B, A * x0 + B * y0, A * y0 - B * x0
    return (x0 + s * (A * f + B * g), y0 + s * (-A * g + B * f),
            t0 + lam * s + r2 * s * s * h + ax * s * g + ay * s * f)


def _mp_general_reference(eps, s):
    """V, V', V'' of ``_general_family`` at 40 digits: mpmath derivatives of
    its closed flow across the family and of frame coefficients along the
    geodesic, with the connection terms of ``connection_correct``."""
    mp.mp.dps = 40
    eps, s = mp.mpf(eps), mp.mpf(s)

    def flow(e, t):
        return _mp_flow((mp.sin(e), e, 0.3 * e * e),
                        (0.8 + 0.1 * e, -0.5 * e, 0.9 + 0.2 * mp.cos(e)), t)

    def V(t):
        q = flow(eps, t)
        return frame_coeffs(q[0], q[1], [mp.diff(lambda e: flow(e, t)[k], eps) for k in range(3)])

    def vel(t):
        q = flow(eps, t)
        return frame_coeffs(q[0], q[1], [mp.diff(lambda x: flow(eps, x)[k], t) for k in range(3)])

    def D(field, t):
        return connection_correct([mp.diff(lambda x: field(x)[k], t) for k in range(3)],
                                  vel(t), field(t))

    Vp = lambda t: D(V, t)
    return V(s), Vp(s), D(Vp, s)


# V, V', V'' of the general family at the (eps, s) pairs of verify's
# jacobi_equation_general check: _mp_general_reference's values, rounded
GENERAL_REFERENCE = [
    (0.0, 0.5,
     [[0.9163267257813328, 0.7726163327781091, 0.9621229916381927],
      [-0.5641611607982526, 1.0411728075137, 0.9336743153084192],
      [1.2723239003527125, -0.672996207685329, -0.8559275345306565]]),
    (0.3, -1.0,
     [[0.5152760135213182, 1.1276040752123795, 0.06804255267438626],
      [-0.8398329679063369, 0.9488072188640911, -0.8523579728216457],
      [1.1826927874299151, -0.4440980287423344, 0.6949391089959931]]),
    (-0.2, 1.2,
     [[0.5384665429160379, 0.8059558947544815, 1.3993217536461289],
      [-0.6038728457073511, 0.15404250713330764, -0.21670450086970525],
      [-1.975805203103135, -1.2013862915780529, -1.6520560306475425]]),
]


@pytest.mark.parametrize("eps, s, want", GENERAL_REFERENCE)
def test_jacobi_general_reference(eps, s, want):
    ref = _mp_general_reference(eps, s)
    got = _coeffs(jacobi_field(*_initial_data(_general_family(), eps), s))
    for g, r, w in zip(got, ref, want):
        assert [float(c) for c in r] == w
        for a, b in zip(g, w):
            assert abs(a - b) <= 2e-15 * max(1.0, abs(b))


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_jacobi_fields_rejects_nonfinite_s_at_entry(s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue) as err:
            jacobi_fields(*_initial_data(_general_family(), 0.3), [0.5, s])
    assert str(err.value) == f"Jacobi field is not finite at s = {s!r}"


@pytest.mark.parametrize("family", [_helicoid_family, _general_family])
@pytest.mark.parametrize("scale, s, first", [(1.0, 1e300, 1e300), (1e200, 0.5, 0.25),
                                             (1e150, 1e10, 0.25), (1.0, math.inf, math.inf),
                                             (1.0, math.nan, math.nan)])
def test_jacobi_fields_nonfinite_families(family, scale, s, first):
    # one line naming the first failing parameter of [0.25, s], as a call at
    # that parameter alone names it, and no numpy warning
    data = _initial_data(family(scale=scale), 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue) as err:
            jacobi_field(*data, s)
        assert str(err.value) == f"Jacobi field is not finite at s = {s!r}"
        with pytest.raises(NonFiniteValue) as err:
            jacobi_fields(*data, [0.25, s])
        assert str(err.value) == f"Jacobi field is not finite at s = {first!r}"
        with pytest.raises(NonFiniteValue) as err:
            jacobi_fields(*data, [s, 0.25])
        assert str(err.value) == f"Jacobi field is not finite at s = {s!r}"
        if scale == 1.0:
            # s the one bad parameter, first, in the middle or last (a
            # larger scale makes every parameter bad)
            for S in ([s, 0.25, 0.5], [0.25, s, 0.5], [0.25, 0.5, s]):
                with pytest.raises(NonFiniteValue) as err:
                    jacobi_fields(*data, S)
                assert str(err.value) == f"Jacobi field is not finite at s = {s!r}"


def test_jacobi_fields_wants_one_axis():
    with pytest.raises(ValueError):
        jacobi_fields(*_initial_data(_helicoid_family(), 0.0), [[0.1, 0.2]])
