"""The velocity-only RK4 stage and the one-evaluation operator L against the
forms they replace, compared with ``==``, the shared kernels pinned to
``float.hex`` values, and the exact derivatives against their referees."""

import math

import numpy as np
import pytest

from h1geom import surfaces, verify
from h1geom.core import FrameField, Point, flow
from h1geom.geodesics import H_SERIES_CUTOFF, SERIES_CUTOFF, exp_euclidean, helpers_fgh
from h1geom.errors import NonFiniteValue, SingularPoint
from h1geom.numerics import (QuadratureSpec, Taylor, gauss_legendre_1d, taylor,
                             taylor_derivatives)
from h1geom.stability import (cosine_bump, direct_variations, l_nh_closed, operator_L,
                              plateau_ramp, separable, tangent_derivative,
                              vertical_variation_area, zero_function)
from h1geom.surfaces import (CatenoidChart, CatenoidRulingChart, Chart, HelicoidChart,
                             _chart_velocity,
                             catalog_surface, dilated, integrate_tangent_field, rotated,
                             surface_frame, translated)
from referees import central_diff


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


@pytest.mark.parametrize("name", [*_charts(), "catenoid_rulings"])
def test_taylor_jets_carry_the_jets_bit_for_bit(name):
    # the value terms of _jet_parts on Taylor numbers are its numpy arrays
    # and, at one point, its math floats, bit for bit
    chart = CatenoidRulingChart(-0.7) if name == "catenoid_rulings" else _charts()[name]
    (a1, b1), (a2, b2) = ((-3.0, 3.0), chart.domain[1]) if name == "catenoid_rulings" \
        else chart.domain
    rng = np.random.default_rng(19)
    U1, U2 = rng.uniform(a1, b1, 64), rng.uniform(a2, b2, 64)
    parts = chart._jet_parts(Taylor(U1, 0.6, -0.2), Taylor(U2, -0.8, 0.3), taylor)
    for got, want in zip(parts, chart._jet_parts(U1, U2, np)):
        for g, w in zip(got, want):
            assert np.array_equal(taylor_derivatives(g)[0], w)
    for u1, u2 in zip(U1.tolist()[:8], U2.tolist()[:8]):
        parts = chart._jet_parts(Taylor(u1, 0.6, -0.2), Taylor(u2, -0.8, 0.3), taylor)
        got = [taylor_derivatives(g)[0] for v in parts for g in v]
        assert [float(g).hex() for g in got] == \
            [float(w).hex() for v in chart._jet_parts(u1, u2, math) for w in v]


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
    nh = lambda fr: field_calls.append(fr) or fr.Nh_norm
    calls = []
    rk4 = surfaces.tangent_field_states

    def counted(*args, **kwargs):
        calls.append(args[1])
        return rk4(*args, **kwargs)

    monkeypatch.setattr(surfaces, "tangent_field_states", counted)
    for u in ((0.8, 0.9), (2.0, -0.4), (4.5, 1.2)):
        fr = surface_frame(chart, u)
        zv = tangent_derivative(chart, nh, u, 1, "Z")
        zzv = tangent_derivative(chart, nh, u, 2, "Z")
        want = (zzv + 2.0 / fr.Nh_norm * fr.NT * fr.BZS * zv + fr.q * fr.Nh_norm) / fr.Nh_norm
        calls.clear()
        field_calls.clear()
        assert operator_L(chart, nh, u) == want
        # no curve is walked, and the field is evaluated once, on Taylor numbers
        assert calls == []
        assert len(field_calls) == 1 and type(field_calls[0].Nh_norm) is Taylor


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
    ("0x1.fffffff1aef62p-1", "0x1.a36e2eabe8ccep-15", "0x1.179ec9c980da7p-16"),
    ("0x1.fffffff1aef61p-1", "0x1.a36e2eabe5328p-15", "0x1.179ec9c97e738p-16"),
    ("0x1.fffffff1aef62p-1", "-0x1.a36e2eabe8ccep-15", "-0x1.179ec9c980da7p-16"),
    ("0x1.fffffff1aef61p-1", "-0x1.a36e2eabe5328p-15", "-0x1.179ec9c97e738p-16"),
    ("0x1.678afae35cdd1p-55", "0x1.45f306dc9c883p-1", "0x1.45f306dc9c883p-2"),
]


def test_helpers_fgh_pinned_bitwise():
    # both sides of the series switch at |x| = 1e-4, scalar and array alike
    for x, pinned in zip(_FGH_XS, _FGH_PINNED):
        assert _hex(helpers_fgh(x)) == pinned
    arr = _hex(helpers_fgh(np.array(_FGH_XS)))
    assert arr == tuple(zip(*_FGH_PINNED))


def _parity_xs():
    edges = [cut * (1 + d) for cut in (SERIES_CUTOFF, H_SERIES_CUTOFF)
             for d in (-1e-12, -2**-52, 0.0, 2**-52, 1e-12)]
    rng = np.random.default_rng(11)
    return ([0.0, 1e-300, 1e-9, 3e-5, math.pi, 1e6, 1e6 - 0.5] + edges
            + rng.uniform(0.0, SERIES_CUTOFF, 20).tolist()
            + (10.0 ** rng.uniform(-4, 6, 60)).tolist())


def test_helpers_fgh_parity_bitwise():
    # f is even and g, h are odd bit for bit: on floats, and on arrays that
    # are all on one side of either switch or mixed
    xs = _parity_xs()
    for x in xs + [-0.0]:
        f, g, h = helpers_fgh(x)
        assert _hex(helpers_fgh(-x)) == _hex((f, -g, -h)), x
    arr = np.array(xs)
    small, near = np.abs(arr) < SERIES_CUTOFF, np.abs(arr) < H_SERIES_CUTOFF
    for part in (arr[small], arr[~small], arr[near], arr[~near], arr, np.array([0.0, -0.0])):
        f, g, h = helpers_fgh(part)
        assert _hex(helpers_fgh(-part)) == _hex((f, -g, -h))


def test_exp_euclidean_ladder_is_its_parameters_one_by_one():
    # every endpoint of a ladder, +-s pairs included, has the bits of a
    # flow to its one parameter, on a batch mixing both branches
    rng = np.random.default_rng(3)
    p = tuple(rng.uniform(-2, 2, 40) for _ in range(3))
    v = tuple(rng.uniform(-1.5, 1.5, 40) for _ in range(3))
    v[2][:10] = v[0][:10] * p[1][:10] - v[1][:10] * p[0][:10]  # lam = 0
    ladder = [0.0, 1e-3, -1e-3, 5e-4, -5e-4, 2.5e-4, -2.5e-4, 0.7, 0.2, -0.2, -0.0]
    got = list(exp_euclidean(p, v, ladder))
    assert len(got) == len(ladder)
    for s, end in zip(ladder, got):
        (want,) = exp_euclidean(p, v, [s])
        assert _hex(end) == _hex(want), s


def test_exp_euclidean_pinned_bitwise():
    pinned = ("0x1.559ecd0c39e5fp-1", "-0x1.216161d61b5eep+1", "0x1.05ea50ee9ee86p+1")
    (end,) = exp_euclidean((0.3, -0.2, 0.7), (0.6, -1.1, 0.4), [1.7])
    assert _hex(end) == pinned
    # a batch, with a zero velocity (lam = 0, the series branch) beside it
    (batch,) = exp_euclidean((np.array([0.3, 0.0]), np.array([-0.2, 0.0]), np.array([0.7, 0.0])),
                             (np.array([0.6, 1.0]), np.array([-1.1, 0.0]), np.array([0.4, 0.0])),
                             [1.7])
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


# ---------------------------------------------------------------------------
# The curve walk and the exact derivatives along curves, against their
# closed forms and referees
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["z", "X", ""])
def test_unknown_tangent_field_is_rejected(which):
    cat = CatenoidChart(1.0)
    nh = lambda fr: fr.Nh_norm
    for call in (lambda: integrate_tangent_field(cat, (0.4, 0.3), 0.5, 5, which),
                 lambda: tangent_derivative(cat, nh, (0.4, 0.3), 1, which)):
        with pytest.raises(ValueError, match=repr(which)):
            call()


def _rel(got, want):
    return abs(got - want) / max(1.0, abs(want))


@pytest.mark.parametrize("u", [(0.8, 0.9), (2.0, -0.4), (4.5, 1.2)])
def test_tangent_derivatives_match_their_referees(u):
    # |N_h| on the catenoid: Z|N_h| = <N,T>(1 - <B(Z),S>), Z Z|N_h| its closed
    # combination, S|N_h| = d|N_h| . S in the chart, S S|N_h| a central
    # difference of that along the RK4 S-curve, and L(|N_h|) = l_nh_closed
    cat = CatenoidChart(1.0)
    nh = lambda fr: fr.Nh_norm

    def s_nh(v):
        fr = surface_frame(cat, v)
        return fr.dNh[0] * fr.s_chart[0] + fr.dNh[1] * fr.s_chart[1]

    fr = surface_frame(cat, u)
    n, b = fr.Nh_norm, fr.BZS
    zz = -5.0 * n + 4.0 * n ** 3 + 2.0 * b / n + 2.0 * b * b / n - 3.0 * n * b * b
    [ss] = central_diff(lambda t: (s_nh(integrate_tangent_field(cat, u, t, 4, "S")[-1]),),
                        0.0, 1e-3)
    got = [tangent_derivative(cat, nh, u, order, which) for which in "ZS" for order in (1, 2)]
    want = [fr.NT * (1.0 - b), zz, s_nh(u), ss]
    assert max(map(_rel, got[:3], want[:3])) <= 1e-13
    assert _rel(got[3], want[3]) <= 1e-10
    assert _rel(operator_L(cat, nh, u), l_nh_closed(cat, u)) <= 1e-13


@pytest.mark.parametrize("r0", [0.0, 0.1, -0.25])
def test_vertical_variation_derivatives_match_their_closed_forms(r0):
    # A(r) = int int |p(s) + r wdot| ds deps with p(s) = -s(2 + R s), whose
    # kink s* = (sqrt(1 + R r wdot) - 1)/R stays in the window: dA/dr =
    # int 2 s* wdot and d^2A/dr^2 = int wdot^2 / sqrt(1 + R r wdot)
    R, w, quad = 2.0, cosine_bump(0.0, 1.0), QuadratureSpec(16, (16, 1))
    root = lambda e: math.sqrt(1.0 + R * r0 * w.deriv(e))
    d1 = gauss_legendre_1d(lambda e: 2.0 * (root(e) - 1.0) / R * w.deriv(e), -1.0, 1.0, quad)
    d2 = gauss_legendre_1d(lambda e: w.deriv(e) ** 2 / root(e), -1.0, 1.0, quad)
    a, a1, a2 = taylor_derivatives(vertical_variation_area(R, w, Taylor(r0, 1.0), quad))
    assert a == vertical_variation_area(R, w, r0, quad)
    assert abs(a1 - d1) <= 1e-14 and abs(a2 - d2) <= 1e-13 * d2


def test_direct_variations_pinned_bitwise():
    # the data of verify's second_variation check
    cat = CatenoidChart(1.0)
    v = separable(cosine_bump(1.5, 0.7), cosine_bump(0.3, 0.5))
    got = direct_variations(cat, v, zero_function(), QuadratureSpec(16, (4, 4)))
    assert _hex(got) == ("0x1.cb1278713bfd5p+1", "-0x1.060cd40454000p-54",
                         "0x1.db1d61acfe18bp+0")


def test_direct_variations_pinned_bitwise_kinked_with_vertical_part():
    # w != 0 and a plateau with two kinks: 25 cut cells
    cat = CatenoidChart(1.0)
    v = separable(cosine_bump(1.5, 0.7), plateau_ramp(0.3, 0.35))
    w = separable(cosine_bump(1.5, 0.6), cosine_bump(0.35, 0.4))
    got = direct_variations(cat, v, w, QuadratureSpec(8, (4, 4)))
    assert _hex(got) == ("0x1.1118f21d80d67p+2", "-0x1.89ac1726c0000p-48",
                         "0x1.45a2b4bfe0dafp+1")


def test_ruled_chart_jets_frame_the_base_chart():
    # the seed jets of the S-curve (S and Z and their exact derivatives
    # along it) frame the base surface: measured 8.9e-15 on the catenoid,
    # 3.1e-15 on the pitch-2 helicoid, at the sample points of
    # check_ruled_charts (4.7e-12 and 1.3e-12 by central differences)
    _, rc, rh = verify._ruled_charts()

    def on_helicoid(p, R=2.0):
        eps = R * p.t
        return p.x * math.sin(R * eps) + p.y * math.cos(R * eps), eps

    for chart, locate, ss, aa in ((rc, rc.base.locate, (-2.5, -1.0, 0.5, 2.0),
                                   (-0.9, -0.3, 0.2, 0.8)),
                                  (rh, on_helicoid, (-0.8, 0.2, 0.9), (-0.5, 0.0, 0.4))):
        for s in ss:
            for a in aa:
                got = surface_frame(chart, (s, a))
                want = surface_frame(chart.base, locate(chart.point(s, a)))
                for g, w in ((got.Nh_norm, want.Nh_norm), (abs(got.NT), abs(want.NT)),
                             (got.BZS, want.BZS), (got.q, want.q), (abs(got.H), abs(want.H))):
                    assert abs(g - w) <= 1e-13, (chart.base, s, a, g, w)
