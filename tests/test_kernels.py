"""The velocity-only RK4 stage and the one-sample operator L against the
forms they replace, compared with ``==``, and the shared kernels pinned to
``float.hex`` values."""

import math

import numpy as np
import pytest

from h1geom import surfaces, verify
from h1geom.core import FrameField, Point, flow
from h1geom.geodesics import SERIES_CUTOFF, exp_euclidean, helpers_fgh
from h1geom.errors import NonFiniteValue, SingularPoint, StoppedAtSingular
from h1geom.numerics import QuadratureSpec
from h1geom.stability import (cosine_bump, direct_variations, operator_L, plateau_ramp,
                              separable, tangent_derivative, vertical_variation_second_difference,
                              zero_function)
from h1geom.surfaces import (CatenoidChart, Chart, HelicoidChart, _chart_velocity,
                             catalog_surface, curve_samples, dilated,
                             integrate_tangent_field, rotated,
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
    rk4 = surfaces.integrate_tangent_field

    def counted(*args, **kwargs):
        calls.append(args[1])
        return rk4(*args, **kwargs)

    monkeypatch.setattr(surfaces, "integrate_tangent_field", counted)
    for u in ((0.8, 0.9), (2.0, -0.4), (4.5, 1.2)):
        fr = surface_frame(chart, u)
        zv = tangent_derivative(chart, nh, u, 1, "Z")
        zzv = tangent_derivative(chart, nh, u, 2, "Z")
        want = (zzv + 2.0 / fr.Nh_norm * fr.NT * fr.BZS * zv + fr.q * nh(u)) / fr.Nh_norm
        calls.clear()
        field_calls.clear()
        assert operator_L(chart, nh, u) == want
        # one 4-step RK4 pass per side of u
        assert len(calls) == 2
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


def _parity_xs():
    cut = SERIES_CUTOFF
    edges = [cut * (1 + d) for d in (-1e-12, -2**-52, 0.0, 2**-52, 1e-12)]
    rng = np.random.default_rng(11)
    return ([0.0, 1e-300, 1e-9, 3e-5, math.pi, 1e6, 1e6 - 0.5] + edges
            + rng.uniform(0.0, cut, 20).tolist() + (10.0 ** rng.uniform(-4, 6, 60)).tolist())


def test_helpers_fgh_parity_bitwise():
    # f is even and g, h are odd bit for bit: on floats, and on arrays that
    # are all on the series branch, all on the closed one or mixed
    xs = _parity_xs()
    for x in xs + [-0.0]:
        f, g, h = helpers_fgh(x)
        assert _hex(helpers_fgh(-x)) == _hex((f, -g, -h)), x
    arr = np.array(xs)
    small = np.abs(arr) < SERIES_CUTOFF
    for part in (arr[small], arr[~small], arr, np.array([0.0, -0.0])):
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
    pinned = ("0x1.559ecd0c39e5ep-1", "-0x1.216161d61b5eep+1", "0x1.05ea50ee9ee87p+1")
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
# The one curve walk (curve_samples) and the differences taken on it, pinned
# to the values of the per-offset RK4 legs and paired central_diff calls they
# replaced
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["z", "X", ""])
def test_unknown_tangent_field_is_rejected(which):
    cat = CatenoidChart(1.0)
    nh = lambda u: surface_frame(cat, u).Nh_norm
    for call in (lambda: integrate_tangent_field(cat, (0.4, 0.3), 0.5, 5, which),
                 lambda: curve_samples(cat, (0.4, 0.3), 0.5, 5, which),
                 lambda: tangent_derivative(cat, nh, (0.4, 0.3), 1, which)):
        with pytest.raises(ValueError, match=repr(which)):
            call()


@pytest.mark.parametrize("chart, u, length, steps, which", [
    (CatenoidChart(1.0), (0.4, 0.3), 0.5, 5, "S"),
    (CatenoidChart(1.0), (1.2, 0.5), 1e-4, 4, "Z"),
    (HelicoidChart(2.0), (0.1, 0.1), 0.2, 4, "Z"),
])
def test_curve_samples_are_the_two_passes(chart, u, length, steps, which):
    us = curve_samples(chart, u, length, steps, which)
    fwd = integrate_tangent_field(chart, u, length, steps, which)
    bwd = integrate_tangent_field(chart, u, -length, steps, which)
    assert len(us) == 2 * steps + 1
    for k in range(steps + 1):
        assert _hex(us[steps + k]) == _hex(fwd[k])
        assert _hex(us[steps - k]) == _hex(bwd[k])


def test_curve_samples_raise_the_forward_stop():
    # the Z-line from s = 0 meets the helices s = +-1/2 on both sides
    hel = HelicoidChart(2.0)
    for length in (1.5, -1.5):
        with pytest.raises(StoppedAtSingular):
            integrate_tangent_field(hel, (0.0, 0.1), length, 30, "Z")
    with pytest.raises(StoppedAtSingular, match=r"at \(0\.5, 0\.1\)"):
        curve_samples(hel, (0.0, 0.1), 1.5, 30, "Z")


_TANGENT_PINNED = {  # Z order 1, Z order 2, S order 1, S order 2; then L(|N_h|)
    (0.8, 0.9): (("-0x1.2aae0ea633c00p-8", "0x1.51d80592c0400p-3",
                  "-0x1.042cddcf19800p-9", "0x1.f29d516e14aabp-6"), "0x1.e58ea3d3bc512p-1"),
    (2.0, -0.4): (("-0x1.6fd6e078d1ef5p-3", "0x1.c5bfa80473400p-3",
                   "-0x1.28eec6bf1cd2bp-3", "0x1.fdcab7aa74d55p-3"), "0x1.76d822e7cf68cp+1"),
    (4.5, 1.2): (("-0x1.503c5d5c168abp-5", "0x1.0ae70a1b60000p-6",
                  "-0x1.74a2a4dd48400p-7", "-0x1.8b7204d040000p-10"), "0x1.7d148de34c68bp-2"),
}


@pytest.mark.parametrize("u", list(_TANGENT_PINNED))
def test_tangent_derivatives_pinned_bitwise(u):
    cat = CatenoidChart(1.0)
    nh = lambda p: surface_frame(cat, p).Nh_norm
    got = tuple(_hex(tangent_derivative(cat, nh, u, order, which))
                for which in ("Z", "S") for order in (1, 2))
    assert (got, _hex(operator_L(cat, nh, u))) == _TANGENT_PINNED[u]


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


def test_vertical_variation_second_difference_pinned_bitwise():
    got = vertical_variation_second_difference(2.0, cosine_bump(0, 1), QuadratureSpec(16, (16, 1)))
    assert _hex(got) == ("0x1.3bd3d62f30190p+1", "0x0.0p+0")


def test_ruled_chart_jets_frame_the_base_chart():
    # the seed jets of the S-curve (differences of S and Z along it) frame
    # the base surface: measured 4.7e-12 on the catenoid, 1.3e-12 on the
    # pitch-2 helicoid, at the sample points of check_ruled_charts
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
                    assert abs(g - w) <= 1e-9, (chart.base, s, a, g, w)
