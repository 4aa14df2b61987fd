import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from h1geom import cli, numerics, stability, surfaces, verify
from h1geom.core import Point
from h1geom.errors import (CertificateNotFound, ConfigError, NonFiniteValue, SingularPoint,
                           SupportOutsideDomain, TubeConditionViolated, TubeTooSmall)
from h1geom.numerics import (QuadratureSpec, Taylor, gauss_legendre_1d, integrate_2d,
                             integrate_array_1d, kahan_sum, split_cells, taylor_derivatives)
from h1geom.stability import (H2_QUAD, NOSING_PHI, NOSING_QUAD, TUBE_MARGIN, TUBE_S0,
                              InstabilityCertificate, Profile, RulingFrame, boundary_flux,
                              bracket_integral,
                              bracket_integral_quadrature, certify_instability_h2,
                              certify_instability_nosing, cos_arch, cosine_bump,
                              direct_variations, first_variation_direct,
                              h2_certificate_test_function, helicoid_closed_forms, index_form_I,
                              jacobi_vertical_quadratic, l_nh_closed, operator_L, plateau_ramp,
                              q_form, ruled_index_value, ruling_form,
                              scaled_catenoid_certificate, scaled_helicoid_certificate,
                              second_variation_direct, separable, smooth_bump, times_nh,
                              vertical_variation_area, tangent_derivative,
                              zero_function)
from h1geom.surfaces import (CatenoidChart, CatenoidRulingChart, GraphChart, HelicoidChart,
                             ParaboloidChart, SeedRuledChart, VerticalPlaneChart,
                             ruled_coordinates, surface_frame, surface_frames)
from referees import combined_normal_component

CAT = CatenoidChart(1.0)
HEL2 = HelicoidChart(2.0)
QUAD44 = QuadratureSpec(16, (4, 4))


def nh_field(fr):
    return fr.Nh_norm


# ---------------------------------------------------------------------------
# directional derivatives and the stability operator
# ---------------------------------------------------------------------------

def test_z_derivative_constant():
    for order in (1, 2):
        assert tangent_derivative(CAT, lambda fr: 3.7, (1.0, 0.5), order, "Z") == 0.0


def test_z_derivative_stops_at_singular():
    from h1geom.errors import SingularPoint, StoppedAtSingular
    with pytest.raises((SingularPoint, StoppedAtSingular)):
        tangent_derivative(HEL2, nh_field, (0.5, 0.0), 1, "Z")


def test_z_derivative_nt_identity():
    for chart, u0 in ((HEL2, (0.2, 0.4)), (CAT, (1.3, -0.6))):
        fr = surface_frame(chart, u0)
        znt = tangent_derivative(chart, lambda f: f.NT, u0, 1, "Z")
        assert abs(znt - fr.Nh_norm * (fr.BZS - 1.0)) <= 1e-15


@pytest.mark.parametrize("s, rtol", [(0.4999, 1e-12), (0.499999, 1e-10)])
def test_z_derivative_of_nt_next_to_the_helix(s, rtol):
    # Z<N,T> = |N_h|(<B(Z),S> - 1) at regular points 1e-4 and 1e-6 from the
    # helix s = 1/2 of the pitch-2 helicoid, where the walk of a difference
    # stencil stopped at the helix, or read -3.53e-5 at the second point.
    # On the rulings <N,T> = L/W with L = -2s, C = 2(1/2 - s)(1/2 + s) and
    # W = hypot(C, L), so Z<N,T> = d/ds (L/W) = -C (1 + 4 s^2) / W^3.  The
    # unit normal's Taylor terms are exact to round-off
    # (test_taylor_unit_normal_matches_mpmath); what is left is the
    # horizontal part of F_1 x F_2, about 2e-6 at the second point and
    # formed by cancellation in the chart's own arithmetic: 1.7e-11 relative
    # there, 1.6e-13 at the first
    c, L = 2.0 * (0.5 - s) * (0.5 + s), -2.0 * s
    want = -c * (1.0 + 4.0 * s * s) / math.hypot(c, L) ** 3
    got = tangent_derivative(HEL2, lambda f: f.NT, (s, 0.1), 1, "Z")
    assert abs(got - want) <= rtol * abs(want)
    fr = surface_frame(HEL2, (s, 0.1))
    assert abs(got - fr.Nh_norm * (fr.BZS - 1.0)) <= 10.0 * rtol * abs(want)


@pytest.mark.parametrize("j", range(9))
def test_z_derivative_of_nh_on_small_catenoids(j):
    # Z|N_h| = dNh . z_chart at every scale: the stencil's absolute step read
    # 0.0669 against -10.111 at lam = 1e-5
    lam = 10.0 ** -j
    chart, u = CatenoidRulingChart(lam), (0.3 * lam, 0.2)
    fr = surface_frame(chart, u)
    want = fr.dNh[0] * fr.z_chart[0] + fr.dNh[1] * fr.z_chart[1]
    assert abs(tangent_derivative(chart, nh_field, u, 1, "Z") - want) <= 1e-12 * abs(want)


def test_z_derivative_of_a_float_only_chart_raises():
    # a GraphChart whose partials take floats only has no Taylor jet: one
    # TypeError, not a number without its derivative terms
    exp = math.exp
    graph = GraphChart(lambda x, y: exp(x) * y, lambda x, y: exp(x) * y, lambda x, y: exp(x),
                       lambda x, y: exp(x) * y, lambda x, y: exp(x), lambda x, y: 0.0)
    msg = ("^GraphChart has no derivatives along its curves: its _jet_parts takes no "
           r"Taylor numbers \(must be real number, not Taylor\)$")
    for call in (lambda: tangent_derivative(graph, nh_field, (0.1, 0.2)),
                 lambda: operator_L(graph, nh_field, (0.1, 0.2))):
        with pytest.raises(TypeError, match=msg):
            call()


def test_zz_nh_closed_combination():
    # second ruling derivative of |N_h| against its frame closed form
    for u0 in ((1.0, 0.7), (2.5, -0.4)):
        fr = surface_frame(CAT, u0)
        nh, bzs = fr.Nh_norm, fr.BZS
        want = (-5.0 * nh + 4.0 * nh ** 3 + 2.0 * bzs / nh
                + 2.0 * bzs * bzs / nh - 3.0 * nh * bzs * bzs)
        got = tangent_derivative(CAT, nh_field, u0, 2, "Z")
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


def test_operator_l_examples():
    vp = VerticalPlaneChart()
    assert abs(operator_L(vp, nh_field, (0.2, -0.4))) <= 1e-15
    assert abs(operator_L(CAT, lambda fr: 0.0, (1.0, 0.3))) == 0.0
    for chart, u0 in ((CAT, (0.8, 0.9)), (HEL2, (0.25, -0.3))):
        lc = l_nh_closed(chart, u0)
        ld = operator_L(chart, nh_field, u0)
        assert abs(ld - lc) <= 1e-13 * max(1.0, abs(lc))


def test_lnh_closed_examples():
    assert abs(l_nh_closed(VerticalPlaneChart(), (0.1, 0.1))) <= 1e-15
    vals = [l_nh_closed(CAT, (th, ph)) for th in (0.5, 2.0, 4.5)
            for ph in (-1.2, -0.3, 0.6, 1.4)]
    assert min(vals) >= -1e-8
    # pitch-2 helicoid: q = 0 forces L(|N_h|) = -4 (1 -+ |N_h|)^2/|N_h|^2 <= 0
    assert abs(l_nh_closed(HEL2, (0.0, 0.3)) + 16.0) <= 1e-12
    for s in (-1.1, -0.3, 0.2, 0.8):
        val = l_nh_closed(HEL2, (s, 0.5))
        fr = surface_frame(HEL2, (s, 0.5))
        sign = 1.0 if abs(s) < 0.5 else -1.0
        want = -4.0 * (1.0 + sign * fr.Nh_norm) ** 2 / fr.Nh_norm ** 2
        assert abs(val - want) <= 1e-10
        assert val < 0.0


def test_jacobi_vertical_quadratic():
    a, b, c, disc = jacobi_vertical_quadratic(VerticalPlaneChart(), (0.3, 0.3))
    assert (a, b, c) == (0.0, 0.0, -1.0)
    assert disc == 0.0
    for chart, u0 in ((CAT, (1.9, 0.4)), (HEL2, (0.3, 0.6))):
        a, b, c, disc = jacobi_vertical_quadratic(chart, u0)
        fr = surface_frame(chart, u0)
        assert abs(b + 2.0 * fr.NT) <= 1e-14
        assert abs(c + fr.Nh_norm) <= 1e-14
        assert abs(disc + fr.Nh_norm ** 2 * l_nh_closed(chart, u0)) <= 1e-12


# ---------------------------------------------------------------------------
# index form and the direct second variation
# ---------------------------------------------------------------------------

def test_index_form_zero_and_symmetry():
    v = separable(cosine_bump(1.5, 0.7), cosine_bump(0.3, 0.5))
    assert index_form_I(CAT, zero_function(), v, QUAD44) == 0.0
    w = separable(cosine_bump(1.7, 0.6), cosine_bump(0.1, 0.4))
    assert abs(index_form_I(CAT, v, w, QUAD44)
               - index_form_I(CAT, w, v, QUAD44)) <= 1e-12


@pytest.mark.parametrize("case", ["past_s_1", "pitch2_certificate"])
def test_integrals_refuse_a_support_outside_the_domain(case):
    # clipped to the domain ((-1, 1), (-pi/2, pi/2)), the integral would drop
    # part of u's support: s in [0.55, 1.05], or the pitch-2 certificate's
    # ((-4, 4), (-2.65, 2.65))
    if case == "past_s_1":
        u = separable(cosine_bump(0.8, 0.25), cosine_bump(0.0, 1.0))
    else:
        cert = certify_instability_h2()
        u = h2_certificate_test_function(cert.k, cert.delta, cert.eps0)
    quad = QuadratureSpec(16, (2, 2))
    calls = [lambda: index_form_I(HEL2, u, u, quad),
             lambda: direct_variations(HEL2, u, zero_function(), quad),
             lambda: direct_variations(HEL2, zero_function(), u, quad)]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert isinstance(info.value, SupportOutsideDomain)
        msg = str(info.value)
        assert "\n" not in msg
        assert str(u.support) in msg and str(HEL2.domain) in msg


def test_integrals_accept_a_support_on_the_domain_edge():
    # closed containment: a support that is the whole domain is inside it
    vp = VerticalPlaneChart(domain=((-1.0, 1.0), (-0.5, 0.5)))
    u = separable(cosine_bump(0.0, 1.0), cosine_bump(0.0, 0.5))
    assert index_form_I(vp, u, u, QUAD44) > 0.0
    assert index_form_I(vp, zero_function(), u, QUAD44) == 0.0
    assert direct_variations(vp, zero_function(), zero_function(), QUAD44) == (0.0, 0.0, 0.0)


def test_index_form_vertical_plane_nonnegative():
    # q vanishes on the plane, so I(u,u) = int Z(u)^2 over the chart
    vp = VerticalPlaneChart(domain=((-2, 2), (-2, 2)))
    u = separable(cosine_bump(0.0, 1.0), cosine_bump(0.0, 1.0))
    val = index_form_I(vp, u, u, QUAD44)
    direct = integrate_2d(lambda a, b: u.d1(a, b) ** 2, u.support, QUAD44)
    assert val >= 0.0
    assert abs(val - direct) <= 1e-12


def test_index_form_weighted_identity():
    f = separable(cosine_bump(1.5, 0.8), cosine_bump(0.3, 0.5))
    fnh = times_nh(CAT, f)
    lhs = index_form_I(CAT, fnh, fnh, QUAD44)

    def rhs_int(a, b):
        fr = surface_frame(CAT, (a, b))
        zf = fr.z_chart[0] * f.d1(a, b) + fr.z_chart[1] * f.d2(a, b)
        return fr.Nh_norm * (zf * zf - l_nh_closed(CAT, (a, b)) * f.value(a, b) ** 2) \
            * fr.riem_area

    rhs = integrate_2d(rhs_int, f.support, QUAD44)
    assert abs(lhs - rhs) <= 1e-3 * max(1.0, abs(lhs))


# w is the vertical part of the deformation vN + wT
CAT_V = separable(cosine_bump(1.5, 0.7), cosine_bump(0.3, 0.5))
CAT_W = separable(cosine_bump(1.5, 0.6), cosine_bump(0.35, 0.4))
# its plateau's corners at u2 = +-0.3 are cell edges, as in the index form
CAT_V_KINKED = separable(cosine_bump(1.5, 0.7), plateau_ramp(0.3, 0.35))


def _assert_witness_is_the_index_form(chart, v, w, u, quad):
    # the closed form and the index form are two quadratures of one
    # integral, with u = v + <N,T> w
    a2, a1, a0 = direct_variations(chart, v, w, quad)
    iform = index_form_I(chart, u, u, quad)
    assert abs(a2 - iform) <= 1e-12 * abs(iform)
    assert a0 > 0.0 and abs(a1) <= 1e-10 * a0


def test_second_variation_direct_matches_index_form():
    _assert_witness_is_the_index_form(CAT, CAT_V, zero_function(), CAT_V, QUAD44)


def test_second_variation_direct_cut_at_kinks():
    v = CAT_V_KINKED
    _assert_witness_is_the_index_form(CAT, v, zero_function(), v, QUAD44)
    _assert_witness_is_the_index_form(CAT, v, CAT_W, combined_normal_component(CAT, v, CAT_W),
                                      QUAD44)


def test_direct_variations_raise_at_a_nonfinite_density():
    # the e^2 coefficient of a deformation of size 1e200 leaves the float
    # range, so the A''(0) density is not finite; that raises with no numpy
    # warning
    huge = stability.TestFunction(
        lambda U1, U2, frames=None: tuple(1e200 * c for c in CAT_V.jet(U1, U2, frames)),
        CAT_V.support)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match=r"^non-finite sample in integrate_2d: nan$"):
            direct_variations(CAT, huge, zero_function(), QuadratureSpec(4, (1, 1)))


# supports off the singular sets: the helicoid's helices s = +-1/R, the line
# x = 0 of t = xy; the catenoid's cases are the tests above
_WITNESS_CASES = {
    "helicoid": (HEL2, separable(cosine_bump(0.0, 0.4), cosine_bump(0.0, 1.0)),
                 separable(cosine_bump(0.1, 0.3), cosine_bump(0.1, 0.4))),
    "paraboloid": (ParaboloidChart(), separable(cosine_bump(0.5, 0.3), cosine_bump(0.0, 0.6)),
                   separable(cosine_bump(0.45, 0.25), cosine_bump(0.1, 0.5))),
    "vertical_plane": (VerticalPlaneChart(),
                       separable(cosine_bump(0.0, 0.8), cosine_bump(0.1, 0.7)),
                       separable(cosine_bump(0.1, 0.5), cosine_bump(0.0, 0.6))),
}


@pytest.mark.parametrize("vertical", [False, True])
@pytest.mark.parametrize("case", list(_WITNESS_CASES))
def test_direct_variations_are_the_index_form(case, vertical):
    chart, v, w = _WITNESS_CASES[case]
    if not vertical:
        w = zero_function()
    u = combined_normal_component(chart, v, w) if vertical else v
    _assert_witness_is_the_index_form(chart, v, w, u, QUAD44)


@pytest.mark.parametrize("lam", [s * 10.0 ** j for j in range(-3, 3) for s in (1.0, -1.0)])
def test_direct_variations_are_the_index_form_on_catenoids_across_scales(lam):
    # off the waist s = 0; the witness has no absolute step, so it holds at
    # every scale the cells resolve
    v = separable(cosine_bump(abs(lam), abs(lam) / 2.0), NOSING_PHI)
    _assert_witness_is_the_index_form(CatenoidRulingChart(lam), v, zero_function(), v,
                                      QuadratureSpec(16, (8, 4)))


def test_direct_variations_do_not_depend_on_the_block_size(monkeypatch):
    quad = QuadratureSpec(16, (8, 4))
    want = direct_variations(CAT, CAT_V_KINKED, CAT_W, quad)
    monkeypatch.setattr(numerics, "CELL_BLOCK_NODES", 256)
    got = direct_variations(CAT, CAT_V_KINKED, CAT_W, quad)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_second_variation_with_vertical_component():
    u = combined_normal_component(CAT, CAT_V, CAT_W)
    _assert_witness_is_the_index_form(CAT, CAT_V, CAT_W, u, QUAD44)


def test_second_variation_zero_deformation():
    assert second_variation_direct(CAT, zero_function(), zero_function(), QUAD44) == 0.0


def test_first_variation_stationary():
    a1, a0 = first_variation_direct(CAT, CAT_V, zero_function(), QUAD44)
    assert a0 > 0.0
    assert abs(a1) <= 1e-10 * a0


def test_first_variation_stationary_helicoid_patch():
    # compactly supported in the regular strip 0.1 < s < 0.4
    v = separable(cosine_bump(0.25, 0.15), cosine_bump(0.0, 0.5))
    quad = QuadratureSpec(16, (3, 3))
    a1, a0 = first_variation_direct(HEL2, v, zero_function(), quad)
    assert a0 > 0.0
    assert abs(a1) <= 1e-6 * a0


def test_composed_test_functions_keep_the_kinks_of_their_factors():
    # the plateau_ramp kinks at s = +-0.2 cut the cells of the composed
    # fields too, so the coarse rule is already converged
    f = separable(cosine_bump(1.5, 0.7), plateau_ramp(0.2, 0.3))
    for u in (times_nh(CAT, f), combined_normal_component(CAT, f, f)):
        assert {-0.2, 0.2} <= set(u.kinks[1])
        coarse = index_form_I(CAT, u, u, QUAD44)
        fine = index_form_I(CAT, u, u, QuadratureSpec(16, (16, 16)))
        assert abs(coarse - fine) <= 1e-12 * abs(fine)


def test_combined_normal_component_with_zero_w_is_v():
    # the empty support of the zero function does not stretch the union
    v = separable(cosine_bump(1.5, 0.7), cosine_bump(0.3, 0.5))
    u = combined_normal_component(CAT, v, zero_function())
    assert u.support == v.support
    want = index_form_I(CAT, v, v, QUAD44)
    assert abs(index_form_I(CAT, u, u, QUAD44) - want) <= 1e-14 * abs(want)


# ---------------------------------------------------------------------------
# the index form at every scale
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [s * 10.0 ** j for j in range(-8, 9) for s in (1.0, -1.0)])
def test_index_form_is_the_ruling_form_at_every_scale(lam):
    # the input of ruled_index_value: as A'' of F + e f nu_h the index form
    # keeps the dilation law; the Riemannian integrand was off by a relative
    # 978 at lam = 1e-8 and 4.0 at 1e8
    chart, psi = CatenoidRulingChart(lam), cosine_bump(0.0, 2.0 * abs(lam))
    quad = QuadratureSpec(16, (8, 4))
    u = times_nh(chart, separable(psi, NOSING_PHI))
    want = ruling_form(chart, psi, NOSING_PHI, quad)
    assert abs(index_form_I(chart, u, u, quad) - want) <= 1e-14 * abs(want)


def test_index_form_over_lam_is_constant_on_catalog_catenoids():
    # check_second_variation's v on CatenoidChart(10^j), j = -8 ... 8: 3.3117
    # at every lam, where the Riemannian integrand read 249 at 1e-8 and
    # -1.4e16 at 1e8
    v = separable(cosine_bump(1.5, 0.7), cosine_bump(0.3, 0.5))
    vals = []
    for lam in (10.0 ** j for j in range(-8, 9)):
        chart = CatenoidChart(lam)
        u = times_nh(chart, v)
        vals.append(index_form_I(chart, u, u, QUAD44) / lam)
    assert max(vals) - min(vals) <= 1e-14 * abs(vals[8])


def test_index_form_reads_f_only_on_the_chart_of_times_nh():
    # times_nh(other, f) on CAT is a general u, read as f = u/|N_h| on CAT
    f = separable(cosine_bump(1.5, 0.7), cosine_bump(0.3, 0.5))
    u = times_nh(CatenoidChart(1.3), f)
    general = dataclasses.replace(u, nh_factor=None)
    got = index_form_I(CAT, u, u, QUAD44)
    assert got.hex() == index_form_I(CAT, general, general, QUAD44).hex()
    fnh = times_nh(CAT, f)
    assert abs(got - index_form_I(CAT, fnh, fnh, QUAD44)) > 1e-6


def test_index_form_polarizes_to_the_quadratic_form():
    # 1/4 [A''(2f) - A''(0)] is A''(f) bit for bit: doubling f is exact
    f = separable(cosine_bump(1.5, 0.7), cosine_bump(0.3, 0.5))
    u, same = times_nh(CAT, f), times_nh(CAT, f)
    assert index_form_I(CAT, u, same, QUAD44).hex() == index_form_I(CAT, u, u, QUAD44).hex()


def _frames_read(monkeypatch):
    """Record the number of points of every frame batch ``stability`` computes."""
    sizes = []
    real = stability.surface_frames

    def spy(chart, U1, U2, *args, **kw):
        sizes.append(np.size(U1))
        return real(chart, U1, U2, *args, **kw)

    monkeypatch.setattr(stability, "surface_frames", spy)
    return sizes


def test_frame_factors_read_no_frame_where_they_vanish(monkeypatch):
    # f vanishes with its partials on the singular helix s = 1/2 of HEL2;
    # g does not
    f = separable(cosine_bump(0.25, 0.15), cosine_bump(0.0, 0.5))
    g = separable(cosine_bump(0.5, 0.2), cosine_bump(0.0, 0.5))
    other = HelicoidChart(1.0)  # regular at s = 1/2
    S, E = np.array([0.5, 0.5, 0.3]), np.array([0.0, 0.3, 0.1])
    other_frames = (other, surface_frames(other, S, E))
    fr = surface_frame(HEL2, (0.3, 0.1))
    # each field, the field it equals at the two singular points, and its
    # value at the regular one
    cases = [(times_nh(HEL2, f), zero_function(), f.value(0.3, 0.1) * fr.Nh_norm),
             (combined_normal_component(HEL2, g, f), g,
              g.value(0.3, 0.1) + fr.NT * f.value(0.3, 0.1))]
    sizes = _frames_read(monkeypatch)
    for u, base, regular in cases:
        for view, want in zip((u.value, u.d1, u.d2), (base.value, base.d1, base.d2)):
            assert [view(0.5, e) for e in E[:2]] == [want(0.5, e) for e in E[:2]]
        for frames in (None, other_frames):
            sizes.clear()
            jet = u.jet(S, E, frames)
            assert sizes == [1]  # the frame at the regular point only
            assert [c[:2].tolist() for c in jet] == [c[:2].tolist() for c in base.jet(S, E)]
            assert jet[0][2] == pytest.approx(regular, rel=1e-13)
    # where the frame factor does not vanish, the singular frame is read
    for u in (times_nh(HEL2, g), combined_normal_component(HEL2, f, g)):
        with pytest.raises(SingularPoint):
            u.value(0.5, 0.0)
        for frames in (None, other_frames):
            with pytest.raises(SingularPoint):
                u.jet(S, E, frames)


def test_combined_normal_component_znt():
    # chart derivatives of <N,T> used by the combination satisfy the closed
    # characteristic identity
    u0 = (1.2, 0.5)
    fr = surface_frame(CAT, u0)
    znt = fr.z_chart[0] * fr.dNT[0] + fr.z_chart[1] * fr.dNT[1]
    assert abs(znt - fr.Nh_norm * (fr.BZS - 1.0)) <= 1e-12
    snt = fr.s_chart[0] * fr.dNT[0] + fr.s_chart[1] * fr.dNT[1]
    assert abs(snt - fr.Nh_norm * fr.BSS) <= 1e-12
    znh = fr.z_chart[0] * fr.dNh[0] + fr.z_chart[1] * fr.dNh[1]
    assert abs(znh - fr.NT * (1.0 - fr.BZS)) <= 1e-12


# ---------------------------------------------------------------------------
# the helicoid quadratic form and certificates
# ---------------------------------------------------------------------------

def test_bracket_integral():
    c = bracket_integral(0.6, 2.2)
    assert c < 8.0
    assert abs(c - 7.7723585249161935) <= 1e-12
    q = bracket_integral_quadrature(0.6, 2.2, QuadratureSpec(16, (64, 1)))
    assert abs(c - q) <= 1e-10
    q13 = bracket_integral_quadrature(1.0, 3.0, QuadratureSpec(16, (64, 1)))
    assert abs(bracket_integral(1.0, 3.0) - q13) <= 1e-10
    assert bracket_integral(0.5001, 2.0002) > 8.0
    with pytest.raises(ValueError):
        bracket_integral(0.5, 1.0)


def test_phi_k_delta():
    prof = h2_certificate_test_function(0.6, 2.2, 1.0).sep[1]
    assert prof.value(0.0) == 1.0
    assert prof.value(0.55) == 1.0
    assert prof.value(-0.55) == 1.0
    assert abs(prof.value(1.7) - (0.6 + 2.2 - 1.7) / 2.2) <= 1e-15
    assert prof.value(3.0) == 0.0
    assert prof.deriv(0.3) == 0.0
    assert prof.deriv(1.0) == -1.0 / 2.2
    assert prof.deriv(-1.0) == 1.0 / 2.2
    with pytest.raises(ValueError):
        h2_certificate_test_function(0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        h2_certificate_test_function(0.8, 0.0, 1.0)


def test_profiles_reject_a_reversed_support():
    # a profile integral runs from support[0] to support[1], so a reversed
    # support would flip the sign of every term of q_form
    for build in (lambda: cosine_bump(0.0, -1.0), lambda: smooth_bump(0.3, -0.5),
                  lambda: cos_arch(-2.0), lambda: cosine_bump(0.0, math.nan),
                  lambda: Profile(math.cos, math.sin, (1.0, -1.0))):
        with pytest.raises(ValueError, match="not an interval"):
            build()
    assert cos_arch(0.0).support == (-0.0, 0.0)


def test_q_form_certificate_decomposition():
    # Q(u) = C(k, delta) int phi^2 - 8 int phi^2 + 2 int phi'^2 at pitch 2
    k, delta, eps0 = 0.6, 2.2, 10.0
    u = h2_certificate_test_function(k, delta, eps0)
    quad = QuadratureSpec(16, (64, 1))
    q = q_form(2.0, u, quad)
    int_phi2 = eps0
    int_dphi2 = (math.pi / (2 * eps0)) ** 2 * eps0
    want = (bracket_integral(k, delta) - 8.0) * int_phi2 + 2.0 * int_dphi2
    assert abs(q - want) <= 1e-9 * abs(want)
    # the guaranteed Rayleigh bound from the construction
    assert q / int_phi2 < -0.17


def test_q_form_zero_and_regular_support():
    zero_prof = Profile(lambda s: 0.0, lambda s: 0.0, (-3.0, 3.0))
    u0 = separable(zero_prof, plateau_ramp(0.6, 1.0))
    assert q_form(2.0, u0, QuadratureSpec(16, (16, 1))) == 0.0

    u = separable(cosine_bump(0.0, 1.0), cosine_bump(1.0, 0.35))
    val = q_form(2.0, u, QuadratureSpec(16, (32, 1)))
    assert val >= -1e-10
    assert val > 0.0


def test_q_form_tube_margin_scales_with_pitch():
    # the window around s = 1/R is the pitch-2 window dilated by 2/R
    quad = QuadratureSpec(16, (16, 1))
    for R in (1.0, 2.0, 4.0):
        margin = TUBE_MARGIN * 2.0 / R

        def u(gap):
            return separable(cosine_bump(0.0, 1.0), plateau_ramp(1.0 / R + gap, 1.0))

        q_form(R, u(1.2 * margin), quad)
        with pytest.raises(TubeConditionViolated):
            q_form(R, u(0.8 * margin), quad)


def test_q_form_tube_condition_enforced():
    # an s-profile varying across the singular helix is rejected
    u = separable(cosine_bump(0.0, 1.0), cosine_bump(0.5, 0.3))
    with pytest.raises(TubeConditionViolated):
        q_form(2.0, u, QuadratureSpec(16, (16, 1)))
    with pytest.raises(TubeConditionViolated):
        q_form(2.0, combined_normal_component(HEL2, u, zero_function()),
               QuadratureSpec(16, (16, 1)))


def test_q_form_tube_condition_is_exact():
    # an s-bump of width 8e-4 inside the window [0.45, 0.55] around s = 1/2,
    # between any two of 33 equally spaced samples of it
    u = separable(cos_arch(4), cosine_bump(0.4995, 0.0004))
    with pytest.raises(TubeConditionViolated, match="varies along rulings near s = 0.5"):
        q_form(2.0, u, H2_QUAD)
    ramp = plateau_ramp(0.6, 1.0)
    assert ramp.flat_on(-0.6, 0.6) and ramp.flat_on(1.6, 9.0) and ramp.flat_on(-9.0, -1.6)
    assert not ramp.flat_on(0.5, 0.7) and not ramp.flat_on(-1.7, -1.5)
    assert cosine_bump(0.0, 1.0).flat_on(1.0, 2.0) and not cosine_bump(0.0, 1.0).flat_on(0.9, 2.0)


def test_h2_certificate():
    cert = certify_instability_h2()
    assert cert.Q_value < 0.0
    assert cert.C is not None and cert.C < 8.0
    assert cert.delta == 2.0 * cert.k + 1.0
    # the search confirms its grid point at doubled resolution itself
    u = h2_certificate_test_function(cert.k, cert.delta, cert.eps0)
    assert cert.Q_value_doubled == q_form(2.0, u, H2_QUAD.doubled())
    assert cert.Q_value_doubled < 0.0


def test_h2_certificate_is_pinned_bitwise():
    # Q at the rule and at its doubling, to the last bit: a change to the
    # closed frame the q_form integrands read shows here first
    cert = certify_instability_h2()
    assert cert.Q_value.hex() == "-0x1.542ddb89414c8p-2"
    assert cert.Q_value_doubled.hex() == "-0x1.542ddb8941488p-2"


def test_certificate_serialization_roundtrip():
    cert = certify_instability_h2()
    text = cert.to_text()
    back = InstabilityCertificate.from_text(text)
    assert back == cert
    assert text.splitlines()[-1] == f"Q_value_doubled={cert.Q_value_doubled:.17g}"
    assert "surface=helicoid R=2" in text


def test_scaled_certificates():
    base = certify_instability_h2()
    for R in (4.0, 1.0):
        lam = math.log(2.0 / R)
        cert = scaled_helicoid_certificate(base, R)
        assert cert.Q_value == math.exp(3.0 * lam) * base.Q_value
        assert cert.Q_value < 0.0
        assert abs(cert.k - math.exp(lam) * base.k) <= 1e-15
        # the base's doubled value stands for it; the text has no such line
        assert cert.Q_value_doubled is None
        assert "Q_value_doubled" not in cert.to_text()
    # for R > 2 the pulled-back scalar happens to be its own negative
    # witness as well (the potential term has the helpful sign there)
    cert4 = scaled_helicoid_certificate(base, 4.0)
    u4 = separable(cos_arch(cert4.eps0), plateau_ramp(cert4.k, cert4.delta))
    assert q_form(4.0, u4, base.quad) < 0.0


def test_catenoid_certificate():
    cert = certify_instability_nosing()
    assert cert.surface == "catenoid lam=1"
    assert (cert.k, cert.eps0, cert.quad) == (2.0, 1.0, NOSING_QUAD)
    assert cert.Q_value == ruled_index_value(1.0, NOSING_QUAD) < 0.0
    assert cert.Q_value_doubled < 0.0


def test_vertical_plane_has_no_certificate():
    # the same recipe |N_h| phi psi on the plane x = 0, whose rulings are the
    # y-lines (u1): there q = 0 and |N_h| = 1, so I = int phi^2 int psi'^2 =
    # (3/4) pi^2/(4 w) > 0 for every half-width w of psi
    for w in (1.0, 2.0, 4.0, 8.0):
        vp = VerticalPlaneChart(domain=((-w, w), (-1.0, 1.0)))
        u = times_nh(vp, separable(cosine_bump(0.0, w), NOSING_PHI))
        val = index_form_I(vp, u, u, QuadratureSpec(16, (8, 1)))
        assert val > 0.0
        assert abs(val - 3.0 * math.pi ** 2 / (16.0 * w)) <= 1e-12 * val


@pytest.mark.parametrize("lam", [1.0, -2.5])
def test_nosing_search_confirms_at_doubled_resolution(lam):
    # the unit form at its doubling, times |lam|; the direct form at lam
    # agrees to round-off
    cert = scaled_catenoid_certificate(certify_instability_nosing(), lam)
    doubled = NOSING_QUAD.doubled()
    assert cert.Q_value_doubled == abs(lam) * ruled_index_value(1.0, doubled) < 0.0
    direct = ruled_index_value(lam, doubled)
    assert abs(cert.Q_value_doubled - direct) <= 1e-15 * abs(direct)


def test_nosing_certificate_keeps_its_unit_bits():
    # lam = +-1 scale by exactly 1: the values of the form at lam = 1
    unit = certify_instability_nosing()
    for lam in (1.0, -1.0):
        cert = scaled_catenoid_certificate(unit, lam)
        assert cert.to_text() == unit.to_text().replace("lam=1", f"lam={lam:.17g}")
        assert (cert.Q_value.hex(), cert.Q_value_doubled.hex()) == (
            "-0x1.abf29641a4fa8p+0", "-0x1.abf29641a4fa7p+0")
        assert (cert.k, cert.eps0, cert.quad) == (2.0, 1.0, NOSING_QUAD)


@pytest.mark.parametrize("lam", [0.0, 1e-170, -2e154, math.inf, math.nan])
def test_scaled_catenoid_certificate_needs_a_lam_the_chart_accepts(lam):
    unit = certify_instability_nosing()
    with pytest.raises(ValueError, match="lam\\^2 must be positive and finite"):
        scaled_catenoid_certificate(unit, lam)


def test_catenoid_certificate_scale_law():
    # Q is |lam| Q(1) at 1x and 2x, one rounded product each, at every lam
    # the chart accepts: so Q/|lam| is Q(1) to within that rounding, one ulp
    unit = certify_instability_nosing()
    edges = [1.3e154, -1.3e154, 3e-162, -3e-162]
    for lam in [(-1.0) ** j * 10.0 ** j for j in range(-161, 154)] + edges:
        cert = scaled_catenoid_certificate(unit, lam)
        assert (cert.k, cert.eps0, cert.quad) == (2.0 * abs(lam), 1.0, NOSING_QUAD)
        for got, one in ((cert.Q_value, unit.Q_value),
                         (cert.Q_value_doubled, unit.Q_value_doubled)):
            assert got == abs(lam) * one
            assert abs(got / abs(lam) - one) <= math.ulp(one), lam
        assert cert.surface == f"catenoid lam={lam:.17g}"
        parsed = InstabilityCertificate.from_text(cert.to_text())
        assert parsed == cert
        assert float(parsed.surface.partition("lam=")[2]) == lam


@pytest.mark.parametrize("lam", [1.0, -2.5, 0.01])
def test_one_a_cell_is_enough(lam):
    # rotations about the t-axis are shifts in a: the integrand depends on a
    # only through phi, so more a-cells change nothing
    one = ruled_index_value(lam, NOSING_QUAD)
    assert abs(one - ruled_index_value(lam, QuadratureSpec(16, (8, 8)))) <= 1e-10 * abs(one)


@pytest.mark.parametrize("lam, cuts", [(1.0, (-2.0, -1.0, 1.0, 2.0)), (-2.5, (-5.0, 5.0))])
def test_ruled_index_value_separates(lam, cuts):
    # every frame quantity depends on s alone and Z = +-d/ds, so
    # I(u, u) = int phi^2 da * int |N_h|^{-1} ((|N_h| psi)'^2 - q |N_h|^2 psi^2) |F_s x F_a| ds
    chart = CatenoidRulingChart(lam)
    psi = cosine_bump(0.0, 2.0 * abs(lam))

    def along(s):
        fr = surface_frames(chart, s, np.zeros_like(s))
        nh, dnh = fr.Nh_norm, fr.dNh[0]
        du = dnh * psi.values(s) + nh * psi.derivs(s)
        return (du * du - fr.q * (nh * psi.values(s)) ** 2) / nh * fr.riem_area

    quad = QuadratureSpec(16, (16, 1))
    j = kahan_sum([integrate_array_1d(along, lo, hi, 16, n)
                   for lo, hi, n in split_cells(list(cuts), 16)])
    phi2 = integrate_array_1d(lambda a: NOSING_PHI.values(a) ** 2, -1.0, 1.0, 16, 1)
    want = ruled_index_value(lam, quad)
    assert abs(phi2 * j - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("chart, psi", [
    (ParaboloidChart(), cosine_bump(0.0, 0.5)),  # across x = 0 on t = xy
    (ParaboloidChart(), cosine_bump(-0.25, 0.25)),  # the closed support ends on x = 0
    (HEL2, cosine_bump(0.5, 0.1)),  # across s = 1/R
    (HEL2, cosine_bump(-0.6, 0.3)),  # across s = -1/R
    (HelicoidChart(0.7), cosine_bump(0.0, 2.0)),  # across both helices s = +-1/0.7
])
def test_ruling_form_refuses_a_root_of_C(chart, psi):
    with pytest.raises(SingularPoint) as info:
        ruling_form(chart, psi, cosine_bump(0.0, 0.5), QUAD44)
    assert "has a root in psi's support" in str(info.value)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("chart, psi", [
    (VerticalPlaneChart(), cosine_bump(0.0, 1.0)),
    (ParaboloidChart(), cosine_bump(0.5, 0.45)),
    (ParaboloidChart(), cosine_bump(-0.5, 0.45)),
    (HEL2, cosine_bump(0.0, 0.45)),
    (HEL2, cosine_bump(0.75, 0.2)),
])
def test_ruling_form_is_nonnegative_where_b2_exceeds_thp_c0(chart, psi):
    # b^2 - th' c0 >= 0 on these rulings: both terms of the form are >= 0
    tp, b, c0 = chart.ruling_coefficients(0.0, math)
    assert b * b - tp * c0 >= 0.0
    assert ruling_form(chart, psi, cosine_bump(0.0, 0.5), QUAD44) > 0.0


def test_ruling_form_needs_ruling_coefficients():
    class Unlabelled(SeedRuledChart):
        domain = ((-1.0, 1.0), (-1.0, 1.0))

        def _seed(self, a, m):
            return VerticalPlaneChart._seed(self, a, m)

    # RuledChart's coefficients differ from ruling to ruling: refused before its curve is walked
    for chart in (Unlabelled(), verify._ruled_charts()[1]):
        refusal = f"{type(chart).__name__} declares no ruling coefficients"
        with pytest.raises(ValueError, match=refusal):
            ruling_form(chart, cosine_bump(0.0, 0.5), cosine_bump(0.0, 0.5), QUAD44)
        with pytest.raises(ValueError, match=refusal):
            RulingFrame(chart, 0.3)
    with pytest.raises(SupportOutsideDomain):
        ruling_form(VerticalPlaneChart(), cosine_bump(0.0, 1.5), cosine_bump(0.0, 0.5), QUAD44)


@pytest.mark.parametrize("chart, S", [
    (VerticalPlaneChart(), np.linspace(-0.9, 0.9, 7)),
    (ParaboloidChart(), np.array([-0.9, -0.5, -0.1, 0.2, 0.6, 0.95])),  # clear of x = 0
    (HEL2, np.array([-0.9, -0.7, -0.3, 0.0, 0.2, 0.45, 0.55, 0.9])),  # clear of s = +-1/2
    (HelicoidChart(0.7), np.array([-2.5, -1.0, 0.3, 1.2, 1.6, 2.8])),
    (CatenoidRulingChart(1.0), np.array([-5.0, -1.3, -0.2, 0.0, 0.4, 1.0, 3.7])),
    (CatenoidRulingChart(-2.5), 2.5 * np.array([-5.0, -1.3, -0.2, 0.0, 0.4, 1.0, 3.7])),
    (CatenoidRulingChart(1e3), 1e3 * np.array([-5.0, -1.3, -0.2, 0.0, 0.4, 1.0, 3.7])),
], ids=["vertical_plane", "t=xy", "helicoid2", "helicoid0.7", "catenoid1", "catenoid-2.5",
        "catenoid1e3"])
def test_ruling_frame_matches_the_frame_kernel(chart, S):
    # the frame from the three ruling coefficients alone, against the frame
    # kernel on every ruling of a 5-ruling grid, relative with a floor of 1
    lo, hi = chart.domain[1]
    SS, AA = (g.ravel() for g in np.meshgrid(S, np.linspace(max(lo, -3.0), min(hi, 3.0), 5)))
    fr = surface_frames(chart, SS, AA)
    d = RulingFrame(chart, SS)
    for got, want in ((d.Nh, fr.Nh_norm), (d.NT, fr.NT), (d.W, fr.riem_area),
                      (d.BZS, fr.BZS), (d.q, fr.q)):
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    # the scalar view is the array's, point by point
    for i in (0, len(S) // 2, len(S) - 1):
        one = RulingFrame(chart, float(S[i]))
        assert abs(one.q - d.q[i]) <= 1e-15 * max(1.0, abs(one.q))
        assert one.C == d.C[i] and one.L == d.L[i]


def test_ruling_frame_has_no_potential_at_pitch_2():
    # th'^2 + 4 (th' c0 - b^2) = R^2 - 4: exactly 0.0 at R = 2, so q_form
    # skips its potential term there with no pitch test
    assert RulingFrame(HEL2, 0.3).weight == 0.0
    assert RulingFrame(HEL2, np.array([0.1, 0.3, 0.9])).q.tolist() == [0.0, 0.0, 0.0]
    assert RulingFrame(HelicoidChart(1.0), 0.3).weight == -3.0
    with pytest.raises(ValueError, match="declares no ruling coefficients"):
        RulingFrame(CAT, 0.3)


@pytest.mark.parametrize("R", [-2.0, 0.0, math.inf, math.nan, 1e-320])
def test_helicoid_functions_refuse_a_pitch_no_helicoid_has(R):
    # each refuses, with HelicoidChart's one ValueError, every R that
    # HelicoidChart refuses, before any numpy warning
    quad = QuadratureSpec(16, (16, 1))
    u = separable(cosine_bump(0.0, 1.0), cosine_bump(0.0, 0.3))
    v = separable(cosine_bump(0.0, 1.0), Profile(lambda s: 1.0, lambda s: 0.0, (-10.0, 10.0)))
    w = cosine_bump(0.0, 1.0)
    calls = [lambda: q_form(R, u, quad), lambda: helicoid_closed_forms(R, 0.3),
             lambda: boundary_flux(R, v, quad),
             lambda: vertical_variation_area(R, w, 0.0, quad),
             lambda: vertical_variation_area(R, w, Taylor(0.0, 1.0), quad)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=r"R must be positive and finite, and pi/R finite"):
                call()


def _exact_q(chart, s):
    """weight C^2/(C^2 + L^2)^2 of ``RulingFrame(chart, s)``, evaluated in
    ``Fraction`` from the float coefficients and s, then rounded once."""
    tp, b, c0 = map(Fraction, chart.ruling_coefficients(0.0, math))
    s = Fraction(s)
    c, el = (tp * s + 2 * b) * s + c0, b + tp * s
    return float((tp * tp + 4 * (tp * c0 - b * b)) * c * c / (c * c + el * el) ** 2)


def test_helicoid_functions_name_a_pitch_where_w_squared_overflows():
    # a pitch HelicoidChart accepts, far from 1: W^2 overflows on the
    # test function's rulings, and q_form raises NonFiniteValue naming R,
    # where numpy warned or -inf came back.  q itself is finite there: C/W^2
    # stays in range where W^4 does not
    quad = QuadratureSpec(16, (16, 1))
    v = separable(cosine_bump(0.0, 1.0), Profile(lambda s: 1.0, lambda s: 0.0, (-10.0, 10.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match=r"R=1e-200"):
            q_form(1e-200, v, quad)
        assert math.isfinite(q_form(1e-3, v, quad))  # and below overflow, Q is finite
        for chart, s in ((HelicoidChart(1e-100), 3e99),
                         (HelicoidChart(1e-60), np.array([0.0, 3e99, 4e99]))):
            got = np.atleast_1d(RulingFrame(chart, s).q).tolist()
            for g, x in zip(got, np.atleast_1d(s).tolist()):
                want = _exact_q(chart, x)
                assert math.isfinite(g) and abs(g - want) <= 1e-15 * abs(want), (chart, x, g)


@pytest.mark.parametrize("support", [
    ((2.2, 0.8), (-0.2, 0.8)), ((0.8, 2.2), (0.8, -0.2)), ((math.nan, 2.2), (-0.2, 0.8)),
    ((0.8, 2.2), (-0.2, math.nan)), ((0.8, 2.2),), ((0.8, 2.2), (-0.2, 0.8), (0.0, 1.0)),
    ((0.8,), (-0.2, 0.8)),
])
def test_test_functions_refuse_a_support_that_is_not_two_intervals(support):
    # reversed, the u1-support (2.2, 0.8) read as the zero function: I(v, v)
    # was 0.0 where the forward support gives 3.5865, and A'' 0.0
    v = separable(cosine_bump(1.5, 0.7), cosine_bump(0.3, 0.5))
    with pytest.raises(ValueError, match="is not two intervals"):
        stability.TestFunction(v.jet, support)
    assert stability.TestFunction(v.jet, stability.EMPTY_SUPPORT).support == \
        stability.EMPTY_SUPPORT
    assert abs(index_form_I(CAT, v, v, QUAD44) - 3.5865) <= 1e-4

@pytest.mark.parametrize("lam", [1e-3, 0.25, 1.0, -1.5, 4.0])
def test_nosing_certificate_makes_one_cut_pass_per_resolution(monkeypatch, lam):
    # the ruling form: one uncut 1-D pass along s and one across a at each
    # resolution, and no frame kernel or 2-D rule anywhere
    calls = []

    def spy(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (stability, surfaces):
        spy(module, "surface_frames")
    spy(stability, "integrate_cells")
    spy(stability, "integrate_array_1d")
    scaled_catenoid_certificate(certify_instability_nosing(), lam)
    assert calls == ["integrate_array_1d"] * 4


def test_nosing_certificate_needs_a_negative_value(monkeypatch):
    # the unit catenoid is confirmed; every lam scales its certificate
    monkeypatch.setattr(stability, "ruled_index_value", lambda lam, quad: 0.0)
    with pytest.raises(CertificateNotFound, match=re.escape(
            "I(u, u) = 0.0 is not negative on the unit catenoid lam=1")):
        certify_instability_nosing()


@pytest.mark.parametrize("lam", [1e-9, -1e-9, 1e-4, 1e5, 1e30])
def test_nosing_certificate_needs_agreement_under_doubling(monkeypatch, lam):
    # the unit Q negative at both resolutions, but 1x and 2x differ by more
    # than DOUBLING_RTOL: no unit certificate, so none to scale to any lam;
    # just inside it, the unit certificate, which scales by |lam|
    def doubled_by(gap):
        def fake(at, quad):
            assert at == 1.0
            return -1.0 if quad == NOSING_QUAD else -1.0 - gap
        monkeypatch.setattr(stability, "ruled_index_value", fake)

    doubled_by(2.0 * stability.DOUBLING_RTOL)
    with pytest.raises(CertificateNotFound, match=re.escape(
            "differ by more than 1e-06 relative on the unit catenoid lam=1")):
        certify_instability_nosing()
    doubled_by(0.5 * stability.DOUBLING_RTOL)
    cert = scaled_catenoid_certificate(certify_instability_nosing(), lam)
    assert (cert.Q_value, cert.Q_value_doubled) == (
        abs(lam) * -1.0, abs(lam) * (-1.0 - 0.5 * stability.DOUBLING_RTOL))


def test_h2_certificate_needs_agreement_under_doubling(monkeypatch):
    # a doubled value just outside DOUBLING_RTOL of a negative Q fails the search
    monkeypatch.setattr(stability, "q_form", lambda R, u, quad: -1.0 if quad == H2_QUAD
                        else -1.0 - 2.0 * stability.DOUBLING_RTOL)
    with pytest.raises(CertificateNotFound, match="helicoid R=2"):
        certify_instability_h2()
    monkeypatch.setattr(stability, "q_form", lambda R, u, quad: -1.0 if quad == H2_QUAD
                        else -1.0 - 0.5 * stability.DOUBLING_RTOL)
    assert certify_instability_h2().Q_value_doubled == -1.0 - 0.5 * stability.DOUBLING_RTOL


def test_catenoid_certify_integrates_no_tangent_field(monkeypatch, tmp_path):
    calls = []
    rk4 = surfaces.integrate_tangent_field

    def counted(*args, **kwargs):
        calls.append(args)
        return rk4(*args, **kwargs)

    monkeypatch.setattr(surfaces, "integrate_tangent_field", counted)
    assert cli.main(["certify", "catenoid", "--lam=-1.7", "--out", str(tmp_path / "c.txt")]) == 0
    assert calls == []


@pytest.mark.parametrize("edit, key", [
    (lambda t: t.replace("quad_cells=64,1\n", ""), "quad_cells"),
    (lambda t: t.replace("k=0.55000000000000004", "k=abc"), "k"),
    (lambda t: t.replace("quad_points_per_cell=16", "quad_points_per_cell=5"),
     "quad_points_per_cell"),
    (lambda t: t.replace("quad_cells=64,1", "quad_cells=64"), "quad_cells"),
    (lambda t: t.replace("quad_cells=64,1", "quad_cells=0,1"), "quad_cells"),
])
def test_certificate_parse_errors_name_the_key(edit, key):
    text = certify_instability_h2().to_text()
    bad = edit(text)
    assert bad != text
    with pytest.raises(ConfigError, match=repr(key)) as info:
        InstabilityCertificate.from_text(bad)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("key, value", [
    ("k", "nan"), ("eps0", "inf"), ("Q_value", "-inf"), ("Q_value_doubled", "nan"),
    ("delta", "inf"), ("C", "-nan"),
])
def test_certificate_parse_rejects_non_finite_numbers(key, value):
    text = certify_instability_h2().to_text()
    bad = "".join(f"{key}={value}\n" if line.startswith(f"{key}=") else line
                  for line in text.splitlines(keepends=True))
    assert bad.count(f"{key}={value}\n") == 1
    with pytest.raises(ConfigError, match=repr(key)) as info:
        InstabilityCertificate.from_text(bad)
    assert "\n" not in str(info.value)


def test_ruled_index_l_translation_identity():
    # L(|N_h|) from the base-point quadratic agrees with the closed form
    # evaluated at the translated point of the ruling
    rc = ruled_coordinates(CAT, CAT.locate(Point(math.sqrt(2.0), 0.0, 1.0)),
                           1.0, (-4, 4))
    for s, eps in ((1.3, 0.0), (-2.0, 0.5), (3.1, -0.7)):
        u_g = rc.curve_chart_point(eps)
        a, b, c, disc = jacobi_vertical_quadratic(CAT, u_g)
        vt = a * s * s + b * s + c
        l_from_quad = -disc / (vt * vt)
        p = rc.point(s, eps)
        l_direct = l_nh_closed(CAT, CAT.locate(p))
        assert abs(l_from_quad - l_direct) <= 1e-4 * max(1.0, abs(l_direct))


# ---------------------------------------------------------------------------
# vertical variations and the boundary flux
# ---------------------------------------------------------------------------

def test_vertical_variation_independent_of_r_when_constant():
    flat = Profile(lambda e: 1.0, lambda e: 0.0, (-1.0, 1.0))
    quad = QuadratureSpec(16, (8, 1))
    a0 = vertical_variation_area(2.0, flat, 0.0, quad)
    a1 = vertical_variation_area(2.0, flat, 0.05, quad)
    assert a0 == a1


def test_vertical_variation_second_difference():
    w = cosine_bump(0.0, 1.0)
    quad = QuadratureSpec(16, (16, 1))
    _, d1, d2 = taylor_derivatives(vertical_variation_area(2.0, w, Taylor(0.0, 1.0), quad))
    exact = gauss_legendre_1d(lambda e: w.deriv(e) ** 2, -1.0, 1.0, quad)
    assert abs(d2 - exact) <= 1e-13 * exact
    assert abs(d1) <= 1e-15


def test_vertical_variation_tube_too_small():
    # r max|wdot| = 0.94: the kink of |.| leaves the window |s| < TUBE_S0
    with pytest.raises(TubeTooSmall):
        vertical_variation_area(2.0, cosine_bump(0.0, 1.0), 0.6, QuadratureSpec(16, (8, 1)))


def _node_loop_area(R, w, r, quad):
    """vertical_variation_area as a loop over the eps nodes, one node at a
    time (its inner function verbatim from before the array pass)."""
    h, s0 = -R, TUBE_S0

    def prim(s: float, rw: float) -> float:
        return h * s ** 3 / 3.0 - s * s + rw * s

    def inner(e: float) -> float:
        rw = r * w.deriv(e)
        disc = 1.0 - h * rw
        if disc <= 0.0:
            raise TubeTooSmall("deformation too large for the tube")
        s_star = (1.0 - math.sqrt(disc)) / h
        far = (1.0 + math.sqrt(disc)) / h
        if abs(far) <= s0:
            raise TubeTooSmall("second kink entered the window")
        if abs(s_star) >= s0:
            raise TubeTooSmall("kink left the window")
        return abs(prim(s_star, rw) - prim(-s0, rw)) + abs(prim(s0, rw) - prim(s_star, rw))

    return integrate_array_1d(lambda es: [inner(e) for e in es.tolist()], *w.support,
                              quad.points_per_cell, quad.cells[0], w.breakpoints)


def _steps(left, right):
    """A profile on (-1, 1) whose derivative is ``left`` for eps < 0 and
    ``right`` after."""
    return Profile(lambda e: 0.0, lambda e: left if e < 0.0 else right, (-1.0, 1.0))


@pytest.mark.parametrize("R, w", [
    # at R = 4, r wdot <= -1/4 has no kink, (-1/4, -0.24] puts the second
    # kink in the window and >= 0.96 moves the kink out of it
    (4.0, _steps(-0.245, -1.0)),   # second kink first, no kink later
    (4.0, _steps(1.5, -0.245)),    # kink left first, second kink later
    (4.0, _steps(-1.0, 1.5)),      # no kink (and so a second one) first
    (4.0, _steps(0.0, -0.245)),    # the first failure in the middle
    (2.0, cosine_bump(0.0, 1.0)),  # r max|wdot| = 0.94 at R = 2
])
def test_vertical_variation_tube_errors_at_the_first_failing_node(R, w):
    quad = QuadratureSpec(16, (4, 1))
    with pytest.raises(TubeTooSmall) as want:
        _node_loop_area(R, w, 1.0, quad)
    with pytest.raises(TubeTooSmall) as got:
        vertical_variation_area(R, w, 1.0, quad)
    assert str(got.value) == str(want.value)


def test_vertical_variation_area_matches_the_node_loop():
    quad = QuadratureSpec(16, (16, 1))
    for R, w, r in ((2.0, cosine_bump(0.0, 1.0), 0.1), (0.7, smooth_bump(0.2, 0.6), -0.05),
                    (4.0, plateau_ramp(0.3, 0.4), 0.05)):
        want = _node_loop_area(R, w, r, quad)
        assert abs(vertical_variation_area(R, w, r, quad) - want) <= 1e-15 * want


def _flux_density(d):
    """(xi + mu) W per v^2 of ``boundary_flux``, from ``RulingFrame`` d."""
    return (d.NT * (1.0 - d.BZS) + d.Nh * d.Nh * (1.0 - 3.0 * d.BZS) / d.NT) * d.W


def test_boundary_flux():
    # the sigma -> 0 limit is 4 int v^2 dl on each helix: 8 int phi^2 for a v
    # constant along the rulings, and each helix's own trace otherwise
    phi = cosine_bump(0.0, 1.0)
    ones = Profile(lambda s: 1.0, lambda s: 0.0, (-10.0, 10.0))
    quad = QuadratureSpec(16, (32, 1))
    int_phi2 = gauss_legendre_1d(lambda e: phi.value(e) ** 2, -1.0, 1.0, quad)
    flux = boundary_flux(2.0, separable(phi, ones), quad)
    assert abs(flux - 8.0 * int_phi2) <= 1e-13 * 8.0 * int_phi2
    psi = cosine_bump(0.2, 1.0)
    want = 4.0 * (psi.value(0.5) ** 2 + psi.value(-0.5) ** 2) * int_phi2
    assert abs(boundary_flux(2.0, separable(phi, psi), quad) - want) <= 1e-13 * want

    zero_v = separable(Profile(lambda e: 0.0, lambda e: 0.0, (-1.0, 1.0)), ones)
    assert boundary_flux(2.0, zero_v, quad) == 0.0


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0, 4.0])
def test_flux_density_tends_to_its_value_on_the_helices(R):
    # the limit the tube of radius sigma reaches as it shrinks: at s* +- k/R,
    # on both sides of both helices, the density's gap to its value at s*
    # falls at least 10x per decade of k (about 100x: the gap is O(k^2))
    chart = HelicoidChart(R)
    for s_star in (1.0 / R, -1.0 / R):
        on = _flux_density(RulingFrame(chart, s_star))
        assert abs(abs(on) - 2.0) <= 1e-15
        for side in (-1.0, 1.0):
            gaps = [abs(_flux_density(RulingFrame(chart, s_star + side * k / R)) - on)
                    for k in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
            assert all(10.0 * b <= a for a, b in zip(gaps, gaps[1:])), (s_star, side, gaps)


def test_boundary_flux_at_every_pitch():
    # at R = m 10^j the flux is 8 int phi^2 to round-off, or NonFiniteValue
    # naming R where rounding of 1/R leaves the helices: never a silent value.
    # q_form makes the same helix check and refuses the same pitches
    phi = cosine_bump(0.0, 1.0)
    v = separable(phi, Profile(lambda s: 1.0, lambda s: 0.0, (-10.0, 10.0)))
    quad = QuadratureSpec(16, (2, 1))
    target = 8.0 * gauss_legendre_1d(lambda e: phi.value(e) ** 2, -1.0, 1.0, quad)
    refused = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for R in (float(f"{m}e{j}") for j in range(-300, 301) for m in (1, 1.3, 2, 3.7, 4.9, 7.1)):
            try:
                flux = boundary_flux(R, v, quad)
            except NonFiniteValue as exc:
                assert f"R={R!r}" in str(exc)
                with pytest.raises(NonFiniteValue, match=re.escape(str(exc))):
                    q_form(R, v, quad)
                refused.append(R)
                continue
            assert abs(flux - target) <= 1e-13 * target, R
    assert 0 < len(refused) < 300 and max(refused) <= 2e-11


def test_boundary_flux_cut_at_kinks():
    # the flux is a fixed multiple of int v(eps)^2 deps, which for the ramp is
    # 2 (k + delta/3); cells straddling the corners at +-k missed it by 2.9e-6
    ones = Profile(lambda s: 1.0, lambda s: 0.0, (-10.0, 10.0))
    flat = separable(Profile(lambda e: 1.0, lambda e: 0.0, (-0.7, 0.7)), ones)
    ramp = separable(plateau_ramp(0.3, 0.4), ones)
    quad = QuadratureSpec(16, (32, 1))
    ratio = boundary_flux(2.0, ramp, quad) / boundary_flux(2.0, flat, quad)
    assert abs(1.4 * ratio - 2.0 * (0.3 + 0.4 / 3.0)) <= 1e-14


def test_boundary_flux_refuses_a_reversed_support():
    # integrated from 1 to -1, every term would change sign; the test
    # function itself refuses the reversed support
    v = separable(cosine_bump(0.0, 1.0), Profile(lambda s: 1.0, lambda s: 0.0, (-10.0, 10.0)))
    with pytest.raises(ValueError, match="is not two intervals"):
        reversed_v = stability.TestFunction(v.jet, ((1.0, -1.0), v.support[1]))
        boundary_flux(2.0, reversed_v, QuadratureSpec(16, (32, 1)))


def test_bzs_monotone_to_minus_one():
    outside = [helicoid_closed_forms(2.0, 0.5 + s).BZS for s in (1e-2, 1e-3, 1e-4)]
    inside = [helicoid_closed_forms(2.0, 0.5 - s).BZS for s in (1e-2, 1e-3, 1e-4)]
    assert outside[0] > outside[1] > outside[2] > -1.0
    assert inside[0] < inside[1] < inside[2] < -1.0


def test_profiles_basic():
    b = cosine_bump(0.0, 1.0)
    assert b.value(0.0) == 1.0
    assert b.value(1.0) == 0.0 and b.value(-1.5) == 0.0
    assert abs(b.deriv(0.0)) <= 1e-15
    s = smooth_bump(0.0, 1.0)
    assert s.value(0.0) == 1.0
    assert s.value(0.999999) < 1e-10
    c = cos_arch(2.0)
    assert c.value(0.0) == 1.0 and c.value(2.0) == 0.0
    assert abs(c.deriv(2.0 - 1e-12) + math.pi / 4.0) <= 1e-9
