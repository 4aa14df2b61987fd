"""The array path of ``q_form`` against the scalar loop it replaces, the
array views of the profiles, and the array composite 1-D rule.

Array and scalar results are compared to a relative 1e-13 rather than with
``==``: numpy's ``cos``, ``sin`` and ``hypot`` may round differently from
``math``'s on another build.
"""

import math

import numpy as np
import pytest

from h1geom import stability, verify
from h1geom.errors import NonFiniteValue, TubeConditionViolated
from h1geom.numerics import (QuadratureSpec, gauss_legendre_1d, gauss_nodes_1d,
                             integrate_array_1d, kahan_sum, split_cells)
from h1geom.stability import (H2_QUAD, TUBE_MARGIN, Profile, _check_tube, cos_arch, cosine_bump,
                              first_variation_direct, h2_certificate_test_function, plateau_ramp,
                              q_form, second_variation_direct, separable, smooth_bump,
                              zero_function)
from h1geom.surfaces import CatenoidChart

REL = 1e-13


def _profile_cuts(p):
    """The support ends and interior kinks of ``p``, sorted: the scalar loop's
    ``Profile.cuts``, verbatim."""
    lo, hi = p.support
    inner = [b for b in p.breakpoints if lo < b < hi]
    return sorted({lo, hi, *inner})


def _scalar_profile_integral(p, fn, quad):
    """The scalar ``_profile_integral`` that ``q_form`` used, verbatim."""
    return kahan_sum([gauss_legendre_1d(fn, lo, hi, QuadratureSpec(quad.points_per_cell, (n, 1)))
                      for lo, hi, n in split_cells(_profile_cuts(p), quad.cells[0])])


def _helicoid_f_w(R: float, s, m):
    """f = 1/R - R s^2 and W = hypot(f, R s) of the pitch-R helicoid, at a
    float s (``m`` is ``math``) or an array of s (``m`` is ``numpy``): the
    hand-written helicoid frame that ``q_form`` read, verbatim, so this
    reference does not read the ruling closed form it checks."""
    f = 1.0 / R - R * s * s
    return f, m.hypot(f, R * s)


def _scalar_q_form(R, u, quad):
    """The scalar ``q_form`` the array path replaces, verbatim, with its
    frame from ``_helicoid_f_w``."""
    if u.sep is None:
        raise TubeConditionViolated("q_form requires a separable test function")
    phi, psi = u.sep
    _check_tube(psi, R)
    if abs(_helicoid_f_w(R, 1.0 / R, math)[1] - 1.0) > 1e-12:
        raise NonFiniteValue("singular helix is not arclength-parameterized")

    int_phi2 = _scalar_profile_integral(phi, lambda e: phi.value(e) ** 2, quad)
    int_dphi2 = _scalar_profile_integral(phi, lambda e: phi.deriv(e) ** 2, quad)

    # ramp term: |N_h|^{-1} Z(u)^2 dA = (W^2/|f|) (du/ds)^2 deps ds
    def ramp(s: float) -> float:
        f, w = _helicoid_f_w(R, s, math)
        return w * w / abs(f) * psi.deriv(s) ** 2

    cuts = sorted({*_profile_cuts(psi), *(c for c in (1.0 / R, -1.0 / R)
                                  if psi.support[0] < c < psi.support[1])})
    ramp_parts = []
    pot_parts = []
    for lo, hi, n in split_cells(cuts, quad.cells[0]):
        mid = 0.5 * (lo + hi)
        spec = QuadratureSpec(quad.points_per_cell, (n, 1))
        if psi.deriv(mid) != 0.0 or psi.deriv(0.5 * (lo + mid)) != 0.0:
            ramp_parts.append(gauss_legendre_1d(ramp, lo, hi, spec))
        if R != 2.0:
            def pot(s: float) -> float:
                f, w = _helicoid_f_w(R, s, math)
                return abs(f) / (w * w) * psi.value(s) ** 2
            pot_parts.append(gauss_legendre_1d(pot, lo, hi, spec))

    t1 = int_phi2 * kahan_sum(ramp_parts)
    t2 = -(R * R - 4.0) * int_phi2 * kahan_sum(pot_parts) if R != 2.0 else 0.0
    trace2 = psi.value(1.0 / R) ** 2 + psi.value(-1.0 / R) ** 2
    t3 = -4.0 * trace2 * int_phi2
    t4 = trace2 * int_dphi2
    return t1 + t2 + t3 + t4


def _scalar_only(p):
    """``p`` behind bare callables, so its array views go node by node."""
    return Profile(lambda x: p.value(x), lambda x: p.deriv(x), p.support, p.breakpoints,
                   p.flats)


def _cases():
    for k in (0.56, 0.8, 1.37):
        for eps0 in (1.0, 4.0, 64.0):
            u = h2_certificate_test_function(k, 2.0 * k + 1.0, eps0)
            for quad in (H2_QUAD, H2_QUAD.doubled()):
                yield f"h2 k={k} eps0={eps0} cells={quad.cells[0]}", 2.0, u, quad
    quad = QuadratureSpec(16, (16, 1))
    for R in (1.0, 2.0, 4.0):
        # plateau just outside the tube window, so the potential term runs at R != 2
        k = 1.0 / R + 1.2 * TUBE_MARGIN * 2.0 / R
        for phi in (cosine_bump(0.0, 1.0), cos_arch(3.0)):
            yield f"R={R} {phi.support}", R, separable(phi, plateau_ramp(k, 1.0)), quad
    yield "qform_regular", 2.0, separable(cosine_bump(0.0, 1.0), cosine_bump(1.0, 0.35)), \
        QuadratureSpec(16, (32, 1))
    yield "scalar-only", 4.0, separable(_scalar_only(cos_arch(2.0)),
                                        _scalar_only(plateau_ramp(0.4, 0.7))), quad


@pytest.mark.parametrize("R, u, quad", [c[1:] for c in _cases()],
                         ids=[c[0] for c in _cases()])
def test_q_form_matches_the_scalar_loop(R, u, quad):
    want = _scalar_q_form(R, u, quad)
    assert want != 0.0
    assert abs(q_form(R, u, quad) - want) <= REL * abs(want)


def test_q_form_keeps_its_checks():
    with pytest.raises(TubeConditionViolated, match="separable"):
        q_form(2.0, zero_function(), H2_QUAD)
    with pytest.raises(TubeConditionViolated, match="varies along rulings"):
        q_form(2.0, separable(cosine_bump(0.0, 1.0), cosine_bump(0.5, 0.3)), H2_QUAD)


def _profiles():
    k, delta = 0.7, 1.9
    return {
        "cosine_bump": (cosine_bump(0.4, 0.35), []),
        "cos_arch": (cos_arch(2.5), []),
        "plateau_ramp": (plateau_ramp(k, delta), [-k, k, -k - delta, k + delta]),
        "smooth_bump": (smooth_bump(0.3, 0.5), []),
    }


@pytest.mark.parametrize("name", list(_profiles()))
def test_profile_arrays_match_scalar_views(name):
    # one numpy pass, not node by node; numpy's exp and cos may differ from
    # math's in the last bit, so the views agree to 1e-15, not bit for bit
    p, kinks = _profiles()[name]
    assert p.value.on_arrays and p.deriv.on_arrays
    lo, hi = p.support
    x = gauss_nodes_1d(lo - 0.5, hi + 0.5, 16, 6)[0].ravel()
    pts = np.concatenate((x, [lo, hi, *kinks], np.nextafter([lo, hi, *kinks], np.inf),
                          np.nextafter([lo, hi, *kinks], -np.inf)))
    for array_view, scalar_view in ((p.values, p.value), (p.derivs, p.deriv)):
        got = array_view(pts)
        assert got.shape == pts.shape
        for g, t in zip(got.tolist(), pts.tolist()):
            want = scalar_view(t)
            assert abs(g - want) <= 1e-15 * abs(want), (name, t)
            assert (g == 0.0) == (want == 0.0), (name, t)


def test_scalar_only_profile_evaluates_node_by_node():
    seen = []
    p = Profile(lambda x: seen.append(x) or 2.0 * x, lambda x: 2.0, (-1.0, 1.0))
    X = np.array([[0.25, -0.5], [0.75, 1.0]])
    assert p.values(X).tolist() == [[0.5, -1.0], [1.5, 2.0]]
    assert seen == X.ravel().tolist()
    assert p.derivs(X).tolist() == [[2.0, 2.0], [2.0, 2.0]]


def test_profile_values_at_non_finite_points():
    for p, _ in _profiles().values():
        for t in (math.inf, -math.inf):
            assert p.value(t) == 0.0 and p.deriv(t) == 0.0
            assert p.values(np.array([t])).tolist() == [0.0]


def test_integrate_array_1d_matches_gauss_legendre_1d():
    f = lambda t: math.exp(-t) * math.cos(3.0 * t)  # noqa: E731
    for a, b, p, n in ((0.2, 2.5, 4, 3), (-1.0, 3.0, 16, 8), (0.0, 1e-3, 32, 1)):
        want = gauss_legendre_1d(f, a, b, QuadratureSpec(p, (n, 1)))
        got = integrate_array_1d(lambda x: np.exp(-x) * np.cos(3.0 * x), a, b, p, n)
        assert abs(got - want) <= REL * abs(want)


def test_integrate_array_1d_raises_at_the_first_nan():
    # nodes of two cells of four, the nan at the first, a middle or the last
    # node: the first non-finite sample decides, in the node loop of
    # gauss_legendre_1d and in the array pass alike
    x = gauss_nodes_1d(0.0, 1.0, 4, 2)[0].ravel()
    for where in (2, 0, 7):
        first, second = x[where], x[min(where + 3, 7)]

        def f(t):
            if t == first:
                return math.nan
            return -math.inf if t == second else t

        errors = []
        for call in (lambda: gauss_legendre_1d(f, 0.0, 1.0, QuadratureSpec(4, (2, 1))),
                     lambda: integrate_array_1d(lambda ts: [f(t) for t in ts.tolist()],
                                                0.0, 1.0, 4, 2)):
            with pytest.raises(NonFiniteValue) as info:
                call()
            errors.append(str(info.value))
        assert errors == ["non-finite sample in gauss_legendre_1d: nan"] * 2


def test_second_variation_check_builds_the_variation_nodes_once(monkeypatch):
    # the index form and direct_variations each frame their 16 cells as one
    # block of integrate_cells
    batches = []
    frames = stability.surface_frames

    def counted(chart, U1, U2):
        batches.append(len(U1))
        return frames(chart, U1, U2)

    monkeypatch.setattr(stability, "surface_frames", counted)
    verify.check_second_variation()
    assert batches == [16 * 16 * 16] * 2

    cat = CatenoidChart(1.0)
    v = separable(cosine_bump(1.5, 0.7), cosine_bump(0.3, 0.5))
    quad = QuadratureSpec(8, (2, 2))
    got = stability.direct_variations(cat, v, zero_function(), quad)
    assert got == (second_variation_direct(cat, v, zero_function(), quad),
                   *first_variation_direct(cat, v, zero_function(), quad))
