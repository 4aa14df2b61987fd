"""Test functions that only the tests read: referees of the library's
integrals, not part of it."""

import numpy as np

from h1geom import stability
from h1geom.core import FrameVector, connection_correct, euclidean_to_frame
from h1geom.geodesics import GeodesicArc, exp_geodesic
from h1geom.stability import Jet, TestFunction, _axis_cuts, _support_union
from h1geom.surfaces import area_elements, integrate_tangent_field


def area_element(chart, u) -> float:
    """The area density at the one chart point ``u``: ``area_elements`` on
    one-point arrays, with its errors."""
    return float(area_elements(chart, [u[0]], [u[1]])[0])


def curve_walk(chart, u, length: float, steps: int, which: str) -> list:
    """The Z or S curve through ``u`` at the offsets k * length / steps, k =
    -steps ... steps: one ``integrate_tangent_field`` pass per side."""
    fwd = integrate_tangent_field(chart, u, length, steps, which)
    return integrate_tangent_field(chart, u, -length, steps, which)[:0:-1] + fwd


def combined_normal_component(chart, v: TestFunction, w: TestFunction) -> TestFunction:
    """u = v + <N,T> w: the normal component of the deformation v N + w T,
    the u whose index form ``direct_variations(chart, v, w, quad)`` meets.

    On the given frames of ``chart`` its jet reads every point off them.
    Otherwise the frames are computed on ``chart`` only where w or a partial
    of w is nonzero, and the jet is v's elsewhere: no frame is read there, so
    a singular point raises nothing.
    """

    def formula(fr, vj, wj) -> Jet:
        (v0, v1, v2), (w0, w1, w2) = vj, wj
        nt, dnt = fr.NT, fr.dNT
        return v0 + nt * w0, v1 + dnt[0] * w0 + nt * w1, v2 + dnt[1] * w0 + nt * w2

    def jet(U1, U2, frames=None) -> Jet:
        vj = v.jet(U1, U2, frames)
        wj = w.jet(U1, U2, frames)
        if frames is not None and frames[0] is chart:
            return formula(frames[1], vj, wj)
        live = (wj[0] != 0.0) | (wj[1] != 0.0) | (wj[2] != 0.0)
        out = tuple(np.broadcast_to(c, live.shape).copy() for c in vj)
        if live.any():
            fr = stability.surface_frames(chart, U1[live], U2[live])
            for o, x in zip(out, formula(fr, [c[live] for c in vj], [c[live] for c in wj])):
                o[live] = x
        return out

    # the sum may kink on the support edges of v and w as well as on theirs
    kinks = tuple(tuple(sorted(set(_axis_cuts((v, w), i)))) for i in (0, 1))
    return TestFunction(jet, _support_union((v, w)), kinks)


def central_diff(f, x: float, h: float) -> tuple:
    """d/dx at ``x`` of the float tuple ``f(x)``, componentwise: central
    differences at the steps h and h/2 combined by one Richardson level,
    error O(h^4).  The library takes no difference; only referees do."""
    def quotient(k):
        return [(p - m) / (2.0 * k) for p, m in zip(f(x + k), f(x - k))]

    coarse, fine = quotient(h), quotient(0.5 * h)
    return tuple((4.0 * b - a) / 3.0 for a, b in zip(coarse, fine))


def covariant_derivative_along(field, velocity, s: float, h: float = 1e-2) -> FrameVector:
    """Covariant derivative of a field sampled along a curve: the central
    difference of its frame coefficients in the curve parameter (step ``h``,
    one Richardson level), plus the connection contracted with the curve
    velocity."""
    dcoeff = central_diff(lambda u: field(u).coeffs(), s, h)
    w = field(s)
    return FrameVector(*connection_correct(dcoeff, velocity(s).coeffs(), w.coeffs()), w.base)


def nested_jacobi_reference(alpha, u_of, eps: float, s: float) -> tuple:
    """V, V', V'' at (eps, s) of the family e -> exp_{alpha(e)}(s U(e)), with
    ``u_of(e)`` = U(e) a ``FrameVector`` at ``alpha(e)``: nested scalar
    ``central_diff`` calls on ``exp_geodesic``, across the family with step
    1e-5 and along the geodesic with step 1e-2, one Richardson level each.
    Good to about 1e-6 on V and 1e-4 on V''."""
    def arc(e):
        return GeodesicArc(alpha(e), u_of(e))

    def v_at(x):
        de = central_diff(lambda e: exp_geodesic(arc(e), x)[0].coords(), eps, 1e-5)
        return euclidean_to_frame(exp_geodesic(arc(eps), x)[0], de)

    def vel_at(x):
        return exp_geodesic(arc(eps), x)[1]

    def vprime_at(x):
        return covariant_derivative_along(v_at, vel_at, x)

    return v_at(s), vprime_at(s), covariant_derivative_along(vprime_at, vel_at, s)
