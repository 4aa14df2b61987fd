"""Closed-form Riemannian geodesics of the left-invariant metric, and
Jacobi fields of one-parameter geodesic families.

With Euclidean initial data (x0, y0, t0), velocity (A, B, C) and the
conserved vertical momentum l = C - A y0 + B x0, the flow is

    x(s) = x0 + s (A f(2ls) + B g(2ls))
    y(s) = y0 + s (-A g(2ls) + B f(2ls))
    t(s) = t0 + l s + (A^2+B^2) s^2 h(2ls)
         + (A x0 + B y0) s g(2ls) + (A y0 - B x0) s f(2ls)

where f = sin(x)/x, g = (1-cos x)/x, h = (x - sin x)/x^2.  Horizontal or
vertical initial velocities give straight lines.  A Jacobi field is fixed
by its initial data, and is obtained by differentiating this closed flow
across a geodesic family with that data (one complex step, with no
truncation), not by integrating the Jacobi equation; the equation
residual serves as a test oracle only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .core import (FrameVector, Point, connection_correct, curvature_R, dot,
                   euclidean_coeffs, frame_coeffs, frame_to_euclidean, jop)
from .errors import NonFiniteValue
from .numerics import raise_first_failure

SERIES_CUTOFF = 1e-4  # f and g: three Maclaurin terms below, closed forms above
H_SERIES_CUTOFF = 1.0  # h: the H_TERMS below, where x - sin x cancels; closed above
# h(x) = sum_k (-1)^k x^(2k+1) / (2k+3)!, k = 0..7: below |x| = 1 the first
# term left out is under 5e-17 of h
H_TERMS = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(8))

Arr3 = tuple[np.ndarray, np.ndarray, np.ndarray]


def _fgh_series(x):
    x2 = x * x
    h = H_TERMS[-1]
    for c in H_TERMS[-2::-1]:
        h = c + x2 * h
    return 1.0 - x2 / 6.0 + x2 * x2 / 120.0, x * (0.5 - x2 / 24.0 + x2 * x2 / 720.0), x * h


def _fgh_closed(x, m):
    s, half = m.sin(x), m.sin(0.5 * x)
    return s / x, 2.0 * half * half / x, (x - s) / (x * x)


def helpers_fgh(x):
    """(sin x / x, (1 - cos x)/x, (x - sin x)/x^2), to round-off at every x.

    f and g take three Maclaurin terms below |x| = 1e-4, where the
    truncation (~1e-28) is far under round-off, and closed forms above:
    sin x / x and 2 sin^2(x/2)/x, neither of which cancels.  h takes the
    eight ``H_TERMS`` below |x| = 1, where x - sin x would cancel, and
    (x - sin x)/x^2 above.  ``x`` may be an array, complex ones included; a
    branch that no element takes is not evaluated.  f is even and g, h are
    odd, bit for bit: sin is odd, and the rest is sign-symmetric.
    """
    if not isinstance(x, np.ndarray):
        if abs(x) >= H_SERIES_CUTOFF:
            return _fgh_closed(x, math)
        series = _fgh_series(x)
        if abs(x) < SERIES_CUTOFF:
            return series
        return (*_fgh_closed(x, math)[:2], series[2])
    ax = np.abs(x)
    near = ax < H_SERIES_CUTOFF
    if not near.any():
        return _fgh_closed(x, np)
    series = _fgh_series(np.where(near, x, 0.0))  # zero off the branch: no overflow
    small = ax < SERIES_CUTOFF
    if small.all():
        return series
    f, g, h = _fgh_closed(np.where(small, 1.0, x), np)  # keeps the closed branch off x = 0
    return (np.where(small, series[0], f), np.where(small, series[1], g),
            np.where(near, series[2], h))


@dataclass(frozen=True)
class GeodesicArc:
    """Initial data of a geodesic; ``lam`` is the conserved T-component."""

    p0: Point
    v0: FrameVector

    def __post_init__(self):
        if self.v0.base.coords() != self.p0.coords():
            raise ValueError("initial velocity must be based at p0")

    @property
    def lam(self) -> float:
        return self.v0.c


def _flow_terms(p, A, B):
    """The terms of the closed flow from ``p`` with horizontal velocity
    (A, B) that no parameter changes: A^2 + B^2, A x0 + B y0, A y0 - B x0."""
    x0, y0, _ = p
    return A * A + B * B, A * x0 + B * y0, A * y0 - B * x0


def _flow_point(p, A, B, lam, s, terms, fgh):
    """Point of the closed flow at ``s``.

    ``p`` is the Euclidean start, (A, B) the horizontal and ``lam`` the
    conserved T-component of the initial velocity, ``terms`` their
    ``_flow_terms`` and ``fgh`` the ``helpers_fgh`` of 2 lam s.  Plain
    arithmetic on floats, or on arrays of one shape.
    """
    x0, y0, t0 = p
    f, g, h = fgh
    r2, ax, ay = terms
    return (x0 + s * (A * f + B * g),
            y0 + s * (-A * g + B * f),
            t0 + lam * s + r2 * s * s * h + ax * s * g + ay * s * f)


def _flow(p, A, B, lam, s, m):
    """Point and Euclidean velocity of the closed flow at ``s``: the point
    of ``_flow_point``, with ``m`` the ``math`` module for one parameter or
    ``numpy`` for an array of parameters ``s``.  Plain arithmetic, analytic
    in every input, so complex inputs differentiate it.
    """
    terms = _flow_terms(p, A, B)
    x2ls = 2.0 * lam * s
    fgh = helpers_fgh(x2ls)
    q = _flow_point(p, A, B, lam, s, terms, fgh)
    r2, ax, ay = terms
    co, si = m.cos(x2ls), m.sin(x2ls)
    vx = A * co + B * si
    vy = -A * si + B * co
    vt = lam + r2 * s * fgh[1] + ax * si + ay * co
    return q, (vx, vy, vt)


def exp_geodesic(arc: GeodesicArc, s: float) -> tuple[Point, FrameVector]:
    """Point and velocity of the geodesic at arc-parameter ``s``."""
    A, B, _ = frame_to_euclidean(arc.v0)
    x2ls = 2.0 * arc.lam * s
    if not math.isfinite(x2ls):  # math.sin would raise on it
        raise NonFiniteValue(f"2 lambda s = {x2ls!r} at s = {s!r}")
    (x, y, t), v = _flow(arc.p0.coords(), A, B, arc.lam, s, math)
    q = Point(x, y, t)
    return q, FrameVector(*frame_coeffs(x, y, v), q)


def exp_geodesics(arc: GeodesicArc, S) -> tuple[Arr3, Arr3]:
    """``exp_geodesic`` at the arc-parameters ``S``, as arrays: the points
    and the frame coefficients of the velocities.

    Raises ``NonFiniteValue`` at the first parameter where the flow is not
    finite; overflow raises no numpy warning.
    """
    S = np.asarray(S, dtype=float)
    A, B, _ = frame_to_euclidean(arc.v0)
    with np.errstate(all="ignore"):
        q, v = _flow(arc.p0.coords(), A, B, arc.lam, S, np)
        v = frame_coeffs(q[0], q[1], v)
    ok = np.logical_and.reduce([np.isfinite(c) for c in (*q, *v)])
    raise_first_failure((~ok, lambda i: NonFiniteValue(
        f"geodesic is not finite at s = {float(S.ravel()[i])!r}")))
    return q, v


def exp_euclidean(p: tuple[float, float, float], v: tuple[float, float, float],
                  params: Iterable[float]) -> Iterator[tuple[float, float, float]]:
    """Geodesic endpoints on raw Euclidean coordinates: the endpoint at each
    parameter of ``params``, yielded in order.  Public API with no caller
    in the library; ``stability.direct_variations`` deforms along straight
    lines instead.

    The components of ``p`` and ``v`` may be arrays of one shape, which
    moves a whole batch of points at once.  lam and the ``_flow_terms`` are
    computed once, at the first endpoint.
    """
    A, B = v[0], v[1]
    lam = frame_coeffs(p[0], p[1], v)[2]
    terms = _flow_terms(p, A, B)
    for s in params:
        yield _flow_point(p, A, B, lam, s, terms, helpers_fgh(2.0 * lam * s))


@dataclass(frozen=True)
class JacobiSample:
    """A Jacobi field and its covariant s-derivatives at one point of its
    geodesic, with the geodesic's velocity there."""

    V: FrameVector
    Vprime: FrameVector
    Vsecond: FrameVector
    velocity: FrameVector


@dataclass(frozen=True)
class JacobiFields:
    """A Jacobi field at the parameters ``s``: arrays of shape (3, len(s)),
    column i at ``s[i]``.

    ``points`` are the Euclidean coordinates of gamma(s); ``V``, ``Vprime``,
    ``Vsecond``, ``DV_velocity`` (D_V gamma') and ``velocity`` (gamma') are
    frame coefficients there.
    """

    s: np.ndarray
    points: np.ndarray
    V: np.ndarray
    Vprime: np.ndarray
    Vsecond: np.ndarray
    DV_velocity: np.ndarray
    velocity: np.ndarray

    def _vectors(self, i: int, *fields: np.ndarray) -> list[FrameVector]:
        q = Point(*self.points[:, i].tolist())
        return [FrameVector(*f[:, i].tolist(), q) for f in fields]

    def sample(self, i: int) -> JacobiSample:
        return JacobiSample(*self._vectors(i, self.V, self.Vprime, self.Vsecond, self.velocity))

    def commutation_residual(self, i: int) -> float:
        """Norm of [gamma', V] = D_{gamma'} V - D_V gamma' at ``s[i]``."""
        d_gamma_v, d_v_gamma = self._vectors(i, self.Vprime, self.DV_velocity)
        return (d_gamma_v - d_v_gamma).norm()


def jacobi_fields(arc: GeodesicArc, V0: FrameVector, DV0: FrameVector, S) -> JacobiFields:
    """The Jacobi field along ``arc`` with V(0) = ``V0`` and V'(0) = ``DV0``
    (tangent vectors at ``arc.p0``), and its covariant s-derivatives, at
    every s in ``S``, in one array pass.

    V is the variation field of the geodesic family whose start moves along
    V0 and whose initial velocity u moves, in frame coefficients, along
    DV0 - Gamma(V0, u).  Its derivatives across the family come from one
    complex-step evaluation of the closed flow (Squire and Trapp, SIAM
    Review 40, 1998): the imaginary parts of the point, of the Euclidean
    velocity and of the acceleration 2 lam (v_y, -v_x, 0), over the step,
    are the Euclidean V and its first two s-derivatives, with nothing
    subtracted.  V' and V'' follow by the product rule through
    ``frame_coeffs`` and the connection; D_V gamma' differentiates the
    velocity across the family instead, so [gamma', V] = 0 is a check.  The
    data are divided by their largest component first, so the step never
    underflows, and the result is linear in (V0, DV0) across every binary
    scale.  Every column depends on its own s alone: the first s whose
    field is not finite raises ``NonFiniteValue``, and overflow raises no
    numpy warning.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 1:
        raise ValueError("S must be one-dimensional")
    if not V0.base.coords() == DV0.base.coords() == arc.p0.coords():
        raise ValueError("initial data must be based at p0")
    u = arc.v0.coeffs()
    k = max(map(abs, V0.coeffs() + DV0.coeffs())) or 1.0
    w0, dw0 = ([c / k for c in v.coeffs()] for v in (V0, DV0))
    du = [d - g for d, g in zip(dw0, connection_correct((0.0, 0.0, 0.0), w0, u))]
    x0, y0, _ = arc.p0.coords()
    eta = 1e-30  # nothing is subtracted, so the step trades nothing off
    p = tuple(c + 1j * eta * d for c, d in zip(arc.p0.coords(), euclidean_coeffs(x0, y0, w0)))
    A, B, lam = (c + 1j * eta * d for c, d in zip(u, du))
    with np.errstate(all="ignore"):
        q, ve = _flow(p, A, B, lam, S, np)
        turn = (2.0 * lam * ve[1], -2.0 * lam * ve[0], 0.0)  # d/ds of the frame velocity
        ae = euclidean_coeffs(q[0], q[1], turn)
        vf = frame_coeffs(q[0], q[1], ve)
        # across the family: V in Euclidean components with its first two
        # s-derivatives, and the velocity's frame coefficients
        W, W1, W2, dvf = ([k * (c.imag / eta) for c in z] for z in (q, ve, ae, vf))
        (x, y, _), (vx, vy, _), (ax, ay, _), vel, acc = (
            [c.real for c in z] for z in (q, ve, ae, vf, turn))
        # V and its s-derivatives by the product rule through frame_coeffs
        V = frame_coeffs(x, y, W)
        dV = (W1[0], W1[1], W1[2] - vy * W[0] - y * W1[0] + vx * W[1] + x * W1[1])
        ddV = (W2[0], W2[1], W2[2] - ay * W[0] - 2.0 * vy * W1[0] - y * W2[0]
               + ax * W[1] + 2.0 * vx * W1[1] + x * W2[1])
        Vp = connection_correct(dV, vel, V)
        # Vp's coefficients are dV + Gamma(gamma', V): their s-derivative is
        # ddV + Gamma(gamma'', V) + Gamma(gamma', dV)
        Vpp = connection_correct(connection_correct(connection_correct(ddV, acc, V), vel, dV),
                                 vel, Vp)
        # D_V gamma' differentiates the velocity across the family instead
        dv_vel = connection_correct(dvf, V, vel)
        out = [np.stack(f) for f in ((x, y, q[2].real), V, Vp, Vpp, dv_vel, vel)]
    ok = np.logical_and.reduce([np.isfinite(c) for f in out for c in f])
    raise_first_failure((~ok, lambda i: NonFiniteValue(
        f"Jacobi field is not finite at s = {float(S[i])!r}")))
    return JacobiFields(S, *out)


def jacobi_field(arc: GeodesicArc, V0: FrameVector, DV0: FrameVector, s: float) -> JacobiSample:
    """``jacobi_fields`` at the one parameter ``s``."""
    return jacobi_fields(arc, V0, DV0, [s]).sample(0)


def jacobi_residual(sample: JacobiSample, gammavel: FrameVector) -> float:
    """Norm of V'' + R(gamma', V) gamma' at the sample point."""
    rv = curvature_R(gammavel, sample.V, gammavel)
    return (sample.Vsecond + rv).norm()


def straight_line_residual(sample: JacobiSample, gammavel: FrameVector) -> float:
    """Residual of the reduced Jacobi equation along horizontal lines:
    V'' - 3 <V, J(gamma')> J(gamma') + |gamma'|^2 <V, T> T.
    """
    jg = jop(gammavel)
    tvec = FrameVector(0.0, 0.0, 1.0, gammavel.base)
    speed2 = dot(gammavel, gammavel)
    term = (sample.Vsecond
            - jg.scaled(3.0 * dot(sample.V, jg))
            + tvec.scaled(speed2 * dot(sample.V, tvec)))
    return term.norm()

