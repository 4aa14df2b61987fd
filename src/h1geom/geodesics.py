"""Closed-form Riemannian geodesics of the left-invariant metric, and
Jacobi fields of one-parameter geodesic families.

With Euclidean initial data (x0, y0, t0), velocity (A, B, C) and the
conserved vertical momentum l = C - A y0 + B x0, the flow is

    x(s) = x0 + s (A f(2ls) + B g(2ls))
    y(s) = y0 + s (-A g(2ls) + B f(2ls))
    t(s) = t0 + l s + (A^2+B^2) s^2 h(2ls)
         + (A x0 + B y0) s g(2ls) + (A y0 - B x0) s f(2ls)

where f = sin(x)/x, g = (1-cos x)/x, h = (x - sin x)/x^2.  Horizontal or
vertical initial velocities give straight lines.  Jacobi fields are
obtained by differentiating this closed flow across the family parameter,
not by integrating the Jacobi equation; the equation residual serves as a
test oracle only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import (FrameVector, Point, connection_correct, curvature_R, dot,
                   frame_coeffs, frame_to_euclidean, jop)
from .errors import NonFiniteValue
from .numerics import (DiffSpec, central_diff, raise_first_failure, stencil_d1,
                       stencil_nodes)

SERIES_CUTOFF = 1e-4

Arr3 = tuple[np.ndarray, np.ndarray, np.ndarray]


def _fgh_series(x):
    x2 = x * x
    return (1.0 - x2 / 6.0 + x2 * x2 / 120.0, x * (0.5 - x2 / 24.0 + x2 * x2 / 720.0),
            x * (1.0 / 6.0 - x2 / 120.0 + x2 * x2 / 5040.0))


def _fgh_closed(x, m):
    s, c = m.sin(x), m.cos(x)
    return s / x, (1.0 - c) / x, (x - s) / (x * x)


def helpers_fgh(x):
    """(sin x / x, (1 - cos x)/x, (x - sin x)/x^2), series-stabilized near 0.

    Three Maclaurin terms below |x| = 1e-4; the truncation (~1e-28) is far
    under round-off, so the switch is seamless.  ``x`` may be an array; a
    branch that no element takes is not evaluated.  f is even and g, h are
    odd, bit for bit: sin is odd and cos even, and the rest is sign-symmetric.
    """
    if not isinstance(x, np.ndarray):
        return _fgh_series(x) if abs(x) < SERIES_CUTOFF else _fgh_closed(x, math)
    small = np.abs(x) < SERIES_CUTOFF
    if small.all():
        return _fgh_series(x)
    if not small.any():
        return _fgh_closed(x, np)
    closed = _fgh_closed(np.where(small, 1.0, x), np)  # keeps the closed branch off x = 0
    return tuple(np.where(small, a, b) for a, b in zip(_fgh_series(x), closed))


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
    """Point and frame-coefficient velocity of the closed flow at ``s``: the
    point of ``_flow_point``, with ``m`` the ``math`` module for one
    parameter or ``numpy`` for an array of parameters ``s``.
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
    return q, frame_coeffs(q[0], q[1], (vx, vy, vt))


def exp_geodesic(arc: GeodesicArc, s: float) -> tuple[Point, FrameVector]:
    """Point and velocity of the geodesic at arc-parameter ``s``."""
    A, B, _ = frame_to_euclidean(arc.v0)
    x2ls = 2.0 * arc.lam * s
    if not math.isfinite(x2ls):  # math.sin would raise on it
        raise NonFiniteValue(f"2 lambda s = {x2ls!r} at s = {s!r}")
    q, v = _flow(arc.p0.coords(), A, B, arc.lam, s, math)
    q = Point(*q)
    return q, FrameVector(*v, q)


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
    """Variation field of a geodesic family and its covariant s-derivatives."""

    V: FrameVector
    Vprime: FrameVector
    Vsecond: FrameVector


Curve = Callable[[float], Point]
FieldAlong = Callable[[float], FrameVector]

EPS_STEP = 1e-5          # family-parameter stencil, one Richardson level
JACOBI_S_STEP = 1e-2     # s-stencil for covariant derivatives


def covariant_derivative_along(field: FieldAlong, velocity: FieldAlong,
                               s: float, h: float = JACOBI_S_STEP) -> FrameVector:
    """Covariant derivative of a field sampled along a curve.

    Differentiates the frame coefficients in the curve parameter and adds
    the connection correction contracted with the curve velocity.
    """
    dcoeff = central_diff(lambda u: field(u).coeffs(), s, DiffSpec(h, 1))
    w = field(s)
    return FrameVector(*connection_correct(dcoeff, velocity(s).coeffs(), w.coeffs()), w.base)


def _nonfinite_nodes(stages, n: int):
    """The check of ``jacobi_fields``: row i holds the nodes of every stage
    ``(values, eps, s)`` of the parameter s[i], in order.  A node fails where
    a component of ``values`` (stacked on axis 0) is not finite; ``eps`` and
    ``s`` are its parameters, broadcast to the node grid (n parameters first)."""
    parts = []
    for values, eps, s in stages:
        bad = ~np.isfinite(values).all(axis=0)
        parts.append([np.broadcast_to(a, bad.shape).reshape(n, math.prod(bad.shape[1:]))
                      for a in (bad, eps, s)])
    bad, eps_at, s_at = (np.concatenate(a, axis=1) for a in zip(*parts))
    return bad, lambda i: NonFiniteValue(
        f"Jacobi field is not finite at eps = {float(eps_at.flat[i])!r}, "
        f"s = {float(s_at.flat[i])!r}")


@dataclass(frozen=True)
class JacobiFields:
    """Jacobi fields of a geodesic family at the parameters ``s``: arrays of
    shape (3, len(s)), column i at ``s[i]``.

    ``points`` are the Euclidean coordinates of gamma(s) on the member
    ``eps``; ``V``, ``Vprime``, ``Vsecond`` and ``DV_velocity`` (D_V gamma')
    are frame coefficients there.
    """

    s: np.ndarray
    points: np.ndarray
    V: np.ndarray
    Vprime: np.ndarray
    Vsecond: np.ndarray
    DV_velocity: np.ndarray

    def _vectors(self, i: int, *fields: np.ndarray) -> list[FrameVector]:
        q = Point(*self.points[:, i].tolist())
        return [FrameVector(*f[:, i].tolist(), q) for f in fields]

    def sample(self, i: int) -> JacobiSample:
        return JacobiSample(*self._vectors(i, self.V, self.Vprime, self.Vsecond))

    def commutation_residual(self, i: int) -> float:
        """Norm of [gamma', V] = D_{gamma'} V - D_V gamma' at ``s[i]``."""
        d_gamma_v, d_v_gamma = self._vectors(i, self.Vprime, self.DV_velocity)
        return (d_gamma_v - d_v_gamma).norm()


def jacobi_fields(alpha: Curve, U: FieldAlong, eps: float, S) -> JacobiFields:
    """Variation field V = dF/d(eps) of F(eps, s) = exp_{alpha(eps)}(s U)
    at every s in ``S``, with its covariant s-derivatives, in one array pass.

    V comes from a Richardson-extrapolated central difference across the
    family (step ``EPS_STEP``); V' and V'' from covariant s-differentiation
    of the sampled field (step ``JACOBI_S_STEP``), nested as in
    ``covariant_derivative_along``.  The flow runs once, on the five family
    members at the ``central_diff`` nodes around ``eps`` and the 5 x 5 nested
    s-nodes around each s, with the arithmetic of ``central_diff``, so no
    result depends on the length or order of ``S``.  A non-finite ``S``, and
    then the first non-finite stencil node of the first parameter that has
    one, raise ``NonFiniteValue``, so the error of a batch is that of its
    first failing parameter alone; overflow raises no numpy warning.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 1:
        raise ValueError("S must be one-dimensional")
    raise_first_failure(_nonfinite_nodes([(S[None], eps, S)], len(S)))
    eps_nodes = stencil_nodes(np.float64(eps), EPS_STEP).tolist()
    # each member starts at alpha(e) with the frame coefficients of U(e)
    members = [(alpha(e).coords(), U(e).coeffs()) for e in eps_nodes]
    p0, (A, B, lam) = (np.array(c).T for c in zip(*members))  # (3, 5 members) each
    outer = stencil_nodes(S, JACOBI_S_STEP)             # (n, 5)
    inner = stencil_nodes(outer, JACOBI_S_STEP)         # (n, 5, 5)
    with np.errstate(all="ignore"):
        q, v = _flow(p0, A, B, lam, inner[..., None], np)
        q, v = np.stack(q), np.stack(v)                 # (3, n, 5, 5, 5 members)
        V = np.stack(frame_coeffs(q[0, ..., 0], q[1, ..., 0], stencil_d1(q, EPS_STEP)))
        vel = v[:, :, :, 0, 0]                          # member eps at the outer nodes
        Vp = np.stack(connection_correct(stencil_d1(V, JACOBI_S_STEP), vel, V[..., 0]))
        Vs, vel_s = V[:, :, 0, 0], vel[..., 0]
        Vpp = np.stack(connection_correct(stencil_d1(Vp, JACOBI_S_STEP), vel_s, Vp[..., 0]))
        # D_V gamma': differentiate the velocity across the family and
        # contract the connection with V.
        dv_vel = np.stack(connection_correct(stencil_d1(v[:, :, 0, 0], EPS_STEP), Vs, vel_s))
    raise_first_failure(_nonfinite_nodes(
        [(np.concatenate([q, v]), np.array(eps_nodes), inner[..., None]), (V, eps, inner),
         (Vp, eps, outer), (np.concatenate([Vpp, dv_vel]), eps, S)], len(S)))
    return JacobiFields(S, q[:, :, 0, 0, 0], Vs, Vp[..., 0], Vpp, dv_vel)


def jacobi_field(alpha: Curve, U: FieldAlong, eps: float, s: float) -> JacobiSample:
    """``jacobi_fields`` at the one parameter ``s``."""
    return jacobi_fields(alpha, U, eps, [s]).sample(0)


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

