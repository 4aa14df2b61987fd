"""Second-variation machinery: the index form, the stability operator, the
helicoid quadratic form with its singular-curve terms, vertical variations,
and numerical instability certificates.

For a minimal surface the second derivative of area under a compactly
supported nonsingular deformation v N + w T equals

    I(u, u) = int |N_h|^{-1} { Z(u)^2 - q u^2 } dA,     u = v + <N,T> w,

with q = |B(Z)+S|^2 - 4 |N_h|^2, and integrates by parts against the
operator

    L(u) = |N_h|^{-1} { Z(Z(u)) + 2 |N_h|^{-1} <N,T> <B(Z),S> Z(u) + q u }.

On a helicoid, variations crossing the singular helices contribute the
extra terms -4 int u^2 dl + int S(u)^2 dl along the singular curves; the
resulting quadratic form Q is the object the instability certificates make
negative.  Directional derivatives along Z are read off the frame package
evaluated on Taylor numbers along the characteristic curve
(``surfaces.curve_frames``), kept deliberately independent of the
closed-form route so the two can cross-check each other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (CertificateNotFound, ConfigError, NonFiniteValue, SingularPoint,
                     SupportOutsideDomain, TubeConditionViolated, TubeTooSmall)
from .numerics import (Cuts, QuadratureSpec, Rect, Taylor, _where, gauss_legendre_1d,
                       integrate_array_1d, integrate_cells, kahan_sum, raise_first_failure,
                       taylor, taylor_derivatives)
from .surfaces import (CatenoidRulingChart, Chart, HelicoidChart, SeedRuledChart, curve_frames,
                       is_batch, surface_frame, surface_frames)

# ---------------------------------------------------------------------------
# 1-D profiles and separable test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Profile:
    """A compactly supported scalar profile with its derivative.

    ``breakpoints`` lists interior kinks; quadrature cells never straddle
    them (or the support endpoints).  ``flats`` lists closed intervals on
    which the profile is constant; it is also constant outside its
    support.  ``values`` and ``derivs`` evaluate on
    an array of nodes: in one numpy pass when the function is written once
    for floats and arrays (``_formula``, as the catalog profiles are),
    otherwise node by node.
    """

    value: Callable[[float], float]
    deriv: Callable[[float], float]
    support: tuple[float, float]
    breakpoints: tuple[float, ...] = ()
    flats: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        # the quadrature runs from support[0] to support[1]: reversed, every
        # integral over the support would change sign
        if not self.support[0] <= self.support[1]:
            raise ValueError(f"profile support {self.support} is not an interval")

    def __call__(self, x: float) -> float:
        return self.value(x)

    def flat_on(self, lo: float, hi: float) -> bool:
        """Whether the profile is constant on [lo, hi]: outside its support,
        or inside one of ``flats``."""
        a, b = self.support
        return hi <= a or lo >= b or any(f0 <= lo and hi <= f1 for f0, f1 in self.flats)

    def values(self, X: np.ndarray) -> np.ndarray:
        return _at_nodes(self.value, X)

    def derivs(self, X: np.ndarray) -> np.ndarray:
        return _at_nodes(self.deriv, X)


def _formula(fn: Callable) -> Callable:
    """Mark a profile function ``fn(x, m=math)`` written once for a float
    and, with ``m`` the ``numpy`` module, for an array of nodes."""
    fn.on_arrays = True
    return fn


def _at_nodes(fn: Callable[[float], float], X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if getattr(fn, "on_arrays", False):
        with np.errstate(invalid="ignore"):
            return fn(X, np)
    return np.array([fn(x) for x in X.ravel().tolist()], dtype=float).reshape(X.shape)


def cosine_bump(center: float, halfwidth: float) -> Profile:
    """cos^2 arch: C^1, value 1 at the center."""
    w = halfwidth

    @_formula
    def val(x, m=math):
        y = (x - center) / w
        inside = abs(y) < 1.0
        return _where(m, inside, m.cos(0.5 * m.pi * y * inside) ** 2)

    @_formula
    def der(x, m=math):
        y = (x - center) / w
        inside = abs(y) < 1.0
        return _where(m, inside, -0.5 * m.pi / w * m.sin(m.pi * y * inside))

    return Profile(val, der, (center - w, center + w))


def smooth_bump(center: float, halfwidth: float) -> Profile:
    """The standard C-infinity mollifier bump, normalized to 1 at the center."""
    w = halfwidth

    def parts(x, m):
        y = (x - center) / w
        inside = abs(y) < 1.0
        y = y * inside  # 0 outside, where 1/(1 - y^2) would blow up
        d = 1.0 - y * y
        return inside, y, d, m.exp(1.0 - 1.0 / d)

    @_formula
    def val(x, m=math):
        inside, _, _, e = parts(x, m)
        return _where(m, inside, e)

    @_formula
    def der(x, m=math):
        inside, y, d, e = parts(x, m)
        return _where(m, inside, e * (-2.0 * y / (d * d)) / w)

    return Profile(val, der, (center - w, center + w))


def cos_arch(eps0: float) -> Profile:
    """cos(pi x / (2 eps0)) on [-eps0, eps0]: the certificate envelope."""
    @_formula
    def val(x, m=math):
        inside = abs(x) < eps0
        return _where(m, inside, m.cos(0.5 * m.pi * x / eps0 * inside))

    @_formula
    def der(x, m=math):
        inside = abs(x) < eps0
        return _where(m, inside, -0.5 * m.pi / eps0 * m.sin(0.5 * m.pi * x / eps0 * inside))

    return Profile(val, der, (-eps0, eps0))


def plateau_ramp(k: float, delta: float) -> Profile:
    """Symmetric cutoff: 1 on [-k, k], linear ramp to 0 over width delta."""
    if not (k > 0.0 and delta > 0.0):
        raise ValueError("k and delta must be positive")

    @_formula
    def val(s, m=math):
        a = abs(s)
        return _where(m, a <= k, 1.0, _where(m, a >= k + delta, 0.0, (k + delta - a) / delta))

    @_formula
    def der(s, m=math):
        a = abs(s)
        return _where(m, (a <= k) | (a >= k + delta), 0.0, -m.copysign(1.0 / delta, s))

    return Profile(val, der, (-k - delta, k + delta), (-k, k), ((-k, k),))


Jet = tuple[np.ndarray, np.ndarray, np.ndarray]
EMPTY_SUPPORT: Rect = ((0.0, 0.0), (0.0, 0.0))


@dataclass(frozen=True)
class TestFunction:
    """A compactly supported scalar field on a chart domain with its partials.

    ``jet(U1, U2, frames=None)`` gives (value, d1, d2) as arrays at the chart
    points (U1, U2).  ``frames`` is the ``(chart, SurfaceFrames)`` of those
    points when the caller has it: a field built from frame quantities of
    that chart reads them off it, and on any other chart computes its own.
    ``kinks`` lists per axis the interior lines where a partial may jump;
    quadrature cells never straddle them or the support edges.  ``sep``
    holds the two profiles of a separable function, and ``nh_factor`` the
    (chart, f) of f |N_h| (``times_nh``).  ``value``, ``d1`` and ``d2`` are
    scalar views of ``jet``.
    """

    jet: Callable[..., Jet]
    support: Rect
    kinks: tuple[tuple[float, ...], tuple[float, ...]] = ((), ())
    sep: Optional[tuple[Profile, Profile]] = None
    nh_factor: Optional[tuple[Chart, "TestFunction"]] = None

    def __post_init__(self):  # reversed or nan, a support would read as the zero function's
        if len(self.support) != 2 or not all(len(i) == 2 and i[0] <= i[1] for i in self.support):
            raise ValueError(f"test function support {self.support} is not two intervals")

    def _at(self, i: int, u1: float, u2: float) -> float:
        return float(self.jet(np.array([u1], dtype=float), np.array([u2], dtype=float))[i][0])

    value = __call__ = functools.partialmethod(_at, 0)
    d1 = functools.partialmethod(_at, 1)
    d2 = functools.partialmethod(_at, 2)


def _is_zero(f: TestFunction) -> bool:
    return any(lo == hi for lo, hi in f.support)  # a support is two intervals


def _support_union(fs: Sequence[TestFunction]) -> Rect:
    """The smallest rectangle holding the nonempty supports of ``fs``."""
    live = [f.support for f in fs if not _is_zero(f)]
    if not live:
        return EMPTY_SUPPORT
    return tuple((min(s[i][0] for s in live), max(s[i][1] for s in live)) for i in (0, 1))


def _axis_cuts(fs: Sequence[TestFunction], axis: int) -> list[float]:
    """The support edges and kinks of the nonzero functions of ``fs`` along
    ``axis``: quadrature cells never straddle them."""
    return [c for f in fs if not _is_zero(f) for c in (*f.support[axis], *f.kinks[axis])]


def separable(p1: Profile, p2: Profile) -> TestFunction:
    def jet(U1, U2, frames=None) -> Jet:
        v1, v2 = p1.values(U1), p2.values(U2)
        return v1 * v2, p1.derivs(U1) * v2, v1 * p2.derivs(U2)

    return TestFunction(jet, (p1.support, p2.support), (p1.breakpoints, p2.breakpoints),
                        (p1, p2))


def zero_function() -> TestFunction:
    def jet(U1, U2, frames=None) -> Jet:
        z = np.zeros(np.shape(U1))
        return z, z, z

    return TestFunction(jet, EMPTY_SUPPORT)


def times_nh(chart: Chart, f: TestFunction) -> TestFunction:
    """The test function f * |N_h| with exact chart partials, and (chart, f)
    as its ``nh_factor``.  Its jet reads the given frames of ``chart``, or
    else frames ``chart`` only where f or a partial of f is nonzero and is 0
    elsewhere: no frame is read there, so a singular point raises nothing."""

    def formula(fr, v, v1, v2) -> Jet:
        nh, dnh = fr.Nh_norm, fr.dNh
        return v * nh, v1 * nh + v * dnh[0], v2 * nh + v * dnh[1]

    def jet(U1, U2, frames=None) -> Jet:
        fj = f.jet(U1, U2, frames)
        if frames is not None and frames[0] is chart:
            return formula(frames[1], *fj)
        live = (fj[0] != 0.0) | (fj[1] != 0.0) | (fj[2] != 0.0)
        out = tuple(np.zeros(live.shape) for _ in fj)
        if live.any():
            for o, v in zip(out, formula(surface_frames(chart, U1[live], U2[live]),
                                         *(c[live] for c in fj))):
                o[live] = v
        return out

    return TestFunction(jet, f.support, f.kinks, nh_factor=(chart, f))


# ---------------------------------------------------------------------------
# Directional derivatives along the characteristic field
# ---------------------------------------------------------------------------

def _tangent_derivatives(chart: Chart, fieldfn: Callable, u, which: str) -> tuple:
    """The frame at ``u`` and (f, f', f'') of ``fieldfn`` along the curve."""
    fr = surface_frames(chart, *u) if is_batch(u) else surface_frame(chart, u)
    zero = 0.0 * fr.Nh_norm  # a constant field has the shape of the points
    return fr, tuple(d + zero for d in taylor_derivatives(fieldfn(curve_frames(chart, u, which))))


def tangent_derivative(chart: Chart, fieldfn: Callable, u, order: int = 1,
                       which: str = "Z"):
    """Arclength derivative (order 1 or 2) along Z or S of a scalar field
    given as a function of the frame package (``lambda fr: fr.Nh_norm``) or
    a constant, at one point ``u`` or a pair of arrays: exact up to
    round-off, from one evaluation of the field on ``curve_frames``, with
    its errors."""
    return _tangent_derivatives(chart, fieldfn, u, which)[1][order]


def operator_L(chart: Chart, fieldfn: Callable, u):
    """The stability operator applied to a field as ``tangent_derivative``
    takes it, from one evaluation of it; independent of ``l_nh_closed``."""
    fr, (v, zv, zzv) = _tangent_derivatives(chart, fieldfn, u, "Z")
    nh = fr.Nh_norm
    return (zzv + 2.0 / nh * fr.NT * fr.BZS * zv + fr.q * v) / nh


def l_nh_closed(chart: Chart, u: tuple[float, float]) -> float:
    """Closed form of L applied to |N_h| on a minimal surface:
    4 (|N_h|^{-2} <B(Z),S> - 1), read off the pointwise frame alone.
    """
    return l_nh_of_frame(surface_frame(chart, u))


def l_nh_of_frame(fr):
    """``l_nh_closed`` from a ``SurfaceFrames`` at one point or many."""
    return 4.0 * (fr.BZS / (fr.Nh_norm * fr.Nh_norm) - 1.0)


def jacobi_vertical_quadratic(chart: Chart, u0: tuple[float, float]
                              ) -> tuple[float, float, float, float]:
    """Coefficients (a, b, c) of the vertical component of the ruling Jacobi
    field seeded with S at ``u0``, plus the discriminant b^2 - 4ac.

    The discriminant equals -|N_h|^2 L(|N_h|) at the base point.
    """
    return jacobi_quadratic_of_frame(surface_frame(chart, u0))


def jacobi_quadratic_of_frame(fr):
    """``jacobi_vertical_quadratic`` from a ``SurfaceFrames`` at one point
    or many."""
    nh, nt = fr.Nh_norm, fr.NT
    a = -(fr.BZS + nt * nt - nh * nh) / nh
    b = -2.0 * nt
    c = -nh
    return a, b, c, b * b - 4.0 * a * c


# ---------------------------------------------------------------------------
# Index form and direct second variation
# ---------------------------------------------------------------------------

def _intersection(rects: Sequence[Rect]) -> Rect | None:
    (lo1, hi1), (lo2, hi2) = ((max(r[i][0] for r in rects), min(r[i][1] for r in rects))
                              for i in (0, 1))
    if lo1 >= hi1 or lo2 >= hi2:
        return None
    return ((lo1, hi1), (lo2, hi2))


def _require_inside(chart: Chart, rect: Rect) -> None:
    """Refuse to integrate over ``rect`` unless it lies inside the chart
    domain: clipped to the domain, the integral would drop whatever the
    integrand carries outside it."""
    if not all(d[0] <= r[0] and r[1] <= d[1] for r, d in zip(rect, chart.domain)):
        raise SupportOutsideDomain(
            f"support {rect} is not inside the domain {chart.domain} of {type(chart).__name__}")


def index_form_samples(fr, f: Jet, g: Optional[Jet] = None) -> np.ndarray:
    """The integrand of ``index_form_I`` against du1 du2 at points whose
    ``SurfaceFrames`` are ``fr``, for u = f |N_h| given by the jet of f: the
    A''(0) density of the horizontal deformation F + e f nu_h, whose normal
    component is u.  With the jet of g, for v = g |N_h|, it is the symmetric
    bilinear density 1/4 [A''(f + g) - A''(f - g)].  It reads no shape term."""
    return _polarized(*_horizontal_fields(fr, [fr.nu_h_partial(j) for j in (0, 1)], f, g))


def _horizontal_fields(fr, partials: list, f: Jet, g: Optional[Jet]) -> tuple:
    """F_j's frame coefficients, and in turn each (p, q, dp, dq) of V = h nu_h
    for h = f, or for h = f + g and f - g: p = h nu_X and q = h nu_Y (r = 0),
    with their chart partials from ``partials``, ``SurfaceFrames.nu_h_partial``."""
    nu = fr.nu_h[:2]
    dnu = [d[1:] for d in partials]
    hs = [f] if g is None else [[a + b for a, b in zip(f, g)], [a - b for a, b in zip(f, g)]]
    return fr.tangents, ((h0 * nu[0], h0 * nu[1], *(
        [dhj * nu[k] + h0 * d[k] for dhj, d in zip(dh, dnu)] for k in (0, 1))) for h0, *dh in hs)


def _polarized(tangents, fields) -> np.ndarray:
    a2 = [variation_samples(tangents, *v, (0.0, 0.0))[0] for v in fields]
    return a2[0] if len(a2) == 1 else 0.25 * (a2[0] - a2[1])


def _index_form_fields(chart: Chart, U1, U2, uf: TestFunction, vf: TestFunction) -> tuple:
    """``_horizontal_fields`` on the frames of ``chart`` at (U1, U2), with f
    the recorded f of u = ``times_nh(chart, f)`` and otherwise u/|N_h| with
    partials (u_j - f d|N_h|_j)/|N_h|, and g likewise.  The frames are
    released on return, before G is formed: that keeps the block's peak down."""
    fr = surface_frames(chart, U1, U2)
    partials = [fr.nu_h_partial(j) for j in (0, 1)]

    def over_nh(uf: TestFunction) -> Jet:
        if uf.nh_factor is not None and uf.nh_factor[0] is chart:
            return uf.nh_factor[1].jet(U1, U2, (chart, fr))
        u, *du = uf.jet(U1, U2, (chart, fr))
        f = u / fr.Nh_norm
        return f, *((uj - f * d[0]) / fr.Nh_norm for uj, d in zip(du, partials))

    return _horizontal_fields(fr, partials, over_nh(uf), None if vf is uf else over_nh(vf))


def index_form_I(chart: Chart, uf: TestFunction, vf: TestFunction,
                 quad: QuadratureSpec) -> float:
    """The second-variation bilinear form I(u, v), in one pass of
    ``integrate_cells`` of the density ``index_form_samples`` on the cells of
    ``index_form_cells``: the A''(0) of the horizontal deformation
    F + e f nu_h with u = f |N_h|, polarized where v is not u.  f is the f
    of u = ``times_nh(chart, f)``, and u/|N_h| otherwise.  On a minimal
    surface this is int |N_h|^{-1} { Z(u) Z(v) - q u v } dA, and it keeps
    the dilation law at every scale.  Raises ``SupportOutsideDomain`` when
    the intersection of the supports leaves the chart domain.
    """
    cells = index_form_cells(chart, uf, vf)
    if cells is None:
        return 0.0
    rect, cuts = cells
    return integrate_cells(lambda U1, U2: _polarized(*_index_form_fields(chart, U1, U2, uf, vf)),
                           rect, quad, cuts)


def index_form_cells(chart: Chart, uf: TestFunction,
                     vf: TestFunction) -> tuple[Rect, Cuts] | None:
    """The rectangle and cut points of ``index_form_I``: the (regular)
    intersection of the supports of u and v, or None where it is empty, cut
    at their support edges and kinks on each axis.  Raises
    ``SupportOutsideDomain`` when that intersection leaves the chart domain.
    """
    rect = _intersection((uf.support, vf.support))
    if rect is None:
        return None
    _require_inside(chart, rect)
    return rect, (_axis_cuts((uf, vf), 0), _axis_cuts((uf, vf), 1))


def ruling_form(chart: SeedRuledChart, psi: Profile, phi: Profile,
                quad: QuadratureSpec) -> float:
    """I(u, u) for u = |N_h| psi(s) phi(a) on a seed chart whose ruling
    coefficients (th', b, c0) are the same on every ruling.

    With C = th' s^2 + 2 b s + c0, integrating by parts against L(|N_h|)
    leaves no a-derivative and no frame quantity:

        I(u, u) = int phi^2 da * int ( |C| psi'^2 + 4 (b^2 - th' c0) psi^2 / |C| ) ds,

    two ``integrate_array_1d`` passes, with ``quad.cells[0]`` cells along s
    and ``quad.cells[1]`` along a.  Raises ``SingularPoint`` when psi's
    closed support holds a root of C, ``SupportOutsideDomain`` when psi x
    phi leaves the chart domain, and ``ValueError`` (from ``RulingFrame``)
    on a chart that does not declare ``uniform_rulings``.
    """
    lo, hi = psi.support
    at_lo = RulingFrame(chart, lo)
    tp, b, c0 = at_lo.tp, at_lo.b, at_lo.c0
    _require_inside(chart, (psi.support, phi.support))
    # C is monotone on each side of its vertex, so on [lo, hi] its values run
    # between those at lo, at hi and at the vertex when the vertex is inside
    ends = [hi] + ([-b / tp] if tp != 0.0 and lo < -b / tp < hi else [])
    vals = [at_lo.C] + [RulingFrame(chart, s).C for s in ends]
    if min(vals) <= 0.0 <= max(vals):
        raise SingularPoint(f"C(s) = {tp!r} s^2 + {2.0 * b!r} s + {c0!r} has a root in psi's "
                            f"support [{lo!r}, {hi!r}] on {type(chart).__name__}")
    pot = 4.0 * (b * b - tp * c0)

    def along(s: np.ndarray) -> np.ndarray:
        c = np.abs(RulingFrame(chart, s).C)
        d = psi.derivs(s)
        # grouped so that no product leaves the scale of the result
        return c * d * d + pot / c * psi.values(s) ** 2

    a_lo, a_hi = phi.support
    across = integrate_array_1d(lambda a: phi.values(a) ** 2, a_lo, a_hi,
                                quad.points_per_cell, quad.cells[1], phi.breakpoints)
    return across * _profile_integral(psi, along, quad)


class RulingFrame:
    """The frame at ruling parameter s (a float or an array) of a seed chart
    with ruling coefficients (th', b, c0), each entry computed when read: with
    C = th' s^2 + 2 b s + c0, L = b + th' s, Delta = th' c0 - b^2 and the area
    density W = hypot(C, L), |N_h| = |C|/W, <N,T> = L/W, <B(Z),S> = 1 - (L^2 -
    Delta)/W^2 and q = weight C^2/W^4 with weight = th'^2 + 4 Delta."""

    def __init__(self, chart: SeedRuledChart, s):
        if not getattr(chart, "uniform_rulings", False):
            raise ValueError(f"{type(chart).__name__} declares no ruling coefficients for every a")
        self.tp, self.b, self.c0 = chart.ruling_coefficients(0.0, math)
        self.chart = chart
        self.s = s

    C = functools.cached_property(lambda d: (d.tp * d.s + 2.0 * d.b) * d.s + d.c0)
    L = functools.cached_property(lambda d: d.b + d.tp * d.s)
    W = functools.cached_property(
        lambda d: (np.hypot if isinstance(d.s, np.ndarray) else math.hypot)(d.C, d.L))
    delta = property(lambda d: d.tp * d.c0 - d.b * d.b)
    weight = property(lambda d: d.tp * d.tp + 4.0 * d.delta)
    Nh = property(lambda d: abs(d.C) / d.W)
    NT = property(lambda d: d.L / d.W)
    BZS = property(lambda d: 1.0 - (d.L * d.L - d.delta) / (d.W * d.W))

    @property
    def q(d):
        """q, or ``NonFiniteValue`` naming the chart and the first s where q
        is not finite.  C/W^2 is at most 1/W, so q is finite wherever the
        weight and C/W^2 are, also where W^4 would overflow."""
        with np.errstate(all="ignore"):
            r = d.C / d.W / d.W
            q = d.weight * r * r
        raise_first_failure((~np.isfinite(q), lambda i: NonFiniteValue(
            f"q overflows at s = {float(np.ravel(d.s)[i])!r} on {d.chart!r}")))
        return q


def direct_variations(chart: Chart, v: TestFunction, w: TestFunction,
                      quad: QuadratureSpec) -> tuple[float, float, float]:
    """(A''(0), A'(0), A(0)) of the area A(e) of F + e(vN + wT), in one
    ``integrate_cells`` pass of ``variation_samples`` over the support union
    of v and w cut at their edges and kinks.  On a minimal surface A''(0)
    is I(u, u) with u = v + <N,T> w.  Raises ``SupportOutsideDomain`` when
    the support leaves the chart domain, ``SingularPoint`` from the frames
    and ``NonFiniteValue`` at the first non-finite sample."""
    rect = _support_union((v, w))
    if rect != EMPTY_SUPPORT:
        _require_inside(chart, rect)
    return integrate_cells(lambda U1, U2: variation_samples(*_normal_field(chart, U1, U2, v, w)),
                           rect, quad, (_axis_cuts((v, w), 0), _axis_cuts((v, w), 1)))


def _normal_field(chart: Chart, U1, U2, v: TestFunction, w: TestFunction) -> tuple:
    """The ``variation_samples`` arguments of V = vN + wT at the chart points
    (U1, U2): p = v N_X, q = v N_Y and r = v N_T + w, with their chart
    partials from ``normal_partial``.  The frames are released on return,
    before ``variation_samples`` forms G: that keeps the block's peak down."""
    fr = surface_frames(chart, U1, U2)
    n = fr.N
    v0, *dv = v.jet(U1, U2, (chart, fr))
    dw = w.jet(U1, U2, (chart, fr))[1:]
    dp, dq, dr = [], [], []
    for j, (dvj, dwj) in enumerate(zip(dv, dw)):
        dn = fr.normal_partial(j)
        dp.append(dvj * n[0] + v0 * dn[0])
        dq.append(dvj * n[1] + v0 * dn[1])
        dr.append(dvj * n[2] + v0 * dn[2] + dwj)
    return fr.tangents, v0 * n[0], v0 * n[1], dp, dq, dr


def variation_samples(tangents, p, q, dp, dq, dr) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (A''(0), A'(0), A(0)) densities against du1 du2 of the area of
    F + e V, moved along straight lines in coordinates, where F_1 and F_2
    have the frame coefficients ``tangents`` and V has (p, q, r), with the
    chart partials p_j, q_j and r_j in ``dp``, ``dq`` and ``dr``.  The moved
    F_j + e V_j has X_j + e p_j, Y_j + e q_j and c(F_j) + e (r_j + 2 (p Y_j
    - q X_j)) + e^2 (p q_j - q p_j), so the horizontal part of F_1 x F_2 is
    a cubic G0 + e G1 + e^2 G2 + ... in e: A = |G0|, A' = G0.G1/|G0| and
    A'' = (|G1|^2 + 2 G0.G2)/|G0| - (G0.G1)^2/|G0|^3."""
    (a1, b1, c1), (a2, b2, c2) = (
        ([c[0], pj], [c[1], qj], [c[2], rj + 2.0 * (p * c[1] - q * c[0]), p * qj - q * pj])
        for c, pj, qj, rj in zip(tangents, dp, dq, dr))
    (x0, y0), (x1, y1), (x2, y2) = (
        (_product(b1, c2, k) - _product(c1, b2, k), _product(c1, a2, k) - _product(a1, c2, k))
        for k in range(3))
    g0 = np.hypot(x0, y0)
    d1 = (x0 * x1 + y0 * y1) / g0
    return (x1 * x1 + y1 * y1 + 2.0 * (x0 * x2 + y0 * y2) - d1 * d1) / g0, d1, g0


def _product(f: list, g: list, k: int):
    """The e^k coefficient of the product of two polynomials in e."""
    terms = [f[i] * g[k - i] for i in range(max(0, k - len(g) + 1), min(k + 1, len(f)))]
    return sum(terms[1:], terms[0])


def second_variation_direct(chart: Chart, v: TestFunction, w: TestFunction,
                            quad: QuadratureSpec) -> float:
    """A''(0) of ``direct_variations``."""
    return direct_variations(chart, v, w, quad)[0]


def first_variation_direct(chart: Chart, v: TestFunction, w: TestFunction,
                           quad: QuadratureSpec) -> tuple[float, float]:
    """(A'(0), A(0)) of ``direct_variations``."""
    return direct_variations(chart, v, w, quad)[1:]


# ---------------------------------------------------------------------------
# Helicoid closed forms and the singular quadratic form Q
# ---------------------------------------------------------------------------

def helicoid_closed_forms(R: float, s: float) -> RulingFrame:
    """``RulingFrame`` of ``HelicoidChart(R)``."""
    return RulingFrame(HelicoidChart(R), s)


def bracket_integral(k: float, delta: float) -> float:
    """C(k, delta) = (1/delta^2) [F(k+delta) - F(k)] with the closed
    antiderivative F(s) = 4 s^3/3 + 3 s + log((2s-1)/(2s+1)) of the ramp
    integrand (16 s^4 + 8 s^2 + 1)/(4 s^2 - 1)."""
    if not k > 0.5:
        raise ValueError("k must exceed 1/2")
    if not delta > 0.0:
        raise ValueError("delta must be positive")

    def F(s: float) -> float:
        return 4.0 * s ** 3 / 3.0 + 3.0 * s + math.log((2.0 * s - 1.0) / (2.0 * s + 1.0))

    return (F(k + delta) - F(k)) / (delta * delta)


def bracket_integral_quadrature(k: float, delta: float,
                                quad: QuadratureSpec) -> float:
    """Independent evaluation of C(k, delta) by quadrature of the rational
    integrand; cross-checks the closed antiderivative."""
    if not k > 0.5:
        raise ValueError("k must exceed 1/2")
    val = gauss_legendre_1d(
        lambda s: (16.0 * s ** 4 + 8.0 * s ** 2 + 1.0) / (4.0 * s * s - 1.0),
        k, k + delta, quad)
    return val / (delta * delta)


def _profile_integral(p: Profile, fn: Callable[[np.ndarray], np.ndarray],
                      quad: QuadratureSpec, cuts: Sequence[float] = ()) -> float:
    """Integral of the array integrand fn over the support of p, cut at its
    kinks and at ``cuts``, in one array pass."""
    lo, hi = p.support
    return integrate_array_1d(fn, lo, hi, quad.points_per_cell, quad.cells[0],
                              (*p.breakpoints, *cuts))


# half-width of the s-window around each singular helix of the pitch-2
# helicoid; at pitch R it is the dilated window TUBE_MARGIN * 2/R
TUBE_MARGIN = 0.05


def _check_tube(s_prof: Profile, R: float) -> None:
    margin = TUBE_MARGIN * 2.0 / R
    for s0 in (1.0 / R, -1.0 / R):
        if not s_prof.flat_on(s0 - margin, s0 + margin):
            raise TubeConditionViolated(f"test function varies along rulings near s = {s0}")


def _singular_helices(chart: HelicoidChart) -> RulingFrame:
    """The ``RulingFrame`` of the pitch-R helicoid on its singular helices
    s = 1/R and -1/R, an array of two, where eps is arclength: W = 1 there.
    Raises ``NonFiniteValue`` naming R where rounding of 1/R leaves the
    helices, so that W is off 1 by more than 1e-12."""
    R = chart.R
    helices = RulingFrame(chart, np.array([1.0 / R, -1.0 / R]))
    if not np.all(abs(helices.W - 1.0) <= 1e-12):
        raise NonFiniteValue(f"the singular helices at R={R!r} are not arclength-parameterized: "
                             f"W = {helices.W.tolist()!r}")
    return helices


def q_form(R: float, u: TestFunction, quad: QuadratureSpec) -> float:
    """The helicoid stability form

    Q(u) = int |N_h|^{-1} (Z(u)^2 - q u^2) dA
           - 4 int_{singular} u^2 dl + int_{singular} S(u)^2 dl

    in the (eps, s) ruled coordinates of the pitch-R helicoid; the angular
    coordinate is arclength on both singular helices s = +-1/R.  ``u`` must
    be separable with the s-factor flat (``Profile.flat_on``) on the windows
    of half-width TUBE_MARGIN * 2/R around the singular helices.
    ``ValueError`` on an R that ``HelicoidChart`` refuses.
    """
    chart = HelicoidChart(R)
    if u.sep is None:
        raise TubeConditionViolated("q_form requires a separable test function")
    phi, psi = u.sep
    _check_tube(psi, R)
    helices = _singular_helices(chart)
    cuts, weight = helices.s.tolist(), helices.weight

    int_phi2 = _profile_integral(phi, lambda e: phi.values(e) ** 2, quad)
    int_dphi2 = _profile_integral(phi, lambda e: phi.derivs(e) ** 2, quad)

    # ramp term: |N_h|^{-1} Z(u)^2 dA = (W^2/|C|) (du/ds)^2 deps ds
    def ramp(s: np.ndarray) -> np.ndarray:
        d = RulingFrame(chart, s)
        return d.W * d.W / abs(d.C) * psi.derivs(s) ** 2

    def pot(s: np.ndarray) -> np.ndarray:
        d = RulingFrame(chart, s)
        return abs(d.C) / (d.W * d.W) * psi.values(s) ** 2

    # cells never straddle a singular helix; the ramp term is 0 where psi is
    # flat, and the potential term where q's weight R^2 - 4 is (at R = 2).
    # At pitches far from 1, W^2 overflows and a sample is not finite.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            t1 = int_phi2 * _profile_integral(psi, ramp, quad, cuts)
            t2 = (-weight * int_phi2 * _profile_integral(psi, pot, quad, cuts)
                  if weight != 0.0 else 0.0)
    except NonFiniteValue as exc:
        raise NonFiniteValue(f"helicoid form at R={R!r} is not finite: {exc}") from None
    trace2 = psi.value(cuts[0]) ** 2 + psi.value(cuts[1]) ** 2
    t3 = -4.0 * trace2 * int_phi2
    t4 = trace2 * int_dphi2
    return t1 + t2 + t3 + t4


# ---------------------------------------------------------------------------
# Instability certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InstabilityCertificate:
    """An explicit test function plus quadrature evidence that the relevant
    quadratic form is negative.  ``surface`` names the surface with its
    parameter (``helicoid R=...``, ``catenoid lam=...``).  ``k`` and ``eps0``
    are the half-widths of the test function along and across the rulings;
    ``delta`` and ``C`` are set for helicoid certificates only.
    ``Q_value_doubled`` is the same form at doubled resolution, set by the
    searches that computed it.
    """

    surface: str
    k: float
    eps0: float
    Q_value: float
    quad: QuadratureSpec
    delta: Optional[float] = None
    C: Optional[float] = None
    Q_value_doubled: Optional[float] = None

    def to_text(self) -> str:
        lines = [f"surface={self.surface}",
                 f"k={self.k:.17g}",
                 f"delta={'' if self.delta is None else format(self.delta, '.17g')}",
                 f"eps0={self.eps0:.17g}",
                 f"C={'' if self.C is None else format(self.C, '.17g')}",
                 f"Q_value={self.Q_value:.17g}",
                 f"quad_points_per_cell={self.quad.points_per_cell}",
                 f"quad_cells={self.quad.cells[0]},{self.quad.cells[1]}"]
        if self.Q_value_doubled is not None:
            lines.append(f"Q_value_doubled={self.Q_value_doubled:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "InstabilityCertificate":
        """Parse ``to_text`` output; other keys are ignored.  Raises
        ``ConfigError`` naming the key when a key is missing or its value is
        malformed or not finite."""
        kv = {key.strip(): val.strip() for key, _, val in
              (line.partition("=") for line in text.strip().splitlines())}

        def field(key, conv, required=True):
            if required and key not in kv:
                raise ConfigError(f"certificate has no {key!r} line")
            val = kv.get(key, "")
            try:
                return conv(val)
            except ValueError as exc:
                raise ConfigError(f"certificate: bad value {val!r} for {key!r}: {exc}") from None

        def cells(val):
            n1, n2 = val.split(",")
            return QuadratureSpec(cells=(int(n1), int(n2))).cells

        def number(val):
            x = float(val)
            if not math.isfinite(x):
                raise ValueError("not a finite number")
            return x

        def optional(val):
            return number(val) if val else None

        return cls(
            surface=field("surface", str),
            k=field("k", number),
            eps0=field("eps0", number),
            Q_value=field("Q_value", number),
            quad=field("quad_points_per_cell",
                       lambda v: QuadratureSpec(int(v), field("quad_cells", cells))),
            delta=field("delta", optional, required=False),
            C=field("C", optional, required=False),
            Q_value_doubled=field("Q_value_doubled", optional, required=False),
        )


def h2_certificate_test_function(k: float, delta: float, eps0: float) -> TestFunction:
    """cos_arch(eps0) across the rulings times plateau_ramp(k, delta) along
    them, with the plateau past the pitch-2 singular radius 1/2."""
    if not k > 0.5:
        raise ValueError("k must exceed 1/2")
    return separable(cos_arch(eps0), plateau_ramp(k, delta))


# Relative gap allowed between a certificate's Q at its rule and at the
# rule's doubling.
DOUBLING_RTOL = 1e-6


def _confirmed(q: float, q_doubled: float, surface: str) -> float:
    """``q_doubled``, the form at doubled resolution, when it agrees with
    ``q`` to ``DOUBLING_RTOL`` relative; else there is no certificate."""
    if not abs(q - q_doubled) <= DOUBLING_RTOL * abs(q_doubled):
        raise CertificateNotFound(
            f"Q = {q!r} at 1x and {q_doubled!r} at 2x differ by more than "
            f"{DOUBLING_RTOL:g} relative on the {surface}")
    return q_doubled


H2_K_VALUES = [0.51 + 0.01 * j for j in range(250)]
H2_EPS0_VALUES = [float(2 ** m) for m in range(16)]
H2_QUAD = QuadratureSpec(16, (64, 1))


def certify_instability_h2() -> InstabilityCertificate:
    """Deterministic certificate search for the pitch-2 helicoid.

    Scans k with delta = 2k + 1 for a bracket value C(k, delta) < 8, then
    the smallest power-of-two envelope halfwidth eps0 whose Rayleigh
    quotient 2 (pi/(2 eps0))^2 falls under 8 - C; the certificate is the
    lexicographically first passing grid point, with Q evaluated by
    quadrature at ``H2_QUAD`` and again at its doubling; the two must agree
    to ``DOUBLING_RTOL``.
    """
    for k in H2_K_VALUES:
        if k < 0.5 + TUBE_MARGIN:
            continue  # plateau must cover the singular helices with margin
        delta = 2.0 * k + 1.0
        c = bracket_integral(k, delta)
        if not c < 8.0:
            continue
        for eps0 in H2_EPS0_VALUES:
            rayleigh = 2.0 * (math.pi / (2.0 * eps0)) ** 2
            if not rayleigh < 8.0 - c:
                continue
            u = h2_certificate_test_function(k, delta, eps0)
            q_val = q_form(2.0, u, H2_QUAD)
            if q_val < 0.0:
                q_doubled = _confirmed(q_val, q_form(2.0, u, H2_QUAD.doubled()),
                                       "helicoid R=2")
                return InstabilityCertificate(
                    "helicoid R=2", k, eps0, q_val, H2_QUAD, delta=delta, C=c,
                    Q_value_doubled=q_doubled)
    raise CertificateNotFound("no (k, eps0) grid point produced Q < 0")


def scaled_helicoid_certificate(base: InstabilityCertificate,
                                R: float) -> InstabilityCertificate:
    """Certificate for the pitch-R helicoid derived from the pitch-2 one.

    The dilation with lam = log(2/R) carries the pitch-2 helicoid onto the
    pitch-R one, maps variations to variations, and scales every area (hence
    the second derivative) by exactly e^{3 lam}; the certificate therefore
    reports e^{3 lam} times the base Q value, with the ruled-coordinate
    parameters scaled by e^{lam}, and no doubled value of its own (the
    base's stands for it).  Note the pulled-back scalar test function
    is not itself the deformation data on the pitch-R surface, so its own
    quadratic form is a different (and not always negative) quantity.
    Raises ``NonFiniteValue`` when a scaled field is not finite or a
    negative base Q underflows, so a certificate is never one of inf or 0.
    """
    lam = math.log(2.0 / R)
    try:
        scale, volume = math.exp(lam), math.exp(3.0 * lam)
    except OverflowError:  # e^{3 lam} for R below about 1.8e-102: not finite
        scale = volume = math.inf
    cert = InstabilityCertificate(f"helicoid R={R:g}", scale * base.k,
                                  scale * base.eps0, volume * base.Q_value,
                                  base.quad, delta=scale * base.delta, C=None)
    if not all(map(math.isfinite, (cert.k, cert.eps0, cert.Q_value, cert.delta))):
        raise NonFiniteValue(f"scaled certificate at R={R!r} is not finite")
    if base.Q_value < 0.0 and not cert.Q_value < 0.0:
        raise NonFiniteValue(f"scaled Q_value underflows to {cert.Q_value!r} at R={R!r}")
    return cert


NOSING_QUAD = QuadratureSpec(16, (8, 1))
NOSING_PHI = cosine_bump(0.0, 1.0)


def ruled_index_value(lam: float, quad: QuadratureSpec) -> float:
    """I(u, u) on ``CatenoidRulingChart(lam)`` for u = |N_h| psi(s) phi(a),
    with psi = cosine_bump(0, 2|lam|) along the rulings and phi =
    ``NOSING_PHI`` across them: the ``ruling_form`` with C = s^2 + lam^2 and
    4 (b^2 - th' c0) = -4 lam^2, which has no real root, no cancellation and
    no layer at the waist; it is |lam| times a number that does not depend on lam.
    """
    return ruling_form(CatenoidRulingChart(lam), cosine_bump(0.0, 2.0 * abs(lam)),
                       NOSING_PHI, quad)


def scaled_catenoid_certificate(unit: InstabilityCertificate,
                                lam: float) -> InstabilityCertificate:
    """Certificate for the catenoid of waist radius |lam| derived from the
    unit one, ``certify_instability_nosing()``.

    The dilation by |lam| carries the unit catenoid onto this one, and the
    ruling form of ``ruled_index_value`` is |lam| times its unit value in
    exact arithmetic; so ``k`` and Q at both resolutions are |lam| times
    the unit's, each one rounded product, and ``eps0``, a width in the
    angle a, is the unit's.  Every lam that ``CatenoidRulingChart`` accepts
    has one; it raises ``ValueError`` unless 0 < lam^2 < inf.
    """
    CatenoidRulingChart(lam)  # the chart's own check of lam
    scale = abs(lam)
    return InstabilityCertificate(
        f"catenoid lam={lam:.17g}", scale * unit.k, unit.eps0, scale * unit.Q_value,
        unit.quad, Q_value_doubled=scale * unit.Q_value_doubled)


def certify_instability_nosing() -> InstabilityCertificate:
    """Instability certificate for the unit catenoid, lam = 1, a complete
    surface with no singular points and <N,T> != 0 off the waist:
    ``ruled_index_value(1.0, NOSING_QUAD)`` is negative and agrees with its
    doubling to ``DOUBLING_RTOL``; ``k`` is psi's half-width 2 and ``eps0``
    phi's, 1.  ``scaled_catenoid_certificate`` carries it to every waist
    radius |lam|.
    """
    val = ruled_index_value(1.0, NOSING_QUAD)
    if not val < 0.0:
        raise CertificateNotFound(f"I(u, u) = {val!r} is not negative on the unit "
                                  "catenoid lam=1")
    q_doubled = _confirmed(val, ruled_index_value(1.0, NOSING_QUAD.doubled()),
                           "unit catenoid lam=1")
    return InstabilityCertificate("catenoid lam=1", 2.0, NOSING_PHI.support[1], val,
                                  NOSING_QUAD, Q_value_doubled=q_doubled)


# ---------------------------------------------------------------------------
# Vertical variations near the singular helices
# ---------------------------------------------------------------------------

# half-width of the s-window of the deformed tube
TUBE_S0 = 0.3


def vertical_variation_area(R: float, w: Profile, r: float,
                            quad: QuadratureSpec) -> float:
    """Area of the tube around one singular helix of the pitch-R helicoid,
    deformed vertically by r w(eps) (constant along rulings):

        A(r) = int int | s(-2 - R s) + r wdot(eps) | ds deps,

    over supp(w) x [-TUBE_S0, TUBE_S0]; -R is the curvature of the
    xy-projection of the helix.  The kink in |.| is split at the exact root
    of the quadratic, so each s-piece integrates exactly.  TubeTooSmall is
    raised at the first eps node where the deformation has no real kink, a
    second kink enters the window, or the kink leaves it, in that order.
    ``ValueError`` on an R that ``HelicoidChart`` refuses.  At a Taylor r
    it is the Taylor number of A, the integrals of the integrand's terms.
    """
    h, s0 = -HelicoidChart(R).R, TUBE_S0  # the chart refuses an R that no helicoid has

    def prim(s, rw):
        return h * s ** 3 / 3.0 - s * s + rw * s

    def inner(es: np.ndarray) -> np.ndarray:
        rw = r * w.derivs(es)
        disc = 1.0 - h * rw
        with np.errstate(invalid="ignore", divide="ignore"):  # disc <= 0 raises below
            root = taylor.sqrt(disc)
        s_star = (1.0 - root) / h
        far = (1.0 + root) / h
        raise_first_failure(
            (disc <= 0.0, lambda i: TubeTooSmall("deformation too large for the tube")),
            (abs(far) <= s0, lambda i: TubeTooSmall("second kink entered the window")),
            (abs(s_star) >= s0, lambda i: TubeTooSmall("kink left the window")))
        return abs(prim(s_star, rw) - prim(-s0, rw)) + abs(prim(s0, rw) - prim(s_star, rw))

    if type(r) is Taylor:
        d = _profile_integral(w, lambda es: taylor_derivatives(inner(es)), quad)
        return Taylor(d[0], d[1], 0.5 * d[2]) if isinstance(d, tuple) else Taylor(d)  # empty w
    return _profile_integral(w, inner, quad)



# ---------------------------------------------------------------------------
# Boundary flux of the divergence terms
# ---------------------------------------------------------------------------

def boundary_flux(R: float, v: TestFunction, quad: QuadratureSpec) -> float:
    """The flux of the second-variation divergence terms through the
    boundary of the tube of radius sigma around the singular helices, in
    the limit sigma -> 0.

    The flux density is (xi + mu) <Z, eta> with xi = <N,T>(1 - <B(Z),S>) v^2
    and mu = |N_h|^2 (1 - 3 <B(Z),S>) v^2 / <N,T>, the vertical-deformation
    counterpart with w = v/<N,T>; eta is the outward conormal, and
    <Z, eta> deps = W deps.  Every factor is a ``RulingFrame`` entry, finite
    and continuous across C = 0, so the limit is the density on the helices
    s = +-1/R themselves, where the two sides of each helix coincide: there
    |N_h| = 0, <N,T> = -+1, <B(Z),S> = -1 and W = 1, and the total is
    4 int_{singular} v^2 dl.  The eps-integral is cut at v's kinks.
    ``ValueError`` on an R that ``HelicoidChart`` refuses, and
    ``NonFiniteValue`` from ``_singular_helices``.
    """
    d = _singular_helices(HelicoidChart(R))
    dens = (d.NT * (1.0 - d.BZS) + d.Nh * d.Nh * (1.0 - 3.0 * d.BZS) / d.NT) * d.W
    (lo, hi) = v.support[0]

    def eps_integral(level: float) -> float:
        return integrate_array_1d(lambda e: v.jet(e, np.full_like(e, level))[0] ** 2,
                                  lo, hi, quad.points_per_cell, quad.cells[0], v.kinks[0])

    # each helix once per side of its tube, s = 1/R with sign -1 and -1/R with +1
    return kahan_sum([2.0 * sgn * f * eps_integral(s) for s, sgn, f in
                      zip(d.s.tolist(), (-1.0, 1.0), dens.tolist())])
