"""Parameterized surface patches and their sub-Riemannian invariants.

A chart supplies Euclidean partials of the immersion through second order;
everything else (unit normal N, horizontal normal N_h, horizontal Gauss map
nu_h, characteristic field Z = J(nu_h), the tangent field
S = <N,T> nu_h - |N_h| T, shape-operator entries and mean curvatures) is
derived pointwise in frame coefficients.  The second fundamental form is
computed as II_ij = <N, D_{F_i} F_j> from the connection table, so analytic
charts incur no finite differencing, and neither do derivatives along the
Z and S curves (``curve_frames``), which the seed chart of an S-curve
(``RuledChart``) reads its seed from.

Points where the tangent plane is horizontal (|N_h| = 0) are singular: the
characteristic quantities are undefined there and requesting them raises
``SingularPoint``.  The sub-Riemannian area density |N_h| |F_1 x F_2| equals
the horizontal norm of F_1 x F_2 and extends continuously by zero across the
singular locus.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .core import (Point, Vec3, connection_correct, cross_coeffs, euclidean_coeffs,
                   frame_coeffs, jop_coeffs)
from .errors import GeometryError, NonFiniteValue, SingularPoint, StoppedAtSingular
from .numerics import (FirstFailures, QuadratureSpec, Rect, Taylor, integrate_cells,
                       raise_first_failure, rk4_states, taylor, taylor_derivatives)

SINGULAR_TOL = 1e-9


Arr3 = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ChartJets:
    """Euclidean partials of the immersion at N parameter points: each entry
    is a triple of arrays with the shape of the parameter arrays, or of
    floats at one point (``Chart.jet``)."""

    p: Arr3
    f1: Arr3
    f2: Arr3
    f11: Arr3
    f12: Arr3
    f22: Arr3


class Chart:
    """Base class: a C^2 map from a parameter rectangle into the group.

    A chart writes ``_jet_parts(u1, u2, m)`` once, with ``m`` the ``math``
    module for one point, ``numpy`` for arrays or ``numerics.taylor``; a
    scalar entry it returns is a constant of the chart and is broadcast.  A chart whose
    parts take floats only stacks its scalar jets there (``_stacked``).
    """

    domain: Rect = ((-1.0, 1.0), (-1.0, 1.0))

    def point(self, u1: float, u2: float) -> Point:
        return Point(*self._jet_floats(u1, u2)[0])

    def jet(self, u1: float, u2: float) -> ChartJets:
        """``jets`` at the one point (u1, u2): each entry a triple of floats."""
        return ChartJets(*self._jet_floats(u1, u2))

    def _jet_floats(self, u1: float, u2: float) -> tuple:
        """The jet at (u1, u2) as plain tuples (p, f1, f2, f11, f12, f22),
        with its errors in its order: an overflow, a domain error and a
        non-finite point raise ``NonFiniteValue`` ``non-finite point at
        (u1, u2)``, as ``surface_frames`` names them."""
        try:
            jet = self._jet_parts(u1, u2, math)
            x, y, t = jet[0]
            finite = math.isfinite(x) and math.isfinite(y) and math.isfinite(t)
        except (OverflowError, ValueError):  # where numpy gives inf or NaN
            finite = False
        if not finite:
            raise NonFiniteValue(f"non-finite point at {(u1, u2)!r}")
        return jet

    def jets(self, U1, U2) -> ChartJets:
        """Jets at the points (U1[i], U2[i]) as arrays: the arrays of
        ``_jet_parts`` themselves, which float64 parameter arrays make
        float64 arrays of their shape, and each constant of the chart (a
        float or numpy scalar) filled into a new array of that shape."""
        U1, U2 = _parameter_arrays(U1, U2)
        return ChartJets(*(tuple(c if type(c) is np.ndarray else np.full(U1.shape, float(c))
                                 for c in v) for v in self._jet_parts(U1, U2, np)))

    def _jet_parts(self, u1, u2, m):
        raise NotImplementedError


def _parameter_arrays(U1, U2) -> tuple[np.ndarray, np.ndarray]:
    """The chart points (U1[i], U2[i]) as two float arrays of one shape;
    raises ``ValueError`` where U1 and U2 differ in shape."""
    U1 = np.asarray(U1, dtype=float)
    U2 = np.asarray(U2, dtype=float)
    if U1.shape != U2.shape:
        raise ValueError("parameter arrays must have one shape")
    return U1, U2


def _stacked(f, keys: list, width: int) -> np.ndarray:
    """The rows ``f(*key)``, tuples of float tuples with ``width`` floats in
    all, at ``keys`` in order, up to the first key with a non-finite entry
    or at which ``f`` raises a ``GeometryError``, where the scalar view
    stops (``_own_error`` finds its error again), and then one row of NaN."""
    rows = []
    for key in keys:
        if not all(map(math.isfinite, key)):
            break
        try:
            rows.append(list(itertools.chain.from_iterable(f(*key))))
        except GeometryError:
            break
    return np.array(rows + [[math.nan] * width])


def _columns(rows: np.ndarray, shape: tuple, widths: tuple) -> tuple:
    """The (N, sum(widths)) ``rows`` as tuples of ``widths`` arrays of ``shape``."""
    cols = iter(rows.T.reshape(rows.shape[1:] + shape))
    return tuple(tuple(next(cols) for _ in range(w)) for w in widths)


def _own_error(chart: Chart, u: tuple[float, float]) -> Optional[GeometryError]:
    """What the scalar jet at ``u`` raises other than ``NonFiniteValue`` (a
    walk's ``StoppedAtSingular``, a user partial's error), or None: the
    error of a point whose batched jet is NaN because ``_stacked`` stopped
    there.  None at a non-finite ``u``, where no scalar view evaluates."""
    if math.isfinite(u[0]) and math.isfinite(u[1]):
        try:
            chart._jet_floats(*u)
        except NonFiniteValue:
            pass
        except GeometryError as exc:
            return exc
    return None


class SurfaceFrames:
    """The pointwise geometric package of a surface at chart points: arrays
    at N points (``surface_frames``), floats at one (``surface_frame``).

    ``points`` are the base points, ``tangents`` the frame coefficients of
    F_1 and F_2 and ``N`` those of the unit normal; with ``Nh_norm``,
    ``NT``, ``riem_area`` (|F_1 x F_2|, the Riemannian density against
    du1 du2) and ``regular`` they are read off the frame head.  ``nu_h``,
    ``Z`` and ``S`` are frame-coefficient triples computed on each read.
    The shape entries (``BZZ``, ``BZS``, ``BSS``, ``H``, ``HR``, ``q`` =
    |B(Z)+S|^2 - 4|N_h|^2, ``z_chart`` and ``s_chart``) are computed together
    when one of them is first read, and ``dNh`` and ``dNT`` on each read.
    The characteristic entries are NaN where ``regular`` is False.
    """

    def __init__(self, jet: ChartJets, c1: Arr3, c2: Arr3, w: np.ndarray, n: Arr3,
                 nh: np.ndarray):
        self.points = jet.p
        self.tangents = (c1, c2)
        self.N = n
        self.Nh_norm = nh
        self.NT = n[2]
        self.riem_area = w
        self.regular = np.logical_not(nh <= SINGULAR_TOL)  # not ~: on a bool it is an int
        self._jet = jet

    @functools.cached_property
    def _shape(self) -> tuple:
        jet, (c1, c2) = self._jet, self.tangents
        x, y, _ = jet.p
        with np.errstate(all="ignore"):
            bzz, bzs, bss, h, hr, qval, zc, sc = _shape_terms(
                x, y, jet.f1, jet.f2, jet.f11, jet.f12, jet.f22, c1, c2,
                self.riem_area, self.N, self.Nh_norm)
        out = [bzz, bzs, bss, h, hr, qval, *zc, *sc]
        singular = np.logical_not(self.regular)
        if singular.any():
            out = [np.where(singular, np.nan, a) for a in out]
        return (*out[:6], tuple(out[6:8]), tuple(out[8:10]))

    def _regular_only(self, v: tuple) -> tuple:
        """The arrays ``v`` with NaN where ``regular`` is False."""
        if type(self.Nh_norm) is not np.ndarray:  # one regular point, or Taylor numbers
            return v
        return tuple(np.where(self.regular, c, np.nan) for c in v)

    def _direction(self, k: int) -> Arr3:
        with np.errstate(all="ignore"):
            return self._regular_only(_unit_directions(self.N, self.Nh_norm, ("", "Z", "S")[k])[k])

    nu_h = property(lambda fr: fr._direction(0))
    Z = property(lambda fr: fr._direction(1))
    S = property(lambda fr: fr._direction(2))
    BZZ = property(lambda fr: fr._shape[0])
    BZS = property(lambda fr: fr._shape[1])
    BSS = property(lambda fr: fr._shape[2])
    H = property(lambda fr: fr._shape[3])
    HR = property(lambda fr: fr._shape[4])
    q = property(lambda fr: fr._shape[5])
    z_chart = property(lambda fr: fr._shape[6])
    s_chart = property(lambda fr: fr._shape[7])
    dNh = property(lambda fr: tuple(fr.nu_h_partial(j)[0] for j in (0, 1)))
    dNT = property(lambda fr: fr._regular_only(tuple(fr.normal_partial(j)[2] for j in (0, 1))))

    def normal_partial(self, j: int) -> Arr3:
        """d/du_j of the frame coefficients of N (j = 0, 1), from the 2-jet:
        the partial of F_1 x F_2 less its part along N, over |F_1 x F_2|."""
        jet, (c1, c2), n = self._jet, self.tangents, self.N
        x, y, _ = jet.p
        fj = (jet.f1, jet.f2)[j]
        s1, s2 = ((jet.f11, jet.f12), (jet.f12, jet.f22))[j]
        with np.errstate(all="ignore"):
            d = [a + b for a, b in zip(cross_coeffs(_coeff_partial(x, y, s1, fj, jet.f1), c2),
                                       cross_coeffs(c1, _coeff_partial(x, y, s2, fj, jet.f2)))]
            nd = _dot3(n, d)
            return tuple((d[k] - n[k] * nd) / self.riem_area for k in range(3))

    def nu_h_partial(self, j: int) -> tuple:
        """d/du_j of |N_h| and of nu_X, nu_Y for nu_h = (N_X, N_Y, 0)/|N_h|,
        from ``normal_partial``: d nu = (dN - nu d|N_h|)/|N_h|, NaN where
        ``regular`` is False.  d|N_h| = nu_X dN_X + nu_Y dN_Y = -<N,T> dN_T /
        |N_h|, as dN is normal to N, so d|N_h| = <N,T> <dN, S>: that sum
        cancels where |N_h| -> 1 and this quotient where |N_h| -> 0, and
        the product with <N,T> cancels in neither."""
        nu, dn, nh, nt = self.nu_h, self.normal_partial(j), self.Nh_norm, self.NT
        with np.errstate(all="ignore"):
            dnh = nt * (nt * (nu[0] * dn[0] + nu[1] * dn[1]) - nh * dn[2])
            return dnh, (dn[0] - nu[0] * dnh) / nh, (dn[1] - nu[1] * dnh) / nh


# ---------------------------------------------------------------------------
# The frame math.  Every function here is plain arithmetic, so the same code
# runs on Python floats (``surface_frame``) and on arrays (``surface_frames``).
# ---------------------------------------------------------------------------

def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _tangent_cross(x, y, f1, f2):
    """Frame coefficients of F_1, F_2 and of F_1 x F_2."""
    c1 = frame_coeffs(x, y, f1)
    c2 = frame_coeffs(x, y, f2)
    return c1, c2, cross_coeffs(c1, c2)


def _coeff_partial(x, y, second, fi, fj):
    """d/du_i of the frame coefficients of F_j (second = d^2F/du_i du_j)."""
    c = second[2] - fi[1] * fj[0] - y * second[0] + fi[0] * fj[1] + x * second[1]
    return second[0], second[1], c


def _tangent_frame(x, y, f1, f2, u, m=math):
    """F_1 and F_2, |F_1 x F_2| and the unit normal in frame coefficients, and
    |N_h|.  At one point (``m`` is ``math``) raises ``NonFiniteValue`` where
    the chart is not an immersion at ``u``; arrays are checked by the caller."""
    c1, c2, (a, b, c) = _tangent_cross(x, y, f1, f2)
    w = m.sqrt(a * a + b * b + c * c)
    if m is math and (not (w > 0.0) or not math.isfinite(w)):
        raise NonFiniteValue(f"chart is not an immersion at {u!r}")
    n = _unit_normal((a, b, c), w, m)
    return c1, c2, w, n, m.hypot(n[0], n[1])


def _unit_normal(v, w, m):
    """n = v / w with w = |v|, as k v with k = 1 / w.  On Taylor numbers
    (``m`` is ``taylor``) the value terms are the same, and the derivative
    terms come from n w = v with the part along n taken out by hand: n' =
    P v' / w, where (P d)_i w^2 = d_i R_i - v_i sum_{j != i} v_j d_j and R_i
    = sum_{j != i} v_j^2; for n_c that is c'(a^2 + b^2) - c(a a' + b b')
    over w^3.  The order-2 term is (P v'' - n' w' - n w |n'|^2 / 2) / w.
    As k v, n_c' cancels O(1) terms near a singular curve, where n -> (0,
    0, +-1)."""
    if m is not taylor:
        k = 1.0 / w
        return (k * v[0], k * v[1], k * v[2])
    v0, v1, v2 = zip(*((x0, x1, 0.5 * d2) for x0, x1, d2 in map(taylor_derivatives, v)))
    w0, w1 = w.c0, w.c1
    k0 = 1.0 / w0

    def across(i, d):  # (P d)_i w^2
        j, l = (i + 1) % 3, (i + 2) % 3
        return d[i] * (v0[j] * v0[j] + v0[l] * v0[l]) - v0[i] * (v0[j] * d[j] + v0[l] * d[l])

    n0 = [k0 * x for x in v0]
    n1 = [across(i, v1) / (w0 * w0 * w0) for i in range(3)]
    half_w_n1n1 = 0.5 * w0 * (n1[0] * n1[0] + n1[1] * n1[1] + n1[2] * n1[2])
    return tuple(Taylor(n0[i], n1[i],
                        (across(i, v2) / (w0 * w0) - n1[i] * w1 - half_w_n1n1 * n0[i]) / w0)
                 for i in range(3))


def _unit_directions(n, nh, which: str = "ZS"):
    """nu_h, Z = J(nu_h) and S = <N,T> nu_h - |N_h| T as frame-coefficient
    triples, at regular points; a direction ``which`` does not name is None."""
    nu = (n[0] / nh, n[1] / nh, 0.0)
    z = jop_coeffs(nu) if "Z" in which else None
    return nu, z, (n[2] * nu[0], n[2] * nu[1], -nh) if "S" in which else None


def _tangent_in_chart(c1, c2, w, v):
    """The chart coordinates of the tangent vector with frame coefficients
    ``v``: the inverse Gram matrix of F_1, F_2 (determinant w^2) applied to
    <v, F_1> and <v, F_2> (each dot product written out as ``_dot3``'s)."""
    (a1, b1, t1), (a2, b2, t2), (a, b, t) = c1, c2, v
    g11 = a1 * a1 + b1 * b1 + t1 * t1
    g12 = a1 * a2 + b1 * b2 + t1 * t2
    g22 = a2 * a2 + b2 * b2 + t2 * t2
    r1 = a * a1 + b * b1 + t * t1
    r2 = a * a2 + b * b2 + t * t2
    det = w * w
    return ((g22 * r1 - g12 * r2) / det, (g11 * r2 - g12 * r1) / det)


def _chart_direction(c1, c2, w, n, nh, which: str):
    """Z or S (``which``) of ``_unit_directions`` in chart coordinates, and
    not the other."""
    _, z, s = _unit_directions(n, nh, which)
    return _tangent_in_chart(c1, c2, w, z if which == "Z" else s)


def _shape_terms(x, y, f1, f2, f11, f12, f22, c1, c2, w, n, nh):
    """Shape entries at regular points, given the unit normal: <B(Z),Z>,
    <B(Z),S>, <B(S),S>, H, H_R, q, and Z and S in chart coordinates.
    """
    def second_form(d, e, v):
        # II_ij = <N, D_{F_i} F_j>: coefficient derivative d of F_j = v
        # corrected along the direction e = F_i
        return _dot3(n, connection_correct(d, e, v))

    ii11 = second_form(_coeff_partial(x, y, f11, f1, f1), c1, c1)
    ii12 = second_form(_coeff_partial(x, y, f12, f2, f1), c2, c1)
    ii21 = second_form(_coeff_partial(x, y, f12, f1, f2), c1, c2)
    ii22 = second_form(_coeff_partial(x, y, f22, f2, f2), c2, c2)
    ii12 = 0.5 * (ii12 + ii21)  # symmetric (torsion-free); average round-off

    _, z, s = _unit_directions(n, nh)
    zc, sc = _tangent_in_chart(c1, c2, w, z), _tangent_in_chart(c1, c2, w, s)

    def ii(a, b):
        return (a[0] * b[0] * ii11 + (a[0] * b[1] + a[1] * b[0]) * ii12
                + a[1] * b[1] * ii22)

    bzz = ii(zc, zc)
    bzs = ii(zc, sc)
    bss = ii(sc, sc)
    h = bzz / (2.0 * nh)
    hr = 0.5 * (bzz + bss)
    qval = bzz * bzz + (bzs + 1.0) * (bzs + 1.0) - 4.0 * nh * nh
    return bzz, bzs, bss, h, hr, qval, zc, sc


def _frame_head(chart: Chart, u: tuple[float, float]):
    """The jet at ``u`` as plain tuples (``Chart._jet_floats``) and its
    ``_tangent_frame``; raises as ``surface_frame`` does, in its order."""
    if not (math.isfinite(u[0]) and math.isfinite(u[1])):  # as surface_frames raises it
        raise NonFiniteValue(f"non-finite chart point {(float(u[0]), float(u[1]))!r}")
    jet = chart._jet_floats(*u)
    (x, y, _), f1, f2 = jet[:3]
    c1, c2, w, n, nh = _tangent_frame(x, y, f1, f2, u)
    if nh <= SINGULAR_TOL:
        raise SingularPoint(f"|N_h| = {nh:.3e} at {u!r}")
    return jet, c1, c2, w, n, nh


def surface_frame(chart: Chart, u: tuple[float, float]) -> SurfaceFrames:
    """``surface_frames`` at the one chart point ``u``: the same package,
    each entry a float or a triple of floats, with the same arithmetic.

    Raises ``SingularPoint`` when |N_h| <= SINGULAR_TOL;
    ``surface_frames(..., singular_ok=True)`` frames a singular point.
    """
    jet, c1, c2, w, n, nh = _frame_head(chart, u)
    return SurfaceFrames(ChartJets(*jet), c1, c2, w, n, nh)


def _chart_point_at(U1: np.ndarray, U2: np.ndarray):
    """The chart point at flat index ``i`` of (U1, U2), as a function of ``i``."""
    return lambda i: (float(U1.ravel()[i]), float(U2.ravel()[i]))


def _frame_heads(chart: Chart, U1, U2, singular_ok: bool,
                 failures: Optional[FirstFailures] = None):
    """``_frame_head`` at the points (U1[i], U2[i]), as arrays.

    The errors are those of the scalar view at the first offending point in
    row-major order (``raise_first_failure``), or each point's own, kept in
    ``failures`` when it is given: ``NonFiniteValue`` for a non-finite
    chart point or surface point or a non-immersion, ``SingularPoint`` for
    |N_h| <= SINGULAR_TOL unless ``singular_ok`` is set.  At a non-finite
    surface point the scalar jet's own error, if any, comes first
    (``_own_error``).  Overflow and invalid operations are left to these
    checks and raise no numpy warning.
    """
    U1, U2 = _parameter_arrays(U1, U2)
    u = _chart_point_at(U1, U2)
    with np.errstate(all="ignore"):
        jet = chart.jets(U1, U2)
        x, y, t = jet.p
        c1, c2, w, n, nh = _tangent_frame(x, y, jet.f1, jet.f2, None, np)
        checks = [(~(np.isfinite(U1) & np.isfinite(U2)),
                   lambda i: NonFiniteValue(f"non-finite chart point {u(i)!r}")),
                  (~(np.isfinite(x) & np.isfinite(y) & np.isfinite(t)), lambda i: (
                      _own_error(chart, u(i)) or NonFiniteValue(f"non-finite point at {u(i)!r}"))),
                  (~((w > 0.0) & np.isfinite(w)),
                   lambda i: NonFiniteValue(f"chart is not an immersion at {u(i)!r}"))]
        if not singular_ok:
            checks.append((nh <= SINGULAR_TOL, lambda i: SingularPoint(
                f"|N_h| = {nh.ravel()[i]:.3e} at {u(i)!r}")))
    (raise_first_failure if failures is None else failures.record)(*checks)
    return jet, c1, c2, w, n, nh


def surface_frames(chart: Chart, U1, U2, singular_ok: bool = False) -> SurfaceFrames:
    """``surface_frame`` at the points (U1[i], U2[i]), as arrays.

    The same frame math on arrays, with the errors of ``_frame_heads``;
    with ``singular_ok`` set the characteristic entries are NaN at
    singular points.  Those entries are computed on first read
    (``SurfaceFrames``), so they raise nothing.
    """
    return SurfaceFrames(*_frame_heads(chart, U1, U2, singular_ok))


def area_elements(chart: Chart, U1, U2) -> np.ndarray:
    """Sub-Riemannian area density against du1 du2, |N_h| |F_1 x F_2|, at
    the points (U1[i], U2[i]), as an array.

    Equals the horizontal norm of F_1 x F_2, hence is continuous (value 0)
    across singular points.  Raises ``NonFiniteValue`` at the first point,
    in row-major order, where the chart point, the surface point or the
    density is not finite, or the scalar jet's own error there
    (``_own_error``).
    """
    U1, U2 = _parameter_arrays(U1, U2)
    with np.errstate(all="ignore"):
        jet = chart.jets(U1, U2)
        x, y, t = jet.p
        _, _, cr = _tangent_cross(x, y, jet.f1, jet.f2)
        dens = np.hypot(cr[0], cr[1])
        finite = (np.isfinite(U1) & np.isfinite(U2) & np.isfinite(x) & np.isfinite(y)
                  & np.isfinite(t) & np.isfinite(dens))
    u = _chart_point_at(U1, U2)
    raise_first_failure((~finite, lambda i: _own_error(chart, u(i)) or NonFiniteValue(
        f"non-finite tangent plane at {u(i)!r}")))
    return dens


def area(chart: Chart, region: Rect | None, quad: QuadratureSpec) -> float:
    """Sub-Riemannian area of the chart over ``region`` (default: domain)."""
    rect = region if region is not None else chart.domain
    return integrate_cells(lambda U1, U2: area_elements(chart, U1, U2), rect, quad)


# ---------------------------------------------------------------------------
# Characteristic curves and the singular locus
# ---------------------------------------------------------------------------

def _chart_velocity(chart: Chart, u: tuple[float, float], which: str
                    ) -> tuple[float, float]:
    """``surface_frame(chart, u).z_chart`` (or ``.s_chart``) from the first
    jet alone: the same operations and the same errors, without the shape
    terms, the other direction or any validated object."""
    _, c1, c2, w, n, nh = _frame_head(chart, u)
    return _chart_direction(c1, c2, w, n, nh, which)


def _check_which(which: str) -> None:
    if which not in ("Z", "S"):
        raise ValueError(f"which must be 'Z' or 'S', not {which!r}")


def _stopped(exc: Exception) -> Exception:
    """A curve walk's error when a velocity raises ``exc``: at the singular
    locus, ``StoppedAtSingular`` caused by it."""
    if not isinstance(exc, SingularPoint):
        return exc
    stop = StoppedAtSingular(str(exc))
    stop.__cause__ = exc
    return stop


def tangent_field_states(chart: Chart, u0: tuple[float, float], h: float,
                         which: str = "Z") -> Iterator[tuple[float, float]]:
    """``integrate_tangent_field`` at the fixed step ``h`` (``numerics.rk4_states``):
    ``u0``, then each state when it is asked for, with the same errors."""
    _check_which(which)
    try:
        yield from rk4_states(lambda u: _chart_velocity(chart, u, which), u0, h)
    except SingularPoint as exc:
        raise _stopped(exc)


def integrate_tangent_field(chart: Chart, u0: tuple[float, float],
                            length: float, steps: int, which: str = "Z"
                            ) -> list[tuple[float, float]]:
    """RK4 integral curve of Z or S in chart coordinates (unit ambient speed):
    the first ``steps`` states after ``u0`` of ``tangent_field_states``.

    Raises ``ValueError`` unless ``which`` is "Z" or "S", and
    ``StoppedAtSingular`` if the curve meets the singular locus.
    """
    states = tangent_field_states(chart, u0, length / steps, which)
    return [next(states) for _ in range(steps + 1)]


def is_batch(u) -> bool:
    """Whether ``u`` is a pair of arrays of chart points, not one point."""
    return isinstance(u[0], np.ndarray)


def _taylor_head(chart: Chart, u1: Taylor, u2: Taylor) -> tuple:
    """``_frame_heads`` at Taylor chart points, unchecked; ``TypeError``
    where the chart's ``_jet_parts`` takes floats only."""
    try:
        jet = ChartJets(*chart._jet_parts(u1, u2, taylor))
    except TypeError as exc:
        raise TypeError(f"{type(chart).__name__} has no derivatives along its curves: "
                        f"its _jet_parts takes no Taylor numbers ({exc})") from None
    return (jet, *_tangent_frame(*jet.p[:2], jet.f1, jet.f2, None, taylor))


def curve_frames(chart: Chart, u, which: str) -> SurfaceFrames:
    """The frames along the Z or S curve through ``u`` (one point, or a
    pair of arrays), as Taylor numbers in arclength t: entry e is e + t e'
    + t^2 e''/2, with value terms the frame at ``u``'s.  The curve to order
    2 is two Picard passes u + int_0^t V(gamma) of the chart velocity V:
    V(u), then its derivative along the curve from one Taylor evaluation.
    Raises what ``surface_frame`` raises at ``u``, ``ValueError`` unless
    ``which`` is "Z" or "S", and ``TypeError`` from ``_taylor_head``."""
    _check_which(which)
    u1, u2 = _parameter_arrays(*u) if is_batch(u) else map(float, u)
    head = _frame_heads(chart, u1, u2, False) if is_batch(u) else _frame_head(chart, (u1, u2))
    with np.errstate(all="ignore"):
        v1, v2 = _chart_direction(*head[1:], which)
        d1, d2 = _chart_direction(*_taylor_head(chart, Taylor(u1, v1), Taylor(u2, v2))[1:],
                                  which)
        return SurfaceFrames(*_taylor_head(chart, Taylor(u1, v1, 0.5 * d1.c1),
                                           Taylor(u2, v2, 0.5 * d2.c1)))


def characteristic_ray(chart: Chart, u0: tuple[float, float], length: float,
                       steps: int) -> list[Point]:
    """Ambient polyline of the characteristic curve from ``u0``.

    On minimal surfaces the result is a straight segment.
    """
    us = integrate_tangent_field(chart, u0, length, steps, "Z")
    return [chart.point(*u) for u in us]


@dataclass(frozen=True)
class SingularLocus:
    cells: list[tuple[int, int]]
    points: list[tuple[float, float]]


LOCUS_TOL = 1e-6


def singular_locus(chart: Chart, grid: tuple[int, int]) -> SingularLocus:
    """Grid cells meeting {|N_h| < LOCUS_TOL} plus the crossings on grid
    lines, over the bounded domain of the chart.

    The horizontal normal flips direction across a singular curve, so an
    edge whose end normals N_h point apart is flagged; the grid is framed
    in one ``_frame_heads`` call.  On a ``SeedRuledChart`` the crossing on
    a flagged edge along s is the root of C in it (``ruling_roots``), exact;
    with ``uniform_rulings`` an edge along a holds none, as C does not
    depend on a.  Every other flagged edge is bisected
    (``_bisect_crossings``) and its point kept only where |N_h| <
    LOCUS_TOL: N_h also turns by more than a right angle between nodes off
    the locus.  Raises ``ValueError`` unless the grid entries are positive
    ints and the domain is bounded.
    """
    if not all(isinstance(n, int) and n > 0 for n in grid):
        raise ValueError(f"grid entries must be positive ints, not {grid!r}")
    if not all(map(math.isfinite, itertools.chain(*chart.domain))):
        raise ValueError(f"singular_locus needs a bounded domain, not {chart.domain!r}")
    (a1, b1), (a2, b2) = chart.domain
    n1, n2 = grid
    xs = [a1 + (b1 - a1) * i / n1 for i in range(n1 + 1)]
    ys = [a2 + (b2 - a2) * j / n2 for j in range(n2 + 1)]
    G1, G2 = np.meshgrid(xs, ys, indexing="ij")
    _, _, _, _, (na, nb, _), nh = _frame_heads(chart, G1, G2, True)
    low = nh < LOCUS_TOL
    corner = low[:-1, :-1] | low[1:, :-1] | low[:-1, 1:] | low[1:, 1:]
    cells = [(i, j) for i, j in np.argwhere(corner).tolist()]

    # the points in grid order: a node on the locus, else the crossings on
    # the edges to its right and upper neighbours, in that order; an edge
    # to a node on the locus has none, as that node is its point
    uniform = isinstance(chart, SeedRuledChart) and chart.uniform_rulings
    points, edges = [], []
    low, na, nb = low.tolist(), na.tolist(), nb.tolist()
    for i in range(n1 + 1):
        for j in range(n2 + 1):
            if low[i][j]:
                points.append((xs[i], ys[j]))
                continue
            for along_a, (i2, j2) in enumerate(((i + 1, j), (i, j + 1))):
                if (i2 <= n1 and j2 <= n2 and not (along_a and uniform) and not low[i2][j2]
                        and na[i][j] * na[i2][j2] + nb[i][j] * nb[i2][j2] < 0.0):
                    points.append(len(edges))
                    edges.append((xs[i], ys[j], xs[i2], ys[j2], na[i][j], nb[i][j], along_a))
    if edges:
        crossings = _crossings(chart, *np.array(edges).T)
        points = [crossings[p] if isinstance(p, int) else p for p in points]
    return SingularLocus(sorted(cells), [p for p in points if p is not None])


def _crossings(chart: Chart, lo1, lo2, hi1, hi2, ref1, ref2, along_a) -> list:
    """The singular point on each flagged edge of ``singular_locus``, or
    None: on a seed chart's edge along s the root of C in it (at a = 0 on
    a uniform seed, as ``RulingFrame`` reads C), elsewhere the bisected
    point where |N_h| < LOCUS_TOL, framed once."""
    exact = (along_a == 0.0) & isinstance(chart, SeedRuledChart)
    roots = bisected = iter(())
    if exact.any():
        lo, hi, a = lo1[exact], hi1[exact], lo2[exact]
        r1, r2 = chart.ruling_roots(np.zeros_like(a) if chart.uniform_rulings else a)
        s = np.where((r1 - lo) * (r1 - hi) <= 0.0, r1, r2)  # a NaN or inf root is in no edge
        roots = iter([u if ok else None for u, ok in zip(zip(s.tolist(), a.tolist()),
                                                         ((s - lo) * (s - hi) <= 0.0).tolist())])
    if not exact.all():
        us = _bisect_crossings(chart, *(c[~exact] for c in (lo1, lo2, hi1, hi2, ref1, ref2)))
        nh = _frame_heads(chart, *np.array(us).T, True)[5]
        bisected = iter([u if ok else None for u, ok in zip(us, (nh < LOCUS_TOL).tolist())])
    return [next(roots if e else bisected) for e in exact.tolist()]


def _bisect_crossings(chart: Chart, lo1, lo2, hi1, hi2, ref1, ref2
                      ) -> list[tuple[float, float]]:
    """The crossing on each edge from (lo1, lo2) to (hi1, hi2): bisection of
    the signed alignment of N_h with (ref1, ref2), the horizontal normal at
    the edge start, over every edge at once.  Each edge stops on its own,
    after 80 halvings or once its bracket is shorter than 1e-14; a finished
    edge is evaluated at its bracket start, which has framed before, so it
    neither moves nor fails.  Each edge's error is its own
    (``FirstFailures``)."""
    failures = FirstFailures(lo1.shape)

    def signed(u1, u2):
        _, _, _, _, n, _ = _frame_heads(chart, u1, u2, True, failures)
        return n[0] * ref1 + n[1] * ref2

    live = np.ones(lo1.shape, dtype=bool)
    flo = signed(lo1, lo2)
    for _ in range(80):
        mid1 = np.where(live, 0.5 * (lo1 + hi1), lo1)
        mid2 = np.where(live, 0.5 * (lo2 + hi2), lo2)
        fm = signed(mid1, mid2)
        up = live & (flo * fm > 0.0)
        down = live & ~up
        lo1, lo2, flo = np.where(up, mid1, lo1), np.where(up, mid2, lo2), np.where(up, fm, flo)
        hi1, hi2 = np.where(down, mid1, hi1), np.where(down, mid2, hi2)
        live &= ~(np.abs(hi1 - lo1) + np.abs(hi2 - lo2) < 1e-14)
        if not live.any():
            break
    failures.raise_first()
    return list(zip((0.5 * (lo1 + hi1)).tolist(), (0.5 * (lo2 + hi2)).tolist()))


# ---------------------------------------------------------------------------
# Catalog charts
# ---------------------------------------------------------------------------

class SeedRuledChart(Chart):
    """A surface ruled by horizontal lines, charted by (s, a):

        F = Gamma(a) + s D(a),  D = (cos th, sin th, Gamma_y cos th - Gamma_x sin th).

    A subclass writes only its seed ``_seed(a, m)``: Gamma, Gamma', Gamma''
    and e = (cos th, sin th), e', e''.  The jet is exact: F_s = D,
    F_a = Gamma' + s D', F_ss = 0, F_sa = D' and F_aa = Gamma'' + s D''.

    ``ruling_coefficients(a, m)`` is (th', b, c0) of the ruling at a, whose
    singular points are the roots of C(s) = th' s^2 + 2 b s + c0:

        th' = e x e',  b = Gamma'_y e_x - Gamma'_x e_y,
        c0 = Gamma'_t - Gamma_y Gamma'_x + Gamma_x Gamma'_y.

    ``uniform_rulings`` says that they are the same on every ruling of the
    class; ``stability.RulingFrame`` refuses a seed without it.
    """

    uniform_rulings = False

    def ruling_coefficients(self, a, m):
        (gx, gy, _), (gx1, gy1, gt1), _, (co, si), (co1, si1), _ = self._seed(a, m)
        return co * si1 - si * co1, gy1 * co - gx1 * si, gt1 - gy * gx1 + gx * gy1

    def ruling_roots(self, a):
        """The roots of C on the rulings at the array ``a``, as two arrays:
        q / th' and c0 / q with q = -(b + sign(b) sqrt(b^2 - th' c0)), the
        quadratic formula without cancellation; NaN where C has no real
        root and +-inf or NaN where th' = 0 leaves one root or none."""
        tp, b, c0 = (np.broadcast_to(c, a.shape) for c in self.ruling_coefficients(a, np))
        with np.errstate(all="ignore"):
            q = -(b + np.copysign(np.sqrt(b * b - tp * c0), b))
            return q / tp, c0 / q

    def _jet_parts(self, s, a, m):
        (gx, gy, gt), (gx1, gy1, gt1), (gx2, gy2, gt2), (co, si), (co1, si1), (co2, si2) = \
            self._seed(a, m)
        dt = gy * co - gx * si
        # product rule, one cross term per pair: pairs that cancel (the
        # catenoid's D' and D'' T-components) then cancel in floats too
        dt1 = (gy1 * co - gx1 * si) + (gy * co1 - gx * si1)
        dt2 = (gy2 * co - gx2 * si) + 2.0 * (gy1 * co1 - gx1 * si1) + (gy * co2 - gx * si2)
        return ((gx + s * co, gy + s * si, gt + s * dt), (co, si, dt),
                (gx1 + s * co1, gy1 + s * si1, gt1 + s * dt1), (0.0, 0.0, 0.0), (co1, si1, dt1),
                (gx2 + s * co2, gy2 + s * si2, gt2 + s * dt2))


class VerticalPlaneChart(SeedRuledChart):
    """The plane x = 0 charted by (y, t): Gamma = (0, 0, a), e = (0, 1)."""

    uniform_rulings = True

    def __init__(self, domain: Rect = ((-1.0, 1.0), (-1.0, 1.0))):
        self.domain = domain

    def _seed(self, a, m):
        return (0.0, 0.0, a), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.0, 0.0)


class GraphChart(Chart):
    """A t-graph t = phi(x, y) with analytic partials of phi.

    The partials are arbitrary float functions (they may branch on their
    arguments or reduce over them), so no array call is safe: they are
    called on floats only, and ``_jet_parts`` on arrays stacks the scalar
    jets point by point (``_stacked``).  A graph that needs fast batches can
    subclass ``Chart`` and write ``_jet_parts`` for arrays.
    """

    def __init__(self, phi, phi1, phi2, phi11, phi12, phi22,
                 domain: Rect = ((-1.0, 1.0), (-1.0, 1.0))):
        self._phi = (phi, phi1, phi2, phi11, phi12, phi22)
        self.domain = domain

    def _jet_parts(self, u1, u2, m):
        if m is np:
            rows = _stacked(self._jet_floats, list(zip(u1.ravel().tolist(), u2.ravel().tolist())),
                            18)
            return _columns(rows[np.minimum(np.arange(u1.size), len(rows) - 1)], u1.shape, (3,) * 6)
        phi, p1, p2, p11, p12, p22 = self._phi
        return ((u1, u2, phi(u1, u2)),
                (1.0, 0.0, p1(u1, u2)),
                (0.0, 1.0, p2(u1, u2)),
                (0.0, 0.0, p11(u1, u2)),
                (0.0, 0.0, p12(u1, u2)),
                (0.0, 0.0, p22(u1, u2)))


class PlaneChart(Chart):
    """The plane t = a x + b y + c, charted by (x, y)."""

    def __init__(self, a: float, b: float, c: float,
                 domain: Rect = ((-1.0, 1.0), (-1.0, 1.0))):
        self.a, self.b, self.c = a, b, c
        self.domain = domain

    def _jet_parts(self, u1, u2, m):
        a, b = self.a, self.b
        zero = (0.0, 0.0, 0.0)
        return (u1, u2, a * u1 + b * u2 + self.c), (1.0, 0.0, a), (0.0, 1.0, b), zero, zero, zero


class ParaboloidChart(SeedRuledChart):
    """The hyperbolic paraboloid t = x y, charted by (x, y): Gamma = (0, a, 0), e = (1, 0)."""

    uniform_rulings = True

    def __init__(self, domain: Rect = ((-1.0, 1.0), (-1.0, 1.0))):
        self.domain = domain

    def _seed(self, a, m):
        return (0.0, a, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.0, 0.0)


class HelicoidChart(SeedRuledChart):
    """The left-handed minimal helicoid of pitch parameter R > 0, seeded by
    Gamma = (0, 0, eps/R) and e = (sin R eps, cos R eps).  In the chart
    coordinates (s, eps) the normal N = normalize(F_s x F_eps) has horizontal
    part along +(cos, -sin) for |s| < 1/R and T-component -Rs/W; the singular
    helices sit at s = +-1/R.
    """

    uniform_rulings = True

    def __init__(self, R: float):
        if not (0.0 < R < math.inf and math.pi / R < math.inf):
            raise ValueError("R must be positive and finite, and pi/R finite")
        self.R = R
        self.domain = ((-2.0 / R, 2.0 / R), (-math.pi / R, math.pi / R))

    def __repr__(self) -> str:
        return f"HelicoidChart(R={self.R!r})"

    def _seed(self, a, m):
        R, si, co = self.R, m.sin(self.R * a), m.cos(self.R * a)
        return ((0.0, 0.0, a / R), (0.0, 0.0, 1.0 / R), (0.0, 0.0, 0.0),
                (si, co), (R * co, -R * si), (-R * R * si, -R * R * co))


class CatenoidChart(Chart):
    """The surface t^2 = lam^2 (x^2 + y^2 - lam^2), globally charted.

    Coordinates (theta, phi) with radius lam*cosh(phi) and height
    lam^2*sinh(phi): one analytic chart covering both graph sheets and the
    waist circle, with no square-root branch anywhere.
    """

    def __init__(self, lam: float):
        if not 0.0 < lam * lam < math.inf:
            raise ValueError("lam^2 must be positive and finite")
        self.lam = lam
        self.domain = ((0.0, 2.0 * math.pi), (-1.5, 1.5))

    def locate(self, p: Point) -> tuple[float, float]:
        """Chart coordinates of an ambient point on the surface."""
        return (math.atan2(p.y, p.x) % (2.0 * math.pi),
                math.asinh(p.t / (self.lam * self.lam)))

    def implicit_residual(self, p: Point) -> float:
        lam = self.lam
        return p.t * p.t - lam * lam * (p.x * p.x + p.y * p.y - lam * lam)

    def _jet_parts(self, u1, u2, m):
        lam = self.lam
        th, ph = u1, u2
        co, si = m.cos(th), m.sin(th)
        ch, sh = m.cosh(ph), m.sinh(ph)
        r = lam * ch
        return ((r * co, r * si, lam * lam * sh),
                (-r * si, r * co, 0.0),
                (lam * sh * co, lam * sh * si, lam * lam * ch),
                (-r * co, -r * si, 0.0),
                (-lam * sh * si, lam * sh * co, 0.0),
                (r * co, r * si, lam * lam * sh))


class CatenoidRulingChart(SeedRuledChart):
    """The catenoid t^2 = lam^2 (x^2 + y^2 - lam^2) charted by its rulings, the
    lines tangent to the waist circle: Gamma = lam (cos a, sin a, 0) and
    e = (-sin a, cos a), so Z = +-d/ds.  One injective chart for either sign
    of lam: s in R, a in [-pi, pi).  Rotations about the t-axis are shifts in
    a, so every frame quantity depends on s alone."""

    uniform_rulings = True

    def __init__(self, lam: float):
        if not 0.0 < lam * lam < math.inf:
            raise ValueError("lam^2 must be positive and finite")
        self.lam = lam
        self.domain = ((-math.inf, math.inf), (-math.pi, math.pi))

    def __repr__(self) -> str:
        return f"CatenoidRulingChart(lam={self.lam!r})"

    def _seed(self, a, m):
        lam, co, si = self.lam, m.cos(a), m.sin(a)
        return ((lam * co, lam * si, 0.0), (-lam * si, lam * co, 0.0), (-lam * co, -lam * si, 0.0),
                (-si, co), (-co, -si), (si, -co))


class TransformedChart(Chart):
    """A chart composed with an affine ambient map q -> M q + shift.

    Dilations, vertical rotations and left translations are all affine in
    Euclidean coordinates, so the composed second partials are exact.
    """

    def __init__(self, base: Chart, matrix: tuple[Vec3, Vec3, Vec3],
                 shift: Vec3 = (0.0, 0.0, 0.0)):
        self.base = base
        self.matrix = matrix
        self.shift = shift
        self.domain = base.domain

    def _apply(self, v, translate: bool):
        m = self.matrix
        out = tuple(m[i][0] * v[0] + m[i][1] * v[1] + m[i][2] * v[2] for i in range(3))
        if translate:
            out = (out[0] + self.shift[0], out[1] + self.shift[1], out[2] + self.shift[2])
        return out

    def _transform(self, p, f1, f2, f11, f12, f22):
        return (self._apply(p, True), self._apply(f1, False), self._apply(f2, False),
                self._apply(f11, False), self._apply(f12, False), self._apply(f22, False))

    def _jet_parts(self, u1, u2, m):
        # on floats the base's checked jet: its errors, a non-finite base
        # point among them, are named at the base point, as on arrays
        return self._transform(*(self.base._jet_floats(u1, u2) if m is math
                                 else self.base._jet_parts(u1, u2, m)))


def dilated(chart: Chart, lam: float) -> TransformedChart:
    s = math.exp(lam)
    return TransformedChart(chart, ((s, 0.0, 0.0), (0.0, s, 0.0), (0.0, 0.0, s * s)))


def rotated(chart: Chart, theta: float) -> TransformedChart:
    co, si = math.cos(theta), math.sin(theta)
    return TransformedChart(chart, ((co, -si, 0.0), (si, co, 0.0), (0.0, 0.0, 1.0)))


def translated(chart: Chart, p0: Point) -> TransformedChart:
    return TransformedChart(chart, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (p0.y, -p0.x, 1.0)),
                            p0.coords())


# ---------------------------------------------------------------------------
# Ruled coordinates
# ---------------------------------------------------------------------------

class RuledChart(SeedRuledChart):
    """The seed chart (s, a) of the S-curve Gamma through ``u0`` of a base
    chart, ruled by the characteristic lines: e = (Z_X, Z_Y) along Gamma.

    Gamma is the unit-speed integral curve of S (RK4 in base chart
    coordinates on a fixed grid).  ``_curve`` reads Gamma, Gamma' = S and e
    off one base frame head at Gamma(a), and keeps them per a (0.0 and -0.0
    are one a; a read that raises keeps nothing), and ``point`` reads it.
    ``_seed`` reads them with Gamma'' = S', e' and e'' at the walked point
    Gamma(a) off ``curve_frames``.  On an array of a, ``_seed`` seeds each
    distinct a once, in row-major order (``_stacked``), so an error of the
    walk keeps its first-failure place.

    The grid is walked as far as asked: a read past a side of ``u0`` walks
    it on by steps of +-h0 (``tangent_field_states``), with the bits of the
    ``integrate_tangent_field`` passes from ``u0`` over +-eps_range in n
    steps, so an error of the walk (``StoppedAtSingular``) is raised by
    every read that reaches it.
    """

    GRID_STEP = 0.005  # largest step of the Gamma grid

    def __init__(self, base: Chart, u0: tuple[float, float], eps_range: float,
                 s_range: tuple[float, float]):
        self.base = base
        self.u0 = u0
        self.eps_range = eps_range
        self.domain = (s_range, (-eps_range, eps_range))
        n = max(4, math.ceil(eps_range / self.GRID_STEP))
        self._h0 = eps_range / n
        self._n = n
        self._walks = {1.0: [u0], -1.0: [u0]}  # Gamma(+-k h0), k = 0, 1, ... walked so far
        self._curves: dict[float, tuple[float, ...]] = {}

    def _node(self, j: int) -> tuple[float, float]:
        """Gamma(j h0), walking the side of j on to it from its last node."""
        side = 1.0 if j >= 0 else -1.0
        walk = self._walks[side]
        if len(walk) <= abs(j):
            steps = tangent_field_states(self.base, walk[-1], side * self._h0, "S")
            for u in itertools.islice(steps, 1, abs(j) + 2 - len(walk)):
                walk.append(u)
        return walk[abs(j)]

    def curve_chart_point(self, eps: float) -> tuple[float, float]:
        """Base-chart coordinates of Gamma(eps)."""
        j = round(eps / self._h0)
        j = max(-self._n, min(self._n, j))
        rem = eps - j * self._h0
        u = self._node(j)
        if rem != 0.0:
            u = integrate_tangent_field(self.base, u, rem, 1, "S")[-1]
        return u

    def _curve(self, a: float) -> tuple[float, ...]:
        """Euclidean Gamma(a), Gamma'(a) = S and e = (Z_X, Z_Y), as one tuple."""
        if a not in self._curves:
            jet, _, _, _, n, nh = _frame_head(self.base, self.curve_chart_point(a))
            x, y, t = jet[0]
            _, z, s = _unit_directions(n, nh)
            self._curves[a] = (x, y, t, *euclidean_coeffs(x, y, s), z[0], z[1])
        return self._curves[a]

    def _seed(self, a, m):
        if m is np:  # the walk takes one a at a time: one scalar seed per distinct a
            flat = a.ravel().tolist()
            distinct = list(dict.fromkeys(flat))  # in row-major order, 0.0 and -0.0 one a
            rows = _stacked(lambda b: self._seed(b, math), [(b,) for b in distinct], 15)
            seeded = dict(zip(distinct, range(len(rows) - 1)))
            # NaN (the last row) from the first node whose a was not seeded
            idx = list(itertools.takewhile(lambda k: k is not None, map(seeded.get, flat)))
            return _columns(rows[idx + [-1] * (len(flat) - len(idx))], a.shape, (3, 3, 3, 2, 2, 2))
        fr = curve_frames(self.base, self.curve_chart_point(a), "S")
        (x, y, t), z = fr.points, fr.Z
        s = [taylor_derivatives(c) for c in euclidean_coeffs(x, y, fr.S)]
        e = [taylor_derivatives(c) for c in z[:2]]
        return ((x.c0, y.c0, t.c0), *(tuple(c[k] for c in s) for k in (0, 1)),
                *(tuple(c[k] for c in e) for k in (0, 1, 2)))

    def point(self, s: float, a: float) -> Point:
        gx, gy, gt, _, _, _, co, si = self._curve(a)
        return Point(gx + s * co, gy + s * si, gt + s * (gy * co - gx * si))


def ruled_coordinates(chart: Chart, u0: tuple[float, float], eps_range: float,
                      s_range: tuple[float, float]) -> RuledChart:
    """The ruled chart (s, a) around the characteristic line through ``u0``."""
    return RuledChart(chart, u0, eps_range, s_range)


# the named surfaces of ``catalog_surface``, in the order the CLI lists them
CATALOG: dict[str, type[Chart]] = {"vertical_plane": VerticalPlaneChart, "plane": PlaneChart,
                                   "paraboloid": ParaboloidChart, "helicoid": HelicoidChart,
                                   "catenoid": CatenoidChart}


def catalog_surface(kind: str, **params) -> Chart:
    """Factory for the named surfaces used throughout the test suites."""
    if kind not in CATALOG:
        raise ValueError(f"unknown catalog surface {kind!r}")
    return CATALOG[kind](**params)
