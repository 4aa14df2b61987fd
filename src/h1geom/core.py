"""The first Heisenberg group with its left-invariant Riemannian metric.

Points live in Euclidean coordinates (x, y, t) with the group product

    (x, y, t) * (x', y', t') = (x + x', y + y', t + t' + y x' - x y'),

i.e. the t-shift is Im(z conj(z')) for z = x + iy.  Tangent vectors are
stored as coefficients in the left-invariant orthonormal frame

    X = d/dx + y d/dt,   Y = d/dy - x d/dt,   T = d/dt,

so the metric is the identity on coefficients and the contact form
w = -y dx + x dy + dt reads off the T-component.  The Levi-Civita
connection and curvature of this metric are encoded in small constant
tables below; everything in this module is a pure function of immutable
values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .errors import NonFiniteValue
from .numerics import Taylor, rk4, taylor_derivatives

Vec3 = tuple[float, float, float]


def _finite3(v: Sequence[float], what: str) -> None:
    try:
        finite = math.isfinite(v[0]) and math.isfinite(v[1]) and math.isfinite(v[2])
    except TypeError:  # Taylor numbers (numerics.Taylor): their value terms
        finite = all(math.isfinite(taylor_derivatives(c)[0]) for c in v)
    if not finite:
        raise NonFiniteValue(f"non-finite {what}: {tuple(v)!r}")


@dataclass(frozen=True, slots=True)
class Point:
    """A point of the group in Euclidean coordinates: floats, or Taylor numbers."""

    x: float
    y: float
    t: float

    def __post_init__(self):
        _finite3((self.x, self.y, self.t), "point")

    def coords(self) -> Vec3:
        return (self.x, self.y, self.t)


ORIGIN = Point(0.0, 0.0, 0.0)


@dataclass(frozen=True, slots=True)
class FrameVector:
    """A tangent vector at ``base`` with frame coefficients (a, b, c)."""

    a: float
    b: float
    c: float
    base: Point

    def __post_init__(self):
        _finite3((self.a, self.b, self.c), "frame vector")

    def coeffs(self) -> Vec3:
        return (self.a, self.b, self.c)

    def norm(self) -> float:
        return math.sqrt(self.a * self.a + self.b * self.b + self.c * self.c)

    def scaled(self, k: float) -> "FrameVector":
        return FrameVector(k * self.a, k * self.b, k * self.c, self.base)

    def __add__(self, other: "FrameVector") -> "FrameVector":
        _require_same_base(self, other)
        return FrameVector(self.a + other.a, self.b + other.b, self.c + other.c, self.base)

    def __sub__(self, other: "FrameVector") -> "FrameVector":
        _require_same_base(self, other)
        return FrameVector(self.a - other.a, self.b - other.b, self.c - other.c, self.base)


def _require_same_base(*vs: FrameVector) -> None:
    p0 = vs[0].base
    for v in vs[1:]:
        if v.base.coords() != p0.coords():
            raise ValueError("frame vectors must share a base point")


def dot(u: FrameVector, v: FrameVector) -> float:
    _require_same_base(u, v)
    return u.a * v.a + u.b * v.b + u.c * v.c


def cross(u: FrameVector, v: FrameVector) -> FrameVector:
    """Right-handed cross product on frame coefficients (X x Y = T)."""
    _require_same_base(u, v)
    return FrameVector(*cross_coeffs(u.coeffs(), v.coeffs()), u.base)


def cross_coeffs(u: Vec3, v: Vec3) -> Vec3:
    """``cross`` on coefficient triples: plain arithmetic, so it also applies
    to triples of arrays."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


# ---------------------------------------------------------------------------
# Group operations and symmetries
# ---------------------------------------------------------------------------

def group_mul(p: Point, q: Point) -> Point:
    return Point(p.x + q.x, p.y + q.y, p.t + q.t + p.y * q.x - p.x * q.y)


def group_inverse(p: Point) -> Point:
    return Point(-p.x, -p.y, -p.t)


def dilate(lam: float, p: Point) -> Point:
    """Anisotropic dilation: (x, y, t) -> (e^l x, e^l y, e^{2l} t)."""
    s = math.exp(lam)
    return Point(s * p.x, s * p.y, s * s * p.t)


def rotate_z(theta: float, p: Point) -> Point:
    """Rotation about the t-axis; a horizontal isometry."""
    co, si = math.cos(theta), math.sin(theta)
    return Point(co * p.x - si * p.y, si * p.x + co * p.y, p.t)


def left_translation_jacobian(p: Point) -> tuple[Vec3, Vec3, Vec3]:
    """Differential of q -> p*q (constant in q; the map is affine)."""
    return ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (p.y, -p.x, 1.0))


# ---------------------------------------------------------------------------
# Frame and coefficient conversion
# ---------------------------------------------------------------------------

def frame_at(p: Point) -> tuple[Vec3, Vec3, Vec3]:
    """Euclidean coordinate vectors of X, Y, T at ``p``."""
    return ((1.0, 0.0, p.y), (0.0, 1.0, -p.x), (0.0, 0.0, 1.0))


def frame_coeffs(x, y, v):
    """Frame coefficients of the Euclidean vector ``v`` at a point (x, y, .):
    the T-coefficient is the contact form v_t - y v_x + x v_y.  Plain
    arithmetic, so it also applies to triples of arrays."""
    vx, vy, vt = v
    return (vx, vy, vt - y * vx + x * vy)


def euclidean_coeffs(x, y, c):
    """Euclidean components of the frame coefficients ``c`` at a point
    (x, y, .): the inverse of ``frame_coeffs``, also on arrays."""
    a, b, t = c
    return (a, b, a * y - b * x + t)


def euclidean_to_frame(p: Point, v: Sequence[float]) -> FrameVector:
    """Frame coefficients of the Euclidean tangent vector ``v`` at ``p``."""
    return FrameVector(*frame_coeffs(p.x, p.y, v), p)


def frame_to_euclidean(v: FrameVector) -> Vec3:
    return euclidean_coeffs(v.base.x, v.base.y, (v.a, v.b, v.c))


def jop_coeffs(v: Vec3) -> Vec3:
    """The 90-degree horizontal rotation on coefficients: (a, b, c) -> (-b, a, 0).

    Plain arithmetic, so it also applies to triples of arrays."""
    return (-v[1], v[0], 0.0)


def jop(v: FrameVector) -> FrameVector:
    """The 90-degree horizontal rotation: (a, b, c) -> (-b, a, 0)."""
    return FrameVector(*jop_coeffs(v.coeffs()), v.base)


# ---------------------------------------------------------------------------
# Connection, curvature, Ricci
# ---------------------------------------------------------------------------

# Covariant derivatives of the frame fields: D_X Y = -T, D_X T = Y,
# D_Y X = T, D_Y T = -X, D_T X = Y, D_T Y = -X, diagonal zero.
# For an ambient direction W = (a, b, c) this contracts to the rows below.

def connection_apply(w: Vec3, k: int) -> Vec3:
    """Frame coefficients of D_W E_k for the k-th frame field (0=X,1=Y,2=T).

    Plain arithmetic, so ``w`` may also be a triple of arrays."""
    a, b, c = w
    if k == 0:
        return (0.0, c, b)
    if k == 1:
        return (-c, 0.0, -a)
    return (-b, a, 0.0)


def connection_correct(d: Vec3, w: Vec3, v: Vec3) -> Vec3:
    """``d + sum_k v[k] D_w E_k``: the Levi-Civita derivative along ``w`` of
    the field with frame coefficients ``v``, given the derivative ``d`` of
    those coefficients.  Plain arithmetic, so it also applies to arrays."""
    o0, o1, o2 = d
    for k in range(3):
        corr = connection_apply(w, k)
        o0 = o0 + v[k] * corr[0]
        o1 = o1 + v[k] * corr[1]
        o2 = o2 + v[k] * corr[2]
    return (o0, o1, o2)


def _zero3() -> Vec3:
    return (0.0, 0.0, 0.0)


# R(E_i, E_j) E_k, antisymmetric in (i, j).
_RT_XY = {0: (0.0, -3.0, 0.0), 1: (3.0, 0.0, 0.0), 2: _zero3()}
_RT_XT = {0: (0.0, 0.0, 1.0), 1: _zero3(), 2: (-1.0, 0.0, 0.0)}
_RT_YT = {0: _zero3(), 1: (0.0, 0.0, 1.0), 2: (0.0, -1.0, 0.0)}


def _rt(i: int, j: int, k: int) -> Vec3:
    """R(E_i, E_j) E_k for i != j."""
    sign = 1.0
    if i > j:
        i, j, sign = j, i, -1.0
    table = _RT_XY if (i, j) == (0, 1) else _RT_XT if (i, j) == (0, 2) else _RT_YT
    v = table[k]
    return (sign * v[0], sign * v[1], sign * v[2])


def curvature_R(u: FrameVector, v: FrameVector, w: FrameVector) -> FrameVector:
    """Trilinear curvature tensor R(u, v)w of the left-invariant metric."""
    _require_same_base(u, v, w)
    uc, vc, wc = u.coeffs(), v.coeffs(), w.coeffs()
    out = [0.0, 0.0, 0.0]
    for i in range(3):
        if uc[i] == 0.0:
            continue
        for j in range(3):
            if vc[j] == 0.0 or i == j:
                continue
            for k in range(3):
                if wc[k] == 0.0:
                    continue
                r = _rt(i, j, k)
                f = uc[i] * vc[j] * wc[k]
                out[0] += f * r[0]
                out[1] += f * r[1]
                out[2] += f * r[2]
    return FrameVector(out[0], out[1], out[2], u.base)


def ricci(u: FrameVector, v: FrameVector) -> float:
    """Ricci curvature: diag(-2, -2, 2) on frame coefficients."""
    _require_same_base(u, v)
    return -2.0 * u.a * v.a - 2.0 * u.b * v.b + 2.0 * u.c * v.c


# ---------------------------------------------------------------------------
# Coefficient fields and covariant differentiation
# ---------------------------------------------------------------------------

GradFn = Callable[[Point], Vec3]


class FrameField:
    """A tangent field given by frame-coefficient functions a, b, c of a
    ``Point``.  Gradients (d/dx, d/dy, d/dt of each coefficient) may be
    supplied; the others are read off one evaluation of the three at a
    Taylor point per axis (``_axis_lines``), exact up to round-off."""

    def __init__(self, a, b, c, grad_a: GradFn | None = None,
                 grad_b: GradFn | None = None, grad_c: GradFn | None = None):
        self._fns = (a, b, c)
        self._grads = (grad_a, grad_b, grad_c)

    @classmethod
    def constant(cls, a: float, b: float, c: float) -> "FrameField":
        zero = lambda p: (0.0, 0.0, 0.0)
        return cls(lambda p: a, lambda p: b, lambda p: c, zero, zero, zero)

    def at(self, p: Point) -> FrameVector:
        return FrameVector(self._fns[0](p), self._fns[1](p), self._fns[2](p), p)

    def coefficient_gradients(self, p: Point) -> tuple[Vec3, Vec3, Vec3]:
        along = None if all(self._grads) else [[f(q) for f in self._fns] for q in _axis_lines(p)]
        out = []
        for k, grad in enumerate(self._grads):
            g = grad(p) if grad else tuple(taylor_derivatives(c[k])[1] for c in along)
            _finite3(g, "coefficient gradient")
            out.append(tuple(g))
        return tuple(out)


X_FIELD = FrameField.constant(1.0, 0.0, 0.0)
Y_FIELD = FrameField.constant(0.0, 1.0, 0.0)
T_FIELD = FrameField.constant(0.0, 0.0, 1.0)


def _axis_lines(p: Point) -> list[Point]:
    """p + t e_i, i = 0, 1, 2, for a Taylor t; a nested derivative raises ``TypeError``."""
    base = p.coords()
    if any(type(c) is Taylor for c in base):
        raise TypeError(f"nested derivative at {p!r}: supply the inner field's gradients")
    return [Point(*base[:i], Taylor(base[i], 1.0), *base[i + 1:]) for i in range(3)]


FieldOrVector = Union[FrameField, FrameVector]


def _direction_at(U: FieldOrVector, p: Point) -> FrameVector:
    return U.at(p) if isinstance(U, FrameField) else U


def covariant_derivative(U: FieldOrVector, V: FrameField, p: Point) -> FrameVector:
    """Levi-Civita derivative D_U V at ``p``.

    Differentiates the coefficients of V along the Euclidean direction of
    U(p) and adds the connection correction from the frame table.
    """
    u = _direction_at(U, p)
    ue = frame_to_euclidean(u)
    d = tuple(ue[0] * g[0] + ue[1] * g[1] + ue[2] * g[2]
              for g in V.coefficient_gradients(p))
    return FrameVector(*connection_correct(d, u.coeffs(), V.at(p).coeffs()), p)


def covariant_field(U: FrameField, V: FrameField) -> FrameField:
    """The field p -> D_U V(p), whose coefficient gradients are read off
    Taylor points (``FrameField``); V needs supplied gradients there.

    Its three coefficients share one evaluation of D_U V per point, and its
    gradients one read per point; the field keeps both for its lifetime, so
    its gradients at a point cost one ``covariant_derivative`` per axis,
    however often they are asked.  Points key both by value, so 0.0 and
    -0.0 share an entry.
    """
    at = functools.cache(lambda p: covariant_derivative(U, V, p).coeffs())
    field = FrameField(*(lambda p, k=k: at(p)[k] for k in range(3)))
    field.coefficient_gradients = functools.cache(field.coefficient_gradients)
    return field


def lie_bracket(U: FrameField, V: FrameField, p: Point) -> FrameVector:
    """[U, V] at ``p`` computed on Euclidean components."""
    due = _euclidean_jacobian(U, p)
    dve = _euclidean_jacobian(V, p)
    ue = frame_to_euclidean(U.at(p))
    ve = frame_to_euclidean(V.at(p))
    out = []
    for k in range(3):
        out.append(sum(ue[i] * dve[k][i] - ve[i] * due[k][i] for i in range(3)))
    return euclidean_to_frame(p, out)


def _euclidean_jacobian(U: FrameField, p: Point) -> tuple[Vec3, Vec3, Vec3]:
    """Rows: gradients of the Euclidean components of U."""
    ga, gb, gc = U.coefficient_gradients(p)
    a = U.at(p).a
    b = U.at(p).b
    # U^E = (a, b, a*y - b*x + c); product rule adds the explicit x,y terms.
    row3 = (
        p.y * ga[0] - b - p.x * gb[0] + gc[0],
        a + p.y * ga[1] - p.x * gb[1] + gc[1],
        p.y * ga[2] - p.x * gb[2] + gc[2],
    )
    return (ga, gb, row3)


FLOW_STEPS = 8


def flow(U: FrameField, p: Point, time: float) -> Point:
    """RK4 flow of the field ``U`` (on Euclidean coordinates), FLOW_STEPS
    steps."""
    us = rk4(lambda q: frame_to_euclidean(U.at(Point(*q))), p.coords(), time, FLOW_STEPS)
    return Point(*us[-1])
