"""Named residual checks for every identity the library claims to satisfy.

Each check evaluates one identity over deterministic sample sets and
reports the worst residual together with its pass threshold.  A check is
declared once, by ``@check(suite, (name, identity, threshold), ...)`` on
a body that returns one residual per row; ``CHECK_TABLE`` lists every
check in definition order, and the suite runners read it.  The CLI
``verify`` command renders the results as one line per row; the test
suite asserts them individually.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import surfaces
from .core import (FrameField, FrameVector, Point, ORIGIN, T_FIELD, X_FIELD,
                   Y_FIELD, connection_correct, covariant_derivative, covariant_field,
                   curvature_R, dilate, dot, euclidean_to_frame, flow,
                   frame_at, frame_coeffs, frame_to_euclidean, group_inverse, group_mul,
                   jop, jop_coeffs, left_translation_jacobian, lie_bracket, ricci,
                   rotate_z)
from .geodesics import (H_SERIES_CUTOFF, GeodesicArc, exp_geodesic, exp_geodesics,
                        helpers_fgh, jacobi_field, jacobi_fields, jacobi_residual,
                        straight_line_residual)
from .numerics import (QuadratureSpec, Taylor, gauss_legendre_1d, integrate_cells,
                       taylor_derivatives)
from .stability import (Profile, RulingFrame, boundary_flux,
                        bracket_integral, bracket_integral_quadrature,
                        certify_instability_h2, certify_instability_nosing,
                        cosine_bump, direct_variations,
                        index_form_I, index_form_cells, index_form_samples,
                        jacobi_quadratic_of_frame, jacobi_vertical_quadratic,
                        l_nh_closed, l_nh_of_frame,
                        operator_L, q_form, ruling_form, separable, smooth_bump,
                        tangent_derivative, times_nh,
                        vertical_variation_area, zero_function)
from .surfaces import (CatenoidChart, CatenoidRulingChart, Chart, GraphChart, HelicoidChart,
                       ParaboloidChart, RuledChart, VerticalPlaneChart, area, characteristic_ray,
                       dilated, rotated, ruled_coordinates, singular_locus,
                       surface_frame, surface_frames, _coeff_partial)


@dataclass(frozen=True)
class CheckResult:
    name: str
    identity: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.residual) and self.residual <= self.threshold

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (f"{self.name:40s} {self.identity:44s} "
                f"{self.residual:12.3e} {self.threshold:9.1e}  {flag}")


# (suite, function name, rows) of every check, in definition order; a row is
# (name, identity, threshold).  The table holds names, not functions: the
# runner looks each check up as a module attribute when it runs.
CHECK_TABLE: list[tuple[str, str, tuple[tuple[str, str, float], ...]]] = []


def check(suite: str, *rows: tuple[str, str, float]):
    """Declare a check of ``suite`` with one (name, identity, threshold)
    row per residual.  The body returns its residual, or a tuple of one
    residual per row; the check returns one ``CheckResult`` per row, as a
    tuple when there are several."""
    def declare(body):
        CHECK_TABLE.append((suite, body.__name__, rows))

        @functools.wraps(body)
        def results():
            got = body() if len(rows) > 1 else (body(),)
            out = tuple(CheckResult(name, identity, residual, threshold)
                        for (name, identity, threshold), residual in zip(rows, got, strict=True))
            return out if len(rows) > 1 else out[0]
        return results
    return declare


def _worst(*vals: float) -> float:
    """The largest of ``vals``, or NaN when one of them is NaN: ``max``
    keeps a NaN only when it comes first, so a NaN sample would otherwise
    read as a small residual and pass."""
    return math.nan if any(map(math.isnan, vals)) else max(vals)


def _nmax(*vals: float) -> float:
    return _worst(*map(abs, vals))


def _worst_entry(*arrays: np.ndarray) -> float:
    """``_worst`` of the largest entry of each array: ``np.max`` keeps a NaN."""
    return _worst(*(float(np.max(a)) for a in arrays))


_GRID = {
    "catenoid": [(th, ph) for th in (0.3, 1.4, 2.6, 3.9, 5.1)
                 for ph in (-1.3, -0.6, -0.1, 0.0, 0.4, 0.9, 1.4)],
    "helicoid": [(s, e) for s in (-1.3, -0.8, -0.35, -0.1, 0.2, 0.42, 0.62, 1.1)
                 for e in (-1.1, 0.0, 0.8)],
    "paraboloid": [(x, y) for x in (0.3, 0.75, 1.3) for y in (-0.9, -0.2, 0.6, 1.2)],
    "plane": [(x, y) for x in (-0.8, 0.1, 0.9) for y in (-0.7, 0.4)],
}


def _grid_frames(chart: Chart, name: str):
    """The frames of ``chart`` at the points of ``_GRID[name]``, in one pass."""
    return surface_frames(chart, *np.array(_GRID[name]).T)


def _random_regular_points(chart: Chart, n: int, seed: int,
                           ranges: tuple[tuple[float, float], tuple[float, float]],
                           min_nh: float = 0.05) -> list[tuple[float, float]]:
    """The first ``n`` uniform draws with |N_h| > min_nh.  Candidates are
    framed in blocks of as many as are still wanted, so no draw is framed
    that a one-by-one loop would not frame."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        block = [(rng.uniform(*ranges[0]), rng.uniform(*ranges[1]))
                 for _ in range(n - len(pts))]
        nh = surface_frames(chart, *np.array(block).T, singular_ok=True).Nh_norm
        pts += [u for u, keep in zip(block, (nh > min_nh).tolist()) if keep]
    return pts


# ---------------------------------------------------------------------------
# core suite
# ---------------------------------------------------------------------------

_CONNECTION_TABLE = {
    (0, 0): (0.0, 0.0, 0.0), (0, 1): (0.0, 0.0, -1.0), (0, 2): (0.0, 1.0, 0.0),
    (1, 0): (0.0, 0.0, 1.0), (1, 1): (0.0, 0.0, 0.0), (1, 2): (-1.0, 0.0, 0.0),
    (2, 0): (0.0, 1.0, 0.0), (2, 1): (-1.0, 0.0, 0.0), (2, 2): (0.0, 0.0, 0.0),
}

_CURVATURE_TABLE = {
    (0, 1, 0): (0.0, -3.0, 0.0), (0, 1, 1): (3.0, 0.0, 0.0), (0, 1, 2): (0.0, 0.0, 0.0),
    (0, 2, 0): (0.0, 0.0, 1.0), (0, 2, 1): (0.0, 0.0, 0.0), (0, 2, 2): (-1.0, 0.0, 0.0),
    (1, 2, 0): (0.0, 0.0, 0.0), (1, 2, 1): (0.0, 0.0, 1.0), (1, 2, 2): (0.0, -1.0, 0.0),
}


def _frame_vectors(p: Point) -> tuple[FrameVector, FrameVector, FrameVector]:
    return (FrameVector(1, 0, 0, p), FrameVector(0, 1, 0, p), FrameVector(0, 0, 1, p))


@check("core", ("connection_table", "D_X Y=-T, D_X T=Y, ... (9 entries)", 1e-12))
def check_connection_table():
    fields = (X_FIELD, Y_FIELD, T_FIELD)
    worst = 0.0
    for p in (ORIGIN, Point(1.3, -0.7, 2.1)):
        for (i, j), want in _CONNECTION_TABLE.items():
            got = covariant_derivative(fields[i], fields[j], p).coeffs()
            worst = _worst(worst, _nmax(*(g - w for g, w in zip(got, want))))
    return worst


@check("core", ("curvature_table", "R(X,Y)Y=3X, R(X,T)T=-X, ...", 1e-12))
def check_curvature_table():
    worst = 0.0
    for p in (ORIGIN, Point(0.4, 1.1, -0.9)):
        es = _frame_vectors(p)
        for (i, j, k), want in _CURVATURE_TABLE.items():
            got = curvature_R(es[i], es[j], es[k]).coeffs()
            worst = _worst(worst, _nmax(*(g - w for g, w in zip(got, want))))
            # antisymmetry in the first slot
            neg = curvature_R(es[j], es[i], es[k]).coeffs()
            worst = _worst(worst, _nmax(*(g + n for g, n in zip(got, neg))))
    return worst


@check("core", ("ricci_table", "Ric=diag(-2,-2,2) on the frame", 1e-12))
def check_ricci_table():
    p = Point(0.2, -0.5, 0.7)
    es = _frame_vectors(p)
    want = {(0, 0): -2.0, (1, 1): -2.0, (2, 2): 2.0}
    worst = 0.0
    for i in range(3):
        for j in range(3):
            worst = _worst(worst, abs(ricci(es[i], es[j]) - want.get((i, j), 0.0)))
    return worst


@check("core", ("ricci_normal_identity", "Ric(N,N) = 2 - 4|N_h|^2", 1e-12))
def check_ricci_normal():
    rng = random.Random(7)
    worst = 0.0
    p = Point(0.3, 0.1, -1.0)
    for _ in range(25):
        v = [rng.uniform(-1, 1) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in v))
        u = FrameVector(v[0] / n, v[1] / n, v[2] / n, p)
        nh2 = u.a * u.a + u.b * u.b
        worst = _worst(worst, abs(ricci(u, u) - (2.0 - 4.0 * nh2)))
    return worst


@check("core", ("group_associativity", "(p*q)*r = p*(q*r)", 1e-12))
def check_associativity():
    rng = random.Random(11)
    worst = 0.0
    for _ in range(200):
        p, q, r = (Point(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10))
                   for _ in range(3))
        lhs = group_mul(group_mul(p, q), r)
        rhs = group_mul(p, group_mul(q, r))
        worst = _worst(worst, _nmax(lhs.x - rhs.x, lhs.y - rhs.y, lhs.t - rhs.t))
    return worst


@check("core", ("group_inverse", "p * p^{-1} = 0", 1e-12))
def check_group_inverse():
    rng = random.Random(13)
    worst = 0.0
    for _ in range(50):
        p = Point(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
        e = group_mul(p, group_inverse(p))
        worst = _worst(worst, _nmax(e.x, e.y, e.t))
    return worst


@check("core", ("left_invariance", "dL_p (frame at 0) = frame at p", 1e-12))
def check_left_invariance():
    rng = random.Random(17)
    worst = 0.0
    frame0 = frame_at(ORIGIN)
    for _ in range(40):
        p = Point(rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-8, 8))
        jac = left_translation_jacobian(p)
        frame_p = frame_at(p)
        for k in range(3):
            pushed = tuple(sum(jac[i][m] * frame0[k][m] for m in range(3)) for i in range(3))
            worst = _worst(worst, _nmax(*(a - b for a, b in zip(pushed, frame_p[k]))))
    return worst


@check("core", ("bracket_flows", "[X,Y]=-2T, [X,T]=[Y,T]=0 (flows)", 1e-6))
def check_bracket_flows():
    h = 1e-2
    p = Point(0.4, -0.3, 0.8)
    pairs = ((X_FIELD, Y_FIELD, (0.0, 0.0, -2.0)),
             (X_FIELD, T_FIELD, (0.0, 0.0, 0.0)),
             (Y_FIELD, T_FIELD, (0.0, 0.0, 0.0)))
    worst = 0.0
    for U, V, want in pairs:
        q = flow(V, flow(U, flow(V, flow(U, p, h), h), -h), -h)
        got = ((q.x - p.x) / (h * h), (q.y - p.y) / (h * h), (q.t - p.t) / (h * h))
        worst = _worst(worst, _nmax(*(g - w for g, w in zip(got, want))))
    return worst


def _poly_fields() -> tuple[FrameField, FrameField, FrameField]:
    u = FrameField(lambda p: 1.0 + 0.3 * p.x, lambda p: 0.5 * p.y - p.t,
                   lambda p: 0.2 * p.x * p.y)
    v = FrameField(lambda p: p.y, lambda p: 1.0 - 0.4 * p.t,
                   lambda p: 0.1 + p.x)
    w = FrameField(lambda p: 0.7 * p.t, lambda p: p.x * p.x,
                   lambda p: 0.5 - 0.2 * p.y)
    return u, v, w


@check("core", ("torsion_free", "D_U V - D_V U - [U,V] = 0", 1e-8))
def check_torsion_free():
    u, v, _ = _poly_fields()
    worst = 0.0
    for p in (Point(0.3, -0.2, 0.5), Point(-1.1, 0.8, -0.4)):
        tor = (covariant_derivative(u, v, p) - covariant_derivative(v, u, p)
               - lie_bracket(u, v, p))
        worst = _worst(worst, tor.norm())
    return worst


@check("core", ("metric_compatibility", "U<V,W> = <D_U V,W> + <V,D_U W>", 1e-8))
def check_metric_compatibility():
    u, v, w = _poly_fields()
    worst = 0.0
    for p in (Point(0.2, 0.4, -0.3), Point(-0.6, 0.1, 0.9)):
        ue = frame_to_euclidean(u.at(p))
        t = Taylor(0.0, 1.0)  # U<V,W> along the line p + t U(p)
        q = Point(p.x + t * ue[0], p.y + t * ue[1], p.t + t * ue[2])
        deriv = taylor_derivatives(dot(v.at(q), w.at(q)))[1]
        lhs = deriv - dot(covariant_derivative(u, v, p), w.at(p)) \
            - dot(v.at(p), covariant_derivative(u, w, p))
        worst = _worst(worst, abs(lhs))
    return worst


@check("core", ("curvature_from_connection", "R(U,V)W = D_V D_U W - D_U D_V W + D_[U,V] W", 1e-8))
def check_curvature_from_connection():
    fields = (X_FIELD, Y_FIELD, T_FIELD)
    worst = 0.0
    p = Point(0.5, -0.8, 0.2)
    # D_{E_i} E_k once per (i, k): each field differences itself at p once
    dfield = [[covariant_field(u, w) for w in fields] for u in fields]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            br = lie_bracket(fields[i], fields[j], p)
            br_field = FrameField.constant(*br.coeffs())
            for k in range(3):
                got = (covariant_derivative(fields[j], dfield[i][k], p)
                       - covariant_derivative(fields[i], dfield[j][k], p)
                       + covariant_derivative(br_field, fields[k], p))
                es = _frame_vectors(p)
                want = curvature_R(es[i], es[j], es[k])
                worst = _worst(worst, (got - want).norm())
    return worst


@check("core", ("horizontal_curvature_form", "R(w,v)w = -3<v,Jw>Jw + <v,T>T, |w|=1 horiz", 1e-12))
def check_horizontal_curvature_form():
    rng = random.Random(23)
    p = Point(0.1, 0.9, -0.4)
    worst = 0.0
    for _ in range(30):
        th = rng.uniform(0, 2 * math.pi)
        w = FrameVector(math.cos(th), math.sin(th), 0.0, p)
        v = FrameVector(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), p)
        jw = jop(w)
        tvec = FrameVector(0, 0, 1, p)
        want = jw.scaled(-3.0 * dot(v, jw)) + tvec.scaled(dot(v, tvec))
        worst = _worst(worst, (curvature_R(w, v, w) - want).norm())
    return worst


@check("core", ("jop_rotation", "J(X)=Y, J(Y)=-X, <Ju,v>+<u,Jv>=0", 1e-12))
def check_jop():
    rng = random.Random(29)
    p = Point(0.0, 0.0, 0.0)
    worst = 0.0
    x, y, t = _frame_vectors(p)
    worst = _worst(worst, (jop(x) - y).norm(), (jop(y) + x).norm(), jop(t).norm())
    worst = _worst(worst, (jop(jop(x)) + x).norm())
    for _ in range(30):
        u = FrameVector(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), p)
        v = FrameVector(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), p)
        worst = _worst(worst, abs(dot(jop(u), v) + dot(u, jop(v))))
    return worst


@check("core", ("symmetry_groups", "dilations/rotations compose and invert", 1e-12))
def check_symmetry_groups():
    rng = random.Random(31)
    worst = 0.0
    for _ in range(25):
        p = Point(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        q = dilate(-0.7, dilate(0.7, p))
        worst = _worst(worst, _nmax(q.x - p.x, q.y - p.y, q.t - p.t))
        r = rotate_z(-1.1, rotate_z(1.1, p))
        worst = _worst(worst, _nmax(r.x - p.x, r.y - p.y, r.t - p.t))
    d = dilate(math.log(2.0), Point(1, 1, 1))
    worst = _worst(worst, _nmax(d.x - 2, d.y - 2, d.t - 4))
    r = rotate_z(math.pi / 2, Point(1, 0, 5))
    worst = _worst(worst, _nmax(r.x, r.y - 1, r.t - 5))
    return worst


# ---------------------------------------------------------------------------
# geodesics suite
# ---------------------------------------------------------------------------

@check("geodesics", ("fgh_helpers", "series/closed agree at the switch", 1e-14))
def check_fgh():
    worst = 0.0
    f0, g0, h0 = helpers_fgh(0.0)
    worst = _worst(worst, abs(f0 - 1.0), abs(g0), abs(h0))
    fpi, gpi, _ = helpers_fgh(math.pi)
    worst = _worst(worst, abs(fpi), abs(gpi - 2.0 / math.pi))
    for x in (1e-4, -1e-4):
        # cancellation-free closed forms: (1-cos x)/x = 2 sin^2(x/2)/x, and
        # x h(x) = (x - sin x)/x carries the subtraction at full accuracy
        fs, gs, hs = helpers_fgh(x * (1 - 1e-12))
        half = math.sin(0.5 * x)
        worst = _worst(worst, abs(fs - math.sin(x) / x))
        worst = _worst(worst, abs(gs - 2.0 * half * half / x))
        worst = _worst(worst, abs(x * hs - (x - math.sin(x)) / x))
    for x in (H_SERIES_CUTOFF, -H_SERIES_CUTOFF):
        # h's own switch: its series just inside |x| = 1 against the closed
        # form at the same x, where x - sin x no longer cancels
        x = math.nextafter(x, 0.0)
        worst = _worst(worst, abs(helpers_fgh(x)[2] - (x - math.sin(x)) / (x * x)))
    return worst


@check("geodesics", ("straight_line_geodesics",
                     "exp_p(sv) = p + sv for horizontal/vertical v", 1e-12))
def check_horgeo():
    rng = random.Random(37)
    worst = 0.0
    for _ in range(30):
        p = Point(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        v = FrameVector(a, b, 0.0, p)
        s = rng.uniform(-4, 4)
        q, _ = exp_geodesic(GeodesicArc(p, v), s)
        ve = frame_to_euclidean(v)
        worst = _worst(worst, _nmax(q.x - p.x - s * ve[0], q.y - p.y - s * ve[1],
                                 q.t - p.t - s * ve[2]))
        vv = FrameVector(0.0, 0.0, rng.uniform(-2, 2), p)
        qv, _ = exp_geodesic(GeodesicArc(p, vv), s)
        worst = _worst(worst, _nmax(qv.x - p.x, qv.y - p.y, qv.t - p.t - s * vv.c))
    q, _ = exp_geodesic(GeodesicArc(ORIGIN, euclidean_to_frame(ORIGIN, (1, 0, 1))), math.pi)
    worst = _worst(worst, _nmax(q.x, q.y, q.t - 1.5 * math.pi))
    return worst


def _random_arcs(n: int, seed: int) -> list[GeodesicArc]:
    rng = random.Random(seed)
    arcs = []
    for _ in range(n):
        p = Point(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        v = FrameVector(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                        rng.uniform(-1.5, 1.5), p)
        arcs.append(GeodesicArc(p, v))
    return arcs


@check("geodesics", ("lambda_conserved", "<gamma',T> constant on [-10,10]", 1e-10),
                    ("speed_conserved", "|gamma'| constant on [-10,10]", 1e-10))
def check_conserved():
    lam, speed = [], []
    svals = np.array([-10.0 + 20.0 * i / 40 for i in range(41)])
    for arc in _random_arcs(12, 41):
        _, (a, b, c) = exp_geodesics(arc, svals)
        lam.append(abs(c - arc.lam))
        speed.append(abs(np.sqrt(a * a + b * b + c * c) - arc.v0.norm()))
    return _worst_entry(*lam), _worst_entry(*speed)


@check("geodesics", ("geodesic_semigroup", "flow restarted at gamma(s1) matches", 1e-9))
def check_semigroup():
    worst = 0.0
    for arc in _random_arcs(10, 43):
        for s1, s in ((0.7, 2.4), (-1.2, 0.9), (2.0, -3.0)):
            q1, v1 = exp_geodesic(arc, s1)
            direct, _ = exp_geodesic(arc, s)
            rest, _ = exp_geodesic(GeodesicArc(q1, v1), s - s1)
            worst = _worst(worst, _nmax(direct.x - rest.x, direct.y - rest.y,
                                     direct.t - rest.t))
    return worst


def _ruling_family(chart: Chart, s: float, a: float):
    """The arc along F_1 from the point (s, a) of ``chart``, and the initial
    data of its Jacobi field F_2 on the family a -> F(s + ., a) of rulings:
    V(0) = F_2 and V'(0) = D_{F_2} F_1, from the chart's 2-jet."""
    jet = chart.jet(s, a)
    x, y, _ = jet.p
    p = Point(*jet.p)
    c1, c2 = frame_coeffs(x, y, jet.f1), frame_coeffs(x, y, jet.f2)
    dv0 = connection_correct(_coeff_partial(x, y, jet.f12, jet.f2, jet.f1), c2, c1)
    return GeodesicArc(p, FrameVector(*c1, p)), FrameVector(*c2, p), FrameVector(*dv0, p)


@check("geodesics", ("jacobi_trivial_family", "line translations: V const, V''=0", 1e-4))
def check_jacobi_trivial():
    # the lines e -> (0, e, 0) + s Y translated along Y, at e = 0.1
    p = Point(0.0, 0.1, 0.0)
    y_vec = FrameVector(0.0, 1.0, 0.0, p)
    fields = jacobi_fields(GeodesicArc(p, y_vec), y_vec, y_vec.scaled(0.0), [-1.0, 0.4, 2.0])
    worst = 0.0
    for i in range(len(fields.s)):
        sample = fields.sample(i)
        worst = _worst(worst, (sample.V - FrameVector(0, 1, 0, sample.V.base)).norm(),
                       sample.Vsecond.norm())
    return worst


@check("geodesics", ("jacobi_equation_rulings", "V'' - 3<V,JZ>JZ + <V,T>T = 0", 1e-5),
                    ("jacobi_commutation", "[gamma', V] = 0", 1e-5),
                    ("jacobi_vertical_quadratic_fit", "<V,T>(s) quadratic on rulings", 1e-8))
def check_jacobi_helicoid():
    # the rulings of the pitch-2 helicoid's seed: the point at s = 0 and F_s
    hel = HelicoidChart(2.0)
    worst_eq = 0.0
    worst_comm = 0.0
    for eps, s in ((0.0, 0.3), (0.5, -0.8), (-0.4, 1.5)):
        fields = jacobi_fields(*_ruling_family(hel, 0.0, eps), [s])
        sample = fields.sample(0)
        worst_eq = _worst(worst_eq, straight_line_residual(sample, sample.velocity),
                          jacobi_residual(sample, sample.velocity))
        worst_comm = _worst(worst_comm, fields.commutation_residual(0))

    # vertical component of V must be an exact quadratic in s
    svals = [-1.0 + 0.25 * i for i in range(9)]
    worst_fit = 0.0
    for eps in (0.0, 0.7):
        vt = jacobi_fields(*_ruling_family(hel, 0.0, eps), svals).V[2].tolist()
        coef = _quad_fit(svals, vt)
        worst_fit = _worst(worst_fit, *(abs(coef[0] * s * s + coef[1] * s + coef[2] - v)
                                        for s, v in zip(svals, vt)))
    return worst_eq, worst_comm, worst_fit


@check("geodesics", ("jacobi_equation_general", "V'' + R(gamma',V)gamma' = 0", 1e-4))
def check_jacobi_random():
    # the family e -> exp_{alpha(e)}(s U(e)) with alpha(e) = (sin e, e, 0.3 e^2)
    # and U(e) = (0.8 + 0.1 e, -0.5 e, 0.9 + 0.2 cos e) in frame coefficients
    worst = 0.0
    for eps, s in ((0.0, 0.5), (0.3, -1.0), (-0.2, 1.2)):
        p = Point(math.sin(eps), eps, 0.3 * eps * eps)
        u = (0.8 + 0.1 * eps, -0.5 * eps, 0.9 + 0.2 * math.cos(eps))
        v0 = euclidean_to_frame(p, (math.cos(eps), 1.0, 0.6 * eps))
        dv0 = connection_correct((0.1, -0.5, -0.2 * math.sin(eps)), v0.coeffs(), u)
        sample = jacobi_field(GeodesicArc(p, FrameVector(*u, p)), v0, FrameVector(*dv0, p), s)
        worst = _worst(worst, jacobi_residual(sample, sample.velocity))
    return worst


def _quad_fit(xs: Iterable[float], ys: Iterable[float]) -> tuple[float, float, float]:
    arr = np.polynomial.polynomial.polyfit(list(xs), list(ys), 2)
    return float(arr[2]), float(arr[1]), float(arr[0])


# ---------------------------------------------------------------------------
# surfaces suite
# ---------------------------------------------------------------------------

def _catalog() -> dict[str, Chart]:
    return {
        "catenoid": CatenoidChart(1.0),
        "helicoid": HelicoidChart(2.0),
        "paraboloid": ParaboloidChart(domain=((0.2, 1.5), (-1.0, 1.3))),
        "plane": surfaces.PlaneChart(0.4, -0.7, 0.3),
    }


def _vectors(fr, *names: str) -> list[FrameVector]:
    """The triples ``names`` of the one-point frame ``fr`` as tangent
    vectors at its base point."""
    p = Point(*fr.points)
    return [FrameVector(*getattr(fr, name), p) for name in names]


@check("surfaces", ("frame_relations", "|N_h|^2+<N,T>^2=1; projections of nu_h, T", 1e-10))
def check_frame_relations():
    # frame coefficients as (3, n) arrays, with FrameVector's dot and norm
    dot3 = lambda u, v: u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    norm = lambda v: np.sqrt(dot3(v, v))
    tvec = np.array([[0.0], [0.0], [1.0]])
    worst = []
    for name, chart in _catalog().items():
        fr = _grid_frames(chart, name)
        N, nu, Z, S = (np.array(np.broadcast_arrays(*getattr(fr, f)))
                       for f in ("N", "nu_h", "Z", "S"))
        # tangential projections onto {Z, S}
        nu_t = Z * dot3(nu, Z) + S * dot3(nu, S)
        t_t = Z * dot3(tvec, Z) + S * dot3(tvec, S)
        worst += [abs(fr.Nh_norm ** 2 + fr.NT ** 2 - 1.0), norm(nu_t - S * fr.NT),
                  norm(t_t + S * fr.Nh_norm), abs(norm(N) - 1.0), abs(dot3(Z, S)),
                  abs(2.0 * fr.H * fr.Nh_norm - fr.BZZ)]
    return _worst_entry(*worst)


def _nu_h_along(fr, direction) -> tuple:
    """The derivative of the frame coefficients of nu_h of the one-point
    frame ``fr`` along the chart direction ``direction``, from
    ``nu_h_partial``; J of it is Z's, since Z = J(nu_h)."""
    (d1, d2), parts = direction, [fr.nu_h_partial(j) for j in (0, 1)]
    return (*(d1 * parts[0][k] + d2 * parts[1][k] for k in (1, 2)), 0.0)


@check("surfaces", ("characteristic_flow_derivatives",
                    "D_Z Z = 2H nu_h; D_Z nu_h = T - 2H Z", 1e-5),
                   ("scalar_flow_derivatives", "Z<N,T>, S<N,T>, Z|N_h| closed forms", 1e-5))
def check_characteristic_derivatives():
    # includes a non-minimal graph so the 2H terms are exercised
    bowl = GraphChart(lambda x, y: x * x + y * y, lambda x, y: 2 * x, lambda x, y: 2 * y,
                      lambda x, y: 2.0, lambda x, y: 0.0, lambda x, y: 2.0,
                      domain=((0.3, 1.5), (-1.0, 1.0)))
    cases = [(CatenoidChart(1.0), (1.2, 0.5)), (HelicoidChart(2.0), (0.25, 0.4)),
             (bowl, (0.8, 0.3))]
    worst_zz = 0.0
    worst_sc = 0.0
    along = lambda direction, d: direction[0] * d[0] + direction[1] * d[1]
    for chart, u0 in cases:
        fr = surface_frame(chart, u0)
        nu, z = _vectors(fr, "nu_h", "Z")
        dnu = _nu_h_along(fr, fr.z_chart)
        dzz = FrameVector(*connection_correct(jop_coeffs(dnu), z.coeffs(), z.coeffs()), z.base)
        worst_zz = _worst(worst_zz, (dzz - nu.scaled(2.0 * fr.H)).norm())
        dznu = FrameVector(*connection_correct(dnu, z.coeffs(), nu.coeffs()), z.base)
        want = FrameVector(0, 0, 1, z.base) - z.scaled(2.0 * fr.H)
        worst_zz = _worst(worst_zz, (dznu - want).norm())

        znt, snt = along(fr.z_chart, fr.dNT), along(fr.s_chart, fr.dNT)
        znh = along(fr.z_chart, fr.dNh)
        worst_sc = _worst(worst_sc, abs(znt - fr.Nh_norm * (fr.BZS - 1.0)),
                          abs(snt - fr.Nh_norm * fr.BSS), abs(znh - fr.NT * (1.0 - fr.BZS)))
    return worst_zz, worst_sc


@check("surfaces", ("shape_term_flow_derivative",
                    "Z<B(Z),S> = 4|N_h|<N,T> - 2<N,T><B(Z),S>(1+<B(Z),S>)/|N_h|", 1e-4))
def check_zbzs():
    worst = 0.0
    for chart, u0 in ((CatenoidChart(1.0), (0.9, 0.6)), (HelicoidChart(2.0), (0.3, -0.5)),
                      (CatenoidChart(1.0), (2.4, -0.8))):
        fr = surface_frame(chart, u0)
        zb = tangent_derivative(chart, lambda f: f.BZS, u0, 1, "Z")
        want = (4.0 * fr.Nh_norm * fr.NT
                - 2.0 / fr.Nh_norm * fr.NT * fr.BZS * (1.0 + fr.BZS))
        worst = _worst(worst, abs(zb - want))
    return worst


@check("surfaces", ("helicoid_frame_closed_forms", "|N_h|, <N,T>, <B(Z),S> closed forms", 1e-8))
def check_helicoid_closed_forms():
    worst, s = [], np.array(_GRID["helicoid"])[:, 0]
    for R in (1.0, 2.0):
        chart = HelicoidChart(R)
        fr, d = _grid_frames(chart, "helicoid"), RulingFrame(chart, s)
        worst += [abs(fr.Nh_norm - d.Nh), abs(fr.NT - d.NT), abs(fr.BZS - d.BZS),
                  abs(fr.riem_area - d.W)]
    return _worst_entry(*worst)


@check("surfaces", ("catalog_minimality", "H = 0 on the minimal catalog", 1e-8))
def check_minimality():
    # the curved charts of the catalog, and the pitch-1 helicoid on the helicoid grid
    charts = [*_catalog().items(), ("helicoid", HelicoidChart(1.0))]
    return _worst_entry(*(abs(_grid_frames(chart, name).H)
                          for name, chart in charts if name != "plane"))


@check("surfaces", ("vertical_plane_frame", "<N,T>=0, <B(Z),S>=1, L(|N_h|)=0 on x=0", 1e-8))
def check_vertical_plane():
    chart = VerticalPlaneChart()
    worst = 0.0
    for u in ((0.0, 0.0), (0.5, -0.7), (-0.9, 0.3)):
        fr = surface_frame(chart, u)
        worst = _worst(worst, abs(fr.NT), abs(fr.BZS - 1.0), abs(fr.Nh_norm - 1.0))
        worst = _worst(worst, abs(l_nh_closed(chart, u)))
        worst = _worst(worst, abs(operator_L(chart, lambda f: f.Nh_norm, u)))
    return worst


def _straightness(points: list[Point]) -> float:
    """The largest distance |w - (w.d) d| of a point from the chord of the
    curve, w its offset from the first point and d the unit chord from the
    first point to the last.  The perpendicular part is formed as a vector,
    not as sqrt(|w|^2 - (w.d)^2), whose difference cancels to round-off and
    would leave its square root, about 1e-8, on a straight ray."""
    p0, p1 = points[0], points[-1]
    d = (p1.x - p0.x, p1.y - p0.y, p1.t - p0.t)
    n = math.sqrt(sum(c * c for c in d))
    d = (d[0] / n, d[1] / n, d[2] / n)
    worst = 0.0
    for p in points:
        w = (p.x - p0.x, p.y - p0.y, p.t - p0.t)
        proj = sum(wi * di for wi, di in zip(w, d))
        worst = _worst(worst, math.sqrt(sum((wi - proj * di) ** 2 for wi, di in zip(w, d))))
    return worst


@check("surfaces", ("characteristic_ray_helicoid", "rulings are straight lines", 1e-8),
                   ("characteristic_ray_catenoid", "rulings straight over length 2", 1e-6))
def check_characteristic_rays():
    hel = HelicoidChart(2.0)
    worst_h = _straightness(characteristic_ray(hel, (0.0, 0.4), 0.4, 32))
    ray = characteristic_ray(VerticalPlaneChart(domain=((-3, 3), (-3, 3))), (0.2, 0.5), 1.0, 16)
    worst_h = _worst(worst_h, *(_nmax(p.x, p.t - ray[0].t) for p in ray))
    cat = CatenoidChart(1.0)
    worst_c = _straightness(characteristic_ray(cat, (0.7, 0.4), 2.0, 64))
    return worst_h, worst_c


def _ruled_charts() -> tuple[RuledChart, RuledChart, RuledChart]:
    """The ruled charts of ``check_ruled_charts``, with nothing walked yet:
    over the vertical plane, the catenoid lam = 1 and the pitch-2 helicoid."""
    cat = CatenoidChart(1.0)
    return (ruled_coordinates(VerticalPlaneChart(domain=((-4, 4), (-4, 4))), (0.3, -0.2),
                              0.8, (-1.5, 1.5)),
            ruled_coordinates(cat, cat.locate(Point(math.sqrt(2.0), 0.0, 1.0)), 1.0, (-3, 3)),
            ruled_coordinates(HelicoidChart(2.0), (0.1, 0.0), 0.6, (-1.0, 1.0)))


@check("surfaces", ("ruled_vertical_plane", "ruled chart stays in the plane", 1e-10),
                   ("ruled_catenoid_implicit", "t^2 = x^2+y^2-1 on ruled points", 1e-6),
                   ("ruled_helicoid_pointset", "ruled chart lands on the pitch-2 chart", 1e-6))
def check_ruled_charts():
    rv, rc, rh = _ruled_charts()
    # vertical plane: stays in x = 0
    worst_v = _worst(*(abs(rv.point(s, a).x)
                       for a in (-0.7, 0.0, 0.5) for s in (-1.2, 0.0, 1.0)))

    worst_c = _worst(*(abs(rc.base.implicit_residual(rc.point(s, a)))
                       for a in (-0.9, -0.3, 0.2, 0.8) for s in (-2.5, -1.0, 0.5, 2.0)))

    worst_h = 0.0
    for a in (-0.5, 0.0, 0.4):
        for s in (-0.8, 0.2, 0.9):
            p = rh.point(s, a)
            eps = 2.0 * p.t  # t = eps/R on the pitch-2 chart
            th = 2.0 * eps
            srec = p.x * math.sin(th) + p.y * math.cos(th)
            q = rh.base.point(srec, eps)
            worst_h = _worst(worst_h, _nmax(q.x - p.x, q.y - p.y, q.t - p.t))
    return worst_v, worst_c, worst_h


@check("surfaces", ("singular_locus", "helices s=+-1/R; empty catenoid; line x=0 on t=xy", 1e-8))
def check_singular_locus():
    loc = singular_locus(HelicoidChart(2.0), (10, 6))
    if not loc.points:  # no crossings found
        return math.inf
    worst = _worst(*(abs(abs(pt[0]) - 0.5) for pt in loc.points))
    cat = singular_locus(CatenoidChart(1.0), (8, 8))
    worst = _worst(worst, float(bool(cat.cells or cat.points)))
    par = singular_locus(ParaboloidChart(domain=((-1.0, 1.0), (-1.0, 1.0))), (9, 9))
    if not par.points:  # the paraboloid's crossings are missing
        return math.inf
    return _worst(worst, *(abs(pt[0]) for pt in par.points))


@check("surfaces", ("area_dilation_scaling", "A(dilated) = e^{3 lam} A", 1e-6),
                   ("area_rotation_invariance", "A invariant under rotations", 1e-10))
def check_area_scaling():
    hel = HelicoidChart(2.0)
    patch = ((0.0, 0.4), (0.0, 1.0))
    quad = QuadratureSpec(16, (8, 8))
    base = area(hel, patch, quad)
    lam = 0.3
    scaled = area(dilated(hel, lam), patch, quad)
    worst_d = abs(scaled - math.exp(3.0 * lam) * base) / abs(scaled)
    rot = area(rotated(hel, 1.234), patch, quad)
    worst_r = abs(rot - base) / abs(base)
    # closed 1-D oracle: integral of |f| over the strip
    closed = (0.4 / 2.0 - 2.0 * 0.4 ** 3 / 3.0) * 1.0
    worst_d = _worst(worst_d, abs(base - closed) / closed)
    vp_area = area(VerticalPlaneChart(), ((0.0, 1.0), (0.0, 1.0)), quad)
    worst_d = _worst(worst_d, abs(vp_area - 1.0))
    return worst_d, worst_r


# ---------------------------------------------------------------------------
# stability suite
# ---------------------------------------------------------------------------

def _as_arrays(pts: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    U1, U2 = np.array(pts).T
    return U1, U2


def _regular_sample_points() -> list[tuple[Chart, tuple[np.ndarray, np.ndarray]]]:
    """50 regular points each on the catenoid and the pitch-2 helicoid, as
    (chart, (U1, U2))."""
    cat = CatenoidChart(1.0)
    hel = HelicoidChart(2.0)
    return [(cat, _as_arrays(_random_regular_points(cat, 50, 101,
                                                    ((0.0, 2 * math.pi), (-1.4, 1.4))))),
            (hel, _as_arrays(_random_regular_points(hel, 50, 103,
                                                    ((-1.3, 1.3), (-1.5, 1.5)), min_nh=0.2)))]


@check("stability", ("q_identically_zero_R2", "|B(Z)+S|^2 = 4|N_h|^2 at R=2", 1e-8),
                    ("q_closed_form_R1", "q = (R^2-4) f^2 / W^4 at R=1", 1e-6))
def check_helicoid_q_closed_forms():
    hel1, s = HelicoidChart(1.0), np.array(_GRID["helicoid"])[:, 0]
    q1 = _grid_frames(hel1, "helicoid").q - RulingFrame(hel1, s).q
    return (_worst_entry(abs(_grid_frames(HelicoidChart(2.0), "helicoid").q)),
            _worst_entry(abs(q1)))


@check("stability", ("lnh_closed_vs_direct", "L(|N_h|) = 4(<B(Z),S>/|N_h|^2 - 1)", 1e-4))
def check_lnh_closed_vs_direct():
    worst = 0.0
    for chart, u in _regular_sample_points():
        lc = l_nh_of_frame(surface_frames(chart, *u))
        ld = operator_L(chart, lambda f: f.Nh_norm, u)
        worst = _worst(worst, float(np.max(np.abs(ld - lc) / np.maximum(1.0, np.abs(lc)))))
    return worst


@check("stability", ("lnh_nonnegative_catenoid", "L(|N_h|) >= 0 (empty singular set)", 1e-8))
def check_lnh_sign_catenoid():
    cat = CatenoidChart(1.0)
    u = _as_arrays(_random_regular_points(cat, 100, 107, ((0.0, 2 * math.pi), (-1.4, 1.4))))
    low = float(np.min(l_nh_of_frame(surface_frames(cat, *u))))
    return _worst(0.0, -low)


@check("stability", ("lnh_nonpositive_helicoid2", "L(|N_h|) = -4(1 -+ |N_h|)^2/|N_h|^2 <= 0", 1e-8))
def check_lnh_sign_helicoid():
    # q = 0 at pitch 2 forces L(|N_h|) = -4 (1 -+ |N_h|)^2 / |N_h|^2 <= 0:
    # the helicoid is outside the scope of the nonnegativity statement.
    hel = HelicoidChart(2.0)
    U1, U2 = _as_arrays(_random_regular_points(hel, 100, 109, ((-1.3, 1.3), (-1.5, 1.5)),
                                               min_nh=0.2))
    fr = surface_frames(hel, U1, U2)
    val = l_nh_of_frame(fr)
    nh = fr.Nh_norm
    sign = np.where(np.abs(U1) < 0.5, 1.0, -1.0)
    want = -4.0 * (1.0 + sign * nh) ** 2 / (nh * nh)
    return float(np.max(np.maximum(np.abs(val - want), np.maximum(0.0, val))))


def _weighted_identity_profiles() -> list:
    """The five test functions f of ``check_indexform3``."""
    return [
        separable(cosine_bump(1.5, 0.8), cosine_bump(0.3, 0.5)),
        separable(cosine_bump(2.4, 0.6), cosine_bump(-0.4, 0.6)),
        separable(smooth_bump(1.0, 0.9), cosine_bump(0.5, 0.7)),
        separable(cosine_bump(3.5, 1.0), smooth_bump(-0.2, 0.8)),
        separable(smooth_bump(4.0, 0.7), smooth_bump(0.1, 0.4)),
    ]


@check("stability", ("index_form_weighted_identity",
                     "I(f|N_h|, f|N_h|) = int |N_h|(Z(f)^2 - L(|N_h|) f^2)", 1e-3))
def check_indexform3():
    cat = CatenoidChart(1.0)
    quad = QuadratureSpec(16, (4, 4))
    worst = 0.0
    for f in _weighted_identity_profiles():
        def both_sides(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            fr = surface_frames(cat, a, b)  # one frame and one jet of f per node for both sides
            fj = fv, fd1, fd2 = f.jet(a, b, (cat, fr))
            lhs = index_form_samples(fr, fj)
            z1, z2 = fr.z_chart
            zf = z1 * fd1 + z2 * fd2
            return lhs, fr.Nh_norm * (zf * zf - l_nh_of_frame(fr) * fv ** 2) * fr.riem_area

        fnh = times_nh(cat, f)  # index_form_I(cat, fnh, fnh, quad) reads f: lhs is its value
        rect, cuts = index_form_cells(cat, fnh, fnh)
        lhs, rhs = integrate_cells(both_sides, rect, quad, cuts)
        worst = _worst(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst


@check("stability", ("discriminant_identity", "b^2 - 4ac = -|N_h|^2 L(|N_h|)", 1e-8))
def check_discriminant():
    worst = 0.0
    for chart, u in _regular_sample_points():
        fr = surface_frames(chart, *u)
        disc = jacobi_quadratic_of_frame(fr)[3]
        worst = _worst(worst, float(np.max(np.abs(disc + fr.Nh_norm ** 2 * l_nh_of_frame(fr)))))
    return worst


@check("stability", ("jacobi_vertical_coefficients",
                     "fit of <V,T> matches (a, b, c) closed forms", 1e-5))
def check_jacobi_coefficients():
    """Least-squares fit of <V,T>(s) against the closed quadratic seeds."""
    cat = CatenoidChart(1.0)
    u0 = (0.9, 0.5)
    a_cl, b_cl, c_cl, _ = jacobi_vertical_quadratic(cat, u0)
    # the rulings along Z through the S-curve of u0: V(0) = S, V'(0) = D_S Z
    fr = surface_frame(cat, u0)
    z, s_vec = _vectors(fr, "Z", "S")
    dz = jop_coeffs(_nu_h_along(fr, fr.s_chart))
    ds_z = FrameVector(*connection_correct(dz, s_vec.coeffs(), z.coeffs()), z.base)
    svals = [-1.0 + 0.25 * i for i in range(9)]
    vt = jacobi_fields(GeodesicArc(z.base, z), s_vec, ds_z, svals).V[2].tolist()
    a_f, b_f, c_f = _quad_fit(svals, vt)
    return _nmax(a_f - a_cl, b_f - b_cl, c_f - c_cl)


@check("stability", ("qform_regular_support", "Q(u) >= 0 away from the singular helices", 1e-10))
def check_qform_regular():
    quad = QuadratureSpec(16, (32, 1))
    u = separable(cosine_bump(0.0, 1.0), cosine_bump(1.0, 0.35))
    val = q_form(2.0, u, quad)
    return _worst(0.0, -val)


@check("stability", ("bracket_integral_dual", "closed antiderivative vs quadrature", 1e-10),
                    ("bracket_integral_bounds", "C(0.6,2.2) < 8 < C(0.5001,2.0002)", 0.5))
def check_bracket():
    quad = QuadratureSpec(16, (64, 1))
    worst = 0.0
    for k, d in ((0.6, 2.2), (1.0, 3.0)):
        worst = _worst(worst, abs(bracket_integral(k, d) - bracket_integral_quadrature(k, d, quad)))
    c06 = bracket_integral(0.6, 2.2)
    worst2 = 0.0 if (c06 < 8.0 and bracket_integral(0.5001, 2.0002) > 8.0) else 1.0
    return worst, worst2


@check("stability", ("second_variation_consistency", "direct A''(0) matches the index form", 1e-2),
                    ("area_stationarity", "A'(0) = 0 under compact variations", 1e-6))
def check_second_variation():
    cat = CatenoidChart(1.0)
    v = separable(cosine_bump(1.5, 0.7), cosine_bump(0.3, 0.5))
    w = zero_function()
    quad = QuadratureSpec(16, (4, 4))
    iform = index_form_I(cat, v, v, quad)
    a2, a1, a0 = direct_variations(cat, v, w, quad)
    return abs(a2 - iform) / max(1e-30, abs(iform)), abs(a1) / a0


@check("stability", ("h2_instability_certificate",
                     "Q(u) < 0, stable under resolution doubling", 0.5))
def check_h2_certificate():
    cert = certify_instability_h2()
    ok = cert.Q_value < 0.0 and cert.Q_value_doubled < 0.0 and cert.C < 8.0
    return 0.0 if ok else 1.0


@check("stability", ("catenoid_instability_certificate", "I(u, u) < 0, stable under doubling", 0.5))
def check_catenoid_certificate():
    cert = certify_instability_nosing()
    ok = cert.Q_value < 0.0 and cert.Q_value_doubled < 0.0
    return 0.0 if ok else 1.0


@check("stability", ("ruling_form_vs_index_form", "closed ruling form = I(|N_h|f, |N_h|f)", 1e-13))
def check_ruling_form():
    """The closed ruling form against the frame-kernel index form of
    u = |N_h| psi(s) phi(a), on supports inside each chart's domain and
    clear of the roots of C.  On these seed charts every frame quantity
    depends on s alone, so one a-cell integrates phi^2 on both sides."""
    quad = QuadratureSpec(16, (2, 1))
    cases = [
        (VerticalPlaneChart(), cosine_bump(0.1, 0.8), cosine_bump(-0.2, 0.7)),
        (ParaboloidChart(), cosine_bump(0.5, 0.4), cosine_bump(0.2, 0.6)),  # x > 0 on t = xy
        (HelicoidChart(2.0), cosine_bump(0.0, 0.4), cosine_bump(0.1, 1.2)),  # between the helices
        (HelicoidChart(2.0), cosine_bump(0.75, 0.2), cosine_bump(-0.3, 1.0)),  # outside s = 1/2
        (HelicoidChart(0.7), cosine_bump(0.3, 0.9), cosine_bump(0.5, 2.0)),
        (CatenoidRulingChart(-2.5), cosine_bump(1.0, 2.0), cosine_bump(0.3, 1.5)),
    ]
    worst = 0.0
    for chart, psi, phi in cases:
        u = times_nh(chart, separable(psi, phi))
        ref = index_form_I(chart, u, u, quad)
        worst = _worst(worst, abs(ruling_form(chart, psi, phi, quad) - ref) / abs(ref))
    return worst


@check("stability", ("vertical_variation_second", "d^2A/dr^2 = int wdot^2", 1e-3),
                    ("vertical_variation_first", "dA/dr = 0 at r = 0", 1e-6))
def check_vertical_variation():
    quad = QuadratureSpec(16, (16, 1))
    w = cosine_bump(0.0, 1.0)
    _, d1, d2 = taylor_derivatives(vertical_variation_area(2.0, w, Taylor(0.0, 1.0), quad))
    exact = gauss_legendre_1d(lambda e: w.deriv(e) ** 2, -1.0, 1.0, quad)
    return abs(d2 - exact) / exact, abs(d1)


@check("stability", ("boundary_flux_limit", "flux -> 4 int v^2 dl as the tube shrinks", 1e-2),
                    ("shape_term_near_singular", "<B(Z),S> -> -1 monotonically", 0.5))
def check_boundary_flux():
    phi = cosine_bump(0.0, 1.0)
    v = separable(phi, Profile(lambda s: 1.0, lambda s: 0.0, (-10.0, 10.0)))
    quad = QuadratureSpec(16, (32, 1))
    flux = boundary_flux(2.0, v, quad)
    target = 8.0 * gauss_legendre_1d(lambda e: phi.value(e) ** 2, -1.0, 1.0, quad)
    vals_out = [RulingFrame(HelicoidChart(2.0), 0.5 + s).BZS for s in (1e-2, 1e-3, 1e-4)]
    vals_in = [RulingFrame(HelicoidChart(2.0), 0.5 - s).BZS for s in (1e-2, 1e-3, 1e-4)]
    mono = (vals_out[0] > vals_out[1] > vals_out[2] > -1.0
            and vals_in[0] < vals_in[1] < vals_in[2] < -1.0)
    return abs(flux - target) / target, 0.0 if mono else 1.0


@check("stability", ("singular_helix_geometry",
                     "arclength parameterization; planar curvature -R", 1e-6))
def check_singular_curve_geometry():
    worst = 0.0
    for R in (1.0, 2.0):
        hel = HelicoidChart(R)
        worst = _worst(worst, abs(RulingFrame(hel, 1.0 / R).W - 1.0))
        # planar curvature of the xy-projection of the singular helix, from the 2-jet
        for s0 in (1.0 / R, -1.0 / R):
            jet = hel.jet(s0, 0.0)
            (dx, dy, _), (ddx, ddy, _) = jet.f2, jet.f22
            worst = _worst(worst, abs(dx * ddy - dy * ddx + R))
    return worst


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------

def _run_suite(suite: str) -> list[CheckResult]:
    out: list[CheckResult] = []
    for in_suite, name, rows in CHECK_TABLE:
        if in_suite == suite:
            got = globals()[name]()
            out.extend(got if len(rows) > 1 else (got,))
    return out


# The bench times the suite runners and every check_* function by their
# module-level names, so checks run through globals() and each runner stays
# a module attribute and a value of SUITES.
SUITES = {suite: functools.partial(_run_suite, suite)
          for suite in dict.fromkeys(suite for suite, _, _ in CHECK_TABLE)}
run_core, run_geodesics, run_surfaces, run_stability = SUITES.values()


def declared_names(suites: Iterable[str]) -> list[str]:
    """The row names of ``suites``, in the order ``run_suites`` reports them."""
    return [row[0] for suite in suites for in_suite, _, rows in CHECK_TABLE
            if in_suite == suite for row in rows]


def run_suites(names: Iterable[str],
               tol_overrides: dict[str, float] | None = None) -> list[CheckResult]:
    results = [r for name in names for r in SUITES[name]()]
    if tol_overrides:
        results = [replace(r, threshold=tol_overrides.get(r.name, r.threshold))
                   for r in results]
    return results
