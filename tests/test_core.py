import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from h1geom.core import (FrameField, FrameVector, ORIGIN, Point, T_FIELD,
                         X_FIELD, Y_FIELD, connection_correct,
                         covariant_derivative, covariant_field, cross,
                         curvature_R, dilate, dot, euclidean_coeffs,
                         euclidean_to_frame, frame_at, frame_coeffs,
                         frame_to_euclidean, group_inverse,
                         group_mul, jop, lie_bracket, ricci, rotate_z)
from h1geom.errors import NonFiniteValue

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_group_examples():
    assert group_mul(ORIGIN, Point(2, -1, 3)) == Point(2, -1, 3)
    assert group_mul(Point(1, 0, 0), Point(0, 1, 0)) == Point(1, 1, -1)
    p = Point(0.3, -1.2, 2.0)
    e = group_mul(p, group_inverse(p))
    assert max(abs(e.x), abs(e.y), abs(e.t)) == 0.0


@given(coord, coord, coord, coord, coord, coord, coord, coord, coord)
@settings(deadline=None, max_examples=60)
def test_associativity(x1, y1, t1, x2, y2, t2, x3, y3, t3):
    p, q, r = Point(x1, y1, t1), Point(x2, y2, t2), Point(x3, y3, t3)
    lhs = group_mul(group_mul(p, q), r)
    rhs = group_mul(p, group_mul(q, r))
    assert max(abs(lhs.x - rhs.x), abs(lhs.y - rhs.y), abs(lhs.t - rhs.t)) <= 1e-12


def test_dilation_and_rotation():
    assert dilate(0.0, Point(1, 2, 3)) == Point(1, 2, 3)
    d = dilate(math.log(2.0), Point(1, 1, 1))
    assert max(abs(d.x - 2), abs(d.y - 2), abs(d.t - 4)) <= 1e-15
    q = dilate(-0.8, dilate(0.8, Point(0.1, -2.0, 0.7)))
    assert max(abs(q.x - 0.1), abs(q.y + 2.0), abs(q.t - 0.7)) <= 1e-15
    r = rotate_z(math.pi / 2.0, Point(1, 0, 5))
    assert max(abs(r.x), abs(r.y - 1), abs(r.t - 5)) <= 1e-15
    assert rotate_z(0.0, Point(2, 3, 4)) == Point(2, 3, 4)


def test_frame_and_conversion():
    x_vec, y_vec, t_vec = frame_at(Point(2, 3, 5))
    assert x_vec == (1.0, 0.0, 3.0)
    assert y_vec == (0.0, 1.0, -2.0)
    assert t_vec == (0.0, 0.0, 1.0)
    assert frame_at(ORIGIN)[0] == (1.0, 0.0, 0.0)

    p = Point(0.7, -1.1, 0.4)
    v = (0.3, -0.8, 1.9)
    back = frame_to_euclidean(euclidean_to_frame(p, v))
    assert max(abs(a - b) for a, b in zip(v, back)) <= 1e-15


def test_contact_form_on_arrays_is_the_scalar_one():
    # frame_coeffs and euclidean_coeffs are the one contact-form formula of
    # euclidean_to_frame and frame_to_euclidean, elementwise on arrays
    rng = np.random.default_rng(5)
    x, y, vx, vy, vt = rng.uniform(-3.0, 3.0, (5, 7))
    arr = frame_coeffs(x, y, (vx, vy, vt))
    back = euclidean_coeffs(x, y, arr)
    for i in range(7):
        p = Point(float(x[i]), float(y[i]), 0.0)
        fv = euclidean_to_frame(p, (float(vx[i]), float(vy[i]), float(vt[i])))
        assert tuple(float(c[i]) for c in arr) == fv.coeffs()
        assert tuple(float(c[i]) for c in back) == frame_to_euclidean(fv)


def test_jop_table():
    p = Point(0.2, 0.4, -1.0)
    x = FrameVector(1, 0, 0, p)
    y = FrameVector(0, 1, 0, p)
    t = FrameVector(0, 0, 1, p)
    assert jop(x).coeffs() == (0.0, 1.0, 0.0)
    assert jop(y).coeffs() == (-1.0, 0.0, 0.0)
    assert jop(t).coeffs() == (0.0, 0.0, 0.0)
    assert (jop(jop(x)) + x).norm() == 0.0


@given(*(st.floats(min_value=-3, max_value=3) for _ in range(6)))
@settings(deadline=None, max_examples=40)
def test_jop_skew(a1, b1, c1, a2, b2, c2):
    p = ORIGIN
    u = FrameVector(a1, b1, c1, p)
    v = FrameVector(a2, b2, c2, p)
    assert abs(dot(jop(u), v) + dot(u, jop(v))) <= 1e-12


def test_connection_table():
    p = Point(1.5, -0.4, 0.9)
    assert covariant_derivative(X_FIELD, Y_FIELD, p).coeffs() == (0.0, 0.0, -1.0)
    assert covariant_derivative(T_FIELD, T_FIELD, p).coeffs() == (0.0, 0.0, 0.0)
    assert covariant_derivative(X_FIELD, T_FIELD, p).coeffs() == (0.0, 1.0, 0.0)
    assert covariant_derivative(Y_FIELD, T_FIELD, p).coeffs() == (-1.0, 0.0, 0.0)


def test_connection_correct_table():
    # D_X Y = -T, D_X T = Y, D_Y X = T, D_Y T = -X, D_T X = Y, D_T Y = -X
    e = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    table = {(0, 1): (0.0, 0.0, -1.0), (0, 2): (0.0, 1.0, 0.0),
             (1, 0): (0.0, 0.0, 1.0), (1, 2): (-1.0, 0.0, 0.0),
             (2, 0): (0.0, 1.0, 0.0), (2, 1): (-1.0, 0.0, 0.0)}
    for i in range(3):
        for j in range(3):
            got = connection_correct((0.0, 0.0, 0.0), e[i], e[j])
            assert got == table.get((i, j), (0.0, 0.0, 0.0))
    # the coefficient derivative is added, and bilinearity holds
    d, w, v = (0.5, -1.0, 2.0), (0.3, -0.7, 1.1), (-0.2, 0.9, 0.4)
    want = [d[m] + sum(w[i] * v[j] * table.get((i, j), (0.0, 0.0, 0.0))[m]
                       for i in range(3) for j in range(3)) for m in range(3)]
    assert max(abs(a - b) for a, b in zip(connection_correct(d, w, v), want)) <= 1e-15


def test_connection_correct_on_arrays():
    rng = np.random.default_rng(3)
    d, w, v = (tuple(rng.normal(size=(3, 8))) for _ in range(3))
    arr = connection_correct(d, w, v)
    for n in range(8):
        pt = connection_correct(*(tuple(float(c[n]) for c in t) for t in (d, w, v)))
        assert tuple(float(c[n]) for c in arr) == pt


def test_covariant_rejects_nonfinite():
    bad = FrameField(lambda p: p.x / 0.0 if p.x else 0.0, lambda p: 0.0, lambda p: 0.0)
    with pytest.raises((NonFiniteValue, ZeroDivisionError)):
        covariant_derivative(X_FIELD, bad, Point(1.0, 0.0, 0.0))


def test_coefficient_gradients_are_exact():
    # one Taylor evaluation of the three coefficients per axis; a field
    # given by math-only functions, or a gradient nested inside a gradient,
    # raises TypeError instead of losing the derivative terms
    field = FrameField(lambda p: p.x * p.y - p.t, lambda p: 2.0 + p.t * p.t, lambda p: 0.5)
    p = Point(0.3, -1.2, 0.7)
    assert field.coefficient_gradients(p) == ((-1.2, 0.3, -1.0), (0.0, 0.0, 1.4), (0.0, 0.0, 0.0))
    floats_only = FrameField(lambda p: math.exp(p.x), lambda p: 0.0, lambda p: 0.0)
    nested = covariant_field(X_FIELD, field)
    for f in (floats_only, nested):
        with pytest.raises(TypeError):
            f.coefficient_gradients(p)


def test_curvature_table_and_antisymmetry():
    p = Point(0.3, 0.1, -0.2)
    x = FrameVector(1, 0, 0, p)
    y = FrameVector(0, 1, 0, p)
    t = FrameVector(0, 0, 1, p)
    assert curvature_R(x, y, y).coeffs() == (3.0, 0.0, 0.0)
    assert curvature_R(x, y, x).coeffs() == (0.0, -3.0, 0.0)
    assert curvature_R(x, t, t).coeffs() == (-1.0, 0.0, 0.0)
    assert curvature_R(y, t, y).coeffs() == (0.0, 0.0, 1.0)
    u = FrameVector(0.4, -0.9, 1.2, p)
    w = FrameVector(-0.3, 0.8, 0.5, p)
    assert curvature_R(u, u, w).norm() <= 1e-14


def test_ricci_values():
    p = ORIGIN
    x = FrameVector(1, 0, 0, p)
    t = FrameVector(0, 0, 1, p)
    assert ricci(t, t) == 2.0
    assert ricci(x, x) == -2.0
    assert ricci(x, t) == 0.0


def test_cross_orientation():
    p = Point(0.5, 0.5, 0.5)
    x = FrameVector(1, 0, 0, p)
    y = FrameVector(0, 1, 0, p)
    assert cross(x, y).coeffs() == (0.0, 0.0, 1.0)


def test_lie_bracket_frame_fields():
    p = Point(0.7, -0.2, 1.1)
    assert (lie_bracket(X_FIELD, Y_FIELD, p)
            - FrameVector(0, 0, -2, p)).norm() <= 1e-9
    assert lie_bracket(X_FIELD, T_FIELD, p).norm() <= 1e-9
    assert lie_bracket(Y_FIELD, T_FIELD, p).norm() <= 1e-9


def test_base_point_mismatch_rejected():
    u = FrameVector(1, 0, 0, ORIGIN)
    v = FrameVector(0, 1, 0, Point(1, 0, 0))
    with pytest.raises(ValueError):
        dot(u, v)


def test_nonfinite_point_rejected():
    with pytest.raises(NonFiniteValue):
        Point(math.nan, 0.0, 0.0)
