"""Work that verify no longer repeats or computes unread, pinned by counts
and by bitwise equality with the work it replaced."""

import math
import random

import pytest

from h1geom import core, stability, surfaces, verify
from h1geom.core import Point
from h1geom.numerics import CELL_BLOCK_NODES, QuadratureSpec, gauss_nodes
from h1geom.stability import (cosine_bump, direct_variations, index_form_I, separable,
                              zero_function)
from h1geom.surfaces import CatenoidChart, curve_samples


def _counted(monkeypatch, module, name):
    """Count the calls of ``module.name`` made through the module global."""
    calls = [0]
    orig = getattr(module, name)

    def spy(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_curvature_check_evaluates_each_covariant_field_once_per_point(monkeypatch):
    # nine fields D_{E_i} E_k, each differenced at p: 12 stencil nodes and p itself
    nested = _counted(monkeypatch, core, "covariant_derivative")
    result = verify.check_curvature_from_connection()
    assert nested[0] == 9 * 13
    assert result.passed


def test_covariant_field_shares_one_evaluation_per_point(monkeypatch):
    field = core.covariant_field(core.X_FIELD, core.T_FIELD)
    calls = _counted(monkeypatch, core, "covariant_derivative")
    p = Point(0.5, -0.8, 0.2)
    want = core.covariant_derivative(core.X_FIELD, core.T_FIELD, p).coeffs()
    calls[0] = 0
    assert field.at(p).coeffs() == want
    assert field.at(Point(0.5, -0.8, 0.2)).coeffs() == want
    assert calls[0] == 1


def _bump():
    return separable(cosine_bump(1.5, 0.7), cosine_bump(0.3, 0.5))


def test_direct_variations_compute_no_shape_terms(monkeypatch):
    shape = _counted(monkeypatch, surfaces, "_shape_terms")
    frames = _counted(monkeypatch, stability, "surface_frames")
    direct_variations(CatenoidChart(1.0), _bump(), zero_function(), QuadratureSpec(16, (4, 4)))
    assert frames[0] == 16  # one framed stencil per cell
    assert shape[0] == 0


def test_index_form_computes_shape_terms_once_per_block(monkeypatch):
    chart, u, quad = CatenoidChart(1.0), _bump(), QuadratureSpec(16, (8, 4))
    shape = _counted(monkeypatch, surfaces, "_shape_terms")
    frames = _counted(monkeypatch, stability, "surface_frames")
    index_form_I(chart, u, u, quad)
    cells = len(gauss_nodes(u.support, quad)[0])  # the bumps have no kinks
    blocks = math.ceil(cells / (CELL_BLOCK_NODES // 16 ** 2))
    assert blocks > 1
    assert frames[0] == shape[0] == blocks


@pytest.mark.parametrize("k", range(3))
def test_ruled_chart_walks_the_eager_grid(k):
    rc = verify._ruled_charts()[k]
    n = rc._n
    eager = curve_samples(rc.base, rc.u0, rc.eps_range, n, "S")
    order = list(range(-n, n + 1))
    random.Random(k).shuffle(order)  # any read order walks the same steps
    got = {j: rc._node(j) for j in order}
    for j in range(-n, n + 1):
        assert [c.hex() for c in got[j]] == [c.hex() for c in eager[j + n]], j


def test_ruled_chart_walks_only_as_far_as_read():
    rc = verify._ruled_charts()[2]
    assert [len(w) for w in rc._walks.values()] == [1, 1]
    rc.curve_chart_point(3.25 * rc._h0)  # node 3, then a step of 0.25 h0
    assert [len(w) for w in rc._walks.values()] == [4, 1]
    rc.point(0.3, -2.0 * rc._h0)
    assert [len(w) for w in rc._walks.values()] == [4, 3]
