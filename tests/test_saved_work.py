"""Work that verify no longer repeats or computes unread, pinned by counts
and by bitwise equality with the work it replaced."""

import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from h1geom import core, geodesics, stability, surfaces, verify
from h1geom.core import Point
from h1geom.errors import SingularPoint, StoppedAtSingular
from h1geom.numerics import CELL_BLOCK_NODES, QuadratureSpec, gauss_nodes
from h1geom.stability import (cosine_bump, direct_variations, index_form_I, separable,
                              zero_function)
from h1geom.surfaces import CatenoidChart, ruled_coordinates
from referees import curve_walk


def _counted(monkeypatch, module, name):
    """Count the calls of ``module.name`` made through the module global (or
    the class attribute, where ``module`` is a class)."""
    calls = [0]
    orig = getattr(module, name)

    def spy(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_curvature_check_evaluates_each_covariant_field_once_per_point(monkeypatch):
    # nine fields D_{E_i} E_k, each evaluated at p once and, for each of the
    # four times the check reads its gradients, at one Taylor point per axis
    nested = _counted(monkeypatch, core, "covariant_derivative")
    result = verify.check_curvature_from_connection()
    assert nested[0] == 9 * (1 + 4 * 3)
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


def _digest(values) -> str:
    """The first 32 hex digits of the sha256 of ``values`` as float64 bytes."""
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()[:32]


def test_ruled_chart_curve_keeps_its_bits():
    # Gamma, Gamma' = S and e of the three ruled charts of check_ruled_charts,
    # as the curve read off a full base surface_frame computed them
    values = [x for rc in verify._ruled_charts() for a in (-0.4, -0.0, 0.0, 0.3, 0.55)
              for x in rc._curve(a)]
    assert _digest(values) == "e9be70ff89c3ce7f8f1eb9fc50dfeb03"


def _bump():
    return separable(cosine_bump(1.5, 0.7), cosine_bump(0.3, 0.5))


def test_direct_variations_compute_no_shape_terms(monkeypatch):
    shape = _counted(monkeypatch, surfaces, "_shape_terms")
    frames = _counted(monkeypatch, stability, "surface_frames")
    direct_variations(CatenoidChart(1.0), _bump(), zero_function(), QuadratureSpec(16, (4, 4)))
    assert frames[0] == 1  # the 16 cells are one block
    assert shape[0] == 0


def test_index_form_computes_no_shape_terms(monkeypatch):
    # the index form is A'' of F + e f nu_h: one frame per block, and no q
    chart, u, quad = CatenoidChart(1.0), _bump(), QuadratureSpec(16, (8, 4))
    shape = _counted(monkeypatch, surfaces, "_shape_terms")
    frames = _counted(monkeypatch, stability, "surface_frames")
    index_form_I(chart, u, u, quad)
    cells = len(gauss_nodes(u.support, quad)[0])  # the bumps have no kinks
    blocks = math.ceil(cells / (CELL_BLOCK_NODES // 16 ** 2))
    assert blocks > 1
    assert (frames[0], shape[0]) == (blocks, 0)


@pytest.mark.parametrize("k", range(3))
def test_ruled_chart_walks_the_eager_grid(k):
    rc = verify._ruled_charts()[k]
    n = rc._n
    eager = curve_walk(rc.base, rc.u0, rc.eps_range, n, "S")
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


def test_direct_variations_flow_no_geodesics(monkeypatch):
    # verify's second-variation case took 16 ladders and 64 f, g, h when the
    # witness moved a stencil along geodesics; the closed form takes none
    calls = _counted(monkeypatch, geodesics, "helpers_fgh")
    ladders = _counted(monkeypatch, geodesics, "exp_euclidean")
    direct_variations(CatenoidChart(1.0), _bump(), zero_function(), QuadratureSpec(16, (4, 4)))
    assert not hasattr(stability, "exp_euclidean")
    assert ladders[0] == calls[0] == 0


def test_direct_variations_frame_each_node_once(monkeypatch):
    # one framing per block of integrate_cells, in the order of gauss_nodes
    chart, v, quad = CatenoidChart(1.0), _bump(), QuadratureSpec(16, (8, 4))
    framed = []
    frames = stability.surface_frames

    def spy(chart, U1, U2):
        framed.append((U1.copy(), U2.copy()))
        return frames(chart, U1, U2)

    monkeypatch.setattr(stability, "surface_frames", spy)
    direct_variations(chart, v, zero_function(), quad)
    U1, U2, _ = gauss_nodes(v.support, quad)
    assert len(framed) == math.ceil(len(U1) / (CELL_BLOCK_NODES // 16 ** 2)) > 1
    assert np.array_equal(np.concatenate([u1 for u1, _ in framed]), U1.ravel())
    assert np.array_equal(np.concatenate([u2 for _, u2 in framed]), U2.ravel())


def test_ruled_chart_check_builds_few_points(monkeypatch):
    # the curve walks and the curve reads frame their base charts from plain
    # tuples: the points left are the public ones (point), 3,122 before
    built = [0]
    orig = core.Point.__post_init__

    def spy(self):
        built[0] += 1
        orig(self)

    monkeypatch.setattr(core.Point, "__post_init__", spy)
    results = verify.check_ruled_charts()
    assert all(r.passed for r in results)
    assert built[0] < 50


def test_ruled_chart_jets_seed_each_distinct_a_once(monkeypatch):
    # 1,024 nodes on 32 distinct a; a seed walks to its point of the curve
    # once and reads its derivatives there (0x1.b87dc7f34e667p-1 with the
    # stencil's, 2.9e-13 away)
    rc = verify._ruled_charts()[1]
    walked = _counted(monkeypatch, surfaces.RuledChart, "curve_chart_point")
    u = separable(cosine_bump(0, 1), cosine_bump(0, 0.5))
    got = index_form_I(rc, u, u, QuadratureSpec(8, (4, 4)))
    assert got.hex() == "0x1.b87dc7f34dda3p-1"
    assert walked[0] == 32


def test_ruled_chart_check_frames_each_curve_point_once(monkeypatch):
    # 34 point reads at 10 distinct a: one base frame head and one walk to
    # the curve per a (34 of each before), and none for a repeated read
    heads = _counted(monkeypatch, surfaces, "_frame_head")
    velocities = _counted(monkeypatch, surfaces, "_chart_velocity")
    walked = _counted(monkeypatch, surfaces.RuledChart, "curve_chart_point")
    reads = _counted(monkeypatch, surfaces.RuledChart, "point")
    charts = verify._ruled_charts()
    monkeypatch.setattr(verify, "_ruled_charts", lambda: charts)
    assert all(r.passed for r in verify.check_ruled_charts())
    assert (reads[0], heads[0] - velocities[0], walked[0]) == (34, 10, 10)
    before = (heads[0], velocities[0], walked[0])
    charts[2].point(0.2, 0.4)  # the check read a = 0.4 on the helicoid
    assert (heads[0], velocities[0], walked[0]) == before


class _Walled(CatenoidChart):
    """The catenoid lam = 1, with a wall of singular points at u2 > 1.05."""

    def _jet_parts(self, u1, u2, m):
        if u2 > 1.05:
            raise SingularPoint(f"wall at {(u1, u2)!r}")
        return super()._jet_parts(u1, u2, m)


def test_ruled_chart_jets_keep_the_first_failure_of_the_walk():
    # the S-curve from u0 meets the wall near a = -0.6: point 5 is the first
    # whose seed walks that far, and the jets stop there, as scalar jets do
    def chart():
        base = _Walled(1.0)
        return ruled_coordinates(base, base.locate(Point(math.sqrt(2.0), 0.0, 1.0)), 1.0,
                                 (-0.5, 0.5))

    S = [0.1, -0.1, 0.0, 0.2, 0.1, 0.0, 0.3, 0.1, 0.0, 0.2]
    A = [-0.1, 0.2, -0.1, -0.3, -0.5, -0.7, -0.2, -0.9, -0.5, 0.9]
    rc, one = chart(), chart()
    jets = rc.jets(S, A)
    for i in range(5):
        want = one.jet(S[i], A[i])
        for got, w in zip((jets.p, jets.f1, jets.f2, jets.f11, jets.f12, jets.f22),
                          (want.p, want.f1, want.f2, want.f11, want.f12, want.f22)):
            assert [float(c[i]).hex() for c in got] == [float(c).hex() for c in w]
    with pytest.raises(StoppedAtSingular) as exc:
        one.jet(S[5], A[5])
    assert all(math.isnan(c) for c in jets.p[0][5:])
    assert [len(w) for w in rc._walks.values()] == [len(w) for w in one._walks.values()]
    with pytest.raises(StoppedAtSingular) as frames:
        surfaces.surface_frames(rc, S, A)
    assert str(frames.value) == str(exc.value)
    with pytest.raises(StoppedAtSingular):
        one._curve(A[7])
    assert A[7] not in one._curves  # a read that raises keeps nothing


def test_ruled_chart_walk_raises_its_stop_again_and_walks_on_elsewhere():
    # a read past the wall raises the stop of the walk, and so does the next
    # one, from the nodes the first kept; the other side walks on unharmed
    base = _Walled(1.0)
    rc = ruled_coordinates(base, base.locate(Point(math.sqrt(2.0), 0.0, 1.0)), 1.0, (-0.5, 0.5))
    errors, lengths = [], []
    for _ in range(2):
        with pytest.raises(StoppedAtSingular) as exc:
            rc._node(-rc._n)
        errors.append(str(exc.value))
        lengths.append([len(w) for w in rc._walks.values()])
    assert errors[0] == errors[1]
    assert lengths[0] == lengths[1] and 1 < lengths[0][1] <= rc._n
    eager = curve_walk(CatenoidChart(1.0), rc.u0, rc.eps_range, rc._n, "S")
    for j in (rc._n // 2, rc._n):
        assert [c.hex() for c in rc._node(j)] == [c.hex() for c in eager[j + rc._n]], j


def test_ruled_chart_jets_seed_once_per_a_with_the_bits_of_scalar_jets(monkeypatch):
    # a shuffled batch that holds every a many times, 0.0 and -0.0 among
    # them: one scalar seed per distinct a, and each node's jet is its scalar jet
    rc, one = verify._ruled_charts()[1], verify._ruled_charts()[1]
    seeds, orig = [], surfaces.RuledChart._seed

    def spy(self, a, m):
        seeds.append(m)
        return orig(self, a, m)

    monkeypatch.setattr(surfaces.RuledChart, "_seed", spy)
    nodes = [(s, a) for a in (-0.4, 0.0, -0.0, 0.25) for s in (-2.0, 0.0, 0.5, 1.5)]
    random.Random(3).shuffle(nodes)
    S, A = (np.array(c).reshape(4, 4) for c in zip(*nodes))
    jets = rc.jets(S, A)
    assert seeds.count(math) == 3
    for (s, a), i in zip(nodes, np.ndindex(4, 4)):
        want = one.jet(s, a)
        for got, w in zip((jets.p, jets.f1, jets.f2, jets.f11, jets.f12, jets.f22),
                          (want.p, want.f1, want.f2, want.f11, want.f12, want.f22)):
            assert [float(c[i]).hex() for c in got] == [float(c).hex() for c in w], (s, a)


def test_weighted_identity_frames_each_node_once(monkeypatch):
    # one block of 4,096 nodes per profile, framed once for both sides
    shape = _counted(monkeypatch, surfaces, "_shape_terms")
    heads = _counted(monkeypatch, surfaces, "_frame_heads")
    assert verify.check_indexform3().passed
    assert (shape[0], heads[0]) == (5, 5)


def test_weighted_identity_evaluates_each_profile_once_per_node(monkeypatch):
    # one jet of f per block for both sides: two profiles for each of the
    # five functions (20 when the left side took its own jet of f |N_h|)
    values = _counted(monkeypatch, stability.Profile, "values")
    assert verify.check_indexform3().passed
    assert values[0] == 10


def test_weighted_identity_left_side_is_the_index_form(monkeypatch):
    # the left side integrated beside the right one is index_form_I bit for bit
    sides = []
    orig = verify.integrate_cells

    def spy(*args, **kwargs):
        sides.append(orig(*args, **kwargs))
        return sides[-1]

    monkeypatch.setattr(verify, "integrate_cells", spy)
    verify.check_indexform3()
    cat, quad = CatenoidChart(1.0), QuadratureSpec(16, (4, 4))
    want = []
    for f in verify._weighted_identity_profiles():
        fnh = stability.times_nh(cat, f)
        want.append(index_form_I(cat, fnh, fnh, quad).hex())
    assert [lhs.hex() for lhs, _ in sides] == want


def test_second_variation_check_traced_peak():
    # the index form and the direct form each drop their 4,096-node frames
    # before variation_samples forms the cubic's coefficients and integrands
    # (1.56 MB; 1.88 MB when the index form kept its frames and shape terms)
    tracemalloc.start()
    try:
        results = verify.check_second_variation()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak <= 2.0e6


class _Recorded(surfaces.Chart):
    """A chart that keeps the arrays its ``_jet_parts`` returns."""

    def _jet_parts(self, u1, u2, m):
        self.parts = ((u1, u2, u1 * u2), (1.0, 0, u2), (0.0, 1.0, u1),
                      (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
        return self.parts


def test_chart_jets_pass_arrays_through_and_broadcast_constants():
    chart = _Recorded()
    U1, U2 = np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([[0.5, 0.6], [0.7, 0.8]])
    jets = chart.jets(U1, U2)
    got = (jets.p, jets.f1, jets.f2, jets.f11, jets.f12, jets.f22)
    for entry, parts in zip(got, chart.parts):
        for c, part in zip(entry, parts):
            if isinstance(part, np.ndarray):
                assert c is part
            else:
                assert c.shape == U1.shape and c.dtype == np.float64
                assert c.base is None and c.flags.c_contiguous  # its own array
                assert (c == part).all()
    assert jets.p[0] is U1 and jets.p[1] is U2
    # at one point numpy returns scalars, which are broadcast like constants
    one = CatenoidChart(1.0).jets(0.3, 0.5)
    for entry in (one.p, one.f1, one.f2, one.f11, one.f12, one.f22):
        assert all(type(c) is np.ndarray and c.shape == () for c in entry)
