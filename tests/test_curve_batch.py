"""The batched derivatives along characteristic curves and the pointwise
stability checks built on them, against their one-point views."""

import math
import random
import re
import sys

import numpy as np
import pytest

from h1geom import surfaces, verify
from h1geom.errors import NonFiniteValue, SingularPoint, StoppedAtSingular
from h1geom.numerics import FirstFailures
from h1geom.stability import (jacobi_quadratic_of_frame, jacobi_vertical_quadratic,
                              l_nh_closed, l_nh_of_frame, operator_L, tangent_derivative)
from h1geom.surfaces import (LOCUS_TOL, CatenoidChart, GraphChart, HelicoidChart,
                             ParaboloidChart, SingularLocus, VerticalPlaneChart, rotated,
                             ruled_coordinates, singular_locus, surface_frame, surface_frames)

CAT = CatenoidChart(1.0)
HEL = HelicoidChart(2.0)
CAT_RANGES = ((0.0, 2 * math.pi), (-1.4, 1.4))
HEL_RANGES = ((-1.3, 1.3), (-1.5, 1.5))

# (chart, n, seed, ranges, min_nh) of every draw of verify's stability
# suite, then of tests/test_acceptance.py
DRAWS = [(CAT, 50, 101, CAT_RANGES, 0.05), (HEL, 50, 103, HEL_RANGES, 0.2),
         (CAT, 100, 107, CAT_RANGES, 0.05), (HEL, 100, 109, HEL_RANGES, 0.2),
         (CAT, 100, 201, CAT_RANGES, 0.05), (HEL, 100, 202, HEL_RANGES, 0.2)]


def _hex(v):
    return float(v).hex()


def _point_sets(draws=DRAWS[:4]):
    return [(chart, verify._as_arrays(verify._random_regular_points(chart, n, seed, ranges,
                                                                    min_nh)))
            for chart, n, seed, ranges, min_nh in draws]


def _points(U1, U2):
    return list(zip(U1.tolist(), U2.tolist()))


def _nh_field(fr):
    return fr.Nh_norm


def _frame_at(chart, u):
    """The frame at the one chart point ``u``, singular or not: a batch of
    one point, whose entries are read at index 0."""
    return surface_frames(chart, [u[0]], [u[1]], singular_ok=True)


def _scalar_regular_points(chart, n, seed, ranges, min_nh):
    """The one-by-one loop that ``verify._random_regular_points`` replaced."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        u = (rng.uniform(*ranges[0]), rng.uniform(*ranges[1]))
        if _frame_at(chart, u).Nh_norm[0] > min_nh:
            pts.append(u)
    return pts


@pytest.mark.parametrize("draw", DRAWS, ids=[f"seed{d[2]}" for d in DRAWS])
def test_random_regular_points_are_the_scalar_loop(draw):
    assert verify._random_regular_points(*draw) == _scalar_regular_points(*draw)


def _one_point(U1, U2, i):
    return U1[i:i + 1], U2[i:i + 1]


@pytest.mark.parametrize("which", "ZS")
def test_batched_operators_are_the_one_point_calls(which):
    """Bit for bit against one-point batches; against the scalar views to
    round-off, since numpy's cosh and hypot may differ from math's in the
    last bit."""
    for chart, (U1, U2) in _point_sets(DRAWS[:2]):
        field = _nh_field
        deriv = tangent_derivative(chart, field, (U1, U2), 2, which)
        lop = operator_L(chart, field, (U1, U2))
        fr = surface_frames(chart, U1, U2)
        lnh = l_nh_of_frame(fr)
        jq = jacobi_quadratic_of_frame(fr)
        for i, u in enumerate(_points(U1, U2)):
            one = _one_point(U1, U2, i)
            assert _hex(tangent_derivative(chart, field, one, 2, which)[0]) == _hex(deriv[i])
            assert _hex(operator_L(chart, field, one)[0]) == _hex(lop[i])
            fr1 = surface_frames(chart, *one)
            assert _hex(l_nh_of_frame(fr1)[0]) == _hex(lnh[i])
            assert [_hex(c[0]) for c in jacobi_quadratic_of_frame(fr1)] == \
                [_hex(c[i]) for c in jq]

            scalar_l = operator_L(chart, field, u)
            assert abs(lop[i] - scalar_l) <= 1e-13 * max(1.0, abs(scalar_l))
            want = l_nh_closed(chart, u)
            assert abs(lnh[i] - want) <= 1e-13 * max(1.0, abs(want))
            for got, want in zip(jq, jacobi_vertical_quadratic(chart, u)):
                assert abs(got[i] - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("pos", [0, 1, 2])
def test_batched_derivative_raises_the_error_of_its_failing_point(pos):
    # (0.5, 0.1) lies on the helix s = 1/2; the other points are regular
    pts = [(3.0, 0.2), (-2.5, 0.4)]
    pts.insert(pos, (0.5, 0.1))
    with pytest.raises(SingularPoint) as one:
        tangent_derivative(HEL, _nh_field, (0.5, 0.1))
    for call in (tangent_derivative, operator_L):
        with pytest.raises(SingularPoint, match=f"^{re.escape(str(one.value))}$"):
            call(HEL, _nh_field, verify._as_arrays(pts))


def test_first_failures_keep_each_elements_first_error():
    log = FirstFailures((2, 2))
    log.raise_first()  # nothing failed
    log.record((np.array([[True, False], [False, False]]), lambda i: ValueError(f"one {i}")))
    log.record((np.array([[True, True], [False, False]]), lambda i: ValueError(f"two {i}")),
               (np.array([[True, True], [True, False]]), lambda i: KeyError(f"three {i}")))
    assert log.failed.tolist() == [[True, True], [True, False]]
    with pytest.raises(ValueError, match="^one 0$"):
        log.raise_first()
    log = FirstFailures((3,))
    log.record((np.array([False, True, True]), lambda i: ValueError(f"one {i}")))
    log.record((np.array([True, True, True]), lambda i: ValueError(f"two {i}")))
    with pytest.raises(RuntimeError, match="^two 0$"):
        log.raise_first(lambda exc: RuntimeError(str(exc)))


def test_walks_hand_on_an_error_off_the_singular_locus_unchanged():
    # F_1 x F_2 overflows at cosh(709): not StoppedAtSingular
    with pytest.raises(NonFiniteValue) as info:
        surfaces.integrate_tangent_field(CAT, (0.3, 709.0), 5.0, 8, "Z")
    assert type(info.value) is NonFiniteValue
    assert str(info.value) == "chart is not an immersion at (0.3, 709.0)"


def _scalar_singular_locus(chart, grid):
    """The point-by-point ``singular_locus`` that the batched one replaced,
    bisecting every flagged edge and keeping a point where |N_h| <
    LOCUS_TOL; an edge to a node on the locus gets no point, as that node
    is its point."""
    (a1, b1), (a2, b2) = chart.domain
    n1, n2 = grid
    xs = [a1 + (b1 - a1) * i / n1 for i in range(n1 + 1)]
    ys = [a2 + (b2 - a2) * j / n2 for j in range(n2 + 1)]

    def nh_vec(u1, u2):
        fr = _frame_at(chart, (u1, u2))
        return (fr.N[0][0], fr.N[1][0], fr.Nh_norm[0])

    vals = [[nh_vec(x, y) for y in ys] for x in xs]
    cells = []
    for i in range(n1):
        for j in range(n2):
            corners = (vals[i][j], vals[i + 1][j], vals[i][j + 1], vals[i + 1][j + 1])
            if min(c[2] for c in corners) < LOCUS_TOL:
                cells.append((i, j))

    def refine(pa, pb, ref):
        def signed(u):
            fr = _frame_at(chart, u)
            return fr.N[0][0] * ref[0] + fr.N[1][0] * ref[1]
        lo, hi = pa, pb
        flo = signed(lo)
        for _ in range(80):
            mid = (0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1]))
            fm = signed(mid)
            if flo * fm > 0.0:
                lo, flo = mid, fm
            else:
                hi = mid
            if abs(hi[0] - lo[0]) + abs(hi[1] - lo[1]) < 1e-14:
                break
        return (0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1]))

    points = []
    for i in range(n1 + 1):
        for j in range(n2 + 1):
            va = vals[i][j]
            if va[2] < LOCUS_TOL:
                points.append((xs[i], ys[j]))
                continue
            for di, dj in ((1, 0), (0, 1)):
                i2, j2 = i + di, j + dj
                if i2 > n1 or j2 > n2:
                    continue
                vb = vals[i2][j2]
                if vb[2] >= LOCUS_TOL and va[0] * vb[0] + va[1] * vb[1] < 0.0:
                    u = refine((xs[i], ys[j]), (xs[i2], ys[j2]), (va[0], va[1]))
                    if _frame_at(chart, u).Nh_norm[0] < LOCUS_TOL:
                        points.append(u)
    return SingularLocus(sorted(cells), points)


def _locus_cases():
    # t = xy + y^3/5 as a user graph (stacked scalar jets): N_h is along
    # (phi_x - y, phi_y + x) = (0, 2x + 3y^2/5), singular on x = -3y^2/10;
    # its grid edges differ in length by 20/3, so they stop at different
    # halvings.  On the coarse catenoid and the rotated helicoid N_h turns by
    # more than a right angle along theta or eps edges off the locus: those
    # bisected points are dropped
    graph = GraphChart(lambda x, y: x * y + 0.2 * y ** 3, lambda x, y: y,
                       lambda x, y: x + 0.6 * y * y, lambda x, y: 0.0, lambda x, y: 1.0,
                       lambda x, y: 1.2 * y, domain=((-1.0, 1.0), (-0.9, 1.1)))
    return {"catenoid": (CAT, (8, 8)), "coarse_catenoid": (CAT, (3, 8)),
            "graph": (graph, (3, 20)), "rotated_helicoid": (rotated(HEL, 0.3), (10, 3))}


@pytest.mark.parametrize("name", list(_locus_cases()))
def test_singular_locus_is_the_scalar_search(name):
    chart, grid = _locus_cases()[name]
    got = singular_locus(chart, grid)
    want = _scalar_singular_locus(chart, grid)
    assert got.cells == want.cells
    assert [(_hex(a), _hex(b)) for a, b in got.points] == \
        [(_hex(a), _hex(b)) for a, b in want.points]
    assert bool(got.points) == (name not in ("catenoid", "coarse_catenoid"))


def _grid_nodes(chart, n):
    (lo, hi) = chart.domain[1]
    return [lo + (hi - lo) * j / n for j in range(n + 1)]


def test_singular_locus_on_the_helicoid_is_the_roots_of_c():
    # the helices s = -+1/R on every eps node, in grid order, and no point
    # on an eps edge; the cells are the scalar search's
    for R in (0.5, 1.0, 2.0, 4.0, 3.0):
        chart = HelicoidChart(R)
        for grid in ((10, 6), (10, 3)):
            got = singular_locus(chart, grid)
            assert got.cells == _scalar_singular_locus(chart, grid).cells
            eps = _grid_nodes(chart, grid[1])
            assert [a for _, a in got.points] == eps + eps
            assert [s < 0.0 for s, _ in got.points] == [True] * len(eps) + [False] * len(eps)
            # exact where 1/R is a power of two; 1/3 to 2 ulp
            ulps = [abs(abs(s) - 1.0 / R) / math.ulp(1.0 / R) for s, _ in got.points]
            assert max(ulps) <= (2.0 if R == 3.0 else 0.0)


def test_singular_locus_on_the_paraboloid_and_the_plane_is_the_roots_of_c():
    par = ParaboloidChart()
    got = singular_locus(par, (9, 9))
    assert got.cells == _scalar_singular_locus(par, (9, 9)).cells
    assert got.points == [(0.0, y) for y in _grid_nodes(par, 9)]
    assert singular_locus(VerticalPlaneChart(), (9, 9)) == SingularLocus([], [])


def test_singular_locus_on_a_ruled_chart_roots_c_per_ruling():
    # a RuledChart is a seed whose C depends on a: each s edge takes the
    # root of its own ruling, and the eps edges are bisected and filtered
    rc = ruled_coordinates(HEL, (0.2, 0.1), 0.6, (-1.2, 1.2))
    got = singular_locus(rc, (8, 4))
    want = _scalar_singular_locus(rc, (8, 4))
    assert got.cells == want.cells
    assert [a for _, a in got.points] == [a for _, a in want.points]
    assert max(abs(s - w) for (s, _), (w, _) in zip(got.points, want.points)) <= 1e-12
    nh = surface_frames(rc, *np.array(got.points).T, singular_ok=True).Nh_norm
    assert float(nh.max()) <= 1e-12


def test_singular_locus_reports_each_crossing_once():
    # the nodes at s = 0.3 lie on the locus: each is the point of the s edge
    # that ends on it, which gets no second point of its own
    got = singular_locus(ruled_coordinates(HEL, (0.2, 0.1), 0.6, (-1.2, 1.2)), (8, 4))
    pts = np.array(got.points)
    gaps = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
    assert len(pts) == 10
    assert gaps[np.triu_indices(len(pts), 1)].min() > 1e-9


# Scalar frames and scalar RK4 velocity stages of one run of the surfaces
# and stability suites.  The one-point walks (RuledChart's curve grid and
# characteristic_ray) are scalar, derivatives along curves walk nothing,
# and everything else runs on arrays.  RuledChart walks its grid only as
# far as it is read, and reads its curve off frame heads.
SCALAR_BUDGET = {"surface_frame": 20, "_chart_velocity": 3492}


def test_scalar_frame_budget(monkeypatch):
    counts = dict.fromkeys(SCALAR_BUDGET, 0)
    for name in SCALAR_BUDGET:
        orig = getattr(surfaces, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name.startswith("h1geom") and getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    verify.run_suites(["surfaces", "stability"])
    assert counts == SCALAR_BUDGET


# float.hex of the residuals of four batched checks, as the point-by-point
# implementation computed them (lnh_closed_vs_direct reads round-off:
# tests/test_verify.py::test_exact_derivative_rows_hold_round_off)
RESIDUALS = {
    "check_discriminant": "0x1.0000000000000p-49",
    "check_lnh_sign_catenoid": "0x0.0p+0",
    "check_lnh_sign_helicoid": "0x1.0000000000000p-44",
    "check_singular_locus": "0x0.0p+0",
}


@pytest.mark.parametrize("check", list(RESIDUALS))
def test_batched_check_residuals_pinned_bitwise(check):
    assert _hex(getattr(verify, check)().residual) == RESIDUALS[check]


# float.hex of the residual rows of the checks that frame a fixed sample grid
# (or flow a fixed parameter list) in one array pass, as the point-by-point
# implementation computed them
GRID_RESIDUALS = {
    "check_frame_relations": ("0x1.0000000000000p-51",),
    "check_minimality": ("0x1.37332eec59760p-50",),
    "check_helicoid_closed_forms": ("0x1.0000000000000p-49",),
    "check_helicoid_q_closed_forms": ("0x1.1000000000000p-47", "0x1.0000000000000p-49"),
    "check_conserved": ("0x1.3000000000000p-48", "0x1.0000000000000p-50"),
}


@pytest.mark.parametrize("check", list(GRID_RESIDUALS))
def test_grid_check_residuals_pinned_bitwise(check):
    rows = getattr(verify, check)()
    rows = rows if isinstance(rows, tuple) else (rows,)
    assert tuple(_hex(r.residual) for r in rows) == GRID_RESIDUALS[check]


# float.hex of the two ends Gamma(-+n h0) of the curve grid of each of
# verify's ruled charts, and of the residuals of the two checks that walk
# curves one point at a time: test_ruled_chart_walks_the_eager_grid compares
# the grid with two integrate_tangent_field passes, which step with the same
# RK4, so only these pins see a change that moves both
RULED_GRID_ENDS = [
    [("0x1.3333333333333p-2", "0x1.3333333333338p-1"),
     ("0x1.3333333333333p-2", "-0x1.0000000000003p+0")],
    [("0x1.ba74739d8bb7bp-3", "0x1.1f09bff9a97b0p+0"),
     ("-0x1.8e7dadcd354ebp-3", "0x1.9308dd6b8c869p-2")],
    [("0x1.999999999999ap-4", "0x1.276276276275ap+0"),
     ("0x1.999999999999ap-4", "-0x1.276276276275ap+0")],
]
WALK_RESIDUALS = {
    "ruled_vertical_plane": "0x0.0p+0",
    "ruled_catenoid_implicit": "0x1.0000000000000p-48",
    "ruled_helicoid_pointset": "0x1.0000000000000p-53",
    "characteristic_ray_helicoid": "0x1.0000000000000p-28",
    "characteristic_ray_catenoid": "0x1.bb67ae8584caap-25",
}


@pytest.mark.parametrize("k", range(3))
def test_ruled_chart_grid_ends_pinned_bitwise(k):
    rc = verify._ruled_charts()[k]
    ends = [tuple(_hex(c) for c in rc._node(j)) for j in (-rc._n, rc._n)]
    assert ends == RULED_GRID_ENDS[k]


def test_walk_check_residuals_pinned_bitwise():
    results = verify.check_ruled_charts() + verify.check_characteristic_rays()
    assert {r.name: _hex(r.residual) for r in results} == WALK_RESIDUALS
