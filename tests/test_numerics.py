import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from h1geom import numerics
from h1geom.errors import NonFiniteValue
from h1geom._gauss import NODES_WEIGHTS
from h1geom.numerics import (QuadratureSpec, Taylor, _composite_1d, gauss_legendre_1d, gauss_nodes,
                             gauss_nodes_1d, integrate_2d, integrate_array_1d,
                             integrate_cells, kahan_sum, richardson, split_cells, taylor,
                             taylor_derivatives)
from referees import central_diff


def test_polynomial_exactness_basic():
    spec = QuadratureSpec(16, (4, 4))
    assert abs(gauss_legendre_1d(lambda x: x * x, 0.0, 1.0, spec) - 1.0 / 3.0) <= 1e-14


def test_sin_over_period():
    spec = QuadratureSpec(16, (8, 8))
    assert abs(gauss_legendre_1d(math.sin, 0.0, 2.0 * math.pi, spec)) <= 1e-12


@given(st.integers(min_value=0, max_value=7), st.sampled_from([4, 8, 16, 32]))
@settings(deadline=None, max_examples=40)
def test_gauss_exactness_degree(n_deg, pts):
    # a single cell integrates degree <= 2n-1 exactly
    spec = QuadratureSpec(pts, (1, 1))
    val = gauss_legendre_1d(lambda x: (n_deg + 1) * x ** n_deg, 0.0, 1.0, spec)
    assert abs(val - 1.0) <= 1e-13


def test_ramp_integrand_antiderivative():
    # integral of (16 s^4 + 8 s^2 + 1)/(4 s^2 - 1) over [1, 4]
    def F(s):
        return 4 * s ** 3 / 3 + 3 * s + math.log((2 * s - 1) / (2 * s + 1))

    spec = QuadratureSpec(16, (64, 1))
    val = gauss_legendre_1d(lambda s: (16 * s ** 4 + 8 * s ** 2 + 1) / (4 * s * s - 1),
                            1.0, 4.0, spec)
    assert abs(val - (F(4.0) - F(1.0))) <= 1e-10


def test_integrate_2d_constant_and_doubling():
    spec = QuadratureSpec(16, (4, 4))
    assert abs(integrate_2d(lambda a, b: 1.0, ((0, 1), (0, 1)), spec) - 1.0) <= 1e-14

    def helicoid_density(e, s):
        return abs(0.5 - 2.0 * s * s)

    rect = ((0.0, 1.0), (0.0, 0.4))
    v1 = integrate_2d(lambda e, s: helicoid_density(e, s), rect, spec)
    v2 = integrate_2d(lambda e, s: helicoid_density(e, s), rect, spec.doubled())
    closed = 0.4 / 2 - 2 * 0.4 ** 3 / 3
    assert abs(v1 - closed) <= 1e-14
    assert abs(v1 - v2) <= 1e-10 * abs(v1)


def test_reproducibility_bitwise():
    spec = QuadratureSpec(16, (8, 8))
    f = lambda a, b: math.sin(3 * a) * math.exp(-b) + a * b
    v1 = integrate_2d(f, ((0, 2), (0, 1)), spec)
    v2 = integrate_2d(f, ((0, 2), (0, 1)), spec)
    assert v1 == v2


def test_gauss_nodes_1d_layout():
    a, b, p, n = -0.3, 1.7, 8, 5
    x, w = gauss_nodes_1d(a, b, p, n)
    assert x.shape == w.shape == (n, p)
    nodes, weights = NODES_WEIGHTS[p]
    h = (b - a) / n
    for c in range(n):
        assert x[c].tolist() == [a + (c + 0.5) * h + 0.5 * h * xj for xj in nodes]
        assert w[c].tolist() == [0.5 * h * wj for wj in weights]
        assert a + c * h < x[c, 0] and x[c, -1] < a + (c + 1) * h
    assert np.all(np.diff(x.ravel()) > 0)
    assert abs(w.sum() - (b - a)) <= 1e-14


def test_composite_1d_samples_the_shared_nodes():
    x, w = gauss_nodes_1d(0.2, 2.5, 4, 3)
    seen = []
    val = _composite_1d(lambda t: seen.append(t) or math.cos(t), 0.2, 2.5, 4, 3)
    assert seen == x.ravel().tolist()
    assert val == kahan_sum([wi * math.cos(t) for t, wi in zip(seen, w.ravel().tolist())])

    # the 2-D rule places its nodes by the same generator on each axis
    rect, spec = ((0.2, 2.5), (-1.0, 0.5)), QuadratureSpec(4, (3, 2))
    U1, U2, _ = gauss_nodes(rect, spec)
    x2 = gauss_nodes_1d(-1.0, 0.5, 4, 2)[0]
    for c1 in range(3):
        for c2 in range(2):
            cell1 = U1[c1 * 2 + c2].reshape(4, 4)
            cell2 = U2[c1 * 2 + c2].reshape(4, 4)
            for j in range(4):
                assert cell1[:, j].tolist() == x[c1].tolist()
                assert cell2[j, :].tolist() == x2[c2].tolist()


def _old_pieces(cuts, cells):
    # the cell split that the index form, the profile integrals and q_form
    # each wrote inline before split_cells, verbatim as the profile integral
    # had it; the composite rules of numerics now cut with split_cells
    out = []
    span = cuts[-1] - cuts[0]
    for i in range(len(cuts) - 1):
        n = max(1, round(cells * (cuts[i + 1] - cuts[i]) / span))
        out.append((cuts[i], cuts[i + 1], n))
    return out


def test_split_cells_matches_inline_split():
    rng = random.Random(7)
    cases = [[0.0, 0.5, 1.0], [0.0, 0.25, 0.75, 1.0], [-1.0, -0.999, 0.3, 2.0]]
    for _ in range(200):
        lo = rng.uniform(-3.0, 3.0)
        cases.append(sorted({lo, *(lo + rng.uniform(0.0, 5.0) ** 3
                                   for _ in range(rng.randint(1, 6)))}))
    for cuts in cases:
        for cells in (1, 2, 3, 8, 16, 17, 64):
            got = split_cells(cuts, cells)
            assert got == _old_pieces(cuts, cells)
            assert all(n >= 1 for _, _, n in got)
    # round half to even, and the one-cell floor
    assert [n for *_, n in split_cells([0.0, 0.5, 1.0], 1)] == [1, 1]
    assert [n for *_, n in split_cells([0.0, 1.25, 2.0], 4)] == [2, 2]


# (interval, interior cuts in any order, cells): pieces of unequal length,
# a narrow piece that gets its one-cell floor, and a cut list with repeats
_CUT_CASES = [((-1.0, 2.0), (0.5,), 8),
              ((0.0, 1.0), (0.7, 0.1, 0.25), 5),
              ((-3.0, 3.0), (1e-3, -1e-3, 2.5), 16),
              ((0.2, 0.9), (0.3, 0.3, 0.8), 1)]


def _pieces(a, b, cuts, cells):
    return split_cells(sorted({a, b, *cuts}), cells)


def _bits(*arrays):
    return [np.ascontiguousarray(x).tobytes() for x in arrays]


@pytest.mark.parametrize("points", [4, 16])
@pytest.mark.parametrize("ab, cuts, cells", _CUT_CASES)
def test_gauss_nodes_1d_cut_is_its_pieces_in_order(ab, cuts, cells, points):
    x, w = gauss_nodes_1d(*ab, points, cells, cuts)
    pieces = [gauss_nodes_1d(lo, hi, points, n) for lo, hi, n in _pieces(*ab, cuts, cells)]
    assert _bits(x, w) == _bits(np.concatenate([px for px, _ in pieces]),
                                np.concatenate([pw for _, pw in pieces]))


def _piece_rows(rect, spec, cuts):
    # rows of the cut 2-D rule, built from the uncut rule of each piece pair
    # and put in the row-major cell order of the whole rule
    p = spec.points_per_cell
    axes = [_pieces(*rect[i], cuts[i], spec.cells[i]) for i in (0, 1)]
    cells = [[(j, k) for j, (_, _, n) in enumerate(ax) for k in range(n)] for ax in axes]
    rules = {(j1, j2): gauss_nodes(((lo1, hi1), (lo2, hi2)), QuadratureSpec(p, (n1, n2)))
             for j1, (lo1, hi1, n1) in enumerate(axes[0])
             for j2, (lo2, hi2, n2) in enumerate(axes[1])}
    rows = [[rules[j1, j2][i][k1 * axes[1][j2][2] + k2]
             for (j1, k1) in cells[0] for (j2, k2) in cells[1]] for i in range(3)]
    return [np.array(r) for r in rows]


@pytest.mark.parametrize("i1, i2", [(0, 1), (1, 2), (3, 0), (2, 2)])
def test_gauss_nodes_cut_is_its_pieces_in_order(i1, i2):
    (ab1, cuts1, n1), (ab2, cuts2, n2) = _CUT_CASES[i1], _CUT_CASES[i2]
    rect, spec, cuts = (ab1, ab2), QuadratureSpec(4, (n1, n2)), (cuts1, cuts2)
    assert _bits(*gauss_nodes(rect, spec, cuts)) == _bits(*_piece_rows(rect, spec, cuts))


def test_cuts_on_or_outside_the_ends_change_nothing():
    a, b = -0.75, 1.5
    for cuts in ((a,), (b, a), (-2.0, 3.0, b), (a, a, b, b, 7.0), (math.inf, -math.inf)):
        assert _bits(*gauss_nodes_1d(a, b, 8, 6, cuts)) == _bits(*gauss_nodes_1d(a, b, 8, 6))
        rect, spec = ((a, b), (0.0, 2.0)), QuadratureSpec(4, (3, 5))
        assert (_bits(*gauss_nodes(rect, spec, (cuts, (0.0, 0.0, 2.0))))
                == _bits(*gauss_nodes(rect, spec)))
    # a cut given twice counts once
    assert (_bits(*gauss_nodes_1d(a, b, 8, 6, (0.25, 0.25, -0.5)))
            == _bits(*gauss_nodes_1d(a, b, 8, 6, (-0.5, 0.25))))


def _wiggle(a, b=0.0):
    return np.exp(-a) * np.cos(3.0 * a + b) + np.abs(a - 0.3) * b


@pytest.mark.parametrize("ab, cuts, cells", _CUT_CASES)
def test_cut_integrals_are_one_exact_sum_of_the_piece_terms(ab, cuts, cells):
    terms = []
    for lo, hi, n in _pieces(*ab, cuts, cells):
        x, w = gauss_nodes_1d(lo, hi, 16, n)
        terms.extend((w.ravel() * _wiggle(x.ravel())).tolist())
    assert integrate_array_1d(_wiggle, *ab, 16, cells, cuts) == math.fsum(terms)

    rect, cuts2 = (ab, (-1.0, 1.0)), (cuts, (0.3, -0.2))
    spec = QuadratureSpec(8, (cells, 4))
    terms = []
    for lo1, hi1, m1 in _pieces(*ab, cuts, cells):
        for lo2, hi2, m2 in _pieces(-1.0, 1.0, cuts2[1], 4):
            U1, U2, W = gauss_nodes(((lo1, hi1), (lo2, hi2)), QuadratureSpec(8, (m1, m2)))
            terms.extend((W.ravel() * _wiggle(U1.ravel(), U2.ravel())).tolist())
    assert integrate_cells(_wiggle, rect, spec, cuts2) == math.fsum(terms)


def test_cut_rule_raises_at_its_first_cell_in_row_major_order():
    # cells of 0.5 x 0.5, two per piece on each axis: cell (1, 0) of piece
    # (0, 0) comes before cell (0, 2) of piece (0, 1) piece by piece, after
    # it in the row-major order of the one rule, which decides
    rect, spec, cuts = ((0.0, 2.0), (0.0, 2.0)), QuadratureSpec(4, (4, 4)), ((1.0,), (1.0,))

    def f(a, b):
        return np.where((0.5 < a) & (a < 1.0) & (b < 0.5), math.nan,
                        np.where((a < 0.5) & (1.0 < b) & (b < 1.5), -math.inf, 1.0))

    for call in (lambda: integrate_cells(f, rect, spec, cuts),
                 lambda: _cell_by_cell(f, rect, spec, cuts)):
        with pytest.raises(NonFiniteValue, match="integrate_2d: -inf"):
            call()


def test_nonfinite_rejected():
    spec = QuadratureSpec(4, (1, 1))
    with pytest.raises(NonFiniteValue):
        gauss_legendre_1d(lambda x: math.nan if x > 0.5 else 1.0, 0.0, 1.0, spec)
    with pytest.raises(NonFiniteValue):
        integrate_2d(lambda a, b: math.inf if a + b > 1.0 else 0.0,
                     ((0, 1), (0, 1)), spec)


def test_integrate_2d_weighted_term_overflow_raises():
    # a finite scalar sample whose weighted term overflows is rejected, as
    # by integrate_cells, instead of summing to inf
    spec = QuadratureSpec(4, (1, 1))
    with pytest.raises(NonFiniteValue,
                       match="non-finite sample in integrate_2d weighted terms"):
        integrate_2d(lambda a, b: 1e300, ((0.0, 1e300), (0.0, 1.0)), spec)


def test_integrate_cells_overflow_raises_without_warning():
    # a finite sample times a finite weight may overflow; an overflowing or
    # invalid integrand is caught by the same check, with no numpy warning
    spec = QuadratureSpec(4, (1, 1))
    rect = ((0.0, 1e300), (0.0, 1.0))
    cases = [(lambda a, b: np.full_like(a, 1e300), "weighted terms"),
             (lambda a, b: a * 1e300 - a * 1e300, "integrate_2d: nan")]
    for f, msg in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=msg):
                integrate_cells(f, rect, spec)


def test_integrate_array_1d_checks_as_integrate_cells_does():
    # the 1-D rule evaluates f with no numpy warning and checks the weighted
    # terms too: a finite sample whose term overflows raises, not inf
    cases = [(lambda x: np.full_like(x, 1e300), "gauss_legendre_1d weighted terms: inf"),
             (lambda x: x * 1e300 - x * 1e300, "gauss_legendre_1d: nan")]
    for f, msg in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=msg):
                integrate_array_1d(f, 0.0, 1e10, 4, 1)


@pytest.mark.parametrize("points, cells", [(16, (5, 7)), (32, (3, 3)), (4, (20, 20)),
                                            (8, (1, 1))])
def test_integrate_cells_block_contract(points, cells):
    # whole cells per call, at most CELL_BLOCK_NODES nodes, in gauss_nodes order
    spec = QuadratureSpec(points, cells)
    rect = ((-0.5, 1.0), (0.25, 2.0))
    seen = []

    def f(a, b):
        seen.append((a.copy(), b.copy()))
        return np.cos(a) * b
    got = integrate_cells(f, rect, spec)
    per_cell = points * points
    n_cells = cells[0] * cells[1]
    per_block = numerics.CELL_BLOCK_NODES // per_cell
    assert len(seen) == -(-n_cells // per_block)
    for a, b in seen:
        assert a.ndim == b.ndim == 1 and len(a) == len(b)
        assert len(a) % per_cell == 0 and 0 < len(a) <= numerics.CELL_BLOCK_NODES
    U1, U2, _ = gauss_nodes(rect, spec)
    assert np.array_equal(np.concatenate([a for a, _ in seen]), U1.ravel())
    assert np.array_equal(np.concatenate([b for _, b in seen]), U2.ravel())
    assert got == integrate_2d(lambda a, b: math.cos(a) * b, rect, spec)


def _cell_by_cell(f, rect, spec, cuts=((), ())):
    # integrate_cells as a loop over single cells, checking each cell's
    # samples before its weighted terms; for a tuple integrand, checking
    # at each cell every entry in turn
    U1, U2, W = gauss_nodes(rect, spec, cuts)
    terms = {}
    for u1, u2, w in zip(U1, U2, W):
        with np.errstate(over="ignore", invalid="ignore"):
            v = f(u1, u2)
        for k, vk in enumerate(v if isinstance(v, tuple) else (v,)):
            with np.errstate(over="ignore", invalid="ignore"):
                wv = w * vk
            for arr, where in ((vk, "integrate_2d"), (wv, "integrate_2d weighted terms")):
                bad = ~np.isfinite(arr)
                if bad.any():
                    raise NonFiniteValue(f"non-finite sample in {where}: {float(arr[bad][0])!r}")
            terms.setdefault(k, []).extend(wv.tolist())
    sums = tuple(kahan_sum(t) for t in terms.values())
    return sums if isinstance(v, tuple) else sums[0]


def _planted(bad):
    # cell c of QuadratureSpec(4, (1, 8)) on _TALL holds the nodes with
    # floor(u2) = c; ``bad`` maps (cell, node) to the sample planted there
    def f(a, b):
        v = np.ones_like(a)
        for (cell, node), value in bad.items():
            where = np.flatnonzero(np.floor(b) == cell)
            if where.size:
                v[where[node]] = value
        return v
    return f


# weights near 1e299: a sample of 1e300 overflows as a weighted term
_TALL = ((0.0, 1e300), (0.0, 8.0))
_SPEC_TALL = QuadratureSpec(4, (1, 8))


@pytest.mark.parametrize("block", [16, 64, 4096])
def test_integrate_cells_error_order(monkeypatch, block):
    # the first bad cell in row-major order decides, as in a cell-by-cell
    # loop: its first non-finite sample, else its first overflowing term
    monkeypatch.setattr(numerics, "CELL_BLOCK_NODES", block)
    cases = [({(1, 0): 1e300, (3, 5): math.nan}, "weighted terms: inf"),
             ({(5, 2): math.nan}, "integrate_2d: nan"),
             ({(5, 2): -math.inf, (6, 0): math.nan}, "integrate_2d: -inf"),
             ({(2, 1): 1e300, (2, 9): math.nan}, "integrate_2d: nan"),
             ({(4, 7): -1e300, (7, 0): math.nan}, "weighted terms: -inf"),
             # the first node of the first cell, and the last of the last
             ({(0, 0): math.nan, (7, 15): math.inf}, "integrate_2d: nan"),
             ({(0, 0): 1e300, (0, 15): -math.inf}, "integrate_2d: -inf"),
             ({(7, 15): math.inf}, "integrate_2d: inf"),
             ({(7, 15): -1e300}, "weighted terms: -inf")]
    for bad, msg in cases:
        f = _planted(bad)
        with pytest.raises(NonFiniteValue) as want:
            _cell_by_cell(f, _TALL, _SPEC_TALL)
        assert msg in str(want.value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as got:
                integrate_cells(f, _TALL, _SPEC_TALL)
        assert str(got.value) == str(want.value), bad


_ENTRIES = (lambda a, b: np.cos(a) * b, lambda a, b: a * a - np.exp(-b),
            lambda a, b: np.sin(3.0 * a + b))


@pytest.mark.parametrize("block", [16, 64, 4096])
@pytest.mark.parametrize("rect, spec, cuts", [
    (((-0.5, 1.0), (0.25, 2.0)), QuadratureSpec(4, (5, 7)), ((0.1, 0.7), (1.3,))),  # cut cells
    (((0.0, 2.0), (-1.0, 1.0)), QuadratureSpec(16, (3, 2)), ((), ())),
    (((0.0, 0.0), (-1.0, 1.0)), QuadratureSpec(8, (2, 2)), ((), ())),  # an empty rule
])
def test_tuple_integrand_is_its_entries_one_by_one(monkeypatch, block, rect, spec, cuts):
    # each sum of a tuple integrand is, bit for bit, its entry integrated alone
    monkeypatch.setattr(numerics, "CELL_BLOCK_NODES", block)
    for entries in (_ENTRIES, _ENTRIES[1:2]):
        calls = []

        def f(a, b):
            calls.append(len(a))
            return tuple(e(a, b) for e in entries)

        got = integrate_cells(f, rect, spec, cuts)
        want = tuple(integrate_cells(e, rect, spec, cuts) for e in entries)
        assert isinstance(got, tuple)
        assert [g.hex() for g in got] == [w.hex() for w in want]
        n_cells = len(gauss_nodes(rect, spec, cuts)[0])
        per_block = max(1, block // spec.points_per_cell ** 2)
        assert len(calls) == max(1, -(-n_cells // per_block))
    if rect[0][0] == rect[0][1]:
        assert got == (0.0,)


@pytest.mark.parametrize("block", [16, 64, 4096])
def test_tuple_integrand_raises_at_its_first_failing_cell_in_entry_order(monkeypatch, block):
    monkeypatch.setattr(numerics, "CELL_BLOCK_NODES", block)
    cases = [
        # one cell: entry 0 fails at a later node than entry 1, and comes first
        ({(2, 9): math.nan}, {(2, 0): math.inf}, "integrate_2d: nan"),
        # entry 1 fails in an earlier cell than entry 0
        ({(3, 0): math.nan}, {(1, 4): -math.inf}, "integrate_2d: -inf"),
        # entry 0's overflowing term comes before entry 1's sample in one cell
        ({(4, 7): 1e300}, {(4, 0): math.nan}, "weighted terms: inf"),
        # within entry 0, a sample comes before a term of its cell
        ({(4, 7): 1e300, (4, 9): -math.inf}, {(4, 0): math.nan}, "integrate_2d: -inf"),
        ({}, {(7, 15): -1e300}, "weighted terms: -inf"),
        ({(0, 0): math.nan}, {(0, 0): math.inf}, "integrate_2d: nan"),
    ]
    for bad0, bad1, msg in cases:
        fs = (_planted(bad0), _planted(bad1))
        both = lambda a, b: (fs[0](a, b), fs[1](a, b))
        with pytest.raises(NonFiniteValue) as want:
            _cell_by_cell(both, _TALL, _SPEC_TALL)
        assert msg in str(want.value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as got:
                integrate_cells(both, _TALL, _SPEC_TALL)
        assert str(got.value) == str(want.value), (bad0, bad1)


def test_central_diff():
    # the referees' central difference (tests/referees.py): one Richardson
    # level, componentwise on tuples; the library takes no difference
    got = central_diff(lambda x: (math.exp(x), math.sin(x), 3.0 * x + 1.0), 0.2, 1e-3)
    want = (math.exp(0.2), math.cos(0.2), 3.0)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12


def test_richardson_bitwise_matches_inline_array_stencil():
    # the per-node stencil of the deformed area: steps are arrays
    rng = np.random.default_rng(5)
    for _ in range(50):
        h = 1e-5 * np.maximum(1.0, np.abs(rng.uniform(-3, 3, 64)))
        plus, minus, plus2, minus2 = (rng.normal(size=64) for _ in range(4))
        old = (4.0 * (plus2 - minus2) / h - (plus - minus) / (2.0 * h)) / 3.0
        new = richardson([(plus - minus) / (2.0 * h), (plus2 - minus2) / (2.0 * (0.5 * h))])
        assert [v.hex() for v in new.tolist()] == [v.hex() for v in old.tolist()]
        vals = rng.normal(size=3).tolist()
        assert (richardson(vals[-2:], factor=10.0).hex()
                == ((10.0 * vals[-1] - vals[-2]) / 9.0).hex())


# ---------------------------------------------------------------------------
# Taylor numbers: every operation and elementary function against its
# closed-form first and second derivatives, on floats and on arrays
# ---------------------------------------------------------------------------

# (name, f on a Taylor number, then f, f' and f'' in closed form, each a
# function of (x, m) with m the math or numpy module of x)
_TAYLOR_CASES = [
    ("neg", lambda x: -x, lambda x, m: -x, lambda x, m: -1.0, lambda x, m: 0.0),
    ("add", lambda x: x + 2.5, lambda x, m: x + 2.5, lambda x, m: 1.0, lambda x, m: 0.0),
    ("radd", lambda x: 2.5 + x, lambda x, m: 2.5 + x, lambda x, m: 1.0, lambda x, m: 0.0),
    ("sub", lambda x: x - 2.5, lambda x, m: x - 2.5, lambda x, m: 1.0, lambda x, m: 0.0),
    ("rsub", lambda x: 2.5 - x, lambda x, m: 2.5 - x, lambda x, m: -1.0, lambda x, m: 0.0),
    ("mul", lambda x: x * 1.5, lambda x, m: x * 1.5, lambda x, m: 1.5, lambda x, m: 0.0),
    ("rmul", lambda x: 1.5 * x, lambda x, m: 1.5 * x, lambda x, m: 1.5, lambda x, m: 0.0),
    ("square", lambda x: x * x, lambda x, m: x * x, lambda x, m: 2.0 * x, lambda x, m: 2.0),
    ("self add", lambda x: x + x * x, lambda x, m: x + x * x,
     lambda x, m: 1.0 + 2.0 * x, lambda x, m: 2.0),
    ("self sub", lambda x: x - x * x, lambda x, m: x - x * x,
     lambda x, m: 1.0 - 2.0 * x, lambda x, m: -2.0),
    ("div", lambda x: x / 1.5, lambda x, m: x / 1.5, lambda x, m: 1 / 1.5, lambda x, m: 0.0),
    ("rdiv", lambda x: 1.5 / x, lambda x, m: 1.5 / x, lambda x, m: -1.5 / (x * x),
     lambda x, m: 3.0 / (x * x * x)),
    ("self div", lambda x: (x * x + 1.0) / x, lambda x, m: (x * x + 1.0) / x,
     lambda x, m: 1.0 - 1.0 / (x * x), lambda x, m: 2.0 / (x * x * x)),
    ("pow 3", lambda x: x ** 3, lambda x, m: x ** 3, lambda x, m: 3.0 * x * x,
     lambda x, m: 6.0 * x),
    ("pow -2", lambda x: x ** -2, lambda x, m: x ** -2, lambda x, m: -2.0 / (x * x * x),
     lambda x, m: 6.0 / (x * x * x * x)),
    ("pow 1", lambda x: x ** 1, lambda x, m: x ** 1, lambda x, m: 1.0, lambda x, m: 0.0),
    ("pow 0", lambda x: x ** 0, lambda x, m: x ** 0, lambda x, m: 0.0, lambda x, m: 0.0),
    ("abs", lambda x: abs(x), lambda x, m: abs(x), lambda x, m: x / abs(x), lambda x, m: 0.0),
    ("sin", taylor.sin, lambda x, m: m.sin(x), lambda x, m: m.cos(x), lambda x, m: -m.sin(x)),
    ("cos", taylor.cos, lambda x, m: m.cos(x), lambda x, m: -m.sin(x), lambda x, m: -m.cos(x)),
    ("sinh", taylor.sinh, lambda x, m: m.sinh(x), lambda x, m: m.cosh(x),
     lambda x, m: m.sinh(x)),
    ("cosh", taylor.cosh, lambda x, m: m.cosh(x), lambda x, m: m.sinh(x),
     lambda x, m: m.cosh(x)),
    ("sqrt", lambda x: taylor.sqrt(abs(x)), lambda x, m: m.sqrt(abs(x)),
     lambda x, m: 0.5 * x / abs(x) / m.sqrt(abs(x)), lambda x, m: -0.25 / abs(x) ** 1.5),
    ("hypot", lambda x: taylor.hypot(x, 0.4), lambda x, m: m.hypot(x, 0.4),
     lambda x, m: x / m.hypot(x, 0.4), lambda x, m: 0.16 / m.hypot(x, 0.4) ** 3),
    ("rhypot", lambda x: taylor.hypot(0.4, x), lambda x, m: m.hypot(0.4, x),
     lambda x, m: x / m.hypot(x, 0.4), lambda x, m: 0.16 / m.hypot(x, 0.4) ** 3),
    ("chain", lambda x: taylor.sin(x * x), lambda x, m: m.sin(x * x),
     lambda x, m: 2.0 * x * m.cos(x * x),
     lambda x, m: 2.0 * m.cos(x * x) - 4.0 * x * x * m.sin(x * x)),
    ("hypot chain", lambda x: taylor.hypot(x * x, taylor.cos(x)),
     lambda x, m: m.hypot(x * x, m.cos(x)),
     lambda x, m: (2.0 * x ** 3 - m.cos(x) * m.sin(x)) / m.hypot(x * x, m.cos(x)),
     lambda x, m: ((6.0 * x * x + m.sin(x) ** 2 - m.cos(x) ** 2) / m.hypot(x * x, m.cos(x))
                   - (2.0 * x ** 3 - m.cos(x) * m.sin(x)) ** 2
                   / m.hypot(x * x, m.cos(x)) ** 3)),
]


@pytest.mark.parametrize("x", [0.7, -1.3, np.array([0.7, -1.3, 2.2, -0.05])],
                         ids=["float", "negative float", "array"])
@pytest.mark.parametrize("case", _TAYLOR_CASES, ids=[c[0] for c in _TAYLOR_CASES])
def test_taylor_operations_match_their_closed_forms(case, x):
    _, op, *closed = case
    m = np if isinstance(x, np.ndarray) else math
    f, d1, d2 = taylor_derivatives(op(Taylor(x, 1.0)))
    want_f, want_d1, want_d2 = (np.broadcast_to(g(x, m), np.shape(x)) for g in closed)
    assert np.array_equal(f, want_f)  # the value term is the plain code's, bit for bit
    assert type(f) is type(op(x) if m is math else f)
    for got, want in ((d1, want_d1), (d2, want_d2)):
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


def test_taylor_of_taylor_operands_is_the_product_rule():
    # both operands vary: (u v)'' = u'' v + 2 u' v' + u v'', (u / v)' = (u' v - u v') / v^2
    u, v = Taylor(0.8, -0.3, 0.25), Taylor(-1.7, 0.6, 0.1)  # c2 is half the second derivative
    _, d1, d2 = taylor_derivatives(u * v)
    assert (d1, d2) == (0.8 * 0.6 - 0.3 * -1.7, 0.5 * -1.7 + 2.0 * -0.3 * 0.6 + 0.8 * 0.2)
    _, d1, d2 = taylor_derivatives(u / v)
    q1 = (-0.3 * -1.7 - 0.8 * 0.6) / 1.7 ** 2
    q2 = (0.5 - 2.0 * q1 * 0.6 - 0.8 / -1.7 * 0.2) / -1.7
    assert abs(d1 - q1) <= 1e-15 and abs(d2 - q2) <= 1e-15


def test_taylor_numbers_meet_numpy_as_taylor_numbers():
    # __array_ufunc__ = None: numpy defers to the Taylor operators, so an
    # array operand gives a Taylor number of arrays, never an object array
    t, a = Taylor(0.5, 1.0), np.array([1.0, 2.0, -3.0])
    for got in (a * t, t * a, a + t, a - t, a / t, t / a, np.float64(2.0) * t, t ** 2 * a):
        assert type(got) is Taylor
    assert np.array_equal((a * t).c0, a * 0.5) and np.array_equal((a * t).c1, a)
    with pytest.raises(TypeError):
        np.exp(t)


def test_taylor_numbers_have_no_float():
    # a float-only function raises rather than drop the derivative terms
    t = Taylor(0.5, 1.0)
    for call in (lambda: math.exp(t), lambda: float(t), lambda: math.isfinite(t),
                 lambda: 2.0 ** t, lambda: t ** 0.5):
        with pytest.raises(TypeError):
            call()


def test_taylor_comparisons_read_the_value_term():
    t = Taylor(0.5, -7.0, 3.0)
    assert t < 1.0 and t <= 0.5 and t > 0.0 and t >= 0.5 and 1.0 > t and not t > 0.5
    assert t < Taylor(0.6) and bool(t) and not bool(Taylor(0.0, 1.0))
    assert (Taylor(np.array([0.1, 2.0]), 1.0) < 1.0).tolist() == [True, False]
    assert taylor_derivatives(4.0) == (4.0, 0.0, 0.0)


def test_kahan_beats_naive_summation():
    vals = [1.0] + [1e-16] * 10
    assert sum(vals) == 1.0  # naive addition drops every increment
    assert kahan_sum(vals) == 1.0 + 1e-15


def _compensated_loop(values):
    # the fixed-order Kahan loop kahan_sum ran before it became exact
    total = carry = 0.0
    for v in values:
        y = v - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


@pytest.mark.parametrize("vals, loop", [([1.0, 1e100, 1.0, -1e100], 0.0),
                                        ([1e16, 1.0, -1e16, 1.0], 1.0)])
def test_kahan_sum_is_exactly_rounded(vals, loop):
    # a compensated loop loses the small terms that an exact sum keeps
    assert _compensated_loop(vals) == loop
    assert kahan_sum(vals) == 2.0


def test_kahan_sum_ignores_term_order():
    rng = random.Random(14)
    vals = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20) for _ in range(2000)]
    shuffled = list(vals)
    rng.shuffle(shuffled)
    exact = kahan_sum(vals)
    assert kahan_sum(vals[::-1]) == exact
    assert kahan_sum(shuffled) == exact


def test_kahan_sum_without_a_float_sum_does_not_raise():
    # math.fsum raises on these; the callers' non-finite checks want a value
    assert math.isnan(kahan_sum([math.inf, -math.inf]))
    assert kahan_sum([1e308, 1e308, 1.0]) == math.inf
    assert kahan_sum([math.inf, 1.0]) == math.inf
    assert math.isnan(kahan_sum([math.nan, 1.0]))
    # an array outside the exact regime of the array sum answers as a list does
    assert kahan_sum(np.array([1e308, 1e308, -1e308])) == math.inf
    assert math.isnan(kahan_sum(np.array([math.inf, -math.inf])))
    assert kahan_sum(np.array([math.inf, 1.0])) == math.inf


def _exact_sum_cases():
    """Seeded 1-D arrays for the exact sum on arrays: every size, over the
    whole exponent range with subnormals, with heavy cancellation, and zeros."""
    rng = np.random.default_rng(39)
    for n in (1, 16, 4096, 16384):
        yield rng.standard_normal(n) * np.ldexp(1.0, rng.integers(-1074, 1001, n))
        yield rng.standard_normal(n) * np.ldexp(1.0, rng.integers(-1074, -1000, n))
        x = rng.standard_normal(n) * np.ldexp(1.0, rng.integers(-40, 41, n))
        tiny = rng.standard_normal(3) * np.ldexp(1.0, rng.integers(-1074, -900, 3))
        yield rng.permutation(np.concatenate([x, -x, tiny]))
        yield rng.permutation(np.concatenate([x, -x]))
        yield rng.standard_normal(n)
        yield np.full(n, -0.0)
    yield np.array([])


def _value_and_sign(v):
    return float(v).hex(), math.copysign(1.0, v)


@pytest.mark.parametrize("arr", list(_exact_sum_cases()), ids=lambda arr: f"n={len(arr)}")
def test_kahan_sum_of_an_array_is_fsum_bitwise(arr):
    got = kahan_sum(arr)
    assert type(got) is float
    assert _value_and_sign(got) == _value_and_sign(math.fsum(arr.tolist()))


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(5, (4, 4))
    with pytest.raises(ValueError):
        QuadratureSpec(8, (0, 4))


@pytest.mark.parametrize("cells", [(2.5, 1), (2.0, 1), (True, 1), (4, False), ("4", 4),
                                   (None, 4), (4, -1)])
def test_quadrature_spec_requires_integer_cell_counts(cells):
    # (2.5, 1) failed inside numpy, or was rounded silently by a cut rule
    with pytest.raises(ValueError, match="cell counts must be integers >= 1"):
        QuadratureSpec(16, cells)


def test_quadrature_spec_accepts_integer_types():
    spec = QuadratureSpec(16, (np.int64(3), 2))
    assert spec.cells == (3, 2) and spec.doubled().cells == (6, 4)


def test_reversed_interval_raises_and_an_empty_one_is_zero():
    # integrated from 1 to 0, the rule returned -1 for f = 1
    one = lambda x: np.ones_like(x)
    for call in (lambda: gauss_nodes_1d(1.0, 0.0, 16, 2),
                 lambda: integrate_array_1d(one, 1.0, 0.0, 16, 2),
                 lambda: integrate_array_1d(one, 0.0, math.nan, 16, 2),
                 lambda: gauss_legendre_1d(lambda x: 1.0, 1.0, 0.0, QuadratureSpec(16, (2, 1)))):
        with pytest.raises(ValueError, match=r"require a <= b"):
            call()
    assert integrate_array_1d(one, 0.5, 0.5, 16, 2) == 0.0
    assert gauss_legendre_1d(lambda x: 1.0, 0.5, 0.5, QuadratureSpec(16, (2, 1))) == 0.0
    assert integrate_array_1d(one, 0.0, 1.0, 16, 2) == 1.0
