"""`export` runs in fixed blocks of rows: its bytes do not depend on the
block size, and every field agrees with the scalar frame."""

import math

import numpy as np
import pytest

from h1geom import cli
from h1geom.errors import SingularPoint
from h1geom.surfaces import catalog_surface, surface_frame, surface_frames

GRID_CASES = {
    "helicoid": ["--surface", "helicoid", "--R", "2"],
    "catenoid": ["--surface", "catenoid", "--lam", "-1.3"],
    "plane": ["--surface", "plane", "--a", "0.4", "--b", "-0.7", "--c", "0.3"],
    "paraboloid": ["--surface", "paraboloid"],
}
GEODESIC = ["export", "geodesic", "--x0", "0.1", "--y0", "-0.4", "--t0", "0.2", "--va", "0.3",
            "--vb", "-0.2", "--vc", "0.7", "--smin", "-1", "--smax", "9", "--num", "3000"]


def _grid_argv(name, n):
    return ["export", "surface-grid", *GRID_CASES[name], "--n1", str(n), "--n2", str(n)]


def _export(argv, path):
    assert cli.main([*argv, "--out", str(path)]) == 0
    return path.read_bytes()


def _scalar_grid_rows(name, n):
    """The rows of a grid, one scalar ``surface_frame`` per point; at a
    singular point, where it raises, a batch of that one point, whose
    characteristic entries are NaN."""
    opts = dict(zip(GRID_CASES[name][2::2], GRID_CASES[name][3::2]))
    chart = catalog_surface(name, **{k[2:]: float(v) for k, v in opts.items()})
    (a1, b1), (a2, b2) = chart.domain
    rows = []
    for i in range(n + 1):
        u1 = a1 + (b1 - a1) * i / n
        for j in range(n + 1):
            u2 = a2 + (b2 - a2) * j / n
            try:
                fr = surface_frame(chart, (u1, u2))
            except SingularPoint:
                fr = surface_frames(chart, [u1], [u2], singular_ok=True)
            x, y, t, nh, nt, bzs, h, q, w = (float(np.ravel(v)[0]) for v in (
                *fr.points, fr.Nh_norm, fr.NT, fr.BZS, fr.H, fr.q, fr.riem_area))
            rows.append((u1, u2, x, y, t, nh, nt, bzs, h, q, nh * w))
    return rows


@pytest.mark.parametrize("batch", [1, 7, 10**6])
def test_export_bytes_independent_of_block_size(tmp_path, monkeypatch, batch):
    argvs = [_grid_argv(name, 23) for name in GRID_CASES] + [GEODESIC]
    want = [_export(argv, tmp_path / f"want{k}.csv") for k, argv in enumerate(argvs)]
    monkeypatch.setattr(cli, "EXPORT_BATCH", batch)
    for k, argv in enumerate(argvs):
        assert _export(argv, tmp_path / f"got{k}.csv") == want[k], (batch, argv)


@pytest.mark.parametrize("name", list(GRID_CASES))
def test_export_grid_matches_scalar_frame(tmp_path, name):
    text = _export(_grid_argv(name, 40), tmp_path / "g.csv").decode()
    got = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
    want = _scalar_grid_rows(name, 40)
    assert len(got) == len(want) == 41 * 41
    nan_rows = 0
    for g_row, w_row in zip(got, want):
        for g, w in zip(g_row, w_row):
            assert math.isnan(g) == math.isnan(w), (name, g_row, w_row)
            if not math.isnan(w):
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (name, g_row, w_row)
        nan_rows += math.isnan(w_row[7])
    # both helices s = +-1/2, the point (0.7, 0.4) of the plane, the line x = 0
    assert nan_rows == {"helicoid": 82, "catenoid": 0, "plane": 1, "paraboloid": 41}[name]


def test_export_paraboloid_bytes_of_scalar_frame(tmp_path):
    got = _export(_grid_argv("paraboloid", 40), tmp_path / "g.csv").decode()
    rows = [",".join(format(v, ".17g") for v in row)
            for row in _scalar_grid_rows("paraboloid", 40)]
    assert got == "\n".join(["u1,u2,x,y,t,Nh,NT,BZS,H,q,area_density", *rows]) + "\n"


def _edge_columns(n):
    """Six columns of ``n`` rows: zeros of both signs, NaNs of several bit
    patterns, infinities and the least subnormal, values at the fixed/exponent
    switch of %g, a constant, and a column with no repeats."""
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
                     0x7FF0000000000001], dtype=np.uint64).view(np.float64)
    pools = [[0.0, -0.0, 1.0, -1.0],
             [*nans, 2.5, -2.5],
             [math.inf, -math.inf, 5e-324, -5e-324, 0.1],
             [1e16, 9.999999999999999e16, 1e17, 1e-4, 1e-5, -1e16, 1.0000000000000002e-4]]
    rng = np.random.default_rng(7)
    cols = [np.asarray(p)[rng.integers(len(p), size=n)] for p in pools]
    return [*cols, np.full(n, 1.0 / 3.0), np.arange(n) / 7.0 - 1.5]


@pytest.mark.parametrize("batch", [1, 7, 10**6])
def test_csv_blocks_print_every_value_as_format_17g(monkeypatch, batch):
    # values recur across blocks, which format them once per export
    cols = _edge_columns(200)
    rows = [",".join(format(v, ".17g") for v in row) for row in zip(*(c.tolist() for c in cols))]
    assert {"0", "-0", "nan", "inf", "-inf", "4.9406564584124654e-324", "10000000000000000",
            "99999999999999984", "1e+17", "0.0001",
            "1.0000000000000001e-05"} <= set(",".join(rows).split(","))
    monkeypatch.setattr(cli, "EXPORT_BATCH", batch)
    for total in (0, 1, 200):
        got = cli._csv_blocks(total, lambda k: [c[k] for c in cols])
        assert got == ["\n".join(rows[lo:min(lo + batch, total)])
                       for lo in range(0, total, batch)], total
