"""`export` runs in fixed blocks of rows: its bytes do not depend on the
block size, every field agrees with the scalar frame, and the cell kernel
prints every value as format(v, ".17g") does."""

import functools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from h1geom import cli, numerics
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


# the evaluation block (numerics.CELL_BLOCK_NODES rows) and the output block
# (cli.EXPORT_BATCH rows) vary independently; each case is named by its batch
@pytest.mark.parametrize("block, batch", [(10**6, 1), (1, 7), (7, 10**6)],
                         ids=["1", "7", "1000000"])
def test_export_bytes_independent_of_block_size(tmp_path, monkeypatch, block, batch):
    argvs = [_grid_argv(name, 23) for name in GRID_CASES] + [GEODESIC]
    want = [_export(argv, tmp_path / f"want{k}.csv") for k, argv in enumerate(argvs)]
    monkeypatch.setattr(numerics, "CELL_BLOCK_NODES", block)
    monkeypatch.setattr(cli, "EXPORT_BATCH", batch)
    for k, argv in enumerate(argvs):
        assert _export(argv, tmp_path / f"got{k}.csv") == want[k], (block, batch, argv)


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
    # values recur across blocks, which format them once per export; each
    # block is ASCII bytes, every row ending in b"\n"
    cols = _edge_columns(200)
    rows = [",".join(format(v, ".17g") for v in row) for row in zip(*(c.tolist() for c in cols))]
    assert {"0", "-0", "nan", "inf", "-inf", "4.9406564584124654e-324", "10000000000000000",
            "99999999999999984", "1e+17", "0.0001",
            "1.0000000000000001e-05"} <= set(",".join(rows).split(","))
    monkeypatch.setattr(cli, "EXPORT_BATCH", batch)
    for total in (0, 1, 200):
        got = cli._csv_blocks(total, lambda k: [c[k] for c in cols])
        assert got == ["".join(f"{row}\n" for row in rows[lo:min(lo + batch, total)]).encode()
                       for lo in range(0, total, batch)], total


# ---------------------------------------------------------------------------
# The cell kernel (cli._cell_kernel) prints format(v, ".17g"), bit for bit
# ---------------------------------------------------------------------------

def _cells(values, sep=","):
    """The cell of each of the float64 ``values``, as ``bytes``."""
    texts, inv = cli._column_cells(np.asarray(values, dtype=np.float64), sep)
    return texts[inv].tolist()  # S items drop the NUL padding


def _mismatches(values, sep=","):
    """(v, cell, format(v, ".17g") + sep) of each value whose cell differs."""
    vals = np.asarray(values, dtype=np.float64)
    got = _cells(vals, sep)
    want = [(format(v, ".17g") + sep).encode() for v in vals.tolist()]
    return [(v, g, w) for v, g, w in zip(vals.tolist(), got, want) if g != w]


def _printed_exponent(v):
    """The decimal exponent of the %.17g text of the finite nonzero ``v``."""
    return int(format(v, ".16e").split("e")[1])


def _least_printed_at(e):
    """The least positive double whose %.17g text has decimal exponent e or
    more: its 17 significant digits may round up to 10^e."""
    x = 10.0**e
    while _printed_exponent(float(np.nextafter(x, 0.0))) >= e:
        x = float(np.nextafter(x, 0.0))
    while _printed_exponent(x) < e:
        x = float(np.nextafter(x, np.inf))
    return x


def _kernel_count(values):
    """How many ``values`` the kernel prints, not %.17g: those whose %.17g
    exponent lies in -29..16."""
    a = np.abs(np.asarray(values, dtype=np.float64))
    return int(np.count_nonzero((a >= _least_printed_at(-29)) & (a < _least_printed_at(17))))


def _near_half(k, s, center):
    """The m near ``center`` whose m 5^k mod 2^s lies nearest 2^(s-1): the
    point of the lattice {(m, m 5^k mod 2^s)} nearest (center, 2^(s-1)) in
    the norm that weighs m against 2^52 and the residue against 2^(s-48),
    by Lagrange-Gauss reduction and Babai rounding."""
    w1, w2 = 2 ** max(s - 48, 0), 2**52
    u, v = (w1, 5**k % 2**s * w2), (0, 2**s * w2)
    while True:  # Lagrange-Gauss: u, v become a shortest basis
        if u[0] ** 2 + u[1] ** 2 > v[0] ** 2 + v[1] ** 2:
            u, v = v, u
        c = round(Fraction(u[0] * v[0] + u[1] * v[1], u[0] ** 2 + u[1] ** 2))
        if c == 0:
            break
        v = (v[0] - c * u[0], v[1] - c * u[1])
    t = (center * w1, 2 ** (s - 1) * w2)
    det = u[0] * v[1] - u[1] * v[0]
    c1 = round(Fraction(t[0] * v[1] - t[1] * v[0], det))
    c2 = round(Fraction(u[0] * t[1] - u[1] * t[0], det))
    return (c1 * u[0] + c2 * v[0]) // w1


def _near_ties():
    """Values v whose |v| 10^(16-E) lies within 2^-49 of a half-integer, for
    each exponent E = -7..-29 of the kernel where 10^(16-E) is no double: v
    = m 2^(-s-K), K = 16 - E, with m 5^K / 2^s near a half-integer.  They
    reach the two-sum's tie test with t + e2 of either sign."""
    out = []
    for k in range(23, 46):
        lo = (2**52 * 5**k // 10**17).bit_length()
        for s in range(lo, lo + 6):
            for c in range(1, 8):
                m = _near_half(k, s, 2**52 + c * 2**49)
                x = Fraction(m * 5**k, 2**s)
                if 2**52 <= m < 2**53 and 10**16 - Fraction(1, 2) <= x < 10**17 - Fraction(1, 2):
                    out.append(math.ldexp(m, -s - k))
    return out


def _exact_ties():
    """Every double whose 17 significant digits are an exact tie at an
    exponent E = -7..-29 of the kernel: |v| 10^K = m 5^K / 2 with m odd and
    K = 16 - E, so v = m 2^-(K+1); only K = 23 and 24 (E = -7 and -8) have
    any, since m 5^K / 2 < 10^17."""
    return [math.ldexp(m, -k - 1) for k in range(23, 46) for m in range(1, 64, 2)
            if 10**16 <= m * 5**k / 2 < 10**17]


@functools.cache
def _families():
    """The exactness cases by family: 2.0 million values, 1.77 million of
    them in the kernel's range."""
    rng = np.random.default_rng(2024)
    n = 200_000
    # random 64-bit patterns, both signs: every exponent, NaNs and infinities
    bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    # random mantissas at the binary exponents of the kernel's range and
    # beyond, 2^-100 (7.9e-31) to 2^59
    mantissas = ((rng.integers(0, 2, 2 * n).astype(np.uint64) << np.uint64(63))
                 | (rng.integers(1023 - 100, 1023 + 60, 2 * n).astype(np.uint64) << np.uint64(52))
                 | rng.integers(0, 2**52, 2 * n, dtype=np.uint64)).view(np.float64)
    # the +-2-ulp neighbours of every power of ten from 1e-30 to 1e30
    tens = np.array([float(10**e) if e >= 0 else 1 / 10**-e for e in range(-30, 31)])
    up, down = np.nextafter(tens, np.inf), np.nextafter(tens, 0.0)
    near = np.concatenate((tens, up, np.nextafter(up, np.inf), down, np.nextafter(down, 0.0)))
    # (k + 1/2) / 10^j, and exact ties of the 17th digit, which round half
    # to even: k + 1/2 for 16-digit k below 2^52, k + 1/4 and k + 3/4 below 2^51
    halves = (rng.integers(10**15, 10**16, n) + 0.5) / 10.0 ** rng.integers(0, 46, n)
    ties = np.concatenate((rng.integers(10**15, 2**52, n // 4) + 0.5,
                           rng.integers(10**15, 2**51, n // 4) + rng.choice([0.25, 0.75], n // 4)))
    # values rounded to 0..16 decimals
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 17, n)
    rounded = [round(v, d) for v, d in zip(x.tolist(), rng.integers(0, 17, n).tolist())]
    # subnormals, zeros, infinities and NaNs of several payloads
    specials = np.concatenate((rng.integers(1, 2**52, 1000, dtype=np.uint64),
                               np.array([0, 0x7FF0000000000000, 0x7FF8000000000000,
                                         0x7FF0000000000001, 0x7FF8000000000123,
                                         0x7FFFFFFFFFFFFFFF], dtype=np.uint64))).view(np.float64)
    families = {"random_bits": bits, "random_mantissas": mantissas, "powers_of_ten": near,
                "halfway": np.concatenate((halves, ties)),
                "near_ties": np.array(_near_ties() + _exact_ties()),
                "integers": rng.integers(-10**17, 10**17, n).astype(np.float64),
                "rounded": np.array(rounded), "specials": specials}
    # the random families have both signs already; the others get them here
    return {name: v if name.startswith("random") else np.concatenate((v, -v))
            for name, v in families.items()}


def test_exactness_cases_number_a_million():
    families = _families()
    assert sum(map(len, families.values())) >= 10**6
    assert sum(map(_kernel_count, families.values())) >= 10**6


@pytest.mark.parametrize("family", ["random_bits", "random_mantissas", "powers_of_ten",
                                    "halfway", "near_ties", "integers", "rounded", "specials"])
def test_cell_kernel_prints_format_17g(family):
    values = _families()[family]
    bad = _mismatches(values, ",")
    assert not bad, (family, len(bad), bad[:5])
    bad = _mismatches(values[::16], "\n")  # the other template
    assert not bad, (family, len(bad), bad[:5])


def test_double_nearest_1e_minus_6_prints_below_10_to_the_minus_6():
    # it lies below 10^-6, so its exponent is -7 and it prints in exponent
    # form; the least double above 10^-6 is the first the kernel prints
    assert (1e-6).as_integer_ratio()[0] * 10**6 < (1e-6).as_integer_ratio()[1]
    up = float(np.nextafter(1e-6, 1.0))
    assert _cells([1e-6, -1e-6, up, -up]) == [b"9.9999999999999995e-07,", b"-9.9999999999999995e-07,",
                     b"1.0000000000000002e-06,", b"-1.0000000000000002e-06,"]


def test_exact_ties_below_1e_minus_6_round_half_even():
    # 1.5 2^-24 10^24 = 3 5^24 / 2 = 89406967163085937.5 rounds to the even
    # ...38; 3 2^-24 10^23 = 17881393432617187.5 to the even ...88
    assert _cells([1.5 * 2**-24, -1.5 * 2**-24, 3 * 2**-24]) == [
        b"8.9406967163085938e-08,", b"-8.9406967163085938e-08,", b"1.7881393432617188e-07,"]
    ties = _exact_ties()
    assert len(ties) == 9 and not _mismatches(ties + [-v for v in ties])


def test_format_17g_prints_only_what_the_kernel_leaves(monkeypatch):
    # %.17g sees zeros, infinities, NaNs and exponents below -29 or from 17
    # up, and nothing else
    seen = []

    def spy(values, sep):
        seen.extend(values.view(np.uint64).tolist())
        return fallback(values, sep)

    fallback = cli._fallback_texts
    monkeypatch.setattr(cli, "_fallback_texts", spy)
    families = _families()
    values = np.concatenate([families[name] for name in ("random_bits", "random_mantissas",
                                                         "powers_of_ten", "specials")])
    assert not _mismatches(values)
    keys = np.unique(values.view(np.uint64))
    outside = {k for k, v in zip(keys.tolist(), keys.view(np.float64).tolist())
               if not math.isfinite(v) or v == 0
               or not -29 <= _printed_exponent(v) <= 16}
    assert set(seen) == outside
    assert len(seen) == len(outside) > 0


def test_one_chunk_across_the_tie_boundary_prints_format_17g(monkeypatch):
    # exponents -8 and -7, where 10^K takes two doubles and the tie test
    # runs, next to -6 and -5, where it does not, of both signs and with the
    # near ties, in one pass of the kernel: the tie slice of the negative
    # values starts inside the chunk
    rng = np.random.default_rng(49)
    values = [rng.uniform(1.0, 10.0, 200) * 10.0**e for e in range(-8, -4)]
    edges = [_least_printed_at(e) for e in range(-8, -3)]
    values += [edges, np.nextafter(edges, 0.0), _families()["near_ties"]]
    values = np.concatenate(values)
    values = np.concatenate((values, -values))
    assert set(range(-9, -4)) <= {_printed_exponent(v) for v in values.tolist()}
    calls = []

    def spy(absbits, counts, tables, out):
        calls.append(len(absbits))
        kernel(absbits, counts, tables, out)

    kernel = cli._cell_kernel
    monkeypatch.setattr(cli, "_cell_kernel", spy)
    assert not _mismatches(values, ",")
    assert not _mismatches(values, "\n")
    assert len(calls) == 2 and calls[0] == _kernel_count(np.unique(values)) <= cli.CELL_CHUNK


def test_tie_test_sees_exactly_the_exponents_where_10_to_the_k_takes_two_doubles(monkeypatch):
    # the two-sum and the +-1 correction run on the values of exponent
    # -29..-7 and no other: for -6..16, 10^(16-E) is one double
    seen = []

    def spy(a, *rest):
        seen.extend(a.view(np.uint64).tolist())
        return tie_rint(a, *rest)

    tie_rint = cli._tie_rint
    monkeypatch.setattr(cli, "_tie_rint", spy)
    families = _families()
    values = np.concatenate([families[name] for name in ("random_bits", "random_mantissas",
                                                         "powers_of_ten", "near_ties", "specials")])
    assert not _mismatches(values)
    keys = np.unique(values.view(np.uint64))
    want = [k & (2**63 - 1) for k, v in zip(keys.tolist(), keys.view(np.float64).tolist())
            if math.isfinite(v) and v != 0 and -29 <= _printed_exponent(v) <= -7]
    assert sorted(seen) == sorted(want)
    assert 0 < len(want) < _kernel_count(keys.view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40), st.sampled_from([",", "\n"]))
@example([1e-6, 1e16, 9.999999999999999e16, 1e17, 0.1, 1e-5, 1e-4, -0.0], ",")
def test_cell_kernel_matches_format_17g_on_any_floats(values, sep):
    assert not _mismatches(values, sep)


def test_cell_tables_are_built_on_the_first_export(tmp_path):
    # importing the CLI and building its parser build no kernel table; the
    # first export builds one per separator
    code = ("import h1geom.cli as c; c.build_parser(); n = c._cell_tables.cache_info().currsize; "
            f"c.main(['export', 'geodesic', '--num', '3', '--out', {str(tmp_path / 'g.csv')!r}]); "
            "print(n, c._cell_tables.cache_info().currsize)")
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src),
                                                                     os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.split() == ["0", "2"]
