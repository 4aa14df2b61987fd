"""Seeded job lists and output oracles for the h1geom benchmark.

Each workload is a fixed mix of CLI jobs, run in a closed loop (one caller,
one job at a time).  Jobs come in *cycles*: a cycle draws its parameters by
stratified sampling (one draw per stratum of the parameter range), so every
cycle covers the range the same way while the seed still decides the exact
values.  A run executes whole cycles, which keeps the mix of cheap and
expensive jobs identical from run to run.

The program under test only ever sees the generated argv lists; the seed
stays in the benchmark.
"""

from __future__ import annotations

import math
import random

from h1geom.stability import helicoid_closed_forms


class OracleError(Exception):
    """A job's output is wrong."""


def _log_uniform(rng: random.Random, lo: float, hi: float, k: int, n: int) -> float:
    """Draw from stratum ``k`` of ``n`` of the log-uniform law on [lo, hi]."""
    u = (k + rng.random()) / n
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [line.split(",") for line in lines[1:]]


def _kv(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, val = line.strip().partition("=")
            if sep:
                out[key] = val
    return out


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise OracleError(msg)


class Workload:
    """One kind of job: how to generate a cycle, what a unit of work is and
    how to check an output."""

    name = ""
    why = ""
    unit = ""            # what one unit of work is, for the rate metric
    rate_name = ""       # the rate metric under the name users know
    cycle_len = 8
    trace_cycles = 1     # fixed job block of a traced run

    def __init__(self, seed: int, out_path: str):
        self.rng = random.Random(seed)
        self.out = out_path

    def cycle(self) -> list[list[str]]:
        return [self.job(k) for k in range(self.cycle_len)]

    def job(self, k: int) -> list[str]:
        raise NotImplementedError

    def units(self, argv: list[str]) -> int:
        return 1

    def check(self, argv: list[str]) -> None:
        raise NotImplementedError


class Verify(Workload):
    name = "verify"
    why = ("verify --suite all, the library's own acceptance job: 2-D quadrature "
           "over surface_frame and exp_euclidean; the seed is unused")
    unit = "checks"
    rate_name = "verify_checks_per_s"
    cycle_len = 1
    MIN_CHECKS = 59

    def __init__(self, seed, out_path):
        super().__init__(seed, out_path)
        self.first_report: bytes | None = None
        self.margin_min: float | None = None
        self.n_checks = 0

    def job(self, k):
        return ["verify", "--suite", "all", "--out", self.out]

    def units(self, argv):
        return self.n_checks

    def check(self, argv):
        with open(self.out, "rb") as fh:
            report = fh.read()
        if self.first_report is None:
            self.first_report = report
        _require(report == self.first_report, "report differs from the first repeat")
        lines = report.decode("utf-8").splitlines()
        total = passed = 0
        margin = math.inf
        for line in lines:
            if line.startswith("#") or line.startswith("check "):
                continue
            tok = line.split()
            residual, threshold, flag = float(tok[-3]), float(tok[-2]), tok[-1]
            total += 1
            passed += flag == "PASS"
            if residual > 0.0:
                margin = min(margin, threshold / residual)
        _require(lines[-1] == f"# {passed}/{total} checks passed",
                 f"summary line {lines[-1]!r} disagrees with {passed}/{total}")
        _require(passed == total >= self.MIN_CHECKS, f"{passed}/{total} checks passed")
        self.n_checks = total
        self.margin_min = margin


class Certify(Workload):
    name = "certify"
    why = ("certify catenoid (|lam| in [0.25, 4], RK4 along rulings) and helicoid "
           "(R in [0.25, 8], 1-D quadrature, the same pitch-2 search every job), 1:8")
    unit = "certificates"
    rate_name = "certs_per_s"
    # Each catenoid job (0.3-0.6 s) is followed by 8 helicoid jobs (about 15 ms
    # each), so that helicoid work is about a quarter of the time and a change
    # to either kind shows in the workload's rate.
    CATENOIDS = 8
    HELICOIDS = 64
    cycle_len = CATENOIDS + HELICOIDS

    def job(self, k):
        per = self.HELICOIDS // self.CATENOIDS + 1
        stratum, pos = divmod(k, per)
        if pos == 0:
            lam = _log_uniform(self.rng, 0.25, 4.0, stratum, self.CATENOIDS)
            if self.rng.random() < 0.5:
                lam = -lam
            return ["certify", "catenoid", "--lam", repr(lam), "--out", self.out]
        R = _log_uniform(self.rng, 0.25, 8.0, stratum * (per - 1) + pos - 1, self.HELICOIDS)
        return ["certify", "helicoid", "--R", repr(R), "--out", self.out]

    def check(self, argv):
        kv = _kv(self.out)
        q = float(kv["Q_value"])
        if argv[1] == "catenoid":
            _require(q < 0.0 and float(kv["Q_value_doubled"]) < 0.0,
                     "Q is not negative at both resolutions")
            return
        R = float(argv[3])
        base = float(kv["base_Q_value"])
        _require(kv["surface"] == f"helicoid R={R:g}", f"surface {kv['surface']!r}")
        _require(q < 0.0 and float(kv["base_Q_value_doubled"]) < 0.0,
                 "Q is not negative at both resolutions")
        scaled = math.exp(3.0 * math.log(2.0 / R)) * base
        _require(abs(q - scaled) <= 1e-12 * abs(scaled),
                 f"Q_value {q!r} is not e^(3 lam) * base_Q_value = {scaled!r}")


class Export(Workload):
    name = "export"
    why = ("export: four 101x101 surface grids (helicoid, catenoid, paraboloid, "
           "plane) and four 10,001-row geodesics; frame kernel, 17-digit CSV, writes")
    unit = "rows"
    rate_name = "export_rows_per_s"
    N = 100       # grid cells per axis: (N + 1)^2 rows
    NUM = 10000   # geodesic steps: NUM + 1 rows

    def job(self, k):
        return self.grid_job(k) if k < 4 else self.geodesic_job()

    def grid_job(self, k):
        rng = self.rng
        if k == 0:
            params = ["--surface", "helicoid", "--R", repr(_log_uniform(rng, 0.5, 4.0, 0, 1))]
        elif k == 1:
            lam = _log_uniform(rng, 0.5, 2.0, 0, 1) * (1 if rng.random() < 0.5 else -1)
            params = ["--surface", "catenoid", "--lam", repr(lam)]
        elif k == 2:
            params = ["--surface", "paraboloid"]
        else:
            params = ["--surface", "plane"]
            for name in ("--a", "--b", "--c"):
                params += [name, repr(rng.uniform(-1.0, 1.0))]
        return ["export", "surface-grid", *params,
                "--n1", str(self.N), "--n2", str(self.N), "--out", self.out]

    def geodesic_job(self):
        u = self.rng.uniform
        vals = {"--x0": u(-1, 1), "--y0": u(-1, 1), "--t0": u(-1, 1),
                "--va": u(-1, 1), "--vb": u(-1, 1), "--vc": u(-2, 2),
                "--smin": 0.0, "--smax": u(2.0, 20.0)}
        argv = ["export", "geodesic"]
        for key, val in vals.items():
            argv += [key, repr(val)]
        return argv + ["--num", str(self.NUM), "--out", self.out]

    def units(self, argv):
        return (self.N + 1) ** 2 if argv[1] == "surface-grid" else self.NUM + 1

    def check(self, argv):
        if argv[1] == "surface-grid":
            self.check_grid(argv)
        else:
            self.check_geodesic()

    def check_grid(self, argv):
        opts = dict(zip(argv[2::2], argv[3::2]))
        kind = opts["--surface"]
        rows = _rows(self.out)
        _require(len(rows) == self.units(argv), f"{len(rows)} rows")
        for row in rows:
            _require(len(row) == 11, f"row has {len(row)} fields")
            u1, u2, x, y, t, nh, nt, bzs, h, q, dens = map(float, row)
            singular = math.isnan(bzs)
            _require(not any(math.isnan(v) for v in (u1, u2, x, y, t, nh, nt, dens)),
                     "NaN outside the characteristic columns")
            _require(singular == math.isnan(h) == math.isnan(q), "partial NaN row")
            if kind == "helicoid":
                R = float(opts["--R"])
                cf = helicoid_closed_forms(R, u1)
                _require(not singular or cf.Nh < 1e-8,
                         f"NaN row at s={u1!r} where closed-form |N_h| = {cf.Nh!r}")
                expect = [(x, u1 * math.sin(R * u2)), (y, u1 * math.cos(R * u2)),
                          (t, u2 / R), (nh, cf.Nh), (nt, cf.NT)]
                if not singular:
                    expect += [(bzs, cf.BZS), (q, cf.q)]
                for got, want in expect:
                    _require(_close(got, want, 1e-9),
                             f"helicoid R={R!r} at s={u1!r}: {got!r} != {want!r}")
            elif kind == "catenoid":
                lam2 = float(opts["--lam"]) ** 2
                rhs = lam2 * (x * x + y * y - lam2)
                scale = t * t + lam2 * (x * x + y * y) + lam2 * lam2
                _require(abs(t * t - rhs) <= 1e-9 * scale,
                         f"catenoid point ({x!r}, {y!r}, {t!r}) off t^2 = lam^2(r^2 - lam^2)")
            else:
                if kind == "paraboloid":
                    want = x * y
                else:
                    want = (float(opts["--a"]) * x + float(opts["--b"]) * y
                            + float(opts["--c"]))
                _require((x, y) == (u1, u2) and _close(t, want, 1e-12),
                         f"{kind} point ({x!r}, {y!r}, {t!r}) off the graph")

    def check_geodesic(self):
        rows = [[float(v) for v in row] for row in _rows(self.out)]
        _require(len(rows) == self.NUM + 1, f"{len(rows)} rows")
        lam0, speed0 = rows[0][4], rows[0][5]
        for row in rows:
            _require(all(math.isfinite(v) for v in row), "non-finite value")
            _require(_close(row[4], lam0, 1e-10), f"lambda drifts: {row[4]!r} vs {lam0!r}")
            _require(_close(row[5], speed0, 1e-10), f"speed drifts: {row[5]!r} vs {speed0!r}")


WORKLOADS = {w.name: w for w in (Verify, Certify, Export)}
