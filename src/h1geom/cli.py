"""Command-line interface: verification suites, CSV export, instability
certificate search.

Exit codes: 0 success, 1 verification/certificate failure, 2 usage or
configuration error, 3 numerical failure.  Reports are deterministic byte
for byte for identical configuration.  ``main`` builds its parser once per
process, on its first call, and runs the pitch-2 certificate search and the
unit catenoid certificate at most once per process each.

At module level this file imports ``errors``, numpy and the standard library
alone: each command imports its own engine when it runs, so building the
parser and rejecting a usage error load no geometry.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigError, GeometryError, NonFiniteValue

if TYPE_CHECKING:
    from .stability import InstabilityCertificate

# The parser's choices, stated here so that building it imports no engine;
# tests hold them equal to list(verify.SUITES) and list(surfaces.CATALOG).
SUITE_NAMES = ("core", "geodesics", "surfaces", "stability")
SURFACE_NAMES = ("vertical_plane", "plane", "paraboloid", "helicoid", "catenoid")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return format(x, ".17g")


CONFIG_KEYS = ("tol",)


def load_config(path: str) -> dict[str, str]:
    """Flat key=value file; keys other than CONFIG_KEYS are rejected."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = val.strip()
    return out


def _write_lines(path: str | None, lines: Sequence[str]) -> None:
    """Write each entry of ``lines`` and a newline; an entry may hold several
    newline-separated rows.  A file that cannot be written raises
    ``ConfigError`` naming ``path``."""
    text = (f"{line}\n" for line in lines)
    if path is None:
        sys.stdout.writelines(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import declared_names, run_suites

    suites = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    overrides: dict[str, float] = {}
    items = list(args.tol or [])
    if args.config:
        cfg = load_config(args.config)
        if "tol" in cfg:
            items = cfg["tol"].split(",") + items
    for item in items:
        name, sep, val = item.partition("=")
        if not sep:
            raise ConfigError(f"--tol expects name=value, got {item!r}")
        try:
            tol = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {item!r}") from exc
        if not 0.0 < tol < math.inf:
            raise ConfigError(f"tolerances must be positive and finite, got {item!r}")
        overrides[name.strip()] = tol
    unknown = sorted(set(overrides) - set(declared_names(suites)))
    if unknown:
        raise ConfigError(f"tolerance override matches no check of suites "
                          f"{', '.join(suites)}: {', '.join(unknown)}")
    results = run_suites(suites, overrides)
    lines = [f"# verification suites: {', '.join(suites)}"]
    for name, tol in sorted(overrides.items()):
        lines.append(f"# tolerance override: {name}={_fmt(tol)}")
    lines.append(f"{'check':40s} {'identity':44s} {'residual':>12s} {'threshold':>9s}  status")
    for r in results:
        lines.append(r.line())
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"# {len(results) - n_fail}/{len(results)} checks passed")
    _write_lines(args.out, lines)
    if any(not math.isfinite(r.residual) for r in results):
        return EXIT_NUMERIC
    return EXIT_OK if n_fail == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

# catalog_surface parameters taken from the command line, per surface
_SURFACE_PARAMS = {"plane": ("a", "b", "c"), "helicoid": ("R",), "catenoid": ("lam",)}

EXPORT_BATCH = 1024  # CSV rows evaluated per block, and rows per output string


def _column_cells(values: np.ndarray, sep: str) -> np.ndarray:
    """``format(v, ".17g") + sep`` of every value of the float64 array
    ``values``, as an object array, each distinct value formatted once: one
    ``np.unique`` with ``return_inverse``, one ``%.17g`` call over the
    distinct values and one gather by the inverse.  Values are keyed on their
    bits, not compared as floats, so -0.0 stays apart from 0.0; every NaN
    prints "nan" whatever its bits."""
    keys, inv = np.unique(values.view(np.uint64), return_inverse=True)
    # "\0" ends each cell for the split; no %.17g output holds it
    text = (f"%.17g{sep}\0" * len(keys) % tuple(keys.view(np.float64).tolist())).split("\0")
    return np.array(text[:-1], dtype=object)[inv]


def _csv_blocks(total: int, columns) -> list[str]:
    """The CSV body of rows 0..total-1, one string per block of
    EXPORT_BATCH rows; ``columns(k)`` returns the 1-D value arrays of the
    rows with indices ``k``.  Every value is printed with 17 significant
    digits, as ``format(v, ".17g")`` would.

    The blocks bound evaluation only: the values of every block are copied
    into one array per column, and each column formats each of its distinct
    values once per export (``_column_cells``), with its separator, "," or
    "\\n" for the last column, inside each cell.  An output block is then one
    join of its cells in row order.  The cost is memory, since every cell of
    the export lives at once: on a 400 x 400 plane grid the peak rose from
    +31 MB (formatting block by block) to +75 MB, while the time halved."""
    if total == 0:
        return []
    values = None
    for lo in range(0, total, EXPORT_BATCH):
        cols = columns(np.arange(lo, min(lo + EXPORT_BATCH, total)))
        if values is None:
            values = np.empty((len(cols), total))
        values[:, lo:lo + EXPORT_BATCH] = cols
    cells = np.empty((total, len(values)), dtype=object)
    for j, col in enumerate(values):
        cells[:, j] = _column_cells(col, "," if j < len(values) - 1 else "\n")
    # each block's last cell ends in "\n", which _write_lines adds itself
    return ["".join(cells[lo:lo + EXPORT_BATCH].ravel().tolist())[:-1]
            for lo in range(0, total, EXPORT_BATCH)]


def _grid(lo: float, hi: float, n: int, i: np.ndarray) -> np.ndarray:
    """lo + (hi - lo) * i / n: the values with indices ``i`` of the n + 1
    equally spaced values from lo to hi.  Overflow gives non-finite values,
    which the evaluation rejects."""
    with np.errstate(all="ignore"):
        return lo + (hi - lo) * i / n


def cmd_export_geodesic(args: argparse.Namespace) -> int:
    from .core import FrameVector, Point
    from .geodesics import GeodesicArc, exp_geodesics

    p0 = Point(args.x0, args.y0, args.t0)
    arc = GeodesicArc(p0, FrameVector(args.va, args.vb, args.vc, p0))
    n = args.num

    def columns(k):
        s = _grid(args.smin, args.smax, n, k) if n > 0 else np.full(k.shape, args.smin)
        (x, y, t), (a, b, c) = exp_geodesics(arc, s)
        with np.errstate(over="ignore"):  # the speed may be inf, as FrameVector.norm
            speed = np.sqrt(a * a + b * b + c * c)
        return s, x, y, t, c, speed

    _write_lines(args.out, ["s,x,y,t,lambda,speed", *_csv_blocks(n + 1, columns)])
    return EXIT_OK


def cmd_export_surface(args: argparse.Namespace) -> int:
    from .surfaces import catalog_surface, surface_frames

    params = {k: getattr(args, k) for k in _SURFACE_PARAMS.get(args.surface, ())}
    try:
        chart = catalog_surface(args.surface, **params)
    except ValueError as exc:  # the chart rejects its parameter
        raise ConfigError(f"--surface {args.surface}: {exc}") from exc
    (d1, d2) = chart.domain
    u1min = args.u1min if args.u1min is not None else d1[0]
    u1max = args.u1max if args.u1max is not None else d1[1]
    u2min = args.u2min if args.u2min is not None else d2[0]
    u2max = args.u2max if args.u2max is not None else d2[1]
    header = "u1,u2,x,y,t,Nh,NT,BZS,H,q,area_density"
    n1, n2 = args.n1, args.n2
    if n1 == 0 or n2 == 0:  # empty grid: header-only file
        _write_lines(args.out, [header])
        return EXIT_OK

    def columns(k):  # row-major: u2 varies fastest
        U1 = _grid(u1min, u1max, n1, k // (n2 + 1))
        U2 = _grid(u2min, u2max, n2, k % (n2 + 1))
        fr = surface_frames(chart, U1, U2, singular_ok=True)
        x, y, t = fr.points
        return (U1, U2, x, y, t, fr.Nh_norm, fr.NT, fr.BZS, fr.H, fr.q,
                fr.Nh_norm * fr.riem_area)

    _write_lines(args.out, [header, *_csv_blocks((n1 + 1) * (n2 + 1), columns)])
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    for name, val in vars(args).items():
        if isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(f"--{name} must be finite, got {val!r}")
    if args.kind == "geodesic":
        if args.num < 0:
            raise ConfigError(f"--num must be >= 0, got {args.num}")
        return cmd_export_geodesic(args)
    for name in ("n1", "n2"):
        if getattr(args, name) < 0:
            raise ConfigError(f"--{name} must be >= 0, got {getattr(args, name)}")
    return cmd_export_surface(args)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

# the options each certify target reads, beside --out
_CERTIFY_PARAMS = {"h2": (), "helicoid": ("R",), "catenoid": ("lam",)}


def cmd_certify(args: argparse.Namespace) -> int:
    """Search a certificate; the searches raise unless Q < 0 and Q at the
    doubled rule agrees, so a certificate that is written passes.  An
    option that the target does not read is a usage error."""
    foreign = [f"--{k}" for k in ("R", "lam")
               if getattr(args, k) is not None and k not in _CERTIFY_PARAMS[args.target]]
    if foreign:
        raise ConfigError(f"certify {args.target} takes no {' or '.join(foreign)}")

    if args.target == "h2":
        _write_lines(args.out, _h2_certificate().to_text().splitlines())
        return EXIT_OK

    if args.target == "helicoid":
        if args.R is None or not 0.0 < args.R < math.inf:
            raise ConfigError("certify helicoid requires a finite --R > 0")
        base = _h2_certificate()
        cert = _stability().scaled_helicoid_certificate(base, args.R)
        lines = cert.to_text().splitlines()
        lines.append(f"base_Q_value={_fmt(base.Q_value)}")
        lines.append(f"base_Q_value_doubled={_fmt(base.Q_value_doubled)}")
        lines.append(f"dilation_lambda={_fmt(math.log(2.0 / args.R))}")
        _write_lines(args.out, lines)
        return EXIT_OK

    lam = 1.0 if args.lam is None else args.lam
    if not 0.0 < lam * lam < math.inf:  # lam = 0, or lam^2 under- or overflows
        raise ConfigError("certify catenoid requires --lam with 0 < lam^2 < inf")
    cert = _stability().scaled_catenoid_certificate(_catenoid_unit_certificate(), lam)
    _write_lines(args.out, cert.to_text().splitlines())
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads a negative number in exponent
    notation, "-1e-3", as a value, as it reads "-0.001"; its subparsers are
    of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="h1geom", description="Heisenberg-group surface geometry toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run identity suites")
    p_verify.add_argument("--suite", default="all",
                          choices=[*SUITE_NAMES, "all"])
    p_verify.add_argument("--tol", action="append", metavar="NAME=VALUE",
                          help="override a check threshold (repeatable)")
    p_verify.add_argument("--config", help="flat key=value config file")
    p_verify.add_argument("--out", help="write the report to a file")
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser("export", help="CSV export of geodesics or surface grids")
    sub_e = p_export.add_subparsers(dest="kind", required=True)

    pg = sub_e.add_parser("geodesic")
    pg.add_argument("--x0", type=float, default=0.0)
    pg.add_argument("--y0", type=float, default=0.0)
    pg.add_argument("--t0", type=float, default=0.0)
    pg.add_argument("--va", type=float, default=1.0, help="X-coefficient of the velocity")
    pg.add_argument("--vb", type=float, default=0.0, help="Y-coefficient")
    pg.add_argument("--vc", type=float, default=0.0, help="T-coefficient")
    pg.add_argument("--smin", type=float, default=0.0)
    pg.add_argument("--smax", type=float, default=1.0)
    pg.add_argument("--num", type=int, default=100)
    pg.add_argument("--out")
    pg.set_defaults(func=cmd_export)

    ps = sub_e.add_parser("surface-grid")
    ps.add_argument("--surface", required=True, choices=list(SURFACE_NAMES))
    ps.add_argument("--R", type=float, default=2.0)
    ps.add_argument("--lam", type=float, default=1.0)
    ps.add_argument("--a", type=float, default=0.0)
    ps.add_argument("--b", type=float, default=0.0)
    ps.add_argument("--c", type=float, default=0.0)
    ps.add_argument("--u1min", type=float)
    ps.add_argument("--u1max", type=float)
    ps.add_argument("--u2min", type=float)
    ps.add_argument("--u2max", type=float)
    ps.add_argument("--n1", type=int, default=20)
    ps.add_argument("--n2", type=int, default=20)
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_export)

    p_cert = sub.add_parser("certify", help="search instability certificates")
    p_cert.add_argument("target", choices=list(_CERTIFY_PARAMS))
    p_cert.add_argument("--R", type=float)
    p_cert.add_argument("--lam", type=float, help="catenoid waist radius (default 1)")
    p_cert.add_argument("--out")
    p_cert.set_defaults(func=cmd_certify)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on the first call, then reused, since
    parsing leaves no state in it."""
    return build_parser()


@functools.cache
def _stability():
    """``h1geom.stability``, imported on the first certify job of a process.
    Later jobs read it here: an import statement per job would cost about
    5 us, 3 % of a certify job."""
    from . import stability

    return stability


@functools.cache
def _h2_certificate() -> InstabilityCertificate:
    """The pitch-2 certificate that ``certify h2`` prints and ``certify
    helicoid`` scales: searched on the first call, then reused, since the
    search takes no input."""
    return _stability().certify_instability_h2()


@functools.cache
def _catenoid_unit_certificate() -> InstabilityCertificate:
    """The lam = 1 certificate that ``certify catenoid`` scales to every
    waist radius: confirmed on the first call, then reused, since it takes
    no input."""
    return _stability().certify_instability_nosing()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteValue, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
