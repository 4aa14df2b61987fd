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
CELL_CHUNK = 4096  # distinct values per pass of the cell kernel, whose work arrays stay small


# The cell kernel: format(v, ".17g") in numpy, bit for bit, for every value
# whose decimal exponent E, the one %.17g prints, lies in CELL_EXPONENTS.
# It computes N = round-half-even(|v| 10^K), K = 16 - E, the 17 significant
# digits of v, exactly.  10^K = 2^K 5^K is hi + lo in two doubles, since 5^K
# has at most 105 bits for K <= 45 (lo = 0 for K <= 22), and Dekker's
# two-product ("A floating-point technique for extending the available
# precision", Numer. Math. 18, 1971) splits |v| hi = P + e1 and |v| lo =
# q + e2 without error; ``_cell_kernel`` rounds P + e1 + q + e2.  Every
# other value goes through Python's %.17g (Gay, "Correctly rounded
# binary-decimal and decimal-binary conversions", 1990), as do zeros,
# infinities and NaNs.
CELL_EXPONENTS = range(-29, 17)
_DEKKER_SPLIT = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves


def _dekker_halves(x: float) -> tuple[float, float]:
    """x = hi + lo, each half of at most 26 significant bits."""
    hi = x * _DEKKER_SPLIT - (x * _DEKKER_SPLIT - x)
    return hi, x - hi


def _cell_text(digits: str, negative: bool, e: int) -> str:
    """The %.17g text of a value of sign ``negative``, decimal exponent
    ``e`` in CELL_EXPONENTS and significant ``digits`` (trailing zeros
    stripped): exponent form below 1e-4, as %g prints."""
    if e < -4:
        body = digits[0] + ("." + digits[1:] if len(digits) > 1 else "") + f"e-{-e:02d}"
    elif e < 0:
        body = "0." + "0" * (-e - 1) + digits
    else:
        fraction = digits[e + 1:]
        body = digits[:e + 1].ljust(e + 1, "0") + ("." + fraction if fraction else "")
    return "-" * negative + body


def _words(v: int) -> list[int]:
    """The three little-endian 64-bit words of a text of up to 24 bytes."""
    return [(v >> shift) & 0xFFFFFFFFFFFFFFFF for shift in (0, 64, 128)]


@functools.cache
def _cell_tables(sep: str) -> dict:
    """The constants of the cell kernel for cells ending in ``sep``, built
    on the first export.  Run r = 46 s + E + 29 holds the values of exponent
    E of CELL_EXPONENTS and sign s (1 if negative).

    - ``bounds``: for E = -29..17, the bits of the least double whose 17
      significant digits round to 10^E or more (the least double >= (1 -
      5 10^-17) 10^E; at that point half to even rounds up), then of its
      negation.  The double nearest 10^E may lie below 10^E, as those of
      1e-6, 1e-14 and 1e-29 do: 1e-6 prints 9.9999999999999995e-07, in
      the run below, and 1e-14 prints 1e-14, since its digits round up;
    - ``scale``, one row per run: hi and its Dekker halves, then lo and its
      Dekker halves, where 10^(16-E) = hi + lo exactly (lo = 0 for E >= -6);
    - ``place``, one row per run: the shift 8 (s + z) bits, past the sign
      and the z = -E zeros of "0.000ddd" (E = -1..-4; z = 0 otherwise); the
      three words of the byte mask of the text before the point; and
      17 r - 127, which ``_cell_kernel`` adds to 126 + k;
    - ``template``: the three words of the text of run r with k = 1..17
      significant digits, all "0", and ``sep`` (row 17 r + k - 1): the
      sign, "0.", the point, the exponent and ``sep`` at their places."""
    bounds = []
    for e in range(CELL_EXPONENTS.start, CELL_EXPONENTS.stop + 1):
        # (10^17 - 1/2) 10^(e-17) = num / den: half an ulp of the 17th digit below 10^e
        num, den = (2 * 10**17 - 1) * 10 ** max(e, 0), 2 * 10 ** (17 - min(e, 0))
        f = num / den  # correctly rounded
        p, q = f.as_integer_ratio()
        bounds.append(math.nextafter(f, math.inf) if p * den < num * q else f)
    bits = np.array(bounds).view(np.uint64)
    scale, place, template = [], [], []
    for negative in (False, True):
        for e in CELL_EXPONENTS:
            hi = float(10 ** (16 - e))  # 2^K fl(5^K), K = 16 - e
            lo = float(10 ** (16 - e) - int(hi))  # 2^K (5^K - fl(5^K)), exact
            scale.append((hi, *_dekker_halves(hi), lo, *_dekker_halves(lo)))
            zeros = -e if -4 <= e < 0 else 0
            point = max(e, 0) + 1 + negative  # bytes before the point
            row = (17 * len(place) - 127) % 2**64  # as uint64; the kernel reads int64
            place.append((8 * (negative + zeros), *_words((1 << 8 * point) - 1), row))
            for k in range(1, 18):
                text = (_cell_text("0" * k, negative, e) + sep).encode()
                template.append(_words(int.from_bytes(text, "little")))
    words = np.array(template, dtype=np.uint64).T
    return {"bounds": np.concatenate((bits, bits | np.uint64(1 << 63))),
            "scale": np.array(scale).T.copy(), "place": np.array(place, dtype=np.uint64).T.copy(),
            "template": [w.copy() for w in words]}


def _digit_bytes(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each ``uint64`` x < 10^8, one per byte (0-9,
    not ASCII), most significant in the lowest byte: x = 10^4 h + l with h
    in the low and l in the high 32 bits, each split the same way into
    16-bit halves of 2 digits, and those into bytes (multiply-shift
    divisions, exact at these sizes)."""
    h = (x * 109951163) >> 40  # x // 10^4
    t = (x << 32) - h * (10000 * 2**32 - 1)
    h = ((t * 5243) >> 19) & 0x0000007F0000007F  # // 100 per 32-bit lane
    t = (t << 16) - h * (100 * 2**16 - 1)
    h = ((t * 103) >> 10) & 0x000F000F000F000F  # // 10 per 16-bit lane
    return (t << 8) - h * (10 * 2**8 - 1)


def _cell_kernel(absbits: np.ndarray, counts: np.ndarray, tables: dict,
                 out: np.ndarray) -> None:
    """Write into ``out`` (n x 3 ``uint64``) the texts, NUL-padded to 24
    bytes, of the values with bits ``absbits`` (sign cleared): ``counts[r]``
    values of each run r in turn (see ``_cell_tables``).

    N = round-half-even(a hi + a lo) for a = |v| is P + rint(s) + c: P =
    fl(a hi) >= 10^16 > 2^53 is an even integer, e1 = a hi - P and
    a lo = q + e2 are exact, s + t = e1 + q exactly (Knuth's two-sum), and
    c is 0 unless s lies halfway between integers.  Where lo = 0, q = e2 =
    0.  Otherwise |a lo| <= 2^52 ulp(a) ulp(hi), so ulp(q) divides
    ulp(a) ulp(hi), of which e1 is a multiple: e1, q, s, t and the halves
    are multiples of ulp(q), while |e2| <= ulp(q) / 2.  So where s is not
    halfway, neither t nor e2 reaches the next half and c = 0; where it
    is, the sign of t + e2 (exact: where t != 0, |t| >= ulp(q)) moves N
    off rint's even choice, c = +-1, or keeps a true tie there."""
    a = absbits.view(np.float64)
    hi, hi1, hi2, lo, lo1, lo2 = np.repeat(tables["scale"], counts, axis=1)
    p = a * hi
    c = a * _DEKKER_SPLIT
    ah = c - (c - a)
    al = a - ah
    e1 = ((ah * hi1 - p) + ah * hi2 + al * hi1) + al * hi2
    q = a * lo
    e2 = ((ah * lo1 - q) + ah * lo2 + al * lo1) + al * lo2
    s = e1 + q
    b = s - e1
    t = (e1 - (s - b)) + (q - b)
    i = np.rint(s)
    d = s - i
    i += np.trunc(d + d) * (d * (t + e2) > 0)  # +-1 only where d = +-1/2
    n = p.astype(np.int64)
    n += i.astype(np.int64)
    # digit 0, then digits 1-8 and 9-16 as the two halves of one array
    m = len(n)
    q = n // 10**8
    digits = np.empty(2 * m, np.int64)
    np.subtract(n, q * 10**8, out=digits[m:])
    lead = q // 10**8
    np.subtract(q, lead * 10**8, out=digits[:m])
    digits = _digit_bytes(digits.view(np.uint64))
    # k, the significant digits, from the top nonzero byte of each half: the
    # exponent of a float is its top bit.  A half codes 128 + its byte, or
    # 127 for the first and 0 for the second half when all its digits are 0
    top = (digits + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080
    top[:m] |= 1
    code = top.astype(np.float64).view(np.int64) >> 55
    shift, *point, row0 = np.repeat(tables["place"], counts, axis=1)
    row = np.maximum(code[m:] + 8, code[:m])  # 126 + k
    row += row0.view(np.int64)
    # the 17 digit bytes in three words, moved past the sign and leading
    # zeros, then split at the point, whose byte the template holds
    d1, d2 = digits[:m], digits[m:]
    w = [(d1 << 8) | lead.view(np.uint64), (d2 << 8) | (d1 >> 56), d2 >> 56]
    carry = 63 - shift  # x >> (64 - shift) is (x >> 1) >> carry, and 0 at shift 0
    w[2] = (w[2] << shift) | ((w[1] >> 1) >> carry)
    w[1] = (w[1] << shift) | ((w[0] >> 1) >> carry)
    w[0] <<= shift
    before = [wj & mask for wj, mask in zip(w, point)]
    after = [wj ^ bj for wj, bj in zip(w, before)]
    for j, template in enumerate(tables["template"]):
        word = before[j] | (after[j] << 8) | template.take(row)
        if j:
            word |= after[j - 1] >> 56
        out[:, j] = word


def _fallback_texts(values: np.ndarray, sep: str) -> np.ndarray:
    """``format(v, ".17g") + sep`` in ASCII of each float64 of ``values``,
    as an ``S`` array: one Python %-format call for the values that the
    cell kernel leaves."""
    # "\0" ends each cell for the split; no %.17g output holds it
    text = (f"%.17g{sep}\0" * len(values) % tuple(values.tolist())).encode()
    return np.array(text.split(b"\0")[:-1], dtype=bytes)


def _cell_texts(keys: np.ndarray, sep: str) -> np.ndarray:
    """``format(v, ".17g") + sep`` in ASCII of each value whose bits are in
    ``keys``, the sorted distinct ``uint64`` that ``np.unique`` returns, as
    one NUL-padded ``S`` array: ``S24``, the kernel's width, or wider where
    a %.17g text is longer ("-1.0000000000000001e-300," is 25 bytes).

    In key order each run of ``_cell_tables`` is one slice, found by one
    ``searchsorted``, so its constants are repeated per value, not looked
    up.  ``_cell_kernel`` prints the runs, CELL_CHUNK values at a time, and
    ``_fallback_texts`` the other values: magnitudes below 10^-29 or from
    10^17 up, zeros, infinities and NaNs."""
    t = _cell_tables(sep)
    runs = len(CELL_EXPONENTS)  # per sign
    ends = np.searchsorted(keys, t["bounds"])
    lo1, hi1, lo2, hi2 = (int(ends[i]) for i in (0, runs, runs + 1, 2 * runs + 1))
    absbits = np.concatenate((keys[lo1:hi1], keys[lo2:hi2])) & np.uint64(2**63 - 1)
    edges = np.concatenate((ends[:runs + 1] - lo1, ends[runs + 2:] - lo2 + hi1 - lo1))
    text = np.empty((len(absbits), 3), np.uint64)
    for lo in range(0, len(absbits), CELL_CHUNK):
        hi = lo + CELL_CHUNK
        _cell_kernel(absbits[lo:hi], np.diff(np.clip(edges, lo, hi)), t, text[lo:hi])
    cells = text.view("S24").ravel()
    if len(absbits) == len(keys):
        return cells
    rest = np.concatenate((keys[:lo1], keys[hi1:lo2], keys[hi2:])).view(np.float64)
    other = _fallback_texts(rest, sep)
    i, j = lo1, lo1 + lo2 - hi1
    return np.concatenate((other[:i], cells[:hi1 - lo1], other[i:j], cells[hi1 - lo1:], other[j:]))


def _column_cells(values: np.ndarray, sep: str) -> tuple[np.ndarray, np.ndarray]:
    """``format(v, ".17g") + sep`` in ASCII of every value of the float64
    array ``values``, each distinct value formatted once: the texts of the
    distinct values (``_cell_texts``) and the ``np.unique`` inverse, the
    index of each value's text.  Values are keyed on their bits, not
    compared as floats, so -0.0 stays apart from 0.0; every NaN prints
    "nan" whatever its bits."""
    keys, inv = np.unique(values.view(np.uint64), return_inverse=True)
    return _cell_texts(keys, sep), inv


def _csv_blocks(total: int, columns) -> list[str]:
    """The CSV body of rows 0..total-1, one string per block of
    EXPORT_BATCH rows; ``columns(k)`` returns the 1-D value arrays of the
    rows with indices ``k``.  Every value is printed with 17 significant
    digits, as ``format(v, ".17g")`` would.

    The blocks bound evaluation: the values of every block are copied into
    one array per column, and each column formats each of its distinct
    values once per export (``_column_cells``), with its separator, "," or
    "\\n" for the last column, inside each cell.  Cells stay fixed-width
    texts to the end, with no Python object per value or per cell: each
    output block ``np.take``s its texts by the inverses into one reused
    (rows, columns) ``S`` buffer, whose bytes, the NUL padding deleted and
    decoded from ASCII, are the block.  The values, and then the inverses,
    of the whole export live at once, but its cells never do."""
    if total == 0:
        return []
    values = None
    for lo in range(0, total, EXPORT_BATCH):
        cols = columns(np.arange(lo, min(lo + EXPORT_BATCH, total)))
        if values is None:
            values = np.empty((len(cols), total))
        values[:, lo:lo + EXPORT_BATCH] = cols
    cells = [_column_cells(col, "," if j < len(values) - 1 else "\n")
             for j, col in enumerate(values)]
    del values
    width = max(texts.itemsize for texts, _ in cells)
    buf = np.empty((min(total, EXPORT_BATCH), len(cells)), f"S{width}")
    blocks = []
    for lo in range(0, total, EXPORT_BATCH):
        rows = buf[:min(EXPORT_BATCH, total - lo)]
        for j, (texts, inv) in enumerate(cells):
            rows[:, j] = texts.take(inv[lo:lo + len(rows)])
        # the block's last cell ends in "\n", which _write_lines adds itself
        blocks.append(rows.tobytes().translate(None, b"\0")[:-1].decode("ascii"))
    return blocks


def _write_csv(path: str | None, header: str, total: int, columns) -> None:
    """Write ``header`` and the CSV body of ``_csv_blocks(total, columns)``.
    An export too large to allocate raises ``ConfigError`` naming its row
    count, and nothing is written."""
    try:
        blocks = _csv_blocks(total, columns)
    except MemoryError as exc:
        raise ConfigError(f"an export of {total} rows does not fit in memory") from exc
    _write_lines(path, [header, *blocks])


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

    _write_csv(args.out, "s,x,y,t,lambda,speed", n + 1, columns)
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

    _write_csv(args.out, header, (n1 + 1) * (n2 + 1), columns)
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
