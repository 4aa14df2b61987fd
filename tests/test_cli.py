import contextlib
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from h1geom import cli, stability, surfaces, verify
from h1geom.cli import main
from h1geom.errors import ConfigError
from h1geom.stability import InstabilityCertificate


def run(args):
    return main(args)


def test_verify_core_exit_zero(capsys):
    assert run(["verify", "--suite", "core"]) == 0
    out = capsys.readouterr().out
    assert "connection_table" in out
    assert "FAIL" not in out


def test_verify_tolerance_override_noted(capsys):
    assert run(["verify", "--suite", "core", "--tol", "group_associativity=1e-3"]) == 0
    out = capsys.readouterr().out
    assert "# tolerance override: group_associativity=0.001" in out


def test_verify_impossible_tolerance_fails(capsys):
    assert run(["verify", "--suite", "core", "--tol", "group_associativity=1e-30"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_bad_tolerance_config_error():
    assert run(["verify", "--suite", "core", "--tol", "nonsense"]) == 2
    assert run(["verify", "--suite", "core", "--tol", "x=-1"]) == 2


def test_verify_unknown_tolerance_name_rejected(tmp_path, capsys, monkeypatch):
    # a name that matches no check of the suites run is a usage error: exit
    # 2, one line, and no report, from --tol and from a config file alike;
    # the names come from the check table, so no check runs first
    def must_not_run():
        raise AssertionError("a check ran before the override names were checked")

    for name in vars(verify):
        if name.startswith("check_"):
            monkeypatch.setattr(verify, name, must_not_run)
    out = tmp_path / "r.txt"
    _assert_usage_error(["verify", "--suite", "core", "--tol", "no_such_check=1",
                         "--out", str(out)], capsys)
    assert not out.exists()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol=group_associativity=1e-3,no_such_check=1\n")
    assert run(["verify", "--suite", "core", "--config", str(cfg)]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.count("\n") == 1
    assert "no_such_check" in cap.err and "group_associativity" not in cap.err


def test_verify_reports_deterministic(tmp_path):
    p1 = tmp_path / "r1.txt"
    p2 = tmp_path / "r2.txt"
    assert run(["verify", "--suite", "core", "--out", str(p1)]) == 0
    assert run(["verify", "--suite", "core", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol=group_associativity=1e-3\n")
    assert run(["verify", "--suite", "core", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "tolerance override" in out

    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key=3\n")
    assert run(["verify", "--suite", "core", "--config", str(bad)]) == 2

    # suites are chosen by --suite alone; a config file cannot choose them
    suite = tmp_path / "suite.cfg"
    suite.write_text("suite=core\n")
    capsys.readouterr()
    _assert_usage_error(["verify", "--config", str(suite)], capsys)


def test_export_geodesic_horizontal(tmp_path):
    out = tmp_path / "geo.csv"
    assert run(["export", "geodesic", "--va", "1", "--smin", "0", "--smax", "2",
                "--num", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,x,y,t,lambda,speed"
    assert len(lines) == 6
    for row in lines[1:]:
        s, x, y, t, lam, speed = (float(v) for v in row.split(","))
        assert x == s and y == 0.0 and t == 0.0 and lam == 0.0 and speed == 1.0


def test_export_roundtrip_17_digits(tmp_path):
    from h1geom.core import FrameVector, Point
    from h1geom.geodesics import GeodesicArc, exp_geodesic
    p0 = Point(0.1, 0.0, 0.0)
    arc = GeodesicArc(p0, FrameVector(0.3, -0.2, 0.7, p0))
    out = tmp_path / "geo.csv"
    for num in (7, 3000):  # 3001 rows cross export blocks
        assert run(["export", "geodesic", "--va", "0.3", "--vb", "-0.2", "--vc", "0.7",
                    "--x0", "0.1", "--smin", "-1", "--smax", "1", "--num", str(num),
                    "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == num + 1
        for row in rows:
            vals = [float(v) for v in row.split(",")]
            q, vel = exp_geodesic(arc, vals[0])
            assert vals[1:] == [q.x, q.y, q.t, vel.c, vel.norm()]


def test_export_surface_grid_singular_rows(tmp_path):
    out = tmp_path / "grid.csv"
    assert run(["export", "surface-grid", "--surface", "helicoid", "--R", "2",
                "--u1min", "0.4", "--u1max", "0.6", "--u2min", "0", "--u2max", "0.2",
                "--n1", "2", "--n2", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "u1,u2,x,y,t,Nh,NT,BZS,H,q,area_density"
    singular_rows = [l for l in lines[1:] if l.startswith("0.5,") or l.startswith("0.5\t")]
    for row in lines[1:]:
        vals = row.split(",")
        if float(vals[0]) == 0.5:
            assert abs(float(vals[5])) <= 1e-12  # Nh ~ 0 on the helix
            assert vals[7] == "nan"


def test_export_empty_grid_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert run(["export", "surface-grid", "--surface", "catenoid", "--lam", "1",
                "--n1", "0", "--n2", "0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines == ["u1,u2,x,y,t,Nh,NT,BZS,H,q,area_density"]


def test_verify_stability_includes_q_check(capsys):
    assert run(["verify", "--suite", "stability"]) == 0
    out = capsys.readouterr().out
    assert "q_identically_zero_R2" in out
    line = [l for l in out.splitlines() if "q_identically_zero_R2" in l][0]
    assert line.rstrip().endswith("PASS")


def test_certify_h2(tmp_path):
    out = tmp_path / "cert.txt"
    assert run(["certify", "h2", "--out", str(out)]) == 0
    text = out.read_text()
    cert = InstabilityCertificate.from_text(text)
    assert cert.Q_value < 0.0
    assert cert.C < 8.0
    assert cert.Q_value_doubled < 0.0


@pytest.mark.parametrize("argv", [["h2"], ["catenoid", "--lam", "-2.5"]])
def test_certificate_file_round_trips(tmp_path, argv):
    out = tmp_path / "cert.txt"
    assert run(["certify", *argv, "--out", str(out)]) == 0
    text = out.read_bytes().decode("utf-8")
    assert InstabilityCertificate.from_text(text).to_text() == text


def test_certify_helicoid_scaled(tmp_path):
    out = tmp_path / "cert4.txt"
    assert run(["certify", "helicoid", "--R", "4", "--out", str(out)]) == 0
    kv = dict(l.split("=", 1) for l in out.read_text().splitlines())
    assert kv["surface"] == "helicoid R=4"
    lam = float(kv["dilation_lambda"])
    assert abs(lam - math.log(0.5)) <= 1e-15
    assert float(kv["Q_value"]) < 0.0
    assert abs(float(kv["Q_value"]) - math.exp(3 * lam) * float(kv["base_Q_value"])) <= 1e-15


def test_certify_helicoid_bad_params():
    assert run(["certify", "helicoid"]) == 2
    assert run(["certify", "helicoid", "--R", "-1"]) == 2


def test_certify_catenoid(tmp_path):
    out = tmp_path / "cat.txt"
    assert run(["certify", "catenoid", "--lam", "1", "--out", str(out)]) == 0
    kv = dict(l.split("=", 1) for l in out.read_text().splitlines())
    assert kv["surface"] == "catenoid lam=1"
    assert float(kv["Q_value"]) < 0.0
    assert float(kv["Q_value_doubled"]) < 0.0


def test_certify_catenoid_large_lam(tmp_path):
    # no --kmax: the test function's width is 2|lam| at every scale
    out = tmp_path / "cat.txt"
    assert run(["certify", "catenoid", "--lam=100", "--out", str(out)]) == 0
    cert = InstabilityCertificate.from_text(out.read_text())
    assert cert.surface == "catenoid lam=100" and cert.k == 200.0
    for q in (cert.Q_value, cert.Q_value_doubled):
        assert abs(q / 100.0 + 1.6716703329) <= 1e-9


def test_unknown_arguments_exit_config():
    assert run(["verify", "--suite", "bogus"]) == 2
    assert run(["frobnicate"]) == 2


@pytest.mark.parametrize("command, option, value", [
    (["certify", "catenoid"], "--lam", "-1e-3"),
    (["export", "geodesic", "--num", "3"], "--y0", "-2.9066624484652692e-05"),
    (["export", "geodesic", "--num", "3"], "--y0", "-.5E+1"),
])
def test_negative_exponent_values_parse_as_in_the_equals_form(tmp_path, command, option, value):
    # "-1e-3" as its own argv item is a value, as in "--lam=-1e-3"
    spaced, joined = tmp_path / "spaced.txt", tmp_path / "joined.txt"
    assert run(command + [option, value, "--out", str(spaced)]) == 0
    assert run(command + [f"{option}={value}", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()


# The argv of three former workflow steps, each with the exit code the
# step required, under warnings as errors (as `python -W error -m
# h1geom.cli ARGV`).  The certify loop spells each lam as the step did.
CATENOID_SCALES = ["-1e-3", "1e-2", "-0.1", "1", "-10", "100", "-1000", "1e-9", "1e30", "1e-150",
                   "-1e-150", "1e150", "1.3e154", "-1.3e154", "3e-162", "-3e-162"]
CLI_STEPS = [
    # a --tol NAME that matches no check is a usage error: exit exactly 2
    ("Unknown tolerance name", ["verify", "--suite", "core", "--tol", "no_such_check=1"], 2),
    # the certificate is the unit one (lam = 1) scaled by |lam|, so every lam
    # with 0 < lam^2 < inf exits 0, the chart's edges included
    *(("Catenoid certificates across scales", ["certify", "catenoid", f"--lam={lam}"], 0)
      for lam in CATENOID_SCALES),
    # a negative number in exponent notation is a value, not a flag: exit 0
    ("Negative values in the space form", ["certify", "catenoid", "--lam", "-1e-3"], 0),
    ("Negative values in the space form",
     ["export", "geodesic", "--y0", "-2.9066624484652692e-05", "--out", os.devnull], 0),
]


@pytest.mark.parametrize("step, argv, code", CLI_STEPS,
                         ids=[" ".join(argv) for _, argv, _ in CLI_STEPS])
def test_cli_step_exit_code(step, argv, code, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == code, step


# Three former workflow steps that run the CLI end to end: each argv runs as
# ``python -W error -m h1geom.cli ARGV`` in a subprocess with PYTHONPATH=src,
# so a warning anywhere on the way fails it, as it failed the step.
SRC = Path(__file__).resolve().parent.parent / "src"
CATALOG = ["vertical_plane", "plane", "paraboloid", "helicoid", "catenoid"]


def _cli_process(*argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", "-m", "h1geom.cli", *argv],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=False)


def test_verify_suites_step():
    # "Verify suites": a numpy warning on the way fails it
    proc = _cli_process("verify", "--suite", "all")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("surface", CATALOG)
def test_export_every_catalog_surface_step(surface):
    # "Export every catalog surface": every --surface choice, vertical_plane
    # included, exits 0
    proc = _cli_process("export", "surface-grid", "--surface", surface)
    assert proc.returncode == 0, proc.stderr


def test_export_fields_are_their_own_17g_form_step(tmp_path):
    # "Export fields are their own %.17g form": every field f of every catalog
    # surface and of a geodesic satisfies format(float(f), ".17g") == f, so a
    # repr or a shorter round-trip form fails
    argvs = [("export", "surface-grid", "--surface", s, "--out", str(tmp_path / f"{s}.csv"))
             for s in CATALOG]
    argvs.append(("export", "geodesic", "--num", "2000", "--out", str(tmp_path / "geodesic.csv")))
    for argv in argvs:
        proc = _cli_process(*argv)
        assert proc.returncode == 0, proc.stderr
        rows = Path(argv[-1]).read_text(encoding="utf-8").splitlines()[1:]
        bad = [f for row in rows for f in row.split(",") if format(float(f), ".17g") != f]
        assert rows and not bad, f"{argv[-1]}: {len(rows)} rows, not in %.17g form: {bad[:5]}"


def test_negative_word_is_still_a_flag():
    assert run(["certify", "catenoid", "--lam", "-x"]) == 2


def test_parser_reuse_keeps_no_options(tmp_path):
    # an override on one call does not leak into the next call's report
    first, plain, fresh = (tmp_path / f"r{i}.txt" for i in range(3))
    cli._parser.cache_clear()
    assert run(["verify", "--suite", "core", "--tol", "group_associativity=1",
                "--out", str(first)]) == 0
    assert "# tolerance override: group_associativity=1\n" in first.read_text()
    assert run(["verify", "--suite", "core", "--out", str(plain)]) == 0
    cli._parser.cache_clear()
    assert run(["verify", "--suite", "core", "--out", str(fresh)]) == 0
    assert "# tolerance override" not in plain.read_text()
    assert plain.read_bytes() == fresh.read_bytes()


def test_parser_reuse_after_usage_error(tmp_path, capsys):
    assert run(["verify", "--suite", "bogus"]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "invalid choice: 'bogus'" in cap.err
    out = tmp_path / "c.txt"
    assert run(["certify", "helicoid", "--R", "3", "--out", str(out)]) == 0
    assert "Q_value=" in out.read_text()
    assert capsys.readouterr().err == ""


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    for argv in (["certify", "h2"], ["frobnicate"], ["certify", "helicoid", "--R", "2"],
                 ["verify", "--suite", "core", "--tol", "nonsense"]):
        run([*argv, "--out", str(tmp_path / "o.txt")])
    assert len(built) == 1
    assert real() is not real()  # build_parser still returns a fresh parser


def test_parser_choices_are_the_engine_lists():
    # the parser states its choices so that building it imports no engine
    assert list(cli.SUITE_NAMES) == list(verify.SUITES)
    assert list(cli.SURFACE_NAMES) == list(surfaces.CATALOG)
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    kinds = next(a for a in sub["export"]._actions if a.dest == "kind").choices
    suite, = (a for a in sub["verify"]._actions if a.dest == "suite")
    surface, = (a for a in kinds["surface-grid"]._actions if a.dest == "surface")
    assert suite.choices == [*verify.SUITES, "all"]
    assert surface.choices == list(surfaces.CATALOG)


def test_pitch2_search_runs_once_per_process(tmp_path, monkeypatch):
    searches = []
    real = stability.certify_instability_h2
    # the CLI imports the search when it first runs one, so it reads the
    # stability module's binding
    monkeypatch.setattr(stability, "certify_instability_h2",
                        lambda: searches.append(1) or real())
    cli._h2_certificate.cache_clear()
    outs = [tmp_path / name for name in ("h2.txt", "helicoid.txt")]
    assert run(["certify", "h2", "--out", str(outs[0])]) == 0
    assert run(["certify", "helicoid", "--R", "3", "--out", str(outs[1])]) == 0
    assert len(searches) == 1
    # the reused certificate is the one a fresh search finds
    assert outs[0].read_text() == real().to_text()
    assert f"base_Q_value={cli._fmt(real().Q_value)}\n" in outs[1].read_text()
    cli._h2_certificate.cache_clear()


def _assert_usage_error(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_export_helicoid_nonpositive_pitch(tmp_path, capsys):
    _assert_usage_error(["export", "surface-grid", "--surface", "helicoid", "--R", "-1",
                         "--out", str(tmp_path / "g.csv")], capsys)


def test_export_catenoid_zero_lam(tmp_path, capsys):
    _assert_usage_error(["export", "surface-grid", "--surface", "catenoid", "--lam", "0",
                         "--out", str(tmp_path / "g.csv")], capsys)


def test_certify_catenoid_has_no_kmax(tmp_path, capsys):
    out = tmp_path / "c.txt"
    assert run(["certify", "catenoid", "--kmax", "4", "--out", str(out)]) == 2
    assert "unrecognized arguments: --kmax 4" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def fresh_catenoid_unit():
    """An empty unit catenoid cache before and after the test, so that
    ``certify catenoid`` reads a patched ``stability``."""
    cli._catenoid_unit_certificate.cache_clear()
    yield
    cli._catenoid_unit_certificate.cache_clear()


def test_certify_catenoid_not_found(tmp_path, capsys, monkeypatch, fresh_catenoid_unit):
    # a nonnegative index value on the unit catenoid is a failure at every
    # lam, with one line and no file
    monkeypatch.setattr(stability, "ruled_index_value", lambda lam, quad: 0.5)
    out = tmp_path / "c.txt"
    assert run(["certify", "catenoid", "--lam", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: I(u, u) = 0.5 is not negative on the unit catenoid lam=1\n"
    assert not out.exists()


def test_certify_catenoid_below_singular_tol(tmp_path, capsys):
    # the ruling form reads no frame, so no SINGULAR_TOL gate: a waist radius
    # whose min |N_h| ~ 2|lam| falls under it certifies; a lam whose square
    # underflows is a usage error
    out = tmp_path / "c.txt"
    assert run(["certify", "catenoid", "--lam=4e-10", "--out", str(out)]) == 0
    text = out.read_text()
    assert "surface=catenoid lam=4.0000000000000001e-10" in text
    cert = InstabilityCertificate.from_text(text)
    assert cert.Q_value < 0.0 and cert.Q_value_doubled < 0.0
    out.unlink()
    _assert_usage_error(["certify", "catenoid", "--lam=1e-170", "--out", str(out)], capsys)
    assert not out.exists()


def test_export_bad_inputs_rejected_up_front(tmp_path, capsys):
    out = tmp_path / "e.csv"
    cases = [["geodesic", "--num", "-1"], ["geodesic", "--smax", "inf"],
             ["geodesic", "--x0", "inf"], ["geodesic", "--smin", "nan"],
             ["surface-grid", "--surface", "helicoid", "--R", "inf"],
             ["surface-grid", "--surface", "plane", "--a", "nan"],
             ["surface-grid", "--surface", "catenoid", "--lam", "1e200"],
             ["surface-grid", "--surface", "catenoid", "--lam", "1e-170"]]
    for case in cases:
        _assert_usage_error(["export", *case, "--out", str(out)], capsys)
        assert not out.exists(), case


@pytest.mark.parametrize("argv", [["verify", "--suite", "core"],
                                  ["export", "geodesic", "--num", "3"],
                                  ["certify", "h2"]])
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    # a missing directory, or a directory as the path: one line naming it
    for path in (tmp_path / "missing" / "o.txt", tmp_path):
        assert str(path) in _assert_usage_error([*argv, "--out", str(path)], capsys)
    assert not (tmp_path / "missing").exists()


def test_export_negative_grid_counts(tmp_path, capsys):
    out = tmp_path / "g.csv"
    for n1, n2 in (("-1", "5"), ("5", "-1"), ("-3", "-3")):
        _assert_usage_error(["export", "surface-grid", "--surface", "catenoid",
                             "--n1", n1, "--n2", n2, "--out", str(out)], capsys)
        assert not out.exists(), (n1, n2)
    assert run(["export", "surface-grid", "--surface", "catenoid", "--n1", "0", "--n2", "5",
                "--out", str(out)]) == 0
    assert out.read_text() == "u1,u2,x,y,t,Nh,NT,BZS,H,q,area_density\n"


def test_export_grid_overflow_fails_at_first_point(tmp_path, capsys):
    # the scalar loop fails at (0, 332.3...) although cosh(1000) overflows
    # first in a whole-grid scan
    out = tmp_path / "g.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["export", "surface-grid", "--surface", "catenoid", "--lam", "1",
                    "--u2max", "1000", "--n1", "3", "--n2", "3", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: chart is not an immersion at (0.0, 332.3333333333333)\n"
    assert not out.exists()


def test_export_late_block_failure_writes_nothing(tmp_path, capsys):
    # W^2 = (1/R - R s^2)^2 + R^2 s^2 first overflows in u1 row 33 of 41, at
    # CSV row 33 * 41 = 1353, in the second block: the blocks before it were
    # evaluated, yet no file is written and the message names the first point
    assert 33 * 41 > cli.EXPORT_BATCH
    out = tmp_path / "g.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["export", "surface-grid", "--surface", "helicoid", "--R", "2",
                    "--u1min", "0", "--u1max", "1e77", "--n1", "40", "--n2", "40",
                    "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == ("numerical failure: chart is not an immersion at "
                   f"({1e77 * 33 / 40!r}, -1.5707963267948966)\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, rows", [
    (["export", "surface-grid", "--surface", "plane", "--n1", "100000", "--n2", "100000"],
     10000200001),
    (["export", "geodesic", "--num", "1000000000000"], 1000000000001)])
def test_export_too_large_to_allocate_is_a_config_error(tmp_path, monkeypatch, capsys, argv,
                                                          rows):
    # numpy raises MemoryError (_ArrayMemoryError) for a value array that
    # cannot be allocated; the stand-in raises it without allocating
    def too_large(total, columns):
        assert total == rows
        raise MemoryError(f"Unable to allocate an array of {total} rows")

    monkeypatch.setattr(cli, "_csv_blocks", too_large)
    out = tmp_path / "big.csv"
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: an export of {rows} rows does not fit "
                                       "in memory\n")
    assert not out.exists()


def test_export_grid_range_overflow(tmp_path):
    # (u2max - u2min) overflows: the grid values are not finite
    out = tmp_path / "g.csv"
    assert _exits_cleanly(["export", "surface-grid", "--surface", "helicoid", "--R", "700",
                           "--u2min", "1e308", "--n1", "5", "--n2", "3",
                           "--out", str(out)]) == 3
    assert not out.exists()


def test_certify_helicoid_nonfinite_pitch(tmp_path, capsys):
    for r in ("inf", "nan"):
        _assert_usage_error(["certify", "helicoid", "--R", r,
                             "--out", str(tmp_path / "c.txt")], capsys)
        assert not (tmp_path / "c.txt").exists()


def test_verify_unreadable_config(tmp_path, capsys):
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"tol=\xff\n")
    for path in (tmp_path / "missing.cfg", tmp_path, binary):
        _assert_usage_error(["verify", "--suite", "core", "--config", str(path)], capsys)


def test_verify_nonfinite_tolerance(capsys):
    for v in ("nan", "inf"):
        _assert_usage_error(["verify", "--suite", "core", "--tol",
                             f"group_associativity={v}"], capsys)


def _assert_numeric_failure(argv, capsys):
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


def test_certify_helicoid_subnormal_pitch(tmp_path, capsys):
    # 2/R overflows: every scaled field would be infinite
    _assert_numeric_failure(["certify", "helicoid", "--R", "1e-320",
                             "--out", str(tmp_path / "c.txt")], capsys)
    assert not (tmp_path / "c.txt").exists()


def test_certify_helicoid_huge_pitch(tmp_path, capsys):
    # e^{3 lam} underflows: the scaled Q would be -0 against a negative base
    _assert_numeric_failure(["certify", "helicoid", "--R", "1e300",
                             "--out", str(tmp_path / "c.txt")], capsys)
    assert not (tmp_path / "c.txt").exists()


@pytest.mark.parametrize("R", ["1e-300", "1e-200"])
def test_certify_helicoid_tiny_pitch_names_R(tmp_path, capsys, R):
    # e^{3 lam} overflows, with 2/R still finite: the same line as 2/R = inf
    out = tmp_path / "c.txt"
    assert run(["certify", "helicoid", "--R", R, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"numerical failure: scaled certificate at "
                                       f"R={float(R)!r} is not finite\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [(["catenoid", "--R", "2"], "--R"),
                                          (["h2", "--R", "3"], "--R"),
                                          (["helicoid", "--lam", "5"], "--lam")])
def test_certify_rejects_an_option_its_target_does_not_read(tmp_path, capsys, argv, option):
    out = tmp_path / "c.txt"
    err = _assert_usage_error(["certify", *argv, "--out", str(out)], capsys)
    assert err == f"config error: certify {argv[0]} takes no {option}\n"
    assert not out.exists()


def test_certify_catenoid_reads_lam_1_by_default(tmp_path):
    plain, one = tmp_path / "plain.txt", tmp_path / "one.txt"
    assert run(["certify", "catenoid", "--out", str(plain)]) == 0
    assert run(["certify", "catenoid", "--lam", "1", "--out", str(one)]) == 0
    assert plain.read_bytes() == one.read_bytes()


def _exits_cleanly(argv):
    """Run ``argv``; assert a documented exit code, no traceback, no Python
    warning, and at most one stderr line (exactly one for exits 2 and 3)."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err
    assert not caught, (argv, [str(w.message) for w in caught])
    assert err.count("\n") <= 1 and err.endswith("\n") == bool(err), (argv, err)
    if code in (2, 3):
        assert err.count("\n") == 1, (argv, err)
    return code


@settings(max_examples=60, deadline=None)
@given(st.floats())
@example(5e-324)
@example(1e-320)
@example(1e-300)
@example(1e300)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(-2.0)
@example(0.0)
@example(4.0)
def test_certify_helicoid_fuzz_pitch(tmp_path_factory, R):
    out = tmp_path_factory.mktemp("fuzz") / "c.txt"
    if _exits_cleanly(["certify", "helicoid", f"--R={R!r}", "--out", str(out)]) == 0:
        for line in out.read_text().splitlines():
            key, _, val = line.partition("=")
            try:
                num = float(val)
            except ValueError:
                continue
            assert math.isfinite(num), (R, line)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["helicoid", "catenoid"]), st.floats(), st.floats(),
       st.integers(min_value=-2, max_value=6))
@example("helicoid", 1e-300, 1.0, 3)
@example("catenoid", 2.0, 1e200, 3)
@example("catenoid", 2.0, 5e-324, 3)
@example("catenoid", 2.0, math.nan, 0)
def test_export_surface_grid_fuzz(tmp_path_factory, surface, R, lam, n1):
    out = tmp_path_factory.mktemp("fuzz") / "g.csv"
    _exits_cleanly(["export", "surface-grid", "--surface", surface, f"--R={R!r}",
                    f"--lam={lam!r}", f"--n1={n1}", "--n2=2", "--out", str(out)])


@settings(max_examples=40, deadline=None)
@given(st.floats())
@example(1e-300)
@example(5e-324)
@example(1e300)
@example(math.nan)
@example(-math.inf)
@example(1e-150)
@example(-1e150)
@example(6.3441001225164e+57)  # a weighted quadrature term overflows
def test_certify_catenoid_fuzz(tmp_path_factory, lam):
    out = tmp_path_factory.mktemp("fuzz") / "c.txt"
    _exits_cleanly(["certify", "catenoid", f"--lam={lam!r}", "--out", str(out)])


@pytest.mark.parametrize("lam", [1e-150, -1e150])
def test_certify_catenoid_extreme_lam_certifies(tmp_path, capsys, lam):
    # lam^2 is a float, so the ruling form is too: Q / |lam| is the value
    # at lam = 1, at both resolutions
    out = tmp_path / "c.txt"
    assert run(["certify", "catenoid", f"--lam={lam!r}", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    cert = InstabilityCertificate.from_text(out.read_text())
    ref = stability.ruled_index_value(1.0, stability.NOSING_QUAD)
    for q in (cert.Q_value, cert.Q_value_doubled):
        assert abs(q / abs(lam) - ref) <= 1e-13 * abs(ref)


# |lam| near the largest and the smallest whose square is a positive finite float
CHART_EDGES = ["1e154", "-1e154", "1.3e154", "-1.3e154", "3e-162", "-3e-162"]


@pytest.mark.parametrize("lam", CHART_EDGES)
def test_certify_catenoid_at_the_chart_edges_certifies(tmp_path, capsys, lam):
    # Q is |lam| Q(1), one rounded product, so it is finite and negative at
    # every lam the chart accepts: no stderr line, no warning
    out = tmp_path / "c.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["certify", "catenoid", f"--lam={lam}", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    cert = InstabilityCertificate.from_text(out.read_text())
    assert cert.Q_value < 0.0 and cert.Q_value_doubled < 0.0
    assert cert.k == 2.0 * abs(float(lam))


def test_certify_catenoid_is_the_library_certificate(tmp_path):
    # the CLI scales its per-process unit certificate by the same function
    # as scaled_catenoid_certificate of certify_instability_nosing: the same
    # bytes at every scale
    out = tmp_path / "c.txt"
    lams = [sign * 10.0 ** j for j in range(-161, 154) for sign in (1.0, -1.0)]
    for lam in lams + [float(edge) for edge in CHART_EDGES]:
        assert run(["certify", "catenoid", f"--lam={lam!r}", "--out", str(out)]) == 0
        assert out.read_text() == stability.scaled_catenoid_certificate(
            stability.certify_instability_nosing(), lam).to_text(), lam


def test_unit_catenoid_is_confirmed_once_per_process(tmp_path, monkeypatch,
                                                      fresh_catenoid_unit):
    calls = []
    real = stability.ruled_index_value
    monkeypatch.setattr(stability, "ruled_index_value",
                        lambda lam, quad: calls.append((lam, quad)) or real(lam, quad))
    out = tmp_path / "c.txt"
    for lam in ("1", "-2.5", "0.25", "4", "1e-100", "-1.3e154", "3e-162", "1"):
        assert run(["certify", "catenoid", f"--lam={lam}", "--out", str(out)]) == 0
        assert run(["certify", "helicoid", "--R", "3", "--out", str(out)]) == 0
    assert calls == [(1.0, stability.NOSING_QUAD), (1.0, stability.NOSING_QUAD.doubled())]


@pytest.mark.parametrize("lam", ["1e-9", "-1e-9", "1e-4", "1e5", "1e30"])
def test_certify_catenoid_disagreeing_doubling_fails(tmp_path, capsys, monkeypatch, lam,
                                                     fresh_catenoid_unit):
    # Q < 0 at 1x and 2x, but the two differ by more than 1e-6 relative
    monkeypatch.setattr(stability, "ruled_index_value", lambda lam, quad: -1.0
                        if quad == stability.NOSING_QUAD else -1.0 - 2e-6)
    out = tmp_path / "c.txt"
    assert run(["certify", "catenoid", f"--lam={lam}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "at 2x differ by more than 1e-06 relative" in err
    assert not out.exists()


def test_certify_catenoid_support_outside_the_chart_is_a_usage_error(tmp_path, capsys,
                                                                     monkeypatch,
                                                                     fresh_catenoid_unit):
    # a test function wider than the chart's a-range (-pi, pi) is refused, not clipped
    monkeypatch.setattr(stability, "NOSING_PHI", stability.cosine_bump(0.0, 4.0))
    out = tmp_path / "c.txt"
    err = _assert_usage_error(["certify", "catenoid", "--lam=2", "--out", str(out)], capsys)
    assert "(-4.0, 4.0)" in err and "is not inside the domain" in err
    assert not out.exists()


@settings(max_examples=40, deadline=None)
@given(st.floats())
@example(5e-324)
@example(-0.0)
@example(math.nan)
@example(math.inf)
def test_verify_tolerance_fuzz(tol):
    _exits_cleanly(["verify", "--suite", "core", "--tol", f"group_associativity={tol!r}"])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(), min_size=8, max_size=8), st.integers(min_value=-3, max_value=20))
@example([0.0] * 7 + [math.inf], 4)
@example([math.nan] + [0.0] * 7, 4)
@example([1e300, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1e300], 2)
@example([0.0, 0.0, 0.0, 0.0, 0.0, 1e300, -1e300, 1e300], 3)
@example([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], -1)
def test_export_geodesic_fuzz(tmp_path_factory, vals, num):
    out = tmp_path_factory.mktemp("fuzz") / "g.csv"
    names = ("x0", "y0", "t0", "va", "vb", "vc", "smin", "smax")
    _exits_cleanly(["export", "geodesic", *(f"--{n}={v!r}" for n, v in zip(names, vals)),
                    f"--num={num}", "--out", str(out)])


def _parse_or_config_error(text):
    """The certificate in ``text``, or None when it raises ``ConfigError``;
    any other exception fails the test."""
    try:
        return InstabilityCertificate.from_text(text)
    except ConfigError:
        return None


@settings(max_examples=300, deadline=None)
@given(st.text())
@example("")
@example("=")
@example("quad_points_per_cell=16\nquad_cells=8,8,8")
@example("quad_points_per_cell=" + "1" * 5000)
def test_certificate_parse_fuzz_random_text(text):
    _parse_or_config_error(text)


@pytest.fixture(scope="module")
def catenoid_certificate(tmp_path_factory):
    out = tmp_path_factory.mktemp("cert") / "c.txt"
    assert run(["certify", "catenoid", "--out", str(out)]) == 0
    return out.read_text()


_VALUES = st.one_of(st.text(), st.floats().map(repr), st.integers().map(str),
                    st.tuples(st.integers(), st.integers()).map(lambda t: f"{t[0]},{t[1]}"),
                    st.sampled_from(["", ",", "1e999", "-nan", "16", "8,8,8", "0x10"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0),
                          st.sampled_from(["drop", "value", "key", "repeat"]), _VALUES),
                max_size=4))
@example([])
def test_certificate_parse_fuzz_key_edits(catenoid_certificate, edits):
    # key-by-key edits of a real certificate file: drop a line, replace its
    # value or its key, or repeat its key with a new value further down
    lines = catenoid_certificate.splitlines()
    for i, how, new in edits:
        if not lines:
            break
        i %= len(lines)
        key, _, val = lines[i].partition("=")
        if how == "drop":
            del lines[i]
        elif how == "value":
            lines[i] = f"{key}={new}"
        elif how == "key":
            lines[i] = f"{new}={val}"
        else:
            lines.append(f"{key}={new}")
    text = "".join(line + "\n" for line in lines)
    cert = _parse_or_config_error(text)
    if not edits:
        assert cert.to_text() == text
