"""Design guards: one implementation per idea, checked on the library's own
sources.

A grep guard is one row of ``GREP_GUARDS``: ``grep`` basic regular
expressions, any one of which flags a line, the files of ``src/h1geom``
that may match, and the message.  The AST guards are functions.  The
``step`` of a guard is its name in the test ids and in the docs.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import h1geom

SRC = Path(__file__).resolve().parent.parent / "src" / "h1geom"


class Guard(NamedTuple):
    step: str  # the workflow step
    patterns: tuple[str, ...]  # grep basic regular expressions
    message: str
    allowed: tuple[str, ...] = ()  # paths under src/h1geom that may match
    searched: str = "**/*.py"  # the files searched, a glob under src/h1geom
    planted: tuple[str, ...] = ()  # one violating line per pattern


GREP_GUARDS = [
    Guard("One Gauss node generator", ("NODES_WEIGHTS",),
          "only numerics.py may read NODES_WEIGHTS", ("numerics.py", "_gauss.py"),
          planted=("from ._gauss import NODES_WEIGHTS",)),
    Guard("One RK4 stepper", ("k4 =",), "only numerics.py may write an RK4 stage",
          ("numerics.py",), planted=("    k4 = vel(u + h * k3)",)),
    # every derivative is read off one evaluation on Taylor numbers
    # (numerics.Taylor): no stencil, step or difference quotient is left, and
    # no limit is extrapolated (the boundary flux is its value on the helices)
    Guard("One derivative",
          ("central_quotient", "central_diff", "DiffSpec", "Z_DIFF", "R_STENCIL", "_fd_gradient",
           "curve_samples"),
          "take derivatives on Taylor numbers (numerics.Taylor), not by differences",
          planted=("from .numerics import central_quotient", "d1 = central_diff(f, x, spec)",
                   "spec = DiffSpec(1e-4, 1)", "Z_DIFF = 1e-4", "R_STENCIL = 1e-3",
                   "g = _fd_gradient(fn, p)", "pts = curve_samples(chart, u, h, 4, which)")),
    Guard("One derivative", ("richardson(",),
          "take derivatives on Taylor numbers and limits at their point, not by extrapolation",
          planted=("    d = richardson([quotient(h), quotient(h / 2)])",)),
    # every curve walk steps through surfaces.tangent_field_states, the
    # one-point walk; integrate_tangent_field takes its first states
    Guard("One curve walk", ("integrate_tangent_field(", "tangent_field_states("),
          "only surfaces.py may call integrate_tangent_field or tangent_field_states",
          ("surfaces.py",),
          planted=("pts = integrate_tangent_field(chart, u0, 1.0, 8)",
                   "states = tangent_field_states(chart, u0, h)")),
    # every batched kernel raises through numerics.raise_first_failure;
    # isfinite(...).all() checks a whole array without naming its first bad element
    Guard("One first-failure rule",
          ("np.flatnonzero(", "np.argmax(bad", "np.argmin(ok", r"isfinite(.*)\.all()"),
          "only numerics.py may search a batch for its first failure", ("numerics.py",),
          planted=("i = np.flatnonzero(bad)[0]", "i = np.argmax(bad)", "i = np.argmin(ok)",
                   "if not np.isfinite(v).all():")),
    # every quadrature sum goes through numerics.kahan_sum, the one the tracer counts
    Guard("One summation", ("fsum",), "only numerics.py may call fsum", ("numerics.py",),
          planted=("total = math.fsum(terms)",)),
    # numerics.kahan_sum sums a float array exactly in numpy, by binary
    # exponent: no caller turns its terms into a list first, and no second
    # exact sum splits floats into mantissas
    Guard("One exact sum", ("kahan_sum(.*tolist()",),
          "pass kahan_sum the array: it sums arrays exactly without a list",
          planted=("    return kahan_sum(wv.tolist())",)),
    Guard("One exact sum", ("frexp(",), "only numerics.py may split floats with frexp",
          ("numerics.py",), planted=("m, e = np.frexp(values)",)),
    # every piecewise quadrature is one composite rule of numerics, cut at its cut points
    Guard("One cell split", ("split_cells(",), "only numerics.py may split a rule into pieces",
          ("numerics.py",), planted=("pieces = split_cells(cuts, 4)",)),
    # every ruling frame quantity of a seed chart comes from its ruling_coefficients
    # through stability.RulingFrame: no hand-written helicoid frame; and
    # SeedRuledChart.ruling_coefficients(a, m) reads them off the seed, so
    # no class assigns them and no second helper returns them
    Guard("One seed closed form", (r"R \* R - 4\.0", r"1\.0 / R - R"),
          "read the helicoid frame off RulingFrame(HelicoidChart(R), s)",
          planted=("w = R * R - 4.0 * s", "b = 1.0 / R - R")),
    Guard("One seed closed form", ("ruling_coefficients *[=:]", "_ruling_coefficients"),
          "(th', b, c0) come from SeedRuledChart.ruling_coefficients; set uniform_rulings",
          planted=("    ruling_coefficients = (1.0, 0.0, 1.0)", "def _ruling_coefficients(a):")),
    # the singular points of a seed chart are the roots of C(s) = th' s^2 +
    # 2 b s + c0 of its rulings, from SeedRuledChart.ruling_roots, the
    # quadratic formula without cancellation
    Guard("One ruling root", ("copysign(.*sqrt(", r"sqrt(b \* b - "),
          "only surfaces.py may compute the roots of C: call SeedRuledChart.ruling_roots",
          ("surfaces.py",), planted=("q = -(b + math.copysign(math.sqrt(disc), b))",
                                     "s = (-b + np.sqrt(b * b - tp * c0)) / tp")),
    # every frame, of one point or many, is a surfaces.SurfaceFrames, which
    # computes its shape terms on first read: no second eager frame path
    # (test_one_frame_package pins the callers inside surfaces.py)
    Guard("One frame package", ("_shape_terms(", "SurfaceFrames("),
          "only surfaces.py may build a SurfaceFrames or call _shape_terms", ("surfaces.py",),
          planted=("terms = _shape_terms(*head)", "fr = SurfaceFrames(*head)")),
    # every flow goes through geodesics._flow_point, which takes f, g, h
    # from its caller there; verify.py calls helpers_fgh in check_fgh
    Guard("One geodesic flow", ("helpers_fgh(",),
          "only geodesics.py may evaluate f, g, h for a flow", ("geodesics.py", "verify.py"),
          planted=("f, g, h = helpers_fgh(2.0 * lam * s)",)),
    # the area witness deforms along straight lines; exp_euclidean stays
    # public API with no caller in the library
    Guard("One geodesic ladder", ("exp_euclidean(",), "only geodesics.py may call exp_euclidean",
          ("geodesics.py",), planted=("ends = list(exp_euclidean(p, v, params))",)),
    # every verify accumulator goes through verify._worst, which keeps a
    # NaN sample: max(worst, nan) drops it, and the check would pass
    Guard("One worst residual", ("max(worst",), "accumulate verify residuals with _worst, not max",
          searched="verify.py", planted=("    worst = max(worst, err)",)),
    # the index form is A'' of the horizontal deformation F + e f nu_h
    # (stability.variation_samples): the Riemannian density
    # |N_h|^-1 {Z(u) Z(v) - q u v} dA is written nowhere, and stability.py
    # reads no Riemannian area element (q: test_index_form_reads_no_q)
    Guard("One index-form integrand", (r"zu \* zv", r"q \* u \* v"),
          "no file may write the Riemannian index-form density",
          planted=("dens = zu * zv", "pot = q * u * v")),
    Guard("One index-form integrand", ("riem_area",),
          "stability.py may not read the Riemannian area element", searched="stability.py",
          planted=("    return dens / fr.Nh_norm * fr.riem_area",)),
    # the A'', A' and A densities of a straight-line deformation F + e V are
    # the e-polynomials of one function, stability.variation_samples
    # (test_one_second_variation_density pins its callers)
    Guard("One second-variation density", ("_product(",),
          "only stability.py may multiply the e-polynomials of a deformation",
          ("stability.py",), planted=("    x2 = _product(b1, c2, 2) - _product(c1, b2, 2)",)),
    # a Jacobi field is differentiated exactly from its initial data
    # (geodesics.jacobi_fields, one complex-step flow): no step across a
    # geodesic family or along it
    Guard("No step across a geodesic family",
          ("EPS_STEP", "JACOBI_S_STEP", "stencil_nodes(", "stencil_d1(",
           "covariant_derivative_along("),
          "Jacobi fields take no step: call jacobi_fields with V(0) and V'(0)",
          planted=("EPS_STEP = 1e-5", "JACOBI_S_STEP = 1e-2", "outer = stencil_nodes(S, h)",
                   "V = stencil_d1(q, h)", "dzz = covariant_derivative_along(z, z, 0.0, h)")),
    # every CSV cell is formatted by cli._column_cells, once per distinct
    # value of a column of the whole export, in numpy by the cell kernel
    # cli._cell_kernel; Python's %.17g prints only what the kernel leaves
    # (exponents outside cli.CELL_EXPONENTS, zeros, infinities, NaNs)
    Guard("One CSV cell formatter", (r"%\.17g",),
          "CSV cells go through cli._cell_kernel: only cli.py may format with the %.17g template",
          ("cli.py",), planted=('    text = ("%.17g," * len(keys) % tuple(vals)).split(",")',)),
    # CSV cells stay fixed-width numpy texts from the cell kernel to each
    # output block (cli._csv_blocks): no object array of cells and no join
    # of per-cell bytes objects
    Guard("No Python object per CSV cell", ("dtype=object", 'b"".join('),
          "keep CSV cells in S arrays: gather them per block and delete the NUL padding",
          searched="cli.py",
          planted=("    return np.array(_cell_texts(keys, sep), dtype=object)[inv]",
                   '    return [b"".join(cells[lo:lo + EXPORT_BATCH].ravel().tolist())')),
]


def _bre(pattern: str) -> re.Pattern:
    """A grep basic regular expression as a Python one: in a BRE the
    characters ( ) { } + ? | are literal."""
    return re.compile(re.sub(r"(?<!\\)([(){}+?|])", r"\\\1", pattern))


def _violations(guard: Guard) -> list[str]:
    """``path:line`` of every line of the searched files, outside the allowed
    ones, that one of the guard's patterns matches."""
    regexes = [_bre(p) for p in guard.patterns]
    bad = []
    for path in sorted(SRC.glob(guard.searched)):
        name = path.relative_to(SRC).as_posix()
        if name in guard.allowed:
            continue
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if any(r.search(line) for r in regexes):
                bad.append(f"{name}:{n}")
    return bad


@pytest.mark.parametrize("guard", GREP_GUARDS, ids=lambda g: f"{g.step}:{g.patterns[0]}")
def test_grep_guard(guard):
    bad = _violations(guard)
    assert not bad, f"{guard.message}: {', '.join(bad)}"


@pytest.mark.parametrize("guard", GREP_GUARDS, ids=lambda g: f"{g.step}:{g.patterns[0]}")
def test_grep_guard_flags_its_planted_lines(guard):
    # every pattern is alive: it flags the violation it is there for
    assert len(guard.planted) == len(guard.patterns)
    for pattern, line in zip(guard.patterns, guard.planted):
        assert _bre(pattern).search(line), (pattern, line)


def _found_outside(found, allowed: set, with_file: bool = False,
                   searched: str = "*.py") -> list[str]:
    """The AST nodes for which ``found`` holds in the files ``searched`` of
    src/h1geom outside the dotted scopes ``allowed``: ``(file, scope)`` pairs
    when ``with_file``."""
    bad = []

    def visit(node, where, path):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{where}.{child.name}" if where else child.name
            if found(child) and ((path.name, where) if with_file else where) not in allowed:
                bad.append(f"{path.name}:{child.lineno} in {where or '<module>'}")
            visit(child, inner, path)

    for path in sorted(SRC.glob(searched)):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path)
    return bad


def _calls_outside(func_name: str, allowed: set, with_file: bool = False) -> list[str]:
    """Calls of ``func_name`` (by name or attribute) in src/h1geom outside the
    dotted scopes ``allowed``: ``(file, scope)`` pairs when ``with_file``."""
    return _found_outside(lambda node: isinstance(node, ast.Call) and func_name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)), allowed, with_file)


def test_one_ruled_jet():
    # RuledChart is the seed chart of its S-curve, so every ruled jet is
    # SeedRuledChart._jet_parts, and every chart builds its jet as plain
    # tuples (Chart._jet_floats), arrays (Chart.jets) or Taylor numbers
    # (surfaces._taylor_head): only the public Chart.jet and Chart.jets,
    # _taylor_head, and surface_frame from the float head, build a
    # ChartJets, and nothing builds a ChartJet
    lines = (SRC / "surfaces.py").read_text(encoding="utf-8").splitlines()
    assert any(line.startswith("class RuledChart(SeedRuledChart):") for line in lines), \
        "RuledChart must be a SeedRuledChart"
    bad = (_calls_outside("ChartJet", set())
           + _calls_outside("ChartJets", {"Chart.jet", "Chart.jets", "_taylor_head",
                                          "surface_frame"}))
    assert not bad, ("only Chart.jet, Chart.jets, _taylor_head and surface_frame may "
                     "build a jet: " + ", ".join(bad))


def test_one_frame_package():
    # the shape terms are computed in one place, SurfaceFrames._shape, on
    # first read; a SurfaceFrames is built by the two views and by
    # curve_frames, the frames along a curve on Taylor numbers, alone
    bad = _calls_outside("_shape_terms", {"SurfaceFrames._shape"})
    assert not bad, "only SurfaceFrames._shape may call _shape_terms: " + ", ".join(bad)
    bad = _calls_outside("SurfaceFrames", {"surface_frame", "surface_frames", "curve_frames"})
    assert not bad, ("only surface_frame, surface_frames and curve_frames may build a "
                     "SurfaceFrames: " + ", ".join(bad))


def test_one_chart_protocol():
    # a chart writes _jet_parts, and Chart alone turns it into jet,
    # _jet_floats and jets, whether by def or by a class-level assignment;
    # surfaces.py calls no surface_frame (the scalar view is built on the
    # frame head, and nothing in surfaces.py is built on the scalar view)
    # and geodesics.py builds no GeodesicArc
    calls = {"surfaces.py": "surface_frame", "geodesics.py": "GeodesicArc"}
    owners = {"jet": ("Chart",), "_jet_floats": ("Chart",), "jets": ("Chart",)}
    bad = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        banned = calls.get(path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    names = []
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        names = [item.name]
                    elif isinstance(item, (ast.Assign, ast.AnnAssign)) and item.value:
                        # a bare annotation (a dataclass field) assigns nothing
                        names = [n.id for n in ast.walk(item)
                                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
                    bad += [f"{path.name}:{item.lineno} {node.name}.{name}" for name in names
                            if node.name not in owners.get(name, (node.name,))]
            if isinstance(node, ast.Call) and banned and banned in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                bad.append(f"{path.name}:{node.lineno} calls {banned}")
    assert not bad, ("only Chart may define or assign jet, _jet_floats or jets, "
                     "surfaces.py may not call surface_frame, "
                     "geodesics.py may not call GeodesicArc: " + ", ".join(bad))


def test_one_second_variation_density():
    # index_form_I (through _polarized) and direct_variations integrate the
    # one density of a straight-line deformation; only it multiplies the
    # e-polynomials
    bad = (_calls_outside("variation_samples", {"_polarized", "direct_variations"})
           + _calls_outside("_product", {"variation_samples"}))
    assert not bad, ("only _polarized and direct_variations may call variation_samples, and "
                     "only variation_samples _product: " + ", ".join(bad))


def test_index_form_reads_no_q():
    # the index form reads no shape term: in stability.py only operator_L,
    # whose potential q is, reads a q
    bad = _found_outside(lambda node: isinstance(node, ast.Attribute) and node.attr == "q",
                         {"operator_L"}, searched="stability.py")
    assert not bad, "only stability.operator_L may read q: " + ", ".join(bad)


def test_one_check_declaration():
    # a verify check is declared once, by @check(suite, rows...) on a body
    # that returns its residuals: only the decorator builds a CheckResult
    bad = _calls_outside("CheckResult", {("verify.py", "check.declare.results")}, with_file=True)
    assert not bad, "only the verify.check decorator may build a CheckResult: " + ", ".join(bad)


ENGINES = ("core", "numerics", "geodesics", "surfaces", "stability", "verify")


def test_cli_start_up_loads_no_engine():
    # CLI start-up loads no engine: building the parser, as every command
    # does first, imports h1geom, h1geom.cli and h1geom.errors alone; each
    # command imports its own engine when it runs.  A fresh interpreter
    # compiles from source, as a process without cached bytecode does.
    code = ("import sys, h1geom.cli; h1geom.cli.build_parser(); "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('h1geom'))))")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent),
                                                         os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    loaded = proc.stdout.split()
    engines = [m for m in loaded if m.removeprefix("h1geom.") in ENGINES]
    assert not engines, "building the CLI parser imported " + ", ".join(engines)
    assert loaded == ["h1geom", "h1geom.cli", "h1geom.errors"]


@pytest.mark.parametrize("name", sorted(h1geom._SUBMODULE))
def test_package_name_resolves_to_its_submodule(name):
    ns = {}
    exec(f"from h1geom import {name}", ns)
    module = importlib.import_module(f"h1geom.{h1geom._SUBMODULE[name]}")
    assert ns[name] is getattr(module, name)
    assert getattr(h1geom, name) is ns[name]
    assert name in dir(h1geom) and name in h1geom.__all__


def test_package_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        h1geom.no_such_name
    with pytest.raises(ImportError):
        exec("from h1geom import no_such_name", {})
