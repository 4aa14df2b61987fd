"""Counting and timing wrappers around the h1geom layers.

The library binds its kernels with ``from .x import name``, so one function
object is reachable under several module attributes (``surfaces.surface_frame``
is also ``stability.surface_frame``, ``verify.surface_frame`` and
``cli.surface_frame``).  ``Tracer.install`` rebinds every such attribute,
including the values of module-level dicts such as ``verify.SUITES``, and
fails if any ``h1geom`` module still holds an unwrapped original afterwards.
``Tracer.uninstall`` puts every original back and fails if a wrapper is left.

Two kinds of wrapper exist.  A *span* wrapper times the call and keeps a
stack, so each span's self time is its duration minus the time of the traced
spans it caused; spans are aggregated per (function, parent) because the hot
kernels run 1e5-1e6 times per job.  A *count* wrapper only counts (calls,
quadrature nodes, summed terms, bytes written, constructions) and takes no
time stamps, so it does not split its caller's self time.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

MARK = "__bench_original__"

# Timed spans: (module, attribute).  Every ``check_*`` function of
# ``h1geom.verify`` is added at install time.
SPANS = [
    ("cli", "main"),
    ("verify", "run_suites"),
    ("verify", "run_core"), ("verify", "run_geodesics"),
    ("verify", "run_surfaces"), ("verify", "run_stability"),
    ("stability", "index_form_I"), ("stability", "second_variation_direct"),
    ("stability", "first_variation_direct"), ("stability", "q_form"),
    ("stability", "ruled_index_value"), ("stability", "jacobi_vertical_quadratic"),
    ("stability", "l_nh_closed"), ("stability", "operator_L"),
    ("stability", "certify_instability_h2"),
    ("stability", "certify_instability_nosing"),
    ("surfaces", "surface_frame"), ("surfaces", "integrate_tangent_field"),
    ("surfaces", "ruled_coordinates"), ("surfaces", "singular_locus"),
    ("surfaces", "area"),
    ("geodesics", "exp_euclidean"), ("geodesics", "exp_geodesic"),
    ("geodesics", "jacobi_field"),
    ("numerics", "integrate_2d"), ("numerics", "gauss_legendre_1d"),
]

# Suite runners are reported under the suite name the CLI uses.
SPAN_NAMES = {
    "verify.run_core": "verify.suite_core",
    "verify.run_geodesics": "verify.suite_geodesics",
    "verify.run_surfaces": "verify.suite_surfaces",
    "verify.run_stability": "verify.suite_stability",
}

# Check functions of the surfaces and stability suites, reported one by one.
CHECKS = [
    "check_frame_relations", "check_characteristic_derivatives", "check_zbzs",
    "check_helicoid_closed_forms", "check_minimality", "check_vertical_plane",
    "check_characteristic_rays", "check_ruled_charts", "check_singular_locus",
    "check_area_scaling",
    "check_lnh_closed_vs_direct", "check_lnh_sign_catenoid",
    "check_lnh_sign_helicoid", "check_indexform3", "check_discriminant",
    "check_jacobi_coefficients", "check_qform_regular", "check_bracket",
    "check_second_variation", "check_h2_certificate",
    "check_catenoid_certificate", "check_vertical_variation",
    "check_boundary_flux", "check_singular_curve_geometry",
]

STABILITY_OPS = [
    "index_form_I", "second_variation_direct", "first_variation_direct",
    "q_form", "ruled_index_value", "jacobi_vertical_quadratic", "l_nh_closed",
    "operator_L", "certify_instability_h2", "certify_instability_nosing",
]


def _h1geom_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "h1geom" or name.startswith("h1geom."))]


def _holders(obj):
    """Every (namespace, key) in an h1geom module that holds ``obj``: module
    attributes and the values of module-level dicts."""
    out = []
    for mod in _h1geom_modules():
        ns = vars(mod)
        for key, val in list(ns.items()):
            if val is obj:
                out.append((ns, key))
            elif type(val) is dict:
                out.extend((val, k) for k, v in val.items() if v is obj)
    return out


class CoverageError(RuntimeError):
    """A traced function is still reachable unwrapped, or a wrapper was left
    installed."""


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self):
        self.spans: dict[tuple[str, str | None], list[float]] = {}  # calls, s, child_s
        self.counts: dict[str, int] = {}
        self.top: list[dict] = []  # full spans from the check level up
        self._stack: list[list] = []
        self._patched: list[tuple[dict, str, object]] = []
        self._class_patched: list[tuple[type, str, object]] = []
        self._originals: list[object] = []
        self._seen_frames: set[int] = set()
        self._seen_curve: set[tuple[int, float]] = set()
        self._job_refs: list[object] = []
        self._h2_args: set[str] = set()
        self._t0 = perf_counter()

    # -- per-job state -------------------------------------------------------

    def begin_job(self) -> None:
        """Repeat and hit ratios count repeats within one job."""
        self._seen_frames.clear()
        self._seen_curve.clear()
        self._job_refs.clear()

    def _bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, before=None):
        stack = self._stack
        spans = self.spans
        full = name.startswith(("cli.", "verify."))
        top = self.top
        t_origin = self._t0

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
                if full:
                    top.append({"name": name, "parent": parent,
                                "start": t0 - t_origin, "end": t0 + dt - t_origin})

        setattr(wrapper, MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _count(self, fn, before):
        def wrapper(*args, **kwargs):
            before(args, kwargs)
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # -- counters computed from arguments ------------------------------------

    def _frame_seen(self, args, kwargs):
        chart, u = args[0], args[1] if len(args) > 1 else kwargs["u"]
        key = hash((id(chart), float(u[0]), float(u[1])))
        if key in self._seen_frames:
            self._bump("surfaces.surface_frame.repeats")
        else:
            self._seen_frames.add(key)
            self._job_refs.append(chart)  # keep id() unique within the job

    def _curve_seen(self, args, kwargs):
        chart, eps = args[0], args[1] if len(args) > 1 else kwargs["eps"]
        key = (id(chart), eps)
        self._bump("surfaces.RuledChart.curve_chart_point.calls")
        if key in self._seen_curve:
            self._bump("surfaces.RuledChart.curve_chart_point.hits")
        else:
            self._seen_curve.add(key)
            self._job_refs.append(chart)

    def _rk4_steps(self, args, kwargs):
        steps = args[3] if len(args) > 3 else kwargs["steps"]
        self._bump("surfaces.integrate_tangent_field.steps", steps)

    def _nodes_2d(self, args, kwargs):
        (a1, b1), (a2, b2) = args[1] if len(args) > 1 else kwargs["rect"]
        spec = args[2] if len(args) > 2 else kwargs["spec"]
        if a1 < b1 and a2 < b2:
            self._bump("numerics.integrate_2d.nodes",
                       spec.points_per_cell ** 2 * spec.cells[0] * spec.cells[1])

    def _nodes_1d(self, args, kwargs):
        # numerics._composite_1d(f, a, b, n_points, n_cells): one composite
        # pass of gauss_legendre_1d (several when the rule is adaptive).
        self._bump("numerics.gauss_legendre_1d.nodes", args[3] * args[4])

    def _kahan(self, args, kwargs):
        self._bump("numerics.kahan_sum.calls")
        self._bump("numerics.kahan_sum.terms", len(args[0]))

    def _bytes(self, args, kwargs):
        lines = args[1] if len(args) > 1 else kwargs["lines"]
        self._bump("cli.bytes_written", len(("\n".join(lines) + "\n").encode("utf-8")))

    def _frame_vector(self, args, kwargs):
        self._bump("core.FrameVector.count")

    def _h2_search(self, args, kwargs):
        key = repr((args, sorted(kwargs.items())))
        self._bump("stability.certify_instability_h2.searches")
        if key in self._h2_args:
            self._bump("stability.certify_instability_h2.repeats")
        self._h2_args.add(key)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module("h1geom." + m) for m in
                ("cli", "verify", "stability", "surfaces", "geodesics", "numerics", "core")}
        verify, core, surfaces = mods["verify"], mods["core"], mods["surfaces"]
        before = {
            "surfaces.surface_frame": self._frame_seen,
            "surfaces.integrate_tangent_field": self._rk4_steps,
            "numerics.integrate_2d": self._nodes_2d,
            "stability.certify_instability_h2": self._h2_search,
        }
        spans = list(SPANS) + [("verify", n) for n in sorted(vars(verify))
                               if n.startswith("check_")]
        for mod_name, attr in spans:
            key = f"{mod_name}.{attr}"
            orig = getattr(mods[mod_name], attr)
            self._rebind(orig, self._span(SPAN_NAMES.get(key, key), orig, before.get(key)))
        for mod_name, attr, hook in (("numerics", "_composite_1d", self._nodes_1d),
                                     ("numerics", "kahan_sum", self._kahan),
                                     ("cli", "_write_lines", self._bytes)):
            orig = getattr(mods[mod_name], attr)
            self._rebind(orig, self._count(orig, hook))
        for cls, attr, hook in ((core.FrameVector, "__post_init__", self._frame_vector),
                                (surfaces.RuledChart, "curve_chart_point", self._curve_seen)):
            orig = cls.__dict__[attr]
            self._class_patched.append((cls, attr, orig))
            self._originals.append(orig)
            setattr(cls, attr, self._count(orig, hook))
        self.check_installed()

    def _rebind(self, orig, wrapper) -> None:
        self._originals.append(orig)
        for ns, key in _holders(orig):
            self._patched.append((ns, key, orig))
            ns[key] = wrapper

    def check_installed(self) -> None:
        """Coverage guard: no h1geom module may still hold a traced original."""
        missing = [f"{ns.get('__name__', '<dict>')}.{key}"
                   for orig in self._originals for ns, key in _holders(orig)]
        for cls, attr, orig in self._class_patched:
            if cls.__dict__[attr] is orig:
                missing.append(f"{cls.__qualname__}.{attr}")
        if missing:
            raise CoverageError("unwrapped after install: " + ", ".join(sorted(missing)))

    def uninstall(self) -> None:
        for ns, key, orig in reversed(self._patched):
            ns[key] = orig
        for cls, attr, orig in reversed(self._class_patched):
            setattr(cls, attr, orig)
        self._patched.clear()
        self._class_patched.clear()
        check_restored()

    # -- metrics -------------------------------------------------------------

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive s, self s) of one span, summed over parents."""
        calls, incl, child = 0, 0.0, 0.0
        for (n, _parent), (c, s, ch) in self.spans.items():
            if n == name:
                calls += c
                incl += s
                child += ch
        return calls, incl, incl - child

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        cnt = self.counts.get

        def span(name, *stats):
            calls, s, self_s = self.totals(name)
            for stat in stats:
                out[f"{name}.{stat}"] = {"calls": (calls, "count"), "s": (s, "s"),
                                         "self_s": (self_s, "s")}[stat]
            return calls, s

        span("cli.main", "calls", "self_s")
        out["cli.bytes_written"] = (cnt("cli.bytes_written", 0), "bytes")

        span("verify.run_suites", "s")
        for suite in ("core", "geodesics", "surfaces", "stability"):
            span(f"verify.suite_{suite}", "s")
        for check in CHECKS:
            span(f"verify.{check}", "s")
        out["verify.check_helicoid_closed_forms.calls"] = (
            self.totals("verify.check_helicoid_closed_forms")[0], "count")

        for op in STABILITY_OPS:
            span(f"stability.{op}", "calls", "s", "self_s")
        for op, search in (("q_form", "certify_instability_h2"),
                           ("ruled_index_value", "certify_instability_nosing")):
            calls = self.totals(f"stability.{op}")[0]
            certs = self.totals(f"stability.{search}")[0]
            out[f"stability.{op}.calls_per_cert"] = (calls / certs if certs else 0.0, "ratio")
        searches = cnt("stability.certify_instability_h2.searches", 0)
        out["stability.certify_instability_h2.repeat_ratio"] = (
            cnt("stability.certify_instability_h2.repeats", 0) / searches if searches else 0.0,
            "ratio")

        calls, s = span("surfaces.surface_frame", "calls", "s")
        out["surfaces.surface_frame.us_per_call"] = (1e6 * s / calls if calls else 0.0, "us")
        out["surfaces.surface_frame.repeat_ratio"] = (
            cnt("surfaces.surface_frame.repeats", 0) / calls if calls else 0.0, "ratio")
        span("surfaces.integrate_tangent_field", "calls", "s")
        out["surfaces.integrate_tangent_field.steps"] = (
            cnt("surfaces.integrate_tangent_field.steps", 0), "count")
        span("surfaces.ruled_coordinates", "calls", "s")
        lookups = cnt("surfaces.RuledChart.curve_chart_point.calls", 0)
        out["surfaces.RuledChart.curve_chart_point.hit_ratio"] = (
            cnt("surfaces.RuledChart.curve_chart_point.hits", 0) / lookups if lookups else 0.0,
            "ratio")
        span("surfaces.singular_locus", "s")
        span("surfaces.area", "s")

        for fn in ("exp_euclidean", "exp_geodesic", "jacobi_field"):
            span(f"geodesics.{fn}", "calls", "s")

        span("numerics.integrate_2d", "calls", "self_s")
        out["numerics.integrate_2d.nodes"] = (cnt("numerics.integrate_2d.nodes", 0), "count")
        span("numerics.gauss_legendre_1d", "calls", "self_s")
        out["numerics.gauss_legendre_1d.nodes"] = (
            cnt("numerics.gauss_legendre_1d.nodes", 0), "count")
        out["numerics.kahan_sum.calls"] = (cnt("numerics.kahan_sum.calls", 0), "count")
        out["numerics.kahan_sum.terms"] = (cnt("numerics.kahan_sum.terms", 0), "count")

        out["core.FrameVector.count"] = (cnt("core.FrameVector.count", 0), "count")
        return out

    def span_table(self) -> list[dict]:
        """Aggregated spans, one row per (function, parent)."""
        return [{"name": n, "parent": p, "calls": c, "s": s, "self_s": s - ch}
                for (n, p), (c, s, ch) in sorted(self.spans.items(), key=lambda kv: -kv[1][1])]


def check_restored() -> None:
    """Fail if any h1geom module or class still holds a tracer wrapper."""
    left = []
    for mod in _h1geom_modules():
        for key, val in vars(mod).items():
            if hasattr(val, MARK):
                left.append(f"{mod.__name__}.{key}")
            elif type(val) is dict:
                left.extend(f"{mod.__name__}.{key}[{k!r}]" for k, v in val.items()
                            if hasattr(v, MARK))
            elif isinstance(val, type) and val.__module__ == mod.__name__:
                left.extend(f"{mod.__name__}.{key}.{a}" for a, v in vars(val).items()
                            if hasattr(v, MARK))
    if left:
        raise CoverageError("tracer wrappers left installed: " + ", ".join(sorted(left)))
