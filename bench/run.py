"""h1geom benchmark: one seeded workload per process, run from a checkout root.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload runs untraced in a closed loop, whole job
cycles at a time, until ``--seconds`` have passed (at least one cycle), and
the end-to-end metrics are reported.  With ``--trace 1`` a fixed block of
``trace_cycles`` cycles runs twice, first untraced and then with every layer
wrapped (see ``tracer.py``); the per-layer metrics come from the traced pass,
both passes must write identical outputs, and the time ratio of the two
passes is the tracing overhead.

Every job goes through ``h1geom.cli.main(argv)`` and its output is checked
(see ``workloads.py``).  The last line of standard output is the result
object; the line before it holds the details: the machine record, the argv
of every job, the metrics under the names users know (``verify_s``,
``catenoid_certs_per_s``, ...) and, when traced, the span table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_SAMPLES = 7
# numpy is the library's one runtime dependency.  It is imported explicitly,
# so set-up time and memory count it whether the library loads it at import
# time or on first use.  After the timed part, the child times the reference
# loop (see reference.py) so that its set-up time can be normalized too.
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import numpy
import h1geom.cli
h1geom.cli.build_parser()
dt = time.perf_counter() - t0
import statistics
from reference import reference_loop
print(dt, statistics.fmean(reference_loop() for _ in range(10)), h1geom.__file__)
"""

# Per-kind rates of the mixed workloads: units over the time spent in jobs of
# that kind.
KIND_RATES = [
    ("certify helicoid", "helicoid_certs_per_s", "certificates/s"),
    ("certify catenoid", "catenoid_certs_per_s", "certificates/s"),
    ("export surface-grid", "grid_points_per_s", "points/s"),
    ("export geodesic", "geodesic_rows_per_s", "rows/s"),
]


def machine_record() -> dict:
    cpu = os.uname().machine
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except Exception:  # numpy missing or unreadable metadata: record that
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
    }


def measure_setup(root: Path, src: Path) -> list[tuple[float, float]]:
    """(seconds, reference loop seconds) to import ``h1geom.cli`` and build
    its parser, each in a fresh interpreter.  One unmeasured run first, so
    compiled bytecode exists."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(Path(__file__).resolve().parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        dt, ref, where = proc.stdout.split(maxsplit=2)
        if not Path(where.strip()).resolve().is_relative_to(src):
            raise RuntimeError(f"set-up imported h1geom from {where.strip()}")
        if i:
            samples.append((float(dt), float(ref)))
    return samples


def run_job(cli, workload, argv, failures) -> tuple[bool, float, float]:
    """Run one job and check its output; returns (ok, start, end) of the
    time in cli.main."""
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        failures.append(f"{argv!r}: {type(exc).__name__}: {exc}")
        return False, t0, time.perf_counter()
    t1 = time.perf_counter()
    if rc != 0:
        failures.append(f"{argv!r}: exit code {rc}")
        return False, t0, t1
    try:
        workload.check(argv)
    except Exception as exc:  # oracle errors and unreadable output alike
        failures.append(f"{argv!r}: {type(exc).__name__}: {exc}")
        return False, t0, t1
    return True, t0, t1


def output_digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return "missing"


def run_timed(cli, workload, seconds: float) -> dict:
    """Whole cycles until ``seconds`` have passed.  The rate of a cycle is its
    units of work over the time its jobs spent in ``cli.main``; for the
    normalized rate each job's time is first scaled by the reference loop
    sampled while it ran (see reference.py)."""
    from reference import REFERENCE_S, Sampler, local_reference
    from tracer import check_restored

    check_restored()
    jobs, times, failures, cycles = [], [], [], []
    by_kind: dict[str, list[float]] = {}  # "export geodesic" -> [units, busy s]
    failed = 0
    t_start = time.perf_counter()
    with Sampler() as sampler:
        while True:
            gc.collect()  # each cycle starts from a clean heap, as a fresh CLI process does
            cycle, cycle_ok = [], True
            for argv in workload.cycle():
                jobs.append(argv)
                ok, t0, t1 = run_job(cli, workload, argv, failures)
                if ok:
                    dt = t1 - t0 - sampler.stolen(t0, t1)
                    n = workload.units(argv)
                    cycle.append((t0, t1, dt, n))
                    times.append(dt)
                    acc = by_kind.setdefault(" ".join(argv[:2]), [0, 0.0])
                    acc[0] += n
                    acc[1] += dt
                else:
                    failed += 1
                    cycle_ok = False
            if cycle_ok:
                cycles.append(cycle)
            if time.perf_counter() - t_start >= seconds:
                break
    elapsed = time.perf_counter() - t_start
    check_restored()

    reference = sampler.samples
    raw, normalized = [], []
    for cycle in cycles:
        units = sum(n for *_, n in cycle)
        raw.append(units / sum(dt for _, _, dt, _ in cycle))
        normalized.append(units / sum(dt * REFERENCE_S / local_reference(reference, t0, t1)
                                      for t0, t1, dt, _ in cycle))
    return {"jobs": jobs, "times": times, "failed": failed, "failures": failures,
            "rate": statistics.median(raw or [0.0]),
            "rate_at_ref": statistics.median(normalized or [0.0]),
            "kind_rates": {k: n / t for k, (n, t) in by_kind.items()},
            "reference_s": [r for _, r in reference], "elapsed_s": elapsed}


def run_traced(cli, workload) -> dict:
    from tracer import Tracer

    block = [argv for _ in range(workload.trace_cycles) for argv in workload.cycle()]
    # A warm-up job first, so that both passes start warm; a one-job block
    # (verify, about 30 s) is long enough for its cold start not to matter.
    warmup = block[:1] if len(block) > 1 else []
    failures = []
    failed = 0
    digests = []
    for argv in warmup:
        failed += not run_job(cli, workload, argv, failures)[0]
    t0 = time.perf_counter()
    for argv in block:
        failed += not run_job(cli, workload, argv, failures)[0]
        digests.append(output_digest(workload.out))
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for argv, digest in zip(block, digests):
            tracer.begin_job()
            ok = run_job(cli, workload, argv, failures)[0]
            if ok and output_digest(workload.out) != digest:
                failures.append(f"{argv!r}: traced output differs from the untraced one")
                ok = False
            failed += not ok
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return {"jobs": warmup + block + block, "failed": failed, "failures": failures,
            "tracer": tracer, "untraced_s": untraced_s, "traced_s": traced_s}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "h1geom" / "cli.py").is_file():
        print(f"bench: no h1geom sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (see SETUP_CODE)
    import h1geom
    import h1geom.cli as cli
    if not Path(h1geom.__file__).resolve().is_relative_to(src):
        print(f"bench: imported h1geom from {h1geom.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, str(out_dir / f"{args.workload}.out"))
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_record(), "why": workload.why}

    if args.trace:
        res = run_traced(cli, workload)
        tracer = res["tracer"]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.metrics().items()}
        metrics["trace.overhead_ratio"] = {
            "value": res["traced_s"] / res["untraced_s"] - 1.0, "unit": "ratio"}
        trace_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.span_table(), "top_spans": tracer.top,
                       "counts": tracer.counts}, fh)
        detail.update(untraced_s=res["untraced_s"], traced_s=res["traced_s"],
                      trace_file=str(trace_file.relative_to(root)),
                      spans=tracer.span_table()[:40])
    else:
        from reference import REFERENCE_S

        setup = measure_setup(root, src)
        res = run_timed(cli, workload, args.seconds)
        attempted = len(res["jobs"])
        rate = res["rate"]
        metrics = {
            "units_per_s_at_ref": {"value": res["rate_at_ref"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(dt * REFERENCE_S / ref for dt, ref in setup),
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "ok_ratio": {"value": (attempted - res["failed"]) / attempted, "unit": "ratio"},
        }
        named = {"units_per_s": {"value": rate, "unit": "1/s"},
                 workload.rate_name: {"value": rate, "unit": f"{workload.unit}/s"},
                 "job_s_median": {"value": statistics.median(res["times"] or [0.0]), "unit": "s"},
                 "fail_ratio": {"value": res["failed"] / attempted, "unit": "ratio"}}
        for kind, rate_name, unit in KIND_RATES:
            if kind in res["kind_rates"]:
                named[rate_name] = {"value": res["kind_rates"][kind], "unit": unit}
        if args.workload == "verify":
            named["verify_s"] = named["job_s_median"]
            margin = workload.margin_min
            named["verify_margin_min"] = {
                "value": margin if margin is not None and margin < float("inf") else None,
                "unit": "ratio"}
        named["setup_s_raw"] = {"value": statistics.median(dt for dt, _ in setup), "unit": "s"}
        detail.update(named=named, setup_samples=setup, job_times_s=res["times"],
                      reference_s=res["reference_s"],
                      elapsed_s=res["elapsed_s"])

    attempted = len(res["jobs"])
    detail.update(jobs=res["jobs"], failures=res["failures"][:10])
    print(json.dumps({"bench": detail}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": attempted,
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
