"""Self-test of the benchmark itself, run from a checkout root:

    python3 bench/selftest.py                    # every workload
    python3 bench/selftest.py --workloads certify,export

It checks that
  * BENCHMARK.json names exactly the workloads and metrics that run.py prints;
  * installing the tracer wraps every holder of every traced function and
    uninstalling it restores every original (the coverage guard);
  * two traced runs with the same seed give the same job lists and identical
    counts (every per-layer metric in count, bytes or ratio units except the
    tracing overhead), so later changes can cite them as counts;
  * run.py refuses to run, without printing a result, in a directory that
    holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd().resolve()
COUNT_UNITS = {"count", "bytes", "ratio"}


def bench(args: list[str], cwd: Path = ROOT) -> tuple[int, list[dict]]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return proc.returncode, lines


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")
    print(f"ok  {msg}", flush=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads match workloads.py")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    check(True, "tracer wraps every holder and restores every original")
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {k: u for k, (_, u) in t.metrics().items()}
    expected["trace.overhead_ratio"] = "ratio"
    check(per_layer == expected, "BENCHMARK.json per_layer matches the tracer's metrics")

    rc, out = bench(["--workload", "export", "--seed", "1", "--seconds", "0",
                     "--trace", "0"])
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {k: v["unit"] for k, v in out[-1]["metrics"].items()}
    check(rc == 0 and got == e2e and out[-1]["correct"],
          "untraced run reports exactly the end_to_end metrics")

    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, out = bench(["--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
                    cwd=bare)
    shutil.rmtree(bare)
    check(rc != 0 and not out, "run.py fails without a result when the sources are missing")

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    for name in names:
        runs = [bench(["--workload", name, "--seed", str(args.seed), "--seconds", "0",
                       "--trace", "1"]) for _ in range(2)]
        for rc, out in runs:
            check(rc == 0 and out[-1]["correct"], f"{name}: traced run is correct")
        (_, a), (_, b) = runs
        check(a[0]["bench"]["jobs"] == b[0]["bench"]["jobs"], f"{name}: same seed, same jobs")
        counts = [{k: v["value"] for k, v in out[-1]["metrics"].items()
                   if v["unit"] in COUNT_UNITS and k != "trace.overhead_ratio"}
                  for out in (a, b)]
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        check(not diff, f"{name}: {len(counts[0])} counts identical across two traced runs"
              + (f" (differ: {diff})" if diff else ""))


if __name__ == "__main__":
    main()
