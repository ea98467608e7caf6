#!/usr/bin/env python3
"""Service benchmark: build the load generator, run one workload, print the result.

    python3 perfbench/run.py --workload kv_point --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and builds
perfbench_loadgen (Release) under .bench_build/perfbench; later runs reuse it.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics named in BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). The line before it is the full report: every
metric the load generator measured, the output checks, host and build metadata, and
the per-layer -> end-to-end mapping from perfbench/targets.json. The report
is also written to .bench_build/perfbench/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
LOADGEN = BUILD / "perfbench_loadgen"
# A run must end within 180 s, or 900 s when it builds first; keep a margin.
RUN_LIMIT_S = 175
FIRST_RUN_LIMIT_S = 890


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(deadline):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench_loadgen",
                  "-j", jobs])
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, left))
        except subprocess.TimeoutExpired:
            log("build timed out")
            return False
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return LOADGEN.exists()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    targets = json.loads((HERE / "targets.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    limit = RUN_LIMIT_S if LOADGEN.exists() else FIRST_RUN_LIMIT_S
    if not build(started + limit - 100):
        return 1

    load_before = os.getloadavg()
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(LOADGEN), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    budget = limit - 5 - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(10.0, budget))
    except subprocess.TimeoutExpired:
        log(f"{args.workload}: load generator exceeded {budget:.0f} s and was killed")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log(f"{args.workload}: load generator exited with {proc.returncode}")
        return 1
    report = json.loads(lines[-1])
    # Share of the measured windows the hypervisor ran other guests on this
    # VM's CPUs, from the load generator's per-sub-window readings.
    steal = [x for d in report["deployments"] for x in d.get("subwindow_steal", [])] or [0.0]
    report["host"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "cpu_steal_frac": sum(steal) / len(steal),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    report["targets"] = targets

    measured = report.get("per_layer" if args.trace else "end_to_end", {})
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"{args.workload}: load generator did not report {m['name']} in {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    (results / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
