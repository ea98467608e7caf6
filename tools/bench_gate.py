#!/usr/bin/env python3
"""Benchmark-regression gate.

Runs the covered benchmarks (bench_rpc, bench_tracing, bench_ult,
bench_batch, bench_elastic, bench_autoscale, bench_workload), writes each
one's raw results to BENCH_<name>.json in
--out-dir, and compares a curated set of metrics against the checked-in
baselines in bench/baselines/.

Two kinds of checks:

  * ratio comparison against the baseline value, with a per-metric
    tolerance band (baselines capture the shape, not the exact machine, so
    bands are generous — the gate catches order-of-magnitude regressions
    such as a batched path quietly falling back to per-op RPCs, not 10%%
    noise);
  * absolute floors (``min``) and ceilings (``max``), for metrics that are
    themselves ratios or invariants and must hold on any machine — e.g.
    speedup_32 >= 3 (E10) or steady_layout_rpcs_per_op <= 0 (E12)
    regardless of absolute throughput.

Usage:
  tools/bench_gate.py --bin-dir build/bench [--baselines bench/baselines]
                      [--out-dir .] [--update-baselines]

Exit status 0 = all gates pass; 1 = regression or missing benchmark.
"""

import argparse
import json
import os
import subprocess
import sys

# Benchmarks to run: name -> how to produce BENCH_<name>.json.
#   google    - google-benchmark binary, native --benchmark_out JSON
#   metrics   - plain binary supporting `--json FILE` ({"metrics": {...}})
# An optional "binary" overrides the executable name (default bench_<name>),
# letting one binary serve several entries (bench_rpc is both a
# google-benchmark suite and, via --json, the hot-path metrics reporter).
BENCHMARKS = {
    "rpc": {"kind": "google", "args": ["--benchmark_min_time=0.05"]},
    "rpc_hotpath": {"kind": "metrics", "binary": "bench_rpc", "args": []},
    "tracing": {"kind": "google", "args": ["--benchmark_min_time=0.05"]},
    "ult": {"kind": "metrics", "args": []},
    "batch": {"kind": "metrics", "args": []},
    "elastic": {"kind": "metrics", "args": []},
    "autoscale": {"kind": "metrics", "args": []},
    "workload": {"kind": "metrics", "args": []},
}

# Gated metrics: (bench, metric) -> spec.
#   For google benches the metric is "<benchmark name>:<field>".
#   higher_is_better decides the direction of the tolerance band.
#   tolerance T allows measured in [baseline/T, inf) for higher-is-better
#   and (0, baseline*T] for lower-is-better.
#   An optional "min" adds an absolute floor independent of the baseline.
GATES = {
    ("rpc", "BM_EchoRoundTrip/8:real_time"): {
        "higher_is_better": False, "tolerance": 3.0},
    # Zero-copy hot path (E11). The baseline was recorded at ~2.5x the
    # pre-optimization throughput on the same machine, so the deliberately
    # tight 1.3 band keeps the gate's floor near 2x the pre-optimization
    # level (E11's acceptance criterion) while absorbing single-core
    # scheduler noise (bench_gate runs RUN_SERIAL).
    ("rpc_hotpath", "small_echo_ops_s"): {
        "higher_is_better": True, "tolerance": 1.3},
    ("rpc_hotpath", "small_echo_p99_us"): {
        "higher_is_better": False, "tolerance": 3.0},
    # The fast path only skips the fabric mutex and its map lookups (a
    # per-thread send cache); both paths deliver inline into the same
    # request inbox, so little speedup is expected here (1.02-1.11 on a
    # 4-core host). The floor only guards against the cached path
    # regressing into a slowdown.
    ("rpc_hotpath", "fast_path_speedup"): {
        "higher_is_better": True, "tolerance": 3.0, "min": 0.75},
    ("rpc", "BM_BulkPull/1048576:bytes_per_second"): {
        "higher_is_better": True, "tolerance": 3.0},
    ("tracing", "BM_TracingOverhead/2/8:real_time"): {
        "higher_is_better": False, "tolerance": 3.0},
    ("ult", "ult_aware_ops_s_c16"): {
        "higher_is_better": True, "tolerance": 3.0},
    # The ULT ablation's point: ULT-aware blocking must beat thread-blocking
    # handlers by a wide margin at concurrency 16.
    ("ult", "ult_ratio_c16"): {
        "higher_is_better": True, "tolerance": 3.0, "min": 4.0},
    ("batch", "yokan_put_ops_s_batch_32"): {
        "higher_is_better": True, "tolerance": 3.0},
    # E10 acceptance criterion: batching 32 ops into one RPC must be at
    # least 3x faster than per-op round trips, on any machine.
    ("batch", "speedup_32"): {
        "higher_is_better": True, "tolerance": 3.0, "min": 3.0},
    # E12 acceptance criteria (layout-scale harness, 1M keys / 32 shards).
    # Steady-state routing is computed from the cached layout, so explicit
    # layout/directory RPCs per op must be exactly zero on any machine.
    ("elastic", "steady_layout_rpcs_per_op"): {
        "higher_is_better": False, "tolerance": 1.0, "max": 0.0},
    # A split bisects one shard's hash range: moved_fraction * num_shards
    # is ~0.5 in expectation and must stay under the issue's bound of 2.
    ("elastic", "split_moved_fraction_x_shards"): {
        "higher_is_better": False, "tolerance": 3.0, "max": 2.0},
    # After the split, the stale client repairs itself from piggybacked
    # epoch hints: no key may be lost and no explicit refresh may happen.
    ("elastic", "post_split_missing_keys"): {
        "higher_is_better": False, "tolerance": 1.0, "max": 0.0},
    ("elastic", "post_split_refreshes"): {
        "higher_is_better": False, "tolerance": 1.0, "max": 0.0},
    # Throughput shape check only (machines vary).
    ("elastic", "steady_ops_s"): {
        "higher_is_better": True, "tolerance": 3.0},
    # E13 acceptance criteria (closed-loop autoscaling). The control loop
    # must converge within a bounded number of 50 ms control periods — the
    # harness itself caps at 60, so a miss reports -1 and trips the floor —
    # and the reconfigurations it issues must never surface a client error.
    ("autoscale", "convergence_periods"): {
        "higher_is_better": False, "tolerance": 1.6, "min": 1.0, "max": 55.0},
    ("autoscale", "client_errors"): {
        "higher_is_better": False, "tolerance": 1.0, "max": 0.0},
    # The loop must actually act on the hot shard, not merely observe it
    # (how *many* splits it takes is timing-dependent, hence the wide band;
    # the floor of one split is the real invariant).
    ("autoscale", "splits"): {
        "higher_is_better": True, "tolerance": 8.0, "min": 1.0},
    # Tail-latency recovery: after convergence the batched-read p99 over the
    # formerly hot keys must not exceed the pre-split tail (ratio <= 1);
    # slack for scheduler noise on loaded CI machines.
    ("autoscale", "p99_recovery_ratio"): {
        "higher_is_better": False, "tolerance": 2.0, "max": 1.1},
    ("autoscale", "p99_after_us"): {
        "higher_is_better": False, "tolerance": 3.0},
    # E14 acceptance criteria (multi-tenant QoS under overload; see
    # docs/QOS.md and EXPERIMENTS.md). With the heavy tenant offered at 2x
    # its quota and 4:1 weights, the light tenant's p99 must stay within
    # 1.5x of its isolated baseline on any machine — the fairness invariant.
    ("workload", "light_p99_ratio"): {
        "higher_is_better": False, "tolerance": 2.0, "max": 1.5},
    # The heavy tenant must actually be throttled: the client must observe
    # Backpressure rejections AND the per-tenant shed counters scraped via
    # bedrock/get_metrics must corroborate them (floor of one each is the
    # invariant; the counts themselves are timing-dependent).
    ("workload", "heavy_backpressure"): {
        "higher_is_better": True, "tolerance": 8.0, "min": 1.0},
    ("workload", "heavy_shed_scraped"): {
        "higher_is_better": True, "tolerance": 8.0, "min": 1.0},
    # Overload must surface only as the retryable Backpressure code, and no
    # acknowledged key may be lost across the quota/migration race.
    ("workload", "non_retryable_errors"): {
        "higher_is_better": False, "tolerance": 1.0, "max": 0.0},
    ("workload", "lost_ops"): {
        "higher_is_better": False, "tolerance": 1.0, "max": 0.0},
    # Throughput shape check only (machines vary).
    ("workload", "light_ops_s"): {
        "higher_is_better": True, "tolerance": 3.0},
}


def run_benchmark(name, spec, bin_dir, out_dir):
    """Run one benchmark, write BENCH_<name>.json, return the parsed doc."""
    binary = os.path.join(bin_dir, spec.get("binary", "bench_" + name))
    out_path = os.path.join(out_dir, "BENCH_%s.json" % name)
    if not os.path.exists(binary):
        print("bench_gate: missing binary %s" % binary)
        return None
    if spec["kind"] == "google":
        cmd = [binary, "--benchmark_out=" + out_path,
               "--benchmark_out_format=json"] + spec["args"]
    else:
        cmd = [binary, "--json", out_path] + spec["args"]
    print("bench_gate: running %s" % " ".join(cmd))
    sys.stdout.flush()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    sys.stdout.buffer.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        print("bench_gate: %s exited with %d" % (binary, proc.returncode))
        return None
    with open(out_path) as f:
        return json.load(f)


def extract(doc, kind, metric):
    """Pull one gated metric out of a raw benchmark document."""
    if kind == "metrics":
        return doc.get("metrics", {}).get(metric)
    bench_name, field = metric.rsplit(":", 1)
    for entry in doc.get("benchmarks", []):
        if entry.get("name") == bench_name:
            return entry.get(field)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bin-dir", default="build/bench",
                    help="directory holding the bench_* binaries")
    ap.add_argument("--baselines", default=None,
                    help="baseline directory (default: bench/baselines "
                         "next to this script's repo)")
    ap.add_argument("--out-dir", default=".",
                    help="where BENCH_*.json files are written")
    ap.add_argument("--update-baselines", action="store_true",
                    help="rewrite the baseline files from this run's "
                         "numbers instead of gating")
    args = ap.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baselines_dir = args.baselines or os.path.join(repo_root, "bench", "baselines")
    os.makedirs(args.out_dir, exist_ok=True)

    # Run everything first so BENCH_*.json exist even when a gate fails.
    raw = {}
    failures = []
    for name, spec in BENCHMARKS.items():
        doc = run_benchmark(name, spec, args.bin_dir, args.out_dir)
        if doc is None:
            failures.append("benchmark %s did not produce results" % name)
        raw[name] = doc

    # Collect the gated metrics from the raw documents.
    measured = {}
    for (bench, metric), gate in GATES.items():
        doc = raw.get(bench)
        if doc is None:
            continue  # already recorded as a failure above
        value = extract(doc, BENCHMARKS[bench]["kind"], metric)
        if value is None:
            failures.append("metric %s missing from bench_%s output" % (metric, bench))
            continue
        measured[(bench, metric)] = float(value)

    if args.update_baselines:
        os.makedirs(baselines_dir, exist_ok=True)
        per_bench = {}
        for (bench, metric), value in measured.items():
            per_bench.setdefault(bench, {})[metric] = value
        for bench, metrics in sorted(per_bench.items()):
            path = os.path.join(baselines_dir, bench + ".json")
            with open(path, "w") as f:
                json.dump({"metrics": metrics}, f, indent=2, sort_keys=True)
                f.write("\n")
            print("bench_gate: wrote %s" % path)
        return 1 if failures else 0

    # Gate against the baselines.
    for (bench, metric), gate in sorted(GATES.items()):
        if (bench, metric) not in measured:
            continue
        value = measured[(bench, metric)]
        path = os.path.join(baselines_dir, bench + ".json")
        if not os.path.exists(path):
            failures.append("no baseline file %s (run with --update-baselines)" % path)
            continue
        with open(path) as f:
            base_doc = json.load(f)
        base = base_doc.get("metrics", {}).get(metric)
        if base is None:
            failures.append("baseline %s lacks metric %s" % (path, metric))
            continue
        tol = gate["tolerance"]
        if gate["higher_is_better"]:
            ok = value >= base / tol
            band = ">= %.4g (baseline %.4g / %.1f)" % (base / tol, base, tol)
        else:
            ok = value <= base * tol
            band = "<= %.4g (baseline %.4g * %.1f)" % (base * tol, base, tol)
        floor = gate.get("min")
        if floor is not None and value < floor:
            ok = False
            band += ", absolute floor %.4g" % floor
        ceiling = gate.get("max")
        if ceiling is not None and value > ceiling:
            ok = False
            band += ", absolute ceiling %.4g" % ceiling
        status = "ok " if ok else "FAIL"
        print("bench_gate: [%s] %s/%s = %.4g  (%s)" % (status, bench, metric, value, band))
        if not ok:
            failures.append("%s/%s measured %.4g vs baseline %.4g, allowed %s"
                            % (bench, metric, value, base, band))

    if failures:
        print("bench_gate: FAILED")
        for f in failures:
            print("  - " + f)
        return 1
    print("bench_gate: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
