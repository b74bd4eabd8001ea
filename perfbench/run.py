#!/usr/bin/env python3
"""Campaign benchmark for svcdisc.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_campaign from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR, or .bench_build when unset, then measures whole
campaigns of one workload for about S seconds, each campaign in a fresh
process. Every campaign's output is checked (see check_runs). A human
summary goes to stderr; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, taken from a separate
traced run (perfbench_campaign traced), which also writes a Chrome trace
to <build dir>/traces/. perfbench/README.md explains every metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

WORKLOADS = ("paper_dtcp1_18d", "sweep_scale1m", "adaptive_scale", "smoke")

# Paper Table 2, DTCP1-18d at 410 hours: the reference the simulated
# completeness of paper_dtcp1_18d is compared against.
PAPER_TABLE2 = {"active_pct": 94.0, "passive_pct": 71.0,
                "union_services": 2960}

# Distinct campaign seeds per benchmark run, derived from --seed. Several
# small campaigns pool their outcomes so one run's figures do not hinge on
# one campus draw (adaptive_scale's /18 holds only ~300 services).
CAMPAIGNS_PER_RUN = {"paper_dtcp1_18d": 4, "sweep_scale1m": 1,
                     "adaptive_scale": 8, "smoke": 2}

SETUP_REPS = 5
BUILD_JOBS = 3
# Every measuring process must end within this many seconds of the end of
# the build; a child still running then is killed and the run fails.
RUN_LIMIT_S = 170

# Units of the end-to-end metrics (trace 0).
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "1/s",
    "border_pkts_per_s": "1/s",
    "probes_per_s": "1/s",
    "peak_rss_mb": "MB",
    "union_services": "count",
    "active_pct": "%",
    "passive_pct": "%",
    "recall_pct": "%",
    "probes_per_find": "probes",
    "passed_runs_pct": "%",
}

# Units of the per-layer metrics (trace 1). The prober's rate-limiter
# counters (active.rate_limiter.grants/deferrals) are left out on
# purpose: with burst 1 every probe after the first is tallied as a
# deferral, so the pair measures the probe count twice, not waiting.
PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.queue_depth_hwm": "count",
    "sim.network.packets_sent": "count",
    "sim.event_queue.ns_per_event": "ns",
    "sim.network.owner_ns": "ns",
    "capture.tap_packets": "count",
    "capture.filter.match_ratio": "ratio",
    "capture.filter.ns_per_pkt": "ns",
    "passive.discoveries": "count",
    "passive.flows_counted": "count",
    "passive.scanners_flagged": "count",
    "passive.monitor.ns_per_pkt": "ns",
    "passive.scan_detector.ns_per_pkt": "ns",
    "passive.service_table.ns_per_op": "ns",
    "active.probes": "count",
    "active.responses": "count",
    "active.yield": "ratio",
    "active.adaptive.seeds_probed": "count",
    "active.adaptive.verify_probes": "count",
    "active.scan_s": "s",
    "host.universe_materialized": "count",
    "host.universe_bytes": "bytes",
    "workload.build_s": "s",
    "core.engine_build_s": "s",
    "core.run_s": "s",
    "core.report_s": "s",
    "analysis.streaming.ns_per_pkt": "ns",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """A failure that ends the benchmark without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds perfbench_campaign; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("svcdisc sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(BUILD_JOBS),
                  "--target", "perfbench_campaign"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_campaign")


def run_child(binary, args, deadline):
    """Runs one perfbench_campaign process, killing it at `deadline`
    (time.monotonic()); returns (result, peak RSS MB)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    if proc.returncode != 0:
        raise BenchError("perfbench_campaign %s exited %d"
                         % (" ".join(args), proc.returncode))
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("perfbench_campaign %s printed nothing" % args[0])
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def binary_digest(binary):
    with open(binary, "rb") as f:
        return hashlib.sha1(f.read()).hexdigest()[:16]


def check_runs(runs, references):
    """Indices of failed runs. A run fails when a table entry names a
    service the campus or universe never offered, or when any simulated
    statistic (counts and table digests) differs from the reference run
    of the same workload, campaign seed and binary."""
    return [i for i, r in enumerate(runs)
            if r["stats"]["unoffered"] != 0
            or r["stats"] != references[r["seed"]]]


def reference_stats(binary, workload, runs):
    """Reference statistics per campaign seed: the ones stored by the
    first run of that (binary, workload, seed) in this checkout, else the
    first run of the seed here, which is then stored."""
    ref_dir = os.path.join(build_dir(), "reference")
    os.makedirs(ref_dir, exist_ok=True)
    digest = binary_digest(binary)
    references = {}
    for r in runs:
        seed = r["seed"]
        if seed in references:
            continue
        path = os.path.join(ref_dir, "%s-%s-%d.json" % (digest, workload, seed))
        if os.path.isfile(path):
            with open(path) as f:
                references[seed] = json.load(f)
            continue
        references[seed] = r["stats"]
        if r["stats"]["unoffered"] == 0:
            with open(path, "w") as f:
                json.dump(r["stats"], f)
    return references


def campaign_seeds(workload, seed):
    """The distinct campaign seeds one benchmark run covers."""
    return [seed * 1000 + i for i in range(CAMPAIGNS_PER_RUN[workload])]


def campaign(binary, workload, seed, deadline):
    result, rss = run_child(binary, ["campaign", "--workload=" + workload,
                                     "--seed=%d" % seed], deadline)
    result["seed"] = seed
    result["rss_mb"] = rss
    return result


def measure(binary, workload, seeds, seconds, deadline):
    """One fresh-process campaign per seed, then the seeds again in order
    while the last campaign's duration still fits in `seconds`. At least
    one seed runs twice, so every run checks determinism against itself.
    Before each campaign a separate process times SETUP_REPS
    constructions, so the setup samples span the whole run."""
    setup, runs = [], []
    start = time.monotonic()
    while True:
        seed = seeds[len(runs) % len(seeds)]
        result, _ = run_child(binary, ["setup", "--workload=" + workload,
                                       "--seed=%d" % seed,
                                       "--reps=%d" % SETUP_REPS], deadline)
        setup += result["setup_s"]
        t0 = time.monotonic()
        runs.append(campaign(binary, workload, seed, deadline))
        took = time.monotonic() - t0
        if (len(runs) > len(seeds)
                and time.monotonic() - start + took > seconds):
            break
    return setup, runs


def wall(run):
    t = run["time"]
    return t["build_s"] + t["engine_build_s"] + t["run_s"] + t["report_s"]


def per_run_s(runs, key):
    return statistics.median(r["stats"][key] / r["time"]["run_s"] for r in runs)


def end_to_end(setup_samples, runs, failed):
    """Host-time metrics are medians over every campaign; the campaign
    outcome metrics pool the first campaign of each distinct seed."""
    first = {}
    for r in runs:
        first.setdefault(r["seed"], r["stats"])

    def total(key):
        return sum(s[key] for s in first.values())

    union = total("union_services")
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(wall(r) for r in runs),
        "events_per_s": per_run_s(runs, "events"),
        "border_pkts_per_s": per_run_s(runs, "tap_packets"),
        "probes_per_s": per_run_s(runs, "probes"),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "union_services": union / len(first),
        "active_pct": 100.0 * total("active_total") / union,
        "passive_pct": 100.0 * total("passive_total") / union,
        "recall_pct": 100.0 * total("truth_found") / total("truth_services"),
        "probes_per_find": total("probes") / total("active_found"),
        "passed_runs_pct": 100.0 * (len(runs) - len(failed)) / len(runs),
    }


def per_layer(traced, untraced_wall):
    s = traced["stats"]
    t = traced["time"]
    r = traced["replay"]
    return {
        "sim.events": s["events"],
        "sim.queue_depth_hwm": s["queue_depth_hwm"],
        "sim.network.packets_sent": s["packets_sent"],
        "sim.event_queue.ns_per_event": r["sim.event_queue.ns_per_event"],
        "sim.network.owner_ns": r["sim.network.owner_ns"],
        "capture.tap_packets": s["tap_packets"],
        "capture.filter.match_ratio":
            s["tap_matched"] / s["tap_packets"] if s["tap_packets"] else 0.0,
        "capture.filter.ns_per_pkt": r["capture.filter.ns_per_pkt"],
        "passive.discoveries": s["passive_found"],
        "passive.flows_counted": s["flows_counted"],
        "passive.scanners_flagged": s["scanners_flagged"],
        "passive.monitor.ns_per_pkt": r["passive.monitor.ns_per_pkt"],
        "passive.scan_detector.ns_per_pkt":
            r["passive.scan_detector.ns_per_pkt"],
        "passive.service_table.ns_per_op": r["passive.service_table.ns_per_op"],
        "active.probes": s["probes"],
        "active.responses": s["responses"],
        "active.yield": s["active_found"] / s["probes"] if s["probes"] else 0.0,
        "active.adaptive.seeds_probed": s["seeds_probed"],
        "active.adaptive.verify_probes": s["verify_probes"],
        "active.scan_s": traced["scan_only_s"],
        "host.universe_materialized": s["universe_materialized"],
        "host.universe_bytes": s["universe_bytes"],
        "workload.build_s": t["build_s"],
        "core.engine_build_s": t["engine_build_s"],
        "core.run_s": t["run_s"],
        "core.report_s": t["report_s"],
        "analysis.streaming.ns_per_pkt": r["analysis.streaming.ns_per_pkt"],
        "trace.overhead_pct": 100.0 * (wall(traced) - untraced_wall)
                              / untraced_wall,
    }


def spread(values):
    if len(values) < 2:
        return "n=%d" % len(values)
    q = statistics.quantiles(values, n=4)
    return "n=%d q1=%.4g q3=%.4g" % (len(values), q[0], q[2])


def summarize(workload, seed, metrics, units, setup_samples, runs, attempted,
              failed):
    log("perfbench %s seed %d: %d campaign(s), %d setup sample(s), "
        "%d of %d checked failed (failed_runs_pct %.1f)"
        % (workload, seed, len(runs), len(setup_samples), len(failed),
           attempted, 100.0 * len(failed) / attempted))
    samples = {
        "setup_s": setup_samples,
        "wall_s": [wall(r) for r in runs],
        "peak_rss_mb": [r["rss_mb"] for r in runs],
    }
    for name, value in metrics.items():
        extra = spread(samples[name]) if name in samples else ""
        log("  %-34s %14.6g %-6s %s" % (name, value, units[name], extra))
    if workload == "paper_dtcp1_18d" and "union_services" in metrics:
        log("  paper Table 2 (410 h) reference vs simulated:")
        for name, ref in PAPER_TABLE2.items():
            sim = metrics[name]
            log("    %-16s paper %8.6g  simulated %8.6g  error %+.1f%%"
                % (name, ref, sim, 100.0 * (sim - ref) / ref))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    binary = build()
    deadline = time.monotonic() + RUN_LIMIT_S
    seeds = campaign_seeds(args.workload, args.seed)
    setup_samples, runs = measure(binary, args.workload, seeds, args.seconds,
                                  deadline)
    checked = list(runs)
    traced = None
    replay_ok = True
    if args.trace:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, "%s-seed%d.json"
                                  % (args.workload, seeds[0]))
        traced, _ = run_child(binary, ["traced", "--workload=" + args.workload,
                                       "--seed=%d" % seeds[0],
                                       "--trace-out=" + trace_path], deadline)
        traced["seed"] = seeds[0]
        checked.append(traced)
        log("trace: %s (%d events kept, %d overwritten in the program's "
            "ring)" % (trace_path, traced["trace_recorded"],
                       traced["trace_dropped"]))
        replay = traced["replay"]
        log("replay: %d stream packets, %d service-table operations"
            % (replay["stream_packets"], replay["table_ops"]))
        replay_ok = all(replay[k] == 1 for k in (
            "monitor_matches", "detector_matches", "recording_matches"))
        if not replay_ok:
            log("traced run check failed: %s" % replay)

    failed = check_runs(checked, reference_stats(binary, args.workload,
                                                 checked))
    if args.trace:
        untraced = [wall(r) for r in runs if r["seed"] == seeds[0]]
        metrics = per_layer(traced, statistics.median(untraced))
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(setup_samples, runs, failed)
        units = END_TO_END_UNITS
    summarize(args.workload, args.seed, metrics, units, setup_samples, runs,
              len(checked), failed)
    result = {
        "correct": not failed and replay_ok,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log("perfbench: " + str(e))
        sys.exit(1)
