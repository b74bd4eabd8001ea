#!/usr/bin/env python3
"""Self-test for the campaign benchmark.

    python3 perfbench/selftest.py

Checks, on the `smoke` workload (the tiny campus for one day):
  1. a smoke-length run emits every metric BENCHMARK.json names, with its
     unit and nothing else, for --trace 0 (end-to-end) and --trace 1
     (per-layer), and reports a correct result;
  2. the output check fails a run whose table digest was corrupted, and a
     run whose table names a service nobody offered.
Exits 0 when every check passes. Builds like run.py does.
"""

import copy
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark module under test)


def fail(msg):
    print("FAIL: " + msg)
    return 1


def check_metric_names(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
         "--workload", "smoke", "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if proc.returncode != 0:
        return fail("run.py --trace %d exited %d" % (trace, proc.returncode))
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return fail("result keys %s" % sorted(result))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return fail("smoke run --trace %d not correct: %s"
                    % (trace, {k: result[k] for k in ("correct", "attempted",
                                                       "failed")}))
    wanted = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        return fail("--trace %d metrics differ from BENCHMARK.json %s: "
                    "missing %s, extra or mis-united %s"
                    % (trace, key, sorted(set(wanted.items()) - set(got.items())),
                       sorted(set(got.items()) - set(wanted.items()))))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            return fail("%s has a non-numeric value" % name)
    print("ok: --trace %d emits all %d %s metrics with units"
          % (trace, len(wanted), key))
    return 0


def check_output_check(binary):
    deadline = time.monotonic() + run.RUN_LIMIT_S
    good = run.campaign(binary, "smoke", 7000, deadline)
    again = run.campaign(binary, "smoke", 7000, deadline)
    refs = {7000: good["stats"]}
    if run.check_runs([good, again], refs):
        return fail("two identical smoke campaigns failed the output check")

    corrupt = copy.deepcopy(again)
    digest = int(corrupt["stats"]["passive_digest"], 16) ^ 1
    corrupt["stats"]["passive_digest"] = "%016x" % digest
    if run.check_runs([good, corrupt], refs) != [1]:
        return fail("a corrupted passive table digest passed the check")

    unoffered = copy.deepcopy(good)
    unoffered["stats"]["unoffered"] = 1
    if run.check_runs([unoffered], {7000: unoffered["stats"]}) != [0]:
        return fail("a table naming a never-offered service passed the check")
    print("ok: the output check catches a corrupted digest and an "
          "unoffered service")
    return 0


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    failures = check_output_check(binary)
    for trace in (0, 1):
        failures += check_metric_names(spec, trace)
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
