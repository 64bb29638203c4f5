#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

Runs every workload at --tiny size, untraced and traced, with all of its
correctness gates, and checks that the result lines name exactly the metrics
BENCHMARK.json declares (with their units), that no operation failed, and
that the detail line carries the host block and the workload's own metric
names. Finally checks that a tree holding only BENCHMARK.json and the
benchmark's own files exits non-zero without printing a result.

Usage (from the repository root):  python3 perfbench/selftest.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the benchmark directory clean
import run  # noqa: E402  (the benchmark's own build step)

# The workload's own names for its end-to-end figures, on the detail line.
NAMED = {
    "pipeline": {"setup_s", "verdicts_per_s", "grid_pass_s",
                 "verdict_p50_us", "verdict_p99_us"},
    "screen": {"setup_s", "screen_sweep_s"},
    "watchdog": {"setup_s", "rtv_records_per_s", "saturate_pass_s",
                 "rtv_alert_lag_p50_us", "rtv_alert_lag_p99_us"},
}
HOST_KEYS = {"nproc", "cpu", "compiler", "build_type", "source", "seed",
             "steal_share"}


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check({w["name"] for w in spec["workloads"]} == set(NAMED),
          "BENCHMARK.json workloads differ from " + ", ".join(sorted(NAMED)))

    binary = run.build()
    for workload in sorted(NAMED):
        for traced in (0, 1):
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", "7", "--seconds",
                 "1", "--trace", str(traced), "--tiny"],
                capture_output=True, text=True, timeout=180)
            what = "%s --trace %d" % (workload, traced)
            check(out.returncode == 0, what + " exited %d: %s" %
                  (out.returncode, out.stderr[-400:]))
            lines = out.stdout.strip().splitlines()
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  what + " result keys " + str(sorted(result)))
            check(result["correct"] is True and result["failed"] == 0,
                  what + " failed: " + json.dumps(detail["failures"]))
            check(isinstance(result["attempted"], int)
                  and result["attempted"] >= 1, what + " attempted nothing")
            metrics = result["metrics"]
            check(set(metrics) == set(declared[traced]),
                  what + " metric names differ from BENCHMARK.json: " +
                  str(sorted(set(metrics) ^ set(declared[traced]))))
            for name, m in metrics.items():
                check(m["unit"] == declared[traced][name],
                      what + " unit of " + name)
                check(math.isfinite(m["value"]),
                      what + " " + name + " not finite")
                if not traced:
                    check(m["value"] > 0, what + " " + name + " is not > 0")
            check(set(detail["host"]) == HOST_KEYS, what + " host block")
            check(NAMED[workload] <= set(detail["named"]),
                  what + " detail lacks " +
                  str(sorted(NAMED[workload] - set(detail["named"]))))
            print("ok  " + what + ": %d operations" % result["attempted"])

    # A tree with only the benchmark's own files must fail cleanly.
    bare = os.path.abspath(os.path.join(".bench_out", "selftest-bare"))
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        spec["command"] + ["--workload", "pipeline", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(out.returncode != 0 and '"correct"' not in out.stdout,
          "bare tree did not fail cleanly")
    print("ok  bare tree exits %d without a result" % out.returncode)


if __name__ == "__main__":
    main()
