#!/usr/bin/env python3
"""Run one perfbench workload and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the harness in
perfbench/harness (a Cargo package of its own that depends on the
repository's crates by path) into $CARGO_TARGET_DIR, default
.bench_build, then runs one workload. Standard output carries the
harness's detail lines, a host fingerprint line, and, last, one JSON
object with the keys correct, attempted, failed and metrics.

Exit status is 0 when a result was printed (correct may still be false)
and non-zero, with no result, when the benchmark could not run.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

MANIFEST = os.path.join("perfbench", "harness", "Cargo.toml")
SEEDS = os.path.join("perfbench", "seeds.json")
WORKLOADS = ("sim_sweep", "serve_stream", "serve_churn", "shard_2core")
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("building the harness timed out")
    if done.returncode != 0:
        fail(f"building the harness failed (exit {done.returncode})")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench-harness")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within 1..60")
    if args.seed < 0:
        fail("--seed must be non-negative")

    # The harness builds against the repository's crates; without them
    # there is nothing to measure.
    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("crates", "serve", "Cargo.toml"), MANIFEST, SEEDS):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found under {root}; run from the root of a full checkout")
    with open(SEEDS) as f:
        seeds = json.load(f)

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["PERFBENCH_TMP"] = os.path.join(env["CARGO_TARGET_DIR"], "perfbench")
    binary = build(env)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed == seeds["default_seed"]:
        cmd += ["--expect-digest", seeds["digests"][args.workload]]

    load_before = os.getloadavg()
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish within {HARNESS_TIMEOUT_S} s")
    load_after = os.getloadavg()
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        print("\n".join(lines))
        fail(f"harness exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("\n".join(lines))
        fail("harness printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"harness result has keys {sorted(result)}")

    nproc = os.cpu_count() or 1
    fingerprint = {
        "nproc": nproc,
        "rustc": rustc_version(),
        "cpu_model": cpu_model(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        # Noisy: more runnable work than cores around the run, beyond the
        # benchmark's own threads.
        "noisy": max(load_before[0], load_after[0]) > nproc + 0.5,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    print("\n".join(lines[:-1]))
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
