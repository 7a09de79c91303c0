#!/usr/bin/env python3
"""Host-speed benchmark of the PTStore simulator: build, run one workload, check.

Run from the root of a checkout:

    python3 hostbench/run.py --workload guest_redis --seed 1 --seconds 30 --trace 0

Builds hostbench/ (which compiles the simulator from src/) into the
directory named by CARGO_TARGET_DIR, default .bench_build, then runs the
hostbench binary. Its human-readable lines are passed through; the last
line printed is one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are BENCHMARK.json's end_to_end
metrics; with --trace 1 its per_layer metrics, where a layer the workload
does not exercise reads 0. The traced run also writes its spans (Chrome
trace_event JSON) under <build dir>/spans/.

Exit codes: 0 all output checks passed; 1 an output check failed (the JSON
says correct: false); 2 bad arguments, missing files or a failed build;
3 the run overran its time limit; 4 the binary's report does not match BENCHMARK.json.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

WORKLOADS = ("guest_redis", "campaign_mix", "ptmc_2hart")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(code, msg):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir(root):
    """CARGO_TARGET_DIR when it stays inside the checkout, else .bench_build."""
    path = os.path.realpath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    if os.path.commonpath([root, path]) != root or path == root:
        path = os.path.join(root, ".bench_build")
    return path


def build(root, out):
    """Configure until the binary exists, then build incrementally; compiler output goes to stderr."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        if not os.path.exists(os.path.join(out, "hostbench")):
            steps.append(["cmake", "-S", os.path.join(root, "hostbench"), "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target", "hostbench", "-j", jobs])
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                die(2, f"build step failed: {e}")
            if r.returncode != 0:
                die(2, f"build step failed ({r.returncode}): {' '.join(cmd)}")
    return os.path.join(out, "hostbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die(2, "--seed must be >= 0 and --seconds > 0")

    root = os.path.realpath(os.getcwd())
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(2, f"cannot read BENCHMARK.json: {e}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    out = build_dir(root)
    binary = build(root, out)
    spans_dir = os.path.join(out, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        die(3, f"{args.workload} overran {RUN_TIMEOUT_S} s")

    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        report = json.loads(lines[-1])
    except ValueError:
        die(4, f"binary exited {proc.returncode} without a JSON report")
    if proc.returncode not in (0, 1):
        die(4, f"binary exited {proc.returncode}")

    metrics = report["metrics"]
    for name, m in metrics.items():
        if declared.get(name) != m["unit"]:
            die(4, f"metric {name} ({m['unit']}) is not declared with that unit in BENCHMARK.json")
    missing = [n for n in declared if n not in metrics]
    if not args.trace and missing:
        die(4, f"end-to-end metrics missing: {missing}")
    for name in missing:  # Layers this workload does not exercise.
        metrics[name] = {"value": 0, "unit": declared[name]}

    result = {
        "correct": bool(report["correct"]) and proc.returncode == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {n: metrics[n] for n in declared},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
