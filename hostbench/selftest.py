#!/usr/bin/env python3
"""Determinism self-test of the host-speed benchmark.

Run from the root of a checkout:

    python3 hostbench/selftest.py [--seed N] [--workloads guest_redis,campaign_mix,ptmc_2hart]

For each workload, runs the traced benchmark twice with the same seed and
checks that:
  * both runs pass their output checks (correct: true). Inside one traced
    run the benchmark already replays the fixed input untraced, untraced
    again and traced, and fails unless all three give identical simulated
    cycles and counters, so tracing, spans and probes cannot perturb the
    simulation unnoticed;
  * the two runs print identical deterministic counts (sim_cycles, every
    telemetry counter of the fixed input, ptmc's state/transition counts);
  * the per-layer count metrics (unit "count", except sample counts "_n"
    and the sim_cycles pin) agree between the two runs.
Exit code 0 when every check holds, 1 otherwise.
"""
import argparse
import json
import subprocess
import sys

WORKLOADS = ("guest_redis", "campaign_mix", "ptmc_2hart")


def traced_run(workload, seed):
    cmd = [sys.executable, "hostbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600).stdout
    lines = out.rstrip("\n").split("\n")
    counts = next(json.loads(l[len("counts: "):]) for l in lines if l.startswith("counts: "))
    return json.loads(lines[-1]), counts


def count_metrics(report):
    return {n: m["value"] for n, m in report["metrics"].items()
            if (m["unit"] in ("count", "cycles")) and not n.endswith("_n")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    ok = True
    for w in args.workloads.split(","):
        (r1, c1), (r2, c2) = traced_run(w, args.seed), traced_run(w, args.seed)
        checks = {
            "correct": r1["correct"] and r2["correct"],
            "counts identical": c1 == c2,
            "per-layer counts identical": count_metrics(r1) == count_metrics(r2),
        }
        for name, good in checks.items():
            print(f"{w}: {name}: {'ok' if good else 'FAILED'}")
            ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
