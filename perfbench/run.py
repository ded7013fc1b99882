#!/usr/bin/env python3
"""Build the attack benchmark from source and run it on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload unique128 --seed 1 --seconds 40 --trace 0

The Go command in this directory (main.go) runs a workload once per
process. With --trace 0 this script starts it again and again, one process
at a time, while another run fits in --seconds, and reports the median of
each end-to-end metric over those processes; each process runs only that
workload, so its peak RSS is the workload's. With --trace 1 it starts one
process, which runs the workload untraced and then traced, and passes its
per-layer metrics through.

Every process reports the deterministic counts of each attack (its
fingerprints). They must be identical in every process of a run and equal
to those any earlier run of the same binary recorded for the same workload
and seed; otherwise the result is not correct.

Everything the build and the runs write stays under the build directory
($CARGO_TARGET_DIR, default .bench_build, relative to the repository root):
the Go build cache, the binary and the recorded fingerprints. The last
line of standard output is the JSON result. Without the repository's Go
module next to this directory the build fails and the script exits 1.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MEDIAN_METRICS = ("attack_s", "setup_s", "cpu_s", "peak_rss_mb")


def build(env, binary):
    done = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr)
    return done.returncode == 0


def run_once(binary, env, workload, seed, trace):
    """Runs one benchmark process; returns its report and its wall time."""
    t0 = time.monotonic()
    done = subprocess.run([binary, "-workload", workload, "-seed", str(seed), "-trace", str(trace)],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    if done.returncode != 0:
        raise RuntimeError(f"perfbench exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1]), wall


def check_recorded(path, fingerprints):
    """Compares fingerprints with the ones recorded at path, recording them
    there first if none are; returns False on a mismatch."""
    if os.path.exists(path):
        with open(path) as f:
            if json.load(f) != fingerprints:
                print(f"perfbench: determinism: fingerprints differ from {path}", file=sys.stderr)
                return False
        return True
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(fingerprints, f)
    os.replace(path + ".tmp", path)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        # The go command keeps its env file and telemetry under the user
        # config directory; keep them in the build directory too.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    if not build(env, binary):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]

    begin = time.monotonic()
    reports = []
    try:
        while True:
            rep, wall = run_once(binary, env, args.workload, args.seed, args.trace)
            reports.append(rep)
            if args.trace == 1:
                break
            print(f"perfbench: process {len(reports)}: " + " ".join(
                f"{k}={rep['metrics'][k]['value']:.6g}" for k in MEDIAN_METRICS), file=sys.stderr)
            if time.monotonic() - begin + wall > args.seconds:
                break
    except (RuntimeError, ValueError, IndexError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    first = reports[0]
    correct = all(r["correct"] for r in reports)
    if any(r["fingerprints"] != first["fingerprints"] for r in reports[1:]):
        print("perfbench: determinism: fingerprints differ between runs of one seed", file=sys.stderr)
        correct = False
    recorded = os.path.join(out, "fingerprints", digest, f"{args.workload}-{args.seed}.json")
    correct = check_recorded(recorded, first["fingerprints"]) and correct

    metrics = first["metrics"]
    if args.trace == 0:
        metrics = dict(metrics)
        for name in MEDIAN_METRICS:
            metrics[name] = {"value": statistics.median(r["metrics"][name]["value"] for r in reports),
                             "unit": metrics[name]["unit"]}
    print(f"perfbench: {args.workload} seed {args.seed}: {len(reports)} process(es)", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
