#!/usr/bin/env python3
"""Build and run the acstab end-to-end benchmark.

Run from the root of a checkout:

    python3 bench_e2e/run.py --workload mesh-node --seed 1 --seconds 10 --trace 0
    python3 bench_e2e/run.py --workload all --seed 1 --seconds 10 --trace 0

The first call configures and builds bench_e2e/ (the acstab library, the
tool and the benchmark program acstab_e2e, Release) under
$CARGO_TARGET_DIR or .bench_build/; later calls rebuild incrementally. A
single workload prints one JSON result object as the last line of stdout;
`all` prints a table of every workload instead. Build output and the
per-run metric table go to stderr. The exit status is non-zero, and no
result is printed, when the build fails, acstab_e2e fails, or its output
does not name exactly the metrics BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench_e2e")
# Per-run wall-clock cap: a run must end well inside three minutes.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"bench_e2e: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_root):
    build_dir = os.path.join(build_root, "cmake")
    try:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", build_dir, "-j4",
                        "--target", "acstab_e2e", "bench_e2e_selftest"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        fail(f"build failed: {e}")
    return os.path.join(build_dir, "acstab_e2e")


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def run_one(exe, build_root, args, workload, trace, spec):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--workdir", os.path.join(build_root, "work"), "--root", ROOT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: acstab_e2e exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload}: metrics {sorted(got.items())} do not match "
             f"BENCHMARK.json {sorted(want.items())}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload '{args.workload}' (expected one of {names} or 'all')")
    if not os.path.isfile(os.path.join(ROOT, "src", "tool", "main.cpp")):
        fail(f"no acstab sources under {ROOT}/src")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(build_root)

    if args.workload != "all":
        result = run_one(exe, build_root, args, args.workload, args.trace, spec)
        print(json.dumps(result))
        return

    rows = []
    for name in names:
        result = run_one(exe, build_root, args, name, args.trace, spec)
        rows.append((name, result))
    metric_names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(f"{'metric':<28}" + "".join(f"{n:>16}" for n in names))
    for metric in metric_names:
        print(f"{metric:<28}" + "".join(
            f"{r['metrics'][metric]['value']:>16.6g}" for _, r in rows))
    print(f"{'fail_ratio':<28}" + "".join(
        f"{r['failed'] / r['attempted']:>16.6g}" for _, r in rows))
    if not all(r["correct"] for _, r in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
