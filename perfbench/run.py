#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload tpcc-fig9 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. The first run configures and builds the
driver (perfbench/CMakeLists.txt) under .bench_build/perfbench, or under
$CARGO_TARGET_DIR/perfbench when that is set; later runs only rebuild what
changed. The driver's metrics are printed as a table (name, value, unit,
better direction) followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end-to-end ones, with
--trace 1 its per-layer ones (the table then shows both, and the traced
run's host-span and simulated-time Chrome traces land in the build
directory's traces/). The exit code is non-zero when the build fails, an
output check fails or a declared metric is missing.

    python3 perfbench/run.py --selftest

builds and runs the reducers' unit tests instead.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(target):
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", target, "-j",
         str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr)
    return out / target


def catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def print_table(title, entries, values):
    print(title)
    for m in entries:
        v = values.get(m["name"])
        shown = "missing" if v is None else f"{v:.6g}"
        print(f"  {m['name']:<34} {shown:>14} {m['unit']:<12} "
              f"{m['better']} is better")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    try:
        end_to_end, per_layer = catalog()
        binary = build("perfbench_reducers_test" if args.selftest
                       else "perfbench_driver")
    except (OSError, KeyError, ValueError,
            subprocess.CalledProcessError) as e:
        log(f"perfbench: cannot set up the benchmark: {e}")
        return 1
    if args.selftest:
        return subprocess.run([str(binary)]).returncode

    traces = build_dir() / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--trace-dir", str(traces)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench: driver exited {proc.returncode} without a result")
        return 1
    raw = json.loads(lines[-1])

    wanted = per_layer if args.trace else end_to_end
    values = raw["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    correct = raw["correct"] and not missing
    if missing and raw["correct"]:
        log(f"perfbench: driver did not report {', '.join(missing)}")

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{raw['passes']} passes, {raw['attempted']} operations, "
          f"{raw['failed']} failed, correct={correct}")
    print_table("end-to-end (host times over the timed passes, see "
                "perfbench/NOTES.md):", end_to_end, values)
    if args.trace:
        print_table("per-layer (the timed pass; span.* from the traced "
                    "pass):", per_layer, values)

    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }
    print(json.dumps(result))
    return 0 if correct and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
