#!/usr/bin/env python3
"""Runs workloads repeatedly and reports how steady each end-to-end metric is.

    python3 perfbench/steadiness.py --workloads tpcc-fig9 ycsb-open \\
        --seeds 1 2 3 4 5 6 7 8 9 10

Run from the root of a checkout. For every workload it runs
`perfbench/run.py --trace 0` once per seed (run length: BENCHMARK.json's
run_seconds unless --seconds is given) and prints, per end-to-end metric,
the median, the first and third quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median, the metric's bound, and whether the spread is
below a third of the bound — the evidence behind the bounds recorded in
BENCHMARK.json. Modeled metrics vary only with the seed; host times vary
with the machine too. --json writes every run's values and the summary.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: run failed "
                           f"(exit {proc.returncode})")
    result = json.loads(last)
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: output check failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread <= bound / 3}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int,
                    default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--json", help="write runs and summary to this file")
    args = ap.parse_args()

    report = {}
    all_steady = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{m['name']}={runs[-1][m['name']]:.6g}"
                for m in spec["end_to_end"]), file=sys.stderr, flush=True)
        summary = {}
        print(f"{workload}: {len(runs)} runs of {args.seconds:g} s")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  steady")
        for m in spec["end_to_end"]:
            s = summarize([r[m["name"]] for r in runs], m["bound"])
            summary[m["name"]] = s
            # setup_s is exempt from the spread rule, not from the bound.
            all_steady &= s["steady"] or m["name"] == "setup_s"
            print(f"  {m['name']:<16} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['spread']:>8.4f} {s['bound']:>6.3f}  "
                  f"{'yes' if s['steady'] else 'NO'}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
