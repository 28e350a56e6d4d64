"""Repeat the benchmark and summarise the spread of every metric.

    python3 bench/repeat.py                     # 10 runs of every workload
    python3 bench/repeat.py --runs 5 --workloads k256-20db

Run i (from 1) uses seed i for every workload and the run length from
BENCHMARK.json, each run in its own process; the workload order is reversed
on every other run so that drift in machine speed does not always land on
the same workload. For each workload
and metric it prints the median, the quartiles (``statistics.quantiles``,
n=4) and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json, and writes all runs to bench/results/repeat-*.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(spec: dict, runs: dict, trace: int) -> dict:
    declared = spec["per_layer" if trace else "end_to_end"]
    summary = {}
    for workload, results in runs.items():
        rows = {}
        for m in declared:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            if any(v is None for v in values):
                rows[m["name"]] = None
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "unit": m["unit"],
                "spread": (q3 - q1) / med if med else None,
                "bound": m.get("bound")}
        fails = {(r["failed"], r["attempted"]) for r in results}
        summary[workload] = {
            "metrics": rows, "correct": all(r["correct"] for r in results),
            "failed/attempted": sorted(fails)}
    return summary


def print_summary(summary: dict) -> None:
    for workload, s in summary.items():
        print(f"\n{workload}  correct={s['correct']}  "
              f"failed/attempted={s['failed/attempted']}")
        for name, row in s["metrics"].items():
            if row is None:
                print(f"  {name:48s} absent")
                continue
            spread = ("" if row["spread"] is None
                      else f"spread {100 * row['spread']:6.2f}%")
            bound = ("" if row["bound"] is None
                     else f" bound {100 * row['bound']:.0f}%")
            print(f"  {name:48s} {row['median']:12.6g} "
                  f"[{row['q1']:.6g}, {row['q3']:.6g}] {row['unit']:10s} "
                  f"{spread}{bound}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")

    runs: dict[str, list] = {w: [] for w in args.workloads}
    for i in range(args.runs):
        order = args.workloads if i % 2 == 0 else args.workloads[::-1]
        for workload in order:
            result = run_once(workload, i + 1, spec["run_seconds"], args.trace)
            runs[workload].append(result)
            print(f"run {i + 1}/{args.runs} {workload}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if v["value"] is not None), flush=True)

    summary = summarise(spec, runs, args.trace)
    print_summary(summary)
    (BENCH / "results").mkdir(exist_ok=True)
    out = BENCH / "results" / f"repeat-trace{args.trace}-{int(time.time())}.json"
    out.write_text(json.dumps({"args": vars(args), "summary": summary,
                               "runs": runs}, indent=1))
    print(f"\nwrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
