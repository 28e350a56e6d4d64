"""Benchmark of the dual solver, driven through the public API.

    python3 bench/run.py --workload sweep-k32 --seed 1 --seconds 20 --trace 0

Each trial draws a channel with ``channel.build_gain_table`` and calls
``dual_solver.solve`` once per protocol of the workload. The seed fixes the
workload's trial list; the run repeats that list in whole rounds for about
``--seconds`` seconds, checks every solve with ``checks.py`` (off the timed
path) and prints, as its last line, one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``). A traced
run alternates untraced and traced rounds, so that its overhead is measured
in the same process.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

# Pin BLAS and OpenMP pools before numpy loads them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"


@dataclass
class Stats:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    trials: int = 0
    trial_s: float = 0.0
    round_rates: list = field(default_factory=list)  # trials/s per round
    solve_ms: list = field(default_factory=list)
    solves: list = field(default_factory=list)   # first round only


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_trial(api, wl, cfg, stats: Stats, keep: bool) -> None:
    """Time one channel draw plus its solves, then check every output."""
    np, channel, dual_solver, checks = api
    rng = np.random.default_rng(cfg.seed)
    start = time.perf_counter()
    _, gains = channel.build_gain_table(cfg, rng)
    outputs = []
    for name in wl.protocols:
        stats.attempted += 1
        t0 = time.perf_counter()
        try:
            alloc, report = dual_solver.solve(
                gains, cfg.weights, cfg.p_tot, dual_solver.Protocol(name),
                refill=wl.refill)
        except Exception:  # a failed solve is counted, the run goes on
            stats.failed += 1
            traceback.print_exc()
            continue
        stats.solve_ms.append((time.perf_counter() - t0) * 1e3)
        outputs.append((name, alloc, report))
    stats.trial_s += time.perf_counter() - start
    stats.trials += 1

    try:
        for name, alloc, report in outputs:
            share = checks.check_solve(alloc, report, gains, cfg.weights,
                                       cfg.p_tot, name)
            if keep:
                stats.solves.append({
                    "protocol": name, "K": cfg.K, "wsr": report.wsr,
                    "delta": report.delta, "mode": report.mode.value,
                    "relay_rows_share": share})
        checks.check_nesting({name: report for name, _, report in outputs})
    except checks.CheckFailure as exc:
        stats.correct = False
        print(f"check failed: K={cfg.K} d={cfg.d_km} db="
              f"{cfg.ptot_over_sigma2_db} seed={cfg.seed}: {exc}",
              file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ofdma_relay" / "__init__.py").is_file():
        print(f"bench: no ofdma_relay sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    from ofdma_relay import channel, dual_solver, pair_gains

    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    trials = workloads.make_trials(wl.name, args.seed)
    api = (np, channel, dual_solver, checks)

    # Warm-up: one solve of the first trial, before timing starts.
    first = trials[0]
    _, gains = channel.build_gain_table(first, np.random.default_rng(first.seed))
    dual_solver.solve(gains, first.weights, first.p_tot,
                      dual_solver.Protocol(wl.protocols[0]), refill=wl.refill)
    setup_s = time.perf_counter() - T0

    tracer = tracing.Tracer({"channel": channel, "dual_solver": dual_solver,
                             "pair_gains": pair_gains}) if args.trace else None
    plain, traced = Stats(), Stats()
    start = time.perf_counter()
    longest = 0.0
    rounds = 0
    while True:
        use_trace = tracer is not None and rounds % 2 == 1
        stats = traced if use_trace else plain
        r0 = time.perf_counter()
        timed_before = stats.trial_s
        if use_trace:
            tracer.install()
        try:
            for trial in trials:
                run_trial(api, wl, trial, stats, keep=rounds == 0)
        finally:
            if use_trace:
                tracer.uninstall()
        stats.round_rates.append(len(trials) / (stats.trial_s - timed_before))
        longest = max(longest, time.perf_counter() - r0)
        rounds += 1
        if tracer is not None and rounds < 2:
            continue
        if time.perf_counter() - start + longest > args.seconds:
            break

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    correct = plain.correct and traced.correct
    solves = plain.solves
    if args.trace:
        metrics = tracer.layer_metrics()
        shares = [s["relay_rows_share"] for s in solves
                  if s["relay_rows_share"] is not None]
        U = trials[0].U
        metrics.update({
            "dual_solver.build_pair_gain_table.mb_computed":
                statistics.fmean(s["K"] ** 2 * U * 8 / 1e6 for s in solves),
            "assignment.relay_rows_share":
                statistics.fmean(shares) if shares else None,
            "dual_solver.certified_gap_mean":
                statistics.fmean(s["delta"] for s in solves),
            "dual_solver.certified_gap_max": max(s["delta"] for s in solves),
            "dual_solver.exact_stationary_share": statistics.fmean(
                s["mode"] == "exact-stationary" for s in solves),
            "trace.overhead_pct": 100.0 * (
                (traced.trial_s / traced.trials)
                / (plain.trial_s / plain.trials) - 1.0),
        })
        declared = spec["per_layer"]
    else:
        metrics = {
            "setup_s": setup_s,
            # Median over rounds, so a slow spell of a few seconds counts once.
            "trials_per_s": statistics.median(plain.round_rates),
            "solve_ms_p50": statistics.median(plain.solve_ms),
            "wsr_mean": statistics.fmean(s["wsr"] for s in solves),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        declared = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"bench: metrics {sorted(metrics)} differ from BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
        if tracer.absent:
            print(f"absent layers: {', '.join(tracer.absent)}")
    print(f"{wl.name} seed={args.seed} rounds={rounds} trials/round="
          f"{len(trials)} solves={len(plain.solve_ms) + len(traced.solve_ms)}")
    for name in units:
        value = metrics[name]
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:48s} {shown:>12s} {units[name]}")
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    with open(stem.with_suffix(".json"), "w") as f:
        json.dump({**result, "rounds": rounds, "solves": solves}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
