"""Negative tests for the benchmark's output checks.

    python3 -m pytest bench/test_checks.py

Each test corrupts one field of a real solver output and requires the
matching check to reject it; the unmodified outputs must pass.
"""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from ofdma_relay import channel, dual_solver, pair_gains  # noqa: E402

import checks  # noqa: E402
from workloads import make_trials  # noqa: E402


@pytest.fixture(scope="module")
def solved():
    """Outputs of all three protocols on one sweep-k32 trial."""
    cfg = make_trials("sweep-k32", 7)[10]
    _, gains = channel.build_gain_table(cfg, np.random.default_rng(cfg.seed))
    out = {}
    for name in ("proposed", "bp1", "bp2"):
        alloc, report = dual_solver.solve(gains, cfg.weights, cfg.p_tot,
                                          dual_solver.Protocol(name))
        out[name] = (alloc, report)
    return cfg, gains, out


def run_check(solved, name, alloc=None, report=None):
    cfg, gains, out = solved
    alloc = alloc or out[name][0]
    report = report or out[name][1]
    return checks.check_solve(alloc, report, gains, cfg.weights, cfg.p_tot,
                              name)


def expect_failure(check: str, *args, **kwargs):
    with pytest.raises(checks.CheckFailure) as info:
        run_check(*args, **kwargs)
    assert info.value.check == check


@pytest.mark.parametrize("name", ["proposed", "bp1", "bp2"])
def test_clean_outputs_pass(solved, name):
    run_check(solved, name)


def test_clean_nesting_passes(solved):
    checks.check_nesting({n: r for n, (_, r) in solved[2].items()})


def test_checks_use_no_solver_evaluation(solved, monkeypatch):
    def forbidden(*args, **kwargs):
        raise RuntimeError("the checks must not call the solver's own code")
    for mod, attrs in ((dual_solver, ("evaluate_wsr", "solve_lrp",
                                      "lrp_metrics", "build_pair_gain_table")),
                       (pair_gains, ("rate", "snr_relay_aided",
                                     "effective_gain_proposed",
                                     "effective_gain_benchmark"))):
        for attr in attrs:
            monkeypatch.setattr(mod, attr, forbidden)
    for name in ("proposed", "bp1", "bp2"):
        run_check(solved, name)


def test_over_budget_power_rejected(solved):
    cfg, _, out = solved
    alloc = out["proposed"][0]
    d = alloc.directs_1[0]
    # Lift the total to exactly p_tot * (1 + 1e-6), whatever the slack was.
    over = cfg.p_tot * (1.0 + 1e-6) - alloc.total_power()
    extra = dataclasses.replace(d, power=d.power + over)
    bad = dataclasses.replace(alloc, directs_1=[extra] + alloc.directs_1[1:])
    expect_failure("power-budget", solved, "proposed", alloc=bad)


def test_duplicated_subcarrier_rejected(solved):
    alloc = solved[2]["proposed"][0]
    dup = dataclasses.replace(alloc.directs_1[0],
                              subcarrier=alloc.directs_1[1].subcarrier)
    bad = dataclasses.replace(alloc, directs_1=[dup] + alloc.directs_1[1:])
    expect_failure("slot1-cover", solved, "proposed", alloc=bad)


def test_wsr_off_by_one_millionth_rejected(solved):
    report = solved[2]["bp1"][1]
    bad = dataclasses.replace(report, wsr=report.wsr * (1.0 + 1e-6))
    expect_failure("wsr", solved, "bp1", report=bad)


def test_delta_below_true_gap_rejected(solved):
    report = solved[2]["proposed"][1]
    # Halving delta must move the bound by more than the check's round-off
    # tolerance (DUAL_RTOL relative).
    assert report.mode.value == "approx-upper-bound"
    assert report.delta > 100 * checks.DUAL_RTOL
    bad = dataclasses.replace(report, delta=report.delta / 2)
    expect_failure("delta-bound", solved, "proposed", report=bad)


def test_relay_power_in_bp1_second_slot_rejected(solved):
    alloc = solved[2]["bp1"][0]
    i = max(range(len(alloc.pairs)), key=lambda j: alloc.pairs[j].p_r)
    p = alloc.pairs[i]
    moved = dataclasses.replace(p, p_s2=0.5 * p.p_r, p_r=0.5 * p.p_r)
    pairs = alloc.pairs[:i] + [moved] + alloc.pairs[i + 1:]
    bad = dataclasses.replace(alloc, pairs=pairs)
    expect_failure("protocol-p_s2", solved, "bp1", alloc=bad)


def test_nesting_violation_rejected(solved):
    reports = {n: r for n, (_, r) in solved[2].items()}
    big = reports["proposed"]
    reports["bp1"] = dataclasses.replace(
        reports["bp1"], wsr=big.wsr * (1.0 + big.delta) * (1.0 + 1e-6))
    with pytest.raises(checks.CheckFailure) as info:
        checks.check_nesting(reports)
    assert info.value.check == "nesting"
