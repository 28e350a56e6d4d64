"""Benchmark workloads: each turns a seed into a fixed list of trials.

A trial is one ``SystemConfig``: ``channel.build_gain_table`` draws its
channel from ``numpy.random.default_rng(cfg.seed)``, as the harness does, and
it is solved once per protocol of the workload. Everything random is drawn
from ``numpy.random.default_rng(seed)``, so a seed fixes the inputs exactly.

Drawn parameters are stratified (one draw inside each of n equal slices of
the range) rather than i.i.d., so that the mix of sizes and SNRs, and with it
the cost of a round, varies little from seed to seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ofdma_relay.config import SystemConfig
# The gap ensemble's ranges and the weight draw are the harness's own, so the
# benchmark's traffic cannot drift from the experiment it stands for.
from ofdma_relay.harness import (GAP_D_RANGE, GAP_DB_RANGE, GAP_K_CHOICES,
                                 _draw_weights)

U = 5


@dataclass(frozen=True)
class Workload:
    name: str
    protocols: tuple[str, ...]
    refill: bool


# Why each workload exists is recorded in BENCHMARK.json and the README.
WORKLOADS = {w.name: w for w in (
    Workload("sweep-k32", ("proposed", "bp1", "bp2"), False),
    Workload("k256-45db", ("proposed", "bp1", "bp2"), False),
    Workload("k256-20db", ("proposed", "bp1", "bp2"), False),
    Workload("gap-refill", ("proposed",), True),
)}

SWEEP_D_KM = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
SWEEP_TRIALS_PER_D = 4
K256_D_KM = (0.3, 0.5, 0.7)
# Trials per distance, sized so one round takes about 20 s on a 2 GHz Xeon.
K256_TRIALS_PER_D = {"k256-45db": 4, "k256-20db": 3}
GAP_TRIALS_PER_K = 16


def _stratified(rng: np.random.Generator, lo: float, hi: float,
                n: int) -> np.ndarray:
    """One uniform draw in each of n equal slices of [lo, hi], shuffled."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return lo + (hi - lo) * u


def _trial(rng: np.random.Generator, K: int, d_km: float,
           snr_db: float) -> SystemConfig:
    return SystemConfig(K=K, U=U, d_km=float(d_km),
                        ptot_over_sigma2_db=float(snr_db),
                        weights=_draw_weights(rng, U),
                        seed=int(rng.integers(2**63)), taps=min(6, K))


def make_trials(name: str, seed: int) -> list[SystemConfig]:
    """The fixed trial list of one workload; the same seed gives the same list."""
    rng = np.random.default_rng(seed)
    if name == "sweep-k32":
        return [_trial(rng, 32, d, 20.0)
                for d in SWEEP_D_KM for _ in range(SWEEP_TRIALS_PER_D)]
    if name in ("k256-45db", "k256-20db"):
        snr_db = 45.0 if name == "k256-45db" else 20.0
        return [_trial(rng, 256, d, snr_db)
                for d in K256_D_KM for _ in range(K256_TRIALS_PER_D[name])]
    if name == "gap-refill":
        trials = []
        for K in GAP_K_CHOICES:
            dbs = _stratified(rng, *GAP_DB_RANGE, GAP_TRIALS_PER_K)
            ds = _stratified(rng, *GAP_D_RANGE, GAP_TRIALS_PER_K)
            trials.extend(_trial(rng, K, d, db) for d, db in zip(ds, dbs))
        return trials
    raise KeyError(f"unknown workload {name!r}")
