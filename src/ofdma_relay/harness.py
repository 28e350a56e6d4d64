"""Monte-Carlo experiment orchestration and flat-file result emission.

Trial i always uses seed = base_seed + i, so any trial is reproducible in
isolation and whole experiments are byte-identical when re-run with the same
spec. Wall-clock timings are kept on the in-memory records only; emitted CSV
contains deterministic fields exclusively.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import build_gain_table
from .config import ConfigError, SystemConfig
from .dual_solver import (InfeasibleAllocationError, Protocol, SolveMode,
                          evaluate_wsr, solve)
from .oracle import oracle_solve

GAP_D_RANGE = (0.1, 0.9)
GAP_K_CHOICES = (8, 16, 32, 64, 128)
GAP_DB_RANGE = (0.0, 45.0)
WEIGHT_RANGE = (0.8, 1.2)

CSV_COLUMNS = ("seed", "protocol", "d_km", "K", "ptot_db", "wsr", "delta",
               "n_sp_over_k", "iterations", "mode")
SWEEP_COLUMNS = ("d_km", "protocol", "K", "ptot_db", "trials", "mean_wsr",
                 "mean_n_sp_over_k", "mean_delta", "max_iterations")


class HarnessIOError(OSError):
    """I/O failure annotated with the offending path."""


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str                                  # gap-pdf | sweep | solve | validate
    trials: int = 1
    protocols: tuple[str, ...] = ("proposed",)
    K: int = 32
    U: int = 5
    d_km: float = 0.5
    snr_db: float = 20.0
    sweep: tuple[float, ...] = ()
    seed: int = 0
    eps: float = 1e-6
    refill: bool = False
    raw: bool = False
    out: str | None = None
    center_km: float = 1.0
    region_radius_km: float = 0.05

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.protocols:
            raise ConfigError("at least one protocol is required")
        for name in self.protocols:
            try:
                Protocol(name)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if self.kind == "sweep" and not self.sweep:
            raise ConfigError("sweep experiments need a nonempty d list")
        for name, value in (("snr_db", self.snr_db), ("d_km", self.d_km),
                            *(("sweep", d) for d in self.sweep)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ConfigError(f"eps must be finite and positive, got {self.eps}")


@dataclass
class TrialRecord:
    seed: int
    protocol: str
    d_km: float
    K: int
    ptot_db: float
    wsr: float
    delta: float
    n_sp_over_k: float
    iterations: int
    mode: str
    wall_time_ms: float  # in-memory only, never serialized

    def csv_row(self) -> list[str]:
        return [str(self.seed), self.protocol, repr(self.d_km), str(self.K),
                repr(self.ptot_db), repr(self.wsr), repr(self.delta),
                repr(self.n_sp_over_k), str(self.iterations), self.mode]


def _draw_weights(rng: np.random.Generator, U: int) -> tuple[float, ...]:
    return tuple(float(x) for x in rng.uniform(*WEIGHT_RANGE, size=U))


def _solve_trial(cfg: SystemConfig, rng: np.random.Generator,
                 spec: ExperimentSpec) -> list[TrialRecord]:
    """Generate one channel realization and solve it for every protocol."""
    _, gains = build_gain_table(cfg, rng)
    records = []
    for name in spec.protocols:
        t0 = time.perf_counter()
        _, report = solve(gains, cfg.weights, cfg.p_tot, Protocol(name),
                          eps=spec.eps, refill=spec.refill)
        wall = (time.perf_counter() - t0) * 1e3
        records.append(TrialRecord(
            seed=cfg.seed, protocol=name, d_km=cfg.d_km, K=cfg.K,
            ptot_db=cfg.ptot_over_sigma2_db, wsr=report.wsr,
            delta=report.delta, n_sp_over_k=report.n_sp / cfg.K,
            iterations=report.iterations, mode=report.mode.value,
            wall_time_ms=wall))
    return records


def gap_pdf_trial(spec: ExperimentSpec, i: int) -> list[TrialRecord]:
    """One randomized realization of the gap-certificate ensemble."""
    seed = spec.seed + i
    rng = np.random.default_rng(seed)
    d = float(rng.uniform(*GAP_D_RANGE))
    K = int(GAP_K_CHOICES[rng.integers(len(GAP_K_CHOICES))])
    db = float(rng.uniform(*GAP_DB_RANGE))
    cfg = SystemConfig(K=K, U=spec.U, d_km=d, ptot_over_sigma2_db=db,
                       weights=_draw_weights(rng, spec.U), seed=seed,
                       center_km=spec.center_km,
                       region_radius_km=spec.region_radius_km)
    return _solve_trial(cfg, rng, spec)


def run_gap_pdf(spec: ExperimentSpec) -> list[TrialRecord]:
    records: list[TrialRecord] = []
    for i in range(spec.trials):
        records.extend(gap_pdf_trial(spec, i))
    if spec.out:
        _write_records(Path(spec.out), records)
        _write_delta_histogram(Path(spec.out), records)
        _write_spec_sidecar(Path(spec.out), spec, records)
    return records


def run_sweep_distance(spec: ExperimentSpec
                       ) -> tuple[list[dict], list[TrialRecord]]:
    """Average WSR and pairing fraction per (d, protocol)."""
    raw: list[TrialRecord] = []
    rows: list[dict] = []
    for j, d in enumerate(spec.sweep):
        per_d: list[TrialRecord] = []
        for i in range(spec.trials):
            seed = spec.seed + j * spec.trials + i
            rng = np.random.default_rng(seed)
            cfg = SystemConfig(K=spec.K, U=spec.U, d_km=float(d),
                               ptot_over_sigma2_db=spec.snr_db,
                               weights=_draw_weights(rng, spec.U), seed=seed,
                               taps=min(6, spec.K), center_km=spec.center_km,
                               region_radius_km=spec.region_radius_km)
            per_d.extend(_solve_trial(cfg, rng, spec))
        raw.extend(per_d)
        for name in spec.protocols:
            sub = [r for r in per_d if r.protocol == name]
            rows.append({
                "d_km": float(d), "protocol": name, "K": spec.K,
                "ptot_db": spec.snr_db, "trials": spec.trials,
                "mean_wsr": sum(r.wsr for r in sub) / len(sub),
                "mean_n_sp_over_k": sum(r.n_sp_over_k for r in sub) / len(sub),
                "mean_delta": sum(r.delta for r in sub) / len(sub),
                "max_iterations": max(r.iterations for r in sub),
            })
    if spec.out:
        _write_sweep(Path(spec.out), rows)
        if spec.raw:
            _write_records(Path(spec.out).with_suffix(".raw.csv"), raw)
        _write_spec_sidecar(Path(spec.out), spec, raw)
    return rows, raw


def run_single(spec: ExperimentSpec) -> dict:
    """Solve one fixed scenario and report per protocol."""
    seed = spec.seed
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(K=spec.K, U=spec.U, d_km=spec.d_km,
                       ptot_over_sigma2_db=spec.snr_db,
                       weights=_draw_weights(rng, spec.U), seed=seed,
                       taps=min(6, spec.K), center_km=spec.center_km,
                       region_radius_km=spec.region_radius_km)
    _, gains = build_gain_table(cfg, rng)
    result: dict = {"seed": seed, "K": cfg.K, "U": cfg.U, "d_km": cfg.d_km,
                    "ptot_db": cfg.ptot_over_sigma2_db,
                    "weights": list(cfg.weights), "reports": {}}
    for name in spec.protocols:
        _, report = solve(gains, cfg.weights, cfg.p_tot, Protocol(name),
                          eps=spec.eps, refill=spec.refill)
        result["reports"][name] = {
            "wsr": report.wsr, "mode": report.mode.value,
            "delta": report.delta, "n_sp": report.n_sp,
            "mu_final": report.mu_final, "iterations": report.iterations,
        }
    if spec.out:
        _dump_json(Path(spec.out), result)
    return result


def run_validate(spec: ExperimentSpec) -> dict:
    """Solver-vs-oracle comparison plus a feasibility-audit negative test."""
    if spec.K > 4 or spec.U > 2:
        raise ConfigError(
            f"validate requires K <= 4 and U <= 2, got K={spec.K}, U={spec.U}")
    trials = []
    ok = True
    max_disc = 0.0
    for i in range(spec.trials):
        seed = spec.seed + i
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, spec.K + 1))
        U = int(rng.integers(1, spec.U + 1))
        cfg = SystemConfig(K=K, U=U, d_km=float(rng.uniform(*GAP_D_RANGE)),
                           ptot_over_sigma2_db=float(rng.uniform(0.0, 30.0)),
                           weights=_draw_weights(rng, U), seed=seed,
                           taps=min(6, K), center_km=spec.center_km,
                           region_radius_km=spec.region_radius_km)
        _, gains = build_gain_table(cfg, rng)
        name = spec.protocols[i % len(spec.protocols)]
        protocol = Protocol(name)
        alloc, report = solve(gains, cfg.weights, cfg.p_tot, protocol,
                              eps=spec.eps)
        ref = oracle_solve(gains, cfg.weights, cfg.p_tot, protocol)
        lower = ref.wsr - max(report.delta * ref.wsr, 1e-6)
        upper = ref.wsr + 1e-6
        passed = lower <= report.wsr <= upper
        disc = abs(report.wsr - ref.wsr) / max(ref.wsr, 1e-12)
        max_disc = max(max_disc, disc)
        ok = ok and passed

        # Negative test: an over-budget allocation must be rejected by name.
        audit_ok = True
        total = alloc.total_power()
        if total > 0:
            scale = 1.01 * cfg.p_tot / total
            bad = dataclasses.replace(alloc)
            bad.pairs = [dataclasses.replace(p, p_s1=p.p_s1 * scale,
                                             p_s2=p.p_s2 * scale,
                                             p_r=p.p_r * scale)
                         for p in alloc.pairs]
            bad.directs_1 = [dataclasses.replace(d, power=d.power * scale)
                             for d in alloc.directs_1]
            bad.directs_2 = [dataclasses.replace(d, power=d.power * scale)
                             for d in alloc.directs_2]
            try:
                evaluate_wsr(bad, gains, cfg.weights, protocol, cfg.p_tot)
                audit_ok = False
            except InfeasibleAllocationError as exc:
                audit_ok = exc.constraint == "power-budget"
            ok = ok and audit_ok

        trials.append({"seed": seed, "protocol": name, "K": K, "U": U,
                       "solver_wsr": report.wsr, "oracle_wsr": ref.wsr,
                       "delta": report.delta, "discrepancy": disc,
                       "pass": passed, "audit_rejects_overrun": audit_ok})
    verdict = {"pass": ok, "trials": len(trials),
               "max_relative_discrepancy": max_disc, "results": trials}
    if spec.out:
        _dump_json(Path(spec.out), verdict)
    return verdict


def _open_for_write(path: Path):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w", newline="")
    except OSError as exc:
        raise HarnessIOError(f"cannot write {path}: {exc}") from exc


def _write_records(path: Path, records: list[TrialRecord]) -> None:
    with _open_for_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(r.csv_row())


def _write_sweep(path: Path, rows: list[dict]) -> None:
    with _open_for_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([repr(row[c]) if isinstance(row[c], float)
                             else str(row[c]) for c in SWEEP_COLUMNS])


def _write_delta_histogram(path: Path, records: list[TrialRecord]) -> None:
    """Histogram of 10*log10(delta) over epsilon-branch exits only."""
    deltas = [r.delta for r in records
              if r.mode == SolveMode.APPROX_UPPER_BOUND.value and r.delta > 0]
    hist_path = path.with_suffix(".hist.csv")
    with _open_for_write(hist_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(("bin_left_db", "bin_right_db", "count"))
        if deltas:
            db = 10.0 * np.log10(np.asarray(deltas))
            counts, edges = np.histogram(db, bins=40)
            for c, left, right in zip(counts, edges[:-1], edges[1:]):
                writer.writerow((repr(float(left)), repr(float(right)),
                                 str(int(c))))


def _write_spec_sidecar(path: Path, spec: ExperimentSpec,
                        records: list[TrialRecord]) -> None:
    exact = sum(r.mode == SolveMode.EXACT_STATIONARY.value for r in records)
    payload = {"spec": dataclasses.asdict(spec),
               "records": len(records),
               "exact_stationary_exits": exact,
               "epsilon_exits": len(records) - exact}
    _dump_json(path.with_suffix(".spec.json"), payload)


def _dump_json(path: Path, payload: dict) -> None:
    with _open_for_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
