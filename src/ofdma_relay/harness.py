"""Monte-Carlo experiment orchestration and flat-file result emission.

Trial i always uses seed = base_seed + i, so any trial is reproducible in
isolation and whole experiments are byte-identical when re-run with the same
spec.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import build_gain_table
from .config import ConfigError, SystemConfig
from .dual_solver import (MAX_PAIR_ENTRIES, InfeasibleAllocationError,
                          Protocol, SolveMode, evaluate_wsr, solve)
from .oracle import MAX_K, MAX_U, oracle_solve

GAP_D_RANGE = (0.1, 0.9)
GAP_K_CHOICES = (8, 16, 32, 64, 128)
GAP_DB_RANGE = (0.0, 45.0)
WEIGHT_RANGE = (0.8, 1.2)

SWEEP_COLUMNS = ("d_km", "protocol", "K", "ptot_db", "trials", "mean_wsr",
                 "mean_n_sp_over_k", "mean_delta", "max_iterations")


class HarnessIOError(OSError):
    """I/O failure annotated with the offending path."""


# The ExperimentSpec fields each command reads: its only CLI flags, config
# keys and .spec.json entries; every other field keeps its default. For
# validate, K and U are the upper limits of the random draw.
_COMMON = ("protocols", "U", "seed", "out")
FIELDS = {
    "solve": _COMMON + ("K", "d_km", "snr_db", "refill"),
    "gap-pdf": _COMMON + ("trials", "refill"),
    "sweep": _COMMON + ("trials", "K", "snr_db", "sweep", "refill"),
    "validate": _COMMON + ("trials", "K"),
}


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str                                  # a key of FIELDS
    trials: int = 1
    protocols: tuple[str, ...] = ("proposed",)
    K: int = 32
    U: int = 5
    d_km: float = 0.5
    snr_db: float = 20.0
    sweep: tuple[float, ...] = ()
    seed: int = 0
    refill: bool = False
    out: str | None = None

    def __post_init__(self):
        if self.kind not in FIELDS:
            raise ConfigError(f"unknown kind {self.kind!r}")
        for f in dataclasses.fields(self):
            if (f.name != "kind" and f.name not in FIELDS[self.kind]
                    and getattr(self, f.name) != f.default):
                raise ConfigError(f"{self.kind} does not read {f.name}")
        self._check_types()
        for name in ("trials", "K", "U"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        K = max(GAP_K_CHOICES) if self.kind == "gap-pdf" else self.K
        if K * K * self.U > MAX_PAIR_ENTRIES:
            raise ConfigError(f"{self.kind} solves K={K}, U={self.U}, which "
                              f"exceeds K^2*U <= {MAX_PAIR_ENTRIES}")
        if not self.protocols:
            raise ConfigError("at least one protocol is required")
        if len(set(self.protocols)) < len(self.protocols):
            raise ConfigError(
                f"protocols must not repeat, got {list(self.protocols)}")
        for name in self.protocols:
            try:
                Protocol(name)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if self.kind == "sweep" and not self.sweep:
            raise ConfigError("sweep experiments need a nonempty d list")
        if not math.isfinite(self.snr_db):
            raise ConfigError(f"snr_db must be finite, got {self.snr_db}")
        for name, value in (("d_km", self.d_km),
                            *(("sweep", d) for d in self.sweep)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, "
                                  f"got {value}")
        if len(set(self.sweep)) < len(self.sweep):
            raise ConfigError(
                f"sweep distances must not repeat, got {list(self.sweep)}")
        if self.out == "":
            raise ConfigError("out must not be empty")

    def _check_types(self):
        # A JSON config file may give any field any type. bool is an int
        # subclass, but never a valid count or number.
        def number(v):
            return isinstance(v, (int, float)) and not isinstance(v, bool)
        for names, ok, what in (
                (("trials", "K", "U", "seed"),
                 lambda v: number(v) and isinstance(v, int) and v >= 0,
                 "a nonnegative integer"),
                (("d_km", "snr_db"), number, "a number"),
                (("refill",), lambda v: isinstance(v, bool),
                 "true or false"),
                (("out",), lambda v: v is None or isinstance(v, str),
                 "a string or null"),
                (("protocols",), lambda v: isinstance(v, tuple)
                 and all(isinstance(p, str) for p in v), "a list of strings"),
                (("sweep",), lambda v: isinstance(v, tuple)
                 and all(map(number, v)), "a list of numbers")):
            for name in names:
                value = getattr(self, name)
                if not ok(value):
                    raise ConfigError(f"{name} must be {what}, got {value!r}")


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


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(TrialRecord))


def _draw_weights(rng: np.random.Generator, U: int) -> tuple[float, ...]:
    return tuple(float(x) for x in rng.uniform(*WEIGHT_RANGE, size=U))


def _scenario(rng: np.random.Generator, seed: int, K: int, U: int,
              d_km: float, snr_db: float) -> SystemConfig:
    """A scenario in the default user region; draws the weights from rng."""
    return SystemConfig(K=K, U=U, d_km=d_km, ptot_over_sigma2_db=snr_db,
                        weights=_draw_weights(rng, U), seed=seed,
                        taps=min(6, K))


def _solve_trial(cfg: SystemConfig, rng: np.random.Generator,
                 spec: ExperimentSpec) -> list[TrialRecord]:
    """Generate one channel realization and solve it for every protocol."""
    _, gains = build_gain_table(cfg, rng)
    records = []
    for name in spec.protocols:
        _, report = solve(gains, cfg.weights, cfg.p_tot, Protocol(name),
                          refill=spec.refill)
        records.append(TrialRecord(
            seed=cfg.seed, protocol=name, d_km=cfg.d_km, K=cfg.K,
            ptot_db=cfg.ptot_over_sigma2_db, wsr=report.wsr,
            delta=report.delta, n_sp_over_k=report.n_sp / cfg.K,
            iterations=report.iterations, mode=report.mode.value))
    return records


def gap_pdf_trial(spec: ExperimentSpec, i: int) -> list[TrialRecord]:
    """One randomized realization of the gap-certificate ensemble."""
    seed = spec.seed + i
    rng = np.random.default_rng(seed)
    d = float(rng.uniform(*GAP_D_RANGE))
    K = int(GAP_K_CHOICES[rng.integers(len(GAP_K_CHOICES))])
    db = float(rng.uniform(*GAP_DB_RANGE))
    cfg = _scenario(rng, seed, K, spec.U, d, db)
    return _solve_trial(cfg, rng, spec)


def run_gap_pdf(spec: ExperimentSpec) -> list[TrialRecord]:
    records: list[TrialRecord] = []
    for i in range(spec.trials):
        records.extend(gap_pdf_trial(spec, i))
    if spec.out:
        _write_csv(Path(spec.out), CSV_COLUMNS,
                   map(dataclasses.astuple, records))
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
            cfg = _scenario(rng, seed, spec.K, spec.U, float(d), spec.snr_db)
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
        out = Path(spec.out)
        _write_csv(out, SWEEP_COLUMNS,
                   ([row[c] for c in SWEEP_COLUMNS] for row in rows))
        _write_csv(out.with_suffix(".raw.csv"), CSV_COLUMNS,
                   map(dataclasses.astuple, raw))
        _write_spec_sidecar(out, spec, raw)
    return rows, raw


def run_single(spec: ExperimentSpec) -> dict:
    """Solve one fixed scenario and report per protocol."""
    seed = spec.seed
    rng = np.random.default_rng(seed)
    cfg = _scenario(rng, seed, spec.K, spec.U, spec.d_km, spec.snr_db)
    _, gains = build_gain_table(cfg, rng)
    result: dict = {"seed": seed, "K": cfg.K, "U": cfg.U, "d_km": cfg.d_km,
                    "ptot_db": cfg.ptot_over_sigma2_db,
                    "weights": list(cfg.weights), "reports": {}}
    for name in spec.protocols:
        _, report = solve(gains, cfg.weights, cfg.p_tot, Protocol(name),
                          refill=spec.refill)
        result["reports"][name] = {
            "wsr": report.wsr, "mode": report.mode.value,
            "delta": _json_delta(report.delta), "n_sp": report.n_sp,
            "mu_final": report.mu_final, "iterations": report.iterations,
        }
    if spec.out:
        _dump_json(Path(spec.out), result)
    return result


def run_validate(spec: ExperimentSpec) -> dict:
    """Solver-vs-oracle comparison plus a feasibility-audit negative test."""
    if spec.K > MAX_K or spec.U > MAX_U:
        raise ConfigError(
            f"validate requires K <= {MAX_K} and U <= {MAX_U}, "
            f"got K={spec.K}, U={spec.U}")
    trials = []
    ok = True
    max_disc = 0.0
    for i in range(spec.trials):
        seed = spec.seed + i
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, spec.K + 1))
        U = int(rng.integers(1, spec.U + 1))
        cfg = _scenario(rng, seed, K, U, float(rng.uniform(*GAP_D_RANGE)),
                        float(rng.uniform(0.0, 30.0)))
        _, gains = build_gain_table(cfg, rng)
        name = spec.protocols[i % len(spec.protocols)]
        protocol = Protocol(name)
        alloc, report = solve(gains, cfg.weights, cfg.p_tot, protocol)
        ref = oracle_solve(gains, cfg.weights, cfg.p_tot, protocol)
        lower = ref.wsr - max(report.delta * ref.wsr, 1e-6)
        upper = ref.wsr + 1e-6
        passed = lower <= report.wsr <= upper
        disc = abs(report.wsr - ref.wsr) / max(ref.wsr, 1e-12)
        max_disc = max(max_disc, disc)
        ok = ok and passed

        # Negative test: against a budget 1% below what the allocation
        # spends, the audit must reject it by name.
        audit_ok = True
        total = alloc.total_power()
        if total > 0:
            try:
                evaluate_wsr(alloc, gains, cfg.weights, protocol, total / 1.01)
                audit_ok = False
            except InfeasibleAllocationError as exc:
                audit_ok = exc.constraint == "power-budget"
            ok = ok and audit_ok

        trials.append({"seed": seed, "protocol": name, "K": K, "U": U,
                       "solver_wsr": report.wsr, "oracle_wsr": ref.wsr,
                       "delta": _json_delta(report.delta),
                       "discrepancy": disc,
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


def _write_csv(path: Path, header, rows) -> None:
    """Write header and rows; a float cell is its repr (shortest round
    trip), so re-runs are byte-identical. Pass Python, not numpy, scalars."""
    with _open_for_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else str(v)
                          for v in row] for row in rows)


def _write_delta_histogram(path: Path, records: list[TrialRecord]) -> None:
    """Histogram of 10*log10(delta) over epsilon-branch exits only."""
    deltas = [r.delta for r in records
              if r.mode == SolveMode.APPROX_UPPER_BOUND.value and r.delta > 0]
    rows = []
    if deltas:
        counts, edges = np.histogram(10.0 * np.log10(deltas), bins=40)
        rows = zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())
    _write_csv(path.with_suffix(".hist.csv"),
               ("bin_left_db", "bin_right_db", "count"), rows)


def _write_spec_sidecar(path: Path, spec: ExperimentSpec,
                        records: list[TrialRecord]) -> None:
    exact = sum(r.mode == SolveMode.EXACT_STATIONARY.value for r in records)
    payload = {"spec": {name: getattr(spec, name)
                        for name in ("kind",) + FIELDS[spec.kind]},
               "records": len(records),
               "exact_stationary_exits": exact,
               "epsilon_exits": len(records) - exact}
    _dump_json(path.with_suffix(".spec.json"), payload)


def _json_delta(delta: float) -> float | None:
    """delta for a JSON report: an infinite gap (wsr 0) is null."""
    return delta if math.isfinite(delta) else None


def to_json(payload: dict) -> str:
    """Every JSON output's text: strict RFC 8259, so a non-finite float
    raises ValueError instead of being written as NaN or Infinity."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _dump_json(path: Path, payload: dict) -> None:
    with _open_for_write(path) as fh:
        fh.write(to_json(payload) + "\n")
