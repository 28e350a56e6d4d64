"""Exhaustive reference optimizer for tiny instances.

Enumerates every discrete configuration (partial matching between the two
slots, user per pair, user per direct subcarrier) and solves the continuous
power subproblem per configuration by bisecting a scalar water level. Kept
deliberately independent of the dual solver's multiplier machinery.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import pair_gains
from .channel import GainTable
from .dual_solver import (Allocation, DirectAssignment, Protocol,
                          build_pair_gain_table, pair_assignments)

MAX_K = 5
MAX_U = 3

LOG2E = math.log2(math.e)


class OracleSizeError(ValueError):
    """Instance too large for exhaustive enumeration."""


class Configuration(NamedTuple):
    pairs: tuple[tuple[int, int, int], ...]    # (k, l, user)
    direct_1: tuple[tuple[int, int], ...]      # (k, user)
    direct_2: tuple[tuple[int, int], ...]      # (l, user)


@dataclass
class OracleResult:
    wsr: float
    allocation: Allocation
    enumerated: int


def _check_size(K: int, U: int) -> None:
    if K > MAX_K or U > MAX_U:
        raise OracleSizeError(
            f"instance K={K}, U={U} exceeds guard K<={MAX_K}, U<={MAX_U}")


def enumerate_configurations(K: int, U: int,
                             protocol: Protocol) -> Iterator[Configuration]:
    """Every discrete mode/pairing/user structure for the protocol."""
    _check_size(K, U)
    subcarriers = range(K)
    users = range(U)

    if protocol is Protocol.BENCHMARK2:
        # Identity pairing: per subcarrier either a relay-aided diagonal pair
        # or one user served directly in both slots.
        per_k = [(mode, u) for mode in ("pair", "direct") for u in users]
        for combo in itertools.product(per_k, repeat=K):
            pairs, d1, d2 = [], [], []
            for k, (mode, u) in enumerate(combo):
                if mode == "pair":
                    pairs.append((k, k, u))
                else:
                    d1.append((k, u))
                    d2.append((k, u))
            yield Configuration(tuple(pairs), tuple(d1), tuple(d2))
        return

    for m in range(K + 1):
        for s1 in itertools.combinations(subcarriers, m):
            rest1 = [k for k in subcarriers if k not in s1]
            for s2 in itertools.permutations(subcarriers, m):
                rest2 = [l for l in subcarriers if l not in s2]
                for pair_users in itertools.product(users, repeat=m):
                    pairs = tuple(zip(s1, s2, pair_users))
                    for ua in itertools.product(users, repeat=K - m):
                        d1 = tuple(zip(rest1, ua))
                        for ub in itertools.product(users, repeat=K - m):
                            d2 = tuple(zip(rest2, ub))
                            yield Configuration(pairs, d1, d2)


def _water_fill(ws: list[float], gs: list[float],
                p_tot: float) -> list[float]:
    """Powers maximizing sum w_i*R(g_i*x_i) with sum x_i = p_tot, x >= 0."""
    if not any(g > 0 for g in gs):
        return [0.0] * len(gs)

    def powers(mu: float) -> list[float]:
        return [max(w * LOG2E / (2.0 * mu) - 1.0 / g, 0.0) if g > 0 else 0.0
                for w, g in zip(ws, gs)]

    hi = max(ws) * LOG2E * len(ws) / (2.0 * p_tot)
    while sum(powers(hi)) > p_tot:
        hi *= 2.0
    lo = hi
    while sum(powers(lo)) < p_tot:
        lo /= 2.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if sum(powers(mid)) > p_tot:
            lo = mid
        else:
            hi = mid
    # Exact water level for the active set found by the bisection.
    xs = powers(0.5 * (lo + hi))
    active = [i for i, x in enumerate(xs) if x > 0]
    if not active:
        return xs
    nu = (p_tot + sum(1.0 / gs[i] for i in active)) \
        / sum(ws[i] for i in active)
    xs = [0.0] * len(gs)
    for i in active:
        xs[i] = max(ws[i] * nu - 1.0 / gs[i], 0.0)
    return xs


def oracle_solve(gains: GainTable, weights, p_tot: float,
                 protocol: Protocol) -> OracleResult:
    """Globally optimal WSR by enumeration plus exact per-config water-filling."""
    K, U = gains.g_su.shape
    _check_size(K, U)
    w = [float(x) for x in weights]
    g_eff = build_pair_gain_table(gains, protocol).g_eff

    best_wsr = -1.0
    best: tuple[Configuration, list[float]] | None = None
    count = 0
    for config in enumerate_configurations(K, U, protocol):
        count += 1
        ws, gs = [], []
        for k, l, u in config.pairs:
            ws.append(w[u])
            gs.append(float(g_eff[k, l, u]))
        for k, a in config.direct_1 + config.direct_2:
            ws.append(w[a])
            gs.append(float(gains.g_su[k, a]))
        xs = _water_fill(ws, gs, p_tot)
        wsr = float(np.dot(ws, pair_gains.rate(np.multiply(gs, xs))))
        if wsr > best_wsr:
            best_wsr = wsr
            best = (config, xs)

    assert best is not None
    config, xs = best
    n_pairs = len(config.pairs)
    k, l, u = np.array(config.pairs, dtype=int).reshape(-1, 3).T
    pairs = pair_assignments(gains, protocol, k, l, u,
                             np.array(xs[:n_pairs]))
    directs_1 = [DirectAssignment(k, a, xs[n_pairs + i])
                 for i, (k, a) in enumerate(config.direct_1)]
    off = n_pairs + len(config.direct_1)
    directs_2 = [DirectAssignment(l, b, xs[off + i])
                 for i, (l, b) in enumerate(config.direct_2)]
    alloc = Allocation(pairs=pairs, directs_1=directs_1, directs_2=directs_2)
    return OracleResult(wsr=best_wsr, allocation=alloc, enumerated=count)
