"""Exhaustive reference optimizer for tiny instances.

Enumerates every discrete configuration (partial matching between the two
slots, user per pair, user per direct subcarrier) and solves the continuous
power subproblem per configuration by exact active-set water-filling. Kept
deliberately independent of the dual solver's multiplier machinery.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import pair_gains
from .channel import GainTable
from .dual_solver import Allocation, Protocol, make_allocation

MAX_K = 5
MAX_U = 3


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
    """Powers maximizing sum w_i*R(g_i*x_i) with sum x_i = p_tot, x >= 0.

    Exact active-set water-filling (Boyd & Vandenberghe, Convex
    Optimization, Ex. 5.2). On the active set A the level is
    nu = (p_tot + sum_A 1/g) / sum_A w and x_i = w_i*nu - 1/g_i. Starting
    from the live channels (g > 0), every channel with w_i*nu < 1/g_i is
    dropped and nu recomputed. Dropping only lowers nu, so a dropped
    channel never returns and at most n passes run. When p_tot*g << 1 the
    two terms of each power nearly cancel, so the sum can exceed p_tot by
    rounding; it is then scaled back, as the solver's refill does.
    """
    active = [i for i, g in enumerate(gs) if g > 0]
    while active:
        nu = (p_tot + sum(1.0 / gs[i] for i in active)) \
            / sum(ws[i] for i in active)
        kept = [i for i in active if ws[i] * nu >= 1.0 / gs[i]]
        if len(kept) == len(active):
            break
        active = kept
    xs = [0.0] * len(gs)
    for i in active:
        xs[i] = ws[i] * nu - 1.0 / gs[i]
    total = sum(xs)
    if total > p_tot:
        xs = [x * (p_tot / total) for x in xs]
    return xs


def oracle_solve(gains: GainTable, weights, p_tot: float,
                 protocol: Protocol) -> OracleResult:
    """Globally optimal WSR by enumeration plus exact per-config water-filling."""
    K, U = gains.g_su.shape
    _check_size(K, U)
    w = [float(x) for x in weights]
    g_eff = pair_gains.effective_gain(protocol.link_gains(
        gains, *np.ix_(range(K), range(K), range(U))))

    best_wsr = -1.0
    best: tuple[Configuration, list[float]] | None = None
    for config in enumerate_configurations(K, U, protocol):
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
    # xs lists the pairs' powers, then slot 1's directs, then slot 2's.
    x = np.array(xs)
    n1 = len(config.pairs)
    n2 = n1 + len(config.direct_1)
    k, l, u = np.array(config.pairs, dtype=int).reshape(-1, 3).T
    d1 = np.array(config.direct_1, dtype=int).reshape(-1, 2).T
    d2 = np.array(config.direct_2, dtype=int).reshape(-1, 2).T
    alloc = make_allocation(gains, protocol, (k, l, u, x[:n1]),
                            (*d1, x[n1:n2]), (*d2, x[n2:]))
    return OracleResult(wsr=best_wsr, allocation=alloc)
