"""Exhaustive reference optimizer for tiny instances.

Enumerates every pairing of the two slots (partial matching, the rest of
each slot served directly) and, per pairing, every user choice at once: the
continuous power subproblem of each choice is solved by exact active-set
water-filling, all choices of a pairing in one array call. Kept
deliberately independent of the dual solver's multiplier machinery.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import pair_gains
from .channel import GainTable
from .dual_solver import (Allocation, Protocol, check_inputs,
                          make_allocation)

MAX_K = 5
MAX_U = 3


class OracleSizeError(ValueError):
    """Instance too large for exhaustive enumeration."""


@dataclass
class OracleResult:
    wsr: float
    allocation: Allocation


def pairings(K: int,
             protocol: Protocol) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every pairing of the two slots that the protocol allows.

    A pairing is (pairs_k, pairs_l, direct_1, direct_2): relay-aided pairs
    (pairs_k[i], pairs_l[i]) and the subcarriers each slot serves directly.
    bp2 pairs k only with k, so its direct subcarriers are the same in both
    slots.
    """
    subcarriers = range(K)
    for m in range(K + 1):
        for s1 in itertools.combinations(subcarriers, m):
            rest1 = tuple(k for k in subcarriers if k not in s1)
            for s2 in ((s1,) if protocol is Protocol.BENCHMARK2
                       else itertools.permutations(subcarriers, m)):
                yield s1, s2, rest1, tuple(l for l in subcarriers
                                           if l not in s2)


def _water_fill(w: np.ndarray, g: np.ndarray, p_tot: float) -> np.ndarray:
    """Powers maximizing sum w_i*R(g_i*x_i) with sum x_i = p_tot, x >= 0.

    Each row of the (..., n) arrays w and g is one problem over its last
    axis. Exact active-set water-filling (Boyd & Vandenberghe, Convex
    Optimization, Ex. 5.2). On the active set A the level is
    nu = (p_tot + sum_A 1/g) / sum_A w and x_i = w_i*nu - 1/g_i. Starting
    from the live channels (g > 0), every channel with w_i*nu < 1/g_i is
    dropped and nu recomputed. Dropping only lowers nu, so a dropped
    channel never returns and at most n passes run. A row with no live
    channel gets no power. When p_tot*g << 1 the two terms of each power
    nearly cancel, so the sum can exceed p_tot by rounding; it is then
    scaled back, as the solver's refill does.
    """
    active = g > 0
    inv_g = np.divide(1.0, g, out=np.zeros_like(g), where=active)
    while True:
        w_sum = np.where(active, w, 0.0).sum(-1, keepdims=True)
        level = p_tot + np.where(active, inv_g, 0.0).sum(-1, keepdims=True)
        nu = np.divide(level, w_sum, out=np.zeros_like(w_sum),
                       where=w_sum > 0)
        kept = active & (w * nu >= inv_g)
        if np.array_equal(kept, active):
            break
        active = kept
    x = np.where(active, w * nu - inv_g, 0.0)
    total = x.sum(-1, keepdims=True)
    return x * np.divide(p_tot, total, out=np.ones_like(total),
                         where=total > p_tot)


def oracle_solve(gains: GainTable, weights, p_tot: float,
                 protocol: Protocol) -> OracleResult:
    """Globally optimal WSR: every pairing, every user choice water-filled."""
    K, U = gains.g_su.shape
    if K > MAX_K or U > MAX_U:
        raise OracleSizeError(
            f"instance K={K}, U={U} exceeds guard K<={MAX_K}, U<={MAX_U}")
    w = check_inputs(gains, weights, p_tot)
    g_eff = pair_gains.effective_gain(protocol.link_gains(
        gains, *np.ix_(range(K), range(K), range(U))))
    # bp2 serves both slots of a direct subcarrier to one user.
    shared = protocol is Protocol.BENCHMARK2

    best_wsr, best = -1.0, None
    for pairing in pairings(K, protocol):
        k, l, d1, d2 = (np.array(s, dtype=int) for s in pairing)
        # Channels are the pairs, then slot 1's directs, then slot 2's; each
        # row of `user` is one choice of user per channel.
        n = k.size + d1.size + (0 if shared else d2.size)
        user = np.indices((U,) * n).reshape(n, -1).T
        if shared:
            user = np.hstack([user, user[:, k.size:]])
        g_ch = np.concatenate([g_eff[k, l], gains.g_su[d1], gains.g_su[d2]])
        g = g_ch[np.arange(len(g_ch)), user]
        ws = w[user]
        x = _water_fill(ws, g, p_tot)
        wsr = (ws * pair_gains.rate(g * x)).sum(-1)
        r = int(np.argmax(wsr))
        if wsr[r] > best_wsr:
            best_wsr, best = float(wsr[r]), (k, l, d1, d2, user[r], x[r])

    k, l, d1, d2, u, x = best
    i, j = k.size, k.size + d1.size
    alloc = make_allocation(gains, protocol, (k, l, u[:i], x[:i]),
                            (d1, u[i:j], x[i:j]), (d2, u[j:], x[j:]))
    return OracleResult(wsr=best_wsr, allocation=alloc)
