"""Independent checks of every solve the benchmark makes.

Nothing here calls ofdma_relay's own evaluation code (``evaluate_wsr``,
``solve_lrp``, ``lrp_metrics``, ``build_pair_gain_table`` or ``pair_gains``).
The rate, the effective pair gain and the dual value are re-derived from the
channel gains alone, and the dual value's matching is solved with scipy's
``linear_sum_assignment`` directly. A check that fails raises ``CheckFailure``
naming the check.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

# Power totals are sums of floats; the budget may be met with round-off.
BUDGET_RTOL = 1e-9
# The solver audits each pair's SNR to 1e-9 relative; sums add round-off.
WSR_RTOL = 1e-8
# Round-off between two summations of the same dual value.
DUAL_RTOL = 1e-10
# An exact-stationary exit has |subgradient| <= 1e-9 * p_tot (the solver's
# definition), which leaves L - wsr = mu * subgradient.
STATIONARY_TOL = 1e-9


class CheckFailure(AssertionError):
    """A solver output failed the named check."""

    def __init__(self, check: str, detail: str):
        self.check = check
        super().__init__(f"{check}: {detail}")


def _rate(snr: np.ndarray) -> np.ndarray:
    return 0.5 * np.log2(1.0 + snr)


def _channel_value(w: np.ndarray, g: np.ndarray, mu: float) -> np.ndarray:
    """max over x >= 0 of w*R(g*x) - mu*x, with R(s) = log2(1+s)/2.

    Setting the derivative w*g / (2 ln2 (1 + g x)) equal to mu gives
    x = w / (2 mu ln2) - 1/g, clipped at zero.
    """
    g = np.asarray(g, dtype=float)
    safe = np.where(g > 0, g, 1.0)
    x = np.where(g > 0, np.maximum(w / (2.0 * mu * math.log(2.0)) - 1.0 / safe,
                                   0.0), 0.0)
    return w * _rate(g * x) - mu * x


def _pair_gain(g_sr: np.ndarray, g_first: np.ndarray,
               g_second: np.ndarray) -> np.ndarray:
    """SNR per unit power of a relay-aided pair, best over the power split.

    With share a of the power in the first slot, the relay decodes at
    g_sr*a and the destination combines g_first*a + g_second*(1-a). The
    maximum of the minimum of these two lines over a in [0, 1] lies at a = 1
    or where the lines cross.
    """
    at_one = np.minimum(g_sr, g_first)
    denom = g_sr - g_first + g_second
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(denom > 0, g_second / np.where(denom > 0, denom, 1.0), -1.0)
    crossing = np.where((a >= 0.0) & (a <= 1.0), g_sr * a, 0.0)
    return np.maximum(at_one, crossing)


def dual_value(gains, weights, p_tot: float, mu: float,
               protocol: str) -> tuple[float, float | None]:
    """L(mu) and, for matched protocols, the share of rows with relay excess."""
    w = np.asarray(weights, dtype=float)
    g_second = gains.g_ru[None, :, :]
    if protocol == "proposed":
        g_second = g_second + gains.g_su[None, :, :]
    g_pair = _pair_gain(gains.g_sr[:, None, None], gains.g_su[:, None, :],
                        g_second)
    pair = _channel_value(w, g_pair, mu).max(axis=2)           # (K, K)
    # Both slots of a direct subcarrier see g_su, so one vector serves both.
    best_direct = _channel_value(w, gains.g_su, mu).max(axis=1)
    direct = best_direct[:, None] + best_direct[None, :]
    if protocol == "bp2":
        k = np.arange(pair.shape[0])
        chosen = float(np.maximum(pair[k, k], direct[k, k]).sum())
        return mu * p_tot + chosen, None
    score = np.maximum(pair, direct)
    rows, cols = linear_sum_assignment(score, maximize=True)
    chosen = float(score[rows, cols].sum())
    share = float(np.mean((pair - direct).max(axis=1) > 0.0))
    return mu * p_tot + chosen, share


def check_solve(alloc, report, gains, weights, p_tot: float,
                protocol: str) -> float | None:
    """Run every per-solve check; raise CheckFailure on the first that fails.

    Returns the share of score-matrix rows at mu_final whose best relay score
    exceeds their direct scores, or None for bp2, which matches nothing.
    """
    w = np.asarray(weights, dtype=float)
    K = gains.g_sr.size
    pairs, d1, d2 = alloc.pairs, alloc.directs_1, alloc.directs_2

    for slot, used in (("slot1-cover", [p.k for p in pairs]
                        + [d.subcarrier for d in d1]),
                       ("slot2-cover", [p.l for p in pairs]
                        + [d.subcarrier for d in d2])):
        used = np.asarray(used, dtype=int)
        if (used.size != K or np.any(used < 0) or np.any(used >= K)
                or np.any(np.bincount(used, minlength=K) != 1)):
            raise CheckFailure(slot, f"subcarriers used {sorted(used.tolist())}")

    k = np.array([p.k for p in pairs], dtype=int)
    l = np.array([p.l for p in pairs], dtype=int)
    u = np.array([p.user for p in pairs], dtype=int)
    p_s1 = np.array([p.p_s1 for p in pairs], dtype=float)
    p_s2 = np.array([p.p_s2 for p in pairs], dtype=float)
    p_r = np.array([p.p_r for p in pairs], dtype=float)
    d_sc = np.array([d.subcarrier for d in d1 + d2], dtype=int)
    d_u = np.array([d.user for d in d1 + d2], dtype=int)
    d_p = np.array([d.power for d in d1 + d2], dtype=float)

    powers = np.concatenate([p_s1, p_s2, p_r, d_p])
    if not np.all(np.isfinite(powers)) or np.any(powers < 0.0):
        raise CheckFailure("power-nonnegative", f"min power {powers.min()}")
    total = float(powers.sum())
    if total > p_tot * (1.0 + BUDGET_RTOL):
        raise CheckFailure("power-budget", f"total {total!r} > p_tot {p_tot!r}")

    if protocol in ("bp1", "bp2") and np.any(p_s2 != 0.0):
        raise CheckFailure("protocol-p_s2", f"{protocol} pair with p_s2 > 0")
    if protocol == "bp2" and np.any(k != l):
        raise CheckFailure("protocol-identity", "bp2 pair with k != l")

    relay_decode = gains.g_sr[k] * p_s1
    mrc = (gains.g_su[k, u] * p_s1
           + (np.sqrt(gains.g_su[l, u] * p_s2)
              + np.sqrt(gains.g_ru[l, u] * p_r)) ** 2)
    wsr = float((w[u] * _rate(np.minimum(relay_decode, mrc))).sum()
                + (w[d_u] * _rate(gains.g_su[d_sc, d_u] * d_p)).sum())
    if abs(wsr - report.wsr) > WSR_RTOL * abs(wsr):
        raise CheckFailure("wsr", f"recomputed {wsr!r}, reported {report.wsr!r}")

    L, share = dual_value(gains, w, p_tot, report.mu_final, protocol)
    tol = DUAL_RTOL * abs(wsr)
    if report.mode.value == "exact-stationary":
        tol += report.mu_final * STATIONARY_TOL * p_tot
        if abs(L - wsr) > tol:
            raise CheckFailure("exact-stationary", f"L {L!r} != wsr {wsr!r}")
    if wsr > L + tol:
        raise CheckFailure("weak-duality", f"wsr {wsr!r} > L {L!r}")
    if L > wsr * (1.0 + report.delta) + tol:
        raise CheckFailure("delta-bound",
                           f"L {L!r} > wsr*(1+delta) with delta {report.delta!r}")
    return share


def check_nesting(reports: dict) -> None:
    """On one instance: proposed contains bp1, which contains bp2.

    So wsr of the smaller set is at most the larger set's certified bound
    wsr*(1+delta).
    """
    for big, small in (("proposed", "bp1"), ("bp1", "bp2")):
        if big in reports and small in reports:
            hi, lo = reports[big], reports[small]
            bound = hi.wsr * (1.0 + hi.delta)
            if lo.wsr > bound * (1.0 + DUAL_RTOL):
                raise CheckFailure(
                    "nesting", f"{small} wsr {lo.wsr!r} > {big} bound {bound!r}")
