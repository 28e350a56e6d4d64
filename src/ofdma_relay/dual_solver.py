"""Dual-decomposition solver for the joint pairing/assignment/power problem.

The total-power constraint is priced with a multiplier mu. At fixed mu the
inner problem separates: optimal powers are water-filling levels, and the
choice of mode/user for every candidate pair (k, l) reduces to a score
matrix whose maximum-weight perfect matching gives the pairing; a protocol
with a fixed pairing has one candidate per row and needs no matching.
Bisection on mu (the subgradient p_tot - allocated power is monotone in mu)
either hits a stationary point or narrows the bracket to MU_TOL, in which
case the solution at the upper bracket end is feasible and carries a
duality-gap certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import pair_gains
from .assignment import solve_max_assignment
from .channel import GainTable

LOG2E = math.log2(math.e)
# Bisection stops once mu_hi - mu_lo <= MU_TOL. The width is absolute, in
# noise-normalised units (powers over sigma^2), so the step count depends on
# the units of the problem; ROADMAP item 2 replaces it with a relative stop.
MU_TOL = 1e-6


class Protocol(Enum):
    PROPOSED = "proposed"      # second-slot source-relay beamforming
    BENCHMARK1 = "bp1"         # relay only in the second slot
    BENCHMARK2 = "bp2"         # additionally fixed identity pairing

    def link_gains(self, gains: GainTable, k, l, u) -> pair_gains.LinkGains:
        """Gains of relay-aided pairs (k, l) serving user u.

        The index arrays broadcast together. Without beamforming the source
        is silent in the second slot, which the closed form sees as a
        second-slot source gain of zero.
        """
        g_su_l = gains.g_su[l, u] if self is Protocol.PROPOSED else 0.0
        return pair_gains.LinkGains(gains.g_sr[k], gains.g_su[k, u], g_su_l,
                                    gains.g_ru[l, u])


class SolveMode(Enum):
    EXACT_STATIONARY = "exact-stationary"
    APPROX_UPPER_BOUND = "approx-upper-bound"


class InfeasibleAllocationError(ValueError):
    """An allocation violates a named feasibility constraint."""

    def __init__(self, constraint: str, detail: str):
        self.constraint = constraint
        super().__init__(f"{constraint}: {detail}")


@dataclass(frozen=True)
class PairGainTable:
    """Effective gains of the candidate pairs plus the direct gains.

    First-slot subcarrier k may pair with the second-slot subcarriers
    cols[k], and g_eff[k, j, u] is the gain of pair (k, cols[k, j]) serving
    user u. A direct transmission on subcarrier k sees g_su[k] in either
    slot, so one (K, U) array serves both slots.
    """

    cols: np.ndarray    # (K, M) candidate second-slot subcarriers per row
    g_eff: np.ndarray   # (K, M, U)
    direct: np.ndarray  # (K, U)

    @property
    def K(self) -> int:
        return self.g_eff.shape[0]


@dataclass(frozen=True)
class PairAssignment:
    k: int
    l: int
    user: int
    p_s1: float
    p_s2: float
    p_r: float

    @property
    def total(self) -> float:
        return self.p_s1 + self.p_s2 + self.p_r


@dataclass(frozen=True)
class DirectAssignment:
    subcarrier: int
    user: int
    power: float


@dataclass
class Allocation:
    pairs: list[PairAssignment]
    directs_1: list[DirectAssignment]
    directs_2: list[DirectAssignment]

    def total_power(self) -> float:
        return (sum(p.total for p in self.pairs)
                + sum(d.power for d in self.directs_1)
                + sum(d.power for d in self.directs_2))


@dataclass
class SolveReport:
    wsr: float
    mode: SolveMode
    delta: float
    n_sp: int
    mu_final: float
    iterations: int


def build_pair_gain_table(gains: GainTable, protocol: Protocol) -> PairGainTable:
    """Effective gain of every candidate pair under the protocol.

    bp2 fixes the pairing to the identity, so its only candidate for row k
    is l = k; the other protocols may pair k with any l.
    """
    K, U = gains.g_su.shape
    ks = np.arange(K)
    if protocol is Protocol.BENCHMARK2:
        cols = ks[:, None]
    else:
        cols = np.broadcast_to(ks, (K, K))
    g_eff = pair_gains.effective_gain(protocol.link_gains(
        gains, ks[:, None, None], cols[:, :, None], np.arange(U)))
    return PairGainTable(cols=cols, g_eff=g_eff, direct=gains.g_su)


def mu_upper_bound(K: int, w_max: float, p_tot: float) -> float:
    """Initial upper bracket for the optimal multiplier."""
    if K < 1 or w_max <= 0 or p_tot <= 0:
        raise ValueError("K, w_max and p_tot must all be positive")
    return K * w_max * LOG2E / p_tot


def _lambda_array(w: np.ndarray, mu: float, g: np.ndarray) -> np.ndarray:
    """Water-filling power [w*log2(e)/(2*mu) - 1/g]+ at price mu; g >= 0."""
    with np.errstate(divide="ignore"):  # g = 0 gives 1/g = inf: power 0
        return np.maximum(w * LOG2E / (2.0 * mu) - 1.0 / g, 0.0)


def _score(w: np.ndarray, mu: float, g: np.ndarray) -> np.ndarray:
    """Per-channel Lagrangian contribution w*R(g*lam) - mu*lam at best lam."""
    lam = _lambda_array(w, mu, g)
    return w * 0.5 * np.log2(1.0 + g * lam) - mu * lam


@dataclass
class LrpMetrics:
    """Per-candidate scores at a fixed multiplier.

    The direct-mode score of a virtual pair (k, l) separates into a slot-1
    term depending on (k, a) and a slot-2 term depending on (l, b), so the
    full (k, l, a, b) tensor is never formed. Both slots see the same direct
    gains, so one score array serves both terms.
    """

    a_pair: np.ndarray        # (K, M, U) relay-aided scores
    d_term: np.ndarray        # (K, U) direct scores, either slot
    c: np.ndarray             # (K, M) best score per candidate pair


def lrp_metrics(table: PairGainTable, weights: np.ndarray,
                mu: float) -> LrpMetrics:
    if mu <= 0:
        raise ValueError(f"multiplier must be positive, got {mu}")
    w = np.asarray(weights, dtype=float)
    a_pair = _score(w[None, None, :], mu, table.g_eff)
    d_term = _score(w[None, :], mu, table.direct)
    d_best = d_term.max(axis=1)
    c = np.maximum(a_pair.max(axis=2), d_best[:, None] + d_best[table.cols])
    return LrpMetrics(a_pair=a_pair, d_term=d_term, c=c)


@dataclass
class LrpOutcome:
    """Inner-maximization solution at one multiplier, as 2K channels.

    Row k of the matching is its relay-aided pair (k, perm[k]) on channel 0
    with channel 1 empty (g = 0), or two direct transmissions: k on channel
    0 and perm[k] on channel 1, each to that subcarrier's best direct user.
    Every channel is water-filled by the same rule, _lambda_array.
    """

    mu: float
    perm: np.ndarray         # (K,) second-slot subcarrier matched to k
    relay_mask: np.ndarray   # (K,) True where the matched pair is relay-aided
    user: np.ndarray         # (2, K) user of each channel
    g: np.ndarray            # (2, K) gain of each channel
    power: np.ndarray        # (2, K) power of each channel
    l_value: float
    subgrad: float


def solve_lrp(table: PairGainTable, weights, mu: float,
              p_tot: float) -> LrpOutcome:
    """Maximize the Lagrangian at fixed mu; returns choice and subgradient."""
    w = np.asarray(weights, dtype=float)
    m = lrp_metrics(table, w, mu)
    ks = np.arange(table.K)
    # With one candidate per row the pairing is fixed and needs no matching.
    if m.c.shape[1] > 1:
        col = solve_max_assignment(m.c)
    else:
        col = np.zeros(table.K, dtype=int)
    perm = table.cols[ks, col]

    # Best users by argmax (it prefers the lowest index), and their scores
    # read back at it, which is cheaper than a second reduction.
    pair_scores = m.a_pair[ks, col]
    pair_user = pair_scores.argmax(axis=1)
    pair_best = pair_scores[ks, pair_user]
    d_user = m.d_term.argmax(axis=1)
    d_best = m.d_term[ks, d_user]
    direct_best = d_best + d_best[perm]
    # Direct mode wins ties, so a pair that would carry no power is not
    # reported as relay-aided.
    relay = pair_best > direct_best
    # A direct row's channels are subcarriers k and perm[k], each to its best
    # direct user; a relay-aided row puts its pair on channel 0 instead and
    # leaves channel 1 empty (g = 0).
    sc = np.array([ks, perm])
    user = d_user[sc]
    np.copyto(user[0], pair_user, where=relay)
    g = table.direct[sc, user]
    np.copyto(g[0], table.g_eff[ks, col, pair_user], where=relay)
    np.copyto(g[1], 0.0, where=relay)
    power = _lambda_array(w[user], mu, g)
    l_value = mu * p_tot + float(np.maximum(pair_best, direct_best).sum())
    return LrpOutcome(mu=mu, perm=perm, relay_mask=relay, user=user, g=g,
                      power=power, l_value=l_value,
                      subgrad=p_tot - float((power[0] + power[1]).sum()))


def pair_assignments(gains: GainTable, protocol: Protocol, k: np.ndarray,
                     l: np.ndarray, u: np.ndarray,
                     power: np.ndarray) -> list[PairAssignment]:
    """Relay-aided pairs (k[i], l[i]) for users u[i], each split optimally."""
    s = pair_gains.optimal_split(protocol.link_gains(gains, k, l, u), power)
    return [PairAssignment(*x) for x in zip(
        k.tolist(), l.tolist(), u.tolist(), s.p_s1.tolist(), s.p_s2.tolist(),
        s.p_r.tolist())]


def _materialize(outcome: LrpOutcome, gains: GainTable,
                 protocol: Protocol) -> Allocation:
    """Turn a compact LRP solution into an explicit feasible allocation."""
    relay = outcome.relay_mask
    k = np.flatnonzero(relay)
    pairs = pair_assignments(gains, protocol, k, outcome.perm[k],
                             outcome.user[0, k], outcome.power[0, k])
    direct = np.flatnonzero(~relay)
    directs = [[DirectAssignment(*x) for x in zip(
        subcarriers.tolist(), outcome.user[slot, direct].tolist(),
        outcome.power[slot, direct].tolist())]
        for slot, subcarriers in enumerate((direct, outcome.perm[direct]))]
    return Allocation(pairs=pairs, directs_1=directs[0], directs_2=directs[1])


def evaluate_wsr(alloc: Allocation, gains: GainTable, weights,
                 protocol: Protocol, p_tot: float) -> float:
    """Audit an allocation and recompute its weighted sum rate from scratch."""
    w = np.asarray(weights, dtype=float)
    K = gains.g_sr.size
    pairs = alloc.pairs
    directs = alloc.directs_1 + alloc.directs_2

    slot1 = sorted([p.k for p in pairs]
                   + [d.subcarrier for d in alloc.directs_1])
    if slot1 != list(range(K)):
        raise InfeasibleAllocationError(
            "ofdma-slot1", f"first-slot subcarrier cover is {slot1}")
    slot2 = sorted([p.l for p in pairs]
                   + [d.subcarrier for d in alloc.directs_2])
    if slot2 != list(range(K)):
        raise InfeasibleAllocationError(
            "ofdma-slot2", f"second-slot subcarrier cover is {slot2}")

    k, l, u = (np.array([(p.k, p.l, p.user) for p in pairs],
                        dtype=int).reshape(-1, 3).T)
    p_s1, p_s2, p_r = (np.array([(p.p_s1, p.p_s2, p.p_r) for p in pairs],
                                dtype=float).reshape(-1, 3).T)
    d_sc, d_user = (np.array([(d.subcarrier, d.user) for d in directs],
                             dtype=int).reshape(-1, 2).T)
    d_power = np.array([d.power for d in directs], dtype=float)
    powers = np.concatenate([p_s1, p_s2, p_r, d_power])
    if not np.all(powers >= 0):
        raise InfeasibleAllocationError(
            "power-nonnegative", f"minimum power is {powers.min()}")
    total = alloc.total_power()
    if total > p_tot * (1.0 + 1e-9):
        raise InfeasibleAllocationError(
            "power-budget", f"allocated {total} > budget {p_tot}")

    g = protocol.link_gains(gains, k, l, u)
    target = pair_gains.effective_gain(g) * (p_s1 + p_s2 + p_r)
    achieved = np.minimum(g.g_sr * p_s1,
                          pair_gains.snr_relay_aided(g, p_s1, p_s2, p_r))
    off = np.flatnonzero(np.abs(achieved - target)
                         > np.maximum(1e-9 * target, 1e-12))
    if off.size:
        i = off[0]
        raise InfeasibleAllocationError(
            "pair-split", f"pair ({k[i]},{l[i]}) reaches SNR {achieved[i]}, "
            f"expected {target[i]}")
    return float((w[u] * pair_gains.rate(target)).sum()
                 + (w[d_user] * pair_gains.rate(gains.g_su[d_sc, d_user]
                                                * d_power)).sum())


def _water_level(w: np.ndarray, g: np.ndarray, p_tot: float) -> float:
    """The mu at which the powers _lambda_array(w, mu, g) sum to p_tot.

    Channel i is active while mu < w_i*g_i*log2(e)/2. Taking channels in
    decreasing order of that threshold, the level with the first n active
    is mu_n = (log2(e)/2)*sum(w) / (p_tot + sum(1/g)); the answer is the
    largest n whose mu_n lies below its own threshold. Needs some g > 0.
    """
    live = g > 0
    w, g = w[live], g[live]
    order = np.argsort(-(w * g), kind="stable")
    w, g = w[order], g[order]
    mu = 0.5 * LOG2E * np.cumsum(w) / (p_tot + np.cumsum(1.0 / g))
    return float(mu[np.flatnonzero(mu < 0.5 * LOG2E * w * g)[-1]])


def _refill(outcome: LrpOutcome, weights, p_tot: float) -> LrpOutcome:
    """Spend residual budget by re-levelling the chosen channels."""
    if not np.any(outcome.g > 0):
        return outcome
    w = np.asarray(weights, dtype=float)[outcome.user]
    mu = _water_level(w.ravel(), outcome.g.ravel(), p_tot)
    return replace(outcome, power=_lambda_array(w, mu, outcome.g))


def solve(gains: GainTable, weights, p_tot: float, protocol: Protocol,
          refill: bool = False) -> tuple[Allocation, SolveReport]:
    """Full bisection solve; returns a feasible allocation and its report."""
    if p_tot <= 0:
        raise ValueError(f"p_tot must be positive, got {p_tot}")
    if gains.g_sr.size < 1:
        raise ValueError("empty gain table")
    if not all(np.all(np.isfinite(g) & (g >= 0))
               for g in (gains.g_sr, gains.g_su, gains.g_ru)):
        raise ValueError("gains must be finite and nonnegative")
    w = np.asarray(weights, dtype=float)
    if w.size != gains.g_su.shape[1]:
        raise ValueError("weights length does not match user count")

    table = build_pair_gain_table(gains, protocol)
    mu_lo = 0.0
    mu_hi = mu_upper_bound(table.K, float(w.max()), p_tot)
    zero_tol = 1e-9 * p_tot
    iterations = 0
    mode = SolveMode.APPROX_UPPER_BOUND
    final: LrpOutcome | None = None  # the outcome at mu_hi, or a stationary one

    while mu_hi - mu_lo > MU_TOL:
        mu_mid = 0.5 * (mu_lo + mu_hi)
        outcome = solve_lrp(table, w, mu_mid, p_tot)
        iterations += 1
        if abs(outcome.subgrad) <= zero_tol:
            final, mode = outcome, SolveMode.EXACT_STATIONARY
            break
        if outcome.subgrad > 0:
            mu_hi, final = mu_mid, outcome
        else:
            mu_lo = mu_mid

    if final is None:  # mu_hi never moved, so it was never evaluated
        final = solve_lrp(table, w, mu_hi, p_tot)

    if refill:  # keeps final.mu
        final = _refill(final, w, p_tot)
    alloc = _materialize(final, gains, protocol)
    wsr = evaluate_wsr(alloc, gains, w, protocol, p_tot)

    # Certified gap of the returned allocation: the optimum is at most the
    # dual value L(mu_final), so slack = L(mu_final) - wsr bounds the
    # shortfall on every exit. Without refill this is mu_final *
    # subgrad(mu_final), which an exact-stationary exit leaves at up to
    # mu_final * 1e-9 * p_tot; refill raises wsr and tightens the certificate.
    slack = max(final.l_value - wsr, 0.0)
    if wsr > 0.0:
        delta = slack / wsr
    else:
        delta = math.inf if slack > 0.0 else 0.0
    report = SolveReport(wsr=wsr, mode=mode, delta=delta,
                         n_sp=len(alloc.pairs), mu_final=final.mu,
                         iterations=iterations)
    return alloc, report
