"""Dual-decomposition solver for the joint pairing/assignment/power problem.

The total-power constraint is priced with a multiplier mu. At fixed mu the
inner problem separates: optimal powers are water-filling levels, and the
choice of mode/user for every candidate pair (k, l) reduces to a score
matrix whose maximum-weight perfect matching gives the pairing. Bisection on
mu (the subgradient p_tot - allocated power is monotone in mu) either hits a
stationary point or converges to within eps, in which case the solution at
the upper bracket end is feasible and carries a duality-gap certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import pair_gains
from .assignment import solve_max_assignment
from .channel import GainTable

LOG2E = math.log2(math.e)


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
    """Effective gains for every (k, l, u) plus the direct gains.

    A direct transmission on subcarrier k sees g_su[k] in either slot, so one
    (K, U) array serves both slots.
    """

    protocol: Protocol
    g_eff: np.ndarray   # (K, K, U)
    direct: np.ndarray  # (K, U)

    @property
    def K(self) -> int:
        return self.g_eff.shape[0]

    @property
    def U(self) -> int:
        return self.g_eff.shape[2]


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
    trace: list[tuple[float, float]] = field(default_factory=list)


def build_pair_gain_table(gains: GainTable, protocol: Protocol) -> PairGainTable:
    """Effective gain of every (k, l, u) combination under the protocol."""
    K, U = gains.g_su.shape
    k, l, u = np.ix_(np.arange(K), np.arange(K), np.arange(U))
    g_eff = pair_gains.effective_gain(protocol.link_gains(gains, k, l, u))
    return PairGainTable(protocol=protocol, g_eff=g_eff, direct=gains.g_su)


def mu_upper_bound(K: int, w_max: float, p_tot: float) -> float:
    """Initial upper bracket for the optimal multiplier."""
    if K < 1 or w_max <= 0 or p_tot <= 0:
        raise ValueError("K, w_max and p_tot must all be positive")
    return K * w_max * LOG2E / p_tot


def _lambda_array(w: np.ndarray, mu: float, g: np.ndarray) -> np.ndarray:
    """Water-filling power [w*log2(e)/(2*mu) - 1/g]+ at price mu; 0 if g <= 0."""
    with np.errstate(divide="ignore"):
        inv = np.where(g > 0, 1.0 / np.where(g > 0, g, 1.0), np.inf)
    return np.maximum(w * LOG2E / (2.0 * mu) - inv, 0.0)


def _metric_array(w: np.ndarray, mu: float,
                  g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel Lagrangian contribution w*R(g*lam) - mu*lam and lam."""
    lam = _lambda_array(w, mu, g)
    return w * 0.5 * np.log2(1.0 + g * lam) - mu * lam, lam


@dataclass
class LrpMetrics:
    """Per-candidate scores at a fixed multiplier.

    The direct-mode score of a virtual pair (k, l) separates into a slot-1
    term depending on (k, a) and a slot-2 term depending on (l, b), so the
    full (k, l, a, b) tensor is never formed. Both slots see the same direct
    gains, so one score array serves both terms.
    """

    a_pair: np.ndarray        # (K, K, U) relay-aided scores
    lam_pair: np.ndarray      # (K, K, U) matching pair powers
    d_term: np.ndarray        # (K, U) direct scores, either slot
    d_lam: np.ndarray         # (K, U)
    c: np.ndarray             # (K, K) best score per candidate pair


def lrp_metrics(table: PairGainTable, weights: np.ndarray,
                mu: float) -> LrpMetrics:
    if mu <= 0:
        raise ValueError(f"multiplier must be positive, got {mu}")
    w = np.asarray(weights, dtype=float)
    a_pair, lam_pair = _metric_array(w[None, None, :], mu, table.g_eff)
    d_term, d_lam = _metric_array(w[None, :], mu, table.direct)
    d_best = d_term.max(axis=1)
    c = np.maximum(a_pair.max(axis=2), d_best[:, None] + d_best[None, :])
    return LrpMetrics(a_pair=a_pair, lam_pair=lam_pair, d_term=d_term,
                      d_lam=d_lam, c=c)


@dataclass
class LrpOutcome:
    """Inner-maximization solution at one multiplier, in compact form.

    A subcarrier used for direct transmission, in either slot, carries its
    best direct user at that user's power.
    """

    mu: float
    perm: np.ndarray         # (K,) second-slot subcarrier matched to k
    relay_mask: np.ndarray   # (K,) True where the matched pair is relay-aided
    pair_user: np.ndarray    # (K,)
    pair_power: np.ndarray   # (K,) total pair power
    d_user: np.ndarray       # (K,) direct user per subcarrier
    d_power: np.ndarray      # (K,)
    l_value: float
    subgrad: float


def solve_lrp(table: PairGainTable, weights, mu: float,
              p_tot: float) -> LrpOutcome:
    """Maximize the Lagrangian at fixed mu; returns choice and subgradient."""
    w = np.asarray(weights, dtype=float)
    m = lrp_metrics(table, w, mu)
    ks = np.arange(table.K)
    if table.protocol is Protocol.BENCHMARK2:
        perm = ks
    else:
        perm = np.asarray(solve_max_assignment(m.c).perm, dtype=int)

    pair_scores = m.a_pair[ks, perm, :]
    pair_best = pair_scores.max(axis=1)
    pair_user = pair_scores.argmax(axis=1)
    d_user = m.d_term.argmax(axis=1)
    d_best = m.d_term.max(axis=1)
    direct_best = d_best + d_best[perm]
    # Direct mode wins ties, so a pair that would carry no power is not
    # reported as relay-aided; argmax already prefers the lowest user index.
    relay_mask = pair_best > direct_best
    pair_power = m.lam_pair[ks, perm, pair_user]
    d_power = m.d_lam[ks, d_user]

    total = float(np.where(relay_mask, pair_power,
                           d_power + d_power[perm]).sum())
    l_value = mu * p_tot + float(np.maximum(pair_best, direct_best).sum())
    return LrpOutcome(mu=mu, perm=perm, relay_mask=relay_mask,
                      pair_user=pair_user, pair_power=pair_power,
                      d_user=d_user, d_power=d_power,
                      l_value=l_value, subgrad=p_tot - total)


def pair_assignments(gains: GainTable, protocol: Protocol, k: np.ndarray,
                     l: np.ndarray, u: np.ndarray,
                     power: np.ndarray) -> list[PairAssignment]:
    """Relay-aided pairs (k[i], l[i]) for users u[i], each split optimally."""
    s = pair_gains.optimal_split(protocol.link_gains(gains, k, l, u), power)
    return [PairAssignment(*x) for x in zip(
        k.tolist(), l.tolist(), u.tolist(), s.p_s1.tolist(), s.p_s2.tolist(),
        s.p_r.tolist())]


def _directs(outcome: LrpOutcome,
             subcarriers: np.ndarray) -> list[DirectAssignment]:
    return [DirectAssignment(*x) for x in zip(
        subcarriers.tolist(), outcome.d_user[subcarriers].tolist(),
        outcome.d_power[subcarriers].tolist())]


def _materialize(outcome: LrpOutcome, gains: GainTable,
                 protocol: Protocol) -> Allocation:
    """Turn a compact LRP solution into an explicit feasible allocation."""
    relay = outcome.relay_mask
    k = np.flatnonzero(relay)
    pairs = pair_assignments(gains, protocol, k, outcome.perm[k],
                             outcome.pair_user[k], outcome.pair_power[k])
    direct = np.flatnonzero(~relay)
    return Allocation(pairs=pairs, directs_1=_directs(outcome, direct),
                      directs_2=_directs(outcome, outcome.perm[direct]))


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


def _refill(outcome: LrpOutcome, table: PairGainTable, weights,
            p_tot: float) -> LrpOutcome:
    """Spend residual budget by water-filling at the fixed assignment."""
    w = np.asarray(weights, dtype=float)
    ks = np.arange(table.K)
    relay = outcome.relay_mask
    pair_w = w[outcome.pair_user]
    pair_g = table.g_eff[ks, outcome.perm, outcome.pair_user]
    d_w = w[outcome.d_user]
    d_g = table.direct[ks, outcome.d_user]
    # The channels in use: each relay-aided pair, and each direct row's
    # first-slot subcarrier k and second-slot subcarrier perm[k].
    direct = np.flatnonzero(~relay)
    used = np.concatenate([direct, outcome.perm[direct]])
    ch_w = np.concatenate([pair_w[relay], d_w[used]])
    ch_g = np.concatenate([pair_g[relay], d_g[used]])
    if not np.any(ch_g > 0):
        return outcome
    mu = _water_level(ch_w, ch_g, p_tot)
    return replace(
        outcome,
        pair_power=np.where(relay, _lambda_array(pair_w, mu, pair_g), 0.0),
        d_power=_lambda_array(d_w, mu, d_g))


def solve(gains: GainTable, weights, p_tot: float, protocol: Protocol,
          eps: float = 1e-6, refill: bool = False) -> tuple[Allocation, SolveReport]:
    """Full bisection solve; returns a feasible allocation and its report."""
    if p_tot <= 0:
        raise ValueError(f"p_tot must be positive, got {p_tot}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if gains.g_sr.size < 1:
        raise ValueError("empty gain table")
    w = np.asarray(weights, dtype=float)
    if w.size != gains.g_su.shape[1]:
        raise ValueError("weights length does not match user count")

    table = build_pair_gain_table(gains, protocol)
    mu_lo = 0.0
    mu_hi = mu_upper_bound(table.K, float(w.max()), p_tot)
    zero_tol = 1e-9 * p_tot
    iterations = 0
    trace: list[tuple[float, float]] = []
    exact: LrpOutcome | None = None

    while mu_hi - mu_lo > eps:
        mu_mid = 0.5 * (mu_lo + mu_hi)
        outcome = solve_lrp(table, w, mu_mid, p_tot)
        iterations += 1
        trace.append((mu_mid, outcome.subgrad))
        if abs(outcome.subgrad) <= zero_tol:
            exact = outcome
            break
        if outcome.subgrad > 0:
            mu_hi = mu_mid
        else:
            mu_lo = mu_mid

    if exact is not None:
        final = exact
        mode = SolveMode.EXACT_STATIONARY
    else:
        final = solve_lrp(table, w, mu_hi, p_tot)
        mode = SolveMode.APPROX_UPPER_BOUND
    mu_final = final.mu

    if refill:
        final = _refill(final, table, w, p_tot)
    alloc = _materialize(final, gains, protocol)
    wsr = evaluate_wsr(alloc, gains, w, protocol, p_tot)

    # Certified gap of the returned allocation: the optimum is at most the
    # dual value L(mu_final), so slack = L(mu_final) - wsr bounds the
    # shortfall. Without refill this equals mu_final * subgrad(mu_final)
    # exactly; refill raises wsr and tightens the certificate.
    slack = final.l_value - wsr
    if mode is SolveMode.EXACT_STATIONARY or slack <= 0.0:
        delta = 0.0
    elif wsr > 0.0:
        delta = slack / wsr
    else:
        delta = math.inf
    report = SolveReport(wsr=wsr, mode=mode, delta=delta,
                         n_sp=len(alloc.pairs), mu_final=mu_final,
                         iterations=iterations, trace=trace)
    return alloc, report
