"""Closed-form rate maximization for relay-aided subcarrier pairs.

For a pair carrying sum power P the maximum rate is (1/2)*log2(1 + G_eff*P).
The source sends on the first-slot subcarrier k, the relay decodes and
forwards on the second-slot subcarrier l, and the source may beamform with
the relay on l, so the second-hop gain is B = g_su_l + g_ru_l. A protocol
without second-slot beamforming is the same closed form with g_su_l = 0. The
optimal split equalizes the relay-decode and destination-MRC branch SNRs
whenever relaying is worthwhile.

Every function works elementwise on scalars or NumPy arrays that broadcast
together, so one call covers a whole table of (k, l, u) combinations.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class LinkGains:
    """Gains seen by (k, l, u) combinations; the fields broadcast together."""

    g_sr: np.ndarray    # source->relay on the first-slot subcarrier
    g_su_k: np.ndarray  # source->user on the first-slot subcarrier
    g_su_l: np.ndarray  # source->user on the second-slot subcarrier, 0 when
                        # the source is silent in the second slot
    g_ru_l: np.ndarray  # relay->user on the second-slot subcarrier


@dataclass(frozen=True)
class PairSplit:
    p_s1: np.ndarray  # source power, first slot
    p_s2: np.ndarray  # source power, second slot
    p_r: np.ndarray   # relay power, second slot

    @property
    def total(self) -> np.ndarray:
        return self.p_s1 + self.p_s2 + self.p_r


def rate(snr) -> np.ndarray:
    """(1/2)*log2(1 + snr), in bits per OFDM symbol."""
    snr = np.asarray(snr, dtype=float)
    if np.any(snr < 0):
        raise ValueError(f"SNR must be nonnegative, got {snr.min()}")
    return 0.5 * np.log2(1.0 + snr)


def snr_relay_aided(g: LinkGains, p_s1, p_s2, p_r) -> np.ndarray:
    """Destination SNR after MRC of the two slots (beamformed second slot)."""
    return (g.g_su_k * p_s1
            + (np.sqrt(g.g_su_l * p_s2) + np.sqrt(g.g_ru_l * p_r)) ** 2)


def _second_hop(g: LinkGains):
    """Second-hop gain, decode margin and where relaying beats direct mode."""
    b = g.g_su_l + g.g_ru_l
    return b, g.g_sr - g.g_su_k, np.minimum(g.g_sr, b) > g.g_su_k


def effective_gain(g: LinkGains) -> np.ndarray:
    """SNR per unit pair power under the optimal split."""
    b, delta, relay = _second_hop(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        relayed = g.g_sr * b / (delta + b)
    return np.where(relay, relayed, np.minimum(g.g_sr, g.g_su_k))


def optimal_split(g: LinkGains, P) -> PairSplit:
    """Rate-maximizing split of sum power P."""
    P = np.asarray(P, dtype=float)
    if np.any(P < 0):
        raise ValueError(f"pair power must be nonnegative, got {P.min()}")
    b, delta, relay = _second_hop(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        p2 = delta / (delta + b) * P
        p_s1 = np.where(relay, b / (delta + b) * P, P)
        p_s2 = np.where(relay, g.g_su_l / b * p2, 0.0)
        p_r = np.where(relay, g.g_ru_l / b * p2, 0.0)
    return PairSplit(p_s1, p_s2, p_r)


def effective_gain_proposed(g: LinkGains) -> np.ndarray:
    """Effective gain with second-slot source-relay beamforming."""
    return effective_gain(g)


def effective_gain_benchmark(g: LinkGains) -> np.ndarray:
    """Effective gain when only the relay transmits in the second slot."""
    return effective_gain(replace(g, g_su_l=0.0))
