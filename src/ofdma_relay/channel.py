"""Geometry and frequency-domain channel gain generation.

The source sits at the origin, the relay on the segment toward the user-region
center. Each link is a tapped delay line with i.i.d. circularly symmetric
complex Gaussian taps whose total energy follows a power-law path loss.

Random numbers come from an explicitly passed ``numpy.random.Generator``
(PCG64, 64-bit seed). Draw order is fixed so results are reproducible:
geometry first (two uniforms per user), then one impulse response per link in
the order source->relay, source->user for u = 0..U-1, relay->user for
u = 0..U-1. Gaussians are produced by Box-Muller from uniform draws.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig

# Path-loss models break down in the near field; clamp distances at 1 m.
MIN_DISTANCE_KM = 1e-3


@dataclass(frozen=True)
class Geometry:
    """Relay and user positions (km) with the derived link distances."""

    relay_pos: np.ndarray   # (2,)
    user_pos: np.ndarray    # (U, 2)
    d_su: np.ndarray        # (U,) source-to-user distances
    d_ru: np.ndarray        # (U,) relay-to-user distances


@dataclass(frozen=True)
class GainTable:
    """Normalized channel power gains |h|^2 / sigma^2 for every link."""

    g_sr: np.ndarray   # (K,)
    g_su: np.ndarray   # (K, U)
    g_ru: np.ndarray   # (K, U)


def _box_muller(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normal draws via Box-Muller (2 uniforms per pair)."""
    m = (n + 1) // 2
    u1 = rng.random(m)
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1 - u1 in (0, 1], so the log is finite
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                        r * np.sin(2.0 * np.pi * u2)])
    return z[:n]


def sample_geometry(cfg: SystemConfig, rng: np.random.Generator) -> Geometry:
    """Place the relay and draw user positions uniformly over the disk."""
    relay = np.array([cfg.d_km, 0.0])
    center = np.array([cfg.center_km, 0.0])
    # Area-uniform disk sampling: radius = R*sqrt(u1), angle = 2*pi*u2.
    u1 = rng.random(cfg.U)
    u2 = rng.random(cfg.U)
    radius = cfg.region_radius_km * np.sqrt(u1)
    angle = 2.0 * np.pi * u2
    users = center + np.stack([radius * np.cos(angle),
                               radius * np.sin(angle)], axis=1)
    # A huge d_km overflows a distance to +inf; sample_impulse_response
    # turns that into a zero-gain link, the physical limit.
    with np.errstate(over="ignore"):
        d_su = np.linalg.norm(users, axis=1)
        d_ru = np.linalg.norm(users - relay, axis=1)
    return Geometry(relay_pos=relay, user_pos=users, d_su=d_su, d_ru=d_ru)


def sample_impulse_response(distance_km: float, cfg: SystemConfig,
                            rng: np.random.Generator) -> np.ndarray:
    """L complex taps with per-tap variance (1/L)*(d/d_ref)^(-pathloss_exp)."""
    d = max(distance_km, MIN_DISTANCE_KM)
    var = (d / cfg.d_ref_km) ** (-cfg.pathloss_exp) / cfg.taps
    # Real/imag parts are independent zero-mean Gaussians of variance var/2.
    re = _box_muller(rng, cfg.taps)
    im = _box_muller(rng, cfg.taps)
    return np.sqrt(var / 2.0) * (re + 1j * im)


def taps_to_subcarrier_gains(taps: np.ndarray, K: int) -> np.ndarray:
    """|h_k|^2 for the K-point DFT of the impulse response."""
    taps = np.asarray(taps)
    if taps.size > K:
        raise ValueError(f"impulse response longer than K ({taps.size} > {K})")
    h = np.fft.fft(taps, n=K)
    return np.abs(h) ** 2


def build_gain_table(cfg: SystemConfig,
                     rng: np.random.Generator) -> tuple[Geometry, GainTable]:
    """Draw geometry, then one independent impulse response per link."""
    geo = sample_geometry(cfg, rng)
    g_sr = taps_to_subcarrier_gains(
        sample_impulse_response(cfg.d_km, cfg, rng), cfg.K)
    g_su = np.stack([
        taps_to_subcarrier_gains(
            sample_impulse_response(geo.d_su[u], cfg, rng), cfg.K)
        for u in range(cfg.U)], axis=1)
    g_ru = np.stack([
        taps_to_subcarrier_gains(
            sample_impulse_response(geo.d_ru[u], cfg, rng), cfg.K)
        for u in range(cfg.U)], axis=1)
    return geo, GainTable(g_sr=g_sr, g_su=g_su, g_ru=g_ru)
