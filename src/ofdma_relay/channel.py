"""Geometry and frequency-domain channel gain generation.

The source sits at the origin, the relay on the segment toward the user-region
center. Each link is a tapped delay line with i.i.d. circularly symmetric
complex Gaussian taps whose total energy follows a power-law path loss. The
paper's system model fixes the user region, the path-loss exponent and its
reference distance, so they are module constants, not scenario fields.

Random numbers come from an explicitly passed ``numpy.random.Generator``
(PCG64, 64-bit seed). Draw order is fixed so results are reproducible. A
trial makes two draws: geometry first (U radius uniforms, then U angle
uniforms), then one array of uniforms for every link's impulse response, in
the link order source->relay, source->user for u = 0..U-1, relay->user for
u = 0..U-1. Within a link come the real parts, then the imaginary parts; each
is ceil(L/2) Box-Muller pairs, drawn as the pairs' u1 values, then their u2
values. One FFT turns all links' taps into per-subcarrier gains.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig

CENTER_KM = 1.0          # source to user-region center
REGION_RADIUS_KM = 0.05  # radius of the user disk
PATHLOSS_EXP = 2.5
D_REF_KM = 1.0           # distance of unit mean path gain
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


def sample_geometry(cfg: SystemConfig, rng: np.random.Generator) -> Geometry:
    """Place the relay and draw user positions uniformly over the disk."""
    relay = np.array([cfg.d_km, 0.0])
    center = np.array([CENTER_KM, 0.0])
    # Area-uniform disk sampling: radius = R*sqrt(u1), angle = 2*pi*u2.
    u1, u2 = rng.random((2, cfg.U))
    radius = REGION_RADIUS_KM * np.sqrt(u1)
    angle = 2.0 * np.pi * u2
    users = center + np.stack([radius * np.cos(angle),
                               radius * np.sin(angle)], axis=1)
    # A huge d_km overflows a distance to +inf; sample_impulse_response
    # turns that into a zero-gain link, the physical limit.
    with np.errstate(over="ignore"):
        d_su = np.linalg.norm(users, axis=1)
        d_ru = np.linalg.norm(users - relay, axis=1)
    return Geometry(relay_pos=relay, user_pos=users, d_su=d_su, d_ru=d_ru)


def sample_impulse_response(distances_km: list[float], cfg: SystemConfig,
                            rng: np.random.Generator) -> np.ndarray:
    """(n, L) complex taps, one row per link, of per-tap variance
    (1/L)*(d/D_REF_KM)^-PATHLOSS_EXP for that link's distance d."""
    L = cfg.taps
    # Axes: link, re/im, u1/u2, pair. C order is the order in which drawing
    # each link's re then im parts, u1 then u2 of each, would consume them.
    u = rng.random((len(distances_km), 2, 2, (L + 1) // 2))
    r = np.sqrt(-2.0 * np.log1p(-u[:, :, 0]))  # 1 - u1 in (0, 1]: finite log
    theta = 2.0 * np.pi * u[:, :, 1]
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)],
                       axis=-1)[..., :L]
    # Scalar pow per link: numpy's vectorized ** can differ in the last ulp.
    var = np.array([(max(d, MIN_DISTANCE_KM) / D_REF_KM) ** (-PATHLOSS_EXP)
                    for d in distances_km]) / L
    # Real/imag parts are independent zero-mean Gaussians of variance var/2.
    return np.sqrt(var / 2.0)[:, None] * (z[:, 0] + 1j * z[:, 1])


def taps_to_subcarrier_gains(taps: np.ndarray, K: int) -> np.ndarray:
    """|h_k|^2 for the K-point DFT of each impulse response (last axis)."""
    taps = np.asarray(taps)
    if taps.shape[-1] > K:
        raise ValueError(
            f"impulse response longer than K ({taps.shape[-1]} > {K})")
    return np.abs(np.fft.fft(taps, n=K)) ** 2


def build_gain_table(cfg: SystemConfig,
                     rng: np.random.Generator) -> tuple[Geometry, GainTable]:
    """Draw geometry, then one independent impulse response per link."""
    geo = sample_geometry(cfg, rng)
    gains = taps_to_subcarrier_gains(sample_impulse_response(
        [cfg.d_km, *geo.d_su, *geo.d_ru], cfg, rng), cfg.K)
    U = cfg.U
    # Copies keep g_su and g_ru C-ordered (K, U), as downstream code has them.
    return geo, GainTable(g_sr=gains[0], g_su=gains[1:U + 1].T.copy(),
                          g_ru=gains[U + 1:].T.copy())
