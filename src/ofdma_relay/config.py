"""Scenario configuration shared by the channel generator and the solvers."""
from __future__ import annotations

import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """Raised when a scenario configuration is inconsistent."""


@dataclass(frozen=True)
class SystemConfig:
    """Parameters of one downlink scenario.

    All powers are expressed in units of the noise power (sigma^2 = 1), so the
    total budget is ``p_tot = 10**(ptot_over_sigma2_db / 10)``.
    """

    K: int                      # subcarriers per slot
    U: int                      # users
    d_km: float                 # source-to-relay distance
    ptot_over_sigma2_db: float  # total power over noise power, dB
    weights: tuple[float, ...]  # per-user positive weights
    seed: int = 0
    taps: int = 6               # impulse-response length L

    def __post_init__(self):
        if self.K < 1:
            raise ConfigError(f"K must be >= 1, got {self.K}")
        if self.U < 1:
            raise ConfigError(f"U must be >= 1, got {self.U}")
        if len(self.weights) != self.U:
            raise ConfigError(
                f"need {self.U} weights, got {len(self.weights)}")
        if not all(math.isfinite(w) and w > 0 for w in self.weights):
            raise ConfigError("all weights must be finite and strictly positive")
        if not (1 <= self.taps <= self.K):
            raise ConfigError(f"taps must satisfy 1 <= taps <= K, got {self.taps}")
        if not (math.isfinite(self.d_km) and self.d_km > 0):
            raise ConfigError(
                f"d_km must be finite and positive, got {self.d_km}")
        try:
            p_tot = self.p_tot
        except OverflowError:
            p_tot = math.inf
        if not (math.isfinite(p_tot) and p_tot > 0):
            raise ConfigError(
                f"ptot_over_sigma2_db={self.ptot_over_sigma2_db} does not give "
                "a finite positive p_tot")

    @property
    def p_tot(self) -> float:
        """Total power budget in noise-power units."""
        return 10.0 ** (self.ptot_over_sigma2_db / 10.0)

    @property
    def w_max(self) -> float:
        return max(self.weights)
