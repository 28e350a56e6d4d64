import math

import numpy as np
import pytest

from ofdma_relay.channel import build_gain_table
from ofdma_relay.config import SystemConfig
from ofdma_relay.dual_solver import Protocol, evaluate_wsr, solve
from ofdma_relay.oracle import (OracleSizeError, _water_fill,
                                enumerate_configurations, oracle_solve)


def expected_count(K: int, U: int) -> int:
    return sum(math.comb(K, m) ** 2 * math.factorial(m)
               * U ** m * U ** (2 * (K - m)) for m in range(K + 1))


def random_instance(seed: int, K: int, U: int):
    rng = np.random.default_rng(seed)
    weights = tuple(float(x) for x in rng.uniform(0.8, 1.2, size=U))
    cfg = SystemConfig(K=K, U=U, d_km=0.4, ptot_over_sigma2_db=15.0,
                       weights=weights, seed=seed, taps=min(6, K))
    _, gains = build_gain_table(cfg, rng)
    return cfg, gains


class TestEnumeration:
    @pytest.mark.parametrize("K,U", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_configuration_count(self, K, U):
        configs = list(enumerate_configurations(K, U, Protocol.PROPOSED))
        assert len(configs) == expected_count(K, U)
        assert len(set(configs)) == len(configs)

    def test_count_small_cases(self):
        assert expected_count(1, 1) == 2
        assert expected_count(2, 1) == 7

    def test_identity_pairing_count(self):
        configs = list(enumerate_configurations(3, 2, Protocol.BENCHMARK2))
        # Per subcarrier: U pair choices plus U direct choices, one user on
        # both slots.
        assert len(configs) == 4 ** 3
        for c in configs:
            assert all(k == l for k, l, _ in c.pairs)
            assert c.direct_1 == c.direct_2

    def test_every_configuration_covers_both_slots(self):
        for c in enumerate_configurations(3, 1, Protocol.PROPOSED):
            slot1 = sorted([k for k, _, _ in c.pairs]
                           + [k for k, _ in c.direct_1])
            slot2 = sorted([l for _, l, _ in c.pairs]
                           + [l for l, _ in c.direct_2])
            assert slot1 == [0, 1, 2] and slot2 == [0, 1, 2]

    def test_size_guard(self):
        with pytest.raises(OracleSizeError):
            list(enumerate_configurations(6, 1, Protocol.PROPOSED))


class TestWaterFill:
    def test_budget_spent_exactly(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            ws = list(rng.uniform(0.8, 1.2, size=n))
            gs = list(np.exp(rng.uniform(-2, 3, size=n)))
            p_tot = float(np.exp(rng.uniform(-1, 3)))
            xs = _water_fill(ws, gs, p_tot)
            assert all(x >= 0 for x in xs)
            assert sum(xs) == pytest.approx(p_tot, rel=1e-9)

    def test_all_dead_channels_get_nothing(self):
        assert _water_fill([1.0, 1.0], [0.0, 0.0], 5.0) == [0.0, 0.0]

    def test_equal_channels_split_evenly(self):
        xs = _water_fill([1.0, 1.0], [2.0, 2.0], 6.0)
        assert xs == pytest.approx([3.0, 3.0])

    def test_better_channel_gets_more_power(self):
        xs = _water_fill([1.0, 1.0], [10.0, 0.1], 1.0)
        assert xs[0] > xs[1]
        assert xs[0] - xs[1] == pytest.approx(1 / 0.1 - 1 / 10.0, rel=1e-6) \
            or xs[1] == 0.0


class TestOracleSolve:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_allocation_passes_audit(self, protocol):
        cfg, gains = random_instance(31, K=3, U=2)
        res = oracle_solve(gains, cfg.weights, cfg.p_tot, protocol)
        wsr = evaluate_wsr(res.allocation, gains, cfg.weights, protocol,
                           cfg.p_tot)
        assert wsr == pytest.approx(res.wsr, rel=1e-9)
        assert res.enumerated == (expected_count(3, 2)
                                  if protocol is not Protocol.BENCHMARK2
                                  else 4 ** 3)

    def test_user_relabeling_invariance(self):
        from ofdma_relay.channel import GainTable
        cfg, gains = random_instance(32, K=3, U=2)
        res = oracle_solve(gains, cfg.weights, cfg.p_tot, Protocol.PROPOSED)
        swapped = GainTable(g_sr=gains.g_sr, g_su=gains.g_su[:, ::-1],
                            g_ru=gains.g_ru[:, ::-1])
        res_sw = oracle_solve(swapped, cfg.weights[::-1], cfg.p_tot,
                              Protocol.PROPOSED)
        assert res_sw.wsr == pytest.approx(res.wsr, rel=1e-12)

    def test_protocol_ordering(self):
        cfg, gains = random_instance(33, K=3, U=2)
        wsrs = {p: oracle_solve(gains, cfg.weights, cfg.p_tot, p).wsr
                for p in Protocol}
        assert wsrs[Protocol.PROPOSED] >= wsrs[Protocol.BENCHMARK1] - 1e-12
        assert wsrs[Protocol.BENCHMARK1] >= wsrs[Protocol.BENCHMARK2] - 1e-12

    def test_size_guard(self):
        cfg, gains = random_instance(34, K=3, U=2)
        big = SystemConfig(K=8, U=2, d_km=0.4, ptot_over_sigma2_db=10.0,
                           weights=(1.0, 1.0), taps=6)
        _, big_gains = build_gain_table(big, np.random.default_rng(0))
        with pytest.raises(OracleSizeError):
            oracle_solve(big_gains, big.weights, big.p_tot, Protocol.PROPOSED)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_solver_within_certified_bound(self, protocol):
        for seed in range(6):
            cfg, gains = random_instance(seed + 50, K=3, U=2)
            _, report = solve(gains, cfg.weights, cfg.p_tot, protocol)
            ref = oracle_solve(gains, cfg.weights, cfg.p_tot, protocol)
            assert report.wsr <= ref.wsr + 1e-6
            assert report.wsr >= ref.wsr - report.delta * ref.wsr - 1e-6
