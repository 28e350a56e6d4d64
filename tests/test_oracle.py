import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# A channel is (w, log10(p_tot*g)), or (w, None) for a dead one (g = 0).
channel_st = st.tuples(st.floats(0.5, 2.0),
                       st.one_of(st.none(), st.floats(-6.0, 6.0)))


class TestWaterFill:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(channel_st, min_size=1, max_size=10),
           st.floats(1e-3, 1e3))
    def test_first_order_conditions(self, channels, p_tot):
        ws = [w for w, _ in channels]
        gs = [0.0 if t is None else 10.0 ** t / p_tot for _, t in channels]
        xs = _water_fill(ws, gs, p_tot)
        assert all(x >= 0 for x in xs)
        assert all(x == 0 for x, g in zip(xs, gs) if g == 0)
        active = [i for i, x in enumerate(xs) if x > 0]
        if not any(g > 0 for g in gs):
            assert not active
            return
        # The level nu is fixed by p_tot + sum 1/g over the active set, so
        # the spent budget carries that sum's rounding: at p_tot*g = 1e-6
        # on ten equal channels it is a few 1e-9 of p_tot.
        rounding = 4 * np.finfo(float).eps * sum(1.0 / gs[i] for i in active)
        assert sum(xs) == pytest.approx(p_tot, rel=1e-9, abs=rounding)
        assert sum(xs) <= p_tot * (1 + 1e-12)
        # Marginal utility w*g/(1 + g*x) is one level on the active
        # channels, and no higher at zero power on the inactive live ones.
        marginal = [ws[i] * gs[i] / (1.0 + gs[i] * xs[i]) for i in active]
        level = marginal[0]
        assert marginal == pytest.approx([level] * len(active), rel=1e-9)
        assert all(w * g <= level * (1 + 1e-9)
                   for w, g, x in zip(ws, gs, xs) if g > 0 and x == 0)

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

    @pytest.mark.parametrize("db", [-80.0, -100.0])
    def test_allocation_passes_audit_at_low_snr(self, db):
        # p_tot*g << 1: the two terms of each power nearly cancel, so the
        # unscaled fill overshoots p_tot by up to 8e-8 relative here.
        for seed in (3, 11, 15, 17, 18):
            cfg = SystemConfig(K=5, U=1, d_km=0.5, ptot_over_sigma2_db=db,
                               weights=(1.0,), seed=seed, taps=5)
            _, gains = build_gain_table(cfg, np.random.default_rng(seed))
            res = oracle_solve(gains, cfg.weights, cfg.p_tot,
                               Protocol.BENCHMARK2)
            assert res.allocation.total_power() <= cfg.p_tot * (1 + 1e-12)
            evaluate_wsr(res.allocation, gains, cfg.weights,
                         Protocol.BENCHMARK2, cfg.p_tot)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_all_pairs_allocation_passes_audit(self, protocol):
        # At K=1 the optimum here is one relay-aided pair and no directs.
        cfg, gains = random_instance(6, K=1, U=2)
        res = oracle_solve(gains, cfg.weights, cfg.p_tot, protocol)
        alloc, report = solve(gains, cfg.weights, cfg.p_tot, protocol)
        for a in (res.allocation, alloc):
            assert len(a.pairs) == 1 and not a.directs_1 and not a.directs_2
        assert evaluate_wsr(res.allocation, gains, cfg.weights, protocol,
                            cfg.p_tot) == pytest.approx(res.wsr, rel=1e-9)
        assert report.wsr <= res.wsr + 1e-6

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
