import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdma_relay import pair_gains
from ofdma_relay.channel import GainTable, build_gain_table
from ofdma_relay.config import SystemConfig
from ofdma_relay.dual_solver import Protocol, evaluate_wsr, solve
from ofdma_relay.oracle import (OracleSizeError, _water_fill, oracle_solve,
                                pairings)


def expected_count(K: int, U: int) -> int:
    return sum(math.comb(K, m) ** 2 * math.factorial(m)
               * U ** m * U ** (2 * (K - m)) for m in range(K + 1))


def random_instance(seed: int, K: int, U: int, db: float = 15.0):
    rng = np.random.default_rng(seed)
    weights = tuple(float(x) for x in rng.uniform(0.8, 1.2, size=U))
    cfg = SystemConfig(K=K, U=U, d_km=0.4, ptot_over_sigma2_db=db,
                       weights=weights, seed=seed, taps=min(6, K))
    _, gains = build_gain_table(cfg, rng)
    return cfg, gains


def fill(ws, gs, p_tot: float) -> list[float]:
    """The array fill on one row."""
    return _water_fill(np.array([ws], dtype=float),
                       np.array([gs], dtype=float), p_tot)[0].tolist()


class TestEnumeration:
    @pytest.mark.parametrize("K,U", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_configuration_count(self, K, U):
        # Each pairing has one user choice slot per pair and per direct.
        found = list(pairings(K, Protocol.PROPOSED))
        assert sum(U ** (len(k) + len(d1) + len(d2))
                   for k, _, d1, d2 in found) == expected_count(K, U)
        assert len(set(found)) == len(found)

    def test_count_small_cases(self):
        assert expected_count(1, 1) == 2
        assert expected_count(2, 1) == 7

    def test_identity_pairing_count(self):
        found = list(pairings(3, Protocol.BENCHMARK2))
        # Per subcarrier: U pair choices plus U direct choices, one user on
        # both slots, so a direct subcarrier is one choice slot.
        assert sum(2 ** (len(k) + len(d1))
                   for k, _, d1, _ in found) == 4 ** 3
        assert len(set(found)) == len(found)
        for k, l, d1, d2 in found:
            assert k == l and d1 == d2

    def test_every_configuration_covers_both_slots(self):
        for protocol in Protocol:
            for k, l, d1, d2 in pairings(3, protocol):
                assert sorted(k + d1) == [0, 1, 2]
                assert sorted(l + d2) == [0, 1, 2]

    def test_size_guard(self, monkeypatch):
        # The guard runs before the pair-gain table or any pairing is built.
        def refuse(*args):
            raise AssertionError("the pair-gain table was built")
        monkeypatch.setattr(pair_gains, "effective_gain", refuse)
        for K, U in ((6, 1), (1, 4)):
            gains = GainTable(g_sr=np.ones(K), g_su=np.ones((K, U)),
                              g_ru=np.ones((K, U)))
            with pytest.raises(OracleSizeError):
                oracle_solve(gains, np.ones(U), 1.0, Protocol.PROPOSED)


# A channel is (w, log10(p_tot*g)), or (w, None) for a dead one (g = 0).
channel_st = st.tuples(st.floats(0.5, 2.0),
                       st.one_of(st.none(), st.floats(-6.0, 6.0)))


class TestWaterFill:
    @settings(max_examples=300)
    @given(st.lists(channel_st, min_size=1, max_size=10),
           st.floats(1e-3, 1e3))
    def test_first_order_conditions(self, channels, p_tot):
        ws = [w for w, _ in channels]
        gs = [0.0 if t is None else 10.0 ** t / p_tot for _, t in channels]
        xs = fill(ws, gs, p_tot)
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
            xs = fill(ws, gs, p_tot)
            assert all(x >= 0 for x in xs)
            assert sum(xs) == pytest.approx(p_tot, rel=1e-9)

    def test_batch_matches_row_by_row(self):
        # Rows of one call converge on different passes; a row that has
        # converged keeps its level, so each row equals its own fill.
        rng = np.random.default_rng(36)
        ws = rng.uniform(0.5, 2.0, size=(40, 6))
        gs = np.exp(rng.uniform(-8.0, 4.0, size=(40, 6)))
        gs[rng.random((40, 6)) < 0.3] = 0.0
        gs[7] = 0.0
        xs = _water_fill(ws, gs, 2.5)
        assert not xs[7].any()
        for row_w, row_g, row_x in zip(ws, gs, xs):
            assert row_x.tolist() == fill(row_w, row_g, 2.5)

    def test_all_dead_channels_get_nothing(self):
        assert fill([1.0, 1.0], [0.0, 0.0], 5.0) == [0.0, 0.0]

    def test_equal_channels_split_evenly(self):
        xs = fill([1.0, 1.0], [2.0, 2.0], 6.0)
        assert xs == pytest.approx([3.0, 3.0])

    def test_better_channel_gets_more_power(self):
        xs = fill([1.0, 1.0], [10.0, 0.1], 1.0)
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

    @given(st.integers(1, 4), st.integers(1, 3), st.floats(0.0, 45.0),
           st.integers(0, 2**16), st.sampled_from(list(Protocol)), st.data())
    def test_user_relabelling_property(self, K, U, db, seed, protocol, data):
        cfg, gains = random_instance(seed, K, U, db)
        us = np.array(data.draw(st.permutations(range(U))))
        moved = GainTable(g_sr=gains.g_sr, g_su=gains.g_su[:, us],
                          g_ru=gains.g_ru[:, us])
        w = np.asarray(cfg.weights)
        res = oracle_solve(gains, w, cfg.p_tot, protocol)
        res_moved = oracle_solve(moved, w[us], cfg.p_tot, protocol)
        assert res_moved.wsr == pytest.approx(res.wsr, rel=1e-12)

    @given(st.integers(1, 4), st.integers(1, 3), st.floats(0.0, 45.0),
           st.integers(0, 2**16), st.sampled_from(list(Protocol)), st.data())
    def test_subcarrier_relabelling_property(self, K, U, db, seed, protocol,
                                             data):
        # One subcarrier permutation on every link keeps the feasible set,
        # bp2's identity pairing included.
        cfg, gains = random_instance(seed, K, U, db)
        sc = np.array(data.draw(st.permutations(range(K))))
        moved = GainTable(g_sr=gains.g_sr[sc], g_su=gains.g_su[sc],
                          g_ru=gains.g_ru[sc])
        res = oracle_solve(gains, cfg.weights, cfg.p_tot, protocol)
        res_moved = oracle_solve(moved, cfg.weights, cfg.p_tot, protocol)
        assert res_moved.wsr == pytest.approx(res.wsr, rel=1e-12)

    def test_input_validation(self):
        # The solver's input rule: the oracle raises where solve does.
        cfg = SystemConfig(K=4, U=3, d_km=0.5, ptot_over_sigma2_db=20.0,
                           weights=(1.0, 1.0, 1.0), seed=1, taps=4)
        _, gains = build_gain_table(cfg, np.random.default_rng(1))
        with pytest.raises(ValueError, match="p_tot"):
            oracle_solve(gains, cfg.weights, 0.0, Protocol.PROPOSED)
        for bad in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="finite and positive"):
                oracle_solve(gains, (bad, 1.0, 1.0), cfg.p_tot,
                             Protocol.PROPOSED)
        for wrong in ((1.0, 1.0), (1.0,) * 4):
            with pytest.raises(ValueError, match="length"):
                oracle_solve(gains, wrong, cfg.p_tot, Protocol.PROPOSED)
        for name, value in (("g_su", np.nan), ("g_su", -1.0),
                            ("g_sr", np.inf), ("g_ru", np.nan)):
            bad = getattr(gains, name).copy()
            bad[0] = value
            with pytest.raises(ValueError, match="finite and nonnegative"):
                oracle_solve(dataclasses.replace(gains, **{name: bad}),
                             cfg.weights, cfg.p_tot, Protocol.PROPOSED)

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
