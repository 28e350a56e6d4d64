import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdma_relay.pair_gains import (LinkGains, effective_gain,
                                    effective_gain_benchmark,
                                    effective_gain_proposed, optimal_split,
                                    rate, snr_relay_aided)

gain_st = st.floats(1e-6, 1e6)
# Each example is a batch of (g_sr, g_su_k, g_su_l, g_ru_l) tuples, so the
# kernel is exercised on arrays.
gains_st = st.lists(st.tuples(gain_st, gain_st, gain_st, gain_st),
                    min_size=1, max_size=16).map(
    lambda rows: LinkGains(*np.array(rows).T))
power_st = st.floats(1e-6, 1e6)


def relay_only(g: LinkGains) -> LinkGains:
    """The same links with the source silent in the second slot."""
    return replace(g, g_su_l=0.0)


class TestRate:
    def test_values(self):
        assert rate(0.0) == 0.0
        assert rate(3.0) == pytest.approx(1.0)
        assert rate(np.array([0.0, 3.0, 15.0])) == pytest.approx(
            [0.0, 1.0, 2.0])

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            rate(-1e-9)
        with pytest.raises(ValueError):
            rate(np.array([1.0, -1e-9]))


class TestWorkedExamples:
    def test_beamforming_split(self):
        g = LinkGains(4.0, 1.0, 2.0, 3.0)
        s = optimal_split(g, 8.0)
        assert (s.p_s1, s.p_s2, s.p_r) == pytest.approx((5.0, 1.2, 1.8))
        assert effective_gain(g) == pytest.approx(2.5)
        # Both decoding branches sit at the same SNR.
        assert g.g_sr * s.p_s1 == pytest.approx(20.0)
        assert snr_relay_aided(g, s.p_s1, s.p_s2, s.p_r) == pytest.approx(20.0)
        assert rate(effective_gain(g) * 8.0) == pytest.approx(rate(20.0))

    def test_relay_only_split(self):
        # The relay-only entry point ignores the second-slot source link.
        g = LinkGains(4.0, 1.0, 7.0, 3.0)
        assert effective_gain_benchmark(g) == pytest.approx(2.0)
        s = optimal_split(relay_only(g), 6.0)
        assert s.p_s2 == 0.0
        assert (s.p_s1, s.p_r) == pytest.approx((3.0, 3.0))
        assert g.g_sr * s.p_s1 == pytest.approx(12.0)

    def test_direct_fallback_when_relay_useless(self):
        g = LinkGains(0.5, 2.0, 1.0, 1.0)
        for links in (g, relay_only(g)):
            s = optimal_split(links, 4.0)
            assert (s.p_s1, s.p_s2, s.p_r) == (4.0, 0.0, 0.0)
            assert effective_gain(links) == 0.5

    def test_negative_power_rejected(self):
        g = LinkGains(4.0, 1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            optimal_split(g, -1.0)
        with pytest.raises(ValueError):
            optimal_split(relay_only(g), np.array([1.0, -1.0]))


class TestEffectiveGains:
    @given(gains_st)
    def test_beamforming_dominates_relay_only(self, g):
        assert np.all(effective_gain_proposed(g) >= effective_gain_benchmark(g))

    @given(gains_st)
    def test_bounded_by_bottleneck_links(self, g):
        b = g.g_su_l + g.g_ru_l
        assert np.all(effective_gain(g) <= g.g_sr + 1e-12)
        assert np.all(effective_gain(g) <= np.maximum(g.g_su_k, b) + 1e-12)

    def test_boundary_continuity(self):
        # Crossing min(g_sr, B) = g_su_k keeps the gain continuous.
        for eps in (1e-9, -1e-9):
            lo = effective_gain(LinkGains(2.0, 2.0 + eps, 1.0, 3.0))
            assert lo == pytest.approx(2.0, abs=1e-8)
        for eps in (1e-9, -1e-9):
            lo = effective_gain_benchmark(LinkGains(5.0, 2.0, 1.0, 2.0 + eps))
            assert lo == pytest.approx(2.0, abs=1e-8)

    def test_second_hop_monotonicity(self):
        g = LinkGains(4.0, 1.0, 2.0, 3.0)
        better = LinkGains(4.0, 1.0, 2.0, 4.0)
        assert effective_gain_proposed(better) > effective_gain_proposed(g)
        assert effective_gain_benchmark(better) > effective_gain_benchmark(g)


class TestSplitOptimality:
    @given(gains_st, power_st)
    def test_split_is_feasible(self, g, P):
        for links in (g, relay_only(g)):
            s = optimal_split(links, P)
            assert np.all(s.p_s1 >= 0) and np.all(s.p_s2 >= 0)
            assert np.all(s.p_r >= 0)
            assert s.total == pytest.approx(np.full(s.total.shape, P),
                                            rel=1e-9)
        assert np.all(optimal_split(relay_only(g), P).p_s2 == 0.0)

    @given(gains_st, power_st)
    @settings(max_examples=50)
    def test_beamforming_branches_balance(self, g, P):
        s = optimal_split(g, P)
        relayed = s.p_r > 0
        decode = (g.g_sr * s.p_s1)[relayed]
        combine = snr_relay_aided(g, s.p_s1, s.p_s2, s.p_r)[relayed]
        assert combine == pytest.approx(decode, rel=1e-9)

    def test_beamforming_weights_match_cauchy_schwarz(self):
        # Equality in (sqrt(a*x)+sqrt(b*y))^2 <= (a+b)(x+y) needs x/a = y/b.
        g = LinkGains(9.0, 2.0, 3.0, 5.0)
        s = optimal_split(g, 10.0)
        assert s.p_s2 * g.g_ru_l == pytest.approx(s.p_r * g.g_su_l, rel=1e-12)
        b = g.g_su_l + g.g_ru_l
        beam = (math.sqrt(g.g_su_l * s.p_s2) + math.sqrt(g.g_ru_l * s.p_r)) ** 2
        assert beam == pytest.approx(b * (s.p_s2 + s.p_r), rel=1e-12)

    @staticmethod
    def random_batch(seed: int, n: int = 200):
        """n random gain tuples and budgets, drawn one tuple at a time."""
        rng = np.random.default_rng(seed)
        rows, powers = [], []
        for _ in range(n):
            rows.append(np.exp(rng.uniform(-3, 3, size=4)))
            powers.append(float(np.exp(rng.uniform(-2, 4))))
        return LinkGains(*np.array(rows).T), np.array(powers)

    def test_grid_search_never_beats_closed_form(self):
        g, P = self.random_batch(11)
        closed = effective_gain(g) * P
        s = optimal_split(g, P)
        achieved = np.minimum(g.g_sr * s.p_s1,
                              snr_relay_aided(g, s.p_s1, s.p_s2, s.p_r))
        assert achieved == pytest.approx(closed, rel=1e-9, abs=1e-12)

        n_grid = 120
        i, j = np.meshgrid(np.arange(n_grid + 1), np.arange(n_grid + 1),
                           indexing="ij")
        keep = i + j <= n_grid
        f1 = (i[keep] / n_grid).ravel()
        f2 = (j[keep] / n_grid).ravel()
        for t in range(P.size):
            p_s1 = f1 * P[t]
            p_s2 = f2 * P[t]
            p_r = np.maximum(P[t] - p_s1 - p_s2, 0.0)
            relayed = np.minimum(
                g.g_sr[t] * p_s1,
                g.g_su_k[t] * p_s1
                + (np.sqrt(g.g_su_l[t] * p_s2)
                   + np.sqrt(g.g_ru_l[t] * p_r)) ** 2)
            assert relayed.max() <= closed[t] * (1 + 1e-9) + 1e-12

    def test_grid_search_relay_only(self):
        g, P = self.random_batch(12)
        links = relay_only(g)
        closed = effective_gain(links) * P
        s = optimal_split(links, P)
        achieved = np.minimum(g.g_sr * s.p_s1,
                              g.g_su_k * s.p_s1 + g.g_ru_l * s.p_r)
        assert achieved == pytest.approx(closed, rel=1e-9, abs=1e-12)

        f = np.linspace(0.0, 1.0, 20001)
        for t in range(P.size):
            p_s1 = f * P[t]
            p_r = np.maximum(P[t] - p_s1, 0.0)
            relayed = np.minimum(g.g_sr[t] * p_s1,
                                 g.g_su_k[t] * p_s1 + g.g_ru_l[t] * p_r)
            assert relayed.max() <= closed[t] * (1 + 1e-9) + 1e-12
