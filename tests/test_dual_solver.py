import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from ofdma_relay import dual_solver
from ofdma_relay.channel import GainTable, build_gain_table
from ofdma_relay.config import SystemConfig
from ofdma_relay.harness import _draw_weights, _scenario
from ofdma_relay.dual_solver import (LOG2E, InfeasibleAllocationError,
                                     PairGainTable, Protocol, SolveMode,
                                     _lambda_array, _refill,
                                     build_pair_gain_table, evaluate_wsr,
                                     lrp_metrics, mu_upper_bound, solve,
                                     solve_lrp)
from ofdma_relay.oracle import _water_fill, enumerate_configurations


def random_gains(seed: int, K: int, U: int, d_km: float = 0.5,
                 db: float = 20.0) -> tuple[SystemConfig, GainTable]:
    rng = np.random.default_rng(seed)
    weights = tuple(float(x) for x in rng.uniform(0.8, 1.2, size=U))
    cfg = SystemConfig(K=K, U=U, d_km=d_km, ptot_over_sigma2_db=db,
                       weights=weights, seed=seed, taps=min(6, K))
    _, gains = build_gain_table(cfg, rng)
    return cfg, gains


def channel_score(w: float, g: float, mu: float) -> float:
    """max over x >= 0 of w*R(g*x) - mu*x, by bounded 1-D maximization."""
    if g <= 0:
        return 0.0
    hi = max(w * LOG2E / (2.0 * mu), 1.0) * 2.0
    res = minimize_scalar(lambda x: -(w * 0.5 * math.log2(1.0 + g * x)
                                      - mu * x),
                          bounds=(0.0, hi), method="bounded",
                          options={"xatol": 1e-12})
    return max(-res.fun, 0.0)


class TestWaterFilling:
    def test_lambda_power_value(self):
        lam = _lambda_array(np.array([1.0, 2.0]), LOG2E / 2.0,
                            np.array([2.0, 4.0]))
        assert lam == pytest.approx([0.5, 1.75])

    def test_lambda_power_clips_at_zero(self):
        assert _lambda_array(1.0, 100.0, np.array([0.1])) == 0.0
        assert _lambda_array(1.0, 1.0, np.array([0.0])) == 0.0

    def test_mu_upper_bound_value(self):
        assert mu_upper_bound(8, 1.2, 10.0) == pytest.approx(
            8 * 1.2 * LOG2E / 10.0)

    def test_mu_upper_bound_exhausts_budget(self):
        # At the bracket end every water-filling level is below p_tot / K.
        cfg, gains = random_gains(0, K=8, U=3)
        mu = mu_upper_bound(cfg.K, cfg.w_max, cfg.p_tot)
        table = build_pair_gain_table(gains, Protocol.PROPOSED)
        out = solve_lrp(table, cfg.weights, mu, cfg.p_tot)
        assert out.subgrad >= 0.0


class TestPairGainTable:
    def test_proposed_dominates_relay_only_entrywise(self):
        for seed in range(10):
            _, gains = random_gains(seed, K=6, U=2)
            t_p = build_pair_gain_table(gains, Protocol.PROPOSED)
            t_b = build_pair_gain_table(gains, Protocol.BENCHMARK1)
            assert np.all(t_p.g_eff >= t_b.g_eff - 1e-15)

    def test_direct_gains_are_first_slot_gains(self):
        _, gains = random_gains(1, K=4, U=2)
        table = build_pair_gain_table(gains, Protocol.PROPOSED)
        np.testing.assert_array_equal(table.direct, gains.g_su)

    def test_matches_scalar_closed_form(self):
        # G_eff = max over the first-slot power share a in [0, 1] of
        # min(g_sr*a, g_su_k*a + b*(1 - a)), with second-hop gain b. The
        # minimum of two lines is concave, so its maximum sits at a = 0,
        # a = 1 or where the lines cross, a = b / (g_sr - g_su_k + b).
        def derived(g_sr, g_su_k, b):
            def value(a):
                return min(g_sr * a, g_su_k * a + b * (1.0 - a))
            shares = [0.0, 1.0]
            if g_sr - g_su_k + b > 0:
                cross = b / (g_sr - g_su_k + b)
                if 0.0 <= cross <= 1.0:
                    shares.append(cross)
            return max(value(a) for a in shares)

        _, gains = random_gains(2, K=4, U=2)
        for protocol in Protocol:
            table = build_pair_gain_table(gains, protocol)
            for k in range(4):
                for j, l in enumerate(table.cols[k]):
                    for u in range(2):
                        b = gains.g_ru[l, u]
                        if protocol is Protocol.PROPOSED:
                            b += gains.g_su[l, u]
                        assert table.g_eff[k, j, u] == pytest.approx(
                            derived(gains.g_sr[k], gains.g_su[k, u], b),
                            rel=1e-12)

    def test_bp2_table_is_bp1_diagonal(self):
        # The identity pairing leaves one candidate per row, l = k.
        _, gains = random_gains(3, K=6, U=3)
        t_1 = build_pair_gain_table(gains, Protocol.BENCHMARK1)
        t_2 = build_pair_gain_table(gains, Protocol.BENCHMARK2)
        ks = np.arange(6)
        np.testing.assert_array_equal(t_1.cols, np.broadcast_to(ks, (6, 6)))
        np.testing.assert_array_equal(t_2.cols, ks[:, None])
        assert t_2.g_eff.shape == (6, 1, 3)
        np.testing.assert_array_equal(t_2.g_eff[:, 0, :],
                                      t_1.g_eff[ks, ks, :])


class TestLrpMetrics:
    def test_single_candidate_scores(self):
        # One subcarrier pair, one user: relay-aided score beats two direct
        # transmissions when the effective gain is 2.5 vs direct gain 1.
        mu = 0.2
        table = PairGainTable(cols=np.zeros((1, 1), dtype=int),
                              g_eff=np.full((1, 1, 1), 2.5),
                              direct=np.ones((1, 1)))
        m = lrp_metrics(table, np.array([1.0]), mu)
        lam = LOG2E / (2 * mu) - 1 / 2.5
        out = solve_lrp(table, np.array([1.0]), mu, 1.0)
        assert out.relay_mask[0] and out.power[0, 0] == pytest.approx(lam)
        a = 0.5 * math.log2(1 + 2.5 * lam) - mu * lam
        assert m.a_pair[0, 0, 0] == pytest.approx(a)
        assert m.a_pair[0, 0, 0] == pytest.approx(
            channel_score(1.0, 2.5, mu), abs=1e-9)
        b = 2 * channel_score(1.0, 1.0, mu)
        assert 2 * m.d_term[0, 0] == pytest.approx(b, abs=1e-9)
        assert m.c[0, 0] == pytest.approx(m.a_pair[0, 0, 0])
        assert m.a_pair[0, 0, 0] > b

    def test_scores_match_numeric_maximization(self):
        cfg, gains = random_gains(3, K=3, U=2)
        table = build_pair_gain_table(gains, Protocol.PROPOSED)
        w = np.asarray(cfg.weights)
        for mu in (0.05, 0.5, 5.0):
            m = lrp_metrics(table, w, mu)
            for k in range(3):
                for u in range(2):
                    assert m.d_term[k, u] == pytest.approx(
                        channel_score(w[u], gains.g_su[k, u], mu), abs=1e-8)
                for l in range(3):
                    for u in range(2):
                        assert m.a_pair[k, l, u] == pytest.approx(
                            channel_score(w[u], table.g_eff[k, l, u], mu),
                            abs=1e-8)

    def test_direct_score_separates_over_users(self):
        # max over (a, b) of d1[k, a] + d2[l, b] without forming the tensor.
        cfg, gains = random_gains(4, K=4, U=2)
        table = build_pair_gain_table(gains, Protocol.PROPOSED)
        m = lrp_metrics(table, np.asarray(cfg.weights), 0.3)
        K, U = 4, 2
        for k in range(K):
            for l in range(K):
                full = max(m.d_term[k, a] + m.d_term[l, b]
                           for a in range(U) for b in range(U))
                sep = m.d_term[k].max() + m.d_term[l].max()
                assert sep == pytest.approx(full, rel=1e-14)
                assert m.c[k, l] == pytest.approx(
                    max(m.a_pair[k, l].max(), sep), rel=1e-14)

    def test_nonpositive_mu_rejected(self):
        _, gains = random_gains(5, K=2, U=1)
        table = build_pair_gain_table(gains, Protocol.PROPOSED)
        with pytest.raises(ValueError):
            lrp_metrics(table, np.array([1.0]), 0.0)


class TestSolveLrp:
    def test_subgradient_signs_at_extremes(self):
        cfg, gains = random_gains(6, K=4, U=2)
        table = build_pair_gain_table(gains, Protocol.PROPOSED)
        huge = solve_lrp(table, cfg.weights, 1e9, cfg.p_tot)
        assert huge.subgrad == pytest.approx(cfg.p_tot)
        tiny = solve_lrp(table, cfg.weights, 1e-9, cfg.p_tot)
        assert tiny.subgrad < 0

    def test_subgradient_monotone_in_mu(self):
        cfg, gains = random_gains(7, K=8, U=3)
        table = build_pair_gain_table(gains, Protocol.PROPOSED)
        mus = np.sort(np.random.default_rng(7).uniform(1e-3, 2.0, size=25))
        subs = [solve_lrp(table, cfg.weights, float(mu), cfg.p_tot).subgrad
                for mu in mus]
        assert all(b >= a - 1e-9 * cfg.p_tot for a, b in zip(subs, subs[1:]))

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_lagrangian_matches_exhaustive_enumeration(self, protocol):
        # L(mu) from the matching-based inner solver equals a brute-force
        # maximum over every discrete configuration.
        cfg, gains = random_gains(8, K=2, U=1)
        table = build_pair_gain_table(gains, protocol)
        w = np.asarray(cfg.weights)
        pair_gain = {(k, l, u): table.g_eff[k, j, u]
                     for k in range(2) for j, l in enumerate(table.cols[k])
                     for u in range(1)}
        for mu in (0.02, 0.2, 2.0):
            best = -math.inf
            for config in enumerate_configurations(2, 1, protocol):
                val = 0.0
                for k, l, u in config.pairs:
                    val += channel_score(w[u], pair_gain[k, l, u], mu)
                for k, a in config.direct_1:
                    val += channel_score(w[a], gains.g_su[k, a], mu)
                for l, b in config.direct_2:
                    val += channel_score(w[b], gains.g_su[l, b], mu)
                best = max(best, val)
            out = solve_lrp(table, w, mu, cfg.p_tot)
            assert out.l_value == pytest.approx(mu * cfg.p_tot + best,
                                                abs=1e-7)

    def test_bp2_uses_identity_pairing(self):
        cfg, gains = random_gains(9, K=5, U=2)
        table = build_pair_gain_table(gains, Protocol.BENCHMARK2)
        out = solve_lrp(table, cfg.weights, 0.2, cfg.p_tot)
        np.testing.assert_array_equal(out.perm, np.arange(5))

    def test_bp2_makes_no_matching_call(self, monkeypatch):
        def forbidden(c):
            raise AssertionError(f"matching called on a {c.shape} matrix")
        monkeypatch.setattr(dual_solver, "solve_max_assignment", forbidden)
        cfg, gains = random_gains(10, K=16, U=3)
        _, report = solve(gains, cfg.weights, cfg.p_tot, Protocol.BENCHMARK2,
                          refill=True)
        assert report.wsr > 0

    def test_bp2_serves_one_user_on_both_direct_slots(self):
        for seed in range(10, 15):
            cfg, gains = random_gains(seed, K=8, U=3)
            alloc, _ = solve(gains, cfg.weights, cfg.p_tot,
                             Protocol.BENCHMARK2)
            assert alloc.directs_1 == alloc.directs_2


class TestSolve:
    def test_round_trip_wsr_identity(self):
        cfg, gains = random_gains(11, K=8, U=3)
        for protocol in Protocol:
            alloc, report = solve(gains, cfg.weights, cfg.p_tot, protocol)
            again = evaluate_wsr(alloc, gains, cfg.weights, protocol,
                                 cfg.p_tot)
            assert again == pytest.approx(report.wsr, rel=1e-12)

    def test_deterministic(self):
        cfg, gains = random_gains(12, K=8, U=3)
        a1, r1 = solve(gains, cfg.weights, cfg.p_tot, Protocol.PROPOSED)
        a2, r2 = solve(gains, cfg.weights, cfg.p_tot, Protocol.PROPOSED)
        assert r1.wsr == r2.wsr and r1.mu_final == r2.mu_final
        assert r1.iterations == r2.iterations
        assert a1.pairs == a2.pairs
        assert a1.directs_1 == a2.directs_1

    def test_feasible_and_certified(self):
        for seed in range(8):
            cfg, gains = random_gains(seed + 20, K=8, U=2)
            for protocol in Protocol:
                alloc, report = solve(gains, cfg.weights, cfg.p_tot, protocol)
                assert alloc.total_power() <= cfg.p_tot * (1 + 1e-9)
                assert report.delta >= 0.0
                table = build_pair_gain_table(gains, protocol)
                dual = solve_lrp(table, cfg.weights, report.mu_final,
                                 cfg.p_tot).l_value
                assert report.wsr * (1 + report.delta) >= dual * (1 - 1e-12)

    def test_exact_stationary_delta_covers_slack(self):
        # Drawn as `solve --k 8 --users 3 --snr-db 10 --seed 253` draws it:
        # the exit is exact-stationary, yet L(mu_final) exceeds wsr by about
        # 1.8e-9, far above round-off, so delta = 0 would not be a bound.
        rng = np.random.default_rng(253)
        cfg = _scenario(rng, 253, 8, 3, 0.5, 10.0)
        _, gains = build_gain_table(cfg, rng)
        _, report = solve(gains, cfg.weights, cfg.p_tot, Protocol.PROPOSED)
        table = build_pair_gain_table(gains, Protocol.PROPOSED)
        dual = solve_lrp(table, cfg.weights, report.mu_final,
                         cfg.p_tot).l_value
        assert report.mode is SolveMode.EXACT_STATIONARY
        assert dual - report.wsr > 1e-10 * report.wsr
        assert report.delta == pytest.approx((dual - report.wsr) / report.wsr,
                                             rel=1e-6)

    def test_weak_duality(self):
        # Any feasible value is below the dual function at every multiplier.
        cfg, gains = random_gains(13, K=6, U=2)
        table = build_pair_gain_table(gains, Protocol.PROPOSED)
        _, report = solve(gains, cfg.weights, cfg.p_tot, Protocol.PROPOSED)
        for mu in np.geomspace(1e-3, 10.0, 25):
            out = solve_lrp(table, cfg.weights, float(mu), cfg.p_tot)
            assert report.wsr <= out.l_value + 1e-9

    def test_gap_certificate_brackets_optimum(self):
        # wsr <= optimum <= L(mu_final) = wsr*(1+delta) on the eps branch.
        cfg, gains = random_gains(14, K=16, U=3)
        alloc, report = solve(gains, cfg.weights, cfg.p_tot,
                              Protocol.PROPOSED)
        if report.mode is SolveMode.APPROX_UPPER_BOUND:
            table = build_pair_gain_table(gains, Protocol.PROPOSED)
            out = solve_lrp(table, cfg.weights, report.mu_final, cfg.p_tot)
            assert out.l_value >= report.wsr
            assert (out.l_value - report.wsr) <= (
                report.delta * report.wsr + 1e-6)

    def test_single_user_single_subcarrier_analytic(self):
        # Dead relay link: both slots go direct and split the budget evenly.
        gains = GainTable(g_sr=np.array([0.0]),
                          g_su=np.array([[2.0]]),
                          g_ru=np.array([[5.0]]))
        p_tot = 10.0
        alloc, report = solve(gains, (1.0,), p_tot, Protocol.PROPOSED)
        expect = 2 * 0.5 * math.log2(1 + 2.0 * p_tot / 2)
        assert report.n_sp == 0
        assert report.wsr == pytest.approx(expect, rel=1e-6)

    def test_proposed_at_least_relay_only(self):
        for seed in range(10):
            cfg, gains = random_gains(seed + 40, K=8, U=2, d_km=0.3)
            _, rp = solve(gains, cfg.weights, cfg.p_tot, Protocol.PROPOSED)
            _, rb = solve(gains, cfg.weights, cfg.p_tot, Protocol.BENCHMARK1)
            slack = (rp.delta + rb.delta) * max(rp.wsr, rb.wsr)
            assert rp.wsr >= rb.wsr - slack - 1e-9

    def test_refill_spends_budget_without_losing_rate(self):
        for seed in range(5):
            cfg, gains = random_gains(seed + 60, K=8, U=2)
            _, plain = solve(gains, cfg.weights, cfg.p_tot, Protocol.PROPOSED)
            alloc, filled = solve(gains, cfg.weights, cfg.p_tot,
                                  Protocol.PROPOSED, refill=True)
            assert filled.wsr >= plain.wsr - 1e-9
            assert alloc.total_power() == pytest.approx(cfg.p_tot, rel=1e-6)

    def test_pairs_carry_power(self):
        # K=64 at 0 dB, drawn as run_single draws seed 1: many rows score 0
        # both ways, and such ties must not come back as empty pairs.
        rng = np.random.default_rng(1)
        cfg = SystemConfig(K=64, U=5, d_km=0.5, ptot_over_sigma2_db=0.0,
                           weights=_draw_weights(rng, 5), seed=1, taps=6)
        _, gains = build_gain_table(cfg, rng)
        for protocol in Protocol:
            alloc, report = solve(gains, cfg.weights, cfg.p_tot, protocol)
            assert report.n_sp == len(alloc.pairs) > 0
            assert all(p.total > 0 for p in alloc.pairs)

    def test_refill_matches_oracle_water_fill(self):
        # Subcarriers 0 and 1 have no source link, so the channel list holds
        # dead (g = 0) direct channels.
        for seed in range(5):
            cfg, gains = random_gains(seed + 70, K=6, U=2)
            dead = np.arange(6) < 2
            gains = GainTable(g_sr=np.where(dead, 0.0, gains.g_sr),
                              g_su=np.where(dead[:, None], 0.0, gains.g_su),
                              g_ru=gains.g_ru)
            table = build_pair_gain_table(gains, Protocol.PROPOSED)
            w = np.asarray(cfg.weights)
            mu = mu_upper_bound(6, float(w.max()), cfg.p_tot)
            out = _refill(solve_lrp(table, w, mu, cfg.p_tot), w, cfg.p_tot)
            ws, gs, xs = [], [], []
            for k in range(6):
                l, u = out.perm[k], out.user[0, k]
                if out.relay_mask[k]:
                    ws.append(w[u])
                    gs.append(table.g_eff[k, l, u])
                    xs.append(out.power[0, k])
                    assert out.power[1, k] == 0.0
                    continue
                for slot, sc in enumerate((k, l)):
                    u = out.user[slot, k]
                    ws.append(w[u])
                    gs.append(gains.g_su[sc, u])
                    xs.append(out.power[slot, k])
            assert 0.0 in gs
            assert xs == pytest.approx(_water_fill(ws, gs, cfg.p_tot),
                                       rel=1e-9, abs=1e-12 * cfg.p_tot)

    def test_upper_bracket_outcome_is_reused(self, monkeypatch):
        # The outcome at mu_hi was computed by the step that set mu_hi, so
        # an approx-upper-bound exit evaluates the LRP once per iteration.
        cfg, gains = random_gains(3, K=32, U=5)
        calls = []
        real = dual_solver.solve_lrp
        monkeypatch.setattr(dual_solver, "solve_lrp",
                            lambda *a: calls.append(a[2]) or real(*a))
        _, report = solve(gains, cfg.weights, cfg.p_tot, Protocol.PROPOSED)
        assert report.mode is SolveMode.APPROX_UPPER_BOUND
        assert len(calls) == report.iterations
        assert report.mu_final in calls

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_relabelling_invariance(self, protocol):
        # One subcarrier permutation on every link keeps the feasible set
        # (bp2's identity pairing included), and so does a user permutation
        # applied to the gains and the weights together.
        rng = np.random.default_rng(17)
        for K in (8, 16, 32):
            for db in (0.0, 20.0, 45.0):
                cfg, gains = random_gains(K + int(db), K=K, U=5, db=db)
                sc, us = rng.permutation(K), rng.permutation(5)
                moved = GainTable(g_sr=gains.g_sr[sc],
                                  g_su=gains.g_su[sc][:, us],
                                  g_ru=gains.g_ru[sc][:, us])
                w = np.asarray(cfg.weights)
                _, r = solve(gains, w, cfg.p_tot, protocol)
                _, r_moved = solve(moved, w[us], cfg.p_tot, protocol)
                assert r_moved.wsr == pytest.approx(r.wsr, rel=1e-12)

    def test_input_validation(self):
        cfg, gains = random_gains(15, K=4, U=2)
        with pytest.raises(ValueError):
            solve(gains, cfg.weights, 0.0, Protocol.PROPOSED)
        with pytest.raises(ValueError):
            solve(gains, (1.0,), cfg.p_tot, Protocol.PROPOSED)
        for name, value in (("g_su", -1e-3), ("g_ru", np.nan),
                            ("g_sr", np.inf)):
            bad = getattr(gains, name).copy()
            bad[0] = value
            with pytest.raises(ValueError, match="finite and nonnegative"):
                solve(dataclasses.replace(gains, **{name: bad}), cfg.weights,
                      cfg.p_tot, Protocol.PROPOSED)

    def test_huge_distance_is_a_dead_relay(self):
        # The relay-user distance overflows to inf, which is zero gain.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg, gains = random_gains(17, K=8, U=3, d_km=1e300)
            assert not gains.g_sr.any() and not gains.g_ru.any()
            for protocol in Protocol:
                _, report = solve(gains, cfg.weights, cfg.p_tot, protocol)
                assert report.n_sp == 0 and report.wsr > 0


class TestEvaluateWsr:
    @pytest.fixture
    def solved(self):
        cfg, gains = random_gains(16, K=6, U=2, d_km=0.3)
        alloc, _ = solve(gains, cfg.weights, cfg.p_tot, Protocol.PROPOSED)
        assert alloc.pairs and alloc.directs_1  # mixed allocation expected
        return cfg, gains, alloc

    def test_missing_first_slot_subcarrier(self, solved):
        cfg, gains, alloc = solved
        import copy
        bad = copy.deepcopy(alloc)
        bad.directs_1 = bad.directs_1[1:]
        with pytest.raises(InfeasibleAllocationError) as err:
            evaluate_wsr(bad, gains, cfg.weights, Protocol.PROPOSED,
                         cfg.p_tot)
        assert err.value.constraint == "ofdma-slot1"

    def test_duplicate_second_slot_subcarrier(self, solved):
        cfg, gains, alloc = solved
        import copy
        import dataclasses
        bad = copy.deepcopy(alloc)
        dup = bad.directs_2[0]
        bad.directs_2[-1] = dataclasses.replace(
            bad.directs_2[-1], subcarrier=dup.subcarrier)
        with pytest.raises(InfeasibleAllocationError) as err:
            evaluate_wsr(bad, gains, cfg.weights, Protocol.PROPOSED,
                         cfg.p_tot)
        assert err.value.constraint == "ofdma-slot2"

    def test_negative_power(self, solved):
        cfg, gains, alloc = solved
        import copy
        import dataclasses
        bad = copy.deepcopy(alloc)
        bad.directs_1[0] = dataclasses.replace(bad.directs_1[0], power=-1e-6)
        with pytest.raises(InfeasibleAllocationError) as err:
            evaluate_wsr(bad, gains, cfg.weights, Protocol.PROPOSED,
                         cfg.p_tot)
        assert err.value.constraint == "power-nonnegative"

    def test_over_budget(self, solved):
        cfg, gains, alloc = solved
        import copy
        import dataclasses
        bad = copy.deepcopy(alloc)
        bad.directs_1[0] = dataclasses.replace(
            bad.directs_1[0], power=bad.directs_1[0].power + cfg.p_tot)
        with pytest.raises(InfeasibleAllocationError) as err:
            evaluate_wsr(bad, gains, cfg.weights, Protocol.PROPOSED,
                         cfg.p_tot)
        assert err.value.constraint == "power-budget"

    def test_suboptimal_pair_split(self, solved):
        cfg, gains, alloc = solved
        import copy
        import dataclasses
        bad = copy.deepcopy(alloc)
        p = bad.pairs[0]
        shift = 0.5 * p.p_s1
        bad.pairs[0] = dataclasses.replace(p, p_s1=p.p_s1 - shift,
                                           p_s2=p.p_s2 + shift)
        with pytest.raises(InfeasibleAllocationError) as err:
            evaluate_wsr(bad, gains, cfg.weights, Protocol.PROPOSED,
                         cfg.p_tot)
        assert err.value.constraint == "pair-split"
