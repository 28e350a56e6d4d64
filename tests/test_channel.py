import numpy as np
import pytest

from ofdma_relay import channel
from ofdma_relay.channel import (CENTER_KM, D_REF_KM, MIN_DISTANCE_KM,
                                 PATHLOSS_EXP, REGION_RADIUS_KM,
                                 build_gain_table, sample_geometry,
                                 sample_impulse_response,
                                 taps_to_subcarrier_gains)
from ofdma_relay.config import ConfigError, SystemConfig


def make_cfg(**kw):
    base = dict(K=8, U=2, d_km=0.5, ptot_over_sigma2_db=20.0,
                weights=(1.0, 1.1), seed=7)
    base.update(kw)
    return SystemConfig(**base)


class TestConfig:
    def test_p_tot_from_db(self):
        assert make_cfg(ptot_over_sigma2_db=20.0).p_tot == pytest.approx(100.0)

    @pytest.mark.parametrize("kw", [
        dict(K=0), dict(U=0, weights=()), dict(weights=(1.0, -1.0)),
        dict(weights=(1.0,)), dict(taps=9), dict(taps=0), dict(d_km=0.0),
        dict(d_km=float("nan")), dict(d_km=float("inf")),
        dict(weights=(1.0, float("nan"))), dict(weights=(1.0, float("inf"))),
        dict(ptot_over_sigma2_db=float("nan")),
        dict(ptot_over_sigma2_db=float("inf")),
        dict(ptot_over_sigma2_db=4000.0), dict(ptot_over_sigma2_db=-4000.0),
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ConfigError):
            make_cfg(**kw)


class TestGeometry:
    def test_degenerate_disk_puts_users_at_center(self, monkeypatch):
        monkeypatch.setattr(channel, "REGION_RADIUS_KM", 0.0)
        cfg = make_cfg()
        geo = sample_geometry(cfg, np.random.default_rng(0))
        assert geo.d_su == pytest.approx([CENTER_KM] * cfg.U)

    def test_relay_at_center_bounds_relay_user_distance(self):
        cfg = make_cfg(d_km=CENTER_KM)
        geo = sample_geometry(cfg, np.random.default_rng(1))
        assert np.all(geo.d_ru <= REGION_RADIUS_KM + 1e-12)

    def test_distances_match_coordinates(self):
        cfg = make_cfg()
        geo = sample_geometry(cfg, np.random.default_rng(2))
        d_su = np.linalg.norm(geo.user_pos, axis=1)
        d_ru = np.linalg.norm(geo.user_pos - geo.relay_pos, axis=1)
        np.testing.assert_allclose(geo.d_su, d_su, rtol=1e-12)
        np.testing.assert_allclose(geo.d_ru, d_ru, rtol=1e-12)

    def test_mean_distance_from_center_is_two_thirds_radius(self):
        # E[r] = 2R/3 under area-uniform disk sampling.
        n = 100_000
        cfg = make_cfg(U=n, weights=(1.0,) * n)
        geo = sample_geometry(cfg, np.random.default_rng(3))
        center = np.array([CENTER_KM, 0.0])
        r = np.linalg.norm(geo.user_pos - center, axis=1)
        assert r.mean() == pytest.approx(2 * 0.05 / 3, rel=0.01)


class TestImpulseResponse:
    def test_reference_distance_energy_is_one(self):
        cfg = make_cfg()
        rng = np.random.default_rng(4)
        taps = sample_impulse_response([1.0] * 50_000, cfg, rng)
        energies = np.sum(np.abs(taps) ** 2, axis=1)
        assert np.mean(energies) == pytest.approx(1.0, rel=0.02)

    def test_pathloss_scaling_at_half_km(self):
        cfg = make_cfg()
        rng = np.random.default_rng(5)
        taps = sample_impulse_response([0.5] * 100_000, cfg, rng)
        energies = np.sum(np.abs(taps) ** 2, axis=1)
        assert np.mean(energies) == pytest.approx(0.5 ** -2.5, rel=0.02)

    def test_near_field_clamp(self):
        cfg = make_cfg()
        taps_a = sample_impulse_response([0.0], cfg, np.random.default_rng(6))
        taps_b = sample_impulse_response([MIN_DISTANCE_KM], cfg,
                                         np.random.default_rng(6))
        np.testing.assert_array_equal(taps_a, taps_b)


class TestSubcarrierGains:
    def test_single_tap_is_flat(self):
        gains = taps_to_subcarrier_gains(np.array([2.0 - 1.0j]), 8)
        np.testing.assert_allclose(gains, 5.0)

    def test_two_tap_analytic(self):
        gains = taps_to_subcarrier_gains(np.array([1.0, 1.0]), 4)
        np.testing.assert_allclose(gains, [4.0, 2.0, 0.0, 2.0], atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(7)
        taps = rng.normal(size=6) + 1j * rng.normal(size=6)
        gains = taps_to_subcarrier_gains(taps, 64)
        assert gains.sum() / 64 == pytest.approx(
            np.sum(np.abs(taps) ** 2), rel=1e-10)

    def test_stack_matches_row_by_row(self):
        rng = np.random.default_rng(9)
        taps = rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6))
        rows = [taps_to_subcarrier_gains(row, 16) for row in taps]
        np.testing.assert_array_equal(taps_to_subcarrier_gains(taps, 16),
                                      np.stack(rows))

    def test_too_many_taps_rejected(self):
        for shape in [(8,), (3, 8)]:
            with pytest.raises(ValueError):
                taps_to_subcarrier_gains(np.ones(shape), 4)


def per_link_reference(cfg, rng):
    """The gain table drawn one link at a time, independently of the module:
    geometry, then for each link in the order sr, su[0..U-1], ru[0..U-1] two
    Box-Muller draws (real, imaginary) of ceil(L/2) pairs, a scalar pow for
    its variance and one FFT."""
    def normals(n):
        m = (n + 1) // 2
        u1 = rng.random(m)
        u2 = rng.random(m)
        r = np.sqrt(-2.0 * np.log1p(-u1))
        return np.concatenate([r * np.cos(2.0 * np.pi * u2),
                               r * np.sin(2.0 * np.pi * u2)])[:n]

    def link(d):
        d = max(d, MIN_DISTANCE_KM)
        var = (d / D_REF_KM) ** (-PATHLOSS_EXP) / cfg.taps
        re = normals(cfg.taps)
        im = normals(cfg.taps)
        taps = np.sqrt(var / 2.0) * (re + 1j * im)
        return np.abs(np.fft.fft(taps, n=cfg.K)) ** 2

    u1 = rng.random(cfg.U)
    u2 = rng.random(cfg.U)
    radius = REGION_RADIUS_KM * np.sqrt(u1)
    angle = 2.0 * np.pi * u2
    users = np.array([CENTER_KM, 0.0]) + np.stack(
        [radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    with np.errstate(over="ignore"):
        d_su = np.linalg.norm(users, axis=1)
        d_ru = np.linalg.norm(users - np.array([cfg.d_km, 0.0]), axis=1)
    return (link(cfg.d_km), np.stack([link(d) for d in d_su], axis=1),
            np.stack([link(d) for d in d_ru], axis=1))


class TestGainTable:
    def test_matches_per_link_reference(self):
        # Pins the random stream and every gain bit, not just determinism.
        grid = [(K, taps, U, d_km) for K in (1, 2, 5, 6, 7, 64)
                for taps in range(1, min(6, K) + 1) for U in (1, 3, 8)
                for d_km in (1e-9, 0.5, 1e300)]
        for seed, (K, taps, U, d_km) in enumerate(grid):
            cfg = make_cfg(K=K, U=U, d_km=d_km, taps=taps,
                           weights=(1.0,) * U, seed=seed)
            _, table = build_gain_table(cfg, np.random.default_rng(seed))
            ref = per_link_reference(cfg, np.random.default_rng(seed))
            for got, want in zip((table.g_sr, table.g_su, table.g_ru), ref):
                np.testing.assert_array_equal(got, want)

    def test_deterministic_for_fixed_seed(self):
        cfg = make_cfg()
        geo1, t1 = build_gain_table(cfg, np.random.default_rng(cfg.seed))
        geo2, t2 = build_gain_table(cfg, np.random.default_rng(cfg.seed))
        np.testing.assert_array_equal(geo1.user_pos, geo2.user_pos)
        np.testing.assert_array_equal(t1.g_sr, t2.g_sr)
        np.testing.assert_array_equal(t1.g_su, t2.g_su)
        np.testing.assert_array_equal(t1.g_ru, t2.g_ru)

    def test_shapes_and_nonnegativity(self):
        cfg = make_cfg()
        for seed in range(30):
            _, table = build_gain_table(cfg, np.random.default_rng(seed))
            assert table.g_sr.shape == (cfg.K,)
            assert table.g_su.shape == (cfg.K, cfg.U)
            assert table.g_ru.shape == (cfg.K, cfg.U)
            for arr in (table.g_sr, table.g_su, table.g_ru):
                assert np.all(np.isfinite(arr)) and np.all(arr >= 0)

    def test_source_relay_gain_matches_pathloss(self):
        # Mean of G_sr,k over many realizations is (d/d_ref)^(-2.5).
        cfg = make_cfg(K=4, U=1, weights=(1.0,), taps=4, d_km=0.4)
        rng = np.random.default_rng(8)
        samples = np.array([build_gain_table(cfg, rng)[1].g_sr[0]
                            for _ in range(10_000)])
        expect = 0.4 ** -2.5
        stderr = samples.std() / np.sqrt(samples.size)
        assert abs(samples.mean() - expect) < 3 * stderr
