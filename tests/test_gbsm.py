import math

import numpy as np
import pytest

from isacsim import (
    OMNI,
    AntennaModel,
    ClusterSet,
    GenerationProfile,
    cross_polarization_matrix,
    merge_paths,
    ray_coefficients,
    sample_clusters,
    synthesize_cir,
    with_los_ray,
)
from isacsim.gbsm import ELEVATION_SPREAD_RAD


def single_ray_set(power=1.0, delay=10e-9, xpr=1e12, phases=(0, 0, 0, 0),
                   az_aod=0.0, az_aoa=0.0):
    return ClusterSet(power=power, delay=delay, aod=(az_aod, 0.0), aoa=(az_aoa, 0.0),
                      xpr=xpr, phases=phases)


class TestClusterSet:
    def test_scalars_broadcast_to_every_row(self):
        cs = ClusterSet(power=[0.25, 0.75], delay=1e-9, aod=(0.5, 0.1), aoa=[[1.0, 0.0], [2.0, -0.2]])
        assert len(cs) == 2
        np.testing.assert_array_equal(cs.delay, [1e-9, 1e-9])
        np.testing.assert_array_equal(cs.aod, [[0.5, 0.1], [0.5, 0.1]])
        np.testing.assert_array_equal(cs.phases, np.zeros((2, 4)))
        np.testing.assert_array_equal(cs.xpr, [1e12, 1e12])
        np.testing.assert_array_equal(cs.bounce_order, [1, 1])
        assert cs.all_rays() is cs

    def test_one_ray_of_scalars(self):
        cs = ClusterSet(power=1.0, delay=2e-9, aod=(0.0, 0.0), aoa=(1.0, 0.0))
        assert len(cs) == 1 and cs.aoa.shape == (1, 2) and cs.phases.shape == (1, 4)

    def test_azimuths_wrap_as_boresight_pairs(self):
        az = [-1e-17, -0.5, 7.0, 2 * math.pi]
        cs = ClusterSet(power=1.0, delay=0.0, aod=[[a, 0.0] for a in az], aoa=(0.0, 0.0))
        assert cs.aod[:, 0].tolist() == [AntennaModel(boresight=(a, 0.0)).boresight[0]
                                         for a in az]
        assert cs.aod[:, 0].tolist() == [0.0, -0.5 % (2 * math.pi), 7.0 % (2 * math.pi), 0.0]

    def test_columns_are_read_only(self):
        phases = np.zeros((2, 4))
        cs = ClusterSet(power=[0.5, 0.5], delay=0.0, aod=(0, 0), aoa=(0, 0), phases=phases)
        with pytest.raises(ValueError):
            cs.power[0] = 2.0
        phases[0, 0] = 1.0  # the table holds its own copy
        assert cs.phases[0, 0] == 0.0

    def test_empty_table_is_error(self):
        with pytest.raises(ValueError, match="cluster set is empty"):
            ClusterSet(power=[], delay=[], aod=np.zeros((0, 2)), aoa=np.zeros((0, 2)))

    @pytest.mark.parametrize("column, value, message", [
        ("power", -0.1, "ray power must be finite and >= 0"),
        ("power", math.nan, "ray power must be finite and >= 0"),
        ("xpr", 0.0, "XPR must be finite and > 0"),
        ("delay", -1e-9, "ray delay must be finite and >= 0"),
        ("aoa", (0.0, 1.6), "elevation outside"),
        ("aod", (math.inf, 0.0), "angles must be finite"),
    ])
    def test_bad_column_rejected(self, column, value, message):
        kwargs = dict(power=[0.5, 0.5], delay=[1e-9, 2e-9], aod=(0, 0), aoa=(0, 0))
        kwargs[column] = value
        with pytest.raises(ValueError, match=message):
            ClusterSet(**kwargs)

    def test_rows_of_different_lengths_rejected(self):
        with pytest.raises(ValueError):
            ClusterSet(power=[0.5, 0.5], delay=[1e-9, 2e-9, 3e-9], aod=(0, 0), aoa=(0, 0))


class TestCrossPolarizationMatrix:
    def test_pure_copolar_limit(self):
        m = cross_polarization_matrix(1e12, (0.3, 1.0, 2.0, -0.3))
        assert abs(m[0, 1]) < 1e-5
        assert abs(m[1, 0]) < 1e-5
        assert abs(abs(m[0, 0]) - 1.0) < 1e-12
        assert abs(abs(m[1, 1]) - 1.0) < 1e-12

    def test_unit_xpr_zero_phases(self):
        m = cross_polarization_matrix(1.0, (0, 0, 0, 0))
        np.testing.assert_allclose(m, np.ones((2, 2)), atol=1e-15)

    def test_hand_evaluated_entries(self):
        m = cross_polarization_matrix(4.0, (0.0, math.pi / 2, math.pi, 0.0))
        np.testing.assert_allclose(m[0, 0], 1.0, atol=1e-15)
        np.testing.assert_allclose(m[0, 1], 0.5j, atol=1e-15)
        np.testing.assert_allclose(m[1, 0], -0.5, atol=1e-15)
        np.testing.assert_allclose(m[1, 1], 1.0, atol=1e-15)

    def test_offdiagonal_modulus(self):
        m = cross_polarization_matrix(7.3, (0.1, 0.2, 0.3, 0.4))
        assert abs(m[0, 1]) == pytest.approx(1.0 / math.sqrt(7.3))
        assert abs(m[1, 0]) == pytest.approx(1.0 / math.sqrt(7.3))

    def test_nonpositive_xpr_rejected(self):
        with pytest.raises(ValueError):
            cross_polarization_matrix(0.0, (0, 0, 0, 0))

    def test_broadcasts_over_rays(self):
        rng = np.random.default_rng(8)
        xpr = rng.uniform(0.5, 20.0, (3, 5))
        phases = rng.uniform(-math.pi, math.pi, (3, 5, 4))
        m = cross_polarization_matrix(xpr, phases)
        assert m.shape == (3, 5, 2, 2)
        for idx in np.ndindex(3, 5):
            np.testing.assert_array_equal(m[idx], cross_polarization_matrix(
                float(xpr[idx]), tuple(phases[idx].tolist())))


class TestRayCoefficient:
    def test_identity_configuration(self):
        c = ray_coefficients(single_ray_set(), OMNI)[0]
        assert c == pytest.approx(1.0 + 0.0j)

    def test_magnitude_matches_matrix_product(self):
        rng = np.random.default_rng(21)
        n = 50
        power = rng.uniform(0.01, 2.0, n)
        xpr = rng.uniform(0.2, 50.0, n)
        phases = rng.uniform(-math.pi, math.pi, (n, 4))
        rays = ClusterSet(power=power, delay=1e-9,
                          aod=np.stack([rng.uniform(0, 6.28, n), np.full(n, 0.1)], axis=1),
                          aoa=np.stack([rng.uniform(0, 6.28, n), np.full(n, -0.1)], axis=1),
                          xpr=xpr, phases=phases)
        f_rx = np.array([1.0, 0.0])  # the omni receive field
        horn = AntennaModel(kind="horn", hpbw_deg=60.0, peak_gain_db=12.0, boresight=(2.0, 0.1))
        for tx in (OMNI, horn):
            c = ray_coefficients(rays, tx)
            for i in range(n):
                f_tx = np.array([tx.field_gain([tx.boresight], [rays.aod[i]])[0, 0], 0.0])
                expected = math.sqrt(power[i]) * abs(
                    f_rx @ cross_polarization_matrix(xpr[i], phases[i]) @ f_tx)
                assert abs(c[i]) == pytest.approx(expected, rel=1e-12)


def gain_toward(antenna, az, el=0.0):
    return float(antenna.field_gain([antenna.boresight], [[az, el]])[0, 0]) ** 2


class TestAntennaModel:
    def test_omni_everywhere(self):
        angles = np.stack([np.linspace(0, 2 * math.pi, 17), np.full(17, 0.3)], axis=1)
        assert np.all(OMNI.field_gain([OMNI.boresight, (1.0, -0.4)], angles) == 1.0)

    def test_horn_boresight_gain(self):
        horn = AntennaModel(kind="horn", hpbw_deg=10.31, peak_gain_db=25.0,
                            boresight=(0.0, 0.0))
        assert gain_toward(horn, 0.0) == pytest.approx(10 ** 2.5)

    def test_boresight_checked_and_wrapped(self):
        assert AntennaModel(boresight=(2 * math.pi + 0.25, -0.1)).boresight == pytest.approx(
            (0.25, -0.1), abs=1e-12)
        with pytest.raises(ValueError, match="elevation outside"):
            AntennaModel(boresight=(0.0, 1.6))
        with pytest.raises(ValueError, match="finite"):
            AntennaModel(boresight=(math.inf, 0.0))

    def test_horn_half_power_at_half_beamwidth(self):
        horn = AntennaModel(kind="horn", hpbw_deg=10.0, peak_gain_db=20.0)
        g0 = gain_toward(horn, 0.0)
        g3 = gain_toward(horn, math.radians(5.0))
        assert g3 / g0 == pytest.approx(0.5, rel=1e-9)


class TestSampleClusters:
    def test_seed_determinism(self):
        prof = GenerationProfile(n_clusters=6, rays_per_cluster=4)
        a, b = sample_clusters(prof, 7), sample_clusters(prof, 7)
        for name in ("power", "delay", "aod", "aoa", "xpr", "phases", "bounce_order"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_rays_grouped_by_cluster(self):
        # the rays of a cluster are adjacent rows sharing its delay and power
        cs = sample_clusters(GenerationProfile(n_clusters=6, rays_per_cluster=4), 7)
        assert len(cs) == 24
        for col in (cs.delay, cs.power):
            rows = col.reshape(6, 4)
            np.testing.assert_array_equal(rows, rows[:, :1].repeat(4, axis=1))
        assert len(np.unique(cs.delay)) == 6

    def test_zero_clusters_is_error(self):
        with pytest.raises(ValueError, match="zero clusters"):
            sample_clusters(GenerationProfile(n_clusters=0), 1)

    def test_normalization_single_ray(self):
        cs = sample_clusters(GenerationProfile(n_clusters=1, rays_per_cluster=1), 5)
        assert len(cs) == 1
        assert cs.power[0] == pytest.approx(1.0)

    def test_power_sums_to_one(self):
        cs = sample_clusters(GenerationProfile(n_clusters=25, rays_per_cluster=3), 2)
        assert cs.power.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("prof", [
        GenerationProfile(n_clusters=5, rays_per_cluster=3),
        GenerationProfile(n_clusters=4, rays_per_cluster=2, delay_scale_s=0.0,
                          angle_spread_rad=0.0, xpr_std_db=0.0, shadow_std_db=0.0),
    ], ids=["spread", "zero-scales"])
    def test_replays_the_documented_draw_order(self, prof):
        # one generator call per column, in the order of the docstring
        n, m = prof.n_clusters, prof.rays_per_cluster
        rng = np.random.default_rng(3)
        clip = lambda el: np.clip(el, -math.pi / 2, math.pi / 2)
        tau = rng.exponential(prof.delay_scale_s, n)
        shadow_db = rng.normal(0.0, prof.shadow_std_db, n)
        az_c = [rng.uniform(0.0, 2 * math.pi, n) for _ in ("aoa", "aod")]
        el_c = [clip(rng.normal(0.0, ELEVATION_SPREAD_RAD, n)) for _ in ("aoa", "aod")]
        az = [np.repeat(c, m) + rng.normal(0.0, prof.angle_spread_rad, n * m) for c in az_c]
        el = [clip(np.repeat(c, m) + rng.normal(0.0, prof.angle_spread_rad / 2, n * m))
              for c in el_c]
        xpr_db = rng.normal(prof.xpr_mean_db, prof.xpr_std_db, n * m)
        phases = rng.uniform(-math.pi, math.pi, (n * m, 4))
        p = np.exp(-tau / (prof.delay_scale_s or 1.0)) * 10.0 ** (-shadow_db / 10.0)
        want = ClusterSet(power=np.repeat(p / p.sum() / m, m), delay=np.repeat(tau, m),
                          aoa=np.stack([az[0], el[0]], axis=1),
                          aod=np.stack([az[1], el[1]], axis=1),
                          xpr=10.0 ** (xpr_db / 10.0), phases=phases)
        got = sample_clusters(prof, 3)
        for name in ("power", "delay", "aod", "aoa", "xpr", "phases", "bounce_order"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), name)

    def test_generator_calls_do_not_grow_with_clusters(self, monkeypatch):
        calls, make_rng = [], np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng = make_rng(seed)

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self.rng, name)

        monkeypatch.setattr(np.random, "default_rng", Counting)
        counts = []
        for n in (1, 2, 50):
            calls.clear()
            sample_clusters(GenerationProfile(n_clusters=n, rays_per_cluster=3), 1)
            counts.append(len(calls))
        assert counts == [counts[0]] * 3

    def test_mean_delay_law_of_large_numbers(self):
        # exponential delays: the empirical mean over 1e5 clusters sits
        # within 3% of the 30 ns scale
        prof = GenerationProfile(n_clusters=100_000, rays_per_cluster=1,
                                 delay_scale_s=30e-9)
        cs = sample_clusters(prof, 42)
        assert cs.delay.mean() == pytest.approx(30e-9, rel=0.03)


class TestSynthesizeCir:
    def test_single_ray_single_path(self):
        cir = synthesize_cir(single_ray_set(delay=12e-9), OMNI)
        assert len(cir) == 1
        assert cir.delay[0] == 12e-9

    def test_destructive_interference_with_merge(self):
        cs = ClusterSet(power=0.5, delay=10e-9, aod=(0, 0), aoa=(0, 0),
                        phases=[[0.0] * 4, [math.pi] * 4])
        cir = merge_paths(synthesize_cir(cs, OMNI), 0.0, 0.0)
        assert len(cir) == 1
        assert abs(cir.amp[0]) < 1e-12

    def test_total_power_matches_bruteforce_sum(self):
        prof = GenerationProfile(n_clusters=9, rays_per_cluster=7)
        cs = sample_clusters(prof, 31)
        cir = synthesize_cir(cs, OMNI)
        assert not np.any(cir.doppler)  # the background is static
        f = np.array([1.0, 0.0])  # both omni fields, Tx and Rx
        brute = sum(p * abs(f @ cross_polarization_matrix(x, ph) @ f) ** 2
                    for p, x, ph in zip(cs.power, cs.xpr, cs.phases))
        assert cir.total_power() == pytest.approx(brute, rel=1e-12)
        # pre-path-loss normalization carries through for omni antennas
        assert cir.total_power() == pytest.approx(1.0, rel=1e-9)

    def test_paths_are_background(self):
        # a background path keeps its ray's angles and bounce order, and
        # the static environment gives it no Doppler
        cir = synthesize_cir(single_ray_set(az_aod=0.5, az_aoa=1.5), OMNI)
        assert (cir.aod_az.tolist(), cir.aoa_az.tolist(), cir.bounce_order.tolist(),
                cir.doppler.tolist()) == ([0.5], [1.5], [1], [0.0])


class TestWithLosRay:
    def test_power_split_and_normalization(self):
        cs = sample_clusters(GenerationProfile(n_clusters=4, rays_per_cluster=2), 9)
        los = ClusterSet(power=1.0, delay=5e-9, aod=(0, 0), aoa=(0, 0), bounce_order=0)
        k = 3.0
        out = with_los_ray(cs, los, k)
        assert len(out) == 9
        assert out.power[0] == pytest.approx(k / (1 + k))
        assert out.bounce_order[0] == 0 and out.delay[0] == 5e-9
        np.testing.assert_array_equal(out.delay[1:], cs.delay)
        np.testing.assert_allclose(out.power[1:], cs.power / (1 + k), rtol=1e-15)
        assert out.power.sum() == pytest.approx(1.0, abs=1e-9)

