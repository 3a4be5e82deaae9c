import math

import numpy as np
import pytest

from isacsim import (
    OMNI,
    Angle3D,
    AntennaModel,
    ClusterSet,
    EmptyChannelError,
    GenerationProfile,
    Origin,
    cross_polarization_matrix,
    doppler_shift,
    merge_paths,
    ray_coefficients,
    sample_clusters,
    synthesize_cir,
    with_los_ray,
)
from isacsim.core import ORIGINS


def single_ray_set(power=1.0, delay=10e-9, xpr=1e12, phases=(0, 0, 0, 0),
                   doppler=0.0, az_aod=0.0, az_aoa=0.0):
    return ClusterSet(power=power, delay=delay, aod=(az_aod, 0.0), aoa=(az_aoa, 0.0),
                      xpr=xpr, phases=phases, doppler=doppler)


class TestClusterSet:
    def test_scalars_broadcast_to_every_row(self):
        cs = ClusterSet(power=[0.25, 0.75], delay=1e-9, aod=(0.5, 0.1), aoa=[[1.0, 0.0], [2.0, -0.2]])
        assert len(cs) == 2 and cs.n_clusters == 1
        np.testing.assert_array_equal(cs.delay, [1e-9, 1e-9])
        np.testing.assert_array_equal(cs.aod, [[0.5, 0.1], [0.5, 0.1]])
        np.testing.assert_array_equal(cs.phases, np.zeros((2, 4)))
        np.testing.assert_array_equal(cs.xpr, [1e12, 1e12])
        np.testing.assert_array_equal(cs.bounce_order, [1, 1])
        assert cs.all_rays() is cs

    def test_one_ray_of_scalars(self):
        cs = ClusterSet(power=1.0, delay=2e-9, aod=(0.0, 0.0), aoa=(1.0, 0.0))
        assert len(cs) == 1 and cs.aoa.shape == (1, 2) and cs.phases.shape == (1, 4)

    def test_azimuths_wrap_as_angle3d(self):
        az = [-1e-17, -0.5, 7.0, 2 * math.pi]
        cs = ClusterSet(power=1.0, delay=0.0, aod=[[a, 0.0] for a in az], aoa=(0.0, 0.0))
        assert cs.aod[:, 0].tolist() == [Angle3D(a, 0.0).azimuth for a in az]
        assert cs.aod[0, 0] == 0.0

    def test_columns_are_read_only(self):
        phases = np.zeros((2, 4))
        cs = ClusterSet(power=[0.5, 0.5], delay=0.0, aod=(0, 0), aoa=(0, 0), phases=phases)
        with pytest.raises(ValueError):
            cs.power[0] = 2.0
        phases[0, 0] = 1.0  # the table holds its own copy
        assert cs.phases[0, 0] == 0.0

    def test_empty_table_is_error(self):
        with pytest.raises(EmptyChannelError):
            ClusterSet(power=[], delay=[], aod=np.zeros((0, 2)), aoa=np.zeros((0, 2)))

    @pytest.mark.parametrize("column, value, message", [
        ("power", -0.1, "ray power must be finite and >= 0"),
        ("power", math.nan, "ray power must be finite and >= 0"),
        ("xpr", 0.0, "XPR must be > 0"),
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
        c = ray_coefficients(single_ray_set(), OMNI, OMNI, t=0.0)[0]
        assert c == pytest.approx(1.0 + 0.0j)

    def test_half_doppler_period_flips_sign(self):
        for f in (10.0, 137.0, 4000.0):
            rays = single_ray_set(doppler=f)
            c0 = ray_coefficients(rays, OMNI, OMNI, t=0.0)[0]
            c1 = ray_coefficients(rays, OMNI, OMNI, t=0.5 / f)[0]
            assert c1 == pytest.approx(-c0, rel=1e-9)

    def test_magnitude_matches_matrix_product(self):
        rng = np.random.default_rng(21)
        n = 50
        power = rng.uniform(0.01, 2.0, n)
        xpr = rng.uniform(0.2, 50.0, n)
        phases = rng.uniform(-math.pi, math.pi, (n, 4))
        rays = ClusterSet(power=power, delay=1e-9,
                          aod=np.stack([rng.uniform(0, 6.28, n), np.full(n, 0.1)], axis=1),
                          aoa=np.stack([rng.uniform(0, 6.28, n), np.full(n, -0.1)], axis=1),
                          xpr=xpr, phases=phases, doppler=rng.uniform(-100, 100, n))
        c = ray_coefficients(rays, OMNI, OMNI, t=rng.uniform(0, 1e-3))
        f = np.array([1.0, 0.0])
        for i in range(n):
            expected = math.sqrt(power[i]) * abs(f @ cross_polarization_matrix(xpr[i], phases[i]) @ f)
            assert abs(c[i]) == pytest.approx(expected, rel=1e-12)

    def test_time_changes_phase_only(self):
        rays = ClusterSet(power=0.7, delay=1e-9, aod=(0.3, 0.0), aoa=(1.1, 0.2),
                          xpr=5.0, phases=(0.1, 0.2, 0.3, 0.4), doppler=55.0)
        horn = AntennaModel(kind="horn", hpbw_deg=30.0, peak_gain_db=10.0)
        coeffs = [ray_coefficients(rays, horn, OMNI, t=t)[0] for t in (0.0, 1e-4, 3e-3)]
        assert len({round(abs(c), 14) for c in coeffs}) == 1
        assert len({c for c in coeffs}) == 3


def gain_toward(antenna, az, el=0.0):
    return float(np.sum(np.abs(antenna.fields([[az, el]])[0]) ** 2))


class TestAntennaModel:
    def test_omni_everywhere(self):
        for az in np.linspace(0, 2 * math.pi, 17):
            f = OMNI.fields([[az, 0.3]])[0]
            assert f[0] == 1.0 and f[1] == 0.0

    def test_horn_boresight_gain(self):
        horn = AntennaModel(kind="horn", hpbw_deg=10.31, peak_gain_db=25.0,
                            boresight=Angle3D(0.0, 0.0))
        assert gain_toward(horn, 0.0) == pytest.approx(10 ** 2.5)

    def test_horn_half_power_at_half_beamwidth(self):
        horn = AntennaModel(kind="horn", hpbw_deg=10.0, peak_gain_db=20.0)
        g0 = gain_toward(horn, 0.0)
        g3 = gain_toward(horn, math.radians(5.0))
        assert g3 / g0 == pytest.approx(0.5, rel=1e-9)


class TestSampleClusters:
    def test_seed_determinism(self):
        prof = GenerationProfile(n_clusters=6, rays_per_cluster=4, seed=7)
        a, b = sample_clusters(prof), sample_clusters(prof)
        for name in ("power", "delay", "aod", "aoa", "xpr", "phases", "doppler",
                     "bounce_order", "cluster"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_rays_grouped_by_cluster(self):
        cs = sample_clusters(GenerationProfile(n_clusters=6, rays_per_cluster=4, seed=7))
        assert len(cs) == 24 and cs.n_clusters == 6
        assert cs.cluster.tolist() == [i for i in range(6) for _ in range(4)]

    def test_zero_clusters_is_error(self):
        with pytest.raises(EmptyChannelError):
            sample_clusters(GenerationProfile(n_clusters=0, seed=1))

    def test_normalization_single_ray(self):
        cs = sample_clusters(GenerationProfile(n_clusters=1, rays_per_cluster=1, seed=5))
        assert len(cs) == 1
        assert cs.power[0] == pytest.approx(1.0)

    def test_power_sums_to_one(self):
        cs = sample_clusters(GenerationProfile(n_clusters=25, rays_per_cluster=3, seed=2))
        assert cs.power.sum() == pytest.approx(1.0, abs=1e-9)

    def test_mean_delay_law_of_large_numbers(self):
        # exponential delays: the empirical mean over 1e5 clusters sits
        # within 3% of the 30 ns scale
        prof = GenerationProfile(n_clusters=100_000, rays_per_cluster=1,
                                 delay_scale_s=30e-9, seed=42)
        cs = sample_clusters(prof)
        assert cs.delay.mean() == pytest.approx(30e-9, rel=0.03)


class TestSynthesizeCir:
    def test_single_ray_single_path(self):
        cir = synthesize_cir(single_ray_set(delay=12e-9), OMNI, OMNI)
        assert len(cir) == 1
        assert cir.delay[0] == 12e-9

    def test_destructive_interference_with_merge(self):
        cs = ClusterSet(power=0.5, delay=10e-9, aod=(0, 0), aoa=(0, 0),
                        phases=[[0.0] * 4, [math.pi] * 4], cluster=[0, 1])
        cir = merge_paths(synthesize_cir(cs, OMNI, OMNI), 0.0, 0.0)
        assert len(cir) == 1
        assert abs(cir.amp[0]) < 1e-12

    def test_total_power_matches_bruteforce_sum(self):
        prof = GenerationProfile(n_clusters=9, rays_per_cluster=7, seed=31,
                                 doppler_max_hz=200.0)
        cs = sample_clusters(prof)
        cir = synthesize_cir(cs, OMNI, OMNI, t=1e-4)
        f = np.array([1.0, 0.0])
        brute = sum(p * abs(f @ cross_polarization_matrix(x, ph) @ f) ** 2
                    for p, x, ph in zip(cs.power, cs.xpr, cs.phases))
        assert cir.total_power() == pytest.approx(brute, rel=1e-12)
        # pre-path-loss normalization carries through for omni antennas
        assert cir.total_power() == pytest.approx(1.0, rel=1e-9)

    def test_origin_tagging(self):
        cir = synthesize_cir(single_ray_set(), OMNI, OMNI, origin=Origin.TARGET)
        assert ORIGINS[cir.origin_code[0]] is Origin.TARGET


class TestWithLosRay:
    def test_power_split_and_normalization(self):
        cs = sample_clusters(GenerationProfile(n_clusters=4, rays_per_cluster=2, seed=9))
        los = ClusterSet(power=1.0, delay=5e-9, aod=(0, 0), aoa=(0, 0), bounce_order=0)
        k = 3.0
        out = with_los_ray(cs, los, k)
        assert len(out) == 9 and out.n_clusters == 5
        assert out.power[0] == pytest.approx(k / (1 + k))
        assert out.bounce_order[0] == 0 and out.cluster[0] == 0
        np.testing.assert_array_equal(out.cluster[1:], cs.cluster + 1)
        assert out.power.sum() == pytest.approx(1.0, abs=1e-9)


class TestDopplerShift:
    def test_radial_motion(self):
        # scatterer receding along +x at 3 m/s seen from origin, 1 cm carrier
        f = doppler_shift([3.0, 0, 0], [0, 0, 0], Angle3D(0.0, 0.0), 0.01)
        assert f == pytest.approx(300.0)

    def test_transverse_motion_is_zero(self):
        f = doppler_shift([0, 5.0, 0], [0, 0, 0], Angle3D(0.0, 0.0), 0.01)
        assert f == pytest.approx(0.0, abs=1e-12)
