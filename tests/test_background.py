import math

import numpy as np
import pytest

from isacsim import (
    C_LIGHT,
    OMNI,
    GenerationProfile,
    GeometricScatterer,
    PCF_MEASUREMENTS,
    PcfModel,
    apply_pcf,
    background_bistatic,
    background_monostatic,
    default_pcf_model,
    pcf_values,
    sample_pcf,
    synthesize_cir,
    sample_clusters,
)
from isacsim.core import COLUMNS


class TestPcfDefaults:
    def test_measured_table_shape(self):
        assert len(PCF_MEASUREMENTS) == 14
        assert len(pcf_values("los_los")) == 10
        assert len(pcf_values("los_nlos")) == 4

    def test_los_los_mean(self):
        model = default_pcf_model("los_los")
        assert model.mean == pytest.approx(0.817, abs=1e-12)

    def test_los_nlos_mean(self):
        model = default_pcf_model("los_nlos")
        assert model.mean == pytest.approx(0.915, abs=1e-12)

    def test_sample_stds(self):
        # frozen from an independent ddof=1 evaluation of the table
        assert default_pcf_model("los_los").std == pytest.approx(0.0844656406146573, rel=1e-12)
        assert default_pcf_model("los_nlos").std == pytest.approx(0.02645751311064588, rel=1e-12)


class TestPcfModel:
    @pytest.mark.parametrize("std", [math.nan, -0.1, -math.inf])
    def test_std_must_be_a_number_at_least_zero(self, std):
        # a NaN std would construct, draw NaN and fail only in apply_pcf
        with pytest.raises(ValueError, match="std must be finite and >= 0"):
            PcfModel("los_los", 1.0, std)

    @pytest.mark.parametrize("mean", [math.nan, 0.0, 1.5000001])
    def test_mean_must_lie_in_the_clamp_interval(self, mean):
        with pytest.raises(ValueError, match="outside"):
            PcfModel("los_los", mean, 0.0)


class TestSamplePcf:
    def test_zero_std_reproduces_mean(self):
        model = PcfModel("los_los", mean=0.89, std=0.0)
        for seed in (0, 1, 99):
            assert sample_pcf(model, seed) == 0.89

    def test_every_measured_value_reproducible(self):
        for _, cond, value in PCF_MEASUREMENTS:
            model = PcfModel(cond, mean=value, std=0.0)
            assert sample_pcf(model, seed=5) == value

    def test_seed_determinism(self):
        model = default_pcf_model("los_los")
        assert sample_pcf(model, 123) == sample_pcf(model, 123)

    def test_clamped_to_upper_bound(self):
        model = PcfModel("los_nlos", mean=1.4, std=1.0)
        draws = sample_pcf(model, 7, size=1000)
        assert np.all(draws <= 1.5)
        assert np.all(draws > 0.0)

    def test_condition_separation(self):
        # LOS+NLOS draws are stochastically larger than LOS+LOS draws
        # (Mann-Whitney sense; the fitted normals cross only in the far
        # upper tail, so bulk-quantile dominance is also checked)
        los = sample_pcf(default_pcf_model("los_los"), 11, size=10_000)
        nlos = sample_pcf(default_pcf_model("los_nlos"), 12, size=10_000)
        u_prob = (nlos[None, :1000] > los[:1000, None]).mean()
        assert u_prob > 0.75
        q = np.linspace(0.05, 0.90, 18)
        assert np.all(np.quantile(nlos, q) > np.quantile(los, q))


class TestApplyPcf:
    def test_unit_factor_is_noop(self):
        assert apply_pcf(3.5e-9, 1.0) == 3.5e-9

    def test_half_factor_is_minus_3db(self):
        out = apply_pcf(1.0, 0.5)
        assert 10 * math.log10(out) == pytest.approx(-3.010299956639812, rel=1e-12)

    def test_measured_position_13(self):
        assert apply_pcf(2.0, 0.92) == pytest.approx(1.84)

    def test_monotone_in_factor(self):
        p = 0.7
        outs = [apply_pcf(p, o) for o in (0.2, 0.5, 0.9, 1.2)]
        assert outs == sorted(outs)
        assert all(b > a for a, b in zip(outs, outs[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            apply_pcf(1.0, 0.0)
        with pytest.raises(ValueError):
            apply_pcf(1.0, 1.6)


class TestBackgroundBistatic:
    def test_matches_communication_channel_with_background_tag(self):
        prof = GenerationProfile(n_clusters=5, rays_per_cluster=3)
        bg = background_bistatic(prof, 77, OMNI)
        comm = synthesize_cir(sample_clusters(prof, 77), OMNI)
        assert len(bg) == len(comm)
        for name in COLUMNS:  # the Cir is the background channel: every column agrees
            np.testing.assert_array_equal(getattr(bg, name), getattr(comm, name))

    def test_empty_profile_is_error(self):
        with pytest.raises(ValueError, match="zero clusters"):
            background_bistatic(GenerationProfile(n_clusters=0), 1, OMNI)

    def test_unit_total_power_before_path_loss(self):
        prof = GenerationProfile(n_clusters=12, rays_per_cluster=5)
        bg = background_bistatic(prof, 13, OMNI)
        assert bg.total_power() == pytest.approx(1.0, rel=1e-9)


class TestBackgroundMonostatic:
    def test_single_scatterer_delay_and_retrodirection(self):
        sc = GeometricScatterer(position=[15.0, 0.0, 0.0], label="plate")
        cir = background_monostatic([sc], [0, 0, 0], wl=0.01)
        assert len(cir) == 1
        # 2 * 15 m / c, independently 100.069 ns
        assert cir.delay[0] == pytest.approx(1.0006922855944561e-07, rel=1e-12, abs=0.0)
        assert (cir.aoa_az[0], cir.aoa_el[0]) == (cir.aod_az[0], cir.aod_el[0])

    def test_zero_scatterers_empty_cir(self):
        cir = background_monostatic([], [0, 0, 0], wl=0.01)
        assert len(cir) == 0
        assert cir.total_power() == 0.0

    def test_range_recovery_and_retrodirection_sweep(self):
        rng = np.random.default_rng(55)
        p0 = np.array([2.0, -1.0, 1.5])
        for _ in range(100):
            pos = p0 + rng.uniform(-50, 50, 3)
            if np.linalg.norm(pos - p0) < 0.5:
                continue
            cir = background_monostatic([GeometricScatterer(position=pos)], p0, wl=0.03)
            rng_m = cir.delay[0] * C_LIGHT / 2.0
            assert rng_m == pytest.approx(float(np.linalg.norm(pos - p0)), abs=1e-9)
            assert (cir.aoa_az[0], cir.aoa_el[0]) == (cir.aod_az[0], cir.aod_el[0])

    def test_two_way_spreading_power(self):
        wl = 0.0107
        d = 12.0
        cir = background_monostatic([GeometricScatterer(position=[d, 0, 0])], [0, 0, 0], wl=wl)
        expected = (wl / (4 * math.pi * d)) ** 4
        assert cir.powers()[0] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_reflection_gain_scales_power(self):
        base = background_monostatic([GeometricScatterer([10, 0, 0], 0.0)], [0, 0, 0], wl=0.01)
        boosted = background_monostatic([GeometricScatterer([10, 0, 0], 20.0)], [0, 0, 0], wl=0.01)
        assert boosted.powers()[0] / base.powers()[0] == pytest.approx(100.0)

    def test_coincident_scatterer_rejected(self):
        with pytest.raises(ValueError):
            background_monostatic([GeometricScatterer([0, 0, 0])], [0, 0, 0], wl=0.01)
