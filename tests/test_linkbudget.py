import math

import numpy as np
import pytest

from isacsim import (
    conv_path_power,
    delta_p,
    estimate_rcs,
    fit_rcs_line,
    free_space_loss_db,
    radar_pathloss,
    spreading_gain_db,
    wavelength_m,
)
from isacsim.core import golden_rows, packaged_golden_dir
from isacsim.runner import CONCAT_POWER_COLUMNS

WL_6P9 = wavelength_m(6.9e9)


def golden_concat_rows():
    return golden_rows(packaged_golden_dir(), "concatenated_power_checks.csv",
                       CONCAT_POWER_COLUMNS)


class TestRadarPathloss:
    def test_spreading_only(self):
        pl = radar_pathloss(0.0, 0.0, 0.043449, 0.0)
        assert pl == pytest.approx(-38.23, abs=0.01)

    def test_linear_in_sigma(self):
        base = radar_pathloss(60.0, 70.0, WL_6P9, 0.0)
        assert radar_pathloss(60.0, 70.0, WL_6P9, 10.0) == pytest.approx(base - 10.0)

    def test_inverse_recovers_sigma(self):
        pl = radar_pathloss(61.2, 72.9, WL_6P9, 40.0)
        assert estimate_rcs(61.2, 72.9, pl, WL_6P9) == pytest.approx(40.0, abs=1e-12)


class TestEstimateRcs:
    def test_self_consistency_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            pl1, pl2 = rng.uniform(40, 120, 2)
            sigma = rng.uniform(-20, 50)
            wl = rng.uniform(0.003, 0.1)
            pl_tar = radar_pathloss(pl1, pl2, wl, sigma)
            assert estimate_rcs(pl1, pl2, pl_tar, wl) == pytest.approx(sigma, abs=1e-12)

    def test_corridor_rcs_band(self):
        # waveguide-like corridor fluctuation: estimates derived from a
        # +-5.45 dB oscillation about 41.85 dBsm stay inside the
        # measured [36.4, 47.3] dBsm envelope
        wl = wavelength_m(28e9)
        pl1 = free_space_loss_db(4.0, wl)
        sigmas = []
        for i, d2 in enumerate(np.linspace(3.0, 10.0, 15)):
            sigma_true = 41.85 + 5.45 * math.sin(2.2 * d2)
            pl2 = free_space_loss_db(d2, wl)
            pl_tar = radar_pathloss(pl1, pl2, wl, sigma_true)
            sigmas.append(estimate_rcs(pl1, pl2, pl_tar, wl))
        assert min(sigmas) >= 36.4
        assert max(sigmas) <= 47.3


class TestFitRcsLine:
    def test_constant_sigma_exact_zero_slope(self):
        samples = [(d, 40.0) for d in (3.0, 4.5, 6.0, 8.0, 10.0)]
        slope, intercept, rmse = fit_rcs_line(samples)
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert intercept == pytest.approx(40.0)
        assert rmse == pytest.approx(0.0, abs=1e-12)

    def test_noise_driven_slope_bound(self):
        # Monte Carlo: with +-1 dB zero-mean noise over d in [3, 10],
        # the OLS slope standard deviation is sigma/sqrt(sum (d-mean)^2);
        # the mean |slope| over many trials stays within 3x that bound.
        rng = np.random.default_rng(91)
        d = np.linspace(3.0, 10.0, 15)
        noise_std = 1.0 / math.sqrt(3.0)  # uniform(-1, 1) std
        bound = noise_std / math.sqrt(np.sum((d - d.mean()) ** 2))
        slopes = []
        for _ in range(1000):
            sigma = 40.0 + rng.uniform(-1.0, 1.0, len(d))
            slope, _, _ = fit_rcs_line(list(zip(d, sigma)))
            slopes.append(abs(slope))
        assert np.mean(slopes) < 3.0 * bound

    def test_waveguide_oscillation_keeps_zero_slope(self):
        d = np.linspace(3.0, 10.0, 29)
        # +-5 dB oscillation symmetric about the sampled midpoint:
        # slope vanishes by symmetry while the rmse stays large
        sigma = 40.0 + 5.0 * np.cos(2 * np.pi * (d - d.mean()) / 3.5)
        slope, _, rmse = fit_rcs_line(list(zip(d, sigma)))
        assert abs(slope) < 1e-10
        assert rmse > 1.0

    def test_degenerate_distances_rejected(self):
        with pytest.raises(ValueError):
            fit_rcs_line([(5.0, 40.0), (5.0, 41.0)])


class TestConvPathPower:
    def test_golden_rows_exact(self):
        tight = {"1-A": -106.39, "2-A": -101.40, "1-B": -105.58, "2-B": -110.88}
        for row in golden_concat_rows():
            if row["path_id"] in tight:
                p = conv_path_power(row["p_n1_db"], row["p_n2_db"], row["sigma_dbsm"], WL_6P9)
                assert p == pytest.approx(tight[row["path_id"]], abs=0.01)

    def test_loose_rows_within_rounding(self):
        for row in golden_concat_rows():
            if row["path_id"] in ("1-C", "1-D"):
                p = conv_path_power(row["p_n1_db"], row["p_n2_db"], row["sigma_dbsm"], WL_6P9)
                assert p == pytest.approx(row["p_conv_db"], abs=0.4)

    def test_sign_ambiguous_rows_consistent_with_flipped_sigma(self):
        for row in golden_concat_rows():
            if "sigma_sign_ambiguous" in row["note"]:
                sigma = row["sigma_dbsm"]
                as_printed = conv_path_power(row["p_n1_db"], row["p_n2_db"], sigma, WL_6P9)
                flipped = conv_path_power(row["p_n1_db"], row["p_n2_db"], -sigma, WL_6P9)
                assert abs(as_printed - row["p_conv_db"]) > 10.0
                assert flipped == pytest.approx(row["p_conv_db"], abs=0.4)

    def test_zero_inputs_give_positive_spreading_term(self):
        assert conv_path_power(0.0, 0.0, 0.0, WL_6P9) == pytest.approx(
            spreading_gain_db(WL_6P9), rel=1e-12)
        assert conv_path_power(0.0, 0.0, 0.0, WL_6P9) == pytest.approx(38.23, abs=0.01)

    def test_affine_unit_coefficients(self):
        # finite differences: unit sensitivity to each dB argument
        base = conv_path_power(-70.0, -80.0, 5.0, WL_6P9)
        assert conv_path_power(-69.0, -80.0, 5.0, WL_6P9) - base == pytest.approx(1.0)
        assert conv_path_power(-70.0, -79.0, 5.0, WL_6P9) - base == pytest.approx(1.0)
        assert conv_path_power(-70.0, -80.0, 6.0, WL_6P9) - base == pytest.approx(1.0)


class TestDeltaP:
    def test_golden_column(self):
        for row in golden_concat_rows():
            dp = delta_p(row["p_conv_db"], row["p_meas_db"])
            assert dp == pytest.approx(row["delta_p_db"], abs=0.01)

    def test_equal_inputs(self):
        assert delta_p(-100.0, -100.0) == 0.0

    def test_full_sweep_bounds(self):
        dps = [abs(delta_p(r["p_conv_db"], r["p_meas_db"]))
               for r in golden_concat_rows()]
        assert max(dps) <= 7.0
        assert min(dps) == pytest.approx(0.11, abs=0.005)


class TestPathLossModels:
    def test_free_space_20db_per_decade(self):
        wl = wavelength_m(28e9)
        assert (free_space_loss_db(100.0, wl) - free_space_loss_db(10.0, wl)
                == pytest.approx(20.0))


class TestSpreadingConstantSharedDefinition:
    def test_target_channel_and_link_budget_agree(self):
        # the concatenation factor and the link-budget constant must be
        # the same named definition
        from isacsim import spreading_gain
        from isacsim.linkbudget import conv_path_power as cpp
        wl = WL_6P9
        assert cpp(0.0, 0.0, 0.0, wl) == pytest.approx(10 * math.log10(spreading_gain(wl)),
                                                       rel=1e-15)
