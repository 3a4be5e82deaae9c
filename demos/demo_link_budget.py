"""Two-hop link-budget arithmetic walkthrough.

Recomputes the concatenated-power comparison table for the 6.9 GHz
factory measurement, inverts the radar equation back to the target's
RCS, and fits the zero-slope RCS line that justifies treating the RCS
as distance-independent.
"""
import numpy as np

from isacsim import (
    conv_path_power,
    delta_p,
    estimate_rcs,
    fit_rcs_line,
    radar_pathloss,
    spreading_gain_db,
    wavelength_m,
)
from isacsim.core import golden_rows, packaged_golden_dir
from isacsim.runner import CONCAT_POWER_COLUMNS

wl = wavelength_m(6.9e9)
print(f"carrier 6.9 GHz -> wavelength {wl * 100:.3f} cm, "
      f"spreading term {spreading_gain_db(wl):.2f} dB\n")

print("concatenated path power vs. measured (golden table):")
print(f"{'path':>5} {'P1':>8} {'P2':>8} {'sigma':>7} {'P_conv':>9} "
      f"{'table':>9} {'resid':>7} {'dP':>7}")
for row in golden_rows(packaged_golden_dir(), "concatenated_power_checks.csv",
                       CONCAT_POWER_COLUMNS):
    sigma = row["sigma_dbsm"]
    if "sigma_sign_ambiguous" in row["note"]:
        sigma = -sigma  # the printed sign is inconsistent for these rows
    p = conv_path_power(row["p_n1_db"], row["p_n2_db"], sigma, wl)
    dp = delta_p(row["p_conv_db"], row["p_meas_db"])
    mark = " *" if "sigma_sign_ambiguous" in row["note"] else ""
    print(f"{row['path_id']:>5} {row['p_n1_db']:>8.2f} {row['p_n2_db']:>8.2f} "
          f"{row['sigma_dbsm']:>7.2f} {p:>9.2f} {row['p_conv_db']:>9.2f} "
          f"{p - row['p_conv_db']:>+7.3f} {dp:>+7.2f}{mark}")
print("  (* sigma sign flipped: the printed sign only reproduces the table when negated)\n")

# radar equation round trip: path loss -> RCS estimate
pl1, pl2, sigma_true = 74.6, 71.4, 40.0
pl_tar = radar_pathloss(pl1, pl2, wl, sigma_true)
sigma_back = estimate_rcs(pl1, pl2, pl_tar, wl)
print(f"radar equation: PL1={pl1} PL2={pl2} sigma={sigma_true} dBsm "
      f"-> PL_tar={pl_tar:.2f} dB -> recovered sigma={sigma_back:.12f} dBsm\n")

# zero-slope RCS fit over the second-hop distance sweep
d2 = np.linspace(3.0, 10.0, 15)
rng = np.random.default_rng(3)
sigma_obs = 41.85 + 5.0 * np.cos(2 * np.pi * (d2 - d2.mean()) / 3.5) \
    + rng.normal(0, 0.3, len(d2))
slope, intercept, rmse = fit_rcs_line(list(zip(d2, sigma_obs)))
print("RCS-vs-distance fit on corridor-like fluctuating estimates:")
print(f"  slope {slope:+.4f} dB/m (should be ~0), intercept {intercept:.1f} dBsm, "
      f"rmse {rmse:.2f} dB")
print(f"  sample range [{sigma_obs.min():.1f}, {sigma_obs.max():.1f}] dBsm")
