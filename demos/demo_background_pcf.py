"""Background-channel generation and the power control factor.

Shows the two background modes (statistical for separated Tx/Rx,
geometric retro-echoes for co-located Tx/Rx) and how the measured
power-control-factor statistics couple the target's presence into the
background path loss.
"""
import numpy as np

from isacsim import (
    C_LIGHT,
    OMNI,
    GenerationProfile,
    GeometricScatterer,
    apply_pcf,
    background_bistatic,
    background_monostatic,
    default_pcf_model,
    linear_to_db,
    pcf_values,
    sample_pcf,
    wavelength_m,
)

wl = wavelength_m(28e9)

profile = GenerationProfile(n_clusters=6, rays_per_cluster=8, delay_scale_s=35e-9)
bg = background_bistatic(profile, 5, OMNI)
print(f"bi-static statistical background: {len(bg)} paths, "
      f"total power {bg.total_power():.6f} (normalized before path loss)")
print(f"  delay span {bg.delay[0] * 1e9:.1f} .. {bg.delay[-1] * 1e9:.1f} ns\n")

walls = [
    GeometricScatterer([9.0, 0.0, 1.5], 0.0, "east_wall"),
    GeometricScatterer([0.0, 7.0, 1.5], -2.0, "north_wall"),
    GeometricScatterer([-9.0, 0.0, 1.5], 0.0, "west_wall"),
]
mono = background_monostatic(walls, [0.0, 0.0, 1.5], wl)
print("mono-static geometric background (co-located Tx/Rx, delay-sorted):")
by_range = sorted(walls, key=lambda w: np.linalg.norm(w.position - [0.0, 0.0, 1.5]))
for w, delay, az, power in zip(by_range, mono.delay, mono.aoa_az, mono.powers()):
    rng_m = delay * C_LIGHT / 2
    print(f"  {w.label:>10}: delay {delay * 1e9:6.2f} ns -> range {rng_m:5.2f} m, "
          f"azimuth {np.degrees(az):6.1f} deg, "
          f"power {linear_to_db(power):7.1f} dB")

print("\nmeasured power control factors:")
for cond in ("los_los", "los_nlos"):
    vals = pcf_values(cond)
    model = default_pcf_model(cond)
    print(f"  {cond:>8}: values {vals}  mean {model.mean:.3f}  std {model.std:.4f}")

model = default_pcf_model("los_los")
draws = sample_pcf(model, seed=42, size=5)
print(f"\nfive seeded draws from the LOS+LOS model: {np.round(draws, 3)}")
p0 = bg.total_power()
for o in (1.0, draws[0]):
    print(f"  background power with PCF {o:.3f}: "
          f"{linear_to_db(apply_pcf(p0, o)):+.3f} dB (relative {linear_to_db(o):+.3f} dB)")
