"""Target-channel concatenation walkthrough.

Builds the two sensing sub-links for a single scattering point, pairs
them through the angular RCS, and shows the three properties that make
the concatenated model verifiable: delay additivity, the fixed
first-hop delay offset, and the power product law.
"""
import numpy as np

from isacsim import (
    ClusterSet,
    ConstantRcs,
    ScatteringPoint,
    Side,
    SubLink,
    concatenate,
    linear_to_db,
    spreading_gain,
    wavelength_m,
)

wl = wavelength_m(6.9e9)
sp = ScatteringPoint(position=[5.2, 0.0, 1.5], rcs_model=ConstantRcs(8.48))

# first hop: a single line-of-sight ray, 17.5 ns; each sub-link is a
# table of rays, one row per ray, with (azimuth, elevation) angle rows
los = ClusterSet(power=1.0, delay=17.5e-9, aod=(0.1, 0), aoa=(3.2, 0), bounce_order=0)
hop_a = SubLink(Side.TX_TO_TARGET, los)

# second hop: four paths like a directional scan would resolve
delays_b = [33.3e-9, 47.0e-9, 60.2e-9, 88.8e-9]
powers_b = [0.55, 0.25, 0.13, 0.07]
az = np.random.default_rng(1).uniform(0, 6.28, (4, 2))  # (AoD, AoA) azimuth per ray
hop_b = SubLink(Side.TARGET_TO_RX, ClusterSet(
    power=powers_b, delay=delays_b,
    aod=np.stack([az[:, 0], np.zeros(4)], axis=1), aoa=np.stack([az[:, 1], np.zeros(4)], axis=1)))

cir = concatenate(hop_a, hop_b, sp, wl)
print(f"{len(hop_a.clusters)} x {len(hop_b.clusters)} sub-link rays -> {len(cir)} "
      f"concatenated paths\n")

print("every concatenated delay is the second-hop delay shifted by the")
print("17.5 ns first-hop line of sight:")
for delay, d_b in zip(cir.delay, sorted(delays_b)):
    print(f"  {d_b * 1e9:5.1f} ns + 17.5 ns = {delay * 1e9:6.1f} ns")

sigma_lin = 10 ** 0.848
print("\npower product law (P1 * P2 * sigma * lambda^2/4pi):")
for delay, power, (d_b, pw) in zip(cir.delay, cir.powers(), sorted(zip(delays_b, powers_b))):
    predicted = 1.0 * pw * sigma_lin * spreading_gain(wl)
    print(f"  path at {delay * 1e9:6.1f} ns: |amp|^2 = {linear_to_db(power):7.2f} dB, "
          f"predicted {linear_to_db(predicted):7.2f} dB")
