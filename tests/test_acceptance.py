"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers when it holds.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

from isacsim import (
    C_LIGHT,
    PCF_MEASUREMENTS,
    Cir,
    ClusterSet,
    ConstantRcs,
    GeometricScatterer,
    PadpPeak,
    PcfModel,
    ReconstructionScene,
    ScatteringPoint,
    Side,
    SubLink,
    apply_pcf,
    background_monostatic,
    classify_bounce,
    concatenate,
    conv_path_power,
    default_pcf_model,
    delta_p,
    estimate_rcs,
    fit_rcs_line,
    generate_pn,
    merge_paths,
    power_proportion,
    radar_pathloss,
    sample_pcf,
    sharing_degree,
    sounder_roundtrip,
    spreading_gain,
    wavelength_m,
)
from isacsim.config import load_config
from isacsim.runner import run_simulate

WL = wavelength_m(6.9e9)
CONFIG_DIR = Path(__file__).parents[1] / "demos" / "configs"

CONCAT_POWER_ROWS = [
    # path, p1, p2, sigma, p_conv, p_meas, dp, tol, sign_ambiguous
    ("1-A", -74.64, -78.46, 8.48, -106.39, -107.54, 1.15, 0.01, False),
    ("2-A", -70.21, -78.46, 9.04, -101.40, -106.14, 4.74, 0.01, False),
    ("1-B", -74.64, -83.36, 14.19, -105.58, -112.18, 6.60, 0.01, False),
    ("2-B", -70.21, -83.36, 4.46, -110.88, -105.81, -5.07, 0.01, False),
    ("1-C", -74.64, -93.28, 0.46, -128.94, -128.83, -0.11, 0.4, False),
    ("2-C", -70.21, -93.28, -6.33, -118.56, -113.47, -5.09, 0.4, True),
    ("1-D", -74.64, -95.59, 0.75, -131.54, -132.19, 0.65, 0.4, False),
    ("2-D", -70.21, -95.59, 6.70, -133.90, -134.53, 0.63, 0.4, True),
]


def report(num, text):
    print(f"\n[criterion {num:2d}] PASS: {text}")


def test_criterion_1_concatenated_power_rows():
    t0 = time.perf_counter()
    worst_tight, worst_loose = 0.0, 0.0
    for pid, p1, p2, sigma, p_conv, _, _, tol, ambiguous in CONCAT_POWER_ROWS:
        if ambiguous:
            # the printed sigma sign is inconsistent for these rows; the
            # arithmetic only reproduces the table with the sign flipped
            assert abs(conv_path_power(p1, p2, sigma, WL) - p_conv) > 10.0
            resid = abs(conv_path_power(p1, p2, -sigma, WL) - p_conv)
            assert resid <= 0.4
        else:
            resid = abs(conv_path_power(p1, p2, sigma, WL) - p_conv)
            assert resid <= tol
        if tol == 0.01:
            worst_tight = max(worst_tight, resid)
        else:
            worst_loose = max(worst_loose, resid)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"tight rows within {worst_tight:.4f} dB, loose rows within "
              f"{worst_loose:.3f} dB, 2-C/2-D consistent only with flipped "
              f"sigma sign; {elapsed * 1e3:.1f} ms")


def test_criterion_2_delta_p_column():
    resid = [abs(delta_p(p_conv, p_meas) - dp)
             for _, _, _, _, p_conv, p_meas, dp, _, _ in CONCAT_POWER_ROWS]
    assert max(resid) <= 0.01
    abs_dp = [abs(row[6]) for row in CONCAT_POWER_ROWS]
    assert max(abs_dp) <= 7.0
    assert min(abs_dp) == pytest.approx(0.11, abs=1e-12)
    report(2, f"all eight delta-P values reproduced within {max(resid):.4f} dB; "
              f"max |dP| {max(abs_dp):.2f} dB, min |dP| {min(abs_dp):.2f} dB")


def test_criterion_3_radar_equation_inverse():
    rng = np.random.default_rng(99)
    n = 10_000
    pl1 = rng.uniform(30.0, 130.0, n)
    pl2 = rng.uniform(30.0, 130.0, n)
    sigma = rng.uniform(-30.0, 60.0, n)
    wl = rng.uniform(0.002, 0.15, n)
    worst = 0.0
    for i in range(n):
        back = estimate_rcs(pl1[i], pl2[i],
                            radar_pathloss(pl1[i], pl2[i], wl[i], sigma[i]), wl[i])
        worst = max(worst, abs(back - sigma[i]))
    assert worst <= 1e-12

    slope, _, rmse = fit_rcs_line([(d, 40.0) for d in np.linspace(2.0, 12.0, 25)])
    assert abs(slope) < 1e-9
    report(3, f"sigma recovered to {worst:.2e} dBsm over 10^4 draws; "
              f"constant-sigma fit slope {slope:.2e} dB/m (rmse {rmse:.1e})")


def _sublink(side, delays, amps, az):
    return SubLink(side, ClusterSet(power=[float(abs(a)) ** 2 for a in amps], delay=delays,
                                    aod=(az, 0), aoa=(az + 0.5, 0),
                                    phases=np.angle(amps)[:, None]))


def test_criterion_4_concatenation_law():
    rng = np.random.default_rng(4)
    grid_step = 0.5e-9
    sp = ScatteringPoint(position=[0, 0, 0], rcs_model=ConstantRcs(5.0))
    sigma_lin = 10 ** 0.5
    worst = 0.0
    for _ in range(10):
        na, nb = rng.integers(2, 21, 2)
        da = rng.integers(0, 400, na) * grid_step
        db = rng.integers(0, 400, nb) * grid_step
        aa = rng.normal(size=na) + 1j * rng.normal(size=na)
        ab = rng.normal(size=nb) + 1j * rng.normal(size=nb)
        cir = concatenate(_sublink(Side.TX_TO_TARGET, da, aa, 0.1),
                          _sublink(Side.TARGET_TO_RX, db, ab, 1.7), sp, WL)

        # every output delay is a sum of one delay from each sub-link
        expected_delays = sorted(float(x + y) for x in da for y in db)
        np.testing.assert_allclose(sorted(cir.delay.tolist()),
                                   expected_delays, atol=1e-20)

        # FFT dense-grid convolution oracle on the common delay grid
        n = 1024
        ga, gb = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
        for x, d in zip(aa, da):
            ga[int(round(d / grid_step))] += x
        for x, d in zip(ab, db):
            gb[int(round(d / grid_step))] += x
        conv = np.fft.ifft(np.fft.fft(ga, 2 * n) * np.fft.fft(gb, 2 * n))
        oracle = float(np.sum(np.abs(conv) ** 2)) * sigma_lin * spreading_gain(WL)
        got = sum(merge_paths(cir, grid_step / 2, 10.0).powers().tolist())
        worst = max(worst, abs(got - oracle) / oracle)
    assert worst <= 1e-6

    # the 4 x 15 measurement grid yields exactly 60 paths before merging
    cir = concatenate(
        _sublink(Side.TX_TO_TARGET, np.arange(4) * 1e-9, np.ones(4), 0.2),
        _sublink(Side.TARGET_TO_RX, np.arange(15) * 2e-9, np.ones(15), 2.0), sp, WL)
    assert len(cir) == 60
    report(4, f"sparse pairing matches the FFT convolution oracle within "
              f"{worst:.2e} relative; 4x15 grid gives 60 pre-merge paths")


def _planted_scene_proportions(shares):
    """Assign the given (order-0, order-1, order->=2) power shares to
    geometric routes and classify them back through the scene."""
    scene = ReconstructionScene(
        tx=[0, 0, 0], rx=[10, 0, 0], target=[5.0, 0.7089, 0.0],
        reflectors=(GeometricScatterer([7.5, -1.0, 0.0], label="south"),
                    GeometricScatterer([-7.12, 0.71, 0.0], label="west")))
    south, west = (r.position for r in scene.reflectors)
    waypoints = {
        0: [scene.tx, scene.target, scene.rx],
        1: [scene.tx, scene.target, south, scene.rx],
        2: [scene.tx, scene.target, west, south, scene.rx],
    }
    classified = []
    for order, share in enumerate(shares):
        if share == 0.0:
            continue
        pts = np.asarray(waypoints[order], dtype=float)
        length = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
        arrive = pts[-2] - scene.rx
        az = math.degrees(math.atan2(arrive[1], arrive[0])) % 360.0
        peak = PadpPeak(az, length / C_LIGHT, share)
        res = classify_bounce(peak, scene, delay_tol=1e-9, angle_tol_deg=2.5)
        assert res is not None and res.order == order
        classified.append((res.order, peak.power))
    return power_proportion(classified)


def test_criterion_5_power_proportions():
    for shares in ((18.9, 65.7, 15.4), (0.0, 16.4, 83.6)):
        pp = _planted_scene_proportions(shares)
        got_pct = tuple(100.0 * x for x in pp.as_tuple())
        np.testing.assert_allclose(got_pct, shares, atol=1e-9)
        assert abs(sum(got_pct) - 100.0) <= 1e-9
    report(5, "planted-geometry scenes reproduce (18.9, 65.7, 15.4)% and "
              "(0, 16.4, 83.6)% with columns summing to 100% within 1e-9")


def test_criterion_6_power_control_factor():
    for _, cond, value in PCF_MEASUREMENTS:
        assert sample_pcf(PcfModel(cond, mean=value, std=0.0), seed=3) == value
    los = default_pcf_model("los_los")
    nlos = default_pcf_model("los_nlos")
    assert los.mean == pytest.approx(0.817, abs=1e-12)
    assert nlos.mean == pytest.approx(0.915, abs=1e-12)
    assert apply_pcf(0.123456789, 1.0) == 0.123456789

    draws_los = sample_pcf(los, seed=21, size=10_000)
    draws_nlos = sample_pcf(nlos, seed=22, size=10_000)
    # stochastically larger in the Mann-Whitney sense plus bulk-quantile
    # dominance (the fitted normals cross only in the far upper tail)
    u = float(np.mean(draws_nlos[None, :500] > draws_los[:500, None]))
    assert u > 0.75
    q = np.linspace(0.05, 0.90, 18)
    assert np.all(np.quantile(draws_nlos, q) > np.quantile(draws_los, q))
    report(6, f"all 14 measured PCF values reproduced at std=0; default means "
              f"0.817/0.915; P(nlos > los) = {u:.3f} over 10^4 draws")


def test_criterion_7_monostatic_geometry():
    rng = np.random.default_rng(7)
    p0 = np.array([1.0, -2.0, 1.5])
    worst = 0.0
    for _ in range(100):
        pos = p0 + rng.uniform(-60.0, 60.0, 3)
        if np.linalg.norm(pos - p0) < 0.1:
            pos = p0 + np.array([5.0, 0, 0])
        cir = background_monostatic([GeometricScatterer(position=pos)], p0, wl=0.0107)
        err = abs(cir.delay[0] * C_LIGHT / 2.0 - float(np.linalg.norm(pos - p0)))
        worst = max(worst, err)
        assert (cir.aoa_az[0], cir.aoa_el[0]) == (cir.aod_az[0], cir.aod_el[0])
    assert worst <= 1e-9
    report(7, f"100 random scatterers: range recovered within {worst:.2e} m, "
              f"arrival equals departure exactly")


def test_criterion_8_sounder_round_trip():
    t0 = time.perf_counter()
    pn = generate_pn(11, chip_rate=600e6)
    chip = 1.0 / 600e6
    successes = 0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        chips = np.sort(rng.choice(np.arange(10, 2000, 3), size=5, replace=False))
        delays = (chips + rng.uniform(0.0, 1.0, 5)) * chip
        amps = (10 ** (rng.uniform(-10.0, 0.0, 5) / 20.0)
                * np.exp(1j * rng.uniform(0, 2 * math.pi, 5)))
        cir = Cir.from_columns(delays, amps)
        result = sounder_roundtrip(cir, pn, snr_db=30.0, seed=seed, threshold_db=18.0)
        if len(result.recovered) != 5:
            continue
        ok = all(
            abs(d_est - d_true) <= chip
            and abs(20 * math.log10(abs(a_est) / abs(a_true))) <= 0.5
            for (d_est, a_est), d_true, a_true in zip(result.recovered, delays, amps))
        successes += ok
    elapsed = time.perf_counter() - t0
    assert successes >= 99
    assert elapsed < 30.0
    report(8, f"{successes}/100 seeds recovered 5/5 paths within 1 chip and "
              f"0.5 dB at 30 dB SNR; {elapsed:.1f} s")


def test_criterion_9_sharing_degree():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        n_s, n_n = rng.integers(1, 8, 2)
        shared = [(complex(rng.normal(), rng.normal()), float(rng.uniform(0.1, 2)))
                  for _ in range(n_s)]
        nonshared = [(complex(rng.normal(), rng.normal()), float(rng.uniform(0.1, 2)))
                     for _ in range(n_n)]
        s = sum(a * g for a, g in shared)
        nn = sum(a * g for a, g in nonshared)
        expected = abs(s) ** 2 / abs(s + nn) ** 2
        got = sharing_degree(shared, nonshared)
        worst = max(worst, abs(got - expected) / max(expected, 1e-300))
    assert worst <= 1e-12
    assert sharing_degree([], [(1.0, 1.0)]) == 0.0
    assert sharing_degree([(0.7j, 2.0)], []) == pytest.approx(1.0)
    report(9, f"10^3 random partitions match the direct coherent sums within "
              f"{worst:.2e}; SD(no shared) = 0, SD(no nonshared) = 1")


def test_criterion_10_run_determinism(tmp_path):
    configs = sorted(p for p in CONFIG_DIR.glob("*.json") if "scene" not in p.name)
    assert configs, "demo scenario configs missing"
    checked = []
    for cfg_path in configs:
        cfg = load_config(cfg_path)
        r1 = run_simulate(cfg, out_dir=tmp_path / (cfg.name + "_a"))
        r2 = run_simulate(cfg, out_dir=tmp_path / (cfg.name + "_b"))
        assert r1.manifest == r2.manifest, f"{cfg.name} is not reproducible"
        checked.append(cfg.name)
    report(10, f"byte-identical manifests for twin runs of: {', '.join(checked)}")
