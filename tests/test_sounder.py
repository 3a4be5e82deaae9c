import json
import math
from pathlib import Path

import numpy as np
import pytest

from isacsim import (
    Cir,
    calibrate,
    generate_pn,
    save_capture,
    slide_correlate,
    sounder_roundtrip,
    transmit_through,
)
from isacsim.sounder import DEFAULT_TAPS


def chan(delays_amps):
    delays, amps = zip(*delays_amps)
    return Cir.from_columns(delays, amps)


class TestGeneratePn:
    def test_m3_period_7(self):
        pn = generate_pn(3)
        assert pn.taps == (3, 1) and pn.length == 7

    def test_balance_property(self):
        # every register length the config accepts: one full period, and
        # one more +1 chip than -1 chips
        for m in sorted(DEFAULT_TAPS):
            pn = generate_pn(m)
            assert pn.length == 2 ** m - 1, m
            assert int(np.sum(pn.chips == 1)) - int(np.sum(pn.chips == -1)) == 1, m

    def test_chips_match_tuple_register(self):
        # the tuple-shift LFSR that the int register replaced
        for m, taps in DEFAULT_TAPS.items():
            state, bits = (1,) * m, []
            for _ in range(2 ** m - 1):
                bits.append(state[-1])
                fb = 0
                for tp in taps:
                    fb ^= state[tp - 1]
                state = (fb,) + state[:-1]
            assert np.array_equal(generate_pn(m).chips, 2.0 * np.array(bits, dtype=float) - 1.0), m

    def test_autocorrelation_peak(self):
        pn = generate_pn(5)
        r0 = float(np.sum(pn.chips * pn.chips))
        assert r0 == 2 ** 5 - 1

    def test_autocorrelation_two_valued(self):
        # every default tap set is maximal-length: the circular
        # autocorrelation is 2^m - 1 at lag 0 and -1 at every other lag
        for m in sorted(DEFAULT_TAPS):
            chips = generate_pn(m).chips
            r = np.fft.ifft(np.abs(np.fft.fft(chips)) ** 2).real
            want = np.full(len(chips), -1.0)
            want[0] = 2 ** m - 1
            np.testing.assert_allclose(r, want, rtol=0, atol=1e-6, err_msg=f"m={m}")

    @pytest.mark.parametrize("m", [2, 16])
    def test_register_length_without_taps_rejected(self, m):
        with pytest.raises(ValueError, match=f"no feedback taps for register length {m}"):
            generate_pn(m)


def reference_samples(cir, pn):
    """Noiseless capture built one path at a time: sample i of a path
    holds chip floor(i - delay * chip_rate + 1e-9)."""
    pos = np.arange(pn.length)
    rx = np.zeros(len(pos), dtype=complex)
    for delay, amp in zip(cir.delay.tolist(), cir.amp.tolist()):
        idx = np.floor(pos - delay * pn.chip_rate + 1e-9).astype(int) % pn.length
        rx += amp * pn.chips[idx]
    return rx


class TestTransmitThrough:
    def test_matches_per_path_reference(self):
        pn = generate_pn(7, chip_rate=100e6)
        rng = np.random.default_rng(1)
        delays = np.concatenate([
            rng.uniform(0.0, pn.period_s, 300),
            rng.integers(0, pn.length, 50) / pn.chip_rate,  # on chip boundaries
            [0.0, (pn.length - 1) / pn.chip_rate, pn.period_s * (1 - 1e-12)],
        ])
        amps = rng.normal(size=len(delays)) + 1j * rng.normal(size=len(delays))
        c = chan(zip(delays.tolist(), amps.tolist()))
        got = transmit_through(c, pn, snr_db=None, seed=None).samples
        want = reference_samples(c, pn)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_identity_channel_reproduces_pn(self):
        pn = generate_pn(6, chip_rate=100e6)
        cap = transmit_through(chan([(0.0, 1.0)]), pn, snr_db=None, seed=None)
        np.testing.assert_allclose(cap.samples, pn.chips.astype(complex), atol=1e-15)

    def test_integer_chip_delay_is_cyclic_shift(self):
        pn = generate_pn(6, chip_rate=100e6)
        k = 9
        cap = transmit_through(chan([(k / 100e6, 1.0)]), pn, snr_db=None, seed=None)
        np.testing.assert_allclose(cap.samples, np.roll(pn.chips, k).astype(complex),
                                   atol=1e-12)

    def test_two_path_matches_direct_convolution(self):
        pn = generate_pn(7, chip_rate=50e6)
        k1, k2 = 3, 40
        a1, a2 = 0.8 + 0.1j, -0.3 + 0.6j
        cap = transmit_through(chan([(k1 / 50e6, a1), (k2 / 50e6, a2)]), pn,
                               snr_db=None, seed=None)
        oracle = a1 * np.roll(pn.chips, k1) + a2 * np.roll(pn.chips, k2)
        np.testing.assert_allclose(cap.samples, oracle, atol=1e-9)

    def test_delay_beyond_period_rejected(self):
        pn = generate_pn(5, chip_rate=100e6)  # period 310 ns
        with pytest.raises(ValueError, match="path delay 400.0 ns outside one PN period"):
            transmit_through(chan([(10e-9, 1.0), (400e-9, 1.0), (500e-9, 1.0)]), pn,
                             snr_db=None, seed=None)

    def test_noise_is_seed_deterministic(self):
        pn = generate_pn(6, chip_rate=100e6)
        c = chan([(11e-9, 1.0)])
        a = transmit_through(c, pn, snr_db=20.0, seed=99)
        b = transmit_through(c, pn, snr_db=20.0, seed=99)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_snr_calibration(self):
        pn = generate_pn(10, chip_rate=100e6)
        c = chan([(0.0, 1.0)])
        clean = transmit_through(c, pn, snr_db=None, seed=None)
        noisy = transmit_through(c, pn, snr_db=10.0, seed=3)
        noise_p = float(np.mean(np.abs(noisy.samples - clean.samples) ** 2))
        sig_p = float(np.mean(np.abs(clean.samples) ** 2))
        assert 10 * math.log10(sig_p / noise_p) == pytest.approx(10.0, abs=0.5)


class TestSlideCorrelate:
    def test_noiseless_single_path_peak(self):
        pn = generate_pn(8, chip_rate=100e6)
        k, a = 37, 0.6 - 0.4j
        cap = transmit_through(chan([(k / 100e6, a)]), pn, snr_db=None, seed=None)
        est = slide_correlate(cap.samples, pn)
        assert np.argmax(np.abs(est)) == k
        n = pn.length
        assert abs(est[k] - a) <= abs(a) / n + 1e-12
        sidelobes = np.delete(np.abs(est), k)
        assert np.all(sidelobes <= abs(a) / n + 1e-12)

    def test_zero_capture_zero_estimate(self):
        pn = generate_pn(6, chip_rate=100e6)
        est = slide_correlate(np.zeros(pn.length, dtype=complex), pn)
        np.testing.assert_allclose(est, 0.0, atol=1e-15)

    def test_three_paths_30db_snr(self):
        # delays (>= 2 chips apart) recovered exactly, amplitudes within
        # 0.5 dB, across 100 seeds
        pn = generate_pn(11, chip_rate=600e6)
        chips = [100, 500, 1400]
        amps = [1.0, 0.7 + 0.2j, -0.5 + 0.5j]
        c = chan([(k / 600e6, a) for k, a in zip(chips, amps)])
        failures = 0
        for seed in range(100):
            cap = transmit_through(c, pn, snr_db=30.0, seed=seed)
            est = slide_correlate(cap.samples, pn)
            mag = np.abs(est)
            for k, a in zip(chips, amps):
                local = np.argmax(mag[k - 1:k + 2]) + k - 1
                err_db = abs(20 * math.log10(mag[local] / abs(a)))
                if local != k or err_db > 0.5:
                    failures += 1
        assert failures == 0

    def test_length_mismatch_rejected(self):
        pn = generate_pn(6, chip_rate=100e6)
        with pytest.raises(ValueError, match="does not match one PN period 63"):
            slide_correlate(np.zeros(10, dtype=complex), pn)


class TestCalibrate:
    def test_ideal_impulse_passthrough(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=64) + 1j * rng.normal(size=64)
        b2b = np.zeros(64, dtype=complex)
        b2b[0] = 1.0
        out = calibrate(raw, b2b)
        np.testing.assert_allclose(out.response, raw, atol=1e-12)
        assert not out.flagged_bins.any()

    def test_bandpass_ripple_removed(self):
        # known +-1 dB in-band ripple on the system response is divided
        # out to well under 0.1 dB
        n = 256
        k = np.fft.fftfreq(n)
        ripple_db = 1.0 * np.cos(2 * math.pi * 3 * k)
        sys_spec = 10 ** (ripple_db / 20.0) * np.exp(1j * 0.3 * np.sin(2 * math.pi * 2 * k))
        sys_ir = np.fft.ifft(sys_spec)
        true = np.zeros(n, dtype=complex)
        true[[10, 90]] = [1.0, 0.4j]
        raw = np.fft.ifft(np.fft.fft(true) * sys_spec)
        out = calibrate(raw, sys_ir)
        for idx, val in [(10, 1.0), (90, 0.4)]:
            err_db = abs(20 * math.log10(abs(out.response[idx]) / val))
            assert err_db < 0.1

    def test_spectral_nulls_flagged(self):
        n = 128
        sys_spec = np.ones(n, dtype=complex)
        sys_spec[40:44] = 1e-6  # deep nulls
        b2b = np.fft.ifft(sys_spec)
        raw = np.zeros(n, dtype=complex)
        raw[0] = 1.0
        out = calibrate(raw, b2b)  # the floor sits 40 dB below the peak
        assert out.flagged_bins.sum() == 4

    def test_all_zero_b2b_rejected(self):
        with pytest.raises(ValueError):
            calibrate(np.ones(8, dtype=complex), np.zeros(8, dtype=complex))


class TestRoundTrip:
    def test_five_path_recovery_at_30db(self):
        # the full cascade on a random 5-path channel, fractional delays,
        # >= 2 chip separation, one PN period: path count exact, delays
        # within one chip, powers within 0.5 dB
        pn = generate_pn(11, chip_rate=600e6)
        chip = 1.0 / 600e6
        rng = np.random.default_rng(1234)
        delays = np.sort(rng.choice(np.arange(20, 2000, 4), size=5, replace=False)) * chip
        delays = delays + rng.uniform(0, 1, 5) * chip  # fractional offsets
        amps = 10 ** (rng.uniform(-10, 0, 5) / 20.0) * np.exp(1j * rng.uniform(0, 6.28, 5))
        c = chan(list(zip(delays, amps)))
        result = sounder_roundtrip(c, pn, snr_db=30.0, seed=7, threshold_db=18.0)
        assert len(result.recovered) == 5
        for (d_est, a_est), d_true, a_true in zip(result.recovered, delays, amps):
            assert abs(d_est - d_true) <= chip
            err_db = abs(20 * math.log10(abs(a_est) / abs(a_true)))
            assert err_db <= 0.5

    def test_processing_gain(self):
        # post-correlation SNR gain matches 10 log10(2^m - 1)
        m = 9
        pn = generate_pn(m, chip_rate=100e6)
        snr_in_db = 10.0
        c = chan([(0.0, 1.0)])
        gains = []
        for seed in range(20):
            cap = transmit_through(c, pn, snr_db=snr_in_db, seed=seed)
            est = slide_correlate(cap.samples, pn)
            noise = np.delete(est, 0)
            snr_out = abs(est[0]) ** 2 / float(np.mean(np.abs(noise) ** 2))
            gains.append(10 * math.log10(snr_out) - snr_in_db)
        expected = 10 * math.log10(2 ** m - 1)
        assert np.mean(gains) == pytest.approx(expected, abs=1.0)


class TestCaptureSerialization:
    def test_binary_sidecar_round_trip(self, tmp_path):
        pn = generate_pn(6, chip_rate=100e6)
        cap = transmit_through(chan([(30e-9, 0.5 - 0.2j)]), pn, snr_db=25.0, seed=11)
        path = tmp_path / "capture.bin"
        save_capture(cap, path)
        raw = np.fromfile(path, "<f4")
        samples = raw[0::2] + 1j * raw[1::2]
        sidecar = json.loads(Path(f"{path}.json").read_text())
        assert sidecar["sample_rate"] == pn.chip_rate == 100e6
        assert (sidecar["snr_db"], sidecar["seed"]) == (25.0, 11)
        assert sidecar["pn"] == {"m": 6, "taps": list(pn.taps), "chip_rate": 100e6}
        # float32 quantization only
        assert samples.dtype == np.complex64
        np.testing.assert_allclose(samples, cap.samples, atol=1e-6)
