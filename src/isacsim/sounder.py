"""Time-domain sliding-correlation sounder emulation.

A maximal-length PN sequence excites the sparse channel, the receiver
takes one sample per chip and circularly correlates against the
reference sequence, and a back-to-back calibration divides out the
(synthetic) system response. The round trip is the package's end-to-end
check that simulated CIRs survive a realistic measurement pipeline.

Baseband-equivalent only: the BPSK up/down-conversion is transparent and
path Doppler is ignored over one sequence period.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import Cir

# Primitive feedback taps (polynomial exponents) for each register length.
DEFAULT_TAPS: dict[int, tuple[int, ...]] = {
    3: (3, 1), 4: (4, 1), 5: (5, 2), 6: (6, 1), 7: (7, 1),
    8: (8, 6, 5, 4), 9: (9, 4), 10: (10, 3), 11: (11, 2),
    12: (12, 7, 4, 3), 13: (13, 4, 3, 1), 14: (14, 12, 11, 1), 15: (15, 1),
}


@dataclass(frozen=True, eq=False)
class PnSequence:
    """Maximal-length +-1 sequence with two-valued periodic autocorrelation."""

    m: int
    taps: tuple[int, ...]
    chips: np.ndarray
    chip_rate: float

    @property
    def length(self) -> int:
        return len(self.chips)

    @property
    def period_s(self) -> float:
        return self.length / self.chip_rate


def generate_pn(m: int, chip_rate: float = 1.0) -> PnSequence:
    """Run a Fibonacci LFSR with the feedback taps ``DEFAULT_TAPS[m]`` and
    return one period, 2^m - 1 chips, of the +-1 chip sequence.

    The balance property holds: the +1 chips outnumber the -1 chips by
    exactly one over the period.
    """
    if m not in DEFAULT_TAPS:
        raise ValueError(f"no feedback taps for register length {m}")
    if chip_rate <= 0.0:
        raise ValueError("chip rate must be positive")
    taps = DEFAULT_TAPS[m]
    # bit j of the int is stage j + 1 of the register: the output is the
    # top bit, and the feedback, the parity of the tapped stages, enters at bit 0
    mask, full = sum(1 << (tp - 1) for tp in taps), (1 << m) - 1
    state, bits = full, []
    for _ in range(full):
        bits.append(state >> (m - 1))
        state = ((state << 1) & full) | ((state & mask).bit_count() & 1)
    chips = 2.0 * np.array(bits, dtype=float) - 1.0
    return PnSequence(m=m, taps=taps, chips=chips, chip_rate=chip_rate)


@dataclass(frozen=True, eq=False)
class CaptureRecord:
    """Complex baseband samples captured at the receiver, one per chip of
    the PN sequence they were sent with."""

    samples: np.ndarray
    pn: PnSequence
    snr_db: float | None
    seed: int | None


def transmit_through(cir: Cir, pn: PnSequence, snr_db: float | None,
                     seed: int | None) -> CaptureRecord:
    """Excite the sparse channel with the periodic PN waveform, one sample per chip.

    The received samples are the sum over paths of the delayed
    rectangular-chip waveform scaled by each complex amplitude, plus
    seeded complex Gaussian noise at the requested SNR (None or inf
    disables noise). All delays must fit in one PN period; longer
    delays would alias and raise.
    """
    n = pn.length
    period = pn.period_s
    delays = cir.delay
    outside = np.flatnonzero((delays < 0.0) | (delays >= period))
    if len(outside):
        raise ValueError(
            f"path delay {delays[outside[0]] * 1e9:.1f} ns outside one PN period "
            f"({period * 1e9:.1f} ns); range is ambiguous")

    # sample i of a path holds chip floor(i - delay * chip_rate + 1e-9),
    # i.e. the waveform circularly shifted by a whole number of chips;
    # the 1e-9 chip epsilon keeps exactly-on-boundary delays on the
    # correct side of the floor
    shifts = np.ceil(delays * pn.chip_rate - 1e-9).astype(int) % n
    impulses = np.zeros(n, dtype=complex)
    np.add.at(impulses, shifts, cir.amp)
    rx = np.fft.ifft(np.fft.fft(impulses) * np.fft.fft(pn.chips.astype(complex)))

    if snr_db is not None and np.isfinite(snr_db):
        rng = np.random.default_rng(seed)
        p_sig = float(np.mean(np.abs(rx) ** 2))
        sigma2 = p_sig * 10.0 ** (-snr_db / 10.0)
        noise = rng.normal(0.0, math.sqrt(sigma2 / 2.0), n) \
            + 1j * rng.normal(0.0, math.sqrt(sigma2 / 2.0), n)
        rx = rx + noise
    return CaptureRecord(samples=rx, pn=pn, snr_db=snr_db, seed=seed)


def slide_correlate(samples: np.ndarray, pn: PnSequence) -> np.ndarray:
    """Circular cross-correlation of one period of samples against the
    chips, normalized by the chip energy (the period length).

    Peak positions estimate path delays; peak complex values estimate
    path amplitudes (sidelobes are bounded by 1/(2^m - 1) for a clean
    m-sequence).
    """
    if len(samples) != pn.length:
        raise ValueError(
            f"capture length {len(samples)} does not match one PN period {pn.length}")
    spec = np.fft.fft(samples) * np.conj(np.fft.fft(pn.chips.astype(complex)))
    return np.fft.ifft(spec) / pn.length


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    response: np.ndarray
    flagged_bins: np.ndarray  # spectral bins held at the regularization floor


CALIBRATION_FLOOR_DB = -40.0  # relative to the peak of the back-to-back spectrum


def calibrate(raw_cir: np.ndarray, b2b_cir: np.ndarray) -> CalibrationResult:
    """Divide out the back-to-back system response in the frequency domain.

    Bins where the back-to-back spectrum falls below CALIBRATION_FLOOR_DB
    relative to its peak are clamped to the floor (phase preserved) and
    flagged instead of being divided through, so spectral nulls cannot
    blow up the noise. A flat system response cancels exactly.
    """
    raw = np.asarray(raw_cir, dtype=complex)
    b2b = np.asarray(b2b_cir, dtype=complex)
    if raw.shape != b2b.shape:
        raise ValueError("raw and back-to-back responses must have equal length")
    b_spec = np.fft.fft(b2b)
    peak = float(np.max(np.abs(b_spec)))
    if peak == 0.0:
        raise ValueError("back-to-back response is all zero")
    floor = peak * 10.0 ** (CALIBRATION_FLOOR_DB / 20.0)
    mag = np.abs(b_spec)
    flagged = mag < floor
    phase = np.where(mag > 0, b_spec / np.where(mag > 0, mag, 1.0), 1.0)
    b_reg = np.where(flagged, floor * phase, b_spec)
    response = np.fft.ifft(np.fft.fft(raw) / b_reg)
    return CalibrationResult(response=response, flagged_bins=flagged)


# ---------------------------------------------------------------------------
# Path re-extraction and the full round trip
# ---------------------------------------------------------------------------

def estimate_paths(response: np.ndarray, chip_rate: float,
                   threshold_db: float = 15.0) -> list[tuple[float, complex]]:
    """Pick path (delay, amplitude) estimates from a dense CIR estimate
    sampled once per chip.

    Local maxima of |response| within ``threshold_db`` of the strongest
    peak are kept; the sampling of the rectangular chip waveform
    quantizes every path delay onto the chip grid, so the peak sample
    value is the amplitude estimate and the peak index the delay.
    """
    mag = np.abs(response)
    if len(mag) == 0 or mag.max() == 0.0:
        return []
    floor = mag.max() * 10.0 ** (-threshold_db / 20.0)
    is_peak = (mag >= np.roll(mag, 1)) & (mag > np.roll(mag, -1)) & (mag >= floor)
    # flatnonzero lists the peaks in index order, hence in delay order
    return [(k / chip_rate, complex(response[k])) for k in np.flatnonzero(is_peak)]


@dataclass(frozen=True, eq=False)
class RoundTripResult:
    recovered: list[tuple[float, complex]]
    flagged_bins: int


def process_capture(capture: CaptureRecord, system_ir: np.ndarray | None = None,
                    threshold_db: float = 15.0) -> RoundTripResult:
    """Receive side of the round trip: correlate against the capture's
    own PN sequence, calibrate, estimate.

    ``system_ir`` is an optional synthetic transmit/receive chain
    impulse response (applied circularly to both the channel capture
    and the back-to-back capture, exactly as a real calibration sees
    it).
    """
    def through_system(x: np.ndarray) -> np.ndarray:
        if system_ir is None:
            return x
        h = np.zeros(len(x), dtype=complex)
        h[:len(system_ir)] = system_ir
        return np.fft.ifft(np.fft.fft(x) * np.fft.fft(h))

    pn = capture.pn
    raw = slide_correlate(through_system(capture.samples), pn)
    b2b_raw = slide_correlate(through_system(pn.chips.astype(complex)), pn)
    cal = calibrate(raw, b2b_raw)
    recovered = estimate_paths(cal.response, pn.chip_rate, threshold_db=threshold_db)
    return RoundTripResult(recovered=recovered, flagged_bins=int(np.sum(cal.flagged_bins)))


def sounder_roundtrip(cir: Cir, pn: PnSequence, snr_db: float | None, seed: int | None,
                      system_ir: np.ndarray | None = None,
                      threshold_db: float = 15.0) -> RoundTripResult:
    """Full measurement emulation: excite and capture, then
    :func:`process_capture`."""
    capture = transmit_through(cir, pn, snr_db, seed)
    return process_capture(capture, system_ir=system_ir, threshold_db=threshold_db)


# ---------------------------------------------------------------------------
# Capture serialization
# ---------------------------------------------------------------------------

def save_capture(record: CaptureRecord, path) -> None:
    """Write interleaved little-endian complex float32 plus a JSON sidecar,
    whose ``sample_rate`` is the chip rate (one sample per chip)."""
    path = str(path)
    interleaved = np.empty(2 * len(record.samples), dtype="<f4")
    interleaved[0::2] = record.samples.real.astype("<f4")
    interleaved[1::2] = record.samples.imag.astype("<f4")
    interleaved.tofile(path)
    pn = record.pn
    sidecar = {
        "sample_rate": pn.chip_rate,
        "snr_db": record.snr_db,
        "seed": record.seed,
        "pn": {"m": pn.m, "taps": list(pn.taps), "chip_rate": pn.chip_rate},
        "format": "interleaved complex float32, little endian",
    }
    with open(path + ".json", "w") as f:
        json.dump(sidecar, f, indent=1)
