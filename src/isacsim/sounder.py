"""Time-domain sliding-correlation sounder emulation.

A maximal-length PN sequence excites the sparse channel, the receiver
circularly correlates against the reference sequence, and a back-to-back
calibration divides out the (synthetic) system response. The round trip
is the package's end-to-end check that simulated CIRs survive a
realistic measurement pipeline.

Baseband-equivalent only: the BPSK up/down-conversion is transparent and
path Doppler is ignored over one sequence period.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import Cir

# Primitive feedback taps (polynomial exponents) for common register lengths.
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


def generate_pn(m: int, taps=None, chip_rate: float = 1.0) -> PnSequence:
    """Run a Fibonacci LFSR and return the +-1 chip sequence.

    Raises if the taps are not primitive (detected by a short period).
    The balance property holds: the +1 chips outnumber the -1 chips by
    exactly one over the period 2^m - 1.
    """
    if m < 2:
        raise ValueError("register length must be >= 2")
    if chip_rate <= 0.0:
        raise ValueError("chip rate must be positive")
    taps = tuple(taps) if taps is not None else DEFAULT_TAPS.get(m)
    if taps is None:
        raise ValueError(f"no default taps for m={m}; pass taps explicitly")
    if max(taps) != m or min(taps) < 1 or len(set(taps)) != len(taps):
        raise ValueError(f"taps {taps} invalid for register length {m}")

    period = 2 ** m - 1
    state = (1,) * m
    initial = state
    bits = []
    for step in range(period):
        bits.append(state[-1])
        fb = 0
        for tp in taps:
            fb ^= state[tp - 1]
        state = (fb,) + state[:-1]
        if state == initial and step + 1 < period:
            raise ValueError(f"taps {taps} are not primitive: period {step + 1} < {period}")
    if state != initial:
        raise ValueError(f"taps {taps} are not primitive: state did not recur")
    chips = 2.0 * np.array(bits, dtype=float) - 1.0
    return PnSequence(m=m, taps=taps, chips=chips, chip_rate=chip_rate)


@dataclass(frozen=True, eq=False)
class CaptureRecord:
    """Complex baseband samples captured at the receiver."""

    samples: np.ndarray
    sample_rate: float
    snr_db: float | None
    seed: int | None
    pn_m: int = 0
    pn_taps: tuple[int, ...] = ()
    chip_rate: float = 0.0

    def __post_init__(self):
        if self.sample_rate < self.chip_rate:
            raise ValueError("sample rate must be at least the chip rate")


def reference_waveform(pn: PnSequence, samples_per_chip: int = 1) -> np.ndarray:
    """One period of the ideal rectangular-chip PN waveform."""
    if samples_per_chip < 1:
        raise ValueError("samples_per_chip must be >= 1")
    return np.repeat(pn.chips, samples_per_chip).astype(complex)


def transmit_through(cir: Cir, pn: PnSequence, snr_db: float | None,
                     seed: int | None, samples_per_chip: int = 1) -> CaptureRecord:
    """Excite the sparse channel with the periodic PN waveform.

    The received samples are the sum over paths of the delayed
    rectangular-chip waveform scaled by each complex amplitude, plus
    seeded complex Gaussian noise at the requested SNR (None or inf
    disables noise). All delays must fit in one PN period; longer
    delays would alias and raise.
    """
    fs = pn.chip_rate * samples_per_chip
    n = pn.length * samples_per_chip
    period = pn.period_s
    delays = cir.delay
    outside = np.flatnonzero((delays < 0.0) | (delays >= period))
    if len(outside):
        raise ValueError(
            f"path delay {delays[outside[0]] * 1e9:.1f} ns outside one PN period "
            f"({period * 1e9:.1f} ns); range is ambiguous")

    # sample i of a path holds chip floor(i / spc - delay * chip_rate + 1e-9),
    # i.e. the waveform circularly shifted by a whole number of samples;
    # the 1e-9 chip epsilon keeps exactly-on-boundary delays on the
    # correct side of the floor
    shifts = np.ceil(samples_per_chip * (delays * pn.chip_rate - 1e-9)).astype(int) % n
    impulses = np.zeros(n, dtype=complex)
    np.add.at(impulses, shifts, cir.amp)
    rx = np.fft.ifft(np.fft.fft(impulses) * np.fft.fft(reference_waveform(pn, samples_per_chip)))

    if snr_db is not None and np.isfinite(snr_db):
        rng = np.random.default_rng(seed)
        p_sig = float(np.mean(np.abs(rx) ** 2))
        sigma2 = p_sig * 10.0 ** (-snr_db / 10.0)
        noise = rng.normal(0.0, math.sqrt(sigma2 / 2.0), n) \
            + 1j * rng.normal(0.0, math.sqrt(sigma2 / 2.0), n)
        rx = rx + noise
    return CaptureRecord(samples=rx, sample_rate=fs, snr_db=snr_db, seed=seed,
                         pn_m=pn.m, pn_taps=pn.taps, chip_rate=pn.chip_rate)


def slide_correlate(capture: CaptureRecord, pn: PnSequence) -> np.ndarray:
    """Circular cross-correlation against the reference, energy-normalized.

    Peak positions estimate path delays; peak complex values estimate
    path amplitudes (sidelobes are bounded by 1/(2^m - 1) for a clean
    m-sequence).
    """
    spc = int(round(capture.sample_rate / pn.chip_rate))
    ref = reference_waveform(pn, spc)
    if len(capture.samples) != len(ref):
        raise ValueError(
            f"capture length {len(capture.samples)} does not match one PN period {len(ref)}")
    energy = float(np.sum(np.abs(ref) ** 2))
    spec = np.fft.fft(capture.samples) * np.conj(np.fft.fft(ref))
    return np.fft.ifft(spec) / energy


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    response: np.ndarray
    flagged_bins: np.ndarray  # spectral bins held at the regularization floor


def calibrate(raw_cir: np.ndarray, b2b_cir: np.ndarray,
              floor_db: float = -40.0) -> CalibrationResult:
    """Divide out the back-to-back system response in the frequency domain.

    Bins where the back-to-back spectrum falls below ``floor_db``
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
    floor = peak * 10.0 ** (floor_db / 20.0)
    mag = np.abs(b_spec)
    flagged = mag < floor
    phase = np.where(mag > 0, b_spec / np.where(mag > 0, mag, 1.0), 1.0)
    b_reg = np.where(flagged, floor * phase, b_spec)
    response = np.fft.ifft(np.fft.fft(raw) / b_reg)
    return CalibrationResult(response=response, flagged_bins=flagged)


# ---------------------------------------------------------------------------
# Path re-extraction and the full round trip
# ---------------------------------------------------------------------------

def estimate_paths(response: np.ndarray, sample_rate: float, chip_rate: float,
                   threshold_db: float = 15.0) -> list[tuple[float, complex]]:
    """Pick path (delay, amplitude) estimates from a dense CIR estimate.

    Local maxima of |response| within ``threshold_db`` of the strongest
    peak are kept; the sampling of the rectangular chip waveform
    quantizes every path delay onto the sample grid, so the peak sample
    value is the amplitude estimate and the peak index the delay.
    """
    mag = np.abs(response)
    n = len(mag)
    if n == 0 or mag.max() == 0.0:
        return []
    floor = mag.max() * 10.0 ** (-threshold_db / 20.0)
    is_peak = (mag >= np.roll(mag, 1)) & (mag > np.roll(mag, -1)) & (mag >= floor)
    out = [(k / sample_rate, complex(response[k])) for k in np.flatnonzero(is_peak)]
    out.sort(key=lambda d_a: d_a[0])
    return out


@dataclass(frozen=True, eq=False)
class RoundTripResult:
    recovered: list[tuple[float, complex]]
    response: np.ndarray
    flagged_bins: int


def process_capture(capture: CaptureRecord, pn: PnSequence,
                    system_ir: np.ndarray | None = None,
                    threshold_db: float = 15.0) -> RoundTripResult:
    """Receive side of the round trip: correlate, calibrate, estimate.

    ``system_ir`` is an optional synthetic transmit/receive chain
    impulse response (applied circularly to both the channel capture
    and the back-to-back capture, exactly as a real calibration sees
    it).
    """
    spc = int(round(capture.sample_rate / pn.chip_rate))
    ref = reference_waveform(pn, spc)

    def through_system(x: np.ndarray) -> np.ndarray:
        if system_ir is None:
            return x
        h = np.zeros(len(x), dtype=complex)
        h[:len(system_ir)] = system_ir
        return np.fft.ifft(np.fft.fft(x) * np.fft.fft(h))

    rx = through_system(capture.samples)
    b2b = through_system(ref)
    raw = slide_correlate(
        CaptureRecord(rx, capture.sample_rate, capture.snr_db, capture.seed,
                      pn_m=pn.m, pn_taps=pn.taps, chip_rate=pn.chip_rate), pn)
    b2b_raw = slide_correlate(
        CaptureRecord(b2b, capture.sample_rate, None, None,
                      pn_m=pn.m, pn_taps=pn.taps, chip_rate=pn.chip_rate), pn)
    cal = calibrate(raw, b2b_raw)
    recovered = estimate_paths(cal.response, capture.sample_rate, pn.chip_rate,
                               threshold_db=threshold_db)
    return RoundTripResult(recovered=recovered, response=cal.response,
                           flagged_bins=int(np.sum(cal.flagged_bins)))


def sounder_roundtrip(cir: Cir, pn: PnSequence, snr_db: float | None, seed: int | None,
                      samples_per_chip: int = 1, system_ir: np.ndarray | None = None,
                      threshold_db: float = 15.0) -> RoundTripResult:
    """Full measurement emulation: excite and capture, then
    :func:`process_capture`."""
    capture = transmit_through(cir, pn, snr_db, seed, samples_per_chip)
    return process_capture(capture, pn, system_ir=system_ir, threshold_db=threshold_db)


# ---------------------------------------------------------------------------
# Capture serialization
# ---------------------------------------------------------------------------

def save_capture(record: CaptureRecord, path) -> None:
    """Write interleaved little-endian complex float32 plus a JSON sidecar."""
    path = str(path)
    interleaved = np.empty(2 * len(record.samples), dtype="<f4")
    interleaved[0::2] = record.samples.real.astype("<f4")
    interleaved[1::2] = record.samples.imag.astype("<f4")
    interleaved.tofile(path)
    sidecar = {
        "sample_rate": record.sample_rate,
        "snr_db": record.snr_db,
        "seed": record.seed,
        "pn": {"m": record.pn_m, "taps": list(record.pn_taps),
               "chip_rate": record.chip_rate},
        "format": "interleaved complex float32, little endian",
    }
    with open(path + ".json", "w") as f:
        json.dump(sidecar, f, indent=1)


def load_capture(path) -> CaptureRecord:
    path = str(path)
    raw = np.fromfile(path, dtype="<f4")
    samples = raw[0::2].astype(float) + 1j * raw[1::2].astype(float)
    with open(path + ".json") as f:
        sidecar = json.load(f)
    return CaptureRecord(
        samples=samples,
        sample_rate=sidecar["sample_rate"],
        snr_db=sidecar["snr_db"],
        seed=sidecar["seed"],
        pn_m=sidecar["pn"]["m"],
        pn_taps=tuple(sidecar["pn"]["taps"]),
        chip_rate=sidecar["pn"]["chip_rate"],
    )
