"""Background-channel generation and power-control-factor coupling.

The bi-static background reuses the stochastic cluster engine. The
mono-static background (co-located Tx and Rx) is built from explicit
geometric scatterers because no statistical standard covers that mode:
each scatterer contributes one retro-directed echo with a two-way
free-space loss. The power control factor couples the target's presence
to the background as a multiplicative factor on linear received power.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    C_LIGHT,
    Cir,
    Origin,
    angle_from_vector,
    finite_vector,
)
from .gbsm import AntennaModel, GenerationProfile, sample_clusters, synthesize_cir

# Measured power control factors per position, (position, condition, value).
# Conditions refer to the (Tx-target, target-Rx) visibility combination.
PCF_MEASUREMENTS: tuple[tuple[int, str, float], ...] = (
    (1, "los_los", 0.89),
    (2, "los_los", 0.73),
    (3, "los_los", 0.67),
    (4, "los_los", 0.75),
    (5, "los_los", 0.84),
    (6, "los_los", 0.81),
    (7, "los_los", 0.86),
    (8, "los_los", 0.78),
    (9, "los_los", 0.91),
    (10, "los_los", 0.93),
    (11, "los_nlos", 0.89),
    (12, "los_nlos", 0.90),
    (13, "los_nlos", 0.92),
    (14, "los_nlos", 0.95),
)


def pcf_values(condition: str) -> np.ndarray:
    vals = np.array([v for _, c, v in PCF_MEASUREMENTS if c == condition])
    if len(vals) == 0:
        raise ValueError(f"unknown PCF condition {condition!r}")
    return vals


PCF_CLAMP = (0.0, 1.5)  # lower bound exclusive
PCF_INTERVAL = f"({PCF_CLAMP[0]:g}, {PCF_CLAMP[1]:g}]"  # PCF_CLAMP as text


@dataclass(frozen=True)
class PcfModel:
    """Normal model for the power control factor, clamped into PCF_CLAMP."""

    condition: str
    mean: float
    std: float

    def __post_init__(self):
        if self.std < 0.0:
            raise ValueError("std must be >= 0")
        if not (PCF_CLAMP[0] < self.mean <= PCF_CLAMP[1]):
            raise ValueError(f"mean {self.mean} outside {PCF_INTERVAL}")


def default_pcf_model(condition: str) -> PcfModel:
    """PcfModel fitted to the measured per-position values (sample std)."""
    vals = pcf_values(condition)
    std = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
    return PcfModel(condition=condition, mean=float(vals.mean()), std=std)


def sample_pcf(model: PcfModel, seed, size: int | None = None):
    """Draw power control factor(s), clamped into PCF_CLAMP; seeded."""
    rng = np.random.default_rng(seed)
    draws = rng.normal(model.mean, model.std, size if size is not None else 1)
    tiny = np.finfo(float).tiny
    clamped = np.clip(draws, tiny, PCF_CLAMP[1])
    return float(clamped[0]) if size is None else clamped


def apply_pcf(background_power_linear, o_back: float):
    """Scale linear background received power by the power control factor."""
    if not (PCF_CLAMP[0] < o_back <= PCF_CLAMP[1]):
        raise ValueError(f"power control factor {o_back} outside {PCF_INTERVAL}")
    return o_back * background_power_linear


# ---------------------------------------------------------------------------
# Background channels
# ---------------------------------------------------------------------------

def background_bistatic(profile: GenerationProfile, seed: int,
                        tx_antenna: AntennaModel) -> Cir:
    """Statistical background channel for separated Tx and Rx; ``seed`` draws it.

    Structurally identical to a conventional communication-channel
    realization; paths are tagged with the background origin.
    """
    return synthesize_cir(sample_clusters(profile, seed), tx_antenna)


@dataclass(frozen=True, eq=False)
class GeometricScatterer:
    """A discrete environment scatterer for mono-static echoes."""

    position: np.ndarray
    reflection_gain_db: float = 0.0
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "position", finite_vector(self.position, "scatterer position"))


def background_monostatic(scatterers, txrx_position, wl: float) -> Cir:
    """Geometric mono-static background: one retro-directed echo per scatterer.

    Delay is the two-way travel time 2 d / c, arrival and departure
    directions coincide (pointing from the co-located Tx/Rx toward the
    scatterer), and the power follows the two-way free-space loss plus
    the scatterer's reflection gain. An empty scatterer list gives an
    empty CIR.
    """
    if wl <= 0.0:
        raise ValueError("wavelength must be positive")
    p0 = finite_vector(txrx_position, "Tx/Rx position")
    delay, amp, az, el = [], [], [], []
    for sc in scatterers:
        d_vec = sc.position - p0
        dist = float(np.linalg.norm(d_vec))
        if dist <= 0.0:
            raise ValueError(f"scatterer {sc.label!r} coincides with the Tx/Rx position")
        direction_az, direction_el = angle_from_vector(d_vec)
        one_way_amp = wl / (4.0 * math.pi * dist)
        delay.append(2.0 * dist / C_LIGHT)
        amp.append(one_way_amp ** 2
                   * math.sqrt(10.0 ** (sc.reflection_gain_db / 10.0))
                   * complex(np.exp(-1j * 2.0 * math.pi * (2.0 * dist) / wl)))
        az.append(direction_az)
        el.append(direction_el)
    return Cir.from_columns(delay, amp, 0.0, aod_az=az, aod_el=el, aoa_az=az, aoa_el=el,
                            bounce_order=1, origin=Origin.BACKGROUND)
