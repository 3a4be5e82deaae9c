"""Shared domain types, unit conventions, and sparse-path algebra.

Conventions used throughout the package:

* All internal power bookkeeping is linear; dB appears only at API
  boundaries and in file output.
* Azimuth is measured counterclockwise from +x in the horizontal plane,
  elevation from the horizontal; both in radians.
* Delays are seconds, distances meters, frequencies Hz.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable

import numpy as np

C_LIGHT = 2.99792458e8  # m/s, exact by SI definition

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# dB / linear conversions
# ---------------------------------------------------------------------------

def db_to_linear(x_db):
    """Convert a power quantity from dB to linear scale."""
    if np.ndim(x_db) == 0:
        return 10.0 ** (float(x_db) / 10.0)
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def linear_to_db(x):
    """Convert a linear power quantity to dB. Raises on non-positive input."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError(f"linear_to_db requires positive input, got {x!r}")
    out = 10.0 * np.log10(arr)
    return float(out) if np.ndim(x) == 0 else out


def wavelength_m(carrier_freq_hz: float) -> float:
    """Carrier wavelength lambda = c / f."""
    if carrier_freq_hz <= 0.0:
        raise ValueError("carrier frequency must be positive")
    return C_LIGHT / carrier_freq_hz


def spreading_gain(wl_m: float) -> float:
    """Single-point-of-truth spreading factor lambda^2 / (4 pi), linear.

    This constant couples the two-hop link budget to the concatenated
    small-scale model; both the link-budget arithmetic and the target
    channel concatenation use this definition.
    """
    if wl_m <= 0.0:
        raise ValueError("wavelength must be positive")
    return wl_m * wl_m / (4.0 * math.pi)


def spreading_gain_db(wl_m: float) -> float:
    """10 log10(lambda^2 / 4 pi)."""
    return linear_to_db(spreading_gain(wl_m))


# ---------------------------------------------------------------------------
# Angles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Angle3D:
    """A 3-D direction: azimuth in [0, 2 pi), elevation in [-pi/2, pi/2]."""

    azimuth: float
    elevation: float

    def __post_init__(self):
        az = float(self.azimuth) % TWO_PI
        el = float(self.elevation)
        if not math.isfinite(az) or not math.isfinite(el):
            raise ValueError("angles must be finite")
        if not (-math.pi / 2 <= el <= math.pi / 2):
            raise ValueError(f"elevation {el} outside [-pi/2, pi/2]")
        object.__setattr__(self, "azimuth", az)
        object.__setattr__(self, "elevation", el)

    @classmethod
    def from_degrees(cls, az_deg: float, el_deg: float = 0.0) -> "Angle3D":
        return cls(math.radians(az_deg), math.radians(el_deg))


def unit_vector(angle: Angle3D) -> np.ndarray:
    """Unit direction vector (x, y, z) for an azimuth/elevation pair."""
    ce = math.cos(angle.elevation)
    return np.array([
        ce * math.cos(angle.azimuth),
        ce * math.sin(angle.azimuth),
        math.sin(angle.elevation),
    ])


def unit_vectors(az_el) -> np.ndarray:
    """(n, 3) unit vectors for (n, 2) rows of (azimuth, elevation)."""
    az_el = np.asarray(az_el, dtype=float)
    az, el = az_el[:, 0], az_el[:, 1]
    ce = np.cos(el)
    return np.stack([ce * np.cos(az), ce * np.sin(az), np.sin(el)], axis=1)


def angle_from_vector(v: np.ndarray) -> Angle3D:
    """Inverse of :func:`unit_vector`; accepts any nonzero 3-vector."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("cannot extract angles from a zero or non-finite vector")
    el = math.asin(max(-1.0, min(1.0, v[2] / n)))
    az = math.atan2(v[1], v[0]) % TWO_PI
    return Angle3D(az, el)


def wrapped_angle_distance(a: float, b: float) -> float:
    """Shortest angular distance between two azimuths, radians in [0, pi]."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def angles_close(a: Angle3D, b: Angle3D, tol: float) -> bool:
    """True if both azimuth and elevation differ by at most tol radians."""
    return (wrapped_angle_distance(a.azimuth, b.azimuth) <= tol
            and abs(a.elevation - b.elevation) <= tol)


# ---------------------------------------------------------------------------
# Path components
# ---------------------------------------------------------------------------

class Origin(enum.Enum):
    TARGET = "target"
    BACKGROUND = "background"
    SHARED = "shared"


@dataclass(frozen=True)
class PathComponent:
    """One resolvable multipath component.

    ``amp`` is the complex field gain after antenna projection; ``power``
    is |amp|^2 (linear). ``bounce_order`` counts interactions with
    environment objects other than the sensing target (0 = direct).
    """

    delay: float
    amp: complex
    doppler: float = 0.0
    aod: Angle3D = Angle3D(0.0, 0.0)
    aoa: Angle3D = Angle3D(0.0, 0.0)
    bounce_order: int = 0
    origin: Origin = Origin.BACKGROUND

    def __post_init__(self):
        if not math.isfinite(self.delay) or self.delay < 0.0:
            raise ValueError(f"delay must be finite and >= 0, got {self.delay}")
        if not (math.isfinite(self.amp.real) and math.isfinite(self.amp.imag)):
            raise ValueError("amplitude must be finite")
        if self.bounce_order < 0:
            raise ValueError("bounce_order must be >= 0")

    @property
    def power(self) -> float:
        return abs(self.amp) ** 2


# ---------------------------------------------------------------------------
# RCS models
# ---------------------------------------------------------------------------

def _angle_rows(angles) -> np.ndarray:
    return np.asarray(angles, dtype=float).reshape(-1, 2)


class _PairwiseRcs:
    """Scalar evaluation on top of a model's ``eval_dbsm_pairs``.

    ``eval_dbsm_pairs(angles_in, angles_out)`` takes (n, 2) and (m, 2)
    rows of (azimuth, elevation) in radians and returns the (n, m)
    dBsm values of every (incoming, outgoing) pair.
    """

    def eval_dbsm(self, g_in: Angle3D, g_out: Angle3D) -> float:
        return float(self.eval_dbsm_pairs([[g_in.azimuth, g_in.elevation]],
                                          [[g_out.azimuth, g_out.elevation]])[0, 0])


@dataclass(frozen=True)
class ConstantRcs(_PairwiseRcs):
    """Angle-independent radar cross section."""

    sigma_dbsm: float

    def eval_dbsm_pairs(self, angles_in, angles_out) -> np.ndarray:
        return np.full((len(_angle_rows(angles_in)), len(_angle_rows(angles_out))),
                       float(self.sigma_dbsm))


@dataclass(frozen=True)
class CosineLobeRcs(_PairwiseRcs):
    """Scattering lobe sigma0 * cos(theta)^exponent about a lobe axis.

    The angular argument is the mean off-axis angle of the incoming and
    outgoing directions. ``exponent = 0`` degenerates to a constant.
    The cosine is floored at 1e-30 so the dBsm value stays finite.
    """

    sigma0_dbsm: float
    exponent: float = 0.0
    axis: Angle3D = Angle3D(0.0, 0.0)

    def __post_init__(self):
        if self.exponent < 0.0:
            raise ValueError("cosine lobe exponent must be >= 0")

    def eval_dbsm_pairs(self, angles_in, angles_out) -> np.ndarray:
        ax = unit_vectors([[self.axis.azimuth, self.axis.elevation]])[0]
        c_in = unit_vectors(_angle_rows(angles_in)) @ ax
        c_out = unit_vectors(_angle_rows(angles_out)) @ ax
        c = np.maximum(0.5 * (c_in[:, None] + c_out[None, :]), 1e-30)
        return self.sigma0_dbsm + 10.0 * self.exponent * np.log10(c)


@dataclass(frozen=True, eq=False)
class TableRcs(_PairwiseRcs):
    """Gridded RCS over (incoming, outgoing) angle pairs, dBsm values.

    Axes are radians; queries outside the grid clamp to the boundary
    (never extrapolate). Singleton axes are allowed and collapse.
    """

    az_in: np.ndarray
    el_in: np.ndarray
    az_out: np.ndarray
    el_out: np.ndarray
    values_dbsm: np.ndarray  # shape (az_in, el_in, az_out, el_out)

    def __post_init__(self):
        vals = np.asarray(self.values_dbsm, dtype=float)
        axes = tuple(np.atleast_1d(np.asarray(a, dtype=float))
                     for a in (self.az_in, self.el_in, self.az_out, self.el_out))
        expected = tuple(len(a) for a in axes)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} != axes {expected}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("RCS table must be finite")
        for a in axes:
            if len(a) > 1 and np.any(np.diff(a) <= 0):
                raise ValueError("RCS table axes must be strictly increasing")
        object.__setattr__(self, "az_in", axes[0])
        object.__setattr__(self, "el_in", axes[1])
        object.__setattr__(self, "az_out", axes[2])
        object.__setattr__(self, "el_out", axes[3])
        object.__setattr__(self, "values_dbsm", vals)

    @cached_property
    def _interpolator(self):
        """(indices of the non-singleton axes, linear interpolator over
        them), built on first use; with no such axis the interpolator is
        the table's single value."""
        axes = (self.az_in, self.el_in, self.az_out, self.el_out)
        keep = [i for i, ax in enumerate(axes) if len(ax) > 1]
        vals = self.values_dbsm[tuple(slice(None) if i in keep else 0 for i in range(4))]
        if not keep:
            return keep, float(vals)
        from scipy.interpolate import RegularGridInterpolator
        return keep, RegularGridInterpolator(tuple(axes[i] for i in keep), vals,
                                             method="linear")

    def eval_dbsm_pairs(self, angles_in, angles_out) -> np.ndarray:
        ang_in, ang_out = _angle_rows(angles_in), _angle_rows(angles_out)
        n, m = len(ang_in), len(ang_out)
        keep, interp = self._interpolator
        if not keep:
            return np.full((n, m), interp)
        query = np.concatenate([np.broadcast_to(ang_in[:, None, :], (n, m, 2)),
                                np.broadcast_to(ang_out[None, :, :], (n, m, 2))],
                               axis=2)[..., keep]
        grid = interp.grid
        lo = np.array([ax[0] for ax in grid])
        hi = np.array([ax[-1] for ax in grid])
        return interp(np.clip(query, lo, hi).reshape(-1, len(keep))).reshape(n, m)


RcsModel = ConstantRcs | CosineLobeRcs | TableRcs


# ---------------------------------------------------------------------------
# Scattering points and CIRs
# ---------------------------------------------------------------------------

def identity_cpm() -> np.ndarray:
    """2x2 identity polarization matrix (no polarization twist)."""
    return np.eye(2, dtype=complex)


@dataclass(frozen=True, eq=False)
class ScatteringPoint:
    """A sensing-target scattering center."""

    position: np.ndarray
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rcs_model: RcsModel = ConstantRcs(0.0)
    cpm_k: np.ndarray = field(default_factory=identity_cpm)

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float).reshape(3)
        vel = np.asarray(self.velocity, dtype=float).reshape(3)
        cpm = np.asarray(self.cpm_k, dtype=complex)
        if cpm.shape != (2, 2) or not np.all(np.isfinite(cpm)):
            raise ValueError("cpm_k must be a finite 2x2 complex matrix")
        if not np.all(np.isfinite(pos)) or not np.all(np.isfinite(vel)):
            raise ValueError("position and velocity must be finite")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)
        object.__setattr__(self, "cpm_k", cpm)


@dataclass(frozen=True)
class Cir:
    """Channel impulse response: delay-sorted sparse path components."""

    paths: tuple[PathComponent, ...]
    t0: float = 0.0
    carrier_freq: float = 0.0

    def __post_init__(self):
        ordered = tuple(sorted(self.paths, key=lambda p: p.delay))
        object.__setattr__(self, "paths", ordered)

    def __len__(self) -> int:
        return len(self.paths)

    def total_power(self) -> float:
        return float(sum(p.power for p in self.paths))

    def delays(self) -> np.ndarray:
        return np.array([p.delay for p in self.paths])

    def amps(self) -> np.ndarray:
        return np.array([p.amp for p in self.paths], dtype=complex)

    def scaled(self, factor: complex) -> "Cir":
        """New Cir with every amplitude multiplied by ``factor``."""
        amps = (self.amps() * factor).tolist()
        return Cir(tuple(PathComponent(p.delay, amp, p.doppler, p.aod, p.aoa,
                                       p.bounce_order, p.origin)
                         for p, amp in zip(self.paths, amps)),
                   t0=self.t0, carrier_freq=self.carrier_freq)


# ---------------------------------------------------------------------------
# Path merging
# ---------------------------------------------------------------------------

def merge_paths(paths: Iterable[PathComponent], delay_tol: float,
                angle_tol: float) -> list[PathComponent]:
    """Coherently merge paths that coincide within the given tolerances.

    Paths whose delay differs by at most ``delay_tol`` and whose AoA and
    AoD both differ by at most ``angle_tol`` from a group anchor are
    summed as complex amplitudes. The anchor (earliest-delay member)
    supplies the merged delay, angles, Doppler, and bounce order, which
    makes the operation idempotent. Mixed-origin groups become SHARED.

    With both tolerances zero only paths with equal delay and angles
    coincide, and the anchor is found by that exact key in constant
    time instead of by scanning the anchors.

    Args:
        paths: any iterable of PathComponent.
        delay_tol: seconds, >= 0.
        angle_tol: radians, >= 0.

    Returns:
        Delay-sorted list of merged components.
    """
    if delay_tol < 0.0:
        raise ValueError("delay_tol must be >= 0")
    ordered = sorted(paths, key=lambda p: p.delay)
    anchors: list[PathComponent] = []
    sums: list[complex] = []
    origins: list[set] = []
    sizes: list[int] = []
    exact = delay_tol == 0.0 and angle_tol == 0.0
    by_key: dict[tuple[float, ...], int] = {}
    for p in ordered:
        if exact:
            # azimuths are normalized, so a zero wrapped distance means
            # equal floats; -0.0 and 0.0 are one key, as they match in the scan
            gi = by_key.setdefault(
                (p.delay, p.aoa.azimuth, p.aoa.elevation, p.aod.azimuth, p.aod.elevation),
                len(anchors))
            placed = gi < len(anchors)
        else:
            placed = False
            for gi in range(len(anchors) - 1, -1, -1):
                a = anchors[gi]
                if p.delay - a.delay > delay_tol:
                    break  # anchors are delay-sorted; earlier ones are farther
                if angles_close(p.aoa, a.aoa, angle_tol) and angles_close(p.aod, a.aod, angle_tol):
                    placed = True
                    break
        if placed:
            sums[gi] += p.amp
            origins[gi].add(p.origin)
            sizes[gi] += 1
        else:
            anchors.append(p)
            sums.append(p.amp)
            origins.append({p.origin})
            sizes.append(1)
    merged = []
    for a, s, og, size in zip(anchors, sums, origins, sizes):
        if size == 1:  # nothing merged: the anchor is its own result
            merged.append(a)
        else:
            merged.append(replace(a, amp=s, origin=a.origin if len(og) == 1 else Origin.SHARED))
    return merged
