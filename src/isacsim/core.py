"""Shared domain types, unit conventions, and sparse-path algebra.

Conventions used throughout the package:

* All internal power bookkeeping is linear; dB appears only at API
  boundaries and in file output.
* A direction is an (azimuth, elevation) pair, or an (n, 2) array of
  such rows, in radians. Azimuth is measured counterclockwise from +x in
  the horizontal plane and wrapped into [0, 2 pi) by
  :func:`wrapped_azimuths`; elevation is measured from the horizontal
  and lies in [-pi/2, pi/2].
* Delays are seconds, distances meters, frequencies Hz.
"""
from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterable

import numpy as np

C_LIGHT = 2.99792458e8  # m/s, exact by SI definition

TWO_PI = 2.0 * math.pi

# the largest magnitude of a dB-valued input (a gain, an RCS, a K-factor, an
# SNR): 1e30 linear, so a product of a few such factors stays finite
DB_LIMIT = 300.0


# ---------------------------------------------------------------------------
# dB conversion, wavelength and spreading
# ---------------------------------------------------------------------------

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
    """Single-point-of-truth spreading factor 4 pi / lambda^2, linear.

    The radar equation Pr/Pt = sigma lambda^2 / ((4 pi)^3 d1^2 d2^2) is
    sigma * (4 pi / lambda^2) * (lambda / 4 pi d1)^2 * (lambda / 4 pi d2)^2:
    the two free-space hop gains, the RCS and this factor. Both the
    link-budget arithmetic and the target channel concatenation use it.
    """
    if wl_m <= 0.0:
        raise ValueError("wavelength must be positive")
    return 4.0 * math.pi / (wl_m * wl_m)


def spreading_gain_db(wl_m: float) -> float:
    """10 log10(4 pi / lambda^2)."""
    return linear_to_db(spreading_gain(wl_m))


def finite_vector(value, field: str) -> np.ndarray:
    """``value`` as a float array of shape (3,): a position or velocity.
    Raises ValueError naming ``field`` unless it is three finite numbers."""
    v = np.asarray(value, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise ValueError(f"{field} must be 3 finite numbers, got {value!r}")
    return v


# ---------------------------------------------------------------------------
# Angles
# ---------------------------------------------------------------------------

def wrapped_azimuths(az, el) -> np.ndarray:
    """The azimuths wrapped into [0, 2 pi), once every angle is checked
    to be finite and every elevation to lie within [-pi/2, pi/2]. The
    remainder of a tiny negative azimuth rounds up to 2 pi; it wraps to 0."""
    if not (np.all(np.isfinite(az)) and np.all(np.isfinite(el))):
        raise ValueError("angles must be finite")
    if np.any(np.abs(el) > math.pi / 2):
        raise ValueError("elevation outside [-pi/2, pi/2]")
    wrapped = np.mod(az, TWO_PI)
    return np.where(wrapped == TWO_PI, 0.0, wrapped)


def unit_vectors(az_el) -> np.ndarray:
    """(n, 3) unit vectors for (n, 2) rows of (azimuth, elevation)."""
    az_el = np.asarray(az_el, dtype=float)
    az, el = az_el[:, 0], az_el[:, 1]
    ce = np.cos(el)
    return np.stack([ce * np.cos(az), ce * np.sin(az), np.sin(el)], axis=1)


def angle_from_vector(v: np.ndarray) -> tuple[float, float]:
    """The (azimuth, elevation) pair of any nonzero 3-vector; inverse of
    :func:`unit_vectors` row by row."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("cannot extract angles from a zero or non-finite vector")
    el = math.asin(max(-1.0, min(1.0, v[2] / n)))
    return float(wrapped_azimuths(math.atan2(v[1], v[0]), el)), el


# ---------------------------------------------------------------------------
# RCS models
# ---------------------------------------------------------------------------

# Each model's ``eval_dbsm_pairs(angles_in, angles_out)`` takes (n, 2) and
# (m, 2) rows of (azimuth, elevation) in radians and returns the (n, m)
# dBsm values of every (incoming, outgoing) pair.

def _angle_rows(angles) -> np.ndarray:
    return np.asarray(angles, dtype=float).reshape(-1, 2)


@dataclass(frozen=True)
class ConstantRcs:
    """Angle-independent radar cross section."""

    sigma_dbsm: float

    def eval_dbsm_pairs(self, angles_in, angles_out) -> np.ndarray:
        return np.full((len(_angle_rows(angles_in)), len(_angle_rows(angles_out))),
                       float(self.sigma_dbsm))


@dataclass(frozen=True, eq=False)
class TableRcs:
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
    def _grid(self):
        """(indices of the non-singleton axes, those axes, the values
        over them); singleton axes collapse to their one value."""
        axes = (self.az_in, self.el_in, self.az_out, self.el_out)
        keep = [i for i, ax in enumerate(axes) if len(ax) > 1]
        vals = self.values_dbsm[tuple(slice(None) if i in keep else 0 for i in range(4))]
        return keep, [axes[i] for i in keep], vals

    def eval_dbsm_pairs(self, angles_in, angles_out) -> np.ndarray:
        """Multilinear interpolation over the non-singleton axes, each
        query clamped to the grid: the 2^k corners of its cell, weighted
        by the products of the per-axis fractions."""
        ang_in, ang_out = _angle_rows(angles_in), _angle_rows(angles_out)
        keep, axes, vals = self._grid
        # per table axis, the query coordinate broadcast to (in, out)
        coords = (ang_in[:, :1], ang_in[:, 1:], ang_out[:, 0][None, :], ang_out[:, 1][None, :])
        lo, frac = [], []
        for i, ax in zip(keep, axes):
            x = np.clip(coords[i], ax[0], ax[-1])
            j = np.clip(np.searchsorted(ax, x, side="right") - 1, 0, len(ax) - 2)
            lo.append(j)
            frac.append((x - ax[j]) / (ax[j + 1] - ax[j]))
        out = np.zeros((len(ang_in), len(ang_out)))
        for corner in product((0, 1), repeat=len(keep)):
            weight = 1.0
            for f, c in zip(frac, corner):
                weight = weight * (f if c else 1.0 - f)
            out += weight * vals[tuple(j + c for j, c in zip(lo, corner))]
        return out


RcsModel = ConstantRcs | TableRcs


# ---------------------------------------------------------------------------
# Scattering points and CIRs
# ---------------------------------------------------------------------------

class Origin(enum.Enum):
    TARGET = "target"
    BACKGROUND = "background"
    SHARED = "shared"


@dataclass(frozen=True, eq=False)
class ScatteringPoint:
    """A sensing-target scattering center."""

    position: np.ndarray
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rcs_model: RcsModel = ConstantRcs(0.0)

    def __post_init__(self):
        object.__setattr__(self, "position", finite_vector(self.position, "position"))
        object.__setattr__(self, "velocity", finite_vector(self.velocity, "velocity"))


# Paths are stored by origin code: the index into ORIGINS
ORIGINS = (Origin.TARGET, Origin.BACKGROUND, Origin.SHARED)
_ORIGIN_CODE = {o: i for i, o in enumerate(ORIGINS)}

# the per-path columns of a Cir
COLUMNS = ("delay", "amp", "doppler", "aod_az", "aod_el", "aoa_az", "aoa_el",
           "bounce_order", "origin_code")
_DTYPES = (float, complex, float, float, float, float, float, np.int64, np.int8)
# one path as one little-endian record of those columns: the row type of
# the path table files (target.npy, background.npy)
PATH_RECORD = np.dtype([(name, np.dtype(dt).newbyteorder("<"))
                        for name, dt in zip(COLUMNS, _DTYPES)])


class Cir:
    """Channel impulse response: one column per path attribute, the rows
    sorted by delay (stably, so paths of equal delay keep their order).

    The columns are read-only numpy arrays of one length: ``delay`` (s),
    ``amp`` (complex field gain), ``doppler`` (Hz), ``aod_az``,
    ``aod_el``, ``aoa_az``, ``aoa_el`` (radians, azimuths in [0, 2 pi)),
    ``bounce_order`` (interactions with objects other than the sensing
    target, 0 = direct) and ``origin_code`` (index into ``ORIGINS``).
    ``Cir.from_columns`` and ``Cir.concat`` build one.
    """

    __slots__ = COLUMNS

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Cir with Cir.from_columns or Cir.concat")

    @classmethod
    def from_columns(cls, delay, amp, doppler=0.0, aod_az=0.0, aod_el=0.0,
                     aoa_az=0.0, aoa_el=0.0, bounce_order=0,
                     origin: Origin | np.ndarray = Origin.BACKGROUND) -> "Cir":
        """Cir from per-path arrays; scalars broadcast to every path.
        ``origin`` is one Origin or an array of origin codes. Checks that
        delays are finite and >= 0, amplitudes finite and bounce orders
        >= 0, checks and wraps the angles with wrapped_azimuths and sorts
        the rows by delay."""
        if isinstance(origin, Origin):
            origin = _ORIGIN_CODE[origin]
        delay = np.asarray(delay, dtype=float).ravel()
        n = len(delay)
        raw = (delay, amp, doppler, aod_az, aod_el, aoa_az, aoa_el, bounce_order, origin)
        cols = {}
        for name, v, dt in zip(COLUMNS, raw, _DTYPES):
            arr = np.asarray(v, dtype=dt)
            cols[name] = np.broadcast_to(arr.ravel() if arr.ndim else arr, (n,))
        ok = np.isfinite(delay) & (delay >= 0.0)
        if not ok.all():
            raise ValueError(f"delay must be finite and >= 0, got {delay[~ok][0]}")
        if not np.all(np.isfinite(cols["amp"])):
            raise ValueError("amplitude must be finite")
        if np.any(cols["bounce_order"] < 0):
            raise ValueError("bounce_order must be >= 0")
        for az, el in (("aod_az", "aod_el"), ("aoa_az", "aoa_el")):
            cols[az] = wrapped_azimuths(cols[az], cols[el])
        if np.any((cols["origin_code"] < 0) | (cols["origin_code"] >= len(ORIGINS))):
            raise ValueError("origin code outside ORIGINS")
        return cls._make(_sorted_columns(cols))

    @classmethod
    def concat(cls, cirs: Iterable["Cir"]) -> "Cir":
        """All paths of ``cirs`` in one Cir, stably delay-sorted (so on
        equal delays the earlier Cir's paths come first)."""
        cirs = list(cirs)
        return cls._make(_sorted_columns(
            {name: np.concatenate([getattr(c, name) for c in cirs] or [[]]) for name in COLUMNS}))

    @classmethod
    def _make(cls, cols: dict) -> "Cir":
        """A Cir of columns already checked and sorted by delay."""
        out = object.__new__(cls)
        for name, dt in zip(COLUMNS, _DTYPES):
            arr = np.asarray(cols[name], dtype=dt)
            arr.flags.writeable = False
            object.__setattr__(out, name, arr)
        return out

    def _with(self, **cols) -> "Cir":
        """This Cir with some columns replaced; the delay order must hold."""
        return self._make({name: cols.get(name, getattr(self, name)) for name in COLUMNS})

    def __setattr__(self, name, value):
        raise AttributeError("Cir is immutable")

    def __len__(self) -> int:
        return len(self.delay)

    def __repr__(self) -> str:
        return f"Cir({len(self)} paths)"

    @property
    def paths(self) -> "Cir":
        """The Cir itself, which holds one row per path. Kept so that
        ``len(cir.paths)`` counts the paths, as the benchmark's tracer
        (isacbench/tracing.py) does."""
        return self

    def total_power(self) -> float:
        return math.fsum(self.powers().tolist())

    def powers(self) -> np.ndarray:
        return np.abs(self.amp) ** 2

    def scaled(self, factor: complex) -> "Cir":
        """New Cir with every amplitude multiplied by ``factor``."""
        return self._with(amp=self.amp * factor)


def _sorted_columns(cols: dict) -> dict:
    """The columns as arrays, rows stably sorted by delay."""
    cols = {name: np.asarray(cols[name], dtype=dt) for name, dt in zip(COLUMNS, _DTYPES)}
    order = np.argsort(cols["delay"], kind="stable")
    return {name: arr[order] for name, arr in cols.items()}


# ---------------------------------------------------------------------------
# Path merging
# ---------------------------------------------------------------------------

def _exact_groups(cir: Cir) -> tuple[np.ndarray, np.ndarray]:
    """Group rows with equal (delay, AoA, AoD); -0.0 and 0.0 are equal."""
    keys = (cir.aod_el, cir.aod_az, cir.aoa_el, cir.aoa_az, cir.delay)
    order = np.lexsort(keys)  # stable: equal keys keep row order
    same = np.ones(max(len(order) - 1, 0), dtype=bool)  # row equals the one before
    for k in keys:
        sk = k[order]
        same &= sk[1:] == sk[:-1]
    starts = np.concatenate([np.ones(min(len(order), 1), dtype=bool), ~same])
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    first = order[starts]  # each group's earliest row
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[group], np.sort(first)


def _delay_gap_groups(cir: Cir, delay_tol: float):
    """The anchor scan when no angle test can fail (``angle_tol >= pi``):
    each row joins the latest anchor unless its delay exceeds that
    anchor's by more than ``delay_tol``, so each next anchor is found by
    bisection with the scan's own comparison."""
    delay = cir.delay.tolist()
    anchors: list[int] = []
    i = 0
    while i < len(delay):
        anchors.append(i)
        start = delay[i]
        i = bisect.bisect_right(delay, delay_tol, lo=i + 1, key=lambda d: d - start)
    anchors = np.array(anchors, dtype=np.intp)
    group = np.repeat(np.arange(len(anchors)), np.diff(anchors, append=len(delay)))
    return group, anchors


def merge_paths(paths: Cir, delay_tol: float, angle_tol: float) -> Cir:
    """Coherently merge the paths of a Cir that coincide.

    Each group of coinciding paths becomes its anchor, its earliest row,
    with the complex sum of the group's amplitudes, added in row order.
    The anchor supplies the delay, angles, Doppler and bounce order,
    which makes the merge idempotent. Mixed-origin groups become SHARED.
    Two rules are supported:

    * ``delay_tol == angle_tol == 0``: paths with equal delay, AoA and
      AoD coincide, found by sorting on that key.
    * ``angle_tol >= pi``: every angle test passes, so each row joins
      the latest anchor unless its delay exceeds the anchor's by more
      than ``delay_tol`` (>= 0).

    Any other tolerance pair raises ValueError.
    """
    if not isinstance(paths, Cir):
        raise ValueError(f"merge_paths takes a Cir, not {type(paths).__name__}")
    if delay_tol == 0.0 and angle_tol == 0.0:
        group, anchors = _exact_groups(paths)
    elif delay_tol >= 0.0 and angle_tol >= math.pi:
        # wrapped azimuth distances are at most pi and elevations lie in
        # [-pi/2, pi/2], so only the delays decide the groups
        group, anchors = _delay_gap_groups(paths, delay_tol)
    else:
        raise ValueError(f"merge_paths supports tolerances (0, 0) or (>= 0, >= pi), "
                         f"not ({delay_tol}, {angle_tol})")
    members = np.ones(len(paths), dtype=bool)
    members[anchors] = False
    members = np.flatnonzero(members)
    sums = paths.amp[anchors]
    np.add.at(sums, group[members], paths.amp[members])  # in row order
    origin = paths.origin_code[anchors]
    mixed = group[paths.origin_code != origin[group]]
    origin[mixed] = _ORIGIN_CODE[Origin.SHARED]
    cols = {name: getattr(paths, name)[anchors] for name in COLUMNS}
    cols.update(amp=sums, origin_code=origin)
    return paths._with(**cols)
