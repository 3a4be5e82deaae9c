"""Shared domain types, unit conventions, and sparse-path algebra.

Conventions used throughout the package:

* All internal power bookkeeping is linear; dB appears only at API
  boundaries and in file output.
* Azimuth is measured counterclockwise from +x in the horizontal plane,
  elevation from the horizontal; both in radians.
* Delays are seconds, distances meters, frequencies Hz.
"""
from __future__ import annotations

import bisect
import enum
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
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
        if az == TWO_PI:  # the remainder of a tiny negative azimuth rounds up
            az = 0.0
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


def wrapped_azimuths(az, el) -> np.ndarray:
    """The azimuths wrapped into [0, 2 pi) as Angle3D wraps them, once
    every angle is checked to be finite and every elevation to lie
    within [-pi/2, pi/2]."""
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


# Path components are stored by origin code: the index into ORIGINS
ORIGINS = (Origin.TARGET, Origin.BACKGROUND, Origin.SHARED)
_ORIGIN_CODE = {o: i for i, o in enumerate(ORIGINS)}

# the per-path columns of a Cir, in PathComponent field order
COLUMNS = ("delay", "amp", "doppler", "aod_az", "aod_el", "aoa_az", "aoa_el",
           "bounce_order", "origin_code")
_DTYPES = (float, complex, float, float, float, float, float, np.int64, np.int8)
# one path as one little-endian record of those columns: the row type of
# the path table files (target.npy, background.npy)
PATH_RECORD = np.dtype([(name, np.dtype(dt).newbyteorder("<"))
                        for name, dt in zip(COLUMNS, _DTYPES)])


def _path_from_row(delay, amp, doppler, aod_az, aod_el, aoa_az, aoa_el,
                   bounce_order, origin_code) -> PathComponent:
    return PathComponent(delay, amp, doppler, Angle3D(aod_az, aod_el),
                         Angle3D(aoa_az, aoa_el), bounce_order, ORIGINS[origin_code])


class Cir:
    """Channel impulse response: one column per path attribute, the rows
    sorted by delay (stably, so paths of equal delay keep their order).

    The columns are read-only numpy arrays of one length: ``delay`` (s),
    ``amp`` (complex field gain), ``doppler`` (Hz), ``aod_az``,
    ``aod_el``, ``aoa_az``, ``aoa_el`` (radians, azimuths in [0, 2 pi)),
    ``bounce_order`` and ``origin_code`` (index into ``ORIGINS``).
    ``Cir(paths)`` builds the columns from PathComponents; ``paths`` is a
    sequence view that builds a PathComponent per row on access.
    """

    __slots__ = COLUMNS + ("t0", "carrier_freq")

    def __init__(self, paths: Iterable[PathComponent] = (), t0: float = 0.0,
                 carrier_freq: float = 0.0):
        if isinstance(paths, PathView):
            cols = {name: getattr(paths._cir, name) for name in COLUMNS}
        else:
            rows = [(p.delay, p.amp, p.doppler, p.aod.azimuth, p.aod.elevation,
                     p.aoa.azimuth, p.aoa.elevation, p.bounce_order, _ORIGIN_CODE[p.origin])
                    for p in paths]
            cols = dict(zip(COLUMNS, zip(*rows) if rows else [()] * len(COLUMNS)))
        self._assign(_sorted_columns(cols), t0, carrier_freq)

    @classmethod
    def from_columns(cls, delay, amp, doppler=0.0, aod_az=0.0, aod_el=0.0,
                     aoa_az=0.0, aoa_el=0.0, bounce_order=0,
                     origin: Origin | np.ndarray = Origin.BACKGROUND,
                     t0: float = 0.0, carrier_freq: float = 0.0) -> "Cir":
        """Cir from per-path arrays; scalars broadcast to every path.
        ``origin`` is one Origin or an array of origin codes. Checks the
        values as PathComponent and Angle3D do, normalizes the azimuths
        and sorts the rows by delay."""
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
        return cls._make(_sorted_columns(cols), t0, carrier_freq)

    @classmethod
    def concat(cls, cirs: Iterable["Cir"], t0: float = 0.0,
               carrier_freq: float = 0.0) -> "Cir":
        """All paths of ``cirs`` in one Cir, stably delay-sorted (so on
        equal delays the earlier Cir's paths come first)."""
        cirs = list(cirs)
        return cls._make(_sorted_columns(
            {name: np.concatenate([getattr(c, name) for c in cirs] or [[]]) for name in COLUMNS}),
            t0, carrier_freq)

    @classmethod
    def _make(cls, cols: dict, t0: float, carrier_freq: float) -> "Cir":
        """A Cir of columns already checked and sorted by delay."""
        out = object.__new__(cls)
        out._assign(cols, t0, carrier_freq)
        return out

    def _assign(self, cols: dict, t0: float, carrier_freq: float) -> None:
        for name, dt in zip(COLUMNS, _DTYPES):
            arr = np.asarray(cols[name], dtype=dt)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "carrier_freq", carrier_freq)

    def _with(self, **cols) -> "Cir":
        """This Cir with some columns replaced; the delay order must hold."""
        return self._make({name: cols.get(name, getattr(self, name)) for name in COLUMNS},
                          self.t0, self.carrier_freq)

    def __setattr__(self, name, value):
        raise AttributeError("Cir is immutable")

    def __len__(self) -> int:
        return len(self.delay)

    def __repr__(self) -> str:
        return f"Cir({len(self)} paths, t0={self.t0}, carrier_freq={self.carrier_freq})"

    @property
    def paths(self) -> "PathView":
        return PathView(self)

    def total_power(self) -> float:
        return math.fsum(self.powers().tolist())

    def delays(self) -> np.ndarray:
        return self.delay

    def amps(self) -> np.ndarray:
        return self.amp

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


class PathView(Sequence):
    """Read-only sequence of a Cir's paths; each access builds the
    PathComponent of a row, so holding the view costs nothing."""

    __slots__ = ("_cir",)

    def __init__(self, cir: Cir):
        self._cir = cir

    def __len__(self) -> int:
        return len(self._cir)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        n = len(self)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError("path index out of range")
        return _path_from_row(*(getattr(self._cir, name)[i].item() for name in COLUMNS))

    def __iter__(self):
        return map(_path_from_row, *(getattr(self._cir, name).tolist() for name in COLUMNS))

    def __repr__(self) -> str:
        return f"PathView({len(self)} paths)"


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


def _anchor_groups(cir: Cir, delay_tol: float, angle_tol: float):
    """The anchor scan: each row, in delay order, joins the latest anchor
    within both tolerances, scanning back while delays are in reach."""
    delay, aod_az, aod_el, aoa_az, aoa_el = (
        getattr(cir, name).tolist() for name in ("delay", "aod_az", "aod_el", "aoa_az", "aoa_el"))
    anchors: list[int] = []
    group = [0] * len(delay)
    for i, d in enumerate(delay):
        gi = -1
        for g in range(len(anchors) - 1, -1, -1):
            a = anchors[g]
            if d - delay[a] > delay_tol:
                break  # anchors are delay-sorted; earlier ones are farther
            if (wrapped_angle_distance(aoa_az[i], aoa_az[a]) <= angle_tol
                    and abs(aoa_el[i] - aoa_el[a]) <= angle_tol
                    and wrapped_angle_distance(aod_az[i], aod_az[a]) <= angle_tol
                    and abs(aod_el[i] - aod_el[a]) <= angle_tol):
                gi = g
                break
        if gi < 0:
            gi = len(anchors)
            anchors.append(i)
        group[i] = gi
    return np.array(group, dtype=np.intp), np.array(anchors, dtype=np.intp)


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


def merge_paths(paths: Cir | Iterable[PathComponent], delay_tol: float,
                angle_tol: float) -> Cir | list[PathComponent]:
    """Coherently merge paths that coincide within the given tolerances.

    Paths whose delay differs by at most ``delay_tol`` and whose AoA and
    AoD both differ by at most ``angle_tol`` from a group anchor are
    summed as complex amplitudes, in delay order. The anchor
    (earliest-delay member) supplies the merged delay, angles, Doppler,
    and bounce order, which makes the operation idempotent. Mixed-origin
    groups become SHARED.

    With both tolerances zero only paths with equal delay and angles
    coincide, and the groups are found by sorting on that exact key
    instead of by scanning the anchors. With ``angle_tol >= pi`` every
    angle test passes, and each next anchor is found by bisecting the
    delays.

    Args:
        paths: a Cir, or any iterable of PathComponent.
        delay_tol: seconds, >= 0.
        angle_tol: radians, >= 0.

    Returns:
        The merged Cir for a Cir, otherwise a delay-sorted list of
        merged components.
    """
    if delay_tol < 0.0:
        raise ValueError("delay_tol must be >= 0")
    cir = paths if isinstance(paths, Cir) else Cir(paths)
    if delay_tol == 0.0 and angle_tol == 0.0:
        group, anchors = _exact_groups(cir)
    elif angle_tol >= math.pi:
        # wrapped azimuth distances are at most pi and elevations lie in
        # [-pi/2, pi/2], so only the delays decide the groups
        group, anchors = _delay_gap_groups(cir, delay_tol)
    else:
        group, anchors = _anchor_groups(cir, delay_tol, angle_tol)
    members = np.ones(len(cir), dtype=bool)
    members[anchors] = False
    members = np.flatnonzero(members)
    sums = cir.amp[anchors]
    np.add.at(sums, group[members], cir.amp[members])  # in row order
    origin = cir.origin_code[anchors]
    mixed = group[cir.origin_code != origin[group]]
    origin[mixed] = _ORIGIN_CODE[Origin.SHARED]
    cols = {name: getattr(cir, name)[anchors] for name in COLUMNS}
    cols.update(amp=sums, origin_code=origin)
    merged = cir._with(**cols)
    return merged if isinstance(paths, Cir) else list(merged.paths)
