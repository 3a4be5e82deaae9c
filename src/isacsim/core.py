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
import math
import operator
from itertools import product
from pathlib import Path
from typing import Iterable

import numpy as np

C_LIGHT = 2.99792458e8  # m/s, exact by SI definition

TWO_PI = 2.0 * math.pi

# the largest magnitude of a dB-valued input (a gain, an RCS, a K-factor, an
# SNR): 1e30 linear, so a product of a few such factors stays finite
DB_LIMIT = 300.0


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

# how a record's fields are filled, past Record.__setattr__
setfield = object.__setattr__


class Record:
    """An immutable record. ``__slots__`` names its fields, which its own
    ``__init__`` fills with :meth:`_fill`; after that, assigning or
    deleting an attribute raises AttributeError. A record compares by
    identity (a ValueRecord by value), and its repr names its class and
    each field except those in ``_unlisted``."""

    __slots__ = ()
    _unlisted = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fill(self, *values):
        """Set the fields to ``values``, one per slot, in ``__slots__`` order."""
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes {len(self.__slots__)} fields, "
                            f"got {len(values)}")
        for name, value in zip(self.__slots__, values):
            setfield(self, name, value)

    def __setstate__(self, state):
        """Fill a copied or unpickled record from the (``__dict__``, slots)
        pair of its original's state."""
        for part in state:
            for name, value in (part or {}).items():
                setfield(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__ if name not in self._unlisted)
        return f"{type(self).__qualname__}({fields})"


class ValueRecord(Record):
    """A record equal to each record of its class whose fields are equal,
    and hashed as the tuple of its fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


# ---------------------------------------------------------------------------
# dB conversion, wavelength and spreading
# ---------------------------------------------------------------------------

def linear_to_db(x):
    """Convert a linear power quantity to dB. Raises unless it is finite and > 0."""
    out = 10.0 * np.log10(finite_number(x, "linear power", "> 0"))
    return float(out) if np.ndim(x) == 0 else out


def wavelength_m(carrier_freq_hz: float) -> float:
    """Carrier wavelength lambda = c / f."""
    return C_LIGHT / finite_number(carrier_freq_hz, "carrier_freq_hz", "> 0")


def spreading_gain(wl_m: float) -> float:
    """Single-point-of-truth spreading factor 4 pi / lambda^2, linear.

    The radar equation Pr/Pt = sigma lambda^2 / ((4 pi)^3 d1^2 d2^2) is
    sigma * (4 pi / lambda^2) * (lambda / 4 pi d1)^2 * (lambda / 4 pi d2)^2:
    the two free-space hop gains, the RCS and this factor. Both the
    link-budget arithmetic and the target channel concatenation use it.
    """
    finite_number(wl_m, "wl_m", "> 0")
    return 4.0 * math.pi / (wl_m * wl_m)


def spreading_gain_db(wl_m: float) -> float:
    """10 log10(4 pi / lambda^2)."""
    return linear_to_db(spreading_gain(wl_m))


# the sign rules of finite_number, keyed by the text of its message
_SIGNS = {">= 0": operator.ge, "> 0": operator.gt}


def finite_number(value, field: str, sign: str = ""):
    """``value`` (a number or an array) itself, once each of its numbers is
    checked to be finite and, where ``sign`` is ">= 0" or "> 0", to have that
    sign. Raises ValueError "<field> must be finite[ and <sign>], got <the
    first number that is not>"."""
    if (isinstance(value, (int, float)) and math.isfinite(value)
            and (not sign or _SIGNS[sign](value, 0))):
        return value  # one good number, checked without an array
    x = np.asarray(value)
    ok = np.True_ if x.dtype.kind in "iub" else np.isfinite(x)  # an integer is finite
    if sign:
        ok = ok & _SIGNS[sign](x, 0)
    if not ok.all():
        bad = (x[~ok] if x.ndim else x).flat[0].item()
        rule = f"finite and {sign}" if sign else "finite"
        raise ValueError(f"{field} must be {rule}, got {bad!r}")
    return value


def finite_vector(value, field: str) -> np.ndarray:
    """``value`` as a float array of shape (3,): a position or velocity.
    Raises ValueError naming ``field`` unless it is three finite numbers."""
    v = np.asarray(value, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise ValueError(f"{field} must be 3 finite numbers, got {value!r}")
    return v


def read_only(value, dtype=None) -> np.ndarray:
    """A read-only copy of ``value`` as an array (of ``dtype``, where given)."""
    v = np.array(value, dtype=dtype)
    v.flags.writeable = False
    return v


# ---------------------------------------------------------------------------
# Angles
# ---------------------------------------------------------------------------

def wrapped_azimuths(az, el) -> np.ndarray:
    """The azimuths wrapped into [0, 2 pi), once every angle is checked
    to be finite and every elevation to lie within [-pi/2, pi/2]. The
    remainder of a tiny negative azimuth rounds up to 2 pi; it wraps to 0."""
    az, el = np.asarray(az, dtype=float), np.asarray(el, dtype=float)
    if not (np.isfinite(az).all() and np.isfinite(el).all()):
        raise ValueError("angles must be finite")
    if (np.abs(el) > math.pi / 2).any():
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


class ConstantRcs(ValueRecord):
    """Angle-independent radar cross section."""

    __slots__ = ("sigma_dbsm",)

    def __init__(self, sigma_dbsm: float):
        self._fill(finite_number(sigma_dbsm, "sigma_dbsm"))

    def eval_dbsm_pairs(self, angles_in, angles_out) -> np.ndarray:
        return np.full((len(_angle_rows(angles_in)), len(_angle_rows(angles_out))),
                       float(self.sigma_dbsm))


class TableRcs(Record):
    """Gridded RCS over (incoming, outgoing) angle pairs, dBsm values of
    shape (az_in, el_in, az_out, el_out).

    Axes are radians; queries outside the grid clamp to the boundary
    (never extrapolate). Singleton axes are allowed and collapse.
    """

    __slots__ = ("az_in", "el_in", "az_out", "el_out", "values_dbsm", "_grid")
    # (indices of the non-singleton axes, those axes, the values over them):
    # singleton axes collapse to their one value
    _unlisted = ("_grid",)

    def __init__(self, az_in, el_in, az_out, el_out, values_dbsm):
        vals = finite_number(np.asarray(values_dbsm, dtype=float), "RCS table values")
        axes = tuple(np.atleast_1d(np.asarray(a, dtype=float))
                     for a in (az_in, el_in, az_out, el_out))
        expected = tuple(len(a) for a in axes)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} != axes {expected}")
        for a in axes:
            if not np.all(np.isfinite(a)) or np.any(np.diff(a) <= 0):
                raise ValueError("RCS table axes must be finite and strictly increasing")
        keep = [i for i, ax in enumerate(axes) if len(ax) > 1]
        self._fill(*axes, vals, (keep, [axes[i] for i in keep], vals[
            tuple(slice(None) if i in keep else 0 for i in range(4))]))

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

class ScatteringPoint(Record):
    """A sensing-target scattering center."""

    __slots__ = ("position", "velocity", "rcs_model")

    def __init__(self, position, velocity=(0.0, 0.0, 0.0),
                 rcs_model: RcsModel = ConstantRcs(0.0)):
        self._fill(finite_vector(position, "position"), finite_vector(velocity, "velocity"),
                   rcs_model)


# the per-path columns of a Cir
COLUMNS = ("delay", "amp", "doppler", "aod_az", "aod_el", "aoa_az", "aoa_el",
           "bounce_order")
_DTYPES = (float, complex, float, float, float, float, float, np.int64)
# one path as one little-endian record of those columns: the row type of
# the path table files (target.npy, background.npy)
PATH_RECORD = np.dtype([(name, np.dtype(dt).newbyteorder("<"))
                        for name, dt in zip(COLUMNS, _DTYPES)])


class Cir(Record):
    """Channel impulse response: one column per path attribute, the rows
    sorted by delay (stably, so paths of equal delay keep their order).

    The columns are read-only numpy arrays of one length: ``delay`` (s),
    ``amp`` (complex field gain), ``doppler`` (Hz), ``aod_az``,
    ``aod_el``, ``aoa_az``, ``aoa_el`` (radians, azimuths in [0, 2 pi)),
    ``bounce_order`` (interactions with objects other than the sensing
    target, 0 = direct). ``Cir.from_columns`` and ``Cir.concat`` build one.
    """

    __slots__ = COLUMNS

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Cir with Cir.from_columns or Cir.concat")

    @classmethod
    def from_columns(cls, delay, amp, doppler=0.0, aod_az=0.0, aod_el=0.0,
                     aoa_az=0.0, aoa_el=0.0, bounce_order=0) -> "Cir":
        """Cir from per-path arrays; scalars broadcast to every path.
        Checks that delays are finite and >= 0, amplitudes and Dopplers
        finite and bounce orders >= 0, checks and wraps the angles with
        wrapped_azimuths and sorts the rows by delay."""
        raw = (delay, amp, doppler, aod_az, aod_el, aoa_az, aoa_el, bounce_order)
        n = np.size(delay)
        # the columns built here (a dtype conversion or contiguous copy of a
        # caller's array, the wrapped azimuths): no caller holds these
        cols, made = {}, {"aod_az", "aoa_az"}
        for name, v, dt in zip(COLUMNS, raw, _DTYPES):
            arr = np.asarray(v, dtype=dt)
            arr = arr.ravel() if arr.ndim else arr
            if arr.shape != (n,):
                arr = np.broadcast_to(arr, (n,))
            elif isinstance(v, np.ndarray) and arr is not v and arr.base is None:
                made.add(name)
            cols[name] = arr
        for name, label, sign in (("delay", "delay", ">= 0"), ("amp", "amplitude", ""),
                                  ("doppler", "Doppler", ""),
                                  ("bounce_order", "bounce_order", ">= 0")):
            finite_number(cols[name], label, sign)
        for az, el in (("aod_az", "aod_el"), ("aoa_az", "aoa_el")):
            cols[az] = wrapped_azimuths(cols[az], cols[el])
        return cls._make(_sorted_columns(cols, made))

    @classmethod
    def concat(cls, cirs: Iterable["Cir"]) -> "Cir":
        """All paths of ``cirs`` in one Cir, stably delay-sorted (so on
        equal delays the earlier Cir's paths come first)."""
        cirs = list(cirs)
        return cls._make(_sorted_columns(
            {name: np.concatenate([getattr(c, name) for c in cirs] or [[]]) for name in COLUMNS},
            COLUMNS))

    @classmethod
    def _make(cls, cols: dict) -> "Cir":
        """A Cir of columns already checked and sorted by delay."""
        out = object.__new__(cls)
        for name, dt in zip(COLUMNS, _DTYPES):
            arr = np.asarray(cols[name], dtype=dt)
            arr.flags.writeable = False
            setfield(out, name, arr)
        return out

    def _with(self, **cols) -> "Cir":
        """This Cir with some columns replaced; the delay order must hold."""
        return self._make({name: cols.get(name, getattr(self, name)) for name in COLUMNS})

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


def _sorted_columns(cols: dict, made=()) -> dict:
    """The columns as arrays that no caller holds, rows stably sorted by
    delay. Rows already in delay order keep it, as the stable sort would:
    the columns named in ``made``, new contiguous arrays, are then used as
    they are and the others copied."""
    cols = {name: np.asarray(cols[name], dtype=dt) for name, dt in zip(COLUMNS, _DTYPES)}
    delay = cols["delay"]
    if (delay[1:] >= delay[:-1]).all():
        return {name: arr if name in made else arr.copy() for name, arr in cols.items()}
    order = np.argsort(delay, kind="stable")
    return {name: arr[order] for name, arr in cols.items()}


# ---------------------------------------------------------------------------
# Path merging
# ---------------------------------------------------------------------------

def _keys_distinct(cir: Cir) -> bool:
    """True when no two rows can share a (delay, AoA, AoD) key. Each row's
    key is hashed from the bits of its values, with -0.0 read as 0.0, so
    equal keys hash alike; when no two hashes are equal, no two keys are."""
    mult = np.uint64(0x9E3779B97F4A7C15)  # odd, so the product step is invertible
    h = np.zeros(len(cir), dtype=np.uint64)
    for k in (cir.delay, cir.aoa_az, cir.aoa_el, cir.aod_az, cir.aod_el):
        h ^= (k + 0.0).view(np.uint64)  # + 0.0 turns -0.0 into 0.0
        h *= mult  # wraps modulo 2^64
        h ^= h >> np.uint64(31)
    h.sort()
    return not (h[1:] == h[:-1]).any()


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
    which makes the merge idempotent. Two rules are supported:

    * ``delay_tol == angle_tol == 0``: paths with equal delay, AoA and
      AoD coincide, found by sorting on that key. When a hash of the key
      proves every key distinct, the Cir is returned as it is.
    * ``angle_tol >= pi``: every angle test passes, so each row joins
      the latest anchor unless its delay exceeds the anchor's by more
      than ``delay_tol`` (>= 0).

    Any other tolerance pair raises ValueError.
    """
    if not isinstance(paths, Cir):
        raise ValueError(f"merge_paths takes a Cir, not {type(paths).__name__}")
    if delay_tol == 0.0 and angle_tol == 0.0:
        if _keys_distinct(paths):
            return paths
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
    cols = {name: getattr(paths, name)[anchors] for name in COLUMNS}
    cols.update(amp=sums)
    return paths._with(**cols)


def packaged_golden_dir() -> Path:
    """The directory of the packaged measurement tables (the golden CSVs)."""
    return Path(__file__).parent / "data"


def golden_rows(golden: Path, name: str, columns: dict[str, type]) -> list[dict]:
    """The rows of a golden table: a header line of column names, then a line of
    comma-separated cells (no quoting) per row, blank lines skipped. It needs rows and
    each of ``columns``; a row fills each, read with its type, and no cell past the header."""
    path = golden / name
    with open(path) as f:
        header, *lines = f.read().split("\n")
    header = header.split(",")
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValueError(f"golden table {path} lacks column(s) {', '.join(missing)}")
    rows = []
    for line_num, cells in ((n, line.split(",")) for n, line in enumerate(lines, 2) if line):
        where = f"golden table {path} line {line_num}"
        if len(cells) > len(header):
            raise ValueError(f"{where} has {len(cells)} cells, "
                             f"more than the header's {len(header)}")
        rec = dict(zip(header, cells))
        for col, kind in columns.items():
            if col not in rec:
                raise ValueError(f"{where} ends before column {col}")
            try:
                rec[col] = kind(rec[col])
            except ValueError:
                raise ValueError(f"{where}, column {col}: {rec[col]!r} is not a valid "
                                 f"{kind.__name__}") from None
        rows.append(rec)
    if not rows:
        raise ValueError(f"golden table {path} has no rows")
    return rows
