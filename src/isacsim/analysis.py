"""Multipath analysis: PADP, peak extraction, background subtraction,
geometric bounce classification, power proportions, and sharing degree.

Delay binning is non-coherent (powers add inside a bin, after any merge),
while the sharing degree uses coherent complex sums; the two conventions
are deliberate and must not be mixed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import permutations
from typing import Sequence

import numpy as np

from .core import (
    C_LIGHT,
    TWO_PI,
    Cir,
    Origin,
    finite_vector,
    linear_to_db,
    unit_vectors,
)
from .background import GeometricScatterer
from .gbsm import AntennaModel


# ---------------------------------------------------------------------------
# Scan grids and profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScanGrid:
    """PADP of a turntable-style directional scan: linear power per
    (scan angle, delay bin)."""

    angles_deg: np.ndarray
    power: np.ndarray  # (angles, delay bins), linear
    delay_bins: np.ndarray  # bin edges, seconds

    def __post_init__(self):
        angles = np.asarray(self.angles_deg, dtype=float)
        edges = _check_edges(self.delay_bins)
        if angles.ndim != 1 or len(angles) < 1:
            raise ValueError("need a 1-D array of scan angles")
        if len(angles) > 1:
            steps = np.diff(angles)
            if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=0, atol=1e-9):
                raise ValueError("scan angles must be strictly increasing with uniform step")
        power = np.array(self.power, dtype=float)
        if power.shape != (len(angles), len(edges) - 1):
            raise ValueError("need one PADP row per scan angle and one column per delay bin")
        power.flags.writeable = False
        object.__setattr__(self, "angles_deg", angles)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "delay_bins", edges)

    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.delay_bins[:-1] + self.delay_bins[1:])


def delay_grid(max_delay_s: float, bin_width_s: float) -> np.ndarray:
    """Uniform delay bin edges covering [0, max_delay]."""
    if bin_width_s <= 0.0:
        raise ValueError("bin width must be positive")
    n = max(1, int(math.ceil(max_delay_s / bin_width_s)))
    return bin_width_s * np.arange(n + 1)


def _check_edges(delay_bins) -> np.ndarray:
    edges = np.asarray(delay_bins, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("delay_bins must be increasing bin edges")
    return edges


def _bin_index(delays: np.ndarray, delay_bins) -> tuple[np.ndarray, int]:
    """The delay-bin index of every delay, and the number of bins.

    Bins are half-open [lo, hi), except that a delay on the last edge
    goes into the last bin. Every delay must fall inside the grid, so
    that binning conserves power.
    """
    edges = _check_edges(delay_bins)
    n_bins = len(edges) - 1
    if len(delays) and (delays.min() < edges[0] or delays.max() > edges[-1]):
        raise ValueError("a path delay falls outside the delay grid")
    return np.minimum(np.searchsorted(edges, delays, side="right") - 1, n_bins - 1), n_bins


def padp(grid: ScanGrid) -> np.ndarray:
    """Power-angle delay profile: one PDP row per scan angle (linear)."""
    return grid.power


def turntable_scan(cir: Cir, rx_antenna: AntennaModel, angles_deg: Sequence[float],
                   delay_bins: np.ndarray) -> ScanGrid:
    """Emulate a rotating directional receive antenna over one CIR.

    At each pointing angle (horizontal boresight) every path's power is
    weighted by the antenna's power gain toward its arrival direction
    and binned over delay (non-coherently, by :func:`_bin_index`). Paths
    that share an arrival direction and a delay bin share one cell: the
    cell holds W = sum(|amp|^2), the lobe is evaluated once per distinct
    direction, and each row accumulates g^2 * W over the occupied cells.
    Each cell is summed on its own, so a weak bin keeps its full
    precision. An omni antenna gives the power delay profile (PDP) at
    every angle.
    """
    angles = np.asarray(angles_deg, dtype=float)
    idx, n_bins = _bin_index(cir.delay, delay_bins)
    # one stable sort groups the paths by arrival direction, then by delay
    # bin; the comparisons take -0.0 and 0.0 as one elevation
    order = np.lexsort((idx, cir.aoa_el, cir.aoa_az))
    az, el, idx = cir.aoa_az[order], cir.aoa_el[order], idx[order]
    new_dir = np.ones(len(order), dtype=bool)
    new_dir[1:] = (az[1:] != az[:-1]) | (el[1:] != el[:-1])
    new_cell = new_dir.copy()
    new_cell[1:] |= idx[1:] != idx[:-1]
    heads = np.flatnonzero(new_cell)  # the first path of each occupied cell
    cell_dir = np.cumsum(new_dir)[heads] - 1
    w = np.bincount(np.cumsum(new_cell) - 1, weights=np.abs(cir.amp[order]) ** 2)
    boresight = np.column_stack([np.radians(angles) % TWO_PI, np.zeros(len(angles))])
    gain = rx_antenna.field_gain(boresight, np.column_stack([az[new_dir], el[new_dir]]))
    cells = np.arange(len(angles))[:, None] * n_bins + idx[heads]
    power = np.bincount(cells.ravel(), weights=((gain ** 2)[:, cell_dir] * w).ravel(),
                        minlength=len(angles) * n_bins)
    return ScanGrid(angles, power.reshape(len(angles), n_bins), delay_bins)


# ---------------------------------------------------------------------------
# Peak extraction and background subtraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PadpPeak:
    angle_deg: float
    delay_s: float
    power: float  # linear
    origin: Origin = Origin.BACKGROUND

    @property
    def power_db(self) -> float:
        return linear_to_db(self.power)


def _deg_apart(a: float, b: float) -> float:
    """Shortest distance between two azimuths in degrees, in [0, 180]."""
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


# offsets into a cell's 3 x 3 neighbourhood, from its top-left corner: all
# nine, and the four neighbours that come before the cell in row-major order
_AROUND = tuple((i, j) for i in range(3) for j in range(3))
_BEFORE = ((0, 0), (0, 1), (0, 2), (1, 0))


def _max3x3(arr: np.ndarray, offsets=_AROUND) -> np.ndarray:
    """Maximum over the cells at ``offsets`` in each cell's 3 x 3
    neighbourhood; cells off the array do not count."""
    rows, cols = arr.shape
    padded = np.pad(arr, 1, constant_values=-np.inf)
    return np.max([padded[i:i + rows, j:j + cols] for i, j in offsets], axis=0)


def extract_paths(power: np.ndarray, angles_deg: np.ndarray,
                  delay_bins: np.ndarray, peak_threshold_db: float,
                  min_sep_deg: float = 0.0, min_sep_s: float = 0.0) -> list[PadpPeak]:
    """Local-maximum peak picking on a PADP, ``power`` (angles x delay bins).

    A cell is a peak when no cell of its 3 x 3 neighbourhood is higher
    and each neighbour before it in row-major order is lower, so a
    plateau of equal cells in a row, a column or a rectangle gives one
    peak, its first cell. Returns the peaks within ``peak_threshold_db``
    of the global maximum, strongest first, suppressing any candidate
    that lies within both ``min_sep_deg`` and ``min_sep_s`` of an
    already accepted peak.
    """
    arr = np.asarray(power, dtype=float)
    if arr.size == 0 or not np.any(arr > 0.0):
        raise ValueError("PADP is empty")
    if peak_threshold_db <= 0.0:
        raise ValueError("peak threshold must be > 0 dB below the global peak")
    centers = 0.5 * (np.asarray(delay_bins)[:-1] + np.asarray(delay_bins)[1:])
    local_max = (arr == _max3x3(arr)) & (arr > _max3x3(arr, _BEFORE)) & (arr > 0.0)
    floor = arr.max() * 10.0 ** (-peak_threshold_db / 10.0)
    cand = np.argwhere(local_max & (arr >= floor))
    order = np.argsort(arr[cand[:, 0], cand[:, 1]])[::-1]
    peaks: list[PadpPeak] = []
    for idx in order:
        i, j = cand[idx]
        ang, dly, pwr = float(angles_deg[i]), float(centers[j]), float(arr[i, j])
        conflict = any(_deg_apart(ang, pk.angle_deg) < min_sep_deg
                       and abs(dly - pk.delay_s) < min_sep_s for pk in peaks)
        if not conflict:
            peaks.append(PadpPeak(ang, dly, pwr))
    return peaks


# how far, in dB, a target-scan peak must rise above the background to count
# as a target peak
TARGET_MARGIN_DB = 6.0


def subtract_background(target_scan: ScanGrid, background_scan: ScanGrid,
                        match_tol: tuple[float, float],
                        peak_threshold_db: float = 30.0,
                        min_sep_deg: float = 0.0,
                        min_sep_s: float = 0.0) -> list[PadpPeak]:
    """Identify target-channel peaks by comparison with a no-target scan.

    A target-scan peak is tagged as target if either no background peak
    lies within ``match_tol`` (angle deg, delay s) and the peak rises
    more than TARGET_MARGIN_DB above the background cell at the same
    (angle, delay), or a background peak does match but the power is
    raised by more than TARGET_MARGIN_DB. Both scans must use the same scan
    angles and delay bin edges, exactly.
    """
    if not (np.array_equal(target_scan.angles_deg, background_scan.angles_deg)
            and np.array_equal(target_scan.delay_bins, background_scan.delay_bins)):
        raise ValueError("target and background scans use different grids")
    tol_deg, tol_s = match_tol
    t_padp = padp(target_scan)
    b_padp = padp(background_scan)
    t_peaks = extract_paths(t_padp, target_scan.angles_deg, target_scan.delay_bins,
                            peak_threshold_db, min_sep_deg, min_sep_s)
    # a free-space scene has no background, and so no background peaks
    b_peaks = (extract_paths(b_padp, background_scan.angles_deg, background_scan.delay_bins,
                             peak_threshold_db, min_sep_deg, min_sep_s)
               if np.any(b_padp > 0.0) else [])
    centers = target_scan.bin_centers()
    margin = 10.0 ** (TARGET_MARGIN_DB / 10.0)

    out = []
    for tp in t_peaks:
        matches = [bp for bp in b_peaks if _deg_apart(tp.angle_deg, bp.angle_deg) <= tol_deg
                   and abs(tp.delay_s - bp.delay_s) <= tol_s]
        if matches:
            ref = max(bp.power for bp in matches)
        else:
            i = int(np.argmin(np.abs(target_scan.angles_deg - tp.angle_deg)))
            j = int(np.argmin(np.abs(centers - tp.delay_s)))
            ref = float(b_padp[i, j])
        if ref == 0.0 or tp.power > ref * margin:
            out.append(replace(tp, origin=Origin.TARGET))
    return out


# ---------------------------------------------------------------------------
# Geometric bounce classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReconstructionScene:
    """User-supplied geometry for path reconstruction; a reflector
    without a label is named R<index>."""

    tx: np.ndarray
    rx: np.ndarray
    target: np.ndarray
    reflectors: tuple[GeometricScatterer, ...] = ()

    def __post_init__(self):
        for name in ("tx", "rx", "target"):
            object.__setattr__(self, name, finite_vector(getattr(self, name), f"{name} position"))
        object.__setattr__(self, "reflectors", tuple(
            r if r.label else replace(r, label=f"R{i}") for i, r in enumerate(self.reflectors)))


@dataclass(frozen=True)
class BounceResult:
    order: int
    route: str
    length_m: float
    residual_s: float


def _route_length(waypoints) -> float:
    pts = np.asarray(waypoints, dtype=float)
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


def _candidate_routes(scene: ReconstructionScene):
    """All Tx..ST..Rx routes with up to two non-target reflections."""
    tx, rx, st = scene.tx, scene.rx, scene.target
    yield 0, "Tx>ST>Rx", [tx, st, rx]
    refl = [(r.label, r.position) for r in scene.reflectors]
    for name, p in refl:
        yield 1, f"Tx>ST>{name}>Rx", [tx, st, p, rx]
        yield 1, f"Tx>{name}>ST>Rx", [tx, p, st, rx]
    for (na, pa), (nb, pb) in permutations(refl, 2):
        yield 2, f"Tx>ST>{na}>{nb}>Rx", [tx, st, pa, pb, rx]
        yield 2, f"Tx>{na}>ST>{nb}>Rx", [tx, pa, st, pb, rx]
        yield 2, f"Tx>{na}>{nb}>ST>Rx", [tx, pa, pb, st, rx]


def classify_bounce(peak: PadpPeak, scene: ReconstructionScene,
                    delay_tol: float, angle_tol_deg: float) -> BounceResult | None:
    """Assign a bounce order by matching delay and arrival azimuth to
    geometric candidate routes (searched up to second order).

    Returns the lowest-order matching route, ties broken by delay
    residual; None when nothing matches (unclassified).
    """
    best: BounceResult | None = None
    for order, label, waypoints in _candidate_routes(scene):
        length = _route_length(waypoints)
        residual = abs(length / C_LIGHT - peak.delay_s)
        if residual > delay_tol:
            continue
        arrival = np.asarray(waypoints[-2], dtype=float) - scene.rx
        if np.linalg.norm(arrival) == 0.0:
            continue
        az = math.degrees(math.atan2(arrival[1], arrival[0])) % 360.0
        if _deg_apart(az, peak.angle_deg) > angle_tol_deg:
            continue
        if best is None or (order, residual) < (best.order, best.residual_s):
            best = BounceResult(order, label, length, residual)
    return best


@dataclass(frozen=True)
class PowerProportion:
    direct: float
    first_order: float
    higher_order: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.direct, self.first_order, self.higher_order)


def power_proportion(classified: Sequence[tuple[int, float]]) -> PowerProportion:
    """Power fractions of direct, first-order, and higher-order paths.

    Args:
        classified: (bounce_order, linear power) pairs; orders >= 2
            all count as higher-order.

    Returns:
        Proportions over the total classified power; they sum to 1.
    """
    if len(classified) == 0:
        raise ValueError("need at least one classified path")
    buckets = [0.0, 0.0, 0.0]
    for order, power in classified:
        if order < 0:
            raise ValueError("bounce order must be >= 0")
        buckets[min(order, 2)] += power
    total = sum(buckets)
    if total <= 0.0:
        raise ValueError("total classified power is zero")
    return PowerProportion(*(b / total for b in buckets))


# ---------------------------------------------------------------------------
# Shared-scatterer analysis
# ---------------------------------------------------------------------------

def sharing_degree(shared: Sequence[tuple[complex, float]],
                   nonshared: Sequence[tuple[complex, float]]) -> float:
    """Fraction of coherent channel power contributed by shared clusters.

    Each entry is a (complex gain, scattering gain) pair; the result is
    |sum(shared)|^2 / |sum(shared) + sum(nonshared)|^2 with coherent
    complex sums (not power sums). Nominally in [0, 1].
    """
    if len(shared) == 0 and len(nonshared) == 0:
        raise ValueError("need at least one path")
    s = sum((complex(a) * g for a, g in shared), 0j)
    n = sum((complex(a) * g for a, g in nonshared), 0j)
    denom = abs(s + n) ** 2
    if denom == 0.0:
        raise ValueError("total coherent sum is zero; sharing degree undefined")
    return abs(s) ** 2 / denom


@dataclass(frozen=True)
class SharedPartition:
    shared_pairs: tuple[tuple[PadpPeak, PadpPeak], ...]
    mono_only: tuple[PadpPeak, ...]
    bi_only: tuple[PadpPeak, ...]
    excluded: int  # paths that could not be localized


def locate_monostatic(peak: PadpPeak, txrx: np.ndarray) -> np.ndarray:
    """Scatterer position implied by a mono-static (angle, delay) peak."""
    r = peak.delay_s * C_LIGHT / 2.0
    u = unit_vectors([(math.radians(peak.angle_deg), 0.0)])[0]
    return np.asarray(txrx, dtype=float) + r * u


def locate_bistatic(peak: PadpPeak, tx: np.ndarray, rx: np.ndarray) -> np.ndarray | None:
    """Scatterer position implied by a bi-static peak via its delay ellipse.

    The arrival direction from the Rx and the total path length pin the
    single-bounce point; returns None when the delay is shorter than the
    Tx-Rx baseline (not localizable as a single bounce).
    """
    tx = np.asarray(tx, dtype=float)
    rx = np.asarray(rx, dtype=float)
    total = peak.delay_s * C_LIGHT
    d = rx - tx
    base = float(np.linalg.norm(d))
    if total <= base:
        return None
    u = unit_vectors([(math.radians(peak.angle_deg), 0.0)])[0]
    denom = 2.0 * (total + float(d @ u))
    if denom <= 0.0:
        return None
    r = (total ** 2 - base ** 2) / denom
    if r <= 0.0:
        return None
    return rx + r * u


def identify_shared(mono_peaks: Sequence[PadpPeak], bi_peaks: Sequence[PadpPeak],
                    scene: ReconstructionScene, position_tol: float) -> SharedPartition:
    """Partition mono- and bi-static peaks into shared and non-shared sets.

    A mono peak and a bi peak are shared when their implied scatterer
    positions lie within ``position_tol`` meters; matching is greedy,
    nearest first, one-to-one.
    """
    mono_loc = [(p, locate_monostatic(p, scene.tx)) for p in mono_peaks]
    bi_loc = []
    excluded = 0
    for p in bi_peaks:
        pos = locate_bistatic(p, scene.tx, scene.rx)
        if pos is None:
            excluded += 1
        else:
            bi_loc.append((p, pos))

    dists = []
    for i, (_, pm) in enumerate(mono_loc):
        for j, (_, pb) in enumerate(bi_loc):
            d = float(np.linalg.norm(pm - pb))
            if d <= position_tol:
                dists.append((d, i, j))
    dists.sort()
    used_m, used_b, pairs = set(), set(), []
    for _, i, j in dists:
        if i in used_m or j in used_b:
            continue
        used_m.add(i)
        used_b.add(j)
        pairs.append((mono_loc[i][0], bi_loc[j][0]))
    mono_only = tuple(p for i, (p, _) in enumerate(mono_loc) if i not in used_m)
    bi_only = tuple(p for j, (p, _) in enumerate(bi_loc) if j not in used_b)
    return SharedPartition(tuple(pairs), mono_only, bi_only, excluded)


# ---------------------------------------------------------------------------
# File export / import
# ---------------------------------------------------------------------------

def write_padp_csv(path, grid: ScanGrid) -> None:
    """Write a PADP as rows of (angle_deg, delay_ns, power_db).

    Zero-power bins (power_db = -inf) are written as an empty field.
    Values are formatted with 17 significant digits, so they read back
    exactly.
    """
    # each angle and each bin centre is formatted once, not once per cell
    centers = [f",{tau * 1e9:.17g}," for tau in grid.bin_centers().tolist()]
    with open(path, "w", newline="") as f:
        f.write("angle_deg,delay_ns,power_db\r\n")
        for ang, row in zip(grid.angles_deg.tolist(), padp(grid)):
            ang = f"{ang:.17g}"
            lines = []
            for tau, p in zip(centers, row.tolist()):
                p_db = "" if p <= 0.0 else f"{10.0 * math.log10(p):.17g}"
                lines.append(f"{ang}{tau}{p_db}\r\n")
            f.write("".join(lines))


def write_paths_json(path, peaks: Sequence[PadpPeak],
                     bounce: Sequence[BounceResult | None] | None = None) -> list[dict]:
    """Write extracted paths with their classification to JSON; returns
    the path records written."""
    records = []
    for i, pk in enumerate(peaks):
        b = bounce[i] if bounce is not None else None
        records.append({
            "theta_deg": pk.angle_deg,
            "tau_ns": pk.delay_s * 1e9,
            "power_db": pk.power_db,
            "bounce_order": None if b is None else b.order,
            "origin": pk.origin.value,
            "route_labels": None if b is None else b.route,
        })
    with open(path, "w") as f:
        json.dump({"paths": records}, f, indent=1)
    return records
