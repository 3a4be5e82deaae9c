"""Multipath analysis: PADP, peak extraction, background subtraction,
geometric bounce classification, power proportions, and sharing degree.

Delay binning is non-coherent (powers add inside a bin, after any merge),
while the sharing degree uses coherent complex sums; the two conventions
are deliberate and must not be mixed.
"""
from __future__ import annotations

import json
import math
from itertools import permutations
from typing import Sequence

import numpy as np

from .core import (
    C_LIGHT,
    TWO_PI,
    Cir,
    Record,
    ValueRecord,
    finite_number,
    finite_vector,
    linear_to_db,
    read_only,
    unit_vectors,
)
from .background import GeometricScatterer
from .gbsm import AntennaModel


# ---------------------------------------------------------------------------
# Scan grids and profiles
# ---------------------------------------------------------------------------

# the most cells (scan angles x delay bins) a scan may have. The largest grid of a
# shipped config or benchmark workload has 72 x 122 = 8,784; at 980,568 cells,
# analyze peaks at 137 MiB resident
MAX_SCAN_CELLS = 1_000_000


class ScanGrid(Record):
    """PADP of a turntable-style directional scan: linear power per
    (scan angle, delay bin), an (angles, delay bins) array, over the
    delay bin edges in seconds."""

    __slots__ = ("angles_deg", "power", "delay_bins")

    def __init__(self, angles_deg, power, delay_bins):
        angles = np.asarray(angles_deg, dtype=float)
        edges = _check_edges(delay_bins)
        if angles.ndim != 1 or len(angles) < 1:
            raise ValueError("need a 1-D array of scan angles")
        if not _uniform_increasing(angles):
            raise ValueError("scan angles must be finite and increase by a finite uniform step")
        power = read_only(power, float)
        if power.shape != (len(angles), len(edges) - 1):
            raise ValueError("need one PADP row per scan angle and one column per delay bin")
        self._fill(angles, power, edges)

    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.delay_bins[:-1] + self.delay_bins[1:])


def _uniform_increasing(angles: np.ndarray) -> bool:
    """Whether the angles and their steps are finite, and the steps positive and
    equal to the first within 1e-9: the rule of np.allclose(steps, steps[0],
    rtol=0, atol=1e-9), at a quarter of its cost and with no warning."""
    if not np.isfinite(angles).all():
        return False
    with np.errstate(over="ignore"):  # a step past the largest float is inf, refused here
        steps = np.diff(angles)
    return bool(np.isfinite(steps).all() and (steps > 0).all()
                and (np.abs(steps - steps[:1]) <= 1e-9).all())


def delay_grid(max_delay_s: float, bin_width_s: float) -> np.ndarray:
    """Uniform delay bin edges covering [0, max_delay]."""
    finite_number(max_delay_s, "max_delay_s", ">= 0")
    finite_number(bin_width_s, "bin_width_s", "> 0")
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

class PadpPeak(ValueRecord):
    """A PADP cell that is a peak: its scan angle, its delay bin's centre
    and its linear power."""

    __slots__ = ("angle_deg", "delay_s", "power")

    def __init__(self, angle_deg: float, delay_s: float, power: float):
        self._fill(angle_deg, delay_s, power)

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


def _max3x3(arr: np.ndarray, offsets=_AROUND, ring: bool = False) -> np.ndarray:
    """Maximum over the cells at ``offsets`` in each cell's 3 x 3
    neighbourhood; cells off the array do not count, except that with
    ``ring`` the first and last rows are neighbours."""
    rows, cols = arr.shape
    framed = np.full((rows + 2, cols + 2), -np.inf)
    framed[1:-1, 1:-1] = arr
    if ring:
        framed[0, 1:-1], framed[-1, 1:-1] = arr[-1], arr[0]
    (i, j), *rest = offsets
    out = framed[i:i + rows, j:j + cols].copy()
    for i, j in rest:
        np.maximum(out, framed[i:i + rows, j:j + cols], out=out)
    return out


def extract_paths(power: np.ndarray, angles_deg: np.ndarray,
                  delay_bins: np.ndarray, peak_threshold_db: float) -> list[PadpPeak]:
    """Local-maximum peak picking on a PADP, ``power`` (angles x delay bins).

    A cell is a peak when no cell of its 3 x 3 neighbourhood is higher
    and each neighbour before it in row-major order is lower, so a
    plateau of equal cells in a row, a column or a rectangle gives one
    peak, its first cell. When the scan angles close a full circle
    (their count times their step is 360 degrees), the first and last
    rows are neighbours and the first row comes before the last, so a
    path across the 0/360 degree seam gives one peak. Returns the peaks
    within ``peak_threshold_db`` of the global maximum, strongest first.
    """
    arr = np.asarray(power, dtype=float)
    if arr.size == 0 or not np.any(arr > 0.0):
        raise ValueError("PADP is empty")
    if not peak_threshold_db > 0.0:  # NaN included
        raise ValueError("peak threshold must be > 0 dB below the global peak")
    centers = 0.5 * (np.asarray(delay_bins)[:-1] + np.asarray(delay_bins)[1:])
    ring = len(angles_deg) > 1 and abs(len(angles_deg) * (angles_deg[1] - angles_deg[0])
                                       - 360.0) <= 1e-9
    local_max = (arr == _max3x3(arr, ring=ring)) & (arr > _max3x3(arr, _BEFORE)) & (arr > 0.0)
    if ring:
        local_max[-1] &= arr[-1] > _max3x3(arr[:1])[0]
    floor = arr.max() * 10.0 ** (-peak_threshold_db / 10.0)
    cand = np.argwhere(local_max & (arr >= floor))
    order = np.argsort(arr[cand[:, 0], cand[:, 1]])[::-1]
    return [PadpPeak(float(angles_deg[i]), float(centers[j]), float(arr[i, j]))
            for i, j in cand[order].tolist()]


# how far, in dB, a target-scan peak must rise above the background to count
# as a target peak
TARGET_MARGIN_DB = 6.0
# how far below the target scan's strongest cell, in dB, a peak may lie by default
PEAK_THRESHOLD_DB = 30.0


def subtract_background(target_scan: ScanGrid, background_scan: ScanGrid,
                        peak_threshold_db: float = PEAK_THRESHOLD_DB) -> list[PadpPeak]:
    """Identify target-channel peaks by comparison with a no-target scan.

    Peaks are picked in the target scan only. A peak is a target peak
    when the no-target scan's cell at the same (angle, delay) is empty,
    or when the peak rises more than TARGET_MARGIN_DB above that cell;
    the no-target scan is compared cell by cell and never peak-picked.
    Both scans must use the same scan angles and delay bin edges, exactly.
    """
    if not (np.array_equal(target_scan.angles_deg, background_scan.angles_deg)
            and np.array_equal(target_scan.delay_bins, background_scan.delay_bins)):
        raise ValueError("target and background scans use different grids")
    peaks = extract_paths(target_scan.power, target_scan.angles_deg, target_scan.delay_bins,
                          peak_threshold_db)
    angles, centers = target_scan.angles_deg.tolist(), target_scan.bin_centers().tolist()
    margin = 10.0 ** (TARGET_MARGIN_DB / 10.0)
    # every peak is above zero, so a peak over an empty cell passes
    return [pk for pk in peaks if pk.power > margin * background_scan.power[
        angles.index(pk.angle_deg), centers.index(pk.delay_s)]]


# ---------------------------------------------------------------------------
# Geometric bounce classification
# ---------------------------------------------------------------------------

class ReconstructionScene(Record):
    """User-supplied geometry for path reconstruction; a reflector
    without a label is named R<index>.

    The positions are read-only copies, so ``routes``, derived once from
    them, cannot go stale: one (order, label, length in m, arrival
    azimuth at the Rx in degrees) entry per candidate route, the azimuth
    None where the route's last waypoint before the Rx is the Rx itself.
    """

    __slots__ = ("tx", "rx", "target", "reflectors", "routes")
    _unlisted = ("routes",)

    def __init__(self, tx, rx, target, reflectors: tuple[GeometricScatterer, ...] = ()):
        tx, rx, target = (read_only(finite_vector(position, f"{name} position"))
                          for name, position in (("tx", tx), ("rx", rx), ("target", target)))
        reflectors = tuple(
            GeometricScatterer(read_only(r.position), r.reflection_gain_db, r.label or f"R{i}")
            for i, r in enumerate(reflectors))
        self._fill(tx, rx, target, reflectors, tuple(
            (order, label, _route_length(waypoints), _arrival_az_deg(waypoints[-2], rx))
            for order, label, waypoints in _candidate_routes(tx, rx, target, reflectors)))


class BounceResult(ValueRecord):
    __slots__ = ("order", "route", "length_m", "residual_s")

    def __init__(self, order: int, route: str, length_m: float, residual_s: float):
        self._fill(order, route, length_m, residual_s)


def _route_length(waypoints) -> float:
    pts = np.asarray(waypoints, dtype=float)
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


def _arrival_az_deg(last: np.ndarray, rx: np.ndarray) -> float | None:
    """Azimuth of the arrival at ``rx`` from the waypoint ``last``; None
    when the two coincide."""
    arrival = last - rx
    if np.linalg.norm(arrival) == 0.0:
        return None
    return math.degrees(math.atan2(arrival[1], arrival[0])) % 360.0


def _candidate_routes(tx, rx, st, reflectors: tuple[GeometricScatterer, ...]):
    """All Tx..ST..Rx routes with up to two non-target reflections."""
    yield 0, "Tx>ST>Rx", [tx, st, rx]
    refl = [(r.label, r.position) for r in reflectors]
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
    finite_number(delay_tol, "delay_tol", ">= 0")
    finite_number(angle_tol_deg, "angle_tol_deg", ">= 0")
    best: BounceResult | None = None
    for order, label, length, az in scene.routes:
        residual = abs(length / C_LIGHT - peak.delay_s)
        if residual > delay_tol or az is None or _deg_apart(az, peak.angle_deg) > angle_tol_deg:
            continue
        if best is None or (order, residual) < (best.order, best.residual_s):
            best = BounceResult(order, label, length, residual)
    return best


class PowerProportion(ValueRecord):
    __slots__ = ("direct", "first_order", "higher_order")

    def __init__(self, direct: float, first_order: float, higher_order: float):
        self._fill(direct, first_order, higher_order)

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


class SharedPartition(ValueRecord):
    """Mono- and bi-static peaks split into (mono, bi) pairs of a shared
    scatterer and the peaks of each alone; ``excluded`` counts the
    bi-static peaks that could not be localized."""

    __slots__ = ("shared_pairs", "mono_only", "bi_only", "excluded")

    def __init__(self, shared_pairs: tuple[tuple[PadpPeak, PadpPeak], ...],
                 mono_only: tuple[PadpPeak, ...], bi_only: tuple[PadpPeak, ...], excluded: int):
        self._fill(shared_pairs, mono_only, bi_only, excluded)


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
            "origin": "target",
            "route_labels": None if b is None else b.route,
        })
    with open(path, "w") as f:
        json.dump({"paths": records}, f, indent=1)
    return records
