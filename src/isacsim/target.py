"""Target-channel construction by concatenating two sensing sub-links.

The transmitter-to-target and target-to-receiver links are generated as
ordinary stochastic channels; the target channel pairs every ray of one
with every ray of the other, chaining the two hops' polarization
matrices and weighting each pair by the scattering point's angular RCS.
Delays add, each pair's Doppler follows from the target's velocity, and
the radar equation's spreading factor 4 pi / lambda^2
(core.spreading_gain) enters exactly once, here.
"""
from __future__ import annotations

import enum
import io
import math
from typing import Sequence

import numpy as np

from .core import (
    DB_LIMIT,
    Cir,
    ScatteringPoint,
    TableRcs,
    ValueRecord,
    finite_number,
    merge_paths,
    spreading_gain,
    unit_vectors,
)
from .gbsm import AntennaModel, ClusterSet, cross_polarization_matrix


class Side(enum.Enum):
    TX_TO_TARGET = "tx_to_target"
    TARGET_TO_RX = "target_to_rx"


class SubLink(ValueRecord):
    """One hop of the concatenated sensing link.

    For a TX_TO_TARGET link, each ray's AoD is at the transmitter and
    its AoA is the arrival direction at the target. For TARGET_TO_RX,
    the AoD is the departure direction from the target and the AoA is
    at the receiver. Every ray therefore carries a target-side angle.
    """

    __slots__ = ("side", "clusters")

    def __init__(self, side: Side, clusters: ClusterSet):
        self._fill(side, clusters)


def _rcs_linear(model, angles_in: np.ndarray, angles_out: np.ndarray) -> np.ndarray:
    """Radar cross section in linear square meters for every pair of an
    (n, 2) and an (m, 2) array of (azimuth, elevation) rows: (n, m)."""
    sigma_dbsm = model.eval_dbsm_pairs(angles_in, angles_out)
    bad = np.argwhere(~np.isfinite(sigma_dbsm))
    if len(bad):
        i, j = bad[0]
        raise ValueError(
            f"RCS model returned non-finite value for in={tuple(angles_in[i].tolist())} "
            f"out={tuple(angles_out[j].tolist())}")
    return 10.0 ** (sigma_dbsm / 10.0)


def concatenate(a: SubLink, b: SubLink, sp: ScatteringPoint, wl: float,
                tx_antenna: AntennaModel = AntennaModel()) -> Cir:
    """Pair every ray of ``a`` with every ray of ``b`` through the target.

    Produces |a| * |b| paths (no merging). Per pair, the delay is the
    sum of the sub-link delays, the Doppler is (u_in . v + u_out . v) /
    lambda, with v the point's velocity and u_in, u_out the unit vectors
    of the AoA at the target and the AoD from it (3GPP TR 38.901 §7.9),
    and the amplitude is

        sqrt(p1 p2) * F_rx^T . CPM_2 . CPM_1 . F_tx
        * sqrt(sigma(out, in)) * sqrt(4 pi / lambda^2)

    with sigma evaluated at the target-side angle pair, rotated by the
    phase of the scattering point's position.
    The antennas are single-polarized: F_tx = (g, 0), g the Tx field
    gain toward the AoD, and F_rx is the omni (1, 0), since the turntable
    scan applies the receive pattern. With an omni Tx antenna and
    co-polar rays the linear path power is p1 * p2 * sigma * 4 pi / lambda^2.
    Every term is computed for all pairs at once, as an |a| x |b| array.
    """
    if a.side is not Side.TX_TO_TARGET or b.side is not Side.TARGET_TO_RX:
        raise ValueError("concatenate expects (tx_to_target, target_to_rx) sub-links")
    finite_number(wl, "wl", "> 0")
    ra, rb = a.clusters, b.clusters

    # the chain is CPM_2's first row times CPM_1's first column times g
    g = tx_antenna.field_gain([tx_antenna.boresight], ra.aod)[0]
    tx_side = cross_polarization_matrix(ra.xpr, ra.phases)[:, :, 0] * g[:, None]
    rx_side = cross_polarization_matrix(rb.xpr, rb.phases)[:, 0, :]
    gain = np.einsum("ak,bk->ab", tx_side, rx_side)
    k = 2.0 * math.pi / wl
    u_a, u_b = unit_vectors(ra.aoa), unit_vectors(rb.aod)  # target-side directions
    phase_a = k * (u_a @ sp.position)
    phase_b = k * (u_b @ sp.position)
    sigma = _rcs_linear(sp.rcs_model, ra.aoa, rb.aod)
    doppler = np.add.outer(u_a @ sp.velocity, u_b @ sp.velocity) / wl
    amp = (np.sqrt(ra.power[:, None] * rb.power[None, :] * sigma) * gain
           * math.sqrt(spreading_gain(wl))
           * np.exp(1j * (phase_a[:, None] + phase_b[None, :])))

    return Cir.from_columns(
        np.add.outer(ra.delay, rb.delay), amp, doppler,
        aod_az=np.repeat(ra.aod[:, 0], len(rb)), aod_el=np.repeat(ra.aod[:, 1], len(rb)),
        aoa_az=np.tile(rb.aoa[:, 0], len(ra)), aoa_el=np.tile(rb.aoa[:, 1], len(ra)),
        bounce_order=np.add.outer(ra.bounce_order, rb.bounce_order))


def multi_point_target(contributions: Sequence[tuple[ScatteringPoint, SubLink, SubLink, float]],
                       wl: float, tx_antenna: AntennaModel) -> Cir:
    """Coherent union of per-scattering-point concatenations.

    ``contributions`` holds one (point, tx_to_target sub-link,
    target_to_rx sub-link, pl_db) per scattering point. Each point's
    paths are weighted in amplitude by 10^(-pl_db/20); exactly coincident
    paths merge coherently (so two identical points double the
    amplitude, +6.02 dB). With no points the union is the empty Cir.
    """
    cirs = [concatenate(sub_a, sub_b, sp, wl, tx_antenna).scaled(10.0 ** (-pl / 20.0))
            for sp, sub_a, sub_b, pl in contributions]
    return merge_paths(Cir.concat(cirs), 0.0, 0.0)


RCS_TABLE_COLUMNS = ("az_in_deg", "el_in_deg", "az_out_deg", "el_out_deg", "rcs_dbsm")


def load_rcs_table_csv(path) -> TableRcs:
    """Load a gridded RCS table from CSV.

    Expected columns, found by their header names: az_in_deg,
    el_in_deg, az_out_deg, el_out_deg, rcs_dbsm. The rows must cover a
    full regular grid (every combination of the axis values exactly
    once), and every rcs_dbsm value lies within ±DB_LIMIT.
    """
    with open(path) as f:
        header = [name.strip() for name in f.readline().split(",")]
        body = f.read()
    if not body.strip():
        raise ValueError(f"RCS table {path} is empty")
    missing = [c for c in RCS_TABLE_COLUMNS if c not in header]
    if missing:
        raise ValueError(f"RCS table {path} lacks column(s) {', '.join(missing)}")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2,
                      usecols=[header.index(c) for c in RCS_TABLE_COLUMNS])
    if np.any(np.abs(data[:, 4]) > DB_LIMIT):
        raise ValueError(f"RCS table {path} has rcs_dbsm values outside ±{DB_LIMIT:g} dBsm")
    axes_deg, index = zip(*(np.unique(data[:, i], return_inverse=True) for i in range(4)))
    shape = tuple(len(a) for a in axes_deg)
    if math.prod(shape) != len(data):
        raise ValueError("RCS table rows do not form a full regular grid")
    cell = np.ravel_multi_index(index, shape)
    if len(np.unique(cell)) != len(cell):
        raise ValueError("RCS table has duplicate or missing grid rows")
    values = np.empty(shape)
    values.flat[cell] = data[:, 4]
    axes_rad = [np.radians(a) for a in axes_deg]
    return TableRcs(axes_rad[0], axes_rad[1], axes_rad[2], axes_rad[3], values)
