"""Target-channel construction by concatenating two sensing sub-links.

The transmitter-to-target and target-to-receiver links are generated as
ordinary stochastic channels; the target channel pairs every ray of one
with every ray of the other, routing the polarization through the
scattering point's angular RCS and polarization-twist matrix. Delays
add, Dopplers add, and the wavelength-dependent spreading factor enters
exactly once here (not in the link-budget module).
"""
from __future__ import annotations

import enum
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Angle3D,
    Cir,
    Origin,
    ScatteringPoint,
    TableRcs,
    merge_paths,
    spreading_gain,
    unit_vectors,
)
from .gbsm import OMNI, AntennaModel, ClusterSet, cross_polarization_matrix


class Side(enum.Enum):
    TX_TO_TARGET = "tx_to_target"
    TARGET_TO_RX = "target_to_rx"


@dataclass(frozen=True)
class SubLink:
    """One hop of the concatenated sensing link.

    For a TX_TO_TARGET link, each ray's AoD is at the transmitter and
    its AoA is the arrival direction at the target. For TARGET_TO_RX,
    the AoD is the departure direction from the target and the AoA is
    at the receiver. Every ray therefore carries a target-side angle.
    """

    side: Side
    clusters: ClusterSet


def _rcs_linear(model, angles_in: np.ndarray, angles_out: np.ndarray) -> np.ndarray:
    """Radar cross section in linear square meters for every pair of an
    (n, 2) and an (m, 2) array of (azimuth, elevation) rows: (n, m)."""
    sigma_dbsm = model.eval_dbsm_pairs(angles_in, angles_out)
    bad = np.argwhere(~np.isfinite(sigma_dbsm))
    if len(bad):
        i, j = bad[0]
        raise ValueError(
            f"RCS model returned non-finite value for in={Angle3D(*angles_in[i])} "
            f"out={Angle3D(*angles_out[j])}")
    return 10.0 ** (sigma_dbsm / 10.0)


def concatenate(a: SubLink, b: SubLink, sp: ScatteringPoint, wl: float,
                tx_antenna: AntennaModel = OMNI, rx_antenna: AntennaModel = OMNI,
                t: float = 0.0, carrier_freq: float = 0.0) -> Cir:
    """Pair every ray of ``a`` with every ray of ``b`` through the target.

    Produces |a| * |b| paths (no merging). Per pair, the delay is the
    sum of the sub-link delays, the Doppler is the sum of the sub-link
    Dopplers, and the amplitude is

        sqrt(p1 p2) * F_rx^T . CPM_2 . CPM_k . CPM_1 . F_tx
        * sqrt(sigma(out, in)) * sqrt(lambda^2 / 4 pi)

    with sigma evaluated at the target-side angle pair, rotated by the
    phase of the scattering point's position and by the Doppler phase.
    With identity polarization matrices and omni antennas the linear
    path power is p1 * p2 * sigma * lambda^2/(4 pi). Every term is
    computed for all pairs at once, as an |a| x |b| array.
    """
    if a.side is not Side.TX_TO_TARGET or b.side is not Side.TARGET_TO_RX:
        raise ValueError("concatenate expects (tx_to_target, target_to_rx) sub-links")
    if wl <= 0.0:
        raise ValueError("wavelength must be positive")
    ra, rb = a.clusters, b.clusters

    # the chain F_rx^T . CPM_2 . CPM_k . CPM_1 . F_tx, split after CPM_k
    rx_side = np.einsum("bi,bij,jk->bk", rx_antenna.fields(rb.aoa),
                        cross_polarization_matrix(rb.xpr, rb.phases), sp.cpm_k)
    tx_side = np.einsum("akl,al->ak", cross_polarization_matrix(ra.xpr, ra.phases),
                        tx_antenna.fields(ra.aod))
    gain = np.einsum("ak,bk->ab", tx_side, rx_side)
    k = 2.0 * math.pi / wl
    phase_a = k * (unit_vectors(ra.aoa) @ sp.position)
    phase_b = k * (unit_vectors(rb.aod) @ sp.position)
    sigma = _rcs_linear(sp.rcs_model, ra.aoa, rb.aod)
    doppler = np.add.outer(ra.doppler, rb.doppler)
    amp = (np.sqrt(ra.power[:, None] * rb.power[None, :] * sigma) * gain
           * math.sqrt(spreading_gain(wl))
           * np.exp(1j * (phase_a[:, None] + phase_b[None, :]))
           * np.exp(1j * 2.0 * math.pi * doppler * t))

    return Cir.from_columns(
        np.add.outer(ra.delay, rb.delay), amp, doppler,
        aod_az=np.repeat(ra.aod[:, 0], len(rb)), aod_el=np.repeat(ra.aod[:, 1], len(rb)),
        aoa_az=np.tile(rb.aoa[:, 0], len(ra)), aoa_el=np.tile(rb.aoa[:, 1], len(ra)),
        bounce_order=np.add.outer(ra.bounce_order, rb.bounce_order),
        origin=Origin.TARGET, t0=t, carrier_freq=carrier_freq)


def multi_point_target(points: Sequence[ScatteringPoint],
                       sublinks: Sequence[tuple[SubLink, SubLink]],
                       wl: float,
                       pl_tar_db: Sequence[float] | None = None,
                       tx_antenna: AntennaModel = OMNI,
                       rx_antenna: AntennaModel = OMNI,
                       t: float = 0.0, carrier_freq: float = 0.0) -> Cir:
    """Coherent union of per-scattering-point concatenations.

    Each point's contribution is weighted in amplitude by
    10^(-pl_tar_db/20); exactly coincident paths merge coherently
    (so two identical points double the amplitude, +6.02 dB).
    """
    if len(points) == 0:
        raise ValueError("at least one scattering point is required")
    if len(sublinks) != len(points):
        raise ValueError("need one (tx_to_target, target_to_rx) pair per point")
    if pl_tar_db is not None and len(pl_tar_db) != len(points):
        raise ValueError("need one target path loss per point")

    cirs = []
    for i, (sp, (sub_a, sub_b)) in enumerate(zip(points, sublinks)):
        cir = concatenate(sub_a, sub_b, sp, wl, tx_antenna, rx_antenna,
                          t=t, carrier_freq=carrier_freq)
        if pl_tar_db is not None:
            cir = cir.scaled(10.0 ** (-pl_tar_db[i] / 20.0))
        cirs.append(cir)
    return merge_paths(Cir.concat(cirs, t0=t, carrier_freq=carrier_freq), 0.0, 0.0)


RCS_TABLE_COLUMNS = ("az_in_deg", "el_in_deg", "az_out_deg", "el_out_deg", "rcs_dbsm")


def load_rcs_table_csv(path) -> TableRcs:
    """Load a gridded RCS table from CSV.

    Expected columns, found by their header names: az_in_deg,
    el_in_deg, az_out_deg, el_out_deg, rcs_dbsm. The rows must cover a
    full regular grid (every combination of the axis values exactly
    once).
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
