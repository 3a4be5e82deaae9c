"""Radar-equation link-budget arithmetic, all in dB at the API surface.

The two-hop sensing path loss, its inversion to an RCS estimate, the
zero-slope RCS regression, the concatenated-path power formula behind
the golden table's p_conv_db column, and the free-space loss of one
hop.
"""
from __future__ import annotations

import math

import numpy as np

from .core import finite_number, spreading_gain_db


def radar_pathloss(pl1_db: float, pl2_db: float, wl: float, sigma_dbsm: float) -> float:
    """Two-hop target path loss: pl1 + pl2 - 10 log10(4pi/wl^2) - sigma."""
    return pl1_db + pl2_db - spreading_gain_db(wl) - sigma_dbsm


def estimate_rcs(pl1_db: float, pl2_db: float, pl_tar_db: float, wl: float) -> float:
    """Exact algebraic inverse of :func:`radar_pathloss`, solved for sigma."""
    return pl1_db + pl2_db - pl_tar_db - spreading_gain_db(wl)


def conv_path_power(p1_db: float, p2_db: float, sigma_dbsm: float, wl: float) -> float:
    """Theoretical concatenated path power from the two sub-link path
    powers: p1 + p2 + sigma + 10 log10(4pi/wl^2)."""
    return p1_db + p2_db + sigma_dbsm + spreading_gain_db(wl)


def delta_p(p_conv_db: float, p_measured_db: float) -> float:
    """Difference between modeled and measured concatenated path power."""
    return p_conv_db - p_measured_db


def fit_rcs_line(samples) -> tuple[float, float, float]:
    """Ordinary least squares of RCS estimates against the second-hop distance.

    Args:
        samples: iterable of (d2_m, sigma_dbsm) pairs, at least two
            distinct distances.

    Returns:
        (slope dB/m, intercept dBsm, rmse dB). A constant RCS should
        fit a zero-slope line.
    """
    pts = np.asarray(list(samples), dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
        raise ValueError("need at least two (distance, rcs) samples")
    d, sigma = pts[:, 0], pts[:, 1]
    if np.ptp(d) == 0.0:
        raise ValueError("all distances identical; slope is undefined")
    d_mean = d.mean()
    slope = float(np.sum((d - d_mean) * (sigma - sigma.mean())) / np.sum((d - d_mean) ** 2))
    intercept = float(sigma.mean() - slope * d_mean)
    resid = sigma - (slope * d + intercept)
    rmse = float(np.sqrt(np.mean(resid ** 2)))
    return slope, intercept, rmse


def free_space_loss_db(d_m: float, wl: float) -> float:
    """Free-space path loss PL(d) = 20 log10(4 pi d / lambda), dB."""
    return 20.0 * math.log10(4.0 * math.pi * finite_number(d_m, "d_m", "> 0")
                             / finite_number(wl, "wl", "> 0"))
