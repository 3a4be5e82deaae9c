"""Tables of rays and 5G-style stochastic channel synthesis.

This is the shared machinery behind both the sensing sub-links and the
bi-static background channel: a table of rays in statistical clusters
is sampled from a profile and a seed, and the per-ray complex coefficients
combine the Tx field gain and the cross-polarization matrix. The
ray-level steps (per-ray XPR, initial phases and coefficients, 3GPP
TR 38.901 §7.5) work on whole columns.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (Cir, Record, ValueRecord, finite_number, read_only, setfield,
                   unit_vectors, wrapped_azimuths)


# ---------------------------------------------------------------------------
# The ray table
# ---------------------------------------------------------------------------

# the shape of one row of each ClusterSet column, and its dtype
_ROW = {"power": ((), float), "delay": ((), float), "aod": ((2,), float),
        "aoa": ((2,), float), "xpr": ((), float), "phases": ((4,), float),
        "bounce_order": ((), np.int64)}


class ClusterSet(Record):
    """The rays of a channel as a read-only table, one row per ray.

    ``power`` is the linear power of each ray (a sampled set sums to 1,
    the split across a cluster's rays included) and ``delay`` its delay
    in seconds. ``aod`` and ``aoa`` are (n, 2) arrays of (azimuth,
    elevation) rows in radians, the azimuths wrapped by
    wrapped_azimuths. ``xpr`` is the linear cross-polarization
    ratio, ``phases`` (n, 4) the initial phases (theta-theta,
    theta-phi, phi-theta, phi-phi) in radians and ``bounce_order`` the
    number of bounces. A scalar, or one angle pair, applies to every
    row. A ray has no Doppler of its own (see target.concatenate).
    """

    __slots__ = tuple(_ROW)

    def __init__(self, power, delay, aod, aoa, xpr=1e12, phases=0.0, bounce_order=1):
        cols = {name: np.asarray(v, dtype=dt) for (name, (_, dt)), v
                in zip(_ROW.items(), (power, delay, aod, aoa, xpr, phases, bounce_order))}
        # the leading shape that the columns share: () or (number of rays,)
        rows = np.broadcast_shapes(*(col.shape[:col.ndim - len(_ROW[name][0])]
                                     for name, col in cols.items()))
        if len(rows) > 1:
            raise ValueError("a ray table takes one row per ray")
        n = rows[0] if rows else 1
        if n == 0:
            raise ValueError("cluster set is empty")
        for name, col in cols.items():
            shape = (n,) + _ROW[name][0]
            cols[name] = col if col.shape == shape else np.broadcast_to(col, shape)
        for name, label, sign in (("power", "ray power", ">= 0"), ("xpr", "XPR", "> 0"),
                                  ("delay", "ray delay", ">= 0"), ("phases", "ray phases", ""),
                                  ("bounce_order", "bounce_order", ">= 0")):
            finite_number(cols[name], label, sign)
        for name in ("aod", "aoa"):
            az, el = cols[name].T
            cols[name] = np.stack([wrapped_azimuths(az, el), el], axis=1)
        self._fill(*map(read_only, cols.values()))

    @classmethod
    def _make(cls, cols: dict) -> ClusterSet:
        """A ClusterSet of checked columns, azimuths wrapped; one row serves every ray."""
        out = object.__new__(cls)
        for name, (row, dt) in _ROW.items():
            col = np.full((len(cols["delay"]),) + row, cols[name], dt)  # a new array
            col.flags.writeable = False
            setfield(out, name, col)
        return out

    def __len__(self) -> int:
        return len(self.delay)

    def all_rays(self) -> ClusterSet:
        """The table itself, which holds one row per ray. Kept so that
        ``len(clusters.all_rays())`` counts the rays, as the benchmark's
        tracer (isacbench/tracing.py) does."""
        return self


# ---------------------------------------------------------------------------
# Antennas
# ---------------------------------------------------------------------------

class AntennaModel(Record):
    """One antenna element with a scalar field pattern (there is no array).

    ``kind`` is "omni" (unit vertical-polarization response everywhere)
    or "horn" (Gaussian main lobe; the boresight power gain equals the
    linearized ``peak_gain_db``, and the pattern is 3 dB down at
    ``hpbw_deg``/2 off axis). ``boresight`` is an (azimuth, elevation)
    pair.
    """

    __slots__ = ("kind", "hpbw_deg", "peak_gain_db", "boresight")

    def __init__(self, kind: str = "omni", hpbw_deg: float = 10.0, peak_gain_db: float = 0.0,
                 boresight: tuple[float, float] = (0.0, 0.0)):
        if kind not in ("omni", "horn"):
            raise ValueError(f"unknown antenna kind {kind!r}")
        az, el = map(float, boresight)
        self._fill(kind, finite_number(hpbw_deg, "hpbw_deg", "> 0" if kind == "horn" else ""),
                   finite_number(peak_gain_db, "peak_gain_db"),
                   (float(wrapped_azimuths(az, el)), el))

    def field_gain(self, boresight, arrival) -> np.ndarray:
        """Real F_theta amplitude for every (boresight, arrival) pair.

        ``boresight`` (m, 2) and ``arrival`` (n, 2) hold (azimuth,
        elevation) rows in radians; the result is an (m, n) array. The
        antenna's own ``boresight`` attribute is not used here.
        """
        if self.kind == "omni":
            return np.ones((len(boresight), len(arrival)))
        b = unit_vectors(boresight)
        a = unit_vectors(arrival)
        # the (m, 3) x (3, n) product written out term by term: a BLAS
        # product may fuse and order the terms by shape, and a 1 x 1 call
        # must round exactly like the same cell of a scan's matrix
        cos = (b[:, None, 0] * a[None, :, 0] + b[:, None, 1] * a[None, :, 1]
               + b[:, None, 2] * a[None, :, 2])
        off = np.arccos(np.minimum(np.maximum(cos, -1.0), 1.0))
        g_peak = 10.0 ** (self.peak_gain_db / 10.0)
        hpbw = math.radians(self.hpbw_deg)
        # Gaussian main lobe: power is g_peak * exp(-4 ln2 (off/hpbw)^2)
        return math.sqrt(g_peak) * np.exp(-2.0 * math.log(2.0) * (off / hpbw) ** 2)


OMNI = AntennaModel(kind="omni")


# ---------------------------------------------------------------------------
# Generation profile and sampling
# ---------------------------------------------------------------------------

class GenerationProfile(ValueRecord):
    """Statistical recipe for cluster/ray sampling.

    Distribution choices follow common stochastic-model practice:
    exponential cluster delays, wrapped-Gaussian ray angles around
    uniformly drawn cluster centers, log-normal per-cluster shadowing,
    normal XPR in dB. All fields are configurable so calibrated
    parameters can replace the defaults. Every ray of a cluster takes
    the cluster's delay, and the cluster centre elevations spread by
    ELEVATION_SPREAD_RAD.
    """

    __slots__ = ("n_clusters", "rays_per_cluster", "delay_scale_s", "angle_spread_rad",
                 "xpr_mean_db", "xpr_std_db", "shadow_std_db")

    def __init__(self, n_clusters: int = 8, rays_per_cluster: int = 10,
                 delay_scale_s: float = 30e-9, angle_spread_rad: float = math.radians(5.0),
                 xpr_mean_db: float = 9.0, xpr_std_db: float = 3.0, shadow_std_db: float = 3.0):
        self._fill(n_clusters, rays_per_cluster, delay_scale_s, angle_spread_rad, xpr_mean_db,
                   xpr_std_db, shadow_std_db)
        finite_number(xpr_mean_db, "xpr_mean_db")
        for name in ("delay_scale_s", "angle_spread_rad", "xpr_std_db", "shadow_std_db"):
            finite_number(getattr(self, name), name, ">= 0")
        if rays_per_cluster < 1:
            raise ValueError("rays_per_cluster must be >= 1")


# the spread of the cluster centre elevations about the horizontal
ELEVATION_SPREAD_RAD = math.radians(2.0)


def _clip_elevation(el: np.ndarray) -> np.ndarray:
    return np.clip(el, -math.pi / 2, math.pi / 2)


def sample_clusters(profile: GenerationProfile, seed: int) -> ClusterSet:
    """Draw a ClusterSet from the profile; the same seed gives identical output.

    ``np.random.default_rng(seed)`` draws whole columns, zero scales
    included, in this order: the n cluster delays and shadowings,
    the n AoA then n AoD centre azimuths, the same for the centre
    elevations; then, for the n * m rays grouped by cluster, the AoA then
    AoD azimuth offsets, the same for the elevation offsets, the XPRs in
    dB and the (n * m, 4) initial phases.
    """
    n, m = profile.n_clusters, profile.rays_per_cluster
    if n == 0:
        raise ValueError("profile requests zero clusters")
    if n < 0:
        raise ValueError("n_clusters must be >= 0")
    rng = np.random.default_rng(seed)

    tau = rng.exponential(profile.delay_scale_s, n)
    shadow_db = rng.normal(0.0, profile.shadow_std_db, n)
    p = np.exp(-tau / (profile.delay_scale_s or 1.0)) * 10.0 ** (-shadow_db / 10.0)
    p = p / p.sum()
    # rows (AoA, AoD): each ray is its cluster's centre plus its own offset
    az = np.repeat(rng.uniform(0.0, 2.0 * math.pi, (2, n)), m, axis=1)
    el = np.repeat(_clip_elevation(rng.normal(0.0, ELEVATION_SPREAD_RAD, (2, n))), m, axis=1)
    az = az + rng.normal(0.0, profile.angle_spread_rad, (2, n * m))
    el = _clip_elevation(el + rng.normal(0.0, profile.angle_spread_rad / 2, (2, n * m)))
    xpr_db = rng.normal(profile.xpr_mean_db, profile.xpr_std_db, n * m)
    phases = rng.uniform(-math.pi, math.pi, (n * m, 4))
    return ClusterSet(
        power=np.repeat(p / m, m), delay=np.repeat(tau, m),
        aod=np.stack([az[1], el[1]], axis=1), aoa=np.stack([az[0], el[0]], axis=1),
        xpr=10.0 ** (xpr_db / 10.0), phases=phases)


def with_los_ray(clusters: ClusterSet, los: ClusterSet, k_factor: float) -> ClusterSet:
    """Prepend a deterministic (e.g. line-of-sight) ray.

    The rays of ``los`` (normally one, of power 1) take k/(1+k) of the
    total power; the other rays are rescaled by 1/(1+k), so a normalized
    set stays normalized.
    """
    finite_number(k_factor, "k_factor", "> 0")
    cols = {name: np.concatenate([getattr(los, name), getattr(clusters, name)])
            for name in _ROW}
    cols["power"] = np.concatenate([los.power * (k_factor / (1.0 + k_factor)),
                                    clusters.power * (1.0 / (1.0 + k_factor))])
    return ClusterSet._make(cols)  # checked powers times factors in (0, 1] stay checked


# ---------------------------------------------------------------------------
# Coefficient synthesis
# ---------------------------------------------------------------------------

def cross_polarization_matrix(xpr, phases) -> np.ndarray:
    """2x2 polarization coupling matrix of each ray.

    ``xpr`` has shape (...) and ``phases`` (..., 4); the result is
    (..., 2, 2), so one XPR and four phases give one matrix. Diagonal
    entries are unit-modulus phasors; off-diagonal magnitudes are
    1/sqrt(xpr).
    """
    xpr = finite_number(np.asarray(xpr, dtype=float), "XPR", "> 0")
    cpm = np.exp(1j * np.asarray(phases, dtype=float))
    cpm[..., 1:3] *= (1.0 / np.sqrt(xpr))[..., None]
    return cpm.reshape(cpm.shape[:-1] + (2, 2))


def ray_coefficients(rays: ClusterSet, tx_antenna: AntennaModel) -> np.ndarray:
    """Complex channel coefficient of each ray.

    sqrt(power) * F_rx^T . CPM . F_tx with F_tx = (g, 0), g the Tx field
    gain toward the AoD, and F_rx the omni (1, 0), since the turntable
    scan applies the receive pattern: g times CPM's theta-theta phasor,
    with no Doppler phase.
    """
    g = tx_antenna.field_gain([tx_antenna.boresight], rays.aod)[0]
    # g times the phasor first: the product rounds as the full chain did
    return np.sqrt(rays.power) * (g * np.exp(1j * rays.phases[:, 0]))


def synthesize_cir(clusters: ClusterSet, tx_antenna: AntennaModel) -> Cir:
    """Assemble a sparse, static CIR (every Doppler 0) with one path per
    ray, unmerged: the total linear power is the sum of |coefficient|^2."""
    return Cir.from_columns(
        clusters.delay, ray_coefficients(clusters, tx_antenna),
        aod_az=clusters.aod[:, 0], aod_el=clusters.aod[:, 1],
        aoa_az=clusters.aoa[:, 0], aoa_el=clusters.aoa[:, 1],
        bounce_order=clusters.bounce_order)
