"""Tables of rays and 5G-style stochastic channel synthesis.

This is the shared machinery behind both the sensing sub-links and the
bi-static background channel: a table of rays in statistical clusters
is sampled from a seeded profile, and the per-ray complex coefficients
combine antenna field patterns, the cross-polarization matrix and the
Doppler phase. The ray-level steps (per-ray XPR, initial phases and
coefficients, 3GPP TR 38.901 §7.5) work on whole columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Angle3D,
    Cir,
    Origin,
    unit_vector,
    unit_vectors,
    wrapped_azimuths,
)


class EmptyChannelError(ValueError):
    """Raised when a generation profile would produce no paths at all."""


# ---------------------------------------------------------------------------
# The ray table
# ---------------------------------------------------------------------------

# the shape of one row of each ClusterSet column, and its dtype
_ROW = {"power": ((), float), "delay": ((), float), "aod": ((2,), float),
        "aoa": ((2,), float), "xpr": ((), float), "phases": ((4,), float),
        "doppler": ((), float), "bounce_order": ((), np.int64), "cluster": ((), np.int64)}


@dataclass(frozen=True, eq=False)
class ClusterSet:
    """The rays of a channel as a read-only table, one row per ray.

    ``power`` is the linear power of each ray (a sampled set sums to 1,
    the split across a cluster's rays included) and ``delay`` its delay
    in seconds. ``aod`` and ``aoa`` are (n, 2) arrays of (azimuth,
    elevation) rows in radians; the azimuths are wrapped into [0, 2 pi)
    as Angle3D wraps them. ``xpr`` is the linear cross-polarization
    ratio, ``phases`` (n, 4) the initial phases (theta-theta,
    theta-phi, phi-theta, phi-phi) in radians, ``doppler`` the Doppler
    shift in Hz and ``cluster`` the index of the ray's cluster. A
    scalar, or one angle pair, applies to every row.
    """

    power: np.ndarray
    delay: np.ndarray
    aod: np.ndarray
    aoa: np.ndarray
    xpr: np.ndarray = 1e12
    phases: np.ndarray = 0.0
    doppler: np.ndarray = 0.0
    bounce_order: np.ndarray = 1
    cluster: np.ndarray = 0

    def __post_init__(self):
        cols = {name: np.asarray(getattr(self, name), dtype=dt)
                for name, (_, dt) in _ROW.items()}
        # the leading shape that the columns share: () or (number of rays,)
        rows = np.broadcast_shapes(*(col.shape[:col.ndim - len(_ROW[name][0])]
                                     for name, col in cols.items()))
        if len(rows) > 1:
            raise ValueError("a ray table takes one row per ray")
        n = rows[0] if rows else 1
        if n == 0:
            raise EmptyChannelError("cluster set is empty")
        cols = {name: np.broadcast_to(col, (n,) + _ROW[name][0]) for name, col in cols.items()}
        if not np.all(np.isfinite(cols["power"]) & (cols["power"] >= 0.0)):
            raise ValueError("ray power must be finite and >= 0")
        if not np.all(cols["xpr"] > 0.0):
            raise ValueError("XPR must be > 0")
        if not np.all(np.isfinite(cols["delay"]) & (cols["delay"] >= 0.0)):
            raise ValueError("ray delay must be finite and >= 0")
        for name in ("aod", "aoa"):
            az, el = cols[name].T
            cols[name] = np.stack([wrapped_azimuths(az, el), el], axis=1)
        for name, col in cols.items():
            col = np.array(col)
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.delay)

    @property
    def n_clusters(self) -> int:
        return len(np.unique(self.cluster))

    def all_rays(self) -> ClusterSet:
        """The table itself, which holds one row per ray. Kept so that
        ``len(clusters.all_rays())`` counts the rays, as the benchmark's
        tracer (isacbench/tracing.py) does."""
        return self


# ---------------------------------------------------------------------------
# Antennas
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AntennaModel:
    """One antenna element with a scalar field pattern (there is no array).

    ``kind`` is "omni" (unit vertical-polarization response everywhere)
    or "horn" (Gaussian main lobe; the boresight power gain equals the
    linearized ``peak_gain_db``, and the pattern is 3 dB down at
    ``hpbw_deg``/2 off axis).
    """

    kind: str = "omni"
    hpbw_deg: float = 10.0
    peak_gain_db: float = 0.0
    boresight: Angle3D = Angle3D(0.0, 0.0)

    def __post_init__(self):
        if self.kind not in ("omni", "horn"):
            raise ValueError(f"unknown antenna kind {self.kind!r}")
        if self.kind == "horn" and self.hpbw_deg <= 0.0:
            raise ValueError("horn HPBW must be positive")

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

    def fields(self, angles) -> np.ndarray:
        """Complex (F_theta, F_phi) field pattern toward each (azimuth,
        elevation) row of ``angles`` (n, 2); the result is (n, 2)."""
        b = self.boresight
        out = np.zeros((len(angles), 2), dtype=complex)
        out[:, 0] = self.field_gain([[b.azimuth, b.elevation]], angles)[0]
        return out


OMNI = AntennaModel(kind="omni")


# ---------------------------------------------------------------------------
# Generation profile and sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenerationProfile:
    """Statistical recipe for cluster/ray sampling.

    Distribution choices follow common stochastic-model practice:
    exponential cluster delays, wrapped-Gaussian ray angles around
    uniformly drawn cluster centers, log-normal per-cluster shadowing,
    normal XPR in dB, uniform Doppler in [-doppler_max_hz, +]. All
    fields are configurable so calibrated parameters can replace the
    defaults.
    """

    n_clusters: int = 8
    rays_per_cluster: int = 10
    delay_scale_s: float = 30e-9
    angle_spread_rad: float = math.radians(5.0)
    xpr_mean_db: float = 9.0
    xpr_std_db: float = 3.0
    shadow_std_db: float = 3.0
    doppler_max_hz: float = 0.0
    ray_delay_scale_s: float = 0.0  # 0 keeps all rays at the cluster delay
    elevation_spread_rad: float = math.radians(2.0)
    seed: int = 0

    def __post_init__(self):
        for name in ("delay_scale_s", "angle_spread_rad", "xpr_std_db",
                     "shadow_std_db", "doppler_max_hz", "ray_delay_scale_s",
                     "elevation_spread_rad"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.rays_per_cluster < 1:
            raise ValueError("rays_per_cluster must be >= 1")


def _clip_elevation(el: np.ndarray) -> np.ndarray:
    return np.clip(el, -math.pi / 2, math.pi / 2)


def sample_clusters(profile: GenerationProfile) -> ClusterSet:
    """Draw a ClusterSet from the profile; same seed gives identical output."""
    n, m = profile.n_clusters, profile.rays_per_cluster
    if n == 0:
        raise EmptyChannelError("profile requests zero clusters")
    if n < 0:
        raise ValueError("n_clusters must be >= 0")
    rng = np.random.default_rng(profile.seed)

    tau = rng.exponential(profile.delay_scale_s, n) if profile.delay_scale_s > 0 else np.zeros(n)
    shadow_db = rng.normal(0.0, profile.shadow_std_db, n) if profile.shadow_std_db > 0 else np.zeros(n)
    scale = profile.delay_scale_s if profile.delay_scale_s > 0 else 1.0
    p = np.exp(-tau / scale) * 10.0 ** (-shadow_db / 10.0)
    p = p / p.sum()

    az_aoa_c = rng.uniform(0.0, 2.0 * math.pi, n)
    az_aod_c = rng.uniform(0.0, 2.0 * math.pi, n)
    el_aoa_c = _clip_elevation(rng.normal(0.0, profile.elevation_spread_rad, n))
    el_aod_c = _clip_elevation(rng.normal(0.0, profile.elevation_spread_rad, n))

    # the ray draws cluster by cluster, in the order that fixes the stream
    draws = []
    for i in range(n):
        draws.append((
            az_aoa_c[i] + rng.normal(0.0, profile.angle_spread_rad, m),
            az_aod_c[i] + rng.normal(0.0, profile.angle_spread_rad, m),
            el_aoa_c[i] + rng.normal(0.0, profile.angle_spread_rad / 2, m),
            el_aod_c[i] + rng.normal(0.0, profile.angle_spread_rad / 2, m),
            rng.normal(profile.xpr_mean_db, profile.xpr_std_db, m),
            rng.uniform(-math.pi, math.pi, (m, 4)),
            (rng.uniform(-profile.doppler_max_hz, profile.doppler_max_hz, m)
             if profile.doppler_max_hz > 0 else np.zeros(m)),
            (rng.exponential(profile.ray_delay_scale_s, m)
             if profile.ray_delay_scale_s > 0 else np.zeros(m)),
        ))
    az_aoa, az_aod, el_aoa, el_aod, xpr_db, phases, doppler, offsets = (
        np.concatenate(col) for col in zip(*draws))
    # Python's float power per ray: numpy's vectorized power can differ from it in the last bit
    xpr = [10.0 ** (x / 10.0) for x in xpr_db.tolist()]
    return ClusterSet(
        power=np.repeat(p / m, m), delay=np.repeat(tau, m) + offsets,
        aod=np.stack([az_aod, _clip_elevation(el_aod)], axis=1),
        aoa=np.stack([az_aoa, _clip_elevation(el_aoa)], axis=1),
        xpr=xpr, phases=phases, doppler=doppler, cluster=np.repeat(np.arange(n), m))


def with_los_ray(clusters: ClusterSet, los: ClusterSet, k_factor: float) -> ClusterSet:
    """Prepend a deterministic (e.g. line-of-sight) ray as its own cluster.

    The rays of ``los`` (normally one, of power 1) take k/(1+k) of the
    total power; the other rays are rescaled by 1/(1+k), so a normalized
    set stays normalized.
    """
    if k_factor <= 0.0:
        raise ValueError("K-factor must be positive")
    cols = {name: np.concatenate([getattr(los, name), getattr(clusters, name)])
            for name in _ROW}
    cols["power"] = np.concatenate([los.power * (k_factor / (1.0 + k_factor)),
                                    clusters.power * (1.0 / (1.0 + k_factor))])
    cols["cluster"] = np.concatenate([np.zeros(len(los), int), clusters.cluster + 1])
    return ClusterSet(**cols)


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
    xpr = np.asarray(xpr, dtype=float)
    if not np.all(xpr > 0.0):
        raise ValueError("XPR must be > 0")
    cpm = np.exp(1j * np.asarray(phases, dtype=float))
    cpm[..., 1:3] *= (1.0 / np.sqrt(xpr))[..., None]
    return cpm.reshape(cpm.shape[:-1] + (2, 2))


def ray_coefficients(rays: ClusterSet, tx_antenna: AntennaModel,
                     rx_antenna: AntennaModel, t: float = 0.0) -> np.ndarray:
    """Complex channel coefficient of each ray.

    sqrt(power) * F_rx^T . CPM . F_tx, rotated by the Doppler phase at
    time ``t``. Time only ever rotates the phase; it never changes the
    magnitude.
    """
    gain = np.einsum("ni,nij,nj->n", rx_antenna.fields(rays.aoa),
                     cross_polarization_matrix(rays.xpr, rays.phases),
                     tx_antenna.fields(rays.aod))
    return np.sqrt(rays.power) * gain * np.exp(1j * 2.0 * math.pi * rays.doppler * t)


def synthesize_cir(clusters: ClusterSet, tx_antenna: AntennaModel,
                   rx_antenna: AntennaModel, t: float = 0.0,
                   origin: Origin = Origin.BACKGROUND,
                   carrier_freq: float = 0.0) -> Cir:
    """Assemble a sparse CIR with one path per ray, unmerged: the total
    linear power equals the sum of per-ray |coefficient|^2."""
    return Cir.from_columns(
        clusters.delay, ray_coefficients(clusters, tx_antenna, rx_antenna, t), clusters.doppler,
        aod_az=clusters.aod[:, 0], aod_el=clusters.aod[:, 1],
        aoa_az=clusters.aoa[:, 0], aoa_el=clusters.aoa[:, 1],
        bounce_order=clusters.bounce_order, origin=origin, t0=t, carrier_freq=carrier_freq)


def doppler_shift(v_scatterer: np.ndarray, v_observer: np.ndarray,
                  arrival: Angle3D, wl: float) -> float:
    """Doppler frequency from relative motion projected on the arrival ray."""
    if wl <= 0.0:
        raise ValueError("wavelength must be positive")
    rel = np.asarray(v_scatterer, dtype=float) - np.asarray(v_observer, dtype=float)
    return float(rel @ unit_vector(arrival)) / wl
