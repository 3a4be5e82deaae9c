"""Cluster/ray generation and 5G-style stochastic channel synthesis.

This is the shared machinery behind both the sensing sub-links and the
bi-static background channel: statistical clusters of rays are sampled
from a seeded profile, and per-ray complex coefficients combine antenna
field patterns, the cross-polarization matrix, Doppler, and array phase
terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import (
    Angle3D,
    Cir,
    Origin,
    merge_paths,
    unit_vector,
    unit_vectors,
)


class EmptyChannelError(ValueError):
    """Raised when a generation profile would produce no paths at all."""


# ---------------------------------------------------------------------------
# Cluster / ray containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ray:
    """One ray inside a cluster.

    ``power`` is the linear per-ray power and already contains the
    1/M split across the cluster's rays. ``xpr`` is the linear
    cross-polarization ratio; ``phases`` are the four initial phases
    (theta-theta, theta-phi, phi-theta, phi-phi) in radians.
    """

    power: float
    delay: float
    aod: Angle3D
    aoa: Angle3D
    xpr: float = 1e12
    phases: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    doppler: float = 0.0
    bounce_order: int = 1

    def __post_init__(self):
        if self.power < 0.0 or not math.isfinite(self.power):
            raise ValueError("ray power must be finite and >= 0")
        if self.xpr <= 0.0:
            raise ValueError("XPR must be > 0")
        if self.delay < 0.0:
            raise ValueError("ray delay must be >= 0")


@dataclass(frozen=True)
class Cluster:
    power: float  # linear cluster power, sums to 1 over the set
    rays: tuple[Ray, ...]

    def __post_init__(self):
        if len(self.rays) < 1:
            raise ValueError("a cluster needs at least one ray")


@dataclass(frozen=True)
class ClusterSet:
    """Normalized statistical clusters: sum of cluster powers is 1."""

    clusters: tuple[Cluster, ...]

    def __post_init__(self):
        if len(self.clusters) == 0:
            raise EmptyChannelError("cluster set is empty")
        total = sum(c.power for c in self.clusters)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"cluster powers sum to {total}, expected 1")

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def all_rays(self) -> list[Ray]:
        return [r for c in self.clusters for r in c.rays]


# ---------------------------------------------------------------------------
# Antennas
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AntennaModel:
    """Antenna array with a scalar field pattern per element.

    ``kind`` is "omni" (unit vertical-polarization response everywhere)
    or "horn" (Gaussian main lobe; the boresight power gain equals the
    linearized ``peak_gain_db``, and the pattern is 3 dB down at
    ``hpbw_deg``/2 off axis).
    """

    kind: str = "omni"
    element_positions: np.ndarray = field(default_factory=lambda: np.zeros((1, 3)))
    hpbw_deg: float = 10.0
    peak_gain_db: float = 0.0
    boresight: Angle3D = Angle3D(0.0, 0.0)

    def __post_init__(self):
        if self.kind not in ("omni", "horn"):
            raise ValueError(f"unknown antenna kind {self.kind!r}")
        pos = np.atleast_2d(np.asarray(self.element_positions, dtype=float))
        if pos.shape[1] != 3:
            raise ValueError("element positions must be 3-vectors")
        if self.kind == "horn" and self.hpbw_deg <= 0.0:
            raise ValueError("horn HPBW must be positive")
        object.__setattr__(self, "element_positions", pos)

    @property
    def n_elements(self) -> int:
        return self.element_positions.shape[0]

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

    def field(self, angle: Angle3D) -> np.ndarray:
        """Complex (F_theta, F_phi) field pattern toward ``angle``."""
        return self.fields([[angle.azimuth, angle.elevation]])[0]

    def power_gain(self, angle: Angle3D) -> float:
        f = self.field(angle)
        return float(np.sum(np.abs(f) ** 2))


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

    clusters = []
    for i in range(n):
        az_aoa = az_aoa_c[i] + rng.normal(0.0, profile.angle_spread_rad, m)
        az_aod = az_aod_c[i] + rng.normal(0.0, profile.angle_spread_rad, m)
        el_aoa = _clip_elevation(el_aoa_c[i] + rng.normal(0.0, profile.angle_spread_rad / 2, m))
        el_aod = _clip_elevation(el_aod_c[i] + rng.normal(0.0, profile.angle_spread_rad / 2, m))
        xpr_db = rng.normal(profile.xpr_mean_db, profile.xpr_std_db, m)
        phases = rng.uniform(-math.pi, math.pi, (m, 4))
        doppler = (rng.uniform(-profile.doppler_max_hz, profile.doppler_max_hz, m)
                   if profile.doppler_max_hz > 0 else np.zeros(m))
        offsets = (rng.exponential(profile.ray_delay_scale_s, m)
                   if profile.ray_delay_scale_s > 0 else np.zeros(m))
        rays = tuple(
            Ray(power=p[i] / m,
                delay=float(tau[i] + offsets[j]),
                aod=Angle3D(float(az_aod[j]), float(el_aod[j])),
                aoa=Angle3D(float(az_aoa[j]), float(el_aoa[j])),
                xpr=float(10.0 ** (xpr_db[j] / 10.0)),
                phases=tuple(float(x) for x in phases[j]),
                doppler=float(doppler[j]))
            for j in range(m)
        )
        clusters.append(Cluster(power=float(p[i]), rays=rays))
    return ClusterSet(tuple(clusters))


def with_los_ray(clusters: ClusterSet, los_ray: Ray, k_factor: float) -> ClusterSet:
    """Prepend a deterministic (e.g. line-of-sight) ray as its own cluster.

    The new ray takes k/(1+k) of the total power; existing clusters are
    rescaled by 1/(1+k) so the set stays normalized.
    """
    if k_factor <= 0.0:
        raise ValueError("K-factor must be positive")
    w_los = k_factor / (1.0 + k_factor)
    w_rest = 1.0 / (1.0 + k_factor)
    los = Cluster(power=w_los, rays=(replace(los_ray, power=w_los),))
    rest = tuple(
        Cluster(power=c.power * w_rest,
                rays=tuple(replace(r, power=r.power * w_rest) for r in c.rays))
        for c in clusters.clusters
    )
    return ClusterSet((los,) + rest)


# ---------------------------------------------------------------------------
# Coefficient synthesis
# ---------------------------------------------------------------------------

def cross_polarization_matrix(xpr: float, phases: Sequence[float]) -> np.ndarray:
    """2x2 polarization coupling matrix for one ray.

    Diagonal entries are unit-modulus phasors; off-diagonal magnitudes
    are 1/sqrt(xpr).
    """
    if xpr <= 0.0:
        raise ValueError("XPR must be > 0")
    ptt, ptp, ppt, ppp = phases
    r = 1.0 / math.sqrt(xpr)
    return np.array([
        [np.exp(1j * ptt), r * np.exp(1j * ptp)],
        [r * np.exp(1j * ppt), np.exp(1j * ppp)],
    ])


def ray_coefficients(rays: Sequence[Ray], tx_antenna: AntennaModel,
                     rx_antenna: AntennaModel, s: int = 0, u: int = 0,
                     t: float = 0.0, wl: float = 1.0) -> np.ndarray:
    """Complex channel coefficient of each ray between elements s and u.

    sqrt(power) * F_rx^T . CPM . F_tx, rotated by the Doppler phase at
    time ``t`` and by the array phase terms for the element positions.
    Time and element positions only ever rotate the phase; they never
    change the magnitude.
    """
    if wl <= 0.0:
        raise ValueError("wavelength must be positive")
    aod = np.array([(r.aod.azimuth, r.aod.elevation) for r in rays]).reshape(-1, 2)
    aoa = np.array([(r.aoa.azimuth, r.aoa.elevation) for r in rays]).reshape(-1, 2)
    cpm = np.array([cross_polarization_matrix(r.xpr, r.phases) for r in rays]).reshape(-1, 2, 2)
    gain = np.einsum("ni,nij,nj->n", rx_antenna.fields(aoa), cpm, tx_antenna.fields(aod))
    array_phase = (2.0 * math.pi / wl) * (unit_vectors(aoa) @ rx_antenna.element_positions[u]
                                          + unit_vectors(aod) @ tx_antenna.element_positions[s])
    doppler = np.array([r.doppler for r in rays])
    return (np.sqrt([r.power for r in rays]) * gain
            * np.exp(1j * 2.0 * math.pi * doppler * t) * np.exp(1j * array_phase))


def ray_coefficient(ray: Ray, tx_antenna: AntennaModel, rx_antenna: AntennaModel,
                    s: int = 0, u: int = 0, t: float = 0.0,
                    wl: float = 1.0) -> complex:
    """:func:`ray_coefficients` of one ray."""
    return complex(ray_coefficients([ray], tx_antenna, rx_antenna, s, u, t, wl)[0])


def synthesize_cir(clusters: ClusterSet, tx_antenna: AntennaModel,
                   rx_antenna: AntennaModel, s: int = 0, u: int = 0,
                   t: float = 0.0, wl: float = 1.0,
                   origin: Origin = Origin.BACKGROUND,
                   carrier_freq: float = 0.0,
                   merge_delay_tol: float | None = None,
                   merge_angle_tol: float = 0.0) -> Cir:
    """Assemble a sparse CIR with one path per (cluster, ray).

    No merging happens unless ``merge_delay_tol`` is given; the total
    linear power then equals the sum of per-ray |coefficient|^2.
    """
    rays = clusters.all_rays()
    cir = Cir.from_columns(
        [r.delay for r in rays], ray_coefficients(rays, tx_antenna, rx_antenna, s, u, t, wl),
        [r.doppler for r in rays],
        aod_az=[r.aod.azimuth for r in rays], aod_el=[r.aod.elevation for r in rays],
        aoa_az=[r.aoa.azimuth for r in rays], aoa_el=[r.aoa.elevation for r in rays],
        bounce_order=[r.bounce_order for r in rays],
        origin=origin, t0=t, carrier_freq=carrier_freq)
    if merge_delay_tol is not None:
        cir = merge_paths(cir, merge_delay_tol, merge_angle_tol)
    return cir


def doppler_shift(v_scatterer: np.ndarray, v_observer: np.ndarray,
                  arrival: Angle3D, wl: float) -> float:
    """Doppler frequency from relative motion projected on the arrival ray."""
    if wl <= 0.0:
        raise ValueError("wavelength must be positive")
    rel = np.asarray(v_scatterer, dtype=float) - np.asarray(v_observer, dtype=float)
    return float(rel @ unit_vector(arrival)) / wl
