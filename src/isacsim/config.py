"""Scenario configuration: JSON schema, loading, and whole-file validation.

Field names carry explicit SI units (..._hz, ..._m, ..._deg) because the
sensing literature mixes GHz/ns/degrees freely and silent unit errors
are the most common failure mode. Validation collects every violation
before raising, not just the first.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .background import GeometricScatterer, PcfModel, default_pcf_model
from .core import ConstantRcs, CosineLobeRcs, ScatteringPoint
from .gbsm import AntennaModel, GenerationProfile
from .target import load_rcs_table_csv


class ConfigError(ValueError):
    """Carries the full list of validation violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid scenario config:\n  - " + "\n  - ".join(self.violations))


@dataclass(frozen=True, eq=False)
class TargetSpec:
    """One scattering point and the recipe of its Tx-target and target-Rx
    hops: statistical clusters (reseeded per hop) plus a LOS ray whose
    power relative to them is the K-factor."""

    point: ScatteringPoint
    profile: GenerationProfile
    k_factor_db: float


@dataclass(frozen=True, eq=False)
class EndpointSpec:
    position_m: np.ndarray
    antenna: AntennaModel


@dataclass(frozen=True)
class BackgroundSpec:
    mode: str  # "statistical" | "geometric"
    profile: GenerationProfile | None = None
    scatterers: tuple[GeometricScatterer, ...] = ()


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    name: str
    carrier_freq_hz: float
    bandwidth_hz: float
    sensing_mode: str  # "mono_static" | "bi_static"
    tx: EndpointSpec
    rx: EndpointSpec
    targets: tuple[TargetSpec, ...]
    background: BackgroundSpec
    pcf: PcfModel  # a fixed pcf.value is a model with std 0
    scan_start_deg: float
    scan_stop_deg: float
    scan_step_deg: float
    seed: int
    outputs: str
    base_dir: Path  # relative file names in the config resolve against it
    sounder_m: int = 11
    sounder_snr_db: float = 30.0
    raw: dict = field(default_factory=dict, repr=False)

    def scan_angles_deg(self) -> np.ndarray:
        return np.arange(self.scan_start_deg, self.scan_stop_deg, self.scan_step_deg)


def _section(parent: dict, key: str, errors, where: str, default=None) -> dict:
    """``parent[key]`` when it is a JSON object; otherwise a violation
    naming ``where`` and an empty object to parse on with."""
    value = parent.get(key, {} if default is None else default)
    if isinstance(value, dict):
        return value
    errors.append(f"{where} must be an object, got {value!r}")
    return {}


def _number(spec: dict, key: str, default, errors, where: str, kind=float):
    """``spec[key]`` (or the default) as ``kind``; otherwise a violation
    naming ``where`` and the default."""
    value = spec.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError):
        errors.append(f"{where} must be a number, got {value!r}")
        return kind(default)


# the keys each section reads, by antenna kind, RCS variant or background
# mode where they depend on it; any other key is a violation
TOP_KEYS = ("name", "carrier_freq_hz", "bandwidth_hz", "sensing_mode", "tx", "rx",
            "targets", "background", "pcf", "scan", "seed", "outputs", "sounder")
ENDPOINT_KEYS = ("position_m", "antenna")
ANTENNA_KEYS = {"omni": ("kind",), "horn": ("kind", "hpbw_deg", "peak_gain_db")}
TARGET_KEYS = ("position_m", "velocity_mps", "rcs", "sublink")
RCS_KEYS = {"constant": ("variant", "sigma_dbsm"),
            "cosine_lobe": ("variant", "sigma0_dbsm", "exponent"),
            "table": ("variant", "csv")}
BACKGROUND_KEYS = {"statistical": ("mode", "profile"), "geometric": ("mode", "scatterers")}
SCATTERER_KEYS = ("position_m", "reflection_gain_db", "label")
PCF_KEYS = ("value", "mean", "std", "condition", "domain")  # domain has its own violation
SCAN_KEYS = ("start_deg", "stop_deg", "step_deg")
SOUNDER_KEYS = ("register_length", "snr_db")


def _parse_antenna(spec: dict, errors, where: str) -> AntennaModel:
    kind = spec.get("kind", "omni")
    if kind == "omni":
        _unknown_keys(spec, ANTENNA_KEYS["omni"], errors, where)
        return AntennaModel(kind="omni")
    if kind == "horn":
        _unknown_keys(spec, ANTENNA_KEYS["horn"], errors, where)
        hpbw = spec.get("hpbw_deg", 10.0)
        try:
            valid = float(hpbw) > 0
        except (TypeError, ValueError):
            valid = False
        if not valid:
            errors.append(f"{where}: hpbw_deg must be a number > 0, got {hpbw!r}")
            hpbw = 10.0
        return AntennaModel(kind="horn", hpbw_deg=float(hpbw),
                            peak_gain_db=float(spec.get("peak_gain_db", 0.0)))
    errors.append(f"{where}: unknown antenna kind {kind!r}")
    return AntennaModel(kind="omni")


def _parse_rcs(spec: dict, errors, where: str, base_dir: Path):
    variant = spec.get("variant", "constant")
    if variant in ("constant", "cosine_lobe", "table"):
        _unknown_keys(spec, RCS_KEYS[variant], errors, f"{where}.rcs")
    if variant == "constant":
        return ConstantRcs(float(spec.get("sigma_dbsm", 0.0)))
    if variant == "cosine_lobe":
        exponent = float(spec.get("exponent", 0.0))
        if exponent < 0:
            errors.append(f"{where}: cosine lobe exponent must be >= 0")
            exponent = 0.0
        return CosineLobeRcs(float(spec.get("sigma0_dbsm", 0.0)), exponent)
    if variant == "table":
        csv_rel = spec.get("csv")
        if not csv_rel:
            errors.append(f"{where}: table RCS needs a 'csv' path")
            return ConstantRcs(0.0)
        try:
            return load_rcs_table_csv(base_dir / csv_rel)
        except Exception as exc:
            errors.append(f"{where}: failed to load RCS table: {exc}")
            return ConstantRcs(0.0)
    errors.append(f"{where}: unknown RCS variant {variant!r}")
    return ConstantRcs(0.0)


# sub-link defaults where they differ from the background's (GenerationProfile's)
SUBLINK_DEFAULTS = {"n_clusters": 4, "rays_per_cluster": 5, "delay_scale_ns": 20.0}


# the keys _parse_profile reads; a sub-link also takes k_factor_db
PROFILE_KEYS = ("n_clusters", "rays_per_cluster", "delay_scale_ns", "angle_spread_deg",
                "xpr_mean_db", "xpr_std_db", "shadow_std_db", "doppler_max_hz")


def _unknown_keys(spec: dict, allowed, errors, where: str) -> None:
    """A violation naming each key of ``spec`` outside ``allowed``, with
    the closest allowed key as a suggestion; ``where`` is the key path of
    ``spec``, empty at the top level."""
    for key in spec:
        if key not in allowed:
            import difflib  # only on this error path: it costs ms at startup
            close = difflib.get_close_matches(str(key), allowed, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            name = f"{where}.{key}" if where else str(key)
            errors.append(f"{name} is not a known key{hint}")


def _parse_profile(spec: dict, errors, where: str,
                   also_allowed: tuple[str, ...] = ()) -> GenerationProfile | None:
    """Cluster recipe of a background or a sub-link, seed 0; each user
    reseeds it with its own child seed. A key outside PROFILE_KEYS and
    ``also_allowed`` is a violation."""
    _unknown_keys(spec, PROFILE_KEYS + also_allowed, errors, where)
    try:
        return GenerationProfile(
            n_clusters=int(spec.get("n_clusters", 8)),
            rays_per_cluster=int(spec.get("rays_per_cluster", 10)),
            delay_scale_s=float(spec.get("delay_scale_ns", 30.0)) * 1e-9,
            angle_spread_rad=math.radians(float(spec.get("angle_spread_deg", 5.0))),
            xpr_mean_db=float(spec.get("xpr_mean_db", 9.0)),
            xpr_std_db=float(spec.get("xpr_std_db", 3.0)),
            shadow_std_db=float(spec.get("shadow_std_db", 3.0)),
            doppler_max_hz=float(spec.get("doppler_max_hz", 0.0)),
            seed=0,
        )
    except (TypeError, ValueError) as exc:
        errors.append(f"{where}: {exc}")
        return None


def load_config(path) -> ScenarioConfig:
    """Read a scenario JSON and parse it with :func:`parse_config`; a
    missing name is the file's stem."""
    path = Path(path)
    with open(path) as f:
        raw = json.load(f)
    if isinstance(raw, dict) and not raw.get("name"):
        raw["name"] = path.stem
    return parse_config(raw, path.parent)


def parse_config(raw, base_dir) -> ScenarioConfig:
    """Validate a raw scenario dict; relative file names resolve against
    ``base_dir``. Raises ConfigError listing every violation found."""
    if not isinstance(raw, dict):
        raise ConfigError(["a scenario must be a JSON object"])
    base_dir = Path(base_dir)
    errors: list[str] = []
    _unknown_keys(raw, TOP_KEYS, errors, "")

    name = raw.get("name")
    if not isinstance(name, str) or not name:
        errors.append("name must be a non-empty string")
    carrier = _number(raw, "carrier_freq_hz", 0.0, errors, "carrier_freq_hz")
    if carrier <= 0:
        errors.append("carrier_freq_hz must be > 0")
    bandwidth = _number(raw, "bandwidth_hz", 0.0, errors, "bandwidth_hz")
    if bandwidth <= 0:
        errors.append("bandwidth_hz must be > 0")

    mode = raw.get("sensing_mode", "")
    if mode not in ("mono_static", "bi_static"):
        errors.append(f"sensing_mode must be mono_static or bi_static, got {mode!r}")

    tx_raw = _section(raw, "tx", errors, "tx")
    rx_raw = _section(raw, "rx", errors, "rx")
    _unknown_keys(tx_raw, ENDPOINT_KEYS, errors, "tx")
    _unknown_keys(rx_raw, ENDPOINT_KEYS, errors, "rx")
    tx = EndpointSpec(np.asarray(tx_raw.get("position_m", [0, 0, 0]), dtype=float),
                      _parse_antenna(_section(tx_raw, "antenna", errors, "tx.antenna"),
                                     errors, "tx.antenna"))
    rx = EndpointSpec(np.asarray(rx_raw.get("position_m", [0, 0, 0]), dtype=float),
                      _parse_antenna(_section(rx_raw, "antenna", errors, "rx.antenna"),
                                     errors, "rx.antenna"))
    if mode == "mono_static" and not np.array_equal(tx.position_m, rx.position_m):
        errors.append("mono_static requires tx.position_m == rx.position_m")

    targets = []
    for i, t in enumerate(raw.get("targets", [])):
        where = f"targets[{i}]"
        if not isinstance(t, dict):
            errors.append(f"{where} must be an object, got {t!r}")
            continue
        _unknown_keys(t, TARGET_KEYS, errors, where)
        rcs = _parse_rcs(_section(t, "rcs", errors, f"{where}.rcs"), errors, where, base_dir)
        point = ScatteringPoint(
            position=np.asarray(t.get("position_m", [0, 0, 0]), dtype=float),
            velocity=np.asarray(t.get("velocity_mps", [0, 0, 0]), dtype=float),
            rcs_model=rcs,
        )
        sl = _section(t, "sublink", errors, f"{where}.sublink")
        targets.append(TargetSpec(
            point=point,
            profile=_parse_profile({**SUBLINK_DEFAULTS, **sl}, errors, f"{where}.sublink",
                                   also_allowed=("k_factor_db",)),
            k_factor_db=_number(sl, "k_factor_db", 6.0, errors,
                                f"{where}.sublink.k_factor_db")))

    bg_raw = _section(raw, "background", errors, "background")
    bg_mode = bg_raw.get("mode", "")
    if bg_mode in ("statistical", "geometric"):
        _unknown_keys(bg_raw, BACKGROUND_KEYS[bg_mode], errors, "background")
    profile = None
    scatterers: tuple[GeometricScatterer, ...] = ()
    if bg_mode == "statistical":
        prof_raw = bg_raw.get("profile")
        if prof_raw is None:
            errors.append("statistical background needs a 'profile'")
        elif not isinstance(prof_raw, dict):
            errors.append(f"background.profile must be an object, got {prof_raw!r}")
        else:
            profile = _parse_profile(prof_raw, errors, "background.profile")
            if profile is not None and profile.n_clusters < 1:
                errors.append("background profile needs n_clusters >= 1")
    elif bg_mode == "geometric":
        sc_raw = bg_raw.get("scatterers", [])
        for i, sc in enumerate(sc_raw if isinstance(sc_raw, list) else ()):
            if isinstance(sc, dict):
                _unknown_keys(sc, SCATTERER_KEYS, errors, f"background.scatterers[{i}]")
        try:
            scatterers = tuple(
                GeometricScatterer(
                    position=np.asarray(sc["position_m"], dtype=float),
                    reflection_gain_db=float(sc.get("reflection_gain_db", 0.0)),
                    label=sc.get("label", f"S{i}"))
                for i, sc in enumerate(sc_raw))
        except (KeyError, TypeError) as exc:
            errors.append(f"background.scatterers malformed: {exc}")
    else:
        errors.append(f"background.mode must be statistical or geometric, got {bg_mode!r}")
    # the statistical engine assumes separated endpoints; co-located
    # sensing needs the geometric echo model
    if mode == "mono_static" and bg_mode == "statistical":
        errors.append("mono_static sensing requires background.mode = geometric")
    if mode == "bi_static" and bg_mode == "geometric":
        errors.append("bi_static sensing requires background.mode = statistical")
    background = BackgroundSpec(mode=bg_mode, profile=profile, scatterers=scatterers)

    pcf_raw = _section(raw, "pcf", errors, "pcf", default={"value": 1.0})
    _unknown_keys(pcf_raw, PCF_KEYS, errors, "pcf")
    pcf = None
    if "domain" in pcf_raw:
        errors.append("pcf.domain is not supported: the PCF always scales "
                      "linear received power")
    if "value" in pcf_raw:
        value = _number(pcf_raw, "value", math.nan, errors, "pcf.value")
        try:
            pcf = PcfModel("fixed", value, 0.0)
        except ValueError:
            errors.append(f"pcf.value {value} outside (0, 1.5]")
    elif "mean" in pcf_raw:
        try:
            pcf = PcfModel(pcf_raw.get("condition", "custom"),
                           _number(pcf_raw, "mean", math.nan, errors, "pcf.mean"),
                           _number(pcf_raw, "std", 0.0, errors, "pcf.std"))
        except ValueError as exc:
            errors.append(f"pcf model invalid: {exc}")
    elif "condition" in pcf_raw:
        try:
            pcf = default_pcf_model(pcf_raw["condition"])
        except ValueError as exc:
            errors.append(str(exc))
    else:
        errors.append("pcf needs one of: value, mean, condition")

    scan_raw = _section(raw, "scan", errors, "scan")
    _unknown_keys(scan_raw, SCAN_KEYS, errors, "scan")
    start = _number(scan_raw, "start_deg", 0.0, errors, "scan.start_deg")
    stop = _number(scan_raw, "stop_deg", 360.0, errors, "scan.stop_deg")
    step = _number(scan_raw, "step_deg", 5.0, errors, "scan.step_deg")
    if step <= 0:
        errors.append("scan.step_deg must be > 0")
    elif stop <= start:
        errors.append("scan.stop_deg must exceed scan.start_deg")
    else:
        span = stop - start
        ratio = span / step
        if abs(ratio - round(ratio)) > 1e-9:
            errors.append(f"scan.step_deg {step} does not divide the range {span}")

    seed = raw.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        errors.append("seed must be an integer")
        seed = 0

    sounder_raw = _section(raw, "sounder", errors, "sounder")
    _unknown_keys(sounder_raw, SOUNDER_KEYS, errors, "sounder")
    sounder_m = _number(sounder_raw, "register_length", 11, errors,
                        "sounder.register_length", kind=int)
    sounder_snr = _number(sounder_raw, "snr_db", 30.0, errors, "sounder.snr_db")

    if errors:
        raise ConfigError(errors)

    return ScenarioConfig(
        name=name, carrier_freq_hz=carrier, bandwidth_hz=bandwidth,
        sensing_mode=mode, tx=tx, rx=rx, targets=tuple(targets),
        background=background, pcf=pcf,
        scan_start_deg=start, scan_stop_deg=stop, scan_step_deg=step,
        seed=seed, outputs=raw.get("outputs", name), base_dir=base_dir,
        sounder_m=sounder_m, sounder_snr_db=sounder_snr, raw=raw,
    )
