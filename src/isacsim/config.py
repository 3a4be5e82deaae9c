"""Scenario and scene files: one key table per section, one reader that
collects every violation under its key path, and the model builders.

Field names carry explicit SI units (..._hz, ..._m, ..._deg) because the
sensing literature mixes GHz/ns/degrees freely and silent unit errors
are the most common failure mode. Each key is declared once, as
``key: (type, default, rule)``; the README lists the same keys.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import MAX_SCAN_CELLS, ReconstructionScene
from .background import (PCF_CLAMP, PCF_INTERVAL, PCF_MEASUREMENTS, GeometricScatterer,
                         PcfModel, default_pcf_model)
from .core import C_LIGHT, DB_LIMIT, ConstantRcs, Record, ValueRecord
from .gbsm import AntennaModel, GenerationProfile
from .sounder import DEFAULT_TAPS


class ConfigError(ValueError):
    """Carries the full list of validation violations."""

    def __init__(self, violations, source: str = "scenario config"):
        self.violations = list(violations)
        super().__init__(f"invalid {source}:\n  - " + "\n  - ".join(self.violations))


class TargetSpec(Record):
    """One scattering point and the recipe of its Tx-target and target-Rx
    hops: statistical clusters (drawn with each hop's own seed) plus a
    LOS ray whose power relative to them is the K-factor. A table RCS is
    its CSV file, read where the channel is built."""

    __slots__ = ("position_m", "velocity_mps", "rcs", "profile", "k_factor_db")

    def __init__(self, position_m: np.ndarray, velocity_mps: np.ndarray, rcs: ConstantRcs | Path,
                 profile: GenerationProfile, k_factor_db: float):
        self._fill(position_m, velocity_mps, rcs, profile, k_factor_db)


class EndpointSpec(Record):
    __slots__ = ("position_m", "antenna")

    def __init__(self, position_m: np.ndarray, antenna: AntennaModel):
        self._fill(position_m, antenna)


class BackgroundSpec(ValueRecord):
    """A "statistical" background's profile, or a "geometric" one's scatterers."""

    __slots__ = ("mode", "profile", "scatterers")

    def __init__(self, mode: str, profile: GenerationProfile | None = None,
                 scatterers: tuple[GeometricScatterer, ...] = ()):
        self._fill(mode, profile, scatterers)


class ScenarioConfig(Record):
    """A parsed scenario; ``raw`` is the document it was read from. A fixed
    ``pcf.value`` is a PcfModel with std 0."""

    __slots__ = ("name", "carrier_freq_hz", "bandwidth_hz", "tx", "rx", "targets", "background",
                 "pcf", "scan_start_deg", "scan_stop_deg", "scan_step_deg", "seed", "outputs",
                 "sounder_m", "sounder_snr_db", "raw")
    _unlisted = ("raw",)

    def __init__(self, name: str, carrier_freq_hz: float, bandwidth_hz: float, tx: EndpointSpec,
                 rx: EndpointSpec, targets: tuple[TargetSpec, ...], background: BackgroundSpec,
                 pcf: PcfModel, scan_start_deg: float, scan_stop_deg: float,
                 scan_step_deg: float, seed: int, outputs: str, sounder_m: int,
                 sounder_snr_db: float, raw: dict | None = None):
        self._fill(name, carrier_freq_hz, bandwidth_hz, tx, rx, targets, background, pcf,
                   scan_start_deg, scan_stop_deg, scan_step_deg, seed, outputs, sounder_m,
                   sounder_snr_db, {} if raw is None else raw)

    def scan_angles_deg(self) -> np.ndarray:
        """The round((stop - start) / step) angles from start on: never stop
        itself, which arange reaches where rounding lifts the ratio."""
        n = round((self.scan_stop_deg - self.scan_start_deg) / self.scan_step_deg)
        return np.arange(self.scan_start_deg, self.scan_stop_deg, self.scan_step_deg)[:n]


REQUIRED = object()  # the default of a key that must be given
VECTOR = "vector"    # the type of a position or velocity: a list of 3 numbers


def _is_number(v) -> bool:
    # a finite JSON number: not a bool, NaN, an infinity or an int too large for a float
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and -sys.float_info.max <= v <= sys.float_info.max)


# each leaf type: its name in a violation, its test of a JSON value, its conversion
LEAF_TYPES = {
    float: ("a number", _is_number, float),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int),
    str: ("a string", lambda v: isinstance(v, str), str),
    VECTOR: ("a list of 3 numbers",
             lambda v: isinstance(v, list) and len(v) == 3 and all(map(_is_number, v)),
             lambda v: np.asarray(v, dtype=float)),
}


def _one_of(*names):
    return " or ".join(map(repr, names)), lambda v: v in names


# a rule: its text in a violation, and its test of a value of the right type
POSITIVE = ("> 0", lambda v: v > 0)
NON_NEGATIVE = (">= 0", lambda v: v >= 0)
AT_LEAST_ONE = (">= 1", lambda v: v >= 1)
NON_EMPTY = ("non-empty", bool)
PCF_RANGE = (f"in {PCF_INTERVAL}", lambda v: PCF_CLAMP[0] < v <= PCF_CLAMP[1])
# a level in dB, and the standard deviation of a normal draw in dB: at 30 dB,
# four deviations already span 12 orders of magnitude
DB_LEVEL = (f"between {-DB_LIMIT:g} and {DB_LIMIT:g}", lambda v: -DB_LIMIT <= v <= DB_LIMIT)
DB_SPREAD = ("between 0 and 30", lambda v: 0 <= v <= 30)
# a carrier of about 8.46e-8 to 8.46e22 Hz, whose spreading factor
# (core.spreading_gain) is a level like any other; taken in logs, since at
# either extreme lambda^2 leaves the floats
CARRIER = (f"a frequency whose spreading factor 4 pi f^2 / c^2 is within ±{DB_LIMIT:g} dB",
           lambda v: v > 0 and abs(10 * math.log10(4 * math.pi)
                                   + 20 * (math.log10(v) - math.log10(C_LIGHT))) <= DB_LIMIT)
# a horn width whose pencil-beam directivity 4 pi / hpbw^2 (in radians; about
# 41253 / hpbw_deg^2) is a level like any other: at least about 2.031e-13 deg,
# below which the lobe's exponent overflows
BEAMWIDTH = (f"a width whose directivity 4 pi / (hpbw in rad)^2 is within ±{DB_LIMIT:g} dB",
             lambda v: v > 0 and abs(10 * math.log10(4 * math.pi * (180 / math.pi) ** 2)
                                     - 20 * math.log10(v)) <= DB_LIMIT)
# the PN register lengths that have default feedback taps (a contiguous range)
REGISTER_LENGTH = (f"between {min(DEFAULT_TAPS)} and {max(DEFAULT_TAPS)}",
                   lambda v: v in DEFAULT_TAPS)


class Tagged(ValueRecord):
    """Key tables chosen by the string at ``key`` (``default`` where it
    is absent), which every table accepts; with no ``key``, by the first
    table name that is a key of the object."""

    __slots__ = ("key", "default", "tables")

    def __init__(self, key: str | None, default: object, tables: dict):
        self._fill(key, default, tables)

    def pick(self, doc: dict, path: str, errors) -> dict | None:
        if self.key is None:
            tag = next((name for name in self.tables if name in doc), None)
            if tag is None:
                errors.append(f"{path} must have one of the keys "
                              f"{_one_of(*self.tables)[0]}, got {doc!r}")
            return self.tables.get(tag)
        tag = doc.get(self.key, self.default)
        if _check(tag, str, _one_of(*self.tables), f"{path}.{self.key}", errors) is None:
            return None
        return {self.key: (str, self.default, None), **self.tables[tag]}


# the cluster recipe of a background or a sub-link (GenerationProfile)
PROFILE = {
    "n_clusters": (int, 8, NON_NEGATIVE),
    "rays_per_cluster": (int, 10, AT_LEAST_ONE),
    "delay_scale_ns": (float, 30.0, NON_NEGATIVE),
    "angle_spread_deg": (float, 5.0, NON_NEGATIVE),
    "xpr_mean_db": (float, 9.0, DB_LEVEL),
    "xpr_std_db": (float, 3.0, DB_SPREAD),
    "shadow_std_db": (float, 3.0, DB_SPREAD),
}
SUBLINK = {**PROFILE,
           "n_clusters": (int, 4, NON_NEGATIVE),
           "rays_per_cluster": (int, 5, AT_LEAST_ONE),
           "delay_scale_ns": (float, 20.0, NON_NEGATIVE),
           "k_factor_db": (float, 6.0, DB_LEVEL)}
ENDPOINT = {
    "position_m": (VECTOR, [0.0, 0.0, 0.0], None),
    "antenna": (Tagged("kind", "omni", {
        "omni": {},
        "horn": {"hpbw_deg": (float, 10.0, BEAMWIDTH), "peak_gain_db": (float, 0.0, DB_LEVEL)},
    }), {}, None),
}
TARGET = {
    "position_m": (VECTOR, [0.0, 0.0, 0.0], None),
    "velocity_mps": (VECTOR, [0.0, 0.0, 0.0], None),
    "rcs": (Tagged("variant", "constant", {
        "constant": {"sigma_dbsm": (float, 0.0, DB_LEVEL)},
        "table": {"csv": (str, REQUIRED, NON_EMPTY)},  # relative to the config's directory
    }), {}, None),
    "sublink": (SUBLINK, {}, None),
}
SCATTERER = {
    "position_m": (VECTOR, REQUIRED, None),
    "reflection_gain_db": (float, 0.0, DB_LEVEL),
    "label": (str, None, None),  # S<index> where absent
}
SCENARIO = {
    "name": (str, REQUIRED, NON_EMPTY),  # load_config: the file's stem where absent
    "carrier_freq_hz": (float, REQUIRED, CARRIER),
    "bandwidth_hz": (float, REQUIRED, POSITIVE),
    "sensing_mode": (str, REQUIRED, _one_of("mono_static", "bi_static")),
    "tx": (ENDPOINT, {}, None),
    "rx": (ENDPOINT, {}, None),
    "targets": ([TARGET], [], None),
    "background": (Tagged("mode", REQUIRED, {
        "statistical": {"profile": ({**PROFILE, "n_clusters": (int, 8, AT_LEAST_ONE)},
                                    REQUIRED, None)},
        "geometric": {"scatterers": ([SCATTERER], [], None)},
    }), {}, None),
    "pcf": (Tagged(None, None, {
        "value": {"value": (float, REQUIRED, PCF_RANGE)},
        "mean": {"mean": (float, REQUIRED, PCF_RANGE), "std": (float, 0.0, NON_NEGATIVE),
                 "condition": (str, "custom", None)},
        "condition": {"condition": (str, REQUIRED,
                                    _one_of(*dict.fromkeys(c for _, c, _ in PCF_MEASUREMENTS)))},
    }), {"value": 1.0}, None),
    "scan": ({"start_deg": (float, 0.0, None), "stop_deg": (float, 360.0, None),
              "step_deg": (float, 5.0, POSITIVE)}, {}, None),
    "seed": (int, REQUIRED, NON_NEGATIVE),
    "outputs": (str, None, None),  # the name where absent
    "sounder": ({"register_length": (int, 11, REGISTER_LENGTH),
                 "snr_db": (float, 30.0, DB_LEVEL)}, {}, None),
}
# the reconstruction scene that `analyze --scene` reads
SCENE = {
    "tx_m": (VECTOR, REQUIRED, None),
    "rx_m": (VECTOR, REQUIRED, None),
    "target_m": (VECTOR, REQUIRED, None),
    "reflectors": ([{"position_m": (VECTOR, REQUIRED, None),
                     "label": (str, None, None)}], [], None),  # R<index> where absent
    "beamwidth_deg": (float, None, POSITIVE),  # accepted, not used
}


def _unknown_keys(spec: dict, allowed, errors, where: str) -> None:
    """A violation naming each key of ``spec`` outside ``allowed``, with the
    closest allowed key as a suggestion; ``where`` is the key path of ``spec``."""
    for key in spec:
        if key not in allowed:
            import difflib  # only on this error path: it costs ms at startup
            close = difflib.get_close_matches(str(key), allowed, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            name = f"{where}.{key}" if where else str(key)
            errors.append(f"{name} is not a known key{hint}")


def _read(doc: dict, table, path: str, errors) -> dict | None:
    """The object ``doc`` at key path ``path`` read against ``table``:
    each key's checked value, its default where it is absent, or None
    where it breaks its type or rule. None where a tag picks no table."""
    if isinstance(table, Tagged):
        table = table.pick(doc, path, errors)
        if table is None:
            return None
    _unknown_keys(doc, table, errors, path)
    values = {}
    for key, (kind, default, rule) in table.items():
        value = doc.get(key, default)
        if value is None and key not in doc:  # absent, and no default value
            values[key] = None
        else:
            values[key] = _check(value, kind, rule, f"{path}.{key}" if path else key, errors)
    return values


def _check(value, kind, rule, where: str, errors):
    """``value`` read as ``kind`` (a leaf type, a table, or a list of one
    table's objects) under ``rule``; None and a violation where it breaks either."""
    if isinstance(kind, (dict, Tagged)):
        expected = "an object"
        if isinstance(value, dict):
            return _read(value, kind, where, errors)
    elif isinstance(kind, list):
        expected = "a list"
        if isinstance(value, list):
            return [_check(item, kind[0], None, f"{where}[{i}]", errors)
                    for i, item in enumerate(value)]
    else:
        expected, test, convert = LEAF_TYPES[kind]
        if test(value):
            if rule is None or rule[1](value):
                return convert(value)
            expected = rule[0]
    errors.append(f"{where} is missing: it must be {expected}" if value is REQUIRED
                  else f"{where} must be {expected}, got {value!r}")
    return None


def read_json(path, advice: str = ""):
    """The document in a JSON file. A file that is not JSON raises a
    ValueError that names it, followed by ``advice``."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as exc:  # not JSON, or not text
            raise ValueError(f"{path} is not valid JSON ({exc}){advice}") from None


def load_config(path) -> ScenarioConfig:
    """Read a scenario JSON and parse it with :func:`parse_config`; an
    absent name is the file's stem."""
    path = Path(path)
    raw = read_json(path)
    if isinstance(raw, dict) and "name" not in raw:
        raw["name"] = path.stem
    return parse_config(raw, path.parent)


def parse_config(raw, directory) -> ScenarioConfig:
    """Validate a raw scenario dict; relative file names resolve against
    ``directory``, and no file is opened. Raises ConfigError listing every
    violation found."""
    if not isinstance(raw, dict):
        raise ConfigError(["a scenario must be a JSON object"])
    errors: list[str] = []
    c = _read(raw, SCENARIO, "", errors)

    # cross-field rules, each on values that passed their own checks
    mode, tx, rx, bg, scan = (c[k] for k in ("sensing_mode", "tx", "rx", "background", "scan"))
    tx_pos, rx_pos = (end and end["position_m"] for end in (tx, rx))
    if tx_pos is not None and rx_pos is not None:
        if mode == "mono_static" and not np.array_equal(tx_pos, rx_pos):
            errors.append("mono_static requires tx.position_m == rx.position_m")
        if mode == "bi_static" and not np.linalg.norm(rx_pos - tx_pos) > 0.0:
            errors.append("bi_static requires tx.position_m != rx.position_m")
    # the statistical engine assumes separated endpoints; co-located
    # sensing needs the geometric echo model
    if mode == "mono_static" and bg and bg["mode"] == "statistical":
        errors.append("mono_static sensing requires background.mode = geometric")
    if mode == "bi_static" and bg and bg["mode"] == "geometric":
        errors.append("bi_static sensing requires background.mode = statistical")
    if c["targets"] == [] and bg and bg["mode"] == "geometric" and bg["scatterers"] == []:
        errors.append("targets and background.scatterers are both empty: the scene has no paths")
    if scan and None not in scan.values():
        start, stop, step = scan["start_deg"], scan["stop_deg"], scan["step_deg"]
        ratio = (stop - start) / step
        if stop <= start:
            errors.append("scan.stop_deg must exceed scan.start_deg")
        elif not (math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9):
            errors.append(f"scan.step_deg {step} does not divide the range {stop - start}")
        elif ratio > MAX_SCAN_CELLS:
            errors.append(f"scan.step_deg must leave at most {MAX_SCAN_CELLS} scan angles, "
                          f"got {step!r} ({ratio:.4g} angles)")
    for i, t in enumerate(c["targets"] or ()):
        pos, vel = (t and t[k] for k in ("position_m", "velocity_mps"))
        for name, end in (("tx", tx_pos), ("rx", rx_pos)):
            if pos is not None and end is not None and not np.linalg.norm(pos - end) > 0.0:
                errors.append(f"targets[{i}].position_m must differ from {name}.position_m")
        if vel is not None and not np.linalg.norm(vel) < C_LIGHT:
            errors.append(f"targets[{i}].velocity_mps must be a speed below "
                          f"{C_LIGHT:.0f} m/s, got {vel.tolist()!r}")

    if errors:
        raise ConfigError(errors)

    return ScenarioConfig(
        name=c["name"], carrier_freq_hz=c["carrier_freq_hz"], bandwidth_hz=c["bandwidth_hz"],
        tx=EndpointSpec(tx_pos, AntennaModel(**tx["antenna"])),
        rx=EndpointSpec(rx_pos, AntennaModel(**rx["antenna"])),
        targets=tuple(TargetSpec(
            position_m=t["position_m"], velocity_mps=t["velocity_mps"],
            rcs=(ConstantRcs(t["rcs"]["sigma_dbsm"]) if t["rcs"]["variant"] == "constant"
                 else Path(directory) / t["rcs"]["csv"]),
            profile=_profile(t["sublink"]), k_factor_db=t["sublink"]["k_factor_db"])
            for t in c["targets"]),
        background=BackgroundSpec(
            mode=bg["mode"],
            profile=_profile(bg["profile"]) if bg["mode"] == "statistical" else None,
            scatterers=tuple(
                GeometricScatterer(position=sc["position_m"],
                                   reflection_gain_db=sc["reflection_gain_db"],
                                   label=sc["label"] or f"S{i}")
                for i, sc in enumerate(bg.get("scatterers", ())))),
        pcf=_pcf(c["pcf"]),
        scan_start_deg=scan["start_deg"], scan_stop_deg=scan["stop_deg"],
        scan_step_deg=scan["step_deg"], seed=c["seed"],
        outputs=c["name"] if c["outputs"] is None else c["outputs"],
        sounder_m=c["sounder"]["register_length"], sounder_snr_db=c["sounder"]["snr_db"],
        raw=raw,
    )


def _profile(spec: dict) -> GenerationProfile:
    """The cluster recipe of a background or a sub-link."""
    return GenerationProfile(
        n_clusters=spec["n_clusters"], rays_per_cluster=spec["rays_per_cluster"],
        delay_scale_s=spec["delay_scale_ns"] * 1e-9,
        angle_spread_rad=math.radians(spec["angle_spread_deg"]),
        xpr_mean_db=spec["xpr_mean_db"], xpr_std_db=spec["xpr_std_db"],
        shadow_std_db=spec["shadow_std_db"])


def _pcf(spec: dict) -> PcfModel:
    if "value" in spec:
        return PcfModel("fixed", spec["value"], 0.0)
    if "mean" in spec:
        return PcfModel(spec["condition"], spec["mean"], spec["std"])
    return default_pcf_model(spec["condition"])


def load_scene(path) -> ReconstructionScene:
    """Read a reconstruction scene JSON and parse it with :func:`parse_scene`."""
    return parse_scene(read_json(path))


def parse_scene(doc) -> ReconstructionScene:
    """The reconstruction scene of a scene document (SCENE); raises
    ConfigError naming every bad key of the scene file."""
    if not isinstance(doc, dict):
        raise ConfigError(["a scene must be a JSON object"], "scene file")
    errors: list[str] = []
    scene = _read(doc, SCENE, "", errors)
    if errors:
        raise ConfigError(errors, "scene file")
    return ReconstructionScene(
        tx=scene["tx_m"], rx=scene["rx_m"], target=scene["target_m"],
        reflectors=tuple(GeometricScatterer(position=r["position_m"], label=r["label"] or "")
                         for r in scene["reflectors"]))
