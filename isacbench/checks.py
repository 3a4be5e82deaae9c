"""Output checks computed apart from the program.

Nothing here imports isacsim. Every expected value is rebuilt from the
generated config, the scene and the files a run wrote, with the
benchmark's own numpy code: the Gaussian-horn gain, the delay binning,
the route geometry and the PN period length. Each check raises
``CheckFailure`` with a message naming the file and the first mismatch.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np

C = 299_792_458.0  # m/s

# Powers below this are in or near the subnormal range, where two
# correct evaluations of the same product may round to different values
# or to zero; they are exempt from the relative comparison only.
TINY = 1e-290
RTOL = 1e-9


class CheckFailure(AssertionError):
    pass


def _fail(msg: str):
    raise CheckFailure(msg)


def _load_paths(path: Path) -> list[dict]:
    with open(path) as f:
        return json.load(f)["paths"]


def _wrap_deg(d):
    return np.abs((np.asarray(d, dtype=float) + 180.0) % 360.0 - 180.0)


def _direction_deg(frm, to) -> tuple[float, float]:
    v = np.asarray(to, dtype=float) - np.asarray(frm, dtype=float)
    n = float(np.linalg.norm(v))
    return (math.degrees(math.atan2(v[1], v[0])) % 360.0,
            math.degrees(math.asin(max(-1.0, min(1.0, v[2] / n)))))


# ---------------------------------------------------------------------------
# PADP rebuild
# ---------------------------------------------------------------------------

class Padp:
    """The with-target PADP rebuilt from target.json + background.json."""

    def __init__(self, cfg: dict, sim_dir: Path):
        paths = _load_paths(sim_dir / "target.json") + _load_paths(sim_dir / "background.json")
        delay = np.array([p["delay_s"] for p in paths])
        power = np.array([p["amp_re"] ** 2 + p["amp_im"] ** 2 for p in paths])
        az = np.radians([p["aoa_az_deg"] for p in paths])
        el = np.radians([p["aoa_el_deg"] for p in paths])

        scan = cfg.get("scan", {})
        self.angles = np.arange(float(scan.get("start_deg", 0.0)),
                                float(scan.get("stop_deg", 360.0)),
                                float(scan.get("step_deg", 5.0)))
        # bins of one over the bandwidth from 0, two spare bins past the last path
        self.bin_w = 1.0 / float(cfg["bandwidth_hz"])
        n_bins = max(1, int(math.ceil((delay.max(initial=0.0) + 2 * self.bin_w) / self.bin_w)))
        self.edges = self.bin_w * np.arange(n_bins + 1)
        self.centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        idx = np.searchsorted(self.edges, delay, side="right") - 1
        if np.any(idx < 0) or np.any(idx >= n_bins):
            _fail(f"{sim_dir}: a path delay lies outside the delay grid")
        self.occupied = np.bincount(idx, minlength=n_bins) > 0

        ant = cfg.get("rx", {}).get("antenna", {})
        rows = []
        for ang in np.radians(self.angles):
            if ant.get("kind") == "horn":
                # Gaussian main lobe: g_peak * exp(-4 ln2 (off / hpbw)^2), with the
                # off-axis angle measured from a horizontal boresight at ``ang``
                g_peak = 10.0 ** (float(ant.get("peak_gain_db", 0.0)) / 10.0)
                hpbw = math.radians(float(ant.get("hpbw_deg", 10.0)))
                off = np.arccos(np.clip(np.cos(el) * np.cos(az - ang), -1.0, 1.0))
                gain = g_peak * np.exp(-4.0 * math.log(2.0) * (off / hpbw) ** 2)
            else:
                gain = 1.0
            rows.append(np.bincount(idx, weights=power * gain, minlength=n_bins))
        self.grid = np.stack(rows)


def check_padp_csv(padp: Padp, sim_dir: Path) -> None:
    """padp.csv equals the rebuilt PADP at rtol 1e-9, with the same zero pattern."""
    path = sim_dir / "padp.csv"
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    shape = padp.grid.shape
    if len(rows) != shape[0] * shape[1]:
        _fail(f"{path}: {len(rows)} rows, expected {shape[0]} angles x {shape[1]} bins")
    ang = np.array([float(r["angle_deg"]) for r in rows]).reshape(shape)
    tau = np.array([float(r["delay_ns"]) for r in rows]).reshape(shape)
    if not np.allclose(ang, padp.angles[:, None], rtol=0, atol=1e-9):
        _fail(f"{path}: scan angles differ from the configured scan")
    if not np.allclose(tau, padp.centers[None, :] * 1e9, rtol=1e-12, atol=1e-9):
        _fail(f"{path}: delay bin centres differ from the 1/bandwidth grid")
    empty = np.array([r["power_db"] == "" for r in rows]).reshape(shape)
    got = np.zeros(shape)
    got[~empty] = 10.0 ** (np.array([float(r["power_db"]) for r in rows
                                     if r["power_db"] != ""]) / 10.0)
    want = padp.grid
    # a bin no path falls into is empty; a bin with clearly nonzero power is not
    zero_bad = (~padp.occupied[None, :] & ~empty) | ((want >= TINY) & empty)
    cmp = (want >= TINY) & ~empty
    rel = np.zeros(shape)
    rel[cmp] = np.abs(got[cmp] - want[cmp]) / want[cmp]
    value_bad = rel > RTOL
    if zero_bad.any() or value_bad.any():
        i, j = np.argwhere(zero_bad | value_bad)[0]
        _fail(f"{path}: {int(zero_bad.sum())} bins with another zero pattern and "
              f"{int(value_bad.sum())} beyond rtol {RTOL} of {shape[0] * shape[1]}; first at "
              f"{padp.angles[i]} deg, {padp.centers[j] * 1e9} ns: csv "
              f"{'empty' if empty[i, j] else repr(float(got[i, j]))}, "
              f"rebuilt {float(want[i, j])!r}")


# ---------------------------------------------------------------------------
# Path lists
# ---------------------------------------------------------------------------

def check_unique_keys(sim_dir: Path) -> None:
    """No two target paths share a (delay, AoD, AoA) key."""
    paths = _load_paths(sim_dir / "target.json")
    keys = [(p["delay_s"], p["aod_az_deg"], p["aod_el_deg"], p["aoa_az_deg"], p["aoa_el_deg"])
            for p in paths]
    if len(set(keys)) != len(keys):
        seen = set()
        dup = next(k for k in keys if k in seen or seen.add(k))
        _fail(f"{sim_dir / 'target.json'}: {len(keys) - len(set(keys))} duplicate "
              f"(delay, AoD, AoA) keys, first {dup}")


def check_target_los(cfg: dict, sim_dir: Path) -> None:
    """Each target has a bounce-order-0 path at its geometric delay and angles."""
    paths = [p for p in _load_paths(sim_dir / "target.json") if p["bounce_order"] == 0]
    tx, rx = cfg["tx"]["position_m"], cfg["rx"]["position_m"]
    for k, t in enumerate(cfg.get("targets", [])):
        pos = t["position_m"]
        delay = (math.dist(tx, pos) + math.dist(pos, rx)) / C
        aod, aoa = _direction_deg(tx, pos), _direction_deg(rx, pos)
        hit = [p for p in paths
               if abs(p["delay_s"] - delay) <= 1e-12 * delay
               and _wrap_deg(p["aod_az_deg"] - aod[0]) <= 1e-9
               and abs(p["aod_el_deg"] - aod[1]) <= 1e-9
               and _wrap_deg(p["aoa_az_deg"] - aoa[0]) <= 1e-9
               and abs(p["aoa_el_deg"] - aoa[1]) <= 1e-9]
        if not hit:
            _fail(f"{sim_dir / 'target.json'}: target {k} has no bounce-order-0 path at "
                  f"{delay * 1e9:.6f} ns, AoD {aod}, AoA {aoa} deg")


# ---------------------------------------------------------------------------
# Analyze output
# ---------------------------------------------------------------------------

def check_peaks(padp: Padp, sim_dir: Path, threshold_db: float) -> None:
    """Every paths.json peak is a target-tagged 3x3 local maximum of the
    rebuilt PADP, within threshold_db of its global maximum."""
    path = sim_dir / "paths.json"
    grid = padp.grid
    floor = grid.max() * 10.0 ** (-threshold_db / 10.0)
    for rec in _load_paths(path):
        if rec["origin"] != "target":
            _fail(f"{path}: peak {rec} is not tagged as target")
        i = np.flatnonzero(np.abs(padp.angles - rec["theta_deg"]) <= 1e-9)
        j = np.flatnonzero(np.abs(padp.centers * 1e9 - rec["tau_ns"]) <= 1e-6)
        if len(i) != 1 or len(j) != 1:
            _fail(f"{path}: peak at {rec['theta_deg']} deg, {rec['tau_ns']} ns is off the grid")
        i, j = int(i[0]), int(j[0])
        val = grid[i, j]
        hood = grid[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2]
        if val <= 0.0 or val < hood.max() * (1.0 - RTOL):
            _fail(f"{path}: peak at {rec['theta_deg']} deg, {rec['tau_ns']} ns is not a "
                  f"3x3 local maximum ({float(val)!r} < {float(hood.max())!r})")
        if val < floor * (1.0 - RTOL):
            _fail(f"{path}: peak at {rec['theta_deg']} deg, {rec['tau_ns']} ns is below "
                  f"the {threshold_db} dB threshold")


def check_routes(scene: dict, sim_dir: Path, bin_w: float) -> None:
    """Each classified peak's route length matches its delay within one bin,
    and its bounce order counts the route's reflectors."""
    path = sim_dir / "paths.json"
    points = {"Tx": scene["tx_m"], "Rx": scene["rx_m"], "ST": scene["target_m"]}
    for i, r in enumerate(scene.get("reflectors", [])):
        points[r.get("label", f"R{i}")] = r["position_m"]
    for rec in _load_paths(path):
        route = rec["route_labels"]
        if route is None:
            continue
        labels = route.split(">")
        if labels[0] != "Tx" or labels[-1] != "Rx" or "ST" not in labels:
            _fail(f"{path}: route {route!r} does not run Tx > ST > Rx")
        if any(lb not in points for lb in labels):
            _fail(f"{path}: route {route!r} names a point not in the scene")
        length = sum(math.dist(points[a], points[b]) for a, b in zip(labels, labels[1:]))
        if abs(length / C - rec["tau_ns"] * 1e-9) > bin_w * (1.0 + RTOL):
            _fail(f"{path}: route {route!r} is {length / C * 1e9:.3f} ns long, "
                  f"peak at {rec['tau_ns']} ns")
        if rec["bounce_order"] != len(labels) - 3:
            _fail(f"{path}: route {route!r} has {len(labels) - 3} reflections, "
                  f"bounce_order {rec['bounce_order']}")


# ---------------------------------------------------------------------------
# Sounder round trip
# ---------------------------------------------------------------------------

def check_roundtrip(cfg: dict, sim_dir: Path, snd_dir: Path) -> None:
    """Matched delays lie within one chip of a true path delay of the same
    scenario, and capture.bin holds one PN period of complex float32."""
    m = int(cfg.get("sounder", {}).get("register_length", 11))
    n_chips = 2 ** m - 1
    cap = snd_dir / "capture.bin"
    if cap.stat().st_size != 8 * n_chips:
        _fail(f"{cap}: {cap.stat().st_size} bytes, expected {n_chips} complex float32 "
              f"samples ({8 * n_chips} bytes)")
    with open(str(cap) + ".json") as f:
        if json.load(f)["pn"]["m"] != m:
            _fail(f"{cap}.json: register length differs from the config's {m}")

    with open(snd_dir / "roundtrip.json") as f:
        doc = json.load(f)
    paths = _load_paths(sim_dir / "target.json") + _load_paths(sim_dir / "background.json")
    if doc["n_true_paths"] != len(paths):
        _fail(f"{snd_dir / 'roundtrip.json'}: n_true_paths {doc['n_true_paths']}, "
              f"simulate wrote {len(paths)}")
    true_ns = np.array(sorted(p["delay_s"] * 1e9 for p in paths))
    chip_ns = 1e9 / float(cfg["bandwidth_hz"])
    for rec in doc["recovered"]:
        truth = rec["matched_truth_ns"]
        if truth is None:
            continue
        if np.min(np.abs(true_ns - truth)) > 1e-9 * truth:
            _fail(f"{snd_dir / 'roundtrip.json'}: matched truth {truth} ns is not a path delay")
        if abs(rec["delay_est_ns"] - truth) > chip_ns * (1.0 + RTOL):
            _fail(f"{snd_dir / 'roundtrip.json'}: estimate {rec['delay_est_ns']} ns is more "
                  f"than one chip ({chip_ns} ns) from its truth {truth} ns")


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def manifest(*dirs: Path) -> dict[str, str]:
    """SHA-256 of every file a chain wrote, except report.json (it holds
    timings). Also checks the program's own manifest against it."""
    out = {}
    for d in dirs:
        for f in sorted(d.iterdir()):
            if f.name != "report.json":
                out[f"{d.name}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
        report = d / "report.json"
        if report.exists():
            with open(report) as fh:
                for name, digest in json.load(fh)["manifest"].items():
                    if out.get(f"{d.name}/{name}") != digest:
                        _fail(f"{report}: manifest entry {name} does not match the file")
    return out


def check_same_manifest(ref: dict[str, str], got: dict[str, str], where: str) -> None:
    if ref != got:
        diff = sorted(k for k in set(ref) | set(got) if ref.get(k) != got.get(k))
        _fail(f"{where}: outputs differ from an earlier pass with the same seed: {diff}")


def chain_checks(cfg: dict, scene: dict | None, threshold_db: float, sim_dir: Path,
                 snd_dir: Path) -> list[tuple[str, tuple[str, ...], object]]:
    """The checks of one simulate -> analyze -> sounder-roundtrip chain, as
    (name, subcommands whose output it reads, check)."""
    padp = functools.cache(lambda: Padp(cfg, sim_dir))
    out = [
        ("padp_csv", ("simulate",), lambda: check_padp_csv(padp(), sim_dir)),
        ("unique_keys", ("simulate",), lambda: check_unique_keys(sim_dir)),
        ("target_los", ("simulate",), lambda: check_target_los(cfg, sim_dir)),
        ("peaks", ("simulate", "analyze"), lambda: check_peaks(padp(), sim_dir, threshold_db)),
    ]
    if scene is not None:
        out.append(("routes", ("simulate", "analyze"),
                    lambda: check_routes(scene, sim_dir, padp().bin_w)))
    out.append(("roundtrip", ("simulate", "sounder-roundtrip"),
                lambda: check_roundtrip(cfg, sim_dir, snd_dir)))
    return out
