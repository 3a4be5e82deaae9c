"""Benchmark inputs: scenario configs generated from the workload seed.

The scenario definitions are copied here rather than read from
``demos/configs`` so that the benchmark inputs only change when the
benchmark changes. Every workload writes its configs (and scene and RCS
table files) into the directory it is given; the program only ever sees
those generated files.
"""
from __future__ import annotations

import copy
import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# demos/configs/bistatic_indoor_human.json as shipped (seed replaced per run)
INDOOR_HUMAN = {
    "name": "bistatic_indoor_human",
    "carrier_freq_hz": 28e9,
    "bandwidth_hz": 0.6e9,
    "sensing_mode": "bi_static",
    "tx": {"position_m": [0.0, 0.0, 1.4],
           "antenna": {"kind": "horn", "hpbw_deg": 9.9, "peak_gain_db": 25.5}},
    "rx": {"position_m": [10.0, 0.0, 1.4],
           "antenna": {"kind": "horn", "hpbw_deg": 9.9, "peak_gain_db": 5.0}},
    "targets": [{
        "position_m": [5.0, 0.71, 1.4],
        "velocity_mps": [0.0, 0.0, 0.0],
        "rcs": {"variant": "constant", "sigma_dbsm": -2.0},
        "sublink": {"n_clusters": 3, "rays_per_cluster": 4, "delay_scale_ns": 15.0,
                    "angle_spread_deg": 6.0, "k_factor_db": 6.0},
    }],
    "background": {
        "mode": "statistical",
        "profile": {"n_clusters": 6, "rays_per_cluster": 8, "delay_scale_ns": 35.0,
                    "angle_spread_deg": 5.0, "xpr_mean_db": 9.0, "xpr_std_db": 3.0,
                    "shadow_std_db": 3.0},
    },
    "pcf": {"condition": "los_los"},
    "scan": {"start_deg": 0.0, "stop_deg": 360.0, "step_deg": 5.0},
    "seed": 42,
    "outputs": "runs/bistatic_indoor_human",
}

# demos/configs/indoor_human_scene.json as shipped
INDOOR_HUMAN_SCENE = {
    "tx_m": [0.0, 0.0, 1.4],
    "rx_m": [10.0, 0.0, 1.4],
    "target_m": [5.0, 0.71, 1.4],
    "reflectors": [
        {"position_m": [7.5, -1.0, 1.4], "label": "south_wall"},
        {"position_m": [-7.12, 0.71, 1.4], "label": "west_wall"},
    ],
    "beamwidth_deg": 19.8,
}

# demos/configs/monostatic_hall.json as shipped
MONOSTATIC_HALL = {
    "name": "monostatic_hall",
    "carrier_freq_hz": 28e9,
    "bandwidth_hz": 1.0e9,
    "sensing_mode": "mono_static",
    "tx": {"position_m": [0.0, 0.0, 1.5],
           "antenna": {"kind": "horn", "hpbw_deg": 10.31, "peak_gain_db": 25.0}},
    "rx": {"position_m": [0.0, 0.0, 1.5],
           "antenna": {"kind": "horn", "hpbw_deg": 10.31, "peak_gain_db": 25.0}},
    "targets": [],
    "background": {
        "mode": "geometric",
        "scatterers": [
            {"position_m": [9.0, 0.0, 1.5], "reflection_gain_db": 0.0, "label": "east_wall"},
            {"position_m": [0.0, 7.0, 1.5], "reflection_gain_db": -2.0, "label": "north_wall"},
            {"position_m": [-9.0, 0.0, 1.5], "reflection_gain_db": 0.0, "label": "west_wall"},
            {"position_m": [0.0, -7.0, 1.5], "reflection_gain_db": -2.0, "label": "south_wall"},
            {"position_m": [6.0, 5.0, 1.5], "reflection_gain_db": -6.0, "label": "pillar"},
        ],
    },
    "pcf": {"value": 1.0},
    "scan": {"start_deg": 0.0, "stop_deg": 360.0, "step_deg": 5.0},
    "seed": 1234,
    "outputs": "runs/monostatic_hall",
}

# demos/configs/bistatic_ris_factory.json as shipped
RIS_FACTORY = {
    "name": "bistatic_ris_factory",
    "carrier_freq_hz": 6.9e9,
    "bandwidth_hz": 0.4e9,
    "sensing_mode": "bi_static",
    "tx": {"position_m": [0.0, 0.0, 1.5],
           "antenna": {"kind": "horn", "hpbw_deg": 15.0, "peak_gain_db": 20.0}},
    "rx": {"position_m": [8.0, -3.0, 1.5],
           "antenna": {"kind": "horn", "hpbw_deg": 15.0, "peak_gain_db": 20.0}},
    "targets": [{
        "position_m": [4.6, 2.5, 1.5],
        "velocity_mps": [0.0, 0.0, 0.0],
        "rcs": {"variant": "constant", "sigma_dbsm": 8.48},
        "sublink": {"n_clusters": 4, "rays_per_cluster": 15, "delay_scale_ns": 25.0,
                    "angle_spread_deg": 8.0, "k_factor_db": 9.0},
    }],
    "background": {
        "mode": "statistical",
        "profile": {"n_clusters": 8, "rays_per_cluster": 10, "delay_scale_ns": 45.0,
                    "angle_spread_deg": 6.0, "xpr_mean_db": 8.0, "xpr_std_db": 3.0,
                    "shadow_std_db": 4.0},
    },
    "pcf": {"mean": 0.88, "std": 0.03, "condition": "los_los"},
    "scan": {"start_deg": 0.0, "stop_deg": 360.0, "step_deg": 5.0},
    "seed": 7,
    "outputs": "runs/bistatic_ris_factory",
    "sounder": {"register_length": 11, "snr_db": 30.0},
}

# Number of scenario seeds per demo_sweep pass; each seed runs both small
# scenarios, so one pass is 2 * DEMO_SEEDS scenarios.
DEMO_SEEDS = 6

# The RCS table of the second dense_target target: a full 4-D grid over the
# incoming and outgoing azimuth (30-degree steps) and elevation (10-degree steps).
TABLE_AZ_DEG = np.arange(0.0, 360.0, 30.0)
TABLE_EL_DEG = (-10.0, 0.0, 10.0)


@dataclass
class Scenario:
    """One simulate -> analyze -> sounder-roundtrip chain of a pass."""

    name: str
    config_path: Path
    config: dict                   # the raw config as written
    scene: dict | None = None      # reconstruction scene passed to analyze
    scene_path: Path | None = None
    threshold_db: float = 30.0

    def analyze_args(self, run_dir) -> list[str]:
        argv = ["analyze", str(run_dir), "--threshold-db", repr(self.threshold_db)]
        if self.scene_path is not None:
            argv += ["--scene", str(self.scene_path)]
        return argv


@dataclass
class Workload:
    name: str
    scenarios: list[Scenario] = field(default_factory=list)

    def config_paths(self) -> list[str]:
        return [str(s.config_path) for s in self.scenarios]


def _write_json(path: Path, doc: dict) -> Path:
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path


def _scene_for(cfg: dict) -> dict:
    """Reconstruction scene with the Tx, Rx and first target, no reflectors."""
    return {"tx_m": cfg["tx"]["position_m"], "rx_m": cfg["rx"]["position_m"],
            "target_m": cfg["targets"][0]["position_m"], "reflectors": []}


def _scenario_seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=n)]


def _demo_sweep(rng, out: Path) -> Workload:
    wl = Workload("demo_sweep")
    scene_path = _write_json(out / "indoor_human_scene.json", INDOOR_HUMAN_SCENE)
    for i, seed in enumerate(_scenario_seeds(rng, DEMO_SEEDS)):
        human = dict(copy.deepcopy(INDOOR_HUMAN), seed=seed)
        hall = dict(copy.deepcopy(MONOSTATIC_HALL), seed=seed)
        wl.scenarios.append(Scenario(
            f"human{i}", _write_json(out / f"human{i}.json", human), human,
            scene=INDOOR_HUMAN_SCENE, scene_path=scene_path, threshold_db=120.0))
        wl.scenarios.append(Scenario(f"hall{i}", _write_json(out / f"hall{i}.json", hall), hall))
    return wl


def _ris_factory(rng, out: Path) -> Workload:
    cfg = dict(copy.deepcopy(RIS_FACTORY), seed=_scenario_seeds(rng, 1)[0])
    scene = _scene_for(cfg)
    return Workload("ris_factory", [Scenario(
        "ris", _write_json(out / "ris.json", cfg), cfg, scene=scene,
        scene_path=_write_json(out / "ris_scene.json", scene), threshold_db=120.0)])


def _write_rcs_table(rng, path: Path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["az_in_deg", "el_in_deg", "az_out_deg", "el_out_deg", "rcs_dbsm"])
        for az_in in TABLE_AZ_DEG:
            for el_in in TABLE_EL_DEG:
                for az_out in TABLE_AZ_DEG:
                    for el_out in TABLE_EL_DEG:
                        w.writerow([az_in, el_in, az_out, el_out,
                                    round(float(rng.uniform(-10.0, 10.0)), 3)])


def _dense_target(rng, out: Path) -> Workload:
    """About 15k target paths: rays_per_cluster 30 makes every ray pair of
    one cluster pair share a delay, so the zero-tolerance merge scans
    groups of 900 paths; a second, small target with a table RCS adds the
    per-pair interpolator cost; a coarse 60-degree scan keeps the scan a
    minority; register length 12 lengthens the sounder's PN period."""
    _write_rcs_table(rng, out / "dense_rcs.csv")
    cfg = copy.deepcopy(RIS_FACTORY)
    cfg.update(name="dense_target", seed=_scenario_seeds(rng, 1)[0],
               scan={"start_deg": 0.0, "stop_deg": 360.0, "step_deg": 60.0},
               sounder={"register_length": 12, "snr_db": 30.0})
    cfg["targets"][0]["sublink"].update(rays_per_cluster=30)
    cfg["targets"].append({
        "position_m": [3.0, -2.5, 1.5],
        "velocity_mps": [0.0, 0.0, 0.0],
        "rcs": {"variant": "table", "csv": "dense_rcs.csv"},
        "sublink": {"n_clusters": 3, "rays_per_cluster": 5, "delay_scale_ns": 20.0,
                    "angle_spread_deg": 6.0, "k_factor_db": 6.0},
    })
    scene = _scene_for(cfg)
    return Workload("dense_target", [Scenario(
        "dense", _write_json(out / "dense.json", cfg), cfg, scene=scene,
        scene_path=_write_json(out / "dense_scene.json", scene), threshold_db=120.0)])


BUILDERS = {"demo_sweep": _demo_sweep, "ris_factory": _ris_factory,
            "dense_target": _dense_target}


def build(name: str, seed: int, out: Path) -> Workload:
    """Write the workload's configs for ``seed`` into ``out``."""
    if name not in BUILDERS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(BUILDERS)}")
    return BUILDERS[name](np.random.default_rng([seed, list(BUILDERS).index(name)]), out)
